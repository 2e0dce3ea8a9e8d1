//! # pardfs-api
//!
//! The **unified maintainer API** of the pardfs workspace.
//!
//! The paper (Khan, SPAA 2017) presents *one* algorithmic core — reduction of
//! an update to independent subtree reroots, plus a parallel rerooting
//! engine — instantiated in four computation models. The workspace mirrors
//! that structure with five concrete maintainers (parallel, sequential
//! baseline, fault tolerant, semi-streaming, CONGEST); this crate defines the
//! *model-independent* surface they all share:
//!
//! * [`DfsMaintainer`] — the object-safe trait every backend implements:
//!   updates (single and batched), forest queries (`forest_parent`,
//!   `forest_roots`, `same_component`), validity checking and unified
//!   statistics;
//! * [`ForestQuery`] — the read-only half of that surface, split out so
//!   immutable published snapshots (the `pardfs-serve` layer) answer the
//!   same query vocabulary as a live maintainer;
//! * [`forest`] — that vocabulary written once against the pseudo-root id
//!   shift, shared by every maintainer and every served snapshot;
//! * [`BatchReport`] — what a batch of updates did (applied count, inserted
//!   vertex ids, per-update statistics);
//! * [`StatsReport`] — one update's statistics in one record for every
//!   backend: the engine's [`UpdateStats`], the index census, and at most
//!   one model record ([`ModelStats`]: [`RebuildPolicyStats`],
//!   [`StreamStats`] or [`CongestStats`]). Every statistics type is defined
//!   here and named from here alone;
//! * [`RebuildPolicy`] / [`RebuildPolicyStats`] — the amortized rebuild
//!   policy of incremental maintainers: when to fold `D`'s update overlay
//!   back into a fresh build, and what the policy did;
//! * [`IndexPolicy`] / [`IndexMaintenanceStats`] / [`maintain_index`] — the
//!   same amortization idea one layer down: when to splice an update's
//!   `TreePatch` into the tree index versus rebuilding it, shared by every
//!   backend.
//!
//! The crate deliberately depends only on `pardfs-graph` and `pardfs-tree`;
//! backend crates depend on it, never the other way around. Runtime backend
//! *selection* (the `MaintainerBuilder`) lives in the umbrella `pardfs`
//! crate, which is the only crate that can see every backend.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forest;
pub mod maintainer;
pub mod policy;
pub mod report;
pub mod stats;

pub use maintainer::{DfsMaintainer, ForestQuery};
pub use policy::{
    maintain_index, IndexMaintenanceStats, IndexPolicy, RebuildPolicy, RebuildPolicyStats,
};
pub use report::{BatchReport, ModelStats, RecoveryStats, StatsReport, StatsRollup};
pub use stats::{CongestStats, RerootStats, StreamStats, TraversalKind, UpdateStats};
