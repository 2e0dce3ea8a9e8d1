//! # pardfs-core
//!
//! The paper's primary contribution: **parallel fully dynamic and fault
//! tolerant DFS for undirected graphs** (Khan, SPAA 2017).
//!
//! The crate is organised around the paper's own decomposition:
//!
//! * [`reduction`] — Section 3: any single update (edge/vertex ×
//!   insert/delete) reduces to independently rerooting disjoint subtrees of
//!   the current DFS tree, using `O(1)` sets of independent queries on the
//!   data structure `D` and LCA queries on `T` (Theorem 2 / Theorem 11).
//! * [`reroot`] — Section 4: the rerooting engine. Components of the
//!   unvisited graph are processed in synchronous parallel rounds; each round
//!   every component performs one traversal (path halving, disintegrating
//!   traversal, or the simple root-path traversal of the sequential baseline,
//!   depending on the [`Strategy`]), attaches the traversed path to the new
//!   tree `T*`, and splits into new components via batched `D` queries
//!   (the components property, Lemma 1).
//! * [`engine`] — the one update loop: translate → apply → reduce → reroot
//!   → delta-patch the tree index, generic over the execution [`Model`]
//!   that answers the reroot's independent queries. [`EngineDfs`] runs it;
//!   the maintainers of Theorems 13–16 are [`EngineDfs`] over four models
//!   (the streaming and CONGEST models live in `pardfs-stream` and
//!   `pardfs-congest`).
//! * [`dynamic`] — Theorem 13: the fully dynamic maintainer, the live-`D`
//!   model. After every update the `O(n)` tree index is delta-patched with
//!   the update's `TreePatch` (rebuilt only when the patch is refused); `D`
//!   stays anchored to the tree of its last build, absorbing updates
//!   through its overlay and answering current-tree queries via the
//!   Theorem 9 segment decomposition. A configurable [`RebuildPolicy`]
//!   (default: overlay > `m / log₂ n`) decides when the `m`-processor
//!   preprocessing of Theorem 8 re-runs, so rebuilds are amortized instead
//!   of per-update.
//! * [`fault`] — Theorem 14: the fault tolerant maintainer, the frozen-`D`
//!   model. `D` is built *once*; a batch of `k` updates is absorbed by
//!   consulting the original `D` plus a small overlay through
//!   `pardfs_query::Drifted`, which decomposes every queried path of the
//!   evolving tree into ancestor–descendant segments of the *original* tree
//!   (Theorem 9). The decomposition lives next to `D`, in `pardfs-query`.
//!   `reset` returns to the preprocessed state before the next batch.
//!
//! The engine's instrumentation — rounds, sequential query sets, the
//! traversal census — is the quantity the paper's theorems bound
//! (`O(log^2 n)` query sets per reroot, `O(log^3 n)` EREW time), and the
//! experiment harness reports it next to wall-clock numbers. Its types
//! ([`pardfs_api::UpdateStats`] and the rest) live in [`pardfs_api`], shared
//! by every backend.
//!
//! [`EngineDfs`] implements [`pardfs_api::DfsMaintainer`], the unified trait
//! the bench harness, examples and integration tests program against, once
//! for every model. It is the only way to drive a maintainer and read its
//! counters, which reach callers through [`DfsMaintainer::stats`] alone;
//! the fault tolerant maintainer adds only `reset` and the `O(m)` size of
//! `D` (`structure_words`).
//!
//! ## Faithfulness note
//!
//! The `Phased` strategy implements the paper's disintegrating and
//! path-halving traversals with *per-component* size thresholds and a
//! generalised component invariant (a component may temporarily hold more
//! than one untraversed path). The paper instead preserves a strict
//! "one path per component" invariant via the heavy-subtree `l`/`p`/`r`
//! traversals and their special case (Section 4.4); those scenarios exist to
//! guarantee the synchronous phase/stage schedule and are replaced here by the
//! generalised grouping, whose measured round counts are reported by
//! experiment E3 (see `docs/ARCHITECTURE.md` and the README's experiment
//! index). The grouping is exact and has no safety valve: every group of
//! pieces is a connected part of a connected component minus the path just
//! traversed, so by the components property (Lemma 1) it has an edge to that
//! path, and a group without one is an invariant violation that panics. The
//! `Simple` strategy is the parallelised sequential baseline and serves as
//! the ablation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamic;
pub mod engine;
pub mod fault;
pub mod reduction;
pub mod reroot;

pub use dynamic::{DynamicDfs, LiveD};
pub use engine::{EngineDfs, Model};
pub use fault::{FaultTolerantDfs, FrozenD};
pub use pardfs_api::{BatchReport, DfsMaintainer, RebuildPolicy};
pub use reduction::reduce_update;
pub use reroot::{RerootJob, Rerooter, Strategy};
