//! # pardfs
//!
//! Near optimal parallel algorithms for dynamic DFS in undirected graphs —
//! a reproduction of Khan, SPAA 2017 (arXiv:1705.03637) as a Rust workspace.
//!
//! This umbrella crate re-exports the public API of every sub-crate so that
//! applications can depend on a single crate:
//!
//! * [`api`] — the unified [`DfsMaintainer`] trait, [`BatchReport`] and the
//!   cross-backend [`StatsReport`];
//! * [`graph`] — dynamic undirected graphs, generators, update sequences;
//! * [`tree`] — rooted-tree indexes (orders, sizes, LCA, paths);
//! * [`query`] — the data structure `D` and the query-oracle abstraction
//!   (Theorems 8–9);
//! * [`seq`] — static DFS, validity checking, the sequential dynamic baseline;
//! * [`core`] — the one update engine ([`EngineDfs`], generic over its
//!   execution [`Model`]) with parallel fully dynamic DFS ([`DynamicDfs`])
//!   and fault tolerant DFS ([`FaultTolerantDfs`]) — Theorems 1, 13 and 14;
//! * [`stream`] — the semi-streaming model of the engine (Theorem 15);
//! * [`congest`] — the distributed CONGEST(B) model of the engine
//!   (Theorem 16);
//! * [`scenario`] — the scenario engine: recordable/replayable workload
//!   traces, six adversarial scenario families and the [`ScenarioRunner`]
//!   that drives any backend through a [`Trace`] with per-phase roll-ups;
//! * [`serve`] — the epoch-snapshot concurrent serving layer: a [`Server`]
//!   wrapping any maintainer with group-committed writes and immutable
//!   published snapshots, [`PartitionedRouter`] component-owned sharding
//!   with routed commits and cross-shard merge migration
//!   (`docs/SHARDING.md`), and (in [`scenario`]) the
//!   [`ConcurrentScenarioRunner`] that turns any trace into a
//!   concurrent-serving benchmark through either committer (its [`Served`]
//!   trait);
//! * [`wal`] — trace-as-WAL durability: write-ahead logging of committed
//!   epochs, snapshot checkpoints, crash recovery
//!   ([`MaintainerBuilder::serve_durable`] / [`MaintainerBuilder::recover`]).
//!
//! It also hosts the [`MaintainerBuilder`]: all five backends (the engine in
//! four models, plus the sequential reference) implement the same
//! [`DfsMaintainer`] trait, and the builder selects one at runtime by
//! [`Backend`] × [`Strategy`] — and replays a recorded
//! [`Trace`] end to end via [`MaintainerBuilder::run_scenario`].
//!
//! ## Quick start
//!
//! ```
//! use pardfs::{Backend, MaintainerBuilder, Update};
//! use pardfs::graph::generators;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(42);
//! let g = generators::random_connected_gnm(100, 300, &mut rng);
//!
//! // Pick any backend at runtime — Parallel, Sequential, Streaming,
//! // Congest { bandwidth } or FaultTolerant — same surface.
//! let mut dfs = MaintainerBuilder::new(Backend::Parallel).build(&g);
//!
//! let nbr = g.neighbors(0)[0];
//! dfs.apply_update(&Update::DeleteEdge(0, nbr));
//! let report = dfs.apply_batch(&[
//!     Update::InsertVertex { edges: vec![3, 7, 42] },
//!     Update::InsertEdge(1, 50),
//! ]);
//! assert_eq!(report.applied(), 2);
//! assert!(dfs.check().is_ok());
//! println!(
//!     "forest roots: {:?}, query sets for the batch: {}",
//!     dfs.forest_roots(),
//!     report.total_query_sets(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;

pub use pardfs_api as api;
pub use pardfs_congest as congest;
pub use pardfs_core as core;
pub use pardfs_graph as graph;
pub use pardfs_query as query;
pub use pardfs_seq as seq;
pub use pardfs_serve as serve;
pub use pardfs_stream as stream;
pub use pardfs_tree as tree;
pub use pardfs_wal as wal;
pub use pardfs_workload as scenario;

pub use builder::{Backend, MaintainerBuilder};
pub use pardfs_api::StatsRollup;
pub use pardfs_api::{
    BatchReport, DfsMaintainer, ForestQuery, IndexMaintenanceStats, IndexPolicy, ModelStats,
    RebuildPolicy, RebuildPolicyStats, StatsReport,
};
pub use pardfs_congest::DistributedDynamicDfs;
pub use pardfs_core::{DynamicDfs, EngineDfs, FaultTolerantDfs, Model, Strategy};
pub use pardfs_graph::{Graph, GraphView, MappedSnapshot, Update, Vertex};
pub use pardfs_seq::SeqRerootDfs;
pub use pardfs_serve::{
    ComponentExport, MappedEpoch, OwnershipMap, PartitionedEpoch, PartitionedRouter,
    PartitionedView, ReadHandle, RouterReadHandle, RoutingStats, Server, ShardFactory, Snapshot,
    WriteHandle,
};
pub use pardfs_stream::{StreamingDfsExt, StreamingDynamicDfs};
pub use pardfs_tree::TreeView;
pub use pardfs_wal::{CheckpointPolicy, CheckpointView, DurabilityConfig, Recovered};
pub use pardfs_workload::{
    ConcurrentOutcome, ConcurrentScenarioRunner, EpochReader, PhaseReport, Scenario,
    ScenarioOutcome, ScenarioRunner, Served, Trace, TraceBuilder,
};
