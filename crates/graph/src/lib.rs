//! # pardfs-graph
//!
//! Dynamic undirected graph substrate used by every other `pardfs` crate.
//!
//! The paper ("Near Optimal Parallel Algorithms for Dynamic DFS in Undirected
//! Graphs", SPAA 2017) works with an undirected graph `G = (V, E)` subject to an
//! online sequence of *updates*: insertion/deletion of an edge, and
//! insertion/deletion of a vertex (a vertex may be inserted together with an
//! arbitrary set of incident edges). This crate provides:
//!
//! * [`Graph`] — an adjacency-list dynamic undirected graph with stable vertex
//!   identifiers, supporting all four update kinds, stored in a flat
//!   [`AdjacencyArena`] (one contiguous pool for every neighbour list).
//!   Bulk constructions pack the pool by counting instead of inserting edge
//!   by edge: [`Graph::with_hub`] (the pseudo-root augmentation, valid by
//!   construction) and the validating [`Graph::from_adjacency_lists`].
//! * [`snap`] — the `pardfs-snap v2` binary snapshot container (aligned
//!   sections, one whole-file checksum) used by the WAL's checkpoints,
//!   published serving epochs and component exports (normative spec:
//!   `docs/FORMATS.md`).
//! * [`view`] / [`mapped`] — zero-copy reading: [`GraphView`], the one
//!   decoder of the graph sections, serves neighbour queries by borrowing
//!   a container's bytes in place (validate once, borrow thereafter), and
//!   [`MappedSnapshot`] backs that with a read-only `mmap` of a snapshot
//!   file.
//! * [`Update`] and [`UpdateBatch`] — the update vocabulary shared by the
//!   sequential baseline, the parallel engine, and the streaming/distributed
//!   adaptations.
//! * [`generators`] — graph families and random update sequences used by the
//!   test-suite and the experiment harness (random `G(n,p)` / `G(n,m)` graphs,
//!   paths, grids, trees, and the adversarial "broom"/"caterpillar" families
//!   that exercise the worst cases of the rerooting algorithm).
//! * [`connectivity`] — union-find based connectivity helpers used to validate
//!   DFS forests.

// `deny` rather than `forbid` so the one audited FFI/cast module ([`mapped`])
// can opt in with a scoped `allow`; every other module in the crate remains
// unsafe-free and the lint catches any new unsafe outside that module.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod connectivity;
pub mod generators;
pub mod graph;
pub mod mapped;
pub mod snap;
pub mod updates;
pub mod view;

pub use arena::AdjacencyArena;
pub use connectivity::{connected_components, is_connected, DisjointSets};
pub use graph::{Edge, Graph, Vertex, INVALID_VERTEX};
pub use mapped::MappedSnapshot;
pub use snap::{SnapReader, SnapWriter};
pub use updates::{Update, UpdateBatch, UpdateKind};
pub use view::GraphView;
