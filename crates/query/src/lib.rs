//! # pardfs-query
//!
//! The data structure **D** of the paper (Section 5.2, Theorems 8 and 9) and
//! the *query oracle* abstraction through which every execution model
//! (shared-memory parallel, semi-streaming, distributed CONGEST) answers the
//! same batched, independent queries.
//!
//! `D` stores, for every vertex, its neighbours sorted by the post-order
//! number of the neighbour in the DFS tree the structure was built on. Because
//! every non-tree edge of a DFS tree is a back edge, the neighbours of a
//! vertex `w` that lie on an ancestor–descendant path `path(x, y)` and are
//! ancestors of `w` occupy a contiguous post-order window, so each of the
//! paper's three query types reduces to a binary search per *descendant-side*
//! vertex plus a reduction over partial results:
//!
//! 1. `Query(w, path(x, y))` — one binary search.
//! 2. `Query(T(w), path(x, y))` — one search per vertex of the subtree.
//! 3. `Query(path(v, w), path(x, y))` — one search per vertex of one of the
//!    paths.
//!
//! The crate exposes:
//!
//! * [`StructureD`] — the sorted rows, one flat buffer packed by a counting
//!   pass, with an *overlay* that absorbs edge/vertex updates without
//!   rebuilding (Theorem 9), which is what the fault-tolerant algorithm
//!   relies on;
//! * [`Drifted`] — `D` queried on the paths of a tree that has drifted from
//!   the one `D` was built on, each path cut into maximal base-tree segments
//!   by [`base_segments`] (Theorem 9);
//! * [`VertexQuery`] / [`EdgeHit`] — the unit of work handed to an oracle;
//! * [`scan`] — the one nearest-hit fold every oracle answers a query with:
//!   the oracles differ only in which candidate endpoints they offer it;
//! * [`QueryOracle`] — the batched-query trait implemented by `StructureD`
//!   and `Drifted` (shared memory), by the semi-streaming pass oracle
//!   (`pardfs-stream`) and by the CONGEST broadcast oracle
//!   (`pardfs-congest`).
//!
//! The engine itself counts the query sets each update issues
//! (`UpdateStats::total_query_sets`); experiment E3 checks the `O(log^2 n)`
//! bound on sequential query rounds (Theorem 3) from those counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod scan;
pub mod structure;

pub use oracle::{EdgeHit, QueryOracle, VertexQuery};
pub use structure::{base_segments, Drifted, StructureD};
