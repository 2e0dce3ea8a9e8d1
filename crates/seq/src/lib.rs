//! # pardfs-seq
//!
//! Sequential DFS algorithms: the classical static DFS of Tarjan, the ordered
//! DFS, DFS-tree validity checking, articulation points / bridges, and the
//! sequential dynamic-DFS baseline in the style of Baswana, Chaudhury,
//! Choudhary and Khan (SODA 2016, reference \[6\] of the paper).
//!
//! These serve three purposes in the reproduction:
//!
//! 1. **Substrate** — every maintainer needs an initial DFS tree, and the
//!    parallel algorithm's preprocessing stage explicitly allows computing it
//!    with the static algorithm (Section 5.4).
//! 2. **Baselines** — the experiment harness compares the parallel update
//!    algorithm against full recomputation ([`static_dfs()`]) and against the
//!    sequential single-update rerooting algorithm ([`SeqRerootDfs`]).
//! 3. **Oracle of correctness** — [`check_dfs_tree`] verifies the defining
//!    property of a DFS tree (every non-tree edge is a back edge, and the tree
//!    spans its component), and is called by the property tests of every other
//!    crate.
//!
//! The *augmented graph* convention used across the workspace also lives here
//! ([`augment`]): a pseudo-root vertex adjacent to every real vertex turns the
//! DFS forest of a (possibly disconnected) dynamic graph into a single DFS
//! tree, exactly as prescribed in Section 2 of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod articulation;
pub mod augment;
pub mod check;
pub mod seqdyn;
pub mod static_dfs;

pub use articulation::{articulation_points, bridges, Biconnectivity};
pub use augment::AugmentedGraph;
pub use check::{check_dfs_tree, check_spanning_dfs_tree};
pub use seqdyn::SeqRerootDfs;
pub use static_dfs::{ordered_dfs, static_dfs, static_dfs_index};
