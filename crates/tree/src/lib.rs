//! # pardfs-tree
//!
//! Rooted-tree utilities shared by every DFS algorithm in the workspace.
//!
//! The paper's rerooting engine constantly asks structural questions about the
//! *current* DFS tree `T`: lowest common ancestors, ancestor/descendant tests,
//! subtree sizes, the child of a vertex towards a given descendant, and the
//! vertices of an ancestor–descendant path (Section 5.3, Theorem 10). This
//! crate packages those operations:
//!
//! * [`RootedTree`] — a mutable parent-array representation: the static
//!   DFS's output and a test fixture (the engines describe a new tree `T*`
//!   as a [`TreePatch`], not a `RootedTree`).
//! * [`TreeIndex`] — an immutable index over a rooted tree providing `O(1)`
//!   pre/post order numbers, levels, subtree sizes, ancestor tests and
//!   depth-1 ancestor labels (which tree of the forest below the root a
//!   vertex lies in), child-toward queries by binary search of the children,
//!   and one skew-binary jump pointer per vertex for `O(log n)` LCA queries
//!   (the paper's `O(1)` Schieber–Vishkin LCA bound is cited, not
//!   implemented).
//! * [`paths`] — helpers for ancestor–descendant paths: orientation,
//!   enumeration, membership, and splitting around a vertex.
//!
//! * [`patch`] — **delta-patching**: the rerooting machinery emits a
//!   [`TreePatch`] (the parent rewrites of one update) and
//!   [`TreeIndex::apply_patch`] re-walks and renumbers the touched subtree's
//!   orderings, jump pointers and labels in place with the build's own
//!   routines, in `O(|region| + k · log n)` for `k` moved children; when the
//!   patch is not spliceable (membership changes) or not worth it (region
//!   too large), [`TreeIndex::rebuild`] writes it into the index's parent
//!   array and rebuilds.
//!
//! Index construction is `O(n)` work and parallelises trivially, matching
//! the `O(log n)`-time, `n`-processor bound of Theorem 10 in the EREW PRAM
//! cost model (the bound is cited, not simulated); with delta-patching that
//! cost is paid only when a patch falls back, not on every committed update.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod patch;
pub mod paths;
pub mod rooted;
pub mod view;

pub use index::{write_tree_sections, TreeIndex};
pub use pardfs_graph::Vertex;
pub use patch::{PatchOutcome, TreePatch};
pub use rooted::{RootedTree, NO_VERTEX};
pub use view::TreeView;
