//! The forest queries every maintainer and every served snapshot answers,
//! written once over flat arrays in the augmentation id scheme.
//!
//! Every maintainer keeps a DFS tree of the *augmented* graph (Section 2 of
//! the paper): a pseudo root at internal id [`PSEUDO_ROOT`] adjacent to every
//! vertex, with user vertex `v` at internal id `v + 1`. The children of the
//! pseudo root are the roots of the user graph's DFS forest, and a vertex's
//! depth-1 ancestor (its `top` label,
//! [`TreeIndex::top_slice`](pardfs_tree::TreeIndex::top_slice)) names the
//! tree it lies in. So each read needs one array: the parent array, the
//! `top` labels, or the pseudo root's children. A live maintainer passes its
//! index's slices, a `pardfs-serve` snapshot its copies of them, and a mapped
//! epoch file the arrays in place, and all of them answer in `O(1)` per
//! vertex. The helpers translate user ids through the shift; an id with no
//! internal slot (`u32::MAX`) is simply absent, never wrapped onto the
//! pseudo root.
//!
//! ```
//! use pardfs_api::forest::{forest_parent, forest_roots, same_component, PSEUDO_ROOT};
//! use pardfs_tree::TreeIndex;
//!
//! // Pseudo root 0 with user vertex 0 (internal 1) under it, user vertex 1
//! // (internal 2) under that, and user vertex 2 (internal 3) alone.
//! let idx = TreeIndex::from_parent_slice(&[0, 0, 1, 0], 0);
//! assert_eq!(forest_parent(idx.parent_slice(), 1), Some(0));
//! assert_eq!(forest_parent(idx.parent_slice(), 0), None);
//! assert_eq!(forest_parent(idx.parent_slice(), u32::MAX), None);
//! assert_eq!(forest_roots(idx.children(PSEUDO_ROOT)), [0, 2]);
//! assert!(same_component(idx.top_slice(), 0, 1));
//! assert!(!same_component(idx.top_slice(), 1, 2));
//! assert!(!same_component(idx.top_slice(), 0, u32::MAX));
//! ```

use pardfs_graph::Vertex;
use pardfs_tree::NO_VERTEX;

/// The pseudo root's internal vertex id.
pub const PSEUDO_ROOT: Vertex = 0;

/// The internal id of user vertex `v` (`v + 1`), or `None` for the one id
/// the shift would wrap onto the pseudo root.
#[inline]
pub fn internal_id(v: Vertex) -> Option<Vertex> {
    v.checked_add(1)
}

/// Parent of user vertex `v` in the DFS forest whose augmented tree has the
/// parent array `parent` (`None` for component roots and vertices not
/// present).
#[inline]
pub fn forest_parent(parent: &[Vertex], v: Vertex) -> Option<Vertex> {
    match *parent.get(internal_id(v)? as usize)? {
        NO_VERTEX | PSEUDO_ROOT => None,
        p => Some(p - 1),
    }
}

/// Roots of the DFS forest (user ids), one per connected component of the
/// user graph, from `roots`, the pseudo root's children (internal ids).
#[inline]
pub fn forest_roots(roots: &[Vertex]) -> Vec<Vertex> {
    roots.iter().map(|&c| c - 1).collect()
}

/// Are user vertices `u` and `v` in the same connected component of the
/// graph whose augmented tree has the depth-1 ancestor labels `top`? (Same
/// label ⇔ same tree ⇔ same component.)
#[inline]
pub fn same_component(top: &[Vertex], u: Vertex, v: Vertex) -> bool {
    let label = |x: Vertex| top.get(internal_id(x)? as usize).copied();
    match (label(u), label(v)) {
        (Some(a), Some(b)) => a != NO_VERTEX && a == b,
        _ => false,
    }
}
