//! The forest queries every maintainer and every served snapshot answers,
//! written once against the augmentation id scheme.
//!
//! Every maintainer keeps a DFS tree of the *augmented* graph (Section 2 of
//! the paper): a pseudo root at internal id [`PSEUDO_ROOT`] adjacent to every
//! vertex, with user vertex `v` at internal id `v + 1`. The children of the
//! pseudo root are the roots of the user graph's DFS forest. The helpers
//! below translate user ids through that shift; an id with no internal slot
//! (`u32::MAX`) is simply absent, never wrapped onto the pseudo root.

use pardfs_graph::Vertex;
use pardfs_tree::TreeIndex;

/// The pseudo root's internal vertex id.
pub const PSEUDO_ROOT: Vertex = 0;

/// The internal id of user vertex `v` (`v + 1`), or `None` for the one id
/// the shift would wrap onto the pseudo root.
#[inline]
pub fn internal_id(v: Vertex) -> Option<Vertex> {
    v.checked_add(1)
}

/// Parent of user vertex `v` in the DFS forest encoded by `idx` (`None` for
/// component roots and vertices not present).
///
/// ```
/// use pardfs_api::forest::{forest_parent, same_component};
/// use pardfs_tree::TreeIndex;
///
/// // Pseudo root 0 with user vertex 0 (internal 1) under it and user
/// // vertex 1 (internal 2) under that.
/// let idx = TreeIndex::from_parent_slice(&[0, 0, 1], 0);
/// assert_eq!(forest_parent(&idx, 1), Some(0));
/// assert_eq!(forest_parent(&idx, 0), None);
/// assert_eq!(forest_parent(&idx, u32::MAX), None);
/// assert!(same_component(&idx, 0, 1));
/// assert!(!same_component(&idx, 0, u32::MAX));
/// ```
#[inline]
pub fn forest_parent(idx: &TreeIndex, v: Vertex) -> Option<Vertex> {
    let vi = internal_id(v)?;
    if !idx.contains(vi) {
        return None;
    }
    idx.parent(vi).filter(|&p| p != PSEUDO_ROOT).map(|p| p - 1)
}

/// Roots of the DFS forest encoded by `idx` (user ids), one per connected
/// component of the user graph.
#[inline]
pub fn forest_roots(idx: &TreeIndex) -> Vec<Vertex> {
    idx.children(PSEUDO_ROOT).iter().map(|&c| c - 1).collect()
}

/// Are user vertices `u` and `v` in the same connected component of the
/// graph whose DFS forest `idx` encodes? (Same child-of-pseudo-root ancestor
/// ⇔ same tree ⇔ same component.)
#[inline]
pub fn same_component(idx: &TreeIndex, u: Vertex, v: Vertex) -> bool {
    let (Some(ui), Some(vi)) = (internal_id(u), internal_id(v)) else {
        return false;
    };
    if !idx.contains(ui) || !idx.contains(vi) {
        return false;
    }
    idx.ancestor_at_level(ui, 1) == idx.ancestor_at_level(vi, 1)
}
