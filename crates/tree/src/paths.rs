//! Ancestor–descendant path segments and the path primitives of Section 5.3.
//!
//! Throughout the paper, every path that is ever traversed, queried or stored
//! is an *ancestor–descendant path* of the current DFS tree `T`: one endpoint
//! is an ancestor of the other. [`PathSeg`] is the canonical representation of
//! such a path (its two endpoints); its methods and [`path_vertices`] provide
//! the operations the rerooting engine needs: vertex enumeration,
//! membership, and splitting around a vertex.

use crate::index::TreeIndex;
use pardfs_graph::Vertex;

/// An ancestor–descendant path of a rooted tree, stored by its endpoints.
///
/// `top` is the endpoint closer to the root (the ancestor), `bottom` the
/// descendant endpoint. A single vertex is the degenerate path with
/// `top == bottom`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathSeg {
    /// Ancestor endpoint.
    pub top: Vertex,
    /// Descendant endpoint.
    pub bottom: Vertex,
}

impl PathSeg {
    /// Construct a segment from two endpoints, orienting them so that `top` is
    /// the ancestor. Panics (in debug builds) if the endpoints are not in
    /// ancestor–descendant relation.
    pub fn new(idx: &TreeIndex, a: Vertex, b: Vertex) -> Self {
        if idx.is_ancestor(a, b) {
            PathSeg { top: a, bottom: b }
        } else {
            debug_assert!(
                idx.is_ancestor(b, a),
                "({a}, {b}) is not an ancestor-descendant pair"
            );
            PathSeg { top: b, bottom: a }
        }
    }

    /// Does `v` lie on this path?
    pub fn contains(&self, idx: &TreeIndex, v: Vertex) -> bool {
        idx.is_ancestor(self.top, v) && idx.is_ancestor(v, self.bottom)
    }

    /// The vertices of the path from bottom (descendant) to top (ancestor).
    pub fn vertices_bottom_up(&self, idx: &TreeIndex) -> Vec<Vertex> {
        path_vertices(idx, self.bottom, self.top)
    }

    /// Given a vertex `v` on the path, the endpoint farther from `v`
    /// (ties broken towards the `top` endpoint, matching the path-halving rule
    /// "traverse towards the farther end").
    pub fn farther_end(&self, idx: &TreeIndex, v: Vertex) -> Vertex {
        debug_assert!(self.contains(idx, v));
        let to_top = idx.level(v) - idx.level(self.top);
        let to_bottom = idx.level(self.bottom) - idx.level(v);
        if to_top >= to_bottom {
            self.top
        } else {
            self.bottom
        }
    }

    /// Remove the sub-path from `v` (inclusive) to the endpoint `towards`
    /// (inclusive), returning the remaining sub-path, if any.
    ///
    /// This is the "untraversed remainder" of a path after a traversal walked
    /// from `v` to `towards`.
    pub fn remainder_after_walk(
        &self,
        idx: &TreeIndex,
        v: Vertex,
        towards: Vertex,
    ) -> Option<PathSeg> {
        debug_assert!(self.contains(idx, v));
        debug_assert!(towards == self.top || towards == self.bottom);
        if towards == self.top {
            // Walked the upper part [v .. top]; remainder is below v.
            if v == self.bottom {
                None
            } else {
                Some(PathSeg {
                    top: idx.child_toward(v, self.bottom),
                    bottom: self.bottom,
                })
            }
        } else {
            // Walked the lower part [v .. bottom]; remainder is above v.
            if v == self.top {
                None
            } else {
                Some(PathSeg {
                    top: self.top,
                    bottom: idx.parent(v).expect("v above top has a parent"),
                })
            }
        }
    }
}

/// Vertices of the tree path from `from` up to its ancestor `to`, in walking
/// order (both endpoints included). Panics if `to` is not an ancestor of
/// `from`.
pub fn path_vertices(idx: &TreeIndex, from: Vertex, to: Vertex) -> Vec<Vertex> {
    assert!(
        idx.is_ancestor(to, from),
        "path_vertices: {to} is not an ancestor of {from}"
    );
    let mut out = Vec::with_capacity((idx.level(from) - idx.level(to) + 1) as usize);
    let mut cur = from;
    loop {
        out.push(cur);
        if cur == to {
            break;
        }
        cur = idx.parent(cur).expect("walk reached the root before `to`");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rooted::RootedTree;

    /// A small fixture:
    /// ```text
    ///         0
    ///         |
    ///         1
    ///        / \
    ///       2   3
    ///       |   |\
    ///       4   5 6
    ///       |
    ///       7
    /// ```
    fn fixture() -> TreeIndex {
        let mut t = RootedTree::new(8, 0);
        for (c, p) in [(1, 0), (2, 1), (3, 1), (4, 2), (5, 3), (6, 3), (7, 4)] {
            t.attach(c, p);
        }
        TreeIndex::build(&t)
    }

    #[test]
    fn segment_orientation_and_length() {
        let idx = fixture();
        let s = PathSeg::new(&idx, 7, 1);
        assert_eq!(s.top, 1);
        assert_eq!(s.bottom, 7);
    }

    #[test]
    fn membership_and_vertices() {
        let idx = fixture();
        let s = PathSeg::new(&idx, 0, 4);
        assert!(s.contains(&idx, 2));
        assert!(!s.contains(&idx, 3));
        assert_eq!(s.vertices_bottom_up(&idx), vec![4, 2, 1, 0]);
    }

    #[test]
    fn farther_end_ties_towards_top() {
        let idx = fixture();
        let s = PathSeg::new(&idx, 0, 7); // 0-1-2-4-7
        assert_eq!(s.farther_end(&idx, 7), 0);
        assert_eq!(s.farther_end(&idx, 0), 7);
        assert_eq!(s.farther_end(&idx, 2), 0, "tie resolves to the top end");
        assert_eq!(s.farther_end(&idx, 4), 0);
    }

    #[test]
    fn remainder_after_walk() {
        let idx = fixture();
        let s = PathSeg::new(&idx, 0, 7); // 0-1-2-4-7
                                          // Walk from 2 up to 0; the remainder is 4-7.
        let r = s.remainder_after_walk(&idx, 2, 0).unwrap();
        assert_eq!((r.top, r.bottom), (4, 7));
        // Walk from 2 down to 7; the remainder is 0-1.
        let r = s.remainder_after_walk(&idx, 2, 7).unwrap();
        assert_eq!((r.top, r.bottom), (0, 1));
        // Walking the whole path leaves nothing.
        assert!(s.remainder_after_walk(&idx, 0, 7).is_none());
        assert!(s.remainder_after_walk(&idx, 7, 0).is_none());
    }

    #[test]
    fn path_vertices_of_single_vertex() {
        let idx = fixture();
        assert_eq!(path_vertices(&idx, 3, 3), vec![3]);
    }
}
