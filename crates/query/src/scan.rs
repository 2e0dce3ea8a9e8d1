//! The nearest-hit fold every oracle answers a [`VertexQuery`] with.
//!
//! The oracles differ only in where they find the far endpoints of `w`'s
//! edges: `D` offers the survivors of its two post-order windows and of its
//! overlay, the CONGEST oracle `w`'s adjacency list, the streaming oracle
//! the edge stream. [`Nearest`] alone decides which of those endpoints lie
//! on the query's path and which of them is nearest to `near`.

use crate::oracle::{EdgeHit, VertexQuery};
use pardfs_graph::Vertex;
use pardfs_tree::TreeIndex;

/// What a query's endpoints name in the oracle's tree.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// The ancestor–descendant path from `top` down to `bottom`; ranks are
    /// measured from the level of `near`.
    Path {
        top: Vertex,
        bottom: Vertex,
        near_level: u32,
    },
    /// A vertex the tree does not contain (inserted after the tree was
    /// built), queried as the singleton `near == far`.
    Outside(Vertex),
    /// Endpoints that name no path of the tree: nothing is a hit.
    Nothing,
}

/// The fold of one query: offer it candidate endpoints in any order, then
/// read the [`EdgeHit`] nearest to `near` among those on the path.
#[derive(Debug, Clone)]
pub struct Nearest<'a> {
    idx: &'a TreeIndex,
    w: Vertex,
    target: Target,
    best: Option<(u32, Vertex)>,
}

impl<'a> Nearest<'a> {
    /// Start the fold of `q` over the tree `idx`, working out the path's
    /// orientation once.
    pub fn new(idx: &'a TreeIndex, q: VertexQuery) -> Self {
        let VertexQuery { w, near, far } = q;
        let path = |top, bottom| Target::Path {
            top,
            bottom,
            near_level: idx.level(near),
        };
        let target = if near == far && !idx.contains(near) {
            Target::Outside(near)
        } else if idx.is_ancestor(near, far) {
            path(near, far)
        } else if idx.is_ancestor(far, near) {
            path(far, near)
        } else {
            debug_assert!(
                false,
                "query path endpoints are not ancestor-descendant in the oracle tree"
            );
            Target::Nothing
        };
        Nearest {
            idx,
            w,
            target,
            best: None,
        }
    }

    /// The queried path as `(top, bottom)`, or `None` when the target is not
    /// a path of the tree (a vertex outside it).
    pub fn path(&self) -> Option<(Vertex, Vertex)> {
        match self.target {
            Target::Path { top, bottom, .. } => Some((top, bottom)),
            Target::Outside(_) | Target::Nothing => None,
        }
    }

    /// Offer `z`, the far endpoint of one of `w`'s edges.
    pub fn offer(&mut self, z: Vertex) {
        let rank = match self.target {
            Target::Path {
                top,
                bottom,
                near_level,
            } if self.idx.is_ancestor(top, z) && self.idx.is_ancestor(z, bottom) => {
                self.idx.level(z).abs_diff(near_level)
            }
            Target::Outside(v) if z == v => 0,
            _ => return,
        };
        if self.best.is_none_or(|(r, _)| rank < r) {
            self.best = Some((rank, z));
        }
    }

    /// The nearest hit offered so far.
    pub fn hit(&self) -> Option<EdgeHit> {
        self.best.map(|(rank_from_near, on_path)| EdgeHit {
            from: self.w,
            on_path,
            rank_from_near,
        })
    }
}
