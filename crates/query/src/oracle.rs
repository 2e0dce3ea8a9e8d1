//! The batched query interface shared by all execution models.

use pardfs_graph::Vertex;
use pardfs_tree::TreeIndex;

/// One independent query: *among the edges of `w` incident on the oracle-tree
/// path between `near` and `far`, return the one whose path endpoint is
/// nearest to `near`*.
///
/// `near` and `far` must be in ancestor–descendant relation in the tree the
/// oracle was built on (either may be the ancestor), or be equal. Queries in a
/// batch must be *independent* in the paper's sense (their descendant-side
/// vertices `w` are distinct), which is what allows one streaming pass or one
/// CONGEST broadcast phase to answer the whole batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexQuery {
    /// The vertex whose incident edges are examined.
    pub w: Vertex,
    /// Preferred endpoint of the queried path.
    pub near: Vertex,
    /// The other endpoint of the queried path.
    pub far: Vertex,
}

impl VertexQuery {
    /// Convenience constructor.
    pub fn new(w: Vertex, near: Vertex, far: Vertex) -> Self {
        VertexQuery { w, near, far }
    }
}

/// A successful query answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeHit {
    /// The queried vertex (the endpoint on the component side).
    pub from: Vertex,
    /// The endpoint lying on the queried path.
    pub on_path: Vertex,
    /// Distance (in tree levels of the oracle's build tree) between `on_path`
    /// and the query's `near` endpoint; 0 means the hit is at `near` itself.
    /// Used to combine partial answers of a multi-vertex query.
    pub rank_from_near: u32,
}

/// A batched, read-only query answerer — what distinguishes the engine's
/// execution models (`pardfs-core::Model`) from one another.
///
/// Implementations, each answering every query with the
/// [`scan`](crate::scan) fold:
/// * [`StructureD`](crate::StructureD) — in-memory sorted adjacency
///   (shared-memory parallel model);
/// * [`Drifted`](crate::Drifted) — a `D` built on an earlier tree, plus its
///   overlay, with current-tree paths decomposed into segments of that tree
///   (Theorem 9);
/// * `pardfs-stream::PassOracle` — one pass over the edge stream per batch;
/// * `pardfs-congest::BroadcastOracle` — one pipelined broadcast/convergecast
///   per batch.
pub trait QueryOracle: Sync {
    /// Answer a set of independent queries. The result vector is aligned with
    /// the input slice.
    fn answer_batch(&self, queries: &[VertexQuery]) -> Vec<Option<EdgeHit>>;

    /// Decompose an ancestor–descendant path of the *current* tree (the tree
    /// being rerooted) into a sequence of paths understood by this oracle,
    /// ordered starting from the `near` end.
    ///
    /// The default is the identity, valid whenever the oracle was built on the
    /// current tree itself. [`Drifted`](crate::Drifted) overrides this with
    /// the base-tree segment decomposition.
    fn decompose_path(
        &self,
        current: &TreeIndex,
        near: Vertex,
        far: Vertex,
    ) -> Vec<(Vertex, Vertex)> {
        let _ = current;
        vec![(near, far)]
    }
}
