//! The batched query interface shared by all execution models.

use pardfs_graph::Vertex;
use pardfs_tree::TreeIndex;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Aggregate statistics of an oracle decorated with [`CountingOracle`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Number of `answer_batch` calls (each is one "set of independent
    /// queries" — one streaming pass / one broadcast phase).
    pub batches: u64,
    /// Total number of individual vertex queries.
    pub queries: u64,
    /// Largest batch seen.
    pub max_batch: u64,
    /// Number of answered (non-`None`) queries.
    pub hits: u64,
}

/// A batched, read-only query answerer — what distinguishes the engine's
/// execution models (`pardfs-core::Model`) from one another.
///
/// Implementations:
/// * [`StructureD`](crate::StructureD) — in-memory sorted adjacency
///   (shared-memory parallel model);
/// * `pardfs-stream::PassOracle` — one pass over the edge stream per batch;
/// * `pardfs-congest::BroadcastOracle` — one pipelined broadcast/convergecast
///   per batch;
/// * `pardfs-core::FaultOracle` — the original `D` plus an overlay,
///   with current-tree paths decomposed into original-tree segments
///   (Theorem 9).
pub trait QueryOracle: Sync {
    /// Answer a set of independent queries. The result vector is aligned with
    /// the input slice.
    fn answer_batch(&self, queries: &[VertexQuery]) -> Vec<Option<EdgeHit>>;

    /// Decompose an ancestor–descendant path of the *current* tree (the tree
    /// being rerooted) into a sequence of paths understood by this oracle,
    /// ordered starting from the `near` end.
    ///
    /// The default is the identity, valid whenever the oracle was built on the
    /// current tree itself. The fault-tolerant oracle overrides this with the
    /// original-tree segment decomposition.
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

impl<O: QueryOracle + ?Sized> QueryOracle for &O {
    fn answer_batch(&self, queries: &[VertexQuery]) -> Vec<Option<EdgeHit>> {
        (**self).answer_batch(queries)
    }

    fn decompose_path(
        &self,
        current: &TreeIndex,
        near: Vertex,
        far: Vertex,
    ) -> Vec<(Vertex, Vertex)> {
        (**self).decompose_path(current, near, far)
    }
}

/// Decorator that counts batches and queries flowing through an oracle.
#[derive(Debug, Default)]
pub struct CountingOracle<O> {
    inner: O,
    batches: AtomicU64,
    queries: AtomicU64,
    max_batch: AtomicU64,
    hits: AtomicU64,
}

impl<O> CountingOracle<O> {
    /// Wrap an oracle.
    pub fn new(inner: O) -> Self {
        CountingOracle {
            inner,
            batches: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            batches: self.batches.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
        }
    }

    /// Reset the counters.
    pub fn reset(&self) {
        self.batches.store(0, Ordering::Relaxed);
        self.queries.store(0, Ordering::Relaxed);
        self.max_batch.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
    }

    /// Access the wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: QueryOracle> QueryOracle for CountingOracle<O> {
    fn answer_batch(&self, queries: &[VertexQuery]) -> Vec<Option<EdgeHit>> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        self.max_batch
            .fetch_max(queries.len() as u64, Ordering::Relaxed);
        let out = self.inner.answer_batch(queries);
        let hits = out.iter().filter(|h| h.is_some()).count() as u64;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        out
    }

    fn decompose_path(
        &self,
        current: &TreeIndex,
        near: Vertex,
        far: Vertex,
    ) -> Vec<(Vertex, Vertex)> {
        self.inner.decompose_path(current, near, far)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DummyOracle;
    impl QueryOracle for DummyOracle {
        fn answer_batch(&self, queries: &[VertexQuery]) -> Vec<Option<EdgeHit>> {
            queries
                .iter()
                .map(|q| {
                    if q.w % 2 == 0 {
                        Some(EdgeHit {
                            from: q.w,
                            on_path: q.near,
                            rank_from_near: 0,
                        })
                    } else {
                        None
                    }
                })
                .collect()
        }
    }

    #[test]
    fn counting_oracle_tracks_batches_and_hits() {
        let oracle = CountingOracle::new(DummyOracle);
        let qs: Vec<VertexQuery> = (0..5).map(|w| VertexQuery::new(w, 0, 0)).collect();
        let out = oracle.answer_batch(&qs);
        assert_eq!(out.len(), 5);
        oracle.answer_batch(&qs[..2]);
        let stats = oracle.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.queries, 7);
        assert_eq!(stats.max_batch, 5);
        assert_eq!(stats.hits, 3 + 1);
        oracle.reset();
        assert_eq!(oracle.stats(), OracleStats::default());
    }
}
