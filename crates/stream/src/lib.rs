//! # pardfs-stream
//!
//! Semi-streaming fully dynamic DFS (Theorem 15 of the paper).
//!
//! In the semi-streaming model the graph is only accessible as a stream of
//! edges and the algorithm may keep `O(n)` words of local state. The paper's
//! observation is that the rerooting algorithm touches the edge set *only*
//! through sets of independent queries on `D`; everything else (the current
//! tree, the partially built tree, the reduction) is `O(n)` local state. One
//! pass over the stream answers one whole set of independent queries — each
//! query only needs to remember the best edge seen so far — so an update costs
//! `O(log^2 n)` passes and `O(n)` space.
//!
//! This crate provides:
//!
//! * [`PassOracle`] — a [`QueryOracle`] that answers every batch by a single
//!   pass over the edge stream, maintaining one partial result per query and
//!   counting passes, edges scanned and peak resident words.
//! * [`PassModel`] — the engine model of Theorem 15, and
//!   [`StreamingDynamicDfs`], `pardfs-core`'s `EngineDfs` in that model:
//!   the same reduction and rerooting engine as every other backend, driven
//!   by the pass oracle, with no `D` ever materialised. Its per-update
//!   stream counters are `stats().stream()`; [`StreamingDfsExt`] adds the
//!   resident words of the `O(n)` space claim, which no report carries.
//!
//! ### Pass accounting
//!
//! The engine issues one batch per component per step; a synchronised
//! implementation would overlap the batches of different components into a
//! single pass (that is how the paper reaches `O(log^2 n)`). The
//! maintainer's `stats()` therefore reports both numbers:
//! [`StreamStats::passes`] (batches actually executed, i.e. passes of this
//! implementation) and the *batched-model* pass count `total_query_sets()`
//! of the engine statistics, which is the quantity Theorem 15 bounds. See
//! `docs/ARCHITECTURE.md` and experiment E5 in the README's experiment
//! index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pardfs_api::{DfsMaintainer, ModelStats, StreamStats, UpdateStats};
use pardfs_core::reduction::ReductionInput;
use pardfs_core::{EngineDfs, Model};
use pardfs_graph::{Graph, Update, Vertex};
use pardfs_query::scan::Nearest;
use pardfs_query::{EdgeHit, QueryOracle, VertexQuery};
use pardfs_seq::augment::AugmentedGraph;
use pardfs_tree::TreeIndex;
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`QueryOracle`] that answers each batch with one pass over the stream.
///
/// The oracle holds only `O(n)` local state: a reference to the current tree
/// index, which the [`Nearest`] fold of every query tests streamed edges
/// against — the edge stream itself is borrowed, never copied.
pub struct PassOracle<'a> {
    stream: &'a Graph,
    idx: &'a TreeIndex,
    passes: AtomicU64,
    edges_scanned: AtomicU64,
    queries: AtomicU64,
    peak_partial_words: AtomicU64,
}

impl<'a> PassOracle<'a> {
    /// Create an oracle over the given edge stream and current tree.
    pub fn new(stream: &'a Graph, idx: &'a TreeIndex) -> Self {
        PassOracle {
            stream,
            idx,
            passes: AtomicU64::new(0),
            edges_scanned: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            peak_partial_words: AtomicU64::new(0),
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            passes: self.passes.load(Ordering::Relaxed),
            edges_scanned: self.edges_scanned.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            peak_partial_words: self.peak_partial_words.load(Ordering::Relaxed),
        }
    }
}

impl QueryOracle for PassOracle<'_> {
    fn answer_batch(&self, queries: &[VertexQuery]) -> Vec<Option<EdgeHit>> {
        self.passes.fetch_add(1, Ordering::Relaxed);
        self.queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        // One partial result (two words) per query — the O(n) space budget.
        self.peak_partial_words
            .fetch_max(2 * queries.len() as u64, Ordering::Relaxed);

        // Group queries by their source vertex so each streamed edge is only
        // checked against the queries that could use it.
        let mut by_source: std::collections::HashMap<Vertex, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, q) in queries.iter().enumerate() {
            by_source.entry(q.w).or_default().push(i);
        }
        let mut folds: Vec<Nearest> = queries.iter().map(|&q| Nearest::new(self.idx, q)).collect();
        let mut scanned = 0u64;
        // The single pass over the stream.
        for e in self.stream.edges() {
            scanned += 1;
            for (w, z) in [(e.0, e.1), (e.1, e.0)] {
                for &i in by_source.get(&w).into_iter().flatten() {
                    folds[i].offer(z);
                }
            }
        }
        self.edges_scanned.fetch_add(scanned, Ordering::Relaxed);
        folds.iter().map(Nearest::hit).collect()
    }
}

/// Semi-streaming fully dynamic DFS maintainer (Theorem 15): the engine in
/// the [`PassModel`].
pub type StreamingDynamicDfs = EngineDfs<PassModel>;

/// The semi-streaming model (Theorem 15): no `D` is ever materialised, and
/// every set of independent queries is answered by one [`PassOracle`] pass
/// over the edge stream. The tree index is `O(n)` local state, so patching
/// it leaves the space bound alone. The initial DFS is computed with the
/// static algorithm; in a pure streaming setting that costs `O(n)` passes
/// once, as the paper notes.
#[derive(Debug, Default)]
pub struct PassModel {
    last: StreamStats,
}

impl Model for PassModel {
    const NAME: &'static str = "streaming";
    type Config = ();

    fn build(_aug: &AugmentedGraph, _idx: &TreeIndex, (): ()) -> Self {
        PassModel::default()
    }

    fn absorb(
        &mut self,
        aug: &AugmentedGraph,
        idx: &TreeIndex,
        _update: &Update,
        _input: &ReductionInput,
        reroot: impl FnOnce(&dyn QueryOracle) -> UpdateStats,
    ) -> UpdateStats {
        // The stream already reflects the update: deleted edges vanished from
        // it, inserted edges appeared (this is the adversary changing the
        // input).
        let oracle = PassOracle::new(aug.graph(), idx);
        let stats = reroot(&oracle);
        self.last = oracle.stats();
        stats
    }

    fn stats(&self) -> Option<ModelStats> {
        Some(ModelStats::Stream(self.last))
    }
}

/// The one semi-streaming quantity no [`pardfs_api::StatsReport`] carries. The stream
/// counters of the last update are `stats().stream()`, and its engine
/// statistics' `total_query_sets()` is the batched-model pass count
/// Theorem 15 bounds.
pub trait StreamingDfsExt {
    /// Resident local state in words: the tree (one parent word per vertex)
    /// plus the partially built tree — the `O(n)` space claim.
    fn resident_words(&self) -> usize;
}

impl StreamingDfsExt for StreamingDynamicDfs {
    fn resident_words(&self) -> usize {
        2 * self.tree().capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardfs_api::ForestQuery;
    use pardfs_graph::generators;
    use pardfs_graph::updates::{random_update_sequence, UpdateMix};
    use pardfs_seq::static_dfs::static_dfs;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn pass_oracle_matches_structure_d() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let g = generators::random_connected_gnm(60, 180, &mut rng);
        let aug = AugmentedGraph::new(&g);
        let idx = TreeIndex::build(&static_dfs(aug.graph(), aug.pseudo_root()));
        let d = pardfs_query::StructureD::build(aug.graph(), idx.clone());
        let oracle = PassOracle::new(aug.graph(), &idx);
        let verts = idx.pre_order_vertices();
        let queries: Vec<VertexQuery> = (0..300)
            .map(|_| {
                let w = verts[rng.gen_range(0..verts.len())];
                let a = verts[rng.gen_range(0..verts.len())];
                // A random ancestor of `a`, by walking up the parent array.
                let mut anc = a;
                for _ in rng.gen_range(0..=idx.level(a))..idx.level(a) {
                    anc = idx.parent_slice()[anc as usize];
                }
                if rng.gen_bool(0.5) {
                    VertexQuery::new(w, a, anc)
                } else {
                    VertexQuery::new(w, anc, a)
                }
            })
            .collect();
        let from_pass = oracle.answer_batch(&queries);
        let from_d = d.answer_batch(&queries);
        for ((q, a), b) in queries.iter().zip(&from_pass).zip(&from_d) {
            assert_eq!(
                a.map(|h| h.rank_from_near),
                b.map(|h| h.rank_from_near),
                "query {q:?}"
            );
        }
        assert_eq!(oracle.stats().passes, 1);
        assert_eq!(
            oracle.stats().edges_scanned as usize,
            aug.graph().num_edges()
        );
    }

    #[test]
    fn streaming_maintainer_stays_valid_and_counts_passes() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::random_connected_gnm(40, 100, &mut rng);
        let updates = random_update_sequence(&g, 25, &UpdateMix::default(), &mut rng);
        let mut s = StreamingDynamicDfs::new(&g);
        s.check().unwrap();
        let mut passes = 0;
        for (i, u) in updates.iter().enumerate() {
            s.apply_update(u);
            s.check()
                .unwrap_or_else(|e| panic!("update {i} ({u:?}) broke the DFS tree: {e}"));
            let n = s.tree().num_vertices() as f64;
            let log2n = n.log2().max(1.0);
            // Batched-model pass count must stay within the Theorem 15 envelope
            // (generous constant; the experiments report the exact numbers).
            let report = s.stats();
            assert!(
                (report.total_query_sets() as f64) <= 20.0 * log2n * log2n,
                "update {i}: {} query sets for n={n}",
                report.total_query_sets()
            );
            passes += report.stream().unwrap().passes;
        }
        assert!(passes > 0);
        assert!(s.resident_words() <= 4 * (s.tree().capacity()));
    }

    #[test]
    fn streaming_matches_core_forest_structure_on_connectivity() {
        // The streaming maintainer and the shared-memory maintainer may build
        // different DFS trees, but they must agree on connectivity.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = generators::random_connected_gnm(30, 60, &mut rng);
        let updates = random_update_sequence(&g, 20, &UpdateMix::edges_only(), &mut rng);
        let mut stream = StreamingDynamicDfs::new(&g);
        let mut core = pardfs_core::DynamicDfs::new(&g);
        let mut reference = g.clone();
        for u in &updates {
            stream.apply_update(u);
            core.apply_update(u);
            reference.apply(u);
            stream.check().unwrap();
            let (labels, _) = pardfs_graph::connected_components(&reference);
            for a in 0..30u32 {
                for b in (a + 1)..30u32 {
                    let same = labels[a as usize] == labels[b as usize];
                    assert_eq!(core.same_component(a, b), same, "({a},{b})");
                }
            }
        }
    }

    #[test]
    fn isolated_and_vertex_updates_in_streaming_mode() {
        let g = generators::star(6);
        let mut s = StreamingDynamicDfs::new(&g);
        s.apply_update(&Update::DeleteVertex(0));
        s.check().unwrap();
        let nv = s.apply_update(&Update::InsertVertex {
            edges: vec![1, 2, 3],
        });
        assert_eq!(nv, Some(6));
        s.check().unwrap();
        assert_eq!(s.forest_parent(0), None);
    }
}
