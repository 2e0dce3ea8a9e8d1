//! The parallel fully dynamic DFS maintainer (Theorem 13), with **incremental
//! maintenance of `D`** under an amortized rebuild policy.
//!
//! [`DynamicDfs`] is the engine ([`crate::engine`]) in the live-`D` model
//! [`LiveD`]. Per update the model records the update in `D`'s overlay and
//! answers the reroot's queries from `D`; the engine delta-patches the tree
//! index with the update's `TreePatch` (`O(|region| + k · log n)`,
//! [`IndexPolicy`](pardfs_api::IndexPolicy)). The `O(m)` structure `D` is
//! *not* rebuilt per update: it stays anchored to the tree it was last built
//! on (the *base* tree), queries against paths of the current tree are
//! decomposed into ancestor–descendant segments of the base tree (the
//! Theorem 9 argument: `pardfs_query::Drifted`, shared with the fault
//! tolerant algorithm), and the overlay absorbs the edge/vertex churn.
//! Only when the overlay outgrows the configured [`RebuildPolicy`] threshold
//! (`c · m / log₂ n` by default) is `D` rebuilt on the current tree — the
//! `O(log n)`-time, `m`-processor preprocessing of Theorem 8, now an
//! amortized rather than per-update event. What the policy decided, and on
//! what inputs, is read from `DfsMaintainer::stats`
//! ([`pardfs_api::StatsReport::rebuild_policy`]).

use crate::engine::{EngineDfs, Model};
use crate::reduction::ReductionInput;
use crate::reroot::Strategy;
use pardfs_api::{ModelStats, RebuildPolicy, RebuildPolicyStats, UpdateStats};
use pardfs_graph::{Graph, Update, Vertex};
use pardfs_query::{Drifted, QueryOracle, StructureD};
use pardfs_seq::augment::AugmentedGraph;
use pardfs_tree::TreeIndex;
use std::time::Instant;

/// Parallel fully dynamic DFS of an undirected graph: the engine in the
/// live-`D` model.
pub type DynamicDfs = EngineDfs<LiveD>;

/// The live-`D` model (Theorem 13): `D` absorbs updates through its overlay
/// and is rebuilt on the current tree when the [`RebuildPolicy`] says the
/// overlay has outgrown it.
#[derive(Debug)]
pub struct LiveD {
    /// `D`, built on the *base* tree (the current tree as of the last
    /// rebuild) and carrying the overlay of every update applied since.
    d: StructureD,
    /// True while the base tree and the current tree are one and the same
    /// (right after a rebuild), letting queries skip path decomposition.
    d_fresh: bool,
    policy: RebuildPolicy,
    policy_stats: RebuildPolicyStats,
}

impl LiveD {
    /// Rebuild `D` on the current tree, discarding the overlay.
    fn rebuild(&mut self, graph: &Graph, idx: &TreeIndex) {
        let t = Instant::now();
        self.d = StructureD::build(graph, idx.clone());
        self.d_fresh = true;
        self.policy_stats
            .record_rebuild(t.elapsed().as_micros() as u64);
        self.policy_stats.threshold = self
            .policy
            .threshold(graph.num_edges(), graph.num_vertices())
            .unwrap_or(u64::MAX);
    }
}

impl Model for LiveD {
    const NAME: &'static str = "parallel";
    type Config = RebuildPolicy;

    fn build(aug: &AugmentedGraph, idx: &TreeIndex, policy: RebuildPolicy) -> Self {
        LiveD {
            d: StructureD::build(aug.graph(), idx.clone()),
            d_fresh: true,
            policy,
            policy_stats: RebuildPolicyStats::default(),
        }
    }

    fn absorb(
        &mut self,
        aug: &AugmentedGraph,
        _idx: &TreeIndex,
        update: &Update,
        input: &ReductionInput,
        reroot: impl FnOnce(&dyn QueryOracle) -> UpdateStats,
    ) -> UpdateStats {
        note_update(&mut self.d, update, input, aug.pseudo_root());
        // While `D` is anchored to the current tree the oracle is `D` itself;
        // once the trees diverge, current-tree paths are decomposed into
        // base-tree segments.
        if self.d_fresh {
            reroot(&self.d)
        } else {
            reroot(&Drifted::new(&self.d))
        }
    }

    fn finish(&mut self, aug: &AugmentedGraph, idx: &TreeIndex) {
        // Leave `D` anchored to its base tree unless the policy says the
        // overlay has outgrown it.
        self.d_fresh = false;
        let graph = aug.graph();
        let (m, n) = (graph.num_edges(), graph.num_vertices());
        if self.policy.should_rebuild(self.d.overlay_updates(), m, n) {
            self.rebuild(graph, idx);
        } else {
            self.policy_stats.threshold = self.policy.threshold(m, n).unwrap_or(u64::MAX);
            self.policy_stats.updates_since_rebuild += 1;
        }
        self.policy_stats.overlay_updates = self.d.overlay_updates() as u64;
    }

    fn stats(&self) -> Option<ModelStats> {
        Some(ModelStats::Rebuild(self.policy_stats))
    }
}

impl DynamicDfs {
    /// Build the maintainer with the default (phased) strategy and the
    /// default amortized rebuild policy.
    pub fn new(user_graph: &Graph) -> Self {
        Self::with_strategy(user_graph, Strategy::Phased)
    }

    /// Build the maintainer with an explicit rerooting strategy and the
    /// default amortized rebuild policy.
    pub fn with_strategy(user_graph: &Graph, strategy: Strategy) -> Self {
        Self::with_config(user_graph, strategy, RebuildPolicy::default())
    }
}

/// Record one applied update (internal ids) in `D`'s overlay, so the queries
/// of its reduction and reroot see the updated edge set.
pub(crate) fn note_update(
    d: &mut StructureD,
    update: &Update,
    input: &ReductionInput,
    proot: Vertex,
) {
    match update {
        Update::InsertEdge(u, v) => d.note_insert_edge(*u, *v),
        Update::DeleteEdge(u, v) => d.note_delete_edge(*u, *v),
        Update::DeleteVertex(v) => d.note_delete_vertex(*v),
        Update::InsertVertex { .. } => {
            if let Some(nv) = input.inserted {
                d.note_insert_vertex(nv, &input.inserted_neighbors);
                // The augmentation also gave the new vertex a pseudo edge;
                // the overlay must know about it so that a later
                // disconnection can still attach the vertex under the pseudo
                // root.
                d.note_insert_edge(nv, proot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardfs_api::{DfsMaintainer, ForestQuery};
    use pardfs_graph::generators;
    use pardfs_graph::updates::{random_update_sequence, UpdateMix};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn rebuild_stats(dfs: &DynamicDfs) -> RebuildPolicyStats {
        *dfs.stats()
            .rebuild_policy()
            .expect("parallel reports carry policy stats")
    }

    fn exercise(graph: Graph, updates: &[Update], strategy: Strategy) -> DynamicDfs {
        exercise_with_policy(graph, updates, strategy, RebuildPolicy::default())
    }

    fn exercise_with_policy(
        graph: Graph,
        updates: &[Update],
        strategy: Strategy,
        policy: RebuildPolicy,
    ) -> DynamicDfs {
        let mut dfs = DynamicDfs::with_config(&graph, strategy, policy);
        dfs.check().unwrap();
        for (i, u) in updates.iter().enumerate() {
            dfs.apply_update(u);
            dfs.check()
                .unwrap_or_else(|e| panic!("update {i} ({u:?}) broke the DFS tree: {e}"));
        }
        dfs
    }

    #[test]
    fn edge_updates_on_small_graphs_both_strategies() {
        for strategy in [Strategy::Simple, Strategy::Phased] {
            let g = generators::path(12);
            let updates = vec![
                Update::InsertEdge(0, 11),
                Update::InsertEdge(3, 8),
                Update::DeleteEdge(5, 6),
                Update::DeleteEdge(0, 1),
                Update::InsertEdge(1, 6),
            ];
            exercise(g, &updates, strategy);
        }
    }

    #[test]
    fn vertex_updates_on_structured_graphs() {
        for strategy in [Strategy::Simple, Strategy::Phased] {
            let g = generators::caterpillar(6, 3);
            let updates = vec![
                Update::DeleteVertex(2),
                Update::InsertVertex {
                    edges: vec![0, 5, 10],
                },
                Update::DeleteVertex(0),
            ];
            exercise(g, &updates, strategy);
        }
    }

    #[test]
    fn forest_api_reports_components() {
        let g = generators::path(6);
        let mut dfs = DynamicDfs::new(&g);
        assert_eq!(dfs.forest_roots().len(), 1);
        assert!(dfs.same_component(0, 5));
        dfs.apply_update(&Update::DeleteEdge(2, 3));
        dfs.check().unwrap();
        assert_eq!(dfs.forest_roots().len(), 2);
        assert!(!dfs.same_component(0, 5));
        assert!(dfs.same_component(3, 5));
        assert_eq!(dfs.num_edges(), 4);
        // Parent chains never cross the pseudo root.
        for v in 0..6u32 {
            if let Some(p) = dfs.forest_parent(v) {
                assert!(p < 6);
            }
        }
    }

    #[test]
    fn random_mixed_sequences_both_strategies() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for strategy in [Strategy::Simple, Strategy::Phased] {
            for _ in 0..4 {
                let n: usize = rng.gen_range(8..50);
                let m = rng.gen_range(n - 1..(n * (n - 1) / 2).min(3 * n));
                let g = generators::random_connected_gnm(n, m, &mut rng);
                let updates = random_update_sequence(&g, 30, &UpdateMix::default(), &mut rng);
                exercise(g, &updates, strategy);
            }
        }
    }

    #[test]
    fn random_mixed_sequences_every_rebuild_policy() {
        // The maintained tree must stay a valid DFS tree no matter how long
        // the overlay is allowed to grow.
        let mut rng = ChaCha8Rng::seed_from_u64(404);
        for policy in [
            RebuildPolicy::EveryUpdate,
            RebuildPolicy::Amortized { factor: 0.25 },
            RebuildPolicy::Amortized { factor: 4.0 },
            RebuildPolicy::Never,
        ] {
            for _ in 0..3 {
                let n: usize = rng.gen_range(8..50);
                let m = rng.gen_range(n - 1..(n * (n - 1) / 2).min(3 * n));
                let g = generators::random_connected_gnm(n, m, &mut rng);
                let updates = random_update_sequence(&g, 30, &UpdateMix::default(), &mut rng);
                exercise_with_policy(g, &updates, Strategy::Phased, policy);
            }
        }
    }

    #[test]
    fn dense_graph_edge_churn() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::random_connected_gnm(40, 300, &mut rng);
        let updates = random_update_sequence(&g, 40, &UpdateMix::edges_only(), &mut rng);
        let dfs = exercise(g, &updates, Strategy::Phased);
        let census = *dfs.stats().index_maintenance();
        assert_eq!(census.patches_applied + census.full_rebuilds, 40);
    }

    #[test]
    fn stats_are_populated() {
        let g = generators::broom(20, 10);
        let mut dfs = DynamicDfs::new(&g);
        // Deleting a handle edge forces a real reroot of the lower half.
        dfs.apply_update(&Update::DeleteEdge(5, 6));
        dfs.check().unwrap();
        let s = dfs.stats().engine;
        assert_eq!(s.reroot_jobs, 1);
        assert!(s.reroot.relinked_vertices > 0);
        assert!(s.reroot.rounds >= 1);
        assert!(s.total_query_sets() >= 1);
        // Inserting a cross edge between two bristles re-hangs a leaf in O(1).
        dfs.apply_update(&Update::InsertEdge(20, 25));
        dfs.check().unwrap();
        let s = dfs.stats().engine;
        assert_eq!(s.reroot_jobs, 1);
        assert_eq!(s.reroot.rounds, 1);
    }

    #[test]
    fn every_update_policy_rebuilds_every_update() {
        let g = generators::broom(15, 5);
        let mut dfs = DynamicDfs::with_config(&g, Strategy::Phased, RebuildPolicy::EveryUpdate);
        for (i, u) in [
            Update::DeleteEdge(3, 4),
            Update::InsertEdge(0, 12),
            Update::DeleteEdge(8, 9),
        ]
        .iter()
        .enumerate()
        {
            dfs.apply_update(u);
            let p = rebuild_stats(&dfs);
            assert_eq!(p.rebuilds, i as u64 + 1);
            assert_eq!(p.overlay_updates, 0, "overlay folded into the rebuild");
            assert_eq!(p.updates_since_rebuild, 0);
            assert_eq!(p.threshold, 0);
        }
    }

    #[test]
    fn never_policy_accumulates_overlay_and_never_rebuilds() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let g = generators::random_connected_gnm(30, 80, &mut rng);
        let updates = random_update_sequence(&g, 25, &UpdateMix::edges_only(), &mut rng);
        let dfs = exercise_with_policy(g, &updates, Strategy::Phased, RebuildPolicy::Never);
        let p = rebuild_stats(&dfs);
        assert_eq!(p.rebuilds, 0);
        assert_eq!(p.total_rebuild_micros, 0);
        assert_eq!(p.threshold, u64::MAX);
        assert_eq!(p.updates_since_rebuild, 25);
        assert_eq!(p.overlay_updates, 25, "one overlay record per edge update");
    }

    #[test]
    fn amortized_policy_crosses_the_threshold_exactly_once_past_it() {
        // n and m chosen so the threshold is small and predictable.
        let g = generators::path(16); // aug: n = 17, m = 31
        let policy = RebuildPolicy::Amortized { factor: 0.5 };
        let mut dfs = DynamicDfs::with_config(&g, Strategy::Phased, policy);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let updates = random_update_sequence(&g, 12, &UpdateMix::edges_only(), &mut rng);
        let mut saw_rebuild = false;
        for u in &updates {
            let before = rebuild_stats(&dfs);
            let overlay_before = before.overlay_updates;
            dfs.apply_update(u);
            dfs.check().unwrap();
            let after = rebuild_stats(&dfs);
            if after.rebuilds > before.rebuilds {
                saw_rebuild = true;
                // The rebuild fired only because this update pushed the
                // overlay strictly past the threshold.
                assert!(overlay_before + 1 > after.threshold || after.threshold == 0);
                assert_eq!(after.overlay_updates, 0);
                assert_eq!(after.updates_since_rebuild, 0);
            } else {
                // Below or at the threshold: the overlay is retained.
                assert!(after.overlay_updates <= after.threshold);
            }
        }
        assert!(
            saw_rebuild,
            "12 edge updates must cross a threshold of ⌈0.5·31/log₂17⌉"
        );
    }

    #[test]
    fn policy_stats_in_stats_report_are_populated_and_monotone() {
        let mut rng = ChaCha8Rng::seed_from_u64(909);
        let g = generators::random_connected_gnm(40, 120, &mut rng);
        let updates = random_update_sequence(&g, 30, &UpdateMix::default(), &mut rng);
        let mut dfs = DynamicDfs::with_config(&g, Strategy::Phased, RebuildPolicy::EveryUpdate);
        let mut last = RebuildPolicyStats::default();
        for u in &updates {
            dfs.apply_update(u);
            let report = DfsMaintainer::stats(&dfs);
            let p = *report
                .rebuild_policy()
                .expect("parallel reports carry policy stats");
            assert!(p.rebuilds >= last.rebuilds, "rebuild count is monotone");
            assert!(
                p.total_rebuild_micros >= last.total_rebuild_micros,
                "total rebuild time is monotone"
            );
            assert!(p.rebuilds > 0, "EveryUpdate rebuilds on the first update");
            last = p;
        }
        assert_eq!(last.rebuilds, updates.len() as u64);
        assert!(
            last.total_rebuild_micros > 0,
            "30 rebuilds of a 120-edge D must take measurable time"
        );
    }

    #[test]
    fn incremental_and_every_update_agree_on_components() {
        // Differential: the same sequence through an incremental maintainer
        // and a rebuild-every-update maintainer must produce
        // component-identical forests at every step.
        let mut rng = ChaCha8Rng::seed_from_u64(2025);
        let g = generators::random_connected_gnm(35, 90, &mut rng);
        let updates = random_update_sequence(&g, 40, &UpdateMix::default(), &mut rng);
        let mut inc = DynamicDfs::with_config(&g, Strategy::Phased, RebuildPolicy::Never);
        let mut full = DynamicDfs::with_config(&g, Strategy::Phased, RebuildPolicy::EveryUpdate);
        for (i, u) in updates.iter().enumerate() {
            inc.apply_update(u);
            full.apply_update(u);
            inc.check()
                .unwrap_or_else(|e| panic!("incremental broke at update {i} ({u:?}): {e}"));
            full.check().unwrap();
            assert_eq!(
                inc.forest_roots().len(),
                full.forest_roots().len(),
                "update {i}"
            );
            let cap = inc.augmented_graph().capacity() as u32;
            for a in (0..cap).step_by(3) {
                for b in (1..cap).step_by(4) {
                    assert_eq!(
                        inc.same_component(a.min(b), a.max(b)),
                        full.same_component(a.min(b), a.max(b)),
                        "update {i}: components diverge on ({a},{b})"
                    );
                }
            }
        }
        assert_eq!(rebuild_stats(&inc).rebuilds, 0);
        assert_eq!(rebuild_stats(&full).rebuilds, 40);
    }
}
