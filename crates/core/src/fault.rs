//! The parallel fault tolerant DFS (Theorem 14).
//!
//! The graph is preprocessed **once**: a DFS tree `T` and the structure `D`
//! are built. For any batch of `k` updates, a DFS tree of the updated graph is
//! computed *without touching the preprocessed `D`*: the updates are recorded
//! in `D`'s overlay, the updates are processed one by one, and every query
//! that the reduction or the rerooting engine issues against a path of the
//! *current* tree `T*_i` is decomposed into ancestor–descendant segments of
//! the *original* tree (the argument of Theorem 9: every traversed path of
//! `T*_i` is a concatenation of monotone runs of original tree edges, plus the
//! freshly inserted vertices). The decomposition lives next to `D`, in
//! `pardfs-query`: [`FrozenD`] queries `D` through its
//! [`Drifted`] oracle, which applies [`pardfs_query::base_segments`].
//!
//! [`FaultTolerantDfs`] is the engine ([`crate::engine`]) in the frozen-`D`
//! model [`FrozenD`]. Compared with [`crate::DynamicDfs`], the only extra
//! cost is the segment decomposition (local computation) and the
//! `O(log n + k)` overlay scan in each query — there is no per-update
//! rebuild of `D`, which is what makes the result achievable with `n`
//! processors.

use crate::dynamic::note_update;
use crate::engine::{step, EngineDfs, Model};
use crate::reduction::ReductionInput;
use crate::stats::UpdateStats;
use pardfs_api::{forest, IndexMaintenanceStats, StatsReport};
use pardfs_graph::{Graph, Update, Vertex};
use pardfs_query::{Drifted, QueryOracle, StructureD};
use pardfs_seq::augment::AugmentedGraph;
use pardfs_seq::check::check_spanning_dfs_tree;
use pardfs_tree::TreeIndex;

/// The result of absorbing a batch of updates with the fault tolerant
/// structure: the DFS tree of the updated graph and the per-update statistics.
#[derive(Debug, Clone)]
pub struct FtResult {
    idx: TreeIndex,
    aug: AugmentedGraph,
    /// Statistics of every processed update, in order.
    pub stats: Vec<UpdateStats>,
    /// User ids of the vertices created by `InsertVertex` updates, in order.
    pub inserted: Vec<Vertex>,
    /// Index-maintenance census accumulated while computing this result
    /// (patches spliced vs fallback rebuilds of the per-batch tree index).
    pub index: IndexMaintenanceStats,
    /// Cumulative index census *after each update* of this result, aligned
    /// with [`FtResult::stats`] — so per-update deltas can be recovered with
    /// [`IndexMaintenanceStats::since`], matching the snapshot semantics of
    /// `DfsMaintainer::stats` elsewhere. The last entry equals
    /// [`FtResult::index`].
    pub index_per_update: Vec<IndexMaintenanceStats>,
}

impl FtResult {
    /// The DFS tree of the updated augmented graph (internal ids).
    pub fn tree(&self) -> &TreeIndex {
        &self.idx
    }

    /// The updated augmented graph (internal ids).
    pub fn augmented_graph(&self) -> &Graph {
        self.aug.graph()
    }

    /// Parent of user vertex `v` in the resulting DFS forest.
    pub fn forest_parent(&self, v: Vertex) -> Option<Vertex> {
        forest::forest_parent(self.idx.parent_slice(), v)
    }

    /// Roots of the resulting DFS forest (user ids).
    pub fn forest_roots(&self) -> Vec<Vertex> {
        forest::forest_roots(self.idx.children(forest::PSEUDO_ROOT))
    }

    /// Are user vertices `u` and `v` connected in the updated graph?
    pub fn same_component(&self, u: Vertex, v: Vertex) -> bool {
        forest::same_component(self.idx.top_slice(), u, v)
    }

    /// Number of user vertices in the updated graph.
    pub fn num_vertices(&self) -> usize {
        self.aug.user_num_vertices()
    }

    /// Number of user edges in the updated graph (pseudo edges excluded).
    pub fn num_edges(&self) -> usize {
        self.aug.user_num_edges()
    }

    /// Validate the resulting tree against the updated graph.
    pub fn check(&self) -> Result<(), String> {
        check_spanning_dfs_tree(self.aug.graph(), &self.idx)
    }
}

/// Fault tolerant DFS: preprocess once, answer any batch of `k` updates.
///
/// Two usage styles are supported:
///
/// * **Query style** (the paper's setting): call [`FaultTolerantDfs::tree_after`]
///   with independent batches; each call answers "what would the DFS tree be
///   after these `k` failures" from the frozen preprocessed structure and
///   leaves the maintainer untouched.
/// * **Maintainer style** ([`DfsMaintainer`](pardfs_api::DfsMaintainer)):
///   `apply_update` and `apply_batch` *accumulate* updates; the maintained
///   tree is always `tree_after(all updates so far)`. `D` is still never
///   rebuilt — the overlay records of the accumulated batch stay alive
///   between calls, so absorbing the `i`-th update resumes from the current
///   tree and costs **one** absorption (`O(log n + i)` per query from the
///   overlay scan, not an `O(i)`-update replay; total absorptions over a
///   batch of `k` are `O(k)`, not `O(k²)`). Query-style [`Self::tree_after`]
///   calls can be freely interleaved: they stash the maintainer overlay,
///   run against the pristine structure, and restore it.
///   [`FaultTolerantDfs::reset`] drops the accumulated batch (and its
///   overlay) and returns to the preprocessed state.
pub type FaultTolerantDfs = EngineDfs<FrozenD>;

/// The frozen-`D` model (Theorem 14): `D` is built once on the preprocessed
/// tree and only ever absorbs updates through its overlay; every query path
/// of the current tree is decomposed into segments of the preprocessed tree.
#[derive(Debug)]
pub struct FrozenD {
    /// `D`, built on the preprocessed tree, carrying the overlay of the
    /// pending maintainer-style batch.
    d: StructureD,
    /// The preprocessed graph, restored by `reset` and copied by
    /// `tree_after`.
    base: AugmentedGraph,
    /// The pending batch (internal ids) with its reduction inputs, replayed
    /// into `d`'s overlay after a query-style call wipes it.
    pending: Vec<(Update, ReductionInput)>,
}

impl Model for FrozenD {
    const NAME: &'static str = "fault-tolerant";
    type Config = ();

    fn build(aug: &AugmentedGraph, idx: &TreeIndex, (): ()) -> Self {
        FrozenD {
            d: StructureD::build(aug.graph(), idx.clone()),
            base: aug.clone(),
            pending: Vec::new(),
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
        self.pending.push((update.clone(), input.clone()));
        reroot(&Drifted::new(&self.d))
    }

    fn report(&self, engine: UpdateStats, index: IndexMaintenanceStats) -> StatsReport {
        StatsReport::FaultTolerant { engine, index }
    }
}

impl FaultTolerantDfs {
    /// Number of updates accumulated in maintainer style since the last
    /// reset.
    pub fn pending_updates(&self) -> usize {
        self.model.pending.len()
    }

    /// Total single-update absorptions performed in maintainer style since
    /// construction. With the resumable overlay this grows by exactly one per
    /// `apply_update` — `O(k)` for `k` accumulated updates.
    pub fn absorptions(&self) -> u64 {
        self.updates_applied()
    }

    /// Drop the accumulated maintainer-style updates (and their overlay
    /// records), returning to the preprocessed graph and tree. The as-built
    /// part of the structure `D` is untouched (it never changes); the index
    /// census keeps counting from construction.
    pub fn reset(&mut self) {
        self.aug = self.model.base.clone();
        self.idx = self.model.d.tree().clone();
        self.model.d.clear_overlay();
        self.model.pending.clear();
        self.last_stats = UpdateStats::default();
    }

    /// Size of the preprocessed structure `D` in words (the `O(m)` space claim
    /// of Theorem 14).
    pub fn structure_words(&self) -> usize {
        self.model.d.size_words()
    }

    /// Compute a DFS tree of the graph obtained by applying `updates`
    /// (user ids) to the preprocessed graph. The preprocessed structure is not
    /// modified; the overlay used during the computation is discarded at the
    /// end, so the call can be repeated with arbitrary other batches. Any
    /// maintainer-style pending batch is unaffected: its overlay records are
    /// stashed for the duration of the call and replayed afterwards.
    pub fn tree_after(&mut self, updates: &[Update]) -> FtResult {
        // Maintainer-style absorptions keep their overlay alive in `d`; a
        // query-style batch is relative to the *preprocessed* graph, so it
        // must see a pristine overlay and stay out of the pending batch.
        let pending = std::mem::take(&mut self.model.pending);
        self.model.d.clear_overlay();
        let mut aug = self.model.base.clone();
        let mut idx = self.model.d.tree().clone();
        let before = self.upkeep.stats;
        let mut stats = Vec::with_capacity(updates.len());
        let mut index_per_update = Vec::with_capacity(updates.len());
        let mut inserted = Vec::new();
        for update in updates {
            let (nv, s) = step(
                &mut aug,
                &mut idx,
                &mut self.model,
                self.strategy,
                &mut self.upkeep,
                update,
            );
            inserted.extend(nv);
            stats.push(s);
            index_per_update.push(self.upkeep.stats.since(&before));
        }

        // Restore the preprocessed structure, then the pending batch's
        // overlay, for the next call.
        self.model.d.clear_overlay();
        for (update, input) in &pending {
            note_update(&mut self.model.d, update, input, aug.pseudo_root());
        }
        self.model.pending = pending;

        FtResult {
            idx,
            aug,
            stats,
            inserted,
            index: self.upkeep.stats.since(&before),
            index_per_update,
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

    #[test]
    fn single_failures_match_a_fresh_dfs() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generators::random_connected_gnm(30, 70, &mut rng);
        let mut ft = FaultTolerantDfs::new(&g);
        for (u, v) in generators::sample_edges(&g, 8, &mut rng) {
            let result = ft.tree_after(&[Update::DeleteEdge(u, v)]);
            result.check().unwrap();
        }
    }

    #[test]
    fn batches_of_k_updates_remain_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = generators::random_connected_gnm(40, 120, &mut rng);
        let mut ft = FaultTolerantDfs::new(&g);
        for k in 1..=6usize {
            let updates = random_update_sequence(&g, k, &UpdateMix::default(), &mut rng);
            let result = ft.tree_after(&updates);
            result
                .check()
                .unwrap_or_else(|e| panic!("batch of {k} updates broke the DFS tree: {e}"));
            assert_eq!(result.stats.len(), updates.len());
        }
    }

    #[test]
    fn repeated_batches_do_not_poison_the_structure() {
        let g = generators::grid(5, 5);
        let mut ft = FaultTolerantDfs::new(&g);
        let words_before = ft.structure_words();
        let r1 = ft.tree_after(&[Update::DeleteVertex(12), Update::DeleteEdge(0, 1)]);
        r1.check().unwrap();
        let r2 = ft.tree_after(&[Update::InsertEdge(0, 24)]);
        r2.check().unwrap();
        assert_eq!(ft.structure_words(), words_before);
        // The second batch must not see the first batch's deletions.
        assert!(
            r2.augmented_graph().has_edge(1, 2),
            "vertex 12 must still exist"
        );
    }

    #[test]
    fn maintainer_style_absorption_count_is_linear_in_k() {
        // The old implementation replayed the whole accumulated batch on
        // every apply_update (k(k+1)/2 absorptions for k updates); the
        // resumable overlay makes it exactly k.
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let g = generators::random_connected_gnm(30, 70, &mut rng);
        let k = 12;
        let updates = random_update_sequence(&g, k, &UpdateMix::default(), &mut rng);
        let mut ft = FaultTolerantDfs::new(&g);
        for u in &updates {
            DfsMaintainer::apply_update(&mut ft, u);
            DfsMaintainer::check(&ft).unwrap();
        }
        assert_eq!(ft.absorptions(), k as u64, "one absorption per update");
        assert_eq!(ft.pending_updates(), k);
    }

    #[test]
    fn maintainer_style_batches_also_absorb_linearly() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let g = generators::random_connected_gnm(25, 60, &mut rng);
        let updates = random_update_sequence(&g, 9, &UpdateMix::default(), &mut rng);
        let mut ft = FaultTolerantDfs::new(&g);
        let r1 = DfsMaintainer::apply_batch(&mut ft, &updates[..4]);
        assert_eq!(r1.applied(), 4);
        let r2 = DfsMaintainer::apply_batch(&mut ft, &updates[4..]);
        assert_eq!(r2.applied(), 5);
        DfsMaintainer::check(&ft).unwrap();
        assert_eq!(ft.absorptions(), 9);
        // Per-update reports cover only the new updates, not the backlog.
        assert_eq!(r2.per_update.len(), 5);
        // Empty batches are free.
        let r3 = DfsMaintainer::apply_batch(&mut ft, &[]);
        assert!(r3.is_empty());
        assert_eq!(ft.absorptions(), 9);
    }

    #[test]
    fn batch_reports_carry_per_update_index_snapshots() {
        // Each per-update report holds the cumulative index census *as of
        // that update*, not the batch-final census duplicated — so diffing
        // consecutive entries recovers the per-update work.
        let g = generators::grid(4, 4);
        let mut ft = FaultTolerantDfs::new(&g);
        let r = DfsMaintainer::apply_batch(
            &mut ft,
            &[Update::DeleteEdge(0, 1), Update::DeleteEdge(5, 6)],
        );
        let censuses: Vec<_> = r
            .per_update
            .iter()
            .map(|s| *s.index_maintenance())
            .collect();
        assert_eq!(censuses.len(), 2);
        assert_eq!(censuses[0].patches_applied + censuses[0].full_rebuilds, 1);
        assert_eq!(censuses[1].patches_applied + censuses[1].full_rebuilds, 2);
        // Query style records them per result too.
        let q = ft.tree_after(&[Update::DeleteEdge(10, 11), Update::InsertEdge(0, 15)]);
        assert_eq!(q.index_per_update.len(), 2);
        assert_eq!(*q.index_per_update.last().unwrap(), q.index);
    }

    #[test]
    fn reset_keeps_the_index_census_counting_from_construction() {
        // A two-update batch, a reset, one more update: the last per-update
        // report must carry the census since construction, as `stats()`
        // does — not the census since the reset.
        let g = generators::grid(4, 4);
        let mut ft = FaultTolerantDfs::new(&g);
        DfsMaintainer::apply_batch(
            &mut ft,
            &[Update::DeleteEdge(0, 1), Update::DeleteEdge(5, 6)],
        );
        ft.reset();
        let r = DfsMaintainer::apply_batch(&mut ft, &[Update::DeleteEdge(10, 11)]);
        let census = *r.per_update.last().unwrap().index_maintenance();
        assert_eq!(census, *DfsMaintainer::stats(&ft).index_maintenance());
        assert_eq!(
            (
                census.patches_applied,
                census.vertices_touched,
                census.full_rebuilds
            ),
            (2, 10, 1)
        );
    }

    #[test]
    fn query_style_calls_do_not_disturb_the_pending_batch() {
        // Interleave maintainer-style updates with query-style tree_after
        // calls: the pending batch's overlay must survive the query-style
        // clear/restore cycle, and both styles must stay correct.
        let g = generators::grid(5, 5);
        let mut ft = FaultTolerantDfs::new(&g);
        DfsMaintainer::apply_update(&mut ft, &Update::DeleteEdge(0, 1));
        DfsMaintainer::apply_update(&mut ft, &Update::InsertVertex { edges: vec![3, 17] });
        DfsMaintainer::check(&ft).unwrap();
        let roots_before = ForestQuery::forest_roots(&ft);

        // A query-style batch relative to the *preprocessed* graph: it must
        // still see edge (0,1) and must not see the inserted vertex.
        let q = ft.tree_after(&[Update::DeleteVertex(12)]);
        q.check().unwrap();
        assert!(q.augmented_graph().has_edge(1, 2), "(0,1) untouched");
        assert_eq!(q.num_vertices(), 24, "25 - the deleted vertex");

        // The maintainer state is unchanged and can keep absorbing.
        assert_eq!(ForestQuery::forest_roots(&ft), roots_before);
        DfsMaintainer::apply_update(&mut ft, &Update::DeleteEdge(12, 13));
        DfsMaintainer::check(&ft).unwrap();
        assert_eq!(ft.absorptions(), 3);
        assert_eq!(ForestQuery::num_vertices(&ft), 26, "25 + inserted");
    }

    #[test]
    fn reset_drops_the_batch_and_its_overlay() {
        let g = generators::path(10);
        let mut ft = FaultTolerantDfs::new(&g);
        let words = ft.structure_words();
        DfsMaintainer::apply_update(&mut ft, &Update::DeleteEdge(4, 5));
        DfsMaintainer::apply_update(&mut ft, &Update::InsertEdge(0, 9));
        assert!(ft.structure_words() > words, "overlay holds records");
        ft.reset();
        assert_eq!(ft.pending_updates(), 0);
        assert_eq!(ft.structure_words(), words, "overlay gone");
        DfsMaintainer::check(&ft).unwrap();
        assert_eq!(ForestQuery::num_edges(&ft), 9, "back to preprocessed");
        // And the structure is reusable in either style afterwards.
        let r = ft.tree_after(&[Update::DeleteEdge(4, 5)]);
        r.check().unwrap();
        DfsMaintainer::apply_update(&mut ft, &Update::DeleteEdge(7, 8));
        DfsMaintainer::check(&ft).unwrap();
    }

    #[test]
    fn vertex_insertion_batches() {
        let g = generators::broom(8, 4);
        let mut ft = FaultTolerantDfs::new(&g);
        let result = ft.tree_after(&[
            Update::InsertVertex {
                edges: vec![0, 5, 9],
            },
            Update::InsertVertex { edges: vec![12, 2] },
            Update::DeleteEdge(3, 4),
        ]);
        result.check().unwrap();
        assert!(
            result.forest_parent(12).is_some() || {
                // vertex 12 may itself be a component root
                true
            }
        );
    }
}
