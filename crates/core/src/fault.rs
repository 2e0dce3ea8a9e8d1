//! The parallel fault tolerant DFS (Theorem 14).
//!
//! The graph is preprocessed **once**: a DFS tree `T` and the structure `D`
//! are built. For any batch of `k` updates, a DFS tree of the updated graph is
//! computed *without rebuilding the preprocessed `D`*: the updates are
//! recorded in `D`'s overlay, the updates are processed one by one, and every
//! query that the reduction or the rerooting engine issues against a path of
//! the *current* tree `T*_i` is decomposed into ancestor–descendant segments
//! of the *original* tree (the argument of Theorem 9: every traversed path of
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
use crate::engine::{EngineDfs, Model};
use crate::reduction::ReductionInput;
use pardfs_api::UpdateStats;
use pardfs_graph::Update;
use pardfs_query::{Drifted, QueryOracle, StructureD};
use pardfs_seq::augment::AugmentedGraph;
use pardfs_tree::TreeIndex;

/// Fault tolerant DFS: preprocess once, answer any batch of `k` updates.
///
/// A batch is absorbed through [`DfsMaintainer`](pardfs_api::DfsMaintainer):
/// `apply_update` and `apply_batch` *accumulate* updates against the frozen
/// `D`, so the maintained tree is always a DFS tree of the preprocessed graph
/// after every update since the last [`FaultTolerantDfs::reset`]. `D` is
/// never rebuilt — the overlay records of the accumulated batch stay alive
/// between calls, so absorbing the `i`-th update resumes from the current
/// tree and costs **one** absorption (`O(log n + i)` per query from the
/// overlay scan, not an `O(i)`-update replay; `O(k)` absorptions for a batch
/// of `k`). [`FaultTolerantDfs::reset`] drops the accumulated batch (and its
/// overlay) and returns to the preprocessed state, ready for the next batch.
pub type FaultTolerantDfs = EngineDfs<FrozenD>;

/// The frozen-`D` model (Theorem 14): `D` is built once on the preprocessed
/// tree and only ever absorbs updates through its overlay; every query path
/// of the current tree is decomposed into segments of the preprocessed tree.
#[derive(Debug)]
pub struct FrozenD {
    /// `D`, built on the preprocessed tree, carrying the overlay of the
    /// accumulated batch.
    d: StructureD,
    /// The preprocessed graph, restored by `reset`.
    base: AugmentedGraph,
}

impl Model for FrozenD {
    const NAME: &'static str = "fault-tolerant";
    type Config = ();

    fn build(aug: &AugmentedGraph, idx: &TreeIndex, (): ()) -> Self {
        FrozenD {
            d: StructureD::build(aug.graph(), idx.clone()),
            base: aug.clone(),
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
        reroot(&Drifted::new(&self.d))
    }
}

impl FaultTolerantDfs {
    /// Drop the accumulated updates (and their overlay records), returning
    /// to the preprocessed graph and tree. The as-built part of the
    /// structure `D` is untouched (it never changes); the index census keeps
    /// counting from construction.
    pub fn reset(&mut self) {
        self.aug = self.model.base.clone();
        self.idx = self.model.d.tree().clone();
        self.model.d.clear_overlay();
        self.last_stats = UpdateStats::default();
    }

    /// Size of the preprocessed structure `D` in words (the `O(m)` space claim
    /// of Theorem 14).
    pub fn structure_words(&self) -> usize {
        self.model.d.size_words()
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

    /// One absorption per update: every update maintains the tree index
    /// exactly once, by a patch or a rebuild.
    fn index_maintenances(ft: &FaultTolerantDfs) -> u64 {
        let census = *ft.stats().index_maintenance();
        census.patches_applied + census.full_rebuilds
    }

    #[test]
    fn single_failures_match_a_fresh_dfs() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generators::random_connected_gnm(30, 70, &mut rng);
        let mut ft = FaultTolerantDfs::new(&g);
        for (u, v) in generators::sample_edges(&g, 8, &mut rng) {
            ft.reset();
            ft.apply_batch(&[Update::DeleteEdge(u, v)]);
            ft.check().unwrap();
        }
    }

    #[test]
    fn batches_of_k_updates_remain_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = generators::random_connected_gnm(40, 120, &mut rng);
        let mut ft = FaultTolerantDfs::new(&g);
        for k in 1..=6usize {
            let updates = random_update_sequence(&g, k, &UpdateMix::default(), &mut rng);
            ft.reset();
            let report = ft.apply_batch(&updates);
            ft.check()
                .unwrap_or_else(|e| panic!("batch of {k} updates broke the DFS tree: {e}"));
            assert_eq!(report.applied(), updates.len());
        }
    }

    #[test]
    fn repeated_batches_do_not_poison_the_structure() {
        let g = generators::grid(5, 5);
        let mut ft = FaultTolerantDfs::new(&g);
        let words_before = ft.structure_words();
        ft.apply_batch(&[Update::DeleteVertex(12), Update::DeleteEdge(0, 1)]);
        ft.check().unwrap();
        ft.reset();
        assert_eq!(ft.structure_words(), words_before);
        ft.apply_batch(&[Update::InsertEdge(0, 24)]);
        ft.check().unwrap();
        // The second batch must not see the first batch's updates.
        assert!(ft.augmented_graph().has_edge(1, 2), "edge (0, 1) is back");
        assert_eq!(ft.num_vertices(), 25, "vertex 12 is back");
    }

    #[test]
    fn maintainer_style_absorption_count_is_linear_in_k() {
        // Absorbing the i-th update resumes from the current tree: a batch
        // of k updates costs k absorptions, not a k(k+1)/2 replay.
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let g = generators::random_connected_gnm(30, 70, &mut rng);
        let k = 12;
        let updates = random_update_sequence(&g, k, &UpdateMix::default(), &mut rng);
        let mut ft = FaultTolerantDfs::new(&g);
        for u in &updates {
            ft.apply_update(u);
            ft.check().unwrap();
        }
        assert_eq!(
            index_maintenances(&ft),
            k as u64,
            "one absorption per update"
        );
    }

    #[test]
    fn maintainer_style_batches_also_absorb_linearly() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let g = generators::random_connected_gnm(25, 60, &mut rng);
        let updates = random_update_sequence(&g, 9, &UpdateMix::default(), &mut rng);
        let mut ft = FaultTolerantDfs::new(&g);
        let r1 = ft.apply_batch(&updates[..4]);
        assert_eq!(r1.applied(), 4);
        let r2 = ft.apply_batch(&updates[4..]);
        assert_eq!(r2.applied(), 5);
        ft.check().unwrap();
        assert_eq!(index_maintenances(&ft), 9);
        // Per-update reports cover only the new updates, not the backlog.
        assert_eq!(r2.per_update.len(), 5);
        // Empty batches are free.
        let r3 = ft.apply_batch(&[]);
        assert!(r3.is_empty());
        assert_eq!(index_maintenances(&ft), 9);
    }

    #[test]
    fn batch_reports_carry_per_update_index_snapshots() {
        // Each per-update report holds the cumulative index census *as of
        // that update*, not the batch-final census duplicated — so diffing
        // consecutive entries recovers the per-update work.
        let g = generators::grid(4, 4);
        let mut ft = FaultTolerantDfs::new(&g);
        let r = ft.apply_batch(&[Update::DeleteEdge(0, 1), Update::DeleteEdge(5, 6)]);
        let censuses: Vec<_> = r
            .per_update
            .iter()
            .map(|s| *s.index_maintenance())
            .collect();
        assert_eq!(censuses.len(), 2);
        assert_eq!(censuses[0].patches_applied + censuses[0].full_rebuilds, 1);
        assert_eq!(censuses[1].patches_applied + censuses[1].full_rebuilds, 2);
    }

    #[test]
    fn reset_keeps_the_index_census_counting_from_construction() {
        // A two-update batch, a reset, one more update: the last per-update
        // report must carry the census since construction, as `stats()`
        // does — not the census since the reset.
        let g = generators::grid(4, 4);
        let mut ft = FaultTolerantDfs::new(&g);
        ft.apply_batch(&[Update::DeleteEdge(0, 1), Update::DeleteEdge(5, 6)]);
        ft.reset();
        let r = ft.apply_batch(&[Update::DeleteEdge(10, 11)]);
        let census = *r.per_update.last().unwrap().index_maintenance();
        assert_eq!(census, *ft.stats().index_maintenance());
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
    fn reset_drops_the_batch_and_its_overlay() {
        let g = generators::path(10);
        let mut ft = FaultTolerantDfs::new(&g);
        let words = ft.structure_words();
        ft.apply_update(&Update::DeleteEdge(4, 5));
        ft.apply_update(&Update::InsertEdge(0, 9));
        assert!(ft.structure_words() > words, "overlay holds records");
        ft.reset();
        assert_eq!(ft.structure_words(), words, "overlay gone");
        ft.check().unwrap();
        assert_eq!(ft.num_edges(), 9, "back to preprocessed");
        // And the structure absorbs the next batch afterwards.
        ft.apply_batch(&[Update::DeleteEdge(4, 5), Update::DeleteEdge(7, 8)]);
        ft.check().unwrap();
    }

    #[test]
    fn vertex_insertion_batches() {
        let g = generators::broom(8, 4);
        let mut ft = FaultTolerantDfs::new(&g);
        let report = ft.apply_batch(&[
            Update::InsertVertex {
                edges: vec![0, 5, 9],
            },
            Update::InsertVertex { edges: vec![12, 2] },
            Update::DeleteEdge(3, 4),
        ]);
        ft.check().unwrap();
        assert_eq!(report.inserted, vec![12, 13]);
        assert!(ft.same_component(13, 9), "13 hangs off 12, which meets 9");
    }
}
