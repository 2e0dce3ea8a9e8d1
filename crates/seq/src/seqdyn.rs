//! The sequential dynamic-DFS baseline (Baswana, Chaudhury, Choudhary, Khan —
//! reference \[6\] of the paper).
//!
//! A single update is reduced to rerooting disjoint subtrees of the current
//! DFS tree (Section 3 of the paper); each reroot walks the tree path from the
//! new root to the old subtree root, and every subtree hanging from that path
//! is attached by its *lowest* edge to the path (components property,
//! Lemma 1), recursing only into subtrees whose attachment vertex is not their
//! old root. All "lowest edge" questions are answered by the data structure
//! `D` ([`StructureD`]), so a reroot costs `O(path lengths + rerooted subtree
//! sizes)` local work plus one `D` query per hanging subtree.
//!
//! The baseline reports the engine's [`UpdateStats`]: its `D` queries run
//! one `answer_batch` call after another, so each call is one sequential
//! query set, counted under the reduction or the reroot that issued it.
//!
//! This is the comparison baseline for every parallel experiment, and it also
//! doubles as an independent implementation against which the parallel
//! engine's output is cross-checked in tests.

use crate::augment::AugmentedGraph;
use crate::check::check_spanning_dfs_tree;
use crate::static_dfs::static_dfs;
use pardfs_api::{
    forest, maintain_index, DfsMaintainer, ForestQuery, IndexMaintenanceStats, IndexPolicy,
    RerootStats, StatsReport, UpdateStats,
};
use pardfs_graph::{Graph, Update, Vertex};
use pardfs_query::{QueryOracle, StructureD, VertexQuery};
use pardfs_tree::{TreeIndex, TreePatch};
use std::time::Instant;

/// A reroot job produced by the reduction of Section 3.
#[derive(Debug, Clone, Copy)]
struct RerootJob {
    /// Root of the subtree (in the old tree) that must be rerooted.
    sub_root: Vertex,
    /// The vertex of that subtree that becomes its new root.
    new_root: Vertex,
    /// The already-finished vertex the new root hangs from.
    attach_parent: Vertex,
}

/// Sequential fully dynamic DFS maintainer.
#[derive(Debug)]
pub struct SeqRerootDfs {
    aug: AugmentedGraph,
    idx: TreeIndex,
    d: StructureD,
    index_policy: IndexPolicy,
    index_stats: IndexMaintenanceStats,
    last_stats: UpdateStats,
}

impl SeqRerootDfs {
    /// Build the maintainer from a user graph: augment with the pseudo root,
    /// run a static DFS and build `D`.
    pub fn new(user_graph: &Graph) -> Self {
        let aug = AugmentedGraph::new(user_graph);
        let idx = TreeIndex::build(&static_dfs(aug.graph(), aug.pseudo_root()));
        let d = StructureD::build(aug.graph(), idx.clone());
        SeqRerootDfs {
            aug,
            idx,
            d,
            index_policy: IndexPolicy::default(),
            index_stats: IndexMaintenanceStats::default(),
            last_stats: UpdateStats::default(),
        }
    }

    /// Resume the maintainer from previously captured state: an augmented
    /// graph and a DFS tree of it (a durability checkpoint's contents). The
    /// static DFS is skipped — the provided tree *is* the maintained tree —
    /// so the maintainer continues from the crash-time trajectory rather than
    /// restarting from a fresh traversal.
    pub fn from_state(aug: AugmentedGraph, idx: TreeIndex) -> Self {
        assert_eq!(
            idx.root(),
            aug.pseudo_root(),
            "resumed tree must be rooted at the pseudo root"
        );
        assert_eq!(
            idx.capacity(),
            aug.graph().capacity(),
            "resumed tree id space must match the graph"
        );
        let d = StructureD::build(aug.graph(), idx.clone());
        SeqRerootDfs {
            aug,
            idx,
            d,
            index_policy: IndexPolicy::default(),
            index_stats: IndexMaintenanceStats::default(),
            last_stats: UpdateStats::default(),
        }
    }

    /// Select when the tree index is delta-patched versus rebuilt.
    pub fn set_index_policy(&mut self, policy: IndexPolicy) {
        self.index_policy = policy;
    }

    /// Apply one dynamic update expressed in internal (augmented) vertex ids.
    fn apply_internal(&mut self, update: &Update) -> Option<Vertex> {
        let mut stats = UpdateStats::default();
        let proot = self.aug.pseudo_root();

        // Record the update in D's overlay first so that reroot queries see the
        // updated edge set (deleted edges in particular must not be returned).
        let inserted = match update {
            Update::InsertEdge(u, v) => {
                self.d.note_insert_edge(*u, *v);
                self.aug.apply_internal(update)
            }
            Update::DeleteEdge(u, v) => {
                self.d.note_delete_edge(*u, *v);
                self.aug.apply_internal(update)
            }
            Update::DeleteVertex(v) => {
                self.d.note_delete_vertex(*v);
                self.aug.apply_internal(update)
            }
            Update::InsertVertex { .. } => {
                let nv = self.aug.apply_internal(update);
                if let Some(nv) = nv {
                    let nbrs: Vec<Vertex> = self
                        .aug
                        .graph()
                        .neighbors(nv)
                        .iter()
                        .copied()
                        .filter(|&x| x != proot)
                        .collect();
                    self.d.note_insert_vertex(nv, &nbrs);
                }
                nv
            }
        };

        // The update's parent rewrites are described entirely by the
        // `TreePatch` — no per-update `O(n)` copy of the old parent array.
        let start = Instant::now();
        let mut patch = TreePatch::new();
        let jobs = self.reduce(update, inserted, &mut patch, &mut stats);
        stats.reroot_jobs = jobs.len() as u64;
        for job in jobs {
            self.reroot(job, &mut patch, &mut stats.reroot);
        }
        stats.reroot_micros = start.elapsed().as_micros() as u64;

        // Delta-patch the tree index with the update's rewrites; `D` is
        // still rebuilt per update on the new tree (this baseline's model).
        let start = Instant::now();
        maintain_index(
            &mut self.idx,
            &patch,
            self.aug.graph().capacity(),
            self.index_policy,
            &mut self.index_stats,
        );
        self.d = StructureD::build(self.aug.graph(), self.idx.clone());
        stats.rebuild_micros = start.elapsed().as_micros() as u64;
        self.last_stats = stats;
        inserted
    }

    /// The reduction of Section 3: translate an update into reroot jobs,
    /// recording the trivial parent rewrites (deleted vertex removal,
    /// inserted vertex attachment) into `patch`.
    fn reduce(
        &self,
        update: &Update,
        inserted: Option<Vertex>,
        patch: &mut TreePatch,
        stats: &mut UpdateStats,
    ) -> Vec<RerootJob> {
        let idx = &self.idx;
        let proot = self.aug.pseudo_root();
        match update {
            Update::InsertEdge(u, v) => {
                if idx.is_back_edge(*u, *v) {
                    return Vec::new();
                }
                // Reroot the smaller of the two sides at its endpoint and hang
                // it from the other endpoint.
                let w = idx.lca(*u, *v);
                let cu = idx.child_toward(w, *u);
                let cv = idx.child_toward(w, *v);
                let (sub_root, new_root, attach_parent) = if idx.size(cu) <= idx.size(cv) {
                    (cu, *u, *v)
                } else {
                    (cv, *v, *u)
                };
                vec![RerootJob {
                    sub_root,
                    new_root,
                    attach_parent,
                }]
            }
            Update::DeleteEdge(u, v) => {
                let (p, c) = if idx.parent(*v) == Some(*u) {
                    (*u, *v)
                } else if idx.parent(*u) == Some(*v) {
                    (*v, *u)
                } else {
                    return Vec::new(); // back edge: nothing to do
                };
                stats.reduction_query_sets += 1;
                let hit = self
                    .lowest_edge_from_subtree(c, p, proot)
                    .expect("pseudo edges guarantee an attachment");
                vec![RerootJob {
                    sub_root: c,
                    new_root: hit.0,
                    attach_parent: hit.1,
                }]
            }
            Update::DeleteVertex(u) => {
                let anchor = idx.parent(*u).unwrap_or(proot);
                let mut jobs = Vec::new();
                for &c in idx.children(*u) {
                    stats.reduction_query_sets += 1;
                    let hit = self
                        .lowest_edge_from_subtree(c, anchor, proot)
                        .expect("pseudo edges guarantee an attachment");
                    jobs.push(RerootJob {
                        sub_root: c,
                        new_root: hit.0,
                        attach_parent: hit.1,
                    });
                }
                patch.record_removed(*u);
                stats.reroot.relinked_vertices += 1;
                jobs
            }
            Update::InsertVertex { .. } => {
                let nv = inserted.expect("insertion returns the new vertex id");
                let nbrs: Vec<Vertex> = self
                    .aug
                    .graph()
                    .neighbors(nv)
                    .iter()
                    .copied()
                    .filter(|&x| x != proot)
                    .collect();
                let vj = nbrs.first().copied().unwrap_or(proot);
                patch.record_added();
                patch.assign(nv, vj);
                stats.reroot.relinked_vertices += 1;
                // Group the remaining neighbours by the subtree hanging from
                // path(vj, root) that contains them; one reroot per subtree.
                let mut jobs: Vec<RerootJob> = Vec::new();
                for &vi in nbrs.iter().skip(1) {
                    if idx.is_ancestor(vi, vj) {
                        continue; // vi lies on path(vj, root): (nv, vi) is a back edge
                    }
                    let a = idx.lca(vi, vj);
                    let sub_root = idx.child_toward(a, vi);
                    if jobs.iter().any(|j| j.sub_root == sub_root) {
                        continue; // subtree already rerooted via an earlier neighbour
                    }
                    jobs.push(RerootJob {
                        sub_root,
                        new_root: vi,
                        attach_parent: nv,
                    });
                }
                jobs
            }
        }
    }

    /// `Query(T(c), path(near, far))`: lowest edge (nearest to `near`) from the
    /// subtree rooted at `c` to the tree path between `near` and `far`.
    /// Returns `(vertex_in_subtree, vertex_on_path)`. One `answer_batch`
    /// call, of one query per vertex of the subtree.
    fn lowest_edge_from_subtree(
        &self,
        c: Vertex,
        near: Vertex,
        far: Vertex,
    ) -> Option<(Vertex, Vertex)> {
        let queries: Vec<VertexQuery> = self
            .idx
            .subtree_vertices(c)
            .iter()
            .map(|&w| VertexQuery::new(w, near, far))
            .collect();
        self.d
            .answer_batch(&queries)
            .into_iter()
            .flatten()
            .min_by_key(|h| (h.rank_from_near, h.from))
            .map(|h| (h.from, h.on_path))
    }

    /// Reroot the old subtree `job.sub_root` at `job.new_root`, hanging it
    /// from `job.attach_parent`, recording the new parents into `patch`.
    fn reroot(&self, job: RerootJob, patch: &mut TreePatch, stats: &mut RerootStats) {
        let idx = &self.idx;
        let mut pending = vec![job];
        while let Some(RerootJob {
            sub_root,
            new_root,
            attach_parent,
        }) = pending.pop()
        {
            // Fast path of [6]: if the subtree is re-entered through its old
            // root, its internal structure is already a DFS tree — just re-hang.
            if new_root == sub_root {
                patch.assign(sub_root, attach_parent);
                stats.relinked_vertices += 1;
                continue;
            }
            // Walk the tree path new_root -> sub_root, reversing it in T*.
            let path = pardfs_tree::paths::path_vertices(idx, new_root, sub_root);
            let mut prev = attach_parent;
            for &x in &path {
                patch.assign(x, prev);
                prev = x;
                stats.relinked_vertices += 1;
            }
            // Every subtree hanging from the path is attached by its lowest
            // edge to the path (components property) and processed recursively.
            for &x in &path {
                for &c in idx.children(x) {
                    if path.contains(&c) {
                        continue;
                    }
                    stats.query_sets += 1;
                    stats.query_batches += 1;
                    stats.queries += u64::from(idx.size(c));
                    let hit = self
                        .lowest_edge_from_subtree(c, sub_root, new_root)
                        .expect("a hanging subtree always has its tree edge to the path");
                    pending.push(RerootJob {
                        sub_root: c,
                        new_root: hit.0,
                        attach_parent: hit.1,
                    });
                }
            }
        }
    }
}

impl ForestQuery for SeqRerootDfs {
    fn forest_parent(&self, v: Vertex) -> Option<Vertex> {
        forest::forest_parent(self.idx.parent_slice(), v)
    }

    fn forest_roots(&self) -> Vec<Vertex> {
        forest::forest_roots(self.idx.children(forest::PSEUDO_ROOT))
    }

    fn same_component(&self, u: Vertex, v: Vertex) -> bool {
        forest::same_component(self.idx.top_slice(), u, v)
    }

    fn num_vertices(&self) -> usize {
        self.aug.user_num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.aug.user_num_edges()
    }
}

impl DfsMaintainer for SeqRerootDfs {
    fn backend_name(&self) -> &'static str {
        "sequential"
    }

    fn apply_update(&mut self, update: &Update) -> Option<Vertex> {
        let internal = self.aug.translate(update);
        self.apply_internal(&internal).map(|v| self.aug.to_user(v))
    }

    fn tree(&self) -> &TreeIndex {
        &self.idx
    }

    fn augmented_graph(&self) -> &Graph {
        self.aug.graph()
    }

    fn check(&self) -> Result<(), String> {
        check_spanning_dfs_tree(self.aug.graph(), &self.idx)
    }

    fn stats(&self) -> StatsReport {
        StatsReport {
            engine: self.last_stats,
            index: self.index_stats,
            model: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardfs_graph::generators;
    use pardfs_graph::updates::{random_update_sequence, UpdateMix};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn exercise(graph: Graph, updates: &[Update]) {
        let mut dyn_dfs = SeqRerootDfs::new(&graph);
        dyn_dfs.check().unwrap();
        for (i, u) in updates.iter().enumerate() {
            dyn_dfs.apply_update(u);
            dyn_dfs
                .check()
                .unwrap_or_else(|e| panic!("update {i} ({u:?}) broke the DFS tree: {e}"));
        }
    }

    #[test]
    fn edge_insertions_on_a_path() {
        let g = generators::path(10);
        let updates = vec![
            Update::InsertEdge(0, 9),
            Update::InsertEdge(2, 7),
            Update::InsertEdge(1, 5),
        ];
        exercise(g, &updates);
    }

    #[test]
    fn tree_edge_deletions_disconnect_gracefully() {
        let g = generators::path(8);
        let updates = vec![
            Update::DeleteEdge(3, 4),
            Update::DeleteEdge(0, 1),
            Update::DeleteEdge(6, 7),
        ];
        exercise(g, &updates);
    }

    #[test]
    fn vertex_deletion_splits_components() {
        let g = generators::star(9);
        exercise(g, &[Update::DeleteVertex(0)]);
        let g2 = generators::caterpillar(5, 3);
        exercise(g2, &[Update::DeleteVertex(2), Update::DeleteVertex(0)]);
    }

    #[test]
    fn vertex_insertion_with_many_edges() {
        let g = generators::broom(6, 5);
        exercise(
            g,
            &[Update::InsertVertex {
                edges: vec![0, 3, 7, 9, 10],
            }],
        );
    }

    #[test]
    fn isolated_vertex_insertion_and_edge_growth() {
        let g = Graph::new(3);
        exercise(
            g,
            &[
                Update::InsertVertex { edges: vec![] },
                Update::InsertEdge(0, 1),
                Update::InsertEdge(1, 2),
                Update::InsertEdge(2, 3),
                Update::DeleteEdge(1, 2),
            ],
        );
    }

    #[test]
    fn random_mixed_sequences_keep_the_tree_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        for trial in 0..6 {
            let n: usize = rng.gen_range(8..60);
            let m = rng.gen_range(n - 1..(n * (n - 1) / 2).min(3 * n));
            let g = generators::random_connected_gnm(n, m, &mut rng);
            let updates = random_update_sequence(&g, 40, &UpdateMix::default(), &mut rng);
            let mut dyn_dfs = SeqRerootDfs::new(&g);
            for (i, u) in updates.iter().enumerate() {
                dyn_dfs.apply_update(u);
                dyn_dfs.check().unwrap_or_else(|e| {
                    panic!("trial {trial}, update {i} ({u:?}) broke the DFS tree: {e}")
                });
            }
        }
    }

    #[test]
    fn patch_path_never_materializes_the_parent_array() {
        // Edge updates under a splice-everything policy: the index is kept
        // entirely by TreePatch splices, so the O(n) old-parents copy that
        // used to run on *every* update must not run at all.
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let g = generators::random_connected_gnm(60, 150, &mut rng);
        let updates = random_update_sequence(&g, 25, &UpdateMix::edges_only(), &mut rng);
        let mut dfs = SeqRerootDfs::new(&g);
        dfs.set_index_policy(IndexPolicy::PatchAlways);
        for u in &updates {
            dfs.apply_update(u);
        }
        dfs.check().unwrap();
        let census = *dfs.stats().index_maintenance();
        assert_eq!(
            census.full_rebuilds, 0,
            "patched edge updates must not copy the parent array"
        );
        assert_eq!(census.patches_applied, updates.len() as u64);

        // Rebuild-every-update pays exactly one rebuild per update — the
        // pre-fix behaviour, now confined to the rebuild path.
        let mut rebuilt = SeqRerootDfs::new(&g);
        rebuilt.set_index_policy(IndexPolicy::EveryUpdate);
        for u in &updates {
            rebuilt.apply_update(u);
        }
        rebuilt.check().unwrap();
        assert_eq!(
            rebuilt.stats().index_maintenance().full_rebuilds,
            updates.len() as u64
        );
    }

    #[test]
    fn lazy_materialization_matches_direct_rebuild_under_churn() {
        // Vertex churn always falls back to a rebuild; the index's parent
        // array with the patch written in (`TreeIndex::rebuild`) must hold
        // the new tree — `check` after every update pins it.
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let g = generators::random_connected_gnm(40, 100, &mut rng);
        let updates = random_update_sequence(&g, 30, &UpdateMix::default(), &mut rng);
        let mut dfs = SeqRerootDfs::new(&g);
        let churn = updates
            .iter()
            .filter(|u| matches!(u, Update::InsertVertex { .. } | Update::DeleteVertex(_)))
            .count() as u64;
        for (i, u) in updates.iter().enumerate() {
            dfs.apply_update(u);
            dfs.check()
                .unwrap_or_else(|e| panic!("update {i} ({u:?}) broke the tree: {e}"));
        }
        // Only the membership-changing updates (plus any oversized-region
        // fallbacks) rebuilt; edge updates stayed on the patch path.
        let census = *dfs.stats().index_maintenance();
        assert!(census.full_rebuilds >= churn);
        assert!(census.patches_applied > 0);
    }

    #[test]
    fn forest_parent_hides_the_pseudo_root() {
        let g = generators::path(4);
        let mut dyn_dfs = SeqRerootDfs::new(&g);
        dyn_dfs.apply_update(&Update::DeleteEdge(1, 2));
        // 0-1 and 2-3 are now separate components; each root's forest parent is None.
        let mut roots = 0;
        for v in 0..4u32 {
            if dyn_dfs.forest_parent(v).is_none() {
                roots += 1;
            }
        }
        assert_eq!(roots, 2);
        assert!(dyn_dfs.stats().engine.reroot_jobs >= 1);
    }
}
