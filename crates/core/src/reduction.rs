//! The reduction of Section 3: a single graph update becomes a set of
//! independent subtree-rerooting jobs.
//!
//! The reduction only needs `O(1)` sets of independent queries on `D`
//! (Theorem 2 / Theorem 11): at most one set to locate, for every affected
//! subtree, the lowest edge towards the path from the anchor vertex to the
//! root. All tree-structural questions (LCA, child-toward, back-edge tests)
//! are local computations on the current tree index.

use crate::reroot::RerootJob;
use pardfs_api::UpdateStats;
use pardfs_graph::{Update, Vertex};
use pardfs_query::{QueryOracle, VertexQuery};
use pardfs_tree::{TreeIndex, TreePatch};

/// Context of a reduction: which internal vertex was just inserted (for vertex
/// insertions) and which internal vertices it is adjacent to (excluding the
/// pseudo root).
#[derive(Debug, Clone, Default)]
pub struct ReductionInput {
    /// Internal id of the freshly inserted vertex, if the update inserted one.
    pub inserted: Option<Vertex>,
    /// Internal ids of the inserted vertex's real neighbours.
    pub inserted_neighbors: Vec<Vertex>,
}

/// Reduce an update (internal ids) on the DFS tree `idx` (rooted at the pseudo
/// root `proot`) into reroot jobs, recording the trivial parent rewrites
/// (deleted-vertex removal, inserted-vertex attachment) — plus any vertex-set
/// change — into `patch`.
///
/// The graph must already reflect the update; the oracle must reflect it too
/// (deleted edges/vertices masked, inserted edges visible), so that "lowest
/// edge" queries never return a stale edge.
pub fn reduce_update(
    idx: &TreeIndex,
    oracle: &dyn QueryOracle,
    proot: Vertex,
    update: &Update,
    input: &ReductionInput,
    patch: &mut TreePatch,
    stats: &mut UpdateStats,
) -> Vec<RerootJob> {
    match update {
        Update::InsertEdge(u, v) => {
            if idx.is_back_edge(*u, *v) {
                return Vec::new();
            }
            // Reroot the smaller side at its endpoint, hang it from the other.
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
                return Vec::new(); // deleting a back edge leaves the tree intact
            };
            let hits = lowest_edges_from_subtrees(idx, oracle, &[c], p, proot, stats);
            let (new_root, attach_parent) =
                hits[0].expect("the pseudo edges guarantee an attachment for every subtree");
            vec![RerootJob {
                sub_root: c,
                new_root,
                attach_parent,
            }]
        }
        Update::DeleteVertex(u) => {
            let anchor = idx.parent(*u).unwrap_or(proot);
            let children: Vec<Vertex> = idx.children(*u).to_vec();
            let hits = lowest_edges_from_subtrees(idx, oracle, &children, anchor, proot, stats);
            patch.record_removed(*u);
            children
                .iter()
                .zip(hits)
                .map(|(&c, hit)| {
                    let (new_root, attach_parent) =
                        hit.expect("the pseudo edges guarantee an attachment for every subtree");
                    RerootJob {
                        sub_root: c,
                        new_root,
                        attach_parent,
                    }
                })
                .collect()
        }
        Update::InsertVertex { .. } => {
            let nv = input
                .inserted
                .expect("vertex insertion provides the inserted id");
            let vj = input.inserted_neighbors.first().copied().unwrap_or(proot);
            patch.record_added();
            patch.assign(nv, vj);
            let mut jobs: Vec<RerootJob> = Vec::new();
            for &vi in input.inserted_neighbors.iter().skip(1) {
                if idx.is_ancestor(vi, vj) {
                    continue; // (nv, vi) will be a back edge
                }
                let a = idx.lca(vi, vj);
                let sub_root = idx.child_toward(a, vi);
                if jobs.iter().any(|j| j.sub_root == sub_root) {
                    continue; // that hanging subtree is already being rerooted
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

/// One set of independent queries: for every subtree root in `roots`, the
/// lowest edge (nearest to `near`) from that subtree to the tree path between
/// `near` and `far`. Results are aligned with `roots`.
fn lowest_edges_from_subtrees(
    idx: &TreeIndex,
    oracle: &dyn QueryOracle,
    roots: &[Vertex],
    near: Vertex,
    far: Vertex,
    stats: &mut UpdateStats,
) -> Vec<Option<(Vertex, Vertex)>> {
    if roots.is_empty() {
        return Vec::new();
    }
    let mut batch: Vec<VertexQuery> = Vec::new();
    let mut tags: Vec<(usize, u32)> = Vec::new(); // (root index, decomposition rank)
    let segments = oracle.decompose_path(idx, near, far);
    for (i, &r) in roots.iter().enumerate() {
        for &w in idx.subtree_vertices(r) {
            for (k, &(a, b)) in segments.iter().enumerate() {
                batch.push(VertexQuery::new(w, a, b));
                tags.push((i, k as u32));
            }
        }
    }
    stats.reduction_query_sets += 1;
    let answers = oracle.answer_batch(&batch);
    // (neighbour order, rank from near) — smaller wins; payload is the edge.
    type LowestKey = (u32, u32);
    let mut best: Vec<Option<(LowestKey, (Vertex, Vertex))>> = vec![None; roots.len()];
    for ((i, k), hit) in tags.iter().zip(&answers) {
        if let Some(h) = hit {
            let key = (*k, h.rank_from_near);
            if best[*i].is_none_or(|(bk, _)| key < bk) {
                best[*i] = Some((key, (h.from, h.on_path)));
            }
        }
    }
    best.into_iter().map(|b| b.map(|(_, e)| e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardfs_graph::generators;
    use pardfs_query::StructureD;
    use pardfs_seq::augment::AugmentedGraph;
    use pardfs_seq::static_dfs::static_dfs;
    use pardfs_tree::TreeIndex;

    /// Build (augmented graph, tree index, D) for a user graph.
    fn setup(user: &pardfs_graph::Graph) -> (AugmentedGraph, TreeIndex, StructureD) {
        let aug = AugmentedGraph::new(user);
        let idx = TreeIndex::build(&static_dfs(aug.graph(), aug.pseudo_root()));
        let d = StructureD::build(aug.graph(), idx.clone());
        (aug, idx, d)
    }

    #[test]
    fn back_edge_insertion_needs_no_reroot() {
        // Path 0-1-2-3 (user ids); inserting (0,3) on the *tree path* is a back edge.
        let user = generators::path(4);
        let (aug, idx, d) = setup(&user);
        let mut stats = UpdateStats::default();
        let mut patch = TreePatch::new();
        let update = aug.translate(&Update::InsertEdge(0, 3));
        let jobs = reduce_update(
            &idx,
            &d,
            aug.pseudo_root(),
            &update,
            &ReductionInput::default(),
            &mut patch,
            &mut stats,
        );
        assert!(jobs.is_empty());
    }

    #[test]
    fn cross_edge_insertion_reroots_the_smaller_side() {
        // Star with centre 0 and leaves 1..4: inserting (1,2) creates a cross
        // edge; the reroot job must cover one of the two leaves.
        let user = generators::star(5);
        let (aug, idx, d) = setup(&user);
        let mut stats = UpdateStats::default();
        let mut patch = TreePatch::new();
        let update = aug.translate(&Update::InsertEdge(1, 2));
        let jobs = reduce_update(
            &idx,
            &d,
            aug.pseudo_root(),
            &update,
            &ReductionInput::default(),
            &mut patch,
            &mut stats,
        );
        assert_eq!(jobs.len(), 1);
        let j = jobs[0];
        assert_eq!(
            j.sub_root, j.new_root,
            "a leaf subtree is rerooted at itself"
        );
        assert!(j.new_root == aug.to_internal(1) || j.new_root == aug.to_internal(2));
        assert!(j.attach_parent == aug.to_internal(1) || j.attach_parent == aug.to_internal(2));
        assert_ne!(j.new_root, j.attach_parent);
    }

    #[test]
    fn tree_edge_deletion_attaches_through_a_real_edge_when_possible() {
        // Cycle 0-1-2-3-0: DFS tree from the pseudo root enters at some vertex;
        // deleting a tree edge must re-attach via the remaining cycle edge, not
        // via the pseudo root.
        let user = generators::cycle(4);
        let (mut aug, idx, mut d) = setup(&user);
        // Find a user tree edge to delete.
        let (ui, vi) = (0..4u32)
            .flat_map(|a| (0..4u32).map(move |b| (a, b)))
            .find(|&(a, b)| {
                a < b && user.has_edge(a, b) && {
                    let (ai, bi) = (aug.to_internal(a), aug.to_internal(b));
                    idx.parent(ai) == Some(bi) || idx.parent(bi) == Some(ai)
                }
            })
            .map(|(a, b)| (aug.to_internal(a), aug.to_internal(b)))
            .unwrap();
        d.note_delete_edge(ui, vi);
        let internal = Update::DeleteEdge(ui, vi);
        aug.apply_internal(&internal);
        let mut stats = UpdateStats::default();
        let mut patch = TreePatch::new();
        let jobs = reduce_update(
            &idx,
            &d,
            aug.pseudo_root(),
            &internal,
            &ReductionInput::default(),
            &mut patch,
            &mut stats,
        );
        assert_eq!(jobs.len(), 1);
        assert_ne!(
            jobs[0].attach_parent,
            aug.pseudo_root(),
            "the surviving cycle edge should be preferred over the pseudo edge"
        );
        assert_eq!(stats.reduction_query_sets, 1);
    }

    #[test]
    fn deleting_a_cut_vertex_hangs_pieces_from_the_pseudo_root() {
        // Star centre 0: deleting it leaves isolated leaves, which can only
        // attach through pseudo edges.
        let user = generators::star(4);
        let (mut aug, idx, mut d) = setup(&user);
        let centre = aug.to_internal(0);
        d.note_delete_vertex(centre);
        let internal = Update::DeleteVertex(centre);
        aug.apply_internal(&internal);
        let mut stats = UpdateStats::default();
        let mut patch = TreePatch::new();
        let jobs = reduce_update(
            &idx,
            &d,
            aug.pseudo_root(),
            &internal,
            &ReductionInput::default(),
            &mut patch,
            &mut stats,
        );
        // The DFS tree from the pseudo root rooted the star at some leaf, so the
        // centre has at least one child subtree to re-attach.
        assert!(!jobs.is_empty());
        for j in &jobs {
            assert_eq!(j.attach_parent, aug.pseudo_root());
        }
        assert_eq!(patch.removed(), [centre]);
    }

    #[test]
    fn vertex_insertion_groups_neighbours_by_hanging_subtree() {
        // Path 0-1-2-3-4; insert a vertex adjacent to 1, 3 and 4. With the DFS
        // tree being the path itself (rooted near one end), 3 and 4 share a
        // hanging subtree, so at most one reroot job may target it.
        let user = generators::path(5);
        let (mut aug, idx, mut d) = setup(&user);
        let internal_edges: Vec<Vertex> =
            [1u32, 3, 4].iter().map(|&v| aug.to_internal(v)).collect();
        let internal = Update::InsertVertex {
            edges: internal_edges.clone(),
        };
        let nv = aug.apply_internal(&internal).unwrap();
        d.note_insert_vertex(nv, &internal_edges);
        let mut stats = UpdateStats::default();
        let mut patch = TreePatch::new();
        let jobs = reduce_update(
            &idx,
            &d,
            aug.pseudo_root(),
            &internal,
            &ReductionInput {
                inserted: Some(nv),
                inserted_neighbors: internal_edges.clone(),
            },
            &mut patch,
            &mut stats,
        );
        assert_eq!(patch.assignments(), [(nv, internal_edges[0])]);
        assert!(jobs.len() <= 2);
        let roots: Vec<Vertex> = jobs.iter().map(|j| j.sub_root).collect();
        let dedup: std::collections::HashSet<_> = roots.iter().collect();
        assert_eq!(roots.len(), dedup.len(), "jobs target disjoint subtrees");
        for j in &jobs {
            assert_eq!(j.attach_parent, nv);
        }
    }
}
