//! Delta-patching the [`TreeIndex`]: the versioned-tree splice that replaces
//! full `from_parent_slice` rebuilds on the hot path.
//!
//! ## The patch / splice contract
//!
//! The rerooting engine (Section 4 of the paper) rewrites the parent pointers
//! of the *affected* subtrees only; everything outside them keeps its
//! structure. A [`TreePatch`] is the record of exactly those rewrites: the
//! `(child, new_parent)` assignments the reduction and the reroot emitted,
//! plus the vertices that entered or left the tree. [`TreeIndex::apply_patch`]
//! consumes a patch and splices the index in place:
//!
//! 1. **Region.** The patch region is the subtree rooted at `a`, the LCA (in
//!    the *old* tree) of every changed child, its old parent and its new
//!    parent. Because every rewrite is confined to `subtree(a)` and every new
//!    parent lies inside it, `subtree(a)` holds the *same vertex set* before
//!    and after the patch — so its pre-order and post-order intervals keep
//!    their global positions and lengths, and everything outside the region
//!    is untouched.
//! 2. **Splice.** Only the children lists of the moved children's old and
//!    new parents change, kept id-sorted exactly like a fresh build's (the
//!    gained children are grouped by new parent with one sort). The region
//!    is then listed by the index's own pre-order walk, copied into its slice
//!    of the global pre-order, and numbered (`pre`, `level`, `size`, `post`,
//!    then each vertex's jump pointer and `top` label): the walk and the
//!    numbering are the routines a fresh build runs over the whole tree.
//!    Total: `O(|region| + k · log n)` for `k` moved children, the `log n`
//!    being the LCA fold that finds `a` — the `O(|patch| · polylog n)` bound,
//!    since the region is the span of the patch.
//! 3. **Equivalence.** Children lists stay sorted by vertex id, which is the
//!    traversal order `from_parent_slice` uses, and every field of the index
//!    is a function of the parent array, so a patched index is
//!    *structurally identical* ([`TreeIndex::structural_eq`]) to a fresh
//!    build on the patched parent array. The differential property suite
//!    pins this for all five backends.
//!
//! ## The fallback argument
//!
//! Patching is refused — and the caller rebuilds with
//! [`TreeIndex::rebuild`] — in exactly three situations, reported through
//! [`PatchOutcome`]:
//!
//! * **Membership changes** (vertex insertions/deletions). A vertex entering
//!   or leaving the tree shifts the pre/post numbers of every later vertex,
//!   so no interval-preserving splice exists; a renumbering pass would be
//!   `O(n)` anyway, which is what the rebuild already costs.
//! * **Region too large.** When `|region|` exceeds the caller's limit
//!   (`pardfs-api`'s `IndexPolicy` mirrors the `RebuildPolicy` amortization:
//!   a region near the whole tree costs about what the rebuild does).
//! * **Inapplicable patches** (unknown vertices, a moved root, a region walk
//!   that does not list exactly the region's vertices). These indicate the
//!   patch does not describe a valid rewrite of this tree; the index is left
//!   untouched.
//!
//! The fallback keeps correctness independent of the splice:
//! [`TreeIndex::rebuild`] writes the patch into the index's own parent array
//! and rebuilds every other field from it, needing nothing the splice
//! computed.

use crate::index::TreeIndex;
use crate::rooted::NO_VERTEX;
use pardfs_graph::Vertex;
use std::collections::HashMap;

/// The delta the rerooting machinery applied to the DFS tree: new parent
/// assignments (reversed paths are sequences of such assignments), the
/// vertices that left the tree, and whether one entered it.
///
/// Assignments are recorded in application order; for a child assigned more
/// than once, the **last** assignment wins (matching the parent array the
/// engine wrote).
#[derive(Debug, Clone, Default)]
pub struct TreePatch {
    assignments: Vec<(Vertex, Vertex)>,
    removed: Vec<Vertex>,
    added: bool,
}

impl TreePatch {
    /// An empty patch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `child`'s parent becomes `parent`.
    pub fn assign(&mut self, child: Vertex, parent: Vertex) {
        self.assignments.push((child, parent));
    }

    /// Record that `v` left the tree (vertex deletion).
    pub fn record_removed(&mut self, v: Vertex) {
        self.removed.push(v);
    }

    /// Record that a vertex entered the tree (vertex insertion); its parent
    /// arrives as an [`assign`](Self::assign).
    pub fn record_added(&mut self) {
        self.added = true;
    }

    /// The recorded `(child, new_parent)` assignments, in application order.
    pub fn assignments(&self) -> &[(Vertex, Vertex)] {
        &self.assignments
    }

    /// The vertices recorded as having left the tree, in application order.
    pub fn removed(&self) -> &[Vertex] {
        &self.removed
    }

    /// Does the patch change the tree's vertex *set* (insertions/deletions)?
    /// Such patches cannot be spliced and always fall back to a rebuild.
    pub fn changes_membership(&self) -> bool {
        !self.removed.is_empty() || self.added
    }

    /// True when nothing was recorded at all.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty() && !self.changes_membership()
    }
}

/// What [`TreeIndex::apply_patch`] did.
///
/// On every variant other than `Applied` the index was **not** modified and
/// the caller rebuilds it with [`TreeIndex::rebuild`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchOutcome {
    /// The patch was spliced in; `vertices_touched` is the region size (0 for
    /// a patch that turned out to be a no-op, e.g. a back-edge insertion).
    Applied {
        /// Number of vertices whose index entries were recomputed.
        vertices_touched: usize,
    },
    /// The affected region exceeded the caller's limit; rebuild instead.
    RegionTooLarge {
        /// Size of the subtree the splice would have to recompute.
        region: usize,
        /// The limit the caller passed.
        limit: usize,
    },
    /// The patch cannot be spliced (membership change, unknown vertices, …);
    /// the reason is a short static description for stats/logging.
    Unsupported(&'static str),
}

impl TreeIndex {
    /// Splice `patch` into the index in place, provided the affected region
    /// holds at most `limit` vertices. See the [module docs](self) for the
    /// contract; on any outcome other than [`PatchOutcome::Applied`] the
    /// index is unchanged and the caller is expected to rebuild it with
    /// [`TreeIndex::rebuild`].
    pub fn apply_patch(&mut self, patch: &TreePatch, limit: usize) -> PatchOutcome {
        if patch.changes_membership() {
            return PatchOutcome::Unsupported("membership change");
        }

        // Net effect per child (last assignment wins), no-ops dropped.
        let mut target: HashMap<Vertex, Vertex> = HashMap::new();
        for &(c, p) in &patch.assignments {
            target.insert(c, p);
        }
        let mut changed: Vec<(Vertex, Vertex)> = Vec::with_capacity(target.len());
        for (&c, &p) in &target {
            if !self.contains(c) || !self.contains(p) {
                return PatchOutcome::Unsupported("vertex outside the tree");
            }
            if c == self.root {
                if p != self.root {
                    return PatchOutcome::Unsupported("root reassignment");
                }
                continue;
            }
            if self.parent[c as usize] != p {
                changed.push((c, p));
            }
        }
        if changed.is_empty() {
            return PatchOutcome::Applied {
                vertices_touched: 0,
            };
        }

        // Region root: old-tree LCA of every changed child, its old parent
        // and its new parent. All rewrites are confined to subtree(a), so
        // subtree(a)'s vertex set — hence its interval positions — survive.
        let mut a = changed[0].0;
        for &(c, p) in &changed {
            a = self.lca(a, c);
            a = self.lca(a, self.parent[c as usize]);
            a = self.lca(a, p);
        }
        let region = self.size[a as usize] as usize;
        if region > limit {
            return PatchOutcome::RegionTooLarge { region, limit };
        }

        // Edit only the children lists of the moved children's old and new
        // parents, kept id-sorted (a fresh build's traversal order), saving
        // the old lists so a patch that fails the walk leaves no trace. The
        // gained children are grouped by new parent with one sort.
        changed.sort_unstable_by_key(|&(c, p)| (p, c));
        let mut parents: Vec<Vertex> = changed
            .iter()
            .flat_map(|&(c, p)| [self.parent[c as usize], p])
            .collect();
        parents.sort_unstable();
        parents.dedup();
        let mut saved = Vec::with_capacity(parents.len());
        for v in parents {
            let old = self.children.list(v).to_vec();
            let gained = &changed[changed.partition_point(|&(_, p)| p < v)..];
            let gained = &gained[..gained.partition_point(|&(_, p)| p == v)];
            let mut kids: Vec<Vertex> = old
                .iter()
                .copied()
                .filter(|c| target.get(c).is_none_or(|&p| p == v))
                .chain(gained.iter().map(|&(c, _)| c))
                .collect();
            kids.sort_unstable();
            self.children.replace(v, &kids);
            saved.push((v, old));
        }

        let order = self.walk(a, region);
        if order.len() != region {
            // A cycle: the patch does not describe a valid rewrite of this
            // region. Restore the lists, leaving the index untouched.
            for (v, old) in saved {
                self.children.replace(v, &old);
            }
            return PatchOutcome::Unsupported("patch does not preserve the region");
        }
        for &(c, p) in &changed {
            self.parent[c as usize] = p;
        }
        let start = self.pre[a as usize] as usize;
        self.pre_order[start..start + region].copy_from_slice(&order);
        self.number(start, region);
        PatchOutcome::Applied {
            vertices_touched: region,
        }
    }

    /// The fallback for a patch [`TreeIndex::apply_patch`] refused (and for
    /// a policy that never splices): write `patch` into the index's own
    /// parent array, grown to at least `capacity` slots (the graph's id space
    /// after the update), and rebuild every other field from it. Assignments
    /// replay in application order, so the last one wins, and removed
    /// vertices become holes; removals are recorded before any reroot can
    /// touch other vertices, so they never conflict with an assignment.
    pub fn rebuild(&mut self, patch: &TreePatch, capacity: usize) {
        let mut parent = std::mem::take(&mut self.parent);
        parent.resize(parent.len().max(capacity), NO_VERTEX);
        for &(c, p) in &patch.assignments {
            parent[c as usize] = p;
        }
        for &v in &patch.removed {
            parent[v as usize] = NO_VERTEX;
        }
        *self = Self::try_from_parents(parent, self.root).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::{naive_lca, naive_top};
    use crate::rooted::{RootedTree, NO_VERTEX};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Assert that `idx` is structurally a fresh `from_parent_slice` build
    /// on its own parent array, and answers `lca` and the `top` labels as
    /// walks up the parent array do.
    fn assert_identical_to_fresh(idx: &TreeIndex) {
        let parent = idx.parent_slice();
        let fresh = TreeIndex::from_parent_slice(parent, idx.root());
        if let Err(e) = idx.structural_eq(&fresh) {
            panic!("patched index differs from a fresh build: {e}");
        }
        let verts = fresh.pre_order_vertices();
        for &u in verts.iter().step_by(3) {
            for &v in verts.iter().step_by(2) {
                assert_eq!(idx.lca(u, v), naive_lca(parent, u, v), "naive lca({u},{v})");
            }
            let top = naive_top(parent, u).unwrap_or(NO_VERTEX);
            assert_eq!(idx.top_slice()[u as usize], top, "top({u})");
        }
    }

    fn path_index(n: usize) -> TreeIndex {
        let mut t = RootedTree::new(n, 0);
        for v in 1..n as Vertex {
            t.attach(v, v - 1);
        }
        TreeIndex::build(&t)
    }

    #[test]
    fn empty_patch_is_a_noop() {
        let mut idx = path_index(6);
        let patch = TreePatch::new();
        assert!(patch.is_empty());
        assert_eq!(
            idx.apply_patch(&patch, usize::MAX),
            PatchOutcome::Applied {
                vertices_touched: 0
            }
        );
        assert_identical_to_fresh(&idx);
    }

    #[test]
    fn noop_assignments_touch_nothing() {
        let mut idx = path_index(5);
        let mut patch = TreePatch::new();
        patch.assign(3, 2); // already its parent
        assert_eq!(
            idx.apply_patch(&patch, usize::MAX),
            PatchOutcome::Applied {
                vertices_touched: 0
            }
        );
    }

    #[test]
    fn leaf_rehang_touches_only_the_enclosing_subtree() {
        //      0
        //     / \
        //    1   4
        //   / \
        //  2   3
        let mut t = RootedTree::new(5, 0);
        for (c, p) in [(1, 0), (4, 0), (2, 1), (3, 1)] {
            t.attach(c, p);
        }
        let mut idx = TreeIndex::build(&t);
        // Move leaf 3 under 2: region is subtree(1), size 3.
        let mut patch = TreePatch::new();
        patch.assign(3, 2);
        assert_eq!(
            idx.apply_patch(&patch, usize::MAX),
            PatchOutcome::Applied {
                vertices_touched: 3
            }
        );
        assert_eq!(idx.parent(3), Some(2));
        assert_identical_to_fresh(&idx);
    }

    #[test]
    fn path_reversal_patch_matches_fresh_build() {
        // Reverse the lower half of a path below vertex 4 (a reroot of the
        // subtree at 5 rerooted at 9, reattached under 4) — the classic
        // engine output shape.
        let n = 10;
        let mut idx = path_index(n);
        let mut patch = TreePatch::new();
        // 9 hangs from 4; 8 from 9; ...; 5 from 6.
        patch.assign(9, 4);
        for v in (5..9).rev() {
            patch.assign(v as Vertex, v as Vertex + 1);
        }
        let out = idx.apply_patch(&patch, usize::MAX);
        assert!(matches!(out, PatchOutcome::Applied { .. }), "{out:?}");
        assert_identical_to_fresh(&idx);
    }

    #[test]
    fn membership_changes_are_unsupported() {
        let mut idx = path_index(6);
        let mut patch = TreePatch::new();
        patch.record_removed(3);
        assert_eq!(
            idx.apply_patch(&patch, usize::MAX),
            PatchOutcome::Unsupported("membership change")
        );
        let mut patch = TreePatch::new();
        patch.record_added();
        assert!(matches!(
            idx.apply_patch(&patch, usize::MAX),
            PatchOutcome::Unsupported(_)
        ));
        assert_identical_to_fresh(&idx); // untouched
    }

    #[test]
    fn oversized_regions_are_refused() {
        let mut idx = path_index(16);
        let mut patch = TreePatch::new();
        patch.assign(15, 1); // region = subtree(1) = 15 vertices
        assert_eq!(
            idx.apply_patch(&patch, 4),
            PatchOutcome::RegionTooLarge {
                region: 15,
                limit: 4
            }
        );
        assert_identical_to_fresh(&idx); // untouched
    }

    #[test]
    fn cycle_creating_patch_is_rejected_without_damage() {
        let mut idx = path_index(6);
        let snapshot = idx.clone();
        let mut patch = TreePatch::new();
        patch.assign(2, 4); // 2 under 4 while 4 still descends from 2: cycle
        assert_eq!(
            idx.apply_patch(&patch, usize::MAX),
            PatchOutcome::Unsupported("patch does not preserve the region")
        );
        // Index must be byte-identical to before the attempt.
        assert_eq!(idx.pre_order_vertices(), snapshot.pre_order_vertices());
        for v in 0..6 {
            assert_eq!(idx.parent(v), snapshot.parent(v));
        }
    }

    #[test]
    fn refused_splices_restore_the_children_lists() {
        // The splice edits the children lists before its walk can see the
        // cycle, so a refusal must put every edited list back.
        let mut idx = path_index(8);
        let snapshot = idx.clone();
        for (c, p) in [(2, 5), (3, 3), (1, 7)] {
            let mut patch = TreePatch::new();
            patch.assign(c, p);
            patch.assign(6, 2); // a valid move riding along
            assert_eq!(
                idx.apply_patch(&patch, usize::MAX),
                PatchOutcome::Unsupported("patch does not preserve the region")
            );
            idx.structural_eq(&snapshot)
                .expect("refused splice is a no-op");
        }
    }

    #[test]
    fn unknown_vertices_are_unsupported() {
        let mut idx = path_index(4);
        let mut patch = TreePatch::new();
        patch.assign(17, 0);
        assert!(matches!(
            idx.apply_patch(&patch, usize::MAX),
            PatchOutcome::Unsupported(_)
        ));
    }

    #[test]
    fn last_assignment_wins() {
        let mut t = RootedTree::new(4, 0);
        for (c, p) in [(1, 0), (2, 0), (3, 1)] {
            t.attach(c, p);
        }
        let mut idx = TreeIndex::build(&t);
        let mut patch = TreePatch::new();
        patch.assign(3, 2);
        patch.assign(3, 0); // overrides
        assert!(matches!(
            idx.apply_patch(&patch, usize::MAX),
            PatchOutcome::Applied { .. }
        ));
        assert_eq!(idx.parent(3), Some(0));
        assert_identical_to_fresh(&idx);
    }

    #[test]
    fn depth_growth_keeps_the_index_identical_to_fresh_builds() {
        // A star re-chained into a path: every vertex below the root changes
        // level, and so does its jump pointer.
        let n = 34;
        let mut t = RootedTree::new(n, 0);
        for v in 1..n as Vertex {
            t.attach(v, 0);
        }
        let mut idx = TreeIndex::build(&t);
        let mut patch = TreePatch::new();
        for v in 2..n as Vertex {
            patch.assign(v, v - 1);
        }
        assert!(matches!(
            idx.apply_patch(&patch, usize::MAX),
            PatchOutcome::Applied { .. }
        ));
        assert_identical_to_fresh(&idx);
        assert_eq!(idx.level(n as Vertex - 1), n as u32 - 1);
    }

    #[test]
    fn depth_shrink_keeps_queries_identical_to_fresh_builds() {
        // Re-hanging the lower half of a 17-vertex path under the root halves
        // its depth.
        let mut idx = path_index(17);
        let mut patch = TreePatch::new();
        patch.assign(9, 0);
        assert!(matches!(
            idx.apply_patch(&patch, usize::MAX),
            PatchOutcome::Applied { .. }
        ));
        assert_identical_to_fresh(&idx);
        assert_eq!(idx.level(16), 8);
        assert_eq!(idx.lca(16, 8), 0);
        assert_eq!(idx.lca(16, 12), 12);
    }

    #[test]
    fn root_adjacent_reroot_keeps_lca_top_labels_and_orders() {
        // Move a whole root-child subtree under another root child — the
        // region is the entire tree below the root, the hardest splice that
        // is still membership-preserving.
        //        0
        //      / | \
        //     1  4  7
        //    /|  |  |
        //   2 3  5  8
        //        |
        //        6
        let mut t = RootedTree::new(9, 0);
        for (c, p) in [
            (1, 0),
            (4, 0),
            (7, 0),
            (2, 1),
            (3, 1),
            (5, 4),
            (6, 5),
            (8, 7),
        ] {
            t.attach(c, p);
        }
        let mut idx = TreeIndex::build(&t);
        let mut patch = TreePatch::new();
        patch.assign(4, 3); // subtree {4,5,6} re-hangs below leaf 3
        assert!(matches!(
            idx.apply_patch(&patch, usize::MAX),
            PatchOutcome::Applied { .. }
        ));
        assert_identical_to_fresh(&idx);
        assert_eq!(idx.lca(6, 2), 1);
        assert_eq!(idx.lca(6, 8), 0);
        assert_eq!(idx.top_slice()[6], 1);
        assert_eq!(idx.level(6), 5);
        // And a second, root-adjacent move straight back up.
        let mut patch = TreePatch::new();
        patch.assign(4, 0);
        assert!(matches!(
            idx.apply_patch(&patch, usize::MAX),
            PatchOutcome::Applied { .. }
        ));
        assert_identical_to_fresh(&idx);
    }

    #[test]
    fn patching_star_and_hole_shapes_matches_fresh_builds() {
        // Star: leaf-to-leaf moves (singleton regions never exist — the
        // region spans both endpoints' subtrees under the centre).
        let n = 20;
        let mut parent = vec![0u32; n];
        parent[0] = 0;
        let mut idx = TreeIndex::from_parent_slice(&parent, 0);
        let mut patch = TreePatch::new();
        patch.assign(7, 3);
        patch.assign(12, 7);
        assert!(matches!(
            idx.apply_patch(&patch, usize::MAX),
            PatchOutcome::Applied { .. }
        ));
        assert_identical_to_fresh(&idx);

        // Forest with NO_VERTEX holes: patch must leave holes untouched.
        let mut parent = vec![NO_VERTEX; 12];
        parent[0] = 0;
        for (c, p) in [(2u32, 0u32), (3, 2), (7, 2), (9, 7)] {
            parent[c as usize] = p;
        }
        let mut idx = TreeIndex::from_parent_slice(&parent, 0);
        let mut patch = TreePatch::new();
        patch.assign(9, 3);
        assert!(matches!(
            idx.apply_patch(&patch, usize::MAX),
            PatchOutcome::Applied { .. }
        ));
        assert_identical_to_fresh(&idx);
        assert!(!idx.contains(5));
    }

    #[test]
    fn random_subtree_moves_stay_identical_to_fresh_builds() {
        // Fuzz: repeatedly move a random subtree under a random vertex
        // outside it (a valid single-subtree reroot-at-own-root), patch, and
        // compare against a fresh build each time.
        let mut rng = ChaCha8Rng::seed_from_u64(2026);
        for trial in 0..20 {
            let n = rng.gen_range(8..80);
            let mut parent = vec![NO_VERTEX; n];
            parent[0] = 0;
            for v in 1..n as Vertex {
                parent[v as usize] = rng.gen_range(0..v);
            }
            let mut idx = TreeIndex::from_parent_slice(&parent, 0);
            for step in 0..12 {
                let c = rng.gen_range(1..n as Vertex);
                let mut p = rng.gen_range(0..n as Vertex);
                let mut guard = 0;
                while idx.is_ancestor(c, p) {
                    p = rng.gen_range(0..n as Vertex);
                    guard += 1;
                    if guard > 200 {
                        break;
                    }
                }
                if idx.is_ancestor(c, p) {
                    continue;
                }
                let mut patch = TreePatch::new();
                patch.assign(c, p);
                let out = idx.apply_patch(&patch, usize::MAX);
                assert!(
                    matches!(out, PatchOutcome::Applied { .. }),
                    "trial {trial} step {step}: {out:?}"
                );
                assert_identical_to_fresh(&idx);
            }
        }
    }
}
