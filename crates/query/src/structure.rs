//! The data structure `D`: post-order sorted adjacency lists with an update
//! overlay (Theorems 8 and 9), and the Theorem 9 decomposition that lets a
//! `D` built on one tree answer queries on the paths of a later one
//! ([`base_segments`], queried through the [`Drifted`] oracle).
//!
//! The sorted lists are one flat buffer with per-vertex offsets, packed in
//! `O(n + m)` by one counting pass that visits the tree in post-order, so the
//! build sorts nothing (see [`StructureD::build`]).
//!
//! ## The overlay / rebuild contract
//!
//! `D` is built **once** on a DFS tree (the *base* tree) of a graph in which
//! every edge is a back edge of that tree. From then on, two parties share
//! responsibility for keeping queries truthful:
//!
//! * **Callers** route every subsequent mutation through the overlay
//!   (`note_insert_edge` / `note_delete_edge` / `note_insert_vertex` /
//!   `note_delete_vertex`) *before* querying, obeying the update vocabulary's
//!   contract (inserted edges do not already exist, deleted edges/vertices do
//!   exist). Queries keep speaking in **base-tree paths**: a caller whose
//!   current tree has diverged from the base tree queries through
//!   [`Drifted`], which cuts every current-tree path into maximal base-tree
//!   segments first ([`base_segments`], the Theorem 9 argument) — inserted
//!   vertices, which the base tree has never heard of, travel as
//!   `near == far` singleton queries.
//! * **`D` itself** answers every query over the *net* edge set: the sorted
//!   base adjacency minus `removed`/`dead` masks plus the `extra` lists,
//!   scanned linearly. It offers the survivors of its two post-order
//!   windows and of the overlay to the [`scan`](crate::scan) fold, which
//!   picks the hit. After `k` overlay records a query costs
//!   `O(log n + k)`.
//!
//! ## The amortization argument
//!
//! The `O(log n + k)` query bound is why incremental maintainers may *skip*
//! the `O(m)` rebuild: with `O(log² n)` query sets per update (Theorem 3),
//! letting the overlay grow to `k ≈ c · m / log n` keeps the accumulated
//! per-query penalty of the whole epoch within a constant factor of the one
//! rebuild that ends it — so the rebuild amortizes to `O(log n)` per update
//! instead of costing `O(m)` on every one. `overlay_updates()` is the
//! quantity rebuild policies compare against that threshold, and
//! `clear_overlay()` (or a fresh `build` on the current tree) starts the next
//! epoch. The fault tolerant algorithm is the `c → ∞` extreme: one build,
//! overlays forever, `reset` between batches.

use crate::oracle::{EdgeHit, QueryOracle, VertexQuery};
use crate::scan::Nearest;
use pardfs_graph::{Graph, Vertex};
use pardfs_tree::paths::path_vertices;
use pardfs_tree::TreeIndex;
use rayon::prelude::*;

/// Query batches smaller than this are answered sequentially.
const PAR_THRESHOLD: usize = 256;

/// The paper's data structure `D`, built over a DFS tree `T` of a graph `G`.
///
/// For every vertex the structure stores the neighbours sorted by their
/// post-order number in `T`. Because every edge of `G` is a back edge of `T`
/// (the defining property of a DFS tree), the neighbours of `w` lying on an
/// ancestor–descendant path and *above* `w` form a contiguous post-order
/// window, so a query is a binary search (Section 5.2). The sorted rows sit
/// in one flat buffer: `w`'s row is `rows[row_start[w]..row_start[w + 1]]`.
///
/// The *overlay* absorbs updates applied after the build (Theorem 9): inserted
/// edges are kept in small per-vertex lists that every query scans linearly,
/// deleted edges are recorded and filtered out, and deleted vertices are
/// masked. A query therefore costs `O(log n + k)` after `k` overlay updates,
/// exactly the bound used by the fault-tolerant algorithm.
#[derive(Debug, Clone)]
pub struct StructureD {
    idx: TreeIndex,
    rows: Vec<Vertex>,
    row_start: Vec<usize>,
    extra_adj: Vec<Vec<Vertex>>,
    removed: Vec<Vec<Vertex>>,
    dead: Vec<bool>,
    overlay_updates: usize,
}

impl StructureD {
    /// Build `D` from a graph and (the index of) one of its DFS trees.
    ///
    /// Every edge of `graph` whose endpoints are both in the tree must be a
    /// back edge of the tree (checked in debug builds); edges violating this
    /// would silently corrupt binary searches, so callers route them through
    /// the overlay instead.
    ///
    /// The rows are packed by counting, like the tree's children lists: count
    /// each tree vertex's tree neighbours, prefix-sum the counts into row
    /// offsets, then visit the tree's vertices in post-order and append each
    /// to its neighbours' rows, which therefore come out sorted, in `O(n + m)`
    /// with no sort.
    pub fn build(graph: &Graph, idx: TreeIndex) -> Self {
        let cap = graph.capacity().max(idx.capacity());
        let tree_nbrs = |v: Vertex| {
            let nbrs = if graph.is_active(v) && idx.contains(v) {
                graph.neighbors(v)
            } else {
                &[]
            };
            nbrs.iter().copied().filter(|&u| idx.contains(u))
        };
        let mut row_start = Vec::with_capacity(cap + 1);
        row_start.push(0);
        for v in 0..cap as Vertex {
            row_start.push(row_start[v as usize] + tree_nbrs(v).count());
        }
        let mut by_post = vec![0 as Vertex; idx.num_vertices()];
        for &v in idx.pre_order_vertices() {
            by_post[idx.post(v) as usize] = v;
        }
        let mut cursor = row_start[..cap].to_vec();
        let mut rows = vec![0 as Vertex; row_start[cap]];
        for &v in &by_post {
            for u in tree_nbrs(v) {
                debug_assert!(
                    idx.is_back_edge(u, v),
                    "graph contains a cross edge w.r.t. the supplied DFS tree"
                );
                rows[cursor[u as usize]] = v;
                cursor[u as usize] += 1;
            }
        }
        StructureD {
            idx,
            rows,
            row_start,
            extra_adj: vec![Vec::new(); cap],
            removed: vec![Vec::new(); cap],
            dead: vec![false; cap],
            overlay_updates: 0,
        }
    }

    /// `w`'s base row: its tree neighbours in ascending post-order.
    fn row(&self, w: Vertex) -> &[Vertex] {
        let w = w as usize;
        &self.rows[self.row_start[w]..self.row_start[w + 1]]
    }

    /// The DFS tree index the structure was built on.
    pub fn tree(&self) -> &TreeIndex {
        &self.idx
    }

    /// Number of overlay updates recorded since the build.
    pub fn overlay_updates(&self) -> usize {
        self.overlay_updates
    }

    /// Memory footprint in machine words (adjacency entries only) — the
    /// `O(m)` size claim of Theorem 8.
    pub fn size_words(&self) -> usize {
        self.rows.len()
            + self.extra_adj.iter().map(Vec::len).sum::<usize>()
            + self.removed.iter().map(Vec::len).sum::<usize>()
    }

    fn grow(&mut self, cap: usize) {
        if cap > self.dead.len() {
            self.row_start.resize(cap + 1, self.rows.len());
            self.extra_adj.resize_with(cap, Vec::new);
            self.removed.resize_with(cap, Vec::new);
            self.dead.resize(cap, false);
        }
    }

    /// Discard every overlay record (inserted/deleted edges, dead vertices),
    /// returning the structure to its as-built state. Used by the fault
    /// tolerant algorithm, which reuses one build of `D` across many
    /// independent update batches (Theorem 14).
    pub fn clear_overlay(&mut self) {
        for list in &mut self.extra_adj {
            list.clear();
        }
        for list in &mut self.removed {
            list.clear();
        }
        self.dead.iter_mut().for_each(|d| *d = false);
        self.overlay_updates = 0;
    }

    /// Record an edge insertion in the overlay.
    pub fn note_insert_edge(&mut self, u: Vertex, v: Vertex) {
        if u == v {
            return;
        }
        self.grow((u.max(v) + 1) as usize);
        self.overlay_updates += 1;
        // Re-inserting a previously deleted edge cancels the deletion.
        let was_removed = remove_entry(&mut self.removed[u as usize], v);
        remove_entry(&mut self.removed[v as usize], u);
        if was_removed {
            return;
        }
        if !self.extra_adj[u as usize].contains(&v) {
            self.extra_adj[u as usize].push(v);
            self.extra_adj[v as usize].push(u);
        }
    }

    /// Record an edge deletion in the overlay.
    pub fn note_delete_edge(&mut self, u: Vertex, v: Vertex) {
        if u == v {
            return;
        }
        self.grow((u.max(v) + 1) as usize);
        self.overlay_updates += 1;
        // Deleting an overlay-inserted edge just drops it from the overlay.
        let was_extra = remove_entry(&mut self.extra_adj[u as usize], v);
        remove_entry(&mut self.extra_adj[v as usize], u);
        if was_extra {
            return;
        }
        if !self.removed[u as usize].contains(&v) {
            self.removed[u as usize].push(v);
            self.removed[v as usize].push(u);
        }
    }

    /// Record a vertex insertion (with its incident edges) in the overlay.
    pub fn note_insert_vertex(&mut self, v: Vertex, edges: &[Vertex]) {
        self.grow((v + 1) as usize);
        self.overlay_updates += 1;
        self.dead[v as usize] = false;
        for &u in edges {
            self.note_insert_edge(v, u);
        }
    }

    /// Record a vertex deletion in the overlay.
    pub fn note_delete_vertex(&mut self, v: Vertex) {
        self.grow((v + 1) as usize);
        self.overlay_updates += 1;
        self.dead[v as usize] = true;
    }

    fn is_dead(&self, v: Vertex) -> bool {
        (v as usize) < self.dead.len() && self.dead[v as usize]
    }

    fn edge_removed(&self, u: Vertex, v: Vertex) -> bool {
        (u as usize) < self.removed.len() && self.removed[u as usize].contains(&v)
    }

    /// Answer a single query (see [`VertexQuery`] for the semantics).
    pub fn query_vertex(&self, q: VertexQuery) -> Option<EdgeHit> {
        let w = q.w;
        if (w as usize) >= self.dead.len() || self.is_dead(w) {
            return None;
        }
        let idx = &self.idx;
        let survives = |z: Vertex| !self.is_dead(z) && !self.edge_removed(w, z);
        let mut nearest = Nearest::new(idx, q);

        // A target outside the build tree (a vertex inserted after the
        // build) has no post-order window: only overlay edges can reach it.
        if let Some((top, bottom)) = nearest.path().filter(|_| idx.contains(w)) {
            let adj = self.row(w);

            // Fast path: neighbours of `w` that are ancestors of `w` on the
            // path. They fill the window adj[lo..hi]; the survivor nearest
            // the preferred end is the only one that can win.
            let l = idx.lca(w, bottom);
            if idx.is_ancestor(top, l) {
                let lo = adj.partition_point(|&z| idx.post(z) < idx.post(l));
                let hi = adj.partition_point(|&z| idx.post(z) <= idx.post(top));
                let mut window = adj[lo..hi].iter();
                let first = if q.near == top {
                    window.rev().find(|&&z| survives(z))
                } else {
                    window.find(|&&z| survives(z))
                };
                if let Some(&z) = first {
                    nearest.offer(z);
                }
            }

            // Slow path: neighbours of `w` that are descendants of `w` on the
            // path. This only happens when `w` is an ancestor of the queried
            // path's lower end; the post-order window also holds descendants
            // of `w` off the path, which the fold rejects.
            if idx.is_ancestor(w, bottom) && w != bottom {
                let portion_top = if idx.is_ancestor(top, w) { w } else { top };
                let sub_lo = idx.post(w) + 1 - idx.size(w);
                let win_lo = idx.post(bottom).max(sub_lo);
                let win_hi = idx.post(portion_top).min(idx.post(w).saturating_sub(1));
                if win_lo <= win_hi {
                    let lo = adj.partition_point(|&z| idx.post(z) < win_lo);
                    let hi = adj.partition_point(|&z| idx.post(z) <= win_hi);
                    for &z in adj[lo..hi].iter().filter(|&&z| survives(z)) {
                        nearest.offer(z);
                    }
                }
            }
        }

        // Overlay: inserted edges may be cross edges or reach inserted
        // vertices; the fold sorts them out.
        for &z in self.extra_adj[w as usize].iter().filter(|&&z| survives(z)) {
            nearest.offer(z);
        }
        nearest.hit()
    }
}

fn remove_entry(list: &mut Vec<Vertex>, v: Vertex) -> bool {
    if let Some(pos) = list.iter().position(|&x| x == v) {
        list.swap_remove(pos);
        true
    } else {
        false
    }
}

impl QueryOracle for StructureD {
    fn answer_batch(&self, queries: &[VertexQuery]) -> Vec<Option<EdgeHit>> {
        if queries.len() < PAR_THRESHOLD {
            queries.iter().map(|&q| self.query_vertex(q)).collect()
        } else {
            queries.par_iter().map(|&q| self.query_vertex(q)).collect()
        }
    }
}

/// `D` answering queries on paths of a *current* tree that has drifted away
/// from `D`'s base tree: every path is cut into [`base_segments`] first
/// (Theorem 9), and the segments are queried as they are.
pub struct Drifted<'a> {
    d: &'a StructureD,
}

impl<'a> Drifted<'a> {
    /// Query `d` through the segment decomposition.
    pub fn new(d: &'a StructureD) -> Self {
        Drifted { d }
    }
}

impl QueryOracle for Drifted<'_> {
    fn answer_batch(&self, queries: &[VertexQuery]) -> Vec<Option<EdgeHit>> {
        self.d.answer_batch(queries)
    }

    fn decompose_path(
        &self,
        current: &TreeIndex,
        near: Vertex,
        far: Vertex,
    ) -> Vec<(Vertex, Vertex)> {
        base_segments(self.d.tree(), current, near, far)
    }
}

/// Cut the path of `current` between `near` and `far` (ancestor and
/// descendant, in either order) into maximal runs that are
/// ancestor–descendant paths of `base`, ordered from `near`. A vertex that
/// `base` does not contain (inserted after `base` was built) forms a
/// singleton run.
pub fn base_segments(
    base: &TreeIndex,
    current: &TreeIndex,
    near: Vertex,
    far: Vertex,
) -> Vec<(Vertex, Vertex)> {
    let walk = if current.is_ancestor(near, far) {
        let mut walk = path_vertices(current, far, near);
        walk.reverse();
        walk
    } else {
        path_vertices(current, near, far)
    };
    let mut out = Vec::new();
    let (mut start, mut end) = (walk[0], walk[0]);
    // +1 = moving towards base-tree descendants, -1 = towards ancestors,
    // 0 = direction not fixed yet.
    let mut dir = 0i32;
    for &v in &walk[1..] {
        let step = if !base.contains(end) || !base.contains(v) {
            0
        } else if base.parent(v) == Some(end) {
            1
        } else if base.parent(end) == Some(v) {
            -1
        } else {
            0
        };
        if step != 0 && (dir == 0 || dir == step) {
            dir = step;
            end = v;
        } else {
            out.push((start, end));
            (start, end, dir) = (v, v, 0);
        }
    }
    out.push((start, end));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardfs_graph::generators;
    use pardfs_tree::rooted::RootedTree;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Plain iterative DFS producing a parent array (test-local helper; the
    /// real static DFS lives in `pardfs-seq`).
    fn dfs_tree(g: &Graph, root: Vertex) -> TreeIndex {
        let mut tree = RootedTree::new(g.capacity(), root);
        let mut stack: Vec<(Vertex, Vertex)> = vec![(root, root)];
        while let Some((v, p)) = stack.pop() {
            if v != root && tree.contains(v) {
                continue;
            }
            if v != root {
                tree.attach(v, p);
            }
            for &u in g.neighbors(v) {
                if u != root && !tree.contains(u) {
                    stack.push((u, v));
                }
            }
        }
        TreeIndex::build(&tree)
    }

    /// Brute force over the *current* edge set described by (graph, overlay).
    fn brute_force(
        g: &Graph,
        idx: &TreeIndex,
        extra: &[(Vertex, Vertex)],
        removed: &[(Vertex, Vertex)],
        dead: &[Vertex],
        q: VertexQuery,
    ) -> Option<EdgeHit> {
        let on_path = |z: Vertex| {
            idx.contains(z)
                && idx.contains(q.near)
                && idx.contains(q.far)
                && ((idx.is_ancestor(q.near, z) && idx.is_ancestor(z, q.far))
                    || (idx.is_ancestor(q.far, z) && idx.is_ancestor(z, q.near)))
        };
        let single_new = q.near == q.far && !idx.contains(q.near);
        let mut nbrs: Vec<Vertex> = g.neighbors(q.w).to_vec();
        for &(a, b) in extra {
            if a == q.w {
                nbrs.push(b);
            }
            if b == q.w {
                nbrs.push(a);
            }
        }
        nbrs.retain(|&z| {
            !removed.contains(&(q.w.min(z), q.w.max(z)))
                && !dead.contains(&z)
                && if single_new { z == q.near } else { on_path(z) }
        });
        if dead.contains(&q.w) {
            return None;
        }
        let near_level = if idx.contains(q.near) {
            idx.level(q.near)
        } else {
            0
        };
        nbrs.into_iter()
            .map(|z| {
                let rank = if single_new {
                    0
                } else {
                    idx.level(z).abs_diff(near_level)
                };
                (rank, z)
            })
            .min()
            .map(|(rank, z)| EdgeHit {
                from: q.w,
                on_path: z,
                rank_from_near: rank,
            })
    }

    fn random_tree_path(idx: &TreeIndex, rng: &mut impl Rng) -> (Vertex, Vertex) {
        let verts = idx.pre_order_vertices();
        let a = verts[rng.gen_range(0..verts.len())];
        // Pick a random ancestor of a (possibly a itself), by walking up the
        // parent array.
        let l = idx.level(a);
        let mut b = a;
        for _ in rng.gen_range(0..=l)..l {
            b = idx.parent_slice()[b as usize];
        }
        if rng.gen_bool(0.5) {
            (a, b)
        } else {
            (b, a)
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for trial in 0..6 {
            let n: usize = rng.gen_range(10..120);
            let m = rng.gen_range(n - 1..(n * (n - 1) / 2).min(4 * n));
            let g = generators::random_connected_gnm(n, m, &mut rng);
            let idx = dfs_tree(&g, 0);
            let d = StructureD::build(&g, idx.clone());
            for _ in 0..300 {
                let w = rng.gen_range(0..n as Vertex);
                let (near, far) = random_tree_path(&idx, &mut rng);
                let q = VertexQuery::new(w, near, far);
                let expected_rank =
                    brute_force(&g, &idx, &[], &[], &[], q).map(|h| h.rank_from_near);
                let got_rank = d.query_vertex(q).map(|h| h.rank_from_near);
                assert_eq!(got_rank, expected_rank, "trial {trial} query {q:?}");
            }
        }
    }

    #[test]
    fn hit_vertices_are_really_on_the_path_and_adjacent() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::random_connected_gnm(80, 240, &mut rng);
        let idx = dfs_tree(&g, 0);
        let d = StructureD::build(&g, idx.clone());
        for _ in 0..500 {
            let w = rng.gen_range(0..80u32);
            let (near, far) = random_tree_path(&idx, &mut rng);
            if let Some(hit) = d.query_vertex(VertexQuery::new(w, near, far)) {
                assert!(g.has_edge(w, hit.on_path));
                assert!(
                    (idx.is_ancestor(near, hit.on_path) && idx.is_ancestor(hit.on_path, far))
                        || (idx.is_ancestor(far, hit.on_path)
                            && idx.is_ancestor(hit.on_path, near))
                );
                assert_eq!(
                    hit.rank_from_near,
                    idx.level(hit.on_path).abs_diff(idx.level(near))
                );
            }
        }
    }

    #[test]
    fn overlay_insertions_deletions_and_dead_vertices() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let g = generators::random_connected_gnm(60, 150, &mut rng);
        let idx = dfs_tree(&g, 0);
        let mut d = StructureD::build(&g, idx.clone());

        let mut extra = Vec::new();
        let mut removed = Vec::new();
        let mut dead = Vec::new();

        // Delete a handful of existing edges.
        for (u, v) in generators::sample_edges(&g, 5, &mut rng) {
            d.note_delete_edge(u, v);
            removed.push((u.min(v), u.max(v)));
        }
        // Insert a handful of fresh (possibly cross) edges.
        let mut added = 0;
        while added < 5 {
            let u = rng.gen_range(0..60u32);
            let v = rng.gen_range(0..60u32);
            if u != v && !g.has_edge(u, v) && !extra.contains(&(u.min(v), u.max(v))) {
                d.note_insert_edge(u, v);
                extra.push((u.min(v), u.max(v)));
                added += 1;
            }
        }
        // Kill one vertex.
        let victim = rng.gen_range(1..60u32);
        d.note_delete_vertex(victim);
        dead.push(victim);

        assert!(d.overlay_updates() >= 11);

        for _ in 0..600 {
            let w = rng.gen_range(0..60u32);
            let (near, far) = random_tree_path(&idx, &mut rng);
            let q = VertexQuery::new(w, near, far);
            let expected =
                brute_force(&g, &idx, &extra, &removed, &dead, q).map(|h| h.rank_from_near);
            let got = d.query_vertex(q).map(|h| h.rank_from_near);
            assert_eq!(got, expected, "query {q:?}");
        }
    }

    #[test]
    fn reinserting_a_deleted_edge_cancels_the_deletion() {
        let g = generators::path(4);
        let idx = dfs_tree(&g, 0);
        let mut d = StructureD::build(&g, idx.clone());
        d.note_delete_edge(1, 2);
        assert!(d.query_vertex(VertexQuery::new(2, 1, 1)).is_none());
        d.note_insert_edge(1, 2);
        assert!(d.query_vertex(VertexQuery::new(2, 1, 1)).is_some());
    }

    #[test]
    fn queries_to_an_inserted_vertex() {
        let g = generators::path(5);
        let idx = dfs_tree(&g, 0);
        let mut d = StructureD::build(&g, idx.clone());
        // Insert vertex 5 adjacent to 1 and 3.
        d.note_insert_vertex(5, &[1, 3]);
        let hit = d.query_vertex(VertexQuery::new(1, 5, 5)).unwrap();
        assert_eq!(hit.on_path, 5);
        assert!(d.query_vertex(VertexQuery::new(2, 5, 5)).is_none());
        // Queries *from* the new vertex against a tree path use its overlay edges.
        let hit = d.query_vertex(VertexQuery::new(5, 0, 4)).unwrap();
        assert_eq!(hit.from, 5);
        assert!(hit.on_path == 1 || hit.on_path == 3);
        // Nearest to the deep end 4 should be vertex 3.
        let hit = d.query_vertex(VertexQuery::new(5, 4, 0)).unwrap();
        assert_eq!(hit.on_path, 3);
        // Deleting the new vertex silences all of this.
        d.note_delete_vertex(5);
        assert!(d.query_vertex(VertexQuery::new(1, 5, 5)).is_none());
        assert!(d.query_vertex(VertexQuery::new(5, 0, 4)).is_none());
    }

    #[test]
    fn batched_answers_match_single_answers() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::random_connected_gnm(100, 300, &mut rng);
        let idx = dfs_tree(&g, 0);
        let d = StructureD::build(&g, idx.clone());
        let queries: Vec<VertexQuery> = (0..400)
            .map(|_| {
                let w = rng.gen_range(0..100u32);
                let (near, far) = random_tree_path(&idx, &mut rng);
                VertexQuery::new(w, near, far)
            })
            .collect();
        let batched = d.answer_batch(&queries);
        for (q, b) in queries.iter().zip(&batched) {
            assert_eq!(*b, d.query_vertex(*q));
        }
    }

    #[test]
    fn size_words_is_linear_in_edges() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = generators::random_connected_gnm(50, 200, &mut rng);
        let idx = dfs_tree(&g, 0);
        let d = StructureD::build(&g, idx);
        assert_eq!(d.size_words(), 2 * 200);
    }

    /// `w`'s row as the build must lay it out: its neighbours in `g` that
    /// the tree contains, sorted by post-order number (empty outside it).
    fn expected_row(g: &Graph, idx: &TreeIndex, w: Vertex) -> Vec<Vertex> {
        if !g.is_active(w) || !idx.contains(w) {
            return Vec::new();
        }
        let mut row: Vec<Vertex> = g
            .neighbors(w)
            .iter()
            .copied()
            .filter(|&u| idx.contains(u))
            .collect();
        row.sort_by_key(|&u| idx.post(u));
        row
    }

    #[test]
    fn rows_are_the_tree_neighbours_in_post_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xD0);
        let (mut holes, mut outside) = (0, 0);
        for trial in 0..40 {
            let n: usize = rng.gen_range(2..90);
            let m = rng.gen_range(n - 1..=(n * (n - 1) / 2).min(4 * n));
            let mut g = generators::random_connected_gnm(n, m, &mut rng);
            if trial % 2 == 1 {
                for _ in 0..rng.gen_range(1..=n / 3 + 1) {
                    g.delete_vertex(rng.gen_range(1..n as Vertex));
                }
            }
            let idx = dfs_tree(&g, 0);
            let d = StructureD::build(&g, idx.clone());
            for w in 0..g.capacity() as Vertex {
                assert_eq!(
                    d.row(w),
                    expected_row(&g, &idx, w),
                    "trial {trial}, vertex {w}"
                );
            }
            holes += g.capacity() - g.num_vertices();
            outside += g.num_vertices() - idx.num_vertices();
        }
        assert!(
            holes > 50 && outside > 0,
            "{holes} holes, {outside} outside"
        );
    }

    #[test]
    fn vertices_without_a_row_answer_only_through_the_overlay() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xD1);
        let g = generators::random_connected_gnm(40, 120, &mut rng);
        let idx = dfs_tree(&g, 0);
        // A vertex the tree never saw, with graph edges into the tree: its
        // row is empty and no row lists it.
        let mut grown = g.clone();
        let outside = grown.insert_vertex(&[3, 17, 29]);
        let mut d = StructureD::build(&grown, idx.clone());
        for w in 0..grown.capacity() as Vertex {
            assert_eq!(d.row(w), expected_row(&grown, &idx, w), "vertex {w}");
        }
        assert!(d.row(outside).is_empty());
        let deepest = *idx
            .pre_order_vertices()
            .iter()
            .max_by_key(|&&v| idx.level(v))
            .unwrap();
        let whole_path = |w| VertexQuery::new(w, 0, deepest);
        assert_eq!(d.query_vertex(whole_path(outside)), None);
        d.note_insert_edge(outside, 0);
        let hit = d.query_vertex(whole_path(outside)).unwrap();
        assert_eq!((hit.from, hit.on_path), (outside, 0));

        // A slot added through the overlay gets an empty row too.
        let fresh = grown.capacity() as Vertex;
        d.note_insert_vertex(fresh, &[deepest]);
        assert!(d.row(fresh).is_empty());
        // The base rows hold the 120 tree edges only, the overlay two more.
        assert_eq!(d.size_words(), 2 * 120 + 2 + 2);
        let hit = d.query_vertex(whole_path(fresh)).unwrap();
        assert_eq!((hit.from, hit.on_path), (fresh, deepest));
    }

    /// The vertices from `from` up to its ancestor `to`, by walking a parent
    /// array (`parent[root] == root`).
    fn climb(parent: &[Vertex], mut from: Vertex, to: Vertex) -> Vec<Vertex> {
        let mut out = vec![from];
        while from != to {
            assert_ne!(parent[from as usize], from, "{to} is not an ancestor");
            from = parent[from as usize];
            out.push(from);
        }
        out
    }

    /// Is `seq` a walk along base-tree edges that only goes down or only
    /// goes up, i.e. an ancestor–descendant path of the base tree?
    fn monotone(base: &[Vertex], seq: &[Vertex]) -> bool {
        let inside = |v: Vertex| (v as usize) < base.len();
        let down = |a: Vertex, b: Vertex| inside(a) && inside(b) && a != b && base[b as usize] == a;
        seq.iter().all(|&v| inside(v))
            && (seq.windows(2).all(|p| down(p[0], p[1]))
                || seq.windows(2).all(|p| down(p[1], p[0])))
    }

    /// A random rooted tree on `0..n`, root 0, as a parent array.
    fn random_parents(n: usize, rng: &mut impl Rng) -> Vec<Vertex> {
        let mut order: Vec<Vertex> = (1..n as Vertex).collect();
        order.shuffle(rng);
        let mut parent = vec![0; n];
        for (i, &v) in order.iter().enumerate() {
            parent[v as usize] = if i == 0 || rng.gen_bool(0.2) {
                0
            } else {
                order[rng.gen_range(0..i)]
            };
        }
        parent
    }

    /// Drift `base` into a current tree the way reroots do: reverse the path
    /// from a vertex down to one of its descendants (the descendant takes its
    /// place), re-hang a subtree elsewhere, or splice in or hang a vertex the
    /// base tree never had.
    fn drift(base: &[Vertex], ops: usize, rng: &mut impl Rng) -> Vec<Vertex> {
        let mut parent = base.to_vec();
        for _ in 0..ops {
            let n = parent.len() as Vertex;
            let x = rng.gen_range(1..n);
            let chain = climb(&parent, x, 0);
            match rng.gen_range(0..4) {
                0 | 1 => {
                    // Evert the path x .. v, v a proper ancestor-or-self of x.
                    let j = rng.gen_range(0..chain.len() - 1);
                    let above = parent[chain[j] as usize];
                    parent[x as usize] = above;
                    for k in 1..=j {
                        parent[chain[k] as usize] = chain[k - 1];
                    }
                }
                2 => {
                    let u = rng.gen_range(0..n);
                    if !climb(&parent, u, 0).contains(&x) {
                        parent[x as usize] = u;
                    }
                }
                _ => {
                    parent.push(parent[x as usize]);
                    if rng.gen_bool(0.5) {
                        parent[x as usize] = n;
                    }
                }
            }
        }
        parent
    }

    #[test]
    fn base_segments_are_maximal_base_paths_that_spell_the_current_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5E6);
        let (mut multi, mut outside) = (0, 0);
        for trial in 0..60 {
            let n = rng.gen_range(2..80);
            let base_parent = random_parents(n, &mut rng);
            let ops = if trial % 6 == 0 {
                0
            } else {
                rng.gen_range(1..12)
            };
            let cur_parent = drift(&base_parent, ops, &mut rng);
            let base = TreeIndex::from_parent_slice(&base_parent, 0);
            let current = TreeIndex::from_parent_slice(&cur_parent, 0);
            for _ in 0..40 {
                let a = rng.gen_range(0..cur_parent.len() as Vertex);
                let mut b = a;
                for _ in rng.gen_range(0..=current.level(a))..current.level(a) {
                    b = cur_parent[b as usize];
                }
                let (near, far) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                let mut path = climb(&cur_parent, a, b);
                if near == b {
                    path.reverse();
                }

                let segs = base_segments(&base, &current, near, far);
                let ctx = format!("trial {trial}, path {near} -> {far}, segments {segs:?}");
                let mut spelled = Vec::new();
                let mut runs: Vec<Vec<Vertex>> = Vec::new();
                for &(s, e) in &segs {
                    let run = if s == e {
                        vec![s]
                    } else if base.is_ancestor(s, e) {
                        let mut run = climb(&base_parent, e, s);
                        run.reverse();
                        run
                    } else {
                        assert!(
                            base.is_ancestor(e, s),
                            "{ctx}: ({s},{e}) is not a base path"
                        );
                        climb(&base_parent, s, e)
                    };
                    assert!(monotone(&base_parent, &run) || s == e, "{ctx}");
                    outside += usize::from(!base.contains(s));
                    spelled.extend_from_slice(&run);
                    runs.push(run);
                }
                assert_eq!(spelled, path, "{ctx}: segments do not spell the path");
                for pair in runs.windows(2) {
                    let joined = [pair[0].as_slice(), pair[1].as_slice()].concat();
                    assert!(
                        !monotone(&base_parent, &joined),
                        "{ctx}: {joined:?} is one base path"
                    );
                }
                if ops == 0 {
                    assert_eq!(segs.len(), 1, "{ctx}: an undrifted path is one segment");
                }
                multi += usize::from(segs.len() > 1);
            }
        }
        assert!(
            multi > 500 && outside > 50,
            "{multi} split paths, {outside} outside runs"
        );
    }
}
