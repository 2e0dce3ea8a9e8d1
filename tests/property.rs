//! Property-based tests (proptest): for arbitrary random graphs and arbitrary
//! valid update sequences, every maintainer always produces a valid DFS
//! forest, and the data structure `D` always agrees with a brute-force scan.
//!
//! The **differential suite** locks in the incremental `StructureD`
//! maintenance: after any random interleaving of inserts and deletes, the
//! overlay-carrying structure must answer every `VertexQuery` identically to
//! a fresh `StructureD::build` on the final graph (where the final graph is
//! buildable on the base tree) and to an independent brute-force model
//! (always).
//!
//! The **oracle suite** compares the four ways of answering one independent
//! query set on a tree that has drifted away from `D`'s base tree: a fresh
//! `D`, the drifted `D` through its base-tree segments, the streaming pass
//! oracle and the CONGEST broadcast oracle, each against a brute force over
//! the current graph. Deeper runs: set `PROPTEST_CASES` and/or run the
//! `--ignored` stress targets.

use pardfs::congest::network::Network;
use pardfs::congest::BroadcastOracle;
use pardfs::graph::updates::{random_update_sequence, UpdateMix};
use pardfs::graph::{generators, Graph, Update, Vertex};
use pardfs::query::{Drifted, EdgeHit, QueryOracle, StructureD, VertexQuery};
use pardfs::seq::augment::AugmentedGraph;
use pardfs::seq::static_dfs::static_dfs;
use pardfs::stream::PassOracle;
use pardfs::tree::{TreeIndex, NO_VERTEX};
use pardfs::{
    Backend, DfsMaintainer, DynamicDfs, FaultTolerantDfs, ForestQuery, IndexPolicy,
    MaintainerBuilder, RebuildPolicy, Strategy, StreamingDynamicDfs,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Strategy: the seed fully determines the graph and the update sequence, so
/// shrinking stays meaningful and failures are reproducible from the seed.
fn graph_and_updates(
    seed: u64,
    n: usize,
    extra_edges: usize,
    updates: usize,
) -> (Graph, Vec<pardfs::Update>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let m = (n - 1 + extra_edges).min(n * (n - 1) / 2);
    let g = generators::random_connected_gnm(n, m, &mut rng);
    let ups = random_update_sequence(&g, updates, &UpdateMix::default(), &mut rng);
    (g, ups)
}

/// Build (augmented graph, base tree index, D) for a fresh random connected
/// graph — the starting point of every differential run.
fn build_base(seed: u64, n: usize, extra_edges: usize) -> (Graph, TreeIndex, StructureD) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let m = (n - 1 + extra_edges).min(n * (n - 1) / 2);
    let g = generators::random_connected_gnm(n, m, &mut rng);
    let aug = AugmentedGraph::new(&g);
    let idx = TreeIndex::build(&static_dfs(aug.graph(), aug.pseudo_root()));
    let d = StructureD::build(aug.graph(), idx.clone());
    (aug.graph().clone(), idx, d)
}

/// A random ancestor–descendant pair of the base tree (either orientation).
fn random_tree_path(idx: &TreeIndex, rng: &mut impl Rng) -> (Vertex, Vertex) {
    let verts = idx.pre_order_vertices();
    let a = verts[rng.gen_range(0..verts.len())];
    let b = ancestor_at(idx, a, rng.gen_range(0..=idx.level(a)));
    if rng.gen_bool(0.5) {
        (a, b)
    } else {
        (b, a)
    }
}

/// Independent brute-force model of the *current* edge set: base graph plus
/// net overlay records (`extra` inserted, `removed` deleted, `dead` masked).
/// Mirrors the query semantics of [`VertexQuery`] with O(n) scans.
fn brute_force_query(
    g: &Graph,
    idx: &TreeIndex,
    extra: &[(Vertex, Vertex)],
    removed: &[(Vertex, Vertex)],
    dead: &[Vertex],
    q: VertexQuery,
) -> Option<EdgeHit> {
    if dead.contains(&q.w) {
        return None;
    }
    let single_new = q.near == q.far && !idx.contains(q.near);
    let on_path = |z: Vertex| {
        idx.contains(z)
            && idx.contains(q.near)
            && idx.contains(q.far)
            && ((idx.is_ancestor(q.near, z) && idx.is_ancestor(z, q.far))
                || (idx.is_ancestor(q.far, z) && idx.is_ancestor(z, q.near)))
    };
    let mut nbrs: Vec<Vertex> = if (q.w as usize) < g.capacity() {
        g.neighbors(q.w).to_vec()
    } else {
        Vec::new()
    };
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

fn remove_pair(list: &mut Vec<(Vertex, Vertex)>, key: (Vertex, Vertex)) -> bool {
    if let Some(pos) = list.iter().position(|&p| p == key) {
        list.swap_remove(pos);
        true
    } else {
        false
    }
}

/// Drive one differential run with arbitrary interleavings (cross-edge
/// inserts, deletes of any non-pseudo edge, vertex insert/delete,
/// re-insertions that cancel deletions) and compare `D` against the
/// brute-force model on `queries_per_step` random queries after every step.
fn differential_overlay_run(seed: u64, n: usize, extra_edges: usize, steps: usize) {
    let (g, idx, mut d) = build_base(seed, n, extra_edges);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD1FF);
    let proot = idx.root();

    // Net overlay model, maintained with the same cancellation rules the
    // overlay documents (but as flat lists, not sorted windows).
    let mut extra: Vec<(Vertex, Vertex)> = Vec::new();
    let mut removed: Vec<(Vertex, Vertex)> = Vec::new();
    let mut dead: Vec<Vertex> = Vec::new();
    let mut new_vertices: Vec<Vertex> = Vec::new();
    let mut next_id = g.capacity() as Vertex;

    let cap = g.capacity() as Vertex;
    let live_pairs = |rng: &mut ChaCha8Rng| {
        let u = rng.gen_range(1..cap);
        let v = rng.gen_range(1..cap);
        (u, v)
    };

    for step in 0..steps {
        match rng.gen_range(0..10) {
            // Insert an edge (possibly a cross edge, possibly cancelling an
            // earlier deletion). Skipped when the edge is currently present —
            // the overlay's contract, like the update vocabulary's, is that
            // inserted edges do not already exist.
            0..=3 => {
                let (u, v) = live_pairs(&mut rng);
                if u == v {
                    continue;
                }
                let key = (u.min(v), u.max(v));
                let present = (g.has_edge(u, v) && !removed.contains(&key)) || extra.contains(&key);
                if present {
                    continue;
                }
                d.note_insert_edge(u, v);
                if !remove_pair(&mut removed, key) {
                    extra.push(key);
                }
            }
            // Delete a currently present edge — base or overlay-inserted —
            // but never a pseudo edge.
            4..=7 => {
                let choice = generators::sample_edges(&g, 1, &mut rng)
                    .into_iter()
                    .map(|(a, b)| (a.min(b), a.max(b)))
                    .find(|&(a, b)| a != proot && b != proot && !removed.contains(&(a, b)))
                    .or_else(|| extra.first().copied());
                if let Some((u, v)) = choice {
                    d.note_delete_edge(u, v);
                    if !remove_pair(&mut extra, (u, v)) {
                        removed.push((u, v));
                    }
                }
            }
            // Insert a fresh vertex with a few incident edges.
            8 => {
                let nv = next_id;
                next_id += 1;
                let k = rng.gen_range(1..4);
                let nbrs: Vec<Vertex> = (0..k).map(|_| rng.gen_range(1..cap)).collect();
                d.note_insert_vertex(nv, &nbrs);
                new_vertices.push(nv);
                for &u in &nbrs {
                    let key = (nv.min(u), nv.max(u));
                    if !extra.contains(&key) {
                        extra.push(key);
                    }
                }
            }
            // Delete a vertex (base or inserted).
            _ => {
                let v = if !new_vertices.is_empty() && rng.gen_bool(0.3) {
                    new_vertices[rng.gen_range(0..new_vertices.len())]
                } else {
                    rng.gen_range(1..cap)
                };
                d.note_delete_vertex(v);
                if !dead.contains(&v) {
                    dead.push(v);
                }
            }
        }

        // Differential check: 20 random queries per step, mixing tree paths
        // with queries targeting inserted vertices.
        for _ in 0..20 {
            let w = if !new_vertices.is_empty() && rng.gen_bool(0.2) {
                new_vertices[rng.gen_range(0..new_vertices.len())]
            } else {
                rng.gen_range(0..cap)
            };
            let (near, far) = if !new_vertices.is_empty() && rng.gen_bool(0.2) {
                let nv = new_vertices[rng.gen_range(0..new_vertices.len())];
                (nv, nv)
            } else {
                random_tree_path(&idx, &mut rng)
            };
            let q = VertexQuery::new(w, near, far);
            let got = d.query_vertex(q).map(|h| h.rank_from_near);
            let want =
                brute_force_query(&g, &idx, &extra, &removed, &dead, q).map(|h| h.rank_from_near);
            assert_eq!(
                got, want,
                "seed {seed}, step {step}: query {q:?} diverged from the model"
            );
        }
    }
}

/// Drive one differential run restricted to updates that keep the final
/// graph buildable on the base tree (back-edge inserts, arbitrary non-pseudo
/// edge deletes), and compare the overlay-carrying `D` against a **fresh
/// `StructureD::build` on the final graph** query-for-query.
fn differential_fresh_rebuild_run(seed: u64, n: usize, extra_edges: usize, steps: usize) {
    let (g, idx, mut d) = build_base(seed, n, extra_edges);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF2E5);
    let proot = idx.root();
    let mut mirror = g.clone();

    for _ in 0..steps {
        if rng.gen_bool(0.5) {
            // Insert a back edge of the base tree (below the pseudo root).
            let verts = idx.pre_order_vertices();
            let a = verts[rng.gen_range(0..verts.len())];
            if idx.level(a) < 2 {
                continue;
            }
            let anc = ancestor_at(&idx, a, rng.gen_range(1..idx.level(a)));
            if anc == proot || mirror.has_edge(a, anc) {
                continue;
            }
            d.note_insert_edge(a, anc);
            mirror.apply(&Update::InsertEdge(a, anc));
        } else {
            // Delete any current non-pseudo edge (tree edges included).
            if let Some((u, v)) = generators::sample_edges(&mirror, 1, &mut rng)
                .into_iter()
                .find(|&(a, b)| a != proot && b != proot)
            {
                d.note_delete_edge(u, v);
                mirror.apply(&Update::DeleteEdge(u, v));
            }
        }
    }

    let fresh = StructureD::build(&mirror, idx.clone());
    for _ in 0..150 {
        let w = rng.gen_range(0..g.capacity() as Vertex);
        let (near, far) = random_tree_path(&idx, &mut rng);
        let q = VertexQuery::new(w, near, far);
        let incremental = d.query_vertex(q).map(|h| h.rank_from_near);
        let rebuilt = fresh.query_vertex(q).map(|h| h.rank_from_near);
        assert_eq!(
            incremental, rebuilt,
            "seed {seed}: incremental D diverged from a fresh build on {q:?}"
        );
    }
}

/// Oracle-level differential run. A live-`D` maintainer that never rebuilds
/// absorbs `updates` random updates, so its tree drifts away from the tree
/// it started on; a test-owned `D` built on that starting tree records the
/// same updates in its overlay. Then independent query sets on the
/// *current* tree (distinct `w`, random ancestor–descendant paths in either
/// orientation) go to a fresh `D`, the pass oracle, the broadcast oracle and
/// the drifted `D` through its base-tree segments, and every answer must be
/// the brute force's over the current graph and tree. Returns (queries
/// checked, queries whose path split into two or more base-tree segments).
fn oracle_differential_run(
    seed: u64,
    n: usize,
    extra_edges: usize,
    updates: usize,
    mix: &UpdateMix,
) -> (usize, usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let m = (n - 1 + extra_edges).min(n * (n - 1) / 2);
    let g = generators::random_connected_gnm(n, m, &mut rng);
    let ups = random_update_sequence(&g, updates, mix, &mut rng);
    let mut dfs = DynamicDfs::with_config(&g, Strategy::Phased, RebuildPolicy::Never);
    let proot = dfs.tree().root();
    let mut base_d = StructureD::build(dfs.augmented_graph(), dfs.tree().clone());
    // Mirror every update into the overlay as the live-`D` model does:
    // internal id = user id + 1, and a new vertex also gets its pseudo edge.
    let internal = |v: Vertex| v + 1;
    for u in &ups {
        let inserted = dfs.apply_update(u);
        match u {
            Update::InsertEdge(a, b) => base_d.note_insert_edge(internal(*a), internal(*b)),
            Update::DeleteEdge(a, b) => base_d.note_delete_edge(internal(*a), internal(*b)),
            Update::DeleteVertex(v) => base_d.note_delete_vertex(internal(*v)),
            Update::InsertVertex { .. } => {
                let nv = internal(inserted.expect("a vertex insertion creates a vertex"));
                let nbrs: Vec<Vertex> = dfs
                    .augmented_graph()
                    .neighbors(nv)
                    .iter()
                    .copied()
                    .filter(|&x| x != proot)
                    .collect();
                base_d.note_insert_vertex(nv, &nbrs);
                base_d.note_insert_edge(nv, proot);
            }
        }
    }
    dfs.check().expect("the maintained tree is a DFS tree");

    let (graph, current) = (dfs.augmented_graph(), dfs.tree());
    let fresh = StructureD::build(graph, current.clone());
    let pass = PassOracle::new(graph, current);
    let mut network = Network::new(graph, 4);
    network.build_bfs_forest();
    let network = Mutex::new(network);
    let broadcast = BroadcastOracle::new(graph, current, proot, &network);
    let drifted = Drifted::new(&base_d);

    let mut verts = current.pre_order_vertices().to_vec();
    let mut sizes: Vec<usize> = (0..4)
        .map(|_| rng.gen_range(1..=verts.len().min(48)))
        .collect();
    if n >= 300 {
        // Large enough for `D`'s parallel `answer_batch` path.
        sizes.push(rng.gen_range(256..=verts.len()));
    }
    let (mut checked, mut split) = (0, 0);
    for size in sizes {
        verts.shuffle(&mut rng);
        let set: Vec<VertexQuery> = verts[..size]
            .iter()
            .map(|&w| {
                let (near, far) = random_tree_path(current, &mut rng);
                VertexQuery::new(w, near, far)
            })
            .collect();
        let want: Vec<Option<(Vertex, u32)>> = set
            .iter()
            .map(|&q| brute_force_query(graph, current, &[], &[], &[], q))
            .map(|h| h.map(|h| (h.on_path, h.rank_from_near)))
            .collect();

        for (name, oracle) in [
            ("fresh D", &fresh as &dyn QueryOracle),
            ("pass", &pass),
            ("broadcast", &broadcast),
        ] {
            for ((q, got), want) in set.iter().zip(oracle.answer_batch(&set)).zip(&want) {
                assert!(got.is_none_or(|h| h.from == q.w), "{name}: {q:?}");
                assert_eq!(
                    got.map(|h| (h.on_path, h.rank_from_near)),
                    *want,
                    "seed {seed}: {name} answered {q:?} wrongly"
                );
            }
        }

        // The drifted `D`: every path cut into base-tree segments, one batch,
        // sub-answers combined by (segment index, rank from near) as the
        // reduction does.
        let mut batch = Vec::new();
        let mut tags = Vec::new();
        for (i, q) in set.iter().enumerate() {
            let segments = drifted.decompose_path(current, q.near, q.far);
            split += usize::from(segments.len() > 1);
            for (k, (a, b)) in segments.into_iter().enumerate() {
                batch.push(VertexQuery::new(q.w, a, b));
                tags.push((i, k));
            }
        }
        let mut best: Vec<Option<((usize, u32), Vertex)>> = vec![None; set.len()];
        for (&(i, k), hit) in tags.iter().zip(drifted.answer_batch(&batch)) {
            if let Some(h) = hit {
                let key = (k, h.rank_from_near);
                if best[i].is_none_or(|(bk, _)| key < bk) {
                    best[i] = Some((key, h.on_path));
                }
            }
        }
        for ((q, got), want) in set.iter().zip(&best).zip(&want) {
            assert_eq!(
                got.map(|(_, z)| z),
                want.map(|(z, _)| z),
                "seed {seed}: the drifted D answered {q:?} wrongly"
            );
        }
        checked += set.len();
    }
    (checked, split)
}

/// The ancestor of `a` at level `level` (at most `a`'s), by walking up the
/// parent array.
fn ancestor_at(idx: &TreeIndex, mut a: Vertex, level: u32) -> Vertex {
    for _ in level..idx.level(a) {
        a = idx.parent_slice()[a as usize];
    }
    a
}

/// LCA by walking up the parent array (`parent[root] == root`): a reference
/// that shares no code with the index's jump pointers.
fn naive_lca(parent: &[Vertex], mut u: Vertex, mut v: Vertex) -> Vertex {
    let depth = |mut x: Vertex| {
        let mut d = 0;
        while parent[x as usize] != x {
            x = parent[x as usize];
            d += 1;
        }
        d
    };
    let (mut du, mut dv) = (depth(u), depth(v));
    while du > dv {
        u = parent[u as usize];
        du -= 1;
    }
    while dv > du {
        v = parent[v as usize];
        dv -= 1;
    }
    while u != v {
        u = parent[u as usize];
        v = parent[v as usize];
    }
    u
}

/// Assert that a (possibly delta-patched) `TreeIndex` is structurally a
/// fresh `from_parent_slice` build on its own parent array, and answers `lca`
/// and the `top` labels as walks up the parent array do.
fn assert_index_matches_fresh_build(idx: &TreeIndex, ctx: &str) {
    let parent = idx.parent_slice();
    let fresh = TreeIndex::from_parent_slice(parent, idx.root());
    if let Err(e) = idx.structural_eq(&fresh) {
        panic!("{ctx}: maintained index differs from a fresh build: {e}");
    }
    let verts = fresh.pre_order_vertices();
    for (i, &u) in verts.iter().enumerate().step_by(3) {
        for &v in verts.iter().skip(i % 2).step_by(2) {
            assert_eq!(
                idx.lca(u, v),
                naive_lca(parent, u, v),
                "{ctx}: naive lca({u},{v})"
            );
        }
        let top = if u == idx.root() {
            NO_VERTEX
        } else {
            ancestor_at(idx, u, 1)
        };
        assert_eq!(idx.top_slice()[u as usize], top, "{ctx}: top({u})");
    }
}

/// Drive one backend through a mixed update sequence (vertex churn included)
/// and check the maintained — delta-patched — index against a fresh build
/// after every update.
fn patched_index_differential_run(
    backend: Backend,
    policy: IndexPolicy,
    g: &Graph,
    updates: &[Update],
) {
    let mut dfs = MaintainerBuilder::new(backend)
        .index_policy(policy)
        .build(g);
    for (i, u) in updates.iter().enumerate() {
        dfs.apply_update(u);
        let ctx = format!(
            "{} under {policy:?}, update {i} ({u:?})",
            dfs.backend_name()
        );
        assert_index_matches_fresh_build(dfs.tree(), &ctx);
        dfs.check().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn patched_index_is_identical_to_fresh_builds_on_every_backend(
        seed in any::<u64>(),
        n in 5usize..28,
        extra in 0usize..40,
    ) {
        // The acceptance property of the delta-patched indexing layer:
        // after arbitrary insert/delete interleavings (vertex churn
        // included — those updates exercise the fallback), the patched
        // TreeIndex answers every parent/LCA/top-label/pre-post query
        // identically to a fresh `from_parent_slice` build, for all five
        // backends, under both the always-splice and the thresholded policy.
        let (g, updates) = graph_and_updates(seed, n, extra, 10);
        for backend in Backend::all_default() {
            patched_index_differential_run(backend, IndexPolicy::PatchAlways, &g, &updates);
            patched_index_differential_run(backend, IndexPolicy::default(), &g, &updates);
        }
    }

    #[test]
    fn dynamic_dfs_is_always_a_dfs_tree(
        seed in any::<u64>(),
        n in 5usize..40,
        extra in 0usize..60,
        strategy_phased in any::<bool>(),
    ) {
        let (g, updates) = graph_and_updates(seed, n, extra, 15);
        let strategy = if strategy_phased { Strategy::Phased } else { Strategy::Simple };
        let mut dfs = DynamicDfs::with_strategy(&g, strategy);
        for u in &updates {
            dfs.apply_update(u);
            prop_assert!(dfs.check().is_ok(), "{:?} after {u:?}: {:?}", strategy, dfs.check());
        }
    }

    #[test]
    fn streaming_dfs_is_always_a_dfs_tree(
        seed in any::<u64>(),
        n in 5usize..30,
        extra in 0usize..40,
    ) {
        let (g, updates) = graph_and_updates(seed, n, extra, 10);
        let mut dfs = StreamingDynamicDfs::new(&g);
        for u in &updates {
            dfs.apply_update(u);
            prop_assert!(dfs.check().is_ok(), "after {u:?}: {:?}", dfs.check());
        }
    }

    #[test]
    fn fault_tolerant_batches_are_always_dfs_trees(
        seed in any::<u64>(),
        n in 5usize..30,
        extra in 0usize..40,
        k in 1usize..6,
    ) {
        let (g, updates) = graph_and_updates(seed, n, extra, k);
        let mut ft = FaultTolerantDfs::new(&g);
        ft.apply_batch(&updates);
        prop_assert!(ft.check().is_ok(), "{:?}", ft.check());
        // A second, different batch on the same graph, from the same
        // preprocessed structure.
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(1));
        let updates2 = random_update_sequence(&g, k, &UpdateMix::default(), &mut rng);
        ft.reset();
        ft.apply_batch(&updates2);
        prop_assert!(ft.check().is_ok(), "{:?}", ft.check());
    }

    #[test]
    fn structure_d_agrees_with_brute_force(
        seed in any::<u64>(),
        n in 5usize..50,
        extra in 0usize..80,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = generators::random_connected_gnm(n, m, &mut rng);
        let aug = AugmentedGraph::new(&g);
        let idx = TreeIndex::build(&static_dfs(aug.graph(), aug.pseudo_root()));
        let d = StructureD::build(aug.graph(), idx.clone());
        let verts = idx.pre_order_vertices();
        for _ in 0..50 {
            let w = verts[rng.gen_range(0..verts.len())];
            let a = verts[rng.gen_range(0..verts.len())];
            let anc = ancestor_at(&idx, a, rng.gen_range(0..=idx.level(a)));
            let (near, far) = if rng.gen_bool(0.5) { (a, anc) } else { (anc, a) };
            let got = d.answer_batch(&[VertexQuery::new(w, near, far)])[0];
            // Brute force over the augmented graph's adjacency.
            let expected = aug
                .graph()
                .neighbors(w)
                .iter()
                .copied()
                .filter(|&z| {
                    (idx.is_ancestor(near, z) && idx.is_ancestor(z, far))
                        || (idx.is_ancestor(far, z) && idx.is_ancestor(z, near))
                })
                .map(|z| idx.level(z).abs_diff(idx.level(near)))
                .min();
            prop_assert_eq!(got.map(|h| h.rank_from_near), expected);
        }
    }

    #[test]
    fn incremental_structure_d_matches_brute_force_model(
        seed in any::<u64>(),
        n in 8usize..40,
        extra in 0usize..60,
    ) {
        // Arbitrary interleavings: cross-edge inserts, deletes (incl. tree
        // edges), vertex churn, cancellations — checked against an
        // independent O(n)-scan model after every step.
        differential_overlay_run(seed, n, extra, 25);
    }

    #[test]
    fn incremental_structure_d_matches_fresh_rebuild(
        seed in any::<u64>(),
        n in 8usize..40,
        extra in 0usize..60,
    ) {
        // Inserts/deletes that keep the final graph buildable on the base
        // tree: the overlay-carrying D must answer identically to a fresh
        // StructureD::build on the final graph.
        differential_fresh_rebuild_run(seed, n, extra, 30);
    }

    #[test]
    fn incremental_dynamic_dfs_matches_rebuild_every_update(
        seed in any::<u64>(),
        n in 5usize..35,
        extra in 0usize..50,
    ) {
        // Maintainer-level differential with deletes enabled: the same mixed
        // sequence through a never-rebuilding and an always-rebuilding
        // maintainer must stay valid and component-identical at every step.
        let (g, updates) = graph_and_updates(seed, n, extra, 15);
        let mut inc = DynamicDfs::with_config(&g, Strategy::Phased, RebuildPolicy::Never);
        let mut full = DynamicDfs::with_config(&g, Strategy::Phased, RebuildPolicy::EveryUpdate);
        for u in &updates {
            inc.apply_update(u);
            full.apply_update(u);
            prop_assert!(inc.check().is_ok(), "incremental after {u:?}: {:?}", inc.check());
            prop_assert!(full.check().is_ok());
            prop_assert_eq!(inc.forest_roots().len(), full.forest_roots().len());
        }
        prop_assert_eq!(inc.stats().rebuild_policy().unwrap().rebuilds, 0);
    }

    #[test]
    fn every_oracle_matches_brute_force_on_a_drifted_tree(
        seed in any::<u64>(),
        n in 10usize..400,
        extra in 0usize..600,
        updates in 1usize..40,
        edges_only in any::<bool>(),
    ) {
        let mix = if edges_only { UpdateMix::edges_only() } else { UpdateMix::default() };
        oracle_differential_run(seed, n, extra, updates, &mix);
    }

    #[test]
    fn fault_tolerant_reset_is_a_fresh_preprocess(
        seed in any::<u64>(),
        n in 5usize..30,
        extra in 0usize..40,
        k in 1usize..8,
    ) {
        // After any batch, `reset` must leave no trace of it: the tree is
        // the preprocessed one again, and the next batch lands exactly where
        // a freshly preprocessed maintainer lands on it.
        let (g, updates) = graph_and_updates(seed, n, extra, k);
        let mut ft = FaultTolerantDfs::new(&g);
        let preprocessed = ft.tree().fingerprint();
        for u in &updates {
            ft.apply_update(u);
            prop_assert!(ft.check().is_ok(), "after {u:?}: {:?}", ft.check());
        }
        ft.reset();
        prop_assert_eq!(ft.tree().fingerprint(), preprocessed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
        let second = random_update_sequence(&g, k, &UpdateMix::default(), &mut rng);
        ft.apply_batch(&second);
        prop_assert!(ft.check().is_ok(), "{:?}", ft.check());
        let mut fresh = FaultTolerantDfs::new(&g);
        fresh.apply_batch(&second);
        prop_assert_eq!(ft.tree().fingerprint(), fresh.tree().fingerprint());
    }
}

/// Deep sweeps of the differential harnesses — too slow for tier-1, run
/// explicitly (`cargo test --release --test property -- --ignored`, the CI
/// property-stress job) for coverage far beyond the default 24 cases.
#[test]
#[ignore = "stress target: run with `--ignored` (CI property-stress job)"]
fn stress_differential_overlay_deep() {
    for trial in 0..50u64 {
        let seed = trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        differential_overlay_run(
            seed,
            8 + (trial as usize * 3) % 48,
            (trial as usize * 7) % 96,
            40,
        );
    }
}

#[test]
#[ignore = "stress target: run with `--ignored` (CI property-stress job)"]
fn stress_differential_fresh_rebuild_deep() {
    for trial in 0..50u64 {
        let seed = trial.wrapping_mul(0xD1B5_4A32_D192_ED03);
        differential_fresh_rebuild_run(
            seed,
            8 + (trial as usize * 5) % 48,
            (trial as usize * 11) % 96,
            60,
        );
    }
}

#[test]
#[ignore = "stress target: run with `--ignored` (CI property-stress job)"]
fn stress_oracle_differential_deep() {
    let (mut checked, mut split) = (0, 0);
    for trial in 0..40u64 {
        let seed = trial.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let mix = if trial % 2 == 0 {
            UpdateMix::edges_only()
        } else {
            UpdateMix::default()
        };
        let n = 10 + (trial as usize * 37) % 600;
        let (c, s) = oracle_differential_run(seed, n, 2 * n, 10 + trial as usize % 50, &mix);
        checked += c;
        split += s;
    }
    eprintln!("{checked} queries, {split} split into two or more base-tree segments");
    assert!(split > 0, "no query path drifted into several segments");
}

#[test]
#[ignore = "stress target: run with `--ignored` (CI property-stress job)"]
fn stress_patched_index_differential_deep() {
    for trial in 0..12u64 {
        let seed = trial.wrapping_mul(0xA076_1D64_78BD_642F);
        let (g, updates) = graph_and_updates(
            seed,
            8 + (trial as usize * 5) % 40,
            (trial as usize * 9) % 80,
            25,
        );
        for backend in Backend::all_default() {
            patched_index_differential_run(backend, IndexPolicy::PatchAlways, &g, &updates);
        }
    }
}

#[test]
fn patched_index_differential_smoke() {
    // A fixed case through every backend so a patch-path regression fails
    // deterministically even without the proptest harness.
    let (g, updates) = graph_and_updates(11, 18, 25, 12);
    for backend in Backend::all_default() {
        patched_index_differential_run(backend, IndexPolicy::PatchAlways, &g, &updates);
    }
}

#[test]
fn patched_index_matches_fresh_builds_on_large_regions() {
    // The other patch differentials run on trees of under 80 vertices, but
    // served splices touch hundreds: one 1024-vertex run under PatchAlways,
    // compared with a fresh build after every update (`structural_eq` only;
    // the naive-LCA sweep is quadratic at this size).
    let mut rng = ChaCha8Rng::seed_from_u64(1024);
    let g = generators::random_connected_gnm(1024, 4096, &mut rng);
    let updates = random_update_sequence(&g, 60, &UpdateMix::edges_only(), &mut rng);
    let mut dfs = MaintainerBuilder::new(Backend::Parallel)
        .index_policy(IndexPolicy::PatchAlways)
        .build(&g);
    let mut largest = 0;
    for (i, u) in updates.iter().enumerate() {
        let before = *dfs.stats().index_maintenance();
        dfs.apply_update(u);
        let census = dfs.stats().index_maintenance().since(&before);
        largest = largest.max(census.vertices_touched);
        let idx = dfs.tree();
        let fresh = TreeIndex::from_parent_slice(idx.parent_slice(), idx.root());
        if let Err(e) = idx.structural_eq(&fresh) {
            panic!("update {i} ({u:?}): patched index differs from a fresh build: {e}");
        }
    }
    assert!(
        largest > 256,
        "the largest splice touched only {largest} vertices"
    );
}

#[test]
fn proptest_regression_smoke() {
    // A fixed case exercising all maintainers quickly, so failures in the
    // proptest harness configuration itself are caught deterministically.
    let (g, updates) = graph_and_updates(7, 20, 20, 10);
    let mut dfs = DynamicDfs::new(&g);
    for u in &updates {
        dfs.apply_update(u);
    }
    dfs.check().unwrap();
}
