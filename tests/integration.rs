//! Cross-crate integration tests, driven through the unified
//! [`DfsMaintainer`] trait and the [`MaintainerBuilder`]: all five backends
//! absorb the same update sequences and must produce valid DFS forests that
//! agree on connectivity with a reference graph. (The exhaustive lockstep
//! comparison lives in `tests/conformance.rs`; this file covers the
//! workspace-level wiring — builder, umbrella re-exports, batch API,
//! fault-tolerant batches — and a few scripted scenarios.)

use pardfs::graph::updates::{random_update_sequence, UpdateMix};
use pardfs::graph::{connected_components, generators, Graph, Update, Vertex};
use pardfs::{
    Backend, BatchReport, DfsMaintainer, DistributedDynamicDfs, DynamicDfs, EngineDfs,
    FaultTolerantDfs, ForestQuery, IndexMaintenanceStats, IndexPolicy, MaintainerBuilder, Model,
    Snapshot, Strategy, StreamingDynamicDfs,
};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

#[test]
fn all_maintainers_agree_with_reference_connectivity() {
    let mut rng = ChaCha8Rng::seed_from_u64(2026);
    let n = 60usize;
    let g = generators::random_connected_gnm(n, 150, &mut rng);
    let updates = random_update_sequence(&g, 40, &UpdateMix::default(), &mut rng);

    let mut reference = g.clone();
    let mut maintainers: Vec<Box<dyn DfsMaintainer>> = vec![
        MaintainerBuilder::new(Backend::Sequential).build(&g),
        MaintainerBuilder::new(Backend::Parallel)
            .strategy(Strategy::Simple)
            .build(&g),
        MaintainerBuilder::new(Backend::Parallel)
            .strategy(Strategy::Phased)
            .build(&g),
        MaintainerBuilder::new(Backend::Streaming).build(&g),
        MaintainerBuilder::new(Backend::Congest { bandwidth: 8 }).build(&g),
    ];

    for (i, u) in updates.iter().enumerate() {
        reference.apply(u);
        let (labels, _) = connected_components(&reference);

        for dfs in &mut maintainers {
            dfs.apply_update(u);
            dfs.check()
                .unwrap_or_else(|e| panic!("{}, update {i}: {e}", dfs.backend_name()));
        }

        // Connectivity agreement on the original vertex ids (checked on the
        // phased maintainer; the full cross-backend matrix lives in the
        // conformance suite).
        let phased = &maintainers[2];
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                if !reference.is_active(a) || !reference.is_active(b) {
                    continue;
                }
                let same = labels[a as usize] == labels[b as usize];
                assert_eq!(
                    phased.same_component(a, b),
                    same,
                    "update {i}: phased connectivity disagrees on ({a},{b})"
                );
            }
        }
    }
}

#[test]
fn fault_tolerant_agrees_with_fully_dynamic_processing() {
    let mut rng = ChaCha8Rng::seed_from_u64(404);
    let g = generators::random_connected_gnm(50, 160, &mut rng);
    let mut ft = FaultTolerantDfs::new(&g);

    for k in [1usize, 2, 4, 6] {
        let updates = random_update_sequence(&g, k, &UpdateMix::default(), &mut rng);
        // Fault tolerant: back to the preprocessed structure, then one
        // batch through the unified batch API.
        ft.reset();
        let report: BatchReport = ft.apply_batch(&updates);
        ft.check().unwrap();
        assert_eq!(report.applied(), k);

        // Fully dynamic: process the same updates one by one.
        let mut dynamic = MaintainerBuilder::new(Backend::Parallel).build(&g);
        let inserted: Vec<Vertex> = updates
            .iter()
            .filter_map(|u| dynamic.apply_update(u))
            .collect();
        dynamic.check().unwrap();
        assert_eq!(report.inserted, inserted, "k = {k}");

        // Both must span the same vertex set (same number of tree vertices).
        assert_eq!(
            ft.tree().num_vertices(),
            dynamic.tree().num_vertices(),
            "k = {k}"
        );
        // ... and agree on the resulting forest structure queries.
        assert_eq!(ft.forest_roots().len(), dynamic.forest_roots().len());
    }
}

#[test]
fn adversarial_families_exercise_deep_reroots() {
    // Families whose DFS trees are extremely unbalanced: long paths, brooms,
    // caterpillars and path-of-cliques. These are the shapes on which naive
    // rerooting degenerates; every maintainer must still stay correct.
    let families: Vec<(&str, Graph)> = vec![
        ("path", generators::path(300)),
        ("broom", generators::broom(150, 150)),
        ("caterpillar", generators::caterpillar(100, 2)),
        ("path_of_cliques", generators::path_of_cliques(30, 6)),
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    for (name, g) in families {
        let updates = random_update_sequence(&g, 20, &UpdateMix::edges_only(), &mut rng);
        let mut dfs = MaintainerBuilder::new(Backend::Parallel).build(&g);
        for (i, u) in updates.iter().enumerate() {
            dfs.apply_update(u);
            dfs.check()
                .unwrap_or_else(|e| panic!("{name}, update {i} ({u:?}): {e}"));
        }
        // Query-round bound check (generous constant; exact numbers live in
        // the experiment harness).
        let n = dfs.tree().num_vertices() as f64;
        let log2n = n.log2().max(1.0);
        assert!(
            (dfs.stats().total_query_sets() as f64) <= 30.0 * log2n * log2n,
            "{name}: query sets {} too large for n = {n}",
            dfs.stats().total_query_sets()
        );
    }
}

#[test]
fn growing_a_graph_from_nothing() {
    // Start from isolated vertices and build up a graph purely through
    // updates, including vertex insertions that arrive with several edges.
    // Inserted-vertex ids must agree across backends (the trait reports them
    // through the same `apply_update` surface).
    let g = Graph::new(4);
    let mut dfs = MaintainerBuilder::new(Backend::Parallel).build(&g);
    let mut seq = MaintainerBuilder::new(Backend::Sequential).build(&g);
    let mut updates: Vec<Update> = vec![
        Update::InsertEdge(0, 1),
        Update::InsertEdge(2, 3),
        Update::InsertVertex { edges: vec![1, 2] }, // vertex 4 bridges the two pairs
        Update::InsertEdge(0, 3),
        Update::DeleteVertex(4),
        Update::InsertVertex { edges: vec![0] }, // vertex 5
        Update::InsertVertex { edges: vec![5, 3] }, // vertex 6
        Update::DeleteEdge(0, 1),
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    // Finish with random churn.
    let base = {
        let mut scratch = Graph::new(4);
        for u in &updates {
            scratch.apply(u);
        }
        scratch
    };
    updates.extend(random_update_sequence(
        &base,
        15,
        &UpdateMix::default(),
        &mut rng,
    ));

    for (i, u) in updates.iter().enumerate() {
        let a = dfs.apply_update(u);
        let b = seq.apply_update(u);
        assert_eq!(a, b, "inserted-vertex ids must agree (update {i})");
        dfs.check()
            .unwrap_or_else(|e| panic!("core, update {i}: {e}"));
        seq.check()
            .unwrap_or_else(|e| panic!("seq, update {i}: {e}"));
    }
}

#[test]
fn forest_parent_chains_are_acyclic_and_lead_to_roots() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let g = generators::random_connected_gnm(80, 200, &mut rng);
    let updates = random_update_sequence(&g, 30, &UpdateMix::default(), &mut rng);
    let mut dfs = MaintainerBuilder::new(Backend::Parallel).build(&g);
    dfs.apply_batch(&updates);
    dfs.check().unwrap();
    let roots: std::collections::HashSet<u32> = dfs.forest_roots().into_iter().collect();
    let cap = dfs.tree().capacity() as u32;
    for v in 0..cap {
        let Some(mut cur) = dfs.forest_parent(v) else {
            continue; // v is a root or absent; nothing to walk.
        };
        let mut steps = 0;
        while let Some(p) = dfs.forest_parent(cur) {
            cur = p;
            steps += 1;
            assert!(steps <= cap, "cycle detected");
        }
        assert!(
            roots.contains(&cur),
            "chain from {v} ends at a non-root {cur}"
        );
    }
}

#[test]
fn batch_reports_expose_normalised_statistics() {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let g = generators::random_connected_gnm(40, 100, &mut rng);
    let updates = random_update_sequence(&g, 12, &UpdateMix::edges_only(), &mut rng);
    for backend in Backend::all_default() {
        let mut dfs = MaintainerBuilder::new(backend).build(&g);
        let report = dfs.apply_batch(&updates);
        assert_eq!(report.applied(), updates.len(), "{}", dfs.backend_name());
        assert_eq!(report.per_update.len(), updates.len());
        // Edge-only workloads keep the graph connected or split it; either
        // way at least one update must have touched the tree.
        assert!(
            report.total_relinked_vertices() > 0,
            "{}: no update relinked anything",
            dfs.backend_name()
        );
        assert!(report.max_query_sets() <= report.total_query_sets());
        // Every backend's per-update report carries the engine record, and
        // the accessors read that record.
        for r in &report.per_update {
            let engine = r.engine().expect("every backend fills the engine record");
            assert_eq!(
                r.total_query_sets(),
                engine.reduction_query_sets + engine.reroot.query_sets
            );
            assert_eq!(r.relinked_vertices(), engine.reroot.relinked_vertices);
            assert_eq!(r.index_maintenance(), &r.index);
        }
        // The reroot's query sets are counted on every backend, the
        // sequential baseline's included.
        let reroot_sets: u64 = report
            .per_update
            .iter()
            .map(|r| r.engine.reroot.query_sets)
            .sum();
        assert!(
            reroot_sets > 0,
            "{}: no reroot query set",
            dfs.backend_name()
        );
    }
}

#[test]
fn patch_path_never_materializes_the_parent_array_on_any_engine_backend() {
    // The sequential baseline's pin, on the four engine models: edge updates
    // under a splice-everything policy keep the index by TreePatch splices
    // alone, so no update builds an O(n) parent array (only a full rebuild
    // does); rebuilding every update builds exactly one per update.
    fn run<M: Model>(
        mut dfs: EngineDfs<M>,
        policy: IndexPolicy,
        updates: &[Update],
    ) -> IndexMaintenanceStats {
        dfs.set_index_policy(policy);
        for u in updates {
            dfs.apply_update(u);
        }
        dfs.check().unwrap();
        *dfs.stats().index_maintenance()
    }
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let g = generators::random_connected_gnm(60, 150, &mut rng);
    let updates = random_update_sequence(&g, 25, &UpdateMix::edges_only(), &mut rng);
    let k = updates.len() as u64;
    for policy in [IndexPolicy::PatchAlways, IndexPolicy::EveryUpdate] {
        let runs = [
            ("parallel", run(DynamicDfs::new(&g), policy, &updates)),
            (
                "streaming",
                run(StreamingDynamicDfs::new(&g), policy, &updates),
            ),
            (
                "congest",
                run(
                    DistributedDynamicDfs::with_config(&g, Strategy::Phased, 8),
                    policy,
                    &updates,
                ),
            ),
            (
                "fault-tolerant",
                run(FaultTolerantDfs::new(&g), policy, &updates),
            ),
        ];
        for (name, census) in runs {
            if policy == IndexPolicy::PatchAlways {
                assert_eq!(
                    census.full_rebuilds, 0,
                    "{name}: patched edge updates copied parents"
                );
                assert_eq!(census.patches_applied, k, "{name}");
            } else {
                assert_eq!(
                    census.full_rebuilds, k,
                    "{name}: one parent array per rebuild"
                );
            }
        }
    }
}

/// `u32::MAX` is the one user id the pseudo-root shift cannot map: it must
/// read as an absent vertex on every query surface — each backend, a served
/// snapshot, a partitioned view and a mapped epoch file — never wrap onto
/// the pseudo root or overflow.
#[test]
fn forest_queries_on_the_top_vertex_id_answer_absent_on_every_surface() {
    let g = generators::grid(4, 4);
    let top = u32::MAX;
    let check = |label: &str, q: &dyn ForestQuery| {
        assert_eq!(q.forest_parent(top), None, "{label}: forest_parent(MAX)");
        assert!(!q.same_component(0, top), "{label}: same_component(0, MAX)");
        assert!(!q.same_component(top, 0), "{label}: same_component(MAX, 0)");
        assert!(q.same_component(0, 15), "{label}: the grid is connected");
    };
    let dir = std::env::temp_dir().join(format!("pardfs-top-id-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for backend in Backend::all_default() {
        let builder = MaintainerBuilder::new(backend);
        let dfs = builder.build(&g);
        let name = dfs.backend_name();
        check(name, dfs.as_ref());
        let snapshot = builder.serve_single(&g).read_handle().snapshot();
        check(&format!("{name} snapshot"), &*snapshot);
        let view = builder.serve_partitioned(&g, 2).read_handle().view();
        check(&format!("{name} partitioned view"), &*view);
        let path = dir.join(format!("{name}.epoch"));
        snapshot.publish_to(&path).expect("epoch publishes");
        let mapped = Snapshot::open_mapped(&path).expect("epoch opens");
        check(&format!("{name} mapped epoch"), &mapped);
    }
    std::fs::remove_dir_all(&dir).ok();
}
