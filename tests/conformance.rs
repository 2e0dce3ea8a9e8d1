//! Cross-backend conformance suite: every [`DfsMaintainer`] backend is driven
//! through the *same* update sequences by the *same* parameterised driver and
//! must (a) keep a valid DFS tree after every update, (b) agree with a
//! reference union-find on the exact component structure, and (c) agree with
//! every other backend on all forest queries that are
//! structure-independent (component membership, component count, vertex
//! presence). The maintained DFS *trees* may legitimately differ between
//! backends — a graph has many DFS trees — so tree shapes are never compared.

use pardfs::graph::updates::{random_update_sequence, UpdateMix};
use pardfs::graph::{connected_components, generators, Graph, Update};
use pardfs::{
    Backend, DfsMaintainer, FaultTolerantDfs, MaintainerBuilder, RebuildPolicy, Strategy,
};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Every backend configuration under conformance test. The parallel backend
/// appears at three rebuild policies so the incremental `D` path (overlay +
/// base-tree decomposition) is exercised in lockstep with the others.
fn contenders() -> Vec<(String, MaintainerBuilder)> {
    let mut out = vec![
        (
            "parallel/simple".to_string(),
            MaintainerBuilder::new(Backend::Parallel).strategy(Strategy::Simple),
        ),
        (
            "parallel/phased".to_string(),
            MaintainerBuilder::new(Backend::Parallel).strategy(Strategy::Phased),
        ),
        (
            "parallel/rebuild-every".to_string(),
            MaintainerBuilder::new(Backend::Parallel).rebuild_policy(RebuildPolicy::EveryUpdate),
        ),
        (
            "parallel/rebuild-never".to_string(),
            MaintainerBuilder::new(Backend::Parallel).rebuild_policy(RebuildPolicy::Never),
        ),
        (
            "sequential".to_string(),
            MaintainerBuilder::new(Backend::Sequential),
        ),
        (
            "streaming".to_string(),
            MaintainerBuilder::new(Backend::Streaming),
        ),
        (
            "fault-tolerant".to_string(),
            MaintainerBuilder::new(Backend::FaultTolerant),
        ),
    ];
    for bandwidth in [1usize, 8] {
        out.push((
            format!("congest/B={bandwidth}"),
            MaintainerBuilder::new(Backend::Congest { bandwidth }),
        ));
    }
    out
}

/// The parameterised conformance driver: apply `updates` to every backend in
/// lockstep with a reference graph and assert agreement after every step.
fn conformance_run(context: &str, graph: &Graph, updates: &[Update]) {
    let mut reference = graph.clone();
    let mut maintainers: Vec<(String, Box<dyn DfsMaintainer>)> = contenders()
        .into_iter()
        .map(|(name, builder)| (name, builder.build(graph)))
        .collect();

    for (i, update) in updates.iter().enumerate() {
        reference.apply(update);
        let (labels, component_count) = connected_components(&reference);

        for (name, dfs) in &mut maintainers {
            dfs.apply_update(update);
            dfs.check().unwrap_or_else(|e| {
                panic!("{context}: {name}, update {i} ({update:?}) broke the DFS tree: {e}")
            });

            // Component count: one forest root per component.
            assert_eq!(
                dfs.forest_roots().len(),
                component_count,
                "{context}: {name}, update {i}: component count"
            );

            // Exact component structure against the reference labels, on the
            // whole (padded) id space.
            let cap = reference.capacity() as u32;
            for a in 0..cap {
                if !reference.is_active(a) {
                    assert!(
                        dfs.forest_parent(a).is_none(),
                        "{context}: {name}, update {i}: deleted vertex {a} still has a parent"
                    );
                    continue;
                }
                for b in (a + 1)..cap {
                    if !reference.is_active(b) {
                        continue;
                    }
                    let same = labels[a as usize] == labels[b as usize];
                    assert_eq!(
                        dfs.same_component(a, b),
                        same,
                        "{context}: {name}, update {i}: connectivity disagrees on ({a},{b})"
                    );
                }
            }

            // Forest parents stay inside the component (spot consistency
            // between the two query surfaces).
            for a in 0..cap {
                if let Some(p) = dfs.forest_parent(a) {
                    assert!(
                        dfs.same_component(a, p),
                        "{context}: {name}, update {i}: parent {p} of {a} in another component"
                    );
                }
            }
        }

        // Vertex-count agreement across all backends.
        let counts: Vec<usize> = maintainers.iter().map(|(_, d)| d.num_vertices()).collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{context}: update {i}: vertex counts diverge: {counts:?}"
        );
    }
}

#[test]
fn conformance_random_mixed_updates() {
    let mut rng = ChaCha8Rng::seed_from_u64(2027);
    for trial in 0..3 {
        let n = 20 + 10 * trial;
        let g = generators::random_connected_gnm(n, 3 * n, &mut rng);
        let updates = random_update_sequence(&g, 15, &UpdateMix::default(), &mut rng);
        conformance_run(&format!("random trial {trial}"), &g, &updates);
    }
}

#[test]
fn conformance_edge_churn_on_adversarial_shapes() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let shapes: Vec<(&str, Graph)> = vec![
        ("path", generators::path(40)),
        ("broom", generators::broom(20, 20)),
        ("caterpillar", generators::caterpillar(12, 2)),
        ("path_of_cliques", generators::path_of_cliques(8, 5)),
    ];
    for (name, g) in shapes {
        let updates = random_update_sequence(&g, 12, &UpdateMix::edges_only(), &mut rng);
        conformance_run(name, &g, &updates);
    }
}

#[test]
fn conformance_delete_heavy_workloads() {
    // Deletions dominate: stresses the overlay's removed/dead masks, subtree
    // re-attachment through surviving edges, and (for the incremental
    // parallel configurations) queries against heavily masked base trees.
    let mut rng = ChaCha8Rng::seed_from_u64(4242);
    for (name, g) in [
        (
            "dense-random",
            generators::random_connected_gnm(24, 90, &mut rng),
        ),
        ("grid", generators::grid(5, 6)),
        ("path_of_cliques", generators::path_of_cliques(5, 5)),
    ] {
        let updates = random_update_sequence(&g, 14, &UpdateMix::delete_heavy(), &mut rng);
        conformance_run(&format!("delete-heavy {name}"), &g, &updates);
    }
}

#[test]
fn conformance_vertex_churn_workloads() {
    // Vertex insertions/deletions only: the id space grows past the build
    // capacity and shrinks again, exercising overlay growth and the
    // inserted-vertex singleton decomposition on every backend.
    let mut rng = ChaCha8Rng::seed_from_u64(31337);
    for trial in 0..2 {
        let n = 18 + 8 * trial;
        let g = generators::random_connected_gnm(n, 2 * n, &mut rng);
        let updates = random_update_sequence(&g, 12, &UpdateMix::vertices_only(5), &mut rng);
        conformance_run(&format!("vertex-churn trial {trial}"), &g, &updates);
    }
}

#[test]
fn conformance_seeded_regression_corpus() {
    // Seeds that produced interesting structure during development (threshold
    // crossings mid-sequence, deletions that split off single vertices,
    // re-insertion of just-deleted edges). Proptest counterexamples get
    // appended here with their generating parameters.
    let corpus: &[(u64, usize, usize, usize)] = &[
        // (seed, n, extra edges, updates)
        (7, 20, 20, 18),
        (99, 12, 4, 20),
        (2024, 33, 60, 16),
        (550, 25, 10, 22),
    ];
    for &(seed, n, extra, count) in corpus {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = generators::random_connected_gnm(n, m, &mut rng);
        let updates = random_update_sequence(&g, count, &UpdateMix::delete_heavy(), &mut rng);
        conformance_run(&format!("corpus seed {seed}"), &g, &updates);
    }
}

#[test]
fn conformance_disconnecting_and_reconnecting() {
    // Deterministic scripted sequence hitting the component-splitting paths:
    // cut a path in the middle, cut again, reconnect differently, drop and
    // re-grow vertices.
    let g = generators::path(12);
    let updates = vec![
        Update::DeleteEdge(5, 6),
        Update::DeleteEdge(2, 3),
        Update::InsertEdge(0, 11),
        Update::DeleteVertex(8),
        Update::InsertVertex { edges: vec![2, 3] },
        Update::InsertEdge(5, 7),
        Update::DeleteEdge(0, 11),
    ];
    conformance_run("scripted split/rejoin", &g, &updates);
}

#[test]
fn conformance_batch_equals_one_by_one() {
    // For every backend: applying a batch through apply_batch must leave the
    // maintainer in a state component-equivalent to applying the updates one
    // by one, and the report must cover every update.
    let mut rng = ChaCha8Rng::seed_from_u64(555);
    let g = generators::random_connected_gnm(30, 80, &mut rng);
    let updates = random_update_sequence(&g, 10, &UpdateMix::default(), &mut rng);

    let mut reference = g.clone();
    for u in &updates {
        reference.apply(u);
    }
    let (labels, component_count) = connected_components(&reference);

    for (name, builder) in contenders() {
        let mut batched = builder.build(&g);
        let report = batched.apply_batch(&updates);
        assert_eq!(report.applied(), updates.len(), "{name}");
        assert_eq!(report.per_update.len(), updates.len(), "{name}");
        batched
            .check()
            .unwrap_or_else(|e| panic!("{name}: batch apply broke the tree: {e}"));

        let mut stepped = builder.build(&g);
        for u in &updates {
            stepped.apply_update(u);
        }

        assert_eq!(
            batched.forest_roots().len(),
            component_count,
            "{name}: batched component count"
        );
        let cap = reference.capacity() as u32;
        for a in 0..cap {
            for b in (a + 1)..cap {
                if !reference.is_active(a) || !reference.is_active(b) {
                    continue;
                }
                let same = labels[a as usize] == labels[b as usize];
                assert_eq!(
                    batched.same_component(a, b),
                    same,
                    "{name}: batched ({a},{b})"
                );
                assert_eq!(
                    stepped.same_component(a, b),
                    same,
                    "{name}: stepped ({a},{b})"
                );
            }
        }
    }
}

#[test]
fn conformance_per_update_census_matches_stats() {
    // Every backend counts its index census from construction, in the
    // per-update reports of a batch and in `stats()` alike — so the last
    // per-update report of any batch reads what `stats()` reads. The
    // fault-tolerant backend must keep that across `reset()`, which drops
    // the pending batch but not the census.
    let mut rng = ChaCha8Rng::seed_from_u64(919);
    let g = generators::random_connected_gnm(30, 80, &mut rng);
    let updates = random_update_sequence(&g, 12, &UpdateMix::default(), &mut rng);
    for (name, builder) in contenders() {
        let mut dfs = builder.build(&g);
        for (i, batch) in updates.chunks(4).enumerate() {
            let report = dfs.apply_batch(batch);
            assert_eq!(
                report.per_update.last().unwrap().index_maintenance(),
                dfs.stats().index_maintenance(),
                "{name}, batch {i}"
            );
        }
    }

    let mut ft = FaultTolerantDfs::new(&g);
    for (i, batch) in updates.chunks(4).enumerate() {
        let report = ft.apply_batch(batch);
        assert_eq!(
            report.per_update.last().unwrap().index_maintenance(),
            ft.stats().index_maintenance(),
            "fault-tolerant after {i} resets"
        );
        ft.reset();
    }
}
