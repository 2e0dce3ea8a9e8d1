//! Cross-thread-count determinism suite.
//!
//! The vendored `rayon` executor is genuinely multi-threaded, and its module
//! docs promise that results are **identical across thread counts** for the
//! operations this workspace uses (order-preserving collects, exact
//! reductions, left-tie-broken minima, stable sorts, per-element-disjoint
//! `for_each` bodies). That promise is load-bearing: a backend whose answer
//! depends on the thread count has a data race or an order-sensitive
//! combine, which is exactly the class of bug that otherwise only surfaces
//! as a rare nightly flake.
//!
//! Every test here drives a backend through the same seeded workload under
//! explicit 1-, 2- and 4-thread pools and pins:
//!
//! * the final forest (every vertex's parent and the root set) — not merely
//!   "some valid DFS tree", the *same* tree;
//! * the per-update structural [`StatsReport`] fingerprint (query sets,
//!   relinked vertices, reroot jobs/rounds, index-maintenance and rebuild
//!   censuses, streaming passes, CONGEST rounds/messages/words). Wall-clock
//!   fields are deliberately excluded — they are the only quantity allowed
//!   to vary with the thread count.
//!
//! The CI thread-matrix job additionally runs the whole workspace suite
//! under `PARDFS_THREADS=1,2,4`, which routes every *other* test through
//! the same three pool sizes.

use pardfs::graph::updates::{random_update_sequence, UpdateMix};
use pardfs::graph::{generators, Graph, Update, Vertex};
use pardfs::{Backend, MaintainerBuilder, ModelStats, Scenario, StatsReport, Strategy};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The thread counts the suite compares (also the CI matrix axis).
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Everything observable about one drive that must not depend on threads.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    parents: Vec<Option<Vertex>>,
    roots: Vec<Vertex>,
    fingerprints: Vec<Vec<u64>>,
}

/// Structural (non-timing) projection of a [`StatsReport`].
fn fingerprint(report: &StatsReport) -> Vec<u64> {
    let (engine, index) = (&report.engine, &report.index);
    let mut out = vec![
        engine.reroot_jobs,
        engine.reduction_query_sets,
        engine.reroot.rounds,
        engine.reroot.query_sets,
        engine.reroot.query_batches,
        engine.reroot.queries,
        engine.reroot.components,
        engine.reroot.relinked_vertices,
        index.patches_applied,
        index.full_rebuilds,
        index.fallback_rebuilds,
        index.vertices_touched,
    ];
    match report.model {
        Some(ModelStats::Rebuild(policy)) => out.extend([policy.rebuilds, policy.overlay_updates]),
        Some(ModelStats::Stream(stream)) => {
            out.extend([stream.passes, stream.edges_scanned, stream.queries]);
        }
        Some(ModelStats::Congest(congest)) => out.extend([
            congest.rounds,
            congest.messages,
            congest.words,
            congest.broadcast_phases,
        ]),
        None => {}
    }
    out
}

/// Drive `builder` over `updates` inside an explicit `threads`-wide pool.
fn drive(builder: MaintainerBuilder, graph: &Graph, updates: &[Update], threads: usize) -> Outcome {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build test pool");
    pool.install(|| {
        let mut dfs = builder.build(graph);
        let mut fingerprints = Vec::with_capacity(updates.len());
        for update in updates {
            dfs.apply_update(update);
            fingerprints.push(fingerprint(&dfs.stats()));
        }
        dfs.check().expect("maintained tree must stay a DFS tree");
        let parents = (0..dfs.num_vertices() as Vertex)
            .map(|v| dfs.forest_parent(v))
            .collect();
        Outcome {
            parents,
            roots: dfs.forest_roots(),
            fingerprints,
        }
    })
}

/// Pin `builder`'s outcome identical across [`THREAD_COUNTS`].
fn assert_thread_count_invariant(
    label: &str,
    builder: MaintainerBuilder,
    graph: &Graph,
    updates: &[Update],
) {
    let baseline = drive(builder, graph, updates, THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        let outcome = drive(builder, graph, updates, threads);
        assert_eq!(
            baseline.parents, outcome.parents,
            "{label}: final tree diverged at {threads} threads"
        );
        assert_eq!(
            baseline.roots, outcome.roots,
            "{label}: forest roots diverged at {threads} threads"
        );
        for (i, (a, b)) in baseline
            .fingerprints
            .iter()
            .zip(&outcome.fingerprints)
            .enumerate()
        {
            assert_eq!(
                a, b,
                "{label}: stats fingerprint of update {i} diverged at {threads} threads"
            );
        }
    }
}

/// Seeded mixed workload (edge + vertex churn) over a given graph.
fn workload(graph: &Graph, updates: usize, seed: u64) -> Vec<Update> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    random_update_sequence(graph, updates, &UpdateMix::default(), &mut rng)
}

#[test]
fn every_backend_is_thread_count_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(1701);
    let graph = generators::random_connected_gnm(600, 2400, &mut rng);
    let updates = workload(&graph, 40, 99);
    for backend in Backend::all_default() {
        let builder = MaintainerBuilder::new(backend);
        assert_thread_count_invariant(&format!("{backend:?}"), builder, &graph, &updates);
    }
}

#[test]
fn both_strategies_are_thread_count_invariant_on_adversarial_shapes() {
    // Brooms and near-paths drive the engine through its deepest round
    // structure — the most reroot components in flight at once.
    let graph = generators::broom(300, 300);
    let updates = workload(&graph, 30, 4242);
    for strategy in [Strategy::Simple, Strategy::Phased] {
        let builder = MaintainerBuilder::new(Backend::Parallel).strategy(strategy);
        assert_thread_count_invariant(&format!("{strategy:?}"), builder, &graph, &updates);
    }
}

#[test]
fn large_parallel_workload_is_thread_count_invariant() {
    // Large enough that `StructureD::build` fans its rows out across the
    // pool (and large reroots' batched `D` queries can too), so the real
    // executor paths — not the sequential small-input fallbacks — are the
    // thing being compared.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let graph = generators::random_connected_gnm(5000, 20000, &mut rng);
    let updates = workload(&graph, 10, 31);
    let builder = MaintainerBuilder::new(Backend::Parallel);
    assert_thread_count_invariant("parallel/n=5000", builder, &graph, &updates);
}

#[test]
fn scenario_replay_is_thread_count_invariant_for_every_backend() {
    // The scenario engine's whole regression story rests on this: a trace
    // replayed through `ScenarioRunner` must produce the same structural
    // outcome — final tree, backend-independent query answers, per-phase
    // stats roll-ups — at every pool size, for every backend. (The corpus
    // CI job then compares 1- and 4-thread replays across *processes*; this
    // test pins the same invariant in-process, with 2 threads included.)
    for (scenario, seed) in [
        (Scenario::DeepPathStress, 17u64),
        (Scenario::VertexChurn, 18),
        (Scenario::MergeSplitStorm, 19),
    ] {
        let trace = scenario.record(200, seed);
        for backend in Backend::all_default() {
            let replay = |threads: usize| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("build test pool");
                pool.install(|| {
                    let (_, outcome) = MaintainerBuilder::new(backend).run_scenario(&trace);
                    outcome
                })
            };
            let baseline = replay(THREAD_COUNTS[0]);
            for &threads in &THREAD_COUNTS[1..] {
                let outcome = replay(threads);
                assert_eq!(
                    baseline.structural_fingerprint(),
                    outcome.structural_fingerprint(),
                    "{}/{backend:?}: scenario replay diverged at {threads} threads \
                     (tree {:016x} vs {:016x}, queries {:016x} vs {:016x})",
                    scenario.name(),
                    baseline.tree_fingerprint,
                    outcome.tree_fingerprint,
                    baseline.queries_fingerprint,
                    outcome.queries_fingerprint,
                );
            }
        }
    }
}

#[test]
fn serve_layer_replay_is_thread_count_invariant_for_every_backend() {
    // The serving layer's regression story: a trace group-committed through
    // a `Server` (with concurrent readers racing the commits) must land on
    // the same per-epoch trees — and the same final tree — at every pool
    // size, for every backend, because the writer preserves the trace's
    // `apply_batch` boundaries. Query *throughput* is interleaving-dependent
    // and deliberately unpinned; the structure is not.
    for (scenario, seed) in [
        (Scenario::ReadMostly, 27u64),
        (Scenario::MergeSplitStorm, 28),
    ] {
        let trace = scenario.record(96, seed);
        for backend in Backend::all_default() {
            let replay = |threads: usize| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("build test pool");
                pool.install(|| {
                    let dfs = MaintainerBuilder::new(backend).build(&trace.initial_graph());
                    pardfs::ConcurrentScenarioRunner::new(&trace, 2)
                        .run(pardfs::Server::new(dfs))
                        .1
                })
            };
            let baseline = replay(THREAD_COUNTS[0]);
            assert_eq!(baseline.torn_snapshots, 0);
            let epoch_fingerprints = |run: &pardfs::ConcurrentOutcome| -> Vec<(u64, u64)> {
                run.epochs
                    .iter()
                    .map(|e| (e.epoch, e.fingerprint))
                    .collect()
            };
            for &threads in &THREAD_COUNTS[1..] {
                let outcome = replay(threads);
                assert_eq!(outcome.torn_snapshots, 0);
                assert_eq!(
                    baseline.final_fingerprint,
                    outcome.final_fingerprint,
                    "{}/{backend:?}: served final tree diverged at {threads} threads",
                    scenario.name()
                );
                assert_eq!(
                    epoch_fingerprints(&baseline),
                    epoch_fingerprints(&outcome),
                    "{}/{backend:?}: per-epoch trees diverged at {threads} threads",
                    scenario.name()
                );
                assert_eq!(
                    baseline.updates_applied,
                    outcome.updates_applied,
                    "{}/{backend:?}: applied-update census diverged at {threads} threads",
                    scenario.name()
                );
            }
            // And the served tree is the single-threaded runner's tree: the
            // serving layer adds concurrency, not a different algorithm.
            let (_, reference) = MaintainerBuilder::new(backend).run_scenario(&trace);
            assert_eq!(
                baseline.final_fingerprint,
                reference.tree_fingerprint,
                "{}/{backend:?}: served tree != ScenarioRunner tree",
                scenario.name()
            );
        }
    }
}
