//! Partitioned-vs-unsharded differential suite: the determinism contract of
//! `docs/SHARDING.md`, pinned on the frozen corpus.
//!
//! Every checked-in trace under `tests/corpus/` is replayed through a
//! [`PartitionedRouter`] at k ∈ {2, 3} shards on every backend, committing
//! one router epoch per recorded update batch, and **every epoch's**
//! assembled-forest fingerprint — not just the final one — must equal a
//! single-threaded unsharded replay of the same prefix on the same backend.
//! The `partition-storm` trace starts with disjoint clusters and bridges
//! them in waves, so the suite provably exercises cross-shard component
//! merges (asserted via the router's migration counter), and the concurrent
//! test drives the same traces through [`ConcurrentScenarioRunner::run`]
//! with the router as the committer and the torn-read census at zero
//! tolerance.
//!
//! Write amplification: on a persistently multi-component trace, the
//! busiest partitioned shard must apply strictly fewer updates than the
//! whole stream, which is what a full copy of the forest applies.

use pardfs::scenario::{rng, TraceBatch, TraceBuilder, TraceQuery};
use pardfs::{
    Backend, ConcurrentScenarioRunner, DfsMaintainer, ForestQuery, Graph, MaintainerBuilder, Trace,
    Update,
};
use std::path::PathBuf;

fn corpus_traces() -> Vec<(String, Trace)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "trace"))
        .collect();
    entries.sort();
    entries
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable trace");
            let trace =
                Trace::parse(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
            (name, trace)
        })
        .collect()
}

fn update_batches(trace: &Trace) -> Vec<&[Update]> {
    trace
        .phases
        .iter()
        .flat_map(|p| &p.batches)
        .filter_map(|b| match b {
            TraceBatch::Updates(us) => Some(us.as_slice()),
            TraceBatch::Queries(_) => None,
        })
        .collect()
}

#[test]
fn partitioned_replay_matches_unsharded_per_epoch_on_every_corpus_trace() {
    let traces = corpus_traces();
    let mut storm_migrations = 0u64;
    for (name, trace) in &traces {
        let batches = update_batches(trace);
        let graph = trace.initial_graph();
        for backend in Backend::all_default() {
            for k in [2usize, 3] {
                let builder = MaintainerBuilder::new(backend);
                let mut reference: Box<dyn DfsMaintainer> = builder.build(&graph);
                let mut router = builder.serve_partitioned(&graph, k);
                let label = format!("{name}/{}/k={k}", reference.backend_name());
                assert_eq!(
                    router.read_handle().view().fingerprint(),
                    reference.tree().fingerprint(),
                    "{label}: initial assembled forest differs"
                );
                for (i, batch) in batches.iter().enumerate() {
                    reference.apply_batch(batch);
                    let record = router
                        .commit(batch)
                        .expect("corpus update batches are non-empty");
                    assert_eq!(
                        record.fingerprint,
                        reference.tree().fingerprint(),
                        "{label}: assembled forest diverged at epoch {} (batch {i})",
                        record.epoch
                    );
                    assert_eq!(record.num_vertices, reference.num_vertices(), "{label}");
                    assert_eq!(record.num_edges, reference.num_edges(), "{label}");
                }
                // Final state: full query surface agrees, every shard's
                // tree is a valid DFS tree of its restriction.
                let view = router.read_handle().view();
                assert_eq!(view.forest_roots(), reference.forest_roots(), "{label}");
                for v in 0..router.ownership().capacity() as u32 + 8 {
                    assert_eq!(
                        view.forest_parent(v),
                        reference.forest_parent(v),
                        "{label}: forest_parent({v})"
                    );
                    for u in [0, v / 2, v, u32::MAX] {
                        assert_eq!(
                            view.same_component(u, v),
                            reference.same_component(u, v),
                            "{label}: same_component({u}, {v})"
                        );
                    }
                }
                for server in router.servers() {
                    server
                        .maintainer()
                        .check()
                        .unwrap_or_else(|e| panic!("{label}: invalid shard tree: {e}"));
                }
                if name.starts_with("partition-storm") {
                    storm_migrations += router.stats().migrations;
                }
            }
        }
    }
    assert!(
        storm_migrations > 0,
        "the partition-storm trace must force cross-shard component merges"
    );
}

#[test]
fn concurrent_partitioned_runs_are_torn_free_and_match_the_unsharded_replay() {
    for (name, trace) in corpus_traces() {
        let graph = trace.initial_graph();
        // One backend suffices here — per-epoch equivalence across all five
        // is pinned above; this test is about the concurrent read path.
        let builder = MaintainerBuilder::new(Backend::Sequential);
        let mut reference = builder.build(&graph);
        for batch in update_batches(&trace) {
            reference.apply_batch(batch);
        }
        let runner = ConcurrentScenarioRunner::new(&trace, 3);
        let (router, outcome) = runner.run(builder.serve_partitioned(&graph, 2));
        assert_eq!(outcome.commit_error, None, "{name}");
        assert_eq!(outcome.reader_panics, 0, "{name}");
        assert_eq!(
            outcome.torn_snapshots, 0,
            "{name}: a reader saw a torn view"
        );
        assert_eq!(
            outcome.final_fingerprint,
            reference.tree().fingerprint(),
            "{name}: concurrent partitioned replay diverged"
        );
        assert_eq!(
            outcome.updates_applied as usize,
            trace.num_updates(),
            "{name}: dropped updates"
        );
        assert_eq!(
            outcome.epochs.len(),
            update_batches(&trace).len() + 1,
            "{name}: epoch log is epoch 0 plus one per batch"
        );
        assert!(
            outcome.queries_answered > 0,
            "{name}: readers answered nothing"
        );
        // Routed writes: every shard applied no more than the total, and
        // together they applied at least every update once.
        let stats = router.stats();
        assert_eq!(stats.updates_routed as usize, trace.num_updates(), "{name}");
        assert!(
            stats.total_applied() >= stats.updates_routed,
            "{name}: applied counts lost updates"
        );
    }
}

/// A deterministic multi-component churn trace: four disjoint path
/// clusters, six waves of intra-cluster edge churn and vertex growth (never
/// bridging), then one merge wave that bridges two cluster pairs.
/// Components persist, so ownership stays spread across shards and each
/// shard applies only its own share. The corpus `partition-storm` trace is
/// the wrong workload for this: its bridge waves merge every cluster into
/// one component, and since splits never migrate state back, one shard ends
/// up owning the whole forest. The merge wave here still forces cross-shard
/// migrations.
fn multi_component_churn_trace(n: usize) -> Trace {
    const CLUSTERS: usize = 4;
    let cs = (n / CLUSTERS).max(8);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for c in 0..CLUSTERS {
        let base = (c * cs) as u32;
        for i in 0..cs as u32 - 1 {
            edges.push((base + i, base + i + 1));
        }
    }
    let g = Graph::with_edges(CLUSTERS * cs, &edges);
    let mut b = TraceBuilder::new("multi-component-churn", 0xE17, &g);
    let mut queries = rng(0xE17);
    for wave in 0..6u32 {
        b.phase(&format!("churn-{wave}"));
        for c in 0..CLUSTERS {
            let base = (c * cs) as u32;
            // Rewire one path edge, add a fresh chord, grow the cluster by
            // one attached vertex (the insert exercises the router's
            // id-allocation echoes).
            let i = base + (wave * 3) % (cs as u32 - 1);
            b.push_update(Update::DeleteEdge(i, i + 1));
            b.push_update(Update::InsertEdge(i, i + 1));
            b.push_update(Update::InsertEdge(base, base + 2 + wave));
            b.push_update(Update::InsertVertex {
                edges: vec![base + 1],
            });
        }
        b.push_query(TraceQuery::ForestRoots);
        b.random_queries(8, &mut queries);
    }
    // The merge wave: bridge clusters 0–1 and 2–3. Both bridges join
    // components owned by different shards at k ∈ {2, 3} (labels 0..3 map
    // to owners 0,1,0,1 and 0,1,2,0), so each forces a state migration.
    b.phase("merge");
    b.push_update(Update::InsertEdge(0, cs as u32));
    b.push_update(Update::InsertEdge((2 * cs) as u32, (3 * cs) as u32));
    b.push_query(TraceQuery::SameComponent(0, (2 * cs - 1) as u32));
    b.random_queries(8, &mut queries);
    b.finish()
}

#[test]
fn busiest_shard_applies_less_than_the_whole_stream_when_components_persist() {
    let trace = multi_component_churn_trace(64);
    let graph = trace.initial_graph();
    let batches = update_batches(&trace);
    let total = trace.num_updates() as u64;
    for backend in Backend::all_default() {
        for k in [2usize, 3] {
            let builder = MaintainerBuilder::new(backend);
            let mut reference = builder.build(&graph);
            let mut router = builder.serve_partitioned(&graph, k);
            let label = format!("{}/k={k}", reference.backend_name());
            for batch in &batches {
                reference.apply_batch(batch);
                router
                    .commit(batch)
                    .expect("the trace's update batches are non-empty");
            }
            let stats = router.stats();
            assert!(
                stats.max_applied_per_shard() < total,
                "{label}: the busiest shard applied {} of {total} updates; \
                 a full copy applies all of them",
                stats.max_applied_per_shard()
            );
            assert!(
                stats.migrations > 0,
                "{label}: the merge wave must force a cross-shard migration"
            );
            assert_eq!(
                router.read_handle().view().fingerprint(),
                reference.tree().fingerprint(),
                "{label}: partitioned forest diverged from the unsharded replay"
            );
        }
    }
}
