//! Stress suite for the `pardfs-serve` epoch-snapshot serving layer.
//!
//! The serving contract under test (see `crates/serve/src/lib.rs`):
//!
//! * **No torn reads, ever.** A reader that recomputes the tree fingerprint
//!   of any snapshot it observes — *while commits are racing* — must get the
//!   snapshot's own capture-time fingerprint, and that fingerprint must
//!   appear in the server's epoch log. Readers here check every single
//!   observation (the `ConcurrentScenarioRunner` amortizes the check over
//!   epoch changes; this suite does not).
//! * **Group commit.** Concurrent submissions queued before a commit are
//!   absorbed into one `apply_batch` epoch, not one epoch each.
//! * **Serving equivalence.** Replaying a trace through the server (writer
//!   group-committing the recorded batches) leaves exactly the tree a
//!   single-threaded `ScenarioRunner` replay leaves, for every backend.
//! * **Unchanged trees are shared, not copied.** A commit that leaves the
//!   parent array as it was publishes its epoch on the previous epoch's
//!   arrays (the same allocation) and fingerprint; a commit that moves the
//!   tree publishes fresh copies, and every held epoch still recomputes to
//!   its logged fingerprint.
//! * **Migration atomicity.** A `PartitionedRouter` cross-shard component
//!   migration — which tears a component out of one shard's maintainer and
//!   resumes another shard's from the merged state — must be invisible to
//!   concurrent readers: every observed view recomputes to its own
//!   fingerprint and appears in the router's epoch log, even while
//!   migrations race underneath.
//!
//! The CI `serve-stress` job runs this suite under `PARDFS_THREADS=1,4`, so
//! the reader/writer interleavings race against both a serial and a genuinely
//! parallel maintainer underneath.

use pardfs::graph::updates::{random_update_sequence, UpdateMix};
use pardfs::graph::{generators, Update};
use pardfs::scenario::ScenarioRunner;
use pardfs::{Backend, ConcurrentScenarioRunner, ForestQuery, MaintainerBuilder, Scenario, Server};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};

/// Seeded update sequence, valid when applied in order to `graph`.
fn update_sequence(graph: &pardfs::Graph, updates: usize, seed: u64) -> Vec<Update> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    random_update_sequence(graph, updates, &UpdateMix::default(), &mut rng)
}

#[test]
fn four_readers_mid_commit_never_observe_a_torn_snapshot() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E21);
    let graph = generators::random_connected_gnm(128, 384, &mut rng);
    let updates = update_sequence(&graph, 60, 0x5E22);

    let mut server = Server::new(MaintainerBuilder::new(Backend::Parallel).build(&graph));
    let write_handle = server.write_handle();
    let done = AtomicBool::new(false);

    let tallies: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let handle = server.read_handle();
                let done = &done;
                scope.spawn(move || {
                    // Check EVERY observation, not just epoch changes: a torn
                    // publish that heals before the next epoch would slip an
                    // amortized census.
                    let mut observations = 0u64;
                    let mut torn = 0u64;
                    let mut last_epoch = 0u64;
                    loop {
                        let snap = handle.snapshot();
                        assert!(
                            snap.epoch() >= last_epoch,
                            "published epoch moved backwards"
                        );
                        last_epoch = snap.epoch();
                        let recomputed = snap.recompute_fingerprint();
                        if recomputed != snap.fingerprint()
                            || handle.recorded_fingerprint(snap.epoch()) != Some(recomputed)
                        {
                            torn += 1;
                        }
                        observations += 1;
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                    }
                    (observations, torn)
                })
            })
            .collect();

        // The writer commits one small epoch per chunk while the readers
        // hammer the published pointer.
        for chunk in updates.chunks(3) {
            write_handle.submit(chunk.to_vec());
            server
                .commit()
                .expect("the chunk submitted above is queued");
        }
        done.store(true, Ordering::Release);
        readers
            .into_iter()
            .map(|r| r.join().expect("reader panicked"))
            .collect()
    });

    let observations: u64 = tallies.iter().map(|t| t.0).sum();
    let torn: u64 = tallies.iter().map(|t| t.1).sum();
    assert!(observations >= 4, "every reader observed at least once");
    assert_eq!(torn, 0, "torn snapshots across {observations} observations");
    // The writer committed every chunk: epoch 0 plus one record per chunk.
    assert_eq!(server.epochs().len(), 1 + updates.chunks(3).count());
    server.maintainer().check().expect("final tree stays valid");
}

#[test]
fn group_commit_absorbs_concurrent_submissions_into_one_epoch() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E23);
    let graph = generators::random_connected_gnm(96, 288, &mut rng);
    let updates = update_sequence(&graph, 10, 0x5E24);

    let mut server = Server::new(MaintainerBuilder::new(Backend::Sequential).build(&graph));
    // Five writers enqueue one batch each before anything commits…
    std::thread::scope(|scope| {
        for chunk in updates.chunks(2) {
            let writer = server.write_handle();
            scope.spawn(move || writer.submit(chunk.to_vec()));
        }
    });
    // …and one commit drains them all into a single epoch.
    let stats = server.commit().expect("five batches queued");
    assert_eq!(stats.record.epoch, 1);
    assert_eq!(stats.record.submissions, 5);
    assert_eq!(stats.record.updates, updates.len());
    assert_eq!(stats.report.applied(), updates.len());
    assert!(server.commit().is_none(), "queue fully drained");
    assert_eq!(server.epochs().len(), 2, "epoch 0 + the group commit");
}

#[test]
fn an_epoch_whose_tree_did_not_move_shares_its_predecessors_arrays() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E29);
    let graph = generators::random_connected_gnm(512, 2048, &mut rng);
    let updates = random_update_sequence(&graph, 200, &UpdateMix::edges_only(), &mut rng);
    for backend in [Backend::Parallel, Backend::Sequential] {
        let mut server = Server::new(MaintainerBuilder::new(backend).build(&graph));
        let reader = server.read_handle();
        let writer = server.write_handle();
        // Holding every epoch keeps each allocation alive, so two epochs
        // share a pointer only if the second really reuses the first's array.
        let mut held = vec![reader.snapshot()];
        let (mut shared, mut copied) = (0, 0);
        for update in &updates {
            writer.submit(vec![update.clone()]);
            let stats = server.commit().expect("one submission queued");
            let snap = reader.snapshot();
            let last = held.last().expect("epoch 0 is held");
            let epoch = snap.epoch();
            let live = server.maintainer().tree();
            assert_eq!(
                snap.parent_slice(),
                live.parent_slice(),
                "{backend:?} {epoch}"
            );
            assert_eq!(
                snap.fingerprint(),
                live.fingerprint(),
                "{backend:?} {epoch}"
            );
            assert_eq!(snap.fingerprint(), stats.record.fingerprint);
            let unmoved = snap.parent_slice() == last.parent_slice();
            assert_eq!(
                snap.parent_slice().as_ptr() == last.parent_slice().as_ptr(),
                unmoved,
                "{backend:?} epoch {epoch}: the parent array is shared iff it did not change"
            );
            if unmoved {
                assert_eq!(
                    Some(snap.fingerprint()),
                    reader.recorded_fingerprint(last.epoch()),
                    "{backend:?} epoch {epoch}: a shared epoch keeps its predecessor's fingerprint"
                );
                shared += 1;
            } else {
                copied += 1;
            }
            held.push(snap);
        }
        for snap in &held {
            assert_eq!(
                Some(snap.recompute_fingerprint()),
                reader.recorded_fingerprint(snap.epoch()),
                "{backend:?} epoch {}",
                snap.epoch()
            );
        }
        assert!(
            shared > 0 && copied > 0,
            "{backend:?}: {shared} shared and {copied} copied epochs"
        );
    }
}

#[test]
fn serving_a_trace_matches_the_single_threaded_replay_on_every_backend() {
    let trace = Scenario::ReadMostly.record(64, 0x5E25);
    for backend in Backend::all_default() {
        // Single-threaded reference replay of the same trace.
        let mut reference = MaintainerBuilder::new(backend).build(&trace.initial_graph());
        let outcome = ScenarioRunner::new(&trace).run(reference.as_mut());

        let dfs = MaintainerBuilder::new(backend).build(&trace.initial_graph());
        let (_, served) = ConcurrentScenarioRunner::new(&trace, 4).run(Server::new(dfs));
        assert_eq!(served.torn_snapshots, 0, "{backend:?}: torn snapshot");
        assert_eq!(
            served.final_fingerprint, outcome.tree_fingerprint,
            "{backend:?}: served final tree diverged from the single-threaded replay"
        );
        assert_eq!(
            served.updates_applied,
            outcome.updates_applied(),
            "{backend:?}: served replay dropped updates"
        );
        assert!(
            served.queries_answered > 0 && served.reader_passes >= 4,
            "{backend:?}: every reader completes at least one pass"
        );
        // One group-commit epoch per recorded update batch, plus epoch 0.
        let update_batches = trace
            .phases
            .iter()
            .flat_map(|p| &p.batches)
            .filter(|b| matches!(b, pardfs::scenario::TraceBatch::Updates(_)))
            .count();
        assert_eq!(served.epochs.len(), 1 + update_batches, "{backend:?}");
    }
}

#[test]
fn migrations_under_concurrent_readers_never_tear_a_view() {
    // Two disjoint 48-vertex clusters on two shards; the writer repeatedly
    // bridges them (cross-shard merge ⇒ migration), churns, and cuts the
    // bridge again, while four readers validate every observed view.
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E28);
    let cs = 48u32;
    let mut graph = pardfs::Graph::new(2 * cs as usize);
    for half in 0..2u32 {
        let cluster = generators::random_connected_gnm(cs as usize, 3 * cs as usize, &mut rng);
        for e in cluster.edges() {
            graph.insert_edge(half * cs + e.0, half * cs + e.1);
        }
    }
    let mut batches: Vec<Vec<Update>> = Vec::new();
    for wave in 0..12u32 {
        // Fresh singletons land round-robin on shard `id mod 2`; attaching
        // each to the cluster the *other* shard owns (ids alternate parity)
        // makes every attach batch a cross-shard merge ⇒ one migration per
        // wave racing the readers. (The clusters themselves never move:
        // the 48-vertex component always beats the singleton.)
        let new_id = 2 * cs + wave;
        let target = if new_id.is_multiple_of(2) {
            cs + wave
        } else {
            wave
        };
        batches.push(vec![Update::InsertVertex { edges: vec![] }]);
        batches.push(vec![Update::InsertEdge(new_id, target)]);
    }
    // Finish with a whole-cluster migration: bridging the two (now
    // singleton-augmented, equal-sized) clusters ties on size, so the
    // smaller component id — cluster 0 — wins and cluster 1 moves wholesale.
    batches.push(vec![Update::InsertEdge(0, cs)]);

    let mut router = MaintainerBuilder::new(Backend::Parallel).serve_partitioned(&graph, 2);
    assert_eq!(router.ownership().counts(), vec![cs as usize, cs as usize]);
    let read_handle = router.read_handle();
    let done = AtomicBool::new(false);

    let tallies: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let handle = read_handle.clone();
                let done = &done;
                scope.spawn(move || {
                    // Check EVERY observation (the workload runner amortizes
                    // over epoch changes; this suite does not).
                    let mut observations = 0u64;
                    let mut torn = 0u64;
                    let mut last_epoch = 0u64;
                    loop {
                        let view = handle.view();
                        assert!(
                            view.epoch() >= last_epoch,
                            "published epoch moved backwards"
                        );
                        last_epoch = view.epoch();
                        let recomputed = view.recompute_fingerprint();
                        if recomputed != view.fingerprint()
                            || handle.recorded_fingerprint(view.epoch()) != Some(recomputed)
                        {
                            torn += 1;
                        }
                        observations += 1;
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                    }
                    (observations, torn)
                })
            })
            .collect();

        for batch in &batches {
            router.commit(batch).expect("stress batches are non-empty");
        }
        done.store(true, Ordering::Release);
        readers
            .into_iter()
            .map(|r| r.join().expect("reader panicked"))
            .collect()
    });

    let observations: u64 = tallies.iter().map(|t| t.0).sum();
    let torn: u64 = tallies.iter().map(|t| t.1).sum();
    assert!(observations >= 4, "every reader observed at least once");
    assert_eq!(torn, 0, "torn views across {observations} observations");
    assert_eq!(
        router.stats().migrations,
        13,
        "one migration per singleton wave plus the final cluster merge"
    );
    assert_eq!(read_handle.epochs().len(), 1 + batches.len());
    // Post-storm: both shards hold valid trees and the assembled forest is
    // one component on shard 0 (cluster 0 won the final tie).
    for server in router.servers() {
        server.maintainer().check().expect("shard tree stays valid");
    }
    let view = read_handle.view();
    assert!(view.same_component(0, cs), "everything merged at the end");
    assert_eq!(view.num_vertices(), 2 * cs as usize + 12);
    assert_eq!(router.ownership().counts(), vec![2 * cs as usize + 12, 0]);
}
