//! Serving tour: replay the checked-in read-mostly corpus trace through the
//! epoch-snapshot serving layer — four concurrent readers against a
//! group-committing writer — then route the same trace through a sharded
//! replica group.
//!
//! ```text
//! cargo run --release --example serve_tour
//! ```
//!
//! The first half drives the [`ConcurrentScenarioRunner`]: one writer turns
//! every recorded update batch into one group-commit epoch while four reader
//! threads replay the trace's query batches against live snapshots, keeping
//! a torn-read census. It prints the server's epoch log (commit sizes,
//! post-commit graph, per-epoch tree fingerprints) and the aggregate read
//! throughput. The second half commits the same batches through a 3-shard
//! [`ShardRouter`] and shows the v1 routing rules: replicated writes land
//! every shard on the same tree, reads route by component affinity.

use pardfs::scenario::TraceBatch;
use pardfs::{Backend, ConcurrentScenarioRunner, MaintainerBuilder, Server, Trace};

fn main() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus/read-mostly_n64_s1005.trace"
    );
    let text = std::fs::read_to_string(path).expect("read the corpus trace");
    let trace = Trace::parse(&text).expect("corpus trace parses");
    println!(
        "serving `{}` (seed {}): {} initial vertices, {} edges, {} updates, {} queries",
        trace.scenario,
        trace.seed,
        trace.n,
        trace.m(),
        trace.num_updates(),
        trace.num_queries()
    );

    // --- One server, four readers -----------------------------------------
    let readers = 4;
    let dfs = MaintainerBuilder::new(Backend::Parallel).build(&trace.initial_graph());
    let (_, outcome) = ConcurrentScenarioRunner::new(&trace, readers).run(Server::new(dfs));
    assert_eq!(outcome.torn_snapshots, 0, "a reader saw a torn snapshot");

    println!(
        "\nepoch log of the [{}] server ({} readers racing the commits):",
        outcome.backend, outcome.readers
    );
    println!(
        "  {:>5} {:>7} {:>11} {:>9} {:>7} {:>7}  tree fingerprint",
        "epoch", "updates", "submissions", "µs", "|V|", "|E|"
    );
    for e in &outcome.epochs {
        println!(
            "  {:>5} {:>7} {:>11} {:>9} {:>7} {:>7}  {:016x}",
            e.epoch, e.updates, e.submissions, e.micros, e.num_vertices, e.num_edges, e.fingerprint
        );
    }
    println!(
        "\n{} queries answered by {} readers in {} full passes over {:.1} ms of serving:",
        outcome.queries_answered,
        outcome.readers,
        outcome.reader_passes,
        outcome.wall_micros as f64 / 1e3
    );
    println!(
        "  {:.0} queries/sec aggregate, {} torn snapshots, final tree {:016x}",
        outcome.queries_per_sec(),
        outcome.torn_snapshots,
        outcome.final_fingerprint
    );

    // --- The same batches through a 3-shard replica group ------------------
    let graph = trace.initial_graph();
    let mut router = MaintainerBuilder::new(Backend::Parallel)
        .shards(3)
        .serve(&graph);
    println!(
        "\nbroadcast-committing the same batches through {} shards:",
        router.num_shards()
    );
    let mut epochs = 0u64;
    for batch in trace.phases.iter().flat_map(|p| &p.batches) {
        let TraceBatch::Updates(updates) = batch else {
            continue;
        };
        let commits = router.commit(updates);
        epochs += 1;
        let first = &commits[0].record;
        assert!(
            commits
                .iter()
                .all(|c| c.record.fingerprint == first.fingerprint),
            "replicated shards must agree"
        );
        println!(
            "  epoch {:>2}: {:>3} updates × {} shards -> tree {:016x} on every shard",
            first.epoch,
            first.updates,
            commits.len(),
            first.fingerprint
        );
    }
    let reference = router.read_handle(0).snapshot();
    let sample: Vec<_> = (0..6).map(|v| (v, router.shard_for(v))).collect();
    println!("  after {epochs} epochs: component-affinity routing of vertices 0..6 -> {sample:?}");
    assert_eq!(
        reference.fingerprint(),
        outcome.final_fingerprint,
        "the sharded replay lands on the single-server tree"
    );
    println!(
        "  shard 0 final tree {:016x} == concurrent replay's final tree (replicas are exact)",
        reference.fingerprint()
    );
}
