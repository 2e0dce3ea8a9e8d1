//! Serving tour: replay the checked-in read-mostly corpus trace through the
//! epoch-snapshot serving layer — four concurrent readers against a
//! group-committing writer.
//!
//! ```text
//! cargo run --release --example serve_tour
//! ```
//!
//! The tour drives the [`ConcurrentScenarioRunner`]: one writer turns every
//! recorded update batch into one group-commit epoch while four reader
//! threads replay the trace's query batches against live snapshots, keeping
//! a torn-read census. It prints the server's epoch log (commit sizes,
//! post-commit graph, per-epoch tree fingerprints) and the aggregate read
//! throughput. `shard_tour` routes a trace through partitioned shards.

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
}
