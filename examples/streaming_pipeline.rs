//! Semi-streaming dynamic DFS (Theorem 15): maintain a DFS forest of a graph
//! that only exists as an edge stream, with O(n) local memory.
//!
//! ```text
//! cargo run --release --example streaming_pipeline
//! ```
//!
//! The scenario mimics a log-processing pipeline: the edge set lives in an
//! external store that can only be scanned front-to-back (a "pass"), while the
//! service keeps just the DFS forest in RAM. The maintainer is built through
//! the unified builder (`Backend::Streaming`); the per-update `StatsReport`
//! exposes both the engine view (model passes = query sets) and the
//! stream-access view (raw passes, edges scanned) of the same update, and the
//! example checks the count stays within the `O(log^2 n)` envelope of the
//! paper.

use pardfs::graph::generators;
use pardfs::graph::updates::{random_update_sequence, UpdateMix};
use pardfs::{DfsMaintainer, StreamingDfsExt, StreamingDynamicDfs};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let n = 3_000;
    let m = 12_000;
    let graph = generators::random_connected_gnm(n, m, &mut rng);
    // Concrete construction: `resident_words` is a streaming-model quantity
    // that has no place on the backend-agnostic trait. Everything else below
    // goes through the unified `DfsMaintainer` surface.
    let mut s = StreamingDynamicDfs::new(&graph);
    println!(
        "stream: {n} vertices, {m} edges; resident state: {} words (O(n))\n",
        s.resident_words()
    );

    let updates = random_update_sequence(&graph, 20, &UpdateMix::default(), &mut rng);
    let log2n = (n as f64).log2();
    let envelope = log2n * log2n;

    println!(
        "{:<4} {:<14} {:>14} {:>14} {:>14} {:>12}",
        "#", "update", "model passes", "raw batches", "edges scanned", "envelope"
    );
    let mut total_passes = 0u64;
    let mut total_edges = 0u64;
    for (i, u) in updates.iter().enumerate() {
        s.apply_update(u);
        s.check().expect("streamed DFS forest must stay valid");
        let report = s.stats();
        let stream = *report
            .stream()
            .expect("streaming backend reports stream stats");
        total_passes += stream.passes;
        total_edges += stream.edges_scanned;
        println!(
            "{:<4} {:<14} {:>14} {:>14} {:>14} {:>12.0}",
            i,
            format!("{:?}", u.kind()),
            report.total_query_sets(),
            stream.passes,
            stream.edges_scanned,
            envelope
        );
        assert!(
            (report.total_query_sets() as f64) < 20.0 * envelope,
            "pass count escaped the O(log^2 n) envelope"
        );
    }

    println!(
        "\ntotals: {total_passes} passes, {total_edges} edges scanned (budget O(n) = {n} resident words)",
    );
}
