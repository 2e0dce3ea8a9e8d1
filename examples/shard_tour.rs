//! Sharding tour: replay the checked-in partition-storm corpus trace through
//! a [`PartitionedRouter`], which routes each update to the shard that owns
//! its component and migrates state when a cross-shard edge merges two
//! components (normative spec: `docs/SHARDING.md`).
//!
//! ```text
//! cargo run --release --example shard_tour
//! ```
//!
//! The partition-storm trace starts from disjoint clusters and bridges them
//! in waves, so the partitioned run is forced through the full merge
//! machinery: component extraction on the losing shard, byte-exact state
//! transfer, resume on the winner. The tour prints the routed epoch log
//! (updates routed, id-allocation echoes, migrations), the per-shard
//! ownership census, and the write amplification against full copies of the
//! forest (each applies the whole stream) — ending with the determinism
//! check: the partitioned and the unsharded replay land on the same forest
//! fingerprint.

use pardfs::scenario::TraceBatch;
use pardfs::{Backend, MaintainerBuilder, Trace};

fn main() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus/partition-storm_n64_s1006.trace"
    );
    let text = std::fs::read_to_string(path).expect("read the corpus trace");
    let trace = Trace::parse(&text).expect("corpus trace parses");
    println!(
        "sharding `{}` (seed {}): {} initial vertices, {} edges, {} updates",
        trace.scenario,
        trace.seed,
        trace.n,
        trace.m(),
        trace.num_updates(),
    );
    let graph = trace.initial_graph();
    let batches: Vec<&Vec<_>> = trace
        .phases
        .iter()
        .flat_map(|p| &p.batches)
        .filter_map(|b| match b {
            TraceBatch::Updates(us) => Some(us),
            TraceBatch::Queries(_) => None,
        })
        .collect();

    // --- Unsharded reference ------------------------------------------------
    let mut reference = MaintainerBuilder::new(Backend::Parallel).build(&graph);
    for batch in &batches {
        reference.apply_batch(batch);
    }
    let reference_fingerprint = reference.tree().fingerprint();
    println!("unsharded replay final forest: {reference_fingerprint:016x}");

    // --- Partitioned: routed commits, merge migrations ----------------------
    let k = 2;
    let mut router = MaintainerBuilder::new(Backend::Parallel).serve_partitioned(&graph, k);
    println!(
        "\nrouting the same batches through {} partitioned shards (initial ownership {:?}):",
        router.num_shards(),
        router.ownership().counts()
    );
    println!(
        "  {:>5} {:>7} {:>7} {:>7} {:>6} {:>6}  assembled forest",
        "epoch", "updates", "routed", "echoes", "migr", "moved"
    );
    for batch in &batches {
        let record = router.commit(batch).expect("corpus batches are non-empty");
        println!(
            "  {:>5} {:>7} {:>7} {:>7} {:>6} {:>6}  {:016x}",
            record.epoch,
            record.updates,
            record.routed,
            record.echoes,
            record.migrations,
            record.migrated_vertices,
            record.fingerprint
        );
    }
    let stats = router.stats().clone();
    println!(
        "  final ownership {:?}, {} migrations moved {} vertices across shards",
        router.ownership().counts(),
        stats.migrations,
        stats.migrated_vertices
    );
    let view = router.read_handle().view();
    assert_eq!(view.recompute_fingerprint(), view.fingerprint());
    assert_eq!(
        view.fingerprint(),
        reference_fingerprint,
        "partitioned replay must land on the unsharded forest"
    );

    // --- Write amplification -----------------------------------------------
    let total = trace.num_updates() as u64;
    println!(
        "\nwrite amplification over {} distinct updates at k = {k}:",
        total
    );
    println!(
        "  {k} full copies: {total} applied per copy ({} total, {k}.00x)",
        total * k as u64
    );
    println!(
        "  partitioned:   {} applied on the busiest shard, {:?} per shard \
         ({} total incl. echoes, {:.2}x)",
        stats.max_applied_per_shard(),
        stats.applied_per_shard,
        stats.total_applied(),
        stats.total_applied() as f64 / total as f64
    );
    println!(
        "\nboth replays agree on the final forest {reference_fingerprint:016x} — \
         routing is an implementation detail, the forest is the contract"
    );
}
