//! Quickstart: maintain a DFS forest of a changing graph.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a random sparse graph, selects a backend through the
//! `MaintainerBuilder`, applies a mixed stream of edge and vertex updates,
//! and after every update prints a one-line summary of what the maintainer
//! did (how many subtrees were rerooted, how many query sets it took), and
//! checks after every update that the tree is still a valid DFS tree.
//!
//! Change `Backend::Parallel` to `Backend::Sequential`, `Backend::Streaming`,
//! `Backend::Congest { bandwidth: 8 }` or `Backend::FaultTolerant` — the rest
//! of the program is identical: that is the point of the unified
//! `DfsMaintainer` surface.

use pardfs::graph::generators;
use pardfs::graph::updates::{random_update_sequence, UpdateMix};
use pardfs::{Backend, MaintainerBuilder, Strategy};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let n = 2_000;
    let m = 8_000;
    let graph = generators::random_connected_gnm(n, m, &mut rng);
    println!("initial graph: {n} vertices, {m} edges");

    let mut dfs = MaintainerBuilder::new(Backend::Parallel)
        .strategy(Strategy::Phased)
        .build(&graph);
    println!(
        "initial DFS forest built with the {} backend: {} component root(s)",
        dfs.backend_name(),
        dfs.forest_roots().len()
    );
    // The executor is genuinely parallel; the worker count comes from
    // `PARDFS_THREADS` (or the machine), or from the pool of a caller's own
    // `rayon::ThreadPool::install`.
    println!(
        "parallel sections run on {} worker thread(s)\n",
        rayon::current_num_threads()
    );

    let updates = random_update_sequence(&graph, 25, &UpdateMix::default(), &mut rng);
    for (i, update) in updates.iter().enumerate() {
        dfs.apply_update(update);
        // Panic loudly if the tree breaks.
        dfs.check()
            .unwrap_or_else(|e| panic!("update {i} broke the DFS tree: {e}"));
        let report = dfs.stats();
        println!(
            "update {i:>2} {:<14} jobs={} query_sets={} relinked={} components={}",
            format!("{:?}", update.kind()),
            report.engine.reroot_jobs,
            report.total_query_sets(),
            report.relinked_vertices(),
            dfs.forest_roots().len(),
        );
    }

    println!(
        "\nfinal graph: {} vertices, {} edges, {} component(s)",
        dfs.num_vertices(),
        dfs.num_edges(),
        dfs.forest_roots().len()
    );

    // The index-maintenance census: how many updates were absorbed by
    // splicing a TreePatch into the tree index versus rebuilding it (vertex
    // churn always rebuilds; oversized regions fall back per the policy).
    let idx = *dfs.stats().index_maintenance();
    println!(
        "tree index: {} patches spliced ({} vertices touched), {} full rebuilds \
         ({} of them fallbacks) — {:.0}% of updates delta-patched",
        idx.patches_applied,
        idx.vertices_touched,
        idx.full_rebuilds,
        idx.fallback_rebuilds,
        idx.patch_rate() * 100.0,
    );
    println!("every update was absorbed without recomputing the DFS tree from scratch.");
}
