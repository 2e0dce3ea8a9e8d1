//! The workloads, and the seeded inputs a run feeds the program: the initial
//! graph, the commit stream and the reader's query stream. All of it is
//! generated from the workload and the seed alone, before set-up and
//! outside every timed window.

use pardfs::graph::generators::random_connected_gnm;
use pardfs::graph::updates::{random_update_sequence, UpdateMix};
use pardfs::{Graph, Update, Vertex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Vertex pairs in the reader's query ring; readers cycle through it.
pub const QUERY_RING: usize = 1 << 16;

/// One workload: what is served and how it is driven.
pub struct Spec {
    /// The `--workload` name.
    pub name: &'static str,
    /// User vertices of the initial graph.
    pub n: usize,
    /// Edges of the initial graph (a random connected `G(n, m)`).
    pub m: usize,
    /// `UpdateMix::edges_only()` when set, else `UpdateMix::default()`
    /// (80 % edge, 20 % vertex updates).
    pub edges_only: bool,
    /// Updates per commit, submitted as one batch.
    pub batch: usize,
    /// Commits per round; each round serves a freshly drawn graph.
    pub commits: usize,
    /// Roughly how long one round takes on a 2-core host. A run serves
    /// `--seconds / round_secs` rounds, so a run's work depends on its
    /// arguments alone, never on how fast the program is.
    pub round_secs: f64,
    /// A closed-loop reader runs beside the writer.
    pub reader: bool,
    /// The server logs every commit under the default `DurabilityConfig`.
    pub durable: bool,
}

/// The benchmark's workloads; `BENCHMARK.json` says why each was chosen.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "edge-churn",
        n: 4096,
        m: 4 * 4096,
        edges_only: true,
        batch: 1,
        commits: 125,
        round_secs: 1.3,
        reader: false,
        durable: false,
    },
    Spec {
        name: "edge-churn-reads",
        n: 4096,
        m: 4 * 4096,
        edges_only: true,
        batch: 1,
        commits: 125,
        round_secs: 1.15,
        reader: true,
        durable: false,
    },
    // 409 commits = 51 checkpoints of 8 epochs plus a one-record WAL tail,
    // so recovery replays the log and not only a checkpoint (a longer tail
    // replays several random reroots, and a recovery's time then swings
    // between 1 and 40 ms with the draw), and D's overlay passes its
    // rebuild threshold (about 512 records) once per round.
    Spec {
        name: "mixed-durable",
        n: 1024,
        m: 4 * 1024,
        edges_only: false,
        batch: 1,
        commits: 409,
        round_secs: 2.1,
        reader: false,
        durable: true,
    },
];

impl Spec {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|spec| spec.name == name)
    }
}

/// Everything a run feeds the program.
pub struct Inputs {
    /// The initial user graph.
    pub graph: Graph,
    /// One batch per commit, valid when applied in order to `graph`.
    pub batches: Vec<Vec<Update>>,
    /// The user ids each batch's vertex insertions must receive.
    pub inserted: Vec<Vec<Vertex>>,
    /// The reader's query ring (ids of initial vertices; some may be deleted
    /// later, which the answers must reflect).
    pub pairs: Vec<(Vertex, Vertex)>,
}

/// Generate the inputs of `spec` from `seed`.
pub fn generate(spec: &Spec, seed: u64) -> Result<Inputs, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = random_connected_gnm(spec.n, spec.m, &mut rng);
    let mix = if spec.edges_only {
        UpdateMix::edges_only()
    } else {
        UpdateMix::default()
    };
    let total = spec.batch * spec.commits;
    let updates = random_update_sequence(&graph, total, &mix, &mut rng);
    if updates.len() != total {
        return Err(format!(
            "{}: the generator produced {} of {total} updates",
            spec.name,
            updates.len()
        ));
    }
    let batches: Vec<Vec<Update>> = updates.chunks(spec.batch).map(<[_]>::to_vec).collect();
    let mut scratch = graph.clone();
    let inserted = batches
        .iter()
        .map(|batch| batch.iter().filter_map(|u| scratch.apply(u)).collect())
        .collect();
    let n = spec.n as Vertex;
    let pairs = (0..QUERY_RING)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    Ok(Inputs {
        graph,
        batches,
        inserted,
        pairs,
    })
}
