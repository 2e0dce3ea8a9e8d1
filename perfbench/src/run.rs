//! One benchmark run: seeded inputs, timed set-ups, closed-loop rounds of
//! the workload's commit stream, output checks, and a timed restart.
//!
//! A round serves the workload from a fresh set-up: the writer submits each
//! batch through `WriteHandle::submit` and waits for `Server::commit` to
//! publish it; a reader, when the workload has one, loops on
//! `ReadHandle::snapshot` plus a fixed batch of queries beside it. Workloads
//! without a concurrent reader read the final state after the writer, so
//! every workload reports the read metrics. The round then checks every
//! output and times `MaintainerBuilder::recover` on the round's directory;
//! an in-memory server is made durable after its last commit (untimed) so
//! its final state can be restarted too. Each round draws its own inputs
//! from the run's seed, so a run pools several independent graphs and
//! update streams. The number of rounds follows from `--seconds` and the
//! workload alone (at least enough for 1000 epochs), so the same arguments
//! always give the same work.

use crate::check::{self, ReadSample, Replay};
use crate::inputs::{self, Inputs, Spec, QUERY_RING};
use crate::metrics::{peak_rss_mib, MetricDef, Report, Value, END_TO_END, PER_LAYER};
use crate::stats::{median, quantile, Reservoir};
use crate::trace::{ApplyClock, Timed, Tracer};
use pardfs::{
    Backend, CheckpointPolicy, DurabilityConfig, ForestQuery, MaintainerBuilder, ReadHandle,
    Server, Vertex,
};
use std::cell::Cell;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups timed before the first round, so `setup_s` is a median of
/// several even when one round fills the window.
const EXTRA_SETUPS: usize = 6;
/// Recoveries timed per round, on the directory the round leaves behind.
const RECOVERIES: usize = 8;
/// Read requests after the writer on workloads without a concurrent reader.
const READ_PHASE_REQUESTS: u64 = 16_384;
/// Epochs a run commits at least, so `commit_p99_ms` has ten beyond it.
const MIN_EPOCHS: usize = 1000;
/// A run that has spent this many times its expected time (rounds times
/// `round_secs`) stops with an error, so a much slower program still ends
/// within the time its caller allows.
const OVERRUN: f64 = 5.0;
/// A concurrent reader completes at least this many requests.
const MIN_CONCURRENT_READS: u64 = 64;
/// `same_component` queries per read request.
const REQ_SAME: usize = 64;
/// `forest_parent` queries per read request; one `forest_roots` follows.
const REQ_PARENT: usize = 63;
/// Queries per read request.
pub const REQ_QUERIES: u64 = (REQ_SAME + REQ_PARENT + 1) as u64;
/// Read latencies kept per round (a uniform sample of all of them).
const LATENCY_SAMPLE: usize = 1 << 16;
/// Read requests whose answers are kept for checking, at most; the stride
/// between kept requests doubles whenever the cap is reached.
const MAX_READ_SAMPLES: usize = 2048;
/// Read requests whose spans a traced run keeps, at most (every 16th).
const MAX_READ_SPANS: usize = 16_384;

// A request's pairs never wrap around the ring.
const _: () = assert!(QUERY_RING.is_multiple_of(REQ_QUERIES as usize));

/// Faults a self-test injects.
#[derive(Debug, Default, Clone, Copy)]
pub struct Hooks {
    /// Negate the first `same_component` answer of each reader's first
    /// request, as a broken read path would.
    pub flip_one_answer: bool,
}

/// What every round of a run shares.
struct Ctx<'a> {
    spec: &'a Spec,
    seed: u64,
    builder: MaintainerBuilder,
    dir: PathBuf,
    hooks: Hooks,
    dirs_made: Cell<usize>,
}

impl<'a> Ctx<'a> {
    fn new(spec: &'a Spec, seed: u64, out: &Path, hooks: Hooks) -> Result<Self, String> {
        let dir = out.join(format!("run-{}-{seed}-{}", spec.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Ctx {
            spec,
            seed,
            builder: MaintainerBuilder::new(Backend::Parallel),
            dir,
            hooks,
            dirs_made: Cell::new(0),
        })
    }

    /// The inputs of round `k`, drawn from the run's seed (round 0 uses the
    /// seed itself).
    fn inputs(&self, k: u64) -> Result<Inputs, String> {
        let seed = self
            .seed
            .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        inputs::generate(self.spec, seed)
    }

    /// A fresh durability directory (not created yet).
    fn fresh_dir(&self) -> PathBuf {
        let k = self.dirs_made.get();
        self.dirs_made.set(k + 1);
        self.dir.join(format!("server-{k}"))
    }
}

impl Drop for Ctx<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What the rounds of a run measured.
struct Tally {
    setup_s: Vec<f64>,
    commit_ms: Vec<f64>,
    writer_s: f64,
    /// Each round's median and 99th-percentile read latency: the run
    /// reports the median round, so a stall of the host during a few rounds
    /// does not move it.
    read_p50_us: Vec<f64>,
    read_p99_us: Vec<f64>,
    read_requests: u64,
    read_queries: u64,
    read_s: f64,
    recover_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            setup_s: Vec::new(),
            commit_ms: Vec::new(),
            writer_s: 0.0,
            read_p50_us: Vec::new(),
            read_p99_us: Vec::new(),
            read_requests: 0,
            read_queries: 0,
            read_s: 0.0,
            recover_s: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn end_to_end(&self) -> Vec<Value> {
        let n = |v: &[f64]| v.len() as u64;
        vec![
            Value::new("setup_s", median(&self.setup_s), n(&self.setup_s)),
            Value::new(
                "commit_p50_ms",
                quantile(&self.commit_ms, 0.5),
                n(&self.commit_ms),
            ),
            Value::new(
                "commit_p99_ms",
                quantile(&self.commit_ms, 0.99),
                n(&self.commit_ms),
            ),
            Value::new("read_p50_us", median(&self.read_p50_us), self.read_requests),
            Value::new("read_p99_us", median(&self.read_p99_us), self.read_requests),
            Value::new(
                "reads_per_s",
                self.read_queries as f64 / self.read_s,
                self.read_queries,
            ),
            Value::new("recover_s", median(&self.recover_s), n(&self.recover_s)),
            Value::new("peak_rss_mb", peak_rss_mib(), 1),
        ]
    }

    fn into_report(self, defs: &'static [MetricDef], values: Vec<Value>) -> Report {
        let mut report = Report::new(defs, values);
        report.attempted = self.attempted;
        report.failed = self.failed;
        report.errors = self.errors;
        report
    }
}

/// An untraced run: end-to-end metrics over about `window` worth of rounds.
pub fn measured(
    spec: &Spec,
    seed: u64,
    window: Duration,
    out: &Path,
    hooks: Hooks,
) -> Result<Report, String> {
    let ctx = Ctx::new(spec, seed, out, hooks)?;
    let mut tally = Tally::new();
    let first = ctx.inputs(0)?;
    for _ in 0..EXTRA_SETUPS {
        let start = Instant::now();
        let server = setup(&ctx, &first, &ctx.fresh_dir(), None)?;
        tally.setup_s.push(start.elapsed().as_secs_f64());
        drop(server);
    }
    let rounds = ((window.as_secs_f64() / spec.round_secs).round() as usize)
        .max(MIN_EPOCHS.div_ceil(spec.commits));
    let limit = Duration::from_secs_f64(OVERRUN * rounds as f64 * spec.round_secs);
    let start = Instant::now();
    for k in 0..rounds {
        if start.elapsed() > limit {
            return Err(format!(
                "{k} of {rounds} rounds took {:.0} s, over {OVERRUN} times the expected time; \
                 the metrics of a partial run would not compare",
                start.elapsed().as_secs_f64()
            ));
        }
        round(&ctx, &ctx.inputs(k as u64)?, &mut tally, None)?;
    }
    let values = tally.end_to_end();
    let mut report = tally.into_report(END_TO_END, values);
    report.notes.push(format!(
        "{rounds} rounds of {} commits of {} update(s), each on its own graph with n = {}, m = {}; closed loop, one writer{}",
        spec.commits,
        spec.batch,
        spec.n,
        spec.m,
        if spec.reader { " and one reader" } else { "" }
    ));
    Ok(report)
}

/// A traced run: the first rounds of a run (enough for 1000 epochs) served
/// untraced as the overhead baseline, then again traced; per-layer metrics,
/// with the spans written to `out`.
pub fn traced(
    spec: &Spec,
    seed: u64,
    out: &Path,
    hooks: Hooks,
    provenance: &str,
) -> Result<Report, String> {
    let ctx = Ctx::new(spec, seed, out, hooks)?;
    let rounds = MIN_EPOCHS.div_ceil(spec.commits) as u64;
    let inputs = (0..rounds)
        .map(|k| ctx.inputs(k))
        .collect::<Result<Vec<_>, _>>()?;
    let mut base = Tally::new();
    for round_inputs in &inputs {
        round(&ctx, round_inputs, &mut base, None)?;
    }
    let mut tally = Tally::new();
    let mut tracer = Tracer::new();
    for round_inputs in &inputs {
        round(&ctx, round_inputs, &mut tally, Some(&mut tracer))?;
    }
    let overhead = tally.writer_s / base.writer_s - 1.0;
    let spans = out.join(format!("spans-{}-{seed}.jsonl", spec.name));
    let header = format!(
        "{{\"workload\": \"{}\", \"provenance\": {provenance}}}",
        spec.name
    );
    tracer.write(&spans, &header)?;
    let values = tracer.per_layer(overhead, checkpoint_every());
    tally.attempted += base.attempted;
    tally.failed += base.failed;
    tally.errors.extend(base.errors);
    let mut report = tally.into_report(PER_LAYER, values);
    report
        .notes
        .push(format!("spans written to {}", spans.display()));
    Ok(report)
}

/// The default checkpoint cadence, in epochs.
fn checkpoint_every() -> u64 {
    match DurabilityConfig::new("").policy {
        CheckpointPolicy::EveryKEpochs(k) => k,
        _ => 0,
    }
}

/// Serve the initial graph (logging to `dir` on durable workloads) and
/// publish epoch 0. Traced rounds put the timing decorator between the
/// server and the maintainer.
fn setup(
    ctx: &Ctx,
    inputs: &Inputs,
    dir: &Path,
    clock: Option<ApplyClock>,
) -> Result<Server, String> {
    let graph = &inputs.graph;
    let config = DurabilityConfig::new(dir);
    match clock {
        None if ctx.spec.durable => ctx.builder.serve_durable(graph, &config),
        None => Ok(ctx.builder.serve_single(graph)),
        Some(clock) => {
            let timed = Timed::new(ctx.builder.build(graph), clock);
            let mut server = Server::new(Box::new(timed));
            if ctx.spec.durable {
                config.attach(&mut server)?;
            }
            Ok(server)
        }
    }
}

fn round(
    ctx: &Ctx,
    inputs: &Inputs,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let dir = ctx.fresh_dir();
    let start = Instant::now();
    let mut server = setup(ctx, inputs, &dir, tracer.as_ref().map(|t| t.clock()))?;
    let end = Instant::now();
    tally.setup_s.push((end - start).as_secs_f64());
    if let Some(t) = tracer.as_deref_mut() {
        t.setup(start, end, &inputs.graph, &server);
    }
    let reader = Reader {
        pairs: &inputs.pairs,
        flip_first: ctx.hooks.flip_one_answer,
        traced: tracer.is_some(),
    };

    let handle = server.read_handle();
    let stop = AtomicBool::new(false);
    let mut latency = Reservoir::new(LATENCY_SAMPLE, ctx.seed);
    let sample = &mut latency;
    let (written, concurrent) = std::thread::scope(|s| {
        let concurrent = if ctx.spec.reader {
            let (handle, stop, reader) = (&handle, &stop, &reader);
            Some(s.spawn(move || reader.run(handle, Until::Stopped(stop), sample)))
        } else {
            None
        };
        let written = write_loop(inputs, &mut server, tracer.as_deref_mut());
        stop.store(true, Ordering::Release);
        let reads = concurrent.map(|r| r.join().expect("reader thread panicked"));
        (written, reads)
    });
    let reads = match concurrent {
        Some(reads) => reads,
        None => reader.run(&handle, Until::Requests(READ_PHASE_REQUESTS), &mut latency),
    };
    if let Some(t) = tracer.as_deref_mut() {
        t.round_end(&server);
        t.reads(&reads.spans);
    }
    tally.commit_ms.extend(&written.commit_ms);
    tally.writer_s += written.commit_ms.iter().sum::<f64>() / 1e3;
    tally.read_p50_us.push(quantile(latency.kept(), 0.5));
    tally.read_p99_us.push(quantile(latency.kept(), 0.99));
    tally.read_requests += latency.seen();
    tally.read_queries += reads.queries;
    tally.read_s += reads.window_s;

    // Checks, outside every timed window.
    let mut replay = Replay::new(inputs);
    let mut read_failures = check::unlogged(&reads.observed, &handle.epochs());
    for sample in &reads.samples {
        replay.seek(sample.epoch)?;
        if let Err(e) = check::read_sample(sample, &inputs.pairs, &replay) {
            eprintln!("perfbench: read check failed: {e}");
            read_failures += 1;
        }
    }
    replay.seek(inputs.batches.len() as u64)?;
    tally
        .errors
        .extend(check::final_state(&server, &replay, &inputs.pairs));
    tally.attempted += inputs.batches.len() as u64 + reads.requests;
    tally.failed += written.failed + read_failures.min(reads.requests);

    // Restart: recover the final state from the round's directory.
    let served = handle.snapshot();
    let (final_epoch, final_fingerprint) = (served.epoch(), served.fingerprint());
    drop(served);
    if !ctx.spec.durable {
        DurabilityConfig::new(&dir).attach(&mut server)?;
    }
    drop(server);
    let config = DurabilityConfig::new(&dir);
    let mut last = None;
    for _ in 0..RECOVERIES {
        let start = Instant::now();
        let recovered = ctx.builder.recover(&config);
        let end = Instant::now();
        tally.attempted += 1;
        match recovered {
            Ok(r)
                if r.server.maintainer().tree().fingerprint() == final_fingerprint
                    && r.stats.recovered_epoch == final_epoch =>
            {
                tally.recover_s.push((end - start).as_secs_f64());
                last = Some((start, end, r.stats));
            }
            Ok(r) => {
                eprintln!(
                    "perfbench: recovery reached epoch {} with fingerprint {:016x}; the server published epoch {final_epoch} with {final_fingerprint:016x}",
                    r.stats.recovered_epoch,
                    r.server.maintainer().tree().fingerprint()
                );
                tally.failed += 1;
            }
            Err(e) => {
                eprintln!("perfbench: recovery failed: {e}");
                tally.failed += 1;
            }
        }
    }
    if let (Some(t), Some(last)) = (tracer, last) {
        t.recovery(last, &dir, &ctx.builder)?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// What the writer measured.
struct Written {
    commit_ms: Vec<f64>,
    failed: u64,
}

/// Submit each batch and commit it, one epoch per batch.
fn write_loop(inputs: &Inputs, server: &mut Server, mut tracer: Option<&mut Tracer>) -> Written {
    let writer = server.write_handle();
    let batches = &inputs.batches;
    let mut out = Written {
        commit_ms: Vec::with_capacity(batches.len()),
        failed: 0,
    };
    for (i, batch) in batches.iter().enumerate() {
        let submission = batch.clone();
        let start = Instant::now();
        writer.submit(submission);
        let commit = server.commit();
        let end = Instant::now();
        out.commit_ms.push((end - start).as_secs_f64() * 1e3);
        let epoch = i as u64 + 1;
        let Some(commit) = commit.filter(|c| {
            c.record.epoch == epoch
                && c.record.updates == batch.len()
                && c.report.inserted == inputs.inserted[i]
        }) else {
            eprintln!("perfbench: commit of epoch {epoch} did not publish what was submitted");
            out.failed += 1;
            continue;
        };
        if let Some(t) = tracer.as_deref_mut() {
            t.commit(epoch, start, end, &commit.report, server);
        }
    }
    out
}

enum Until<'a> {
    /// Until the writer is done, and at least [`MIN_CONCURRENT_READS`].
    Stopped(&'a AtomicBool),
    /// This many requests.
    Requests(u64),
}

/// What a reader did.
#[derive(Default)]
struct Reads {
    requests: u64,
    queries: u64,
    window_s: f64,
    /// Each (epoch, fingerprint) pair used, once per epoch change.
    observed: Vec<(u64, u64)>,
    samples: Vec<ReadSample>,
    /// `[start, snapshot acquired, end]` of every 16th request (traced).
    spans: Vec<[Instant; 3]>,
}

/// A closed-loop reader: one request at a time, each a snapshot plus
/// [`REQ_QUERIES`] queries on consecutive pairs of the ring.
struct Reader<'a> {
    pairs: &'a [(Vertex, Vertex)],
    flip_first: bool,
    traced: bool,
}

impl Reader<'_> {
    fn run(&self, handle: &ReadHandle, until: Until, latency: &mut Reservoir) -> Reads {
        let mut out = Reads::default();
        let mut sink = 0u64;
        let mut stride = 64;
        let begin = Instant::now();
        loop {
            let k = out.requests;
            let done = match until {
                Until::Stopped(stop) => k >= MIN_CONCURRENT_READS && stop.load(Ordering::Acquire),
                Until::Requests(n) => k >= n,
            };
            if done {
                break;
            }
            let offset = (k * REQ_QUERIES) as usize % QUERY_RING;
            let request = &self.pairs[offset..offset + REQ_SAME + REQ_PARENT];
            let keep = k % stride == 0;
            let start = Instant::now();
            let snapshot = handle.snapshot();
            let acquired = if self.traced { Instant::now() } else { start };
            let (hash, answers) = if self.flip_first && k == 0 {
                answer(&FlipFirst::new(&*snapshot), request, keep)
            } else {
                answer(&*snapshot, request, keep)
            };
            let end = Instant::now();
            latency.push((end - start).as_secs_f64() * 1e6);
            sink = sink.wrapping_add(hash);
            out.requests += 1;
            out.queries += REQ_QUERIES;
            let epoch = snapshot.epoch();
            if out.observed.last().map(|o| o.0) != Some(epoch) {
                out.observed.push((epoch, snapshot.fingerprint()));
            }
            if let Some((same, parents, roots)) = answers {
                if out.samples.len() == MAX_READ_SAMPLES {
                    // Keep every other sample: requests at multiples of the
                    // doubled stride.
                    stride *= 2;
                    let mut position = 0;
                    out.samples.retain(|_| {
                        position += 1;
                        position % 2 == 1
                    });
                }
                out.samples.push(ReadSample {
                    epoch,
                    offset,
                    same,
                    parents,
                    roots,
                });
            }
            if self.traced && k % 16 == 0 && out.spans.len() < MAX_READ_SPANS {
                out.spans.push([start, acquired, end]);
            }
        }
        out.window_s = begin.elapsed().as_secs_f64();
        black_box(sink);
        out
    }
}

type Answers = (Vec<bool>, Vec<Option<Vertex>>, Vec<Vertex>);

/// Answer one request on `q`: `same_component` on the first [`REQ_SAME`]
/// pairs, `forest_parent` on the first vertex of the rest, then
/// `forest_roots`. Returns a hash of the answers, and the answers themselves
/// when `keep`.
fn answer<Q: ForestQuery + ?Sized>(
    q: &Q,
    request: &[(Vertex, Vertex)],
    keep: bool,
) -> (u64, Option<Answers>) {
    let (same_pairs, parent_pairs) = request.split_at(REQ_SAME);
    let mut hash = 0u64;
    let (mut same, mut parents) = (Vec::new(), Vec::new());
    for &(u, v) in same_pairs {
        let a = q.same_component(u, v);
        hash = hash.wrapping_mul(31).wrapping_add(u64::from(a));
        if keep {
            same.push(a);
        }
    }
    for &(w, _) in parent_pairs {
        let p = q.forest_parent(w);
        hash = hash
            .wrapping_mul(31)
            .wrapping_add(p.map_or(0, |p| u64::from(p) + 1));
        if keep {
            parents.push(p);
        }
    }
    let roots = q.forest_roots();
    hash = hash.wrapping_add(roots.len() as u64);
    (hash, keep.then_some((same, parents, roots)))
}

/// Self-test decorator: answers like the snapshot it wraps, except that its
/// first `same_component` answer is negated.
struct FlipFirst<'a> {
    inner: &'a dyn ForestQuery,
    flipped: AtomicBool,
}

impl<'a> FlipFirst<'a> {
    fn new(inner: &'a dyn ForestQuery) -> Self {
        FlipFirst {
            inner,
            flipped: AtomicBool::new(false),
        }
    }
}

impl ForestQuery for FlipFirst<'_> {
    fn forest_parent(&self, v: Vertex) -> Option<Vertex> {
        self.inner.forest_parent(v)
    }

    fn forest_roots(&self) -> Vec<Vertex> {
        self.inner.forest_roots()
    }

    fn same_component(&self, u: Vertex, v: Vertex) -> bool {
        let answer = self.inner.same_component(u, v);
        if self.flipped.swap(true, Ordering::Relaxed) {
            answer
        } else {
            !answer
        }
    }

    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }
}
