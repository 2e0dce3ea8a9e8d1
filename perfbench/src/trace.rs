//! The traced run's instruments: spans recorded from outside the program
//! around the public call at each layer boundary, a pass-through decorator
//! timing `DfsMaintainer::apply_batch`, and the per-layer metrics derived
//! from both. Spans stay in memory until the run writes them out.

use crate::metrics::Value;
use crate::stats::{max, mean, median, quantile, ratio};
use pardfs::api::RecoveryStats;
use pardfs::query::StructureD;
use pardfs::seq::{static_dfs, AugmentedGraph};
use pardfs::tree::TreeIndex;
use pardfs::{
    BatchReport, CheckpointView, DfsMaintainer, ForestQuery, Graph, IndexMaintenanceStats,
    MaintainerBuilder, RebuildPolicyStats, Server, Snapshot, StatsReport, Update, Vertex,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What caused a span (`setup`, `commit`, `read`, `recover`), the round it
/// belongs to, and its number in the round; a commit is numbered by its
/// epoch.
type Req = (&'static str, u64, u64);

/// One timed interval.
struct Span {
    req: Req,
    name: &'static str,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
    /// Measured elsewhere (re-timed on the same state, or reported by the
    /// program) and placed inside the parent; only the duration is measured.
    laid_out: bool,
}

/// The last `apply_batch` interval [`Timed`] measured.
pub type ApplyClock = Arc<Mutex<Option<(Instant, Instant)>>>;

/// Pass-through decorator between `Server` and the maintainer that times
/// `apply_batch`.
pub struct Timed {
    inner: Box<dyn DfsMaintainer>,
    clock: ApplyClock,
}

impl Timed {
    pub fn new(inner: Box<dyn DfsMaintainer>, clock: ApplyClock) -> Self {
        Timed { inner, clock }
    }
}

impl ForestQuery for Timed {
    fn forest_parent(&self, v: Vertex) -> Option<Vertex> {
        self.inner.forest_parent(v)
    }

    fn forest_roots(&self) -> Vec<Vertex> {
        self.inner.forest_roots()
    }

    fn same_component(&self, u: Vertex, v: Vertex) -> bool {
        self.inner.same_component(u, v)
    }

    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }
}

impl DfsMaintainer for Timed {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn apply_update(&mut self, update: &Update) -> Option<Vertex> {
        self.inner.apply_update(update)
    }

    fn apply_batch(&mut self, updates: &[Update]) -> BatchReport {
        let start = Instant::now();
        let report = self.inner.apply_batch(updates);
        let end = Instant::now();
        *self.clock.lock().expect("apply clock poisoned") = Some((start, end));
        report
    }

    fn tree(&self) -> &TreeIndex {
        self.inner.tree()
    }

    fn augmented_graph(&self) -> &Graph {
        self.inner.augmented_graph()
    }

    fn check(&self) -> Result<(), String> {
        self.inner.check()
    }

    fn stats(&self) -> StatsReport {
        self.inner.stats()
    }
}

/// Per-update numbers from the program's own `StatsReport`.
struct UpdateSample {
    reroot_ms: f64,
    maintain_ms: f64,
    query_sets: f64,
    relinked: f64,
    d_queries: f64,
    overlay: f64,
}

impl UpdateSample {
    fn of(report: &StatsReport) -> Self {
        let engine = report.engine().copied().unwrap_or_default();
        UpdateSample {
            reroot_ms: engine.reroot_micros as f64 / 1e3,
            maintain_ms: engine.rebuild_micros as f64 / 1e3,
            query_sets: report.total_query_sets() as f64,
            relinked: report.relinked_vertices() as f64,
            d_queries: engine.reroot.queries as f64,
            overlay: report
                .rebuild_policy()
                .map_or(0.0, |p| p.overlay_updates as f64),
        }
    }
}

fn counters(m: &dyn DfsMaintainer) -> (IndexMaintenanceStats, RebuildPolicyStats) {
    let stats = m.stats();
    let rebuild = stats.rebuild_policy().copied().unwrap_or_default();
    (*stats.index_maintenance(), rebuild)
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Spans and counters of the traced rounds.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    clock: ApplyClock,
    /// The round being traced (counted from 1 by [`Tracer::setup`]).
    round: u64,
    updates: Vec<UpdateSample>,
    /// Counters at the current round's set-up.
    before: (IndexMaintenanceStats, RebuildPolicyStats),
    /// What the rounds did, summed.
    index: IndexMaintenanceStats,
    d_rebuilds: u64,
    d_rebuild_micros: u64,
    /// One value per round of each metric measured once per round.
    scalars: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            clock: ApplyClock::default(),
            round: 0,
            updates: Vec::new(),
            before: Default::default(),
            index: IndexMaintenanceStats::default(),
            d_rebuilds: 0,
            d_rebuild_micros: 0,
            scalars: BTreeMap::new(),
        }
    }

    /// The clock a [`Timed`] decorator writes its `apply_batch` intervals to.
    pub fn clock(&self) -> ApplyClock {
        self.clock.clone()
    }

    fn record(
        &mut self,
        req: Req,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns: nanos(start.saturating_duration_since(self.origin)),
            dur_ns: nanos(end.saturating_duration_since(start)),
            laid_out: false,
        });
        self.spans.len() - 1
    }

    /// A child of `parent` whose duration was measured elsewhere, placed
    /// `offset_ns` into it; returns the offset where it ends.
    fn lay_out(&mut self, name: &'static str, parent: usize, offset_ns: u64, dur_ns: u64) -> u64 {
        let (req, start_ns) = (self.spans[parent].req, self.spans[parent].start_ns);
        self.spans.push(Span {
            req,
            name,
            parent: Some(parent),
            start_ns: start_ns + offset_ns,
            dur_ns,
            laid_out: true,
        });
        offset_ns + dur_ns
    }

    fn scalar(&mut self, metric: &'static str, value: f64) {
        self.scalars.entry(metric).or_default().push(value);
    }

    /// A new round's set-up span, with `static_dfs`, `TreeIndex::build` and
    /// `StructureD::build` re-timed on the same augmented graph.
    pub fn setup(&mut self, start: Instant, end: Instant, graph: &Graph, server: &Server) {
        self.round += 1;
        let setup = self.record(("setup", self.round, 0), "setup", None, start, end);
        let aug = AugmentedGraph::new(graph);
        let t0 = Instant::now();
        let rooted = black_box(static_dfs(aug.graph(), aug.pseudo_root()));
        let t1 = Instant::now();
        let index = black_box(TreeIndex::build(&rooted));
        let t2 = Instant::now();
        let base = index.clone();
        let t3 = Instant::now();
        let d = black_box(StructureD::build(aug.graph(), base));
        let t4 = Instant::now();
        drop(d);
        let mut at = 0;
        for (span, metric, took) in [
            ("seq.static_dfs", "seq.static_dfs_ms", t1 - t0),
            ("tree.build", "tree.build_ms", t2 - t1),
            ("query.d_build", "query.d_build_ms", t4 - t3),
        ] {
            at = self.lay_out(span, setup, at, nanos(took));
            self.scalar(metric, millis(took));
        }
        self.before = counters(server.maintainer());
    }

    /// One commit: `serve.commit` with child `core.apply_batch`, inside which
    /// the per-update reroot and maintenance times the program reported are
    /// laid out; then `serve.capture` re-timed on the post-commit state, with
    /// children `tree.clone` and `tree.fingerprint`.
    pub fn commit(
        &mut self,
        epoch: u64,
        start: Instant,
        end: Instant,
        report: &BatchReport,
        server: &Server,
    ) {
        let req = ("commit", self.round, epoch);
        let commit = self.record(req, "serve.commit", None, start, end);
        let applied = self.clock.lock().expect("apply clock poisoned").take();
        if let Some((a, b)) = applied {
            let apply = self.record(req, "core.apply_batch", Some(commit), a, b);
            let mut at = 0;
            for engine in report.per_update.iter().filter_map(StatsReport::engine) {
                at = self.lay_out("core.reroot", apply, at, engine.reroot_micros * 1000);
                at = self.lay_out("core.maintain", apply, at, engine.rebuild_micros * 1000);
            }
        }
        self.updates
            .extend(report.per_update.iter().map(UpdateSample::of));

        let m = server.maintainer();
        let t0 = Instant::now();
        let snapshot = black_box(Snapshot::capture(epoch, m));
        let t1 = Instant::now();
        drop(snapshot);
        let capture = self.record(req, "serve.capture", None, t0, t1);
        let t2 = Instant::now();
        let tree = black_box(m.tree().clone());
        let t3 = Instant::now();
        black_box(tree.fingerprint());
        let t4 = Instant::now();
        let at = self.lay_out("tree.clone", capture, 0, nanos(t3 - t2));
        self.lay_out("tree.fingerprint", capture, at, nanos(t4 - t3));
    }

    /// Reader requests, each `[start, snapshot acquired, end]`:
    /// `serve.read` with child `serve.acquire`.
    pub fn reads(&mut self, requests: &[[Instant; 3]]) {
        for (k, &[start, acquired, end]) in requests.iter().enumerate() {
            let req = ("read", self.round, k as u64);
            let read = self.record(req, "serve.read", None, start, end);
            self.record(req, "serve.acquire", Some(read), start, acquired);
        }
    }

    /// Counters once the round's last commit is published.
    pub fn round_end(&mut self, server: &Server) {
        let (index, rebuild) = counters(server.maintainer());
        self.index.merge(&index.since(&self.before.0));
        self.d_rebuilds += rebuild.rebuilds - self.before.1.rebuilds;
        self.d_rebuild_micros += rebuild.total_rebuild_micros - self.before.1.total_rebuild_micros;
        let words = server.maintainer().augmented_graph().adjacency_words();
        self.scalar("graph.adjacency_words", words as f64);
    }

    /// One timed recovery as `wal.recover`, with the checkpoint open and the
    /// maintainer build re-timed on the same directory, and the directory's
    /// sizes.
    pub fn recovery(
        &mut self,
        (start, end, stats): (Instant, Instant, RecoveryStats),
        dir: &Path,
        builder: &MaintainerBuilder,
    ) -> Result<(), String> {
        let recover = self.record(("recover", self.round, 0), "wal.recover", None, start, end);
        let (mut disk_bytes, mut latest) = (0u64, None);
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let len = entry.metadata().map_or(0, |m| m.len());
            disk_bytes += len;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("checkpoint-") && latest.as_ref().is_none_or(|(n, _, _)| name > *n)
            {
                latest = Some((name, entry.path(), len));
            }
        }
        let (_, path, ckpt_bytes) =
            latest.ok_or_else(|| format!("no checkpoint in {}", dir.display()))?;
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let t0 = Instant::now();
        let (graph, tree) = CheckpointView::parse(&bytes)?.materialize()?;
        let t1 = Instant::now();
        let built = black_box(builder.build_from_state(graph, tree)?);
        let t2 = Instant::now();
        drop(built);
        let at = self.lay_out("wal.recover_open", recover, 0, nanos(t1 - t0));
        self.lay_out("wal.recover_build", recover, at, nanos(t2 - t1));
        self.scalar("wal.recover_open_ms", millis(t1 - t0));
        self.scalar("wal.recover_build_ms", millis(t2 - t1));
        self.scalar("wal.replayed_records", stats.records_replayed as f64);
        self.scalar("wal.disk_bytes", disk_bytes as f64);
        self.scalar("wal.ckpt_bytes", ckpt_bytes as f64);
        Ok(())
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.start_ns + s.dur_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                let end = s.start_ns + s.dur_ns;
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns - covered
            })
            .collect()
    }

    /// The per-layer metrics. `overhead_frac` compares the traced rounds'
    /// writer time with untraced rounds'; `ckpt_every` is the checkpoint
    /// cadence in epochs. A metric measured once per round is the median of
    /// the rounds.
    pub fn per_layer(&self, overhead_frac: f64, ckpt_every: u64) -> Vec<Value> {
        let self_ns = self.self_ns();
        let mut commit: BTreeMap<(u64, u64), (f64, f64)> = BTreeMap::new();
        let mut capture: BTreeMap<(u64, u64), f64> = BTreeMap::new();
        let (mut apply, mut clone, mut fingerprint, mut acquire) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut query_ns = Vec::new();
        for (span, &own) in self.spans.iter().zip(&self_ns) {
            let ms = span.dur_ns as f64 / 1e6;
            match span.name {
                "serve.commit" => {
                    commit.insert((span.req.1, span.req.2), (ms, own as f64 / 1e6));
                }
                "serve.capture" => {
                    capture.insert((span.req.1, span.req.2), ms);
                }
                "core.apply_batch" => apply.push(ms),
                "tree.clone" => clone.push(ms),
                "tree.fingerprint" => fingerprint.push(ms),
                "serve.acquire" => acquire.push(span.dur_ns as f64),
                "serve.read" => query_ns.push(own as f64 / crate::run::REQ_QUERIES as f64),
                _ => {}
            }
        }
        let commit_self: Vec<f64> = commit.values().map(|&(_, own)| own).collect();
        let wal_log: Vec<f64> = commit
            .iter()
            .map(|(req, &(_, own))| (own - capture.get(req).copied().unwrap_or(0.0)).max(0.0))
            .collect();
        let ckpt_commit: Vec<f64> = commit
            .iter()
            .filter(|&(&(_, epoch), _)| ckpt_every > 0 && epoch % ckpt_every == 0)
            .map(|(_, &(ms, _))| ms)
            .collect();
        let per_update =
            |f: fn(&UpdateSample) -> f64| -> Vec<f64> { self.updates.iter().map(f).collect() };
        let reroot = per_update(|u| u.reroot_ms);
        let query_sets = per_update(|u| u.query_sets);
        let relinked = per_update(|u| u.relinked);
        let index = self.index;
        let epochs = commit.len() as u64;
        let updates = self.updates.len() as u64;
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let scalar = |name: &'static str| {
            let values = self.scalars.get(name).map_or(&[][..], Vec::as_slice);
            Value::new(name, median(values), values.len() as u64)
        };
        let n = |v: &[f64]| v.len() as u64;
        vec![
            Value::new(
                "serve.commit_self_ms.p50",
                quantile(&commit_self, 0.5),
                epochs,
            ),
            Value::new(
                "serve.commit_self_ms.p99",
                quantile(&commit_self, 0.99),
                epochs,
            ),
            Value::new(
                "serve.capture_ms.p50",
                quantile(&capture.values().copied().collect::<Vec<_>>(), 0.5),
                capture.len() as u64,
            ),
            Value::new("serve.acquire_ns.p50", quantile(&acquire, 0.5), n(&acquire)),
            Value::new(
                "serve.acquire_ns.p99",
                quantile(&acquire, 0.99),
                n(&acquire),
            ),
            Value::new("serve.query_ns.mean", mean(&query_ns), n(&query_ns)),
            Value::new("serve.epochs", epochs as f64, epochs),
            Value::new(
                "serve.updates_per_epoch",
                ratio(updates as f64, epochs as f64),
                epochs,
            ),
            Value::new("core.apply_ms.p50", quantile(&apply, 0.5), n(&apply)),
            Value::new("core.apply_ms.p99", quantile(&apply, 0.99), n(&apply)),
            Value::new("core.apply_ms.sum", sum(&apply), n(&apply)),
            Value::new("core.reroot_ms.sum", sum(&reroot), updates),
            Value::new("core.reroot_ms.max", max(&reroot), updates),
            Value::new(
                "core.maintain_ms.sum",
                sum(&per_update(|u| u.maintain_ms)),
                updates,
            ),
            Value::new(
                "core.reroot_frac",
                mean(&per_update(|u| f64::from(u8::from(u.relinked > 0.0)))),
                updates,
            ),
            Value::new("core.query_sets.mean", mean(&query_sets), updates),
            Value::new("core.query_sets.max", max(&query_sets), updates),
            Value::new("core.relinked.mean", mean(&relinked), updates),
            Value::new(
                "core.d_queries.sum",
                sum(&per_update(|u| u.d_queries)),
                updates,
            ),
            Value::new("query.d_rebuilds", self.d_rebuilds as f64, updates),
            Value::new(
                "query.d_rebuild_ms.sum",
                self.d_rebuild_micros as f64 / 1e3,
                updates,
            ),
            Value::new(
                "query.overlay_peak",
                max(&per_update(|u| u.overlay)),
                updates,
            ),
            scalar("query.d_build_ms"),
            Value::new("tree.clone_ms.p50", quantile(&clone, 0.5), n(&clone)),
            Value::new(
                "tree.fingerprint_ms.p50",
                quantile(&fingerprint, 0.5),
                n(&fingerprint),
            ),
            Value::new("tree.patches", index.patches_applied as f64, updates),
            Value::new("tree.fallbacks", index.fallback_rebuilds as f64, updates),
            Value::new("tree.patch_frac", index.patch_rate(), updates),
            Value::new(
                "tree.touched_per_patch",
                ratio(index.vertices_touched as f64, index.patches_applied as f64),
                index.patches_applied,
            ),
            scalar("tree.build_ms"),
            scalar("seq.static_dfs_ms"),
            Value::new("wal.log_ms.p50", quantile(&wal_log, 0.5), n(&wal_log)),
            Value::new("wal.log_ms.p99", quantile(&wal_log, 0.99), n(&wal_log)),
            Value::new(
                "wal.ckpt_commit_ms.p50",
                quantile(&ckpt_commit, 0.5),
                n(&ckpt_commit),
            ),
            scalar("wal.disk_bytes"),
            scalar("wal.ckpt_bytes"),
            scalar("wal.recover_open_ms"),
            scalar("wal.recover_build_ms"),
            scalar("wal.replayed_records"),
            scalar("graph.adjacency_words"),
            Value::new("trace.overhead_frac", overhead_frac, epochs),
        ]
    }

    /// Write every span as one JSON line after a `header` line.
    pub fn write(&self, path: &Path, header: &str) -> Result<(), String> {
        let mut out = format!("{header}\n");
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"req\": \"{}:{}:{}\", \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"dur_ns\": {}, \"self_ns\": {own}, \"laid_out\": {}}}",
                s.req.0, s.req.1, s.req.2, s.name, s.start_ns, s.dur_ns, s.laid_out
            );
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}
