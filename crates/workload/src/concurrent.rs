//! The [`ConcurrentScenarioRunner`]: drive a trace through the serving
//! layer — one writer thread committing the trace's update batches, `M`
//! reader threads replaying its query batches against live views.
//!
//! This is the concurrent counterpart of the
//! [`ScenarioRunner`](crate::runner::ScenarioRunner): the same trace, but
//! the queries no longer serialize
//! through `&mut` access to the maintainer. The writer commits each recorded
//! update batch as one epoch (preserving the trace's `apply_batch`
//! boundaries, so the per-epoch trees — and the final tree — are
//! *identical* to a single-threaded replay of the same trace on the same
//! backend). Readers loop over the trace's query batches for the whole
//! serving window, answering each batch against one coherent view, and
//! keep a torn-read census by recomputing every newly-observed view's
//! fingerprint against the epoch log.
//!
//! One loop serves both committers: whatever implements [`Served`] — a
//! single [`Server`] or a [`PartitionedRouter`] — with readers holding the
//! matching [`EpochReader`] (a [`ReadHandle`] or a [`RouterReadHandle`]).
//!
//! The headline metric is [`ConcurrentOutcome::queries_per_sec`]: aggregate
//! queries answered across all readers over the serving wall-clock. The
//! `serve_tour` example prints it; reads beside writes are benchmarked by
//! perfbench's `edge-churn-reads` workload.

use crate::trace::{Trace, TraceBatch, TraceQuery};
use pardfs_api::ForestQuery;
use pardfs_graph::Update;
use pardfs_serve::{
    EpochRecord, PartitionedEpoch, PartitionedRouter, PartitionedView, ReadHandle,
    RouterReadHandle, Server, Snapshot,
};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Everything one concurrent replay observed.
#[derive(Debug, Clone)]
pub struct ConcurrentOutcome {
    /// Scenario name (from the trace).
    pub scenario: String,
    /// Backend name of the served maintainer.
    pub backend: String,
    /// Number of reader threads.
    pub readers: usize,
    /// The committer's epoch log ([`Served::epoch_log`]): epoch 0 (initial
    /// state) plus one record per committed update batch, fingerprints
    /// included.
    pub epochs: Vec<EpochRecord>,
    /// Distinct updates applied across all epochs.
    pub updates_applied: u64,
    /// Wall-clock microseconds the writer spent committing every update
    /// batch.
    pub writer_micros: u64,
    /// Wall-clock microseconds of the whole serving window (first submit to
    /// last reader exit).
    pub wall_micros: u64,
    /// Queries answered, summed across all readers and passes.
    pub queries_answered: u64,
    /// Full passes over the trace's query batches, summed across readers.
    pub reader_passes: u64,
    /// Observed views whose recomputed fingerprint failed to match the
    /// capture-time fingerprint or the epoch log — **must be zero**; any
    /// other value means a reader saw a torn tree.
    pub torn_snapshots: u64,
    /// Fingerprint of the last logged epoch — the last record of
    /// [`ConcurrentOutcome::epochs`]. On a clean run it equals the
    /// single-threaded replay's
    /// [`tree_fingerprint`](crate::runner::tree_fingerprint) for the same
    /// trace and backend; after a commit panic it is the last epoch readers
    /// could observe, never the poisoned maintainer's unpublished state.
    pub final_fingerprint: u64,
    /// The panic message of a commit that blew up mid-replay (a poisoned
    /// maintainer, a failed durability log, ...), or `None` on a clean run.
    /// The runner surfaces the failure here instead of propagating the
    /// panic out of its writer loop, so the reader census and the epochs
    /// committed *before* the failure remain inspectable.
    pub commit_error: Option<String>,
    /// Reader threads that panicked instead of returning their tally
    /// (their queries/passes are not counted) — **must be zero**.
    pub reader_panics: u64,
}

impl ConcurrentOutcome {
    /// Aggregate read throughput: queries answered per second of serving
    /// wall-clock, across all readers.
    pub fn queries_per_sec(&self) -> f64 {
        if self.wall_micros == 0 {
            0.0
        } else {
            self.queries_answered as f64 * 1e6 / self.wall_micros as f64
        }
    }
}

/// A committer the [`ConcurrentScenarioRunner`] replays a trace through:
/// it commits one recorded update batch as one epoch, hands each reader
/// thread its read handle, and keeps the epoch log.
pub trait Served {
    /// What a reader thread holds.
    type Reader: EpochReader;

    /// Backend name of the served maintainer(s).
    fn backend(&self) -> &'static str;

    /// The read handle of reader thread `i`.
    fn reader(&self, i: usize) -> Self::Reader;

    /// Commit `updates` as one epoch and return the number of distinct
    /// updates it applied.
    fn commit_batch(&mut self, updates: &[Update]) -> u64;

    /// The epoch log so far: epoch 0 plus one record per committed batch.
    fn epoch_log(&self) -> Vec<EpochRecord>;
}

/// The read side of a [`Served`] committer: the currently published view,
/// its epoch, and the torn-read check.
pub trait EpochReader: Send {
    /// An immutable, epoch-consistent view of the served forest.
    type View: ForestQuery;

    /// The most recently published view.
    fn current(&self) -> Arc<Self::View>;

    /// The epoch `view` captures.
    fn epoch_of(view: &Self::View) -> u64;

    /// Is `view` torn? True when its recomputed fingerprint differs from
    /// its capture-time fingerprint or from the epoch log's record of its
    /// epoch (records are appended before views are published, so a
    /// missing record is a violation too).
    fn is_torn(&self, view: &Self::View) -> bool;
}

impl Served for Server {
    type Reader = ReadHandle;

    fn backend(&self) -> &'static str {
        self.backend_name()
    }

    fn reader(&self, _i: usize) -> ReadHandle {
        self.read_handle()
    }

    fn commit_batch(&mut self, updates: &[Update]) -> u64 {
        self.write_handle().submit(updates.to_vec());
        let stats = self.commit().expect("the batch submitted above is queued");
        stats.record.updates as u64
    }

    fn epoch_log(&self) -> Vec<EpochRecord> {
        self.epochs()
    }
}

/// The partitioned router routes each batch as one router epoch; its log
/// records are projected through [`PartitionedEpoch::as_epoch_record`].
impl Served for PartitionedRouter {
    type Reader = RouterReadHandle;

    fn backend(&self) -> &'static str {
        self.servers()[0].backend_name()
    }

    fn reader(&self, _i: usize) -> RouterReadHandle {
        self.read_handle()
    }

    fn commit_batch(&mut self, updates: &[Update]) -> u64 {
        self.commit(updates)
            .expect("trace batches are non-empty")
            .updates as u64
    }

    fn epoch_log(&self) -> Vec<EpochRecord> {
        self.read_handle()
            .epochs()
            .iter()
            .map(PartitionedEpoch::as_epoch_record)
            .collect()
    }
}

impl EpochReader for ReadHandle {
    type View = Snapshot;

    fn current(&self) -> Arc<Snapshot> {
        self.snapshot()
    }

    fn epoch_of(snap: &Snapshot) -> u64 {
        snap.epoch()
    }

    fn is_torn(&self, snap: &Snapshot) -> bool {
        let recomputed = snap.recompute_fingerprint();
        recomputed != snap.fingerprint()
            || self.recorded_fingerprint(snap.epoch()) != Some(recomputed)
    }
}

/// A partitioned view is checked by re-assembling the forest across all
/// shards.
impl EpochReader for RouterReadHandle {
    type View = PartitionedView;

    fn current(&self) -> Arc<PartitionedView> {
        self.view()
    }

    fn epoch_of(view: &PartitionedView) -> u64 {
        view.epoch()
    }

    fn is_torn(&self, view: &PartitionedView) -> bool {
        let recomputed = view.recompute_fingerprint();
        recomputed != view.fingerprint()
            || self.recorded_fingerprint(view.epoch()) != Some(recomputed)
    }
}

/// What one reader thread tallied.
#[derive(Default)]
struct ReaderTally {
    queries: u64,
    passes: u64,
    torn: u64,
}

/// Drives a trace through any [`Served`] committer with `M` concurrent
/// readers.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentScenarioRunner<'a> {
    trace: &'a Trace,
    readers: usize,
}

impl<'a> ConcurrentScenarioRunner<'a> {
    /// A runner over `trace` with `readers` reader threads (min 1).
    pub fn new(trace: &'a Trace, readers: usize) -> Self {
        ConcurrentScenarioRunner {
            trace,
            readers: readers.max(1),
        }
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &Trace {
        self.trace
    }

    /// Replay the trace through `served` (whose maintainers must have been
    /// built over [`Trace::initial_graph`]) — `Server::new(dfs)` or a
    /// [`PartitionedRouter`]. The calling thread becomes the writer; reader
    /// threads run until the writer is done and each has completed at least
    /// one full pass over the query batches. The committer is handed back
    /// with the outcome, so callers can inspect it afterwards (a router's
    /// [`RoutingStats`](pardfs_serve::RoutingStats), say).
    pub fn run<S: Served>(&self, mut served: S) -> (S, ConcurrentOutcome) {
        let batches = || self.trace.phases.iter().flat_map(|p| &p.batches);
        let query_batches: Vec<&[TraceQuery]> = batches()
            .filter_map(|b| match b {
                TraceBatch::Queries(qs) => Some(qs.as_slice()),
                TraceBatch::Updates(_) => None,
            })
            .collect();
        let update_batches: Vec<&[Update]> = batches()
            .filter_map(|b| match b {
                TraceBatch::Updates(us) => Some(us.as_slice()),
                TraceBatch::Queries(_) => None,
            })
            .collect();
        let handles: Vec<S::Reader> = (0..self.readers).map(|i| served.reader(i)).collect();

        let done = AtomicBool::new(false);
        let start = Instant::now();
        let mut updates_applied = 0u64;
        let mut writer_micros = 0u64;
        let mut tallies: Vec<ReaderTally> = Vec::with_capacity(self.readers);
        let mut commit_error: Option<String> = None;
        let mut reader_panics = 0u64;

        std::thread::scope(|scope| {
            let reader_threads: Vec<_> = handles
                .into_iter()
                .map(|handle| {
                    let done = &done;
                    let batches = &query_batches;
                    scope.spawn(move || reader_loop(handle, batches, done))
                })
                .collect();

            // The calling thread is the writer: one epoch per recorded
            // update batch, preserving the trace's `apply_batch` boundaries
            // so every epoch's tree matches a single-threaded replay of the
            // same prefix. A commit that panics (poisoned maintainer, failed
            // durability log) must not take the runner down with it
            // mid-scope — the readers still need their `done` signal and an
            // orderly join, and the caller gets the failure as
            // `commit_error` on the outcome.
            let writer_start = Instant::now();
            for batch in &update_batches {
                match catch_unwind(AssertUnwindSafe(|| served.commit_batch(batch))) {
                    Ok(applied) => updates_applied += applied,
                    Err(panic) => {
                        commit_error = Some(panic_message(panic.as_ref()));
                        break;
                    }
                }
            }
            writer_micros = writer_start.elapsed().as_micros() as u64;
            done.store(true, Ordering::Release);

            for thread in reader_threads {
                match thread.join() {
                    Ok(tally) => tallies.push(tally),
                    Err(_) => reader_panics += 1,
                }
            }
        });
        let wall_micros = (start.elapsed().as_micros() as u64).max(1);

        // The final fingerprint is the last *logged* epoch's: after a commit
        // panic the maintainer may hold a tree no reader ever saw, and the
        // log needs no `catch_unwind` to read.
        let epochs = served.epoch_log();
        let final_fingerprint = epochs.last().map_or(0, |e| e.fingerprint);
        let outcome = ConcurrentOutcome {
            scenario: self.trace.scenario.clone(),
            backend: served.backend().to_string(),
            readers: self.readers,
            epochs,
            updates_applied,
            writer_micros,
            wall_micros,
            queries_answered: tallies.iter().map(|t| t.queries).sum(),
            reader_passes: tallies.iter().map(|t| t.passes).sum(),
            torn_snapshots: tallies.iter().map(|t| t.torn).sum(),
            final_fingerprint,
            commit_error,
            reader_panics,
        };
        (served, outcome)
    }
}

/// Best-effort extraction of a panic payload's message (panics carry
/// `&str` or `String` in practice; anything else gets a placeholder).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "commit panicked with a non-string payload".to_string()
    }
}

/// One reader thread: loop the trace's query batches against live views
/// until the writer is done and at least one full pass has completed. Each
/// batch is answered against a single view (batch-coherent reads); each
/// *newly observed* epoch's view is checked with [`EpochReader::is_torn`]
/// (the torn-read census — recomputation is amortized over epoch changes,
/// not per query).
fn reader_loop<R: EpochReader>(
    handle: R,
    batches: &[&[TraceQuery]],
    done: &AtomicBool,
) -> ReaderTally {
    let mut tally = ReaderTally::default();
    let mut last_epoch = u64::MAX;
    loop {
        for batch in batches {
            let view = handle.current();
            let epoch = R::epoch_of(&view);
            if epoch != last_epoch {
                last_epoch = epoch;
                if handle.is_torn(&view) {
                    tally.torn += 1;
                }
            }
            for query in *batch {
                tally.queries += 1;
                match query {
                    TraceQuery::SameComponent(u, v) => {
                        black_box(view.same_component(*u, *v));
                    }
                    TraceQuery::ForestParent(v) => {
                        black_box(view.forest_parent(*v));
                    }
                    TraceQuery::ForestRoots => {
                        black_box(view.forest_roots());
                    }
                }
            }
        }
        tally.passes += 1;
        if done.load(Ordering::Acquire) {
            break;
        }
        if batches.is_empty() {
            // Nothing to replay: don't busy-spin the queue-less loop.
            std::thread::yield_now();
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Trace, TracePhase};
    use pardfs_api::{DfsMaintainer, StatsReport};
    use pardfs_graph::{Graph, Vertex};
    use pardfs_seq::{AugmentedGraph, SeqRerootDfs};
    use pardfs_serve::ShardFactory;
    use pardfs_tree::TreeIndex;

    /// A maintainer whose second batch panics — the "poisoned writer" the
    /// runner must survive.
    struct Explosive {
        tree: TreeIndex,
        graph: Graph,
        batches_before_boom: usize,
    }

    impl ForestQuery for Explosive {
        fn forest_parent(&self, _v: Vertex) -> Option<Vertex> {
            None
        }
        fn forest_roots(&self) -> Vec<Vertex> {
            Vec::new()
        }
        fn same_component(&self, _u: Vertex, _v: Vertex) -> bool {
            false
        }
        fn num_vertices(&self) -> usize {
            1
        }
        fn num_edges(&self) -> usize {
            0
        }
    }

    impl DfsMaintainer for Explosive {
        fn backend_name(&self) -> &'static str {
            "explosive"
        }
        fn apply_update(&mut self, _update: &Update) -> Option<Vertex> {
            if self.batches_before_boom == 0 {
                panic!("maintainer exploded mid-commit");
            }
            self.batches_before_boom -= 1;
            None
        }
        fn tree(&self) -> &TreeIndex {
            &self.tree
        }
        fn augmented_graph(&self) -> &Graph {
            &self.graph
        }
        fn check(&self) -> Result<(), String> {
            Ok(())
        }
        fn stats(&self) -> StatsReport {
            StatsReport::default()
        }
    }

    fn two_batch_trace() -> Trace {
        Trace {
            scenario: "boom".into(),
            seed: 0,
            n: 2,
            edges: vec![],
            phases: vec![TracePhase {
                name: "p".into(),
                batches: vec![
                    TraceBatch::Updates(vec![Update::InsertEdge(0, 1)]),
                    TraceBatch::Updates(vec![Update::DeleteEdge(0, 1)]),
                ],
            }],
            fingerprints: vec![],
        }
    }

    #[test]
    fn a_panicking_commit_is_surfaced_not_propagated() {
        let trace = two_batch_trace();
        let dfs = Explosive {
            tree: TreeIndex::from_parent_slice(&[0], 0),
            graph: Graph::new(1),
            batches_before_boom: 1,
        };
        // Must not panic: the writer's death is data, not a crash.
        let (_, outcome) = ConcurrentScenarioRunner::new(&trace, 2).run(Server::new(Box::new(dfs)));
        let err = outcome.commit_error.expect("the second commit died");
        assert!(err.contains("maintainer exploded"), "{err}");
        assert_eq!(outcome.reader_panics, 0, "readers exit cleanly");
        // The first epoch committed before the failure stays inspectable.
        assert_eq!(outcome.updates_applied, 1);
        assert_eq!(outcome.epochs.len(), 2, "epoch 0 + the surviving commit");
    }

    #[test]
    fn clean_runs_report_no_commit_error() {
        let trace = two_batch_trace();
        let dfs = Explosive {
            tree: TreeIndex::from_parent_slice(&[0], 0),
            graph: Graph::new(1),
            batches_before_boom: usize::MAX,
        };
        let (_, outcome) = ConcurrentScenarioRunner::new(&trace, 1).run(Server::new(Box::new(dfs)));
        assert_eq!(outcome.commit_error, None);
        assert_eq!(outcome.reader_panics, 0);
        assert_eq!(outcome.updates_applied, 2);
    }

    /// A real backend that panics on its `after`-th `apply_update` — after
    /// applying it, so the poisoned maintainer holds a tree that no epoch
    /// ever published.
    struct PanicAfter {
        inner: Box<dyn DfsMaintainer>,
        after: usize,
    }

    impl ForestQuery for PanicAfter {
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

    impl DfsMaintainer for PanicAfter {
        fn backend_name(&self) -> &'static str {
            self.inner.backend_name()
        }
        fn apply_update(&mut self, update: &Update) -> Option<Vertex> {
            let out = self.inner.apply_update(update);
            self.after -= 1;
            if self.after == 0 {
                panic!("PanicAfter: poisoned after applying {update:?}");
            }
            out
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

    /// Sequential shards, each wrapped in [`PanicAfter`].
    struct PanicAfterFactory(usize);

    impl ShardFactory for PanicAfterFactory {
        fn build(&self, user_graph: &Graph) -> Box<dyn DfsMaintainer> {
            Box::new(PanicAfter {
                inner: Box::new(SeqRerootDfs::new(user_graph)),
                after: self.0,
            })
        }
        fn resume(
            &self,
            aug_graph: Graph,
            tree: TreeIndex,
        ) -> Result<Box<dyn DfsMaintainer>, String> {
            let aug = AugmentedGraph::from_internal(aug_graph)?;
            Ok(Box::new(PanicAfter {
                inner: Box::new(SeqRerootDfs::from_state(aug, tree)),
                after: self.0,
            }))
        }
    }

    /// A path 0-…-5 and four one-update batches; the third inserts a vertex,
    /// which always changes the tree.
    fn poison_trace() -> Trace {
        Trace {
            scenario: "poison".into(),
            seed: 0,
            n: 6,
            edges: (0..5).map(|v| (v, v + 1)).collect(),
            phases: vec![TracePhase {
                name: "p".into(),
                batches: vec![
                    TraceBatch::Updates(vec![Update::InsertEdge(0, 5)]),
                    TraceBatch::Queries(vec![
                        TraceQuery::SameComponent(0, 5),
                        TraceQuery::ForestParent(3),
                        TraceQuery::ForestRoots,
                    ]),
                    TraceBatch::Updates(vec![Update::DeleteEdge(2, 3)]),
                    TraceBatch::Updates(vec![Update::InsertVertex { edges: vec![1, 4] }]),
                    TraceBatch::Updates(vec![Update::DeleteVertex(0)]),
                ],
            }],
            fingerprints: vec![],
        }
    }

    #[test]
    fn a_panicking_commit_reports_the_last_logged_epoch_on_every_committer() {
        let trace = poison_trace();
        let graph = trace.initial_graph();
        // The committed prefix: epoch 0 and the first two batches, as a
        // single-threaded replay sees them.
        let mut reference = SeqRerootDfs::new(&graph);
        let mut prefix = vec![(0, reference.tree().fingerprint())];
        for (epoch, update) in [Update::InsertEdge(0, 5), Update::DeleteEdge(2, 3)]
            .iter()
            .enumerate()
        {
            reference.apply_update(update);
            prefix.push((epoch as u64 + 1, reference.tree().fingerprint()));
        }
        let runner = ConcurrentScenarioRunner::new(&trace, 2);

        let (server, single) = runner.run(Server::new(PanicAfterFactory(3).build(&graph)));
        assert_ne!(
            server.maintainer().tree().fingerprint(),
            single.final_fingerprint,
            "the poisoned maintainer moved past the last published epoch"
        );
        let (_, partitioned) = runner.run(PartitionedRouter::new(
            Box::new(PanicAfterFactory(3)),
            &graph,
            2,
        ));

        for (name, outcome) in [("server", single), ("partitioned", partitioned)] {
            assert!(
                outcome.commit_error.is_some(),
                "{name}: the third commit died"
            );
            assert_eq!(outcome.reader_panics, 0, "{name}: readers exit cleanly");
            let logged: Vec<(u64, u64)> = outcome
                .epochs
                .iter()
                .map(|e| (e.epoch, e.fingerprint))
                .collect();
            assert_eq!(logged, prefix, "{name}: the log holds the committed prefix");
            assert_eq!(
                outcome.final_fingerprint,
                outcome
                    .epochs
                    .last()
                    .expect("epoch 0 is logged")
                    .fingerprint,
                "{name}: final fingerprint is the last logged epoch's"
            );
            assert_eq!(outcome.updates_applied, 2, "{name}");
        }
    }
}
