//! The [`Server`]: single-writer group commit, epoch publication, and the
//! [`ReadHandle`]/[`WriteHandle`] pair clients hold.

use crate::snapshot::Snapshot;
use pardfs_api::{BatchReport, DfsMaintainer, ForestQuery, StatsRollup};
use pardfs_graph::Update;
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;
use std::time::Instant;

/// The durable record of one committed epoch, appended to the server's epoch
/// log **before** the epoch's snapshot is published. The log is the ground
/// truth the stress suite checks observed snapshots against: every snapshot
/// a reader ever holds must match exactly one record's fingerprint.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Epoch number (0 = initial state, then one per commit).
    pub epoch: u64,
    /// Updates applied by this epoch's single `apply_batch` (0 for epoch 0).
    pub updates: usize,
    /// Client submissions the group commit absorbed into that one batch.
    pub submissions: usize,
    /// Tree fingerprint of the published snapshot.
    pub fingerprint: u64,
    /// User vertices after the commit.
    pub num_vertices: usize,
    /// User edges after the commit.
    pub num_edges: usize,
    /// Structural roll-up of the epoch's per-update statistics.
    pub rollup: StatsRollup,
    /// Wall-clock microseconds the writer spent applying the batch.
    pub micros: u64,
}

/// What one [`Server::commit`] did: the epoch's log record plus the full
/// per-update [`BatchReport`].
#[derive(Debug, Clone)]
pub struct CommitStats {
    /// The record appended to the epoch log.
    pub record: EpochRecord,
    /// The per-update report of the epoch's single `apply_batch`.
    pub report: BatchReport,
}

/// A durability sink for committed epochs, called by the server **inside**
/// the commit path: after `apply_batch` has produced the new state but
/// *before* the epoch record is appended to the in-memory log and the
/// snapshot is published. A record the log accepts is therefore durable by
/// the time any reader can observe its epoch — the write-ahead contract.
///
/// The server treats a logging failure as fatal (it panics): returning `Ok`
/// is a durability promise, and a server that kept publishing epochs its log
/// lost would silently break recovery.
pub trait CommitLog: Send {
    /// Persist one committed epoch: its record, the exact update batch that
    /// produced it (user ids, application order), and the maintainer holding
    /// the post-commit state (for checkpointing policies that trigger here).
    fn log_commit(
        &mut self,
        record: &EpochRecord,
        updates: &[Update],
        state: &dyn DfsMaintainer,
    ) -> Result<(), String>;

    /// Take a checkpoint of `state` at `record`'s epoch now, regardless of
    /// policy (the [`Server::force_checkpoint`] path).
    fn checkpoint(&mut self, record: &EpochRecord, state: &dyn DfsMaintainer)
        -> Result<(), String>;
}

/// State shared between the server (writer side) and every handle.
struct Shared {
    /// Group-commit queue: submissions accumulate here until the writer
    /// drains them all into one `apply_batch`.
    queue: Mutex<Vec<Vec<Update>>>,
    /// The published snapshot pointer. Readers clone the `Arc` under the
    /// read lock (a pointer copy — no tree data is copied, and the writer
    /// is only ever inside the write lock for the swap itself).
    published: RwLock<Arc<Snapshot>>,
    /// Epoch log. Index `i` holds epoch `epoch_offset + i` — the offset is 0
    /// for a fresh server and the recovery epoch for a resumed one.
    epochs: Mutex<Vec<EpochRecord>>,
    /// First epoch in `epochs` (see above).
    epoch_offset: u64,
}

/// Handle through which clients read the served forest, cheaply cloneable
/// and usable from any number of threads at once.
///
/// [`ReadHandle::snapshot`] never blocks on the writer's `apply_batch` —
/// only on the pointer swap itself, which is a few instructions under the
/// write lock. The returned [`Snapshot`] stays valid (and constant) for as
/// long as the caller holds it, however many epochs the writer commits in
/// the meantime.
#[derive(Clone)]
pub struct ReadHandle {
    shared: Arc<Shared>,
}

impl ReadHandle {
    /// The most recently published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.published.read().clone()
    }

    /// The most recently published epoch number.
    pub fn epoch(&self) -> u64 {
        self.shared.published.read().epoch()
    }

    /// The fingerprint the epoch log records for `epoch`, if that epoch has
    /// been committed. Because records are appended *before* snapshots are
    /// published, any epoch observable via [`ReadHandle::snapshot`] is
    /// already in the log — a `None` for an observed epoch is itself a
    /// consistency violation.
    pub fn recorded_fingerprint(&self, epoch: u64) -> Option<u64> {
        let index = epoch.checked_sub(self.shared.epoch_offset)?;
        self.shared
            .epochs
            .lock()
            .get(index as usize)
            .map(|r| r.fingerprint)
    }

    /// A copy of the epoch log so far.
    pub fn epochs(&self) -> Vec<EpochRecord> {
        self.shared.epochs.lock().clone()
    }
}

/// Handle through which clients submit update batches.
///
/// Submissions enqueue; nothing is applied until the server's next
/// [`Server::commit`], which drains *every* pending submission into one
/// `apply_batch` (group commit). Cheap to clone; any number of threads may
/// submit at once.
#[derive(Clone)]
pub struct WriteHandle {
    shared: Arc<Shared>,
}

impl WriteHandle {
    /// Enqueue one batch of updates for the next group commit.
    pub fn submit(&self, updates: Vec<Update>) {
        self.shared.queue.lock().push(updates);
    }
}

/// An epoch-snapshot server over one [`DfsMaintainer`].
///
/// The server **owns the writer**: all mutation funnels through
/// [`Server::commit`] on whichever thread owns the `Server` (it is `Send`,
/// not `Sync` — one writer, by construction). Each commit drains the
/// group-commit queue into a single `apply_batch`, appends an
/// [`EpochRecord`] to the log, and then publishes an immutable [`Snapshot`]
/// that any number of [`ReadHandle`]s query concurrently. Whoever owns the
/// server decides when to commit: there is no commit thread to start or
/// stop.
///
/// Epoch lifecycle:
///
/// 1. clients [`WriteHandle::submit`] batches → queue grows;
/// 2. the writer drains the whole queue, applies it as **one** batch;
/// 3. the epoch's record is appended to the log (fingerprint included);
/// 4. the new snapshot is swapped in — readers from this instant see epoch
///    `e + 1`; readers holding epoch `e` keep a valid, constant snapshot.
pub struct Server {
    dfs: Box<dyn DfsMaintainer>,
    shared: Arc<Shared>,
    next_epoch: u64,
    commit_log: Option<Box<dyn CommitLog>>,
}

impl Server {
    /// Wrap a maintainer and publish its current state as epoch 0.
    pub fn new(dfs: Box<dyn DfsMaintainer>) -> Self {
        Server::resume(dfs, 0)
    }

    /// Wrap a maintainer whose state is already at `epoch` — the recovery
    /// path: a maintainer rebuilt from a checkpoint plus WAL replay resumes
    /// serving at the epoch it had reached, not at 0. The current state is
    /// published as `epoch`, and the epoch log starts there (records for
    /// earlier epochs live in the durability layer, not in memory).
    pub fn resume(dfs: Box<dyn DfsMaintainer>, epoch: u64) -> Self {
        let snapshot = Snapshot::capture(epoch, dfs.as_ref());
        let record = EpochRecord {
            epoch,
            updates: 0,
            submissions: 0,
            fingerprint: snapshot.fingerprint(),
            num_vertices: snapshot.num_vertices(),
            num_edges: snapshot.num_edges(),
            rollup: StatsRollup::default(),
            micros: 0,
        };
        Server {
            dfs,
            shared: Arc::new(Shared {
                queue: Mutex::new(Vec::new()),
                published: RwLock::new(Arc::new(snapshot)),
                epochs: Mutex::new(vec![record]),
                epoch_offset: epoch,
            }),
            next_epoch: epoch + 1,
            commit_log: None,
        }
    }

    /// Attach a durability sink: every subsequent commit is persisted
    /// through `log` *before* its snapshot is published (see [`CommitLog`]).
    pub fn set_commit_log(&mut self, log: Box<dyn CommitLog>) {
        self.commit_log = Some(log);
    }

    /// Checkpoint the current state through the attached [`CommitLog`] now,
    /// regardless of its policy. Errors if no log is attached or the log's
    /// checkpoint fails.
    pub fn force_checkpoint(&mut self) -> Result<(), String> {
        let log = self
            .commit_log
            .as_mut()
            .ok_or_else(|| "no commit log attached".to_string())?;
        let record = self
            .shared
            .epochs
            .lock()
            .last()
            .expect("the epoch log is never empty")
            .clone();
        log.checkpoint(&record, self.dfs.as_ref())
    }

    /// Backend name of the wrapped maintainer.
    pub fn backend_name(&self) -> &'static str {
        self.dfs.backend_name()
    }

    /// A new read handle (cheap; clone freely across reader threads).
    pub fn read_handle(&self) -> ReadHandle {
        ReadHandle {
            shared: self.shared.clone(),
        }
    }

    /// A new write handle (cheap; clone freely across submitting threads).
    /// Its submissions wait in the queue until the next [`Server::commit`].
    pub fn write_handle(&self) -> WriteHandle {
        WriteHandle {
            shared: self.shared.clone(),
        }
    }

    /// A copy of the epoch log so far.
    pub fn epochs(&self) -> Vec<EpochRecord> {
        self.shared.epochs.lock().clone()
    }

    /// Commit everything currently queued as one epoch. Returns `None` when
    /// the queue is empty (no epoch is minted for zero submissions).
    pub fn commit(&mut self) -> Option<CommitStats> {
        let drained = std::mem::take(&mut *self.shared.queue.lock());
        (!drained.is_empty()).then(|| self.commit_batches(drained))
    }

    /// Direct read access to the wrapped maintainer (the writer's view —
    /// always at the latest epoch).
    pub fn maintainer(&self) -> &dyn DfsMaintainer {
        self.dfs.as_ref()
    }

    fn commit_batches(&mut self, batches: Vec<Vec<Update>>) -> CommitStats {
        let submissions = batches.len();
        let updates: Vec<Update> = batches.into_iter().flatten().collect();
        let start = Instant::now();
        let report = self.dfs.apply_batch(&updates);
        let micros = start.elapsed().as_micros() as u64;
        let mut rollup = StatsRollup::default();
        rollup.absorb_batch(&report);
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        // An unmoved tree shares the published epoch's arrays (see capture_after).
        let last = self.shared.published.read().clone();
        let snapshot = Arc::new(Snapshot::capture_after(epoch, self.dfs.as_ref(), &last));
        let record = EpochRecord {
            epoch,
            updates: updates.len(),
            submissions,
            fingerprint: snapshot.fingerprint(),
            num_vertices: snapshot.num_vertices(),
            num_edges: snapshot.num_edges(),
            rollup,
            micros,
        };
        // Durability first: the WAL append must succeed before any reader
        // can observe the epoch. A failed append is fatal — continuing
        // would publish state the log cannot recover.
        if let Some(log) = self.commit_log.as_mut() {
            if let Err(e) = log.log_commit(&record, &updates, self.dfs.as_ref()) {
                panic!("durability commit log failed at epoch {epoch}: {e}");
            }
        }
        // Log first, publish second: a reader can then never hold a
        // snapshot whose epoch is missing from the log, so "observed
        // fingerprint has no matching record" cleanly means "torn read".
        self.shared.epochs.lock().push(record.clone());
        *self.shared.published.write() = snapshot;
        CommitStats { record, report }
    }
}
