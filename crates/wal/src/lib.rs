//! # pardfs-wal
//!
//! **Trace-as-WAL durability** for pardfs servers: every committed epoch's
//! update batch is appended to a write-ahead log in the `pardfs-wal v1`
//! framing of [`pardfs_workload::wal`] (whose record bodies are valid
//! `pardfs-trace v1` segments — the log *is* a replayable trace), snapshot
//! **checkpoints** bound replay work, and [`recover_with`] (surfaced as
//! `MaintainerBuilder::recover` in the umbrella crate) rebuilds a serving
//! [`Server`] after a crash.
//!
//! ## The three pieces
//!
//! * [`WalWriter`] — a [`CommitLog`] implementation the server calls inside
//!   its commit path: append the epoch's framed record, `sync`, and (per
//!   [`CheckpointPolicy`]) take a checkpoint.
//! * The **checkpoint** — an atomic snapshot file serializing the
//!   maintainer's complete recoverable state, written straight from the
//!   live maintainer by [`render_checkpoint`]: the *augmented* graph
//!   exactly as held (adjacency order included — DFS tree shape depends on
//!   it) and the maintained tree's parent array. Superseded WAL records are
//!   truncated once the checkpoint is durable.
//! * [`recover_with`] — load the latest checkpoint, rebuild the maintainer
//!   via a caller-supplied factory (the umbrella crate's
//!   `MaintainerBuilder::build_from_state` — this crate deliberately knows
//!   no backend), replay the WAL tail **verifying each record's logged tree
//!   fingerprint**, and resume a [`Server`] at the recovered epoch.
//!
//! ## Crash semantics
//!
//! Every commit `sync_data`s its record before the server publishes the
//! epoch, so a record is readable by recovery as soon as its commit is
//! acknowledged, and no reader ever observed an epoch recovery cannot
//! reproduce. A crash mid-append leaves a **torn tail**: recovery drops it
//! and resumes at the last complete epoch. Damage *before* intact records
//! (interior corruption) is a hard error naming the epoch — see
//! [`pardfs_workload::wal`] for the discrimination rule.
//!
//! ## Checkpoint format
//!
//! Checkpoints are `pardfs-snap v2` containers (`pardfs_graph::snap`,
//! normative spec in `docs/FORMATS.md`): one section table carrying the WAL
//! header sections (`CHDR` epoch+fingerprint, `CBKD` backend name) next to
//! the graph's and the tree's flat-array sections, under a single
//! whole-file checksum, with the array payloads 8-byte aligned so recovery
//! opens the file as a borrowed [`CheckpointView`] (validate once on the
//! mapped bytes, materialize arenas only when the backend factory runs).
//! [`CheckpointView`] is the one checkpoint decoder.
//! v2 is the only format recovery reads: any other file — including the
//! retired v1 container and the line-oriented text checkpoints of early
//! builds — is refused with the container parser's error, naming the file,
//! before the directory is touched.
//!
//! ## Recovery state machine
//!
//! ```text
//! scan dir ─▶ latest checkpoint ─▶ CheckpointView ─▶ materialize ─▶ factory(graph, tree)
//!                  │                                                    │
//!                  ▼                                                    ▼
//!             parse wal.log ──▶ drop torn tail ──▶ replay records > C
//!                  │                                                    │ per record:
//!                  │ interior corruption?                               │ fingerprint
//!                  ▼                                                    ▼ must match
//!              hard error                                     Server::resume(dfs, E)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pardfs_api::{DfsMaintainer, RecoveryStats};
use pardfs_graph::snap::{put_u64, Cursor};
use pardfs_graph::{Graph, GraphView, MappedSnapshot, SnapReader, SnapWriter, Update};
use pardfs_serve::{CommitLog, EpochRecord, Server};
use pardfs_tree::{write_tree_sections, TreeIndex, TreeView};
use pardfs_workload::wal::{parse_wal, WalRecord, WAL_MAGIC};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Section tag of the binary checkpoint header (epoch, fingerprint).
const SEC_CKPT_HEADER: [u8; 4] = *b"CHDR";
/// Section tag of the backend name (UTF-8 bytes).
const SEC_CKPT_BACKEND: [u8; 4] = *b"CBKD";

/// Name of the WAL file inside a durability directory.
pub const WAL_FILE: &str = "wal.log";

/// When the [`WalWriter`] takes a checkpoint (and truncates the WAL records
/// the checkpoint supersedes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// After every `k` committed epochs (`k >= 1`).
    EveryKEpochs(u64),
    /// Only when [`Server::force_checkpoint`] is called.
    Manual,
}

impl CheckpointPolicy {
    fn due(&self, epochs_since: u64) -> bool {
        match *self {
            CheckpointPolicy::EveryKEpochs(k) => epochs_since >= k.max(1),
            CheckpointPolicy::Manual => false,
        }
    }
}

/// Where and how a server's commits are made durable.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `wal.log` and `checkpoint-*.ckpt` (created by
    /// [`DurabilityConfig::attach`] if absent).
    pub dir: PathBuf,
    /// Checkpoint cadence.
    pub policy: CheckpointPolicy,
}

impl DurabilityConfig {
    /// Durability in `dir` with a default policy (checkpoint every 8
    /// epochs).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            policy: CheckpointPolicy::EveryKEpochs(8),
        }
    }

    /// Select the checkpoint cadence.
    pub fn policy(mut self, policy: CheckpointPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Make `server` durable: create the directory, take an **initial
    /// checkpoint** of its current state (so recovery always has a base),
    /// and attach a [`WalWriter`] logging every subsequent commit.
    ///
    /// Errors if the directory already holds a WAL or checkpoints — that
    /// state belongs to a previous server; use [`recover_with`] instead of
    /// silently overwriting it.
    pub fn attach(&self, server: &mut Server) -> Result<(), String> {
        if self.dir.join(WAL_FILE).exists() || latest_checkpoint_path(&self.dir)?.is_some() {
            return Err(format!(
                "durability dir {} already holds a WAL/checkpoints — recover from it instead of overwriting",
                self.dir.display()
            ));
        }
        fs::create_dir_all(&self.dir)
            .map_err(|e| format!("creating {}: {e}", self.dir.display()))?;
        let writer = WalWriter::create(self.dir.clone(), self.policy)?;
        server.set_commit_log(Box::new(writer));
        // The initial checkpoint makes the pre-WAL state durable.
        server.force_checkpoint()
    }
}

/// Render `state`'s recoverable state at `epoch` as a `pardfs-snap v2`
/// checkpoint, read straight from the live maintainer: the WAL header
/// sections (`CHDR` epoch and tree fingerprint, `CBKD` backend name)
/// composed with the augmented graph's and the tree's flat-array sections
/// under one whole-file checksum, with the array payloads 8-byte aligned so
/// recovery (and any other reader) can serve the file as a borrowed
/// [`CheckpointView`] without materializing. This is the format
/// [`WalWriter`] writes.
pub fn render_checkpoint(epoch: u64, state: &dyn DfsMaintainer) -> Vec<u8> {
    let tree = state.tree();
    let mut w = SnapWriter::new();
    let hdr = w.section_aligned(SEC_CKPT_HEADER, 8);
    put_u64(hdr, epoch);
    put_u64(hdr, tree.fingerprint());
    w.section(SEC_CKPT_BACKEND)
        .extend_from_slice(state.backend_name().as_bytes());
    state.augmented_graph().write_snap_sections(&mut w);
    write_tree_sections(&mut w, tree.root(), tree.parent_slice());
    w.finish()
}

/// A **borrowed, zero-copy view** of a `pardfs-snap v2` checkpoint:
/// the header fields plus [`GraphView`]/[`TreeView`]s over the mapped (or
/// aligned in-memory) bytes.
///
/// Parsing validates everything exactly once — container framing and
/// checksum, then the graph and tree representation invariants of
/// [`GraphView`] and [`TreeView`] — and thereafter every read borrows the
/// underlying buffer, which must start at a 4-byte-aligned address (as a
/// mapped file and an allocator's `Vec<u8>` do; a misaligned buffer is
/// refused with an error naming the alignment). Nothing is copied until
/// [`CheckpointView::materialize`], which is deliberately deferred to the
/// moment a backend's `from_state` resume actually needs owned arenas. The
/// recorded tree fingerprint is verified there (the view itself cannot
/// compute a pre-order fingerprint without building the index); until then
/// the whole-file checksum vouches for the bytes.
///
/// # Examples
///
/// ```
/// use pardfs_api::DfsMaintainer;
/// use pardfs_graph::Graph;
/// use pardfs_seq::SeqRerootDfs;
/// use pardfs_wal::{render_checkpoint, CheckpointView};
///
/// # fn demo() -> Result<(), String> {
/// let mut g = Graph::new(2);
/// g.insert_edge(0, 1);
/// let dfs = SeqRerootDfs::new(&g);
/// let bytes = render_checkpoint(9, &dfs);
/// let view = CheckpointView::parse(&bytes)?;
/// assert_eq!(view.epoch, 9);
/// assert_eq!(view.backend(), dfs.backend_name());
/// // Internal ids: the pseudo root 0 is joined to both user vertices.
/// assert_eq!(view.graph().neighbours(0), &[1, 2]); // borrowed from `bytes`
/// let (graph, tree) = view.materialize()?;          // copies, exactly once
/// assert_eq!(&graph, dfs.augmented_graph());
/// assert_eq!(tree.fingerprint(), dfs.tree().fingerprint());
/// # Ok(()) }
/// # demo().unwrap();
/// ```
#[derive(Debug)]
pub struct CheckpointView<'a> {
    /// Epoch the state was captured at.
    pub epoch: u64,
    /// Tree fingerprint recorded at capture time (verified on
    /// [`CheckpointView::materialize`]).
    pub fingerprint: u64,
    backend: &'a str,
    graph: GraphView<'a>,
    tree: TreeView<'a>,
}

impl<'a> CheckpointView<'a> {
    /// Validate a checkpoint and borrow its state. Anything that is not a
    /// `pardfs-snap v2` checkpoint is rejected with the parser's described
    /// error; nothing is guessed.
    pub fn parse(bytes: &'a [u8]) -> Result<CheckpointView<'a>, String> {
        let r = SnapReader::parse(bytes)?;
        let mut hdr = Cursor::new(SEC_CKPT_HEADER, r.section(SEC_CKPT_HEADER)?);
        let epoch = hdr.u64()?;
        let fingerprint = hdr.u64()?;
        hdr.finish()?;
        let backend = std::str::from_utf8(r.section(SEC_CKPT_BACKEND)?)
            .map_err(|_| "checkpoint backend name is not UTF-8".to_string())?;
        let graph = GraphView::parse(&r)?;
        let tree = TreeView::parse(&r)?;
        Ok(CheckpointView {
            epoch,
            fingerprint,
            backend,
            graph,
            tree,
        })
    }

    /// Backend name of the maintainer that produced the checkpoint.
    pub fn backend(&self) -> &'a str {
        self.backend
    }

    /// The augmented graph, served in place.
    pub fn graph(&self) -> &GraphView<'a> {
        &self.graph
    }

    /// The maintained DFS tree, served in place.
    pub fn tree(&self) -> &TreeView<'a> {
        &self.tree
    }

    /// Materialize owned state for a backend resume — the single copy point
    /// of the recovery path. Validation is **not** repeated (it ran at
    /// [`CheckpointView::parse`] time); the recorded tree fingerprint is
    /// verified against the rebuilt index here.
    pub fn materialize(&self) -> Result<(Graph, TreeIndex), String> {
        let graph = self.graph.to_graph();
        let tree = self.tree.to_index();
        if tree.fingerprint() != self.fingerprint {
            return Err(format!(
                "checkpoint for epoch {}: loaded tree fingerprint {:016x} disagrees with recorded {:016x}",
                self.epoch,
                tree.fingerprint(),
                self.fingerprint
            ));
        }
        Ok((graph, tree))
    }
}

fn checkpoint_file_name(epoch: u64) -> String {
    format!("checkpoint-{epoch:016x}.ckpt")
}

/// The highest-epoch `checkpoint-*.ckpt` in `dir`, if any.
fn latest_checkpoint_path(dir: &Path) -> Result<Option<(u64, PathBuf)>, String> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(None), // dir absent → no checkpoints
    };
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries {
        let entry = entry.map_err(|e| format!("listing {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let Some(hex) = name
            .to_str()
            .and_then(|n| n.strip_prefix("checkpoint-"))
            .and_then(|n| n.strip_suffix(".ckpt"))
        else {
            continue;
        };
        let Ok(epoch) = u64::from_str_radix(hex, 16) else {
            continue;
        };
        if best.as_ref().is_none_or(|(e, _)| epoch > *e) {
            best = Some((epoch, entry.path()));
        }
    }
    Ok(best)
}

/// The durability sink: appends each committed epoch to `wal.log` with an
/// explicit `sync` per group commit, and checkpoints per policy. Attach via
/// [`DurabilityConfig::attach`]; recovery reattaches one automatically.
pub struct WalWriter {
    dir: PathBuf,
    file: fs::File,
    policy: CheckpointPolicy,
    epochs_since_checkpoint: u64,
}

impl WalWriter {
    /// Create a fresh WAL (magic line only) in `dir`.
    fn create(dir: PathBuf, policy: CheckpointPolicy) -> Result<WalWriter, String> {
        let path = dir.join(WAL_FILE);
        let mut file =
            fs::File::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        file.write_all(format!("{WAL_MAGIC}\n").as_bytes())
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("initialising {}: {e}", path.display()))?;
        Ok(WalWriter {
            dir,
            file,
            policy,
            epochs_since_checkpoint: 0,
        })
    }

    /// Reopen an existing WAL for append after recovery. `valid_len` is the
    /// verified prefix length — anything after it (a torn tail) is cut off.
    fn reattach(
        dir: PathBuf,
        policy: CheckpointPolicy,
        epochs_since: u64,
        valid_len: u64,
    ) -> Result<WalWriter, String> {
        let path = dir.join(WAL_FILE);
        let file = fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| format!("reopening {}: {e}", path.display()))?;
        file.set_len(valid_len)
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("truncating torn tail of {}: {e}", path.display()))?;
        Ok(WalWriter {
            dir,
            file,
            policy,
            epochs_since_checkpoint: epochs_since,
        })
    }

    fn take_checkpoint(
        &mut self,
        record: &EpochRecord,
        state: &dyn DfsMaintainer,
    ) -> Result<(), String> {
        debug_assert_eq!(
            state.tree().fingerprint(),
            record.fingerprint,
            "the maintainer and the epoch record agree on the tree"
        );
        let final_path = self.dir.join(checkpoint_file_name(record.epoch));
        let tmp_path = self.dir.join("checkpoint.tmp");
        let mut tmp = fs::File::create(&tmp_path)
            .map_err(|e| format!("creating {}: {e}", tmp_path.display()))?;
        tmp.write_all(&render_checkpoint(record.epoch, state))
            .and_then(|()| tmp.sync_all())
            .map_err(|e| format!("writing {}: {e}", tmp_path.display()))?;
        drop(tmp);
        fs::rename(&tmp_path, &final_path)
            .map_err(|e| format!("publishing {}: {e}", final_path.display()))?;
        // The checkpoint is durable: every logged record it covers is now
        // superseded — restart the WAL at its magic line.
        let path = self.dir.join(WAL_FILE);
        let mut file =
            fs::File::create(&path).map_err(|e| format!("truncating {}: {e}", path.display()))?;
        file.write_all(format!("{WAL_MAGIC}\n").as_bytes())
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("restarting {}: {e}", path.display()))?;
        self.file = file;
        // Older checkpoints are garbage now (best-effort removal).
        let superseded = latest_checkpoint_path(&self.dir)?;
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let p = entry.path();
                let is_latest = superseded.as_ref().is_some_and(|(_, best)| *best == p);
                let is_ckpt = p
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("checkpoint-") && n.ends_with(".ckpt"));
                if is_ckpt && !is_latest {
                    let _ = fs::remove_file(&p);
                }
            }
        }
        self.epochs_since_checkpoint = 0;
        Ok(())
    }
}

impl CommitLog for WalWriter {
    fn log_commit(
        &mut self,
        record: &EpochRecord,
        updates: &[Update],
        state: &dyn DfsMaintainer,
    ) -> Result<(), String> {
        let wal_record = WalRecord {
            epoch: record.epoch,
            updates: updates.to_vec(),
            fingerprint: record.fingerprint,
        };
        self.file
            .write_all(wal_record.render().as_bytes())
            .map_err(|e| format!("appending epoch {} to the WAL: {e}", record.epoch))?;
        self.file
            .sync_data()
            .map_err(|e| format!("syncing epoch {} to the WAL: {e}", record.epoch))?;
        self.epochs_since_checkpoint += 1;
        if self.policy.due(self.epochs_since_checkpoint) {
            self.take_checkpoint(record, state)?;
        }
        Ok(())
    }

    fn checkpoint(
        &mut self,
        record: &EpochRecord,
        state: &dyn DfsMaintainer,
    ) -> Result<(), String> {
        self.take_checkpoint(record, state)
    }
}

/// A recovered server plus the [`RecoveryStats`] describing how it got
/// there.
pub struct Recovered {
    /// The server, resumed at the recovered epoch with a fresh [`WalWriter`]
    /// attached (subsequent commits keep logging to the same directory).
    pub server: Server,
    /// What recovery did.
    pub stats: RecoveryStats,
}

/// Recover a server from a durability directory.
///
/// `factory` rebuilds a maintainer from the checkpointed state — the
/// augmented graph (internal ids, exactly as held) and the maintained tree.
/// The umbrella crate's `MaintainerBuilder::build_from_state` is the usual
/// factory; this crate takes a closure so it needs no backend dependencies.
///
/// After the factory returns, the WAL tail (records past the checkpoint
/// epoch) is replayed batch by batch, and after **each** batch the rebuilt
/// maintainer's tree fingerprint must equal the logged one — a divergence
/// means the recovered trajectory is not the crashed one, and recovery
/// fails rather than serve silently different state. A torn final record is
/// dropped (recovering to the last complete epoch); interior corruption is
/// a hard error naming the epoch.
pub fn recover_with(
    config: &DurabilityConfig,
    factory: impl FnOnce(Graph, TreeIndex) -> Result<Box<dyn DfsMaintainer>, String>,
) -> Result<Recovered, String> {
    let (_, ckpt_path) = latest_checkpoint_path(&config.dir)?.ok_or_else(|| {
        format!(
            "no checkpoint in {} — nothing to recover",
            config.dir.display()
        )
    })?;
    // Open the checkpoint as a mapped, borrowed view: one validation pass
    // over the mapped bytes, **no** array materialization until the backend
    // factory needs owned state. A file that is not a v2 checkpoint fails
    // here, before anything in the directory is touched.
    let mapped = MappedSnapshot::open(&ckpt_path)
        .map_err(|e| format!("opening {}: {e}", ckpt_path.display()))?;
    let in_ckpt = |e: String| format!("{}: {e}", ckpt_path.display());
    let view = CheckpointView::parse(mapped.bytes()).map_err(in_ckpt)?;
    let (graph, tree) = view.materialize().map_err(in_ckpt)?;
    let ckpt_epoch = view.epoch;

    let wal_path = config.dir.join(WAL_FILE);
    let wal_raw =
        fs::read(&wal_path).map_err(|e| format!("reading {}: {e}", wal_path.display()))?;
    let wal_bytes = wal_raw.len() as u64;
    // The format is pure ASCII; non-UTF-8 bytes can only be corruption, and
    // the lossy replacement shifts frame lengths so the damaged record fails
    // its checksum and is handled by the torn/corrupt discrimination below.
    // A replacement grows the text, so only the verified prefix's length,
    // which is all ASCII, is an offset into `wal_raw`.
    let wal_text = String::from_utf8_lossy(&wal_raw);
    let parsed = parse_wal(&wal_text).map_err(|e| e.to_string())?;

    // The checkpoint's tree already matched its recorded fingerprint in
    // `materialize`, so the factory's tree is held to the checkpoint's root
    // and parent array in place: equal arrays give equal fingerprints.
    let mut dfs = factory(graph, tree)?;
    let resumed = dfs.tree();
    if resumed.root() != view.tree().root() || resumed.parent_slice() != view.tree().parent_slice()
    {
        return Err(
            "rebuilt maintainer's tree disagrees with the checkpoint's parent array".to_string(),
        );
    }

    let mut stats = RecoveryStats {
        checkpoint_epoch: ckpt_epoch,
        recovered_epoch: ckpt_epoch,
        records_replayed: 0,
        updates_replayed: 0,
        torn_records_dropped: parsed.torn_records_dropped,
        wal_bytes,
    };
    for record in parsed.records.iter().filter(|r| r.epoch > ckpt_epoch) {
        if record.epoch != stats.recovered_epoch + 1 {
            return Err(format!(
                "WAL resumes at epoch {} but recovery is at epoch {} — a record is missing",
                record.epoch, stats.recovered_epoch
            ));
        }
        dfs.apply_batch(&record.updates);
        let got = dfs.tree().fingerprint();
        if got != record.fingerprint {
            return Err(format!(
                "replay diverged at epoch {}: tree fingerprint {got:016x} != logged {:016x}",
                record.epoch, record.fingerprint
            ));
        }
        stats.recovered_epoch = record.epoch;
        stats.records_replayed += 1;
        stats.updates_replayed += record.updates.len() as u64;
    }

    let writer = WalWriter::reattach(
        config.dir.clone(),
        config.policy,
        stats.records_replayed,
        parsed.valid_len as u64,
    )?;
    let mut server = Server::resume(dfs, stats.recovered_epoch);
    server.set_commit_log(Box::new(writer));
    Ok(Recovered { server, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardfs_core::DynamicDfs;
    use pardfs_graph::generators;
    use pardfs_seq::AugmentedGraph;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("pardfs-wal-test-{}-{tag}-{id}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn parallel_factory(graph: Graph, tree: TreeIndex) -> Result<Box<dyn DfsMaintainer>, String> {
        let aug = AugmentedGraph::from_internal(graph)?;
        Ok(Box::new(DynamicDfs::from_state(
            aug,
            tree,
            pardfs_core::Strategy::Phased,
            pardfs_api::RebuildPolicy::default(),
        )))
    }

    fn durable_server(dir: &Path, policy: CheckpointPolicy) -> (Server, DurabilityConfig) {
        let g = generators::grid(4, 4);
        let mut server = Server::new(Box::new(DynamicDfs::new(&g)));
        let config = DurabilityConfig::new(dir).policy(policy);
        config.attach(&mut server).expect("attach to empty dir");
        (server, config)
    }

    fn commit(server: &mut Server, updates: Vec<Update>) -> u64 {
        let writer = server.write_handle();
        writer.submit(updates);
        server
            .commit()
            .expect("queued batch commits")
            .record
            .fingerprint
    }

    #[test]
    fn attach_log_recover_round_trip() {
        let dir = scratch_dir("roundtrip");
        let (mut server, config) = durable_server(&dir, CheckpointPolicy::Manual);
        commit(&mut server, vec![Update::DeleteEdge(0, 1)]);
        commit(&mut server, vec![Update::InsertEdge(0, 15)]);
        let live_fp = commit(
            &mut server,
            vec![Update::InsertVertex { edges: vec![2, 9] }],
        );
        drop(server); // "crash" after clean syncs

        let recovered = recover_with(&config, parallel_factory).expect("recovery succeeds");
        assert_eq!(recovered.stats.checkpoint_epoch, 0);
        assert_eq!(recovered.stats.recovered_epoch, 3);
        assert_eq!(recovered.stats.records_replayed, 3);
        assert_eq!(recovered.stats.updates_replayed, 3);
        assert_eq!(recovered.stats.torn_records_dropped, 0);
        let server = recovered.server;
        assert_eq!(server.maintainer().tree().fingerprint(), live_fp);
        assert_eq!(server.read_handle().epoch(), 3);
        assert_eq!(server.read_handle().recorded_fingerprint(3), Some(live_fp));
        // The recovered server keeps logging: another commit + recovery.
        let mut server = server;
        let fp4 = commit(&mut server, vec![Update::DeleteEdge(4, 5)]);
        drop(server);
        let again = recover_with(&config, parallel_factory).expect("second recovery");
        assert_eq!(again.stats.recovered_epoch, 4);
        assert_eq!(again.server.maintainer().tree().fingerprint(), fp4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_bounds_replay() {
        let dir = scratch_dir("ckpt");
        let (mut server, config) = durable_server(&dir, CheckpointPolicy::EveryKEpochs(2));
        for i in 0..5u32 {
            commit(&mut server, vec![Update::DeleteEdge(i, i + 1)]);
        }
        drop(server);
        // Epochs 2 and 4 took checkpoints; only epoch 5 remains in the WAL.
        let wal = fs::read_to_string(dir.join(WAL_FILE)).unwrap();
        assert_eq!(wal.matches("record ").count(), 1, "wal: {wal:?}");
        assert!(dir.join(checkpoint_file_name(4)).exists());
        assert!(
            !dir.join(checkpoint_file_name(2)).exists(),
            "superseded checkpoint is removed"
        );
        let recovered = recover_with(&config, parallel_factory).expect("recovery succeeds");
        assert_eq!(recovered.stats.checkpoint_epoch, 4);
        assert_eq!(recovered.stats.records_replayed, 1);
        assert_eq!(recovered.stats.recovered_epoch, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_factory_that_resumes_a_different_tree_is_refused() {
        let dir = scratch_dir("divergent");
        let (server, config) = durable_server(&dir, CheckpointPolicy::Manual);
        drop(server);
        let divergent = |graph, tree| {
            let mut dfs = parallel_factory(graph, tree)?;
            // Cutting the tree edge above user vertex 5 (internal 6) moves it.
            let p = dfs.tree().parent(6).expect("internal 6 is in the tree");
            dfs.apply_update(&Update::DeleteEdge(5, p - 1));
            Ok(dfs)
        };
        let err = match recover_with(&config, divergent) {
            Err(e) => e,
            Ok(_) => panic!("a tree that is not the checkpoint's must be refused"),
        };
        assert!(
            err.contains("disagrees with the checkpoint's parent array"),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn attach_refuses_a_populated_dir() {
        let dir = scratch_dir("refuse");
        let (server, config) = durable_server(&dir, CheckpointPolicy::Manual);
        drop(server);
        let g = generators::path(4);
        let mut fresh = Server::new(Box::new(DynamicDfs::new(&g)));
        let err = config.attach(&mut fresh).expect_err("must refuse");
        assert!(err.contains("recover"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovering_an_empty_dir_is_an_error() {
        let dir = scratch_dir("empty");
        let err = match recover_with(&DurabilityConfig::new(&dir), parallel_factory) {
            Err(e) => e,
            Ok(_) => panic!("recovering an empty dir must fail"),
        };
        assert!(err.contains("no checkpoint"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn binary_checkpoint_round_trips_and_rejects_corruption() {
        let g = generators::broom(6, 6);
        let dfs = DynamicDfs::new(&g);
        let bytes = render_checkpoint(9, &dfs);
        let view = CheckpointView::parse(&bytes).expect("own binary checkpoint parses");
        assert_eq!(view.epoch, 9);
        assert_eq!(view.backend(), dfs.backend_name());
        assert_eq!(view.fingerprint, dfs.tree().fingerprint());
        let (graph, tree) = view.materialize().expect("own checkpoint materializes");
        assert_eq!(&graph, dfs.augmented_graph());
        tree.structural_eq(dfs.tree()).expect("identical tree");
        let resumed = parallel_factory(graph, tree).expect("materialized state resumes");
        assert_eq!(
            render_checkpoint(9, resumed.as_ref()),
            bytes,
            "byte-stable round trip"
        );
        // Any single-byte flip breaks the whole-file checksum.
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 1;
        assert!(CheckpointView::parse(&bad)
            .expect_err("corrupt binary checkpoint rejected")
            .contains("checksum"));
        assert!(CheckpointView::parse(&bytes[..bytes.len() - 7]).is_err());
    }
}
