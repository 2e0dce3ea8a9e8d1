//! Crash-recovery fault-injection suite: every checked-in corpus trace is
//! served durably (checkpointing every 3 epochs, and with manual checkpoints
//! only), the server is killed at a seeded-random batch boundary,
//! recovered from the WAL + latest checkpoint, and driven through the rest of
//! the trace — the final tree fingerprint must equal the one an undisturbed
//! single-[`ScenarioRunner`](pardfs::scenario::ScenarioRunner) replay
//! produces. All five backends are exercised; the kill seed is printed in
//! every failure message so a CI failure is reproducible with
//! `PARDFS_WAL_KILL_SEED=<seed>`.
//!
//! Torn-write coverage at the integration level: the WAL's final record is
//! truncated at **every byte offset** (recovery must always land on the last
//! complete epoch), and an interior record is damaged by one byte (recovery
//! must refuse with a hard error naming the epoch — resuming past silent
//! corruption would serve a wrong tree as if it were durable). A byte that
//! is not UTF-8 at the start of an interior header is refused the same way;
//! at the start of the final header it is a torn tail, and the log is cut
//! exactly where that header began.
//!
//! Format coverage: a directory whose latest checkpoint is not a
//! `pardfs-snap v2` container (a legacy text checkpoint, or a container with
//! the first binary version's magic) must be refused with an error naming
//! the file, leaving `wal.log` and the checkpoint byte-identical.
//!
//! The `--ignored` deep sweep replays one trace killed at **every** batch
//! boundary on every backend (nightly CI; set `WAL_SWEEP_DIR` to keep the
//! roll-up summary as an artifact).

use pardfs::scenario::{tree_fingerprint, TraceBatch};
use pardfs::{Backend, CheckpointPolicy, DurabilityConfig, MaintainerBuilder, Trace, Update};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_traces() -> Vec<(String, Trace)> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "trace"))
        .collect();
    entries.sort();
    entries
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable trace");
            let trace =
                Trace::parse(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
            (name, trace)
        })
        .collect()
}

/// A fresh scratch directory under the OS temp dir; pre-wiped.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "pardfs-wal-recovery-{}-{id}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The trace's update batches in commit order (query batches don't commit).
fn update_batches(trace: &Trace) -> Vec<Vec<Update>> {
    trace
        .phases
        .iter()
        .flat_map(|p| &p.batches)
        .filter_map(|b| match b {
            TraceBatch::Updates(u) => Some(u.clone()),
            TraceBatch::Queries(_) => None,
        })
        .collect()
}

fn backend_label(backend: Backend) -> &'static str {
    match backend {
        Backend::Parallel => "parallel",
        Backend::Sequential => "sequential",
        Backend::Streaming => "streaming",
        Backend::Congest { .. } => "congest",
        Backend::FaultTolerant => "fault-tolerant",
    }
}

/// Serve the trace durably, kill (drop) the server after `kill` committed
/// batches, recover, commit the remainder, and return the final fingerprint.
/// `ctx` prefixes every panic so failures name the trace, backend, seed and
/// kill point.
fn kill_and_recover(
    trace: &Trace,
    backend: Backend,
    kill: usize,
    policy: CheckpointPolicy,
    ctx: &str,
) -> u64 {
    let batches = update_batches(trace);
    assert!(kill <= batches.len(), "{ctx}: kill point out of range");
    let dir = scratch_dir(backend_label(backend));
    let builder = MaintainerBuilder::new(backend);
    let config = DurabilityConfig::new(&dir).policy(policy);

    let mut server = builder
        .serve_durable(&trace.initial_graph(), &config)
        .unwrap_or_else(|e| panic!("{ctx}: serve_durable failed: {e}"));
    let writer = server.write_handle();
    for batch in &batches[..kill] {
        writer.submit(batch.clone());
        server
            .commit()
            .unwrap_or_else(|| panic!("{ctx}: pre-kill commit committed nothing"));
    }
    drop(writer);
    drop(server); // the kill: state survives only on disk

    let recovered = builder
        .recover(&config)
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    assert_eq!(
        recovered.stats.recovered_epoch, kill as u64,
        "{ctx}: recovered to the wrong epoch ({:?})",
        recovered.stats
    );
    assert_eq!(
        recovered.stats.torn_records_dropped, 0,
        "{ctx}: clean shutdown left a torn record"
    );
    if matches!(policy, CheckpointPolicy::Manual) {
        assert_eq!(
            (
                recovered.stats.checkpoint_epoch,
                recovered.stats.records_replayed
            ),
            (0, kill as u64),
            "{ctx}: a manual-policy log replays every record from the attach checkpoint"
        );
    }

    let mut server = recovered.server;
    let writer = server.write_handle();
    for batch in &batches[kill..] {
        writer.submit(batch.clone());
        server
            .commit()
            .unwrap_or_else(|| panic!("{ctx}: post-recovery commit committed nothing"));
    }
    assert_eq!(
        server.read_handle().epoch(),
        batches.len() as u64,
        "{ctx}: epoch numbering did not survive recovery"
    );
    let fp = tree_fingerprint(server.maintainer());
    drop(writer);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    fp
}

/// The headline suite: every corpus trace × every backend, killed at one
/// seeded-random batch boundary, must recover onto the undisturbed
/// trajectory — under a checkpoint every 3 epochs, and under
/// `CheckpointPolicy::Manual`, where recovery replays the whole WAL from the
/// attach checkpoint.
#[test]
fn kill_at_random_batch_recovers_the_undisturbed_trajectory_on_every_backend() {
    let seed = std::env::var("PARDFS_WAL_KILL_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0x57A5_517E);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for (name, trace) in corpus_traces() {
        let batches = update_batches(&trace);
        assert!(
            batches.len() >= 2,
            "{name}: needs at least 2 update batches for a mid-stream kill"
        );
        for backend in Backend::all_default() {
            // A mid-stream kill point: at least one batch before, one after.
            let kill = rng.gen_range(1..batches.len());
            let ctx = format!(
                "{name}/{} (seed={seed}, kill after batch {kill}/{})",
                backend_label(backend),
                batches.len()
            );
            let (_, outcome) = MaintainerBuilder::new(backend).run_scenario(&trace);
            for policy in [CheckpointPolicy::EveryKEpochs(3), CheckpointPolicy::Manual] {
                let ctx = format!("{ctx} {policy:?}");
                let recovered_fp = kill_and_recover(&trace, backend, kill, policy, &ctx);
                assert_eq!(
                    recovered_fp, outcome.tree_fingerprint,
                    "{ctx}: recovered trajectory diverged from the undisturbed replay"
                );
            }
        }
    }
}

/// Write a small durable run (checkpoint only at attach) and return the dir
/// plus the clean WAL bytes and the per-prefix reference fingerprints: the
/// fingerprint after each committed epoch, epoch 0 included.
fn seeded_wal_run(trace: &Trace, commits: usize) -> (PathBuf, Vec<u8>, Vec<u64>) {
    let batches = update_batches(trace);
    assert!(commits <= batches.len());
    let dir = scratch_dir("torn");
    let builder = MaintainerBuilder::new(Backend::Parallel);
    let config = DurabilityConfig::new(&dir).policy(CheckpointPolicy::Manual);
    let mut server = builder
        .serve_durable(&trace.initial_graph(), &config)
        .expect("fresh dir attaches");
    let writer = server.write_handle();
    let mut fingerprints = vec![tree_fingerprint(server.maintainer())];
    for batch in &batches[..commits] {
        writer.submit(batch.clone());
        server.commit().expect("commit");
        fingerprints.push(tree_fingerprint(server.maintainer()));
    }
    drop(writer);
    drop(server);
    let wal = std::fs::read(dir.join("wal.log")).expect("read wal");
    (dir, wal, fingerprints)
}

/// Torn final record: truncating the WAL at **every** byte offset inside the
/// final record must always recover to the last complete epoch — never an
/// error, never a wrong tree.
#[test]
fn truncating_the_final_record_at_every_byte_offset_recovers_the_last_complete_epoch() {
    let (_, trace) = corpus_traces()
        .into_iter()
        .find(|(name, _)| name.starts_with("merge-split-storm"))
        .expect("merge-split-storm trace is in the corpus");
    let commits = 3;
    let (dir, wal, fingerprints) = seeded_wal_run(&trace, commits);
    let builder = MaintainerBuilder::new(Backend::Parallel);
    let config = DurabilityConfig::new(&dir).policy(CheckpointPolicy::Manual);

    let text = String::from_utf8(wal.clone()).expect("wal is text");
    let final_start = text.rfind("\nrecord ").expect("3 records on disk") + 1;
    for cut in final_start..wal.len() {
        // Restore the clean log, then tear it mid-final-record. (Recovery
        // itself truncates the torn tail on reattach, so restore each time.)
        std::fs::write(dir.join("wal.log"), &wal[..cut]).expect("tear the wal");
        let recovered = builder
            .recover(&config)
            .unwrap_or_else(|e| panic!("cut at byte {cut}/{}: recovery failed: {e}", wal.len()));
        assert_eq!(
            recovered.stats.recovered_epoch,
            (commits - 1) as u64,
            "cut at byte {cut}: did not land on the last complete epoch"
        );
        assert_eq!(
            tree_fingerprint(recovered.server.maintainer()),
            fingerprints[commits - 1],
            "cut at byte {cut}: recovered the wrong tree"
        );
        if cut > final_start {
            assert!(
                recovered.stats.torn_records_dropped > 0 || recovered.stats.wal_bytes > 0,
                "cut at byte {cut}: torn bytes vanished without being reported"
            );
        }
        assert_eq!(
            std::fs::read(dir.join("wal.log")).expect("wal survives"),
            wal[..final_start],
            "cut at byte {cut}: reattach did not cut the log at the final header"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bytes that are not UTF-8 where the *final* record's header starts are a
/// torn tail, and reattach cuts `wal.log` exactly at that header. Lossy
/// decoding turns each such byte into a 3-byte U+FFFD, so a cut measured on
/// the decoded text would land inside the previous record's `sync` line, and
/// the next recovery would drop that durable epoch as a torn tail. Checked
/// for one byte, the header line and the whole record; each time one more
/// commit follows and a second recovery must reach it.
#[test]
fn non_utf8_bytes_opening_the_final_header_are_cut_at_that_header() {
    let (_, trace) = corpus_traces()
        .into_iter()
        .find(|(name, _)| name.starts_with("merge-split-storm"))
        .expect("merge-split-storm trace is in the corpus");
    let commits = 3;
    let batches = update_batches(&trace);
    let builder = MaintainerBuilder::new(Backend::Parallel);
    for span in ["byte", "header line", "record"] {
        let (dir, wal, fingerprints) = seeded_wal_run(&trace, commits);
        let config = DurabilityConfig::new(&dir).policy(CheckpointPolicy::Manual);
        let text = String::from_utf8(wal.clone()).expect("wal is text");
        let final_start = text.rfind("\nrecord ").expect("3 records on disk") + 1;
        let run = match span {
            "byte" => 1,
            "header line" => text[final_start..].find('\n').expect("header line ends"),
            _ => wal.len() - final_start,
        };
        let ctx = format!("0xff over the final {span} ({run} bytes)");
        let mut damaged = wal.clone();
        damaged[final_start..final_start + run].fill(0xFF);
        std::fs::write(dir.join("wal.log"), &damaged).expect("damage the wal");

        let recovered = builder
            .recover(&config)
            .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        assert_eq!(
            (
                recovered.stats.recovered_epoch,
                recovered.stats.torn_records_dropped
            ),
            ((commits - 1) as u64, 1),
            "{ctx}: {:?}",
            recovered.stats
        );
        assert_eq!(
            std::fs::read(dir.join("wal.log")).expect("wal survives"),
            wal[..final_start],
            "{ctx}: reattach did not cut the log at the final header"
        );
        let mut server = recovered.server;
        let writer = server.write_handle();
        writer.submit(batches[commits - 1].clone());
        server.commit().expect("commit after recovery");
        drop(writer);
        drop(server);

        let again = builder
            .recover(&config)
            .unwrap_or_else(|e| panic!("{ctx}: second recovery failed: {e}"));
        assert_eq!(
            (
                again.stats.recovered_epoch,
                again.stats.torn_records_dropped
            ),
            (commits as u64, 0),
            "{ctx}: the second recovery lost an epoch"
        );
        assert_eq!(
            tree_fingerprint(again.server.maintainer()),
            fingerprints[commits],
            "{ctx}: the second recovery served the wrong tree"
        );
        drop(again);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Interior corruption is not a torn tail: one flipped byte in a record that
/// is *followed by* a complete record must fail recovery with an error that
/// names the damaged epoch.
#[test]
fn flipping_one_byte_of_an_interior_record_fails_recovery_naming_the_epoch() {
    let (_, trace) = corpus_traces()
        .into_iter()
        .find(|(name, _)| name.starts_with("merge-split-storm"))
        .expect("merge-split-storm trace is in the corpus");
    let (dir, wal, _) = seeded_wal_run(&trace, 3);
    let builder = MaintainerBuilder::new(Backend::Parallel);
    let config = DurabilityConfig::new(&dir).policy(CheckpointPolicy::Manual);

    let text = String::from_utf8(wal.clone()).expect("wal is text");
    // Damage epoch 2's body: first byte after its header line. Records 1 and
    // 3 stay intact, so the resync scan sees a complete record *after* the
    // damage and must refuse rather than treat it as a torn tail.
    let hdr = text.find("\nrecord 2 ").expect("epoch 2 on disk") + 1;
    let body = hdr + text[hdr..].find('\n').expect("header line ends") + 1;
    let mut damaged = wal.clone();
    damaged[body] ^= 0x01;
    std::fs::write(dir.join("wal.log"), &damaged).expect("damage the wal");

    let err = match builder.recover(&config) {
        Err(e) => e,
        Ok(_) => panic!("recovery accepted an interior-corrupt WAL"),
    };
    assert!(
        err.contains("epoch 2"),
        "error does not name the damaged epoch: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A byte that is not UTF-8 where a record header starts: recovery decodes
/// the log lossily, so the damaged byte becomes a 3-byte U+FFFD and the
/// resync scan starts inside it. With record 3 intact after the damage, the
/// answer is the corruption error for an unreadable header, not a panic.
#[test]
fn a_non_utf8_byte_opening_an_interior_header_fails_recovery_as_corrupt() {
    let (_, trace) = corpus_traces()
        .into_iter()
        .find(|(name, _)| name.starts_with("merge-split-storm"))
        .expect("merge-split-storm trace is in the corpus");
    let (dir, wal, _) = seeded_wal_run(&trace, 3);
    let builder = MaintainerBuilder::new(Backend::Parallel);
    let config = DurabilityConfig::new(&dir).policy(CheckpointPolicy::Manual);

    let text = String::from_utf8(wal.clone()).expect("wal is text");
    let hdr = text.find("\nrecord 2 ").expect("epoch 2 on disk") + 1;
    let mut damaged = wal.clone();
    damaged[hdr] = 0xFF;
    std::fs::write(dir.join("wal.log"), &damaged).expect("damage the wal");

    let err = match builder.recover(&config) {
        Err(e) => e,
        Ok(_) => panic!("recovery accepted an interior-corrupt WAL"),
    };
    assert!(
        err.contains("WAL record with unreadable header is corrupt"),
        "{err}"
    );
    assert_eq!(
        std::fs::read(dir.join("wal.log")).expect("wal still there"),
        damaged,
        "a refused recovery rewrote the log"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recover a directory whose latest checkpoint has been replaced by
/// `foreign` (a file in a format recovery no longer reads) and demand a
/// described refusal: an `Err` naming the checkpoint file, with `wal.log`
/// and the checkpoint left byte-identical — nothing is truncated, rewritten
/// or replayed on the strength of a file recovery cannot read.
fn assert_refused_untouched(foreign: impl FnOnce(Vec<u8>) -> Vec<u8>) {
    let (_, trace) = corpus_traces()
        .into_iter()
        .find(|(name, _)| name.starts_with("merge-split-storm"))
        .expect("merge-split-storm trace is in the corpus");
    let (dir, wal, _) = seeded_wal_run(&trace, 3);
    let ckpt_path = dir.join(format!("checkpoint-{:016x}.ckpt", 0));
    let current = std::fs::read(&ckpt_path).expect("attach checkpoint exists");
    let planted = foreign(current);
    std::fs::write(&ckpt_path, &planted).expect("plant the foreign checkpoint");

    let config = DurabilityConfig::new(&dir).policy(CheckpointPolicy::Manual);
    let err = match MaintainerBuilder::new(Backend::Parallel).recover(&config) {
        Err(e) => e,
        Ok(_) => panic!("recovery accepted a checkpoint it cannot read"),
    };
    assert!(
        err.contains(&ckpt_path.display().to_string()),
        "error does not name the checkpoint: {err}"
    );
    assert!(
        err.contains("not a pardfs-snap v2 container"),
        "error does not say why the checkpoint was refused: {err}"
    );
    assert_eq!(
        std::fs::read(dir.join("wal.log")).expect("wal survives"),
        wal,
        "a refused recovery modified wal.log"
    );
    assert_eq!(
        std::fs::read(&ckpt_path).expect("checkpoint survives"),
        planted,
        "a refused recovery modified the checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A line-oriented text checkpoint, the format of the earliest builds, is
/// refused rather than recovered.
#[test]
fn legacy_text_checkpoints_are_refused_untouched() {
    assert_refused_untouched(|_| {
        "pardfs-checkpoint v1\nepoch 0\nbackend parallel\nfingerprint 0000000000000000\n\
         graph 2 1\nadj 0 1\nadj 1 0\ngraph-end\ntree 0 2\nparents 0 0\ntree-end\n\
         checksum 0000000000000000\n"
            .as_bytes()
            .to_vec()
    });
}

/// A container carrying the first binary version's magic is refused by the
/// magic check, before its table or checksum is trusted.
#[test]
fn v1_binary_checkpoints_are_refused_untouched() {
    assert_refused_untouched(|mut bytes| {
        assert!(
            bytes.starts_with(&pardfs::graph::snap::SNAP_MAGIC_V2),
            "freshly written checkpoints are v2"
        );
        bytes[7] = b'1'; // the version digit of the magic
        bytes
    });
}

/// Nightly deep sweep: one trace, every backend, killed at **every** batch
/// boundary (including before the first and after the last commit). Set
/// `WAL_SWEEP_DIR` to keep the roll-up as an artifact.
#[test]
#[ignore]
fn deep_kill_point_sweep() {
    let (name, trace) = corpus_traces()
        .into_iter()
        .find(|(name, _)| name.starts_with("merge-split-storm"))
        .expect("merge-split-storm trace is in the corpus");
    let batches = update_batches(&trace);
    let mut summary = String::new();
    for backend in Backend::all_default() {
        let (_, outcome) = MaintainerBuilder::new(backend).run_scenario(&trace);
        for kill in 0..=batches.len() {
            let ctx = format!(
                "{name}/{} (sweep, kill after batch {kill}/{})",
                backend_label(backend),
                batches.len()
            );
            let fp = kill_and_recover(
                &trace,
                backend,
                kill,
                CheckpointPolicy::EveryKEpochs(3),
                &ctx,
            );
            assert_eq!(
                fp, outcome.tree_fingerprint,
                "{ctx}: recovered trajectory diverged from the undisturbed replay"
            );
            let _ = writeln!(
                summary,
                "{name} {} kill={kill} tree={fp:016x} ok",
                backend_label(backend)
            );
        }
    }
    print!("{summary}");
    if let Some(dir) = std::env::var_os("WAL_SWEEP_DIR") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create sweep dir");
        std::fs::write(dir.join("wal_kill_sweep.txt"), summary).expect("write sweep summary");
    }
}
