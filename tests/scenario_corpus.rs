//! Corpus replay suite: every checked-in trace under `tests/corpus/` is
//! parsed, round-tripped, and replayed on **all five** backends; the replay
//! fingerprints must match the ones recorded in the file.
//!
//! The `scenario-corpus` CI job runs this at `PARDFS_THREADS=1` and `4`, so
//! a backend whose answer on a frozen workload drifts — across commits *or*
//! across thread counts — fails the PR with the exact trace named. A change
//! that legitimately alters what a backend computes must regenerate the
//! corpus (`cargo run --release -p pardfs-bench --bin record_corpus`) and
//! commit the diff, making the behavioural change reviewable.
//!
//! The same replays also check the work each backend did against
//! `tests/corpus/work.ledger` (see
//! `corpus_replays_match_recorded_fingerprints_on_every_backend`), so a
//! refactor that changes how much a backend queries, relinks or rebuilds
//! fails here even when every answer stays the same. Regenerating the corpus
//! means re-recording the ledger too.
//!
//! The `--ignored` deep sweep re-records every scenario family at a larger
//! size and replays it everywhere (nightly CI; set `SCENARIO_SWEEP_DIR` to
//! keep the per-backend roll-up summaries as an artifact).

use pardfs::{Backend, MaintainerBuilder, Scenario, Trace};
use std::fmt::Write as _;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_traces() -> Vec<(String, Trace, String)> {
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
            (name, trace, text)
        })
        .collect()
}

#[test]
fn corpus_is_nonempty_and_round_trips_byte_identically() {
    let traces = corpus_traces();
    assert!(
        traces.len() >= 3,
        "the corpus must hold at least 3 traces, found {}",
        traces.len()
    );
    for (name, trace, text) in &traces {
        assert_eq!(
            &trace.render(),
            text,
            "{name}: checked-in bytes are not the canonical rendering"
        );
        // Every corpus trace must carry the full fingerprint set — the
        // replay test below silently skips absent keys, so absence here
        // would hollow the suite out.
        assert!(trace.fingerprint("components").is_some(), "{name}");
        assert!(trace.fingerprint("queries").is_some(), "{name}");
        for backend in [
            "parallel",
            "sequential",
            "streaming",
            "congest",
            "fault-tolerant",
        ] {
            assert!(
                trace.fingerprint(&format!("tree {backend}")).is_some(),
                "{name}: missing tree fingerprint for {backend}"
            );
        }
    }
}

/// Replays every (corpus trace, backend) pair, checks the final tree and the
/// recorded fingerprints, and compares the work the replay did with
/// `tests/corpus/work.ledger` exactly: one line per (trace, backend,
/// counter), holding the replay's summed [`pardfs::StatsRollup`], the
/// queries answered and the index-maintenance census.
///
/// A change that alters that work on purpose re-records the ledger with
/// `PARDFS_RECORD_LEDGER=1 cargo test --release --test scenario_corpus` and
/// commits the diff, so the new counts are reviewed like the corpus
/// fingerprints are.
#[test]
fn corpus_replays_match_recorded_fingerprints_on_every_backend() {
    let mut ledger = String::from("# trace backend counter value\n");
    for (name, trace, _) in corpus_traces() {
        for backend in Backend::all_default() {
            let (dfs, outcome) = MaintainerBuilder::new(backend).run_scenario(&trace);
            dfs.check()
                .unwrap_or_else(|e| panic!("{name}/{}: invalid final tree: {e}", outcome.backend));
            outcome
                .verify_against(&trace)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                outcome.updates_applied() as usize,
                trace.num_updates(),
                "{name}/{}: dropped updates",
                outcome.backend
            );
            let rollup = outcome.rollup();
            let index = outcome.index();
            for (counter, value) in [
                ("updates", rollup.updates),
                ("query_sets", rollup.query_sets),
                ("max_query_sets", rollup.max_query_sets),
                ("relinked_vertices", rollup.relinked_vertices),
                ("reroot_jobs", rollup.reroot_jobs),
                ("queries", outcome.queries_answered()),
                ("patches_applied", index.patches_applied),
                ("vertices_touched", index.vertices_touched),
                ("fallback_rebuilds", index.fallback_rebuilds),
                ("full_rebuilds", index.full_rebuilds),
            ] {
                let _ = writeln!(ledger, "{name} {} {counter} {value}", outcome.backend);
            }
        }
    }
    let path = corpus_dir().join("work.ledger");
    if std::env::var_os("PARDFS_RECORD_LEDGER").is_some() {
        std::fs::write(&path, &ledger).expect("write tests/corpus/work.ledger");
    }
    let recorded = std::fs::read_to_string(&path).expect("tests/corpus/work.ledger exists");
    for (line, (want, got)) in recorded.lines().zip(ledger.lines()).enumerate() {
        assert_eq!(got, want, "work.ledger line {} drifted", line + 1);
    }
    assert_eq!(
        ledger.lines().count(),
        recorded.lines().count(),
        "work.ledger: replayed and recorded line counts differ"
    );
}

/// Nightly deep sweep: freshly record every scenario family at a larger
/// size, replay it on every backend, and require cross-backend agreement on
/// the backend-independent fingerprints plus a valid tree everywhere.
#[test]
#[ignore]
fn deep_scenario_sweep() {
    let n = 384;
    let mut summary = String::new();
    for (i, scenario) in Scenario::all().into_iter().enumerate() {
        let trace = scenario.record(n, 0xDEEB + i as u64);
        let mut reference: Option<(u64, u64)> = None;
        for backend in Backend::all_default() {
            let (dfs, outcome) = MaintainerBuilder::new(backend).run_scenario(&trace);
            dfs.check().unwrap_or_else(|e| {
                panic!(
                    "{}/{}: invalid final tree: {e}",
                    scenario.name(),
                    outcome.backend
                )
            });
            match reference {
                None => {
                    reference = Some((outcome.components_fingerprint, outcome.queries_fingerprint));
                }
                Some(expected) => assert_eq!(
                    (outcome.components_fingerprint, outcome.queries_fingerprint),
                    expected,
                    "{}/{}: backend-independent answers diverged",
                    scenario.name(),
                    outcome.backend
                ),
            }
            let rollup = outcome.rollup();
            let _ = writeln!(
                summary,
                "{} {} updates={} queries={} query_sets={} relinked={} patches={} rebuilds={} \
                 tree={:016x}",
                scenario.name(),
                outcome.backend,
                outcome.updates_applied(),
                outcome.queries_answered(),
                rollup.query_sets,
                rollup.relinked_vertices,
                outcome.index().patches_applied,
                outcome.index().full_rebuilds,
                outcome.tree_fingerprint,
            );
        }
    }
    print!("{summary}");
    if let Some(dir) = std::env::var_os("SCENARIO_SWEEP_DIR") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create sweep dir");
        std::fs::write(dir.join(format!("sweep_n{n}.txt")), summary).expect("write sweep summary");
    }
}
