//! # pardfs-workload
//!
//! The **scenario engine** of the pardfs workspace: recordable, replayable
//! workload traces plus a library of adversarial scenario generators, layered
//! over the graph families and the `Update`/`UpdateMix` machinery of
//! `pardfs-graph`.
//!
//! Three layers:
//!
//! * [`families`] — the named static graph families (sparse, dense,
//!   near-path, broom, grid) and the one-shot [`Workload`] builders the bench
//!   harness has always used (promoted here from `pardfs-bench`);
//! * [`trace`] — the versioned, line-delimited **trace format**: a seeded
//!   header, the initial edge list, and a body of interleaved update batches
//!   and query batches, with optional recorded fingerprints for regression
//!   replay (format spec below and, normatively, in `docs/FORMATS.md` at
//!   the repository root);
//! * [`scenario`] + [`runner`] — six named **scenario families** beyond the
//!   static graphs (preferential-attachment growth with aging deletions,
//!   component merge/split storms, hub-death cascades, adversarial deep-path
//!   reroot stressors, query-heavy read-mostly service, vertex-churn
//!   pipelines), each a composable phase sequence recorded into a [`Trace`];
//!   and the [`ScenarioRunner`] that drives any `DfsMaintainer` through a
//!   trace, emitting per-phase [`PhaseReport`] roll-ups;
//! * [`concurrent`] — the [`ConcurrentScenarioRunner`]: the same trace
//!   replayed through the `pardfs-serve` layer, with one writer group
//!   committing the update batches and `M` reader threads replaying the
//!   query batches against live epoch snapshots — the scenario families as
//!   concurrent-serving benchmarks.
//!
//! ## Trace format (`pardfs-trace v1`)
//!
//! A trace is plain UTF-8 text, line-delimited, in five sections. Rendering
//! is canonical: `Trace::parse(&t.render())` re-renders **byte-identically**
//! (pinned by a property test), so traces can be checked in and diffed.
//!
//! ```text
//! pardfs-trace v1                  # magic + format version
//! scenario <name>                  # scenario family that produced the trace
//! seed <u64>                       # generation seed (reproducibility stamp)
//! n <usize>                        # initial vertex-id capacity
//! m <usize>                        # initial edge count
//! phase <name> updates=<u> queries=<q>   # one summary line per phase
//! edges <m>                        # edge-list section header
//! <u> <v>                          # one initial edge per line, m lines
//! body                             # body section header
//! !phase <name>                    # phase marker
//! batch update <k>                 # update batch of k records
//! ie <u> <v>                       #   InsertEdge(u, v)
//! de <u> <v>                       #   DeleteEdge(u, v)
//! iv [<v>...]                      #   InsertVertex { edges }
//! dv <v>                           #   DeleteVertex(v)
//! batch query <k>                  # query batch of k records
//! sc <u> <v>                       #   same_component(u, v)
//! fp <v>                           #   forest_parent(v)
//! roots                            #   forest_roots()
//! fingerprint <key> <hex16>        # zero or more recorded fingerprints
//! end                              # terminator (truncation detector)
//! ```
//!
//! Fingerprint keys: `components` (connected-component labelling of the
//! final graph — backend-independent), `queries` (folded `same_component`
//! answers and component counts — backend-independent), and `tree <backend>`
//! (the final DFS tree of that backend — identical across thread counts by
//! the executor's determinism contract, so the corpus CI job replays each
//! trace at `PARDFS_THREADS=1,4` and diffs against these).
//!
//! All vertex ids in a trace are **user** ids; updates must be valid when
//! applied in order to the initial graph (the [`TraceBuilder`] enforces this
//! at recording time, and [`ScenarioRunner::run`] re-applies them to a
//! scratch mirror at replay time).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrent;
pub mod families;
pub mod runner;
pub mod scenario;
pub mod trace;
pub mod wal;

pub use concurrent::{ConcurrentOutcome, ConcurrentScenarioRunner, EpochReader, Served};
pub use families::{edge_workload, rng, workload, Family, Workload};
pub use runner::{tree_fingerprint, PhaseReport, ScenarioOutcome, ScenarioRunner};
pub use scenario::{Scenario, TraceBuilder};
pub use trace::{Trace, TraceBatch, TracePhase, TraceQuery};
pub use wal::{parse_wal, render_wal, WalError, WalParse, WalRecord, WAL_MAGIC};
