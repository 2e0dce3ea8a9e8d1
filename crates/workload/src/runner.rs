//! The [`ScenarioRunner`]: drive any `DfsMaintainer` through a [`Trace`],
//! emitting per-phase [`PhaseReport`] roll-ups and the replay fingerprints
//! the corpus CI job diffs against the recorded ones.

use crate::trace::{Trace, TraceBatch, TraceQuery};
use pardfs_api::{DfsMaintainer, IndexMaintenanceStats, StatsRollup};
use pardfs_graph::snap::{fnv1a64, FNV_OFFSET};
use std::time::Instant;

/// Fold one `u64` into a running FNV-1a hash, byte by byte.
fn fold(hash: u64, value: u64) -> u64 {
    fnv1a64(hash, &value.to_le_bytes())
}

/// Fingerprint of a maintainer's current DFS tree (pre-order vertex ids and
/// their parents, in internal ids). By the executor's determinism contract
/// this is identical across thread counts for a fixed backend and trace —
/// which is exactly what the `scenario-corpus` CI job replays and diffs.
///
/// Delegates to [`pardfs_tree::TreeIndex::fingerprint`], the workspace's
/// single source of tree identity — so these fingerprints are directly
/// comparable with the serve layer's per-epoch snapshot fingerprints.
pub fn tree_fingerprint(dfs: &dyn DfsMaintainer) -> u64 {
    dfs.tree().fingerprint()
}

/// Roll-up of one trace phase on one maintainer.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name (from the trace).
    pub name: String,
    /// Aggregated per-update statistics of the phase's update batches.
    pub rollup: StatsRollup,
    /// Queries answered in the phase.
    pub queries: u64,
    /// Wall-clock microseconds spent in the phase (updates + queries).
    pub micros: f64,
    /// Index-maintenance census delta over the phase.
    pub index: IndexMaintenanceStats,
}

/// What one full trace replay did on one maintainer.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name (from the trace).
    pub scenario: String,
    /// Backend that was driven.
    pub backend: String,
    /// Per-phase roll-ups, in trace order.
    pub phases: Vec<PhaseReport>,
    /// Final-tree fingerprint (see [`tree_fingerprint`]).
    pub tree_fingerprint: u64,
    /// Connected-component fingerprint of the final graph (computed on the
    /// runner's scratch mirror — backend-independent by construction).
    pub components_fingerprint: u64,
    /// Folded backend-independent query answers (`same_component` booleans
    /// and component counts, in execution order).
    pub queries_fingerprint: u64,
    /// Total wall-clock microseconds across all phases.
    pub total_micros: f64,
}

impl ScenarioOutcome {
    /// Total updates applied.
    pub fn updates_applied(&self) -> u64 {
        self.phases.iter().map(|p| p.rollup.updates).sum()
    }

    /// Total queries answered.
    pub fn queries_answered(&self) -> u64 {
        self.phases.iter().map(|p| p.queries).sum()
    }

    /// Mean wall-clock microseconds per update (queries included in the
    /// numerator: a scenario's cost is its whole interleaving).
    pub fn mean_micros_per_update(&self) -> f64 {
        let updates = self.updates_applied();
        if updates == 0 {
            0.0
        } else {
            self.total_micros / updates as f64
        }
    }

    /// All phases' statistics merged into one roll-up.
    pub fn rollup(&self) -> StatsRollup {
        let mut total = StatsRollup::default();
        for phase in &self.phases {
            total.merge(&phase.rollup);
        }
        total
    }

    /// Index-maintenance census summed over all phases.
    pub fn index(&self) -> IndexMaintenanceStats {
        let mut total = IndexMaintenanceStats::default();
        for phase in &self.phases {
            total.merge(&phase.index);
        }
        total
    }

    /// Everything structural (non-timing) folded into one value — what the
    /// determinism suite compares across thread counts.
    pub fn structural_fingerprint(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        hash = fold(hash, self.tree_fingerprint);
        hash = fold(hash, self.components_fingerprint);
        hash = fold(hash, self.queries_fingerprint);
        for phase in &self.phases {
            let r = &phase.rollup;
            for v in [
                r.updates,
                r.query_sets,
                r.max_query_sets,
                r.relinked_vertices,
                r.reroot_jobs,
                phase.queries,
                phase.index.patches_applied,
                phase.index.vertices_touched,
                phase.index.fallback_rebuilds,
                phase.index.full_rebuilds,
            ] {
                hash = fold(hash, v);
            }
        }
        hash
    }

    /// Check this replay against the fingerprints recorded in `trace`
    /// (`components`, `queries`, and `tree <backend>` when present). A
    /// missing key is skipped — record-time attaches only what it measured.
    pub fn verify_against(&self, trace: &Trace) -> Result<(), String> {
        let check = |key: &str, actual: u64| -> Result<(), String> {
            match trace.fingerprint(key) {
                Some(expected) if expected != actual => Err(format!(
                    "{} replay of `{}` diverged on `{key}`: recorded {expected:016x}, \
                     replayed {actual:016x}",
                    self.backend, trace.scenario
                )),
                _ => Ok(()),
            }
        };
        check("components", self.components_fingerprint)?;
        check("queries", self.queries_fingerprint)?;
        check(&format!("tree {}", self.backend), self.tree_fingerprint)?;
        Ok(())
    }

    /// Attach this replay's fingerprints to `trace` (used at record time).
    pub fn stamp(&self, trace: &mut Trace) {
        trace.set_fingerprint("components", self.components_fingerprint);
        trace.set_fingerprint("queries", self.queries_fingerprint);
        trace.set_fingerprint(&format!("tree {}", self.backend), self.tree_fingerprint);
    }
}

/// Drives maintainers through one [`Trace`].
#[derive(Debug, Clone, Copy)]
pub struct ScenarioRunner<'a> {
    trace: &'a Trace,
}

impl<'a> ScenarioRunner<'a> {
    /// A runner over `trace`.
    pub fn new(trace: &'a Trace) -> Self {
        ScenarioRunner { trace }
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &Trace {
        self.trace
    }

    /// Replay the whole trace on `dfs` (which must have been built over
    /// [`Trace::initial_graph`]): update batches go through `apply_batch`
    /// (native batch paths included), query batches through the forest
    /// accessors. Returns the per-phase roll-ups and fingerprints.
    pub fn run(&self, dfs: &mut dyn DfsMaintainer) -> ScenarioOutcome {
        let mut scratch = self.trace.initial_graph();
        let mut queries_hash = FNV_OFFSET;
        let mut phases = Vec::with_capacity(self.trace.phases.len());
        let mut total_micros = 0.0;
        for phase in &self.trace.phases {
            let index_before = *dfs.stats().index_maintenance();
            let mut rollup = StatsRollup::default();
            let mut queries = 0u64;
            // Timed windows wrap only the maintainer's own work — the
            // scratch-mirror maintenance and roll-up bookkeeping stay
            // outside, so phase timings (and E12's ns/update records) are
            // backend cost, not runner overhead.
            let mut micros = 0.0;
            for batch in &phase.batches {
                match batch {
                    TraceBatch::Updates(updates) => {
                        let start = Instant::now();
                        let report = dfs.apply_batch(updates);
                        micros += start.elapsed().as_micros() as f64;
                        rollup.absorb_batch(&report);
                        for u in updates {
                            scratch.apply(u);
                        }
                    }
                    TraceBatch::Queries(batch) => {
                        let start = Instant::now();
                        for query in batch {
                            queries += 1;
                            match query {
                                TraceQuery::SameComponent(u, v) => {
                                    let same = dfs.same_component(*u, *v);
                                    queries_hash = fold(queries_hash, 2 + same as u64);
                                }
                                TraceQuery::ForestParent(v) => {
                                    // The answer is tree-shape-dependent, so
                                    // only the act of answering is recorded.
                                    let _ = dfs.forest_parent(*v);
                                    queries_hash = fold(queries_hash, 1);
                                }
                                TraceQuery::ForestRoots => {
                                    let roots = dfs.forest_roots().len() as u64;
                                    queries_hash = fold(queries_hash, 4 + roots);
                                }
                            }
                        }
                        micros += start.elapsed().as_micros() as f64;
                    }
                }
            }
            total_micros += micros;
            phases.push(PhaseReport {
                name: phase.name.clone(),
                rollup,
                queries,
                micros,
                index: dfs.stats().index_maintenance().since(&index_before),
            });
        }
        let (labels, count) = pardfs_graph::connected_components(&scratch);
        let mut components_hash = fold(FNV_OFFSET, count as u64);
        for label in labels {
            components_hash = fold(components_hash, label as u64);
        }
        ScenarioOutcome {
            scenario: self.trace.scenario.clone(),
            backend: dfs.backend_name().to_string(),
            phases,
            tree_fingerprint: tree_fingerprint(dfs),
            components_fingerprint: components_hash,
            queries_fingerprint: queries_hash,
            total_micros,
        }
    }
}
