//! The single update-sequence driver every experiment uses.
//!
//! Before the unified [`DfsMaintainer`] trait existed, each experiment carried
//! its own copy of the measure-one-backend loop (one per backend × experiment,
//! ~500 lines of duplication). Now there is exactly one driver: it applies an
//! update sequence to *any* maintainer, timing each update and collecting its
//! [`StatsReport`]; the experiments read its engine record (and its model
//! record where a table is model-specific).

use pardfs::{DfsMaintainer, StatsReport, Update};
use std::time::Instant;

/// Per-update measurements of one driven maintainer.
#[derive(Debug, Clone)]
pub struct DriveSummary {
    /// Wall-clock microseconds per update.
    pub micros: Vec<f64>,
    /// The maintainer's statistics after each update.
    pub per_update: Vec<StatsReport>,
}

impl DriveSummary {
    /// Mean wall-clock microseconds per update.
    pub fn mean_micros(&self) -> f64 {
        mean(&self.micros)
    }

    /// Mean query sets per update (the paper's cross-model cost measure).
    pub fn mean_query_sets(&self) -> f64 {
        mean(&self.collect(|r| r.total_query_sets() as f64))
    }

    /// Maximum query sets any update needed.
    pub fn max_query_sets(&self) -> u64 {
        self.per_update
            .iter()
            .map(|r| r.total_query_sets())
            .max()
            .unwrap_or(0)
    }

    /// Mean engine rounds per update (0 for the sequential baseline, which
    /// has no round structure).
    pub fn mean_rounds(&self) -> f64 {
        mean(&self.collect(|r| r.engine.reroot.rounds as f64))
    }

    /// Maximum engine rounds any update needed.
    pub fn max_rounds(&self) -> u64 {
        self.per_update
            .iter()
            .map(|r| r.engine.reroot.rounds)
            .max()
            .unwrap_or(0)
    }

    /// Mean wall-clock microseconds spent in the reduction and the reroot
    /// (excluding index and `D` maintenance).
    pub fn mean_reroot_micros(&self) -> f64 {
        mean(&self.collect(|r| r.engine.reroot_micros as f64))
    }

    /// Project one number per update.
    pub fn collect(&self, f: impl Fn(&StatsReport) -> f64) -> Vec<f64> {
        self.per_update.iter().map(f).collect()
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Apply `updates` one by one, timing each and snapshotting the maintainer's
/// statistics. The tree is not validated; callers that want it call
/// [`DfsMaintainer::check`].
pub fn drive(dfs: &mut dyn DfsMaintainer, updates: &[Update]) -> DriveSummary {
    let mut micros = Vec::with_capacity(updates.len());
    let mut per_update = Vec::with_capacity(updates.len());
    for update in updates {
        let start = Instant::now();
        dfs.apply_update(update);
        micros.push(start.elapsed().as_micros() as f64);
        per_update.push(dfs.stats());
    }
    DriveSummary { micros, per_update }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardfs::{Backend, MaintainerBuilder};
    use pardfs_workload::{workload, Family, Workload};

    #[test]
    fn drive_collects_one_report_per_update() {
        let Workload { graph, updates } = workload(Family::Sparse, 64, 12, 3);
        for backend in Backend::all_default() {
            let mut dfs = MaintainerBuilder::new(backend).build(&graph);
            let summary = drive(dfs.as_mut(), &updates);
            assert_eq!(summary.per_update.len(), updates.len());
            assert_eq!(summary.micros.len(), updates.len());
            assert!(summary.mean_micros() > 0.0, "{}", dfs.backend_name());
            assert!(dfs.check().is_ok(), "{}", dfs.backend_name());
        }
    }

    #[test]
    fn summary_accessors_are_consistent() {
        let Workload { graph, updates } = workload(Family::Broom, 64, 10, 5);
        let mut dfs = MaintainerBuilder::new(Backend::Parallel).build(&graph);
        let summary = drive(dfs.as_mut(), &updates);
        assert!(summary.max_query_sets() as f64 >= summary.mean_query_sets());
        assert!(summary.max_rounds() as f64 >= summary.mean_rounds());
    }
}
