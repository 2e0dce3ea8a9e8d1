//! Unified statistics and batch reporting across backends.

use crate::policy::{IndexMaintenanceStats, RebuildPolicyStats};
use crate::stats::{CongestStats, StreamStats, UpdateStats};
use pardfs_graph::Vertex;

/// The statistics of one update, in one record for all five backends.
///
/// Every backend runs the paper's one algorithm — a reduction to subtree
/// reroots, answered by sets of independent queries on `D` — so every
/// backend fills the same [`UpdateStats`], the sequential baseline included.
/// Beside it sit the maintainer's cumulative [`IndexMaintenanceStats`] (all
/// five backends keep their tree index by delta-patching) and at most one
/// record of the execution model's own counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsReport {
    /// Reduction and reroot statistics of the update.
    pub engine: UpdateStats,
    /// What the index-maintenance policy has done so far.
    pub index: IndexMaintenanceStats,
    /// The execution model's own counters; `None` for the sequential and
    /// fault tolerant backends, which keep none.
    pub model: Option<ModelStats>,
}

/// The counters an execution model keeps beside the engine's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelStats {
    /// What the parallel maintainer's amortized rebuild policy has done so
    /// far ([`crate::RebuildPolicy`]).
    Rebuild(RebuildPolicyStats),
    /// Stream access of the semi-streaming maintainer's last update.
    Stream(StreamStats),
    /// Simulated network cost of the CONGEST maintainer's last update.
    Congest(CongestStats),
}

impl StatsReport {
    /// Sequential sets of independent `D` queries the update needed — the
    /// paper's cross-model cost measure (query sets ≙ streaming passes ≙
    /// broadcast phases).
    pub fn total_query_sets(&self) -> u64 {
        self.engine.total_query_sets()
    }

    /// Number of vertices whose parent pointer the update rewrote.
    pub fn relinked_vertices(&self) -> u64 {
        self.engine.reroot.relinked_vertices
    }

    /// Cumulative index-maintenance census (patches spliced, vertices
    /// touched, fallback rebuilds).
    pub fn index_maintenance(&self) -> &IndexMaintenanceStats {
        &self.index
    }

    /// The engine statistics. Always `Some`: every backend fills them. The
    /// `Option` remains so that code written when the sequential baseline
    /// kept a record of its own still compiles.
    pub fn engine(&self) -> Option<&UpdateStats> {
        Some(&self.engine)
    }

    /// Rebuild-policy statistics, for the backend that maintains `D`
    /// incrementally under an amortized rebuild policy (the parallel
    /// maintainer).
    pub fn rebuild_policy(&self) -> Option<&RebuildPolicyStats> {
        match &self.model {
            Some(ModelStats::Rebuild(rebuild)) => Some(rebuild),
            _ => None,
        }
    }

    /// Stream-access statistics, when this report came from the streaming
    /// backend.
    pub fn stream(&self) -> Option<&StreamStats> {
        match &self.model {
            Some(ModelStats::Stream(stream)) => Some(stream),
            _ => None,
        }
    }

    /// Simulated network cost, when this report came from the CONGEST
    /// backend.
    pub fn congest(&self) -> Option<&CongestStats> {
        match &self.model {
            Some(ModelStats::Congest(congest)) => Some(congest),
            _ => None,
        }
    }
}

/// Aggregation of many per-update [`StatsReport`]s into one structural
/// roll-up — the quantity a *phase* of a scenario (or any other grouping of
/// updates) reports. Index-maintenance counters are deliberately absent:
/// they are cumulative on the maintainer, so groupings difference them via
/// [`IndexMaintenanceStats::since`] instead of re-summing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsRollup {
    /// Updates absorbed.
    pub updates: u64,
    /// Total sequential query sets across the absorbed updates.
    pub query_sets: u64,
    /// Maximum query sets any single absorbed update needed.
    pub max_query_sets: u64,
    /// Total vertices whose parent pointer was rewritten.
    pub relinked_vertices: u64,
    /// Total independent subtree reroots the reductions produced.
    pub reroot_jobs: u64,
}

impl StatsRollup {
    /// Fold one update's report into the roll-up.
    pub fn absorb(&mut self, report: &StatsReport) {
        self.updates += 1;
        let sets = report.total_query_sets();
        self.query_sets += sets;
        self.max_query_sets = self.max_query_sets.max(sets);
        self.relinked_vertices += report.relinked_vertices();
        self.reroot_jobs += report.engine.reroot_jobs;
    }

    /// Fold a whole batch's per-update reports into the roll-up.
    pub fn absorb_batch(&mut self, batch: &BatchReport) {
        for report in &batch.per_update {
            self.absorb(report);
        }
    }

    /// Merge another roll-up (sums everywhere, max for the maximum).
    pub fn merge(&mut self, other: &StatsRollup) {
        self.updates += other.updates;
        self.query_sets += other.query_sets;
        self.max_query_sets = self.max_query_sets.max(other.max_query_sets);
        self.relinked_vertices += other.relinked_vertices;
        self.reroot_jobs += other.reroot_jobs;
    }

    /// Mean query sets per absorbed update.
    pub fn mean_query_sets(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.query_sets as f64 / self.updates as f64
        }
    }
}

/// What a crash recovery did: how far the checkpoint got the state, how much
/// WAL tail had to be replayed on top, and what (if anything) was dropped as
/// a torn final record. Produced by the durability layer's `recover` and
/// surfaced so operators can distinguish "clean restart" from "replayed an
/// hour of log".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Epoch of the checkpoint the recovery started from (0 = no
    /// checkpoint, recovery rebuilt from the WAL's initial state).
    pub checkpoint_epoch: u64,
    /// Epoch the recovered state reached after tail replay.
    pub recovered_epoch: u64,
    /// Complete WAL records replayed on top of the checkpoint.
    pub records_replayed: u64,
    /// Updates those records carried.
    pub updates_replayed: u64,
    /// Torn (half-written) trailing records dropped — 0 on a clean
    /// shutdown, at most 1 after a crash.
    pub torn_records_dropped: u64,
    /// Bytes of WAL scanned (the file size at recovery time).
    pub wal_bytes: u64,
}

/// What applying a batch of updates did.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// User ids of the vertices created by `InsertVertex` updates, in order.
    pub inserted: Vec<Vertex>,
    /// Per-update statistics, in application order (one entry per applied
    /// update — [`BatchReport::applied`] is derived from it).
    pub per_update: Vec<StatsReport>,
}

impl BatchReport {
    /// Number of updates applied.
    pub fn applied(&self) -> usize {
        self.per_update.len()
    }

    /// Total query sets across the batch.
    pub fn total_query_sets(&self) -> u64 {
        self.per_update.iter().map(|r| r.total_query_sets()).sum()
    }

    /// Total relinked vertices across the batch.
    pub fn total_relinked_vertices(&self) -> u64 {
        self.per_update.iter().map(|r| r.relinked_vertices()).sum()
    }

    /// Maximum query sets any single update in the batch needed.
    pub fn max_query_sets(&self) -> u64 {
        self.per_update
            .iter()
            .map(|r| r.total_query_sets())
            .max()
            .unwrap_or(0)
    }

    /// True when the batch applied no updates.
    pub fn is_empty(&self) -> bool {
        self.per_update.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RerootStats;

    fn parallel_report(sets: u64, relinked: u64) -> StatsReport {
        StatsReport {
            engine: UpdateStats {
                reduction_query_sets: 1,
                reroot: RerootStats {
                    query_sets: sets - 1,
                    relinked_vertices: relinked,
                    ..Default::default()
                },
                ..Default::default()
            },
            model: Some(ModelStats::Rebuild(RebuildPolicyStats::default())),
            ..Default::default()
        }
    }

    #[test]
    fn accessors_read_the_record() {
        let report = parallel_report(4, 7);
        assert_eq!(report.total_query_sets(), 4);
        assert_eq!(report.relinked_vertices(), 7);
        assert_eq!(report.engine().map(|e| e.reroot.query_sets), Some(3));
        assert!(report.rebuild_policy().is_some());
        assert!(report.stream().is_none() && report.congest().is_none());
        let stream = StatsReport {
            model: Some(ModelStats::Stream(StreamStats::default())),
            ..Default::default()
        };
        assert!(stream.stream().is_some() && stream.rebuild_policy().is_none());
        let congest = StatsReport {
            model: Some(ModelStats::Congest(CongestStats::default())),
            ..Default::default()
        };
        assert!(congest.congest().is_some() && congest.stream().is_none());
        let sequential = StatsReport {
            index: IndexMaintenanceStats {
                patches_applied: 9,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(sequential.engine().is_some());
        assert!(sequential.rebuild_policy().is_none());
        assert_eq!(sequential.index_maintenance().patches_applied, 9);
    }

    #[test]
    fn rollup_absorbs_and_merges() {
        let mut a = StatsRollup::default();
        a.absorb(&parallel_report(4, 7));
        a.absorb(&parallel_report(2, 1));
        assert_eq!(a.updates, 2);
        assert_eq!(a.query_sets, 6);
        assert_eq!(a.max_query_sets, 4);
        assert_eq!(a.relinked_vertices, 8);
        assert!((a.mean_query_sets() - 3.0).abs() < 1e-9);
        let mut b = StatsRollup::default();
        b.absorb_batch(&BatchReport {
            inserted: vec![],
            per_update: vec![parallel_report(9, 2)],
        });
        a.merge(&b);
        assert_eq!(a.updates, 3);
        assert_eq!(a.max_query_sets, 9);
        assert_eq!(StatsRollup::default().mean_query_sets(), 0.0);
    }

    #[test]
    fn batch_report_aggregates() {
        let report = BatchReport {
            inserted: vec![9],
            per_update: vec![
                parallel_report(2, 1),
                parallel_report(5, 3),
                parallel_report(3, 2),
            ],
        };
        assert_eq!(report.applied(), 3);
        assert_eq!(report.total_query_sets(), 10);
        assert_eq!(report.total_relinked_vertices(), 6);
        assert_eq!(report.max_query_sets(), 5);
        assert!(!report.is_empty());
    }
}
