//! Amortized maintenance policies: when to rebuild a structure from scratch
//! instead of maintaining it incrementally.
//!
//! The same amortization idea governs **two** structures, at two layers:
//!
//! * the `O(m)` structure `D` ([`RebuildPolicy`] / [`RebuildPolicyStats`],
//!   introduced for the incremental parallel maintainer), and
//! * the `O(n)` tree index ([`IndexPolicy`] / [`IndexMaintenanceStats`]): the
//!   reroot engine emits a `TreePatch` and the index is delta-patched in
//!   `O(|region| + k · log n)` for `k` moved children unless the region
//!   outgrows the policy's threshold; then the index rebuilds from its own
//!   parent array, which is cheaper.
//!
//! ## The amortization argument (structure `D`)
//!
//! Rebuilding `D` costs `O(m)` work (Theorem 8). Skipping the rebuild and
//! recording the update in `D`'s overlay instead costs `O(degree)` once plus
//! `O(k)` extra per query after `k` overlay records (Theorem 9), and the
//! reduction + reroot of one update issue `O(log^2 n)` query sets. Balancing
//! the two, the overlay may grow to `k ≈ m / log n` before the accumulated
//! per-query penalty rivals one rebuild — rebuilding at that threshold makes
//! the rebuild an amortized `O(log n)`-per-update event instead of a per-update
//! `O(m)` cost, which is exactly why the paper confines the heavy work to
//! preprocessing.
//!
//! ## The same argument for the index
//!
//! A splice walks and numbers its region with the routines a rebuild runs
//! over the whole tree, but costs more per vertex (`BENCH_E11.json`, 2-core
//! host, `n = 4096`–16384: 0.16–0.20 µs per touched vertex against
//! 0.063–0.086 µs per vertex rebuilt). Below a constant fraction of `n`
//! (about 0.4 there), the splice wins (and the paper's rerooting procedure
//! guarantees most updates touch only the affected subtrees); past it, the
//! rebuild does. Membership-changing updates (vertex
//! insertions/deletions renumber every later vertex) always rebuild —
//! there is no sublinear splice for them, as `pardfs-tree::patch` documents.
//!
//! [`maintain_index`] is the one shared decision point every backend calls.

/// When an incremental maintainer rebuilds its structure `D` from scratch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RebuildPolicy {
    /// Rebuild after every update (the pre-incremental behaviour; every edge
    /// is a back edge of the current tree and queries never pay an overlay
    /// scan, at `O(m)` per update).
    EveryUpdate,
    /// Rebuild once the overlay holds more than `factor · m / log₂ n`
    /// records — the amortized sweet spot. `factor` trades per-query overlay
    /// cost (large factor) against rebuild frequency (small factor);
    /// `factor = 1.0` is the default.
    Amortized {
        /// The constant `c` in the `c · m / log₂ n` threshold.
        factor: f64,
    },
    /// Never rebuild: the overlay absorbs every update for the lifetime of
    /// the maintainer (query cost degrades linearly with the overlay size;
    /// useful for short update sequences and for differential testing).
    Never,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        RebuildPolicy::Amortized { factor: 1.0 }
    }
}

impl RebuildPolicy {
    /// The overlay size above which the policy asks for a rebuild, for a
    /// graph with `m` edges and `n` vertices. `None` means "never".
    pub fn threshold(&self, m: usize, n: usize) -> Option<u64> {
        match self {
            RebuildPolicy::EveryUpdate => Some(0),
            RebuildPolicy::Never => None,
            RebuildPolicy::Amortized { factor } => {
                let log_n = (n.max(2) as f64).log2();
                let t = (factor * m.max(1) as f64 / log_n).ceil();
                Some((t as u64).max(1))
            }
        }
    }

    /// Should a maintainer whose overlay holds `overlay_updates` records
    /// rebuild now? (Strictly greater than the threshold, so
    /// `Amortized { factor }` always tolerates at least one overlay record.)
    pub fn should_rebuild(&self, overlay_updates: usize, m: usize, n: usize) -> bool {
        self.threshold(m, n)
            .is_some_and(|t| overlay_updates as u64 > t)
    }
}

/// What an incremental maintainer's rebuild policy has done so far.
///
/// Snapshot counters (`overlay_updates`, `threshold`, `updates_since_rebuild`,
/// `last_rebuild_micros`) describe the state after the most recent update;
/// cumulative counters (`rebuilds`, `total_rebuild_micros`) are monotone
/// non-decreasing over the maintainer's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildPolicyStats {
    /// Number of `D` rebuilds the policy has triggered (the initial build at
    /// construction is not counted). Monotone.
    pub rebuilds: u64,
    /// Overlay records currently pending on `D` (0 right after a rebuild).
    pub overlay_updates: u64,
    /// The trigger threshold in effect at the last update (`u64::MAX` for
    /// [`RebuildPolicy::Never`]).
    pub threshold: u64,
    /// Updates absorbed since the last rebuild (or since construction).
    pub updates_since_rebuild: u64,
    /// Wall-clock microseconds of the most recent `D` rebuild.
    pub last_rebuild_micros: u64,
    /// Total wall-clock microseconds spent rebuilding `D`. Monotone.
    pub total_rebuild_micros: u64,
}

impl RebuildPolicyStats {
    /// Record one policy-triggered rebuild that took `micros` microseconds.
    pub fn record_rebuild(&mut self, micros: u64) {
        self.rebuilds += 1;
        self.last_rebuild_micros = micros;
        self.total_rebuild_micros += micros;
        self.updates_since_rebuild = 0;
        self.overlay_updates = 0;
    }
}

/// The largest region [`IndexPolicy::Patched`] splices is
/// `⌈n / PATCHED_REGION_DIVISOR⌉` of a tree of `n` vertices: half the tree.
/// In `BENCH_E11.json` (2-core host) the splice costs 0.16–0.20 µs per
/// touched vertex against 0.063–0.086 µs per vertex rebuilt, so regions
/// above about 0.4 n are cheaper rebuilt, and this limit beats splicing
/// every patch by 2–20 % at every `n`.
const PATCHED_REGION_DIVISOR: usize = 2;

/// When a maintainer rebuilds its tree index from scratch instead of splicing
/// the update's `TreePatch` into it — the index-layer mirror of
/// [`RebuildPolicy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IndexPolicy {
    /// Rebuild `TreeIndex::from_parent_slice` after every update (the
    /// pre-delta-patching behaviour; `O(n)` per update).
    EveryUpdate,
    /// The default: splice the patch whenever its region holds at most half
    /// the tree's vertices (rounded up); rebuild otherwise. A region of half
    /// the tree costs about what a rebuild does.
    #[default]
    Patched,
    /// Splice every spliceable patch regardless of region size
    /// (membership-changing updates still rebuild — no splice exists for
    /// them). Useful for tests and for measuring the splice's own ceiling.
    PatchAlways,
}

impl IndexPolicy {
    /// The region-size limit (in vertices) for a tree of `n_tree` vertices.
    /// `None` means "never patch".
    pub fn region_limit(&self, n_tree: usize) -> Option<usize> {
        match self {
            IndexPolicy::EveryUpdate => None,
            IndexPolicy::PatchAlways => Some(usize::MAX),
            IndexPolicy::Patched => Some(n_tree.div_ceil(PATCHED_REGION_DIVISOR).max(1)),
        }
    }
}

/// What the index-maintenance policy has done over a maintainer's lifetime
/// (all counters are cumulative and monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexMaintenanceStats {
    /// Updates whose `TreePatch` was spliced into the index in place.
    pub patches_applied: u64,
    /// Total vertices whose index entries the splices recomputed (the
    /// `Σ |region|` the sublinearity claim is about).
    pub vertices_touched: u64,
    /// Full rebuilds taken because a patch was refused (membership change,
    /// region past the policy threshold, inapplicable patch).
    pub fallback_rebuilds: u64,
    /// Full rebuilds of any cause — fallbacks plus the rebuilds an
    /// [`IndexPolicy::EveryUpdate`] configuration performs unconditionally.
    pub full_rebuilds: u64,
}

impl IndexMaintenanceStats {
    /// Fraction of updates that went through the patch path.
    pub fn patch_rate(&self) -> f64 {
        let total = self.patches_applied + self.full_rebuilds;
        if total == 0 {
            0.0
        } else {
            self.patches_applied as f64 / total as f64
        }
    }

    /// Counter-wise difference since an `earlier` snapshot (per-run deltas
    /// out of a cumulative census).
    pub fn since(&self, earlier: &IndexMaintenanceStats) -> IndexMaintenanceStats {
        IndexMaintenanceStats {
            patches_applied: self.patches_applied - earlier.patches_applied,
            vertices_touched: self.vertices_touched - earlier.vertices_touched,
            fallback_rebuilds: self.fallback_rebuilds - earlier.fallback_rebuilds,
            full_rebuilds: self.full_rebuilds - earlier.full_rebuilds,
        }
    }

    /// Counter-wise accumulation of another census.
    pub fn merge(&mut self, other: &IndexMaintenanceStats) {
        self.patches_applied += other.patches_applied;
        self.vertices_touched += other.vertices_touched;
        self.fallback_rebuilds += other.fallback_rebuilds;
        self.full_rebuilds += other.full_rebuilds;
    }
}

/// Maintain `idx` after one update: splice `patch` if `policy` allows and the
/// patch is spliceable, otherwise rebuild the index from its own parent
/// array with the patch written in, over `capacity` vertex slots (the
/// graph's id space after the update). The one decision point every backend
/// routes through; [`IndexMaintenanceStats::full_rebuilds`] counts the
/// rebuilds.
pub fn maintain_index(
    idx: &mut pardfs_tree::TreeIndex,
    patch: &pardfs_tree::TreePatch,
    capacity: usize,
    policy: IndexPolicy,
    stats: &mut IndexMaintenanceStats,
) {
    use pardfs_tree::PatchOutcome;
    match policy.region_limit(idx.num_vertices()) {
        None => {}
        Some(limit) => match idx.apply_patch(patch, limit) {
            PatchOutcome::Applied { vertices_touched } => {
                stats.patches_applied += 1;
                stats.vertices_touched += vertices_touched as u64;
                return;
            }
            PatchOutcome::RegionTooLarge { .. } | PatchOutcome::Unsupported(_) => {
                stats.fallback_rebuilds += 1;
            }
        },
    }
    idx.rebuild(patch, capacity);
    stats.full_rebuilds += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_update_threshold_is_zero() {
        let p = RebuildPolicy::EveryUpdate;
        assert_eq!(p.threshold(1000, 100), Some(0));
        // One overlay record is already past the threshold.
        assert!(p.should_rebuild(1, 1000, 100));
        assert!(!p.should_rebuild(0, 1000, 100));
    }

    #[test]
    fn never_has_no_threshold() {
        let p = RebuildPolicy::Never;
        assert_eq!(p.threshold(1000, 100), None);
        assert!(!p.should_rebuild(usize::MAX, 1000, 100));
    }

    #[test]
    fn amortized_threshold_boundary_is_exclusive() {
        // m = 1024, n = 1024 ⇒ log₂ n = 10 ⇒ threshold = ⌈1024/10⌉ = 103.
        let p = RebuildPolicy::Amortized { factor: 1.0 };
        let t = p.threshold(1024, 1024).unwrap();
        assert_eq!(t, 103);
        assert!(!p.should_rebuild(t as usize, 1024, 1024), "at threshold");
        assert!(p.should_rebuild(t as usize + 1, 1024, 1024), "just past it");
    }

    #[test]
    fn amortized_scales_with_factor_and_m() {
        let small = RebuildPolicy::Amortized { factor: 0.25 };
        let big = RebuildPolicy::Amortized { factor: 4.0 };
        assert!(small.threshold(4096, 512).unwrap() < big.threshold(4096, 512).unwrap());
        let p = RebuildPolicy::default();
        assert!(p.threshold(1 << 16, 1 << 10).unwrap() > p.threshold(1 << 10, 1 << 10).unwrap());
    }

    #[test]
    fn amortized_threshold_is_at_least_one() {
        // Degenerate sizes must not turn Amortized into EveryUpdate.
        let p = RebuildPolicy::Amortized { factor: 0.001 };
        assert_eq!(p.threshold(1, 2), Some(1));
        assert!(!p.should_rebuild(1, 1, 2));
        assert!(p.should_rebuild(2, 1, 2));
    }

    #[test]
    fn index_policy_region_limits() {
        assert_eq!(IndexPolicy::EveryUpdate.region_limit(1000), None);
        assert_eq!(
            IndexPolicy::PatchAlways.region_limit(1000),
            Some(usize::MAX)
        );
        // Half the tree, rounded up.
        assert_eq!(IndexPolicy::Patched.region_limit(1000), Some(500));
        assert_eq!(IndexPolicy::Patched.region_limit(7), Some(4));
        // Degenerate sizes still allow trivial patches.
        assert_eq!(IndexPolicy::Patched.region_limit(1), Some(1));
        assert_eq!(IndexPolicy::Patched.region_limit(0), Some(1));
        assert_eq!(IndexPolicy::default(), IndexPolicy::Patched);
    }

    #[test]
    fn maintain_index_patches_small_and_rebuilds_large_or_unsupported() {
        use pardfs_tree::{TreeIndex, TreePatch, NO_VERTEX};
        // Path 0-1-...-7.
        let mut parent: Vec<u32> = (0..8u32).map(|v| v.saturating_sub(1)).collect();
        parent[0] = 0;
        let mut idx = TreeIndex::from_parent_slice(&parent, 0);
        let mut stats = IndexMaintenanceStats::default();
        let parents = |idx: &TreeIndex| idx.parent_slice().to_vec();

        // Small patch: leaf 7 re-hangs under 5 — the region is subtree(5),
        // 3 of 8 vertices, within half the tree: spliced.
        let mut expected = parent.clone();
        expected[7] = 5;
        let mut patch = TreePatch::new();
        patch.assign(7, 5);
        maintain_index(
            &mut idx,
            &patch,
            expected.len(),
            IndexPolicy::Patched,
            &mut stats,
        );
        assert_eq!(stats.patches_applied, 1);
        assert!(stats.vertices_touched >= 2);
        assert_eq!(stats.full_rebuilds, 0);
        assert_eq!(idx.parent(7), Some(5));
        assert_eq!(parents(&idx), expected);

        // A region of nearly the whole path, past half the tree: fallback
        // rebuild.
        let mut expected2 = expected.clone();
        expected2[1] = 3; // would-be region is nearly the whole path
        expected2[2] = 1;
        expected2[3] = 0;
        let mut patch = TreePatch::new();
        patch.assign(3, 0);
        patch.assign(2, 1);
        patch.assign(1, 3);
        maintain_index(
            &mut idx,
            &patch,
            expected2.len(),
            IndexPolicy::Patched,
            &mut stats,
        );
        assert_eq!(stats.fallback_rebuilds, 1);
        assert_eq!(stats.full_rebuilds, 1);
        assert_eq!(idx.parent(1), Some(3), "rebuilt from the parent array");
        assert_eq!(parents(&idx), expected2, "old index plus the patch");

        // Membership change — always a fallback, even under PatchAlways.
        let mut expected3: Vec<u32> = expected2.clone();
        expected3[7] = NO_VERTEX;
        let mut patch = TreePatch::new();
        patch.record_removed(7);
        maintain_index(
            &mut idx,
            &patch,
            expected3.len(),
            IndexPolicy::PatchAlways,
            &mut stats,
        );
        assert_eq!(stats.fallback_rebuilds, 2);
        assert!(!idx.contains(7));
        assert_eq!(parents(&idx), expected3);

        // EveryUpdate never patches.
        let mut patch = TreePatch::new();
        patch.assign(2, 1); // no-op vs expected3 but policy rebuilds anyway
        maintain_index(
            &mut idx,
            &patch,
            expected3.len(),
            IndexPolicy::EveryUpdate,
            &mut stats,
        );
        assert_eq!(stats.full_rebuilds, 3);
        assert_eq!(stats.fallback_rebuilds, 2);
        assert_eq!(stats.patches_applied, 1);
        assert!(stats.patch_rate() > 0.24 && stats.patch_rate() < 0.26);
        assert_eq!(parents(&idx), expected3);
    }

    #[test]
    fn stats_record_rebuild_resets_snapshots_and_accumulates() {
        let mut s = RebuildPolicyStats {
            overlay_updates: 40,
            updates_since_rebuild: 17,
            ..Default::default()
        };
        s.record_rebuild(250);
        assert_eq!(s.rebuilds, 1);
        assert_eq!(s.overlay_updates, 0);
        assert_eq!(s.updates_since_rebuild, 0);
        assert_eq!(s.last_rebuild_micros, 250);
        s.record_rebuild(100);
        assert_eq!(s.rebuilds, 2);
        assert_eq!(s.last_rebuild_micros, 100);
        assert_eq!(s.total_rebuild_micros, 350);
    }
}
