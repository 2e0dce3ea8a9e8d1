//! Instrumentation shared by every maintainer backend.
//!
//! The paper's bounds are stated in terms of *sequential sets of independent
//! queries on `D`* (Theorem 3: `O(log^2 n)` sets per reroot) and EREW PRAM
//! rounds; the streaming and distributed adaptations re-interpret the same
//! quantity as passes and broadcast phases. Wall-clock time on a multicore
//! machine is reported separately by the benchmarks; the structures here
//! capture the model quantities so the experiments can compare them against
//! their theoretical envelopes directly.
//!
//! This module is the single home of all per-model statistics types, which
//! callers name from `pardfs_api` (or the umbrella crate) alone.

/// The traversal a component performed in one engine round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraversalKind {
    /// Walk from the entry vertex to the root of its subtree
    /// (the sequential baseline's traversal; used by the simple strategy and
    /// by the phased strategy's heavy-entry case).
    RootPath,
    /// Disintegrating traversal: walk from the entry vertex to `v_H`, the
    /// deepest vertex whose subtree holds more than half of the component's
    /// largest subtree (Section 4.1).
    Disintegrate,
    /// Path halving: walk from the entry vertex to the farther end of the
    /// component's path (Section 4.2).
    PathHalve,
}

/// Statistics of one invocation of the rerooting engine (one update).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RerootStats {
    /// Number of synchronous engine rounds (every live component performs one
    /// traversal per round). This is the parallel-depth proxy.
    pub rounds: u64,
    /// Σ over rounds of the maximum number of *sequential* query sets any
    /// component needed in that round. This is the quantity Theorem 3 bounds
    /// by `O(log^2 n)` and the number of passes the semi-streaming adaptation
    /// needs (Theorem 15).
    pub query_sets: u64,
    /// Total number of `answer_batch` calls issued (across all components).
    pub query_batches: u64,
    /// Total number of individual vertex queries issued.
    pub queries: u64,
    /// Number of components processed over the whole reroot.
    pub components: u64,
    /// Number of vertices whose parent pointer was rewritten.
    pub relinked_vertices: u64,
    /// Traversal census.
    pub root_path_traversals: u64,
    /// Disintegrating traversals performed.
    pub disintegrate_traversals: u64,
    /// Path-halving traversals performed.
    pub path_halve_traversals: u64,
    /// Largest number of untraversed paths ever held by a single component
    /// (1 under the paper's strict C2 invariant).
    pub max_paths_in_component: u64,
}

impl RerootStats {
    /// Record one traversal of the given kind (called by the engine).
    pub fn record_traversal(&mut self, kind: TraversalKind) {
        match kind {
            TraversalKind::RootPath => self.root_path_traversals += 1,
            TraversalKind::Disintegrate => self.disintegrate_traversals += 1,
            TraversalKind::PathHalve => self.path_halve_traversals += 1,
        }
    }
}

/// Statistics of one full update, filled by every maintainer: the four
/// engine models and the sequential baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateStats {
    /// Reduction cost: query sets used to turn the update into reroot jobs
    /// (Theorem 2 bounds this by `O(1)`).
    pub reduction_query_sets: u64,
    /// Number of reroot jobs the reduction produced.
    pub reroot_jobs: u64,
    /// Statistics of the rerooting engine (all jobs combined; disjoint
    /// subtrees are rerooted in parallel, so `rounds`/`query_sets` take the
    /// maximum across jobs while totals add up).
    pub reroot: RerootStats,
    /// Wall-clock microseconds spent in the reduction and the reroot
    /// (excluding the maintenance of the tree index and of `D`).
    pub reroot_micros: u64,
    /// Wall-clock microseconds spent maintaining the tree index and `D`.
    pub rebuild_micros: u64,
}

impl UpdateStats {
    /// The streaming-pass / broadcast-phase proxy for the whole update:
    /// reduction query sets plus the rerooting query sets.
    pub fn total_query_sets(&self) -> u64 {
        self.reduction_query_sets + self.reroot.query_sets
    }
}

/// Counters of the semi-streaming model (Theorem 15).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Passes over the edge stream (one per `answer_batch` call).
    pub passes: u64,
    /// Total edges scanned across all passes.
    pub edges_scanned: u64,
    /// Total queries answered.
    pub queries: u64,
    /// Peak number of resident words used for partial query results in a
    /// single pass (must stay `O(n)` for the model to hold).
    pub peak_partial_words: u64,
}

/// Per-update distributed cost in the CONGEST(B) model (Theorem 16).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CongestStats {
    /// Synchronous communication rounds.
    pub rounds: u64,
    /// Messages sent (each of at most `B` words).
    pub messages: u64,
    /// Total words carried by those messages.
    pub words: u64,
    /// Broadcast phases (one per set of independent queries).
    pub broadcast_phases: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traversal_census_records() {
        let mut s = RerootStats::default();
        s.record_traversal(TraversalKind::RootPath);
        s.record_traversal(TraversalKind::Disintegrate);
        s.record_traversal(TraversalKind::Disintegrate);
        s.record_traversal(TraversalKind::PathHalve);
        assert_eq!(s.root_path_traversals, 1);
        assert_eq!(s.disintegrate_traversals, 2);
        assert_eq!(s.path_halve_traversals, 1);
    }

    #[test]
    fn total_query_sets_adds_reduction_and_reroot() {
        let stats = UpdateStats {
            reduction_query_sets: 2,
            reroot: RerootStats {
                query_sets: 9,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(stats.total_query_sets(), 11);
    }
}
