//! The one update loop behind every engine-backed maintainer (Theorems
//! 13–16).
//!
//! The paper has one algorithm: an update reduces to independent subtree
//! reroots (Section 3), which are rerooted in parallel rounds (Section 4).
//! Theorems 13–16 run it in four models that differ only in how a set of
//! independent queries is answered: live `D`, frozen `D` plus the Theorem 9
//! segment decomposition, one stream pass, or one CONGEST broadcast. A
//! [`Model`] supplies exactly that — its [`QueryOracle`] and its own
//! counters ([`Model::stats`]) — and [`EngineDfs`] owns everything else:
//! the augmented graph, the tree index, the strategy, the index policy and
//! its census. Per update the loop is:
//!
//! 1. translate the update to internal ids and apply it to the augmented
//!    graph;
//! 2. the model records the update and opens its oracle ([`Model::absorb`]);
//! 3. [`reduce_update`] and [`Rerooter::run`] describe the new tree as a
//!    [`TreePatch`] (timed as [`UpdateStats::reroot_micros`]);
//! 4. [`maintain_index`] splices the patch into the tree index, rebuilding
//!    from the index's own parent array only when the splice is refused, and
//!    the model finishes the update ([`Model::finish`]); both are timed as
//!    [`UpdateStats::rebuild_micros`].
//!
//! Everything the loop and the model count reaches callers through
//! [`DfsMaintainer::stats`], one [`StatsReport`]: the last update's
//! [`UpdateStats`], the index census since construction, and the model's
//! own counters.

use crate::reduction::{reduce_update, ReductionInput};
use crate::reroot::{Rerooter, Strategy};
use pardfs_api::{
    forest, maintain_index, DfsMaintainer, ForestQuery, IndexMaintenanceStats, IndexPolicy,
    ModelStats, StatsReport, UpdateStats,
};
use pardfs_graph::{Graph, Update, Vertex};
use pardfs_query::QueryOracle;
use pardfs_seq::augment::AugmentedGraph;
use pardfs_seq::check::check_spanning_dfs_tree;
use pardfs_seq::static_dfs::static_dfs;
use pardfs_tree::{TreeIndex, TreePatch};
use std::fmt;
use std::time::Instant;

/// An execution model of the engine: how one update's sets of independent
/// queries are answered, and what the model counts while answering them.
pub trait Model: fmt::Debug + Send + Sync {
    /// Stable backend name, reported by [`DfsMaintainer::backend_name`].
    const NAME: &'static str;

    /// What the model is configured with at construction.
    type Config;

    /// Set the model up over the initial augmented graph and its DFS tree.
    fn build(aug: &AugmentedGraph, idx: &TreeIndex, config: Self::Config) -> Self;

    /// Absorb one update (internal ids) that `aug` already reflects: record
    /// it, then hand `reroot` the oracle that answers its independent query
    /// sets against the pre-update tree `idx`. `input` names the vertex a
    /// vertex insertion created and its neighbours. Returns the update's
    /// statistics as `reroot` produced them.
    fn absorb(
        &mut self,
        aug: &AugmentedGraph,
        idx: &TreeIndex,
        update: &Update,
        input: &ReductionInput,
        reroot: impl FnOnce(&dyn QueryOracle) -> UpdateStats,
    ) -> UpdateStats;

    /// Finish the update once `idx` is the updated tree (the live-`D` model
    /// decides here whether to rebuild `D`). Does nothing by default.
    fn finish(&mut self, aug: &AugmentedGraph, idx: &TreeIndex) {
        let _ = (aug, idx);
    }

    /// The model's own counters, reported beside the engine's in
    /// [`DfsMaintainer::stats`]. `None` by default: a model that keeps no
    /// counters of its own (the frozen-`D` model) reports none.
    fn stats(&self) -> Option<ModelStats> {
        None
    }
}

/// A fully dynamic DFS maintainer running the engine loop in model `M`.
///
/// The maintained structure is a DFS tree of the *augmented* graph (user
/// graph plus a pseudo root adjacent to every vertex, Section 2); its
/// children are the roots of a DFS forest of the user graph. The public API
/// speaks user vertex ids throughout; [`DfsMaintainer::tree`] exposes the
/// index in internal ids (pseudo root 0, user `v` at `v + 1`).
#[derive(Debug)]
pub struct EngineDfs<M> {
    pub(crate) aug: AugmentedGraph,
    pub(crate) idx: TreeIndex,
    pub(crate) model: M,
    strategy: Strategy,
    index_policy: IndexPolicy,
    index_stats: IndexMaintenanceStats,
    pub(crate) last_stats: UpdateStats,
}

impl<M: Model> EngineDfs<M> {
    /// Build the maintainer over a user graph: augment it, run the static
    /// DFS and set the model up on that tree.
    pub fn with_config(user_graph: &Graph, strategy: Strategy, config: M::Config) -> Self {
        let aug = AugmentedGraph::new(user_graph);
        let idx = TreeIndex::build(&static_dfs(aug.graph(), aug.pseudo_root()));
        Self::from_state(aug, idx, strategy, config)
    }

    /// Resume the maintainer from previously captured state: an augmented
    /// graph and a DFS tree of it (a durability checkpoint's contents). The
    /// static DFS is skipped — the provided tree *is* the maintained tree —
    /// so a maintainer resumed from a crash-time checkpoint continues on the
    /// exact tree trajectory the crashed one was on. A model holding `D`
    /// builds it fresh on this tree (an empty overlay answers the same
    /// queries a carried-over overlay would).
    pub fn from_state(
        aug: AugmentedGraph,
        idx: TreeIndex,
        strategy: Strategy,
        config: M::Config,
    ) -> Self {
        assert_eq!(
            idx.root(),
            aug.pseudo_root(),
            "resumed tree must be rooted at the pseudo root"
        );
        assert_eq!(
            idx.capacity(),
            aug.graph().capacity(),
            "resumed tree id space must match the graph"
        );
        EngineDfs {
            model: M::build(&aug, &idx, config),
            aug,
            idx,
            strategy,
            index_policy: IndexPolicy::default(),
            index_stats: IndexMaintenanceStats::default(),
            last_stats: UpdateStats::default(),
        }
    }

    /// Select when the tree index is delta-patched versus rebuilt.
    pub fn set_index_policy(&mut self, policy: IndexPolicy) {
        self.index_policy = policy;
    }
}

impl<M: Model<Config = ()>> EngineDfs<M> {
    /// Build the maintainer with the default (phased) strategy.
    pub fn new(user_graph: &Graph) -> Self {
        Self::with_strategy(user_graph, Strategy::Phased)
    }

    /// Build the maintainer with an explicit rerooting strategy.
    pub fn with_strategy(user_graph: &Graph, strategy: Strategy) -> Self {
        Self::with_config(user_graph, strategy, ())
    }
}

impl<M: Model> ForestQuery for EngineDfs<M> {
    fn forest_parent(&self, v: Vertex) -> Option<Vertex> {
        forest::forest_parent(self.idx.parent_slice(), v)
    }

    fn forest_roots(&self) -> Vec<Vertex> {
        forest::forest_roots(self.idx.children(forest::PSEUDO_ROOT))
    }

    fn same_component(&self, u: Vertex, v: Vertex) -> bool {
        forest::same_component(self.idx.top_slice(), u, v)
    }

    fn num_vertices(&self) -> usize {
        self.aug.user_num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.aug.user_num_edges()
    }
}

impl<M: Model> DfsMaintainer for EngineDfs<M> {
    fn backend_name(&self) -> &'static str {
        M::NAME
    }

    fn apply_update(&mut self, update: &Update) -> Option<Vertex> {
        let proot = self.aug.pseudo_root();
        let internal = self.aug.translate(update);
        let inserted = self.aug.apply_internal(&internal);
        let input = match inserted {
            Some(nv) => ReductionInput {
                inserted: Some(nv),
                inserted_neighbors: self
                    .aug
                    .graph()
                    .neighbors(nv)
                    .iter()
                    .copied()
                    .filter(|&x| x != proot)
                    .collect(),
            },
            None => ReductionInput::default(),
        };

        let (idx, strategy) = (&self.idx, self.strategy);
        let mut patch = TreePatch::new();
        let mut stats = self
            .model
            .absorb(&self.aug, idx, &internal, &input, |oracle| {
                let start = Instant::now();
                let mut stats = UpdateStats::default();
                let jobs = reduce_update(
                    idx, oracle, proot, &internal, &input, &mut patch, &mut stats,
                );
                stats.reroot_jobs = jobs.len() as u64;
                stats.reroot = Rerooter::new(idx, oracle, strategy).run(&jobs, &mut patch);
                stats.reroot_micros = start.elapsed().as_micros() as u64;
                stats
            });

        let start = Instant::now();
        maintain_index(
            &mut self.idx,
            &patch,
            self.aug.graph().capacity(),
            self.index_policy,
            &mut self.index_stats,
        );
        self.model.finish(&self.aug, &self.idx);
        stats.rebuild_micros = start.elapsed().as_micros() as u64;
        self.last_stats = stats;
        inserted.map(|v| self.aug.to_user(v))
    }

    fn tree(&self) -> &TreeIndex {
        &self.idx
    }

    fn augmented_graph(&self) -> &Graph {
        self.aug.graph()
    }

    fn check(&self) -> Result<(), String> {
        check_spanning_dfs_tree(self.aug.graph(), &self.idx)
    }

    fn stats(&self) -> StatsReport {
        StatsReport {
            engine: self.last_stats,
            index: self.index_stats,
            model: self.model.stats(),
        }
    }
}
