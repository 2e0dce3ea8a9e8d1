//! Runtime backend selection: [`Backend`] × [`Strategy`](crate::Strategy)
//! through a [`MaintainerBuilder`].
//!
//! The umbrella crate is the only crate that depends on every backend, so the
//! factory lives here; the trait it hands out ([`DfsMaintainer`]) lives in
//! `pardfs-api` and is implemented twice: once by `pardfs-core`'s
//! [`EngineDfs`] for the four engine models, and once by the sequential
//! baseline.

use pardfs_api::{DfsMaintainer, IndexPolicy, RebuildPolicy};
use pardfs_congest::BroadcastModel;
use pardfs_core::{EngineDfs, FrozenD, LiveD, Model, Strategy};
use pardfs_graph::Graph;
use pardfs_seq::static_dfs::static_dfs;
use pardfs_seq::{AugmentedGraph, SeqRerootDfs};
use pardfs_serve::{PartitionedRouter, Server, ShardFactory};
use pardfs_stream::PassModel;
use pardfs_tree::TreeIndex;
use pardfs_wal::{recover_with, DurabilityConfig, Recovered};
use pardfs_workload::{ScenarioOutcome, ScenarioRunner, Trace};

/// Which maintainer implementation to construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Shared-memory parallel maintainer ([`DynamicDfs`](crate::DynamicDfs), Theorem 13).
    Parallel,
    /// Sequential baseline ([`SeqRerootDfs`], reference \[6\] of the paper).
    /// Ignores the configured strategy (it *is* the root-path baseline).
    Sequential,
    /// Semi-streaming maintainer ([`StreamingDynamicDfs`](crate::StreamingDynamicDfs), Theorem 15).
    Streaming,
    /// Distributed CONGEST maintainer
    /// ([`DistributedDynamicDfs`](crate::DistributedDynamicDfs), Theorem 16) with the given per-message bandwidth `B` in words.
    Congest {
        /// Words per message per round (the paper uses `B = n / D`).
        bandwidth: usize,
    },
    /// Fault tolerant maintainer
    /// ([`FaultTolerantDfs`](crate::FaultTolerantDfs), Theorem 14):
    /// preprocesses once and absorbs each accumulated batch against the
    /// frozen structure. Best for small numbers of updates between
    /// [`FaultTolerantDfs::reset`](crate::FaultTolerantDfs::reset) calls.
    FaultTolerant,
}

impl Backend {
    /// All backends at a default configuration — convenient for conformance
    /// tests and benchmark sweeps. (Ask the built maintainer for its name
    /// via [`DfsMaintainer::backend_name`].)
    pub fn all_default() -> Vec<Backend> {
        vec![
            Backend::Parallel,
            Backend::Sequential,
            Backend::Streaming,
            Backend::Congest { bandwidth: 8 },
            Backend::FaultTolerant,
        ]
    }
}

/// Builder for a runtime-selected [`DfsMaintainer`].
///
/// ```
/// use pardfs::{Backend, MaintainerBuilder, Strategy};
/// use pardfs::graph::generators;
///
/// let g = generators::grid(4, 4);
/// let mut dfs = MaintainerBuilder::new(Backend::Parallel)
///     .strategy(Strategy::Phased)
///     .build(&g);
/// dfs.apply_update(&pardfs::Update::DeleteEdge(0, 1));
/// assert!(dfs.check().is_ok());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MaintainerBuilder {
    backend: Backend,
    strategy: Strategy,
    rebuild_policy: RebuildPolicy,
    index_policy: IndexPolicy,
}

impl MaintainerBuilder {
    /// Start a builder for the given backend with the phased strategy, the
    /// default amortized rebuild policy and the default (patched)
    /// index-maintenance policy.
    pub fn new(backend: Backend) -> Self {
        MaintainerBuilder {
            backend,
            strategy: Strategy::Phased,
            rebuild_policy: RebuildPolicy::default(),
            index_policy: IndexPolicy::default(),
        }
    }

    /// Select the rerooting strategy (ignored by [`Backend::Sequential`]).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Select when the incremental maintainer folds `D`'s overlay back into
    /// a fresh build. Consulted by [`Backend::Parallel`] (the other backends
    /// manage `D` per their own model: the fault tolerant backend never
    /// rebuilds, the sequential/streaming/CONGEST backends rebuild per their
    /// theorems).
    pub fn rebuild_policy(mut self, rebuild_policy: RebuildPolicy) -> Self {
        self.rebuild_policy = rebuild_policy;
        self
    }

    /// Select when the tree index is delta-patched with the update's
    /// `TreePatch` versus rebuilt from the parent array. Consulted by
    /// **every** backend — index maintenance is model-independent local
    /// state.
    pub fn index_policy(mut self, index_policy: IndexPolicy) -> Self {
        self.index_policy = index_policy;
        self
    }

    /// The configured backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Build this configuration's maintainer over `user_graph` and wrap it
    /// in an epoch-snapshot [`Server`]: submit update batches through a
    /// [`WriteHandle`](pardfs_serve::WriteHandle), commit group epochs, and
    /// query published snapshots from any number of
    /// [`ReadHandle`](pardfs_serve::ReadHandle)s concurrently.
    pub fn serve_single(&self, user_graph: &Graph) -> Server {
        Server::new(self.build(user_graph))
    }

    /// [`MaintainerBuilder::serve_single`] plus durability: the server's
    /// pre-commit state is checkpointed into `config.dir` and every
    /// subsequent commit is write-ahead logged there, so a crash at any
    /// point is recoverable via [`MaintainerBuilder::recover`]. Errors if
    /// the directory already holds a WAL (recover from it instead).
    pub fn serve_durable(
        &self,
        user_graph: &Graph,
        config: &DurabilityConfig,
    ) -> Result<Server, String> {
        let mut server = self.serve_single(user_graph);
        config.attach(&mut server)?;
        Ok(server)
    }

    /// Recover a durable server from `config.dir`: load the latest
    /// checkpoint, rebuild **this configuration's** backend from it via
    /// [`MaintainerBuilder::build_from_state`], replay the WAL tail with
    /// per-batch fingerprint verification, and resume serving at the
    /// recovered epoch (with logging reattached). The configured backend
    /// does not need to match the crashed one — any backend continues from
    /// the checkpointed tree.
    pub fn recover(&self, config: &DurabilityConfig) -> Result<Recovered, String> {
        recover_with(config, |graph, tree| self.build_from_state(graph, tree))
    }

    /// Partition `user_graph` across `shards` shards (at least one) and
    /// serve it through a [`PartitionedRouter`]: each shard owns only its
    /// components' subtrees, commits route to the owning shard, and
    /// cross-shard merges migrate state deterministically
    /// (`docs/SHARDING.md`). The builder itself is the router's
    /// [`ShardFactory`], so migrations resume shards with exactly this
    /// configuration's backend and policies.
    pub fn serve_partitioned(&self, user_graph: &Graph, shards: usize) -> PartitionedRouter {
        PartitionedRouter::new(Box::new(*self), user_graph, shards.max(1))
    }

    /// Construct the maintainer over `user_graph`.
    pub fn build(&self, user_graph: &Graph) -> Box<dyn DfsMaintainer> {
        let aug = AugmentedGraph::new(user_graph);
        let index = TreeIndex::build(&static_dfs(aug.graph(), aug.pseudo_root()));
        self.assemble(aug, index)
    }

    /// Construct the maintainer from previously captured state: an
    /// *augmented* graph (internal ids, pseudo root and pseudo edges already
    /// present — what [`DfsMaintainer::augmented_graph`] exposes) and a DFS
    /// tree of it. This is the recovery path: a durability checkpoint
    /// serializes both, and the maintainer built here skips the static DFS
    /// and continues the crash-time tree trajectory exactly.
    ///
    /// Errors if the graph violates the pseudo-root invariants (it was
    /// corrupted, or is a plain user graph — use
    /// [`MaintainerBuilder::build`] for those).
    pub fn build_from_state(
        &self,
        aug_graph: Graph,
        index: TreeIndex,
    ) -> Result<Box<dyn DfsMaintainer>, String> {
        let aug = AugmentedGraph::from_internal(aug_graph)?;
        if index.root() != aug.pseudo_root() {
            return Err(format!(
                "resumed tree is rooted at {} but the pseudo root is {}",
                index.root(),
                aug.pseudo_root()
            ));
        }
        if index.capacity() != aug.graph().capacity() {
            return Err(format!(
                "resumed tree has capacity {} but the graph has {}",
                index.capacity(),
                aug.graph().capacity()
            ));
        }
        Ok(self.assemble(aug, index))
    }

    /// This configuration's maintainer over an augmented graph and a DFS tree
    /// of it — the one backend assembly behind [`MaintainerBuilder::build`]
    /// (over the static-DFS tree) and [`MaintainerBuilder::build_from_state`]
    /// (over a checkpointed one).
    fn assemble(&self, aug: AugmentedGraph, index: TreeIndex) -> Box<dyn DfsMaintainer> {
        match self.backend {
            Backend::Parallel => engine::<LiveD>(self, aug, index, self.rebuild_policy),
            Backend::Sequential => {
                let mut dfs = SeqRerootDfs::from_state(aug, index);
                dfs.set_index_policy(self.index_policy);
                Box::new(dfs)
            }
            Backend::Streaming => engine::<PassModel>(self, aug, index, ()),
            Backend::Congest { bandwidth } => engine::<BroadcastModel>(self, aug, index, bandwidth),
            Backend::FaultTolerant => engine::<FrozenD>(self, aug, index, ()),
        }
    }

    /// Replay a recorded scenario [`Trace`] end to end: build this
    /// configuration's maintainer over the trace's initial graph, drive it
    /// through every phase with a [`ScenarioRunner`], and return the
    /// maintainer (final state inspectable) alongside the per-phase
    /// [`ScenarioOutcome`](pardfs_workload::ScenarioOutcome).
    pub fn run_scenario(&self, trace: &Trace) -> (Box<dyn DfsMaintainer>, ScenarioOutcome) {
        let graph = trace.initial_graph();
        let mut dfs = self.build(&graph);
        let outcome = ScenarioRunner::new(trace).run(dfs.as_mut());
        (dfs, outcome)
    }
}

/// An engine-backed maintainer in model `M`, with `builder`'s strategy and
/// index policy.
fn engine<M: Model + 'static>(
    builder: &MaintainerBuilder,
    aug: AugmentedGraph,
    index: TreeIndex,
    config: M::Config,
) -> Box<dyn DfsMaintainer> {
    let mut dfs = EngineDfs::<M>::from_state(aug, index, builder.strategy, config);
    dfs.set_index_policy(builder.index_policy);
    Box::new(dfs)
}

/// The builder is its own [`ShardFactory`]: a [`PartitionedRouter`] built
/// through [`MaintainerBuilder::serve_partitioned`] constructs every shard —
/// initial restrictions and migration resumes alike — with this
/// configuration's backend, strategy and policies.
impl ShardFactory for MaintainerBuilder {
    fn build(&self, user_graph: &Graph) -> Box<dyn DfsMaintainer> {
        MaintainerBuilder::build(self, user_graph)
    }

    fn resume(&self, aug_graph: Graph, tree: TreeIndex) -> Result<Box<dyn DfsMaintainer>, String> {
        self.build_from_state(aug_graph, tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardfs_api::ForestQuery;
    use pardfs_graph::{generators, Update};

    #[test]
    fn every_backend_builds_and_updates() {
        let g = generators::grid(4, 4);
        for backend in Backend::all_default() {
            let mut dfs = MaintainerBuilder::new(backend).build(&g);
            for update in [Update::DeleteEdge(0, 1), Update::InsertEdge(0, 15)] {
                dfs.apply_update(&update);
                assert!(dfs.check().is_ok(), "{}", dfs.backend_name());
            }
            assert_eq!(dfs.num_vertices(), 16, "{}", dfs.backend_name());
            assert_eq!(dfs.forest_roots().len(), 1, "{}", dfs.backend_name());
            assert!(dfs.same_component(0, 15), "{}", dfs.backend_name());
        }
    }

    #[test]
    fn builder_reports_backend_names() {
        let g = generators::path(4);
        let names: Vec<&str> = Backend::all_default()
            .into_iter()
            .map(|b| MaintainerBuilder::new(b).build(&g).backend_name())
            .collect();
        assert_eq!(
            names,
            vec![
                "parallel",
                "sequential",
                "streaming",
                "congest",
                "fault-tolerant"
            ]
        );
    }

    #[test]
    fn strategies_produce_working_parallel_maintainers() {
        let g = generators::broom(10, 10);
        for strategy in [Strategy::Simple, Strategy::Phased] {
            let mut dfs = MaintainerBuilder::new(Backend::Parallel)
                .strategy(strategy)
                .build(&g);
            let report = dfs.apply_batch(&[
                Update::DeleteEdge(4, 5),
                Update::InsertEdge(0, 19),
                Update::InsertVertex { edges: vec![1, 7] },
            ]);
            assert!(dfs.check().is_ok(), "{strategy:?}");
            assert_eq!(report.applied(), 3);
            assert_eq!(report.inserted, vec![20]);
            assert_eq!(report.per_update.len(), 3);
        }
    }

    #[test]
    fn rebuild_policy_reaches_the_parallel_backend() {
        let g = generators::grid(5, 5);
        let updates = [
            Update::DeleteEdge(0, 1),
            Update::InsertEdge(0, 24),
            Update::DeleteEdge(12, 13),
        ];
        let mut never = MaintainerBuilder::new(Backend::Parallel)
            .rebuild_policy(RebuildPolicy::Never)
            .build(&g);
        let mut always = MaintainerBuilder::new(Backend::Parallel)
            .rebuild_policy(RebuildPolicy::EveryUpdate)
            .build(&g);
        for u in &updates {
            never.apply_update(u);
            always.apply_update(u);
            assert!(never.check().is_ok() && always.check().is_ok(), "{u:?}");
        }
        let p_never = *never.stats().rebuild_policy().unwrap();
        let p_always = *always.stats().rebuild_policy().unwrap();
        assert_eq!(p_never.rebuilds, 0);
        assert_eq!(p_never.overlay_updates, updates.len() as u64);
        assert_eq!(p_always.rebuilds, updates.len() as u64);
        assert_eq!(p_always.overlay_updates, 0);
    }

    #[test]
    fn index_policy_reaches_every_backend() {
        let g = generators::grid(5, 5);
        let updates = [
            Update::DeleteEdge(0, 1),
            Update::InsertEdge(0, 24),
            Update::DeleteEdge(12, 13),
            Update::InsertEdge(3, 21),
        ];
        for backend in Backend::all_default() {
            // PatchAlways: every edge update must go through the splice.
            let mut patched = MaintainerBuilder::new(backend)
                .index_policy(IndexPolicy::PatchAlways)
                .build(&g);
            // EveryUpdate: the splice must never run.
            let mut rebuilt = MaintainerBuilder::new(backend)
                .index_policy(IndexPolicy::EveryUpdate)
                .build(&g);
            for u in &updates {
                patched.apply_update(u);
                rebuilt.apply_update(u);
                assert!(patched.check().is_ok(), "{}: {u:?}", patched.backend_name());
                assert!(rebuilt.check().is_ok(), "{}: {u:?}", rebuilt.backend_name());
            }
            let p = *patched.stats().index_maintenance();
            let r = *rebuilt.stats().index_maintenance();
            assert_eq!(
                p.patches_applied,
                updates.len() as u64,
                "{}: every edge update splices under PatchAlways",
                patched.backend_name()
            );
            assert_eq!(p.full_rebuilds, 0, "{}", patched.backend_name());
            assert_eq!(r.patches_applied, 0, "{}", rebuilt.backend_name());
            assert_eq!(
                r.full_rebuilds,
                updates.len() as u64,
                "{}",
                rebuilt.backend_name()
            );
        }
    }

    #[test]
    fn run_scenario_replays_a_trace_on_every_backend() {
        let trace = pardfs_workload::Scenario::MergeSplitStorm.record(48, 3);
        let mut outcomes = Vec::new();
        for backend in Backend::all_default() {
            let (dfs, outcome) = MaintainerBuilder::new(backend).run_scenario(&trace);
            assert!(dfs.check().is_ok(), "{}", dfs.backend_name());
            assert_eq!(outcome.updates_applied() as usize, trace.num_updates());
            assert_eq!(outcome.queries_answered() as usize, trace.num_queries());
            assert_eq!(outcome.phases.len(), trace.phases.len());
            outcomes.push(outcome);
        }
        // The backend-independent fingerprints agree across all five
        // backends (trees may differ — a graph has many DFS trees).
        for o in &outcomes[1..] {
            assert_eq!(
                o.components_fingerprint, outcomes[0].components_fingerprint,
                "{} diverged on components",
                o.backend
            );
            assert_eq!(
                o.queries_fingerprint, outcomes[0].queries_fingerprint,
                "{} diverged on query answers",
                o.backend
            );
        }
    }

    #[test]
    fn serve_single_wraps_every_backend() {
        let g = generators::grid(4, 4);
        let updates = [Update::DeleteEdge(0, 1), Update::InsertEdge(0, 15)];
        for backend in Backend::all_default() {
            // Single server: submit + commit, snapshot tracks the writer.
            let mut server = MaintainerBuilder::new(backend).serve_single(&g);
            let reader = server.read_handle();
            let writer = server.write_handle();
            writer.submit(updates.to_vec());
            let stats = server.commit().expect("one submission queued");
            assert_eq!(stats.record.updates, 2);
            let snap = reader.snapshot();
            assert_eq!(snap.epoch(), 1);
            assert!(snap.same_component(0, 15));
            assert_eq!(snap.fingerprint(), server.maintainer().tree().fingerprint());
        }
    }

    #[test]
    fn serve_partitioned_routes_and_migrates_on_every_backend() {
        // Two disjoint paths 0-3 and 4-7, one shard each at k = 2.
        let mut g = Graph::new(8);
        for i in 0..3 {
            g.insert_edge(i, i + 1);
            g.insert_edge(i + 4, i + 5);
        }
        for backend in Backend::all_default() {
            let builder = MaintainerBuilder::new(backend);
            assert_eq!(builder.serve_partitioned(&g, 0).num_shards(), 1);
            let mut reference = builder.build(&g);
            let mut router = builder.serve_partitioned(&g, 2);
            assert_eq!(router.num_shards(), 2);
            assert_eq!(router.ownership().counts(), vec![4, 4]);
            // A cross-shard merge migrates the losing component, and the
            // assembled forest stays identical to the unsharded replay.
            let merge = Update::InsertEdge(3, 4);
            reference.apply_update(&merge);
            let record = router.commit(&[merge]).unwrap();
            assert_eq!(record.migrations, 1, "{}", reference.backend_name());
            assert_eq!(
                record.fingerprint,
                reference.tree().fingerprint(),
                "{}: partitioned ≠ unsharded",
                reference.backend_name()
            );
            assert_eq!(router.ownership().counts(), vec![8, 0]);
            let view = router.read_handle().view();
            assert!(view.same_component(0, 7), "{}", reference.backend_name());
        }
    }
}
