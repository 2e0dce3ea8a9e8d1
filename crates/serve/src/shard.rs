//! The [`ShardRouter`]: shard-per-component routing over several servers.
//!
//! ## v1 routing rules (replicated writes, affinity reads)
//!
//! Every shard holds a **full replica** of the forest: a commit broadcasts
//! the same update batch to every shard's server (the per-shard commits run
//! concurrently on scoped threads), so any shard can authoritatively answer
//! any query. Reads are routed by **component affinity** — the router keeps
//! a scratch mirror of the user graph, relabels connected components after
//! each commit, and sends a query about vertex `v` to shard
//! `component(v) mod k`, so queries about one component keep hitting one
//! shard's caches while other shards serve other components. Whole-forest
//! queries ([`pardfs_api::ForestQuery::forest_roots`]) go to shard 0.
//!
//! **Cost model** — replication multiplies write work by the shard count:
//! every update batch is applied `k` times, once per shard, so adding
//! shards scales *read* throughput only and makes writes strictly more
//! expensive. When write scalability matters, use the **partitioned**
//! [`PartitionedRouter`](crate::PartitionedRouter) (v2) instead: each shard
//! owns only its components' subtrees and applies ~`1/k` of the updates,
//! with deterministic state migration on cross-shard merges (normative
//! spec: `docs/SHARDING.md`, cost comparison: the write-amplification test
//! in `tests/serve_partitioned.rs`). Replication keeps v1's per-shard trees
//! byte-identical to a single server's replay — which is what the
//! determinism suite pins — and remains the right choice when queries
//! dominate and the update rate is low.

use crate::server::{CommitStats, Server};
use crate::{ReadHandle, Snapshot};
use pardfs_api::{DfsMaintainer, StatsRollup};
use pardfs_graph::{connected_components, Graph, Update, Vertex};
use std::sync::Arc;

/// A group of replica [`Server`]s with component-affinity read routing.
pub struct ShardRouter {
    servers: Vec<Server>,
    scratch: Graph,
    labels: Vec<u32>,
}

impl ShardRouter {
    /// Build a router over one replica maintainer per shard. Every replica
    /// must have been built over `user_graph` (the same initial state) —
    /// the router broadcasts every subsequent batch to all of them.
    ///
    /// # Panics
    ///
    /// Panics when `replicas` is empty.
    pub fn new(replicas: Vec<Box<dyn DfsMaintainer>>, user_graph: &Graph) -> Self {
        assert!(!replicas.is_empty(), "a router needs at least one shard");
        let scratch = user_graph.clone();
        let (labels, _) = connected_components(&scratch);
        ShardRouter {
            servers: replicas.into_iter().map(Server::new).collect(),
            scratch,
            labels,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.servers.len()
    }

    /// Broadcast `updates` to every shard and commit one epoch on each,
    /// concurrently (one scoped thread per shard), then refresh the
    /// component labels the read routing uses. Returns the per-shard commit
    /// stats, in shard order.
    pub fn commit(&mut self, updates: &[Update]) -> Vec<CommitStats> {
        let mut out: Vec<Option<CommitStats>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .servers
                .iter_mut()
                .map(|server| {
                    scope.spawn(move || {
                        let writer = server.write_handle();
                        writer.submit(updates.to_vec());
                        drop(writer);
                        server.commit().expect("queue holds the broadcast batch")
                    })
                })
                .collect();
            for handle in handles {
                out.push(Some(handle.join().expect("shard commit panicked")));
            }
        });
        for update in updates {
            self.scratch.apply(update);
        }
        let (labels, _) = connected_components(&self.scratch);
        self.labels = labels;
        out.into_iter().map(|s| s.expect("joined above")).collect()
    }

    /// Sum of the per-shard roll-ups of one broadcast commit — the total
    /// work the shard group did for the epoch (with `k` replicas this is
    /// `k ×` a single server's work; the ROADMAP's partitioned sharding is
    /// what brings it back down).
    pub fn merged_rollup(commits: &[CommitStats]) -> StatsRollup {
        let mut total = StatsRollup::default();
        for commit in commits {
            total.merge(&commit.record.rollup);
        }
        total
    }

    /// The shard a query about user vertex `v` routes to:
    /// `component(v) mod k` per the labels of the last commit. Vertices not
    /// currently in the graph (and the whole-forest queries) route to
    /// shard 0.
    pub fn shard_for(&self, v: Vertex) -> usize {
        match self.labels.get(v as usize) {
            Some(&label) if label != u32::MAX => label as usize % self.servers.len(),
            _ => 0,
        }
    }

    /// Read handle of a specific shard.
    pub fn read_handle(&self, shard: usize) -> ReadHandle {
        self.servers[shard].read_handle()
    }

    /// Read handle of the shard that serves user vertex `v` (see
    /// [`ShardRouter::shard_for`]).
    pub fn handle_for(&self, v: Vertex) -> ReadHandle {
        self.read_handle(self.shard_for(v))
    }

    /// The current snapshot of the shard serving user vertex `v`.
    pub fn snapshot_for(&self, v: Vertex) -> Arc<Snapshot> {
        self.handle_for(v).snapshot()
    }

    /// The per-shard servers (shard order).
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }
}
