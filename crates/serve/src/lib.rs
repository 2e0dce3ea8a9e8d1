//! # pardfs-serve
//!
//! The **epoch-snapshot concurrent serving layer**: wrap any
//! [`DfsMaintainer`](pardfs_api::DfsMaintainer) in a [`Server`] and any
//! number of concurrent readers can query the forest while a single writer
//! keeps absorbing updates — the read path never takes the writer's locks
//! and never observes a half-applied batch.
//!
//! Every other subsystem in this workspace measures *latency* of the
//! maintainer itself; this crate is about *throughput* of a service built on
//! it, which is what the paper's "fully dynamic" setting looks like in
//! production: a stream of updates interleaved with a much larger stream of
//! connectivity/forest queries from many clients at once.
//!
//! ## The three moving parts
//!
//! * [`Snapshot`] — an immutable capture of one epoch: copies of the tree's
//!   parent array and depth-1 ancestor labels plus sizes and the epoch's
//!   tree fingerprint, answering the full
//!   [`ForestQuery`](pardfs_api::ForestQuery) vocabulary with
//!   live-maintainer semantics. [`Snapshot::publish_to`]
//!   writes an epoch to disk as a `pardfs-snap` v2 container and
//!   [`MappedEpoch`] serves `ForestQuery` reads straight off the mapped
//!   file from any process — validated once at open, zero-copy thereafter.
//! * [`Server`] — owns the maintainer (the single writer). Clients
//!   [`WriteHandle::submit`] update batches into a **group-commit queue**;
//!   each [`Server::commit`] drains the whole queue into *one*
//!   `apply_batch`, appends an [`EpochRecord`] to the epoch log, then
//!   publishes the next [`Snapshot`] behind an `Arc`-swapped pointer that
//!   [`ReadHandle::snapshot`] clones lock-free-ly (a read lock held for a
//!   pointer copy).
//! * [`PartitionedRouter`] — sharding by connected component: each shard
//!   owns only its components' subtrees (an [`OwnershipMap`] routes every
//!   vertex to its owner), every update applies on exactly one shard, and
//!   cross-shard component merges migrate state deterministically through
//!   the [`ComponentExport`] wire format, counted in [`RoutingStats`]
//!   (normative spec: `docs/SHARDING.md`).
//!
//! ## Consistency contract
//!
//! Readers are **epoch-consistent**: a snapshot is the complete result of a
//! prefix of commits, never a mix. The mechanism is ordering — the epoch
//! log is appended *before* the snapshot pointer swap — plus immutability;
//! the stress suite verifies both by recomputing observed snapshots'
//! fingerprints against the log (zero tolerance for torn reads).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod partition;
mod routing;
mod server;
mod snapshot;

pub use partition::{
    ComponentExport, PartitionedEpoch, PartitionedRouter, PartitionedView, RouterReadHandle,
    ShardFactory,
};
pub use routing::{OwnershipMap, RoutingStats};
pub use server::{CommitLog, CommitStats, EpochRecord, ReadHandle, Server, WriteHandle};
pub use snapshot::{MappedEpoch, Snapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use pardfs_api::{DfsMaintainer, ForestQuery};
    use pardfs_core::DynamicDfs;
    use pardfs_graph::updates::{random_update_sequence, UpdateMix};
    use pardfs_graph::{generators, Graph, Update, Vertex};
    use pardfs_seq::SeqRerootDfs;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph_and_updates(n: usize, m: usize, k: usize, seed: u64) -> (Graph, Vec<Update>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_connected_gnm(n, m, &mut rng);
        let updates = random_update_sequence(&graph, k, &UpdateMix::default(), &mut rng);
        (graph, updates)
    }

    fn maintainers(graph: &Graph) -> Vec<Box<dyn DfsMaintainer>> {
        vec![
            Box::new(DynamicDfs::new(graph)),
            Box::new(SeqRerootDfs::new(graph)),
        ]
    }

    /// The graphs the snapshot read surfaces are checked on, each with a
    /// burst of updates: a random connected graph, a sparse `G(n, p)` forest
    /// of many trees (cross-tree `false` answers), and a 4096-vertex path
    /// (a tree 4096 levels deep).
    fn read_surface_cases() -> Vec<(Graph, Vec<Update>)> {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let sparse = generators::gnp(300, 0.004, &mut rng);
        let sparse_updates = random_update_sequence(&sparse, 25, &UpdateMix::default(), &mut rng);
        let path = generators::path(4096);
        let path_updates = random_update_sequence(&path, 10, &UpdateMix::edges_only(), &mut rng);
        vec![
            graph_and_updates(80, 240, 25, 42),
            (sparse, sparse_updates),
            (path, path_updates),
        ]
    }

    /// Assert that `q` answers every forest read as the live `dfs` does, on
    /// every id up to two past the capacity, and return how many
    /// `same_component` pairs it answered `false`.
    fn assert_reads_match(q: &dyn ForestQuery, dfs: &dyn DfsMaintainer) -> usize {
        let name = dfs.backend_name();
        assert_eq!(q.num_vertices(), dfs.num_vertices());
        assert_eq!(q.num_edges(), dfs.num_edges());
        assert_eq!(q.forest_roots(), dfs.forest_roots(), "{name}: forest_roots");
        let mut apart = 0;
        for v in 0..dfs.augmented_graph().capacity() as Vertex + 1 {
            assert_eq!(
                q.forest_parent(v),
                dfs.forest_parent(v),
                "{name}: forest_parent({v})"
            );
            for u in [0, v / 2, v, v.wrapping_mul(2_654_435_761) % (v + 1)] {
                let same = q.same_component(u, v);
                assert_eq!(
                    same,
                    dfs.same_component(u, v),
                    "{name}: same_component({u}, {v})"
                );
                apart += usize::from(!same);
            }
        }
        apart
    }

    #[test]
    fn snapshot_answers_match_the_live_maintainer() {
        for (i, (graph, updates)) in read_surface_cases().into_iter().enumerate() {
            for mut dfs in maintainers(&graph) {
                for update in &updates {
                    dfs.apply_update(update);
                }
                let snap = Snapshot::capture(7, dfs.as_ref());
                assert_eq!(snap.epoch(), 7);
                assert_eq!(snap.backend(), dfs.backend_name());
                assert_eq!(snap.fingerprint(), dfs.tree().fingerprint());
                assert_eq!(snap.recompute_fingerprint(), snap.fingerprint());
                let apart = assert_reads_match(&snap, dfs.as_ref());
                if i == 1 {
                    assert!(
                        dfs.forest_roots().len() > 100,
                        "the sparse case is a forest"
                    );
                    assert!(apart > 500, "cross-tree pairs answer false: {apart}");
                }
            }
        }
    }

    #[test]
    fn mapped_epoch_answers_match_the_live_maintainer() {
        let dir = std::env::temp_dir().join(format!("pardfs-serve-mapped-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (i, (graph, updates)) in read_surface_cases().into_iter().enumerate() {
            for mut dfs in maintainers(&graph) {
                for update in &updates {
                    dfs.apply_update(update);
                }
                let snap = Snapshot::capture(9, dfs.as_ref());
                let path = dir.join(format!("{i}-{}.epoch", dfs.backend_name()));
                snap.publish_to(&path).unwrap();
                let mapped = Snapshot::open_mapped(&path).unwrap();
                assert_eq!(mapped.epoch(), 9);
                assert_eq!(mapped.backend(), dfs.backend_name());
                assert_eq!(mapped.fingerprint(), dfs.tree().fingerprint());
                assert_reads_match(&mapped, dfs.as_ref());
                // Materializing rebuilds the exact captured index
                // (fingerprint re-verified inside `materialize`).
                let index = mapped.materialize().unwrap();
                dfs.tree().structural_eq(&index).unwrap();
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_absorbs_all_pending_submissions_into_one_epoch() {
        let (graph, updates) = graph_and_updates(60, 180, 12, 7);
        let mut server = Server::new(Box::new(SeqRerootDfs::new(&graph)));
        let writer = server.write_handle();
        for chunk in updates.chunks(3) {
            writer.submit(chunk.to_vec());
        }
        let stats = server.commit().expect("four submissions queued");
        assert_eq!(stats.record.epoch, 1);
        assert_eq!(stats.record.submissions, 4);
        assert_eq!(stats.record.updates, updates.len());
        assert_eq!(stats.report.applied(), updates.len());
        // One epoch, not four: log holds exactly {initial, commit}.
        assert_eq!(server.epochs().len(), 2);
        // Nothing left queued.
        assert!(server.commit().is_none());
    }

    #[test]
    fn published_snapshots_advance_with_epochs_and_old_ones_stay_valid() {
        let (graph, updates) = graph_and_updates(60, 180, 10, 11);
        let mut server = Server::new(Box::new(DynamicDfs::new(&graph)));
        let reader = server.read_handle();
        let writer = server.write_handle();

        let initial = reader.snapshot();
        assert_eq!(initial.epoch(), 0);
        assert_eq!(
            reader.recorded_fingerprint(0),
            Some(initial.fingerprint()),
            "epoch 0 is in the log before any commit"
        );

        let mut held: Vec<std::sync::Arc<Snapshot>> = vec![initial];
        for update in &updates {
            writer.submit(vec![update.clone()]);
            let stats = server.commit().expect("one submission queued");
            let snap = reader.snapshot();
            assert_eq!(snap.epoch(), stats.record.epoch);
            assert_eq!(snap.fingerprint(), stats.record.fingerprint);
            held.push(snap);
        }
        // Every historical snapshot still recomputes to its recorded
        // fingerprint — immutability across later commits.
        for snap in &held {
            assert_eq!(snap.recompute_fingerprint(), snap.fingerprint());
            assert_eq!(
                reader.recorded_fingerprint(snap.epoch()),
                Some(snap.fingerprint())
            );
        }
        assert_eq!(reader.epochs().len(), updates.len() + 1);
    }
}
