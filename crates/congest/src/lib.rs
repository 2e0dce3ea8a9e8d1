//! # pardfs-congest
//!
//! Distributed fully dynamic DFS in the synchronous `CONGEST(B)` model
//! (Theorem 16 of the paper, Section 6.2).
//!
//! Every vertex of the user graph hosts a processor; communication happens in
//! synchronous rounds along graph edges, `B` words per edge per round. Each
//! node stores `O(n)` words: the current DFS tree, the partially built tree
//! and its own adjacency list. An update is absorbed exactly as in the
//! shared-memory engine, except that every set of independent `D` queries is
//! evaluated by a **pipelined convergecast + broadcast** over a BFS tree of
//! each affected component: each node computes the partial answers of all
//! queries from its local adjacency list, the partial answers are combined on
//! the way up the BFS tree and the combined answers are broadcast back down —
//! `O(D + q/B)` rounds for `q` queries, `O(q·D)`-ish messages, matching the
//! paper's `CONGEST(n/D)` accounting when `B = n/D`.
//!
//! The crate provides:
//!
//! * [`Network`] — the synchronous round/message/word accountant: BFS-tree
//!   construction and pipelined broadcast/convergecast cost simulation.
//! * [`BroadcastOracle`] — a [`QueryOracle`] whose `answer_batch` charges the
//!   network for one convergecast/broadcast phase and answers the queries from
//!   per-node adjacency only.
//! * [`BroadcastModel`] — the engine model of Theorem 16, and
//!   [`DistributedDynamicDfs`], `pardfs-core`'s `EngineDfs` in that model,
//!   reporting rounds, messages and words per update through
//!   `stats().congest()`.
//!
//! The pseudo root of the augmented graph is not a network node; queries whose
//! answer is a pseudo edge are resolved locally (they correspond to "this
//! piece becomes a component root", which needs no communication).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod network;

use network::Network;
use pardfs_api::{CongestStats, ModelStats, UpdateStats};
use pardfs_core::reduction::ReductionInput;
use pardfs_core::{EngineDfs, Model};
use pardfs_graph::{Graph, Update, Vertex};
use pardfs_query::scan::Nearest;
use pardfs_query::{EdgeHit, QueryOracle, VertexQuery};
use pardfs_seq::augment::AugmentedGraph;
use pardfs_tree::TreeIndex;
use parking_lot::Mutex;

/// A [`QueryOracle`] that answers batches from per-node adjacency lists and
/// charges the simulated network for the convergecast/broadcast needed to
/// combine and disseminate the answers.
pub struct BroadcastOracle<'a> {
    graph: &'a Graph,
    idx: &'a TreeIndex,
    pseudo_root: Vertex,
    network: &'a Mutex<Network>,
}

impl<'a> BroadcastOracle<'a> {
    /// Create an oracle over the augmented graph, the current tree and the
    /// network accountant.
    pub fn new(
        graph: &'a Graph,
        idx: &'a TreeIndex,
        pseudo_root: Vertex,
        network: &'a Mutex<Network>,
    ) -> Self {
        BroadcastOracle {
            graph,
            idx,
            pseudo_root,
            network,
        }
    }
}

impl QueryOracle for BroadcastOracle<'_> {
    fn answer_batch(&self, queries: &[VertexQuery]) -> Vec<Option<EdgeHit>> {
        // Each query's partial answer is computed locally at its source node
        // from that node's adjacency list, then combined network-wide.
        let out = queries
            .iter()
            .map(|&q| {
                let mut nearest = Nearest::new(self.idx, q);
                if self.graph.is_active(q.w) {
                    for &z in self.graph.neighbors(q.w) {
                        nearest.offer(z);
                    }
                }
                nearest.hit()
            })
            .collect();
        // Network charge: partial answers whose source is the pseudo root (or
        // whose only purpose is reaching the pseudo root) need no
        // communication; everything else is one pipelined
        // convergecast + broadcast of one word-pair per query.
        let communicated = queries
            .iter()
            .filter(|q| q.w != self.pseudo_root && q.near != self.pseudo_root)
            .count() as u64;
        self.network
            .lock()
            .charge_query_phase(communicated.max(1) * 2);
        out
    }
}

/// Distributed fully dynamic DFS maintainer (Theorem 16): the engine in the
/// [`BroadcastModel`], configured with the message bandwidth `B` in words
/// (the paper uses `B = n / D`).
pub type DistributedDynamicDfs = EngineDfs<BroadcastModel>;

/// The distributed CONGEST(B) model (Theorem 16): every set of independent
/// queries is one [`BroadcastOracle`] convergecast/broadcast phase, charged
/// to a fresh [`Network`] accountant per update. The broadcast of the
/// changed parent pointers is charged whether the (per-node) tree index is
/// patched or rebuilt; patching saves the local recomputation at every node.
#[derive(Debug)]
pub struct BroadcastModel {
    bandwidth: usize,
    last: CongestStats,
}

impl Model for BroadcastModel {
    const NAME: &'static str = "congest";
    type Config = usize;

    fn build(_aug: &AugmentedGraph, _idx: &TreeIndex, bandwidth: usize) -> Self {
        BroadcastModel {
            bandwidth: bandwidth.max(1),
            last: CongestStats::default(),
        }
    }

    fn absorb(
        &mut self,
        aug: &AugmentedGraph,
        idx: &TreeIndex,
        update: &Update,
        _input: &ReductionInput,
        reroot: impl FnOnce(&dyn QueryOracle) -> UpdateStats,
    ) -> UpdateStats {
        // The network accountant for this recovery stage: a BFS tree per
        // component of the *user* graph, plus the broadcast of the update
        // description to every node.
        let mut network = Network::new(&user_view(aug), self.bandwidth);
        network.build_bfs_forest();
        network.broadcast_words(update.description_words());
        let network = Mutex::new(network);

        // Reduction + reroot, every query set charged to the network.
        let stats = reroot(&BroadcastOracle::new(
            aug.graph(),
            idx,
            aug.pseudo_root(),
            &network,
        ));

        // Broadcast the new DFS tree (its changed parent pointers) so every
        // node stores the updated tree.
        let mut network = network.into_inner();
        network.broadcast_words(2 * (stats.reroot.relinked_vertices as usize + 1));
        self.last = network.finish();
        stats
    }

    fn stats(&self) -> Option<ModelStats> {
        Some(ModelStats::Congest(self.last))
    }
}

/// The user graph (internal ids minus the pseudo root), used as the
/// communication topology.
fn user_view(aug: &AugmentedGraph) -> Graph {
    let g = aug.graph();
    let mut user = Graph::new(g.capacity());
    for v in 0..g.capacity() as Vertex {
        if v == aug.pseudo_root() || !g.is_active(v) {
            user.delete_vertex(v);
        }
    }
    for e in g.edges() {
        if e.0 != aug.pseudo_root() && e.1 != aug.pseudo_root() {
            user.insert_edge(e.0, e.1);
        }
    }
    user
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardfs_api::DfsMaintainer;
    use pardfs_core::Strategy;
    use pardfs_graph::generators;
    use pardfs_graph::updates::{random_update_sequence, UpdateMix};
    use pardfs_query::StructureD;
    use pardfs_seq::static_dfs::static_dfs;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn congest(dfs: &DistributedDynamicDfs) -> CongestStats {
        *dfs.stats()
            .congest()
            .expect("CONGEST reports carry network costs")
    }

    #[test]
    fn broadcast_oracle_matches_structure_d() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let g = generators::random_connected_gnm(60, 180, &mut rng);
        let mut aug = AugmentedGraph::new(&g);
        let proot = aug.pseudo_root();
        let idx = TreeIndex::build(&static_dfs(aug.graph(), proot));
        let mut d = StructureD::build(aug.graph(), idx.clone());
        // A vertex inserted after the tree was built: `D` knows it only
        // through its overlay, which must also carry the pseudo edge the
        // augmentation adds (as `note_update` records it).
        let insert = aug.translate(&Update::InsertVertex {
            edges: vec![3, 17, 42],
        });
        let fresh = aug.apply_internal(&insert).expect("an inserted vertex");
        let Update::InsertVertex { edges } = &insert else {
            unreachable!("translated from an insertion");
        };
        d.note_insert_vertex(fresh, edges);
        d.note_insert_edge(fresh, proot);

        let verts = idx.pre_order_vertices();
        let mut queries: Vec<VertexQuery> = (0..300)
            .map(|_| {
                let w = verts[rng.gen_range(0..verts.len())];
                let a = verts[rng.gen_range(0..verts.len())];
                // A random ancestor of `a`, by walking up the parent array.
                let mut anc = a;
                for _ in rng.gen_range(0..=idx.level(a))..idx.level(a) {
                    anc = idx.parent_slice()[anc as usize];
                }
                if rng.gen_bool(0.5) {
                    VertexQuery::new(w, a, anc)
                } else {
                    VertexQuery::new(w, anc, a)
                }
            })
            .collect();
        // Singleton queries aimed at the vertex the tree does not contain,
        // from its neighbours, the pseudo root and everyone else.
        queries.extend(verts.iter().map(|&w| VertexQuery::new(w, fresh, fresh)));

        let mut network = Network::new(&user_view(&aug), 4);
        network.build_bfs_forest();
        let network = Mutex::new(network);
        let oracle = BroadcastOracle::new(aug.graph(), &idx, proot, &network);
        let from_broadcast = oracle.answer_batch(&queries);
        let from_d = d.answer_batch(&queries);
        let answer = |h: &Option<EdgeHit>| h.map(|h| (h.on_path, h.rank_from_near));
        for ((q, a), b) in queries.iter().zip(&from_broadcast).zip(&from_d) {
            assert_eq!(answer(a), answer(b), "query {q:?}");
        }
        let hits = from_d[300..].iter().filter(|h| h.is_some()).count();
        assert_eq!(hits, 4, "three neighbours and the pseudo root reach it");
        assert_eq!(network.into_inner().finish().broadcast_phases, 1);
    }

    #[test]
    fn distributed_maintainer_stays_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let g = generators::random_connected_gnm(30, 70, &mut rng);
        let updates = random_update_sequence(&g, 20, &UpdateMix::default(), &mut rng);
        let mut d = DistributedDynamicDfs::with_config(&g, Strategy::Phased, 8);
        d.check().unwrap();
        for (i, u) in updates.iter().enumerate() {
            d.apply_update(u);
            d.check()
                .unwrap_or_else(|e| panic!("update {i} ({u:?}) broke the DFS tree: {e}"));
            let s = congest(&d);
            assert!(s.rounds > 0);
            assert!(s.messages > 0);
        }
    }

    #[test]
    fn rounds_scale_with_diameter() {
        // A long path (large D) needs far more rounds per update than a star
        // (D = 2) of the same size, for the same bandwidth.
        let n = 120usize;
        let mut path_dfs =
            DistributedDynamicDfs::with_config(&generators::path(n), Strategy::Phased, 4);
        let mut star_dfs =
            DistributedDynamicDfs::with_config(&generators::star(n), Strategy::Phased, 4);
        path_dfs.apply_update(&Update::DeleteEdge(60, 61));
        star_dfs.apply_update(&Update::DeleteEdge(0, 50));
        path_dfs.check().unwrap();
        star_dfs.check().unwrap();
        let (path_rounds, star_rounds) = (congest(&path_dfs).rounds, congest(&star_dfs).rounds);
        assert!(
            path_rounds > 4 * star_rounds,
            "path: {path_rounds} rounds, star: {star_rounds} rounds"
        );
    }

    #[test]
    fn bandwidth_trades_against_rounds() {
        let g = generators::grid(8, 8);
        let mut narrow = DistributedDynamicDfs::with_config(&g, Strategy::Phased, 1);
        let mut wide = DistributedDynamicDfs::with_config(&g, Strategy::Phased, 64);
        narrow.apply_update(&Update::DeleteEdge(27, 28));
        wide.apply_update(&Update::DeleteEdge(27, 28));
        narrow.check().unwrap();
        wide.check().unwrap();
        assert!(congest(&narrow).rounds >= congest(&wide).rounds);
    }

    #[test]
    fn message_size_limit_is_respected() {
        let g = generators::grid(5, 5);
        let mut d = DistributedDynamicDfs::with_config(&g, Strategy::Phased, 3);
        for u in [Update::InsertEdge(0, 24), Update::DeleteVertex(12)] {
            d.apply_update(&u);
            d.check().unwrap();
            // No message may carry more than B words.
            let s = congest(&d);
            assert!(s.words <= s.messages * 3, "{u:?}: {s:?}");
        }
    }
}
