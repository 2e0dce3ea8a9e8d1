//! The [`PartitionedRouter`]: **component-owned** shards with routed commits
//! and cross-shard merge migration.
//!
//! ## Routing rules (partitioned writes, owner reads)
//!
//! The unit of sharding is the connected component — in the paper, one DFS
//! tree below the pseudo root. The router gives each shard **only its own
//! components' subtrees** and routes each update to the single shard that
//! owns the touched component:
//!
//! * **Ownership** — an [`OwnershipMap`] (one owning shard per user vertex)
//!   seeded from the initial component labelling (`component c → shard
//!   c mod k`). Component *splits* never move state: both halves stay with
//!   their owner. New singleton vertices go to shard `id mod k`.
//! * **Routing** — `InsertEdge`/`DeleteEdge`/`DeleteVertex` apply on exactly
//!   one shard. `InsertVertex` applies on its owner and is **echoed** to
//!   every other shard as an empty insert immediately retired by a delete,
//!   so all shards allocate vertex ids in lockstep (ids are positional —
//!   `insert_vertex` always appends a slot).
//! * **Migration** — an update that would join components owned by
//!   different shards first *co-locates* them: the losing shard exports its
//!   component through [`ComponentExport`] (the `pardfs-snap v2` graph +
//!   tree sections), the winning shard imports it via the factory's
//!   `from_state` resume, and ownership is rewritten. The winner is the
//!   **larger component, ties to the smaller component id** (the smaller
//!   minimum vertex id) — deterministic, so a replay always migrates the
//!   same way.
//!
//! Readers get a [`PartitionedView`] per router epoch: the per-shard
//! snapshots plus the ownership table that routes each query, published
//! behind the same log-before-swap discipline as a single [`Server`] so the
//! stress suite's torn-read census applies unchanged.
//!
//! The determinism argument (partitioned forest ≡ unsharded replay, per
//! epoch) and the full merge-migration state machine are documented
//! normatively in `docs/SHARDING.md`; the differential suite
//! (`tests/serve_partitioned.rs`) pins the equivalence on every corpus
//! trace at k ∈ {2, 3}.

use crate::routing::{OwnershipMap, RoutingStats};
use crate::server::Server;
use crate::snapshot::Snapshot;
use pardfs_api::{DfsMaintainer, ForestQuery, StatsRollup};
use pardfs_graph::snap::{put_u64, Cursor};
use pardfs_graph::{
    connected_components, Graph, GraphView, SnapReader, SnapWriter, Update, Vertex,
};
use pardfs_tree::{write_tree_sections, TreeIndex, TreeView, NO_VERTEX};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;
use std::time::Instant;

/// Section tag of a component export's header (member count, capacity,
/// component id — `u64` each), ahead of the standard graph/tree sections.
const SEC_MIGRATION_HEADER: [u8; 4] = *b"MHDR";

/// Constructs the per-shard maintainers a [`PartitionedRouter`] serves.
///
/// The router cannot name concrete backends (backend crates depend on the
/// API, never the other way around), so shard construction is injected:
/// [`ShardFactory::build`] makes a fresh maintainer over a shard's initial
/// component restriction, and [`ShardFactory::resume`] rebuilds one from
/// explicit state — the import half of a migration, and the same
/// `from_state` surface the durability layer's recovery uses. The umbrella
/// crate implements this for `MaintainerBuilder`, so any backend × policy
/// configuration can serve partitioned.
///
/// ```
/// use pardfs_api::DfsMaintainer;
/// use pardfs_graph::Graph;
/// use pardfs_seq::{AugmentedGraph, SeqRerootDfs};
/// use pardfs_serve::ShardFactory;
/// use pardfs_tree::TreeIndex;
///
/// struct Sequential;
/// impl ShardFactory for Sequential {
///     fn build(&self, user_graph: &Graph) -> Box<dyn DfsMaintainer> {
///         Box::new(SeqRerootDfs::new(user_graph))
///     }
///     fn resume(
///         &self,
///         aug_graph: Graph,
///         tree: TreeIndex,
///     ) -> Result<Box<dyn DfsMaintainer>, String> {
///         let aug = AugmentedGraph::from_internal(aug_graph)?;
///         Ok(Box::new(SeqRerootDfs::from_state(aug, tree)))
///     }
/// }
///
/// let factory = Sequential;
/// let mut g = Graph::new(2);
/// g.insert_edge(0, 1);
/// assert_eq!(factory.build(&g).num_edges(), 1);
/// ```
pub trait ShardFactory {
    /// Build a fresh maintainer over `user_graph` (a shard's initial
    /// component restriction).
    fn build(&self, user_graph: &Graph) -> Box<dyn DfsMaintainer>;

    /// Rebuild a maintainer from explicit state: an internal (pseudo-root
    /// augmented) graph plus the DFS tree over it, exactly as
    /// `MaintainerBuilder::build_from_state` validates and resumes them.
    fn resume(&self, aug_graph: Graph, tree: TreeIndex) -> Result<Box<dyn DfsMaintainer>, String>;
}

/// One component's state, extracted from a shard for migration: the
/// pseudo-root-augmented restriction of the shard's graph to the component
/// (adjacency lists **verbatim**, in stored order — DFS tree shape depends
/// on it) and the component's slice of the shard's DFS tree, both at full
/// slot capacity so vertex ids survive the move positionally.
///
/// The wire format is a `pardfs-snap v2` container: an `MHDR` header
/// section followed by the standard graph (`GHDR`/`GACT`/`GDEG`/`GADJ`) and
/// tree (`THDR`/`TPAR`) sections — the exact sections `docs/FORMATS.md`
/// specifies, so a migration payload is debuggable with the same tooling as
/// any checkpoint. [`PartitionedRouter`] round-trips every migration
/// through [`ComponentExport::to_bytes`] / [`ComponentExport::from_bytes`],
/// keeping the in-process fast path byte-identical to what a cross-process
/// migration would ship.
///
/// ```
/// use pardfs_graph::Graph;
/// use pardfs_serve::ComponentExport;
/// use pardfs_tree::{TreeIndex, NO_VERTEX};
///
/// // Internal ids: pseudo root 0, user vertices 1-2 forming one edge.
/// let graph = Graph::from_adjacency_lists(
///     vec![vec![1, 2], vec![0, 2], vec![0, 1]],
///     vec![true, true, true],
/// )
/// .unwrap();
/// let tree = TreeIndex::from_parent_slice(&[0, 0, 1], 0);
/// let export = ComponentExport::new(graph, tree, vec![0, 1], 0).unwrap();
/// let bytes = export.to_bytes();
/// let back = ComponentExport::from_bytes(&bytes).unwrap();
/// assert_eq!(back.members(), &[0, 1]);
/// assert_eq!(back.graph(), export.graph());
/// ```
#[derive(Debug, Clone)]
pub struct ComponentExport {
    graph: Graph,
    tree: TreeIndex,
    members: Vec<Vertex>,
    component_id: Vertex,
}

impl PartialEq for ComponentExport {
    fn eq(&self, other: &Self) -> bool {
        self.graph == other.graph
            && self.members == other.members
            && self.component_id == other.component_id
            && self.tree.root() == other.tree.root()
            && self.tree.parent_slice() == other.tree.parent_slice()
    }
}

impl ComponentExport {
    /// Package an already-extracted component. `graph` must be an internal
    /// (pseudo-root augmented) graph whose active vertices are exactly the
    /// pseudo root plus `members` (as internal ids `v + 1`), `tree` a DFS
    /// tree over it rooted at the pseudo root, and `component_id` the
    /// component's identity — its minimum member id.
    pub fn new(
        graph: Graph,
        tree: TreeIndex,
        members: Vec<Vertex>,
        component_id: Vertex,
    ) -> Result<ComponentExport, String> {
        if graph.capacity() != tree.capacity() {
            return Err(format!(
                "graph capacity {} != tree capacity {}",
                graph.capacity(),
                tree.capacity()
            ));
        }
        if tree.root() != 0 {
            return Err(format!(
                "export tree rooted at {}, expected the pseudo root 0",
                tree.root()
            ));
        }
        for &v in &members {
            if !graph.is_active(v + 1) {
                return Err(format!("member {v} is not active in the export graph"));
            }
            if !tree.contains(v + 1) {
                return Err(format!("member {v} is missing from the export tree"));
            }
        }
        if graph.num_vertices() != members.len() + 1 {
            return Err(format!(
                "export graph has {} active vertices for {} members (+ pseudo root)",
                graph.num_vertices(),
                members.len()
            ));
        }
        Ok(ComponentExport {
            graph,
            tree,
            members,
            component_id,
        })
    }

    /// Extract user vertices `members` (one whole component) from a live
    /// maintainer. Adjacency lists and tree parents are copied verbatim;
    /// the pseudo root's adjacency is filtered to the members, preserving
    /// relative order.
    pub fn extract(m: &dyn DfsMaintainer, members: &[Vertex]) -> ComponentExport {
        let mut member = vec![false; m.augmented_graph().capacity()];
        for &v in members {
            member[(v + 1) as usize] = true;
        }
        let (graph, tree) = restrict(m, |i| member[i as usize]);
        let mut members = members.to_vec();
        members.sort_unstable();
        let component_id = members.first().copied().unwrap_or(0);
        ComponentExport {
            graph,
            tree,
            members,
            component_id,
        }
    }

    /// The migrated user vertices, ascending.
    pub fn members(&self) -> &[Vertex] {
        &self.members
    }

    /// The component's identity: its minimum member id (the migration
    /// tie-break key).
    pub fn component_id(&self) -> Vertex {
        self.component_id
    }

    /// The component's pseudo-root-augmented graph restriction (full slot
    /// capacity, members + pseudo root active).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The component's DFS tree slice, rooted at the pseudo root.
    pub fn tree(&self) -> &TreeIndex {
        &self.tree
    }

    /// Serialize as a `pardfs-snap v2` container (`MHDR` + graph + tree
    /// sections).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        let hdr = w.section_aligned(SEC_MIGRATION_HEADER, 8);
        put_u64(hdr, self.members.len() as u64);
        put_u64(hdr, self.graph.capacity() as u64);
        put_u64(hdr, self.component_id as u64);
        self.graph.write_snap_sections(&mut w);
        write_tree_sections(&mut w, self.tree.root(), self.tree.parent_slice());
        w.finish()
    }

    /// Parse a serialized export with the snapshot decoders ([`GraphView`]
    /// and [`TreeView`], which validate the graph and tree sections exactly
    /// like a checkpoint open), re-deriving the member list from the graph's
    /// activity bitmap (the header's claimed count must agree). Like every
    /// view, it requires `bytes` to start at a 4-byte-aligned address (as
    /// the `Vec<u8>` of [`ComponentExport::to_bytes`] and a mapped file do);
    /// a misaligned buffer is refused with an error naming the alignment.
    pub fn from_bytes(bytes: &[u8]) -> Result<ComponentExport, String> {
        let r = SnapReader::parse(bytes)?;
        let mut hdr = Cursor::new(SEC_MIGRATION_HEADER, r.section(SEC_MIGRATION_HEADER)?);
        let claimed_members = hdr.u64()? as usize;
        let claimed_cap = hdr.u64()? as usize;
        let component_id = Vertex::try_from(hdr.u64()?)
            .map_err(|_| "component id overflows the vertex id space".to_string())?;
        hdr.finish()?;
        let graph = GraphView::parse(&r)?;
        let tree = TreeView::parse(&r)?;
        if graph.capacity() != claimed_cap {
            return Err(format!(
                "export header claims capacity {claimed_cap}, graph encodes {}",
                graph.capacity()
            ));
        }
        if !graph.is_active(0) {
            return Err("export graph's pseudo root is inactive".to_string());
        }
        let members: Vec<Vertex> = (1..graph.capacity() as Vertex)
            .filter(|&i| graph.is_active(i))
            .map(|i| i - 1)
            .collect();
        if members.len() != claimed_members {
            return Err(format!(
                "export header claims {claimed_members} members, graph encodes {}",
                members.len()
            ));
        }
        ComponentExport::new(graph.to_graph(), tree.to_index(), members, component_id)
    }
}

/// The record of one committed **router** epoch (one [`PartitionedRouter::commit`]
/// call), appended to the router's epoch log before its view is published —
/// the same write-then-publish discipline as a single server's
/// [`EpochRecord`](crate::EpochRecord), so torn-read checks work unchanged.
#[derive(Debug, Clone)]
pub struct PartitionedEpoch {
    /// Router epoch number (0 = initial state, then one per commit).
    pub epoch: u64,
    /// User updates in the committed batch.
    pub updates: usize,
    /// Of those, updates routed to exactly one owning shard (all of them).
    pub routed: u64,
    /// Allocation-echo updates pushed to non-owning shards.
    pub echoes: u64,
    /// Cross-shard component migrations this commit triggered.
    pub migrations: u64,
    /// Vertices those migrations moved.
    pub migrated_vertices: u64,
    /// Server epochs minted across the shards (mid-commit migration flushes
    /// plus the end-of-commit flush).
    pub shard_commits: usize,
    /// Fingerprint of the **assembled** forest (all shards' trees stitched
    /// by ownership) — directly comparable to an unsharded tree fingerprint.
    pub fingerprint: u64,
    /// User vertices across all shards after the commit.
    pub num_vertices: usize,
    /// User edges across all shards after the commit.
    pub num_edges: usize,
    /// Merged structural roll-up of every shard commit in this epoch.
    pub rollup: StatsRollup,
    /// Wall-clock microseconds the router spent committing.
    pub micros: u64,
}

impl PartitionedEpoch {
    /// Project onto a single-server [`EpochRecord`](crate::EpochRecord) —
    /// the router's per-epoch facts in the shape the workload runner
    /// consumes (`submissions` carries the shard commit count, the closest
    /// analogue of group-commit absorption).
    pub fn as_epoch_record(&self) -> crate::EpochRecord {
        crate::EpochRecord {
            epoch: self.epoch,
            updates: self.updates,
            submissions: self.shard_commits,
            fingerprint: self.fingerprint,
            num_vertices: self.num_vertices,
            num_edges: self.num_edges,
            rollup: self.rollup,
            micros: self.micros,
        }
    }
}

/// An immutable, epoch-consistent view of the whole partitioned forest: the
/// per-shard [`Snapshot`]s of one router epoch plus the [`OwnershipMap`]
/// that was current when they were published. Queries route by ownership —
/// [`ForestQuery::forest_parent`] asks the owning shard, whole-forest
/// queries merge across shards — and because the view holds the snapshot
/// `Arc`s directly, it stays valid however many epochs (or migrations,
/// which replace shard servers) happen after it was taken.
pub struct PartitionedView {
    epoch: u64,
    fingerprint: u64,
    num_vertices: usize,
    num_edges: usize,
    ownership: OwnershipMap,
    shards: Vec<Arc<Snapshot>>,
}

impl PartitionedView {
    /// The router epoch this view captures.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The assembled forest fingerprint recorded for this epoch.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The ownership table as of this epoch.
    pub fn ownership(&self) -> &OwnershipMap {
        &self.ownership
    }

    /// The snapshot owning user vertex `v`, if it is active.
    pub fn snapshot_for(&self, v: Vertex) -> Option<&Arc<Snapshot>> {
        self.ownership
            .owner(v)
            .map(|shard| &self.shards[shard as usize])
    }

    /// Stitch the shards' trees into one forest index over the full
    /// internal id space: pseudo root 0, each owned vertex's parent taken
    /// from its owning shard. Identical to the unsharded maintainer's tree
    /// (the determinism contract the differential suite pins).
    pub fn assemble_tree(&self) -> TreeIndex {
        assembled_tree(&self.ownership, &self.shards)
    }

    /// Recompute the assembled fingerprint from the shard trees — the
    /// torn-read census for partitioned serving: must always equal
    /// [`PartitionedView::fingerprint`], since the view is immutable.
    pub fn recompute_fingerprint(&self) -> u64 {
        self.assemble_tree().fingerprint()
    }
}

impl ForestQuery for PartitionedView {
    fn forest_parent(&self, v: Vertex) -> Option<Vertex> {
        self.snapshot_for(v).and_then(|snap| snap.forest_parent(v))
    }

    fn forest_roots(&self) -> Vec<Vertex> {
        let mut roots: Vec<Vertex> = self
            .shards
            .iter()
            .flat_map(|snap| snap.forest_roots())
            .collect();
        // Each shard's roots are ascending (children lists are id-sorted);
        // the union sorted matches the unsharded maintainer's answer.
        roots.sort_unstable();
        roots
    }

    fn same_component(&self, u: Vertex, v: Vertex) -> bool {
        match (self.ownership.owner(u), self.ownership.owner(v)) {
            // One shard owns a whole component, so cross-owner is never
            // connected and the owner answers intra-shard pairs exactly.
            (Some(a), Some(b)) if a == b => self.shards[a as usize].same_component(u, v),
            _ => false,
        }
    }

    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }
}

/// State shared between the router (writer) and its read handles.
struct RouterShared {
    published: RwLock<Arc<PartitionedView>>,
    epochs: Mutex<Vec<PartitionedEpoch>>,
}

/// Read handle onto a [`PartitionedRouter`]: cheaply cloneable, usable from
/// any number of reader threads while the router commits. The same
/// lock-for-a-pointer-copy publication as a single server's
/// [`ReadHandle`](crate::ReadHandle).
#[derive(Clone)]
pub struct RouterReadHandle {
    shared: Arc<RouterShared>,
}

impl RouterReadHandle {
    /// The most recently published view.
    pub fn view(&self) -> Arc<PartitionedView> {
        self.shared.published.read().clone()
    }

    /// The most recently published router epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.published.read().epoch
    }

    /// The assembled fingerprint the router's epoch log records for
    /// `epoch`. Records are appended before views are published, so a
    /// `None` for an observed epoch is a consistency violation.
    pub fn recorded_fingerprint(&self, epoch: u64) -> Option<u64> {
        self.shared
            .epochs
            .lock()
            .get(epoch as usize)
            .map(|r| r.fingerprint)
    }

    /// A copy of the router's epoch log so far.
    pub fn epochs(&self) -> Vec<PartitionedEpoch> {
        self.shared.epochs.lock().clone()
    }
}

/// Partitioned sharding over component-owned shards (see the module docs
/// for the routing rules and `docs/SHARDING.md` for the normative spec).
///
/// Writes scale: each update applies on one shard (plus O(k) trivial
/// allocation echoes per vertex insertion), so `k` shards do ~`1/k` of the
/// write work each on multi-component workloads (asserted by the
/// write-amplification test in `tests/serve_partitioned.rs`), at the price
/// of migration pauses when components merge across shards.
///
/// ```
/// use pardfs_api::{DfsMaintainer, ForestQuery};
/// use pardfs_graph::{Graph, Update};
/// use pardfs_seq::{AugmentedGraph, SeqRerootDfs};
/// use pardfs_serve::{PartitionedRouter, ShardFactory};
/// use pardfs_tree::TreeIndex;
///
/// struct Sequential;
/// impl ShardFactory for Sequential {
///     fn build(&self, user_graph: &Graph) -> Box<dyn DfsMaintainer> {
///         Box::new(SeqRerootDfs::new(user_graph))
///     }
///     fn resume(
///         &self,
///         aug_graph: Graph,
///         tree: TreeIndex,
///     ) -> Result<Box<dyn DfsMaintainer>, String> {
///         let aug = AugmentedGraph::from_internal(aug_graph)?;
///         Ok(Box::new(SeqRerootDfs::from_state(aug, tree)))
///     }
/// }
///
/// // Two components (0-1 and 2-3) across two shards: each shard owns one.
/// let mut g = Graph::new(4);
/// g.insert_edge(0, 1);
/// g.insert_edge(2, 3);
/// let mut router = PartitionedRouter::new(Box::new(Sequential), &g, 2);
/// assert_eq!(router.ownership().counts(), vec![2, 2]);
///
/// // Intra-component updates route to their owner alone (a split keeps
/// // both halves with their shard; no state ever moves)...
/// assert!(router.commit(&[]).is_none(), "no epoch for an empty batch");
/// let record = router
///     .commit(&[Update::DeleteEdge(0, 1), Update::InsertEdge(1, 0)])
///     .unwrap();
/// assert_eq!(record.migrations, 0);
///
/// // ...while a cross-shard merge migrates the losing component first
/// // (equal sizes: the smaller component id — component 0 — wins).
/// let record = router.commit(&[Update::InsertEdge(1, 2)]).unwrap();
/// assert_eq!(record.migrations, 1);
/// assert_eq!(router.ownership().counts(), vec![4, 0]);
/// let view = router.read_handle().view();
/// assert!(view.same_component(0, 3));
/// assert_eq!(view.recompute_fingerprint(), view.fingerprint());
/// ```
pub struct PartitionedRouter {
    factory: Box<dyn ShardFactory>,
    servers: Vec<Server>,
    scratch: Graph,
    ownership: OwnershipMap,
    stats: RoutingStats,
    next_epoch: u64,
    shared: Arc<RouterShared>,
}

impl PartitionedRouter {
    /// Partition `user_graph` across `shards` shards by component
    /// (`component c → shard c mod k`), build one maintainer per shard over
    /// its restriction via `factory`, and publish the assembled state as
    /// router epoch 0.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn new(factory: Box<dyn ShardFactory>, user_graph: &Graph, shards: usize) -> Self {
        assert!(shards > 0, "a partitioned router needs at least one shard");
        let (labels, _) = connected_components(user_graph);
        let ownership = OwnershipMap::from_labels(&labels, shards);
        let servers: Vec<Server> = (0..shards as u32)
            .map(|shard| {
                let restricted = restriction(user_graph, &ownership, shard);
                Server::new(factory.build(&restricted))
            })
            .collect();
        let snaps: Vec<Arc<Snapshot>> =
            servers.iter().map(|s| s.read_handle().snapshot()).collect();
        let fingerprint = assembled_tree(&ownership, &snaps).fingerprint();
        let num_vertices = snaps.iter().map(|s| s.num_vertices()).sum();
        let num_edges = snaps.iter().map(|s| s.num_edges()).sum();
        let record = PartitionedEpoch {
            epoch: 0,
            updates: 0,
            routed: 0,
            echoes: 0,
            migrations: 0,
            migrated_vertices: 0,
            shard_commits: 0,
            fingerprint,
            num_vertices,
            num_edges,
            rollup: StatsRollup::default(),
            micros: 0,
        };
        let view = PartitionedView {
            epoch: 0,
            fingerprint,
            num_vertices,
            num_edges,
            ownership: ownership.clone(),
            shards: snaps,
        };
        PartitionedRouter {
            factory,
            servers,
            scratch: user_graph.clone(),
            stats: RoutingStats::new(shards),
            ownership,
            next_epoch: 1,
            shared: Arc::new(RouterShared {
                published: RwLock::new(Arc::new(view)),
                epochs: Mutex::new(vec![record]),
            }),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.servers.len()
    }

    /// The current ownership table (updated through the last commit).
    pub fn ownership(&self) -> &OwnershipMap {
        &self.ownership
    }

    /// Cumulative routing statistics across all commits.
    pub fn stats(&self) -> &RoutingStats {
        &self.stats
    }

    /// A read handle onto the published views (cheap; clone freely).
    pub fn read_handle(&self) -> RouterReadHandle {
        RouterReadHandle {
            shared: self.shared.clone(),
        }
    }

    /// The per-shard servers (shard order). Mid-epoch these may be ahead of
    /// the published view; migration replaces a shard's server in place.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Route and commit `updates` as one router epoch: each update applies
    /// on its owning shard (cross-shard merges migrate the losing component
    /// first), the per-shard batches commit concurrently, and the assembled
    /// view is published. Returns `None` for an empty batch (mirroring
    /// [`Server::commit`] — no epoch is minted for no work).
    ///
    /// # Panics
    ///
    /// Panics when an update references an inactive vertex (the same
    /// updates a live maintainer would reject) or when a shard maintainer
    /// fails to resume from a migrated state.
    pub fn commit(&mut self, updates: &[Update]) -> Option<PartitionedEpoch> {
        if updates.is_empty() {
            return None;
        }
        let start = Instant::now();
        let k = self.servers.len();
        let before = self.stats.clone();
        let mut pending: Vec<Vec<Update>> = vec![Vec::new(); k];
        let mut rollup = StatsRollup::default();
        let mut shard_commits = 0usize;
        for update in updates {
            match update {
                Update::InsertEdge(u, v) => {
                    let ou = self.owner_of(*u, update);
                    let ov = self.owner_of(*v, update);
                    let target = if ou == ov {
                        ou
                    } else {
                        self.co_locate(&[*u, *v], &mut pending, &mut rollup, &mut shard_commits)
                    };
                    self.route(target, update.clone(), &mut pending);
                }
                Update::DeleteEdge(u, _) => {
                    let target = self.owner_of(*u, update);
                    self.route(target, update.clone(), &mut pending);
                }
                Update::DeleteVertex(v) => {
                    let target = self.owner_of(*v, update);
                    self.route(target, update.clone(), &mut pending);
                    self.ownership.clear(*v);
                }
                Update::InsertVertex { edges } => {
                    let owner = if edges.is_empty() {
                        // A fresh singleton component: placed round-robin
                        // by its (positional) id, like the initial
                        // `component mod k` rule.
                        (self.scratch.capacity() % k) as u32
                    } else {
                        self.co_locate(edges, &mut pending, &mut rollup, &mut shard_commits)
                    };
                    self.route(owner, update.clone(), &mut pending);
                    // Echo the allocation everywhere else: an empty insert
                    // immediately retired keeps every shard's positional
                    // vertex-id allocator in lockstep.
                    let new_id = self.scratch.capacity() as Vertex;
                    for shard in 0..k as u32 {
                        if shard != owner {
                            pending[shard as usize]
                                .push(Update::InsertVertex { edges: Vec::new() });
                            pending[shard as usize].push(Update::DeleteVertex(new_id));
                            self.stats.echo_updates += 2;
                            self.stats.applied_per_shard[shard as usize] += 2;
                        }
                    }
                    self.ownership.push(Some(owner));
                }
            }
            self.scratch.apply(update);
        }
        // End-of-epoch flush: commit every shard's remaining batch
        // concurrently (one scoped thread per non-empty shard).
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .servers
                .iter_mut()
                .zip(pending.iter_mut())
                .filter(|(_, batch)| !batch.is_empty())
                .map(|(server, batch)| {
                    let updates = std::mem::take(batch);
                    scope.spawn(move || {
                        server.write_handle().submit(updates);
                        server.commit().expect("the batch was just submitted")
                    })
                })
                .collect();
            for handle in handles {
                let stats = handle.join().expect("shard commit panicked");
                rollup.merge(&stats.record.rollup);
                shard_commits += 1;
            }
        });
        let micros = start.elapsed().as_micros() as u64;
        self.stats.commits += 1;
        self.stats.updates_routed += updates.len() as u64;

        // Mint the router epoch: assemble, log, then publish (in that
        // order — the torn-read contract).
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let snaps: Vec<Arc<Snapshot>> = self
            .servers
            .iter()
            .map(|s| s.read_handle().snapshot())
            .collect();
        let fingerprint = assembled_tree(&self.ownership, &snaps).fingerprint();
        let num_vertices = snaps.iter().map(|s| s.num_vertices()).sum();
        let num_edges = snaps.iter().map(|s| s.num_edges()).sum();
        let record = PartitionedEpoch {
            epoch,
            updates: updates.len(),
            routed: self.stats.updates_routed - before.updates_routed,
            echoes: self.stats.echo_updates - before.echo_updates,
            migrations: self.stats.migrations - before.migrations,
            migrated_vertices: self.stats.migrated_vertices - before.migrated_vertices,
            shard_commits,
            fingerprint,
            num_vertices,
            num_edges,
            rollup,
            micros,
        };
        let view = PartitionedView {
            epoch,
            fingerprint,
            num_vertices,
            num_edges,
            ownership: self.ownership.clone(),
            shards: snaps,
        };
        self.shared.epochs.lock().push(record.clone());
        *self.shared.published.write() = Arc::new(view);
        Some(record)
    }

    fn owner_of(&self, v: Vertex, update: &Update) -> u32 {
        self.ownership
            .owner(v)
            .unwrap_or_else(|| panic!("{update:?} references inactive vertex {v}"))
    }

    fn route(&mut self, shard: u32, update: Update, pending: &mut [Vec<Update>]) {
        pending[shard as usize].push(update);
        self.stats.applied_per_shard[shard as usize] += 1;
    }

    /// Co-locate the components of `vertices` onto one shard, migrating
    /// losers to the winner (largest component; ties to the smallest
    /// component id). Returns the winning shard.
    fn co_locate(
        &mut self,
        vertices: &[Vertex],
        pending: &mut [Vec<Update>],
        rollup: &mut StatsRollup,
        shard_commits: &mut usize,
    ) -> u32 {
        // Distinct components among the endpoints, keyed by minimum member.
        let mut comps: Vec<(Vec<Vertex>, u32)> = Vec::new();
        for &v in vertices {
            if comps.iter().any(|(members, _)| members.contains(&v)) {
                continue;
            }
            let members = component_of(&self.scratch, v);
            let owner = self
                .ownership
                .owner(v)
                .expect("co-located vertices are active");
            comps.push((members, owner));
        }
        // `component_of` returns ascending members, so members[0] is the
        // component id. Winner: largest, ties to the smallest id.
        let winner = comps
            .iter()
            .max_by_key(|(members, _)| (members.len(), std::cmp::Reverse(members[0])))
            .expect("at least one endpoint component")
            .1;
        comps.sort_by_key(|(members, _)| members[0]);
        for (members, owner) in comps {
            if owner != winner {
                self.migrate(owner, winner, &members, pending, rollup, shard_commits);
            }
        }
        winner
    }

    /// Move one component from shard `loser` to shard `winner`: flush both
    /// shards' pending batches, export the component from the loser (via
    /// the serialized [`ComponentExport`] wire format), resume the loser on
    /// its remainder and the winner on the merged state, and rewrite
    /// ownership.
    fn migrate(
        &mut self,
        loser: u32,
        winner: u32,
        members: &[Vertex],
        pending: &mut [Vec<Update>],
        rollup: &mut StatsRollup,
        shard_commits: &mut usize,
    ) {
        // Both peers must be current before state moves between them.
        self.flush_shard(loser, pending, rollup, shard_commits);
        self.flush_shard(winner, pending, rollup, shard_commits);

        // Export from the loser — through the wire format, so the
        // in-process path exercises exactly the bytes a cross-process
        // migration would ship.
        let export = ComponentExport::extract(self.servers[loser as usize].maintainer(), members);
        let export = ComponentExport::from_bytes(&export.to_bytes())
            .expect("a freshly extracted export round-trips");

        // Loser resumes on its remainder at its current server epoch.
        let (rest_graph, rest_tree) = restrict(self.servers[loser as usize].maintainer(), |i| {
            !export.graph().is_active(i)
        });
        let epoch = self.servers[loser as usize].read_handle().epoch();
        let dfs = self
            .factory
            .resume(rest_graph, rest_tree)
            .expect("the loser's remainder resumes");
        self.servers[loser as usize] = Server::resume(dfs, epoch);

        // Winner resumes on its state merged with the import.
        let (merged_graph, merged_tree) =
            merge_component(self.servers[winner as usize].maintainer(), &export);
        let epoch = self.servers[winner as usize].read_handle().epoch();
        let dfs = self
            .factory
            .resume(merged_graph, merged_tree)
            .expect("the winner's merged state resumes");
        self.servers[winner as usize] = Server::resume(dfs, epoch);

        for &v in export.members() {
            self.ownership.set(v, winner);
        }
        self.stats.migrations += 1;
        self.stats.migrated_vertices += export.members().len() as u64;
    }

    fn flush_shard(
        &mut self,
        shard: u32,
        pending: &mut [Vec<Update>],
        rollup: &mut StatsRollup,
        shard_commits: &mut usize,
    ) {
        let updates = std::mem::take(&mut pending[shard as usize]);
        if updates.is_empty() {
            return;
        }
        let server = &mut self.servers[shard as usize];
        server.write_handle().submit(updates);
        let stats = server.commit().expect("the batch was just submitted");
        rollup.merge(&stats.record.rollup);
        *shard_commits += 1;
    }
}

/// The restriction of `user` to the vertices `ownership` assigns to
/// `shard`: other components' vertices are deleted. Deleting a vertex only
/// rewrites *its neighbours'* adjacency lists, and cross-component vertices
/// share no edges — so every kept vertex's list survives verbatim, in
/// stored order.
fn restriction(user: &Graph, ownership: &OwnershipMap, shard: u32) -> Graph {
    let mut g = user.clone();
    for v in 0..g.capacity() as Vertex {
        if g.is_active(v) && ownership.owner(v) != Some(shard) {
            g.delete_vertex(v);
        }
    }
    g
}

/// Ascending members of the component of `v` in the (user) graph.
fn component_of(g: &Graph, v: Vertex) -> Vec<Vertex> {
    let mut seen = vec![false; g.capacity()];
    let mut stack = vec![v];
    seen[v as usize] = true;
    let mut members = Vec::new();
    while let Some(u) = stack.pop() {
        members.push(u);
        for &w in g.neighbors(u) {
            if !seen[w as usize] {
                seen[w as usize] = true;
                stack.push(w);
            }
        }
    }
    members.sort_unstable();
    members
}

/// A shard's internal graph and tree restricted to the vertices `keep`
/// accepts (internal ids) plus the pseudo root, at full slot capacity:
/// kept lists and tree parents verbatim, the pseudo root's list filtered to
/// the kept vertices, preserving relative order. The export of a component
/// keeps its members; the loser's remainder keeps everything else.
fn restrict(m: &dyn DfsMaintainer, keep: impl Fn(Vertex) -> bool) -> (Graph, TreeIndex) {
    let aug = m.augmented_graph();
    let tree = m.tree();
    let cap = aug.capacity();
    let kept = |i: Vertex| aug.is_active(i) && keep(i);
    let mut lists: Vec<Vec<Vertex>> = Vec::with_capacity(cap);
    let mut active = vec![false; cap];
    active[0] = true;
    lists.push(
        aug.neighbors(0)
            .iter()
            .copied()
            .filter(|&u| kept(u))
            .collect(),
    );
    let mut parent = vec![NO_VERTEX; cap];
    parent[0] = 0;
    for i in 1..cap {
        if kept(i as Vertex) {
            active[i] = true;
            lists.push(aug.neighbors(i as Vertex).to_vec());
            parent[i] = tree
                .parent(i as Vertex)
                .expect("a non-pseudo tree vertex has a parent");
        } else {
            lists.push(Vec::new());
        }
    }
    let graph = Graph::from_adjacency_lists(lists, active)
        .expect("splitting whole components keeps the shard graph valid");
    (graph, TreeIndex::from_parent_slice(&parent, 0))
}

/// The winner's post-migration state: its internal graph and tree with the
/// export's members spliced in (the import's pseudo-list entries append
/// after the winner's own).
fn merge_component(m: &dyn DfsMaintainer, export: &ComponentExport) -> (Graph, TreeIndex) {
    let aug = m.augmented_graph();
    let tree = m.tree();
    let cap = aug.capacity();
    assert_eq!(
        cap,
        export.graph().capacity(),
        "migration peers drifted out of id-allocation lockstep"
    );
    let mut lists: Vec<Vec<Vertex>> = Vec::with_capacity(cap);
    let mut active = vec![false; cap];
    active[0] = true;
    let mut pseudo: Vec<Vertex> = aug.neighbors(0).to_vec();
    pseudo.extend_from_slice(export.graph().neighbors(0));
    lists.push(pseudo);
    let mut parent = vec![NO_VERTEX; cap];
    parent[0] = 0;
    for i in 1..cap {
        if export.graph().is_active(i as Vertex) {
            active[i] = true;
            lists.push(export.graph().neighbors(i as Vertex).to_vec());
            parent[i] = export
                .tree()
                .parent(i as Vertex)
                .expect("an export tree vertex has a parent");
        } else if aug.is_active(i as Vertex) {
            active[i] = true;
            lists.push(aug.neighbors(i as Vertex).to_vec());
            parent[i] = tree
                .parent(i as Vertex)
                .expect("a non-pseudo tree vertex has a parent");
        } else {
            lists.push(Vec::new());
        }
    }
    let graph = Graph::from_adjacency_lists(lists, active)
        .expect("disjoint components merge into a valid shard graph");
    (graph, TreeIndex::from_parent_slice(&parent, 0))
}

/// Stitch per-shard trees into one forest index: pseudo root 0, each owned
/// user vertex's parent copied from its owning shard's tree.
fn assembled_tree(ownership: &OwnershipMap, shards: &[Arc<Snapshot>]) -> TreeIndex {
    let cap = shards
        .iter()
        .map(|s| s.parent_slice().len())
        .max()
        .unwrap_or(1)
        .max(ownership.capacity() + 1);
    let mut parent = vec![NO_VERTEX; cap];
    parent[0] = 0;
    for v in 0..ownership.capacity() as Vertex {
        if let Some(shard) = ownership.owner(v) {
            parent[(v + 1) as usize] = shards[shard as usize].parent_slice()[(v + 1) as usize];
        }
    }
    TreeIndex::from_parent_slice(&parent, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardfs_core::DynamicDfs;
    use pardfs_seq::{AugmentedGraph, SeqRerootDfs};

    struct SeqFactory;
    impl ShardFactory for SeqFactory {
        fn build(&self, user_graph: &Graph) -> Box<dyn DfsMaintainer> {
            Box::new(SeqRerootDfs::new(user_graph))
        }
        fn resume(
            &self,
            aug_graph: Graph,
            tree: TreeIndex,
        ) -> Result<Box<dyn DfsMaintainer>, String> {
            let aug = AugmentedGraph::from_internal(aug_graph)?;
            Ok(Box::new(SeqRerootDfs::from_state(aug, tree)))
        }
    }

    struct ParFactory;
    impl ShardFactory for ParFactory {
        fn build(&self, user_graph: &Graph) -> Box<dyn DfsMaintainer> {
            Box::new(DynamicDfs::new(user_graph))
        }
        fn resume(
            &self,
            aug_graph: Graph,
            tree: TreeIndex,
        ) -> Result<Box<dyn DfsMaintainer>, String> {
            let aug = AugmentedGraph::from_internal(aug_graph)?;
            Ok(Box::new(DynamicDfs::from_state(
                aug,
                tree,
                Default::default(),
                Default::default(),
            )))
        }
    }

    /// Three clusters of four vertices each: 0-3, 4-7, 8-11 (paths).
    fn clustered() -> Graph {
        let mut g = Graph::new(12);
        for c in 0..3u32 {
            for i in 0..3u32 {
                g.insert_edge(4 * c + i, 4 * c + i + 1);
            }
        }
        g
    }

    fn factories() -> Vec<Box<dyn ShardFactory>> {
        vec![Box::new(SeqFactory), Box::new(ParFactory)]
    }

    #[test]
    fn component_export_round_trips_through_bytes() {
        let g = clustered();
        let dfs = SeqFactory.build(&g);
        let members = vec![4, 5, 6, 7];
        let export = ComponentExport::extract(dfs.as_ref(), &members);
        assert_eq!(export.members(), &[4, 5, 6, 7]);
        assert_eq!(export.component_id(), 4);
        assert_eq!(export.graph().num_vertices(), 5, "members + pseudo root");
        let back = ComponentExport::from_bytes(&export.to_bytes()).unwrap();
        assert_eq!(back, export);
        // Corrupting the payload is rejected, like any snapshot.
        let mut bytes = export.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(ComponentExport::from_bytes(&bytes).is_err());
    }

    /// Export wire bytes laid out as [`ComponentExport::to_bytes`] lays them
    /// out, with the `MHDR` member count and capacity given explicitly.
    fn payload(
        members: usize,
        capacity: usize,
        id: Vertex,
        graph: &Graph,
        tree: &TreeIndex,
    ) -> Vec<u8> {
        let mut w = SnapWriter::new();
        let hdr = w.section_aligned(SEC_MIGRATION_HEADER, 8);
        for field in [members as u64, capacity as u64, id as u64] {
            put_u64(hdr, field);
        }
        graph.write_snap_sections(&mut w);
        write_tree_sections(&mut w, tree.root(), tree.parent_slice());
        w.finish()
    }

    #[test]
    fn damaged_component_exports_are_refused() {
        let g = clustered();
        let dfs = ParFactory.build(&g);
        let export = ComponentExport::extract(dfs.as_ref(), &[4, 5, 6, 7]);
        let bytes = export.to_bytes();
        let (graph, tree) = (export.graph(), export.tree());
        let cap = graph.capacity();
        assert_eq!(
            payload(4, cap, 4, graph, tree),
            bytes,
            "the layout is the writer's"
        );

        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            let err = ComponentExport::from_bytes(&bad).unwrap_err();
            assert!(
                err.contains("checksum") || err.contains("magic"),
                "flip at {i}: {err}"
            );
        }
        for cut in 0..bytes.len() {
            let err = ComponentExport::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                err.contains("checksum") || err.contains("truncated"),
                "cut at {cut}: {err}"
            );
        }

        // Well-framed payloads whose header disagrees with the graph, or
        // whose graph has lost its pseudo root.
        let mut lists: Vec<Vec<Vertex>> = (0..cap as Vertex)
            .map(|v| {
                graph
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| u != 0)
                    .collect()
            })
            .collect();
        lists[0].clear();
        let active = (0..cap as Vertex)
            .map(|v| v != 0 && graph.is_active(v))
            .collect();
        let rootless = Graph::from_adjacency_lists(lists, active).expect("a valid graph");
        let cases = [
            (
                payload(5, cap, 4, graph, tree),
                "export header claims 5 members, graph encodes 4",
            ),
            (
                payload(3, cap, 4, graph, tree),
                "export header claims 3 members, graph encodes 4",
            ),
            (
                payload(4, cap + 1, 4, graph, tree),
                &*format!(
                    "export header claims capacity {}, graph encodes {cap}",
                    cap + 1
                ),
            ),
            (
                payload(4, cap, 4, &rootless, tree),
                "export graph's pseudo root is inactive",
            ),
        ];
        for (bad, want) in cases {
            let err = ComponentExport::from_bytes(&bad).unwrap_err();
            assert!(err.contains(want), "expected `{want}`, got: {err}");
        }
    }

    #[test]
    fn routed_commits_track_an_unsharded_replay_through_merges_and_splits() {
        // A storm over three initially disjoint clusters: bridge them
        // (cross-shard merges), churn inside, cut a bridge (split), and
        // grow a new vertex across what used to be two shards.
        let updates: Vec<Update> = vec![
            Update::InsertEdge(3, 4),                   // merge clusters 0 and 1
            Update::DeleteEdge(1, 2),                   // split inside the merged component
            Update::InsertEdge(2, 1),                   // re-join
            Update::InsertEdge(7, 8),                   // merge in cluster 2
            Update::DeleteEdge(3, 4),                   // split the big component
            Update::InsertVertex { edges: vec![0, 9] }, // cross-component vertex
            Update::DeleteVertex(5),
            Update::InsertEdge(6, 9),
        ];
        for factory in factories() {
            let g = clustered();
            let mut reference = factory.build(&g);
            let backend = reference.backend_name();
            for k in [2usize, 3] {
                let g = clustered();
                let mut reference_k = factory.build(&g);
                let mut router = PartitionedRouter::new(clone_factory(backend), &g, k);
                assert_eq!(
                    router.read_handle().view().fingerprint(),
                    reference_k.tree().fingerprint(),
                    "{backend} k={k}: initial assembled forest differs"
                );
                for (i, update) in updates.iter().enumerate() {
                    reference_k.apply_update(update);
                    let record = router
                        .commit(std::slice::from_ref(update))
                        .expect("non-empty batch mints an epoch");
                    assert_eq!(
                        record.fingerprint,
                        reference_k.tree().fingerprint(),
                        "{backend} k={k}: diverged at update {i} ({update:?})"
                    );
                    assert_eq!(record.num_vertices, reference_k.num_vertices());
                    assert_eq!(record.num_edges, reference_k.num_edges());
                    let view = router.read_handle().view();
                    assert_eq!(view.recompute_fingerprint(), view.fingerprint());
                    assert_eq!(view.forest_roots(), reference_k.forest_roots());
                    for v in 0..router.ownership().capacity() as Vertex {
                        assert_eq!(
                            view.forest_parent(v),
                            reference_k.forest_parent(v),
                            "{backend} k={k}: forest_parent({v}) after update {i}"
                        );
                        for u in [0, v / 2, v] {
                            assert_eq!(
                                view.same_component(u, v),
                                reference_k.same_component(u, v),
                                "{backend} k={k}: same_component({u},{v}) after update {i}"
                            );
                        }
                    }
                    for server in router.servers() {
                        server.maintainer().check().unwrap();
                    }
                }
                assert!(
                    router.stats().migrations > 0,
                    "{backend} k={k}: the storm must force cross-shard migrations"
                );
                assert_eq!(
                    router.stats().updates_routed,
                    updates.len() as u64,
                    "every update routes exactly once"
                );
            }
            // Keep the k-independent reference exercised too (guards the
            // test graph itself).
            for update in &updates {
                reference.apply_update(update);
            }
            reference.check().unwrap();
        }
    }

    fn clone_factory(backend: &str) -> Box<dyn ShardFactory> {
        match backend {
            "sequential" => Box::new(SeqFactory),
            _ => Box::new(ParFactory),
        }
    }

    #[test]
    fn migration_prefers_the_larger_component_and_breaks_ties_low() {
        let g = clustered();
        let mut router = PartitionedRouter::new(Box::new(SeqFactory), &g, 3);
        assert_eq!(router.ownership().counts(), vec![4, 4, 4]);
        // Shrink cluster 1 to three vertices, then bridge 0-1: cluster 0
        // (4 vertices) beats cluster 1 (3), so cluster 1 migrates to
        // shard 0 and vertex 4 keeps shard 1.
        router.commit(&[Update::DeleteVertex(4)]).unwrap();
        let record = router.commit(&[Update::InsertEdge(0, 5)]).unwrap();
        assert_eq!(record.migrations, 1);
        assert_eq!(record.migrated_vertices, 3);
        assert_eq!(router.ownership().owner(5), Some(0));
        assert_eq!(router.ownership().owner(0), Some(0));
        // Equal sizes now: component {8..11} (id 8) vs {0..3, 5..7} — the
        // latter is larger, so it wins regardless of order.
        let record = router.commit(&[Update::InsertEdge(3, 8)]).unwrap();
        assert_eq!(record.migrations, 1);
        assert_eq!(router.ownership().owner(8), Some(0));
        assert_eq!(
            router.stats().migrated_vertices,
            7,
            "3 then 4 vertices moved"
        );
    }

    #[test]
    fn echoes_keep_id_allocation_in_lockstep_across_shards() {
        let g = clustered();
        let mut router = PartitionedRouter::new(Box::new(SeqFactory), &g, 2);
        // A singleton insert lands on shard id mod k = 12 mod 2 = 0 and
        // echoes to shard 1.
        let record = router
            .commit(&[Update::InsertVertex { edges: Vec::new() }])
            .unwrap();
        assert_eq!(record.echoes, 2, "one insert+delete echo pair");
        assert_eq!(router.ownership().owner(12), Some(0));
        // A connected insert lands on its target's owner; every shard's
        // next allocation still agrees (checked implicitly: the commit
        // would corrupt adjacency if ids diverged, failing check()).
        let record = router
            .commit(&[Update::InsertVertex { edges: vec![4, 6] }])
            .unwrap();
        assert_eq!(record.migrations, 0, "one component touched");
        assert_eq!(router.ownership().owner(13), Some(1));
        for server in router.servers() {
            server.maintainer().check().unwrap();
            assert_eq!(
                server.maintainer().augmented_graph().capacity(),
                15,
                "14 user slots + pseudo root on every shard"
            );
        }
        let view = router.read_handle().view();
        assert_eq!(view.num_vertices(), 14, "12 initial + 2 inserted");
        assert!(view.same_component(13, 4));
        assert!(!view.same_component(12, 13));
    }

    #[test]
    fn views_are_immutable_and_the_epoch_log_matches_observations() {
        let g = clustered();
        let mut router = PartitionedRouter::new(Box::new(SeqFactory), &g, 2);
        let handle = router.read_handle();
        let v0 = handle.view();
        router.commit(&[Update::InsertEdge(3, 4)]).unwrap();
        router.commit(&[Update::DeleteEdge(0, 1)]).unwrap();
        let v2 = handle.view();
        assert_eq!(v0.epoch(), 0);
        assert_eq!(v2.epoch(), 2);
        // Old views stay valid and self-consistent across later epochs
        // (and across the migration that replaced a server).
        assert_eq!(v0.recompute_fingerprint(), v0.fingerprint());
        assert_eq!(v2.recompute_fingerprint(), v2.fingerprint());
        for view in [&v0, &v2] {
            assert_eq!(
                handle.recorded_fingerprint(view.epoch()),
                Some(view.fingerprint()),
                "every observable epoch is in the log"
            );
        }
        assert_eq!(handle.epochs().len(), 3);
        assert_eq!(handle.epoch(), 2);
    }
}
