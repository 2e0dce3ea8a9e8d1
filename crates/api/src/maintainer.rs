//! The [`DfsMaintainer`] trait: one surface over five computation models —
//! and its read-only half, [`ForestQuery`], which immutable snapshots share.

use crate::report::{BatchReport, StatsReport};
use pardfs_graph::{Graph, Update, Vertex};
use pardfs_tree::TreeIndex;

/// The **read-only query surface** of a maintained DFS forest.
///
/// This is the half of [`DfsMaintainer`] that needs no `&mut` access and no
/// live engine: forest lookups and connectivity answers, all in **user**
/// vertex ids. It exists as its own object-safe trait so that *published
/// snapshots* — the immutable per-epoch states the `pardfs-serve` layer
/// hands to concurrent readers — answer exactly the same query vocabulary as
/// a live maintainer, and generic query-replay code (the scenario runners)
/// can be written once against `&dyn ForestQuery`.
///
/// `Send + Sync` are supertraits: a query surface is only useful to the
/// serving layer if any number of reader threads can hold it at once. Every
/// implementor is plain owned data, so the bounds cost nothing.
pub trait ForestQuery: Send + Sync {
    /// Parent of user vertex `v` in the maintained DFS forest (`None` for
    /// component roots and vertices not present).
    fn forest_parent(&self, v: Vertex) -> Option<Vertex>;

    /// Roots of the maintained DFS forest (user ids), one per connected
    /// component of the user graph.
    fn forest_roots(&self) -> Vec<Vertex>;

    /// Are user vertices `u` and `v` in the same connected component? (A DFS
    /// forest answers connectivity for free: same tree ⇔ same component.)
    fn same_component(&self, u: Vertex, v: Vertex) -> bool;

    /// Number of user vertices currently in the graph.
    fn num_vertices(&self) -> usize;

    /// Number of user edges currently in the graph.
    fn num_edges(&self) -> usize;
}

/// A fully dynamic DFS maintainer of an undirected user graph.
///
/// Implementors maintain a DFS tree of the *augmented* graph (the user graph
/// plus a pseudo root adjacent to every vertex, Section 2 of the paper);
/// its children are the roots of a DFS forest of the user graph. All methods
/// speak **user** vertex ids except [`DfsMaintainer::tree`], which exposes
/// the maintained index in internal ids (pseudo root = 0, user `v` = `v + 1`)
/// for callers that need the raw structure.
///
/// The trait is object safe: the bench harness, examples and conformance
/// tests drive every backend through `&mut dyn DfsMaintainer`, and the
/// umbrella crate's `MaintainerBuilder` hands out `Box<dyn DfsMaintainer>`.
///
/// `Send` is a supertrait so a boxed maintainer can be driven from inside
/// `rayon::ThreadPool::install` (the executor is genuinely multi-threaded;
/// the bench harness's thread-scaling sweep and the determinism suite run
/// maintainers on a worker thread of the caller's own pool). Every backend
/// is plain owned data plus atomics, so the bound costs implementors
/// nothing. [`ForestQuery`] is a supertrait so every live maintainer answers
/// the same read vocabulary as a published snapshot — the serve layer's
/// `Server` reads through it when capturing an epoch.
pub trait DfsMaintainer: Send + ForestQuery {
    /// Short, stable backend name ("parallel", "sequential", "streaming",
    /// "congest", "fault-tolerant"), used in reports and test labels.
    fn backend_name(&self) -> &'static str;

    /// Apply one dynamic update. Returns the user id of the inserted vertex
    /// for `InsertVertex` updates, `None` otherwise.
    fn apply_update(&mut self, update: &Update) -> Option<Vertex>;

    /// Apply a batch of updates and report what happened.
    ///
    /// The default implementation applies the updates one by one, collecting
    /// each update's [`StatsReport`]. Backends with a native batch path (the
    /// fault tolerant maintainer absorbs a whole batch against its frozen
    /// preprocessed structure) override this.
    fn apply_batch(&mut self, updates: &[Update]) -> BatchReport {
        let mut report = BatchReport::default();
        for update in updates {
            if let Some(v) = self.apply_update(update) {
                report.inserted.push(v);
            }
            report.per_update.push(self.stats());
        }
        report
    }

    /// The current DFS tree of the augmented graph (internal ids).
    fn tree(&self) -> &TreeIndex;

    /// The maintained *augmented* graph (internal ids: pseudo root at 0,
    /// user `v` at `v + 1`), exactly as held — adjacency order included.
    ///
    /// Together with [`DfsMaintainer::tree`] this is the complete
    /// recoverable state of a maintainer: a durability checkpoint
    /// serializes both, and a maintainer resumed from them evolves
    /// identically to the one that crashed (adjacency order is part of the
    /// contract because DFS tree shape depends on it).
    fn augmented_graph(&self) -> &Graph;

    /// Validate the maintained tree against the maintained graph
    /// (`O(n + m)`; used by tests and the builder's checked mode).
    fn check(&self) -> Result<(), String>;

    /// Statistics of the most recent update (a default report before any
    /// update has been applied).
    fn stats(&self) -> StatsReport;
}
