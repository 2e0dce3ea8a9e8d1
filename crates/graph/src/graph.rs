//! The dynamic undirected [`Graph`] type.

use crate::arena::AdjacencyArena;
use crate::snap::{put_u32, put_u64, SnapWriter};
use crate::updates::Update;

/// Vertex identifier. Vertices are dense `u32` indices; identifiers are stable
/// across updates (deleted vertices leave a hole, inserted vertices get fresh
/// identifiers at the end of the id space).
pub type Vertex = u32;

/// An undirected edge, stored as an ordered pair `(min, max)` by [`Edge::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge(pub Vertex, pub Vertex);

impl Edge {
    /// Canonicalise an undirected edge so that `e.0 <= e.1`.
    pub fn new(u: Vertex, v: Vertex) -> Self {
        if u <= v {
            Edge(u, v)
        } else {
            Edge(v, u)
        }
    }

    /// The endpoint different from `v`. Panics if `v` is not an endpoint.
    pub fn other(&self, v: Vertex) -> Vertex {
        if self.0 == v {
            self.1
        } else {
            debug_assert_eq!(self.1, v, "vertex {v} is not an endpoint of {self:?}");
            self.0
        }
    }
}

/// Sentinel for "no vertex".
pub const INVALID_VERTEX: Vertex = u32::MAX;

/// Section tag of the graph binary-snapshot header (capacity, edge count).
pub(crate) const SEC_GRAPH_HEADER: [u8; 4] = *b"GHDR";
/// Section tag of the activity bitmap (capacity bits, packed into u64 words).
pub(crate) const SEC_GRAPH_ACTIVE: [u8; 4] = *b"GACT";
/// Section tag of the per-slot degree array (`u32` per slot).
pub(crate) const SEC_GRAPH_DEGREES: [u8; 4] = *b"GDEG";
/// Section tag of the concatenated adjacency lists, in vertex-id order.
pub(crate) const SEC_GRAPH_ADJACENCY: [u8; 4] = *b"GADJ";

/// Validate a flat adjacency encoding — `v`'s neighbour run is
/// `flat[offsets[v]..offsets[v + 1]]` — without materializing anything:
/// capacity bounds, self loops, inactive vertices with neighbours,
/// duplicates, symmetry and the claimed edge count. Run by the snapshot
/// decoder [`crate::GraphView::parse`] and by [`Graph::from_adjacency_lists`];
/// `is_active` abstracts over owned flags vs a borrowed file bitmap.
///
/// One ascending sweep, `O(E + n)` with no sort and no `contains` scan per
/// edge (which degenerates to `O(E·deg)` on the hubs adversarial workloads
/// produce). Every entry `u > v` of `v`'s run appends `v` to `u`'s
/// *bucket*, which has room for `deg(u)` entries and so fills in ascending
/// order; a run listing `u` twice puts `v` in it twice in a row. When the
/// sweep reaches `u`, its bucket holds every lower vertex that lists it,
/// and `u`'s lower entries must match those one to one: each bucket entry
/// stamps its vertex with `u`, each lower entry consumes a stamp, and the
/// counts must agree. That makes the lists symmetric and duplicate-free, so
/// an inactive vertex, whose run is empty, is listed by nobody either.
pub(crate) fn validate_flat_adjacency(
    offsets: &[usize],
    is_active: impl Fn(usize) -> bool,
    flat: &[Vertex],
    claimed_edges: usize,
) -> Result<(), String> {
    let capacity = offsets.len() - 1;
    assert_eq!(
        offsets[capacity],
        flat.len(),
        "the offsets must partition the adjacency payload"
    );
    // `bucket[offsets[u]..offsets[u] + filled[u]]`: the lower vertices
    // listing `u`, as far as the sweep has come.
    let mut bucket = vec![0 as Vertex; flat.len()];
    let mut filled = vec![0u32; capacity];
    // `stamp[w] == v` while `w`'s entry in `v`'s bucket is unmatched; 0 is
    // never a live stamp, since vertex 0 has no lower neighbours.
    let mut stamp = vec![0 as Vertex; capacity];
    for v in 0..capacity {
        let run = &flat[offsets[v]..offsets[v + 1]];
        if run.is_empty() {
            continue;
        }
        if !is_active(v) {
            return Err(format!("inactive vertex {v} has nonzero degree"));
        }
        let vv = v as Vertex;
        let lower = offsets[v]..offsets[v] + filled[v] as usize;
        for &w in &bucket[lower.clone()] {
            stamp[w as usize] = vv;
        }
        let mut matched = 0;
        for (i, &u) in run.iter().enumerate() {
            let ui = u as usize;
            if u > vv {
                if ui >= capacity {
                    return Err(format!("neighbour {u} of vertex {v} outside capacity"));
                }
                let (start, f) = (offsets[ui], filled[ui] as usize);
                if f > 0 && bucket[start + f - 1] == vv {
                    return Err(format!("duplicate neighbour {u} of vertex {v}"));
                }
                if start + f == offsets[ui + 1] {
                    return Err(format!(
                        "asymmetric adjacency: more lower vertices list {u} than its degree {f}"
                    ));
                }
                bucket[start + f] = vv;
                filled[ui] += 1;
            } else if u < vv {
                if stamp[ui] != vv {
                    return Err(if run[..i].contains(&u) {
                        format!("duplicate neighbour {u} of vertex {v}")
                    } else {
                        format!("asymmetric adjacency: {v} lists {u} but not back")
                    });
                }
                stamp[ui] = 0;
                matched += 1;
            } else {
                return Err(format!("self loop on vertex {v}"));
            }
        }
        if matched != lower.len() {
            let w = bucket[lower]
                .iter()
                .find(|&&w| stamp[w as usize] == vv)
                .expect("an unmatched bucket entry keeps its stamp");
            return Err(format!("asymmetric adjacency: {w} lists {v} but not back"));
        }
    }
    debug_assert!(
        flat.len().is_multiple_of(2),
        "symmetry check guarantees evenness"
    );
    let num_edges = flat.len() / 2;
    if num_edges != claimed_edges {
        return Err(format!(
            "snapshot header claims {claimed_edges} edges, adjacency encodes {num_edges}"
        ));
    }
    Ok(())
}

/// A dynamic undirected graph stored as adjacency lists in a **flat arena**:
/// every vertex's neighbour list is a contiguous block inside one shared
/// pool ([`AdjacencyArena`]), so neighbour iteration walks a single buffer
/// and the whole structure serializes as a handful of flat arrays.
///
/// * Vertex ids are dense indices `0..capacity()`. A vertex may be *inactive*
///   (deleted or never inserted); inactive vertices have empty adjacency.
/// * Parallel edges and self loops are rejected — the paper assumes a simple
///   graph and a DFS tree is only defined for simple graphs.
/// * All mutation goes through [`Graph::apply`] or the specific
///   `insert_edge` / `delete_edge` / `insert_vertex` / `delete_vertex` methods,
///   which keep the edge count and activity flags consistent.
///
/// `PartialEq` compares the *logical* representation — adjacency lists in
/// stored order, activity flags and counters — never the arena's physical
/// block placement. Adjacency **order** still matters: two graphs with the
/// same edges but different adjacency order are **not** equal, which is
/// deliberate — adjacency order determines DFS tree shape, so order-exact
/// equality is the property snapshot round-trips
/// ([`Graph::write_snap_sections`] / [`crate::GraphView::to_graph`]) must
/// preserve. Where the blocks sit in the pool is a transient artefact of
/// update history and is deliberately excluded.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adj: AdjacencyArena,
    active: Vec<bool>,
    num_edges: usize,
    num_active: usize,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.num_edges == other.num_edges
            && self.num_active == other.num_active
            && self.active == other.active
            && self.adj == other.adj
    }
}

impl Eq for Graph {}

impl Graph {
    /// Create a graph with `n` active, isolated vertices `0..n`.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: AdjacencyArena::with_slots(n),
            active: vec![true; n],
            num_edges: 0,
            num_active: n,
        }
    }

    /// Create a graph with `n` vertices and the given undirected edges.
    ///
    /// Duplicate edges and self loops are ignored.
    pub fn with_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            let _ = g.insert_edge(u, v);
        }
        g
    }

    /// Total size of the id space (active and inactive vertices).
    pub fn capacity(&self) -> usize {
        self.adj.slots()
    }

    /// Number of active vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_active
    }

    /// Number of edges currently present.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Is `v` a live vertex?
    pub fn is_active(&self, v: Vertex) -> bool {
        (v as usize) < self.active.len() && self.active[v as usize]
    }

    /// Iterator over the active vertices.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        (0..self.capacity() as Vertex).filter(move |&v| self.active[v as usize])
    }

    /// Neighbours of `v` (unordered) — a contiguous slice of the arena pool.
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        self.adj.list(v)
    }

    /// Degree of `v`.
    pub fn degree(&self, v: Vertex) -> usize {
        self.adj.len_of(v)
    }

    /// Does the edge `(u, v)` exist?
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        if !self.is_active(u) || !self.is_active(v) {
            return false;
        }
        // Scan the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj.list(a).contains(&b)
    }

    /// Iterator over all edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u < v)
                .map(move |&v| Edge(u, v))
        })
    }

    /// Insert the undirected edge `(u, v)`.
    ///
    /// Returns `true` if the edge was inserted, `false` if it already existed,
    /// was a self loop, or one endpoint is inactive.
    pub fn insert_edge(&mut self, u: Vertex, v: Vertex) -> bool {
        if u == v || !self.is_active(u) || !self.is_active(v) || self.has_edge(u, v) {
            return false;
        }
        self.adj.push(u, v);
        self.adj.push(v, u);
        self.num_edges += 1;
        true
    }

    /// Delete the undirected edge `(u, v)`. Returns `true` if it was present.
    pub fn delete_edge(&mut self, u: Vertex, v: Vertex) -> bool {
        if !self.is_active(u) || !self.is_active(v) {
            return false;
        }
        let pos_u = self.adj.list(u).iter().position(|&x| x == v);
        let Some(pu) = pos_u else { return false };
        self.adj.swap_remove(u, pu);
        let pv = self
            .adj
            .list(v)
            .iter()
            .position(|&x| x == u)
            .expect("adjacency lists out of sync");
        self.adj.swap_remove(v, pv);
        self.num_edges -= 1;
        true
    }

    /// Insert a new vertex with the given incident edges and return its id.
    ///
    /// Edges to inactive or out-of-range endpoints are silently skipped, as are
    /// duplicates among `edges`.
    pub fn insert_vertex(&mut self, edges: &[Vertex]) -> Vertex {
        let v = self.adj.add_slot() as Vertex;
        self.active.push(true);
        self.num_active += 1;
        for &u in edges {
            let _ = self.insert_edge(v, u);
        }
        v
    }

    /// Delete vertex `v` together with all incident edges.
    ///
    /// Returns the list of former neighbours (useful for undo / replay), or
    /// `None` if `v` was not active.
    pub fn delete_vertex(&mut self, v: Vertex) -> Option<Vec<Vertex>> {
        if !self.is_active(v) {
            return None;
        }
        let nbrs = self.adj.take(v);
        for &u in &nbrs {
            let pu = self
                .adj
                .list(u)
                .iter()
                .position(|&x| x == v)
                .expect("adjacency lists out of sync");
            self.adj.swap_remove(u, pu);
        }
        self.num_edges -= nbrs.len();
        self.active[v as usize] = false;
        self.num_active -= 1;
        Some(nbrs)
    }

    /// Apply a dynamic [`Update`], returning the id of the inserted vertex when
    /// the update is a vertex insertion.
    pub fn apply(&mut self, update: &Update) -> Option<Vertex> {
        match update {
            Update::InsertEdge(u, v) => {
                self.insert_edge(*u, *v);
                None
            }
            Update::DeleteEdge(u, v) => {
                self.delete_edge(*u, *v);
                None
            }
            Update::InsertVertex { edges } => Some(self.insert_vertex(edges)),
            Update::DeleteVertex(v) => {
                self.delete_vertex(*v);
                None
            }
        }
    }

    /// Words of memory backing the adjacency structure (the streaming memory
    /// accountant): the **whole arena pool** — live entries, slack inside
    /// partially-filled blocks, and freed blocks awaiting reuse — plus one
    /// bookkeeping word per free-list entry. This is allocation reality; the
    /// previous per-`Vec` sum of `len()`s under-counted by ignoring slack
    /// and holes.
    pub fn adjacency_words(&self) -> usize {
        self.adj.words()
    }

    /// Build a graph directly from per-vertex adjacency lists **in stored
    /// order** plus an activity mask, validating the encoding exactly like
    /// the snapshot decoder [`crate::GraphView::parse`] (symmetry, no
    /// duplicates/self-loops, inactive slots empty and unreferenced).
    ///
    /// Adjacency order is part of a graph's identity here — DFS tree shape
    /// depends on it — so this is the constructor for callers that must
    /// reproduce an *exact* stored state, e.g. the partitioned serving
    /// layer splitting a graph into component-owned restrictions and
    /// merging them back after a migration: filtering the source graph's
    /// lists preserves each retained vertex's neighbour order verbatim,
    /// which replaying inserts could not (deletion `swap_remove`s leave
    /// orders no insertion sequence reaches).
    ///
    /// `lists.len()` must equal `active.len()` (the slot capacity).
    ///
    /// ```
    /// use pardfs_graph::Graph;
    ///
    /// // Slots 0-1 form an edge, slot 2 is an inactive hole.
    /// let g = Graph::from_adjacency_lists(
    ///     vec![vec![1], vec![0], vec![]],
    ///     vec![true, true, false],
    /// )
    /// .unwrap();
    /// assert_eq!(g.num_edges(), 1);
    /// assert!(!g.is_active(2));
    ///
    /// // An unreciprocated edge is rejected.
    /// let bad = Graph::from_adjacency_lists(vec![vec![1], vec![]], vec![true, true]);
    /// assert!(bad.unwrap_err().contains("asymmetric"));
    /// ```
    pub fn from_adjacency_lists(
        lists: Vec<Vec<Vertex>>,
        active: Vec<bool>,
    ) -> Result<Graph, String> {
        if lists.len() != active.len() {
            return Err(format!(
                "{} adjacency lists but {} activity flags",
                lists.len(),
                active.len()
            ));
        }
        let degrees: Vec<usize> = lists.iter().map(Vec::len).collect();
        let flat: Vec<Vertex> = lists.into_iter().flatten().collect();
        let offsets: Vec<usize> = std::iter::once(0)
            .chain(degrees.iter().scan(0, |total, &d| {
                *total += d;
                Some(*total)
            }))
            .collect();
        validate_flat_adjacency(&offsets, |v| active[v], &flat, flat.len() / 2)?;
        Ok(Self::assemble_validated(&degrees, &flat, active))
    }

    /// This graph with a hub: every id shifted up by one, and vertex `0`
    /// joined to every active vertex (the pseudo-root augmentation of
    /// Section 2). Holes stay holes, one slot higher.
    ///
    /// The lists are packed by counting (count, prefix-sum, scatter) into
    /// exactly the order that inserting the edges one by one leaves — every
    /// [`Graph::edges`] entry in turn, then the hub's edges in ascending id
    /// order: vertex `x + 1` lists its lower neighbours ascending, then its
    /// higher neighbours in `x`'s own list order, then `0`, and `0` lists
    /// the active vertices ascending. The result is valid by construction,
    /// so it skips the validator [`Graph::from_adjacency_lists`] runs.
    pub fn with_hub(&self) -> Graph {
        let cap = self.capacity();
        let mut degrees = vec![0usize; cap + 1];
        degrees[0] = self.num_active;
        for v in self.vertices() {
            degrees[v as usize + 1] = self.degree(v) + 1;
        }
        let mut cursor = Vec::with_capacity(cap + 1);
        let mut total = 0;
        for &d in &degrees {
            cursor.push(total);
            total += d;
        }
        let mut flat = vec![0 as Vertex; total];
        let mut push = |s: Vertex, x: Vertex| {
            flat[cursor[s as usize]] = x;
            cursor[s as usize] += 1;
        };
        for u in self.vertices() {
            for &v in self.neighbors(u).iter().filter(|&&v| u < v) {
                push(u + 1, v + 1);
                push(v + 1, u + 1);
            }
            push(u + 1, 0);
            push(0, u + 1);
        }
        let mut active = Vec::with_capacity(cap + 1);
        active.push(true);
        active.extend_from_slice(&self.active);
        Self::assemble_validated(&degrees, &flat, active)
    }

    /// Pack an **already validated** flat adjacency encoding into a graph —
    /// the shared materialization tail of [`Graph::from_adjacency_lists`],
    /// [`Graph::with_hub`] and [`crate::GraphView::to_graph`] (which
    /// validated at view-open time and must not pay for validation twice).
    pub(crate) fn assemble_validated(
        degrees: &[usize],
        flat: &[Vertex],
        active: Vec<bool>,
    ) -> Graph {
        let num_active = active.iter().filter(|&&a| a).count();
        Graph {
            adj: AdjacencyArena::from_packed(degrees, flat),
            active,
            num_edges: flat.len() / 2,
            num_active,
        }
    }

    /// Write the graph's sections into an open `pardfs-snap v2` container
    /// (a WAL checkpoint or a component export), read back by
    /// [`crate::GraphView`]:
    ///
    /// * `GHDR` — capacity and edge count (`u64` each),
    /// * `GACT` — activity bitmap (capacity bits packed into `u64` words),
    /// * `GDEG` — per-slot degree (`u32` per slot),
    /// * `GADJ` — the adjacency lists concatenated in ascending vertex order,
    ///   **in stored order** (a checkpoint that canonicalised it would
    ///   recover a *different* DFS tree than the one that crashed).
    ///
    /// Sections are emitted from logical state only (the arena's free blocks
    /// and slack never leak into the file), so rendering is canonical: a
    /// graph decoded by [`crate::GraphView::to_graph`] writes the same
    /// bytes again.
    pub fn write_snap_sections(&self, w: &mut SnapWriter) {
        let cap = self.capacity();
        let hdr = w.section_aligned(SEC_GRAPH_HEADER, 8);
        put_u64(hdr, cap as u64);
        put_u64(hdr, self.num_edges as u64);
        let act = w.section_aligned(SEC_GRAPH_ACTIVE, 8);
        for chunk in self.active.chunks(64) {
            let mut word = 0u64;
            for (i, &a) in chunk.iter().enumerate() {
                word |= (a as u64) << i;
            }
            put_u64(act, word);
        }
        let deg = w.section_aligned(SEC_GRAPH_DEGREES, 8);
        for v in 0..cap as Vertex {
            put_u32(deg, self.degree(v) as u32);
        }
        let adj = w.section_aligned(SEC_GRAPH_ADJACENCY, 8);
        for v in 0..cap as Vertex {
            for &u in self.neighbors(v) {
                put_u32(adj, u);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::updates::{random_update_sequence, UpdateMix};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;
    use std::collections::{BTreeMap, HashSet};

    #[test]
    fn edge_canonicalisation() {
        assert_eq!(Edge::new(5, 2), Edge(2, 5));
        assert_eq!(Edge::new(2, 5), Edge(2, 5));
        assert_eq!(Edge::new(3, 3), Edge(3, 3));
        assert_eq!(Edge::new(2, 5).other(2), 5);
        assert_eq!(Edge::new(2, 5).other(5), 2);
    }

    #[test]
    fn insert_and_delete_edges() {
        let mut g = Graph::new(4);
        assert!(g.insert_edge(0, 1));
        assert!(g.insert_edge(1, 2));
        assert!(!g.insert_edge(0, 1), "duplicate edge rejected");
        assert!(!g.insert_edge(2, 2), "self loop rejected");
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(1, 0));
        assert!(g.delete_edge(0, 1));
        assert!(!g.delete_edge(0, 1));
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn vertex_insertion_with_edges() {
        let mut g = Graph::new(3);
        g.insert_edge(0, 1);
        let v = g.insert_vertex(&[0, 2, 2, 7]);
        assert_eq!(v, 3);
        assert_eq!(g.num_vertices(), 4);
        assert!(g.has_edge(v, 0));
        assert!(g.has_edge(v, 2));
        assert_eq!(g.degree(v), 2, "duplicate and out-of-range edges skipped");
    }

    #[test]
    fn vertex_deletion_removes_incident_edges() {
        let mut g = Graph::new(4);
        g.insert_edge(0, 1);
        g.insert_edge(1, 2);
        g.insert_edge(1, 3);
        g.insert_edge(2, 3);
        let nbrs = g.delete_vertex(1).unwrap();
        assert_eq!(nbrs.len(), 3);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_vertices(), 3);
        assert!(!g.is_active(1));
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
        assert!(g.delete_vertex(1).is_none());
    }

    #[test]
    fn apply_updates() {
        let mut g = Graph::new(2);
        assert_eq!(g.apply(&Update::InsertEdge(0, 1)), None);
        let v = g.apply(&Update::InsertVertex { edges: vec![0, 1] });
        assert_eq!(v, Some(2));
        g.apply(&Update::DeleteEdge(0, 1));
        g.apply(&Update::DeleteVertex(0));
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn edge_iteration_reports_each_edge_once() {
        let mut g = Graph::new(5);
        g.insert_edge(0, 1);
        g.insert_edge(3, 1);
        g.insert_edge(4, 2);
        let mut es: Vec<Edge> = g.edges().collect();
        es.sort();
        assert_eq!(es, vec![Edge(0, 1), Edge(1, 3), Edge(2, 4)]);
    }

    /// Is `(lists, active)` a simple undirected graph, by brute force: every
    /// entry an active slot other than its own, no list repeating an entry,
    /// inactive slots empty, and every listed pair listed back.
    fn is_graph_by_brute_force(lists: &[Vec<Vertex>], active: &[bool]) -> bool {
        let mut pairs = HashSet::new();
        for (v, list) in lists.iter().enumerate() {
            if !active[v] && !list.is_empty() {
                return false;
            }
            for &u in list {
                let usable = (u as usize) < active.len() && active[u as usize];
                if !usable || u as usize == v || !pairs.insert((v as Vertex, u)) {
                    return false;
                }
            }
        }
        pairs.iter().all(|&(v, u)| pairs.contains(&(u, v)))
    }

    /// One random corruption of valid adjacency lists: an entry pointed at
    /// another vertex (often one its list or a neighbour's list already
    /// holds), a duplicated entry, an entry dropped with its degree, a self
    /// loop, an entry pointed at or appended as an inactive or out-of-range
    /// slot, or two entries swapped between lists.
    fn mutate(lists: &mut [Vec<Vertex>], active: &[bool], rng: &mut ChaCha8Rng) -> &'static str {
        let cap = lists.len();
        let listed: Vec<usize> = (0..cap).filter(|&v| !lists[v].is_empty()).collect();
        let Some(&v) = listed.choose(rng) else {
            let v = rng.gen_range(0..cap);
            lists[v].push(v as Vertex);
            return "self loop";
        };
        let i = rng.gen_range(0..lists[v].len());
        match rng.gen_range(0..6) {
            0 => {
                let near = lists[v][rng.gen_range(0..lists[v].len())];
                let far = lists[near as usize].choose(rng).copied().unwrap_or(near);
                lists[v][i] =
                    [rng.gen_range(0..cap as Vertex), near, far][rng.gen_range(0..3usize)];
                "entry pointed at another vertex"
            }
            1 => {
                let at = rng.gen_range(0..=lists[v].len());
                lists[v].insert(at, lists[v][i]);
                "entry duplicated"
            }
            2 => {
                lists[v].remove(i);
                "entry dropped"
            }
            3 => {
                lists[v][i] = v as Vertex;
                "self loop"
            }
            4 => {
                let holes: Vec<Vertex> = (0..cap as Vertex)
                    .filter(|&u| !active[u as usize])
                    .collect();
                let t = match holes.choose(rng) {
                    Some(&h) if rng.gen_bool(0.5) => h,
                    _ => cap as Vertex + rng.gen_range(0..3u32),
                };
                if rng.gen_bool(0.5) {
                    lists[v][i] = t;
                } else {
                    lists[v].push(t);
                }
                "entry at an inactive or out-of-range slot"
            }
            _ => {
                let &w = listed.choose(rng).expect("v is listed");
                let j = rng.gen_range(0..lists[w].len());
                let (a, b) = (lists[v][i], lists[w][j]);
                lists[v][i] = b;
                lists[w][j] = a;
                "entries swapped between lists"
            }
        }
    }

    #[test]
    fn mutated_adjacency_lists_are_accepted_exactly_when_they_form_a_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x6AD);
        let mut outcomes = BTreeMap::<&str, [usize; 2]>::new();
        for case in 0..3000 {
            let n: usize = rng.gen_range(2..30);
            let m = rng.gen_range(n - 1..=(n * (n - 1) / 2).min(3 * n));
            let mut g = generators::random_connected_gnm(n, m, &mut rng);
            let churn = rng.gen_range(0..40);
            for u in random_update_sequence(&g, churn, &UpdateMix::default(), &mut rng) {
                g.apply(&u);
            }
            if case % 2 == 1 {
                g = g.with_hub();
            }
            let cap = g.capacity();
            let mut lists: Vec<Vec<Vertex>> = (0..cap as Vertex)
                .map(|v| g.neighbors(v).to_vec())
                .collect();
            let active: Vec<bool> = (0..cap as Vertex).map(|v| g.is_active(v)).collect();
            let kind = if case % 10 == 0 {
                "unmutated"
            } else {
                mutate(&mut lists, &active, &mut rng)
            };
            let want = is_graph_by_brute_force(&lists, &active);
            let got = Graph::from_adjacency_lists(lists.clone(), active.clone());
            assert_eq!(
                got.is_ok(),
                want,
                "case {case} ({kind}): {got:?}\nlists {lists:?}\nactive {active:?}"
            );
            outcomes.entry(kind).or_default()[got.is_err() as usize] += 1;
        }
        // [accepted, refused] per kind: every corruption kind must be seen
        // refused; a swap or a retarget can leave a graph.
        assert_eq!(outcomes.len(), 7, "{outcomes:?}");
        assert_eq!(outcomes["unmutated"][1], 0);
        for (kind, [_, refused]) in &outcomes {
            assert!(*kind == "unmutated" || *refused >= 100, "{outcomes:?}");
        }
    }

    #[test]
    fn adjacency_words_report_arena_reality() {
        // Six vertices; pushing vertex 0 to degree 5 forces its block
        // through a 4 -> 8 growth, and the freed 4-block is reused by the
        // next allocation — the accountant must see pool words (live +
        // slack + parked free blocks) plus free-list bookkeeping.
        let mut g = Graph::new(6);
        for u in 1..=4 {
            g.insert_edge(0, u); // v0 fills a 4-block; v1..v4 get 4-blocks
        }
        assert_eq!(g.adjacency_words(), 5 * 4);
        g.insert_edge(0, 5); // v0 grows to an 8-block (old 4-block freed),
                             // then v5's first edge REUSES that freed block
        assert_eq!(g.adjacency_words(), 4 * 4 + 8 + 4);
        // Deleting a vertex parks its block on the free list: the pool stays
        // the same size and one bookkeeping word appears.
        g.delete_vertex(5);
        assert_eq!(g.adjacency_words(), 4 * 4 + 8 + 4 + 1);
        // The old per-Vec len() sum would have reported just the live
        // entries — strictly less than the arena holds.
        let live: usize = g.vertices().map(|v| g.degree(v)).sum();
        assert!(live < g.adjacency_words());
    }
}
