//! The pseudo-root augmentation of Section 2.
//!
//! To handle disconnected graphs (and vertex insertions that arrive with no
//! edges), the paper adds a dummy root `r` adjacent to every vertex and
//! maintains a DFS tree of the augmented graph; the children of `r` are then
//! the roots of a DFS forest of the original graph. [`AugmentedGraph`] applies
//! this transformation concretely.
//!
//! ## Id scheme
//!
//! The pseudo root occupies the *internal* vertex id `0`, and every user
//! vertex `v` maps to internal id `v + 1`. This keeps the mapping stable under
//! arbitrary interleavings of vertex insertions and deletions: a vertex
//! insertion that a stand-alone [`Graph`] would assign user id `c` receives
//! internal id `c + 1`, so user-visible ids behave exactly as if no
//! augmentation existed. All maintainers translate at their public API
//! boundary via [`AugmentedGraph::to_internal`] / [`AugmentedGraph::to_user`];
//! the forest queries over this scheme live in [`pardfs_api::forest`].

use pardfs_graph::{Graph, Update, Vertex};

pub use pardfs_api::forest::PSEUDO_ROOT;

/// A dynamic graph together with its pseudo root, in the shifted id space.
#[derive(Debug, Clone)]
pub struct AugmentedGraph {
    graph: Graph,
}

impl AugmentedGraph {
    /// Augment a user graph with a pseudo root adjacent to every active
    /// vertex. The user graph is copied into the shifted id space in one
    /// packing pass ([`Graph::with_hub`]).
    pub fn new(user: &Graph) -> Self {
        AugmentedGraph {
            graph: user.with_hub(),
        }
    }

    /// Re-wrap an *internal-id* graph (pseudo root and pseudo edges already
    /// present) — the recovery path: a checkpoint serializes the augmented
    /// graph exactly (adjacency order included, because DFS tree shape
    /// depends on it), and this constructor validates the pseudo-root
    /// invariants before trusting it. Rejects a graph whose vertex 0 is
    /// inactive or is not adjacent to every other active vertex.
    ///
    /// Counting the pseudo root's edges suffices: a [`Graph`] is simple, so
    /// vertex 0's neighbours are distinct active vertices other than itself,
    /// and when there are as many as there are active user vertices, they
    /// are all of them.
    pub fn from_internal(graph: Graph) -> Result<Self, String> {
        if !graph.is_active(PSEUDO_ROOT) {
            return Err("pseudo root (internal id 0) is not active".to_string());
        }
        let user_vertices = graph.num_vertices() - 1;
        if graph.degree(PSEUDO_ROOT) != user_vertices {
            return Err(format!(
                "pseudo root has {} edges but there are {user_vertices} user vertices",
                graph.degree(PSEUDO_ROOT)
            ));
        }
        Ok(AugmentedGraph { graph })
    }

    /// The augmented graph (pseudo root and pseudo edges included), in the
    /// internal id space.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The pseudo root vertex (always internal id 0).
    pub fn pseudo_root(&self) -> Vertex {
        PSEUDO_ROOT
    }

    /// Map a user vertex id to its internal id.
    pub fn to_internal(&self, v: Vertex) -> Vertex {
        v + 1
    }

    /// Map an internal vertex id back to the user id. Panics on the pseudo
    /// root.
    pub fn to_user(&self, v: Vertex) -> Vertex {
        assert_ne!(v, PSEUDO_ROOT, "the pseudo root has no user id");
        v - 1
    }

    /// Is `(u, v)` (internal ids) one of the pseudo edges?
    pub fn is_pseudo_edge(&self, u: Vertex, v: Vertex) -> bool {
        u == PSEUDO_ROOT || v == PSEUDO_ROOT
    }

    /// Number of *user* vertices (excluding the pseudo root).
    pub fn user_num_vertices(&self) -> usize {
        self.graph.num_vertices() - 1
    }

    /// Number of *user* edges (excluding pseudo edges).
    pub fn user_num_edges(&self) -> usize {
        self.graph.num_edges() - self.user_num_vertices()
    }

    /// Translate a user update into internal ids.
    pub fn translate(&self, update: &Update) -> Update {
        match update {
            Update::InsertEdge(u, v) => Update::InsertEdge(u + 1, v + 1),
            Update::DeleteEdge(u, v) => Update::DeleteEdge(u + 1, v + 1),
            Update::DeleteVertex(v) => Update::DeleteVertex(v + 1),
            Update::InsertVertex { edges } => Update::InsertVertex {
                edges: edges.iter().map(|&e| e + 1).collect(),
            },
        }
    }

    /// Apply an *internal-id* update, keeping the pseudo edges consistent: an
    /// inserted vertex additionally gains a pseudo edge, and touching the
    /// pseudo root is rejected.
    ///
    /// Returns the internal id of the inserted vertex for vertex insertions.
    pub fn apply_internal(&mut self, update: &Update) -> Option<Vertex> {
        match update {
            Update::DeleteVertex(v) => {
                assert_ne!(*v, PSEUDO_ROOT, "the pseudo root cannot be deleted");
                self.graph.apply(update)
            }
            Update::InsertVertex { .. } => {
                let nv = self
                    .graph
                    .apply(update)
                    .expect("vertex insertion returns an id");
                self.graph.insert_edge(PSEUDO_ROOT, nv);
                Some(nv)
            }
            Update::InsertEdge(u, v) | Update::DeleteEdge(u, v) => {
                assert!(
                    *u != PSEUDO_ROOT && *v != PSEUDO_ROOT,
                    "pseudo edges cannot be updated by the user"
                );
                self.graph.apply(update)
            }
        }
    }

    /// Apply a *user-id* update; returns the user id of the inserted vertex
    /// for vertex insertions.
    pub fn apply(&mut self, update: &Update) -> Option<Vertex> {
        let internal = self.translate(update);
        self.apply_internal(&internal).map(|v| self.to_user(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardfs_graph::generators;
    use pardfs_graph::updates::{random_update_sequence, UpdateMix};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// The augmentation built one insert at a time: holes first, then every
    /// [`Graph::edges`] entry, then each active vertex's pseudo edge.
    fn insert_built(user: &Graph) -> Graph {
        let mut graph = Graph::new(user.capacity() + 1);
        for v in 0..user.capacity() as Vertex {
            if !user.is_active(v) {
                graph.delete_vertex(v + 1);
            }
        }
        for e in user.edges() {
            graph.insert_edge(e.0 + 1, e.1 + 1);
        }
        for v in user.vertices() {
            graph.insert_edge(PSEUDO_ROOT, v + 1);
        }
        graph
    }

    #[test]
    fn packed_augmentation_equals_the_insert_built_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xA06);
        let mut users = vec![Graph::new(0), Graph::new(1)];
        for _ in 0..60 {
            let n: usize = rng.gen_range(2..50);
            let m = rng.gen_range(n - 1..=(n * (n - 1) / 2).min(4 * n));
            let mut g = generators::random_connected_gnm(n, m, &mut rng);
            let churn = rng.gen_range(0..120);
            for u in random_update_sequence(&g, churn, &UpdateMix::default(), &mut rng) {
                g.apply(&u);
            }
            users.push(g);
        }
        let (mut holes, mut unsorted) = (0, 0);
        for (case, user) in users.iter().enumerate() {
            let packed = AugmentedGraph::new(user);
            let (packed, want) = (packed.graph(), insert_built(user));
            assert_eq!(packed.capacity(), want.capacity(), "case {case}");
            for v in 0..want.capacity() as Vertex {
                assert_eq!(
                    packed.is_active(v),
                    want.is_active(v),
                    "case {case}, slot {v}"
                );
                assert_eq!(
                    packed.neighbors(v),
                    want.neighbors(v),
                    "case {case}, slot {v}"
                );
            }
            assert_eq!(packed.num_edges(), want.num_edges(), "case {case}");
            assert_eq!(packed.num_vertices(), want.num_vertices(), "case {case}");
            holes += user.capacity() - user.num_vertices();
            unsorted += user
                .vertices()
                .filter(|&v| !user.neighbors(v).is_sorted())
                .count();
        }
        assert!(
            holes > 100 && unsorted > 100,
            "{holes} holes, {unsorted} unsorted lists"
        );
    }

    #[test]
    fn from_internal_accepts_hubs_and_refuses_a_missing_pseudo_edge() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xF1);
        let mut orphans = 0;
        for case in 0..60 {
            let n: usize = rng.gen_range(2..40);
            let m = rng.gen_range(n - 1..=(n * (n - 1) / 2).min(3 * n));
            let mut user = generators::random_connected_gnm(n, m, &mut rng);
            let churn = rng.gen_range(0..80);
            for u in random_update_sequence(&user, churn, &UpdateMix::default(), &mut rng) {
                user.apply(&u);
            }
            let hub = user.with_hub();
            assert!(
                AugmentedGraph::from_internal(hub.clone()).is_ok(),
                "case {case}"
            );

            let mut rootless = hub.clone();
            rootless.delete_vertex(PSEUDO_ROOT);
            let err = AugmentedGraph::from_internal(rootless).unwrap_err();
            assert!(err.contains("is not active"), "case {case}: {err}");

            let users: Vec<Vertex> = hub.vertices().filter(|&v| v != PSEUDO_ROOT).collect();
            let Some(&v) = users.choose(&mut rng) else {
                continue;
            };
            let mut orphan = hub;
            orphan.delete_edge(PSEUDO_ROOT, v);
            let err = AugmentedGraph::from_internal(orphan).unwrap_err();
            assert!(
                err.contains("pseudo root has") && err.contains("user vertices"),
                "case {case}: {err}"
            );
            orphans += 1;
        }
        assert!(orphans > 50, "only {orphans} cases had a user vertex");
    }

    #[test]
    fn augmentation_connects_everything() {
        let mut g = generators::path(3);
        g.insert_vertex(&[]); // isolated user vertex 3
        let aug = AugmentedGraph::new(&g);
        assert_eq!(aug.pseudo_root(), 0);
        assert_eq!(aug.user_num_vertices(), 4);
        assert_eq!(aug.user_num_edges(), 2);
        assert!(pardfs_graph::is_connected(aug.graph()));
        assert!(aug.is_pseudo_edge(0, 2));
        assert!(!aug.is_pseudo_edge(1, 2));
        // User edge (0,1) lives at internal (1,2).
        assert!(aug.graph().has_edge(1, 2));
    }

    #[test]
    fn inactive_user_slots_stay_inactive() {
        let mut g = generators::path(4);
        g.delete_vertex(2);
        let aug = AugmentedGraph::new(&g);
        assert!(!aug.graph().is_active(aug.to_internal(2)));
        assert_eq!(aug.user_num_vertices(), 3);
        assert_eq!(aug.user_num_edges(), 1);
    }

    #[test]
    fn vertex_insertion_ids_match_the_unaugmented_graph() {
        let mut user = generators::path(2);
        let mut aug = AugmentedGraph::new(&user);
        let expected = user.insert_vertex(&[0]);
        let got = aug.apply(&Update::InsertVertex { edges: vec![0] }).unwrap();
        assert_eq!(got, expected);
        assert!(aug
            .graph()
            .has_edge(aug.to_internal(got), aug.pseudo_root()));
        assert!(aug
            .graph()
            .has_edge(aug.to_internal(got), aug.to_internal(0)));
        assert_eq!(aug.user_num_edges(), 2);
    }

    #[test]
    fn edge_updates_pass_through() {
        let g = generators::path(4);
        let mut aug = AugmentedGraph::new(&g);
        aug.apply(&Update::InsertEdge(0, 3));
        assert!(aug.graph().has_edge(aug.to_internal(0), aug.to_internal(3)));
        aug.apply(&Update::DeleteEdge(1, 2));
        assert!(!aug.graph().has_edge(aug.to_internal(1), aug.to_internal(2)));
        assert_eq!(aug.user_num_edges(), 3);
    }

    #[test]
    #[should_panic(expected = "pseudo root")]
    fn deleting_the_pseudo_root_is_rejected() {
        let g = generators::path(2);
        let mut aug = AugmentedGraph::new(&g);
        aug.apply_internal(&Update::DeleteVertex(PSEUDO_ROOT));
    }
}
