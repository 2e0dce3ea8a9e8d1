//! The synchronous CONGEST(B) cost accountant.
//!
//! The simulator does not move real payloads around; it computes the exact
//! round and message counts of the standard primitives the paper's distributed
//! algorithm composes (Peleg, *Distributed Computing: a Locality-Sensitive
//! Approach*): BFS-tree construction, and pipelined broadcast / convergecast
//! over that BFS tree. Disconnected graphs are handled as a BFS *forest*; the
//! components operate in parallel, so rounds take the maximum over components
//! while messages add up.

use pardfs_api::CongestStats;
use pardfs_graph::Graph;

/// Round/message accountant for one recovery stage (one update).
#[derive(Debug)]
pub struct Network {
    bandwidth: usize,
    num_edges: usize,
    /// Maximum BFS depth over the components (≈ the diameter bound `D`).
    bfs_depth: usize,
    /// Number of BFS tree edges (≤ number of nodes − components).
    bfs_tree_edges: usize,
    stats: CongestStats,
    bfs_built: bool,
}

impl Network {
    /// Create an accountant for the given communication topology (the user
    /// graph) and per-message word budget `B`.
    pub fn new(topology: &Graph, bandwidth: usize) -> Self {
        let (depth, tree_edges) = bfs_forest_shape(topology);
        Network {
            bandwidth: bandwidth.max(1),
            num_edges: topology.num_edges(),
            bfs_depth: depth,
            bfs_tree_edges: tree_edges,
            stats: CongestStats::default(),
            bfs_built: false,
        }
    }

    /// The per-message word budget `B`.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// The BFS depth of the largest component (the `D` in the bounds).
    pub fn depth(&self) -> usize {
        self.bfs_depth
    }

    /// Charge the construction of the BFS forest used by all later broadcasts:
    /// `O(D)` rounds and `O(m)` messages (flooding).
    pub fn build_bfs_forest(&mut self) {
        if self.bfs_built {
            return;
        }
        self.bfs_built = true;
        self.stats.rounds += self.bfs_depth.max(1) as u64;
        self.stats.messages += (2 * self.num_edges).max(1) as u64;
        self.stats.words += (2 * self.num_edges).max(1) as u64;
    }

    /// Charge a pipelined broadcast of `words` words from the roots of the BFS
    /// forest to every node: `D + ceil(words/B)` rounds, `ceil(words/B)`
    /// messages per tree edge.
    pub fn broadcast_words(&mut self, words: usize) {
        if words == 0 {
            return;
        }
        debug_assert!(self.bfs_built, "broadcast before the BFS forest exists");
        let packets = words.div_ceil(self.bandwidth);
        self.stats.rounds += (self.bfs_depth + packets) as u64;
        self.stats.messages += (self.bfs_tree_edges * packets) as u64;
        self.stats.words += (self.bfs_tree_edges * words) as u64;
    }

    /// Charge one query phase: a pipelined convergecast of `words` words of
    /// partial answers up the BFS forest followed by a pipelined broadcast of
    /// the combined answers back down (Section 6.2.2).
    pub fn charge_query_phase(&mut self, words: u64) {
        debug_assert!(self.bfs_built, "query phase before the BFS forest exists");
        let words = words as usize;
        let packets = words.div_ceil(self.bandwidth).max(1);
        // Convergecast + broadcast: both are pipelined over the BFS forest.
        self.stats.rounds += 2 * (self.bfs_depth + packets) as u64;
        self.stats.messages += 2 * (self.bfs_tree_edges * packets) as u64;
        self.stats.words += 2 * (self.bfs_tree_edges * words) as u64;
        self.stats.broadcast_phases += 1;
    }

    /// Finish the stage and return the accumulated cost.
    pub fn finish(self) -> CongestStats {
        self.stats
    }
}

/// Compute the BFS forest shape of the topology: (max depth over components,
/// total number of BFS tree edges).
fn bfs_forest_shape(g: &Graph) -> (usize, usize) {
    let cap = g.capacity();
    let mut level = vec![u32::MAX; cap];
    let mut max_depth = 0usize;
    let mut tree_edges = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for s in g.vertices() {
        if level[s as usize] != u32::MAX {
            continue;
        }
        level[s as usize] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if level[u as usize] == u32::MAX {
                    level[u as usize] = level[v as usize] + 1;
                    max_depth = max_depth.max(level[u as usize] as usize);
                    tree_edges += 1;
                    queue.push_back(u);
                }
            }
        }
    }
    (max_depth, tree_edges)
}

/// Compute the exact eccentricity-based diameter of a (connected component of
/// a) graph by running a BFS from every vertex — used by the experiment
/// harness to report `D` next to the measured rounds.
pub fn diameter(g: &Graph) -> usize {
    let mut best = 0usize;
    for s in g.vertices() {
        let mut level = vec![u32::MAX; g.capacity()];
        level[s as usize] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if level[u as usize] == u32::MAX {
                    level[u as usize] = level[v as usize] + 1;
                    best = best.max(level[u as usize] as usize);
                    queue.push_back(u);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardfs_graph::generators;

    #[test]
    fn bfs_shape_of_path_and_star() {
        let (d, t) = bfs_forest_shape(&generators::path(10));
        assert_eq!(d, 9);
        assert_eq!(t, 9);
        let (d, t) = bfs_forest_shape(&generators::star(10));
        assert_eq!(d, 1);
        assert_eq!(t, 9);
    }

    #[test]
    fn bfs_shape_of_disconnected_graph() {
        let mut g = generators::path(6);
        g.delete_edge(2, 3);
        let (d, t) = bfs_forest_shape(&g);
        assert_eq!(d, 2);
        assert_eq!(t, 4);
    }

    #[test]
    fn broadcast_costs_scale_with_words_and_bandwidth() {
        let g = generators::path(20);
        let mut narrow = Network::new(&g, 1);
        narrow.build_bfs_forest();
        let base = narrow.finish();

        let mut narrow = Network::new(&g, 1);
        narrow.build_bfs_forest();
        narrow.broadcast_words(100);
        let narrow = narrow.finish();

        let mut wide = Network::new(&g, 50);
        wide.build_bfs_forest();
        wide.broadcast_words(100);
        let wide = wide.finish();

        assert!(narrow.rounds > wide.rounds);
        assert!(narrow.messages > wide.messages);
        assert!(narrow.rounds > base.rounds);
        // Word-per-message budget respected.
        assert!(narrow.words <= narrow.messages);
        assert!(wide.words <= wide.messages * 50);
    }

    #[test]
    fn query_phase_counts_phases() {
        let g = generators::grid(4, 4);
        let mut net = Network::new(&g, 4);
        net.build_bfs_forest();
        net.charge_query_phase(10);
        net.charge_query_phase(2);
        let s = net.finish();
        assert_eq!(s.broadcast_phases, 2);
        assert!(s.rounds > 0 && s.messages > 0);
    }

    #[test]
    fn exact_diameter() {
        assert_eq!(diameter(&generators::path(10)), 9);
        assert_eq!(diameter(&generators::cycle(10)), 5);
        assert_eq!(diameter(&generators::star(10)), 2);
        assert_eq!(diameter(&generators::grid(3, 4)), 5);
    }
}
