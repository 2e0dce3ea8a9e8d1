//! Graph family generators used by tests, examples and the experiment harness.
//!
//! The families mirror the workloads a dynamic-DFS evaluation needs:
//!
//! * sparse and dense random connected graphs (`G(n, m)` style) — the default
//!   benchmark input;
//! * structured graphs with extreme diameters (paths, cycles, grids, stars,
//!   complete graphs) — these stress the CONGEST round bound `O(D log^2 n)`;
//! * adversarial families for the rerooting engine: `caterpillar` and `broom`
//!   graphs whose DFS trees are a long spine with many hanging subtrees, the
//!   configuration in which the sequential rerooting of Baswana et al. \[6\]
//!   degenerates and the paper's phased traversals shine.

use crate::graph::{Graph, Vertex};
use rand::seq::SliceRandom;
use rand::Rng;

/// A simple path `0 - 1 - ... - n-1`.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n as Vertex {
        g.insert_edge(v - 1, v);
    }
    g
}

/// A cycle on `n >= 3` vertices.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut g = path(n);
    g.insert_edge(0, (n - 1) as Vertex);
    g
}

/// A star with centre `0` and `n - 1` leaves.
pub fn star(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n as Vertex {
        g.insert_edge(0, v);
    }
    g
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n as Vertex {
        for v in (u + 1)..n as Vertex {
            g.insert_edge(u, v);
        }
    }
    g
}

/// A `rows x cols` grid graph.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut g = Graph::new(n);
    let id = |r: usize, c: usize| (r * cols + c) as Vertex;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.insert_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                g.insert_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    g
}

/// A caterpillar: a spine path of length `spine` where every spine vertex
/// carries `legs` pendant leaves. Total vertices: `spine * (legs + 1)`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine * (legs + 1);
    let mut g = Graph::new(n);
    for s in 1..spine {
        g.insert_edge((s - 1) as Vertex, s as Vertex);
    }
    let mut next = spine as Vertex;
    for s in 0..spine as Vertex {
        for _ in 0..legs {
            g.insert_edge(s, next);
            next += 1;
        }
    }
    g
}

/// A broom: a path of length `handle` whose last vertex fans out into
/// `bristles` leaves. The DFS tree rooted at vertex 0 has a very unbalanced
/// shape, which makes rerooting after an update near the handle expensive for
/// naive algorithms.
pub fn broom(handle: usize, bristles: usize) -> Graph {
    let n = handle + bristles;
    let mut g = Graph::new(n);
    for v in 1..handle as Vertex {
        g.insert_edge(v - 1, v);
    }
    let tip = (handle - 1) as Vertex;
    for b in 0..bristles as Vertex {
        g.insert_edge(tip, handle as Vertex + b);
    }
    g
}

/// Path-of-cliques: `blocks` cliques of size `block_size` strung on a path.
/// Stresses components of type C2 (a path plus many attached subtrees).
pub fn path_of_cliques(blocks: usize, block_size: usize) -> Graph {
    assert!(block_size >= 1);
    let n = blocks * block_size;
    let mut g = Graph::new(n);
    for b in 0..blocks {
        let base = (b * block_size) as Vertex;
        for i in 0..block_size as Vertex {
            for j in (i + 1)..block_size as Vertex {
                g.insert_edge(base + i, base + j);
            }
        }
        if b > 0 {
            g.insert_edge(base - 1, base);
        }
    }
    g
}

/// A uniformly random labelled tree on `n` vertices (random parent attachment,
/// which produces trees of logarithmic expected depth).
pub fn random_tree<R: Rng>(n: usize, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n as Vertex {
        let p = rng.gen_range(0..v);
        g.insert_edge(p, v);
    }
    g
}

/// A random tree with a long expected depth: each new vertex attaches to one of
/// the most recently added `window` vertices. `window = 1` yields a path.
pub fn random_deep_tree<R: Rng>(n: usize, window: usize, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    let w = window.max(1) as Vertex;
    for v in 1..n as Vertex {
        let lo = v.saturating_sub(w);
        let p = rng.gen_range(lo..v);
        g.insert_edge(p, v);
    }
    g
}

/// Erdős–Rényi `G(n, p)`: every edge present independently with probability `p`.
pub fn gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n as Vertex {
        for v in (u + 1)..n as Vertex {
            if rng.gen_bool(p) {
                g.insert_edge(u, v);
            }
        }
    }
    g
}

/// A connected random graph with exactly `n` vertices and (approximately) `m`
/// edges: a random spanning tree plus `m - (n-1)` random extra edges.
///
/// Panics if `m < n - 1` or if `m` exceeds the number of possible edges.
pub fn random_connected_gnm<R: Rng>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(n >= 1);
    assert!(m + 1 >= n, "need at least n-1 edges for connectivity");
    let max_edges = n * (n - 1) / 2;
    assert!(m <= max_edges, "too many edges requested");
    let mut g = random_tree(n, rng);
    let mut attempts = 0usize;
    while g.num_edges() < m && attempts < 100 * m + 1000 {
        attempts += 1;
        let u = rng.gen_range(0..n as Vertex);
        let v = rng.gen_range(0..n as Vertex);
        if u != v {
            g.insert_edge(u, v);
        }
    }
    g
}

/// A random connected graph whose edge endpoints are biased towards nearby
/// vertex ids, producing graphs of large diameter (useful for the CONGEST
/// experiments where `D` matters).
pub fn random_long_range<R: Rng>(n: usize, extra_edges: usize, span: usize, rng: &mut R) -> Graph {
    let mut g = path(n);
    let span = span.max(2);
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < extra_edges && attempts < 50 * extra_edges + 100 {
        attempts += 1;
        let u = rng.gen_range(0..n as Vertex);
        let d = rng.gen_range(2..span as Vertex + 2);
        let v = u.saturating_add(d);
        if (v as usize) < n && g.insert_edge(u, v) {
            added += 1;
        }
    }
    g
}

/// Pick `count` distinct existing edges uniformly at random (used to drive
/// deletion-heavy workloads).
pub fn sample_edges<R: Rng>(g: &Graph, count: usize, rng: &mut R) -> Vec<(Vertex, Vertex)> {
    let mut edges: Vec<(Vertex, Vertex)> = g.edges().map(|e| (e.0, e.1)).collect();
    edges.shuffle(rng);
    edges.truncate(count);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_connected;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn path_and_cycle_shapes() {
        let p = path(5);
        assert_eq!(p.num_edges(), 4);
        assert!(is_connected(&p));
        let c = cycle(5);
        assert_eq!(c.num_edges(), 5);
        assert!(c.has_edge(0, 4));
    }

    #[test]
    fn star_and_complete_counts() {
        assert_eq!(star(6).num_edges(), 5);
        assert_eq!(complete(6).num_edges(), 15);
    }

    #[test]
    fn grid_counts() {
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
        assert!(is_connected(&g));
    }

    #[test]
    fn caterpillar_and_broom() {
        let c = caterpillar(5, 3);
        assert_eq!(c.num_vertices(), 20);
        assert_eq!(c.num_edges(), 19);
        assert!(is_connected(&c));
        let b = broom(10, 7);
        assert_eq!(b.num_vertices(), 17);
        assert_eq!(b.num_edges(), 16);
        assert!(is_connected(&b));
    }

    #[test]
    fn path_of_cliques_connected() {
        let g = path_of_cliques(4, 5);
        assert_eq!(g.num_vertices(), 20);
        assert!(is_connected(&g));
        assert_eq!(g.num_edges(), 4 * 10 + 3);
    }

    #[test]
    fn random_trees_are_trees() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for &n in &[1usize, 2, 10, 100] {
            let t = random_tree(n, &mut rng);
            assert_eq!(t.num_edges(), n.saturating_sub(1));
            assert!(is_connected(&t));
            let d = random_deep_tree(n, 3, &mut rng);
            assert_eq!(d.num_edges(), n.saturating_sub(1));
            assert!(is_connected(&d));
        }
    }

    #[test]
    fn gnm_has_requested_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = random_connected_gnm(50, 200, &mut rng);
        assert_eq!(g.num_vertices(), 50);
        assert_eq!(g.num_edges(), 200);
        assert!(is_connected(&g));
    }

    #[test]
    fn long_range_is_connected_and_sparse() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = random_long_range(200, 50, 10, &mut rng);
        assert!(is_connected(&g));
        assert_eq!(g.num_edges(), 199 + 50);
    }

    #[test]
    fn sample_edges_returns_existing_edges() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = random_connected_gnm(30, 80, &mut rng);
        let es = sample_edges(&g, 10, &mut rng);
        assert_eq!(es.len(), 10);
        for (u, v) in es {
            assert!(g.has_edge(u, v));
        }
    }
}
