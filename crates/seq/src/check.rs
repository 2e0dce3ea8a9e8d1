//! DFS-tree validity checking — the correctness oracle of the whole workspace.

use pardfs_graph::Graph;
use pardfs_tree::TreeIndex;

/// Check that `idx` is a DFS tree of the connected component of its root in
/// `g`:
///
/// 1. the root is an active vertex of `g`;
/// 2. every tree edge `(v, parent(v))` is an edge of `g`;
/// 3. the tree spans exactly the vertices reachable from the root in `g`;
/// 4. every edge of `g` between two tree vertices is a *back edge* (one
///    endpoint an ancestor of the other) — the necessary and sufficient
///    condition for a rooted spanning tree to be a DFS tree (Section 1).
pub fn check_dfs_tree(g: &Graph, idx: &TreeIndex) -> Result<(), String> {
    let root = idx.root();
    if !g.is_active(root) {
        return Err(format!("root {root} is not an active vertex"));
    }
    // (2) tree edges exist in the graph.
    for &v in idx.pre_order_vertices() {
        if !g.is_active(v) {
            return Err(format!("tree vertex {v} is not active in the graph"));
        }
        if let Some(p) = idx.parent(v) {
            if !g.has_edge(v, p) {
                return Err(format!("tree edge ({v}, {p}) is not a graph edge"));
            }
        }
    }
    // (3) spanning: the tree contains exactly the component of the root.
    let mut reach = vec![false; g.capacity()];
    let mut stack = vec![root];
    reach[root as usize] = true;
    let mut reach_count = 1usize;
    while let Some(v) = stack.pop() {
        for &u in g.neighbors(v) {
            if !reach[u as usize] {
                reach[u as usize] = true;
                reach_count += 1;
                stack.push(u);
            }
        }
    }
    if reach_count != idx.num_vertices() {
        return Err(format!(
            "tree has {} vertices but the root's component has {reach_count}",
            idx.num_vertices()
        ));
    }
    for &v in idx.pre_order_vertices() {
        if !reach[v as usize] {
            return Err(format!("tree vertex {v} is not in the root's component"));
        }
    }
    // (4) every graph edge inside the component is a back edge.
    for &v in idx.pre_order_vertices() {
        for &u in g.neighbors(v) {
            if idx.contains(u) && !idx.is_back_edge(u, v) {
                return Err(format!("graph edge ({u}, {v}) is a cross edge in the tree"));
            }
        }
    }
    Ok(())
}

/// Check that `idx` is a DFS tree spanning *all* active vertices of `g`
/// (convenience wrapper used with the augmented / pseudo-rooted graphs, where
/// connectivity is guaranteed by construction).
pub fn check_spanning_dfs_tree(g: &Graph, idx: &TreeIndex) -> Result<(), String> {
    if idx.num_vertices() != g.num_vertices() {
        return Err(format!(
            "tree has {} vertices, graph has {} active vertices",
            idx.num_vertices(),
            g.num_vertices()
        ));
    }
    check_dfs_tree(g, idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_dfs::static_dfs_index;
    use pardfs_graph::generators;
    use pardfs_tree::RootedTree;

    #[test]
    fn accepts_valid_dfs_trees() {
        let g = generators::complete(6);
        let idx = static_dfs_index(&g, 2);
        check_dfs_tree(&g, &idx).unwrap();
        check_spanning_dfs_tree(&g, &idx).unwrap();
    }

    #[test]
    fn rejects_trees_with_cross_edges() {
        // Square 0-1-2-3-0. The star rooted at 0 spans it but edge (1,2) would
        // be a cross edge, so it is not a DFS tree.
        let g = generators::cycle(4);
        let mut t = RootedTree::new(4, 0);
        t.attach(1, 0);
        t.attach(3, 0);
        t.attach(2, 3);
        let idx = TreeIndex::build(&t);
        let err = check_dfs_tree(&g, &idx).unwrap_err();
        assert!(err.contains("cross edge"), "{err}");
    }

    #[test]
    fn rejects_non_spanning_trees() {
        let g = generators::path(5);
        let mut t = RootedTree::new(5, 0);
        t.attach(1, 0);
        t.attach(2, 1);
        let idx = TreeIndex::build(&t);
        let err = check_dfs_tree(&g, &idx).unwrap_err();
        assert!(err.contains("component"), "{err}");
    }

    #[test]
    fn rejects_fabricated_tree_edges() {
        let g = generators::path(4);
        let mut t = RootedTree::new(4, 0);
        t.attach(1, 0);
        t.attach(2, 1);
        t.attach(3, 1); // (1,3) is not a graph edge
        let idx = TreeIndex::build(&t);
        let err = check_dfs_tree(&g, &idx).unwrap_err();
        assert!(err.contains("not a graph edge"), "{err}");
    }

    #[test]
    fn rejects_inactive_roots() {
        let mut g = generators::path(3);
        let idx = static_dfs_index(&g, 0);
        g.delete_vertex(0);
        assert!(check_dfs_tree(&g, &idx).is_err());
    }
}
