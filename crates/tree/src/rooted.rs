//! Mutable rooted-tree (parent array) representation.

use pardfs_graph::Vertex;

/// Sentinel meaning "no parent / not in the tree".
pub const NO_VERTEX: Vertex = u32::MAX;

/// A rooted tree (or forest fragment) stored as a parent array over a dense
/// vertex id space.
///
/// * `parent[root] == root` marks the root.
/// * `parent[v] == NO_VERTEX` marks a vertex that is not part of the tree
///   (deleted, or simply not in this component).
///
/// This is the static DFS's output (`pardfs-seq`'s `static_dfs` attaches each
/// vertex as the traversal reaches it, and the finished array is then frozen
/// into a [`crate::TreeIndex`]) and a test fixture. The rerooting engines
/// never hold one: they describe each new tree `T*` as a [`crate::TreePatch`]
/// against the current index.
#[derive(Debug, Clone)]
pub struct RootedTree {
    parent: Vec<Vertex>,
    root: Vertex,
}

impl RootedTree {
    /// An empty tree over an id space of `capacity` vertices, rooted at `root`.
    pub fn new(capacity: usize, root: Vertex) -> Self {
        let mut parent = vec![NO_VERTEX; capacity];
        parent[root as usize] = root;
        RootedTree { parent, root }
    }

    /// The root vertex.
    pub fn root(&self) -> Vertex {
        self.root
    }

    /// Size of the vertex id space.
    pub fn capacity(&self) -> usize {
        self.parent.len()
    }

    /// Parent of `v`, or `None` if `v` is the root or not in the tree.
    pub fn parent(&self, v: Vertex) -> Option<Vertex> {
        let p = self.parent[v as usize];
        if p == NO_VERTEX || p == v {
            None
        } else {
            Some(p)
        }
    }

    /// Is `v` part of the tree?
    pub fn contains(&self, v: Vertex) -> bool {
        (v as usize) < self.parent.len() && self.parent[v as usize] != NO_VERTEX
    }

    /// Attach `child` below `parent`. Both must be in the id space; `parent`
    /// must already be in the tree and `child` must not.
    pub fn attach(&mut self, child: Vertex, parent: Vertex) {
        debug_assert!(self.contains(parent), "parent {parent} not in tree");
        debug_assert!(!self.contains(child), "child {child} already in tree");
        self.parent[child as usize] = parent;
    }

    /// Overwrite the parent of `child` unconditionally.
    pub fn set_parent(&mut self, child: Vertex, parent: Vertex) {
        self.parent[child as usize] = parent;
    }

    /// Number of vertices currently in the tree.
    pub fn len(&self) -> usize {
        self.parent.iter().filter(|&&p| p != NO_VERTEX).count()
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the raw parent array.
    pub fn parent_array(&self) -> &[Vertex] {
        &self.parent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> RootedTree {
        // 0 is root; 1,2 children of 0; 3,4 children of 1.
        let mut t = RootedTree::new(5, 0);
        t.attach(1, 0);
        t.attach(2, 0);
        t.attach(3, 1);
        t.attach(4, 1);
        t
    }

    #[test]
    fn attach_and_query() {
        let t = small_tree();
        assert_eq!(t.root(), 0);
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(3), Some(1));
        assert_eq!(t.len(), 5);
        assert!(t.contains(4));
    }
}
