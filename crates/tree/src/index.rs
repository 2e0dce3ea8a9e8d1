//! Structural index over a rooted tree: orderings, sizes, levels, LCA and
//! depth-1 ancestor labels.
//!
//! This is the in-memory realisation of the paper's Theorem 4 (Tarjan–Vishkin
//! tree functions), Theorem 6 (parallel LCA) and Theorem 10 (the operations the
//! rerooting algorithm needs on `T`). The paper's EREW PRAM bounds for
//! building these structures are cited, not simulated; here we care about
//! providing the queries in `O(1)`/`O(log n)` after an `O(n)` build.
//! Ancestor tests are `O(1)` from pre-order intervals, the child of a vertex
//! toward a descendant is a binary search of its children, one skew-binary
//! jump pointer per vertex (Myers, "An applicative random-access stack",
//! 1983) answers LCA in `O(log n)`, and each vertex's depth-1 ancestor
//! (`top`) names the tree of the forest below the root it lies in.
//!
//! Every field is numbered by one walk and one numbering routine (`walk` and
//! `number`). A build runs them over the whole tree; after a committed
//! update, [`crate::patch`] runs them over the touched subtree only, in
//! place, instead of rebuilding.

use crate::rooted::{RootedTree, NO_VERTEX};
use pardfs_graph::snap::{fnv1a64, put_u32, put_u64, SnapWriter, FNV_OFFSET};
use pardfs_graph::{AdjacencyArena, Vertex};

/// Section tag of the tree binary-snapshot header (root, capacity).
pub(crate) const SEC_TREE_HEADER: [u8; 4] = *b"THDR";
/// Section tag of the parent array (`u32` per slot, `u32::MAX` for holes).
pub(crate) const SEC_TREE_PARENTS: [u8; 4] = *b"TPAR";

/// Structural index of a rooted tree.
///
/// Construction walks the tree once in pre-order and numbers it from the
/// parent array: pre/post order numbers, levels, subtree sizes, one jump
/// pointer and one `top` label per vertex, all in `O(n)`. After edge updates
/// [`TreeIndex::apply_patch`](crate::patch) runs the same walk and numbering
/// over the touched subtree only, instead of a rebuild.
///
/// Every field is a flat array (children lists live in one shared
/// [`AdjacencyArena`] pool) and a function of the parent array alone, so a
/// patched index is [`TreeIndex::structural_eq`] to a fresh build. Readers of
/// the forest need two of them, [`TreeIndex::parent_slice`] and
/// [`TreeIndex::top_slice`]: the per-epoch snapshot in `pardfs-serve` copies
/// those, not the index.
#[derive(Debug, Clone)]
pub struct TreeIndex {
    pub(crate) root: Vertex,
    pub(crate) parent: Vec<Vertex>,
    pub(crate) children: AdjacencyArena,
    pub(crate) pre: Vec<u32>,
    pub(crate) post: Vec<u32>,
    pub(crate) level: Vec<u32>,
    pub(crate) size: Vec<u32>,
    pub(crate) pre_order: Vec<Vertex>,
    /// An ancestor of every vertex (the root's is itself, holes hold
    /// [`NO_VERTEX`]), set by [`TreeIndex::relink`].
    pub(crate) jump: Vec<Vertex>,
    /// The depth-1 ancestor of every vertex ([`NO_VERTEX`] for the root and
    /// for holes), set by [`TreeIndex::relink`].
    pub(crate) top: Vec<Vertex>,
    pub(crate) n_tree: usize,
}

pub(crate) const UNSET: u32 = u32::MAX;

/// The root's own slot check: inside the id space and its own parent.
fn check_root(parent: &[Vertex], root: Vertex) -> Result<(), String> {
    let capacity = parent.len();
    if (root as usize) >= capacity {
        return Err(format!("root {root} outside capacity {capacity}"));
    }
    if parent[root as usize] != root {
        return Err(format!("parent[{root}] is not the root itself"));
    }
    Ok(())
}

/// A non-root tree vertex `v`'s slot check: its parent `p` inside the id
/// space, not `v` itself and not a hole.
fn check_parent(parent: &[Vertex], v: Vertex, p: Vertex) -> Result<(), String> {
    if (p as usize) >= parent.len() {
        return Err(format!("parent {p} of vertex {v} outside capacity"));
    }
    if p == v {
        return Err(format!("non-root vertex {v} is its own parent"));
    }
    if parent[p as usize] == NO_VERTEX {
        return Err(format!("vertex {v} parented to hole {p}"));
    }
    Ok(())
}

/// Check a parent array slot by slot while packing its children lists,
/// each sorted by id: `v`'s children are `flat[offsets[v]..offsets[v + 1]]`.
/// Count, prefix-sum, then append every vertex to its parent's list in
/// ascending id order.
fn child_table(parent: &[Vertex], root: Vertex) -> Result<(Vec<usize>, Vec<Vertex>), String> {
    let capacity = parent.len();
    check_root(parent, root)?;
    let non_root =
        || (0..capacity as Vertex).filter(move |&v| v != root && parent[v as usize] != NO_VERTEX);
    let mut offsets = vec![0usize; capacity + 1];
    for v in non_root() {
        let p = parent[v as usize];
        check_parent(parent, v, p)?;
        offsets[p as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor = offsets.clone();
    let mut flat = vec![0 as Vertex; offsets[capacity]];
    for v in non_root() {
        let p = parent[v as usize] as usize;
        flat[cursor[p]] = v;
        cursor[p] += 1;
    }
    Ok((offsets, flat))
}

/// The error for a parent array whose `n_tree` vertices are not all
/// reachable from `root`.
fn unreachable_err(n_tree: usize, reached: usize, root: Vertex) -> String {
    format!(
        "parent array has {n_tree} tree vertices but {} are unreachable from root {root} (cycle or detached component)",
        n_tree - reached
    )
}

impl TreeIndex {
    /// Build the index from a [`RootedTree`].
    pub fn build(tree: &RootedTree) -> Self {
        Self::from_parent_slice(tree.parent_array(), tree.root())
    }

    /// Build the index from a raw parent array (`parent[root] == root`,
    /// `NO_VERTEX` for vertices outside the tree). Panics with the error
    /// [`crate::TreeView::parse`] returns if it is not such a tree.
    pub fn from_parent_slice(parent: &[Vertex], root: Vertex) -> Self {
        Self::try_from_parents(parent.to_vec(), root).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`TreeIndex::from_parent_slice`] as one fallible pass over an owned
    /// parent array: the slot checks and one child table, then one
    /// [`TreeIndex::walk`] from the root that also proves every tree vertex
    /// reachable, then [`TreeIndex::number`] over the whole pre-order.
    pub(crate) fn try_from_parents(parent: Vec<Vertex>, root: Vertex) -> Result<Self, String> {
        let cap = parent.len();
        // Id-sorted children lists are the invariant the patch splice
        // preserves, so a patched index numbers vertices as a fresh build.
        let (offsets, flat) = child_table(&parent, root)?;
        let counts: Vec<usize> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
        let n_tree = flat.len() + 1;
        let mut jump = vec![NO_VERTEX; cap];
        jump[root as usize] = root;
        let mut index = TreeIndex {
            root,
            parent,
            children: AdjacencyArena::from_packed(&counts, &flat),
            pre: vec![UNSET; cap],
            post: vec![UNSET; cap],
            level: vec![UNSET; cap],
            size: vec![0; cap],
            pre_order: Vec::new(),
            jump,
            top: vec![NO_VERTEX; cap],
            n_tree,
        };
        index.pre_order = index.walk(root, n_tree);
        if index.pre_order.len() != n_tree {
            return Err(unreachable_err(n_tree, index.pre_order.len(), root));
        }
        index.number(0, n_tree);
        Ok(index)
    }

    /// The subtree of `a` in pre-order over the id-sorted children lists,
    /// the one traversal both numbering paths run (the build from the root,
    /// the patch splice from its region root). It stops once it holds more
    /// than `limit` vertices, so a caller expecting exactly `limit` sees a
    /// cycle or an escaping child as a wrong count in `O(limit)`.
    pub(crate) fn walk(&self, a: Vertex, limit: usize) -> Vec<Vertex> {
        let mut order = Vec::with_capacity(limit);
        let mut stack = vec![a];
        while let Some(v) = stack.pop() {
            order.push(v);
            if order.len() > limit {
                break;
            }
            stack.extend(self.children.list(v).iter().rev());
        }
        order
    }

    /// Number the subtree listed at `pre_order[start..start + len]` (a
    /// [`TreeIndex::walk`], so its first vertex is its root) from the final
    /// parent array: `pre`, then `level` (the parent's plus one), then
    /// `size` (summed in reverse pre-order), then `post`, since
    /// `post = pre + size − 1 − level` holds in any tree: the vertices
    /// finished before `v` are those numbered before it that are not its
    /// ancestors, plus its proper descendants. Then [`TreeIndex::relink`]
    /// every vertex below the subtree's root in pre-order. The root's own
    /// links, and everything outside the subtree, must already be final.
    pub(crate) fn number(&mut self, start: usize, len: usize) {
        let order = &self.pre_order[start..start + len];
        for (i, &v) in order.iter().enumerate() {
            let v = v as usize;
            self.pre[v] = (start + i) as u32;
            self.level[v] = if v == self.root as usize {
                0
            } else {
                self.level[self.parent[v] as usize] + 1
            };
            self.size[v] = 1;
        }
        for &v in order[1..].iter().rev() {
            self.size[self.parent[v as usize] as usize] += self.size[v as usize];
        }
        for &v in order {
            let v = v as usize;
            self.post[v] = self.pre[v] + self.size[v] - 1 - self.level[v];
        }
        for i in start + 1..start + len {
            self.relink(self.pre_order[i]);
        }
    }

    /// Reset `v`'s ancestor links from its parent `p`'s: the jump pointer by
    /// Myers' skew-binary rule — `jump(jump(p))` when `p`'s jump and that
    /// vertex's own jump span equal level gaps, `p` otherwise, so jump
    /// lengths along every root path follow the skew-binary numbers and a
    /// climb that takes each jump unless it overshoots reaches any ancestor
    /// in `O(log depth)` steps — and `top`: `v` itself under the root, `p`'s
    /// label otherwise. `v` must not be the root; its parent and level must
    /// be final, and so must its ancestors' links, which setting vertices in
    /// pre-order guarantees.
    pub(crate) fn relink(&mut self, v: Vertex) {
        let p = self.parent[v as usize];
        let jp = self.jump[p as usize];
        let jjp = self.jump[jp as usize];
        let level = |x: Vertex| self.level[x as usize];
        self.jump[v as usize] = if level(p) - level(jp) == level(jp) - level(jjp) {
            jjp
        } else {
            p
        };
        self.top[v as usize] = if p == self.root {
            v
        } else {
            self.top[p as usize]
        };
    }

    /// The root of the indexed tree.
    pub fn root(&self) -> Vertex {
        self.root
    }

    /// Number of vertices in the tree.
    pub fn num_vertices(&self) -> usize {
        self.n_tree
    }

    /// Size of the underlying id space.
    pub fn capacity(&self) -> usize {
        self.parent.len()
    }

    /// Is `v` part of the indexed tree?
    pub fn contains(&self, v: Vertex) -> bool {
        (v as usize) < self.parent.len() && self.pre[v as usize] != UNSET
    }

    /// Parent of `v` (`None` for the root).
    pub fn parent(&self, v: Vertex) -> Option<Vertex> {
        debug_assert!(self.contains(v));
        if v == self.root {
            None
        } else {
            Some(self.parent[v as usize])
        }
    }

    /// Children of `v` in traversal order — a contiguous slice of the
    /// shared arena pool.
    pub fn children(&self, v: Vertex) -> &[Vertex] {
        self.children.list(v)
    }

    /// Pre-order number of `v`.
    pub fn pre(&self, v: Vertex) -> u32 {
        self.pre[v as usize]
    }

    /// Post-order number of `v`. Along any root-to-leaf path, post-order
    /// numbers strictly decrease with depth; this is the ordering the data
    /// structure `D` sorts adjacency lists by (Section 5.2).
    pub fn post(&self, v: Vertex) -> u32 {
        self.post[v as usize]
    }

    /// Depth of `v` (root has level 0).
    pub fn level(&self, v: Vertex) -> u32 {
        self.level[v as usize]
    }

    /// Number of vertices in the subtree rooted at `v` (including `v`).
    pub fn size(&self, v: Vertex) -> u32 {
        self.size[v as usize]
    }

    /// All tree vertices in pre-order.
    pub fn pre_order_vertices(&self) -> &[Vertex] {
        &self.pre_order
    }

    /// The depth-1 ancestor of every slot (`v` itself for a child of the
    /// root, [`NO_VERTEX`] for the root and for holes): two vertices share a
    /// label iff they lie in the same tree of the forest below the root.
    pub fn top_slice(&self) -> &[Vertex] {
        &self.top
    }

    /// FNV-1a fingerprint of the tree structure: every pre-order vertex id
    /// and its parent (shifted by one so "root" and "parent 0" differ).
    ///
    /// This is the **single source** of tree identity across the workspace:
    /// the scenario runner's recorded `tree <backend>` fingerprints, the
    /// serve layer's per-epoch snapshot fingerprints and the torn-read
    /// detector in the stress suite all call it, so "same fingerprint" means
    /// "same tree" everywhere. Two indexes answer equal fingerprints iff
    /// their vertex sets, pre-orders and parent assignments agree.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        for &v in &self.pre_order {
            hash = fnv1a64(hash, &(v as u64).to_le_bytes());
            let parent = self.parent(v).map_or(0, |p| p as u64 + 1);
            hash = fnv1a64(hash, &parent.to_le_bytes());
        }
        hash
    }

    /// The vertices of the subtree rooted at `v`, as a contiguous pre-order
    /// slice (constant-time access, `size(v)` elements).
    pub fn subtree_vertices(&self, v: Vertex) -> &[Vertex] {
        let start = self.pre[v as usize] as usize;
        let len = self.size[v as usize] as usize;
        &self.pre_order[start..start + len]
    }

    /// Is `a` an ancestor of `d` (vertices are ancestors of themselves)?
    pub fn is_ancestor(&self, a: Vertex, d: Vertex) -> bool {
        self.contains(a) && self.contains(d) && self.covers(a, d)
    }

    /// [`TreeIndex::is_ancestor`] for two vertices known to be in the tree:
    /// `d`'s pre-order number lies in `a`'s subtree interval.
    fn covers(&self, a: Vertex, d: Vertex) -> bool {
        let pa = self.pre[a as usize];
        let pd = self.pre[d as usize];
        pa <= pd && pd < pa + self.size[a as usize]
    }

    /// Lowest common ancestor of `u` and `v`: unless `v` is an ancestor of
    /// `u`, climb from `u` to its lowest ancestor that is also an ancestor of
    /// `v`, taking each jump that lands strictly below it and a parent step
    /// otherwise.
    pub fn lca(&self, u: Vertex, v: Vertex) -> Vertex {
        debug_assert!(self.contains(u) && self.contains(v));
        if self.covers(v, u) {
            return v;
        }
        let mut cur = u;
        while !self.covers(cur, v) {
            let j = self.jump[cur as usize];
            cur = if self.covers(j, v) {
                self.parent[cur as usize]
            } else {
                j
            };
        }
        cur
    }

    /// Child of `anc` on the tree path towards its proper descendant `desc`:
    /// the last child numbered at or before `desc` in pre-order. Children
    /// lists are id-sorted and traversed in list order, so their pre-order
    /// numbers increase along the list and a binary search finds it in
    /// `O(log deg anc)`.
    pub fn child_toward(&self, anc: Vertex, desc: Vertex) -> Vertex {
        debug_assert!(self.is_ancestor(anc, desc) && anc != desc);
        let kids = self.children(anc);
        let pd = self.pre[desc as usize];
        kids[kids.partition_point(|&c| self.pre[c as usize] <= pd) - 1]
    }

    /// Is the edge `(u, v)` a back edge with respect to this tree (one endpoint
    /// an ancestor of the other)? Tree edges count as back edges here, matching
    /// the paper's usage in Section 5.3.
    pub fn is_back_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.is_ancestor(u, v) || self.is_ancestor(v, u)
    }

    /// The raw parent array (`parent[root] == root`, [`NO_VERTEX`] holes for
    /// ids outside the tree). Together with [`TreeIndex::root`] this fully
    /// determines the index: [`TreeIndex::from_parent_slice`] rebuilds every
    /// derived structure from it deterministically, which is what makes the
    /// parent array the *only* tree state a checkpoint needs to serialize.
    pub fn parent_slice(&self) -> &[Vertex] {
        &self.parent
    }

    /// Validate a parent array without building an index (root in range and
    /// self-parented, parents inside the id space, every non-hole vertex
    /// reaching the root): the check the snapshot decoder [`crate::TreeView`]
    /// runs once at open. After the slot checks (the index build's, in the
    /// same order) it climbs from every tree vertex in id order, marking each
    /// vertex with the start of the first climb that reached it, and stops at
    /// the first marked vertex. A climb that stops on its own mark has closed
    /// a cycle; one that stops on an earlier climb's path reaches the root
    /// exactly when that climb did. So every vertex is climbed over once.
    pub(crate) fn validate_parent_array(parent: &[Vertex], root: Vertex) -> Result<(), String> {
        check_root(parent, root)?;
        let capacity = parent.len();
        for (v, &p) in parent.iter().enumerate() {
            if v != root as usize && p != NO_VERTEX {
                check_parent(parent, v as Vertex, p)?;
            }
        }
        // `climbed_by[x]`: the start of the first climb through `x`;
        // `reaches_root[s]`: whether the climb started at `s` did.
        let mut climbed_by = vec![NO_VERTEX; capacity];
        let mut reaches_root = vec![false; capacity];
        climbed_by[root as usize] = root;
        reaches_root[root as usize] = true;
        let (mut n_tree, mut reached) = (0, 1);
        for v in 0..capacity as Vertex {
            if parent[v as usize] == NO_VERTEX {
                continue;
            }
            n_tree += 1;
            if climbed_by[v as usize] != NO_VERTEX {
                continue;
            }
            let (mut x, mut len) = (v, 0);
            while climbed_by[x as usize] == NO_VERTEX {
                climbed_by[x as usize] = v;
                x = parent[x as usize];
                len += 1;
            }
            // On a cycle `x` carries `v`'s own mark, still unflagged.
            if reaches_root[climbed_by[x as usize] as usize] {
                reaches_root[v as usize] = true;
                reached += len;
            }
        }
        if reached != n_tree {
            return Err(unreachable_err(n_tree, reached, root));
        }
        Ok(())
    }

    /// Deep structural comparison against `other`, checking **every** raw
    /// field — parent array, children lists, pre/post numbers, the pre-order
    /// sequence, levels, sizes, jump pointers, `top` labels and the tree
    /// size — naming the first divergent field on mismatch. This is the
    /// differential "loaded ≡ freshly built" and "patched ≡ freshly built"
    /// check; fingerprint equality alone would only cover pre-order and
    /// parents.
    pub fn structural_eq(&self, other: &TreeIndex) -> Result<(), String> {
        fn cmp<T: PartialEq + std::fmt::Debug>(field: &str, a: &T, b: &T) -> Result<(), String> {
            if a == b {
                Ok(())
            } else {
                Err(format!("field `{field}` diverges: {a:?} vs {b:?}"))
            }
        }
        cmp("root", &self.root, &other.root)?;
        cmp("n_tree", &self.n_tree, &other.n_tree)?;
        cmp("parent", &self.parent, &other.parent)?;
        cmp("children", &self.children, &other.children)?;
        cmp("pre", &self.pre, &other.pre)?;
        cmp("post", &self.post, &other.post)?;
        cmp("level", &self.level, &other.level)?;
        cmp("size", &self.size, &other.size)?;
        cmp("pre_order", &self.pre_order, &other.pre_order)?;
        cmp("jump", &self.jump, &other.jump)?;
        cmp("top", &self.top, &other.top)?;
        Ok(())
    }

    /// Starting at `v`, follow the unique chain of descendants whose subtree
    /// size exceeds `threshold`, returning the deepest such vertex.
    ///
    /// This is the paper's `v_H`: the *smallest* subtree of `τ` with more than
    /// `threshold` vertices (Section 4). Requires `size(v) > threshold`, and
    /// uniqueness of the chain requires `threshold >= size(v) / 2` (which is
    /// how the algorithm always calls it).
    pub fn heavy_descendant(&self, v: Vertex, threshold: u32) -> Vertex {
        debug_assert!(self.size(v) > threshold);
        let mut cur = v;
        loop {
            let next = self
                .children(cur)
                .iter()
                .copied()
                .find(|&c| self.size(c) > threshold);
            match next {
                Some(c) => cur = c,
                None => return cur,
            }
        }
    }
}

/// Write the sections of a tree, the parent array `parent` rooted at `root`,
/// into an open `pardfs-snap v2` container (a WAL checkpoint, a component
/// export or a published epoch), read back by [`crate::TreeView`]:
///
/// * `THDR` — root id and capacity (`u64` each),
/// * `TPAR` — the parent array, `u32` per slot with `u32::MAX` marking
///   [`NO_VERTEX`] holes.
///
/// Only the parent array and root are stored; [`crate::TreeView::to_index`]
/// rebuilds the children lists, orders, levels, sizes, jump pointers and
/// `top` labels deterministically, so the result is structurally identical
/// to the original ([`TreeIndex::structural_eq`]) and writes the same bytes
/// again.
pub fn write_tree_sections(w: &mut SnapWriter, root: Vertex, parent: &[Vertex]) {
    let hdr = w.section_aligned(SEC_TREE_HEADER, 8);
    put_u64(hdr, root as u64);
    put_u64(hdr, parent.len() as u64);
    let par = w.section_aligned(SEC_TREE_PARENTS, 8);
    for &p in parent {
        put_u32(par, p);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Build a random tree parent array on `n` vertices rooted at 0.
    pub(crate) fn random_parent_array(n: usize, rng: &mut impl Rng) -> Vec<Vertex> {
        let mut parent = vec![NO_VERTEX; n];
        parent[0] = 0;
        for v in 1..n as Vertex {
            parent[v as usize] = rng.gen_range(0..v);
        }
        parent
    }

    #[test]
    fn fingerprint_separates_structure_and_tracks_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let parent = random_parent_array(40, &mut rng);
        let idx = TreeIndex::from_parent_slice(&parent, 0);
        // Identical structure ⇒ identical fingerprint (including via clone).
        assert_eq!(
            idx.fingerprint(),
            TreeIndex::from_parent_slice(&parent, 0).fingerprint()
        );
        assert_eq!(idx.fingerprint(), idx.clone().fingerprint());
        // Rewriting one leaf's parent changes the fingerprint.
        let leaf = *idx.pre_order_vertices().last().unwrap();
        let mut altered = parent.clone();
        let old = altered[leaf as usize];
        altered[leaf as usize] = if old == 0 { 1 } else { 0 };
        assert_ne!(
            idx.fingerprint(),
            TreeIndex::from_parent_slice(&altered, 0).fingerprint()
        );
    }

    /// LCA by walking up the parent array (`parent[root] == root`): a
    /// reference that shares no code with the index's jump pointers.
    pub(crate) fn naive_lca(parent: &[Vertex], mut u: Vertex, mut v: Vertex) -> Vertex {
        let depth = |mut x: Vertex| {
            let mut d = 0;
            while parent[x as usize] != x {
                x = parent[x as usize];
                d += 1;
            }
            d
        };
        let (mut du, mut dv) = (depth(u), depth(v));
        while du > dv {
            u = parent[u as usize];
            du -= 1;
        }
        while dv > du {
            v = parent[v as usize];
            dv -= 1;
        }
        while u != v {
            u = parent[u as usize];
            v = parent[v as usize];
        }
        u
    }

    #[test]
    fn hand_built_tree_properties() {
        //        0
        //       / \
        //      1   2
        //     / \   \
        //    3   4   5
        //        |
        //        6
        let mut t = RootedTree::new(7, 0);
        for (c, p) in [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 4)] {
            t.attach(c, p);
        }
        let idx = TreeIndex::build(&t);
        assert_eq!(idx.num_vertices(), 7);
        assert_eq!(idx.size(0), 7);
        assert_eq!(idx.size(1), 4);
        assert_eq!(idx.size(4), 2);
        assert_eq!(idx.level(6), 3);
        assert_eq!(idx.lca(3, 6), 1);
        assert_eq!(idx.lca(6, 5), 0);
        assert_eq!(idx.lca(4, 4), 4);
        assert!(idx.is_ancestor(1, 6));
        assert!(!idx.is_ancestor(2, 6));
        assert!(idx.is_ancestor(6, 6));
        assert_eq!(idx.child_toward(0, 6), 1);
        assert_eq!(idx.child_toward(1, 6), 4);
        assert!(idx.is_back_edge(6, 0));
        assert!(!idx.is_back_edge(3, 6));
        let sub: Vec<_> = idx.subtree_vertices(1).to_vec();
        assert_eq!(sub.len(), 4);
        assert!(sub.contains(&1) && sub.contains(&3) && sub.contains(&4) && sub.contains(&6));
    }

    #[test]
    fn post_order_decreases_along_root_paths() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let parent = random_parent_array(200, &mut rng);
        let idx = TreeIndex::from_parent_slice(&parent, 0);
        for v in 1..200u32 {
            let p = parent[v as usize];
            assert!(
                idx.post(p) > idx.post(v),
                "parent must have larger post-order number"
            );
            assert!(idx.pre(p) < idx.pre(v));
            assert_eq!(idx.level(v), idx.level(p) + 1);
        }
    }

    #[test]
    fn lca_matches_naive_on_random_trees() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for trial in 0..10 {
            let n: usize = rng.gen_range(2..300);
            let mut parent = random_parent_array(n, &mut rng);
            if trial % 2 == 1 {
                // Deep, narrow trees: each vertex hangs from one of the three
                // before it, so most LCAs lie many levels up.
                for v in 1..n as Vertex {
                    parent[v as usize] = rng.gen_range(v.saturating_sub(3)..v);
                }
            }
            let idx = TreeIndex::from_parent_slice(&parent, 0);
            for _ in 0..200 {
                let u = rng.gen_range(0..n as Vertex);
                let v = rng.gen_range(0..n as Vertex);
                assert_eq!(idx.lca(u, v), naive_lca(&parent, u, v), "lca({u},{v})");
            }
        }
    }

    #[test]
    fn sizes_sum_and_subtree_slices_consistent() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let parent = random_parent_array(150, &mut rng);
        let idx = TreeIndex::from_parent_slice(&parent, 0);
        for v in 0..150u32 {
            let slice = idx.subtree_vertices(v);
            assert_eq!(slice.len() as u32, idx.size(v));
            for &w in slice {
                assert!(idx.is_ancestor(v, w));
            }
        }
    }

    #[test]
    fn heavy_descendant_on_a_path() {
        // A path 0-1-2-...-9: every subtree size is 10-v, so with threshold 5
        // the heavy chain ends at vertex 4 (size 6).
        let mut t = RootedTree::new(10, 0);
        for v in 1..10u32 {
            t.attach(v, v - 1);
        }
        let idx = TreeIndex::build(&t);
        assert_eq!(idx.heavy_descendant(0, 5), 4);
        assert_eq!(idx.heavy_descendant(0, 9), 0);
    }

    /// `v`'s depth-1 ancestor by walking up the parent array
    /// (`parent[root] == root`): a reference that shares no code with the
    /// index's `top` labels. `None` for the root.
    pub(crate) fn naive_top(parent: &[Vertex], mut v: Vertex) -> Option<Vertex> {
        let root = |x: Vertex| parent[x as usize] == x;
        if root(v) {
            return None;
        }
        while !root(parent[v as usize]) {
            v = parent[v as usize];
        }
        Some(v)
    }

    #[test]
    fn top_labels_match_parent_walks() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut parent = random_parent_array(120, &mut rng);
        for hole in [17, 64, 119] {
            // Re-hang the hole's children on the root, then punch it out.
            for p in parent.iter_mut() {
                if *p == hole {
                    *p = 0;
                }
            }
            parent[hole as usize] = NO_VERTEX;
        }
        let idx = TreeIndex::from_parent_slice(&parent, 0);
        for v in 0..120u32 {
            let want = if parent[v as usize] == NO_VERTEX {
                NO_VERTEX
            } else {
                naive_top(&parent, v).unwrap_or(NO_VERTEX)
            };
            assert_eq!(idx.top_slice()[v as usize], want, "top({v})");
        }
    }

    /// Jump-or-parent steps of `lca(u, v)`, counted by walking the index's
    /// jump pointers with the query's own rule.
    fn lca_steps(idx: &TreeIndex, u: Vertex, v: Vertex) -> u32 {
        let (mut cur, mut steps) = (if idx.covers(v, u) { v } else { u }, 0);
        while !idx.covers(cur, v) {
            let j = idx.jump[cur as usize];
            cur = if idx.covers(j, v) {
                idx.parent[cur as usize]
            } else {
                j
            };
            steps += 1;
        }
        assert_eq!(cur, idx.lca(u, v));
        steps
    }

    #[test]
    fn deep_trees_match_parent_walks_within_the_log_hop_bound() {
        // A 2^17-vertex path (depth 131,071), two interleaved 2^16-vertex
        // legs under the root (so LCAs across legs climb a whole leg), and a
        // deep random tree whose vertices each hang from one of the three
        // before them.
        let n = 1usize << 17;
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let path: Vec<Vertex> = (0..n as Vertex).map(|v| v.saturating_sub(1)).collect();
        let legs: Vec<Vertex> = (0..n as Vertex).map(|v| v.saturating_sub(2)).collect();
        let narrow: Vec<Vertex> = (0..n as Vertex)
            .map(|v| rng.gen_range(v.saturating_sub(3)..=v.saturating_sub(1)))
            .collect();
        for parent in [path, legs, narrow] {
            let idx = TreeIndex::from_parent_slice(&parent, 0);
            let up = |mut v: Vertex, steps: u32| {
                for _ in 0..steps {
                    v = parent[v as usize];
                }
                v
            };
            for _ in 0..48 {
                let v = rng.gen_range(1..n as Vertex);
                let depth = idx.level(v);
                let l = rng.gen_range(0..depth);
                // The parent-walk references: the ancestor at level `l`, its
                // child toward `v`, and the depth-1 ancestor.
                let below = up(v, depth - l - 1);
                let anc = parent[below as usize];
                assert_eq!(idx.child_toward(anc, v), below, "child_toward({anc},{v})");
                assert_eq!(idx.top_slice()[v as usize], up(v, depth - 1), "top({v})");
                let u = rng.gen_range(0..n as Vertex);
                assert_eq!(idx.lca(u, v), naive_lca(&parent, u, v), "lca({u},{v})");
                // 3·⌈log₂(depth + 1)⌉ + 1: the bit length of `u`'s depth,
                // tripled, plus the final parent step onto the LCA.
                for (a, b) in [(u, v), (v, u)] {
                    let bound = 3 * (32 - idx.level(a).leading_zeros()) + 1;
                    let steps = lca_steps(&idx, a, b);
                    assert!(
                        steps <= bound,
                        "lca({a},{b}) from depth {} took {steps} steps",
                        idx.level(a)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn unreachable_vertices_rejected() {
        // Vertices 2 and 3 form a cycle detached from the root.
        let parent = vec![0, 0, 3, 2];
        let _ = TreeIndex::from_parent_slice(&parent, 0);
    }

    // ---- Edge cases the delta-patch path must also pass (see
    // `crate::patch::tests`, which replays these shapes through
    // `apply_patch`). ------------------------------------------------------

    #[test]
    fn singleton_tree() {
        let idx = TreeIndex::from_parent_slice(&[0], 0);
        assert_eq!(idx.num_vertices(), 1);
        assert_eq!(idx.pre(0), 0);
        assert_eq!(idx.post(0), 0);
        assert_eq!(idx.level(0), 0);
        assert_eq!(idx.size(0), 1);
        assert_eq!(idx.lca(0, 0), 0);
        assert_eq!(idx.top_slice(), &[NO_VERTEX]);
        assert_eq!(idx.parent(0), None);
        assert!(idx.is_ancestor(0, 0));
        assert_eq!(idx.subtree_vertices(0), &[0]);
    }

    #[test]
    fn star_tree_queries() {
        let n = 64u32;
        let mut parent = vec![0u32; n as usize];
        parent[0] = 0;
        let idx = TreeIndex::from_parent_slice(&parent, 0);
        assert_eq!(idx.size(0), n);
        for v in 1..n {
            assert_eq!(idx.level(v), 1);
            assert_eq!(idx.size(v), 1);
            assert_eq!(
                idx.lca(v, (v % (n - 1)) + 1),
                if v == (v % (n - 1)) + 1 { v } else { 0 }
            );
            assert_eq!(idx.top_slice()[v as usize], v);
        }
        // Children come back sorted by id — the invariant the patch splice
        // preserves so its numbering matches a fresh build's.
        let kids = idx.children(0);
        assert!(kids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn long_path_queries() {
        let n = 300u32;
        let mut parent: Vec<Vertex> = (0..n).map(|v| v.saturating_sub(1)).collect();
        parent[0] = 0;
        let idx = TreeIndex::from_parent_slice(&parent, 0);
        assert_eq!(idx.level(n - 1), n - 1);
        assert_eq!(idx.lca(n - 1, 0), 0);
        assert_eq!(idx.lca(100, 250), 100);
        assert_eq!(idx.top_slice()[n as usize - 1], 1);
        assert_eq!(idx.pre(200), 200);
        assert_eq!(idx.post(200), n - 1 - 200);
    }

    #[test]
    fn forest_with_no_vertex_holes() {
        // Capacity 10, but only {0, 2, 3, 7} in the tree — the other slots
        // are NO_VERTEX holes (deleted / never-inserted ids).
        let mut parent = vec![NO_VERTEX; 10];
        parent[0] = 0;
        parent[2] = 0;
        parent[3] = 2;
        parent[7] = 2;
        let idx = TreeIndex::from_parent_slice(&parent, 0);
        assert_eq!(idx.num_vertices(), 4);
        assert_eq!(idx.capacity(), 10);
        for hole in [1u32, 4, 5, 6, 8, 9] {
            assert!(!idx.contains(hole), "hole {hole}");
            assert!(!idx.is_ancestor(hole, 0));
            assert!(!idx.is_ancestor(0, hole));
        }
        assert_eq!(idx.lca(3, 7), 2);
        assert_eq!(idx.size(2), 3);
        assert_eq!(idx.subtree_vertices(2), &[2, 3, 7]);
        let mut top = [NO_VERTEX; 10];
        for v in [2, 3, 7] {
            top[v] = 2;
        }
        assert_eq!(idx.top_slice(), &top[..]);
    }

    #[test]
    fn out_of_range_ids_are_not_contained() {
        let idx = TreeIndex::from_parent_slice(&[0, 0], 0);
        assert!(!idx.contains(5_000));
        assert!(!idx.is_ancestor(5_000, 0));
        assert!(!idx.is_back_edge(5_000, 0));
    }

    #[test]
    fn structural_eq_names_the_divergent_field() {
        let a = TreeIndex::from_parent_slice(&[0, 0, 1], 0);
        let b = TreeIndex::from_parent_slice(&[0, 0, 0], 0);
        let err = a.structural_eq(&b).unwrap_err();
        assert!(err.contains("parent"), "got: {err}");
        a.structural_eq(&a.clone()).expect("reflexive");
    }
}
