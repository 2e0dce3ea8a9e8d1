//! [`TreeView`] — a borrowed, zero-copy read surface over the tree sections
//! of a `pardfs-snap` container.
//!
//! Where [`TreeIndex::read_snap_sections`](crate::TreeIndex) copies the
//! parent array out of the file and then rebuilds *every* derived structure
//! (children arena, orderings, levels, sizes, jump pointers — the part that
//! dominates checkpoint open time), a `TreeView`
//! **validates once and borrows thereafter**: the construction pass runs the
//! exact same parent-array validation as the materializing parser (shared
//! code), and every subsequent query reads the `TPAR` bytes in place — zero
//! `TPAR` bytes are ever copied on the read path.
//!
//! The trade: a view answers the *forest* query vocabulary (parent, roots,
//! component membership by climbing to the depth-1 ancestor) in `O(depth)`
//! per climb instead of the index's `O(log n)` jump-pointer climb. That is
//! the right trade for the open-latency path — a reader process serving a few
//! point queries off a freshly published epoch — while long-lived servers
//! materialize a [`TreeIndex`] via [`TreeView::to_index`]
//! when query volume warrants the rebuild. See `docs/FORMATS.md` for the
//! byte layout and `docs/ARCHITECTURE.md` for where views sit in the
//! serving data flow.

use crate::index::{TreeIndex, SEC_TREE_HEADER, SEC_TREE_PARENTS};
use crate::rooted::NO_VERTEX;
use pardfs_graph::mapped::cast_u32s;
use pardfs_graph::snap::{Cursor, SnapReader};
use pardfs_graph::Vertex;

/// A validated, borrowed view of a tree snapshot: the `THDR`/`TPAR`
/// sections served in place.
///
/// # Examples
///
/// ```
/// use pardfs_graph::snap::SnapReader;
/// use pardfs_tree::{RootedTree, TreeIndex, TreeView};
///
/// let mut t = RootedTree::new(4, 0);
/// t.set_parent(1, 0);
/// t.set_parent(2, 0);
/// t.set_parent(3, 1);
/// let index = TreeIndex::build(&t);
///
/// let bytes = index.render_snapshot_binary();
/// let r = SnapReader::parse(&bytes).unwrap();
/// let view = TreeView::parse(&r).unwrap();
/// assert_eq!(view.root(), 0);
/// assert_eq!(view.parent(3), Some(1)); // read straight from `bytes`
/// assert_eq!(view.to_index().fingerprint(), index.fingerprint());
/// ```
#[derive(Debug)]
pub struct TreeView<'a> {
    root: Vertex,
    parent: &'a [u32],
}

impl<'a> TreeView<'a> {
    /// Validate the tree sections of a parsed container and borrow them.
    ///
    /// Runs the same parent-array validation as the materializing parser
    /// (root self-parented and in range, parents in capacity, no
    /// parent-to-hole, full reachability from the root), exactly once.
    /// Requires the `TPAR` payload to sit at a 4-byte-aligned address
    /// (containers in an aligned buffer always do); misaligned buffers are
    /// rejected with an error naming the alignment problem.
    pub fn parse(r: &SnapReader<'a>) -> Result<TreeView<'a>, String> {
        let mut hdr = Cursor::new(SEC_TREE_HEADER, r.section(SEC_TREE_HEADER)?);
        let root_raw = hdr.u64()?;
        let capacity = usize::try_from(hdr.u64()?).map_err(|_| "tree capacity overflows")?;
        hdr.finish()?;
        let root = Vertex::try_from(root_raw)
            .map_err(|_| format!("tree root {root_raw} overflows the vertex id space"))?;
        let par_bytes = r.section(SEC_TREE_PARENTS)?;
        if par_bytes.len() != 4 * capacity {
            return Err(format!(
                "parent section is {} bytes for capacity {capacity}",
                par_bytes.len()
            ));
        }
        let parent = cast_u32s(par_bytes).map_err(|e| format!("TPAR section: {e}"))?;
        TreeIndex::validate_parent_array(parent, root)?;
        Ok(TreeView { root, parent })
    }

    /// Re-bind a view over a parent array that **has already been
    /// validated** by [`TreeView::parse`] (or the shared parent-array
    /// validation by way of a snapshot parser) —
    /// the cheap per-query rebind a mapped epoch file uses so it can hand
    /// out short-lived views without re-walking the tree. Debug builds
    /// re-run the validation; release builds trust the caller.
    pub fn from_validated_parts(parent: &'a [u32], root: Vertex) -> TreeView<'a> {
        debug_assert!(TreeIndex::validate_parent_array(parent, root).is_ok());
        TreeView { root, parent }
    }

    /// The root vertex.
    pub fn root(&self) -> Vertex {
        self.root
    }

    /// Size of the underlying id space.
    pub fn capacity(&self) -> usize {
        self.parent.len()
    }

    /// Is `v` part of the tree? (Holes store [`NO_VERTEX`].)
    pub fn contains(&self, v: Vertex) -> bool {
        (v as usize) < self.parent.len() && self.parent[v as usize] != NO_VERTEX
    }

    /// Parent of `v` (`None` for the root or for vertices not in the tree).
    pub fn parent(&self, v: Vertex) -> Option<Vertex> {
        if !self.contains(v) || v == self.root {
            return None;
        }
        Some(self.parent[v as usize])
    }

    /// The whole parent array, borrowed from the snapshot bytes
    /// ([`NO_VERTEX`] for holes; the root is its own parent).
    pub fn parent_slice(&self) -> &'a [u32] {
        self.parent
    }

    /// The depth-1 ancestor of `v`: the child of the root on the path from
    /// the root to `v` (`v` itself if `v` is such a child, `None` for the
    /// root or vertices outside the tree). Climbs the parent chain —
    /// `O(depth)`, the documented view-vs-index trade.
    pub fn depth_one_ancestor(&self, v: Vertex) -> Option<Vertex> {
        if !self.contains(v) || v == self.root {
            return None;
        }
        let mut cur = v;
        while self.parent[cur as usize] != self.root {
            cur = self.parent[cur as usize];
        }
        Some(cur)
    }

    /// The children of the root, in vertex-id order (a full `TPAR` scan —
    /// callers that need this repeatedly compute it once at open time).
    pub fn root_children(&self) -> Vec<Vertex> {
        (0..self.parent.len() as Vertex)
            .filter(|&v| v != self.root && self.parent[v as usize] == self.root)
            .collect()
    }

    /// Number of vertices in the tree.
    pub fn num_vertices(&self) -> usize {
        self.parent.iter().filter(|&&p| p != NO_VERTEX).count()
    }

    /// Materialize a full [`TreeIndex`] from the view — the one deliberate
    /// copy-and-rebuild point, paid only when a caller needs the `O(log n)`
    /// query surface (LCA, level ancestors) or a maintainer resume.
    /// Validation already happened at [`TreeView::parse`] time and is
    /// **not** repeated.
    pub fn to_index(&self) -> TreeIndex {
        TreeIndex::from_parent_slice(self.parent, self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rooted::RootedTree;

    fn sample() -> TreeIndex {
        // root 0 with a two-component forest shape under a pseudo root:
        //   0 -> {1, 4}; 1 -> {2, 3}; 4 -> {5}; slot 6 is a hole.
        let mut t = RootedTree::new(7, 0);
        t.set_parent(1, 0);
        t.set_parent(2, 1);
        t.set_parent(3, 1);
        t.set_parent(4, 0);
        t.set_parent(5, 4);
        TreeIndex::build(&t)
    }

    #[test]
    fn view_agrees_with_the_materializing_parser() {
        let index = sample();
        let bytes = index.render_snapshot_binary();
        let r = SnapReader::parse(&bytes).unwrap();
        let view = TreeView::parse(&r).unwrap();
        assert_eq!(view.root(), index.root());
        assert_eq!(view.capacity(), index.capacity());
        assert_eq!(view.num_vertices(), index.num_vertices());
        for v in 0..index.capacity() as Vertex {
            assert_eq!(view.contains(v), index.contains(v), "contains({v})");
            if index.contains(v) {
                assert_eq!(view.parent(v), index.parent(v), "parent({v})");
                if v != index.root() {
                    assert_eq!(
                        view.depth_one_ancestor(v),
                        Some(index.ancestor_at_level(v, 1)),
                        "depth-1 ancestor of {v}"
                    );
                }
            }
        }
        assert_eq!(view.root_children(), index.children(0).to_vec());
        index.structural_eq(&view.to_index()).unwrap();
        // The same bytes parse identically through the copying path.
        let copied = TreeIndex::parse_snapshot_binary(&bytes).unwrap();
        index.structural_eq(&copied).unwrap();
    }

    #[test]
    fn view_rejects_what_the_parser_rejects() {
        let index = sample();
        let good = index.render_snapshot_binary();
        let r = SnapReader::parse(&good).unwrap();
        let (par_off, par_len) = r.section_range(SEC_TREE_PARENTS).unwrap();
        // Point each slot's parent at itself in turn (cycle / not-root
        // self-parent), re-stamp the checksum, and demand both paths reject.
        for slot in 1..par_len / 4 {
            let mut bad = good[..good.len() - 8].to_vec();
            let at = par_off + 4 * slot;
            bad[at..at + 4].copy_from_slice(&(slot as u32).to_le_bytes());
            let sum = pardfs_graph::snap::fnv1a64_words(&bad);
            pardfs_graph::snap::put_u64(&mut bad, sum);
            let r = SnapReader::parse(&bad).unwrap();
            let view = TreeView::parse(&r);
            let parsed = TreeIndex::read_snap_sections(&r);
            assert_eq!(
                view.is_err(),
                parsed.is_err(),
                "slot {slot}: view and parser must agree"
            );
            if index.contains(slot as Vertex) {
                assert!(view.is_err(), "self-parented non-root slot {slot}");
            }
        }
    }
}
