//! [`TreeView`] — a borrowed, zero-copy read surface over the tree sections
//! of a `pardfs-snap` container.
//!
//! Where [`TreeIndex::read_snap_sections`](crate::TreeIndex) copies the
//! parent array out of the file and then rebuilds *every* derived structure
//! (children arena, orderings, levels, sizes, jump pointers and `top`
//! labels — the part that dominates checkpoint open time), a `TreeView`
//! **validates once and borrows thereafter**: the construction pass runs the
//! slot checks and child table of the materializing build (shared code) plus
//! a reachability walk, and every subsequent read takes the `TPAR` bytes in
//! place — zero `TPAR` bytes are ever copied on the read path.
//!
//! A view answers parent reads only. The forest reads that need to know
//! which tree a vertex is in (`same_component`) read its depth-1 ancestor
//! label instead: a published serving epoch ships those labels as one more
//! section, checked against `TPAR` once at open (`pardfs-serve`'s
//! `MappedEpoch`), so every read stays `O(1)`. A checkpoint ships parents
//! only; a reader that needs more than parents materializes a
//! [`TreeIndex`] via [`TreeView::to_index`]. See `docs/FORMATS.md` for the
//! byte layout and `docs/ARCHITECTURE.md` for where views sit in the serving
//! data flow.

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

    /// The root vertex.
    pub fn root(&self) -> Vertex {
        self.root
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

    /// Materialize a full [`TreeIndex`] from the view — the one deliberate
    /// copy-and-rebuild point, paid only when a caller needs the index's
    /// query surface (LCA, orderings, `top` labels) or a maintainer resume.
    /// Validation already happened at [`TreeView::parse`] time, so the
    /// build's own checks cannot fail.
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
        for v in 0..index.capacity() as Vertex {
            assert_eq!(view.contains(v), index.contains(v), "contains({v})");
            if index.contains(v) {
                assert_eq!(view.parent(v), index.parent(v), "parent({v})");
            }
        }
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
