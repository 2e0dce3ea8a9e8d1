//! [`TreeView`] — the decoder of the tree sections of a `pardfs-snap`
//! container: a borrowed, zero-copy read surface.
//!
//! A `TreeView` **validates once and borrows thereafter**: the construction
//! pass runs the index build's slot checks plus one climb per vertex to the
//! root, and every subsequent read takes the `TPAR` bytes in place — zero
//! `TPAR` bytes are ever copied on the read path. [`TreeView::to_index`] is
//! the one copy point: it rebuilds every derived structure (children arena,
//! orderings, levels, sizes, jump pointers and `top` labels) from the
//! parent array.
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
use pardfs_graph::snap::{charge_copied_array_bytes, Cursor, SnapReader};
use pardfs_graph::Vertex;

/// A validated, borrowed view of a tree snapshot: the `THDR`/`TPAR`
/// sections served in place.
///
/// # Examples
///
/// ```
/// use pardfs_graph::{SnapReader, SnapWriter};
/// use pardfs_tree::{write_tree_sections, RootedTree, TreeIndex, TreeView};
///
/// let mut t = RootedTree::new(4, 0);
/// t.set_parent(1, 0);
/// t.set_parent(2, 0);
/// t.set_parent(3, 1);
/// let index = TreeIndex::build(&t);
///
/// let mut w = SnapWriter::new();
/// write_tree_sections(&mut w, index.root(), index.parent_slice());
/// let bytes = w.finish();
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
    /// Runs the parent-array validation (root self-parented and in range,
    /// parents in capacity, no parent-to-hole, full reachability from the
    /// root), exactly once. The header's capacity is untrusted: `TPAR` must
    /// hold exactly that many slots, or the error names both. Requires the
    /// `TPAR` payload to sit at a 4-byte-aligned address (containers in an
    /// aligned buffer always do); misaligned buffers are rejected with an
    /// error naming the alignment problem.
    pub fn parse(r: &SnapReader<'a>) -> Result<TreeView<'a>, String> {
        let mut hdr = Cursor::new(SEC_TREE_HEADER, r.section(SEC_TREE_HEADER)?);
        let root_raw = hdr.u64()?;
        let capacity = usize::try_from(hdr.u64()?).map_err(|_| "tree capacity overflows")?;
        hdr.finish()?;
        let root = Vertex::try_from(root_raw)
            .map_err(|_| format!("tree root {root_raw} overflows the vertex id space"))?;
        let par_bytes = r.section(SEC_TREE_PARENTS)?;
        if capacity.checked_mul(4) != Some(par_bytes.len()) {
            return Err(format!(
                "TPAR parent section is {} bytes for capacity {capacity}",
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
    /// query surface (LCA, orderings, `top` labels) or a maintainer resume,
    /// and charged to [`pardfs_graph::snap::copied_array_bytes`].
    /// Validation already happened at [`TreeView::parse`] time, so the
    /// build's own checks cannot fail.
    pub fn to_index(&self) -> TreeIndex {
        charge_copied_array_bytes(4 * self.parent.len());
        TreeIndex::from_parent_slice(self.parent, self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::random_parent_array;
    use crate::rooted::RootedTree;
    use crate::write_tree_sections;
    use pardfs_graph::snap::{fnv1a64_words, put_u32, put_u64, SnapWriter};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

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

    /// `index`'s sections alone in one container.
    fn render(index: &TreeIndex) -> Vec<u8> {
        let mut w = SnapWriter::new();
        write_tree_sections(&mut w, index.root(), index.parent_slice());
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<TreeIndex, String> {
        TreeView::parse(&SnapReader::parse(bytes)?).map(|view| view.to_index())
    }

    /// A container with hand-written tree sections, laid out as
    /// [`write_tree_sections`] lays them out.
    fn hand_written(root: u64, capacity: u64, parents: &[u32]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        let hdr = w.section_aligned(SEC_TREE_HEADER, 8);
        put_u64(hdr, root);
        put_u64(hdr, capacity);
        let par = w.section_aligned(SEC_TREE_PARENTS, 8);
        parents.iter().for_each(|&p| put_u32(par, p));
        w.finish()
    }

    #[test]
    fn view_serves_the_written_tree_in_place() {
        let index = sample();
        let bytes = render(&index);
        let r = SnapReader::parse(&bytes).unwrap();
        let view = TreeView::parse(&r).unwrap();
        assert_eq!(view.root(), index.root());
        assert_eq!(view.parent_slice(), index.parent_slice());
        for v in 0..index.capacity() as Vertex {
            assert_eq!(view.contains(v), index.contains(v), "contains({v})");
            if index.contains(v) {
                assert_eq!(view.parent(v), index.parent(v), "parent({v})");
            }
        }
        index.structural_eq(&view.to_index()).unwrap();
    }

    #[test]
    fn decoded_tree_round_trip_is_structurally_identical() {
        let mut rng = ChaCha8Rng::seed_from_u64(4321);
        let idx = TreeIndex::from_parent_slice(&random_parent_array(60, &mut rng), 0);
        let bytes = render(&idx);
        let loaded = decode(&bytes).expect("own sections decode");
        loaded.structural_eq(&idx).expect("loaded ≡ original");
        assert_eq!(loaded.fingerprint(), idx.fingerprint());
        assert_eq!(render(&loaded), bytes, "decode then write is byte-stable");
    }

    #[test]
    fn tree_with_holes_round_trips() {
        let mut parent = vec![NO_VERTEX; 10];
        parent[0] = 0;
        parent[2] = 0;
        parent[3] = 2;
        parent[7] = 2;
        let idx = TreeIndex::from_parent_slice(&parent, 0);
        let loaded = decode(&render(&idx)).unwrap();
        loaded.structural_eq(&idx).expect("holes preserved");
        assert_eq!(loaded.parent_slice(), idx.parent_slice());
        assert!(!loaded.contains(4));
    }

    #[test]
    fn view_rejects_corruption_without_panicking() {
        let idx = TreeIndex::from_parent_slice(&[0, 0, 1, NO_VERTEX], 0);
        let good = render(&idx);
        assert_eq!(good, hand_written(0, 4, &[0, 0, 1, NO_VERTEX]));
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x20;
            let err = decode(&bad).unwrap_err();
            assert!(
                err.contains("checksum") || err.contains("magic"),
                "flip at {i}: {err}"
            );
        }
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Parent-array damage behind a *valid* frame.
        let cases: [(Vec<u8>, &str); 6] = [
            // A cycle detached from the root.
            (hand_written(0, 4, &[0, 0, 3, 2]), "reachable"),
            (hand_written(0, 2, &[1, 0]), "root"),
            (hand_written(0, 3, &[0, 2, NO_VERTEX]), "hole"),
            (
                hand_written(0, 5, &[0, 0]),
                "parent section is 8 bytes for capacity 5",
            ),
            (hand_written(7, 2, &[0, 0]), "outside capacity"),
            (
                hand_written(1 << 32, 1, &[0]),
                "overflows the vertex id space",
            ),
        ];
        for (bytes, want) in cases {
            let err = decode(&bytes).unwrap_err();
            assert!(err.contains(want), "expected `{want}`, got: {err}");
        }
    }

    #[test]
    fn a_capacity_whose_byte_length_overflows_is_refused() {
        // `4 * capacity` wraps to 4 in a release build, which would accept
        // this container as a 1-slot tree that disagrees with its own header.
        let capacity = (1u64 << 62) + 1;
        let err = decode(&hand_written(0, capacity, &[0])).unwrap_err();
        assert!(
            err.contains("TPAR") && err.contains(&capacity.to_string()),
            "{err}"
        );
    }

    #[test]
    fn view_rejects_every_self_parented_slot() {
        let index = sample();
        let good = render(&index);
        let r = SnapReader::parse(&good).unwrap();
        let (par_off, par_len) = r.section_range(SEC_TREE_PARENTS).unwrap();
        // Point each non-root slot's parent at itself in turn (the hole at 6
        // included), re-stamp the checksum, and demand the view rejects it.
        for slot in 1..par_len / 4 {
            let mut bad = good[..good.len() - 8].to_vec();
            let at = par_off + 4 * slot;
            bad[at..at + 4].copy_from_slice(&(slot as u32).to_le_bytes());
            let sum = fnv1a64_words(&bad);
            put_u64(&mut bad, sum);
            let r = SnapReader::parse(&bad).unwrap();
            let err = TreeView::parse(&r).unwrap_err();
            assert!(err.contains("its own parent"), "slot {slot}: {err}");
        }
    }

    /// Random forest-of-one-tree parent arrays *with NO_VERTEX holes*: the
    /// shape vertex churn leaves behind (deleted ids keep their slots).
    /// Every present non-root vertex is attached to an earlier present
    /// vertex, so the array is always valid.
    fn holey_parent_array(n: usize, seed: u64, hole_bits: u64) -> Vec<Vertex> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut parent = vec![NO_VERTEX; n];
        parent[0] = 0;
        let mut present = vec![0u32];
        for v in 1..n as Vertex {
            if (hole_bits >> (v % 64)) & 1 == 1 {
                continue; // a churned-away id
            }
            let p = present[rng.gen_range(0..present.len())];
            parent[v as usize] = p;
            present.push(v);
        }
        parent
    }

    /// Is `parent` a tree rooted at `root`, by brute force: every slot
    /// checked on its own and every tree vertex's parent chain walked until
    /// it meets the root or runs longer than the array.
    fn is_tree_by_brute_force(parent: &[Vertex], root: Vertex) -> bool {
        let cap = parent.len();
        let in_tree = |v: Vertex| (v as usize) < cap && parent[v as usize] != NO_VERTEX;
        if !in_tree(root) || parent[root as usize] != root {
            return false;
        }
        (0..cap as Vertex).filter(|&v| in_tree(v)).all(|v| {
            let mut x = v;
            for _ in 0..=cap {
                if x == root {
                    return true;
                }
                let p = parent[x as usize];
                if p == x || !in_tree(p) {
                    return false;
                }
                x = p;
            }
            false
        })
    }

    /// One random corruption of a valid parent array rooted at 0: a
    /// self-parented slot, a parent that is a hole, an out-of-range parent,
    /// a detached cycle, a vertex re-hung under its own descendant, or a
    /// tree vertex turned into a hole.
    fn mutate(parent: &mut [Vertex], rng: &mut ChaCha8Rng) -> &'static str {
        let cap = parent.len();
        let slots: Vec<Vertex> = (1..cap as Vertex).collect();
        let tree: Vec<Vertex> = slots
            .iter()
            .copied()
            .filter(|&v| parent[v as usize] != NO_VERTEX)
            .collect();
        let holes: Vec<Vertex> = slots
            .iter()
            .copied()
            .filter(|&v| parent[v as usize] == NO_VERTEX)
            .collect();
        let Some(&v) = tree.choose(rng) else {
            parent[0] = NO_VERTEX;
            return "hole at the root";
        };
        match rng.gen_range(0..6) {
            0 => {
                let &s = slots.choose(rng).expect("a tree vertex is a slot");
                parent[s as usize] = s;
                "self parent"
            }
            1 => match holes.choose(rng) {
                Some(&h) => {
                    parent[v as usize] = h;
                    "parent is a hole"
                }
                None => {
                    parent[v as usize] = NO_VERTEX - 1;
                    "parent past the id space"
                }
            },
            2 => {
                parent[v as usize] = cap as Vertex + rng.gen_range(0..3u32);
                "parent outside capacity"
            }
            3 => {
                let mut ring = slots.clone();
                ring.shuffle(rng);
                ring.truncate(rng.gen_range(2..=slots.len().max(2)));
                for (i, &x) in ring.iter().enumerate() {
                    parent[x as usize] = ring[(i + 1) % ring.len()];
                }
                "detached cycle"
            }
            4 => {
                let below: Vec<Vertex> = tree
                    .iter()
                    .copied()
                    .filter(|&d| {
                        let mut x = d;
                        while x != 0 && x != v {
                            x = parent[x as usize];
                        }
                        x == v
                    })
                    .collect();
                let &d = below.choose(rng).expect("v is its own descendant");
                parent[v as usize] = d;
                "re-hung under a descendant"
            }
            _ => {
                parent[v as usize] = NO_VERTEX;
                "tree vertex turned into a hole"
            }
        }
    }

    #[test]
    fn mutated_parent_arrays_parse_exactly_when_they_build() {
        // The view's climb and the index build share only their slot
        // checks, so this differential pins that an array the view accepts
        // always builds, and the brute force pins both.
        let mut rng = ChaCha8Rng::seed_from_u64(0x7EE);
        let mut outcomes = std::collections::BTreeMap::<&str, [usize; 2]>::new();
        for case in 0..3000 {
            let n = rng.gen_range(1..48);
            let mut parent = holey_parent_array(n, rng.gen(), rng.gen::<u64>() & rng.gen::<u64>());
            let kind = if case % 10 == 0 {
                "unmutated"
            } else {
                mutate(&mut parent, &mut rng)
            };
            let bytes = hand_written(0, n as u64, &parent);
            let viewed = TreeView::parse(&SnapReader::parse(&bytes).unwrap()).map(|_| ());
            let built = TreeIndex::try_from_parents(parent.clone(), 0).map(|_| ());
            assert_eq!(viewed, built, "case {case} ({kind}): {parent:?}");
            assert_eq!(
                viewed.is_ok(),
                is_tree_by_brute_force(&parent, 0),
                "case {case} ({kind}): {parent:?}"
            );
            outcomes.entry(kind).or_default()[viewed.is_err() as usize] += 1;
        }
        // [accepted, refused] per kind; every corruption kind must be seen
        // refused, and a hole punched into a leaf is still a tree.
        assert_eq!(outcomes.len(), 9, "{outcomes:?}");
        assert_eq!(outcomes["unmutated"][1], 0);
        for (kind, [_, refused]) in &outcomes {
            assert!(*kind == "unmutated" || *refused >= 20, "{outcomes:?}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        // The checkpoint differential: decode(write(index)) ≡ index on
        // *every* raw field — pre/post numbers, levels, sizes, jump
        // pointers, `top` labels — and on the fingerprint, including
        // NO_VERTEX holes from vertex churn. `structural_eq` is what pins
        // the derived structures; a format that dropped (say) children
        // order would pass a fingerprint check but fail here.
        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

            #[test]
            fn decoded_tree_is_identical_to_the_written_index(
                n in 1usize..140,
                seed in any::<u64>(),
                hole_bits in any::<u64>(),
            ) {
                let parent = holey_parent_array(n, seed, hole_bits);
                let idx = TreeIndex::from_parent_slice(&parent, 0);
                let bytes = render(&idx);
                let loaded = decode(&bytes).expect("written sections always decode");
                prop_assert!(loaded.structural_eq(&idx).is_ok(),
                    "{}", loaded.structural_eq(&idx).unwrap_err());
                prop_assert_eq!(loaded.fingerprint(), idx.fingerprint());
                prop_assert_eq!(render(&loaded), bytes);
            }
        }
    }
}
