//! [`GraphView`] — the decoder of the graph sections of a `pardfs-snap`
//! container: a borrowed, zero-copy read surface.
//!
//! A `GraphView` **validates once and borrows thereafter**: the one
//! construction pass runs every representation check (shared with
//! [`crate::Graph::from_adjacency_lists`]), and every subsequent
//! [`GraphView::neighbours`] call is a slice of the original bytes — zero
//! `GADJ` bytes are ever copied on the read path (pinned by the
//! [`crate::snap::copied_array_bytes`] counter in `tests/zero_copy.rs`).
//! [`GraphView::to_graph`] is the one copy point, for callers that need an
//! owned [`Graph`].
//!
//! Borrowing `u32` arrays straight out of file bytes requires the payloads
//! to be 4-byte aligned, which is what the container's 8-byte section
//! alignment (plus the 8-byte-aligned base of [`crate::MappedSnapshot`])
//! guarantees; a misaligned buffer is rejected with a description, not
//! mis-read. See `docs/FORMATS.md` for the byte layout.

use crate::graph::{
    validate_flat_adjacency, Graph, Vertex, SEC_GRAPH_ACTIVE, SEC_GRAPH_ADJACENCY,
    SEC_GRAPH_DEGREES, SEC_GRAPH_HEADER,
};
use crate::mapped::cast_u32s;
use crate::snap::{charge_copied_array_bytes, Cursor, SnapReader};

/// Is bit `v` set in a little-endian packed `u64`-word bitmap, addressed as
/// raw bytes? (Bit `v` of LE word `v / 64` is bit `v % 8` of byte `v / 8`.)
fn bit(bytes: &[u8], v: usize) -> bool {
    (bytes[v / 8] >> (v % 8)) & 1 == 1
}

/// A validated, borrowed view of a graph snapshot: the `GHDR`/`GACT`/
/// `GDEG`/`GADJ` sections served in place.
///
/// Construction ([`GraphView::parse`]) is the only pass over the data — it
/// verifies every representation invariant (activity of endpoints,
/// capacity bounds, self loops, duplicates, symmetry, claimed edge count)
/// and derives a prefix-sum offset table over the degrees (the one small
/// owned allocation, `capacity + 1` words of *metadata*, not payload).
/// After that, queries are bounds-checked slicing.
///
/// # Examples
///
/// ```
/// use pardfs_graph::{Graph, GraphView, SnapReader, SnapWriter};
///
/// let mut g = Graph::new(3);
/// g.insert_edge(0, 1);
/// g.insert_edge(1, 2);
///
/// let mut w = SnapWriter::new();
/// g.write_snap_sections(&mut w);
/// let bytes = w.finish();
/// let r = SnapReader::parse(&bytes).unwrap();
/// let view = GraphView::parse(&r).unwrap();
/// assert_eq!(view.num_edges(), 2);
/// assert_eq!(view.neighbours(1), &[0, 2]); // borrowed straight from `bytes`
/// assert_eq!(view.to_graph(), g);          // materializes only on request
/// ```
#[derive(Debug)]
pub struct GraphView<'a> {
    capacity: usize,
    num_edges: usize,
    num_active: usize,
    active: &'a [u8],
    degrees: &'a [u32],
    adj: &'a [u32],
    offsets: Vec<usize>,
}

impl<'a> GraphView<'a> {
    /// Validate the graph sections of a parsed container and borrow them.
    ///
    /// Requires the `GDEG`/`GADJ` payloads to sit at 4-byte-aligned
    /// addresses (containers in an aligned buffer always do; a misaligned
    /// buffer is rejected with an error naming the alignment problem).
    pub fn parse(r: &SnapReader<'a>) -> Result<GraphView<'a>, String> {
        let mut hdr = Cursor::new(SEC_GRAPH_HEADER, r.section(SEC_GRAPH_HEADER)?);
        let capacity = usize::try_from(hdr.u64()?).map_err(|_| "graph capacity overflows")?;
        let claimed_edges =
            usize::try_from(hdr.u64()?).map_err(|_| "graph edge count overflows")?;
        hdr.finish()?;

        let active = r.section(SEC_GRAPH_ACTIVE)?;
        if active.len() != capacity.div_ceil(64) * 8 {
            return Err(format!(
                "activity bitmap is {} bytes for capacity {capacity}",
                active.len()
            ));
        }
        for v in capacity..active.len() * 8 {
            if bit(active, v) {
                return Err("activity bitmap has bits set past the capacity".to_string());
            }
        }

        let deg_bytes = r.section(SEC_GRAPH_DEGREES)?;
        if deg_bytes.len() != 4 * capacity {
            return Err(format!(
                "degree section is {} bytes for capacity {capacity}",
                deg_bytes.len()
            ));
        }
        let degrees = cast_u32s(deg_bytes).map_err(|e| format!("GDEG section: {e}"))?;

        let mut offsets = Vec::with_capacity(capacity + 1);
        let mut total = 0usize;
        for &d in degrees {
            offsets.push(total);
            total = total
                .checked_add(d as usize)
                .ok_or("GDEG section: degrees sum past usize::MAX")?;
        }
        offsets.push(total);

        let adj_bytes = r.section(SEC_GRAPH_ADJACENCY)?;
        if total.checked_mul(4) != Some(adj_bytes.len()) {
            return Err(format!(
                "adjacency section is {} bytes, degrees sum to {total} entries",
                adj_bytes.len()
            ));
        }
        let adj = cast_u32s(adj_bytes).map_err(|e| format!("GADJ section: {e}"))?;

        validate_flat_adjacency(&offsets, |v| bit(active, v), adj, claimed_edges)?;
        let num_active = (0..capacity).filter(|&v| bit(active, v)).count();
        Ok(GraphView {
            capacity,
            num_edges: claimed_edges,
            num_active,
            active,
            degrees,
            adj,
            offsets,
        })
    }

    /// Vertex-id space size (including inactive holes).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of active vertices.
    pub fn num_active(&self) -> usize {
        self.num_active
    }

    /// Is vertex `v` active?
    pub fn is_active(&self, v: Vertex) -> bool {
        (v as usize) < self.capacity && bit(self.active, v as usize)
    }

    /// Degree of vertex `v` (0 for inactive vertices).
    pub fn degree(&self, v: Vertex) -> usize {
        self.degrees[v as usize] as usize
    }

    /// The neighbour list of `v`, **in stored order**, borrowed straight
    /// from the snapshot bytes.
    pub fn neighbours(&self, v: Vertex) -> &'a [Vertex] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Materialize an owned [`Graph`] from the view — the one deliberate
    /// copy point, paid only when a caller genuinely needs a mutable graph
    /// (e.g. a maintainer's `from_state` resume), and charged to
    /// [`crate::snap::copied_array_bytes`]. Validation already happened at
    /// [`GraphView::parse`] time and is **not** repeated.
    pub fn to_graph(&self) -> Graph {
        charge_copied_array_bytes(4 * (self.degrees.len() + self.adj.len()));
        let degrees: Vec<usize> = self.degrees.iter().map(|&d| d as usize).collect();
        let active: Vec<bool> = (0..self.capacity).map(|v| bit(self.active, v)).collect();
        Graph::assemble_validated(&degrees, self.adj, active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::snap::{fnv1a64_words, put_u32, put_u64, SnapWriter};
    use rand::SeedableRng;

    fn sample() -> Graph {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        generators::random_connected_gnm(48, 120, &mut rng)
    }

    /// `g`'s sections alone in one container.
    fn render(g: &Graph) -> Vec<u8> {
        let mut w = SnapWriter::new();
        g.write_snap_sections(&mut w);
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<Graph, String> {
        GraphView::parse(&SnapReader::parse(bytes)?).map(|view| view.to_graph())
    }

    /// A graph whose representation a canonical edge list could NOT
    /// reproduce: deletions swap_remove, vertex churn leaves holes.
    fn history_dependent_graph() -> Graph {
        let mut g = Graph::new(5);
        g.insert_edge(0, 1);
        g.insert_edge(0, 2);
        g.insert_edge(0, 3);
        g.insert_edge(2, 4);
        g.delete_edge(0, 1); // swap_remove scrambles 0's adjacency
        g.delete_vertex(3); // hole at id 3
        let v = g.insert_vertex(&[0, 4]);
        assert_eq!(v, 5);
        g
    }

    #[test]
    fn view_serves_the_written_graph_in_place() {
        let g = sample();
        let bytes = render(&g);
        let r = SnapReader::parse(&bytes).unwrap();
        let view = GraphView::parse(&r).unwrap();
        assert_eq!(view.capacity(), g.capacity());
        assert_eq!(view.num_edges(), g.num_edges());
        assert_eq!(view.num_active(), g.num_vertices());
        for v in 0..g.capacity() as Vertex {
            assert_eq!(view.is_active(v), g.is_active(v));
            assert_eq!(view.neighbours(v), g.neighbors(v), "vertex {v}");
        }
        assert_eq!(view.to_graph(), g);
    }

    #[test]
    fn decoded_graph_round_trip_is_byte_stable() {
        let g = history_dependent_graph();
        let bytes = render(&g);
        let back = decode(&bytes).expect("own sections decode");
        assert_eq!(back, g, "representation equality, not just edge-set");
        assert_eq!(back.neighbors(0), g.neighbors(0), "adjacency order kept");
        assert!(!back.is_active(3));
        assert_eq!(render(&back), bytes, "decode then write is byte-stable");
    }

    #[test]
    fn view_rejects_misaligned_buffers_instead_of_misreading_them() {
        // Slide a valid container across every byte residue inside one
        // allocation: exactly the shifts that land GDEG/GADJ off a 4-byte
        // boundary must be rejected (with an error naming alignment), and
        // the aligned shifts must parse identically.
        let g = sample();
        let bytes = render(&g);
        let r = SnapReader::parse(&bytes).unwrap();
        let (deg_off, _) = r.section_range(SEC_GRAPH_DEGREES).unwrap();
        let mut arena = vec![0u8; bytes.len() + 4];
        let mut saw_misaligned = false;
        for shift in 0..4usize {
            arena[shift..shift + bytes.len()].copy_from_slice(&bytes);
            let slice = &arena[shift..shift + bytes.len()];
            let r = SnapReader::parse(slice).unwrap();
            if (slice.as_ptr() as usize + deg_off).is_multiple_of(4) {
                assert_eq!(GraphView::parse(&r).unwrap().to_graph(), g);
            } else {
                saw_misaligned = true;
                assert!(GraphView::parse(&r).unwrap_err().contains("align"));
            }
        }
        assert!(saw_misaligned, "4 shifts must cover a misaligned residue");
    }

    /// A container with hand-written graph sections, laid out as
    /// [`Graph::write_snap_sections`] lays them out: `(capacity, claimed
    /// edges, activity word, degrees, adjacency)`.
    fn hand_written(cap: u64, edges: u64, active: u64, deg: &[u32], adj: &[u32]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        let hdr = w.section_aligned(SEC_GRAPH_HEADER, 8);
        put_u64(hdr, cap);
        put_u64(hdr, edges);
        put_u64(w.section_aligned(SEC_GRAPH_ACTIVE, 8), active);
        let d = w.section_aligned(SEC_GRAPH_DEGREES, 8);
        deg.iter().for_each(|&x| put_u32(d, x));
        let a = w.section_aligned(SEC_GRAPH_ADJACENCY, 8);
        adj.iter().for_each(|&x| put_u32(a, x));
        w.finish()
    }

    #[test]
    fn view_rejects_corruption() {
        let mut g = Graph::new(4);
        g.insert_edge(0, 1);
        g.insert_edge(1, 2);
        let good = render(&g);
        assert_eq!(
            good,
            hand_written(4, 2, 0b1111, &[1, 2, 1, 0], &[1, 0, 2, 1]),
            "the hand-written layout is the writer's"
        );
        // Any byte flip fails the magic or the whole-file checksum before
        // interpretation, and any cut is a framing error.
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
        // Representation damage behind a *valid* frame is still rejected.
        let cases: [(&[u8], &str); 8] = [
            // 0 lists 1; 1 lists nothing.
            (&hand_written(2, 1, 0b11, &[1, 0], &[1]), "asymmetric"),
            (&hand_written(1, 0, 0b1, &[1], &[0]), "self loop"),
            (
                &hand_written(2, 1, 0b11, &[2, 2], &[1, 1, 0, 0]),
                "duplicate",
            ),
            (
                &hand_written(2, 2, 0b11, &[1, 1], &[1, 0]),
                "claims 2 edges",
            ),
            (&hand_written(2, 1, 0b01, &[1, 1], &[1, 0]), "inactive"),
            (
                &hand_written(2, 1, 0b111, &[1, 1], &[1, 0]),
                "bits set past the capacity",
            ),
            (
                &hand_written(3, 1, 0b111, &[1, 1], &[1, 0]),
                "degree section is 8 bytes for capacity 3",
            ),
            (
                &hand_written(2, 1, 0b11, &[1, 1], &[1, 0, 0]),
                "adjacency section is 12 bytes, degrees sum to 2 entries",
            ),
        ];
        for (bytes, want) in cases {
            let err = decode(bytes).unwrap_err();
            assert!(err.contains(want), "expected `{want}`, got: {err}");
        }
    }

    #[test]
    fn view_rejects_structural_corruption() {
        let g = sample();
        let good = render(&g);
        let r = SnapReader::parse(&good).unwrap();
        let (adj_off, adj_len) = r.section_range(SEC_GRAPH_ADJACENCY).unwrap();
        assert!(adj_len >= 8);
        // Break symmetry: overwrite vertex 0's first adjacency entry with an
        // active vertex it does not list, and re-stamp the checksum.
        let mut bad = good[..good.len() - 8].to_vec();
        let cur = u32::from_le_bytes(bad[adj_off..adj_off + 4].try_into().unwrap());
        let replacement = (1..g.capacity() as Vertex)
            .find(|&u| g.is_active(u) && u != cur && !g.neighbors(0).contains(&u))
            .expect("vertex 0 is not adjacent to every vertex");
        bad[adj_off..adj_off + 4].copy_from_slice(&replacement.to_le_bytes());
        let sum = fnv1a64_words(&bad);
        put_u64(&mut bad, sum);
        let err = decode(&bad).unwrap_err();
        assert!(err.contains("asymmetric"), "{err}");
    }
}
