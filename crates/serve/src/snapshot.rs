//! Immutable per-epoch snapshots of a maintained DFS forest — in-process
//! ([`Snapshot`]) and cross-process ([`Snapshot::publish_to`] /
//! [`MappedEpoch`]) — read through the same flat arrays: the parent array,
//! each vertex's depth-1 ancestor label (which names its tree) and the pseudo
//! root's children answer every [`ForestQuery`] in `O(1)` through
//! [`pardfs_api::forest`]. A `Snapshot` holds them behind `Arc`s (copied at
//! capture, shared with the previous epoch when the tree did not move) and
//! holds no index; a `.epoch` file carries the first two as `TPAR` and
//! `TTOP`, checked against each other once at open and then read in place.

use pardfs_api::forest::{self, PSEUDO_ROOT};
use pardfs_api::ForestQuery;
use pardfs_graph::mapped::cast_u32s;
use pardfs_graph::snap::{
    charge_copied_array_bytes, put_u32, put_u64, Cursor, SnapReader, SnapWriter,
};
use pardfs_graph::{MappedSnapshot, Vertex};
use pardfs_tree::{write_tree_sections, TreeIndex, TreeView, NO_VERTEX};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Section tag of a published epoch's header (epoch, fingerprint,
/// num_vertices, num_edges — `u64` each).
const SEC_EPOCH_HEADER: [u8; 4] = *b"SHDR";
/// Section tag of a published epoch's backend name (UTF-8 bytes).
const SEC_EPOCH_BACKEND: [u8; 4] = *b"SBKD";
/// Section tag of a published epoch's depth-1 ancestor labels (`u32` per
/// slot, `u32::MAX` for the root and for holes).
const SEC_EPOCH_TOP: [u8; 4] = *b"TTOP";

/// An **immutable** capture of one epoch of a maintained DFS forest.
///
/// A snapshot holds immutable copies of the three arrays the forest reads
/// need — the augmented tree's parent array, its depth-1 ancestor labels and
/// the pseudo root's children — so it stays valid, and answers in constant
/// state, no matter what the writer does afterwards: readers holding an
/// `Arc<Snapshot>` never block the writer and never see a half-applied
/// batch. It answers the full [`ForestQuery`] vocabulary with exactly the
/// semantics of the live maintainer it was captured from (the same
/// [`pardfs_api::forest`] functions, run on the captured arrays).
///
/// The arrays sit behind `Arc`s so that consecutive epochs can share them:
/// the server publishes an epoch whose tree did not move (its updates
/// relinked nothing, e.g. a non-tree edge insert) on its predecessor's arrays
/// and fingerprint instead of copying and re-hashing them.
///
/// Identity is the index's [`TreeIndex::fingerprint`], taken from the live
/// index at commit time. Because the snapshot is immutable,
/// [`Snapshot::recompute_fingerprint`] must always reproduce
/// [`Snapshot::fingerprint`]; the stress suite uses that equation (plus the
/// server's epoch log) as its torn-read detector.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    backend: &'static str,
    parent: Arc<[Vertex]>,
    top: Arc<[Vertex]>,
    /// The pseudo root's children (internal ids, ascending).
    roots: Arc<[Vertex]>,
    num_vertices: usize,
    num_edges: usize,
    fingerprint: u64,
}

impl Snapshot {
    /// Capture the current state of `dfs` as epoch `epoch`: two `n`-word
    /// copies (the parent array and the `top` labels), the root list, and the
    /// fingerprint of the live index, which is most of the cost.
    pub fn capture(epoch: u64, dfs: &dyn pardfs_api::DfsMaintainer) -> Self {
        let tree = dfs.tree();
        Snapshot {
            epoch,
            backend: dfs.backend_name(),
            parent: tree.parent_slice().into(),
            top: tree.top_slice().into(),
            roots: tree.children(PSEUDO_ROOT).into(),
            num_vertices: dfs.num_vertices(),
            num_edges: dfs.num_edges(),
            fingerprint: tree.fingerprint(),
        }
    }

    /// Capture `dfs` as epoch `epoch`, the epoch after `last`. If the live
    /// parent array equals `last`'s (one comparison of `n` words), the new
    /// snapshot shares `last`'s arrays, root list and fingerprint and reads
    /// only the sizes afresh; otherwise this is [`Snapshot::capture`].
    ///
    /// Sharing is exact because the `top` labels, the roots and the
    /// fingerprint's pre-order (children lists are id-sorted) all follow from
    /// the parent array; debug builds re-check that on every shared capture.
    pub(crate) fn capture_after(
        epoch: u64,
        dfs: &dyn pardfs_api::DfsMaintainer,
        last: &Snapshot,
    ) -> Self {
        let tree = dfs.tree();
        if tree.parent_slice() != &*last.parent {
            return Snapshot::capture(epoch, dfs);
        }
        debug_assert_eq!(tree.fingerprint(), last.fingerprint, "shared fingerprint");
        debug_assert_eq!(tree.top_slice(), &*last.top, "shared top labels");
        debug_assert_eq!(tree.children(PSEUDO_ROOT), &*last.roots, "shared roots");
        Snapshot {
            epoch,
            backend: dfs.backend_name(),
            num_vertices: dfs.num_vertices(),
            num_edges: dfs.num_edges(),
            ..last.clone()
        }
    }

    /// The epoch this snapshot publishes (0 = the pre-update initial state;
    /// each commit increments it by one).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Backend name of the maintainer this snapshot was captured from.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// The captured parent array of the augmented tree (internal ids, the
    /// pseudo root at 0 its own parent, [`NO_VERTEX`] for holes), same
    /// contract as [`TreeIndex::parent_slice`].
    pub fn parent_slice(&self) -> &[Vertex] {
        &self.parent
    }

    /// The tree fingerprint captured at commit time
    /// ([`TreeIndex::fingerprint`] of the live index).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Recompute the fingerprint from the captured parent array, by
    /// rebuilding an index from it (`O(n)`). The torn-read census compares
    /// it with [`Snapshot::fingerprint`] and the epoch log.
    pub fn recompute_fingerprint(&self) -> u64 {
        TreeIndex::from_parent_slice(&self.parent, PSEUDO_ROOT).fingerprint()
    }

    /// Publish this epoch to `path` as a `pardfs-snap v2` container so a
    /// *different process* can serve [`ForestQuery`] reads off it via
    /// [`Snapshot::open_mapped`] — see `docs/FORMATS.md` for the byte layout.
    ///
    /// The file carries an `SHDR` header (epoch, fingerprint, vertex and edge
    /// counts), the backend name, the tree's 8-byte-aligned `THDR`/`TPAR`
    /// sections and the `TTOP` labels. It is written atomically (tmp
    /// sibling + `sync_all` + rename) and never modified in place afterwards
    /// — the publish discipline the mapped reader's safety argument relies
    /// on (see [`pardfs_graph::mapped`]).
    pub fn publish_to(&self, path: &Path) -> Result<(), String> {
        let mut w = SnapWriter::new();
        {
            let hdr = w.section_aligned(SEC_EPOCH_HEADER, 8);
            put_u64(hdr, self.epoch);
            put_u64(hdr, self.fingerprint);
            put_u64(hdr, self.num_vertices as u64);
            put_u64(hdr, self.num_edges as u64);
        }
        w.section(SEC_EPOCH_BACKEND)
            .extend_from_slice(self.backend.as_bytes());
        write_tree_sections(&mut w, PSEUDO_ROOT, &self.parent);
        let top = w.section_aligned(SEC_EPOCH_TOP, 8);
        for &t in self.top.iter() {
            put_u32(top, t);
        }
        let bytes = w.finish();

        let tmp_path = path.with_extension("epoch.tmp");
        let mut tmp = std::fs::File::create(&tmp_path)
            .map_err(|e| format!("creating {}: {e}", tmp_path.display()))?;
        tmp.write_all(&bytes)
            .and_then(|()| tmp.sync_all())
            .map_err(|e| format!("writing {}: {e}", tmp_path.display()))?;
        drop(tmp);
        std::fs::rename(&tmp_path, path).map_err(|e| format!("publishing {}: {e}", path.display()))
    }

    /// Open an epoch file published by [`Snapshot::publish_to`] as a
    /// [`MappedEpoch`]: checksum and structure are validated **once**, then
    /// every query reads the mapped `TPAR` and `TTOP` bytes in place (zero
    /// array bytes copied — the validate-once / borrow-thereafter
    /// invariant).
    pub fn open_mapped(path: &Path) -> Result<MappedEpoch, String> {
        MappedEpoch::open(path)
    }
}

/// A published epoch file served in place: [`ForestQuery`] answers straight
/// off the (usually `mmap`-ed) snapshot bytes.
///
/// Opening validates the container exactly once — whole-file checksum,
/// section table, header decode, the full shared parent-array validation via
/// [`TreeView::parse`], and one pass checking every `TTOP` label against
/// `TPAR` that also collects the root list. After that every read is `O(1)`
/// on the mapped arrays, the same [`pardfs_api::forest`] functions a
/// [`Snapshot`] runs on its copies; no per-query allocation, no copies.
/// Long-lived servers that want the whole index instead call
/// [`MappedEpoch::materialize`].
///
/// # Examples
///
/// ```no_run
/// use pardfs_serve::Snapshot;
/// use pardfs_api::ForestQuery;
///
/// let epoch = Snapshot::open_mapped("published.epoch".as_ref()).unwrap();
/// println!(
///     "epoch {} from {}: {} vertices, parent(0) = {:?}",
///     epoch.epoch(),
///     epoch.backend(),
///     epoch.num_vertices(),
///     epoch.forest_parent(0),
/// );
/// ```
#[derive(Debug)]
pub struct MappedEpoch {
    map: MappedSnapshot,
    epoch: u64,
    backend: String,
    num_vertices: usize,
    num_edges: usize,
    fingerprint: u64,
    /// Byte offsets of the validated `TPAR` and `TTOP` payloads inside
    /// `map`, each `capacity` `u32` slots.
    tpar_offset: usize,
    ttop_offset: usize,
    capacity: usize,
    /// The pseudo root's children (internal ids, ascending), collected at
    /// open time.
    roots: Vec<Vertex>,
}

impl MappedEpoch {
    fn open(path: &Path) -> Result<MappedEpoch, String> {
        let map =
            MappedSnapshot::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
        let (epoch, backend, num_vertices, num_edges, fingerprint);
        let (tpar_offset, ttop_offset, capacity, roots);
        {
            let r = SnapReader::parse(map.bytes())?;
            let mut hdr = Cursor::new(SEC_EPOCH_HEADER, r.section(SEC_EPOCH_HEADER)?);
            epoch = hdr.u64()?;
            fingerprint = hdr.u64()?;
            num_vertices = usize::try_from(hdr.u64()?).map_err(|_| "vertex count overflows")?;
            num_edges = usize::try_from(hdr.u64()?).map_err(|_| "edge count overflows")?;
            hdr.finish()?;
            backend = String::from_utf8(r.section(SEC_EPOCH_BACKEND)?.to_vec())
                .map_err(|_| "backend name is not UTF-8".to_string())?;
            let view = TreeView::parse(&r)?;
            if view.root() != PSEUDO_ROOT {
                return Err(format!(
                    "published epoch tree is rooted at {}, expected the pseudo root 0",
                    view.root()
                ));
            }
            let parent = view.parent_slice();
            let top_bytes = r.section(SEC_EPOCH_TOP)?;
            if top_bytes.len() != 4 * parent.len() {
                return Err(format!(
                    "TTOP section is {} bytes for capacity {}",
                    top_bytes.len(),
                    parent.len()
                ));
            }
            let top = cast_u32s(top_bytes).map_err(|e| format!("TTOP section: {e}"))?;
            roots = check_top(parent, top)?;
            let base = map.bytes().as_ptr() as usize;
            tpar_offset = parent.as_ptr() as usize - base;
            ttop_offset = top.as_ptr() as usize - base;
            capacity = parent.len();
        }
        Ok(MappedEpoch {
            map,
            epoch,
            backend,
            num_vertices,
            num_edges,
            fingerprint,
            tpar_offset,
            ttop_offset,
            capacity,
            roots,
        })
    }

    /// The validated `capacity`-slot array at byte `offset` of the mapping.
    /// Infallible after a successful open: the offset, length and alignment
    /// were all checked then, and the mapping never moves.
    fn words(&self, offset: usize) -> &[Vertex] {
        let bytes = &self.map.bytes()[offset..offset + 4 * self.capacity];
        cast_u32s(bytes).expect("array alignment was validated at open time")
    }

    /// The epoch recorded in the published file.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Backend name of the maintainer the published snapshot came from.
    pub fn backend(&self) -> &str {
        &self.backend
    }

    /// The tree fingerprint recorded at publish time (re-verified against
    /// the rebuilt index by [`MappedEpoch::materialize`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Rebuild a full [`TreeIndex`] from the mapped parent array — the one
    /// deliberate copy point, for long-lived servers that want the whole
    /// index, charged to [`pardfs_graph::snap::copied_array_bytes`].
    /// Verifies the recorded fingerprint against the rebuilt index.
    pub fn materialize(&self) -> Result<TreeIndex, String> {
        charge_copied_array_bytes(4 * self.capacity);
        let index = TreeIndex::from_parent_slice(self.words(self.tpar_offset), PSEUDO_ROOT);
        let actual = index.fingerprint();
        if actual != self.fingerprint {
            return Err(format!(
                "epoch fingerprint mismatch: recorded {:#018x}, rebuilt {actual:#018x}",
                self.fingerprint
            ));
        }
        Ok(index)
    }
}

/// Check published `top` labels against a validated parent array rooted at
/// the pseudo root, slot by slot — the root and holes hold [`NO_VERTEX`], a
/// child of the root its own id, any other vertex its parent's label — and
/// collect the root's children on the way. Every parent chain reaches the
/// root, so labels that pass are the depth-1 ancestors.
fn check_top(parent: &[Vertex], top: &[Vertex]) -> Result<Vec<Vertex>, String> {
    let mut roots = Vec::new();
    for (v, (&p, &label)) in (0..).zip(parent.iter().zip(top)) {
        let want = if v == PSEUDO_ROOT || p == NO_VERTEX {
            NO_VERTEX
        } else if p == PSEUDO_ROOT {
            roots.push(v);
            v
        } else {
            top[p as usize]
        };
        if label != want {
            return Err(format!(
                "TTOP label {label} of vertex {v} disagrees with TPAR, which implies {want}"
            ));
        }
    }
    Ok(roots)
}

impl ForestQuery for MappedEpoch {
    fn forest_parent(&self, v: Vertex) -> Option<Vertex> {
        forest::forest_parent(self.words(self.tpar_offset), v)
    }

    fn forest_roots(&self) -> Vec<Vertex> {
        forest::forest_roots(&self.roots)
    }

    fn same_component(&self, u: Vertex, v: Vertex) -> bool {
        forest::same_component(self.words(self.ttop_offset), u, v)
    }

    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }
}

impl ForestQuery for Snapshot {
    #[inline]
    fn forest_parent(&self, v: Vertex) -> Option<Vertex> {
        forest::forest_parent(&self.parent, v)
    }

    #[inline]
    fn forest_roots(&self) -> Vec<Vertex> {
        forest::forest_roots(&self.roots)
    }

    #[inline]
    fn same_component(&self, u: Vertex, v: Vertex) -> bool {
        forest::same_component(&self.top, u, v)
    }

    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }
}
