//! Immutable per-epoch snapshots of a maintained DFS forest — in-process
//! ([`Snapshot`]) and cross-process ([`Snapshot::publish_to`] /
//! [`MappedEpoch`]).

use pardfs_api::forest::{self, internal_id, PSEUDO_ROOT};
use pardfs_api::ForestQuery;
use pardfs_graph::mapped::cast_u32s;
use pardfs_graph::snap::{put_u64, Cursor, SnapReader, SnapWriter};
use pardfs_graph::{MappedSnapshot, Vertex};
use pardfs_tree::{TreeIndex, TreeView};
use std::io::Write as _;
use std::path::Path;

/// Section tag of a published epoch's header (epoch, fingerprint,
/// num_vertices, num_edges — `u64` each).
const SEC_EPOCH_HEADER: [u8; 4] = *b"SHDR";
/// Section tag of a published epoch's backend name (UTF-8 bytes).
const SEC_EPOCH_BACKEND: [u8; 4] = *b"SBKD";

/// An **immutable** capture of one epoch of a maintained DFS forest.
///
/// A snapshot owns its own [`TreeIndex`] clone, so it stays valid — and
/// answers in constant state — no matter what the writer does afterwards:
/// readers holding an `Arc<Snapshot>` never block the writer and never see a
/// half-applied batch. It answers the full [`ForestQuery`] vocabulary with
/// exactly the semantics of the live maintainer it was captured from (the
/// same [`pardfs_api::forest`] helpers, run against the cloned index).
///
/// Identity is the index's [`TreeIndex::fingerprint`], captured at commit
/// time. Because the snapshot is immutable, recomputing the fingerprint from
/// [`Snapshot::tree`] must always reproduce [`Snapshot::fingerprint`]; the
/// stress suite uses that equation (plus the server's epoch log) as its
/// torn-read detector.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    backend: &'static str,
    tree: TreeIndex,
    num_vertices: usize,
    num_edges: usize,
    fingerprint: u64,
}

impl Snapshot {
    /// Capture the current state of `dfs` as epoch `epoch`.
    ///
    /// The dominant cost is the [`TreeIndex`] clone. The index is flat
    /// storage (children lists in one arena pool, one jump pointer per
    /// vertex), so that clone is a fixed handful of contiguous
    /// `memcpy`-style buffer copies rather than `O(n)` separate per-vertex
    /// allocations — which is what keeps the per-commit capture off the
    /// serving layer's critical path at large `n`.
    pub fn capture(epoch: u64, dfs: &dyn pardfs_api::DfsMaintainer) -> Self {
        let tree = dfs.tree().clone();
        let fingerprint = tree.fingerprint();
        Snapshot {
            epoch,
            backend: dfs.backend_name(),
            tree,
            num_vertices: dfs.num_vertices(),
            num_edges: dfs.num_edges(),
            fingerprint,
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

    /// The captured DFS tree of the augmented graph (internal ids), same
    /// contract as [`pardfs_api::DfsMaintainer::tree`].
    pub fn tree(&self) -> &TreeIndex {
        &self.tree
    }

    /// The tree fingerprint captured at commit time
    /// ([`TreeIndex::fingerprint`] of [`Snapshot::tree`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Publish this epoch to `path` as a `pardfs-snap v2` container so a
    /// *different process* can serve [`ForestQuery`] reads off it via
    /// [`Snapshot::open_mapped`] — see `docs/FORMATS.md` for the byte layout.
    ///
    /// The file carries an `SHDR` header (epoch, fingerprint, vertex and edge
    /// counts), the backend name, and the tree's 8-byte-aligned `THDR`/`TPAR`
    /// sections. It is written atomically (tmp sibling + `sync_all` + rename)
    /// and never modified in place afterwards — the publish discipline the
    /// mapped reader's safety argument relies on
    /// (see [`pardfs_graph::mapped`]).
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
        self.tree.write_snap_sections(&mut w);
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
    /// every query reads the mapped `TPAR` bytes in place (zero parent-array
    /// bytes copied — the validate-once / borrow-thereafter invariant).
    pub fn open_mapped(path: &Path) -> Result<MappedEpoch, String> {
        MappedEpoch::open(path)
    }
}

/// A published epoch file served in place: [`ForestQuery`] answers straight
/// off the (usually `mmap`-ed) snapshot bytes.
///
/// Opening validates the container exactly once — whole-file checksum,
/// section table, header decode, and the full shared parent-array validation
/// via [`TreeView::parse`] — and precomputes the root list (one `TPAR` scan).
/// After that, `forest_parent` is a single in-place array read and
/// `same_component` an `O(depth)` climb; no per-query allocation, no copies.
/// Long-lived servers that want the `O(log n)` index surface instead call
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
    /// Byte offset of the validated `TPAR` payload inside `map` and its
    /// capacity in `u32` slots — enough to rebind a [`TreeView`] per query
    /// without re-validating.
    tpar_offset: usize,
    capacity: usize,
    root: Vertex,
    /// User-id roots (children of the pseudo root), precomputed at open time.
    roots: Vec<Vertex>,
}

impl MappedEpoch {
    fn open(path: &Path) -> Result<MappedEpoch, String> {
        let map =
            MappedSnapshot::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
        let (
            epoch,
            backend,
            num_vertices,
            num_edges,
            fingerprint,
            tpar_offset,
            capacity,
            root,
            roots,
        );
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
            let parent = view.parent_slice();
            tpar_offset = parent.as_ptr() as usize - map.bytes().as_ptr() as usize;
            capacity = view.capacity();
            root = view.root();
            if root != PSEUDO_ROOT {
                return Err(format!(
                    "published epoch tree is rooted at {root}, expected the pseudo root 0"
                ));
            }
            roots = view.root_children().iter().map(|&c| c - 1).collect();
        }
        Ok(MappedEpoch {
            map,
            epoch,
            backend,
            num_vertices,
            num_edges,
            fingerprint,
            tpar_offset,
            capacity,
            root,
            roots,
        })
    }

    /// Rebind the validated tree view over the mapped bytes. Infallible after
    /// a successful open: the offset, length and alignment were all checked
    /// then, and the mapping never moves.
    fn view(&self) -> TreeView<'_> {
        let bytes = &self.map.bytes()[self.tpar_offset..self.tpar_offset + 4 * self.capacity];
        let parent = cast_u32s(bytes).expect("TPAR alignment was validated at open time");
        TreeView::from_validated_parts(parent, self.root)
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

    /// Is the file actually memory-mapped (vs. the read-into-aligned-buffer
    /// fallback)? Query answers are identical either way.
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Size of the published container in bytes.
    pub fn file_len(&self) -> usize {
        self.map.len()
    }

    /// Rebuild a full [`TreeIndex`] from the mapped bytes — the one
    /// deliberate copy point, for long-lived servers that want `O(log n)`
    /// queries. Verifies the recorded fingerprint against the rebuilt index.
    pub fn materialize(&self) -> Result<TreeIndex, String> {
        let index = self.view().to_index();
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

impl ForestQuery for MappedEpoch {
    fn forest_parent(&self, v: Vertex) -> Option<Vertex> {
        self.view()
            .parent(internal_id(v)?)
            .filter(|&p| p != PSEUDO_ROOT)
            .map(|p| p - 1)
    }

    fn forest_roots(&self) -> Vec<Vertex> {
        self.roots.clone()
    }

    fn same_component(&self, u: Vertex, v: Vertex) -> bool {
        let view = self.view();
        let top = |x: Vertex| internal_id(x).and_then(|xi| view.depth_one_ancestor(xi));
        match (top(u), top(v)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }
}

impl ForestQuery for Snapshot {
    fn forest_parent(&self, v: Vertex) -> Option<Vertex> {
        forest::forest_parent(&self.tree, v)
    }

    fn forest_roots(&self) -> Vec<Vertex> {
        forest::forest_roots(&self.tree)
    }

    fn same_component(&self, u: Vertex, v: Vertex) -> bool {
        forest::same_component(&self.tree, u, v)
    }

    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }
}
