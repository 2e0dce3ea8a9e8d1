//! Differential suite for the `pardfs-snap v2` snapshot decoders: state
//! decoded from a container must be indistinguishable from the state that
//! wrote it — not just equal at load time, but equally *usable* (further
//! updates applied to both must keep them identical).
//!
//! Every graph and tree section has one decoder, the validating view
//! ([`GraphView`], [`pardfs::TreeView`]) that recovery, component exports
//! and published epochs all read through. Covered here at the workspace
//! level (each crate pins its own framing details in unit tests):
//! * decode ≡ identity for [`Graph`] and [`pardfs::tree::TreeIndex`],
//!   including byte-stability of writing the decoded state again;
//! * a decoded graph stays behaviourally identical under continued
//!   mutation;
//! * [`render_checkpoint`]'s bytes, read back through [`CheckpointView`],
//!   materialize the live maintainer's state and resume into a maintainer
//!   that writes the same bytes, for every backend;
//! * corruption at *every byte offset* and truncation at *every length* of
//!   a checkpoint is rejected rather than silently absorbed;
//! * the same holds for a published serving epoch opened by
//!   [`Snapshot::open_mapped`], which also refuses a well-framed file whose
//!   `TTOP` labels are missing, mis-sized or disagree with its parents;
//! * a tree header whose capacity overflows the parent section's byte
//!   length is refused in a checkpoint and in a published epoch alike.

use pardfs::graph::generators;
use pardfs::graph::snap::{SnapReader, SnapWriter};
use pardfs::seq::static_dfs_index;
use pardfs::tree::{write_tree_sections, TreeIndex};
use pardfs::wal::{render_checkpoint, CheckpointView};
use pardfs::{
    Backend, ForestQuery, Graph, GraphView, MaintainerBuilder, Snapshot, TreeView, Update,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A connected random graph plus a burst of mutations so the arena has seen
/// growth, shrinkage and vertex churn (not just a freshly packed layout).
fn churned_graph(seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = generators::random_connected_gnm(120, 360, &mut rng);
    for _ in 0..60 {
        let u = rng.gen_range(0..g.capacity() as u32);
        let v = rng.gen_range(0..g.capacity() as u32);
        if u != v && g.is_active(u) && g.is_active(v) && !g.has_edge(u, v) {
            g.insert_edge(u, v);
        }
    }
    for _ in 0..40 {
        let u = rng.gen_range(0..g.capacity() as u32);
        if g.is_active(u) && g.degree(u) > 2 {
            let v = g.neighbors(u)[0];
            g.delete_edge(u, v);
        }
    }
    g
}

/// `g`'s sections alone in one container.
fn graph_bytes(g: &Graph) -> Vec<u8> {
    let mut w = SnapWriter::new();
    g.write_snap_sections(&mut w);
    w.finish()
}

fn decode_graph(bytes: &[u8]) -> Graph {
    let r = SnapReader::parse(bytes).expect("own container parses");
    GraphView::parse(&r)
        .expect("own sections validate")
        .to_graph()
}

/// The container `good`'s sections `tags`, in order, with the payloads
/// `replaced` names swapped in (`None` drops the section), re-checksummed
/// so that only the decoders can refuse it.
fn recompose(
    good: &[u8],
    tags: &[([u8; 4], u32)],
    replaced: &[([u8; 4], Option<&[u8]>)],
) -> Vec<u8> {
    let r = SnapReader::parse(good).expect("the original parses");
    let mut w = SnapWriter::new();
    for &(tag, align) in tags {
        let body = match replaced.iter().find(|(t, _)| *t == tag) {
            Some(&(_, body)) => body,
            None => Some(r.section(tag).expect("the section exists")),
        };
        if let Some(body) = body {
            w.section_aligned(tag, align).extend_from_slice(body);
        }
    }
    w.finish()
}

/// A tree header capacity whose parent section length, `4 * capacity`,
/// wraps to 4 in a release build.
const OVERFLOWING_CAPACITY: u64 = (1 << 62) + 1;

/// `good` with a `THDR` claiming root 0 and [`OVERFLOWING_CAPACITY`] over a
/// one-slot `TPAR` of `[0]`; it must be refused with an error naming `TPAR`
/// and the claimed capacity.
fn overflowing_tree_capacity(good: &[u8], tags: &[([u8; 4], u32)]) -> Vec<u8> {
    let thdr = [0u64.to_le_bytes(), OVERFLOWING_CAPACITY.to_le_bytes()].concat();
    recompose(
        good,
        tags,
        &[(*b"THDR", Some(&thdr)), (*b"TPAR", Some(&[0; 4]))],
    )
}

fn assert_overflow_refused(err: Option<String>, what: &str) {
    let err = err.unwrap_or_else(|| panic!("{what}: an overflowing capacity was accepted"));
    assert!(
        err.contains("TPAR") && err.contains(&OVERFLOWING_CAPACITY.to_string()),
        "{what}: {err}"
    );
}

#[test]
fn binary_loaded_graph_is_indistinguishable_from_a_freshly_built_one() {
    let fresh = churned_graph(0xC0DEC);
    let loaded = decode_graph(&graph_bytes(&fresh));
    assert_eq!(loaded, fresh, "decoding changed the graph");

    // The loaded arena must be fully usable, not merely equal at load time:
    // drive both copies through the same further mutations and they must
    // stay identical (including adjacency order, which shapes DFS trees).
    let mut a = fresh.clone();
    let mut b = loaded;
    let w = a.insert_vertex(&[0, 1, 2]);
    assert_eq!(w, b.insert_vertex(&[0, 1, 2]));
    a.delete_edge(0, a.neighbors(0)[0]);
    b.delete_edge(0, b.neighbors(0)[0]);
    a.insert_edge(w, 5);
    b.insert_edge(w, 5);
    assert_eq!(a, b, "decoded graph diverged under further updates");
    assert_eq!(
        static_dfs_index(&a, 0).fingerprint(),
        static_dfs_index(&b, 0).fingerprint(),
        "decoded graph produced a different DFS tree"
    );
}

#[test]
fn graph_codec_round_trip_is_byte_stable() {
    let g = churned_graph(0xA11CE);
    let bytes = graph_bytes(&g);
    let loaded = decode_graph(&bytes);
    assert_eq!(loaded, g, "decoding changed the graph");
    assert_eq!(
        graph_bytes(&loaded),
        bytes,
        "writing the decoded graph is not byte-stable"
    );
}

#[test]
fn tree_codec_round_trip_is_byte_stable() {
    let g = churned_graph(0x7EE);
    let idx = static_dfs_index(&g, 0);
    let tree_bytes = |t: &TreeIndex| {
        let mut w = SnapWriter::new();
        write_tree_sections(&mut w, t.root(), t.parent_slice());
        w.finish()
    };
    let bytes = tree_bytes(&idx);
    let r = SnapReader::parse(&bytes).expect("own container parses");
    let loaded = TreeView::parse(&r)
        .expect("own sections validate")
        .to_index();
    loaded
        .structural_eq(&idx)
        .expect("decoding changed the tree");
    assert_eq!(loaded.fingerprint(), idx.fingerprint());
    assert_eq!(tree_bytes(&loaded), bytes);
}

#[test]
fn checkpoint_codecs_agree_for_every_backend() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xCC);
    let g = generators::random_connected_gnm(64, 160, &mut rng);
    let updates: Vec<Update> = vec![
        Update::DeleteEdge(0, g.neighbors(0)[0]),
        Update::InsertEdge(1, 40),
        Update::InsertVertex {
            edges: vec![2, 3, 9],
        },
    ];
    for backend in Backend::all_default() {
        let builder = MaintainerBuilder::new(backend);
        let mut dfs = builder.build(&g);
        dfs.apply_batch(&updates);
        let label = dfs.backend_name();
        let bytes = render_checkpoint(7, dfs.as_ref());
        let view = CheckpointView::parse(&bytes).expect("checkpoint validates as a view");
        assert_eq!(view.epoch, 7, "{label}: epoch");
        assert_eq!(view.backend(), label, "{label}: backend");
        assert_eq!(
            view.fingerprint,
            dfs.tree().fingerprint(),
            "{label}: fingerprint"
        );
        let (graph, tree) = view.materialize().expect("view materializes");
        assert_eq!(&graph, dfs.augmented_graph(), "{label}: graph");
        tree.structural_eq(dfs.tree())
            .unwrap_or_else(|e| panic!("{label}: tree diverged: {e}"));
        // The maintainer recovery would resume from the decoded state writes
        // the same checkpoint again.
        let resumed = builder
            .build_from_state(graph, tree)
            .expect("decoded state resumes");
        assert_eq!(
            render_checkpoint(7, resumed.as_ref()),
            bytes,
            "{label}: checkpoint is not byte-stable"
        );
    }
}

#[test]
fn corrupting_any_region_of_a_binary_checkpoint_is_rejected() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBAD);
    let g = generators::random_connected_gnm(48, 100, &mut rng);
    let dfs = MaintainerBuilder::new(Backend::Sequential).build(&g);
    let bytes = render_checkpoint(3, dfs.as_ref());
    assert!(CheckpointView::parse(&bytes).is_ok(), "good bytes validate");

    // Flip one byte at *every* offset of the file — magic, section table,
    // alignment padding, each payload, checksum. Every flip must surface as
    // an error: the whole-file checksum guards regions no structural
    // validation reaches.
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x20;
        assert!(
            CheckpointView::parse(&bad).is_err(),
            "flip at byte {i}/{} was silently accepted",
            bytes.len()
        );
    }
    // Truncation at *every* length is rejected too (never a partial load).
    for cut in 0..bytes.len() {
        assert!(
            CheckpointView::parse(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes was silently accepted"
        );
    }

    // A well-framed checkpoint whose tree header claims a capacity that
    // overflows the parent section's byte length.
    let tags = [
        (*b"CHDR", 8),
        (*b"CBKD", 1),
        (*b"GHDR", 8),
        (*b"GACT", 8),
        (*b"GDEG", 8),
        (*b"GADJ", 8),
        (*b"THDR", 8),
        (*b"TPAR", 8),
    ];
    assert_eq!(
        recompose(&bytes, &tags, &[]),
        bytes,
        "the composition is the writer's"
    );
    let overflowing = overflowing_tree_capacity(&bytes, &tags);
    assert_overflow_refused(CheckpointView::parse(&overflowing).err(), "checkpoint");
}

#[test]
fn corrupting_any_region_of_a_published_epoch_is_rejected() {
    // A sparse forest, so the labels name many trees.
    let mut rng = ChaCha8Rng::seed_from_u64(0xE9);
    let g = generators::gnp(40, 0.04, &mut rng);
    let dfs = MaintainerBuilder::new(Backend::Sequential).build(&g);
    assert!(
        dfs.forest_roots().len() > 1,
        "the epoch holds several trees"
    );
    let dir = std::env::temp_dir().join(format!("pardfs-epoch-corruption-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good_path = dir.join("good.epoch");
    Snapshot::capture(5, dfs.as_ref())
        .publish_to(&good_path)
        .unwrap();
    let good = std::fs::read(&good_path).unwrap();
    let open = |bytes: &[u8]| {
        let path = dir.join("bad.epoch");
        std::fs::write(&path, bytes).unwrap();
        Snapshot::open_mapped(&path).map(|_| ())
    };
    let mapped = Snapshot::open_mapped(&good_path).expect("the published epoch opens");
    for u in 0..g.capacity() as u32 {
        assert_eq!(mapped.forest_parent(u), dfs.forest_parent(u));
        for v in 0..g.capacity() as u32 {
            assert_eq!(mapped.same_component(u, v), dfs.same_component(u, v));
        }
    }

    // One flipped byte anywhere, or a cut at any length, fails the frame.
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0x20;
        assert!(
            open(&bad).is_err(),
            "flip at byte {i}/{} was accepted",
            good.len()
        );
    }
    for cut in 0..good.len() {
        assert!(
            open(&good[..cut]).is_err(),
            "a cut to {cut} bytes was accepted"
        );
    }

    // Well-framed (re-checksummed) files whose `TTOP` section is missing,
    // mis-sized, or wrong in one slot.
    let tags = [
        (*b"SHDR", 8),
        (*b"SBKD", 1),
        (*b"THDR", 8),
        (*b"TPAR", 8),
        (*b"TTOP", 8),
    ];
    let compose = |top: Option<&[u8]>| recompose(&good, &tags, &[(*b"TTOP", top)]);
    let r = SnapReader::parse(&good).unwrap();
    let top = r.section(*b"TTOP").unwrap();
    assert_eq!(compose(Some(top)), good, "the composition is the writer's");
    let mut bad_cases = vec![
        ("missing", compose(None)),
        ("one label short", compose(Some(&top[..top.len() - 4]))),
        ("one label long", compose(Some(&[top, &[0; 4]].concat()))),
    ];
    for slot in 0..top.len() / 4 {
        let mut labels = top.to_vec();
        let label = &mut labels[4 * slot..4 * slot + 4];
        let wrong = match u32::from_le_bytes(label.try_into().unwrap()) {
            u32::MAX => 1,
            l => l ^ 1,
        };
        label.copy_from_slice(&wrong.to_le_bytes());
        bad_cases.push(("wrong slot", compose(Some(&labels))));
    }
    for (case, bytes) in bad_cases {
        let err = open(&bytes)
            .err()
            .unwrap_or_else(|| panic!("{case}: accepted"));
        assert!(
            err.contains("TTOP"),
            "{case}: the error does not name TTOP: {err}"
        );
    }

    // A well-framed epoch whose tree header claims a capacity that
    // overflows the parent section's byte length.
    let overflowing = overflowing_tree_capacity(&good, &tags);
    assert_overflow_refused(open(&overflowing).err(), "published epoch");
    std::fs::remove_dir_all(&dir).ok();
}
