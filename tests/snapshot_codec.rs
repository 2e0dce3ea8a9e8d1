//! Differential suite for the `pardfs-snap v2` snapshot codecs: a
//! binary-loaded structure must be indistinguishable from a freshly built
//! one — not just equal at load time, but equally *usable* (further updates
//! applied to both must keep them identical).
//!
//! Covered here at the workspace level (each crate pins its own framing
//! details in unit tests):
//! * binary round trip ≡ identity for [`Graph`] and
//!   [`pardfs::tree::TreeIndex`], including byte-stability of
//!   `render(parse(render(x)))`;
//! * a binary-loaded graph stays behaviourally identical under continued
//!   mutation;
//! * a [`Checkpoint`]'s copying parse, the zero-copy [`CheckpointView`] over
//!   the same bytes and the captured state agree, for every backend;
//! * corruption at *every byte offset* and truncation at *every length* of
//!   a checkpoint is rejected rather than silently absorbed, by the copying
//!   parser and the view alike;
//! * the same holds for a published serving epoch opened by
//!   [`Snapshot::open_mapped`], which also refuses a well-framed file whose
//!   `TTOP` labels are missing, mis-sized or disagree with its parents.

use pardfs::graph::generators;
use pardfs::graph::snap::{SnapReader, SnapWriter};
use pardfs::seq::static_dfs_index;
use pardfs::wal::{Checkpoint, CheckpointView};
use pardfs::{Backend, ForestQuery, Graph, MaintainerBuilder, Snapshot, Update};
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

#[test]
fn binary_loaded_graph_is_indistinguishable_from_a_freshly_built_one() {
    let fresh = churned_graph(0xC0DEC);
    let loaded =
        Graph::parse_snapshot_binary(&fresh.render_snapshot_binary()).expect("own bytes parse");
    assert_eq!(loaded, fresh, "binary round trip changed the graph");

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
    assert_eq!(a, b, "binary-loaded graph diverged under further updates");
    assert_eq!(
        static_dfs_index(&a, 0).fingerprint(),
        static_dfs_index(&b, 0).fingerprint(),
        "binary-loaded graph produced a different DFS tree"
    );
}

#[test]
fn graph_codec_round_trip_is_byte_stable() {
    let g = churned_graph(0xA11CE);
    let bytes = g.render_snapshot_binary();
    let loaded = Graph::parse_snapshot_binary(&bytes).expect("own bytes parse");
    assert_eq!(loaded, g, "binary round trip changed the graph");
    assert_eq!(
        loaded.render_snapshot_binary(),
        bytes,
        "binary rendering is not byte-stable across a round trip"
    );
}

#[test]
fn tree_codec_round_trip_is_byte_stable() {
    let g = churned_graph(0x7EE);
    let idx = static_dfs_index(&g, 0);
    let bytes = idx.render_snapshot_binary();
    let loaded = pardfs::tree::TreeIndex::parse_snapshot_binary(&bytes).expect("own bytes parse");
    loaded
        .structural_eq(&idx)
        .expect("binary round trip changed the tree");
    assert_eq!(loaded.fingerprint(), idx.fingerprint());
    assert_eq!(loaded.render_snapshot_binary(), bytes);
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
        let mut dfs = MaintainerBuilder::new(backend).build(&g);
        dfs.apply_batch(&updates);
        let ckpt = Checkpoint::capture(7, dfs.as_ref());
        let bytes = ckpt.render_binary();
        let copied = Checkpoint::parse_binary(&bytes).expect("checkpoint parses");
        assert_eq!(
            copied.render_binary(),
            bytes,
            "checkpoint is not byte-stable"
        );
        // The zero-copy view over the same bytes must materialize the state
        // the copying parser produces.
        let view = CheckpointView::parse(&bytes).expect("checkpoint validates as a view");
        assert_eq!(view.epoch, 7);
        assert_eq!(view.backend(), ckpt.backend);
        let (view_graph, view_tree) = view.materialize().expect("view materializes");
        let from_view = Checkpoint {
            epoch: view.epoch,
            backend: view.backend().to_string(),
            fingerprint: view.fingerprint,
            graph: view_graph,
            tree: view_tree,
        };
        for (label, loaded) in [("copy", &copied), ("view", &from_view)] {
            assert_eq!(loaded.epoch, 7, "{label}: epoch");
            assert_eq!(loaded.backend, ckpt.backend, "{label}: backend");
            assert_eq!(loaded.fingerprint, ckpt.fingerprint, "{label}: fingerprint");
            assert_eq!(loaded.graph, ckpt.graph, "{label}: graph");
            loaded
                .tree
                .structural_eq(&ckpt.tree)
                .unwrap_or_else(|e| panic!("{label}: tree diverged: {e}"));
        }
    }
}

#[test]
fn corrupting_any_region_of_a_binary_checkpoint_is_rejected() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBAD);
    let g = generators::random_connected_gnm(48, 100, &mut rng);
    let dfs = MaintainerBuilder::new(Backend::Sequential).build(&g);
    let bytes = Checkpoint::capture(3, dfs.as_ref()).render_binary();
    assert!(Checkpoint::parse_binary(&bytes).is_ok(), "good bytes parse");
    assert!(CheckpointView::parse(&bytes).is_ok(), "good bytes validate");

    // Flip one byte at *every* offset of the file — magic, section table,
    // alignment padding, each payload, checksum. Every flip must surface as
    // an error through the copying parser and through the zero-copy view:
    // the whole-file checksum guards regions no structural validation
    // reaches.
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x20;
        assert!(
            Checkpoint::parse_binary(&bad).is_err(),
            "flip at byte {i}/{} was silently accepted",
            bytes.len()
        );
        assert!(
            CheckpointView::parse(&bad).is_err(),
            "flip at byte {i}/{} was accepted by the view",
            bytes.len()
        );
    }
    // Truncation at *every* length is rejected too (never a partial load),
    // by both paths.
    for cut in 0..bytes.len() {
        assert!(
            Checkpoint::parse_binary(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes was silently accepted"
        );
        assert!(
            CheckpointView::parse(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes was accepted by the view"
        );
    }
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
    let r = SnapReader::parse(&good).unwrap();
    let compose = |top: Option<&[u8]>| {
        let mut w = SnapWriter::new();
        for (tag, align) in [(*b"SHDR", 8), (*b"SBKD", 1), (*b"THDR", 8), (*b"TPAR", 8)] {
            w.section_aligned(tag, align)
                .extend_from_slice(r.section(tag).unwrap());
        }
        if let Some(top) = top {
            w.section_aligned(*b"TTOP", 8).extend_from_slice(top);
        }
        w.finish()
    };
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
    std::fs::remove_dir_all(&dir).ok();
}
