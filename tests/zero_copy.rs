//! Pins the zero-copy contract of the v2 read path.
//!
//! `pardfs::graph::snap::copied_array_bytes()` is a process-wide counter
//! charged where owned state is made from snapshot bytes
//! (`GraphView::to_graph`, `TreeView::to_index`, `MappedEpoch::materialize`)
//! — every byte of `GADJ`/`GDEG`/`TPAR` payload copied into owned state
//! moves it. The borrowed views ([`pardfs::GraphView`],
//! [`pardfs::TreeView`], [`pardfs::CheckpointView`], [`pardfs::MappedEpoch`])
//! must answer queries straight out of the mapped or in-memory buffer, so
//! across *validate + query* the counter must not move at all.
//!
//! This pin lives in its own integration-test binary on purpose: the counter
//! is process-global, and any concurrently running test that materializes a
//! checkpoint would charge it mid-measurement.

use pardfs::graph::generators;
use pardfs::graph::snap::copied_array_bytes;
use pardfs::wal::{render_checkpoint, CheckpointView};
use pardfs::{Backend, ForestQuery, MaintainerBuilder, Snapshot, Update};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

#[test]
fn view_backed_reads_copy_zero_array_bytes() {
    // Churn a graph through a live maintainer so the captured state is not
    // a pristine generator output.
    let mut rng = ChaCha8Rng::seed_from_u64(0x0C0);
    let g = generators::random_connected_gnm(96, 280, &mut rng);
    let mut dfs = MaintainerBuilder::new(Backend::Parallel).build(&g);
    for _ in 0..40 {
        let u = rng.gen_range(0..96);
        let v = rng.gen_range(0..96);
        if u != v {
            dfs.apply_update(&Update::InsertEdge(u, v));
        }
    }
    let v2 = render_checkpoint(11, dfs.as_ref());

    // --- View path: validate once, then borrow. Zero array bytes copied. ---
    let before = copied_array_bytes();
    let view = CheckpointView::parse(&v2).expect("v2 checkpoint validates");
    let graph = view.graph();
    let tree = view.tree();
    let mut degree_sum = 0usize;
    for v in 0..graph.capacity() as u32 {
        degree_sum += graph.neighbours(v).len();
        if let Some(&w) = graph.neighbours(v).first() {
            assert!(graph.neighbours(w).contains(&v), "symmetry at {v}");
        }
        let _ = tree.parent(v);
    }
    assert_eq!(degree_sum, 2 * graph.num_edges());
    assert_eq!(
        copied_array_bytes(),
        before,
        "the borrowed view path copied array bytes"
    );

    // --- Mapped serving path: publish an epoch file, open it mmapped, and
    // answer forest queries off `TPAR` and `TTOP` in place — still zero
    // array bytes copied. ---
    let dir = std::env::temp_dir().join(format!("pardfs-zero-copy-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.epoch");
    Snapshot::capture(11, dfs.as_ref())
        .publish_to(&path)
        .unwrap();
    let before = copied_array_bytes();
    let mapped = Snapshot::open_mapped(&path).expect("published epoch opens");
    for v in 0..mapped.num_vertices() as u32 {
        let _ = mapped.forest_parent(v);
        assert!(mapped.same_component(v, v));
        assert_eq!(mapped.same_component(v, 0), dfs.same_component(v, 0));
    }
    assert_eq!(
        copied_array_bytes(),
        before,
        "the mapped epoch read path copied array bytes"
    );

    // --- Materializing paths: the same bytes, materialized, must charge at
    // least the u32 array payloads they copy (adjacency, degrees, parents),
    // and a mapped epoch its parent array. This is what makes the zeros
    // above meaningful. ---
    let before = copied_array_bytes();
    let (graph, _tree) = view.materialize().expect("the checkpoint materializes");
    let floor = 4 * (2 * graph.num_edges() + 2 * graph.capacity()) as u64;
    assert!(
        copied_array_bytes() >= before + floor,
        "materializing a checkpoint should copy at least {floor} array bytes"
    );
    let before = copied_array_bytes();
    let index = mapped
        .materialize()
        .expect("the published epoch materializes");
    let floor = 4 * index.capacity() as u64;
    assert!(
        copied_array_bytes() >= before + floor,
        "materializing an epoch should copy at least {floor} array bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}
