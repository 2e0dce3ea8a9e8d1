//! The parallel rerooting engine (Section 4 of the paper).
//!
//! Rerooting a subtree `T(r0)` at a new root `r*` proceeds in synchronous
//! rounds. The engine maintains a set of *components* of the unvisited graph;
//! in every round each live component performs one traversal, attaches the
//! traversed path to the new tree `T*`, and splits into new components whose
//! entry points are determined by the components property (Lemma 1): each new
//! component hangs from the edge incident *nearest to the end* of the freshly
//! traversed path.
//!
//! Two [`Strategy`] values select the traversal rule:
//!
//! * [`Strategy::Simple`] — every component is a single subtree of the old
//!   tree and the traversal walks from the entry vertex all the way to the
//!   subtree's root. This is the rerooting procedure of the sequential
//!   baseline \[6\], executed level-by-level in parallel; its round depth can be
//!   `Θ(n)` in the worst case.
//! * [`Strategy::Phased`] — components carry untraversed *path* pieces in
//!   addition to subtrees. A component entered on a path performs *path
//!   halving* (Section 4.2); a component entered inside a subtree performs a
//!   *disintegrating traversal* towards `v_H`, the deepest vertex holding more
//!   than half of the subtree (Section 4.1), which guarantees that every
//!   remaining subtree piece has at most half the size. See the crate-level
//!   faithfulness note for how this relates to the paper's heavy-subtree
//!   scenarios.
//!
//! All edge information is obtained through a [`QueryOracle`], so the same
//! engine runs on the in-memory structure `D`, on a drifted `D` queried
//! through base-tree segments (the live `D` between rebuilds and the
//! original `D` of the fault tolerant algorithm), on a semi-streaming pass
//! oracle and on the CONGEST broadcast oracle.
//!
//! Every group of pieces that a traversal leaves behind attaches to the path
//! that traversal just walked: the group is a connected part of a connected
//! component minus that path, so it has an edge to the path (Lemma 1). The
//! engine therefore never looks further back than the latest traversal.

use pardfs_api::{RerootStats, TraversalKind};
use pardfs_graph::Vertex;
use pardfs_query::{EdgeHit, QueryOracle, VertexQuery};
use pardfs_tree::paths::{path_vertices, PathSeg};
use pardfs_tree::rooted::NO_VERTEX;
use pardfs_tree::{TreeIndex, TreePatch};
use rayon::prelude::*;
use std::collections::HashSet;

/// Traversal selection rule of the rerooting engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Baswana-style root-path traversals (parallelised sequential baseline).
    Simple,
    /// Disintegrating traversals + path halving (the paper's phased engine
    /// with per-component thresholds).
    #[default]
    Phased,
}

/// A subtree-rerooting task produced by the reduction (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RerootJob {
    /// Root (in the old tree) of the subtree to reroot.
    pub sub_root: Vertex,
    /// Vertex of that subtree that becomes its new root.
    pub new_root: Vertex,
    /// Vertex of `T*` the new root will hang from.
    pub attach_parent: Vertex,
}

/// One ancestor–descendant segment of the freshly traversed path, tagged with
/// the endpoint that was traversed *last* (the "near" end for attachment
/// queries: the components property wants the edge nearest to the end of the
/// traversal).
#[derive(Debug, Clone, Copy)]
struct TraversalSeg {
    seg: PathSeg,
    near: Vertex,
}

/// A connected component of the unvisited graph.
#[derive(Debug, Clone)]
struct Component {
    /// Entry vertex (the future root of this component's DFS subtree).
    rc: Vertex,
    /// Vertex of `T*` the entry vertex hangs from.
    attach_parent: Vertex,
    /// Untraversed ancestor–descendant path pieces of the old tree.
    paths: Vec<PathSeg>,
    /// Roots of untraversed full subtrees of the old tree.
    subtrees: Vec<Vertex>,
}

/// Output of processing one component for one round.
struct StepOutput {
    assignments: Vec<(Vertex, Vertex)>,
    new_components: Vec<Component>,
    kind: Option<TraversalKind>,
    query_sets: u64,
    query_batches: u64,
    queries: u64,
    max_paths: u64,
}

/// The rerooting engine. Borrowing the old tree index and a query oracle, it
/// records the new parent pointers of the rerooted subtrees as a
/// [`TreePatch`], so the caller can delta-patch its tree index instead of
/// rebuilding it.
pub struct Rerooter<'a> {
    idx: &'a TreeIndex,
    oracle: &'a dyn QueryOracle,
    strategy: Strategy,
}

impl<'a> Rerooter<'a> {
    /// Create an engine over the old tree `idx` and the given oracle.
    pub fn new(idx: &'a TreeIndex, oracle: &'a dyn QueryOracle, strategy: Strategy) -> Self {
        Rerooter {
            idx,
            oracle,
            strategy,
        }
    }

    /// Execute all reroot jobs, recording the new parent of every affected
    /// vertex into `patch` (untouched subtrees keep their structure).
    pub fn run(&self, jobs: &[RerootJob], patch: &mut TreePatch) -> RerootStats {
        let mut stats = RerootStats::default();
        let mut components: Vec<Component> = jobs
            .iter()
            .map(|j| {
                debug_assert!(self.idx.is_ancestor(j.sub_root, j.new_root));
                Component {
                    rc: j.new_root,
                    attach_parent: j.attach_parent,
                    paths: Vec::new(),
                    subtrees: vec![j.sub_root],
                }
            })
            .collect();

        while !components.is_empty() {
            stats.rounds += 1;
            stats.components += components.len() as u64;
            // One traversal per live component, fanned out across the
            // executor's workers (each `step` is a coarse, independent unit —
            // exactly the per-round parallelism Theorem 12 charges one
            // parallel step for). A lone component stays on this thread.
            let outputs: Vec<StepOutput> = if components.len() > 1 {
                components.par_iter().map(|c| self.step(c)).collect()
            } else {
                components.iter().map(|c| self.step(c)).collect()
            };
            let mut round_max_sets = 0u64;
            let mut next = Vec::new();
            for out in outputs {
                round_max_sets = round_max_sets.max(out.query_sets);
                stats.query_batches += out.query_batches;
                stats.queries += out.queries;
                stats.max_paths_in_component = stats.max_paths_in_component.max(out.max_paths);
                if let Some(kind) = out.kind {
                    stats.record_traversal(kind);
                }
                for (child, parent) in out.assignments {
                    debug_assert_ne!(parent, NO_VERTEX);
                    patch.assign(child, parent);
                    stats.relinked_vertices += 1;
                }
                next.extend(out.new_components);
            }
            stats.query_sets += round_max_sets;
            components = next;
        }
        stats
    }

    /// Process one component for one round.
    fn step(&self, c: &Component) -> StepOutput {
        // Fast path of [6]: a lone subtree entered through its own root keeps
        // its internal structure; only the attachment edge changes.
        if c.paths.is_empty() && c.subtrees.len() == 1 && c.subtrees[0] == c.rc {
            return StepOutput {
                assignments: vec![(c.rc, c.attach_parent)],
                new_components: Vec::new(),
                kind: None,
                query_sets: 0,
                query_batches: 0,
                queries: 0,
                max_paths: c.paths.len() as u64,
            };
        }
        if let Some(pi) = c.paths.iter().position(|p| p.contains(self.idx, c.rc)) {
            return self.step_path_halve(c, pi);
        }
        let ti = c
            .subtrees
            .iter()
            .position(|&s| self.idx.is_ancestor(s, c.rc))
            .expect("component entry vertex must lie on one of its pieces");
        match self.strategy {
            Strategy::Simple => self.step_subtree(c, ti, TraversalKind::RootPath),
            Strategy::Phased => self.step_subtree(c, ti, TraversalKind::Disintegrate),
        }
    }

    /// Traverse inside the subtree containing `rc`, either to the subtree root
    /// (`RootPath`) or to the heavy vertex `v_H` (`Disintegrate`).
    fn step_subtree(&self, c: &Component, ti: usize, kind: TraversalKind) -> StepOutput {
        let idx = self.idx;
        let sub_root = c.subtrees[ti];
        let goal = match kind {
            TraversalKind::RootPath => sub_root,
            TraversalKind::Disintegrate => {
                let threshold = idx.size(sub_root) / 2;
                idx.heavy_descendant(sub_root, threshold)
            }
            TraversalKind::PathHalve => unreachable!("path halving is not a subtree traversal"),
        };
        let vl = idx.lca(c.rc, goal);

        // Ordered traversal: rc -> vl (upwards), then vl -> goal (downwards).
        let mut ordered = path_vertices(idx, c.rc, vl);
        let mut segs = vec![TraversalSeg {
            seg: PathSeg {
                top: vl,
                bottom: c.rc,
            },
            near: vl,
        }];
        if goal != vl {
            let first_down = idx.child_toward(vl, goal);
            let mut down = path_vertices(idx, goal, first_down);
            down.reverse();
            ordered.extend_from_slice(&down);
            segs.push(TraversalSeg {
                seg: PathSeg {
                    top: first_down,
                    bottom: goal,
                },
                near: goal,
            });
        }

        let mut assignments = Vec::with_capacity(ordered.len());
        let mut prev = c.attach_parent;
        for &v in &ordered {
            assignments.push((v, prev));
            prev = v;
        }
        let traversed: HashSet<Vertex> = ordered.iter().copied().collect();

        // Remaining pieces of the traversed subtree.
        let mut piece_paths: Vec<PathSeg> = Vec::new();
        let mut piece_subtrees: Vec<Vertex> = Vec::new();
        for &v in &ordered {
            for &ch in idx.children(v) {
                if !traversed.contains(&ch) && idx.is_ancestor(sub_root, ch) {
                    piece_subtrees.push(ch);
                }
            }
        }
        // Leftover spine above the branch point (only when the traversal did
        // not reach the subtree root).
        if vl != sub_root {
            let spine = PathSeg {
                top: sub_root,
                bottom: idx.parent(vl).expect("vl below sub_root has a parent"),
            };
            for v in spine.vertices_bottom_up(idx) {
                for &ch in idx.children(v) {
                    if ch != vl && !spine.contains(idx, ch) {
                        piece_subtrees.push(ch);
                    }
                }
            }
            piece_paths.push(spine);
        }
        // Untouched pieces of the component.
        piece_paths.extend(c.paths.iter().copied());
        piece_subtrees.extend(c.subtrees.iter().copied().filter(|&s| s != sub_root));

        self.regroup(
            c,
            segs,
            piece_paths,
            piece_subtrees,
            assignments,
            Some(kind),
        )
    }

    /// Path halving (Section 4.2): traverse from `rc` to the farther end of the
    /// path piece containing it.
    fn step_path_halve(&self, c: &Component, pi: usize) -> StepOutput {
        let idx = self.idx;
        let p = c.paths[pi];
        let end = p.farther_end(idx, c.rc);
        let ordered: Vec<Vertex> = if end == p.top {
            path_vertices(idx, c.rc, p.top)
        } else {
            let mut down = path_vertices(idx, p.bottom, c.rc);
            down.reverse();
            down
        };
        let seg = TraversalSeg {
            seg: PathSeg::new(idx, c.rc, end),
            near: end,
        };
        let mut assignments = Vec::with_capacity(ordered.len());
        let mut prev = c.attach_parent;
        for &v in &ordered {
            assignments.push((v, prev));
            prev = v;
        }
        let mut piece_paths: Vec<PathSeg> = Vec::new();
        if let Some(rest) = p.remainder_after_walk(idx, c.rc, end) {
            piece_paths.push(rest);
        }
        for (i, other) in c.paths.iter().enumerate() {
            if i != pi {
                piece_paths.push(*other);
            }
        }
        let piece_subtrees = c.subtrees.clone();
        self.regroup(
            c,
            vec![seg],
            piece_paths,
            piece_subtrees,
            assignments,
            Some(TraversalKind::PathHalve),
        )
    }

    /// After a traversal: group the remaining pieces into connected components
    /// (via existence queries), find each group's attachment edge on the
    /// freshly traversed path (components property), and emit the new
    /// components.
    fn regroup(
        &self,
        c: &Component,
        trav: Vec<TraversalSeg>,
        paths: Vec<PathSeg>,
        subtrees: Vec<Vertex>,
        assignments: Vec<(Vertex, Vertex)>,
        kind: Option<TraversalKind>,
    ) -> StepOutput {
        let idx = self.idx;
        let mut query_sets = 0u64;
        let mut query_batches = 0u64;
        let mut queries = 0u64;

        let n_paths = paths.len();
        let n_pieces = n_paths + subtrees.len();
        // Piece i: 0..n_paths are paths, n_paths.. are subtrees.
        let piece_vertices = |i: usize| -> Vec<Vertex> {
            if i < n_paths {
                paths[i].vertices_bottom_up(idx)
            } else {
                idx.subtree_vertices(subtrees[i - n_paths]).to_vec()
            }
        };

        // --- 1. connectivity grouping -------------------------------------
        // Subtree–subtree edges cannot exist in a DFS tree, so only edges
        // between a piece and a *path* piece can merge groups. With no path
        // pieces every piece is its own component and no queries are needed.
        let mut dsu: Vec<usize> = (0..n_pieces).collect();
        fn find(dsu: &mut [usize], mut x: usize) -> usize {
            while dsu[x] != x {
                dsu[x] = dsu[dsu[x]];
                x = dsu[x];
            }
            x
        }
        if n_paths > 0 && n_pieces > 1 {
            let mut batch: Vec<VertexQuery> = Vec::new();
            let mut tags: Vec<(usize, usize)> = Vec::new(); // (piece, target path)
            for i in 0..n_pieces {
                for (j, p) in paths.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    for w in piece_vertices(i) {
                        for (a, b) in self.oracle.decompose_path(idx, p.top, p.bottom) {
                            batch.push(VertexQuery::new(w, a, b));
                            tags.push((i, j));
                        }
                    }
                }
            }
            if !batch.is_empty() {
                query_sets += 1;
                query_batches += 1;
                queries += batch.len() as u64;
                let answers = self.oracle.answer_batch(&batch);
                for ((piece, path_piece), hit) in tags.iter().zip(&answers) {
                    if hit.is_some() {
                        let (a, b) = (find(&mut dsu, *piece), find(&mut dsu, *path_piece));
                        if a != b {
                            dsu[a] = b;
                        }
                    }
                }
            }
        }
        let mut groups: Vec<Vec<usize>> = Vec::new();
        {
            let mut group_of = vec![usize::MAX; n_pieces];
            for i in 0..n_pieces {
                let r = find(&mut dsu, i);
                if group_of[r] == usize::MAX {
                    group_of[r] = groups.len();
                    groups.push(Vec::new());
                }
                groups[group_of[r]].push(i);
            }
        }

        // --- 2. attachment on the freshly traversed path -------------------
        // One batch: every vertex of every piece against every traversal
        // segment (decomposed into oracle-tree segments).
        #[derive(Clone, Copy)]
        struct Tag {
            group: usize,
            seg_rank: u32, // 0 = latest traversal segment (preferred)
            sub_rank: u32, // position within the decomposition (preferred = 0)
        }
        let mut batch: Vec<VertexQuery> = Vec::new();
        let mut tags: Vec<Tag> = Vec::new();
        let group_of_piece = {
            let mut v = vec![0usize; n_pieces];
            for (g, members) in groups.iter().enumerate() {
                for &m in members {
                    v[m] = g;
                }
            }
            v
        };
        for (i, &g) in group_of_piece.iter().enumerate().take(n_pieces) {
            for w in piece_vertices(i) {
                for (s_idx, ts) in trav.iter().enumerate().rev() {
                    let far = if ts.near == ts.seg.top {
                        ts.seg.bottom
                    } else {
                        ts.seg.top
                    };
                    for (k, (a, b)) in self
                        .oracle
                        .decompose_path(idx, ts.near, far)
                        .into_iter()
                        .enumerate()
                    {
                        batch.push(VertexQuery::new(w, a, b));
                        tags.push(Tag {
                            group: g,
                            seg_rank: (trav.len() - 1 - s_idx) as u32,
                            sub_rank: k as u32,
                        });
                    }
                }
            }
        }
        // (segment rank, sub rank, rank from near) — lexicographically smaller wins.
        type AttachKey = (u32, u32, u32);
        let mut best: Vec<Option<(AttachKey, EdgeHit)>> = vec![None; groups.len()];
        if !batch.is_empty() {
            query_sets += 1;
            query_batches += 1;
            queries += batch.len() as u64;
            let answers = self.oracle.answer_batch(&batch);
            for (tag, hit) in tags.iter().zip(&answers) {
                if let Some(h) = hit {
                    let key = (tag.seg_rank, tag.sub_rank, h.rank_from_near);
                    let slot = &mut best[tag.group];
                    if slot.is_none_or(|(k, _)| key < k) {
                        *slot = Some((key, *h));
                    }
                }
            }
        }

        let mut new_components = Vec::with_capacity(groups.len());
        for (g, members) in groups.iter().enumerate() {
            let Some((_, attach)) = best[g] else {
                panic!(
                    "rerooting invariant violated: a piece has no edge to the \
                     freshly traversed path (component entered at {})",
                    c.rc
                );
            };
            let mut comp = Component {
                rc: attach.from,
                attach_parent: attach.on_path,
                paths: Vec::new(),
                subtrees: Vec::new(),
            };
            for &m in members {
                if m < n_paths {
                    comp.paths.push(paths[m]);
                } else {
                    comp.subtrees.push(subtrees[m - n_paths]);
                }
            }
            new_components.push(comp);
        }

        let max_paths = new_components
            .iter()
            .map(|c| c.paths.len() as u64)
            .max()
            .unwrap_or(0)
            .max(c.paths.len() as u64);
        StepOutput {
            assignments,
            new_components,
            kind,
            query_sets,
            query_batches,
            queries,
            max_paths,
        }
    }
}
