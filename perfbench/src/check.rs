//! Output checks, none inside a timed window: the final maintainer, every
//! (epoch, fingerprint) pair a reader used, and sampled read answers against
//! connectivity recomputed from the generator's own copy of the graph.

use crate::inputs::Inputs;
use pardfs::graph::connected_components;
use pardfs::serve::EpochRecord;
use pardfs::{Graph, Server, Update, Vertex};

/// `same_component` pairs the final maintainer is checked on.
const FINAL_PAIRS: usize = 4096;

/// The generator's graph replayed commit by commit, with its components.
pub struct Replay<'a> {
    graph: Graph,
    batches: &'a [Vec<Update>],
    epoch: u64,
    labels: Vec<u32>,
    components: usize,
}

impl<'a> Replay<'a> {
    /// The initial graph (epoch 0).
    pub fn new(inputs: &'a Inputs) -> Self {
        let (labels, components) = connected_components(&inputs.graph);
        Replay {
            graph: inputs.graph.clone(),
            batches: &inputs.batches,
            epoch: 0,
            labels,
            components,
        }
    }

    /// Move forward to the state after `epoch` commits.
    pub fn seek(&mut self, epoch: u64) -> Result<(), String> {
        if epoch < self.epoch || epoch > self.batches.len() as u64 {
            return Err(format!(
                "epoch {epoch} is not ahead of the replay (at {} of {})",
                self.epoch,
                self.batches.len()
            ));
        }
        if epoch > self.epoch {
            for update in self.batches[self.epoch as usize..epoch as usize]
                .iter()
                .flatten()
            {
                self.graph.apply(update);
            }
            self.epoch = epoch;
            (self.labels, self.components) = connected_components(&self.graph);
        }
        Ok(())
    }

    fn label(&self, v: Vertex) -> Option<u32> {
        self.labels
            .get(v as usize)
            .copied()
            .filter(|&l| l != u32::MAX)
    }

    /// Are `u` and `v` present and connected?
    pub fn connected(&self, u: Vertex, v: Vertex) -> bool {
        matches!((self.label(u), self.label(v)), (Some(a), Some(b)) if a == b)
    }
}

/// One read request's answers, kept to be checked after the run.
pub struct ReadSample {
    /// The epoch of the snapshot that answered.
    pub epoch: u64,
    /// Where the request's pairs start in the query ring.
    pub offset: usize,
    /// `same_component` answers, in ring order.
    pub same: Vec<bool>,
    /// `forest_parent` answers for the first vertex of the following pairs.
    pub parents: Vec<Option<Vertex>>,
    /// The `forest_roots` answer.
    pub roots: Vec<Vertex>,
}

/// Check a sampled request against `replay`, which must be at its epoch.
pub fn read_sample(
    sample: &ReadSample,
    pairs: &[(Vertex, Vertex)],
    replay: &Replay,
) -> Result<(), String> {
    let e = sample.epoch;
    let (same_pairs, parent_pairs) = pairs[sample.offset..].split_at(sample.same.len());
    for (&(u, v), &got) in same_pairs.iter().zip(&sample.same) {
        if got != replay.connected(u, v) {
            return Err(format!(
                "epoch {e}: same_component({u}, {v}) answered {got}"
            ));
        }
    }
    for (&(w, _), &got) in parent_pairs.iter().zip(&sample.parents) {
        let ok = match got {
            Some(p) => replay.graph.has_edge(w, p),
            None => replay.label(w).is_none() || sample.roots.contains(&w),
        };
        if !ok {
            return Err(format!("epoch {e}: forest_parent({w}) answered {got:?}"));
        }
    }
    let mut root_labels: Vec<Option<u32>> = sample.roots.iter().map(|&r| replay.label(r)).collect();
    root_labels.sort_unstable();
    root_labels.dedup();
    if sample.roots.len() != replay.components
        || root_labels.len() != sample.roots.len()
        || root_labels.contains(&None)
    {
        return Err(format!(
            "epoch {e}: forest_roots named {} roots for {} components",
            sample.roots.len(),
            replay.components
        ));
    }
    Ok(())
}

/// How many of the (epoch, fingerprint) pairs a reader used are missing
/// from the server's epoch log.
pub fn unlogged(observed: &[(u64, u64)], log: &[EpochRecord]) -> u64 {
    observed
        .iter()
        .filter(|&&(epoch, fingerprint)| {
            !log.get(epoch as usize)
                .is_some_and(|r| r.epoch == epoch && r.fingerprint == fingerprint)
        })
        .count() as u64
}

/// Final-state checks on the server after its last commit; `replay` must be
/// at the last epoch. Returns every failure found.
pub fn final_state(server: &Server, replay: &Replay, pairs: &[(Vertex, Vertex)]) -> Vec<String> {
    let mut errors = Vec::new();
    let m = server.maintainer();
    if let Err(e) = m.check() {
        errors.push(format!("check() of the final maintainer: {e}"));
    }
    let (n, e) = (replay.graph.num_vertices(), replay.graph.num_edges());
    if (m.num_vertices(), m.num_edges()) != (n, e) {
        errors.push(format!(
            "final maintainer holds {} vertices and {} edges, the generator's graph {n} and {e}",
            m.num_vertices(),
            m.num_edges()
        ));
    }
    let wrong = pairs
        .iter()
        .take(FINAL_PAIRS)
        .filter(|&&(u, v)| m.same_component(u, v) != replay.connected(u, v))
        .count();
    if wrong > 0 {
        errors.push(format!(
            "final maintainer: {wrong} of {FINAL_PAIRS} sampled same_component answers disagree with the generator's graph"
        ));
    }
    let served = server.read_handle().snapshot().fingerprint();
    if served != m.tree().fingerprint() {
        errors.push(format!(
            "the published snapshot's fingerprint {served:016x} is not the final tree's {:016x}",
            m.tree().fingerprint()
        ));
    }
    errors
}
