//! Ownership metadata and routing accounting of the [`PartitionedRouter`].
//!
//! The router applies each update on the single shard that *owns* the
//! touched component. The two types here are its bookkeeping:
//!
//! * [`OwnershipMap`] — the routing table: one owning shard per user vertex
//!   (or unowned for inactive slots). The router derives it from a
//!   component labelling and keeps it current across updates and component
//!   migrations.
//! * [`RoutingStats`] — what the routing did: how many updates went where,
//!   how many allocation echoes were broadcast, and how many component
//!   migrations moved how many vertices.
//!
//! [`PartitionedRouter`]: crate::PartitionedRouter

use pardfs_graph::Vertex;

/// The partitioned routing table: for every user-vertex slot, the shard
/// that owns its component — or unowned for slots not currently active.
///
/// The map is a dense `Vec` indexed by user vertex id, so lookups on the
/// commit path are one bounds-checked load. Capacity tracks the graph's
/// slot capacity: [`OwnershipMap::push`] mirrors a vertex insertion,
/// [`OwnershipMap::clear`] a deletion. Ownership of *existing* vertices
/// only changes through [`OwnershipMap::set`] — the serving layer calls it
/// when a cross-shard merge migrates a component.
///
/// ```
/// use pardfs_serve::OwnershipMap;
///
/// // Two components labelled 0 and 1 over four vertices, two shards:
/// // label mod k assigns component 0 -> shard 0, component 1 -> shard 1.
/// let labels = vec![0, 0, 1, 1, u32::MAX];
/// let mut map = OwnershipMap::from_labels(&labels, 2);
/// assert_eq!(map.owner(0), Some(0));
/// assert_eq!(map.owner(3), Some(1));
/// assert_eq!(map.owner(4), None); // inactive slot
/// assert_eq!(map.counts(), vec![2, 2]);
///
/// // A merge migrates vertices 2 and 3 onto shard 0...
/// map.set(2, 0);
/// map.set(3, 0);
/// assert_eq!(map.counts(), vec![4, 0]);
///
/// // ...and a new vertex extends the table.
/// map.push(Some(1));
/// assert_eq!(map.owner(5), Some(1));
/// assert_eq!(map.capacity(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnershipMap {
    owner: Vec<u32>,
    shards: u32,
}

/// Sentinel owner for slots that are inactive (deleted or never inserted).
const UNOWNED: u32 = u32::MAX;

impl OwnershipMap {
    /// Build the initial table from a component labelling (as produced by
    /// `pardfs_graph::connected_components`: `labels[v] == u32::MAX` for
    /// inactive slots, components numbered from 0 in order of their
    /// smallest vertex id). Component `c` is assigned to shard `c mod k`.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero or does not fit in a `u32`.
    pub fn from_labels(labels: &[u32], shards: usize) -> Self {
        assert!(shards > 0, "an ownership map needs at least one shard");
        let shards = u32::try_from(shards).expect("shard count fits in u32");
        OwnershipMap {
            owner: labels
                .iter()
                .map(|&label| {
                    if label == u32::MAX {
                        UNOWNED
                    } else {
                        label % shards
                    }
                })
                .collect(),
            shards,
        }
    }

    /// Number of vertex slots tracked (mirrors the graph's capacity).
    pub fn capacity(&self) -> usize {
        self.owner.len()
    }

    /// The shard owning user vertex `v`, or `None` when the slot is out of
    /// range or inactive.
    pub fn owner(&self, v: Vertex) -> Option<u32> {
        match self.owner.get(v as usize) {
            Some(&shard) if shard != UNOWNED => Some(shard),
            _ => None,
        }
    }

    /// Reassign an existing slot to `shard` (a component migration landed
    /// `v` there, or a fresh insertion reactivated the slot).
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of range or `shard` is not a valid shard id.
    pub fn set(&mut self, v: Vertex, shard: u32) {
        assert!(shard < self.shards, "shard {shard} out of range");
        self.owner[v as usize] = shard;
    }

    /// Mark slot `v` unowned (the vertex was deleted).
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of range.
    pub fn clear(&mut self, v: Vertex) {
        self.owner[v as usize] = UNOWNED;
    }

    /// Extend the table by one slot — the id-allocation mirror of
    /// `Graph::insert_vertex`, which always appends a new slot. `None`
    /// appends an unowned slot.
    ///
    /// # Panics
    ///
    /// Panics when `owner` is not a valid shard id.
    pub fn push(&mut self, owner: Option<u32>) {
        let shard = match owner {
            Some(shard) => {
                assert!(shard < self.shards, "shard {shard} out of range");
                shard
            }
            None => UNOWNED,
        };
        self.owner.push(shard);
    }

    /// Per-shard owned-vertex counts, in shard order.
    pub fn counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.shards as usize];
        for &shard in &self.owner {
            if shard != UNOWNED {
                counts[shard as usize] += 1;
            }
        }
        counts
    }
}

/// Accounting of what a partitioned router's routing layer did.
///
/// The headline is [`RoutingStats::max_applied_per_shard`]: a full copy of
/// the forest applies *every* update, while the router applies each routed
/// update on exactly one shard — plus cheap allocation echoes — so the
/// per-shard count drops towards `1/k` of the total on multi-component
/// workloads (asserted by the write-amplification test in
/// `tests/serve_partitioned.rs`).
///
/// ```
/// use pardfs_serve::RoutingStats;
///
/// let mut stats = RoutingStats::new(2);
/// stats.commits += 1;
/// stats.updates_routed += 3;
/// stats.applied_per_shard[0] += 2;
/// stats.applied_per_shard[1] += 1;
/// assert_eq!(stats.total_applied(), 3);
/// assert_eq!(stats.max_applied_per_shard(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingStats {
    /// Router epochs committed (one per `commit` call).
    pub commits: u64,
    /// Updates routed to exactly one owning shard.
    pub updates_routed: u64,
    /// Id-allocation echo updates broadcast to non-owning shards so every
    /// shard's vertex-id allocator stays in lockstep (each echo is an
    /// empty insert immediately retired by a delete).
    pub echo_updates: u64,
    /// Cross-shard component merges that migrated state.
    pub migrations: u64,
    /// Total vertices moved by those migrations.
    pub migrated_vertices: u64,
    /// Updates (routed + echo halves) each shard actually applied,
    /// in shard order.
    pub applied_per_shard: Vec<u64>,
}

impl RoutingStats {
    /// Fresh zeroed stats for a `shards`-way router.
    pub fn new(shards: usize) -> Self {
        RoutingStats {
            applied_per_shard: vec![0; shards],
            ..RoutingStats::default()
        }
    }

    /// The busiest shard's applied-update count — the write-amplification
    /// headline (a full copy of the forest applies the total update count).
    pub fn max_applied_per_shard(&self) -> u64 {
        self.applied_per_shard.iter().copied().max().unwrap_or(0)
    }

    /// Total updates applied across all shards.
    pub fn total_applied(&self) -> u64 {
        self.applied_per_shard.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_labels_applies_label_mod_k_and_preserves_inactive_slots() {
        let labels = vec![0, 1, 2, 3, u32::MAX, 2];
        let map = OwnershipMap::from_labels(&labels, 3);
        assert_eq!(map.capacity(), 6);
        assert_eq!(map.owner(0), Some(0));
        assert_eq!(map.owner(1), Some(1));
        assert_eq!(map.owner(2), Some(2));
        assert_eq!(map.owner(3), Some(0));
        assert_eq!(map.owner(4), None);
        assert_eq!(map.owner(5), Some(2));
        assert_eq!(map.owner(99), None, "out of range is unowned, not a panic");
        assert_eq!(map.counts(), vec![2, 1, 2]);
    }

    #[test]
    fn set_clear_push_track_the_vertex_lifecycle() {
        let mut map = OwnershipMap::from_labels(&[0, 0, 1], 2);
        map.clear(1);
        assert_eq!(map.owner(1), None);
        map.set(1, 1);
        assert_eq!(map.owner(1), Some(1));
        map.push(None);
        map.push(Some(0));
        assert_eq!(map.capacity(), 5);
        assert_eq!(map.owner(3), None);
        assert_eq!(map.owner(4), Some(0));
        assert_eq!(map.counts(), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = OwnershipMap::from_labels(&[0], 0);
    }

    #[test]
    fn routing_stats_aggregate() {
        let mut stats = RoutingStats::new(3);
        assert_eq!(stats.max_applied_per_shard(), 0);
        stats.applied_per_shard[0] = 5;
        stats.applied_per_shard[2] = 9;
        assert_eq!(stats.total_applied(), 14);
        assert_eq!(stats.max_applied_per_shard(), 9);
    }
}
