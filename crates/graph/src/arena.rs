//! The flat adjacency arena: every per-slot neighbour list lives as one
//! contiguous block inside a single shared pool.
//!
//! This is the storage layer behind [`crate::Graph`]'s adjacency (and the
//! tree crate's children lists): instead of a `Vec<Vec<Vertex>>` — one heap
//! allocation per vertex, scattered across the allocator — the arena keeps
//! **one** `Vec<Vertex>` pool carved into power-of-two blocks, with three
//! small per-slot arrays (`head`, `len`, `cap`) locating each slot's block.
//! Freed blocks go onto per-size-class free lists and are reused before the
//! pool grows.
//!
//! ## Why blocks, not intrusive linked edge lists
//!
//! The atlaspack-style alternative (an edge pool with intrusive doubly-linked
//! per-vertex lists) also serializes flat, but it changes two properties this
//! workspace's trajectory semantics depend on:
//!
//! * `neighbors(v)` must stay a **contiguous `&[Vertex]` slice** — every
//!   consumer from the DFS engines to the snapshot writer iterates it
//!   directly, and a linked list would force either an allocation per call
//!   or an API break.
//! * Deletion must keep the exact `swap_remove` reordering of the previous
//!   `Vec<Vec<_>>` representation: adjacency *order* determines DFS tree
//!   shape, and the recorded corpus traces pin tree fingerprints update by
//!   update. A linked list deletes in place and would re-run every recorded
//!   trajectory differently.
//!
//! Per-slot contiguous blocks give the flat pool, the free list and the
//! cheap flat serialization while preserving both properties bit for bit.
//!
//! ## Layout
//!
//! ```text
//! pool: [ b0 b0 b0 b0 | b1 b1 b1 b1 b1 b1 b1 b1 | b2 b2 b2 b2 | ... ]
//!         ^ slot 3's block (cap 4)  ^ slot 0's (cap 8)   ^ free (class 2)
//! head[s] = offset of slot s's block     (NO_BLOCK when cap == 0)
//! len[s]  = live entries of slot s       (prefix of its block)
//! cap[s]  = block capacity               (0 or a power of two >= 4)
//! free[k] = offsets of free blocks of capacity 1 << k
//! ```
//!
//! Growth doubles a slot's block (minimum capacity 4), copying the live
//! prefix and freeing the old block into its size class — amortised O(1) per
//! push, exactly like `Vec`. Equality ([`PartialEq`]) compares the *logical*
//! lists, never the physical placement: two arenas that hold the same lists
//! in different pool layouts are equal.

use crate::graph::Vertex;

/// `head` sentinel for a slot that owns no block.
const NO_BLOCK: u32 = u32::MAX;

/// Smallest allocated block capacity (a power of two).
const MIN_BLOCK: u32 = 4;

/// A flat arena of per-slot `Vertex` lists backed by one shared pool.
///
/// See the [module docs](self) for the layout. All list operations preserve
/// the order semantics of a plain `Vec<Vertex>` per slot: [`push`] appends,
/// [`swap_remove`] moves the last entry into the removed position.
///
/// [`push`]: AdjacencyArena::push
/// [`swap_remove`]: AdjacencyArena::swap_remove
#[derive(Debug, Clone, Default)]
pub struct AdjacencyArena {
    pool: Vec<Vertex>,
    head: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
    free: Vec<Vec<u32>>,
}

impl AdjacencyArena {
    /// An arena with `n` empty slots (no pool allocation yet).
    pub fn with_slots(n: usize) -> Self {
        AdjacencyArena {
            pool: Vec::new(),
            head: vec![NO_BLOCK; n],
            len: vec![0; n],
            cap: vec![0; n],
            free: Vec::new(),
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.head.len()
    }

    /// Bulk-load an arena from a packed representation: slot `i` receives
    /// the next `counts[i]` entries of `flat`, in order. This is the
    /// deserialization fast path — one pre-sized pool allocation and one
    /// contiguous copy per slot, instead of per-entry pushes with their
    /// doubling copies. The result is logically identical to pushing the
    /// same lists one entry at a time (equality is logical), though the
    /// physical layout is tighter: blocks sit in slot order with no freed
    /// intermediates.
    ///
    /// `flat` must hold exactly `counts.iter().sum()` entries.
    pub fn from_packed(counts: &[usize], flat: &[Vertex]) -> AdjacencyArena {
        assert_eq!(
            counts.iter().sum::<usize>(),
            flat.len(),
            "packed payload length disagrees with the per-slot counts"
        );
        let block_cap = |c: usize| -> usize { c.next_power_of_two().max(MIN_BLOCK as usize) };
        let pool_cap: usize = counts
            .iter()
            .map(|&c| if c == 0 { 0 } else { block_cap(c) })
            .sum();
        let mut pool: Vec<Vertex> = Vec::with_capacity(pool_cap);
        let mut head = Vec::with_capacity(counts.len());
        let mut len = Vec::with_capacity(counts.len());
        let mut cap = Vec::with_capacity(counts.len());
        let mut off = 0usize;
        for &c in counts {
            if c == 0 {
                head.push(NO_BLOCK);
                len.push(0);
                cap.push(0);
                continue;
            }
            let block = block_cap(c);
            head.push(pool.len() as u32);
            len.push(c as u32);
            cap.push(block as u32);
            pool.extend_from_slice(&flat[off..off + c]);
            pool.resize(pool.len() + (block - c), 0);
            off += c;
        }
        AdjacencyArena {
            pool,
            head,
            len,
            cap,
            free: Vec::new(),
        }
    }

    /// Append one empty slot, returning its index.
    pub fn add_slot(&mut self) -> usize {
        self.head.push(NO_BLOCK);
        self.len.push(0);
        self.cap.push(0);
        self.head.len() - 1
    }

    /// The live entries of slot `s`, as a contiguous slice.
    pub fn list(&self, s: Vertex) -> &[Vertex] {
        let s = s as usize;
        if self.len[s] == 0 {
            return &[];
        }
        let h = self.head[s] as usize;
        &self.pool[h..h + self.len[s] as usize]
    }

    /// Length of slot `s`'s list.
    pub fn len_of(&self, s: Vertex) -> usize {
        self.len[s as usize] as usize
    }

    /// Size class of a (power-of-two) block capacity.
    fn class(cap: u32) -> usize {
        debug_assert!(cap.is_power_of_two());
        cap.trailing_zeros() as usize
    }

    /// Take a block of capacity `cap` (a power of two) off the free list, or
    /// carve a fresh one off the end of the pool.
    fn alloc_block(&mut self, cap: u32) -> u32 {
        let k = Self::class(cap);
        if let Some(off) = self.free.get_mut(k).and_then(Vec::pop) {
            return off;
        }
        let off = self.pool.len() as u32;
        self.pool.resize(self.pool.len() + cap as usize, 0);
        off
    }

    /// Return slot-owned block `(off, cap)` to its size-class free list.
    fn free_block(&mut self, off: u32, cap: u32) {
        let k = Self::class(cap);
        if self.free.len() <= k {
            self.free.resize_with(k + 1, Vec::new);
        }
        self.free[k].push(off);
    }

    /// Append `x` to slot `s`'s list (amortised O(1); grows the slot's block
    /// by doubling when full).
    pub fn push(&mut self, s: Vertex, x: Vertex) {
        let si = s as usize;
        if self.len[si] == self.cap[si] {
            let old_cap = self.cap[si];
            let new_cap = (old_cap * 2).max(MIN_BLOCK);
            let new_off = self.alloc_block(new_cap);
            if old_cap > 0 {
                let old_off = self.head[si] as usize;
                self.pool
                    .copy_within(old_off..old_off + self.len[si] as usize, new_off as usize);
                self.free_block(self.head[si], old_cap);
            }
            self.head[si] = new_off;
            self.cap[si] = new_cap;
        }
        self.pool[self.head[si] as usize + self.len[si] as usize] = x;
        self.len[si] += 1;
    }

    /// Remove and return the entry at `pos` of slot `s`, moving the last
    /// entry into its place (the `Vec::swap_remove` order semantics the DFS
    /// trajectory depends on). The block is kept for reuse.
    pub fn swap_remove(&mut self, s: Vertex, pos: usize) -> Vertex {
        let si = s as usize;
        let l = self.len[si] as usize;
        assert!(pos < l, "swap_remove position {pos} out of bounds {l}");
        let h = self.head[si] as usize;
        let removed = self.pool[h + pos];
        self.pool[h + pos] = self.pool[h + l - 1];
        self.len[si] -= 1;
        removed
    }

    /// Empty slot `s` and return its former entries, releasing its block to
    /// the free list (the arena analogue of `mem::take` on a `Vec`).
    pub fn take(&mut self, s: Vertex) -> Vec<Vertex> {
        let out = self.list(s).to_vec();
        let si = s as usize;
        if self.cap[si] > 0 {
            let (off, cap) = (self.head[si], self.cap[si]);
            self.free_block(off, cap);
        }
        self.head[si] = NO_BLOCK;
        self.len[si] = 0;
        self.cap[si] = 0;
        out
    }

    /// Replace slot `s`'s list wholesale (the tree patch splice). Reuses the
    /// existing block when it fits, otherwise reallocates a fitting one.
    pub fn replace(&mut self, s: Vertex, items: &[Vertex]) {
        let si = s as usize;
        if items.is_empty() {
            self.len[si] = 0;
            return;
        }
        if items.len() > self.cap[si] as usize {
            if self.cap[si] > 0 {
                let (off, cap) = (self.head[si], self.cap[si]);
                self.free_block(off, cap);
            }
            let new_cap = (items.len() as u32).next_power_of_two().max(MIN_BLOCK);
            self.head[si] = self.alloc_block(new_cap);
            self.cap[si] = new_cap;
        }
        let h = self.head[si] as usize;
        self.pool[h..h + items.len()].copy_from_slice(items);
        self.len[si] = items.len() as u32;
    }

    /// Arena-backed memory accounting: every word of the pool (live entries,
    /// slack inside blocks, and free blocks awaiting reuse) **plus** one
    /// bookkeeping word per free-list entry. This is the allocation reality
    /// a `Vec<Vec<_>>` sum of `len()`s under-reported.
    pub fn words(&self) -> usize {
        self.pool.len() + self.free.iter().map(Vec::len).sum::<usize>()
    }
}

/// Logical equality: same slot count and the same list per slot, regardless
/// of where the blocks physically sit in the pool.
impl PartialEq for AdjacencyArena {
    fn eq(&self, other: &Self) -> bool {
        self.slots() == other.slots()
            && (0..self.slots() as Vertex).all(|s| self.list(s) == other.list(s))
    }
}

impl Eq for AdjacencyArena {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_swap_remove_mirror_vec_semantics() {
        let mut a = AdjacencyArena::with_slots(2);
        let mut v: Vec<Vertex> = Vec::new();
        for x in [10, 20, 30, 40, 50] {
            a.push(0, x);
            v.push(x);
            assert_eq!(a.list(0), v.as_slice());
        }
        // swap_remove order must match Vec's exactly.
        assert_eq!(a.swap_remove(0, 1), v.swap_remove(1));
        assert_eq!(a.list(0), v.as_slice());
        assert_eq!(a.swap_remove(0, 0), v.swap_remove(0));
        assert_eq!(a.list(0), v.as_slice());
        assert_eq!(a.list(1), &[] as &[Vertex]);
    }

    #[test]
    fn blocks_grow_by_doubling_and_freed_blocks_are_reused() {
        let mut a = AdjacencyArena::with_slots(2);
        for x in 0..4 {
            a.push(0, x);
        }
        let pool_after_first_block = a.words();
        assert_eq!(pool_after_first_block, 4, "one minimum block");
        a.push(0, 4); // grows 4 -> 8: pool 4 + 8, old block on the free list
        assert_eq!(a.words(), 4 + 8 + 1);
        a.push(1, 99); // reuses the freed 4-block instead of growing the pool
        assert_eq!(a.words(), 4 + 8);
        assert_eq!(a.list(0), &[0, 1, 2, 3, 4]);
        assert_eq!(a.list(1), &[99]);
    }

    #[test]
    fn take_releases_the_block_and_returns_the_entries() {
        let mut a = AdjacencyArena::with_slots(1);
        a.push(0, 7);
        a.push(0, 8);
        assert_eq!(a.take(0), vec![7, 8]);
        assert_eq!(a.list(0), &[] as &[Vertex]);
        assert_eq!(a.len_of(0), 0);
        assert_eq!(a.words(), 4 + 1, "block parked on the free list");
        assert_eq!(a.take(0), Vec::<Vertex>::new());
    }

    #[test]
    fn replace_reuses_or_reallocates() {
        let mut a = AdjacencyArena::with_slots(2);
        a.push(0, 1);
        a.replace(0, &[5, 6, 7]); // fits the existing 4-block
        assert_eq!(a.list(0), &[5, 6, 7]);
        assert_eq!(a.words(), 4);
        a.replace(0, &[1, 2, 3, 4, 5, 6]); // needs an 8-block
        assert_eq!(a.list(0), &[1, 2, 3, 4, 5, 6]);
        assert_eq!(a.words(), 4 + 8 + 1);
        a.replace(1, &[]); // empty replacement allocates nothing
        assert_eq!(a.list(1), &[] as &[Vertex]);
    }

    #[test]
    fn equality_is_logical_not_physical() {
        // Same lists, different construction history => different pool
        // layout, still equal.
        let mut a = AdjacencyArena::with_slots(2);
        a.push(0, 1);
        a.push(1, 2);
        let mut b = AdjacencyArena::with_slots(2);
        b.push(1, 2);
        for x in [9, 9, 9, 9, 9] {
            b.push(0, x); // force slot 0 through a growth + free cycle
        }
        b.replace(0, &[1]);
        assert_eq!(a, b);
        assert_ne!(a.words(), b.words(), "physical layouts differ");
        b.push(1, 3);
        assert_ne!(a, b);
    }
}
