//! The shared indexed binary min-heap kernel behind every Dijkstra in the
//! system.
//!
//! Both the offline build path (the border-node searches of the §5.2
//! pre-computation, landmark vectors, the canonical trees of
//! [`crate::dijkstra`](mod@crate::dijkstra)) and the client query hot path run Dijkstra in tight
//! loops; a `BinaryHeap<Reverse<(Dist, u32)>>` with lazy deletion allocates
//! per run and carries stale entries. This kernel is the alternative every
//! caller shares: dense slots, decrease-key (never a stale entry), keys
//! stored inline, and buffers that are reused — not reallocated — across
//! runs.
//!
//! Entries are ordered by a `(u64, u32)` key pair: the primary key is the
//! tentative distance, the secondary key is the deterministic tie-break (the
//! node id for graph searches, the external node id for the client's
//! interned arena). Pop order is therefore exactly the lazy-heap pop order
//! of the implementations this kernel replaced — the canonical settle
//! orders, and everything derived from them, are bit-identical.

/// Sentinel for "slot not in the heap".
const NOT_IN_HEAP: u32 = u32::MAX;

/// One heap element: the slot's key, stored inline so comparisons touch a
/// single contiguous array (the locality that lets the kernel keep pace
/// with `std`'s `BinaryHeap` while supporting decrease-key).
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: (u64, u32),
    slot: u32,
}

/// An indexed binary min-heap over dense `u32` slots keyed by
/// `(primary, tie_break)` pairs.
///
/// Both buffers (the entry array and the position index) ratchet up to the
/// high-water slot count and are never shrunk; [`reset`](Self::reset) and
/// the incremental [`clear_drained`](Self::clear_drained) keep steady-state
/// reuse allocation-free.
///
/// ```
/// use privpath_graph::heap::IndexedMinHeap;
/// let mut h = IndexedMinHeap::new();
/// h.reset(4);
/// h.push(2, (10, 2));
/// h.push(0, (10, 0));
/// h.push(1, (5, 1));
/// h.decrease(2, (1, 2));
/// assert_eq!(h.pop(), Some(2));
/// assert_eq!(h.pop(), Some(1));
/// assert_eq!(h.pop(), Some(0)); // tie on primary broken by secondary
/// assert_eq!(h.pop(), None);
/// ```
#[derive(Debug, Default, Clone)]
pub struct IndexedMinHeap {
    /// Heap array of `(key, slot)` entries (index 0 = minimum).
    heap: Vec<Entry>,
    /// Slot → heap position (`NOT_IN_HEAP` when absent).
    pos: Vec<u32>,
}

impl IndexedMinHeap {
    /// An empty heap (no slots yet; call [`reset`](Self::reset)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the heap and sizes it for `n` slots. O(len) when the heap
    /// was drained by pops (the common full-Dijkstra case), O(n) only when
    /// the slot space grows.
    pub fn reset(&mut self, n: usize) {
        self.clear_drained();
        if self.pos.len() < n {
            self.pos.resize(n, NOT_IN_HEAP);
        }
    }

    /// Extends the slot space to `n` without disturbing enqueued entries —
    /// for arenas that grow mid-search.
    pub fn ensure(&mut self, n: usize) {
        if self.pos.len() < n {
            self.pos.resize(n, NOT_IN_HEAP);
        }
    }

    /// Removes any remaining entries in O(remaining) — the cheap epilogue
    /// for early-terminated searches.
    pub fn clear_drained(&mut self) {
        for e in &self.heap {
            self.pos[e.slot as usize] = NOT_IN_HEAP;
        }
        self.heap.clear();
    }

    /// Number of enqueued slots.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no slot is enqueued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True if `slot` is currently enqueued.
    pub fn contains(&self, slot: u32) -> bool {
        self.pos[slot as usize] != NOT_IN_HEAP
    }

    /// Current key of an enqueued slot.
    pub fn key(&self, slot: u32) -> (u64, u32) {
        debug_assert!(self.contains(slot));
        self.heap[self.pos[slot as usize] as usize].key
    }

    /// Enqueues `slot` with `key`. The slot must not be enqueued already.
    pub fn push(&mut self, slot: u32, key: (u64, u32)) {
        debug_assert!(!self.contains(slot));
        let i = self.heap.len();
        self.heap.push(Entry { key, slot });
        self.sift_up(i);
    }

    /// Lowers an enqueued slot's key (equal keys are a no-op sift).
    pub fn decrease(&mut self, slot: u32, key: (u64, u32)) {
        let i = self.pos[slot as usize];
        debug_assert_ne!(i, NOT_IN_HEAP);
        debug_assert!(key <= self.heap[i as usize].key);
        self.heap[i as usize].key = key;
        self.sift_up(i as usize);
    }

    /// [`push`](Self::push) if absent, [`decrease`](Self::decrease) if
    /// enqueued — the one-call relaxation helper.
    pub fn push_or_decrease(&mut self, slot: u32, key: (u64, u32)) {
        if self.contains(slot) {
            self.decrease(slot, key);
        } else {
            self.push(slot, key);
        }
    }

    /// Removes and returns the minimum-key slot.
    pub fn pop(&mut self) -> Option<u32> {
        let top = self.heap.first()?.slot;
        self.pos[top as usize] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            // Re-insert the detached last entry at the vacated root.
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Hole-based sift: the entry at `i` bubbles toward the root, moving
    /// smaller ancestors down one write each (no swaps).
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let up = (i - 1) / 2;
            if self.heap[up].key <= entry.key {
                break;
            }
            self.heap[i] = self.heap[up];
            self.pos[self.heap[i].slot as usize] = i as u32;
            i = up;
        }
        self.heap[i] = entry;
        self.pos[entry.slot as usize] = i as u32;
    }

    /// Hole-based sift toward the leaves.
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let c = if r < n && self.heap[r].key < self.heap[l].key {
                r
            } else {
                l
            };
            if entry.key <= self.heap[c].key {
                break;
            }
            self.heap[i] = self.heap[c];
            self.pos[self.heap[i].slot as usize] = i as u32;
            i = c;
        }
        self.heap[i] = entry;
        self.pos[entry.slot as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order() {
        let mut h = IndexedMinHeap::new();
        h.reset(8);
        for (slot, key) in [(3u32, 30u64), (1, 10), (7, 70), (5, 50)] {
            h.push(slot, (key, slot));
        }
        assert_eq!(h.len(), 4);
        let order: Vec<u32> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(order, vec![1, 3, 5, 7]);
        assert!(h.is_empty());
    }

    #[test]
    fn ties_break_on_secondary_key() {
        let mut h = IndexedMinHeap::new();
        h.reset(4);
        // Same primary; secondary keys deliberately disagree with slot order.
        h.push(0, (5, 90));
        h.push(1, (5, 10));
        h.push(2, (5, 50));
        assert_eq!(h.pop(), Some(1));
        assert_eq!(h.pop(), Some(2));
        assert_eq!(h.pop(), Some(0));
    }

    #[test]
    fn decrease_reorders() {
        let mut h = IndexedMinHeap::new();
        h.reset(4);
        h.push(0, (10, 0));
        h.push(1, (20, 1));
        h.push(2, (30, 2));
        h.decrease(2, (5, 2));
        assert_eq!(h.pop(), Some(2));
        // equal-key decrease is a legal no-op
        h.decrease(1, (20, 1));
        assert_eq!(h.pop(), Some(0));
        assert_eq!(h.pop(), Some(1));
    }

    #[test]
    fn reset_after_partial_drain_is_clean() {
        let mut h = IndexedMinHeap::new();
        h.reset(6);
        for s in 0..6u32 {
            h.push(s, (u64::from(s), s));
        }
        assert_eq!(h.pop(), Some(0));
        // 5 entries remain; reset must drop them all.
        h.reset(6);
        assert!(h.is_empty());
        for s in 0..6u32 {
            assert!(!h.contains(s), "slot {s} leaked across reset");
        }
        h.push(4, (1, 4));
        assert_eq!(h.pop(), Some(4));
    }

    #[test]
    fn ensure_grows_without_disturbing() {
        let mut h = IndexedMinHeap::new();
        h.reset(2);
        h.push(0, (7, 0));
        h.ensure(10);
        h.push(9, (3, 9));
        assert_eq!(h.pop(), Some(9));
        assert_eq!(h.pop(), Some(0));
    }

    #[test]
    fn matches_std_binary_heap_on_random_sequences() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // xorshift-driven differential test against a lazy-deletion heap.
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let n = 2 + (next() % 60) as usize;
            let mut h = IndexedMinHeap::new();
            h.reset(n);
            let mut lazy: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
            let mut best = vec![u64::MAX; n];
            // random pushes/decreases
            for _ in 0..(next() % 200) {
                let slot = (next() % n as u64) as u32;
                let key = next() % 1000;
                if key < best[slot as usize] {
                    best[slot as usize] = key;
                    h.push_or_decrease(slot, (key, slot));
                    lazy.push(Reverse((key, slot)));
                }
            }
            // pop both to exhaustion; lazy heap skips stale entries
            let mut popped = vec![false; n];
            loop {
                let got = h.pop();
                let want = loop {
                    match lazy.pop() {
                        Some(Reverse((k, s))) => {
                            if !popped[s as usize] && best[s as usize] == k {
                                popped[s as usize] = true;
                                break Some(s);
                            }
                        }
                        None => break None,
                    }
                };
                assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
