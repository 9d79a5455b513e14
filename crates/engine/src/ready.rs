//! A ready-heap over a fixed set of indexed actors.
//!
//! The simulator's run loop repeatedly asks "which CPU is ready earliest?"
//! with ties broken by the lowest CPU index — that tie-break is part of the
//! simulator's determinism contract, so [`ReadyHeap`] bakes it into the key
//! order: entries compare by `(Cycle, index)`. The heap is indexed (each
//! actor has a stable `usize` id and at most one entry), so a ready-time
//! update is `set` rather than a lazy-deletion push.
//!
//! Operations are `O(log n)`; with the small `n` of a simulated machine the
//! win over the previous `O(n)` scan is modest per step but is paid on every
//! step of every run.

use crate::Cycle;

/// Sentinel for "not in the heap" in the position table.
const ABSENT: usize = usize::MAX;

/// An indexed binary min-heap of `(Cycle, index)` keys.
///
/// Each index in `0..capacity` holds at most one entry; [`ReadyHeap::set`]
/// inserts or updates it, [`ReadyHeap::remove`] drops it, and
/// [`ReadyHeap::peek`] returns the entry with the earliest cycle, ties
/// broken by the lowest index — exactly the order of a linear
/// earliest-ready scan.
///
/// # Examples
///
/// ```
/// use cmpsim_engine::{Cycle, ReadyHeap};
///
/// let mut h = ReadyHeap::new(4);
/// h.set(2, Cycle(10));
/// h.set(0, Cycle(10));
/// h.set(1, Cycle(5));
/// assert_eq!(h.peek(), Some((Cycle(5), 1)));
/// h.set(1, Cycle(20)); // update reorders
/// assert_eq!(h.peek(), Some((Cycle(10), 0))); // tie -> lowest index
/// h.remove(0);
/// assert_eq!(h.peek(), Some((Cycle(10), 2)));
/// ```
#[derive(Debug, Clone)]
pub struct ReadyHeap {
    /// Heap array of `(key, index)` entries, min at the root.
    heap: Vec<(Cycle, usize)>,
    /// `pos[index]` = position of that index's entry in `heap`, or
    /// [`ABSENT`].
    pos: Vec<usize>,
}

impl ReadyHeap {
    /// Creates an empty heap for indices `0..capacity`.
    pub fn new(capacity: usize) -> ReadyHeap {
        ReadyHeap {
            heap: Vec::with_capacity(capacity),
            pos: vec![ABSENT; capacity],
        }
    }

    /// Number of entries currently in the heap.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap has no entries.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `idx` currently has an entry.
    pub fn contains(&self, idx: usize) -> bool {
        self.pos[idx] != ABSENT
    }

    /// The earliest `(key, index)` entry, ties broken by lowest index.
    pub fn peek(&self) -> Option<(Cycle, usize)> {
        self.heap.first().copied()
    }

    /// Inserts `idx` with `key`, or updates its key if already present.
    pub fn set(&mut self, idx: usize, key: Cycle) {
        let p = self.pos[idx];
        if p == ABSENT {
            self.heap.push((key, idx));
            let p = self.heap.len() - 1;
            self.pos[idx] = p;
            self.sift_up(p);
        } else {
            let old = self.heap[p].0;
            self.heap[p].0 = key;
            if (key, idx) < (old, idx) {
                self.sift_up(p);
            } else {
                self.sift_down(p);
            }
        }
    }

    /// Removes `idx`'s entry if present.
    pub fn remove(&mut self, idx: usize) {
        let p = self.pos[idx];
        if p == ABSENT {
            return;
        }
        self.pos[idx] = ABSENT;
        let last = self.heap.len() - 1;
        if p == last {
            self.heap.pop();
            return;
        }
        let moved = self.heap[last];
        self.heap[p] = moved;
        self.heap.pop();
        self.pos[moved.1] = p;
        // The moved entry may need to travel either direction.
        self.sift_up(p);
        self.sift_down(self.pos[moved.1]);
    }

    fn sift_up(&mut self, mut p: usize) {
        while p > 0 {
            let parent = (p - 1) / 2;
            if self.heap[p] < self.heap[parent] {
                self.swap(p, parent);
                p = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut p: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * p + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && self.heap[r] < self.heap[l] {
                r
            } else {
                l
            };
            if self.heap[child] < self.heap[p] {
                self.swap(p, child);
                p = child;
            } else {
                break;
            }
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1] = a;
        self.pos[self.heap[b].1] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    /// Reference implementation: the linear earliest-ready scan the heap
    /// replaces.
    fn scan_min(entries: &[Option<Cycle>]) -> Option<(Cycle, usize)> {
        let mut best: Option<(Cycle, usize)> = None;
        for (i, e) in entries.iter().enumerate() {
            if let Some(c) = e {
                if best.is_none_or(|(bc, _)| *c < bc) {
                    best = Some((*c, i));
                }
            }
        }
        best
    }

    #[test]
    fn basic_order_and_ties() {
        let mut h = ReadyHeap::new(4);
        h.set(3, Cycle(7));
        h.set(1, Cycle(7));
        h.set(2, Cycle(9));
        assert_eq!(h.peek(), Some((Cycle(7), 1)));
        h.remove(1);
        assert_eq!(h.peek(), Some((Cycle(7), 3)));
        h.set(0, Cycle(0));
        assert_eq!(h.peek(), Some((Cycle(0), 0)));
        assert_eq!(h.len(), 3);
        assert!(h.contains(2));
        assert!(!h.contains(1));
    }

    #[test]
    fn update_moves_both_directions() {
        let mut h = ReadyHeap::new(3);
        h.set(0, Cycle(10));
        h.set(1, Cycle(20));
        h.set(2, Cycle(30));
        h.set(2, Cycle(1)); // up
        assert_eq!(h.peek(), Some((Cycle(1), 2)));
        h.set(2, Cycle(40)); // down
        assert_eq!(h.peek(), Some((Cycle(10), 0)));
    }

    #[test]
    fn remove_missing_is_a_noop() {
        let mut h = ReadyHeap::new(2);
        h.remove(1);
        assert!(h.is_empty());
        h.set(0, Cycle(5));
        h.remove(1);
        assert_eq!(h.peek(), Some((Cycle(5), 0)));
    }

    #[test]
    fn matches_linear_scan_under_random_ops() {
        let mut rng = Rng64::new(0x4ead_4eab);
        let n = 16;
        let mut h = ReadyHeap::new(n);
        let mut model: Vec<Option<Cycle>> = vec![None; n];
        for _ in 0..10_000 {
            let idx = rng.range(n as u64) as usize;
            match rng.range(4) {
                0 => {
                    h.remove(idx);
                    model[idx] = None;
                }
                _ => {
                    // Small key range to force plenty of ties.
                    let key = Cycle(rng.range(50));
                    h.set(idx, key);
                    model[idx] = Some(key);
                }
            }
            assert_eq!(h.peek(), scan_min(&model));
            assert_eq!(h.len(), model.iter().flatten().count());
        }
    }
}
