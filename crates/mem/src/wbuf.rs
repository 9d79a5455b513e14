//! Per-CPU store (write) buffer.
//!
//! Both CPU models retire stores into a small write buffer that drains into
//! the memory system in the background; the CPU only stalls when the buffer
//! is full. This matches Table 1's 1-cycle store latency while still letting
//! write-through traffic contend for L2 ports (the effect the paper blames
//! for the shared-L2 architecture's losses on store-heavy workloads).

use cmpsim_engine::Cycle;

/// A bounded buffer of in-flight stores, tracked by their completion times.
///
/// # Examples
///
/// ```
/// use cmpsim_engine::Cycle;
/// use cmpsim_mem::WriteBuffer;
///
/// let mut wb = WriteBuffer::new(2);
/// wb.push(Cycle(0), Cycle(10));
/// wb.push(Cycle(0), Cycle(20));
/// assert!(wb.is_full(Cycle(5)));
/// // At cycle 10 the first store has drained.
/// assert!(!wb.is_full(Cycle(10)));
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    cap: usize,
    finishes: Vec<Cycle>,
}

impl WriteBuffer {
    /// Creates an empty buffer with `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> WriteBuffer {
        assert!(cap > 0, "write buffer needs at least one entry");
        WriteBuffer {
            cap,
            finishes: Vec::with_capacity(cap),
        }
    }

    fn retire(&mut self, now: Cycle) {
        self.finishes.retain(|&f| f > now);
    }

    /// Whether the buffer has no free entry at `now`.
    pub fn is_full(&mut self, now: Cycle) -> bool {
        self.retire(now);
        self.finishes.len() >= self.cap
    }

    /// First cycle at which an entry frees up (call when full). Returns
    /// `now` if already free.
    pub fn free_at(&mut self, now: Cycle) -> Cycle {
        self.retire(now);
        if self.finishes.len() < self.cap {
            now
        } else {
            self.finishes
                .iter()
                .copied()
                .min()
                .expect("full buffer is non-empty")
        }
    }

    /// Enqueues a store issued at `now` that completes at `finish`,
    /// retiring already-drained entries first.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the buffer is still full at `now` — callers must
    /// wait for [`WriteBuffer::free_at`] first.
    pub fn push(&mut self, now: Cycle, finish: Cycle) {
        self.retire(now);
        debug_assert!(self.finishes.len() < self.cap, "write buffer overflow");
        self.finishes.push(finish);
    }

    /// Cycle by which every buffered store has completed (`SYNC` fence
    /// semantics). Returns `now` if empty.
    pub fn drain_time(&mut self, now: Cycle) -> Cycle {
        self.retire(now);
        self.finishes.iter().copied().fold(now, Cycle::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_and_drains() {
        let mut wb = WriteBuffer::new(2);
        assert!(!wb.is_full(Cycle(0)));
        wb.push(Cycle(0), Cycle(5));
        wb.push(Cycle(0), Cycle(9));
        assert!(wb.is_full(Cycle(0)));
        assert_eq!(wb.free_at(Cycle(0)), Cycle(5));
        assert!(!wb.is_full(Cycle(5)));
        assert_eq!(wb.drain_time(Cycle(5)), Cycle(9));
        assert_eq!(wb.drain_time(Cycle(9)), Cycle(9));
    }

    #[test]
    fn drain_time_is_last_finish() {
        let mut wb = WriteBuffer::new(4);
        assert_eq!(wb.drain_time(Cycle(3)), Cycle(3));
        wb.push(Cycle(3), Cycle(10));
        wb.push(Cycle(3), Cycle(7));
        assert_eq!(wb.drain_time(Cycle(3)), Cycle(10));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = WriteBuffer::new(0);
    }
}
