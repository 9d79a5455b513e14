//! Occupancy-based contention models.
//!
//! Every shared hardware resource in the simulated memory systems — cache
//! banks, the crossbar, the system bus, DRAM banks — is modelled as a
//! pipelined unit that can accept a new transaction every *occupancy* cycles.
//! A request that arrives while the resource is still occupied waits until
//! the resource frees up; the wait is the contention delay.
//!
//! This "reservation" style model is how the paper describes its own
//! event-driven memory simulator: "cycle accurate measures of contention and
//! resource usage throughout the system".

use crate::Cycle;

/// A single pipelined port: accepts one new transaction every `occupancy`
/// cycles (the occupancy is supplied per reservation, since e.g. the system
/// bus has different occupancies for address-only and data transactions).
///
/// # Examples
///
/// ```
/// use cmpsim_engine::{Cycle, Port};
/// let mut p = Port::new("l2-bank0");
/// assert_eq!(p.reserve(Cycle(0), 2), Cycle(0));
/// assert_eq!(p.reserve(Cycle(0), 2), Cycle(2));
/// assert_eq!(p.reserve(Cycle(10), 2), Cycle(10));
/// ```
#[derive(Debug, Clone)]
pub struct Port {
    name: &'static str,
    free_at: Cycle,
    grants: u64,
    wait_cycles: u64,
    busy_cycles: u64,
}

impl Port {
    /// Creates an idle port. `name` labels the port in statistics output.
    pub fn new(name: &'static str) -> Port {
        Port {
            name,
            free_at: Cycle::ZERO,
            grants: 0,
            wait_cycles: 0,
            busy_cycles: 0,
        }
    }

    /// Reserves the port for a transaction arriving at `at` that occupies the
    /// port for `occupancy` cycles. Returns the cycle at which the
    /// transaction is actually granted the port (`>= at`).
    #[inline]
    pub fn reserve(&mut self, at: Cycle, occupancy: u64) -> Cycle {
        let grant = at.max(self.free_at);
        self.free_at = grant + occupancy;
        self.grants += 1;
        self.wait_cycles += grant - at;
        self.busy_cycles += occupancy;
        grant
    }

    /// The first cycle at which a new transaction could be granted.
    pub fn free_at(&self) -> Cycle {
        self.free_at
    }

    /// Whether a transaction arriving at `at` would have to wait.
    pub fn busy_at(&self, at: Cycle) -> bool {
        self.free_at > at
    }

    /// Port label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Total transactions granted.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Total cycles transactions spent waiting for this port.
    pub fn wait_cycles(&self) -> u64 {
        self.wait_cycles
    }

    /// Total cycles the port was occupied.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }
}

/// An address-interleaved group of [`Port`]s, e.g. the 4 banks of the shared
/// L1 or L2 cache. Lines are interleaved across banks by line number (the
/// byte address divided by the line size), which callers pass in.
///
/// # Examples
///
/// ```
/// use cmpsim_engine::{BankedResource, Cycle};
/// let mut banks = BankedResource::new("l1", 4);
/// // Same line twice: second access waits for the bank.
/// assert_eq!(banks.reserve(2, Cycle(0), 1), Cycle(0));
/// assert_eq!(banks.reserve(2, Cycle(0), 1), Cycle(1));
/// // The next line is in a different bank, which is free.
/// assert_eq!(banks.reserve(3, Cycle(0), 1), Cycle(0));
/// ```
#[derive(Debug, Clone)]
pub struct BankedResource {
    label: &'static str,
    banks: Vec<Port>,
    /// `n_banks - 1` when the bank count is a power of two (the common
    /// case), else `u64::MAX` as the "use modulo" sentinel.
    bank_mask: u64,
}

impl BankedResource {
    /// Creates `n_banks` idle banks interleaved line by line. `name`
    /// labels both the group and every individual bank.
    ///
    /// # Panics
    ///
    /// Panics if `n_banks` is zero.
    pub fn new(name: &'static str, n_banks: usize) -> BankedResource {
        assert!(n_banks > 0, "banked resource needs at least one bank");
        BankedResource {
            label: name,
            banks: (0..n_banks).map(|_| Port::new(name)).collect(),
            bank_mask: if n_banks.is_power_of_two() {
                n_banks as u64 - 1
            } else {
                u64::MAX
            },
        }
    }

    /// Group label (statistics aggregated over the banks report this name).
    pub fn name(&self) -> &'static str {
        self.label
    }

    /// Index of the bank that services line number `line`. Sits on every
    /// store and every L1-miss path, so the common power-of-two geometry
    /// pays a mask rather than a divide.
    #[inline]
    pub fn bank_of(&self, line: u64) -> usize {
        if self.bank_mask != u64::MAX {
            (line & self.bank_mask) as usize
        } else {
            (line % self.banks.len() as u64) as usize
        }
    }

    /// Reserves the bank servicing line number `line`; see
    /// [`Port::reserve`].
    #[inline]
    pub fn reserve(&mut self, line: u64, at: Cycle, occupancy: u64) -> Cycle {
        let bank = self.bank_of(line);
        self.banks[bank].reserve(at, occupancy)
    }

    /// Whether the bank servicing line number `line` is busy at `at`.
    pub fn busy_at(&self, line: u64, at: Cycle) -> bool {
        let bank = self.bank_of(line);
        self.banks[bank].busy_at(at)
    }

    /// Number of banks.
    pub fn n_banks(&self) -> usize {
        self.banks.len()
    }

    /// Total cycles requests waited across all banks (bank-conflict cost).
    pub fn total_wait_cycles(&self) -> u64 {
        self.banks.iter().map(Port::wait_cycles).sum()
    }

    /// Access to an individual bank's port, for fine-grained statistics.
    pub fn bank(&self, idx: usize) -> &Port {
        &self.banks[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_serializes_overlapping_requests() {
        let mut p = Port::new("t");
        assert_eq!(p.reserve(Cycle(0), 6), Cycle(0));
        assert_eq!(p.reserve(Cycle(1), 6), Cycle(6));
        assert_eq!(p.reserve(Cycle(2), 6), Cycle(12));
        assert_eq!(p.grants(), 3);
        assert_eq!(p.wait_cycles(), (6 - 1) + (12 - 2));
        assert_eq!(p.busy_cycles(), 18);
    }

    #[test]
    fn port_idle_gap_resets_wait() {
        let mut p = Port::new("t");
        p.reserve(Cycle(0), 2);
        assert_eq!(p.reserve(Cycle(100), 2), Cycle(100));
        assert_eq!(p.wait_cycles(), 0);
    }

    #[test]
    fn port_busy_query() {
        let mut p = Port::new("t");
        p.reserve(Cycle(5), 3);
        assert!(p.busy_at(Cycle(6)));
        assert!(p.busy_at(Cycle(7)));
        assert!(!p.busy_at(Cycle(8)));
        assert_eq!(p.free_at(), Cycle(8));
    }

    #[test]
    fn banks_interleave_by_line() {
        let b = BankedResource::new("t", 4);
        assert_eq!(b.bank_of(0), 0);
        assert_eq!(b.bank_of(1), 1);
        assert_eq!(b.bank_of(2), 2);
        assert_eq!(b.bank_of(3), 3);
        assert_eq!(b.bank_of(4), 0);
        // A bank count that is not a power of two interleaves by modulo.
        let b = BankedResource::new("t", 3);
        assert_eq!(b.bank_of(4), 1);
        assert_eq!(b.bank_of(6), 0);
    }

    #[test]
    fn bank_conflicts_only_within_bank() {
        let mut b = BankedResource::new("t", 2);
        assert_eq!(b.reserve(0, Cycle(0), 4), Cycle(0));
        // Different bank: no conflict.
        assert_eq!(b.reserve(1, Cycle(0), 4), Cycle(0));
        // Same bank as first: conflict.
        assert_eq!(b.reserve(2, Cycle(0), 4), Cycle(4));
        assert_eq!(b.total_wait_cycles(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = BankedResource::new("t", 0);
    }
}
