//! Discrete-event simulation core for `cmpsim`.
//!
//! This crate provides the low-level machinery shared by every timing model in
//! the simulator:
//!
//! * [`Cycle`] — a strongly typed simulated-time stamp.
//! * [`Port`] and [`BankedResource`] — occupancy-based contention models for
//!   cache ports, buses and DRAM banks.
//! * [`pool`] — scoped-thread fan-out: the index-ordered job pool that
//!   runs independent simulations in parallel.
//! * [`hash`] — deterministic fixed-function hashing: [`FastSet`] for
//!   the caches' invalidated-line sets, [`FastMap`] for the journal's
//!   rows and the physical-memory page index.
//! * [`stats`] — the histogram and ratio helper used for the paper's
//!   execution-time breakdowns and miss-rate tables.
//! * [`Rng64`] — a small deterministic PRNG so every simulation is exactly
//!   reproducible from its seed.
//! * [`prop`] — a deterministic property-testing framework built on
//!   [`Rng64`], so the whole workspace tests itself without any external
//!   dependency.
//! * [`journal`] — an append-only, crash-tolerant resume journal so
//!   interrupted sweeps skip completed rows on restart.
//!
//! # Examples
//!
//! ```
//! use cmpsim_engine::{Cycle, Port};
//!
//! // A bus with a 6-cycle occupancy per transfer.
//! let mut bus = Port::new("bus");
//! let first = bus.reserve(Cycle(10), 6);
//! let second = bus.reserve(Cycle(11), 6);
//! assert_eq!(first, Cycle(10));
//! // The second request arrives while the bus is busy and waits.
//! assert_eq!(second, Cycle(16));
//! ```

pub mod hash;
pub mod journal;
pub mod pool;
pub mod prop;
pub mod resource;
pub mod rng;
pub mod stats;

pub use hash::{BuildFastHasher, FastHasher, FastMap, FastSet};
pub use journal::{Journal, JournalKey};
pub use pool::{map_jobs, run_indexed};
pub use resource::{BankedResource, Port};
pub use rng::Rng64;
pub use stats::Histogram;

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in CPU clock cycles.
///
/// The paper assumes a 200 MHz clock (1 cycle = 5 ns); all latencies in
/// Table 2 are expressed in these cycles.
///
/// # Examples
///
/// ```
/// use cmpsim_engine::Cycle;
/// let t = Cycle(100) + 50;
/// assert_eq!(t, Cycle(150));
/// assert_eq!(t - Cycle(100), 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);

    /// The latest representable time; used as "never".
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Number of cycles from `earlier` to `self`, saturating at zero.
    #[must_use]
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle(5);
        assert_eq!(a + 3, Cycle(8));
        assert_eq!(Cycle(8) - a, 3);
        assert_eq!(a.max(Cycle(2)), a);
        assert_eq!(a.min(Cycle(2)), Cycle(2));
        assert_eq!(Cycle(3).since(Cycle(10)), 0);
        assert_eq!(Cycle(10).since(Cycle(3)), 7);
    }

    #[test]
    fn cycle_display_and_default() {
        assert_eq!(Cycle::default(), Cycle::ZERO);
        assert_eq!(format!("{}", Cycle(42)), "42");
    }

    #[test]
    fn cycle_ordering() {
        assert!(Cycle(1) < Cycle(2));
        assert_eq!(Cycle::MAX.max(Cycle(5)), Cycle::MAX);
    }
}
