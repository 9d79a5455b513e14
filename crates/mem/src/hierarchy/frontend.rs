//! The write-back L1 fill helper.
//!
//! A *node* is whatever owns one L1 in a topology: a single CPU
//! (shared-L2, mesh, shared-memory), a cluster of CPUs (clustered), or the
//! whole machine (shared-L1). [`fill_writeback_l1`] implements the victim
//! handling every write-back L1 shares.

use crate::cache::{CacheArray, LineState};
use crate::stats::MemStats;
use crate::Addr;
use cmpsim_engine::{Cycle, Port};

/// Fills a write-back L1 with `addr` in `state` and retires the victim:
/// a dirty victim writes back into the local L2 (reserving `l2_port` at
/// `at` — victim buffers drain right behind the fill, off the critical
/// path), or past it onto `beyond` when the L2 no longer holds the line.
#[allow(clippy::too_many_arguments)] // disjoint &mut core fields, by design
pub fn fill_writeback_l1(
    cache: &mut CacheArray,
    addr: Addr,
    state: LineState,
    at: Cycle,
    l2: &mut CacheArray,
    l2_port: &mut Port,
    l2_occ: u64,
    beyond: &mut Port,
    beyond_occ: u64,
    stats: &mut MemStats,
) {
    if let Some(v) = cache.fill(addr, state) {
        if v.dirty {
            l2_port.reserve(at, l2_occ);
            stats.writebacks += 1;
            if l2.probe(v.addr).is_valid() {
                l2.set_state(v.addr, LineState::Modified);
            } else {
                beyond.reserve(at, beyond_occ);
            }
        }
    }
}
