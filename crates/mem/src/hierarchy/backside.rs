//! What sits below the L1 front end.
//!
//! [`SharedL2Back`] is the banked shared L2 + memory port used by the
//! shared-L2 and clustered topologies; [`UniBack`] is the
//! uniprocessor-style single-ported L2 + memory pair below the shared L1.

use super::directory::Directory;
use crate::cache::{AccessOutcome, CacheArray, LineState};
use crate::config::{LatencySpec, SystemConfig};
use crate::stats::MemStats;
use crate::{Addr, ServiceLevel, LINE_BYTES};
use cmpsim_engine::{BankedResource, Cycle, Port};

/// A banked, write-back shared L2 with main memory behind a single port.
/// Lines evicted from the L2 back-invalidate the L1 copies the directory
/// tracks (inclusion).
#[derive(Debug)]
pub struct SharedL2Back {
    /// The shared L2 tag/state array.
    pub l2: CacheArray,
    /// Address-interleaved L2 banks (the crossbar contention point).
    pub banks: BankedResource,
    /// The memory port below the L2.
    pub mem: Port,
}

impl SharedL2Back {
    /// Builds the backside from a configuration (L2 spec + bank count).
    pub fn new(cfg: &SystemConfig) -> SharedL2Back {
        SharedL2Back {
            l2: CacheArray::new("shared-l2", cfg.l2),
            banks: BankedResource::new("l2-bank", cfg.l2_banks),
            mem: Port::new("mem"),
        }
    }

    /// The L2-line address containing `addr` (directory granularity).
    pub fn line(&self, addr: Addr) -> Addr {
        self.l2.line_addr(addr)
    }

    /// A read that missed the L1s: reserve the bank, look up the L2, walk
    /// to memory beyond it. Returns (finish, servicing level).
    #[allow(clippy::too_many_arguments)] // disjoint &mut core fields, by design
    pub fn read(
        &mut self,
        stats: &mut MemStats,
        dir: &mut Directory,
        l1d: &mut [CacheArray],
        l1i: &mut [CacheArray],
        lat: &LatencySpec,
        addr: Addr,
        at: Cycle,
    ) -> (Cycle, ServiceLevel) {
        let g2 = self
            .banks
            .reserve(u64::from(addr / LINE_BYTES), at, lat.l2_occ);
        stats.l2_bank_wait += g2 - at;
        match self.l2.lookup(addr) {
            AccessOutcome::Hit(_) => {
                stats.l2.hit();
                (g2 + lat.l2_lat, ServiceLevel::L2)
            }
            AccessOutcome::Miss(k2) => {
                stats.l2.miss(k2);
                (
                    self.fill_from_memory(stats, dir, l1d, l1i, lat, addr, g2, false),
                    ServiceLevel::Memory,
                )
            }
        }
    }

    /// A write-through store arriving from an L1. The bank is held for the
    /// full request/response handshake including the directory
    /// lookup-and-update, so a store occupies it as long as a line transfer
    /// on the same datapath — the port contention the paper blames for the
    /// shared-L2 architecture's losses on store-heavy workloads. A store
    /// missing the L2 write-allocates there (fetch the line, merge the
    /// word). Returns (finish, servicing level).
    #[allow(clippy::too_many_arguments)] // disjoint &mut core fields, by design
    pub fn store(
        &mut self,
        stats: &mut MemStats,
        dir: &mut Directory,
        l1d: &mut [CacheArray],
        l1i: &mut [CacheArray],
        lat: &LatencySpec,
        addr: Addr,
        at: Cycle,
    ) -> (Cycle, ServiceLevel) {
        let store_occ = lat.l2_occ;
        let g2 = self
            .banks
            .reserve(u64::from(addr / LINE_BYTES), at, store_occ);
        stats.l2_bank_wait += g2 - at;
        match self.l2.lookup_set(addr, LineState::Modified) {
            AccessOutcome::Hit(_) => {
                stats.l2.hit();
                (g2 + 1, ServiceLevel::L2)
            }
            AccessOutcome::Miss(k2) => {
                stats.l2.miss(k2);
                (
                    self.fill_from_memory(stats, dir, l1d, l1i, lat, addr, g2, true),
                    ServiceLevel::Memory,
                )
            }
        }
    }

    /// Fetches `addr`'s line into the L2 from memory, back-invalidating the
    /// victim's L1 copies (inclusion) and paying for a dirty write-back:
    /// the victim buffer drains right behind the fill, reserving the port
    /// at the grant rather than the finish to keep the timeline dense.
    /// Returns the completion time.
    #[allow(clippy::too_many_arguments)]
    fn fill_from_memory(
        &mut self,
        stats: &mut MemStats,
        dir: &mut Directory,
        l1d: &mut [CacheArray],
        l1i: &mut [CacheArray],
        lat: &LatencySpec,
        addr: Addr,
        at: Cycle,
        dirty: bool,
    ) -> Cycle {
        let g = self.mem.reserve(at, lat.mem_occ);
        stats.mem_wait += g - at;
        stats.mem_accesses += 1;
        let finish = g + lat.mem_lat;
        let state = if dirty {
            LineState::Modified
        } else {
            LineState::Exclusive
        };
        if let Some(v) = self.l2.fill(addr, state) {
            let slot = self.l2.slot_of(addr).expect("line was just filled");
            dir.back_invalidate_slot(l1d, l1i, slot, v.addr);
            if v.dirty {
                self.mem.reserve(g, lat.mem_occ);
                stats.writebacks += 1;
            }
        }
        finish
    }
}

/// The uniprocessor-style backside of the shared-L1 architecture: one L2
/// behind a single port, main memory behind another. No directory — with
/// the CPUs sharing the L1 there is nothing to keep coherent below it.
#[derive(Debug)]
pub struct UniBack {
    /// The L2 tag/state array.
    pub l2: CacheArray,
    /// The single L2 port.
    pub l2_port: Port,
    /// The memory port below the L2.
    pub mem_port: Port,
}

impl UniBack {
    /// Builds the backside from a configuration.
    pub fn new(cfg: &SystemConfig) -> UniBack {
        UniBack {
            l2: CacheArray::new("l2", cfg.l2),
            l2_port: Port::new("l2"),
            mem_port: Port::new("mem"),
        }
    }
}
