//! Shared-primary-cache architecture (Figure 1 of the paper).
//!
//! Four CPUs share 4-way banked write-back L1 instruction and data caches
//! through a crossbar. The crossbar and bank arbitration raise the L1 hit
//! latency to 3 cycles; bank conflicts between CPUs add contention on top.
//! Below the L1 the system is uniprocessor-like: a single 2 MB L2 (10-cycle
//! latency, 2-cycle occupancy on a 128-bit path) and main memory (50-cycle
//! latency, 6-cycle occupancy). No coherence hardware is needed between the
//! four CPUs — they literally share the cache, which also makes the machine
//! sequentially consistent by construction.
//!
//! `SystemConfig::ideal_shared_l1` reproduces the paper's Mipsy-mode
//! idealization (1-cycle hits, no bank contention) so the simple CPU model
//! is not penalized for latencies it cannot hide.
//!
//! The topology is a [`Topology`] over the shared
//! [`HierarchyCore`](crate::hierarchy::HierarchyCore): one pooled L1 pair
//! with banked crossbar arbitration in front of a uniprocessor-style
//! [`UniBack`].

use crate::cache::{AccessOutcome, CacheArray, LineState, MissKind};
use crate::config::SystemConfig;
use crate::hierarchy::{frontend, HierarchyCore, HierarchySystem, Topology, UniBack};
use crate::{AccessKind, Addr, CpuId, MemRequest, MemResult, PortUtil, ServiceLevel, LINE_BYTES};
use cmpsim_engine::{BankedResource, Cycle};

/// The shared-L1 topology: pooled write-back L1s behind a banked crossbar,
/// a single L2 and memory below.
#[derive(Debug)]
pub struct SharedL1Topo {
    l1i: CacheArray,
    l1d: CacheArray,
    l1i_banks: BankedResource,
    l1d_banks: BankedResource,
    back: UniBack,
}

/// The shared-L1 multiprocessor memory system.
pub type SharedL1System = HierarchySystem<SharedL1Topo>;

impl SharedL1System {
    /// Builds the system from a configuration (see
    /// [`SystemConfig::paper_shared_l1`]).
    ///
    /// # Panics
    ///
    /// Panics on a configuration that fails [`SystemConfig::validate`].
    pub fn new(cfg: &SystemConfig) -> SharedL1System {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        HierarchySystem::from_parts(
            cfg,
            SharedL1Topo {
                l1i: CacheArray::new("shared-l1i", cfg.l1i),
                l1d: CacheArray::new("shared-l1d", cfg.l1d),
                l1i_banks: BankedResource::new("l1i-bank", cfg.l1_banks),
                l1d_banks: BankedResource::new("l1d-bank", cfg.l1_banks),
                back: UniBack::new(cfg),
            },
        )
    }

    /// Read-only view of the shared L1 data cache (tests, probes).
    pub fn l1d(&self) -> &CacheArray {
        &self.topo().l1d
    }

    /// Read-only view of the L2 (tests, probes).
    pub fn l2(&self) -> &CacheArray {
        &self.topo().back.l2
    }

    /// Total cycles lost to L1 bank conflicts so far.
    pub fn l1_bank_wait(&self) -> u64 {
        self.topo().l1i_banks.total_wait_cycles() + self.topo().l1d_banks.total_wait_cycles()
    }
}

impl SharedL1Topo {
    /// Refills the L2 and L1 after a memory access and pays for any dirty
    /// victims. Write-backs are off the critical path for the triggering
    /// request; they reserve port occupancy at the transaction's *grant*
    /// time (victim buffers drain right behind the fill), so they cannot
    /// leave dead holes in the port timeline.
    fn fill_from_memory(
        &mut self,
        core: &mut HierarchyCore,
        is_ifetch: bool,
        addr: u32,
        write: bool,
        at: Cycle,
    ) {
        if let Some(v) = self.back.l2.fill(addr, LineState::Exclusive) {
            if v.dirty {
                self.back.mem_port.reserve(at, core.cfg.lat.mem_occ);
                core.stats.writebacks += 1;
            }
        }
        self.fill_l1(core, is_ifetch, addr, write, at);
    }

    fn fill_l1(
        &mut self,
        core: &mut HierarchyCore,
        is_ifetch: bool,
        addr: u32,
        write: bool,
        at: Cycle,
    ) {
        let state = if write {
            LineState::Modified
        } else {
            LineState::Exclusive
        };
        let cache = if is_ifetch {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        frontend::fill_writeback_l1(
            cache,
            addr,
            state,
            at,
            &mut self.back.l2,
            &mut self.back.l2_port,
            core.cfg.lat.l2_occ,
            &mut self.back.mem_port,
            core.cfg.lat.mem_occ,
            &mut core.stats,
        );
    }

    /// Everything below the shared L1: classify the miss, walk the L2 and
    /// memory ports. Out of line on purpose — see [`Topology::access`].
    #[allow(clippy::too_many_arguments)] // disjoint &mut core fields, by design
    fn service_miss(
        &mut self,
        core: &mut HierarchyCore,
        is_ifetch: bool,
        write: bool,
        addr: u32,
        kind: MissKind,
        grant: Cycle,
        l1_extra: u64,
    ) -> MemResult {
        let lstats = if is_ifetch {
            &mut core.stats.l1i
        } else {
            &mut core.stats.l1d
        };
        lstats.miss(kind);
        // Tag check overlaps arbitration for the next level: the
        // request reaches the L2 at its L1 grant time, so the
        // contention-free totals match Table 2 exactly.
        let g2 = self.back.l2_port.reserve(grant, core.cfg.lat.l2_occ);
        core.stats.l2_bank_wait += g2 - grant;
        match self.back.l2.lookup(addr) {
            AccessOutcome::Hit(_) => {
                core.stats.l2.hit();
                let finish = g2 + core.cfg.lat.l2_lat;
                self.fill_l1(core, is_ifetch, addr, write, g2);
                MemResult {
                    finish,
                    serviced_by: ServiceLevel::L2,
                    l1_miss: true,
                    l1_extra,
                }
            }
            AccessOutcome::Miss(l2kind) => {
                core.stats.l2.miss(l2kind);
                let g3 = self.back.mem_port.reserve(g2, core.cfg.lat.mem_occ);
                core.stats.mem_wait += g3 - g2;
                core.stats.mem_accesses += 1;
                let finish = g3 + core.cfg.lat.mem_lat;
                self.fill_from_memory(core, is_ifetch, addr, write, g3);
                MemResult {
                    finish,
                    serviced_by: ServiceLevel::Memory,
                    l1_miss: true,
                    l1_extra,
                }
            }
        }
    }
}

impl Topology for SharedL1Topo {
    const NAME: &'static str = "shared-L1";

    /// The hit path (bank grant, one tag lookup, one counter) stays inline;
    /// the miss machinery lives in `SharedL1Topo::service_miss` so this
    /// body is small enough to inline into the CPU models' access loops.
    #[inline]
    fn access(&mut self, core: &mut HierarchyCore, now: Cycle, req: MemRequest) -> MemResult {
        let is_ifetch = req.kind == AccessKind::IFetch;
        let write = req.kind == AccessKind::Store;
        let addr = req.addr;

        // L1 bank arbitration + crossbar traversal.
        let (grant, l1_lat) = if core.cfg.ideal_shared_l1 {
            (now, 1)
        } else {
            let banks = if is_ifetch {
                &mut self.l1i_banks
            } else {
                &mut self.l1d_banks
            };
            let g = banks.reserve(u64::from(addr / LINE_BYTES), now, core.cfg.lat.l1_occ);
            (g, core.cfg.lat.l1_lat)
        };
        let l1_extra = (grant - now) + (l1_lat - 1);
        core.stats.l1_bank_wait += grant - now;

        let outcome = if is_ifetch {
            self.l1i.lookup(addr)
        } else {
            self.l1d.lookup(addr)
        };
        match outcome {
            AccessOutcome::Hit(_) => {
                if is_ifetch {
                    core.stats.l1i.hit();
                } else {
                    core.stats.l1d.hit();
                }
                if write {
                    self.l1d.set_state(addr, LineState::Modified);
                }
                MemResult {
                    finish: grant + l1_lat,
                    serviced_by: ServiceLevel::L1,
                    l1_miss: false,
                    l1_extra,
                }
            }
            AccessOutcome::Miss(kind) => {
                self.service_miss(core, is_ifetch, write, addr, kind, grant, l1_extra)
            }
        }
    }

    /// No coherence state to check: the CPUs share the one copy of every
    /// line, and `CacheArray::fill` asserts that a line is never resident
    /// in two ways of a set.
    fn check_line(&self, _core: &mut HierarchyCore, _now: Cycle, _cpu: CpuId, _addr: Addr) {}

    #[inline]
    fn load_would_hit_l1(&self, _cpu: CpuId, addr: Addr) -> bool {
        self.l1d.probe(addr).is_valid()
    }

    fn push_port_util(&self, out: &mut Vec<PortUtil>) {
        out.push(crate::hierarchy::util_of_banks(&self.l1i_banks));
        out.push(crate::hierarchy::util_of_banks(&self.l1d_banks));
        out.push(crate::hierarchy::util_of_port(&self.back.l2_port));
        out.push(crate::hierarchy::util_of_port(&self.back.mem_port));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::MemorySystem;

    fn sys() -> SharedL1System {
        SharedL1System::new(&SystemConfig::paper_shared_l1(4))
    }

    #[test]
    fn cold_miss_costs_memory_latency() {
        let mut s = sys();
        let r = s.access(Cycle(0), MemRequest::load(0, 0x1000));
        assert_eq!(r.serviced_by, ServiceLevel::Memory);
        assert_eq!(r.finish, Cycle(50));
        assert!(r.l1_miss);
    }

    #[test]
    fn hit_costs_three_cycles_including_crossbar() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::load(0, 0x1000));
        let r = s.access(Cycle(100), MemRequest::load(1, 0x1000));
        assert_eq!(r.serviced_by, ServiceLevel::L1);
        assert_eq!(r.finish, Cycle(103));
        assert_eq!(r.l1_extra, 2);
        assert!(!r.l1_miss);
    }

    #[test]
    fn ideal_mode_hits_in_one_cycle() {
        let cfg = SystemConfig::paper_shared_l1(4).with_ideal_shared_l1(true);
        let mut s = SharedL1System::new(&cfg);
        s.access(Cycle(0), MemRequest::load(0, 0x1000));
        let r = s.access(Cycle(100), MemRequest::load(1, 0x1000));
        assert_eq!(r.finish, Cycle(101));
        assert_eq!(r.l1_extra, 0);
    }

    #[test]
    fn l2_hit_costs_table2_latency() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::load(0, 0x1000)); // fill L2+L1
                                                         // Evict from tiny shared of L1? L1 is 64KB; use a conflicting line:
                                                         // same L1 set needs addr + way_stride * assoc. 64KB 2-way 32B:
                                                         // 1024 sets, stride 32KB. Fill two more lines mapping to the set.
        s.access(Cycle(200), MemRequest::load(0, 0x1000 + 32 * 1024));
        s.access(Cycle(400), MemRequest::load(0, 0x1000 + 64 * 1024));
        // 0x1000 evicted from L1 but still in L2.
        let r = s.access(Cycle(600), MemRequest::load(0, 0x1000));
        assert_eq!(r.serviced_by, ServiceLevel::L2);
        assert_eq!(r.finish, Cycle(610));
    }

    #[test]
    fn bank_conflict_delays_second_cpu() {
        let mut s = sys();
        // Warm two lines in the same bank (banked by line address: lines
        // 0x1000 and 0x1000+4*32 share bank 0 of 4).
        s.access(Cycle(0), MemRequest::load(0, 0x1000));
        s.access(Cycle(100), MemRequest::load(1, 0x1080));
        let a = s.access(Cycle(200), MemRequest::load(0, 0x1000));
        let b = s.access(Cycle(200), MemRequest::load(1, 0x1080));
        assert_eq!(a.finish, Cycle(203));
        assert_eq!(b.finish, Cycle(204), "same bank: 1-cycle occupancy wait");
        assert_eq!(b.l1_extra, 3);
        // Different bank: no conflict.
        s.access(Cycle(300), MemRequest::load(2, 0x10a0));
        let c = s.access(Cycle(400), MemRequest::load(0, 0x1000));
        let d = s.access(Cycle(400), MemRequest::load(2, 0x10a0));
        assert_eq!(c.finish, Cycle(403));
        assert_eq!(d.finish, Cycle(403));
    }

    #[test]
    fn no_invalidation_misses_ever() {
        // Sharing happens in the cache: a write by CPU 0 is immediately
        // visible to CPU 1 with no coherence traffic.
        let mut s = sys();
        s.access(Cycle(0), MemRequest::store(0, 0x2000));
        let r = s.access(Cycle(100), MemRequest::load(1, 0x2000));
        assert_eq!(r.serviced_by, ServiceLevel::L1);
        assert_eq!(s.stats().l1d.miss_inval, 0);
        assert_eq!(s.stats().invalidations_sent, 0);
    }

    #[test]
    fn store_marks_line_dirty_and_writeback_counted() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::store(0, 0x1000));
        assert_eq!(s.l1d().probe(0x1000), LineState::Modified);
        // Force eviction of the dirty line (fill the 2-way set twice more).
        s.access(Cycle(100), MemRequest::load(0, 0x1000 + 32 * 1024));
        s.access(Cycle(200), MemRequest::load(0, 0x1000 + 64 * 1024));
        assert_eq!(s.stats().writebacks, 1);
    }

    #[test]
    fn ifetch_uses_instruction_cache() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::ifetch(0, 0x4000));
        let r = s.access(Cycle(100), MemRequest::ifetch(3, 0x4000));
        assert_eq!(r.serviced_by, ServiceLevel::L1);
        assert_eq!(s.stats().l1i.accesses, 2);
        assert_eq!(s.stats().l1i.misses(), 1);
        assert_eq!(s.stats().l1d.accesses, 0);
    }
}
