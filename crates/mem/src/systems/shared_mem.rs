//! Bus-based shared-memory architecture (Figure 3 of the paper).
//!
//! Each CPU has a private write-back 16 KB L1 (1-cycle hits) and a private
//! 512 KB L2 running at full SRAM speed (10-cycle latency, 2-cycle
//! occupancy). Communication goes through the shared system bus and main
//! memory (50-cycle latency, 6-cycle occupancy). Both cache levels
//! participate in full MESI snooping; a line dirty in another CPU's caches
//! is sourced cache-to-cache at more than the memory latency (the paper
//! argues typical times are comparable to memory access times because the
//! slowest snooper gates the response).
//!
//! The topology is a [`Topology`] over the shared
//! [`HierarchyCore`](crate::hierarchy::HierarchyCore): fully private
//! two-level hierarchies whose coherence steps come from the reusable
//! [`snoop`](crate::hierarchy::snoop) engine.

use crate::cache::{AccessOutcome, CacheArray, LineState, MissKind};
use crate::config::SystemConfig;
use crate::hierarchy::{frontend, snoop, HierarchyCore, HierarchySystem, Topology};
use crate::{AccessKind, Addr, CpuId, MemRequest, MemResult, PortUtil, ServiceLevel};
use cmpsim_engine::{Cycle, Port};

use snoop::SnoopResult;

/// The bus-based topology: per-CPU private L1/L2 hierarchies snooping a
/// single shared bus.
#[derive(Debug)]
pub struct SharedMemTopo {
    l1i: Vec<CacheArray>,
    l1d: Vec<CacheArray>,
    l2: Vec<CacheArray>,
    l2_ports: Vec<Port>,
    bus: Port,
}

/// The bus-based shared-memory multiprocessor memory system.
pub type SharedMemSystem = HierarchySystem<SharedMemTopo>;

impl SharedMemSystem {
    /// Builds the system from a configuration (see
    /// [`SystemConfig::paper_shared_mem`]).
    ///
    /// # Panics
    ///
    /// Panics on a configuration that fails [`SystemConfig::validate`].
    pub fn new(cfg: &SystemConfig) -> SharedMemSystem {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        HierarchySystem::from_parts(
            cfg,
            SharedMemTopo {
                l1i: (0..cfg.n_cpus)
                    .map(|_| CacheArray::new("l1i", cfg.l1i))
                    .collect(),
                l1d: (0..cfg.n_cpus)
                    .map(|_| CacheArray::new("l1d", cfg.l1d))
                    .collect(),
                l2: (0..cfg.n_cpus)
                    .map(|_| CacheArray::new("l2", cfg.l2))
                    .collect(),
                l2_ports: (0..cfg.n_cpus).map(|_| Port::new("l2")).collect(),
                bus: Port::new("bus"),
            },
        )
    }

    /// Read-only view of one CPU's L1 data cache (tests, probes).
    pub fn l1d(&self, cpu: usize) -> &CacheArray {
        &self.topo().l1d[cpu]
    }

    /// Read-only view of one CPU's private L2 (tests, probes).
    pub fn l2(&self, cpu: usize) -> &CacheArray {
        &self.topo().l2[cpu]
    }
}

impl SharedMemTopo {
    /// Fills `cpu`'s private L2, enforcing inclusion on the victim and
    /// paying for a dirty write-back.
    fn l2_fill(
        &mut self,
        core: &mut HierarchyCore,
        cpu: usize,
        addr: Addr,
        state: LineState,
        at: Cycle,
    ) {
        if let Some(v) = self.l2[cpu].fill(addr, state) {
            // Inclusion: the L1s may not keep a line the L2 dropped. A dirty
            // L1 copy folds into the write-back.
            let l1_state = self.l1d[cpu].evict(v.addr);
            self.l1i[cpu].evict(v.addr);
            if v.dirty || l1_state == LineState::Modified {
                self.bus.reserve(at, core.cfg.lat.mem_occ);
                core.stats.writebacks += 1;
            }
        }
    }

    /// Fills `cpu`'s L1 (D or I), folding a dirty victim into its L2.
    fn l1_fill(
        &mut self,
        core: &mut HierarchyCore,
        cpu: usize,
        addr: Addr,
        ifetch: bool,
        state: LineState,
        at: Cycle,
    ) {
        let cache = if ifetch {
            &mut self.l1i[cpu]
        } else {
            &mut self.l1d[cpu]
        };
        frontend::fill_writeback_l1(
            cache,
            addr,
            state,
            at,
            &mut self.l2[cpu],
            &mut self.l2_ports[cpu],
            core.cfg.lat.l2_occ,
            &mut self.bus,
            core.cfg.lat.mem_occ,
            &mut core.stats,
        );
    }

    /// A bus transaction fetching `addr` for `cpu`. `exclusive` requests
    /// ownership (read-exclusive). Returns (finish, level, fill state,
    /// bus grant).
    fn bus_fetch(
        &mut self,
        core: &mut HierarchyCore,
        cpu: usize,
        addr: Addr,
        exclusive: bool,
        at: Cycle,
    ) -> (Cycle, ServiceLevel, LineState, Cycle) {
        let result = snoop::snoop(&self.l1d, &self.l1i, &self.l2, cpu, addr);
        let (occ, lat, level) = match result {
            SnoopResult::Dirty(_) => (
                core.cfg.lat.c2c_occ,
                core.cfg.lat.c2c_lat,
                ServiceLevel::CacheToCache,
            ),
            _ => (
                core.cfg.lat.mem_occ,
                core.cfg.lat.mem_lat,
                ServiceLevel::Memory,
            ),
        };
        let grant = self.bus.reserve(at, occ);
        core.stats.mem_wait += grant - at;
        let finish = grant + lat;
        core.stats.serviced(level);
        let state = if exclusive {
            snoop::invalidate_remote(
                &mut core.stats,
                &mut self.l1d,
                &mut self.l1i,
                &mut self.l2,
                cpu,
                addr,
            );
            LineState::Modified
        } else {
            match result {
                SnoopResult::None => LineState::Exclusive,
                _ => {
                    snoop::downgrade_remote(&mut self.l1d, &mut self.l2, cpu, addr);
                    LineState::Shared
                }
            }
        };
        (finish, level, state, grant)
    }

    /// A store that hit a non-Modified L1 line: silent upgrade from
    /// Exclusive, or an address-only bus upgrade from Shared.
    fn service_store_hit(
        &mut self,
        core: &mut HierarchyCore,
        now: Cycle,
        cpu: usize,
        addr: Addr,
        state: LineState,
    ) -> MemResult {
        match state {
            LineState::Exclusive => {
                core.stats.l1d.hit();
                self.l1d[cpu].set_state(addr, LineState::Modified);
                if self.l2[cpu].probe(addr).is_valid() {
                    self.l2[cpu].set_state(addr, LineState::Modified);
                }
                MemResult {
                    finish: now + core.cfg.lat.l1_lat,
                    serviced_by: ServiceLevel::L1,
                    l1_miss: false,
                    l1_extra: 0,
                }
            }
            LineState::Shared => {
                // Upgrade: address-only bus transaction invalidating
                // remote copies. Counts as a hit (the data was
                // local), but the store completes only after the bus
                // acknowledges.
                core.stats.l1d.hit();
                let grant = self.bus.reserve(now + 1, core.cfg.lat.upgrade_occ);
                core.stats.mem_wait += grant - (now + 1);
                core.stats.upgrades += 1;
                snoop::invalidate_remote(
                    &mut core.stats,
                    &mut self.l1d,
                    &mut self.l1i,
                    &mut self.l2,
                    cpu,
                    addr,
                );
                self.l1d[cpu].set_state(addr, LineState::Modified);
                if self.l2[cpu].probe(addr).is_valid() {
                    self.l2[cpu].set_state(addr, LineState::Modified);
                }
                MemResult {
                    finish: grant + core.cfg.lat.upgrade_lat,
                    serviced_by: ServiceLevel::Memory,
                    l1_miss: false,
                    l1_extra: 0,
                }
            }
            _ => unreachable!("Modified handled inline; hit cannot be invalid"),
        }
    }

    /// An access that missed the private L1: walk the private L2, then the
    /// snooping bus and memory (or a remote cache) beyond it.
    #[allow(clippy::too_many_arguments)] // disjoint &mut core fields, by design
    fn service_miss(
        &mut self,
        core: &mut HierarchyCore,
        now: Cycle,
        cpu: usize,
        addr: Addr,
        ifetch: bool,
        write: bool,
        kind: MissKind,
    ) -> MemResult {
        let lstats = if ifetch {
            &mut core.stats.l1i
        } else {
            &mut core.stats.l1d
        };
        lstats.miss(kind);
        // Private L2 lookup.
        let g2 = self.l2_ports[cpu].reserve(now, core.cfg.lat.l2_occ);
        core.stats.l2_bank_wait += g2 - now;
        match self.l2[cpu].lookup(addr) {
            AccessOutcome::Hit(l2_state) => {
                core.stats.l2.hit();
                let can_satisfy = !write || l2_state != LineState::Shared;
                if can_satisfy {
                    let finish = g2 + core.cfg.lat.l2_lat;
                    let wb_at = g2;
                    let l1_state = if write {
                        self.l2[cpu].set_state(addr, LineState::Modified);
                        LineState::Modified
                    } else {
                        match l2_state {
                            LineState::Shared => LineState::Shared,
                            _ => LineState::Exclusive,
                        }
                    };
                    self.l1_fill(core, cpu, addr, ifetch, l1_state, wb_at);
                    MemResult {
                        finish,
                        serviced_by: ServiceLevel::L2,
                        l1_miss: true,
                        l1_extra: 0,
                    }
                } else {
                    // Write to a Shared L2 line: upgrade on the bus.
                    let grant = self.bus.reserve(g2, core.cfg.lat.upgrade_occ);
                    core.stats.mem_wait += grant - g2;
                    core.stats.upgrades += 1;
                    snoop::invalidate_remote(
                        &mut core.stats,
                        &mut self.l1d,
                        &mut self.l1i,
                        &mut self.l2,
                        cpu,
                        addr,
                    );
                    self.l2[cpu].set_state(addr, LineState::Modified);
                    let finish = grant + core.cfg.lat.upgrade_lat;
                    self.l1_fill(core, cpu, addr, ifetch, LineState::Modified, grant);
                    MemResult {
                        finish,
                        serviced_by: ServiceLevel::Memory,
                        l1_miss: true,
                        l1_extra: 0,
                    }
                }
            }
            AccessOutcome::Miss(k2) => {
                core.stats.l2.miss(k2);
                let (finish, level, state, bus_grant) = self.bus_fetch(core, cpu, addr, write, g2);
                self.l2_fill(core, cpu, addr, state, bus_grant);
                self.l1_fill(core, cpu, addr, ifetch, state, bus_grant);
                MemResult {
                    finish,
                    serviced_by: level,
                    l1_miss: true,
                    l1_extra: 0,
                }
            }
        }
    }
}

impl Topology for SharedMemTopo {
    const NAME: &'static str = "shared-memory";

    /// A clean hit in the private L1 — the overwhelmingly common case —
    /// touches nothing shared and returns straight away; stores that need
    /// state work and all misses take the out-of-line paths so this body
    /// inlines into the CPU access loops.
    #[inline]
    fn access(&mut self, core: &mut HierarchyCore, now: Cycle, req: MemRequest) -> MemResult {
        let cpu = req.cpu;
        let addr = req.addr;
        let ifetch = req.kind == AccessKind::IFetch;
        let write = req.kind == AccessKind::Store;

        // L1 lookup.
        let outcome = if ifetch {
            self.l1i[cpu].lookup(addr)
        } else {
            self.l1d[cpu].lookup(addr)
        };
        match outcome {
            AccessOutcome::Hit(state) => {
                if !write || state == LineState::Modified {
                    if ifetch {
                        core.stats.l1i.hit();
                    } else {
                        core.stats.l1d.hit();
                    }
                    return MemResult {
                        finish: now + core.cfg.lat.l1_lat,
                        serviced_by: ServiceLevel::L1,
                        l1_miss: false,
                        l1_extra: 0,
                    };
                }
                self.service_store_hit(core, now, cpu, addr, state)
            }
            AccessOutcome::Miss(kind) => {
                self.service_miss(core, now, cpu, addr, ifetch, write, kind)
            }
        }
    }

    fn check_line(&self, core: &mut HierarchyCore, now: Cycle, cpu: CpuId, addr: Addr) {
        let line = self.l2[0].line_addr(addr);
        snoop::check_mesi_line(
            &mut core.sentinel,
            &self.l1d,
            &self.l1i,
            &self.l2,
            now,
            cpu,
            line,
        );
    }

    #[inline]
    fn load_would_hit_l1(&self, cpu: CpuId, addr: Addr) -> bool {
        self.l1d[cpu].probe(addr).is_valid()
    }

    fn push_port_util(&self, out: &mut Vec<PortUtil>) {
        out.extend(self.l2_ports.iter().map(crate::hierarchy::util_of_port));
        out.push(crate::hierarchy::util_of_port(&self.bus));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::sentinel::ViolationKind;
    use crate::MemorySystem;

    fn sys() -> SharedMemSystem {
        SharedMemSystem::new(&SystemConfig::paper_shared_mem(4))
    }

    #[test]
    fn cold_miss_costs_memory_latency() {
        let mut s = sys();
        let r = s.access(Cycle(0), MemRequest::load(0, 0x1000));
        assert_eq!(r.serviced_by, ServiceLevel::Memory);
        assert_eq!(r.finish, Cycle(50));
        // Sole owner: Exclusive.
        assert_eq!(s.l1d(0).probe(0x1000), LineState::Exclusive);
    }

    #[test]
    fn l1_and_l2_hits_cost_table2_latencies() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::load(0, 0x1000));
        let r1 = s.access(Cycle(100), MemRequest::load(0, 0x1000));
        assert_eq!((r1.finish, r1.serviced_by), (Cycle(101), ServiceLevel::L1));
        // Evict from the 2-way 16KB L1 (stride 8 KB), keep in the 512KB L2.
        s.access(Cycle(200), MemRequest::load(0, 0x1000 + 8 * 1024));
        s.access(Cycle(300), MemRequest::load(0, 0x1000 + 16 * 1024));
        let r2 = s.access(Cycle(400), MemRequest::load(0, 0x1000));
        assert_eq!((r2.finish, r2.serviced_by), (Cycle(410), ServiceLevel::L2));
    }

    #[test]
    fn dirty_remote_line_sourced_cache_to_cache() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::store(0, 0x2000));
        assert_eq!(s.l1d(0).probe(0x2000), LineState::Modified);
        let r = s.access(Cycle(100), MemRequest::load(1, 0x2000));
        assert_eq!(r.serviced_by, ServiceLevel::CacheToCache);
        assert_eq!(r.finish, Cycle(160), "c2c latency is 60 > 50");
        // Both now Shared.
        assert_eq!(s.l1d(0).probe(0x2000), LineState::Shared);
        assert_eq!(s.l1d(1).probe(0x2000), LineState::Shared);
        assert_eq!(s.stats().c2c_transfers, 1);
    }

    #[test]
    fn store_to_shared_line_upgrades_and_invalidates() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::load(0, 0x3000));
        s.access(Cycle(100), MemRequest::load(1, 0x3000)); // both Shared
        let r = s.access(Cycle(200), MemRequest::store(0, 0x3000));
        assert_eq!(s.stats().upgrades, 1);
        assert!(r.finish >= Cycle(220), "upgrade pays bus latency");
        assert_eq!(s.l1d(0).probe(0x3000), LineState::Modified);
        assert_eq!(s.l1d(1).probe(0x3000), LineState::Invalid);
        // CPU 1 re-reads: invalidation miss, sourced c2c (dirty at CPU 0).
        let r2 = s.access(Cycle(400), MemRequest::load(1, 0x3000));
        assert_eq!(r2.serviced_by, ServiceLevel::CacheToCache);
        assert_eq!(s.stats().l1d.miss_inval, 1);
        assert_eq!(s.stats().l2.miss_inval, 1);
    }

    #[test]
    fn write_to_exclusive_is_silent() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::load(0, 0x4000)); // Exclusive
        let r = s.access(Cycle(100), MemRequest::store(0, 0x4000));
        assert_eq!(r.finish, Cycle(101));
        assert_eq!(s.stats().upgrades, 0);
        assert_eq!(s.l1d(0).probe(0x4000), LineState::Modified);
    }

    #[test]
    fn second_reader_gets_shared_not_exclusive() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::load(0, 0x5000));
        let r = s.access(Cycle(100), MemRequest::load(1, 0x5000));
        // Clean remote copy: data still comes from memory on this bus.
        assert_eq!(r.serviced_by, ServiceLevel::Memory);
        assert_eq!(s.l1d(0).probe(0x5000), LineState::Shared);
        assert_eq!(s.l1d(1).probe(0x5000), LineState::Shared);
    }

    #[test]
    fn bus_serializes_misses_from_different_cpus() {
        let mut s = sys();
        let a = s.access(Cycle(0), MemRequest::load(0, 0x6000));
        let b = s.access(Cycle(0), MemRequest::load(1, 0x7000));
        assert_eq!(a.finish, Cycle(50));
        assert_eq!(b.finish, Cycle(56), "6-cycle bus occupancy");
        assert!(s.stats().mem_wait >= 6);
    }

    #[test]
    fn store_miss_fetches_exclusive_and_invalidates() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::load(1, 0x8000)); // CPU1 Exclusive
        let r = s.access(Cycle(100), MemRequest::store(0, 0x8000));
        assert_eq!(r.serviced_by, ServiceLevel::Memory);
        assert_eq!(s.l1d(0).probe(0x8000), LineState::Modified);
        assert_eq!(s.l1d(1).probe(0x8000), LineState::Invalid);
        // CPU1 rereads: invalidation miss.
        s.access(Cycle(300), MemRequest::load(1, 0x8000));
        assert_eq!(s.stats().l1d.miss_inval, 1);
    }

    #[test]
    fn sentinel_clean_traffic_has_no_violations() {
        use crate::sentinel::SentinelSpec;
        let mut s = SharedMemSystem::new(
            &SystemConfig::paper_shared_mem(4).with_sentinel(SentinelSpec::on()),
        );
        for t in 0..300u64 {
            let cpu = (t % 4) as usize;
            let addr = 0x1000 + ((t * 36) % 4096) as Addr;
            match t % 5 {
                0 | 3 => {
                    s.access(Cycle(t * 10), MemRequest::store(cpu, addr));
                }
                4 => {
                    s.access(Cycle(t * 10), MemRequest::ifetch(cpu, addr));
                }
                _ => {
                    s.access(Cycle(t * 10), MemRequest::load(cpu, addr));
                }
            }
        }
        assert!(s.violations().is_empty(), "{:?}", s.violations());
    }

    /// A 4-CPU system with the sentinel on.
    fn checked() -> SharedMemSystem {
        use crate::sentinel::SentinelSpec;
        SharedMemSystem::new(&SystemConfig::paper_shared_mem(4).with_sentinel(SentinelSpec::on()))
    }

    /// Plants a fault in `s`'s caches (clean so far), then issues `access`
    /// to the line so the sentinel checks it; returns what it reported.
    fn check_after(
        mut s: SharedMemSystem,
        plant: impl FnOnce(&mut SharedMemTopo),
        access: MemRequest,
    ) -> Vec<(ViolationKind, String)> {
        assert!(s.violations().is_empty(), "{:?}", s.violations());
        plant(s.topo_mut());
        s.access(Cycle(1_000), access);
        s.violations()
            .iter()
            .map(|v| (v.kind, v.detail.clone()))
            .collect()
    }

    /// What a dropped invalidation leaves: CPU 0's upgrade never reached
    /// CPU 1, whose Shared copy outlives the store beside the new owner.
    #[test]
    fn sentinel_detects_dropped_invalidations() {
        let mut s = checked();
        s.access(Cycle(0), MemRequest::load(0, 0x1000));
        s.access(Cycle(100), MemRequest::load(1, 0x1000)); // both Shared
        s.access(Cycle(200), MemRequest::store(0, 0x1000)); // invalidates CPU 1
        let found = check_after(
            s,
            |t| {
                t.l2[1].fill(0x1000, LineState::Shared);
                t.l1d[1].fill(0x1000, LineState::Shared);
            },
            MemRequest::load(0, 0x1000),
        );
        assert_eq!(
            found,
            [(
                ViolationKind::SharedAlongsideOwner,
                "cpu 0 owns the line while cpus [1] still hold copies".to_string()
            )]
        );
    }

    /// A spurious second owner: CPU 1 holds Exclusive what CPU 0 already
    /// owns.
    #[test]
    fn sentinel_detects_spurious_states() {
        let mut s = checked();
        s.access(Cycle(0), MemRequest::load(0, 0x2000)); // CPU 0 Exclusive
        let found = check_after(
            s,
            |t| {
                t.l2[1].fill(0x2000, LineState::Exclusive);
                t.l1d[1].fill(0x2000, LineState::Exclusive);
            },
            MemRequest::load(0, 0x2000),
        );
        assert_eq!(
            found,
            [(
                ViolationKind::MultipleOwners,
                "cpus [0, 1] each hold the line in an ownership (M/E) state".to_string()
            )]
        );
    }

    /// The instruction cache is never written, so a dirty I-line is a
    /// fault even when its CPU is the line's only holder.
    #[test]
    fn sentinel_detects_a_dirty_instruction_line() {
        let mut s = checked();
        s.access(Cycle(0), MemRequest::ifetch(0, 0x3000)); // CPU 0 Exclusive
        let found = check_after(
            s,
            |t| t.l1i[0].set_state(0x3000, LineState::Modified),
            MemRequest::ifetch(0, 0x3000),
        );
        assert_eq!(
            found,
            [(
                ViolationKind::WriteThroughDirty,
                "cpu 0 instruction cache holds the line dirty".to_string()
            )]
        );
    }

    #[test]
    fn miss_kinds_tracked_per_level() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::load(0, 0x9000));
        assert_eq!(s.stats().l1d.miss_repl, 1);
        assert_eq!(s.stats().l2.miss_repl, 1);
        assert_eq!(s.stats().l1d.miss_inval, 0);
    }
}
