//! Shared-secondary-cache architecture (Figure 2 of the paper).
//!
//! Four CPUs with private 16 KB write-through L1 caches (1-cycle hits) share
//! a 4-banked write-back 2 MB L2 through a crossbar. The crossbar and chip
//! crossings raise the L2 latency from 10 to 14 cycles, and the narrower
//! 64-bit datapath raises line-transfer occupancy from 2 to 4 cycles.
//!
//! Coherence follows the scheme the paper describes: the L1s are
//! write-through (no-write-allocate) for shared data and every L2 line
//! carries a directory of which L1s hold a copy. A write or an L2
//! replacement invalidates (or would update) all other cached copies, so no
//! snooping logic is needed in the processors.
//!
//! The entire access walk lives in
//! [`DirectoryTopo`](crate::hierarchy::DirectoryTopo); this file only
//! names the scheme — one CPU per node, private L1s on the crossbar, every
//! step the walk's default.

use crate::config::SystemConfig;
use crate::hierarchy::{DirectoryLayout, DirectoryTopo, HierarchySystem, NodeScheme};

/// Shared-L2 scheme: every CPU is its own node with a private L1, one
/// crossbar crossing (inside `l2_lat`) from every L2 bank.
#[derive(Debug)]
pub struct PerCpu;

impl NodeScheme for PerCpu {
    const NAME: &'static str = "shared-L2";
    const NOUN: &'static str = "cpu";
}

/// The shared-L2 multiprocessor memory system.
pub type SharedL2System = HierarchySystem<DirectoryTopo<PerCpu>>;

impl SharedL2System {
    /// Builds the system from a configuration (see
    /// [`SystemConfig::paper_shared_l2`]).
    ///
    /// # Panics
    ///
    /// Panics on a configuration that fails [`SystemConfig::validate`].
    pub fn new(cfg: &SystemConfig) -> SharedL2System {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        HierarchySystem::from_parts(
            cfg,
            DirectoryTopo::build(cfg, &DirectoryLayout::private(cfg), PerCpu),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LineState;
    use crate::config::SystemConfig;
    use crate::hierarchy::directory::plant::{assert_reported, Plant};
    use crate::sentinel::{SentinelSpec, ViolationKind};
    use crate::{MemRequest, MemorySystem, ServiceLevel};
    use cmpsim_engine::Cycle;

    fn sys() -> SharedL2System {
        SharedL2System::new(&SystemConfig::paper_shared_l2(4))
    }

    #[test]
    fn l1_hit_is_one_cycle() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::load(0, 0x1000));
        let r = s.access(Cycle(100), MemRequest::load(0, 0x1000));
        assert_eq!(r.finish, Cycle(101));
        assert_eq!(r.serviced_by, ServiceLevel::L1);
    }

    #[test]
    fn l2_hit_costs_fourteen_cycles() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::load(0, 0x1000)); // cold: fills L2
        let r = s.access(Cycle(100), MemRequest::load(1, 0x1000)); // other CPU: L1 miss, L2 hit
        assert_eq!(r.serviced_by, ServiceLevel::L2);
        assert_eq!(r.finish, Cycle(114));
    }

    #[test]
    fn cold_miss_costs_memory_latency() {
        let mut s = sys();
        let r = s.access(Cycle(0), MemRequest::load(0, 0x1000));
        assert_eq!(r.serviced_by, ServiceLevel::Memory);
        assert_eq!(r.finish, Cycle(50));
    }

    #[test]
    fn store_invalidates_other_sharers() {
        let mut s = sys();
        // Both CPUs read the line.
        s.access(Cycle(0), MemRequest::load(0, 0x1000));
        s.access(Cycle(100), MemRequest::load(1, 0x1000));
        // CPU 0 writes through; CPU 1's copy is invalidated.
        s.access(Cycle(200), MemRequest::store(0, 0x1000));
        assert_eq!(s.stats().invalidations_sent, 1);
        assert_eq!(s.l1d(1).probe(0x1000), LineState::Invalid);
        assert_eq!(
            s.l1d(0).probe(0x1000),
            LineState::Shared,
            "writer keeps its copy"
        );
        // CPU 1's next read is an invalidation miss serviced by the L2.
        let r = s.access(Cycle(300), MemRequest::load(1, 0x1000));
        assert_eq!(r.serviced_by, ServiceLevel::L2);
        assert_eq!(s.stats().l1d.miss_inval, 1);
    }

    #[test]
    fn stores_contend_for_l2_banks() {
        let mut s = sys();
        // Warm the line so stores hit in the L2.
        s.access(Cycle(0), MemRequest::load(0, 0x1000));
        let a = s.access(Cycle(100), MemRequest::store(0, 0x1000));
        let b = s.access(Cycle(100), MemRequest::store(1, 0x1004));
        assert_eq!(a.finish, Cycle(101));
        assert_eq!(b.finish, Cycle(105), "second store waits STORE_OCC cycles");
        assert!(s.stats().l2_bank_wait >= 2);
        // A store to a different bank does not wait.
        s.access(Cycle(200), MemRequest::load(2, 0x2020));
        let c = s.access(Cycle(300), MemRequest::store(0, 0x1008));
        let d = s.access(Cycle(300), MemRequest::store(2, 0x2020));
        assert_eq!(c.finish, Cycle(301));
        assert_eq!(d.finish, Cycle(301));
    }

    #[test]
    fn store_miss_allocates_in_l2_only() {
        let mut s = sys();
        let r = s.access(Cycle(0), MemRequest::store(0, 0x3000));
        assert_eq!(r.serviced_by, ServiceLevel::Memory);
        assert_eq!(s.l2().probe(0x3000), LineState::Modified);
        assert_eq!(
            s.l1d(0).probe(0x3000),
            LineState::Invalid,
            "no-write-allocate L1"
        );
    }

    #[test]
    fn l2_eviction_back_invalidates_l1_as_replacement() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::load(0, 0x1000));
        // Evict 0x1000 from the direct-mapped 2MB L2 with a conflicting line.
        let conflict = 0x1000 + 2 * 1024 * 1024;
        s.access(Cycle(100), MemRequest::load(1, conflict));
        assert_eq!(
            s.l1d(0).probe(0x1000),
            LineState::Invalid,
            "inclusion enforced"
        );
        // The refetch is a *replacement* miss, not an invalidation miss.
        s.access(Cycle(200), MemRequest::load(0, 0x1000));
        assert_eq!(s.stats().l1d.miss_inval, 0);
        assert_eq!(s.stats().l1d.miss_repl, 3);
    }

    #[test]
    fn sentinel_clean_traffic_has_no_violations() {
        use crate::Addr;
        let mut s = SharedL2System::new(
            &SystemConfig::paper_shared_l2(4).with_sentinel(SentinelSpec::on()),
        );
        for t in 0..200u64 {
            let cpu = (t % 4) as usize;
            let addr = 0x1000 + ((t * 52) % 4096) as Addr;
            if t % 3 == 0 {
                s.access(Cycle(t * 10), MemRequest::store(cpu, addr));
            } else {
                s.access(Cycle(t * 10), MemRequest::load(cpu, addr));
            }
        }
        assert!(s.violations().is_empty(), "{:?}", s.violations());
    }

    #[test]
    fn ifetch_copies_also_invalidated_on_write() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::ifetch(1, 0x5000));
        s.access(Cycle(100), MemRequest::store(0, 0x5000));
        assert_eq!(s.stats().invalidations_sent, 1);
        let r = s.access(Cycle(200), MemRequest::ifetch(1, 0x5000));
        assert_eq!(r.serviced_by, ServiceLevel::L2);
        assert_eq!(s.stats().l1i.miss_inval, 1);
    }

    #[test]
    fn eight_cpu_geometry_runs_via_config_alone() {
        let mut s = SharedL2System::new(&SystemConfig::paper_shared_l2(8));
        assert_eq!(s.n_cpus(), 8);
        s.access(Cycle(0), MemRequest::load(7, 0x1000));
        let r = s.access(Cycle(100), MemRequest::load(7, 0x1000));
        assert_eq!(r.serviced_by, ServiceLevel::L1);
        // A write by CPU 0 invalidates all seven other sharers.
        for cpu in 1..8 {
            s.access(Cycle(200 + cpu as u64 * 20), MemRequest::load(cpu, 0x1000));
        }
        s.access(Cycle(1000), MemRequest::store(0, 0x1000));
        assert_eq!(s.stats().invalidations_sent, 7);
        assert!(s.directory_consistent());
    }

    #[test]
    fn sentinel_detects_dropped_invalidations() {
        let cfg = SystemConfig::paper_shared_l2(4).with_sentinel(SentinelSpec::on());
        let s = SharedL2System::new(&cfg);
        assert_reported(s, Plant::StaleCopy, ViolationKind::CopyWithoutPresence);
    }

    #[test]
    fn sentinel_detects_spurious_directory_state() {
        let cfg = SystemConfig::paper_shared_l2(4).with_sentinel(SentinelSpec::on());
        let s = SharedL2System::new(&cfg);
        assert_reported(s, Plant::GhostBit, ViolationKind::PresenceWithoutCopy);
    }
}
