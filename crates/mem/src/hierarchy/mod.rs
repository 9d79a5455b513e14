//! The shared coherent-hierarchy core behind the five memory systems.
//!
//! The paper's three architectures (plus the clustered and mesh
//! extensions) differ only in *where* the CPUs interconnect; everything
//! else — the L1 hit fast path, fill/victim handling, directory
//! bookkeeping, snoop arbitration, sentinel hooks, statistics — is common
//! machinery. This module owns that machinery once:
//!
//! * [`HierarchyCore`] — configuration, statistics and the coherence
//!   sentinel, shared by every topology.
//! * [`Topology`] — the trait a topology description implements: which
//!   resources sit on the miss path and in what order. A topology only
//!   writes its access walk; [`HierarchySystem`] supplies the entire
//!   [`MemorySystem`] surface (latency histogram, sentinel dispatch,
//!   accessor boilerplate) on top. There are three walks: the shared L1,
//!   the snooping bus, and the directory.
//! * [`frontend`] — the write-back L1 fill/victim helper shared by the
//!   shared-L1 and shared-memory designs.
//! * [`directory`] — the presence-bitmap [`Directory`] engine and
//!   [`DirectoryTopo`], the one write-through-L1-over-shared-L2 walk. Its
//!   [`NodeScheme`] is the only part that varies: private L1s on a
//!   crossbar (shared-L2), cluster L1s behind a node crossbar (clustered),
//!   or tiles whose misses cross a mesh (mesh). An interconnect is a
//!   stage of this walk, not a walk of its own.
//! * [`backside`] — what sits below the L1s: a banked shared L2 with a
//!   memory port ([`SharedL2Back`]) or a uniprocessor-style L2/memory pair
//!   ([`UniBack`]).
//! * [`snoop`] — MESI snoop/invalidate/downgrade steps and the MESI
//!   legality check for bus-based private hierarchies.
//!
//! See DESIGN.md §10 for the recipe for adding a new topology.

pub mod backside;
pub mod directory;
pub mod frontend;
pub mod snoop;

pub use backside::{SharedL2Back, UniBack};
pub use directory::{Directory, DirectoryLayout, DirectoryTopo, NodeScheme};

use crate::config::SystemConfig;
use crate::sentinel::{Sentinel, SentinelViolation};
use crate::stats::MemStats;
use crate::{Addr, CpuId, MemRequest, MemResult, MemorySystem, PortUtil};
use cmpsim_engine::{BankedResource, Cycle, Port};

/// State every topology shares: the configuration it was built from, the
/// accumulated statistics, and the coherence sentinel.
#[derive(Debug)]
pub struct HierarchyCore {
    /// The configuration the system was built from.
    pub cfg: SystemConfig,
    /// Accumulated statistics (reset at the region-of-interest marker).
    pub stats: MemStats,
    /// Invariant checker (off unless configured).
    pub sentinel: Sentinel,
}

impl HierarchyCore {
    /// Builds the shared core from a configuration.
    pub fn new(cfg: &SystemConfig) -> HierarchyCore {
        HierarchyCore {
            cfg: *cfg,
            stats: MemStats::new(),
            sentinel: Sentinel::from_spec(&cfg.sentinel),
        }
    }
}

/// A topology description: the resources on the access path and the order
/// they are walked in. Implementations write only the walk; the shared
/// [`HierarchySystem`] wrapper supplies everything else a [`MemorySystem`]
/// needs.
pub trait Topology {
    /// Architecture name reported by [`MemorySystem::name`].
    const NAME: &'static str;

    /// The untimed-record core of one access: walk the hierarchy, reserve
    /// contended resources, update caches/directories and `core.stats`.
    /// The wrapper records the latency histogram and runs the sentinel
    /// check afterwards.
    fn access(&mut self, core: &mut HierarchyCore, now: Cycle, req: MemRequest) -> MemResult;

    /// Sentinel invariant check scoped to the line `addr` falls in. Called
    /// by the wrapper after every access when the sentinel is on; report
    /// violations through `core.sentinel`.
    fn check_line(&self, core: &mut HierarchyCore, now: Cycle, cpu: CpuId, addr: Addr);

    /// Whether a load by `cpu` would hit its L1 right now (state untouched).
    fn load_would_hit_l1(&self, cpu: CpuId, addr: Addr) -> bool;

    /// Appends one [`PortUtil`] per contended resource, in report order.
    fn push_port_util(&self, out: &mut Vec<PortUtil>);
}

/// A complete memory system assembled from the shared [`HierarchyCore`]
/// plus one topology description. This is the single [`MemorySystem`]
/// implementation all five architectures share.
#[derive(Debug)]
pub struct HierarchySystem<T> {
    core: HierarchyCore,
    topo: T,
}

impl<T: Topology> HierarchySystem<T> {
    /// Assembles a system from a configuration and its topology.
    pub fn from_parts(cfg: &SystemConfig, topo: T) -> HierarchySystem<T> {
        HierarchySystem {
            core: HierarchyCore::new(cfg),
            topo,
        }
    }

    /// The topology description (systems expose their own typed probes —
    /// `l1d()`, `l2()`, … — through this).
    pub fn topo(&self) -> &T {
        &self.topo
    }

    /// The topology description, mutably: the sentinel tests plant faults
    /// in a live system's caches and presence table through this.
    #[cfg(test)]
    pub(crate) fn topo_mut(&mut self) -> &mut T {
        &mut self.topo
    }
}

impl<T: Topology> MemorySystem for HierarchySystem<T> {
    #[inline]
    fn access(&mut self, now: Cycle, req: MemRequest) -> MemResult {
        let res = self.topo.access(&mut self.core, now, req);
        self.core.stats.latency.record(res.finish - now);
        if self.core.sentinel.on() {
            self.topo.check_line(&mut self.core, now, req.cpu, req.addr);
        }
        res
    }

    #[inline]
    fn load_would_hit_l1(&self, cpu: CpuId, addr: Addr) -> bool {
        self.topo.load_would_hit_l1(cpu, addr)
    }

    fn n_cpus(&self) -> usize {
        self.core.cfg.n_cpus
    }

    fn stats(&self) -> &MemStats {
        &self.core.stats
    }

    fn stats_mut(&mut self) -> &mut MemStats {
        &mut self.core.stats
    }

    fn name(&self) -> &'static str {
        T::NAME
    }

    fn port_utilization(&self) -> Vec<PortUtil> {
        let mut v = Vec::new();
        self.topo.push_port_util(&mut v);
        v
    }

    fn violations(&self) -> &[SentinelViolation] {
        self.core.sentinel.violations()
    }
}

/// Utilization snapshot of a single port.
pub fn util_of_port(p: &Port) -> PortUtil {
    PortUtil {
        name: p.name(),
        grants: p.grants(),
        busy_cycles: p.busy_cycles(),
        wait_cycles: p.wait_cycles(),
    }
}

/// Utilization snapshot aggregated over a bank group, reported under the
/// group's label.
pub fn util_of_banks(b: &BankedResource) -> PortUtil {
    let mut u = PortUtil {
        name: b.name(),
        grants: 0,
        busy_cycles: 0,
        wait_cycles: 0,
    };
    for k in 0..b.n_banks() {
        let p = b.bank(k);
        u.grants += p.grants();
        u.busy_cycles += p.busy_cycles();
        u.wait_cycles += p.wait_cycles();
    }
    u
}
