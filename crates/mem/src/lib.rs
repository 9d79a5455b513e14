//! The `cmpsim` memory hierarchy.
//!
//! This crate implements everything below the CPU pipeline for the three
//! multiprocessor architectures studied in the paper:
//!
//! * [`PhysMem`] — the physical memory *contents* (sparse byte store with
//!   per-CPU LL/SC link registers). Data values live here; the timing models
//!   operate purely on addresses. It also decodes instructions for both
//!   CPU models ([`PhysMem::fetch`], hence this crate's one dependency on
//!   `cmpsim-isa`): one memo of decoded words per page for the whole
//!   machine, cleared word by word by every write.
//! * [`CacheArray`] — a set-associative tag/state array with exact LRU
//!   replacement and replacement-vs-invalidation miss classification,
//!   one packed word per way: the tag, the line state and the way's LRU
//!   rank. Every cache has the paper's [`LINE_BYTES`]-byte lines, so a
//!   [`CacheSpec`] is just a capacity and an associativity of 1 to
//!   [`CacheSpec::MAX_ASSOC`].
//! * The [`hierarchy`] core — the shared coherent-hierarchy building
//!   blocks (L1 frontend, directory/invalidation engine, MESI snooping,
//!   sentinel hooks, `MemorySystem` boilerplate) every architecture is
//!   assembled from. The directory keeps its presence bits in one flat
//!   bitset beside the shared L2's ways, a d-side and an i-side lane per
//!   way, each lane the node count rounded up to a power of two up to 64
//!   and to whole words above: 1 B per way at 4 nodes, 16 B at 33–64.
//! * The five architectures behind the [`MemorySystem`] trait:
//!   [`SharedL1System`], [`SharedL2System`], [`SharedMemSystem`],
//!   [`ClusteredSystem`] and [`MeshSystem`] — thin geometry descriptions
//!   over the hierarchy core, generic over `n_cpus` (up to
//!   [`SystemConfig::MAX_CPUS`]) and cluster/grid geometry. The last
//!   three are one directory walk ([`hierarchy::DirectoryTopo`]) whose
//!   node schemes differ only in the L1 front end and the interconnect
//!   stage to the shared L2.
//! * [`sentinel`] — the opt-in coherence checker
//!   ([`SentinelSpec::on`]): after every access the owning system checks
//!   the touched line's directory or MESI invariants and records
//!   [`SentinelViolation`]s. The shared L1 has no coherence state to
//!   check.
//! * [`WriteBuffer`] — the per-CPU store buffer both CPU models drain
//!   stores through.
//!
//! Timing follows the paper's event-driven reservation style: every shared
//! resource (cache bank, crossbar, bus, DRAM) has an *occupancy*, and a
//! request's completion time is computed by reserving each resource along
//! its path in order, so queueing delays compound exactly as they would in
//! the pipelined hardware. Table 2 of the paper gives the contention-free
//! latencies; [`LatencySpec`] reproduces them.
//!
//! # Examples
//!
//! ```
//! use cmpsim_engine::Cycle;
//! use cmpsim_mem::{MemRequest, MemorySystem, SharedMemSystem, SystemConfig};
//!
//! let mut sys = SharedMemSystem::new(&SystemConfig::paper_shared_mem(4));
//! let res = sys.access(Cycle(0), MemRequest::load(0, 0x1000));
//! // Cold miss: serviced by main memory at the paper's 50-cycle latency.
//! assert_eq!(res.finish, Cycle(50));
//! ```

pub mod cache;
pub mod config;
mod decode;
pub mod hierarchy;
pub mod phys;
pub mod sentinel;
pub mod stats;
pub mod systems;
pub mod wbuf;

pub use cache::{AccessOutcome, CacheArray, LineState, MissKind, Victim};
pub use config::{CacheSpec, ConfigError, LatencySpec, SystemConfig};
pub use phys::{AddrSpace, PhysMem, KERNEL_BASE};
pub use sentinel::{Sentinel, SentinelSpec, SentinelViolation, ViolationKind};
pub use stats::{LevelStats, MemStats};
pub use systems::{ClusteredSystem, MeshSystem, SharedL1System, SharedL2System, SharedMemSystem};
pub use wbuf::WriteBuffer;

use cmpsim_engine::Cycle;

/// Byte address (32-bit physical space).
pub type Addr = u32;

/// Cache line size in bytes: every cache of every architecture, as in the
/// paper. The L2 occupancies of Table 2 are per 32-byte line.
pub const LINE_BYTES: u32 = 32;

/// CPU identifier within the multiprocessor (0..n_cpus).
pub type CpuId = usize;

/// The kind of memory access a CPU issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (read through the instruction cache).
    IFetch,
    /// Data read (includes `LL`).
    Load,
    /// Data write (includes a successful `SC`).
    Store,
}

/// A memory access request from a CPU timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Issuing CPU.
    pub cpu: CpuId,
    /// Access kind.
    pub kind: AccessKind,
    /// Physical byte address.
    pub addr: Addr,
}

impl MemRequest {
    /// Convenience constructor for a data load.
    pub fn load(cpu: CpuId, addr: Addr) -> MemRequest {
        MemRequest {
            cpu,
            kind: AccessKind::Load,
            addr,
        }
    }
    /// Convenience constructor for a data store.
    pub fn store(cpu: CpuId, addr: Addr) -> MemRequest {
        MemRequest {
            cpu,
            kind: AccessKind::Store,
            addr,
        }
    }
    /// Convenience constructor for an instruction fetch.
    pub fn ifetch(cpu: CpuId, addr: Addr) -> MemRequest {
        MemRequest {
            cpu,
            kind: AccessKind::IFetch,
            addr,
        }
    }
}

/// Which level of the hierarchy serviced an access — drives the stall
/// breakdowns of Figures 4–10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceLevel {
    /// Hit in the (possibly shared) L1.
    L1,
    /// Serviced by the L2 cache.
    L2,
    /// Serviced by main memory.
    Memory,
    /// Sourced from another CPU's cache over the bus (shared-memory arch).
    CacheToCache,
}

/// Completion information for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResult {
    /// Cycle at which the data (critical word) is available to the CPU.
    pub finish: Cycle,
    /// Hierarchy level that supplied the data.
    pub serviced_by: ServiceLevel,
    /// Whether the access missed in the L1 (drives MSHR accounting in MXS).
    pub l1_miss: bool,
    /// Cycles of the L1 access beyond a 1-cycle ideal hit (extra shared-L1
    /// hit latency + bank-conflict wait). The paper counts these as
    /// *pipeline* stalls under MXS rather than cache stalls.
    pub l1_extra: u64,
}

/// Utilization of one hardware resource (port or bank group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortUtil {
    /// Resource label ("l2-bank", "bus", ...).
    pub name: &'static str,
    /// Transactions granted.
    pub grants: u64,
    /// Cycles the resource was occupied.
    pub busy_cycles: u64,
    /// Cycles requests waited for it.
    pub wait_cycles: u64,
}

/// A multiprocessor memory system: one of the paper's three architectures.
///
/// Implementations are purely *timing* models — data contents live in
/// [`PhysMem`] and are read/written by the CPU's functional core. This
/// timing/function split mirrors the paper's SimOS setup, where the CPU
/// simulator feeds references to an event-driven memory-system simulator.
pub trait MemorySystem {
    /// Issues one access and returns its completion time and attribution.
    fn access(&mut self, now: Cycle, req: MemRequest) -> MemResult;

    /// Whether a load by `cpu` to `addr` would hit in its L1 right now,
    /// without touching any state. The MXS model uses this for MSHR
    /// admission: a lockup-free cache keeps servicing hits while its four
    /// miss registers are busy, but a fifth miss cannot issue.
    fn load_would_hit_l1(&self, cpu: CpuId, addr: Addr) -> bool;

    /// Number of CPUs this system connects.
    fn n_cpus(&self) -> usize;

    /// Accumulated statistics.
    fn stats(&self) -> &MemStats;

    /// Mutable statistics (used to reset at the region-of-interest marker).
    fn stats_mut(&mut self) -> &mut MemStats;

    /// Human-readable architecture name for reports.
    fn name(&self) -> &'static str;

    /// Utilization of every contended resource, for bandwidth analyses.
    fn port_utilization(&self) -> Vec<PortUtil>;

    /// Invariant violations detected by the coherence sentinel so far.
    /// Empty unless the system was built with
    /// [`SentinelSpec::enabled`](sentinel::SentinelSpec).
    fn violations(&self) -> &[sentinel::SentinelViolation] {
        &[]
    }
}

/// A boxed system is a system: lets `Box<dyn MemorySystem>` (the shape
/// `ArchKind::try_build`-style factories return) flow into APIs generic
/// over `S: MemorySystem` — the batched replay driver in particular —
/// without unboxing. Forwards every method, including the defaulted ones,
/// so sentinel reports survive the indirection.
impl<M: MemorySystem + ?Sized> MemorySystem for Box<M> {
    fn access(&mut self, now: Cycle, req: MemRequest) -> MemResult {
        (**self).access(now, req)
    }
    fn load_would_hit_l1(&self, cpu: CpuId, addr: Addr) -> bool {
        (**self).load_would_hit_l1(cpu, addr)
    }
    fn n_cpus(&self) -> usize {
        (**self).n_cpus()
    }
    fn stats(&self) -> &MemStats {
        (**self).stats()
    }
    fn stats_mut(&mut self) -> &mut MemStats {
        (**self).stats_mut()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn port_utilization(&self) -> Vec<PortUtil> {
        (**self).port_utilization()
    }
    fn violations(&self) -> &[sentinel::SentinelViolation] {
        (**self).violations()
    }
}
