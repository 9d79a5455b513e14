//! `cmpsim-core`: the paper's experimental apparatus.
//!
//! This crate assembles complete machines — one of the three multiprocessor
//! architectures ([`ArchKind`]) under one of the two CPU models
//! ([`CpuKind`]) — loads a workload from `cmpsim-kernels`, runs it to
//! completion with the multiprogramming process scheduler, and reports the
//! paper's metrics: execution-time breakdowns (Figures 4–10), IPC
//! breakdowns (Figure 11) and cache miss rates split into replacement and
//! invalidation components.
//!
//! [`ArchKind::try_visit`] is the one place an architecture becomes a
//! memory system: it hands the concrete system to a generic
//! [`SystemVisitor`]. A [`Machine`] is such a visit: its run loop is
//! generic over the CPU model and the system, so every step and every
//! access is a static call, and the loop is erased behind one box, so
//! [`Machine::run`] makes one virtual call per run. [`ArchSystem`] is
//! another, replaying a trace through the concrete system;
//! [`ArchKind::try_build`] boxes the system for callers that mix
//! architectures in one collection.
//!
//! # Examples
//!
//! Run Eqntott on all three architectures and compare:
//!
//! ```
//! use cmpsim_core::{ArchKind, CpuKind, Machine, MachineConfig};
//! use cmpsim_kernels::build_by_name;
//!
//! # fn main() -> Result<(), String> {
//! let w = build_by_name("eqntott", 4, 0.02)?;
//! for arch in ArchKind::ALL {
//!     let cfg = MachineConfig::new(arch, CpuKind::Mipsy);
//!     let mut m = Machine::new(&cfg, &w);
//!     let summary = m.run(200_000_000).map_err(|e| e.to_string())?;
//!     assert!(summary.wall_cycles > 0);
//! }
//! # Ok(())
//! # }
//! ```

pub mod machine;
pub mod probe;
pub mod report;

pub use cmpsim_cpu::MxsConfig;
pub use machine::{
    run_workload, ArchKind, ArchSystem, CpuDiag, CpuKind, Machine, MachineConfig, RunError,
    RunSummary, SystemVisitor, WatchdogReport,
};
pub use probe::{capture_run, probe_latencies, ProbeResult};
pub use report::{Breakdown, IpcBreakdown, MissRates, TraceProfile};
