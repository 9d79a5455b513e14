//! `cmpsim` — a reproduction of *"Evaluation of Design Alternatives for a
//! Multiprocessor Microprocessor"* (Nayfeh, Hammond & Olukotun, ISCA 1996).
//!
//! This facade crate re-exports the whole stack; see the README for the
//! architecture overview and `EXPERIMENTS.md` for paper-vs-measured
//! results. The sub-crates:
//!
//! * [`engine`] — discrete-event core (cycles, ports,
//!   statistics, the job pool).
//! * [`isa`] — the MIPS-like instruction set, assembler and
//!   disassembler.
//! * [`mem`] — physical memory, caches, and the five memory
//!   systems (the paper's three plus the clustered and mesh
//!   extensions).
//! * [`cpu`] — the functional core and the Mipsy / MXS timing
//!   models.
//! * [`kernels`] — the synchronization runtime and the
//!   workload generators.
//! * [`trace`] — reference-trace capture at the CPU/memory
//!   boundary, the compact binary codec, trace-driven replay and the
//!   sharing/reuse analysis passes.
//! * [`core`] — machine assembly, the experiment runner and
//!   the paper's metrics.
//! * [`explore`] — design-space search over machine
//!   configurations, with a Pareto frontier and a result cache.
//!
//! # Examples
//!
//! Run a workload on one of the paper's architectures:
//!
//! ```
//! use cmpsim::core::machine::run_workload;
//! use cmpsim::core::{ArchKind, CpuKind, MachineConfig};
//! use cmpsim::kernels::build_by_name;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = build_by_name("eqntott", 4, 0.05)?;
//! let cfg = MachineConfig::new(ArchKind::SharedL1, CpuKind::Mipsy);
//! let summary = run_workload(&cfg, &workload, 100_000_000)?;
//! assert!(summary.wall_cycles > 0);
//! # Ok(())
//! # }
//! ```

pub use cmpsim_core as core;
pub use cmpsim_cpu as cpu;
pub use cmpsim_engine as engine;
pub use cmpsim_explore as explore;
pub use cmpsim_isa as isa;
pub use cmpsim_kernels as kernels;
pub use cmpsim_mem as mem;
pub use cmpsim_trace as trace;
