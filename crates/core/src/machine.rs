//! Machine assembly and the simulation run loop.

use cmpsim_cpu::{ArchState, CpuCounters, CpuModel, MipsyCpu, MxsConfig, MxsCpu, StepEvent};
use cmpsim_engine::Cycle;
use cmpsim_isa::HcallNo;
use cmpsim_kernels::BuiltWorkload;
use cmpsim_mem::{
    AddrSpace, ClusteredSystem, ConfigError, MemStats, MemorySystem, MeshSystem, PhysMem,
    SentinelSpec, SentinelViolation, SharedL1System, SharedL2System, SharedMemSystem, SystemConfig,
};
use cmpsim_trace::{sink_to, SinkHandle, SinkOut, TracingSystem};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// Which of the paper's three architectures to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// Figure 1: four CPUs share banked L1 caches through a crossbar.
    SharedL1,
    /// Figure 2: private write-through L1s over a banked shared L2.
    SharedL2,
    /// Figure 3: private L1+L2 per CPU on a snooping MESI bus.
    SharedMem,
    /// Extension (the authors' HPCA'96 follow-up \[16\]): two 2-CPU clusters
    /// each sharing an L1, over the shared L2. Not part of the paper's
    /// three-way comparison, so excluded from [`ArchKind::ALL`].
    Clustered,
    /// Scaling extension: a 2D mesh of tiles (private L1 + router each)
    /// over the directory-kept shared L2, line-interleaved across home
    /// tiles with XY-routed NoC traffic. Not part of the paper's
    /// three-way comparison, so excluded from [`ArchKind::ALL`].
    Mesh,
}

impl ArchKind {
    /// The paper's three architectures, in its presentation order (the
    /// [`ArchKind::Clustered`] extension is driven explicitly by the
    /// extension benches).
    pub const ALL: [ArchKind; 3] = [ArchKind::SharedL1, ArchKind::SharedL2, ArchKind::SharedMem];

    /// Human-readable name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            ArchKind::SharedL1 => "shared-L1",
            ArchKind::SharedL2 => "shared-L2",
            ArchKind::SharedMem => "shared-memory",
            ArchKind::Clustered => "clustered",
            ArchKind::Mesh => "mesh",
        }
    }

    /// The paper's configuration for this architecture.
    pub fn config(self, n_cpus: usize) -> SystemConfig {
        match self {
            ArchKind::SharedL1 => SystemConfig::paper_shared_l1(n_cpus),
            ArchKind::SharedL2 => SystemConfig::paper_shared_l2(n_cpus),
            ArchKind::SharedMem => SystemConfig::paper_shared_mem(n_cpus),
            // The clustered extension shares the shared-L2 substrate.
            ArchKind::Clustered => SystemConfig::paper_shared_l2(n_cpus),
            ArchKind::Mesh => SystemConfig::paper_mesh(n_cpus),
        }
    }

    /// Builds the memory system.
    ///
    /// # Panics
    ///
    /// Panics on configurations the architecture rejects (e.g. a cluster
    /// geometry that does not divide the CPU count). Use
    /// [`ArchKind::try_build`] for a fallible variant.
    pub fn build(self, cfg: &SystemConfig) -> Box<dyn MemorySystem> {
        self.try_build(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible builder: surfaces architecture-specific configuration
    /// errors (partial clusters, unrepresentable pooled L1 geometries) as
    /// typed errors instead of panics.
    pub fn try_build(self, cfg: &SystemConfig) -> Result<Box<dyn MemorySystem>, ConfigError> {
        Ok(match self {
            ArchKind::SharedL1 => Box::new(SharedL1System::new(cfg)),
            ArchKind::SharedL2 => Box::new(SharedL2System::new(cfg)),
            ArchKind::SharedMem => Box::new(SharedMemSystem::new(cfg)),
            ArchKind::Clustered => Box::new(ClusteredSystem::try_new(cfg)?),
            ArchKind::Mesh => Box::new(MeshSystem::try_new(cfg)?),
        })
    }
}

impl fmt::Display for ArchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses any [`ArchKind::name`] or one of the CLI aliases `l1`, `l2`,
/// `mem` and `shared-mem`, ignoring case.
impl std::str::FromStr for ArchKind {
    type Err = String;

    fn from_str(s: &str) -> Result<ArchKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "shared-l1" | "l1" => Ok(ArchKind::SharedL1),
            "shared-l2" | "l2" => Ok(ArchKind::SharedL2),
            "shared-memory" | "shared-mem" | "mem" => Ok(ArchKind::SharedMem),
            "clustered" => Ok(ArchKind::Clustered),
            "mesh" => Ok(ArchKind::Mesh),
            _ => Err(format!("unknown architecture `{s}`")),
        }
    }
}

/// Which CPU timing model to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuKind {
    /// Simple in-order model; all memory time stalls the CPU.
    Mipsy,
    /// Detailed 2-way dynamic superscalar (paper defaults).
    Mxs,
    /// MXS with a custom configuration (ablations).
    MxsCustom(MxsConfig),
}

impl CpuKind {
    fn is_mipsy(self) -> bool {
        matches!(self, CpuKind::Mipsy)
    }
}

/// Full machine configuration.
///
/// Per the paper's methodology, Mipsy runs idealize the shared L1 (1-cycle
/// hits, no bank contention) while MXS runs model the real 3-cycle hit time
/// and bank conflicts; `ideal_shared_l1` overrides that default for
/// ablation studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    pub arch: ArchKind,
    pub cpu: CpuKind,
    pub n_cpus: usize,
    /// Override the L2 associativity (MP3D ablation).
    pub l2_assoc: Option<usize>,
    /// Override the L2 capacity in bytes (explore size sweeps). Total for
    /// shared configurations, per CPU for shared-memory — the
    /// [`SystemConfig::l2`] convention.
    pub l2_size: Option<u32>,
    /// Override the L2 bank count (explore bank sweeps).
    pub l2_banks: Option<usize>,
    /// Override the shared-L1 hit latency.
    pub l1_latency: Option<u64>,
    /// Override the shared-L1 bank count.
    pub l1_banks: Option<usize>,
    /// Override the L2 occupancy (datapath-width ablation).
    pub l2_occupancy: Option<u64>,
    /// Override the L1 capacity in bytes (cache-size extension study).
    pub l1_size: Option<u32>,
    /// Override the Mipsy/MXS idealization default.
    pub ideal_shared_l1: Option<bool>,
    /// Override the cluster geometry (clustered architecture): CPUs per
    /// cluster-shared L1. `None` keeps the paper default of 2.
    pub cpus_per_cluster: Option<usize>,
    /// Override the tile grid (mesh architecture) as `(rows, cols)`.
    /// `None` keeps the near-square default; rows × cols must equal
    /// `n_cpus` or the build fails validation.
    pub mesh_dims: Option<(usize, usize)>,
    /// Coherence-sentinel specification. `None` means off, the same as
    /// `Some(SentinelSpec::off())`.
    pub sentinel: Option<SentinelSpec>,
    /// Forward-progress watchdog: flag a CPU that graduates nothing for
    /// this many cycles. `None` means the watchdog is off.
    pub stall_cycles: Option<u64>,
    /// Retired: every run is one serial loop (DESIGN.md §12 says why there
    /// is no intra-run parallelism). `None` and `Some(1)` are accepted;
    /// [`Machine::try_new`] rejects any other value with
    /// [`ConfigError::ShardsRetired`]. The field stays only so existing
    /// callers that pin `Some(1)` keep compiling.
    pub shards: Option<usize>,
}

impl MachineConfig {
    /// A 4-CPU paper-default machine.
    pub fn new(arch: ArchKind, cpu: CpuKind) -> MachineConfig {
        MachineConfig {
            arch,
            cpu,
            n_cpus: 4,
            l2_assoc: None,
            l2_size: None,
            l2_banks: None,
            l1_latency: None,
            l1_banks: None,
            l2_occupancy: None,
            l1_size: None,
            ideal_shared_l1: None,
            cpus_per_cluster: None,
            mesh_dims: None,
            sentinel: None,
            stall_cycles: None,
            shards: None,
        }
    }

    /// Resolved memory-system configuration.
    pub fn system_config(&self) -> SystemConfig {
        let mut sc = self.arch.config(self.n_cpus);
        if let Some(a) = self.l2_assoc {
            sc = sc.with_l2_assoc(a);
        }
        if let Some(b) = self.l2_size {
            sc = sc.with_l2_size(b);
        }
        if let Some(b) = self.l2_banks {
            sc = sc.with_l2_banks(b);
        }
        if let Some(l) = self.l1_latency {
            sc = sc.with_l1_latency(l);
        }
        if let Some(b) = self.l1_banks {
            sc = sc.with_l1_banks(b);
        }
        if let Some(o) = self.l2_occupancy {
            sc = sc.with_l2_occupancy(o);
        }
        if let Some(b) = self.l1_size {
            sc = sc.with_l1_size(b);
        }
        if let Some(k) = self.cpus_per_cluster {
            sc = sc.with_cpus_per_cluster(k);
        }
        if let Some((r, c)) = self.mesh_dims {
            sc = sc.with_mesh_dims(r, c);
        }
        let ideal = self.ideal_shared_l1.unwrap_or_else(|| {
            self.cpu.is_mipsy() && matches!(self.arch, ArchKind::SharedL1 | ArchKind::Clustered)
        });
        sc.with_ideal_shared_l1(ideal)
            .with_sentinel(self.sentinel.unwrap_or_default())
    }
}

/// Per-CPU diagnostic snapshot taken when a run fails to make progress —
/// the payload of the enriched [`RunError::Timeout`] and
/// [`RunError::Stalled`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuDiag {
    /// CPU index.
    pub cpu: usize,
    /// Whether the CPU had already halted.
    pub done: bool,
    /// Architectural program counter at the failure point.
    pub pc: u32,
    /// Cycle at which the CPU would next step.
    pub ready_cycle: u64,
    /// Instructions graduated so far.
    pub instructions: u64,
    /// Outstanding LL reservation (line address), if any.
    pub ll_reservation: Option<u32>,
    /// Cycles since this CPU last graduated an instruction (0 when the
    /// watchdog is off).
    pub stalled_for: u64,
}

impl fmt::Display for CpuDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.done {
            return write!(
                f,
                "cpu {} done ({} instructions)",
                self.cpu, self.instructions
            );
        }
        write!(
            f,
            "cpu {} at pc {:#x}, ready at cycle {}, {} instructions graduated",
            self.cpu, self.pc, self.ready_cycle, self.instructions
        )?;
        if let Some(ll) = self.ll_reservation {
            write!(f, ", LL reservation on line {ll:#x}")?;
        }
        if self.stalled_for > 0 {
            write!(f, ", no progress for {} cycles", self.stalled_for)?;
        }
        Ok(())
    }
}

/// What the machine looked like when the run loop gave up: one
/// [`CpuDiag`] per CPU plus the sentinel's violation count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WatchdogReport {
    /// Per-CPU snapshots, index-ordered.
    pub cpus: Vec<CpuDiag>,
    /// Sentinel violations recorded before the failure (0 with the
    /// sentinel off).
    pub violations: usize,
}

impl WatchdogReport {
    /// The CPUs that had not halted when the run gave up.
    pub fn stuck_cpus(&self) -> impl Iterator<Item = &CpuDiag> {
        self.cpus.iter().filter(|d| !d.done)
    }
}

impl fmt::Display for WatchdogReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stuck: Vec<&CpuDiag> = self.stuck_cpus().collect();
        if stuck.is_empty() {
            write!(f, "no CPU was stuck")?;
        } else {
            write!(f, "stuck: ")?;
            for (i, d) in stuck.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "{d}")?;
            }
        }
        if self.violations > 0 {
            write!(f, " ({} sentinel violations recorded)", self.violations)?;
        }
        Ok(())
    }
}

/// Forward-progress watchdog: per-CPU graduation counts, with the cycle at
/// which each last advanced. Factored out of [`Machine::run`] so the
/// stall-detection arithmetic is unit-testable without building a machine.
#[derive(Debug, Clone)]
pub struct Watchdog {
    limit: u64,
    last_instructions: Vec<u64>,
    last_progress: Vec<u64>,
}

impl Watchdog {
    /// A watchdog flagging any CPU that graduates nothing for more than
    /// `limit` cycles.
    pub fn new(limit: u64, n_cpus: usize) -> Watchdog {
        Watchdog {
            limit,
            last_instructions: vec![0; n_cpus],
            last_progress: vec![0; n_cpus],
        }
    }

    /// The configured stall limit in cycles.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Records `cpu`'s graduation count at `cycle`. Returns
    /// `Some(stalled_for)` when the CPU has gone more than the limit
    /// without graduating anything.
    pub fn observe(&mut self, cpu: usize, cycle: u64, instructions: u64) -> Option<u64> {
        if instructions != self.last_instructions[cpu] {
            self.last_instructions[cpu] = instructions;
            self.last_progress[cpu] = cycle;
            return None;
        }
        let stalled = cycle.saturating_sub(self.last_progress[cpu]);
        (stalled > self.limit).then_some(stalled)
    }

    /// Cycles since `cpu` last made progress, as of `cycle`.
    pub fn stalled_for(&self, cpu: usize, cycle: u64) -> u64 {
        cycle.saturating_sub(self.last_progress[cpu])
    }
}

/// Why a run stopped without completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The cycle budget expired before every CPU finished. The report
    /// names the CPUs that never halted, their PCs, graduation counts and
    /// LL reservations.
    Timeout {
        budget: u64,
        report: Box<WatchdogReport>,
    },
    /// The forward-progress watchdog caught a CPU graduating nothing for
    /// more than `limit` cycles (see [`MachineConfig::stall_cycles`]).
    Stalled {
        limit: u64,
        report: Box<WatchdogReport>,
    },
    /// The workload self-check failed after completion.
    CheckFailed(String),
    /// The machine could not be built from its configuration.
    Config(ConfigError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Timeout { budget, report } => {
                write!(f, "run exceeded the {budget}-cycle budget; {report}")
            }
            RunError::Stalled { limit, report } => {
                write!(
                    f,
                    "forward-progress watchdog fired after {limit} stalled cycles; {report}"
                )
            }
            RunError::CheckFailed(msg) => write!(f, "workload validation failed: {msg}"),
            RunError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Results of one complete run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Architecture that produced this run.
    pub arch: ArchKind,
    /// Wall-clock cycles from the region-of-interest start (or time zero)
    /// to the last CPU finishing.
    pub wall_cycles: u64,
    /// Per-CPU counters.
    pub per_cpu: Vec<CpuCounters>,
    /// All CPUs merged.
    pub total: CpuCounters,
    /// Memory-system statistics.
    pub mem: MemStats,
    /// Per-resource utilization (ports, banks, bus).
    pub port_util: Vec<cmpsim_mem::PortUtil>,
    /// Recorded phase markers: (cycle, cpu, tag).
    pub phases: Vec<(u64, usize, u8)>,
    /// Sentinel violations detected during the run (always empty with the
    /// sentinel off; a correct simulator leaves it empty with it on too).
    pub violations: Vec<SentinelViolation>,
}

impl RunSummary {
    /// Aggregate instructions per cycle across all CPUs (MXS runs).
    pub fn machine_ipc(&self) -> f64 {
        if self.wall_cycles == 0 {
            0.0
        } else {
            self.total.instructions as f64 / self.wall_cycles as f64
        }
    }
}

struct ProcessCtx {
    arch: ArchState,
    space: AddrSpace,
}

/// A complete simulated machine: CPUs, memory system, physical memory and
/// the per-CPU process queues of the multiprogramming scheduler.
pub struct Machine {
    cfg: MachineConfig,
    cpus: Vec<Box<dyn CpuModel>>,
    mem: Box<dyn MemorySystem>,
    phys: PhysMem,
    ready: Vec<Cycle>,
    done: Vec<bool>,
    queues: Vec<VecDeque<ProcessCtx>>,
    roi_start: Cycle,
    phases: Vec<(u64, usize, u8)>,
    workload_name: &'static str,
    /// Resolved watchdog limit (None = watchdog off).
    stall_limit: Option<u64>,
    /// Reference-trace sink when capture is on; the other end is held by
    /// the [`TracingSystem`] wrapped around `mem`. `None` means `mem` is
    /// the raw system — capture off costs exactly zero.
    trace: Option<SinkHandle>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("arch", &self.cfg.arch)
            .field("workload", &self.workload_name)
            .field("n_cpus", &self.cpus.len())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine and installs `workload` into it.
    ///
    /// # Panics
    ///
    /// Panics if the workload was built for a different CPU count or the
    /// configuration is invalid. Use [`Machine::try_new`] for a fallible
    /// variant.
    pub fn new(cfg: &MachineConfig, workload: &BuiltWorkload) -> Machine {
        Machine::try_new(cfg, workload).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects a workload built for a different CPU
    /// count, a shard count other than 1 ([`MachineConfig::shards`] is
    /// retired) and invalid system configurations. The machine runs the
    /// raw memory system: it never captures a trace.
    pub fn try_new(cfg: &MachineConfig, workload: &BuiltWorkload) -> Result<Machine, ConfigError> {
        Machine::try_new_inner(cfg, workload, None)
    }

    /// Builds a machine that captures its reference trace into `out`.
    /// Every memory access the CPUs issue is appended to `out` in the
    /// `cmpsim-trace` binary format, and the trace is finished when the
    /// run completes. A [`SinkOut::Atomic`] destination is renamed onto
    /// its path only then, so a killed run never leaves a torn file where
    /// a finished trace is expected.
    ///
    /// # Errors
    ///
    /// As [`Machine::try_new`], plus a capture of more CPUs than a trace
    /// record can name.
    pub fn try_new_capturing(
        cfg: &MachineConfig,
        workload: &BuiltWorkload,
        out: SinkOut,
    ) -> Result<Machine, ConfigError> {
        Machine::try_new_inner(cfg, workload, Some(out))
    }

    fn try_new_inner(
        cfg: &MachineConfig,
        workload: &BuiltWorkload,
        trace_out: Option<SinkOut>,
    ) -> Result<Machine, ConfigError> {
        if workload.entries.len() != cfg.n_cpus {
            return Err(ConfigError::WorkloadCpuMismatch {
                workload: workload.entries.len(),
                machine: cfg.n_cpus,
            });
        }
        if let Some(shards) = cfg.shards.filter(|&n| n != 1) {
            return Err(ConfigError::ShardsRetired { shards });
        }
        let sc = cfg.system_config();
        sc.validate()?;
        if let CpuKind::MxsCustom(mc) = cfg.cpu {
            mc.validate()?;
        }
        let trace_max = usize::from(cmpsim_trace::codec::MAX_CPU) + 1;
        if trace_out.is_some() && cfg.n_cpus > trace_max {
            return Err(ConfigError::CaptureTooManyCpus {
                n_cpus: cfg.n_cpus,
                max: trace_max,
            });
        }
        let mem = cfg.arch.try_build(&sc)?;
        // Install the capture decorator only when asked: the wrapper
        // forwards everything unchanged (a traced run is bit-identical to
        // an untraced one), and its absence means zero overhead.
        let (mem, trace): (Box<dyn MemorySystem>, Option<SinkHandle>) = match trace_out {
            Some(out) => {
                let sink = sink_to(out, cfg.n_cpus, mem.line_bytes())
                    .unwrap_or_else(|e| panic!("trace capture failed: {e}"));
                (
                    Box::new(TracingSystem::new(mem, Rc::clone(&sink))),
                    Some(sink),
                )
            }
            None => (mem, None),
        };
        let mut phys = PhysMem::new(cfg.n_cpus);
        workload.install(&mut phys);
        let cpus: Vec<Box<dyn CpuModel>> = workload
            .entries
            .iter()
            .enumerate()
            .map(|(c, p)| -> Box<dyn CpuModel> {
                match cfg.cpu {
                    CpuKind::Mipsy => Box::new(MipsyCpu::new(c, p.entry, p.space)),
                    CpuKind::Mxs => Box::new(MxsCpu::new(c, p.entry, p.space)),
                    CpuKind::MxsCustom(mc) => {
                        Box::new(MxsCpu::with_config(c, p.entry, p.space, mc))
                    }
                }
            })
            .collect();
        let queues = workload
            .extra_processes
            .iter()
            .map(|v| {
                v.iter()
                    .map(|p| ProcessCtx {
                        arch: ArchState::new(p.entry),
                        space: p.space,
                    })
                    .collect()
            })
            .collect();
        Ok(Machine {
            cfg: *cfg,
            cpus,
            mem,
            phys,
            ready: vec![Cycle::ZERO; workload.entries.len()],
            done: vec![false; workload.entries.len()],
            queues,
            roi_start: Cycle::ZERO,
            phases: Vec::new(),
            workload_name: workload.name,
            stall_limit: cfg.stall_cycles,
            trace,
        })
    }

    /// The earliest not-done CPU as `(ready cycle, index)`, ties to the
    /// lowest index; `None` once every CPU is done.
    fn earliest_ready(&self) -> Option<(Cycle, usize)> {
        let mut best: Option<(Cycle, usize)> = None;
        for (c, (&r, &done)) in self.ready.iter().zip(&self.done).enumerate() {
            if !done && best.is_none_or(|(t, _)| r < t) {
                best = Some((r, c));
            }
        }
        best
    }

    /// Runs until every CPU finishes or `max_cycles` elapses: steps the
    /// earliest-ready CPU (ties to the lowest index) until all halt.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Timeout`] if the budget expires, or
    /// [`RunError::Stalled`] if the forward-progress watchdog fires.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunSummary, RunError> {
        let mut watchdog = self.stall_limit.map(|l| Watchdog::new(l, self.cpus.len()));
        let mut pick = self.earliest_ready();
        while let Some((now, c)) = pick {
            if now.0 > max_cycles {
                let report = self.diagnose(now.0, watchdog.as_ref());
                return Err(RunError::Timeout {
                    budget: max_cycles,
                    report: Box::new(report),
                });
            }
            let (next, ev) = self.cpus[c].step(now, self.mem.as_mut(), &mut self.phys);
            debug_assert!(next >= now, "cpu {c} stepped back in time");
            self.ready[c] = next;
            // Handle the event before consulting the watchdog: a step that
            // halts (or exits the last process) must never be reported as
            // stalled, even when it graduated nothing — MXS can spend its
            // final cycles draining without graduation.
            match ev {
                StepEvent::None => {}
                StepEvent::Halted => self.done[c] = true,
                StepEvent::Hcall(no) => self.handle_hcall(c, now, no),
            }
            if let Some(w) = &mut watchdog {
                if !self.done[c]
                    && w.observe(c, next.0, self.cpus[c].counters().instructions)
                        .is_some()
                {
                    let limit = w.limit();
                    let report = self.diagnose(next.0, watchdog.as_ref());
                    return Err(RunError::Stalled {
                        limit,
                        report: Box::new(report),
                    });
                }
            }
            // A step moves only the stepped CPU's ready cycle: hcalls
            // switch processes on `c` or mark it done, and never move
            // another CPU's. Every CPU below `c` is ready after `now`
            // (ties went to the lowest index), so the next CPU is the
            // lowest not-done index from `c` upward still ready at `now`.
            // Only when there is none has time advanced, and a full scan
            // finds the earliest.
            pick = self.ready[c..]
                .iter()
                .zip(&self.done[c..])
                .position(|(&r, &done)| r == now && !done)
                .map(|i| (now, c + i))
                .or_else(|| self.earliest_ready());
        }
        Ok(self.summary())
    }

    /// Snapshots every CPU for a failure report.
    fn diagnose(&self, now: u64, watchdog: Option<&Watchdog>) -> WatchdogReport {
        let cpus = (0..self.cpus.len())
            .map(|c| CpuDiag {
                cpu: c,
                done: self.done[c],
                pc: self.cpus[c].arch().pc,
                ready_cycle: self.ready[c].0,
                instructions: self.cpus[c].counters().instructions,
                ll_reservation: self.phys.link(c),
                stalled_for: watchdog.map_or(0, |w| w.stalled_for(c, now)),
            })
            .collect();
        WatchdogReport {
            cpus,
            violations: self.mem.violations().len(),
        }
    }

    /// Services a harness call from CPU `c`.
    fn handle_hcall(&mut self, c: usize, now: Cycle, no: HcallNo) {
        match no {
            HcallNo::ResetStats => {
                for cpu in &mut self.cpus {
                    cpu.counters_mut().reset();
                }
                self.mem.stats_mut().reset();
                // The reset is invisible at the access boundary, so the
                // trace carries an explicit marker — replay re-applies it
                // to reproduce region-of-interest statistics exactly.
                if let Some(t) = &self.trace {
                    t.borrow_mut().record_reset(now.0);
                }
                self.roi_start = now;
            }
            HcallNo::Phase(tag) => self.phases.push((now.0, c, tag)),
            HcallNo::Yield => {
                if let Some(next) = self.queues[c].pop_front() {
                    let saved = switch_ctx(self.cpus[c].as_mut(), next);
                    self.queues[c].push_back(saved);
                }
            }
            HcallNo::Exit => {
                if let Some(next) = self.queues[c].pop_front() {
                    let _ = switch_ctx(self.cpus[c].as_mut(), next);
                } else {
                    self.done[c] = true;
                }
            }
        }
    }

    fn summary(&mut self) -> RunSummary {
        // Seal the capture (chunk flush + footer) before reporting; the
        // sink also finishes best-effort on drop for error paths.
        if let Some(t) = &self.trace {
            t.borrow_mut()
                .finish()
                .unwrap_or_else(|e| panic!("trace capture failed: {e}"));
        }
        let per_cpu: Vec<CpuCounters> = self.cpus.iter().map(|c| c.counters().clone()).collect();
        let mut total = CpuCounters::new();
        for c in &per_cpu {
            total.merge(c);
        }
        let wall = self
            .ready
            .iter()
            .map(|r| r.0)
            .max()
            .unwrap_or(0)
            .saturating_sub(self.roi_start.0);
        RunSummary {
            arch: self.cfg.arch,
            wall_cycles: wall,
            per_cpu,
            total,
            mem: self.mem.stats().clone(),
            port_util: self.mem.port_utilization(),
            // Hand the recorded markers over instead of cloning them — the
            // machine is finished; a second summary() would start a fresh
            // (empty) list.
            phases: std::mem::take(&mut self.phases),
            violations: self.mem.violations().to_vec(),
        }
    }

    /// Turns off every CPU's decoded-instruction cache before a run. The
    /// cache is a pure host-speed optimization: results are identical
    /// either way, which `tests/decode_cache.rs` proves with this switch.
    pub fn disable_decode_cache(&mut self) {
        for cpu in &mut self.cpus {
            cpu.disable_decode_cache();
        }
    }

    /// Read access to physical memory (validation, probes).
    pub fn phys(&self) -> &PhysMem {
        &self.phys
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }
}

/// Switches `cpu` to the context `next`, returning the saved context.
fn switch_ctx(cpu: &mut dyn CpuModel, next: ProcessCtx) -> ProcessCtx {
    let saved = ProcessCtx {
        arch: cpu.arch().clone(),
        space: cpu.space(),
    };
    *cpu.arch_mut() = next.arch;
    cpu.set_space(next.space);
    cpu.flush();
    saved
}

/// Builds, runs and validates `workload` in one call.
///
/// # Errors
///
/// Returns [`RunError::Config`] for a configuration [`Machine::try_new`]
/// rejects, [`RunError::Timeout`] or [`RunError::Stalled`] for a run that
/// does not finish, and [`RunError::CheckFailed`] for a failed self-check.
pub fn run_workload(
    cfg: &MachineConfig,
    workload: &BuiltWorkload,
    max_cycles: u64,
) -> Result<RunSummary, RunError> {
    let mut m = Machine::try_new(cfg, workload).map_err(RunError::Config)?;
    let summary = m.run(max_cycles)?;
    (workload.check)(m.phys()).map_err(RunError::CheckFailed)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_kernels::build_by_name;

    #[test]
    fn arch_names_and_aliases_parse_in_any_case() {
        use ArchKind::*;
        for arch in [SharedL1, SharedL2, SharedMem, Clustered, Mesh] {
            assert_eq!(arch.name().parse(), Ok(arch));
            assert_eq!(arch.name().to_uppercase().parse(), Ok(arch));
        }
        for (alias, arch) in [("l1", SharedL1), ("L2", SharedL2), ("mem", SharedMem)] {
            assert_eq!(alias.parse(), Ok(arch));
        }
        assert_eq!("Shared-Mem".parse(), Ok(SharedMem));
        assert_eq!(
            "bus".parse::<ArchKind>(),
            Err("unknown architecture `bus`".to_string())
        );
    }

    #[test]
    fn runs_a_parallel_workload_on_all_architectures() {
        let w = build_by_name("eqntott", 4, 0.03).expect("builds");
        for arch in ArchKind::ALL {
            let cfg = MachineConfig::new(arch, CpuKind::Mipsy);
            let s = run_workload(&cfg, &w, 100_000_000).unwrap_or_else(|e| panic!("{arch}: {e}"));
            assert!(s.wall_cycles > 0);
            assert!(s.total.instructions > 100);
        }
    }

    #[test]
    fn multiprog_schedules_processes() {
        let w = build_by_name("multiprog", 4, 0.1).expect("builds");
        let cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::Mipsy);
        let s = run_workload(&cfg, &w, 400_000_000).expect("runs");
        // 8 processes across 4 CPUs: each CPU ran two.
        assert_eq!(s.per_cpu.len(), 4);
        assert!(s.total.stores > 0);
    }

    #[test]
    fn mxs_machine_runs_eqntott() {
        let w = build_by_name("eqntott", 4, 0.02).expect("builds");
        let cfg = MachineConfig::new(ArchKind::SharedL1, CpuKind::Mxs);
        let s = run_workload(&cfg, &w, 100_000_000).expect("runs");
        assert!(s.total.mxs_cycles > 0);
        assert!(s.machine_ipc() > 0.0);
    }

    #[test]
    fn mipsy_idealizes_shared_l1_by_default() {
        let cfg = MachineConfig::new(ArchKind::SharedL1, CpuKind::Mipsy);
        assert!(cfg.system_config().ideal_shared_l1);
        let cfg = MachineConfig::new(ArchKind::SharedL1, CpuKind::Mxs);
        assert!(!cfg.system_config().ideal_shared_l1);
        let cfg = MachineConfig::new(ArchKind::SharedL2, CpuKind::Mipsy);
        assert!(
            !cfg.system_config().ideal_shared_l1,
            "only the shared L1 is idealized"
        );
    }

    #[test]
    fn config_overrides_apply() {
        let mut cfg = MachineConfig::new(ArchKind::SharedL1, CpuKind::Mipsy);
        cfg.l2_assoc = Some(4);
        cfg.l1_latency = Some(5);
        cfg.ideal_shared_l1 = Some(false);
        let sc = cfg.system_config();
        assert_eq!(sc.l2.assoc, 4);
        assert_eq!(sc.lat.l1_lat, 5);
        assert!(!sc.ideal_shared_l1);
    }

    #[test]
    fn timeout_is_reported() {
        let w = build_by_name("ocean", 4, 0.2).expect("builds");
        let cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::Mipsy);
        let mut m = Machine::new(&cfg, &w);
        let err = m.run(1_000).expect_err("far too small a budget");
        assert!(matches!(err, RunError::Timeout { budget: 1_000, .. }));
        let msg = err.to_string();
        assert!(msg.contains("budget"));
        // The enriched report names the stuck CPUs and their PCs.
        assert!(msg.contains("stuck"), "{msg}");
        assert!(msg.contains("pc 0x"), "{msg}");
        if let RunError::Timeout { report, .. } = err {
            assert_eq!(report.cpus.len(), 4);
            assert!(report.stuck_cpus().count() > 0);
        }
    }

    #[test]
    fn watchdog_flags_a_cpu_that_stops_graduating() {
        let mut w = Watchdog::new(100, 2);
        assert_eq!(w.observe(0, 10, 5), None, "progress resets the clock");
        assert_eq!(w.observe(0, 50, 5), None, "within the limit");
        assert_eq!(w.observe(1, 400, 0), Some(400), "cpu 1 never graduated");
        assert_eq!(
            w.observe(0, 111, 6),
            None,
            "new instructions count as progress"
        );
        assert_eq!(w.stalled_for(0, 200), 89);
    }

    #[test]
    fn try_new_rejects_workload_cpu_mismatch() {
        let w = build_by_name("eqntott", 4, 0.03).expect("builds");
        let mut cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::Mipsy);
        cfg.n_cpus = 2;
        let err = Machine::try_new(&cfg, &w).expect_err("4-CPU workload on a 2-CPU machine");
        assert!(matches!(
            err,
            cmpsim_mem::ConfigError::WorkloadCpuMismatch {
                workload: 4,
                machine: 2
            }
        ));
        assert!(err.to_string().contains("different CPU count"));
        assert_eq!(
            run_workload(&cfg, &w, 1_000).expect_err("does not build"),
            RunError::Config(cmpsim_mem::ConfigError::WorkloadCpuMismatch {
                workload: 4,
                machine: 2
            })
        );
    }

    /// `shards` is retired: only `None` and `Some(1)` build, and any other
    /// count is a typed error naming the value.
    #[test]
    fn try_new_rejects_a_shard_count_other_than_one() {
        let w = build_by_name("eqntott", 4, 0.03).expect("builds");
        let mut cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::Mipsy);
        for shards in [0usize, 4] {
            cfg.shards = Some(shards);
            let err = Machine::try_new(&cfg, &w).expect_err("retired shard count");
            assert_eq!(err, cmpsim_mem::ConfigError::ShardsRetired { shards });
            assert!(
                err.to_string().contains(&format!("shards = {shards}")),
                "{err}"
            );
        }
        for shards in [None, Some(1)] {
            cfg.shards = shards;
            Machine::try_new(&cfg, &w).unwrap_or_else(|e| panic!("{shards:?}: {e}"));
        }
    }

    /// A trace record names at most 64 CPUs, so a capturing build of a
    /// larger machine is a typed error rather than a panic in the writer.
    #[test]
    fn capturing_more_cpus_than_a_trace_carries_is_a_config_error() {
        let w = build_by_name("eqntott", 128, 0.02).expect("builds");
        let mut cfg = MachineConfig::new(ArchKind::Mesh, CpuKind::Mipsy);
        cfg.n_cpus = 128;
        let err = Machine::try_new_capturing(&cfg, &w, SinkOut::Plain(Box::new(std::io::sink())))
            .expect_err("128 CPUs exceed the trace tag field");
        let want = cmpsim_mem::ConfigError::CaptureTooManyCpus {
            n_cpus: 128,
            max: 64,
        };
        assert_eq!(err, want);
        let err = crate::probe::capture_run(&cfg, &w, 1_000).expect_err("does not build");
        assert_eq!(err, RunError::Config(want));
    }

    #[test]
    fn try_new_rejects_bad_mxs_configs() {
        let w = build_by_name("eqntott", 4, 0.03).expect("builds");
        let starved = MxsConfig {
            phys_regs: 40,
            ..MxsConfig::default()
        };
        let cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::MxsCustom(starved));
        let err = Machine::try_new(&cfg, &w).expect_err("starved register file");
        assert!(matches!(
            err,
            cmpsim_mem::ConfigError::TooFewPhysRegs { phys_regs: 40, .. }
        ));
        assert!(err.to_string().contains("32 + rob_entries"));
    }

    /// The trace contract end to end: a traced run is bit-identical to an
    /// untraced one (the wrapper cannot perturb the experiment), and
    /// replaying the capture into a fresh system built from configuration
    /// alone reproduces the memory statistics bit for bit.
    #[test]
    fn captured_trace_replays_to_identical_mem_stats() {
        let cfg = MachineConfig::new(ArchKind::SharedL2, CpuKind::Mipsy);
        let w = build_by_name("eqntott", 4, 0.03).expect("builds");
        let (summary, bytes) = crate::probe::capture_run(&cfg, &w, 100_000_000).expect("captures");

        let w2 = build_by_name("eqntott", 4, 0.03).expect("builds");
        let plain = run_workload(&cfg, &w2, 100_000_000).expect("runs");
        assert_eq!(
            format!("{:?}", summary.mem),
            format!("{:?}", plain.mem),
            "capture must not perturb the run it observes"
        );

        let mut sys = cfg.arch.build(&cfg.system_config());
        let rs = cmpsim_trace::replay_bytes(&bytes, sys.as_mut()).expect("replays");
        assert!(rs.accesses > 1_000);
        assert_eq!(
            format!("{:?}", sys.stats()),
            format!("{:?}", plain.mem),
            "replay must reproduce MemStats bit-identically"
        );
        assert_eq!(
            format!("{:?}", sys.port_utilization()),
            format!("{:?}", plain.port_util),
        );
    }

    /// The `(cpu, now)` of every step a machine of [`ScriptedCpu`]s took.
    type StepLog = Rc<std::cell::RefCell<Vec<(usize, u64)>>>;

    /// A CPU model that follows a script: step `i` takes `latencies[i]`
    /// cycles and graduates nothing, and the last step halts (or, with
    /// `exit`, exits its only process). Every step appends `(cpu, now)` to
    /// the shared log.
    struct ScriptedCpu {
        id: usize,
        latencies: Vec<u64>,
        exit: bool,
        steps: usize,
        log: StepLog,
        arch: ArchState,
        space: AddrSpace,
        counters: CpuCounters,
    }

    impl CpuModel for ScriptedCpu {
        fn step(
            &mut self,
            now: Cycle,
            _mem: &mut dyn MemorySystem,
            _phys: &mut PhysMem,
        ) -> (Cycle, StepEvent) {
            let latency = *self
                .latencies
                .get(self.steps)
                .unwrap_or_else(|| panic!("cpu {} stepped after it finished", self.id));
            self.steps += 1;
            self.log.borrow_mut().push((self.id, now.0));
            let ev = if self.steps < self.latencies.len() {
                StepEvent::None
            } else if self.exit {
                StepEvent::Hcall(HcallNo::Exit)
            } else {
                StepEvent::Halted
            };
            (now + latency, ev)
        }
        fn arch(&self) -> &ArchState {
            &self.arch
        }
        fn arch_mut(&mut self) -> &mut ArchState {
            &mut self.arch
        }
        fn set_space(&mut self, space: AddrSpace) {
            self.space = space;
        }
        fn space(&self) -> AddrSpace {
            self.space
        }
        fn flush(&mut self) {}
        fn disable_decode_cache(&mut self) {}
        fn halted(&self) -> bool {
            self.steps == self.latencies.len()
        }
        fn counters(&self) -> &CpuCounters {
            &self.counters
        }
        fn counters_mut(&mut self) -> &mut CpuCounters {
            &mut self.counters
        }
    }

    /// A machine of one [`ScriptedCpu`] per `(latencies, exit)` script and
    /// no extra processes, with the log its CPUs share.
    fn scripted_machine(
        scripts: Vec<(Vec<u64>, bool)>,
        stall_limit: Option<u64>,
    ) -> (Machine, StepLog) {
        let n = scripts.len();
        let log = StepLog::default();
        let cpus = scripts
            .into_iter()
            .enumerate()
            .map(|(id, (latencies, exit))| -> Box<dyn CpuModel> {
                Box::new(ScriptedCpu {
                    id,
                    latencies,
                    exit,
                    steps: 0,
                    log: Rc::clone(&log),
                    arch: ArchState::new(0x1000),
                    space: AddrSpace::identity(),
                    counters: CpuCounters::new(),
                })
            })
            .collect();
        let cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::Mipsy);
        let m = Machine {
            cfg,
            cpus,
            mem: Box::new(SharedMemSystem::new(&cfg.system_config())),
            phys: PhysMem::new(n),
            ready: vec![Cycle::ZERO; n],
            done: vec![false; n],
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            roi_start: Cycle::ZERO,
            phases: Vec::new(),
            workload_name: "scripted",
            stall_limit,
            trace: None,
        };
        (m, log)
    }

    /// One step that consumes a long stretch of simulated time and halts
    /// without graduating anything: the shape that used to trip the
    /// watchdog, because observing *before* handling
    /// [`StepEvent::Halted`] reported the halting CPU as stalled.
    #[test]
    fn watchdog_does_not_flag_a_halting_step() {
        // A limit far below the 10_000-cycle final step: the old
        // observe-before-event order reported this run as Stalled.
        let (mut m, _) = scripted_machine(vec![(vec![10_000], false)], Some(100));
        let s = m
            .run(1_000_000)
            .expect("a halting step must never be reported as stalled");
        assert_eq!(s.total.instructions, 0);
    }

    /// The run loop steps CPUs in the order of a linear scan for the
    /// minimum `(ready cycle, index)` over the CPUs not yet done, and ends
    /// at the same wall cycle.
    #[test]
    fn run_loop_steps_the_earliest_ready_cpu_lowest_index_first() {
        const LATENCIES: [u64; 6] = [0, 1, 2, 3, 50, 10_000];
        cmpsim_engine::prop::check("run_loop_pick_order", |src| {
            let n = src.usize(1..131);
            let scripts: Vec<(Vec<u64>, bool)> = (0..n)
                .map(|_| (src.vec(1..22, |s| s.choice(&LATENCIES)), src.bool()))
                .collect();

            // Reference: pick the minimum (ready, index) by linear scan.
            let mut ready = vec![0u64; n];
            let mut taken = vec![0usize; n];
            let mut want = Vec::new();
            while let Some(c) = (0..n)
                .filter(|&c| taken[c] < scripts[c].0.len())
                .min_by_key(|&c| (ready[c], c))
            {
                want.push((c, ready[c]));
                ready[c] += scripts[c].0[taken[c]];
                taken[c] += 1;
            }

            let (mut m, log) = scripted_machine(scripts, None);
            let s = m.run(u64::MAX).expect("a scripted run completes");
            assert_eq!(*log.borrow(), want, "step order");
            assert_eq!(s.wall_cycles, ready.into_iter().max().unwrap_or(0));
        });
    }

    #[test]
    fn deterministic_across_runs() {
        let w = build_by_name("volpack", 4, 0.05).expect("builds");
        let cfg = MachineConfig::new(ArchKind::SharedL2, CpuKind::Mipsy);
        let a = run_workload(&cfg, &w, 100_000_000).expect("runs");
        let w2 = build_by_name("volpack", 4, 0.05).expect("builds");
        let b = run_workload(&cfg, &w2, 100_000_000).expect("runs");
        assert_eq!(a.wall_cycles, b.wall_cycles, "same seed, same cycles");
        assert_eq!(a.total, b.total);
    }

    fn stalled_error() -> RunError {
        RunError::Stalled {
            limit: 1_000,
            report: Box::new(WatchdogReport {
                cpus: vec![CpuDiag {
                    cpu: 0,
                    done: false,
                    pc: 0x1234,
                    ready_cycle: 5_000,
                    instructions: 42,
                    ll_reservation: None,
                    stalled_for: 2_000,
                }],
                violations: 0,
            }),
        }
    }

    /// A stalled run's error text (what a dropped explore point prints)
    /// carries the full watchdog report.
    #[test]
    fn double_stall_surfaces_the_watchdog_report() {
        let msg = stalled_error().to_string();
        assert!(msg.contains("watchdog"), "{msg}");
        assert!(msg.contains("pc 0x1234"), "{msg}");
        assert!(msg.contains("no progress for 2000 cycles"), "{msg}");
    }
}

#[cfg(test)]
mod phase_tests {
    use super::*;
    use cmpsim_isa::{Asm, HcallNo, Reg};
    use cmpsim_kernels::{BuiltWorkload, ProcessInit};
    use cmpsim_mem::AddrSpace;

    #[test]
    fn phase_markers_are_recorded_in_order() {
        let mut a = Asm::new(0x1000);
        a.hcall(HcallNo::Phase(1));
        a.li(Reg::T0, 50);
        a.label("work");
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "work");
        a.hcall(HcallNo::Phase(2));
        a.halt();
        let prog = a.assemble().expect("assembles");
        let w = BuiltWorkload {
            name: "phases",
            image: vec![(prog.base, prog.words)],
            entries: vec![ProcessInit {
                entry: prog.base,
                space: AddrSpace::identity(),
            }],
            extra_processes: vec![Vec::new()],
            init: Box::new(|_| {}),
            check: Box::new(|_| Ok(())),
        };
        let mut cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::Mipsy);
        cfg.n_cpus = 1;
        let mut m = Machine::new(&cfg, &w);
        let s = m.run(1_000_000).expect("runs");
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.phases[0].2, 1);
        assert_eq!(s.phases[1].2, 2);
        assert!(
            s.phases[1].0 > s.phases[0].0 + 100,
            "work separates the phases"
        );
        assert_eq!(s.phases[0].1, 0, "cpu id recorded");
    }
}
