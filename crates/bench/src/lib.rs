//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! Each `[[bench]]` target in this crate (see `benches/`) reproduces one
//! table or figure; this library holds the shared machinery: running a
//! workload across the three architectures, normalizing execution times to
//! the shared-memory baseline (the paper's presentation), and formatting
//! the rows the paper reports. `EXPERIMENTS.md` records paper-vs-measured
//! values produced by these targets.

pub mod matrix;

use cmpsim_core::report::IpcBreakdown;
use cmpsim_core::{
    run_workload, ArchKind, Breakdown, CpuKind, MachineConfig, MissRates, RunSummary,
};
use cmpsim_engine::pool::{host_jobs, map_jobs};
use cmpsim_kernels::build_by_name;

/// Default cycle budget for bench runs.
pub const BUDGET: u64 = 40_000_000_000;

/// Results of one workload on one architecture.
#[derive(Debug, Clone)]
pub struct ArchResult {
    pub arch: ArchKind,
    pub summary: RunSummary,
    pub breakdown: Breakdown,
    pub miss_rates: MissRates,
}

/// Results of one workload across all three architectures.
#[derive(Debug, Clone)]
pub struct FigureData {
    pub workload: String,
    pub results: Vec<ArchResult>,
}

impl FigureData {
    /// Wall-cycle count of the shared-memory baseline.
    pub fn baseline_cycles(&self) -> u64 {
        self.results
            .iter()
            .find(|r| r.arch == ArchKind::SharedMem)
            .expect("shared-memory run present")
            .summary
            .wall_cycles
    }

    /// The result row for one architecture.
    ///
    /// # Panics
    ///
    /// Panics if `arch` was not part of the sweep.
    pub fn result(&self, arch: ArchKind) -> &ArchResult {
        self.results
            .iter()
            .find(|r| r.arch == arch)
            .expect("arch present")
    }

    /// Execution time of `arch` normalized to shared-memory (< 1 is
    /// faster, the paper's convention).
    pub fn normalized(&self, arch: ArchKind) -> f64 {
        self.result(arch).summary.wall_cycles as f64 / self.baseline_cycles() as f64
    }

    /// Speedup of `arch` over shared-memory in percent (the paper's "X%
    /// better" phrasing): positive means faster.
    pub fn speedup_pct(&self, arch: ArchKind) -> f64 {
        (1.0 / self.normalized(arch) - 1.0) * 100.0
    }
}

/// Runs `workload` at `scale` on all three architectures under `cpu`.
///
/// `tweak` lets ablation benches adjust each machine configuration. The
/// three per-architecture runs are independent deterministic simulations,
/// so they fan out across the host's cores
/// ([`cmpsim_engine::pool::host_jobs`]); results come back in
/// `ArchKind::ALL` order regardless of the worker count.
///
/// # Panics
///
/// Panics if a run times out or fails validation — bench targets should
/// never silently report bad data.
pub fn run_figure_with(
    workload: &str,
    scale: f64,
    cpu: CpuKind,
    tweak: impl Fn(&mut MachineConfig) + Sync,
) -> FigureData {
    let results = map_jobs(host_jobs(), &ArchKind::ALL, |&arch| {
        let mut cfg = MachineConfig::new(arch, cpu);
        tweak(&mut cfg);
        let w = build_by_name(workload, 4, scale)
            .unwrap_or_else(|e| panic!("building {workload}: {e}"));
        let summary =
            run_workload(&cfg, &w, BUDGET).unwrap_or_else(|e| panic!("{workload} on {arch}: {e}"));
        ArchResult {
            arch,
            breakdown: Breakdown::from_summary(&summary),
            miss_rates: MissRates::from_mem(&summary.mem),
            summary,
        }
    });
    FigureData {
        workload: workload.to_string(),
        results,
    }
}

/// Runs `workload` at `scale` on all three architectures (no overrides).
pub fn run_figure(workload: &str, scale: f64, cpu: CpuKind) -> FigureData {
    run_figure_with(workload, scale, cpu, |_| {})
}

/// Prints a Mipsy figure in the paper's format: normalized execution time,
/// stall breakdown and R/I miss rates per architecture.
pub fn print_mipsy_figure(fig: &str, data: &FigureData) {
    println!(
        "\n=== {fig}: {} (Mipsy, normalized to shared-memory) ===",
        data.workload
    );
    println!(
        "{:<14} {:>9} {:>12}  breakdown / miss rates",
        "architecture", "norm.time", "cycles"
    );
    for r in &data.results {
        println!(
            "{:<14} {:>9.3} {:>12}  {}",
            r.arch.name(),
            data.normalized(r.arch),
            r.summary.wall_cycles,
            r.breakdown
        );
        println!("{:38}{}", " ", r.miss_rates);
    }
}

/// Prints an MXS figure in Figure 11's format: per-architecture IPC bars.
pub fn print_mxs_figure(fig: &str, data: &FigureData) {
    println!(
        "\n=== {fig}: {} (MXS, 2-way issue, ideal IPC 2.0) ===",
        data.workload
    );
    for r in &data.results {
        let ipc = IpcBreakdown::from_summary(&r.summary);
        println!(
            "{:<14} {}  (norm.time {:.3})",
            r.arch.name(),
            ipc,
            data.normalized(r.arch)
        );
    }
}

/// Records one paper-vs-measured shape check. Prints a PASS/WARN line; a
/// WARN means the reproduction deviates from the paper's reported shape
/// (EXPERIMENTS.md discusses each). Returns whether it held.
pub fn shape_check(label: &str, held: bool) -> bool {
    println!("  [{}] {label}", if held { "PASS" } else { "WARN" });
    held
}

/// Standard header for a bench target.
pub fn bench_header(id: &str, what: &str) {
    println!("\n================================================================");
    println!("{id} — {what}");
    println!("================================================================");
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_data_normalization() {
        let data = run_figure("eqntott", 0.02, CpuKind::Mipsy);
        assert_eq!(data.results.len(), 3);
        let norm_sm = data.normalized(ArchKind::SharedMem);
        assert!((norm_sm - 1.0).abs() < 1e-12, "baseline normalizes to 1");
        // Class-1 application: shared-L1 must beat shared-memory.
        assert!(data.normalized(ArchKind::SharedL1) < 1.0);
        assert!(data.speedup_pct(ArchKind::SharedL1) > 0.0);
    }
}
