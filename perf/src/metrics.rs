//! The metrics the benchmark reports, with their units and directions.
//! `BENCHMARK.json` declares the same table; a test keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before a change counts as a
/// regression; per-layer metrics have none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the simulator sees, from the untraced run: medians
/// over the run's passes.
pub const END_TO_END: [Metric; 5] = [
    e2e("pass_s", "s", Lower, 0.15),
    e2e("sim_minstr_per_s", "Minstr/s", Higher, 0.15),
    e2e("sim_maccess_per_s", "Macc/s", Higher, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_heap_mb", "MiB", Lower, 0.1),
];

/// Host-time metrics of single layers, from the traced run's ledger.
pub const LAYER_TIMES: [Metric; 15] = [
    layer("kernels.build_s", "s", Lower),
    layer("core.new_s", "s", Lower),
    layer("core.run_s", "s", Lower),
    layer("kernels.check_s", "s", Lower),
    layer("trace.capture_overhead_s", "s", Lower),
    layer("trace.decode_s", "s", Lower),
    layer("trace.decode_mrefs_per_s", "Mref/s", Higher),
    layer("trace.bytes_per_ref", "B/ref", Lower),
    layer("mem.replay_s", "s", Lower),
    layer("mem.ns_per_access", "ns/access", Lower),
    layer("cpu.est_self_s", "s", Lower),
    layer("cpu.est_ns_per_instr", "ns/instr", Lower),
    layer("cpu.est_share", "ratio", Lower),
    layer("engine.pool_speedup", "ratio", Higher),
    layer("bench.tracing_overhead", "ratio", Lower),
];

/// Exact simulated counts. They repeat bit for bit between runs of the
/// same code, so they are cited as counts, never as a speed-up.
pub const LAYER_COUNTS: [Metric; 43] = [
    layer("cpu.instructions", "count", Higher),
    layer("cpu.cycles", "count", Lower),
    layer("cpu.ipc", "instr/cycle", Higher),
    layer("cpu.sc_failures", "count", Lower),
    layer("cpu.stall.busy_frac", "ratio", Higher),
    layer("cpu.stall.instr_frac", "ratio", Lower),
    layer("cpu.stall.l1_frac", "ratio", Lower),
    layer("cpu.stall.l2_frac", "ratio", Lower),
    layer("cpu.stall.mem_frac", "ratio", Lower),
    layer("cpu.stall.c2c_frac", "ratio", Lower),
    layer("cpu.stall.store_frac", "ratio", Lower),
    layer("cpu.mxs.window_occupancy", "entries", Higher),
    layer("cpu.mxs.rob_full_stalls", "count", Lower),
    layer("cpu.mxs.preg_stalls", "count", Lower),
    layer("cpu.mxs.mispredict_ratio", "ratio", Lower),
    layer("mem.accesses", "count", Higher),
    layer("mem.l1d_miss_ratio", "ratio", Lower),
    layer("mem.l1i_miss_ratio", "ratio", Lower),
    layer("mem.l2_miss_ratio", "ratio", Lower),
    layer("mem.avg_latency_cycles", "cycles", Lower),
    layer("mem.invalidations", "count", Lower),
    layer("mem.c2c_transfers", "count", Lower),
    layer("mem.upgrades", "count", Lower),
    layer("mem.writebacks", "count", Lower),
    layer("mem.port.l1i-bank.grants", "count", Lower),
    layer("mem.port.l1i-bank.wait_cycles", "cycles", Lower),
    layer("mem.port.l1d-bank.grants", "count", Lower),
    layer("mem.port.l1d-bank.wait_cycles", "cycles", Lower),
    layer("mem.port.l2-bank.grants", "count", Lower),
    layer("mem.port.l2-bank.wait_cycles", "cycles", Lower),
    layer("mem.port.l2.grants", "count", Lower),
    layer("mem.port.l2.wait_cycles", "cycles", Lower),
    layer("mem.port.mem.grants", "count", Lower),
    layer("mem.port.mem.wait_cycles", "cycles", Lower),
    layer("mem.port.bus.grants", "count", Lower),
    layer("mem.port.bus.wait_cycles", "cycles", Lower),
    layer("mem.port.mesh-link.grants", "count", Lower),
    layer("mem.port.mesh-link.wait_cycles", "cycles", Lower),
    layer("explore.points", "count", Higher),
    layer("explore.exec_runs", "count", Lower),
    layer("explore.replay_points", "count", Higher),
    layer("explore.frontier", "count", Higher),
    layer("explore.quarantined", "count", Lower),
];

/// Every per-layer metric, in report order.
pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    LAYER_TIMES.iter().chain(LAYER_COUNTS.iter())
}
