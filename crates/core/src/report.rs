//! Execution-time breakdowns and miss-rate tables — the paper's metrics.

use crate::machine::RunSummary;
use cmpsim_engine::stats::ratio;
use cmpsim_mem::MemStats;
use cmpsim_trace::TraceAnalysis;
use std::fmt;

/// Execution-time breakdown (Figures 4–10): every accounted CPU cycle falls
/// into exactly one category, expressed as a fraction of total cycles.
///
/// As in the paper, CPU time includes spin-lock and barrier wait time; the
/// speed of the LL/SC operations shows up there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// Busy executing (includes synchronization spinning).
    pub cpu: f64,
    /// Instruction-fetch stalls.
    pub instruction: f64,
    /// Data stalls serviced at the L1 (shared-L1 extra hit time).
    pub l1_data: f64,
    /// Data stalls serviced by the L2.
    pub l2: f64,
    /// Data stalls serviced by memory (incl. upgrades).
    pub memory: f64,
    /// Data stalls serviced cache-to-cache.
    pub cache_to_cache: f64,
    /// Store-buffer-full and fence stalls.
    pub store: f64,
    /// Total accounted CPU cycles (sum over CPUs).
    pub total_cycles: u64,
}

impl Breakdown {
    /// Computes the breakdown from a run's merged counters.
    pub fn from_summary(s: &RunSummary) -> Breakdown {
        let t = &s.total;
        let total = t.total_cycles();
        Breakdown {
            cpu: ratio(t.busy_cycles, total),
            instruction: ratio(t.stall_instruction, total),
            l1_data: ratio(t.stall_l1_data, total),
            l2: ratio(t.stall_l2, total),
            memory: ratio(t.stall_memory, total),
            cache_to_cache: ratio(t.stall_c2c, total),
            store: ratio(t.stall_store_buffer + t.stall_fence, total),
            total_cycles: total,
        }
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu {:5.1}% | instr {:4.1}% | L1 {:4.1}% | L2 {:4.1}% | mem {:4.1}% | c2c {:4.1}% | st {:4.1}%",
            self.cpu * 100.0,
            self.instruction * 100.0,
            self.l1_data * 100.0,
            self.l2 * 100.0,
            self.memory * 100.0,
            self.cache_to_cache * 100.0,
            self.store * 100.0,
        )
    }
}

/// Local miss rates split into replacement and invalidation components —
/// the `L1R`/`L1I`/`L2R`/`L2I` bars of the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissRates {
    pub l1d_repl: f64,
    pub l1d_inval: f64,
    pub l1i_repl: f64,
    pub l1i_inval: f64,
    pub l2_repl: f64,
    pub l2_inval: f64,
}

impl MissRates {
    /// Extracts the miss-rate table from memory-system statistics.
    pub fn from_mem(m: &MemStats) -> MissRates {
        MissRates {
            l1d_repl: m.l1d.repl_rate(),
            l1d_inval: m.l1d.inval_rate(),
            l1i_repl: m.l1i.repl_rate(),
            l1i_inval: m.l1i.inval_rate(),
            l2_repl: m.l2.repl_rate(),
            l2_inval: m.l2.inval_rate(),
        }
    }

    /// Total L1 data miss rate.
    pub fn l1d_total(&self) -> f64 {
        self.l1d_repl + self.l1d_inval
    }

    /// Total L2 local miss rate.
    pub fn l2_total(&self) -> f64 {
        self.l2_repl + self.l2_inval
    }
}

impl fmt::Display for MissRates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L1R {:5.2}% L1I {:5.2}% | L1iR {:5.2}% L1iI {:5.2}% | L2R {:5.2}% L2I {:5.2}%",
            self.l1d_repl * 100.0,
            self.l1d_inval * 100.0,
            self.l1i_repl * 100.0,
            self.l1i_inval * 100.0,
            self.l2_repl * 100.0,
            self.l2_inval * 100.0,
        )
    }
}

/// IPC breakdown for Figure 11: achieved IPC plus the losses per blame
/// category, summing to the ideal IPC of 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpcBreakdown {
    /// Instructions per cycle actually graduated.
    pub actual: f64,
    /// IPC lost to instruction-cache stalls.
    pub icache_loss: f64,
    /// IPC lost to data-cache stalls.
    pub dcache_loss: f64,
    /// IPC lost to pipeline stalls (dependences, mispredicts, shared-L1
    /// extra hit latency and bank contention).
    pub pipeline_loss: f64,
}

impl IpcBreakdown {
    /// Computes the Figure 11 bars from a run's merged MXS counters.
    pub fn from_summary(s: &RunSummary) -> IpcBreakdown {
        let t = &s.total;
        let cycles = t.mxs_cycles.max(1) as f64;
        IpcBreakdown {
            actual: t.instructions as f64 / cycles,
            icache_loss: t.slots_icache as f64 / cycles,
            dcache_loss: t.slots_dcache as f64 / cycles,
            pipeline_loss: t.slots_pipeline as f64 / cycles,
        }
    }

    /// Sum of achieved IPC and all losses (should be ~2.0 per CPU).
    pub fn accounted(&self) -> f64 {
        self.actual + self.icache_loss + self.dcache_loss + self.pipeline_loss
    }
}

impl fmt::Display for IpcBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IPC {:.3} (+icache {:.3} +dcache {:.3} +pipe {:.3})",
            self.actual, self.icache_loss, self.dcache_loss, self.pipeline_loss
        )
    }
}

/// Reference-stream characterization derived from a captured trace — the
/// sharing-study companion to the timing tables, normalized the way such
/// tables are usually quoted (fractions of the footprint, events per
/// thousand references).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceProfile {
    /// Data footprint in kilobytes.
    pub data_footprint_kb: f64,
    /// Instruction footprint in kilobytes.
    pub instr_footprint_kb: f64,
    /// Fraction of data lines touched by more than one CPU.
    pub shared_fraction: f64,
    /// Fraction of data lines both written and shared (the lines that
    /// generate coherence traffic).
    pub write_shared_fraction: f64,
    /// Mean CPUs per data line.
    pub mean_sharing: f64,
    /// Producer→consumer transfers per thousand references.
    pub comm_per_kilo_ref: f64,
    /// Mean reuse distance (distinct lines between re-touches).
    pub mean_reuse: f64,
}

impl TraceProfile {
    /// Condenses a trace analysis into the report row.
    pub fn from_analysis(a: &TraceAnalysis) -> TraceProfile {
        let lines = a.data_lines.max(1);
        TraceProfile {
            data_footprint_kb: a.data_footprint_bytes() as f64 / 1024.0,
            instr_footprint_kb: a.instr_footprint_bytes() as f64 / 1024.0,
            shared_fraction: a.shared_lines() as f64 / lines as f64,
            write_shared_fraction: a.write_shared_lines as f64 / lines as f64,
            mean_sharing: a.mean_sharing_degree(),
            comm_per_kilo_ref: 1000.0 * a.comm_total() as f64 / a.refs().max(1) as f64,
            mean_reuse: a.reuse.mean(),
        }
    }
}

impl fmt::Display for TraceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "data {:7.1} KB | instr {:6.1} KB | shared {:5.1}% (ws {:5.1}%) | deg {:.2} | comm {:6.2}/kref | reuse {:7.1}",
            self.data_footprint_kb,
            self.instr_footprint_kb,
            self.shared_fraction * 100.0,
            self.write_shared_fraction * 100.0,
            self.mean_sharing,
            self.comm_per_kilo_ref,
            self.mean_reuse,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ArchKind;
    use cmpsim_cpu::CpuCounters;

    fn summary_with(total: CpuCounters) -> RunSummary {
        RunSummary {
            arch: ArchKind::SharedMem,
            wall_cycles: 100,
            per_cpu: vec![],
            total,
            mem: MemStats::new(),
            port_util: vec![],
            phases: vec![],
            violations: vec![],
        }
    }

    #[test]
    fn breakdown_partitions_to_one() {
        let mut t = CpuCounters::new();
        t.busy_cycles = 70;
        t.stall_instruction = 10;
        t.stall_l2 = 10;
        t.stall_memory = 10;
        let b = Breakdown::from_summary(&summary_with(t));
        let sum = b.cpu + b.instruction + b.l1_data + b.l2 + b.memory + b.cache_to_cache + b.store;
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(b.total_cycles, 100);
        assert!((b.cpu - 0.7).abs() < 1e-12);
        assert!(b.to_string().contains("cpu"));
    }

    #[test]
    fn ipc_breakdown_accounts_to_width() {
        let mut t = CpuCounters::new();
        t.instructions = 120;
        t.mxs_cycles = 100;
        t.slots_icache = 20;
        t.slots_dcache = 30;
        t.slots_pipeline = 30;
        let b = IpcBreakdown::from_summary(&summary_with(t));
        assert!((b.actual - 1.2).abs() < 1e-12);
        assert!((b.accounted() - 2.0).abs() < 1e-12);
        assert!(b.to_string().contains("IPC"));
    }

    #[test]
    fn trace_profile_normalizes_the_analysis() {
        use cmpsim_trace::{analyze, TraceKind, TraceRecord};
        let rec = |cpu: u8, kind, addr| TraceRecord {
            cycle: 0,
            cpu,
            kind,
            addr,
        };
        let recs = vec![
            rec(0, TraceKind::IFetch, 0x1000),
            rec(0, TraceKind::Store, 0x100), // written + shared with cpu 1
            rec(1, TraceKind::Load, 0x100),
            rec(1, TraceKind::Load, 0x200), // private
        ];
        let p = TraceProfile::from_analysis(&analyze(&recs, 4, 32));
        assert!((p.shared_fraction - 0.5).abs() < 1e-12);
        assert!((p.write_shared_fraction - 0.5).abs() < 1e-12);
        assert!((p.comm_per_kilo_ref - 250.0).abs() < 1e-9, "1 of 4 refs");
        assert!((p.mean_sharing - 1.5).abs() < 1e-12);
        assert!(p.to_string().contains("deg 1.50"));
    }

    #[test]
    fn miss_rates_extracted() {
        let mut m = MemStats::new();
        m.l1d.hit();
        m.l1d.miss(cmpsim_mem::MissKind::Replacement);
        m.l1d.miss(cmpsim_mem::MissKind::Invalidation);
        m.l1d.hit();
        let r = MissRates::from_mem(&m);
        assert!((r.l1d_repl - 0.25).abs() < 1e-12);
        assert!((r.l1d_inval - 0.25).abs() < 1e-12);
        assert!((r.l1d_total() - 0.5).abs() < 1e-12);
        assert_eq!(r.l2_total(), 0.0);
        assert!(r.to_string().contains("L1R"));
    }
}
