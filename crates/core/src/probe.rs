//! Latency probes: measure Table 2 from the running memory systems.
//!
//! Rather than trusting the configuration constants, these probes issue
//! real access sequences against each architecture and report the measured
//! contention-free latencies and occupancies — the `table2_latency` bench
//! prints paper-vs-measured rows from this.

use crate::machine::{ArchKind, Machine, MachineConfig, RunError, RunSummary};
use cmpsim_engine::Cycle;
use cmpsim_kernels::BuiltWorkload;
use cmpsim_mem::{MemRequest, MemorySystem, LINE_BYTES};
use cmpsim_trace::{SharedBuf, SinkOut};

/// Measured latencies (in cycles) for one architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeResult {
    /// L1 load hit.
    pub l1_hit: u64,
    /// L1 miss serviced by the L2.
    pub l2_hit: u64,
    /// Miss serviced by main memory.
    pub memory: u64,
    /// Dirty-remote load (shared-memory architecture only).
    pub cache_to_cache: Option<u64>,
    /// Back-to-back L2 accesses' spacing (occupancy).
    pub l2_occupancy: u64,
    /// Back-to-back memory accesses' spacing (occupancy).
    pub mem_occupancy: u64,
}

fn lat(sys: &mut dyn MemorySystem, at: Cycle, req: MemRequest) -> u64 {
    sys.access(at, req).finish - at
}

/// Probes one architecture's memory system with paper-default geometry.
/// `ideal_shared_l1` selects the Mipsy-mode idealization.
pub fn probe_latencies(arch: ArchKind, ideal_shared_l1: bool) -> ProbeResult {
    let cfg = arch
        .config(4)
        .with_ideal_shared_l1(ideal_shared_l1 && arch == ArchKind::SharedL1);
    let mut sys = arch.build(&cfg);
    let s = sys.as_mut();
    let l1_spec = cfg.l1d;
    // Way stride: lines that conflict in the L1.
    let l1_stride = l1_spec.size_bytes / l1_spec.assoc as u32;

    let base: u32 = 0x10_0000;
    let mut t = Cycle(0);

    // Warm the line, then measure an L1 hit.
    s.access(t, MemRequest::load(0, base));
    t = Cycle(10_000);
    let l1_hit = lat(s, t, MemRequest::load(0, base));

    // Evict `base` from the L1 (fill the set), keep it in the L2; measure.
    t = Cycle(20_000);
    for w in 1..=l1_spec.assoc as u32 {
        s.access(t, MemRequest::load(0, base + w * l1_stride));
        t += 1_000;
    }
    t = Cycle(40_000);
    let l2_hit = lat(s, t, MemRequest::load(0, base));

    // Cold line: memory latency.
    t = Cycle(60_000);
    let memory = lat(s, t, MemRequest::load(0, 0x77_0000));

    // Cache-to-cache: CPU 0 dirties a line, CPU 1 reads it.
    let cache_to_cache = if arch == ArchKind::SharedMem {
        t = Cycle(80_000);
        s.access(t, MemRequest::store(0, 0x88_0000));
        t = Cycle(90_000);
        Some(lat(s, t, MemRequest::load(1, 0x88_0000)))
    } else {
        None
    };

    // L2 occupancy: two L1-missing loads to the same L2 bank back to back;
    // the second's extra wait is the occupancy.
    t = Cycle(100_000);
    // Two distinct lines in the same L2 bank (bank interleave is by line;
    // banks * line apart) that both miss the L1 but hit the L2.
    let stride_same_bank = LINE_BYTES * (cfg.l2_banks.max(1) as u32);
    let (p1, p2) = (0xa0_0000, 0xa0_0000 + stride_same_bank);
    s.access(t, MemRequest::load(0, p1)); // warm L2
    s.access(t + 1_000, MemRequest::load(0, p2)); // warm L2
                                                  // Evict both from CPU 0's L1 again (the occupancy must be measured at
                                                  // the L2, so both probes come from the same CPU and miss its L1).
    let mut tt = t + 2_000;
    for w in 1..=l1_spec.assoc as u32 {
        s.access(tt, MemRequest::load(0, p1 + w * l1_stride));
        s.access(tt + 500, MemRequest::load(0, p2 + w * l1_stride));
        tt += 1_000;
    }
    t = Cycle(150_000);
    let a = sys.access(t, MemRequest::load(0, p1));
    let b = sys.access(t, MemRequest::load(0, p2));
    let l2_occupancy = b.finish - a.finish;

    // Memory occupancy: two cold misses to different L2 sets back to back.
    let s = sys.as_mut();
    t = Cycle(200_000);
    let a = s.access(t, MemRequest::load(0, 0xc0_0000));
    let b = s.access(t, MemRequest::load(1, 0xd0_0000));
    let mem_occupancy = b.finish - a.finish;

    ProbeResult {
        l1_hit,
        l2_hit,
        memory,
        cache_to_cache,
        l2_occupancy,
        mem_occupancy,
    }
}

/// Runs `workload` to completion with reference-trace capture on,
/// returning the run summary together with the encoded trace bytes — the
/// in-memory analogue of `cmpsim run --trace-out`, used by explore, the
/// replay equivalence gate and the examples.
///
/// # Errors
///
/// As [`crate::machine::run_workload`]; [`RunError::Config`] also covers
/// a capture of more CPUs than a trace record can name.
pub fn capture_run(
    cfg: &MachineConfig,
    workload: &BuiltWorkload,
    max_cycles: u64,
) -> Result<(RunSummary, Vec<u8>), RunError> {
    let buf = SharedBuf::new();
    let mut m = Machine::try_new_capturing(cfg, workload, SinkOut::Plain(Box::new(buf.clone())))
        .map_err(RunError::Config)?;
    let summary = m.run(max_cycles)?;
    (workload.check)(m.phys()).map_err(RunError::CheckFailed)?;
    Ok((summary, buf.take()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_l1_matches_table2() {
        let p = probe_latencies(ArchKind::SharedL1, false);
        assert_eq!(p.l1_hit, 3, "shared-L1 hit = 3 cycles incl. crossbar");
        assert_eq!(p.l2_hit, 10);
        assert_eq!(p.memory, 50);
        assert_eq!(p.cache_to_cache, None);
        assert_eq!(p.l2_occupancy, 2, "128-bit path: 2-cycle occupancy");
        assert_eq!(p.mem_occupancy, 6);
    }

    #[test]
    fn shared_l1_ideal_mode_hits_in_one_cycle() {
        let p = probe_latencies(ArchKind::SharedL1, true);
        assert_eq!(p.l1_hit, 1);
        assert_eq!(p.l2_hit, 10, "idealization only affects the L1");
    }

    #[test]
    fn shared_l2_matches_table2() {
        let p = probe_latencies(ArchKind::SharedL2, false);
        assert_eq!(p.l1_hit, 1);
        assert_eq!(p.l2_hit, 14, "crossbar + chip crossings add 4 cycles");
        assert_eq!(p.memory, 50);
        assert_eq!(p.l2_occupancy, 4, "64-bit path: 4-cycle occupancy");
        assert_eq!(p.mem_occupancy, 6);
    }

    #[test]
    fn shared_mem_matches_table2() {
        let p = probe_latencies(ArchKind::SharedMem, false);
        assert_eq!(p.l1_hit, 1);
        assert_eq!(p.l2_hit, 10);
        assert_eq!(p.memory, 50);
        let c2c = p.cache_to_cache.expect("bus architecture has c2c");
        assert!(c2c > 50, "Table 2: cache-to-cache > 50 cycles");
        assert_eq!(p.l2_occupancy, 2);
        assert_eq!(p.mem_occupancy, 6, "bus occupancy serializes misses");
    }
}
