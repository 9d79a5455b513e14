//! Trace-pipeline throughput sweep: serial decode and batched
//! multi-config replay (`cmpsim_trace::replay_matrix`), emitted as JSON
//! lines for `BENCH_*.json`. Not a paper figure — the regression guard
//! for the codec and the batched replay driver.
//!
//! Batched-replay records carry `speedup_vs_serial`; every record
//! carries `host_cpus`, and on a 1-core host those speedups are the
//! overhead bound of the fan-out, not scaling — compare at equal
//! `host_cpus`. Result *identity* at any job count is the test suite's
//! and verify.sh's job; this bench only tracks host time.
//!
//! Setting `CMPSIM_BENCH_QUICK` (to anything but `0`) drops repeat
//! counts and scale so `scripts/verify.sh` can append cheap records.

use cmpsim_bench::timing::{self, JsonVal};
use cmpsim_core::{capture_run, ArchKind, CpuKind, MachineConfig};
use cmpsim_kernels::build_by_name;
use cmpsim_mem::SharedL2System;

/// Repeat counts: (warmup, runs, workload scale).
fn knobs() -> (u32, u32, f64) {
    let quick = std::env::var("CMPSIM_BENCH_QUICK")
        .map(|v| !v.trim().is_empty() && v.trim() != "0")
        .unwrap_or(false);
    if quick {
        (1, 7, 0.1)
    } else {
        (1, 9, 0.3)
    }
}

fn main() {
    let (warmup, runs, scale) = knobs();

    // One capture feeds everything: eqntott on the paper's shared-L2
    // machine, the same stream sim_throughput's replay section uses.
    let base = MachineConfig::new(ArchKind::SharedL2, CpuKind::Mipsy);
    let w = build_by_name("eqntott", 4, scale).expect("builds");
    let (_, bytes) = capture_run(&base, &w, 100_000_000).expect("captures");
    let records = cmpsim_trace::decode(&bytes).expect("decodes");
    let refs = records.len() as u64;

    let m = timing::measure(warmup, runs, || {
        cmpsim_trace::decode(&bytes).expect("decodes").len()
    });
    timing::emit_record(
        "replay_sweep",
        "decode/serial",
        &m,
        &[
            ("refs", refs.into()),
            ("trace_bytes", (bytes.len() as u64).into()),
            ("refs_per_host_sec", JsonVal::F64(m.per_sec(refs))),
        ],
    );

    // Batched replay: one decoded arena, four L2-occupancy variants of
    // the capturing configuration (sim_throughput's sweep axis), fanned
    // across the job pool by replay_matrix.
    let sweep: Vec<_> = [4u64, 8, 16, 32]
        .iter()
        .map(|&occ| {
            let mut cfg = base;
            cfg.l2_occupancy = Some(occ);
            cfg.system_config()
        })
        .collect();
    let batch_refs = refs * sweep.len() as u64;
    let mut base_min_ns = 0u64;
    for jobs in [1usize, 2, 4] {
        let m = timing::measure(warmup, runs, || {
            cmpsim_trace::replay_matrix(&records, sweep.len(), jobs, |i| {
                SharedL2System::new(&sweep[i])
            })
            .len()
        });
        if jobs == 1 {
            base_min_ns = m.min_ns;
        }
        let speedup = base_min_ns as f64 / (m.min_ns as f64).max(f64::MIN_POSITIVE);
        timing::emit_record(
            "replay_sweep",
            &format!("replay_batch/jobs{jobs}"),
            &m,
            &[
                ("jobs", (jobs as u64).into()),
                ("configs", (sweep.len() as u64).into()),
                ("refs", batch_refs.into()),
                ("refs_per_host_sec", JsonVal::F64(m.per_sec(batch_refs))),
                ("speedup_vs_serial", JsonVal::F64(speedup)),
            ],
        );
    }
}
