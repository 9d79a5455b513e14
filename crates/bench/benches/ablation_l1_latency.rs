//! Ablation: shared-L1 hit latency sweep under MXS (Eqntott).
//!
//! The paper's central tension: the shared L1 wins on sharing but pays a
//! 3-cycle hit. This sweep shows where the crossover sits — at 1 cycle
//! (the Mipsy idealization) the shared-L1 is clearly best; each added
//! cycle of hit latency eats the advantage.

use cmpsim_bench::{bench_header, shape_check, BUDGET};
use cmpsim_core::machine::run_workload;
use cmpsim_core::{ArchKind, CpuKind, MachineConfig};
use cmpsim_kernels::build_by_name;

fn main() {
    bench_header(
        "Ablation",
        "shared-L1 hit latency 1..5 cycles, Eqntott, MXS",
    );
    // Shared-memory MXS baseline.
    let w = build_by_name("eqntott", 4, 1.0).expect("builds");
    let base_cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::Mxs);
    let base = run_workload(&base_cfg, &w, BUDGET).expect("baseline runs");
    println!("shared-memory baseline: {} cycles", base.wall_cycles);

    println!("{:<10} {:>12} {:>10}", "L1 latency", "cycles", "norm");
    let mut cycles = Vec::new();
    for lat in [1u64, 2, 3, 4, 5] {
        let w = build_by_name("eqntott", 4, 1.0).expect("builds");
        let mut cfg = MachineConfig::new(ArchKind::SharedL1, CpuKind::Mxs);
        cfg.l1_latency = Some(lat);
        let s = run_workload(&cfg, &w, BUDGET).expect("runs");
        println!(
            "{:<10} {:>12} {:>10.3}",
            lat,
            s.wall_cycles,
            s.wall_cycles as f64 / base.wall_cycles as f64
        );
        cycles.push(s.wall_cycles);
    }
    println!("\nShape checks:");
    shape_check(
        "execution time grows with hit latency (within 2% contention noise          per step; strictly from 1 to 5 cycles)",
        cycles.windows(2).all(|w| w[1] as f64 >= 0.98 * w[0] as f64)
            && cycles[4] > cycles[0],
    );
    shape_check(
        "a 1-cycle shared L1 would beat shared-memory handily",
        (cycles[0] as f64) < 0.8 * base.wall_cycles as f64,
    );
    shape_check(
        "5 cycles (an off-chip implementation) costs >10% over 3 cycles — \
         why the paper insists on a single-die implementation",
        cycles[4] as f64 > 1.10 * cycles[2] as f64,
    );
}
