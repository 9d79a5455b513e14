//! Extension study: parallel speedup vs CPU count per architecture.
//!
//! The paper fixes the machine at four CPUs; this extension asks how each
//! interconnect scales from one to four. Communication-heavy workloads
//! (ear) scale best where sharing is cheap; streaming workloads (ocean)
//! scale with bandwidth.

use cmpsim_bench::{bench_header, shape_check, BUDGET};
use cmpsim_core::machine::run_workload;
use cmpsim_core::{ArchKind, CpuKind, MachineConfig};
use cmpsim_engine::pool::host_jobs;
use cmpsim_kernels::build_by_name;

fn main() {
    bench_header(
        "Extension",
        "speedup vs CPU count (Mipsy), per architecture",
    );
    for workload in ["ear", "ocean", "fft"] {
        println!("\n{workload}: cycles (speedup vs 1 CPU)");
        println!(
            "{:<14} {:>18} {:>18} {:>18}",
            "architecture", "1 cpu", "2 cpus", "4 cpus"
        );
        // All nine (arch, n) machines per workload are independent; fan
        // them out and rebuild the rows in order afterwards.
        let points: Vec<(ArchKind, usize)> = ArchKind::ALL
            .into_iter()
            .flat_map(|arch| [1usize, 2, 4].map(|n| (arch, n)))
            .collect();
        let cycles = cmpsim_engine::pool::map_jobs(host_jobs(), &points, |&(arch, n)| {
            let w = build_by_name(workload, n, 0.5).expect("builds");
            let mut cfg = MachineConfig::new(arch, CpuKind::Mipsy);
            cfg.n_cpus = n;
            run_workload(&cfg, &w, BUDGET)
                .expect("validates")
                .wall_cycles
        });
        let mut ear_speedups = Vec::new();
        for (k, arch) in ArchKind::ALL.into_iter().enumerate() {
            let mut row = format!("{:<14}", arch.name());
            let base = cycles[k * 3];
            let mut sp4 = 0.0;
            for (j, _n) in [1usize, 2, 4].into_iter().enumerate() {
                let wall = cycles[k * 3 + j];
                let speedup = base as f64 / wall as f64;
                sp4 = speedup;
                row += &format!(" {:>10} ({:>4.2}x)", wall, speedup);
            }
            println!("{row}");
            if workload == "ear" {
                ear_speedups.push((arch, sp4));
            }
        }
        if workload == "ear" {
            println!("\nShape checks:");
            let get = |a: ArchKind| ear_speedups.iter().find(|(x, _)| *x == a).unwrap().1;
            shape_check(
                "ear (finest grain): the shared-L1 scales best of the three",
                get(ArchKind::SharedL1) >= get(ArchKind::SharedL2)
                    && get(ArchKind::SharedL1) > get(ArchKind::SharedMem),
            );
            shape_check(
                "ear: the bus-based machine scales worst",
                get(ArchKind::SharedMem) <= get(ArchKind::SharedL2),
            );
        }
    }
}
