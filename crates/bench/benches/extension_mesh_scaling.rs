//! Extension study: mesh/NoC scaling from 4 to 64 CPUs.
//!
//! The paper's crossbar shared-L2 machine stops at a handful of ports;
//! the mesh extension (PR 9) distributes the L2 across per-tile slices
//! behind XY-routed links, trading uniform 14-cycle access for
//! hop-proportional latency that *scales*. This study runs the three
//! generalized workloads (eqntott, fft, ocean) at 4, 16 and 64 CPUs on
//! both interconnects and prints one table per workload, reproducing the
//! qualitative many-core result (cf. MemPool): total throughput keeps
//! growing out to 64 CPUs on the mesh even though worst-case hop latency
//! grows with the grid edge, and the physically-routable mesh stays
//! within a small factor of the *idealized* fixed-latency crossbar it
//! replaces.

use cmpsim_bench::{bench_header, shape_check, BUDGET};
use cmpsim_core::machine::run_workload;
use cmpsim_core::{ArchKind, CpuKind, MachineConfig};
use cmpsim_engine::pool::host_jobs;
use cmpsim_kernels::build_by_name;

const CPU_COUNTS: [usize; 3] = [4, 16, 64];
const ARCHES: [ArchKind; 2] = [ArchKind::SharedL2, ArchKind::Mesh];
const WORKLOADS: [&str; 3] = ["eqntott", "fft", "ocean"];
const SCALE: f64 = 0.2;

fn main() {
    bench_header(
        "Extension",
        "mesh vs crossbar shared-L2 scaling, 4 -> 16 -> 64 CPUs (Mipsy)",
    );
    let points: Vec<(&str, ArchKind, usize)> = WORKLOADS
        .into_iter()
        .flat_map(|w| {
            ARCHES
                .into_iter()
                .flat_map(move |a| CPU_COUNTS.map(|n| (w, a, n)))
        })
        .collect();
    // Every (workload, arch, n) machine is independent; fan out, then
    // rebuild the rows in point order.
    let results = cmpsim_engine::pool::map_jobs(host_jobs(), &points, |&(workload, arch, n)| {
        let w = build_by_name(workload, n, SCALE).expect("builds");
        let mut cfg = MachineConfig::new(arch, CpuKind::Mipsy);
        cfg.n_cpus = n;
        let s = run_workload(&cfg, &w, BUDGET).expect("validates");
        (s.wall_cycles, s.total.instructions)
    });
    let at = |w: &str, a: ArchKind, n: usize| {
        let i = points
            .iter()
            .position(|&(pw, pa, pn)| pw == w && pa == a && pn == n)
            .expect("point exists");
        &results[i]
    };

    let mut mesh_near_ideal_at_64 = 0usize;
    let mut mesh_scales = 0usize;
    for workload in WORKLOADS {
        println!("\n{workload}: wall cycles (total instructions / wall cycle)");
        println!(
            "{:<12} {:>20} {:>20} {:>20}",
            "architecture", "4 cpus", "16 cpus", "64 cpus"
        );
        for arch in ARCHES {
            let mut row = format!("{:<12}", arch.name());
            for n in CPU_COUNTS {
                let &(wall, instr) = at(workload, arch, n);
                row += &format!(" {:>12} ({:>5.2})", wall, instr as f64 / wall as f64);
            }
            println!("{row}");
        }
        // Total throughput (instructions per cycle across the machine)
        // must keep growing 4 -> 64 on the mesh even though the worst-case
        // hop count grows with the grid edge...
        let ipc_of = |a, n| {
            let &(wall, instr) = at(workload, a, n);
            instr as f64 / wall as f64
        };
        if ipc_of(ArchKind::Mesh, 64) > ipc_of(ArchKind::Mesh, 4) {
            mesh_scales += 1;
        }
        // ...and the physically-routable grid must stay within 25% of the
        // idealized constant-latency crossbar it replaces (which could not
        // actually be built with 64 ports).
        let wall_of = |a, n| at(workload, a, n).0 as f64;
        if wall_of(ArchKind::Mesh, 64) <= 1.25 * wall_of(ArchKind::SharedL2, 64) {
            mesh_near_ideal_at_64 += 1;
        }
    }
    println!("\nShape checks:");
    shape_check(
        "mesh total throughput keeps growing 4 -> 64 on every workload",
        mesh_scales == WORKLOADS.len(),
    );
    shape_check(
        "at 64 CPUs the mesh stays within 25% of the idealized crossbar",
        mesh_near_ideal_at_64 == WORKLOADS.len(),
    );
}
