//! Extension study: map the three architectures across the sharing /
//! store-intensity design space with the parameterized synthetic workload.
//!
//! Each cell is the best architecture for that (shared%, store%) corner —
//! a compact summary of the paper's whole argument: shared caches win as
//! sharing grows; the bus machine holds its own when there is nothing to
//! share; write-through makes the shared-L2 allergic to stores.

use cmpsim_bench::{bench_header, shape_check, BUDGET};
use cmpsim_core::machine::run_workload;
use cmpsim_core::{ArchKind, CpuKind, MachineConfig};
use cmpsim_engine::pool::host_jobs;
use cmpsim_kernels::synth::{build, SynthParams};

fn best(shared_pct: u8, store_pct: u8) -> (ArchKind, [u64; 3]) {
    let mut cycles = [0u64; 3];
    for (k, arch) in ArchKind::ALL.into_iter().enumerate() {
        let p = SynthParams {
            rounds: 10,
            grain: 400,
            shared_pct,
            store_pct,
            shared_kb: 4,
            ..SynthParams::default()
        };
        let w = build(&p).expect("builds");
        let cfg = MachineConfig::new(arch, CpuKind::Mipsy);
        cycles[k] = run_workload(&cfg, &w, BUDGET)
            .expect("validates")
            .wall_cycles;
    }
    let k = (0..3).min_by_key(|&k| cycles[k]).expect("three results");
    (ArchKind::ALL[k], cycles)
}

fn main() {
    bench_header(
        "Extension",
        "winning architecture across the (shared%, store%) design space (Mipsy)",
    );
    let shared_axis = [0u8, 20, 50, 80];
    let store_axis = [5u8, 25, 50];
    println!(
        "{:>8} | {:^14} {:^14} {:^14}",
        "", "5% stores", "25% stores", "50% stores"
    );
    // Fan the twelve grid cells out as well; results come back in cell
    // order, so the printed table is identical to the serial one.
    let cells: Vec<(u8, u8)> = shared_axis
        .iter()
        .flat_map(|&sh| store_axis.iter().map(move |&st| (sh, st)))
        .collect();
    let winners = cmpsim_engine::pool::map_jobs(host_jobs(), &cells, |&(sh, st)| best(sh, st).0);
    let grid: Vec<(u8, u8, ArchKind)> = cells
        .iter()
        .zip(&winners)
        .map(|(&(sh, st), &w)| (sh, st, w))
        .collect();
    for &sh in &shared_axis {
        let mut row = format!("{:>6}% |", sh);
        for &st in &store_axis {
            let winner = grid.iter().find(|g| g.0 == sh && g.1 == st).unwrap().2;
            row += &format!(" {:^14}", winner.name());
        }
        println!("{row}");
    }
    println!("\nShape checks:");
    let win = |sh: u8, st: u8| grid.iter().find(|g| g.0 == sh && g.1 == st).unwrap().2;
    shape_check(
        "heavy sharing: a shared cache wins",
        win(80, 5) != ArchKind::SharedMem && win(80, 25) != ArchKind::SharedMem,
    );
    shape_check(
        "heavy sharing + heavy stores: shared-L1 specifically wins \
         (write-through disqualifies shared-L2)",
        win(80, 50) == ArchKind::SharedL1,
    );
}
