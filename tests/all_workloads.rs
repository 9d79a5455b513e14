//! End-to-end: every workload runs and self-validates on every
//! architecture under the Mipsy model, and the Figure-11 workloads also
//! validate under MXS. Validation compares the program's computed results
//! (checksums, per-particle state, per-process accumulators) against Rust
//! reference implementations, so these tests exercise the full stack:
//! assembler -> functional core -> timing models -> memory systems ->
//! coherence -> synchronization runtime.

use cmpsim::core::machine::run_workload;
use cmpsim::core::{ArchKind, CpuKind, MachineConfig};
use cmpsim_kernels::{build_by_name, ALL_WORKLOADS};

const BUDGET: u64 = 2_000_000_000;

fn run(workload: &str, arch: ArchKind, cpu: CpuKind, scale: f64) {
    let w = build_by_name(workload, 4, scale).expect("workload builds");
    let cfg = MachineConfig::new(arch, cpu);
    let s = run_workload(&cfg, &w, BUDGET).unwrap_or_else(|e| panic!("{workload} on {arch}: {e}"));
    assert!(s.wall_cycles > 0);
    assert!(s.total.instructions > 0);
}

#[test]
fn mipsy_validates_all_workloads_on_all_architectures() {
    for workload in ALL_WORKLOADS {
        for arch in ArchKind::ALL {
            run(workload, arch, CpuKind::Mipsy, 0.08);
        }
    }
}

#[test]
fn mxs_validates_the_figure11_workloads_on_all_architectures() {
    for workload in ["eqntott", "ear", "multiprog"] {
        for arch in ArchKind::ALL {
            run(workload, arch, CpuKind::Mxs, 0.08);
        }
    }
}

#[test]
fn mxs_validates_the_remaining_workloads_on_shared_l1() {
    // The shared-L1 architecture exercises MXS hardest (3-cycle hits and
    // bank contention); the other workloads validate there too.
    for workload in ["mp3d", "ocean", "volpack", "fft"] {
        run(workload, ArchKind::SharedL1, CpuKind::Mxs, 0.05);
    }
}

#[test]
fn workloads_validate_with_fewer_cpus() {
    for n in [1usize, 2] {
        for workload in ["eqntott", "ocean", "ear", "fft"] {
            let w = build_by_name(workload, n, 0.08).expect("builds");
            let mut cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::Mipsy);
            cfg.n_cpus = n;
            run_workload(&cfg, &w, BUDGET)
                .unwrap_or_else(|e| panic!("{workload} on {n} cpus: {e}"));
        }
    }
}

/// Every workload at every CPU count from 1 to 8 either refuses to build,
/// naming its rule, or runs and passes its self-check. Only ear (a
/// masked rotation) and fft (equal power-of-two chunks) refuse, and only
/// the counts that are not powers of two.
#[test]
fn every_cpu_count_up_to_eight_validates_or_is_refused() {
    let mut refused = Vec::new();
    for workload in ALL_WORKLOADS {
        for n in 1..=8 {
            let w = match build_by_name(workload, n, 0.02) {
                Ok(w) => w,
                Err(e) => {
                    assert!(e.contains("power-of-two count of CPUs"), "{workload}: {e}");
                    refused.push((workload, n));
                    continue;
                }
            };
            let mut cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::Mipsy);
            cfg.n_cpus = n;
            run_workload(&cfg, &w, BUDGET)
                .unwrap_or_else(|e| panic!("{workload} on {n} cpus: {e}"));
        }
    }
    let odd = [3, 5, 6, 7];
    let want: Vec<_> = ["ear", "fft"]
        .into_iter()
        .flat_map(|w| odd.map(|n| (w, n)))
        .collect();
    assert_eq!(refused, want);
}

#[test]
fn clustered_extension_validates_on_representative_workloads() {
    for workload in ["ear", "eqntott", "multiprog"] {
        run(workload, ArchKind::Clustered, CpuKind::Mipsy, 0.08);
    }
    run("ear", ArchKind::Clustered, CpuKind::Mxs, 0.08);
}

#[test]
fn ablation_configurations_still_validate() {
    // Overridden machines must stay correct, only slower/faster.
    let w = build_by_name("mp3d", 4, 0.05).expect("builds");
    let mut cfg = MachineConfig::new(ArchKind::SharedL1, CpuKind::Mipsy);
    cfg.l2_assoc = Some(4);
    run_workload(&cfg, &w, BUDGET).expect("4-way L2 validates");

    let w = build_by_name("ear", 4, 0.05).expect("builds");
    let mut cfg = MachineConfig::new(ArchKind::SharedL1, CpuKind::Mxs);
    cfg.l1_banks = Some(1);
    cfg.l1_latency = Some(5);
    run_workload(&cfg, &w, BUDGET).expect("slow single-bank L1 validates");
}
