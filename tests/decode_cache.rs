//! The decoded-instruction cache is a pure simulator optimization: with it
//! on or off (`Machine::disable_decode_cache`), every simulated result
//! must be identical. The multiprog workload is the adversarial case —
//! context switches remap different process images behind the same PCs,
//! and the kernel installs each image into physical memory after earlier
//! processes have already run — so a stale decode would change
//! instruction streams (and therefore cycle counts) immediately.

use cmpsim::core::{ArchKind, CpuKind, Machine, MachineConfig, RunSummary};
use cmpsim_kernels::build_by_name;

const BUDGET: u64 = 2_000_000_000;

fn run(workload: &str, arch: ArchKind, cpu: CpuKind, decode_cache: bool) -> RunSummary {
    let w = build_by_name(workload, 4, 0.05).expect("workload builds");
    let mut m = Machine::new(&MachineConfig::new(arch, cpu), &w);
    if !decode_cache {
        m.disable_decode_cache();
    }
    let s = m
        .run(BUDGET)
        .unwrap_or_else(|e| panic!("{workload} on {arch:?}: {e}"));
    (w.check)(m.phys()).unwrap_or_else(|e| panic!("{workload} on {arch:?}: {e}"));
    s
}

/// Everything a `RunSummary` records, as a comparable string (`Histogram`
/// has no `PartialEq`; its `Debug` output is deterministic and complete).
fn fingerprint(s: &RunSummary) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{}",
        s.per_cpu, s.total, s.mem, s.port_util, s.phases, s.wall_cycles
    )
}

#[test]
fn decode_cache_is_invisible_to_simulated_results() {
    let cases = [
        ("multiprog", ArchKind::SharedMem, CpuKind::Mipsy),
        ("multiprog", ArchKind::SharedL1, CpuKind::Mxs),
        ("eqntott", ArchKind::SharedL2, CpuKind::Mipsy),
    ];
    let fingerprints = |decode_cache: bool| -> Vec<String> {
        cases
            .iter()
            .map(|&(w, a, c)| fingerprint(&run(w, a, c, decode_cache)))
            .collect()
    };
    let with_cache = fingerprints(true);
    let without_cache = fingerprints(false);

    for (k, &(w, a, c)) in cases.iter().enumerate() {
        assert_eq!(
            with_cache[k], without_cache[k],
            "{w} on {a:?}/{c:?}: decode cache changed simulated results"
        );
    }
}
