//! The default-config experiment matrix and its canonical JSON digests.
//!
//! One case = one `(workload × architecture × CPU model)` run at the
//! paper-default machine configuration. Each case renders to exactly one
//! JSON line containing the headline numbers plus an FNV-1a fingerprint of
//! the *entire* `RunSummary` (per-CPU counters, memory statistics including
//! the latency histogram, phase markers). Two uses:
//!
//! * **Regression pinning** — simulator optimizations must change host time
//!   only, so the digest of every case must be identical before and after.
//! * **Parallel-harness determinism** — the same matrix run on 1 and 8
//!   workers must produce byte-identical lines (`jobs` only changes which
//!   thread runs a case, never its result).

use cmpsim_core::{capture_run, run_workload, ArchKind, CpuKind, MachineConfig, RunSummary};
use cmpsim_engine::pool::map_jobs;
use cmpsim_kernels::{build_by_name, BuiltWorkload, ALL_WORKLOADS};
use cmpsim_mem::{MemorySystem, SentinelSpec};

/// FNV-1a 64-bit hash — a stable, dependency-free fingerprint. The
/// engine's one copy, under the name the digest readers (`perf/`)
/// import.
pub use cmpsim_engine::journal::fnv1a64 as fnv1a;

/// Cycle budget for matrix runs (small scales finish far below this).
pub const MATRIX_BUDGET: u64 = 10_000_000_000;

/// One cell of the experiment matrix.
#[derive(Debug, Clone, Copy)]
pub struct MatrixCase {
    /// Workload name (see `cmpsim_kernels::ALL_WORKLOADS`).
    pub workload: &'static str,
    /// Workload scale factor.
    pub scale: f64,
    /// Memory-system architecture.
    pub arch: ArchKind,
    /// CPU timing model.
    pub cpu: CpuKind,
    /// CPU count (the paper default is 4).
    pub n_cpus: usize,
    /// Cluster geometry override (clustered architecture); `None` keeps
    /// the default of 2 CPUs per cluster.
    pub cpus_per_cluster: Option<usize>,
}

/// Names the case in failure messages, e.g. `mp3d on shared-L2 (mipsy,
/// 4 CPUs)`.
impl std::fmt::Display for MatrixCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (workload, arch, cpu) = (self.workload, self.arch, cpu_label(self.cpu));
        write!(f, "{workload} on {arch} ({cpu}, {} CPUs", self.n_cpus)?;
        if let Some(k) = self.cpus_per_cluster {
            write!(f, ", {k} per cluster")?;
        }
        f.write_str(")")
    }
}

/// Short label for a CPU model in JSON output.
pub fn cpu_label(cpu: CpuKind) -> &'static str {
    match cpu {
        CpuKind::Mipsy => "mipsy",
        CpuKind::Mxs => "mxs",
        CpuKind::MxsCustom(_) => "mxs-custom",
    }
}

/// Every workload × every architecture (including the clustered extension)
/// × both CPU models, at `scale`.
pub fn default_matrix(scale: f64) -> Vec<MatrixCase> {
    let arches = [
        ArchKind::SharedL1,
        ArchKind::SharedL2,
        ArchKind::SharedMem,
        ArchKind::Clustered,
    ];
    let cpus = [CpuKind::Mipsy, CpuKind::Mxs];
    let mut cases = Vec::new();
    for &workload in &ALL_WORKLOADS {
        for &arch in &arches {
            for &cpu in &cpus {
                cases.push(MatrixCase {
                    workload,
                    scale,
                    arch,
                    cpu,
                    n_cpus: 4,
                    cpus_per_cluster: None,
                });
            }
        }
    }
    cases
}

/// The default matrix plus non-default geometry rows: 8-CPU machines,
/// alternate cluster shapes (4×2 is the default 4-CPU clustered row; the
/// extras cover 8×(2), 8×(4) and 4×(4)) and mesh tile grids (2×2 through
/// 4×4, on their near-square defaults), all running through
/// `SystemConfig` alone. Default rows come FIRST so the leading lines of
/// the output stay byte-identical to the default matrix (golden-digest
/// checks take a prefix).
pub fn extended_matrix(scale: f64) -> Vec<MatrixCase> {
    let mut cases = default_matrix(scale);
    let geo = |arch, cpu, n_cpus, cpus_per_cluster| MatrixCase {
        workload: "eqntott",
        scale,
        arch,
        cpu,
        n_cpus,
        cpus_per_cluster,
    };
    cases.push(geo(ArchKind::SharedL2, CpuKind::Mipsy, 8, None));
    cases.push(geo(ArchKind::SharedL2, CpuKind::Mxs, 8, None));
    cases.push(geo(ArchKind::SharedMem, CpuKind::Mipsy, 8, None));
    cases.push(geo(ArchKind::SharedL1, CpuKind::Mipsy, 8, None));
    cases.push(geo(ArchKind::Clustered, CpuKind::Mipsy, 8, Some(2)));
    cases.push(geo(ArchKind::Clustered, CpuKind::Mxs, 8, Some(2)));
    cases.push(geo(ArchKind::Clustered, CpuKind::Mipsy, 8, Some(4)));
    cases.push(geo(ArchKind::Clustered, CpuKind::Mipsy, 4, Some(4)));
    cases.push(geo(ArchKind::Mesh, CpuKind::Mipsy, 4, None));
    cases.push(geo(ArchKind::Mesh, CpuKind::Mxs, 4, None));
    cases.push(geo(ArchKind::Mesh, CpuKind::Mipsy, 8, None));
    cases.push(geo(ArchKind::Mesh, CpuKind::Mipsy, 16, None));
    cases
}

/// Renders one case's result as its canonical JSON line.
pub fn summary_json(case: &MatrixCase, s: &RunSummary) -> String {
    // The fingerprint covers everything the acceptance criteria pin:
    // per-CPU counters, merged counters, memory statistics (histogram
    // included via its Debug form), port utilization and phase markers.
    let digest = fnv1a(
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            s.per_cpu, s.total, s.mem, s.port_util, s.phases
        )
        .as_bytes(),
    );
    // Geometry keys appear only on non-default rows so the default
    // matrix's lines stay byte-identical to their historical form.
    let mut geometry = String::new();
    if case.n_cpus != 4 {
        geometry += &format!(",\"n_cpus\":{}", case.n_cpus);
    }
    if let Some(k) = case.cpus_per_cluster {
        geometry += &format!(",\"cpus_per_cluster\":{k}");
    }
    format!(
        "{{\"workload\":\"{}\",\"arch\":\"{}\",\"cpu\":\"{}\",\"scale\":{}{geometry},\
         \"wall_cycles\":{},\"instructions\":{},\"summary_fnv1a\":\"{digest:016x}\"}}",
        case.workload,
        case.arch.name(),
        cpu_label(case.cpu),
        case.scale,
        s.wall_cycles,
        s.total.instructions,
    )
}

/// Builds a case's workload and its default machine configuration with
/// `sentinel`.
fn case_setup(case: &MatrixCase, sentinel: SentinelSpec) -> (BuiltWorkload, MachineConfig) {
    let w = build_by_name(case.workload, case.n_cpus, case.scale)
        .unwrap_or_else(|e| panic!("building {case}: {e}"));
    let mut cfg = MachineConfig::new(case.arch, case.cpu);
    cfg.n_cpus = case.n_cpus;
    cfg.cpus_per_cluster = case.cpus_per_cluster;
    cfg.sentinel = Some(sentinel);
    (w, cfg)
}

/// Runs one matrix case at the default machine configuration under
/// `sentinel`.
///
/// # Panics
///
/// Panics if the workload fails to build, times out, fails validation or
/// reports a sentinel violation — the matrix pins known-good
/// configurations.
pub fn run_case(case: &MatrixCase, sentinel: SentinelSpec) -> RunSummary {
    let (w, cfg) = case_setup(case, sentinel);
    let s = run_workload(&cfg, &w, MATRIX_BUDGET).unwrap_or_else(|e| panic!("{case}: {e}"));
    assert!(
        s.violations.is_empty(),
        "{case}: {} sentinel violations in a pinned-good configuration; first: {}",
        s.violations.len(),
        s.violations[0]
    );
    s
}

/// Runs the whole matrix under `sentinel` on `jobs` worker threads and
/// returns one JSON line per case, in matrix order — byte-identical for
/// any `jobs` value.
///
/// # Panics
///
/// As [`run_case`]: a failing case stops the sweep, and the worker's
/// panic message names it.
pub fn matrix_json_lines(cases: &[MatrixCase], jobs: usize, sentinel: SentinelSpec) -> Vec<String> {
    map_jobs(jobs, cases, |case| {
        summary_json(case, &run_case(case, sentinel))
    })
}

/// Runs one matrix case under `sentinel` with reference-trace capture
/// on, then replays the capture into a freshly built identical memory
/// system and asserts the replayed `MemStats` and port utilization are
/// bit-identical to the captured run's. Returns the captured run's
/// summary, so a matrix of these renders the same JSON lines as
/// [`run_case`] — which is the other half of the contract: capture must
/// not perturb the run.
///
/// # Panics
///
/// As [`run_case`]; additionally panics if the trace fails to decode or
/// the replayed statistics differ.
pub fn run_case_replay_checked(case: &MatrixCase, sentinel: SentinelSpec) -> RunSummary {
    let (w, cfg) = case_setup(case, sentinel);
    let (s, bytes) = capture_run(&cfg, &w, MATRIX_BUDGET).unwrap_or_else(|e| panic!("{case}: {e}"));
    let records =
        cmpsim_trace::decode(&bytes).unwrap_or_else(|e| panic!("{case}: decode failed: {e}"));
    let mut fresh = cfg
        .arch
        .try_build(&cfg.system_config())
        .unwrap_or_else(|e| panic!("{e}"));
    cmpsim_trace::replay_records(&records, fresh.as_mut());
    assert_eq!(
        format!("{:?}", fresh.stats()),
        format!("{:?}", s.mem),
        "{case}: replayed MemStats differ from the captured run's"
    );
    assert_eq!(
        format!("{:?}", fresh.port_utilization()),
        format!("{:?}", s.port_util),
        "{case}: replayed port utilization differs"
    );
    s
}

/// [`matrix_json_lines`] with every case run through
/// [`run_case_replay_checked`]: same lines, plus the per-case
/// capture/replay equivalence assertions. Byte-identical output to the
/// plain matrix proves both that the capture hook does not perturb
/// results and that replay reproduces them.
pub fn matrix_json_lines_replay_checked(
    cases: &[MatrixCase],
    jobs: usize,
    sentinel: SentinelSpec,
) -> Vec<String> {
    map_jobs(jobs, cases, |case| {
        summary_json(case, &run_case_replay_checked(case, sentinel))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite: the same experiment matrix run serially and with eight
    /// workers must produce byte-identical JSON lines.
    #[test]
    fn parallel_runner_is_deterministic() {
        let cases: Vec<MatrixCase> = default_matrix(0.02)
            .into_iter()
            .filter(|c| {
                c.cpu == CpuKind::Mipsy
                    && matches!(c.workload, "eqntott" | "multiprog")
                    && c.arch != ArchKind::Clustered
            })
            .collect();
        assert_eq!(cases.len(), 6);
        let serial = matrix_json_lines(&cases, 1, SentinelSpec::off());
        let parallel = matrix_json_lines(&cases, 8, SentinelSpec::off());
        assert_eq!(serial, parallel, "jobs count must never change results");
        assert!(serial.iter().all(|l| l.contains("\"summary_fnv1a\":")));
    }

    /// Satellite: the invariant checker must be zero-cost on results —
    /// the canonical digest of a case is bit-identical with the sentinel
    /// on and off (the checker only probes, never mutates).
    #[test]
    fn sentinel_on_digests_are_bit_identical() {
        let cases: Vec<MatrixCase> = default_matrix(0.02)
            .into_iter()
            .filter(|c| c.cpu == CpuKind::Mipsy && c.workload == "eqntott")
            .collect();
        assert_eq!(cases.len(), 4, "one per architecture");
        for case in &cases {
            let off = summary_json(case, &run_case(case, SentinelSpec::off()));
            let on = summary_json(case, &run_case(case, SentinelSpec::on()));
            assert_eq!(
                off, on,
                "{} on {}: sentinel changed results",
                case.workload, case.arch
            );
        }
    }

    /// Golden-equivalence, fast subset (the full 56-case gate runs in
    /// `verify.sh`): the replay-checked matrix must render byte-identical
    /// JSON lines to the plain matrix — capture perturbs nothing, replay
    /// reproduces everything. Both CPU models are covered.
    #[test]
    fn replay_checked_matrix_matches_plain_matrix() {
        let cases: Vec<MatrixCase> = default_matrix(0.02)
            .into_iter()
            .filter(|c| c.workload == "eqntott" || (c.workload == "fft" && c.cpu == CpuKind::Mipsy))
            .collect();
        assert_eq!(cases.len(), 4 * 2 + 4);
        let plain = matrix_json_lines(&cases, 4, SentinelSpec::off());
        let checked = matrix_json_lines_replay_checked(&cases, 4, SentinelSpec::off());
        assert_eq!(plain, checked);
    }

    #[test]
    fn default_matrix_covers_everything() {
        let m = default_matrix(0.05);
        // 7 workloads × 4 architectures × 2 CPU models.
        assert_eq!(m.len(), 7 * 4 * 2);
        assert!(m.iter().any(|c| c.arch == ArchKind::Clustered));
        assert!(m.iter().any(|c| c.cpu == CpuKind::Mxs));
    }

    /// Satellite: the extended matrix keeps the default rows first and
    /// byte-identical (golden prefix), and its geometry rows carry the
    /// extra JSON keys.
    #[test]
    fn extended_matrix_is_default_prefix_plus_geometry_rows() {
        let def = default_matrix(0.02);
        let ext = extended_matrix(0.02);
        assert!(ext.len() > def.len());
        for (d, e) in def.iter().zip(&ext) {
            assert_eq!(
                (d.workload, d.arch, format!("{:?}", d.cpu)),
                (e.workload, e.arch, format!("{:?}", e.cpu)),
            );
            assert_eq!((e.n_cpus, e.cpus_per_cluster), (4, None));
        }
        let extras = &ext[def.len()..];
        assert!(extras
            .iter()
            .all(|c| c.n_cpus != 4 || c.cpus_per_cluster.is_some() || c.arch == ArchKind::Mesh));
        assert!(extras
            .iter()
            .any(|c| c.arch == ArchKind::Clustered && c.cpus_per_cluster == Some(4)));
        assert!(extras
            .iter()
            .any(|c| c.arch == ArchKind::Mesh && c.n_cpus == 16));
        // One geometry row end-to-end: its JSON carries the extra keys.
        let case = extras
            .iter()
            .find(|c| c.n_cpus == 8 && c.cpus_per_cluster == Some(4))
            .unwrap();
        let line = summary_json(case, &run_case(case, SentinelSpec::off()));
        assert!(
            line.contains("\"scale\":0.02,\"n_cpus\":8,\"cpus_per_cluster\":4,\"wall_cycles\":"),
            "{line}"
        );
        // And a default row never does.
        let line = summary_json(&def[0], &run_case(&def[0], SentinelSpec::off()));
        assert!(!line.contains("n_cpus"), "{line}");
    }
}
