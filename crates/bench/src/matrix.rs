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
use cmpsim_engine::journal::{Journal, JournalKey};
use cmpsim_engine::pool::map_jobs;
use cmpsim_engine::supervise::{map_jobs_supervised, Quarantine};
use cmpsim_kernels::{build_by_name, BuiltWorkload, ALL_WORKLOADS};
use cmpsim_mem::{MemorySystem, SentinelSpec};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// One value in a JSON line.
#[derive(Debug)]
enum JsonVal {
    Str(String),
    U64(u64),
    F64(f64),
}

impl From<&str> for JsonVal {
    fn from(s: &str) -> JsonVal {
        JsonVal::Str(s.to_string())
    }
}
impl From<u64> for JsonVal {
    fn from(v: u64) -> JsonVal {
        JsonVal::U64(v)
    }
}
impl From<f64> for JsonVal {
    fn from(v: f64) -> JsonVal {
        JsonVal::F64(v)
    }
}

/// Formats one `{"k":v,...}` JSON object line from ordered pairs.
/// Strings are escaped; floats print with enough digits to round-trip.
fn json_line(pairs: &[(&str, JsonVal)]) -> String {
    let mut out = String::from("{");
    for (i, (key, val)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:", json_str(key));
        match val {
            JsonVal::Str(s) => out.push_str(&json_str(s)),
            JsonVal::U64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonVal::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
        }
    }
    out.push('}');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
    let mut fields: Vec<(&str, JsonVal)> = vec![
        ("workload", case.workload.into()),
        ("arch", case.arch.name().into()),
        ("cpu", cpu_label(case.cpu).into()),
        ("scale", case.scale.into()),
    ];
    // Geometry keys appear only on non-default rows so the default
    // matrix's lines stay byte-identical to their historical form.
    if case.n_cpus != 4 {
        fields.push(("n_cpus", (case.n_cpus as u64).into()));
    }
    if let Some(k) = case.cpus_per_cluster {
        fields.push(("cpus_per_cluster", (k as u64).into()));
    }
    fields.extend([
        ("wall_cycles", s.wall_cycles.into()),
        ("instructions", s.total.instructions.into()),
        ("summary_fnv1a", JsonVal::Str(format!("{digest:016x}"))),
    ]);
    json_line(&fields)
}

/// Builds a case's workload and its default machine configuration with
/// `sentinel`.
fn case_setup(case: &MatrixCase, sentinel: SentinelSpec) -> (BuiltWorkload, MachineConfig) {
    let w = build_by_name(case.workload, case.n_cpus, case.scale)
        .unwrap_or_else(|e| panic!("building {}: {e}", case.workload));
    let mut cfg = MachineConfig::new(case.arch, case.cpu);
    cfg.n_cpus = case.n_cpus;
    cfg.cpus_per_cluster = case.cpus_per_cluster;
    cfg.sentinel = Some(sentinel);
    (w, cfg)
}

/// Runs one matrix case at the default machine configuration, sentinel
/// off.
///
/// # Panics
///
/// Panics if the workload fails to build, times out or fails validation
/// — the matrix pins known-good configurations.
pub fn run_case(case: &MatrixCase) -> RunSummary {
    run_case_with_sentinel(case, SentinelSpec::off())
}

/// Like [`run_case`] but running under `sentinel`, the verification
/// pass's mode.
///
/// # Panics
///
/// As [`run_case`], and also on any sentinel invariant violation.
pub fn run_case_with_sentinel(case: &MatrixCase, sentinel: SentinelSpec) -> RunSummary {
    let (w, cfg) = case_setup(case, sentinel);
    let s = run_workload(&cfg, &w, MATRIX_BUDGET)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", case.workload, case.arch));
    assert!(
        s.violations.is_empty(),
        "{} on {}: {} sentinel violations in a pinned-good configuration; first: {}",
        case.workload,
        case.arch,
        s.violations.len(),
        s.violations[0]
    );
    s
}

/// Runs the whole matrix on `jobs` worker threads and returns one JSON line
/// per case, in matrix order — byte-identical for any `jobs` value.
pub fn matrix_json_lines(cases: &[MatrixCase], jobs: usize) -> Vec<String> {
    map_jobs(jobs, cases, |case| summary_json(case, &run_case(case)))
}

/// Env knob poisoning one matrix case for the quarantine gate, spelled
/// `<workload>:<arch-name>:<cpu-label>` (e.g. `mp3d:shared-L2:mipsy`).
/// The matching case panics instead of running; the supervised sweep
/// must quarantine it without losing any other row.
pub const ENV_MATRIX_PANIC: &str = "CMPSIM_MATRIX_PANIC";

/// The resume-journal key of one matrix case, built through the shared
/// [`JournalKey::digest`] helper: the config half covers the namespaced
/// machine geometry (versioned so a future layout change cannot silently
/// match stale journal rows), the workload half the name and scale.
pub fn case_key(case: &MatrixCase) -> JournalKey {
    JournalKey::digest(
        "cmpsim-matrix-row-v1",
        &format!(
            "{}|{}|{}|{:?}",
            case.arch.name(),
            cpu_label(case.cpu),
            case.n_cpus,
            case.cpus_per_cluster,
        ),
        &format!("{}|{:?}", case.workload, case.scale),
    )
}

/// What a supervised matrix sweep produced.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// One JSON line per surviving case, in matrix order; quarantined
    /// cases are simply absent (their slot is dropped, never reordered).
    pub lines: Vec<String>,
    /// Quarantine records for the cases that panicked, in matrix order.
    pub quarantined: Vec<Quarantine>,
    /// Rows answered verbatim from the resume journal instead of re-run.
    pub resumed: usize,
}

/// [`matrix_json_lines`] under the supervised execution layer, every
/// case run under `sentinel`: each case runs once in panic isolation,
/// and — when `journal` is supplied — each completed row is journaled
/// crash-safely and resumed verbatim on restart. When nothing fails and
/// no journal row pre-exists, the surviving lines are byte-identical to
/// the unsupervised sweep's (test-asserted).
///
/// Honors [`ENV_MATRIX_PANIC`] (poison one case) for the verify.sh
/// quarantine gate. The journal's own kill hook
/// ([`cmpsim_engine::journal::ENV_KILL_AFTER`]) fires inside `put`, while
/// this sweep holds the journal lock, so exactly n rows are journaled.
pub fn matrix_json_lines_supervised(
    cases: &[MatrixCase],
    jobs: usize,
    journal: Option<&Mutex<Journal>>,
    sentinel: SentinelSpec,
) -> MatrixOutcome {
    let poison = std::env::var(ENV_MATRIX_PANIC).ok();
    let resumed = AtomicUsize::new(0);
    let (vals, quarantined) = map_jobs_supervised(jobs, cases, |case| {
        let key = case_key(case);
        if let Some(j) = journal {
            let stored = j
                .lock()
                .expect("journal lock")
                .get(key)
                .map(|b| String::from_utf8(b.to_vec()).expect("journaled rows are JSON lines"));
            if let Some(line) = stored {
                resumed.fetch_add(1, Ordering::Relaxed);
                return line;
            }
        }
        let label = format!(
            "{}:{}:{}",
            case.workload,
            case.arch.name(),
            cpu_label(case.cpu)
        );
        assert!(
            poison.as_deref() != Some(label.as_str()),
            "injected matrix fault: {label} poisoned via {ENV_MATRIX_PANIC}"
        );
        let line = summary_json(case, &run_case_with_sentinel(case, sentinel));
        if let Some(j) = journal {
            j.lock()
                .expect("journal lock")
                .put(key, line.as_bytes())
                .unwrap_or_else(|e| panic!("journaling {label}: {e}"));
        }
        line
    });
    MatrixOutcome {
        lines: vals.into_iter().flatten().collect(),
        quarantined,
        resumed: resumed.into_inner(),
    }
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
    let (s, bytes) = capture_run(&cfg, &w, MATRIX_BUDGET)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", case.workload, case.arch));
    let records = cmpsim_trace::decode(&bytes)
        .unwrap_or_else(|e| panic!("{} on {}: decode failed: {e}", case.workload, case.arch));
    let mut fresh = cfg
        .arch
        .try_build(&cfg.system_config())
        .unwrap_or_else(|e| panic!("{e}"));
    cmpsim_trace::replay_records(&records, fresh.as_mut());
    assert_eq!(
        format!("{:?}", fresh.stats()),
        format!("{:?}", s.mem),
        "{} on {} ({}): replayed MemStats differ from the captured run's",
        case.workload,
        case.arch,
        cpu_label(case.cpu),
    );
    assert_eq!(
        format!("{:?}", fresh.port_utilization()),
        format!("{:?}", s.port_util),
        "{} on {} ({}): replayed port utilization differs",
        case.workload,
        case.arch,
        cpu_label(case.cpu),
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
        let serial = matrix_json_lines(&cases, 1);
        let parallel = matrix_json_lines(&cases, 8);
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
            let off = summary_json(case, &run_case_with_sentinel(case, SentinelSpec::off()));
            let on = summary_json(case, &run_case_with_sentinel(case, SentinelSpec::on()));
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
        let plain = matrix_json_lines(&cases, 4);
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
        let line = summary_json(case, &run_case(case));
        assert!(line.contains("\"n_cpus\":8"), "{line}");
        assert!(line.contains("\"cpus_per_cluster\":4"), "{line}");
        // And a default row never does.
        let line = summary_json(&def[0], &run_case(&def[0]));
        assert!(!line.contains("n_cpus"), "{line}");
    }

    /// Tentpole: when nothing fails, the supervised sweep's merged output
    /// is byte-identical to the unsupervised one — supervision is pure
    /// scheduling, never results.
    #[test]
    fn supervised_matrix_matches_plain_when_clean() {
        let cases: Vec<MatrixCase> = default_matrix(0.02)
            .into_iter()
            .filter(|c| c.cpu == CpuKind::Mipsy && c.workload == "eqntott")
            .collect();
        assert_eq!(cases.len(), 4);
        let plain = matrix_json_lines(&cases, 4);
        for jobs in [1usize, 4] {
            let out = matrix_json_lines_supervised(&cases, jobs, None, SentinelSpec::off());
            assert!(out.quarantined.is_empty());
            assert_eq!(out.resumed, 0);
            assert_eq!(
                out.lines.join("\n").into_bytes(),
                plain.join("\n").into_bytes(),
                "jobs={jobs}"
            );
        }
    }

    /// Tentpole: rows answered from the resume journal are emitted
    /// verbatim — a resumed sweep's stdout is byte-identical to an
    /// uninterrupted one, and completed cases are not re-run.
    #[test]
    fn journal_resume_reemits_identical_lines_without_rerunning() {
        let cases: Vec<MatrixCase> = default_matrix(0.02)
            .into_iter()
            .filter(|c| c.cpu == CpuKind::Mipsy && c.workload == "eqntott")
            .collect();
        let path =
            std::env::temp_dir().join(format!("cmpsim-matrix-resume-{}.jrnl", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // First pass journals only a prefix — the "killed mid-sweep" state.
        let j = Mutex::new(Journal::open(&path).expect("opens"));
        let partial = matrix_json_lines_supervised(&cases[..2], 2, Some(&j), SentinelSpec::off());
        assert_eq!(partial.resumed, 0);
        drop(j);

        // Restart: the journal recovers the prefix, the sweep completes,
        // and stdout is byte-identical to an uninterrupted run.
        let j = Mutex::new(Journal::open(&path).expect("reopens"));
        assert_eq!(j.lock().unwrap().recovered(), 2);
        let resumed = matrix_json_lines_supervised(&cases, 2, Some(&j), SentinelSpec::off());
        assert_eq!(resumed.resumed, 2, "the journaled prefix is not re-run");
        assert!(resumed.quarantined.is_empty());
        assert_eq!(resumed.lines, matrix_json_lines(&cases, 2));
        std::fs::remove_file(&path).expect("cleanup");
    }

    /// The resume-journal key must separate every distinct case: a digest
    /// collision would silently resume the wrong row.
    #[test]
    fn case_keys_are_unique_across_the_extended_matrix() {
        let cases = extended_matrix(0.05);
        let mut seen = std::collections::HashSet::new();
        for case in &cases {
            let k = case_key(case);
            assert!(
                seen.insert((k.config, k.workload)),
                "duplicate journal key for {} on {} ({})",
                case.workload,
                case.arch,
                cpu_label(case.cpu)
            );
        }
        // Scale is part of the workload digest: the same case at another
        // scale must never resume this one's row.
        let mut other = cases[0];
        other.scale = 0.07;
        assert_ne!(case_key(&cases[0]), case_key(&other));
    }

    #[test]
    fn json_line_formats_and_escapes() {
        let line = json_line(&[
            ("bench", "sim\"x\"".into()),
            ("count", 3u64.into()),
            ("rate", 1.5f64.into()),
        ]);
        assert_eq!(line, r#"{"bench":"sim\"x\"","count":3,"rate":1.5}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let line = json_line(&[("rate", f64::INFINITY.into())]);
        assert_eq!(line, r#"{"rate":null}"#);
    }
}
