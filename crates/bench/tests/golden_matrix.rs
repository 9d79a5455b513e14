//! The digest matrix as a tier-1 gate. All 68 cases of
//! `extended_matrix(0.02)` run three ways: 7 workloads × 4 architectures
//! × 2 CPU models, then the 8-CPU, cluster-shape and mesh rows.
//!
//! * Plain, on one worker: every line must equal
//!   `golden/matrix_scale0.02.txt`. This is the proof that a change keeps
//!   every simulated result.
//! * With the coherence sentinel on, on four workers: a violation panics
//!   its case, and the checker must not change any line.
//! * Captured to a reference trace and replayed into a fresh memory
//!   system, on four workers: `run_case_replay_checked` asserts that the
//!   replayed `MemStats` and port utilization equal the captured run's,
//!   and capture must not change any line.
//!
//! A second test pins machines whose directory presence bits span two
//! 64-bit words: mp3d on 128 CPUs, shared-L2 and mesh.
//!
//! A failure prints every differing line, so a deliberate results change
//! can be re-blessed from the test's output.

use cmpsim_bench::matrix::{
    extended_matrix, matrix_json_lines, run_case_replay_checked, summary_json, MatrixCase,
};
use cmpsim_core::{ArchKind, CpuKind};
use cmpsim_engine::pool::map_jobs;
use cmpsim_mem::SentinelSpec;

const GOLDEN: &str = include_str!("../golden/matrix_scale0.02.txt");
const GOLDEN_128: &str = include_str!("../golden/mp3d_128cpu_scale0.005.txt");

/// Panics with every line where `actual` differs from `expected`.
fn assert_lines(what: &str, expected: &[&str], actual: &[String]) {
    let mut report = String::new();
    for i in 0..expected.len().max(actual.len()) {
        let (want, got) = (expected.get(i).copied(), actual.get(i).map(String::as_str));
        if want != got {
            report += &format!(
                "line {}:\n  expected {}\n  actual   {}\n",
                i + 1,
                want.unwrap_or("(none)"),
                got.unwrap_or("(none)")
            );
        }
    }
    assert!(report.is_empty(), "{what}:\n{report}");
}

#[test]
fn matrix_matches_golden_plain_with_sentinel_and_replayed() {
    let cases = extended_matrix(0.02);
    assert_eq!(cases.len(), 68);
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let plain = matrix_json_lines(&cases, 1, SentinelSpec::off());
    assert_lines(
        "the digest matrix differs from golden/matrix_scale0.02.txt",
        &golden,
        &plain,
    );
    let plain: Vec<&str> = plain.iter().map(String::as_str).collect();

    let sentinel = matrix_json_lines(&cases, 4, SentinelSpec::on());
    assert_lines("the sentinel changed a result", &plain, &sentinel);

    let replayed = map_jobs(4, &cases, |case| {
        summary_json(case, &run_case_replay_checked(case, SentinelSpec::off()))
    });
    assert_lines("trace capture changed a result", &plain, &replayed);
}

/// mp3d at scale 0.005 under Mipsy on a 128-CPU shared-L2 machine and a
/// 128-CPU (8 × 16) mesh: every store and fill walks presence bits in two
/// words per side. Plain, every line must equal
/// `golden/mp3d_128cpu_scale0.005.txt`; with the sentinel on, no line may
/// change.
#[test]
fn two_word_presence_runs_match_golden_plain_and_with_sentinel() {
    let cases = [ArchKind::SharedL2, ArchKind::Mesh].map(|arch| MatrixCase {
        workload: "mp3d",
        scale: 0.005,
        arch,
        cpu: CpuKind::Mipsy,
        n_cpus: 128,
        cpus_per_cluster: None,
    });
    let golden: Vec<&str> = GOLDEN_128.lines().collect();
    let plain = matrix_json_lines(&cases, 2, SentinelSpec::off());
    assert_lines(
        "the 128-CPU runs differ from golden/mp3d_128cpu_scale0.005.txt",
        &golden,
        &plain,
    );
    let plain: Vec<&str> = plain.iter().map(String::as_str).collect();
    let sentinel = matrix_json_lines(&cases, 2, SentinelSpec::on());
    assert_lines("the sentinel changed a 128-CPU result", &plain, &sentinel);
}
