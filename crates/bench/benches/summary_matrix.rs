//! Emits the canonical JSON digest of every `(workload × architecture ×
//! CPU model)` run at the default configuration, followed by the
//! non-default geometry rows (8 CPUs, alternate cluster shapes) — the
//! regression pin for "simulator optimizations change host time only".
//!
//! The default 56 rows come first and are byte-identical to their
//! historical form, so golden-digest checks can pin that prefix.
//!
//! Scale comes from `CMPSIM_MATRIX_SCALE` (default 0.05) and the worker
//! count from `CMPSIM_BENCH_JOBS` (default: all host cores). Output is
//! byte-identical for any jobs value.
//!
//! `CMPSIM_MATRIX_REPLAY=1` runs every case with reference-trace capture
//! on and replays each capture into a freshly built identical memory
//! system, asserting bit-identical `MemStats` per case. The emitted lines
//! are the same either way — which is itself the other half of the gate:
//! a diff of replay-mode output against plain output proves the capture
//! hook perturbs nothing.
//!
//! The plain (non-replay) path runs under the supervised execution
//! layer: a panicking case is quarantined (reported to stderr, exit
//! code 2) without losing any other row, and `CMPSIM_RESUME=<path>`
//! journals each completed row crash-safely so a killed sweep restarts
//! where it died with byte-identical stdout.

use cmpsim_bench::matrix::{
    extended_matrix, matrix_json_lines_replay_checked, matrix_json_lines_supervised,
};
use cmpsim_bench::n_jobs;
use cmpsim_engine::journal::Journal;
use std::sync::Mutex;

fn main() {
    let scale = std::env::var("CMPSIM_MATRIX_SCALE")
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .unwrap_or(0.05);
    let replay = std::env::var("CMPSIM_MATRIX_REPLAY")
        .map(|v| !v.trim().is_empty() && v.trim() != "0")
        .unwrap_or(false);
    let cases = extended_matrix(scale);
    if replay {
        for line in matrix_json_lines_replay_checked(&cases, n_jobs()) {
            println!("{line}");
        }
        return;
    }
    let journal = Journal::from_env()
        .unwrap_or_else(|e| panic!("opening resume journal: {e}"))
        .map(Mutex::new);
    if let Some(j) = &journal {
        let j = j.lock().expect("journal lock");
        if j.recovered() > 0 {
            eprintln!(
                "summary_matrix: resumed {} rows from {}",
                j.recovered(),
                j.path().display()
            );
        }
    }
    let out = matrix_json_lines_supervised(&cases, n_jobs(), journal.as_ref());
    for line in &out.lines {
        println!("{line}");
    }
    if !out.quarantined.is_empty() {
        for q in &out.quarantined {
            eprintln!("summary_matrix: {q}");
        }
        eprintln!(
            "summary_matrix: {} of {} cases quarantined",
            out.quarantined.len(),
            cases.len()
        );
        std::process::exit(2);
    }
}
