//! Emits the canonical JSON digest of every `(workload × architecture ×
//! CPU model)` run at the default configuration, followed by the
//! non-default geometry rows (8 CPUs, alternate cluster shapes) — the
//! regression pin for "simulator optimizations change host time only".
//!
//! The default 56 rows come first and are byte-identical to their
//! historical form, so golden-digest checks can pin that prefix.
//!
//! This entry point reads its knobs once and passes them down as typed
//! values; a malformed value stops the run with a message naming it.
//! Cases fan out over the host's available parallelism, and output is
//! byte-identical for any worker count.
//!
//! * `CMPSIM_MATRIX_SCALE=<f>` — workload scale (default 0.05).
//! * `CMPSIM_SENTINEL=1` — run every case with the coherence sentinel on.
//!   Any violation panics the case, so output identical to the
//!   sentinel-off run also means zero violations.
//! * `CMPSIM_MATRIX_REPLAY=1` — run every case with reference-trace
//!   capture on and replay each capture into a freshly built identical
//!   memory system, asserting bit-identical `MemStats` per case. The
//!   emitted lines are the same either way — which is itself the other
//!   half of the gate: a diff of replay-mode output against plain output
//!   proves the capture hook perturbs nothing.
//! * `CMPSIM_RESUME=<path>` — journal each completed row crash-safely, so
//!   a killed sweep restarts where it died with byte-identical stdout
//!   (the journal's `CMPSIM_KILL_AFTER` hook is the kill).
//! * `CMPSIM_MATRIX_PANIC=<case>` — poison one case (see
//!   `cmpsim_bench::matrix::ENV_MATRIX_PANIC`).
//!
//! The plain (non-replay) path runs under the supervised execution
//! layer: a panicking case is quarantined (reported to stderr, exit
//! code 2) without losing any other row.

use cmpsim_bench::matrix::{
    extended_matrix, matrix_json_lines_replay_checked, matrix_json_lines_supervised,
};
use cmpsim_engine::journal::Journal;
use cmpsim_engine::pool::host_jobs;
use cmpsim_mem::SentinelSpec;
use std::sync::Mutex;

/// A boolean knob: set to anything but empty or `0`.
fn flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.trim().is_empty() && v.trim() != "0")
}

fn main() {
    let scale = match std::env::var("CMPSIM_MATRIX_SCALE") {
        Err(_) => 0.05,
        Ok(raw) => match raw.trim().parse::<f64>() {
            Ok(s) if s > 0.0 => s,
            _ => {
                eprintln!(
                    "summary_matrix: CMPSIM_MATRIX_SCALE={raw:?}: expected a positive number"
                );
                std::process::exit(2);
            }
        },
    };
    let sentinel = if flag("CMPSIM_SENTINEL") {
        SentinelSpec::on()
    } else {
        SentinelSpec::off()
    };
    let cases = extended_matrix(scale);
    if flag("CMPSIM_MATRIX_REPLAY") {
        for line in matrix_json_lines_replay_checked(&cases, host_jobs(), sentinel) {
            println!("{line}");
        }
        return;
    }
    let journal = std::env::var("CMPSIM_RESUME").ok().map(|path| {
        let j =
            Journal::open(&path).unwrap_or_else(|e| panic!("opening resume journal {path}: {e}"));
        if j.recovered() > 0 {
            eprintln!("summary_matrix: resumed {} rows from {path}", j.recovered());
        }
        Mutex::new(j)
    });
    let out = matrix_json_lines_supervised(&cases, host_jobs(), journal.as_ref(), sentinel);
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
