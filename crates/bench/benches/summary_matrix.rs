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
//!
//! A case that panics stops the sweep: its panic message on stderr names
//! the case, and the process exits 101 without printing any line. The
//! sweep is short enough to rerun rather than resume (about 0.4 s at
//! scale 0.02 and 13 s at scale 1.0 on a 2-CPU host).

use cmpsim_bench::matrix::{extended_matrix, matrix_json_lines, matrix_json_lines_replay_checked};
use cmpsim_engine::pool::host_jobs;
use cmpsim_mem::SentinelSpec;

/// A boolean knob: set to anything but empty or `0`.
fn flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.trim().is_empty() && v.trim() != "0")
}

fn main() {
    let scale = match std::env::var("CMPSIM_MATRIX_SCALE") {
        Err(_) => 0.05,
        Ok(raw) => match raw.trim().parse::<f64>() {
            Ok(s) if s.is_finite() && s > 0.0 => s,
            _ => {
                eprintln!(
                    "summary_matrix: CMPSIM_MATRIX_SCALE={raw:?}: expected a finite positive number"
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
    let lines = if flag("CMPSIM_MATRIX_REPLAY") {
        matrix_json_lines_replay_checked(&cases, host_jobs(), sentinel)
    } else {
        matrix_json_lines(&cases, host_jobs(), sentinel)
    };
    for line in lines {
        println!("{line}");
    }
}
