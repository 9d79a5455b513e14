//! Prints the canonical JSON digest of every `(workload × architecture ×
//! CPU model)` run at the default configuration and scale 1.0, followed
//! by the non-default geometry rows (8 CPUs, alternate cluster shapes,
//! mesh grids): the full-scale regression pin for "simulator
//! optimizations change host time only". It takes no settings.
//!
//! Cases fan out over the host's available parallelism, and output is
//! byte-identical for any worker count. A case that panics stops the
//! sweep: its panic message on stderr names the case, and the process
//! exits 101 without printing any line. The sweep takes about 13 s on a
//! 2-CPU host.
//!
//! The tier-1 test `tests/golden_matrix.rs` runs the same matrix at
//! scale 0.02 against `golden/matrix_scale0.02.txt`, with the coherence
//! sentinel on, and captured and replayed.

use cmpsim_bench::matrix::{extended_matrix, matrix_json_lines};
use cmpsim_engine::pool::host_jobs;
use cmpsim_mem::SentinelSpec;

fn main() {
    for line in matrix_json_lines(&extended_matrix(1.0), host_jobs(), SentinelSpec::off()) {
        println!("{line}");
    }
}
