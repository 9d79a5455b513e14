//! `cmpsim-perf`: the host-speed benchmark of the cmpsim simulator.
//!
//! Five workloads each stress a different layer (README.md explains
//! why). An untraced run reports end-to-end metrics as medians over
//! passes; a traced run reports a per-layer ledger built from spans the
//! benchmark records around public calls into `kernels`, `core`, `cpu`,
//! `mem`, `trace`, `engine` and `explore`. Every simulated result is
//! checked against pinned digests, so a faster simulator that computes
//! something else fails instead of winning.

pub mod calib;
pub mod compare;
pub mod golden;
pub mod heap;
pub mod host;
pub mod json;
pub mod metrics;
pub mod span;
pub mod stats;
pub mod workload;
