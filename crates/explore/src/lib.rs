//! Design-space exploration: the simulator as a search backend.
//!
//! The paper hand-evaluates a handful of fixed geometries; this crate
//! turns that into a queryable service over an enormous configuration
//! space (DESIGN.md §15):
//!
//! * [`space`] — a typed design space over architecture, CPU model and
//!   the memory-hierarchy knobs, embedded as a compact mixed-radix
//!   integer with validated decode and enumeration.
//! * [`search`] — exhaustive and seeded-random drivers: one planned batch
//!   per search, evaluated once and fanned through the job pool.
//! * [`eval`] — point evaluation: memory-system-only points route
//!   through the trace-replay fast path ([`cmpsim_trace::replay_matrix`],
//!   one execution-driven capture per CPU-side signature), execution
//!   mode runs every point through the full machine.
//! * [`cache`] — the resume journal extended into a persistent result
//!   cache keyed by (config digest, workload digest), so overlapping or
//!   resumed searches never recompute a point.
//! * [`pareto`] — non-dominated frontier extraction over (IPC,
//!   area-proxy, average access latency).
//! * [`report`] — deterministic JSON-lines rendering: same seed + same
//!   space ⇒ byte-identical output at any job count.

pub mod cache;
pub mod eval;
pub mod pareto;
pub mod report;
pub mod search;
pub mod space;

pub use cache::ResultCache;
pub use eval::{EvalMode, EvalSpec, PointMetrics};
pub use pareto::frontier;
pub use report::render_lines;
pub use search::{dry_run, run_search, Driver, DryRun, SearchOutcome};
pub use space::{DesignSpace, Point};

use cmpsim_mem::ConfigError;
use std::fmt;

/// A rejected exploration request, with enough context to correct it.
/// Every malformed space specification, embedding, cache file or
/// workload surfaces here — the crate's public API never panics on bad
/// input.
#[derive(Debug, Clone, PartialEq)]
pub enum ExploreError {
    /// A `--dim` name that is not one of [`space::DIM_NAMES`].
    UnknownDimension(String),
    /// A required dimension (architecture, CPU model, CPU count) with no
    /// levels.
    EmptyDimension(&'static str),
    /// A level value a dimension cannot hold.
    BadLevel {
        /// Dimension name.
        dim: &'static str,
        /// Offending value, verbatim.
        value: String,
        /// Why it was rejected.
        why: String,
    },
    /// The cross product of all dimensions exceeds the embedding budget.
    SpaceTooLarge {
        /// Requested cardinality.
        cardinality: u128,
        /// Supported maximum.
        max: u64,
    },
    /// An integer embedding that decodes to no point of this space —
    /// out of range, or a non-canonical combination (a knob that is
    /// idle under the point's architecture or CPU model set off its
    /// default level).
    InvalidEmbedding {
        /// The rejected code.
        code: u64,
        /// Why it was rejected.
        why: String,
    },
    /// A decoded point whose resolved `SystemConfig` fails validation.
    Config(ConfigError),
    /// The workload failed to build.
    Workload(String),
    /// Result-cache I/O failed.
    Io(String),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::UnknownDimension(name) => {
                write!(
                    f,
                    "unknown dimension '{name}' (see `cmpsim explore --help`)"
                )
            }
            ExploreError::EmptyDimension(dim) => {
                write!(f, "dimension '{dim}' needs at least one level")
            }
            ExploreError::BadLevel { dim, value, why } => {
                write!(f, "dimension '{dim}': bad level '{value}': {why}")
            }
            ExploreError::SpaceTooLarge { cardinality, max } => {
                write!(
                    f,
                    "design space has {cardinality} points, supported maximum is {max}"
                )
            }
            ExploreError::InvalidEmbedding { code, why } => {
                write!(f, "embedding {code} is not a point of this space: {why}")
            }
            ExploreError::Config(e) => write!(f, "invalid configuration: {e}"),
            ExploreError::Workload(e) => write!(f, "workload failed to build: {e}"),
            ExploreError::Io(e) => write!(f, "result cache I/O: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<ConfigError> for ExploreError {
    fn from(e: ConfigError) -> ExploreError {
        ExploreError::Config(e)
    }
}

impl From<std::io::Error> for ExploreError {
    fn from(e: std::io::Error) -> ExploreError {
        ExploreError::Io(e.to_string())
    }
}
