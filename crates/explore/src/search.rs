//! Search drivers over a design space: exhaustive and seeded random.
//!
//! A search is one batch. The planned codes are a deterministic function
//! of `(space, driver, seed)` — random choices come from one [`Rng64`]
//! stream consumed in a fixed order — and [`run_search`] evaluates them
//! once, each result a pure function of its point. The outcome lists
//! points in ascending code order, so the emitted JSON is byte-identical
//! at any job count and across cache-hit reruns. [`dry_run`] plans the
//! same codes without simulating.

use crate::cache::ResultCache;
use crate::eval::{cache_key, evaluate, EvalSpec, PointMetrics};
use crate::pareto::frontier;
use crate::space::DesignSpace;
use crate::ExploreError;
use cmpsim_engine::rng::Rng64;
use std::collections::HashSet;
use std::path::Path;

/// Which search strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Every valid point of the space.
    Exhaustive,
    /// `points` distinct seeded-random valid points.
    Random {
        /// Distinct points to sample.
        points: usize,
    },
}

impl Driver {
    /// Stable tag for JSON output.
    pub fn tag(&self) -> &'static str {
        match self {
            Driver::Exhaustive => "exhaustive",
            Driver::Random { .. } => "random",
        }
    }
}

/// Everything a finished search produced.
#[derive(Debug)]
pub struct SearchOutcome {
    /// Every evaluated point with its metrics, ascending code order.
    pub points: Vec<(u64, PointMetrics)>,
    /// Pareto-frontier codes (subset of `points`), ascending.
    pub frontier: Vec<u64>,
    /// The space's total code count.
    pub cardinality: u64,
    /// Execution-driven runs performed (captures + exec-mode points).
    pub exec_runs: usize,
    /// Points evaluated through trace replay.
    pub replay_points: usize,
    /// Points answered from the persistent cache.
    pub cache_hits: usize,
    /// Cache rows recovered from disk at open.
    pub cache_recovered: usize,
    /// Execution-mode points dropped because their run failed, with the
    /// run's error text, in evaluation order.
    pub dropped: Vec<(u64, String)>,
    /// `dropped.len()`.
    pub quarantined: usize,
}

/// What `--dry-run` reports without simulating anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DryRun {
    /// The space's total code count.
    pub cardinality: u64,
    /// Points the search evaluates.
    pub planned: usize,
    /// Of `planned`: execution-driven runs (captures in replay mode,
    /// full runs in exec mode) still to perform.
    pub exec_captures: usize,
    /// Of `planned`: points that would route through trace replay.
    pub replay_points: usize,
    /// Of `planned`: points already answered by the cache.
    pub cache_hits: usize,
}

/// `want` distinct valid codes: full (shuffled, truncated) enumeration
/// for small spaces, seeded rejection sampling for large ones. May
/// return fewer than `want` when the space is sparse or smaller than
/// the request.
fn sample_distinct(space: &DesignSpace, rng: &mut Rng64, want: usize) -> Vec<u64> {
    let card = space.cardinality();
    if card <= 4096 || card <= want.saturating_mul(4) as u64 {
        let mut all = space.enumerate();
        if all.len() > want {
            rng.shuffle(&mut all);
            all.truncate(want);
            all.sort_unstable();
        }
        return all;
    }
    let mut seen: HashSet<u64> = HashSet::new();
    let mut out = Vec::with_capacity(want);
    let cap = want.saturating_mul(200);
    for _ in 0..cap {
        if out.len() >= want {
            break;
        }
        let code = rng.range(card);
        if seen.insert(code) && space.decode(code).is_ok() {
            out.push(code);
        }
    }
    out
}

/// The distinct valid codes `driver` evaluates, in evaluation order.
fn plan(space: &DesignSpace, driver: Driver, seed: u64) -> Vec<u64> {
    match driver {
        Driver::Exhaustive => space.enumerate(),
        Driver::Random { points } => sample_distinct(space, &mut Rng64::new(seed), points),
    }
}

/// Runs `driver` over `space` and extracts the Pareto frontier.
///
/// # Errors
///
/// Any [`ExploreError`]: invalid space, a workload that cannot be built,
/// failed canonical capture, cache I/O. A random sample may come up
/// short of its request.
pub fn run_search(
    space: &DesignSpace,
    spec: EvalSpec,
    driver: Driver,
    seed: u64,
    cache_path: Option<&Path>,
) -> Result<SearchOutcome, ExploreError> {
    space.validate()?;
    let mut cache = cache_path.map(ResultCache::open).transpose()?;
    let ev = evaluate(space, &spec, &plan(space, driver, seed), cache.as_mut())?;
    Ok(SearchOutcome {
        frontier: frontier(&ev.points),
        cardinality: space.cardinality(),
        exec_runs: ev.exec_runs,
        replay_points: ev.replay_points,
        cache_hits: cache.as_ref().map_or(0, ResultCache::hits),
        cache_recovered: cache.as_ref().map_or(0, ResultCache::recovered),
        quarantined: ev.dropped.len(),
        dropped: ev.dropped,
        points: ev.points,
    })
}

/// Plans a search without simulating: cardinality, the planned codes,
/// their exec/replay split and how much the cache already covers. The
/// codes are the ones [`run_search`] evaluates, routed by the same
/// cache keys and [`EvalSpec::replays`].
///
/// # Errors
///
/// [`ExploreError`] on invalid spaces or unreadable cache files.
pub fn dry_run(
    space: &DesignSpace,
    spec: &EvalSpec,
    driver: Driver,
    seed: u64,
    cache_path: Option<&Path>,
) -> Result<DryRun, ExploreError> {
    space.validate()?;
    let planned = plan(space, driver, seed);
    // Probe the cache read-only — and only if the file already exists
    // (opening would create it, and a dry run must not).
    let mut cache = match cache_path {
        Some(p) if p.exists() => Some(ResultCache::open(p)?),
        _ => None,
    };
    let tag = spec.workload_tag();
    let mut hits = 0usize;
    let mut groups: HashSet<String> = HashSet::new();
    let mut replay = 0usize;
    let mut exec = 0usize;
    for &code in &planned {
        let p = space.decode(code)?;
        if let Some(cache) = &mut cache {
            if cache.get(cache_key(&tag, &p)).is_some() {
                hits += 1;
                continue;
            }
        }
        if spec.replays(&p) {
            replay += 1;
            groups.insert(p.group_sig());
        } else {
            exec += 1;
        }
    }
    Ok(DryRun {
        cardinality: space.cardinality(),
        planned: planned.len(),
        exec_captures: exec + groups.len(),
        replay_points: replay,
        cache_hits: hits,
    })
}
