//! Search drivers over a design space: exhaustive, seeded random,
//! batched hill-climb and a (μ+λ) evolutionary loop.
//!
//! Every driver is a deterministic function of `(space, spec, driver,
//! seed)`: random choices come from one [`Rng64`] stream consumed in a
//! fixed order, candidate batches go through [`Evaluator::eval_batch`]
//! (whose results are a pure function of the point), and the outcome
//! lists points in ascending code order — so the emitted JSON is
//! byte-identical at any job count and across cache-hit reruns.

use crate::cache::ResultCache;
use crate::eval::{EvalSpec, Evaluator, PointMetrics};
use crate::pareto::frontier;
use crate::space::DesignSpace;
use crate::ExploreError;
use cmpsim_engine::rng::Rng64;
use std::cmp::Ordering;
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
    /// Parallel hill-climbers moving one embedding digit at a time.
    HillClimb {
        /// Independent starting points.
        starts: usize,
        /// Maximum move rounds.
        steps: usize,
    },
    /// (μ+λ) evolution: elite half survives, offspring mutate one digit.
    Evolve {
        /// Population size.
        population: usize,
        /// Generations after the initial population.
        generations: usize,
    },
}

impl Driver {
    /// Stable tag for JSON output.
    pub fn tag(&self) -> &'static str {
        match self {
            Driver::Exhaustive => "exhaustive",
            Driver::Random { .. } => "random",
            Driver::HillClimb { .. } => "hill",
            Driver::Evolve { .. } => "evolve",
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
    /// Points the driver would evaluate up front (for the adaptive
    /// drivers this is the initial batch — later rounds depend on
    /// results, so they cannot be predicted without simulating).
    pub planned: usize,
    /// Of `planned`: execution-driven runs (captures in replay mode,
    /// full runs in exec mode) still to perform.
    pub exec_captures: usize,
    /// Of `planned`: points that would route through trace replay.
    pub replay_points: usize,
    /// Of `planned`: points already answered by the cache.
    pub cache_hits: usize,
}

/// Fitness order, `Greater` = fitter: higher IPC, then smaller area,
/// then the smaller code as the total tie-break (keeps every driver
/// decision deterministic even on identical metrics).
fn fitness_cmp(a: &(u64, PointMetrics), b: &(u64, PointMetrics)) -> Ordering {
    a.1.ipc
        .total_cmp(&b.1.ipc)
        .then(b.1.area_kb.total_cmp(&a.1.area_kb))
        .then(b.0.cmp(&a.0))
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

/// Mutates one embedding digit of `parent` into a different level of a
/// swept dimension, retrying until the mutant decodes; falls back to
/// the parent when the neighborhood is too hostile.
fn mutate(space: &DesignSpace, rng: &mut Rng64, parent: u64) -> u64 {
    let radices = space.radices();
    let Ok(digits) = space.split(parent) else {
        return parent;
    };
    let swept: Vec<usize> = (0..radices.len()).filter(|&i| radices[i] > 1).collect();
    if swept.is_empty() {
        return parent;
    }
    for _ in 0..16 {
        let dim = swept[rng.range(swept.len() as u64) as usize];
        let level = rng.range(radices[dim]) as usize;
        if level == digits[dim] {
            continue;
        }
        let mut moved = digits;
        moved[dim] = level;
        let code = space.encode(&moved);
        if space.decode(code).is_ok() {
            return code;
        }
    }
    parent
}

fn open_cache(path: Option<&Path>) -> Result<Option<ResultCache>, ExploreError> {
    path.map(ResultCache::open).transpose()
}

/// Runs `driver` over `space` and extracts the Pareto frontier.
///
/// # Errors
///
/// Any [`ExploreError`]: invalid space, a workload that cannot be built,
/// failed canonical capture, cache I/O. Drivers tolerate short samples.
pub fn run_search(
    space: &DesignSpace,
    spec: EvalSpec,
    driver: Driver,
    seed: u64,
    cache_path: Option<&Path>,
) -> Result<SearchOutcome, ExploreError> {
    space.validate()?;
    let mut rng = Rng64::new(seed);
    let mut ev = Evaluator::new(spec, open_cache(cache_path)?);
    match driver {
        Driver::Exhaustive => {
            ev.eval_batch(space, &space.enumerate())?;
        }
        Driver::Random { points } => {
            let codes = sample_distinct(space, &mut rng, points);
            ev.eval_batch(space, &codes)?;
        }
        Driver::HillClimb { starts, steps } => {
            let mut climbers = sample_distinct(space, &mut rng, starts);
            ev.eval_batch(space, &climbers)?;
            for _ in 0..steps {
                // Lockstep round: evaluate every climber's whole
                // neighborhood as one batch (one capture set, one
                // replay_matrix fan-out), then move each climber to its
                // best strictly-improving neighbor.
                let hoods: Vec<Vec<u64>> = climbers.iter().map(|&c| space.neighbors(c)).collect();
                let batch: Vec<u64> = hoods.iter().flatten().copied().collect();
                ev.eval_batch(space, &batch)?;
                let mut moved = false;
                for (climber, hood) in climbers.iter_mut().zip(&hoods) {
                    let Some(cur) = ev.metrics(*climber).copied() else {
                        continue;
                    };
                    let best = hood
                        .iter()
                        .filter_map(|&c| ev.metrics(c).map(|m| (c, *m)))
                        .max_by(fitness_cmp);
                    if let Some(best) = best {
                        if fitness_cmp(&best, &(*climber, cur)) == Ordering::Greater {
                            *climber = best.0;
                            moved = true;
                        }
                    }
                }
                if !moved {
                    break;
                }
            }
        }
        Driver::Evolve {
            population,
            generations,
        } => {
            let mut pop = sample_distinct(space, &mut rng, population);
            ev.eval_batch(space, &pop)?;
            for _ in 0..generations {
                // μ+λ: rank what survived evaluation, keep the elite
                // half, refill with single-digit mutants of random
                // elites. Duplicates are free — the evaluator memoizes.
                let mut ranked: Vec<(u64, PointMetrics)> = pop
                    .iter()
                    .filter_map(|&c| ev.metrics(c).map(|m| (c, *m)))
                    .collect();
                if ranked.is_empty() {
                    break;
                }
                ranked.sort_by(|a, b| fitness_cmp(b, a));
                ranked.truncate((pop.len() / 2).max(1));
                let mut next: Vec<u64> = ranked.iter().map(|&(c, _)| c).collect();
                while next.len() < population {
                    let parent = ranked[rng.range(ranked.len() as u64) as usize].0;
                    next.push(mutate(space, &mut rng, parent));
                }
                ev.eval_batch(space, &next)?;
                pop = next;
            }
        }
    }
    let points: Vec<(u64, PointMetrics)> = ev.results().map(|(c, m)| (c, *m)).collect();
    Ok(SearchOutcome {
        frontier: frontier(&points),
        cardinality: space.cardinality(),
        exec_runs: ev.exec_runs,
        replay_points: ev.replay_points,
        cache_hits: ev.cache_hits(),
        cache_recovered: ev.cache_recovered(),
        quarantined: ev.dropped.len(),
        dropped: ev.dropped,
        points,
    })
}

/// Plans a search without simulating: cardinality, the driver's initial
/// batch, its exec/replay split and how much the cache already covers.
/// Uses the same seeded sampling as [`run_search`], so the planned batch
/// is exactly the batch the real run would start with.
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
    let mut rng = Rng64::new(seed);
    let planned: Vec<u64> = match driver {
        Driver::Exhaustive => space.enumerate(),
        Driver::Random { points } => sample_distinct(space, &mut rng, points),
        Driver::HillClimb { starts, .. } => sample_distinct(space, &mut rng, starts),
        Driver::Evolve { population, .. } => sample_distinct(space, &mut rng, population),
    };
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
            if cache
                .get(ResultCache::key(&tag, &format!("{:?}", p.cfg)))
                .is_some()
            {
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
