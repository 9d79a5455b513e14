//! Point evaluation: the replay fast path and the execution path.
//!
//! A search's planned points are evaluated once, and each result is a
//! **pure function of the point** — it never depends on which other
//! points share the search, so the cache stays coherent across
//! overlapping searches and any job count.
//!
//! * **Replay mode** (the default): points are grouped by their CPU-side
//!   signature (timing model, reorder window, CPU count — everything
//!   that shapes the reference stream). Each group runs **one**
//!   execution-driven capture on its canonical machine (the paper's
//!   bus-based shared-memory architecture, whose private-L1 stream is
//!   the natural reference), then every point in the group replays the
//!   decoded trace through its own candidate hierarchy via
//!   [`cmpsim_trace::replay_matrix`] — decode once, N hierarchies. The
//!   replayed `MemStats` are exact for the fixed stream; IPC is the
//!   blocking-model estimate `ifetches / (Σ access latency / n_cpus)`,
//!   a consistent fitness proxy rather than a cycle-accurate number
//!   (DESIGN.md §15 quantifies the approximation). A point with more
//!   CPUs than a trace record can name (64) runs execution-driven
//!   instead ([`EvalSpec::replays`]).
//! * **Execution mode** (`--exec`): every point runs the full machine —
//!   exact IPC, at execution speed.
//!
//! Both paths fan out through the job pool and land results in the
//! persistent cache. Errors stay values: a workload that cannot be built
//! or a canonical capture that fails stops the search with a typed
//! [`ExploreError`], while an execution-mode point whose run fails (a
//! cycle budget, a failed self-check) is dropped and its error kept in
//! [`crate::SearchOutcome::dropped`]. A panic is a simulator bug and
//! stops the process.

use crate::cache::ResultCache;
use crate::space::{DesignSpace, Point};
use crate::ExploreError;
use cmpsim_core::{capture_run, run_workload, ArchKind, ArchSystem, MachineConfig, RunSummary};
use cmpsim_engine::journal::JournalKey;
use cmpsim_engine::pool::map_jobs;
use cmpsim_kernels::build_by_name;
use cmpsim_mem::{LevelStats, MemStats, SentinelSpec};
use std::collections::BTreeMap;

/// How points are evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// One capture per CPU-side signature, trace replay per point.
    Replay,
    /// Full execution-driven run per point.
    Exec,
}

impl EvalMode {
    /// Stable tag for cache keys and JSON.
    pub fn tag(self) -> &'static str {
        match self {
            EvalMode::Replay => "replay",
            EvalMode::Exec => "exec",
        }
    }
}

/// Which path produced a stored result (in replay mode the capture runs
/// are not points, so a point's metrics carry `Replay` unless
/// [`EvalSpec::replays`] sent it to execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalPath {
    /// Execution-driven: exact machine IPC.
    Exec,
    /// Trace replay: exact `MemStats` for the fixed stream, estimated
    /// IPC.
    Replay,
}

/// The evaluation contract: what every point runs against.
#[derive(Debug, Clone)]
pub struct EvalSpec {
    /// Workload name (see `cmpsim_kernels::ALL_WORKLOADS`).
    pub workload: String,
    /// Workload scale factor.
    pub scale: f64,
    /// Cycle budget per run.
    pub budget: u64,
    /// Evaluation mode.
    pub mode: EvalMode,
    /// Worker threads for batch fan-out.
    pub jobs: usize,
}

impl EvalSpec {
    /// The workload half of every cache key: versioned, and covering
    /// mode + budget so execution-driven and replay-estimated results
    /// can never answer for each other.
    pub fn workload_tag(&self) -> String {
        format!(
            "explore-eval-v1|{}|{:?}|{}|{}",
            self.workload,
            self.scale,
            self.budget,
            self.mode.tag()
        )
    }

    /// Whether `p` is evaluated by trace replay: in replay mode, and only
    /// when a trace can carry the point's CPU count. Every other point
    /// runs execution-driven. [`crate::run_search`] and
    /// [`crate::dry_run`] both route points through this one rule.
    pub fn replays(&self, p: &Point) -> bool {
        self.mode == EvalMode::Replay
            && p.cfg.n_cpus <= usize::from(cmpsim_trace::codec::MAX_CPU) + 1
    }
}

/// Headline numbers of one evaluated point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointMetrics {
    /// Which path produced this result.
    pub path: EvalPath,
    /// Instructions graduated (exec) or instruction fetches replayed
    /// (replay — the fixed-stream stand-in).
    pub instructions: u64,
    /// Memory accesses observed (L1I + L1D).
    pub accesses: u64,
    /// Wall cycles (exec) or the blocking-model estimate (replay).
    pub wall_cycles: u64,
    /// Machine IPC (exec) or the blocking-model estimate (replay).
    pub ipc: f64,
    /// L1D miss rate in percent of L1D accesses.
    pub l1d_miss_pct: f64,
    /// L2 miss rate in percent of L2 accesses.
    pub l2_miss_pct: f64,
    /// Mean end-to-end access latency in cycles.
    pub avg_lat: f64,
    /// Static area proxy in KB-equivalents (DESIGN.md §15).
    pub area_kb: f64,
}

fn miss_pct(l: &LevelStats) -> f64 {
    if l.accesses == 0 {
        0.0
    } else {
        (l.miss_repl + l.miss_inval) as f64 / l.accesses as f64 * 100.0
    }
}

fn exec_metrics(p: &Point, s: &RunSummary) -> PointMetrics {
    PointMetrics {
        path: EvalPath::Exec,
        instructions: s.total.instructions,
        accesses: s.mem.l1i.accesses + s.mem.l1d.accesses,
        wall_cycles: s.wall_cycles,
        ipc: s.machine_ipc(),
        l1d_miss_pct: miss_pct(&s.mem.l1d),
        l2_miss_pct: miss_pct(&s.mem.l2),
        avg_lat: s.mem.latency.mean(),
        area_kb: p.area_kb(),
    }
}

fn replay_metrics(p: &Point, accesses: u64, stats: &MemStats) -> PointMetrics {
    // Blocking-model IPC estimate over the fixed stream: every CPU is a
    // one-instruction-per-fetch in-order core whose time is the summed
    // access latency, spread across `n_cpus` parallel cores. Exact for
    // neither CPU model, but monotone in the hierarchy's service time —
    // a consistent fitness proxy (DESIGN.md §15).
    let (_, _, _, lat_sum, _) = stats.latency.raw_parts();
    let wall_est = (lat_sum / p.cfg.n_cpus as u64).max(1);
    let ifetches = stats.l1i.accesses;
    PointMetrics {
        path: EvalPath::Replay,
        instructions: ifetches,
        accesses,
        wall_cycles: wall_est,
        ipc: ifetches as f64 / wall_est as f64,
        l1d_miss_pct: miss_pct(&stats.l1d),
        l2_miss_pct: miss_pct(&stats.l2),
        avg_lat: stats.latency.mean(),
        area_kb: p.area_kb(),
    }
}

/// The canonical capture machine of one CPU-side signature: the paper's
/// bus-based shared-memory architecture with the point's CPU model and
/// count — a pure function of the signature, so cached results never
/// depend on which architectures happen to share a search.
fn capture_config(p: &Point) -> MachineConfig {
    let mut cfg = MachineConfig::new(ArchKind::SharedMem, p.cfg.cpu);
    cfg.n_cpus = p.cfg.n_cpus;
    cfg.sentinel = Some(SentinelSpec::off());
    cfg
}

/// The cache key of `p` under the evaluation contract `tag`
/// ([`EvalSpec::workload_tag`]).
pub(crate) fn cache_key(tag: &str, p: &Point) -> JournalKey {
    ResultCache::key(tag, &format!("{:?}", p.cfg))
}

/// What one evaluation pass produced.
#[derive(Default)]
pub(crate) struct Evaluated {
    /// Every evaluated point with its metrics, ascending code order.
    pub points: Vec<(u64, PointMetrics)>,
    /// Execution-driven runs performed (captures in replay mode, full
    /// runs in exec mode).
    pub exec_runs: usize,
    /// Points evaluated through trace replay.
    pub replay_points: usize,
    /// Execution-mode points whose run failed, with the run's error
    /// text, in evaluation order. A dropped point has no metrics.
    pub dropped: Vec<(u64, String)>,
}

/// Evaluates the distinct `codes` once: cached points answer from
/// `cache`, the rest run execution-driven or by capture and replay, and
/// every new result lands in `cache`.
///
/// # Errors
///
/// [`ExploreError::InvalidEmbedding`]/[`ExploreError::Config`] for a
/// code outside the space, [`ExploreError::Workload`] when the workload
/// cannot be built or a canonical capture fails, and
/// [`ExploreError::Io`] on cache append failure.
pub(crate) fn evaluate(
    space: &DesignSpace,
    spec: &EvalSpec,
    codes: &[u64],
    mut cache: Option<&mut ResultCache>,
) -> Result<Evaluated, ExploreError> {
    let tag = spec.workload_tag();
    let mut ev = Evaluated::default();
    let (mut replayed, mut executed) = (Vec::new(), Vec::new());
    for &code in codes {
        let p = space.decode(code)?;
        if let Some(m) = cache
            .as_deref_mut()
            .and_then(|c| c.get(cache_key(&tag, &p)))
        {
            ev.points.push((code, m));
        } else if spec.replays(&p) {
            replayed.push(p);
        } else {
            executed.push(p);
        }
    }
    let mut results = execute(spec, &executed, &mut ev)?;
    results.extend(replay(spec, &replayed, &mut ev)?);
    // Store executed points, then replayed ones, each in plan order: a
    // deterministic journal append order, so a cache cut at a given byte
    // holds the same rows every time.
    for (p, m) in executed.iter().chain(&replayed).zip(results) {
        let Some(m) = m else { continue };
        if let Some(cache) = cache.as_deref_mut() {
            cache.put(cache_key(&tag, p), &m)?;
        }
        ev.points.push((p.code, m));
    }
    ev.points.sort_unstable_by_key(|&(code, _)| code);
    Ok(ev)
}

/// Execution mode: every point through the full machine. A point whose
/// run fails is dropped (`None`) and its error recorded.
fn execute(
    spec: &EvalSpec,
    todo: &[Point],
    ev: &mut Evaluated,
) -> Result<Vec<Option<PointMetrics>>, ExploreError> {
    let runs = map_jobs(spec.jobs, todo, |p| -> Result<_, ExploreError> {
        let w = build_by_name(&spec.workload, p.cfg.n_cpus, spec.scale)
            .map_err(ExploreError::Workload)?;
        Ok(run_workload(&p.cfg, &w, spec.budget).map(|s| exec_metrics(p, &s)))
    });
    let mut out = Vec::with_capacity(todo.len());
    for (p, run) in todo.iter().zip(runs) {
        match run? {
            Ok(m) => {
                ev.exec_runs += 1;
                out.push(Some(m));
            }
            Err(e) => {
                ev.dropped.push((p.code, e.to_string()));
                out.push(None);
            }
        }
    }
    Ok(out)
}

/// Replay mode: one canonical capture per CPU-side signature, then
/// `replay_matrix` over each group's candidate hierarchies.
fn replay(
    spec: &EvalSpec,
    todo: &[Point],
    ev: &mut Evaluated,
) -> Result<Vec<Option<PointMetrics>>, ExploreError> {
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, p) in todo.iter().enumerate() {
        groups.entry(p.group_sig()).or_default().push(i);
    }
    // Stage A: capture every group's reference trace, fanned out in
    // parallel across signatures.
    let firsts: Vec<(&String, &Point)> = groups
        .iter()
        .map(|(sig, idxs)| (sig, &todo[idxs[0]]))
        .collect();
    let captured = map_jobs(spec.jobs, &firsts, |&(sig, p)| {
        let w = build_by_name(&spec.workload, p.cfg.n_cpus, spec.scale)
            .map_err(ExploreError::Workload)?;
        let failed = |e: &dyn std::fmt::Display| {
            ExploreError::Workload(format!(
                "canonical capture for CPU-side signature {sig} failed: {e}"
            ))
        };
        let (_, bytes) =
            capture_run(&capture_config(p), &w, spec.budget).map_err(|e| failed(&e))?;
        cmpsim_trace::decode(&bytes).map_err(|e| failed(&e))
    });
    let traces = captured.into_iter().collect::<Result<Vec<_>, _>>()?;
    ev.exec_runs += traces.len();
    // Stage B: batched replay, group by group in signature order.
    let mut out: Vec<Option<PointMetrics>> = vec![None; todo.len()];
    for (idxs, records) in groups.values().zip(traces) {
        let pts: Vec<&Point> = idxs.iter().map(|&i| &todo[i]).collect();
        // A decoded point's configuration is valid, so each worker builds
        // its system by the concrete type.
        let replayed =
            cmpsim_trace::replay_matrix(&records, pts.len(), spec.jobs, |i| ArchSystem {
                arch: pts[i].cfg.arch,
                config: pts[i].system_config(),
            });
        for (&i, r) in idxs.iter().zip(replayed) {
            out[i] = Some(replay_metrics(&todo[i], r.replay.accesses, &r.stats));
            ev.replay_points += 1;
        }
    }
    Ok(out)
}
