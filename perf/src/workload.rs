//! The five workloads, and the passes, ledger and checks that run them.
//!
//! Every workload is a closed loop: each case starts when the previous
//! one finishes. A *pass* runs every case once (in a seed-shuffled order)
//! or, for `explore-replay`, one whole search. Untraced passes give the
//! end-to-end metrics. A traced run alternates untraced and traced passes
//! (the ratio is the tracing overhead), then runs the *ledger*: each case
//! once more with spans around every layer call, followed by capture,
//! decode and replay of its reference trace. Replay reproduces the run's
//! `MemStats` bit for bit, so replay time is the memory layer's share of
//! the run and the remainder is the CPU layer's, an estimate by
//! substitution because `Machine` owns its memory system and the two
//! cannot be timed apart from outside.

use crate::calib::{self, Calibrator};
use crate::golden::{self, Golden};
use crate::heap;
use crate::metrics::{self, Metric};
use crate::span::{self, Span, Tracer};
use crate::stats::{summarize, Summary};
use cmpsim_bench::matrix::{cpu_label, fnv1a, MatrixCase};
use cmpsim_core::{capture_run, ArchKind, CpuKind, Machine, MachineConfig, RunSummary};
use cmpsim_cpu::CpuCounters;
use cmpsim_engine::pool::map_jobs;
use cmpsim_engine::rng::Rng64;
use cmpsim_explore::{
    dry_run, render_lines, run_search, DesignSpace, Driver, EvalMode, EvalSpec, SearchOutcome,
};
use cmpsim_kernels::{build_by_name, BuiltWorkload, ALL_WORKLOADS};
use cmpsim_mem::{LevelStats, SentinelSpec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The workloads, in run order.
pub const WORKLOADS: [&str; 5] = [
    "mipsy-read",
    "mipsy-write",
    "mxs-paper",
    "mesh64",
    "explore-replay",
];

/// Scale factor `--quick` applies to every workload.
pub const QUICK_SCALE: f64 = 0.05;

/// Cycle budget per simulated run; every pinned case ends far below it.
pub const BUDGET: u64 = 40_000_000_000;

/// Passes measured at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Times the explore plan is computed per pass for `setup_s` (it takes
/// about 0.1 ms, too short for one reading to be steady).
const PLAN_REPEATS: usize = 9;

/// The explore-replay design space: six knobs, 432 points, all of them
/// memory-side, so a search runs three captures (one per CPU count) and
/// replays the rest.
const EXPLORE_DIMS: [(&str, &str); 6] = [
    ("arch", "shared-l2,shared-mem,mesh"),
    ("cpus", "2,4,8"),
    ("l1-kb", "8,16,32"),
    ("l2-kb", "512,1024,2048,4096"),
    ("l2-assoc", "1,2"),
    ("l2-width", "64,128"),
];

/// A seeded random search over [`EXPLORE_DIMS`].
#[derive(Debug, Clone)]
pub struct SearchSpec {
    pub program: &'static str,
    pub scale: f64,
    pub points: usize,
}

impl SearchSpec {
    pub fn space(&self) -> Result<DesignSpace, String> {
        let mut space = DesignSpace::paper();
        for (dim, levels) in EXPLORE_DIMS {
            space.set_dim(dim, levels).map_err(|e| e.to_string())?;
        }
        Ok(space)
    }

    pub fn eval(&self, jobs: usize) -> EvalSpec {
        EvalSpec {
            workload: self.program.to_string(),
            scale: self.scale,
            budget: BUDGET,
            mode: EvalMode::Replay,
            jobs,
        }
    }

    pub fn driver(&self) -> Driver {
        Driver::Random {
            points: self.points,
        }
    }
}

/// What one workload runs.
#[derive(Debug, Clone)]
pub struct Plan {
    pub name: &'static str,
    /// The cases of one pass; for `explore-replay`, the search's own
    /// capture runs, which only the ledger times.
    pub cases: Vec<MatrixCase>,
    pub search: Option<SearchSpec>,
}

/// The plan for workload `name`, at full or `--quick` scale.
pub fn plan(name: &str, quick: bool) -> Option<Plan> {
    let k = if quick { QUICK_SCALE } else { 1.0 };
    let grid = |programs: &[(&'static str, f64)], arches: &[ArchKind], cpu, n_cpus| {
        let mut cases = Vec::new();
        for &(workload, scale) in programs {
            for &arch in arches {
                cases.push(MatrixCase {
                    workload,
                    scale: scale * k,
                    arch,
                    cpu,
                    n_cpus,
                    cpus_per_cluster: None,
                });
            }
        }
        cases
    };
    let paper = &ArchKind::ALL;
    let (name, cases, search) = match name {
        "mipsy-read" => (
            "mipsy-read",
            grid(
                &[("eqntott", 1.0), ("volpack", 1.0), ("ear", 1.0)],
                paper,
                CpuKind::Mipsy,
                4,
            ),
            None,
        ),
        "mipsy-write" => (
            "mipsy-write",
            grid(
                &[
                    ("mp3d", 0.75),
                    ("ocean", 0.75),
                    ("fft", 0.75),
                    ("multiprog", 0.75),
                ],
                paper,
                CpuKind::Mipsy,
                4,
            ),
            None,
        ),
        "mxs-paper" => {
            let all: Vec<(&'static str, f64)> = ALL_WORKLOADS.iter().map(|&w| (w, 0.25)).collect();
            ("mxs-paper", grid(&all, paper, CpuKind::Mxs, 4), None)
        }
        "mesh64" => (
            "mesh64",
            grid(
                &[("eqntott", 0.025), ("fft", 0.05), ("ocean", 0.05)],
                &[ArchKind::Mesh, ArchKind::SharedL2],
                CpuKind::Mipsy,
                64,
            ),
            None,
        ),
        "explore-replay" => {
            let search = SearchSpec {
                program: "eqntott",
                scale: 0.05 * k,
                points: 420,
            };
            // The search's canonical capture machines (shared-memory,
            // Mipsy, one per CPU count), timed by the ledger.
            let cases = [2, 4, 8]
                .map(|n_cpus| MatrixCase {
                    workload: search.program,
                    scale: search.scale,
                    arch: ArchKind::SharedMem,
                    cpu: CpuKind::Mipsy,
                    n_cpus,
                    cpus_per_cluster: None,
                })
                .to_vec();
            ("explore-replay", cases, Some(search))
        }
        _ => return None,
    };
    Some(Plan {
        name,
        cases,
        search,
    })
}

/// The machine a case runs on: sentinel off, one shard, no capture, so
/// the environment cannot change what is measured.
fn machine_config(case: &MatrixCase) -> MachineConfig {
    let mut cfg = MachineConfig::new(case.arch, case.cpu);
    cfg.n_cpus = case.n_cpus;
    cfg.cpus_per_cluster = case.cpus_per_cluster;
    cfg.sentinel = Some(SentinelSpec::off());
    cfg.shards = Some(1);
    cfg
}

fn case_label(case: &MatrixCase) -> String {
    format!(
        "{}@{}.{}.{}",
        case.workload,
        case.arch.name(),
        cpu_label(case.cpu),
        case.n_cpus
    )
}

/// What one timed case produced.
struct CaseRun {
    workload: Option<BuiltWorkload>,
    summary: Result<RunSummary, String>,
    /// `build_by_name` + `Machine::try_new`.
    setup: Duration,
    /// `Machine::run` + the workload's check.
    run: Duration,
}

/// Builds, runs and checks one case, with a span around each layer call.
fn run_case(case: &MatrixCase, tr: &mut Tracer, parent: Option<u32>, trace: &str) -> CaseRun {
    let t0 = Instant::now();
    let built = build_by_name(case.workload, case.n_cpus, case.scale);
    let t1 = Instant::now();
    tr.record(parent, trace, "kernels.build", t0, t1);
    let w = match built {
        Ok(w) => w,
        Err(e) => {
            return CaseRun {
                workload: None,
                summary: Err(format!("building: {e}")),
                setup: t1 - t0,
                run: Duration::ZERO,
            }
        }
    };
    let machine = Machine::try_new(&machine_config(case), &w);
    let t2 = Instant::now();
    tr.record(parent, trace, "core.new", t1, t2);
    let mut m = match machine {
        Ok(m) => m,
        Err(e) => {
            return CaseRun {
                workload: Some(w),
                summary: Err(e.to_string()),
                setup: t2 - t0,
                run: Duration::ZERO,
            }
        }
    };
    let ran = m.run(BUDGET);
    let t3 = Instant::now();
    tr.record(parent, trace, "core.run", t2, t3);
    let summary = ran.map_err(|e| e.to_string()).and_then(|s| {
        (w.check)(m.phys())
            .map(|()| s)
            .map_err(|e| format!("workload validation failed: {e}"))
    });
    let t4 = Instant::now();
    tr.record(parent, trace, "kernels.check", t3, t4);
    CaseRun {
        workload: Some(w),
        summary,
        setup: t2 - t0,
        run: t4 - t2,
    }
}

/// Host time and simulated work of one pass. Times are calibrated
/// seconds (see [`calib`]), except `raw`, the uncalibrated wall time.
#[derive(Debug, Clone, Copy, Default)]
struct PassStats {
    wall: f64,
    setup: f64,
    run: f64,
    raw: f64,
    instructions: u64,
    accesses: u64,
}

/// Run options.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Worker threads for the traced run's pool measurement. Timed
    /// passes are single-threaded: on a shared host a two-thread search
    /// varied three times as much from run to run.
    pub jobs: usize,
}

/// What a run measured and checked.
#[derive(Debug)]
pub struct Report {
    pub traced: bool,
    pub attempted: u64,
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer host-time metrics
    /// (traced).
    pub metrics: Vec<(&'static Metric, Summary)>,
    /// Exact simulated counts, by per-layer metric name.
    pub counts: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    pub notes: Vec<String>,
}

impl Report {
    /// The value of every metric the final JSON line carries: end-to-end
    /// medians when untraced, every per-layer metric when traced.
    pub fn values(&self) -> Vec<(&'static Metric, f64)> {
        let mut out: Vec<(&'static Metric, f64)> =
            self.metrics.iter().map(|(m, s)| (*m, s.median)).collect();
        if self.traced {
            for m in &metrics::LAYER_COUNTS {
                let v = self.counts.iter().find(|(n, _)| *n == m.name);
                out.push((m, v.map_or(0.0, |(_, v)| *v)));
            }
        }
        out
    }
}

struct Runner<'a> {
    plan: &'a Plan,
    golden: &'a Golden,
    opts: &'a Options,
    rng: Rng64,
    tracer: Tracer,
    cal: Calibrator,
    /// The calibration kernel's time at the last pass boundary.
    last_cal: f64,
    cal_times: Vec<f64>,
    /// Peak heap use during the warm-up pass, in MiB.
    warm_heap: f64,
    passes: usize,
    attempted: u64,
    errors: Vec<String>,
    notes: Vec<String>,
}

/// Runs one workload.
pub fn run(plan: &Plan, opts: &Options, golden: &Golden) -> Report {
    let mut r = Runner {
        plan,
        golden,
        opts,
        rng: Rng64::new(opts.seed),
        tracer: Tracer::new(opts.trace),
        cal: Calibrator::default(),
        last_cal: 0.0,
        cal_times: Vec::new(),
        warm_heap: 0.0,
        passes: 0,
        attempted: 0,
        errors: Vec::new(),
        notes: Vec::new(),
    };
    r.warmup();
    let (metrics, counts) = if opts.trace { r.traced() } else { r.untraced() };
    Report {
        traced: opts.trace,
        attempted: r.attempted,
        errors: r.errors,
        metrics,
        counts,
        spans: r.tracer.into_spans(),
        notes: r.notes,
    }
}

type Counts = Vec<(&'static str, f64)>;

impl Runner<'_> {
    /// Whether to measure another pass (or pair) after `done`: `--quick`
    /// measures one; otherwise at least [`MIN_PASSES`] and until
    /// `--seconds` have passed.
    fn more(&self, done: usize, start: Instant) -> bool {
        if self.opts.quick {
            done < 1
        } else {
            done < MIN_PASSES || start.elapsed().as_secs_f64() < self.opts.seconds
        }
    }

    /// Counts one checked operation, and its failure if it failed.
    fn tally(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    fn check_case(&mut self, case: &MatrixCase, summary: &Result<RunSummary, String>) {
        let verdict = summary.as_ref().map_err(Clone::clone).and_then(|s| {
            if let Some(v) = s.violations.first() {
                return Err(format!(
                    "{} sentinel violations; first: {v}",
                    s.violations.len()
                ));
            }
            self.golden
                .check(&golden::exec_key(case), &golden::summary_digest(s))
        });
        self.tally(&case_label(case), verdict);
    }

    /// One untimed pass in canonical order: page-ins and lazy set-up land
    /// outside the timing, and the heap peak it measures does not depend
    /// on the seed's case order (nor, with the search on one thread, on
    /// thread interleaving).
    fn warmup(&mut self) {
        heap::start();
        if self.plan.search.is_some() {
            self.search_pass(false, 1);
        } else {
            let mut off = Tracer::new(false);
            for case in &self.plan.cases {
                let r = run_case(case, &mut off, None, "");
                self.check_case(case, &r.summary);
            }
        }
        self.warm_heap = heap::stop();
        self.last_cal = self.cal.measure();
    }

    /// One timed pass, single-threaded.
    fn pass(&mut self, traced: bool) -> (PassStats, Counts) {
        if self.plan.search.is_some() {
            self.search_pass(traced, 1)
        } else {
            self.exec_pass(traced)
        }
    }

    /// Runs the calibration kernel; returns the factor that calibrates
    /// what ran since its previous run.
    fn calibrate(&mut self) -> f64 {
        let after = self.cal.measure();
        let f = calib::factor(self.last_cal, after);
        self.last_cal = after;
        self.cal_times.push(after);
        f
    }

    fn next_label(&mut self) -> String {
        self.passes += 1;
        format!("{}/p{}", self.plan.name, self.passes)
    }

    fn exec_pass(&mut self, traced: bool) -> (PassStats, Counts) {
        let plan = self.plan;
        let mut order: Vec<usize> = (0..plan.cases.len()).collect();
        self.rng.shuffle(&mut order);
        let label = self.next_label();
        self.tracer.set_on(traced);
        let pass_span = self.tracer.open(None, &label, "pass");
        let mut stats = PassStats::default();
        let mut runs = Vec::with_capacity(order.len());
        for &i in &order {
            let case = &plan.cases[i];
            let trace = format!("{label}/{}", case_label(case));
            let case_span = self.tracer.open(pass_span, &trace, "case");
            let start = Instant::now();
            let CaseRun {
                summary,
                setup,
                run,
                ..
            } = run_case(case, &mut self.tracer, case_span, &trace);
            let wall = start.elapsed().as_secs_f64();
            self.tracer.close(case_span);
            // Each case is calibrated by the kernel runs on either side:
            // host speed drifts within a pass.
            let f = self.calibrate();
            stats.raw += wall;
            stats.wall += wall * f;
            stats.setup += setup.as_secs_f64() * f;
            stats.run += run.as_secs_f64() * f;
            runs.push((i, summary));
        }
        self.tracer.close(pass_span);
        self.tracer.set_on(self.opts.trace);

        // Everything below is outside the pass timing.
        runs.sort_by_key(|r| r.0);
        let mut summaries = Vec::with_capacity(runs.len());
        for (i, summary) in runs {
            self.check_case(&plan.cases[i], &summary);
            if let Ok(s) = summary {
                stats.instructions += s.total.instructions;
                stats.accesses += s.mem.latency.total();
                summaries.push(s);
            }
        }
        let mut counts = sim_counts(&summaries);
        counts.extend(explore_counts(None));
        (stats, counts)
    }

    fn search_pass(&mut self, traced: bool, jobs: usize) -> (PassStats, Counts) {
        let spec = self
            .plan
            .search
            .as_ref()
            .expect("search passes run only for a plan with a search");
        let seed = self.opts.seed;
        let label = self.next_label();
        self.tracer.set_on(traced);
        let pass_span = self.tracer.open(None, &label, "pass");
        let plan_search = || {
            spec.space().and_then(|space| {
                dry_run(&space, &spec.eval(jobs), spec.driver(), seed, None)
                    .map(|plan| (space, plan))
                    .map_err(|e| e.to_string())
            })
        };
        let start = Instant::now();
        let planned = plan_search();
        let t1 = Instant::now();
        self.tracer
            .record(pass_span, &label, "explore.plan", start, t1);
        let outcome = planned
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|(space, _)| {
                run_search(space, spec.eval(jobs), spec.driver(), seed, None)
                    .map_err(|e| e.to_string())
            });
        let t2 = Instant::now();
        self.tracer
            .record(pass_span, &label, "explore.search", t1, t2);
        self.tracer.close(pass_span);
        self.tracer.set_on(self.opts.trace);
        let f = self.calibrate();

        // `setup_s` is the median of several plan computations; the extra
        // ones run after the pass's timing.
        let mut plan_times = vec![(t1 - start).as_secs_f64()];
        for _ in 1..PLAN_REPEATS {
            let t = Instant::now();
            black_box(plan_search().is_ok());
            plan_times.push(t.elapsed().as_secs_f64());
        }
        let mut stats = PassStats {
            wall: (t2 - start).as_secs_f64() * f,
            setup: summarize(&plan_times).expect("plan timings").median * f,
            run: (t2 - t1).as_secs_f64() * f,
            raw: (t2 - start).as_secs_f64(),
            ..PassStats::default()
        };
        let ((space, plan), o) = match (planned, outcome) {
            (Ok(p), Ok(o)) => (p, o),
            (Err(e), _) | (_, Err(e)) => {
                self.tally(&label, Err(e));
                return (stats, explore_counts(None));
            }
        };
        for (code, m) in &o.points {
            stats.instructions += m.instructions;
            stats.accesses += m.accesses;
            let key = golden::explore_point_key(spec.program, spec.scale, *code);
            let verdict = self
                .golden
                .check(&key, &golden::hex(fnv1a(format!("{m:?}").as_bytes())));
            self.tally(&label, verdict);
        }
        let complete = if o.points.len() == plan.planned && o.quarantined == 0 {
            Ok(())
        } else {
            Err(format!(
                "evaluated {} of {} planned points, {} quarantined",
                o.points.len(),
                plan.planned,
                o.quarantined
            ))
        };
        self.tally(&label, complete);
        let key = golden::explore_render_key(spec.program, spec.scale, seed);
        if self.golden.is_pinned(&key) {
            let verdict = render_lines(&space, &spec.eval(jobs), spec.driver(), seed, &o)
                .map_err(|e| format!("rendering: {e}"))
                .and_then(|lines| {
                    let digest = golden::hex(fnv1a(lines.join("\n").as_bytes()));
                    self.golden.check(&key, &digest)
                });
            self.tally(&label, verdict);
        } else if self.notes.is_empty() {
            self.notes
                .push(format!("explore render: unpinned (seed {seed})"));
        }
        (stats, explore_counts(Some(&o)))
    }

    /// Untraced: passes until `--seconds` have passed, end-to-end
    /// metrics as medians over passes, in calibrated seconds.
    fn untraced(&mut self) -> (Vec<(&'static Metric, Summary)>, Counts) {
        let start = Instant::now();
        let mut passes = Vec::new();
        let mut counts = Vec::new();
        while self.more(passes.len(), start) {
            let (p, c) = self.pass(false);
            passes.push(p);
            if counts.is_empty() {
                counts = c;
            }
        }
        let series = |f: &dyn Fn(&PassStats) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
        let values = [
            series(&|p| p.wall),
            series(&|p| ratio(p.instructions as f64, p.run * 1e6)),
            series(&|p| ratio(p.accesses as f64, p.wall * 1e6)),
            series(&|p| p.setup),
            vec![self.warm_heap],
        ];
        let median = |v: &[f64]| summarize(v).map_or(0.0, |s| s.median);
        self.notes.push(format!(
            "raw pass wall median {:.6} s; calibration kernel median {:.3} ms",
            median(&series(&|p| p.raw)),
            median(&self.cal_times) * 1e3
        ));
        let metrics = metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m, summarize(&v).expect("at least one pass")))
            .collect();
        (metrics, counts)
    }

    /// Traced: interleaved untraced and traced passes, the pool
    /// measurement, then the ledger.
    fn traced(&mut self) -> (Vec<(&'static Metric, Summary)>, Counts) {
        let start = Instant::now();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut explore = explore_counts(None);
        let mut round = 0;
        while self.more(round, start) {
            // Alternate which goes first, so drift cannot bias the ratio.
            let order = if round % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            for on in order {
                let (p, c) = self.pass(on);
                if on {
                    traced.push(p.wall);
                    explore = c
                        .into_iter()
                        .filter(|(n, _)| n.starts_with("explore."))
                        .collect();
                } else {
                    plain.push(p.wall);
                }
            }
            round += 1;
        }
        let median = |v: &[f64]| summarize(v).expect("at least one pass").median;
        let overhead = median(&traced) / median(&plain) - 1.0;
        let pool_speedup = if self.plan.search.is_some() {
            let (parallel, _) = self.search_pass(true, self.opts.jobs);
            median(&traced) / parallel.wall
        } else {
            let pooled = self.pool_pass();
            median(&traced) / (pooled * self.calibrate())
        };
        let ledger = self.ledger();

        let spans = self.tracer.spans();
        let selfs = span::self_times(spans);
        let prefix = format!("{}/ledger/", self.plan.name);
        let secs = |name| span::self_seconds(spans, &selfs, &prefix, name);
        let (build, new, run, check) = (
            secs("kernels.build"),
            secs("core.new"),
            secs("core.run"),
            secs("kernels.check"),
        );
        let (capture, decode, replay) = (
            secs("trace.capture"),
            secs("trace.decode"),
            secs("mem.replay"),
        );
        let est = run - replay;
        let values = [
            build,
            new,
            run,
            check,
            capture - (new + run + check),
            decode,
            ratio(ledger.records as f64, decode * 1e6),
            ratio(ledger.bytes as f64, ledger.records as f64),
            replay,
            ratio(replay * 1e9, ledger.replayed as f64),
            est,
            ratio(est * 1e9, ledger.instructions as f64),
            ratio(est, run),
            pool_speedup,
            overhead,
        ];
        let metrics = metrics::LAYER_TIMES
            .iter()
            .zip(values)
            .map(|(m, v)| (m, summarize(&[v]).expect("one value")))
            .collect();
        let mut counts = sim_counts(&ledger.summaries);
        counts.extend(explore);
        (metrics, counts)
    }

    /// The pass's cases fanned across the engine job pool; returns its
    /// wall time in seconds.
    fn pool_pass(&mut self) -> f64 {
        let label = self.next_label();
        let span = self.tracer.open(None, &label, "engine.pool");
        let start = Instant::now();
        let summaries = map_jobs(self.opts.jobs, &self.plan.cases, |case| {
            run_case(case, &mut Tracer::new(false), None, "").summary
        });
        let wall = start.elapsed().as_secs_f64();
        self.tracer.close(span);
        for (case, s) in self.plan.cases.iter().zip(&summaries) {
            self.check_case(case, s);
        }
        wall
    }

    /// Each case once more, with spans around every layer call, then its
    /// capture, decode and replay; checks that capture perturbs nothing
    /// and that replay reproduces the run's memory statistics.
    fn ledger(&mut self) -> Ledger {
        let mut ledger = Ledger::default();
        for case in &self.plan.cases {
            let trace = format!("{}/ledger/{}", self.plan.name, case_label(case));
            let case_span = self.tracer.open(None, &trace, "case");
            let r = run_case(case, &mut self.tracer, case_span, &trace);
            self.check_case(case, &r.summary);
            if let (Some(w), Ok(s)) = (&r.workload, &r.summary) {
                let verdict = self.substitute(case, w, s, case_span, &trace, &mut ledger);
                self.tally(&trace, verdict);
            }
            self.tracer.close(case_span);
            if let Ok(s) = r.summary {
                ledger.summaries.push(s);
            }
        }
        ledger
    }

    fn substitute(
        &mut self,
        case: &MatrixCase,
        w: &BuiltWorkload,
        s: &RunSummary,
        parent: Option<u32>,
        trace: &str,
        ledger: &mut Ledger,
    ) -> Result<(), String> {
        let cfg = machine_config(case);
        let t0 = Instant::now();
        let captured = capture_run(&cfg, w, BUDGET);
        let t1 = Instant::now();
        self.tracer.record(parent, trace, "trace.capture", t0, t1);
        let (cs, bytes) = captured.map_err(|e| format!("capture: {e}"))?;
        if golden::summary_digest(&cs) != golden::summary_digest(s) {
            return Err("the captured run differs from the plain run".into());
        }
        let t0 = Instant::now();
        let decoded = cmpsim_trace::decode(&bytes);
        let t1 = Instant::now();
        self.tracer.record(parent, trace, "trace.decode", t0, t1);
        let records = decoded.map_err(|e| format!("decode: {e}"))?;
        let mut sys = cfg
            .arch
            .try_build(&cfg.system_config())
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let replayed = cmpsim_trace::replay_records(&records, &mut sys);
        let t1 = Instant::now();
        self.tracer.record(parent, trace, "mem.replay", t0, t1);
        if format!("{:?}", sys.stats()) != format!("{:?}", s.mem)
            || format!("{:?}", sys.port_utilization()) != format!("{:?}", s.port_util)
        {
            return Err("replay did not reproduce the run's memory statistics".into());
        }
        ledger.records += records.len() as u64;
        ledger.bytes += bytes.len() as u64;
        ledger.replayed += replayed.accesses;
        ledger.instructions += s.total.instructions;
        Ok(())
    }
}

/// Totals of the ledger's substitution phase.
#[derive(Default)]
struct Ledger {
    summaries: Vec<RunSummary>,
    records: u64,
    bytes: u64,
    replayed: u64,
    instructions: u64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The exact simulated `cpu.*` and `mem.*` counts of a set of runs.
fn sim_counts(summaries: &[RunSummary]) -> Counts {
    let mut c = CpuCounters::default();
    let (mut cycles, mut accesses, mut latency) = (0u64, 0u64, 0u64);
    let (mut l1d, mut l1i, mut l2) = (
        LevelStats::default(),
        LevelStats::default(),
        LevelStats::default(),
    );
    let (mut inval, mut c2c, mut upgrades, mut writebacks) = (0u64, 0u64, 0u64, 0u64);
    let mut ports: BTreeMap<&str, [u64; 2]> = BTreeMap::new();
    let add = |sum: &mut LevelStats, l: &LevelStats| {
        sum.accesses += l.accesses;
        sum.hits += l.hits;
        sum.miss_repl += l.miss_repl;
        sum.miss_inval += l.miss_inval;
    };
    for s in summaries {
        c.merge(&s.total);
        cycles += s.wall_cycles;
        let m = &s.mem;
        accesses += m.latency.total();
        latency += m.latency.raw_parts().3;
        add(&mut l1d, &m.l1d);
        add(&mut l1i, &m.l1i);
        add(&mut l2, &m.l2);
        inval += m.invalidations_sent;
        c2c += m.c2c_transfers;
        upgrades += m.upgrades;
        writebacks += m.writebacks;
        for p in &s.port_util {
            let e = ports.entry(p.name).or_default();
            e[0] += p.grants;
            e[1] += p.wait_cycles;
        }
    }
    let f = |v: u64| v as f64;
    let mipsy = f(c.total_cycles());
    let miss = |l: &LevelStats| ratio(f(l.misses()), f(l.accesses));
    let mut out = vec![
        ("cpu.instructions", f(c.instructions)),
        ("cpu.cycles", f(cycles)),
        ("cpu.ipc", ratio(f(c.instructions), f(cycles))),
        ("cpu.sc_failures", f(c.sc_failures)),
        ("cpu.stall.busy_frac", ratio(f(c.busy_cycles), mipsy)),
        ("cpu.stall.instr_frac", ratio(f(c.stall_instruction), mipsy)),
        ("cpu.stall.l1_frac", ratio(f(c.stall_l1_data), mipsy)),
        ("cpu.stall.l2_frac", ratio(f(c.stall_l2), mipsy)),
        ("cpu.stall.mem_frac", ratio(f(c.stall_memory), mipsy)),
        ("cpu.stall.c2c_frac", ratio(f(c.stall_c2c), mipsy)),
        (
            "cpu.stall.store_frac",
            ratio(f(c.stall_store_buffer + c.stall_fence), mipsy),
        ),
        ("cpu.mxs.window_occupancy", c.avg_window_occupancy()),
        ("cpu.mxs.rob_full_stalls", f(c.dispatch_stall_rob)),
        ("cpu.mxs.preg_stalls", f(c.dispatch_stall_preg)),
        (
            "cpu.mxs.mispredict_ratio",
            ratio(f(c.mispredicts), f(c.branches)),
        ),
        ("mem.accesses", f(accesses)),
        ("mem.l1d_miss_ratio", miss(&l1d)),
        ("mem.l1i_miss_ratio", miss(&l1i)),
        ("mem.l2_miss_ratio", miss(&l2)),
        ("mem.avg_latency_cycles", ratio(f(latency), f(accesses))),
        ("mem.invalidations", f(inval)),
        ("mem.c2c_transfers", f(c2c)),
        ("mem.upgrades", f(upgrades)),
        ("mem.writebacks", f(writebacks)),
    ];
    for m in &metrics::LAYER_COUNTS {
        let Some((port, field)) = m
            .name
            .strip_prefix("mem.port.")
            .and_then(|p| p.rsplit_once('.'))
        else {
            continue;
        };
        let sums = ports.get(port).copied().unwrap_or_default();
        out.push((m.name, f(sums[usize::from(field == "wait_cycles")])));
    }
    out
}

/// The `explore.*` counts of a search; zeros for workloads without one.
fn explore_counts(o: Option<&SearchOutcome>) -> Counts {
    let f = |v: usize| v as f64;
    vec![
        ("explore.points", o.map_or(0.0, |o| f(o.points.len()))),
        ("explore.exec_runs", o.map_or(0.0, |o| f(o.exec_runs))),
        (
            "explore.replay_points",
            o.map_or(0.0, |o| f(o.replay_points)),
        ),
        ("explore.frontier", o.map_or(0.0, |o| f(o.frontier.len()))),
        ("explore.quarantined", o.map_or(0.0, |o| f(o.quarantined))),
    ]
}

/// Runs every case and the explore space once, at full and quick scale,
/// and pins what they produce: the exec digests, every explore point,
/// and the rendered searches for [`golden::PINNED_RENDER_SEEDS`].
///
/// # Errors
///
/// The first case or search that fails.
pub fn bless(golden: &mut Golden, jobs: usize) -> Result<(), String> {
    for quick in [false, true] {
        for name in WORKLOADS {
            let plan = plan(name, quick).expect("every listed workload has a plan");
            for case in &plan.cases {
                let s = run_case(case, &mut Tracer::new(false), None, "")
                    .summary
                    .map_err(|e| format!("{}: {e}", case_label(case)))?;
                golden.extend([(golden::exec_key(case), golden::summary_digest(&s))]);
            }
            let Some(spec) = &plan.search else { continue };
            let space = spec.space()?;
            let all = run_search(&space, spec.eval(jobs), Driver::Exhaustive, 0, None)
                .map_err(|e| e.to_string())?;
            golden.extend(all.points.iter().map(|(code, m)| {
                (
                    golden::explore_point_key(spec.program, spec.scale, *code),
                    golden::hex(fnv1a(format!("{m:?}").as_bytes())),
                )
            }));
            for seed in golden::PINNED_RENDER_SEEDS {
                let o = run_search(&space, spec.eval(jobs), spec.driver(), seed, None)
                    .map_err(|e| e.to_string())?;
                let lines = render_lines(&space, &spec.eval(jobs), spec.driver(), seed, &o)
                    .map_err(|e| e.to_string())?;
                golden.extend([(
                    golden::explore_render_key(spec.program, spec.scale, seed),
                    golden::hex(fnv1a(lines.join("\n").as_bytes())),
                )]);
            }
        }
    }
    Ok(())
}
