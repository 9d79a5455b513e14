//! The `cmpsim-perf` command line.

use cmpsim_perf::compare;
use cmpsim_perf::golden::{Golden, EMBEDDED};
use cmpsim_perf::heap::CountingAlloc;
use cmpsim_perf::host;
use cmpsim_perf::json::Json;
use cmpsim_perf::span;
use cmpsim_perf::workload::{self, Options, Report, WORKLOADS};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage:
  cmpsim-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
              [--golden FILE] [--out FILE.jsonl] [--spans FILE.jsonl]
  cmpsim-perf compare A.jsonl... -- B.jsonl...
  cmpsim-perf --bless FILE

Without --workload, runs every workload, each in its own child process.
The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics untraced,
per-layer metrics with --trace 1).
workloads: mipsy-read, mipsy-write, mxs-paper, mesh64, explore-replay
";

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Default measuring time per run, in seconds (`run_seconds` in
/// BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 12.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    golden: Option<String>,
    out: Option<String>,
    spans: Option<String>,
    bless: Option<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        golden: None,
        out: None,
        spans: None,
        bless: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(val()?),
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds wants a non-negative number")?;
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
                }
            }
            "--quick" => a.quick = true,
            "--golden" => a.golden = Some(val()?),
            "--out" => a.out = Some(val()?),
            "--spans" => a.spans = Some(val()?),
            "--bless" => a.bless = Some(val()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let knobs = host::ambient_knobs(std::env::vars());
    if !knobs.is_empty() {
        eprintln!(
            "cmpsim-perf: refusing to start: {} set; these knobs change what is measured. Unset them.",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    if argv.first().map(String::as_str) == Some("compare") {
        return cmd_compare(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cmpsim-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some(path) = &args.bless {
        cmd_bless(path)
    } else {
        let golden = match &args.golden {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| format!("{path}: {e}"))
                .and_then(|t| Golden::parse(&t)),
            None => Golden::parse(EMBEDDED),
        };
        golden.and_then(|g| match &args.workload {
            Some(w) => run_one(&args, w, &g),
            None => run_all(&argv),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cmpsim-perf: {e}");
            ExitCode::from(2)
        }
    }
}

fn append_lines(path: &str, lines: &[String]) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    let mut text = lines.join("\n");
    text.push('\n');
    f.write_all(text.as_bytes())
        .and_then(|()| f.flush())
        .map_err(|e| format!("{path}: {e}"))
}

/// The JSON-lines record of one run (`--out`, read by `compare`).
fn record(name: &str, args: &Args, report: &Report) -> Json {
    let metrics = report.metrics.iter().map(|(m, s)| {
        (
            m.name,
            Json::obj([
                ("value", Json::from(s.median)),
                ("unit", m.unit.into()),
                ("n", (s.n as u64).into()),
                ("q1", s.q1.into()),
                ("q3", s.q3.into()),
            ]),
        )
    });
    Json::obj([
        ("kind", Json::from("run")),
        ("workload", name.into()),
        ("seed", args.seed.into()),
        ("trace", u64::from(args.trace).into()),
        ("quick", args.quick.into()),
        ("correct", report.errors.is_empty().into()),
        ("attempted", report.attempted.into()),
        ("failed", (report.errors.len() as u64).into()),
        ("metrics", Json::obj(metrics)),
        (
            "counts",
            Json::obj(report.counts.iter().map(|(n, v)| (*n, Json::from(*v)))),
        ),
        (
            "errors",
            Json::Arr(
                report
                    .errors
                    .iter()
                    .take(20)
                    .map(|e| e.as_str().into())
                    .collect(),
            ),
        ),
    ])
}

/// Runs one workload in this process and prints its result.
fn run_one(args: &Args, name: &str, golden: &Golden) -> Result<bool, String> {
    let plan = workload::plan(name, args.quick).ok_or(format!("unknown workload `{name}`"))?;
    let manifest = Json::obj([
        ("kind", Json::from("manifest")),
        ("rev", host::git_rev().into()),
        ("host_cpus", (host::host_cpus() as u64).into()),
        ("seed", args.seed.into()),
        ("utc", host::utc_now().into()),
        ("workload", name.into()),
        ("trace", u64::from(args.trace).into()),
        ("quick", args.quick.into()),
        ("seconds", args.seconds.into()),
    ]);
    println!("{manifest}");
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        jobs: host::host_cpus(),
    };
    let report = workload::run(&plan, &opts, golden);
    for note in &report.notes {
        println!("{name}: {note}");
    }
    for e in report.errors.iter().take(20) {
        println!("{name}: FAILED {e}");
    }
    for (m, s) in &report.metrics {
        println!(
            "{name} {} = {:.6} {}  (n={}, q1={:.6}, q3={:.6})",
            m.name, s.median, m.unit, s.n, s.q1, s.q3
        );
    }
    if let Some(path) = &args.out {
        append_lines(
            path,
            &[
                manifest.to_string(),
                record(name, args, &report).to_string(),
            ],
        )?;
    }
    if let Some(path) = &args.spans {
        std::fs::write(path, span::to_json_lines(&report.spans).join("\n") + "\n")
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let failed = report.errors.len() as u64;
    let metrics = report.values().into_iter().map(|(m, v)| {
        (
            m.name,
            Json::obj([("value", Json::from(v)), ("unit", m.unit.into())]),
        )
    });
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(failed == 0)),
            ("attempted", report.attempted.into()),
            ("failed", failed.into()),
            ("metrics", Json::obj(metrics)),
        ])
    );
    Ok(failed == 0)
}

/// Runs every workload, each in its own child process (so each has its
/// own peak RSS), echoing their output.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let (mut attempted, mut failed, mut ok) = (0.0, 0.0, true);
    for w in WORKLOADS {
        let mut child = Command::new(&exe)
            .args(argv)
            .args(["--workload", w])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {w}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut last = String::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("reading {w}: {e}"))?;
            println!("{line}");
            last = line;
        }
        let status = child.wait().map_err(|e| format!("waiting for {w}: {e}"))?;
        let result = Json::parse(&last).ok();
        let field = |k| {
            result
                .as_ref()
                .and_then(|r| r.get(k))
                .and_then(Json::as_f64)
        };
        attempted += field("attempted").unwrap_or(0.0);
        failed += field("failed").unwrap_or(1.0);
        ok &= status.success();
    }
    ok &= failed == 0.0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(ok)),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
        ])
    );
    Ok(ok)
}

fn cmd_compare(argv: &[String]) -> ExitCode {
    let Some(split) = argv.iter().position(|a| a == "--") else {
        eprintln!("cmpsim-perf compare: separate the two sides with `--`\n{USAGE}");
        return ExitCode::from(2);
    };
    let (a, b) = (&argv[..split], &argv[split + 1..]);
    if a.is_empty() || b.is_empty() {
        eprintln!("cmpsim-perf compare: each side needs at least one file\n{USAGE}");
        return ExitCode::from(2);
    }
    match (compare::load(a), compare::load(b)) {
        (Ok(a), Ok(b)) => {
            let (report, clean) = compare::compare(&a, &b);
            print!("{report}");
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cmpsim-perf compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Re-pins every golden digest into `path`, keeping pins it does not
/// recompute.
fn cmd_bless(path: &str) -> Result<bool, String> {
    let mut golden = match std::fs::read_to_string(path) {
        Ok(text) => Golden::parse(&text)?,
        Err(_) => Golden::default(),
    };
    workload::bless(&mut golden, host::host_cpus())?;
    std::fs::write(path, golden.render()).map_err(|e| format!("{path}: {e}"))?;
    println!("blessed {path}");
    Ok(true)
}
