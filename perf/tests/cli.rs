//! The binary end to end at `--quick` scale: every workload passes its
//! output checks and emits exactly the declared metrics; a corrupted
//! golden digest fails the run; ambient knobs are refused.

use cmpsim_perf::golden::EMBEDDED;
use cmpsim_perf::json::Json;
use cmpsim_perf::metrics;
use std::process::{Command, Output};

/// Runs the binary with any ambient `CMPSIM_*` knobs removed.
fn perf(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cmpsim-perf"));
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("CMPSIM_")) {
        cmd.env_remove(k);
    }
    cmd.args(args).output().expect("runs cmpsim-perf")
}

fn stdout(o: &Output) -> String {
    String::from_utf8(o.stdout.clone()).expect("UTF-8 output")
}

/// The per-workload result lines of an all-workloads run, in order.
fn results(text: &str) -> Vec<Json> {
    text.lines()
        .filter(|l| l.starts_with("{\"correct\"") && l.contains("\"metrics\""))
        .map(|l| Json::parse(l).expect("result lines are JSON"))
        .collect()
}

fn metric_names(result: &Json) -> Vec<&str> {
    result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn quick_runs_pass_every_check_and_emit_the_declared_metrics() {
    for (trace, declared) in [
        (
            "0",
            metrics::END_TO_END
                .iter()
                .map(|m| m.name)
                .collect::<Vec<_>>(),
        ),
        ("1", metrics::per_layer().map(|m| m.name).collect()),
    ] {
        let o = perf(&["--quick", "--seed", "2", "--trace", trace]);
        let text = stdout(&o);
        assert!(o.status.success(), "trace {trace}:\n{text}");
        let per_workload = results(&text);
        assert_eq!(per_workload.len(), 5, "{text}");
        for r in &per_workload {
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{r}");
            assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0), "{r}");
            assert!(r.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(metric_names(r), declared, "trace {trace}");
            for name in &declared {
                assert!(metric(r, name).is_finite(), "{name}");
            }
        }
        let last = Json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        if trace == "1" {
            let explore = &per_workload[4];
            assert_eq!(metric(explore, "explore.exec_runs"), 3.0);
            assert_eq!(metric(explore, "explore.points"), 420.0);
            let share = metric(&per_workload[2], "cpu.est_share");
            assert!(share > 0.0 && share < 1.0, "{share}");
        }
    }
}

#[test]
fn a_corrupted_golden_digest_fails_the_run() {
    let key = "exec|eqntott|shared-L2|mipsy|4|0.05 ";
    let line = EMBEDDED
        .lines()
        .find(|l| l.starts_with(key))
        .expect("the quick eqntott case is pinned");
    let digest = &line[key.len()..];
    let flipped: String = digest
        .chars()
        .map(|c| if c == '0' { '1' } else { '0' })
        .collect();
    let corrupted = EMBEDDED.replace(line, &format!("{key}{flipped}"));
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("corrupted-golden.txt");
    std::fs::write(&path, corrupted).unwrap();

    let o = perf(&[
        "--quick",
        "--workload",
        "mipsy-read",
        "--golden",
        path.to_str().unwrap(),
    ]);
    let text = stdout(&o);
    assert_eq!(o.status.code(), Some(1), "{text}");
    let last = Json::parse(text.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("correct"), Some(&Json::Bool(false)));
    assert!(last.get("failed").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(text.contains("differs from golden"), "{text}");
}

#[test]
fn ambient_simulator_knobs_are_refused() {
    let o = Command::new(env!("CARGO_BIN_EXE_cmpsim-perf"))
        .args(["--quick", "--workload", "mipsy-read"])
        .env("CMPSIM_SHARDS", "2")
        .output()
        .unwrap();
    assert_eq!(o.status.code(), Some(2));
    assert!(o.stdout.is_empty());
    assert!(String::from_utf8_lossy(&o.stderr).contains("CMPSIM_SHARDS"));
}
