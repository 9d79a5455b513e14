//! The `cmpsim` binary end to end: `replay` refuses a replay system with
//! fewer CPUs than the trace carries, and `--cpus 0`, `run` refuses a
//! scale that is not finite and positive and a multiprog machine too
//! large for its address spaces, and `explore` refuses a workload it
//! cannot build, each with an `error:` line and exit status 1 instead of
//! a panic or a hang. An `explore --exec` point whose run fails is
//! dropped with one line naming its error.

use std::process::{Command, Output};

fn cmpsim(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmpsim"))
        .args(args.split_whitespace())
        .output()
        .expect("cmpsim starts")
}

#[test]
fn replay_needs_a_cpu_for_every_cpu_in_the_trace() {
    let dir = std::env::temp_dir().join(format!("cmpsim-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("fft16.trace");
    let trace = trace.to_str().expect("utf-8 path");
    let out = cmpsim(&format!(
        "run --arch mesh --workload fft --cpus 16 --scale 0.02 --trace-out {trace}"
    ));
    assert!(out.status.success(), "{out:?}");

    for (flags, want) in [
        // The default of 4 CPUs is below the trace's 16.
        ("--arch shared-l2", "carries 16 CPUs, more than --cpus 4"),
        ("--cpus 8 --salvage", "carries 16 CPUs, more than --cpus 8"),
        ("--cpus 0", "--cpus must be at least 1"),
    ] {
        let out = cmpsim(&format!("replay --file {trace} {flags}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(want),
            "{stderr}"
        );
    }

    let out = cmpsim(&format!("replay --file {trace} --arch shared-l2 --cpus 16"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout.contains("shared-L2 (16 CPUs)"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_rejects_workload_parameters_it_cannot_build() {
    for (args, want) in [
        // An infinite scale used to saturate the problem size and never
        // finish; the others silently ran the minimum size.
        ("-w eqntott --scale inf", "scale inf is not"),
        ("-w eqntott --scale 0", "scale 0 is not"),
        ("-w eqntott --scale -1", "scale -1 is not"),
        ("-w eqntott --scale NaN", "scale NaN is not"),
        (
            "-w multiprog --cpus 95 --scale 0.01",
            "asid 189 private region overlaps kernel space",
        ),
    ] {
        let out = cmpsim(&format!("run {args}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(want),
            "{args}: {stderr}"
        );
    }
}

#[test]
fn explore_stops_on_a_workload_it_cannot_build() {
    for mode in ["", "--exec"] {
        let out = cmpsim(&format!(
            "explore -w nope --dim arch=shared-l2 --dim cpus=2 {mode}"
        ));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{mode}: {stderr}");
        assert!(
            stderr.starts_with("error: workload failed to build: unknown workload `nope`"),
            "{mode}: {stderr}"
        );
    }
}

#[test]
fn explore_exec_prints_one_line_per_dropped_point() {
    let out = cmpsim(
        "explore -w eqntott --scale 0.02 --dim arch=shared-l2 --dim cpus=2 --exec --budget 1000",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let dropped: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("explore: dropped point"))
        .collect();
    assert_eq!(dropped.len(), 1, "{stderr}");
    assert!(
        dropped[0].starts_with("explore: dropped point 0: run exceeded the 1000-cycle budget"),
        "{stderr}"
    );
}
