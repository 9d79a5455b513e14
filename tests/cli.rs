//! The `cmpsim` binary end to end.
//!
//! * `replay` refuses a replay system with fewer CPUs than the trace
//!   carries, and `--cpus 0`; `run` refuses a scale that is not finite
//!   and positive or too large for the workload, a multiprog machine
//!   too large for its address spaces, and a cache geometry, bank count,
//!   L1 latency or mesh grid the memory system cannot build; `synth` refuses
//!   parameters its layout or counters cannot hold; `explore` refuses a
//!   workload it cannot build. Each exits 1 with an `error:` line instead
//!   of a panic or a hang, and an `explore --exec` point whose run fails
//!   is dropped with one line naming its error.
//! * A torn capture salvages to a clean prefix, a mesh capture replays
//!   identically into two configurations at any job count, and an
//!   explore search prints the same lines at any job count and from a
//!   full cache.
//! * `--arch` and `--dim arch=` take the same names.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn cmpsim(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmpsim"))
        .args(args.split_whitespace())
        .output()
        .expect("cmpsim starts")
}

/// Runs `cmpsim`, killing it and failing the test if it is still running
/// after `secs` seconds.
fn cmpsim_within(args: &str, secs: u64) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cmpsim"))
        .args(args.split_whitespace())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cmpsim starts");
    let deadline = Instant::now() + Duration::from_secs(secs);
    while child.try_wait().expect("cmpsim waits").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("cmpsim {args}: still running after {secs} s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("cmpsim output")
}

/// Runs `cmpsim`, asserts it succeeded and returns its stdout.
fn cmpsim_ok(args: &str) -> String {
    let out = cmpsim(args);
    assert!(out.status.success(), "cmpsim {args}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A fresh, empty directory for one test's files.
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmpsim-cli-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn replay_needs_a_cpu_for_every_cpu_in_the_trace() {
    let dir = temp_dir("cpus");
    let trace = dir.join("fft16.trace");
    let trace = trace.to_str().expect("utf-8 path");
    cmpsim_ok(&format!(
        "run --arch mesh --workload fft --cpus 16 --scale 0.02 --trace-out {trace}"
    ));

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

    let stdout = cmpsim_ok(&format!("replay --file {trace} --arch shared-l2 --cpus 16"));
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
        (
            "-w ocean --scale 1e30",
            "the sweep counter holds at most 4294967295",
        ),
        // ear panicked on its mask; fft ran and failed its own check
        // (512 CPUs only after a minute of simulation).
        (
            "-w ear -s 0.02 --cpus 3",
            "power-of-two count of CPUs, not 3",
        ),
        (
            "-w fft -s 0.02 --cpus 3",
            "power-of-two count of CPUs up to 256, not 3",
        ),
        (
            "-w fft -s 0.02 --cpus 512",
            "power-of-two count of CPUs up to 256, not 512",
        ),
        // Each of these machine flags used to panic in a system builder,
        // or wrap `l1_lat - 1` in the hit path.
        (
            "-w eqntott -s 0.02 --l2-assoc 0",
            "associativity must be at least 1",
        ),
        (
            "-w eqntott -s 0.02 --l2-assoc 1000000",
            "cache smaller than assoc * line",
        ),
        // Ran before the LRU ranks moved into the tag word's 3 free bits.
        (
            "-w eqntott -s 0.02 --l2-assoc 16",
            "cache associativity must be 1..=8 (got 16)",
        ),
        (
            "-w eqntott -s 0.02 -a shared-l1 --l1-banks 0",
            "L1 bank count must be at least 1",
        ),
        (
            "-w eqntott -s 0.02 -a shared-l2 --l1-latency 0",
            "L1 hit latency must be at least 1",
        ),
        // rows x cols overflows to 2.
        (
            "-w eqntott -s 0.02 -a mesh -n 2 --mesh-rows 9223372036854775809 --mesh-cols 2",
            "mesh tiles must cover the CPUs exactly",
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

/// `synth` checks its parameters before simulating: a percentage is not
/// truncated to a byte, a working set may not overlap the next CPU's
/// private region, and a zero grain or round count does not wrap the
/// loop counter into a four-billion-iteration run.
#[test]
fn synth_refuses_parameters_it_cannot_hold() {
    for (args, want) in [
        ("--stores 300", "bad stores"),
        ("--ws 512", "working set 512 KB exceeds its 256 KB limit"),
        ("--grain 0", "at least 1 round of at least 1 access"),
        ("--rounds 0", "at least 1 round of at least 1 access"),
    ] {
        let out = cmpsim_within(&format!("synth {args}"), 5);
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

/// An L2 associativity level the cache cannot hold is refused before
/// the search starts, at either end of the 1..=8 range.
#[test]
fn explore_refuses_an_l2_associativity_outside_one_to_eight_ways() {
    for (level, why) in [
        ("0", "associativity must be at least 1"),
        ("16", "associativity must be at most 8 ways"),
    ] {
        let out = cmpsim(&format!(
            "explore -w eqntott --scale 0.02 --dim arch=shared-l2 --dim cpus=2 \
             --dim l2-assoc=1,{level}"
        ));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{level}: {stderr}");
        let want = format!("error: dimension 'l2-assoc': bad level '{level}': {why}");
        assert!(stderr.starts_with(&want), "{level}: {stderr}");
    }
}

/// A `rob` level equal to the default window names the same machine as
/// a search without the dimension, so the second search finds the first
/// one's result in the cache instead of running the point again.
#[test]
fn explore_caches_the_default_mxs_window_under_one_key() {
    let dir = temp_dir("rob");
    let search = |rob: &str| {
        let out = cmpsim(&format!(
            "explore --workload eqntott --scale 0.02 --exec --dim arch=shared-l2 \
             --dim cpu=mxs --dim cpus=2 {rob} --cache {}",
            dir.join("rob.jrnl").display()
        ));
        assert!(out.status.success(), "{out:?}");
        let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8");
        (text(out.stdout), text(out.stderr))
    };
    let (first, summary) = search("");
    assert!(summary.contains("0 cached"), "{summary}");
    let (second, summary) = search("--dim rob=32");
    assert_eq!(first, second, "the default window printed another point");
    assert!(summary.contains("1 cached"), "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
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

/// A capture torn at 60, 85 and 99% of its length: strict replay refuses
/// it, and its `--salvage` replay reports exactly what `--salvage --head
/// N` reports on the intact file, N being the salvaged record count.
#[test]
fn a_torn_capture_salvages_to_the_intact_files_prefix() {
    let dir = temp_dir("salvage");
    let (intact, torn) = (dir.join("eqntott.trace"), dir.join("torn.trace"));
    let (intact, torn) = (
        intact.to_str().expect("utf-8 path"),
        torn.to_str().expect("utf-8 path"),
    );
    cmpsim_ok(&format!(
        "run --workload eqntott --scale 0.05 --trace-out {intact}"
    ));
    let bytes = std::fs::read(intact).expect("capture written");
    // Only the trace path and the salvage report may differ.
    let results = |report: &str| -> Vec<String> {
        report
            .lines()
            .filter(|l| !l.starts_with("trace") && !l.starts_with("salvaged"))
            .map(str::to_string)
            .collect()
    };
    for pct in [60, 85, 99] {
        std::fs::write(torn, &bytes[..bytes.len() * pct / 100]).expect("torn copy");
        let strict = cmpsim(&format!("replay --file {torn}"));
        assert!(!strict.status.success(), "strict replay accepted {pct}%");
        let salvaged = cmpsim_ok(&format!("replay --salvage --file {torn}"));
        // `salvaged     : 5 chunks (20480 records), ...`
        let records: usize = salvaged
            .lines()
            .find(|l| l.starts_with("salvaged"))
            .and_then(|l| l.split('(').nth(1))
            .and_then(|l| l.split(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("{pct}%: no record count in {salvaged}"));
        assert!(records > 0, "{pct}%: {salvaged}");
        let prefix = cmpsim_ok(&format!(
            "replay --salvage --head {records} --file {intact}"
        ));
        assert_eq!(results(&salvaged), results(&prefix), "torn at {pct}%");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 16-CPU mesh capture replays into a mesh and a shared-L2 system, with
/// the mesh-link port row intact, and the report is byte-identical on one
/// and on four replay jobs.
#[test]
fn a_mesh_capture_replays_identically_into_two_configurations() {
    let dir = temp_dir("mesh");
    let trace = dir.join("mesh.trace");
    let trace = trace.to_str().expect("utf-8 path");
    cmpsim_ok(&format!(
        "run --arch mesh --workload fft --cpus 16 --scale 0.05 --trace-out {trace}"
    ));
    let replay = |jobs| {
        cmpsim_ok(&format!(
            "replay --file {trace} --arch mesh --arch shared-l2 --cpus 16 --jobs {jobs}"
        ))
    };
    let one = replay(1);
    assert!(
        one.lines().any(|l| l.starts_with("port mesh-link")),
        "{one}"
    );
    assert_eq!(
        one.lines().filter(|l| l.starts_with("system")).count(),
        2,
        "{one}"
    );
    assert_eq!(one, replay(4));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A seeded 64-point memory sweep prints the same lines on one and on
/// four jobs, answers some points by trace replay, and prints them again
/// from a rerun that the cache answers in full.
#[test]
fn explore_prints_the_same_lines_at_any_job_count_and_from_its_cache() {
    let dir = temp_dir("explore");
    let search = |jobs, cache: &str| {
        let out = cmpsim(&format!(
            "explore --workload eqntott --scale 0.02 --seed 7 --points 64 \
             --dim arch=shared-l2,shared-mem,mesh --dim cpus=2,4 \
             --dim l2-kb=512,1024,2048,4096 --dim l2-assoc=1,2 --dim l2-width=64,128 \
             --jobs {jobs} --cache {}",
            dir.join(cache).display()
        ));
        assert!(out.status.success(), "{out:?}");
        let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8");
        (text(out.stdout), text(out.stderr))
    };
    let (one, summary) = search(1, "a.jrnl");
    let (four, _) = search(4, "b.jrnl");
    assert_eq!(one, four, "--jobs 1 and --jobs 4 differ");
    // `explore: ... (2 exec runs, 64 replayed, 0 cached), frontier 3`
    let replayed: usize = summary
        .split(" replayed")
        .next()
        .and_then(|s| s.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no replayed count in {summary}"));
    assert!(replayed > 0, "{summary}");
    let (cached, summary) = search(4, "b.jrnl");
    assert_eq!(four, cached, "the cached rerun differs");
    assert!(
        summary.contains("0 exec runs, 0 replayed, 64 cached"),
        "{summary}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run -a` and `explore --dim arch=` parse architectures the same way:
/// the name `run` prints, in any case, and the short aliases.
#[test]
fn run_and_explore_take_the_same_architecture_names() {
    let out = cmpsim_ok("run -w eqntott -a shared-L1 --scale 0.02");
    assert!(out.contains("shared-L1"), "{out}");
    let out = cmpsim_ok("explore -w eqntott --scale 0.02 --dim arch=mem --dim cpus=2");
    assert!(out.contains("\"arch\":\"shared-memory\""), "{out}");
}
