//! End-to-end exploration tests: embedding round-trips, canonicality
//! rejection, search determinism across job counts, the dry run's plan,
//! cache-hit byte identity, recovery from a torn cache, the execution
//! path and its failure rules.

use cmpsim_explore::search::dry_run;
use cmpsim_explore::space::{CpuSel, NDIMS};
use cmpsim_explore::{
    render_lines, run_search, DesignSpace, Driver, EvalMode, EvalSpec, ExploreError,
};
use std::path::PathBuf;

/// A multi-dimensional space that exercises every canonicality rule:
/// four architectures (shared-L1, two banked L2s, shared-memory), both
/// CPU models, swept rob, l1-banks and l2-banks dimensions.
fn thorny_space() -> DesignSpace {
    let mut s = DesignSpace::paper();
    s.set_dim("arch", "shared-l1,shared-l2,mesh,shared-memory")
        .unwrap();
    s.set_dim("cpu", "mipsy,mxs").unwrap();
    s.set_dim("cpus", "2,4").unwrap();
    s.set_dim("l2-kb", "512,2048").unwrap();
    s.set_dim("l2-banks", "1,4").unwrap();
    s.set_dim("l1-banks", "2,4").unwrap();
    s.set_dim("rob", "16,64").unwrap();
    s.validate().unwrap();
    s
}

/// The memory-system sweep used for the search-driver tests: CPU side
/// fixed, so one capture serves every point.
fn mem_space() -> DesignSpace {
    let mut s = DesignSpace::paper();
    s.set_dim("arch", "shared-l2,shared-mem,mesh").unwrap();
    s.set_dim("l2-kb", "512,1024,2048,4096").unwrap();
    s.set_dim("l2-assoc", "1,2").unwrap();
    s.set_dim("l2-width", "64,128").unwrap();
    s.validate().unwrap();
    s
}

fn spec(jobs: usize, mode: EvalMode) -> EvalSpec {
    EvalSpec {
        workload: "eqntott".to_string(),
        scale: 0.02,
        budget: 2_000_000_000,
        mode,
        jobs,
    }
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cmpsim-explore-{tag}-{}.jrnl", std::process::id()))
}

#[test]
fn embedding_roundtrips_over_the_whole_space() {
    let s = thorny_space();
    let card = s.cardinality();
    assert_eq!(card, 4 * 2 * 2 * 2 * 2 * 2 * 2);
    let mut valid = 0u64;
    for code in 0..card {
        let digits = s.split(code).unwrap();
        assert_eq!(s.encode(&digits), code, "split/encode round-trip");
        if let Ok(p) = s.decode(code) {
            assert_eq!(p.code, code);
            assert_eq!(p.digits, digits);
            valid += 1;
        }
    }
    // Canonicality prunes aliases but must leave the canonical points.
    assert_eq!(valid, s.enumerate().len() as u64);
    assert!(valid > 0 && valid < card, "some codes alias, some survive");
}

#[test]
fn embedding_roundtrip_property_over_random_spaces() {
    cmpsim_engine::prop::check("explore-embedding-roundtrip", |src| {
        let mut s = DesignSpace::paper();
        // Random sub-sweeps drawn from valid level pools.
        let archs = [
            "shared-l1",
            "shared-l2",
            "shared-memory",
            "clustered",
            "mesh",
        ];
        let a0 = src.index(archs.len());
        let a1 = src.index(archs.len());
        let arch_dim = if a0 == a1 {
            archs[a0].to_string()
        } else {
            format!("{},{}", archs[a0], archs[a1])
        };
        s.set_dim("arch", &arch_dim).expect("valid arch levels");
        s.set_dim("cpus", ["2", "4", "8"][src.index(3)]).unwrap();
        if src.bool() {
            s.set_dim("l2-kb", ["512,1024", "2048", "1024,4096"][src.index(3)])
                .unwrap();
        }
        if src.bool() {
            s.set_dim("rob", ["16,64", "32", "8,128"][src.index(3)])
                .unwrap();
        }
        s.validate().expect("constructed from valid levels");
        let card = s.cardinality();
        let code = src.u64(0..card);
        let digits = s.split(code).expect("in-range code splits");
        assert_eq!(s.encode(&digits), code);
        if let Ok(p) = s.decode(code) {
            // A decoded point re-encodes to itself.
            assert_eq!(s.encode(&p.digits), code);
        }
    });
}

#[test]
fn invalid_embeddings_are_rejected_with_reasons() {
    let s = thorny_space();
    // Past the cardinality.
    match s.decode(s.cardinality()) {
        Err(ExploreError::InvalidEmbedding { code, .. }) => assert_eq!(code, s.cardinality()),
        other => panic!("expected InvalidEmbedding, got {other:?}"),
    }
    // Mipsy with a non-zero rob digit is an alias of the rob=first-level
    // point; find one and check the rejection.
    let mut digits = [0usize; NDIMS];
    assert_eq!(s.cpus[0], CpuSel::Mipsy);
    digits[9] = 1; // rob dimension
    let code = s.encode(&digits);
    match s.decode(code) {
        Err(ExploreError::InvalidEmbedding { why, .. }) => {
            assert!(why.contains("MXS"), "rob rule names the model: {why}")
        }
        other => panic!("expected rob canonicality rejection, got {other:?}"),
    }
    // l1-banks off its first level on a non-shared-L1 architecture.
    let mut digits = [0usize; NDIMS];
    digits[0] = 1; // shared-L2
    digits[7] = 1; // l1-banks dimension
    let code = s.encode(&digits);
    match s.decode(code) {
        Err(ExploreError::InvalidEmbedding { why, .. }) => {
            assert!(
                why.contains("shared-L1"),
                "l1-banks rule names the arch: {why}"
            )
        }
        other => panic!("expected l1-banks canonicality rejection, got {other:?}"),
    }
    // The same digit is canonical on the shared-L1 architecture itself.
    let mut digits = [0usize; NDIMS];
    digits[7] = 1;
    let p = s.decode(s.encode(&digits)).expect("canonical on shared-L1");
    assert_eq!(p.cfg.l1_banks, Some(4));
    // l2-banks off its first level on an unbanked L2: shared-L1's one
    // L2 and shared-memory's private ones. At its first level the
    // dimension leaves such an L2 at its one bank.
    for arch in [0, 3] {
        let mut digits = [0usize; NDIMS];
        digits[0] = arch;
        digits[6] = 1; // l2-banks dimension
        match s.decode(s.encode(&digits)) {
            Err(ExploreError::InvalidEmbedding { why, .. }) => assert!(
                why.contains("shared-L2, clustered and mesh"),
                "l2-banks rule names the banked architectures: {why}"
            ),
            other => panic!("expected l2-banks canonicality rejection, got {other:?}"),
        }
        digits[6] = 0;
        let p = s
            .decode(s.encode(&digits))
            .expect("first level is canonical");
        assert_eq!(p.cfg.l2_banks, None, "arch digit {arch}");
        assert_eq!(p.system_config().l2_banks, 1, "arch digit {arch}");
    }
    // The same digit is canonical on a banked L2.
    let mut digits = [0usize; NDIMS];
    digits[0] = 1; // shared-L2
    digits[6] = 1;
    let p = s.decode(s.encode(&digits)).expect("canonical on shared-L2");
    assert_eq!(p.cfg.l2_banks, Some(4));
}

#[test]
fn bad_spaces_are_typed_errors() {
    let mut s = DesignSpace::paper();
    assert!(matches!(
        s.set_dim("l3-kb", "1"),
        Err(ExploreError::UnknownDimension(_))
    ));
    assert!(matches!(
        s.set_dim("l2-kb", "12,not-a-number"),
        Err(ExploreError::BadLevel { dim: "l2-kb", .. })
    ));
    s.set_dim("l2-kb", "768").unwrap();
    assert!(
        matches!(
            s.validate(),
            Err(ExploreError::BadLevel { dim: "l2-kb", .. })
        ),
        "768 KB is not a power of two"
    );
    s.set_dim("l2-kb", "512").unwrap();
    s.archs.clear();
    assert!(matches!(
        s.validate(),
        Err(ExploreError::EmptyDimension("arch"))
    ));
}

#[test]
fn random_search_is_identical_across_job_counts() {
    let space = mem_space();
    let driver = Driver::Random { points: 16 };
    let mut outputs = Vec::new();
    for jobs in [1usize, 2, 4, 7] {
        let sp = spec(jobs, EvalMode::Replay);
        let outcome = run_search(&space, sp.clone(), driver, 7, None).expect("search runs");
        assert!(
            outcome.replay_points > 0,
            "memory sweep routes through replay"
        );
        assert_eq!(outcome.exec_runs, 1, "one capture for the fixed CPU side");
        outputs.push(render_lines(&space, &sp, driver, 7, &outcome).expect("renders"));
    }
    for o in &outputs[1..] {
        assert_eq!(&outputs[0], o, "byte-identical at any job count");
    }
}

#[test]
fn cache_hit_rerun_is_byte_identical_and_fully_cached() {
    let space = mem_space();
    let driver = Driver::Random { points: 12 };
    let path = tmp("cache-identity");
    let _ = std::fs::remove_file(&path);
    let sp = spec(4, EvalMode::Replay);
    let first = run_search(&space, sp.clone(), driver, 9, Some(&path)).expect("cold run");
    assert_eq!(first.cache_hits, 0);
    assert!(first.replay_points > 0);
    let second = run_search(&space, sp.clone(), driver, 9, Some(&path)).expect("warm run");
    assert_eq!(second.cache_hits, second.points.len(), "100% cached rerun");
    assert_eq!(second.exec_runs, 0, "no captures on a cached rerun");
    assert_eq!(second.replay_points, 0);
    assert_eq!(
        render_lines(&space, &sp, driver, 9, &first).unwrap(),
        render_lines(&space, &sp, driver, 9, &second).unwrap(),
        "cache hits reproduce the cold run byte for byte"
    );
    // A different eval contract (exec mode) must not reuse those rows.
    let plan = dry_run(&space, &spec(4, EvalMode::Exec), driver, 9, Some(&path)).unwrap();
    assert_eq!(plan.cache_hits, 0, "mode is part of the cache key");
    let _ = std::fs::remove_file(&path);
}

/// A search killed mid-append leaves its cache cut at some byte. Cut a
/// finished 12-point search's cache at nothing, at the end of the magic,
/// at a third, at a half and one byte short of the end: each rerun must
/// print the uninterrupted run's lines byte for byte, answering from the
/// cache exactly the rows that survived the cut.
#[test]
fn search_resumed_from_a_torn_cache_is_byte_identical() {
    let space = mem_space();
    let driver = Driver::Random { points: 12 };
    let sp = spec(2, EvalMode::Replay);
    let full = tmp("torn-full");
    let torn = tmp("torn-cut");
    let _ = std::fs::remove_file(&full);
    let clean = run_search(&space, sp.clone(), driver, 5, Some(&full)).expect("clean run");
    assert_eq!(clean.points.len(), 12);
    let want = render_lines(&space, &sp, driver, 5, &clean).unwrap();
    let bytes = std::fs::read(&full).expect("cache written");
    let len = bytes.len();
    for cut in [0, 8, len / 3, len / 2, len - 1] {
        std::fs::write(&torn, &bytes[..cut]).expect("cut cache");
        let resumed = run_search(&space, sp.clone(), driver, 5, Some(&torn))
            .unwrap_or_else(|e| panic!("cut at {cut} of {len}: {e}"));
        assert_eq!(
            render_lines(&space, &sp, driver, 5, &resumed).unwrap(),
            want,
            "cut at {cut} of {len}"
        );
        assert_eq!(resumed.cache_hits, resumed.cache_recovered, "cut at {cut}");
        assert!(resumed.cache_recovered < 12, "cut at {cut} lost no row");
    }
    let _ = std::fs::remove_file(&full);
    let _ = std::fs::remove_file(&torn);
}

#[test]
fn dry_run_plans_without_touching_disk() {
    let space = mem_space();
    let driver = Driver::Random { points: 10 };
    let path = tmp("dry-run");
    let _ = std::fs::remove_file(&path);
    let sp = spec(1, EvalMode::Replay);
    let plan = dry_run(&space, &sp, driver, 3, Some(&path)).expect("plans");
    assert!(!path.exists(), "a dry run must not create the cache file");
    assert_eq!(plan.planned, 10);
    assert_eq!(plan.replay_points, 10);
    assert_eq!(plan.exec_captures, 1, "one capture for the shared CPU side");
    assert_eq!(plan.cache_hits, 0);
    // Populate the cache, then the plan collapses to pure hits.
    let outcome = run_search(&space, sp.clone(), driver, 3, Some(&path)).expect("runs");
    assert_eq!(outcome.points.len(), 10);
    let warm = dry_run(&space, &sp, driver, 3, Some(&path)).expect("plans again");
    assert_eq!(warm.cache_hits, 10);
    assert_eq!(warm.exec_captures, 0);
    assert_eq!(warm.replay_points, 0);
    let _ = std::fs::remove_file(&path);
}

/// The dry run plans exactly what the search then does: the same
/// points, captures and replays, and over a warm cache one hit a point.
#[test]
fn dry_run_plans_what_the_search_does() {
    let space = mem_space();
    let sp = spec(2, EvalMode::Replay);
    for driver in [Driver::Exhaustive, Driver::Random { points: 20 }] {
        let path = tmp(&format!("plan-{}", driver.tag()));
        let _ = std::fs::remove_file(&path);
        let plan = dry_run(&space, &sp, driver, 11, Some(&path)).expect("plans");
        let outcome = run_search(&space, sp.clone(), driver, 11, Some(&path)).expect("searches");
        assert_eq!(outcome.quarantined, 0, "{driver:?}");
        assert_eq!(plan.planned, outcome.points.len(), "{driver:?}");
        assert_eq!(plan.exec_captures, outcome.exec_runs, "{driver:?}");
        assert_eq!(plan.replay_points, outcome.replay_points, "{driver:?}");
        let warm = dry_run(&space, &sp, driver, 11, Some(&path)).expect("plans again");
        assert_eq!(warm.cache_hits, outcome.points.len(), "{driver:?}");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn exec_mode_runs_the_full_machine() {
    let mut space = DesignSpace::paper();
    space.set_dim("arch", "shared-l2,shared-mem").unwrap();
    space.set_dim("cpus", "2").unwrap();
    let sp = spec(2, EvalMode::Exec);
    let outcome = run_search(&space, sp.clone(), Driver::Exhaustive, 1, None).expect("exec search");
    assert_eq!(outcome.points.len(), 2);
    assert_eq!(outcome.exec_runs, 2);
    assert_eq!(outcome.replay_points, 0);
    for (_, m) in &outcome.points {
        assert!(m.ipc > 0.0, "full runs report real IPC");
        assert!(m.wall_cycles > 0);
        assert!(m.area_kb > 0.0);
    }
    let lines = render_lines(&space, &sp, Driver::Exhaustive, 1, &outcome).unwrap();
    assert!(lines[1].contains("\"path\":\"exec\""));
}

/// A workload that cannot be built stops the search in both modes.
#[test]
fn an_unbuildable_workload_stops_the_search() {
    let mut space = DesignSpace::paper();
    space.set_dim("arch", "shared-l2").unwrap();
    space.set_dim("cpus", "2").unwrap();
    for mode in [EvalMode::Replay, EvalMode::Exec] {
        let sp = EvalSpec {
            workload: "nope".to_string(),
            ..spec(2, mode)
        };
        match run_search(&space, sp, Driver::Exhaustive, 1, None) {
            Err(ExploreError::Workload(e)) => assert!(e.contains("`nope`"), "{mode:?}: {e}"),
            other => panic!("{mode:?}: expected a workload error, got {other:?}"),
        }
    }
}

/// An execution-mode point whose run fails is dropped with its error
/// text, and the search goes on.
#[test]
fn exec_points_that_fail_are_dropped_with_their_error() {
    let mut space = DesignSpace::paper();
    space.set_dim("arch", "shared-l2,shared-mem").unwrap();
    space.set_dim("cpus", "2").unwrap();
    let sp = EvalSpec {
        budget: 1_000,
        ..spec(2, EvalMode::Exec)
    };
    let outcome = run_search(&space, sp, Driver::Exhaustive, 1, None).expect("search runs");
    assert!(outcome.points.is_empty());
    assert_eq!(outcome.exec_runs, 0);
    assert_eq!(outcome.quarantined, 2);
    let codes: Vec<u64> = outcome.dropped.iter().map(|(c, _)| *c).collect();
    assert_eq!(codes, space.enumerate(), "evaluation order");
    for (code, e) in &outcome.dropped {
        assert!(e.contains("1000-cycle budget"), "point {code}: {e}");
    }
}

#[test]
fn replay_and_exec_agree_on_miss_rates() {
    // The replay path re-issues the captured stream into a freshly
    // built hierarchy of the same architecture the capture ran on, so
    // its L1D miss rate should closely track the execution run's.
    let mut space = DesignSpace::paper();
    space.set_dim("arch", "shared-mem").unwrap();
    let replayed = run_search(
        &space,
        spec(2, EvalMode::Replay),
        Driver::Exhaustive,
        1,
        None,
    )
    .expect("replay search");
    let executed = run_search(&space, spec(2, EvalMode::Exec), Driver::Exhaustive, 1, None)
        .expect("exec search");
    let (r, e) = (&replayed.points[0].1, &executed.points[0].1);
    assert!(
        (r.l1d_miss_pct - e.l1d_miss_pct).abs() < 1.0,
        "replay {} vs exec {} L1D miss%",
        r.l1d_miss_pct,
        e.l1d_miss_pct
    );
}

/// A trace record names at most 64 CPUs, so in replay mode a point above
/// that runs execution-driven: the plan counts it as an exec run, and the
/// search completes with its row marked `exec`. mp3d is the cheapest
/// workload at 128 CPUs.
#[test]
fn replay_mode_runs_points_above_64_cpus_execution_driven() {
    let mut space = DesignSpace::paper();
    space.set_dim("arch", "shared-l2").unwrap();
    space.set_dim("cpus", "4,128").unwrap();
    let sp = EvalSpec {
        workload: "mp3d".to_string(),
        scale: 0.005,
        ..spec(1, EvalMode::Replay)
    };
    let plan = dry_run(&space, &sp, Driver::Exhaustive, 1, None).expect("plans");
    assert_eq!(plan.planned, 2);
    assert_eq!(plan.exec_captures, 2, "one 4-CPU capture, one 128-CPU run");
    assert_eq!(plan.replay_points, 1);
    let outcome = run_search(&space, sp.clone(), Driver::Exhaustive, 1, None).expect("searches");
    assert_eq!(outcome.points.len(), 2);
    assert_eq!(outcome.exec_runs, 2);
    assert_eq!(outcome.replay_points, 1);
    let lines = render_lines(&space, &sp, Driver::Exhaustive, 1, &outcome).unwrap();
    // Lines 1 and 2 are the points in code order.
    for (line, cpus, path) in [(&lines[1], 4, "replay"), (&lines[2], 128, "exec")] {
        assert!(line.contains(&format!("\"cpus\":{cpus},")), "{line}");
        assert!(line.contains(&format!("\"path\":\"{path}\"")), "{line}");
    }
}

/// The area proxy: more capacity, more banks, a wider L2 path or mesh
/// routers all cost area, and the paper's shared-L2 machine comes to its
/// hand-computed figure.
#[test]
fn area_proxy_tracks_capacity_banks_and_routers() {
    let area = |dims: &[(&str, &str)]| {
        let mut s = DesignSpace::paper();
        for (dim, level) in dims {
            s.set_dim(dim, level).unwrap();
        }
        s.decode(0).expect("one valid point").area_kb()
    };
    // Paper shared-L2 at a 64-bit path (l2_occ = 4): 4 x 32 KB of L1
    // plus one 4-banked 2 MB L2, no wide-path surcharge.
    let base = area(&[]);
    let expect = 4.0 * 32.0 + 2048.0 * (1.0 + 0.08 * 3.0);
    assert!((base - expect).abs() < 1e-9, "{base} vs {expect}");
    assert!(area(&[("l2-kb", "4096")]) > base);
    assert!(area(&[("l2-banks", "8")]) > base);
    assert!(area(&[("l2-width", "128")]) > base);
    // The mesh has the shared-L2 geometry plus one 2 KB router per tile.
    assert!((area(&[("arch", "mesh")]) - base - 8.0).abs() < 1e-9);
}
