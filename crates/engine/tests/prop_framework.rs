//! The property-testing framework tested as a subject itself: shrinking
//! must converge to a minimal counterexample, generation must be a pure
//! function of the seed, and the env-var overrides must be honored.

use cmpsim_engine::prop::{self, Config, Source};
use std::cell::RefCell;

fn quick(cases: u32) -> Config {
    Config {
        cases,
        ..Config::default()
    }
}

/// A failing property whose unique minimal counterexample is the vector
/// `[500]`: "no element is ever >= 500". Block deletion must strip every
/// innocent element and value minimization must walk the survivor down to
/// the boundary.
#[test]
fn shrinking_converges_to_minimal_counterexample() {
    let gen = |src: &mut Source| src.vec(0..100, |s| s.u64(0..1000));
    let failure = prop::check_result(&quick(200), "no_big_elements", |src| {
        let v = gen(src);
        assert!(v.iter().all(|&x| x < 500), "big element in {v:?}");
    })
    .expect_err("property must fail");

    let minimal = gen(&mut Source::replay(failure.choices.clone()));
    assert_eq!(
        minimal,
        vec![500],
        "expected the boundary singleton, got {minimal:?} (choices {:?})",
        failure.choices
    );
    // The reported message is the one produced by the *minimized* case.
    assert!(failure.message.contains("[500]"), "{}", failure.message);
}

/// Shrinking a scalar converges to the exact boundary value.
#[test]
fn shrinking_minimizes_scalars_to_the_boundary() {
    let failure = prop::check_result(&quick(200), "small_sum", |src| {
        let a = src.u64(0..10_000);
        let b = src.u64(0..10_000);
        assert!(a + b < 1000);
    })
    .expect_err("property must fail");

    let mut src = Source::replay(failure.choices.clone());
    let (a, b) = (src.u64(0..10_000), src.u64(0..10_000));
    assert_eq!(a + b, 1000, "minimal failing sum, got {a} + {b}");
}

/// Same seed, same config → the exact same sequence of generated cases.
#[test]
fn same_seed_generates_same_cases() {
    let collect = |seed: u64| {
        let log = RefCell::new(Vec::new());
        let cfg = Config {
            cases: 40,
            seed,
            ..Config::default()
        };
        prop::check_with(&cfg, "collector", |src| {
            let v = src.vec(1..10, |s| s.i16_any());
            let f = src.f64(0.0..1.0);
            log.borrow_mut().push((v, f));
        });
        log.into_inner()
    };
    assert_eq!(collect(1), collect(1));
    assert_ne!(collect(1), collect(2), "different seeds must diverge");
}

/// A reported failure seed regenerates the failing inputs as case 0 —
/// the contract behind the `CMPSIM_PROP_SEED=...` reproduction line.
#[test]
fn reported_seed_reproduces_as_case_zero() {
    let prop_fn = |src: &mut Source| {
        let x = src.u64(0..1_000_000);
        assert!(!x.is_multiple_of(97), "x = {x} is divisible");
    };
    let failure = prop::check_result(&quick(5000), "mod_prime", prop_fn)
        .expect_err("property must fail eventually");

    let repro = Config {
        cases: 1,
        seed: failure.seed,
        ..Config::default()
    };
    let again =
        prop::check_result(&repro, "mod_prime", prop_fn).expect_err("reported seed must reproduce");
    assert_eq!(again.case, 0);
}

/// Env overrides parse through the same code `from_env` uses.
#[test]
fn env_overrides_respected_via_lookup() {
    let base = Config::default();
    let over = base
        .clone()
        .with_lookup(|key| match key {
            "CMPSIM_PROP_SEED" => Some("0xDEAD".to_string()),
            "CMPSIM_PROP_CASES" => Some("17".to_string()),
            _ => None,
        })
        .expect("valid overrides");
    assert_eq!(over.seed, 0xDEAD);
    assert_eq!(over.cases, 17);

    // Absent values leave the defaults untouched.
    let keep = base.clone().with_lookup(|_| None).expect("nothing set");
    assert_eq!(keep.seed, base.seed);
    assert_eq!(keep.cases, base.cases);

    // A malformed value is an error naming the knob and the value, never
    // a silent fallback to the default seed.
    for (knob, raw) in [("CMPSIM_PROP_SEED", "0xZZ"), ("CMPSIM_PROP_CASES", "ten")] {
        let err = base
            .clone()
            .with_lookup(|key| (key == knob).then(|| raw.to_string()))
            .expect_err(raw);
        assert!(err.contains(knob) && err.contains(raw), "{err}");
    }
}

/// The real process environment reaches `Config::from_env`. Kept in this
/// dedicated integration binary: no other test here reads the env, so
/// mutating it cannot race.
#[test]
fn env_overrides_respected_from_process_env() {
    std::env::set_var("CMPSIM_PROP_SEED", "424242");
    std::env::set_var("CMPSIM_PROP_CASES", "3");
    let cfg = Config::from_env();
    std::env::remove_var("CMPSIM_PROP_SEED");
    std::env::remove_var("CMPSIM_PROP_CASES");
    assert_eq!(cfg.seed, 424242);
    assert_eq!(cfg.cases, 3);

    // And the count is actually obeyed by the runner.
    let runs = RefCell::new(0u32);
    prop::check_with(&cfg, "count_runs", |_src| {
        *runs.borrow_mut() += 1;
    });
    assert_eq!(runs.into_inner(), 3);
}

/// `from_env_or_cases` lets an expensive suite lower the default while
/// still yielding to an explicit `CMPSIM_PROP_CASES`.
#[test]
fn suite_specific_case_default() {
    let cfg = Config::from_env_or_cases(48)
        .with_lookup(|key| (key == "CMPSIM_PROP_CASES").then(|| "96".to_string()))
        .expect("valid override");
    assert_eq!(cfg.cases, 96);
}

/// A failing case that happens to be already minimal survives shrinking
/// untouched and its Display report carries the reproduction seed.
#[test]
fn failure_report_is_complete() {
    let failure = prop::check_result(&quick(10), "always_fails", |src| {
        let _ = src.bool();
        panic!("intentional");
    })
    .expect_err("fails");
    let report = failure.to_string();
    assert!(report.contains("always_fails"), "{report}");
    assert!(report.contains("CMPSIM_PROP_SEED="), "{report}");
    assert!(report.contains("intentional"), "{report}");
}
