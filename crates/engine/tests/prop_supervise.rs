//! Deterministic fault-injection suite for the supervised execution
//! layer: seeded panicking fixtures at fixed job indices, exercised
//! across worker counts 1/2/4/7.
//!
//! Every test in this binary injects panics on purpose, so a filtering
//! panic hook suppresses the known fixture payloads and forwards
//! anything else (a real test failure) to stderr untouched.

use cmpsim_engine::supervise::{run_indexed_supervised, Quarantine};
use cmpsim_engine::{pool, prop};
use std::sync::Once;
use std::time::Duration;

/// Job indices every fixture poisons (from the issue spec).
const POISONED: [usize; 4] = [1, 2, 4, 7];

/// Worker counts every test sweeps.
const JOB_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Payload marker shared by all intentional fixture panics.
const FIXTURE_MARK: &str = "[fixture]";

fn quiet_fixture_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !payload.contains(FIXTURE_MARK) {
                default(info);
            }
        }));
    });
}

/// The reference workload: a pure function of the job index.
fn value_of(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xabcd
}

#[test]
fn zero_failures_merge_byte_identical_to_unsupervised() {
    quiet_fixture_panics();
    let n = 23;
    let reference = pool::run_indexed(1, n, value_of);
    for jobs in JOB_COUNTS {
        let plain = pool::run_indexed(jobs, n, value_of);
        let (vals, quarantined) = run_indexed_supervised(jobs, n, value_of);
        assert!(quarantined.is_empty());
        let supervised: Vec<u64> = vals.into_iter().map(|v| v.expect("clean")).collect();
        // Byte-identity of the merged artifact: serialize both and diff.
        let bytes = |v: &[u64]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
        assert_eq!(bytes(&supervised), bytes(&plain), "jobs={jobs}");
        assert_eq!(bytes(&supervised), bytes(&reference), "jobs={jobs}");
    }
}

#[test]
fn panicking_fixture_quarantines_only_the_poisoned_jobs() {
    quiet_fixture_panics();
    let n = 10;
    for jobs in JOB_COUNTS {
        let (vals, quarantined) = run_indexed_supervised(jobs, n, |i| {
            assert!(!POISONED.contains(&i), "{FIXTURE_MARK} poisoned job {i}");
            value_of(i)
        });
        let ids: Vec<usize> = quarantined.iter().map(|q| q.job_id).collect();
        assert_eq!(ids, POISONED.to_vec(), "jobs={jobs}");
        for q in &quarantined {
            assert!(q.reason.contains("poisoned job"), "{}", q.reason);
        }
        for (i, v) in vals.iter().enumerate() {
            if POISONED.contains(&i) {
                assert!(v.is_none(), "jobs={jobs} i={i}");
            } else {
                assert_eq!(*v, Some(value_of(i)), "jobs={jobs} i={i}");
            }
        }
    }
}

#[test]
fn quarantine_order_is_index_order_not_completion_order() {
    quiet_fixture_panics();
    // Later poisoned jobs fail fast, earlier ones fail slowly, so
    // completion order inverts index order; the quarantine list must
    // still come out index-sorted.
    let (_, quarantined) = run_indexed_supervised(4, 8, |i| {
        if POISONED.contains(&i) {
            std::thread::sleep(Duration::from_millis(40u64.saturating_sub(5 * i as u64)));
            panic!("{FIXTURE_MARK} ordered failure {i}");
        }
        value_of(i)
    });
    let ids: Vec<usize> = quarantined.iter().map(|q| q.job_id).collect();
    assert_eq!(ids, POISONED.to_vec());
}

#[test]
fn random_poison_sets_quarantine_exactly() {
    quiet_fixture_panics();
    prop::check("random_poison_sets_quarantine_exactly", |src| {
        let n = src.usize(1..24);
        let poison: Vec<bool> = (0..n).map(|_| src.u64(0..4) == 0).collect();
        let jobs = JOB_COUNTS[src.usize(0..JOB_COUNTS.len())];
        let (vals, quarantined) = run_indexed_supervised(jobs, n, |i| {
            assert!(!poison[i], "{FIXTURE_MARK} random poison {i}");
            value_of(i)
        });
        let want: Vec<usize> = (0..n).filter(|&i| poison[i]).collect();
        let got: Vec<usize> = quarantined.iter().map(|q| q.job_id).collect();
        assert_eq!(got, want);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(v.is_none(), poison[i], "slot {i}");
        }
    });
}

#[test]
fn quarantine_display_is_actionable() {
    let q = Quarantine {
        job_id: 4,
        reason: "panicked: boom".to_string(),
    };
    let s = q.to_string();
    assert!(s.contains("job 4"), "{s}");
    assert!(s.contains("boom"), "{s}");
}
