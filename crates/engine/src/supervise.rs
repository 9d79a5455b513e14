//! Supervised job fan-out: panic isolation on top of the [`pool`]
//! primitives.
//!
//! The plain pool propagates the first worker panic, which is the right
//! default for unit tests and figure runs but fatal for long batch
//! sweeps: one poisoned configuration out of thousands throws away every
//! other result. This module runs each job once under `catch_unwind` and
//! collects the jobs that panicked into an index-ordered quarantine list
//! instead of aborting the sweep.
//!
//! Each job gets exactly one attempt. Every job is a deterministic
//! simulation, so a job that panicked once would panic again on a retry.
//! A hung simulation is caught in simulated time, by the cycle budget and
//! the forward-progress watchdog, and its error reaches the quarantine
//! list like any other panic.
//!
//! The invariant the tests pin is **byte-identity when nothing fails**:
//! the results of a supervised run with zero failures are exactly the
//! output of the unsupervised pool at any job count (index-ordered, same
//! values).

use crate::pool;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One quarantined job: it panicked and its slot in the merged output is
/// empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// Index of the job in the fan-out.
    pub job_id: usize,
    /// Human-readable failure description (the panic payload — a stalled
    /// run's `WatchdogReport` text surfaces here).
    pub reason: String,
}

impl std::fmt::Display for Quarantine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} quarantined: {}", self.job_id, self.reason)
    }
}

/// Renders a panic payload (the usual `&str` / `String` shapes) for the
/// quarantine record.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Supervised [`pool::run_indexed`]: runs `f(0..n)` on up to `jobs`
/// threads, each job once under `catch_unwind`. Returns one slot per job
/// in index order (`None` where the job panicked) and the quarantine
/// list, also index-ordered. A clean run's values are byte-identical to
/// the unsupervised pool's output.
pub fn run_indexed_supervised<T, F>(
    jobs: usize,
    n: usize,
    f: F,
) -> (Vec<Option<T>>, Vec<Quarantine>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let outcomes = pool::run_indexed(jobs, n, |i| {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(panic_message)
    });
    let mut vals = Vec::with_capacity(n);
    let mut quarantined = Vec::new();
    for (job_id, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(v) => vals.push(Some(v)),
            Err(payload) => {
                vals.push(None);
                quarantined.push(Quarantine {
                    job_id,
                    reason: format!("panicked: {payload}"),
                });
            }
        }
    }
    (vals, quarantined)
}

/// Supervised [`pool::map_jobs`]: maps `f` over `items`, slots in item
/// order.
pub fn map_jobs_supervised<I, T, F>(
    jobs: usize,
    items: &[I],
    f: F,
) -> (Vec<Option<T>>, Vec<Quarantine>)
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    run_indexed_supervised(jobs, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_matches_unsupervised_pool() {
        let work = |i: usize| (i as u64).wrapping_mul(2_654_435_761) % 1013;
        let plain = pool::run_indexed(4, 32, work);
        let (vals, q) = run_indexed_supervised(4, 32, work);
        assert!(q.is_empty());
        let vals: Vec<u64> = vals.into_iter().map(|v| v.expect("clean")).collect();
        assert_eq!(vals, plain);
    }

    #[test]
    fn panicking_job_is_quarantined_without_killing_the_sweep() {
        let (vals, quarantined) = run_indexed_supervised(4, 8, |i| {
            assert!(i != 3, "poisoned job {i}");
            i * 2
        });
        assert_eq!(quarantined.len(), 1);
        let q = &quarantined[0];
        assert_eq!(q.job_id, 3);
        assert!(q.reason.contains("poisoned job 3"), "{}", q.reason);
        for (i, v) in vals.iter().enumerate() {
            if i == 3 {
                assert!(v.is_none());
            } else {
                assert_eq!(*v, Some(i * 2));
            }
        }
    }
}
