//! Scoped-thread job pool shared by the bench harness, trace replay and
//! the explore driver.
//!
//! [`run_indexed`] / [`map_jobs`] are an atomic-cursor job pool for
//! independent work items, built on `std::thread::scope` with zero
//! external dependencies. Results are always returned **in index order**,
//! so callers produce byte-identical output whatever the thread count or
//! scheduling. This is the simulator's one parallelism model: independent
//! jobs (whole runs, replay configurations) in parallel, while a single
//! simulation always runs on one thread.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The host's available parallelism (1 when it cannot be determined):
/// the default worker count of every job-pool fan-out. Entry points with
/// a `--jobs` flag override it.
pub fn host_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f(0..n)` on up to `jobs` scoped threads and returns the results in
/// index order. With `jobs <= 1` (or a single item) everything runs inline
/// on the calling thread — same results, no thread machinery.
///
/// # Panics
///
/// Propagates a panic from any worker closure.
pub fn run_indexed<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = jobs.max(1).min(n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let fref = &f;
    let nextref = &next;
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let i = nextref.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        got.push((i, fref(i)));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("pool worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|o| o.expect("the cursor visits every index exactly once"))
        .collect()
}

/// Maps `f` over `items` on up to `jobs` threads, results in item order.
pub fn map_jobs<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    run_indexed(jobs, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        // Stagger completion so late indices finish first under real
        // threading; index order must hold regardless.
        let out = run_indexed(4, 16, |i| {
            std::thread::sleep(std::time::Duration::from_micros(((16 - i) * 50) as u64));
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |i: usize| (i as u64).wrapping_mul(2_654_435_761) % 1013;
        let serial = run_indexed(1, 64, work);
        let parallel = run_indexed(8, 64, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_single_and_zero_jobs_inputs() {
        assert_eq!(run_indexed(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(8, 1, |i| i + 7), vec![7]);
        assert_eq!(run_indexed(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_jobs_preserves_item_order() {
        let items = ["a", "bb", "ccc"];
        assert_eq!(map_jobs(3, &items, |s| s.len()), vec![1, 2, 3]);
    }
}
