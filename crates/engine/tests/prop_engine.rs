//! Property tests for the simulation core, running on the engine's own
//! deterministic `prop` framework.

use cmpsim_engine::{prop, Cycle, Port, Rng64};

/// A port never grants before the request arrives, never overlaps grants,
/// and accumulates wait exactly as grant - arrival.
#[test]
fn port_grants_are_serialized() {
    prop::check("port_grants_are_serialized", |src| {
        let reqs = src.vec(1..100, |s| (s.u64(0..1000), s.u64(1..10)));
        let mut sorted = reqs;
        sorted.sort_by_key(|r| r.0);
        let mut p = Port::new("t");
        let mut last_end = 0u64;
        let mut total_wait = 0u64;
        for (at, occ) in sorted {
            let g = p.reserve(Cycle(at), occ);
            assert!(g.0 >= at, "grant at or after arrival");
            assert!(g.0 >= last_end, "no overlap");
            total_wait += g.0 - at;
            last_end = g.0 + occ;
        }
        assert_eq!(p.wait_cycles(), total_wait);
        assert_eq!(p.free_at().0, last_end);
    });
}

/// The RNG's range() respects its bound for arbitrary seeds.
#[test]
fn rng_range_in_bounds() {
    prop::check("rng_range_in_bounds", |src| {
        let seed = src.u64_any();
        let n = src.u64(1..1_000_000);
        let mut r = Rng64::new(seed);
        for _ in 0..50 {
            assert!(r.range(n) < n);
        }
    });
}

/// Shuffle produces a permutation.
#[test]
fn shuffle_permutes() {
    prop::check("shuffle_permutes", |src| {
        let seed = src.u64_any();
        let len = src.usize(0..64);
        let mut r = Rng64::new(seed);
        let mut v: Vec<usize> = (0..len).collect();
        r.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..len).collect::<Vec<_>>());
    });
}
