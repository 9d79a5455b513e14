//! A small deterministic PRNG (splitmix64 / xorshift*-style).
//!
//! Workload generators need randomness (particle positions, task orders,
//! pointer-chase permutations) that is exactly reproducible across runs and
//! platforms, so the simulator uses its own fixed algorithm rather than an
//! external generator whose stream might change between versions.

/// A 64-bit deterministic pseudo-random generator (splitmix64).
///
/// # Examples
///
/// ```
/// use cmpsim_engine::Rng64;
/// let mut a = Rng64::new(7);
/// let mut b = Rng64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let r = a.range(10);
/// assert!(r < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Rng64 {
        Rng64 {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range upper bound must be positive");
        // Lemire-style multiply-shift; bias is negligible for simulation use.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng64::new(123);
        let mut b = Rng64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn range_respects_bound() {
        let mut r = Rng64::new(42);
        for n in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.range(n) < n);
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle should move things");
    }

    #[test]
    fn range_distribution_roughly_uniform() {
        let mut r = Rng64::new(77);
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            buckets[r.range(10) as usize] += 1;
        }
        for &b in &buckets {
            assert!((800..1200).contains(&b), "bucket count {b} out of range");
        }
    }
}
