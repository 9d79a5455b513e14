//! Statistics primitives used for the paper's tables and figures.
//!
//! The reproduction reports two families of numbers:
//! execution-time breakdowns (Figures 4–10), where every CPU cycle is
//! attributed to exactly one category, and cache miss-rate breakdowns
//! (replacement vs. invalidation misses). [`Histogram`] records the
//! memory system's access latencies and trace reuse distances; [`ratio`]
//! turns the counts of both families into shares and rates.

use std::fmt;

/// Ratio helper that renders `0/0` as zero instead of NaN.
///
/// # Examples
///
/// ```
/// use cmpsim_engine::stats::ratio;
/// assert_eq!(ratio(1, 4), 0.25);
/// assert_eq!(ratio(0, 0), 0.0);
/// ```
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A fixed-bucket histogram of `u64` samples (e.g. memory latencies).
///
/// Buckets are `[bounds[0], bounds[1])`, …, plus an implicit overflow bucket.
///
/// # Examples
///
/// ```
/// use cmpsim_engine::Histogram;
/// let mut h = Histogram::new("lat", &[1, 4, 16, 64]);
/// h.record(0);
/// h.record(5);
/// h.record(500);
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.mean(), (0.0 + 5.0 + 500.0) / 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    name: &'static str,
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket lower `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(name: &'static str, bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            name,
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample. Runs once per memory access: the dominant
    /// first bucket (L1 hits) is one compare, everything else a
    /// branchless count of bounds `<= sample` (equal to the index of the
    /// first greater bound, since bounds ascend) rather than an
    /// early-exit scan whose cost varies with the latency mix.
    #[inline]
    pub fn record(&mut self, sample: u64) {
        let idx = if sample < self.bounds[0] {
            0
        } else {
            let mut idx = 1usize;
            for &b in &self.bounds[1..] {
                idx += usize::from(sample >= b);
            }
            idx
        };
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += sample;
        self.max = self.max.max(sample);
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of all samples (0 if empty).
    pub fn mean(&self) -> f64 {
        ratio(self.sum, self.total)
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Histogram label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0;
        self.max = 0;
    }

    /// Raw accumulator state `(bounds, counts, total, sum, max)`; explore
    /// reads the latency sum from it.
    pub fn raw_parts(&self) -> (&[u64], &[u64], u64, u64, u64) {
        (&self.bounds, &self.counts, self.total, self.sum, self.max)
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={} mean={:.2} max={}",
            self.name,
            self.total,
            self.mean(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(1, 2), 0.5);
    }

    #[test]
    fn histogram_buckets_samples() {
        let mut h = Histogram::new("h", &[10, 100]);
        h.record(9); // bucket 0
        h.record(10); // bucket 1
        h.record(99); // bucket 1
        h.record(100); // overflow
        assert_eq!(h.counts(), &[1, 2, 1]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.max(), 100);
        h.reset();
        assert_eq!(h.total(), 0);
        assert_eq!(h.counts(), &[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new("h", &[10, 10]);
    }

    #[test]
    fn raw_parts_round_trips_through_restore() {
        let mut h = Histogram::new("h", &[10, 100]);
        h.record(9);
        h.record(55);
        h.record(400);
        let (bounds, counts, total, sum, max) = h.raw_parts();
        assert_eq!(bounds, &[10, 100]);
        assert_eq!(counts, h.counts());
        assert_eq!((total, sum, max), (3, 464, 400));
    }
}
