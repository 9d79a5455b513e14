//! Medians and quartiles, computed exactly as Python's
//! `statistics.quantiles(values, n=4)` (its default "exclusive" method),
//! so a spread printed here matches one computed from the JSON records.

/// Sample count, median and quartiles of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Summarizes `values`; `None` when there are none. A single value is
/// its own median and quartiles.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    let median = match n {
        0 => return None,
        _ if n % 2 == 1 => d[n / 2],
        _ => (d[n / 2 - 1] + d[n / 2]) / 2.0,
    };
    if n == 1 {
        return Some(Summary {
            n,
            median,
            q1: median,
            q3: median,
        });
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some(Summary {
        n,
        median,
        q1: quartile(1),
        q3: quartile(3),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from CPython's `statistics.quantiles(..., n=4)`.
    #[test]
    fn matches_python_quantiles() {
        let s = summarize(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        let s = summarize(&[3., 1.]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        let s = summarize(&[5., 1., 3.]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 5.0));
        let s = summarize(&[7.]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 7., 7., 7.));
        assert!(summarize(&[]).is_none());
    }
}
