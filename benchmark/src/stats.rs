//! The few statistics the benchmark reports, kept apart so they can be
//! unit-tested: pooled throughput, median, quartiles (the same rule as
//! Python's `statistics.quantiles(values, n=4)`, so `--compare` agrees with
//! whoever re-computes the spread from the saved runs), and the tail rule
//! "highest percentile with at least ten samples beyond it".

/// Sorted copy (NaNs would be a bug upstream: every sample is a measured
/// duration).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    s
}

/// Median; 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// `(q1, median, q3)` by the "exclusive" rule Python's
/// `statistics.quantiles(v, n=4)` uses. Needs at least two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(v);
    let m = s.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Work per second over a set of timed iterations: total work over total
/// time (not the mean of per-iteration rates, which over-weights fast
/// iterations).
pub fn pooled_rate(work_per_iter: f64, iter_s: &[f64]) -> f64 {
    let total: f64 = iter_s.iter().sum();
    if total > 0.0 {
        work_per_iter * iter_s.len() as f64 / total
    } else {
        0.0
    }
}

/// The tail of a timing distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile rank (0–100) of `value`.
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the rank was taken over.
    pub n: usize,
}

/// The highest percentile that still has at least ten samples beyond it;
/// with fewer than eleven samples no percentile qualifies and the median is
/// reported (percentile 50).
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n < 11 {
        return Tail {
            percentile: 50.0,
            value: median(v),
            n,
        };
    }
    Tail {
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        value: s[n - 11],
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_rule() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn pooled_rate_is_total_work_over_total_time() {
        // 10 tokens in 1 s and 10 tokens in 3 s: 20 tokens / 4 s, not the
        // mean of 10/s and 3.33/s.
        assert_eq!(pooled_rate(10.0, &[1.0, 3.0]), 5.0);
        assert_eq!(pooled_rate(10.0, &[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(v.iter().filter(|x| **x > t.value).count(), 10);
        // Eleven samples: the minimum is the only rank with ten beyond it.
        let t = tail(&v[..11]);
        assert_eq!((t.value, t.n), (1.0, 11));
        // Too few samples: the median, flagged as p50.
        let t = tail(&v[..5]);
        assert_eq!((t.percentile, t.value), (50.0, 3.0));
    }
}
