//! Sample statistics: nearest-rank percentiles and the "highest
//! percentile the sample supports" rule.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q`·n samples at or below it. (Rounding
/// `(n-1)·q` instead reports the maximum as "p99" for any n < 51.)
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p90 / p95 / p99 / p99.9 that still has at least ten
/// samples beyond it, as `(quantile, value)`; `None` under 100 samples,
/// where not even p90 is supported.
pub fn tail_percentile<T: Copy + Default>(sorted: &[T]) -> Option<(f64, T)> {
    [0.999, 0.99, 0.95, 0.90].into_iter().find_map(|q| {
        let rank = (q * sorted.len() as f64).ceil() as usize;
        (sorted.len() >= rank + 10).then(|| (q, percentile(sorted, q)))
    })
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count); 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is how the
/// benchmark contract measures run-to-run spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Sort a latency sample and return it (helper for the percentile
/// functions, which want ascending input).
pub fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 0.50), 100);
        assert_eq!(percentile(&v, 0.99), 198);
        assert_eq!(percentile(&v, 1.0), 200);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
        // Two samples: the median is the lower one, p99 the upper.
        assert_eq!(percentile(&[3u64, 9], 0.5), 3);
        assert_eq!(percentile(&[3u64, 9], 0.99), 9);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let of = |n: u64| tail_percentile(&(1..=n).collect::<Vec<u64>>()).map(|(q, _)| q);
        assert_eq!(of(99), None);
        assert_eq!(of(100), Some(0.90));
        assert_eq!(of(199), Some(0.90));
        assert_eq!(of(200), Some(0.95));
        assert_eq!(of(999), Some(0.95));
        assert_eq!(of(1_000), Some(0.99));
        assert_eq!(of(10_000), Some(0.999));
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(tail_percentile(&v), Some((0.95, 190)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
