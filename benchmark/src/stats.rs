//! Percentiles with the omission rule, and the run-to-run spread the
//! calibration table and `compare` use.

/// How many samples must lie beyond a percentile before it is reported.
/// Below that the "percentile" is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1] as f64)
}

/// Sorts nanosecond samples and returns their `q`-quantile in
/// microseconds, exact to the nanosecond `Instant` gave.
pub fn percentile_us(samples_ns: &mut [u64], q: f64) -> Option<f64> {
    samples_ns.sort_unstable();
    percentile(samples_ns, q).map(|ns| ns / 1_000.0)
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// gives them — the acceptance driver computes spread that way, so the
/// calibration table must too. `None` under two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let at = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a bound is judged against. 0 when there is one value.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let twenty: Vec<u64> = (1..=20).collect();
        // p50 of 20: rank 10, ten samples beyond — the smallest sample
        // that supports a median.
        assert_eq!(percentile(&twenty, 0.50), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 0.50), None);
        // p99 needs a thousand.
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_us_keeps_nanosecond_digits() {
        let mut ns: Vec<u64> = (0..40).map(|i| 583_217 + i).rev().collect();
        assert_eq!(percentile_us(&mut ns, 0.5), Some(583.236));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }
}
