//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) exactly, so the spread this benchmark
//! reports is the spread a reader computes from its printed values.

/// The samples sorted ascending (NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The three cut points dividing the samples into quarters, computed
/// as `statistics.quantiles(values, n=4)` does (this method
/// extrapolates past the extreme samples when there are few). `None`
/// for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len() as i64;
    if ld < 2 {
        return None;
    }
    let n = 4i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    Some(out)
}

/// The `p`-th percentile (0–100) at the same sample positions as
/// [`quartiles`] (rank `p/100 · (len + 1)`), interpolating between
/// neighbours but never extrapolating past the extreme samples. An
/// infinite sample (a failed request) stays infinite.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let data = sorted(values);
    match data.len() {
        0 => None,
        1 => Some(data[0]),
        len => {
            let rank = (p / 100.0 * (len as f64 + 1.0)).clamp(1.0, len as f64);
            let j = rank.floor() as usize;
            if j >= len {
                return Some(data[len - 1]);
            }
            let (lo, hi) = (data[j - 1], data[j]);
            let frac = rank - j as f64;
            Some(if frac == 0.0 || lo == hi { lo } else { lo + (hi - lo) * frac })
        }
    }
}

/// The highest of the percentiles 50, 90, 99, 99.9 and 99.99 that has
/// at least ten samples above it, for a sample of `count` timings.
/// `None` when even the median lacks ten samples beyond it.
pub fn tail_percentile(count: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| count as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Expected values are `statistics.quantiles(values, n=4)` and
    // `statistics.median(values)` from CPython.
    #[test]
    fn quartiles_match_python() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[3.5, 1.0, 2.25]), Some([1.0, 2.25, 3.5]));
        assert_eq!(quartiles(&[5.0, 1.0]), Some([0.0, 3.0, 6.0]), "extrapolates like Python");
        let q = quartiles(&[0.9, 1.1, 1.0, 1.3, 0.8, 1.2, 1.05]).unwrap();
        for (got, want) in q.iter().zip([0.9, 1.05, 1.2]) {
            assert!((got - want).abs() < 1e-12, "{q:?}");
        }
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[5.0, 1.0]), Some(3.0));
        assert_eq!(median(&[3.5, 1.0, 2.25]), Some(2.25));
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(median(&ten), Some(5.5));
    }

    #[test]
    fn percentiles_interpolate_and_keep_failures_above_every_limit() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.9));
        assert_eq!(percentile(&hundred, 99.9), Some(100.0), "never past the largest sample");
        assert_eq!(percentile(&hundred, 0.0), Some(1.0));
        let mut with_failures = hundred.clone();
        with_failures.extend([f64::INFINITY; 20]);
        assert_eq!(percentile(&with_failures, 90.0), Some(f64::INFINITY));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }
}
