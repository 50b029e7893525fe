//! Order statistics used by every report.

/// Nearest-rank percentile of a sorted sample: the value at 1-based rank
/// `ceil(p / 100 · n)`. `None` on an empty sample.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> Option<f64> {
    let rank = rank_of(sorted.len(), pct)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of `pct` in a sample of `n`.
fn rank_of(n: usize, pct: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

/// How many samples lie beyond the nearest-rank `pct` percentile of `n`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    rank_of(n, pct).map_or(0, |rank| n - rank)
}

/// A percentile is reportable as a tail only with at least this many
/// samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// The smallest sample that keeps [`MIN_BEYOND`] samples beyond the
/// nearest-rank `pct` percentile (`pct` below 100).
pub fn min_samples(pct: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, pct) >= MIN_BEYOND)
        .expect("every percentile below 100 is eventually supported")
}

/// Sort a sample for the percentile functions (NaN-free by construction:
/// every sample is a measured duration or a count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so spreads printed here match an external check.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = n + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_follows_the_textbook_definition() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(18.0));
        assert_eq!(nearest_rank(&s, 99.0), Some(20.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(20.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(0, 50.0), 0);
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(50.0), 20);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
