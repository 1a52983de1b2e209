//! Order statistics for timings: nearest-rank percentiles, the median and
//! quartiles, the tail percentile a sample count can support, and the
//! regression-bound check two commits are compared with.

/// Percentile ladder [`tail_percentile`] climbs.
const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to count as measured.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < `p` <= 100, resolved to a
/// tenth of a percent) among `n` samples: the smallest rank whose share of
/// the samples reaches `p`.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // Integer permille, so 99.9% of 20,000 is exactly rank 19,980.
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `sorted` (ascending); `None` if empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(p, sorted.len()) - 1])
}

/// Sorts a copy of `values` ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method (the default of
/// Python's `statistics.quantiles(values, n=4)`), so a spread computed here
/// matches one computed by that tool. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// metric's bound is compared with.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples ranked above it among `n`, or `None` when
/// even the median has fewer beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= 1 && n - nearest_rank(p, n) >= TAIL_MIN_BEYOND)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, CPU).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// Whether `change` is worse than `parent` by more than `bound`, a share of
/// `parent` (e.g. 0.10 for 10%).
pub fn regressed(parent: f64, change: f64, bound: f64, better: Better) -> bool {
    match better {
        Better::Lower => change > parent * (1.0 + bound),
        Better::Higher => change < parent * (1.0 - bound),
    }
}

/// Summary of one timing's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Nearest-rank 50th percentile.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarizes `values`; `None` if empty.
    pub fn of(values: &[f64]) -> Option<Self> {
        let v = sorted(values);
        Some(Self {
            n: v.len(),
            mean: v.iter().sum::<f64>() / v.len().max(1) as f64,
            p50: percentile(&v, 50.0)?,
            p90: percentile(&v, 90.0)?,
            p99: percentile(&v, 99.0)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 99.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        let big: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(19_800.0));
        assert_eq!(percentile(&big, 99.9), Some(19_980.0));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        // (8.25 - 2.75) / 5.5
        assert_eq!(relative_spread(&v), Some(1.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(120), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn bound_check_respects_direction() {
        assert!(!regressed(100.0, 110.0, 0.10, Better::Lower));
        assert!(regressed(100.0, 110.5, 0.10, Better::Lower));
        assert!(!regressed(100.0, 50.0, 0.10, Better::Lower));
        assert!(!regressed(100.0, 90.0, 0.10, Better::Higher));
        assert!(regressed(100.0, 89.5, 0.10, Better::Higher));
    }

    #[test]
    fn summary_reports_count_and_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.mean, 50.5);
        assert_eq!((s.p50, s.p90, s.p99), (50.0, 90.0, 99.0));
        assert_eq!(Summary::of(&[]), None);
    }
}
