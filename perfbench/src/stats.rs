//! Summary statistics over timing samples: nearest-rank percentiles, the
//! "highest percentile with at least ten samples beyond it" tail rule,
//! medians and geometric means.

/// The percentiles the tail rule may choose from, lowest first. The
/// ladder stops at p99: on a shared two-CPU host, p99.9 of a second of
/// sub-millisecond requests is set by a handful of scheduler stalls and
/// varied twofold between runs of identical code.
pub const TAIL_LADDER: [f64; 7] = [50.0, 60.0, 70.0, 80.0, 90.0, 95.0, 99.0];

/// Samples that must lie strictly beyond a percentile for it to be
/// reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` samples: the smallest
/// rank whose share of samples at or below it reaches `p` percent.
pub fn rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    // Round away float noise such as 0.99 * 100 = 98.99999999999999.
    let exact = p / 100.0 * n as f64;
    let r = (exact - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile `p` of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// The median of `sorted` (ascending): the mean of the two middle
/// samples for an even count.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of unsorted values.
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median(&v)
}

/// The tail percentile of a sample: the highest percentile on
/// [`TAIL_LADDER`] with at least [`TAIL_MIN_BEYOND`] samples strictly
/// above its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    /// Samples ranked above the percentile.
    pub beyond: usize,
    pub samples: usize,
}

/// Pick the tail of `sorted` (ascending). With fewer than
/// `2 * TAIL_MIN_BEYOND` samples no rung qualifies and the median is
/// reported, with its (short) beyond-count stated.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let mut best = TAIL_LADDER[0];
    for &p in &TAIL_LADDER {
        if n - rank(p, n) >= TAIL_MIN_BEYOND {
            best = p;
        }
    }
    Tail {
        percentile: best,
        value: percentile(sorted, best),
        beyond: n - rank(best, n),
        samples: n,
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    assert!(values.iter().all(|&v| v > 0.0), "geometric mean needs positive values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|k| k as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        // 1..=10: p50 is the 5th value, p90 the 9th, p91 rounds up to
        // the 10th, p100 is the maximum.
        let s = ascending(10);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // 0.99 * 100 is not exactly 99 in floating point.
        assert_eq!(rank(99.0, 100), 99);
        assert_eq!(rank(99.9, 1000), 999);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median_of(&[9.0, 1.0, 4.0, 2.0]), 3.0);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        // 19 samples: p50 is rank 10 with 9 beyond — nothing qualifies,
        // the median is reported with its short count.
        let t = tail(&ascending(19));
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 9));
        // 20 samples: p50 (rank 10) has exactly 10 beyond.
        let t = tail(&ascending(20));
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        // 27 samples: p60 is rank 17 with 10 beyond; p70 (rank 19) has 8.
        let t = tail(&ascending(27));
        assert_eq!((t.percentile, t.value, t.beyond), (60.0, 17.0, 10));
        // 54 samples: p80 is rank 44 with 10 beyond; p90 (rank 49) has 5.
        let t = tail(&ascending(54));
        assert_eq!((t.percentile, t.value, t.beyond), (80.0, 44.0, 10));
        // 81 samples (a search_cold pass): p80 is rank 65 with 16
        // beyond; p90 (rank 73) has 8.
        let t = tail(&ascending(81));
        assert_eq!((t.percentile, t.value, t.beyond), (80.0, 65.0, 16));
        // 100 samples: p90 has exactly 10 beyond, p95 only 5.
        let t = tail(&ascending(100));
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 1000 samples: p99 (rank 990) has 10 beyond.
        let t = tail(&ascending(1000));
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 (rank 990) has 9 beyond; p95 (rank 950) 49.
        let t = tail(&ascending(999));
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 950.0, 49));
        // The ladder tops out at p99 however many samples there are.
        let t = tail(&ascending(100_000));
        assert_eq!((t.percentile, t.beyond, t.samples), (99.0, 1000, 100_000));
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }
}
