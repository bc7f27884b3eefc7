//! Order statistics for benchmark samples.
//!
//! Every figure the benchmark prints is a median with its sample count
//! beside it; spreads are inter-quartile distances computed the way
//! Python's `statistics.quantiles(values, n=4)` computes them, so the
//! numbers here and the ones an outside driver derives from repeated runs
//! are the same statistic.

/// Sorted copy; NaNs are a caller bug, so they panic here rather than
/// silently landing at one end of the order.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Median (mean of the two middle samples for even counts). Panics on an
/// empty slice: a metric with no samples must not be reported at all.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of zero samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median, third quartile by the "exclusive" method
/// (position `i * (n + 1) / 4`, linear interpolation, clamped to the
/// sample range). One sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "quartiles of zero samples");
    let v = sorted(samples);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Median absolute deviation from the median.
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    let dev: Vec<f64> = samples.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// How many samples must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, PartialEq)]
pub struct TooFewSamples {
    pub n: usize,
    pub beyond: usize,
}

/// Ceil-rank percentile (no interpolation): the smallest sample with at
/// least `p` of the distribution at or below it. Refuses — instead of
/// reporting a number that is really one or two outliers — when fewer
/// than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    assert!((0.0..=1.0).contains(&p), "percentile outside 0..=1");
    let v = sorted(samples);
    let n = v.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples { n, beyond });
    }
    Ok(v[rank - 1])
}

/// The summary printed beside every timing.
#[derive(Clone, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub mad: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(samples);
        Summary {
            median,
            q1,
            q3,
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            mad: mad(samples),
            n: samples.len(),
        }
    }

    /// Inter-quartile distance as a share of the median — the spread that
    /// is compared against a metric's regression bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the sample range.
        let (q1, q2, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12);
        assert!((q2 - 1.5).abs() < 1e-12);
        assert!((q3 - 2.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q2, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q2, q3), (10.0, 20.0, 40.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((Summary::of(&v).spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[3.0, 3.0, 3.0]).spread(), 0.0);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }

    #[test]
    fn percentile_is_ceil_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Ok(100.0));
        assert_eq!(percentile(&v, 0.90), Ok(180.0));
        assert_eq!(percentile(&v, 0.95), Ok(190.0));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        // p90 of 100 samples leaves exactly 10 beyond: allowed.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.90), Ok(90.0));
        // p90 of 99 leaves 9 beyond; p99 of 200 leaves 2.
        assert_eq!(
            percentile(&v[..99], 0.90),
            Err(TooFewSamples { n: 99, beyond: 9 })
        );
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(
            percentile(&w, 0.99),
            Err(TooFewSamples { n: 200, beyond: 2 })
        );
        assert_eq!(percentile(&[], 0.5), Err(TooFewSamples { n: 0, beyond: 0 }));
    }

    #[test]
    fn summary_carries_count_and_min() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!((s.n, s.min, s.median), (3, 2.0, 4.0));
    }
}
