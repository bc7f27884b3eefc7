//! Log-scale atomic histograms.
//!
//! Power-of-two buckets: bucket 0 counts zeros, bucket `i` (1..=64) counts
//! values `v` with `2^(i-1) <= v < 2^i`. Recording is a single relaxed
//! `fetch_add` on the bucket plus one on the running sum, so histograms can
//! be shared across threads without locks and merged associatively —
//! per-machine histograms fold into cluster-wide ones in any order.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per bit position.
pub const NUM_BUCKETS: usize = 65;

/// A lock-free histogram with power-of-two bucket boundaries.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// The bucket index holding `value`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Smallest value belonging to bucket `i`.
    #[inline]
    pub fn bucket_lower_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.counts[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Total observations recorded so far.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// A mergeable point-in-time histogram copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub counts: [u64; NUM_BUCKETS],
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; NUM_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean of the recorded values (exact: the sum is tracked separately).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Lower bound of the bucket containing the `q`-quantile
    /// (`0.0 <= q <= 1.0`); 0 for an empty histogram.
    pub fn quantile_lower_bound(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_lower_bound(i);
            }
        }
        Histogram::bucket_lower_bound(NUM_BUCKETS - 1)
    }

    /// Occupied buckets as `(lower_bound, count)` pairs, low to high.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Histogram::bucket_lower_bound(i), c))
            .collect()
    }
}

impl std::ops::Add for HistogramSnapshot {
    type Output = HistogramSnapshot;
    fn add(self, rhs: HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].wrapping_add(rhs.counts[i])),
            // Wrapping, matching the atomic `fetch_add` in `record`: a
            // merge of shard snapshots then equals one histogram fed the
            // union of the samples, bit for bit.
            sum: self.sum.wrapping_add(rhs.sum),
        }
    }
}

impl std::iter::Sum for HistogramSnapshot {
    fn sum<I: Iterator<Item = HistogramSnapshot>>(iter: I) -> HistogramSnapshot {
        iter.fold(HistogramSnapshot::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 1..NUM_BUCKETS {
            let lo = Histogram::bucket_lower_bound(i);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(
                Histogram::bucket_index(lo - 1).min(i),
                Histogram::bucket_index(lo - 1)
            );
        }
    }

    #[test]
    fn record_and_mean() {
        let h = Histogram::new();
        h.record(0);
        h.record(7);
        h.record(9);
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum, 16);
        assert!((s.mean() - 16.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.counts[3], 1); // 7 ∈ [4, 8)
        assert_eq!(s.counts[4], 1); // 9 ∈ [8, 16)
    }

    #[test]
    fn quantiles() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.quantile_lower_bound(0.5), 8);
        assert_eq!(s.quantile_lower_bound(1.0), 524_288); // 2^19 <= 1e6 < 2^20
        assert_eq!(HistogramSnapshot::default().quantile_lower_bound(0.5), 0);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in [0u64, 1, 5, 1023, 1024, u64::MAX] {
            a.record(v);
            both.record(v);
        }
        for v in [3u64, 3, 70_000] {
            b.record(v);
            both.record(v);
        }
        assert_eq!(a.snapshot() + b.snapshot(), both.snapshot());
    }
}
