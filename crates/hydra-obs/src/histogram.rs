//! Power-of-two-bucketed histograms.
//!
//! Values land in bucket `i` when they need exactly `i` significant bits
//! (bucket 0 holds only zero, bucket 1 holds 1, bucket 2 holds 2–3, bucket
//! 3 holds 4–7, …). Bucketing by bit length keeps recording O(1), needs no
//! configuration, and — crucially for the determinism guarantee — involves
//! no floating point.

/// One histogram: 65 power-of-two buckets plus running aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index for `value`: its bit length.
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The largest value bucket `i` admits (`2^i - 1`, saturating).
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.nonzero().collect()
    }

    fn nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_bound(i), c))
    }

    /// Estimates the `pct`-th percentile (`0..=100`) by bucket-bound
    /// interpolation; `None` when empty.
    ///
    /// The estimator is integer-only: the target rank is the ceiling
    /// nearest rank `⌈pct·count/100⌉`, the containing bucket is found by
    /// cumulative count, and the value is interpolated linearly between
    /// the bucket's edges (tightened to the observed `min`/`max`). This
    /// trades the exactness of `hydra_sim::stats::Samples::percentile`
    /// (which keeps every sample and interpolates between neighbours)
    /// for O(1) recording and fixed memory: the estimate always lands in
    /// the same power-of-two bucket as the exact answer.
    pub fn quantile(&self, pct: u64) -> Option<u64> {
        quantile_from_buckets(self.nonzero(), self.count, self.min(), self.max, pct)
    }

    /// Median estimate ([`Histogram::quantile`] at 50).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(50)
    }

    /// 95th-percentile estimate ([`Histogram::quantile`] at 95).
    pub fn p95(&self) -> Option<u64> {
        self.quantile(95)
    }

    /// 99th-percentile estimate ([`Histogram::quantile`] at 99).
    pub fn p99(&self) -> Option<u64> {
        self.quantile(99)
    }
}

/// Shared quantile estimator over `(inclusive bound, count)` buckets in
/// ascending order — the representation both [`Histogram`] and
/// [`crate::HistogramSample`] expose. Takes an iterator so
/// [`Histogram::quantile`] walks its bucket array without allocating.
pub(crate) fn quantile_from_buckets(
    buckets: impl IntoIterator<Item = (u64, u64)>,
    count: u64,
    min: u64,
    max: u64,
    pct: u64,
) -> Option<u64> {
    if count == 0 {
        return None;
    }
    let pct = pct.min(100);
    #[allow(clippy::cast_possible_truncation)] // quotient <= count, a u64
    let rank = ((u128::from(pct) * u128::from(count)).div_ceil(100) as u64).clamp(1, count);
    let mut seen = 0u64;
    for (bound, in_bucket) in buckets {
        seen += in_bucket;
        if seen >= rank {
            // A bucket bounded by 2^i - 1 starts at 2^(i-1); bucket 0
            // (bound 0) holds only zero.
            let bucket_lo = if bound == 0 { 0 } else { bound / 2 + 1 };
            let lo = bucket_lo.max(min).min(max);
            let hi = bound.min(max).max(lo);
            let pos = rank - (seen - in_bucket); // 1..=in_bucket
            let span = u128::from(hi - lo);
            #[allow(clippy::cast_possible_truncation)] // result <= hi - lo
            return Some(lo + ((span * u128::from(pos)) / u128::from(in_bucket)) as u64);
        }
    }
    Some(max)
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
        assert_eq!(Histogram::bucket_bound(0), 0);
        assert_eq!(Histogram::bucket_bound(3), 7);
        assert_eq!(Histogram::bucket_bound(64), u64::MAX);
    }

    #[test]
    fn every_power_of_two_boundary_is_exact() {
        // For each i in 1..64: 2^i opens bucket i+1, and 2^i - 1 is the
        // last value bucket i admits. No off-by-one anywhere in 64 bits.
        for i in 1..64usize {
            let pow = 1u64 << i;
            assert_eq!(Histogram::bucket_index(pow), i + 1, "2^{i} opens a bucket");
            assert_eq!(Histogram::bucket_index(pow - 1), i, "2^{i}-1 closes one");
            assert_eq!(Histogram::bucket_bound(i), pow - 1);
        }
        // The extremes: zero is alone in bucket 0; u64::MAX tops bucket 64.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bound(64), u64::MAX);
        assert_eq!(Histogram::bucket_bound(65), u64::MAX, "bounds saturate");
    }

    #[test]
    fn boundary_values_land_in_adjacent_buckets() {
        let mut h = Histogram::new();
        h.record(1023); // bucket 10 (<= 1023)
        h.record(1024); // bucket 11 (<= 2047)
        h.record(1025); // bucket 11
        assert_eq!(h.nonzero_buckets(), vec![(1023, 1), (2047, 2)]);
    }

    #[test]
    fn saturating_sum_never_wraps() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.nonzero_buckets(), vec![(u64::MAX, 2)]);
    }

    #[test]
    fn quantiles_of_empty_histogram_are_none() {
        let h = Histogram::new();
        assert_eq!(h.quantile(50), None);
        assert_eq!(h.p99(), None);
    }

    #[test]
    fn quantiles_of_a_constant_are_exact() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(7);
        }
        for pct in [0, 1, 50, 95, 99, 100] {
            assert_eq!(h.quantile(pct), Some(7), "pct {pct}");
        }
    }

    #[test]
    fn quantiles_respect_power_of_two_boundaries() {
        // 99 values in bucket 10 (513..=1023) and one outlier at 4096:
        // p50/p95 must stay inside bucket 10, p100 must hit the outlier.
        let mut h = Histogram::new();
        for i in 0..99u64 {
            h.record(513 + i * 5);
        }
        h.record(4096);
        let p50 = h.p50().unwrap();
        let p95 = h.p95().unwrap();
        assert!((513..=1023).contains(&p50), "p50 {p50} inside bucket");
        assert!((513..=1023).contains(&p95), "p95 {p95} inside bucket");
        assert!(p50 <= p95, "quantiles are monotone");
        assert_eq!(h.quantile(100), Some(4096), "p100 is the max");
    }

    #[test]
    fn quantile_interpolates_within_bucket_and_clamps_to_extremes() {
        // 1..=8: ranks are exact at bucket edges. p50 rank 4 falls in
        // bucket 3 (4..=7) at position 1 of 4 -> 4 + 3/4 = 4.
        let mut h = Histogram::new();
        for v in 1..=8 {
            h.record(v);
        }
        assert_eq!(h.quantile(0), Some(1), "p0 is the min");
        assert_eq!(h.p50(), Some(4));
        assert_eq!(h.quantile(100), Some(8), "p100 is the max");
        // The estimate lands in the same bucket as the exact answer 4.5.
        assert_eq!(
            Histogram::bucket_index(h.p50().unwrap()),
            Histogram::bucket_index(4)
        );
    }

    #[test]
    fn quantile_tightens_bucket_edges_to_observed_min_max() {
        // Both observations sit in bucket 10 (513..=1023); min/max pin
        // the interpolation range to [600, 700].
        let mut h = Histogram::new();
        h.record(600);
        h.record(700);
        let p99 = h.p99().unwrap();
        assert!((600..=700).contains(&p99), "p99 {p99} within min..=max");
    }

    #[test]
    fn aggregates_track_observations() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), 0);
        for v in [5, 1, 9, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 24);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 9);
        // 1 -> bucket 1 (<=1); 5 -> bucket 3 (<=7); 9,9 -> bucket 4 (<=15).
        assert_eq!(h.nonzero_buckets(), vec![(1, 1), (7, 1), (15, 2)]);
    }
}
