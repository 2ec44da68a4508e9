//! Measurement primitives for experiments.
//!
//! The paper's tables report medians, averages and standard deviations of
//! sampled quantities (jitter, CPU utilization, L2 miss rates); its figures
//! are histograms and CDFs. This module provides the accumulators that the
//! experiment harness feeds: [`Samples`] for exact order statistics,
//! [`Histogram`] for binned distributions, and [`TimeWeighted`] for
//! utilization-style gauges integrated over simulated time.

use crate::time::SimTime;

/// An exact sample set with summary statistics.
///
/// Stores every observation, so medians and percentiles are exact — the
/// experiment runs in this reproduction collect at most a few hundred
/// thousand samples.
///
/// # Examples
///
/// ```
/// use hydra_sim::stats::Samples;
///
/// let mut s = Samples::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.record(v);
/// }
/// let sum = s.summary();
/// assert_eq!(sum.mean, 2.5);
/// assert_eq!(sum.median, 2.5);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    values: Vec<f64>,
}

/// Summary statistics of a sample set: the columns of the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (average of the two middle elements for even counts).
    pub median: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN — a NaN observation is always an upstream
    /// bug and would silently poison every downstream statistic.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "Samples::record: NaN observation");
        self.values.push(value);
    }

    /// Number of observations recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw observations in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Exact percentile in `[0, 100]` by linear interpolation.
    ///
    /// # Relation to `hydra_obs::Histogram::quantile`
    ///
    /// The workspace has two percentile estimators with deliberately
    /// different semantics:
    ///
    /// * **This one** keeps every observation and interpolates between
    ///   the two neighbouring order statistics at fractional rank
    ///   `p/100 · (n−1)` (the "linear between closest ranks" / R-7
    ///   definition). Exact, but O(n) memory and floating-point — for
    ///   the experiment harness, whose reports are rendered with
    ///   explicit rounding.
    /// * **`hydra_obs`'s** works on power-of-two bucket counts with a
    ///   ceiling *nearest rank* `⌈p·n/100⌉` and integer interpolation
    ///   between bucket bounds. Approximate (bucket-bound resolution),
    ///   but O(1) recording, fixed memory, and bit-for-bit deterministic
    ///   — for the telemetry plane, whose outputs are byte-diffed.
    ///
    /// Both always land in the same power-of-two bucket; the root
    /// `telemetry_timeline` tests cross-check that invariant.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(!self.values.is_empty(), "percentile of empty sample set");
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN by invariant"));
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = rank - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    /// Computes the summary statistics.
    ///
    /// Returns the all-zero summary for an empty set.
    pub fn summary(&self) -> Summary {
        if self.values.is_empty() {
            return Summary::default();
        }
        let n = self.values.len();
        let mean = self.values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            self.values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN by invariant"));
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            f64::midpoint(sorted[n / 2 - 1], sorted[n / 2])
        };
        Summary {
            count: n,
            mean,
            median,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
        }
    }

    /// Bins the observations into a [`Histogram`] spanning `[lo, hi)` with
    /// `bins` equal-width bins. Out-of-range observations land in the
    /// under-/overflow counters.
    pub fn histogram(&self, lo: f64, hi: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(lo, hi, bins);
        for &v in &self.values {
            h.record(v);
        }
        h
    }
}

impl Extend<f64> for Samples {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Samples::new();
        s.extend(iter);
        s
    }
}

/// A fixed-range, equal-width histogram with exact under/overflow counts.
///
/// # Examples
///
/// ```
/// use hydra_sim::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// h.record(0.5);
/// h.record(9.5);
/// assert_eq!(h.bin_count(0), 1);
/// assert_eq!(h.bin_count(9), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "Histogram: bins must be positive");
        assert!(lo < hi, "Histogram: lo must be below hi");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.total += 1;
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.counts.len() as f64;
            let mut idx = ((value - self.lo) / width) as usize;
            // Guard against floating-point edge landing exactly on hi.
            if idx >= self.counts.len() {
                idx = self.counts.len() - 1;
            }
            self.counts[idx] += 1;
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Count in bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn bin_count(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the top of the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations including under/overflow.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The inclusive lower edge of bin `idx`.
    pub fn bin_lo(&self, idx: usize) -> f64 {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + width * idx as f64
    }

    /// Iterates over `(bin_lo, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        (0..self.counts.len()).map(move |i| (self.bin_lo(i), self.counts[i]))
    }

    /// The empirical CDF evaluated at each bin's *upper* edge, as fractions
    /// in `[0, 1]` of the total count (underflow included from the start).
    pub fn cdf(&self) -> Vec<f64> {
        let total = self.total.max(1) as f64;
        let mut acc = self.underflow;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc as f64 / total
            })
            .collect()
    }
}

/// A gauge integrated over simulation time, e.g. "fraction of time the CPU
/// was busy".
///
/// Feed it level changes with [`TimeWeighted::set`]; query the
/// time-weighted mean over any window that ends at the current instant.
///
/// # Examples
///
/// ```
/// use hydra_sim::stats::TimeWeighted;
/// use hydra_sim::time::SimTime;
///
/// let mut g = TimeWeighted::new(SimTime::ZERO, 0.0);
/// g.set(SimTime::from_millis(2), 1.0); // busy from 2ms
/// let mean = g.mean_until(SimTime::from_millis(4));
/// assert!((mean - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeighted {
    started: SimTime,
    last_change: SimTime,
    level: f64,
    weighted_sum: f64,
}

impl TimeWeighted {
    /// Creates a gauge with an initial level at `start`.
    pub fn new(start: SimTime, level: f64) -> Self {
        TimeWeighted {
            started: start,
            last_change: start,
            level,
            weighted_sum: 0.0,
        }
    }

    /// Sets a new level at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous change.
    pub fn set(&mut self, at: SimTime, level: f64) {
        let span = at.duration_since(self.last_change);
        self.weighted_sum += self.level * span.as_secs_f64();
        self.last_change = at;
        self.level = level;
    }

    /// Adds `delta` to the current level at instant `at`.
    pub fn add(&mut self, at: SimTime, delta: f64) {
        let level = self.level + delta;
        self.set(at, level);
    }

    /// The current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// The time-weighted mean of the level from creation until `now`.
    ///
    /// Returns the current level when no time has elapsed.
    pub fn mean_until(&self, now: SimTime) -> f64 {
        let total = now.saturating_duration_since(self.started).as_secs_f64();
        if total == 0.0 {
            return self.level;
        }
        let tail = now
            .saturating_duration_since(self.last_change)
            .as_secs_f64();
        (self.weighted_sum + self.level * tail) / total
    }

    /// Resets the accumulation window to start at `now`, keeping the level.
    pub fn reset(&mut self, now: SimTime) {
        self.started = now;
        self.last_change = now;
        self.weighted_sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_odd_and_even_medians() {
        let s: Samples = [3.0, 1.0, 2.0].into_iter().collect();
        assert_eq!(s.summary().median, 2.0);
        let s: Samples = [4.0, 1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(s.summary().median, 2.5);
    }

    #[test]
    fn summary_std_dev_matches_hand_computation() {
        let s: Samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        let sum = s.summary();
        assert_eq!(sum.mean, 5.0);
        // Sample variance with n-1 = 32/7.
        assert!((sum.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(sum.min, 2.0);
        assert_eq!(sum.max, 9.0);
        assert_eq!(sum.count, 8);
    }

    #[test]
    fn empty_summary_is_zero() {
        assert_eq!(Samples::new().summary(), Summary::default());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Samples::new().record(f64::NAN);
    }

    #[test]
    fn percentile_interpolates() {
        let s: Samples = [10.0, 20.0, 30.0, 40.0, 50.0].into_iter().collect();
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 50.0);
        assert_eq!(s.percentile(50.0), 30.0);
        assert_eq!(s.percentile(25.0), 20.0);
        assert_eq!(s.percentile(12.5), 15.0);
    }

    #[test]
    fn histogram_binning_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [-1.0, 0.0, 1.9, 2.0, 9.9, 10.0, 42.0] {
            h.record(v);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bin_count(0), 2); // 0.0, 1.9
        assert_eq!(h.bin_count(1), 1); // 2.0
        assert_eq!(h.bin_count(4), 1); // 9.9
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn histogram_cdf_reaches_one_without_overflow() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        for v in [0.5, 1.5, 2.5, 3.5] {
            h.record(v);
        }
        let cdf = h.cdf();
        assert_eq!(cdf, vec![0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn histogram_bin_edges() {
        let h = Histogram::new(2.0, 4.0, 4);
        assert_eq!(h.bin_lo(0), 2.0);
        assert_eq!(h.bin_lo(3), 3.5);
    }

    #[test]
    fn time_weighted_mean() {
        let mut g = TimeWeighted::new(SimTime::ZERO, 0.0);
        g.set(SimTime::from_secs(1), 1.0);
        g.set(SimTime::from_secs(3), 0.0);
        // busy 2s of 4s
        assert!((g.mean_until(SimTime::from_secs(4)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_reset() {
        let mut g = TimeWeighted::new(SimTime::ZERO, 1.0);
        g.reset(SimTime::from_secs(10));
        assert!((g.mean_until(SimTime::from_secs(20)) - 1.0).abs() < 1e-12);
    }
}
