//! Measurement collection: histograms, percentiles, running summaries.
//!
//! Every experiment reports latency percentiles, throughput and
//! utilization; this module is the one implementation all of them share.

use std::fmt;
use std::time::Duration;

/// Running mean / variance / extrema via Welford's algorithm.
///
/// ```
/// use haec_sim::stats::Summary;
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] { s.record(x); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let d = x - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one (parallel Welford).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} std={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(0.0),
            self.max().unwrap_or(0.0)
        )
    }
}

/// HDR-style log-linear histogram over positive values, built for latency
/// percentiles: ~1.6% relative error, fixed memory, O(1) insert.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// 64 exponent buckets × 64 linear sub-buckets.
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

const SUB_BUCKETS: usize = 64;
const SUB_BITS: u32 = 6;

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram { buckets: vec![0; 64 * SUB_BUCKETS], count: 0, sum: 0.0 }
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        // Exponent group: values in [2^e, 2^{e+1}) share a group of
        // SUB_BUCKETS linear sub-buckets of width 2^{e-SUB_BITS}.
        let e = 63 - value.leading_zeros(); // e >= SUB_BITS here
        let shift = e - SUB_BITS;
        let sub = (value >> shift) as usize - SUB_BUCKETS; // in [0, SUB_BUCKETS)
        (e - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
    }

    fn value_of(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let group = index / SUB_BUCKETS - 1; // = e - SUB_BITS
        let sub = index % SUB_BUCKETS;
        // Lower bound of the bucket; within 1/SUB_BUCKETS relative error.
        ((SUB_BUCKETS + sub) as u64) << group
    }

    /// Records one non-negative integer value (e.g. nanoseconds).
    pub fn record(&mut self, value: u64) {
        let idx = Self::index_of(value).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as f64;
    }

    /// Records a duration with nanosecond resolution.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The value at quantile `q` ∈ [0, 1]: the lower bound of the bucket
    /// holding the nearest-rank sample, so at most ~1.6% below it
    /// (`None` if empty).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::value_of(i));
            }
        }
        Some(Self::value_of(self.buckets.len() - 1))
    }

    /// Quantile as a `Duration` (for nanosecond-recorded histograms).
    pub fn quantile_duration(&self, q: f64) -> Option<Duration> {
        self.quantile(q).map(Duration::from_nanos)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.0} p50={} p95={} p99={}",
            self.count,
            self.mean(),
            self.quantile(0.50).unwrap_or(0),
            self.quantile(0.95).unwrap_or(0),
            self.quantile(0.99).unwrap_or(0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        a.record(5.0);
        let b = Summary::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Summary::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 5.0);
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        // Small values land in exact buckets.
        assert_eq!(h.quantile(1.0), Some(63));
        assert_eq!(h.count(), 64);
    }

    #[test]
    fn histogram_quantiles_bounded_error() {
        let mut h = Histogram::new();
        for i in 1..=100_000u64 {
            h.record(i);
        }
        let p50 = h.quantile(0.5).unwrap() as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.02, "p50={p50}");
        let p99 = h.quantile(0.99).unwrap() as f64;
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.02, "p99={p99}");
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..1000 {
            if i % 2 == 0 {
                a.record(i);
            } else {
                b.record(i);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        let p50 = a.quantile(0.5).unwrap() as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.05);
    }

    #[test]
    fn histogram_durations() {
        let mut h = Histogram::new();
        h.record_duration(Duration::from_micros(100));
        let q = h.quantile_duration(1.0).unwrap();
        let err = (q.as_nanos() as f64 - 100_000.0).abs() / 100_000.0;
        assert!(err < 0.02, "q={q:?}");
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        assert_eq!(h.mean(), 15.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn histogram_bad_quantile_panics() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn displays_nonempty() {
        let mut s = Summary::new();
        s.record(1.0);
        assert!(format!("{s}").contains("n=1"));
        let mut h = Histogram::new();
        h.record(5);
        assert!(format!("{h}").contains("n=1"));
    }
}
