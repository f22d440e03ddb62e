//! Aggregation: scalar folds, hash group-by, and the four parallel
//! synchronization strategies of experiment E4.
//!
//! The paper (§III) uses the aggregation operator as its synchronization
//! case study: "splitting an aggregation operator … into hundreds of
//! different threads eventually implies high synchronization overhead,
//! because every data stream may have database entries of different
//! customer groups", and points at optimistic primitives (Intel TSX) as
//! the way out. [`SyncStrategy`] implements the whole spectrum:
//!
//! * [`SyncStrategy::Mutex`] — a blocking lock per group (the "locks and
//!   latches" status quo),
//! * [`SyncStrategy::Atomic`] — wait-free `fetch_add` per update,
//! * [`SyncStrategy::Optimistic`] — CAS retry loops, the software
//!   analogue of transactional-memory commits,
//! * [`SyncStrategy::Partitioned`] — thread-local partials merged at the
//!   end (no shared writes at all).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::time::Instant;

/// The aggregate function to compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Row count.
    Count,
    /// Sum of values.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Arithmetic mean.
    Avg,
}

impl fmt::Display for AggKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Min => "min",
            AggKind::Max => "max",
            AggKind::Avg => "avg",
        };
        f.write_str(s)
    }
}

/// Accumulator state for one group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AggState {
    /// Rows folded in.
    pub count: u64,
    /// Running sum.
    pub sum: i64,
    /// Running minimum.
    pub min: i64,
    /// Running maximum.
    pub max: i64,
}

impl AggState {
    /// The identity state.
    pub fn empty() -> Self {
        AggState { count: 0, sum: 0, min: i64::MAX, max: i64::MIN }
    }

    /// Folds one value in.
    #[inline]
    pub fn update(&mut self, v: i64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `n` copies of `v` in without iterating — the run/constant
    /// fast path of compression-aware aggregation (one multiply per RLE
    /// run, one call per sentinel-filled segment).
    pub fn update_repeated(&mut self, v: i64, n: usize) {
        if n == 0 {
            return;
        }
        self.count += n as u64;
        self.sum = self.sum.wrapping_add(v.wrapping_mul(n as i64));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another state in (parallel partial merge).
    pub fn merge(&mut self, other: &AggState) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Extracts the requested aggregate (float to cover `Avg`).
    ///
    /// Returns `None` for min/max/avg of an empty group.
    pub fn value(&self, kind: AggKind) -> Option<f64> {
        match kind {
            AggKind::Count => Some(self.count as f64),
            AggKind::Sum => Some(self.sum as f64),
            AggKind::Min => (self.count > 0).then_some(self.min as f64),
            AggKind::Max => (self.count > 0).then_some(self.max as f64),
            AggKind::Avg => (self.count > 0).then(|| self.sum as f64 / self.count as f64),
        }
    }
}

impl Default for AggState {
    fn default() -> Self {
        AggState::empty()
    }
}

/// Folds a whole slice into one state.
pub fn aggregate(data: &[i64]) -> AggState {
    let mut s = AggState::empty();
    for &v in data {
        s.update(v);
    }
    s
}

/// Widest key domain — `hi - lo`, inclusive bounds — a [`GroupAcc`]
/// serves from a flat array: at most 4 096 states (128 KiB, L2-resident)
/// per accumulator, allocated up front whether or not every key occurs.
/// Dictionary codes, enum-like integers and dates fall under it; wider
/// or unknown domains hash.
const DENSE_GROUP_SPAN: u64 = 4095;

/// The group-by accumulator: one [`AggState`] per key.
///
/// When every key is known beforehand to lie in a small contiguous
/// domain `[lo, hi]` (at most 4 096 keys) — a segment's zone map, a
/// dictionary's code space — the states are a flat array indexed by
/// `key - lo`: an update is one subtraction and one indexed
/// read-modify-write. Otherwise they live in a `HashMap`.
#[derive(Clone, Debug)]
pub enum GroupAcc {
    /// `states[i]` is key `lo + i`; keys that never occurred keep
    /// `count == 0`.
    Dense {
        /// The domain's lower bound.
        lo: i64,
        /// One state per key of the domain.
        states: Vec<AggState>,
    },
    /// Arbitrary keys.
    Hash(HashMap<i64, AggState>),
}

impl GroupAcc {
    /// An empty accumulator for keys in the inclusive `domain` (`None`:
    /// unknown), expecting about `groups` distinct keys.
    pub fn new(domain: Option<(i64, i64)>, groups: usize) -> Self {
        match domain {
            Some((lo, hi)) if lo <= hi && hi.abs_diff(lo) <= DENSE_GROUP_SPAN => {
                GroupAcc::Dense { lo, states: vec![AggState::empty(); hi.abs_diff(lo) as usize + 1] }
            }
            _ => GroupAcc::Hash(HashMap::with_capacity(groups)),
        }
    }

    /// The state of `key`, created empty on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `key` lies outside the domain a dense accumulator was
    /// created for.
    #[inline]
    pub fn state(&mut self, key: i64) -> &mut AggState {
        match self {
            GroupAcc::Dense { lo, states } => &mut states[key.wrapping_sub(*lo) as u64 as usize],
            GroupAcc::Hash(map) => map.entry(key).or_default(),
        }
    }

    /// Merges another accumulator's groups in (parallel partial merge).
    pub fn merge(&mut self, other: GroupAcc) {
        for (key, state) in other.into_groups() {
            self.state(key).merge(&state);
        }
    }

    /// The groups that received at least one row, dense ones in key
    /// order.
    pub fn into_groups(self) -> Vec<(i64, AggState)> {
        match self {
            GroupAcc::Dense { lo, states } => states
                .into_iter()
                .enumerate()
                .filter(|(_, state)| state.count > 0)
                .map(|(i, state)| (lo.wrapping_add(i as i64), state))
                .collect(),
            GroupAcc::Hash(map) => map.into_iter().collect(),
        }
    }
}

/// Group-by aggregation over arbitrary `i64` keys — through the same
/// [`GroupAcc`] the query executor folds each execution unit into, its
/// domain measured from the keys in one pass — returning `(key, state)`
/// pairs sorted by key for deterministic output.
pub fn group_aggregate(keys: &[i64], values: &[i64]) -> Vec<(i64, AggState)> {
    assert_eq!(keys.len(), values.len(), "keys/values length mismatch");
    let domain = keys.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    let mut acc = GroupAcc::new(Some(domain), 0);
    for (&k, &v) in keys.iter().zip(values) {
        acc.state(k).update(v);
    }
    let mut out = acc.into_groups();
    out.sort_unstable_by_key(|&(k, _)| k);
    out
}

/// Synchronization strategy for parallel grouped aggregation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SyncStrategy {
    /// One blocking lock per group.
    Mutex,
    /// Wait-free `fetch_add` per update.
    Atomic,
    /// CAS retry loop per update (optimistic, TSX-analogue).
    Optimistic,
    /// Thread-local partials, merged once at the end.
    Partitioned,
}

impl SyncStrategy {
    /// All strategies in canonical order.
    pub const ALL: [SyncStrategy; 4] =
        [SyncStrategy::Mutex, SyncStrategy::Atomic, SyncStrategy::Optimistic, SyncStrategy::Partitioned];
}

impl fmt::Display for SyncStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SyncStrategy::Mutex => "mutex",
            SyncStrategy::Atomic => "atomic",
            SyncStrategy::Optimistic => "optimistic",
            SyncStrategy::Partitioned => "partitioned",
        };
        f.write_str(s)
    }
}

/// Report from a [`parallel_group_sum`] run.
#[derive(Clone, Debug, PartialEq)]
pub struct ParallelAggReport {
    /// Per-group sums.
    pub sums: Vec<i64>,
    /// Threads used.
    pub threads: usize,
    /// Measured wall time.
    pub wall: std::time::Duration,
    /// CAS retries (optimistic strategy only).
    pub retries: u64,
}

/// Sums `values` into `groups` buckets selected by `keys` (each in
/// `[0, groups)`), using `threads` real OS threads synchronized by
/// `strategy`. Rows are dealt to threads round-robin in fixed-size
/// morsels so every thread touches every group — the adversarial layout
/// the paper describes.
///
/// # Panics
///
/// Panics if `keys.len() != values.len()`, `groups == 0`, `threads == 0`,
/// or any key is out of range.
pub fn parallel_group_sum(
    keys: &[u32],
    values: &[i64],
    groups: usize,
    threads: usize,
    strategy: SyncStrategy,
) -> ParallelAggReport {
    assert_eq!(keys.len(), values.len(), "keys/values length mismatch");
    assert!(groups > 0, "need at least one group");
    assert!(threads > 0, "need at least one thread");
    assert!(keys.iter().all(|&k| (k as usize) < groups), "key out of range");

    const MORSEL: usize = 1024;
    let cursor = AtomicUsize::new(0);
    let n = keys.len();
    let start = Instant::now();
    let retries = AtomicUsize::new(0);

    let sums: Vec<i64> = match strategy {
        SyncStrategy::Mutex => {
            let cells: Vec<Mutex<i64>> = (0..groups).map(|_| Mutex::new(0)).collect();
            crossbeam::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|_| loop {
                        let lo = cursor.fetch_add(MORSEL, Ordering::Relaxed);
                        if lo >= n {
                            break;
                        }
                        let hi = (lo + MORSEL).min(n);
                        for i in lo..hi {
                            *cells[keys[i] as usize].lock() += values[i];
                        }
                    });
                }
            })
            .expect("aggregation worker panicked");
            cells.into_iter().map(|m| m.into_inner()).collect()
        }
        SyncStrategy::Atomic => {
            let cells: Vec<AtomicI64> = (0..groups).map(|_| AtomicI64::new(0)).collect();
            crossbeam::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|_| loop {
                        let lo = cursor.fetch_add(MORSEL, Ordering::Relaxed);
                        if lo >= n {
                            break;
                        }
                        let hi = (lo + MORSEL).min(n);
                        for i in lo..hi {
                            cells[keys[i] as usize].fetch_add(values[i], Ordering::Relaxed);
                        }
                    });
                }
            })
            .expect("aggregation worker panicked");
            cells.into_iter().map(AtomicI64::into_inner).collect()
        }
        SyncStrategy::Optimistic => {
            let cells: Vec<AtomicI64> = (0..groups).map(|_| AtomicI64::new(0)).collect();
            crossbeam::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|_| {
                        let mut local_retries = 0usize;
                        loop {
                            let lo = cursor.fetch_add(MORSEL, Ordering::Relaxed);
                            if lo >= n {
                                break;
                            }
                            let hi = (lo + MORSEL).min(n);
                            for i in lo..hi {
                                let cell = &cells[keys[i] as usize];
                                let mut cur = cell.load(Ordering::Relaxed);
                                loop {
                                    match cell.compare_exchange_weak(
                                        cur,
                                        cur.wrapping_add(values[i]),
                                        Ordering::Relaxed,
                                        Ordering::Relaxed,
                                    ) {
                                        Ok(_) => break,
                                        Err(observed) => {
                                            local_retries += 1;
                                            cur = observed;
                                        }
                                    }
                                }
                            }
                        }
                        retries.fetch_add(local_retries, Ordering::Relaxed);
                    });
                }
            })
            .expect("aggregation worker panicked");
            cells.into_iter().map(AtomicI64::into_inner).collect()
        }
        SyncStrategy::Partitioned => {
            let partials: Vec<Mutex<Vec<i64>>> =
                (0..threads).map(|_| Mutex::new(vec![0i64; groups])).collect();
            crossbeam::scope(|scope| {
                for t in 0..threads {
                    let partial = &partials[t];
                    let cursor = &cursor;
                    scope.spawn(move |_| {
                        let mut local = vec![0i64; groups];
                        loop {
                            let lo = cursor.fetch_add(MORSEL, Ordering::Relaxed);
                            if lo >= n {
                                break;
                            }
                            let hi = (lo + MORSEL).min(n);
                            for i in lo..hi {
                                local[keys[i] as usize] += values[i];
                            }
                        }
                        *partial.lock() = local;
                    });
                }
            })
            .expect("aggregation worker panicked");
            let mut sums = vec![0i64; groups];
            for p in partials {
                for (s, v) in sums.iter_mut().zip(p.into_inner()) {
                    *s += v;
                }
            }
            sums
        }
    };

    ParallelAggReport {
        sums,
        threads,
        wall: start.elapsed(),
        retries: retries.load(Ordering::Relaxed) as u64,
    }
}

/// First-order analytic speedup model for thread counts beyond the
/// physical cores of the reproduction machine (documented in the exps module docs;
/// used by experiment E4's extrapolated columns).
///
/// The model is Amdahl with a strategy-specific contention term that
/// grows with threads-per-group:
/// `speedup(t) = t / (1 + serial·(t-1) + contention·(t-1)/groups)`.
pub fn predicted_speedup(strategy: SyncStrategy, threads: usize, groups: usize) -> f64 {
    let t = threads as f64;
    let g = groups.max(1) as f64;
    let (serial, contention) = match strategy {
        SyncStrategy::Mutex => (0.002, 8.0),
        SyncStrategy::Atomic => (0.001, 1.5),
        SyncStrategy::Optimistic => (0.001, 2.5),
        SyncStrategy::Partitioned => (0.004, 0.0),
    };
    t / (1.0 + serial * (t - 1.0) + contention * (t - 1.0) / g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_state_folds() {
        let s = aggregate(&[3, -1, 7, 7]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 16);
        assert_eq!(s.min, -1);
        assert_eq!(s.max, 7);
        assert_eq!(s.value(AggKind::Avg), Some(4.0));
        assert_eq!(s.value(AggKind::Count), Some(4.0));
    }

    #[test]
    fn empty_state_values() {
        let s = AggState::empty();
        assert_eq!(s.value(AggKind::Count), Some(0.0));
        assert_eq!(s.value(AggKind::Sum), Some(0.0));
        assert_eq!(s.value(AggKind::Min), None);
        assert_eq!(s.value(AggKind::Max), None);
        assert_eq!(s.value(AggKind::Avg), None);
    }

    #[test]
    fn update_repeated_equals_looped() {
        let mut looped = AggState::empty();
        for _ in 0..1000 {
            looped.update(-7);
        }
        looped.update(3);
        let mut batched = AggState::empty();
        batched.update_repeated(-7, 1000);
        batched.update_repeated(3, 1);
        batched.update_repeated(99, 0); // no-op
        assert_eq!(batched, looped);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<i64> = (0..100).map(|i| i * 31 % 17 - 8).collect();
        let whole = aggregate(&data);
        let mut a = aggregate(&data[..40]);
        let b = aggregate(&data[40..]);
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn group_aggregate_basic() {
        let keys = vec![2, 1, 2, 1, 2];
        let vals = vec![10, 20, 30, 40, 50];
        let out = group_aggregate(&keys, &vals);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 1);
        assert_eq!(out[0].1.sum, 60);
        assert_eq!(out[1].0, 2);
        assert_eq!(out[1].1.sum, 90);
    }

    #[test]
    fn group_acc_dense_and_hash_agree() {
        // Narrow domains take the flat array, wide ones (and extreme
        // keys, whose span overflows `i64`) the hash; answers agree.
        let shapes: [(&[i64], bool); 5] = [
            (&[3, -2, 3, 0, -2, 3], true),
            (&[0, DENSE_GROUP_SPAN as i64], true),
            (&[0, DENSE_GROUP_SPAN as i64 + 1], false),
            (&[i64::MAX - 2, i64::MAX, i64::MAX], true),
            (&[i64::MIN, i64::MAX, 0, i64::MIN], false),
        ];
        for (keys, dense) in shapes {
            let values: Vec<i64> = (0..keys.len() as i64).map(|i| i * 7 - 3).collect();
            let domain = (*keys.iter().min().unwrap(), *keys.iter().max().unwrap());
            assert_eq!(matches!(GroupAcc::new(Some(domain), 0), GroupAcc::Dense { .. }), dense, "{keys:?}");
            let mut reference: HashMap<i64, AggState> = HashMap::new();
            for (&k, &v) in keys.iter().zip(&values) {
                reference.entry(k).or_default().update(v);
            }
            let mut want: Vec<(i64, AggState)> = reference.into_iter().collect();
            want.sort_unstable_by_key(|&(k, _)| k);
            assert_eq!(group_aggregate(keys, &values), want, "{keys:?}");
            // Partials merge across shapes: a dense half into a hash total.
            let mid = keys.len() / 2;
            let mut total = GroupAcc::new(None, 0);
            for (ks, vs) in [(&keys[..mid], &values[..mid]), (&keys[mid..], &values[mid..])] {
                let dom = ks.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)));
                let mut part = GroupAcc::new(Some(dom), 0);
                ks.iter().zip(vs).for_each(|(&k, &v)| part.state(k).update(v));
                total.merge(part);
            }
            let mut got = total.into_groups();
            got.sort_unstable_by_key(|&(k, _)| k);
            assert_eq!(got, want, "{keys:?} merged");
        }
        assert!(group_aggregate(&[], &[]).is_empty());
        assert!(matches!(GroupAcc::new(Some((5, 4)), 0), GroupAcc::Hash(_)), "inverted domain");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn group_aggregate_ragged_panics() {
        group_aggregate(&[1], &[1, 2]);
    }

    fn workload(n: usize, groups: usize) -> (Vec<u32>, Vec<i64>, Vec<i64>) {
        let keys: Vec<u32> = (0..n).map(|i| ((i * 2_654_435_761) % groups) as u32).collect();
        let values: Vec<i64> = (0..n).map(|i| (i % 1000) as i64 - 500).collect();
        let mut expected = vec![0i64; groups];
        for (k, v) in keys.iter().zip(&values) {
            expected[*k as usize] += v;
        }
        (keys, values, expected)
    }

    #[test]
    fn all_strategies_agree_single_thread() {
        let (keys, values, expected) = workload(50_000, 16);
        for s in SyncStrategy::ALL {
            let r = parallel_group_sum(&keys, &values, 16, 1, s);
            assert_eq!(r.sums, expected, "{s}");
        }
    }

    #[test]
    fn all_strategies_agree_multi_thread() {
        let (keys, values, expected) = workload(80_000, 8);
        for s in SyncStrategy::ALL {
            for t in [2, 4] {
                let r = parallel_group_sum(&keys, &values, 8, t, s);
                assert_eq!(r.sums, expected, "{s} x{t}");
            }
        }
    }

    #[test]
    fn optimistic_reports_retries_under_contention() {
        // One group, several threads: heavy CAS contention.
        let n = 200_000;
        let keys = vec![0u32; n];
        let values = vec![1i64; n];
        let r = parallel_group_sum(&keys, &values, 1, 4, SyncStrategy::Optimistic);
        assert_eq!(r.sums[0], n as i64);
        // Retries are timing-dependent; on any multi-core machine some
        // occur, but do not require it (CI may be single-core).
        assert!(r.retries < (n * 4) as u64);
    }

    #[test]
    fn partitioned_never_retries() {
        let (keys, values, _) = workload(10_000, 4);
        let r = parallel_group_sum(&keys, &values, 4, 4, SyncStrategy::Partitioned);
        assert_eq!(r.retries, 0);
    }

    #[test]
    #[should_panic(expected = "key out of range")]
    fn out_of_range_key_panics() {
        parallel_group_sum(&[5], &[1], 4, 1, SyncStrategy::Atomic);
    }

    #[test]
    fn predicted_speedup_shapes() {
        // Partitioned scales best at high thread counts with few groups.
        let t = 128;
        let g = 4;
        let part = predicted_speedup(SyncStrategy::Partitioned, t, g);
        let mutex = predicted_speedup(SyncStrategy::Mutex, t, g);
        let atomic = predicted_speedup(SyncStrategy::Atomic, t, g);
        let optimistic = predicted_speedup(SyncStrategy::Optimistic, t, g);
        assert!(
            part > atomic && atomic > optimistic && optimistic > mutex,
            "part={part:.1} atomic={atomic:.1} opt={optimistic:.1} mutex={mutex:.1}"
        );
        // With many groups, contention vanishes and all strategies are
        // within 2x of each other.
        let g = 100_000;
        let lo = SyncStrategy::ALL.iter().map(|&s| predicted_speedup(s, t, g)).fold(f64::INFINITY, f64::min);
        let hi = SyncStrategy::ALL.iter().map(|&s| predicted_speedup(s, t, g)).fold(0.0, f64::max);
        assert!(hi / lo < 2.0, "lo={lo} hi={hi}");
        // Monotone in t for partitioned.
        assert!(
            predicted_speedup(SyncStrategy::Partitioned, 64, 16)
                > predicted_speedup(SyncStrategy::Partitioned, 8, 16)
        );
    }

    #[test]
    fn displays() {
        assert_eq!(format!("{}", AggKind::Sum), "sum");
        assert_eq!(format!("{}", SyncStrategy::Optimistic), "optimistic");
    }
}
