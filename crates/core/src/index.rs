//! Secondary indexes with Need-to-Know maintenance (paper §IV.A).
//!
//! The Need-to-Know principle: *"a system … would only update the index
//! if another application has indicated interest in reading the index"*,
//! versus the classical principle of ubiquity that maintains every index
//! on every update. [`IndexMaintenance`] selects the behaviour;
//! experiment E9 measures maintenance work and lookup latency under
//! update-heavy workloads with varying reader interest.

use std::collections::HashMap;
use std::fmt;

/// Index maintenance discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexMaintenance {
    /// Classical ubiquity: update the index on every write.
    Eager,
    /// Need-to-Know: defer maintenance until a reader shows interest.
    NeedToKnow,
}

impl fmt::Display for IndexMaintenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexMaintenance::Eager => f.write_str("eager"),
            IndexMaintenance::NeedToKnow => f.write_str("need-to-know"),
        }
    }
}

/// Work counters for the E9 comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Individual key insertions performed (eager or catch-up).
    pub maintenance_ops: u64,
    /// Catch-up passes triggered by readers.
    pub catchups: u64,
    /// Lookups served.
    pub lookups: u64,
}

/// A hash index over an `i64` column, mapping key → row ids.
///
/// ```
/// use haecdb::index::{IndexMaintenance, SecondaryIndex};
/// let mut idx = SecondaryIndex::new(IndexMaintenance::NeedToKnow);
/// idx.on_insert(7, 0);
/// idx.on_insert(7, 1);
/// assert_eq!(idx.stats().maintenance_ops, 0); // deferred
/// assert_eq!(idx.lookup(7), vec![0, 1]);      // reader triggers catch-up
/// assert_eq!(idx.stats().maintenance_ops, 2);
/// ```
#[derive(Clone, Debug)]
pub struct SecondaryIndex {
    maintenance: IndexMaintenance,
    map: HashMap<i64, Vec<u32>>,
    /// Writes not yet reflected in `map` (Need-to-Know backlog).
    backlog: Vec<(i64, u32)>,
    stats: IndexStats,
}

impl SecondaryIndex {
    /// Creates an empty index under the given discipline.
    pub fn new(maintenance: IndexMaintenance) -> Self {
        SecondaryIndex { maintenance, map: HashMap::new(), backlog: Vec::new(), stats: IndexStats::default() }
    }

    /// The maintenance discipline.
    pub fn maintenance(&self) -> IndexMaintenance {
        self.maintenance
    }

    /// Work counters so far.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Rows pending in the backlog (Need-to-Know only).
    // haec-lint: allow(dead-pub) — the index tests observe Need-to-Know's deferred work through it.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Makes room for the rows about to be inserted, `counts[key]` of
    /// them under each key: an eager index allocates each key's row list
    /// once at its final size — grown by doubling instead, every outgrown
    /// copy is left behind as heap garbage — and a Need-to-Know index
    /// sizes its backlog.
    pub(crate) fn reserve(&mut self, counts: &HashMap<i64, usize>) {
        match self.maintenance {
            IndexMaintenance::Eager => {
                self.map.reserve(counts.len());
                for (&key, &n) in counts {
                    self.map.entry(key).or_default().reserve_exact(n);
                }
            }
            IndexMaintenance::NeedToKnow => self.backlog.reserve_exact(counts.values().sum()),
        }
    }

    /// Notifies the index of a new row with key `key` at `row`.
    pub fn on_insert(&mut self, key: i64, row: u32) {
        match self.maintenance {
            IndexMaintenance::Eager => {
                self.map.entry(key).or_default().push(row);
                self.stats.maintenance_ops += 1;
            }
            IndexMaintenance::NeedToKnow => {
                self.backlog.push((key, row));
            }
        }
    }

    /// Brings a Need-to-Know index up to date (no-op when eager or
    /// already current).
    fn catch_up(&mut self) {
        if self.backlog.is_empty() {
            return;
        }
        self.stats.catchups += 1;
        for (key, row) in self.backlog.drain(..) {
            self.map.entry(key).or_default().push(row);
            self.stats.maintenance_ops += 1;
        }
    }

    /// Looks up the rows for `key`. A lookup *is* reader interest, so a
    /// deferred index catches up first — that latency is the price of
    /// the saved maintenance, and exactly what E9 charts.
    pub fn lookup(&mut self, key: i64) -> Vec<u32> {
        self.catch_up();
        self.stats.lookups += 1;
        self.map.get(&key).cloned().unwrap_or_default()
    }

    /// Number of distinct keys currently indexed (excludes backlog).
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_maintains_immediately() {
        let mut idx = SecondaryIndex::new(IndexMaintenance::Eager);
        for i in 0..100u32 {
            idx.on_insert((i % 10) as i64, i);
        }
        assert_eq!(idx.stats().maintenance_ops, 100);
        assert_eq!(idx.backlog_len(), 0);
        assert_eq!(idx.lookup(3).len(), 10);
        assert_eq!(idx.stats().catchups, 0);
    }

    #[test]
    fn need_to_know_defers_until_read() {
        let mut idx = SecondaryIndex::new(IndexMaintenance::NeedToKnow);
        for i in 0..100u32 {
            idx.on_insert((i % 10) as i64, i);
        }
        assert_eq!(idx.stats().maintenance_ops, 0, "no reader, no work");
        assert_eq!(idx.backlog_len(), 100);
        // First read pays the catch-up.
        assert_eq!(idx.lookup(3).len(), 10);
        assert_eq!(idx.stats().maintenance_ops, 100);
        assert_eq!(idx.stats().catchups, 1);
        assert_eq!(idx.backlog_len(), 0);
        // Subsequent reads are cheap.
        assert_eq!(idx.lookup(4).len(), 10);
        assert_eq!(idx.stats().catchups, 1);
    }

    #[test]
    fn write_only_workload_never_pays() {
        // The paper's motivating case: an index nobody reads costs an
        // eager system work and a need-to-know system nothing.
        let mut eager = SecondaryIndex::new(IndexMaintenance::Eager);
        let mut ntk = SecondaryIndex::new(IndexMaintenance::NeedToKnow);
        for i in 0..10_000u32 {
            eager.on_insert(i as i64, i);
            ntk.on_insert(i as i64, i);
        }
        assert_eq!(eager.stats().maintenance_ops, 10_000);
        assert_eq!(ntk.stats().maintenance_ops, 0);
    }

    #[test]
    fn results_identical_across_disciplines() {
        let mut eager = SecondaryIndex::new(IndexMaintenance::Eager);
        let mut ntk = SecondaryIndex::new(IndexMaintenance::NeedToKnow);
        for i in 0..1000u32 {
            let k = (i % 37) as i64;
            eager.on_insert(k, i);
            ntk.on_insert(k, i);
        }
        for k in 0..37 {
            assert_eq!(eager.lookup(k), ntk.lookup(k), "key {k}");
        }
    }

    #[test]
    fn interleaved_writes_and_reads() {
        let mut idx = SecondaryIndex::new(IndexMaintenance::NeedToKnow);
        idx.on_insert(1, 0);
        assert_eq!(idx.lookup(1), vec![0]);
        idx.on_insert(1, 1);
        idx.on_insert(2, 2);
        assert_eq!(idx.backlog_len(), 2);
        assert_eq!(idx.lookup(1), vec![0, 1]);
        assert_eq!(idx.lookup(2), vec![2]);
        assert_eq!(idx.stats().catchups, 2);
    }

    #[test]
    fn missing_key_empty() {
        let mut idx = SecondaryIndex::new(IndexMaintenance::Eager);
        assert!(idx.lookup(99).is_empty());
        assert_eq!(idx.distinct_keys(), 0);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", IndexMaintenance::NeedToKnow), "need-to-know");
    }
}
