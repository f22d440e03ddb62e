//! Secondary indexes with Need-to-Know maintenance (paper §IV.A).
//!
//! The Need-to-Know principle: *"a system … would only update the index
//! if another application has indicated interest in reading the index"*,
//! versus the classical principle of ubiquity that maintains every index
//! on every update. [`IndexMaintenance`] selects the behaviour;
//! experiment E9 measures the maintenance work each does on the engine.
//!
//! An index lives in the stores, not beside them. Every integer column
//! of a main segment or a sealed delta chunk keeps a cell for its own
//! index — a [`haec_exec::join::HashJoin`] of the column's values to the
//! store's rows, ascending per value — filled at most once
//! ([`crate::segment::SegColumn`]). Stores never change, so an index
//! cell can never go stale: there is nothing to maintain on insert and
//! nothing to rebuild after a (sorting) merge, and every snapshot reads
//! exactly the cells of the stores it pinned. The disciplines differ
//! only in who fills a cell:
//!
//! * **Eager** fills the cells of every store `create_index` finds and
//!   of every segment a merge builds, in the merge's lock-free build
//!   phase;
//! * **Need-to-Know** leaves each cell to the first query that reads it.
//!
//! A sealed chunk's cell is always filled by its first reader (sealing
//! is a pointer move on the insert path), and a cell an eager build
//! missed — a merge racing `create_index`, a build that failed — is
//! filled the same way, so answers never depend on eagerness. A
//! snapshot's private delta chunk keeps no index: a lookup scans it.
//!
//! What a table knows of its indexes is a list of `Index` entries —
//! the column, the discipline and the work counters — that every
//! snapshot captures when it is pinned.

use crate::segment::SegColumn;
use crate::table::Store;
use haec_exec::join::HashJoin;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Index maintenance discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexMaintenance {
    /// Classical ubiquity: index every store as soon as it exists.
    Eager,
    /// Need-to-Know: index a store only once a reader asks for it.
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

/// Work counters for the E9 comparison (see
/// [`crate::db::Database::index_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Rows indexed by store builds, whoever triggered them.
    pub maintenance_ops: u64,
    /// Store builds triggered by a reader.
    pub catchups: u64,
    /// Queries that took the index path.
    pub lookups: u64,
}

/// One indexed column of a table: what the table's index list holds.
#[derive(Debug)]
pub(crate) struct Index {
    /// Schema position of the indexed integer column.
    pub(crate) column: usize,
    pub(crate) maintenance: IndexMaintenance,
    lookups: AtomicU64,
    maintenance_ops: AtomicU64,
    catchups: AtomicU64,
    /// Rows and encoded column bytes of the store builds not yet charged
    /// to the meter ([`Index::take_unbilled`]).
    unbilled: (AtomicU64, AtomicU64),
}

impl Index {
    pub(crate) fn new(column: usize, maintenance: IndexMaintenance) -> Self {
        Index {
            column,
            maintenance,
            lookups: AtomicU64::new(0),
            maintenance_ops: AtomicU64::new(0),
            catchups: AtomicU64::new(0),
            unbilled: (AtomicU64::new(0), AtomicU64::new(0)),
        }
    }

    /// Work counters so far.
    pub(crate) fn stats(&self) -> IndexStats {
        IndexStats {
            maintenance_ops: self.maintenance_ops.load(Ordering::Relaxed),
            catchups: self.catchups.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
        }
    }

    /// Counts one query that took the index path.
    pub(crate) fn looked_up(&self) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
    }

    /// `store`'s index of this column, built from the decoded column on
    /// the first ask — a catch-up when a `reader` asks — and kept. A
    /// build that panics leaves the cell empty for the next ask. `None`
    /// where the store keeps none: a snapshot's private chunk, or a
    /// store that predates the column.
    pub(crate) fn on<'a>(&self, store: Store<'a>, reader: bool) -> Option<&'a HashJoin> {
        let Some(SegColumn::Int { data, index, .. }) = store.column(self.column) else { return None };
        if matches!(store, Store::Chunk { sealed: false, .. }) {
            return None;
        }
        Some(index.get_or_init(|| {
            fail::fail_point!("index::build");
            let table = HashJoin::build(&data.decode());
            let rows = store.rows() as u64;
            self.maintenance_ops.fetch_add(rows, Ordering::Relaxed);
            self.catchups.fetch_add(u64::from(reader), Ordering::Relaxed);
            self.unbilled.0.fetch_add(rows, Ordering::Relaxed);
            self.unbilled.1.fetch_add(data.size_bytes() as u64, Ordering::Relaxed);
            table
        }))
    }

    /// Takes the rows and encoded bytes of the store builds since the
    /// last call, for the caller to charge as maintenance — each build's
    /// exactly once, whoever triggered it.
    pub(crate) fn take_unbilled(&self) -> (u64, u64) {
        if self.unbilled.0.load(Ordering::Relaxed) == 0 {
            return (0, 0);
        }
        (self.unbilled.0.swap(0, Ordering::Relaxed), self.unbilled.1.swap(0, Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{Database, Query};
    use crate::schema::Record;
    use haec_columnar::value::{CmpOp, DataType};
    use haec_planner::access::AccessPath;

    /// 20 000 rows keyed `k = i mod 1000`, auto-merged every 4 096 rows:
    /// four segments of 4 096 rows, then three sealed delta chunks of
    /// 1 024 and an open one of 544. Indexed on `k` under `maintenance`
    /// before the first insert, if given.
    fn loaded(maintenance: Option<IndexMaintenance>) -> Database {
        let db = Database::new();
        db.create_table("t", &[("k", DataType::Int64), ("v", DataType::Int64)]).unwrap();
        db.set_merge_threshold("t", 4096).unwrap();
        if let Some(m) = maintenance {
            db.create_index("t", "k", m).unwrap();
        }
        insert(&db, 0..20_000);
        db
    }

    fn insert(db: &Database, ids: std::ops::Range<i64>) {
        for i in ids {
            db.insert("t", &Record::new().with("k", i % 1000).with("v", i)).unwrap();
        }
    }

    /// The `v` of every row with `k = key`, and the path taken.
    fn lookup(db: &Database, key: i64) -> (Vec<i64>, Option<AccessPath>) {
        let out = db.execute(&Query::scan("t").filter("k", CmpOp::Eq, key).select(["v"])).unwrap();
        let vs = (0..out.rows.rows()).map(|r| out.rows.row(r).unwrap()[0].as_int().unwrap()).collect();
        (vs, out.access_path)
    }

    fn stats(db: &Database) -> IndexStats {
        db.index_stats("t", "k").unwrap()
    }

    #[test]
    fn eager_maintains_immediately() {
        let db = loaded(Some(IndexMaintenance::Eager));
        // Every merge indexed its segment; no reader has asked yet.
        assert_eq!(stats(&db), IndexStats { maintenance_ops: 16_384, catchups: 0, lookups: 0 });
        let (vs, path) = lookup(&db, 3);
        assert_eq!(vs, (0..20).map(|j| 3 + 1000 * j).collect::<Vec<_>>());
        assert_eq!(path, Some(AccessPath::IndexLookup));
        // Sealed chunks are indexed by their first reader under either
        // discipline; the open chunk is scanned.
        assert_eq!(stats(&db), IndexStats { maintenance_ops: 16_384 + 3 * 1024, catchups: 3, lookups: 1 });
    }

    #[test]
    fn need_to_know_defers_until_read() {
        let db = loaded(Some(IndexMaintenance::NeedToKnow));
        assert_eq!(stats(&db).maintenance_ops, 0, "no reader, no work");
        // The first read pays for every store its zones let through.
        assert_eq!(lookup(&db, 3).0.len(), 20);
        assert_eq!(stats(&db), IndexStats { maintenance_ops: 16_384 + 3 * 1024, catchups: 7, lookups: 1 });
        // Later reads of the same stores build nothing.
        assert_eq!(lookup(&db, 4).0.len(), 20);
        assert_eq!(stats(&db), IndexStats { maintenance_ops: 16_384 + 3 * 1024, catchups: 7, lookups: 2 });
    }

    #[test]
    fn write_only_workload_never_pays() {
        // The paper's motivating case: an index nobody reads costs an
        // eager system work — metered — and a need-to-know system none.
        let eager = loaded(Some(IndexMaintenance::Eager));
        let ntk = loaded(Some(IndexMaintenance::NeedToKnow));
        let unindexed = loaded(None);
        assert_eq!(stats(&eager).maintenance_ops, 16_384);
        assert_eq!(stats(&ntk), IndexStats::default());
        let joules = |db: &Database| db.meter().grand_total().joules();
        assert_eq!(joules(&ntk), joules(&unindexed), "an unread index is free");
        assert!(joules(&eager) > joules(&ntk), "eager builds are billed as maintenance");
    }

    #[test]
    fn results_identical_across_disciplines() {
        let eager = loaded(Some(IndexMaintenance::Eager));
        let ntk = loaded(Some(IndexMaintenance::NeedToKnow));
        let scan = loaded(None);
        for k in (0..37).chain([999, 1000, -1]) {
            let want = lookup(&scan, k).0;
            assert_eq!(lookup(&eager, k).0, want, "key {k}");
            assert_eq!(lookup(&ntk, k).0, want, "key {k}");
        }
    }

    #[test]
    fn interleaved_writes_and_reads() {
        let db = loaded(Some(IndexMaintenance::NeedToKnow));
        let scan = loaded(None);
        assert_eq!(lookup(&db, 1).0, lookup(&scan, 1).0);
        let built = stats(&db).catchups;
        // Writes after a read: a merge builds a segment (need-to-know
        // leaves it bare) and new chunks seal; the next read indexes them
        // and sees every new row.
        for db in [&db, &scan] {
            insert(db, 20_000..26_000);
        }
        assert_eq!(stats(&db).catchups, built, "writes build nothing");
        let (vs, _) = lookup(&db, 1);
        assert_eq!(vs, lookup(&scan, 1).0);
        assert_eq!(vs.len(), 26);
        let built = stats(&db).catchups;
        assert!(built > 7, "the new stores were indexed by the read");
        assert_eq!(lookup(&db, 2).0, lookup(&scan, 2).0);
        assert_eq!(stats(&db).catchups, built, "a second read builds nothing");
    }

    #[test]
    fn missing_key_empty() {
        for m in [IndexMaintenance::Eager, IndexMaintenance::NeedToKnow] {
            let db = loaded(Some(m));
            let before = stats(&db).maintenance_ops;
            assert!(lookup(&db, 5_000).0.is_empty());
            // Every zone excludes the key: no store is read or built.
            assert_eq!(stats(&db).maintenance_ops, before, "{m}");
        }
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", IndexMaintenance::NeedToKnow), "need-to-know");
    }
}
