//! Model-checked verification of the `Table` two-phase merge publish
//! against pinned snapshot readers and racing inserts.
//!
//! Only built under `RUSTFLAGS="--cfg haec_loom"`: the `parking_lot`
//! shim then wraps the `loom` shim's model-checked locks, so the
//! table's real lock protocol (unchanged) runs under `loom::model`'s
//! interleaving exploration. Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg haec_loom" cargo test -p haecdb --test loom_merge --release
//! ```
#![cfg(haec_loom)]

use haec_planner::access::AccessPath;
use haecdb::prelude::*;
use loom::sync::Arc;

fn int_schema() -> TableSchema {
    TableSchema::strict(vec![("v".into(), DataType::Int64)])
}

fn sum(snapshot: &TableSnapshot) -> i64 {
    snapshot.gather_ints("v", None).expect("int column").iter().sum()
}

/// A reader pinned at an existing timestamp races the merge swap: in
/// every interleaving the pin must succeed (the merge folds only older
/// rows) and serve exactly the pinned prefix, whether it reads the
/// pre-merge delta or the post-merge main.
#[test]
fn pinned_reader_survives_merge_publish() {
    let report = loom::model(|| {
        let table = Arc::new(Table::new("t", int_schema()));
        let oracle = Arc::new(TimestampOracle::new());
        table.insert(&Record::new().with("v", 1i64), &oracle).unwrap();
        table.insert(&Record::new().with("v", 2i64), &oracle).unwrap();
        let pin_ts = oracle.next();

        let merger = {
            let table = Arc::clone(&table);
            loom::thread::spawn(move || table.merge())
        };

        let snapshot =
            table.pin_at(pin_ts).expect("merge folds only rows older than the pin; the pin must survive");
        assert_eq!(snapshot.rows(), 2);
        assert_eq!(sum(&snapshot), 3, "pinned read tore across the merge swap");

        let stats = merger.join().unwrap();
        assert_eq!(stats.rows_merged, 2);
        let after = table.read();
        assert_eq!(after.rows(), 2);
        assert_eq!(sum(&after), 3);
        assert!(after.epoch() >= 1, "publish must advance the epoch");
    });
    assert!(report.interleavings > 1, "expected >1 distinct interleaving, got {report:?}");
}

/// An insert racing the merge lands either in the compacted batch's
/// successor delta or before the pin — never lost, never double-counted
/// — and the final view always sees all three rows.
#[test]
fn insert_racing_merge_is_never_lost() {
    let report = loom::model(|| {
        let table = Arc::new(Table::new("t", int_schema()));
        let oracle = Arc::new(TimestampOracle::new());
        table.insert(&Record::new().with("v", 1i64), &oracle).unwrap();
        table.insert(&Record::new().with("v", 2i64), &oracle).unwrap();

        let inserter = {
            let table = Arc::clone(&table);
            let oracle = Arc::clone(&oracle);
            loom::thread::spawn(move || {
                table.insert(&Record::new().with("v", 4i64), &oracle).unwrap();
            })
        };
        let stats = table.merge();
        // The racing insert either made the merge batch or stayed
        // behind in the delta for the next one.
        assert!(stats.rows_merged == 2 || stats.rows_merged == 3);
        inserter.join().unwrap();

        let after = table.read();
        assert_eq!(after.rows(), 3, "the racing insert was lost");
        assert_eq!(sum(&after), 7);
    });
    assert!(report.interleavings > 1, "expected >1 distinct interleaving, got {report:?}");
}

/// A *sorting* merge (declared sort key) racing a pinned reader: the
/// permuting rebuild happens entirely in the lock-free build phase, so
/// in every interleaving the reader — pinned as if mid-binary-search —
/// sees either the unsorted delta or the fully sorted segment set,
/// never a half-sorted mixture: every segment claiming `sorted_by` is
/// actually non-decreasing, and the pinned totals are preserved.
#[test]
fn sorting_merge_publishes_atomically() {
    let report = loom::model(|| {
        let schema = TableSchema::strict(vec![("v".into(), DataType::Int64)]).with_sort_key("v");
        let table = Arc::new(Table::new("t", schema));
        let oracle = Arc::new(TimestampOracle::new());
        // Deliberately out of order: the merge must permute.
        table.insert(&Record::new().with("v", 3i64), &oracle).unwrap();
        table.insert(&Record::new().with("v", 1i64), &oracle).unwrap();
        table.insert(&Record::new().with("v", 2i64), &oracle).unwrap();
        let pin_ts = oracle.next();

        let merger = {
            let table = Arc::clone(&table);
            loom::thread::spawn(move || table.merge())
        };

        let snapshot = table.pin_at(pin_ts).expect("pin covers the whole batch; it must survive");
        assert_eq!(snapshot.rows(), 3);
        assert_eq!(sum(&snapshot), 6, "pinned read tore across the sorting swap");
        // Whatever state the pin caught, any claimed sortedness is true:
        // a half-sorted segment set can never be observed.
        for seg in snapshot.segments() {
            if seg.sorted_by() == Some(0) {
                let mut prev = i64::MIN;
                for r in 0..seg.rows() {
                    let v = seg.get_int(0, r).expect("int column");
                    assert!(v >= prev, "claimed-sorted segment out of order");
                    prev = v;
                }
            }
        }

        let stats = merger.join().unwrap();
        assert_eq!(stats.rows_merged, 3);
        let after = table.read();
        assert_eq!(after.rows(), 3);
        assert_eq!(sum(&after), 6);
        let segs = after.segments();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].sorted_by(), Some(0), "published segment carries the sort claim");
        assert_eq!(
            (0..3).map(|r| segs[0].get_int(0, r).unwrap()).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "published segment is globally sorted"
        );
    });
    assert!(report.interleavings > 1, "expected >1 distinct interleaving, got {report:?}");
}

/// Two mergers and a reader: concurrent merges serialize internally,
/// publish exactly once each (idempotent on an empty delta), and the
/// latest view is identical in every schedule.
#[test]
fn concurrent_merges_serialize() {
    let report = loom::model(|| {
        let table = Arc::new(Table::new("t", int_schema()));
        let oracle = Arc::new(TimestampOracle::new());
        table.insert(&Record::new().with("v", 5i64), &oracle).unwrap();

        let other = {
            let table = Arc::clone(&table);
            loom::thread::spawn(move || table.merge().rows_merged)
        };
        let mine = table.merge().rows_merged;
        let theirs = other.join().unwrap();
        // Exactly one merger compacts the single delta row; the other
        // sees an empty delta and no-ops.
        assert_eq!(mine + theirs, 1, "the delta row must be merged exactly once");

        let after = table.read();
        assert_eq!(after.rows(), 1);
        assert_eq!(sum(&after), 5);
    });
    assert!(report.interleavings > 1, "expected >1 distinct interleaving, got {report:?}");
}

/// A pin racing the merge's **seal** (its first phase moves the open
/// delta chunk behind an `Arc` under a brief write lock) and its
/// publish (which drains the sealed chunks), beside an insert that
/// lands in the chunk being sealed, in the fresh open chunk, or after
/// the swap: whatever the pin catches — the open chunk's copied prefix,
/// the sealed chunk by `Arc`, the new segment — it reads a prefix of
/// the insert order, complete up to its row count, never a torn chunk.
#[test]
fn pin_racing_seal_and_publish_sees_a_prefix() {
    let report = loom::model(|| {
        let table = Arc::new(Table::new("t", int_schema()));
        let oracle = Arc::new(TimestampOracle::new());
        table.insert(&Record::new().with("v", 1i64), &oracle).unwrap();
        table.insert(&Record::new().with("v", 2i64), &oracle).unwrap();

        let inserter = {
            let table = Arc::clone(&table);
            let oracle = Arc::clone(&oracle);
            loom::thread::spawn(move || {
                table.insert(&Record::new().with("v", 3i64), &oracle).unwrap();
            })
        };
        let merger = {
            let table = Arc::clone(&table);
            loom::thread::spawn(move || table.merge())
        };

        let snapshot = table.read();
        let seen = snapshot.gather_ints("v", None).expect("int column");
        assert_eq!(seen.len(), snapshot.rows());
        assert!(seen == [1, 2] || seen == [1, 2, 3], "pin tore across the seal: {seen:?}");
        let zoned: u64 = snapshot.zone_maps("v").expect("int column").iter().map(|z| z.rows).sum();
        assert_eq!(zoned as usize, seen.len(), "every visible row lives in exactly one store");

        inserter.join().unwrap();
        let stats = merger.join().unwrap();
        assert!(stats.rows_merged == 2 || stats.rows_merged == 3);
        // The pin outlives the chunks the publish drained.
        assert_eq!(sum(&snapshot), seen.iter().sum::<i64>());
        let after = table.read();
        assert_eq!(after.gather_ints("v", None).expect("int column"), [1, 2, 3]);
        assert_eq!(after.main_rows(), stats.rows_merged);
    });
    assert!(report.interleavings > 1, "expected >1 distinct interleaving, got {report:?}");
}

/// A reader pinned across a sorting merge reads an index answer equal
/// to the scan's. The merge permutes the rows the index maps and, the
/// index being eager, indexes its new segment in its build phase;
/// whether the pin caught the old stores or the new segment, it reads
/// only the index of the stores it pinned.
#[test]
fn index_reader_pinned_across_a_sorting_merge_matches_the_scan() {
    // Built once, outside every model run: a point query dispatches
    // inline and never wakes the pool.
    WorkerPool::global();
    let report = loom::model(|| {
        let db = Arc::new(Database::new());
        db.create_table_sorted("t", &[("k", DataType::Int64), ("u", DataType::Int64)], "k").unwrap();
        db.set_merge_threshold("t", usize::MAX).unwrap();
        db.create_index("t", "u", IndexMaintenance::Eager).unwrap();
        // Keys arrive descending, so the merge permutes every row: a
        // sealed delta chunk of 1 024 rows and an open one of 76.
        for k in (0..1100i64).rev() {
            db.insert("t", &Record::new().with("k", k).with("u", k % 550)).unwrap();
        }
        let merger = {
            let db = Arc::clone(&db);
            loom::thread::spawn(move || db.merge("t").unwrap())
        };
        let snap = db.begin_snapshot();
        let index = Query::scan("t").filter("u", CmpOp::Eq, 7).aggregate(AggKind::Sum, "k");
        // The same rows through a range, which no hash index serves.
        let scan =
            Query::scan("t").filter("u", CmpOp::Ge, 7).filter("u", CmpOp::Le, 7).aggregate(AggKind::Sum, "k");
        let answer = |out: QueryResult| out.rows.row(0).unwrap()[0].as_float().unwrap() as i64;
        let want = 7 + 557;
        let out = snap.execute(&index).unwrap();
        assert_eq!(out.access_path, Some(AccessPath::IndexLookup));
        assert_eq!(answer(out), want, "index read tore across the sorting merge");
        assert_eq!(answer(snap.execute(&scan).unwrap()), want);

        let stats = merger.join().unwrap();
        assert_eq!(stats.rows_merged, 1100);
        // The pin outlives the swap; the latest view reads the new
        // segment's index, built by the merge.
        assert_eq!(answer(snap.execute(&index).unwrap()), want);
        let out = db.execute(&index).unwrap();
        assert_eq!(out.access_path, Some(AccessPath::IndexLookup));
        assert_eq!(answer(out), want);
        // The merge indexed its segment; a reader pinned before the
        // publish indexed the sealed chunk it read — and the 76-row one
        // the merge sealed, when it pinned after the merge's seal.
        let built = db.index_stats("t", "u").unwrap();
        let seen = (built.catchups, built.maintenance_ops);
        assert!(matches!(seen, (0, 1100) | (1, 2124) | (2, 2200)), "builds {seen:?}");
    });
    assert!(report.interleavings > 1, "expected >1 distinct interleaving, got {report:?}");
}
