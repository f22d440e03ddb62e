//! Differential MVCC property tests: snapshot reads racing concurrent
//! inserts and merges must be observationally identical to a serial
//! single-version reference.
//!
//! The key structural fact the tests lean on: rows become visible in
//! insertion order, so the visible set of *any* snapshot is a prefix of
//! the insertion sequence. With deterministic per-row payloads the
//! serial reference collapses to closed-form prefix tables — a snapshot
//! that sees `n` rows must answer every query exactly as a frozen table
//! holding rows `0..n` would, no matter how many merges swapped the
//! physical layout underneath it.

use haec_columnar::value::CmpOp;
use haec_planner::access::{choose_access_segmented, AccessPath};
use haec_planner::cost::CostModel;
use haecdb::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

const REGIONS: i64 = 4;
const TAGS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Deterministic payload of the `i`-th inserted row.
fn amount(i: i64) -> i64 {
    (i * 31 + 7) % 100 - 50
}
fn region(i: i64) -> i64 {
    i % REGIONS
}
fn tag(i: i64) -> &'static str {
    TAGS[(i % 4) as usize]
}

fn record(i: i64) -> Record {
    Record::new().with("id", i).with("region", region(i)).with("amount", amount(i)).with("tag", tag(i))
}

/// Closed-form answers for every visible prefix length `0..=total`.
struct Reference {
    total: usize,
    sum: Vec<i64>,
    nonneg: Vec<usize>,
    by_region: Vec<[usize; REGIONS as usize]>,
}

impl Reference {
    fn new(total: usize) -> Reference {
        let mut sum = vec![0i64; total + 1];
        let mut nonneg = vec![0usize; total + 1];
        let mut by_region = vec![[0usize; REGIONS as usize]; total + 1];
        for i in 0..total as i64 {
            let n = i as usize;
            sum[n + 1] = sum[n] + amount(i);
            nonneg[n + 1] = nonneg[n] + usize::from(amount(i) >= 0);
            by_region[n + 1] = by_region[n];
            by_region[n + 1][region(i) as usize] += 1;
        }
        Reference { total, sum, nonneg, by_region }
    }

    /// Checks every supported query shape against the prefix answers for
    /// one pinned snapshot. Returns the snapshot's visible row count.
    fn check(&self, snap: &haecdb::DbSnapshot<'_>, ctx: &str) -> usize {
        let t = snap.table("t").expect("table t pinned");
        let n = t.rows();
        assert!(n <= self.total, "{ctx}: snapshot sees {n} rows, only {} inserted", self.total);
        let dim = snap.table("dim").expect("table dim pinned");
        assert_eq!(dim.rows(), REGIONS as usize, "{ctx}: dim table is static");

        let count = |q: &Query| -> f64 {
            let out = snap.execute(q).unwrap();
            out.rows.row(0).unwrap()[0].as_float().unwrap()
        };
        // COUNT over the full snapshot equals the pinned prefix length —
        // and stays equal when asked again after other queries ran (the
        // snapshot is immutable, not merely "current at first use").
        let q_count = Query::scan("t").aggregate(AggKind::Count, "amount");
        assert_eq!(count(&q_count) as usize, n, "{ctx}: COUNT(*)");

        let q_sum = Query::scan("t").aggregate(AggKind::Sum, "amount");
        assert_eq!(count(&q_sum) as i64, self.sum[n], "{ctx}: SUM(amount) over {n} rows");

        let q_filtered = Query::scan("t").filter("amount", CmpOp::Ge, 0).aggregate(AggKind::Count, "amount");
        assert_eq!(count(&q_filtered) as usize, self.nonneg[n], "{ctx}: filtered COUNT");

        // Grouped counts: exactly the non-empty regions of the prefix,
        // keyed in sorted order.
        let q_grouped = Query::scan("t").group_by("region").aggregate(AggKind::Count, "amount");
        let out = snap.execute(&q_grouped).unwrap();
        let want: BTreeMap<i64, usize> = (0..REGIONS)
            .filter(|&r| self.by_region[n][r as usize] > 0)
            .map(|r| (r, self.by_region[n][r as usize]))
            .collect();
        assert_eq!(out.rows.rows(), want.len(), "{ctx}: grouped COUNT group count");
        for (row, (key, cnt)) in want.iter().enumerate() {
            let r = out.rows.row(row).unwrap();
            assert_eq!(r[0], Value::Int(*key), "{ctx}: grouped COUNT key");
            assert_eq!(r[1].as_float().unwrap() as usize, *cnt, "{ctx}: grouped COUNT for region {key}");
        }

        // Every fact row matches exactly one dim row, so the equi-join
        // emits one output row per visible fact row — a torn snapshot
        // (fact rows from one epoch, dim from another) would break this.
        let q_join = Query::scan("t").join("dim", "region", "region");
        let out = snap.execute(&q_join).unwrap();
        assert_eq!(out.rows.rows(), n, "{ctx}: join output rows");

        // COUNT again on the same snapshot: merges and inserts that
        // happened meanwhile must be invisible.
        assert_eq!(count(&q_count) as usize, n, "{ctx}: COUNT(*) repeated on same snapshot");
        n
    }
}

fn make_db() -> Database {
    let db = Database::new();
    db.create_table(
        "t",
        &[
            ("id", DataType::Int64),
            ("region", DataType::Int64),
            ("amount", DataType::Int64),
            ("tag", DataType::Str),
        ],
    )
    .unwrap();
    db.set_merge_threshold("t", usize::MAX).unwrap();
    db.create_table("dim", &[("region", DataType::Int64), ("name", DataType::Str)]).unwrap();
    for r in 0..REGIONS {
        db.insert("dim", &Record::new().with("region", r).with("name", TAGS[r as usize])).unwrap();
    }
    db
}

/// One step of the writer's schedule.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Insert the next `n` rows of the deterministic sequence.
    Insert(usize),
    /// Fold the delta into compressed segments (swap the segment set).
    Merge,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // The insert arm is repeated to weight the schedule roughly 3:1
    // toward inserts (the shim's `prop_oneof!` picks uniformly).
    proptest::collection::vec(
        prop_oneof![
            (1usize..=64).prop_map(Op::Insert),
            (1usize..=64).prop_map(Op::Insert),
            (1usize..=64).prop_map(Op::Insert),
            Just(Op::Merge),
        ],
        1..=12,
    )
}

fn total_rows(ops: &[Op]) -> usize {
    ops.iter().map(|op| if let Op::Insert(n) = op { *n } else { 0 }).sum()
}

proptest! {
    /// The centerpiece: two reader threads continuously pin snapshots and
    /// run scans, aggregates, group-bys and joins while a writer thread
    /// races inserts and merge swaps against them. Every snapshot must
    /// answer exactly as the serial prefix reference dictates — no torn
    /// reads, no rows seen twice across a merge swap — and both the
    /// per-reader timestamps and the visible prefixes must be monotone.
    #[test]
    fn concurrent_snapshots_match_serial_reference(schedule in ops()) {
        let db = make_db();
        let reference = Reference::new(total_rows(&schedule));
        let done = AtomicBool::new(false);

        thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut next = 0i64;
                for op in &schedule {
                    match op {
                        Op::Insert(n) => {
                            for _ in 0..*n {
                                db.insert("t", &record(next)).unwrap();
                                next += 1;
                            }
                        }
                        Op::Merge => {
                            db.merge("t").unwrap();
                        }
                    }
                }
                done.store(true, Ordering::Release);
            });
            let readers: Vec<_> = (0..2)
                .map(|reader| {
                    let done = &done;
                    let db = &db;
                    let reference = &reference;
                    scope.spawn(move || {
                        let mut last_ts = Timestamp::ZERO;
                        let mut last_n = 0usize;
                        let mut iterations = 0usize;
                        loop {
                            let finished = done.load(Ordering::Acquire);
                            let snap = db.begin_snapshot();
                            let ctx = format!("reader {reader} iteration {iterations}");
                            assert!(snap.timestamp() > last_ts, "{ctx}: timestamps monotone");
                            last_ts = snap.timestamp();
                            let n = reference.check(&snap, &ctx);
                            assert!(n >= last_n, "{ctx}: visible prefix shrank: {last_n} -> {n}");
                            last_n = n;
                            iterations += 1;
                            if finished {
                                break;
                            }
                        }
                        // `done` was set before this reader's final pin, so
                        // the last snapshot must be complete.
                        assert_eq!(last_n, reference.total, "reader {reader}: final snapshot complete");
                    })
                })
                .collect();
            writer.join().unwrap();
            for r in readers {
                r.join().unwrap();
            }
        });

        // The quiesced database agrees with the full-prefix reference.
        reference.check(&db.begin_snapshot(), "final");
    }

    /// Serial history: a snapshot taken after every schedule step keeps
    /// answering for its own prefix even after all later inserts and
    /// merges — including a final merge that retires every segment set
    /// the pinned snapshots still reference.
    #[test]
    fn old_snapshots_survive_later_inserts_and_merges(schedule in ops()) {
        let db = make_db();
        let reference = Reference::new(total_rows(&schedule));
        let mut pinned = vec![(db.begin_snapshot(), 0usize)];
        let mut next = 0i64;
        for op in &schedule {
            match op {
                Op::Insert(n) => {
                    for _ in 0..*n {
                        db.insert("t", &record(next)).unwrap();
                        next += 1;
                    }
                }
                Op::Merge => {
                    db.merge("t").unwrap();
                }
            }
            pinned.push((db.begin_snapshot(), next as usize));
        }
        db.merge("t").unwrap();
        for (i, (snap, expect_n)) in pinned.iter().enumerate() {
            let n = reference.check(snap, &format!("pinned snapshot {i}"));
            prop_assert_eq!(n, *expect_n, "pinned snapshot {} sees its own prefix", i);
        }
    }

    /// Read-your-own-writes: a transaction's overlay rows are visible to
    /// its own queries (on top of its pinned base), invisible to
    /// concurrent snapshots, and durable exactly after commit.
    #[test]
    fn transaction_overlay_is_private_until_commit(
        base_rows in 0usize..96,
        pending in 1usize..32,
    ) {
        let db = make_db();
        let reference = Reference::new(base_rows + pending);
        for i in 0..base_rows as i64 {
            db.insert("t", &record(i)).unwrap();
        }
        let mut txn = db.begin_transaction();
        for i in 0..pending as i64 {
            txn.insert("t", record(base_rows as i64 + i)).unwrap();
        }
        prop_assert_eq!(txn.pending_writes(), pending);

        // The transaction sees base + overlay …
        let q_count = Query::scan("t").aggregate(AggKind::Count, "amount");
        let q_sum = Query::scan("t").aggregate(AggKind::Sum, "amount");
        let got = txn.execute(&q_count).unwrap().rows.row(0).unwrap()[0].as_float().unwrap();
        prop_assert_eq!(got as usize, base_rows + pending, "txn sees its own writes");
        let got = txn.execute(&q_sum).unwrap().rows.row(0).unwrap()[0].as_float().unwrap();
        prop_assert_eq!(got as i64, reference.sum[base_rows + pending], "txn overlay SUM");

        // … while a concurrent snapshot sees only the committed base …
        let outside = db.begin_snapshot();
        let n = reference.check(&outside, "snapshot concurrent with txn");
        prop_assert_eq!(n, base_rows, "overlay invisible before commit");

        // … and after commit a fresh snapshot sees everything, while the
        // old snapshot still sees the base.
        let commit_ts = txn.commit().unwrap();
        let after = db.begin_snapshot();
        prop_assert!(after.timestamp() > commit_ts);
        let n = reference.check(&after, "snapshot after commit");
        prop_assert_eq!(n, base_rows + pending, "overlay visible after commit");
        let n = reference.check(&outside, "old snapshot after commit");
        prop_assert_eq!(n, base_rows, "old snapshot unaffected by commit");
    }

    /// Regression for the *sorting* merge racing pinned readers: a
    /// table with a declared sort key swaps in permuted, sorted segment
    /// sets while readers continuously pin snapshots. Every pinned view
    /// must be internally consistent — each segment's sortedness claim
    /// is true of its actual contents, the zone maps report exactly the
    /// flags the pinned segments carry (never recomputed against a newer
    /// layout), the delta zone never claims sortedness — and answers
    /// must still match the serial prefix reference (the stable sort
    /// respects MVCC prefix visibility).
    #[test]
    fn sorting_merge_keeps_pinned_snapshots_consistent(schedule in ops()) {
        let key = |i: i64| (i * 31 + 7) % 100; // duplicates, unsorted arrival
        let db = Database::new();
        db.create_table_sorted("s", &[("k", DataType::Int64), ("v", DataType::Int64)], "k").unwrap();
        db.set_merge_threshold("s", usize::MAX).unwrap();
        let total = total_rows(&schedule);
        let mut sum = vec![0i64; total + 1];
        for i in 0..total {
            sum[i + 1] = sum[i] + key(i as i64);
        }
        let done = AtomicBool::new(false);

        thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut next = 0i64;
                for op in &schedule {
                    match op {
                        Op::Insert(n) => {
                            for _ in 0..*n {
                                db.insert("s", &Record::new().with("k", key(next)).with("v", next))
                                    .unwrap();
                                next += 1;
                            }
                        }
                        Op::Merge => {
                            db.merge("s").unwrap();
                        }
                    }
                }
                done.store(true, Ordering::Release);
            });
            let reader = scope.spawn(|| {
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let snap = db.begin_snapshot();
                    let t = snap.table("s").expect("table s pinned");
                    let n = t.rows();
                    let zones = t.zone_maps("k").expect("int sort key");
                    let segs = t.segments();
                    for (zi, seg) in segs.iter().enumerate() {
                        assert_eq!(
                            zones[zi].sorted,
                            seg.sorted_by() == Some(0),
                            "zone flag must mirror the pinned segment's claim"
                        );
                        if zones[zi].sorted {
                            let mut prev = i64::MIN;
                            for r in 0..seg.rows() {
                                let v = seg.get_int(0, r).expect("int sort key");
                                assert!(v >= prev, "claimed-sorted segment out of order");
                                prev = v;
                            }
                        }
                    }
                    if zones.len() > segs.len() {
                        assert!(!zones[segs.len()].sorted, "delta zone never claims sortedness");
                    }
                    let q = Query::scan("s").aggregate(AggKind::Sum, "k");
                    let got =
                        snap.execute(&q).unwrap().rows.row(0).unwrap()[0].as_float().unwrap();
                    assert_eq!(got as i64, sum[n], "prefix SUM(k) at n={n}");
                    if finished {
                        break;
                    }
                }
            });
            writer.join().unwrap();
            reader.join().unwrap();
        });

        // Quiesced: one last merge, then the fully-sorted layout still
        // answers the full-prefix reference.
        db.merge("s").unwrap();
        let snap = db.begin_snapshot();
        let q = Query::scan("s").aggregate(AggKind::Sum, "k");
        let got = snap.execute(&q).unwrap().rows.row(0).unwrap()[0].as_float().unwrap();
        prop_assert_eq!(got as i64, sum[total]);
        let t = snap.table("s").expect("pinned");
        if total > 0 {
            prop_assert!(t.zone_maps("k").expect("int sort key").iter().all(|z| z.sorted));
        }
    }

    /// An index on the non-key column of a sort-keyed table, read while
    /// a writer races inserts and sorting merges: through latest-state
    /// reads, through snapshots held across later merges, and through
    /// transactions whose pending rows carry the probed value. Every
    /// answer equals the prefix reference the scan must give, and every
    /// snapshot read takes the index path exactly where the planner,
    /// fed the snapshot's own statistics, picks it. The merges sort the
    /// key, so every merge permutes the rows the index maps.
    #[test]
    fn index_on_a_sorted_table_answers_like_the_scan_across_sorting_merges(
        schedule in ops(),
        eager in any::<bool>(),
    ) {
        let key = |i: i64| (i * 31 + 7) % 100; // the sort key: duplicates, unsorted arrival
        let uid = |i: i64| (i * 37) % 251; // the indexed column: a few rows per value
        let db = Database::new();
        let cols = [("k", DataType::Int64), ("u", DataType::Int64), ("v", DataType::Int64)];
        db.create_table_sorted("s", &cols, "k").unwrap();
        db.set_merge_threshold("s", usize::MAX).unwrap();
        let maintenance = if eager { IndexMaintenance::Eager } else { IndexMaintenance::NeedToKnow };
        db.create_index("s", "u", maintenance).unwrap();
        let model = CostModel::new(db.machine().clone());
        let total = total_rows(&schedule);
        // The rows of the first `n` with `u = x` (their `v` is their id),
        // and the query for them.
        let want = |n: usize, x: i64| (0..n as i64).filter(|&i| uid(i) == x).collect::<Vec<_>>();
        let probe = |x: i64| Query::scan("s").filter("u", CmpOp::Eq, x).select(["v"]);
        let ids = |out: &QueryResult| {
            let mut v: Vec<i64> = (0..out.rows.rows()).map(|r| out.rows.row(r).unwrap()[0].as_int().unwrap()).collect();
            v.sort_unstable();
            v
        };
        // The path the planner picks for `u = x` on `t`.
        let planned = |t: &TableSnapshot, x: i64| {
            let meta = t.planner_meta();
            assert!(meta.column("u").unwrap().indexed, "the snapshot knows its index");
            let zones = t.zone_maps("u").unwrap();
            let encoded = t.column_encoded_bytes("u").unwrap() as u64;
            match choose_access_segmented(&model, &meta, "u", CmpOp::Eq, x, &zones, encoded).path {
                AccessPath::IndexLookup => AccessPath::IndexLookup,
                _ => AccessPath::FullScan,
            }
        };
        let done = AtomicBool::new(false);

        thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut next = 0i64;
                for op in &schedule {
                    match op {
                        Op::Insert(n) => {
                            for _ in 0..*n {
                                let rec = Record::new().with("k", key(next)).with("u", uid(next)).with("v", next);
                                db.insert("s", &rec).unwrap();
                                next += 1;
                            }
                        }
                        Op::Merge => {
                            db.merge("s").unwrap();
                        }
                    }
                }
                done.store(true, Ordering::Release);
            });
            let reader = scope.spawn(|| {
                let mut held: Option<haecdb::DbSnapshot<'_>> = None;
                for round in 0i64.. {
                    let finished = done.load(Ordering::Acquire);
                    let x = (round * 53) % 251;
                    // A latest-state read sees some prefix of the rows.
                    let got = ids(&db.execute(&probe(x)).unwrap());
                    assert!(want(total, x).starts_with(&got), "latest u = {x}: {got:?}");
                    // A snapshot, read now and again after later writes.
                    let snap = db.begin_snapshot();
                    for t in [Some(&snap), held.as_ref()].into_iter().flatten() {
                        let n = t.table("s").unwrap().rows();
                        let out = t.execute(&probe(x)).unwrap();
                        assert_eq!(ids(&out), want(n, x), "snapshot of {n} rows, u = {x}");
                        let path = planned(t.table("s").unwrap(), x);
                        assert_eq!(out.access_path, Some(path), "snapshot of {n} rows, u = {x}");
                    }
                    held = Some(snap);
                    // A transaction with pending rows on the probed value.
                    let mut txn = db.begin_transaction();
                    for j in 1..=2 {
                        txn.insert("s", Record::new().with("k", key(j)).with("u", x).with("v", -j)).unwrap();
                    }
                    let count = Query::scan("s").aggregate(AggKind::Count, "v");
                    let n = txn.execute(&count).unwrap().rows.row(0).unwrap()[0].as_float().unwrap() as usize - 2;
                    let mut expect = vec![-2, -1];
                    expect.extend(want(n, x));
                    assert_eq!(ids(&txn.execute(&probe(x)).unwrap()), expect, "transaction over {n} rows, u = {x}");
                    txn.rollback();
                    if finished {
                        break;
                    }
                }
            });
            writer.join().unwrap();
            reader.join().unwrap();
        });
    }

    /// Cancellation racing insert+merge: readers pin snapshots and run
    /// the aggregate pipeline under randomly drawn cancel tokens and
    /// deadlines while the writer churns. Two invariants, per query:
    ///
    /// * **completed ⇒ exact** — a query that runs to completion
    ///   answers precisely as the serial prefix reference dictates,
    ///   cancellation machinery in the options or not;
    /// * **cancelled ⇒ honest partial bill** — a cancelled query's
    ///   `partial_energy` never exceeds the energy of an uncancelled
    ///   twin executed on the *same* snapshot (partial work is a subset
    ///   of full work), and is never negative.
    ///
    /// Both query shapes share the executor's cancel polls, so a
    /// pre-fired token must stop a join and a grouped aggregate exactly
    /// as it stops the global aggregate — checked every iteration.
    #[test]
    fn cancelled_readers_bill_at_most_their_completed_twin(
        schedule in ops(),
        modes in proptest::collection::vec(0u8..5, 4..=12),
    ) {
        let db = make_db();
        let reference = Reference::new(total_rows(&schedule));
        let done = AtomicBool::new(false);

        thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut next = 0i64;
                for op in &schedule {
                    match op {
                        Op::Insert(n) => {
                            for _ in 0..*n {
                                db.insert("t", &record(next)).unwrap();
                                next += 1;
                            }
                        }
                        Op::Merge => {
                            db.merge("t").unwrap();
                        }
                    }
                }
                done.store(true, Ordering::Release);
            });
            let readers: Vec<_> = (0..2)
                .map(|reader| {
                    let done = &done;
                    let db = &db;
                    let reference = &reference;
                    let modes = &modes;
                    scope.spawn(move || {
                        let q_sum = Query::scan("t").aggregate(AggKind::Sum, "amount");
                        let q_join = Query::scan("t").join("dim", "region", "region");
                        let q_grouped = Query::scan("t").group_by("tag").aggregate(AggKind::Sum, "amount");
                        let mut iterations = 0usize;
                        loop {
                            let finished = done.load(Ordering::Acquire);
                            let token = match modes[iterations % modes.len()] {
                                0 => None,
                                1 => {
                                    let t = CancelToken::new();
                                    t.cancel();
                                    Some(t)
                                }
                                // Already expired, lands at the first check.
                                2 => Some(CancelToken::deadline_in(std::time::Duration::ZERO)),
                                // Tiny: may land at any phase boundary.
                                3 => Some(CancelToken::deadline_in(
                                    std::time::Duration::from_micros(20),
                                )),
                                // Generous: never lands.
                                _ => Some(CancelToken::deadline_in(
                                    std::time::Duration::from_secs(300),
                                )),
                            };
                            let opts = ExecOpts { cancel: token, ..ExecOpts::default() };
                            let snap = db.begin_snapshot();
                            let n = snap.table("t").expect("table t pinned").rows();
                            let ctx = format!("reader {reader} iteration {iterations} n={n}");
                            // The uncancelled twin on the SAME snapshot is
                            // both the answer oracle and the energy bound.
                            let twin = snap.execute(&q_sum).unwrap();
                            assert_eq!(
                                twin.rows.row(0).unwrap()[0].as_float().unwrap() as i64,
                                reference.sum[n],
                                "{ctx}: twin answer"
                            );
                            match snap.execute_opts(&q_sum, &opts) {
                                Ok(out) => {
                                    assert_eq!(
                                        out.rows.row(0).unwrap()[0].as_float().unwrap() as i64,
                                        reference.sum[n],
                                        "{ctx}: completed under cancel machinery"
                                    );
                                }
                                Err(DbError::Cancelled { partial_energy }) => {
                                    assert!(
                                        partial_energy.joules() >= 0.0,
                                        "{ctx}: negative partial bill"
                                    );
                                    assert!(
                                        partial_energy.joules() <= twin.energy.joules() + 1e-9,
                                        "{ctx}: cancelled bill {partial_energy} exceeds \
                                         completed twin {}",
                                        twin.energy
                                    );
                                }
                                Err(other) => panic!("{ctx}: unexpected error {other}"),
                            }
                            let fired = CancelToken::new();
                            fired.cancel();
                            let opts = ExecOpts { cancel: Some(fired), ..ExecOpts::default() };
                            for q in [&q_join, &q_grouped] {
                                let twin = snap.execute(q).unwrap();
                                match snap.execute_opts(q, &opts) {
                                    Err(DbError::Cancelled { partial_energy }) => assert!(
                                        (0.0..=twin.energy.joules() + 1e-9).contains(&partial_energy.joules()),
                                        "{ctx}: pre-cancelled bill {partial_energy} vs completed twin {}",
                                        twin.energy
                                    ),
                                    other => panic!("{ctx}: pre-fired token must cancel, got {other:?}"),
                                }
                            }
                            iterations += 1;
                            if finished {
                                break;
                            }
                        }
                    })
                })
                .collect();
            writer.join().unwrap();
            for r in readers {
                r.join().unwrap();
            }
        });

        // Quiesced, with no cancellation in play, the reference holds.
        reference.check(&db.begin_snapshot(), "final");
    }

    /// Rolled-back transactions leave no trace.
    #[test]
    fn rollback_discards_the_overlay(base_rows in 0usize..64, pending in 1usize..16) {
        let db = make_db();
        let reference = Reference::new(base_rows);
        for i in 0..base_rows as i64 {
            db.insert("t", &record(i)).unwrap();
        }
        let mut txn = db.begin_transaction();
        for i in 0..pending as i64 {
            txn.insert("t", record(base_rows as i64 + i)).unwrap();
        }
        txn.rollback();
        let n = reference.check(&db.begin_snapshot(), "after rollback");
        prop_assert_eq!(n, base_rows, "rollback leaves the database untouched");
    }
}
