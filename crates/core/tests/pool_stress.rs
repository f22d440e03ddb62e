//! Pool stress tests: N concurrent governor-granted queries (scans,
//! aggregates, group-bys, joins) racing insert+merge writers over one
//! shared worker pool — the `prop_mvcc.rs` differential shape, extended
//! to pooled execution.
//!
//! Every query runs with an explicit [`ExecOpts`] grant (`dop > 0`), so
//! even these small tables take the pooled dispatch path that a query
//! server drives, and every answer is checked against closed-form
//! prefix references (rows become visible in insertion order, so any
//! snapshot answers as a frozen prefix would). Structural facts checked
//! alongside correctness: the pool never creates a thread after
//! construction, and a morsel gate with budget 1 serializes in-flight
//! morsels without changing any answer.

use haec_columnar::value::CmpOp;
use haec_energy::machine::MachineSpec;
use haecdb::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const WORKERS: usize = 8;
const REGIONS: i64 = 4;

fn amount(i: i64) -> i64 {
    (i * 31 + 7) % 100 - 50
}
fn region(i: i64) -> i64 {
    i % REGIONS
}

fn record(i: i64) -> Record {
    Record::new().with("id", i).with("region", region(i)).with("amount", amount(i))
}

/// A database over its own explicit 8-worker pool (not the process
/// global), so `threads_spawned` is attributable to this test alone.
fn make_db() -> Database {
    let pool = Arc::new(WorkerPool::new(WORKERS));
    let db = Database::with_machine_and_pool(MachineSpec::commodity_2013().with_cores(WORKERS), pool);
    db.create_table(
        "t",
        &[("id", DataType::Int64), ("region", DataType::Int64), ("amount", DataType::Int64)],
    )
    .unwrap();
    db.set_merge_threshold("t", usize::MAX).unwrap();
    db.create_table("dim", &[("region", DataType::Int64), ("w", DataType::Int64)]).unwrap();
    for r in 0..REGIONS {
        db.insert("dim", &Record::new().with("region", r).with("w", r * 10)).unwrap();
    }
    db
}

/// Closed-form prefix answers (see `prop_mvcc.rs`).
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

    /// Runs the query mix on one pinned snapshot under `opts` and
    /// checks every answer against the prefix tables. Returns the
    /// snapshot's visible row count.
    fn check(&self, snap: &haecdb::DbSnapshot<'_>, opts: &ExecOpts, ctx: &str) -> usize {
        let n = snap.table("t").expect("table t pinned").rows();
        assert!(n <= self.total, "{ctx}: snapshot sees {n} rows, only {} inserted", self.total);

        let agg = |q: &Query| -> f64 {
            let out = snap.execute_opts(q, opts).unwrap();
            out.rows.row(0).unwrap()[0].as_float().unwrap()
        };
        let q = Query::scan("t").aggregate(AggKind::Count, "amount");
        assert_eq!(agg(&q) as usize, n, "{ctx}: COUNT(*)");
        let q = Query::scan("t").aggregate(AggKind::Sum, "amount");
        assert_eq!(agg(&q) as i64, self.sum[n], "{ctx}: SUM(amount)");
        let q = Query::scan("t").filter("amount", CmpOp::Ge, 0).aggregate(AggKind::Count, "amount");
        assert_eq!(agg(&q) as usize, self.nonneg[n], "{ctx}: filtered COUNT");

        let q = Query::scan("t").group_by("region").aggregate(AggKind::Count, "amount");
        let out = snap.execute_opts(&q, opts).unwrap();
        let want: Vec<(i64, usize)> = (0..REGIONS)
            .filter(|&r| self.by_region[n][r as usize] > 0)
            .map(|r| (r, self.by_region[n][r as usize]))
            .collect();
        assert_eq!(out.rows.rows(), want.len(), "{ctx}: grouped group count");
        for (row, (key, cnt)) in want.iter().enumerate() {
            let r = out.rows.row(row).unwrap();
            assert_eq!(r[0], Value::Int(*key), "{ctx}: grouped key");
            assert_eq!(r[1].as_float().unwrap() as usize, *cnt, "{ctx}: grouped COUNT for {key}");
        }

        // Each fact row matches exactly one dim row.
        let q = Query::scan("t").join("dim", "region", "region");
        let out = snap.execute_opts(&q, opts).unwrap();
        assert_eq!(out.rows.rows(), n, "{ctx}: join output rows");
        n
    }
}

/// One step of the writer's schedule.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(usize),
    Merge,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (1usize..=64).prop_map(Op::Insert),
            (1usize..=64).prop_map(Op::Insert),
            (1usize..=64).prop_map(Op::Insert),
            Just(Op::Merge),
        ],
        1..=10,
    )
}

fn total_rows(ops: &[Op]) -> usize {
    ops.iter().map(|op| if let Op::Insert(n) = op { *n } else { 0 }).sum()
}

proptest! {
    /// The centerpiece: four pooled readers (each with a different
    /// parallelism grant) race an insert+merge writer
    /// over one shared 8-worker pool. Every snapshot answers exactly as
    /// the serial prefix reference dictates, and the pool never creates
    /// a thread while the race runs.
    #[test]
    fn concurrent_pooled_queries_match_serial_reference(schedule in ops()) {
        let db = make_db();
        let reference = Reference::new(total_rows(&schedule));
        let spawned_before = db.pool().threads_spawned();
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
            let readers: Vec<_> = (0..4)
                .map(|reader| {
                    let done = &done;
                    let db = &db;
                    let reference = &reference;
                    // Different grants per reader: serial, half the
                    // pool, the whole pool, oversubscribed.
                    let opts = ExecOpts::with_dop([1, 4, 8, 12][reader]);
                    scope.spawn(move || {
                        let mut last_n = 0usize;
                        let mut iterations = 0usize;
                        loop {
                            let finished = done.load(Ordering::Acquire);
                            let snap = db.begin_snapshot();
                            let ctx = format!("reader {reader} iteration {iterations}");
                            let n = reference.check(&snap, &opts, &ctx);
                            assert!(n >= last_n, "{ctx}: visible prefix shrank: {last_n} -> {n}");
                            last_n = n;
                            iterations += 1;
                            if finished {
                                break;
                            }
                        }
                        assert_eq!(last_n, reference.total, "reader {reader}: final snapshot complete");
                    })
                })
                .collect();
            writer.join().unwrap();
            for r in readers {
                r.join().unwrap();
            }
        });

        prop_assert_eq!(
            db.pool().threads_spawned(),
            spawned_before,
            "queries must never create threads"
        );
        // The quiesced database agrees with the full-prefix reference at
        // every grant level.
        for dop in [1, WORKERS] {
            reference.check(
                &db.begin_snapshot(),
                &ExecOpts { dop, ..ExecOpts::default() },
                &format!("final dop={dop}"),
            );
        }
    }

    /// A budget-1 morsel gate serializes in-flight morsels — the
    /// high-water mark proves it — without changing any answer.
    #[test]
    fn gate_budget_one_serializes_without_changing_answers(rows in 1usize..600, merged in any::<bool>()) {
        let db = make_db();
        let reference = Reference::new(rows);
        for i in 0..rows as i64 {
            db.insert("t", &record(i)).unwrap();
        }
        if merged {
            db.merge("t").unwrap();
        }
        let gate = MorselGate::new(1);
        let opts = ExecOpts { dop: WORKERS, gate: Some(Arc::clone(&gate)), cancel: None };
        reference.check(&db.begin_snapshot(), &opts, "gated");
        prop_assert!(gate.high_water() <= 1, "budget-1 gate admitted {} concurrent morsels", gate.high_water());
        prop_assert_eq!(gate.inflight(), 0, "all permits returned");
    }
}

/// Every grant level answers identically on a mixed main+delta table —
/// the dop-1 serial path is the reference for the pooled paths — with
/// no gate and behind a budget-1 gate that never admits two units at
/// once.
#[test]
fn all_grant_levels_agree() {
    let db = make_db();
    let rows = 5_000i64;
    for i in 0..rows {
        db.insert("t", &record(i)).unwrap();
    }
    db.merge("t").unwrap();
    for i in rows..rows + 2_500 {
        db.insert("t", &record(i)).unwrap();
    }
    let reference = Reference::new((rows + 2_500) as usize);
    for dop in [1, 2, WORKERS, 2 * WORKERS] {
        for gate in [None, Some(MorselGate::new(1))] {
            let opts = ExecOpts { dop, gate: gate.clone(), cancel: None };
            reference.check(&db.begin_snapshot(), &opts, &format!("dop={dop} gated={}", gate.is_some()));
            if let Some(gate) = gate {
                assert!(gate.high_water() <= 1, "dop={dop}: budget-1 gate admitted {}", gate.high_water());
                assert_eq!(gate.inflight(), 0, "dop={dop}: all permits returned");
            }
        }
    }
}
