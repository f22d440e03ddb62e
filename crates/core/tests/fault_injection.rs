//! Fault-injection proofs: every instrumented failpoint, when fired,
//! leaves the engine in a state the crash-safety story promises —
//! pinned readers unharmed, table state all-or-nothing, the energy
//! meter monotone, the worker pool reusable.
//!
//! Only built under `RUSTFLAGS="--cfg haec_fail"`, which compiles the
//! `fail` shim's failpoints in (they are zero-token no-ops otherwise).
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg haec_fail" cargo test -p haecdb --test fault_injection
//! ```
//!
//! The failpoint registry is process-global, so every test serializes
//! on one mutex and tears the registry down on every exit path.
#![cfg(haec_fail)]

use haec_planner::access::AccessPath;
use haecdb::prelude::*;
use haecdb::table::DELTA_CHUNK_ROWS;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests (cargo runs them concurrently in one process) and
/// clears the global failpoint registry on drop, panic included.
struct FailGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

fn armed() -> FailGuard {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = M.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fail::teardown();
    FailGuard(guard)
}

impl Drop for FailGuard {
    fn drop(&mut self) {
        fail::teardown();
    }
}

fn amount(i: i64) -> i64 {
    (i * 31 + 7) % 100 - 50
}

/// Sum of `amount(0..n)` — the closed-form answer any consistent view
/// of the first `n` rows must report, whatever its physical layout.
fn prefix_sum(n: usize) -> i64 {
    (0..n as i64).map(amount).sum()
}

fn seeded_db(merged: i64, delta: i64) -> Database {
    let db = Database::new();
    db.create_table("t", &[("id", DataType::Int64), ("amount", DataType::Int64)]).unwrap();
    db.set_merge_threshold("t", usize::MAX).unwrap();
    for i in 0..merged {
        db.insert("t", &Record::new().with("id", i).with("amount", amount(i))).unwrap();
    }
    if merged > 0 {
        db.merge("t").unwrap();
    }
    for i in merged..merged + delta {
        db.insert("t", &Record::new().with("id", i).with("amount", amount(i))).unwrap();
    }
    db
}

fn sum_query() -> Query {
    Query::scan("t").aggregate(AggKind::Sum, "amount")
}

fn sum_of(db: &Database) -> i64 {
    let out = db.execute(&sum_query()).unwrap();
    out.rows.row(0).unwrap()[0].as_float().unwrap() as i64
}

fn segment_count(db: &Database) -> usize {
    let snap = db.begin_snapshot();
    snap.table("t").unwrap().segments().len()
}

/// Every merge-phase failpoint, fired as a panic, must leave (a) a
/// reader pinned before the merge serving its exact prefix, (b) fresh
/// snapshots consistent, (c) the meter monotone, and (d) the table
/// fully usable: the next insert and merge succeed and converge to the
/// same physical shape as a twin database that never faulted.
#[test]
fn merge_phase_panics_leave_readers_and_state_whole() {
    for fp in ["merge::build", "merge::remap", "merge::segment", "merge::publish"] {
        let _g = armed();
        let db = seeded_db(1_000, 500);
        let meter_before = db.meter().grand_total().joules();

        let pinned = db.begin_snapshot();
        fail::cfg(fp, "panic(injected)").unwrap();
        let r = catch_unwind(AssertUnwindSafe(|| db.merge("t")));
        assert!(r.is_err(), "{fp}: armed merge must panic");
        fail::remove(fp);

        // The reader pinned before the fault is untouched: its full
        // 1500-row prefix, straddling main and delta, still sums to
        // the closed form.
        let out = pinned.execute(&sum_query()).unwrap();
        assert_eq!(
            out.rows.row(0).unwrap()[0].as_float().unwrap() as i64,
            prefix_sum(1_500),
            "{fp}: pinned reader was harmed"
        );
        drop(pinned);

        // Fresh snapshots see a consistent (all-or-nothing) state.
        assert_eq!(sum_of(&db), prefix_sum(1_500), "{fp}: post-fault snapshot torn");
        assert!(
            db.meter().grand_total().joules() >= meter_before,
            "{fp}: meter went backwards across the fault"
        );

        // The table is not wedged: insert, merge and query all work,
        // and the physical shape converges to the never-faulted twin's.
        db.insert("t", &Record::new().with("id", 1_500i64).with("amount", amount(1_500))).unwrap();
        let stats = db.merge("t").unwrap();
        assert!(stats.rows_merged > 0, "{fp}: recovery merge compacted nothing");
        assert_eq!(sum_of(&db), prefix_sum(1_501), "{fp}: post-recovery answer");

        let twin = seeded_db(1_000, 500);
        twin.insert("t", &Record::new().with("id", 1_500i64).with("amount", amount(1_500))).unwrap();
        twin.merge("t").unwrap();
        assert_eq!(
            segment_count(&db),
            segment_count(&twin),
            "{fp}: faulted-then-recovered table leaked segments vs the twin"
        );
        assert_eq!(sum_of(&twin), sum_of(&db));
    }
}

/// Regression for the scariest window: a panic in `merge()`'s
/// lock-free build phase (before the publish lock is ever taken) must
/// not leak the pinned build inputs or leave any lock unusable — the
/// delta keeps its rows, a second merge compacts them, and repeated
/// fault/recover cycles don't accumulate segments.
#[test]
fn merge_build_panic_regression_no_leak_no_wedge() {
    let _g = armed();
    let db = seeded_db(1_000, 500);

    let mut rows = 1_500i64;
    for round in 0..3 {
        fail::cfg("merge::build", "panic(build)").unwrap();
        assert!(
            catch_unwind(AssertUnwindSafe(|| db.merge("t"))).is_err(),
            "round {round}: armed build must panic"
        );
        fail::remove("merge::build");
        // The failed merge consumed nothing: the delta still holds all
        // its rows, so the recovery merge has exactly that to compact.
        let stats = db.merge("t").unwrap();
        assert_eq!(
            stats.rows_merged,
            if round == 0 { 500 } else { 200 },
            "round {round}: failed build must not consume delta rows"
        );
        assert_eq!(sum_of(&db), prefix_sum(rows as usize), "round {round}");
        // Refill the delta so the next round's merge has work to fault.
        for i in rows..rows + 200 {
            db.insert("t", &Record::new().with("id", i).with("amount", amount(i))).unwrap();
        }
        rows += 200;
    }

    // A twin replaying only the *successful* operations must end with
    // the identical physical shape: the faulted merges contributed
    // nothing — no leaked segments, no half-built dictionary state.
    let twin = seeded_db(1_000, 500);
    let mut twin_rows = 1_500i64;
    for _ in 0..3 {
        twin.merge("t").unwrap();
        for i in twin_rows..twin_rows + 200 {
            twin.insert("t", &Record::new().with("id", i).with("amount", amount(i))).unwrap();
        }
        twin_rows += 200;
    }
    db.merge("t").unwrap();
    twin.merge("t").unwrap();
    assert_eq!(segment_count(&db), segment_count(&twin), "repeated faults leaked segments");
    assert_eq!(sum_of(&db), sum_of(&twin));
}

/// The `db::insert` failpoint exercises the error-return path: the
/// insert fails with the injected message, commits nothing, and the
/// table accepts the retry.
#[test]
fn insert_failpoint_returns_error_without_committing() {
    let _g = armed();
    let db = seeded_db(100, 0);
    fail::cfg("db::insert", "return(injected-insert-fault)").unwrap();
    let err = db.insert("t", &Record::new().with("id", 100i64).with("amount", 7i64)).unwrap_err();
    assert!(err.to_string().contains("injected-insert-fault"), "got: {err}");
    fail::remove("db::insert");

    let snap = db.begin_snapshot();
    assert_eq!(snap.table("t").unwrap().rows(), 100, "failed insert must commit nothing");
    drop(snap);
    db.insert("t", &Record::new().with("id", 100i64).with("amount", amount(100))).unwrap();
    assert_eq!(sum_of(&db), prefix_sum(101));
}

/// Countdown chains replay deterministically: `2*off->1*return` admits
/// exactly two inserts, fails the third, and is exhausted (inert) from
/// the fourth on — identically on every re-arm.
#[test]
fn countdown_chain_replays_against_the_engine() {
    let _g = armed();
    for _ in 0..2 {
        let db = seeded_db(0, 0);
        fail::cfg("db::insert", "2*off->1*return(third-fails)").unwrap();
        let pattern: Vec<bool> = (0..4i64)
            .map(|i| db.insert("t", &Record::new().with("id", i).with("amount", amount(i))).is_ok())
            .collect();
        assert_eq!(pattern, [true, true, false, true]);
        fail::remove("db::insert");
    }
}

/// Seeded probabilistic faults replay byte-for-byte: the same seed and
/// spec produce the same ok/err pattern over a fresh database.
#[test]
fn seeded_probabilistic_faults_replay() {
    let _g = armed();
    let run = || -> Vec<bool> {
        fail::seed(42);
        fail::cfg("db::insert", "40%return(roll)").unwrap();
        let db = seeded_db(0, 0);
        let pattern = (0..64i64)
            .map(|i| db.insert("t", &Record::new().with("id", i).with("amount", amount(i))).is_ok())
            .collect();
        fail::remove("db::insert");
        pattern
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed must replay the same fault schedule");
    assert!(first.iter().any(|ok| *ok) && first.iter().any(|ok| !*ok), "40% should mix outcomes");
}

/// A table sorted on `id` with a unique, indexable `uid = 10 000 + id`:
/// `ids` inserted in reverse, so a merge permutes them.
fn insert_reversed(db: &Database, ids: std::ops::Range<i64>) {
    for i in ids.rev() {
        db.insert("t", &Record::new().with("id", i).with("uid", 10_000 + i).with("amount", amount(i)))
            .unwrap();
    }
}

/// A panic while a store's index is built — under `create_index`, in an
/// eager merge's build phase, or under a need-to-know reader — leaves
/// that store's cell empty: answers stay right, and the next reader
/// fills the cell.
#[test]
fn index_build_panic_leaves_the_cell_to_the_next_reader() {
    let _g = armed();
    let sorted_db = || {
        let db = Database::new();
        let cols = [("id", DataType::Int64), ("uid", DataType::Int64), ("amount", DataType::Int64)];
        db.create_table_sorted("t", &cols, "id").unwrap();
        db.set_merge_threshold("t", usize::MAX).unwrap();
        insert_reversed(&db, 0..500);
        db.merge("t").unwrap();
        db
    };
    let probe = |db: &Database, id: i64| {
        let q = Query::scan("t").filter("uid", CmpOp::Eq, 10_000 + id).aggregate(AggKind::Sum, "amount");
        let out = db.execute(&q).unwrap();
        assert_eq!(out.access_path, Some(AccessPath::IndexLookup), "id {id}");
        assert_eq!(out.rows.row(0).unwrap()[0].as_float().unwrap() as i64, amount(id), "id {id}");
    };
    let stats = |db: &Database| db.index_stats("t", "uid").unwrap();

    // Under `create_index`: the index is declared, its segment bare.
    let db = sorted_db();
    fail::cfg("index::build", "panic(build)").unwrap();
    let r = catch_unwind(AssertUnwindSafe(|| db.create_index("t", "uid", IndexMaintenance::Eager)));
    assert!(r.is_err(), "armed create_index must panic");
    fail::remove("index::build");
    assert_eq!(stats(&db).maintenance_ops, 0, "the cell stayed empty");
    probe(&db, 250);
    assert_eq!((stats(&db).maintenance_ops, stats(&db).catchups), (500, 1), "the next reader filled it");

    // In an eager merge's build phase: the merge unwinds, its rows stay
    // in a sealed chunk, and the next reader indexes that chunk.
    insert_reversed(&db, 500..700);
    fail::cfg("index::build", "panic(build)").unwrap();
    assert!(catch_unwind(AssertUnwindSafe(|| db.merge("t"))).is_err(), "armed merge must panic");
    fail::remove("index::build");
    assert_eq!(stats(&db).maintenance_ops, 500);
    probe(&db, 650);
    assert_eq!((stats(&db).maintenance_ops, stats(&db).catchups), (700, 2));
    // The recovery merge sorts the rows into a segment and indexes it.
    db.merge("t").unwrap();
    assert_eq!((stats(&db).maintenance_ops, stats(&db).catchups), (900, 2));
    probe(&db, 650);
    assert_eq!(sum_of(&db), prefix_sum(700));

    // Under a need-to-know reader: the query fails, the next one builds.
    let db = sorted_db();
    db.create_index("t", "uid", IndexMaintenance::NeedToKnow).unwrap();
    fail::cfg("index::build", "panic(build)").unwrap();
    assert!(catch_unwind(AssertUnwindSafe(|| probe(&db, 250))).is_err(), "armed reader must panic");
    fail::remove("index::build");
    assert_eq!(stats(&db).maintenance_ops, 0, "the cell stayed empty");
    probe(&db, 250);
    assert_eq!((stats(&db).maintenance_ops, stats(&db).catchups), (500, 1));
}

/// A panic injected at the pool's morsel-dispatch (and pickup) sites
/// propagates to the submitting query, and the pool — the process-wide
/// shared one — stays fully reusable: the next query over the same
/// database answers exactly.
#[test]
fn pool_fault_propagates_and_pool_stays_reusable() {
    let _g = armed();
    // All rows left in the delta, three sealed chunks and a ragged open
    // one: four delta units, so the query is genuinely pooled and the
    // dispatch failpoint must fire — whatever the chunk size.
    let rows = 3 * DELTA_CHUNK_ROWS + 7;
    let db = seeded_db(0, rows as i64);
    let delta_stores = {
        let snap = db.begin_snapshot();
        let t = snap.table("t").unwrap();
        t.zone_maps("id").unwrap().len() - t.segments().len()
    };
    assert!(delta_stores >= 2, "{delta_stores} delta store(s): the query would run serially");
    let meter_before = db.meter().grand_total().joules();
    let opts = ExecOpts { dop: 4, gate: None, cancel: None };

    // `pool::dispatch` fires on the first morsel grab of whichever unit
    // runs first (the caller-runs inline unit guarantees one exists);
    // `pool::pickup` additionally fires if a helper picks the job up —
    // both must travel the same panic-recovery path.
    fail::cfg("pool::dispatch", "1*panic(dispatch)").unwrap();
    fail::cfg("pool::pickup", "panic(pickup)").unwrap();
    let r = catch_unwind(AssertUnwindSafe(|| db.execute_opts(&sum_query(), &opts)));
    assert!(r.is_err(), "armed dispatch must panic the query");
    fail::teardown();

    assert!(db.meter().grand_total().joules() >= meter_before, "meter went backwards");
    for _ in 0..3 {
        let out = db.execute_opts(&sum_query(), &opts).unwrap();
        assert_eq!(
            out.rows.row(0).unwrap()[0].as_float().unwrap() as i64,
            prefix_sum(rows),
            "pool unusable after injected fault"
        );
    }

    // Stochastic pickup faults: every run either panics or answers
    // exactly — never a wrong answer — and the pool survives them all.
    fail::seed(7);
    fail::cfg("pool::pickup", "25%panic(flaky-pickup)").unwrap();
    let mut panicked = 0;
    for _ in 0..16 {
        match catch_unwind(AssertUnwindSafe(|| db.execute_opts(&sum_query(), &opts))) {
            Ok(out) => {
                let out = out.unwrap();
                assert_eq!(out.rows.row(0).unwrap()[0].as_float().unwrap() as i64, prefix_sum(rows));
            }
            Err(_) => panicked += 1,
        }
    }
    fail::teardown();
    let _ = panicked; // whether helpers raced to pickup is schedule-dependent
    let out = db.execute_opts(&sum_query(), &opts).unwrap();
    assert_eq!(out.rows.row(0).unwrap()[0].as_float().unwrap() as i64, prefix_sum(rows));
}

/// The gather runs its shares on the pool like every other stage: a
/// panic injected at dispatch or pickup inside a pooled projection
/// propagates to the query, and the pool stays reusable — the next
/// projection returns every row exactly.
#[test]
fn pooled_projection_fault_propagates_and_pool_stays_reusable() {
    let _g = armed();
    // No filter: the gather is the only stage that runs units, so the
    // failpoints fire inside it — four delta stores, four shares.
    let rows = 3 * DELTA_CHUNK_ROWS + 7;
    let db = seeded_db(0, rows as i64);
    let opts = ExecOpts { dop: 4, gate: None, cancel: None };
    let q = Query::scan("t").select(["amount", "id"]);
    let check = |out: QueryResult| {
        let ids: Vec<i64> = (0..rows as i64).collect();
        let amounts: Vec<i64> = ids.iter().map(|&i| amount(i)).collect();
        assert_eq!(out.rows.column("id").unwrap().as_int64().unwrap(), &ids[..]);
        assert_eq!(out.rows.column("amount").unwrap().as_int64().unwrap(), &amounts[..]);
    };
    let meter_before = db.meter().grand_total().joules();

    fail::cfg("pool::dispatch", "1*panic(dispatch)").unwrap();
    fail::cfg("pool::pickup", "panic(pickup)").unwrap();
    let r = catch_unwind(AssertUnwindSafe(|| db.execute_opts(&q, &opts)));
    assert!(r.is_err(), "armed dispatch must panic the projection");
    fail::teardown();

    assert!(db.meter().grand_total().joules() >= meter_before, "meter went backwards");
    for _ in 0..3 {
        check(db.execute_opts(&q, &opts).unwrap());
    }

    // Stochastic pickup faults: every run either panics or returns
    // every row exactly, and the pool survives them all.
    fail::seed(11);
    fail::cfg("pool::pickup", "25%panic(flaky-pickup)").unwrap();
    for _ in 0..16 {
        if let Ok(out) = catch_unwind(AssertUnwindSafe(|| db.execute_opts(&q, &opts))) {
            check(out.unwrap());
        }
    }
    fail::teardown();
    check(db.execute_opts(&q, &opts).unwrap());
}

/// The qserver failpoints complete the instrumented set; fired as
/// panics they fail only the one submission — admission slots release
/// and the server keeps serving. (Exercised here through the public
/// sched crate? No — sched depends on core, so the server-side proof
/// lives in `haec-sched`; this test pins the *registry names* so a
/// rename breaks loudly.)
#[test]
fn instrumented_failpoint_names_are_stable() {
    let _g = armed();
    for name in [
        "merge::build",
        "merge::remap",
        "merge::segment",
        "merge::publish",
        "db::insert",
        "index::build",
        "pool::dispatch",
        "pool::pickup",
        "qserver::admit",
        "qserver::snapshot",
    ] {
        fail::cfg(name, "off").unwrap();
    }
    let listed = fail::list();
    assert_eq!(listed.len(), 10, "instrumented failpoint registry drifted: {listed:?}");
    fail::teardown();
    assert!(fail::list().is_empty());
}
