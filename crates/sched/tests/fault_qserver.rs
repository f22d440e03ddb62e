//! Server-tier fault injection: the `qserver::admit` and
//! `qserver::snapshot` failpoints, fired as panics, fail only the one
//! submission — the admission slot releases through RAII and the
//! server keeps serving. Only built under `RUSTFLAGS="--cfg haec_fail"`:
//!
//! ```text
//! RUSTFLAGS="--cfg haec_fail" cargo test -p haec-sched --test fault_qserver
//! ```
#![cfg(haec_fail)]

use haec_sched::prelude::*;
use haecdb::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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

fn served_db(rows: i64) -> Arc<Database> {
    let db = Database::new();
    db.create_table("t", &[("id", DataType::Int64), ("v", DataType::Int64)]).unwrap();
    db.set_merge_threshold("t", usize::MAX).unwrap();
    for i in 0..rows {
        db.insert("t", &Record::new().with("id", i).with("v", i % 100)).unwrap();
    }
    db.merge("t").unwrap();
    Arc::new(db)
}

fn sum_query() -> Query {
    Query::scan("t").aggregate(AggKind::Sum, "v")
}

fn expected(rows: i64) -> f64 {
    (0..rows).map(|i| (i % 100) as f64).sum()
}

/// A panic at either server failpoint must not leak its admission slot
/// (RAII permit), even at `max_concurrent: 1` where a single leaked
/// slot would wedge the server forever.
#[test]
fn server_failpoint_panics_release_slots_and_tokens() {
    let rows = 50_000;
    let db = served_db(rows);
    for fp in ["qserver::admit", "qserver::snapshot"] {
        let _g = armed();
        let srv =
            QueryServer::new(Arc::clone(&db), QueryServerConfig { max_concurrent: 1, ..Default::default() });
        fail::cfg(fp, "1*panic(injected)").unwrap();
        let r = catch_unwind(AssertUnwindSafe(|| srv.execute(&sum_query())));
        assert!(r.is_err(), "{fp}: armed submission must panic");
        assert_eq!(srv.active(), 0, "{fp}: panicked submission leaked its slot");
        assert_eq!(srv.queued(), 0, "{fp}: panicked submission left a waiter");
        // The single slot is free: the next query admits and answers.
        let out = srv.execute(&sum_query()).unwrap();
        assert_eq!(out.result.rows.row(0).unwrap()[0].as_float(), Some(expected(rows)));
        assert_eq!(srv.stats().completed, 1, "{fp}");
    }
}
