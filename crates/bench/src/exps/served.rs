//! The client harness the query-server experiments share (E2, E11, E22
//! and E24): one `events(id, amount)` table on a fixed-width worker
//! pool, two closed-form query shapes clients alternate between, and a
//! closed-loop round that checks every answer.

use haec_energy::machine::MachineSpec;
use haec_sched::qserver::{QueryServer, ServedQuery};
use haecdb::prelude::*;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

fn amount(i: i64) -> i64 {
    (i * 31 + 7) % 1_000
}

/// A database of `rows` events merged into main segments, on its own
/// `workers`-wide pool and modeled as a machine with that many cores.
pub fn fresh(workers: usize, rows: i64) -> Arc<Database> {
    let pool = Arc::new(WorkerPool::new(workers));
    let db = Database::with_machine_and_pool(MachineSpec::commodity_2013().with_cores(workers), pool);
    db.create_table("events", &[("id", DataType::Int64), ("amount", DataType::Int64)]).unwrap();
    db.set_merge_threshold("events", usize::MAX).unwrap();
    for i in 0..rows {
        db.insert("events", &Record::new().with("id", i).with("amount", amount(i))).unwrap();
    }
    db.merge("events").unwrap();
    Arc::new(db)
}

/// The two closed-form query shapes clients alternate between: an even
/// `q` sums `amount`, an odd one counts the rows with `amount < 500`.
pub fn query(q: usize) -> Query {
    if q.is_multiple_of(2) {
        Query::scan("events").aggregate(AggKind::Sum, "amount")
    } else {
        Query::scan("events").filter("amount", CmpOp::Lt, 500).aggregate(AggKind::Count, "amount")
    }
}

/// The closed-form answers to [`query`] over a [`fresh`] database,
/// worked out once so checking an answer costs no scan of its own.
pub struct Answers {
    sum: i64,
    below_500: usize,
}

impl Answers {
    /// The answers over `rows` rows.
    pub fn over(rows: i64) -> Answers {
        Answers {
            sum: (0..rows).map(amount).sum(),
            below_500: (0..rows).filter(|&i| amount(i) < 500).count(),
        }
    }

    /// Checks `served`, the answer to [`query`]`(q)`.
    pub fn check(&self, q: usize, served: &ServedQuery) {
        let got = served.result.rows.row(0).unwrap()[0].as_float().unwrap();
        if q.is_multiple_of(2) {
            assert_eq!(got as i64, self.sum, "SUM(amount) answered wrong under load");
        } else {
            assert_eq!(got as usize, self.below_500, "filtered COUNT answered wrong under load");
        }
    }
}

/// The client counts of `ladder` up to the value of the environment
/// variable `var` (CI smoke runs small counts); never fewer than the
/// ladder's first rung.
pub fn client_counts(var: &str, ladder: &[usize]) -> Vec<usize> {
    let max = std::env::var(var).ok().and_then(|v| v.parse::<usize>().ok()).unwrap_or(usize::MAX);
    let floor = ladder.first().copied().unwrap_or(1);
    ladder.iter().copied().filter(|&c| c <= max.max(floor)).collect()
}

/// `clients` closed-loop threads each run `per_client` queries through
/// `srv`, every answer checked against `answers`; returns the wall time
/// from the clients' common start to the last one done.
pub fn closed_loop(srv: &QueryServer, answers: &Answers, clients: usize, per_client: usize) -> Duration {
    let start = Barrier::new(clients + 1);
    let started = thread::scope(|scope| {
        for c in 0..clients {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                for q in 0..per_client {
                    answers.check(c + q, &srv.execute(&query(c + q)).unwrap());
                }
            });
        }
        start.wait();
        // Leaving the scope joins every client, so `started.elapsed()`
        // after the scope covers barrier-release to last-client-done.
        Instant::now()
    });
    started.elapsed()
}
