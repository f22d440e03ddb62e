//! E24 — graceful degradation under overload: offered load swept far
//! past a deliberately tiny server capacity (2 concurrent, 4 queued),
//! comparing three client disciplines against the same engine:
//!
//! * **naive** — hammer on `Overloaded`: retry immediately, forever;
//! * **backoff** — retry under [`haec_sched::backoff::Backoff`],
//!   floored by the server's `retry_after` hint;
//! * **deadline** — per-attempt deadlines plus mixed priorities, so
//!   overload resolves by *shedding* (deadline expiry while queued,
//!   lowest-priority eviction) instead of unbounded waiting.
//!
//! Reported per round: goodput (completed queries per second), p99
//! latency, energy per completed query, and the rejection/cancel/shed
//! counters. Structural gates that hold on any machine:
//!
//! * every completed answer matches its closed form — degradation is
//!   never bought with wrong answers;
//! * the server's books balance: completed/cancelled counters equal the
//!   clients' own tallies, and after every round the admission gate and
//!   the fleet-wide morsel gate are empty (`active == queued ==
//!   inflight == 0`) — **zero permit leak** under rejection, retry,
//!   cancellation and shedding;
//! * past saturation the deadline discipline actually sheds (rejections
//!   or cancellations observed), rather than queueing without bound;
//! * the pool spawns zero threads across the whole sweep.

use super::served::{client_counts, fresh, query, Answers};
use crate::report::{fmt_dur, fmt_joules, fmt_rate, Report};
use haec_energy::units::Watts;
use haec_sched::backoff::Backoff;
use haec_sched::governor::GovernorPolicy;
use haec_sched::qserver::{QueryOpts, QueryServer, QueryServerConfig, ServerError};
use haecdb::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

const WORKERS: usize = 4;
const ROWS: i64 = 32 * 1024;
const QUERIES_PER_CLIENT: usize = 4;
const CAP_WATTS: f64 = 30.0;
/// Deliberately tiny: the sweep is about what happens *past* capacity.
const MAX_CONCURRENT: usize = 2;
const MAX_QUEUED: usize = 4;
const ATTEMPT_DEADLINE: Duration = Duration::from_millis(5);
/// Client counts to sweep past capacity, truncated by the `E24_CLIENTS`
/// environment variable (CI smoke runs small counts).
const CLIENTS: [usize; 4] = [4, 16, 64, 256];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Naive,
    Backoff,
    Deadline,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Naive => "naive",
            Mode::Backoff => "backoff",
            Mode::Deadline => "deadline",
        }
    }
}

struct Round {
    mode: Mode,
    clients: usize,
    goodput: f64,
    p99: Duration,
    joules_per_completed: f64,
    completed: usize,
    dropped: usize,
    rejected: usize,
    shed: u64,
    retries: usize,
}

/// `clients` closed-loop threads each try [`QUERIES_PER_CLIENT`]
/// queries under `mode`'s retry discipline; returns the measured round.
fn run_round(db: &Arc<Database>, answers: &Answers, mode: Mode, clients: usize) -> Round {
    let srv = QueryServer::new(
        Arc::clone(db),
        QueryServerConfig {
            governor: GovernorPolicy::EnergyCap(Watts::new(CAP_WATTS)),
            max_concurrent: MAX_CONCURRENT,
            max_queued: MAX_QUEUED,
        },
    );
    let start = Barrier::new(clients + 1);
    let successes = AtomicUsize::new(0);
    let dropped = AtomicUsize::new(0);
    let retries = AtomicUsize::new(0);
    let started = thread::scope(|scope| {
        for c in 0..clients {
            let srv = &srv;
            let start = &start;
            let successes = &successes;
            let dropped = &dropped;
            let retries = &retries;
            scope.spawn(move || {
                start.wait();
                let mut backoff = Backoff::new(Duration::from_micros(100), Duration::from_millis(5));
                for q in 0..QUERIES_PER_CLIENT {
                    loop {
                        let opts = match mode {
                            Mode::Naive | Mode::Backoff => QueryOpts::default(),
                            // Per-attempt deadline + mixed priorities:
                            // overload resolves by shedding the cheap.
                            Mode::Deadline => {
                                QueryOpts { deadline: Some(ATTEMPT_DEADLINE), priority: ((c + q) % 3) as u8 }
                            }
                        };
                        match srv.submit(&query(c + q), &opts) {
                            Ok(served) => {
                                answers.check(c + q, &served);
                                successes.fetch_add(1, Ordering::Relaxed);
                                backoff.reset();
                                break;
                            }
                            Err(err @ ServerError::Overloaded { .. }) => {
                                retries.fetch_add(1, Ordering::Relaxed);
                                match mode {
                                    Mode::Naive => thread::yield_now(),
                                    _ => thread::sleep(backoff.next_delay(err.retry_after())),
                                }
                            }
                            Err(err) if err.is_cancelled() => {
                                // Deadline expired (queued or running):
                                // the client gives this query up.
                                dropped.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(err) => panic!("unexpected server error: {err}"),
                        }
                    }
                }
            });
        }
        start.wait();
        std::time::Instant::now()
    });
    let elapsed = started.elapsed().max(Duration::from_micros(1));
    let stats = srv.stats();

    // The books balance: the server's counters are exactly the clients'
    // experience, and nothing is left admitted, queued or in flight.
    assert_eq!(stats.completed, successes.load(Ordering::Relaxed), "completed-count mismatch");
    assert_eq!(stats.cancelled, dropped.load(Ordering::Relaxed), "cancelled-count mismatch");
    assert_eq!(
        stats.completed + stats.cancelled,
        clients * QUERIES_PER_CLIENT,
        "every query must resolve as completed or dropped"
    );
    assert_eq!(srv.active(), 0, "admission slots leaked");
    assert_eq!(srv.queued(), 0, "admission queue not drained");
    assert_eq!(srv.gate().inflight(), 0, "morsel-gate permits leaked");
    if mode == Mode::Deadline && clients >= 16 * MAX_CONCURRENT {
        assert!(
            stats.rejected + stats.cancelled > 0,
            "far past capacity the deadline discipline must shed, not queue without bound"
        );
    }

    Round {
        mode,
        clients,
        goodput: stats.completed as f64 / elapsed.as_secs_f64(),
        p99: stats.p99,
        joules_per_completed: if stats.completed > 0 {
            stats.energy.joules() / stats.completed as f64
        } else {
            0.0
        },
        completed: stats.completed,
        dropped: stats.cancelled,
        rejected: stats.rejected,
        shed: stats.shed,
        retries: retries.load(Ordering::Relaxed),
    }
}

/// Runs the experiment.
pub fn run() -> Report {
    let mut r = Report::new(
        "E24",
        "Overload degradation: client sweep past a 2-slot server, naive vs backoff vs deadline",
        "bounded admission + retry_after hints + deadline shedding resolve overload with \
         exact answers, a stable per-query energy bill, and zero permit leaks",
    );
    r.headers([
        "mode",
        "clients",
        "goodput",
        "p99",
        "E/completed",
        "ok",
        "drop",
        "reject",
        "shed",
        "retries",
    ]);
    let db = fresh(WORKERS, ROWS);
    let answers = Answers::over(ROWS);

    // Warmup, then pin the thread baseline: overload handling must not
    // buy progress with hidden threads.
    {
        let srv = QueryServer::new(Arc::clone(&db), QueryServerConfig::default());
        for q in 0..2 {
            answers.check(q, &srv.execute(&query(q)).unwrap());
        }
    }
    let spawned_baseline = db.pool().threads_spawned();

    let mut rounds: Vec<Round> = Vec::new();
    for mode in [Mode::Naive, Mode::Backoff, Mode::Deadline] {
        for clients in client_counts("E24_CLIENTS", &CLIENTS) {
            rounds.push(run_round(&db, &answers, mode, clients));
            assert_eq!(db.pool().threads_spawned(), spawned_baseline, "pool spawned threads");
        }
    }

    for round in &rounds {
        r.row([
            round.mode.name().to_string(),
            format!("{}", round.clients),
            fmt_rate(round.goodput),
            fmt_dur(round.p99),
            fmt_joules(round.joules_per_completed),
            format!("{}", round.completed),
            format!("{}", round.dropped),
            format!("{}", round.rejected),
            format!("{}", round.shed),
            format!("{}", round.retries),
        ]);
    }

    let max_clients = client_counts("E24_CLIENTS", &CLIENTS).into_iter().max().unwrap_or(4);
    let at = |mode: Mode, clients: usize| rounds.iter().find(|r| r.mode == mode && r.clients == clients);
    if let (Some(naive), Some(backoff)) = (at(Mode::Naive, max_clients), at(Mode::Backoff, max_clients)) {
        r.note(format!(
            "{} clients on {MAX_CONCURRENT} slots: naive spin-retry took {} retries for {} \
             goodput; backoff (retry_after-floored) took {} retries for {} — which discipline \
             wastes less depends on how loaded the host is, but both drain to zero leaks",
            max_clients,
            naive.retries,
            fmt_rate(naive.goodput),
            backoff.retries,
            fmt_rate(backoff.goodput),
        ));
    }
    if let Some(dl) = at(Mode::Deadline, max_clients) {
        r.note(format!(
            "deadline discipline at {} clients: {} completed, {} dropped by expiry, {} \
             rejected, {} shed from the queue — overload resolves by shedding the cheapest \
             work, and the gates drained to zero after every round (no permit leak)",
            max_clients, dl.completed, dl.dropped, dl.rejected, dl.shed
        ));
    }
    r.note(format!(
        "pool threads spawned: {spawned_baseline} (= {WORKERS} workers), constant across the \
         sweep — rejection, retry, cancellation and shedding never create threads"
    ));

    r
}
