//! E11 — "energy can be saved if individual hardware components are
//! turned off to save idle power" (§IV): offered load × governor on the
//! real [`QueryServer`].
//!
//! A closed-loop probe measures the server's capacity; then open-loop
//! clients offer a share of it, each client sending on a fixed schedule
//! and timing every query from when it was due. Per round the pool's
//! idle worker-seconds are `workers × wall − the process's on-CPU
//! seconds` (read from `/proc/self/task/*/schedstat`: this process only,
//! nothing changed). The host can neither park cores nor change
//! P-states, so the idle draw is the model applied to that measured
//! idle time: idle worker-seconds × `core_power(d.pstate,
//! d.idle_cstate)` ÷ wall, where `d` is the server's own
//! [`decide`] for an idle pool. Asserted: at the lowest rate
//! race-to-idle's modeled idle draw is below ondemand's, and every
//! answer is checked.

use super::served::{closed_loop, fresh, query, Answers};
use crate::report::{fmt_dur, fmt_joules, fmt_rate, Report};
use haec_sched::governor::{decide, GovernorInput, GovernorPolicy};
use haec_sched::qserver::{QueryServer, QueryServerConfig};
use haec_sim::stats::Histogram;
use haecdb::prelude::Database;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

const WORKERS: usize = 4;
const ROWS: i64 = 64 * 1024;
const CLIENTS: usize = 4;
/// Offered rates as shares of the probed closed-loop capacity.
const LOAD_SHARES: [f64; 3] = [0.05, 0.2, 0.5];
const PROBE_QUERIES_PER_CLIENT: usize = 64;
const ROUND: Duration = Duration::from_millis(600);
/// How far ahead of the first due time the clients are started.
const LEAD: Duration = Duration::from_millis(20);

/// On-CPU seconds of every thread of this process, from each task's
/// `schedstat`; `None` where that is unreadable.
fn cpu_seconds() -> Option<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        ns += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(ns as f64 * 1e-9)
}

struct Round {
    rate: f64,
    policy: GovernorPolicy,
    served: usize,
    wall: f64,
    /// Latency from each query's due time, in nanoseconds.
    late: Histogram,
    cpu: Option<f64>,
    joules_per_query: f64,
}

impl Round {
    fn idle_worker_seconds(&self) -> Option<f64> {
        self.cpu.map(|cpu| (WORKERS as f64 * self.wall - cpu).max(0.0))
    }

    /// Modeled idle draw: the measured idle time at the power of the
    /// sleep state the governor picks for an idle pool.
    fn idle_watts(&self, db: &Database) -> Option<f64> {
        let table = db.machine().pstates();
        let idle = GovernorInput {
            queued: 0,
            busy_cores: 0,
            total_cores: WORKERS,
            head_work_cycles: 0,
            current: table.fastest(),
        };
        let d = decide(self.policy, table, idle);
        let per_core = table.core_power(d.pstate, d.idle_cstate).watts();
        self.idle_worker_seconds().map(|s| s * per_core / self.wall)
    }
}

/// [`CLIENTS`] open-loop clients offer `rate` queries/s in total for
/// [`ROUND`]: client `c` sends its `k`-th query at `t0 + (k + c/CLIENTS)
/// × period` whether or not its previous one is back late.
fn run_round(db: &Arc<Database>, answers: &Answers, policy: GovernorPolicy, rate: f64) -> Round {
    let srv = QueryServer::new(Arc::clone(db), QueryServerConfig { governor: policy, ..Default::default() });
    let period = Duration::from_secs_f64(CLIENTS as f64 / rate);
    let (start, done, release) =
        (Barrier::new(CLIENTS + 1), Barrier::new(CLIENTS + 1), Barrier::new(CLIENTS + 1));
    let t0 = Instant::now() + LEAD;
    let (cpu, wall, late, sent) = thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (srv, start, done, release) = (&srv, &start, &done, &release);
                scope.spawn(move || {
                    start.wait();
                    let mut late = Histogram::new();
                    let mut due = t0 + period.mul_f64(c as f64 / CLIENTS as f64);
                    let mut q = c;
                    while due < t0 + ROUND {
                        thread::sleep(due.saturating_duration_since(Instant::now()));
                        answers.check(q, &srv.execute(&query(q)).unwrap());
                        late.record_duration(due.elapsed());
                        due += period;
                        q += 1;
                    }
                    // Stay alive until the CPU time is read: an exited
                    // thread's schedstat is gone with it.
                    done.wait();
                    release.wait();
                    (late, q - c)
                })
            })
            .collect();
        let (cpu0, wall0) = (cpu_seconds(), Instant::now());
        start.wait();
        done.wait();
        let (cpu1, wall) = (cpu_seconds(), wall0.elapsed());
        release.wait();
        let mut late = Histogram::new();
        let mut sent = 0;
        for client in clients {
            let (h, n) = client.join().unwrap();
            late.merge(&h);
            sent += n;
        }
        (cpu0.zip(cpu1).map(|(a, b)| b - a), wall, late, sent)
    });
    let stats = srv.stats();
    assert_eq!(stats.completed, sent, "{policy}: every offered query must be served");
    Round {
        rate,
        policy,
        served: sent,
        wall: wall.as_secs_f64(),
        late,
        cpu,
        joules_per_query: stats.energy.joules() / sent.max(1) as f64,
    }
}

/// Runs the experiment.
pub fn run() -> Report {
    let mut r = Report::new(
        "E11",
        "idle power: offered load x governor on the real query server",
        "turning components off saves idle power; per-query response time may suffer (§IV)",
    );
    r.headers([
        "offered",
        "governor",
        "served",
        "p50 from due",
        "p99 from due",
        "CPU s",
        "idle worker-s",
        "idle draw (model)",
        "J/query (model)",
    ]);
    let db = fresh(WORKERS, ROWS);
    let answers = Answers::over(ROWS);

    let probe = QueryServer::new(Arc::clone(&db), QueryServerConfig::default());
    let probe_queries = CLIENTS * PROBE_QUERIES_PER_CLIENT;
    let capacity =
        probe_queries as f64 / closed_loop(&probe, &answers, CLIENTS, PROBE_QUERIES_PER_CLIENT).as_secs_f64();

    let mut rounds = Vec::new();
    for share in LOAD_SHARES {
        for policy in [GovernorPolicy::RaceToIdle, GovernorPolicy::OnDemand] {
            rounds.push(run_round(&db, &answers, policy, capacity * share));
        }
    }

    let na = || "n/a".to_string();
    for round in &rounds {
        r.row([
            fmt_rate(round.rate),
            format!("{}", round.policy),
            format!("{}", round.served),
            fmt_dur(round.late.quantile_duration(0.50).unwrap_or_default()),
            fmt_dur(round.late.quantile_duration(0.99).unwrap_or_default()),
            round.cpu.map_or_else(na, |s| format!("{s:.3}")),
            round.idle_worker_seconds().map_or_else(na, |s| format!("{s:.3}")),
            round.idle_watts(&db).map_or_else(na, |w| format!("{w:.2} W")),
            fmt_joules(round.joules_per_query),
        ]);
    }

    let lowest = capacity * LOAD_SHARES[0];
    let idle_at = |policy: GovernorPolicy| {
        rounds.iter().find(|r| r.policy == policy && r.rate == lowest).and_then(|r| r.idle_watts(&db))
    };
    match (idle_at(GovernorPolicy::RaceToIdle), idle_at(GovernorPolicy::OnDemand)) {
        (Some(race), Some(ondemand)) => {
            assert!(
                race < ondemand,
                "parking saved nothing at the lowest rate: race {race} W vs ondemand {ondemand} W"
            );
            r.note(format!(
                "at {} offered, race-to-idle's modeled idle draw is {race:.2} W vs ondemand's \
                 {ondemand:.2} W: it parks idle cores where ondemand only halts them",
                fmt_rate(lowest)
            ));
        }
        _ => {
            r.note("per-thread CPU time unreadable on this host: idle columns n/a, assertion skipped");
        }
    }
    let hw = thread::available_parallelism().map_or(1, |n| n.get());
    r.note(format!(
        "offered rates are {LOAD_SHARES:?} of a {} closed-loop capacity probe on {hw} hardware \
         thread(s); {CLIENTS} clients each send on a fixed schedule and time queries from when \
         they were due",
        fmt_rate(capacity)
    ));
    r.note(
        "this host can neither park cores nor change P-states: the idle column is the machine \
         model's sleep-state power applied to the measured idle worker-seconds",
    );
    r
}
