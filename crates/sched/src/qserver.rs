//! The concurrent query server: hundreds of client queries over one
//! shared [`Database`], scheduled by a real [`GovernorPolicy`].
//!
//! This is the front door the paper's Fig. 2 asks for — "flexibly
//! balance query response time minimization and throughput maximization
//! under a given energy constraint" — driving the **real engine**. Per
//! admitted query the server:
//!
//! 1. applies **admission control** through an
//!    [`AdmissionGate`]: at most
//!    `max_concurrent` queries in flight, up to `max_queued` more
//!    waiting in priority order, everything beyond shed
//!    lowest-priority-first with [`ServerError::Overloaded`] carrying a
//!    `retry_after` hint (bounded queues and honest hints beat
//!    unbounded latency collapse);
//! 2. asks the governor for a decision over the machine's real P-state
//!    table, translated into a per-query **parallelism grant** over the
//!    query's stores, one store per morsel (see `QueryServer::grant`
//!    for the mapping);
//! 3. pins an MVCC snapshot ([`Database::begin_snapshot`]) so the query
//!    reads one consistent cut while writers keep inserting/merging;
//! 4. executes on the shared worker pool via
//!    [`haecdb::DbSnapshot::execute_opts`] — no query ever creates a
//!    thread — carrying a [`CancelToken`] armed with the query's
//!    deadline, so an expired deadline stops it within one morsel,
//!    billed for the bytes it actually touched
//!    (`DbError::Cancelled { partial_energy }`).
//!
//! The engine has no DVFS to actuate, so the governor's `(pstate,
//! core_cap)` decision maps onto the two knobs the pool does have:
//! the **degree of parallelism** (units of the pool a query may occupy)
//! and, for [`GovernorPolicy::EnergyCap`], a fleet-wide in-flight
//! morsel budget enforced by a shared [`MorselGate`]. The budget is
//! derived from measured per-query `CostEstimate`s: an EWMA of each
//! completed query's modeled power (its own energy over its own modeled
//! time — never a shared-meter delta, which concurrent queries would
//! pollute) gives watts-per-morsel-stream, and the cap divided by that
//! is how many streams fit under the budget. When the budget
//! *tightens*, the server sheds that many of its lowest-priority queued
//! queries instead of letting the whole queue stall behind a smaller
//! pipe.

use haec_energy::pstate::PStateId;
use haec_energy::units::Joules;
use haec_exec::cancel::CancelToken;
use haec_sim::stats::Histogram;
use haecdb::db::QueryResult;
use haecdb::error::DbError;
use haecdb::prelude::{Database, ExecOpts, MorselGate, Query};
use std::fmt;
use std::time::{Duration, Instant};

use crate::admission::{AdmissionGate, AdmitError};
use crate::governor::{decide, GovernorInput, GovernorPolicy};
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex};

/// Configuration of a [`QueryServer`].
#[derive(Clone, Debug)]
pub struct QueryServerConfig {
    /// The scheduling policy queries are granted parallelism under.
    pub governor: GovernorPolicy,
    /// Admission bound: queries in flight beyond this wait or are shed.
    pub max_concurrent: usize,
    /// Bounded admission queue beyond `max_concurrent`; `0` restores
    /// instant-reject admission control.
    pub max_queued: usize,
}

impl Default for QueryServerConfig {
    fn default() -> Self {
        QueryServerConfig { governor: GovernorPolicy::RaceToIdle, max_concurrent: 256, max_queued: 0 }
    }
}

/// Per-submission options: deadline and shed priority.
#[derive(Clone, Debug, Default)]
pub struct QueryOpts {
    /// Give up (queued or mid-execution) this long after submission.
    pub deadline: Option<Duration>,
    /// Shed priority under overload: higher values are shed later.
    pub priority: u8,
}

impl QueryOpts {
    /// Options with a deadline relative to submission.
    pub fn with_deadline(deadline: Duration) -> QueryOpts {
        QueryOpts { deadline: Some(deadline), ..QueryOpts::default() }
    }
}

/// Why the server refused or failed a query.
#[derive(Debug)]
pub enum ServerError {
    /// Admission control refused the query: the in-flight set and the
    /// wait queue are full (or the query was shed from the queue to
    /// make room for higher-priority work).
    Overloaded {
        /// Queries in flight at rejection.
        active: usize,
        /// The configured admission bound.
        limit: usize,
        /// When a slot is expected to free — the server's latency EWMA
        /// spread over the in-flight set. A correct client sleeps at
        /// least this long before retrying (see [`crate::backoff`]).
        retry_after: Duration,
    },
    /// The engine failed the query. Cancellation and deadline expiry
    /// surface here as [`DbError::Cancelled`], carrying the energy the
    /// partial run was billed.
    Db(DbError),
}

impl ServerError {
    /// The `retry_after` hint, when this is an overload rejection.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            ServerError::Overloaded { retry_after, .. } => Some(*retry_after),
            ServerError::Db(_) => None,
        }
    }

    /// Whether this is a cancellation/deadline outcome.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, ServerError::Db(DbError::Cancelled { .. }))
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Overloaded { active, limit, retry_after } => write!(
                f,
                "server overloaded: {active} queries in flight (limit {limit}), retry in {retry_after:?}"
            ),
            ServerError::Db(e) => write!(f, "query failed: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// A completed query plus the grant it ran under.
#[derive(Debug)]
pub struct ServedQuery {
    /// The engine's result (rows, energy, modeled time, profile).
    pub result: QueryResult,
    /// Parallelism the governor granted this query.
    pub dop: usize,
    /// End-to-end latency inside the server (admission to result).
    pub latency: Duration,
}

/// A point-in-time summary of the server's lifetime counters.
#[derive(Clone, Debug)]
pub struct ServerStats {
    /// Queries completed successfully.
    pub completed: usize,
    /// Queries refused by admission control (instant rejections and
    /// queue sheds).
    pub rejected: usize,
    /// Queries that ended cancelled by an expired deadline, queued or
    /// mid-execution.
    pub cancelled: usize,
    /// Waiters evicted from the admission queue by shedding.
    pub shed: u64,
    /// Total energy across completed queries (sum of their own
    /// `CostEstimate`s).
    pub energy: Joules,
    /// Median latency (a histogram bucket's lower bound: within ~1.6%).
    pub p50: Duration,
    /// 99th-percentile latency (same resolution as `p50`).
    pub p99: Duration,
    /// Most morsels ever concurrently in flight through the gate.
    pub gate_high_water: usize,
    /// Largest in-flight budget the governor ever set on the gate (the
    /// structural bound `gate_high_water` must respect).
    pub budget_high: usize,
}

/// EWMA observations feeding governor inputs, the energy-cap budget and
/// the `retry_after` hint.
struct Ewma {
    /// Modeled watts of one running query (energy / modeled time).
    watts: f64,
    /// CPU cycles of one query (the `head_work_cycles` estimate).
    cycles: f64,
    /// Wall latency of one completed query, in seconds.
    latency_secs: f64,
}

const EWMA_ALPHA: f64 = 0.2;

impl Ewma {
    fn mix(old: f64, new: f64) -> f64 {
        if old == 0.0 {
            new
        } else {
            old * (1.0 - EWMA_ALPHA) + new * EWMA_ALPHA
        }
    }

    fn update(&mut self, watts: f64, cycles: f64, latency_secs: f64) {
        self.watts = Ewma::mix(self.watts, watts);
        self.cycles = Ewma::mix(self.cycles, cycles);
        self.latency_secs = Ewma::mix(self.latency_secs, latency_secs);
    }
}

/// What the server keeps of its completed queries: a fixed-size latency
/// histogram and two running totals, so neither memory nor `stats()`
/// grows with the server's lifetime.
struct Done {
    /// Wall latency of every completed query, in nanoseconds.
    latency: Histogram,
    completed: usize,
    /// Sum of the completed queries' own `CostEstimate` energies.
    energy: Joules,
}

/// The concurrent query server (see the module docs).
pub struct QueryServer {
    db: Arc<Database>,
    cfg: QueryServerConfig,
    /// Fleet-wide in-flight morsel gate, attached to every granted
    /// query under [`GovernorPolicy::EnergyCap`].
    gate: Arc<MorselGate>,
    /// Admission slots + bounded priority wait queue.
    admission: AdmissionGate,
    rejected: AtomicUsize,
    cancelled: AtomicUsize,
    /// Largest budget ever set on the gate.
    budget_high: AtomicUsize,
    /// P-state currently "in effect" (what `OnDemand` steps from).
    current_pstate: Mutex<PStateId>,
    ewma: Mutex<Ewma>,
    done: Mutex<Done>,
}

impl QueryServer {
    /// Creates a server over a shared database. Queries execute on the
    /// database's own worker pool ([`Database::pool`]); the server adds
    /// scheduling, not threads.
    pub fn new(db: Arc<Database>, cfg: QueryServerConfig) -> QueryServer {
        let workers = db.pool().workers();
        let initial_budget = match cfg.governor {
            // Until a query completes there is no power observation;
            // start from the governor's own core cap under the budget.
            GovernorPolicy::EnergyCap(_) => {
                let d = decide(
                    cfg.governor,
                    db.machine().pstates(),
                    GovernorInput {
                        queued: 0,
                        busy_cores: 0,
                        total_cores: workers,
                        head_work_cycles: 0,
                        current: db.machine().pstates().fastest(),
                    },
                );
                d.core_cap.max(1)
            }
            _ => workers.max(1),
        };
        let current = db.machine().pstates().fastest();
        QueryServer {
            gate: MorselGate::new(initial_budget),
            admission: AdmissionGate::new(cfg.max_concurrent, cfg.max_queued),
            budget_high: AtomicUsize::new(initial_budget),
            db,
            cfg,
            rejected: AtomicUsize::new(0),
            cancelled: AtomicUsize::new(0),
            current_pstate: Mutex::new(current),
            ewma: Mutex::new(Ewma { watts: 0.0, cycles: 0.0, latency_secs: 0.0 }),
            done: Mutex::new(Done { latency: Histogram::new(), completed: 0, energy: Joules::ZERO }),
        }
    }

    /// The fleet-wide morsel gate (for structural assertions: its
    /// high-water mark never exceeds [`ServerStats::budget_high`]).
    pub fn gate(&self) -> &Arc<MorselGate> {
        &self.gate
    }

    /// Queries in flight right now.
    pub fn active(&self) -> usize {
        self.admission.active()
    }

    /// Queries waiting for admission right now.
    pub fn queued(&self) -> usize {
        self.admission.queued()
    }

    fn lock<'a, T>(m: &'a Mutex<T>) -> crate::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// When the next admission slot is expected to free: the completed-
    /// query latency EWMA spread over the in-flight set. Before any
    /// query completes there is no observation, so a small floor keeps
    /// naive retry loops from spinning.
    fn retry_after(&self) -> Duration {
        let lat = Self::lock(&self.ewma).latency_secs;
        if lat > 0.0 {
            Duration::from_secs_f64(lat / self.cfg.max_concurrent.max(1) as f64)
        } else {
            Duration::from_micros(100)
        }
    }

    /// Maps the governor's decision onto the engine's knobs for one
    /// query, given `active` queries in flight (including this one).
    ///
    /// The real machine has no DVFS, so the `(pstate, core_cap)`
    /// decision becomes a *cycle-throughput budget*: `core_cap`
    /// full-speed-equivalent cores scaled by the chosen frequency,
    /// divided evenly among active queries — race-to-idle grants the
    /// whole pool, pace-to-deadline proportionally less the slower its
    /// chosen P-state, energy-cap whatever core count fit the budget.
    /// The grant is the whole of it: a query's morsel is one of its
    /// stores whatever the load, so concurrent grants interleave store
    /// by store. Under `EnergyCap` the shared gate re-targets to the
    /// measured-power budget and rides along in the options; a
    /// tightening budget additionally sheds that many queued queries,
    /// lowest priority first — less capacity should mean less queued
    /// work, not a longer stall.
    fn grant(&self, active: usize) -> ExecOpts {
        let table = self.db.machine().pstates();
        let workers = self.db.pool().workers();
        let ewma = {
            let e = Self::lock(&self.ewma);
            Ewma { watts: e.watts, cycles: e.cycles, latency_secs: e.latency_secs }
        };
        let input = GovernorInput {
            queued: self.db.pool().queued_tasks(),
            busy_cores: self.gate.inflight().min(workers),
            total_cores: workers,
            head_work_cycles: ewma.cycles as u64,
            current: *Self::lock(&self.current_pstate),
        };
        let d = decide(self.cfg.governor, table, input);
        *Self::lock(&self.current_pstate) = d.pstate;

        let freq_ratio =
            table.state(d.pstate).frequency().hertz() / table.state(table.fastest()).frequency().hertz();
        let throughput_cores = (d.core_cap as f64 * freq_ratio).max(1.0);
        let dop = ((throughput_cores / active.max(1) as f64).round() as usize).clamp(1, workers);

        let gate = match self.cfg.governor {
            GovernorPolicy::EnergyCap(cap) => {
                if ewma.watts > 0.0 {
                    // Measured power per morsel stream → how many
                    // streams fit under the cap, fleet-wide.
                    let budget = ((cap.watts() / ewma.watts).floor() as usize).clamp(1, workers);
                    let prev = self.gate.budget();
                    if budget < prev {
                        self.admission.shed_lowest(prev - budget);
                    }
                    self.budget_high.fetch_max(budget, Ordering::Relaxed);
                    self.gate.set_budget(budget);
                }
                Some(Arc::clone(&self.gate))
            }
            _ => None,
        };
        ExecOpts { dop, gate, cancel: None }
    }

    /// Admits, grants, pins and executes one query with default options
    /// (no deadline, priority 0).
    ///
    /// # Errors
    ///
    /// [`ServerError::Overloaded`] when admission control refuses it;
    /// [`ServerError::Db`] when the engine fails it.
    pub fn execute(&self, query: &Query) -> Result<ServedQuery, ServerError> {
        self.submit(query, &QueryOpts::default())
    }

    /// Admits, grants, pins and executes one query under `opts`
    /// (deadline + shed priority). The deadline clock starts here.
    ///
    /// # Errors
    ///
    /// [`ServerError::Overloaded`] (with `retry_after`) when rejected
    /// or shed; `ServerError::Db(DbError::Cancelled { .. })` when the
    /// query's deadline expired (queued: zero energy; mid-execution:
    /// the partial bill); any other engine failure as
    /// [`ServerError::Db`].
    pub fn submit(&self, query: &Query, opts: &QueryOpts) -> Result<ServedQuery, ServerError> {
        let token = match opts.deadline {
            Some(d) => CancelToken::deadline_in(d),
            None => CancelToken::new(),
        };
        let started = Instant::now();
        fail::fail_point!("qserver::admit");
        let limit = self.cfg.max_concurrent;
        let permit =
            self.admission.admit(opts.priority, token.deadline(), Some(&token)).map_err(|e| match e {
                AdmitError::Rejected { active, .. } => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    ServerError::Overloaded { active, limit, retry_after: self.retry_after() }
                }
                AdmitError::Shed => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    ServerError::Overloaded {
                        active: self.admission.active(),
                        limit,
                        retry_after: self.retry_after(),
                    }
                }
                AdmitError::Cancelled | AdmitError::DeadlineExpired => {
                    self.cancelled.fetch_add(1, Ordering::Relaxed);
                    // Never admitted: no work ran, nothing to bill.
                    ServerError::Db(DbError::Cancelled { partial_energy: Joules::new(0.0) })
                }
            })?;

        let active = self.admission.active();
        let mut exec = self.grant(active);
        exec.cancel = Some(token);
        let snap = self.db.begin_snapshot();
        fail::fail_point!("qserver::snapshot");
        let outcome = snap.execute_opts(query, &exec);
        // The admission slot frees (and the next waiter promotes) here,
        // after the engine returned — cancelled queries release exactly
        // like completed ones, so gate permits and slots can never leak
        // on the cancel path.
        drop(permit);
        let result = outcome.map_err(|e| {
            if matches!(e, DbError::Cancelled { .. }) {
                self.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            ServerError::Db(e)
        })?;
        let latency = started.elapsed();

        let modeled_secs = result.modeled_time.as_secs_f64();
        if modeled_secs > 0.0 {
            Self::lock(&self.ewma).update(
                result.energy.joules() / modeled_secs,
                result.profile.cpu_cycles.count() as f64,
                latency.as_secs_f64(),
            );
        }
        {
            let mut done = Self::lock(&self.done);
            done.latency.record_duration(latency);
            done.completed += 1;
            done.energy += result.energy;
        }
        Ok(ServedQuery { result, dop: exec.dop, latency })
    }

    /// A snapshot of the server's lifetime counters.
    pub fn stats(&self) -> ServerStats {
        let done = Self::lock(&self.done);
        let pct = |q: f64| done.latency.quantile_duration(q).unwrap_or(Duration::ZERO);
        ServerStats {
            completed: done.completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            shed: self.admission.shed_total(),
            energy: done.energy,
            p50: pct(0.50),
            p99: pct(0.99),
            gate_high_water: self.gate.high_water(),
            budget_high: self.budget_high.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryServer")
            .field("governor", &self.cfg.governor)
            .field("max_concurrent", &self.cfg.max_concurrent)
            .field("max_queued", &self.cfg.max_queued)
            .field("active", &self.active())
            .field("queued", &self.queued())
            .finish()
    }
}

#[cfg(all(test, not(haec_loom)))]
mod tests {
    use super::*;
    use haec_energy::units::Watts;
    use haecdb::prelude::*;

    fn db_with_rows(rows: i64) -> Arc<Database> {
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

    fn expected_sum(rows: i64) -> f64 {
        (0..rows).map(|i| (i % 100) as f64).sum()
    }

    #[test]
    fn serves_correct_answers_under_every_policy() {
        let rows = 150_000;
        let db = db_with_rows(rows);
        for governor in [
            GovernorPolicy::RaceToIdle,
            GovernorPolicy::PaceToDeadline(Duration::from_millis(100)),
            GovernorPolicy::OnDemand,
            GovernorPolicy::EnergyCap(Watts::new(40.0)),
        ] {
            let srv = QueryServer::new(Arc::clone(&db), QueryServerConfig { governor, ..Default::default() });
            for _ in 0..3 {
                let out = srv.execute(&sum_query()).unwrap();
                assert_eq!(out.result.rows.row(0).unwrap()[0].as_float(), Some(expected_sum(rows)));
                assert!(out.dop >= 1);
                assert!(out.result.energy.joules() > 0.0);
            }
            let stats = srv.stats();
            assert_eq!(stats.completed, 3, "{governor}");
            assert!(stats.energy.joules() > 0.0);
            assert!(stats.p99 >= stats.p50);
        }
    }

    #[test]
    fn admission_control_rejects_beyond_limit() {
        let db = db_with_rows(10_000);
        let srv = QueryServer::new(db, QueryServerConfig { max_concurrent: 0, ..Default::default() });
        let err = srv.execute(&sum_query()).unwrap_err();
        assert!(matches!(err, ServerError::Overloaded { limit: 0, .. }), "{err}");
        assert!(err.retry_after().is_some());
        assert_eq!(srv.stats().rejected, 1);
        assert_eq!(srv.stats().completed, 0);
    }

    #[test]
    fn queued_query_runs_when_a_slot_frees() {
        let db = db_with_rows(50_000);
        let srv = QueryServer::new(
            db,
            QueryServerConfig { max_concurrent: 1, max_queued: 4, ..Default::default() },
        );
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| srv.execute(&sum_query()).unwrap());
            }
        });
        let stats = srv.stats();
        assert_eq!(stats.completed, 4, "queueing must not drop work under capacity");
        assert_eq!(stats.rejected, 0);
        assert_eq!(srv.active(), 0);
        assert_eq!(srv.queued(), 0);
    }

    #[test]
    fn expired_deadline_cancels_with_zero_or_partial_bill() {
        let rows = 100_000;
        let db = db_with_rows(rows);
        let srv = QueryServer::new(db, QueryServerConfig::default());
        let err = srv.submit(&sum_query(), &QueryOpts::with_deadline(Duration::ZERO)).unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        match err {
            ServerError::Db(DbError::Cancelled { partial_energy }) => {
                assert!(partial_energy.joules() >= 0.0);
            }
            other => panic!("expected Cancelled, got {other}"),
        }
        let stats = srv.stats();
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(srv.active(), 0, "cancelled query released its slot");
        // The server still serves the next query correctly.
        let out = srv.execute(&sum_query()).unwrap();
        assert_eq!(out.result.rows.row(0).unwrap()[0].as_float(), Some(expected_sum(rows)));
    }

    #[test]
    fn energy_cap_gate_never_exceeds_budget_high() {
        let rows = 200_000;
        let db = db_with_rows(rows);
        let srv = QueryServer::new(
            db,
            QueryServerConfig { governor: GovernorPolicy::EnergyCap(Watts::new(30.0)), ..Default::default() },
        );
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..4 {
                        let out = srv.execute(&sum_query()).unwrap();
                        assert_eq!(out.result.rows.row(0).unwrap()[0].as_float(), Some(expected_sum(rows)));
                    }
                });
            }
        });
        let stats = srv.stats();
        assert_eq!(stats.completed, 16);
        assert!(stats.gate_high_water >= 1, "capped queries must flow through the gate");
        assert!(
            stats.gate_high_water <= stats.budget_high,
            "gate admitted {} concurrent morsels, budget never exceeded {}",
            stats.gate_high_water,
            stats.budget_high
        );
    }

    #[test]
    fn pace_grants_no_more_than_race() {
        let db = db_with_rows(150_000);
        let race = QueryServer::new(
            Arc::clone(&db),
            QueryServerConfig { governor: GovernorPolicy::RaceToIdle, ..Default::default() },
        );
        // A lenient deadline lets pace pick a slow P-state, which must
        // translate into a smaller (or equal) parallelism grant.
        let pace = QueryServer::new(
            Arc::clone(&db),
            QueryServerConfig {
                governor: GovernorPolicy::PaceToDeadline(Duration::from_secs(10)),
                ..Default::default()
            },
        );
        let rd = race.execute(&sum_query()).unwrap();
        // Seed pace's work EWMA so the deadline math sees real cycles.
        pace.execute(&sum_query()).unwrap();
        let pd = pace.execute(&sum_query()).unwrap();
        assert!(pd.dop <= rd.dop, "pace granted {} > race {}", pd.dop, rd.dop);
        // At every equal in-flight count, not only an idle server's.
        for active in 1..=db.pool().workers() + 1 {
            let (p, r) = (pace.grant(active).dop, race.grant(active).dop);
            assert!(p <= r, "{active} in flight: pace granted {p} > race {r}");
        }
    }

    #[test]
    fn stats_count_and_bill_every_served_query() {
        let db = db_with_rows(20_000);
        let srv = QueryServer::new(db, QueryServerConfig::default());
        let n = 25;
        let mut billed = 0.0;
        for _ in 0..n {
            billed += srv.execute(&sum_query()).unwrap().result.energy.joules();
        }
        let stats = srv.stats();
        assert_eq!(stats.completed, n);
        let rel = (stats.energy.joules() - billed).abs() / billed;
        assert!(rel <= 1e-12, "server billed {} J, queries {billed} J", stats.energy.joules());
        assert!(stats.p99 >= stats.p50 && stats.p50 > Duration::ZERO);
    }

    #[test]
    fn every_policy_bills_the_same_query_list_the_same() {
        // A query's bill is its work, not its grant: however a governor
        // spreads the same list over the pool, the server bills the same.
        let db = db_with_rows(150_000);
        let list = [
            sum_query(),
            Query::scan("t").filter("v", CmpOp::Lt, 30).aggregate(AggKind::Count, "v"),
            Query::scan("t").filter("id", CmpOp::Ge, 140_000),
        ];
        let bills: Vec<(GovernorPolicy, f64)> = [
            GovernorPolicy::RaceToIdle,
            GovernorPolicy::PaceToDeadline(Duration::from_millis(100)),
            GovernorPolicy::OnDemand,
            GovernorPolicy::EnergyCap(Watts::new(10.0)),
        ]
        .into_iter()
        .map(|governor| {
            let srv = QueryServer::new(Arc::clone(&db), QueryServerConfig { governor, ..Default::default() });
            for q in list.iter().chain(&list) {
                srv.execute(q).unwrap();
            }
            (governor, srv.stats().energy.joules())
        })
        .collect();
        let reference = bills[0].1;
        for (governor, joules) in bills {
            assert!(
                (joules - reference).abs() <= 1e-9 * reference,
                "{governor}: {joules} J vs {reference} J"
            );
        }
    }

    #[test]
    fn energy_cap_budget_never_rises_as_the_cap_tightens() {
        let db = db_with_rows(150_000);
        let mut looser: Option<(f64, usize)> = None;
        for cap in [400.0, 120.0, 60.0, 30.0, 15.0, 8.0, 2.0] {
            let srv = QueryServer::new(
                Arc::clone(&db),
                QueryServerConfig {
                    governor: GovernorPolicy::EnergyCap(Watts::new(cap)),
                    ..Default::default()
                },
            );
            for _ in 0..3 {
                srv.execute(&sum_query()).unwrap();
            }
            let high = srv.stats().budget_high;
            if let Some((prev_cap, prev)) = looser {
                assert!(high <= prev, "budget high {high} at {cap} W above {prev} at {prev_cap} W");
            }
            looser = Some((cap, high));
        }
        assert_eq!(looser.map(|(_, high)| high), Some(1), "a cap below one slow core admits one stream");
    }

    /// `db_with_rows`'s table on a pool of its own `workers` wide, so a
    /// grant's arithmetic does not depend on the host's core count.
    fn db_on_pool(workers: usize, rows: i64) -> Arc<Database> {
        let pool = Arc::new(WorkerPool::new(workers));
        let machine = haec_energy::machine::MachineSpec::commodity_2013().with_cores(workers);
        let db = Database::with_machine_and_pool(machine, pool);
        db.create_table("t", &[("id", DataType::Int64), ("v", DataType::Int64)]).unwrap();
        db.set_merge_threshold("t", usize::MAX).unwrap();
        for i in 0..rows {
            db.insert("t", &Record::new().with("id", i).with("v", i % 100)).unwrap();
        }
        db.merge("t").unwrap();
        Arc::new(db)
    }

    /// Modeled watts of one served query: its bill over its modeled time.
    fn modeled_watts(out: &ServedQuery) -> f64 {
        out.result.energy.joules() / out.result.modeled_time.as_secs_f64()
    }

    #[test]
    fn two_fresh_servers_serve_a_query_list_identically() {
        let db = db_with_rows(100_000);
        let list = [
            sum_query(),
            Query::scan("t").filter("v", CmpOp::Lt, 30).aggregate(AggKind::Count, "v"),
            Query::scan("t").filter("id", CmpOp::Ge, 90_000),
        ];
        let run = || {
            let srv = QueryServer::new(
                Arc::clone(&db),
                QueryServerConfig { governor: GovernorPolicy::OnDemand, ..Default::default() },
            );
            let served: Vec<(usize, f64)> = list
                .iter()
                .chain(&list)
                .map(|q| {
                    let out = srv.execute(q).unwrap();
                    (out.result.rows.rows(), out.result.energy.joules())
                })
                .collect();
            (served, srv.stats().completed)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.1, b.1);
        assert_eq!(a.0.len(), b.0.len());
        for (i, ((rows_a, ja), (rows_b, jb))) in a.0.iter().zip(&b.0).enumerate() {
            assert_eq!(rows_a, rows_b, "query {i}: rows differ");
            assert!((ja - jb).abs() <= 1e-12 * ja, "query {i}: {ja} J vs {jb} J");
        }
    }

    #[test]
    fn energy_cap_keeps_in_flight_stream_power_under_the_cap() {
        let (workers, rows) = (4, 150_000);
        let db = db_on_pool(workers, rows);
        let race = QueryServer::new(Arc::clone(&db), QueryServerConfig::default());
        let watts = modeled_watts(&race.execute(&sum_query()).unwrap());
        // 60 % of what the whole pool draws running one stream per worker.
        let cap = 0.6 * workers as f64 * watts;
        let srv = QueryServer::new(
            Arc::clone(&db),
            QueryServerConfig { governor: GovernorPolicy::EnergyCap(Watts::new(cap)), ..Default::default() },
        );
        let served = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    for _ in 0..4 {
                        let out = srv.execute(&sum_query()).unwrap();
                        assert_eq!(out.result.rows.row(0).unwrap()[0].as_float(), Some(expected_sum(rows)));
                        served.lock().unwrap().push(modeled_watts(&out));
                    }
                });
            }
        });
        let least = served.into_inner().unwrap().into_iter().fold(f64::INFINITY, f64::min);
        let stats = srv.stats();
        assert_eq!(stats.completed, 16);
        assert!(stats.gate_high_water <= stats.budget_high);
        // Once power has been measured, the budget the gate holds is the
        // streams that fit under the cap: fewer than race's full pool.
        let budget = srv.gate.budget();
        assert!(budget < workers, "budget {budget} of {workers} workers under a cap below the pool's draw");
        let streams = budget as f64 * least;
        assert!(
            streams <= cap * (1.0 + 1e-9) || budget == 1,
            "{budget} streams of ≥ {least} W each draw {streams} W over the {cap} W cap"
        );
    }

    #[test]
    fn ondemand_serves_billed_queries_under_concurrent_load() {
        let rows = 100_000;
        let db = db_with_rows(rows);
        let srv = QueryServer::new(
            db,
            QueryServerConfig { governor: GovernorPolicy::OnDemand, ..Default::default() },
        );
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..4 {
                        let out = srv.execute(&sum_query()).unwrap();
                        assert_eq!(out.result.rows.row(0).unwrap()[0].as_float(), Some(expected_sum(rows)));
                        assert!(out.result.energy.joules() > 0.0);
                    }
                });
            }
        });
        let stats = srv.stats();
        assert_eq!(stats.completed, 16);
        assert!(stats.energy.joules() > 0.0);
        assert_eq!(srv.active(), 0);
    }

    #[test]
    fn pace_bills_no_more_than_race_at_low_load() {
        // One query at a time: pace's slower grant must not cost more.
        let db = db_with_rows(150_000);
        let bill = |governor| {
            let srv = QueryServer::new(Arc::clone(&db), QueryServerConfig { governor, ..Default::default() });
            for _ in 0..6 {
                srv.execute(&sum_query()).unwrap();
            }
            srv.stats().energy.joules()
        };
        let race = bill(GovernorPolicy::RaceToIdle);
        let pace = bill(GovernorPolicy::PaceToDeadline(Duration::from_millis(500)));
        assert!(pace <= race * (1.0 + 1e-9), "pace {pace} J vs race {race} J");
    }

    #[test]
    fn race_grants_more_parallelism_than_lenient_pace() {
        // On a 4-wide pool race-to-idle takes every worker; a lenient
        // deadline paces at the slowest P-state, worth fewer of them.
        let db = db_on_pool(4, 100_000);
        let race = QueryServer::new(Arc::clone(&db), QueryServerConfig::default());
        let pace = QueryServer::new(
            Arc::clone(&db),
            QueryServerConfig {
                governor: GovernorPolicy::PaceToDeadline(Duration::from_secs(10)),
                ..Default::default()
            },
        );
        for _ in 0..3 {
            let (r, p) = (race.execute(&sum_query()).unwrap(), pace.execute(&sum_query()).unwrap());
            assert_eq!(r.dop, 4);
            assert!(p.dop < r.dop, "pace granted {} vs race {}", p.dop, r.dop);
        }
    }

    #[test]
    fn snapshot_isolation_under_concurrent_writes() {
        // A query admitted mid-insert still answers for a consistent
        // prefix: sum(v) of the first n rows for some n, never a torn
        // read.
        let db = db_with_rows(50_000);
        let srv = QueryServer::new(Arc::clone(&db), QueryServerConfig::default());
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for i in 50_000..58_000i64 {
                    db.insert("t", &Record::new().with("id", i).with("v", i % 100)).unwrap();
                }
            });
            for _ in 0..8 {
                let out = srv.execute(&sum_query()).unwrap();
                let got = out.result.rows.row(0).unwrap()[0].as_float().unwrap();
                // sum over a prefix of length n has closed form; find n.
                let mut acc = 0.0;
                let mut matched = false;
                for i in 0..=58_000i64 {
                    if acc == got {
                        matched = true;
                        break;
                    }
                    acc += (i % 100) as f64;
                }
                assert!(matched, "sum {got} is not any insertion-order prefix");
            }
            writer.join().unwrap();
        });
    }
}
