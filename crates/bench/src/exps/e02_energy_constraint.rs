//! E2 — **Fig. 2**: impact of an energy constraint on query processing:
//! response time and throughput under a sweeping power budget, on the
//! real [`QueryServer`].
//!
//! A fixed set of closed-loop clients runs the same query list under
//! `EnergyCap(w)` for a ladder of caps `w`, then under the uncapped
//! governors at the same load. Asserted, because any host can express
//! it (E22's rule — no wall-clock ratio is asserted):
//!
//! * every answer is checked against its closed form;
//! * the fleet-wide morsel gate never admits more than the largest
//!   budget the governor set (`gate_high_water ≤ budget_high`);
//! * that budget never rises as the cap tightens, from the whole pool at
//!   the loosest cap down to one morsel stream at the tightest;
//! * the modeled energy per query is the same on every row: a query's
//!   bill does not depend on the grant it ran under.

use super::served::{closed_loop, fresh, Answers};
use crate::report::{fmt_dur, fmt_joules, fmt_rate, Report};
use haec_energy::units::Watts;
use haec_sched::governor::GovernorPolicy;
use haec_sched::qserver::{QueryServer, QueryServerConfig, ServerStats};
use haecdb::prelude::Database;
use std::sync::Arc;
use std::time::Duration;

const WORKERS: usize = 8;
const ROWS: i64 = 64 * 1024;
const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 256;
/// The cap ladder, loosest first: from a budget that admits all
/// [`WORKERS`] morsel streams at the fastest P-state down to one below a
/// single core at the slowest.
const CAPS_W: [f64; 7] = [120.0, 80.0, 40.0, 20.0, 12.0, 8.0, 4.0];

struct Row {
    policy: GovernorPolicy,
    qps: f64,
    stats: ServerStats,
    wall: Duration,
}

fn run_row(db: &Arc<Database>, answers: &Answers, governor: GovernorPolicy) -> Row {
    let srv = QueryServer::new(Arc::clone(db), QueryServerConfig { governor, ..Default::default() });
    let wall = closed_loop(&srv, answers, CLIENTS, QUERIES_PER_CLIENT);
    let stats = srv.stats();
    let queries = CLIENTS * QUERIES_PER_CLIENT;
    assert_eq!(stats.completed, queries, "{governor}: every query must complete");
    assert_eq!(stats.rejected + stats.cancelled, 0, "{governor}: nothing refused at this load");
    assert!(
        stats.gate_high_water <= stats.budget_high,
        "{governor}: gate admitted {} concurrent morsels, budget never exceeded {}",
        stats.gate_high_water,
        stats.budget_high
    );
    Row { policy: governor, qps: queries as f64 / wall.as_secs_f64(), stats, wall }
}

/// Runs the experiment.
pub fn run() -> Report {
    let mut r = Report::new(
        "E2",
        "Fig. 2 — query processing under an energy constraint, on the real query server",
        "the system must flexibly trade response time vs throughput under a power budget (§IV, Fig. 2)",
    );
    r.headers(["policy", "qps", "p50", "p99", "J/query (model)", "model J / wall s", "budget high"]);
    let db = fresh(WORKERS, ROWS);
    let answers = Answers::over(ROWS);

    let mut rows: Vec<Row> = Vec::new();
    for cap in CAPS_W {
        let row = run_row(&db, &answers, GovernorPolicy::EnergyCap(Watts::new(cap)));
        if let Some(looser) = rows.last() {
            assert!(
                row.stats.budget_high <= looser.stats.budget_high,
                "budget rose from {} to {} as the cap tightened to {cap} W",
                looser.stats.budget_high,
                row.stats.budget_high
            );
        }
        rows.push(row);
    }
    assert_eq!(rows[0].stats.budget_high, WORKERS, "the loosest cap must admit the whole pool");
    assert_eq!(rows[rows.len() - 1].stats.budget_high, 1, "the tightest cap must admit one morsel stream");
    for governor in [
        GovernorPolicy::RaceToIdle,
        GovernorPolicy::OnDemand,
        GovernorPolicy::PaceToDeadline(Duration::from_millis(400)),
    ] {
        rows.push(run_row(&db, &answers, governor));
    }

    let joules_per_query = |row: &Row| row.stats.energy.joules() / row.stats.completed as f64;
    let reference = joules_per_query(&rows[0]);
    for row in &rows {
        let j = joules_per_query(row);
        assert!(
            (j - reference).abs() <= 1e-9 * reference,
            "{}: modeled {j} J/query vs {reference} J/query — a bill must not depend on its grant",
            row.policy
        );
        r.row([
            format!("{}", row.policy),
            fmt_rate(row.qps),
            fmt_dur(row.stats.p50),
            fmt_dur(row.stats.p99),
            fmt_joules(j),
            format!("{:.1} W", row.stats.energy.joules() / row.wall.as_secs_f64()),
            format!("{}", row.stats.budget_high),
        ]);
    }
    r.note(format!(
        "{CLIENTS} closed-loop clients x {QUERIES_PER_CLIENT} checked queries per row over one \
         {WORKERS}-worker pool; budget high = the most morsel streams the governor let run at \
         once, down the cap ladder {} -> {}",
        rows[0].stats.budget_high,
        rows[CAPS_W.len() - 1].stats.budget_high
    ));
    r.note(
        "J/query is identical on every row: the cap changes how many of a query's stores run at \
         once, never what it reads — so on this model a tighter budget costs throughput and \
         saves no energy per query",
    );
    r.note(
        "model J / wall s mixes ledgers: modeled joules over measured seconds; the host exposes \
         no power counter, so it is the only per-row power figure there is",
    );
    r
}
