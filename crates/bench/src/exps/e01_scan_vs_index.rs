//! E1 — "the faster a query is processed, the less energy is consumed;
//! index lookup instead of table scan" (§IV, ref \[12\]).

use crate::report::{fmt_joules, Report};
use haec_columnar::value::CmpOp;
use haec_energy::machine::MachineSpec;
use haec_planner::access::{choose_access_segmented, AccessPath};
use haec_planner::catalog::{ColumnMeta, TableMeta};
use haec_planner::cost::CostModel;

/// Runs the experiment.
pub fn run() -> Report {
    let mut r = Report::new(
        "E1",
        "index lookup vs table scan: time and energy",
        "faster plan = lower energy; optimizer picks index for selective predicates (§IV, [12])",
    );
    r.headers(["selectivity", "scan time", "scan energy", "index time", "index energy", "chosen"]);

    let rows = 10_000_000u64;
    let model = CostModel::new(MachineSpec::commodity_2013());
    let table = TableMeta {
        name: "orders".into(),
        rows,
        row_bytes: 8,
        columns: vec![ColumnMeta {
            name: "id".into(),
            ndv: rows,
            min: 0,
            max: rows as i64 - 1,
            indexed: true,
        }],
    };
    let mut crossover: Option<(f64, f64)> = None;
    let mut prev: Option<(f64, AccessPath)> = None;
    for exp in 0..=7 {
        let lit = 10i64.pow(exp);
        // No zone statistics over the flat row bytes: the unsegmented
        // table the paper's example reasons about.
        let d = choose_access_segmented(&model, &table, "id", CmpOp::Lt, lit, &[], rows * table.row_bytes);
        let ic = d.index_cost.expect("indexed column");
        r.row([
            format!("{:.1e}", d.selectivity),
            format!("{:.3} ms", d.scan_cost.time.as_secs_f64() * 1e3),
            fmt_joules(d.scan_cost.energy.joules()),
            format!("{:.3} ms", ic.time.as_secs_f64() * 1e3),
            fmt_joules(ic.energy.joules()),
            format!("{}", d.path),
        ]);
        // Both objectives must order the alternatives identically.
        let time_pref = ic.time < d.scan_cost.time;
        let energy_pref = ic.energy.joules() < d.scan_cost.energy.joules();
        assert_eq!(time_pref, energy_pref, "single-node time/energy orderings diverged");
        if let Some((ps, pp)) = prev {
            if pp == AccessPath::IndexLookup && d.path == AccessPath::FullScan {
                crossover = Some((ps, d.selectivity));
            }
        }
        prev = Some((d.selectivity, d.path));
    }
    if let Some((lo, hi)) = crossover {
        r.note(format!("crossover between selectivity {lo:.1e} and {hi:.1e}"));
    }
    r.note("time-optimal and energy-optimal access paths coincide on a single node (paper's premise)");
    r
}
