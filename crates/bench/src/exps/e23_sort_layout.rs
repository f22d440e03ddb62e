//! E23 — declared sort keys: layout as a planner-costed choice
//! (§IV.B "energy efficiency by data reduction" applied to *order*, not
//! just encoding).
//!
//! The tentpole claim quantified here: sorting the main store on a
//! declared key at merge time turns zone maps into disjoint ranges and
//! the key column into a handful of RLE/delta runs, so selective
//! predicates resolve by binary search over run boundaries instead of
//! scanning — the planner picks that path from cost alone, and at low
//! selectivity it reads *strictly* fewer bytes (and burns fewer joules)
//! than the identical unsorted table, at identical answers.

use crate::report::{fmt_joules, Report};
use haec_columnar::value::CmpOp;
use haec_exec::agg::AggKind;
use haec_planner::access::AccessPath;
use haecdb::prelude::*;

const ROWS: i64 = 160 * 1024; // 2.5 main segments

/// One swept selectivity point.
struct Point {
    sorted_path: String,
    sorted_bytes: u64,
    unsorted_bytes: u64,
    sorted_joules: f64,
    unsorted_joules: f64,
}

/// Builds the `orders` table with ids inserted in *shuffled* order (so
/// the sorting merge does real work), then merges once. `sorted`
/// declares `id` as the table's sort key.
fn fresh(sorted: bool) -> Database {
    let db = Database::new();
    let cols = [("id", DataType::Int64), ("region", DataType::Int64), ("amount", DataType::Int64)];
    if sorted {
        db.create_table_sorted("orders", &cols, "id").unwrap();
    } else {
        db.create_table("orders", &cols).unwrap();
    }
    db.set_merge_threshold("orders", usize::MAX).unwrap();
    let mut ids: Vec<i64> = (0..ROWS).collect();
    ids.sort_by_key(|&i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64));
    for id in ids {
        db.insert(
            "orders",
            &Record::new().with("id", id).with("region", id % 8).with("amount", (id * 7) % 1000),
        )
        .unwrap();
    }
    db.merge("orders").unwrap();
    db
}

/// Runs the experiment.
pub fn run() -> Report {
    let mut r = Report::new(
        "E23",
        "declared sort key: binary-search access vs scan across selectivities (160K rows)",
        "sorted layout + disjoint zones let selective predicates read O(log) bytes; the planner picks the path from cost alone (§IV.B)",
    );
    r.headers([
        "selectivity",
        "path(sorted)",
        "read sorted",
        "read unsorted",
        "ratio",
        "E sorted",
        "E unsorted",
    ]);

    let sorted = fresh(true);
    let unsorted = fresh(false);

    let sweep: [(&str, f64, Query); 5] = [
        ("point", 1.0 / ROWS as f64, Query::scan("orders").filter("id", CmpOp::Eq, ROWS / 2)),
        ("0.1%", 0.001, Query::scan("orders").filter("id", CmpOp::Lt, ROWS / 1000)),
        ("1%", 0.01, Query::scan("orders").filter("id", CmpOp::Lt, ROWS / 100)),
        ("10%", 0.1, Query::scan("orders").filter("id", CmpOp::Lt, ROWS / 10)),
        ("full", 1.0, Query::scan("orders").filter("id", CmpOp::Ge, 0)),
    ];

    let mut points = Vec::new();
    for (label, sel, q) in sweep {
        let q = q.aggregate(AggKind::Sum, "amount");
        let s = sorted.execute(&q).unwrap();
        let u = unsorted.execute(&q).unwrap();
        // Identical answers regardless of physical order.
        assert_eq!(
            s.rows.row(0).unwrap()[0],
            u.rows.row(0).unwrap()[0],
            "answers must not depend on layout ({label})"
        );
        // Acceptance: at selectivity <= 1% the sorted layout reads
        // strictly fewer bytes and burns less modeled energy.
        if sel <= 0.01 {
            assert!(
                s.profile.dram_read < u.profile.dram_read,
                "{label}: sorted must read strictly fewer bytes ({} vs {})",
                s.profile.dram_read,
                u.profile.dram_read
            );
            assert!(s.energy.joules() < u.energy.joules(), "{label}: sorted must cost less energy");
        }
        let path = s.access_path.map_or_else(|| "-".to_string(), |p| p.to_string());
        points.push(Point {
            sorted_path: path,
            sorted_bytes: s.profile.dram_read.bytes(),
            unsorted_bytes: u.profile.dram_read.bytes(),
            sorted_joules: s.energy.joules(),
            unsorted_joules: u.energy.joules(),
        });
        let p = points.last().unwrap();
        r.row([
            label.to_string(),
            p.sorted_path.clone(),
            format!("{} B", p.sorted_bytes),
            format!("{} B", p.unsorted_bytes),
            format!("{:.4}", p.sorted_bytes as f64 / p.unsorted_bytes as f64),
            fmt_joules(p.sorted_joules),
            fmt_joules(p.unsorted_joules),
        ]);
    }

    // Structural acceptance: the point lookup went through the
    // zone-binary-search path chosen by the cost model — no index
    // exists on either table, and nothing forced the path by hand.
    let point = sorted.execute(&Query::scan("orders").filter("id", CmpOp::Eq, 123)).unwrap();
    assert_eq!(
        point.access_path,
        Some(AccessPath::ZoneBinarySearch),
        "planner must choose binary search for point lookups on the sorted key"
    );
    assert_eq!(point.rows.rows(), 1);
    let ratio = points[0].sorted_bytes as f64 / points[0].unsorted_bytes as f64;
    r.note(format!(
        "point lookup reads {:.2}% of the unsorted bytes via {} (no index on either table)",
        ratio * 100.0,
        points[0].sorted_path
    ));
    r.note("string sort keys order by global dictionary code (first appearance), not collation");

    r
}
