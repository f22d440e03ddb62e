//! E17 — main/delta segmented storage: energy per query as a function of
//! delta fraction and merge cadence (§IV.B "energy efficiency by data
//! reduction"; the HANA-style main/delta architecture of ref \[1\]).
//!
//! The claim quantified here: running predicates on the compressed main
//! (zone-map pruning + scan-on-encoded, no decode) burns no more joules
//! per answered query than the delta scan over the same rows, and stores
//! a fraction of the bytes. Sealed delta chunks are read through encoded
//! column views their first reader builds, so the delta scan is
//! compressed too and the query gap is small; the merge's return is the
//! stored bytes (the delta keeps the writer's flat cells).

use crate::report::{fmt_joules, Report};
use haec_columnar::value::CmpOp;
use haec_exec::agg::AggKind;
use haecdb::prelude::*;

const ROWS: i64 = 256 * 1024;

fn fill(db: &mut Database, from: i64, to: i64) {
    for i in from..to {
        db.insert(
            "orders",
            &Record::new().with("id", i).with("region", i % 8).with("amount", (i * 7) % 1000),
        )
        .unwrap();
    }
}

fn fresh(merged_fraction: f64) -> Database {
    let mut db = Database::new();
    db.create_table(
        "orders",
        &[("id", DataType::Int64), ("region", DataType::Int64), ("amount", DataType::Int64)],
    )
    .unwrap();
    db.set_merge_threshold("orders", usize::MAX).unwrap(); // manual control
    let cut = (ROWS as f64 * merged_fraction) as i64;
    fill(&mut db, 0, cut);
    db.merge("orders").unwrap();
    fill(&mut db, cut, ROWS);
    db
}

/// Runs the experiment.
pub fn run() -> Report {
    let mut r = Report::new(
        "E17",
        "main/delta storage: merged main vs unmerged delta (256K rows)",
        "compressed main + zone maps cut DRAM traffic per query and stored bytes (§IV.B, [1])",
    );
    r.headers(["delta", "segments", "stored", "broad-scan E", "pruned-scan E", "rows(broad)", "vs delta"]);

    // A broad aggregate (touches every surviving segment) and a narrow
    // range on the sorted key (zone maps prune 7/8 of the segments).
    let broad = Query::scan("orders").filter("amount", CmpOp::Lt, 500).aggregate(AggKind::Count, "amount");
    let pruned =
        Query::scan("orders").filter("id", CmpOp::Ge, ROWS * 7 / 8).aggregate(AggKind::Sum, "amount");

    let mut flat_broad_energy = None;
    let mut merged_broad_energy = None;
    let mut reference_rows = None;
    for merged_fraction in [0.0, 0.5, 0.875, 1.0] {
        let db = fresh(merged_fraction);
        let t = db.table("orders").unwrap();
        let (segments, stored) = (t.segments().len(), t.encoded_bytes());
        let b = db.execute(&broad).unwrap();
        let p = db.execute(&pruned).unwrap();
        let rows_broad = b.rows.row(0).unwrap()[0].as_float().unwrap() as i64;
        match reference_rows {
            None => reference_rows = Some(rows_broad),
            Some(want) => assert_eq!(rows_broad, want, "answers must not depend on storage layout"),
        }
        if merged_fraction == 0.0 {
            flat_broad_energy = Some(b.energy.joules());
        }
        if merged_fraction == 1.0 {
            merged_broad_energy = Some(b.energy.joules());
        }
        let vs_flat = flat_broad_energy.map_or(1.0, |f| b.energy.joules() / f);
        r.row([
            format!("{:.1}%", (1.0 - merged_fraction) * 100.0),
            segments.to_string(),
            format!("{} KiB", stored / 1024),
            fmt_joules(b.energy.joules()),
            fmt_joules(p.energy.joules()),
            rows_broad.to_string(),
            format!("{:.2}x", vs_flat),
        ]);
    }
    let (flat, merged) = (flat_broad_energy.unwrap(), merged_broad_energy.unwrap());
    assert!(
        merged < flat,
        "acceptance: compressed-main scan ({merged} J) must beat the delta scan ({flat} J)"
    );
    r.note(format!(
        "fully-merged broad scan uses {:.1}% of the delta-scan energy at identical answers",
        merged / flat * 100.0
    ));

    // --- merge cadence: ingest + merge energy vs steady-state queries --
    r.note("cadence sweep: total energy for 256K inserts + merges, then 32 broad queries:");
    for (label, threshold) in [
        ("never (delta)", usize::MAX),
        ("once at 256K", 256 * 1024),
        ("every 64K", 64 * 1024),
        ("every 16K", 16 * 1024),
    ] {
        let mut db = Database::new();
        db.create_table(
            "orders",
            &[("id", DataType::Int64), ("region", DataType::Int64), ("amount", DataType::Int64)],
        )
        .unwrap();
        db.set_merge_threshold("orders", threshold).unwrap();
        let before = db.meter().grand_total().joules();
        fill(&mut db, 0, ROWS);
        if threshold == 256 * 1024 {
            db.merge("orders").unwrap();
        }
        let ingest = db.meter().grand_total().joules() - before;
        let before_q = db.meter().grand_total().joules();
        for _ in 0..32 {
            db.execute(&broad).unwrap();
        }
        let queries = db.meter().grand_total().joules() - before_q;
        let t = db.table("orders").unwrap();
        r.note(format!(
            "  merge {label:>13}: {:>2} segments, {:>4} KiB, ingest+merge {}, 32 queries {}, total {}",
            t.segments().len(),
            t.encoded_bytes() / 1024,
            fmt_joules(ingest),
            fmt_joules(queries),
            fmt_joules(ingest + queries)
        ));
    }
    r.note("merges are incremental (old segments are never rewritten), so cadence costs no extra encode");
    r.note("energy: cadence only sets segment granularity — pruning resolution vs per-segment overhead;");
    r.note("unmerged, the first queries pay the sealed chunks' view encodes to the meter instead, so the");
    r.note("merge's encode is won back in stored bytes (the delta keeps flat cells), not in query energy");
    r
}
