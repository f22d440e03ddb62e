//! End-to-end integration: the full query stack with energy accounting,
//! access-path selection and flexible schemas working together.

use haecdb::prelude::*;

fn load_orders(db: &mut Database, rows: i64) {
    db.create_table(
        "orders",
        &[("id", DataType::Int64), ("region", DataType::Int64), ("amount", DataType::Int64)],
    )
    .unwrap();
    for i in 0..rows {
        db.insert("orders", &Record::new().with("id", i).with("region", i % 5).with("amount", (i * 7) % 100))
            .unwrap();
    }
}

#[test]
fn query_answers_match_a_reference_computation() {
    let mut db = Database::new();
    load_orders(&mut db, 10_000);
    // Reference computation in plain Rust.
    let expected: i64 =
        (0..10_000i64).filter(|i| i % 5 == 2 && (i * 7) % 100 >= 50).map(|i| (i * 7) % 100).sum();
    let out = db
        .execute(
            &Query::scan("orders")
                .filter("region", CmpOp::Eq, 2)
                .filter("amount", CmpOp::Ge, 50)
                .aggregate(AggKind::Sum, "amount"),
        )
        .unwrap();
    assert_eq!(out.rows.row(0).unwrap()[0].as_float(), Some(expected as f64));
}

#[test]
fn energy_meter_grows_with_work_and_reports_rapl() {
    let mut db = Database::new();
    load_orders(&mut db, 50_000);
    let before = db.meter().grand_total();
    let r1 = db.execute(&Query::scan("orders").aggregate(AggKind::Sum, "amount")).unwrap();
    let after = db.meter().grand_total();
    assert!(after.joules() > before.joules());
    assert!(r1.energy.joules() > 0.0);
    // Bigger work costs more energy.
    let small = db
        .execute(&Query::scan("orders").filter("id", CmpOp::Lt, 100).aggregate(AggKind::Sum, "amount"))
        .unwrap();
    assert!(
        r1.energy.joules() > small.energy.joules() * 0.5,
        "full scan should not be cheaper than a tiny one"
    );
    // RAPL registers move monotonically modulo wrap. (Filtered: an
    // unfiltered MAX is answered from zone maps, next to free.)
    let pkg = db.meter().rapl_read(haec_energy::meter::Domain::Package);
    db.execute(&Query::scan("orders").filter("amount", CmpOp::Gt, 10).aggregate(AggKind::Max, "amount"))
        .unwrap();
    let pkg2 = db.meter().rapl_read(haec_energy::meter::Domain::Package);
    assert_ne!(pkg, pkg2);
}

#[test]
fn index_decision_tracks_selectivity_end_to_end() {
    let mut db = Database::new();
    load_orders(&mut db, 100_000);
    db.create_index("orders", "id", IndexMaintenance::Eager).unwrap();
    // Point query → index.
    let point = db.execute(&Query::scan("orders").filter("id", CmpOp::Eq, 77)).unwrap();
    assert_eq!(point.access_path, Some(haec_planner::access::AccessPath::IndexLookup));
    assert_eq!(point.rows.rows(), 1);
    // Same predicate class, non-indexed column → plain scan, same answer
    // as a reference filter.
    let broad = db.execute(&Query::scan("orders").filter("amount", CmpOp::Lt, 50)).unwrap();
    let expected = (0..100_000i64).filter(|i| (i * 7) % 100 < 50).count();
    assert_eq!(broad.rows.rows(), expected);
}

#[test]
fn need_to_know_index_defers_until_query() {
    let mut db = Database::new();
    load_orders(&mut db, 1_000);
    db.create_index("orders", "id", IndexMaintenance::NeedToKnow).unwrap();
    // Writes keep deferring.
    for i in 1_000..2_000i64 {
        db.insert("orders", &Record::new().with("id", i).with("region", 0i64).with("amount", 0i64)).unwrap();
    }
    assert_eq!(db.index_stats("orders", "id").unwrap().maintenance_ops, 0);
    // A query that uses the index indexes the stores its zones let
    // through, and still answers correctly. Id 1 500 lies in the open
    // delta chunk (rows 1 024..2 000), which a pin copies and a lookup
    // scans: nothing to index.
    let out = db.execute(&Query::scan("orders").filter("id", CmpOp::Eq, 1_500)).unwrap();
    assert_eq!(out.rows.rows(), 1);
    assert_eq!(out.access_path, Some(haec_planner::access::AccessPath::IndexLookup));
    let stats = db.index_stats("orders", "id").unwrap();
    assert_eq!((stats.maintenance_ops, stats.catchups, stats.lookups), (0, 0, 1));
    // Id 500 lies in the sealed chunk of rows 0..1 024: its first reader
    // indexes it, once.
    for _ in 0..2 {
        let out = db.execute(&Query::scan("orders").filter("id", CmpOp::Eq, 500)).unwrap();
        assert_eq!(out.rows.rows(), 1);
    }
    let stats = db.index_stats("orders", "id").unwrap();
    assert_eq!((stats.maintenance_ops, stats.catchups, stats.lookups), (1_024, 1, 3));
}

#[test]
fn flexible_schema_interoperates_with_queries_and_indexes() {
    let db = Database::new();
    db.create_flexible_table("events").unwrap();
    for i in 0..1_000i64 {
        let mut r = Record::new().with("user", i % 50);
        if i % 3 == 0 {
            r.set("clicks", i % 7);
        }
        db.insert("events", &r).unwrap();
    }
    assert_eq!(db.table("events").unwrap().schema().evolved_columns(), 2);
    // Nulls materialize as sentinel 0 for aggregation (documented
    // behaviour) — count survives.
    let out = db.execute(&Query::scan("events").group_by("user").aggregate(AggKind::Count, "user")).unwrap();
    assert_eq!(out.rows.rows(), 50);
    // Null accounting is available from the table.
    assert_eq!(db.table("events").unwrap().null_count("clicks"), Some(1_000 - 334));
}

#[test]
fn goal_switching_is_stable_across_queries() {
    let mut db = Database::new();
    load_orders(&mut db, 20_000);
    db.create_index("orders", "id", IndexMaintenance::Eager).unwrap();
    let q = Query::scan("orders").filter("id", CmpOp::Eq, 3);
    let t = db.execute(&q).unwrap();
    db.set_goal(Goal::MinEnergy);
    let e = db.execute(&q).unwrap();
    // Both goals answer identically (E1: orderings coincide on one node).
    assert_eq!(t.rows.rows(), e.rows.rows());
    assert_eq!(t.access_path, e.access_path);
}
