//! Differential property tests: segmented main/delta execution must be
//! observationally identical to a flat (never-merged) table for every
//! query shape, across random data, random merge points, and every
//! comparison operator.

use haec_columnar::value::CmpOp;
use haecdb::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

const TAGS: [&str; 4] = ["alpha", "beta", "gamma", ""];

const KINDS: [AggKind; 5] = [AggKind::Count, AggKind::Sum, AggKind::Min, AggKind::Max, AggKind::Avg];

fn ops() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

const COLUMNS: [(&str, DataType); 4] = [
    ("id", DataType::Int64),
    ("region", DataType::Int64),
    ("amount", DataType::Int64),
    ("tag", DataType::Str),
];

fn make_db() -> Database {
    let db = Database::new();
    db.create_table("t", &COLUMNS).unwrap();
    db.set_merge_threshold("t", usize::MAX).unwrap();
    db
}

/// The same table with `id` as declared sort key: merged segments are
/// sorted on it, so `id` predicates resolve to row ranges, not bitmaps.
fn make_sorted_db() -> Database {
    let db = Database::new();
    db.create_table_sorted("t", &COLUMNS, "id").unwrap();
    db.set_merge_threshold("t", usize::MAX).unwrap();
    db
}

/// Integer group keys for the three accumulator shapes: a narrow span
/// (flat array), the `i64` extremes (a span that overflows `i64`), and
/// more distinct, widely spaced keys than the flat array's bound.
fn group_key(mode: usize, region: i64, id: i64) -> i64 {
    match mode {
        0 => region,
        1 => [i64::MIN, -1, 0, 1, i64::MAX, i64::MAX - 1][region as usize],
        _ => (id % 97) * 1_000_003 - 40_000_000,
    }
}

fn insert_row(db: &mut Database, row: &(i64, i64, i64)) {
    let (id, region, amount) = *row;
    db.insert(
        "t",
        &Record::new()
            .with("id", id)
            .with("region", region)
            .with("amount", amount)
            .with("tag", TAGS[(region.unsigned_abs() as usize) % TAGS.len()]),
    )
    .unwrap();
}

/// NaN-aware float equality (MIN/MAX/AVG of an empty selection are NaN).
fn float_eq(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a == b
}

/// The naive gather-and-fold reference: what an aggregate must equal,
/// computed in plain Rust over the raw row tuples.
fn fold_value(kind: AggKind, values: &[i64]) -> f64 {
    let count = values.len() as f64;
    match kind {
        AggKind::Count => count,
        AggKind::Sum => values.iter().sum::<i64>() as f64,
        AggKind::Min => values.iter().copied().min().map_or(f64::NAN, |v| v as f64),
        AggKind::Max => values.iter().copied().max().map_or(f64::NAN, |v| v as f64),
        AggKind::Avg => {
            if values.is_empty() {
                f64::NAN
            } else {
                values.iter().sum::<i64>() as f64 / count
            }
        }
    }
}

/// Asserts two results carry exactly the same rows, in the same order.
fn assert_same(a: &QueryResult, b: &QueryResult, ctx: &str) {
    assert_eq!(a.rows.rows(), b.rows.rows(), "{ctx}: row count");
    assert_eq!(a.rows.names(), b.rows.names(), "{ctx}: column names");
    for r in 0..a.rows.rows() {
        assert_eq!(a.rows.row(r), b.rows.row(r), "{ctx}: row {r}");
    }
}

proptest! {
    /// Random inserts, a random merge cadence, and every query shape the
    /// engine supports: the segmented store and the flat store must give
    /// byte-identical answers.
    #[test]
    fn segmented_and_flat_answers_agree(
        rows in proptest::collection::vec((0i64..200, 0i64..6, -50i64..50), 1..250),
        merge_every in 1usize..100,
        op in ops(),
        lit in -60i64..260,
        filter_col in 0usize..3,
        tag_idx in 0usize..4,
        negate_tag in any::<bool>(),
    ) {
        let mut flat = make_db();
        let mut seg = make_db();
        for (i, row) in rows.iter().enumerate() {
            insert_row(&mut flat, row);
            insert_row(&mut seg, row);
            if (i + 1) % merge_every == 0 {
                seg.merge("t").unwrap();
            }
        }
        let col = ["id", "region", "amount"][filter_col];
        let tag = TAGS[tag_idx];
        let base = Query::scan("t").filter(col, op, lit);
        let with_tag = if negate_tag {
            base.clone().filter_str_ne("tag", tag)
        } else {
            base.clone().filter_str_eq("tag", tag)
        };
        let queries = [
            base.clone(),
            base.clone().select(["id", "tag"]),
            with_tag,
            base.clone().aggregate(AggKind::Sum, "amount"),
            base.group_by("region").aggregate(AggKind::Count, "amount"),
        ];
        for (qi, q) in queries.iter().enumerate() {
            let a = flat.execute(q).unwrap();
            let b = seg.execute(q).unwrap();
            assert_same(&a, &b, &format!("query {qi} ({col} {op:?} {lit}, tag {tag:?})"));
        }
    }

    /// Merging between queries never changes subsequent answers, and
    /// auto-merge (small threshold) agrees with manual merging.
    #[test]
    fn merge_points_are_invisible_to_queries(
        rows in proptest::collection::vec((0i64..100, 0i64..4, -20i64..20), 1..150),
        threshold in 1usize..64,
        lit in -25i64..125,
    ) {
        let mut manual = make_db();
        let mut auto = make_db();
        auto.set_merge_threshold("t", threshold).unwrap();
        for row in &rows {
            insert_row(&mut manual, row);
            insert_row(&mut auto, row);
        }
        let q = Query::scan("t").filter("id", CmpOp::Ge, lit);
        let before = manual.execute(&q).unwrap();
        manual.merge("t").unwrap();
        let after = manual.execute(&q).unwrap();
        let auto_out = auto.execute(&q).unwrap();
        assert_same(&before, &after, "manual merge between queries");
        assert_same(&before, &auto_out, "auto-merged vs flat");
        prop_assert!(auto.table("t").unwrap().delta_rows() < threshold);
    }

    /// Pushed-down aggregates — every `AggKind`, global, int-keyed and
    /// string-keyed — must equal the naive gather-and-fold reference
    /// across random inserts, merge cadences and filter mixes, on the
    /// flat store, the segmented store and its sort-keyed twin. Units
    /// span several 64-row blocks with a ragged last one; the second
    /// predicate (an `id` bound) ANDs a sort-key row range into the
    /// first one's match bitmap on the twin; integer group keys cover
    /// the flat-array and the hash accumulator.
    #[test]
    fn pushdown_aggregates_match_naive_reference(
        rows in proptest::collection::vec((0i64..150, 0i64..6, -40i64..40), 1..600),
        merge_every in 1usize..400,
        op in ops(),
        lit in -50i64..200,
        filter_col in 0usize..3,
        kind_idx in 0usize..5,
        with_tag_filter in any::<bool>(),
        tag_idx in 0usize..4,
        id_bound in prop_oneof![Just(None), (ops(), 0i64..150).prop_map(Some)],
        key_mode in 0usize..3,
    ) {
        let rows: Vec<(i64, i64, i64)> =
            rows.into_iter().map(|(id, region, amount)| (id, group_key(key_mode, region, id), amount)).collect();
        let mut flat = make_db();
        let mut seg = make_db();
        let mut sorted = make_sorted_db();
        for (i, row) in rows.iter().enumerate() {
            insert_row(&mut flat, row);
            insert_row(&mut seg, row);
            insert_row(&mut sorted, row);
            if (i + 1) % merge_every == 0 {
                seg.merge("t").unwrap();
                sorted.merge("t").unwrap();
            }
        }
        let kind = KINDS[kind_idx];
        let col = ["id", "region", "amount"][filter_col];
        let tag = TAGS[tag_idx];
        let mut base = Query::scan("t").filter(col, op, lit);
        if let Some((id_op, id_lit)) = id_bound {
            base = base.filter("id", id_op, id_lit);
        }
        if with_tag_filter {
            base = base.filter_str_eq("tag", tag);
        }
        // The surviving rows, per the reference semantics.
        let matching: Vec<&(i64, i64, i64)> = rows
            .iter()
            .filter(|(id, region, amount)| {
                let v = [*id, *region, *amount][filter_col];
                op.eval(v, lit)
                    && id_bound.is_none_or(|(id_op, id_lit)| id_op.eval(*id, id_lit))
                    && (!with_tag_filter || TAGS[(region.unsigned_abs() as usize) % TAGS.len()] == tag)
            })
            .collect();
        let mut stores = [(&mut flat, "flat"), (&mut seg, "segmented"), (&mut sorted, "sorted")];

        // --- global -----------------------------------------------------
        let q = base.clone().aggregate(kind, "amount");
        let want = fold_value(kind, &matching.iter().map(|r| r.2).collect::<Vec<_>>());
        for (db, name) in &mut stores {
            let out = db.execute(&q).unwrap();
            let got = out.rows.row(0).unwrap()[0].as_float().unwrap();
            prop_assert!(float_eq(got, want), "{name} global {kind}: got {got}, want {want}");
        }

        // --- grouped by the integer key ---------------------------------
        let q = base.clone().group_by("region").aggregate(kind, "amount");
        let mut by_region: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for r in &matching {
            by_region.entry(r.1).or_default().push(r.2);
        }
        for (db, name) in &mut stores {
            let out = db.execute(&q).unwrap();
            prop_assert_eq!(out.rows.rows(), by_region.len(), "{} grouped-int {} groups", name, kind);
            for (row, (key, vals)) in by_region.iter().enumerate() {
                let r = out.rows.row(row).unwrap();
                prop_assert_eq!(r[0].clone(), Value::Int(*key), "{} grouped-int {} key", name, kind);
                let got = r[1].as_float().unwrap();
                let want = fold_value(kind, vals);
                prop_assert!(
                    float_eq(got, want),
                    "{name} grouped-int {kind} key {key}: got {got}, want {want}"
                );
            }
        }

        // --- grouped by the string key (dictionary codes) ---------------
        let q = base.group_by("tag").aggregate(kind, "amount");
        let mut by_tag: BTreeMap<&str, Vec<i64>> = BTreeMap::new();
        for r in &matching {
            by_tag.entry(TAGS[(r.1.unsigned_abs() as usize) % TAGS.len()]).or_default().push(r.2);
        }
        for (db, name) in &mut stores {
            let out = db.execute(&q).unwrap();
            prop_assert_eq!(out.rows.rows(), by_tag.len(), "{} grouped-str {} groups", name, kind);
            for (row, (key, vals)) in by_tag.iter().enumerate() {
                let r = out.rows.row(row).unwrap();
                prop_assert_eq!(r[0].clone(), Value::Str((*key).to_string()), "{} grouped-str {}", name, kind);
                let got = r[1].as_float().unwrap();
                let want = fold_value(kind, vals);
                prop_assert!(
                    float_eq(got, want),
                    "{name} grouped-str {kind} key {key:?}: got {got}, want {want}"
                );
            }
        }
    }

    /// Index lookups and compressed scans agree on merged tables for
    /// every operator on the first predicate's re-check path — null
    /// cells included (stored, scanned and indexed as 0, or `""`),
    /// whether the index is fed by the inserts or backfilled after them —
    /// with an optional string `=` / `<>` re-check whose value may be in
    /// neither the segments' nor the delta's dictionary.
    #[test]
    fn index_agrees_with_segmented_scan(
        rows in proptest::collection::vec((0i64..60, -30i64..36, 0usize..4), 1..200),
        key in prop_oneof![Just(0i64), 0i64..50],
        op in ops(),
        lit in -35i64..35,
        index_first in any::<bool>(),
        str_pred in (0usize..5, any::<bool>()),
    ) {
        // Values past the drawn range become nulls. Every drawn row is
        // followed by one with a key of its own, so that `k = key` is
        // selective enough for the planner to take the index.
        const S: [&str; 4] = ["x", "y", "", "z"]; // "z" is never stored
        let cell = |x: i64, end: i64| if x < end { Value::Int(x) } else { Value::Null };
        let s_cell = |i: usize| if i < 3 { Value::Str(S[i].to_string()) } else { Value::Null };
        let records: Vec<Record> = rows
            .iter()
            .zip(1000i64..)
            .flat_map(|(&(k, v, s), own)| {
                [
                    Record::new().with("k", cell(k, 50)).with("v", cell(v, 30)).with("s", s_cell(s)),
                    Record::new().with("k", own).with("v", own % 60 - 30).with("s", s_cell(own as usize % 3)),
                ]
            })
            .collect();
        let cols = [("k", DataType::Int64), ("v", DataType::Int64), ("s", DataType::Str)];
        let mut db = Database::new();
        db.create_table("t", &cols).unwrap();
        db.set_merge_threshold("t", usize::MAX).unwrap();
        for r in &records {
            db.insert("t", r).unwrap();
        }
        db.merge("t").unwrap();
        let mut q = Query::scan("t").filter("k", CmpOp::Eq, key).filter("v", op, lit);
        if let (Some(value), negated) = (S.get(str_pred.0), str_pred.1) {
            q = if negated { q.filter_str_ne("s", *value) } else { q.filter_str_eq("s", *value) };
        }
        let a = db.execute(&q).unwrap();
        let mut indexed = Database::new();
        indexed.create_table("t", &cols).unwrap();
        indexed.set_merge_threshold("t", 32).unwrap();
        if index_first {
            indexed.create_index("t", "k", IndexMaintenance::Eager).unwrap();
        }
        for r in &records {
            indexed.insert("t", r).unwrap();
        }
        if !index_first {
            indexed.create_index("t", "k", IndexMaintenance::Eager).unwrap();
        }
        let b = indexed.execute(&q).unwrap();
        assert_same(&a, &b, "index vs scan");
    }
}
