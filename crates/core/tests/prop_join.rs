//! Differential property tests for join execution: joins on compressed
//! segments (hash or sort-merge, zone-pruned, code-to-code string keys)
//! must be observationally identical to a naive nested loop over the
//! decoded rows — across random data, duplicate keys, empty sides,
//! filters on both sides, and every storage layout (flat, fully merged,
//! and mixed main/delta with random merge points).

use haec_columnar::value::CmpOp;
use haecdb::prelude::*;
use proptest::prelude::*;

const TAGS: [&str; 5] = ["alpha", "beta", "gamma", "delta", ""];

/// Left rows: `(key, amount, tag_idx)`; right rows: `(key, score,
/// tag_idx)`. Keys deliberately overlap only partially so both sides
/// dangle.
type Row = (i64, i64, usize);

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

fn make_db() -> Database {
    let db = Database::new();
    db.create_table("l", &[("k", DataType::Int64), ("amount", DataType::Int64), ("tag", DataType::Str)])
        .unwrap();
    db.create_table("r", &[("k", DataType::Int64), ("score", DataType::Int64), ("tag", DataType::Str)])
        .unwrap();
    db.set_merge_threshold("l", usize::MAX).unwrap();
    db.set_merge_threshold("r", usize::MAX).unwrap();
    db
}

fn fill(db: &mut Database, table: &str, rows: &[Row], val_col: &str, merge_every: usize) {
    for (i, &(k, v, t)) in rows.iter().enumerate() {
        db.insert(table, &Record::new().with("k", k).with(val_col, v).with("tag", TAGS[t % TAGS.len()]))
            .unwrap();
        if (i + 1) % merge_every == 0 {
            db.merge(table).unwrap();
        }
    }
}

/// The three layouts under test: never merged, merged at a random
/// cadence, and merged once at the end.
fn layouts(lrows: &[Row], rrows: &[Row], ml: usize, mr: usize) -> Vec<Database> {
    let mut flat = make_db();
    fill(&mut flat, "l", lrows, "amount", usize::MAX);
    fill(&mut flat, "r", rrows, "score", usize::MAX);
    let mut mixed = make_db();
    fill(&mut mixed, "l", lrows, "amount", ml);
    fill(&mut mixed, "r", rrows, "score", mr);
    let mut merged = make_db();
    fill(&mut merged, "l", lrows, "amount", usize::MAX);
    fill(&mut merged, "r", rrows, "score", usize::MAX);
    merged.merge("l").unwrap();
    merged.merge("r").unwrap();
    vec![flat, mixed, merged]
}

/// Runs `q` under every parallelism grant — serial, pooled two and four
/// wide, and pooled behind a budget-1 morsel gate — and checks each
/// answers exactly `want` does: the same rows in the same order, and the
/// same bill.
fn same_under_every_grant(db: &Database, q: &Query, want: &QueryResult) -> Result<(), TestCaseError> {
    let gated = ExecOpts { dop: 4, gate: Some(MorselGate::new(1)), ..ExecOpts::default() };
    for opts in [ExecOpts::with_dop(1), ExecOpts::with_dop(2), ExecOpts::with_dop(4), gated] {
        let got = db.execute_opts(q, &opts).unwrap();
        prop_assert_eq!(&got.rows, &want.rows, "{:?}: rows", opts);
        prop_assert_eq!(got.profile, want.profile, "{:?}: bill", opts);
    }
    Ok(())
}

/// Sorted multiset of result tuples (join output order is
/// algorithm-dependent, so comparisons are order-insensitive).
fn result_tuples(out: &QueryResult) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (0..out.rows.rows())
        .map(|r| out.rows.row(r).unwrap().iter().map(|v| format!("{v:?}")).collect())
        .collect();
    rows.sort();
    rows
}

proptest! {
    /// Integer-key joins with filters on both sides equal the nested-
    /// loop reference on every layout.
    #[test]
    fn int_key_join_matches_nested_loop(
        lrows in proptest::collection::vec((0i64..25, -40i64..40, 0usize..5), 0..120),
        rrows in proptest::collection::vec((5i64..30, -40i64..40, 0usize..5), 0..120),
        ml in 1usize..60,
        mr in 1usize..60,
        lop in ops(),
        llit in -45i64..45,
        rop in ops(),
        rlit in -45i64..45,
        with_filters in any::<bool>(),
    ) {
        let mut q = Query::scan("l").join("r", "k", "k").select(["k", "amount", "r.score"]);
        if with_filters {
            q = q.filter("amount", lop, llit).join_filter("score", rop, rlit);
        }
        // Nested-loop reference over the raw tuples.
        let mut want: Vec<Vec<String>> = Vec::new();
        for &(lk, amount, _) in &lrows {
            if with_filters && !lop.eval(amount, llit) {
                continue;
            }
            for &(rk, score, _) in &rrows {
                if lk == rk && (!with_filters || rop.eval(score, rlit)) {
                    want.push(vec![
                        format!("{:?}", Value::Int(lk)),
                        format!("{:?}", Value::Int(amount)),
                        format!("{:?}", Value::Int(score)),
                    ]);
                }
            }
        }
        want.sort();
        for (li, mut db) in layouts(&lrows, &rrows, ml, mr).into_iter().enumerate() {
            let out = db.execute(&q).unwrap();
            same_under_every_grant(&db, &q, &out)?;
            prop_assert_eq!(result_tuples(&out), want.clone(), "layout {}", li);
        }
    }

    /// String-key joins (dictionary code-to-code, including `""` and
    /// values fresh in one side's delta) equal the nested-loop
    /// reference on every layout.
    #[test]
    fn string_key_join_matches_nested_loop(
        lrows in proptest::collection::vec((0i64..25, -40i64..40, 0usize..5), 0..100),
        rrows in proptest::collection::vec((5i64..30, -40i64..40, 0usize..5), 0..100),
        ml in 1usize..50,
        mr in 1usize..50,
        filter_tag in 0usize..5,
        negated in any::<bool>(),
        with_filter in any::<bool>(),
    ) {
        let mut q = Query::scan("l").join("r", "tag", "tag").select(["amount", "tag", "r.score"]);
        let tag = TAGS[filter_tag];
        if with_filter {
            q = if negated { q.join_filter_str_ne("tag", tag) } else { q.join_filter_str_eq("tag", tag) };
        }
        let mut want: Vec<Vec<String>> = Vec::new();
        for &(_, amount, lt) in &lrows {
            for &(_, score, rt) in &rrows {
                let (ls, rs) = (TAGS[lt % TAGS.len()], TAGS[rt % TAGS.len()]);
                if ls == rs && (!with_filter || ((rs == tag) != negated)) {
                    want.push(vec![
                        format!("{:?}", Value::Int(amount)),
                        format!("{:?}", Value::Str(ls.to_string())),
                        format!("{:?}", Value::Int(score)),
                    ]);
                }
            }
        }
        want.sort();
        for (li, mut db) in layouts(&lrows, &rrows, ml, mr).into_iter().enumerate() {
            let out = db.execute(&q).unwrap();
            same_under_every_grant(&db, &q, &out)?;
            prop_assert_eq!(result_tuples(&out), want.clone(), "layout {}", li);
        }
    }

    /// Duplicate keys produce the full cross product per key group, and
    /// an empty side produces an empty (but well-shaped) result.
    #[test]
    fn duplicates_and_empty_sides(
        dup_l in 0usize..6,
        dup_r in 0usize..6,
        key in 0i64..5,
        merge_l in any::<bool>(),
        merge_r in any::<bool>(),
    ) {
        let lrows: Vec<Row> = (0..dup_l).map(|i| (key, i as i64, i)).collect();
        let rrows: Vec<Row> = (0..dup_r).map(|i| (key, -(i as i64), i)).collect();
        let mut db = make_db();
        fill(&mut db, "l", &lrows, "amount", usize::MAX);
        fill(&mut db, "r", &rrows, "score", usize::MAX);
        if merge_l {
            db.merge("l").unwrap();
        }
        if merge_r {
            db.merge("r").unwrap();
        }
        let q = Query::scan("l").join("r", "k", "k");
        let out = db.execute(&q).unwrap();
        same_under_every_grant(&db, &q, &out)?;
        prop_assert_eq!(out.rows.rows(), dup_l * dup_r, "cross product per duplicate key group");
        prop_assert_eq!(out.rows.width(), 6, "all left + prefixed right columns");
    }
}
