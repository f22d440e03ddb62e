//! Differential properties of the chunked delta: random interleavings
//! of inserts, snapshot pins, merges, transaction overlays and
//! flexible-schema evolution must answer every query shape the executor
//! has exactly as a naive `Vec<Row>` reference does — at delta sizes on
//! both sides of every chunk boundary (`0, 1, C−1, C, C+1, 3C+5` rows,
//! `C` = [`DELTA_CHUNK_ROWS`]).
//!
//! What the chunked layout could get wrong, and where it is checked:
//!
//! * **zone pruning drops a match** — every check counts the matches of
//!   all six operators at `min − 1, min, min + 1, max − 1, max, max + 1`
//!   of every zone the snapshot reports (segments and chunks), with
//!   `i64::MIN` / `i64::MAX` keys in the data and null sentinels in the
//!   filtered columns;
//! * **a store predating a column** — a flexible table evolves two
//!   columns mid-stream, so sealed chunks (immutable, never backfilled)
//!   and segments hold sentinels for them;
//! * **a pin outliving its chunks** — snapshots pinned along the way
//!   are re-checked after later inserts and merges drained the chunks
//!   they hold;
//! * **a pin cut inside a sealed chunk** — `Table::pin_at` with every
//!   interesting older timestamp against the prefix it must see.

use haec_columnar::value::CmpOp;
use haecdb::prelude::*;
use haecdb::table::DELTA_CHUNK_ROWS;
use proptest::prelude::*;
use std::collections::BTreeMap;

const C: usize = DELTA_CHUNK_ROWS;
const SIZES: [usize; 6] = [0, 1, C - 1, C, C + 1, 3 * C + 5];
const TAGS: [&str; 5] = ["alpha", "beta", "", "gamma", "delta"];
const GROUPS: i64 = 6;
const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

/// One row of the naive reference. `None` is a field the record did not
/// carry: a null, stored as the type's sentinel (`0`, `""`).
#[derive(Clone, Debug)]
struct Row {
    k: i64,
    g: i64,
    v: Option<i64>,
    s: &'static str,
    x: Option<i64>,
    y: Option<&'static str>,
}

/// Row `i` of the deterministic stream: append-ordered keys (so chunk
/// zones are tight and pruning really happens) with the `i64` extremes
/// sprinkled in; `x` and `y` exist only once the stream has evolved.
fn row(i: usize, evolved: bool) -> Row {
    let k = match i % 101 {
        17 => i64::MIN,
        53 => i64::MAX,
        _ => 3 * i as i64,
    };
    Row {
        k,
        g: (i as i64 * 7) % GROUPS,
        v: (i % 7 != 3).then_some((i as i64 * 31 + 7) % 100 - 50),
        s: TAGS[i % 5],
        x: evolved.then_some(i as i64 % 13 - 6),
        y: (evolved && i % 4 != 1).then_some(TAGS[(i / 3) % 5]),
    }
}

fn record(r: &Row) -> Record {
    let mut rec = Record::new().with("k", r.k).with("g", r.g);
    if let Some(v) = r.v {
        rec.set("v", v);
    }
    rec.set("s", r.s);
    if let Some(x) = r.x {
        rec.set("x", x);
    }
    if let Some(y) = r.y {
        rec.set("y", y);
    }
    rec
}

fn dim_row(i: usize) -> (i64, &'static str) {
    (i as i64 % (GROUPS + 2), TAGS[(i * 2) % 5])
}

fn make_db() -> Database {
    let db = Database::new();
    db.create_flexible_table("t").unwrap();
    db.set_merge_threshold("t", usize::MAX).unwrap();
    db.create_table("dim", &[("g", DataType::Int64), ("name", DataType::Str)]).unwrap();
    db.set_merge_threshold("dim", usize::MAX).unwrap();
    db
}

/// Runs one query through whichever handle is under test.
type Exec<'a> = &'a dyn Fn(&Query) -> DbResult<QueryResult>;

fn scalar(exec: Exec<'_>, q: &Query) -> f64 {
    exec(q).unwrap().rows.row(0).unwrap()[0].as_float().unwrap()
}

/// Literals on both sides of every zone edge, plus the domain's own.
fn edge_literals(zones: &[haec_planner::access::ZoneMapMeta]) -> Vec<i64> {
    let mut lits = vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    for z in zones {
        for edge in [z.min, z.max] {
            lits.extend([edge.saturating_sub(1), edge, edge.saturating_add(1)]);
        }
    }
    lits.sort_unstable();
    lits.dedup();
    lits
}

/// Every query shape against the naive answers over `rows` (the `t`
/// rows the handle sees) and `dim`.
fn check(exec: Exec<'_>, rows: &[Row], dim: &[(i64, &str)], lits: &[i64], ctx: &str) {
    let has_x = rows.iter().any(|r| r.x.is_some());
    let has_y = rows.iter().any(|r| r.y.is_some());
    let t = || Query::scan("t");
    if rows.is_empty() {
        // A flexible table without rows has no columns yet.
        assert!(exec(&t().aggregate(AggKind::Count, "k")).is_err(), "{ctx}: no columns yet");
        return;
    }

    // --- gather: every row, every column, in insertion order -------------
    let mut cols = vec!["k", "g", "v", "s"];
    cols.extend(has_x.then_some("x"));
    cols.extend(has_y.then_some("y"));
    let out = exec(&t().select(cols.clone())).unwrap();
    assert_eq!(out.rows.rows(), rows.len(), "{ctx}: full projection row count");
    for (i, r) in rows.iter().enumerate() {
        let mut want =
            vec![Value::Int(r.k), Value::Int(r.g), Value::Int(r.v.unwrap_or(0)), Value::Str(r.s.to_string())];
        want.extend(has_x.then(|| Value::Int(r.x.unwrap_or(0))));
        want.extend(has_y.then(|| Value::Str(r.y.unwrap_or("").to_string())));
        assert_eq!(out.rows.row(i).unwrap(), want, "{ctx}: row {i}");
    }

    // --- filter: zone pruning never drops (or invents) a match ------------
    for &lit in lits {
        for op in OPS {
            let want = rows.iter().filter(|r| op.eval(r.k, lit)).count();
            let got = scalar(exec, &t().filter("k", op, lit).aggregate(AggKind::Count, "k"));
            assert_eq!(got as usize, want, "{ctx}: COUNT WHERE k {op:?} {lit}");
        }
    }
    // Null sentinels in a filtered column; a column stores predate.
    for (op, lit) in [(CmpOp::Eq, 0), (CmpOp::Lt, 0), (CmpOp::Ge, 1)] {
        let want = rows.iter().filter(|r| op.eval(r.v.unwrap_or(0), lit)).count();
        let got = scalar(exec, &t().filter("v", op, lit).aggregate(AggKind::Count, "k"));
        assert_eq!(got as usize, want, "{ctx}: COUNT WHERE v {op:?} {lit}");
        if has_x {
            let want = rows.iter().filter(|r| op.eval(r.x.unwrap_or(0), lit)).count();
            let got = scalar(exec, &t().filter("x", op, lit).aggregate(AggKind::Count, "k"));
            assert_eq!(got as usize, want, "{ctx}: COUNT WHERE x {op:?} {lit}");
        }
    }
    for tag in ["", "beta", "never-inserted"] {
        let want = rows.iter().filter(|r| r.s == tag).count();
        let got = scalar(exec, &t().filter_str_eq("s", tag).aggregate(AggKind::Count, "k"));
        assert_eq!(got as usize, want, "{ctx}: COUNT WHERE s = {tag:?}");
        if has_y {
            let want = rows.iter().filter(|r| r.y.unwrap_or("") != tag).count();
            let got = scalar(exec, &t().filter_str_ne("y", tag).aggregate(AggKind::Count, "k"));
            assert_eq!(got as usize, want, "{ctx}: COUNT WHERE y <> {tag:?}");
        }
    }
    // Conjunction, then gather: the survivors themselves, in order.
    let mid = rows[rows.len() / 2].k;
    let out = exec(&t().filter("k", CmpOp::Ge, mid).filter("v", CmpOp::Lt, 0).select(["k", "s"])).unwrap();
    let want: Vec<&Row> = rows.iter().filter(|r| r.k >= mid && r.v.unwrap_or(0) < 0).collect();
    assert_eq!(out.rows.rows(), want.len(), "{ctx}: conjunction survivors");
    for (i, r) in want.iter().enumerate() {
        let got = out.rows.row(i).unwrap();
        assert_eq!(got, vec![Value::Int(r.k), Value::Str(r.s.to_string())], "{ctx}: survivor {i}");
    }

    // --- fold ---------------------------------------------------------------
    let want: i64 = rows.iter().filter(|r| r.k > mid).map(|r| r.v.unwrap_or(0)).sum();
    let got = exec(&t().filter("k", CmpOp::Gt, mid).aggregate(AggKind::Sum, "v")).unwrap();
    let got = got.rows.row(0).unwrap()[0].as_float().unwrap();
    assert!(got == want as f64 || (got.is_nan() && !rows.iter().any(|r| r.k > mid)), "{ctx}: SUM(v)");
    let got = scalar(exec, &t().aggregate(AggKind::Min, "k"));
    assert_eq!(got, rows.iter().map(|r| r.k).min().unwrap() as f64, "{ctx}: MIN(k)");
    let got = scalar(exec, &t().aggregate(AggKind::Max, "k"));
    assert_eq!(got, rows.iter().map(|r| r.k).max().unwrap() as f64, "{ctx}: MAX(k)");

    // --- grouped fold: string keys (one stored everywhere, one evolved),
    // and an integer key -----------------------------------------------------
    let grouped = |key: &str, of: &dyn Fn(&Row) -> String| {
        let out = exec(&t().group_by(key).aggregate(AggKind::Sum, "v")).unwrap();
        let mut want: BTreeMap<String, i64> = BTreeMap::new();
        for r in rows {
            *want.entry(of(r)).or_default() += r.v.unwrap_or(0);
        }
        assert_eq!(out.rows.rows(), want.len(), "{ctx}: GROUP BY {key} group count");
        for (i, (k, sum)) in want.iter().enumerate() {
            let got = out.rows.row(i).unwrap();
            assert_eq!(got[0].as_str().unwrap(), k, "{ctx}: GROUP BY {key} key {i}");
            assert_eq!(got[1].as_float().unwrap(), *sum as f64, "{ctx}: GROUP BY {key} SUM for {k:?}");
        }
    };
    grouped("s", &|r| r.s.to_string());
    if has_y {
        grouped("y", &|r| r.y.unwrap_or("").to_string());
    }
    let out = exec(&t().group_by("g").aggregate(AggKind::Count, "k")).unwrap();
    let mut want: BTreeMap<i64, usize> = BTreeMap::new();
    rows.iter().for_each(|r| *want.entry(r.g).or_default() += 1);
    assert_eq!(out.rows.rows(), want.len(), "{ctx}: GROUP BY g group count");
    for (i, (g, n)) in want.iter().enumerate() {
        let got = out.rows.row(i).unwrap();
        assert_eq!((got[0].as_int().unwrap(), got[1].as_float().unwrap() as usize), (*g, *n), "{ctx}: g");
    }

    // --- join: a delta on both sides, integer and string keys ---------------
    let mut want: Vec<(i64, String)> = Vec::new();
    for r in rows.iter().filter(|r| r.v.unwrap_or(0) > 30) {
        want.extend(dim.iter().filter(|d| d.0 == r.g).map(|d| (r.k, d.1.to_string())));
    }
    let out = exec(&t().filter("v", CmpOp::Gt, 30).join("dim", "g", "g").select(["k", "name"])).unwrap();
    let mut got: Vec<(i64, String)> = (0..out.rows.rows())
        .map(|i| {
            let r = out.rows.row(i).unwrap();
            (r[0].as_int().unwrap(), r[1].as_str().unwrap().to_string())
        })
        .collect();
    want.sort();
    got.sort();
    assert_eq!(got, want, "{ctx}: JOIN ON g");
    let want: usize =
        rows.iter().filter(|r| r.k < mid).map(|r| dim.iter().filter(|d| d.1 == r.s).count()).sum();
    let out = exec(&t().filter("k", CmpOp::Lt, mid).join("dim", "s", "name").select(["k"])).unwrap();
    assert_eq!(out.rows.rows(), want, "{ctx}: JOIN ON s = name");
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Insert until the delta of `t` holds `SIZES[i]` rows (no-op when it
    /// already holds more), then check the latest state.
    Grow(usize),
    Merge,
    /// Later rows carry the `x` and `y` fields.
    Evolve,
    /// Pin a snapshot, to be checked at the very end.
    Pin,
    /// Check a transaction's overlay of this many pending rows.
    Pending(usize),
    /// Add rows to `dim`'s delta.
    GrowDim,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..SIZES.len()).prop_map(Op::Grow),
            (0usize..SIZES.len()).prop_map(Op::Grow),
            Just(Op::Merge),
            Just(Op::Evolve),
            Just(Op::Pin),
            (1usize..4).prop_map(Op::Pending),
            Just(Op::GrowDim),
        ],
        1..=6,
    )
}

proptest! {
    #[test]
    fn interleavings_match_the_naive_reference(schedule in ops()) {
        let db = make_db();
        let mut rows: Vec<Row> = Vec::new();
        let mut dim: Vec<(i64, &str)> = Vec::new();
        let mut evolved = false;
        let mut pins = Vec::new();
        let grow_dim = |dim: &mut Vec<(i64, &'static str)>, n: usize| {
            for _ in 0..n {
                let d = dim_row(dim.len());
                db.insert("dim", &Record::new().with("g", d.0).with("name", d.1)).unwrap();
                dim.push(d);
            }
        };
        grow_dim(&mut dim, 5);
        db.merge("dim").unwrap();
        grow_dim(&mut dim, 3);
        let latest = |q: &Query| db.execute(q);
        for (step, op) in schedule.iter().enumerate() {
            let ctx = format!("step {step} {op:?}");
            match *op {
                Op::Grow(size) => {
                    let delta = db.table("t").unwrap().delta_rows();
                    for _ in delta..SIZES[size] {
                        let r = row(rows.len(), evolved);
                        db.insert("t", &record(&r)).unwrap();
                        rows.push(r);
                    }
                    let t = db.table("t").unwrap();
                    prop_assert_eq!(t.rows(), rows.len());
                    let lits = edge_literals(&t.zone_maps("k").unwrap_or_default());
                    check(&latest, &rows, &dim, &lits, &ctx);
                }
                Op::Merge => {
                    db.merge("t").unwrap();
                    prop_assert_eq!(db.table("t").unwrap().delta_rows(), 0);
                }
                Op::Evolve => evolved = true,
                Op::Pin => pins.push((db.begin_snapshot(), rows.len(), dim.len())),
                Op::Pending(n) => {
                    let mut txn = db.begin_transaction();
                    let mut seen = rows.clone();
                    for _ in 0..n {
                        // The overlay may evolve the schema on its own.
                        let r = row(seen.len(), true);
                        txn.insert("t", record(&r)).unwrap();
                        seen.push(r);
                    }
                    let overlay = |q: &Query| txn.execute(q);
                    check(&overlay, &seen, &dim, &edge_literals(&[]), &ctx);
                    txn.rollback();
                    prop_assert_eq!(db.table("t").unwrap().rows(), rows.len(), "overlay is private");
                }
                Op::GrowDim => grow_dim(&mut dim, 2),
            }
        }
        // Whatever the pins held — sealed chunks since drained by a merge,
        // a private prefix of the open chunk — they still read it.
        db.merge("t").unwrap();
        db.merge("dim").unwrap();
        for (i, (snap, n, d)) in pins.iter().enumerate() {
            let pinned = |q: &Query| snap.execute(q);
            let t = snap.table("t").unwrap();
            prop_assert_eq!(t.rows(), *n);
            let lits = edge_literals(&t.zone_maps("k").unwrap_or_default());
            check(&pinned, &rows[..*n], &dim[..*d], &lits, &format!("pin {i}"));
        }
        let lits = edge_literals(&db.table("t").unwrap().zone_maps("k").unwrap_or_default());
        check(&latest, &rows, &dim, &lits, "final");
    }

    /// `Table::pin_at` with a timestamp inside a sealed chunk copies
    /// that chunk's visible prefix: the pin sees exactly the rows stamped
    /// up to it, whatever was sealed, inserted or merged since.
    #[test]
    fn pin_at_cuts_inside_sealed_chunks(total in (C + 9)..(2 * C + 40), merge_after in 0usize..2) {
        // Rows from `EVOLVE_AT` on carry `x`: the first chunk is sealed
        // by then and predates the column, the second is backfilled.
        const EVOLVE_AT: usize = C + 7;
        let table = Table::new("t", TableSchema::flexible());
        let oracle = TimestampOracle::new();
        let mut stamps = Vec::with_capacity(total);
        let mut rows = Vec::with_capacity(total);
        for i in 0..total {
            let r = row(i, i >= EVOLVE_AT);
            stamps.push(table.insert(&record(&r), &oracle).unwrap().0);
            rows.push(r);
        }
        let ks = |rows: &[Row]| rows.iter().map(|r| r.k).collect::<Vec<_>>();
        for cut in [0, 1, C / 2, C - 1, C, C + 1, EVOLVE_AT, EVOLVE_AT + 1, total - 1, total] {
            // Rows `0..cut` are visible just before row `cut` was stamped.
            let ts = if cut == total { oracle.next() } else { Timestamp(stamps[cut].0 - 1) };
            let snap = table.pin_at(ts).expect("nothing merged yet");
            prop_assert_eq!(snap.rows(), cut);
            if cut == 0 {
                continue;
            }
            prop_assert_eq!(snap.gather_ints("k", None).unwrap(), ks(&rows[..cut]));
            let zones = snap.zone_maps("k").unwrap();
            prop_assert_eq!(zones.iter().map(|z| z.rows as usize).sum::<usize>(), cut);
            let mut at = 0;
            for z in &zones {
                let part = &rows[at..at + z.rows as usize];
                prop_assert_eq!(z.min, part.iter().map(|r| r.k).min().unwrap());
                prop_assert_eq!(z.max, part.iter().map(|r| r.k).max().unwrap());
                at += z.rows as usize;
            }
            let xs = snap.gather_ints("x", None).unwrap();
            prop_assert_eq!(xs, rows[..cut].iter().map(|r| r.x.unwrap_or(0)).collect::<Vec<_>>());
            prop_assert_eq!(snap.null_count("x"), Some(cut.min(EVOLVE_AT)));
        }
        // A pin older than what a merge folded is refused; one taken
        // before keeps reading its chunks.
        let old = Timestamp(stamps[C + 1].0 - 1);
        let held = table.pin_at(old).unwrap();
        if merge_after > 0 {
            table.merge();
            prop_assert!(table.pin_at(old).is_none());
        }
        prop_assert_eq!(held.rows(), C + 1);
        prop_assert_eq!(held.gather_ints("k", None).unwrap(), ks(&rows[..C + 1]));
        prop_assert_eq!(table.read().rows(), total);
    }
}

/// `planner_meta` over a delta that fits the open chunk is what it was
/// when the delta was one flat run: the literals below were captured on
/// the commit before the delta was chunked (PR 19 + re-anchor), running
/// this same scenario — all but `k`'s distinct count, re-captured once
/// the value-range cap saturated instead of wrapping.
#[test]
fn planner_meta_of_an_open_chunk_delta_is_unchanged() {
    let db = make_db();
    let meta_of = |db: &Database| {
        let m = db.table("t").unwrap().planner_meta();
        let cols: Vec<(String, u64, i64, i64)> =
            m.columns.iter().map(|c| (c.name.clone(), c.ndv, c.min, c.max)).collect();
        (m.rows, m.row_bytes, cols)
    };
    let col = |name: &str, ndv: u64, min: i64, max: i64| (name.to_string(), ndv, min, max);
    // Never merged: 1 000 rows in the open chunk, nulls and "" included.
    // `k` spans all of `i64`, so its value range (2⁶⁴) caps nothing: its
    // count is the 980 distinct `3 i` plus the two extremes. (The
    // original capture read 0 there, a range cap wrapped to 0.)
    const { assert!(1000 < C) };
    for i in 0..1000 {
        db.insert("t", &record(&row(i, false))).unwrap();
    }
    let base = [col("g", 6, 0, 5), col("v", 100, -50, 49), col("s", 5, 0, 0)];
    let k = |ndv| col("k", ndv, i64::MIN, i64::MAX);
    assert_eq!(meta_of(&db), (1000, 28, [&[k(982)], base.as_slice()].concat()));
    // Merged main, then an evolved delta of 500 rows: `k` sums the
    // segment's 982 and the chunk's 490 + 2 (was 0, the same wrap).
    db.merge("t").unwrap();
    for i in 1000..1500 {
        db.insert("t", &record(&row(i, true))).unwrap();
    }
    let evolved = [&[k(1474)], base.as_slice(), &[col("x", 13, -6, 6), col("y", 5, 0, 0)]].concat();
    assert_eq!(meta_of(&db), (1500, 20, evolved));
}
