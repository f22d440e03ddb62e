//! Differential property tests for codes-to-client projections: string
//! columns flow to the client `Chunk` as dictionary codes + one shared
//! output dictionary, and must decode to byte-identical strings vs a
//! naive decode-everything reference — across flat, mixed and fully
//! merged layouts, sparse and dense hit densities, and post-merge
//! dictionary growth (delta values the global dictionary has never
//! seen). The positional join gather (`gather_rows`: any row order,
//! duplicates) is held to a per-row point-access reference the same
//! way, bill and output-dictionary order included.

use haec_columnar::column::Column;
use haec_columnar::value::CmpOp;
use haecdb::prelude::*;
use haecdb::segment::SegColumn;
use haecdb::table::{sparse_hits, GatherStats, RowLoc};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Tag pool spanning repeats and the empty string (the sentinel value).
const TAGS: [&str; 5] = ["alpha", "beta", "gamma", "delta", ""];

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
    db.create_table(
        "t",
        &[
            ("id", DataType::Int64),
            ("amount", DataType::Int64),
            ("tag", DataType::Str),
            ("name", DataType::Str),
        ],
    )
    .unwrap();
    db.set_merge_threshold("t", usize::MAX).unwrap();
    db
}

/// One logical row: the id/amount payload plus both decoded strings —
/// the naive reference keeps plain `String`s, never codes.
type Row = (i64, i64, String, String);

/// Runs `q` under every parallelism grant — serial, pooled two and four
/// wide, and pooled behind a budget-1 morsel gate — and checks each
/// answers exactly `want` does: the same rows, and the same bill.
fn same_under_every_grant(db: &Database, q: &Query, want: &QueryResult) -> Result<(), TestCaseError> {
    let gated = ExecOpts { dop: 4, gate: Some(MorselGate::new(1)), ..ExecOpts::default() };
    for opts in [ExecOpts::with_dop(1), ExecOpts::with_dop(2), ExecOpts::with_dop(4), gated] {
        let got = db.execute_opts(q, &opts).unwrap();
        prop_assert_eq!(&got.rows, &want.rows, "{:?}: rows", opts);
        prop_assert_eq!(got.profile, want.profile, "{:?}: bill", opts);
    }
    Ok(())
}

fn insert_row(db: &mut Database, row: &Row) {
    let (id, amount, tag, name) = row;
    db.insert(
        "t",
        &Record::new()
            .with("id", *id)
            .with("amount", *amount)
            .with("tag", tag.as_str())
            .with("name", name.as_str()),
    )
    .unwrap();
}

proptest! {
    /// Random rows, a random merge cadence (flat → mixed → merged), a
    /// post-merge tail carrying *fresh* dictionary values, and a random
    /// filter driving the hit density from empty through sparse to
    /// dense: every projected string must decode byte-identically to
    /// the plain-Rust reference, through both the whole-chunk accessors
    /// and per-row `Chunk::row`.
    #[test]
    fn codes_to_client_projection_matches_naive_reference(
        base in proptest::collection::vec((0i64..300, -50i64..50, 0usize..5), 1..250),
        fresh in proptest::collection::vec((0i64..300, -50i64..50, 0usize..3), 0..40),
        merge_every in 1usize..120,
        op in ops(),
        lit in -60i64..360,
        narrow in any::<bool>(),
    ) {
        // The reference rows, with strings decoded eagerly.
        let mut reference: Vec<Row> = base
            .iter()
            .map(|&(id, amount, t)| (id, amount, TAGS[t].to_string(), format!("n{}", id % 7)))
            .collect();
        // Post-merge rows use values no merged dictionary has interned,
        // so the delta-local dictionary genuinely grows past the global.
        reference.extend(
            fresh.iter().map(|&(id, amount, t)| (id, amount, format!("fresh-{t}"), format!("n{}", id % 7))),
        );

        let mut flat = make_db();
        let mut seg = make_db();
        for (i, row) in reference.iter().enumerate() {
            insert_row(&mut flat, row);
            insert_row(&mut seg, row);
            // Merges stop before the fresh tail, leaving it delta-only.
            if i < base.len() && (i + 1) % merge_every == 0 {
                seg.merge("t").unwrap();
            }
        }

        let q = Query::scan("t").filter("id", op, lit);
        let q = if narrow { q.select(["tag", "name"]) } else { q };
        let expected: Vec<&Row> = reference.iter().filter(|r| op.eval(r.0, lit)).collect();

        for (label, db) in [("flat", &mut flat), ("segmented", &mut seg)] {
            let out = db.execute(&q).unwrap();
            same_under_every_grant(db, &q, &out)?;
            prop_assert_eq!(out.rows.rows(), expected.len(), "{}: row count", label);
            let tags = out.rows.column("tag").unwrap().as_str().unwrap();
            let names = out.rows.column("name").unwrap().as_str().unwrap();
            for (i, want) in expected.iter().enumerate() {
                prop_assert_eq!(tags.get(i), Some(want.2.as_str()), "{}: tag row {}", label, i);
                prop_assert_eq!(names.get(i), Some(want.3.as_str()), "{}: name row {}", label, i);
                if !narrow {
                    let row = out.rows.row(i).unwrap();
                    prop_assert_eq!(&row[0], &Value::Int(want.0), "{}: id row {}", label, i);
                    prop_assert_eq!(&row[1], &Value::Int(want.1), "{}: amount row {}", label, i);
                }
            }
            // The shared output dictionary is exact: one entry per
            // distinct projected value, regardless of how many code
            // spaces (global, delta-local, sentinel) fed it.
            let distinct: std::collections::BTreeSet<&str> =
                expected.iter().map(|r| r.2.as_str()).collect();
            prop_assert_eq!(tags.dict_size(), distinct.len(), "{}: output dictionary is minimal", label);
        }
    }

    /// A snapshot pinned before a dictionary-growing merge keeps
    /// decoding its string codes against the pinned dictionary state:
    /// rows and values the merge (and the post-merge tail) interned
    /// later are invisible, and the projection still decodes
    /// byte-identically to the reference prefix.
    #[test]
    fn pinned_snapshot_decodes_against_pinned_dictionary(
        base in proptest::collection::vec((0i64..300, -50i64..50, 0usize..5), 1..150),
        tail in proptest::collection::vec((0i64..300, -50i64..50, 0usize..3), 1..60),
        op in ops(),
        lit in -60i64..360,
    ) {
        let reference: Vec<Row> = base
            .iter()
            .map(|&(id, amount, t)| (id, amount, TAGS[t].to_string(), format!("n{}", id % 7)))
            .collect();
        let mut db = make_db();
        for row in &reference {
            insert_row(&mut db, row);
        }

        // Pin now: the tail below carries values no dictionary has seen,
        // and the merge folds them into a *grown* global dictionary.
        let snap = db.begin_snapshot();

        for &(id, amount, t) in &tail {
            db.insert(
                "t",
                &Record::new()
                    .with("id", id)
                    .with("amount", amount)
                    .with("tag", format!("fresh-{t}").as_str())
                    .with("name", format!("n{}", id % 7).as_str()),
            )
            .unwrap();
        }
        db.merge("t").unwrap();

        let q = Query::scan("t").filter("id", op, lit).select(["tag", "name"]);
        let expected: Vec<&Row> = reference.iter().filter(|r| op.eval(r.0, lit)).collect();
        let out = snap.execute(&q).unwrap();
        prop_assert_eq!(out.rows.rows(), expected.len(), "pinned snapshot: row count");
        let tags = out.rows.column("tag").unwrap().as_str().unwrap();
        let names = out.rows.column("name").unwrap().as_str().unwrap();
        for (i, want) in expected.iter().enumerate() {
            prop_assert_eq!(tags.get(i), Some(want.2.as_str()), "pinned snapshot: tag row {}", i);
            prop_assert_eq!(names.get(i), Some(want.3.as_str()), "pinned snapshot: name row {}", i);
        }
        // The later dictionary growth is invisible: no `fresh-*` value
        // can appear in the snapshot's output dictionary.
        let distinct: std::collections::BTreeSet<&str> =
            expected.iter().map(|r| r.2.as_str()).collect();
        prop_assert_eq!(tags.dict_size(), distinct.len(), "pinned snapshot: dictionary is minimal");

        // Control: a fresh snapshot sees base + tail through the merged,
        // grown dictionary.
        let all = db.table("t").unwrap().rows();
        prop_assert_eq!(all, reference.len() + tail.len());
    }
}

// ---------------------------------------------------------------------
// Positional gathers (`TableSnapshot::gather_rows`): the build side of a
// join hands its payload rows over in probe order.
// ---------------------------------------------------------------------

const GATHER_SEG_ROWS: i64 = 1500;
const GATHER_ROWS: u32 = 3 * GATHER_SEG_ROWS as u32 + 200;
const GATHER_COLS: [&str; 6] = ["id", "grp", "amt", "f", "extra", "tag"];

/// Three main segments longer than one Delta checkpoint block — the
/// first predates `extra` (int) and `tag` (string) — plus a delta tail
/// carrying a string the global dictionary has never seen. `id` is
/// ascending (Delta-encoded), `grp` has long runs (RLE).
fn gather_fixture() -> &'static TableSnapshot {
    static SNAP: OnceLock<TableSnapshot> = OnceLock::new();
    SNAP.get_or_init(|| {
        let db = Database::new();
        db.create_flexible_table("g").unwrap();
        db.set_merge_threshold("g", usize::MAX).unwrap();
        let base = |i: i64| {
            Record::new()
                .with("id", 1_000_000 + i * 3)
                .with("grp", i / 100)
                .with("amt", (i * 37) % 101)
                .with("f", i as f64 / 4.0)
        };
        let tag_of = |i: i64| ["red", "green", "", "blue"][(i % 4) as usize];
        for i in 0..GATHER_SEG_ROWS {
            db.insert("g", &base(i)).unwrap();
        }
        db.merge("g").unwrap();
        for s in 1..3 {
            for i in s * GATHER_SEG_ROWS..(s + 1) * GATHER_SEG_ROWS {
                db.insert("g", &base(i).with("extra", i % 13 - 6).with("tag", tag_of(i))).unwrap();
            }
            db.merge("g").unwrap();
        }
        for i in 3 * GATHER_SEG_ROWS..GATHER_ROWS as i64 {
            let tag = if i % 9 == 0 { "violet" } else { tag_of(i) };
            db.insert("g", &base(i).with("extra", i % 13 - 6).with("tag", tag)).unwrap();
        }
        let snap = db.table("g").unwrap();
        assert_eq!(snap.segments().len(), 3);
        assert_eq!(snap.rows(), GATHER_ROWS as usize);
        assert!(snap.segments()[0].column(snap.schema().position("tag").unwrap()).is_none());
        snap
    })
}

/// The per-row reference: every cell through point access (`get_int`,
/// `locate` + one dictionary decode), strings interned in output order,
/// and the bill `gather_rows` documents — one rule for every store,
/// segment or delta chunk: one decode item and one cell read per integer
/// or string cell, one cell read per float cell, nothing where the store
/// predates the column, and one first-touch entry read per distinct
/// source code (a code of the table-global dictionary or of the
/// delta-wide one — the stores' one difference).
fn gather_reference(t: &TableSnapshot, names: &[String], rows: &[u32]) -> (Vec<Column>, GatherStats) {
    let mut stats = GatherStats::default();
    let mut cols = Vec::new();
    for name in names {
        let idx = t.schema().position(name).unwrap();
        let dtype = t.schema().columns()[idx].1;
        let cell = if dtype == DataType::Str { 4 } else { 8 };
        let mut touched = std::collections::BTreeSet::new();
        let mut col = Column::new(dtype);
        let whole = t.column(name).unwrap();
        let delta = t.delta_column(idx).unwrap();
        for &r in rows {
            let r = r as usize;
            // Whether the cell's store holds the column, and a string
            // cell's source code as (code space, code).
            let (held, code) = match t.locate(r) {
                RowLoc::Main { seg, local } => match t.segments()[seg].column(idx) {
                    Some(SegColumn::Str { codes, .. }) => (true, Some((0, codes.get(local) as u32))),
                    other => (other.is_some(), None),
                },
                // The fixture's delta tail holds every column.
                RowLoc::Delta { local } => (true, delta.as_str().map(|d| (1, d.codes()[local]))),
            };
            if held {
                if dtype != DataType::Float64 {
                    stats.decode_items += 1;
                }
                stats.bytes_read += cell;
            }
            let v = match dtype {
                DataType::Int64 => Value::Int(t.get_int(idx, r).unwrap()),
                _ => whole.get(r).unwrap(),
            };
            if let (Some(code), Value::Str(s)) = (code, &v) {
                if touched.insert(code) {
                    stats.bytes_read += s.len() as u64;
                }
            }
            col.push(v).unwrap();
        }
        stats.bytes_written += col.size_bytes() as u64;
        cols.push(col);
    }
    (cols, stats)
}

proptest! {
    /// Random row lists — any order, duplicates, every store — through
    /// `gather_rows` equal the per-row reference: values, row order,
    /// each string column's output-dictionary order, and the stats.
    /// Strictly ascending lists also go through `materialize_columns`,
    /// which must return the same cells and the same bill.
    #[test]
    fn gather_rows_matches_per_row_reference(
        mut rows in proptest::collection::vec(0u32..GATHER_ROWS, 0..400),
        shape in 0usize..6,
        ncols in 1usize..=GATHER_COLS.len(),
        first in 0usize..GATHER_COLS.len(),
    ) {
        match shape {
            0 => rows.sort_unstable(),                      // non-decreasing, duplicates
            1 => rows.sort_unstable_by(|a, b| b.cmp(a)),    // descending
            2 => rows.iter_mut().for_each(|r| *r = *r / 8 + 1020), // clustered round a checkpoint edge
            3 => {                                          // strictly ascending, sparse
                rows.sort_unstable();
                rows.dedup();
            }
            4 => {                                          // strictly ascending, dense: one window
                let lo = rows.first().copied().unwrap_or(0);
                rows = (lo..(lo + 4 * rows.len() as u32).min(GATHER_ROWS)).collect();
            }
            _ => {}                                         // probe order
        }
        let t = gather_fixture();
        let names: Vec<String> =
            (0..ncols).map(|i| GATHER_COLS[(first + i) % GATHER_COLS.len()].to_string()).collect();
        let (want, want_stats) = gather_reference(t, &names, &rows);
        let strict = rows.windows(2).all(|w| w[0] < w[1]);
        let mut entries = vec![t.gather_rows(&names, &rows).unwrap()];
        if strict {
            entries.push(t.materialize_columns(&names, Some(&rows)).unwrap());
        }
        for (got, _) in &entries {
            prop_assert_eq!(got.len(), names.len());
            for (((name, col), want), asked) in got.iter().zip(&want).zip(&names) {
                prop_assert_eq!(name, asked);
                // `Column` equality covers the dictionary order and the codes.
                prop_assert_eq!(col, want, "column {}", name);
            }
        }
        prop_assert!(entries.iter().all(|(_, stats)| *stats == entries[0].1), "one bill behind both entries");
        // The reference bills per cell — what every list pays but a
        // strictly ascending one dense enough to stream a whole store: one
        // of the three segments, or the delta tail's one chunk.
        let streams = strict
            && (0..4).any(|store| {
                let hits = rows.iter().filter(|&&r| (r as i64 / GATHER_SEG_ROWS).min(3) == store).count();
                let len = if store < 3 { GATHER_SEG_ROWS } else { GATHER_ROWS as i64 - 3 * GATHER_SEG_ROWS };
                !sparse_hits(hits, len as usize)
            });
        if !streams {
            prop_assert_eq!(entries[0].1, want_stats);
        }
    }
}

/// A positional list (one with a repeat, or out of order) is read per
/// cell however many entries a store's share holds: the shape is never
/// inferred from a count. Segment 1's share below has exactly as many
/// entries as the segment has rows, half of them repeats; the delta
/// tail's has more entries than the tail has rows. Sorted or scrambled,
/// both equal the per-row reference in rows and bill.
#[test]
fn positional_shares_as_long_as_their_store_read_per_cell() {
    let t = gather_fixture();
    let names: Vec<String> = GATHER_COLS.iter().map(ToString::to_string).collect();
    let seg = GATHER_SEG_ROWS as u32;
    let tail = GATHER_ROWS - 3 * seg;
    // Segment 1's rows, every second one twice: `seg` entries.
    let exact: Vec<u32> = (0..seg).map(|i| seg + i / 2 * 2).collect();
    // The delta tail's rows, the first half of them twice.
    let over: Vec<u32> = (0..tail + tail / 2).map(|i| 3 * seg + i % tail).collect();
    for rows in [exact, over] {
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        let scrambled: Vec<u32> = sorted.iter().rev().copied().collect();
        for list in [&sorted, &scrambled] {
            let (want, want_stats) = gather_reference(t, &names, list);
            for (got, stats) in
                [t.gather_rows(&names, list).unwrap(), t.materialize_columns(&names, Some(list)).unwrap()]
            {
                assert!(got.iter().map(|(_, c)| c).eq(want.iter()), "{} entries", list.len());
                assert_eq!(stats, want_stats, "{} entries", list.len());
            }
        }
    }
}

/// One fixed unordered row list, with the stats and the string output-
/// dictionary order pinned as literals captured on the commit before
/// `gather_rows` started visiting rows in ascending order — `decode_items`
/// re-captured once delta cells began reading through their chunk's
/// column view like segment cells do (+175: 35 delta rows × 5 integer
/// and string columns; bytes unchanged).
#[test]
fn gather_rows_stats_and_dictionary_order_are_pinned() {
    let t = gather_fixture();
    let mut x = 12345u64;
    let rows: Vec<u32> = (0..700)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) % GATHER_ROWS as u64) as u32
        })
        .collect();
    let names: Vec<String> = GATHER_COLS.iter().map(ToString::to_string).collect();
    let (cols, stats) = t.gather_rows(&names, &rows).unwrap();
    let tags = cols[5].1.as_str().unwrap();
    assert_eq!(stats, GatherStats { decode_items: 3036, bytes_read: 28046, bytes_written: 30938 });
    assert_eq!(tags.iter_dict().collect::<Vec<_>>(), ["red", "blue", "", "green", "violet"]);
    let (want, _) = gather_reference(t, &names, &rows);
    assert!(cols.iter().map(|(_, c)| c).eq(want.iter()));
}
