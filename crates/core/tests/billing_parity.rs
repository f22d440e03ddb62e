//! Billing parity: one deterministic fixture, every executor stage ×
//! every execution-unit kind, with the exact billed
//! [`QueryResult::profile`] and the exact rows pinned as literals.
//!
//! The differential property suites prove *answers* across storage
//! layouts; this test pins the **bill**. The fixture's `ev` table has
//! three small main segments from successive merges — the first
//! predates the later-added `extra` (int) and `tag` (string) columns —
//! plus a live delta tail carrying a string the global dictionary has
//! never seen, and a second table `dim` to join with. Each query below
//! exercises one stage (global fold, grouped fold on int / string keys,
//! hash / sort-merge join on int / string keys, projection) over
//! {no filter, dense filter, sparse filter}, so every unit kind (encoded
//! segment, sentinel column, a delta chunk's integer and string-code
//! views) meets every walk (all rows, sparse random access, dense
//! stream-to-last-hit).
//!
//! The literals were captured on the commit *before* the executor
//! refactor — `join_build_right_unordered` (the larger table, filtered,
//! as the build side: its payload rows reach `gather_rows` in probe
//! order, across a sentinel segment, two full segments and the delta)
//! on the commit before `gather_rows` began visiting rows in ascending
//! order, and the last three (a sort-key range ANDed with a match
//! bitmap, an index's row ids folded directly, a grouped COUNT over
//! dense segment bitmaps plus a delta selection) on the commit before
//! selections stopped being flattened to row ids between filter and
//! fold. The bills of every query that reads `ev`'s or `dim`'s delta
//! were re-captured once, rows untouched, when delta chunks began to be
//! read through the segment kernel and column-view rule (each literal's
//! move is explained per store and term in CHANGES.md), and the `read=`
//! of every query that streams a Delta store once more when Delta began
//! packing each delta over the column's smallest (smaller stores, same
//! rows and cycles; explained per store in CHANGES.md). Any change to
//! them is a billing or behaviour change and must be justified as a
//! model correction, never absorbed silently.

use haecdb::prelude::*;

const SEG_ROWS: i64 = 240;

fn tag_of(i: i64) -> &'static str {
    ["red", "green", "", "blue"][(i % 4) as usize]
}

fn fixture() -> Database {
    let db = Database::new();
    db.create_flexible_table("ev").unwrap();
    db.set_merge_threshold("ev", usize::MAX).unwrap();
    // Segment 0 predates `extra` and `tag`.
    for i in 0..SEG_ROWS {
        db.insert(
            "ev",
            &Record::new().with("id", i).with("k", i % 7).with("grp", i / 60).with("amt", (i * 37) % 101),
        )
        .unwrap();
    }
    db.merge("ev").unwrap();
    // Segments 1 and 2 carry every column.
    for s in 1..3 {
        for i in s * SEG_ROWS..(s + 1) * SEG_ROWS {
            db.insert(
                "ev",
                &Record::new()
                    .with("id", i)
                    .with("k", i % 7)
                    .with("grp", i / 60)
                    .with("amt", (i * 37) % 101)
                    .with("extra", i % 13 - 6)
                    .with("tag", tag_of(i)),
            )
            .unwrap();
        }
        db.merge("ev").unwrap();
    }
    // Live delta tail; "violet" is delta-fresh (not in the global
    // dictionary).
    for i in 3 * SEG_ROWS..3 * SEG_ROWS + 90 {
        let tag = if i % 9 == 0 { "violet" } else { tag_of(i) };
        db.insert(
            "ev",
            &Record::new()
                .with("id", i)
                .with("k", i % 7)
                .with("grp", i / 60)
                .with("amt", (i * 37) % 101)
                .with("extra", i % 13 - 6)
                .with("tag", tag),
        )
        .unwrap();
    }

    db.create_table("dim", &[("k", DataType::Int64), ("name", DataType::Str), ("w", DataType::Int64)])
        .unwrap();
    db.set_merge_threshold("dim", usize::MAX).unwrap();
    let dim = [(0, "red", 10), (1, "green", 20), (2, "", 30), (3, "blue", 40), (4, "teal", 50)];
    for (k, name, w) in dim {
        db.insert("dim", &Record::new().with("k", k as i64).with("name", name).with("w", w as i64)).unwrap();
    }
    db.merge("dim").unwrap();
    // Delta rows of `dim`: one delta-fresh name on each side's delta.
    for (k, name, w) in [(5, "violet", 60), (6, "red", 70), (9, "amber", 80)] {
        db.insert("dim", &Record::new().with("k", k as i64).with("name", name).with("w", w as i64)).unwrap();
    }
    // A declared-sort-key table, fully merged: its key stream arrives
    // presorted, which is what makes sort-merge the cheaper join.
    db.create_table_sorted("sev", &[("id", DataType::Int64), ("v", DataType::Int64)], "id").unwrap();
    db.set_merge_threshold("sev", usize::MAX).unwrap();
    for half in 0..2 {
        for j in 0..200 {
            let id = half * 200 + (j * 73) % 200;
            db.insert("sev", &Record::new().with("id", id as i64).with("v", (id % 11) as i64)).unwrap();
        }
        db.merge("sev").unwrap();
    }
    db.create_index("ev", "id", IndexMaintenance::Eager).unwrap();
    db
}

fn render(out: &QueryResult) -> String {
    let rows: Vec<String> = (0..out.rows.rows())
        .map(|r| {
            let cells: Vec<String> = out.rows.row(r).unwrap().iter().map(ToString::to_string).collect();
            cells.join(",")
        })
        .collect();
    format!(
        "cycles={} read={} written={} path={:?} | {} | {}",
        out.profile.cpu_cycles.count(),
        out.profile.dram_read.bytes(),
        out.profile.dram_written.bytes(),
        out.access_path,
        out.rows.names().join(","),
        rows.join(";")
    )
}

/// `(name, session goal, query)`.
fn queries() -> Vec<(&'static str, Goal, Query)> {
    let ev = || Query::scan("ev");
    // Dense: about half of every unit survives. Sparse: a handful of
    // rows per unit (well under the 1:8 crossover).
    let dense = |q: Query| q.filter("amt", CmpOp::Ge, 50);
    let sparse = |q: Query| q.filter("amt", CmpOp::Eq, 3);
    // Joins between `ev` (all four unit kinds) and `dim`, filtered on
    // both sides; `few` leaves `ev` the smaller side, so it becomes the
    // build side. These all hash: the planner only finds sort-merge
    // cheaper when a side arrives presorted — the `sev` joins below
    // (string keys never count as presorted, so they always hash).
    let join_int = |q: Query| {
        q.join("dim", "k", "k")
            .join_filter("w", CmpOp::Ge, 20)
            .select(["id", "tag", "extra", "dim.name", "dim.w"])
    };
    let join_str = |q: Query| {
        q.join("dim", "tag", "name")
            .filter_str_ne("tag", "green")
            .join_filter_str_ne("name", "teal")
            .select(["id", "tag", "amt", "dim.k", "dim.name"])
    };
    let few = |q: Query| sparse(q).filter("id", CmpOp::Ge, 300);
    vec![
        ("sum_all", Goal::MinTime, ev().aggregate(AggKind::Sum, "amt")),
        ("count_all", Goal::MinTime, ev().aggregate(AggKind::Count, "amt")),
        ("min_all", Goal::MinTime, ev().aggregate(AggKind::Min, "amt")),
        ("sum_late_column", Goal::MinTime, ev().aggregate(AggKind::Sum, "extra")),
        ("sum_dense", Goal::MinTime, dense(ev()).aggregate(AggKind::Sum, "amt")),
        ("sum_sparse", Goal::MinTime, sparse(ev()).aggregate(AggKind::Sum, "extra")),
        ("min_sparse", Goal::MinTime, sparse(ev()).aggregate(AggKind::Min, "id")),
        ("count_dense", Goal::MinTime, dense(ev()).aggregate(AggKind::Count, "amt")),
        ("by_int_sum_all", Goal::MinTime, ev().group_by("k").aggregate(AggKind::Sum, "amt")),
        ("by_int_count_dense", Goal::MinTime, dense(ev()).group_by("k").aggregate(AggKind::Count, "amt")),
        ("by_runs_sum_sparse", Goal::MinTime, sparse(ev()).group_by("grp").aggregate(AggKind::Sum, "id")),
        (
            "by_late_int_min_dense",
            Goal::MinTime,
            dense(ev()).group_by("extra").aggregate(AggKind::Min, "amt"),
        ),
        ("by_str_sum_all", Goal::MinTime, ev().group_by("tag").aggregate(AggKind::Sum, "amt")),
        ("by_str_count_dense", Goal::MinTime, dense(ev()).group_by("tag").aggregate(AggKind::Count, "amt")),
        ("by_str_min_sparse", Goal::MinTime, sparse(ev()).group_by("tag").aggregate(AggKind::Min, "id")),
        ("join_int_hash", Goal::MinTime, join_int(ev().filter("amt", CmpOp::Lt, 2))),
        ("join_int_hash_dense", Goal::MinTime, join_int(ev().filter("id", CmpOp::Ge, 790))),
        ("join_int_build_left", Goal::MinTime, join_int(few(ev()))),
        ("join_int_min_energy", Goal::MinEnergy, join_int(ev().filter("amt", CmpOp::Lt, 2))),
        ("join_str_hash", Goal::MinTime, join_str(ev().filter("amt", CmpOp::Lt, 2))),
        ("join_str_build_left", Goal::MinTime, join_str(few(ev()))),
        ("join_str_min_energy", Goal::MinEnergy, join_str(ev().filter("amt", CmpOp::Lt, 2))),
        (
            "join_str_tiny",
            Goal::MinTime,
            ev().join("dim", "tag", "name").filter("id", CmpOp::Eq, 516).join_filter_str_eq("name", "red"),
        ),
        (
            "join_str_tiny_delta",
            Goal::MinTime,
            ev().join("dim", "tag", "name").filter("id", CmpOp::Eq, 720).select(["id", "dim.k"]),
        ),
        (
            "join_sorted",
            Goal::MinTime,
            Query::scan("sev").join("dim", "id", "k").select(["id", "v", "dim.name"]),
        ),
        (
            "join_sorted_filtered",
            Goal::MinTime,
            Query::scan("sev")
                .join("ev", "id", "id")
                .filter("v", CmpOp::Lt, 3)
                .join_filter("amt", CmpOp::Ge, 90)
                .select(["id", "v", "ev.tag"]),
        ),
        (
            "join_unfiltered_build",
            Goal::MinTime,
            ev().join("dim", "k", "k").filter("id", CmpOp::Ge, 800).select(["id", "dim.name"]),
        ),
        (
            "join_build_right_unordered",
            Goal::MinTime,
            Query::scan("dim")
                .join("ev", "k", "k")
                .join_filter("amt", CmpOp::Eq, 33)
                .join_filter("id", CmpOp::Ne, 424)
                .select(["k", "name", "ev.id", "ev.tag", "ev.extra"]),
        ),
        (
            "index_lookup",
            Goal::MinTime,
            ev().filter("id", CmpOp::Eq, 415)
                .filter("amt", CmpOp::Le, 50)
                .filter_str_eq("tag", "blue")
                .select(["id", "tag"]),
        ),
        ("sorted_point", Goal::MinTime, Query::scan("sev").filter("id", CmpOp::Eq, 123)),
        ("sorted_range_min_energy", Goal::MinEnergy, Query::scan("sev").filter("id", CmpOp::Lt, 4)),
        ("project_sparse", Goal::MinTime, sparse(ev()).select(["id", "tag", "extra"])),
        (
            "project_dense_tail",
            Goal::MinTime,
            ev().filter("id", CmpOp::Ge, 690).filter_str_eq("tag", "violet").select(["id", "tag", "amt"]),
        ),
        // Selection shapes between filter and fold: a sort-key range
        // ANDed with a match bitmap, an index's row ids, and a grouped
        // COUNT over dense segment bitmaps plus a non-empty delta.
        (
            "sum_range_and_bitmap",
            Goal::MinTime,
            Query::scan("sev")
                .filter("id", CmpOp::Ge, 30)
                .filter("id", CmpOp::Lt, 370)
                .filter("v", CmpOp::Lt, 5)
                .aggregate(AggKind::Sum, "v"),
        ),
        ("index_sum", Goal::MinTime, ev().filter("id", CmpOp::Eq, 415).aggregate(AggKind::Sum, "amt")),
        (
            "by_runs_count_dense",
            Goal::MinTime,
            ev().filter("amt", CmpOp::Ge, 10)
                .filter_str_ne("tag", "green")
                .group_by("grp")
                .aggregate(AggKind::Count, "id"),
        ),
    ]
}

#[rustfmt::skip]
const EXPECTED: &[&str] = &[
    "sum_all: cycles=5670 read=1392 written=0 path=None | sum(amt) | 40437",
    "count_all: cycles=16 read=0 written=0 path=None | count(amt) | 810",
    "min_all: cycles=16 read=0 written=0 path=None | min(amt) | 0",
    "sum_late_column: cycles=3990 read=976 written=0 path=None | sum(extra) | 3",
    "sum_dense: cycles=5016 read=2764 written=0 path=None | sum(amt) | 30600",
    "sum_sparse: cycles=1019 read=1432 written=0 path=None | sum(extra) | 2",
    "min_sparse: cycles=1028 read=1456 written=0 path=None | min(id) | 11",
    "count_dense: cycles=988 read=1392 written=0 path=None | count(amt) | 408",
    "by_int_sum_all: cycles=36450 read=2424 written=0 path=None | k,sum(amt) | 0,5783;1,5732;2,5883;3,5731;4,5781;5,5757;6,5770",
    "by_int_count_dense: cycles=19296 read=2406 written=0 path=None | k,count(amt) | 0,59;1,58;2,60;3,57;4,58;5,58;6,58",
    "by_runs_sum_sparse: cycles=1332 read=1520 written=0 path=None | grp,sum(id) | 0,11;1,112;3,213;5,314;6,415;8,516;10,617;11,718",
    "by_late_int_min_dense: cycles=16753 read=3720 written=0 path=None | extra,min(amt) | -6,50;-5,53;-4,51;-3,50;-2,53;-1,52;0,50;1,50;2,52;3,51;4,50;5,52;6,51",
    "by_str_sum_all: cycles=27330 read=2256 written=0 path=None | tag,sum(amt) | \"\",18989;\"blue\",6959;\"green\",7068;\"red\",6917;\"violet\",504",
    "by_str_count_dense: cycles=13861 read=2238 written=0 path=None | tag,count(amt) | \"\",192;\"blue\",69;\"green\",72;\"red\",70;\"violet\",5",
    "by_str_min_sparse: cycles=1218 read=1476 written=0 path=None | tag,min(id) | \"\",11;\"blue\",415;\"green\",617;\"red\",516",
    "join_int_hash: cycles=2709 read=2349 written=1030 path=None | id,tag,extra,dim.name,dim.w | 71,\"\",0,\"green\",20;101,\"\",0,\"blue\",40;172,\"\",0,\"teal\",50;202,\"\",0,\"red\",70;303,\"blue\",-2,\"\",30;374,\"\",4,\"blue\",40;404,\"red\",-5,\"violet\",60;475,\"blue\",1,\"red\",70;505,\"green\",5,\"green\",20;576,\"red\",-2,\"\",30;606,\"\",2,\"teal\",50;677,\"green\",-5,\"violet\",60;778,\"\",5,\"green\",20;808,\"red\",-4,\"blue\",40",
    "join_int_hash_dense: cycles=3015 read=4288 written=1180 path=None | id,tag,extra,dim.name,dim.w | 790,\"\",4,\"red\",70;792,\"violet\",6,\"green\",20;793,\"green\",-6,\"\",30;794,\"\",-5,\"blue\",40;795,\"blue\",-4,\"teal\",50;796,\"red\",-3,\"violet\",60;797,\"green\",-2,\"red\",70;799,\"blue\",0,\"green\",20;800,\"red\",1,\"\",30;801,\"violet\",2,\"blue\",40;802,\"\",3,\"teal\",50;803,\"blue\",4,\"violet\",60;804,\"red\",5,\"red\",70;806,\"\",-6,\"green\",20;807,\"blue\",-5,\"\",30;808,\"red\",-4,\"blue\",40;809,\"green\",-3,\"teal\",50",
    "join_int_build_left: cycles=2068 read=1846 written=586 path=None | id,tag,extra,dim.name,dim.w | 617,\"green\",0,\"green\",20;415,\"blue\",6,\"\",30;718,\"\",-3,\"teal\",50;516,\"red\",3,\"violet\",60;314,\"\",-4,\"red\",70",
    "join_int_min_energy: cycles=2709 read=2349 written=1030 path=None | id,tag,extra,dim.name,dim.w | 71,\"\",0,\"green\",20;101,\"\",0,\"blue\",40;172,\"\",0,\"teal\",50;202,\"\",0,\"red\",70;303,\"blue\",-2,\"\",30;374,\"\",4,\"blue\",40;404,\"red\",-5,\"violet\",60;475,\"blue\",1,\"red\",70;505,\"green\",5,\"green\",20;576,\"red\",-2,\"\",30;606,\"\",2,\"teal\",50;677,\"green\",-5,\"violet\",60;778,\"\",5,\"green\",20;808,\"red\",-4,\"blue\",40",
    "join_str_hash: cycles=3995 read=3472 written=1034 path=None | id,tag,amt,dim.k,dim.name | 0,\"\",0,2,\"\";71,\"\",1,2,\"\";101,\"\",0,2,\"\";172,\"\",1,2,\"\";202,\"\",0,2,\"\";303,\"blue\",0,3,\"blue\";374,\"\",1,2,\"\";404,\"red\",0,0,\"red\";404,\"red\",0,6,\"red\";475,\"blue\",1,3,\"blue\";576,\"red\",1,0,\"red\";576,\"red\",1,6,\"red\";606,\"\",0,2,\"\";707,\"blue\",0,3,\"blue\";778,\"\",1,2,\"\";808,\"red\",0,0,\"red\";808,\"red\",0,6,\"red\"",
    "join_str_build_left: cycles=3243 read=2921 written=470 path=None | id,tag,amt,dim.k,dim.name | 516,\"red\",3,0,\"red\";314,\"\",3,2,\"\";718,\"\",3,2,\"\";415,\"blue\",3,3,\"blue\";516,\"red\",3,6,\"red\"",
    "join_str_min_energy: cycles=3995 read=3472 written=1034 path=None | id,tag,amt,dim.k,dim.name | 0,\"\",0,2,\"\";71,\"\",1,2,\"\";101,\"\",0,2,\"\";172,\"\",1,2,\"\";202,\"\",0,2,\"\";303,\"blue\",0,3,\"blue\";374,\"\",1,2,\"\";404,\"red\",0,0,\"red\";404,\"red\",0,6,\"red\";475,\"blue\",1,3,\"blue\";576,\"red\",1,0,\"red\";576,\"red\",1,6,\"red\";606,\"\",0,2,\"\";707,\"blue\",0,3,\"blue\";778,\"\",1,2,\"\";808,\"red\",0,0,\"red\";808,\"red\",0,6,\"red\"",
    "join_str_tiny: cycles=1272 read=612 written=226 path=None | id,k,grp,amt,extra,tag,dim.k,dim.name,dim.w | 516,5,8,3,3,\"red\",0,\"red\",10;516,5,8,3,3,\"red\",6,\"red\",70",
    "join_str_tiny_delta: cycles=858 read=1092 written=52 path=None | id,dim.k | 720,5",
    "join_sorted: cycles=1176 read=3038 written=5411 path=None | id,v,dim.name | 0,0,\"red\";1,1,\"green\";2,2,\"\";3,3,\"blue\";4,4,\"teal\";5,5,\"violet\";6,6,\"red\";9,9,\"amber\"",
    "join_sorted_filtered: cycles=10647 read=12335 written=5192 path=None | id,v,ev.tag | 68,2,\"\";79,2,\"\";90,2,\"\";199,1,\"\";210,1,\"\";221,1,\"\";232,1,\"\";330,0,\"\";341,0,\"green\";352,0,\"red\";363,0,\"blue\"",
    "join_unfiltered_build: cycles=1092 read=1185 written=590 path=None | id,dim.name | 800,\"\";801,\"blue\";802,\"teal\";803,\"violet\";804,\"red\";805,\"red\";806,\"green\";807,\"\";808,\"blue\";809,\"teal\"",
    "join_build_right_unordered: cycles=2267 read=1882 written=695 path=None | k,name,ev.id,ev.tag,ev.extra | 0,\"red\",525,\"green\",-1;1,\"green\",323,\"blue\",5;2,\"\",121,\"\",0;3,\"blue\",626,\"\",-4;5,\"violet\",222,\"\",0;6,\"red\",20,\"\",0;6,\"red\",727,\"blue\",6",
    "index_lookup: cycles=144 read=284 written=40 path=Some(IndexLookup) | id,tag | 415,\"blue\"",
    "sorted_point: cycles=1934 read=1040 written=16 path=Some(FullScan) | id,v | 123,2",
    "sorted_range_min_energy: cycles=1016 read=576 written=64 path=Some(FullScan) | id,v | 0,0;1,1;2,2;3,3",
    "project_sparse: cycles=1090 read=1528 written=268 path=None | id,tag,extra | 11,\"\",0;112,\"\",0;213,\"\",0;314,\"\",-4;415,\"blue\",6;516,\"red\",3;617,\"green\",0;718,\"\",-3",
    "project_dense_tail: cycles=566 read=942 written=230 path=None | id,tag,amt | 720,\"violet\",77;729,\"violet\",6;738,\"violet\",36;747,\"violet\",66;756,\"violet\",96;765,\"violet\",25;774,\"violet\",55;783,\"violet\",85;792,\"violet\",14;801,\"violet\",44",
    "sum_range_and_bitmap: cycles=4124 read=1454 written=0 path=Some(FullScan) | sum(v) | 310",
    "index_sum: cycles=127 read=264 written=0 path=Some(IndexLookup) | sum(amt) | 3",
    "by_runs_count_dense: cycles=27558 read=3104 written=0 path=None | grp,count(id) | 0,54;1,54;2,54;3,54;4,41;5,40;6,40;7,41;8,41;9,40;10,40;11,41;12,41;13,21",
];

#[test]
fn billed_profile_and_rows_are_pinned_per_stage_and_unit_kind() {
    let db = fixture();
    let ev = db.table("ev").unwrap();
    assert_eq!(ev.segments().len(), 3, "three main segments from successive merges");
    assert_eq!(ev.delta_rows(), 90, "live delta tail");
    assert!(
        ev.segments()[0].column(ev.schema().position("tag").unwrap()).is_none(),
        "segment 0 predates tag"
    );

    let actual: Vec<String> = queries()
        .into_iter()
        .map(|(name, goal, q)| {
            db.set_goal(goal);
            let out = db.execute(&q).unwrap_or_else(|e| panic!("{name}: {e}"));
            format!("{name}: {}", render(&out))
        })
        .collect();
    if actual != EXPECTED {
        for line in &actual {
            println!("    {line:?},");
        }
    }
    assert_eq!(actual.len(), EXPECTED.len(), "one pinned literal per query");
    for (a, e) in actual.iter().zip(EXPECTED) {
        assert_eq!(a, e);
    }
}
