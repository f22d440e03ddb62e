//! E9 — the Need-to-Know principle: maintain an index only when someone
//! reads it (§IV.A), on the engine: inserts through [`Database::insert`]
//! (auto-merging into segments), point lookups through the planned index
//! path, work read from [`Database::index_stats`].

use crate::report::{fmt_dur, time_it, Report};
use haecdb::prelude::*;
use std::time::Duration;

/// Inserts `updates` rows (`k = i mod 1024`) into a table indexed on `k`
/// under `maintenance`, with `reads` point lookups on `k` spread evenly
/// among them (the last after the last insert). Returns the index's
/// counters, the total time and the first lookup's latency.
fn drive(maintenance: IndexMaintenance, updates: u64, reads: u64) -> (IndexStats, Duration, Duration) {
    let db = Database::new();
    db.create_table("t", &[("k", DataType::Int64), ("v", DataType::Int64)]).expect("fresh database");
    db.create_index("t", "k", maintenance).expect("t.k exists");
    let read_every = updates.checked_div(reads).unwrap_or(u64::MAX);
    let mut first_read_latency = None;
    let (_, total) = time_it(|| {
        for i in 0..updates {
            let key = (i % 1024) as i64;
            db.insert("t", &Record::new().with("k", key).with("v", i as i64)).expect("t exists");
            if (i + 1) % read_every == 0 {
                let lookup = Query::scan("t").filter("k", CmpOp::Eq, key).aggregate(AggKind::Count, "v");
                let (_, d) = time_it(|| db.execute(&lookup).expect("valid query"));
                first_read_latency.get_or_insert(d);
            }
        }
    });
    let stats = db.index_stats("t", "k").expect("index declared");
    (stats, total, first_read_latency.unwrap_or_default())
}

/// Runs the experiment.
pub fn run() -> Report {
    let mut r = Report::new(
        "E9",
        "index maintenance: eager (ubiquity) vs need-to-know",
        "update the index only if an application indicated interest in reading it (§IV.A)",
    );
    r.headers([
        "readers / 256K writes",
        "discipline",
        "rows indexed",
        "reader builds",
        "lookups",
        "total time",
        "1st-read stall",
    ]);

    let updates = 4 * SEGMENT_ROWS as u64;
    for reads in [0u64, 1, 64, 4096] {
        for m in [IndexMaintenance::Eager, IndexMaintenance::NeedToKnow] {
            let (stats, total, stall) = drive(m, updates, reads);
            r.row([
                format!("{reads}"),
                format!("{m}"),
                format!("{}", stats.maintenance_ops),
                format!("{}", stats.catchups),
                format!("{}", stats.lookups),
                fmt_dur(total),
                if reads == 0 { "-".into() } else { fmt_dur(stall) },
            ]);
            if m == IndexMaintenance::NeedToKnow {
                // Write-only: need-to-know must do zero maintenance; with
                // readers, every store indexed was indexed by a reader.
                assert_eq!(stats.maintenance_ops == 0, reads == 0, "need-to-know indexes only for readers");
                assert_eq!(stats.catchups == 0, reads == 0, "the first reader pays the builds");
            }
        }
    }
    r.note("with no readers, need-to-know does no maintenance work (eager indexes every merged segment)");
    r.note("the first reader pays the builds of the stores its zones let through — the principle's price");
    r.note("with frequent readers the disciplines converge: the stores readers touch are indexed either way");
    r.note("a sealed delta chunk is indexed by its first reader under both disciplines, and its rows again in their segment");
    r
}
