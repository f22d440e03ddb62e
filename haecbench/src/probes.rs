//! Layer probes: each times calls into one layer's public functions on
//! the workload's own built tables (or on generator blocks where the
//! layer takes flat input), several times over, and reports the median.
//! Every probe runs under a `probe.*` root span with one child span per
//! repetition.

use crate::data::{BatchSample, Clock, Model};
use crate::metrics::{highest_percentile, median, percentile, Metrics};
use crate::rng::Rng;
use crate::trace::Tracer;
use haec_columnar::bitmap::Bitmap;
use haec_columnar::dict::DictColumn;
use haec_columnar::encoding::{EncodedInts, Scheme};
use haec_energy::calibrate::calibrate_host;
use haec_energy::profile::{CostEstimator, ExecutionContext, ResourceProfile};
use haec_energy::units::{ByteCount, Cycles};
use haec_exec::agg::group_aggregate;
use haec_exec::join::HashJoin;
use haec_exec::pool::RunSpec;
use haec_exec::select::{select_positions, SelectKernel};
use haec_planner::access::choose_access_segmented;
use haec_planner::cost::CostModel;
use haec_sched::admission::AdmissionGate;
use haecdb::prelude::*;
use haecdb::segment::SegColumn;
use std::hint::black_box;

/// Values per generator block: one segment's worth.
const BLOCK: usize = SEGMENT_ROWS;
/// Rows fed to the join and group-by kernels.
const KERNEL_ROWS: usize = 4 * BLOCK;
/// Segment columns probed per scheme (1 M rows at most).
const COLUMNS_PER_SCHEME: usize = 16;

struct Prober<'a> {
    clock: Clock,
    tracer: &'a mut Tracer,
}

impl Prober<'_> {
    /// Runs `f` `reps` times under one `root` span and returns the
    /// median duration of a run in nanoseconds.
    fn time(&mut self, root: &'static str, call: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
        let begin = self.clock.ns();
        let calls: Vec<(u64, u64)> = (0..reps)
            .map(|_| {
                let t0 = self.clock.ns();
                f();
                (t0, self.clock.ns())
            })
            .collect();
        self.tracer.group(root, (begin, self.clock.ns()), call, &calls);
        median(&mut calls.iter().map(|&(t0, t1)| (t1 - t0) as f64).collect::<Vec<_>>())
    }
}

/// An encoded column with the midpoint of its zone as scan literal.
struct Encoded {
    data: EncodedInts,
    min: i64,
    max: i64,
}

impl Encoded {
    fn mid(&self) -> i64 {
        ((self.min as i128 + self.max as i128) / 2) as i64
    }
}

/// The `events` segment columns of each scheme (string columns by their
/// code vectors). If `auto` picked a scheme for no column, one
/// generator block is encoded with it explicitly, so the kernel still
/// has a number.
fn columns_by_scheme(events: &TableSnapshot, model: &Model) -> Vec<Vec<Encoded>> {
    let mut by_scheme: Vec<Vec<Encoded>> = Scheme::ALL.iter().map(|_| Vec::new()).collect();
    for seg in events.segments() {
        for idx in 0..seg.width() {
            let (data, zone) = match seg.column(idx) {
                Some(SegColumn::Int { data, zone, .. }) => (data, zone),
                Some(SegColumn::Str { codes, zone }) => (codes, zone),
                _ => continue,
            };
            let Some((min, max)) = *zone else { continue };
            let slot =
                &mut by_scheme[Scheme::ALL.iter().position(|&s| s == data.scheme()).expect("known scheme")];
            if slot.len() < COLUMNS_PER_SCHEME {
                slot.push(Encoded { data: data.clone(), min, max });
            }
        }
    }
    for (slot, &scheme) in by_scheme.iter_mut().zip(&Scheme::ALL) {
        if slot.is_empty() {
            let block = &model.amount[..BLOCK];
            let (min, max) = (*block.iter().min().expect("block"), *block.iter().max().expect("block"));
            slot.push(Encoded { data: EncodedInts::encode(block, scheme), min, max });
        }
    }
    by_scheme
}

/// Runs every probe against `db` as the workload left it.
pub fn run(db: &Database, model: &Model, clock: Clock, tracer: &mut Tracer, out: &mut Metrics) {
    let mut p = Prober { clock, tracer };
    let mut rng = Rng::new(0, 7);
    let events = db.table("events").expect("events exists");
    let visible = events.rows();

    // --- columnar ----------------------------------------------------
    const SCAN_ROOTS: [&str; 4] = [
        "probe.columnar.scan.plain",
        "probe.columnar.scan.rle",
        "probe.columnar.scan.for",
        "probe.columnar.scan.delta",
    ];
    const ITER_ROOTS: [&str; 4] = [
        "probe.columnar.iter.plain",
        "probe.columnar.iter.rle",
        "probe.columnar.iter.for",
        "probe.columnar.iter.delta",
    ];
    let by_scheme = columns_by_scheme(&events, model);
    for (i, cols) in by_scheme.iter().enumerate() {
        let rows: usize = cols.iter().map(|c| c.data.len()).sum();
        let mut bitmaps: Vec<Bitmap> = cols.iter().map(|c| Bitmap::zeros(c.data.len())).collect();
        let ns = p.time(SCAN_ROOTS[i], "columnar.scan", 5, || {
            for (col, out) in cols.iter().zip(&mut bitmaps) {
                col.data.scan(CmpOp::Lt, col.mid(), out);
            }
            black_box(&bitmaps);
        });
        out.set(format!("columnar.scan_ns_per_row.{}", Scheme::ALL[i]), ns / rows as f64);
        let ns = p.time(ITER_ROOTS[i], "columnar.iter", 5, || {
            for col in cols {
                black_box(col.data.iter().fold(0i64, i64::wrapping_add));
            }
        });
        out.set(format!("columnar.iter_ns_per_row.{}", Scheme::ALL[i]), ns / rows as f64);
    }

    let ids: Vec<Encoded> = events
        .segments()
        .iter()
        .filter_map(|seg| match seg.column(0) {
            Some(SegColumn::Int { data, zone: Some((min, max)), .. }) => {
                Some(Encoded { data: data.clone(), min: *min, max: *max })
            }
            _ => None,
        })
        .take(COLUMNS_PER_SCHEME)
        .collect();
    const LOOKUPS: usize = 2_000;
    let ns = p.time("probe.columnar.sorted_range", "columnar.sorted_range", 9, || {
        let mut probes = 0u64;
        for i in 0..LOOKUPS {
            let col = &ids[i % ids.len()];
            let x = col.min + rng.below((col.max - col.min + 1) as u64) as i64;
            black_box(col.data.sorted_range(CmpOp::Eq, x, &mut probes));
        }
    });
    out.set("columnar.sorted_range_ns", ns / LOOKUPS as f64);

    let int_cols: Vec<&EncodedInts> = by_scheme.iter().flatten().map(|c| &c.data).collect();
    const GETS: usize = 20_000;
    let ns = p.time("probe.columnar.get", "columnar.get", 9, || {
        for i in 0..GETS {
            let col = int_cols[i % int_cols.len()];
            black_box(col.get(rng.below(col.len() as u64) as usize));
        }
    });
    out.set("columnar.get_ns", ns / GETS as f64);

    let id_block: Vec<i64> = (0..BLOCK as i64).collect();
    let status_block: Vec<i64> = (0..BLOCK).map(crate::data::status_of).collect();
    let blocks: [&[i64]; 5] =
        [&id_block, &model.user_id[..BLOCK], &model.amount[..BLOCK], &status_block, &model.payload[..BLOCK]];
    let ns = p.time("probe.columnar.encode", "columnar.encode_auto", 3, || {
        for block in blocks {
            black_box(EncodedInts::auto(block));
        }
    });
    out.set("columnar.encode_ns_per_row", ns / (blocks.len() * BLOCK) as f64);

    let ns = p.time("probe.columnar.dict_intern", "columnar.dict_intern", 5, || {
        let mut dict = DictColumn::new();
        for &r in &model.region[..BLOCK] {
            black_box(dict.intern(&model.regions[r as usize]));
        }
    });
    out.set("columnar.dict_intern_ns", ns / BLOCK as f64);

    // --- exec ----------------------------------------------------------
    let pairs: Vec<(i64, u32)> = (0..crate::data::USERS as u32).map(|uid| (uid as i64, uid)).collect();
    let ns = p.time("probe.exec.hash_build", "exec.hash_build", 9, || {
        black_box(HashJoin::from_pairs(&pairs));
    });
    out.set("exec.hash_build_ns_per_row", ns / pairs.len() as f64);
    let join = HashJoin::from_pairs(&pairs);
    let keys = &model.user_id[..KERNEL_ROWS];
    let ns = p.time("probe.exec.hash_probe", "exec.hash_probe", 5, || {
        black_box(join.probe(keys));
    });
    out.set("exec.hash_probe_ns_per_row", ns / keys.len() as f64);

    let group_keys: Vec<i64> = model.region[..KERNEL_ROWS].iter().map(|&r| r as i64).collect();
    let ns = p.time("probe.exec.group_agg", "exec.group_aggregate", 5, || {
        black_box(group_aggregate(&group_keys, &model.amount[..KERNEL_ROWS]));
    });
    out.set("exec.group_agg_ns_per_row", ns / KERNEL_ROWS as f64);

    // The delta-tail kernel, as `Database::execute` calls it.
    let ns = p.time("probe.exec.select", "exec.select_positions", 9, || {
        black_box(select_positions(&model.amount[..BLOCK], CmpOp::Lt, 500, SelectKernel::Bitwise));
    });
    out.set("exec.select_ns_per_row", ns / BLOCK as f64);

    const MORSELS: usize = 31;
    let pool = db.pool();
    let ns = p.time("probe.exec.pool_dispatch", "exec.pool_run", 25, || {
        let spec = RunSpec::new(pool.workers(), BLOCK);
        black_box(pool.run(MORSELS * BLOCK, spec, |m| m.len() as u64, |a, b| a + b, 0u64));
    });
    out.set("exec.pool_dispatch_us_per_morsel", ns / MORSELS as f64 / 1e3);
    out.set("exec.pool_threads_spawned", pool.threads_spawned() as f64);

    const CALLS: usize = 10_000;
    let gate = MorselGate::new(8);
    let ns = p.time("probe.exec.gate_acquire", "exec.gate_acquire", 9, || {
        for _ in 0..CALLS {
            drop(black_box(gate.acquire()));
        }
    });
    out.set("exec.gate_acquire_ns", ns / CALLS as f64);

    // --- core ----------------------------------------------------------
    const PINS: usize = 200;
    let ns = p.time("probe.core.begin_snapshot", "core.begin_snapshot", 9, || {
        for _ in 0..PINS {
            drop(black_box(db.begin_snapshot()));
        }
    });
    out.set("core.begin_snapshot_us", ns / PINS as f64 / 1e3);

    // The positions `project_sparse` selects, and the (unordered) rows
    // `join_int_filtered` gathers.
    let names = |cols: &[&str]| cols.iter().map(|c| c.to_string()).collect::<Vec<_>>();
    let sparse: Vec<u32> = (0..visible as u32).filter(|&r| model.amount[r as usize] < 20).collect();
    let cols = names(&["id", "region", "payload"]);
    let ns = p.time("probe.core.materialize", "core.materialize_columns", 5, || {
        black_box(events.materialize_columns(&cols, Some(&sparse)).expect("columns exist"));
    });
    out.set("core.materialize_ns_per_cell", ns / (sparse.len() * cols.len()) as f64);
    let mut joined: Vec<u32> = (0..visible as u32).filter(|&r| model.amount[r as usize] < 50).collect();
    joined.reverse();
    let cols = names(&["id", "amount"]);
    let ns = p.time("probe.core.gather", "core.gather_rows", 5, || {
        black_box(events.gather_rows(&cols, &joined).expect("columns exist"));
    });
    out.set("core.gather_ns_per_cell", ns / (joined.len() * cols.len()) as f64);

    out.set("core.segments", events.segments().len() as f64);
    out.set("core.encoded_bytes", events.encoded_bytes() as f64);
    out.set("core.raw_bytes", events.raw_bytes() as f64);

    // --- planner ---------------------------------------------------------
    const METAS: usize = 200;
    let ns = p.time("probe.planner.meta", "planner.planner_meta", 9, || {
        for _ in 0..METAS {
            black_box(events.planner_meta());
        }
    });
    out.set("planner.meta_us", ns / METAS as f64 / 1e3);
    // The same call, with the same inputs, `Database::execute` makes
    // for a point lookup on the sort key.
    let meta = events.planner_meta();
    let zones = events.zone_maps("id").expect("id is an int column");
    let encoded = events.column_encoded_bytes("id").expect("id exists") as u64;
    let cost_model = CostModel::new(db.machine().clone());
    let ns = p.time("probe.planner.choose_access", "planner.choose_access_segmented", 9, || {
        for _ in 0..LOOKUPS {
            let x = rng.below(visible as u64) as i64;
            black_box(choose_access_segmented(&cost_model, &meta, "id", CmpOp::Eq, x, &zones, encoded));
        }
    });
    out.set("planner.choose_access_ns", ns / LOOKUPS as f64);

    // --- energy, txn, sched ------------------------------------------------
    let machine = db.machine();
    let fastest = machine.pstates().fastest();
    let estimator = CostEstimator::new(machine.clone());
    let profile = ResourceProfile::scan(Cycles::new(1_000_000), ByteCount::new(1 << 20));
    let ctx = ExecutionContext::parallel(fastest, machine.cores());
    let ns = p.time("probe.energy.estimate", "energy.estimate", 9, || {
        for _ in 0..CALLS {
            black_box(estimator.estimate(black_box(&profile), ctx));
        }
    });
    out.set("energy.estimate_ns", ns / CALLS as f64);
    let ghz = machine.pstates().state(fastest).frequency().ghz();
    let mut scale = 0.0;
    p.time("probe.energy.calibrate", "energy.calibrate_host", 1, || scale = calibrate_host(ghz).cost_scale);
    out.set("energy.host_cycle_scale", scale);

    let oracle = TimestampOracle::new();
    let ns = p.time("probe.txn.oracle_next", "txn.oracle_next", 9, || {
        for _ in 0..CALLS {
            black_box(oracle.next());
        }
    });
    out.set("txn.oracle_next_ns", ns / CALLS as f64);

    let admission = AdmissionGate::new(256, 0);
    let ns = p.time("probe.sched.admit", "sched.admit", 9, || {
        for _ in 0..CALLS {
            drop(black_box(admission.admit(0, None, None).expect("uncontended gate admits")));
        }
    });
    out.set("sched.admit_ns", ns / CALLS as f64);
}

/// What a list of insert batches says about the write path. A batch
/// across which the main epoch advanced paid for a delta→main merge.
pub fn write_path(batches: &[BatchSample], out: &mut Metrics) {
    let took = |b: &BatchSample| (b.end_ns - b.start_ns) as f64;
    let (stalls, plain): (Vec<&BatchSample>, Vec<&BatchSample>) = batches.iter().partition(|b| b.merged);
    let plain_rows: usize = plain.iter().map(|b| b.rows).sum();
    out.set("core.insert_ns_per_row", plain.iter().map(|b| took(b)).sum::<f64>() / plain_rows.max(1) as f64);
    out.set("core.merges", stalls.len() as f64);
    let mut stall_ns: Vec<f64> = stalls.iter().map(|b| took(b)).collect();
    let merge_ns = if stall_ns.is_empty() { 0.0 } else { median(&mut stall_ns) };
    out.set("core.merge_ms_p50", merge_ns / 1e6);
    // Rows folded per merge: everything inserted up to the last stall,
    // shared among the merges that folded it.
    let folded: usize = batches.iter().rev().skip_while(|b| !b.merged).map(|b| b.rows).sum();
    let per_merge = folded as f64 / stalls.len().max(1) as f64;
    out.set("core.merge_rows_per_s", if merge_ns > 0.0 { per_merge / (merge_ns / 1e9) } else { 0.0 });
    // From the due time: in an open loop a stall also delays the
    // batches queued behind it.
    let mut latency: Vec<u64> = batches.iter().map(|b| b.end_ns - b.due_ns).collect();
    latency.sort_unstable();
    let p99 = percentile(&latency, 99.0).unwrap_or_else(|why| {
        let (p, v) = highest_percentile(&latency).expect("at least 20 batches");
        eprintln!("haecbench: core.insert_batch_p99_us reports p{p} instead: {why}");
        v
    });
    out.set("core.insert_batch_p99_us", p99 as f64 / 1e3);
}
