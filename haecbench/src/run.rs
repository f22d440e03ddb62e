//! One benchmark run: set-up, the workload's measured phase, and — in a
//! traced run — the served pass, the class census, the layer probes and
//! the span file.

use crate::data::{set_up, BatchSample, Clock, SetUp};
use crate::json::Json;
use crate::metrics::{self, highest_percentile, median, percentile, Metrics, PATHS};
use crate::ops::{op_list, op_list_digest, Class, RefState};
use crate::probes;
use crate::trace::{self_time_by_name, span_json, Span, Tracer};
use crate::workload::{reader_count, run_serial, run_served, writer_rows, Client, Spec, Target};
use haec_sched::qserver::{QueryServer, QueryServerConfig};
use haecdb::prelude::*;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

/// Set-ups per untraced run; `setup_s` is their median.
const SET_UPS: usize = 3;
/// Operations per class in the census of a traced run.
const CENSUS_OPS: usize = 5;
/// Operation streams of the seed: 1 is the table data, 2 the census,
/// 10 + r reader r (the single client of a read-only workload is
/// reader 0).
const CENSUS_STREAM: u64 = 2;
const READER_STREAM: u64 = 10;

pub struct RunArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
}

pub struct RunOutput {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// One phase's line in the report.
fn phase_line(name: &str, attempted: u64, failed: u64, first_error: Option<&str>) {
    eprintln!(
        "  phase {name:<10} attempted {attempted:>9}  succeeded {:>9}  failed {failed}",
        attempted - failed
    );
    if let Some(why) = first_error {
        eprintln!("    first failure: {why}");
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Time per row over the faster half of the insert batches — the same
/// rule as for queries: every batch is the same work, and what slows one
/// down on a small host is mostly waiting for a core or a lock. That
/// leaves out the merge stalls (fewer than 1 % of batches), which are in
/// `setup_s` and `core.merge_ms_p50` instead.
fn write_us_per_row<'a>(batches: impl IntoIterator<Item = &'a Vec<BatchSample>>) -> f64 {
    let mut per_row: Vec<f64> =
        batches.into_iter().flatten().map(|b| (b.end_ns - b.start_ns) as f64 / 1e3 / b.rows as f64).collect();
    assert!(!per_row.is_empty(), "no insert batch was timed");
    per_row.sort_unstable_by(f64::total_cmp);
    per_row.truncate(per_row.len().div_ceil(2));
    per_row.iter().sum::<f64>() / per_row.len() as f64
}

/// Encoded bytes (main segments + flat delta) per plain byte, over both
/// tables as the run left them.
fn stored_bytes_per_user_byte(db: &Database) -> f64 {
    let tables = ["events", "users"].map(|t| db.table(t).expect("table exists"));
    let encoded: usize = tables.iter().map(TableSnapshot::encoded_bytes).sum();
    let raw: usize = tables.iter().map(TableSnapshot::raw_bytes).sum();
    encoded as f64 / raw as f64
}

pub fn run(args: &RunArgs) -> RunOutput {
    let spec = args.spec;
    let readers = if spec.served { reader_count() } else { 1 };
    eprintln!(
        "haecbench {} seed {} seconds {} trace {}: {} closed-loop client(s){}, pool of {} worker(s)",
        spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        readers,
        if spec.served { " + 1 open-loop writer" } else { "" },
        WorkerPool::global().workers(),
    );
    eprintln!("  why: {}", spec.why);

    // --- set-up, several times over; the last one is kept ----------------
    let mut setup_s = Vec::new();
    let mut setup_batches = Vec::new();
    let mut kept: Option<SetUp> = None;
    for _ in 0..if args.trace { 1 } else { SET_UPS } {
        drop(kept.take());
        let mut s = set_up(spec, args.seed, writer_rows(spec, args.seconds), args.trace);
        setup_s.push(s.seconds);
        setup_batches.push(std::mem::take(&mut s.batches));
        kept = Some(s);
    }
    let SetUp { db, model, failed: setup_failed, .. } = kept.expect("at least one set-up");
    let setup_rows = (model.preload + crate::data::USERS) as u64;
    phase_line("set-up", setup_rows, setup_failed, None);

    // --- the measured phase ---------------------------------------------
    let clock = Clock::start();
    let mut state = RefState::new();
    state.advance(&model, model.preload);
    let reader_ops: Vec<_> = (0..readers as u64)
        .map(|r| op_list(spec.pattern, spec.list_len, args.seed, READER_STREAM + r, &model))
        .collect();
    eprintln!(
        "  inputs: table checksum {:016x}, operation list digest {:016x}",
        model.checksum(),
        reader_ops.iter().fold(0, |d, ops| d ^ op_list_digest(ops))
    );
    // Span-id lanes: one per reader, the writer's, and this thread's own
    // for what a traced run does after the measured phase.
    let lanes = readers as u32 + 2;
    let (warm_up, main, slices, mut tracers, write_batches, write_failed, server);
    if spec.served {
        let run = run_served(&db, &reader_ops, &model, &state, clock, args.trace, lanes);
        (warm_up, main, slices, tracers, server) =
            (run.warm_up, run.readers, run.windows, run.tracers, Some(run.server));
        (write_batches, write_failed) = (run.batches, run.write_failed);
    } else {
        let trace = args.trace.then(|| Tracer::new(0, lanes));
        let run = run_serial(&db, &reader_ops[0], &model, &state, args.seconds, clock, trace);
        (warm_up, main, slices, tracers, server) =
            (run.warm_up, run.measured, run.passes, vec![run.tracer], None);
        (write_batches, write_failed) = (Vec::new(), 0);
    }
    let elapsed_s = clock.ns() as f64 / 1e9;
    phase_line("warm-up", warm_up.attempted, warm_up.failed, warm_up.first_error.as_deref());
    phase_line("measured", main.attempted, main.failed, main.first_error.as_deref());
    let written: u64 = write_batches.iter().map(|b| b.rows as u64).sum();
    if spec.served {
        phase_line("writer", written, write_failed, None);
        let late = write_batches.iter().map(|b| b.start_ns - b.due_ns).max().unwrap_or(0);
        eprintln!("  gen.writer_late_us_max = {} us over {} batches", late as f64 / 1e3, write_batches.len());
    }
    let mut attempted = setup_rows + warm_up.attempted + main.attempted + written;
    let mut failed = setup_failed + warm_up.failed + main.failed + write_failed;

    let all = main.timing(|_| true);
    if let Some((p, v)) = highest_percentile(&all.latency_ns) {
        eprintln!(
            "  {} samples in {elapsed_s:.1} s at {:.1} 1/s; highest percentile with 10 samples beyond it: p{p} = {} us",
            all.latency_ns.len(),
            all.qps,
            v as f64 / 1e3
        );
    }

    let mut out = Metrics::default();
    if !args.trace {
        // Timings come from the faster half of the run's slices (passes
        // over the operation list, or merge-cycle windows).
        let kept = main.faster_half(slices);
        let fast = main.timing(|s| kept.contains(&s.slice));
        eprintln!("  timings from slices {kept:?} of {slices}: {} samples", fast.latency_ns.len());
        let pct = |p| {
            percentile(&fast.latency_ns, p).unwrap_or_else(|why| panic!("run too short: {why}")) as f64 / 1e3
        };
        out.set("setup_s", median(&mut setup_s));
        out.set("qps", fast.qps);
        out.set("query_p50_us", pct(50.0));
        out.set("query_p95_us", pct(95.0));
        out.set("modeled_joules_per_query", main.joules_per_query());
        out.set("stored_bytes_per_user_byte", stored_bytes_per_user_byte(&db));
        // Where this workload writes: the concurrent writer's batches,
        // or on a read-only workload every set-up's.
        let written = if spec.served { std::slice::from_ref(&write_batches) } else { &setup_batches[..] };
        out.set("write_us_per_row", write_us_per_row(written));
        out.set("peak_rss_mb", peak_rss_mb());
        report(&metrics::end_to_end(), &out);
        return RunOutput { metrics: out, attempted, failed };
    }

    // --- traced run: the per-layer numbers ----------------------------------
    let mut tracer = Tracer::new(lanes - 1, lanes);
    state.advance(&model, model.rows());

    // sched: the served phase itself, or on a read-only workload one
    // pass of its operation list through a default `QueryServer`.
    let (served_pass, server) = match server {
        Some(server) => (None, server),
        None => {
            let srv = QueryServer::new(Arc::clone(&db), QueryServerConfig::default());
            let mut client = Client::new(Target::Served(&srv), &model, clock, tracer);
            client.traced = true;
            client.pass(&reader_ops[0], &state);
            tracer = client.tracer;
            let pass = client.stats;
            phase_line("served", pass.attempted, pass.failed, pass.first_error.as_deref());
            attempted += pass.attempted;
            failed += pass.failed;
            (Some(pass), srv.stats())
        }
    };
    let sched = served_pass.as_ref().unwrap_or(&main);
    let mut overhead: Vec<f64> = sched.sched_overhead_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    out.set("sched.overhead_us_p50", median(&mut overhead));
    out.set("sched.dop_mean", sched.dop_sum as f64 / sched.answered() as f64);
    out.set("sched.rejected", server.rejected as f64);
    out.set("sched.cancelled", server.cancelled as f64);
    out.set("sched.shed", server.shed as f64);
    out.set("sched.gate_high_water", server.gate_high_water as f64);

    // core/energy per class: from the measured phase for the classes of
    // this workload's mix, from a short census for the others, so every
    // class has a number on every workload's tables.
    let others: Vec<Class> = Class::ALL.into_iter().filter(|c| !spec.pattern.contains(c)).collect();
    let census_ops = op_list(&others, others.len() * CENSUS_OPS, args.seed, CENSUS_STREAM, &model);
    let mut client = Client::new(Target::Direct(&db), &model, clock, tracer);
    client.traced = true;
    client.pass(&census_ops, &state);
    let (census, mut tracer) = (client.stats, client.tracer);
    phase_line("census", census.attempted, census.failed, census.first_error.as_deref());
    attempted += census.attempted;
    failed += census.failed;
    for class in Class::ALL {
        let in_mix = spec.pattern.contains(&class);
        let from = if in_mix { &main } else { &census };
        // Time inside the engine: the client's own span on a direct
        // call, the engine's `wall_time` under the server.
        let mut us: Vec<f64> = from
            .samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| if spec.served && in_mix { s.engine_ns } else { s.latency_ns } as f64 / 1e3)
            .collect();
        let (name, b) = (class.name(), from.billed[class.index()]);
        assert!(b.ops > 0, "no {name} operation was answered");
        out.set(format!("core.execute_us.{name}"), median(&mut us));
        out.set(format!("energy.model_wall_ratio.{name}"), b.modeled_ns as f64 / b.engine_ns as f64);
        out.set(format!("energy.dram_read_bytes.{name}"), b.dram_read_bytes as f64 / b.ops as f64);
        out.set(format!("energy.cpu_cycles.{name}"), b.cpu_cycles as f64 / b.ops as f64);
        eprintln!("  class {name:<22} {:>8} samples", b.ops);
    }
    for (i, path) in PATHS.iter().enumerate() {
        out.set(format!("planner.path_share.{path}"), main.paths[i] as f64 / main.answered() as f64);
    }
    out.set("core.delta_rows_at_query_mean", main.delta_rows_sum as f64 / main.answered() as f64);
    out.set("trace.overhead_share", 1.0 - main.timing(|s| s.traced).qps / main.timing(|s| !s.traced).qps);

    probes::write_path(if spec.served { &write_batches } else { &setup_batches[0] }, &mut out);
    probes::run(&db, &model, clock, &mut tracer, &mut out);
    tracers.push(tracer);

    let defs = metrics::per_layer();
    report(&defs, &out);
    let spans: Vec<Span> = tracers.into_iter().flat_map(|t| t.spans).collect();
    let path = args.trace_out.clone().unwrap_or_else(|| {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        PathBuf::from(target).join("haecbench").join(format!("{}.trace.json", spec.name))
    });
    match write_trace(&path, args, &defs, &out, &spans) {
        Ok(()) => eprintln!("  {} spans written to {}", spans.len(), path.display()),
        Err(e) => panic!("cannot write {}: {e}", path.display()),
    }
    RunOutput { metrics: out, attempted, failed }
}

/// Every metric by name, with its unit, for people.
fn report(defs: &[metrics::MetricDef], out: &Metrics) {
    for d in defs {
        if let Some(v) = out.get(&d.name) {
            eprintln!("  {:<44} {v:>18.6} {}", d.name, d.unit);
        }
    }
}

/// The span file: the per-layer table, self time by span name, then
/// every span, one per line.
fn write_trace(
    path: &std::path::Path,
    args: &RunArgs,
    defs: &[metrics::MetricDef],
    out: &Metrics,
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let layer = defs
        .iter()
        .filter_map(|d| {
            let value = Json::Num(out.get(&d.name)?);
            Some((d.name.clone(), Json::obj([("value", value), ("unit", Json::Str(d.unit.into()))])))
        })
        .collect();
    let self_ns = self_time_by_name(spans)
        .into_iter()
        .map(|(name, ns)| (name.to_string(), Json::Num(ns as f64)))
        .collect();
    writeln!(
        f,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {},",
        args.spec.name, args.seed, args.seconds
    )?;
    writeln!(f, "\"per_layer\": {},", Json::Obj(layer))?;
    writeln!(f, "\"self_time_ns\": {},", Json::Obj(self_ns))?;
    writeln!(f, "\"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        writeln!(f, "{}{}", span_json(s), if i + 1 < spans.len() { "," } else { "" })?;
    }
    writeln!(f, "]}}")?;
    f.flush()
}
