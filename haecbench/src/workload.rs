//! The four workloads and the loops that drive them: a closed-loop
//! client over a fixed operation list, and for `mixed_serve` closed-loop
//! readers through `QueryServer::submit` beside an open-loop writer.

use crate::data::{epoch_and_delta, BatchSample, Clock, Model, BATCH_ROWS};
use crate::ops::{verify, Class, Op, RefState};
use crate::trace::Tracer;
use haec_planner::access::AccessPath;
use haec_sched::qserver::{QueryOpts, QueryServer, QueryServerConfig, ServerStats};
use haecdb::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The writer's pace: one [`BATCH_ROWS`]-row batch every 10 ms
/// (50 K rows/s), whatever the engine does — an open loop.
pub const WRITER_PERIOD_NS: u64 = 10_000_000;

pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Rows of `events` loaded by set-up (`users` is always 16 384).
    pub events_rows: usize,
    /// `create_index(events.user_id, Eager)` after the load.
    pub index: bool,
    /// Readers go through a `QueryServer` beside a writer.
    pub served: bool,
    /// The class mix, cycled in this order.
    pub pattern: &'static [Class],
    /// Operations in the fixed list; one pass takes about a second.
    pub list_len: usize,
}

use Class::*;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "scan_agg",
        why:
            "Kernel-bound: filters and aggregates over all 2 M compressed rows, where scan/iter kernels and \
              morsel dispatch are nearly all the time and per-query overhead is noise.",
        events_rows: 2_000_000,
        index: false,
        served: false,
        pattern: &[SumAll, CountInt, SumRleFilter, CountStrEq, MaxPlainFilter, GroupStr],
        list_len: 60,
    },
    Spec {
        name: "point_range",
        why: "Overhead-bound: point, small-range, index and zone-answered lookups touch a few KB each, so \
              snapshot pin, planning and result building are the latency and kernels are a sliver.",
        events_rows: 2_000_000,
        index: true,
        served: false,
        pattern: &[Point, RangeSmall, Point, IndexEq, Point, ZoneMin, Point, RangeSmall, Point, RangeSum],
        list_len: 10_000,
    },
    Spec {
        name: "join_project",
        why:
            "Join/gather-bound: hash build and probe, random-access gathers and string projection dominate, \
              not predicate kernels; the path where modeled and wall time drift most.",
        events_rows: 1_000_000,
        index: false,
        served: false,
        // `project_sparse` twice per cycle: with four equal shares the
        // median of the mix sits on the cliff between two classes and
        // flips from run to run; this puts it inside a class.
        pattern: &[JoinIntFiltered, ProjectSparse, JoinStrFiltered, ProjectMultiFilter, ProjectSparse],
        list_len: 40,
    },
    Spec {
        name: "mixed_serve",
        why:
            "Writes beside reads: closed-loop readers through QueryServer while an open-loop writer inserts \
              50 K rows/s and triggers merges, so ingest, merge, delta-tail scans and admission all show.",
        events_rows: 1_000_000,
        index: false,
        served: true,
        pattern: &[
            Point,
            CountInt,
            Point,
            GroupStr,
            Point,
            CountInt,
            Point,
            RangeSum,
            Point,
            JoinIntFiltered,
        ],
        list_len: 200,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Rows the `mixed_serve` writer appends in a run of `seconds`.
pub fn writer_rows(spec: &Spec, seconds: u64) -> usize {
    if spec.served {
        (seconds * 1_000_000_000 / WRITER_PERIOD_NS) as usize * BATCH_ROWS
    } else {
        0
    }
}

/// Generator threads beside the writer: `min(nproc, 4) − 1`, at least
/// one. The default pool has one worker per hardware thread, so its
/// width is `nproc` without asking the OS again.
pub fn reader_count() -> usize {
    (WorkerPool::global().workers().min(4) - 1).max(1)
}

/// Where a client sends its queries.
pub enum Target<'a> {
    Direct(&'a Database),
    Served(&'a QueryServer),
}

pub struct Answer {
    pub result: QueryResult,
    /// The parallelism the server granted, for served queries.
    pub dop: Option<usize>,
}

impl Target<'_> {
    /// Name of the span around [`Target::call`].
    pub fn span(&self) -> &'static str {
        match self {
            Target::Direct(_) => "core.execute",
            Target::Served(_) => "sched.submit",
        }
    }

    pub fn call(&self, op: &Op) -> Result<Answer, String> {
        match self {
            Target::Direct(db) => {
                db.execute(&op.query).map(|result| Answer { result, dop: None }).map_err(|e| e.to_string())
            }
            Target::Served(srv) => srv
                .submit(&op.query, &QueryOpts::default())
                .map(|s| Answer { dop: Some(s.dop), result: s.result })
                .map_err(|e| e.to_string()),
        }
    }
}

/// One answered-and-checked operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub class: Class,
    /// The slice of the run the operation was submitted in: a pass over
    /// the operation list, or on `mixed_serve` a merge-cycle window.
    pub slice: u32,
    /// Spans were being recorded.
    pub traced: bool,
    /// Client-observed latency.
    pub latency_ns: u64,
    /// `QueryResult::wall_time`: the engine's own clock, which excludes
    /// the server on served runs.
    pub engine_ns: u64,
}

/// Per-class sums of what the engine billed, over answered operations.
#[derive(Clone, Copy, Debug, Default)]
pub struct Billed {
    pub ops: u64,
    pub modeled_ns: u64,
    pub engine_ns: u64,
    /// `QueryResult::energy` in whole picojoules: integer sums do not
    /// depend on how many passes a run's seconds allowed, so the mean
    /// per query repeats to the last bit.
    pub picojoules: u64,
    pub dram_read_bytes: u64,
    pub cpu_cycles: u64,
}

/// Everything one phase of a run observed.
#[derive(Clone, Debug)]
pub struct PhaseStats {
    pub samples: Vec<Sample>,
    /// Indexed by `Class::index`.
    pub billed: [Billed; Class::COUNT],
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Answers by access path: zone binary search, index lookup, full
    /// scan (which includes answers that report no path).
    pub paths: [u64; 3],
    pub clients: u64,
    /// Served runs: client latency − engine wall time, and granted dop.
    pub sched_overhead_ns: Vec<u64>,
    pub dop_sum: u64,
    /// Sum over operations of the delta rows last published by the
    /// writer when the operation was submitted.
    pub delta_rows_sum: u64,
}

/// Throughput and latencies over some of a phase's samples.
pub struct Timing {
    /// Operations ÷ mean per-client time inside calls.
    pub qps: f64,
    /// Ascending.
    pub latency_ns: Vec<u64>,
}

impl PhaseStats {
    pub fn new() -> PhaseStats {
        PhaseStats {
            samples: Vec::new(),
            billed: [Billed::default(); Class::COUNT],
            attempted: 0,
            failed: 0,
            first_error: None,
            paths: [0; 3],
            clients: 1,
            sched_overhead_ns: Vec::new(),
            dop_sum: 0,
            delta_rows_sum: 0,
        }
    }

    pub fn answered(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Modeled joules per answered query: each query's own estimate,
    /// never a meter delta.
    pub fn joules_per_query(&self) -> f64 {
        let pj: u64 = self.billed.iter().map(|b| b.picojoules).sum();
        pj as f64 / self.answered() as f64 / 1e12
    }

    pub fn timing(&self, keep: impl Fn(&Sample) -> bool) -> Timing {
        let mut latency_ns: Vec<u64> =
            self.samples.iter().filter(|s| keep(s)).map(|s| s.latency_ns).collect();
        latency_ns.sort_unstable();
        let busy_s = latency_ns.iter().sum::<u64>() as f64 / 1e9;
        Timing { qps: latency_ns.len() as f64 * self.clients as f64 / busy_s, latency_ns }
    }

    /// The faster half of slices `0..slices` (rounded up), by operations
    /// per time inside calls. Every slice does the same work — the same
    /// operation list, or one merge cycle of the same writer — and host
    /// noise only ever slows a slice down, so the faster half is the
    /// run as the engine performs when the host leaves it alone.
    pub fn faster_half(&self, slices: u32) -> Vec<u32> {
        let mut busy = vec![(0u64, 0u64); slices as usize];
        for s in self.samples.iter().filter(|s| s.slice < slices) {
            busy[s.slice as usize].0 += s.latency_ns;
            busy[s.slice as usize].1 += 1;
        }
        let mut order: Vec<u32> = (0..slices).filter(|&i| busy[i as usize].1 > 0).collect();
        // ns per operation, ascending (compared as cross products).
        order.sort_by(|&a, &b| {
            let ((ta, na), (tb, nb)) = (busy[a as usize], busy[b as usize]);
            (ta as u128 * nb as u128).cmp(&(tb as u128 * na as u128))
        });
        order.truncate(order.len().div_ceil(2));
        order
    }

    fn fail(&mut self, op: &Op, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert_with(|| format!("{} (arg {}): {why}", op.class.name(), op.arg));
    }

    /// Concurrent clients' stats into one.
    pub fn merge(&mut self, other: PhaseStats) {
        self.samples.extend(other.samples);
        for (mine, theirs) in self.billed.iter_mut().zip(other.billed) {
            mine.ops += theirs.ops;
            mine.modeled_ns += theirs.modeled_ns;
            mine.engine_ns += theirs.engine_ns;
            mine.picojoules += theirs.picojoules;
            mine.dram_read_bytes += theirs.dram_read_bytes;
            mine.cpu_cycles += theirs.cpu_cycles;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_error = self.first_error.take().or(other.first_error);
        for i in 0..3 {
            self.paths[i] += other.paths[i];
        }
        self.clients += other.clients;
        self.sched_overhead_ns.extend(other.sched_overhead_ns);
        self.dop_sum += other.dop_sum;
        self.delta_rows_sum += other.delta_rows_sum;
    }
}

/// One client: sends operations, times them from outside, checks every
/// answer outside the timed interval, and records spans when asked.
pub struct Client<'a> {
    target: Target<'a>,
    model: &'a Model,
    pub clock: Clock,
    pub stats: PhaseStats,
    pub tracer: Tracer,
    /// Slice the next operations belong to, and whether their spans are
    /// recorded.
    pub slice: u32,
    pub traced: bool,
}

impl<'a> Client<'a> {
    pub fn new(target: Target<'a>, model: &'a Model, clock: Clock, tracer: Tracer) -> Client<'a> {
        Client { target, model, clock, stats: PhaseStats::new(), tracer, slice: 0, traced: false }
    }

    /// Sends one operation and times the call from outside.
    pub fn call(&mut self, op: &Op) -> (u64, u64, Result<Answer, String>) {
        self.stats.attempted += 1;
        let t0 = self.clock.ns();
        let answer = self.target.call(op);
        (t0, self.clock.ns(), answer)
    }

    /// Checks and records a timed call, outside its timed interval. The
    /// answer must hold for some row prefix between `lo` (the reference
    /// at submit) and `hi` (at return); they are the same state when no
    /// writer runs.
    pub fn finish(
        &mut self,
        op: &Op,
        (t0, t1, answer): (u64, u64, Result<Answer, String>),
        (lo, hi): (&RefState, &RefState),
        delta_rows: usize,
    ) {
        match answer {
            Err(why) => self.stats.fail(op, why),
            Ok(answer) => match verify(op, &answer.result, self.model, lo, hi) {
                Err(why) => self.stats.fail(op, why),
                Ok(()) => self.record(op, &answer, t1 - t0, delta_rows),
            },
        }
        if self.traced {
            let span = self.target.span();
            self.tracer.group(op.class.op_span(), (t0, self.clock.ns()), span, &[(t0, t1)]);
        }
    }

    fn record(&mut self, op: &Op, answer: &Answer, latency_ns: u64, delta_rows: usize) {
        let res = &answer.result;
        let engine_ns = res.wall_time.as_nanos() as u64;
        self.stats.samples.push(Sample {
            class: op.class,
            slice: self.slice,
            traced: self.traced,
            latency_ns,
            engine_ns,
        });
        let b = &mut self.stats.billed[op.class.index()];
        b.ops += 1;
        b.modeled_ns += res.modeled_time.as_nanos() as u64;
        b.engine_ns += engine_ns;
        b.picojoules += (res.energy.joules() * 1e12).round() as u64;
        b.dram_read_bytes += res.profile.dram_read.bytes();
        b.cpu_cycles += res.profile.cpu_cycles.count();
        let path = match res.access_path {
            Some(AccessPath::ZoneBinarySearch) => 0,
            Some(AccessPath::IndexLookup) => 1,
            Some(AccessPath::FullScan) | None => 2,
        };
        self.stats.paths[path] += 1;
        self.stats.delta_rows_sum += delta_rows as u64;
        if let Some(dop) = answer.dop {
            self.stats.sched_overhead_ns.push(latency_ns.saturating_sub(engine_ns));
            self.stats.dop_sum += dop as u64;
        }
    }

    /// One pass over `ops` against a table nobody writes to.
    pub fn pass(&mut self, ops: &[Op], state: &RefState) {
        for op in ops {
            let timed = self.call(op);
            self.finish(op, timed, (state, state), 0);
        }
    }
}

pub struct SerialRun {
    pub warm_up: PhaseStats,
    pub measured: PhaseStats,
    pub tracer: Tracer,
    /// Passes in the measured phase; pass `i` is slice `i`.
    pub passes: u32,
}

/// The closed-loop run of a read-only workload: one untimed warm-up
/// pass, then whole passes until `seconds` have gone by, so every pass
/// executes the same operations and billed counts repeat exactly. With
/// `trace`, every second pass records spans; the two kinds of pass give
/// the tracing overhead.
pub fn run_serial(
    db: &Database,
    ops: &[Op],
    model: &Model,
    state: &RefState,
    seconds: u64,
    clock: Clock,
    trace: Option<Tracer>,
) -> SerialRun {
    let (trace, tracer) = (trace.is_some(), trace.unwrap_or(Tracer::new(0, 1)));
    let mut client = Client::new(Target::Direct(db), model, clock, tracer);
    client.pass(ops, state);
    let warm_up = std::mem::replace(&mut client.stats, PhaseStats::new());
    let begin = clock.ns();
    while clock.ns() - begin < seconds * 1_000_000_000 {
        client.traced = trace && client.slice % 2 == 1;
        client.pass(ops, state);
        client.slice += 1;
    }
    SerialRun { warm_up, measured: client.stats, tracer: client.tracer, passes: client.slice }
}

pub struct ServedRun {
    pub warm_up: PhaseStats,
    pub readers: PhaseStats,
    pub tracers: Vec<Tracer>,
    pub batches: Vec<BatchSample>,
    pub write_failed: u64,
    pub server: ServerStats,
    /// Whole merge-cycle windows in the run; a reader's operation is in
    /// the window (slice) it was submitted in.
    pub windows: u32,
}

/// Insert batches per merge cycle at the default threshold: every
/// window of this many batches holds one auto-merge.
pub const CYCLE_BATCHES: usize = SEGMENT_ROWS / BATCH_ROWS;

/// What the writer publishes for the readers' prefix checks: rows
/// whose insert has begun and rows whose insert has returned. A query
/// submitted after `done = a` and answered before `begun = b` saw the
/// preload plus the first `k` writer rows for some `a ≤ k ≤ b`.
#[derive(Default)]
struct Progress {
    begun: AtomicUsize,
    done: AtomicUsize,
    /// Visible delta rows after the last batch (traced runs only).
    delta_rows: AtomicUsize,
    finished: AtomicBool,
}

/// `mixed_serve`: readers cycle their own operation lists through the
/// server until the writer's last batch lands.
pub fn run_served(
    db: &Arc<Database>,
    reader_ops: &[Vec<Op>],
    model: &Model,
    preloaded: &RefState,
    clock: Clock,
    trace: bool,
    lanes: u32,
) -> ServedRun {
    let srv = QueryServer::new(Arc::clone(db), QueryServerConfig::default());

    let mut warm = Client::new(Target::Served(&srv), model, clock, Tracer::new(0, lanes));
    warm.pass(&reader_ops[0], preloaded);
    let warm_up = warm.stats;

    let progress = Progress::default();
    let begin = clock.ns();
    let mut write_tracer = Tracer::new(reader_ops.len() as u32, lanes);
    // haec-lint: allow(no-thread-spawn) — load generator: the clients and the writer are the benchmark's own threads, not query execution
    let (readers, batches, write_failed) = std::thread::scope(|scope| {
        let handles: Vec<_> = reader_ops
            .iter()
            .enumerate()
            .map(|(lane, ops)| {
                let client = Client::new(Target::Served(&srv), model, clock, Tracer::new(lane as u32, lanes));
                let progress = &progress;
                scope.spawn(move || read_loop(client, ops, preloaded, trace, progress, begin))
            })
            .collect();
        let (batches, write_failed) =
            write_loop(db, model, clock, begin, &progress, trace.then_some(&mut write_tracer));
        progress.finished.store(true, Ordering::SeqCst);
        let readers: Vec<_> = handles.into_iter().map(|h| h.join().expect("reader panicked")).collect();
        (readers, batches, write_failed)
    });
    let mut stats = PhaseStats::new();
    stats.clients = 0;
    let mut tracers = vec![write_tracer];
    for (reader, tracer) in readers {
        stats.merge(reader);
        tracers.push(tracer);
    }
    let windows = (batches.len() / CYCLE_BATCHES) as u32;
    ServedRun { warm_up, readers: stats, tracers, batches, write_failed, server: srv.stats(), windows }
}

fn read_loop(
    mut client: Client<'_>,
    ops: &[Op],
    preloaded: &RefState,
    trace: bool,
    progress: &Progress,
    begin: u64,
) -> (PhaseStats, Tracer) {
    // Two cursors over the writer's rows: the reference state at the
    // last submit and at the last return. Both only move forward.
    let model = client.model;
    let mut lo = preloaded.clone();
    let mut hi = preloaded.clone();
    let mut pass = 0u64;
    'run: loop {
        client.traced = trace && pass % 2 == 1;
        for op in ops {
            if progress.finished.load(Ordering::SeqCst) {
                break 'run;
            }
            lo.advance(model, model.preload + progress.done.load(Ordering::SeqCst));
            let delta_rows = progress.delta_rows.load(Ordering::Relaxed);
            client.slice =
                (client.clock.ns().saturating_sub(begin) / (CYCLE_BATCHES as u64 * WRITER_PERIOD_NS)) as u32;
            let timed = client.call(op);
            hi.advance(model, model.preload + progress.begun.load(Ordering::SeqCst));
            client.finish(op, timed, (&lo, &hi), delta_rows);
        }
        pass += 1;
    }
    (client.stats, client.tracer)
}

/// The open-loop writer: a batch is due every [`WRITER_PERIOD_NS`]
/// whether or not the previous one is done, and is timed from when it
/// was due, so a stall shows in the batches behind it.
fn write_loop(
    db: &Database,
    model: &Model,
    clock: Clock,
    begin: u64,
    progress: &Progress,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<BatchSample>, u64) {
    let batches = (model.rows() - model.preload) / BATCH_ROWS;
    let mut samples = Vec::with_capacity(batches);
    let mut failed = 0u64;
    let mut epoch = tracer.is_some().then(|| epoch_and_delta(db).0);
    let mut records = Vec::with_capacity(BATCH_ROWS);
    for b in 0..batches {
        let first = model.preload + b * BATCH_ROWS;
        records.clear();
        records.extend((first..first + BATCH_ROWS).map(|row| model.event(row)));
        let due_ns = begin + b as u64 * WRITER_PERIOD_NS;
        if let Some(wait) = due_ns.checked_sub(clock.ns()) {
            std::thread::sleep(Duration::from_nanos(wait));
        }
        let start_ns = clock.ns();
        for (i, rec) in records.iter().enumerate() {
            let k = b * BATCH_ROWS + i;
            progress.begun.store(k + 1, Ordering::SeqCst);
            failed += db.insert("events", rec).is_err() as u64;
            progress.done.store(k + 1, Ordering::SeqCst);
        }
        let end_ns = clock.ns();
        let mut merged = false;
        if let Some(epoch) = epoch.as_mut() {
            let (now, delta_rows) = epoch_and_delta(db);
            merged = std::mem::replace(epoch, now) != now;
            progress.delta_rows.store(delta_rows, Ordering::Relaxed);
        }
        samples.push(BatchSample { rows: BATCH_ROWS, due_ns, start_ns, end_ns, merged });
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.group("op.write_batch", (due_ns, end_ns), "core.insert", &[(start_ns, end_ns)]);
        }
    }
    (samples, failed)
}
