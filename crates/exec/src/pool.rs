//! The shared worker pool: persistent OS threads executing morsel jobs
//! from every concurrent query.
//!
//! Morsel jobs used to spawn a fresh `crossbeam::scope` per call —
//! every query paid thread creation and teardown, and two concurrent
//! queries each brought their own private threads, oversubscribing the
//! machine instead of sharing it. This
//! module replaces that with the morsel-driven design of Leis et al.
//! (the HANA-side grounding the paper leans on): a fixed set of workers
//! created **once**, a shared injector queue of *unit tasks*, and
//! per-query [`MorselDispenser`]s.
//!
//! A query submits its job as `dop − 1` unit tasks (its *parallelism
//! grant*) and drains the dispenser inline on its own thread (the
//! caller-runs policy: a query always makes progress even when every
//! worker is busy, and a worker that submits a nested job can never
//! deadlock). Each unit task attaches to the job's dispenser and pulls
//! morsels until the domain is exhausted — an idle worker popping the
//! queue attaches to *whatever query* is next, which is exactly
//! "idle workers steal across queries".
//!
//! Scheduling knobs surface as data, not policy, so the energy governor
//! can drive them (see `haec-sched`):
//!
//! * the **grant** (`dop`) bounds how many workers may serve one query;
//! * a [`MorselGate`] bounds how many morsels may be **in flight across
//!   all queries** — the fleet-wide throttle an
//!   energy-cap governor maps a power budget onto.
//!
//! # Safety model
//!
//! Unit tasks reference the submitting call's stack frame (the closure,
//! the dispenser, the result vector), erased to a raw pointer so the
//! long-lived workers can hold them. Soundness comes from the
//! `JobToken` start/finish protocol: a worker marks a task *started*
//! under the token lock before touching the job, and the submitting
//! call, before returning (or unwinding), marks the token *cancelled*
//! and waits until every started task has finished. A task popped after
//! cancellation observes the flag under the same lock and never
//! dereferences the job pointer. This is the same scheme rayon uses for
//! scoped jobs on a persistent pool.

use crate::cancel::CancelToken;
use crate::morsel::{Morsel, MorselDispenser, DEFAULT_MORSEL_ROWS};
use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::thread::{self, JoinHandle};
use crate::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Locks a mutex, recovering the guard if a panicking thread poisoned
/// it (the pool must stay serviceable after a job panics).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// MorselGate: the fleet-wide in-flight morsel budget
// ---------------------------------------------------------------------

/// A counting gate on concurrently in-flight morsels, shared by every
/// query of a server ("fleet-wide").
///
/// Each unit — pool worker or caller-inline — acquires one permit
/// before taking a morsel from its dispenser and releases it after
/// processing, so `inflight` is exactly the number of morsels being
/// executed this instant. [`MorselGate::acquire`] blocks while the
/// budget is exhausted: this is the mechanism an
/// [`EnergyCap`](https://en.wikipedia.org/wiki/Power_capping)-style
/// governor uses to hold a power budget — fewer concurrent morsel
/// streams, graceful throughput degradation, never an over-budget
/// burst. The high-water mark makes the claim checkable: it records the
/// maximum concurrency the gate ever granted.
pub struct MorselGate {
    inner: Mutex<GateInner>,
    cv: Condvar,
    high_water: AtomicUsize,
}

struct GateInner {
    inflight: usize,
    budget: usize,
}

impl MorselGate {
    /// Creates a gate allowing `budget` concurrent morsels.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero (a zero budget would deadlock every
    /// query instead of degrading gracefully).
    pub fn new(budget: usize) -> Arc<MorselGate> {
        assert!(budget > 0, "morsel budget must be positive");
        Arc::new(MorselGate {
            inner: Mutex::new(GateInner { inflight: 0, budget }),
            cv: Condvar::new(),
            high_water: AtomicUsize::new(0),
        })
    }

    /// Blocks until a permit is free, then claims it. Permits release
    /// on drop.
    pub fn acquire(&self) -> MorselPermit<'_> {
        let mut g = lock(&self.inner);
        while g.inflight >= g.budget {
            g = self.cv.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        g.inflight += 1;
        self.high_water.fetch_max(g.inflight, Ordering::Relaxed);
        MorselPermit { gate: self }
    }

    /// Re-targets the budget (the governor recomputes it as load and
    /// estimates move). Raising it wakes blocked units; lowering it
    /// never revokes permits already out — the budget binds as running
    /// morsels drain.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn set_budget(&self, budget: usize) {
        assert!(budget > 0, "morsel budget must be positive");
        lock(&self.inner).budget = budget;
        self.cv.notify_all();
    }

    /// The current budget.
    pub fn budget(&self) -> usize {
        lock(&self.inner).budget
    }

    /// Morsels in flight right now.
    pub fn inflight(&self) -> usize {
        lock(&self.inner).inflight
    }

    /// The most morsels ever concurrently in flight — the observable
    /// the energy-cap acceptance gate checks against the budget.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for MorselGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = lock(&self.inner);
        f.debug_struct("MorselGate")
            .field("inflight", &g.inflight)
            .field("budget", &g.budget)
            .field("high_water", &self.high_water())
            .finish()
    }
}

/// An acquired in-flight slot; releases on drop.
#[derive(Debug)]
pub struct MorselPermit<'a> {
    gate: &'a MorselGate,
}

impl Drop for MorselPermit<'_> {
    fn drop(&mut self) {
        lock(&self.gate.inner).inflight -= 1;
        self.gate.cv.notify_one();
    }
}

// ---------------------------------------------------------------------
// Per-query execution options
// ---------------------------------------------------------------------

/// Per-query execution knobs: the surface the query server's governor
/// grant travels through to reach the engine.
#[derive(Clone, Debug)]
pub struct ExecOpts {
    /// Degree of parallelism: how many units (caller + pool workers)
    /// may serve this query. `0` means "engine default" (the pool
    /// width, capped by the machine model); an explicit value also opts
    /// the query into pooled dispatch regardless of table size.
    pub dop: usize,
    /// Target morsel size in rows. An execution unit is a store the
    /// storage layer defines — a compressed main segment or a delta
    /// chunk, both atomic — so this only decides, above one segment's
    /// worth of rows, how many units are batched per dispenser grab.
    /// Smaller morsels interleave concurrent queries more fairly under
    /// contention; larger ones amortize dispatch.
    pub morsel_rows: usize,
    /// Fleet-wide in-flight morsel budget this query must respect,
    /// shared with every other query admitted by the same server.
    pub gate: Option<Arc<MorselGate>>,
    /// Cooperative cancel/deadline signal, polled at every morsel
    /// boundary; `None` means the query runs to completion.
    pub cancel: Option<CancelToken>,
}

impl Default for ExecOpts {
    fn default() -> Self {
        ExecOpts { dop: 0, morsel_rows: DEFAULT_MORSEL_ROWS, gate: None, cancel: None }
    }
}

impl ExecOpts {
    /// Options with an explicit parallelism grant.
    pub fn with_dop(dop: usize) -> Self {
        ExecOpts { dop, ..ExecOpts::default() }
    }

    /// Whether this query has been cancelled (explicitly or by
    /// deadline).
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// Resolved per-job knobs handed to [`WorkerPool::run`]: unlike
/// [`ExecOpts`] (the engine-facing surface, where `dop: 0` means
/// "default" and the gate is owned), every field here is literal and
/// the gate is borrowed for the duration of the job.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec<'a> {
    /// Units working the job: the calling thread plus up to `dop − 1`
    /// pool workers. Must be at least 1.
    pub dop: usize,
    /// Rows per morsel grab.
    pub morsel_rows: usize,
    /// Fleet-wide in-flight morsel gate every unit must hold a permit
    /// from, if any.
    pub gate: Option<&'a MorselGate>,
    /// Cancel/deadline signal every unit polls between morsels, if any.
    pub cancel: Option<&'a CancelToken>,
}

impl RunSpec<'_> {
    /// An ungated spec.
    pub fn new(dop: usize, morsel_rows: usize) -> RunSpec<'static> {
        RunSpec { dop, morsel_rows, gate: None, cancel: None }
    }
}

// ---------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------

/// A persistent pool of worker threads executing unit tasks from all
/// queries (see the module docs for the design).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    /// OS threads ever created by this pool — the structural
    /// "zero thread creation per query after warmup" gate reads this.
    threads_spawned: AtomicUsize,
}

struct PoolShared {
    queue: Mutex<VecDeque<Task>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

/// A type-erased unit task: "attach to this job's dispenser and drain".
///
/// `job` points into the submitting call's stack frame; it is only
/// dereferenced after winning the started/cancelled race on `token`
/// (see the module-level safety model).
struct Task {
    job: *const (),
    // SAFETY: callers of this fn pointer must pass a `job` pointing to
    // the live `JobShared` instantiation it was monomorphized for —
    // upheld because both fields are only ever set together (in `run`)
    // and only invoked after winning `JobToken::try_start`.
    run: unsafe fn(*const ()),
    token: Arc<JobToken>,
}

// SAFETY: the raw job pointer crosses threads, but every dereference is
// guarded by the JobToken protocol — the pointee is alive whenever a
// task that won `try_start` runs, and the pointee's fields are shared
// safely (`W: Sync`, `M: Sync`, dispenser and results are themselves
// thread-safe; see `JobShared`).
unsafe impl Send for Task {}

/// The started/finished/cancelled handshake between one submitted job
/// and the workers that may pick its unit tasks up.
struct JobToken {
    state: Mutex<TokenState>,
    cv: Condvar,
    /// Set when a unit panicked: sibling units stop taking new morsels
    /// (checked lock-free between morsels).
    aborted: AtomicBool,
}

struct TokenState {
    cancelled: bool,
    started: usize,
    finished: usize,
    panic: Option<Box<dyn Any + Send + 'static>>,
}

impl JobToken {
    fn new() -> Arc<JobToken> {
        Arc::new(JobToken {
            state: Mutex::new(TokenState { cancelled: false, started: 0, finished: 0, panic: None }),
            cv: Condvar::new(),
            aborted: AtomicBool::new(false),
        })
    }

    /// Worker side: try to transition a popped task to *started*.
    /// Returns `false` when the job was cancelled — the task must then
    /// drop without touching the job pointer.
    fn try_start(&self) -> bool {
        let mut st = lock(&self.state);
        if st.cancelled {
            return false;
        }
        st.started += 1;
        true
    }

    /// Worker side: record one unit done (with its panic payload, if
    /// any) and wake the submitter.
    fn finish(&self, panic: Option<Box<dyn Any + Send + 'static>>) {
        let mut st = lock(&self.state);
        if let Some(p) = panic {
            self.aborted.store(true, Ordering::Relaxed);
            st.cancelled = true;
            if st.panic.is_none() {
                st.panic = Some(p);
            }
        }
        st.finished += 1;
        self.cv.notify_all();
    }

    /// Submitter side: bar new starts, wait out in-flight units, and
    /// collect any panic. After this returns, no worker holds or will
    /// ever again dereference the job pointer.
    fn cancel_and_wait(&self) -> Option<Box<dyn Any + Send + 'static>> {
        let mut st = lock(&self.state);
        st.cancelled = true;
        while st.started > st.finished {
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.panic.take()
    }
}

/// One submitted job: the dispenser all its units share, the borrowed
/// work/merge closures, and the partial-result sink.
struct JobShared<'a, T, W, M> {
    dispenser: MorselDispenser,
    work: &'a W,
    merge: &'a M,
    gate: Option<&'a MorselGate>,
    cancel: Option<&'a CancelToken>,
    results: Mutex<Vec<T>>,
    token: Arc<JobToken>,
}

impl<T, W, M> JobShared<'_, T, W, M>
where
    T: Send,
    W: Fn(Morsel) -> T + Sync,
    M: Fn(T, T) -> T + Send + Sync,
{
    /// One unit's drain loop: acquire a gate permit (when capped), pull
    /// a morsel, fold it in; stop when the domain is exhausted, a
    /// sibling unit panicked, or the query's cancel token fired (the
    /// "within one morsel" cancellation latency bound). Each permit
    /// covers exactly one in-flight morsel, so a cancelled unit can
    /// never leave a permit behind.
    fn run_unit(&self) {
        let mut acc: Option<T> = None;
        loop {
            if self.token.aborted.load(Ordering::Relaxed) {
                break;
            }
            if self.cancel.is_some_and(CancelToken::is_cancelled) {
                break;
            }
            fail::fail_point!("pool::dispatch");
            let _permit = self.gate.map(MorselGate::acquire);
            let Some(m) = self.dispenser.next_morsel() else { break };
            let v = (self.work)(m);
            acc = Some(match acc {
                None => v,
                Some(a) => (self.merge)(a, v),
            });
        }
        if let Some(a) = acc {
            lock(&self.results).push(a);
        }
    }
}

/// Monomorphized entry point a [`Task`] carries as a plain fn pointer.
///
/// # Safety
///
/// `p` must point to a live `JobShared<T, W, M>` — guaranteed by the
/// token protocol (only reached via a won [`JobToken::try_start`]).
unsafe fn run_trampoline<T, W, M>(p: *const ())
where
    T: Send,
    W: Fn(Morsel) -> T + Sync,
    M: Fn(T, T) -> T + Send + Sync,
{
    // SAFETY: per this fn's contract `p` is a live `JobShared<T, W, M>`;
    // the shared reference lives only for this call, during which the
    // submitter is parked in `cancel_and_wait` (or still draining) and
    // cannot move or free the pointee.
    let job = unsafe { &*(p as *const JobShared<'_, T, W, M>) };
    job.run_unit();
}

impl WorkerPool {
    /// Creates a pool with `workers` persistent threads. All worker
    /// threads exist after this returns; the pool never creates another
    /// ([`WorkerPool::threads_spawned`] is the proof).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> WorkerPool {
        assert!(workers > 0, "need at least one worker");
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let spawned = AtomicUsize::new(0);
        let handles = (0..workers)
            .map(|i| {
                spawned.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("haec-worker-{i}"))
                    .spawn(move || worker_main(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles, workers, threads_spawned: spawned }
    }

    /// The process-wide pool every database shares by default, sized
    /// once from the hardware (so the engine never asks
    /// `available_parallelism` per query again).
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            Arc::new(WorkerPool::new(std::thread::available_parallelism().map_or(1, |n| n.get())))
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// OS threads this pool has ever created. Constant after
    /// construction — experiments assert it across a whole query sweep
    /// to prove queries stopped paying thread creation.
    pub fn threads_spawned(&self) -> usize {
        self.threads_spawned.load(Ordering::Relaxed)
    }

    /// Unit tasks currently queued (not yet picked up) — the injector
    /// depth, an admission-control signal.
    pub fn queued_tasks(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Runs `work` over all morsels of a `total`-row domain with up to
    /// `spec.dop` units (this thread plus `dop − 1` pool workers);
    /// per-unit partials combine with `merge` in unspecified order
    /// (`merge` must be commutative and associative, with `zero` as
    /// identity).
    ///
    /// The calling thread always participates (caller-runs), so the
    /// job completes even on a saturated pool, and a worker submitting
    /// a nested job cannot deadlock. When `spec.gate` is given, every
    /// unit holds one permit per in-flight morsel.
    ///
    /// # Panics
    ///
    /// Panics if `spec.dop` is zero, and re-raises the payload if any
    /// unit's `work` panicked (sibling units stop at the next morsel
    /// boundary; the pool itself survives).
    pub fn run<T, W, M>(&self, total: usize, spec: RunSpec<'_>, work: W, merge: M, zero: T) -> T
    where
        T: Send,
        W: Fn(Morsel) -> T + Sync,
        M: Fn(T, T) -> T + Send + Sync,
    {
        assert!(spec.dop > 0, "need at least one thread");
        if total == 0 {
            return zero;
        }
        let token = JobToken::new();
        let job = JobShared {
            dispenser: MorselDispenser::with_morsel_rows(total, spec.morsel_rows.max(1)),
            work: &work,
            merge: &merge,
            gate: spec.gate,
            cancel: spec.cancel,
            results: Mutex::new(Vec::new()),
            token: Arc::clone(&token),
        };
        // More units than workers (beyond the caller's own) can never
        // run; don't queue tasks that could only ever no-op.
        let helpers = (spec.dop - 1).min(self.workers);
        if helpers > 0 {
            // SAFETY: the cast only erases the generic instantiation;
            // every task queued below pairs this fn with a pointer to
            // `job`, which is exactly the `JobShared<T, W, M>` the
            // trampoline's contract requires.
            let run = run_trampoline::<T, W, M> as unsafe fn(*const ());
            let jobp = (&raw const job).cast::<()>();
            let mut q = lock(&self.shared.queue);
            for _ in 0..helpers {
                q.push_back(Task { job: jobp, run, token: Arc::clone(&token) });
            }
            drop(q);
            self.shared.cv.notify_all();
        }
        // Caller-runs: drain inline, then settle the helpers. The
        // cancel/wait MUST happen before this frame unwinds — helpers
        // borrow `job` — so the inline panic is caught and re-raised
        // only after the token settles.
        let inline = catch_unwind(AssertUnwindSafe(|| job.run_unit()));
        let helper_panic = token.cancel_and_wait();
        if let Err(p) = inline {
            resume_unwind(p);
        }
        if let Some(p) = helper_panic {
            resume_unwind(p);
        }
        let parts = job.results.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
        parts.into_iter().fold(zero, merge)
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("queued_tasks", &self.queued_tasks())
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Set under the queue lock: a worker between its shutdown check
        // and its wait would otherwise miss the wakeup and never exit.
        let queue = lock(&self.shared.queue);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(queue);
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            // A worker that panicked outside a job already poisoned
            // nothing we rely on; shutdown still completes.
            let _ = h.join();
        }
    }
}

/// The worker loop: sleep on the injector, pop a unit task, run it
/// under the token handshake. A panic inside a unit is caught and
/// reported through the token — the worker thread itself never dies.
fn worker_main(shared: &PoolShared) {
    loop {
        let task = {
            let mut q = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(t) = q.pop_front() {
                    break t;
                }
                q = shared.cv.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        if task.token.try_start() {
            // The failpoint sits inside the catch so an injected pickup
            // panic travels the same recovery path as a unit panic.
            let r = catch_unwind(AssertUnwindSafe(|| {
                fail::fail_point!("pool::pickup");
                // SAFETY: `try_start` won, so the submitter is still
                // inside `run` and `job` is alive until we report
                // `finish`.
                unsafe { (task.run)(task.job) }
            }));
            task.token.finish(r.err());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pooled_sum_matches_serial() {
        let pool = WorkerPool::new(4);
        let data: Vec<i64> = (0..1_000_000).collect();
        let expected: i64 = data.iter().sum();
        for dop in [1, 2, 4, 9] {
            let sum = pool.run(
                data.len(),
                RunSpec::new(dop, 4096),
                |m: Morsel| data[m.start..m.end].iter().sum::<i64>(),
                |a, b| a + b,
                0i64,
            );
            assert_eq!(sum, expected, "dop={dop}");
        }
        assert_eq!(pool.threads_spawned(), 4);
    }

    #[test]
    fn empty_domain_returns_zero() {
        let pool = WorkerPool::new(2);
        let n = pool.run(0, RunSpec::new(8, 16), |_| 1u32, |a, b| a + b, 7u32);
        assert_eq!(n, 7, "zero identity returned untouched");
    }

    #[test]
    fn no_threads_created_after_warmup() {
        let pool = WorkerPool::new(3);
        let before = pool.threads_spawned();
        for _ in 0..50 {
            let s = pool.run(10_000, RunSpec::new(4, 128), |m: Morsel| m.len(), |a, b| a + b, 0usize);
            assert_eq!(s, 10_000);
        }
        assert_eq!(pool.threads_spawned(), before, "queries must not create threads");
        assert_eq!(before, 3);
    }

    #[test]
    fn gate_bounds_inflight_morsels() {
        let pool = WorkerPool::new(4);
        let gate = MorselGate::new(2);
        let live = AtomicU64::new(0);
        let peak = AtomicU64::new(0);
        let total = pool.run(
            64 * 64,
            RunSpec { dop: 5, morsel_rows: 64, gate: Some(&gate), cancel: None },
            |m: Morsel| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::yield_now();
                live.fetch_sub(1, Ordering::SeqCst);
                m.len()
            },
            |a, b| a + b,
            0usize,
        );
        assert_eq!(total, 64 * 64);
        assert!(peak.load(Ordering::SeqCst) <= 2, "observed concurrency above the budget");
        assert!(gate.high_water() <= 2, "gate granted beyond its budget");
        assert_eq!(gate.inflight(), 0, "all permits returned");
    }

    #[test]
    fn gate_budget_can_be_retargeted() {
        let gate = MorselGate::new(1);
        assert_eq!(gate.budget(), 1);
        gate.set_budget(8);
        assert_eq!(gate.budget(), 8);
        let a = gate.acquire();
        let b = gate.acquire();
        assert_eq!(gate.inflight(), 2);
        drop((a, b));
        assert_eq!(gate.inflight(), 0);
        assert_eq!(gate.high_water(), 2);
    }

    #[test]
    #[should_panic(expected = "morsel budget must be positive")]
    fn zero_budget_rejected() {
        let _ = MorselGate::new(0);
    }

    #[test]
    fn panic_in_unit_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                100_000,
                RunSpec::new(3, 64),
                |m: Morsel| {
                    if m.start >= 4096 {
                        panic!("poisoned morsel");
                    }
                    m.len()
                },
                |a, b| a + b,
                0usize,
            )
        }));
        let payload = r.expect_err("the unit panic must reach the submitter");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "poisoned morsel");
        // The pool is still serviceable after the panic.
        let s = pool.run(10_000, RunSpec::new(3, 512), |m: Morsel| m.len(), |a, b| a + b, 0usize);
        assert_eq!(s, 10_000);
    }

    #[test]
    fn many_concurrent_jobs_share_the_pool() {
        let pool = Arc::new(WorkerPool::new(4));
        let data: Vec<i64> = (0..200_000).collect();
        let expected: i64 = data.iter().sum();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                let data = &data;
                s.spawn(move || {
                    for _ in 0..4 {
                        let sum = pool.run(
                            data.len(),
                            RunSpec::new(4, 1024),
                            |m: Morsel| data[m.start..m.end].iter().sum::<i64>(),
                            |a, b| a + b,
                            0i64,
                        );
                        assert_eq!(sum, expected);
                    }
                });
            }
        });
        assert_eq!(pool.threads_spawned(), 4);
    }

    #[test]
    fn cancel_stops_at_morsel_boundary() {
        let pool = WorkerPool::new(2);
        let token = CancelToken::new();
        let processed = AtomicUsize::new(0);
        let token_ref = &token;
        // The first processed morsel raises the flag: every unit must
        // stop before taking another, so far fewer than the 1024
        // available morsels run.
        let n = pool.run(
            64 * 1024,
            RunSpec { dop: 3, morsel_rows: 64, gate: None, cancel: Some(token_ref) },
            |m: Morsel| {
                processed.fetch_add(1, Ordering::SeqCst);
                token_ref.cancel();
                m.len()
            },
            |a, b| a + b,
            0usize,
        );
        let done = processed.load(Ordering::SeqCst);
        assert!((1..=4).contains(&done), "at most one in-flight morsel per unit: {done}");
        assert!(n < 64 * 1024, "cancelled run must not cover the domain");
        // The pool remains serviceable for the next (uncancelled) job.
        let s = pool.run(10_000, RunSpec::new(3, 512), |m: Morsel| m.len(), |a, b| a + b, 0usize);
        assert_eq!(s, 10_000);
    }

    #[test]
    fn gated_cancel_returns_all_permits() {
        let pool = WorkerPool::new(4);
        let gate = MorselGate::new(2);
        let token = CancelToken::new();
        token.cancel(); // cancelled before the job even starts
        let n = pool.run(
            64 * 64,
            RunSpec { dop: 4, morsel_rows: 64, gate: Some(&gate), cancel: Some(&token) },
            |m: Morsel| m.len(),
            |a, b| a + b,
            0usize,
        );
        assert_eq!(n, 0, "pre-cancelled job processes nothing");
        assert_eq!(gate.inflight(), 0, "no permit may outlive the job");
    }

    #[test]
    fn shutdown_joins_workers() {
        let pool = WorkerPool::new(2);
        let s = pool.run(1000, RunSpec::new(3, 10), |m: Morsel| m.len(), |a, b| a + b, 0usize);
        assert_eq!(s, 1000);
        drop(pool); // must not hang
    }

    #[test]
    #[should_panic(expected = "need at least one thread")]
    fn zero_dop_rejected() {
        WorkerPool::new(1).run(10, RunSpec::new(0, 1), |_| 0u32, |a, b| a + b, 0);
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_rejected() {
        let _ = WorkerPool::new(0);
    }
}
