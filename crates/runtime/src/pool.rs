//! Worker pool and steal-policy loop.
//!
//! Workers are created once per [`Pool`] and pinned *logically*: worker `w`
//! has color `w` and belongs to NUMA domain `w / cores_per_domain` of the
//! configured [`Topology`]. A job is submitted with [`Pool::run`]; the
//! root task enters a one-shot injector, one worker picks it up (the paper:
//! "one worker starts out with executing the root node and all other
//! workers are stealing"), and everything else flows through spawns and
//! steals.
//!
//! The steal loop implements §III's policy exactly:
//!
//! 1. while a worker's own deque has work, pop from the bottom;
//! 2. when empty, steal as the worker's [`Thief`] orders — colored
//!    attempts, then a random one, after a forced first colored steal
//!    whose patience is spent only on declined work (see
//!    [`StealPolicy::first_steal_max_declined`]). The thief is the one
//!    statement of those rules, shared with the simulator; the pool adds
//!    its clock: at most 64 forced probes a round, each after a fresh
//!    termination check, the statistics (the forced probes are the `C`
//!    term of Theorem 1, the wait is Figure 9's) and the trace.
//!
//! Every attempt of every kind is one routine (`steal_attempt`), and the
//! deque operation under it — `steal_batch`/`steal_batch_if`, the claim
//! loop `crates/check` explores — is the only one the pool steals through.
//! A steal search is traced as one span: the `IdleExit` that closes an
//! idle episode carries the episode's attempt and declined counts.

use crate::arena::TaskArena;
use crate::deque::{ColoredDeque, Steal};
use crate::injector::Injector;
use crate::policy::{Attempt, Outcome, StealPolicy, Step, Thief};
use crate::rng::XorShift64;
use crate::stats::{PoolStats, WorkerStats};
use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::task::Task;
use crate::trace::{RuntimeTrace, TraceConfig, TraceEventKind, Tracer};
use crossbeam_utils::Backoff;
use nabbitc_color::{Color, ColorSet};
use nabbitc_cost::Topology;
// Condvar has no loom shim; the pool's parking protocol is exercised by
// the model harness through the deque/injector API instead. Allowlisted
// by the lint facade-conformance pass (FACADE_EXEMPT).
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool construction parameters.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Number of worker threads (= number of colors).
    pub workers: usize,
    /// Logical NUMA topology; workers map to domains in contiguous blocks.
    pub topology: Topology,
    /// Steal policy (NabbitC, Nabbit, or custom).
    pub policy: StealPolicy,
    /// Seed for per-worker victim-selection RNGs.
    pub seed: u64,
    /// Event tracing (off by default; see [`TraceConfig`]).
    pub trace: TraceConfig,
}

impl PoolConfig {
    /// NabbitC pool with `workers` workers on a single-socket topology.
    ///
    /// Panics if `workers == 0` — the workspace-wide contract for a
    /// zero-worker machine is an immediate, clearly-worded panic at every
    /// public entry point. This constructor used to paper over it with
    /// `workers.max(1)` in the topology, which let a zero-worker config
    /// travel all the way to [`Pool::new`] before failing with a message
    /// about the pool rather than the config the caller actually wrote.
    pub fn nabbitc(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        PoolConfig {
            workers,
            topology: Topology::uma(workers),
            policy: StealPolicy::nabbitc(),
            seed: 0xC0FFEE,
            trace: TraceConfig::default(),
        }
    }

    /// Vanilla-Nabbit pool (random steals only). Panics if `workers == 0`
    /// (see [`PoolConfig::nabbitc`]).
    pub fn nabbit(workers: usize) -> Self {
        PoolConfig {
            policy: StealPolicy::nabbit(),
            ..Self::nabbitc(workers)
        }
    }

    /// Sets the topology (builder style).
    pub fn with_topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Sets the policy (builder style).
    pub fn with_policy(mut self, p: StealPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Sets the trace configuration (builder style).
    pub fn with_trace(mut self, t: TraceConfig) -> Self {
        self.trace = t;
        self
    }
}

struct PoolInner {
    deques: Vec<ColoredDeque<Task>>,
    stats: Vec<WorkerStats>,
    topology: Topology,
    policy: StealPolicy,
    workers: usize,
    /// Event rings, present only when tracing is enabled — the disabled
    /// path pays one `Option` branch per would-be event.
    tracer: Option<Tracer>,
    /// Trace task-id allocator (ids start at 1; 0 = untraced).
    task_seq: AtomicU64,

    /// Outstanding (spawned but unfinished) tasks of the current job.
    pending: AtomicUsize,
    /// Workers currently inside the job loop.
    active: AtomicUsize,
    /// One-shot root injector (see [`crate::injector`]).
    injector: Injector<Task>,
    /// Job generation counter; bumped by `run` to wake workers.
    epoch: AtomicU64,
    shutdown: AtomicBool,
    job_panicked: AtomicBool,
    /// Job start, nanoseconds since pool origin (for first-work waits).
    job_start_ns: AtomicU64,
    origin: Instant,

    job_lock: Mutex<()>,
    job_cv: Condvar,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl PoolInner {
    /// Records one trace event into `worker`'s ring, if tracing is on.
    /// The caller must be `worker`'s own thread (single-writer rings).
    #[inline]
    fn record(
        &self,
        worker: usize,
        kind: TraceEventKind,
        colored: bool,
        colors: &ColorSet,
        arg: u64,
    ) {
        if let Some(tracer) = &self.tracer {
            tracer.ring(worker).push(
                self.origin.elapsed().as_nanos() as u64,
                kind,
                colored,
                singleton_color(colors),
                arg,
                0,
            );
        }
    }

    /// Closes `thief`'s open idle episode, if there is one: a single
    /// `IdleExit` event that carries what the episode's steal search did
    /// (attempts, and of those the probes that declined work of another
    /// color), each saturating at the 32 bits the ring keeps.
    #[inline]
    fn close_idle(&self, worker: usize, idle: &mut Option<StealSearch>) {
        let Some(search) = idle.take() else {
            return;
        };
        if let Some(tracer) = &self.tracer {
            let keep = |n: u64| n.min(u32::MAX as u64);
            tracer.ring(worker).push(
                self.origin.elapsed().as_nanos() as u64,
                TraceEventKind::IdleExit,
                false,
                None,
                keep(search.attempts),
                keep(search.declined),
            );
        }
    }

    /// Allocates a trace task id (0 when tracing is off).
    #[inline]
    fn next_task_id(&self) -> u64 {
        if self.tracer.is_some() {
            // ORDERING task_seq.fetch_add: Relaxed — unique-id counter; only
            // atomicity is needed, no ordering with other data
            self.task_seq.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            0
        }
    }
}

/// The singleton member of `colors`, or `None` for empty / multi-color
/// sets (a morphing-continuation batch spans several colors; the trace
/// records the ambiguity rather than picking one).
#[inline]
fn singleton_color(colors: &ColorSet) -> Option<u16> {
    let mut it = colors.iter();
    match (it.next(), it.next()) {
        (Some(c), None) => Some(c.0),
        _ => None,
    }
}

/// What [`Pool::run_measured`] observed of its one job.
#[derive(Clone, Debug, Default)]
pub struct JobReport {
    /// Wall clock from taking the pool's run guard to the job's last task.
    pub elapsed: Duration,
    /// Per-worker statistics of this job alone.
    pub stats: PoolStats,
    /// This job's events, when the pool was built with tracing enabled.
    pub trace: Option<RuntimeTrace>,
}

/// Handle to a running worker pool.
///
/// Dropping the pool shuts the workers down and joins them.
pub struct Pool {
    inner: Arc<PoolInner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    run_guard: Mutex<()>,
}

impl Pool {
    /// Spawns the worker threads. Panics if `config.workers == 0` or if
    /// the topology has fewer cores than workers (a worker past its last
    /// core would own no domain, so its own data would count as remote).
    pub fn new(config: PoolConfig) -> Pool {
        assert!(config.workers > 0, "need at least one worker");
        assert!(
            config.workers <= nabbitc_color::MAX_COLORS,
            "at most {} workers supported",
            nabbitc_color::MAX_COLORS
        );
        assert!(
            config.topology.cores() >= config.workers,
            "topology with {} cores cannot place {} workers",
            config.topology.cores(),
            config.workers
        );
        let inner = Arc::new(PoolInner {
            deques: (0..config.workers).map(|_| ColoredDeque::new()).collect(),
            stats: (0..config.workers)
                .map(|_| WorkerStats::default())
                .collect(),
            topology: config.topology.clone(),
            policy: config.policy.clone(),
            workers: config.workers,
            tracer: config
                .trace
                .enabled
                .then(|| Tracer::new(config.workers, &config.trace)),
            task_seq: AtomicU64::new(0),
            pending: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            injector: Injector::new(),
            epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            job_panicked: AtomicBool::new(false),
            job_start_ns: AtomicU64::new(0),
            origin: Instant::now(),
            job_lock: Mutex::new(()),
            job_cv: Condvar::new(),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let threads = (0..config.workers)
            .map(|w| {
                let inner = inner.clone();
                let seed = config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(w as u64 + 1));
                std::thread::Builder::new()
                    .name(format!("nabbitc-worker-{w}"))
                    .spawn(move || worker_main(inner, w, seed))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Pool {
            inner,
            threads,
            run_guard: Mutex::new(()),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// The pool's topology.
    pub fn topology(&self) -> &Topology {
        &self.inner.topology
    }

    /// The pool's steal policy.
    pub fn policy(&self) -> &StealPolicy {
        &self.inner.policy
    }

    /// Runs a job to completion: submits `root` (tagged with `colors` for
    /// colored steals) and blocks until every transitively spawned task has
    /// finished. Panics if any task panicked. Statistics and trace rings
    /// keep accumulating across jobs; see [`run_measured`](Self::run_measured)
    /// for a job that is observed alone.
    pub fn run<F>(&self, colors: ColorSet, root: F)
    where
        F: FnOnce(&mut WorkerContext<'_>) + Send + 'static,
    {
        let _guard = self.run_guard.lock();
        self.quiesce();
        self.submit(colors, root);
    }

    /// [`run`](Self::run) as one observed unit: under the same guard that
    /// serializes jobs, clears the statistics and (on a traced pool) the
    /// event rings, runs the job, and snapshots both — so the returned
    /// [`JobReport`] describes this job and nothing else, however many
    /// threads submit jobs to the pool. The resets happen after the
    /// previous job's last worker has left its loop, which is the
    /// "workers quiescent" [`reset_trace`](Self::reset_trace) asks for; the
    /// snapshots happen after *this* job's last worker has left, because a
    /// worker writes its first-work wait (all of the job, if it never got
    /// work), its last idle time and the `IdleExit` closing its last steal
    /// search on the way out — after the job's last task, which is where
    /// `elapsed` stops.
    pub fn run_measured<F>(&self, colors: ColorSet, root: F) -> JobReport
    where
        F: FnOnce(&mut WorkerContext<'_>) + Send + 'static,
    {
        let _guard = self.run_guard.lock();
        let started = Instant::now();
        self.quiesce();
        self.clear_stats();
        self.reset_trace();
        self.submit(colors, root);
        let elapsed = started.elapsed();
        self.quiesce();
        JobReport {
            elapsed,
            stats: self.stats(),
            trace: self.tracing_enabled().then(|| self.trace_snapshot()),
        }
    }

    /// Waits for stragglers of the last job to leave the job loop, so that
    /// what they still write (first-work waits, idle time, their closing
    /// trace events) is attributed to that job and read with it. Caller
    /// holds `run_guard`.
    fn quiesce(&self) {
        let inner = &self.inner;
        let mut g = inner.done_lock.lock();
        // ORDERING active.load: SeqCst — job-barrier handshake; the pool
        // control plane uses SeqCst throughout as it is microseconds per job,
        // not per task
        while inner.active.load(Ordering::SeqCst) > 0 {
            inner.done_cv.wait(&mut g);
        }
    }

    /// Publishes `root` as the next job and blocks until it has drained.
    /// Caller holds `run_guard` and has [`quiesce`](Self::quiesce)d.
    fn submit<F>(&self, colors: ColorSet, root: F)
    where
        F: FnOnce(&mut WorkerContext<'_>) + Send + 'static,
    {
        let inner = &self.inner;
        // ORDERING pending.load: SeqCst — job-barrier handshake (control
        // plane, SeqCst by convention)
        assert_eq!(inner.pending.load(Ordering::SeqCst), 0);

        // ORDERING job_panicked.store: SeqCst — clears the panic flag before
        // publishing a new job (control plane, SeqCst)
        inner.job_panicked.store(false, Ordering::SeqCst);
        // ORDERING pending.store: SeqCst — seeds the pending-task count before
        // the epoch bump releases workers (control plane)
        inner.pending.store(1, Ordering::SeqCst);
        inner
            .injector
            .push(Task::new(colors, root).with_id(inner.next_task_id()));
        // ORDERING job_start_ns.store: SeqCst — job start timestamp must be
        // visible to workers when the epoch bump wakes them
        inner
            .job_start_ns
            .store(inner.origin.elapsed().as_nanos() as u64, Ordering::SeqCst);
        {
            let _g = inner.job_lock.lock();
            // ORDERING epoch.fetch_add: SeqCst — the job-release edge: workers
            // spin on epoch, and every job field stored above must be ordered
            // before it (control plane, SeqCst)
            inner.epoch.fetch_add(1, Ordering::SeqCst);
            inner.job_cv.notify_all();
        }
        {
            let mut g = inner.done_lock.lock();
            while inner.pending.load(Ordering::SeqCst) != 0 {
                inner.done_cv.wait(&mut g);
            }
        }
        // ORDERING job_panicked.load: SeqCst — reads the outcome after the
        // completion barrier (control plane, SeqCst)
        if inner.job_panicked.load(Ordering::SeqCst) {
            panic!("a task panicked during Pool::run");
        }
    }

    /// Snapshot of per-worker statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.inner.stats.iter().map(|s| s.snapshot()).collect(),
        }
    }

    /// Clears all statistics counters — after the running job, if there
    /// is one, and after its last worker has left the job loop: a
    /// straggler's parting writes (see [`run_measured`](Self::run_measured))
    /// land before the reset, not after it. Blocks for as long as a job
    /// runs, so not to be called from inside a task.
    pub fn reset_stats(&self) {
        let _guard = self.run_guard.lock();
        self.quiesce();
        self.clear_stats();
    }

    /// The reset itself. Caller holds `run_guard` and has
    /// [`quiesce`](Self::quiesce)d.
    fn clear_stats(&self) {
        for s in &self.inner.stats {
            s.reset();
        }
    }

    /// Whether event tracing was enabled at construction.
    pub fn tracing_enabled(&self) -> bool {
        self.inner.tracer.is_some()
    }

    /// Drains the per-worker event rings into a [`RuntimeTrace`]
    /// (empty when tracing is disabled). Safe to call mid-run: slots a
    /// worker is concurrently overwriting are skipped, not read torn.
    pub fn trace_snapshot(&self) -> RuntimeTrace {
        match &self.inner.tracer {
            Some(t) => t.snapshot(|w| self.inner.topology.domain_of(w)),
            None => RuntimeTrace::default(),
        }
    }

    /// Clears the event rings and the task-id allocator. Call only
    /// between jobs (workers must be quiescent) and only while no other
    /// thread may submit one; [`run_measured`](Self::run_measured) is the
    /// form that holds both by construction.
    pub fn reset_trace(&self) {
        if let Some(t) = &self.inner.tracer {
            t.reset();
            // ORDERING task_seq.store: Relaxed — reset while the pool is
            // quiescent — by `run_measured` under the run guard after the last
            // straggler left, or by a caller between jobs; atomicity only
            self.inner.task_seq.store(0, Ordering::Relaxed);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // ORDERING shutdown.store: SeqCst — shutdown edge observed by worker
        // spin loops (control plane, SeqCst)
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = self.inner.job_lock.lock();
            self.inner.job_cv.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Per-worker execution context handed to every task.
///
/// Provides the worker's identity/color and spawning — the surface
/// NabbitC's `spawn_colors` machinery needs.
pub struct WorkerContext<'a> {
    inner: &'a PoolInner,
    worker: usize,
    color: Color,
    /// The worker's shell free list (owned by `worker_main`, so it
    /// persists across jobs on the same pool).
    arena: &'a mut TaskArena,
}

impl<'a> WorkerContext<'a> {
    /// This worker's index.
    #[inline]
    pub fn worker_id(&self) -> usize {
        self.worker
    }

    /// This worker's color (`c_p` in the paper's pseudo-code).
    #[inline]
    pub fn color(&self) -> Color {
        self.color
    }

    /// Number of workers in the pool.
    #[inline]
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// The pool topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.inner.topology
    }

    /// Spawns a task onto this worker's deque, tagged with `colors` — the
    /// combined `cilk_spawn` + `cilkrts_set_next_colors` of the paper: the
    /// pushed entry is stealable and thieves see exactly `colors` when
    /// deciding a colored steal.
    pub fn spawn<F>(&mut self, colors: ColorSet, f: F)
    where
        F: FnOnce(&mut WorkerContext<'_>) + Send + 'static,
    {
        let id = self.inner.next_task_id();
        self.inner
            .record(self.worker, TraceEventKind::Spawn, false, &colors, id);
        let (task, hit) = self.arena.allocate(colors, id, f);
        note_arena(&self.inner.stats[self.worker], hit);
        // ORDERING pending.fetch_add: Relaxed — per-spawn hot path, Relaxed
        // (from SeqCst): the counter is pure task accounting, and the
        // increment precedes the deque push, whose Release fence publishes
        // it to whichever worker acquires the task (program order, when the
        // owner pops it), so the matching decrement is ordered after it in
        // pending's modification order — the counter can never spuriously
        // hit zero mid-job (`run_pending_protocol` in crates/check checks
        // this exhaustively)
        self.inner.pending.fetch_add(1, Ordering::Relaxed);
        self.inner.deques[self.worker].push(task, colors);
    }

    /// Opens a spawn batch: queue several tasks with [`SpawnBatch::add`],
    /// then publish them all with **one** deque fence + `bottom` store
    /// and **one** `pending` update (on drop or [`SpawnBatch::publish`]),
    /// instead of paying each per spawn. The batch becomes visible to
    /// thieves atomically, oldest entry first.
    pub fn spawn_batch(&mut self) -> SpawnBatch<'_, 'a> {
        SpawnBatch {
            ctx: self,
            tasks: Vec::new(),
        }
    }
}

/// A batch of spawns published together — the `Pool::spawn_batch`
/// counterpart of `cilk_spawn`-ing N continuations: one release fence and
/// one `bottom` store for the whole ready set (see
/// [`ColoredDeque::push_batch`]).
///
/// Dropping the builder publishes the batch; [`publish`](Self::publish)
/// just makes the point explicit at the call site.
pub struct SpawnBatch<'b, 'a> {
    ctx: &'b mut WorkerContext<'a>,
    tasks: Vec<(Box<Task>, ColorSet)>,
}

impl SpawnBatch<'_, '_> {
    /// Queues one task. Trace spawn events and arena accounting happen
    /// here; the deque publication and `pending` update happen once, at
    /// publish time.
    pub fn add<F>(&mut self, colors: ColorSet, f: F)
    where
        F: FnOnce(&mut WorkerContext<'_>) + Send + 'static,
    {
        let id = self.ctx.inner.next_task_id();
        self.ctx
            .inner
            .record(self.ctx.worker, TraceEventKind::Spawn, false, &colors, id);
        let (task, hit) = self.ctx.arena.allocate(colors, id, f);
        note_arena(&self.ctx.inner.stats[self.ctx.worker], hit);
        self.tasks.push((task, colors));
    }

    /// Number of tasks queued so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the batch is still empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Publishes the batch (equivalent to dropping the builder).
    pub fn publish(self) {}
}

impl Drop for SpawnBatch<'_, '_> {
    fn drop(&mut self) {
        let n = self.tasks.len();
        if n == 0 {
            return;
        }
        // ORDERING pending.fetch_add: Relaxed — SpawnBatch::drop counts the
        // whole batch before its single push_batch publishes the tasks; same
        // publish-before-decrement argument as `WorkerContext::spawn`
        self.ctx.inner.pending.fetch_add(n, Ordering::Relaxed);
        self.ctx.inner.deques[self.ctx.worker].push_batch(std::mem::take(&mut self.tasks));
    }
}

/// Mirrors one arena allocation into the worker's stats counters.
#[inline]
fn note_arena(stats: &WorkerStats, hit: bool) {
    if hit {
        // ORDERING arena_hits.fetch_add: Relaxed — reporting-only arena
        // counter mirrored from the worker-owned free list; read after the job
        // barrier
        stats.arena_hits.fetch_add(1, Ordering::Relaxed);
    } else {
        // ORDERING arena_misses.fetch_add: Relaxed — reporting-only arena
        // counter; read after the job barrier
        stats.arena_misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// Mirrors one successful batch steal (`moved` extra tasks landed in the
/// thief's deque alongside the returned one) into the stats counters.
#[inline]
fn note_batch(stats: &WorkerStats, moved: usize) {
    if moved > 0 {
        // ORDERING batch_steals.fetch_add: Relaxed — reporting-only batching
        // counter with no cross-counter invariant (unlike the Release
        // steal-success counters); read after the job barrier
        stats.batch_steals.fetch_add(1, Ordering::Relaxed);
        // ORDERING batch_stolen_tasks.fetch_add: Relaxed — reporting-only
        // batching counter; read after the job barrier
        stats
            .batch_stolen_tasks
            .fetch_add(moved as u64 + 1, Ordering::Relaxed);
    }
}

fn worker_main(inner: Arc<PoolInner>, worker: usize, seed: u64) {
    let mut seen_epoch = 0u64;
    let mut arena = TaskArena::default();
    loop {
        {
            let mut g = inner.job_lock.lock();
            // ORDERING epoch.load: SeqCst — worker spin on the job-release
            // edge (control plane, SeqCst)
            // ORDERING shutdown.load: SeqCst — worker spin on the shutdown
            // edge (control plane, SeqCst)
            while inner.epoch.load(Ordering::SeqCst) == seen_epoch
                && !inner.shutdown.load(Ordering::SeqCst)
            {
                inner.job_cv.wait(&mut g);
            }
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        seen_epoch = inner.epoch.load(Ordering::SeqCst);
        // ORDERING active.fetch_add: SeqCst — entering a job; the barrier in
        // run() counts active workers (control plane, SeqCst)
        inner.active.fetch_add(1, Ordering::SeqCst);
        // One thief per job: every job starts the forcing's budget afresh.
        let rng = XorShift64::new(seed ^ seen_epoch);
        let mut thief = Thief::new(&inner.policy, worker, inner.workers, rng);
        run_job_loop(&inner, worker, &mut thief, &mut arena);
        // ORDERING active.fetch_sub: SeqCst — leaving a job; pairs with the
        // barrier's active==0 check (control plane, SeqCst)
        inner.active.fetch_sub(1, Ordering::SeqCst);
        let _g = inner.done_lock.lock();
        inner.done_cv.notify_all();
    }
}

fn run_job_loop(inner: &PoolInner, worker: usize, thief: &mut Thief, arena: &mut TaskArena) {
    let mut ctx = WorkerContext {
        inner,
        worker,
        color: Color::from(worker),
        arena,
    };
    // The open idle episode's steal search; `None` while the worker works.
    let mut idle: Option<StealSearch> = None;
    let stats = &inner.stats[worker];
    // ORDERING job_start_ns.load: SeqCst — reads the job start timestamp
    // published before the epoch bump (control plane)
    let job_start = inner.job_start_ns.load(Ordering::SeqCst);
    let mut acquired_any = false;
    let backoff = Backoff::new();
    let none = ColorSet::empty();

    let record_first = |acquired_any: &mut bool| {
        if !*acquired_any {
            *acquired_any = true;
            let now = inner.origin.elapsed().as_nanos() as u64;
            // ORDERING first_work_wait_ns.store: Relaxed — per-worker latency
            // statistic; read only after the job barrier
            stats
                .first_work_wait_ns
                .store(now.saturating_sub(job_start), Ordering::Relaxed);
        }
    };

    loop {
        // Drain local work first (depth-first, like Cilk).
        while let Some(task) = inner.deques[worker].pop() {
            record_first(&mut acquired_any);
            backoff.reset();
            execute(inner, &mut ctx, task);
        }

        // The root injector (start of the job): it holds at most the one
        // root `submit` pushed, taken by the check-then-pop round that
        // `run_injector_progress` model-checks.
        if !inner.injector.is_empty() {
            if let Some(root) = inner.injector.try_pop() {
                inner.close_idle(worker, &mut idle);
                record_first(&mut acquired_any);
                backoff.reset();
                let (root, hit) = ctx.arena.adopt(root);
                note_arena(&inner.stats[worker], hit);
                execute(inner, &mut ctx, root);
                continue;
            }
        }

        // ORDERING pending.load: Acquire; pairs execute::pending.fetch_sub —
        // termination check, Acquire (from SeqCst): reading zero means
        // reading the final decrement of the AcqRel fetch_sub release
        // sequence, which synchronizes with every task's effects; a stale
        // nonzero read just loops once more, and a stale zero is impossible
        // within a job (the only writes of 0 belong to *finished* jobs,
        // ordered before this job's `pending.store(1)` by the run/epoch
        // handshake). Two sites (loop head and idle re-check);
        // run_pending_protocol models the full handshake
        if inner.pending.load(Ordering::Acquire) == 0 {
            break;
        }

        if idle.is_none() {
            inner.record(worker, TraceEventKind::IdleEnter, false, &none, 0);
        }
        let search = idle.get_or_insert_with(StealSearch::default);
        let idle_started = Instant::now();
        let got = steal_round(inner, worker, thief, search);
        // ORDERING idle_ns.fetch_add: Relaxed — per-worker idle-time
        // statistic; read only after the job barrier
        stats
            .idle_ns
            .fetch_add(idle_started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match got {
            Some(task) => {
                inner.close_idle(worker, &mut idle);
                record_first(&mut acquired_any);
                backoff.reset();
                execute(inner, &mut ctx, task);
            }
            None => {
                if inner.pending.load(Ordering::Acquire) == 0 {
                    break;
                }
                backoff.snooze();
            }
        }
    }
    // Close the open idle span: the Chrome export stays balanced and the
    // last search's attempts are counted.
    inner.close_idle(worker, &mut idle);

    if !acquired_any {
        // Never got work: the whole job was waiting (counts fully as
        // first-work wait, e.g. tiny jobs on large pools). Written before
        // `worker_main` takes this worker out of `active`, so whoever
        // quiesces before reading — `run_measured` does — reads it.
        let now = inner.origin.elapsed().as_nanos() as u64;
        stats
            .first_work_wait_ns
            .store(now.saturating_sub(job_start), Ordering::Relaxed);
    }
}

fn execute(inner: &PoolInner, ctx: &mut WorkerContext<'_>, mut task: Box<Task>) {
    // ORDERING tasks_executed.fetch_add: Relaxed — per-worker counter; read
    // only after the job barrier
    inner.stats[ctx.worker]
        .tasks_executed
        .fetch_add(1, Ordering::Relaxed);
    let (id, colors) = (task.id, task.colors);
    inner.record(ctx.worker, TraceEventKind::ExecBegin, false, &colors, id);
    let result = catch_unwind(AssertUnwindSafe(|| task.run(ctx)));
    inner.record(ctx.worker, TraceEventKind::ExecEnd, false, &colors, id);
    if result.is_err() {
        // ORDERING job_panicked.store: SeqCst — panic flag must be visible
        // before the pending count reaches zero (control plane)
        inner.job_panicked.store(true, Ordering::SeqCst);
    }
    // Running the task vacated the shell; give it back to this worker's
    // free list (wherever the task was spawned) before signaling done.
    ctx.arena.recycle(task);
    // ORDERING pending.fetch_sub: AcqRel; pairs execute::pending.fetch_sub —
    // task completion, AcqRel (from SeqCst): Release publishes this task's
    // effects to whoever reads the counter down the release sequence (the
    // joining `run` caller, or a worker's termination check), Acquire makes
    // the *final* decrement a synchronization point that has seen every
    // other task's effects and keeps later recycling ordered after the
    // count; run()'s completion barrier still goes through the done mutex +
    // condvar, not this counter alone
    if inner.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        let _g = inner.done_lock.lock();
        inner.done_cv.notify_all();
    }
}

/// What the steal search of one idle episode did (the payload of the
/// `IdleExit` that closes it).
#[derive(Default)]
struct StealSearch {
    attempts: u64,
    /// Attempts that found stealable work of another color and left it.
    declined: u64,
}

/// Forced probes one steal round makes at most, so that the caller's
/// termination check stays fresh while a forcing lasts.
const FORCED_PROBES_PER_ROUND: usize = 64;

/// One round of the §III steal policy, in the order `thief` draws it.
/// Returns quickly (bounded attempts) so the caller's termination check
/// stays fresh.
fn steal_round(
    inner: &PoolInner,
    worker: usize,
    thief: &mut Thief,
    search: &mut StealSearch,
) -> Option<Box<Task>> {
    let stats = &inner.stats[worker];
    let mut forced = 0;
    loop {
        let forcing = thief.forcing();
        if forcing {
            // ORDERING pending.load: Acquire; pairs execute::pending.fetch_sub
            // — early-out of the forced probes; same release-sequence
            // argument as the run_job_loop termination check
            if forced == FORCED_PROBES_PER_ROUND || inner.pending.load(Ordering::Acquire) == 0 {
                return None; // keep forcing on the next round
            }
            forced += 1;
            // ORDERING first_steal_checks.fetch_add: Relaxed — Fig 9 counter;
            // read only after the job barrier
            stats.first_steal_checks.fetch_add(1, Ordering::Relaxed);
        }
        // A 1-worker pool has nobody to steal from: no attempt, and the
        // stats stay untouched.
        let attempt = thief.attempt()?;
        let got = steal_attempt(inner, worker, thief, attempt, search);
        let outcome = Outcome::from(&got);
        if forcing && outcome == Outcome::Declined {
            // ORDERING first_steal_declined.fetch_add: Relaxed — Fig 9
            // companion counter; read only after the job barrier
            stats.first_steal_declined.fetch_add(1, Ordering::Relaxed);
        }
        match thief.report(outcome) {
            Step::Stole => return got.success(),
            Step::Again => {}
            Step::Escaped => {
                // ORDERING first_steal_escapes.fetch_add: Relaxed — at most one
                // per job; read only after the job barrier
                stats.first_steal_escapes.fetch_add(1, Ordering::Relaxed);
            }
            Step::RoundOver => return None,
        }
    }
}

/// One steal attempt: colored (the victim's oldest entry must carry a
/// color `thief` accepts) or unconditional. Counts it — in the statistics
/// and in the idle episode's `search` — lands whatever the batch moved
/// beyond the returned task in the worker's own deque, and hands the
/// deque's outcome back.
#[inline]
fn steal_attempt(
    inner: &PoolInner,
    worker: usize,
    thief: &Thief,
    attempt: Attempt,
    search: &mut StealSearch,
) -> Steal<Task> {
    let stats = &inner.stats[worker];
    let (attempts, steals) = if attempt.colored {
        (&stats.colored_steal_attempts, &stats.colored_steals)
    } else {
        (&stats.random_steal_attempts, &stats.random_steals)
    };
    // ORDERING attempts.fetch_add: Relaxed — attempt counter of the
    // attempt's kind; read only after the job barrier
    attempts.fetch_add(1, Ordering::Relaxed);
    let (victim, own) = (&inner.deques[attempt.victim], &inner.deques[worker]);
    let (got, moved) = if attempt.colored {
        victim.steal_batch_if(thief.accept(), own)
    } else {
        victim.steal_batch(own)
    };
    search.attempts += 1;
    search.declined += matches!(got, Steal::ColorMismatch) as u64;
    if let Steal::Success(task) = &got {
        // ORDERING steals.fetch_add: Release — success counter of the
        // attempt's kind; Release pairs with the Acquire loads in
        // `WorkerStats::snapshot`: a snapshot that sees this success also
        // sees the attempt increment above, so steals <= attempts holds per
        // kind in any racy snapshot
        steals.fetch_add(1, Ordering::Release);
        note_batch(stats, moved);
        inner.record(
            worker,
            TraceEventKind::StealSuccess,
            attempt.colored,
            &task.colors,
            attempt.victim as u64,
        );
    }
    got
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool as StdAtomicBool, AtomicU64 as StdAtomicU64};

    fn count_to(pool: &Pool, n: u64) -> u64 {
        count_to_with(pool, n, Arc::new(|_| {}))
    }

    /// Counts to `n` by binary fanout; `at_leaf` runs before each leaf
    /// (at most four counts) on the worker that reached it.
    fn count_to_with(pool: &Pool, n: u64, at_leaf: Arc<LeafHook>) -> u64 {
        let counter = Arc::new(StdAtomicU64::new(0));
        let c = counter.clone();
        let workers = pool.workers();
        pool.run(ColorSet::all(workers), move |ctx| {
            fn fanout(
                ctx: &mut WorkerContext<'_>,
                c: Arc<StdAtomicU64>,
                at_leaf: Arc<LeafHook>,
                (lo, hi): (u64, u64),
                colors: ColorSet,
            ) {
                if hi - lo <= 4 {
                    at_leaf(ctx);
                    for _ in lo..hi {
                        c.fetch_add(1, Ordering::SeqCst);
                    }
                } else {
                    let mid = lo + (hi - lo) / 2;
                    let (c2, hook) = (c.clone(), at_leaf.clone());
                    ctx.spawn(colors, move |ctx| fanout(ctx, c2, hook, (mid, hi), colors));
                    fanout(ctx, c, at_leaf, (lo, mid), colors);
                }
            }
            let colors = ColorSet::all(ctx.workers());
            fanout(ctx, c, at_leaf, (0, n), colors);
        });
        counter.load(Ordering::SeqCst)
    }

    type LeafHook = dyn Fn(&WorkerContext<'_>) + Send + Sync;

    #[test]
    fn single_worker_runs_job() {
        let pool = Pool::new(PoolConfig::nabbitc(1));
        assert_eq!(count_to(&pool, 1000), 1000);
    }

    #[test]
    fn multi_worker_runs_job() {
        let pool = Pool::new(PoolConfig::nabbitc(8));
        assert_eq!(count_to(&pool, 100_000), 100_000);
    }

    #[test]
    fn nabbit_policy_runs_job() {
        let pool = Pool::new(PoolConfig::nabbit(8));
        assert_eq!(count_to(&pool, 100_000), 100_000);
    }

    #[test]
    fn multiple_jobs_reuse_pool() {
        let pool = Pool::new(PoolConfig::nabbitc(4));
        for _ in 0..20 {
            assert_eq!(count_to(&pool, 5_000), 5_000);
        }
    }

    #[test]
    fn stress_pool_runs_with_env_seed() {
        // Victim selection (and therefore the whole steal interleaving)
        // derives from the pool seed; a failure message carries the seed
        // so NABBITC_TEST_SEED replays the exact same victim sequence.
        let seed = XorShift64::test_seed();
        let pool = Pool::new(PoolConfig::nabbitc(8).with_seed(seed));
        for round in 0..5 {
            let got = count_to(&pool, 50_000);
            assert_eq!(
                got, 50_000,
                "round {round} lost tasks; replay with NABBITC_TEST_SEED={seed}"
            );
        }
    }

    #[test]
    fn work_is_distributed() {
        // The window is a condition, not a duration (on two cores the
        // whole count can finish before four of eight threads get a
        // turn): no leaf is counted until four workers have each reached
        // one, and all but the root's got there by stealing. Bounded, so a
        // pool that cannot distribute fails the assertions below instead
        // of hanging.
        const PARTICIPANTS: usize = 4;
        let pool = Pool::new(PoolConfig::nabbitc(8));
        pool.reset_stats();
        let reached: Vec<StdAtomicBool> = (0..8).map(|_| StdAtomicBool::new(false)).collect();
        let opened = Instant::now();
        let hold = move |ctx: &WorkerContext<'_>| {
            reached[ctx.worker_id()].store(true, Ordering::SeqCst);
            while reached.iter().filter(|r| r.load(Ordering::SeqCst)).count() < PARTICIPANTS
                && opened.elapsed() < Duration::from_secs(5)
            {
                std::thread::yield_now();
            }
        };
        assert_eq!(count_to_with(&pool, 400_000, Arc::new(hold)), 400_000);
        let stats = pool.stats();
        assert_eq!(stats.workers.len(), 8, "stats should cover every worker");
        let participating = stats
            .workers
            .iter()
            .filter(|w| w.tasks_executed > 0)
            .count();
        assert!(
            participating >= PARTICIPANTS,
            "expected most workers to participate, got {participating}"
        );
        assert!(stats.total_successful_steals() > 0);
    }

    #[test]
    fn invalid_coloring_still_completes() {
        // Table III setup: every task tagged with the empty color set so
        // all colored steals fail; the escape hatch + random steals must
        // still finish the job.
        let mut policy = StealPolicy::nabbitc();
        policy.first_steal_max_declined = 1000;
        let pool = Pool::new(PoolConfig::nabbitc(4).with_policy(policy));
        let counter = Arc::new(StdAtomicU64::new(0));
        let c = counter.clone();
        pool.run(ColorSet::empty(), move |ctx| {
            for _ in 0..64 {
                let c2 = c.clone();
                ctx.spawn(ColorSet::empty(), move |_| {
                    c2.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn zero_patience_never_forces_a_probe() {
        // A budget of zero declined probes: the forcing never starts. The
        // root holds until another worker has made a steal attempt, which
        // is then one of the normal cycle, not a forced probe.
        let mut policy = StealPolicy::nabbitc();
        policy.first_steal_max_declined = 0;
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(2).with_policy(policy)));
        let (p, opened) = (pool.clone(), Instant::now());
        let job = pool.run_measured(ColorSet::all(2), move |ctx| {
            let other = 1 - ctx.worker_id();
            while p.stats().workers[other].steal_attempts() == 0
                && opened.elapsed() < Duration::from_secs(5)
            {
                std::thread::yield_now();
            }
        });
        assert!(job.stats.workers.iter().any(|w| w.steal_attempts() > 0));
        for w in &job.stats.workers {
            assert_eq!(
                (
                    w.first_steal_checks,
                    w.first_steal_declined,
                    w.first_steal_escapes
                ),
                (0, 0, 0),
                "{w:?}"
            );
        }
    }

    #[test]
    fn first_steal_escape_hatch_is_per_job() {
        // Table III coloring on a reused pool: every task carries the empty
        // color set, so no colored steal succeeds and a worker reaches a
        // random steal only through the escape hatch — after declining
        // exactly `first_steal_max_declined` probes, in every job, whatever
        // the statistics have accumulated (`Pool::run` never resets them).
        // Probes that found a victim empty are forced checks too, but cost
        // nothing: checks >= declined. The window is a condition: no task
        // finishes until all three workers have started one, so in each
        // job two of them got theirs by stealing — and of job 2's two, at
        // most one can be the worker that held job 1's root and stole
        // nothing then.
        const MAX: u64 = 8;
        let mut policy = StealPolicy::nabbitc();
        policy.first_steal_max_declined = MAX;
        let pool = Pool::new(PoolConfig::nabbitc(3).with_policy(policy));
        let mut before = pool.stats();
        for job in 1..=2 {
            let ran: Arc<Vec<StdAtomicBool>> =
                Arc::new((0..3).map(|_| StdAtomicBool::new(false)).collect());
            let opened = Instant::now();
            pool.run(ColorSet::empty(), move |ctx| {
                for _ in 0..64 {
                    let ran = ran.clone();
                    ctx.spawn(ColorSet::empty(), move |ctx| {
                        ran[ctx.worker_id()].store(true, Ordering::SeqCst);
                        while !ran.iter().all(|r| r.load(Ordering::SeqCst))
                            && opened.elapsed() < Duration::from_secs(5)
                        {
                            std::thread::yield_now();
                        }
                    });
                }
            });
            // Stragglers still count their last check after `run` returns.
            pool.quiesce();
            let after = pool.stats();
            let mut escaped = 0;
            for (w, (a, b)) in after.workers.iter().zip(&before.workers).enumerate() {
                assert_eq!(a.colored_steals, 0, "an empty color set matched");
                let checks = a.first_steal_checks - b.first_steal_checks;
                let declined = a.first_steal_declined - b.first_steal_declined;
                let escapes = a.first_steal_escapes - b.first_steal_escapes;
                assert!(
                    declined <= MAX && declined <= checks && escapes <= 1,
                    "job {job}: worker {w} declined {declined} of {checks} checks, \
                     escaped {escapes} times"
                );
                let stole_randomly = a.random_steal_attempts > b.random_steal_attempts;
                assert_eq!(
                    escapes == 1,
                    stole_randomly,
                    "job {job}: worker {w}: a random attempt needs the hatch, and the hatch \
                     is followed by one"
                );
                if escapes == 1 {
                    escaped += 1;
                    assert_eq!(
                        declined, MAX,
                        "job {job}: worker {w} left the forced first steal after declining \
                         {declined} probes ({checks} checks)"
                    );
                }
            }
            assert!(escaped >= 2, "job {job}: only {escaped} workers stole");
            before = after;
        }
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_worker_config_panics_at_construction() {
        // The config constructor, not Pool::new, is the contract point:
        // it must not paper over workers == 0 with a 1-core topology.
        let _ = PoolConfig::nabbitc(0);
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_worker_pool_panics() {
        let mut cfg = PoolConfig::nabbitc(1);
        cfg.workers = 0; // bypass the constructor's check
        let _ = Pool::new(cfg);
    }

    #[test]
    #[should_panic(expected = "topology with 4 cores cannot place 8 workers")]
    fn topology_with_fewer_cores_than_workers_panics() {
        let _ = Pool::new(PoolConfig::nabbitc(8).with_topology(Topology::new(1, 4)));
    }

    #[test]
    #[should_panic(expected = "task panicked")]
    fn task_panic_propagates() {
        let pool = Pool::new(PoolConfig::nabbitc(2));
        pool.run(ColorSet::all(2), |_| panic!("boom"));
    }

    #[test]
    fn pool_survives_task_panic() {
        let pool = Pool::new(PoolConfig::nabbitc(2));
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(ColorSet::all(2), |_| panic!("boom"));
        }));
        assert!(r.is_err());
        // Pool remains usable.
        assert_eq!(count_to(&pool, 100), 100);
    }

    #[test]
    fn stats_reset() {
        let pool = Pool::new(PoolConfig::nabbitc(2));
        count_to(&pool, 1000);
        assert!(pool.stats().total_tasks() > 0);
        pool.reset_stats();
        assert_eq!(pool.stats().total_tasks(), 0);
    }

    #[test]
    fn run_measured_reports_its_own_job_only() {
        let pool = Pool::new(PoolConfig::nabbitc(1).with_trace(TraceConfig::enabled()));
        count_to(&pool, 1000); // leaves counters and events behind
        let job = pool.run_measured(ColorSet::all(1), |ctx| {
            for _ in 0..7 {
                ctx.spawn(ColorSet::all(1), |_| {});
            }
        });
        assert_eq!(job.stats.total_tasks(), 8);
        let trace = job.trace.expect("the pool traces");
        assert_eq!(trace.summaries().iter().map(|s| s.execs).sum::<u64>(), 8);
        // `run` keeps its meaning: nothing is reset, counters accumulate.
        count_to(&pool, 4);
        assert_eq!(pool.stats().total_tasks(), 9);

        let untraced = Pool::new(PoolConfig::nabbitc(2));
        assert!(untraced
            .run_measured(ColorSet::all(2), |_| {})
            .trace
            .is_none());
    }

    #[test]
    fn a_worker_that_never_got_work_reports_the_job_as_its_first_work_wait() {
        // One task and two workers: the second spends the whole job looking
        // for work and says so on its way out — after the job's last task,
        // which is when `submit` returns. `run_measured` reads the
        // statistics once that worker has left the loop; read any earlier,
        // its wait is still the reset value 0, the best Fig 9 reading for
        // the worst case. The root holds until the other worker is in the
        // job, so every round has such a worker.
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(2)));
        for round in 0..20 {
            let (p, opened) = (pool.clone(), Instant::now());
            let job = pool.run_measured(ColorSet::all(2), move |ctx| {
                let other = 1 - ctx.worker_id();
                while p.stats().workers[other].first_steal_checks == 0
                    && opened.elapsed() < Duration::from_secs(5)
                {
                    std::thread::yield_now();
                }
            });
            let looked_on = job
                .stats
                .workers
                .iter()
                .find(|w| w.tasks_executed == 0)
                .expect("one task, two workers");
            assert!(looked_on.first_steal_checks > 0, "round {round}");
            assert!(
                looked_on.first_work_wait_ns > 0 && looked_on.idle_ns > 0,
                "round {round}: {looked_on:?}"
            );
        }
    }

    #[test]
    fn steady_state_spawns_are_allocation_free() {
        // A sequential spawn chain on one worker: after the first couple
        // of tasks warm the free list, every spawn must reuse a recycled
        // shell — the "zero per-task allocations in steady state" claim,
        // asserted through the arena hit counter.
        const N: u64 = 1_000;
        let pool = Pool::new(PoolConfig::nabbitc(1));
        pool.reset_stats();
        let counter = Arc::new(StdAtomicU64::new(0));
        let c = counter.clone();
        fn chain(ctx: &mut WorkerContext<'_>, left: u64, c: Arc<StdAtomicU64>) {
            c.fetch_add(1, Ordering::SeqCst);
            if left > 0 {
                let c2 = c.clone();
                ctx.spawn(ColorSet::all(1), move |ctx| chain(ctx, left - 1, c2));
            }
        }
        pool.run(ColorSet::all(1), move |ctx| chain(ctx, N, c));
        assert_eq!(counter.load(Ordering::SeqCst), N + 1);

        let stats = pool.stats();
        let (hits, misses) = (stats.total_arena_hits(), stats.total_arena_misses());
        // N spawns + 1 injector adopt; only the cold start may allocate.
        assert_eq!(hits + misses, N + 1);
        assert!(
            misses <= 2,
            "steady-state spawn path allocated {misses} times (expected <= 2 warmup allocations)"
        );
    }

    #[test]
    fn spawn_batch_publishes_all_tasks() {
        let pool = Pool::new(PoolConfig::nabbitc(4));
        let counter = Arc::new(StdAtomicU64::new(0));
        let c = counter.clone();
        pool.run(ColorSet::all(4), move |ctx| {
            let colors = ColorSet::all(4);
            let mut batch = ctx.spawn_batch();
            assert!(batch.is_empty());
            for i in 0..100u64 {
                let c2 = c.clone();
                batch.add(colors, move |_| {
                    c2.fetch_add(i + 1, Ordering::SeqCst);
                });
            }
            assert_eq!(batch.len(), 100);
            batch.publish();
            // An empty batch publishes nothing (and must not deadlock
            // the pending accounting).
            ctx.spawn_batch().publish();
        });
        assert_eq!(counter.load(Ordering::SeqCst), (1..=100).sum::<u64>());
    }

    #[test]
    fn batch_steal_counters_track_multi_task_steals() {
        // Wide fanout from one root, all of it on the root worker's
        // deque. The steal window is a condition, not a duration: no task
        // finishes until a second worker has started one, and that worker
        // can only have got it by stealing from a deque still holding
        // most of the batch — a steal-half of many tasks.
        let pool = Pool::new(PoolConfig::nabbitc(4));
        pool.reset_stats();
        for _ in 0..20 {
            let counter = Arc::new(StdAtomicU64::new(0));
            let ran: Arc<Vec<StdAtomicBool>> =
                Arc::new((0..4).map(|_| StdAtomicBool::new(false)).collect());
            // Bounded per round, so a pool that cannot steal fails the
            // assertion below instead of hanging.
            let opened = Instant::now();
            let c = counter.clone();
            pool.run(ColorSet::all(4), move |ctx| {
                let colors = ColorSet::all(4);
                let mut batch = ctx.spawn_batch();
                for _ in 0..256 {
                    let (c2, ran) = (c.clone(), ran.clone());
                    batch.add(colors, move |ctx| {
                        ran[ctx.worker_id()].store(true, Ordering::SeqCst);
                        while ran.iter().filter(|r| r.load(Ordering::SeqCst)).count() < 2
                            && opened.elapsed() < Duration::from_secs(2)
                        {
                            std::thread::yield_now();
                        }
                        c2.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::SeqCst), 256);
        }
        let stats = pool.stats();
        let batched = stats.total_batch_stolen_tasks();
        let batch_ops: u64 = stats.workers.iter().map(|w| w.batch_steals).sum();
        assert!(
            batch_ops > 0 && batched >= 2 * batch_ops,
            "expected some steal-half batches (got {batch_ops} ops, {batched} tasks)"
        );
    }

    #[test]
    fn worker_context_identity() {
        let pool = Pool::new(PoolConfig::nabbitc(3));
        let ids = Arc::new(Mutex::new(Vec::new()));
        let ids2 = ids.clone();
        pool.run(ColorSet::all(3), move |ctx| {
            ids2.lock()
                .push((ctx.worker_id(), ctx.color(), ctx.workers()));
        });
        let v = ids.lock();
        assert_eq!(v.len(), 1);
        let (w, c, n) = v[0];
        assert_eq!(n, 3);
        assert!(w < 3);
        assert_eq!(c, Color::from(w));
    }
}
