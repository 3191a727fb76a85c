//! Integration tests for the pool's observability surface: statistics
//! reset semantics, mid-run snapshot consistency, and event tracing.

use nabbitc_color::ColorSet;
use nabbitc_runtime::trace::EventRing;
use nabbitc_runtime::{Pool, PoolConfig, TraceConfig, TraceEventKind, WorkerContext};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Runs a job that executes exactly `1 + leaves` tasks (root + spawned
/// leaves), returning how many leaf bodies ran.
fn run_fanout(pool: &Pool, leaves: u64) -> u64 {
    let counter = Arc::new(AtomicU64::new(0));
    let c = counter.clone();
    let colors = ColorSet::all(pool.workers());
    pool.run(colors, move |ctx: &mut WorkerContext<'_>| {
        for _ in 0..leaves {
            let c2 = c.clone();
            ctx.spawn(colors, move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    counter.load(Ordering::SeqCst)
}

#[test]
fn stats_do_not_bleed_between_runs() {
    let pool = Pool::new(PoolConfig::nabbitc(2));
    assert_eq!(run_fanout(&pool, 64), 64);
    let first = pool.stats();
    // Task counts are deterministic: the root plus 64 leaves.
    assert_eq!(first.total_tasks(), 65);

    pool.reset_stats();
    let cleared = pool.stats();
    for w in &cleared.workers {
        assert_eq!(*w, Default::default(), "reset left residue: {w:?}");
    }

    // A second identical run on the reused pool must report exactly the
    // same totals — no bleed-through from the first run's counters
    // (tasks, steal counts, idle_ns, first_work_wait_ns).
    assert_eq!(run_fanout(&pool, 64), 64);
    let second = pool.stats();
    assert_eq!(second.total_tasks(), 65);
    for w in &second.workers {
        assert!(
            w.colored_steals <= w.colored_steal_attempts,
            "colored {w:?}"
        );
        assert!(w.random_steals <= w.random_steal_attempts, "random {w:?}");
    }
}

#[test]
fn reset_between_runs_clears_time_counters() {
    let pool = Pool::new(PoolConfig::nabbitc(2));
    run_fanout(&pool, 32);
    // Multi-worker runs accrue some idle or first-work wait time. After a
    // reset both must read zero until the next run.
    pool.reset_stats();
    let s = pool.stats();
    assert!(s.workers.iter().all(|w| w.idle_ns == 0));
    assert!(s.workers.iter().all(|w| w.first_work_wait_ns == 0));
    assert_eq!(s.avg_first_work_wait_s(), 0.0);
}

#[test]
fn mid_run_snapshots_are_internally_consistent() {
    // Poll stats while a job is executing: per worker and per steal kind,
    // an observed success must never outrun its attempt counter (the
    // Release/Acquire pairing between steal_round and snapshot()).
    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(4)));
    let done = Arc::new(AtomicBool::new(false));
    let runner = {
        let pool = pool.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            for _ in 0..20 {
                run_fanout(&pool, 500);
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    let mut polls = 0u32;
    while !done.load(Ordering::SeqCst) {
        let s = pool.stats();
        for w in &s.workers {
            assert!(
                w.colored_steals <= w.colored_steal_attempts,
                "mid-run: colored steals {} > attempts {}",
                w.colored_steals,
                w.colored_steal_attempts
            );
            assert!(
                w.random_steals <= w.random_steal_attempts,
                "mid-run: random steals {} > attempts {}",
                w.random_steals,
                w.random_steal_attempts
            );
        }
        polls += 1;
        // Keep the 1-CPU container's runner thread making progress.
        std::thread::yield_now();
    }
    assert!(polls > 0);
    runner.join().unwrap();
}

#[test]
fn disabled_tracing_yields_empty_snapshot() {
    let pool = Pool::new(PoolConfig::nabbitc(2));
    assert!(!pool.tracing_enabled());
    run_fanout(&pool, 16);
    let trace = pool.trace_snapshot();
    assert_eq!(trace.total_events(), 0);
    assert!(trace.workers.is_empty());
}

#[test]
fn enabled_tracing_records_the_job() {
    let pool = Pool::new(PoolConfig::nabbitc(2).with_trace(TraceConfig::enabled()));
    assert!(pool.tracing_enabled());
    run_fanout(&pool, 64);
    let trace = pool.trace_snapshot();
    assert_eq!(trace.workers.len(), 2);
    assert_eq!(trace.total_dropped(), 0, "default capacity must not wrap");

    // Execution events: root + 64 leaves, each with a begin and an end.
    let execs: Vec<_> = trace
        .workers
        .iter()
        .flat_map(|w| &w.events)
        .filter(|e| e.kind == TraceEventKind::ExecBegin)
        .collect();
    let ends = trace
        .workers
        .iter()
        .flat_map(|w| &w.events)
        .filter(|e| e.kind == TraceEventKind::ExecEnd)
        .count();
    assert_eq!(execs.len(), 65);
    assert_eq!(ends, 65);

    // Every executed task carries a distinct nonzero id, and the spawned
    // ones were announced by a Spawn event with the same id.
    let mut ids: Vec<u64> = execs.iter().map(|e| e.arg).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 65, "task ids must be unique");
    assert!(ids.iter().all(|&id| id > 0));
    let spawns = trace
        .workers
        .iter()
        .flat_map(|w| &w.events)
        .filter(|e| e.kind == TraceEventKind::Spawn)
        .count();
    assert_eq!(spawns, 64, "one spawn event per leaf");

    // Summaries agree with the event stream and stats.
    let summaries = trace.summaries();
    let total_execs: u64 = summaries.iter().map(|s| s.execs).sum();
    assert_eq!(total_execs, 65);
    assert_eq!(total_execs, pool.stats().total_tasks());

    // A steal search is one span: a success lies inside an open idle
    // episode and ends it, and the exit that closes the episode carries
    // the attempts it took (at least the one that succeeded).
    for w in &trace.workers {
        let mut open = false;
        let mut succeeded = false;
        for e in &w.events {
            match e.kind {
                TraceEventKind::IdleEnter => {
                    assert!(!open, "idle episodes do not nest");
                    (open, succeeded) = (true, false);
                }
                TraceEventKind::StealSuccess => {
                    assert!(open && !succeeded, "a success outside an idle episode");
                    succeeded = true;
                }
                TraceEventKind::IdleExit => {
                    assert!(open, "an exit without its enter");
                    assert!(e.aux <= e.arg, "declined more probes than it made: {e:?}");
                    assert!(!succeeded || e.arg >= 1, "a success in no attempts: {e:?}");
                    open = false;
                }
                _ => assert!(!open, "{:?} inside an idle episode", e.kind),
            }
        }
    }

    // The Chrome export round-trips the basics.
    let json = pool.trace_snapshot().chrome_trace_json();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"name\":\"task\""));

    // Reset clears the rings and restarts task ids from 1.
    pool.reset_trace();
    assert_eq!(pool.trace_snapshot().total_events(), 0);
    run_fanout(&pool, 4);
    let again = pool.trace_snapshot();
    let max_id = again
        .workers
        .iter()
        .flat_map(|w| &w.events)
        .filter(|e| e.kind == TraceEventKind::ExecBegin)
        .map(|e| e.arg)
        .max()
        .unwrap();
    assert!(max_id <= 5, "task ids must restart after reset_trace");
}

#[test]
fn steal_search_spans_add_up_to_the_attempt_counters() {
    // The trace has no per-attempt event: what a worker's steal searches
    // did is carried by the `IdleExit` closing each idle episode, and over
    // a job observed alone (`run_measured` reads both after the last worker
    // has left the job loop) the spans add up to `PoolStats` exactly. The
    // root holds until a leaf has run on the other worker, so the job has
    // at least one successful search in it.
    let pool = Pool::new(PoolConfig::nabbitc(2).with_trace(TraceConfig::enabled()));
    let colors = ColorSet::all(2);
    for _ in 0..5 {
        let stolen = Arc::new(AtomicBool::new(false));
        let opened = std::time::Instant::now();
        let job = pool.run_measured(colors, move |ctx: &mut WorkerContext<'_>| {
            let root = ctx.worker_id();
            for _ in 0..64 {
                let stolen = stolen.clone();
                ctx.spawn(colors, move |ctx| {
                    if ctx.worker_id() != root {
                        stolen.store(true, Ordering::SeqCst);
                    }
                });
            }
            while !stolen.load(Ordering::SeqCst) && opened.elapsed().as_secs() < 5 {
                std::thread::yield_now();
            }
        });
        let trace = job.trace.expect("the pool traces");
        assert_eq!(trace.total_dropped(), 0, "default capacity must not wrap");
        assert!(job.stats.total_successful_steals() > 0);
        for (s, w) in trace.summaries().iter().zip(&job.stats.workers) {
            assert_eq!(s.steal_attempts, w.steal_attempts(), "worker {}", s.worker);
            assert_eq!(s.steal_successes, w.successful_steals());
            assert_eq!(s.execs, w.tasks_executed);
            assert!(s.steal_declined <= s.steal_attempts);
            assert!(s.steal_declined >= w.first_steal_declined);
            let events = &trace.workers[s.worker].events;
            let exits = events.iter().filter(|e| e.kind == TraceEventKind::IdleExit);
            assert_eq!(exits.count() as u64, s.idle_periods, "an episode left open");
        }
    }
}

// Property tests for the seqlock ring protocol itself, across many
// capacities and write volumes. Each pushed event encodes its sequence
// number in `ts`, `arg` and `aux` (and `arg % 7` in `color`): any torn
// read — a record mixing two writes — breaks at least one of the
// equalities.
proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn seqlock_ring_is_never_torn_under_a_concurrent_writer(
        capacity in 0usize..192,
        writes in 1u64..30_000,
        snapshots in 1usize..60,
    ) {
        let ring = Arc::new(EventRing::new(capacity));
        let writer = {
            let ring = ring.clone();
            std::thread::spawn(move || {
                for i in 0..writes {
                    ring.push(i, TraceEventKind::Spawn, false, Some((i % 7) as u16), i, i);
                    if i % 512 == 0 {
                        // Let the snapshotter overlap the write window on
                        // single-CPU machines too.
                        std::thread::yield_now();
                    }
                }
            })
        };
        for _ in 0..snapshots {
            // A racing writer may lap the window (a slot re-read after
            // overwrite legitimately holds a *newer* event), so intra-
            // snapshot ordering is not asserted here — only that every
            // retained record is internally consistent (never torn) and
            // is one the writer actually produced.
            let snap = ring.snapshot(0, 0);
            for e in &snap.events {
                prop_assert!(e.ts_ns == e.arg, "torn slot (ts != arg): {:?}", e);
                prop_assert!(e.aux == e.arg, "torn slot (aux != arg): {:?}", e);
                prop_assert!(
                    e.color == Some((e.arg % 7) as u16),
                    "torn slot (color mismatch): {:?}",
                    e
                );
                prop_assert!(e.arg < writes, "fabricated event: {:?}", e);
            }
            std::thread::yield_now();
        }
        writer.join().unwrap();
        prop_assert_eq!(ring.recorded(), writes);
    }

    #[test]
    fn drop_oldest_retains_exactly_the_newest_capacity_events(
        capacity in 0usize..192,
        writes in 1u64..2_000,
    ) {
        // Quiescent check: after `writes` pushes, the window must hold
        // exactly the newest `min(cap, writes)` events, consecutively
        // and in order.
        let ring = EventRing::new(capacity);
        let cap = capacity.max(16).next_power_of_two() as u64;
        for i in 0..writes {
            ring.push(i, TraceEventKind::Spawn, false, None, i, 0);
        }
        let snap = ring.snapshot(0, 0);
        let expect_len = writes.min(cap);
        prop_assert_eq!(snap.recorded, writes);
        prop_assert_eq!(snap.dropped, writes.saturating_sub(cap));
        prop_assert_eq!(snap.events.len() as u64, expect_len);
        let first = writes - expect_len;
        for (i, e) in snap.events.iter().enumerate() {
            prop_assert!(e.arg == first + i as u64, "window not contiguous at {}: {:?}", i, e);
            prop_assert!(e.ts_ns == e.arg, "torn slot: {:?}", e);
        }
    }
}

/// Sequential spawn chain: each task spawns the next, so on one worker
/// every task's shell is recycled into the arena before the next spawn
/// allocates — the maximum-reuse shape for the free list.
fn chain(ctx: &mut WorkerContext<'_>, left: u64, colors: ColorSet, counter: Arc<AtomicU64>) {
    counter.fetch_add(1, Ordering::SeqCst);
    if left > 0 {
        let c2 = counter.clone();
        ctx.spawn(colors, move |ctx| chain(ctx, left - 1, colors, c2));
    }
}

#[test]
fn recycled_task_shells_never_reuse_trace_ids() {
    // Arena recycling hands the same `Task` shell to many logical tasks;
    // `Task::clear` must wipe the old id so a traced run still shows a
    // distinct nonzero id per execution.
    let pool = Pool::new(PoolConfig::nabbitc(1).with_trace(TraceConfig::with_capacity(1 << 12)));
    const CHAIN: u64 = 300;
    let counter = Arc::new(AtomicU64::new(0));
    let c = counter.clone();
    let colors = ColorSet::all(1);
    pool.run(colors, move |ctx: &mut WorkerContext<'_>| {
        chain(ctx, CHAIN, colors, c)
    });
    assert_eq!(counter.load(Ordering::SeqCst), CHAIN + 1);
    assert!(
        pool.stats().total_arena_hits() > 0,
        "the chain must actually exercise shell recycling"
    );

    let trace = pool.trace_snapshot();
    let mut ids: Vec<u64> = trace
        .workers
        .iter()
        .flat_map(|w| &w.events)
        .filter(|e| e.kind == TraceEventKind::ExecBegin)
        .map(|e| e.arg)
        .collect();
    assert_eq!(ids.len() as u64, CHAIN + 1);
    let executed = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), executed, "a recycled shell reused a trace id");
    assert!(ids.iter().all(|&id| id > 0));
}

#[test]
fn timestamps_are_monotonic_within_a_worker() {
    let pool = Pool::new(PoolConfig::nabbitc(2).with_trace(TraceConfig::with_capacity(1 << 12)));
    run_fanout(&pool, 128);
    let trace = pool.trace_snapshot();
    for w in &trace.workers {
        for pair in w.events.windows(2) {
            assert!(
                pair[0].ts_ns <= pair[1].ts_ns,
                "worker {} timestamps out of order",
                w.worker
            );
        }
        // Domain annotation comes from the pool topology (UMA here).
        assert!(w.events.iter().all(|e| e.domain == 0));
    }
}

#[test]
fn tiny_ring_drops_oldest_but_keeps_counting() {
    let pool = Pool::new(PoolConfig::nabbitc(1).with_trace(TraceConfig::with_capacity(16)));
    run_fanout(&pool, 200);
    let trace = pool.trace_snapshot();
    // 200 spawns + 201 begin/end pairs overflow a 16-slot ring many times
    // over; the recorded total still counts every event.
    assert!(trace.total_recorded() > 400);
    assert_eq!(trace.total_events(), 16);
    assert_eq!(
        trace.total_dropped(),
        trace.total_recorded() - 16,
        "dropped must account for everything not retained"
    );
}

#[test]
fn chrome_export_stays_balanced_after_ring_drops() {
    // A chain on one worker records begin / spawn / end per task, so three
    // consecutive lengths put the 16-slot window's first retained event
    // at all three phases — one of them an `ExecEnd` whose `ExecBegin`
    // was overwritten. The export must leave that end out.
    let mut orphaned_ends = 0;
    for length in 50..53 {
        let pool = Pool::new(PoolConfig::nabbitc(1).with_trace(TraceConfig::with_capacity(16)));
        let colors = ColorSet::all(1);
        let counter = Arc::new(AtomicU64::new(0));
        pool.run(colors, move |ctx: &mut WorkerContext<'_>| {
            chain(ctx, length, colors, counter)
        });
        let trace = pool.trace_snapshot();
        assert!(trace.total_dropped() > 0, "the ring must have wrapped");
        let first = trace.workers[0]
            .events
            .iter()
            .find(|e| matches!(e.kind, TraceEventKind::ExecBegin | TraceEventKind::ExecEnd));
        if first.is_some_and(|e| e.kind == TraceEventKind::ExecEnd) {
            orphaned_ends += 1;
        }

        let json = trace.chrome_trace_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // One worker, one `tid`: in file order the B/E depth of that
        // thread never goes negative.
        let mut depth = 0i64;
        for event in json.split("{\"name\":").skip(1) {
            assert!(event.contains("\"tid\":0"), "{event}");
            if event.contains("\"ph\":\"B\"") {
                depth += 1;
            } else if event.contains("\"ph\":\"E\"") {
                depth -= 1;
                assert!(depth >= 0, "an E without its B in:\n{json}");
            }
        }
    }
    assert!(
        orphaned_ends > 0,
        "no retained window began with an orphaned end; the test lost its teeth"
    );
}
