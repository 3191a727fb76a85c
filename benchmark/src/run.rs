//! One workload, one process: the end-to-end run (`--trace 0`) and the
//! per-layer run (`--trace 1`).
//!
//! Both are a closed loop with one client: the next graph execution starts
//! when the previous one returned and was verified. The end-to-end run has
//! every tracing and counting option off; the per-layer run measures each
//! layer on the same input, with its own pools, and writes the trace.

use crate::cli::Options;
use crate::json::Json;
use crate::kernel::{graph_hash, Kernel};
use crate::layers::{self, Effort};
use crate::metrics::Values;
use crate::spans::Spans;
use crate::stats::{block_tail, median, Sorted};
use crate::workloads::{make_pool, prepare, ExecKind, Harness, Observe, Op, Prepared, Workload};
use nabbitc_graph::NodeId;
use nabbitc_runtime::PoolStats;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a run reports.
pub struct Outcome {
    /// Operations run and verified (executor operations and serial walks),
    /// and how many failed.
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Sample counts, quartiles and the like, for the results file.
    pub detail: Json,
}

/// Spin counts are divided by this in smoke runs.
fn grain_div(o: &Options) -> u64 {
    if o.smoke {
        8
    } else {
        1
    }
}

/// Runs operations until a time limit, within a minimum and a maximum
/// count; smoke runs do exactly `smoke_ops`.
struct Budget {
    deadline: Instant,
    min: usize,
    max: usize,
}

impl Budget {
    fn new(o: &Options, limit: Duration, min: usize, max: usize, smoke_ops: usize) -> Self {
        Budget {
            deadline: Instant::now() + limit,
            min: if o.smoke { smoke_ops } else { min },
            max: if o.smoke { smoke_ops } else { max },
        }
    }

    /// A budget of `share` of the run's `--seconds`, at least `min`
    /// operations.
    fn share(o: &Options, share: f64, min: usize, smoke_ops: usize) -> Self {
        let limit = Duration::from_secs_f64(o.seconds * share);
        Budget::new(o, limit, min, usize::MAX, smoke_ops)
    }

    fn more(&self, done: usize) -> bool {
        done < self.min || (done < self.max && Instant::now() < self.deadline)
    }
}

/// Verified operations and their wall times; failed ones are counted, not
/// timed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts `op`; returns it if it verified.
    fn take(&mut self, op: Op) -> Option<Op> {
        self.attempted += 1;
        if op.ok {
            Some(op)
        } else {
            self.failed += 1;
            None
        }
    }

    /// A serial walk whose vector differs from the first one's means the
    /// reference itself is unstable: counted as a failed operation.
    fn serial(&mut self, kernel: &Kernel, node: impl Fn(&Kernel, NodeId)) -> Option<f64> {
        let took = kernel.serial_walk(node);
        self.attempted += 1;
        if kernel.verify() {
            Some(ms(took))
        } else {
            self.failed += 1;
            None
        }
    }
}

/// Splits off the operations during which the OS kept the workers off the
/// CPUs (see `WorkerThreads`): they are verified and counted but not timed,
/// unless that would leave less than half of them; then the host is what it
/// is and everything counts. Returns the operations to time and how many
/// were starved.
fn drop_starved<T>(ops: Vec<(T, bool)>) -> (Vec<T>, usize) {
    let starved = ops.iter().filter(|op| op.1).count();
    let keep_all = starved * 2 > ops.len();
    if keep_all {
        eprintln!(
            "benchmark: {starved} of {} operations waited for a CPU; timing all of them",
            ops.len()
        );
    }
    let timed = ops
        .into_iter()
        .filter(|op| keep_all || !op.1)
        .map(|op| op.0)
        .collect();
    (timed, starved)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn quartiles(s: &Sorted) -> Json {
    Json::obj([
        ("n", Json::Num(s.len() as f64)),
        ("min", Json::Num(s.quantile(0.0))),
        ("q1", Json::Num(s.quantile(0.25))),
        ("p50", Json::Num(s.median())),
        ("q3", Json::Num(s.quantile(0.75))),
    ])
}

/// The end-to-end run is cut into this many epochs, each a burst of cold
/// set-ups followed by its share of the timed operations.
///
/// The bursts are spread over the run for `setup_s`, which is the fastest of
/// all the set-ups. Set-up is allocation-heavy single-thread work, and a few
/// virtual CPUs of a shared machine run such work up to 1.45× slower for
/// anything from 20 ms to minutes at a time, with no CPU wait or steal time
/// to show for it (5.3 against 7.7 ms on `heat-fine`); spin kernels hardly
/// feel it. The noise is one-sided and can cover nine tenths of a run: over
/// ten runs in such a period the tenth percentile of ≈ 200 set-ups ranged
/// 1.30-1.85 ms on `heat-coarse`; over the next ten the fastest had a median
/// of 1.31 ms, the quiet host's value.
const EPOCHS: usize = 5;

/// The end-to-end run: [`EPOCHS`] epochs, each a burst of cold set-ups, a
/// warm-up, and executor operations at `W` workers interleaved with serial
/// walks for its share of `seconds`.
pub fn end_to_end(w: &Workload, cfg: &Options) -> Outcome {
    let epochs = if cfg.smoke { 1 } else { EPOCHS };
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    // ((total, coloring), starved) per verified operation.
    let mut ops = Vec::new();
    let mut serial_ms = Vec::new();
    let mut current: Option<(Prepared, Harness)> = None;
    let mut peak_rss = None;
    for _ in 0..epochs {
        // Cold set-ups: generate the input, build the graph, start the
        // pool, construct the executor. The previous input is freed and the
        // previous pool joined outside the timed region. Up to 40 per
        // epoch, at least 5, within about 0.5 s; the last one's input and
        // executor are the epoch's.
        let burst = Budget::new(cfg, Duration::from_millis(500), 5, 40, 1);
        let setups_before = setups.len();
        while burst.more(setups.len() - setups_before) {
            drop(current.take());
            let started = Instant::now();
            let input = prepare(w, cfg.workers, cfg.seed, grain_div(cfg));
            let pool = make_pool(cfg.workers, cfg.seed, false);
            let harness = Harness::new(&input, w.exec, pool, Observe::default());
            setups.push(started.elapsed().as_secs_f64());
            current = Some((input, harness));
        }
        let (input, harness) = current.as_ref().expect("at least one set-up");
        let kernel = &input.kernel;

        // The reference vector, and warm caches, arenas and branch
        // predictors: users pay neither on every operation.
        tally.serial(kernel, Kernel::run_node);
        tally.take(harness.op());

        let share = Budget::share(cfg, 1.0 / epochs as f64, 1, 2);
        let ops_before = ops.len();
        while share.more(ops.len() - ops_before) {
            // The serial walk is sampled between executor operations so
            // machine drift hits both sides of the speedup.
            serial_ms.extend(tally.serial(kernel, Kernel::run_node));
            for _ in 0..w.ops_per_serial {
                ops.extend(
                    tally
                        .take(harness.op())
                        .map(|op| ((ms(op.total), ms(op.coloring)), op.starved(cfg.workers))),
                );
            }
        }
        // Peak memory of a process that set up and ran: read after the
        // first epoch. Every later epoch starts W new threads, glibc gives
        // new threads other arenas, and how many arenas end up holding
        // freed per-node allocations is the benchmark's doing, not the
        // program's (`heat-fine-ondemand`, ten runs: 11.5-13.5 MiB at the
        // end of the run).
        peak_rss.get_or_insert_with(peak_rss_mib);
    }
    let (input, _) = current.as_ref().expect("at least one epoch");
    let nodes = input.graph.node_count() as f64;
    let setups = Sorted::new(setups);
    let (ops, starved) = drop_starved(ops);
    let exec_ms: Vec<f64> = ops.iter().map(|op| op.0).collect();
    let color_ms = ops.iter().map(|op| op.1).collect();

    let (tail_pct, tail_ms) = block_tail(&exec_ms);
    let exec = Sorted::new(exec_ms);
    let serial = Sorted::new(serial_ms);
    let p50 = exec.median();
    let per = |x: f64| if p50 > 0.0 { x / p50 } else { 0.0 };

    let mut values = Values::default();
    values.set("setup_s", setups.quantile(0.0));
    values.set("exec_p50_ms", p50);
    values.set("exec_tail_ms", tail_ms);
    values.set("nodes_per_s", per(nodes * 1e3));
    values.set("speedup_vs_serial", per(serial.median()));
    values.set("peak_rss_mb", peak_rss.unwrap_or_default());

    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        detail: Json::obj([
            ("nodes", Json::Num(nodes)),
            (
                "graph_hash",
                Json::str(format!("{:016x}", graph_hash(&input.graph))),
            ),
            ("epochs", Json::Num(epochs as f64)),
            ("setup_s", quartiles(&setups)),
            ("starved_ops", Json::Num(starved as f64)),
            ("peak_rss_end_mb", Json::Num(peak_rss_mib())),
            ("exec_ms", quartiles(&exec)),
            ("color_ms", quartiles(&Sorted::new(color_ms))),
            ("serial_ms", quartiles(&serial)),
            ("tail_percentile", Json::Num(tail_pct)),
        ]),
    }
}

/// Sums and ratios of one operation's `PoolStats`.
struct StatsRow {
    steal_attempts: f64,
    steal_successes: f64,
    batch_stolen_tasks: f64,
    arena_hit_ratio: f64,
    tasks_executed: f64,
    idle_s: f64,
    first_work_wait_ms: f64,
}

impl StatsRow {
    fn of(stats: &PoolStats) -> Self {
        let sum = |f: fn(&nabbitc_runtime::WorkerStatsSnapshot) -> u64| {
            stats.workers.iter().map(f).sum::<u64>() as f64
        };
        let arena = (stats.total_arena_hits() + stats.total_arena_misses()).max(1) as f64;
        StatsRow {
            steal_attempts: sum(|w| w.steal_attempts()),
            steal_successes: sum(|w| w.successful_steals()),
            batch_stolen_tasks: stats.total_batch_stolen_tasks() as f64,
            arena_hit_ratio: stats.total_arena_hits() as f64 / arena,
            tasks_executed: stats.total_tasks() as f64,
            idle_s: sum(|w| w.idle_ns) / 1e9,
            first_work_wait_ms: stats.avg_first_work_wait_s() * 1e3,
        }
    }
}

fn median_of<T>(rows: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&rows.iter().map(f).collect::<Vec<_>>())
}

/// Percent by which `with` exceeds `without` (0 when there is no baseline).
fn delta_pct(with: f64, without: f64) -> f64 {
    if without > 0.0 {
        (with / without - 1.0) * 100.0
    } else {
        0.0
    }
}

/// The per-layer run. Phases, each with its own pool(s), never more than
/// `W` worker threads alive:
///
/// 1. set-up and the traced set at `W` (event rings, `record_trace`,
///    `count_remote`, kernel wrapped in per-worker timers) → the kernel /
///    idle / overhead split, §V-B remote share, the trace file;
/// 2. one worker: serial walk, static and on-demand executor in turn, with
///    the workload's kernel and with the checksum-only kernel → per-node
///    executor overhead;
/// 3. `W` workers, options off / `count_remote` / `record_trace` in turn →
///    `PoolStats` medians and the option deltas;
/// 4. the layer calls on this input and the `runtime` microbenchmarks.
pub fn per_layer(w: &Workload, cfg: &Options) -> Outcome {
    let workers = cfg.workers;
    let mut spans = Spans::default();
    let mut v = Values::default();
    let mut tally = Tally::default();

    // Phase 1: set-up, traced.
    let setup = spans.enter("setup");
    let prepare_started = spans.now();
    let input = prepare(w, workers, cfg.seed, grain_div(cfg));
    spans.record("workloads.webgraph", prepare_started, input.webgraph);
    spans.record(
        "workloads.build",
        prepare_started + input.webgraph,
        input.build,
    );
    let pool_origin = spans.now();
    let (pool, _) = spans.time("runtime.pool_new", || make_pool(workers, cfg.seed, true));
    spans.exit(setup);
    v.set("workloads.build_ms", ms(input.build));
    v.set("workloads.webgraph_ms", ms(input.webgraph));

    let kernel = &input.kernel;
    let nodes = input.graph.node_count() as f64;
    tally.serial(kernel, Kernel::run_node);

    let traced = Harness::new(
        &input,
        w.exec,
        pool,
        Observe {
            record_trace: true,
            count_remote: true,
        },
    );
    struct TracedOp {
        total_ms: f64,
        kernel_s: f64,
        overhead_s: f64,
        overhead_pct: f64,
        remote_pct: f64,
    }
    let mut traced_ops = Vec::new();
    let mut last_trace = None;
    for _ in 0..if cfg.smoke { 2 } else { 5 } {
        let op_span = spans.enter("op");
        let started = spans.now();
        let k = kernel.clone();
        let op = traced.op_with(Arc::new(move |u: NodeId, worker: usize| {
            k.run_node_timed(u, worker)
        }));
        let kernel_s = kernel.kernel_time().as_secs_f64();
        if let Some(op) = tally.take(op) {
            if !op.coloring.is_zero() {
                spans.record("autocolor.select", started, op.coloring);
            }
            let executing = op.total - op.coloring;
            let execute = spans.record("core.execute", started + op.coloring, executing);
            // Self time of the execution, from outside: every worker is in
            // the kernel, in a steal round, or in executor/runtime code.
            let wall_s = workers as f64 * executing.as_secs_f64();
            let idle_s = StatsRow::of(&op.stats).idle_s;
            let overhead_s = wall_s - kernel_s - idle_s;
            spans.arg(execute, "kernel_s", kernel_s);
            spans.arg(execute, "idle_s", idle_s);
            spans.arg(execute, "overhead_s", overhead_s);
            let starved = op.starved(workers);
            spans.arg(execute, "starved", f64::from(u8::from(starved)));
            traced_ops.push((
                TracedOp {
                    total_ms: ms(op.total),
                    kernel_s,
                    overhead_s,
                    overhead_pct: if wall_s > 0.0 {
                        100.0 * overhead_s / wall_s
                    } else {
                        0.0
                    },
                    remote_pct: op.remote.pct_remote(),
                },
                starved,
            ));
            last_trace = op.runtime_trace;
        }
        spans.exit(op_span);
    }
    drop(traced);
    let (traced_ops, _) = drop_starved(traced_ops);
    let kernel_s = median_of(&traced_ops, |o| o.kernel_s);
    v.set("workloads.kernel_s", kernel_s);
    v.set(
        "core.sched_overhead_s",
        median_of(&traced_ops, |o| o.overhead_s),
    );
    v.set(
        "core.sched_overhead_pct",
        median_of(&traced_ops, |o| o.overhead_pct),
    );
    v.set("core.remote_pct", median_of(&traced_ops, |o| o.remote_pct));
    let trace = last_trace.unwrap_or_default();
    v.set(
        "runtime.trace.events_recorded",
        trace.total_recorded() as f64,
    );
    v.set("runtime.trace.events_dropped", trace.total_dropped() as f64);

    // Work inflation: the same timers around the serial walk's kernel.
    let serial_kernel_s = median(
        &(0..if cfg.smoke { 1 } else { 2 })
            .map(|_| {
                kernel.serial_walk(|k, u| k.run_node_timed(u, 0));
                kernel.kernel_time().as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    v.set(
        "workloads.kernel_inflation_pct",
        delta_pct(kernel_s, serial_kernel_s),
    );

    // Phase 2: one worker.
    let pool1 = make_pool(1, cfg.seed, false);
    let static1 = Harness::new(&input, ExecKind::Static, pool1.clone(), Observe::default());
    let dynamic1 = Harness::new(&input, ExecKind::OnDemand, pool1, Observe::default());
    let (mut serial_ms, mut static_ms, mut dynamic_ms) = (Vec::new(), Vec::new(), Vec::new());
    let budget = Budget::share(cfg, 0.35, 3, 1);
    while budget.more(serial_ms.len()) {
        serial_ms.extend(tally.serial(kernel, Kernel::run_node));
        static_ms.extend(tally.take(static1.op()).map(|op| ms(op.total)));
        dynamic_ms.extend(tally.take(dynamic1.op()).map(|op| ms(op.total)));
    }
    let serial_p50 = median(&serial_ms);
    let ns_per_node = |exec_ms: f64, serial_ms: f64| (exec_ms - serial_ms) * 1e6 / nodes;
    v.set("workloads.kernel_ns_per_node", serial_p50 * 1e6 / nodes);
    v.set(
        "core.static.p1_overhead_ns_per_node",
        ns_per_node(median(&static_ms), serial_p50),
    );
    v.set(
        "core.dynamic.p1_overhead_ns_per_node",
        ns_per_node(median(&dynamic_ms), serial_p50),
    );

    // Checksum-only kernel: what is left is the executor. Noisy by nature
    // (memory-bound), so the quartiles go into the detail.
    let (mut empty_serial, mut empty_static, mut empty_dynamic) =
        (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..if cfg.smoke { 2 } else { 20 } {
        let k = kernel.clone();
        let body = Arc::new(move |u: NodeId, _w: usize| k.checksum(u));
        empty_serial.extend(tally.serial(kernel, Kernel::checksum));
        empty_static.extend(
            tally
                .take(static1.op_with(body.clone()))
                .map(|op| ms(op.total)),
        );
        empty_dynamic.extend(tally.take(dynamic1.op_with(body)).map(|op| ms(op.total)));
    }
    let empty_serial_p50 = median(&empty_serial);
    let per_node = |samples: Vec<f64>| {
        Sorted::new(
            samples
                .into_iter()
                .map(|s| ns_per_node(s, empty_serial_p50))
                .collect(),
        )
    };
    let (empty_static, empty_dynamic) = (per_node(empty_static), per_node(empty_dynamic));
    v.set("core.static.empty_ns_per_node", empty_static.median());
    v.set("core.dynamic.empty_ns_per_node", empty_dynamic.median());
    drop((static1, dynamic1));

    // Phase 3: W workers, one pool, the options in turn.
    let pool = make_pool(workers, cfg.seed, false);
    let variant = |observe| Harness::new(&input, w.exec, pool.clone(), observe);
    let plain = variant(Observe::default());
    let counting = variant(Observe {
        count_remote: true,
        ..Observe::default()
    });
    // The on-demand executor has no per-node trace option.
    let recording = (w.exec != ExecKind::OnDemand).then(|| {
        variant(Observe {
            record_trace: true,
            ..Observe::default()
        })
    });
    let mut plain_ops = Vec::new();
    let (mut counting_ms, mut recording_ms) = (Vec::new(), Vec::new());
    let budget = Budget::share(cfg, 0.35, 3, 2);
    while budget.more(plain_ops.len()) {
        plain_ops.extend(tally.take(plain.op()).map(|op| {
            (
                (ms(op.total), ms(op.coloring), StatsRow::of(&op.stats)),
                op.starved(workers),
            )
        }));
        counting_ms.extend(tally.take(counting.op()).map(|op| ms(op.total)));
        if let Some(recording) = &recording {
            recording_ms.extend(tally.take(recording.op()).map(|op| ms(op.total)));
        }
    }
    drop((plain, counting, recording, pool));
    let (plain_ops, _) = drop_starved(plain_ops);
    let plain_p50 = median_of(&plain_ops, |o| o.0);
    let stat = |f: fn(&StatsRow) -> f64| median_of(&plain_ops, |o| f(&o.2));
    let (attempts, successes) = (stat(|s| s.steal_attempts), stat(|s| s.steal_successes));
    let tasks = stat(|s| s.tasks_executed);
    v.set("color_p50_ms", median_of(&plain_ops, |o| o.1));
    v.set("runtime.steal_attempts", attempts);
    v.set("runtime.steal_successes", successes);
    v.set(
        "runtime.steal_success_ratio",
        if attempts > 0.0 {
            successes / attempts
        } else {
            0.0
        },
    );
    v.set("runtime.batch_stolen_tasks", stat(|s| s.batch_stolen_tasks));
    v.set("runtime.arena_hit_ratio", stat(|s| s.arena_hit_ratio));
    v.set("runtime.tasks_executed", tasks);
    v.set("runtime.idle_s", stat(|s| s.idle_s));
    v.set("runtime.first_work_wait_ms", stat(|s| s.first_work_wait_ms));
    v.set(
        "core.nodes_per_task",
        if tasks > 0.0 { nodes / tasks } else { 0.0 },
    );
    v.set(
        "core.count_remote_delta_pct",
        delta_pct(median(&counting_ms), plain_p50),
    );
    v.set(
        "core.record_trace_delta_pct",
        if recording_ms.is_empty() {
            0.0
        } else {
            delta_pct(median(&recording_ms), plain_p50)
        },
    );
    v.set(
        "runtime.trace.overhead_pct",
        delta_pct(median_of(&traced_ops, |o| o.total_ms), plain_p50),
    );

    // Phase 4: the other layers on this input, then the runtime alone.
    let effort = if cfg.smoke {
        Effort::SMOKE
    } else {
        Effort::FULL
    };
    let layers_span = spans.enter("layers");
    let predicted = layers::on_graph(
        &input.graph,
        w.exec != ExecKind::Auto,
        workers,
        cfg.seed,
        if cfg.smoke { 1 } else { 3 },
        &mut spans,
        &mut v,
    );
    layers::runtime(effort, workers, &mut v);
    spans.exit(layers_span);
    let measured = if plain_p50 > 0.0 {
        serial_p50 / plain_p50
    } else {
        0.0
    };
    v.set(
        "numasim.pred_over_measured",
        if measured > 0.0 {
            predicted / measured
        } else {
            0.0
        },
    );
    v.set(
        "failed_ops_pct",
        100.0 * tally.failed as f64 / tally.attempted.max(1) as f64,
    );

    // Written when the run ends; a run that cannot write its trace still
    // reports its metrics.
    let path = cfg.out_dir.join(format!("trace_{}.json", w.name));
    let written = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&path, spans.chrome_trace_json(&trace, pool_origin)));
    if let Err(e) = written {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }

    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        values: v,
        detail: Json::obj([
            ("nodes", Json::Num(nodes)),
            ("traced_ops", Json::Num(traced_ops.len() as f64)),
            ("p1_rounds", Json::Num(serial_ms.len() as f64)),
            ("w_rounds", Json::Num(plain_ops.len() as f64)),
            ("measured_speedup", Json::Num(measured)),
            ("core.static.empty_ns_per_node", quartiles(&empty_static)),
            ("core.dynamic.empty_ns_per_node", quartiles(&empty_dynamic)),
            ("trace", Json::str(path.display().to_string())),
        ]),
    }
}
