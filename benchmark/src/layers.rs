//! Single-layer measurements: the `runtime` microbenchmarks (deque, spawn,
//! dispatch, pool construction) and the calls into `autocolor`,
//! `taskgraph`, `lint` and `numasim` on a workload's own graph.
//!
//! Every number is the median of `reps` repetitions. These are per-layer
//! metrics: they have no bound, and a change in one is read together with
//! the end-to-end metric it is expected to move (see README.md).

use crate::metrics::Values;
use crate::spans::Spans;
use crate::stats::median;
use nabbitc_autocolor::{
    apply_assignment, AutoSelect, BfsLocality, BlockContiguous, ColorAssigner, CpLevelAware,
    RecursiveBisection,
};
use nabbitc_color::{Color, ColorSet};
use nabbitc_cost::{CostModel, Topology};
use nabbitc_graph::analysis::{
    color_balance, edge_cut_fraction, estimate_makespan_colored_strict_on, level_profile,
};
use nabbitc_graph::{GraphBuilder, TaskGraph};
use nabbitc_lint::{lint_graph, LintConfig};
use nabbitc_numasim::{serial_ticks, simulate_ws, WsConfig};
use nabbitc_runtime::{
    ColoredDeque, NumaTopology, Pool, PoolConfig, Steal, StealPolicy, WorkerContext,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// How much work each microbenchmark does.
#[derive(Clone, Copy)]
pub struct Effort {
    /// Deque operations / spawned tasks per repetition.
    pub ops: usize,
    /// Repetitions of each measurement.
    pub reps: usize,
}

impl Effort {
    pub const FULL: Effort = Effort {
        ops: 50_000,
        reps: 5,
    };
    pub const SMOKE: Effort = Effort { ops: 512, reps: 1 };
}

/// Tasks per published batch: the order of a `spawn_colors` halving level.
const BATCH: usize = 32;

/// Median over `reps` runs of `f`, which returns one measurement.
fn med(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps.max(1)).map(|_| f()).collect::<Vec<_>>())
}

/// Wall time of `f` in nanoseconds.
fn ns(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

fn filled(ops: usize) -> ColoredDeque<u64> {
    let dq = ColoredDeque::new();
    for i in 0..ops {
        dq.push(Box::new(i as u64), ColorSet::singleton(Color(0)));
    }
    dq
}

/// Single-thread operation cost on `ColoredDeque`: instruction and fence
/// overhead, not contention (the model checker owns the races).
fn deque(e: Effort, out: &mut Values) {
    let colors = ColorSet::singleton(Color(0));
    let ops = (e.ops / BATCH).max(1) * BATCH;

    out.set(
        "runtime.deque.push_pop_ns",
        med(e.reps, || {
            ns(|| {
                let dq = filled(ops);
                for _ in 0..ops {
                    assert!(dq.pop().is_some());
                }
            }) / (2 * ops) as f64
        }),
    );
    out.set(
        "runtime.deque.push_batch_pop_ns",
        med(e.reps, || {
            ns(|| {
                let dq: ColoredDeque<u64> = ColoredDeque::new();
                for chunk in 0..ops / BATCH {
                    dq.push_batch(
                        (0..BATCH)
                            .map(|i| (Box::new((chunk * BATCH + i) as u64), colors))
                            .collect(),
                    );
                }
                for _ in 0..ops {
                    assert!(dq.pop().is_some());
                }
            }) / (2 * ops) as f64
        }),
    );
    out.set(
        "runtime.deque.steal_ns",
        med(e.reps, || {
            let dq = filled(ops);
            ns(|| {
                let mut taken = 0;
                loop {
                    match dq.steal() {
                        Steal::Success(_) => taken += 1,
                        Steal::Empty => break,
                        _ => {}
                    }
                }
                assert_eq!(taken, ops);
            }) / ops as f64
        }),
    );
    out.set(
        "runtime.deque.steal_batch_ns",
        med(e.reps, || {
            let dq = filled(ops);
            let dest: ColoredDeque<u64> = ColoredDeque::new();
            ns(|| {
                let mut taken = 0;
                loop {
                    match dq.steal_batch(&dest) {
                        (Steal::Success(_), moved) => {
                            taken += 1 + moved;
                            while dest.pop().is_some() {}
                        }
                        (Steal::Empty, _) => break,
                        _ => {}
                    }
                }
                assert_eq!(taken, ops);
            }) / ops as f64
        }),
    );
}

fn chain(ctx: &mut WorkerContext<'_>, left: usize, ran: Arc<AtomicU64>) {
    ran.fetch_add(1, Relaxed);
    if left > 0 {
        let r = ran.clone();
        ctx.spawn(ColorSet::singleton(Color(0)), move |ctx| {
            chain(ctx, left - 1, r)
        });
    }
}

#[derive(Clone, Copy)]
enum Shape {
    Chain,
    Wide,
    Batch,
}

/// Cost per task through `Pool::run` + `ctx.spawn` / `spawn_batch` on a
/// one-worker pool: spawn bookkeeping, deque traffic, execution and arena
/// recycling, with trivial task bodies.
fn spawn_ns_per_task(ops: usize, shape: Shape) -> f64 {
    let ops = (ops / BATCH).max(1) * BATCH;
    let pool = Pool::new(PoolConfig::nabbitc(1));
    let ran = Arc::new(AtomicU64::new(0));
    let r = ran.clone();
    let colors = ColorSet::singleton(Color(0));
    let elapsed = ns(|| {
        pool.run(ColorSet::all(1), move |ctx| match shape {
            Shape::Chain => chain(ctx, ops - 1, r),
            Shape::Wide => {
                for _ in 0..ops {
                    let r = r.clone();
                    ctx.spawn(colors, move |_| {
                        r.fetch_add(1, Relaxed);
                    });
                }
            }
            Shape::Batch => {
                for _ in 0..ops / BATCH {
                    let mut batch = ctx.spawn_batch();
                    for _ in 0..BATCH {
                        let r = r.clone();
                        batch.add(colors, move |_| {
                            r.fetch_add(1, Relaxed);
                        });
                    }
                    batch.publish();
                }
            }
        })
    });
    assert_eq!(ran.load(Relaxed), ops as u64);
    elapsed / ops as f64
}

fn pool_config(workers: usize) -> PoolConfig {
    PoolConfig::nabbitc(workers).with_topology(NumaTopology::new(workers, 1))
}

/// The `runtime` microbenchmarks. Pools are created and dropped one at a
/// time, so no more than `workers` worker threads exist at once.
pub fn runtime(e: Effort, workers: usize, out: &mut Values) {
    deque(e, out);
    for (name, shape) in [
        ("runtime.pool.spawn_chain_ns", Shape::Chain),
        ("runtime.pool.spawn_wide_ns", Shape::Wide),
        ("runtime.pool.spawn_batch_ns", Shape::Batch),
    ] {
        out.set(name, med(e.reps, || spawn_ns_per_task(e.ops, shape)));
    }

    out.set(
        "runtime.pool.new_ms",
        med(e.reps.max(3), || {
            ns(|| drop(black_box(Pool::new(pool_config(workers))))) / 1e6
        }),
    );

    // An empty job at W workers: wake, run the root, quiesce.
    let pool = Pool::new(pool_config(workers));
    let rounds = (e.ops / 50).max(4);
    out.set(
        "runtime.pool.dispatch_us",
        med(e.reps, || {
            ns(|| {
                for _ in 0..rounds {
                    pool.run(ColorSet::all(workers), |_| {});
                }
            }) / rounds as f64
                / 1e3
        }),
    );
}

/// `GraphBuilder::build` alone, on a builder refilled from `graph` through
/// the public accessors (the share of set-up spent validating and
/// compacting the graph).
fn rebuild_ms(graph: &TaskGraph) -> f64 {
    let mut b = GraphBuilder::with_capacity(graph.node_count(), graph.edge_count());
    for u in graph.nodes() {
        b.add_node(graph.work(u), graph.color(u), graph.accesses(u).to_vec());
    }
    for u in graph.nodes() {
        for &s in graph.successors(u) {
            b.add_edge(u, s);
        }
    }
    let started = Instant::now();
    let built = b.build().expect("a built graph rebuilds");
    let ms = started.elapsed().as_secs_f64() * 1e3;
    black_box(built);
    ms
}

/// `autocolor`, `taskgraph`, `lint` and `numasim` on `graph` (the
/// workload's input; its colors are stripped for the selector, as
/// `execute_auto` callers have none). `colored` is the coloring the
/// workload executes: the graph's own, or the selector's choice on
/// `pagerank-auto`. Returns the simulator's predicted speedup.
pub fn on_graph(
    graph: &TaskGraph,
    hand_colored: bool,
    workers: usize,
    seed: u64,
    reps: usize,
    spans: &mut Spans,
    out: &mut Values,
) -> f64 {
    let cost = CostModel::default();
    let topo = Topology::per_worker(workers);
    let mut bare = graph.clone();
    bare.strip_colors();

    // autocolor: the whole selection, then each portfolio member alone.
    let select = AutoSelect::default()
        .with_cost_model(cost.clone())
        .with_topology(topo.clone());
    let mut chosen = None;
    let select_ms = med(reps, || {
        let (result, took) = spans.time("autocolor.select", || select.select(&bare, workers));
        chosen = Some(result);
        took.as_secs_f64() * 1e3
    });
    let (colors, selection) = chosen.expect("at least one repetition");
    out.set("autocolor.select_ms", select_ms);
    out.set(
        "autocolor.select_us_per_knode",
        select_ms * 1e3 / (graph.node_count() as f64 / 1e3),
    );
    let members: [(&'static str, Box<dyn ColorAssigner>); 4] = [
        (
            "autocolor.recursive_bisection_ms",
            Box::new(RecursiveBisection::default()),
        ),
        (
            "autocolor.cp_level_aware_ms",
            Box::new(CpLevelAware::default().with_cost_model(cost.clone())),
        ),
        (
            "autocolor.bfs_locality_ms",
            Box::new(BfsLocality::default()),
        ),
        ("autocolor.block_contiguous_ms", Box::new(BlockContiguous)),
    ];
    for (name, member) in &members {
        out.set(
            name,
            med(reps, || {
                ns(|| drop(black_box(member.assign(&bare, workers)))) / 1e6
            }),
        );
    }

    // Quality of the chosen coloring: counts that repeat exactly for a seed.
    let mut auto_colored = bare.clone();
    apply_assignment(&mut auto_colored, &colors);
    out.set("autocolor.est_makespan", selection.chosen_estimate() as f64);
    out.set("autocolor.edge_cut_frac", edge_cut_fraction(&auto_colored));
    out.set(
        "autocolor.imbalance",
        color_balance(&auto_colored, workers).imbalance(),
    );

    // taskgraph: the estimator the selector scores with, and its level sweep.
    out.set(
        "taskgraph.estimate_strict_ms",
        med(reps, || {
            spans
                .time("taskgraph.estimate_strict", || {
                    black_box(estimate_makespan_colored_strict_on(
                        &bare, &colors, workers, &cost, &topo,
                    ))
                })
                .1
                .as_secs_f64()
                * 1e3
        }),
    );
    out.set(
        "taskgraph.level_profile_ms",
        med(reps, || ns(|| drop(black_box(level_profile(graph)))) / 1e6),
    );
    out.set("taskgraph.build_ms", med(reps, || rebuild_ms(graph)));

    // lint: the pre-flight gate execute_auto would run if it were on.
    out.set(
        "lint.lint_graph_ms",
        med(reps, || {
            spans
                .time("lint.lint_graph", || {
                    black_box(lint_graph(
                        &auto_colored,
                        workers,
                        &cost,
                        Some(&topo),
                        &LintConfig::default(),
                    ))
                })
                .1
                .as_secs_f64()
                * 1e3
        }),
    );

    // numasim: the prediction for the coloring the workload executes, on the
    // machine the pool models (one domain per worker).
    let executed = if hand_colored { graph } else { &auto_colored };
    let cfg = WsConfig {
        cores: workers,
        topology: NumaTopology::new(workers, 1),
        policy: StealPolicy::nabbitc(),
        cost: cost.clone(),
        seed,
    };
    let mut predicted = 0.0;
    out.set(
        "numasim.simulate_ms",
        med(reps, || {
            let (sim, took) = spans.time("numasim.simulate_ws", || simulate_ws(executed, &cfg));
            predicted = sim.speedup(serial_ticks(executed, &cost));
            took.as_secs_f64() * 1e3
        }),
    );
    out.set("numasim.predicted_speedup", predicted);
    predicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use nabbitc_graph::generate;

    #[test]
    fn runtime_microbenchmarks_set_every_runtime_micro_metric() {
        let mut out = Values::default();
        runtime(Effort::SMOKE, 1, &mut out);
        for m in PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("runtime.deque.") || m.name.starts_with("runtime.pool."))
        {
            let v = out
                .get(m.name)
                .unwrap_or_else(|| panic!("{} missing", m.name));
            assert!(v > 0.0 && v.is_finite(), "{} = {v}", m.name);
        }
    }

    #[test]
    fn graph_layers_repeat_their_counts_for_a_seed() {
        let g = generate::iterated_stencil(4, 64, 100, 2);
        let run = || {
            let mut out = Values::default();
            let predicted = on_graph(&g, true, 2, 5, 1, &mut Spans::default(), &mut out);
            (
                predicted,
                out.get("autocolor.est_makespan").unwrap(),
                out.get("autocolor.edge_cut_frac").unwrap(),
                out.get("autocolor.imbalance").unwrap(),
            )
        };
        let first = run();
        assert_eq!(first, run());
        assert!(first.0 > 0.0 && first.1 > 0.0);
    }
}
