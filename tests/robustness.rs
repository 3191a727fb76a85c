//! Malformed `TaskSpec`s: the on-demand executor must fail loudly on the
//! ones it cannot run, run the odd-but-legal ones correctly, and leave
//! the pool usable either way.

use nabbitc::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Keys `0..n`; key `k` depends on whatever `preds(k)` says.
struct Table {
    preds: fn(u32) -> Vec<u32>,
    computed: Vec<AtomicU32>,
}

impl Table {
    fn new(n: usize, preds: fn(u32) -> Vec<u32>) -> Arc<Self> {
        Arc::new(Table {
            preds,
            computed: (0..n).map(|_| AtomicU32::new(0)).collect(),
        })
    }

    fn counts(&self) -> Vec<u32> {
        self.computed
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .collect()
    }
}

impl TaskSpec for Table {
    type Key = u32;
    fn predecessors(&self, &k: &u32) -> Vec<u32> {
        (self.preds)(k)
    }
    fn color(&self, &k: &u32) -> Color {
        Color((k % 2) as u16)
    }
    fn compute(&self, &k: &u32, _worker: usize) {
        self.computed[k as usize].fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn cyclic_spec_fails_loudly_and_pool_survives() {
    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(2)));

    // 0 <- 1 <- 2 <- 0: nothing can ever run. The job drains and the
    // executor says what it knows instead of hanging or returning.
    let cycle = Table::new(3, |k| vec![(k + 1) % 3]);
    let exec = DynamicExecutor::new(pool.clone(), cycle.clone());
    let panic = catch_unwind(AssertUnwindSafe(|| exec.execute(0)))
        .expect_err("a cyclic spec must not return a report");
    let message = panic
        .downcast_ref::<String>()
        .expect("the panic carries a formatted message");
    for part in [
        "sink 0 did not complete",
        "3 nodes discovered",
        "0 computed",
        "predecessors() is cyclic or inconsistent",
    ] {
        assert!(message.contains(part), "{part:?} missing from: {message}");
    }
    assert_eq!(cycle.counts(), vec![0, 0, 0]);

    // The same pool runs the next job as if nothing had happened.
    let chain = Table::new(10, |k| if k == 0 { vec![] } else { vec![k - 1] });
    let report = DynamicExecutor::new(pool, chain.clone()).execute(9);
    assert_eq!(report.nodes_executed, 10);
    assert_eq!(chain.counts(), vec![1; 10]);
}

#[test]
fn a_predecessor_listed_twice_still_computes_every_node_once() {
    for workers in [1, 4] {
        // 3 lists 1 twice and 2 once; 1 and 2 both list 0 twice.
        let spec = Table::new(4, |k| match k {
            3 => vec![1, 2, 1],
            1 | 2 => vec![0, 0],
            _ => vec![],
        });
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));
        for round in 1..=20 {
            let report = DynamicExecutor::new(pool.clone(), spec.clone()).execute(3);
            assert_eq!(report.nodes_executed, 4);
            assert_eq!(spec.counts(), vec![round; 4], "{workers} workers");
        }
    }
}

/// Levels of the comb tests: forty times the depth (5 000, release
/// build) at which an executor that recursed once per level overflows a
/// worker's stack.
const COMB_DEPTH: u32 = 200_000;

#[test]
fn an_on_demand_comb_runs_in_constant_stack_depth() {
    // Spine key 2k depends on spine key 2k - 2 and on its own leaf 2k + 1,
    // so every spine scan creates two predecessors: discovery spawns at
    // every level and carries on with the one item left to it.
    let spec = Table::new(2 * COMB_DEPTH as usize, |k| match k {
        0 => vec![1],
        _ if k % 2 == 1 => vec![],
        _ => vec![k - 2, k + 1],
    });
    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(1)));
    let report = DynamicExecutor::new(pool, spec.clone()).execute(2 * COMB_DEPTH - 2);
    assert_eq!(report.nodes_executed, 2 * u64::from(COMB_DEPTH));
    assert!(spec.counts().iter().all(|&c| c == 1));
}

#[test]
fn a_static_comb_runs_in_constant_stack_depth() {
    // Each spine node precedes the next spine node and one leaf, so
    // every completion releases two nodes: a spawn at every level.
    let n = 2 * COMB_DEPTH as usize;
    let mut b = GraphBuilder::with_capacity(n, n);
    for k in 0..COMB_DEPTH {
        let spine = b.add_simple_node(1, Color(0), 64);
        let leaf = b.add_simple_node(1, Color(1), 64);
        if k > 0 {
            b.add_edge(spine - 2, spine);
        }
        b.add_edge(spine, leaf);
    }
    let graph = Arc::new(b.build().expect("a comb is acyclic"));
    let counts: Arc<Vec<AtomicU32>> = Arc::new((0..n).map(|_| AtomicU32::new(0)).collect());
    let c2 = counts.clone();
    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(1)));
    let report = StaticExecutor::new(pool).execute(
        &graph,
        Arc::new(move |u: NodeId, _w: usize| {
            c2[u as usize].fetch_add(1, Ordering::SeqCst);
        }),
    );
    assert_eq!(report.nodes_executed, n as u64);
    assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
}

/// A pre-built graph behind the on-demand protocol: a virtual root (key =
/// node count) depends on every sink; bodies are empty.
struct OnDemand(Arc<TaskGraph>);

impl TaskSpec for OnDemand {
    type Key = u32;
    fn predecessors(&self, &k: &u32) -> Vec<u32> {
        if k as usize == self.0.node_count() {
            self.0.sinks()
        } else {
            self.0.predecessors(k).to_vec()
        }
    }
    fn color(&self, &k: &u32) -> Color {
        if k as usize == self.0.node_count() {
            Color(0)
        } else {
            self.0.color(k)
        }
    }
    fn compute(&self, _: &u32, _worker: usize) {}
}

/// What a run says about its own size, three ways: nodes the executor
/// counted, tasks the pool counted, exec events the pool's trace holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Observed {
    nodes: u64,
    tasks: u64,
    traced_execs: u64,
}

impl Observed {
    fn of(report: &RunReport) -> Self {
        let trace = report.runtime_trace.as_ref().expect("the pool traces");
        Observed {
            nodes: report.nodes_executed,
            tasks: report.stats.total_tasks(),
            traced_execs: trace.summaries().iter().map(|s| s.execs).sum(),
        }
    }
}

/// One worker, so the task structure of a run is deterministic.
fn traced_single_worker_pool() -> Arc<Pool> {
    Arc::new(Pool::new(
        PoolConfig::nabbitc(1).with_trace(nabbitc::runtime::TraceConfig::enabled()),
    ))
}

fn run_static(pool: &Arc<Pool>, graph: &Arc<TaskGraph>) -> Observed {
    Observed::of(&StaticExecutor::new(pool.clone()).execute(graph, Arc::new(|_u, _w| {})))
}

fn run_on_demand(pool: &Arc<Pool>, graph: &Arc<TaskGraph>) -> Observed {
    let sink = graph.node_count() as u32;
    Observed::of(
        &DynamicExecutor::new(pool.clone(), Arc::new(OnDemand(graph.clone()))).execute(sink),
    )
}

#[test]
fn single_worker_task_structure_is_pinned() {
    // Tasks per run at W = 1 are a function of the release order alone
    // (which batches had two or more ready nodes, how their colors
    // split): recorded before the two executors were put on one loop, so
    // "same release order, same task structure" is checked, not claimed.
    use nabbitc::graph::generate;
    for (name, graph, static_tasks, on_demand_tasks) in [
        ("wavefront", generate::wavefront(16, 16, 1, 4), 16, 32),
        ("stencil", generate::iterated_stencil(10, 32, 1, 4), 41, 41),
    ] {
        let graph = Arc::new(graph);
        let nodes = graph.node_count() as u64;
        let pool = traced_single_worker_pool();
        for round in 0..3 {
            let s = run_static(&pool, &graph);
            assert_eq!(
                (s.nodes, s.tasks),
                (nodes, static_tasks),
                "{name} static, round {round}"
            );
            assert_eq!(s.traced_execs, s.tasks, "{name} static, round {round}");
            let d = run_on_demand(&pool, &graph);
            assert_eq!(
                (d.nodes, d.tasks),
                (nodes + 1, on_demand_tasks),
                "{name} on-demand, round {round}"
            );
            assert_eq!(d.traced_execs, d.tasks, "{name} on-demand, round {round}");
        }
    }
}

#[test]
fn concurrent_executions_on_one_pool_each_report_their_own_run() {
    // Two threads share one pool. Jobs serialize on the pool's run guard;
    // so must everything a report is made of — the counter and ring
    // resets on entry and the snapshots on exit — or one thread's reset
    // lands in the other's run and one thread's tasks in the other's
    // report.
    use nabbitc::graph::generate;
    const ROUNDS: usize = 25;
    let graph = Arc::new(generate::iterated_stencil(10, 32, 1, 4));
    let pool = traced_single_worker_pool();
    let solo_static = run_static(&pool, &graph);
    let solo_on_demand = run_on_demand(&pool, &graph);
    assert_eq!(solo_static.nodes, graph.node_count() as u64);
    assert_eq!(solo_static.traced_execs, solo_static.tasks);

    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for thread in 0..2 {
            let (pool, graph, start) = (&pool, &graph, &start);
            s.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    assert_eq!(
                        run_static(pool, graph),
                        solo_static,
                        "static, thread {thread}, round {round}"
                    );
                    assert_eq!(
                        run_on_demand(pool, graph),
                        solo_on_demand,
                        "on-demand, thread {thread}, round {round}"
                    );
                }
            });
        }
    });
}
