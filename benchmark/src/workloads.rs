//! The five workloads: input generation, and a harness that runs one
//! verified operation through the executor under test.
//!
//! Everything here goes through the crates' public functions only
//! (`registry::build`, `PageRank`, `Pool::new`, `StaticExecutor::{execute,
//! execute_auto}`, `DynamicExecutor::execute`) and reads only the reports
//! they return.

use crate::kernel::{ticks_for, Kernel};
use nabbitc_autocolor::SelectionReport;
use nabbitc_color::Color;
use nabbitc_core::{
    DynamicExecutor, ExecOptions, LintGate, RemoteAccessReport, StaticExecutor, TaskSpec,
};
use nabbitc_cost::{CostModel, Topology};
use nabbitc_graph::{NodeId, TaskGraph};
use nabbitc_runtime::{NumaTopology, Pool, PoolConfig, PoolStats, RuntimeTrace, TraceConfig};
use nabbitc_workloads::pagerank::PageRank;
use nabbitc_workloads::webgraph::{self, WebGraphParams};
use nabbitc_workloads::{registry, BenchId, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which graph a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Heat stencil, 5 steps × (20480 ÷ scale divisor) row blocks.
    Heat(Scale),
    /// Smith–Waterman 160 × 160 tiles.
    Sw,
    /// PageRank on the uk-2007-05-like web graph, 1050 blocks × 10
    /// iterations, hand colors stripped.
    PageRank,
}

/// Which entry point executes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecKind {
    /// `StaticExecutor::execute` on the graph's own colors.
    Static,
    /// `DynamicExecutor::execute` discovering the graph from a virtual sink.
    OnDemand,
    /// `StaticExecutor::execute_auto`: selection + recolor + execute.
    Auto,
}

pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload is in the benchmark.
    pub why: &'static str,
    pub source: Source,
    pub exec: ExecKind,
    /// Spin count per node as a fraction of `TaskGraph::work`.
    pub ticks: (u64, u64),
    /// Executor operations per interleaved serial-walk sample.
    pub ops_per_serial: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "heat-coarse",
        why: "6400-node stencil at ~50 us/node: the kernel is >99% of the time, so only load balance (idle, first-work wait) can move it; overhead changes must not",
        source: Source::Heat(Scale::Small),
        exec: ExecKind::Static,
        ticks: (20, 1),
        ops_per_serial: 1,
    },
    Workload {
        name: "heat-fine",
        why: "25600-node stencil at ~1 us/node: static executor per-node work and runtime spawn/deque/arena are ~25% of the time; where a hot-path change shows",
        source: Source::Heat(Scale::Medium),
        exec: ExecKind::Static,
        ticks: (2, 5),
        ops_per_serial: 8,
    },
    Workload {
        name: "heat-fine-ondemand",
        why: "the heat-fine graph discovered lazily by DynamicExecutor: node table, init/compute split, per-node Arc/Mutex on the same runtime; ~2x heat-fine today",
        source: Source::Heat(Scale::Medium),
        exec: ExecKind::OnDemand,
        ticks: (2, 5),
        ops_per_serial: 4,
    },
    Workload {
        name: "sw-wavefront",
        why: "160x160 wavefront at ~20 us/node: parallelism ramps 1..160..1, workers idle and search; stresses steal search and first-work wait while the kernel hides per-node cost",
        source: Source::Sw,
        exec: ExecKind::Static,
        ticks: (4, 1),
        ops_per_serial: 2,
    },
    Workload {
        name: "pagerank-auto",
        why: "10500-node power-law PageRank through execute_auto: autocolor selection and the makespan estimators are most of each operation; hand-colored workloads bypass them",
        source: Source::PageRank,
        exec: ExecKind::Auto,
        ticks: (1, 1),
        ops_per_serial: 2,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated input with its kernel state.
pub struct Prepared {
    pub graph: Arc<TaskGraph>,
    pub kernel: Arc<Kernel>,
    /// Time in `registry::build` / `PageRank::task_graph`.
    pub build: Duration,
    /// Time in `webgraph::generate` (zero unless PageRank).
    pub webgraph: Duration,
}

/// Generates `w`'s input for `workers` colors. `seed` reaches
/// `WebGraphParams::seed` and nothing else here; the stencil and wavefront
/// graphs are fully determined by their shape. `grain_div` divides every
/// node's spin count (1 except in smoke runs).
pub fn prepare(w: &Workload, workers: usize, seed: u64, grain_div: u64) -> Prepared {
    let started = Instant::now();
    let (graph, webgraph) = match w.source {
        Source::Heat(scale) => (
            registry::build(BenchId::Heat, scale, workers).graph,
            Duration::ZERO,
        ),
        Source::Sw => (
            registry::build(BenchId::Sw, Scale::Paper, workers).graph,
            Duration::ZERO,
        ),
        Source::PageRank => {
            let params = WebGraphParams {
                seed,
                ..WebGraphParams::uk2007()
            };
            let web = webgraph::generate(&params);
            let webgraph = started.elapsed();
            let pr = PageRank {
                web,
                blocks: 1050,
                iters: 10,
            };
            let mut graph = pr.task_graph(workers);
            graph.strip_colors();
            (graph, webgraph)
        }
    };
    let build = started.elapsed() - webgraph;
    let graph = Arc::new(graph);
    let ticks = ticks_for(&graph, (w.ticks.0, w.ticks.1 * grain_div));
    Prepared {
        kernel: Arc::new(Kernel::new(graph.clone(), ticks, workers)),
        graph,
        build,
        webgraph,
    }
}

/// The on-demand adapter: a pre-built graph behind the `TaskSpec`
/// discovery protocol. A virtual sink depends on every real sink so the
/// executor's single-sink entry point covers multi-sink graphs.
struct GraphSpec<K> {
    graph: Arc<TaskGraph>,
    sinks: Arc<[NodeId]>,
    node: Arc<K>,
}

const VIRTUAL_SINK: NodeId = NodeId::MAX;

impl<K: Fn(NodeId, usize) + Send + Sync + 'static> TaskSpec for GraphSpec<K> {
    type Key = NodeId;

    fn predecessors(&self, key: &NodeId) -> Vec<NodeId> {
        if *key == VIRTUAL_SINK {
            self.sinks.to_vec()
        } else {
            self.graph.predecessors(*key).to_vec()
        }
    }

    fn color(&self, key: &NodeId) -> Color {
        // The virtual sink inherits a real sink's color so the last steal
        // is local.
        let node = if *key == VIRTUAL_SINK {
            self.sinks[0]
        } else {
            *key
        };
        self.graph.color(node)
    }

    fn compute(&self, key: &NodeId, worker: usize) {
        if *key != VIRTUAL_SINK {
            (self.node)(*key, worker);
        }
    }
}

/// Executor options a run can switch on (all off in timed runs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Observe {
    /// `ExecOptions::record_trace` (static executor only).
    pub record_trace: bool,
    /// `ExecOptions::count_remote` / `with_remote_counting`.
    pub count_remote: bool,
}

/// Events kept per worker in traced pools. `sw-wavefront` overflows any
/// reasonable ring with steal attempts; the drop count is reported.
pub const TRACE_RING: usize = 1 << 14;

/// What one operation returned.
#[derive(Default)]
pub struct Op {
    /// Output verified: no panic, right node count, checksum vector equal
    /// to the serial walk's.
    pub ok: bool,
    /// Wall time of the operation, coloring included.
    pub total: Duration,
    /// Time before the first node could run (zero on hand-colored paths).
    pub coloring: Duration,
    pub stats: PoolStats,
    pub remote: RemoteAccessReport,
    pub runtime_trace: Option<RuntimeTrace>,
    pub selection: Option<SelectionReport>,
    /// Time the pool's worker threads spent runnable but waiting for a CPU
    /// during the operation, summed over workers (see [`WorkerThreads`]).
    pub cpu_wait: Duration,
}

impl Op {
    /// Whether the workers waited for a CPU for more than a tenth of their
    /// executing time: the operating system, not this scheduler, decided
    /// how long the operation took.
    pub fn starved(&self, workers: usize) -> bool {
        let executing = (self.total - self.coloring).as_secs_f64() * workers as f64;
        self.cpu_wait.as_secs_f64() > 0.1 * executing
    }
}

/// The pool's worker threads as the operating system sees them.
///
/// The build host is a 2-vCPU virtual machine whose scheduler at times keeps
/// both workers on one CPU for seconds while the other idles: each worker
/// is then runnable but waiting half the time, and an operation takes
/// twice as long for reasons no change to this repository can move. Linux
/// accounts that wait per thread in `/proc/<pid>/task/<tid>/schedstat`
/// (second field, nanoseconds); reading it around an operation tells a
/// measured operation from a starved one. Elsewhere, or with the file
/// unreadable, the wait reads as zero and nothing is ever called starved.
struct WorkerThreads(Vec<std::path::PathBuf>);

impl WorkerThreads {
    /// The live threads named by `Pool::new` (`nabbitc-worker-<i>`). One
    /// pool is alive at a time, so they are this pool's.
    fn of_live_pool() -> Self {
        let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten();
        WorkerThreads(
            tasks
                .flatten()
                .map(|entry| entry.path())
                .filter(|task| {
                    std::fs::read_to_string(task.join("comm"))
                        .is_ok_and(|name| name.starts_with("nabbitc-worker"))
                })
                .map(|task| task.join("schedstat"))
                .collect(),
        )
    }

    fn cpu_wait(&self) -> Duration {
        let ns = self.0.iter().filter_map(|schedstat| {
            let text = std::fs::read_to_string(schedstat).ok()?;
            text.split_whitespace().nth(1)?.parse::<u64>().ok()
        });
        Duration::from_nanos(ns.sum())
    }
}

/// The pool every workload runs on: NabbitC policy, one NUMA domain per
/// worker (so §V-B remote counts are not trivially zero), victim RNG seeded
/// from `seed`; `traced` adds the event rings.
pub fn make_pool(workers: usize, seed: u64, traced: bool) -> Arc<Pool> {
    let mut config = PoolConfig::nabbitc(workers)
        .with_topology(NumaTopology::new(workers, 1))
        .with_seed(seed);
    if traced {
        config = config.with_trace(TraceConfig::with_capacity(TRACE_RING));
    }
    Arc::new(Pool::new(config))
}

/// One executor on a pool, ready to run operations on one prepared input.
pub struct Harness {
    pool: Arc<Pool>,
    exec: ExecKind,
    observe: Observe,
    static_exec: StaticExecutor,
    graph: Arc<TaskGraph>,
    kernel: Arc<Kernel>,
    /// `graph.sinks()`, scanned once: the on-demand adapter needs them on
    /// every operation.
    sinks: Arc<[NodeId]>,
    threads: WorkerThreads,
}

impl Harness {
    pub fn new(input: &Prepared, exec: ExecKind, pool: Arc<Pool>, observe: Observe) -> Self {
        let workers = pool.workers();
        let static_exec = StaticExecutor::new(pool.clone()).with_options(ExecOptions {
            record_trace: observe.record_trace,
            count_remote: observe.count_remote,
            cost: CostModel::default(),
            topology: Some(Topology::per_worker(workers)),
            lint: LintGate::Off,
        });
        Harness {
            pool,
            exec,
            observe,
            static_exec,
            graph: input.graph.clone(),
            kernel: input.kernel.clone(),
            sinks: input.graph.sinks().into(),
            threads: WorkerThreads::of_live_pool(),
        }
    }

    /// One verified operation with the benchmark's kernel.
    pub fn op(&self) -> Op {
        let k = self.kernel.clone();
        self.op_with(Arc::new(move |u: NodeId, _w: usize| k.run_node(u)))
    }

    /// One verified operation with `node` as the node body. A panic, a
    /// wrong node count or a checksum mismatch makes it a failed operation
    /// (`ok == false`); it never aborts the run.
    pub fn op_with<K>(&self, node: Arc<K>) -> Op
    where
        K: Fn(NodeId, usize) + Send + Sync + 'static,
    {
        self.kernel.reset();
        let waited = self.threads.cpu_wait();
        let ran = catch_unwind(AssertUnwindSafe(|| self.execute(node)));
        match ran {
            Ok(mut op) => {
                op.cpu_wait = self.threads.cpu_wait().saturating_sub(waited);
                op.ok = op.ok && self.kernel.verify();
                op
            }
            Err(_) => Op::default(),
        }
    }

    fn execute<K>(&self, node: Arc<K>) -> Op
    where
        K: Fn(NodeId, usize) + Send + Sync + 'static,
    {
        let report = match self.exec {
            ExecKind::Static => self.static_exec.execute(&self.graph, node),
            ExecKind::Auto => self.static_exec.execute_auto(&self.graph, node).0,
            ExecKind::OnDemand => {
                let spec = Arc::new(GraphSpec {
                    graph: self.graph.clone(),
                    sinks: self.sinks.clone(),
                    node,
                });
                let exec = DynamicExecutor::new(self.pool.clone(), spec)
                    .with_remote_counting(self.observe.count_remote);
                self.pool.reset_trace();
                let report = exec.execute(VIRTUAL_SINK);
                return Op {
                    ok: report.nodes_executed == self.graph.node_count() as u64 + 1,
                    total: report.elapsed,
                    coloring: Duration::ZERO,
                    stats: report.stats,
                    remote: report.remote,
                    runtime_trace: self
                        .pool
                        .tracing_enabled()
                        .then(|| self.pool.trace_snapshot()),
                    ..Op::default()
                };
            }
        };
        Op {
            // The static report carries a node count only when remote
            // counting is on; the checksum comparison covers it otherwise.
            ok: !self.observe.count_remote
                || report.remote.node_total == self.graph.node_count() as u64,
            total: report.total_elapsed(),
            coloring: report.coloring_elapsed.unwrap_or_default(),
            stats: report.stats,
            remote: report.remote,
            runtime_trace: report.runtime_trace,
            selection: report.selection,
            ..Op::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::graph_hash;

    #[test]
    fn workload_table_matches_the_issue() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "heat-coarse",
                "heat-fine",
                "heat-fine-ondemand",
                "sw-wavefront",
                "pagerank-auto"
            ]
        );
        assert!(find("heat-fine").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn inputs_have_the_documented_sizes_and_grain() {
        let coarse = prepare(find("heat-coarse").unwrap(), 2, 1, 1);
        assert_eq!(coarse.graph.node_count(), 6_400);
        let fine = prepare(find("heat-fine").unwrap(), 2, 1, 1);
        assert_eq!(fine.graph.node_count(), 25_600);
        assert_eq!(ticks_for(&fine.graph, (2, 5))[0], 800);
        assert_eq!(ticks_for(&coarse.graph, (20, 1))[0], 40_000);
        let sw = prepare(find("sw-wavefront").unwrap(), 2, 1, 1);
        assert_eq!(sw.graph.node_count(), 25_600);
        assert_eq!(ticks_for(&sw.graph, (4, 1))[0], 16_384);
    }

    #[test]
    fn same_seed_same_graph_and_other_seed_other_web_graph() {
        let w = find("pagerank-auto").unwrap();
        let a = prepare(w, 2, 7, 1);
        assert_eq!(a.graph.node_count(), 10_500);
        assert!(a.graph.nodes().all(|u| a.graph.color(u) == Color(0)));
        assert_eq!(graph_hash(&a.graph), graph_hash(&prepare(w, 2, 7, 1).graph));
        assert_ne!(graph_hash(&a.graph), graph_hash(&prepare(w, 2, 8, 1).graph));
        // Stencils do not depend on the seed.
        let h = find("heat-coarse").unwrap();
        assert_eq!(
            graph_hash(&prepare(h, 2, 7, 1).graph),
            graph_hash(&prepare(h, 2, 8, 1).graph)
        );
    }

    #[test]
    fn every_executor_kind_produces_a_verified_operation() {
        let input = prepare(find("heat-coarse").unwrap(), 2, 1, 64);
        input.kernel.serial_walk(Kernel::run_node);
        for exec in [ExecKind::Static, ExecKind::OnDemand, ExecKind::Auto] {
            let h = Harness::new(&input, exec, make_pool(2, 1, false), Observe::default());
            let op = h.op();
            assert!(op.ok, "{exec:?}");
            assert!(op.total > Duration::ZERO);
            assert_eq!(op.selection.is_some(), exec == ExecKind::Auto);
        }
    }

    #[test]
    fn a_panicking_node_is_a_failed_operation_and_the_pool_survives() {
        let input = prepare(find("heat-coarse").unwrap(), 2, 1, 64);
        input.kernel.serial_walk(Kernel::run_node);
        let h = Harness::new(
            &input,
            ExecKind::Static,
            make_pool(2, 1, false),
            Observe::default(),
        );
        let k = input.kernel.clone();
        let op = h.op_with(Arc::new(move |u: NodeId, _w: usize| {
            assert!(u != 100, "injected failure");
            k.run_node(u);
        }));
        assert!(!op.ok);
        assert!(h.op().ok, "the next operation on the same pool is clean");
    }
}
