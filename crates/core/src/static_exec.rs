//! Executor for pre-built task graphs.
//!
//! All nodes of a [`TaskGraph`] are known up front, so readiness is tracked
//! with per-node atomic join counters instead of the dynamic node table:
//! when a node finishes, it decrements each successor's counter and the
//! worker that brings a counter to zero takes responsibility for spawning
//! the successor (Nabbit's `compute_and_notify` restated as dataflow; see
//! DESIGN.md "Reality substitutions").
//!
//! Every batch of ready nodes — the sources at the start of the job, and
//! each node's newly-ready successors — flows through
//! [`spawn::spawn_colors`](crate::spawn::spawn_colors), so the executor is
//! NabbitC when the pool's policy has colored steals and vanilla Nabbit
//! when it does not (the spawning order is color-guided either way; with
//! Nabbit's policy the color tags are simply never consulted, matching the
//! paper's baseline which runs the same task graph under plain Cilk
//! stealing).

use crate::metrics::{RemoteCounters, WorkerCounts};
use crate::report::RunReport;
use crate::spawn::{spawn_colors, ColoredItem};
use nabbitc_color::{Color, ColorSet};
use nabbitc_graph::trace::{Trace, TraceEvent};
use nabbitc_graph::{NodeId, TaskGraph};
use nabbitc_runtime::sync::{AtomicU32, Mutex, Ordering};
use nabbitc_runtime::{Pool, WorkerContext};
use std::sync::Arc;
use std::time::Instant;

/// Execution options. [`Default`] is what [`StaticExecutor::new`] runs
/// with: no per-node trace, §V-B counting on, the default cost model, no
/// topology, no lint gate.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Record a full execution trace (adds per-node clock reads + a lock).
    pub record_trace: bool,
    /// Count remote accesses with the §V-B metric (cheap; on by default).
    pub count_remote: bool,
    /// Cost model used wherever this executor prices a schedule — today
    /// that is [`execute_auto`](StaticExecutor::execute_auto)'s
    /// `AutoSelect` scoring (cross-color edges priced as remote-byte
    /// bandwidth plus steal latency). The threaded execution itself runs
    /// on wall clock and ignores it.
    pub cost: nabbitc_cost::CostModel,
    /// Worker→domain topology used wherever this executor prices a
    /// schedule: with `Some(topo)`,
    /// [`execute_auto`](StaticExecutor::execute_auto) scores candidates
    /// domain-aware (same-domain cut edges move bytes at local bandwidth)
    /// and runs the domain-packing post-pass on the winner. `None` (the
    /// default) prices every worker as its own domain. Like `cost`, the
    /// threaded execution itself ignores it — use e.g.
    /// `Topology::paper_machine().truncated(p)` to select for the paper
    /// machine.
    pub topology: Option<nabbitc_cost::Topology>,
    /// Pre-flight schedule linting for
    /// [`execute_auto`](StaticExecutor::execute_auto): with a gate other
    /// than [`LintGate::Off`], the inferred coloring is run through
    /// [`nabbitc_lint::lint_graph`] (priced with this options struct's
    /// `cost` and `topology`) before any task executes, and the report is
    /// attached to [`RunReport::lint`](crate::RunReport::lint). The
    /// denying gates turn findings into panics, for harnesses that want
    /// a hard stop on a degenerate schedule. Plain `execute` never lints
    /// — the caller's own coloring is taken as intended.
    pub lint: LintGate,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            record_trace: false,
            count_remote: true,
            cost: nabbitc_cost::CostModel::default(),
            topology: None,
            lint: LintGate::Off,
        }
    }
}

/// What [`execute_auto`](StaticExecutor::execute_auto) does with schedule
/// lint findings (see [`ExecOptions::lint`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LintGate {
    /// No linting (the default): zero pre-flight cost.
    #[default]
    Off,
    /// Lint and attach the report to the [`RunReport`]; never fails.
    Report,
    /// Lint, attach, and panic if any
    /// [`Error`](nabbitc_lint::Severity::Error) finding is present.
    DenyErrors,
    /// Lint, attach, and panic if any finding of severity
    /// [`Warn`](nabbitc_lint::Severity::Warn) or worse is present.
    DenyWarnings,
}

struct ExecState<K: ?Sized> {
    graph: Arc<TaskGraph>,
    join: Vec<AtomicU32>,
    kernel: Arc<K>,
    remote: Option<RemoteCounters>,
    trace: Option<TraceState>,
    /// Executed-node count: reported, and defends against double
    /// execution in debug.
    executed: WorkerCounts,
}

struct TraceState {
    origin: Instant,
    events: Vec<Mutex<Vec<TraceEvent>>>, // per worker
}

/// A work item: node id + its color (colors are read out of the graph once
/// at batch construction).
#[derive(Clone, Copy)]
struct Item(NodeId, Color);

impl ColoredItem for Item {
    fn color(&self) -> Color {
        self.1
    }
}

/// Executes [`TaskGraph`]s on a [`Pool`].
///
/// The executor is reusable: [`execute`](Self::execute) may be called many
/// times (the PageRank benchmark runs ten power iterations over the same
/// pool, for instance).
pub struct StaticExecutor {
    pool: Arc<Pool>,
    options: ExecOptions,
}

impl StaticExecutor {
    /// Creates an executor on `pool`.
    pub fn new(pool: Arc<Pool>) -> Self {
        StaticExecutor {
            pool,
            options: ExecOptions::default(),
        }
    }

    /// Sets execution options.
    pub fn with_options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// The execution options in effect.
    pub fn options(&self) -> &ExecOptions {
        &self.options
    }

    /// Executes `graph`, invoking `kernel(node, worker_id)` once per node
    /// with all dependences satisfied. Blocks until the whole graph is
    /// done.
    ///
    /// The returned [`RunReport`] covers this run only: statistics are
    /// reset on entry, and when the pool was built with event tracing
    /// enabled, so are the event rings — `runtime_trace` is then the
    /// run's own event stream.
    pub fn execute<K>(&self, graph: &Arc<TaskGraph>, kernel: Arc<K>) -> RunReport
    where
        K: Fn(NodeId, usize) + Send + Sync + 'static,
    {
        let n = graph.node_count();
        let workers = self.pool.workers();
        let state = Arc::new(ExecState {
            graph: graph.clone(),
            join: (0..n)
                .map(|u| AtomicU32::new(graph.in_degree(u as NodeId) as u32))
                .collect(),
            kernel,
            remote: self
                .options
                .count_remote
                .then(|| RemoteCounters::new(self.pool.topology().clone(), workers)),
            trace: self.options.record_trace.then(|| TraceState {
                origin: Instant::now(),
                events: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            }),
            executed: WorkerCounts::new(workers),
        });

        self.pool.reset_stats();
        self.pool.reset_trace();
        let started = Instant::now();
        {
            let state = state.clone();
            let root_colors: ColorSet = graph.sources().iter().map(|&u| graph.color(u)).collect();
            self.pool.run(root_colors, move |ctx| {
                let sources: Vec<Item> = state
                    .graph
                    .sources()
                    .into_iter()
                    .map(|u| Item(u, state.graph.color(u)))
                    .collect();
                let st = state.clone();
                spawn_colors(
                    ctx,
                    sources,
                    Arc::new(move |ctx: &mut WorkerContext<'_>, item: Item| {
                        process_node(&st, ctx, item.0);
                    }),
                );
            });
        }
        let elapsed = started.elapsed();

        let nodes_executed = state.executed.total();
        debug_assert_eq!(nodes_executed, n as u64);

        let state = Arc::try_unwrap(state)
            .unwrap_or_else(|_| panic!("executor state leaked past job completion"));
        let trace = match state.trace {
            Some(ts) => Trace {
                events: ts.events.into_iter().flat_map(|m| m.into_inner()).collect(),
            },
            None => Trace::default(),
        };
        RunReport {
            elapsed,
            nodes_executed,
            coloring_elapsed: None,
            remote: state
                .remote
                .as_ref()
                .map(|r| r.report())
                .unwrap_or_default(),
            stats: self.pool.stats(),
            trace,
            runtime_trace: self
                .pool
                .tracing_enabled()
                .then(|| self.pool.trace_snapshot()),
            selection: None,
            lint: None,
        }
    }
}

fn process_node<K>(state: &Arc<ExecState<K>>, ctx: &mut WorkerContext<'_>, mut u: NodeId)
where
    K: Fn(NodeId, usize) + Send + Sync + 'static,
{
    let g = &state.graph;
    // A single ready successor is executed directly by the same worker
    // (the paper's "recursively execute that node"); we iterate instead of
    // recursing so chain-shaped graphs cannot overflow the stack.
    loop {
        let me = ctx.worker_id();

        if let Some(rc) = &state.remote {
            rc.record_node(
                me,
                g.color(u),
                g.predecessors(u).iter().map(|&p| g.color(p)),
            );
        }

        let start_ns = state
            .trace
            .as_ref()
            .map(|t| t.origin.elapsed().as_nanos() as u64);

        (state.kernel)(u, me);
        state.executed.add(me);

        if let (Some(ts), Some(start)) = (&state.trace, start_ns) {
            let end = ts.origin.elapsed().as_nanos() as u64;
            ts.events[me].lock().push(TraceEvent {
                node: u,
                worker: me,
                start,
                end,
            });
        }

        // compute_and_notify: release successors; newly-ready ones are
        // spawned through the color-aware path.
        let mut ready: Vec<Item> = Vec::new();
        for &s in g.successors(u) {
            if state.join[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                ready.push(Item(s, g.color(s)));
            }
        }
        match ready.len() {
            0 => return,
            1 => {
                u = ready.pop().expect("len checked").0;
            }
            _ => {
                let st = state.clone();
                spawn_colors(
                    ctx,
                    ready,
                    Arc::new(move |ctx: &mut WorkerContext<'_>, item: Item| {
                        process_node(&st, ctx, item.0);
                    }),
                );
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_graph::generate;
    use nabbitc_runtime::{PoolConfig, StealPolicy, Topology};
    use std::sync::atomic::{AtomicU32 as A32, AtomicU64};

    fn run_and_check(graph: TaskGraph, pool: Pool) -> RunReport {
        let graph = Arc::new(graph);
        let pool = Arc::new(pool);
        let exec = StaticExecutor::new(pool).with_options(ExecOptions {
            record_trace: true,
            count_remote: true,
            ..ExecOptions::default()
        });
        let counts: Arc<Vec<A32>> =
            Arc::new((0..graph.node_count()).map(|_| A32::new(0)).collect());
        let c2 = counts.clone();
        let report = exec.execute(
            &graph,
            Arc::new(move |u: NodeId, _w: usize| {
                c2[u as usize].fetch_add(1, Ordering::SeqCst);
            }),
        );
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "node {i} executed once");
        }
        report.trace.validate(&graph).expect("trace must validate");
        report
    }

    #[test]
    fn wavefront_single_worker() {
        run_and_check(
            generate::wavefront(8, 8, 1, 1),
            Pool::new(PoolConfig::nabbitc(1)),
        );
    }

    #[test]
    fn wavefront_many_workers() {
        run_and_check(
            generate::wavefront(20, 20, 1, 8),
            Pool::new(PoolConfig::nabbitc(8)),
        );
    }

    #[test]
    fn layered_random_nabbit_policy() {
        run_and_check(
            generate::layered_random(20, 30, 4, (1, 5), 8, 3),
            Pool::new(PoolConfig::nabbit(8)),
        );
    }

    #[test]
    fn chain_preserves_order() {
        // A chain is fully sequential; the trace validator enforces the
        // dependence order.
        run_and_check(
            generate::chain(500, 1, 4),
            Pool::new(PoolConfig::nabbitc(4)),
        );
    }

    #[test]
    fn independent_fanout() {
        run_and_check(
            generate::independent(2000, 1, 8),
            Pool::new(PoolConfig::nabbitc(8)),
        );
    }

    #[test]
    fn stencil_iterated() {
        run_and_check(
            generate::iterated_stencil(10, 32, 1, 8),
            Pool::new(PoolConfig::nabbitc(8)),
        );
    }

    #[test]
    fn remote_metric_zero_on_uma() {
        let report = run_and_check(
            generate::wavefront(10, 10, 1, 4),
            Pool::new(PoolConfig::nabbitc(4)), // UMA topology
        );
        assert_eq!(report.remote.pct_remote(), 0.0);
        assert!(report.remote.total() > 0);
    }

    #[test]
    fn remote_metric_nonzero_across_domains() {
        // 2 domains x 2 cores; colors span domains, so a locality-oblivious
        // policy will incur remote accesses on most runs. We only assert the
        // metric is *counted* (total > 0) and bounded.
        let topo = Topology::new(2, 2);
        let pool = Pool::new(
            PoolConfig::nabbit(4)
                .with_topology(topo)
                .with_policy(StealPolicy::nabbit()),
        );
        let report = run_and_check(generate::layered_random(10, 40, 3, (1, 3), 4, 9), pool);
        assert!(report.remote.total() > 0);
        assert!(report.remote.pct_remote() <= 100.0);
    }

    #[test]
    fn remote_metric_survives_a_default_options_update() {
        // `..ExecOptions::default()` must mean "as `new` runs it": naming
        // one field may not switch §V-B counting off.
        let topo = Topology::new(2, 2);
        let pool = Arc::new(Pool::new(
            PoolConfig::nabbitc(4).with_topology(topo.clone()),
        ));
        let exec = StaticExecutor::new(pool).with_options(ExecOptions {
            topology: Some(topo),
            ..ExecOptions::default()
        });
        let graph = Arc::new(generate::layered_random(10, 40, 3, (1, 3), 4, 9));
        let report = exec.execute(&graph, Arc::new(|_u, _w| {}));
        assert!(report.remote.total() > 0);
    }

    #[test]
    fn executor_reusable_across_runs() {
        let graph = Arc::new(generate::wavefront(12, 12, 1, 4));
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(4)));
        let exec = StaticExecutor::new(pool);
        for _ in 0..5 {
            let done = Arc::new(AtomicU64::new(0));
            let d2 = done.clone();
            exec.execute(
                &graph,
                Arc::new(move |_u, _w| {
                    d2.fetch_add(1, Ordering::SeqCst);
                }),
            );
            assert_eq!(done.load(Ordering::SeqCst), graph.node_count() as u64);
        }
    }

    #[test]
    fn stats_populated() {
        let report = run_and_check(
            generate::independent(5000, 1, 8),
            Pool::new(PoolConfig::nabbitc(8)),
        );
        assert!(report.stats.total_tasks() > 0);
        assert_eq!(
            report.stats.workers.len(),
            8,
            "stats should cover every worker"
        );
    }
}
