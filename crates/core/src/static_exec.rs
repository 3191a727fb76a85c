//! Executor for pre-built task graphs.
//!
//! All nodes of a [`TaskGraph`] are known up front, so there is nothing to
//! discover: the executor is the shared `compute_and_notify` loop of
//! `exec.rs` over a *dense* node store — one [`JoinCounter`] per node,
//! indexed by [`NodeId`] and armed with the node's in-degree before the
//! job starts; a node's successor list is the graph's. When a node
//! finishes, each successor's counter is notified and the worker that
//! brings one to zero takes responsibility for the successor (Nabbit's
//! `compute_and_notify` restated as dataflow).
//!
//! Every batch of ready nodes — the sources at the start of the job, and
//! each node's newly-ready successors — flows through
//! [`spawn::spawn_colors`](crate::spawn::spawn_colors), so the executor is
//! NabbitC when the pool's policy has colored steals and vanilla Nabbit
//! when it does not (the spawning order is color-guided either way; with
//! Nabbit's policy the color tags are simply never consulted, matching the
//! paper's baseline which runs the same task graph under plain Cilk
//! stealing).

use crate::exec::{compute_and_notify, spawn_ready, NodeStore, Ready, Run};
use crate::join::JoinCounter;
use crate::metrics::RemoteCounters;
use crate::report::RunReport;
use nabbitc_graph::trace::{Trace, TraceEvent};
use nabbitc_graph::{NodeId, TaskGraph};
use nabbitc_runtime::sync::Mutex;
use nabbitc_runtime::Pool;
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

/// The dense node store: a pre-built graph, every node already discovered.
struct Dense<K> {
    graph: Arc<TaskGraph>,
    /// Per node, armed with its in-degree.
    join: Vec<JoinCounter>,
    kernel: Arc<K>,
    trace: Option<TraceState>,
}

struct TraceState {
    origin: Instant,
    events: Vec<Mutex<Vec<TraceEvent>>>, // per worker
}

impl<K> Dense<K> {
    fn ready(&self, u: NodeId) -> Ready<NodeId> {
        Ready {
            node: u,
            color: self.graph.color(u),
        }
    }
}

impl<K> NodeStore for Dense<K>
where
    K: Fn(NodeId, usize) + Send + Sync + 'static,
{
    type Node = NodeId;

    fn record_remote(&self, u: NodeId, worker: usize, remote: &RemoteCounters) {
        let g = &self.graph;
        remote.record_node(
            worker,
            g.color(u),
            g.predecessors(u).iter().map(|&p| g.color(p)),
        );
    }

    fn compute(&self, u: NodeId, worker: usize) {
        debug_assert_eq!(self.join[u as usize].pending(), 0);
        let Some(ts) = &self.trace else {
            return (self.kernel)(u, worker);
        };
        let start = ts.origin.elapsed().as_nanos() as u64;
        (self.kernel)(u, worker);
        let end = ts.origin.elapsed().as_nanos() as u64;
        ts.events[worker].lock().push(TraceEvent {
            node: u,
            worker,
            start,
            end,
        });
    }

    fn complete(&self, u: NodeId, ready: &mut Vec<Ready<NodeId>>) {
        for &s in self.graph.successors(u) {
            if self.join[s as usize].notify() {
                ready.push(self.ready(s));
            }
        }
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
    /// run's own event stream. Reset, run and snapshot are one unit under
    /// the pool's run guard, so this holds with other threads executing
    /// on the same pool.
    pub fn execute<K>(&self, graph: &Arc<TaskGraph>, kernel: Arc<K>) -> RunReport
    where
        K: Fn(NodeId, usize) + Send + Sync + 'static,
    {
        let n = graph.node_count();
        let store = Dense {
            graph: graph.clone(),
            join: (0..n as NodeId)
                .map(|u| JoinCounter::armed(graph.in_degree(u)))
                .collect(),
            kernel,
            trace: self.options.record_trace.then(|| TraceState {
                origin: Instant::now(),
                events: (0..self.pool.workers())
                    .map(|_| Mutex::new(Vec::new()))
                    .collect(),
            }),
        };
        let sources: Vec<_> = graph
            .sources()
            .into_iter()
            .map(|u| store.ready(u))
            .collect();
        let (mut report, store) = Run::execute(
            &self.pool,
            store,
            self.options.count_remote,
            sources.iter().map(|s| s.color).collect(),
            move |run, ctx| {
                if let Some(first) = spawn_ready(run, ctx, sources) {
                    compute_and_notify(run, ctx, first.node);
                }
            },
        );
        debug_assert_eq!(report.nodes_executed, n as u64);
        if let Some(ts) = store.trace {
            report.trace = Trace {
                events: ts.events.into_iter().flat_map(|m| m.into_inner()).collect(),
            };
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_graph::generate;
    use nabbitc_runtime::{PoolConfig, StealPolicy, Topology};
    use std::sync::atomic::{AtomicU32 as A32, AtomicU64, Ordering};

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
