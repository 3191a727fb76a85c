//! On-demand dynamic task-graph execution — the full Nabbit protocol.
//!
//! The computation is *specified*, not materialized: the user supplies a
//! [`TaskSpec`] (key type, predecessor function, color function, compute
//! function) and a sink key. The executor discovers nodes lazily:
//!
//! * To process a node, a worker initializes it and recursively processes
//!   its not-yet-created predecessors (paper §II, scheduler action 1).
//! * If a predecessor was already created by another worker but has not
//!   finished, the worker enqueues the current node on the predecessor's
//!   successor list and moves on (action 2, the `try_init_compute` race of
//!   Fig. 4 — exactly one creator wins per key).
//! * After computing a node, the worker drains its successor list and
//!   spawns the successors that became ready (action 3,
//!   `compute_and_notify`).
//!
//! Readiness uses a join counter with a +1 *initialization bias*: the bias
//! is held while the node's predecessor list is being scanned so the node
//! cannot fire before the scan finishes, and is released at the end of
//! `init`. The worker whose decrement brings the counter to zero computes
//! the node — in Nabbit terms, the thread that satisfies the last
//! dependence runs `compute_and_notify`, which is what preserves the
//! critical path.
//!
//! All predecessor and successor batches flow through
//! [`crate::spawn::spawn_colors`], making this NabbitC when
//! the pool steals by color.

use crate::join::JoinCounter;
use crate::metrics::RemoteCounters;
use crate::report::RunReport;
use crate::spawn::{spawn_colors, ColoredItem};
use nabbitc_color::{Color, ColorSet};
use nabbitc_runtime::sync::{AtomicU64, Mutex, Ordering, RwLock};
use nabbitc_runtime::{Pool, WorkerContext};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// A dynamic task-graph computation, the Rust analogue of the paper's
/// `DynamicNabbitNode` abstract class (Fig. 2): keys identify tasks,
/// `predecessors` declares dependences, `color` carries the locality hint,
/// and `compute` does the work.
pub trait TaskSpec: Send + Sync + 'static {
    /// Task key ("each task is associated with a unique key").
    type Key: Clone + Eq + Hash + Send + Sync + std::fmt::Debug + 'static;

    /// Keys of the tasks this key depends on.
    fn predecessors(&self, key: &Self::Key) -> Vec<Self::Key>;

    /// The task's locality color (the paper's user-defined `color()`).
    fn color(&self, key: &Self::Key) -> Color;

    /// Performs the task. `worker` is the executing worker id.
    fn compute(&self, key: &Self::Key, worker: usize);
}

const CREATED: u8 = 0;
const COMPUTED: u8 = 1;

struct NodeState<K> {
    key: K,
    color: Color,
    /// Join counter with +1 init bias; the decrement that reaches zero owns
    /// the compute.
    join: JoinCounter,
    /// Status + successor list, guarded together so that registration can
    /// atomically decide "enqueue" vs "already computed" (the paper's
    /// atomicity choice that makes enqueueing race-free).
    succ: Mutex<SuccList<K>>,
}

struct SuccList<K> {
    status: u8,
    waiting: Vec<Arc<NodeState<K>>>,
}

/// Sharded concurrent node table (key → node). The paper's "atomically
/// attempt to create a predecessor with key pkey".
struct NodeTable<K> {
    shards: Vec<RwLock<HashMap<K, Arc<NodeState<K>>>>>,
}

impl<K: Eq + Hash + Clone> NodeTable<K> {
    fn new() -> Self {
        NodeTable {
            shards: (0..64).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, Arc<NodeState<K>>>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Returns `(node, created_by_us)`.
    fn get_or_create(&self, key: &K, color: Color) -> (Arc<NodeState<K>>, bool) {
        let shard = self.shard(key);
        if let Some(n) = shard.read().get(key) {
            return (n.clone(), false);
        }
        let mut w = shard.write();
        if let Some(n) = w.get(key) {
            return (n.clone(), false);
        }
        let node = Arc::new(NodeState {
            key: key.clone(),
            color,
            join: JoinCounter::new(),
            succ: Mutex::new(SuccList {
                status: CREATED,
                waiting: Vec::new(),
            }),
        });
        w.insert(key.clone(), node.clone());
        (node, true)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }
}

struct DynState<S: TaskSpec> {
    spec: Arc<S>,
    table: NodeTable<S::Key>,
    remote: Option<RemoteCounters>,
    executed: AtomicU64,
}

enum Work<S: TaskSpec> {
    /// A node we created and must initialize (paper: `init_node_and_compute`).
    Init(Arc<NodeState<S::Key>>),
    /// A node whose dependences were satisfied; compute it.
    Compute(Arc<NodeState<S::Key>>),
}

impl<S: TaskSpec> ColoredItem for Work<S> {
    fn color(&self) -> Color {
        match self {
            Work::Init(n) | Work::Compute(n) => n.color,
        }
    }
}

/// Executes [`TaskSpec`] computations on a [`Pool`].
pub struct DynamicExecutor<S: TaskSpec> {
    pool: Arc<Pool>,
    spec: Arc<S>,
    count_remote: bool,
}

impl<S: TaskSpec> DynamicExecutor<S> {
    /// Creates an executor for `spec` on `pool`.
    pub fn new(pool: Arc<Pool>, spec: Arc<S>) -> Self {
        DynamicExecutor {
            pool,
            spec,
            count_remote: true,
        }
    }

    /// Enables/disables remote-access accounting.
    pub fn with_remote_counting(mut self, on: bool) -> Self {
        self.count_remote = on;
        self
    }

    /// Executes the computation rooted at `sink`: everything the sink
    /// transitively depends on runs exactly once, in dependence order.
    ///
    /// As with [`StaticExecutor::execute`](crate::StaticExecutor::execute),
    /// the returned [`RunReport`] covers this run only: statistics and (on
    /// a traced pool) the event rings are reset on entry.
    pub fn execute(&self, sink: S::Key) -> RunReport {
        let workers = self.pool.workers();
        let state: Arc<DynState<S>> = Arc::new(DynState {
            spec: self.spec.clone(),
            table: NodeTable::new(),
            remote: self
                .count_remote
                .then(|| RemoteCounters::new(self.pool.topology().clone(), workers)),
            executed: AtomicU64::new(0),
        });

        self.pool.reset_stats();
        self.pool.reset_trace();
        let started = Instant::now();
        {
            let st = state.clone();
            let sink_color = self.spec.color(&sink);
            let sink_key = sink.clone();
            self.pool.run(ColorSet::singleton(sink_color), move |ctx| {
                let (node, created) = st.table.get_or_create(&sink_key, sink_color);
                debug_assert!(created, "sink must be fresh");
                init_node(&st, ctx, node);
            });
        }
        let elapsed = started.elapsed();
        // The job only terminates when every spawned task finished; verify
        // the sink actually computed (the paper's completion criterion).
        let (sink_node, created) = state.table.get_or_create(&sink, self.spec.color(&sink));
        assert!(!created, "sink vanished from the node table");
        assert_eq!(
            sink_node.succ.lock().status,
            COMPUTED,
            "sink did not complete"
        );
        let nodes_executed = state.executed.load(Ordering::SeqCst);
        debug_assert_eq!(nodes_executed as usize, state.table.len());

        RunReport {
            elapsed,
            nodes_executed,
            remote: state
                .remote
                .as_ref()
                .map(|r| r.report())
                .unwrap_or_default(),
            stats: self.pool.stats(),
            runtime_trace: self
                .pool
                .tracing_enabled()
                .then(|| self.pool.trace_snapshot()),
            ..RunReport::default()
        }
    }
}

/// Dispatches a work item (used by the color-aware spawner).
fn dispatch<S: TaskSpec>(state: &Arc<DynState<S>>, ctx: &mut WorkerContext<'_>, work: Work<S>) {
    match work {
        Work::Init(node) => init_node(state, ctx, node),
        Work::Compute(node) => compute_and_notify(state, ctx, node),
    }
}

/// The paper's `init_node_and_compute` (Fig. 4): discover predecessors,
/// create or register with each, then release the init bias.
fn init_node<S: TaskSpec>(
    state: &Arc<DynState<S>>,
    ctx: &mut WorkerContext<'_>,
    node: Arc<NodeState<S::Key>>,
) {
    // Chain-shaped graphs discover one new predecessor per node; iterate
    // on that case instead of recursing so discovery depth is unbounded.
    let mut node = node;
    loop {
        let preds = state.spec.predecessors(&node.key);

        // Bias +1 while scanning so the node cannot fire mid-scan; start
        // from the full predecessor count and decrement for each
        // already-computed one.
        node.join.begin_scan(preds.len());

        let mut to_init: Vec<Work<S>> = Vec::new();
        let mut satisfied: i64 = 0;

        for pk in preds {
            let pcolor = state.spec.color(&pk);
            let (pred, created) = state.table.get_or_create(&pk, pcolor);
            // Register interest (try_init_compute): under the successor
            // lock, either the predecessor is already computed (dependence
            // satisfied) or we enqueue ourselves.
            let registered = {
                let mut s = pred.succ.lock();
                if s.status == COMPUTED {
                    false
                } else {
                    s.waiting.push(node.clone());
                    true
                }
            };
            if !registered {
                satisfied += 1;
            }
            if created {
                to_init.push(Work::Init(pred));
            }
        }

        // Release satisfied dependences and the init bias; whoever reaches
        // zero computes the node.
        let self_ready = node.join.end_scan(satisfied);

        // Spawn the predecessors we created, color-guided. If this node
        // became ready, append it to the same batch so its compute also
        // routes by color (with a single item spawn_colors degenerates to
        // a direct call).
        if self_ready {
            to_init.push(Work::Compute(node.clone()));
        }
        match to_init.len() {
            0 => return,
            1 => match to_init.pop().expect("len checked") {
                Work::Init(n) => {
                    node = n;
                }
                Work::Compute(n) => {
                    compute_and_notify(state, ctx, n);
                    return;
                }
            },
            _ => {
                let st = state.clone();
                spawn_colors(
                    ctx,
                    to_init,
                    Arc::new(move |ctx: &mut WorkerContext<'_>, w: Work<S>| {
                        dispatch(&st, ctx, w);
                    }),
                );
                return;
            }
        }
    }
}

/// The paper's `compute_and_notify` (Fig. 4): run the task, mark computed,
/// drain waiters, spawn the ones that became ready.
fn compute_and_notify<S: TaskSpec>(
    state: &Arc<DynState<S>>,
    ctx: &mut WorkerContext<'_>,
    start: Arc<NodeState<S::Key>>,
) {
    // Iterate instead of recursing for the single-ready-successor case so
    // chain-shaped graphs cannot overflow the stack.
    let mut node = start;
    loop {
        debug_assert_eq!(node.join.pending(), 0);
        let me = ctx.worker_id();

        if let Some(rc) = &state.remote {
            let pred_colors: Vec<Color> = state
                .spec
                .predecessors(&node.key)
                .iter()
                .map(|k| state.spec.color(k))
                .collect();
            rc.record_node(me, node.color, pred_colors);
        }

        state.spec.compute(&node.key, me);
        state.executed.fetch_add(1, Ordering::Relaxed);

        // Publish COMPUTED and take the waiters atomically.
        let waiting = {
            let mut s = node.succ.lock();
            s.status = COMPUTED;
            std::mem::take(&mut s.waiting)
        };

        let mut ready: Vec<Work<S>> = Vec::new();
        for w in waiting {
            if w.join.notify() {
                ready.push(Work::Compute(w));
            }
        }

        if ready.is_empty() {
            return;
        }
        if ready.len() == 1 {
            match ready.pop().expect("len checked") {
                Work::Compute(n) => {
                    node = n;
                    continue;
                }
                Work::Init(n) => {
                    init_node(state, ctx, n);
                    return;
                }
            }
        }
        let st = state.clone();
        spawn_colors(
            ctx,
            ready,
            Arc::new(move |ctx: &mut WorkerContext<'_>, w: Work<S>| {
                dispatch(&st, ctx, w);
            }),
        );
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_runtime::PoolConfig;
    use parking_lot::Mutex as PlMutex;

    /// Pascal-triangle style DAG: key (i, j) depends on (i-1, j-1) and
    /// (i-1, j) when in range. Sink (n, k) pulls in a triangle of nodes.
    struct Pascal {
        n: usize,
        computed: PlMutex<Vec<(usize, usize)>>,
        colors: usize,
    }

    impl TaskSpec for Pascal {
        type Key = (usize, usize);

        fn predecessors(&self, &(i, j): &Self::Key) -> Vec<Self::Key> {
            let mut p = Vec::new();
            if i > 0 {
                if j > 0 {
                    p.push((i - 1, j - 1));
                }
                if j < i {
                    p.push((i - 1, j));
                }
            }
            p
        }

        fn color(&self, &(_, j): &Self::Key) -> Color {
            Color::from(j % self.colors.max(1))
        }

        fn compute(&self, key: &Self::Key, _worker: usize) {
            self.computed.lock().push(*key);
        }
    }

    fn run_pascal(workers: usize, n: usize) -> Vec<(usize, usize)> {
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));
        let spec = Arc::new(Pascal {
            n,
            computed: PlMutex::new(Vec::new()),
            colors: workers,
        });
        let exec = DynamicExecutor::new(pool, spec.clone());
        let report = exec.execute((spec.n, n / 2));
        let order = spec.computed.lock().clone();
        assert_eq!(order.len() as u64, report.nodes_executed);
        order
    }

    fn check_order(order: &[(usize, usize)]) {
        // Every node's predecessors appear earlier.
        let pos: HashMap<(usize, usize), usize> =
            order.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        for (&(i, j), &p) in &pos {
            if i > 0 {
                if j > 0 {
                    assert!(pos[&(i - 1, j - 1)] < p, "({i},{j}) before its pred");
                }
                if j < i {
                    assert!(pos[&(i - 1, j)] < p, "({i},{j}) before its pred");
                }
            }
        }
        // No duplicates.
        assert_eq!(pos.len(), order.len());
    }

    #[test]
    fn pascal_single_worker() {
        let order = run_pascal(1, 10);
        check_order(&order);
        // Triangle above (10,5): exactly the ancestors.
        assert!(order.contains(&(10, 5)));
        assert!(order.contains(&(0, 0)));
    }

    #[test]
    fn pascal_many_workers() {
        for seed_run in 0..3 {
            let _ = seed_run;
            let order = run_pascal(8, 40);
            check_order(&order);
        }
    }

    #[test]
    fn consecutive_runs_on_a_traced_pool_report_only_their_own_events() {
        // One worker makes the task structure deterministic, so a second
        // identical run must report exactly the first run's exec count —
        // not both runs' (the rings are reset on entry, as the stats are).
        let pool = Arc::new(Pool::new(
            PoolConfig::nabbitc(1).with_trace(nabbitc_runtime::TraceConfig::enabled()),
        ));
        let execs = |report: &RunReport| -> u64 {
            let trace = report.runtime_trace.as_ref().expect("pool traces");
            trace.summaries().iter().map(|s| s.execs).sum()
        };
        let run = || {
            let spec = Arc::new(Pascal {
                n: 10,
                computed: PlMutex::new(Vec::new()),
                colors: 1,
            });
            DynamicExecutor::new(pool.clone(), spec).execute((10, 5))
        };
        let first = run();
        let second = run();
        assert!(execs(&first) > 0);
        assert_eq!(execs(&second), execs(&first));
        assert_eq!(execs(&second), second.stats.total_tasks());
        assert_eq!(second.nodes_executed, first.nodes_executed);
    }

    #[test]
    fn only_demanded_nodes_execute() {
        // Sink (5, 0) depends only on the left edge (i, 0): 6 nodes.
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(4)));
        let spec = Arc::new(Pascal {
            n: 5,
            computed: PlMutex::new(Vec::new()),
            colors: 4,
        });
        let exec = DynamicExecutor::new(pool, spec.clone());
        let report = exec.execute((5, 0));
        assert_eq!(report.nodes_executed, 6);
        let order = spec.computed.lock().clone();
        assert!(order.iter().all(|&(_, j)| j == 0));
    }

    #[test]
    fn nabbit_policy_dynamic() {
        let pool = Arc::new(Pool::new(PoolConfig::nabbit(6)));
        let spec = Arc::new(Pascal {
            n: 30,
            computed: PlMutex::new(Vec::new()),
            colors: 6,
        });
        let exec = DynamicExecutor::new(pool, spec.clone());
        exec.execute((30, 15));
        check_order(&spec.computed.lock());
    }

    #[test]
    fn deep_chain_spec_no_overflow() {
        struct Chain;
        impl TaskSpec for Chain {
            type Key = u32;
            fn predecessors(&self, &k: &u32) -> Vec<u32> {
                if k == 0 {
                    vec![]
                } else {
                    vec![k - 1]
                }
            }
            fn color(&self, &k: &u32) -> Color {
                Color::from((k % 4) as usize)
            }
            fn compute(&self, _: &u32, _: usize) {}
        }
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(4)));
        let exec = DynamicExecutor::new(pool, Arc::new(Chain));
        let report = exec.execute(100_000);
        assert_eq!(report.nodes_executed, 100_001);
    }

    #[test]
    fn shared_predecessor_created_once() {
        // Diamond: sink has two preds sharing one grand-pred; the
        // grand-pred must execute exactly once even under racing.
        struct Diamond {
            count: AtomicU64,
        }
        impl TaskSpec for Diamond {
            type Key = u8;
            fn predecessors(&self, &k: &u8) -> Vec<u8> {
                match k {
                    3 => vec![1, 2],
                    1 | 2 => vec![0],
                    _ => vec![],
                }
            }
            fn color(&self, &k: &u8) -> Color {
                Color::from((k % 2) as usize)
            }
            fn compute(&self, &k: &u8, _: usize) {
                if k == 0 {
                    self.count.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        for _ in 0..50 {
            let pool = Arc::new(Pool::new(PoolConfig::nabbitc(4)));
            let spec = Arc::new(Diamond {
                count: AtomicU64::new(0),
            });
            let exec = DynamicExecutor::new(pool, spec.clone());
            let report = exec.execute(3);
            assert_eq!(report.nodes_executed, 4);
            assert_eq!(spec.count.load(Ordering::SeqCst), 1);
        }
    }
}
