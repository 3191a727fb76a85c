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
//! Registration takes no lock. A node's "computed" status *is* its
//! successor list's head ([`SuccessorList`](crate::join::SuccessorList)):
//! registering is one CAS that either pushes the waiter or finds the list
//! closed, and completing is one swap that closes the list and takes every
//! waiter pushed before it — the atomic "enqueue or already computed"
//! decision the paper makes with a lock, on one word. Nodes are found
//! through the color-partitioned node table of `store.rs`, which holds
//! them in arenas for the length of the run; this module only ever
//! handles them through that table's safe methods.
//!
//! What this module owns is discovery — `init_node`: the predecessor
//! scan, the init bias, registration through one slot per predecessor
//! that the table hands the scanning worker from its own arena. A node
//! that became ready is handed to the `compute_and_notify` loop of
//! `exec.rs`, the same loop [`StaticExecutor`](crate::StaticExecutor)
//! runs, here over the hash table as its node store.
//!
//! The paper's "recursively process" is a loop here, as in `exec.rs`: a
//! scan that created one predecessor carries on with it, and one that
//! created several spawns them and carries on with the item
//! [`spawn_colors`] leaves to this worker, so
//! discovery runs in constant stack depth on chains and combs alike.
//!
//! All predecessor and successor batches flow through
//! [`crate::spawn::spawn_colors`], making this NabbitC when
//! the pool steals by color.

use crate::exec::{compute_and_notify, NodeStore, Ready, Run};
use crate::metrics::RemoteCounters;
use crate::report::RunReport;
use crate::spawn::{spawn_colors, ColoredItem};
use crate::store::{NodeRef, NodeTable};
use nabbitc_color::{Color, ColorSet};
use nabbitc_runtime::{Pool, WorkerContext};
use std::hash::Hash;
use std::sync::Arc;

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
    ///
    /// Must be a pure function of the key for as long as the spec lives:
    /// every call with equal keys returns the same color. The executor asks
    /// once per dependence edge and files the node under its color, so a
    /// key that changed color would be discovered — and computed — twice
    /// (debug builds assert against it).
    fn color(&self, key: &Self::Key) -> Color;

    /// Performs the task. `worker` is the executing worker id.
    fn compute(&self, key: &Self::Key, worker: usize);
}

/// The on-demand node store: nodes are created as they are discovered
/// and found through the color-partitioned table.
struct OnDemand<S: TaskSpec> {
    spec: Arc<S>,
    table: NodeTable<S::Key>,
}

impl<S: TaskSpec> NodeStore for OnDemand<S> {
    type Node = NodeRef<S::Key>;

    fn record_remote(&self, node: Self::Node, worker: usize, remote: &RemoteCounters) {
        let this = self.table.node(node);
        let preds = self.spec.predecessors(&this.key);
        remote.record_node(worker, this.color, preds.iter().map(|k| self.spec.color(k)));
    }

    fn compute(&self, node: Self::Node, worker: usize) {
        let this = self.table.node(node);
        debug_assert_eq!(this.join.pending(), 0);
        self.spec.compute(&this.key, worker);
    }

    fn complete(&self, node: Self::Node, ready: &mut Vec<Ready<Self::Node>>) {
        // Publish "computed" and take the waiters in one swap; the ones
        // whose last dependence this was are ready. Registrations pile up
        // newest first; release them in the order they arrived.
        for waiter in self.table.complete(node) {
            let w = self.table.node(waiter);
            if w.join.notify() {
                ready.push(Ready {
                    node: waiter,
                    color: w.color,
                });
            }
        }
        ready.reverse();
    }
}

/// One item of a discovery batch.
enum Work<K> {
    /// A node we created and must initialize (paper: `init_node_and_compute`).
    Init(NodeRef<K>, Color),
    /// The scanned node itself, found ready at the end of its scan.
    Compute(Ready<NodeRef<K>>),
}

impl<K: Send + Sync + 'static> ColoredItem for Work<K> {
    fn color(&self) -> Color {
        match self {
            Work::Init(_, color) => *color,
            Work::Compute(ready) => ready.color,
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
    /// a traced pool) the event rings are reset on entry, as one unit with
    /// the run and the snapshot.
    ///
    /// # Panics
    ///
    /// If the job drains without the sink having been computed, which
    /// means `predecessors()` describes a cycle (or answers differently
    /// from call to call). The pool is unaffected and can run the next job.
    pub fn execute(&self, sink: S::Key) -> RunReport {
        let store = OnDemand {
            spec: self.spec.clone(),
            table: NodeTable::new(self.pool.workers()),
        };
        let sink_color = self.spec.color(&sink);
        let (sink_node, _) = store.table.get_or_create(&sink, sink_color);
        let (report, store) = Run::execute(
            &self.pool,
            store,
            self.count_remote,
            ColorSet::singleton(sink_color),
            move |run, ctx| init_node(run, ctx, sink_node),
        );
        // The job only terminates when every spawned task finished; verify
        // the sink actually computed (the paper's completion criterion).
        let discovered = store.table.len();
        let nodes_executed = report.nodes_executed;
        assert!(
            store.table.node(sink_node).is_computed(),
            "sink {sink:?} did not complete: {discovered} nodes discovered, {nodes_executed} \
             computed — predecessors() is cyclic or inconsistent"
        );
        debug_assert_eq!(nodes_executed as usize, discovered);
        report
    }
}

/// The paper's `init_node_and_compute` (Fig. 4): discover predecessors,
/// create or register with each, then release the init bias.
fn init_node<S: TaskSpec>(
    run: &Arc<Run<OnDemand<S>>>,
    ctx: &mut WorkerContext<'_>,
    mut node: NodeRef<S::Key>,
) {
    let OnDemand { spec, table } = &run.store;
    // Each iteration scans one node and carries on with the one item the
    // scan leaves to this worker (see the module docs). The batch buffer
    // is shared by the iterations: following a chain pops its one item
    // back out, and only a spawn gives the buffer away.
    let mut batch: Vec<Work<S::Key>> = Vec::new();
    loop {
        let this = table.node(node);
        debug_assert_eq!(
            spec.color(&this.key),
            this.color,
            "TaskSpec::color must be a pure function of the key"
        );
        let preds = spec.predecessors(&this.key);

        // Bias +1 while scanning so the node cannot fire mid-scan; start
        // from the full predecessor count and decrement for each
        // already-computed one. One registration slot per predecessor.
        let slots = table.begin_scan(node, preds.len(), ctx.worker_id());

        let mut satisfied: i64 = 0;
        for (pk, slot) in preds.iter().zip(slots) {
            let color = spec.color(pk);
            let (pred, created) = table.get_or_create(pk, color);
            // Register interest (try_init_compute): in one CAS, either we
            // are on the predecessor's successor list or it is already
            // computed (dependence satisfied).
            if !table.register(slot, pred) {
                satisfied += 1;
            }
            if created {
                batch.push(Work::Init(pred, color));
            }
        }

        // Release satisfied dependences and the init bias; whoever reaches
        // zero computes the node. If this node became ready, append it to
        // the batch of predecessors we created so its compute also routes
        // by color.
        if this.join.end_scan(satisfied) {
            batch.push(Work::Compute(Ready {
                node,
                color: this.color,
            }));
        }
        let next = match batch.len() {
            0 => return,
            1 => batch.pop(),
            _ => {
                let run = run.clone();
                let process = move |ctx: &mut WorkerContext<'_>, work| match work {
                    Work::Init(pred, _) => init_node(&run, ctx, pred),
                    Work::Compute(ready) => compute_and_notify(&run, ctx, ready.node),
                };
                spawn_colors(ctx, std::mem::take(&mut batch), Arc::new(process))
            }
        };
        match next.expect("a non-empty batch leaves one item") {
            Work::Init(pred, _) => node = pred,
            Work::Compute(ready) => return compute_and_notify(run, ctx, ready.node),
        }
    }
}

// The unit tests reach these through `use super::*`.
#[cfg(test)]
use {
    nabbitc_runtime::sync::{AtomicU64, Ordering},
    std::collections::HashMap,
};

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
