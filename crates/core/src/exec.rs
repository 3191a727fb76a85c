//! The executor core: Nabbit's `compute_and_notify` (Agrawal, Leiserson &
//! Sukha, IPDPS'10, Fig. 4), once, over whatever holds the nodes.
//!
//! Both executors run the same routine on a ready node — count its §V-B
//! accesses, run its body, mark it computed, notify the nodes that waited
//! for it, and either stop (nothing became ready), carry on with the one
//! node that did (the paper's "recursively execute that node") or hand the
//! several that did to [`spawn_colors`] and carry on with the one it leaves
//! to this worker. Carrying on is an iteration, not a call, so neither a
//! chain nor a comb (a chain releasing a leaf at every step) can overflow
//! the stack however long it is. The executors differ only in where a node's
//! [`JoinCounter`](crate::JoinCounter) and successor list live. That
//! difference is the [`NodeStore`] trait: `static_exec.rs` implements it
//! as a dense table over a pre-built `TaskGraph`, every node discovered
//! and armed before the job starts; `dynamic.rs` implements it over the
//! color-partitioned hash table of `store.rs` and puts discovery
//! (`init_node`) in front of the loop.
//!
//! [`Run`] is one execution's shared state and [`Run::execute`] its one
//! job boundary: the pool's statistics and event rings are reset, the job
//! run and both snapshotted inside a single [`Pool::run_measured`] call,
//! so a [`RunReport`] describes its own run even when several threads
//! execute on one pool.

use crate::metrics::{RemoteCounters, WorkerCounts};
use crate::report::RunReport;
use crate::spawn::{spawn_colors, ColoredItem};
use nabbitc_color::{Color, ColorSet};
use nabbitc_runtime::{Pool, WorkerContext};
use std::sync::Arc;

/// Where a run's nodes live: how to run one, and whom its completion makes
/// ready.
pub(crate) trait NodeStore: Send + Sync + 'static {
    /// Handle to one node of this store.
    type Node: Copy + Send + 'static;

    /// Records `node`'s own and its predecessors' colors as accessed by
    /// `worker` (§V-B).
    fn record_remote(&self, node: Self::Node, worker: usize, remote: &RemoteCounters);

    /// Runs `node`'s body on `worker`. Every dependence is satisfied: the
    /// node's join counter has been brought to zero, and by the caller.
    fn compute(&self, node: Self::Node, worker: usize);

    /// Marks `node` computed and notifies everything waiting for it,
    /// pushing the nodes whose last dependence this was onto `ready`
    /// (empty on entry) in the order they are to be released.
    fn complete(&self, node: Self::Node, ready: &mut Vec<Ready<Self::Node>>);
}

/// A node whose dependences are all satisfied, with the color it is
/// spawned under.
pub(crate) struct Ready<N> {
    pub(crate) node: N,
    pub(crate) color: Color,
}

impl<N: Send + 'static> ColoredItem for Ready<N> {
    fn color(&self) -> Color {
        self.color
    }
}

/// One execution: the store plus what every run counts.
pub(crate) struct Run<S> {
    pub(crate) store: S,
    remote: Option<RemoteCounters>,
    /// Executed-node count: reported, and checked against the node count
    /// by both executors in debug builds.
    executed: WorkerCounts,
}

impl<S: NodeStore> Run<S> {
    /// Runs `root` as one job on `pool` over `store` and reports it; the
    /// store comes back for whatever the caller still reads from it.
    pub(crate) fn execute(
        pool: &Pool,
        store: S,
        count_remote: bool,
        root_colors: ColorSet,
        root: impl FnOnce(&Arc<Self>, &mut WorkerContext<'_>) + Send + 'static,
    ) -> (RunReport, S) {
        let workers = pool.workers();
        let run = Arc::new(Run {
            store,
            remote: count_remote.then(|| RemoteCounters::new(pool.topology().clone(), workers)),
            executed: WorkerCounts::new(workers),
        });
        let job = {
            let run = run.clone();
            pool.run_measured(root_colors, move |ctx| root(&run, ctx))
        };
        // Every task held a clone; the job returns only when all are gone.
        let run = Arc::try_unwrap(run)
            .unwrap_or_else(|_| panic!("executor state leaked past job completion"));
        let report = RunReport {
            elapsed: job.elapsed,
            nodes_executed: run.executed.total(),
            remote: run.remote.map(|r| r.report()).unwrap_or_default(),
            stats: job.stats,
            runtime_trace: job.trace,
            ..RunReport::default()
        };
        (report, run.store)
    }
}

/// The paper's `compute_and_notify`: run the node, mark it computed,
/// notify its waiters, release the ones that became ready.
pub(crate) fn compute_and_notify<S: NodeStore>(
    run: &Arc<Run<S>>,
    ctx: &mut WorkerContext<'_>,
    mut node: S::Node,
) {
    // One buffer for all iterations: following a chain pops its one item
    // back out, and only a spawn gives the buffer away.
    let mut ready = Vec::new();
    loop {
        let me = ctx.worker_id();
        if let Some(remote) = &run.remote {
            run.store.record_remote(node, me, remote);
        }
        run.store.compute(node, me);
        run.executed.add(me);
        run.store.complete(node, &mut ready);
        node = match ready.len() {
            0 => return,
            1 => ready.pop().expect("len checked").node,
            _ => {
                spawn_ready(run, ctx, std::mem::take(&mut ready))
                    .expect("a batch of several leaves one node")
                    .node
            }
        };
    }
}

/// Releases a batch of ready nodes through the color-aware spawner and
/// returns the one it leaves to this worker, which the caller runs next.
#[must_use = "the returned node is the caller's to run"]
pub(crate) fn spawn_ready<S: NodeStore>(
    run: &Arc<Run<S>>,
    ctx: &mut WorkerContext<'_>,
    ready: Vec<Ready<S::Node>>,
) -> Option<Ready<S::Node>> {
    let run = run.clone();
    spawn_colors(
        ctx,
        ready,
        Arc::new(move |ctx: &mut WorkerContext<'_>, r: Ready<S::Node>| {
            compute_and_notify(&run, ctx, r.node);
        }),
    )
}
