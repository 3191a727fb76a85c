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
//! execute on one pool. The run lives in `execute`'s frame for the length
//! of the job, and tasks reach it through a [`RunRef`], a plain pointer:
//! spawning a task touches no reference count.

use crate::metrics::{RemoteCounters, WorkerCounts};
use crate::report::RunReport;
use crate::spawn::{spawn_colors, ColoredItem};
use nabbitc_color::{Color, ColorSet};
use nabbitc_runtime::{Pool, WorkerContext};
use std::ops::Deref;
use std::ptr::NonNull;

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
        root: impl FnOnce(RunRef<S>, &mut WorkerContext<'_>) + Send + 'static,
    ) -> (RunReport, S) {
        let workers = pool.workers();
        let run = Run {
            store,
            remote: count_remote.then(|| RemoteCounters::new(pool.topology().clone(), workers)),
            executed: WorkerCounts::new(workers),
        };
        let job = {
            let run = RunRef(NonNull::from(&run));
            pool.run_measured(root_colors, move |ctx| root(run, ctx))
        };
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

/// How the tasks of one job reach its [`Run`]: a pointer to the run in
/// [`Run::execute`]'s frame, copied into every task, with no reference
/// count to touch.
///
/// It is sound for the reason a `store.rs` `NodeRef` is: the run outlives
/// every task that holds one. `Pool::run_measured` returns — normally,
/// or unwinding with a task's panic — only once the job's pending count
/// is zero, that is once every task of the job has run or panicked (the
/// pool catches a task's panic and counts the task done like any other),
/// and `execute` moves or drops the run only after that.
pub(crate) struct RunRef<S>(NonNull<Run<S>>);

// By hand: the derives would ask for `S: Copy`.
impl<S> Clone for RunRef<S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S> Copy for RunRef<S> {}

// SAFETY: a `RunRef` is a shared reference to a `Run<S>` in all but
// lifetime (`deref` is its only use and yields `&Run`), so it may cross
// threads exactly when `&Run<S>` may: `S: NodeStore` is `Sync`, and the
// counters are atomics.
unsafe impl<S: NodeStore> Send for RunRef<S> {}
// SAFETY: as above; `&RunRef` gives nothing `RunRef` (it is `Copy`) does not.
unsafe impl<S: NodeStore> Sync for RunRef<S> {}

impl<S> Deref for RunRef<S> {
    type Target = Run<S>;

    fn deref(&self) -> &Run<S> {
        // SAFETY: made only by `Run::execute`, pointing at the run in its
        // frame, and held only by the job's tasks, which all end before
        // the job returns (see the type's docs); the run is never handed
        // out mutably while the job runs.
        unsafe { self.0.as_ref() }
    }
}

/// The paper's `compute_and_notify`: run the node, mark it computed,
/// notify its waiters, release the ones that became ready.
pub(crate) fn compute_and_notify<S: NodeStore>(
    run: RunRef<S>,
    ctx: &mut WorkerContext<'_>,
    mut node: S::Node,
) {
    // One buffer for all iterations: following a chain pops its one item
    // back out, and a spawn drains it.
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
                spawn_ready(run, ctx, ready.drain(..))
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
    run: RunRef<S>,
    ctx: &mut WorkerContext<'_>,
    ready: impl IntoIterator<Item = Ready<S::Node>>,
) -> Option<Ready<S::Node>> {
    spawn_colors(
        ctx,
        ready,
        move |ctx: &mut WorkerContext<'_>, r: Ready<S::Node>| {
            compute_and_notify(run, ctx, r.node);
        },
    )
}
