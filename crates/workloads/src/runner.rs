//! The two runners of a task graph on real threads. Each runnable
//! workload's `run_taskgraph` takes either, so its node kernel is written
//! once:
//!
//! * a [`StaticExecutor`] — Nabbit or NabbitC, by its pool's steal policy;
//! * a `(&Team, OmpSchedule)` pair — OPENMPSTATIC or OPENMPGUIDED, one
//!   barrier-closed loop per hop-count level ([`Team::run_graph`]).

use nabbitc_core::metrics::RemoteAccessReport;
use nabbitc_core::StaticExecutor;
use nabbitc_graph::{NodeId, TaskGraph};
use nabbitc_parfor::Team;
use nabbitc_runtime::OmpSchedule;
use std::sync::Arc;

/// Runs every node of a task graph once, after all its predecessors.
pub trait GraphRunner {
    /// Workers, which are the colors a workload builds its graph for.
    fn workers(&self) -> usize;

    /// Runs `graph`, calling `kernel(node, worker)` once per node, and
    /// returns the run's §V-B remote-access count.
    fn run<K>(&self, graph: &Arc<TaskGraph>, kernel: Arc<K>) -> RemoteAccessReport
    where
        K: Fn(NodeId, usize) + Send + Sync + 'static;
}

impl GraphRunner for StaticExecutor {
    fn workers(&self) -> usize {
        self.pool().workers()
    }

    fn run<K>(&self, graph: &Arc<TaskGraph>, kernel: Arc<K>) -> RemoteAccessReport
    where
        K: Fn(NodeId, usize) + Send + Sync + 'static,
    {
        self.execute(graph, kernel).remote
    }
}

impl GraphRunner for (&Team, OmpSchedule) {
    fn workers(&self) -> usize {
        self.0.size()
    }

    fn run<K>(&self, graph: &Arc<TaskGraph>, kernel: Arc<K>) -> RemoteAccessReport
    where
        K: Fn(NodeId, usize) + Send + Sync + 'static,
    {
        self.0.run_graph(graph, self.1, &*kernel)
    }
}
