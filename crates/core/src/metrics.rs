//! Remote-access accounting at node granularity (§V-B).
//!
//! The paper could not use hardware counters ("we were limited by OS
//! version and available hardware counters") and instead counts, per
//! thread:
//!
//! 1. executed nodes whose color matches no thread in the executing
//!    thread's NUMA domain, and
//! 2. predecessors of executed nodes whose color matches no thread in that
//!    domain (reading a predecessor's output is an access to its region).
//!
//! The sum over threads, divided by the total number of such checks, is the
//! "% remote accesses" of Figure 7. We reproduce the metric exactly.

use crossbeam_utils::CachePadded;
use nabbitc_color::Color;
use nabbitc_cost::Topology;
use nabbitc_runtime::sync::OwnedCounter;
use nabbitc_runtime::ColorDomains;

// What `RemoteCounters::report` returns; defined beside the count it
// sums, so the simulators report the same type.
pub use nabbitc_runtime::RemoteAccessReport;

/// Per-worker live counters, on one cache line: only their worker writes
/// them.
#[derive(Default)]
struct WorkerCounters {
    node_total: OwnedCounter,
    node_remote: OwnedCounter,
    pred_total: OwnedCounter,
    pred_remote: OwnedCounter,
}

/// Remote-access counters for a pool of workers: each worker records
/// into its own, and anyone may read the report.
pub struct RemoteCounters {
    topology: Topology,
    workers: Vec<CachePadded<WorkerCounters>>,
}

impl RemoteCounters {
    /// Creates counters for `workers` workers on `topology`.
    pub fn new(topology: Topology, workers: usize) -> Self {
        RemoteCounters {
            topology,
            workers: (0..workers).map(|_| CachePadded::default()).collect(),
        }
    }

    /// Records the execution of a node colored `node_color` whose
    /// predecessors have colors `pred_colors`, by `worker`. Each
    /// worker's counts have one writer: call this from `worker`'s own
    /// thread (or from one thread for all workers); two threads recording
    /// for one worker at once lose counts.
    pub fn record_node(
        &self,
        worker: usize,
        node_color: Color,
        pred_colors: impl IntoIterator<Item = Color>,
    ) {
        let count = self.topology.count_node(worker, node_color, pred_colors);
        let c = &self.workers[worker];
        c.node_total.add(1);
        if count.remote {
            c.node_remote.add(1);
        }
        if count.preds > 0 {
            c.pred_total.add(count.preds);
            c.pred_remote.add(count.preds_remote);
        }
    }

    /// Aggregates into a report.
    pub fn report(&self) -> RemoteAccessReport {
        let mut r = RemoteAccessReport::default();
        for w in &self.workers {
            r.node_total += w.node_total.get();
            r.node_remote += w.node_remote.get();
            r.pred_total += w.pred_total.get();
            r.pred_remote += w.pred_remote.get();
        }
        r
    }
}

/// Nodes executed, counted per worker: each worker bumps a counter on its
/// own cache line (one shared counter is a line every core writes once
/// per node), and the total is read after the pool's job barrier. Both
/// executors report [`RunReport::nodes_executed`](crate::RunReport) from
/// this.
pub(crate) struct WorkerCounts {
    slots: Box<[CachePadded<OwnedCounter>]>,
}

impl WorkerCounts {
    pub(crate) fn new(workers: usize) -> Self {
        WorkerCounts {
            slots: (0..workers).map(|_| CachePadded::default()).collect(),
        }
    }

    /// One more node executed by `worker`, on `worker`'s own thread.
    pub(crate) fn add(&self, worker: usize) {
        self.slots[worker].add(1);
    }

    /// Sum over workers; exact once the job that counted has returned.
    pub(crate) fn total(&self) -> u64 {
        self.slots.iter().map(|slot| slot.get()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_and_remote_counted() {
        // 2 domains x 2 cores: workers 0,1 in domain 0 (colors {0,1}),
        // workers 2,3 in domain 1 (colors {2,3}).
        let t = Topology::new(2, 2);
        let c = RemoteCounters::new(t, 4);
        // Worker 0 executes a node of color 1 (local), preds colored 2,3
        // (both remote).
        c.record_node(0, Color(1), [Color(2), Color(3)]);
        // Worker 3 executes a node of color 0 (remote), pred colored 2
        // (local).
        c.record_node(3, Color(0), [Color(2)]);
        let r = c.report();
        assert_eq!(r.node_total, 2);
        assert_eq!(r.node_remote, 1);
        assert_eq!(r.pred_total, 3);
        assert_eq!(r.pred_remote, 2);
        assert_eq!(r.total(), 5);
        assert_eq!(r.remote(), 3);
        assert!((r.pct_remote() - 60.0).abs() < 1e-12);
    }

    #[test]
    fn uma_is_never_remote() {
        let c = RemoteCounters::new(Topology::uma(4), 4);
        for w in 0..4 {
            c.record_node(w, Color(((w + 1) % 4) as u16), [Color(0)]);
        }
        assert_eq!(c.report().pct_remote(), 0.0);
    }

    #[test]
    fn invalid_color_counts_remote() {
        let c = RemoteCounters::new(Topology::new(2, 2), 4);
        c.record_node(0, Color::INVALID, []);
        let r = c.report();
        assert_eq!(r.node_remote, 1);
        assert_eq!(r.pred_total, 0);
    }

    #[test]
    fn empty_report_is_zero_pct() {
        let r = RemoteAccessReport::default();
        assert_eq!(r.pct_remote(), 0.0);
    }
}
