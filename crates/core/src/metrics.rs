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
use nabbitc_runtime::sync::{AtomicU64, Ordering::Relaxed};
use nabbitc_runtime::ColorDomains;

/// Per-worker live counters.
#[derive(Default)]
struct WorkerCounters {
    node_total: CachePadded<AtomicU64>,
    node_remote: CachePadded<AtomicU64>,
    pred_total: CachePadded<AtomicU64>,
    pred_remote: CachePadded<AtomicU64>,
}

/// Concurrent remote-access counters for a pool of workers.
pub struct RemoteCounters {
    topology: Topology,
    workers: Vec<WorkerCounters>,
}

impl RemoteCounters {
    /// Creates counters for `workers` workers on `topology`.
    pub fn new(topology: Topology, workers: usize) -> Self {
        RemoteCounters {
            topology,
            workers: (0..workers).map(|_| WorkerCounters::default()).collect(),
        }
    }

    /// Records the execution of a node colored `node_color` whose
    /// predecessors have colors `pred_colors`, by `worker`.
    pub fn record_node(
        &self,
        worker: usize,
        node_color: Color,
        pred_colors: impl IntoIterator<Item = Color>,
    ) {
        let count = self.topology.count_node(worker, node_color, pred_colors);
        let c = &self.workers[worker];
        // ORDERING node_total.fetch_add: Relaxed — NUMA-remoteness counter
        // aggregated after the run; atomicity only
        c.node_total.fetch_add(1, Relaxed);
        if count.remote {
            // ORDERING node_remote.fetch_add: Relaxed — NUMA-remoteness
            // counter aggregated after the run; atomicity only
            c.node_remote.fetch_add(1, Relaxed);
        }
        if count.preds > 0 {
            // ORDERING pred_total.fetch_add: Relaxed — per-predecessor traffic
            // counter aggregated after the run; atomicity only
            c.pred_total.fetch_add(count.preds, Relaxed);
            // ORDERING pred_remote.fetch_add: Relaxed — per-predecessor
            // traffic counter aggregated after the run; atomicity only
            c.pred_remote.fetch_add(count.preds_remote, Relaxed);
        }
    }

    /// Aggregates into a report.
    pub fn report(&self) -> RemoteAccessReport {
        let mut r = RemoteAccessReport::default();
        for w in &self.workers {
            // ORDERING node_total.load: Relaxed — post-run aggregation; the
            // counters are quiescent once the job barrier passed
            r.node_total += w.node_total.load(Relaxed);
            // ORDERING node_remote.load: Relaxed — post-run aggregation over
            // quiescent counters
            r.node_remote += w.node_remote.load(Relaxed);
            // ORDERING pred_total.load: Relaxed — post-run aggregation over
            // quiescent counters
            r.pred_total += w.pred_total.load(Relaxed);
            // ORDERING pred_remote.load: Relaxed — post-run aggregation over
            // quiescent counters
            r.pred_remote += w.pred_remote.load(Relaxed);
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
    slots: Box<[CachePadded<AtomicU64>]>,
}

impl WorkerCounts {
    pub(crate) fn new(workers: usize) -> Self {
        WorkerCounts {
            slots: (0..workers).map(|_| CachePadded::default()).collect(),
        }
    }

    /// One more node executed by `worker`.
    pub(crate) fn add(&self, worker: usize) {
        // ORDERING slots.fetch_add: Relaxed — per-worker executed-node counter
        // (both executors), written by its worker only and read after the job
        // barrier; atomicity only
        self.slots[worker].fetch_add(1, Relaxed);
    }

    /// Sum over workers; exact once the job that counted has returned.
    pub(crate) fn total(&self) -> u64 {
        // ORDERING slot.load: Relaxed — post-run sum over quiescent per-worker
        // counters; the pool's job barrier orders every add before it
        self.slots.iter().map(|slot| slot.load(Relaxed)).sum()
    }
}

/// Aggregated remote-access counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RemoteAccessReport {
    /// Nodes executed.
    pub node_total: u64,
    /// Nodes executed outside their color's domain.
    pub node_remote: u64,
    /// Predecessor accesses checked.
    pub pred_total: u64,
    /// Predecessor accesses crossing domains.
    pub pred_remote: u64,
}

impl RemoteAccessReport {
    /// Total accesses considered.
    pub fn total(&self) -> u64 {
        self.node_total + self.pred_total
    }

    /// Remote accesses.
    pub fn remote(&self) -> u64 {
        self.node_remote + self.pred_remote
    }

    /// Percentage of accesses that were remote — the Figure 7 y-axis.
    pub fn pct_remote(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.remote() as f64 / self.total() as f64
        }
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
