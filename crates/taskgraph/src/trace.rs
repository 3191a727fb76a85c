//! Execution trace recording and validation.
//!
//! The threaded task-graph executor (`StaticExecutor` with `record_trace`)
//! emits a per-node execution record, a [`Trace`]; the serial walk
//! (`serial::execute`) returns its execution order. The validators here
//! assert the one property both must preserve: *a node executes only after
//! all its predecessors* (§II — "a node is computed only after all its
//! (transitive) predecessors have been computed") — [`Trace::validate`] on
//! a trace, [`order_respects_dependences`] on an order.

use crate::{NodeId, TaskGraph};

/// One executed node: which worker ran it and when (virtual or real time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Node executed.
    pub node: NodeId,
    /// Executing worker id.
    pub worker: usize,
    /// Start time (ns for real runs, model units for simulated runs).
    pub start: u64,
    /// End time.
    pub end: u64,
}

/// A full execution trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events in arbitrary order (workers append concurrently).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Validates the trace against `g`:
    /// * every node appears exactly once;
    /// * each event has `start <= end`;
    /// * for every edge `p -> u`, `end(p) <= start(u)`.
    pub fn validate(&self, g: &TaskGraph) -> Result<(), TraceError> {
        let n = g.node_count();
        if self.events.len() != n {
            return Err(TraceError::WrongEventCount {
                expected: n,
                actual: self.events.len(),
            });
        }
        let mut by_node: Vec<Option<&TraceEvent>> = vec![None; n];
        for e in &self.events {
            if e.node as usize >= n {
                return Err(TraceError::UnknownNode(e.node));
            }
            if e.start > e.end {
                return Err(TraceError::NegativeDuration(e.node));
            }
            if by_node[e.node as usize].replace(e).is_some() {
                return Err(TraceError::DuplicateNode(e.node));
            }
        }
        for u in g.nodes() {
            let eu = by_node[u as usize].expect("all nodes present");
            for &p in g.predecessors(u) {
                let ep = by_node[p as usize].expect("all nodes present");
                if ep.end > eu.start {
                    return Err(TraceError::DependenceViolation {
                        pred: p,
                        node: u,
                        pred_end: ep.end,
                        node_start: eu.start,
                    });
                }
            }
        }
        Ok(())
    }

    /// Makespan: `max end - min start` (zero for empty traces).
    pub fn makespan(&self) -> u64 {
        let min = self.events.iter().map(|e| e.start).min().unwrap_or(0);
        let max = self.events.iter().map(|e| e.end).max().unwrap_or(0);
        max - min
    }

    /// Per-worker utilization summary over the trace's makespan.
    pub fn utilization(&self) -> UtilizationSummary {
        let mut by_worker: std::collections::BTreeMap<usize, (u64, u64)> = Default::default();
        for e in &self.events {
            let w = by_worker.entry(e.worker).or_insert((0, 0));
            w.0 += e.end - e.start; // busy
            w.1 += 1; // nodes
        }
        let makespan = self.makespan().max(1);
        let workers: Vec<WorkerUtilization> = by_worker
            .into_iter()
            .map(|(worker, (busy, nodes))| WorkerUtilization {
                worker,
                busy,
                nodes,
                utilization: busy as f64 / makespan as f64,
            })
            .collect();
        UtilizationSummary { makespan, workers }
    }
}

/// One worker's share of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerUtilization {
    /// Worker id.
    pub worker: usize,
    /// Total busy time.
    pub busy: u64,
    /// Nodes executed.
    pub nodes: u64,
    /// Busy time / makespan.
    pub utilization: f64,
}

/// Per-worker utilization over a trace — the load-balance view of an
/// execution (the complement to the locality metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationSummary {
    /// Trace makespan.
    pub makespan: u64,
    /// Per-worker rows, sorted by worker id.
    pub workers: Vec<WorkerUtilization>,
}

impl UtilizationSummary {
    /// Load-imbalance factor: max worker busy time / mean busy time
    /// (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        if self.workers.is_empty() {
            return 1.0;
        }
        let max = self.workers.iter().map(|w| w.busy).max().expect("nonempty") as f64;
        let mean =
            self.workers.iter().map(|w| w.busy).sum::<u64>() as f64 / self.workers.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Trace length differs from node count.
    WrongEventCount {
        /// Graph node count.
        expected: usize,
        /// Trace event count.
        actual: usize,
    },
    /// An event references a node outside the graph.
    UnknownNode(NodeId),
    /// A node appears more than once.
    DuplicateNode(NodeId),
    /// An event ends before it starts.
    NegativeDuration(NodeId),
    /// A node started before a predecessor finished.
    DependenceViolation {
        /// The predecessor.
        pred: NodeId,
        /// The dependent node.
        node: NodeId,
        /// Predecessor end time.
        pred_end: u64,
        /// Node start time.
        node_start: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::WrongEventCount { expected, actual } => {
                write!(f, "trace has {actual} events, graph has {expected} nodes")
            }
            TraceError::UnknownNode(n) => write!(f, "trace references unknown node {n}"),
            TraceError::DuplicateNode(n) => write!(f, "node {n} executed more than once"),
            TraceError::NegativeDuration(n) => write!(f, "node {n} ends before it starts"),
            TraceError::DependenceViolation {
                pred,
                node,
                pred_end,
                node_start,
            } => write!(
                f,
                "node {node} started at {node_start} before predecessor {pred} finished at {pred_end}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Checks that a total order over nodes (e.g. the serial execution order)
/// respects all dependences: every predecessor appears before its dependent.
pub fn order_respects_dependences(g: &TaskGraph, order: &[NodeId]) -> bool {
    if order.len() != g.node_count() {
        return false;
    }
    let mut pos = vec![usize::MAX; g.node_count()];
    for (i, &u) in order.iter().enumerate() {
        if (u as usize) >= g.node_count() || pos[u as usize] != usize::MAX {
            return false; // out of range or duplicate
        }
        pos[u as usize] = i;
    }
    g.nodes().all(|u| {
        g.predecessors(u)
            .iter()
            .all(|&p| pos[p as usize] < pos[u as usize])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn mk_trace(g: &TaskGraph) -> Trace {
        // Sequentialize along the topo order with unit durations.
        let mut t = Trace::default();
        for (i, &u) in g.topo_order().iter().enumerate() {
            t.events.push(TraceEvent {
                node: u,
                worker: 0,
                start: i as u64,
                end: i as u64 + 1,
            });
        }
        t
    }

    #[test]
    fn valid_trace_passes() {
        let g = generate::wavefront(5, 5, 1, 2);
        assert_eq!(mk_trace(&g).validate(&g), Ok(()));
    }

    #[test]
    fn missing_node_detected() {
        let g = generate::chain(3, 1, 1);
        let mut t = mk_trace(&g);
        t.events.pop();
        assert!(matches!(
            t.validate(&g),
            Err(TraceError::WrongEventCount { .. })
        ));
    }

    #[test]
    fn duplicate_node_detected() {
        let g = generate::chain(3, 1, 1);
        let mut t = mk_trace(&g);
        t.events[2] = t.events[0];
        assert_eq!(t.validate(&g), Err(TraceError::DuplicateNode(0)));
    }

    #[test]
    fn dependence_violation_detected() {
        let g = generate::chain(2, 1, 1);
        let t = Trace {
            events: vec![
                TraceEvent {
                    node: 0,
                    worker: 0,
                    start: 5,
                    end: 6,
                },
                TraceEvent {
                    node: 1,
                    worker: 1,
                    start: 0,
                    end: 1,
                },
            ],
        };
        assert!(matches!(
            t.validate(&g),
            Err(TraceError::DependenceViolation {
                pred: 0,
                node: 1,
                ..
            })
        ));
    }

    #[test]
    fn negative_duration_detected() {
        let g = generate::chain(1, 1, 1);
        let t = Trace {
            events: vec![TraceEvent {
                node: 0,
                worker: 0,
                start: 2,
                end: 1,
            }],
        };
        assert_eq!(t.validate(&g), Err(TraceError::NegativeDuration(0)));
    }

    #[test]
    fn makespan_and_workers() {
        let t = Trace {
            events: vec![
                TraceEvent {
                    node: 0,
                    worker: 3,
                    start: 10,
                    end: 20,
                },
                TraceEvent {
                    node: 1,
                    worker: 5,
                    start: 15,
                    end: 40,
                },
            ],
        };
        assert_eq!(t.makespan(), 30);
    }

    #[test]
    fn utilization_summary() {
        let t = Trace {
            events: vec![
                TraceEvent {
                    node: 0,
                    worker: 0,
                    start: 0,
                    end: 10,
                },
                TraceEvent {
                    node: 1,
                    worker: 0,
                    start: 10,
                    end: 20,
                },
                TraceEvent {
                    node: 2,
                    worker: 1,
                    start: 0,
                    end: 10,
                },
            ],
        };
        let u = t.utilization();
        assert_eq!(u.makespan, 20);
        assert_eq!(u.workers.len(), 2);
        assert_eq!(u.workers[0].busy, 20);
        assert_eq!(u.workers[0].nodes, 2);
        assert!((u.workers[0].utilization - 1.0).abs() < 1e-12);
        assert!((u.workers[1].utilization - 0.5).abs() < 1e-12);
        // max busy 20, mean 15 -> imbalance 4/3.
        assert!((u.imbalance() - 20.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_utilization() {
        let u = Trace::default().utilization();
        assert!(u.workers.is_empty());
        assert_eq!(u.imbalance(), 1.0);
    }

    #[test]
    fn order_validation() {
        let g = generate::wavefront(4, 4, 1, 2);
        let topo: Vec<_> = g.topo_order().to_vec();
        assert!(order_respects_dependences(&g, &topo));
        let mut bad = topo.clone();
        let last = bad.len() - 1;
        bad.swap(0, last);
        assert!(!order_respects_dependences(&g, &bad));
        assert!(!order_respects_dependences(&g, &topo[1..]));
    }
}
