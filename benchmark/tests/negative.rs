//! Verification with teeth: a kernel that skips a node, runs one twice, or
//! reads a predecessor before it is written must be reported as a failed
//! operation — not a panic, not a pass — and must fail that operation only.

use nabbitc_benchmark::kernel::Kernel;
use nabbitc_benchmark::workloads::{
    find, make_pool, prepare, ExecKind, Harness, Observe, Prepared,
};
use nabbitc_graph::NodeId;
use std::sync::Arc;

const KINDS: [ExecKind; 3] = [ExecKind::Static, ExecKind::OnDemand, ExecKind::Auto];

/// The heat-coarse graph at a sixty-fourth of its grain, with the
/// reference vector in place.
fn input() -> Prepared {
    let input = prepare(find("heat-coarse").expect("workload"), 2, 1, 64);
    input.kernel.serial_walk(Kernel::run_node);
    input
}

/// A node in the last time step and one of its predecessors.
fn victim(input: &Prepared) -> (NodeId, NodeId) {
    let node = input.graph.node_count() as NodeId - 7;
    (node, input.graph.predecessors(node)[0])
}

/// Runs a clean operation, the corrupted one, and a clean one again on the
/// same pool and executor.
fn corrupts_only_itself<K>(make_faulty: impl Fn(&Prepared) -> K)
where
    K: Fn(NodeId, usize) + Send + Sync + 'static,
{
    let input = input();
    for kind in KINDS {
        let harness = Harness::new(&input, kind, make_pool(2, 1, false), Observe::default());
        assert!(harness.op().ok, "{kind:?}: clean operation before");
        let faulty = harness.op_with(Arc::new(make_faulty(&input)));
        assert!(!faulty.ok, "{kind:?}: the corrupted operation must fail");
        assert!(harness.op().ok, "{kind:?}: clean operation after");
    }
}

#[test]
fn skipping_a_node_fails_the_operation() {
    corrupts_only_itself(|input| {
        let (node, _) = victim(input);
        let k = input.kernel.clone();
        move |u, _w| {
            if u != node {
                k.run_node(u);
            }
        }
    });
}

#[test]
fn running_a_node_twice_fails_the_operation() {
    corrupts_only_itself(|input| {
        let (node, _) = victim(input);
        let k = input.kernel.clone();
        move |u, _w| {
            k.run_node(u);
            if u == node {
                k.run_node(u);
            }
        }
    });
}

#[test]
fn reading_a_predecessor_before_it_is_written_fails_the_operation() {
    // The predecessor reports completion without writing; the node then
    // reads the unwritten value, and only afterwards is the predecessor
    // written. Every node body still runs exactly once.
    corrupts_only_itself(|input| {
        let (node, pred) = victim(input);
        let k = input.kernel.clone();
        move |u, _w| {
            if u == pred {
                return;
            }
            k.run_node(u);
            if u == node {
                k.run_node(pred);
            }
        }
    });
}

#[test]
fn executor_node_counts_are_checked_when_the_report_carries_them() {
    // The on-demand report always counts nodes (plus the virtual sink); the
    // static one does when remote counting is on.
    let input = input();
    let observe = Observe {
        count_remote: true,
        ..Observe::default()
    };
    for kind in KINDS {
        let harness = Harness::new(&input, kind, make_pool(2, 1, false), observe);
        let op = harness.op();
        assert!(op.ok, "{kind:?}");
        assert_eq!(
            op.remote.node_total,
            input.graph.node_count() as u64 + u64::from(kind == ExecKind::OnDemand)
        );
    }
}
