//! Reference sequential executor.
//!
//! Executes a [`TaskGraph`] depth-first from its sinks, mirroring Nabbit's
//! on-demand exploration order on a single worker (the "serial elision"):
//! to compute a node, first compute its not-yet-computed predecessors in
//! list order, then the node itself. This is the order a single-threaded
//! Nabbit run produces, and it is the baseline every parallel executor's
//! result is compared against.

use crate::{NodeId, TaskGraph};

/// Executes `g` serially, invoking `kernel` exactly once per node in a valid
/// (dependence-respecting) order, and returns that order.
///
/// The traversal starts from each sink and recursively processes
/// predecessors first — Nabbit's demand-driven order on one thread.
pub fn execute<F: FnMut(NodeId)>(g: &TaskGraph, mut kernel: F) -> Vec<NodeId> {
    let n = g.node_count();
    let mut state = vec![0u8; n]; // 0 = new, 1 = on stack, 2 = done
    let mut order = Vec::with_capacity(n);
    // Explicit stack to avoid recursion depth limits on chain-like graphs.
    // Entry = (node, next predecessor index to examine).
    let mut stack: Vec<(NodeId, usize)> = Vec::new();

    let mut sinks = g.sinks();
    // Process sinks in id order for determinism.
    sinks.sort_unstable();
    for s in sinks {
        if state[s as usize] == 2 {
            continue;
        }
        stack.push((s, 0));
        state[s as usize] = 1;
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            let preds = g.predecessors(u);
            if *next < preds.len() {
                let p = preds[*next];
                *next += 1;
                if state[p as usize] == 0 {
                    state[p as usize] = 1;
                    stack.push((p, 0));
                }
            } else {
                kernel(u);
                order.push(u);
                state[u as usize] = 2;
                stack.pop();
            }
        }
    }
    debug_assert_eq!(order.len(), n, "serial execution must cover every node");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::trace::order_respects_dependences;

    #[test]
    fn executes_every_node_once() {
        let g = generate::layered_random(8, 10, 3, (1, 5), 4, 7);
        let mut count = vec![0u32; g.node_count()];
        let order = execute(&g, |u| count[u as usize] += 1);
        assert_eq!(order.len(), g.node_count());
        assert!(count.iter().all(|&c| c == 1));
    }

    #[test]
    fn order_is_topological() {
        for seed in 0..5 {
            let g = generate::layered_random(6, 9, 4, (1, 3), 4, seed);
            let order = execute(&g, |_| {});
            assert!(order_respects_dependences(&g, &order));
        }
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let g = generate::chain(200_000, 1, 4);
        let order = execute(&g, |_| {});
        assert_eq!(order.len(), 200_000);
        assert!(order_respects_dependences(&g, &order));
    }

    #[test]
    fn wavefront_order_valid() {
        let g = generate::wavefront(10, 10, 1, 4);
        let order = execute(&g, |_| {});
        assert!(order_respects_dependences(&g, &order));
    }
}
