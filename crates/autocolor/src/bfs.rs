//! BFS-layered locality coloring: one topological sweep that keeps
//! parent/child chains on a single color.

use crate::{balance_limit, node_weight, ColorAssigner};
use nabbitc_color::Color;
use nabbitc_graph::TaskGraph;

/// Colors nodes in topological (BFS-from-sources) order; each node adopts
/// the color most of its predecessor weight already lives on, unless that
/// color is full.
///
/// The sweep visits nodes in the graph's topological order, so every
/// predecessor is colored before its successors, and a dependence chain
/// keeps inheriting its head's color until the per-color load cap forces a
/// spill — which minimizes cross-color edges exactly where NabbitC pays
/// for them (a node whose predecessors are same-colored incurs no remote
/// predecessor reads under correct placement, §V-B).
///
/// The cap is 1.2 × `total/workers` (`CAP_SLACK`): slack 1.0 would force
/// near-perfect balance (and cut more edges); larger slack trades balance
/// for locality. Spills go to the least-loaded color, which also seeds the
/// sources across colors, so the final assignment always respects
/// [`balance_limit`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BfsLocality {} // no knobs; built with `default()` like its siblings

/// Per-color capacity as a multiple of the even share `total/workers`.
const CAP_SLACK: f64 = 1.2;

impl ColorAssigner for BfsLocality {
    fn name(&self) -> &'static str {
        "bfs-locality"
    }

    fn assign(&self, graph: &TaskGraph, workers: usize) -> Vec<Color> {
        assert!(workers > 0, "need at least one worker");
        let n = graph.node_count();
        let total: u64 = graph.nodes().map(|u| node_weight(graph, u)).sum();
        let cap = ((total as f64 / workers as f64) * CAP_SLACK).ceil() as u64;
        // Never allow the preferred color past the balance guarantee.
        let cap = cap.min(balance_limit(graph, workers));

        let mut colors = vec![Color(0); n];
        let mut loads = vec![0u64; workers];
        let mut votes = vec![0u64; workers]; // scratch, reset per node

        for &u in graph.topo_order() {
            let w = node_weight(graph, u);
            let preds = graph.predecessors(u);

            // Weight each predecessor's color by that predecessor's own
            // weight: heavy parents pull harder (their data is bigger).
            let mut best: Option<usize> = None;
            for &p in preds {
                let c = colors[p as usize].index();
                votes[c] += node_weight(graph, p);
                let better = match best {
                    None => true,
                    Some(b) => votes[c] > votes[b],
                };
                if better {
                    best = Some(c);
                }
            }
            for &p in preds {
                votes[colors[p as usize].index()] = 0;
            }

            let chosen = match best {
                Some(c) if loads[c] + w <= cap => c,
                // Sources, and nodes whose inherited color is full, go to
                // the least-loaded color.
                _ => (0..workers).min_by_key(|&c| loads[c]).expect("workers > 0"),
            };
            colors[u as usize] = Color::from(chosen);
            loads[chosen] += w;
        }
        colors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assignment_is_valid, assignment_loads};
    use nabbitc_graph::{generate, GraphBuilder};

    #[test]
    fn chain_stays_on_one_color_until_cap() {
        // A single chain with slack: the whole chain fits one color only
        // when workers=1; with 4 workers the cap forces ~4 segments, but
        // each segment must be contiguous (color changes are rare).
        let g = generate::chain(100, 1, 1);
        let colors = BfsLocality::default().assign(&g, 4);
        assert!(assignment_is_valid(&colors, 4));
        let changes = colors.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            changes <= 4,
            "chain should switch color at most ~4 times, got {changes}"
        );
    }

    #[test]
    fn parallel_chains_get_distinct_colors() {
        // 4 independent chains of equal weight on 4 workers: each chain
        // should monopolize one color (perfect locality and balance).
        let mut b = GraphBuilder::new();
        for chain in 0..4u32 {
            for i in 0..50u32 {
                let id = b.add_simple_node(10, Color(0), 64);
                assert_eq!(id, chain * 50 + i);
                if i > 0 {
                    b.add_edge(id - 1, id);
                }
            }
        }
        let g = b.build().unwrap();
        let colors = BfsLocality::default().assign(&g, 4);
        for chain in 0..4usize {
            let first = colors[chain * 50];
            assert!(
                colors[chain * 50..(chain + 1) * 50]
                    .iter()
                    .all(|&c| c == first),
                "chain {chain} split across colors"
            );
        }
        // All four colors used.
        let mut used: Vec<Color> = colors.clone();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 4);
    }

    #[test]
    fn respects_balance_limit_on_skewed_work() {
        let g = generate::layered_random(12, 24, 3, (1, 400), 1, 9);
        for workers in [2usize, 5, 8] {
            let colors = BfsLocality::default().assign(&g, workers);
            assert!(assignment_is_valid(&colors, workers));
            let max = *assignment_loads(&g, &colors, workers).iter().max().unwrap();
            assert!(max <= balance_limit(&g, workers));
        }
    }
}
