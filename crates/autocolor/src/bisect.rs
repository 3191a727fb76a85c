//! Recursive graph bisection with greedy Kernighan–Lin-style refinement.
//!
//! The highest-quality static assigner: treats coloring as balanced
//! `workers`-way graph partitioning, minimizing the number of dependence
//! edges that cross colors (each crossing is a potential remote
//! predecessor read under §V-B accounting) subject to per-color load
//! balance over node weights.
//!
//! The algorithm is the classic multilevel-free recursive bisection:
//!
//! 1. **Split colors in half.** A subproblem owning colors `[lo, hi)`
//!    splits into `[lo, mid)` and `[mid, hi)`; node weight is divided
//!    proportionally to the color counts (so odd worker counts get
//!    proportional shares, not halves).
//! 2. **Seed + grow.** A pseudo-peripheral seed is found by a double BFS
//!    sweep; side A greedily absorbs a BFS region around the seed until it
//!    reaches its weight target. BFS growth keeps A connected, which is
//!    what makes the initial cut a perimeter rather than a shuffle.
//! 3. **Refine.** Up to four (`REFINE_PASSES`) boundary
//!    sweeps move nodes with positive *gain* across the cut, and zero-gain
//!    nodes when the move improves balance, never letting either side
//!    drift more than 5 % (`BALANCE_TOLERANCE`) of the subproblem's weight past
//!    its target. The gain is the classic KL/FM edge-cut one, counted
//!    side-locally: +1 per neighbour in the subproblem already on the
//!    destination side (the edge turns internal), −1 per one left on the
//!    source side (the edge turns cut); neighbours outside the
//!    subproblem are ignored. [`CpLevelAware`](crate::CpLevelAware)'s
//!    k-way refinement is the other engine, under the makespan-estimate
//!    gain ([`refine_kway`](crate::refine::refine_kway)).
//! 4. **Recurse**, then **rebalance**: a final global pass moves nodes off
//!    any color that exceeds [`balance_limit`],
//!    choosing the node that hurts the cut least, so the 2× balance bound
//!    holds unconditionally — even on adversarial weight distributions.

use crate::{balance_limit, node_weight, ColorAssigner};
use nabbitc_color::Color;
use nabbitc_graph::{NodeId, TaskGraph};
use std::collections::VecDeque;

/// Balanced `workers`-way partitioner (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct RecursiveBisection {} // no knobs; built with `default()` like its siblings

/// Boundary-refinement sweeps per bisection level.
const REFINE_PASSES: usize = 4;
/// Allowed deviation from a side's weight target during refinement, as a
/// fraction of the subproblem's total weight.
const BALANCE_TOLERANCE: f64 = 0.05;

impl ColorAssigner for RecursiveBisection {
    fn name(&self) -> &'static str {
        "recursive-bisection"
    }

    fn assign(&self, graph: &TaskGraph, workers: usize) -> Vec<Color> {
        assert!(workers > 0, "need at least one worker");
        let n = graph.node_count();
        let mut ctx = Ctx {
            graph,
            weight: graph.nodes().map(|u| node_weight(graph, u)).collect(),
            part: vec![0usize; n],
            mark: vec![0u32; n],
            mark_gen: 0,
            visited: vec![0u32; n],
            visited_gen: 0,
            side: vec![false; n],
        };
        let all: Vec<NodeId> = graph.nodes().collect();
        self.subdivide(&mut ctx, all, 0, workers);
        rebalance(graph, &mut ctx.part, &ctx.weight, workers);
        ctx.part.into_iter().map(Color::from).collect()
    }
}

/// Scratch state shared across the recursion (generation-marked so no
/// per-call clearing is needed).
struct Ctx<'g> {
    graph: &'g TaskGraph,
    weight: Vec<u64>,
    part: Vec<usize>,
    mark: Vec<u32>,
    mark_gen: u32,
    visited: Vec<u32>,
    visited_gen: u32,
    side: Vec<bool>, // true = side A of the current bisection
}

impl Ctx<'_> {
    #[inline]
    fn in_subset(&self, u: NodeId) -> bool {
        self.mark[u as usize] == self.mark_gen
    }

    /// Undirected neighbors of `u` restricted to the current subset.
    fn neighbors<'a>(&'a self, u: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        self.graph
            .predecessors(u)
            .iter()
            .chain(self.graph.successors(u).iter())
            .copied()
            .filter(move |&v| self.in_subset(v))
    }

    /// Appends `u`'s subset neighbours not yet visited in generation
    /// `gen` to `queue`, marking them visited. A DAG lists a neighbour
    /// once, as a predecessor or as a successor.
    fn enqueue_unvisited(&mut self, u: NodeId, gen: u32, queue: &mut VecDeque<NodeId>) {
        let graph = self.graph;
        for &v in graph.predecessors(u).iter().chain(graph.successors(u)) {
            if self.in_subset(v) && self.visited[v as usize] != gen {
                self.visited[v as usize] = gen;
                queue.push_back(v);
            }
        }
    }

    /// BFS from `start` within the `size`-node subset; returns the last
    /// node reached (an approximation of the farthest node). Restricted
    /// to `start`'s connected component.
    fn bfs_far(&mut self, start: NodeId, size: usize) -> NodeId {
        self.visited_gen += 1;
        let gen = self.visited_gen;
        let mut queue = VecDeque::with_capacity(size);
        queue.push_back(start);
        self.visited[start as usize] = gen;
        let mut last = start;
        while let Some(u) = queue.pop_front() {
            last = u;
            self.enqueue_unvisited(u, gen, &mut queue);
        }
        last
    }
}

impl RecursiveBisection {
    fn subdivide(&self, ctx: &mut Ctx<'_>, nodes: Vec<NodeId>, lo: usize, hi: usize) {
        debug_assert!(lo < hi);
        if hi - lo == 1 {
            for &u in &nodes {
                ctx.part[u as usize] = lo;
            }
            return;
        }
        if nodes.is_empty() {
            return;
        }

        let mid = lo + (hi - lo) / 2;
        let (k_a, k_b) = ((mid - lo) as u64, (hi - mid) as u64);
        let total: u64 = nodes.iter().map(|&u| ctx.weight[u as usize]).sum();
        let target_a = total * k_a / (k_a + k_b);

        // Mark the subset for this call.
        ctx.mark_gen += 1;
        for &u in &nodes {
            ctx.mark[u as usize] = ctx.mark_gen;
        }

        // Pseudo-peripheral seed: farthest node from an arbitrary start.
        let seed = ctx.bfs_far(nodes[0], nodes.len());

        // Grow side A around the seed until it reaches its weight target.
        ctx.visited_gen += 1;
        let gen = ctx.visited_gen;
        for &u in &nodes {
            ctx.side[u as usize] = false;
        }
        let mut weight_a = 0u64;
        let mut queue = VecDeque::with_capacity(nodes.len());
        queue.push_back(seed);
        ctx.visited[seed as usize] = gen;
        let mut cursor = 0; // restart point for disconnected components
        while weight_a < target_a {
            let u = match queue.pop_front() {
                Some(u) => u,
                None => {
                    // Component exhausted: restart from any ungrown node.
                    let mut restart = None;
                    while cursor < nodes.len() {
                        let cand = nodes[cursor];
                        cursor += 1;
                        if ctx.visited[cand as usize] != gen {
                            restart = Some(cand);
                            break;
                        }
                    }
                    match restart {
                        Some(r) => {
                            ctx.visited[r as usize] = gen;
                            queue.push_back(r);
                            continue;
                        }
                        None => break, // every node is in A already
                    }
                }
            };
            ctx.side[u as usize] = true;
            weight_a += ctx.weight[u as usize];
            ctx.enqueue_unvisited(u, gen, &mut queue);
        }

        // KL/FM-style boundary refinement under the side-local edge-cut
        // gain.
        let tol = (total as f64 * BALANCE_TOLERANCE).ceil() as u64;
        for _ in 0..REFINE_PASSES {
            let mut moved = 0usize;
            for &u in &nodes {
                let w = ctx.weight[u as usize];
                let on_a = ctx.side[u as usize];
                let g: i64 = ctx
                    .neighbors(u)
                    .map(|v| if ctx.side[v as usize] == on_a { -1 } else { 1 })
                    .sum();
                if g < 0 {
                    continue;
                }
                // Weight of A after moving u to the other side.
                let new_weight_a = if on_a { weight_a - w } else { weight_a + w };
                let dist = weight_a.abs_diff(target_a);
                let new_dist = new_weight_a.abs_diff(target_a);
                // Gain-improving moves may drift up to `tol` off target;
                // zero-gain moves must strictly improve balance.
                let balance_ok = new_dist <= tol || new_dist < dist;
                let improves = g > 0 || new_dist < dist;
                if improves && balance_ok {
                    ctx.side[u as usize] = !on_a;
                    weight_a = new_weight_a;
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
        }

        // Side A keeps `nodes`' buffer, side B is one allocation.
        let mut side_b = Vec::with_capacity(nodes.len());
        let mut side_a = nodes;
        side_a.retain(|&u| {
            ctx.side[u as usize] || {
                side_b.push(u);
                false
            }
        });
        // A degenerate split (everything on one side) would recurse
        // forever; fall back to a plain weight-balanced sequence split.
        if side_a.is_empty() || side_b.is_empty() {
            let mut all = if side_a.is_empty() { side_b } else { side_a };
            let mut acc = 0u64;
            let mut a = Vec::new();
            let mut b = Vec::new();
            all.sort_unstable();
            for u in all {
                if acc < target_a {
                    a.push(u);
                } else {
                    b.push(u);
                }
                acc += ctx.weight[u as usize];
            }
            self.subdivide(ctx, a, lo, mid);
            self.subdivide(ctx, b, mid, hi);
            return;
        }
        self.subdivide(ctx, side_a, lo, mid);
        self.subdivide(ctx, side_b, mid, hi);
    }
}

/// Global balance repair: while any color exceeds the 2× greedy bound,
/// move the cheapest-to-move node from the most loaded color to the least
/// loaded one. Terminates because every move strictly shrinks the
/// offending color and never pushes the destination past the bound
/// (`min_load + w ≤ total/p + wmax ≤ limit`).
fn rebalance(graph: &TaskGraph, part: &mut [usize], weight: &[u64], workers: usize) {
    let limit = balance_limit(graph, workers);
    let mut loads = vec![0u64; workers];
    for u in graph.nodes() {
        loads[part[u as usize]] += weight[u as usize];
    }
    loop {
        let cmax = (0..workers).max_by_key(|&c| loads[c]).expect("nonempty");
        if loads[cmax] <= limit {
            return;
        }
        let cmin = (0..workers).min_by_key(|&c| loads[c]).expect("nonempty");
        // Cheapest node to evict: fewest edges kept inside cmax minus
        // edges already pointing at cmin (so the cut grows least).
        let victim = graph
            .nodes()
            .filter(|&u| part[u as usize] == cmax)
            .min_by_key(|&u| {
                let mut cost = 0i64;
                for &v in graph
                    .predecessors(u)
                    .iter()
                    .chain(graph.successors(u).iter())
                {
                    if part[v as usize] == cmax {
                        cost += 1;
                    } else if part[v as usize] == cmin {
                        cost -= 1;
                    }
                }
                cost
            })
            .expect("overloaded color has nodes");
        part[victim as usize] = cmin;
        loads[cmax] -= weight[victim as usize];
        loads[cmin] += weight[victim as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assignment_is_valid, assignment_loads, RoundRobin};
    use nabbitc_graph::analysis::edge_cut;
    use nabbitc_graph::{generate, GraphBuilder};

    fn cut_of(g: &TaskGraph, assigner: &dyn ColorAssigner, p: usize) -> usize {
        let mut g2 = g.clone();
        let colors = assigner.assign(g, p);
        g2.recolor(|u, _| colors[u as usize]);
        edge_cut(&g2)
    }

    #[test]
    fn valid_and_balanced_on_stencil() {
        let g = generate::iterated_stencil(12, 48, 3, 1);
        for p in [2usize, 4, 7, 16] {
            let colors = RecursiveBisection::default().assign(&g, p);
            assert!(assignment_is_valid(&colors, p), "p={p}");
            let max = *assignment_loads(&g, &colors, p).iter().max().unwrap();
            assert!(max <= balance_limit(&g, p), "p={p}");
        }
    }

    #[test]
    fn beats_round_robin_on_wavefront() {
        let g = generate::wavefront(24, 24, 2, 1);
        for p in [2usize, 4, 8] {
            let rb = cut_of(&g, &RecursiveBisection::default(), p);
            let rr = cut_of(&g, &RoundRobin, p);
            assert!(rb < rr, "p={p}: bisection {rb} >= round-robin {rr}");
        }
    }

    #[test]
    fn two_cliques_split_cleanly() {
        // Two dense diamonds joined by one edge: the ideal 2-way cut is 1.
        let mut b = GraphBuilder::new();
        for _ in 0..2 {
            for _ in 0..8 {
                b.add_simple_node(5, Color(0), 64);
            }
        }
        // Dense DAG inside each half: i -> j for i < j.
        for half in [0u32, 8] {
            for i in 0..8u32 {
                for j in (i + 1)..8 {
                    b.add_edge(half + i, half + j);
                }
            }
        }
        b.add_edge(7, 8); // the bridge
        let g = b.build().unwrap();
        let colors = RecursiveBisection::default().assign(&g, 2);
        assert!(assignment_is_valid(&colors, 2));
        let mut g2 = g.clone();
        g2.recolor(|u, _| colors[u as usize]);
        assert_eq!(edge_cut(&g2), 1, "only the bridge should be cut");
    }

    #[test]
    fn rebalance_repairs_adversarial_weights() {
        // One huge node plus many tiny ones: the 2x bound must still hold.
        let mut b = GraphBuilder::new();
        b.add_simple_node(10_000, Color(0), 0);
        for i in 1..64u32 {
            b.add_simple_node(1, Color(0), 0);
            b.add_edge(0, i);
        }
        let g = b.build().unwrap();
        for p in [2usize, 4, 8] {
            let colors = RecursiveBisection::default().assign(&g, p);
            let max = *assignment_loads(&g, &colors, p).iter().max().unwrap();
            assert!(max <= balance_limit(&g, p), "p={p}");
        }
    }

    #[test]
    fn disconnected_components_all_colored() {
        // Three disjoint chains.
        let mut b = GraphBuilder::new();
        for c in 0..3u32 {
            for i in 0..10u32 {
                b.add_simple_node(1, Color(0), 0);
                if i > 0 {
                    b.add_edge(c * 10 + i - 1, c * 10 + i);
                }
            }
        }
        let g = b.build().unwrap();
        let colors = RecursiveBisection::default().assign(&g, 3);
        assert!(assignment_is_valid(&colors, 3));
        let loads = assignment_loads(&g, &colors, 3);
        assert!(loads.iter().all(|&l| l > 0), "{loads:?}");
    }

    #[test]
    fn single_worker_single_color() {
        let g = generate::chain(20, 1, 1);
        let colors = RecursiveBisection::default().assign(&g, 1);
        assert!(colors.iter().all(|&c| c == Color(0)));
    }
}
