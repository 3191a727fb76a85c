//! Work/span analysis — the quantities appearing in the paper's Theorem 1.
//!
//! For a task graph `G = (V, E)` with node work `W(u)`:
//!
//! * work `T1 = Σ_u W(u) + O(|E|)` — every edge must also be checked once;
//! * span `T∞ = max_{p ∈ paths(s,t)} Σ_{u ∈ p} W(u) + O(M)`;
//! * `M` — the number of nodes on the longest (by count) source→sink path;
//! * `d` — the maximum degree, which enters the bound as `M lg d`.
//!
//! Theorem 1: NabbitC executes `G` in `O(T1/P + T∞ + M lg d + lg(P/ε) + C)`
//! time with probability ≥ `1 − ε`, where `C` is the per-worker startup cost
//! of the forced first colored steal. `tests/theory_bound.rs` checks the
//! simulated schedulers against this bound with fitted constants.

use crate::{EdgeTraffic, NodeId, TaskGraph};
use nabbitc_color::Color;
use nabbitc_cost::{CostModel, Topology};
use std::collections::HashMap;
use std::hint::select_unpredictable;

/// Summary of the Theorem 1 quantities for a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphAnalysis {
    /// `Σ W(u)` — pure node work.
    pub total_work: u64,
    /// `T1` including the `O(|E|)` edge-checking term (unit cost per edge).
    pub t1: u64,
    /// Weighted critical path `max Σ W(u)` over all paths.
    pub critical_path_work: u64,
    /// `T∞` including the `O(M)` term (unit cost per node on the path).
    pub t_inf: u64,
    /// Longest path length in *nodes* (`M`).
    pub longest_path_nodes: u64,
    /// Maximum total degree `d = max(in+out)`.
    pub max_degree: usize,
    /// Average parallelism `T1 / T∞` (zero if `T∞` is zero).
    pub parallelism: f64,
}

/// Computes the full [`GraphAnalysis`] in one topological sweep.
pub fn analyze(g: &TaskGraph) -> GraphAnalysis {
    let n = g.node_count();
    let total_work: u64 = g.nodes().map(|u| g.work(u)).sum();
    let t1 = total_work + g.edge_count() as u64;

    // Longest weighted path and longest node-count path, both ending at u.
    let mut best_work = vec![0u64; n];
    let mut best_nodes = vec![0u64; n];
    for &u in g.topo_order() {
        let ui = u as usize;
        let (mut w, mut m) = (0u64, 0u64);
        for &p in g.predecessors(u) {
            w = w.max(best_work[p as usize]);
            m = m.max(best_nodes[p as usize]);
        }
        best_work[ui] = w + g.work(u);
        best_nodes[ui] = m + 1;
    }
    let critical_path_work = best_work.iter().copied().max().unwrap_or(0);
    let longest_path_nodes = best_nodes.iter().copied().max().unwrap_or(0);
    let t_inf = critical_path_work + longest_path_nodes;

    let max_degree = g
        .nodes()
        .map(|u| g.in_degree(u) + g.out_degree(u))
        .max()
        .unwrap_or(0);

    let parallelism = if t_inf > 0 {
        t1 as f64 / t_inf as f64
    } else {
        0.0
    };

    GraphAnalysis {
        total_work,
        t1,
        critical_path_work,
        t_inf,
        longest_path_nodes,
        max_degree,
        parallelism,
    }
}

/// Number of dependence edges whose endpoints carry different colors —
/// the quantity the autocolor assigners minimize. Every cut edge is a
/// potential remote predecessor read under the §V-B metric (the successor
/// executes on its own color's domain but reads data the predecessor's
/// color initialized).
pub fn edge_cut(g: &TaskGraph) -> usize {
    g.nodes()
        .map(|u| {
            g.successors(u)
                .iter()
                .filter(|&&v| g.color(v) != g.color(u))
                .count()
        })
        .sum()
}

/// [`edge_cut`] as a fraction of all edges (0 for edgeless graphs).
pub fn edge_cut_fraction(g: &TaskGraph) -> f64 {
    if g.edge_count() == 0 {
        0.0
    } else {
        edge_cut(g) as f64 / g.edge_count() as f64
    }
}

/// Work balance of a coloring over an explicit machine size, counting
/// colors with no nodes — a coloring that leaves workers idle must show up
/// as imbalance here.
#[derive(Debug, Clone, PartialEq)]
pub struct ColorBalance {
    /// Heaviest color's work.
    pub max_load: u64,
    /// Lightest color's work (zero when a color has no nodes).
    pub min_load: u64,
    /// Mean work per color (`total / workers`).
    pub mean_load: f64,
}

impl ColorBalance {
    /// `max/mean`; 1.0 is perfect. Returns `max_load as f64` scaled
    /// to 1.0 when the graph has no work.
    pub fn imbalance(&self) -> f64 {
        if self.mean_load == 0.0 {
            1.0
        } else {
            self.max_load as f64 / self.mean_load
        }
    }
}

/// Computes [`ColorBalance`] for a graph colored for `workers` workers.
/// Nodes colored outside `0..workers` (e.g. [`Color::INVALID`]) are
/// counted in `max_load` via an implicit overflow bucket, so invalid
/// colorings read as catastrophically imbalanced rather than invisible.
pub fn color_balance(g: &TaskGraph, workers: usize) -> ColorBalance {
    assert!(workers > 0, "need at least one worker");
    let mut loads = vec![0u64; workers + 1];
    for u in g.nodes() {
        let c = g.color(u);
        let idx = if c.is_valid() && c.index() < workers {
            c.index()
        } else {
            workers // overflow bucket
        };
        loads[idx] += g.work(u);
    }
    let overflow = loads.pop().expect("overflow bucket");
    let max_load = loads.iter().copied().max().unwrap_or(0).max(overflow);
    let min_load = loads.iter().copied().min().unwrap_or(0);
    let total: u64 = loads.iter().sum::<u64>() + overflow;
    ColorBalance {
        max_load,
        min_load,
        mean_load: total as f64 / workers as f64,
    }
}

/// Lower bound on `P`-processor completion time: `max(T1/P, T∞)`
/// (the work and span laws).
pub fn completion_lower_bound(a: &GraphAnalysis, p: usize) -> f64 {
    assert!(p > 0, "need at least one worker");
    (a.t1 as f64 / p as f64).max(a.t_inf as f64)
}

/// The Theorem 1 asymptotic upper bound with explicit constants:
/// `c1*T1/P + c2*T∞ + c3*M*lg d + c4*lg P + startup`.
pub fn theorem1_bound(
    a: &GraphAnalysis,
    p: usize,
    constants: (f64, f64, f64, f64),
    startup: f64,
) -> f64 {
    assert!(p > 0, "need at least one worker");
    let (c1, c2, c3, c4) = constants;
    let lg_d = (a.max_degree.max(2) as f64).log2();
    let lg_p = (p.max(2) as f64).log2();
    c1 * a.t1 as f64 / p as f64
        + c2 * a.t_inf as f64
        + c3 * a.longest_path_nodes as f64 * lg_d
        + c4 * lg_p
        + startup
}

/// Per-node earliest start times under infinite processors (levels by work).
/// Useful for visualizing available parallelism over time.
pub fn earliest_start_times(g: &TaskGraph) -> Vec<u64> {
    let n = g.node_count();
    let mut est = vec![0u64; n];
    for &u in g.topo_order() {
        let finish = est[u as usize] + g.work(u);
        for &v in g.successors(u) {
            est[v as usize] = est[v as usize].max(finish);
        }
    }
    est
}

/// Dependency levels of a graph: two nodes share a level iff they have the
/// same [`earliest_start_times`] value under infinite processors. Levels
/// are indexed in increasing start-time order, so level 0 holds the
/// sources and the last level ends the critical path.
///
/// The *width* of a level is how many nodes can run simultaneously at that
/// point of an ideal schedule — the graph's available parallelism over
/// time. A coloring that piles a whole level onto one color forfeits that
/// parallelism no matter how few edges it cuts, which is exactly the
/// wavefront failure mode the `CpLevelAware` assigner exists to avoid
/// (see [`level_serialization`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelProfile {
    /// Level index per node (indexed by `NodeId`).
    pub level_of: Vec<u32>,
    /// Earliest start time of each level.
    pub starts: Vec<u64>,
    /// Node count per level.
    pub widths: Vec<usize>,
    /// Total node work per level (each node counted as `work.max(1)` so
    /// zero-work nodes still occupy schedule slots).
    pub weights: Vec<u64>,
}

impl LevelProfile {
    /// Number of levels.
    pub fn level_count(&self) -> usize {
        self.starts.len()
    }

    /// Widest level — the graph's peak available parallelism.
    pub fn max_width(&self) -> usize {
        self.widths.iter().copied().max().unwrap_or(0)
    }
}

/// Computes the [`LevelProfile`] from [`earliest_start_times`].
pub fn level_profile(g: &TaskGraph) -> LevelProfile {
    let est = earliest_start_times(g);
    let mut starts: Vec<u64> = est.clone();
    starts.sort_unstable();
    starts.dedup();
    let mut widths = vec![0usize; starts.len()];
    let mut weights = vec![0u64; starts.len()];
    let level_of: Vec<u32> = g
        .nodes()
        .map(|u| {
            let l = starts
                .binary_search(&est[u as usize])
                .expect("every est value is a level start");
            widths[l] += 1;
            weights[l] += g.work(u).max(1);
            l as u32
        })
        .collect();
    LevelProfile {
        level_of,
        starts,
        widths,
        weights,
    }
}

/// The graph's nodes by *hop-count level* — a node's longest path, in
/// edges, from a source — each level in `NodeId` order. Every edge points
/// into a later level, so running the levels one after another, each as a
/// barrier-closed parallel loop, honours every dependence: this is the
/// OpenMP program of a task graph, which the threaded team and the
/// simulator both run. [`level_profile`] would not do: it splits one loop
/// wherever its nodes' predecessors carry unequal work.
pub fn hop_levels(g: &TaskGraph) -> Vec<Vec<NodeId>> {
    let mut level = vec![0usize; g.node_count()];
    for &u in g.topo_order() {
        for &v in g.successors(u) {
            level[v as usize] = level[v as usize].max(level[u as usize] + 1);
        }
    }
    let mut levels = vec![Vec::new(); level.iter().max().map_or(0, |&l| l + 1)];
    for u in g.nodes() {
        levels[level[u as usize]].push(u);
    }
    levels
}

/// Cheap structural summary of a graph, relative to a machine size. Built
/// from one [`level_profile`] sweep (O(V + E)), so it is far cheaper than
/// any coloring pass or estimator run over the same graph.
///
/// This is the single shape classification shared by the autocolor
/// candidate pre-filter and the static graph linter — both reason about
/// the same structural facts (depth, peak width, how much weight sits in
/// wide levels), so they must not drift apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphShape {
    /// Number of dependency levels (earliest-start-time classes).
    pub levels: usize,
    /// Widest level — the graph's peak available parallelism.
    pub max_width: usize,
    /// Fraction of total level weight sitting in *wide* levels (width ≥
    /// workers) — how much of the schedule depends on spreading levels.
    pub wide_weight_frac: f64,
}

impl GraphShape {
    /// Profiles `graph` for a `workers`-worker machine.
    pub fn of(graph: &TaskGraph, workers: usize) -> GraphShape {
        Self::from_profile(&level_profile(graph), workers)
    }

    /// As [`of`](Self::of), over an already-computed profile.
    pub fn from_profile(profile: &LevelProfile, workers: usize) -> GraphShape {
        let total: u64 = profile.weights.iter().sum();
        let wide: u64 = profile
            .widths
            .iter()
            .zip(profile.weights.iter())
            .filter(|(&w, _)| w >= workers)
            .map(|(_, &wt)| wt)
            .sum();
        GraphShape {
            levels: profile.level_count(),
            max_width: profile.max_width(),
            wide_weight_frac: if total == 0 {
                0.0
            } else {
                wide as f64 / total as f64
            },
        }
    }

    /// Whether this is a *deep wavefront pipeline*: more levels than the
    /// widest level, with most of the weight in wide levels. On such
    /// graphs a cut-minimal partition is spatially compact and serializes
    /// whole dependency levels (the Smith–Waterman failure mode), so
    /// cut-driven colorings lose the makespan race no matter how few
    /// edges they cut. The autocolor pre-filter skips recursive bisection
    /// on this shape and the linter's serialized-wide-level detector uses
    /// it to grade how suspicious a dominated level is.
    pub fn deep_wavefront(&self) -> bool {
        self.levels > self.max_width && self.wide_weight_frac >= 0.5
    }
}

/// How much of each dependency level's work a coloring concentrates on a
/// single color.
///
/// `per_level[l]` is the maximum fraction of level `l`'s weight assigned
/// to any one color: 1.0 means the level is fully serialized (one worker
/// must execute all of it), `1/workers` is the best possible spread. A
/// low edge-cut coloring can still score 1.0 here — that is the wavefront
/// trap where cut-optimal partitions lose the makespan race.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSerialization {
    /// Max single-color weight fraction per level.
    pub per_level: Vec<f64>,
    /// Worst level (1.0 = some level fully serialized).
    pub max: f64,
    /// Mean over levels, weighted by level weight — the scalar to compare
    /// colorings by (levels with more work matter more).
    pub weighted_mean: f64,
}

/// Computes [`LevelSerialization`] for a colored graph over a
/// pre-computed [`LevelProfile`]. All invalid colors are treated as one
/// overflow color (they serialize together, like
/// [`color_balance`]'s overflow bucket).
pub fn level_serialization(g: &TaskGraph, profile: &LevelProfile) -> LevelSerialization {
    let levels = profile.level_count();
    let mut by_color: Vec<HashMap<Color, u64>> = vec![HashMap::new(); levels];
    for u in g.nodes() {
        let c = if g.color(u).is_valid() {
            g.color(u)
        } else {
            Color::INVALID
        };
        *by_color[profile.level_of[u as usize] as usize]
            .entry(c)
            .or_insert(0) += g.work(u).max(1);
    }
    let per_level: Vec<f64> = (0..levels)
        .map(|l| {
            let max = by_color[l].values().copied().max().unwrap_or(0);
            max as f64 / profile.weights[l].max(1) as f64
        })
        .collect();
    let max = per_level.iter().copied().fold(0.0, f64::max);
    let total: u64 = profile.weights.iter().sum();
    let weighted_mean = if total == 0 {
        0.0
    } else {
        per_level
            .iter()
            .zip(profile.weights.iter())
            .map(|(&s, &w)| s * w as f64)
            .sum::<f64>()
            / total as f64
    };
    LevelSerialization {
        per_level,
        max,
        weighted_mean,
    }
}

/// An assignment handed to the makespan estimator named a color no
/// worker owns: node `node` carries `color`, which is invalid or outside
/// `0..workers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidColoring {
    /// First offending node.
    pub node: NodeId,
    /// The color it carries.
    pub color: Color,
    /// The machine size the assignment was checked against.
    pub workers: usize,
}

impl std::fmt::Display for InvalidColoring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {} carries color {} but only {} workers exist",
            self.node, self.color, self.workers
        )
    }
}

impl std::error::Error for InvalidColoring {}

/// Cheap bandwidth-aware list-schedule makespan estimate of a coloring —
/// the workspace's one makespan estimator.
///
/// Node `u` executes on the worker its color names and nodes are issued
/// in topological order. A cross-worker dependence edge `p -> u` is
/// charged with the two terms of the shared [`CostModel`]:
///
/// * **bandwidth** — when the two workers sit in different NUMA domains
///   of `topo` ([`Topology::domain_of`] differs — the same rule the NUMA
///   simulator applies to colors), the edge's byte traffic
///   ([`EdgeTraffic`]) is read *remotely* by the consumer, so
///   [`CostModel::remote_excess`] ticks are added to `u`'s execution
///   time. This occupies the consumer's worker — it cannot be hidden by a
///   warm pipeline — which is what makes memory-bound colorings rank
///   correctly (the price of a cut edge scales with the bytes it moves,
///   not with a calibrated constant). A cut edge whose endpoints share a
///   domain moves its bytes at *local* bandwidth;
/// * **latency** — [`CostModel::cross_edge_latency`] (one steal probe +
///   one entry transfer) delays `u`'s *ready time* after `p` finishes but
///   does not occupy the worker; a busy worker absorbs it. It is charged
///   on every cross-*worker* edge: the task changes hands even when the
///   data does not change domains.
///
/// Same-worker edges charge nothing; every node additionally pays
/// [`CostModel::node_ticks`] over its work and footprint, so the estimate
/// and the NUMA simulator price nodes identically.
///
/// Callers without a machine description pass [`Topology::per_worker`] —
/// every worker its own domain, any cross-worker edge remote — which
/// ranks identically to a grouped topology on 1-worker-per-domain
/// machines. Panics unless `topo` covers every worker
/// (`topo.cores() >= workers`).
///
/// An assignment containing an invalid or out-of-range color is
/// rejected, not scored: a makespan for a color no worker owns is one no
/// real machine will reproduce, and a buggy assigner must not win a
/// selection with it. `AutoSelect` in `nabbitc-autocolor` disqualifies
/// such candidates.
///
/// This is the objective the makespan-aware refinement gain optimizes and
/// the `AutoSelect` meta-assigner scores with: it is O(V + E),
/// deterministic, and ranks colorings the same way the full work-stealing
/// simulator does (pinned by the estimator-vs-simulator rank-agreement
/// proptests in `tests/cost_model.rs` and the cross-checks in
/// `nabbitc-numasim`).
pub fn estimate_makespan_colored_strict_on(
    g: &TaskGraph,
    colors: &[Color],
    workers: usize,
    cost: &CostModel,
    topo: &Topology,
) -> Result<u64, InvalidColoring> {
    assert!(workers > 0, "need at least one worker");
    assert_eq!(colors.len(), g.node_count(), "one color per node");
    cost.assert_valid();
    for u in g.nodes() {
        let c = colors[u as usize];
        if !c.is_valid() || c.index() >= workers {
            return Err(InvalidColoring {
                node: u,
                color: c,
                workers,
            });
        }
    }
    assert!(
        topo.cores() >= workers,
        "topology with {} cores cannot place {workers} workers",
        topo.cores()
    );
    let latency = cost.cross_edge_latency();
    let traffic = EdgeTraffic::of(g);
    let domain: Vec<usize> = (0..workers).map(|w| topo.domain_of(w)).collect();
    let mut free = vec![0u64; workers];
    let mut finish = vec![0u64; g.node_count()];
    let mut makespan = 0u64;
    for &u in g.topo_order() {
        let w = colors[u as usize].index();
        let d = domain[w];
        let mut ready = 0u64;
        let mut remote_bytes = 0u64;
        // Whether an edge is cut is data, not control flow: an autocolored
        // graph cuts edges at random, so a branch on it mispredicts.
        // Same worker implies same domain, so the domain test needs no
        // cut test in front of it.
        for &p in g.predecessors(u) {
            let pw = colors[p as usize].index();
            let delay = select_unpredictable(pw != w, latency, 0);
            let remote = select_unpredictable(domain[pw] != d, traffic.traffic(p, u), 0);
            ready = ready.max(finish[p as usize] + delay);
            remote_bytes += remote;
        }
        // The traffic model caps inbound at the footprint, so this never
        // underflows: local + remote = footprint(u).
        let local_bytes = g.footprint(u) - remote_bytes;
        let start = ready.max(free[w]);
        let end = start + cost.node_ticks(g.work(u), local_bytes, remote_bytes).max(1);
        finish[u as usize] = end;
        free[w] = end;
        makespan = makespan.max(end);
    }
    Ok(makespan)
}

/// Checks whether the sink is reachable from every node and every node is
/// reachable from some source — i.e., the graph has no dead work when driven
/// from its sinks (Nabbit executes on demand from the sink).
pub fn all_work_reaches_sinks(g: &TaskGraph) -> bool {
    // Reverse BFS from all sinks.
    let n = g.node_count();
    let mut seen = vec![false; n];
    let mut stack = g.sinks();
    for &s in &stack {
        seen[s as usize] = true;
    }
    while let Some(u) = stack.pop() {
        for &p in g.predecessors(u) {
            if !seen[p as usize] {
                seen[p as usize] = true;
                stack.push(p);
            }
        }
    }
    seen.iter().all(|&b| b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, NodeId};

    fn chain(lens: &[u64]) -> TaskGraph {
        let mut b = GraphBuilder::new();
        for (i, &w) in lens.iter().enumerate() {
            b.add_simple_node(w, Color(0), 0);
            if i > 0 {
                b.add_edge((i - 1) as NodeId, i as NodeId);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_analysis() {
        let g = chain(&[5, 7, 3]);
        let a = analyze(&g);
        assert_eq!(a.total_work, 15);
        assert_eq!(a.t1, 15 + 2);
        assert_eq!(a.critical_path_work, 15);
        assert_eq!(a.longest_path_nodes, 3);
        assert_eq!(a.t_inf, 18);
        assert_eq!(a.max_degree, 2);
    }

    #[test]
    fn diamond_analysis() {
        // 0 -> {1,2} -> 3, works 1, 10, 2, 1.
        let mut b = GraphBuilder::new();
        b.add_simple_node(1, Color(0), 0);
        b.add_simple_node(10, Color(0), 0);
        b.add_simple_node(2, Color(1), 0);
        b.add_simple_node(1, Color(1), 0);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        let a = analyze(&b.build().unwrap());
        assert_eq!(a.total_work, 14);
        assert_eq!(a.critical_path_work, 12); // 0 -> 1 -> 3
        assert_eq!(a.longest_path_nodes, 3);
        assert_eq!(a.max_degree, 2); // every node has in+out = 2
    }

    #[test]
    fn single_node() {
        let g = chain(&[42]);
        let a = analyze(&g);
        assert_eq!(a.t1, 42);
        assert_eq!(a.t_inf, 43);
        assert_eq!(a.longest_path_nodes, 1);
        assert!(a.parallelism < 1.0 + 1e-9);
    }

    #[test]
    fn lower_bound_laws() {
        let g = chain(&[5, 7, 3]);
        let a = analyze(&g);
        assert_eq!(completion_lower_bound(&a, 1), 18.0); // max(T1=17, T_inf=18)
        assert_eq!(completion_lower_bound(&a, 100), a.t_inf as f64);
    }

    #[test]
    fn edge_cut_counts_cross_color_edges() {
        // 0 -> {1,2} -> 3 with colors 0,0,1,1: cut edges are 0->2 and 1->3.
        let mut b = GraphBuilder::new();
        b.add_simple_node(1, Color(0), 0);
        b.add_simple_node(1, Color(0), 0);
        b.add_simple_node(1, Color(1), 0);
        b.add_simple_node(1, Color(1), 0);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        let g = b.build().unwrap();
        assert_eq!(edge_cut(&g), 2);
        assert!((edge_cut_fraction(&g) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn edge_cut_zero_on_monochrome() {
        let g = chain(&[1, 1, 1]);
        assert_eq!(edge_cut(&g), 0);
        assert_eq!(edge_cut_fraction(&g), 0.0);
    }

    #[test]
    fn color_balance_counts_empty_colors() {
        let mut b = GraphBuilder::new();
        b.add_simple_node(30, Color(0), 0);
        b.add_simple_node(10, Color(1), 0);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        // Over 4 workers two colors are empty: min 0, mean 10.
        let bal = color_balance(&g, 4);
        assert_eq!(bal.max_load, 30);
        assert_eq!(bal.min_load, 0);
        assert!((bal.imbalance() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn color_balance_flags_invalid_colors() {
        let mut g = chain(&[5, 5]);
        g.recolor(|_, _| Color::INVALID);
        let bal = color_balance(&g, 2);
        // All work lands in the overflow bucket: both real colors empty.
        assert_eq!(bal.max_load, 10);
        assert_eq!(bal.min_load, 0);
    }

    #[test]
    fn earliest_start_levels() {
        let g = chain(&[5, 7, 3]);
        assert_eq!(earliest_start_times(&g), vec![0, 5, 12]);
    }

    #[test]
    fn reachability_check() {
        let g = chain(&[1, 1]);
        assert!(all_work_reaches_sinks(&g));
    }

    #[test]
    fn level_profile_on_chain_and_wavefront() {
        let g = chain(&[5, 7, 3]);
        let p = level_profile(&g);
        assert_eq!(p.level_count(), 3);
        assert_eq!(p.starts, vec![0, 5, 12]);
        assert_eq!(p.widths, vec![1, 1, 1]);
        assert_eq!(p.weights, vec![5, 7, 3]);
        assert_eq!(p.max_width(), 1);

        // 4x4 uniform wavefront: levels are the anti-diagonals, widths
        // 1,2,3,4,3,2,1.
        let g = crate::generate::wavefront(4, 4, 2, 1);
        let p = level_profile(&g);
        assert_eq!(p.level_count(), 7);
        assert_eq!(p.widths, vec![1, 2, 3, 4, 3, 2, 1]);
        assert_eq!(p.max_width(), 4);
        for u in g.nodes() {
            let (i, j) = (u as usize / 4, u as usize % 4);
            assert_eq!(p.level_of[u as usize] as usize, i + j);
        }
    }

    #[test]
    fn level_serialization_detects_the_wavefront_trap() {
        // Row-blocked coloring on a wavefront spreads every wide level;
        // level-blocked coloring (color = level) fully serializes each.
        let mut by_row = crate::generate::wavefront(6, 6, 1, 1);
        by_row.recolor(|u, _| Color::from(u as usize / 18)); // rows 0-2 vs 3-5
        let profile = level_profile(&by_row);
        let s_row = level_serialization(&by_row, &profile);
        // The widest level (the main anti-diagonal) spans both row blocks.
        let widest = (0..profile.level_count())
            .max_by_key(|&l| profile.widths[l])
            .unwrap();
        assert!(
            s_row.per_level[widest] < 1.0,
            "row blocking must spread the widest level"
        );

        let mut by_level = crate::generate::wavefront(6, 6, 1, 1);
        let lv = profile.level_of.clone();
        by_level.recolor(|u, _| Color::from(lv[u as usize] as usize % 2));
        let s_level = level_serialization(&by_level, &level_profile(&by_level));
        assert_eq!(s_level.max, 1.0, "level blocking serializes every level");
        assert!(s_level.weighted_mean > s_row.weighted_mean);
    }

    #[test]
    fn level_serialization_monochrome_is_one() {
        let g = chain(&[1, 1, 1]);
        let s = level_serialization(&g, &level_profile(&g));
        assert_eq!(s.per_level, vec![1.0, 1.0, 1.0]);
        assert_eq!(s.max, 1.0);
        assert!((s.weighted_mean - 1.0).abs() < 1e-12);
    }

    /// A model with no per-node overhead and no cross-edge latency: pure
    /// work ticks (tests here use zero-byte nodes), for exact arithmetic.
    fn work_only() -> CostModel {
        CostModel {
            node_overhead: 0,
            steal_check: 0,
            steal_transfer: 0,
            ..CostModel::default()
        }
    }

    /// The estimate of `colors` on `workers` workers grouped by `topo`;
    /// panics on an invalid coloring.
    fn estimate_on(
        g: &TaskGraph,
        colors: &[Color],
        workers: usize,
        cost: &CostModel,
        topo: &Topology,
    ) -> u64 {
        estimate_makespan_colored_strict_on(g, colors, workers, cost, topo).expect("valid coloring")
    }

    /// [`estimate_on`] with every worker its own domain.
    fn estimate(g: &TaskGraph, colors: &[Color], workers: usize, cost: &CostModel) -> u64 {
        estimate_on(g, colors, workers, cost, &Topology::per_worker(workers))
    }

    /// The per-worker estimate of `g` under its own colors.
    fn estimate_own(g: &TaskGraph, workers: usize, cost: &CostModel) -> u64 {
        let colors: Vec<Color> = g.nodes().map(|u| g.color(u)).collect();
        estimate(g, &colors, workers, cost)
    }

    /// [`work_only`] plus a cross-edge hand-off latency of `lat` ticks.
    fn work_and_latency(lat: u64) -> CostModel {
        CostModel {
            steal_transfer: lat,
            ..work_only()
        }
    }

    #[test]
    fn makespan_estimate_chain_is_serial() {
        let g = chain(&[5, 7, 3]);
        // Monochrome chain: no cross edges, one worker does everything.
        assert_eq!(estimate_own(&g, 4, &work_and_latency(100)), 15);
    }

    #[test]
    fn makespan_estimate_sees_parallelism_and_latency() {
        // 0 -> {1,2} -> 3; colors 0,0,1,0; works 1,10,10,1; no bytes.
        let mut b = GraphBuilder::new();
        b.add_simple_node(1, Color(0), 0);
        b.add_simple_node(10, Color(0), 0);
        b.add_simple_node(10, Color(1), 0);
        b.add_simple_node(1, Color(0), 0);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        let g = b.build().unwrap();
        // No latency: 1 + max(10, 10) + 1 = 12 (branches overlap).
        assert_eq!(estimate_own(&g, 2, &work_only()), 12);
        // Latency 5: node 2 starts at 1+5, node 3 waits for 2's finish +5.
        assert_eq!(
            estimate_own(&g, 2, &work_and_latency(5)),
            1 + 5 + 10 + 5 + 1
        );
        // One worker (monochrome): branches serialize.
        let mut mono = g.clone();
        mono.recolor(|_, _| Color(0));
        assert_eq!(estimate_own(&mono, 1, &work_only()), 22);
    }

    #[test]
    fn makespan_estimate_charges_cross_edges_as_remote_bytes() {
        // Two-node chain, 1200 bytes each, works 1: the consumer reads
        // the producer's output (min(1200/1, 1200/1) = 1200 bytes)
        // remotely when their colors differ.
        let mut b = GraphBuilder::new();
        b.add_simple_node(1, Color(0), 1200);
        b.add_simple_node(1, Color(1), 1200);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        let cost = work_only(); // local 1x, remote 3x, no latency
        let mono: Vec<Color> = vec![Color(0), Color(0)];
        let split: Vec<Color> = vec![Color(0), Color(1)];
        // Monochrome: both nodes all-local: 2 × (1 + 1200).
        assert_eq!(estimate(&g, &mono, 2, &cost), 2 * 1201);
        // Split: same serial chain, but the consumer's 1200 bytes are now
        // remote: + (3 - 1) × 1200 on its execution time.
        assert_eq!(estimate(&g, &split, 2, &cost), 2 * 1201 + 2 * 1200);
    }

    #[test]
    fn domain_aware_estimate_prices_same_domain_cuts_local() {
        // Two-node chain, 1200 bytes each, works 1, split across workers
        // 0 and 1. On a per-worker topology the consumer's 1200 bytes are
        // remote; on a 2-cores-per-domain topology workers 0 and 1 share
        // a domain and the bytes move at local bandwidth — only the
        // steal hand-off latency remains.
        let mut b = GraphBuilder::new();
        b.add_simple_node(1, Color(0), 1200);
        b.add_simple_node(1, Color(1), 1200);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        let colors = vec![Color(0), Color(1)];
        let cost = work_and_latency(7);
        let per_worker = estimate(&g, &colors, 4, &cost);
        assert_eq!(per_worker, 2 * 1201 + 2 * 1200 + 7);
        // Same domain: the bandwidth term vanishes, the latency stays.
        let paired = Topology::new(2, 2);
        assert_eq!(estimate_on(&g, &colors, 4, &cost, &paired), 2 * 1201 + 7);
        // Cross domain (workers 0 and 2): full remote pricing again.
        let split = vec![Color(0), Color(2)];
        assert_eq!(
            estimate_on(&g, &split, 4, &cost, &paired),
            2 * 1201 + 2 * 1200 + 7
        );
        // UMA: nothing is ever remote.
        assert_eq!(
            estimate_on(&g, &split, 4, &cost, &Topology::uma(4)),
            2 * 1201 + 7
        );
    }

    #[test]
    fn strict_domain_aware_matches_lenient_and_rejects_invalid() {
        let g = chain(&[5, 7, 3]);
        let colors = vec![Color(0), Color(1), Color(0)];
        let cost = CostModel::default();
        let topo = Topology::new(2, 2);
        // Zero-byte nodes: three node costs and two hand-offs, whatever
        // the domains.
        assert_eq!(
            estimate_makespan_colored_strict_on(&g, &colors, 4, &cost, &topo),
            Ok(205 + 450 + 207 + 450 + 203)
        );
        let bad = vec![Color(0), Color::INVALID, Color(0)];
        let err = estimate_makespan_colored_strict_on(&g, &bad, 4, &cost, &topo)
            .expect_err("INVALID must be rejected");
        assert_eq!(err.node, 1);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn domain_aware_estimate_requires_a_covering_topology() {
        let g = chain(&[1, 1]);
        let colors = vec![Color(0), Color(1)];
        let _ = estimate_makespan_colored_strict_on(
            &g,
            &colors,
            8,
            &CostModel::default(),
            &Topology::new(2, 2), // only 4 cores
        );
    }

    #[test]
    fn makespan_estimate_bandwidth_occupies_the_worker() {
        // The tentpole distinction: bandwidth is charged on *execution*
        // (it occupies the consumer), latency on *readiness* (a busy
        // worker absorbs it). Two producers on color 0 feed one consumer
        // on color 1 that also has a long local queue: under a pure
        // latency model the cross edges vanish behind the queue; under
        // the bandwidth model they cannot.
        let mut b = GraphBuilder::new();
        b.add_simple_node(1, Color(0), 600); // producers, one per worker
        b.add_simple_node(1, Color(1), 600);
        b.add_simple_node(1, Color(2), 600); // consumer, cross reads
        b.add_simple_node(1200, Color(2), 0); // the queue keeping 2 busy
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        let colors: Vec<Color> = g.nodes().map(|u| g.color(u)).collect();
        let lat_only = CostModel {
            // Remote bytes priced as local: bandwidth term zero.
            remote_byte: 1.0,
            steal_transfer: 500,
            node_overhead: 0,
            steal_check: 0,
            ..CostModel::default()
        };
        // Latency-only: worker 2 is busy until 1200; the consumer's ready
        // time (1 + 500) is absorbed entirely: 1200 + (1 + 600).
        assert_eq!(estimate(&g, &colors, 3, &lat_only), 1200 + 601);
        // Bandwidth-aware (no latency, remote 3x): the consumer's 600
        // inbound bytes cost 2x extra *on the worker*: nothing absorbs it.
        assert_eq!(estimate(&g, &colors, 3, &work_only()), 1200 + 601 + 2 * 600);
    }

    #[test]
    fn makespan_estimate_serialized_level_costs_more() {
        // On a wavefront, coloring by row beats coloring by level under
        // the estimator, even though coloring by level cuts *fewer* edges
        // per node pair in other shapes. Both colorings use both workers.
        let mut by_row = crate::generate::wavefront(8, 8, 10, 1);
        by_row.recolor(|u, _| Color::from(u as usize / 32));
        let profile = level_profile(&by_row);
        let mut by_level = crate::generate::wavefront(8, 8, 10, 1);
        let lv = profile.level_of.clone();
        by_level.recolor(|u, _| Color::from((lv[u as usize] as usize / 8) % 2));
        let cost = CostModel::default();
        assert!(
            estimate_own(&by_row, 2, &cost) < estimate_own(&by_level, 2, &cost),
            "row blocking must beat level blocking"
        );
    }

    #[test]
    fn strict_estimate_matches_lenient_on_valid_colorings() {
        let g = chain(&[5, 7, 3]);
        let colors: Vec<Color> = vec![Color(0), Color(1), Color(0)];
        let cost = CostModel::default();
        assert_eq!(
            estimate_makespan_colored_strict_on(&g, &colors, 2, &cost, &Topology::per_worker(2)),
            Ok(205 + 450 + 207 + 450 + 203)
        );
    }

    #[test]
    fn strict_estimate_rejects_invalid_and_out_of_range_colors() {
        let g = chain(&[1, 1, 1]);
        let cost = CostModel::default();
        // INVALID color.
        let colors = vec![Color(0), Color::INVALID, Color(0)];
        let topo = Topology::per_worker(2);
        let err = estimate_makespan_colored_strict_on(&g, &colors, 2, &cost, &topo)
            .expect_err("INVALID must be rejected");
        assert_eq!(err.node, 1);
        assert_eq!(err.color, Color::INVALID);
        assert_eq!(err.workers, 2);
        // Valid color, but no worker owns it: scoring it would price a
        // machine one worker larger than the real one.
        let colors = vec![Color(0), Color(1), Color(7)];
        let err = estimate_makespan_colored_strict_on(&g, &colors, 2, &cost, &topo)
            .expect_err("out-of-range must be rejected");
        assert_eq!((err.node, err.color), (2, Color(7)));
        assert!(err.to_string().contains("color c7"), "{err}");
        // Not even on UMA, where every real pair is local, nor when every
        // node is off the machine: the first offender is named.
        let g = chain(&[1, 1]);
        for (colors, topo, node) in [
            ([Color(0), Color(9)], Topology::uma(4), 1),
            ([Color::INVALID; 2], Topology::per_worker(4), 0),
            ([Color(5), Color(6)], Topology::per_worker(4), 0),
        ] {
            let err = estimate_makespan_colored_strict_on(&g, &colors, 4, &cost, &topo)
                .expect_err("no worker owns the color");
            let named = (node as NodeId, colors[node], 4);
            assert_eq!((err.node, err.color, err.workers), named);
        }
    }

    #[test]
    fn estimator_family_shares_the_workers_contract() {
        // The workspace-wide `workers == 0` contract (unified in PR 3 for
        // the runtime): every public estimator-family entry panics
        // immediately with the same message.
        let g = chain(&[1, 1]);
        let a = analyze(&g);
        let cost = CostModel::default();
        let colors: Vec<Color> = vec![Color(0), Color(0)];
        type Entry<'a> = (&'a str, Box<dyn Fn() + 'a>);
        let entries: Vec<Entry<'_>> = vec![
            (
                "estimate_makespan_colored_strict_on",
                Box::new(|| {
                    let _ = estimate_makespan_colored_strict_on(
                        &g,
                        &colors,
                        0,
                        &cost,
                        &Topology::paper_machine(),
                    );
                }),
            ),
            (
                "color_balance",
                Box::new(|| {
                    color_balance(&g, 0);
                }),
            ),
            (
                "completion_lower_bound",
                Box::new(|| {
                    completion_lower_bound(&a, 0);
                }),
            ),
            (
                "theorem1_bound",
                Box::new(|| {
                    theorem1_bound(&a, 0, (1.0, 1.0, 1.0, 1.0), 0.0);
                }),
            ),
        ];
        for (name, f) in entries {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .expect_err(&format!("{name} accepted workers == 0"));
            let msg = err
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(
                msg.contains("need at least one worker"),
                "{name}: wrong panic message: {msg:?}"
            );
        }
    }

    #[test]
    fn estimator_rejects_garbage_cost_models() {
        let g = chain(&[1, 1]);
        let bad = CostModel {
            remote_byte: f64::NAN,
            ..CostModel::default()
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            estimate_own(&g, 2, &bad);
        }))
        .expect_err("NaN bandwidth term must be rejected");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("remote_byte"), "{msg:?}");
    }

    #[test]
    fn theorem1_bound_dominates_lower_bound() {
        let g = chain(&[5, 7, 3]);
        let a = analyze(&g);
        for p in [1usize, 2, 8, 80] {
            assert!(
                theorem1_bound(&a, p, (1.0, 1.0, 1.0, 1.0), 0.0) >= completion_lower_bound(&a, p)
            );
        }
    }
}
