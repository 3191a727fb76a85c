//! Automatic locality coloring — NabbitC without hand-written colors.
//!
//! The paper's NabbitC scheduler (§III) is only as good as the coloring the
//! user supplies: a node's color names the worker whose memory holds the
//! node's data, and the Table II/III experiments show that wrong or invalid
//! colors forfeit the entire locality benefit. That makes hand coloring the
//! single biggest usability cliff of the scheme — every new workload needs
//! a bespoke data-distribution argument before NabbitC can help it.
//!
//! This crate removes the cliff: given any [`TaskGraph`] (or, online, any
//! stream of dynamically discovered task keys) it infers a coloring
//! automatically. All strategies sit behind one [`ColorAssigner`] trait:
//!
//! * [`RoundRobin`] — `color(u) = u mod workers`; the locality-oblivious
//!   baseline every smarter strategy must beat;
//! * [`BlockContiguous`] — contiguous id ranges balanced by node weight,
//!   the "distribute data evenly in id order" heuristic the paper's own
//!   benchmarks use implicitly;
//! * [`BfsLocality`] — a topological sweep that keeps parent/child chains
//!   on one color under a per-color load cap;
//! * [`RecursiveBisection`] — balanced graph partitioning into `workers`
//!   parts with greedy Kernighan–Lin-style boundary refinement, trading
//!   cross-color edge-cut against load balance;
//! * [`CpLevelAware`] — critical-path-aware partitioning: sweeps the DAG
//!   level by level (levels = earliest-start-time classes), spreading
//!   every *wide* level across colors under a per-level quota while
//!   narrow levels inherit their majority predecessor color. Its
//!   objective is simulated makespan, not edge-cut: on wavefront shapes,
//!   where cut-optimal partitions serialize whole dependency levels onto
//!   one color ([`RecursiveBisection`]'s failure mode), it keeps every
//!   anti-diagonal feeding all workers and wins the schedule despite
//!   cutting more edges;
//! * [`AutoSelect`] — the meta-assigner and **default static path**: runs
//!   the two node partitioners that ever win, [`RecursiveBisection`] and
//!   [`CpLevelAware`] (side by side when the machine has a CPU for each),
//!   scores every assignment with the strict makespan estimator at the
//!   target worker count, and returns the argmin — so callers get the
//!   per-graph winner (bisection on stencils, level-aware on wavefronts)
//!   without choosing a strategy themselves; where nodes share homes it
//!   first partitions the homes. See [`select`] for the home path, the
//!   shape pre-filter and the [`SelectionReport`] benches print.
//!
//! The on-demand executor, which sees no graph up front, colors keys as
//! it discovers them with [`OnlineAssigner`] (predecessor-majority voting
//! with a load cap).
//!
//! **Selection is domain-aware; members price per worker.** Under a
//! machine topology (`nabbitc_cost::Topology`, e.g. the paper's 8-domain
//! × 10-worker Xeon) a cut edge whose endpoint colors share a domain
//! moves its bytes at *local* bandwidth, and [`AutoSelect`]'s scoring
//! charges the remote-byte premium only on *cross-domain* edges
//! ([`AutoSelect::with_topology`]). Its **domain-packing post-pass**
//! ([`pack_domains`], in [`domains`]) then relabels the winner's colors
//! so the heaviest-communicating color pairs share a domain — any
//! permutation preserves validity, loads and the cross-worker cut — and
//! keeps the permutation when the domain-aware estimate improves. The
//! members themselves see no topology: a color is a worker (§III), so
//! [`CpLevelAware`]'s sweep and refinement charge every cross-color edge
//! as remote.
//!
//! **One refinement engine.** [`refine::refine_kway`] refines
//! [`CpLevelAware`]'s assignment under the makespan-estimate gain
//! ([`refine::MakespanGain`] — remote-byte traffic plus per-level
//! concentration), pricing moves from an incrementally maintained
//! per-node connectivity table, so its cost is one walk over the edges
//! plus the neighbourhoods of the nodes it actually moves.
//! [`RecursiveBisection`]'s two-way boundary sweep counts its side-local
//! edge-cut gain inline.
//!
//! A coloring is *scheduling metadata only* until it is applied, and
//! applying it never copies the graph: [`TaskGraph::recolored`] lays the
//! colors over the same shared structure as a new layer, and
//! [`apply_assignment`] (in place) and [`autocolor`] (assign, then
//! recolor) are that one call. The layer's colors are also its data
//! placement under the edge-traffic model
//! ([`TaskGraph::edge_traffic`]): the worker that owns a node
//! first-touch initializes its data (the paper's "each worker initializes
//! a unique region"), and the node's reads of its predecessors' outputs
//! are placed at the predecessors' colors — so cross-color dependence
//! edges carry real remote-byte traffic under the shared
//! `nabbitc-cost::CostModel`. The access lists that say so are derived
//! from structure and colors when the NUMA simulator or the linter first
//! reads them; an executor, which reads colors only, never builds them.
//!
//! Two invariants are tested per strategy and property-tested over random
//! DAGs:
//!
//! 1. **validity** (all strategies) — every assigned color is `< workers`
//!    (never [`Color::INVALID`], which Table III shows degenerates
//!    NabbitC);
//! 2. **balance** (the weight-aware strategies: [`BfsLocality`],
//!    [`RecursiveBisection`], [`CpLevelAware`]) —
//!    max per-color load ≤ 2 × `max(total/workers, wmax)`, the
//!    greedy-scheduling bound (see [`balance_limit`]). The id-based
//!    baselines ignore weights by design and meet the bound only on
//!    uniform graphs.
//!
//! [`CpLevelAware`] adds a third, the one the makespan tests pin: no
//! dependency level of width ≥ `workers` is ever fully serialized onto
//! one color.

pub mod baseline;
pub mod bfs;
pub mod bisect;
pub mod cplevel;
pub mod domains;
pub mod online;
pub mod refine;
pub mod select;

pub use baseline::{BlockContiguous, RoundRobin};
pub use bfs::BfsLocality;
pub use bisect::RecursiveBisection;
pub use cplevel::CpLevelAware;
pub use domains::{inter_domain_traffic, pack_domains};
pub use online::OnlineAssigner;
pub use select::{AutoSelect, CandidateOutcome, CandidateTime, GraphShape, SelectionReport};

use nabbitc_color::Color;
use nabbitc_graph::analysis::LevelProfile;
use nabbitc_graph::{NodeId, TaskGraph};

/// A strategy that infers one color per node of a task graph.
pub trait ColorAssigner {
    /// Short name for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Produces a color for every node (indexed by [`NodeId`]), targeting a
    /// machine with `workers` workers. Every returned color must satisfy
    /// `color.index() < workers`.
    fn assign(&self, graph: &TaskGraph, workers: usize) -> Vec<Color>;

    /// [`assign`](Self::assign) for a caller that already holds
    /// `level_profile(graph)` — [`AutoSelect`] profiles the graph once for
    /// its shape pre-filter and hands the profile to every member. Must
    /// return exactly what `assign` does; the default ignores the profile,
    /// and a strategy that would compute its own ([`CpLevelAware`])
    /// overrides this to use the one passed in.
    fn assign_profiled(
        &self,
        graph: &TaskGraph,
        workers: usize,
        _profile: &LevelProfile,
    ) -> Vec<Color> {
        self.assign(graph, workers)
    }
}

/// The load-balance weight of a node: its computational work plus a
/// byte-scaled share of its memory footprint, so memory-bound nodes with
/// trivial `work` still count toward a color's capacity.
#[inline]
pub fn node_weight(graph: &TaskGraph, u: NodeId) -> u64 {
    graph.work(u).max(1) + graph.footprint(u) / 256
}

/// The balance ceiling every assigner guarantees: max per-color load is at
/// most `2 × max(total/workers, wmax)` — the classic greedy-scheduling
/// bound, with `wmax` covering graphs whose single heaviest node exceeds an
/// even share.
pub fn balance_limit(graph: &TaskGraph, workers: usize) -> u64 {
    assert!(workers > 0, "need at least one worker");
    let total: u64 = graph.nodes().map(|u| node_weight(graph, u)).sum();
    let wmax = graph
        .nodes()
        .map(|u| node_weight(graph, u))
        .max()
        .unwrap_or(0);
    2 * (total.div_ceil(workers as u64)).max(wmax)
}

/// Checks that every color in `colors` is valid for `workers` workers.
pub fn assignment_is_valid(colors: &[Color], workers: usize) -> bool {
    colors.iter().all(|c| c.is_valid() && c.index() < workers)
}

/// Per-color loads (node-weight sums) under an assignment; length
/// `workers`.
pub fn assignment_loads(graph: &TaskGraph, colors: &[Color], workers: usize) -> Vec<u64> {
    assert_eq!(colors.len(), graph.node_count(), "one color per node");
    let mut loads = vec![0u64; workers];
    for u in graph.nodes() {
        loads[colors[u as usize].index()] += node_weight(graph, u);
    }
    loads
}

/// Applies an assignment to a graph in place ([`TaskGraph::recolored`],
/// assigned back): sets every node's color and re-homes its accesses
/// under the edge-traffic model ([`TaskGraph::edge_traffic`]) —
/// each node's data is first-touch placed at its new color, and its reads
/// of predecessor outputs are priced at the predecessors' colors, the
/// same placement the NUMA simulator and the bandwidth-aware makespan
/// estimator charge. Panics, leaving `graph` as it was, if `colors` is
/// not one valid color per node.
pub fn apply_assignment(graph: &mut TaskGraph, colors: &[Color]) {
    *graph = graph.recolored(colors);
}

/// Assign-and-recolor convenience: runs `assigner` and returns `graph`
/// under the inferred colors, data re-homed to them — a new coloring
/// layer over `graph`'s own structure
/// ([`shares_structure_with`](TaskGraph::shares_structure_with)), not a
/// copy of it.
pub fn autocolor(graph: &TaskGraph, assigner: &dyn ColorAssigner, workers: usize) -> TaskGraph {
    graph.recolored(&assigner.assign(graph, workers))
}

/// Every static strategy (the [`AutoSelect`] meta-assigner last), boxed,
/// for sweeps in benches and tests.
pub fn all_strategies() -> Vec<Box<dyn ColorAssigner>> {
    vec![
        Box::new(RoundRobin),
        Box::new(BlockContiguous),
        Box::new(BfsLocality::default()),
        Box::new(RecursiveBisection::default()),
        Box::new(CpLevelAware::default()),
        Box::new(AutoSelect::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_graph::generate;

    #[test]
    fn apply_assignment_recolors_and_rehomes() {
        let mut g = generate::wavefront(4, 4, 1, 4);
        let before: Vec<u64> = g.nodes().map(|u| g.footprint(u)).collect();
        let colors: Vec<Color> = (0..16usize).map(|u| Color::from(u % 2)).collect();
        apply_assignment(&mut g, &colors);
        for u in g.nodes() {
            assert_eq!(g.color(u), colors[u as usize]);
            // Every access is owned by the node's own new color or by one
            // of its predecessors' new colors (the edge-traffic reads),
            // and the total footprint is preserved.
            for a in g.accesses(u) {
                let from_pred = g
                    .predecessors(u)
                    .iter()
                    .any(|&p| a.owner == colors[p as usize]);
                assert!(
                    a.owner == colors[u as usize] || from_pred,
                    "node {u}: access owned by unrelated color {}",
                    a.owner
                );
            }
            assert_eq!(g.footprint(u), before[u as usize]);
        }
        // Sources have no predecessors: fully homed at their own color.
        for u in g.sources() {
            assert!(g.accesses(u).iter().all(|a| a.owner == colors[u as usize]));
        }
    }

    #[test]
    fn autocolor_leaves_original_untouched() {
        let g = generate::chain(10, 1, 4);
        let before: Vec<Color> = g.nodes().map(|u| g.color(u)).collect();
        let colored = autocolor(&g, &RoundRobin, 3);
        let after: Vec<Color> = g.nodes().map(|u| g.color(u)).collect();
        assert_eq!(before, after);
        assert!(
            colored.shares_structure_with(&g),
            "autocolor copied the graph"
        );
    }

    #[test]
    fn apply_assignment_rejects_a_bad_vector_before_touching_the_graph() {
        let panic_message = |g: &mut TaskGraph, colors: &[Color]| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                apply_assignment(g, colors)
            }))
            .expect_err("a bad assignment must be refused");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let mut g = generate::chain(4, 1, 4);
        let before: Vec<Color> = g.nodes().map(|u| g.color(u)).collect();
        let short = panic_message(&mut g, &[Color(0); 3]);
        assert!(
            short.contains("3 colors") && short.contains("4 nodes"),
            "{short}"
        );
        let invalid = [Color(1), Color(0), Color::INVALID, Color::INVALID];
        let msg = panic_message(&mut g, &invalid);
        assert!(msg.contains("node 2"), "names the first offender: {msg}");
        let after: Vec<Color> = g.nodes().map(|u| g.color(u)).collect();
        assert_eq!(before, after, "a refused assignment left its mark");
    }

    #[test]
    fn every_strategy_panics_uniformly_on_zero_workers() {
        // The workspace-wide workers == 0 contract: every public entry
        // point panics immediately with the same clearly-worded message —
        // no strategy may silently clamp or defer the failure.
        let g = generate::chain(4, 1, 1);
        for s in all_strategies() {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.assign(&g, 0)))
                .expect_err(&format!("{} accepted workers == 0", s.name()));
            let msg = err
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(
                msg.contains("need at least one worker"),
                "{}: wrong panic message: {msg:?}",
                s.name()
            );
        }
    }

    #[test]
    fn every_strategy_is_valid_and_balanced_on_a_stencil() {
        let g = generate::iterated_stencil(8, 32, 3, 4);
        for workers in [1usize, 2, 5, 8] {
            let limit = balance_limit(&g, workers);
            for s in all_strategies() {
                let colors = s.assign(&g, workers);
                assert_eq!(colors.len(), g.node_count());
                assert!(
                    assignment_is_valid(&colors, workers),
                    "{} invalid at p={workers}",
                    s.name()
                );
                let max = *assignment_loads(&g, &colors, workers)
                    .iter()
                    .max()
                    .expect("nonempty");
                assert!(
                    max <= limit,
                    "{} unbalanced at p={workers}: max {max} > limit {limit}",
                    s.name()
                );
            }
        }
    }
}
