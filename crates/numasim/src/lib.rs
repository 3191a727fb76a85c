//! Deterministic discrete-event simulator of a NUMA machine.
//!
//! The paper's evaluation machine is an 80-core, 8-NUMA-domain Xeon E7;
//! this workspace runs in a container with two dozen cores and no NUMA
//! control, so the figures are regenerated on a simulated machine
//! instead. The simulator executes the *same task graphs* under the *same
//! scheduling policies* as the threaded runtime:
//!
//! * [`wsim`] — work-stealing simulation with per-core colored deques and
//!   the threaded pool's own rules: each core splits releases with the
//!   morphing continuation's [`Batch`](nabbitc_runtime::morph::Batch) and
//!   steals through a [`Thief`](nabbitc_runtime::policy::Thief) (the
//!   K-colored-attempts-then-random loop and the forced first colored
//!   steal). With
//!   [`StealPolicy::nabbit`](nabbitc_runtime::StealPolicy::nabbit) this is
//!   vanilla Nabbit; with
//!   [`StealPolicy::nabbitc`](nabbitc_runtime::StealPolicy::nabbitc) it is
//!   NabbitC.
//! * [`ompsim`] — OpenMP-style loop simulation of the same graphs, one
//!   barrier-separated loop per hop-count level, under the threaded team's
//!   own [`OmpSchedule`]: `static` (even contiguous blocks, stable across
//!   loops — first-touch locality) and `guided` (shrinking chunks off a
//!   shared counter).
//!
//! Time is integer "ticks". A node's execution cost is
//! `node_overhead + work + Σ bytes·(local or remote byte cost)` under the
//! [`CostModel`]; steal checks, batch splits, and barriers also cost ticks.
//! Everything is seeded and deterministic: same inputs → same makespan,
//! same steal counts, same remote-access percentages.

pub mod ompsim;
pub mod result;
pub mod wsim;

pub use nabbitc_cost::CostModel;
pub use nabbitc_runtime::OmpSchedule;
pub use ompsim::simulate_omp;
pub use result::{CoreStats, SimRemote, SimResult};
pub use wsim::{simulate_ws, WsConfig};

use nabbitc_color::Color;
use nabbitc_cost::Topology;
use nabbitc_graph::{NodeId, TaskGraph};
use nabbitc_runtime::ColorDomains;

/// Ticks of node `u` on `core`, bytes priced by their owner's domain;
/// adds the node's §V-B count to `remote`. Both simulators price and
/// count every node through this.
pub(crate) fn node_ticks(
    graph: &TaskGraph,
    u: NodeId,
    core: usize,
    topo: &Topology,
    cost: &CostModel,
    remote: &mut SimRemote,
) -> u64 {
    let preds = graph.predecessors(u).iter().map(|&p| graph.color(p));
    remote.add(topo.count_node(core, graph.color(u), preds));
    let (mut local, mut remote_bytes) = (0u64, 0u64);
    for a in graph.accesses(u) {
        if topo.is_remote(core, a.owner) {
            remote_bytes += a.bytes;
        } else {
            local += a.bytes;
        }
    }
    cost.node_ticks(graph.work(u), local, remote_bytes)
}

/// Simulates `graph` under an alternative coloring — `colors[u]` becomes
/// node `u`'s color *and* its data placement: each node's footprint is
/// re-homed under the edge-traffic model
/// ([`TaskGraph::recolored`]), so a node owns (first-touch
/// initializes) its data but reads its predecessors' outputs from *their*
/// colors' regions. A cross-color dependence edge whose endpoints land in
/// different NUMA domains therefore carries real remote-byte traffic —
/// the same bandwidth term the makespan estimator
/// (`nabbitc_graph::analysis::estimate_makespan_colored_strict_on`) charges, priced
/// by the same [`CostModel`].
///
/// This is the simulator-side entry point for the autocolor subsystem:
/// hand coloring and inferred colorings run through the identical
/// pipeline, so their makespans and remote-access rates are directly
/// comparable. The recoloring is a layer over `graph`
/// ([`TaskGraph::recolored`], which also states what `colors` must be),
/// not a copy of it.
pub fn simulate_ws_recolored(graph: &TaskGraph, colors: &[Color], cfg: &WsConfig) -> SimResult {
    simulate_ws(&graph.recolored(colors), cfg)
}

/// Serial execution time of a graph under a cost model: one core, all data
/// local (the paper's serial baseline is a one-thread run whose
/// initialization also ran on that thread, so every access is local).
pub fn serial_ticks(graph: &TaskGraph, cost: &CostModel) -> u64 {
    graph
        .nodes()
        .map(|u| cost.node_ticks_all_local(graph.work(u), graph.footprint(u)))
        .sum()
}

#[cfg(test)]
mod recolor_tests {
    use super::*;
    use nabbitc_cost::Topology;
    use nabbitc_graph::analysis::estimate_makespan_colored_strict_on;
    use nabbitc_graph::generate;

    /// The makespan estimate of a valid coloring of `p` workers grouped
    /// into domains by `topo`, priced like `cfg`'s simulation.
    fn estimate(g: &TaskGraph, colors: &[Color], p: usize, cfg: &WsConfig, topo: &Topology) -> u64 {
        estimate_makespan_colored_strict_on(g, colors, p, &cfg.cost, topo).expect("valid coloring")
    }

    #[test]
    fn recolored_simulation_is_deterministic_and_complete() {
        let g = generate::iterated_stencil(6, 24, 5, 4);
        let colors: Vec<Color> = g.nodes().map(|u| Color::from(u as usize % 8)).collect();
        let cfg = WsConfig::nabbitc(8);
        let a = simulate_ws_recolored(&g, &colors, &cfg);
        let b = simulate_ws_recolored(&g, &colors, &cfg);
        assert_eq!(a.total_executed(), g.node_count() as u64);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.remote, b.remote);
        // The original graph is untouched.
        assert_eq!(g.color(0), Color(0));
    }

    #[test]
    fn makespan_estimator_ranks_colorings_like_the_simulator() {
        // The cheap list-schedule estimator in nabbitc-graph::analysis is
        // the objective the CpLevelAware assigner optimizes; it is only
        // trustworthy if it orders colorings the same way this simulator
        // does. Row-blocking vs level-blocking on a wavefront is the
        // starkest case: level-blocking serializes the pipeline.
        let g = generate::wavefront(24, 24, 60, 1);
        let p = 8;
        let by_row: Vec<Color> = g
            .nodes()
            .map(|u| Color::from((u as usize / 24) * p / 24))
            .collect();
        let by_level: Vec<Color> = g
            .nodes()
            .map(|u| Color::from(((u as usize / 24 + u as usize % 24) / 6) % p))
            .collect();
        let cfg = WsConfig::nabbitc(p);
        let sim_row = simulate_ws_recolored(&g, &by_row, &cfg).makespan;
        let sim_level = simulate_ws_recolored(&g, &by_level, &cfg).makespan;
        let per_worker = Topology::per_worker(p);
        let est_row = estimate(&g, &by_row, p, &cfg, &per_worker);
        let est_level = estimate(&g, &by_level, p, &cfg, &per_worker);
        assert!(
            sim_row < sim_level,
            "simulator: row {sim_row} !< level {sim_level}"
        );
        assert!(
            est_row < est_level,
            "estimator: row {est_row} !< level {est_level}"
        );
    }

    #[test]
    fn auto_select_pick_holds_up_in_the_simulator() {
        // The meta-assigner trusts the makespan estimator to rank
        // candidates; this is the simulator-side contract that the trust
        // is warranted: on each structural family (wavefront / stencil /
        // irregular dataflow), the coloring AutoSelect picks must
        // *simulate* within tolerance of the best individual portfolio
        // member — picking by estimate must not cost more than 5% of
        // simulated makespan. (The registry workloads get the same check
        // in `tests/makespan_regression.rs` at the workspace root.)
        use nabbitc_autocolor::{AutoSelect, ColorAssigner, CpLevelAware, RecursiveBisection};
        let p = 8;
        let cfg = WsConfig::nabbitc(p);
        for (family, g) in [
            ("wavefront", generate::wavefront(24, 24, 60, 1)),
            ("stencil", generate::iterated_stencil(8, 64, 200, 1)),
            (
                "irregular",
                generate::layered_random(10, 32, 3, (50, 400), 1, 42),
            ),
        ] {
            let (colors, report) = AutoSelect::default().select(&g, p);
            let auto_sim = simulate_ws_recolored(&g, &colors, &cfg).makespan;
            let members: [&dyn ColorAssigner; 2] =
                [&RecursiveBisection::default(), &CpLevelAware::default()];
            let best_sim = members
                .iter()
                .map(|c| simulate_ws_recolored(&g, &c.assign(&g, p), &cfg).makespan)
                .min()
                .expect("nonempty portfolio");
            assert!(
                auto_sim as f64 <= 1.05 * best_sim as f64,
                "{family}: auto ({}) simulated {auto_sim}, best member {best_sim}",
                report.chosen_name()
            );
        }
    }

    #[test]
    fn domain_aware_estimator_matches_the_simulators_domain_pricing() {
        // Two colorings that are pure permutations of each other — same
        // per-worker cut structure, same loads — differ only in how the
        // colors land on NUMA domains. The per-worker estimator is
        // permutation-invariant and cannot separate them; the simulator
        // (which prices accesses through `ColorDomains::domain_of_color`)
        // and the estimator under the same `Topology` must both prefer
        // the domain-friendly labeling.
        let p = 20;
        let g = generate::iterated_stencil(10, p, 2, 1); // memory-bound
        let friendly: Vec<Color> = g.nodes().map(|u| Color::from(u as usize % p)).collect();
        // Interleave the two domains of the truncated paper machine:
        // adjacent blocks always cross the domain boundary.
        let hostile: Vec<Color> = friendly
            .iter()
            .map(|c| Color::from((c.index() % 2) * 10 + c.index() / 2))
            .collect();
        let cfg = WsConfig::nabbitc(p);
        assert_eq!(cfg.topology.domains(), 2);
        let per_worker = Topology::per_worker(p);
        let est_pw_f = estimate(&g, &friendly, p, &cfg, &per_worker);
        let est_pw_h = estimate(&g, &hostile, p, &cfg, &per_worker);
        assert_eq!(
            est_pw_f, est_pw_h,
            "per-worker estimates are permutation-invariant"
        );
        let est_f = estimate(&g, &friendly, p, &cfg, &cfg.topology);
        let est_h = estimate(&g, &hostile, p, &cfg, &cfg.topology);
        let sim_f = simulate_ws_recolored(&g, &friendly, &cfg).makespan;
        let sim_h = simulate_ws_recolored(&g, &hostile, &cfg).makespan;
        assert!(
            sim_f < sim_h,
            "simulator: friendly {sim_f} !< hostile {sim_h}"
        );
        assert!(
            est_f < est_h,
            "estimator: friendly {est_f} !< hostile {est_h}"
        );
    }

    #[test]
    fn recoloring_changes_remote_rate() {
        // Same graph, hand colors (block-aligned) vs a scrambled coloring:
        // the scrambled placement must look worse (or equal) to the
        // simulator on a multi-domain machine.
        let g = generate::iterated_stencil(8, 40, 5, 8);
        let cfg = WsConfig::nabbitc(40);
        let hand: Vec<Color> = g.nodes().map(|u| g.color(u)).collect();
        let scrambled: Vec<Color> = g
            .nodes()
            .map(|u| Color::from((u as usize * 17 + 3) % 40))
            .collect();
        let r_hand = simulate_ws_recolored(&g, &hand, &cfg);
        let r_scrambled = simulate_ws_recolored(&g, &scrambled, &cfg);
        assert!(
            r_scrambled.remote.pct() >= r_hand.remote.pct(),
            "scrambled {} < hand {}",
            r_scrambled.remote.pct(),
            r_hand.remote.pct()
        );
    }
}
