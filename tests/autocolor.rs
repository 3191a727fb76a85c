//! Cross-layer acceptance tests for the autocolor subsystem, on the
//! seed's own benchmark graphs: the strategies must be valid everywhere,
//! and `RecursiveBisection` must achieve a lower cross-color edge-cut than
//! `RoundRobin` on the stencil and PageRank families.

use nabbitc::autocolor::{
    all_strategies, apply_assignment, assignment_is_valid, assignment_loads, balance_limit,
    ColorAssigner, RecursiveBisection, RoundRobin,
};
use nabbitc::graph::analysis::edge_cut;
use nabbitc::graph::TaskGraph;
use nabbitc::numasim::{simulate_ws_recolored, WsConfig};
use nabbitc::prelude::*;
use nabbitc::workloads::registry;
use nabbitc::workloads::{BenchId, Scale};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn cut_under(graph: &TaskGraph, assigner: &dyn ColorAssigner, p: usize) -> usize {
    let colors = assigner.assign(graph, p);
    assert!(assignment_is_valid(&colors, p), "{}", assigner.name());
    let mut g = graph.clone();
    apply_assignment(&mut g, &colors);
    edge_cut(&g)
}

#[test]
fn bisection_beats_round_robin_on_stencil_graph() {
    for p in [8usize, 20] {
        let bare = registry::build_uncolored(BenchId::Heat, Scale::Small, p);
        let bisect = cut_under(&bare.graph, &RecursiveBisection::default(), p);
        let rr = cut_under(&bare.graph, &RoundRobin, p);
        assert!(
            bisect < rr,
            "heat P={p}: bisection cut {bisect} not below round-robin {rr}"
        );
    }
}

#[test]
fn bisection_beats_round_robin_on_pagerank_graph() {
    for p in [8usize, 20] {
        let bare = registry::build_uncolored(BenchId::PageUk2002, Scale::Small, p);
        let bisect = cut_under(&bare.graph, &RecursiveBisection::default(), p);
        let rr = cut_under(&bare.graph, &RoundRobin, p);
        assert!(
            bisect < rr,
            "page-uk-2002 P={p}: bisection cut {bisect} not below round-robin {rr}"
        );
    }
}

#[test]
fn all_strategies_valid_on_every_benchmark() {
    let p = 8;
    for id in BenchId::all() {
        let bare = registry::build_uncolored(id, Scale::Small, p);
        for s in all_strategies() {
            let colors = s.assign(&bare.graph, p);
            assert!(
                assignment_is_valid(&colors, p),
                "{} invalid on {}",
                s.name(),
                id.name()
            );
        }
    }
}

#[test]
fn autocolored_simulation_executes_everything_and_prices_placement() {
    let p = 20;
    let bare = registry::build_uncolored(BenchId::Heat, Scale::Small, p);
    let colors = RecursiveBisection::default().assign(&bare.graph, p);
    let auto = simulate_ws_recolored(&bare.graph, &colors, &WsConfig::nabbitc(p));
    assert_eq!(auto.total_executed(), bare.graph.node_count() as u64);

    // Hand coloring through the same pipeline, for a sane comparison: the
    // bisection coloring must be in the same locality league as hand
    // (within 5 percentage points of remote accesses on the stencil).
    let hand = registry::build(BenchId::Heat, Scale::Small, p);
    let hand_colors: Vec<Color> = hand.graph.nodes().map(|u| hand.graph.color(u)).collect();
    let hand_r = simulate_ws_recolored(&hand.graph, &hand_colors, &WsConfig::nabbitc(p));
    assert!(
        auto.remote.pct() <= hand_r.remote.pct() + 5.0,
        "auto remote {}% way above hand {}%",
        auto.remote.pct(),
        hand_r.remote.pct()
    );
}

#[test]
fn threaded_executor_runs_autocolored_benchmark_graph() {
    let p = 4;
    let bare = registry::build_uncolored(BenchId::Life, Scale::Small, p);
    let graph = Arc::new(bare.graph);
    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(p)));
    let exec = StaticExecutor::new(pool);
    let counts: Arc<Vec<AtomicU32>> =
        Arc::new((0..graph.node_count()).map(|_| AtomicU32::new(0)).collect());
    let c2 = counts.clone();
    let recolored = Arc::new(autocolor(&graph, &RecursiveBisection::default(), p));
    let report = exec.execute(
        &recolored,
        Arc::new(move |u, _w| {
            c2[u as usize].fetch_add(1, Ordering::SeqCst);
        }),
    );
    assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    assert!(report.remote.total() > 0);
    // The assigner's actual contract: max color load (in node-weight
    // terms) within the 2x greedy bound.
    let colors: Vec<Color> = recolored.nodes().map(|u| recolored.color(u)).collect();
    let max = *assignment_loads(&recolored, &colors, p)
        .iter()
        .max()
        .expect("p > 0");
    let limit = balance_limit(&recolored, p);
    assert!(max <= limit, "max color load {max} exceeds bound {limit}");
}
