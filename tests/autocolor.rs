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

/// `AutoSelect::default()` on every registry graph whose time steps
/// share homes (Scale::Small), scored per worker and on the truncated
/// paper topology: the coloring stays within `balance_limit`, a coloring
/// chosen over homes gives every node of a home one color, and its
/// estimate is within 5 % of the better full-graph member's (recursive
/// bisection or the level-aware sweep). Prints one row per case and
/// checks the estimates after the last, so the log keeps the whole table
/// of what the home path wins and gives up.
#[test]
fn home_path_is_balanced_constant_per_home_and_near_the_full_graph_members() {
    use nabbitc::autocolor::{AutoSelect, CpLevelAware};
    use nabbitc::graph::analysis::estimate_makespan_colored_strict_on;
    let shared = [
        BenchId::Heat,
        BenchId::Fdtd,
        BenchId::Life,
        BenchId::PageUk2002,
        BenchId::PageTwitter2010,
        BenchId::PageUk2007,
    ];
    let mut over = Vec::new();
    println!(
        "| graph | P | topology | homes | guard | chosen | auto est | best member est | auto / best |"
    );
    for id in shared {
        for p in [2usize, 8, 20, 40] {
            let graph = registry::build_uncolored(id, Scale::Small, p).graph;
            assert!(graph.home_count() < graph.node_count(), "{}", id.name());
            let members = [
                RecursiveBisection::default().assign(&graph, p),
                CpLevelAware::default().assign(&graph, p),
            ];
            let topologies = [
                ("per-worker", Topology::per_worker(p)),
                ("paper", Topology::paper_machine().truncated(p)),
            ];
            for (topo_name, topo) in topologies {
                let (colors, report) = AutoSelect::default()
                    .with_topology(topo.clone())
                    .select(&graph, p);
                let case = format!("{} P={p} {topo_name}", id.name());
                let heaviest = assignment_loads(&graph, &colors, p).into_iter().max();
                assert!(
                    heaviest <= Some(balance_limit(&graph, p)),
                    "{case}: unbalanced"
                );
                if report.homes.is_some() {
                    assert_eq!(report.homes, Some(graph.home_count()), "{case}");
                    let mut per_home = vec![None; graph.home_count()];
                    for u in graph.nodes() {
                        let home_color =
                            per_home[graph.home(u) as usize].get_or_insert(colors[u as usize]);
                        assert_eq!(*home_color, colors[u as usize], "{case}: node {u}");
                    }
                }
                let best = members
                    .iter()
                    .map(|c| {
                        estimate_makespan_colored_strict_on(&graph, c, p, &report.cost, &topo)
                            .expect("members color validly")
                    })
                    .min()
                    .expect("two members");
                let auto = report.chosen_estimate();
                let ratio = auto as f64 / best as f64;
                println!(
                    "| {} | {p} | {topo_name} | {} | {} | {} | {auto} | {best} | {ratio:.3} |",
                    id.name(),
                    report.homes.map_or("-".to_string(), |h| h.to_string()),
                    if report.balance_fallback {
                        "fell back"
                    } else {
                        "settled"
                    },
                    report.chosen_name(),
                );
                if ratio > 1.05 {
                    over.push(format!("{case}: auto {auto} > 1.05 x best member {best}"));
                }
            }
        }
    }
    assert!(over.is_empty(), "{over:#?}");
}
