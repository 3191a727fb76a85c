//! PageRank with *inferred* colors: `RecursiveBisection` against the hand
//! (majority) coloring, on a real threaded run and on the simulated NUMA
//! machine.
//!
//! The hand coloring knows which vertex block each task reads; the
//! automatic strategy sees only the uncolored task graph (structure, work,
//! footprints) and must rediscover the block locality from the dependence
//! edges. The example prints both remote-access reports side by side —
//! plus the round-robin baseline, so the cost of coloring *badly* is
//! visible in the same table.
//!
//! Run with: `cargo run --release --example autocolor_pagerank`

use nabbitc::autocolor::{autocolor, RecursiveBisection, RoundRobin};
use nabbitc::core::RemoteAccessReport;
use nabbitc::graph::analysis::{edge_cut, edge_cut_fraction};
use nabbitc::graph::TaskGraph;
use nabbitc::numasim::{simulate_ws_recolored, WsConfig};
use nabbitc::prelude::*;
use nabbitc::workloads::pagerank::PageRank;
use nabbitc::workloads::webgraph::WebGraphParams;
use std::sync::Arc;

fn uncolored(graph: &TaskGraph) -> TaskGraph {
    let mut g = graph.clone();
    g.strip_colors();
    g
}

fn print_row(name: &str, graph: &TaskGraph, report: &RemoteAccessReport, ranks: Option<bool>) {
    println!(
        "{name:>20}: edge-cut {:>6} ({:>5.1}%), remote accesses {:>5.1}%, ranks {}",
        edge_cut(graph),
        100.0 * edge_cut_fraction(graph),
        report.pct_remote(),
        match ranks {
            Some(true) => "match serial",
            Some(false) => "WRONG",
            // Rows driven with a no-op kernel compute no ranks; don't
            // pretend they were checked.
            None => "n/a (placement probe)",
        },
    );
}

fn main() {
    let pr = PageRank::new(
        &WebGraphParams {
            nv: 20_000,
            ..WebGraphParams::uk2002()
        },
        64,
        10,
    );
    println!(
        "pagerank: {} vertices, {} edges, {} blocks x {} iterations, imbalance {:.1}x\n",
        pr.web.nv,
        pr.web.ne(),
        pr.blocks,
        pr.iters,
        pr.imbalance()
    );

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8); // at least two workers, so colors actually compete

    // NUMA-shaped pool so remote accesses are meaningful: two domains.
    let topo = Topology::new(2, workers.div_ceil(2));
    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers).with_topology(topo)));
    let exec = StaticExecutor::new(pool);
    let serial = pr.run_serial();
    let check = |ranks: &[f64]| {
        serial
            .iter()
            .zip(ranks.iter())
            .all(|(a, b)| (a - b).abs() < 1e-12)
    };

    println!("threaded run, {workers} workers on 2 simulated domains:");

    // Hand coloring: the graph as the workload built it.
    let hand = Arc::new(pr.task_graph(workers));
    let (hand_ranks, hand_report) = pr.run_taskgraph(&exec);
    print_row(
        "hand (majority)",
        &hand,
        &hand_report,
        Some(check(&hand_ranks)),
    );

    // Automatic colorings from the uncolored graph.
    let bare = uncolored(&hand);
    for strategy in [
        &RecursiveBisection::default() as &dyn ColorAssigner,
        &RoundRobin,
    ] {
        // A coloring layer over `bare`'s own structure, not a copy of it.
        let recolored = Arc::new(autocolor(&bare, strategy, workers));
        let report = exec.execute(&recolored, Arc::new(|_u, _w| {})).remote;
        print_row(strategy.name(), &recolored, &report, None);
    }

    // Simulated machine: same comparison at paper scale (40 cores).
    println!("\nsimulated 4x10-core machine:");
    let p = 40;
    let graph = pr.task_graph(p);
    let hand_colors: Vec<Color> = graph.nodes().map(|u| graph.color(u)).collect();
    let bare = uncolored(&graph);
    let auto_colors = RecursiveBisection::default().assign(&bare, p);
    let rr_colors = RoundRobin.assign(&bare, p);
    let cfg = WsConfig::nabbitc(p);
    let hand_r = simulate_ws_recolored(&graph, &hand_colors, &cfg);
    let auto_r = simulate_ws_recolored(&bare, &auto_colors, &cfg);
    let rr_r = simulate_ws_recolored(&bare, &rr_colors, &cfg);
    println!(
        "{:>20}: remote {:>5.1}%  makespan {:>9}",
        "hand (majority)",
        hand_r.remote.pct_remote(),
        hand_r.makespan
    );
    println!(
        "{:>20}: remote {:>5.1}%  makespan {:>9} ({:.2}x vs hand)",
        "recursive-bisection",
        auto_r.remote.pct_remote(),
        auto_r.makespan,
        hand_r.makespan as f64 / auto_r.makespan as f64
    );
    println!(
        "{:>20}: remote {:>5.1}%  makespan {:>9} ({:.2}x vs hand)",
        "round-robin",
        rr_r.remote.pct_remote(),
        rr_r.makespan,
        hand_r.makespan as f64 / rr_r.makespan as f64
    );
    println!(
        "\n(expected: bisection rediscovers the block structure — remote% at or \
         below hand's, far below round-robin's)"
    );
}
