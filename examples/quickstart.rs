//! Quickstart: build a task graph, color it, execute it under NabbitC, and
//! inspect the locality statistics.
//!
//! Run with: `cargo run --release --example quickstart`

use nabbitc::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn main() {
    // Model a two-phase blocked computation: 8 blocks per phase, each
    // phase-2 block depends on its phase-1 neighborhood. Blocks 0-3 live
    // on worker 0's memory (color 0), blocks 4-7 on worker 1's (color 1).
    let workers = 4;
    let blocks: usize = 32;
    let mut b = GraphBuilder::new();
    for phase in 0..6 {
        for blk in 0..blocks {
            let color = Color::from(blk * workers / blocks);
            let id = b.add_simple_node(1_000, color, 8 * 1024);
            if phase > 0 {
                let prev_base = (phase - 1) * blocks;
                for nb in blk.saturating_sub(1)..=(blk + 1).min(blocks - 1) {
                    b.add_edge((prev_base + nb) as NodeId, id);
                }
            }
        }
    }
    let graph = Arc::new(b.build().expect("acyclic"));

    // Analyze it: the Theorem 1 quantities.
    let a = nabbitc::graph::analysis::analyze(&graph);
    println!(
        "task graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );
    println!(
        "T1 = {}, T_inf = {}, M = {}, max degree = {}, parallelism = {:.1}",
        a.t1, a.t_inf, a.longest_path_nodes, a.max_degree, a.parallelism
    );

    // Execute under NabbitC (colored steals) on a 2-domain machine model.
    let topo = Topology::new(2, 2);
    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers).with_topology(topo)));
    let exec = StaticExecutor::new(pool);
    let executed = Arc::new(AtomicU64::new(0));
    let e2 = executed.clone();
    let report = exec.execute(
        &graph,
        Arc::new(move |_node, _worker| {
            // Your kernel here; we just count.
            e2.fetch_add(1, Ordering::Relaxed);
        }),
    );

    println!(
        "\nexecuted {} nodes in {:?}",
        executed.load(Ordering::Relaxed),
        report.elapsed
    );
    println!(
        "remote accesses (paper §V-B metric): {:.1}% ({} of {})",
        report.remote.pct_remote(),
        report.remote.remote(),
        report.remote.total()
    );
    println!(
        "steals: {} colored + {} random successful",
        report
            .stats
            .workers
            .iter()
            .map(|w| w.colored_steals)
            .sum::<u64>(),
        report
            .stats
            .workers
            .iter()
            .map(|w| w.random_steals)
            .sum::<u64>(),
    );
}
