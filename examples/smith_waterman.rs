//! Smith-Waterman wavefront: the task graph exposes more parallelism than
//! OpenMP's diagonal-barrier version, so both Nabbit and NabbitC edge out
//! OpenMP (§V-A).
//!
//! Run with: `cargo run --release --example smith_waterman`

use nabbitc::prelude::*;
use nabbitc::workloads::sw::{self, SwProblem};
use std::sync::Arc;

fn main() {
    // --- Real alignment ---
    let problem = SwProblem {
        n: 1024,
        m: 768,
        tiles_n: 32,
        tiles_m: 24,
        seed: 11,
    };
    let serial = problem.run_serial();
    let best = SwProblem::best_score(&serial);
    println!(
        "aligned {}x{} (tiles {}x{}), best local score {}",
        problem.n, problem.m, problem.tiles_n, problem.tiles_m, best
    );

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));
    let exec = StaticExecutor::new(pool);
    let t = std::time::Instant::now();
    let par = problem.run_taskgraph(&exec);
    println!("nabbitc ({workers} workers): {:?}", t.elapsed());
    assert_eq!(serial, par, "DP matrices must match exactly");

    // --- Simulated comparison: task graph vs diagonal barriers ---
    println!("\nsimulated 8x10-core machine, sw at reproduction scale:");
    println!(
        "{:>5} {:>14} {:>10} {:>10}",
        "cores", "omp(wavefront)", "nabbit", "nabbitc"
    );
    let shape = sw::shape_sw(4);
    let cost = CostModel::default();
    let serial_ticks = nabbitc::numasim::serial_ticks(&sw::graph_from_shape(&shape, 1), &cost);
    for p in [10usize, 20, 40, 80] {
        let graph = sw::graph_from_shape(&shape, p);
        let topo = Topology::paper_machine().truncated(p);
        let omp = simulate_omp(&graph, OmpSchedule::Static, p, &topo, &cost);
        let nb = simulate_ws(&graph, &WsConfig::nabbit(p));
        let nc = simulate_ws(&graph, &WsConfig::nabbitc(p));
        println!(
            "{:>5} {:>13.1}x {:>9.1}x {:>9.1}x",
            p,
            omp.speedup(serial_ticks),
            nb.speedup(serial_ticks),
            nc.speedup(serial_ticks)
        );
    }
    println!("\n(expected shape: task-graph schedulers beat the barrier wavefront — Fig. 6 sw)");
}
