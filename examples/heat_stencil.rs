//! Heat-diffusion stencil: a regular benchmark where static scheduling is
//! hard to beat — NabbitC's job is to get close while staying dynamic.
//!
//! Runs the real kernel under Nabbit and NabbitC policies, verifies both
//! against the serial reference, then shows the simulated 80-core
//! comparison including the OpenMP baselines.
//!
//! Run with: `cargo run --release --example heat_stencil`

use nabbitc::prelude::*;
use nabbitc::workloads::heat::{self, HeatProblem};
use std::sync::Arc;

fn main() {
    // --- Real execution on this machine ---
    let problem = HeatProblem {
        rows: 512,
        cols: 256,
        steps: 10,
        blocks: 64,
    };
    let serial = problem.run_serial();

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    for (name, cfg) in [
        ("nabbit ", PoolConfig::nabbit(workers)),
        ("nabbitc", PoolConfig::nabbitc(workers)),
    ] {
        let pool = Arc::new(Pool::new(cfg));
        let exec = StaticExecutor::new(pool);
        let t = std::time::Instant::now();
        let result = problem.run_taskgraph(&exec);
        let dt = t.elapsed();
        let max_err = serial
            .iter()
            .zip(result.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!("{name} ({workers} workers): {dt:?}, max error vs serial = {max_err:.2e}");
        assert!(max_err < 1e-12, "parallel execution must match serial");
    }

    // --- Simulated 80-core NUMA machine (the paper's testbed) ---
    println!("\nsimulated 8x10-core machine, heat at reproduction scale:");
    println!(
        "{:>5} {:>10} {:>10} {:>10}",
        "cores", "omp-static", "nabbit", "nabbitc"
    );
    let scale = 16; // Table I divided by 16
    let cost = CostModel::default();
    let serial_ticks = nabbitc::numasim::serial_ticks(&heat::graph(scale, 1), &cost);
    for p in [10usize, 20, 40, 80] {
        let graph = heat::graph(scale, p);
        let topo = Topology::paper_machine().truncated(p);
        let omp = simulate_omp(&graph, OmpSchedule::Static, p, &topo, &cost);
        let nb = simulate_ws(&graph, &WsConfig::nabbit(p));
        let nc = simulate_ws(&graph, &WsConfig::nabbitc(p));
        println!(
            "{:>5} {:>9.1}x {:>9.1}x {:>9.1}x",
            p,
            omp.speedup(serial_ticks),
            nb.speedup(serial_ticks),
            nc.speedup(serial_ticks)
        );
    }
    println!("\n(expected shape: omp-static best, NabbitC close, Nabbit trailing — Fig. 6)");
}
