//! PageRank: the paper's exemplar *irregular* benchmark, where NabbitC
//! beats both OpenMP schedules by combining locality and load balance.
//!
//! Runs real power iterations on a synthetic power-law web graph (verified
//! against a serial reference), then sweeps the simulated 80-core machine
//! across all four schedulers.
//!
//! Run with: `cargo run --release --example pagerank_irregular`

use nabbitc::prelude::*;
use nabbitc::workloads::pagerank::PageRank;
use nabbitc::workloads::webgraph::WebGraphParams;
use std::sync::Arc;

fn main() {
    // --- Real execution ---
    let pr = PageRank::new(
        &WebGraphParams {
            nv: 20_000,
            avg_deg: 12,
            out_alpha: 1.9,
            target_alpha: 1.9,
            locality: 0.6,
            seed: 42,
        },
        64,
        10,
    );
    println!(
        "web graph: {} vertices, {} edges, max out-degree {}, block imbalance {:.1}x",
        pr.web.nv,
        pr.web.ne(),
        pr.web.max_out_degree(),
        pr.imbalance()
    );

    let serial = pr.run_serial();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));
    let exec = StaticExecutor::new(pool);
    let t = std::time::Instant::now();
    let (par, _) = pr.run_taskgraph(&exec);
    println!(
        "nabbitc ({workers} workers): {:?} for {} power iterations",
        t.elapsed(),
        pr.iters
    );
    let max_err = serial
        .iter()
        .zip(par.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_err < 1e-12, "parallel PageRank must match serial");
    println!("max |rank diff| vs serial: {max_err:.2e}");

    // --- Simulated 80-core sweep (the Fig. 6 page-* panels) ---
    println!("\nsimulated 8x10-core machine, twitter-like dataset:");
    println!(
        "{:>5} {:>10} {:>10} {:>10} {:>10}",
        "cores", "omp-static", "omp-guided", "nabbit", "nabbitc"
    );
    let sim_pr = PageRank::new(
        &WebGraphParams {
            nv: 25_000,
            ..WebGraphParams::twitter2010()
        },
        410,
        10,
    );
    let cost = CostModel::default();
    let serial_ticks = nabbitc::numasim::serial_ticks(&sim_pr.task_graph(1), &cost);
    for p in [10usize, 20, 40, 80] {
        let graph = sim_pr.task_graph(p);
        let topo = Topology::paper_machine().truncated(p);
        let os = simulate_omp(&graph, OmpSchedule::Static, p, &topo, &cost);
        let og = simulate_omp(&graph, OmpSchedule::Guided, p, &topo, &cost);
        let nb = simulate_ws(&graph, &WsConfig::nabbit(p));
        let nc = simulate_ws(&graph, &WsConfig::nabbitc(p));
        println!(
            "{:>5} {:>9.1}x {:>9.1}x {:>9.1}x {:>9.1}x",
            p,
            os.speedup(serial_ticks),
            og.speedup(serial_ticks),
            nb.speedup(serial_ticks),
            nc.speedup(serial_ticks)
        );
    }
    println!("\n(expected shape: NabbitC on top at scale — §V-A, Fig. 6 page panels)");
}
