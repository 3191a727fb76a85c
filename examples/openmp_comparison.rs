//! Real threaded three-way comparison on PageRank: the same task graph and
//! node kernel run under NabbitC and as OpenMP-style static and guided
//! loops on a pinned team. Each run is verified against the serial
//! reference and reports its own §V-B remote-access count.
//!
//! Run with: `cargo run --release --example openmp_comparison`

use nabbitc::core::RemoteAccessReport;
use nabbitc::prelude::*;
use nabbitc::workloads::pagerank::PageRank;
use nabbitc::workloads::webgraph::WebGraphParams;
use std::sync::Arc;
use std::time::Instant;

/// Times `run`, checks its ranks against `serial` and prints its report.
fn measure(name: &str, serial: &[f64], run: impl FnOnce() -> (Vec<f64>, RemoteAccessReport)) {
    let t = Instant::now();
    let (ranks, remote) = run();
    let dt = t.elapsed();
    let max_err = serial
        .iter()
        .zip(ranks.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_err < 1e-12, "{name} diverged from serial: {max_err}");
    println!(
        "{name:<10} : {dt:>10.2?}   remote {:>5.1}% of {} accesses (nodes {:>5.1}%)",
        remote.pct_remote(),
        remote.total(),
        remote.pct_nodes(),
    );
}

fn main() {
    let pr = PageRank::new(
        &WebGraphParams {
            nv: 30_000,
            avg_deg: 12,
            out_alpha: 1.9,
            target_alpha: 1.9,
            locality: 0.8,
            seed: 77,
        },
        96,
        8,
    );
    println!(
        "PageRank: {} vertices, {} edges, block imbalance {:.1}x\n",
        pr.web.nv,
        pr.web.ne(),
        pr.imbalance()
    );
    let serial = pr.run_serial();

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let topo = Topology::new(2, workers.div_ceil(2));

    let pool = Arc::new(Pool::new(
        PoolConfig::nabbitc(workers).with_topology(topo.clone()),
    ));
    let exec = StaticExecutor::new(pool);
    measure("nabbitc", &serial, || pr.run_taskgraph(&exec));

    let team = Team::new(workers, topo);
    for schedule in [OmpSchedule::Static, OmpSchedule::Guided] {
        measure(schedule.name(), &serial, || {
            pr.run_taskgraph(&(&team, schedule))
        });
    }

    println!("\nAll three agree with the serial reference (within 1e-12).");
    println!("The paper's story: static = locality but poor balance on skewed blocks;");
    println!("guided = balance but no locality; NabbitC = both, via colored steals.");
}
