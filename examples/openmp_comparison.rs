//! Real threaded three-way comparison on PageRank: task-graph NabbitC vs
//! OpenMP-style static and guided loop teams, all verified against the
//! serial reference and compared on the §V-B locality metric plus
//! load-balance (trace utilization).
//!
//! Run with: `cargo run --release --example openmp_comparison`

use nabbitc::core::{ExecOptions, StaticExecutor};
use nabbitc::parfor::{Schedule, Team};
use nabbitc::prelude::*;
use nabbitc::workloads::omp::pagerank_parfor;
use nabbitc::workloads::pagerank::PageRank;
use nabbitc::workloads::webgraph::WebGraphParams;
use std::sync::Arc;
use std::time::Instant;

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
    let check = |name: &str, result: &[f64]| {
        let max_err = serial
            .iter()
            .zip(result.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-12, "{name} diverged from serial: {max_err}");
    };

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let topo = Topology::new(2, workers.div_ceil(2));

    // Task-graph NabbitC with trace recording for load-balance analysis.
    let pool = Arc::new(Pool::new(
        PoolConfig::nabbitc(workers).with_topology(topo.clone()),
    ));
    let exec = StaticExecutor::new(pool).with_options(ExecOptions {
        record_trace: true,
        count_remote: true,
        ..ExecOptions::default()
    });
    let t = Instant::now();
    let ranks = pr.run_taskgraph(&exec);
    let dt = t.elapsed();
    check("nabbitc", &ranks);
    // Re-run through execute() to grab a report (run_taskgraph consumed it).
    let graph = Arc::new(pr.task_graph(workers));
    let report = exec.execute(&graph, Arc::new(|_u, _w| {}));
    let util = report.trace.utilization();
    println!(
        "nabbitc      : {dt:?}   remote {:>5.1}%   load imbalance {:.2}x",
        report.remote.pct_remote(),
        util.imbalance()
    );

    // OpenMP-style loops on a pinned team.
    let team = Team::new(workers, topo);
    for (name, sched) in [
        ("omp-static ", Schedule::Static),
        ("omp-guided ", Schedule::guided()),
    ] {
        let t = Instant::now();
        let run = pagerank_parfor(&pr, &team, sched);
        let dt = t.elapsed();
        check(name, &run.result);
        println!(
            "{name} : {dt:?}   remote {:>5.1}% (block executions)",
            run.remote.pct_remote()
        );
    }

    println!("\nAll three agree with the serial reference bit-for-bit.");
    println!("The paper's story: static = locality but poor balance on skewed blocks;");
    println!("guided = balance but no locality; NabbitC = both, via colored steals.");
}
