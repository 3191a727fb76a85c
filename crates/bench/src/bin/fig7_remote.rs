//! Figure 7: percentage of accesses to remote NUMA domains (§V-B metric:
//! executed nodes + their predecessors, at node granularity), 20–80 cores,
//! for Nabbit, NabbitC, and OpenMP-static. We additionally report the
//! *node-only* component (executions outside the home domain), which is
//! the part the scheduler controls.
//!
//! `cargo run -p nabbitc-bench --bin fig7_remote --release`

use nabbitc_bench::{f1, run_strategy, scale_from_env, Report, Strategy, NUMA_CORES};
use nabbitc_workloads::BenchId;

fn main() {
    let scale = scale_from_env();
    let mut rep = Report::new(
        "fig7_remote",
        &format!("Figure 7 — % remote accesses (scale {scale:?})"),
    );
    rep.header(&[
        "benchmark",
        "cores",
        "nabbitc %",
        "nabbit %",
        "omp-static %",
        "nabbitc nodes-only %",
        "nabbit nodes-only %",
    ]);
    for id in BenchId::all() {
        for &p in NUMA_CORES.iter() {
            let nc = run_strategy(id, scale, p, Strategy::NabbitC);
            let nb = run_strategy(id, scale, p, Strategy::Nabbit);
            let os = run_strategy(id, scale, p, Strategy::OmpStatic);
            rep.row(&[
                id.name().to_string(),
                p.to_string(),
                f1(nc.remote.pct_remote()),
                f1(nb.remote.pct_remote()),
                f1(os.remote.pct_remote()),
                f1(nc.remote.pct_nodes()),
                f1(nb.remote.pct_nodes()),
            ]);
        }
        eprintln!("fig7: {} done", id.name());
    }
    rep.finish().expect("failed to write results");
}
