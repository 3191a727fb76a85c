//! Table III: speedup of NabbitC over Nabbit when every task has an
//! *invalid* color (no worker owns it), so every colored steal attempt
//! fails. Measures the pure overhead of the colored-steal machinery; the
//! paper finds it statistically insignificant (ratios ≈ 1).
//!
//! `cargo run -p nabbitc-bench --bin table3_invalid_coloring --release`

use nabbitc_bench::{f2, scale_from_env, Report, NUMA_CORES, SEEDS};
use nabbitc_core::coloring::{apply_coloring, ColoringMode};
use nabbitc_cost::Topology;
use nabbitc_numasim::{simulate_ws, WsConfig};
use nabbitc_workloads::{registry, BenchId};

fn main() {
    let scale = scale_from_env();
    let mut rep = Report::new(
        "table3_invalid_coloring",
        &format!("Table III — NabbitC(invalid coloring) / Nabbit speedup ratio (scale {scale:?})"),
    );
    rep.line(
        "All colored steals fail; ratio ≈ 1 means the machinery adds no significant overhead.\n",
    );
    let mut header = vec!["P".to_string()];
    header.extend(BenchId::all().iter().map(|id| id.name().to_string()));
    rep.header(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());

    for &p in NUMA_CORES.iter() {
        let topo = Topology::paper_machine().truncated(p);
        let mut cells = vec![p.to_string()];
        for id in BenchId::all() {
            let mut ratios = Vec::new();
            for &seed in SEEDS.iter().take(3) {
                let built = registry::build(id, scale, p);
                let mut nb_cfg = WsConfig::nabbit(p);
                nb_cfg.seed = seed;
                let nabbit = simulate_ws(&built.graph, &nb_cfg);

                let mut inv_graph = built.graph.clone();
                apply_coloring(&mut inv_graph, ColoringMode::Invalid, &topo, p);
                let mut nc_cfg = WsConfig::nabbitc(p);
                nc_cfg.seed = seed;
                // The forced first colored steal can never succeed with
                // invalid colors: every victim that has work is declined.
                // One declined probe is all the evidence that takes (the
                // escape hatch `StealPolicy::first_steal_max_declined`
                // documents), and early in a run, when one core of P holds
                // all the work, finding it once already takes about P
                // probes — so the forcing costs the experiment next to
                // nothing, which is what the table is about.
                nc_cfg.policy.first_steal_max_declined = 1;
                let inv = simulate_ws(&inv_graph, &nc_cfg);

                ratios.push(nabbit.makespan as f64 / inv.makespan as f64);
            }
            let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
            cells.push(f2(mean));
        }
        rep.row(&cells);
        eprintln!("table3: P={p} done");
    }
    rep.finish().expect("failed to write results");
}
