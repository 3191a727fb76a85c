//! Table II: speedup of NabbitC over Nabbit when every task is assigned a
//! *bad* (valid but wrong) color — workers preferentially execute
//! non-local tasks. The paper finds the ratio ≈ 1 within noise: bad
//! coloring loses all locality benefit but costs little beyond it.
//!
//! Each P additionally gets an `auto` row: the same ratio with colors
//! inferred by the `AutoSelect` meta-assigner from the *uncolored* graph.
//! Where bad coloring collapses to ≈ 1, the inferred coloring should
//! recover (most of) the locality benefit — the two rows bracket what
//! coloring quality is worth on each benchmark.
//!
//! `cargo run -p nabbitc-bench --bin table2_bad_coloring --release`

use nabbitc_autocolor::{AutoSelect, ColorAssigner};
use nabbitc_bench::{f2, scale_from_env, Report, NUMA_CORES, SEEDS};
use nabbitc_core::coloring::{apply_coloring, ColoringMode};
use nabbitc_cost::Topology;
use nabbitc_numasim::{simulate_ws, simulate_ws_recolored, WsConfig};
use nabbitc_workloads::{registry, BenchId};

fn main() {
    let scale = scale_from_env();
    let mut rep = Report::new(
        "table2_bad_coloring",
        &format!("Table II — NabbitC(coloring) / Nabbit speedup ratio (scale {scale:?})"),
    );
    rep.line(
        "Ratio > 1: NabbitC under the row's coloring is faster than Nabbit; \
         ≈1 expected for bad colors, > 1 for auto-inferred ones.\n",
    );
    let mut header = vec!["P".to_string(), "coloring".to_string()];
    header.extend(BenchId::all().iter().map(|id| id.name().to_string()));
    rep.header(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());

    for &p in NUMA_CORES.iter() {
        let topo = Topology::paper_machine().truncated(p);
        let mut bad_cells = vec![p.to_string(), "bad".to_string()];
        let mut auto_cells = vec![p.to_string(), "auto".to_string()];
        for id in BenchId::all() {
            let auto_colors = {
                let bare = registry::build_uncolored(id, scale, p);
                AutoSelect::default().assign(&bare.graph, p)
            };
            let mut bad_ratios = Vec::new();
            let mut auto_ratios = Vec::new();
            for &seed in SEEDS.iter().take(3) {
                let built = registry::build(id, scale, p);
                let mut nb_cfg = WsConfig::nabbit(p);
                nb_cfg.seed = seed;
                let nabbit = simulate_ws(&built.graph, &nb_cfg);

                let mut bad_graph = built.graph.clone();
                apply_coloring(&mut bad_graph, ColoringMode::Bad, &topo, p);
                let mut nc_cfg = WsConfig::nabbitc(p);
                nc_cfg.seed = seed;
                let bad = simulate_ws(&bad_graph, &nc_cfg);
                bad_ratios.push(nabbit.makespan as f64 / bad.makespan as f64);

                let auto = simulate_ws_recolored(&built.graph, &auto_colors, &nc_cfg);
                auto_ratios.push(nabbit.makespan as f64 / auto.makespan as f64);
            }
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            bad_cells.push(f2(mean(&bad_ratios)));
            auto_cells.push(f2(mean(&auto_ratios)));
            eprintln!("table2: P={p} {} done", id.name());
        }
        rep.row(&bad_cells);
        rep.row(&auto_cells);
    }
    rep.finish().expect("failed to write results");
}
