//! Autocolor vs hand coloring: edge-cut, remote-access rate, and makespan
//! for every automatic strategy against the paper's hand (majority)
//! coloring, on the simulated NUMA machine.
//!
//! Each benchmark is rebuilt with its hand coloring *erased*
//! (`registry::build_uncolored`) before the assigners see it, so the
//! automatic strategies work from task structure, work, and footprints
//! alone — exactly what a user without a data-distribution argument would
//! hand us. The hand coloring runs through the identical
//! `simulate_ws_recolored` pipeline, making every column comparable.
//!
//! Read the makespan column with care: edge-cut is necessary but not
//! sufficient. On wavefront shapes (sw) a spatially compact partition can
//! *serialize* the pipeline — the hand row-blocking cuts more edges yet
//! finishes earlier because every diagonal keeps all colors busy. The
//! `lvl-ser` column makes that failure mode visible (weighted-mean max
//! single-color share per dependency level; 1/P is ideal, 1.0 means the
//! levels are serialized), and the `cp-level-aware` strategy optimizes
//! for it. On stencils and block dataflow, lower cut tracks lower remote%
//! and equal or better makespan.
//!
//! The `auto` row is the `AutoSelect` meta-assigner: it should match the
//! best individual strategy of each workload (cp-level-aware on sw,
//! recursive-bisection on heat) — that is its acceptance property. The
//! selection is **domain-aware**: candidates are scored against the same
//! truncated paper topology (8 NUMA domains × 10 workers) the simulator
//! runs, so same-domain cut edges are priced at local bandwidth and the
//! winner is domain-packed before simulation. The per-candidate estimates
//! behind each pick go to stderr.
//!
//! `cargo run -p nabbitc-bench --bin autocolor_vs_hand --release`

use nabbitc_autocolor::{all_strategies, AutoSelect, CandidateOutcome};
use nabbitc_bench::{cost_from_env, f1, f2, scale_from_env, Report};
use nabbitc_color::Color;
use nabbitc_core::report::format_selection;
use nabbitc_cost::Topology;
use nabbitc_graph::analysis::{
    color_balance, edge_cut, edge_cut_fraction, level_profile, level_serialization, LevelProfile,
};
use nabbitc_graph::TaskGraph;
use nabbitc_numasim::{simulate_ws, simulate_ws_recolored, CostModel, WsConfig};
use nabbitc_workloads::{registry, BenchId};

/// Benchmarks covering the three structural families: regular stencil
/// (heat), 2-D wavefront (sw), and irregular power-law dataflow
/// (page-uk-2002).
const BENCHES: [BenchId; 3] = [BenchId::Heat, BenchId::Sw, BenchId::PageUk2002];

/// Core counts: one single-domain and one multi-domain point.
const CORES: [usize; 2] = [20, 40];

#[allow(clippy::too_many_arguments)]
fn row_for(
    rep: &mut Report,
    bench: BenchId,
    p: usize,
    name: &str,
    graph: &TaskGraph,
    profile: &LevelProfile,
    colors: &[Color],
    hand_makespan: u64,
    cost: &CostModel,
) {
    // One coloring layer carries both the metrics and the simulation
    // (the pipeline of `simulate_ws_recolored`).
    let colored = graph.recolored(colors);
    let cut = edge_cut(&colored);
    let cut_pct = 100.0 * edge_cut_fraction(&colored);
    let balance = color_balance(&colored, p).imbalance();
    let lvl_ser = level_serialization(&colored, profile).weighted_mean;
    let cfg = WsConfig {
        cost: cost.clone(),
        ..WsConfig::nabbitc(p)
    };
    let r = simulate_ws(&colored, &cfg);
    rep.row(&[
        bench.name().to_string(),
        p.to_string(),
        name.to_string(),
        cut.to_string(),
        f1(cut_pct),
        f2(balance),
        f2(lvl_ser),
        f1(r.remote.pct_remote()),
        f2(hand_makespan as f64 / r.makespan as f64),
    ]);
}

fn main() {
    let scale = scale_from_env();
    let cost = cost_from_env();
    let mut rep = Report::new(
        "autocolor_vs_hand",
        &format!(
            "Autocolor vs hand coloring (scale {scale:?}, remote ratio {:.1})",
            cost.remote_ratio()
        ),
    );
    rep.line(
        "speedup-vs-hand > 1: the automatic coloring beats the hand coloring; \
         cut% is the fraction of dependence edges crossing colors; lvl-ser is \
         the weighted-mean max single-color share per dependency level (1/P \
         ideal, 1.0 = levels serialized). The auto row selects and \
         domain-packs against the truncated 8x10 paper topology (same-domain \
         cut edges priced at local bandwidth); all rows are one simulator \
         seed — tests/makespan_regression.rs holds the seed-averaged \
         never-worse property.\n",
    );
    rep.header(&[
        "bench",
        "P",
        "strategy",
        "edge-cut",
        "cut%",
        "imbalance",
        "lvl-ser",
        "remote%",
        "speedup-vs-hand",
    ]);

    for id in BENCHES {
        for &p in CORES.iter() {
            let hand = registry::build(id, scale, p);
            let hand_colors: Vec<Color> = hand.graph.nodes().map(|u| hand.graph.color(u)).collect();
            let cfg = WsConfig {
                cost: cost.clone(),
                ..WsConfig::nabbitc(p)
            };
            let hand_result = simulate_ws_recolored(&hand.graph, &hand_colors, &cfg);
            // Levels depend only on structure, which hand and bare share.
            let profile = level_profile(&hand.graph);

            row_for(
                &mut rep,
                id,
                p,
                "hand",
                &hand.graph,
                &profile,
                &hand_colors,
                hand_result.makespan,
                &cost,
            );

            let bare = registry::build_uncolored(id, scale, p);
            for strategy in all_strategies() {
                if strategy.name() == AutoSelect::NAME {
                    continue; // added last, with its selection report
                }
                let colors = strategy.assign(&bare.graph, p);
                row_for(
                    &mut rep,
                    id,
                    p,
                    strategy.name(),
                    &bare.graph,
                    &profile,
                    &colors,
                    hand_result.makespan,
                    &cost,
                );
            }

            // The meta-assigner's row, scored against the same machine
            // the simulator runs (the truncated paper topology), plus
            // the per-candidate estimates behind its pick (stderr, next
            // to the progress line).
            let (auto_colors, selection) = AutoSelect::default()
                .with_cost_model(cost.clone())
                .with_topology(Topology::paper_machine().truncated(p))
                .select(&bare.graph, p);
            // The one-line selection summary (same formatting the unified
            // RunReport prints), before the per-candidate breakdown.
            eprintln!(
                "autocolor_vs_hand: {} P={p} {}",
                id.name(),
                format_selection(&selection)
            );
            if let Some(packed) = selection.packed_estimate {
                eprintln!(
                    "autocolor_vs_hand: {} P={p} domain packing improved the winner (est {packed})",
                    id.name(),
                );
            }
            for ((name, outcome), time) in selection.candidates.iter().zip(&selection.times) {
                let verdict = match outcome {
                    CandidateOutcome::Estimated(e) => format!("est {e}"),
                    CandidateOutcome::Skipped => {
                        "skipped (shape pre-filter or home path)".to_string()
                    }
                    CandidateOutcome::Rejected(err) => format!("rejected: {err}"),
                };
                eprintln!(
                    "autocolor_vs_hand: {} P={p} auto candidate {name}: {verdict} \
                     (assign {:.2?}, score {:.2?}){}",
                    id.name(),
                    time.assign,
                    time.score,
                    if *name == selection.chosen_name() {
                        "  <- chosen"
                    } else {
                        ""
                    }
                );
            }
            row_for(
                &mut rep,
                id,
                p,
                "auto",
                &bare.graph,
                &profile,
                &auto_colors,
                hand_result.makespan,
                &cost,
            );
            eprintln!("autocolor_vs_hand: {} P={p} done", id.name());
        }
    }
    rep.finish().expect("failed to write results");
}
