//! Makespan regression gate for the autocolor subsystem.
//!
//! The whole point of `CpLevelAware` is the `sw` wavefront: edge-cut
//! optimization (`RecursiveBisection`) serializes the anti-diagonal
//! pipeline there, while the level-aware objective keeps every diagonal
//! feeding all workers — and the whole point of `AutoSelect` is that
//! nobody has to know which of the two their graph needs. These tests
//! measure what actually matters — simulated makespan through the same
//! `simulate_ws_recolored` pipeline the benchmark harness uses — and pin
//! the current numbers on all three structural families (sw wavefront,
//! heat stencil, page-uk-2002 irregular dataflow) so a future change to
//! an assigner, the selection, the simulator, or a workload cannot
//! silently regress a win (`results/autocolor_vs_hand.md` holds the full
//! table).
//!
//! Everything here is deterministic: same graph + same config ⇒ identical
//! makespan, so the pins are exact ceilings with a small headroom for
//! intentional re-tuning.

use nabbitc::autocolor::{
    AutoSelect, BfsLocality, BlockContiguous, ColorAssigner, CpLevelAware, RecursiveBisection,
};
use nabbitc::numasim::{simulate_ws_recolored, WsConfig};
use nabbitc::prelude::*;
use nabbitc::workloads::registry;
use nabbitc::workloads::{BenchId, Scale};

/// Simulated makespan of the benchmark's own (hand) coloring.
fn hand_makespan(id: BenchId, p: usize) -> u64 {
    let hand = registry::build(id, Scale::Small, p);
    let colors: Vec<Color> = hand.graph.nodes().map(|u| hand.graph.color(u)).collect();
    simulate_ws_recolored(&hand.graph, &colors, &WsConfig::nabbitc(p)).makespan
}

/// Seed-averaged simulated makespan (the harness's 5-seed convention),
/// for comparisons whose margins sit near single-seed scheduling noise.
fn seed_averaged_makespan(g: &nabbitc::graph::TaskGraph, colors: &[Color], p: usize) -> u64 {
    const SEEDS: [u64; 5] = [11, 22, 33, 44, 55];
    let total: u64 = SEEDS
        .iter()
        .map(|&s| {
            let mut cfg = WsConfig::nabbitc(p);
            cfg.seed = s;
            simulate_ws_recolored(g, colors, &cfg).makespan
        })
        .sum();
    total / SEEDS.len() as u64
}

/// Simulated makespan of `assigner`'s coloring of the uncolored build.
fn assigned_makespan(id: BenchId, p: usize, assigner: &dyn ColorAssigner) -> u64 {
    let bare = registry::build_uncolored(id, Scale::Small, p);
    let colors = assigner.assign(&bare.graph, p);
    simulate_ws_recolored(&bare.graph, &colors, &WsConfig::nabbitc(p)).makespan
}

fn sw_makespans(p: usize) -> (u64, u64, u64) {
    (
        hand_makespan(BenchId::Sw, p),
        assigned_makespan(BenchId::Sw, p, &CpLevelAware::default()),
        assigned_makespan(BenchId::Sw, p, &RecursiveBisection::default()),
    )
}

#[test]
fn cp_level_aware_beats_bisection_and_tracks_hand_on_sw() {
    for p in [20usize, 40] {
        let (hand_m, cp_m, rb_m) = sw_makespans(p);
        println!("sw P={p}: hand={hand_m} cp={cp_m} rb={rb_m}");
        assert!(
            cp_m < rb_m,
            "P={p}: cp-level-aware {cp_m} not below recursive-bisection {rb_m}"
        );
        assert!(
            cp_m as f64 <= 1.25 * hand_m as f64,
            "P={p}: cp-level-aware {cp_m} above 1.25x hand {hand_m}"
        );
    }
}

#[test]
fn sw_makespans_pinned() {
    // Current numbers (sw, Scale::Small, default WsConfig seed),
    // re-pinned when the unified bandwidth-aware cost layer landed
    // (`nabbitc-cost`: edge-traffic placement + remote-byte pricing, plus
    // the sw left-border byte annotations). The assertions allow 10%
    // headroom above the recorded value — re-pin deliberately if an
    // intentional change shifts them, never by loosening the factor.
    const PINS: [(usize, u64, u64); 2] = [
        (20, 16_789_936, 24_416_732), // (P, cp, hand)
        (40, 10_172_702, 13_666_340),
    ];
    for (p, cp_pin, hand_pin) in PINS {
        let (hand_m, cp_m, _) = sw_makespans(p);
        println!("sw P={p}: hand={hand_m} cp={cp_m}");
        assert!(
            cp_m <= cp_pin + cp_pin / 10,
            "P={p}: cp-level-aware makespan {cp_m} regressed past pin {cp_pin}"
        );
        assert!(
            hand_m <= hand_pin + hand_pin / 10,
            "P={p}: hand makespan {hand_m} drifted past pin {hand_pin}"
        );
    }
}

#[test]
fn heat_and_pagerank_makespans_pinned() {
    // The other two structural families, re-pinned with the
    // bandwidth-aware cost layer (Scale::Small, default WsConfig seed).
    // Heat is the stencil where `RecursiveBisection` wins (low cut = low
    // remote traffic); pagerank is the irregular dataflow where the
    // level-aware objective wins. Same policy as the sw pins: 10%
    // headroom, re-pin deliberately.
    const PINS: [(BenchId, usize, u64, u64); 4] = [
        // (bench, P, winner pin, hand pin)
        (BenchId::Heat, 20, 12_666_166, 12_740_154),
        (BenchId::Heat, 40, 6_391_976, 6_421_206),
        (BenchId::PageUk2002, 20, 420_401, 423_885),
        (BenchId::PageUk2002, 40, 324_052, 324_551),
    ];
    for (id, p, win_pin, hand_pin) in PINS {
        // The defaults, not hand-copied configs: the pins must track the
        // exact members AutoSelect's portfolio runs, or a default retune
        // would silently decouple them.
        let winner: Box<dyn ColorAssigner> = match id {
            BenchId::Heat => Box::new(RecursiveBisection::default()),
            _ => Box::new(CpLevelAware::default()),
        };
        let win_m = assigned_makespan(id, p, winner.as_ref());
        let hand_m = hand_makespan(id, p);
        println!("{} P={p}: hand={hand_m} winner={win_m}", id.name());
        assert!(
            win_m <= win_pin + win_pin / 10,
            "{} P={p}: winner makespan {win_m} regressed past pin {win_pin}",
            id.name()
        );
        assert!(
            hand_m <= hand_pin + hand_pin / 10,
            "{} P={p}: hand makespan {hand_m} drifted past pin {hand_pin}",
            id.name()
        );
    }
}

#[test]
fn domain_aware_auto_select_never_simulates_worse_than_per_worker_scoring() {
    // The domain-aware acceptance property (ISSUE 5): selecting with the
    // machine the simulator actually runs — the truncated paper topology,
    // where same-domain cut edges are free and the winner is
    // domain-packed — must never cost simulated makespan against the
    // PR 4 per-worker-domain scorer, on any of the three structural
    // families. Makespans are 5-seed averages (the harness convention):
    // the packing pass is a pure color relabeling, and single-seed
    // scheduling noise (~0.2%) would otherwise dominate the comparison.
    for id in [BenchId::Sw, BenchId::Heat, BenchId::PageUk2002] {
        for p in [20usize, 40] {
            let bare = registry::build_uncolored(id, Scale::Small, p);
            let topo = Topology::paper_machine().truncated(p);
            let (pw_colors, _) = AutoSelect::default().select(&bare.graph, p);
            let (dom_colors, dom_report) = AutoSelect::default()
                .with_topology(topo)
                .select(&bare.graph, p);
            let pw_m = seed_averaged_makespan(&bare.graph, &pw_colors, p);
            let dom_m = seed_averaged_makespan(&bare.graph, &dom_colors, p);
            println!(
                "{} P={p}: per-worker auto sim={pw_m}, domain-aware auto ({}) sim={dom_m}{}",
                id.name(),
                dom_report.chosen_name(),
                if dom_report.packed_estimate.is_some() {
                    " [domain-packed]"
                } else {
                    ""
                }
            );
            assert!(
                dom_m <= pw_m,
                "{} P={p}: domain-aware auto simulated {dom_m} worse than \
                 per-worker auto {pw_m}",
                id.name()
            );
        }
    }
}

#[test]
fn auto_select_never_worse_than_best_portfolio_member() {
    // The meta-assigner's acceptance property (ISSUE 3): on every
    // structural family, AutoSelect's *simulated* makespan is within 5%
    // of the best of the four static partitioners' — picking by
    // estimator, from two of them, must not forfeit the per-workload win
    // it exists to capture.
    for id in [BenchId::Sw, BenchId::Heat, BenchId::PageUk2002] {
        for p in [20usize, 40] {
            let sel = AutoSelect::default();
            let bare = registry::build_uncolored(id, Scale::Small, p);
            let (colors, report) = sel.select(&bare.graph, p);
            let auto_m =
                simulate_ws_recolored(&bare.graph, &colors, &WsConfig::nabbitc(p)).makespan;
            // The two portfolio members and, as baselines, the two
            // static heuristics left out of it: named here, not read
            // from `sel.candidates()`, so what auto is compared against
            // does not shrink with the portfolio.
            let four: [Box<dyn ColorAssigner>; 4] = [
                Box::new(RecursiveBisection::default()),
                Box::new(CpLevelAware::default()),
                Box::new(BfsLocality::default()),
                Box::new(BlockContiguous),
            ];
            let best_m = four
                .iter()
                .map(|c| {
                    let m = simulate_ws_recolored(
                        &bare.graph,
                        &c.assign(&bare.graph, p),
                        &WsConfig::nabbitc(p),
                    )
                    .makespan;
                    println!("{} P={p}: {} sim={m}", id.name(), c.name());
                    m
                })
                .min()
                .expect("nonempty portfolio");
            println!(
                "{} P={p}: auto ({}) sim={auto_m}, best member sim={best_m}",
                id.name(),
                report.chosen_name()
            );
            assert!(
                auto_m as f64 <= 1.05 * best_m as f64,
                "{} P={p}: auto ({}) simulated {auto_m} > 1.05x best member {best_m}",
                id.name(),
                report.chosen_name()
            );
        }
    }
}

/// 64-bit FNV-1a over the color vector (two little-endian bytes per
/// node).
fn color_hash(colors: &[Color]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in colors {
        for b in c.0.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn assignments_pinned_bit_for_bit() {
    // The makespan pins above carry headroom, so a changed tie-break in
    // the sweep or the refinement can hide inside it. These pin the
    // assignments themselves (Scale::Small): any change to a single
    // node's color fails here and must be re-pinned on purpose, next to
    // the `results/autocolor_vs_hand.md` rows it moves.
    const UK: BenchId = BenchId::PageUk2002;
    const PINS: [(BenchId, usize, u64, u64); 9] = [
        // (bench, P, CpLevelAware::default(), AutoSelect::default())
        (BenchId::Heat, 2, 0x38fc33812afd9fec, 0x79cad85661051125),
        (BenchId::Heat, 8, 0xcb243c5f6e1fc325, 0xe3d63f5c143c1d25),
        (BenchId::Heat, 20, 0xc8ca400a98847e95, 0x78bd6e25cc82d125),
        (BenchId::Sw, 2, 0x507e83c8e1738ee4, 0x507e83c8e1738ee4),
        (BenchId::Sw, 8, 0xcdb0778436ad8f0b, 0xcdb0778436ad8f0b),
        (BenchId::Sw, 20, 0xb5aa31db68039881, 0xb5aa31db68039881),
        (UK, 2, 0x10f75b934b2b03d4, 0x4a062c1ee1b3e025),
        (UK, 8, 0x72346b40b5b02dea, 0x72346b40b5b02dea),
        (UK, 20, 0x80ebf00eb50768c7, 0x30a95b497a07ef85),
    ];
    for (id, p, cp_pin, auto_pin) in PINS {
        let bare = registry::build_uncolored(id, Scale::Small, p);
        let cp = color_hash(&CpLevelAware::default().assign(&bare.graph, p));
        let auto = color_hash(&AutoSelect::default().assign(&bare.graph, p));
        println!("{} P={p}: cp={cp:#018x} auto={auto:#018x}", id.name());
        assert_eq!(cp, cp_pin, "{} P={p}: cp-level-aware assignment", id.name());
        assert_eq!(auto, auto_pin, "{} P={p}: auto assignment", id.name());
    }
    // AutoSelect scoring (and packing) for the machine the simulator runs.
    const TOPO_PINS: [(BenchId, u64); 3] = [
        (BenchId::Heat, 0x78bd6e25cc82d125),
        (BenchId::Sw, 0x58f219d29e9744eb),
        (UK, 0xf0f3dc0d48b3b725),
    ];
    for (id, pin) in TOPO_PINS {
        let p = 20;
        let bare = registry::build_uncolored(id, Scale::Small, p);
        let topo = Topology::paper_machine().truncated(p);
        let auto = AutoSelect::default()
            .with_topology(topo)
            .assign(&bare.graph, p);
        let auto = color_hash(&auto);
        println!("{} P={p} paper topology: auto={auto:#018x}", id.name());
        assert_eq!(
            auto,
            pin,
            "{} P={p}: domain-aware auto assignment",
            id.name()
        );
    }
}

#[test]
fn recursive_bisection_assignments_pinned_bit_for_bit() {
    // `AutoSelect` picks the bisection only on heat, so the pins above
    // reach it there alone; these pin its own assignment on all three
    // families (Scale::Small).
    const UK: BenchId = BenchId::PageUk2002;
    const PINS: [(BenchId, usize, u64); 9] = [
        (BenchId::Heat, 2, 0x79cad85661051125),
        (BenchId::Heat, 8, 0xe3d63f5c143c1d25),
        (BenchId::Heat, 20, 0x78bd6e25cc82d125),
        (BenchId::Sw, 2, 0x84276da22609a28d),
        (BenchId::Sw, 8, 0x03bc9aa0f502ed55),
        (BenchId::Sw, 20, 0x7ddf2d00688a5b45),
        (UK, 2, 0xf1e4aace3d9d88a5),
        (UK, 8, 0x8a6523d3ba8b8055),
        (UK, 20, 0xb53e4d256697b4b5),
    ];
    for (id, p, pin) in PINS {
        let bare = registry::build_uncolored(id, Scale::Small, p);
        let rb = color_hash(&RecursiveBisection::default().assign(&bare.graph, p));
        println!("{} P={p}: rb={rb:#018x}", id.name());
        assert_eq!(
            rb,
            pin,
            "{} P={p}: recursive-bisection assignment",
            id.name()
        );
    }
}

#[test]
fn pagerank_auto_selection_pinned_bit_for_bit() {
    // The benchmark's `pagerank-auto` input at seed 1: the uk-2007-like
    // web graph, 1050 blocks × 10 iterations, built for two workers with
    // its hand colors stripped. Both members' assignments, the selection
    // and its estimate are pinned. The selection partitions the graph's
    // 1050 block homes, and block-contiguous over them wins.
    use nabbitc::workloads::pagerank::PageRank;
    use nabbitc::workloads::webgraph::{self, WebGraphParams};
    let p = 2;
    let web = webgraph::generate(&WebGraphParams {
        seed: 1,
        ..WebGraphParams::uk2007()
    });
    let pr = PageRank {
        web,
        blocks: 1050,
        iters: 10,
    };
    let mut graph = pr.task_graph(p);
    graph.strip_colors();
    let rb = color_hash(&RecursiveBisection::default().assign(&graph, p));
    let cp = color_hash(&CpLevelAware::default().assign(&graph, p));
    let (colors, report) = AutoSelect::default()
        .with_topology(Topology::per_worker(p))
        .select(&graph, p);
    let auto = color_hash(&colors);
    println!(
        "pagerank-auto: rb={rb:#018x} cp={cp:#018x} auto={auto:#018x} ({}, {})",
        report.chosen_name(),
        report.chosen_estimate()
    );
    assert_eq!(rb, 0x2df4edd9d2eea3dd, "recursive-bisection assignment");
    assert_eq!(cp, 0xdf8bcf49487449dc, "cp-level-aware assignment");
    assert_eq!(auto, 0xac2f4a505491a075, "auto assignment");
    assert_eq!(report.chosen_name(), "block-contiguous");
    assert_eq!(report.homes, Some(1050));
    assert_eq!(report.chosen_estimate(), 233_083_112);
}
