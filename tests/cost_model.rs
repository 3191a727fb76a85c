//! Acceptance tests for the unified bandwidth-aware cost layer
//! (`nabbitc-cost`): the estimator must *rank* colorings the way the NUMA
//! simulator does, and the bandwidth term must fix the documented
//! memory-bound mis-ranking that the old latency-only `cross_penalty`
//! suffered. Runs in both debug and release (CI runs `cargo test` and
//! `cargo test --release`); everything here is deterministic.

use nabbitc::cost::CostModel;
use nabbitc::graph::analysis::estimate_makespan_colored_strict_on;
use nabbitc::graph::{generate, TaskGraph};
use nabbitc::numasim::{simulate_ws_recolored, WsConfig};
use nabbitc::prelude::*;
use proptest::prelude::*;

/// The makespan estimate of a valid coloring under `cost`, every worker its
/// own domain.
fn estimate(g: &TaskGraph, colors: &[Color], workers: usize, cost: &CostModel) -> u64 {
    let topo = Topology::per_worker(workers);
    estimate_makespan_colored_strict_on(g, colors, workers, cost, &topo).expect("valid coloring")
}

/// The makespan estimate of a valid coloring on the machine `cfg` simulates.
fn estimate_on(g: &TaskGraph, colors: &[Color], workers: usize, cfg: &WsConfig) -> u64 {
    estimate_makespan_colored_strict_on(g, colors, workers, &cfg.cost, &cfg.topology)
        .expect("valid coloring")
}

/// A simulator config whose topology gives every worker its own NUMA
/// domain, matching the estimator's worker-granular remote model (the
/// paper machine groups 10 workers per domain, which the O(V+E)
/// estimator deliberately does not model).
fn per_worker_domains(p: usize) -> WsConfig {
    WsConfig {
        topology: Topology::new(p, 1),
        ..WsConfig::nabbitc(p)
    }
}

/// The pre-`nabbitc-cost` estimator, preserved verbatim for the
/// regression test below: cross-worker edges charge a flat `penalty` on
/// the consumer's *ready time* only (latency), nodes cost bare work
/// ticks, and byte footprints are invisible.
fn latency_only_estimate(g: &TaskGraph, colors: &[Color], workers: usize, penalty: u64) -> u64 {
    let worker_of = |c: Color| -> usize {
        if c.is_valid() && c.index() < workers {
            c.index()
        } else {
            workers
        }
    };
    let mut free = vec![0u64; workers + 1];
    let mut finish = vec![0u64; g.node_count()];
    let mut makespan = 0u64;
    for &u in g.topo_order() {
        let w = worker_of(colors[u as usize]);
        let mut ready = 0u64;
        for &p in g.predecessors(u) {
            let mut t = finish[p as usize];
            if worker_of(colors[p as usize]) != w {
                t += penalty;
            }
            ready = ready.max(t);
        }
        let end = ready.max(free[w]) + g.work(u).max(1);
        finish[u as usize] = end;
        free[w] = end;
        makespan = makespan.max(end);
    }
    makespan
}

/// A deterministic pseudo-random valid coloring from a seed.
fn scrambled_colors(g: &TaskGraph, workers: usize, seed: u64) -> Vec<Color> {
    g.nodes()
        .map(|u| {
            let mut x = (u as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
            x ^= x >> 29;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 32;
            Color::from((x % workers as u64) as usize)
        })
        .collect()
}

/// Contiguous id-block coloring.
fn blocked_colors(g: &TaskGraph, workers: usize) -> Vec<Color> {
    let n = g.node_count();
    g.nodes()
        .map(|u| generate::block_color(u as usize, n, workers))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The tentpole acceptance property (the numasim cross-check
    /// generalized): over random graphs and random coloring pairs, the
    /// estimator must order any two colorings the same way the simulator
    /// does, within tolerance — whenever the simulator sees a clear gap
    /// (>= 30%), the estimator must not prefer the simulator's loser by
    /// more than 5%.
    #[test]
    fn estimator_ranks_colorings_like_the_simulator(
        layers in 3usize..8,
        width in 4usize..10,
        max_preds in 1usize..4,
        work_hi in 10u64..300,
        seed in 0u64..10_000,
    ) {
        let p = 6;
        let g = generate::layered_random(layers, width, max_preds, (1, work_hi), 1, seed);
        let cfg = per_worker_domains(p);
        let candidates = [
            blocked_colors(&g, p),
            scrambled_colors(&g, p, seed),
            scrambled_colors(&g, p, seed ^ 0xABCD_EF12),
        ];
        let measured: Vec<(u64, u64)> = candidates
            .iter()
            .map(|colors| {
                (
                    simulate_ws_recolored(&g, colors, &cfg).makespan,
                    estimate(&g, colors, p, &cfg.cost),
                )
            })
            .collect();
        for (i, &(sim_a, est_a)) in measured.iter().enumerate() {
            for &(sim_b, est_b) in measured.iter().skip(i + 1) {
                if (sim_a as f64) * 1.3 < sim_b as f64 {
                    prop_assert!(
                        est_a as f64 <= est_b as f64 * 1.05,
                        "simulator says A << B ({sim_a} vs {sim_b}) but estimator \
                         prefers B ({est_a} vs {est_b})"
                    );
                }
                if (sim_b as f64) * 1.3 < sim_a as f64 {
                    prop_assert!(
                        est_b as f64 <= est_a as f64 * 1.05,
                        "simulator says B << A ({sim_b} vs {sim_a}) but estimator \
                         prefers A ({est_b} vs {est_a})"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Domain-aware rank agreement on the full paper topology (8 NUMA
    /// domains × 10 workers): over random graphs and colorings that
    /// differ in *domain placement* as well as cut structure, the
    /// domain-aware estimator must order colorings the way the 80-core
    /// simulator does — whenever the simulator sees a clear gap (>= 30%),
    /// the estimator must not prefer the simulator's loser by more than
    /// 5%. (The per-worker-domain estimator cannot even express the
    /// difference between the blocked coloring and its domain-interleaved
    /// permutation; see
    /// `per_worker_estimator_misranks_a_same_domain_heavy_coloring`.)
    #[test]
    fn domain_aware_estimator_ranks_like_the_paper_machine_simulator(
        layers in 6usize..10,
        width in 80usize..140,
        max_preds in 1usize..4,
        work_hi in 100u64..400,
        seed in 0u64..10_000,
    ) {
        let p = 80;
        let g = generate::layered_random(layers, width, max_preds, (1, work_hi), 1, seed);
        let cfg = WsConfig::nabbitc(p); // the paper machine, untruncated
        let topo = &cfg.topology;
        prop_assert_eq!((topo.domains(), topo.cores_per_domain()), (8, 10));
        let blocked = blocked_colors(&g, p);
        // The same partition with domains interleaved: color c -> worker
        // (c mod 8)·10 + c/8, a bijection that moves every adjacent color
        // pair into different domains.
        let interleaved: Vec<Color> = blocked
            .iter()
            .map(|c| Color::from((c.index() % 8) * 10 + c.index() / 8))
            .collect();
        let candidates = [blocked, interleaved, scrambled_colors(&g, p, seed)];
        let measured: Vec<(u64, u64)> = candidates
            .iter()
            .map(|colors| {
                (
                    simulate_ws_recolored(&g, colors, &cfg).makespan,
                    estimate_on(&g, colors, p, &cfg),
                )
            })
            .collect();
        for (i, &(sim_a, est_a)) in measured.iter().enumerate() {
            for &(sim_b, est_b) in measured.iter().skip(i + 1) {
                if (sim_a as f64) * 1.3 < sim_b as f64 {
                    prop_assert!(
                        est_a as f64 <= est_b as f64 * 1.05,
                        "simulator says A << B ({sim_a} vs {sim_b}) but estimator \
                         prefers B ({est_a} vs {est_b})"
                    );
                }
                if (sim_b as f64) * 1.3 < sim_a as f64 {
                    prop_assert!(
                        est_b as f64 <= est_a as f64 * 1.05,
                        "simulator says B << A ({sim_b} vs {sim_a}) but estimator \
                         prefers A ({est_b} vs {est_a})"
                    );
                }
            }
        }
    }
}

/// The mis-rank the domain-aware tentpole exists for, pinned as a
/// regression on the full 8×10 paper machine. A memory-bound stencil
/// (160 blocks, 2 per worker) admits two colorings:
///
/// * **fine** — blocks interleaved *within* each NUMA domain (worker
///   `10·d + (b mod 10)`): nearly every block boundary is a cut edge
///   (159 of them), but only the 7 domain boundaries cross domains;
/// * **hostile** — contiguous block pairs per worker, with the color →
///   worker labeling interleaved *across* domains: far fewer cut edges
///   (79), every one of them cross-domain.
///
/// The per-worker-domain estimator (PR 4's scorer) sees only cut bytes,
/// so it strictly prefers `hostile` — a provable mis-rank: the 8×10
/// simulator clearly prefers `fine` (its cuts are domain-local reads),
/// and the domain-aware estimator agrees with the simulator.
#[test]
fn per_worker_estimator_misranks_a_same_domain_heavy_coloring() {
    let p = 80;
    let blocks = 160;
    let bpw = blocks / p; // 2 blocks per worker
    let g = generate::iterated_stencil(30, blocks, 2, 1); // memory-bound
    let fine: Vec<Color> = g
        .nodes()
        .map(|u| {
            let b = u as usize % blocks;
            let domain = b / (10 * bpw);
            Color::from(10 * domain + (b % 10))
        })
        .collect();
    let hostile: Vec<Color> = g
        .nodes()
        .map(|u| {
            let c = (u as usize % blocks) / bpw; // contiguous pairs
            Color::from((c % 8) * 10 + c / 8) // domains interleaved
        })
        .collect();

    // Ground truth: the paper-machine simulator clearly prefers the
    // same-domain-heavy fine coloring.
    let cfg = WsConfig::nabbitc(p);
    let sim_fine = simulate_ws_recolored(&g, &fine, &cfg).makespan;
    let sim_hostile = simulate_ws_recolored(&g, &hostile, &cfg).makespan;
    assert!(
        (sim_fine as f64) * 1.1 < sim_hostile as f64,
        "simulator must clearly prefer fine: {sim_fine} vs {sim_hostile}"
    );

    // The mis-rank this test pins: the per-worker-domain estimator
    // charges fine's intra-domain cuts at the remote premium and strictly
    // prefers the all-remote hostile coloring.
    let est_pw_fine = estimate(&g, &fine, p, &cfg.cost);
    let est_pw_hostile = estimate(&g, &hostile, p, &cfg.cost);
    assert!(
        est_pw_hostile < est_pw_fine,
        "the per-worker mis-ranking this test pins has vanished: \
         hostile {est_pw_hostile} vs fine {est_pw_fine}"
    );

    // The domain-aware estimator prices the same machine the simulator
    // runs and ranks like it, with no calibration.
    let est_fine = estimate_on(&g, &fine, p, &cfg);
    let est_hostile = estimate_on(&g, &hostile, p, &cfg);
    assert!(
        est_fine < est_hostile,
        "domain-aware estimator must prefer fine: {est_fine} vs {est_hostile}"
    );
}

/// The permutation blind spot, pinned separately: two colorings that are
/// pure color permutations of each other have *identical* per-worker
/// estimates (the estimator is permutation-invariant by construction), so
/// PR 4's scorer can never choose the domain-friendly labeling — while
/// the simulator shows a clear gap and the domain-aware estimator ranks
/// it correctly. This is exactly the freedom the `autocolor::pack_domains`
/// post-pass exploits.
#[test]
fn domain_placement_is_invisible_to_the_per_worker_estimator() {
    let p = 80;
    let g = generate::iterated_stencil(20, p, 2, 1); // memory-bound
    let friendly: Vec<Color> = g.nodes().map(|u| Color::from(u as usize % p)).collect();
    let interleaved: Vec<Color> = friendly
        .iter()
        .map(|c| Color::from((c.index() % 8) * 10 + c.index() / 8))
        .collect();
    let cfg = WsConfig::nabbitc(p);
    assert_eq!(
        estimate(&g, &friendly, p, &cfg.cost),
        estimate(&g, &interleaved, p, &cfg.cost),
        "per-worker estimates are permutation-invariant"
    );
    let sim_f = simulate_ws_recolored(&g, &friendly, &cfg).makespan;
    let sim_i = simulate_ws_recolored(&g, &interleaved, &cfg).makespan;
    assert!(
        (sim_f as f64) * 1.05 < sim_i as f64,
        "simulator must clearly prefer the domain-friendly labeling: {sim_f} vs {sim_i}"
    );
    assert!(estimate_on(&g, &friendly, p, &cfg) < estimate_on(&g, &interleaved, p, &cfg));
}

/// The regression the tentpole exists for (ROADMAP's resolved known
/// limit): on a memory-bound stencil — bytes far outweighing work — the
/// old latency-only penalty, once pushed past its documented ~0.5x
/// mean-node-weight calibration ceiling, ranks the byte-scattering
/// coloring *above* the locality-preserving one (latency penalties are
/// absorbed by busy workers, and the model never sees the bytes). The
/// simulator disagrees, and the bandwidth-aware estimator agrees with the
/// simulator with no calibration at all.
#[test]
fn bandwidth_model_fixes_memory_bound_stencil_misranking() {
    let p = 4;
    let blocks = 64;
    // Memory-bound: 1024 bytes per node vs 2 work ticks.
    let g = generate::iterated_stencil(12, blocks, 2, 1);
    // Column-blocked: contiguous stencil blocks per color, cut only at
    // the block boundaries — the locality-preserving hand strategy.
    let blocked: Vec<Color> = g
        .nodes()
        .map(|u| generate::block_color(u as usize % blocks, blocks, p))
        .collect();
    // Scattered: every dependence edge crosses colors; perfectly
    // balanced, maximally remote.
    let scattered: Vec<Color> = g.nodes().map(|u| Color::from(u as usize % p)).collect();

    // Ground truth: the simulator prefers the blocked coloring, clearly.
    let cfg = per_worker_domains(p);
    let sim_blocked = simulate_ws_recolored(&g, &blocked, &cfg).makespan;
    let sim_scattered = simulate_ws_recolored(&g, &scattered, &cfg).makespan;
    assert!(
        (sim_blocked as f64) * 1.2 < sim_scattered as f64,
        "simulator must clearly prefer blocked: {sim_blocked} vs {sim_scattered}"
    );

    // The old latency-only model, miscalibrated past the ceiling the
    // ROADMAP documented (penalty > 0.5x mean node weight): it ranks the
    // all-remote scattering *better*, because scattering keeps every
    // worker's queue dense (latency absorbed) while the blocked
    // coloring's boundary chains stall visibly.
    let mean_weight: u64 = g
        .nodes()
        .map(|u| nabbitc::autocolor::node_weight(&g, u))
        .sum::<u64>()
        / g.node_count() as u64;
    let penalty = 2 * mean_weight; // 4x the documented safe ceiling
    let old_blocked = latency_only_estimate(&g, &blocked, p, penalty);
    let old_scattered = latency_only_estimate(&g, &scattered, p, penalty);
    assert!(
        old_scattered < old_blocked,
        "the latency-only mis-ranking this test pins has vanished: \
         blocked {old_blocked} vs scattered {old_scattered}"
    );

    // The bandwidth-aware model ranks like the simulator, with the
    // default (uncalibrated) cost model.
    let new_blocked = estimate(&g, &blocked, p, &cfg.cost);
    let new_scattered = estimate(&g, &scattered, p, &cfg.cost);
    assert!(
        new_blocked < new_scattered,
        "bandwidth-aware estimator must prefer blocked: {new_blocked} vs {new_scattered}"
    );
}

/// Estimator vs simulator on the real memory-bound stencil workload:
/// `AutoSelect` scoring with the shared model must keep ranking the
/// low-cut bisection above the level-spreader on heat (the pairing the
/// old calibration could invert).
#[test]
fn heat_ranking_survives_without_calibration() {
    use nabbitc::autocolor::{CpLevelAware, RecursiveBisection};
    use nabbitc::workloads::{registry, BenchId, Scale};
    let p = 20;
    let bare = registry::build_uncolored(BenchId::Heat, Scale::Small, p);
    let cost = CostModel::default();
    let rb = RecursiveBisection::default().assign(&bare.graph, p);
    let cp = CpLevelAware::default().assign(&bare.graph, p);
    let est_rb = estimate(&bare.graph, &rb, p, &cost);
    let est_cp = estimate(&bare.graph, &cp, p, &cost);
    assert!(
        est_rb < est_cp,
        "estimator must rank bisection above level-spread on heat: {est_rb} vs {est_cp}"
    );
    let cfg = WsConfig::nabbitc(p);
    let sim_rb = simulate_ws_recolored(&bare.graph, &rb, &cfg).makespan;
    let sim_cp = simulate_ws_recolored(&bare.graph, &cp, &cfg).makespan;
    assert!(
        sim_rb < sim_cp,
        "simulator must agree on heat: {sim_rb} vs {sim_cp}"
    );
}

/// The unified `workers == 0` contract reaches the whole cost-consuming
/// estimator/selection surface (the runtime side was unified in PR 3).
#[test]
fn cost_consumers_share_the_workers_contract() {
    let g = generate::chain(4, 1, 1);
    let colors = vec![Color(0); 4];
    let cost = CostModel::default();
    type Entry<'a> = (&'a str, Box<dyn Fn() + 'a>);
    let entries: Vec<Entry<'_>> = vec![
        (
            "estimate_makespan_colored_strict_on",
            Box::new(|| {
                let topo = Topology::paper_machine();
                let _ = estimate_makespan_colored_strict_on(&g, &colors, 0, &cost, &topo);
            }),
        ),
        (
            "AutoSelect::select",
            Box::new(|| {
                let _ = AutoSelect::default().select(&g, 0);
            }),
        ),
        (
            "CpLevelAware::assign",
            Box::new(|| {
                let _ = CpLevelAware::default().assign(&g, 0);
            }),
        ),
    ];
    for (name, f) in entries {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err(&format!("{name} accepted workers == 0"));
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("need at least one worker"),
            "{name}: wrong panic message: {msg:?}"
        );
    }
}

/// Concrete placement agreement: under the shared edge-traffic model, a
/// split diamond shows remote traffic in the simulator exactly where the
/// estimator charges remote bytes, and a monochrome placement shows none.
#[test]
fn recolored_simulation_and_estimator_price_the_same_placement() {
    // Diamond with fat nodes: 0 -> {1,2} -> 3, 4 KiB per node.
    let mut b = GraphBuilder::new();
    for _ in 0..4 {
        b.add_simple_node(100, Color(0), 4096);
    }
    b.add_edge(0, 1);
    b.add_edge(0, 2);
    b.add_edge(1, 3);
    b.add_edge(2, 3);
    let g = b.build().unwrap();
    let split: Vec<Color> = vec![Color(0), Color(0), Color(1), Color(0)];
    let mono: Vec<Color> = vec![Color(0); 4];
    let cfg = per_worker_domains(2);
    // Splitting one branch pays remote bytes in the simulator; the
    // monochrome placement is all-local.
    assert!(
        simulate_ws_recolored(&g, &split, &cfg).remote.pct() > 0.0,
        "split placement must show remote traffic"
    );
    assert_eq!(
        simulate_ws_recolored(&g, &mono, &cfg).remote.pct(),
        0.0,
        "monochrome placement is all-local"
    );
    // The estimator charges the same cross edges: forcing zero bandwidth
    // premium (remote == local) must strictly lower the split estimate
    // and leave the monochrome estimate untouched.
    let flat = CostModel {
        remote_byte: 1.0,
        ..CostModel::default()
    };
    assert!(
        estimate(&g, &split, 2, &flat) < estimate(&g, &split, 2, &cfg.cost),
        "split estimate must carry a bandwidth term"
    );
    assert_eq!(
        estimate(&g, &mono, 2, &flat),
        estimate(&g, &mono, 2, &cfg.cost),
        "monochrome estimate must be bandwidth-free"
    );
}
