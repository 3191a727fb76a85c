//! Property tests: the assigner invariants must hold on *any* DAG, not
//! just the benchmark shapes. RecursiveBisection in particular must never
//! produce an invalid coloring and never exceed the 2× balance bound, and
//! CpLevelAware must additionally never serialize a wide dependency level
//! (width ≥ workers) onto a single color.

use nabbitc_autocolor::{
    assignment_is_valid, assignment_loads, balance_limit, BfsLocality, ColorAssigner, CpLevelAware,
    RecursiveBisection,
};
use nabbitc_graph::analysis::{level_profile, level_serialization};
use nabbitc_graph::generate;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn bisection_valid_and_2x_balanced_on_random_dags(
        layers in 1usize..10,
        width in 1usize..16,
        max_preds in 1usize..4,
        work_hi in 1u64..400,
        workers in 1usize..12,
        seed in 0u64..10_000,
    ) {
        let g = generate::layered_random(layers, width, max_preds, (1, work_hi), 4, seed);
        let colors = RecursiveBisection::default().assign(&g, workers);
        prop_assert_eq!(colors.len(), g.node_count());
        prop_assert!(assignment_is_valid(&colors, workers));
        let max = assignment_loads(&g, &colors, workers)
            .into_iter()
            .max()
            .expect("workers > 0");
        let limit = balance_limit(&g, workers);
        prop_assert!(
            max <= limit,
            "max color load {} exceeds 2x bound {}",
            max,
            limit
        );
    }

    #[test]
    fn weight_aware_strategies_valid_and_balanced(
        layers in 1usize..8,
        width in 1usize..12,
        work_hi in 1u64..200,
        workers in 1usize..9,
        seed in 0u64..10_000,
    ) {
        let g = generate::layered_random(layers, width, 2, (1, work_hi), 4, seed);
        let limit = balance_limit(&g, workers);
        for s in [&BfsLocality::default() as &dyn ColorAssigner, &CpLevelAware::default()] {
            let colors = s.assign(&g, workers);
            prop_assert!(assignment_is_valid(&colors, workers), "{} invalid", s.name());
            let max = assignment_loads(&g, &colors, workers)
                .into_iter()
                .max()
                .expect("workers > 0");
            prop_assert!(max <= limit, "{} max load {} > {}", s.name(), max, limit);
        }
    }

    #[test]
    fn cp_level_aware_valid_balanced_on_random_dags(
        layers in 1usize..10,
        width in 1usize..16,
        max_preds in 1usize..4,
        work_hi in 1u64..400,
        workers in 1usize..12,
        seed in 0u64..10_000,
    ) {
        let g = generate::layered_random(layers, width, max_preds, (1, work_hi), 4, seed);
        let colors = CpLevelAware::default().assign(&g, workers);
        prop_assert_eq!(colors.len(), g.node_count());
        prop_assert!(assignment_is_valid(&colors, workers));
        let max = assignment_loads(&g, &colors, workers)
            .into_iter()
            .max()
            .expect("workers > 0");
        let limit = balance_limit(&g, workers);
        prop_assert!(
            max <= limit,
            "max color load {} exceeds 2x bound {}",
            max,
            limit
        );
    }

    #[test]
    fn cp_level_aware_never_serializes_a_wide_level(
        layers in 2usize..10,
        width in 2usize..16,
        max_preds in 1usize..4,
        work_hi in 1u64..400,
        workers in 2usize..12,
        seed in 0u64..10_000,
    ) {
        // The property the makespan win rests on: any dependency level
        // wide enough to feed every worker (width ≥ workers) must carry
        // at least two colors. A single-worker machine is excluded —
        // there is only one color to use.
        let g = generate::layered_random(layers, width, max_preds, (1, work_hi), 4, seed);
        let colors = CpLevelAware::default().assign(&g, workers);
        let mut g2 = g.clone();
        g2.recolor(|u, _| colors[u as usize]);
        let profile = level_profile(&g2);
        let ser = level_serialization(&g2, &profile);
        for l in 0..profile.level_count() {
            if profile.widths[l] >= workers {
                prop_assert!(
                    ser.per_level[l] < 1.0,
                    "level {} (width {}, workers {}) fully serialized",
                    l,
                    profile.widths[l],
                    workers
                );
            }
        }
    }
}
