//! The on-demand executor's node store under the inputs that stress it:
//! color counts from one (every key in one shard group) to more than the
//! store has groups (groups wrap), worker counts from one to well above
//! the color count, and a fan-in where thousands of successors register
//! with one predecessor while it completes.

use nabbitc::graph::{generate, serial, NodeId, TaskGraph};
use nabbitc::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Schedule-sensitive node value: folds the predecessors' *values*, so a
/// node fired early, twice or never changes the result (the fold is a sum,
/// so legal orders agree).
fn node_value(u: NodeId, pred_values: impl Iterator<Item = u64>) -> u64 {
    let seed = (u as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(1);
    pred_values.fold(seed, |acc, v| acc.wrapping_add(v.rotate_left(7)))
}

/// `node_value` of `u` over a shared value vector, stored back into it.
fn fold_into(g: &TaskGraph, vals: &[AtomicU64], u: NodeId) {
    let preds = g.predecessors(u).iter();
    let val = node_value(u, preds.map(|&p| vals[p as usize].load(Ordering::Acquire)));
    vals[u as usize].fetch_add(val, Ordering::Release);
}

fn fresh_values(g: &TaskGraph) -> Arc<Vec<AtomicU64>> {
    Arc::new((0..g.node_count()).map(|_| AtomicU64::new(0)).collect())
}

fn snapshot(vals: &[AtomicU64]) -> Vec<u64> {
    vals.iter().map(|v| v.load(Ordering::SeqCst)).collect()
}

/// The graph behind the on-demand protocol, under its own colors; a
/// virtual root (key = node count) depends on every sink.
struct Replay {
    graph: Arc<TaskGraph>,
    vals: Arc<Vec<AtomicU64>>,
}

impl TaskSpec for Replay {
    type Key = u32;

    fn predecessors(&self, &k: &u32) -> Vec<u32> {
        if k as usize == self.graph.node_count() {
            self.graph.sinks()
        } else {
            self.graph.predecessors(k).to_vec()
        }
    }

    fn color(&self, &k: &u32) -> Color {
        if k as usize == self.graph.node_count() {
            Color(0)
        } else {
            self.graph.color(k)
        }
    }

    fn compute(&self, &k: &u32, _worker: usize) {
        if (k as usize) < self.graph.node_count() {
            fold_into(&self.graph, &self.vals, k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // every case runs 12 pools x 2 executors
        ..ProptestConfig::default()
    })]

    #[test]
    fn static_dynamic_and_serial_agree_for_any_color_and_worker_count(
        layers in 2usize..8,
        width in 1usize..12,
        max_preds in 1usize..4,
        seed in 0u64..1000,
    ) {
        for colors in [1usize, 3, 16, 100] {
            let g = Arc::new(generate::layered_random(
                layers, width, max_preds, (1, 10), colors, seed,
            ));
            let mut reference = vec![0u64; g.node_count()];
            serial::execute(&g, |u| {
                let preds = g.predecessors(u).iter();
                reference[u as usize] = node_value(u, preds.map(|&p| reference[p as usize]));
            });
            for workers in [1usize, 2, 8] {
                let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));

                let vals = fresh_values(&g);
                let (g2, v2) = (g.clone(), vals.clone());
                let report = StaticExecutor::new(pool.clone())
                    .execute(&g, Arc::new(move |u, _w| fold_into(&g2, &v2, u)));
                prop_assert_eq!(report.nodes_executed, g.node_count() as u64);
                prop_assert!(
                    snapshot(&vals) == reference,
                    "static differs from serial: {} colors, {} workers", colors, workers
                );

                let vals = fresh_values(&g);
                let spec = Arc::new(Replay { graph: g.clone(), vals: vals.clone() });
                let report = DynamicExecutor::new(pool, spec).execute(g.node_count() as u32);
                prop_assert_eq!(report.nodes_executed, g.node_count() as u64 + 1);
                prop_assert!(
                    snapshot(&vals) == reference,
                    "dynamic differs from serial: {} colors, {} workers", colors, workers
                );
            }
        }
    }
}

#[test]
fn successors_registering_while_their_predecessor_completes_compute_once() {
    const SUCCESSORS: u32 = 10_000;
    const ROUNDS: usize = 50;
    const PRED: u32 = 0;
    const SINK: u32 = SUCCESSORS + 1;

    /// `SINK` ← 1..=SUCCESSORS ← `PRED`: whichever successor is initialised
    /// first creates the predecessor and goes on to compute it, while the
    /// others' registrations race its completion.
    struct FanIn {
        computed: Vec<AtomicU32>,
    }
    impl TaskSpec for FanIn {
        type Key = u32;
        fn predecessors(&self, &k: &u32) -> Vec<u32> {
            match k {
                PRED => vec![],
                SINK => (1..=SUCCESSORS).collect(),
                _ => vec![PRED],
            }
        }
        fn color(&self, &k: &u32) -> Color {
            Color((k % 4) as u16)
        }
        fn compute(&self, &k: &u32, _worker: usize) {
            if k == PRED {
                // Stay "created, not computed" long enough to collect waiters.
                for _ in 0..20 {
                    std::thread::yield_now();
                }
            }
            self.computed[k as usize].fetch_add(1, Ordering::SeqCst);
        }
    }

    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(4)));
    for round in 0..ROUNDS {
        let spec = Arc::new(FanIn {
            computed: (0..=SINK).map(|_| AtomicU32::new(0)).collect(),
        });
        let report = DynamicExecutor::new(pool.clone(), spec.clone()).execute(SINK);
        assert_eq!(report.nodes_executed, SINK as u64 + 1, "round {round}");
        for (k, c) in spec.computed.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "round {round}: key {k}");
        }
    }
}
