//! Differential executor test: for seeded random DAGs × every
//! [`ColorAssigner`], the static executor, the on-demand (dynamic)
//! executor, and the serial reference must compute identical results, and
//! every color the executors observe must be valid for the machine
//! (`< workers`).
//!
//! The per-node computation is schedule-sensitive on purpose: each node
//! folds its predecessors' *values* (not just ids) into its own, so any
//! executor that fires a node before its dependences are done — or under
//! a coloring that confuses the join logic — produces a different final
//! fingerprint with overwhelming probability. The predecessor fold is a
//! sum, so it is independent of the (legal) execution order.

use nabbitc::autocolor::all_strategies;
use nabbitc::graph::{generate, serial, NodeId, TaskGraph};
use nabbitc::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The reference value of a node: a mix of its id and its predecessors'
/// values. Any dependence-respecting schedule produces exactly this.
fn node_value(u: NodeId, pred_values: impl Iterator<Item = u64>) -> u64 {
    let mut acc = (u as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(1);
    for v in pred_values {
        acc = acc.wrapping_add(v.rotate_left(7));
    }
    acc
}

fn serial_values(g: &TaskGraph) -> Vec<u64> {
    let mut vals = vec![0u64; g.node_count()];
    serial::execute(g, |u| {
        vals[u as usize] = node_value(u, g.predecessors(u).iter().map(|&p| vals[p as usize]));
    });
    vals
}

fn static_values(g: &Arc<TaskGraph>, assigner: &dyn ColorAssigner, workers: usize) -> Vec<u64> {
    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));
    let exec = StaticExecutor::new(pool);
    let vals: Arc<Vec<AtomicU64>> =
        Arc::new((0..g.node_count()).map(|_| AtomicU64::new(0)).collect());
    let (v2, g2) = (vals.clone(), g.clone());
    let recolored = Arc::new(autocolor(g, assigner, workers));
    exec.execute(
        &recolored,
        Arc::new(move |u: NodeId, _w: usize| {
            let val = node_value(
                u,
                g2.predecessors(u)
                    .iter()
                    .map(|&p| v2[p as usize].load(Ordering::Acquire)),
            );
            v2[u as usize].store(val, Ordering::Release);
        }),
    );
    // Every color the executor ran under is a real worker's color.
    for u in recolored.nodes() {
        let c = recolored.color(u);
        assert!(
            c.is_valid() && c.index() < workers,
            "static: node {u} observed color {c} with {workers} workers"
        );
    }
    vals.iter().map(|v| v.load(Ordering::SeqCst)).collect()
}

/// A [`TaskSpec`] replaying a static graph through the on-demand executor
/// under a fixed coloring, with a virtual root key (= `node_count`) that
/// depends on every sink so one `execute` drives the whole graph.
struct ReplaySpec {
    graph: Arc<TaskGraph>,
    colors: Vec<Color>,
    vals: Arc<Vec<AtomicU64>>,
}

impl TaskSpec for ReplaySpec {
    type Key = u32;

    fn predecessors(&self, &k: &u32) -> Vec<u32> {
        let n = self.graph.node_count() as u32;
        if k == n {
            self.graph.sinks()
        } else {
            self.graph.predecessors(k).to_vec()
        }
    }

    fn color(&self, &k: &u32) -> Color {
        let n = self.graph.node_count() as u32;
        if k == n {
            Color(0)
        } else {
            self.colors[k as usize]
        }
    }

    fn compute(&self, &k: &u32, _worker: usize) {
        let n = self.graph.node_count() as u32;
        if k == n {
            return; // virtual root
        }
        let val = node_value(
            k,
            self.graph
                .predecessors(k)
                .iter()
                .map(|&p| self.vals[p as usize].load(Ordering::Acquire)),
        );
        self.vals[k as usize].store(val, Ordering::Release);
    }
}

fn dynamic_values(g: &Arc<TaskGraph>, assigner: &dyn ColorAssigner, workers: usize) -> Vec<u64> {
    let colors = assigner.assign(g, workers);
    assert!(
        colors.iter().all(|c| c.is_valid() && c.index() < workers),
        "dynamic: {} produced an out-of-range color",
        assigner.name()
    );
    let vals: Arc<Vec<AtomicU64>> =
        Arc::new((0..g.node_count()).map(|_| AtomicU64::new(0)).collect());
    let spec = Arc::new(ReplaySpec {
        graph: g.clone(),
        colors,
        vals: vals.clone(),
    });
    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));
    let exec = DynamicExecutor::new(pool, spec);
    let report = exec.execute(g.node_count() as u32);
    assert_eq!(report.nodes_executed, g.node_count() as u64 + 1); // + root
    vals.iter().map(|v| v.load(Ordering::SeqCst)).collect()
}

#[test]
fn all_assigners_all_executors_agree_on_random_dags() {
    let workers = 4;
    for seed in [1u64, 7, 42] {
        let g = Arc::new(generate::layered_random(
            6,
            10,
            3,
            (1, 50),
            1, // monochrome input: the assigners provide all colors
            seed,
        ));
        let reference = serial_values(&g);
        for assigner in all_strategies() {
            let st = static_values(&g, assigner.as_ref(), workers);
            assert_eq!(
                st,
                reference,
                "static vs serial mismatch: {} seed {seed}",
                assigner.name()
            );
            let dy = dynamic_values(&g, assigner.as_ref(), workers);
            assert_eq!(
                dy,
                reference,
                "dynamic vs serial mismatch: {} seed {seed}",
                assigner.name()
            );
        }
    }
}

#[test]
fn all_assigners_all_executors_agree_on_a_wavefront() {
    // The shape CpLevelAware exists for; also exercises multi-pred joins.
    let workers = 4;
    let g = Arc::new(generate::wavefront(12, 12, 2, 1));
    let reference = serial_values(&g);
    for assigner in all_strategies() {
        let st = static_values(&g, assigner.as_ref(), workers);
        let dy = dynamic_values(&g, assigner.as_ref(), workers);
        assert_eq!(st, reference, "static: {}", assigner.name());
        assert_eq!(dy, reference, "dynamic: {}", assigner.name());
    }
}

#[test]
fn executors_agree_across_worker_counts() {
    // Colors must stay valid when the machine shrinks or grows.
    let g = Arc::new(generate::layered_random(5, 8, 2, (1, 20), 1, 13));
    let reference = serial_values(&g);
    for workers in [1usize, 2, 7] {
        for assigner in all_strategies() {
            let st = static_values(&g, assigner.as_ref(), workers);
            assert_eq!(st, reference, "{} at p={workers}", assigner.name());
        }
    }
}
