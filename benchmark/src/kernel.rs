//! The benchmark's node kernel: a spin loop that sets the grain, then a
//! dataflow checksum that makes the schedule observable.
//!
//! Node `u` spins `ticks[u]` wrapping multiplies and stores
//! `val[u] = mix(u, val[u], val[pred₀], val[pred₁], …)`. `val[]` is zeroed
//! before every operation, so after a correct run it equals the vector the
//! serial topological walk produces. A node that did not run leaves a zero,
//! a node that ran twice folds its own first result in, and a node that ran
//! before a predecessor folds in that predecessor's zero: each changes the
//! vector, which [`Kernel::verify`] compares after every operation.
//!
//! The stores are relaxed: the executor's join-counter decrement (AcqRel)
//! orders a predecessor's store before its successor's load, and that
//! ordering is part of what the comparison checks.

use nabbitc_graph::{NodeId, TaskGraph};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// `ticks` dependent wrapping multiply-adds (the legacy harness's `spin`).
#[inline]
pub fn spin(ticks: u64) {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..ticks {
        x = black_box(
            x.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        );
    }
    black_box(x);
}

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v)
        .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
        .rotate_left(29)
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
}

/// A counter on its own cache lines, so per-worker counters do not share.
#[repr(align(128))]
#[derive(Default)]
struct Padded(AtomicU64);

/// Kernel state for one graph: grain per node and the checksum vector.
pub struct Kernel {
    graph: Arc<TaskGraph>,
    ticks: Vec<u64>,
    val: Vec<AtomicU64>,
    /// The serial walk's checksum vector, set by the first
    /// [`serial_walk`](Self::serial_walk).
    expected: OnceLock<Vec<u64>>,
    /// Per-worker time inside [`run_node`](Self::run_node), filled only by
    /// [`run_node_timed`](Self::run_node_timed).
    kernel_ns: Vec<Padded>,
}

impl Kernel {
    /// `ticks[u]` is node `u`'s spin count; `workers` sizes the per-worker
    /// kernel-time counters.
    pub fn new(graph: Arc<TaskGraph>, ticks: Vec<u64>, workers: usize) -> Self {
        assert_eq!(ticks.len(), graph.node_count(), "one grain per node");
        Kernel {
            val: (0..graph.node_count()).map(|_| AtomicU64::new(0)).collect(),
            kernel_ns: (0..workers).map(|_| Padded::default()).collect(),
            expected: OnceLock::new(),
            graph,
            ticks,
        }
    }

    /// Zeroes the checksum vector and the kernel-time counters.
    pub fn reset(&self) {
        for v in &self.val {
            v.store(0, Relaxed);
        }
        for c in &self.kernel_ns {
            c.0.store(0, Relaxed);
        }
    }

    /// The node body.
    #[inline]
    pub fn run_node(&self, u: NodeId) {
        spin(self.ticks[u as usize]);
        self.checksum(u);
    }

    /// The checksum step alone (the "empty kernel" of the per-node overhead
    /// measurements still verifies the schedule).
    #[inline]
    pub fn checksum(&self, u: NodeId) {
        let own = &self.val[u as usize];
        let mut h = mix(u64::from(u) + 1, own.load(Relaxed));
        for &p in self.graph.predecessors(u) {
            h = mix(h, self.val[p as usize].load(Relaxed));
        }
        // Never zero, so "did not run" cannot look like a result.
        own.store(h | 1, Relaxed);
    }

    /// [`run_node`](Self::run_node) with two clock reads around it, added
    /// to `worker`'s counter. Traced runs only.
    #[inline]
    pub fn run_node_timed(&self, u: NodeId, worker: usize) {
        let started = Instant::now();
        self.run_node(u);
        let ns = started.elapsed().as_nanos() as u64;
        // Single writer per counter: a plain add would do, but the counter
        // is read from another thread after the run.
        self.kernel_ns[worker].0.fetch_add(ns, Relaxed);
    }

    /// Sum of the per-worker kernel times since the last reset.
    pub fn kernel_time(&self) -> Duration {
        Duration::from_nanos(self.kernel_ns.iter().map(|c| c.0.load(Relaxed)).sum())
    }

    /// Whether the checksum vector equals the serial walk's. Panics if no
    /// serial walk has run yet (a bug in the benchmark, not in the program).
    pub fn verify(&self) -> bool {
        let expected = self
            .expected
            .get()
            .expect("verify() before the first serial_walk()");
        self.val
            .iter()
            .zip(expected)
            .all(|(v, e)| v.load(Relaxed) == *e)
    }

    /// The serial baseline: resets, then walks the topological order on the
    /// calling thread. Returns the walk's wall time. The first walk's
    /// checksum vector becomes the reference every operation is compared
    /// with, so it must use a node body that computes the checksum.
    pub fn serial_walk(&self, node: impl Fn(&Kernel, NodeId)) -> Duration {
        self.reset();
        let started = Instant::now();
        for &u in self.graph.topo_order() {
            node(self, u);
        }
        let elapsed = started.elapsed();
        self.expected
            .get_or_init(|| self.val.iter().map(|v| v.load(Relaxed)).collect());
        elapsed
    }
}

/// Spin count per node: `work(u) × num ÷ den`.
pub fn ticks_for(graph: &TaskGraph, (num, den): (u64, u64)) -> Vec<u64> {
    graph.nodes().map(|u| graph.work(u) * num / den).collect()
}

/// A stable hash of a graph's structure, work and colors (FNV-1a), for the
/// seed-reproducibility check and the results file.
pub fn graph_hash(graph: &TaskGraph) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(graph.node_count() as u64);
    for u in graph.nodes() {
        eat(graph.work(u));
        eat(u64::from(graph.color(u).0));
        eat(graph.predecessors(u).len() as u64);
        for &p in graph.predecessors(u) {
            eat(u64::from(p));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_graph::generate;

    fn kernel() -> Kernel {
        let g = Arc::new(generate::wavefront(6, 6, 3, 2));
        let ticks = ticks_for(&g, (1, 1));
        Kernel::new(g, ticks, 1)
    }

    #[test]
    fn serial_walk_is_reproducible_and_nonzero() {
        let k = kernel();
        k.serial_walk(Kernel::run_node);
        assert!(k.val.iter().all(|v| v.load(Relaxed) != 0));
        k.serial_walk(Kernel::run_node);
        assert!(k.verify());
        k.reset();
        assert!(!k.verify(), "a node that did not run is a mismatch");
    }

    #[test]
    fn a_second_execution_of_a_node_changes_the_vector() {
        let k = kernel();
        k.serial_walk(Kernel::run_node);
        k.run_node(7);
        assert!(!k.verify());
    }

    #[test]
    fn checksum_only_kernel_gives_the_same_vector_as_the_spinning_one() {
        let k = kernel();
        k.serial_walk(Kernel::run_node);
        k.serial_walk(Kernel::checksum);
        assert!(k.verify());
    }

    #[test]
    fn timed_kernel_accumulates_per_worker_time() {
        let k = kernel();
        k.serial_walk(|k, u| k.run_node_timed(u, 0));
        assert!(k.kernel_time() > Duration::ZERO);
        k.reset();
        assert_eq!(k.kernel_time(), Duration::ZERO);
    }

    #[test]
    fn graph_hash_sees_colors_and_edges() {
        let a = generate::wavefront(5, 5, 1, 2);
        let b = generate::wavefront(5, 5, 1, 3);
        assert_eq!(graph_hash(&a), graph_hash(&generate::wavefront(5, 5, 1, 2)));
        assert_ne!(graph_hash(&a), graph_hash(&b));
    }
}
