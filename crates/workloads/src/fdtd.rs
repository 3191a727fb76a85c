//! Finite-difference time domain (Table I: `fdtd`).
//!
//! 1-D staggered-grid FDTD: per timestep, an E-field update phase then an
//! H-field update phase (Yee scheme). The task graph alternates E and H
//! block rows; the paper's instance has 102 400 nodes (5 iterations ×
//! 20480 blocks; here each timestep contributes E and H rows so blocks
//! count is half per phase).

use crate::util::{block_owner, block_range, SharedBuffer};
use nabbitc_color::Color;
use nabbitc_core::StaticExecutor;
use nabbitc_graph::{GraphBuilder, NodeAccess, NodeId, TaskGraph};
use std::sync::Arc;

/// FDTD shape: `steps` timesteps × `blocks` blocks × 2 phases (E, H).
#[derive(Clone, Copy, Debug)]
pub struct FdtdShape {
    /// Timesteps.
    pub steps: usize,
    /// Blocks per phase.
    pub blocks: usize,
    /// Work per block per phase.
    pub work: u64,
    /// Own-block bytes per phase.
    pub block_bytes: u64,
    /// Halo bytes to one neighbor.
    pub halo_bytes: u64,
}

impl FdtdShape {
    /// Total nodes: `2 × steps × blocks`.
    pub fn nodes(&self) -> usize {
        2 * self.steps * self.blocks
    }
}

/// Simulator shape at a scale divisor (1 = the paper's 102 400 nodes:
/// 5 steps × 10240 blocks × 2 phases).
pub fn shape(scale_div: usize) -> FdtdShape {
    let blocks = (10240 / scale_div.max(1)).max(8);
    FdtdShape {
        steps: 5,
        blocks,
        work: 2_500,
        block_bytes: 48 * 1024, // fdtd reads E and H: heavier than heat
        halo_bytes: 2 * 1024,
    }
}

fn accesses(
    shape: &FdtdShape,
    b: usize,
    p: usize,
    halo_left: bool,
) -> impl Iterator<Item = NodeAccess> {
    let region = |q: usize, bytes: u64| NodeAccess {
        owner: Color::from(block_owner(q, shape.blocks, p)),
        bytes,
    };
    let nb = if halo_left {
        b.checked_sub(1)
    } else {
        (b + 1 < shape.blocks).then_some(b + 1)
    };
    let halo = nb.map(|nb| region(nb, shape.halo_bytes));
    [Some(region(b, shape.block_bytes)), halo]
        .into_iter()
        .flatten()
}

/// Task graph: phase nodes `E(t,b)` at layer `2t`, `H(t,b)` at `2t+1`.
/// `E(t,b)` reads `H(t-1, b-1..=b)`; `H(t,b)` reads `E(t, b..=b+1)`.
/// `E(0,b)` and `H(0,b)` are the homes of block `b`'s E and H nodes at
/// every later step.
pub fn graph_from_shape(shape: &FdtdShape, p: usize) -> TaskGraph {
    let blocks = shape.blocks;
    let mut gb = GraphBuilder::with_capacity(shape.nodes(), shape.nodes() * 2);
    let id = |layer: usize, b: usize| (layer * blocks + b) as NodeId;
    for t in 0..shape.steps {
        for field in 0..2 {
            for b in 0..blocks {
                let own = Color::from(block_owner(b, blocks, p));
                if t == 0 {
                    gb.add_node(shape.work, own, accesses(shape, b, p, field == 0));
                } else {
                    gb.add_node_at(shape.work, own, id(field, b));
                }
            }
        }
    }
    for t in 0..shape.steps {
        let e_layer = 2 * t;
        let h_layer = 2 * t + 1;
        for b in 0..blocks {
            // H(t,b) <- E(t, b), E(t, b+1)
            gb.add_edge(id(e_layer, b), id(h_layer, b));
            if b + 1 < blocks {
                gb.add_edge(id(e_layer, b + 1), id(h_layer, b));
            }
            // E(t+1? ) handled below for t>=1: E(t,b) <- H(t-1, b-1), H(t-1, b)
            if t > 0 {
                let prev_h = 2 * (t - 1) + 1;
                gb.add_edge(id(prev_h, b), id(e_layer, b));
                if b > 0 {
                    gb.add_edge(id(prev_h, b - 1), id(e_layer, b));
                }
            }
        }
    }
    gb.build().expect("fdtd graph is acyclic")
}

/// Task graph for `p` workers at a scale divisor.
pub fn graph(scale_div: usize, p: usize) -> TaskGraph {
    graph_from_shape(&shape(scale_div), p)
}

/// A real, runnable 1-D FDTD instance.
pub struct FdtdProblem {
    /// Grid points.
    pub n: usize,
    /// Timesteps.
    pub steps: usize,
    /// Blocks.
    pub blocks: usize,
}

impl FdtdProblem {
    /// Small instance for tests/examples.
    pub fn small() -> Self {
        FdtdProblem {
            n: 4096,
            steps: 10,
            blocks: 16,
        }
    }

    fn init_e(&self) -> Vec<f64> {
        // Gaussian pulse in the middle.
        let n = self.n as f64;
        (0..self.n)
            .map(|i| {
                let x = (i as f64 - n / 2.0) / (n / 20.0);
                (-x * x).exp()
            })
            .collect()
    }

    /// Serial reference: returns final (e, h).
    pub fn run_serial(&self) -> (Vec<f64>, Vec<f64>) {
        let mut e = self.init_e();
        let mut h = vec![0.0f64; self.n];
        const C: f64 = 0.5;
        for _ in 0..self.steps {
            for i in 1..self.n {
                e[i] += C * (h[i] - h[i - 1]);
            }
            for i in 0..self.n - 1 {
                h[i] += C * (e[i + 1] - e[i]);
            }
        }
        (e, h)
    }

    /// Task-graph execution; returns final (e, h).
    pub fn run_taskgraph(&self, exec: &StaticExecutor) -> (Vec<f64>, Vec<f64>) {
        let p = exec.pool().workers();
        let s = FdtdShape {
            steps: self.steps,
            blocks: self.blocks,
            work: (self.n / self.blocks) as u64,
            block_bytes: (self.n / self.blocks * 16) as u64,
            halo_bytes: 16,
        };
        let graph = Arc::new(graph_from_shape(&s, p));
        let (n, blocks) = (self.n, self.blocks);

        let e = Arc::new(SharedBuffer::from_vec(self.init_e()));
        let h = Arc::new(SharedBuffer::new(n, 0.0f64));
        const C: f64 = 0.5;

        let e2 = e.clone();
        let h2 = h.clone();
        exec.execute(
            &graph,
            Arc::new(move |u: NodeId, _w: usize| {
                let layer = u as usize / blocks;
                let b = u as usize % blocks;
                let range = block_range(n, blocks, b);
                // SAFETY: E nodes write disjoint E ranges and read H
                // written in the previous layer (ordered by edges);
                // symmetrically for H nodes.
                unsafe {
                    if layer.is_multiple_of(2) {
                        // E update over [max(1,lo), hi); halo reads of h go
                        // through raw pointers (writers ordered by edges).
                        let lo = range.start.max(1);
                        let ev = e2.slice_mut(lo, range.end);
                        for (k, i) in (lo..range.end).enumerate() {
                            ev[k] += C * (h2.read(i) - h2.read(i - 1));
                        }
                    } else {
                        // H update over [lo, min(hi, n-1))
                        let hi = range.end.min(n - 1);
                        let hv = h2.slice_mut(range.start, hi);
                        for (k, i) in (range.start..hi).enumerate() {
                            hv[k] += C * (e2.read(i + 1) - e2.read(i));
                        }
                    }
                }
            }),
        );

        let e = Arc::try_unwrap(e)
            .unwrap_or_else(|_| panic!("e shared"))
            .into_vec();
        let h = Arc::try_unwrap(h)
            .unwrap_or_else(|_| panic!("h shared"))
            .into_vec();
        (e, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_runtime::{Pool, PoolConfig};

    #[test]
    fn shape_matches_table1() {
        assert_eq!(shape(1).nodes(), 102_400);
    }

    #[test]
    fn graph_layers_ordered() {
        let g = graph(256, 4);
        // E(0, b) has no preds; H(0, 0) has preds E(0,0), E(0,1).
        let s = shape(256);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(s.blocks as NodeId), 2);
    }

    #[test]
    fn parallel_matches_serial() {
        let p = FdtdProblem::small();
        let (es, hs) = p.run_serial();
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(6)));
        let exec = StaticExecutor::new(pool);
        let (ep, hp) = p.run_taskgraph(&exec);
        for i in 0..p.n {
            assert!(
                (es[i] - ep[i]).abs() < 1e-12,
                "e[{i}]: {} vs {}",
                es[i],
                ep[i]
            );
            assert!(
                (hs[i] - hp[i]).abs() < 1e-12,
                "h[{i}]: {} vs {}",
                hs[i],
                hp[i]
            );
        }
    }

    #[test]
    fn pulse_propagates() {
        let p = FdtdProblem::small();
        let (e, _) = p.run_serial();
        // Energy moved but persists.
        let energy: f64 = e.iter().map(|x| x * x).sum();
        assert!(energy > 0.1);
    }
}
