//! Shared machinery for the iterated-stencil family (heat, fdtd, life).
//!
//! Shape: `iters` timesteps over `blocks` row blocks; node `(t, b)` depends
//! on `(t-1, b-1..=b+1)`. Data is distributed block-wise across the `p`
//! workers (block `b` owned by [`block_owner`]); each node's accesses are
//! its own block (local to its color) plus halo rows owned by the
//! neighboring blocks' owners.

use crate::util::block_owner;
use nabbitc_color::Color;
use nabbitc_graph::{GraphBuilder, NodeAccess, NodeId, TaskGraph};

/// Parameters of a stencil-shaped benchmark.
#[derive(Clone, Copy, Debug)]
pub struct StencilShape {
    /// Timesteps.
    pub iters: usize,
    /// Row blocks per timestep.
    pub blocks: usize,
    /// Compute work per block per step.
    pub work: u64,
    /// Bytes of the block's own data touched per step.
    pub block_bytes: u64,
    /// Bytes exchanged with each neighboring block (halo).
    pub halo_bytes: u64,
}

impl StencilShape {
    /// Total task-graph nodes.
    pub fn nodes(&self) -> usize {
        self.iters * self.blocks
    }
}

/// Node id of `(t, b)`.
fn id(shape: &StencilShape, t: usize, b: usize) -> NodeId {
    (t * shape.blocks + b) as NodeId
}

/// Accesses of block `b`: own block + two halos.
fn accesses(shape: &StencilShape, b: usize, p: usize) -> impl Iterator<Item = NodeAccess> {
    let region = |q: usize, bytes: u64| NodeAccess {
        owner: Color::from(block_owner(q, shape.blocks, p)),
        bytes,
    };
    let own = region(b, shape.block_bytes);
    let left = b.checked_sub(1).map(|q| region(q, shape.halo_bytes));
    let right = (b + 1 < shape.blocks).then(|| region(b + 1, shape.halo_bytes));
    [Some(own), left, right].into_iter().flatten()
}

/// Builds the task graph for `p` workers (= colors). Block `b`'s node at
/// step 0 is the home of the block's nodes at every later step.
pub fn graph(shape: &StencilShape, p: usize) -> TaskGraph {
    assert!(shape.iters > 0 && shape.blocks > 0 && p > 0);
    let mut gb = GraphBuilder::with_capacity(shape.nodes(), shape.nodes() * 3);
    for t in 0..shape.iters {
        for b in 0..shape.blocks {
            let color = Color::from(block_owner(b, shape.blocks, p));
            if t == 0 {
                gb.add_node(shape.work, color, accesses(shape, b, p));
            } else {
                gb.add_node_at(shape.work, color, id(shape, 0, b));
            }
        }
    }
    for t in 1..shape.iters {
        for b in 0..shape.blocks {
            let lo = b.saturating_sub(1);
            let hi = (b + 1).min(shape.blocks - 1);
            for q in lo..=hi {
                gb.add_edge(id(shape, t - 1, q), id(shape, t, b));
            }
        }
    }
    gb.build().expect("stencil graph is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_graph::analysis::analyze;

    fn shape() -> StencilShape {
        StencilShape {
            iters: 5,
            blocks: 64,
            work: 100,
            block_bytes: 4096,
            halo_bytes: 128,
        }
    }

    #[test]
    fn graph_shape_correct() {
        let g = graph(&shape(), 8);
        assert_eq!(g.node_count(), 5 * 64);
        // Interior node has 3 preds; first-step nodes none.
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(64 + 5), 3);
        assert_eq!(g.in_degree(64), 2); // edge block
        let a = analyze(&g);
        assert_eq!(a.longest_path_nodes, 5);
    }

    #[test]
    fn coloring_is_block_ownership() {
        let s = shape();
        let g = graph(&s, 8);
        for t in 0..s.iters {
            for b in 0..s.blocks {
                assert_eq!(
                    g.color(id(&s, t, b)),
                    Color::from(block_owner(b, s.blocks, 8))
                );
            }
        }
    }

    #[test]
    fn boundary_blocks_have_one_halo() {
        let s = shape();
        assert_eq!(accesses(&s, 0, 8).count(), 2);
        assert_eq!(accesses(&s, s.blocks - 1, 8).count(), 2);
        assert_eq!(accesses(&s, 3, 8).count(), 3);
    }
}
