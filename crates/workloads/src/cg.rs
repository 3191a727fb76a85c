//! NAS-style conjugate gradient (Table I: `cg`).
//!
//! One CG iteration over a sparse symmetric positive-definite matrix,
//! row-blocked: per iteration, a matvec task per block, a dot-product
//! partial per block, one scalar reduction, and an axpy task per block —
//! with 100 blocks that is 301 nodes, matching Table I's 300-node graph
//! (NA = 900 000, one iteration: the graph is *small*, which is exactly
//! why the paper finds "NabbitC's benefit over original Nabbit becomes
//! negligible because processor cores have few nodes to work with").
//!
//! The runnable [`CgProblem`] does real CG math on a banded SPD matrix and
//! checks the parallel residual against a serial reference.

use crate::util::{block_owner, block_range, SharedBuffer};
use nabbitc_color::Color;
use nabbitc_core::StaticExecutor;
use nabbitc_graph::{GraphBuilder, NodeAccess, NodeId, TaskGraph};
use std::sync::Arc;

/// CG shape (one iteration = 3 × blocks + 1 nodes).
#[derive(Clone, Copy, Debug)]
pub struct CgShape {
    /// Row blocks.
    pub blocks: usize,
    /// Nonzeros per block (work ∝ this).
    pub nnz_per_block: u64,
    /// Vector bytes per block.
    pub vec_bytes: u64,
}

impl CgShape {
    /// Total nodes.
    pub fn nodes(&self) -> usize {
        3 * self.blocks + 1
    }
}

/// Paper-scaled shape: 100 blocks → 301 nodes (Table I: 300).
pub fn shape(_scale_div: usize) -> CgShape {
    CgShape {
        blocks: 100,
        // NA=900k, NNZ/row=26 → 234k nnz per block at 100 blocks; each nnz
        // is 12 bytes of matrix + 8 bytes of x.
        nnz_per_block: 234_000,
        vec_bytes: 9_000 * 8,
    }
}

/// Task graph for one CG iteration on `p` workers. The matrix is banded,
/// so matvec block `b` reads x from blocks `b-1..=b+1`.
pub fn graph_from_shape(s: &CgShape, p: usize) -> TaskGraph {
    let blocks = s.blocks;
    let own = |b: usize| Color::from(block_owner(b, blocks, p));
    let mut gb = GraphBuilder::with_capacity(s.nodes(), 4 * blocks);
    // Layer 0: matvec_b.
    for b in 0..blocks {
        let x = |q: usize| NodeAccess {
            owner: own(q),
            bytes: s.vec_bytes / 4,
        };
        let block = NodeAccess {
            owner: own(b),
            bytes: s.nnz_per_block * 12 + s.vec_bytes,
        };
        let left = b.checked_sub(1).map(x);
        let right = (b + 1 < blocks).then(|| x(b + 1));
        let acc = [Some(block), left, right].into_iter().flatten();
        gb.add_node(s.nnz_per_block * 2, own(b), acc);
    }
    // Layer 1: dot_b (p·q partial).
    for b in 0..blocks {
        gb.add_node(
            s.vec_bytes / 4,
            own(b),
            [NodeAccess {
                owner: own(b),
                bytes: s.vec_bytes * 2,
            }],
        );
    }
    // Reduce node.
    let reduce = gb.add_node(blocks as u64 * 8, Color::from(0usize), []);
    // Layer 2: axpy_b.
    for b in 0..blocks {
        gb.add_node(
            s.vec_bytes / 2,
            own(b),
            [NodeAccess {
                owner: own(b),
                bytes: s.vec_bytes * 3,
            }],
        );
    }
    let mv = |b: usize| b as NodeId;
    let dot = |b: usize| (blocks + b) as NodeId;
    let axpy = |b: usize| (2 * blocks + 1 + b) as NodeId;
    for b in 0..blocks {
        gb.add_edge(mv(b), dot(b));
        gb.add_edge(dot(b), reduce);
        gb.add_edge(reduce, axpy(b));
    }
    gb.build().expect("cg graph is acyclic")
}

/// Task graph at a scale divisor.
pub fn graph(scale_div: usize, p: usize) -> TaskGraph {
    graph_from_shape(&shape(scale_div), p)
}

/// A real, runnable CG instance on a banded SPD matrix
/// (`A = tridiag(-1, 4, -1)` plus `-1` at offset `±k`).
pub struct CgProblem {
    /// Unknowns.
    pub n: usize,
    /// Row blocks.
    pub blocks: usize,
    /// Far-band offset.
    pub k: usize,
    /// CG iterations to run.
    pub iters: usize,
}

impl CgProblem {
    /// Small instance for tests/examples.
    pub fn small() -> Self {
        CgProblem {
            n: 4096,
            blocks: 16,
            k: 64,
            iters: 4,
        }
    }

    fn row_nonzeros(&self, i: usize) -> Vec<(usize, f64)> {
        let mut nz = vec![(i, 4.5)]; // strictly diagonally dominant => SPD
        for &j in &[i.wrapping_sub(1), i + 1, i.wrapping_sub(self.k), i + self.k] {
            if j < self.n && j != i {
                nz.push((j, -1.0));
            }
        }
        nz
    }

    fn b_vec(&self) -> Vec<f64> {
        (0..self.n).map(|i| 1.0 + (i % 7) as f64).collect()
    }

    /// Serial CG for `iters` iterations from `x = 0`; returns (x, ‖r‖²).
    pub fn run_serial(&self) -> (Vec<f64>, f64) {
        let n = self.n;
        let mut x = vec![0.0f64; n];
        let mut r = self.b_vec();
        let mut p = r.clone();
        let mut rr: f64 = r.iter().map(|v| v * v).sum();
        for _ in 0..self.iters {
            let mut q = vec![0.0f64; n];
            for (i, slot) in q.iter_mut().enumerate() {
                *slot = self.row_nonzeros(i).iter().map(|&(j, a)| a * p[j]).sum();
            }
            let pq: f64 = p.iter().zip(q.iter()).map(|(a, b)| a * b).sum();
            let alpha = rr / pq;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i];
            }
            let rr_new: f64 = r.iter().map(|v| v * v).sum();
            let beta = rr_new / rr;
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
            }
            rr = rr_new;
        }
        (x, rr)
    }

    /// Task-graph CG; returns (x, ‖r‖²). One `execute` per iteration (the
    /// scalar reduction carries across layers inside each graph).
    pub fn run_taskgraph(&self, exec: &StaticExecutor) -> (Vec<f64>, f64) {
        let pworkers = exec.pool().workers();
        let n = self.n;
        let blocks = self.blocks;

        // Build the one-iteration graph: matvec -> dot -> reduce -> axpy,
        // with band halo edges on matvec (it reads p of neighbor blocks
        // updated by the previous iteration's axpy — handled by running
        // one execute per iteration, so cross-iteration ordering is given
        // by the execute boundary).
        let s = CgShape {
            blocks,
            nnz_per_block: (self.n / self.blocks * 5) as u64,
            vec_bytes: (self.n / self.blocks * 8) as u64,
        };
        let graph = Arc::new(graph_from_shape(&s, pworkers));

        let x = Arc::new(SharedBuffer::new(n, 0.0f64));
        let r = Arc::new(SharedBuffer::from_vec(self.b_vec()));
        let pvec = Arc::new(SharedBuffer::from_vec(self.b_vec()));
        let q = Arc::new(SharedBuffer::new(n, 0.0f64));
        let partials = Arc::new(SharedBuffer::new(2 * blocks, 0.0f64)); // pq and rr_new partials
        let scalars = Arc::new(SharedBuffer::new(2, 0.0f64)); // alpha, old rr

        let mut rr: f64 = self.b_vec().iter().map(|v| v * v).sum();

        for _ in 0..self.iters {
            // SAFETY: serial section between graph executions — no tasks
            // are running, so no access races this write.
            unsafe { scalars.write(1, rr) };
            let this = CgProblem { ..*self };
            let (x2, r2, p2, q2, pa, sc) = (
                x.clone(),
                r.clone(),
                pvec.clone(),
                q.clone(),
                partials.clone(),
                scalars.clone(),
            );
            exec.execute(
                &graph,
                Arc::new(move |u: NodeId, _w: usize| {
                    let u = u as usize;
                    let range = |b: usize| block_range(n, blocks, b);
                    // SAFETY (all arms): block-disjoint writes; reads of
                    // other blocks/scalars are ordered by the graph edges.
                    unsafe {
                        if u < blocks {
                            // matvec: q_b = A p | dot partial of p·q
                            let rg = range(u);
                            for i in rg.clone() {
                                let qi = this
                                    .row_nonzeros(i)
                                    .iter()
                                    .map(|&(j, a)| a * p2.read(j))
                                    .sum::<f64>();
                                q2.write(i, qi);
                            }
                        } else if u < 2 * blocks {
                            let b = u - blocks;
                            let rg = range(b);
                            let mut pq = 0.0;
                            for i in rg {
                                pq += p2.read(i) * q2.read(i);
                            }
                            pa.write(b, pq);
                        } else if u == 2 * blocks {
                            // reduce: alpha = rr / (p·q)
                            let mut pq = 0.0;
                            for b in 0..blocks {
                                pq += pa.read(b);
                            }
                            let rr_old = sc.read(1);
                            sc.write(0, rr_old / pq);
                        } else {
                            // axpy: x += a p; r -= a q; partial rr_new
                            let b = u - 2 * blocks - 1;
                            let alpha = sc.read(0);
                            let rg = range(b);
                            let mut rr_new = 0.0;
                            for i in rg {
                                x2.write(i, x2.read(i) + alpha * p2.read(i));
                                let ri = r2.read(i) - alpha * q2.read(i);
                                r2.write(i, ri);
                                rr_new += ri * ri;
                            }
                            pa.write(blocks + b, rr_new);
                        }
                    }
                }),
            );
            // Scalar epilogue + direction update between iterations
            // (serial, tiny).
            // SAFETY (both blocks below): `execute` has returned, so no
            // tasks are running and this thread has exclusive access.
            let rr_new: f64 = (0..blocks)
                .map(|b| unsafe { partials.read(blocks + b) })
                .sum();
            let beta = rr_new / rr;
            for i in 0..n {
                // SAFETY: serial epilogue, as above.
                unsafe {
                    pvec.write(i, r.read(i) + beta * pvec.read(i));
                }
            }
            rr = rr_new;
        }

        let x = Arc::try_unwrap(x)
            .unwrap_or_else(|_| panic!("x still shared"))
            .into_vec();
        (x, rr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_runtime::{Pool, PoolConfig};

    #[test]
    fn table1_node_count() {
        assert_eq!(shape(1).nodes(), 301);
    }

    #[test]
    fn residual_decreases() {
        let p = CgProblem::small();
        let (_, rr) = p.run_serial();
        let rr0: f64 = p.b_vec().iter().map(|v| v * v).sum();
        assert!(rr < rr0 * 0.5, "CG must reduce the residual: {rr} vs {rr0}");
    }

    #[test]
    fn parallel_matches_serial() {
        let p = CgProblem::small();
        let (xs, rrs) = p.run_serial();
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(6)));
        let exec = StaticExecutor::new(pool);
        let (xp, rrp) = p.run_taskgraph(&exec);
        let rel = (rrs - rrp).abs() / rrs.max(1e-30);
        assert!(rel < 1e-9, "residuals differ: {rrs} vs {rrp}");
        for i in 0..p.n {
            assert!(
                (xs[i] - xp[i]).abs() < 1e-9 * xs[i].abs().max(1.0),
                "x[{i}]: {} vs {}",
                xs[i],
                xp[i]
            );
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        let p = CgProblem::small();
        for i in (0..p.n).step_by(97) {
            for &(j, a) in &p.row_nonzeros(i) {
                let back = p.row_nonzeros(j);
                let aji = back.iter().find(|&&(jj, _)| jj == i).map(|&(_, v)| v);
                assert_eq!(aji, Some(a), "A[{i}][{j}] asymmetric");
            }
        }
    }
}
