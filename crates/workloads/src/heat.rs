//! Heat diffusion stencil (Table I: `heat`).
//!
//! 2-D Jacobi heat diffusion over a `rows × cols` grid, row-blocked.
//! [`shape`] gives the simulator descriptor at the paper's node counts;
//! [`HeatProblem`] is a *real runnable* instance: actual `f64` grids,
//! a serial reference, and a task-graph execution whose result must match
//! the reference bit-for-bit (Jacobi is deterministic).

use crate::stencil::{self, StencilShape};
use crate::util::{block_range, SharedBuffer};
use nabbitc_core::StaticExecutor;
use nabbitc_graph::{NodeId, TaskGraph};
use std::sync::Arc;

/// Simulator shape at a given scale factor (1 = paper size: 5 timesteps ×
/// 20480 row blocks = 102 400 nodes; the default harness scale divides the
/// block count).
pub fn shape(scale_div: usize) -> StencilShape {
    let blocks = (20480 / scale_div.max(1)).max(8);
    StencilShape {
        iters: 5,
        blocks,
        // One block of the paper's 16384x655360 grid split into 20480 row
        // blocks ≈ 0.8 rows x 655360 cols — abstracted to a fixed
        // bytes-per-block at our scale: memory-bound (bytes >> work).
        work: 2_000,
        block_bytes: 32 * 1024,
        halo_bytes: 2 * 1024,
    }
}

/// Task graph for `p` workers.
pub fn graph(scale_div: usize, p: usize) -> TaskGraph {
    stencil::graph(&shape(scale_div), p)
}

/// A real, runnable heat-diffusion problem.
pub struct HeatProblem {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Timesteps.
    pub steps: usize,
    /// Row blocks (task granularity).
    pub blocks: usize,
}

impl HeatProblem {
    /// A small instance for tests and examples.
    pub fn small() -> Self {
        HeatProblem {
            rows: 128,
            cols: 64,
            steps: 6,
            blocks: 16,
        }
    }

    /// Initial grid (hot stripe in the middle): exposed so OpenMP-style
    /// runners (see [`crate::omp`]) start from the same state.
    pub fn init_grid(&self) -> Vec<f64> {
        self.init()
    }

    /// One Jacobi row update through a raw reader — public for the OpenMP
    /// baseline runners.
    pub fn step_row_at(
        &self,
        read_at: impl Fn(usize) -> f64,
        dst: &mut [f64],
        r: usize,
        row0: usize,
    ) {
        self.step_row(read_at, dst, r, row0)
    }

    fn init(&self) -> Vec<f64> {
        // Hot stripe in the middle, cold edges.
        let mut g = vec![0.0f64; self.rows * self.cols];
        for r in self.rows / 4..self.rows / 2 {
            for c in 0..self.cols {
                g[r * self.cols + c] = 100.0;
            }
        }
        g
    }

    /// One Jacobi row update: reads `src` through `read_at(index)` and
    /// writes into `dst` at row `r - row0`.
    #[inline]
    fn step_row(&self, read_at: impl Fn(usize) -> f64, dst: &mut [f64], r: usize, row0: usize) {
        let (rows, cols) = (self.rows, self.cols);
        for c in 0..cols {
            let at = |rr: isize, cc: isize| -> f64 {
                let rr = rr.clamp(0, rows as isize - 1) as usize;
                let cc = cc.clamp(0, cols as isize - 1) as usize;
                read_at(rr * cols + cc)
            };
            let (ri, ci) = (r as isize, c as isize);
            dst[(r - row0) * cols + c] =
                0.25 * (at(ri - 1, ci) + at(ri + 1, ci) + at(ri, ci - 1) + at(ri, ci + 1));
        }
    }

    /// Serial reference execution; returns the final grid.
    pub fn run_serial(&self) -> Vec<f64> {
        let mut cur = self.init();
        let mut next = vec![0.0f64; self.rows * self.cols];
        for _ in 0..self.steps {
            for r in 0..self.rows {
                let lo = r * self.cols;
                // step_row writes rows relative to row0; use r as its own
                // block here.
                let mut dst_row = vec![0.0; self.cols];
                self.step_row(|i| cur[i], &mut dst_row, r, r);
                next[lo..lo + self.cols].copy_from_slice(&dst_row);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Builds the task graph matching this instance (for `p` colors).
    pub fn task_graph(&self, p: usize) -> TaskGraph {
        let shape = StencilShape {
            iters: self.steps,
            blocks: self.blocks,
            work: (3 * self.cols * self.rows / self.blocks) as u64,
            block_bytes: (self.rows / self.blocks * self.cols * 16) as u64,
            halo_bytes: (self.cols * 16) as u64,
        };
        stencil::graph(&shape, p)
    }

    /// Executes on the task-graph executor; returns the final grid and
    /// asserts nothing (callers compare against [`run_serial`]).
    ///
    /// [`run_serial`]: Self::run_serial
    pub fn run_taskgraph(&self, exec: &StaticExecutor) -> Vec<f64> {
        let p = exec.pool().workers();
        let graph = Arc::new(self.task_graph(p));
        let blocks = self.blocks;
        let steps = self.steps;
        let cols = self.cols;
        let rows = self.rows;

        let buf_a = Arc::new(SharedBuffer::from_vec(self.init()));
        let buf_b = Arc::new(SharedBuffer::new(rows * cols, 0.0f64));

        let this = HeatProblem { ..*self };
        let a = buf_a.clone();
        let b = buf_b.clone();
        exec.execute(
            &graph,
            Arc::new(move |u: NodeId, _w: usize| {
                let t = u as usize / blocks;
                let blk = u as usize % blocks;
                let range = block_range(rows, blocks, blk);
                // Even steps read A write B; odd read B write A.
                let (src, dst) = if t.is_multiple_of(2) {
                    (&a, &b)
                } else {
                    (&b, &a)
                };
                // SAFETY: the task graph orders all writers of the halo
                // rows before this node; reads go through raw pointers (no
                // shared slice over regions other nodes may be writing) and
                // writes stay within this node's disjoint row block.
                unsafe {
                    let dst = dst.slice_mut(range.start * cols, range.end * cols);
                    for r in range.clone() {
                        this.step_row(|i| src.read(i), dst, r, range.start);
                    }
                }
            }),
        );

        let final_buf = if steps % 2 == 1 { buf_b } else { buf_a };
        let final_buf = Arc::try_unwrap(final_buf)
            .unwrap_or_else(|_| panic!("buffer still shared after execution"));
        final_buf.into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_runtime::{Pool, PoolConfig};

    #[test]
    fn shape_matches_table1_node_count() {
        assert_eq!(shape(1).nodes(), 102_400);
        assert_eq!(shape(16).nodes(), 5 * 1280);
    }

    #[test]
    fn parallel_matches_serial() {
        let p = HeatProblem::small();
        let serial = p.run_serial();
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(4)));
        let exec = StaticExecutor::new(pool);
        let par = p.run_taskgraph(&exec);
        assert_eq!(serial.len(), par.len());
        for (i, (s, q)) in serial.iter().zip(par.iter()).enumerate() {
            assert!(
                (s - q).abs() < 1e-12,
                "cell {i}: serial {s} vs parallel {q}"
            );
        }
    }

    #[test]
    fn parallel_matches_serial_nabbit_policy() {
        let p = HeatProblem::small();
        let serial = p.run_serial();
        let pool = Arc::new(Pool::new(PoolConfig::nabbit(6)));
        let exec = StaticExecutor::new(pool);
        let par = p.run_taskgraph(&exec);
        for (s, q) in serial.iter().zip(par.iter()) {
            assert!((s - q).abs() < 1e-12);
        }
    }

    #[test]
    fn heat_diffuses() {
        let p = HeatProblem::small();
        let out = p.run_serial();
        let total: f64 = out.iter().sum();
        assert!(total > 0.0, "heat should persist");
        // The initially cold top edge must have warmed up a little.
        assert!(out[0] >= 0.0);
        let hot_band: f64 = out[(p.rows / 3) * p.cols..(p.rows / 3 + 1) * p.cols]
            .iter()
            .sum();
        assert!(hot_band > 0.0);
    }
}
