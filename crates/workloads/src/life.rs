//! Conway's game of life (Table I: `life`).
//!
//! Row-blocked double-buffered life over a toroidal `rows × cols` board.
//! Same stencil shape as `heat` (Table I gives both 102 400 nodes); the
//! runnable [`LifeProblem`] checks task-graph execution against a serial
//! reference exactly (cell states are integers, so equality is exact).

use crate::stencil::{self, StencilShape};
use crate::util::{block_range, SharedBuffer};
use nabbitc_core::StaticExecutor;
use nabbitc_graph::{NodeId, TaskGraph};
use std::sync::Arc;

/// Simulator shape at a scale divisor (1 = the paper's 102 400 nodes).
pub fn shape(scale_div: usize) -> StencilShape {
    let blocks = (20480 / scale_div.max(1)).max(8);
    StencilShape {
        iters: 5,
        blocks,
        // Life is less memory-bound per byte than heat (u8 cells, integer
        // rule): smaller block bytes, comparable work.
        work: 3_000,
        block_bytes: 16 * 1024,
        halo_bytes: 1024,
    }
}

/// Task graph for `p` workers.
pub fn graph(scale_div: usize, p: usize) -> TaskGraph {
    stencil::graph(&shape(scale_div), p)
}

/// A real, runnable life board.
pub struct LifeProblem {
    /// Board rows.
    pub rows: usize,
    /// Board columns.
    pub cols: usize,
    /// Generations.
    pub steps: usize,
    /// Row blocks.
    pub blocks: usize,
    /// Seed for the initial random board.
    pub seed: u64,
}

impl LifeProblem {
    /// A small instance for tests and examples.
    pub fn small() -> Self {
        LifeProblem {
            rows: 96,
            cols: 64,
            steps: 8,
            blocks: 12,
            seed: 2024,
        }
    }

    /// Initial random board — public for the OpenMP baseline runners.
    pub fn init_board(&self) -> Vec<u8> {
        self.init()
    }

    /// One life-rule evaluation through a raw reader — public for the
    /// OpenMP baseline runners.
    pub fn next_cell_at(&self, read_at: impl Fn(usize) -> u8, r: usize, c: usize) -> u8 {
        self.next_cell(read_at, r, c)
    }

    fn init(&self) -> Vec<u8> {
        // Simple xorshift fill: ~37% alive.
        let mut s = self.seed | 1;
        (0..self.rows * self.cols)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                u8::from(s % 8 < 3)
            })
            .collect()
    }

    #[inline]
    fn next_cell(&self, read_at: impl Fn(usize) -> u8, r: usize, c: usize) -> u8 {
        let (rows, cols) = (self.rows, self.cols);
        let mut alive = 0u8;
        for dr in [rows - 1, 0, 1] {
            for dc in [cols - 1, 0, 1] {
                if dr == 0 && dc == 0 {
                    continue;
                }
                alive += read_at(((r + dr) % rows) * cols + (c + dc) % cols);
            }
        }
        let me = read_at(r * cols + c);
        u8::from(alive == 3 || (me == 1 && alive == 2))
    }

    /// Serial reference.
    pub fn run_serial(&self) -> Vec<u8> {
        let mut cur = self.init();
        let mut next = vec![0u8; self.rows * self.cols];
        for _ in 0..self.steps {
            for r in 0..self.rows {
                for c in 0..self.cols {
                    next[r * self.cols + c] = self.next_cell(|i| cur[i], r, c);
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Task graph matching this instance. Torus wrap means the first and
    /// last blocks also depend on each other, so the stencil builder is
    /// extended with the wrap edges.
    pub fn task_graph(&self, p: usize) -> TaskGraph {
        use nabbitc_color::Color;
        use nabbitc_graph::{GraphBuilder, NodeAccess};
        let blocks = self.blocks;
        let steps = self.steps;
        let bytes = (self.rows / blocks * self.cols) as u64;
        let mut gb = GraphBuilder::with_capacity(steps * blocks, steps * blocks * 3 + steps * 2);
        let work = (9 * self.rows / blocks * self.cols) as u64;
        let id = |t: usize, b: usize| (t * blocks + b) as NodeId;
        for t in 0..steps {
            for b in 0..blocks {
                let own = Color::from(crate::util::block_owner(b, blocks, p));
                if t == 0 {
                    gb.add_node(work, own, [NodeAccess { owner: own, bytes }]);
                } else {
                    gb.add_node_at(work, own, id(0, b));
                }
            }
        }
        for t in 1..steps {
            for b in 0..blocks {
                let mut preds = vec![b, (b + blocks - 1) % blocks, (b + 1) % blocks];
                preds.sort_unstable();
                preds.dedup();
                for q in preds {
                    gb.add_edge(id(t - 1, q), id(t, b));
                }
            }
        }
        gb.build().expect("life graph is acyclic")
    }

    /// Task-graph execution; returns the final board.
    pub fn run_taskgraph(&self, exec: &StaticExecutor) -> Vec<u8> {
        let p = exec.pool().workers();
        let graph = Arc::new(self.task_graph(p));
        let (rows, cols, blocks, steps) = (self.rows, self.cols, self.blocks, self.steps);

        let buf_a = Arc::new(SharedBuffer::from_vec(self.init()));
        let buf_b = Arc::new(SharedBuffer::new(rows * cols, 0u8));

        let this = LifeProblem { ..*self };
        let a = buf_a.clone();
        let b = buf_b.clone();
        exec.execute(
            &graph,
            Arc::new(move |u: NodeId, _w: usize| {
                let t = u as usize / blocks;
                let blk = u as usize % blocks;
                let range = block_range(rows, blocks, blk);
                let (src, dst) = if t.is_multiple_of(2) {
                    (&a, &b)
                } else {
                    (&b, &a)
                };
                // SAFETY: disjoint row-block writes; wrap-neighbor reads
                // go through raw pointers and are ordered by the extra
                // torus edges in `task_graph`.
                unsafe {
                    let dst = dst.slice_mut(range.start * cols, range.end * cols);
                    for r in range.clone() {
                        for c in 0..cols {
                            dst[(r - range.start) * cols + c] =
                                this.next_cell(|i| src.read(i), r, c);
                        }
                    }
                }
            }),
        );

        let final_buf = if steps % 2 == 1 { buf_b } else { buf_a };
        Arc::try_unwrap(final_buf)
            .unwrap_or_else(|_| panic!("buffer still shared"))
            .into_vec()
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
    fn parallel_matches_serial_exactly() {
        let p = LifeProblem::small();
        let serial = p.run_serial();
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(6)));
        let exec = StaticExecutor::new(pool);
        let par = p.run_taskgraph(&exec);
        assert_eq!(serial, par);
    }

    #[test]
    fn blinker_oscillates() {
        // A 3-cell blinker on an empty 8x8 board has period 2.
        let p = LifeProblem {
            rows: 8,
            cols: 8,
            steps: 2,
            blocks: 4,
            seed: 0,
        };
        // Overridden init: use run_serial on a custom board via the cell
        // rule directly.
        let mut board = vec![0u8; 64];
        board[3 * 8 + 2] = 1;
        board[3 * 8 + 3] = 1;
        board[3 * 8 + 4] = 1;
        let mut cur = board.clone();
        let mut next = vec![0u8; 64];
        for _ in 0..2 {
            for r in 0..8 {
                for c in 0..8 {
                    next[r * 8 + c] = p.next_cell(|i| cur[i], r, c);
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        assert_eq!(cur, board, "blinker must return after two steps");
    }

    #[test]
    fn population_bounded() {
        let p = LifeProblem::small();
        let out = p.run_serial();
        let alive: usize = out.iter().map(|&c| c as usize).sum();
        assert!(alive < p.rows * p.cols);
    }
}
