//! Smith-Waterman local alignment, blocked (Table I: `sw` and `swn2`).
//!
//! Tile `(i, j)` of the DP matrix depends on `(i-1, j)`, `(i, j-1)` and
//! `(i-1, j-1)` — a 2-D wavefront. The paper's OpenMP version synchronizes
//! at each anti-diagonal (a barrier per diagonal), while Nabbit/NabbitC
//! expose the full task graph; that extra parallelism is why both beat
//! OpenMP here (§V-A). `sw` is the n³-style variant (small 32×32 tiles,
//! 160×160 = 25 600 nodes); `swn2` the n² variant (1024×1024 tiles,
//! 128×128 = 16 384 nodes).

use crate::util::{block_owner, block_range, SharedBuffer};
use nabbitc_color::Color;
use nabbitc_core::StaticExecutor;
use nabbitc_graph::{GraphBuilder, NodeAccess, NodeId, TaskGraph};
use std::sync::Arc;

/// Blocked Smith-Waterman shape.
#[derive(Clone, Copy, Debug)]
pub struct SwShape {
    /// Tile rows.
    pub tile_rows: usize,
    /// Tile cols.
    pub tile_cols: usize,
    /// Work per tile (∝ B²).
    pub work: u64,
    /// Own-tile bytes.
    pub tile_bytes: u64,
    /// Bytes read from the top neighbor (one tile row).
    pub border_bytes: u64,
}

impl SwShape {
    /// Total nodes.
    pub fn nodes(&self) -> usize {
        self.tile_rows * self.tile_cols
    }
}

/// The paper's `sw`: 5120×5120, 32×32 tiles → 160×160 nodes.
///
/// The tile grid is kept at full size at every scale: the wavefront's
/// parallelism is its anti-diagonal width, and shrinking it below the core
/// count would change which scheduler wins (the paper's sw has parallelism
/// well above 80). `scale_div` only shrinks the per-tile work.
pub fn shape_sw(scale_div: usize) -> SwShape {
    let _ = scale_div;
    let t = 160;
    SwShape {
        tile_rows: t,
        tile_cols: t,
        work: 32 * 32 * 4,
        tile_bytes: 32 * 32 * 4,
        border_bytes: 32 * 4,
    }
}

/// The paper's `swn2`: 131072×131072, 1024×1024 tiles → 128×128 nodes.
/// Tile grid kept at full size at every scale (see [`shape_sw`]).
pub fn shape_swn2(scale_div: usize) -> SwShape {
    let _ = scale_div;
    let t = 128;
    SwShape {
        tile_rows: t,
        tile_cols: t,
        work: 1024 * 64, // n² variant: linear-space inner kernel
        tile_bytes: 1024 * 8,
        border_bytes: 1024 * 4,
    }
}

/// Accesses of tile `(i, j)`: its own DP block, the bottom row of the
/// tile above (owned by the previous tile-row's worker), and the right
/// column of the tile to the left (same tile row, so same owner — local
/// under row blocking, but real bytes the anti-diagonal recurrence
/// reads). These byte footprints are what the bandwidth-aware cost layer
/// prices when a coloring cuts the wavefront's dependence edges.
fn tile_accesses(
    shape: &SwShape,
    i: usize,
    j: usize,
    tr: usize,
    p: usize,
) -> impl Iterator<Item = NodeAccess> {
    let own = Color::from(block_owner(i, tr, p));
    let tile = NodeAccess {
        owner: own,
        bytes: shape.tile_bytes,
    };
    let above = (i > 0).then(|| NodeAccess {
        owner: Color::from(block_owner(i - 1, tr, p)),
        bytes: shape.border_bytes,
    });
    let left = (j > 0).then_some(NodeAccess {
        owner: own,
        bytes: shape.border_bytes,
    });
    [Some(tile), above, left].into_iter().flatten()
}

/// Task graph: tiles colored by tile-row owner (rows of the DP matrix are
/// distributed across workers).
pub fn graph_from_shape(shape: &SwShape, p: usize) -> TaskGraph {
    let (tr, tc) = (shape.tile_rows, shape.tile_cols);
    let id = |i: usize, j: usize| (i * tc + j) as NodeId;
    let mut gb = GraphBuilder::with_capacity(tr * tc, 3 * tr * tc);
    for i in 0..tr {
        let own = Color::from(block_owner(i, tr, p));
        for j in 0..tc {
            gb.add_node(shape.work, own, tile_accesses(shape, i, j, tr, p));
        }
    }
    for i in 0..tr {
        for j in 0..tc {
            if i > 0 {
                gb.add_edge(id(i - 1, j), id(i, j));
            }
            if j > 0 {
                gb.add_edge(id(i, j - 1), id(i, j));
            }
            if i > 0 && j > 0 {
                gb.add_edge(id(i - 1, j - 1), id(i, j));
            }
        }
    }
    gb.build().expect("wavefront is acyclic")
}

/// A real, runnable Smith-Waterman alignment.
pub struct SwProblem {
    /// Sequence a length.
    pub n: usize,
    /// Sequence b length.
    pub m: usize,
    /// Tiles along a.
    pub tiles_n: usize,
    /// Tiles along b.
    pub tiles_m: usize,
    /// RNG seed for the sequences.
    pub seed: u64,
}

const MATCH: i32 = 2;
const MISMATCH: i32 = -1;
const GAP: i32 = -1;

impl SwProblem {
    /// A small instance for tests and examples.
    pub fn small() -> Self {
        SwProblem {
            n: 192,
            m: 160,
            tiles_n: 12,
            tiles_m: 10,
            seed: 7,
        }
    }

    fn seqs(&self) -> (Vec<u8>, Vec<u8>) {
        let mut s = self.seed | 1;
        let mut gen = |len: usize| -> Vec<u8> {
            (0..len)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s % 4) as u8
                })
                .collect()
        };
        (gen(self.n), gen(self.m))
    }

    /// Serial reference: full DP matrix `(n+1) × (m+1)`, returns the
    /// matrix.
    pub fn run_serial(&self) -> Vec<i32> {
        let (a, b) = self.seqs();
        let w = self.m + 1;
        let mut h = vec![0i32; (self.n + 1) * w];
        for i in 1..=self.n {
            for j in 1..=self.m {
                let sub = if a[i - 1] == b[j - 1] {
                    MATCH
                } else {
                    MISMATCH
                };
                let diag = h[(i - 1) * w + (j - 1)] + sub;
                let up = h[(i - 1) * w + j] + GAP;
                let left = h[i * w + (j - 1)] + GAP;
                h[i * w + j] = 0.max(diag).max(up).max(left);
            }
        }
        h
    }

    /// Best local alignment score of a matrix.
    pub fn best_score(h: &[i32]) -> i32 {
        h.iter().copied().max().unwrap_or(0)
    }

    /// Task graph matching this instance.
    pub fn task_graph(&self, p: usize) -> TaskGraph {
        let shape = SwShape {
            tile_rows: self.tiles_n,
            tile_cols: self.tiles_m,
            work: ((self.n / self.tiles_n) * (self.m / self.tiles_m) * 6) as u64,
            tile_bytes: ((self.n / self.tiles_n) * (self.m / self.tiles_m) * 4) as u64,
            border_bytes: ((self.m / self.tiles_m) * 4) as u64,
        };
        graph_from_shape(&shape, p)
    }

    /// Task-graph execution; returns the DP matrix.
    pub fn run_taskgraph(&self, exec: &StaticExecutor) -> Vec<i32> {
        let p = exec.pool().workers();
        let graph = Arc::new(self.task_graph(p));
        let (a, b) = self.seqs();
        let (n, m, tn, tm) = (self.n, self.m, self.tiles_n, self.tiles_m);
        let w = m + 1;

        let h = Arc::new(SharedBuffer::new((n + 1) * w, 0i32));
        let a = Arc::new(a);
        let b = Arc::new(b);

        let h2 = h.clone();
        exec.execute(
            &graph,
            Arc::new(move |u: NodeId, _w: usize| {
                let ti = u as usize / tm;
                let tj = u as usize % tm;
                let ri = block_range(n, tn, ti);
                let rj = block_range(m, tm, tj);
                // SAFETY: tile interiors are disjoint and border reads
                // from neighbor tiles are ordered by the wavefront edges;
                // all access goes through raw pointers so no reference
                // overlaps a concurrently-written region.
                unsafe {
                    for i in ri.start + 1..=ri.end {
                        for j in rj.start + 1..=rj.end {
                            let sub = if a[i - 1] == b[j - 1] {
                                MATCH
                            } else {
                                MISMATCH
                            };
                            let diag = h2.read((i - 1) * w + (j - 1)) + sub;
                            let up = h2.read((i - 1) * w + j) + GAP;
                            let left = h2.read(i * w + (j - 1)) + GAP;
                            h2.write(i * w + j, 0.max(diag).max(up).max(left));
                        }
                    }
                }
            }),
        );

        Arc::try_unwrap(h)
            .unwrap_or_else(|_| panic!("matrix still shared"))
            .into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_runtime::{Pool, PoolConfig};

    #[test]
    fn table1_node_counts() {
        assert_eq!(shape_sw(1).nodes(), 25_600);
        assert_eq!(shape_swn2(1).nodes(), 16_384);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let p = SwProblem::small();
        let serial = p.run_serial();
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(6)));
        let exec = StaticExecutor::new(pool);
        let par = p.run_taskgraph(&exec);
        assert_eq!(serial, par);
        assert!(SwProblem::best_score(&serial) > 0);
    }

    #[test]
    fn identical_sequences_score_maximally() {
        let p = SwProblem {
            n: 32,
            m: 32,
            tiles_n: 4,
            tiles_m: 4,
            seed: 7,
        };
        // Same seed generates a and b from the same stream but different
        // lengths share a prefix only if lengths equal — here they do.
        let (a, b) = p.seqs();
        if a == b {
            let h = p.run_serial();
            assert_eq!(SwProblem::best_score(&h), (p.n as i32) * MATCH);
        }
    }

    #[test]
    fn omp_loops_are_diagonals() {
        // The simulated OpenMP program is one loop per anti-diagonal:
        // with a core for every tile of the widest diagonal and uniform
        // memory, each loop costs its slowest tile plus a barrier.
        use nabbitc_numasim::{simulate_omp, CostModel, OmpSchedule};
        let s = SwShape {
            tile_rows: 10,
            tile_cols: 10,
            work: 64,
            tile_bytes: 256,
            border_bytes: 64,
        };
        let g = graph_from_shape(&s, 4);
        let cost = CostModel::default();
        let tile = |i: usize, j: usize| {
            let u = (i * s.tile_cols + j) as NodeId;
            cost.node_ticks_all_local(s.work, g.footprint(u))
        };
        let diagonals = s.tile_rows + s.tile_cols - 1;
        let expect: u64 = (0..diagonals)
            .map(|d| {
                let rows = d.saturating_sub(s.tile_cols - 1)..=d.min(s.tile_rows - 1);
                rows.map(|i| tile(i, d - i))
                    .max()
                    .expect("diagonal has tiles")
                    + cost.barrier
            })
            .sum();
        let cores = s.tile_rows.min(s.tile_cols);
        let topo = nabbitc_runtime::Topology::uma(cores);
        let r = simulate_omp(&g, OmpSchedule::Static, cores, &topo, &cost);
        assert_eq!(r.makespan, expect);
        assert_eq!(r.total_executed(), s.nodes() as u64);
    }

    #[test]
    fn scores_nonnegative() {
        let p = SwProblem::small();
        let h = p.run_serial();
        assert!(h.iter().all(|&x| x >= 0));
    }
}
