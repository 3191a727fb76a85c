//! PageRank by the power method (Table I: `page-*`).
//!
//! The paper's exemplar *irregular* benchmark: per power iteration, each
//! task takes a block of pages as input (accessed regularly) and combines
//! rank contributions along edges (accessed irregularly); tasks are colored
//! by their input block. Per-block edge counts follow the web graph's
//! power law, so per-task work is imbalanced — the reason OPENMPSTATIC
//! loses load balance and OPENMPGUIDED loses locality, while NabbitC keeps
//! both (§V-A).
//!
//! We use the gather formulation: task `(t, b)` computes the new ranks of
//! its own block from the previous ranks of all in-neighbor blocks — so
//! writes are block-disjoint (no atomics) and the dependence structure is
//! exactly "`(t, b)` waits for `(t-1, b')` for every block `b'` with edges
//! into `b`".
//!
//! [`PageRank::task_graph`] summarizes the block dependences in one pass
//! over the in-edges and works out every block's task once for all
//! iterations.

use crate::util::{block_owner, block_range, SharedBuffer};
use crate::webgraph::{self, WebGraph, WebGraphParams};
use nabbitc_color::Color;
use nabbitc_core::StaticExecutor;
use nabbitc_graph::{GraphBuilder, NodeAccess, NodeId, TaskGraph};
use std::sync::Arc;

const DAMPING: f64 = 0.85;

/// A PageRank instance over a web graph.
pub struct PageRank {
    /// The web graph.
    pub web: WebGraph,
    /// Vertex blocks (task granularity).
    pub blocks: usize,
    /// Power iterations.
    pub iters: usize,
}

/// Per-block dependence summary: distinct in-neighbor blocks and edge
/// counts from each.
#[derive(Debug, PartialEq)]
struct BlockDeps {
    /// For each block: sorted `(source_block, edges)` pairs.
    incoming: Vec<Vec<(usize, u32)>>,
    /// For each block: blocks that *read* it (its out-neighbor blocks) —
    /// write-after-read hazards of the double-buffered power iteration.
    readers: Vec<Vec<usize>>,
    /// Vertices per block (for cost modelling).
    verts: Vec<usize>,
    /// Total in-edges per block (work).
    in_edges: Vec<u64>,
}

impl PageRank {
    /// Builds an instance from dataset parameters.
    pub fn new(params: &WebGraphParams, blocks: usize, iters: usize) -> Self {
        PageRank {
            web: webgraph::generate(params),
            blocks,
            iters,
        }
    }

    /// The paper's three datasets at reproduction scale, with Table I's
    /// block counts (1800/4100/10500 nodes over 10 iterations).
    pub fn uk2002() -> Self {
        Self::new(&WebGraphParams::uk2002(), 180, 10)
    }

    /// twitter-2010-like instance.
    pub fn twitter2010() -> Self {
        Self::new(&WebGraphParams::twitter2010(), 410, 10)
    }

    /// uk-2007-05-like instance.
    pub fn uk2007() -> Self {
        Self::new(&WebGraphParams::uk2007(), 1050, 10)
    }

    /// A small instance for tests.
    pub fn small() -> Self {
        Self::new(
            &WebGraphParams {
                nv: 3000,
                avg_deg: 8,
                out_alpha: 2.0,
                target_alpha: 2.0,
                locality: 0.8,
                seed: 99,
            },
            24,
            8,
        )
    }

    fn block_of(&self, v: usize) -> usize {
        let base = self.web.nv / self.blocks;
        let rem = self.web.nv % self.blocks;
        let cutoff = rem * (base + 1);
        if base == 0 {
            return v.min(self.blocks - 1);
        }
        if v < cutoff {
            v / (base + 1)
        } else {
            rem + (v - cutoff) / base
        }
    }

    /// One pass over the in-edges. Blocks are contiguous vertex ranges,
    /// so each block's in-edges are one slice of the transposed CSR and
    /// the blocks are visited in order: each block's in-neighbour blocks
    /// are counted into dense per-block counters, and every reader list is
    /// appended to in increasing block order — sorted and duplicate-free
    /// as it is built.
    fn deps(&self) -> BlockDeps {
        // Most edges of a local web graph come from the block they enter:
        // counted over a few lanes per source block, a run of them is not
        // one chain of dependent increments.
        const LANES: usize = 4;
        let web = &self.web;
        let block: Vec<u32> = (0..web.nv).map(|v| self.block_of(v) as u32).collect();
        let mut incoming = vec![Vec::new(); self.blocks];
        let mut readers = vec![Vec::new(); self.blocks];
        let mut verts = vec![0usize; self.blocks];
        let mut in_edges = vec![0u64; self.blocks];
        // Edges into the block in hand from each block; the last block
        // each block was counted for; the blocks counted for this one.
        let mut count = vec![0u32; self.blocks * LANES];
        let mut counted_for = vec![usize::MAX; self.blocks];
        let mut sources: Vec<usize> = Vec::new();
        let mut first = 0;
        for b in 0..self.blocks {
            let end = first
                + block[first..]
                    .iter()
                    .take_while(|&&vb| vb as usize == b)
                    .count();
            let ins = &web.in_adj[web.in_off[first] as usize..web.in_off[end] as usize];
            verts[b] = end - first;
            in_edges[b] = ins.len() as u64;
            first = end;
            for (i, &s) in ins.iter().enumerate() {
                let sb = block[s as usize] as usize;
                if counted_for[sb] != b {
                    counted_for[sb] = b;
                    sources.push(sb);
                }
                count[sb * LANES + i % LANES] += 1;
            }
            sources.sort_unstable();
            for &sb in &sources {
                let lanes = &mut count[sb * LANES..][..LANES];
                incoming[b].push((sb, lanes.iter().sum()));
                lanes.fill(0);
                // Task (t, b) reads rank[sb]: block sb's next writer must
                // wait for it.
                readers[sb].push(b);
            }
            sources.clear();
        }
        BlockDeps {
            incoming,
            readers,
            verts,
            in_edges,
        }
    }

    /// Work and memory accesses of block `b`'s task in every iteration,
    /// colored for `p` workers.
    fn block_task(&self, deps: &BlockDeps, b: usize, p: usize) -> (u64, Vec<NodeAccess>) {
        let own = Color::from(block_owner(b, self.blocks, p));
        // The input block is "accessed regularly" (paper §V): its
        // rank/next arrays plus its in-adjacency lists all live in
        // the block's own region.
        let mut accesses = vec![NodeAccess {
            owner: own,
            bytes: (deps.verts[b] * 16) as u64 + deps.in_edges[b] * 6,
        }];
        for &(sb, edges) in &deps.incoming[b] {
            if sb != b {
                accesses.push(NodeAccess {
                    owner: Color::from(block_owner(sb, self.blocks, p)),
                    bytes: edges as u64 * 8,
                });
            }
        }
        // Work ∝ edges scanned + vertices updated.
        (deps.in_edges[b] * 2 + deps.verts[b] as u64, accesses)
    }

    /// Task graph for `p` workers: `iters × blocks` nodes, colored by the
    /// block owner ("we color each task based on the block of pages it
    /// takes as input"). Each block's task and predecessor blocks are
    /// worked out once and repeated per iteration: the block's first
    /// task is the home of its tasks in every later iteration.
    pub fn task_graph(&self, p: usize) -> TaskGraph {
        let deps = self.deps();
        // True dependences (read rank of in-neighbor blocks),
        // anti-dependences (previous iteration's readers of this block
        // must finish before we overwrite it — the WAR hazard of double
        // buffering), and the block itself.
        let preds: Vec<Vec<usize>> = (0..self.blocks)
            .map(|b| {
                let mut preds: Vec<usize> = deps.incoming[b].iter().map(|&(sb, _)| sb).collect();
                preds.extend(&deps.readers[b]);
                preds.push(b);
                preds.sort_unstable();
                preds.dedup();
                preds
            })
            .collect();
        let n = self.iters * self.blocks;
        let m = self.iters.saturating_sub(1) * preds.iter().map(Vec::len).sum::<usize>();
        let mut gb = GraphBuilder::with_capacity(n, m);
        let id = |t: usize, b: usize| (t * self.blocks + b) as NodeId;
        let mut work = vec![0; self.blocks];
        for t in 0..self.iters {
            for (b, work) in work.iter_mut().enumerate() {
                let own = Color::from(block_owner(b, self.blocks, p));
                if t == 0 {
                    let (w, accesses) = self.block_task(&deps, b, p);
                    *work = w;
                    gb.add_node(w, own, accesses);
                } else {
                    gb.add_node_at(*work, own, id(0, b));
                }
            }
        }
        for t in 1..self.iters {
            for (b, preds) in preds.iter().enumerate() {
                for &sb in preds {
                    gb.add_edge(id(t - 1, sb), id(t, b));
                }
            }
        }
        gb.build().expect("pagerank graph is acyclic")
    }

    /// Serial reference power iteration; returns the final ranks.
    pub fn run_serial(&self) -> Vec<f64> {
        let nv = self.web.nv;
        let mut rank = vec![1.0 / nv as f64; nv];
        let mut next = vec![0.0f64; nv];
        for _ in 0..self.iters {
            for (v, slot) in next.iter_mut().enumerate() {
                let mut sum = 0.0;
                for &s in self.web.in_neighbors(v) {
                    let s = s as usize;
                    sum += rank[s] / self.web.out_degree(s) as f64;
                }
                *slot = (1.0 - DAMPING) / nv as f64 + DAMPING * sum;
            }
            std::mem::swap(&mut rank, &mut next);
        }
        rank
    }

    /// Task-graph execution; returns the final ranks.
    pub fn run_taskgraph(&self, exec: &StaticExecutor) -> Vec<f64> {
        let p = exec.pool().workers();
        let graph = Arc::new(self.task_graph(p));
        let nv = self.web.nv;
        let blocks = self.blocks;
        let iters = self.iters;

        let rank = Arc::new(SharedBuffer::from_vec(vec![1.0 / nv as f64; nv]));
        let next = Arc::new(SharedBuffer::new(nv, 0.0f64));
        let web = Arc::new(self.web.clone());

        let r2 = rank.clone();
        let n2 = next.clone();
        exec.execute(
            &graph,
            Arc::new(move |u: NodeId, _w: usize| {
                let t = u as usize / blocks;
                let b = u as usize % blocks;
                let range = block_range(nv, blocks, b);
                let (src, dst) = if t.is_multiple_of(2) {
                    (&r2, &n2)
                } else {
                    (&n2, &r2)
                };
                // SAFETY: block-disjoint writes; reads of the previous
                // buffer ordered by the block dependence edges.
                unsafe {
                    let dst = dst.slice_mut(range.start, range.end);
                    for (k, v) in range.clone().enumerate() {
                        let mut sum = 0.0;
                        for &s in web.in_neighbors(v) {
                            let s = s as usize;
                            sum += src.read(s) / web.out_degree(s) as f64;
                        }
                        dst[k] = (1.0 - DAMPING) / nv as f64 + DAMPING * sum;
                    }
                }
            }),
        );

        let final_buf = if iters % 2 == 1 { next } else { rank };
        Arc::try_unwrap(final_buf)
            .unwrap_or_else(|_| panic!("rank buffer still shared"))
            .into_vec()
    }

    /// Per-block work imbalance factor (max/mean edge count) — the
    /// irregularity indicator.
    pub fn imbalance(&self) -> f64 {
        let deps = self.deps();
        let max = *deps.in_edges.iter().max().unwrap_or(&0) as f64;
        let mean = deps.in_edges.iter().sum::<u64>() as f64 / self.blocks as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_runtime::{Pool, PoolConfig};

    #[test]
    fn table1_node_counts() {
        // Node counts match Table I: 1800 / 4100 / 10500.
        let uk02 = PageRank::small(); // cheap stand-in for structure checks
        assert_eq!(uk02.task_graph(4).node_count(), uk02.iters * uk02.blocks);
        assert_eq!(PageRank::uk2002().iters * 180, 1800);
        assert_eq!(PageRank::twitter2010().iters * 410, 4100);
        assert_eq!(PageRank::uk2007().iters * 1050, 10500);
    }

    #[test]
    fn ranks_sum_to_one() {
        let pr = PageRank::small();
        let ranks = pr.run_serial();
        let sum: f64 = ranks.iter().sum();
        // Dangling nodes leak a little mass; with avg degree 8 the leak is
        // tiny. The power method keeps the sum near 1.
        assert!((0.5..=1.000001).contains(&sum), "rank sum {sum}");
        assert!(ranks.iter().all(|&r| r > 0.0));
    }

    #[test]
    fn parallel_matches_serial() {
        let pr = PageRank::small();
        let serial = pr.run_serial();
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(6)));
        let exec = StaticExecutor::new(pool);
        let par = pr.run_taskgraph(&exec);
        for (i, (s, q)) in serial.iter().zip(par.iter()).enumerate() {
            assert!(
                (s - q).abs() < 1e-12,
                "rank[{i}]: serial {s} vs parallel {q}"
            );
        }
    }

    #[test]
    fn work_is_imbalanced() {
        let pr = PageRank::small();
        assert!(
            pr.imbalance() > 1.5,
            "power-law graph should give imbalanced blocks: {}",
            pr.imbalance()
        );
    }

    #[test]
    fn block_of_partitions() {
        let pr = PageRank::small();
        let mut counts = vec![0usize; pr.blocks];
        for v in 0..pr.web.nv {
            counts[pr.block_of(v)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), pr.web.nv);
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    /// The dependence summary as ordered maps and sets build it, one
    /// insertion per in-edge: what the dense pass must reproduce.
    fn deps_by_btree(pr: &PageRank) -> BlockDeps {
        use std::collections::{BTreeMap, BTreeSet};
        let mut incoming: Vec<BTreeMap<usize, u32>> = vec![BTreeMap::new(); pr.blocks];
        let mut readers: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); pr.blocks];
        let mut verts = vec![0usize; pr.blocks];
        let mut in_edges = vec![0u64; pr.blocks];
        for v in 0..pr.web.nv {
            let b = pr.block_of(v);
            verts[b] += 1;
            for &s in pr.web.in_neighbors(v) {
                let sb = pr.block_of(s as usize);
                *incoming[b].entry(sb).or_insert(0) += 1;
                in_edges[b] += 1;
                readers[sb].insert(b);
            }
        }
        BlockDeps {
            incoming: incoming
                .into_iter()
                .map(|m| m.into_iter().collect())
                .collect(),
            readers: readers
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
            verts,
            in_edges,
        }
    }

    #[test]
    fn dense_deps_match_the_ordered_map_reference() {
        let params = |nv, locality, seed| WebGraphParams {
            nv,
            locality,
            seed,
            ..WebGraphParams::uk2002()
        };
        let twitter = WebGraphParams {
            nv: 20_000,
            ..WebGraphParams::twitter2010()
        };
        assert_eq!(twitter.locality, 0.25);
        let instances = [
            PageRank::small(),
            PageRank::new(&params(20_000, 0.97, 2002), 80, 3),
            PageRank::new(&twitter, 410, 3),
            // Fewer vertices than blocks: the `base == 0` branch of
            // `block_of`, with trailing blocks that own no vertex.
            PageRank::new(&params(30, 0.5, 30), 50, 3),
        ];
        for pr in &instances {
            assert_eq!(
                pr.deps(),
                deps_by_btree(pr),
                "nv {} blocks {}",
                pr.web.nv,
                pr.blocks
            );
        }
        assert!(instances[3].web.nv / instances[3].blocks == 0);
    }

    #[test]
    fn the_benchmark_input_graph_is_pinned() {
        for (seed, web_pinned, pinned) in [
            (1, 0xbfb3_0da5_14a4_c4fcu64, 0x246a_3d6f_48c8_b8e0u64),
            (7, 0xd911_8798_29c1_f3e8, 0x2fbb_919a_913f_0c4d),
        ] {
            let pr = PageRank::new(
                &WebGraphParams {
                    seed,
                    ..WebGraphParams::uk2007()
                },
                1050,
                10,
            );
            let web_hash = webgraph::tests::fnv(&pr.web);
            assert_eq!(web_hash, web_pinned, "seed {seed}: web {web_hash:#018x}");
            let hash = crate::fnv::graph(&pr.task_graph(2));
            assert_eq!(hash, pinned, "seed {seed}: {hash:#018x}");
        }
    }
}
