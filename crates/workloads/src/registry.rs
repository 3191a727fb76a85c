//! Benchmark registry: Table I's ten benchmarks behind one interface, for
//! the figure/table harnesses.
//!
//! [`build`] makes a benchmark's task graph and nothing else; [`loops`]
//! makes the OpenMP loop nest of the same computation, for the callers
//! that simulate OpenMP schedules. Each builds its input once (a PageRank
//! web graph included), so a caller pays only for the form it reads.

use crate::{cg, fdtd, heat, life, mg, pagerank, sw};
use nabbitc_graph::TaskGraph;
use nabbitc_numasim::LoopNest;

/// The ten benchmarks of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BenchId {
    /// NAS conjugate gradient.
    Cg,
    /// NAS multigrid.
    Mg,
    /// Heat diffusion stencil.
    Heat,
    /// Finite difference time domain.
    Fdtd,
    /// Conway's game of life.
    Life,
    /// PageRank on the uk-2002-like graph.
    PageUk2002,
    /// PageRank on the twitter-2010-like graph.
    PageTwitter2010,
    /// PageRank on the uk-2007-05-like graph.
    PageUk2007,
    /// Smith-Waterman (n³ blocked).
    Sw,
    /// Smith-Waterman (n² blocked).
    Swn2,
}

impl BenchId {
    /// All benchmarks in Table I order.
    pub fn all() -> [BenchId; 10] {
        [
            BenchId::Cg,
            BenchId::Mg,
            BenchId::Heat,
            BenchId::Fdtd,
            BenchId::Life,
            BenchId::PageUk2002,
            BenchId::PageTwitter2010,
            BenchId::PageUk2007,
            BenchId::Sw,
            BenchId::Swn2,
        ]
    }

    /// Table I name.
    pub fn name(self) -> &'static str {
        match self {
            BenchId::Cg => "cg",
            BenchId::Mg => "mg",
            BenchId::Heat => "heat",
            BenchId::Fdtd => "fdtd",
            BenchId::Life => "life",
            BenchId::PageUk2002 => "page-uk-2002",
            BenchId::PageTwitter2010 => "page-twitter-2010",
            BenchId::PageUk2007 => "page-uk-2007-05",
            BenchId::Sw => "sw",
            BenchId::Swn2 => "swn2",
        }
    }
}

/// A built benchmark: its task graph for a given worker count. The
/// OpenMP loop nest of the same computation is built on request by
/// [`loops`].
pub struct Built {
    /// Benchmark id.
    pub id: BenchId,
    /// Task graph (colored for `p` workers).
    pub graph: TaskGraph,
}

/// Problem scale: divisors applied to the paper's Table I sizes so sweeps
/// finish in container time. `Paper` = Table I node counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Full Table I node counts.
    Paper,
    /// ~1/4 of the node count (default for the harnesses).
    Medium,
    /// ~1/16 (quick runs, tests).
    Small,
    /// ~1/64 (CI smoke runs of the results-regeneration binaries; not a
    /// scale to report numbers from).
    Tiny,
}

impl Scale {
    /// The divisor applied to block counts.
    pub fn divisor(self) -> usize {
        match self {
            Scale::Paper => 1,
            Scale::Medium => 4,
            Scale::Small => 16,
            Scale::Tiny => 64,
        }
    }
}

/// Builds benchmark `id`'s task graph at `scale` for `p` workers.
/// PageRank instances scale their web graphs by the same divisor.
pub fn build(id: BenchId, scale: Scale, p: usize) -> Built {
    let d = scale.divisor();
    let graph = match id {
        BenchId::Cg => cg::graph(d, p),
        BenchId::Mg => mg::graph(d, p),
        BenchId::Heat => heat::graph(d, p),
        BenchId::Fdtd => fdtd::graph(d, p),
        BenchId::Life => life::graph(d, p),
        BenchId::PageUk2002 | BenchId::PageTwitter2010 | BenchId::PageUk2007 => {
            build_pagerank_for(id, scale, p).task_graph(p)
        }
        BenchId::Sw => sw::graph_from_shape(&sw::shape_sw(d), p),
        BenchId::Swn2 => sw::graph_from_shape(&sw::shape_swn2(d), p),
    };
    Built { id, graph }
}

/// Builds benchmark `id`'s OpenMP loop nest at `scale` for `p` workers:
/// the computation [`build`]'s graph describes, as barrier-separated
/// parallel loops, for the callers that simulate OpenMP schedules.
pub fn loops(id: BenchId, scale: Scale, p: usize) -> LoopNest {
    let d = scale.divisor();
    match id {
        BenchId::Cg => cg::loops(d, p),
        BenchId::Mg => mg::loops(d, p),
        BenchId::Heat => heat::loops(d, p),
        BenchId::Fdtd => fdtd::loops(d, p),
        BenchId::Life => life::loops(d, p),
        BenchId::PageUk2002 | BenchId::PageTwitter2010 | BenchId::PageUk2007 => {
            build_pagerank_for(id, scale, p).loops(p)
        }
        BenchId::Sw => sw::loops_from_shape(&sw::shape_sw(d), p),
        BenchId::Swn2 => sw::loops_from_shape(&sw::shape_swn2(d), p),
    }
}

/// Builds benchmark `id` with the hand coloring *erased*: every node is
/// `Color(0)` and its accesses are re-homed there, as if a user handed us
/// the bare task structure with no data-distribution knowledge. This is
/// the input the `nabbitc-autocolor` assigners consume; structure, work,
/// and footprints are identical to [`build`], so hand-vs-auto comparisons
/// are apples to apples.
pub fn build_uncolored(id: BenchId, scale: Scale, p: usize) -> Built {
    let mut built = build(id, scale, p);
    built.graph.strip_colors();
    built
}

/// Builds a PageRank instance for tests/examples (no worker-count floor).
pub fn build_pagerank(id: BenchId, scale: Scale) -> pagerank::PageRank {
    build_pagerank_for(id, scale, 1)
}

fn build_pagerank_for(id: BenchId, scale: Scale, p: usize) -> pagerank::PageRank {
    use crate::webgraph::WebGraphParams;
    let d = scale.divisor();
    let (mut params, blocks, iters) = match id {
        BenchId::PageUk2002 => (WebGraphParams::uk2002(), 180, 10),
        BenchId::PageTwitter2010 => (WebGraphParams::twitter2010(), 410, 10),
        BenchId::PageUk2007 => (WebGraphParams::uk2007(), 1050, 10),
        _ => unreachable!("not a pagerank id"),
    };
    // Scale vertices AND blocks together so vertices-per-block (and hence
    // the block dependence density) stays constant across scales; only
    // Scale::Paper must reproduce Table I's node counts.
    params.nv = (params.nv / d).max(2_000);
    // Never fewer blocks than workers: every color must appear in the
    // graph or workers with absent colors would violate Theorem 1's
    // "all colors near the root" assumption (and idle under the forced
    // first colored steal).
    let blocks = (blocks / d).max(32).max(p);
    pagerank::PageRank::new(&params, blocks, iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_graph::analysis;

    #[test]
    fn all_ten_build_small() {
        for id in BenchId::all() {
            let b = build(id, Scale::Small, 8);
            assert!(b.graph.node_count() > 0, "{}", id.name());
            assert!(
                analysis::all_work_reaches_sinks(&b.graph),
                "{} has dead work",
                id.name()
            );
            let loops = loops(id, Scale::Small, 8);
            let total_loop_iters: usize = loops.phases.iter().map(|p| p.iters.len()).sum();
            assert!(total_loop_iters > 0, "{} loop nest empty", id.name());
        }
    }

    #[test]
    fn paper_scale_node_counts_match_table1() {
        // Graph sizes at Scale::Paper must reproduce Table I's task graph
        // node counts (mg is approximate; see mg::shape).
        let expect = [
            (BenchId::Cg, 301, 301),
            (BenchId::Heat, 102_400, 102_400),
            (BenchId::Fdtd, 102_400, 102_400),
            (BenchId::Life, 102_400, 102_400),
            (BenchId::PageUk2002, 1_800, 1_800),
            (BenchId::PageTwitter2010, 4_100, 4_100),
            (BenchId::PageUk2007, 10_500, 10_500),
            (BenchId::Sw, 25_600, 25_600),
            (BenchId::Swn2, 16_384, 16_384),
        ];
        for (id, lo, hi) in expect {
            let b = build(id, Scale::Paper, 8);
            let n = b.graph.node_count();
            assert!(
                (lo..=hi).contains(&n),
                "{}: {} nodes, Table I says {}..={}",
                id.name(),
                n,
                lo,
                hi
            );
        }
    }

    #[test]
    fn graphs_have_parallelism() {
        for id in BenchId::all() {
            let b = build(id, Scale::Small, 8);
            let a = analysis::analyze(&b.graph);
            assert!(
                a.parallelism > 1.5,
                "{} parallelism {} too low",
                id.name(),
                a.parallelism
            );
        }
    }

    #[test]
    fn uncolored_variant_preserves_structure_and_strips_colors() {
        use nabbitc_color::Color;
        let hand = build(BenchId::Heat, Scale::Small, 8);
        let bare = build_uncolored(BenchId::Heat, Scale::Small, 8);
        assert_eq!(hand.graph.node_count(), bare.graph.node_count());
        assert_eq!(hand.graph.edge_count(), bare.graph.edge_count());
        for u in bare.graph.nodes() {
            assert_eq!(bare.graph.color(u), Color(0));
            assert_eq!(bare.graph.work(u), hand.graph.work(u));
            assert_eq!(bare.graph.footprint(u), hand.graph.footprint(u));
            assert!(bare.graph.accesses(u).iter().all(|a| a.owner == Color(0)));
        }
        // The hand-colored build really does use more than one color.
        assert!(hand.graph.nodes().any(|u| hand.graph.color(u) != Color(0)));
    }

    #[test]
    fn every_benchmark_annotates_byte_footprints() {
        // The bandwidth-aware cost layer is only as good as its inputs:
        // every Table I benchmark must annotate real byte footprints
        // (stencil halos, sw border rows, pagerank edge lists), and the
        // memory-bound families must actually be memory-bound under the
        // default model (bytes outweigh work ticks).
        for id in BenchId::all() {
            let b = build(id, Scale::Small, 8);
            let with_bytes = b
                .graph
                .nodes()
                .filter(|&u| b.graph.footprint(u) > 0)
                .count();
            assert!(
                with_bytes * 10 >= b.graph.node_count() * 9,
                "{}: only {with_bytes}/{} nodes carry bytes",
                id.name(),
                b.graph.node_count()
            );
        }
        for id in [BenchId::Heat, BenchId::Fdtd, BenchId::Life, BenchId::Sw] {
            let b = build(id, Scale::Small, 8);
            let bytes: u64 = b.graph.nodes().map(|u| b.graph.footprint(u)).sum();
            let work: u64 = b.graph.nodes().map(|u| b.graph.work(u)).sum();
            assert!(
                bytes > work,
                "{}: bytes {bytes} do not dominate work {work}",
                id.name()
            );
        }
        // Stencil halos and sw borders are multi-region: interior nodes
        // read neighbors' regions, so the hand-colored builds must carry
        // more than one access per interior node.
        for id in [BenchId::Heat, BenchId::Sw] {
            let b = build(id, Scale::Small, 8);
            assert!(
                b.graph.nodes().any(|u| b.graph.accesses(u).len() > 1),
                "{}: no multi-region accesses",
                id.name()
            );
        }
    }

    #[test]
    fn pagerank_variants_differ_in_skew() {
        let uk = build_pagerank(BenchId::PageUk2002, Scale::Small);
        let tw = build_pagerank(BenchId::PageTwitter2010, Scale::Small);
        assert!(
            tw.imbalance() > uk.imbalance(),
            "twitter {} should be more imbalanced than uk {}",
            tw.imbalance(),
            uk.imbalance()
        );
    }
}
