//! Benchmark registry: Table I's ten benchmarks behind one interface, for
//! the figure/table harnesses.
//!
//! [`build`] makes a benchmark's task graph: the one description of its
//! computation that every scheduler, the simulated OpenMP loops included,
//! reads.

use crate::{cg, fdtd, heat, life, mg, pagerank, sw};
use nabbitc_graph::TaskGraph;

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

/// A built benchmark: its task graph for a given worker count.
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

    /// The iterated benchmarks revisit each data block at every step, so
    /// a block is one home (fdtd's one per field, E or H); the others'
    /// nodes are their own homes.
    #[test]
    fn iterated_benchmarks_have_one_home_per_block() {
        for id in BenchId::all() {
            let g = build(id, Scale::Small, 8).graph;
            let steps = match id {
                BenchId::Heat | BenchId::Fdtd | BenchId::Life => 5,
                BenchId::PageUk2002 | BenchId::PageTwitter2010 | BenchId::PageUk2007 => 10,
                BenchId::Cg | BenchId::Mg | BenchId::Sw | BenchId::Swn2 => 1,
            };
            assert_eq!(g.home_count() * steps, g.node_count(), "{}", id.name());
            // The first step's nodes are the homes, in block order.
            for u in g.nodes() {
                let home = u as usize % g.home_count();
                assert_eq!(g.home(u) as usize, home, "{} node {u}", id.name());
            }
        }
    }

    /// FNV-1a over a graph as [`crate::fnv::graph`] hashes it, then
    /// every node's footprint.
    fn graph_pin(g: &TaskGraph) -> u64 {
        let mut h = crate::fnv::Fnv::new();
        h.eat(crate::fnv::graph(g));
        g.nodes().for_each(|u| h.eat(g.footprint(u)));
        h.finish()
    }

    /// Every Table I graph at `Scale::Small` for 2 and 8 workers, and
    /// heat at `Scale::Medium` for 2: as built, after `strip_colors`, and
    /// recolored round-robin. Nothing that stores a graph differently may
    /// move a node's work, color, footprint, edges, accesses or order.
    #[test]
    fn every_benchmark_graph_is_pinned() {
        use nabbitc_color::Color;
        let graphs = BenchId::all()
            .into_iter()
            .flat_map(|id| [(id, Scale::Small, 2), (id, Scale::Small, 8)])
            .chain([(BenchId::Heat, Scale::Medium, 2)]);
        #[rustfmt::skip]
        let pins: [[u64; 3]; 21] = [
            [0xb916_8c58_f750_a47d, 0xe5f6_fb43_313c_f4f4, 0xd26e_9766_fdd7_60ad], // cg Small P = 2
            [0xb901_a103_ceb2_8aa2, 0xe5f6_fb43_313c_f4f4, 0x80f1_4462_64da_a45d], // cg Small P = 8
            [0xdac4_fc9c_ac4a_1ff3, 0x8b1f_c8bc_9831_8ca5, 0xdee2_892b_b3ac_ae5f], // mg Small P = 2
            [0x8d6e_1973_ccc0_f791, 0x8b1f_c8bc_9831_8ca5, 0xb57b_eb50_0361_91b5], // mg Small P = 8
            [0xf0c6_814b_4672_8079, 0x3e7a_11d7_2b6f_5278, 0x60a1_2370_f793_d7f1], // heat Small P = 2
            [0x8a38_b344_52dc_44f9, 0x3e7a_11d7_2b6f_5278, 0x6222_2141_fa51_8802], // heat Small P = 8
            [0x2fcd_bf31_c726_f894, 0x140e_3e6c_7087_5e11, 0x565e_290b_631b_813e], // fdtd Small P = 2
            [0xca1c_15b8_7d83_09cb, 0x140e_3e6c_7087_5e11, 0x861f_d876_5a79_80f8], // fdtd Small P = 8
            [0x9a93_575c_7c5e_7442, 0x4b28_cb98_3fdd_3ce2, 0x836d_d01f_f578_4633], // life Small P = 2
            [0xd06e_6561_2fee_a5f6, 0x4b28_cb98_3fdd_3ce2, 0x8d8a_e87f_5843_2547], // life Small P = 8
            [0x1040_bc22_8454_f9fb, 0x37b3_cfec_11c2_7a6c, 0x1525_757f_d94c_63fd], // page-uk-2002 Small P = 2
            [0xe303_0f1f_540b_221e, 0x37b3_cfec_11c2_7a6c, 0x87e1_769a_3443_2f4e], // page-uk-2002 Small P = 8
            [0xd4df_75eb_b4f8_a665, 0x8706_1733_5aba_4750, 0x4cfb_5675_2791_a738], // page-twitter-2010 Small P = 2
            [0x8c28_a337_b8dd_55bd, 0x8706_1733_5aba_4750, 0xa7af_680c_926c_e58d], // page-twitter-2010 Small P = 8
            [0xfd4d_bba9_2fa1_899f, 0x375d_6e92_8fda_b90e, 0x911c_2572_3271_0891], // page-uk-2007-05 Small P = 2
            [0x6b0f_3095_c113_d0b6, 0x375d_6e92_8fda_b90e, 0xfea8_ea89_d384_de01], // page-uk-2007-05 Small P = 8
            [0xe987_5179_abbb_3ae5, 0xc210_ebdc_914d_74f9, 0xad0c_b56f_25c5_d61d], // sw Small P = 2
            [0x8873_999d_2f17_5716, 0xc210_ebdc_914d_74f9, 0xd4c4_b1e4_0250_da3d], // sw Small P = 8
            [0x8ef0_d9c8_b98d_8944, 0xab8e_e3a5_844c_3611, 0x1bc1_952c_a55c_a101], // swn2 Small P = 2
            [0x92d9_e632_6d61_2512, 0xab8e_e3a5_844c_3611, 0x7b67_331e_5963_a266], // swn2 Small P = 8
            [0xa1c0_2349_6600_17d7, 0x09ff_cc4b_bdd9_7a9e, 0x91e0_3552_fabe_3ded], // heat Medium P = 2
        ];
        for ((id, scale, p), pin) in graphs.zip(pins) {
            let hand = build(id, scale, p).graph;
            let mut stripped = hand.clone();
            stripped.strip_colors();
            let round_robin: Vec<Color> =
                hand.nodes().map(|u| Color::from(u as usize % p)).collect();
            let hashes =
                [hand.clone(), stripped, hand.recolored(&round_robin)].map(|g| graph_pin(&g));
            assert_eq!(
                hashes,
                pin,
                "{} {scale:?} P = {p}: {hashes:#018x?}",
                id.name()
            );
        }
    }

    #[test]
    fn pagerank_variants_differ_in_skew() {
        let uk = build_pagerank_for(BenchId::PageUk2002, Scale::Small, 1);
        let tw = build_pagerank_for(BenchId::PageTwitter2010, Scale::Small, 1);
        assert!(
            tw.imbalance() > uk.imbalance(),
            "twitter {} should be more imbalanced than uk {}",
            tw.imbalance(),
            uk.imbalance()
        );
    }
}
