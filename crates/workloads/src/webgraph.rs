//! Synthetic power-law web graphs.
//!
//! The paper evaluates PageRank on three LAW web crawls (uk-2002,
//! twitter-2010, uk-2007-05) that are not redistributable here. What the
//! scheduler comparison actually depends on is (a) power-law work imbalance
//! across vertex blocks and (b) the cross-block structure of in-edges; this
//! generator controls both with two knobs:
//!
//! * `out_alpha` — tail exponent of the out-degree distribution (smaller =
//!   heavier tail; twitter-2010 "shows wider variation in its connectivity
//!   (e.g., much larger maximum out-degree)" than the uk crawls);
//! * `target_alpha` — skew of target-vertex popularity (preferential-
//!   attachment-like in-degree concentration).
//!
//! Generation is seeded and deterministic. The draw layout is the
//! invariant every optimisation of [`generate`] keeps: one stream, first
//! `nv` draws for the out-degrees, then exactly three draws per edge in
//! source order — the locality test, then either the near offset and its
//! direction or the hub and the position inside it. A draw is one 64-bit
//! word of the stream whether it is read as a float, a bit or a table
//! index (`PowerLaw::sample` reads the word itself). Moving one draw
//! changes every graph after it, which the preset pins in this module's
//! tests and in `pagerank`'s would catch, and so would the oracle test
//! against a branchy reference draw.
//!
//! The out-degrees are drawn first, so the out-list is allocated at its
//! exact length before any edge is drawn, and each target's in-degree is
//! counted as its edge is drawn. The transpose then reads the out-list
//! once, to scatter the sources into the in-lists.

use crate::util::PowerLaw;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct WebGraphParams {
    /// Vertices.
    pub nv: usize,
    /// Average out-degree (edges ≈ nv × avg_deg).
    pub avg_deg: usize,
    /// Out-degree tail exponent (>1; smaller = heavier tail).
    pub out_alpha: f64,
    /// Target popularity skew exponent (>1).
    pub target_alpha: f64,
    /// Fraction of edges that stay near their source in id space (real web
    /// crawls in URL order are strongly near-diagonal: most links are
    /// intra-host). The rest are global power-law links.
    pub locality: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WebGraphParams {
    /// uk-2002-like: moderate skew. Scaled from nv=18M to container size.
    pub fn uk2002() -> Self {
        WebGraphParams {
            nv: 45_000,
            avg_deg: 16,
            out_alpha: 2.4,
            target_alpha: 2.2,
            locality: 0.97,
            seed: 0x0002_2002,
        }
    }

    /// twitter-2010-like: extreme out-degree tail (max out-degree in the
    /// millions on the real crawl).
    pub fn twitter2010() -> Self {
        WebGraphParams {
            nv: 102_500,
            avg_deg: 35,
            out_alpha: 1.7,
            target_alpha: 1.8,
            // Social graphs have far weaker id-space locality than URL-
            // ordered web crawls — twitter defeats locality strategies
            // (paper §V-B: "all strategies incur a high percentage of
            // remote accesses for twitter-2010").
            locality: 0.25,
            seed: 0x0020_2010,
        }
    }

    /// uk-2007-05-like: the largest crawl, moderate skew.
    pub fn uk2007() -> Self {
        WebGraphParams {
            nv: 262_500,
            avg_deg: 14,
            out_alpha: 2.4,
            target_alpha: 2.2,
            locality: 0.97,
            seed: 0x2007_0005,
        }
    }
}

/// A directed graph as its readers need it: the in-edges in CSR form
/// and the out-degrees, as CSR offsets. The out-edge targets are dropped
/// once transposed.
#[derive(Clone, Debug)]
pub struct WebGraph {
    /// Vertices.
    pub nv: usize,
    /// Out-edge offsets (len nv+1).
    pub out_off: Vec<u32>,
    /// In-edge offsets (len nv+1).
    pub in_off: Vec<u32>,
    /// In-edge sources.
    pub in_adj: Vec<u32>,
}

impl WebGraph {
    /// Number of edges.
    pub fn ne(&self) -> usize {
        self.in_adj.len()
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: usize) -> usize {
        (self.out_off[v + 1] - self.out_off[v]) as usize
    }

    /// In-neighbors of `v`.
    pub fn in_neighbors(&self, v: usize) -> &[u32] {
        &self.in_adj[self.in_off[v] as usize..self.in_off[v + 1] as usize]
    }

    /// Maximum out-degree (the skew indicator the paper cites for
    /// twitter-2010).
    pub fn max_out_degree(&self) -> usize {
        (0..self.nv).map(|v| self.out_degree(v)).max().unwrap_or(0)
    }
}

/// Number of "hub" regions global links concentrate into — popular hosts.
/// Spread at regular intervals across the id space so they land in
/// different blocks/domains.
const HUBS: usize = 16;

/// Generates a graph.
///
/// One pass draws the edges into an out-list of exact length and counts
/// each target's in-degree as the edge is drawn; one more pass over that
/// list scatters the sources into the in-lists.
pub fn generate(params: &WebGraphParams) -> WebGraph {
    let nv = params.nv;
    assert!(nv > 1);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let out_off = out_offsets(params, &mut rng);
    let ne = out_off[nv] as usize;

    // Global links go to hub regions (popular hosts): a power-law choice
    // of hub, uniform within the hub's id window. This reproduces the two
    // properties the paper's datasets have at block granularity: global
    // in-links concentrate into few blocks (work imbalance) while the
    // *distinct* predecessor-block sets stay small (dependence sparsity).
    let hub_law = PowerLaw::new(HUBS, params.target_alpha);
    let hub_width = (nv / 64).max(1);
    let hub_stride = nv / HUBS;
    // Near links: offsets concentrated within a small id window.
    let near_law = PowerLaw::new((nv / 512).max(2), 1.8);
    // `x mod nv` for `x < 2·nv`, without a division. Every wraparound
    // below qualifies: v < nv, and an offset is at most max(nv/512, 2) ≤ nv.
    let wrap = |x: usize| {
        debug_assert!(x < 2 * nv);
        if x >= nv {
            x - nv
        } else {
            x
        }
    };
    let mut out_adj = vec![0u32; ne];
    // Target t's in-degree is counted at t + 2, so that after the prefix
    // sum `in_off[t + 1]` is where t's in-list starts; the scatter then
    // advances it to where the list ends, which is `in_off`'s entry for
    // t + 1, and the last, spare entry is dropped.
    let mut in_off = vec![0u32; nv + 2];
    let mut rows = &mut out_adj[..];
    for v in 0..nv {
        let (row, rest) = rows.split_at_mut((out_off[v + 1] - out_off[v]) as usize);
        rows = rest;
        for target in row {
            let mut t = if rng.gen::<f64>() < params.locality {
                // Local link: small signed offset from the source. Both
                // candidates are computed and the direction draw picks
                // one, which a branch would mispredict half the time.
                // Each is wrapped on its own: `wrap` compiles to a branch,
                // predictable per candidate but not after the pick.
                let off = near_law.sample(rng.gen()) + 1;
                let ahead = wrap(v + off);
                let behind = wrap(v + nv - off);
                std::hint::select_unpredictable(rng.gen::<bool>(), ahead, behind)
            } else {
                // At most 15·(nv/16) + nv/64 - 1 < nv: no wraparound.
                let hub = hub_law.sample(rng.gen());
                hub * hub_stride + rng.gen_range(0..hub_width)
            };
            if t == v {
                t = wrap(t + 1); // no self loops
            }
            *target = t as u32;
            in_off[t + 2] += 1;
        }
    }

    // Transpose: sources in ascending order within each in-list.
    for i in 2..nv + 2 {
        in_off[i] += in_off[i - 1];
    }
    let mut in_adj = vec![0u32; ne];
    for v in 0..nv {
        for &t in &out_adj[out_off[v] as usize..out_off[v + 1] as usize] {
            let slot = &mut in_off[t as usize + 1];
            in_adj[*slot as usize] = v as u32;
            *slot += 1;
        }
    }
    in_off.pop();

    WebGraph {
        nv,
        out_off,
        in_off,
        in_adj,
    }
}

/// The out-edge offsets: the first `nv` draws of `rng` are the
/// out-degrees, adjusted to the requested average and summed in place.
fn out_offsets(params: &WebGraphParams, rng: &mut StdRng) -> Vec<u32> {
    let nv = params.nv;
    // Out-degrees: power law scaled to hit the requested average. A sample
    // is below 2^22, so a degree fits a `u32`.
    let deg_law = PowerLaw::new(nv.min(1 << 22), params.out_alpha);
    let mut out_off = vec![0u32; nv + 1];
    let degs = &mut out_off[1..];
    for d in degs.iter_mut() {
        *d = deg_law.sample(rng.gen()) as u32 + 1;
    }
    let sum: usize = degs.iter().map(|&d| d as usize).sum();
    let want = nv * params.avg_deg;
    // Hit the requested average without distorting the tail: if the raw
    // mean is too low, add a uniform base degree (tail untouched); if too
    // high (very heavy tails), scale down multiplicatively.
    if sum < want {
        let base = u32::try_from((want - sum) / nv).expect("degree fits u32");
        let mut extra = (want - sum) % nv;
        for d in degs.iter_mut() {
            *d += base + u32::from(extra > 0);
            extra = extra.saturating_sub(1);
        }
    } else if sum > want {
        let scale = want as f64 / sum as f64;
        for d in degs.iter_mut() {
            *d = ((f64::from(*d) * scale).round() as u32).max(1);
        }
    }
    for v in 0..nv {
        out_off[v + 1] = out_off[v]
            .checked_add(out_off[v + 1])
            .expect("edge count fits u32");
    }
    out_off
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// FNV-1a over the arrays the graph keeps, each value fed as a
    /// little-endian u64: the vertex count, then `out_off`, `in_off` and
    /// `in_adj`.
    pub(crate) fn fnv(g: &WebGraph) -> u64 {
        let mut h = crate::fnv::Fnv::new();
        h.eat(g.nv as u64);
        for values in [&g.out_off, &g.in_off, &g.in_adj] {
            values.iter().for_each(|&x| h.eat(u64::from(x)));
        }
        h.finish()
    }

    /// Every preset at seeds 1 and 7 and at its own seed: the degree
    /// draws, then three draws per edge, must not move. uk2007 at seeds 1
    /// and 7 is the benchmark's input, pinned where `pagerank`'s tests
    /// generate it anyway.
    #[test]
    fn the_preset_graphs_are_pinned() {
        let pins: [(WebGraphParams, u64, u64); 7] = [
            (WebGraphParams::uk2002(), 1, 0x38e0_a1d3_885f_1fea),
            (WebGraphParams::uk2002(), 7, 0x11a0_8b13_3349_1651),
            (WebGraphParams::uk2002(), 0x0002_2002, 0xb156_6765_bee6_ebd6),
            (WebGraphParams::twitter2010(), 1, 0xac6d_4f29_033c_dd49),
            (WebGraphParams::twitter2010(), 7, 0x8836_a9bb_343f_4456),
            (
                WebGraphParams::twitter2010(),
                0x0020_2010,
                0x458c_61b5_e167_fb01,
            ),
            (WebGraphParams::uk2007(), 0x2007_0005, 0x1d1d_37a9_4585_5a95),
        ];
        for (preset, seed, pin) in pins {
            let hash = fnv(&generate(&WebGraphParams { seed, ..preset }));
            assert_eq!(hash, pin, "nv {} seed {seed:#x}: {hash:#018x}", preset.nv);
        }
    }

    /// The out-lists drawn the straightforward way, as the oracle of
    /// [`generate`]: the degrees are `usize`, the direction draw picks a
    /// branch, the out-list grows by `push`, and wraparound is `%`.
    fn reference_out_lists(params: &WebGraphParams) -> (Vec<u32>, Vec<u32>) {
        let nv = params.nv;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let deg_law = PowerLaw::new(nv.min(1 << 22), params.out_alpha);
        let mut degs: Vec<usize> = (0..nv).map(|_| deg_law.sample(rng.gen()) + 1).collect();
        let sum: usize = degs.iter().sum();
        let want = nv * params.avg_deg;
        if sum < want {
            let base = (want - sum) / nv;
            let mut extra = (want - sum) % nv;
            for d in degs.iter_mut() {
                *d += base + usize::from(extra > 0);
                extra = extra.saturating_sub(1);
            }
        } else if sum > want {
            let scale = want as f64 / sum as f64;
            for d in degs.iter_mut() {
                *d = ((*d as f64 * scale).round() as usize).max(1);
            }
        }
        let hub_law = PowerLaw::new(HUBS, params.target_alpha);
        let hub_width = (nv / 64).max(1);
        let hub_stride = nv / HUBS;
        let near_law = PowerLaw::new((nv / 512).max(2), 1.8);
        let mut out_off = vec![0u32];
        let mut out_adj = Vec::new();
        for (v, &d) in degs.iter().enumerate() {
            for _ in 0..d {
                let mut t = if rng.gen::<f64>() < params.locality {
                    let off = near_law.sample(rng.gen()) + 1;
                    if rng.gen::<bool>() {
                        (v + off) % nv
                    } else {
                        (v + nv - off % nv) % nv
                    }
                } else {
                    let hub = hub_law.sample(rng.gen());
                    hub * hub_stride + rng.gen_range(0..hub_width)
                };
                if t == v {
                    t = (t + 1) % nv;
                }
                out_adj.push(t as u32);
            }
            out_off.push(out_adj.len() as u32);
        }
        (out_off, out_adj)
    }

    /// [`reference_out_lists`] transposed through a copy of the in-list
    /// offsets used as cursors.
    fn reference(params: &WebGraphParams) -> WebGraph {
        let nv = params.nv;
        let (out_off, out_adj) = reference_out_lists(params);
        let mut in_off = vec![0u32; nv + 1];
        for &t in &out_adj {
            in_off[t as usize + 1] += 1;
        }
        for i in 0..nv {
            in_off[i + 1] += in_off[i];
        }
        let mut in_adj = vec![0u32; out_adj.len()];
        let mut cur = in_off.clone();
        for v in 0..nv {
            for &t in &out_adj[out_off[v] as usize..out_off[v + 1] as usize] {
                in_adj[cur[t as usize] as usize] = v as u32;
                cur[t as usize] += 1;
            }
        }
        WebGraph {
            nv,
            out_off,
            in_off,
            in_adj,
        }
    }

    /// `generate` and the branchy reference agree array for array: every
    /// preset at seeds 1 and 7, and small graphs where an offset can reach
    /// `nv` (nv 2 and 3), most links are global, or the degrees are scaled
    /// down.
    #[test]
    fn generate_matches_the_branchy_reference() {
        let small = |nv, avg_deg, out_alpha, locality| WebGraphParams {
            nv,
            avg_deg,
            out_alpha,
            target_alpha: 1.8,
            locality,
            seed: 0,
        };
        let presets = [
            WebGraphParams::uk2002(),
            WebGraphParams::twitter2010(),
            WebGraphParams::uk2007(),
            small(2, 3, 2.0, 0.9),
            small(3, 2, 2.0, 0.9),
            small(1500, 9, 2.0, 0.5),
            small(1500, 1, 1.2, 0.8),
        ];
        for preset in presets {
            for seed in [1, 7] {
                let p = WebGraphParams { seed, ..preset };
                let (got, want) = (generate(&p), reference(&p));
                let what = format!("nv {} seed {seed}", p.nv);
                assert_eq!(got.out_off, want.out_off, "{what}: out_off");
                assert_eq!(got.in_off, want.in_off, "{what}: in_off");
                assert_eq!(got.in_adj, want.in_adj, "{what}: in_adj");
            }
        }
    }

    #[test]
    fn deterministic() {
        let p = WebGraphParams {
            nv: 2000,
            avg_deg: 8,
            out_alpha: 2.0,
            target_alpha: 2.0,
            locality: 0.7,
            seed: 5,
        };
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a.out_off, b.out_off);
        assert_eq!(a.in_off, b.in_off);
        assert_eq!(a.in_adj, b.in_adj);
    }

    #[test]
    fn transpose_is_consistent() {
        let p = WebGraphParams {
            nv: 1000,
            avg_deg: 6,
            out_alpha: 2.0,
            target_alpha: 2.0,
            locality: 0.7,
            seed: 7,
        };
        let g = generate(&p);
        // Every out-edge drawn appears as an in-edge, and the out-degrees
        // kept are the ones drawn.
        let (out_off, out_adj) = reference_out_lists(&p);
        assert_eq!(g.out_off, out_off);
        let mut fwd: Vec<(u32, u32)> = Vec::new();
        for v in 0..g.nv {
            for &t in &out_adj[out_off[v] as usize..out_off[v + 1] as usize] {
                fwd.push((v as u32, t));
            }
        }
        let mut bwd: Vec<(u32, u32)> = Vec::new();
        for v in 0..g.nv {
            for &s in g.in_neighbors(v) {
                bwd.push((s, v as u32));
            }
        }
        fwd.sort_unstable();
        bwd.sort_unstable();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn no_self_loops() {
        let g = generate(&WebGraphParams {
            nv: 500,
            avg_deg: 10,
            out_alpha: 1.8,
            target_alpha: 1.8,
            locality: 0.5,
            seed: 3,
        });
        for v in 0..g.nv {
            assert!(!g.in_neighbors(v).contains(&(v as u32)));
        }
    }

    #[test]
    fn twitter_like_has_heavier_tail_than_uk_like() {
        let scale = |mut p: WebGraphParams| {
            p.nv = 20_000;
            p
        };
        let uk = generate(&scale(WebGraphParams::uk2002()));
        let tw = generate(&scale(WebGraphParams::twitter2010()));
        assert!(
            tw.max_out_degree() > 2 * uk.max_out_degree(),
            "twitter max {} vs uk max {}",
            tw.max_out_degree(),
            uk.max_out_degree()
        );
    }

    #[test]
    fn locality_knob_controls_near_edges() {
        let base = WebGraphParams {
            nv: 8_000,
            avg_deg: 10,
            out_alpha: 2.2,
            target_alpha: 2.0,
            locality: 0.9,
            seed: 21,
        };
        let near_frac = |g: &WebGraph, window: usize| -> f64 {
            let mut near = 0usize;
            // Distance is symmetric: an edge is as near read from its
            // target's in-list as from its source's out-list.
            for v in 0..g.nv {
                for &t in g.in_neighbors(v) {
                    let d = (v as i64 - t as i64).unsigned_abs() as usize;
                    if d.min(g.nv - d) <= window {
                        near += 1;
                    }
                }
            }
            near as f64 / g.ne() as f64
        };
        let local = generate(&base);
        let global = generate(&WebGraphParams {
            locality: 0.1,
            ..base
        });
        let w = base.nv / 32;
        assert!(
            near_frac(&local, w) > near_frac(&global, w) + 0.3,
            "locality 0.9 ({:.2}) should have far more near edges than 0.1 ({:.2})",
            near_frac(&local, w),
            near_frac(&global, w)
        );
    }

    #[test]
    fn average_degree_near_target() {
        let p = WebGraphParams {
            nv: 10_000,
            avg_deg: 12,
            out_alpha: 2.2,
            target_alpha: 2.0,
            locality: 0.8,
            seed: 11,
        };
        let g = generate(&p);
        let avg = g.ne() as f64 / g.nv as f64;
        assert!(
            (avg - 12.0).abs() < 4.0,
            "average degree {avg} too far from 12"
        );
    }
}
