//! Domain packing: permute an assignment's colors across NUMA domains so
//! that the color pairs exchanging the most bytes share a domain.
//!
//! A color names a worker, and on a multi-core-per-domain machine
//! ([`Topology`]) the *placement of colors onto domains* is a degree of
//! freedom the per-color assigners never optimize: any permutation of the
//! colors preserves validity, per-color loads, and the cross-*worker* cut
//! structure, but changes which cut edges cross *domains* — and only
//! cross-domain edges pay the remote-byte premium
//! (`CostModel::remote_excess`). [`pack_domains`] exploits that freedom:
//! it builds the color-to-color traffic matrix from
//! [`TaskGraph::edge_traffic`] and greedily groups the
//! heaviest-communicating colors into domain-sized clusters, returning
//! the permuted assignment.
//!
//! The pass is a cheap post-processing step (O(E + workers² · domains)),
//! deterministic, and a no-op on topologies with one worker per domain
//! (nothing to group) or a single domain (nothing is remote). `AutoSelect`
//! runs it on the portfolio winner when selecting for a real machine
//! topology and keeps the permutation only when the domain-aware strict
//! estimate improves.

use nabbitc_color::Color;
use nabbitc_cost::Topology;
use nabbitc_graph::{EdgeTraffic, TaskGraph};

/// Symmetric color-to-color traffic matrix: entry `[a * workers + b]` is
/// the total [`TaskGraph::edge_traffic`] bytes moving between colors `a`
/// and `b` (both directions summed; the diagonal holds intra-color
/// traffic, which no placement can make remote). Panics if the assignment
/// is invalid for `workers`.
pub fn color_traffic_matrix(graph: &TaskGraph, colors: &[Color], workers: usize) -> Vec<u64> {
    assert!(workers > 0, "need at least one worker");
    assert_eq!(colors.len(), graph.node_count(), "one color per node");
    assert!(
        crate::assignment_is_valid(colors, workers),
        "domain packing requires a valid assignment"
    );
    let traffic = EdgeTraffic::of(graph);
    let mut t = vec![0u64; workers * workers];
    for u in graph.nodes() {
        let cu = colors[u as usize].index();
        for &p in graph.predecessors(u) {
            let cp = colors[p as usize].index();
            let bytes = traffic.traffic(p, u);
            t[cp * workers + cu] += bytes;
            if cp != cu {
                t[cu * workers + cp] += bytes;
            }
        }
    }
    t
}

/// Total edge-traffic bytes whose endpoints' colors sit in different NUMA
/// domains under `topo` — the quantity [`pack_domains`] minimizes. Panics
/// on invalid colors or colors the topology has no core for (either would
/// otherwise clamp into the last domain and silently corrupt the total).
pub fn inter_domain_traffic(graph: &TaskGraph, colors: &[Color], topo: &Topology) -> u64 {
    assert_eq!(colors.len(), graph.node_count(), "one color per node");
    assert!(
        colors
            .iter()
            .all(|c| c.is_valid() && c.index() < topo.cores()),
        "inter-domain traffic requires a valid assignment within the topology"
    );
    let traffic = EdgeTraffic::of(graph);
    let mut total = 0u64;
    for u in graph.nodes() {
        let cu = colors[u as usize].index();
        for &p in graph.predecessors(u) {
            let cp = colors[p as usize].index();
            if !topo.same_domain(cp, cu) {
                total += traffic.traffic(p, u);
            }
        }
    }
    total
}

/// Permutes the colors of a valid assignment onto NUMA domains to reduce
/// inter-domain traffic: greedy clustering over the color-to-color
/// traffic matrix ([`color_traffic_matrix`]), one domain at a time — seed
/// each domain with the unplaced color carrying the most total traffic,
/// then repeatedly add the unplaced color with the most traffic to the
/// domain's current members until the domain's worker slots are full.
///
/// The result is a pure relabeling (a bijection on `0..workers`), so
/// validity, per-color loads, and the cross-worker cut structure are all
/// preserved; only the domain placement — and therefore the remote-byte
/// cost of each cut edge — changes. Greedy clustering is a heuristic, not
/// an optimum, so the pass compares [`inter_domain_traffic`] before and
/// after and returns the original colors unless the permutation strictly
/// improves it; callers that rank by makespan should additionally compare
/// domain-aware estimates (as `AutoSelect` does) and keep the better
/// placement.
///
/// Returns the colors unchanged when the topology has one worker per
/// domain or a single domain (no placement freedom either way). Panics if
/// the assignment is invalid or `topo` cannot place `workers` workers.
pub fn pack_domains(
    graph: &TaskGraph,
    colors: &[Color],
    workers: usize,
    topo: &Topology,
) -> Vec<Color> {
    assert!(workers > 0, "need at least one worker");
    assert!(
        topo.cores() >= workers,
        "topology with {} cores cannot place {workers} workers",
        topo.cores()
    );
    assert!(
        crate::assignment_is_valid(colors, workers),
        "domain packing requires a valid assignment"
    );
    if workers == 1 || topo.cores_per_domain() == 1 || topo.domains() == 1 {
        return colors.to_vec();
    }
    let t = color_traffic_matrix(graph, colors, workers);
    let off_diag_total = |c: usize| -> u64 {
        (0..workers)
            .filter(|&o| o != c)
            .map(|o| t[c * workers + o])
            .sum()
    };

    // Worker slots per domain: domains are contiguous id blocks, so
    // domain d owns ids [d·cpd, min((d+1)·cpd, workers)).
    let cpd = topo.cores_per_domain();
    let mut placed = vec![false; workers];
    let mut perm = vec![0usize; workers]; // old color -> new worker id
    for d in 0..topo.domains() {
        let base = d * cpd;
        let slots = workers.saturating_sub(base).min(cpd);
        let mut group: Vec<usize> = Vec::with_capacity(slots);
        for slot in 0..slots {
            let affinity = |c: usize| -> u64 {
                if group.is_empty() {
                    off_diag_total(c)
                } else {
                    group.iter().map(|&g| t[c * workers + g]).sum()
                }
            };
            let pick = (0..workers)
                .filter(|&c| !placed[c])
                .max_by_key(|&c| (affinity(c), std::cmp::Reverse(c)))
                .expect("slot counts sum to the worker count");
            placed[pick] = true;
            perm[pick] = base + slot;
            group.push(pick);
        }
    }
    debug_assert!(placed.iter().all(|&p| p));
    let packed: Vec<Color> = colors
        .iter()
        .map(|c| Color::from(perm[c.index()]))
        .collect();
    // Greedy clustering is a heuristic: on an already domain-contiguous
    // placement its reshuffle can lose. Keep the permutation only when it
    // strictly reduces inter-domain traffic, so the pass never worsens
    // the placement it was asked to improve.
    if inter_domain_traffic(graph, &packed, topo) < inter_domain_traffic(graph, colors, topo) {
        packed
    } else {
        colors.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_graph::{generate, GraphBuilder};

    /// Two producer→consumer pairs with heavy traffic inside each pair
    /// and none across: the natural "two clusters" packing instance.
    fn two_clusters() -> nabbitc_graph::TaskGraph {
        let mut b = GraphBuilder::new();
        for _ in 0..4 {
            b.add_simple_node(1, Color(0), 4096);
        }
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        b.build().unwrap()
    }

    #[test]
    fn packs_heavy_pairs_into_one_domain() {
        let g = two_clusters();
        // Colors chosen so each heavy pair straddles the 2×2 topology's
        // domain boundary: pair (0,1) on workers {0,2}, pair (2,3) on
        // workers {1,3}.
        let colors = vec![Color(0), Color(2), Color(1), Color(3)];
        let topo = Topology::new(2, 2);
        let before = inter_domain_traffic(&g, &colors, &topo);
        assert!(before > 0, "the unpacked placement must cross domains");
        let packed = pack_domains(&g, &colors, 4, &topo);
        assert_eq!(inter_domain_traffic(&g, &packed, &topo), 0);
        // A bijection: every worker id appears exactly once over the
        // distinct colors.
        let mut seen: Vec<usize> = packed.iter().map(|c| c.index()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn traffic_matrix_is_symmetric_and_counts_both_pairs() {
        let g = two_clusters();
        let colors = vec![Color(0), Color(2), Color(1), Color(3)];
        let t = color_traffic_matrix(&g, &colors, 4);
        let e = g.edge_traffic(0, 1);
        assert!(e > 0);
        assert_eq!(t[2], e); // 0 -> 2
        assert_eq!(t[2 * 4], e); // 2 -> 0, mirrored
        assert_eq!(t[4 + 3], g.edge_traffic(2, 3)); // 1·workers + 3
    }

    #[test]
    fn noop_on_per_worker_and_single_domain_topologies() {
        let g = two_clusters();
        let colors = vec![Color(0), Color(2), Color(1), Color(3)];
        assert_eq!(
            pack_domains(&g, &colors, 4, &Topology::per_worker(4)),
            colors
        );
        assert_eq!(pack_domains(&g, &colors, 4, &Topology::uma(4)), colors);
    }

    #[test]
    fn packing_never_increases_inter_domain_traffic_on_benchmark_shapes() {
        use crate::{BlockContiguous, ColorAssigner};
        let topo = Topology::paper_machine().truncated(20);
        for g in [
            generate::iterated_stencil(8, 60, 5, 1),
            generate::wavefront(20, 20, 5, 1),
            generate::layered_random(8, 24, 3, (1, 200), 1, 17),
        ] {
            let colors = BlockContiguous.assign(&g, 20);
            let packed = pack_domains(&g, &colors, 20, &topo);
            assert!(
                inter_domain_traffic(&g, &packed, &topo)
                    <= inter_domain_traffic(&g, &colors, &topo),
                "packing must not add inter-domain traffic"
            );
        }
    }

    #[test]
    fn deterministic() {
        let g = generate::layered_random(6, 16, 3, (1, 100), 1, 5);
        let colors: Vec<Color> = g.nodes().map(|u| Color::from(u as usize % 8)).collect();
        let topo = Topology::new(2, 4);
        assert_eq!(
            pack_domains(&g, &colors, 8, &topo),
            pack_domains(&g, &colors, 8, &topo)
        );
    }

    #[test]
    fn partial_last_domain_gets_only_its_real_slots() {
        // 6 workers on a 2-cores-per-domain topology truncated to 3
        // domains: domain 2 has slots {4, 5} only; the permutation must
        // stay within 0..6.
        let g = generate::chain(12, 1, 6);
        let colors: Vec<Color> = g.nodes().map(|u| Color::from(u as usize % 6)).collect();
        let topo = Topology::new(4, 2).truncated(6);
        let packed = pack_domains(&g, &colors, 6, &topo);
        assert!(crate::assignment_is_valid(&packed, 6));
        let mut seen: Vec<usize> = packed.iter().map(|c| c.index()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 6);
    }

    #[test]
    #[should_panic(expected = "valid assignment")]
    fn rejects_invalid_assignments() {
        let g = two_clusters();
        let colors = vec![Color(0), Color::INVALID, Color(1), Color(2)];
        let _ = pack_domains(&g, &colors, 4, &Topology::new(2, 2));
    }
}
