//! Critical-path/level-aware coloring: partition the DAG level by level so
//! that every wide dependency level is spread across colors and the
//! simulated makespan — not the edge-cut — is the objective.
//!
//! Edge-cut-optimal partitions ([`RecursiveBisection`](crate::RecursiveBisection))
//! lose on wavefront shapes: the cut-minimal split of a 2-D wavefront is
//! spatially compact, which places whole anti-diagonals — the graph's
//! *only* source of parallelism — on one color, serializing the pipeline.
//! Hand row-blocking cuts *more* edges yet wins makespan because every
//! diagonal keeps all colors busy (see `results/autocolor_vs_hand.md`).
//!
//! [`CpLevelAware`] schedules instead of cutting:
//!
//! 1. **Profile levels.** Nodes are grouped by earliest start time
//!    ([`level_profile`]); a level's width is the parallelism available
//!    at that point of an ideal schedule. A caller that has the profile
//!    already (`AutoSelect`, for its shape pre-filter) passes it in
//!    through [`ColorAssigner::assign_profiled`].
//! 2. **Sweep level by level** down the DAG, assigning each node the
//!    color that finishes it earliest under a running list-schedule
//!    estimate (the offline analogue of HEFT) priced by the shared
//!    [`CostModel`]: a color is ready when the node's predecessors have
//!    finished — plus [`CostModel::cross_edge_latency`] per cross-color
//!    dependence — and executing there costs the node's own ticks plus
//!    [`CostModel::remote_excess`] over the byte traffic of its
//!    cross-color in-edges, exactly the terms of
//!    [`estimate_makespan_colored_strict_on`](nabbitc_graph::analysis::estimate_makespan_colored_strict_on).
//!    Chains therefore inherit their predecessor's color (crossing costs
//!    latency and bandwidth), while a color that is busy — because a
//!    level is piling onto it — loses to an idle one, which is what
//!    spreads the wavefront ramp that pure majority-inheritance
//!    serializes. Finish ties break toward the weighted majority
//!    predecessor color.
//! 3. **Quotas and caps (hard constraints).** In a *wide* level (width ≥
//!    workers) each color may take at most 1.1 (`LEVEL_SLACK`)
//!    × its even share of the level's weight, clamped to strictly less
//!    than the whole level — so no wide level can ever serialize. A
//!    global cap at [`balance_limit`] keeps the 2×
//!    greedy bound unconditionally.
//! 4. **Refine** with the bandwidth-aware makespan-estimate gain
//!    ([`MakespanGain`]) — moves that reduce remote-byte traffic are taken
//!    only when they do not re-concentrate a level (wide-level quotas are
//!    enforced as a veto). [`refine_kway`] prices candidate moves from a
//!    per-node connectivity table instead of walking neighbours, so the
//!    refinement costs one pass over the edges however many sweeps it
//!    runs (see [`crate::refine`]).
//!
//! Every color is priced as a worker of its own NUMA domain: a
//! predecessor's bytes are remote exactly when its color differs from
//! the candidate's. The machine's real domains are
//! [`AutoSelect`](crate::AutoSelect)'s to score and pack for; the sweep
//! and the refinement work on the colors alone.
//!
//! The sweep and the gain read edge bytes from one
//! [`EdgeTraffic`] view each — the same per-node
//! vectors the estimator scores the result with. The sweep reads a
//! node's predecessors once, folding them per color (latest finish,
//! summed traffic), and prices each candidate color from those
//! aggregates, so the whole assigner is `O(E + V·workers·min(deg,
//! workers))` in the sweep plus O(E) in the refinement: no edge is read
//! once per worker, which matters at the paper's 20–80 of them.

use crate::refine::{refine_kway, MakespanGain};
use crate::{balance_limit, node_weight, ColorAssigner};
use nabbitc_color::Color;
use nabbitc_cost::CostModel;
use nabbitc_graph::analysis::{level_profile, LevelProfile};
use nabbitc_graph::{EdgeTraffic, NodeId, TaskGraph};

/// Level-by-level critical-path-aware partitioner (see module docs).
#[derive(Clone, Debug, Default)]
pub struct CpLevelAware {
    /// Cost model pricing the internal list-schedule estimate (node
    /// ticks, cross-edge latency, and remote-byte bandwidth). Defaults to
    /// [`CostModel::default`]; see
    /// [`with_cost_model`](Self::with_cost_model).
    pub cost: CostModel,
}

/// Per-color share of a wide level's weight, as a multiple of the even
/// share `level_weight / workers`; higher trades level spread for
/// locality.
const LEVEL_SLACK: f64 = 1.1;
/// Makespan-gain refinement sweeps after the level sweep.
const REFINE_PASSES: usize = 2;

impl CpLevelAware {
    /// Replaces the cost model (builder style). Panics on invalid
    /// bandwidth terms.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        cost.assert_valid();
        self.cost = cost;
        self
    }
}

/// What the sweep asks of a node's predecessors: read them once per node,
/// then price each candidate color against what was read. The sweep is
/// written against this seam so that the tests can run it over the
/// definition — every predecessor walked again for every candidate color
/// (`tests::PredWalk`) — and compare assignments.
trait PredCosts {
    fn new(workers: usize) -> Self;

    /// Reads `u`'s predecessors and returns their weighted-majority color
    /// — the finish-time tie-break (heavy parents pull harder: their data
    /// is bigger). The vote is a *running* majority, so it depends on the
    /// order the predecessors are met in: a color takes the lead only by
    /// strictly exceeding the current leader's votes at the moment one of
    /// its own predecessors is counted.
    fn read(
        &mut self,
        graph: &TaskGraph,
        u: NodeId,
        part: &[usize],
        finish: &[u64],
        weight: &[u64],
        traffic: &EdgeTraffic,
    ) -> Option<usize>;

    /// `(ready, remote_bytes)` of the node last [`read`](Self::read) on
    /// color `c` — the estimator's two cross-edge terms: a predecessor on
    /// another color delays the ready time by `latency`, and its bytes
    /// are remote.
    fn price(&self, c: usize, latency: u64) -> (u64, u64);
}

/// What one color's predecessors of the node in hand add up to.
#[derive(Clone, Copy, Default)]
struct ColorPreds {
    /// Summed node weight: the color's votes for the majority.
    votes: u64,
    /// Latest finish among them.
    finish: u64,
    /// Summed edge traffic from them.
    bytes: u64,
}

/// The predecessors folded per color in one pass: a candidate is priced
/// from at most `min(deg, workers)` aggregates instead of `deg`
/// predecessors. `max` and `u64` sums do not depend on the order of their
/// operands, so the prices are those of the per-predecessor walk.
struct PredFold {
    /// Indexed by color; stale outside `touched`.
    by_color: Vec<ColorPreds>,
    /// The colors the node's predecessors hold.
    touched: Vec<usize>,
    /// `seen[c] == u` once a predecessor of `u` was met on `c` (node ids
    /// stamp the scratch, so nothing is cleared between nodes).
    seen: Vec<NodeId>,
}

impl PredCosts for PredFold {
    fn new(workers: usize) -> Self {
        PredFold {
            by_color: vec![ColorPreds::default(); workers],
            touched: Vec::with_capacity(workers),
            seen: vec![NodeId::MAX; workers],
        }
    }

    fn read(
        &mut self,
        graph: &TaskGraph,
        u: NodeId,
        part: &[usize],
        finish: &[u64],
        weight: &[u64],
        traffic: &EdgeTraffic,
    ) -> Option<usize> {
        self.touched.clear();
        let mut majority: Option<usize> = None;
        for &p in graph.predecessors(u) {
            let c = part[p as usize];
            if self.seen[c] != u {
                self.seen[c] = u;
                self.by_color[c] = ColorPreds::default();
                self.touched.push(c);
            }
            let of_c = &mut self.by_color[c];
            of_c.votes += weight[p as usize];
            of_c.finish = of_c.finish.max(finish[p as usize]);
            of_c.bytes += traffic.traffic(p, u);
            let votes = of_c.votes;
            if majority.is_none_or(|b| votes > self.by_color[b].votes) {
                majority = Some(c);
            }
        }
        majority
    }

    #[inline]
    fn price(&self, c: usize, latency: u64) -> (u64, u64) {
        let mut ready = 0u64;
        let mut remote_bytes = 0u64;
        for &pc in &self.touched {
            let of_pc = &self.by_color[pc];
            let mut t = of_pc.finish;
            if pc != c {
                t += latency;
                remote_bytes += of_pc.bytes;
            }
            ready = ready.max(t);
        }
        (ready, remote_bytes)
    }
}

impl ColorAssigner for CpLevelAware {
    fn name(&self) -> &'static str {
        "cp-level-aware"
    }

    fn assign(&self, graph: &TaskGraph, workers: usize) -> Vec<Color> {
        self.assign_profiled(graph, workers, &level_profile(graph))
    }

    fn assign_profiled(
        &self,
        graph: &TaskGraph,
        workers: usize,
        profile: &LevelProfile,
    ) -> Vec<Color> {
        self.assign_pricing::<PredFold>(graph, workers, profile)
    }
}

impl CpLevelAware {
    /// [`assign_profiled`](ColorAssigner::assign_profiled), reading
    /// predecessors through `P`.
    fn assign_pricing<P: PredCosts>(
        &self,
        graph: &TaskGraph,
        workers: usize,
        profile: &LevelProfile,
    ) -> Vec<Color> {
        assert!(workers > 0, "need at least one worker");
        assert_eq!(
            profile.level_of.len(),
            graph.node_count(),
            "another graph's profile"
        );
        self.cost.assert_valid();
        let n = graph.node_count();
        if workers == 1 {
            return vec![Color(0); n];
        }
        let weight: Vec<u64> = graph.nodes().map(|u| node_weight(graph, u)).collect();
        let limit = balance_limit(graph, workers);
        let latency = self.cost.cross_edge_latency();
        let traffic = EdgeTraffic::of(graph);
        // Per-node execution ticks with every byte local — the cross-edge
        // remote excess is added per candidate color below.
        let ticks: Vec<u64> = graph
            .nodes()
            .map(|u| {
                self.cost
                    .node_ticks(graph.work(u), graph.footprint(u), 0)
                    .max(1)
            })
            .collect();

        // Per-level totals in *node-weight* units (profile.weights counts
        // work only; the sweep's loads, caps, and quotas all use
        // node_weight so they compose with `balance_limit`).
        let mut lweights = vec![0u64; profile.level_count()];
        for u in graph.nodes() {
            lweights[profile.level_of[u as usize] as usize] += weight[u as usize];
        }

        // Wide-level quotas: a color may hold at most `slack × even share`
        // of a wide level's weight (0 marks a narrow, quota-free level).
        // The quota is clamped to `weight − 1` so that no wide level can
        // *ever* end fully on one color — the invariant the property
        // tests pin (quota-respecting assignments cannot complete a level).
        let quota: Vec<u64> = (0..profile.level_count())
            .map(|l| {
                if profile.widths[l] >= workers {
                    let even = ((lweights[l] as f64 / workers as f64) * LEVEL_SLACK).ceil() as u64;
                    even.min(lweights[l].saturating_sub(1)).max(1)
                } else {
                    0
                }
            })
            .collect();

        // Nodes grouped by level, in topological order within each level
        // (zero-work nodes can share a level with their predecessors).
        let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); profile.level_count()];
        for &u in graph.topo_order() {
            buckets[profile.level_of[u as usize] as usize].push(u);
        }

        let mut part = vec![0usize; n];
        let mut loads = vec![0u64; workers]; // global, node-weight
        let mut level_loads = vec![0u64; workers]; // reset per level
        let mut free = vec![0u64; workers]; // list-schedule worker clocks
        let mut finish = vec![0u64; n];
        let mut preds = P::new(workers);
        for (l, bucket) in buckets.iter().enumerate() {
            let q = quota[l];
            level_loads.fill(0);
            for &u in bucket {
                let w = weight[u as usize];
                let majority = preds.read(graph, u, &part, &finish, &weight, &traffic);

                // Earliest finish time over the admissible colors. The
                // candidate set is nonempty: the globally least-loaded
                // color always satisfies `load + w ≤ total/workers + wmax
                // ≤ limit` (the greedy bound), and a wide level's quota
                // admits at least one color whenever its dominant color is
                // excluded (the level cannot be fully held by all colors
                // at once).
                let mut chosen: Option<(u64, usize)> = None; // (finish, color)
                let mut any_quota_ok = false;
                for c in 0..workers {
                    if loads[c] + w > limit {
                        continue;
                    }
                    // Hard serialization veto: even when the quota must be
                    // overridden (a node heavier than the quota), no
                    // assignment may place a wide level entirely on one
                    // color. Safe to enforce: two distinct colors can
                    // never both hold "everything assigned so far" of a
                    // ≥ 2-node level, so an admissible color remains.
                    if q != 0 && level_loads[c] + w >= lweights[l] {
                        continue;
                    }
                    let quota_ok = q == 0 || level_loads[c] + w <= q;
                    if quota_ok && !any_quota_ok {
                        // Quota-respecting candidates strictly outrank
                        // quota-violating ones (which are only a fallback
                        // for nodes heavier than the quota itself).
                        any_quota_ok = true;
                        chosen = None;
                    }
                    if quota_ok != any_quota_ok {
                        continue;
                    }
                    // The estimator's two cross-edge terms: latency on
                    // the ready time, remote-byte bandwidth on the
                    // execution time.
                    let (ready, remote_bytes) = preds.price(c, latency);
                    let dur = ticks[u as usize] + self.cost.remote_excess(remote_bytes);
                    let fin = ready.max(free[c]) + dur;
                    let better = match chosen {
                        None => true,
                        Some((best_fin, best_c)) => {
                            fin < best_fin
                                || (fin == best_fin
                                    && (Some(c) == majority && Some(best_c) != majority))
                        }
                    };
                    if better {
                        chosen = Some((fin, c));
                    }
                }
                let (fin, c) = chosen.expect("globally least-loaded color always fits");
                part[u as usize] = c;
                finish[u as usize] = fin;
                free[c] = fin;
                level_loads[c] += w;
                loads[c] += w;
            }
        }

        // Makespan-gain refinement: reduce remote-byte traffic where it
        // does not re-concentrate a level (the quota veto keeps every
        // wide level spread, the load cap keeps the balance bound). The
        // gain works in tick units, so its quotas are rebuilt over the
        // levels' tick-weights with the same slack-and-clamp rule.
        let mut tick_lweights = vec![0u64; profile.level_count()];
        for u in graph.nodes() {
            tick_lweights[profile.level_of[u as usize] as usize] += ticks[u as usize];
        }
        let tick_quota: Vec<u64> = (0..profile.level_count())
            .map(|l| {
                if profile.widths[l] >= workers {
                    let even =
                        ((tick_lweights[l] as f64 / workers as f64) * LEVEL_SLACK).ceil() as u64;
                    even.min(tick_lweights[l].saturating_sub(1)).max(1)
                } else {
                    0
                }
            })
            .collect();
        let mut gain = MakespanGain::new(graph, profile, &part, workers, &self.cost)
            .with_level_quota(tick_quota);
        refine_kway(
            graph,
            &mut part,
            &weight,
            &mut loads,
            limit,
            REFINE_PASSES,
            &mut gain,
        );

        part.into_iter().map(Color::from).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assignment_is_valid, assignment_loads, RecursiveBisection};
    use nabbitc_cost::Topology;
    use nabbitc_graph::analysis::{estimate_makespan_colored_strict_on, level_serialization};
    use nabbitc_graph::generate;
    use proptest::prelude::*;

    /// The reference: list the predecessors once, then walk the whole
    /// list again for every candidate color.
    struct PredWalk {
        votes: Vec<u64>,
        /// `(part, finish, traffic)` per predecessor.
        preds: Vec<(usize, u64, u64)>,
    }

    impl PredCosts for PredWalk {
        fn new(workers: usize) -> Self {
            PredWalk {
                votes: vec![0; workers],
                preds: Vec::new(),
            }
        }

        fn read(
            &mut self,
            graph: &TaskGraph,
            u: NodeId,
            part: &[usize],
            finish: &[u64],
            weight: &[u64],
            traffic: &EdgeTraffic,
        ) -> Option<usize> {
            let preds = graph.predecessors(u);
            let mut majority: Option<usize> = None;
            for &p in preds {
                let c = part[p as usize];
                self.votes[c] += weight[p as usize];
                if majority
                    .map(|b| self.votes[c] > self.votes[b])
                    .unwrap_or(true)
                {
                    majority = Some(c);
                }
            }
            for &p in preds {
                self.votes[part[p as usize]] = 0;
            }
            self.preds.clear();
            self.preds.extend(
                preds
                    .iter()
                    .map(|&p| (part[p as usize], finish[p as usize], traffic.traffic(p, u))),
            );
            majority
        }

        fn price(&self, c: usize, latency: u64) -> (u64, u64) {
            let mut ready = 0u64;
            let mut remote_bytes = 0u64;
            for &(pc, pf, traffic) in &self.preds {
                let mut t = pf;
                if pc != c {
                    t += latency;
                    remote_bytes += traffic;
                }
                ready = ready.max(t);
            }
            (ready, remote_bytes)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn one_pass_sweep_assigns_what_the_per_candidate_walk_does(
            shape in 0usize..3,
            a in 2usize..9,
            b in 2usize..12,
            seed in 0u64..10_000,
        ) {
            let g = match shape {
                0 => generate::layered_random(a, b, 4, (1, 300), 1, seed),
                1 => generate::wavefront(a, b, 1 + seed % 50, 1),
                _ => generate::iterated_stencil(a, b, 1 + seed % 50, 1),
            };
            let cp = CpLevelAware::default();
            for p in [2usize, 3, 8, 20] {
                let colors = cp.assign(&g, p);
                prop_assert!(
                    colors == cp.assign_pricing::<PredWalk>(&g, p, &level_profile(&g)),
                    "p={}", p
                );
                // Handed the profile a selection took for its shape rule,
                // the member assigns what it does alone.
                let profiled = cp.assign_profiled(&g, p, &level_profile(&g));
                prop_assert!(profiled == colors, "profiled: p={}", p);
            }
        }
    }

    #[test]
    fn valid_and_balanced_on_benchmark_shapes() {
        for g in [
            generate::iterated_stencil(12, 48, 3, 1),
            generate::wavefront(24, 24, 2, 1),
            generate::layered_random(10, 16, 3, (1, 300), 1, 7),
        ] {
            for p in [1usize, 2, 4, 7, 16] {
                let colors = CpLevelAware::default().assign(&g, p);
                assert!(assignment_is_valid(&colors, p), "p={p}");
                let max = *assignment_loads(&g, &colors, p).iter().max().unwrap();
                assert!(max <= balance_limit(&g, p), "p={p}");
            }
        }
    }

    #[test]
    fn wide_levels_never_serialized_on_wavefront() {
        let g = generate::wavefront(20, 20, 2, 1);
        for p in [2usize, 4, 8] {
            let colors = CpLevelAware::default().assign(&g, p);
            let mut g2 = g.clone();
            g2.recolor(|u, _| colors[u as usize]);
            let profile = level_profile(&g2);
            let ser = level_serialization(&g2, &profile);
            for l in 0..profile.level_count() {
                if profile.widths[l] >= p {
                    assert!(
                        ser.per_level[l] < 1.0,
                        "p={p}: level {l} (width {}) fully serialized",
                        profile.widths[l]
                    );
                }
            }
        }
    }

    #[test]
    fn beats_bisection_makespan_estimate_on_wavefront() {
        // The core claim: on the wavefront shape, the level-aware
        // coloring wins the schedule even though bisection wins the cut.
        let g = generate::wavefront(32, 32, 8, 1);
        let cost = CostModel::default();
        for p in [4usize, 8] {
            let cp = CpLevelAware::default().assign(&g, p);
            let rb = RecursiveBisection::default().assign(&g, p);
            let topo = Topology::per_worker(p);
            let m_cp = estimate_makespan_colored_strict_on(&g, &cp, p, &cost, &topo).unwrap();
            let m_rb = estimate_makespan_colored_strict_on(&g, &rb, p, &cost, &topo).unwrap();
            assert!(
                m_cp < m_rb,
                "p={p}: cp-level-aware {m_cp} not below bisection {m_rb}"
            );
        }
    }

    #[test]
    fn narrow_chain_inherits_one_color() {
        // A pure chain has only narrow levels: everything inherits.
        let g = generate::chain(50, 3, 1);
        let colors = CpLevelAware::default().assign(&g, 4);
        let changes = colors.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(changes <= 4, "chain split {changes} times");
    }

    #[test]
    fn single_worker_single_color() {
        let g = generate::wavefront(6, 6, 1, 1);
        let colors = CpLevelAware::default().assign(&g, 1);
        assert!(colors.iter().all(|&c| c == Color(0)));
    }

    #[test]
    fn deterministic() {
        let g = generate::layered_random(8, 12, 3, (1, 100), 1, 3);
        let a = CpLevelAware::default().assign(&g, 5);
        let b = CpLevelAware::default().assign(&g, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn cost_model_is_pluggable() {
        // A heavier remote ratio must still produce valid, balanced
        // assignments — and the builder validates its input.
        let g = generate::wavefront(12, 12, 4, 1);
        let cp =
            CpLevelAware::default().with_cost_model(CostModel::default().with_remote_ratio(8.0));
        let colors = cp.assign(&g, 4);
        assert!(assignment_is_valid(&colors, 4));
        let max = *assignment_loads(&g, &colors, 4).iter().max().unwrap();
        assert!(max <= balance_limit(&g, 4));
    }

    #[test]
    fn adversarial_weights_respect_balance() {
        use nabbitc_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        b.add_simple_node(10_000, Color(0), 0);
        for i in 1..64u32 {
            b.add_simple_node(1, Color(0), 0);
            b.add_edge(0, i);
        }
        let g = b.build().unwrap();
        for p in [2usize, 4, 8] {
            let colors = CpLevelAware::default().assign(&g, p);
            let max = *assignment_loads(&g, &colors, p).iter().max().unwrap();
            assert!(max <= balance_limit(&g, p), "p={p}");
        }
    }
}
