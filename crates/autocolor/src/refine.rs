//! KL/FM-style boundary refinement of a k-way assignment under the
//! makespan estimate.
//!
//! [`CpLevelAware`](crate::CpLevelAware) polishes its level sweep with
//! greedy move sweeps ([`refine_kway`]) scored by one objective,
//! [`MakespanGain`]: the differential of the bandwidth-aware makespan
//! estimator
//! ([`estimate_makespan_colored_strict_on`](nabbitc_graph::analysis::estimate_makespan_colored_strict_on)),
//! in the [`CostModel`]'s tick units — the **bandwidth** term (each
//! cross-color edge costs [`CostModel::remote_excess`] over its
//! [`edge traffic`](nabbitc_graph::EdgeTraffic), the exact delta of the
//! estimator's remote-byte charge) plus a per-level concentration term
//! (the exact delta of the smooth sum-of-squares surrogate for each
//! level's max-per-color completion time, which stands in for the
//! estimator's non-differentiable latency/stall terms). A move gains by
//! moving fewer remote bytes *or* by spreading a dependency level across
//! colors — never by piling a level up.
//!
//! A part is a worker, priced as its own NUMA domain: a color *is* a
//! worker id (§III), so every cross-color edge is a remote one.
//! [`AutoSelect`](crate::AutoSelect) scores and domain-packs the result
//! on the machine it is given; the members refine for the per-worker one.
//!
//! # The connectivity table
//!
//! A gain is the sum of an edge term — the cost of the edges the move
//! heals minus the cost of those it cuts — and a node term. Evaluated
//! from the definition, the edge term walks every neighbour of the node
//! for every candidate destination; on a graph with hundreds of edges per
//! node that walk is the whole cost of a refinement, paid again on every
//! pass, to commit a few hundred moves.
//!
//! [`refine_kway`] therefore keeps, Fiduccia–Mattheyses style, what the
//! walk would find: for every node, a row with one entry per part its
//! neighbours occupy — how many of them are there, and what its edges to
//! them cost in total. A row has `min(deg, k)` slots, so the table is
//! O(E) whatever the part count. It is filled a row at a time, each row
//! summed per part over its node's neighbours and written once (an edge
//! is priced from both of its ends, no slot is searched for);
//! afterwards a node's candidates are the parts in its row, a
//! candidate's edge term is its slot's cost minus the source part's, a
//! node whose row holds only its own part has nowhere to go, and a
//! committed move updates the rows of the moved node's neighbours only —
//! the invariant is stated on the private `Refiner` and checked against
//! the definition, move by move, by the proptests below. A call costs
//! one edge walk to set up, one read of the table per sweep and the
//! neighbours' rows per move; [`RefineStats::edge_visits`] counts the
//! adjacency entries it touched, and a test pins that the count does not
//! grow with the number of passes.
//!
//! **Candidate order is part of the result.** The sweep takes the *first*
//! best candidate, and the candidates of the neighbour walk come in the
//! order the node's predecessors, then successors, first mention them.
//! With more than two parts equal gains are common (equal footprints,
//! unit edge costs), so proposing candidates in part order instead
//! changes which of two equally good parts wins — and, a few moves
//! later, the assignment and its simulated makespan. The table proposes
//! in row order because that is what it has, remembers which candidates
//! tie for the best gain, and only then walks the node's neighbours up
//! to the first one in a tied part. Assignments are bit-for-bit those of
//! the neighbour walk (`tests/makespan_regression.rs` pins their hashes).
//!
//! [`RecursiveBisection`](crate::RecursiveBisection)'s two-way sweep is
//! side-local — its parts are the two sides of the subproblem in hand and
//! most neighbours are out of scope — and counts its edge-cut gain inline.

use nabbitc_cost::CostModel;
use nabbitc_graph::analysis::LevelProfile;
use nabbitc_graph::{EdgeTraffic, NodeId, TaskGraph};

/// Bandwidth-aware makespan-estimate gain: cross-edge remote-byte delta
/// plus the per-level concentration delta, both in the [`CostModel`]'s
/// tick units (no hand-calibrated scale factor between them). A move's
/// gain is higher the better it is; only positive-gain moves are taken.
///
/// The estimator charges (a) [`CostModel::remote_excess`] over an edge's
/// byte traffic when its endpoints land on different workers and (b) per
/// dependency level, roughly the *max* single-color tick-weight of the
/// level (the workers not holding the max finish earlier and wait). Term
/// (a)'s move differential is exact — each neighbor edge's byte cost
/// becomes internal or cut; term (b)'s is approximated through the smooth
/// sum-of-squares surrogate `Σ_c m_{l,c}²` whose exact move delta is
/// `2w·(w + m_to − m_from)` — negative (an improvement) exactly when the
/// move takes weight from a more-loaded color of the level to a
/// less-loaded one. The estimator's cross-edge *latency* charge enters
/// its ready times through a `max`, so it has no additive per-edge
/// differential; the spread term is its surrogate.
pub struct MakespanGain {
    level_of: Vec<u32>,
    /// `m[level * workers + color]`: tick-weight per (level, color).
    level_loads: Vec<u64>,
    /// Per-node tick weight: `node_ticks(work, footprint, 0)`, floored at
    /// one tick.
    weight: Vec<u64>,
    /// [`CostModel::remote_excess`] of every node's out-share and
    /// in-share of the edge-traffic model ([`EdgeTraffic`]). The excess
    /// never decreases with the bytes, so the smaller of an edge's two
    /// priced shares is the price of its traffic (the smaller share) —
    /// per-node vectors, and no float arithmetic per edge.
    out_excess: Vec<i64>,
    in_excess: Vec<i64>,
    workers: usize,
    /// Optional hard cap on any color's share of a level's tick-weight
    /// (0 = uncapped level); a move past it is not allowed.
    level_quota: Vec<u64>,
}

impl MakespanGain {
    /// Builds the gain state for `graph` under the initial assignment
    /// `part`, pricing nodes and edges with `cost`. Panics unless `part`
    /// and `profile` have one entry per node and every part is
    /// `< workers`.
    pub fn new(
        graph: &TaskGraph,
        profile: &LevelProfile,
        part: &[usize],
        workers: usize,
        cost: &CostModel,
    ) -> Self {
        assert!(workers > 0, "need at least one worker");
        cost.assert_valid();
        let n = graph.node_count();
        assert_eq!(part.len(), n, "part: one entry per node");
        assert_eq!(profile.level_of.len(), n, "profile: one level per node");
        if let Some(u) = part.iter().position(|&p| p >= workers) {
            panic!(
                "part: node {u} is in part {}, but there are {workers} workers",
                part[u]
            );
        }
        let traffic = EdgeTraffic::of(graph);
        let weight: Vec<u64> = graph
            .nodes()
            .map(|u| cost.node_ticks(graph.work(u), graph.footprint(u), 0).max(1))
            .collect();
        let mut level_loads = vec![0u64; profile.level_count() * workers];
        for u in graph.nodes() {
            let l = profile.level_of[u as usize] as usize;
            level_loads[l * workers + part[u as usize]] += weight[u as usize];
        }
        let priced = |bytes: u64| cost.remote_excess(bytes) as i64;
        MakespanGain {
            level_of: profile.level_of.clone(),
            level_loads,
            weight,
            out_excess: graph
                .nodes()
                .map(|u| priced(traffic.out_share(u)))
                .collect(),
            in_excess: graph.nodes().map(|u| priced(traffic.in_share(u))).collect(),
            workers,
            level_quota: Vec::new(),
        }
    }

    /// Adds a hard per-level quota in tick units: no move may push a
    /// color's share of level `l`'s tick-weight above `quota[l]` (0
    /// leaves the level uncapped). This is how
    /// [`CpLevelAware`](crate::CpLevelAware) guarantees its level sweep's
    /// spread survives refinement. Panics unless `quota` is empty (no
    /// quota at all) or has one entry per level.
    pub fn with_level_quota(mut self, quota: Vec<u64>) -> Self {
        let levels = self.level_loads.len() / self.workers;
        assert!(
            quota.is_empty() || quota.len() == levels,
            "quota: {} entries for {levels} levels",
            quota.len()
        );
        self.level_quota = quota;
        self
    }

    /// Tick-weight of color `c` within node `u`'s level.
    pub fn level_load(&self, u: NodeId, c: usize) -> u64 {
        self.level_loads[self.level_of[u as usize] as usize * self.workers + c]
    }

    /// What cutting the dependence edge `producer -> consumer` costs: the
    /// remote-byte excess of its traffic, in ticks — the exact delta of
    /// the estimator's bandwidth charge.
    #[inline]
    fn edge_cost(&self, producer: NodeId, consumer: NodeId) -> i64 {
        self.out_excess[producer as usize].min(self.in_excess[consumer as usize])
    }

    /// The part of a move's gain that does not come from `u`'s edges: the
    /// exact delta of the level's sum-of-squares concentration, divided
    /// by 2w (positive = improvement): m_from − m_to − w.
    #[inline]
    fn node_gain(&self, u: NodeId, from: usize, to: usize) -> i64 {
        self.level_load(u, from) as i64
            - self.level_load(u, to) as i64
            - self.weight[u as usize] as i64
    }

    /// Whether moving `u` to `to` keeps `to` within the level quota,
    /// whatever the move's gain.
    fn allow(&self, u: NodeId, to: usize) -> bool {
        if self.level_quota.is_empty() {
            return true;
        }
        let q = self.level_quota[self.level_of[u as usize] as usize];
        q == 0 || self.level_load(u, to) + self.weight[u as usize] <= q
    }

    /// Moves `u`'s weight from `from`'s share of its level to `to`'s.
    fn commit(&mut self, u: NodeId, from: usize, to: usize) {
        let l = self.level_of[u as usize] as usize * self.workers;
        self.level_loads[l + from] -= self.weight[u as usize];
        self.level_loads[l + to] += self.weight[u as usize];
    }
}

/// What a [`refine_kway`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Moves committed, over all passes.
    pub moves: usize,
    /// Adjacency entries touched: one per edge for setting the
    /// connectivity table up (which prices an edge from both of its
    /// ends), the moved node's neighbours at each commit, and the
    /// entries walked to break a gain tie. Bounded by
    /// `E + 2·Σ deg(u)` over the committed moves — the sweeps themselves
    /// touch none, so the count does not grow with `passes`.
    pub edge_visits: u64,
}

/// One entry of a node's row of the connectivity table: what the node
/// sees of one part. Sixteen bytes: the table has up to `2E` of them.
#[derive(Clone, Copy)]
struct Link {
    /// Summed [`MakespanGain::edge_cost`] of the node's edges to its
    /// neighbours in `part`.
    cut: i64,
    /// How many neighbours those are.
    count: u32,
    /// The part, meaningful while `count > 0` (a slot with no neighbours
    /// left is free for the next part that shows up).
    part: u32,
}

impl Link {
    #[inline]
    fn part(&self) -> usize {
        self.part as usize
    }
}

/// The state of one [`refine_kway`] call: the partition under refinement
/// and, for every node, its connectivity to each part it touches.
///
/// Node `u`'s row is `links[row[u]..row[u + 1]]`: `min(deg(u), k)` slots,
/// enough for every part its neighbours can occupy at once, so the table
/// is O(E) however many parts there are.
///
/// **Invariant** (restored by [`commit`](Self::commit) after every move):
/// for every node `u` and part `p`, `u` has `c > 0` neighbours in `p`
/// exactly when one slot of its row reads `(p, c, Σ edge_cost of u's
/// edges to them)`; every other slot has `count == 0` and `cut == 0`.
///
/// A node's candidate destinations are then the parts of its live slots,
/// a node with a single live slot for its own part has nowhere to go, a
/// move's edge term is the destination slot's `cut` minus the source
/// slot's, and a commit touches one or two slots in each row of the
/// moved node's neighbours.
struct Refiner<'a> {
    graph: &'a TaskGraph,
    part: &'a mut [usize],
    weight: &'a [u64],
    loads: &'a mut [u64],
    gain: &'a mut MakespanGain,
    row: Vec<usize>,
    links: Vec<Link>,
    /// Scratch: the parts sharing the best gain of the node in hand.
    tied: Vec<usize>,
    stats: RefineStats,
}

impl<'a> Refiner<'a> {
    /// Checks the arguments' shapes and builds the table, one node's row
    /// at a time from one walk over the node's neighbours.
    fn new(
        graph: &'a TaskGraph,
        part: &'a mut [usize],
        weight: &'a [u64],
        loads: &'a mut [u64],
        gain: &'a mut MakespanGain,
    ) -> Self {
        let n = graph.node_count();
        let k = loads.len();
        assert_eq!(part.len(), n, "part: one entry per node");
        assert_eq!(weight.len(), n, "weight: one entry per node");
        assert_eq!(k, gain.workers, "loads: one entry per part of the gain");
        if let Some(u) = part.iter().position(|&p| p >= k) {
            panic!(
                "part: node {u} is in part {}, but loads has {k} entries",
                part[u]
            );
        }
        let mut row = Vec::with_capacity(n + 1);
        row.push(0usize);
        for u in graph.nodes() {
            let degree = graph.in_degree(u) + graph.out_degree(u);
            row.push(row[u as usize] + degree.min(k));
        }
        assert!(
            k <= u32::MAX as usize,
            "loads: more parts than a u32 counts"
        );
        let free = Link {
            cut: 0,
            count: 0,
            part: u32::MAX,
        };
        let mut refiner = Refiner {
            graph,
            part,
            weight,
            loads,
            gain,
            links: vec![free; row[n]],
            row,
            tied: Vec::new(),
            stats: RefineStats::default(),
        };
        // A node's neighbours are summed per part in a scratch — `(count,
        // cut)`, zero between nodes — and its row is written once, a slot
        // per part in the order the neighbours (the predecessors, then
        // the successors) first mention it: no slot is searched for
        // while the table fills.
        let mut seen = vec![(0u32, 0i64); k];
        let mut mentioned: Vec<usize> = Vec::with_capacity(k);
        for u in graph.nodes() {
            let preds = graph.predecessors(u).iter().map(|&p| (p, p, u));
            let succs = graph.successors(u).iter().map(|&s| (s, u, s));
            for (v, producer, consumer) in preds.chain(succs) {
                let p = refiner.part[v as usize];
                let (count, cut) = &mut seen[p];
                if *count == 0 {
                    mentioned.push(p);
                }
                *count += 1;
                *cut += refiner.gain.edge_cost(producer, consumer);
            }
            let row = &mut refiner.links[refiner.row[u as usize]..refiner.row[u as usize + 1]];
            debug_assert!(mentioned.len() <= row.len());
            for (slot, p) in row.iter_mut().zip(mentioned.drain(..)) {
                let (count, cut) = std::mem::take(&mut seen[p]);
                *slot = Link {
                    cut,
                    count,
                    part: p as u32,
                };
            }
        }
        refiner.stats.edge_visits = graph.edge_count() as u64;
        refiner
    }

    /// Node `u`'s row of the table.
    #[inline]
    fn row(&self, u: NodeId) -> &[Link] {
        &self.links[self.row[u as usize]..self.row[u as usize + 1]]
    }

    /// Records that `u` gained a neighbour in part `p` over an edge
    /// costing `c`.
    fn link(&mut self, u: NodeId, p: usize, c: i64) {
        let row = &mut self.links[self.row[u as usize]..self.row[u as usize + 1]];
        // The live slot for `p`, or else a free one: a row has a slot per
        // part its neighbours can occupy at once, and the neighbour
        // arriving in a part no slot is live for is not yet counted.
        let mut free = None;
        let mut slot = None;
        for (i, l) in row.iter().enumerate() {
            if l.count == 0 {
                free = free.or(Some(i));
            } else if l.part() == p {
                slot = Some(i);
                break;
            }
        }
        let slot = &mut row[slot
            .or(free)
            .expect("a row holds every part its neighbours occupy")];
        slot.part = p as u32;
        slot.count += 1;
        slot.cut += c;
    }

    /// Records that `u` lost a neighbour in part `p` over an edge costing
    /// `c`.
    fn unlink(&mut self, u: NodeId, p: usize, c: i64) {
        let row = &mut self.links[self.row[u as usize]..self.row[u as usize + 1]];
        let slot = row
            .iter_mut()
            .find(|l| l.count > 0 && l.part() == p)
            .expect("a neighbour's part has a live slot");
        slot.count -= 1;
        slot.cut -= c;
    }

    /// Summed edge cost of `u`'s edges to its neighbours in part `p`.
    fn cut(&self, u: NodeId, p: usize) -> i64 {
        let live = self.row(u).iter().find(|l| l.count > 0 && l.part() == p);
        live.map_or(0, |l| l.cut)
    }

    /// The destination the sweep picks for `u`: the best strictly
    /// positive gain among the admissible parts of its neighbours.
    fn best_move(&mut self, u: NodeId, max_load: u64) -> Option<usize> {
        let graph = self.graph;
        let from = self.part[u as usize];
        let w = self.weight[u as usize];
        let from_cut = self.cut(u, from);
        let mut best: Option<(usize, i64)> = None;
        self.tied.clear();
        for l in &self.links[self.row[u as usize]..self.row[u as usize + 1]] {
            let to = l.part();
            if l.count == 0
                || to == from
                || self.loads[to] + w > max_load
                || !self.gain.allow(u, to)
            {
                continue;
            }
            let g = l.cut - from_cut + self.gain.node_gain(u, from, to);
            if g <= 0 {
                continue;
            }
            match best {
                Some((_, b)) if g < b => {}
                Some((_, b)) if g == b => self.tied.push(to),
                _ => {
                    best = Some((to, g));
                    self.tied.clear();
                    self.tied.push(to);
                }
            }
        }
        let (mut to, _) = best?;
        if self.tied.len() > 1 {
            // Equal gains go to the part met first along u's
            // predecessors, then successors — the order a neighbour walk
            // would have proposed them in.
            let neighbours = graph.predecessors(u).iter().chain(graph.successors(u));
            for (i, &v) in neighbours.enumerate() {
                let p = self.part[v as usize];
                if self.tied.contains(&p) {
                    to = p;
                    self.stats.edge_visits += i as u64 + 1;
                    break;
                }
            }
        }
        Some(to)
    }

    /// Moves `u` to part `to` and restores the invariant: only `u`'s
    /// neighbours see a neighbour change part.
    fn commit(&mut self, u: NodeId, to: usize) {
        let graph = self.graph;
        let from = self.part[u as usize];
        let preds = graph.predecessors(u).iter().map(|&p| (p, p, u));
        let succs = graph.successors(u).iter().map(|&s| (s, u, s));
        for (v, producer, consumer) in preds.chain(succs) {
            let c = self.gain.edge_cost(producer, consumer);
            self.unlink(v, from, c);
            self.link(v, to, c);
        }
        self.stats.edge_visits += (graph.in_degree(u) + graph.out_degree(u)) as u64;
        let w = self.weight[u as usize];
        self.part[u as usize] = to;
        self.loads[from] -= w;
        self.loads[to] += w;
        self.gain.commit(u, from, to);
        self.stats.moves += 1;
    }

    /// One greedy sweep over all nodes; returns the number of moves.
    fn sweep(&mut self, max_load: u64) -> usize {
        let before = self.stats.moves;
        for u in self.graph.nodes() {
            if let Some(to) = self.best_move(u, max_load) {
                self.commit(u, to);
            }
        }
        self.stats.moves - before
    }
}

/// Greedy k-way refinement of `part` into `loads.len()` parts: up to
/// `passes` sweeps over all nodes; each node considers moving to each
/// distinct part among its neighbors and takes the best
/// strictly-positive-gain move that `gain`'s level quota admits and that
/// keeps the destination's load within `max_load` (equal gains: the part
/// met first along the node's predecessors, then successors). `loads` and
/// `gain` are kept in sync.
///
/// The cost is one walk over the edges to set up a per-node connectivity
/// table of O(E) slots, one read of the table per sweep (`min(deg, k)`
/// slots per node), and the neighbours' rows per committed move — see
/// [`RefineStats::edge_visits`].
///
/// Panics unless `part` and `weight` have one entry per node, every part
/// is `< loads.len()`, and `loads.len()` is the worker count `gain` was
/// built for.
pub fn refine_kway(
    graph: &TaskGraph,
    part: &mut [usize],
    weight: &[u64],
    loads: &mut [u64],
    max_load: u64,
    passes: usize,
    gain: &mut MakespanGain,
) -> RefineStats {
    let mut refiner = Refiner::new(graph, part, weight, loads, gain);
    for _ in 0..passes {
        if refiner.sweep(max_load) == 0 {
            break;
        }
    }
    refiner.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_color::Color;
    use nabbitc_graph::analysis::{edge_cut, level_profile};
    use nabbitc_graph::{generate, GraphBuilder, TaskGraph};

    fn apply(g: &TaskGraph, part: &[usize]) -> TaskGraph {
        let mut g2 = g.clone();
        g2.recolor(|u, _| Color::from(part[u as usize]));
        g2
    }

    /// The gain of a fresh [`MakespanGain`] for `part` over `k` workers.
    fn gain_for(g: &TaskGraph, part: &[usize], k: usize) -> MakespanGain {
        MakespanGain::new(g, &level_profile(g), part, k, &CostModel::default())
    }

    /// Gain of moving `u` from its part to `to`, walking its neighbours:
    /// each one in `to` heals its edge (save the edge's cost), each one
    /// left behind in `u`'s part cuts it (pay it); edges to any other
    /// part are cut both ways and cancel.
    fn walk_gain(gain: &MakespanGain, g: &TaskGraph, part: &[usize], u: NodeId, to: usize) -> i64 {
        let from = part[u as usize];
        let preds = g.predecessors(u).iter().map(|&p| (p, gain.edge_cost(p, u)));
        let succs = g.successors(u).iter().map(|&s| (s, gain.edge_cost(u, s)));
        let mut edge = 0i64;
        for (v, cost) in preds.chain(succs) {
            if part[v as usize] == to {
                edge += cost;
            } else if part[v as usize] == from {
                edge -= cost;
            }
        }
        edge + gain.node_gain(u, from, to)
    }

    /// The table's gain of moving `u` from its part to `to`: what its
    /// edges to `to` cost (healed) minus what its edges to its own part
    /// cost (cut), plus the gain's node term — what the sweep computes.
    fn table_gain(refiner: &Refiner<'_>, u: NodeId, to: usize) -> i64 {
        let from = refiner.part[u as usize];
        refiner.cut(u, to) - refiner.cut(u, from) + refiner.gain.node_gain(u, from, to)
    }

    fn recount(part: &[usize], weight: &[u64], k: usize) -> Vec<u64> {
        let mut loads = vec![0u64; k];
        for (u, &p) in part.iter().enumerate() {
            loads[p] += weight[u];
        }
        loads
    }

    #[test]
    fn refine_kway_reduces_cut_on_scrambled_chain() {
        let g = generate::chain(64, 4, 1);
        let mut part: Vec<usize> = (0..64).map(|u| u % 2).collect(); // worst case
        let weight: Vec<u64> = g.nodes().map(|u| g.work(u)).collect();
        let mut loads = recount(&part, &weight, 2);
        let before = edge_cut(&apply(&g, &part));
        let mut gain = gain_for(&g, &part, 2);
        let stats = refine_kway(&g, &mut part, &weight, &mut loads, u64::MAX, 8, &mut gain);
        let after = edge_cut(&apply(&g, &part));
        assert!(stats.moves > 0);
        assert!(after < before, "cut {after} !< {before}");
        // Loads stayed consistent.
        assert_eq!(recount(&part, &weight, 2), loads);
    }

    #[test]
    fn refine_kway_respects_load_cap_and_veto() {
        let g = generate::chain(10, 1, 1);
        let weight: Vec<u64> = g.nodes().map(|_| 1).collect();

        // Cap: part 1 is already at the cap, so nothing may move into it.
        let mut part: Vec<usize> = (0..10).map(|u| usize::from(u >= 5)).collect();
        let mut loads = [5u64, 5];
        let mut gain = gain_for(&g, &part, 2);
        let stats = refine_kway(&g, &mut part, &weight, &mut loads, 5, 4, &mut gain);
        assert_eq!(stats.moves, 0, "cap must block every move");

        // Veto: same setup with room, but a one-tick quota on every level
        // admits no node anywhere.
        let mut part: Vec<usize> = (0..10).map(|u| u % 2).collect();
        let mut loads = [5u64, 5];
        let mut gain = gain_for(&g, &part, 2).with_level_quota(vec![1; 10]);
        let stats = refine_kway(&g, &mut part, &weight, &mut loads, u64::MAX, 4, &mut gain);
        assert_eq!(stats.moves, 0, "veto must block every move");
        // Without the quota the same sweep does move.
        let mut gain = gain_for(&g, &part, 2);
        let stats = refine_kway(&g, &mut part, &weight, &mut loads, u64::MAX, 4, &mut gain);
        assert!(stats.moves > 0);
    }

    /// Two independent nodes (512 bytes, work 10) funneled into one sink
    /// (512 bytes, work 1): one wide level + the sink level, with real
    /// byte traffic on the funnel edges.
    fn fork_with_bytes() -> TaskGraph {
        let mut b = GraphBuilder::new();
        b.add_simple_node(10, Color(0), 512);
        b.add_simple_node(10, Color(0), 512);
        b.add_simple_node(1, Color(0), 512);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        b.build().unwrap()
    }

    /// Default-model tick weight of a node: 200 overhead + work + bytes.
    fn tick(g: &TaskGraph, u: NodeId) -> u64 {
        let cost = CostModel::default();
        cost.node_ticks(g.work(u), g.footprint(u), 0).max(1)
    }

    #[test]
    fn makespan_gain_quota_vetoes_reconcentration() {
        // Both wide-level nodes on color 0; quota = the level's current
        // concentration: moving anything more onto color 0 is vetoed,
        // spreading to color 1 is allowed.
        let g = fork_with_bytes();
        let level0 = tick(&g, 0) + tick(&g, 1);
        let mg = gain_for(&g, &[0, 0, 0], 2).with_level_quota(vec![level0, 0]);
        assert!(!mg.allow(0, 0), "color 0 is past the level quota");
        assert!(mg.allow(0, 1), "color 1 has quota headroom");
    }

    #[test]
    fn makespan_gain_prefers_spreading_a_level() {
        // Both wide-level nodes on color 0: moving one to color 1 cuts a
        // funnel edge (a remote-byte loss) but more than recovers it in
        // level spread.
        let g = fork_with_bytes();
        let part = [0usize, 0, 0];
        let cost = CostModel::default();
        let mg = gain_for(&g, &part, 2);
        let gain = walk_gain(&mg, &g, &part, 0, 1);
        // Spread: m_from(2·722) − m_to(0) − w(722) = +722; edge: funnel
        // edge 0→sink becomes cut: −remote_excess(min(512, 512/2)) = −512.
        let w = tick(&g, 0) as i64;
        let edge = -(cost.remote_excess(g.edge_traffic(0, 2)) as i64);
        assert_eq!(gain, w + edge);
        assert!(gain > 0, "spreading an over-concentrated level must gain");
        // Moving the sink off its predecessors' color cuts *both* funnel
        // edges with zero spread benefit: a pure loss.
        assert!(walk_gain(&mg, &g, &part, 2, 1) < 0);
    }

    #[test]
    fn makespan_gain_commit_tracks_level_loads() {
        let g = fork_with_bytes();
        let mut mg = gain_for(&g, &[0, 0, 0], 2);
        let w = tick(&g, 0);
        assert_eq!(mg.level_load(0, 0), 2 * w);
        mg.commit(1, 0, 1);
        assert_eq!(mg.level_load(0, 0), w);
        assert_eq!(mg.level_load(0, 1), w);
    }

    // ---- shape assertions: bad arguments fail at entry, by name ----

    /// A valid 2-part refinement input over a 6-node chain, with its gain.
    fn chain_input() -> (TaskGraph, Vec<usize>, Vec<u64>, Vec<u64>, MakespanGain) {
        let g = generate::chain(6, 1, 1);
        let part = vec![0, 0, 0, 1, 1, 1];
        let gain = gain_for(&g, &part, 2);
        (g, part, vec![1; 6], vec![3, 3], gain)
    }

    #[test]
    #[should_panic(expected = "part: one entry per node")]
    fn makespan_gain_rejects_a_short_part() {
        gain_for(&fork_with_bytes(), &[0, 0], 2);
    }

    #[test]
    #[should_panic(expected = "part: node 1 is in part 2, but there are 2 workers")]
    fn makespan_gain_rejects_an_out_of_range_part() {
        gain_for(&fork_with_bytes(), &[0, 2, 0], 2);
    }

    #[test]
    #[should_panic(expected = "quota: 1 entries for 2 levels")]
    fn makespan_gain_rejects_a_short_quota() {
        let _ = gain_for(&fork_with_bytes(), &[0, 0, 0], 2).with_level_quota(vec![7]);
    }

    #[test]
    #[should_panic(expected = "part: one entry per node")]
    fn refine_kway_rejects_a_short_part() {
        let (g, mut part, weight, mut loads, mut gain) = chain_input();
        part.pop();
        refine_kway(&g, &mut part, &weight, &mut loads, 9, 1, &mut gain);
    }

    #[test]
    #[should_panic(expected = "weight: one entry per node")]
    fn refine_kway_rejects_a_short_weight() {
        let (g, mut part, mut weight, mut loads, mut gain) = chain_input();
        weight.pop();
        refine_kway(&g, &mut part, &weight, &mut loads, 9, 1, &mut gain);
    }

    #[test]
    #[should_panic(expected = "part: node 5 is in part 2, but loads has 2 entries")]
    fn refine_kway_rejects_a_part_without_a_load() {
        let (g, mut part, weight, mut loads, mut gain) = chain_input();
        part[5] = 2;
        refine_kway(&g, &mut part, &weight, &mut loads, 9, 1, &mut gain);
    }

    #[test]
    #[should_panic(expected = "loads: one entry per part of the gain")]
    fn refine_kway_rejects_loads_of_another_part_count_than_the_gain() {
        // Three load slots against a gain built for two workers: a move
        // into part 2 would index the next level's row of the gain.
        let (g, mut part, weight, _, mut gain) = chain_input();
        let mut loads = vec![3u64, 3, 0];
        refine_kway(&g, &mut part, &weight, &mut loads, 9, 1, &mut gain);
    }

    // ---- the table against the definition ----

    /// The parent of the table-driven sweep, kept as the reference: walk
    /// every node's neighbours to list candidate parts in first-met order
    /// and again for every candidate's gain.
    fn reference_refine(
        graph: &TaskGraph,
        part: &mut [usize],
        weight: &[u64],
        loads: &mut [u64],
        max_load: u64,
        passes: usize,
        gain: &mut MakespanGain,
    ) -> usize {
        let mut total_moves = 0usize;
        let mut cands: Vec<usize> = Vec::new();
        for _ in 0..passes {
            let mut moved = 0usize;
            for u in graph.nodes() {
                let from = part[u as usize];
                let w = weight[u as usize];
                cands.clear();
                for &v in graph.predecessors(u).iter().chain(graph.successors(u)) {
                    let p = part[v as usize];
                    if p != from && !cands.contains(&p) {
                        cands.push(p);
                    }
                }
                let mut best: Option<(usize, i64)> = None;
                for &to in &cands {
                    if loads[to] + w > max_load || !gain.allow(u, to) {
                        continue;
                    }
                    let g = walk_gain(gain, graph, part, u, to);
                    if g > 0 && best.map(|(_, b)| g > b).unwrap_or(true) {
                        best = Some((to, g));
                    }
                }
                if let Some((to, _)) = best {
                    part[u as usize] = to;
                    loads[from] -= w;
                    loads[to] += w;
                    gain.commit(u, from, to);
                    moved += 1;
                }
            }
            total_moves += moved;
            if moved == 0 {
                break;
            }
        }
        total_moves
    }

    /// [`MakespanGain`]'s gain written out from its definition, with no
    /// state carried between calls: the remote-byte excess of every edge
    /// the move heals or cuts, plus the level-concentration delta over a
    /// fresh count of the level's tick-weights.
    fn definition_gain(
        g: &TaskGraph,
        level_of: &[u32],
        part: &[usize],
        cost: &CostModel,
        u: NodeId,
        to: usize,
    ) -> i64 {
        let from = part[u as usize];
        let mut edge = 0i64;
        let preds = g.predecessors(u).iter().map(|&p| (p, g.edge_traffic(p, u)));
        let succs = g.successors(u).iter().map(|&s| (s, g.edge_traffic(u, s)));
        for (v, bytes) in preds.chain(succs) {
            let excess = cost.remote_excess(bytes) as i64;
            let before = part[v as usize] != from;
            let after = part[v as usize] != to;
            edge += excess * (i64::from(before) - i64::from(after));
        }
        let tick = |v: NodeId| cost.node_ticks(g.work(v), g.footprint(v), 0).max(1) as i64;
        let level_load = |c: usize| -> i64 {
            g.nodes()
                .filter(|&v| level_of[v as usize] == level_of[u as usize] && part[v as usize] == c)
                .map(tick)
                .sum()
        };
        edge + level_load(from) - level_load(to) - tick(u)
    }

    /// The graph and part count one proptest case runs on.
    fn case(shape: usize, a: usize, b: usize, k_index: usize, seed: u64) -> (TaskGraph, usize) {
        let g = match shape {
            0 => generate::layered_random(a, b, 4, (1, 300), 1, seed),
            _ => generate::wavefront(a, b, 1 + seed % 50, 1),
        };
        (g, [2usize, 3, 5, 8][k_index])
    }

    /// `g`'s structure with unit work and no bytes: every edge costs
    /// nothing and every node weighs the same, so a move's gain is its
    /// level's spread alone and most candidates tie.
    fn tie_heavy(g: &TaskGraph) -> TaskGraph {
        let mut b = GraphBuilder::new();
        for _ in g.nodes() {
            b.add_simple_node(1, Color(0), 0);
        }
        for u in g.nodes() {
            for &s in g.successors(u) {
                b.add_edge(u, s);
            }
        }
        b.build().unwrap()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn table_gains_equal_the_definition_after_any_moves(
            shape in 0usize..2,
            a in 2usize..7,
            b in 2usize..8,
            k_index in 0usize..4,
            seed in 0u64..10_000,
            moves in proptest::collection::vec(0usize..1_000_000, 0..24),
        ) {
            let (g, k) = case(shape, a, b, k_index, seed);
            let n = g.node_count();
            let profile = level_profile(&g);
            let cost = CostModel::default();
            let weight: Vec<u64> = g.nodes().map(|u| crate::node_weight(&g, u)).collect();
            let mut part: Vec<usize> = (0..n).map(|u| (u * 7 + seed as usize) % k).collect();
            let mut loads = recount(&part, &weight, k);
            let mut gain = MakespanGain::new(&g, &profile, &part, k, &cost);
            let mut refiner = Refiner::new(&g, &mut part, &weight, &mut loads, &mut gain);
            for r in moves {
                let (u, to) = ((r % n) as NodeId, (r / n) % k);
                if to != refiner.part[u as usize] {
                    refiner.commit(u, to);
                }
            }
            let part_now: Vec<usize> = refiner.part.to_vec();
            let part: &[usize] = &part_now;
            for u in g.nodes() {
                let from = part[u as usize];
                for to in (0..k).filter(|&to| to != from) {
                    let table = table_gain(&refiner, u, to);
                    let defined = definition_gain(&g, &profile.level_of, part, &cost, u, to);
                    prop_assert!(
                        table == defined,
                        "node {} to part {}: table {} != definition {}",
                        u,
                        to,
                        table,
                        defined
                    );
                    prop_assert_eq!(table, walk_gain(refiner.gain, &g, part, u, to));
                }
                // The live slots are the neighbours, part by part.
                let row = refiner.row(u);
                for p in 0..k {
                    let live = row.iter().filter(|l| l.count > 0 && l.part() == p);
                    let neighbours = g.predecessors(u).iter().chain(g.successors(u));
                    prop_assert_eq!(
                        live.map(|l| l.count as usize).collect::<Vec<_>>(),
                        Some(neighbours.filter(|&&v| part[v as usize] == p).count())
                            .filter(|&c| c > 0)
                            .into_iter()
                            .collect::<Vec<_>>()
                    );
                }
                prop_assert!(row.iter().all(|l| l.count > 0 || l.cut == 0));
            }
            prop_assert_eq!(&*refiner.loads, &recount(part, &weight, k)[..]);
        }

        #[test]
        fn refine_kway_equals_the_reference_sweep(
            shape in 0usize..2,
            a in 2usize..7,
            b in 2usize..8,
            k_index in 0usize..4,
            seed in 0u64..10_000,
            capped in 0usize..2,
        ) {
            let (g, k) = case(shape, a, b, k_index, seed);
            let n = g.node_count();
            let start: Vec<usize> = (0..n).map(|u| (u * 7 + seed as usize) % k).collect();
            // The graph as generated (equal footprints: plenty of tied
            // gains), and its tie-heavy twin, where nearly every gain ties.
            for g in [g.clone(), tie_heavy(&g)] {
                let weight: Vec<u64> = g.nodes().map(|u| crate::node_weight(&g, u)).collect();
                let max_load = match capped {
                    0 => u64::MAX,
                    _ => crate::balance_limit(&g, k),
                };
                let (mut part, mut loads) = (start.clone(), recount(&start, &weight, k));
                let mut gain = gain_for(&g, &part, k);
                let stats = refine_kway(&g, &mut part, &weight, &mut loads, max_load, 4, &mut gain);
                let (mut ref_part, mut ref_loads) = (start.clone(), recount(&start, &weight, k));
                let mut gain = gain_for(&g, &ref_part, k);
                let ref_moves = reference_refine(
                    &g, &mut ref_part, &weight, &mut ref_loads, max_load, 4, &mut gain,
                );
                prop_assert_eq!(&loads, &recount(&part, &weight, k));
                prop_assert_eq!((part, loads, stats.moves), (ref_part, ref_loads, ref_moves));
            }
        }
    }

    // ---- the cost of a call does not grow with its passes ----

    #[test]
    fn edge_visits_are_one_setup_walk_plus_the_moved_nodes_neighbourhoods() {
        // Dense layers (every node draws up to 256 of the 256 nodes above
        // it): walking neighbours per candidate per pass, as the sweep
        // used to, costs ≈ passes · (candidates + 1) · 2E here. The table
        // walks the edges once, then only around the moves it commits —
        // however many passes it is given.
        let g = generate::layered_random(5, 256, 256, (1, 300), 1, 42);
        let e = g.edge_count() as u64;
        assert!(e >= 100 * 4 * 256, "mean in-degree {} < 100", e / (4 * 256));
        let degree = |u: NodeId| (g.in_degree(u) + g.out_degree(u)) as u64;
        let weight: Vec<u64> = g.nodes().map(|u| crate::node_weight(&g, u)).collect();
        for k in [2usize, 8] {
            let mut visits = Vec::new();
            for passes in [2usize, 16] {
                let start: Vec<usize> = g.nodes().map(|u| u as usize % k).collect();
                let (mut part, mut loads) = (start.clone(), recount(&start, &weight, k));
                let mut gain = gain_for(&g, &part, k);
                // `refine_kway`'s loop, one sweep at a time: a node moves
                // at most once per sweep, so the sweep's moves are the
                // nodes whose part it changed.
                let mut refiner = Refiner::new(&g, &mut part, &weight, &mut loads, &mut gain);
                let mut around_moves = 0u64;
                for _ in 0..passes {
                    let before = refiner.part.to_vec();
                    let moved = refiner.sweep(u64::MAX);
                    let changed = g
                        .nodes()
                        .filter(|&u| refiner.part[u as usize] != before[u as usize]);
                    let changed: Vec<NodeId> = changed.collect();
                    assert_eq!(changed.len(), moved, "k={k}: a node moved twice in a sweep");
                    around_moves += changed.iter().map(|&u| degree(u)).sum::<u64>();
                    if moved == 0 {
                        break;
                    }
                }
                let stats = refiner.stats;
                assert!(stats.moves > 0, "k={k}: nothing to refine");
                // The loop above is `refine_kway`'s, visit for visit.
                let (mut part, mut loads) = (start.clone(), recount(&start, &weight, k));
                let mut gain = gain_for(&g, &part, k);
                let call = refine_kway(
                    &g,
                    &mut part,
                    &weight,
                    &mut loads,
                    u64::MAX,
                    passes,
                    &mut gain,
                );
                assert_eq!(call, stats, "k={k} passes={passes}");
                // One commit walk per move, at most one tie-break walk.
                assert!(
                    stats.edge_visits <= e + 2 * around_moves,
                    "k={k} passes={passes}: {} adjacency visits for {e} edges and \
                     {around_moves} around {} moves",
                    stats.edge_visits,
                    stats.moves
                );
                visits.push((stats.edge_visits, around_moves));
            }
            // More passes cost only what their extra moves cost.
            let ((few, few_moves), (many, many_moves)) = (visits[0], visits[1]);
            assert!(many - few <= 2 * (many_moves - few_moves), "k={k}");
        }
    }
}
