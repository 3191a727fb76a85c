//! Meta-assignment: run a portfolio of candidate assigners and keep the
//! one the makespan estimator likes best.
//!
//! PR 2 left the strategy table forked: [`CpLevelAware`] wins wavefront
//! shapes (sw), where cut-optimal partitions serialize the anti-diagonal
//! pipeline, while [`RecursiveBisection`] still owns stencils (heat),
//! where the cut *is* the makespan. No single objective — edge-cut or
//! level-spread — wins both, so the paper's claim that locality coloring
//! beats color-oblivious stealing *across* workload shapes needs an entry
//! point that picks per graph. [`AutoSelect`] is that entry point, and it
//! runs two fixed rounds:
//!
//! 1. **Home path.** As the paper colors a task by its input block, its
//!    [home](TaskGraph::home), on a graph whose nodes share homes
//!    [`RecursiveBisection`] and [`BlockContiguous`] first partition the
//!    *home graph*; each result is expanded through `home(u)` and scored
//!    on the full graph (steps 3–4). The better one settles the selection
//!    if its heaviest color is within 5 % of an even share; otherwise the
//!    node path runs too ([`SelectionReport::balance_fallback`]).
//! 2. **Node path, with one shape rule.** [`RecursiveBisection`] and
//!    [`CpLevelAware`] (priced by [`AutoSelect::cost`]) color the nodes,
//!    handed the one [`level_profile`] the selection takes
//!    ([`ColorAssigner::assign_profiled`]). On a deep wavefront
//!    ([`GraphShape::deep_wavefront`]) the bisection is skipped unpaid:
//!    its cut-minimal partition serializes whole dependency levels — the
//!    failure `results/autocolor_vs_hand.md` pins on sw (0.45× hand at
//!    P=20 vs cp-level-aware's 1.48×) — so it cannot win there.
//! 3. **Parallel candidacy, bounded by the machine.** The members of a
//!    round are independent, so they run side by side — but on no more
//!    threads than [`std::thread::available_parallelism`] reports, and
//!    the calling thread runs its share of them instead of sleeping in a
//!    `join`: a two-member round costs one spawned thread on two or more
//!    CPUs and none on one, where the members run one after the other in
//!    portfolio order. (The assigners and the scoring are memory-bound:
//!    more of them in flight than CPUs only stretches each one.)
//! 4. **Strict scoring.** Each assignment is scored with
//!    [`estimate_makespan_colored_strict_on`] at the target worker count
//!    under the selection's [`CostModel`] and worker→domain
//!    [`Topology`] — cross-color edges are priced as remote-byte
//!    bandwidth plus steal latency, not as a calibrated flat penalty,
//!    and under a real machine topology
//!    ([`with_topology`](AutoSelect::with_topology)) the bandwidth term
//!    applies only to *cross-domain* edges. An assignment that fails
//!    validity is *disqualified*: scoring a color no worker owns would
//!    price a buggy assigner on a larger machine than the real one and
//!    could let it win the selection. If no candidate scores, `select`
//!    panics naming each rejection rather than substituting a coloring
//!    nobody chose.
//! 5. **Argmin.** The lowest estimate wins; ties break toward the entry
//!    that ran first (the home path, then portfolio order), keeping
//!    selection deterministic.
//! 6. **Domain packing.** On a multi-core-per-domain topology the winner
//!    is handed to [`pack_domains`], which permutes its colors so the
//!    heaviest-communicating pairs share a domain; the permutation is
//!    kept only when the domain-aware estimate strictly improves
//!    ([`SelectionReport::packed_estimate`]).
//!
//! [`AutoSelect::select`] additionally returns a [`SelectionReport`] with
//! every candidate's outcome and wall time ([`CandidateTime`]), which the
//! bench harnesses print next to the "auto" row. The estimator is trusted here because `nabbitc-numasim`
//! cross-checks that the selected assignment's *simulated* makespan stays
//! within tolerance of the best portfolio member on the three structural
//! families (wavefront, stencil, irregular dataflow) — see the
//! `auto_select_*` tests there and in `tests/makespan_regression.rs`.

use crate::domains::pack_domains;
use crate::{
    assignment_loads, balance_limit, BlockContiguous, ColorAssigner, CpLevelAware,
    RecursiveBisection,
};
use nabbitc_color::Color;
use nabbitc_cost::{CostModel, Topology};
use nabbitc_graph::analysis::{
    estimate_makespan_colored_strict_on, level_profile, InvalidColoring,
};
use nabbitc_graph::{GraphBuilder, NodeId, TaskGraph};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One member's scored assignment, or why it was disqualified.
type Scored = Result<(Vec<Color>, u64), InvalidColoring>;

/// A member of one round and the report entry it fills.
type Member<'a> = (usize, &'a (dyn ColorAssigner + Sync));

/// A node-path member, and whether a deep wavefront skips it.
type NodeMember<'a> = (&'a (dyn ColorAssigner + Sync), bool);

pub use nabbitc_graph::analysis::GraphShape;

/// What happened to one portfolio member during a selection.
#[derive(Debug, Clone, PartialEq)]
pub enum CandidateOutcome {
    /// Ran and scored: the strict makespan estimate of its assignment.
    Estimated(u64),
    /// Never ran: dropped by the shape pre-filter, settled by the home
    /// path before the node portfolio ran, or the machine was degenerate
    /// (`workers == 1`, where every assigner is monochrome and no
    /// candidate runs at all — [`SelectionReport::chosen`] is `None`).
    Skipped,
    /// Ran, but produced an assignment with invalid or out-of-range
    /// colors; disqualified by the strict estimator.
    Rejected(InvalidColoring),
}

/// Wall time one portfolio member cost a selection, on the thread that
/// ran it (see [`SelectionReport::times`] for how the members' times
/// relate to [`SelectionReport::elapsed`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateTime {
    /// The member's [`ColorAssigner::assign_profiled`] call.
    pub assign: std::time::Duration,
    /// Scoring its assignment with the strict makespan estimator.
    pub score: std::time::Duration,
}

/// Per-candidate record of one [`AutoSelect::select`] run, for benches
/// and debugging ("why did auto pick that?").
///
/// Equality ignores [`elapsed`](Self::elapsed) and
/// [`times`](Self::times) (wall-clock noise): two reports are equal when
/// they record the same selection decisions.
#[derive(Debug, Clone)]
pub struct SelectionReport {
    /// Machine size the selection targeted.
    pub workers: usize,
    /// Cost model the estimator priced every candidate with.
    pub cost: CostModel,
    /// Worker→domain topology the estimator priced cut edges with
    /// ([`Topology::per_worker`] when none was supplied).
    pub topology: Topology,
    /// Shape summary the pre-filter saw; `None` when the home path
    /// settled the selection, so the node portfolio and its pre-filter
    /// never ran.
    pub shape: Option<GraphShape>,
    /// `(candidate name, outcome)` in portfolio order; the home path's
    /// `recursive-bisection` and `block-contiguous` follow when it ran.
    pub candidates: Vec<(&'static str, CandidateOutcome)>,
    /// What each entry of `candidates` cost, index for index (zero for a
    /// member that never ran). Members run on at most
    /// [`std::thread::available_parallelism`] threads, the caller's
    /// included: with a CPU per member they overlap, so the times do not
    /// add up to [`elapsed`](Self::elapsed) and the largest `assign +
    /// score` is the selection's long pole; with fewer CPUs than members,
    /// those sharing a thread run back to back and their times do add up.
    pub times: Vec<CandidateTime>,
    /// Index into `candidates` of the winner; `None` only for the
    /// degenerate machines (`workers == 1`) where no candidate ran.
    pub chosen: Option<usize>,
    /// `Some(h)` when a home-path entry won over the graph's `h` homes,
    /// so the returned colors are constant per home.
    pub homes: Option<usize>,
    /// Whether the home path's better coloring was more than 5 % past an
    /// even split, so the node portfolio ran too (the home coloring can
    /// still win unless it broke [`balance_limit`]).
    pub balance_fallback: bool,
    /// `Some(estimate)` when the domain-packing post-pass improved the
    /// winner: the returned colors are the packed permutation and this is
    /// their domain-aware strict estimate
    /// ([`chosen_estimate`](Self::chosen_estimate) returns it). `None`
    /// when the pass did not run (per-worker or single-domain topology)
    /// or did not improve.
    pub packed_estimate: Option<u64>,
    /// Wall-clock cost of the whole selection (candidate `assign` runs,
    /// scoring, and the packing post-pass) — what choosing a coloring
    /// automatically actually costs, next to the execution time it buys.
    pub elapsed: std::time::Duration,
}

impl PartialEq for SelectionReport {
    fn eq(&self, other: &Self) -> bool {
        self.workers == other.workers
            && self.cost == other.cost
            && self.topology == other.topology
            && self.shape == other.shape
            && self.candidates == other.candidates
            && self.chosen == other.chosen
            && self.homes == other.homes
            && self.balance_fallback == other.balance_fallback
            && self.packed_estimate == other.packed_estimate
    }
}

impl SelectionReport {
    /// The winning candidate's name ("monochrome" when none ran).
    pub fn chosen_name(&self) -> &'static str {
        match self.chosen {
            Some(i) => self.candidates[i].0,
            None => "monochrome",
        }
    }

    /// The estimate of the returned assignment: the domain-packed
    /// estimate when the packing pass improved the winner, otherwise the
    /// winning candidate's estimate (0 when none ran).
    pub fn chosen_estimate(&self) -> u64 {
        if let Some(e) = self.packed_estimate {
            return e;
        }
        match self.chosen {
            Some(i) => match self.candidates[i].1 {
                CandidateOutcome::Estimated(e) => e,
                _ => unreachable!("chosen candidate is always Estimated"),
            },
            None => 0,
        }
    }
}

/// The meta-assigner (see module docs): evaluates a portfolio of
/// candidate assigners — side by side where the machine has the CPUs —
/// and returns the assignment with the lowest strict makespan estimate.
/// Built with `default()`, then [`with_cost_model`](Self::with_cost_model)
/// and [`with_topology`](Self::with_topology).
///
/// The portfolio is the two partitioning objectives, [`RecursiveBisection`]
/// (edge-cut) and [`CpLevelAware`] (makespan), after the home path, where
/// [`BlockContiguous`] does win (on `pagerank-auto`'s 1050 blocks). Over
/// the nodes neither it nor [`BfsLocality`](crate::BfsLocality) is a
/// member: they never win there — not in any row of
/// `results/autocolor_vs_hand.md`, not on any graph family the selection
/// tests use — and would cost every selection their `assign` and
/// estimate; the tests keep them as baselines the two-member selection
/// must never lose to. [`RoundRobin`](crate::RoundRobin) is left out too,
/// although it does win: it beats `auto` in three rows of that table
/// (`sw` at P = 20 and 40, `page-uk-2002` at P = 40). Adding it is an open
/// change to the selection, not a settled exclusion.
#[derive(Default)]
#[non_exhaustive]
pub struct AutoSelect {
    /// The cost model every assignment is scored with and
    /// [`CpLevelAware`] optimizes under — node ticks over work and
    /// footprint, plus the two cross-color edge terms (remote-byte
    /// bandwidth on the consumer's execution, steal latency on its ready
    /// time). Replaces the old hand-calibrated `cross_penalty_frac`:
    /// because the bandwidth term scales with the bytes an edge actually
    /// moves, memory-bound stencils and latency-bound wavefronts rank
    /// correctly under the *same* model, with nothing left to tune.
    pub cost: CostModel,
    /// The worker→domain topology candidates are scored against. `None`
    /// (the default) prices every worker as its own domain — the
    /// conservative pre-domain-aware behaviour; see
    /// [`with_topology`](Self::with_topology) for scoring against a real
    /// machine (the paper's 8×10), where same-domain cut edges are free
    /// and the domain-packing post-pass runs on the winner.
    pub topology: Option<Topology>,
}

impl AutoSelect {
    /// Replaces the cost model (builder style): the scoring *and*
    /// [`CpLevelAware`]'s sweep and refinement price the same machine.
    /// Panics on invalid bandwidth terms.
    pub fn with_cost_model(self, cost: CostModel) -> Self {
        cost.assert_valid();
        AutoSelect { cost, ..self }
    }

    /// Targets a machine topology (builder style): candidates are scored
    /// with the domain-aware strict estimator — same-domain cut edges
    /// move their bytes at local bandwidth — and the domain-packing
    /// post-pass ([`pack_domains`]) permutes the winner's colors onto
    /// domains when that improves the estimate.
    ///
    /// The portfolio members never see the topology: a color is a worker,
    /// and they price every cross-color edge as remote. Scoring reorders
    /// and packing are *placement-only* decisions (they choose between
    /// colorings, or relabel one, without changing any coloring's cut
    /// structure), which the domain-aware estimator prices faithfully. A
    /// member that crossed workers freely within a domain would change
    /// the cut structure itself, and its free intra-domain crossings
    /// would under-model the steal-discovery cost the simulator charges
    /// for moving execution between workers.
    pub fn with_topology(self, topo: Topology) -> Self {
        AutoSelect {
            topology: Some(topo),
            ..self
        }
    }

    /// Runs the home path and the node path (module docs) and returns the
    /// winning assignment plus the per-member report. Panics if `workers
    /// == 0`.
    pub fn select(&self, graph: &TaskGraph, workers: usize) -> (Vec<Color>, SelectionReport) {
        let level_aware = CpLevelAware::default().with_cost_model(self.cost.clone());
        let nodes: [NodeMember; 2] = [
            (&RecursiveBisection::default(), true),
            (&level_aware, false),
        ];
        self.select_among(graph, workers, &nodes)
    }

    /// [`select`](Self::select) with `nodes` as the node path's members,
    /// in tie-break order. Panics, naming each rejection, if no member
    /// scores.
    fn select_among(
        &self,
        graph: &TaskGraph,
        workers: usize,
        nodes: &[NodeMember],
    ) -> (Vec<Color>, SelectionReport) {
        assert!(workers > 0, "need at least one worker");
        let selection_started = Instant::now();
        self.cost.assert_valid();
        let topo = self
            .topology
            .clone()
            .unwrap_or_else(|| Topology::per_worker(workers));
        assert!(
            topo.cores() >= workers,
            "topology with {} cores cannot place {workers} workers",
            topo.cores()
        );
        let mut report = SelectionReport {
            workers,
            cost: self.cost.clone(),
            topology: topo.clone(),
            shape: None,
            candidates: nodes
                .iter()
                .map(|(m, _)| (m.name(), CandidateOutcome::Skipped))
                .collect(),
            times: vec![CandidateTime::default(); nodes.len()],
            chosen: None,
            homes: None,
            balance_fallback: false,
            packed_estimate: None,
            elapsed: Duration::ZERO,
        };

        // Degenerate machine: every assigner returns the monochrome
        // assignment, so there is nothing to select between.
        if workers == 1 {
            report.shape = Some(GraphShape::of(graph, workers));
            report.elapsed = selection_started.elapsed();
            return (vec![Color(0); graph.node_count()], report);
        }

        // The members of a round are independent and `assign` dominates
        // their cost, so they run side by side — on at most one thread
        // per CPU, the caller's own included: the round is cut into that
        // many contiguous runs, this thread takes the first and a scoped
        // thread each of the others. Panics inside a candidate are
        // re-thrown on the caller's thread. A member given `homes`
        // colors the home graph, and each node takes its home's color.
        let profile = OnceLock::new();
        let score = |assigner: &dyn ColorAssigner, homes: Option<&TaskGraph>| {
            let started = Instant::now();
            let colors = match homes {
                Some(homes) => {
                    let per_home = assigner.assign(homes, workers);
                    let home_color = |u| per_home[graph.home(u) as usize];
                    graph.nodes().map(home_color).collect()
                }
                None => assigner.assign_profiled(
                    graph,
                    workers,
                    profile.get_or_init(|| level_profile(graph)),
                ),
            };
            let assign = started.elapsed();
            let est =
                estimate_makespan_colored_strict_on(graph, &colors, workers, &self.cost, &topo);
            let time = CandidateTime {
                assign,
                score: started.elapsed() - assign,
            };
            (est.map(|est| (colors, est)), time)
        };
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        let evaluate = |members: &[Member], homes: Option<&TaskGraph>| {
            let run = |part: &[Member]| -> Vec<(Scored, CandidateTime)> {
                part.iter().map(|&(_, m)| score(m, homes)).collect()
            };
            let mut runs = members.chunks(members.len().div_ceil(cpus).max(1));
            let own = runs.next().unwrap_or_default();
            std::thread::scope(|s| {
                let run = &run;
                let spawned: Vec<_> = runs.map(|part| s.spawn(move || run(part))).collect();
                let mut results = run(own);
                for handle in spawned {
                    results.extend(
                        handle
                            .join()
                            .unwrap_or_else(|e| std::panic::resume_unwind(e)),
                    );
                }
                results
            })
        };

        type Best = Option<(u64, usize, Vec<Color>)>; // (estimate, index, colors)
        let mut best: Best = None;
        let ingest = |report: &mut SelectionReport,
                      members: &[Member],
                      homes: Option<&TaskGraph>,
                      best: &mut Best| {
            for (&(i, _), (eval, time)) in members.iter().zip(evaluate(members, homes)) {
                report.times[i] = time;
                match eval {
                    Ok((colors, est)) => {
                        report.candidates[i].1 = CandidateOutcome::Estimated(est);
                        // Strict `<`: ties break toward the entry run first.
                        if best.as_ref().is_none_or(|(b, _, _)| est < *b) {
                            *best = Some((est, i, colors));
                        }
                    }
                    Err(invalid) => report.candidates[i].1 = CandidateOutcome::Rejected(invalid),
                }
            }
        };

        // The home path (module docs), appended to the node path's entries.
        let mut settled = false;
        let mut home_entry = None;
        if let Some(homes) = home_graph(graph) {
            let first = report.candidates.len();
            let members: [Member; 2] = [
                (first, &RecursiveBisection::default()),
                (first + 1, &BlockContiguous),
            ];
            let skipped = members.map(|(_, m)| (m.name(), CandidateOutcome::Skipped));
            report.candidates.extend(skipped);
            report.times.resize(first + 2, CandidateTime::default());
            ingest(&mut report, &members, Some(&homes), &mut best);
            let Some((_, i, colors)) = &best else {
                unreachable!("block-contiguous colors validly")
            };
            let loads = assignment_loads(graph, colors, workers);
            let even = loads.iter().sum::<u64>().div_ceil(workers as u64);
            let heaviest = loads.into_iter().max().unwrap_or(0);
            settled = heaviest <= even + (even as f64 * HOME_SLACK) as u64;
            report.balance_fallback = !settled;
            home_entry = Some(*i);
            if heaviest > balance_limit(graph, workers) {
                best = None;
            }
        }

        // The node path: the portfolio colors the nodes themselves, but
        // for the members a deep wavefront skips.
        if !settled {
            let profile = profile.get_or_init(|| level_profile(graph));
            let shape = GraphShape::from_profile(profile, workers);
            report.shape = Some(shape);
            let run: Vec<Member> = (0..nodes.len())
                .filter(|&i| !(nodes[i].1 && shape.deep_wavefront()))
                .map(|i| (i, nodes[i].0))
                .collect();
            ingest(&mut report, &run, None, &mut best);
        }
        let Some((est, chosen, mut colors)) = best else {
            let rejections: Vec<String> = report
                .candidates
                .iter()
                .filter_map(|(name, outcome)| match outcome {
                    CandidateOutcome::Rejected(invalid) => Some(format!("{name}: {invalid}")),
                    _ => None,
                })
                .collect();
            panic!("no member scored: {}", rejections.join("; "));
        };
        report.chosen = Some(chosen);
        if home_entry == Some(chosen) {
            report.homes = Some(graph.home_count());
        }

        // Domain-packing post-pass: on a multi-core-per-domain machine,
        // permuting colors onto domains is free parallelism-wise but
        // changes which cut edges cross domains. Keep the permutation
        // only when the domain-aware estimate strictly improves.
        if topo.cores_per_domain() > 1 && topo.domains() > 1 {
            let packed = pack_domains(graph, &colors, workers, &topo);
            if packed != colors {
                let packed_est =
                    estimate_makespan_colored_strict_on(graph, &packed, workers, &self.cost, &topo)
                        .expect("packing permutes a valid assignment");
                if packed_est < est {
                    colors = packed;
                    report.packed_estimate = Some(packed_est);
                }
            }
        }
        report.elapsed = selection_started.elapsed();
        (colors, report)
    }
}

/// How far past an even share the home path's heaviest color may go and
/// still settle a selection: past it the homes are too few or too skewed.
const HOME_SLACK: f64 = 0.05;

/// The *home graph* of `graph` (`None` if every node is its own home):
/// one node per home with its nodes' summed work and footprint, and one
/// edge per pair of homes a dependence joins, lower id to higher. Linear:
/// one pass over the predecessors of each home's nodes, stamps in place
/// of sorting.
fn home_graph(graph: &TaskGraph) -> Option<TaskGraph> {
    let homes = graph.home_count();
    if homes == graph.node_count() {
        return None;
    }
    let nodes = 0..graph.node_count() as NodeId;
    let (start, by_home) = group(homes, nodes.map(|u| (graph.home(u), u)));
    let members = |h: usize| &by_home[start[h] as usize..start[h + 1] as usize];
    let mut stamp = vec![u32::MAX; homes];
    let mut pairs = Vec::with_capacity(graph.edge_count());
    for h in 0..homes as u32 {
        stamp[h as usize] = h;
        for &u in members(h as usize) {
            for &p in graph.predecessors(u) {
                let hp = graph.home(p);
                if std::mem::replace(&mut stamp[hp as usize], h) != h {
                    pairs.push((hp.min(h), hp.max(h)));
                }
            }
        }
    }
    let mut gb = GraphBuilder::with_capacity(homes, pairs.len());
    for h in 0..homes {
        let work = members(h).iter().map(|&u| graph.work(u)).sum();
        let bytes = members(h).iter().map(|&u| graph.footprint(u)).sum();
        gb.add_simple_node(work, Color(0), bytes);
    }
    let (start, higher) = group(homes, pairs.iter().copied());
    stamp.fill(u32::MAX);
    pairs.clear();
    for lo in 0..homes as u32 {
        for &hi in &higher[start[lo as usize] as usize..start[lo as usize + 1] as usize] {
            if std::mem::replace(&mut stamp[hi as usize], lo) != lo {
                pairs.push((hi, lo));
            }
        }
    }
    // Regrouped by the higher home, lower homes ascending in each: the
    // builder takes them in place, in the order it always stored.
    let (start, lower) = group(homes, pairs.iter().copied());
    for hi in 0..homes {
        for &lo in &lower[start[hi] as usize..start[hi + 1] as usize] {
            gb.add_edge(lo, hi as u32);
        }
    }
    Some(gb.build().expect("lower-to-higher edges are acyclic"))
}

/// Counting sort of `(key, value)` items, each key below `keys`: the
/// values of key `k` are `values[start[k]..start[k + 1]]`, in item order.
fn group(keys: usize, items: impl Iterator<Item = (u32, u32)> + Clone) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; keys + 1];
    items.clone().for_each(|(k, _)| start[k as usize + 1] += 1);
    (0..keys).for_each(|k| start[k + 1] += start[k]);
    // Each key's start is its cursor, left at the next key's start.
    let mut values = vec![0; start[keys] as usize];
    for (k, v) in items {
        values[start[k as usize] as usize] = v;
        start[k as usize] += 1;
    }
    start.rotate_right(1);
    start[0] = 0;
    (start, values)
}

impl AutoSelect {
    /// The meta-assigner's [`ColorAssigner::name`], as a constant so
    /// harnesses that special-case the meta row (e.g. to print its
    /// [`SelectionReport`]) don't hand-copy the string.
    pub const NAME: &'static str = "auto";
}

impl ColorAssigner for AutoSelect {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn assign(&self, graph: &TaskGraph, workers: usize) -> Vec<Color> {
        self.select(graph, workers).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assignment_is_valid, assignment_loads, balance_limit, BfsLocality};
    use nabbitc_graph::generate;
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// The estimate of a valid `colors`, every worker its own domain.
    fn estimate(g: &TaskGraph, colors: &[Color], workers: usize, cost: &CostModel) -> u64 {
        let topo = Topology::per_worker(workers);
        estimate_makespan_colored_strict_on(g, colors, workers, cost, &topo)
            .expect("valid coloring")
    }

    /// Strict estimates of the two portfolio members *and*, as
    /// baselines, the two static heuristics left out of it, bypassing the
    /// meta-machinery — the reference `select` must argmin against: the
    /// two-member selection is never worse than the best of the four.
    fn portfolio_estimates(g: &TaskGraph, workers: usize, cost: &CostModel) -> Vec<(String, u64)> {
        let four: [Box<dyn ColorAssigner>; 4] = [
            Box::new(RecursiveBisection::default()),
            Box::new(CpLevelAware::default()),
            Box::new(BfsLocality::default()),
            Box::new(BlockContiguous),
        ];
        four.iter()
            .map(|c| {
                let colors = c.assign(g, workers);
                (c.name().to_string(), estimate(g, &colors, workers, cost))
            })
            .collect()
    }

    /// The exhaustive winner: the first member with the lowest estimate.
    fn best_member(g: &TaskGraph, workers: usize, cost: &CostModel) -> String {
        let (name, _) = portfolio_estimates(g, workers, cost)
            .into_iter()
            .min_by_key(|(_, e)| *e)
            .expect("nonempty portfolio");
        name
    }

    #[test]
    fn matches_best_candidate_estimate_on_every_shape_family() {
        // The meta-assigner's defining property: never worse (under its
        // own objective) than the best individual portfolio member.
        for g in [
            generate::wavefront(20, 20, 8, 1),                  // sw-like
            generate::iterated_stencil(8, 48, 3, 1),            // heat-like
            generate::layered_random(8, 24, 3, (1, 300), 1, 7), // irregular
            generate::chain(40, 2, 1),                          // no parallelism
        ] {
            for p in [2usize, 4, 8] {
                let sel = AutoSelect::default();
                let (colors, report) = sel.select(&g, p);
                assert!(assignment_is_valid(&colors, p));
                let best = portfolio_estimates(&g, p, &report.cost)
                    .into_iter()
                    .map(|(_, e)| e)
                    .min()
                    .expect("nonempty portfolio");
                assert!(
                    report.chosen_estimate() <= best,
                    "p={p}: auto estimate {} worse than best member {best}",
                    report.chosen_estimate()
                );
                // The returned colors really are the chosen candidate's.
                assert_eq!(
                    estimate(&g, &colors, p, &report.cost),
                    report.chosen_estimate()
                );
            }
        }
    }

    #[test]
    fn picks_level_aware_on_wavefronts() {
        // The fork AutoSelect exists to close (ROADMAP, PR 2): cp must
        // win sw-shaped graphs with every member scored (i.e. by
        // estimate, not by rb's pre-filter skip). The complementary
        // claim — bisection wins the *real* heat stencil, whose cost
        // structure a uniform synthetic cannot reproduce — is pinned in
        // `tests/makespan_regression.rs` against the registry workload.
        let wf = generate::wavefront(24, 24, 8, 1);
        assert_eq!(best_member(&wf, 8, &CostModel::default()), "cp-level-aware");
    }

    #[test]
    fn prefilter_skips_the_wavefront_trap_without_changing_the_winner() {
        let wf = generate::wavefront(24, 24, 8, 1);
        let sel = AutoSelect::default();
        let (colors, rep) = sel.select(&wf, 8);
        // Deep pipeline with most weight in wide levels: bisection is
        // pre-filtered (the documented sw failure mode)…
        let shape = rep.shape.expect("the node path profiles levels");
        assert!(shape.levels > shape.max_width);
        assert!(
            matches!(
                rep.candidates
                    .iter()
                    .find(|(n, _)| *n == "recursive-bisection")
                    .map(|(_, o)| o),
                Some(CandidateOutcome::Skipped)
            ),
            "{rep:?}"
        );
        // …and the filtered selection still returns the exhaustive winner.
        assert_eq!(rep.chosen_name(), best_member(&wf, 8, &rep.cost));
        assert!(assignment_is_valid(&colors, 8));
    }

    #[test]
    fn prefilter_leaves_non_pipeline_shapes_exhaustive() {
        // The skip rule must not fire outside the wavefront family: on a
        // stencil (few wide levels) and a chain (no wide level at all)
        // every candidate runs.
        for g in [
            generate::iterated_stencil(5, 64, 3, 1),
            generate::chain(30, 2, 1),
        ] {
            let (_c, rep) = AutoSelect::default().select(&g, 4);
            assert!(
                rep.candidates
                    .iter()
                    .all(|(_, o)| !matches!(o, CandidateOutcome::Skipped)),
                "{rep:?}"
            );
        }
    }

    /// A buggy assigner: colors everything for a machine twice the
    /// requested size. Scored as if those workers existed it would look
    /// *faster* than any honest member on an independent-task graph.
    struct DoubleWide;
    impl ColorAssigner for DoubleWide {
        fn name(&self) -> &'static str {
            "double-wide"
        }
        fn assign(&self, graph: &TaskGraph, workers: usize) -> Vec<Color> {
            graph
                .nodes()
                .map(|u| Color::from(u as usize % (2 * workers)))
                .collect()
        }
    }

    /// A buggy assigner whose every color is `Color::INVALID`.
    struct AlwaysInvalid;
    impl ColorAssigner for AlwaysInvalid {
        fn name(&self) -> &'static str {
            "always-invalid"
        }
        fn assign(&self, graph: &TaskGraph, _workers: usize) -> Vec<Color> {
            vec![Color::INVALID; graph.node_count()]
        }
    }

    #[test]
    fn invalid_candidates_are_disqualified_not_scored() {
        let g = generate::independent(64, 50, 1);
        let members: [NodeMember; 2] = [(&DoubleWide, false), (&BlockContiguous, false)];
        let (colors, rep) = AutoSelect::default().select_among(&g, 2, &members);
        assert!(assignment_is_valid(&colors, 2));
        assert_eq!(rep.chosen_name(), "block-contiguous");
        match &rep.candidates[0].1 {
            CandidateOutcome::Rejected(err) => assert_eq!(err.workers, 2),
            o => panic!("double-wide should be rejected, got {o:?}"),
        }
    }

    #[test]
    fn single_worker_is_monochrome_without_running_candidates() {
        let g = generate::wavefront(6, 6, 1, 1);
        let (colors, rep) = AutoSelect::default().select(&g, 1);
        assert!(colors.iter().all(|&c| c == Color(0)));
        assert_eq!(rep.chosen, None);
        assert_eq!(rep.chosen_name(), "monochrome");
        assert!(rep
            .candidates
            .iter()
            .all(|(_, o)| matches!(o, CandidateOutcome::Skipped)));
    }

    #[test]
    fn explicit_portfolios_and_one_worker_keep_the_node_path() {
        // One worker keeps even a shared-home graph off the home path:
        // neither path runs and no home entry is reported.
        let g = shared_home_stencil(6, &[10; 16]);
        let (colors, rep) = AutoSelect::default().select(&g, 1);
        assert!(colors.iter().all(|&c| c == Color(0)));
        assert_eq!(rep.chosen_name(), "monochrome");
        assert_eq!((rep.homes, rep.balance_fallback), (None, false));
        assert!(rep
            .candidates
            .iter()
            .all(|(_, o)| matches!(o, CandidateOutcome::Skipped)));
    }

    #[test]
    fn with_cost_model_reprices_the_default_portfolio() {
        // The scoring and the level-aware member price the same machine:
        // on a deep wavefront, where the bisection is skipped, the
        // selection returns the colors of a `CpLevelAware` built under
        // that model, not those of the default one.
        let heavy = CostModel::default().with_remote_ratio(8.0);
        let g = generate::wavefront(16, 16, 4, 1);
        let (colors, rep) = AutoSelect::default()
            .with_cost_model(heavy.clone())
            .select(&g, 4);
        assert_eq!(rep.chosen_name(), "cp-level-aware", "{rep:?}");
        let member = CpLevelAware::default().with_cost_model(heavy.clone());
        assert_eq!(colors, member.assign(&g, 4));
        assert_ne!(colors, CpLevelAware::default().assign(&g, 4));
        assert_eq!(rep.cost, heavy);
        // Builder state set before the re-pricing survives it.
        let topo = Topology::new(2, 2);
        let sel = AutoSelect::default()
            .with_topology(topo.clone())
            .with_cost_model(heavy);
        assert_eq!(sel.topology, Some(topo));
    }

    #[test]
    fn times_parallel_the_candidates_and_do_not_enter_equality() {
        // Deep wavefront: bisection is pre-filtered and must report zero
        // time; everything that ran took some.
        let g = generate::wavefront(24, 24, 8, 1);
        let (_c, rep) = AutoSelect::default().select(&g, 8);
        assert_eq!(rep.times.len(), rep.candidates.len());
        for ((name, outcome), time) in rep.candidates.iter().zip(&rep.times) {
            let ran = !matches!(outcome, CandidateOutcome::Skipped);
            assert_eq!(time.assign + time.score > Duration::ZERO, ran, "{name}");
            assert!(time.assign + time.score <= rep.elapsed, "{name}");
        }
        let mut other = rep.clone();
        other.times[1].assign += Duration::from_secs(1);
        assert_eq!(rep, other, "wall times are not a selection decision");
    }

    #[test]
    fn with_topology_scores_domain_aware_and_packs_the_winner() {
        let g = generate::iterated_stencil(8, 48, 5, 1);
        let p = 8;
        let topo = Topology::new(2, 4);
        let sel = AutoSelect::default().with_topology(topo.clone());
        let (colors, rep) = sel.select(&g, p);
        assert!(assignment_is_valid(&colors, p));
        assert_eq!(rep.topology, topo);
        // The reported estimate is the returned assignment's domain-aware
        // estimate, whether or not the packing pass fired.
        assert_eq!(
            estimate_makespan_colored_strict_on(&g, &colors, p, &rep.cost, &topo),
            Ok(rep.chosen_estimate())
        );
        // The domain-aware estimate is never above the per-worker one for
        // the same assignment: same-domain cuts only remove cost.
        assert!(
            rep.chosen_estimate() <= estimate(&g, &colors, p, &rep.cost),
            "{rep:?}"
        );
        // Default (no topology): the per-worker scoring, and no packing.
        let (_c2, rep_pw) = AutoSelect::default().select(&g, p);
        assert_eq!(rep_pw.topology, Topology::per_worker(p));
        assert_eq!(rep_pw.packed_estimate, None);
    }

    #[test]
    fn packing_pass_fires_on_a_domain_hostile_winner() {
        use crate::domains::inter_domain_traffic;
        /// An assigner that interleaves domains on purpose: adjacent
        /// chain segments land in different domains of a 2×2 machine.
        struct DomainHostile;
        impl ColorAssigner for DomainHostile {
            fn name(&self) -> &'static str {
                "domain-hostile"
            }
            fn assign(&self, graph: &TaskGraph, workers: usize) -> Vec<Color> {
                // Contiguous quarters mapped 0,2,1,3: segment neighbors
                // (0,2) and (1,3) straddle the 2×2 domain boundary.
                let n = graph.node_count();
                let map = [0usize, 2, 1, 3];
                graph
                    .nodes()
                    .map(|u| {
                        let q = (u as usize * workers / n).min(workers - 1);
                        Color::from(map[q % 4])
                    })
                    .collect()
            }
        }
        let g = generate::chain(64, 2, 1); // heavy chain: all traffic serial
        let topo = Topology::new(2, 2);
        let sel = AutoSelect::default().with_topology(topo.clone());
        let (colors, rep) = sel.select_among(&g, 4, &[(&DomainHostile, false)]);
        // The packing pass re-labeled the quarters so chain neighbors
        // share domains where possible.
        assert!(rep.packed_estimate.is_some(), "{rep:?}");
        let raw = DomainHostile.assign(&g, 4);
        assert!(
            inter_domain_traffic(&g, &colors, &topo) < inter_domain_traffic(&g, &raw, &topo),
            "packing must reduce inter-domain traffic"
        );
        let raw_estimate = estimate_makespan_colored_strict_on(&g, &raw, 4, &rep.cost, &topo);
        assert!(rep.chosen_estimate() < raw_estimate.expect("valid coloring"));
    }

    #[test]
    fn default_portfolio_is_the_two_winners() {
        // The node path's two members, then the home path's two.
        let node_path = ["recursive-bisection", "cp-level-aware"];
        let both = [
            node_path.as_slice(),
            &["recursive-bisection", "block-contiguous"],
        ]
        .concat();
        let heavy = CostModel::default().with_remote_ratio(8.0);
        for sel in [
            AutoSelect::default(),
            AutoSelect::default().with_cost_model(heavy),
        ] {
            let names = |g: &TaskGraph| -> Vec<&str> {
                let (_c, rep) = sel.select(g, 2);
                rep.candidates.iter().map(|(name, _)| *name).collect()
            };
            assert_eq!(names(&generate::chain(4, 1, 1)), node_path);
            assert_eq!(names(&shared_home_stencil(2, &[10; 4])), both);
        }
    }

    #[test]
    fn select_panics_naming_each_rejection_when_no_member_scores() {
        let g = generate::independent(8, 50, 1);
        let members: [NodeMember; 2] = [(&AlwaysInvalid, false), (&DoubleWide, false)];
        let select = || AutoSelect::default().select_among(&g, 2, &members);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(select))
            .expect_err("no member scored, so nothing may be returned");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with("no member scored: "), "{msg}");
        assert!(msg.contains("always-invalid: node 0 carries"), "{msg}");
        assert!(
            msg.contains("double-wide: node 2 carries color c2"),
            "{msg}"
        );
    }

    #[test]
    fn select_runs_on_at_most_available_parallelism_threads() {
        /// What the members of one selection saw of each other.
        #[derive(Default)]
        struct Seen {
            running: usize,
            max_running: usize,
            threads: Vec<ThreadId>,
        }
        /// The bisection's colors, counting the `assign` calls in flight.
        struct Counting(Arc<Mutex<Seen>>);
        impl ColorAssigner for Counting {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn assign(&self, graph: &TaskGraph, workers: usize) -> Vec<Color> {
                {
                    let mut seen = self.0.lock().expect("no member panics");
                    seen.running += 1;
                    seen.max_running = seen.max_running.max(seen.running);
                    seen.threads.push(std::thread::current().id());
                }
                // Long enough for a member on another thread to overlap.
                let colors = RecursiveBisection::default().assign(graph, workers);
                self.0.lock().expect("no member panics").running -= 1;
                colors
            }
        }
        let seen = Arc::new(Mutex::new(Seen::default()));
        let g = generate::layered_random(12, 64, 8, (1, 300), 1, 5);
        let counting: Vec<Counting> = (0..4).map(|_| Counting(seen.clone())).collect();
        let members: Vec<NodeMember> = counting.iter().map(|m| (m as _, false)).collect();
        let (colors, rep) = AutoSelect::default().select_among(&g, 4, &members);
        assert!(assignment_is_valid(&colors, 4));
        assert_eq!(rep.chosen, Some(0), "equal estimates: portfolio order");
        let seen = seen.lock().expect("no member panicked");
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(seen.threads.len(), 4, "every member ran");
        assert!(
            seen.max_running <= cpus,
            "{} members in flight on {cpus} CPUs",
            seen.max_running
        );
        let threads: HashSet<ThreadId> = seen.threads.iter().copied().collect();
        assert!(threads.len() <= cpus, "{threads:?}");
        // The caller runs members itself instead of sleeping in `join`.
        assert!(seen.threads.contains(&std::thread::current().id()));
    }

    /// `steps` time steps over `block_work.len()` blocks, node `(t, b)`
    /// depending on `(t - 1, b - 1..=b + 1)`; every step of block `b` works
    /// on the block's home, at `block_work[b]`.
    fn shared_home_stencil(steps: usize, block_work: &[u64]) -> TaskGraph {
        let blocks = block_work.len();
        let id = |t: usize, b: usize| (t * blocks + b) as NodeId;
        let mut gb = GraphBuilder::new();
        for t in 0..steps {
            for (b, &work) in block_work.iter().enumerate() {
                if t == 0 {
                    gb.add_simple_node(work, Color(0), 4096);
                } else {
                    gb.add_node_at(work, Color(0), id(0, b));
                }
            }
        }
        for t in 1..steps {
            for b in 0..blocks {
                for q in b.saturating_sub(1)..(b + 2).min(blocks) {
                    gb.add_edge(id(t - 1, q), id(t, b));
                }
            }
        }
        gb.build().expect("stencil graph is acyclic")
    }

    /// The outcome recorded for the entry named `name` at or after `from`.
    fn outcome_of(rep: &SelectionReport, name: &str, from: usize) -> CandidateOutcome {
        rep.candidates[from..]
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, o)| o.clone())
            .unwrap_or_else(|| panic!("no {name} entry: {rep:?}"))
    }

    #[test]
    fn home_graph_sums_each_home_and_joins_each_pair_once() {
        let g = shared_home_stencil(3, &[5, 7, 9]);
        let h = home_graph(&g).expect("the steps share homes");
        assert_eq!(h.node_count(), 3);
        for b in 0..3 {
            assert_eq!(h.work(b), 3 * g.work(b), "home {b}");
            assert_eq!(h.footprint(b), 3 * 4096, "home {b}");
        }
        // Blocks 0–1 and 1–2 exchange halos, 0–2 never meet; the
        // self-dependences of a block's steps are no edge. Each pair is
        // one edge, from the lower home to the higher.
        assert_eq!(h.edge_count(), 2);
        assert_eq!(h.successors(0), &[1]);
        assert_eq!(h.successors(1), &[2]);
        assert_eq!(h.predecessors(0), &[] as &[NodeId]);
        // A graph whose nodes are their own homes has no home graph.
        assert!(home_graph(&generate::iterated_stencil(3, 3, 1, 1)).is_none());
    }

    #[test]
    fn home_graph_lists_lower_homes_in_ascending_order_whatever_the_walk() {
        // Five blocks over three steps, block b reading blocks b + 1 and
        // b + 2 (mod 5): a one-way home dependence, so the predecessor
        // walk meets home 3's lower homes as 1, 2, 0.
        let (blocks, steps) = (5, 3);
        let id = |t: usize, b: usize| (t * blocks + b) as NodeId;
        let mut gb = GraphBuilder::new();
        for t in 0..steps {
            for b in 0..blocks {
                if t == 0 {
                    gb.add_simple_node(1, Color(0), 64);
                } else {
                    gb.add_node_at(1, Color(0), id(0, b));
                }
            }
        }
        for t in 1..steps {
            for b in 0..blocks {
                for q in [b, (b + 1) % blocks, (b + 2) % blocks] {
                    gb.add_edge(id(t - 1, q), id(t, b));
                }
            }
        }
        let h = home_graph(&gb.build().unwrap()).expect("the steps share homes");
        // The reference: each joined pair once, added lower-home-major.
        let mut pairs: Vec<(NodeId, NodeId)> = (0..blocks)
            .flat_map(|b| [1, 2].map(|d| ((b + d) % blocks, b)))
            .map(|(p, b)| (p.min(b) as NodeId, p.max(b) as NodeId))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut rb = GraphBuilder::new();
        for _ in 0..blocks {
            rb.add_simple_node(steps as u64, Color(0), 64 * steps as u64);
        }
        for (lo, hi) in pairs {
            rb.add_edge(lo, hi);
        }
        let reference = rb.build().unwrap();
        assert_eq!(h.predecessors(3), &[0, 1, 2]);
        for v in h.nodes() {
            assert_eq!(h.predecessors(v), reference.predecessors(v), "home {v}");
            assert_eq!(h.successors(v), reference.successors(v), "home {v}");
        }
        assert_eq!(h.topo_order(), reference.topo_order());
    }

    #[test]
    fn home_path_settles_an_evenly_split_graph() {
        let g = shared_home_stencil(6, &[10; 16]);
        let (colors, rep) = AutoSelect::default().select(&g, 4);
        assert_eq!(rep.homes, Some(16), "{rep:?}");
        assert!(!rep.balance_fallback);
        assert_eq!(rep.shape, None, "the home path profiles no levels");
        // The node path's entries never ran; the home members trail.
        let portfolio = 2;
        for (name, outcome) in &rep.candidates[..portfolio] {
            assert_eq!(*outcome, CandidateOutcome::Skipped, "{name}");
        }
        assert!(rep.chosen.is_some_and(|i| i >= portfolio));
        for name in ["recursive-bisection", "block-contiguous"] {
            let outcome = outcome_of(&rep, name, portfolio);
            assert!(matches!(outcome, CandidateOutcome::Estimated(_)), "{name}");
        }
        // One color per home, and the reported estimate is the returned
        // coloring's.
        for u in g.nodes() {
            assert_eq!(colors[u as usize], colors[g.home(u) as usize], "node {u}");
        }
        assert_eq!(estimate(&g, &colors, 4, &rep.cost), rep.chosen_estimate());
    }

    #[test]
    fn a_heavy_home_falls_back_to_the_node_portfolio() {
        // Block 0 carries 100x the work of each other block: whichever
        // color holds its home holds four times an even share, past
        // `balance_limit`, so the node portfolio colors the steps apart.
        let g = shared_home_stencil(4, &[1000, 10, 10, 10]);
        let p = 4;
        let (colors, rep) = AutoSelect::default().select(&g, p);
        assert!(rep.balance_fallback, "{rep:?}");
        assert_eq!(rep.homes, None);
        assert!(rep.shape.is_some(), "the node path profiles levels");
        assert!(rep.chosen.is_some_and(|i| i < rep.candidates.len() - 2));
        let heaviest = *assignment_loads(&g, &colors, p).iter().max().unwrap();
        assert!(heaviest <= balance_limit(&g, p));
        // The home path ran and was recorded; the portfolio ran after it.
        for name in ["recursive-bisection", "cp-level-aware"] {
            assert!(
                matches!(outcome_of(&rep, name, 0), CandidateOutcome::Estimated(_)),
                "{name}: {rep:?}"
            );
        }
        assert!(matches!(
            outcome_of(&rep, "block-contiguous", 2),
            CandidateOutcome::Estimated(_)
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let g = generate::layered_random(8, 16, 3, (1, 200), 1, 11);
        let a = AutoSelect::default().select(&g, 6);
        let b = AutoSelect::default().select(&g, 6);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn respects_balance_on_uniform_shapes() {
        // AutoSelect inherits whatever its winner guarantees; on uniform
        // graphs every portfolio member meets the 2× bound, so the
        // selection must too.
        let g = generate::iterated_stencil(8, 32, 3, 4);
        for p in [2usize, 5, 8] {
            let colors = AutoSelect::default().assign(&g, p);
            let max = *assignment_loads(&g, &colors, p).iter().max().unwrap();
            assert!(max <= balance_limit(&g, p), "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_panics() {
        let g = generate::chain(3, 1, 1);
        let _ = AutoSelect::default().assign(&g, 0);
    }
}
