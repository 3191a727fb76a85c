//! Meta-assignment: run a portfolio of candidate assigners and keep the
//! one the makespan estimator likes best.
//!
//! PR 2 left the strategy table forked: [`CpLevelAware`] wins wavefront
//! shapes (sw), where cut-optimal partitions serialize the anti-diagonal
//! pipeline, while [`RecursiveBisection`] still owns stencils (heat),
//! where the cut *is* the makespan. No single objective — edge-cut or
//! level-spread — wins both, so the paper's claim that locality coloring
//! beats color-oblivious stealing *across* workload shapes needs an entry
//! point that picks per graph. [`AutoSelect`] is that entry point:
//!
//! 1. **Shape pre-filter.** One [`level_profile`] pass per selection:
//!    the [`GraphShape`] summary built from it skips candidates whose
//!    objective is provably inert or documented-losing on the graph's
//!    structure (see `prefilter_skips`), and the same profile is handed
//!    to the members that run ([`ColorAssigner::assign_profiled`]), so
//!    the level-aware member does not profile the levels a second time.
//!    Skipped candidates never pay their `assign` cost. Unknown candidate
//!    names are never skipped, so custom portfolios stay exact.
//! 2. **Parallel candidacy, bounded by the machine.** The surviving
//!    candidates are independent, so they run side by side — but on no
//!    more threads than [`std::thread::available_parallelism`] reports,
//!    and the calling thread runs its share of them instead of sleeping
//!    in a `join`: the default two-member portfolio costs one spawned
//!    thread on two or more CPUs and none on one, where the members run
//!    one after the other in portfolio order. (The assigners are
//!    memory-bound: more of them in flight than CPUs only stretches each
//!    one.)
//! 3. **Strict scoring.** Each assignment is scored with
//!    [`estimate_makespan_colored_strict_on`] at the target worker count
//!    under the selection's [`CostModel`] and worker→domain
//!    [`Topology`] — cross-color edges are priced as remote-byte
//!    bandwidth plus steal latency, not as a calibrated flat penalty,
//!    and under a real machine topology
//!    ([`with_topology`](AutoSelect::with_topology)) the bandwidth term
//!    applies only to *cross-domain* edges. An assignment that fails
//!    validity is *disqualified*: scoring a color no worker owns would
//!    price a buggy assigner on a larger machine than the real one and
//!    could let it win the selection. If *every* candidate is
//!    disqualified, selection falls back to [`BlockContiguous`] — valid
//!    by construction — and records the fallback in the report instead
//!    of aborting.
//! 4. **Argmin.** The lowest estimate wins; ties break toward portfolio
//!    order, keeping selection deterministic.
//! 5. **Domain packing.** On a multi-core-per-domain topology the winner
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
use crate::{BlockContiguous, ColorAssigner, CpLevelAware, RecursiveBisection};
use nabbitc_color::Color;
use nabbitc_cost::{CostModel, Topology};
use nabbitc_graph::analysis::{
    estimate_makespan_colored_strict_on, level_profile, InvalidColoring,
};
use nabbitc_graph::TaskGraph;
use std::time::Instant;

/// One member's scored assignment, or why it was disqualified.
type Scored = Result<(Vec<Color>, u64), InvalidColoring>;

/// A portfolio member: any [`ColorAssigner`] that can be shared with the
/// scoped evaluation threads.
pub type Candidate = Box<dyn ColorAssigner + Send + Sync>;

pub use nabbitc_graph::analysis::GraphShape;

/// Whether the pre-filter skips the candidate named `name` on `shape`.
/// The rule is a conservative heuristic grounded in pinned results, not a
/// theorem; candidates the rule does not recognize are never skipped.
///
/// `recursive-bisection` is skipped on deep wavefront pipelines
/// ([`GraphShape::deep_wavefront`]): the cut-minimal partition of such a
/// graph is spatially compact and serializes whole dependency levels —
/// the failure mode `results/autocolor_vs_hand.md` pins on sw (0.45× hand
/// at P=20 vs cp-level-aware's 1.48×) — so it cannot win the makespan
/// there, and it is the portfolio's most expensive member to run.
fn prefilter_skips(shape: &GraphShape, name: &str) -> bool {
    match name {
        "recursive-bisection" => shape.deep_wavefront(),
        _ => false,
    }
}

/// What happened to one portfolio member during a selection.
#[derive(Debug, Clone, PartialEq)]
pub enum CandidateOutcome {
    /// Ran and scored: the strict makespan estimate of its assignment.
    Estimated(u64),
    /// Never ran: dropped by the shape pre-filter, or the machine was
    /// degenerate (`workers == 1`, where every assigner is monochrome and
    /// no candidate runs at all — [`SelectionReport::chosen`] is `None`).
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
    /// Shape summary the pre-filter saw.
    pub shape: GraphShape,
    /// `(candidate name, outcome)` in portfolio order. When `fallback` is
    /// set, one extra trailing entry records the fallback assigner.
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
    /// Whether every portfolio candidate was disqualified and selection
    /// fell back to [`BlockContiguous`] (always valid by construction);
    /// the fallback is the trailing `candidates` entry and the `chosen`
    /// one.
    pub fallback: bool,
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
            && self.fallback == other.fallback
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
pub struct AutoSelect {
    /// The cost model every candidate is scored with — node ticks over
    /// work and footprint, plus the two cross-color edge terms
    /// (remote-byte bandwidth on the consumer's execution, steal latency
    /// on its ready time). Replaces the old hand-calibrated
    /// `cross_penalty_frac`: because the bandwidth term scales with the
    /// bytes an edge actually moves, memory-bound stencils and
    /// latency-bound wavefronts rank correctly under the *same* model,
    /// with nothing left to tune.
    pub cost: CostModel,
    /// The worker→domain topology candidates are scored against. `None`
    /// (the default) prices every worker as its own domain — the
    /// conservative pre-domain-aware behaviour; see
    /// [`with_topology`](Self::with_topology) for scoring against a real
    /// machine (the paper's 8×10), where same-domain cut edges are free
    /// and the domain-packing post-pass runs on the winner.
    pub topology: Option<Topology>,
    candidates: Vec<Candidate>,
    /// Whether `candidates` is the default portfolio, in which case
    /// [`with_cost_model`](Self::with_cost_model) rebuilds it so the
    /// cost-model-driven members optimize under the new model too.
    default_portfolio: bool,
}

impl Default for AutoSelect {
    /// The default portfolio: the two partitioning objectives,
    /// [`RecursiveBisection`] (edge-cut) and [`CpLevelAware`] (makespan).
    /// [`BfsLocality`](crate::BfsLocality) and [`BlockContiguous`] are
    /// not members: they never win — not in any row of
    /// `results/autocolor_vs_hand.md`, not on any graph family the
    /// selection tests use — and would cost every selection their
    /// `assign` and estimate; the tests keep them as baselines the
    /// two-member selection must never lose to.
    fn default() -> Self {
        AutoSelect::with_default_portfolio(CostModel::default())
    }
}

impl AutoSelect {
    /// The default portfolio priced end to end by `cost`: the scoring
    /// *and* the candidates that optimize under a cost model
    /// ([`CpLevelAware`]'s sweep and refinement) use the same machine.
    /// Panics on invalid bandwidth terms.
    pub fn with_default_portfolio(cost: CostModel) -> Self {
        cost.assert_valid();
        let mut sel = AutoSelect::new(vec![
            Box::new(RecursiveBisection::default()),
            Box::new(CpLevelAware::default().with_cost_model(cost.clone())),
        ]);
        sel.cost = cost;
        sel.default_portfolio = true;
        sel
    }

    /// A meta-assigner over an explicit portfolio (portfolio order is the
    /// deterministic tie-break). Panics if `candidates` is empty.
    pub fn new(candidates: Vec<Candidate>) -> Self {
        assert!(!candidates.is_empty(), "portfolio must not be empty");
        AutoSelect {
            cost: CostModel::default(),
            topology: None,
            candidates,
            default_portfolio: false,
        }
    }

    /// Replaces the cost model (builder style). Panics on invalid
    /// bandwidth terms. On the default portfolio this re-prices the whole
    /// pipeline — the cost-model-driven candidates are rebuilt with the
    /// new model, so they optimize for the same machine the scoring
    /// prices. An explicit [`new`](Self::new) portfolio keeps its
    /// members' own models (they may be deliberately heterogeneous); only
    /// the scoring changes.
    pub fn with_cost_model(self, cost: CostModel) -> Self {
        cost.assert_valid();
        if self.default_portfolio {
            let mut sel = AutoSelect::with_default_portfolio(cost);
            sel.topology = self.topology.clone();
            return sel;
        }
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

    /// The portfolio, in tie-break order.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Runs the portfolio and returns the winning assignment plus the
    /// per-candidate report. If every candidate is disqualified (a
    /// portfolio of only-buggy assigners), selection falls back to
    /// [`BlockContiguous`] — always valid by construction — and records
    /// the fallback in the report instead of aborting. Panics if
    /// `workers == 0`.
    pub fn select(&self, graph: &TaskGraph, workers: usize) -> (Vec<Color>, SelectionReport) {
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
        let profile = level_profile(graph);
        let shape = GraphShape::from_profile(&profile, workers);

        // Degenerate machine: every assigner returns the monochrome
        // assignment, so there is nothing to select between.
        if workers == 1 {
            let report = SelectionReport {
                workers,
                cost: self.cost.clone(),
                topology: topo,
                shape,
                candidates: self
                    .candidates
                    .iter()
                    .map(|c| (c.name(), CandidateOutcome::Skipped))
                    .collect(),
                times: vec![CandidateTime::default(); self.candidates.len()],
                chosen: None,
                fallback: false,
                packed_estimate: None,
                elapsed: selection_started.elapsed(),
            };
            return (vec![Color(0); graph.node_count()], report);
        }

        // Pre-filter, but never down to an empty shortlist: if the rules
        // would drop everyone, selection degrades to exhaustive.
        let mut shortlist: Vec<usize> = (0..self.candidates.len())
            .filter(|&i| !prefilter_skips(&shape, self.candidates[i].name()))
            .collect();
        if shortlist.is_empty() {
            shortlist = (0..self.candidates.len()).collect();
        }

        // The members of a round are independent and `assign` dominates
        // their cost, so they run side by side — on at most one thread
        // per CPU, the caller's own included: the round is cut into that
        // many contiguous runs, this thread takes the first and a scoped
        // thread each of the others. Panics inside a candidate are
        // re-thrown on the caller's thread.
        let score = |assigner: &dyn ColorAssigner| -> (Scored, CandidateTime) {
            let started = Instant::now();
            let colors = assigner.assign_profiled(graph, workers, &profile);
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
        let evaluate = |indices: &[usize]| -> Vec<(Scored, CandidateTime)> {
            let run = |members: &[usize]| -> Vec<(Scored, CandidateTime)> {
                let scored = members.iter().map(|&i| score(self.candidates[i].as_ref()));
                scored.collect()
            };
            let mut runs = indices.chunks(indices.len().div_ceil(cpus).max(1));
            let own = runs.next().unwrap_or_default();
            std::thread::scope(|s| {
                let run = &run;
                let spawned: Vec<_> = runs.map(|members| s.spawn(move || run(members))).collect();
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

        let mut outcomes: Vec<(&'static str, CandidateOutcome)> = self
            .candidates
            .iter()
            .map(|c| (c.name(), CandidateOutcome::Skipped))
            .collect();
        let mut times = vec![CandidateTime::default(); self.candidates.len()];
        let mut best: Option<(u64, usize, Vec<Color>)> = None; // (estimate, index, colors)
        let mut ingest = |indices: &[usize], best: &mut Option<(u64, usize, Vec<Color>)>| {
            for (&i, (eval, time)) in indices.iter().zip(evaluate(indices)) {
                times[i] = time;
                match eval {
                    Ok((colors, est)) => {
                        outcomes[i].1 = CandidateOutcome::Estimated(est);
                        // Strict `<`: ties break toward portfolio order.
                        if best.as_ref().map(|(b, _, _)| est < *b).unwrap_or(true) {
                            *best = Some((est, i, colors));
                        }
                    }
                    Err(invalid) => outcomes[i].1 = CandidateOutcome::Rejected(invalid),
                }
            }
        };
        ingest(&shortlist, &mut best);
        if best.is_none() {
            // Every shortlisted candidate was disqualified. A pre-filter
            // skip is a quality heuristic, not a validity judgment, so
            // before giving up, fall back to the candidates it skipped.
            let rescued: Vec<usize> = (0..self.candidates.len())
                .filter(|i| !shortlist.contains(i))
                .collect();
            ingest(&rescued, &mut best);
        }
        let mut fallback = false;
        if best.is_none() {
            // Every portfolio candidate produced an invalid assignment.
            // Rather than aborting the caller, degrade to the one
            // assigner that cannot be invalid — BlockContiguous emits
            // in-range colors by construction — and record the fallback.
            let (scored, time) = score(&BlockContiguous);
            let (colors, est) =
                scored.expect("BlockContiguous emits in-range colors by construction");
            outcomes.push((BlockContiguous.name(), CandidateOutcome::Estimated(est)));
            times.push(time);
            best = Some((est, outcomes.len() - 1, colors));
            fallback = true;
        }
        let (est, chosen, mut colors) = best.expect("fallback guarantees a winner");

        // Domain-packing post-pass: on a multi-core-per-domain machine,
        // permuting colors onto domains is free parallelism-wise but
        // changes which cut edges cross domains. Keep the permutation
        // only when the domain-aware estimate strictly improves.
        let mut packed_estimate = None;
        if topo.cores_per_domain() > 1 && topo.domains() > 1 {
            let packed = pack_domains(graph, &colors, workers, &topo);
            if packed != colors {
                let packed_est =
                    estimate_makespan_colored_strict_on(graph, &packed, workers, &self.cost, &topo)
                        .expect("packing permutes a valid assignment");
                if packed_est < est {
                    colors = packed;
                    packed_estimate = Some(packed_est);
                }
            }
        }
        let report = SelectionReport {
            workers,
            cost: self.cost.clone(),
            topology: topo,
            shape,
            candidates: outcomes,
            times,
            chosen: Some(chosen),
            fallback,
            packed_estimate,
            elapsed: selection_started.elapsed(),
        };
        (colors, report)
    }
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
        let four: [Candidate; 4] = [
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
        assert!(rep.shape.levels > rep.shape.max_width);
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

    #[test]
    fn invalid_candidates_are_disqualified_not_scored() {
        /// A buggy assigner: colors everything for a machine twice the
        /// requested size. Scored as if those workers existed it would
        /// look *faster* than any honest candidate on an
        /// independent-task graph.
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
        let g = generate::independent(64, 50, 1);
        let sel = AutoSelect::new(vec![Box::new(DoubleWide), Box::new(BlockContiguous)]);
        let (colors, rep) = sel.select(&g, 2);
        assert!(assignment_is_valid(&colors, 2));
        assert_eq!(rep.chosen_name(), "block-contiguous");
        match &rep.candidates[0].1 {
            CandidateOutcome::Rejected(err) => assert_eq!(err.workers, 2),
            o => panic!("double-wide should be rejected, got {o:?}"),
        }
    }

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
    fn all_invalid_portfolio_falls_back_to_block_contiguous() {
        // A portfolio of only-buggy assigners must not abort the caller:
        // selection degrades to BlockContiguous (valid by construction)
        // and says so in the report.
        let g = generate::chain(4, 1, 1);
        let (colors, rep) = AutoSelect::new(vec![Box::new(AlwaysInvalid)]).select(&g, 2);
        assert!(assignment_is_valid(&colors, 2));
        assert!(rep.fallback);
        assert_eq!(rep.chosen_name(), "block-contiguous");
        assert_eq!(rep.candidates.len(), 2, "{rep:?}");
        assert!(matches!(rep.candidates[0].1, CandidateOutcome::Rejected(_)));
        assert!(matches!(
            rep.candidates[1].1,
            CandidateOutcome::Estimated(_)
        ));
        // The returned colors are BlockContiguous's, at its estimate.
        assert_eq!(colors, BlockContiguous.assign(&g, 2));
        assert_eq!(rep.chosen_estimate(), estimate(&g, &colors, 2, &rep.cost));
    }

    #[test]
    fn prefiltered_candidates_are_rescued_when_the_shortlist_is_disqualified() {
        // A pre-filter skip is a quality heuristic, not a validity
        // judgment: on a deep wavefront the filter drops bisection, and
        // if everything left turns out buggy, selection must fall back
        // to the skipped candidate instead of panicking.
        let g = generate::wavefront(16, 16, 4, 1);
        let sel = AutoSelect::new(vec![
            Box::new(RecursiveBisection::default()),
            Box::new(AlwaysInvalid),
        ]);
        let (colors, rep) = sel.select(&g, 4);
        assert_eq!(rep.chosen_name(), "recursive-bisection", "{rep:?}");
        assert!(assignment_is_valid(&colors, 4));
        assert!(matches!(rep.candidates[1].1, CandidateOutcome::Rejected(_)));
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
    fn with_cost_model_reprices_the_default_portfolio() {
        // On the default portfolio, with_cost_model must be equivalent to
        // building the portfolio under that model — the cost-model-driven
        // candidates optimize for the machine the scoring prices.
        let heavy = CostModel::default().with_remote_ratio(8.0);
        let g = generate::wavefront(16, 16, 4, 1);
        let a = AutoSelect::default()
            .with_cost_model(heavy.clone())
            .select(&g, 4);
        let b = AutoSelect::with_default_portfolio(heavy.clone()).select(&g, 4);
        assert_eq!(a, b);
        assert_eq!(a.1.cost, heavy);
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
        // The fallback entry is timed like any other.
        let (_c, rep) = AutoSelect::new(vec![Box::new(AlwaysInvalid)]).select(&g, 2);
        assert!(rep.fallback);
        assert_eq!(rep.times.len(), rep.candidates.len());
    }

    #[test]
    fn non_fallback_selections_report_no_fallback() {
        let g = generate::wavefront(12, 12, 4, 1);
        let (_c, rep) = AutoSelect::default().select(&g, 4);
        assert!(!rep.fallback);
        assert_eq!(
            rep.candidates.len(),
            AutoSelect::default().candidates().len()
        );
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
        let sel = AutoSelect::new(vec![Box::new(DomainHostile)]).with_topology(topo.clone());
        let (colors, rep) = sel.select(&g, 4);
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
        let sel = AutoSelect::default();
        let names: Vec<_> = sel.candidates().iter().map(|c| c.name()).collect();
        assert_eq!(names, ["recursive-bisection", "cp-level-aware"]);
        // Re-pricing rebuilds the same two.
        let heavy = sel.with_cost_model(CostModel::default().with_remote_ratio(8.0));
        let names: Vec<_> = heavy.candidates().iter().map(|c| c.name()).collect();
        assert_eq!(names, ["recursive-bisection", "cp-level-aware"]);
        // Id-blocking is not a member, but it is the all-invalid fallback.
        let g = generate::chain(4, 1, 1);
        let (_c, rep) = AutoSelect::new(vec![Box::new(AlwaysInvalid)]).select(&g, 2);
        assert!(rep.fallback);
        assert_eq!(rep.chosen_name(), "block-contiguous");
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
        let members: Vec<Candidate> = (0..4)
            .map(|_| Box::new(Counting(seen.clone())) as _)
            .collect();
        let (colors, rep) = AutoSelect::new(members).select(&g, 4);
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
