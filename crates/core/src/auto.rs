//! Autocolor integration: [`StaticExecutor::execute_auto`] runs any
//! pre-built [`TaskGraph`] under colors inferred by the [`AutoSelect`]
//! meta-assigner, which runs its two-member portfolio (on no more threads
//! than the machine has CPUs, this one included) and keeps the per-graph
//! winner (edge-cut partitioning on stencils, level-aware partitioning on
//! wavefronts) — no strategy choice needed from the caller. The winning
//! colors are laid over the caller's graph as a new coloring layer
//! ([`TaskGraph::recolored`]): nothing of the graph is copied, and the
//! access lists the colors imply are never built unless someone reads
//! them (the executor does not). To pin one strategy instead, color the
//! graph with [`autocolor`](nabbitc_autocolor::autocolor) and hand it to
//! [`execute`](StaticExecutor::execute).
//!
//! Autocolor only changes *which* color a task carries, never the
//! stealing protocol.

use crate::report::RunReport;
use crate::static_exec::StaticExecutor;
use nabbitc_autocolor::AutoSelect;
use nabbitc_graph::{NodeId, TaskGraph};
use std::sync::Arc;
use std::time::Instant;

impl StaticExecutor {
    /// Executes `graph` under the default inferred coloring: the
    /// [`AutoSelect`] portfolio picks the assigner whose assignment the
    /// makespan estimator scores best for this pool's worker count. This
    /// is the entry point for callers with no data-distribution argument
    /// at all — the meta-selection makes the stencil-vs-wavefront
    /// strategy choice for them.
    ///
    /// Candidates are scored with the executor's cost model and topology
    /// ([`ExecOptions::cost`](crate::ExecOptions) /
    /// [`ExecOptions::topology`](crate::ExecOptions)) — override them via
    /// [`with_options`](StaticExecutor::with_options) to select under a
    /// different machine pricing (e.g. a heavier remote-byte ratio, or
    /// the paper's 8×10 NUMA topology, where same-domain cut edges are
    /// priced at local bandwidth and the winner is domain-packed).
    ///
    /// Returns the execution report and the recolored graph — `graph`'s
    /// own structure under the winning colors
    /// ([`shares_structure_with`](TaskGraph::shares_structure_with)), a
    /// valid simulator and linter input; reuse it when executing
    /// repeatedly, selection is the expensive part. A caller who wants
    /// the schedule checked before trusting it runs
    /// `nabbitc-lint`'s `lint_graph` on that graph. The report's
    /// [`selection`](RunReport::selection) says which candidate won and
    /// why (including the selection's own wall-clock cost), and
    /// [`coloring_elapsed`](RunReport::coloring_elapsed) is the time
    /// before the first node could run — selection plus laying the
    /// winner over the graph — so that
    /// [`total_elapsed`](RunReport::total_elapsed) is the whole call.
    pub fn execute_auto<K>(&self, graph: &TaskGraph, kernel: Arc<K>) -> (RunReport, Arc<TaskGraph>)
    where
        K: Fn(NodeId, usize) + Send + Sync + 'static,
    {
        let coloring_started = Instant::now();
        let mut select = AutoSelect::default().with_cost_model(self.options().cost.clone());
        if let Some(topo) = &self.options().topology {
            select = select.with_topology(topo.clone());
        }
        let (colors, selection) = select.select(graph, self.pool().workers());
        let recolored = Arc::new(graph.recolored(&colors));
        let coloring_elapsed = coloring_started.elapsed();
        let mut report = self.execute(&recolored, kernel);
        report.coloring_elapsed = Some(coloring_elapsed);
        report.selection = Some(selection);
        (report, recolored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_exec::ExecOptions;
    use nabbitc_autocolor::{autocolor, RecursiveBisection, RoundRobin};
    use nabbitc_color::Color;
    use nabbitc_graph::analysis::edge_cut;
    use nabbitc_graph::generate;
    use nabbitc_runtime::{Pool, PoolConfig};
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn static_autocolored_executes_every_node_once() {
        let graph = Arc::new(generate::wavefront(16, 16, 2, 1)); // monochrome input
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(4)));
        let exec = StaticExecutor::new(pool).with_options(ExecOptions {
            record_trace: true,
            count_remote: true,
            ..ExecOptions::default()
        });
        let counts: Arc<Vec<AtomicU32>> =
            Arc::new((0..graph.node_count()).map(|_| AtomicU32::new(0)).collect());
        let c2 = counts.clone();
        let recolored = Arc::new(autocolor(&graph, &RecursiveBisection::default(), 4));
        let report = exec.execute(
            &recolored,
            Arc::new(move |u: NodeId, _w: usize| {
                c2[u as usize].fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        report.trace.validate(&recolored).expect("valid trace");
        // The inferred coloring actually uses the machine.
        let mut used: Vec<Color> = recolored.nodes().map(|u| recolored.color(u)).collect();
        used.sort_unstable();
        used.dedup();
        assert!(used.len() > 1, "expected multiple colors, got {used:?}");
        assert!(used.iter().all(|c| c.is_valid() && c.index() < 4));
    }

    #[test]
    fn static_autocolored_cp_level_aware_spreads_every_wide_level() {
        use nabbitc_autocolor::CpLevelAware;
        use nabbitc_graph::analysis::{level_profile, level_serialization};
        let workers = 4;
        let graph = Arc::new(generate::wavefront(16, 16, 2, 1)); // monochrome input
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));
        let exec = StaticExecutor::new(pool);
        let counts: Arc<Vec<AtomicU32>> =
            Arc::new((0..graph.node_count()).map(|_| AtomicU32::new(0)).collect());
        let c2 = counts.clone();
        let recolored = Arc::new(autocolor(&graph, &CpLevelAware::default(), workers));
        exec.execute(
            &recolored,
            Arc::new(move |u: NodeId, _w: usize| {
                c2[u as usize].fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        // Every wide anti-diagonal keeps more than one worker busy.
        let profile = level_profile(&recolored);
        let ser = level_serialization(&recolored, &profile);
        for l in 0..profile.level_count() {
            if profile.widths[l] >= workers {
                assert!(ser.per_level[l] < 1.0, "level {l} serialized");
            }
        }
    }

    #[test]
    fn execute_auto_runs_the_portfolio_winner() {
        use nabbitc_autocolor::CandidateOutcome;
        use nabbitc_graph::analysis::estimate_makespan_colored_strict_on;
        let workers = 4;
        let graph = Arc::new(generate::wavefront(16, 16, 2, 1)); // monochrome input
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));
        let exec = StaticExecutor::new(pool);
        let counts: Arc<Vec<AtomicU32>> =
            Arc::new((0..graph.node_count()).map(|_| AtomicU32::new(0)).collect());
        let c2 = counts.clone();
        let (report, recolored) = exec.execute_auto(
            &graph,
            Arc::new(move |u: NodeId, _w: usize| {
                c2[u as usize].fetch_add(1, Ordering::SeqCst);
            }),
        );
        let selection = report.selection.as_ref().expect("execute_auto selects");
        assert!(report.coloring_elapsed.expect("coloring timed") >= selection.elapsed);
        assert!(report.selection_summary().is_some());
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        // The graph actually carries the winning candidate's colors —
        // laid over the caller's structure, not over a copy of it.
        assert!(recolored.shares_structure_with(&graph));
        let colors: Vec<Color> = recolored.nodes().map(|u| recolored.color(u)).collect();
        assert!(colors.iter().all(|c| c.is_valid() && c.index() < workers));
        assert_eq!(
            estimate_makespan_colored_strict_on(
                &recolored,
                &colors,
                workers,
                &selection.cost,
                &selection.topology
            ),
            Ok(selection.chosen_estimate())
        );
        // Every scored candidate lost to (or tied) the winner.
        for (name, outcome) in &selection.candidates {
            if let CandidateOutcome::Estimated(e) = outcome {
                assert!(
                    *e >= selection.chosen_estimate(),
                    "{name} scored {e} below the winner"
                );
            }
        }
    }

    #[test]
    fn execute_auto_plumbs_the_topology_into_the_selection() {
        use nabbitc_cost::Topology;
        use nabbitc_graph::analysis::estimate_makespan_colored_strict_on;
        let workers = 4;
        let topo = Topology::new(2, 2);
        let graph = Arc::new(generate::iterated_stencil(6, 32, 2, 1));
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));
        let exec = StaticExecutor::new(pool).with_options(ExecOptions {
            topology: Some(topo.clone()),
            ..ExecOptions::default()
        });
        let (report, recolored) = exec.execute_auto(&graph, Arc::new(|_u: NodeId, _w: usize| {}));
        let selection = report.selection.as_ref().expect("execute_auto selects");
        assert_eq!(selection.topology, topo);
        // The reported estimate is the recolored graph's domain-aware
        // estimate under the plumbed topology.
        let colors: Vec<Color> = recolored.nodes().map(|u| recolored.color(u)).collect();
        assert_eq!(
            estimate_makespan_colored_strict_on(
                &recolored,
                &colors,
                workers,
                &selection.cost,
                &topo
            ),
            Ok(selection.chosen_estimate())
        );
    }

    #[test]
    fn static_autocolored_bisection_cuts_less_than_round_robin() {
        let graph = Arc::new(generate::iterated_stencil(10, 64, 2, 1));
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(4)));
        let exec = StaticExecutor::new(pool);
        let noop = Arc::new(|_u: NodeId, _w: usize| {});
        let g_bisect = Arc::new(autocolor(&graph, &RecursiveBisection::default(), 4));
        let g_rr = Arc::new(autocolor(&graph, &RoundRobin, 4));
        exec.execute(&g_bisect, noop.clone());
        exec.execute(&g_rr, noop);
        assert!(edge_cut(&g_bisect) < edge_cut(&g_rr));
    }

    #[test]
    fn execute_auto_clocks_account_for_the_whole_call() {
        // 12 k nodes, 30 k edges: the selection takes milliseconds,
        // everything `execute_auto` does outside its two clocks (building
        // the join counters, the report) microseconds.
        let workers = 2;
        let graph = Arc::new(generate::layered_random(60, 200, 4, (1, 50), 1, 3));
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));
        let exec = StaticExecutor::new(pool);
        let called = Instant::now();
        let (report, _) = exec.execute_auto(&graph, Arc::new(|_u: NodeId, _w: usize| {}));
        let wall = called.elapsed();
        let selection = report.selection.as_ref().expect("execute_auto selects");
        let coloring = report.coloring_elapsed.expect("coloring timed");
        assert!(
            coloring >= selection.elapsed,
            "coloring {coloring:?} leaves out part of a {:?} selection",
            selection.elapsed
        );
        let unaccounted = wall.saturating_sub(report.total_elapsed());
        assert!(
            unaccounted < selection.elapsed / 2,
            "{unaccounted:?} of a {wall:?} call in neither clock (the selection alone: {:?})",
            selection.elapsed
        );
    }
}
