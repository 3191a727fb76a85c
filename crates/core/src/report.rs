//! The unified run report: every observable of one executor run in one
//! struct.
//!
//! [`RunReport`] carries the wall clock, the scheduler counters
//! ([`PoolStats`]), the remote-access percentages
//! ([`RemoteAccessReport`]), the autocolor [`SelectionReport`] of
//! `execute_auto`, the coloring wall-clock and the runtime event trace, so
//! a harness can print or serialize one value per run.

use crate::metrics::RemoteAccessReport;
use nabbitc_autocolor::SelectionReport;
use nabbitc_graph::trace::Trace;
use nabbitc_runtime::{PoolStats, RuntimeTrace};
use std::time::Duration;

/// Everything one executor run produced, in one place.
///
/// Returned by [`StaticExecutor::execute`](crate::StaticExecutor::execute),
/// [`StaticExecutor::execute_auto`](crate::StaticExecutor::execute_auto) and
/// [`DynamicExecutor::execute`](crate::DynamicExecutor::execute). Fields
/// that a given entry point cannot populate are `None` / empty defaults: a
/// plain `execute` has no coloring phase and no selection; an on-demand
/// run has no per-node [`Trace`]; a run on an untraced pool has no runtime
/// trace.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Wall-clock execution time (the threaded run itself, excluding any
    /// coloring phase).
    pub elapsed: Duration,
    /// Nodes executed (for [`DynamicExecutor`](crate::DynamicExecutor):
    /// discovered and executed).
    pub nodes_executed: u64,
    /// Wall-clock time spent inferring and applying colors before the run
    /// (`None` when the graph's own colors were used).
    pub coloring_elapsed: Option<Duration>,
    /// Remote-access accounting (zeros unless
    /// [`ExecOptions::count_remote`](crate::ExecOptions)).
    pub remote: RemoteAccessReport,
    /// Scheduler statistics for this run (steals, first-work waits, ...).
    pub stats: PoolStats,
    /// Per-node execution trace (empty unless
    /// [`ExecOptions::record_trace`](crate::ExecOptions)).
    pub trace: Trace,
    /// Runtime event trace — per-worker spawn/exec/steal/idle events —
    /// when the pool was built with tracing enabled
    /// ([`TraceConfig`](nabbitc_runtime::TraceConfig)), `None` otherwise.
    pub runtime_trace: Option<RuntimeTrace>,
    /// Which autocolor candidate won, over homes or nodes, the scoring
    /// cost, and each candidate's own `assign` and scoring wall time
    /// (`SelectionReport::times`: which member was the selection's long
    /// pole) — populated by
    /// [`execute_auto`](crate::StaticExecutor::execute_auto) only.
    pub selection: Option<SelectionReport>,
    /// Pre-flight schedule lint findings over the executed coloring —
    /// populated by [`execute_auto`](crate::StaticExecutor::execute_auto)
    /// when [`ExecOptions::lint`](crate::ExecOptions) is a gate other
    /// than [`LintGate::Off`](crate::LintGate), `None` otherwise.
    pub lint: Option<nabbitc_lint::LintReport>,
}

impl RunReport {
    /// Execution time in seconds.
    pub fn seconds(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }

    /// Total time including any coloring phase.
    pub fn total_elapsed(&self) -> Duration {
        self.elapsed + self.coloring_elapsed.unwrap_or_default()
    }

    /// One-line human summary of the selection, or `None` when this run
    /// had none. Example:
    /// `auto: cp-level-aware (est 1234, 4 candidates, 1.2ms)`; a coloring
    /// chosen over the graph's homes reads
    /// `auto: block-contiguous over 1050 homes (…)`, and a selection whose
    /// balance guard fell back to the node path is marked
    /// `[BALANCE FALLBACK]`.
    pub fn selection_summary(&self) -> Option<String> {
        let sel = self.selection.as_ref()?;
        Some(format_selection(sel))
    }
}

/// Formats a [`SelectionReport`] as the one-line summary the bench
/// harnesses print (also used for [`RunReport::selection_summary`]).
pub fn format_selection(sel: &SelectionReport) -> String {
    format!(
        "auto: {}{}{} (est {}, {} candidates, {:.2?}){}",
        sel.chosen_name(),
        sel.homes
            .map_or(String::new(), |h| format!(" over {h} homes")),
        if sel.packed_estimate.is_some() {
            " [packed]"
        } else {
            ""
        },
        sel.chosen_estimate(),
        sel.candidates.len(),
        sel.elapsed,
        if sel.balance_fallback {
            " [BALANCE FALLBACK]"
        } else {
            ""
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_empty() {
        let r = RunReport::default();
        assert_eq!(r.seconds(), 0.0);
        assert_eq!(r.total_elapsed(), Duration::ZERO);
        assert!(r.selection_summary().is_none());
        assert!(r.runtime_trace.is_none());
        assert_eq!(r.stats.total_tasks(), 0);
    }

    #[test]
    fn selection_summary_names_homes_and_the_balance_fallback() {
        use nabbitc_autocolor::AutoSelect;
        use nabbitc_color::Color;
        use nabbitc_graph::GraphBuilder;
        // Two steps over four blocks, the second on the first's homes.
        let mut gb = GraphBuilder::new();
        for _ in 0..4 {
            gb.add_simple_node(10, Color(0), 64);
        }
        for b in 0..4 {
            gb.add_node_at(10, Color(0), b);
            gb.add_edge(b, 4 + b);
        }
        let (_, selection) = AutoSelect::default().select(&gb.build().expect("a DAG"), 2);
        let mut report = RunReport {
            selection: Some(selection),
            ..RunReport::default()
        };
        let line = report.selection_summary().expect("a selection");
        assert!(line.contains(" over 4 homes"), "{line}");
        assert!(!line.contains("FALLBACK"), "{line}");
        let selection = report.selection.as_mut().expect("a selection");
        (selection.homes, selection.balance_fallback) = (None, true);
        let line = report.selection_summary().expect("a selection");
        assert!(line.ends_with(" [BALANCE FALLBACK]"), "{line}");
        assert!(!line.contains("homes"), "{line}");
    }

    #[test]
    fn total_elapsed_includes_coloring() {
        let r = RunReport {
            elapsed: Duration::from_millis(30),
            coloring_elapsed: Some(Duration::from_millis(12)),
            ..RunReport::default()
        };
        assert_eq!(r.total_elapsed(), Duration::from_millis(42));
    }
}
