//! Library half of the `graphlint` CLI: lint workload-corpus schedules
//! statically, before anything executes.
//!
//! The binary (`src/bin/graphlint.rs`) is a thin argument parser over
//! [`lint_workload`] and [`run`], so the golden-output tests pin the
//! exact same pipeline CI runs: build a corpus graph at some scale,
//! color it (its hand coloring, the `auto` portfolio, or any named
//! assigner), and run `nabbitc-lint`'s schedule detectors against the
//! truncated paper topology. The pinned acceptance property lives in
//! `tests/graphlint_golden.rs`: `sw` under `recursive-bisection` trips
//! NL003 (serialized wide level — the documented wavefront trap) while
//! the `auto` coloring of every corpus workload lints clean.

use crate::Report;
use nabbitc_autocolor::{all_strategies, autocolor, AutoSelect};
use nabbitc_cost::{CostModel, Topology};
use nabbitc_lint::{lint_graph, LintConfig, LintReport, Severity};
use nabbitc_workloads::{registry, BenchId, Scale};

/// The default lint corpus: one workload per structural family (regular
/// stencil, 2-D wavefront, irregular power-law dataflow) — the same
/// trio the results tables sweep.
pub const CORPUS: [BenchId; 3] = [BenchId::Heat, BenchId::Sw, BenchId::PageUk2002];

/// Colorings [`lint_workload`] accepts: the graph's own hand coloring,
/// plus every assigner name from [`all_strategies`] (including `auto`,
/// the portfolio meta-assigner).
pub fn known_colorings() -> Vec<&'static str> {
    let mut names = vec!["hand"];
    names.extend(all_strategies().iter().map(|s| s.name()));
    names
}

/// Builds workload `id` at `scale`, colors it with `coloring` for a
/// `p`-worker machine, and lints the schedule against the truncated
/// paper topology. `coloring` is `"hand"` (the registry's built-in
/// coloring), `"auto"` (the [`AutoSelect`] portfolio, scored with `cost`
/// against the same topology the lints price), or any assigner name
/// from [`all_strategies`].
///
/// # Panics
///
/// On an unknown coloring name, listing the accepted ones.
pub fn lint_workload(
    id: BenchId,
    scale: Scale,
    p: usize,
    coloring: &str,
    cost: &CostModel,
) -> LintReport {
    let topo = Topology::paper_machine().truncated(p);
    let graph = match coloring {
        "hand" => registry::build(id, scale, p).graph,
        name if name == AutoSelect::NAME => {
            let bare = registry::build_uncolored(id, scale, p);
            let (colors, _selection) = AutoSelect::default()
                .with_cost_model(cost.clone())
                .with_topology(topo.clone())
                .select(&bare.graph, p);
            bare.graph.recolored(&colors)
        }
        name => {
            let strategy = all_strategies()
                .into_iter()
                .find(|s| s.name() == name)
                .unwrap_or_else(|| {
                    panic!(
                        "unknown coloring {name:?} (accepted: {})",
                        known_colorings().join(" | ")
                    )
                });
            let bare = registry::build_uncolored(id, scale, p);
            autocolor(&bare.graph, strategy.as_ref(), p)
        }
    };
    let diags = lint_graph(&graph, p, cost, Some(&topo), &LintConfig::default());
    LintReport::new(id.name(), coloring, p, diags)
}

/// One `graphlint` invocation: which workloads, colorings, and machine
/// sizes to lint, and how to gate the findings.
#[derive(Debug, Clone)]
pub struct GraphlintRun {
    /// Workloads to lint (default: [`CORPUS`]).
    pub benches: Vec<BenchId>,
    /// Colorings per workload (default: `["auto"]`).
    pub colorings: Vec<String>,
    /// Machine sizes per (workload, coloring) pair (default: `[20]`).
    pub workers: Vec<usize>,
    /// Emit the machine-readable JSON array instead of the human lines.
    pub json: bool,
    /// Fail on `Warn`-or-worse findings, not only on `Error`s.
    pub deny_warnings: bool,
}

impl Default for GraphlintRun {
    fn default() -> GraphlintRun {
        GraphlintRun {
            benches: CORPUS.to_vec(),
            colorings: vec![AutoSelect::NAME.to_string()],
            workers: vec![20],
            json: false,
            deny_warnings: false,
        }
    }
}

/// Executes `run` at `scale` with `cost`, writing human or JSON output
/// through `out`. Returns `Err` with a one-line summary when the gate
/// trips (any `Error` finding; any `Warn` too under `deny_warnings`) —
/// the binary maps that to a nonzero exit.
pub fn run(
    run: &GraphlintRun,
    scale: Scale,
    cost: &CostModel,
    out: &mut dyn std::io::Write,
) -> std::io::Result<Result<(), String>> {
    let mut reports = Vec::new();
    for &id in &run.benches {
        for coloring in &run.colorings {
            for &p in &run.workers {
                reports.push(lint_workload(id, scale, p, coloring, cost));
            }
        }
    }
    if run.json {
        writeln!(out, "[")?;
        for (i, r) in reports.iter().enumerate() {
            let doc = r.to_json();
            let comma = if i + 1 < reports.len() { "," } else { "" };
            writeln!(out, "{}{comma}", doc.trim_end())?;
        }
        writeln!(out, "]")?;
    } else {
        for r in &reports {
            write!(out, "{}", r.render())?;
        }
    }
    let threshold = if run.deny_warnings {
        Severity::Warn
    } else {
        Severity::Error
    };
    let failing: Vec<String> = reports
        .iter()
        .filter(|r| r.worst() >= Some(threshold))
        .map(|r| format!("{}/{} (P={})", r.target, r.coloring, r.workers))
        .collect();
    Ok(if failing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} lint target(s) at {} or worse: {}",
            failing.len(),
            reports.len(),
            threshold.name(),
            failing.join(", ")
        ))
    })
}

/// Writes the corpus lint summary as a results table
/// (`results/graphlint.{md,csv}`): one row per (workload, coloring, P)
/// with the finding counts and the worst severity. Used by the binary's
/// `--results` mode so schedule health is diffable next to the makespan
/// tables.
pub fn results_table(
    benches: &[BenchId],
    colorings: &[String],
    workers: &[usize],
    scale: Scale,
    cost: &CostModel,
) -> Report {
    let mut rep = Report::new(
        "graphlint",
        &format!("Static schedule lint over the workload corpus (scale {scale:?})"),
    );
    rep.header(&[
        "bench", "P", "coloring", "errors", "warnings", "infos", "worst",
    ]);
    for &id in benches {
        for coloring in colorings {
            for &p in workers {
                let r = lint_workload(id, scale, p, coloring, cost);
                rep.row(&[
                    r.target.clone(),
                    p.to_string(),
                    r.coloring.clone(),
                    r.count(Severity::Error).to_string(),
                    r.count(Severity::Warn).to_string(),
                    r.count(Severity::Info).to_string(),
                    r.worst().map_or("clean", Severity::name).to_string(),
                ]);
            }
        }
    }
    rep
}
