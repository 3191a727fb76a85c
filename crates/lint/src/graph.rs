//! Structural and scheduling lints over a colored [`TaskGraph`].
//!
//! Each detector prices the graph the way the scheduler will see it: a
//! machine of `workers` cores with the caller's [`CostModel`] and
//! [`Topology`]. Findings reference nodes and colors so a report can be
//! traced back to the graph, and every threshold lives in [`LintConfig`]
//! so callers can tighten or relax the gate without forking detectors.
//!
//! The flagship detector is NL003 (serialized wide level): a level wide
//! enough to occupy the whole machine whose weight sits almost entirely
//! on one color executes serially no matter how good the rest of the
//! coloring is. This is exactly the wavefront trap that makes
//! `RecursiveBisection` lose on `sw`, and the same [`GraphShape`]
//! classification drives both this lint and the auto-selection
//! prefilter.

use crate::diag::{Diagnostic, Severity};
use nabbitc_autocolor::{balance_limit, node_weight};
use nabbitc_cost::{CostModel, Topology};
use nabbitc_graph::analysis::{level_profile, GraphShape, LevelProfile};
use nabbitc_graph::{EdgeTraffic, GraphError, NodeId, TaskGraph};

/// How many node/color samples a diagnostic carries at most. The message
/// always states the full count; the samples exist to anchor the finding.
const MAX_REFS: usize = 8;

/// Tunable thresholds for the graph lints.
///
/// The defaults are calibrated so the shipped auto-selected colorings of
/// the workload corpus lint clean at `Warn` and above, while known
/// pathologies (the `sw` wavefront under `RecursiveBisection`, stripped
/// colorings, absurd machine/graph mismatches) trip.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// NL003: a level must be at least this wide (relative to `workers`)
    /// before its color concentration matters.
    pub wide_level_factor: f64,
    /// NL003: fraction of a wide level's weight on a single color that
    /// counts as "serialized".
    pub serialized_frac: f64,
    /// NL005: minimum out-degree for a node to count as a hub.
    pub hub_degree: usize,
    /// NL005: a hub warns when its consumers span more than this
    /// fraction of the machine's domains.
    pub hub_domain_frac: f64,
    /// NL006: how many top-traffic edges to examine.
    pub hot_edge_top_k: usize,
    /// NL006: a cross-domain edge warns when its excess cost exceeds
    /// this fraction of the per-worker work share.
    pub hot_edge_frac: f64,
    /// NL008: widths beyond `workers * width_excess_factor` are reported
    /// as (benign) over-decomposition.
    pub width_excess_factor: usize,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig {
            wide_level_factor: 1.0,
            serialized_frac: 0.9,
            hub_degree: 16,
            hub_domain_frac: 0.5,
            hot_edge_top_k: 16,
            hot_edge_frac: 0.25,
            width_excess_factor: 64,
        }
    }
}

/// Runs every graph/schedule detector and returns the findings
/// (unsorted; [`crate::LintReport::new`] orders them).
///
/// `topology` is the NUMA layout the cross-domain lints (NL005, NL006)
/// price against. With `None` those two detectors are skipped: the
/// per-worker fallback would treat every cross-color edge as remote,
/// which drowns real placement problems in noise.
pub fn lint_graph(
    g: &TaskGraph,
    workers: usize,
    cost: &CostModel,
    topology: Option<&Topology>,
    config: &LintConfig,
) -> Vec<Diagnostic> {
    let workers = workers.max(1);
    let mut out = Vec::new();
    let profile = level_profile(g);
    lint_invalid_colors(g, workers, &mut out);
    lint_dead_nodes(g, &mut out);
    lint_serialized_wide_levels(g, &profile, workers, config, &mut out);
    lint_color_imbalance(g, workers, &mut out);
    if let Some(topo) = topology {
        lint_hub_overload(g, workers, topo, config, &mut out);
        lint_cross_domain_hot_edges(g, workers, cost, topo, config, &mut out);
    }
    lint_width_degeneracy(g, workers, config, &mut out);
    lint_absent_colors(g, workers, &mut out);
    lint_colors_behind_the_front(g, &profile, workers, &mut out);
    out
}

/// Maps [`GraphBuilder::check`](nabbitc_graph::GraphBuilder::check)
/// output to diagnostics (code NL000), so builder problems and schedule
/// problems surface through one report.
pub fn diagnose_build_errors(errors: &[GraphError]) -> Vec<Diagnostic> {
    errors
        .iter()
        .map(|e| {
            let mut d = Diagnostic::new("NL000", Severity::Error, format!("graph build: {e:?}"));
            match *e {
                GraphError::InvalidNode(u) | GraphError::Cycle(u) => d.nodes = vec![u],
                GraphError::DuplicateEdge(u, v) => d.nodes = vec![u, v],
                GraphError::Empty | GraphError::TooManyEdges(_) => {}
            }
            d
        })
        .collect()
}

/// NL001 (Error): a node's color is unset ([`Color::INVALID`]) or maps
/// past the worker count. The runtime folds such nodes onto worker 0, so
/// the schedule silently stops matching the coloring.
fn lint_invalid_colors(g: &TaskGraph, workers: usize, out: &mut Vec<Diagnostic>) {
    let mut bad = Vec::new();
    for u in g.nodes() {
        let c = g.color(u);
        if !c.is_valid() || c.index() >= workers {
            bad.push(u);
        }
    }
    if !bad.is_empty() {
        let sample: Vec<u32> = bad.iter().take(MAX_REFS).copied().collect();
        out.push(
            Diagnostic::new(
                "NL001",
                Severity::Error,
                format!(
                    "{} of {} nodes have an invalid or out-of-range color for P={} \
                     (they all fall back to worker 0)",
                    bad.len(),
                    g.node_count(),
                    workers
                ),
            )
            .with_nodes(sample),
        );
    }
}

/// NL002 (Warn): nodes with no edges and no work contribute nothing but
/// still pass through the scheduler (spawn + deque traffic per node).
fn lint_dead_nodes(g: &TaskGraph, out: &mut Vec<Diagnostic>) {
    let dead: Vec<NodeId> = g
        .nodes()
        .filter(|&u| g.in_degree(u) == 0 && g.out_degree(u) == 0 && g.work(u) == 0)
        .collect();
    if !dead.is_empty() && g.node_count() > dead.len() {
        let sample: Vec<u32> = dead.iter().take(MAX_REFS).copied().collect();
        out.push(
            Diagnostic::new(
                "NL002",
                Severity::Warn,
                format!(
                    "{} isolated zero-work node(s): pure scheduling overhead",
                    dead.len()
                ),
            )
            .with_nodes(sample),
        );
    }
}

/// NL003 (Warn): a machine-wide level whose weight is concentrated on
/// one color. Colored stealing keeps such a level on one worker's deque,
/// so the level runs serially — the `sw` wavefront trap under
/// `RecursiveBisection`.
fn lint_serialized_wide_levels(
    g: &TaskGraph,
    profile: &LevelProfile,
    workers: usize,
    config: &LintConfig,
    out: &mut Vec<Diagnostic>,
) {
    let wide_min = ((workers as f64) * config.wide_level_factor).ceil() as usize;
    // Per-level dominant-color weight. Invalid colors share one overflow
    // bucket (index `workers`), matching `level_serialization`.
    let levels = profile.level_count();
    let mut loads = vec![0u64; workers + 1];
    let mut worst: Option<(usize, usize, f64)> = None; // (level, color, frac)
    for level in 0..levels {
        if profile.widths[level] < wide_min {
            continue;
        }
        loads.iter_mut().for_each(|l| *l = 0);
        let mut total = 0u64;
        for u in g.nodes() {
            if profile.level_of[u as usize] as usize != level {
                continue;
            }
            let c = g.color(u);
            let bucket = if c.is_valid() && c.index() < workers {
                c.index()
            } else {
                workers
            };
            let w = g.work(u).max(1);
            loads[bucket] += w;
            total += w;
        }
        let (dom_color, dom_load) = loads
            .iter()
            .enumerate()
            .max_by_key(|(_, &l)| l)
            .map(|(c, &l)| (c, l))
            .unwrap_or((0, 0));
        let frac = if total == 0 {
            0.0
        } else {
            dom_load as f64 / total as f64
        };
        if frac >= config.serialized_frac && worst.is_none_or(|(_, _, f)| frac > f) {
            worst = Some((level, dom_color, frac));
        }
    }
    if let Some((level, color, frac)) = worst {
        let width = profile.widths[level];
        let shape = GraphShape::from_profile(profile, workers);
        let sample: Vec<u32> = g
            .nodes()
            .filter(|&u| profile.level_of[u as usize] as usize == level)
            .take(MAX_REFS)
            .collect();
        let trap = if shape.deep_wavefront() {
            " (deep wavefront: most of the graph's weight sits on such levels)"
        } else {
            ""
        };
        out.push(
            Diagnostic::new(
                "NL003",
                Severity::Warn,
                format!(
                    "level {level} is {width} wide (P={workers}) but {:.0}% of its \
                     weight is on color {color}: the level executes serially{trap}",
                    frac * 100.0
                ),
            )
            .with_nodes(sample)
            .with_colors(vec![color as u16]),
        );
    }
}

/// NL004 (Warn): the heaviest color exceeds the auto-coloring balance
/// contract `2 * max(ceil(W/P), wmax)` — some worker owns more than its
/// share and steals can only partially recover.
fn lint_color_imbalance(g: &TaskGraph, workers: usize, out: &mut Vec<Diagnostic>) {
    if g.node_count() == 0 {
        return;
    }
    let limit = balance_limit(g, workers);
    let mut loads = vec![0u64; workers];
    for u in g.nodes() {
        let c = g.color(u);
        if c.is_valid() && c.index() < workers {
            loads[c.index()] += node_weight(g, u);
        }
    }
    let (max_color, max_load) = loads
        .iter()
        .enumerate()
        .max_by_key(|(_, &l)| l)
        .map(|(c, &l)| (c, l))
        .unwrap_or((0, 0));
    if max_load > limit {
        out.push(
            Diagnostic::new(
                "NL004",
                Severity::Warn,
                format!(
                    "color {max_color} carries weight {max_load}, above the 2x balance \
                     bound {limit} for P={workers}"
                ),
            )
            .with_colors(vec![max_color as u16]),
        );
    }
}

/// NL005 (Warn): a high-degree producer whose consumers are scattered
/// across most of the machine's domains — its output is shipped across
/// the interconnect many times over.
///
/// Needs at least three domains: on a two-domain machine "spanning most
/// domains" degenerates to "has any cross-domain consumer", which every
/// wide hub on a balanced coloring must (a domain holds only
/// `cores_per_domain` workers) — that unavoidable crossing is priced by
/// NL006, while this lint is about *avoidable* scatter.
fn lint_hub_overload(
    g: &TaskGraph,
    workers: usize,
    topo: &Topology,
    config: &LintConfig,
    out: &mut Vec<Diagnostic>,
) {
    if topo.domains() < 3 {
        return;
    }
    let domain_min = ((topo.domains() as f64) * config.hub_domain_frac).floor() as usize + 1;
    let mut hubs: Vec<(NodeId, usize, usize)> = Vec::new(); // (node, degree, domains)
    let mut seen = vec![false; topo.domains()];
    for u in g.nodes() {
        if g.out_degree(u) < config.hub_degree {
            continue;
        }
        seen.iter_mut().for_each(|s| *s = false);
        let home = worker_domain(g, u, workers, topo);
        let mut spread = 0usize;
        for &v in g.successors(u) {
            let d = worker_domain(g, v, workers, topo);
            if d != home && !seen[d] {
                seen[d] = true;
                spread += 1;
            }
        }
        // `spread` counts foreign domains; the hub's own domain makes it
        // a span of `spread + 1`.
        if spread + 1 >= domain_min {
            hubs.push((u, g.out_degree(u), spread + 1));
        }
    }
    if !hubs.is_empty() {
        hubs.sort_by_key(|&(u, deg, _)| (std::cmp::Reverse(deg), u));
        let (u, deg, span) = hubs[0];
        let sample: Vec<u32> = hubs.iter().take(MAX_REFS).map(|&(u, _, _)| u).collect();
        out.push(
            Diagnostic::new(
                "NL005",
                Severity::Warn,
                format!(
                    "{} hub node(s) fan out across domains; worst is node {u} with \
                     {deg} consumers spanning {span} of {} domains",
                    hubs.len(),
                    topo.domains()
                ),
            )
            .with_nodes(sample)
            .with_colors(vec![g.color(u).0]),
        );
    }
}

/// NL006 (Warn): among the top-k heaviest edges by
/// [`TaskGraph::edge_traffic`], one priced remote by
/// [`CostModel::cut_excess`] costs a noticeable fraction of a worker's
/// work share — a single misplaced producer/consumer pair dominating the
/// interconnect bill.
fn lint_cross_domain_hot_edges(
    g: &TaskGraph,
    workers: usize,
    cost: &CostModel,
    topo: &Topology,
    config: &LintConfig,
    out: &mut Vec<Diagnostic>,
) {
    if topo.domains() < 2 || g.node_count() == 0 {
        return;
    }
    let traffic = EdgeTraffic::of(g);
    let mut edges: Vec<(u64, NodeId, NodeId)> = Vec::new();
    for u in g.nodes() {
        for &v in g.successors(u) {
            let t = traffic.traffic(u, v);
            if t > 0 {
                edges.push((t, u, v));
            }
        }
    }
    // Only the top k are read: partition them to the front, then order
    // those. The key is total (an edge appears once), so the k kept and
    // their order are those of a full sort.
    let heaviest_first = |&(t, u, v): &(u64, NodeId, NodeId)| (std::cmp::Reverse(t), u, v);
    let k = config.hot_edge_top_k;
    if k < edges.len() {
        edges.select_nth_unstable_by_key(k, heaviest_first);
        edges.truncate(k);
    }
    edges.sort_by_key(heaviest_first);
    let total_work: u64 = g.nodes().map(|u| g.work(u)).sum();
    let share = (total_work / workers as u64).max(1);
    let threshold = (share as f64 * config.hot_edge_frac) as u64;
    let mut hot: Vec<(u64, NodeId, NodeId)> = Vec::new();
    for &(t, u, v) in &edges {
        let pu = worker_of(g, u, workers);
        let pv = worker_of(g, v, workers);
        let excess = cost.cut_excess(topo, pu, pv, t);
        if excess > threshold {
            hot.push((excess, u, v));
        }
    }
    if !hot.is_empty() {
        hot.sort_by_key(|&(e, u, v)| (std::cmp::Reverse(e), u, v));
        let (excess, u, v) = hot[0];
        let mut sample = Vec::new();
        for &(_, a, b) in hot.iter().take(MAX_REFS / 2) {
            sample.push(a);
            sample.push(b);
        }
        out.push(
            Diagnostic::new(
                "NL006",
                Severity::Warn,
                format!(
                    "{} cross-domain hot edge(s); worst {u}->{v} adds {excess} remote \
                     ticks, over {:.0}% of a worker's {share}-tick share",
                    hot.len(),
                    config.hot_edge_frac * 100.0
                ),
            )
            .with_nodes(sample)
            .with_colors(vec![g.color(u).0, g.color(v).0]),
        );
    }
}

/// NL007 (Warn) / NL008 (Info): the graph's maximum width against the
/// machine. Width below P starves workers at every level; width wildly
/// above P is harmless for correctness but signals over-decomposition
/// (per-task overhead with no extra parallelism).
fn lint_width_degeneracy(
    g: &TaskGraph,
    workers: usize,
    config: &LintConfig,
    out: &mut Vec<Diagnostic>,
) {
    if g.node_count() == 0 {
        return;
    }
    let shape = GraphShape::of(g, workers);
    if shape.max_width < workers && workers > 1 {
        out.push(Diagnostic::new(
            "NL007",
            Severity::Warn,
            format!(
                "max level width {} < P={}: at least {} worker(s) idle at every level",
                shape.max_width,
                workers,
                workers - shape.max_width
            ),
        ));
    } else if shape.max_width >= workers.saturating_mul(config.width_excess_factor) {
        out.push(Diagnostic::new(
            "NL008",
            Severity::Info,
            format!(
                "max level width {} is {}x P={}: consider coarser tasks to cut \
                 per-node scheduling overhead",
                shape.max_width,
                shape.max_width / workers,
                workers
            ),
        ));
    }
}

/// NL009 (Warn): a worker color with zero nodes while the graph has at
/// least one node per worker — that worker's deque starts empty and it
/// can only ever steal.
fn lint_absent_colors(g: &TaskGraph, workers: usize, out: &mut Vec<Diagnostic>) {
    if g.node_count() < workers {
        return;
    }
    let mut present = vec![false; workers];
    for u in g.nodes() {
        let c = g.color(u);
        if c.is_valid() && c.index() < workers {
            present[c.index()] = true;
        }
    }
    let absent: Vec<u16> = (0..workers)
        .filter(|&c| !present[c])
        .map(|c| c as u16)
        .collect();
    if !absent.is_empty() {
        let n = absent.len();
        let sample: Vec<u16> = absent.into_iter().take(MAX_REFS).collect();
        out.push(
            Diagnostic::new(
                "NL009",
                Severity::Warn,
                format!("{n} of {workers} worker color(s) have no nodes: those workers only steal"),
            )
            .with_colors(sample),
        );
    }
}

/// NL010 (Warn): a worker color absent from the sources — its first node
/// lies on a later level than the source front, which is the source level
/// itself when that holds a node per worker and otherwise every level up
/// to the first one that does (a single-source wavefront cannot show P
/// colors before its P-th anti-diagonal, whatever the coloring). The
/// paper's forced first colored steal assumes "at least one node from each
/// color connected to the root": a worker whose color is behind the front
/// can only decline what it finds until the frontier reaches its color or
/// its patience (`StealPolicy::first_steal_max_declined`) runs out. Colors
/// with no node at all are NL009's; graphs never P wide are NL007's.
fn lint_colors_behind_the_front(
    g: &TaskGraph,
    profile: &LevelProfile,
    workers: usize,
    out: &mut Vec<Diagnostic>,
) {
    let Some(front) = profile.widths.iter().position(|&w| w >= workers) else {
        return;
    };
    let mut first_level = vec![u32::MAX; workers];
    for u in g.nodes() {
        let c = g.color(u);
        if c.is_valid() && c.index() < workers {
            let first = &mut first_level[c.index()];
            *first = (*first).min(profile.level_of[u as usize]);
        }
    }
    let mut late: Vec<(u32, u16)> = (0..workers)
        .filter(|&c| first_level[c] != u32::MAX && first_level[c] as usize > front)
        .map(|c| (first_level[c], c as u16))
        .collect();
    if late.is_empty() {
        return;
    }
    // Latest first: the worker that waits longest leads the message.
    late.sort_by_key(|&(level, c)| (std::cmp::Reverse(level), c));
    let count = late.len();
    late.truncate(MAX_REFS);
    let named: Vec<String> = late
        .iter()
        .map(|&(level, c)| format!("color {c} at level {level}"))
        .collect();
    let more = if count > MAX_REFS { ", ..." } else { "" };
    let front_is = if front == 0 {
        "the source level".to_string()
    } else {
        format!("level {front}, the first one {workers} wide")
    };
    out.push(
        Diagnostic::new(
            "NL010",
            Severity::Warn,
            format!(
                "{count} of {workers} worker color(s) are absent from the sources: they first \
                 appear after {front_is} ({}{more}); the forced first colored steal of \
                 those workers cannot succeed before the frontier gets there",
                named.join(", "),
            ),
        )
        .with_colors(late.iter().map(|&(_, c)| c).collect()),
    );
}

/// The worker a node's color maps to (invalid/out-of-range folds to 0,
/// mirroring the runtime's fallback).
fn worker_of(g: &TaskGraph, u: NodeId, workers: usize) -> usize {
    let c = g.color(u);
    if c.is_valid() && c.index() < workers {
        c.index()
    } else {
        0
    }
}

/// The NUMA domain a node executes on under `topo`.
fn worker_domain(g: &TaskGraph, u: NodeId, workers: usize, topo: &Topology) -> usize {
    topo.domain_of(worker_of(g, u, workers).min(topo.cores().saturating_sub(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_color::Color;
    use nabbitc_graph::GraphBuilder;

    fn find<'a>(diags: &'a [Diagnostic], code: &str) -> Option<&'a Diagnostic> {
        diags.iter().find(|d| d.code == code)
    }

    fn lint(g: &TaskGraph, workers: usize) -> Vec<Diagnostic> {
        lint_graph(
            g,
            workers,
            &CostModel::default(),
            None,
            &LintConfig::default(),
        )
    }

    /// A 2-wide ladder colored round-robin: clean for P=2.
    fn clean_graph() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let mut prev: Vec<nabbitc_graph::NodeId> = Vec::new();
        for level in 0..4 {
            let row: Vec<_> = (0..2)
                .map(|i| b.add_simple_node(10, Color(i as u16), 64))
                .collect();
            if level > 0 {
                for &u in &prev {
                    for &v in &row {
                        b.add_edge(u, v);
                    }
                }
            }
            prev = row;
        }
        b.build().unwrap()
    }

    #[test]
    fn clean_graph_lints_clean() {
        let g = clean_graph();
        let diags = lint(&g, 2);
        assert!(
            diags.iter().all(|d| d.severity < Severity::Warn),
            "{diags:?}"
        );
    }

    #[test]
    fn invalid_and_out_of_range_colors_are_errors() {
        let mut b = GraphBuilder::new();
        let a = b.add_simple_node(1, Color::INVALID, 0);
        let c = b.add_simple_node(1, Color(7), 0);
        b.add_edge(a, c);
        let g = b.build().unwrap();
        let diags = lint(&g, 2);
        let d = find(&diags, "NL001").expect("NL001");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.nodes, vec![a, c]);
    }

    #[test]
    fn isolated_zero_work_nodes_warn() {
        let mut b = GraphBuilder::new();
        let a = b.add_simple_node(5, Color(0), 0);
        let c = b.add_simple_node(5, Color(1), 0);
        b.add_edge(a, c);
        let dead = b.add_simple_node(0, Color(0), 0);
        let g = b.build().unwrap();
        let diags = lint(&g, 2);
        let d = find(&diags, "NL002").expect("NL002");
        assert_eq!(d.nodes, vec![dead]);
    }

    #[test]
    fn monochrome_wide_level_trips_serialization_lint() {
        // One source fanning into a 4-wide level, all on color 0.
        let mut b = GraphBuilder::new();
        let src = b.add_simple_node(1, Color(0), 0);
        for _ in 0..4 {
            let u = b.add_simple_node(100, Color(0), 0);
            b.add_edge(src, u);
        }
        let g = b.build().unwrap();
        let diags = lint(&g, 4);
        let d = find(&diags, "NL003").expect("NL003");
        assert_eq!(d.colors, vec![0]);
        assert!(d.message.contains("level 1"), "{}", d.message);
        // The same level spread over all four colors is fine.
        let mut g2 = g.clone();
        g2.recolor(|u, c| if u == 0 { c } else { Color((u - 1) as u16 % 4) });
        assert!(find(&lint(&g2, 4), "NL003").is_none());
    }

    #[test]
    fn lopsided_coloring_trips_balance_lint() {
        let mut b = GraphBuilder::new();
        let mut prev = b.add_simple_node(100, Color(0), 0);
        for _ in 0..7 {
            let u = b.add_simple_node(100, Color(0), 0);
            b.add_edge(prev, u);
            prev = u;
        }
        // A second color with token work so the imbalance is extreme: on
        // P=4 the chain's 800 ticks on color 0 blow the 2x bound of
        // 2 * ceil(801 / 4) = 402.
        let tail = b.add_simple_node(1, Color(1), 0);
        b.add_edge(prev, tail);
        let g = b.build().unwrap();
        let diags = lint(&g, 4);
        let d = find(&diags, "NL004").expect("NL004");
        assert_eq!(d.colors, vec![0]);
    }

    #[test]
    fn scattered_hub_warns_only_with_domains() {
        let topo = Topology::new(4, 2); // 8 workers, 4 domains
        let mut b = GraphBuilder::new();
        let hub = b.add_simple_node(10, Color(0), 4096);
        for i in 0..16 {
            let u = b.add_simple_node(10, Color(i % 8), 4096);
            b.add_edge(hub, u);
        }
        let g = b.build().unwrap();
        let cfg = LintConfig::default();
        let cost = CostModel::default();
        let diags = lint_graph(&g, 8, &cost, Some(&topo), &cfg);
        let d = find(&diags, "NL005").expect("NL005");
        assert_eq!(d.nodes, vec![hub]);
        // On a UMA machine the same graph is fine.
        let uma = Topology::uma(8);
        assert!(find(&lint_graph(&g, 8, &cost, Some(&uma), &cfg), "NL005").is_none());
    }

    #[test]
    fn heavy_cross_domain_edge_warns() {
        let topo = Topology::new(2, 1); // workers 0 and 1 on different domains
        let mut b = GraphBuilder::new();
        let p = b.add_simple_node(10, Color(0), 1 << 20);
        let c = b.add_simple_node(10, Color(1), 1 << 20);
        b.add_edge(p, c);
        let g = b.build().unwrap();
        let cost = CostModel::default();
        let diags = lint_graph(&g, 2, &cost, Some(&topo), &LintConfig::default());
        let d = find(&diags, "NL006").expect("NL006");
        assert_eq!(d.nodes, vec![p, c]);
        // Same-domain placement silences it.
        let wide = Topology::new(1, 2);
        assert!(find(
            &lint_graph(&g, 2, &cost, Some(&wide), &LintConfig::default()),
            "NL006"
        )
        .is_none());
    }

    #[test]
    fn width_degeneracy_both_directions() {
        // A pure chain on a 4-way machine: width 1 < P.
        let mut b = GraphBuilder::new();
        let mut prev = b.add_simple_node(1, Color(0), 0);
        for _ in 0..3 {
            let u = b.add_simple_node(1, Color(0), 0);
            b.add_edge(prev, u);
            prev = u;
        }
        let g = b.build().unwrap();
        assert!(find(&lint(&g, 4), "NL007").is_some());
        // A 256-wide single level on P=2: over-decomposed (info only).
        let mut b = GraphBuilder::new();
        for i in 0..256 {
            b.add_simple_node(1, Color(i % 2), 0);
        }
        let g = b.build().unwrap();
        let diags = lint(&g, 2);
        let d = find(&diags, "NL008").expect("NL008");
        assert_eq!(d.severity, Severity::Info);
    }

    #[test]
    fn absent_color_warns() {
        let mut b = GraphBuilder::new();
        for _ in 0..6 {
            b.add_simple_node(5, Color(0), 0);
        }
        let g = b.build().unwrap();
        let diags = lint(&g, 2);
        let d = find(&diags, "NL009").expect("NL009");
        assert_eq!(d.colors, vec![1]);
    }

    #[test]
    fn color_behind_the_source_front_warns() {
        // A 6 x 6 wavefront in row blocks of three: color 1 first exists
        // on level 3, two levels after the first level two workers wide.
        let wavefront = |color_of: fn(usize, usize) -> u16| {
            let mut b = GraphBuilder::new();
            for i in 0..6 {
                for j in 0..6 {
                    b.add_simple_node(10, Color(color_of(i, j)), 0);
                }
            }
            for i in 0..6u32 {
                for j in 0..6u32 {
                    if i > 0 {
                        b.add_edge((i - 1) * 6 + j, i * 6 + j);
                    }
                    if j > 0 {
                        b.add_edge(i * 6 + j - 1, i * 6 + j);
                    }
                }
            }
            b.build().unwrap()
        };
        let diags = lint(&wavefront(|i, _| (i / 3) as u16), 2);
        let d = find(&diags, "NL010").expect("NL010");
        assert_eq!(d.severity, Severity::Warn);
        assert_eq!(d.colors, vec![1]);
        assert!(d.message.contains("color 1 at level 3"), "{}", d.message);
        assert!(d.message.contains("level 1, the first one 2 wide"));
        // The same wavefront with each anti-diagonal spread over both
        // colors shows color 1 on level 1: as early as a single source
        // allows, so nothing to report.
        assert!(find(&lint(&wavefront(|i, _| (i % 2) as u16), 2), "NL010").is_none());
        // With a source per worker the front is the source level itself.
        let mut b = GraphBuilder::new();
        let (a, c) = (
            b.add_simple_node(10, Color(0), 0),
            b.add_simple_node(10, Color(0), 0),
        );
        let below = b.add_simple_node(10, Color(1), 0);
        b.add_edge(a, below);
        b.add_edge(c, below);
        let diags = lint(&b.build().unwrap(), 2);
        let d = find(&diags, "NL010").expect("NL010");
        assert!(
            d.message.contains("after the source level"),
            "{}",
            d.message
        );
        assert!(find(&lint(&clean_graph(), 2), "NL010").is_none());
    }

    #[test]
    fn build_errors_map_to_nl000() {
        let mut b = GraphBuilder::new();
        let a = b.add_simple_node(1, Color(0), 0);
        b.add_edge(a, 7);
        let diags = diagnose_build_errors(&b.check());
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.code == "NL000"));
        assert!(diags.iter().any(|d| d.nodes.contains(&7)));
    }
}
