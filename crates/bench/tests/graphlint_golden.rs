//! Golden-output tests for the `graphlint` pipeline at `Scale::Tiny` —
//! the exact lint findings on the three-family corpus are pinned, so a
//! detector or coloring change that shifts the corpus verdicts must come
//! with an intentional update here.
//!
//! The acceptance property of ISSUE 8 lives in
//! [`sw_bisection_trap_is_flagged_and_auto_is_clean`]: the linter flags
//! the serialized-wide-level wavefront trap under `RecursiveBisection`
//! *statically* while the shipped `auto` coloring of every corpus
//! workload lints clean.

use nabbitc_bench::graphlint::{lint_workload, run, GraphlintRun, CORPUS};
use nabbitc_bench::json::{parse, validate_lint_json};
use nabbitc_cost::CostModel;
use nabbitc_lint::{LintReport, Severity, LINT_SCHEMA_VERSION};
use nabbitc_workloads::{BenchId, Scale};

fn codes(report: &LintReport) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.code).collect()
}

fn tiny(id: BenchId, p: usize, coloring: &str) -> LintReport {
    lint_workload(id, Scale::Tiny, p, coloring, &CostModel::default())
}

/// The pinned corpus verdicts at `Scale::Tiny` — the golden output.
#[test]
fn corpus_findings_are_pinned_at_tiny() {
    // (bench, P, coloring) -> exact ordered lint codes.
    let golden: &[(BenchId, usize, &str, &[&str])] = &[
        (BenchId::Heat, 20, "auto", &[]),
        (BenchId::Heat, 20, "hand", &[]),
        (BenchId::Heat, 20, "recursive-bisection", &[]),
        (BenchId::Sw, 20, "auto", &[]),
        // The paper's row blocks put one color at the wavefront's single
        // source: 17 of the 20 first exist after level 19 (the first level
        // 20 wide), the last on level 152 of 319 — until then the forced
        // first colored steal of their workers has nothing to succeed on.
        (BenchId::Sw, 20, "hand", &["NL010"]),
        // The documented wavefront trap: a cut-minimal partition of sw
        // serializes whole anti-diagonals (and keeps colors off the front).
        (BenchId::Sw, 20, "recursive-bisection", &["NL003", "NL010"]),
        (BenchId::PageUk2002, 20, "auto", &[]),
        // The paper's hand coloring of the power-law webgraph blows the
        // 2x balance bound (hubs concentrate on few colors).
        (BenchId::PageUk2002, 20, "hand", &["NL004"]),
        // A cut-minimal partition of the iterated dataflow follows the
        // iterations: most colors have no block among the 32 sources.
        (BenchId::PageUk2002, 20, "recursive-bisection", &["NL010"]),
        // ROADMAP's open irregular-family weakness, caught statically: at
        // four domains the auto coloring scatters the webgraph's hub
        // consumers across the whole machine.
        (BenchId::PageUk2002, 40, "auto", &["NL005"]),
    ];
    for &(id, p, coloring, expected) in golden {
        let report = tiny(id, p, coloring);
        assert_eq!(
            codes(&report),
            expected,
            "{}/{coloring} (P={p}) drifted from the golden findings:\n{}",
            id.name(),
            report.render()
        );
    }
}

/// ISSUE 8 acceptance: the sw serialized-wide-level trap is flagged under
/// `RecursiveBisection` (with the level's dominant color referenced)
/// while the `auto` coloring of the whole corpus lints clean.
#[test]
fn sw_bisection_trap_is_flagged_and_auto_is_clean() {
    let trapped = tiny(BenchId::Sw, 20, "recursive-bisection");
    let nl003 = trapped
        .diagnostics
        .iter()
        .find(|d| d.code == "NL003")
        .expect("sw under recursive-bisection must trip NL003");
    assert_eq!(nl003.severity, Severity::Warn);
    assert!(!nl003.nodes.is_empty(), "finding must anchor to nodes");
    assert_eq!(nl003.colors.len(), 1, "one dominant color");
    assert!(
        nl003.message.contains("executes serially"),
        "{}",
        nl003.message
    );

    for id in CORPUS {
        let report = tiny(id, 20, "auto");
        assert!(
            !report.has_warnings(),
            "{} auto coloring must lint clean:\n{}",
            id.name(),
            report.render()
        );
    }
}

/// Machine-readable reports round-trip through the bench JSON parser and
/// satisfy the versioned schema — for a clean report and for one with
/// findings.
#[test]
fn lint_json_round_trips_and_validates() {
    for (id, coloring) in [
        (BenchId::Heat, "auto"),
        (BenchId::Sw, "recursive-bisection"),
        (BenchId::PageUk2002, "hand"),
    ] {
        let report = tiny(id, 20, coloring);
        let doc = parse(&report.to_json())
            .unwrap_or_else(|e| panic!("{}/{coloring}: emitted unparseable JSON: {e}", id.name()));
        assert_eq!(
            validate_lint_json(&doc),
            Vec::<String>::new(),
            "{}/{coloring}",
            id.name()
        );
        // Field-level round-trip: the parsed document carries the same
        // header and findings the in-memory report does.
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_num()),
            Some(LINT_SCHEMA_VERSION as f64)
        );
        assert_eq!(doc.get("target").and_then(|v| v.as_str()), Some(id.name()));
        assert_eq!(doc.get("coloring").and_then(|v| v.as_str()), Some(coloring));
        assert_eq!(doc.get("workers").and_then(|v| v.as_num()), Some(20.0));
        let diags = doc
            .get("diagnostics")
            .and_then(|v| v.as_arr())
            .expect("diagnostics array");
        assert_eq!(diags.len(), report.diagnostics.len());
        for (json, mem) in diags.iter().zip(report.diagnostics.iter()) {
            assert_eq!(json.get("code").and_then(|v| v.as_str()), Some(mem.code));
            assert_eq!(
                json.get("severity").and_then(|v| v.as_str()),
                Some(mem.severity.name())
            );
            assert_eq!(
                json.get("message").and_then(|v| v.as_str()),
                Some(mem.message.as_str())
            );
            let nodes: Vec<u32> = json
                .get("nodes")
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|n| n.as_num().unwrap() as u32)
                .collect();
            assert_eq!(nodes, mem.nodes);
        }
    }
}

/// The CLI driver: `--json` output is one parseable array of valid
/// report documents, and the deny gates map findings to failures the way
/// the binary's exit code promises.
#[test]
fn cli_driver_json_array_and_deny_gates() {
    let cost = CostModel::default();

    // Default run (auto over the corpus at P=20): passes even with
    // --deny-warnings, and emits a valid JSON array.
    let cfg = GraphlintRun {
        json: true,
        deny_warnings: true,
        ..GraphlintRun::default()
    };
    let mut out = Vec::new();
    let verdict = run(&cfg, Scale::Tiny, &cost, &mut out).expect("write");
    assert_eq!(verdict, Ok(()));
    let text = String::from_utf8(out).expect("utf8");
    let doc = parse(&text).expect("JSON array parses");
    let reports = doc.as_arr().expect("array");
    assert_eq!(reports.len(), CORPUS.len());
    for r in reports {
        assert_eq!(validate_lint_json(r), Vec::<String>::new());
    }

    // The bisection trap fails the run only under --deny-warnings (the
    // finding is a Warn, not an Error).
    let trap = GraphlintRun {
        benches: vec![BenchId::Sw],
        colorings: vec!["recursive-bisection".to_string()],
        deny_warnings: true,
        ..GraphlintRun::default()
    };
    let verdict = run(&trap, Scale::Tiny, &cost, &mut Vec::new()).expect("write");
    let summary = verdict.expect_err("deny-warnings must fail on NL003");
    assert!(
        summary.contains("sw/recursive-bisection"),
        "failure summary must name the target: {summary}"
    );
    let lenient = GraphlintRun {
        deny_warnings: false,
        ..trap
    };
    let verdict = run(&lenient, Scale::Tiny, &cost, &mut Vec::new()).expect("write");
    assert_eq!(verdict, Ok(()), "a Warn passes without --deny-warnings");
}
