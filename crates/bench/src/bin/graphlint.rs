//! `graphlint` — static graph/schedule linter over the workload corpus.
//!
//! Builds each requested workload at the `NABBITC_SCALE` scale, colors it
//! (hand coloring, the `auto` portfolio, or any named assigner), and runs
//! the `nabbitc-lint` schedule detectors against the truncated paper
//! topology — all before anything executes. Exit status is the gate: `0`
//! when every target passes, `1` on an `Error` finding (or `Warn` under
//! `--deny-warnings`), `2` on a usage error.
//!
//! ```text
//! graphlint [OPTIONS] [WORKLOAD]...
//!
//!   WORKLOAD...          corpus workloads to lint (default: heat sw
//!                        page-uk-2002; `all` = every registry workload)
//!   --coloring NAME      coloring(s) to lint (repeatable; default auto;
//!                        hand | auto | round-robin | block-contiguous |
//!                        bfs-locality | recursive-bisection |
//!                        cp-level-aware)
//!   --workers P          machine size(s) to lint for (repeatable;
//!                        default 20)
//!   --json               machine-readable JSON array (schema versioned,
//!                        validated by nabbitc-bench's validate_lint_json)
//!   --deny-warnings      fail on Warn-or-worse findings, not only Error
//!   --results            also write results/graphlint.{md,csv}
//! ```
//!
//! `NABBITC_SCALE=tiny cargo run --release -p nabbitc-bench --bin
//! graphlint -- --deny-warnings` is the CI gate: the shipped `auto`
//! colorings of the corpus must lint clean.

use nabbitc_bench::graphlint::{results_table, run, GraphlintRun};
use nabbitc_bench::{cost_from_env, scale_from_env};
use nabbitc_workloads::BenchId;

fn usage(msg: &str) -> ! {
    eprintln!("graphlint: {msg}");
    eprintln!("usage: graphlint [--coloring NAME]... [--workers P]... [--json] [--deny-warnings] [--results] [WORKLOAD]...");
    std::process::exit(2);
}

fn bench_by_name(name: &str) -> BenchId {
    BenchId::all()
        .into_iter()
        .find(|id| id.name() == name)
        .unwrap_or_else(|| {
            let names: Vec<&str> = BenchId::all().iter().map(|id| id.name()).collect();
            usage(&format!(
                "unknown workload {name:?} (accepted: all | {})",
                names.join(" | ")
            ))
        })
}

fn main() {
    let scale = scale_from_env();
    let cost = cost_from_env();
    let mut cfg = GraphlintRun::default();
    let mut colorings: Vec<String> = Vec::new();
    let mut workers: Vec<usize> = Vec::new();
    let mut benches: Vec<BenchId> = Vec::new();
    let mut results = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--coloring" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| usage("--coloring needs a name"));
                colorings.push(name);
            }
            "--workers" => {
                let p = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&p| p > 0)
                    .unwrap_or_else(|| usage("--workers needs a positive integer"));
                workers.push(p);
            }
            "--json" => cfg.json = true,
            "--deny-warnings" => cfg.deny_warnings = true,
            "--results" => results = true,
            "all" => benches = BenchId::all().to_vec(),
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag:?}")),
            name => benches.push(bench_by_name(name)),
        }
    }
    if !colorings.is_empty() {
        cfg.colorings = colorings;
    }
    if !workers.is_empty() {
        cfg.workers = workers;
    }
    if !benches.is_empty() {
        cfg.benches = benches;
    }

    let mut stdout = std::io::stdout().lock();
    let verdict = run(&cfg, scale, &cost, &mut stdout).expect("write to stdout");
    drop(stdout);

    if results {
        results_table(&cfg.benches, &cfg.colorings, &cfg.workers, scale, &cost)
            .finish()
            .expect("failed to write results");
    }

    if let Err(summary) = verdict {
        eprintln!("graphlint: FAIL: {summary}");
        std::process::exit(1);
    }
    eprintln!("graphlint: ok");
}
