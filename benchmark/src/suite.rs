//! Whole-suite commands: `--all` (every workload, each run in a fresh
//! child process, collected into `results.json` with a host record),
//! `--compare` (two results files against the bounds) and `--describe`
//! (the `/BENCHMARK.json` these tables stand for).

use crate::cli::Options;
use crate::json::{parse, Json};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use std::path::Path;
use std::process::{Command, Stdio};

/// `run_seconds` of `/BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 15;

/// Version of the `results.json` layout.
pub const RESULTS_SCHEMA_VERSION: u32 = 1;

/// The result line of one run: exactly the keys the driver reads.
pub fn result_line(attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .compact()
}

/// First line of `program args…`'s output, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers were taken: without it a speedup cannot be told from
/// a lack of cores.
pub fn host_record(cfg: &Options) -> Json {
    Json::obj([
        (
            "available_parallelism",
            Json::Num(crate::cli::available_parallelism() as f64),
        ),
        ("workers", Json::Num(cfg.workers as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(cfg.seed as f64)),
    ])
}

/// One child run. Its human-readable lines are passed through; returns the
/// parsed result line and the `detail` line.
fn child_run(cfg: &Options, workload: &str, trace: u8) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", &trace.to_string()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--workers", &cfg.workers.to_string()])
        .arg("--out")
        .arg(&cfg.out_dir);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} --trace {trace} exited with {}",
            output.status
        ));
    }
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload}: no output"))
        .and_then(|l| parse(l).map_err(|e| format!("{workload}: result line: {e}")))?;
    let detail = lines
        .find_map(|l| l.strip_prefix("detail "))
        .map_or(Ok(Json::Null), parse)
        .map_err(|e| format!("{workload}: detail line: {e}"))?;
    Ok((result, detail))
}

/// `--all`: every workload, end-to-end run then per-layer run, each in a
/// fresh process so peak RSS and allocator state do not leak between them.
/// Returns the exit code.
pub fn run_all(cfg: &Options) -> i32 {
    let mut workloads = Vec::new();
    let mut failed_total = 0.0;
    for w in &WORKLOADS {
        let mut entry = vec![("why".to_string(), Json::str(w.why))];
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut detail = Vec::new();
        for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
            println!("== {} ({key})", w.name);
            match child_run(cfg, w.name, trace) {
                Ok((result, d)) => {
                    let num = |k: &str| result.get(k).and_then(Json::as_num).unwrap_or(0.0);
                    attempted += num("attempted");
                    failed += num("failed");
                    entry.push((
                        key.to_string(),
                        result.get("metrics").cloned().unwrap_or(Json::Null),
                    ));
                    detail.push((key.to_string(), d));
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    return 1;
                }
            }
        }
        failed_total += failed;
        entry.push(("attempted".into(), Json::Num(attempted)));
        entry.push(("failed".into(), Json::Num(failed)));
        entry.push(("detail".into(), Json::Obj(detail)));
        workloads.push((w.name.to_string(), Json::Obj(entry)));
    }

    let doc = Json::obj([
        ("schema_version", Json::Num(RESULTS_SCHEMA_VERSION as f64)),
        ("host", host_record(cfg)),
        ("seconds", Json::Num(cfg.seconds)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = cfg.out_dir.join("results.json");
    if let Err(e) =
        std::fs::create_dir_all(&cfg.out_dir).and_then(|()| std::fs::write(&path, doc.pretty()))
    {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
        return 1;
    }
    println!("wrote {}", path.display());
    if failed_total > 0.0 {
        eprintln!("benchmark: {failed_total} operation(s) failed verification");
        return 1;
    }
    0
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// By how much of `base` the value `new` is worse (negative: better).
fn worsening(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// `--compare a b`: per workload and end-to-end metric, both values, the
/// relative difference and the bound. Exit code 1 if `b` is worse than `a`
/// beyond a bound, or has more failed operations.
pub fn compare(a_path: &Path, b_path: &Path) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("benchmark: {e}");
            }
            return 2;
        }
    };
    let mut regressions = 0;
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "b vs a", "bound"
    );
    for w in &WORKLOADS {
        let side = |doc: &Json| doc.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            eprintln!("benchmark: {} is missing from one of the files", w.name);
            regressions += 1;
            continue;
        };
        for m in &END_TO_END {
            let value = |side: &Json| {
                side.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(|e| e.get("value"))
                    .and_then(Json::as_num)
            };
            let (Some(va), Some(vb)) = (value(&wa), value(&wb)) else {
                eprintln!("benchmark: {} {} is missing", w.name, m.name);
                regressions += 1;
                continue;
            };
            let worse = worsening(m.better, va, vb);
            let verdict = if worse > m.bound {
                regressions += 1;
                "  WORSE"
            } else {
                ""
            };
            println!(
                "{:<20} {:<18} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%{verdict}",
                w.name,
                m.name,
                va,
                vb,
                100.0 * (vb - va) / if va == 0.0 { 1.0 } else { va },
                100.0 * m.bound,
            );
        }
        let failed = |side: &Json| side.get("failed").and_then(Json::as_num).unwrap_or(0.0);
        let verdict = if failed(&wb) > failed(&wa) {
            regressions += 1;
            "  WORSE"
        } else {
            ""
        };
        println!(
            "{:<20} {:<18} {:>14} {:>14}{verdict}",
            w.name,
            "failed_ops",
            failed(&wa),
            failed(&wb)
        );
    }
    if regressions > 0 {
        println!("{regressions} metric(s) outside their bound");
        1
    } else {
        println!("every end-to-end metric of b is within its bound of a");
        0
    }
}

/// `--describe`: `/BENCHMARK.json`, from the tables the program uses.
pub fn describe() -> Json {
    let command = ["cargo", "run", "--release", "--quiet", "--offline"]
        .into_iter()
        .chain(["--manifest-path", "benchmark/Cargo.toml", "--"]);
    Json::obj([
        ("command", Json::Arr(command.map(Json::str).collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(12, 0, Json::obj([("m", Json::Num(1.5))]));
        assert!(!line.contains('\n'));
        let doc = parse(&line).unwrap();
        let keys: Vec<_> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert!(line.contains("\"attempted\":12,"), "whole numbers: {line}");
        let failing = parse(&result_line(12, 1, Json::Null)).unwrap();
        assert_eq!(failing.get("correct").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 2.0, 1.8) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Lower, 10.0, 9.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 9.0), 0.0);
    }

    /// `/BENCHMARK.json` is what the driver reads; the tables are what the
    /// program prints and `--compare` enforces.
    #[test]
    fn describe_is_the_committed_benchmark_json_and_within_the_contract_limits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = describe();
        assert_eq!(parse(&text).unwrap(), doc);

        let keys: Vec<_> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let Some(Json::Arr(command)) = doc.get("command") else {
            panic!("command is a list");
        };
        assert!(command.len() <= 32);
        for arg in command {
            let arg = arg.as_str().unwrap();
            assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
    }
}
