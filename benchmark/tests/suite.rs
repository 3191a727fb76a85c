//! The suite commands, driven through the binary: `--all --smoke` writes a
//! complete results file and the traces, `--compare` enforces the bounds,
//! and oversubscription is refused.

use nabbitc_benchmark::json::{parse, Json};
use nabbitc_benchmark::metrics::{END_TO_END, PER_LAYER};
use nabbitc_benchmark::workloads::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nabbitc-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Multiplies the `value` of the first metric called `name`, depth first.
fn scale_first(doc: &mut Json, name: &str, factor: f64) -> bool {
    let Json::Obj(members) = doc else {
        return false;
    };
    for (key, member) in members {
        if key == name {
            if let Json::Obj(fields) = member {
                if let Some((_, Json::Num(value))) = fields.iter_mut().find(|(k, _)| k == "value") {
                    *value *= factor;
                    return true;
                }
            }
        }
        if scale_first(member, name, factor) {
            return true;
        }
    }
    false
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn smoke_suite_writes_results_and_traces_and_compare_enforces_bounds() {
    let dir = out_dir("smoke");
    let dir_arg = dir.to_str().expect("utf-8 path");
    let run = bench(&["--all", "--smoke", "--seed", "3", "--out", dir_arg]);
    assert!(
        run.status.success(),
        "--all --smoke failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    // The results schema: host record, every workload, every metric.
    let results_path = dir.join("results.json");
    let results = read_json(&results_path);
    assert_eq!(
        results.get("schema_version").and_then(Json::as_num),
        Some(1.0)
    );
    assert_eq!(results.get("smoke").and_then(Json::as_bool), Some(true));
    let host = results.get("host").expect("host record");
    let host_keys: Vec<_> = host.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        host_keys,
        [
            "available_parallelism",
            "workers",
            "cpu_model",
            "rustc",
            "git_commit",
            "seed"
        ]
    );
    assert_eq!(host.get("seed").and_then(Json::as_num), Some(3.0));
    let workers = host.get("workers").and_then(Json::as_num).unwrap();
    assert!(
        workers >= 1.0
            && workers
                <= host
                    .get("available_parallelism")
                    .and_then(Json::as_num)
                    .unwrap()
    );

    let workloads = results.get("workloads").expect("workloads");
    assert_eq!(workloads.members().len(), WORKLOADS.len());
    for w in &WORKLOADS {
        let entry = workloads
            .get(w.name)
            .unwrap_or_else(|| panic!("{} missing", w.name));
        assert_eq!(
            entry.get("failed").and_then(Json::as_num),
            Some(0.0),
            "{}",
            w.name
        );
        assert!(entry.get("attempted").and_then(Json::as_num).unwrap() >= 4.0);
        let metric = |section: &str, name: &str| {
            entry
                .get(section)
                .and_then(|s| s.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_num)
                .unwrap_or_else(|| panic!("{} {section} {name} missing", w.name))
        };
        for m in &END_TO_END {
            assert!(
                metric("end_to_end", m.name) > 0.0,
                "{} {} must never be 0",
                w.name,
                m.name
            );
        }
        for m in &PER_LAYER {
            assert!(metric("per_layer", m.name).is_finite());
        }
        // The traced split is consistent: kernel + idle never exceed
        // W x elapsed.
        assert!(
            metric("per_layer", "core.sched_overhead_s") >= 0.0,
            "{}",
            w.name
        );
        assert!(
            metric("per_layer", "workloads.kernel_s") > 0.0,
            "{}",
            w.name
        );

        let trace = read_json(&dir.join(format!("trace_{}.json", w.name)));
        let Some(Json::Arr(events)) = trace.get("traceEvents") else {
            panic!("{}: no traceEvents", w.name);
        };
        let has = |name: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(name))
        };
        for span in [
            "setup",
            "workloads.build",
            "runtime.pool_new",
            "op",
            "core.execute",
            "task",
        ] {
            assert!(has(span), "{}: no {span} event in the trace", w.name);
        }
    }
    // Coloring is on the path of pagerank-auto only.
    let coloring = |w: &str| {
        workloads
            .get(w)
            .and_then(|e| e.get("per_layer"))
            .and_then(|p| p.get("color_p50_ms"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_num)
            .unwrap()
    };
    assert!(coloring("pagerank-auto") > 0.0);
    assert_eq!(coloring("heat-fine"), 0.0);

    // A file agrees with itself...
    let results_arg = results_path.to_str().unwrap();
    let same = bench(&["--compare", results_arg, results_arg]);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );

    // ...a 50 % slower median is outside its bound...
    let mut slower = results.clone();
    scale_first(&mut slower, "exec_p50_ms", 1.5);
    let slower = slower.pretty();
    let slower_path = dir.join("slower.json");
    std::fs::write(&slower_path, slower).unwrap();
    let worse = bench(&["--compare", results_arg, slower_path.to_str().unwrap()]);
    assert_eq!(worse.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&worse.stdout).contains("WORSE"));
    // ...and the other way round it is an improvement.
    let better = bench(&["--compare", slower_path.to_str().unwrap(), results_arg]);
    assert!(better.status.success());
}

#[test]
fn oversubscription_is_refused_before_anything_runs() {
    let dir = out_dir("refused");
    let run = bench(&["--all", "--workers", "4096", "--out", dir.to_str().unwrap()]);
    assert_eq!(run.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&run.stderr).contains("refused"));
    assert!(!dir.exists(), "nothing was run or written");
}

#[test]
fn a_workload_run_ends_with_the_result_line() {
    let dir = out_dir("single");
    let run = bench(&[
        "--workload",
        "heat-fine",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let result = parse(stdout.lines().last().expect("output")).expect("the last line is JSON");
    let keys: Vec<_> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = result.get("metrics").unwrap();
    let names: Vec<_> = metrics.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
}
