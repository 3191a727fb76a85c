//! Shared harness machinery for the figure/table regeneration binaries.
//!
//! Each binary regenerates one table or figure from the paper's evaluation
//! (§V) on the simulated 8×10-core machine, printing a markdown table to
//! stdout and a CSV file under `results/`. README.md § *Results* shows
//! how one is regenerated and which outputs are committed.

use nabbitc_cost::Topology;
use nabbitc_numasim::{
    serial_ticks, simulate_omp, simulate_ws, CostModel, OmpSchedule, SimResult, WsConfig,
};
use nabbitc_workloads::{registry, BenchId, Scale};
use std::fmt::Write as _;
use std::io::Write as _;

pub mod graphlint;
pub mod json;

/// Core counts used throughout the paper's sweeps.
pub const SWEEP_CORES: [usize; 8] = [1, 2, 4, 10, 20, 40, 60, 80];

/// Core counts for the 20+-core figures (Fig. 7, Tables II/III).
pub const NUMA_CORES: [usize; 4] = [20, 40, 60, 80];

/// Seeds averaged per work-stealing simulation (the paper averages five
/// runs).
pub const SEEDS: [u64; 5] = [11, 22, 33, 44, 55];

/// Reads the scale from `NABBITC_SCALE` (tiny | small | medium | paper);
/// default medium when unset. `tiny` exists for CI smoke runs of the
/// regeneration binaries.
///
/// Unrecognized values abort with the accepted names, like
/// [`cost_from_env`]: a typo'd `NABBITC_SCALE=papr` silently falling back
/// to medium would report quarter-scale numbers as paper-scale. The value
/// is trimmed first (shell-quoting accidents are not errors).
pub fn scale_from_env() -> Scale {
    match std::env::var("NABBITC_SCALE") {
        Ok(v) => match v.trim() {
            "paper" => Scale::Paper,
            "medium" => Scale::Medium,
            "small" => Scale::Small,
            "tiny" => Scale::Tiny,
            other => panic!(
                "NABBITC_SCALE unrecognized: {other:?} (accepted: tiny | small | medium | paper)"
            ),
        },
        Err(std::env::VarError::NotPresent) => Scale::Medium,
        Err(e @ std::env::VarError::NotUnicode(_)) => panic!("NABBITC_SCALE unreadable: {e}"),
    }
}

/// Builds the harness [`CostModel`] from the environment:
/// `NABBITC_REMOTE_RATIO` (a finite positive float, default 3.0) sets the
/// remote/local byte-cost ratio. The same model prices the simulator and
/// the `AutoSelect` scoring in the harnesses that select colorings, so a
/// ratio sweep exercises estimator and simulator consistently.
///
/// The value is trimmed before parsing (`" 3.0"` is a shell-quoting
/// accident, not an error) and non-finite or non-positive values are
/// rejected *here*, with a message naming the variable — not three layers
/// down inside `CostModel` construction.
pub fn cost_from_env() -> CostModel {
    match std::env::var("NABBITC_REMOTE_RATIO") {
        Ok(v) => {
            let ratio: f64 = v
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("NABBITC_REMOTE_RATIO not a float: {v:?}"));
            assert!(
                ratio.is_finite() && ratio > 0.0,
                "NABBITC_REMOTE_RATIO must be a finite positive float, got {v:?}"
            );
            CostModel::default().with_remote_ratio(ratio)
        }
        Err(_) => CostModel::default(),
    }
}

/// A scheduling strategy under comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// OpenMP static loops.
    OmpStatic,
    /// OpenMP guided loops.
    OmpGuided,
    /// Vanilla Nabbit (random work stealing).
    Nabbit,
    /// NabbitC (colored steals + morphing continuations).
    NabbitC,
}

impl Strategy {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::OmpStatic => "omp-static",
            Strategy::OmpGuided => "omp-guided",
            Strategy::Nabbit => "nabbit",
            Strategy::NabbitC => "nabbitc",
        }
    }
}

/// Simulates `strategy` on benchmark `id` at `scale` with `p` cores,
/// seed-averaging the work-stealing strategies. Returns the averaged
/// result (makespan and counters averaged element-wise where meaningful).
pub fn run_strategy(id: BenchId, scale: Scale, p: usize, strategy: Strategy) -> SimResult {
    let graph = registry::build(id, scale, p).graph;
    let topo = Topology::paper_machine().truncated(p);
    let cost = CostModel::default();
    let omp = |schedule| simulate_omp(&graph, schedule, p, &topo, &cost);
    match strategy {
        Strategy::OmpStatic => omp(OmpSchedule::Static),
        Strategy::OmpGuided => omp(OmpSchedule::Guided),
        Strategy::Nabbit | Strategy::NabbitC => {
            let mut acc: Option<SimResult> = None;
            for &seed in SEEDS.iter() {
                let mut cfg = if strategy == Strategy::Nabbit {
                    WsConfig::nabbit(p)
                } else {
                    WsConfig::nabbitc(p)
                };
                cfg.seed = seed;
                let r = simulate_ws(&graph, &cfg);
                acc = Some(match acc {
                    None => r,
                    Some(mut a) => {
                        a.makespan += r.makespan;
                        a.remote.total += r.remote.total;
                        a.remote.remote += r.remote.remote;
                        a.remote.node_total += r.remote.node_total;
                        a.remote.node_remote += r.remote.node_remote;
                        for (ac, rc) in a.cores.iter_mut().zip(r.cores.iter()) {
                            ac.colored_steals += rc.colored_steals;
                            ac.random_steals += rc.random_steals;
                            ac.first_work += rc.first_work;
                            ac.idle += rc.idle;
                        }
                        a
                    }
                });
            }
            let mut a = acc.expect("at least one seed");
            let n = SEEDS.len() as u64;
            a.makespan /= n;
            for c in a.cores.iter_mut() {
                c.colored_steals /= n;
                c.random_steals /= n;
                c.first_work /= n;
                c.idle /= n;
            }
            a
        }
    }
}

/// Serial baseline ticks for a benchmark (one core, all data local — the
/// paper's "serial OPENMPSTATIC" baseline).
pub fn serial_baseline(id: BenchId, scale: Scale) -> u64 {
    let built = registry::build(id, scale, 1);
    serial_ticks(&built.graph, &CostModel::default())
}

/// Markdown + CSV writer.
pub struct Report {
    name: String,
    md: String,
    csv: String,
}

impl Report {
    /// Starts a report.
    pub fn new(name: &str, title: &str) -> Report {
        let mut md = String::new();
        let _ = writeln!(md, "# {title}\n");
        Report {
            name: name.to_string(),
            md,
            csv: String::new(),
        }
    }

    /// Adds a free-form markdown line.
    pub fn line(&mut self, s: &str) {
        let _ = writeln!(self.md, "{s}");
    }

    /// Adds a table header (also the CSV header).
    pub fn header(&mut self, cols: &[&str]) {
        let _ = writeln!(self.md, "| {} |", cols.join(" | "));
        let _ = writeln!(
            self.md,
            "|{}|",
            cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        );
        let _ = writeln!(self.csv, "{}", cols.join(","));
    }

    /// Adds a row.
    pub fn row(&mut self, cells: &[String]) {
        let _ = writeln!(self.md, "| {} |", cells.join(" | "));
        let _ = writeln!(self.csv, "{}", cells.join(","));
    }

    /// Prints markdown to stdout and writes `results/<name>.csv` +
    /// `results/<name>.md`. Errors are propagated: a failed results write
    /// must not masquerade as success (the harness scripts diff the
    /// committed files, so a silently missing write corrupts comparisons).
    pub fn finish(self) -> std::io::Result<()> {
        self.finish_to(std::path::Path::new("results"))
    }

    /// As [`finish`](Self::finish), into an explicit directory.
    pub fn finish_to(self, dir: &std::path::Path) -> std::io::Result<()> {
        println!("{}", self.md);
        std::fs::create_dir_all(dir)?;
        let write = |ext: &str, content: &str| -> std::io::Result<()> {
            let path = dir.join(format!("{}.{ext}", self.name));
            let mut f = std::fs::File::create(&path)?;
            f.write_all(content.as_bytes())
        };
        write("md", &self.md)?;
        write("csv", &self.csv)?;
        eprintln!(
            "(wrote {0}/{1}.md and {0}/{1}.csv)",
            dir.display(),
            self.name
        );
        Ok(())
    }
}

/// Formats a float with one decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}
#[cfg(test)]
mod tests {
    use super::*;

    /// Guards every test that touches the process environment: libtest
    /// runs tests on parallel threads, and `set_var` concurrent with any
    /// `getenv` elsewhere is undefined behavior on glibc. Any future test
    /// reading or writing env vars must lock this first.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn cost_from_env_trims_validates_and_names_the_variable() {
        let _env = ENV_LOCK.lock().unwrap();
        const VAR: &str = "NABBITC_REMOTE_RATIO";
        let check_panic = |value: &str, needle: &str| {
            std::env::set_var(VAR, value);
            let err = std::panic::catch_unwind(cost_from_env).expect_err("must reject");
            std::env::remove_var(VAR);
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("NABBITC_REMOTE_RATIO") && msg.contains(needle),
                "{value:?}: panic message {msg:?} lacks {needle:?}"
            );
        };

        std::env::remove_var(VAR);
        assert_eq!(cost_from_env(), CostModel::default());

        // Whitespace is trimmed, not rejected.
        std::env::set_var(VAR, " 3.5 ");
        let m = cost_from_env();
        std::env::remove_var(VAR);
        assert_eq!(m.remote_ratio(), 3.5);

        // Non-floats, non-finite, and non-positive values fail at the
        // parse site with the variable named.
        check_panic("ratio", "not a float");
        check_panic("inf", "finite positive");
        check_panic("-inf", "finite positive");
        check_panic("nan", "finite positive");
        check_panic("0", "finite positive");
        check_panic("-2.0", "finite positive");
    }

    #[test]
    fn scale_from_env_is_strict_and_names_the_accepted_values() {
        let _env = ENV_LOCK.lock().unwrap();
        const VAR: &str = "NABBITC_SCALE";

        std::env::remove_var(VAR);
        assert_eq!(scale_from_env(), Scale::Medium);

        for (value, expect) in [
            ("tiny", Scale::Tiny),
            ("small", Scale::Small),
            ("medium", Scale::Medium),
            ("paper", Scale::Paper),
            (" tiny ", Scale::Tiny), // trimmed, not rejected
        ] {
            std::env::set_var(VAR, value);
            assert_eq!(scale_from_env(), expect, "{value:?}");
        }

        // Typos abort with the variable and the accepted names — they must
        // not silently report medium-scale numbers as something else.
        for bad in ["papr", "TINY", "huge", ""] {
            std::env::set_var(VAR, bad);
            let err = std::panic::catch_unwind(scale_from_env).expect_err(bad);
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("NABBITC_SCALE") && msg.contains("tiny | small | medium | paper"),
                "{bad:?}: panic message {msg:?}"
            );
        }
        std::env::remove_var(VAR);
    }

    #[test]
    fn report_finish_propagates_write_errors() {
        // A directory path that cannot exist: a component of it is a file.
        let blocker = std::env::temp_dir().join("nabbitc_report_finish_blocker");
        std::fs::write(&blocker, b"not a directory").expect("create blocker file");
        let dir = blocker.join("results");

        let mut rep = Report::new("finish_error_test", "Finish error test");
        rep.header(&["a"]);
        rep.row(&["1".to_string()]);
        let err = rep
            .finish_to(&dir)
            .expect_err("writing under a file must fail");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::NotADirectory | std::io::ErrorKind::AlreadyExists
            ) || err.raw_os_error().is_some(),
            "unexpected error kind: {err:?}"
        );
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn report_finish_writes_both_files() {
        let dir = std::env::temp_dir().join("nabbitc_report_finish_ok");
        let _ = std::fs::remove_dir_all(&dir);
        let mut rep = Report::new("finish_ok_test", "Finish ok test");
        rep.header(&["a", "b"]);
        rep.row(&["1".to_string(), "2".to_string()]);
        rep.finish_to(&dir).expect("write must succeed");
        let md = std::fs::read_to_string(dir.join("finish_ok_test.md")).unwrap();
        let csv = std::fs::read_to_string(dir.join("finish_ok_test.csv")).unwrap();
        assert!(md.contains("| 1 | 2 |"));
        assert!(csv.contains("a,b"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
