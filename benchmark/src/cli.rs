//! Command line.

use crate::suite::RUN_SECONDS;
use crate::workloads::{find, Workload, WORKLOADS};
use std::path::PathBuf;

pub const USAGE: &str = "\
usage: nabbitc-benchmark <mode> [options]

modes:
  --workload NAME --trace 0|1   one workload in this process: end-to-end metrics
                                (--trace 0) or per-layer metrics and the trace file
                                (--trace 1); the last line of output is the result
  --all                         every workload, both runs, each in a child process;
                                writes <out>/results.json
  --layers                      the runtime microbenchmarks alone
  --compare A.json B.json       two results files against the bounds
  --describe                    print /BENCHMARK.json

options:
  --seed N        pool victim RNG and web-graph seed (default 1)
  --seconds S     how long one run measures (default: run_seconds of BENCHMARK.json)
  --workers W     worker threads (default min(cores, 4)); refused above the core count
  --smoke         two operations per set at an eighth of the grain: checks, not numbers
  --out DIR       where results.json and traces go (default benchmark/out)";

pub enum Mode {
    Workload {
        workload: &'static Workload,
        trace: bool,
    },
    All,
    Layers,
    Compare(PathBuf, PathBuf),
    Describe,
}

/// What every run of every mode shares.
pub struct Options {
    pub seed: u64,
    /// How long one run measures.
    pub seconds: f64,
    pub workers: usize,
    /// Two operations per set, an eighth of the grain, tiny microbenchmarks:
    /// exercises every path and verifies every output, measures nothing.
    pub smoke: bool,
    /// Where `results.json` and the traces go.
    pub out_dir: PathBuf,
}

pub struct Args {
    pub mode: Mode,
    pub options: Options,
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = args.into_iter();
    let (mut workload, mut trace) = (None, false);
    let mut mode = None;
    let mut seed = 1;
    let mut seconds = RUN_SECONDS as f64;
    let mut workers = available_parallelism().min(4);
    let mut smoke = false;
    let mut out_dir = PathBuf::from("benchmark/out");

    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(find(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside 0..=600"));
                }
            }
            "--workers" => workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?,
            "--out" => out_dir = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            "--all" => mode = Some(Mode::All),
            "--layers" => mode = Some(Mode::Layers),
            "--describe" => mode = Some(Mode::Describe),
            "--compare" => mode = Some(Mode::Compare(value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }

    let mode = match (mode, workload) {
        (None, Some(workload)) => Mode::Workload { workload, trace },
        (Some(mode), None) => mode,
        (None, None) => return Err("no mode given".into()),
        (Some(_), Some(_)) => return Err("--workload cannot be combined with another mode".into()),
    };
    // More threads than cores measures the OS scheduler, not this one.
    let cores = available_parallelism();
    if workers == 0 || workers > cores {
        return Err(format!(
            "--workers {workers} refused: this host has {cores} core(s) and the benchmark does not oversubscribe"
        ));
    }
    Ok(Args {
        mode,
        options: Options {
            seed,
            seconds,
            workers,
            smoke,
            out_dir,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let a = args("--workload sw-wavefront --seed 9 --seconds 10 --trace 1").unwrap();
        assert!(
            matches!(a.mode, Mode::Workload { workload, trace: true } if workload.name == "sw-wavefront")
        );
        let o = a.options;
        assert_eq!((o.seed, o.seconds, o.smoke), (9, 10.0, false));
        assert!(o.workers >= 1 && o.workers <= 4);
    }

    #[test]
    fn oversubscription_and_bad_input_are_refused() {
        let too_many = available_parallelism() + 1;
        let err = args(&format!("--all --workers {too_many}")).err().unwrap();
        assert!(err.contains("refused"), "{err}");
        for bad in [
            "",
            "--all --workers 0",
            "--workload nope",
            "--workload heat-fine --trace 2",
            "--workload heat-fine --all",
            "--all --seconds 0",
            "--all --seed",
            "--compare one.json",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be refused");
        }
    }
}
