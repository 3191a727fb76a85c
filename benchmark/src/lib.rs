//! The repo benchmark. See `README.md` for the workloads, the metrics and
//! how they interact; `/BENCHMARK.json` is the machine-readable summary.

pub mod cli;
pub mod json;
pub mod kernel;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;
