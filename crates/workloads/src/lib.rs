//! The paper's benchmark suite (Table I), rebuilt for this reproduction.
//!
//! Ten memory-bound benchmarks, each described once, as a **task graph**
//! with per-node work, memory-access footprint, and the paper's *majority
//! coloring* (data distributed evenly, each region colored by its
//! initializing worker, each node colored by the region holding most of
//! its data). Serial / Nabbit / NabbitC execution, the work-stealing
//! simulator and the OpenMP-static / OpenMP-guided simulator (one
//! barrier-separated loop per hop-count level of the graph) all read it.
//!
//! | id | benchmark | shape |
//! |----|-----------|-------|
//! | `cg` | NAS-style conjugate gradient iteration | matvec blocks → dot reduction → axpy |
//! | `mg` | multigrid V-cycle | smooth/restrict down, prolong/smooth up |
//! | `heat` | heat-diffusion stencil | iterated 1-D row-block stencil |
//! | `fdtd` | finite-difference time domain | staggered E/H phases |
//! | `life` | Conway's game of life | iterated row-block stencil |
//! | `page-uk-2002` | PageRank, moderate-skew web graph | irregular block dataflow |
//! | `page-twitter-2010` | PageRank, extreme-skew graph | irregular, heavy tail |
//! | `page-uk-2007-05` | PageRank, large moderate-skew graph | irregular |
//! | `sw` | Smith-Waterman (n³ blocked) | 2-D wavefront |
//! | `swn2` | Smith-Waterman (n² blocked) | 2-D wavefront, bigger blocks |
//!
//! The three web crawls the paper uses (uk-2002, twitter-2010, uk-2007-05)
//! are proprietary LAW datasets; [`webgraph`] generates seeded synthetic
//! power-law graphs matching the properties that matter to the scheduler —
//! per-block work imbalance and cross-block access structure — with
//! twitter-like skew much heavier than the uk-like presets.
//!
//! [`registry`] exposes the whole suite to the figure/table harnesses;
//! modules with a `Problem` type (heat, life, fdtd, sw, pagerank, cg, mg)
//! also provide *real runnable kernels* with serial reference checks, used
//! by the examples and integration tests. Each kernel is written once, as
//! a node kernel of the problem's task graph, and runs under either
//! [`GraphRunner`]: the task-graph executor (Nabbit / NabbitC) or the
//! OpenMP-style team (static / guided loops over the graph's levels).

pub mod cg;
pub mod fdtd;
#[cfg(test)]
mod fnv;
pub mod heat;
pub mod life;
pub mod mg;
pub mod pagerank;
pub mod registry;
pub mod runner;
pub mod stencil;
pub mod sw;
pub mod util;
pub mod webgraph;

pub use registry::{BenchId, Built, Scale};
pub use runner::GraphRunner;

/// The OpenMP-style baselines: heat, life and PageRank run their one node
/// kernel under the team's static and guided loops, equal to serial.
#[cfg(test)]
mod omp {
    mod tests {
        use crate::heat::HeatProblem;
        use crate::life::LifeProblem;
        use crate::pagerank::PageRank;
        use nabbitc_parfor::Team;
        use nabbitc_runtime::OmpSchedule;

        fn assert_close(serial: &[f64], par: &[f64]) {
            assert_eq!(serial.len(), par.len());
            for (s, q) in serial.iter().zip(par.iter()) {
                assert!((s - q).abs() < 1e-12, "serial {s} vs {q}");
            }
        }

        #[test]
        fn heat_static_matches_serial() {
            let p = HeatProblem::small();
            let team = Team::uma(4);
            let (run, _) = p.run_taskgraph(&(&team, OmpSchedule::Static));
            assert_close(&p.run_serial(), &run);
        }

        #[test]
        fn heat_guided_matches_serial() {
            let p = HeatProblem::small();
            let team = Team::uma(5);
            let (run, _) = p.run_taskgraph(&(&team, OmpSchedule::Guided));
            assert_close(&p.run_serial(), &run);
        }

        #[test]
        fn life_static_matches_serial_exactly() {
            let p = LifeProblem::small();
            let team = Team::uma(4);
            let (run, _) = p.run_taskgraph(&(&team, OmpSchedule::Static));
            assert_eq!(p.run_serial(), run);
        }

        #[test]
        fn pagerank_static_and_guided_match_serial() {
            let pr = PageRank::small();
            let serial = pr.run_serial();
            let team = Team::uma(6);
            for schedule in [OmpSchedule::Static, OmpSchedule::Guided] {
                let (run, _) = pr.run_taskgraph(&(&team, schedule));
                assert_close(&serial, &run);
            }
        }
    }
}
