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
//! by the examples and integration tests.

pub mod cg;
pub mod fdtd;
#[cfg(test)]
mod fnv;
pub mod heat;
pub mod life;
pub mod mg;
pub mod omp;
pub mod pagerank;
pub mod registry;
pub mod stencil;
pub mod sw;
pub mod util;
pub mod webgraph;

pub use registry::{BenchId, Built, Scale};
