//! Colored work-stealing runtime — the Cilk Plus substitute for NabbitC.
//!
//! The paper modifies the GCC Cilk Plus runtime in two ways (§III):
//!
//! 1. a **color deque** rides alongside each worker's work deque so that
//!    every stealable continuation is tagged with the set of colors of the
//!    task-graph nodes reachable through it (`cilkrts_set_next_colors`), and
//! 2. the steal path gains **colored steals**: an idle worker makes a
//!    constant number of steal attempts that succeed only if the
//!    continuation on top of the victim's deque contains the thief's color,
//!    then falls back to an ordinary random steal. Additionally the *first*
//!    steal each worker performs in a computation is forced to be a
//!    successful colored steal.
//!
//! This crate reproduces that machinery natively: [`deque::ColoredDeque`]
//! is a Chase–Lev work-stealing deque whose entries carry a
//! [`ColorSet`](nabbitc_color::ColorSet) and whose steal operation takes the
//! thief's color as a predicate checked *before* the claiming CAS — the same
//! constant-time boolean-array check the paper implements, with one less
//! data structure to keep in sync. [`pool::Pool`] runs the worker loop with
//! the paper's exact policy, parameterized by [`policy::StealPolicy`] and
//! stated once, as [`policy::Thief`], which the `numasim` simulator drives
//! too; the morphing continuation's split (Fig. 3) is stated once the same
//! way, as [`morph::Batch`], and so are the OpenMP baselines' loop
//! schedules, as [`schedule::OmpSchedule`].
//!
//! Tasks are heap-allocated closures (child stealing). A spawned batch that
//! Cilk would express as "spawn the preferred half, leave the rest in the
//! continuation" becomes "push the rest (tagged with its colors), then
//! process the preferred half" — the pushed entry sits at the *steal end*
//! of the deque exactly like the Cilk continuation would.

mod arena;
pub mod deque;
pub mod injector;
pub mod morph;
pub mod policy;
pub mod pool;
pub mod rng;
pub mod schedule;
pub mod stats;
pub mod sync;
pub mod task;
pub mod topology;
pub mod trace;

pub use deque::{ColoredDeque, Steal};
pub use injector::Injector;
pub use nabbitc_cost::Topology;
pub use policy::StealPolicy;
pub use pool::{JobReport, Pool, PoolConfig, SpawnBatch, WorkerContext};
pub use schedule::OmpSchedule;
pub use stats::{PoolStats, WorkerStatsSnapshot};
pub use task::Task;
// The name `benchmark/` uses for `Topology`; goes when that package is next edited.
pub use nabbitc_cost::Topology as NumaTopology;
pub use topology::{ColorDomains, NodeCount};
pub use trace::{
    RuntimeTrace, TraceConfig, TraceEventKind, TraceRecord, WorkerTrace, WorkerTraceSummary,
};
