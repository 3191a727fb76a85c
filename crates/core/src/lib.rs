//! Nabbit and NabbitC task-graph executors — the paper's primary
//! contribution.
//!
//! There is one scheduler routine — Nabbit's `compute_and_notify`
//! (Agrawal, Leiserson & Sukha, IPDPS'10, Fig. 4) — and it lives in the
//! private `exec` module: the loop over a ready node (§V-B counting, the
//! node's body, successor release through the join counter,
//! chain-following, the hand-off to `spawn_colors`), the state of one
//! run, and the one job boundary that turns a pool job into a
//! [`RunReport`]. What holds the nodes is a `NodeStore`, and the two
//! executors are its two implementations:
//!
//! * [`static_exec::StaticExecutor`] executes a pre-built
//!   [`TaskGraph`](nabbitc_graph::TaskGraph) — the path the paper's
//!   benchmarks exercise (their task graphs are fully determined by the
//!   problem configuration). `static_exec` owns the *dense* store: one
//!   [`JoinCounter`] per node, armed with its in-degree up front, the
//!   graph's own successor lists, the optional per-node trace; plus the
//!   options ([`ExecOptions`]).
//! * [`dynamic`] provides the full on-demand Nabbit protocol: the
//!   computation is *specified* by a sink key plus a predecessor function
//!   ([`TaskSpec`]); nodes are created lazily as they are discovered,
//!   racing threads arbitrate creation through a concurrent node table
//!   laid out by color (the private `store` module), and late arrivals
//!   enqueue themselves on a predecessor's lock-free successor list (the
//!   `try_init_compute` path of the paper's Figure 4). `dynamic` owns
//!   discovery — `init_node`: the predecessor scan, the init bias,
//!   registration — in front of the shared loop.
//! * [`join`] holds what both decrement: the [`JoinCounter`] (armed by a
//!   scan on the on-demand path, at construction on the pre-built one)
//!   and the on-demand path's [`SuccessorList`].
//!
//! Both executors route every batch spawn through [`spawn::spawn_colors`],
//! the *morphing continuation* of §III: the runtime's
//! [`Batch`](nabbitc_runtime::morph::Batch) splits a batch by color so the
//! spawning worker dives into its own color's sub-batch, and [`spawn`]
//! publishes the other halves as tasks tagged with exactly their colors.
//!
//! [`metrics`] implements the paper's §V-B node-granularity remote-access
//! accounting; [`coloring`] the Correct / Bad (Table II) / Invalid
//! (Table III) coloring strategies; [`auto`] is the one hook into the
//! `nabbitc-autocolor` subsystem,
//! [`execute_auto`](StaticExecutor::execute_auto), so graphs without
//! hand-written colors still schedule locality-aware.

pub mod auto;
pub mod coloring;
pub mod dynamic;
mod exec;
pub mod join;
pub mod metrics;
pub mod report;
pub mod spawn;
pub mod static_exec;
mod store;

pub use coloring::ColoringMode;
pub use dynamic::{DynamicExecutor, TaskSpec};
pub use join::{JoinCounter, Link, SuccessorList};
pub use metrics::{RemoteAccessReport, RemoteCounters};
pub use report::RunReport;
pub use static_exec::{ExecOptions, LintGate, StaticExecutor};
