//! Task graph substrate for NabbitC.
//!
//! A NabbitC computation is a directed acyclic graph whose nodes are tasks
//! and whose edges are dependences (§II of the paper). This crate provides:
//!
//! * [`TaskGraph`] — an immutable CSR representation with per-node work,
//!   locality [`Color`], and a memory-access footprint used by the NUMA
//!   simulator and the remote-access accounting;
//! * [`GraphBuilder`] — a mutable builder with cycle detection;
//! * [`EdgeTraffic`] — the per-node view of the edge-traffic model (bytes
//!   a dependence edge moves), the one definition every cost consumer
//!   prices edges through;
//! * [`analysis`] — exact work `T1`, span `T∞`, longest path node count `M`,
//!   and maximum degree `d`, the quantities in the paper's Theorem 1;
//! * [`generate`] — seeded generators (chains, diamonds, layered random
//!   DAGs, wavefronts, trees) used by tests and benchmarks;
//! * [`serial`] — a reference sequential executor;
//! * [`trace`] — execution trace recording and dependence validation used to
//!   check every scheduler in this workspace against the DAG semantics.
//!
//! [`Color`]: nabbitc_color::Color

pub mod analysis;
pub mod generate;
mod graph;
pub mod serial;
pub mod trace;

pub use graph::{EdgeTraffic, GraphBuilder, GraphError, NodeAccess, NodeId, TaskGraph};
