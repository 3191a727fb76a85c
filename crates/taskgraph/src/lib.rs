//! Task graph substrate for NabbitC.
//!
//! A NabbitC computation is a directed acyclic graph whose nodes are tasks
//! and whose edges are dependences (§II of the paper). This crate provides:
//!
//! * [`TaskGraph`] — a CSR representation in two parts: an immutable
//!   *structure* (per-node work and *home*, the data block a node works
//!   on; per-home footprints; both adjacencies; the topological order)
//!   that every clone and recoloring of a graph shares,
//!   and a per-graph *coloring layer* — the locality [`Color`] of each
//!   node and the memory-access lists used by the NUMA simulator and the
//!   remote-access accounting. The paper's colors are a hint laid over an
//!   unchanged Nabbit task graph, and so they are here:
//!   [`TaskGraph::recolored`] copies colors, nothing else. Work,
//!   footprints, degrees, [`EdgeTraffic`] and the level profile are
//!   invariant under recoloring; the access lists of a graph whose colors
//!   are its data placement are derived from structure and colors by the
//!   first [`TaskGraph::accesses`] read, not at recoloring time;
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
