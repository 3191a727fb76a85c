//! # NabbitC — locality-aware dynamic task graph scheduling
//!
//! A Rust reproduction of *Locality-Aware Dynamic Task Graph Scheduling*
//! (Maglalang, Krishnamoorthy, Agrawal — ICPP 2017): the **NabbitC**
//! scheduler, which extends the Nabbit dynamic task-graph executor with
//! user-supplied locality *colors* so that NUMA workers preferentially
//! execute tasks whose data is local — without giving up the provable load
//! balance of randomized work stealing.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`color`] | `nabbitc-color` | [`Color`](color::Color), constant-time [`ColorSet`](color::ColorSet) |
//! | [`cost`] | `nabbitc-cost` | the [`CostModel`](cost::CostModel) every layer prices schedules with — simulator, estimator, autocolor objectives — and [`Topology`](cost::Topology), the one machine description |
//! | [`graph`] | `nabbitc-graph` | task graphs, generators, work/span + edge-cut analysis, trace validation |
//! | [`autocolor`] | `nabbitc-autocolor` | automatic coloring: [`ColorAssigner`](autocolor::ColorAssigner) strategies from round-robin to recursive bisection, the [`AutoSelect`](autocolor::AutoSelect) meta-assigner that picks the best strategy per graph |
//! | [`runtime`] | `nabbitc-runtime` | colored Chase–Lev deques, the worker pool, steal policies, the OpenMP loop schedules |
//! | [`core`] | `nabbitc-core` | Nabbit/NabbitC executors (one `compute_and_notify` core, two node stores), morphing-continuation spawning, §V-B metrics |
//! | [`parfor`] | `nabbitc-parfor` | the OpenMP static/guided baselines on real threads: a pinned team running a task graph's hop-count levels as barrier-closed loops |
//! | [`lint`] | `nabbitc-lint` | the graph/schedule linter ([`lint_graph`](lint::lint_graph), `NL0xx` codes) — e.g. over the graph `execute_auto` returns — and the workspace atomics audit |
//! | [`numasim`] | `nabbitc-numasim` | deterministic 8×10-core NUMA simulator (regenerates the paper's figures) |
//! | [`workloads`] | `nabbitc-workloads` | the Table I benchmark suite, runnable + simulated, with uncolored variants for autocolor; each runnable kernel runs under either [`GraphRunner`](workloads::GraphRunner) |
//!
//! ## Quickstart
//!
//! ```
//! use nabbitc::prelude::*;
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! // A diamond task graph, colored across two workers.
//! let mut b = GraphBuilder::new();
//! let src = b.add_simple_node(10, Color(0), 64);
//! let left = b.add_simple_node(10, Color(0), 64);
//! let right = b.add_simple_node(10, Color(1), 64);
//! let sink = b.add_simple_node(10, Color(1), 64);
//! b.add_edge(src, left);
//! b.add_edge(src, right);
//! b.add_edge(left, sink);
//! b.add_edge(right, sink);
//! let graph = Arc::new(b.build().unwrap());
//!
//! // Execute under the NabbitC policy (colored steals on).
//! let pool = Arc::new(Pool::new(PoolConfig::nabbitc(2)));
//! let exec = StaticExecutor::new(pool);
//! let done = Arc::new(AtomicU64::new(0));
//! let d = done.clone();
//! exec.execute(&graph, Arc::new(move |_node, _worker| {
//!     d.fetch_add(1, Ordering::SeqCst);
//! }));
//! assert_eq!(done.load(Ordering::SeqCst), 4);
//! ```
//!
//! ### No colors? Infer them
//!
//! When nobody hand-colored the graph, let the autocolor subsystem do it.
//! The **default path** is `execute_auto`: the
//! [`AutoSelect`](autocolor::AutoSelect) meta-assigner runs its
//! two-member portfolio — edge-cut bisection and level-aware
//! partitioning, on no more threads than the machine has CPUs — scores
//! both assignments with the makespan estimator for this pool's worker
//! count, applies the winner (bisection on stencils, level-aware on
//! wavefronts — no single objective wins both), and re-homes the data
//! accordingly. On a graph whose time steps share data blocks (PageRank,
//! the stencils) it partitions the blocks first and colors each node by
//! its block, as the paper colors PageRank; the node path then runs
//! only if that coloring is more than 5 % unbalanced. The returned report's
//! [`selection`](core::RunReport::selection) field is the
//! [`SelectionReport`](autocolor::SelectionReport) saying which candidate
//! won, what each one scored, and what the selection cost.
//!
//! ```
//! use nabbitc::prelude::*;
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! // An uncolored 100-node stencil (every node Color(0)).
//! let graph = Arc::new(nabbitc::graph::generate::iterated_stencil(10, 10, 1, 1));
//!
//! let pool = Arc::new(Pool::new(PoolConfig::nabbitc(2)));
//! let exec = StaticExecutor::new(pool);
//! let done = Arc::new(AtomicU64::new(0));
//! let d = done.clone();
//! let (report, recolored) = exec.execute_auto(
//!     &graph,
//!     Arc::new(move |_node, _worker| {
//!         d.fetch_add(1, Ordering::SeqCst);
//!     }),
//! );
//! assert_eq!(done.load(Ordering::SeqCst), 100);
//! // Both workers received a share of the inferred coloring.
//! assert!(recolored.nodes().any(|u| recolored.color(u) != recolored.color(0)));
//! let selection = report.selection.as_ref().unwrap();
//! println!("selected strategy: {}", selection.chosen_name());
//! ```
//!
//! To pin one strategy instead (as the benches do when sweeping), color
//! the graph yourself and run it with `execute` — e.g.
//! `exec.execute(&Arc::new(autocolor(&graph, &RecursiveBisection::default(), 2)), kernel)`
//! for pure edge-cut minimization
//! ([`autocolor`](autocolor::autocolor),
//! [`RecursiveBisection`](autocolor::RecursiveBisection)).
//!
//! ### The cost model
//!
//! Everything that *prices* a schedule — the NUMA simulator, the
//! makespan estimator in [`graph::analysis`], and the `AutoSelect`
//! scoring above — consumes the same [`CostModel`](cost::CostModel) from
//! `nabbitc-cost`. A node costs `node_overhead + work·work_tick +
//! bytes·(local_byte or remote_byte)` ticks; a cross-color dependence
//! edge costs its **byte traffic**
//! ([`EdgeTraffic`](graph::EdgeTraffic), the producer's output split
//! among its consumers — one per-node view every edge walk shares) at the
//! remote-vs-local
//! byte premium ([`CostModel::remote_excess`](cost::CostModel::remote_excess))
//! on the consumer's execution, plus one steal hand-off
//! ([`CostModel::cross_edge_latency`](cost::CostModel::cross_edge_latency))
//! on its ready time. Because the bandwidth term scales with the bytes an
//! edge actually moves, `AutoSelect` needs no hand-calibrated cross
//! penalty: memory-bound stencils (where remote bandwidth dominates) and
//! latency-bound wavefronts (where pipeline serialization dominates) rank
//! correctly under the same model.
//!
//! Whether a cut edge's bytes are *remote* is a property of the machine,
//! and there is one description of it: [`Topology`](cost::Topology)
//! (the paper's 8-NUMA-domain × 10-worker Xeon is
//! `Topology::paper_machine().truncated(p)`). Two colors in the same
//! domain exchange bytes at **local** bandwidth, and only cross-domain
//! edges pay the premium. The one makespan estimator,
//! [`estimate_makespan_colored_strict_on`](graph::analysis::estimate_makespan_colored_strict_on),
//! takes the topology and prices exactly what the simulator and the
//! executor's §V-B counters charge through
//! [`ColorDomains::is_remote`](runtime::ColorDomains) — the color-typed
//! questions are an extension trait in `nabbitc-runtime`, because
//! `nabbitc-cost` does not know about colors; a coloring that names a
//! color no worker owns is an error, not a score.
//! `AutoSelect::with_topology` scores with it and domain-packs the
//! winner (`autocolor::pack_domains`). Without a topology, every worker
//! is its own domain ([`Topology::per_worker`](cost::Topology::per_worker))
//! — the conservative default.
//!
//! ```
//! use nabbitc::cost::{CostModel, Topology};
//!
//! // The default machine: remote DRAM 3x local.
//! let cost = CostModel::default();
//! assert_eq!(cost.remote_ratio(), 3.0);
//! // Ablation knob — validated: NaN/negative/zero terms panic.
//! let heavy = CostModel::default().with_remote_ratio(8.0);
//! assert_eq!(heavy.remote_excess(100), 700); // (8 - 1) x 100 bytes
//! // Domain awareness: workers 0 and 9 share the paper machine's first
//! // domain, so a cut edge between them moves bytes at local bandwidth.
//! let topo = Topology::paper_machine();
//! assert_eq!(heavy.cut_excess(&topo, 0, 9, 100), 0);
//! assert_eq!(heavy.cut_excess(&topo, 9, 10, 100), 700);
//! ```
//!
//! Consumers take the model explicitly:
//! `estimate_makespan_colored_strict_on(&g, &colors, workers, &cost,
//! &topo)`, `WsConfig { cost, topology, .. }` for the simulator,
//! `AutoSelect::default().with_cost_model(cost).with_topology(topo)` (or
//! `ExecOptions { cost, topology, .. }` through `execute_auto`).
//!
//! ## Observability
//!
//! Every executor run — [`StaticExecutor`](core::StaticExecutor)'s
//! `execute*` and [`DynamicExecutor::execute`](core::DynamicExecutor::execute)
//! alike — returns one [`RunReport`](core::RunReport): execution
//! wall-clock (`elapsed`), nodes executed (`nodes_executed`), coloring
//! wall-clock
//! (`coloring_elapsed`, `execute_auto` only), the §V-B remote-access
//! percentages (`remote`), per-worker scheduler counters (`stats`), the
//! per-node execution trace (`trace`, behind
//! [`ExecOptions::record_trace`](core::ExecOptions)), the runtime event
//! trace (`runtime_trace`, see below), and the autocolor
//! [`SelectionReport`](autocolor::SelectionReport) (`selection`,
//! `execute_auto` only). Both executors are one `compute_and_notify`
//! loop over two node stores (see [`core`]'s module map), and both make
//! their report from a single
//! [`Pool::run_measured`](runtime::Pool::run_measured) call — counters
//! and rings reset, job run, both snapshotted under the pool's run guard
//! — so a report describes its own run even when several threads execute
//! on one pool.
//!
//! **Event tracing.** Build the pool with
//! [`TraceConfig`](runtime::TraceConfig) enabled and every worker records
//! timestamped spawn / exec-begin / exec-end / steal-success /
//! idle-enter / idle-exit events into a fixed-capacity lock-free ring —
//! a steal search is one span, its idle-exit carrying the episode's
//! attempt and declined counts — (drop-oldest, no allocation on the hot
//! path; with
//! tracing off — the default — the pool allocates no rings and each
//! record site is one branch). Snapshots
//! ([`Pool::trace_snapshot`](runtime::Pool::trace_snapshot)) aggregate
//! into per-worker summaries
//! ([`RuntimeTrace::summaries`](runtime::RuntimeTrace::summaries)) and
//! export as Chrome `trace_event` JSON
//! ([`RuntimeTrace::chrome_trace_json`](runtime::RuntimeTrace::chrome_trace_json))
//! loadable in `chrome://tracing` or Perfetto.
//!
//! ```
//! use nabbitc::prelude::*;
//! use std::sync::Arc;
//!
//! let pool = Arc::new(Pool::new(
//!     PoolConfig::nabbitc(2).with_trace(TraceConfig::enabled()),
//! ));
//! let exec = StaticExecutor::new(pool);
//! let graph = Arc::new(nabbitc::graph::generate::wavefront(8, 8, 1, 2));
//! let report = exec.execute(&graph, Arc::new(|_node, _worker| {}));
//! let trace = report.runtime_trace.unwrap();
//! // Execs count scheduler *tasks*, not graph nodes: the executor runs
//! // chains of single-ready successors inside one task, so a 64-node
//! // wavefront is anywhere from 1 task (pure chaining) to 65 (root +
//! // one task per node), depending on how stealing went.
//! let execs: u64 = trace.summaries().iter().map(|s| s.execs).sum();
//! assert!((1..=65).contains(&execs));
//! assert!(trace.total_recorded() >= 2 * execs); // begin + end per task
//! let chrome_json = trace.chrome_trace_json(); // chrome://tracing-loadable
//! assert!(chrome_json.starts_with("{\"traceEvents\":["));
//! ```
//!
//! **Speed is measured in one place.** The standalone `benchmark/`
//! package (`cargo run --release --manifest-path benchmark/Cargo.toml --
//! --all`) runs the real executors on real threads over five workloads,
//! verifies every output, records the host, and prints measured speedup
//! over the serial walk, the NUMA simulator's prediction
//! (`numasim.pred_over_measured`) and a per-layer budget by metric name;
//! `BENCHMARK.json` is its machine-readable summary and
//! `benchmark/README.md` the long form. The `nabbitc-bench` bins
//! regenerate the paper's figures and tables on the simulated machine.

pub use nabbitc_autocolor as autocolor;
pub use nabbitc_color as color;
pub use nabbitc_core as core;
pub use nabbitc_cost as cost;
pub use nabbitc_graph as graph;
pub use nabbitc_lint as lint;
pub use nabbitc_numasim as numasim;
pub use nabbitc_parfor as parfor;
pub use nabbitc_runtime as runtime;
pub use nabbitc_workloads as workloads;

/// The commonly-used surface in one import.
pub mod prelude {
    pub use nabbitc_autocolor::{
        autocolor, AutoSelect, BfsLocality, BlockContiguous, ColorAssigner, CpLevelAware,
        RecursiveBisection, RoundRobin, SelectionReport,
    };
    pub use nabbitc_color::{Color, ColorSet};
    pub use nabbitc_core::{
        ColoringMode, DynamicExecutor, ExecOptions, RunReport, StaticExecutor, TaskSpec,
    };
    pub use nabbitc_cost::Topology;
    pub use nabbitc_graph::{GraphBuilder, NodeAccess, NodeId, TaskGraph};
    pub use nabbitc_numasim::{simulate_omp, simulate_ws, CostModel, SimResult, WsConfig};
    pub use nabbitc_parfor::Team;
    pub use nabbitc_runtime::{
        ColorDomains, OmpSchedule, Pool, PoolConfig, RuntimeTrace, StealPolicy, TraceConfig,
    };
}
