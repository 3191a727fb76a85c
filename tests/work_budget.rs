//! Work budgets: upper bounds on counts the program's speed depends on.
//!
//! A shared CI runner cannot tell a 10 % wall-clock change from noise, but
//! it counts exactly. Each budget here pins a count at the value the
//! current code reaches, plus stated slack, so a change that loses a
//! measured gain fails `cargo test` on any host.
//!
//! Heap allocations are counted by this binary's global allocator, per
//! thread: a budget reads the count of the thread that ran the measured
//! call, so tests running beside it on other threads cannot add to it.
//! An executor budget adds the count of its pool's one worker thread,
//! read on that thread before and after the run.

use nabbitc::autocolor::{AutoSelect, CandidateOutcome, ColorAssigner, RoundRobin};
use nabbitc::prelude::{
    Color, ColorSet, DynamicExecutor, ExecOptions, NodeId, Pool, PoolConfig, StaticExecutor,
    TaskGraph, TaskSpec,
};
use nabbitc::workloads::pagerank::PageRank;
use nabbitc::workloads::registry;
use nabbitc::workloads::webgraph::{self, WebGraphParams};
use nabbitc::workloads::{BenchId, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The system allocator, counting every allocation and reallocation made
/// on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left; its allocations are
    // nobody's budget.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// is a const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // and `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the heap allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The allocations made so far on the worker thread of `pool`, which has
/// one: read by a job that runs there.
fn worker_allocations(pool: &Pool) -> u64 {
    assert_eq!(pool.workers(), 1, "one worker, so one thread to read");
    let seen = Arc::new(AtomicU64::new(0));
    let out = seen.clone();
    pool.run(ColorSet::all(1), move |_| {
        out.store(ALLOCATIONS.with(Cell::get), Ordering::SeqCst);
    });
    seen.load(Ordering::SeqCst)
}

/// `f`'s result and the heap allocations it made on this thread and on
/// `pool`'s one worker (plus the few of one reading job's tail and head).
fn allocations_with_worker<T>(pool: &Pool, f: impl FnOnce() -> T) -> (T, u64) {
    let worker_before = worker_allocations(pool);
    let (out, here) = allocations(f);
    (out, here + worker_allocations(pool) - worker_before)
}

/// Checks `count` allocations over `nodes` nodes against `budget` per
/// node, and prints the measured value so a CI log keeps its trajectory.
fn per_node_budget(what: &str, count: u64, nodes: usize, budget: f64) {
    let per_node = count as f64 / nodes as f64;
    println!(
        "{what}: {count} allocations for {nodes} nodes, {per_node:.3} per node (budget {budget})"
    );
    assert!(
        per_node <= budget,
        "{what}: {count} allocations for {nodes} nodes: {per_node:.3} per node, budget {budget}"
    );
}

/// Heat's time steps revisit its row blocks, so only the first step's
/// nodes carry an access list, and every list is appended to one array:
/// 44 allocations for 25 600 nodes (0.002 per node: whole-graph arrays
/// and the entry array's growth), against 0.40 per node when each home's
/// list is a heap vector of its own and 2.00 when every node stores a
/// copy.
#[test]
fn heat_graph_allocates_per_block_not_per_node() {
    let (built, count) = allocations(|| registry::build(BenchId::Heat, Scale::Medium, 2));
    per_node_budget("heat Medium build", count, built.graph.node_count(), 0.05);
}

/// The sw-wavefront benchmark input: 25 600 tiles, each its own home,
/// whose lists are appended to one array. 47 allocations (0.002 per
/// node), against 2.00 per node when every tile's list is a heap vector.
#[test]
fn sw_graph_allocates_per_graph_not_per_node() {
    let (built, count) = allocations(|| registry::build(BenchId::Sw, Scale::Paper, 2));
    per_node_budget("sw Paper build", count, built.graph.node_count(), 0.05);
}

/// A coloring layer's derived lists are one array too: stripping the sw
/// input's colors makes 3 allocations for its 25 600 nodes, against 1.00
/// per node with a heap vector per node.
#[test]
fn strip_colors_allocates_per_layer_not_per_node() {
    let mut graph = registry::build(BenchId::Sw, Scale::Paper, 2).graph;
    let ((), count) = allocations(|| graph.strip_colors());
    per_node_budget("sw strip_colors", count, graph.node_count(), 0.01);
}

/// The first read of the sw input's round-robin recoloring builds its
/// edge-traffic-homed lists into one array: 8 allocations for 25 600
/// nodes, against 1.00 per node with a heap vector per node.
#[test]
fn recolored_lists_allocate_per_layer_not_per_node() {
    let graph = registry::build(BenchId::Sw, Scale::Paper, 2).graph;
    let recolored = graph.recolored(&RoundRobin.assign(&graph, 2));
    let (_, count) = allocations(|| recolored.accesses(0).len());
    per_node_budget(
        "sw recolored, first accesses read",
        count,
        graph.node_count(),
        0.01,
    );
}

/// `registry::build(id, Scale::Small, 2)` against `budget` allocations
/// per node.
fn small_build_budget(id: BenchId, budget: f64) {
    let (built, count) = allocations(|| registry::build(id, Scale::Small, 2));
    per_node_budget(
        &format!("{id:?} Small build"),
        count,
        built.graph.node_count(),
        budget,
    );
}

// The other generators that append their lists without a heap vector
// each. Measured: mg 54 allocations for 17 007 nodes (0.003 per node),
// cg 33 for 301 (0.11: its whole-graph arrays are spread over few
// nodes), fdtd 40 for 6400 (0.006), against 1.99, 1.41 and 0.40 per
// node with a heap vector per list. Each budget is more than twice the
// measured value.

#[test]
fn mg_graph_allocates_per_graph_not_per_node() {
    small_build_budget(BenchId::Mg, 0.01);
}

#[test]
fn cg_graph_allocates_per_graph_not_per_node() {
    small_build_budget(BenchId::Cg, 0.25);
}

#[test]
fn fdtd_graph_allocates_per_graph_not_per_node() {
    small_build_budget(BenchId::Fdtd, 0.02);
}

/// The benchmark's web graph (uk-2007-05 at seed 1: 262 500 pages,
/// 3 675 000 links) is drawn into arrays sized before the draw: 7
/// allocations per call (the three power laws' sample tables, the out-
/// and in-offsets, the out-list and the in-list), none per page or link.
#[test]
fn webgraph_allocates_per_call_not_per_vertex_or_edge() {
    let params = WebGraphParams {
        seed: 1,
        ..WebGraphParams::uk2007()
    };
    let (web, count) = allocations(|| webgraph::generate(&params));
    println!(
        "uk-2007 webgraph::generate: {count} allocations for {} vertices and {} edges (budget 7)",
        web.nv,
        web.ne()
    );
    assert!(
        count <= 7,
        "webgraph::generate: {count} allocations, budget 7"
    );
}

/// The benchmark's PageRank input (uk-2007-05 at seed 1, 1050 blocks × 10
/// iterations) repeats each block's task every iteration: 1.51
/// allocations per node, nearly all in the once-per-block dependence
/// summary, against 2.51 when every iteration copies each block's list.
#[test]
fn pagerank_graph_allocates_per_block_not_per_node() {
    let pr = PageRank {
        web: webgraph::generate(&WebGraphParams {
            seed: 1,
            ..WebGraphParams::uk2007()
        }),
        blocks: 1050,
        iters: 10,
    };
    let (graph, count) = allocations(|| pr.task_graph(2));
    per_node_budget(
        "uk-2007 PageRank task_graph",
        count,
        graph.node_count(),
        2.0,
    );
}

/// Selection on the benchmark's `pagerank-auto` input (the PageRank graph
/// above, colors stripped, two workers) partitions its 1050 block homes
/// instead of its 10 500 nodes, and never runs the level-aware member:
/// 78 allocations on the calling thread on a 2-CPU host (0.007 per node;
/// on one CPU the second home member runs here too), against 276 when
/// both node members ran.
#[test]
fn pagerank_selection_allocates_per_selection_not_per_node() {
    let pr = PageRank {
        web: webgraph::generate(&WebGraphParams {
            seed: 1,
            ..WebGraphParams::uk2007()
        }),
        blocks: 1050,
        iters: 10,
    };
    let mut graph = pr.task_graph(2);
    graph.strip_colors();
    let select = AutoSelect::default();
    let ((_, report), count) = allocations(|| select.select(&graph, 2));
    assert_eq!(report.homes, Some(1050));
    let cp = report
        .candidates
        .iter()
        .find(|(name, _)| *name == "cp-level-aware");
    assert_eq!(cp, Some(&("cp-level-aware", CandidateOutcome::Skipped)));
    per_node_budget(
        "pagerank-auto AutoSelect::select, calling thread",
        count,
        graph.node_count(),
        0.01,
    );
}

/// A pre-built graph behind the on-demand protocol, as the benchmark's
/// `heat-fine-ondemand` runs it: a virtual sink depends on every real
/// sink, and `predecessors` copies a node's list into a fresh `Vec`.
struct GraphSpec {
    graph: Arc<TaskGraph>,
    sinks: Vec<NodeId>,
}

const VIRTUAL_SINK: NodeId = NodeId::MAX;

impl TaskSpec for GraphSpec {
    type Key = NodeId;

    fn predecessors(&self, &key: &NodeId) -> Vec<NodeId> {
        if key == VIRTUAL_SINK {
            self.sinks.clone()
        } else {
            self.graph.predecessors(key).to_vec()
        }
    }

    fn color(&self, &key: &NodeId) -> Color {
        self.graph.color(if key == VIRTUAL_SINK {
            self.sinks[0]
        } else {
            key
        })
    }

    fn compute(&self, _: &NodeId, _worker: usize) {}
}

/// The heat benchmark graph, and a 1-worker pool to run it on.
fn heat_on_one_worker() -> (Arc<TaskGraph>, Arc<Pool>) {
    let graph = Arc::new(registry::build(BenchId::Heat, Scale::Medium, 2).graph);
    (graph, Arc::new(Pool::new(PoolConfig::nabbitc(1))))
}

/// On-demand execution of the heat graph (25 601 nodes with the virtual
/// sink), §V-B counting off as in timed benchmark runs: 1.34 allocations
/// per node, of which 0.80 are `GraphSpec::predecessors`' own `Vec`s;
/// 1.54 when every multi-item release boxed its task closure and
/// allocated its spawn batch and one-item halves, 2.34 when every scanned
/// node also boxed its registration slots.
#[test]
fn dynamic_executor_allocates_per_run_not_per_scanned_node() {
    let (graph, pool) = heat_on_one_worker();
    let spec = Arc::new(GraphSpec {
        sinks: graph.sinks(),
        graph: graph.clone(),
    });
    let exec = DynamicExecutor::new(pool.clone(), spec).with_remote_counting(false);
    let (report, count) = allocations_with_worker(&pool, || exec.execute(VIRTUAL_SINK));
    assert_eq!(report.nodes_executed, graph.node_count() as u64 + 1);
    per_node_budget(
        "heat Medium DynamicExecutor::execute, 1 worker",
        count,
        report.nodes_executed as usize,
        1.40,
    );
}

/// Pre-built execution of the same graph: 0.32 allocations per node,
/// mostly the color groups `Batch::gather` builds for multi-node
/// releases; 0.53 when
/// every such release also boxed its task closure and allocated its spawn
/// batch and its one-item halves.
#[test]
fn static_executor_allocates_per_release_not_per_node() {
    let (graph, pool) = heat_on_one_worker();
    let exec = StaticExecutor::new(pool.clone()).with_options(ExecOptions {
        count_remote: false,
        ..ExecOptions::default()
    });
    let (report, count) =
        allocations_with_worker(&pool, || exec.execute(&graph, Arc::new(|_u, _w| {})));
    assert_eq!(report.nodes_executed, graph.node_count() as u64);
    per_node_budget(
        "heat Medium StaticExecutor::execute, 1 worker",
        count,
        graph.node_count(),
        0.35,
    );
}
