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

use nabbitc::workloads::pagerank::PageRank;
use nabbitc::workloads::registry;
use nabbitc::workloads::webgraph::{self, WebGraphParams};
use nabbitc::workloads::{BenchId, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Heat's time steps revisit its row blocks, so only the first step's
/// nodes carry an access list of their own: 0.40 allocations per node
/// (two per first-step node, for its list and the list's growth),
/// against 2.00 when every node stores its own copy.
#[test]
fn heat_graph_allocates_per_block_not_per_node() {
    let (built, count) = allocations(|| registry::build(BenchId::Heat, Scale::Medium, 2));
    let nodes = built.graph.node_count();
    let per_node = count as f64 / nodes as f64;
    assert!(
        per_node <= 0.5,
        "{count} allocations for {nodes} nodes: {per_node:.2} per node, budget 0.5"
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
    let nodes = graph.node_count();
    let per_node = count as f64 / nodes as f64;
    assert!(
        per_node <= 2.0,
        "{count} allocations for {nodes} nodes: {per_node:.2} per node, budget 2.0"
    );
}
