//! The forced first steal's patience (`StealPolicy::first_steal_max_declined`)
//! on real threads: what a worker whose color is absent from the sources
//! spends, when it gives up, and that a worker whose color is there spends
//! nothing.
//!
//! Count-based, no wall-clock assertion: every window is a condition (a
//! node held until a counter moved), bounded by `HOLD` so that a scheduler
//! that cannot meet it fails an assertion instead of hanging. A file of
//! its own, so that its forty-odd jobs do not run beside the eight-worker
//! locality test of `policy_behaviour.rs` on a two-core host.

use nabbitc::core::StaticExecutor;
use nabbitc::graph::{generate, serial};
use nabbitc::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HOLD: Duration = Duration::from_secs(5);

/// Yields until `done()` or `HOLD` has passed since `opened`.
fn hold_until(opened: Instant, done: impl Fn() -> bool) {
    while !done() && opened.elapsed() < HOLD {
        std::thread::yield_now();
    }
}

/// `out[u]`: a hash of `u` and of its predecessors' outputs, so a node run
/// early, twice or not at all changes every output downstream of it.
fn fold_node(graph: &TaskGraph, out: &[AtomicU64], u: NodeId) -> u64 {
    graph.predecessors(u).iter().fold(u as u64 + 1, |h, &p| {
        (h ^ out[p as usize].load(Ordering::SeqCst))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
    })
}

fn serial_outputs(graph: &TaskGraph) -> Vec<u64> {
    let out: Vec<AtomicU64> = (0..graph.node_count()).map(|_| AtomicU64::new(0)).collect();
    serial::execute(graph, |u| {
        out[u as usize].store(fold_node(graph, &out, u), Ordering::SeqCst)
    });
    out.iter().map(|o| o.load(Ordering::SeqCst)).collect()
}

/// What one threaded run of a folded graph did.
struct Folded {
    report: RunReport,
    /// Nodes run per worker.
    nodes: Vec<u64>,
    /// The worker that ran the first node to start.
    first_worker: usize,
}

/// Runs `graph` on `pool` with a kernel of a few microseconds that folds
/// each node's predecessors into its output, checks the outputs against
/// the serial walk, and calls `before(node, worker)` ahead of each node.
fn run_folded(
    pool: &Arc<Pool>,
    graph: &Arc<TaskGraph>,
    before: impl Fn(NodeId, usize) + Send + Sync + 'static,
) -> Folded {
    let out: Arc<Vec<AtomicU64>> =
        Arc::new((0..graph.node_count()).map(|_| AtomicU64::new(0)).collect());
    let nodes: Arc<Vec<AtomicU64>> =
        Arc::new((0..pool.workers()).map(|_| AtomicU64::new(0)).collect());
    let first_worker = Arc::new(AtomicUsize::new(usize::MAX));
    let (g, o, n, f) = (
        graph.clone(),
        out.clone(),
        nodes.clone(),
        first_worker.clone(),
    );
    let report = StaticExecutor::new(pool.clone()).execute(
        graph,
        Arc::new(move |u, w| {
            let _ = f.compare_exchange(usize::MAX, w, Ordering::SeqCst, Ordering::SeqCst);
            before(u, w);
            let spun = Instant::now();
            while spun.elapsed() < Duration::from_micros(3) {
                std::hint::spin_loop();
            }
            n[w].fetch_add(1, Ordering::SeqCst);
            o[u as usize].store(fold_node(&g, &o, u), Ordering::SeqCst);
        }),
    );
    let got: Vec<u64> = out.iter().map(|o| o.load(Ordering::SeqCst)).collect();
    assert!(
        got == serial_outputs(graph),
        "outputs differ from the serial walk"
    );
    Folded {
        report,
        nodes: nodes.iter().map(|n| n.load(Ordering::SeqCst)).collect(),
        first_worker: first_worker.load(Ordering::SeqCst),
    }
}

#[test]
fn wavefront_first_steal_spends_its_patience_on_declined_work_only() {
    // A 48 x 48 wavefront in two row blocks: the single source and the
    // first 24 anti-diagonals are of the top block's color, so the other
    // worker's forced first colored steal has nothing to succeed on for
    // the first quarter of the job — the premise "one node of each color
    // connected to the root" does not hold (NL010).
    const SIDE: usize = 48;
    let top_is = |color: u16| {
        let mut g = generate::wavefront(SIDE, SIDE, 1, 2);
        g.recolor(|_, c| Color(c.0 ^ color));
        Arc::new(g)
    };

    // Default policy. Whether or not the job outlives the patience, no
    // worker declines more than the bound — the guard on the default,
    // which nothing else in the suite reads — and a worker escaped exactly
    // if it spent all of it.
    let bound = StealPolicy::nabbitc().first_steal_max_declined;
    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(2)));
    for round in 0..4 {
        let run = run_folded(&pool, &top_is(round % 2), |_, _| {});
        assert_eq!(run.nodes.iter().sum::<u64>(), (SIDE * SIDE) as u64);
        for w in &run.report.stats.workers {
            assert!(w.first_steal_declined <= bound && w.first_steal_escapes <= 1);
            assert!(w.first_steal_declined <= w.first_steal_checks);
            assert_eq!(w.first_steal_escapes == 1, w.first_steal_declined == bound);
        }
    }

    // An explicit small bound. In a round whose source ran on the worker
    // of the top color, the other one cannot have work before it escapes:
    // it declines exactly `SMALL` probes, gives up forcing once, and then
    // helps. Which worker takes the root is the pool's business, so the
    // colors swap every round and a round of the other kind checks the
    // bounds only. The window is a condition: the top worker, alone so
    // far, is in row 22 with row 23's first node on its deque (top
    // colored, pushed when row 22's first node finished) and waits there
    // until the other has escaped — or, with nothing of the bottom color
    // ready before row 23 is done, a late riser would find its color
    // after all.
    const SMALL: u64 = 256;
    const GATE: NodeId = (22 * SIDE + 1) as NodeId;
    let mut policy = StealPolicy::nabbitc();
    policy.first_steal_max_declined = SMALL;
    let pool = Arc::new(Pool::new(
        PoolConfig::nabbitc(2).with_policy(policy.clone()),
    ));
    let mut escaped_from_the_start = 0;
    for round in 0..40 {
        let top = round % 2;
        let (gate_pool, opened) = (pool.clone(), Instant::now());
        let run = run_folded(&pool, &top_is(top as u16), move |u, w| {
            if u == GATE && w == top {
                hold_until(opened, || {
                    gate_pool.stats().workers[1 - top].first_steal_escapes > 0
                });
            }
        });
        for w in &run.report.stats.workers {
            assert!(w.first_steal_declined <= SMALL && w.first_steal_escapes <= 1);
            assert_eq!(w.first_steal_escapes == 1, w.first_steal_declined == SMALL);
        }
        if run.first_worker == top {
            let other = &run.report.stats.workers[1 - top];
            assert_eq!(other.first_steal_escapes, 1, "round {round}: {other:?}");
            assert_eq!(other.first_steal_declined, SMALL);
            assert!(other.first_steal_checks >= SMALL);
            assert!(run.nodes[1 - top] > 0, "the escaped worker ran nothing");
            escaped_from_the_start += 1;
        }
    }
    assert!(
        escaped_from_the_start > 0,
        "in 40 rounds the source never ran on the worker of its own color"
    );

    // Both colors at the source level (an iterated stencil in two blocks)
    // under the same small bound: the worker that did not take the root
    // finds the continuation of its own color on top of the root's deque —
    // nothing declined, nothing escaped. No node finishes until both
    // workers have started one, so its steal is the job's first. (The root
    // worker's own first steal comes when its color has run dry, late in
    // the job; that one may run out of patience and is not asserted on.)
    let stencil = Arc::new(generate::iterated_stencil(6, 64, 1, 2));
    for round in 0..10 {
        let started: Arc<Vec<AtomicU64>> = Arc::new((0..2).map(|_| AtomicU64::new(0)).collect());
        let opened = Instant::now();
        let run = run_folded(&pool, &stencil, move |_, w| {
            started[w].store(1, Ordering::SeqCst);
            hold_until(opened, || started[1 - w].load(Ordering::SeqCst) == 1);
        });
        let thief = &run.report.stats.workers[1 - run.first_worker];
        assert_eq!(thief.first_steal_escapes, 0, "round {round}: {thief:?}");
        assert_eq!(thief.first_steal_declined, 0, "round {round}: {thief:?}");
        assert!(thief.colored_steals >= 1, "round {round}: {thief:?}");
    }
}
