//! Scheduler-policy behaviour across crates: colored steals improve the
//! §V-B locality metric, bad/invalid colorings stay *correct* (they only
//! lose the locality benefit — Tables II/III), and the simulator agrees
//! with the threaded runtime on the qualitative ordering.

use nabbitc::core::coloring::{apply_coloring, ColoringMode};
use nabbitc::core::StaticExecutor;
use nabbitc::prelude::*;
use nabbitc::workloads::{registry, BenchId, Scale};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn run_counted(graph: Arc<TaskGraph>, policy: StealPolicy, workers: usize) -> f64 {
    let topo = Topology::new(2, workers.div_ceil(2).max(1));
    let pool = Arc::new(Pool::new(
        PoolConfig::nabbitc(workers)
            .with_topology(topo)
            .with_policy(policy),
    ));
    let exec = StaticExecutor::new(pool);
    let counts: Arc<Vec<AtomicU32>> =
        Arc::new((0..graph.node_count()).map(|_| AtomicU32::new(0)).collect());
    let c2 = counts.clone();
    let report = exec.execute(
        &graph,
        Arc::new(move |u, _w| {
            c2[u as usize].fetch_add(1, Ordering::SeqCst);
        }),
    );
    assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    report.remote.pct_remote()
}

#[test]
fn bad_and_invalid_colorings_still_execute_correctly() {
    // Tables II/III: adversarial colorings change performance, never
    // correctness.
    let workers = 6;
    let topo = Topology::new(2, 3);
    for mode in [ColoringMode::Bad, ColoringMode::Invalid] {
        let mut built = registry::build(BenchId::Heat, Scale::Small, workers);
        apply_coloring(&mut built.graph, mode, &topo, workers);
        let mut policy = StealPolicy::nabbitc();
        policy.first_steal_max_declined = 10_000; // keep the test quick
        run_counted(Arc::new(built.graph), policy, workers);
    }
}

#[test]
fn simulator_remote_ordering_nabbitc_vs_nabbit() {
    // Fig. 7's core claim on the simulator, across several benchmarks.
    for id in [
        BenchId::Heat,
        BenchId::Life,
        BenchId::Fdtd,
        BenchId::PageUk2002,
    ] {
        let p = 40;
        let built = registry::build(id, Scale::Small, p);
        let nc = simulate_ws(&built.graph, &WsConfig::nabbitc(p));
        let nb = simulate_ws(&built.graph, &WsConfig::nabbit(p));
        assert!(
            nc.remote.pct() < nb.remote.pct(),
            "{}: NabbitC {:.1}% !< Nabbit {:.1}%",
            id.name(),
            nc.remote.pct(),
            nb.remote.pct()
        );
    }
}

#[test]
fn simulator_invalid_coloring_behaves_like_nabbit() {
    // Table III: invalid colors make every colored steal fail; performance
    // must be within noise of vanilla Nabbit.
    let p = 40;
    let topo = Topology::paper_machine().truncated(p);
    let mut built = registry::build(BenchId::Heat, Scale::Small, p);
    let nb = simulate_ws(&built.graph, &WsConfig::nabbit(p));
    apply_coloring(&mut built.graph, ColoringMode::Invalid, &topo, p);
    let mut cfg = WsConfig::nabbitc(p);
    cfg.policy.first_steal_max_declined = 100;
    let inv = simulate_ws(&built.graph, &cfg);
    let ratio = nb.makespan as f64 / inv.makespan as f64;
    assert!(
        (0.7..=1.3).contains(&ratio),
        "invalid coloring should track Nabbit: ratio {ratio}"
    );
}

#[test]
fn simulator_bad_coloring_no_better_than_correct() {
    let p = 40;
    let topo = Topology::paper_machine().truncated(p);
    let correct = registry::build(BenchId::Heat, Scale::Small, p);
    let good = simulate_ws(&correct.graph, &WsConfig::nabbitc(p));
    let mut bad_graph = correct.graph.clone();
    apply_coloring(&mut bad_graph, ColoringMode::Bad, &topo, p);
    let bad = simulate_ws(&bad_graph, &WsConfig::nabbitc(p));
    assert!(
        bad.makespan >= good.makespan,
        "bad coloring cannot beat correct coloring: {} < {}",
        bad.makespan,
        good.makespan
    );
    assert!(
        bad.remote.pct() > good.remote.pct(),
        "bad coloring must increase remote accesses"
    );
}

#[test]
fn threaded_runtime_locality_ordering_on_stencil() {
    // The real pool: NabbitC's remote-access metric should not exceed
    // Nabbit's on a regular block-colored stencil (averaged over runs to
    // damp scheduling noise).
    let workers = 8;
    let built = registry::build(BenchId::Heat, Scale::Small, workers);
    let graph = Arc::new(built.graph);
    let avg = |policy: StealPolicy| -> f64 {
        let runs = 5;
        (0..runs)
            .map(|_| run_counted(graph.clone(), policy.clone(), workers))
            .sum::<f64>()
            / runs as f64
    };
    let nc = avg(StealPolicy::nabbitc());
    let nb = avg(StealPolicy::nabbit());
    assert!(
        nc <= nb + 5.0,
        "NabbitC remote {nc:.1}% should not exceed Nabbit {nb:.1}% (+5pp slack)"
    );
}

#[test]
fn omp_static_dominates_on_regular_simulated() {
    // Fig. 6 regular panels: omp-static is the bar to clear.
    let p = 40;
    let built = registry::build(BenchId::Life, Scale::Small, p);
    let topo = Topology::paper_machine().truncated(p);
    let cost = CostModel::default();
    let os = simulate_omp(&built.graph, OmpSchedule::Static, p, &topo, &cost);
    let nc = simulate_ws(&built.graph, &WsConfig::nabbitc(p));
    let nb = simulate_ws(&built.graph, &WsConfig::nabbit(p));
    assert!(
        os.makespan <= nc.makespan,
        "omp-static should win on regular"
    );
    assert!(
        nc.makespan < nb.makespan,
        "NabbitC {} should beat Nabbit {} on regular",
        nc.makespan,
        nb.makespan
    );
}

#[test]
fn nabbitc_wins_on_irregular_simulated() {
    // Fig. 6 page panels: NabbitC beats omp-static (imbalance), omp-guided
    // (locality), and Nabbit (locality) at scale. Medium scale gives the
    // paper-like blocks-per-core ratio (~3 at 80 cores); Small degenerates
    // to one block per core, where there is nothing for locality to win.
    let p = 80;
    let built = registry::build(BenchId::PageUk2007, Scale::Medium, p);
    let topo = Topology::paper_machine().truncated(p);
    let cost = CostModel::default();
    let os = simulate_omp(&built.graph, OmpSchedule::Static, p, &topo, &cost);
    let og = simulate_omp(&built.graph, OmpSchedule::Guided, p, &topo, &cost);
    let avg = |nabbit: bool| -> f64 {
        (0..3)
            .map(|seed| {
                let mut cfg = if nabbit {
                    WsConfig::nabbit(p)
                } else {
                    WsConfig::nabbitc(p)
                };
                cfg.seed = 0x11 + seed;
                simulate_ws(&built.graph, &cfg).makespan as f64
            })
            .sum::<f64>()
            / 3.0
    };
    let nb = avg(true);
    let nc = avg(false);
    assert!(nc < nb, "NabbitC {nc} !< Nabbit {nb}");
    assert!(
        nc < os.makespan.max(og.makespan) as f64,
        "NabbitC {} should beat at least the worse OpenMP ({} / {})",
        nc,
        os.makespan,
        og.makespan
    );
}

#[test]
fn fig8_fewer_steals_with_colored_policy() {
    let p = 40;
    let built = registry::build(BenchId::Fdtd, Scale::Small, p);
    let nc = simulate_ws(&built.graph, &WsConfig::nabbitc(p));
    let nb = simulate_ws(&built.graph, &WsConfig::nabbit(p));
    assert!(
        nc.avg_successful_steals() < nb.avg_successful_steals(),
        "NabbitC {} steals !< Nabbit {}",
        nc.avg_successful_steals(),
        nb.avg_successful_steals()
    );
}

#[test]
fn fig9_first_steal_wait_grows_with_cores() {
    // Averaged over seeds: individual runs can have large outliers when a
    // color's work stays buried below deque tops (the paper's Fig. 9 error
    // bars are similarly wide).
    let avg = |p: usize| -> f64 {
        let built = registry::build(BenchId::Heat, Scale::Small, p);
        (0..5)
            .map(|seed| {
                let mut cfg = WsConfig::nabbitc(p);
                cfg.seed = 0x9e37 + seed;
                simulate_ws(&built.graph, &cfg).avg_first_work()
            })
            .sum::<f64>()
            / 5.0
    };
    let w10 = avg(10);
    let w80 = avg(80);
    assert!(
        w80 > w10,
        "first-work wait should grow with core count: {w80} !> {w10}"
    );
}

#[test]
fn pool_and_simulator_leave_the_forced_steal_after_the_same_declined_count() {
    // One rule, two implementations (`StealPolicy::first_steal_max_declined`
    // states it): a source fanning out to 64 leaves, every color invalid,
    // so no colored steal can succeed and both thieves of a 3-worker
    // machine must escape — after exactly `BOUND` probes that found work
    // and declined it, however many empty deques they looked into. Every
    // window is a condition, bounded so that a pool that cannot meet it
    // fails an assertion instead of hanging.
    const BOUND: u64 = 8;
    const EMPTY_PROBES: u64 = 64;
    let hold_until = |done: &dyn Fn() -> bool| {
        let opened = Instant::now();
        while !done() && opened.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
    };
    let mut b = GraphBuilder::new();
    let source = b.add_simple_node(1_000, Color::INVALID, 0);
    for _ in 0..64 {
        let leaf = b.add_simple_node(5_000, Color::INVALID, 0);
        b.add_edge(source, leaf);
    }
    let graph = Arc::new(b.build().unwrap());
    let mut policy = StealPolicy::nabbitc();
    policy.first_steal_max_declined = BOUND;

    // The pool. While the source runs, its worker's deque is empty (the
    // root follows a single source inline) and so are the thieves': the
    // source holds until each thief has probed `EMPTY_PROBES` times and
    // records what that cost them. Then every leaf holds until both
    // thieves have escaped, so there is declined work on some deque for
    // as long as either still needs it.
    let pool = Arc::new(Pool::new(
        PoolConfig::nabbitc(3).with_policy(policy.clone()),
    ));
    let thieves_of = |stats: nabbitc::runtime::PoolStats, root: usize| {
        let mut workers = stats.workers;
        workers.remove(root);
        workers
    };
    let declined_on_empty = Arc::new(AtomicU64::new(u64::MAX));
    let root = Arc::new(AtomicUsize::new(usize::MAX));
    let executed = Arc::new(AtomicU32::new(0));
    let (p, d, r, e) = (
        pool.clone(),
        declined_on_empty.clone(),
        root.clone(),
        executed.clone(),
    );
    let report = StaticExecutor::new(pool.clone()).execute(
        &graph,
        Arc::new(move |u, w| {
            if u == source {
                r.store(w, Ordering::SeqCst);
                hold_until(&|| {
                    thieves_of(p.stats(), w)
                        .iter()
                        .all(|t| t.first_steal_checks >= EMPTY_PROBES)
                });
                let thieves = thieves_of(p.stats(), w);
                let declined: u64 = thieves.iter().map(|t| t.first_steal_declined).sum();
                d.store(declined, Ordering::SeqCst);
            } else {
                let root = r.load(Ordering::SeqCst);
                hold_until(&|| {
                    thieves_of(p.stats(), root)
                        .iter()
                        .all(|t| t.first_steal_escapes == 1)
                });
            }
            e.fetch_add(1, Ordering::SeqCst);
        }),
    );
    assert_eq!(executed.load(Ordering::SeqCst), 65);
    assert_eq!(
        declined_on_empty.load(Ordering::SeqCst),
        0,
        "a probe of an empty deque was charged"
    );
    let pool_thieves = thieves_of(report.stats, root.load(Ordering::SeqCst));

    // The simulator, same graph and bound: core 0 has the root, cores 1
    // and 2 probe it (declined) or each other (empty).
    let mut cfg = WsConfig::nabbitc(3);
    cfg.policy = policy;
    let sim = simulate_ws(&graph, &cfg);
    let sim_thieves = &sim.cores[1..];

    for (real, simulated) in pool_thieves.iter().zip(sim_thieves) {
        assert_eq!(real.first_steal_declined, BOUND, "{real:?}");
        assert_eq!(real.first_steal_declined, simulated.first_steal_declined);
        assert_eq!(
            (real.first_steal_escapes, simulated.first_steal_escapes),
            (1, 1)
        );
        assert_eq!((real.colored_steals, simulated.colored_steals), (0, 0));
        assert!(real.first_steal_checks >= EMPTY_PROBES + BOUND, "{real:?}");
        assert!(simulated.first_steal_checks >= BOUND);
    }
    let sim_checks: u64 = sim_thieves.iter().map(|t| t.first_steal_checks).sum();
    assert!(
        sim_checks > 2 * BOUND,
        "the simulated thieves never probed an empty deque"
    );
}
