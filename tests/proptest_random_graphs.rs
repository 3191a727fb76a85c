//! Property-based tests over randomly generated task graphs: the executors
//! and the simulator must uphold their invariants on *any* DAG, not just
//! the benchmark shapes.

use nabbitc::core::{ExecOptions, StaticExecutor};
use nabbitc::graph::analysis::{analyze, completion_lower_bound};
use nabbitc::graph::{generate, serial, trace::order_respects_dependences};
use nabbitc::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case spins up a pool; keep the suite quick
        ..ProptestConfig::default()
    })]

    #[test]
    fn threaded_executor_valid_on_random_dags(
        layers in 2usize..8,
        width in 1usize..12,
        max_preds in 1usize..4,
        seed in 0u64..1000,
    ) {
        let g = Arc::new(generate::layered_random(
            layers, width, max_preds, (1, 10), 4, seed,
        ));
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(4)));
        let exec = StaticExecutor::new(pool).with_options(ExecOptions {
            record_trace: true,
            count_remote: true,
            ..ExecOptions::default()
        });
        let counts: Arc<Vec<AtomicU32>> =
            Arc::new((0..g.node_count()).map(|_| AtomicU32::new(0)).collect());
        let c2 = counts.clone();
        let report = exec.execute(&g, Arc::new(move |u, _w| {
            c2[u as usize].fetch_add(1, Ordering::SeqCst);
        }));
        prop_assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        prop_assert!(report.trace.validate(&g).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        ..ProptestConfig::default()
    })]

    #[test]
    fn simulator_invariants_on_random_dags(
        layers in 2usize..10,
        width in 1usize..20,
        max_preds in 1usize..5,
        work_hi in 5u64..500,
        cores in 1usize..40,
        seed in 0u64..1000,
    ) {
        let g = generate::layered_random(
            layers, width, max_preds, (1, work_hi), cores, seed,
        );
        let mut cfg = WsConfig::nabbitc(cores);
        cfg.seed = seed ^ 0xABCD;
        let r = simulate_ws(&g, &cfg);
        // Everything executes.
        prop_assert_eq!(r.total_executed(), g.node_count() as u64);
        // Work/span laws hold in abstract work units (the simulator adds
        // overhead on top of pure work, so its makespan can only be
        // larger).
        let a = analyze(&g);
        prop_assert!(r.makespan as f64 >= completion_lower_bound(&a, cores));
        // Determinism.
        let r2 = simulate_ws(&g, &cfg);
        prop_assert_eq!(r.makespan, r2.makespan);
        prop_assert_eq!(r.remote, r2.remote);
    }

    #[test]
    fn serial_order_valid_on_random_dags(
        layers in 1usize..12,
        width in 1usize..15,
        max_preds in 1usize..5,
        seed in 0u64..1000,
    ) {
        let g = generate::layered_random(layers, width, max_preds, (1, 5), 4, seed);
        let order = serial::execute(&g, |_| {});
        prop_assert!(order_respects_dependences(&g, &order));
    }

    #[test]
    fn rehomed_accesses_are_owners_in_first_appearance_order(
        nodes in 2usize..40,
        colors in 1u16..6,
        max_preds in 0usize..6,
        seed in 0u64..10_000,
    ) {
        // Any forward DAG; footprints include zero and odd sizes.
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |below: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % below
        };
        let mut b = GraphBuilder::new();
        for _ in 0..nodes {
            let color = Color(next(colors as u64) as u16);
            b.add_simple_node(1, color, [0, 7, 64, 600, 4096][next(5) as usize]);
        }
        b.add_edge(0, 1);
        for u in 2..nodes {
            let mut preds: Vec<usize> = (0..max_preds).map(|_| next(u as u64) as usize).collect();
            preds.sort_unstable();
            preds.dedup();
            for p in preds {
                b.add_edge(p as NodeId, u as NodeId);
            }
        }
        let g = b.build().expect("forward edges, no duplicates");
        // The definition: predecessors' colors in adjacency order, then
        // the node's own; an owner is listed where it first gets bytes.
        let expected: Vec<Vec<NodeAccess>> = g
            .nodes()
            .map(|u| {
                let mut acc: Vec<NodeAccess> = Vec::new();
                let mut push = |owner: Color, bytes: u64| {
                    if bytes == 0 {
                        return;
                    }
                    match acc.iter_mut().find(|a| a.owner == owner) {
                        Some(a) => a.bytes += bytes,
                        None => acc.push(NodeAccess { owner, bytes }),
                    }
                };
                let mut inbound = 0;
                for &p in g.predecessors(u) {
                    let bytes = g.edge_traffic(p, u);
                    inbound += bytes;
                    push(g.color(p), bytes);
                }
                push(g.color(u), g.footprint(u) - inbound);
                acc
            })
            .collect();
        let built: Vec<Color> = g.nodes().map(|u| g.color(u)).collect();
        let g = g.recolored(&built);
        for u in g.nodes() {
            prop_assert_eq!(g.accesses(u), &expected[u as usize][..]);
        }
    }

    #[test]
    fn nabbit_and_nabbitc_simulations_execute_same_set(
        layers in 2usize..8,
        width in 2usize..16,
        seed in 0u64..500,
    ) {
        let g = generate::layered_random(layers, width, 3, (10, 100), 8, seed);
        let nc = simulate_ws(&g, &WsConfig::nabbitc(8));
        let nb = simulate_ws(&g, &WsConfig::nabbit(8));
        prop_assert_eq!(nc.total_executed(), nb.total_executed());
        // The §V-B denominator (nodes + preds) is schedule-independent.
        prop_assert_eq!(nc.remote.total, nb.remote.total);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    #[test]
    fn omp_simulations_cover_all_iterations(
        layers in 1usize..8,
        width in 1usize..40,
        max_preds in 1usize..5,
        cores in 1usize..40,
        seed in 0u64..1000,
    ) {
        // A random DAG plus one sink that reads nothing (cg's reduction
        // node is one): each node is one loop iteration, run once, and
        // counted under §V-B once itself, whether or not it has accesses,
        // and once per predecessor.
        let g = generate::layered_random(layers, width, max_preds, (1, 50), cores, seed);
        let mut b = GraphBuilder::with_capacity(g.node_count() + 1, g.edge_count() + 1);
        for u in g.nodes() {
            b.add_node(g.work(u), g.color(u), g.accesses(u).iter().copied());
        }
        let bare = b.add_node(7, Color::from(cores - 1), []);
        for u in g.nodes() {
            for &v in g.successors(u) {
                b.add_edge(u, v);
            }
        }
        b.add_edge(bare - 1, bare);
        let g = b.build().expect("a DAG plus a sink");
        let topo = Topology::paper_machine().truncated(cores);
        let cost = CostModel::default();
        for sched in [OmpSchedule::Static, OmpSchedule::Guided] {
            let r = simulate_omp(&g, sched, cores, &topo, &cost);
            prop_assert_eq!(r.total_executed(), g.node_count() as u64);
            prop_assert_eq!(r.remote.node_total, g.node_count() as u64);
            prop_assert_eq!(r.remote.total, (g.node_count() + g.edge_count()) as u64);
        }
    }
}
