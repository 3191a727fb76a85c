//! A coloring laid over a shared structure reads exactly like a recolored
//! deep copy of the graph.
//!
//! Until PR 23 a recoloring *was* a second graph: clone both CSRs, set the
//! colors, walk every edge to write each node's re-homed access list.
//! [`TaskGraph::recolored`] now shares the structure and derives the
//! lists on first read. The old design
//! is kept here as the reference ([`deep_copy_recolored`]: a fresh build
//! with the lists written out by the definition), and every reader of a
//! recolored graph — accessors, the edge-traffic view, the makespan
//! estimator, the NUMA simulator — must not be able to tell the two apart.

use nabbitc::autocolor::{all_strategies, AutoSelect};
use nabbitc::cost::{CostModel, Topology};
use nabbitc::graph::analysis::estimate_makespan_colored_strict_on;
use nabbitc::graph::{EdgeTraffic, GraphBuilder, NodeAccess, NodeId, TaskGraph};
use nabbitc::numasim::{simulate_ws, WsConfig};
use nabbitc::prelude::*;
use nabbitc::workloads::registry;
use nabbitc::workloads::{BenchId, Scale};
use proptest::prelude::*;

/// `g`'s edges in an order that rebuilds `g`'s adjacency exactly: every
/// node's successors in their order *and* every node's predecessors in
/// theirs (the two orders a builder derives from one edge sequence; the
/// sequence `g` was built from is one such merge, so one exists).
fn edges_in_a_build_order(g: &TaskGraph) -> Vec<(NodeId, NodeId)> {
    let n = g.node_count();
    let (mut next_succ, mut next_pred) = (vec![0usize; n], vec![0usize; n]);
    let mut edges = Vec::with_capacity(g.edge_count());
    let mut retry: Vec<NodeId> = (0..n as NodeId).rev().collect();
    while let Some(u) = retry.pop() {
        while let Some(&v) = g.successors(u).get(next_succ[u as usize]) {
            if g.predecessors(v)[next_pred[v as usize]] != u {
                break; // `v` takes another producer's edge first
            }
            edges.push((u, v));
            next_succ[u as usize] += 1;
            next_pred[v as usize] += 1;
            // Whoever `v` takes next may have stopped at it before.
            retry.extend(g.predecessors(v).get(next_pred[v as usize]));
        }
    }
    assert_eq!(edges.len(), g.edge_count(), "no merge of the two orders");
    edges
}

/// The parent design: `g` under `colors` as a second graph, its access
/// lists written out by the definition of the edge-traffic placement —
/// predecessors' colors in adjacency order, then the node's own; an owner
/// is listed where it first gets bytes, and zero-byte regions are not.
fn deep_copy_recolored(g: &TaskGraph, colors: &[Color]) -> TaskGraph {
    let mut b = GraphBuilder::with_capacity(g.node_count(), g.edge_count());
    for u in g.nodes() {
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
            push(colors[p as usize], bytes);
        }
        push(colors[u as usize], g.footprint(u) - inbound);
        b.add_node(g.work(u), colors[u as usize], acc);
    }
    for (p, u) in edges_in_a_build_order(g) {
        b.add_edge(p, u);
    }
    let copy = b.build().expect("a copy of an acyclic graph");
    for u in g.nodes() {
        assert_eq!(
            copy.successors(u),
            g.successors(u),
            "copy: successors of {u}"
        );
        assert_eq!(
            copy.predecessors(u),
            g.predecessors(u),
            "copy: predecessors of {u}"
        );
    }
    assert_eq!(copy.topo_order(), g.topo_order());
    copy
}

/// Everything a reader can ask of `layered` answers as `copy` does.
fn assert_reads_alike(layered: &TaskGraph, copy: &TaskGraph, workers: usize, what: &str) {
    let (ours, theirs) = (EdgeTraffic::of(layered), EdgeTraffic::of(copy));
    for u in copy.nodes() {
        assert_eq!(layered.color(u), copy.color(u), "{what}: color of {u}");
        assert_eq!(
            layered.accesses(u),
            copy.accesses(u),
            "{what}: accesses of {u}"
        );
        assert_eq!(
            layered.footprint(u),
            copy.footprint(u),
            "{what}: footprint of {u}"
        );
        assert_eq!(
            ours.out_share(u),
            theirs.out_share(u),
            "{what}: out-share of {u}"
        );
        assert_eq!(
            ours.in_share(u),
            theirs.in_share(u),
            "{what}: in-share of {u}"
        );
    }
    let colors: Vec<Color> = copy.nodes().map(|u| copy.color(u)).collect();
    let cost = CostModel::default();
    for topo in [
        Topology::per_worker(workers),
        Topology::paper_machine().truncated(workers),
    ] {
        assert_eq!(
            estimate_makespan_colored_strict_on(layered, &colors, workers, &cost, &topo),
            estimate_makespan_colored_strict_on(copy, &colors, workers, &cost, &topo),
            "{what}: estimate"
        );
    }
    for seed in [0x5EED, 77] {
        let mut cfg = WsConfig::nabbitc(workers);
        cfg.seed = seed;
        // The id-blocked colorings leave most cores declining work for
        // the whole forced first steal; at the default patience that is
        // half a million simulated probes a run and a 90 s test.
        cfg.policy.first_steal_max_declined = 256;
        let (ours, theirs) = (simulate_ws(layered, &cfg), simulate_ws(copy, &cfg));
        assert_eq!(
            ours.makespan, theirs.makespan,
            "{what}: makespan, seed {seed}"
        );
        assert_eq!(
            ours.remote, theirs.remote,
            "{what}: remote accesses, seed {seed}"
        );
    }
}

/// `g` under `colors` as a layer over its structure, against the copy.
fn assert_recoloring_equivalent(g: &TaskGraph, colors: &[Color], workers: usize, what: &str) {
    let copy = deep_copy_recolored(g, colors);
    let layered = g.recolored(colors);
    assert!(layered.shares_structure_with(g), "{what}: copied");
    assert_reads_alike(&layered, &copy, workers, what);
}

#[test]
fn every_registry_workload_under_every_static_assigner() {
    let p = 8;
    for id in BenchId::all() {
        let bare = registry::build_uncolored(id, Scale::Small, p).graph;
        let statics = all_strategies()
            .into_iter()
            .filter(|s| s.name() != AutoSelect::NAME);
        for strategy in statics {
            let colors = strategy.assign(&bare, p);
            let what = format!("{} under {}", id.name(), strategy.name());
            assert_recoloring_equivalent(&bare, &colors, p, &what);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_forward_dags_with_odd_footprints_and_a_colorless_node(
        nodes in 2usize..40,
        workers in 1usize..6,
        max_preds in 0usize..6,
        seed in 0u64..10_000,
    ) {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |below: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % below
        };
        let mut b = GraphBuilder::new();
        for _ in 0..nodes {
            b.add_simple_node(1 + next(40), Color(0), [0, 7, 64, 600, 4096][next(5) as usize]);
        }
        // Edges in no particular order, so that neither adjacency is
        // sorted: the copy has to merge the two orders.
        let mut edges: Vec<(NodeId, NodeId)> = vec![(0, 1)];
        for u in 1..nodes {
            for _ in 0..max_preds {
                edges.push((next(u as u64) as NodeId, u as NodeId));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        for i in (1..edges.len()).rev() {
            edges.swap(i, next(i as u64 + 1) as usize);
        }
        for (p, u) in edges {
            b.add_edge(p, u);
        }
        let g = b.build().expect("forward edges, no duplicates");

        let valid: Vec<Color> = (0..nodes).map(|_| Color(next(workers as u64) as u16)).collect();
        assert_recoloring_equivalent(&g, &valid, workers, "valid colors");
        // Node 0 always has a consumer: a colorless producer. Colors that
        // name no region are a hint (Table III), never a placement, so
        // the layer is refused rather than homed anywhere.
        let mut colorless = valid;
        colorless[0] = Color::INVALID;
        colorless[next(nodes as u64) as usize] = Color::INVALID;
        let layered = std::panic::catch_unwind(|| g.recolored(&colorless));
        prop_assert!(layered.is_err(), "a colorless node was placed");
    }
}
