//! OpenMP-style loop scheduling simulation (OPENMPSTATIC / OPENMPGUIDED).
//!
//! An OpenMP benchmark is a sequence of parallel loops with implicit
//! barriers. The simulator reads that program off the same task graph the
//! work-stealing schedulers run: one loop per hop-count level
//! ([`hop_levels`]), whose iterations are the level's nodes in `NodeId`
//! order — the program the threaded team (`nabbitc_parfor::Team::run_graph`)
//! runs on real threads. Each node is priced from its work and accesses as
//! [`wsim`](crate::wsim) prices it.
//!
//! The schedules are [`OmpSchedule`]'s, the team's own:
//!
//! * `Static` assigns even contiguous blocks (libgomp default). On a
//!   persistent pinned team the mapping is identical in every loop, so if
//!   the data was initialized by the same static loop every block access
//!   is local — the paper's "OpenMP achieves the maximum locality possible"
//!   for regular applications.
//! * `Guided` hands out [`OmpSchedule::guided_chunk`]-sized chunks to
//!   whichever thread is free first — dynamic load balance, no locality
//!   control.

use crate::node_ticks;
use crate::result::{CoreStats, SimResult};
use nabbitc_cost::{CostModel, Topology};
use nabbitc_graph::analysis::hop_levels;
use nabbitc_graph::TaskGraph;
use nabbitc_runtime::{OmpSchedule, RemoteAccessReport};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulates `graph` as barrier-separated OpenMP loops on `cores` cores of
/// `topology` under `schedule`.
pub fn simulate_omp(
    graph: &TaskGraph,
    schedule: OmpSchedule,
    cores: usize,
    topology: &Topology,
    cost: &CostModel,
) -> SimResult {
    assert!(cores > 0, "need at least one core");
    let mut stats = vec![CoreStats::default(); cores];
    let mut remote = RemoteAccessReport::default();
    let mut clock = vec![0u64; cores];
    let mut ticks = |u, t| node_ticks(graph, u, t, topology, cost, &mut remote);

    for level in hop_levels(graph) {
        let n = level.len();
        match schedule {
            OmpSchedule::Static => {
                for (t, stat) in stats.iter_mut().enumerate() {
                    for &u in &level[OmpSchedule::static_range(n, cores, t)] {
                        let d = ticks(u, t);
                        clock[t] += d;
                        stat.busy += d;
                        stat.executed += 1;
                    }
                }
            }
            OmpSchedule::Guided => {
                // Earliest-free thread grabs the next shrinking chunk.
                let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
                    (0..cores).map(|t| Reverse((clock[t], t))).collect();
                let mut next = 0usize;
                while next < n {
                    let Reverse((at, t)) = heap.pop().expect("cores exist");
                    let chunk_end = next + OmpSchedule::guided_chunk(n - next, cores);
                    let d: u64 = level[next..chunk_end].iter().map(|&u| ticks(u, t)).sum();
                    stats[t].busy += d;
                    stats[t].executed += (chunk_end - next) as u64;
                    next = chunk_end;
                    clock[t] = at + d;
                    heap.push(Reverse((clock[t], t)));
                }
            }
        }
        // Implicit barrier: everyone advances to the loop's max.
        let loop_end = clock.iter().copied().max().unwrap_or(0) + cost.barrier;
        for (t, stat) in stats.iter_mut().enumerate() {
            stat.idle += loop_end - clock[t];
            clock[t] = loop_end;
        }
    }

    SimResult {
        makespan: clock.into_iter().max().unwrap_or(0),
        cores: stats,
        remote,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_color::Color;
    use nabbitc_graph::{generate, GraphBuilder, NodeAccess, NodeId};

    /// `loops` levels of `n` nodes, node `i` of a level reading data owned
    /// by the static owner of `i` — first-touch initialization by the same
    /// static loop — and depending on node `i` of the level before.
    fn first_touch_graph(loops: usize, n: usize, cores: usize, bytes: u64) -> TaskGraph {
        let owner = |i: usize| {
            (0..cores)
                .find(|&t| OmpSchedule::static_range(n, cores, t).contains(&i))
                .expect("iteration belongs to one thread")
        };
        let mut gb = GraphBuilder::with_capacity(loops * n, loops * n);
        for l in 0..loops {
            for i in 0..n {
                let color = Color::from(owner(i));
                gb.add_simple_node(100, color, bytes);
                if l > 0 {
                    gb.add_edge(((l - 1) * n + i) as NodeId, (l * n + i) as NodeId);
                }
            }
        }
        gb.build().expect("levels are acyclic")
    }

    #[test]
    fn static_first_touch_is_all_local() {
        let cores = 40;
        let topo = Topology::paper_machine().truncated(cores);
        let g = first_touch_graph(5, 4000, cores, 4096);
        let r = simulate_omp(&g, OmpSchedule::Static, cores, &topo, &CostModel::default());
        assert_eq!(
            r.remote.pct_remote(),
            0.0,
            "static + first touch must be fully local"
        );
        assert_eq!(r.remote.node_remote, 0);
        assert_eq!(r.total_executed(), 5 * 4000);
    }

    #[test]
    fn guided_incurs_remote_accesses() {
        let cores = 40;
        let topo = Topology::paper_machine().truncated(cores);
        let g = first_touch_graph(5, 4000, cores, 4096);
        let r = simulate_omp(&g, OmpSchedule::Guided, cores, &topo, &CostModel::default());
        assert!(
            r.remote.pct_remote() > 10.0,
            "guided should lose locality: {}",
            r.remote.pct_remote()
        );
        assert_eq!(r.total_executed(), 5 * 4000);
    }

    #[test]
    fn static_balanced_beats_guided_on_regular_loop() {
        // Uniform work + first-touch data: static is optimal.
        let cores = 40;
        let topo = Topology::paper_machine().truncated(cores);
        let g = first_touch_graph(3, 4000, cores, 4096);
        let cost = CostModel::default();
        let s = simulate_omp(&g, OmpSchedule::Static, cores, &topo, &cost);
        let gd = simulate_omp(&g, OmpSchedule::Guided, cores, &topo, &cost);
        assert!(
            s.makespan < gd.makespan,
            "static {} vs guided {}",
            s.makespan,
            gd.makespan
        );
    }

    #[test]
    fn guided_beats_static_on_skewed_work() {
        // Heavily skewed iteration costs and no data, so locality cannot
        // save static: load balance decides.
        let cores = 10;
        let topo = Topology::paper_machine().truncated(cores);
        let n = 1000;
        let mut gb = GraphBuilder::new();
        for i in 0..n {
            // Last static block is 100x heavier.
            let work = if i >= n - n / cores { 100_000 } else { 1_000 };
            gb.add_node(work, Color(0), []);
        }
        let g = gb.build().expect("no edges");
        let cost = CostModel::default();
        let s = simulate_omp(&g, OmpSchedule::Static, cores, &topo, &cost);
        let gd = simulate_omp(&g, OmpSchedule::Guided, cores, &topo, &cost);
        assert!(
            gd.makespan < s.makespan,
            "guided {} should beat static {} under skew",
            gd.makespan,
            s.makespan
        );
    }

    #[test]
    fn barriers_accumulate() {
        let cores = 4;
        let topo = Topology::uma(cores);
        let cost = CostModel::default();
        let one = simulate_omp(
            &first_touch_graph(1, 40, cores, 0),
            OmpSchedule::Static,
            cores,
            &topo,
            &cost,
        );
        let five = simulate_omp(
            &first_touch_graph(5, 40, cores, 0),
            OmpSchedule::Static,
            cores,
            &topo,
            &cost,
        );
        assert!(five.makespan >= one.makespan + 4 * cost.barrier);
    }

    #[test]
    fn deterministic() {
        let cores = 16;
        let topo = Topology::paper_machine().truncated(cores);
        let g = first_touch_graph(3, 500, cores, 1024);
        let cost = CostModel::default();
        let a = simulate_omp(&g, OmpSchedule::Guided, cores, &topo, &cost);
        let b = simulate_omp(&g, OmpSchedule::Guided, cores, &topo, &cost);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.remote, b.remote);
    }

    #[test]
    fn more_cores_than_iterations() {
        let cores = 8;
        let topo = Topology::uma(cores);
        let g = first_touch_graph(1, 3, cores, 64);
        let r = simulate_omp(&g, OmpSchedule::Static, cores, &topo, &CostModel::default());
        assert_eq!(r.total_executed(), 3);
    }

    /// Two chains, `a0 → a1` and `b0 → b1`, with `a0` far heavier than
    /// the rest. By earliest start time `b1` (ready at 1) and `a1` (ready
    /// at 1000) sit in different levels, three in all; by hop count both
    /// are one edge from a source. The program is two loops.
    #[test]
    fn each_hop_count_level_is_one_loop() {
        let mut gb = GraphBuilder::new();
        let works = [1_000, 1, 1, 1];
        for w in works {
            gb.add_node(w, Color(0), []);
        }
        gb.add_edge(0, 1);
        gb.add_edge(2, 3);
        let g = gb.build().expect("two chains");
        assert_eq!(nabbitc_graph::analysis::level_profile(&g).level_count(), 3);
        assert_eq!(hop_levels(&g), [vec![0, 2], vec![1, 3]]);

        let cost = CostModel::default();
        let ticks = |u: usize| cost.node_ticks(works[u], 0, 0);
        let two_loops = ticks(0).max(ticks(2)) + ticks(1).max(ticks(3)) + 2 * cost.barrier;
        let r = simulate_omp(&g, OmpSchedule::Static, 2, &Topology::uma(2), &cost);
        assert_eq!(r.makespan, two_loops);
    }

    #[test]
    fn nodes_count_by_color_and_accesses_by_owner() {
        // A chain whose three loops are one node each, run by thread 0
        // (domain 0). The second and third nodes are colored into domain
        // 1: one reads nothing (as cg's reduction), one reads domain 0's
        // data. §V-B counts each node and each predecessor by color; the
        // bytes are priced by their owner, so every byte is local.
        let cores = 20;
        let topo = Topology::paper_machine().truncated(cores);
        let mut gb = GraphBuilder::new();
        gb.add_simple_node(10, Color(0), 64);
        gb.add_node(10, Color(15), []);
        let local = NodeAccess {
            owner: Color(0),
            bytes: 64,
        };
        gb.add_node(10, Color(15), [local]);
        gb.add_edge(0, 1);
        gb.add_edge(1, 2);
        let g = gb.build().expect("a chain");
        let cost = CostModel::default();
        let r = simulate_omp(&g, OmpSchedule::Static, cores, &topo, &cost);
        assert_eq!((r.remote.node_total, r.remote.node_remote), (3, 2));
        // Predecessors: node 0 (color 0, local) and node 1 (color 15).
        assert_eq!((r.remote.total(), r.remote.remote()), (5, 3));
        let all_local = 2 * cost.node_ticks(10, 64, 0) + cost.node_ticks(10, 0, 0);
        assert_eq!(r.makespan, all_local + 3 * cost.barrier);
    }

    #[test]
    fn omp_static_scales() {
        let t = |p: usize| {
            let g = generate::iterated_stencil(3, 400, 100, p);
            let topo = Topology::paper_machine().truncated(p);
            simulate_omp(&g, OmpSchedule::Static, p, &topo, &CostModel::default()).makespan
        };
        let (t10, t40) = (t(10), t(40));
        assert!(t40 < t10, "static should scale: {t40} !< {t10}");
    }
}
