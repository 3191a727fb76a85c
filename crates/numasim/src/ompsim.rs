//! OpenMP-style loop scheduling simulation (OPENMPSTATIC / OPENMPGUIDED).
//!
//! OpenMP benchmarks are parallel loops with implicit barriers, not task
//! graphs, so the simulator takes a [`LoopNest`]: a sequence of phases,
//! each a parallel loop over per-iteration work/access descriptors.
//!
//! * `Static` assigns even contiguous blocks (libgomp default). On a
//!   persistent pinned team the mapping is identical in every phase, so if
//!   the data was initialized by the same static loop every block access
//!   is local — the paper's "OpenMP achieves the maximum locality possible"
//!   for regular applications.
//! * `Guided` hands out `max(remaining / P, 1)`-sized chunks to whichever
//!   thread is free first — dynamic load balance, no locality control.

use crate::result::{CoreStats, SimRemote, SimResult};
use nabbitc_cost::{CostModel, Topology};
use nabbitc_graph::NodeAccess;
use nabbitc_runtime::ColorDomains;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One loop iteration's cost descriptor.
#[derive(Clone, Debug, Default)]
pub struct IterDesc {
    /// Compute work units.
    pub work: u64,
    /// Memory accesses (owner color + bytes).
    pub accesses: Vec<NodeAccess>,
}

/// One parallel loop (ends with an implicit barrier).
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Per-iteration descriptors.
    pub iters: Vec<IterDesc>,
}

/// A sequence of parallel loops — the OpenMP program shape.
#[derive(Clone, Debug, Default)]
pub struct LoopNest {
    /// Phases executed in order, barrier between each.
    pub phases: Vec<Phase>,
}

/// OpenMP loop schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OmpSchedule {
    /// Even contiguous blocks, stable across phases.
    Static,
    /// Shrinking chunks from a shared counter.
    Guided,
}

impl OmpSchedule {
    /// Name for reports.
    pub fn name(self) -> &'static str {
        match self {
            OmpSchedule::Static => "omp-static",
            OmpSchedule::Guided => "omp-guided",
        }
    }
}

/// Static range of thread `t` (libgomp-style remainder distribution).
pub fn static_range(n: usize, threads: usize, t: usize) -> std::ops::Range<usize> {
    let base = n / threads;
    let rem = n % threads;
    let lo = t * base + t.min(rem);
    let len = base + usize::from(t < rem);
    lo..(lo + len).min(n)
}

fn iter_ticks(
    it: &IterDesc,
    core: usize,
    topo: &Topology,
    cost: &CostModel,
    remote: &mut SimRemote,
) -> u64 {
    let my_domain = topo.domain_of(core);
    let (mut local, mut remote_bytes) = (0u64, 0u64);
    for (k, a) in it.accesses.iter().enumerate() {
        remote.total += 1;
        if k == 0 {
            // First access = the iteration's own block (node-level view).
            remote.node_total += 1;
            if topo.domain_of_color(a.owner) != Some(my_domain) {
                remote.node_remote += 1;
            }
        }
        match topo.domain_of_color(a.owner) {
            Some(d) if d == my_domain => local += a.bytes,
            _ => {
                remote.remote += 1;
                remote_bytes += a.bytes;
            }
        }
    }
    cost.node_ticks(it.work, local, remote_bytes)
}

/// Simulates `nest` on `cores` cores of `topology` under `schedule`.
pub fn simulate_omp(
    nest: &LoopNest,
    schedule: OmpSchedule,
    cores: usize,
    topology: &Topology,
    cost: &CostModel,
) -> SimResult {
    assert!(cores > 0, "need at least one core");
    let mut stats = vec![CoreStats::default(); cores];
    let mut remote = SimRemote::default();
    let mut clock = vec![0u64; cores];

    for phase in &nest.phases {
        let n = phase.iters.len();
        match schedule {
            OmpSchedule::Static => {
                for (t, stat) in stats.iter_mut().enumerate() {
                    for i in static_range(n, cores, t) {
                        let d = iter_ticks(&phase.iters[i], t, topology, cost, &mut remote);
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
                    let take = ((n - next) / cores).max(1);
                    let chunk_end = (next + take).min(n);
                    let mut d = 0u64;
                    for it in &phase.iters[next..chunk_end] {
                        d += iter_ticks(it, t, topology, cost, &mut remote);
                    }
                    stats[t].busy += d;
                    stats[t].executed += (chunk_end - next) as u64;
                    next = chunk_end;
                    clock[t] = at + d;
                    heap.push(Reverse((clock[t], t)));
                }
            }
        }
        // Implicit barrier: everyone advances to the phase max.
        let phase_end = clock.iter().copied().max().unwrap_or(0) + cost.barrier;
        for (t, stat) in stats.iter_mut().enumerate() {
            stat.idle += phase_end - clock[t];
            clock[t] = phase_end;
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

    /// A nest whose iteration `i` accesses data owned by the static owner
    /// of `i` — first-touch initialization by the same static loop.
    fn first_touch_nest(phases: usize, n: usize, cores: usize, bytes: u64) -> LoopNest {
        let owner = |i: usize| {
            (0..cores)
                .find(|&t| static_range(n, cores, t).contains(&i))
                .expect("iteration belongs to one thread")
        };
        LoopNest {
            phases: (0..phases)
                .map(|_| Phase {
                    iters: (0..n)
                        .map(|i| IterDesc {
                            work: 100,
                            accesses: vec![NodeAccess {
                                owner: Color::from(owner(i)),
                                bytes,
                            }],
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn static_first_touch_is_all_local() {
        let cores = 40;
        let topo = Topology::paper_machine().truncated(cores);
        let nest = first_touch_nest(5, 4000, cores, 4096);
        let r = simulate_omp(
            &nest,
            OmpSchedule::Static,
            cores,
            &topo,
            &CostModel::default(),
        );
        assert_eq!(
            r.remote.pct(),
            0.0,
            "static + first touch must be fully local"
        );
        assert_eq!(r.total_executed(), 5 * 4000);
    }

    #[test]
    fn guided_incurs_remote_accesses() {
        let cores = 40;
        let topo = Topology::paper_machine().truncated(cores);
        let nest = first_touch_nest(5, 4000, cores, 4096);
        let r = simulate_omp(
            &nest,
            OmpSchedule::Guided,
            cores,
            &topo,
            &CostModel::default(),
        );
        assert!(
            r.remote.pct() > 10.0,
            "guided should lose locality: {}",
            r.remote.pct()
        );
        assert_eq!(r.total_executed(), 5 * 4000);
    }

    #[test]
    fn static_balanced_beats_guided_on_regular_loop() {
        // Uniform work + first-touch data: static is optimal.
        let cores = 40;
        let topo = Topology::paper_machine().truncated(cores);
        let nest = first_touch_nest(3, 4000, cores, 4096);
        let cost = CostModel::default();
        let s = simulate_omp(&nest, OmpSchedule::Static, cores, &topo, &cost);
        let g = simulate_omp(&nest, OmpSchedule::Guided, cores, &topo, &cost);
        assert!(
            s.makespan < g.makespan,
            "static {} vs guided {}",
            s.makespan,
            g.makespan
        );
    }

    #[test]
    fn guided_beats_static_on_skewed_work() {
        // Heavily skewed iteration costs, data colored to one region so
        // locality cannot save static: load balance decides.
        let cores = 10;
        let topo = Topology::paper_machine().truncated(cores);
        let n = 1000;
        let nest = LoopNest {
            phases: vec![Phase {
                iters: (0..n)
                    .map(|i| IterDesc {
                        // Last static block is 100x heavier.
                        work: if i >= n - n / cores { 100_000 } else { 1_000 },
                        accesses: vec![],
                    })
                    .collect(),
            }],
        };
        let cost = CostModel::default();
        let s = simulate_omp(&nest, OmpSchedule::Static, cores, &topo, &cost);
        let g = simulate_omp(&nest, OmpSchedule::Guided, cores, &topo, &cost);
        assert!(
            g.makespan < s.makespan,
            "guided {} should beat static {} under skew",
            g.makespan,
            s.makespan
        );
    }

    #[test]
    fn barriers_accumulate() {
        let cores = 4;
        let topo = Topology::uma(cores);
        let cost = CostModel::default();
        let one = simulate_omp(
            &first_touch_nest(1, 40, cores, 0),
            OmpSchedule::Static,
            cores,
            &topo,
            &cost,
        );
        let five = simulate_omp(
            &first_touch_nest(5, 40, cores, 0),
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
        let nest = first_touch_nest(3, 500, cores, 1024);
        let cost = CostModel::default();
        let a = simulate_omp(&nest, OmpSchedule::Guided, cores, &topo, &cost);
        let b = simulate_omp(&nest, OmpSchedule::Guided, cores, &topo, &cost);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.remote, b.remote);
    }

    #[test]
    fn empty_nest() {
        let r = simulate_omp(
            &LoopNest::default(),
            OmpSchedule::Static,
            4,
            &Topology::uma(4),
            &CostModel::default(),
        );
        assert_eq!(r.makespan, 0);
        assert_eq!(r.total_executed(), 0);
    }

    #[test]
    fn more_cores_than_iterations() {
        let cores = 8;
        let topo = Topology::uma(cores);
        let nest = first_touch_nest(1, 3, cores, 64);
        let r = simulate_omp(
            &nest,
            OmpSchedule::Static,
            cores,
            &topo,
            &CostModel::default(),
        );
        assert_eq!(r.total_executed(), 3);
    }
}
