//! Work-stealing simulation (Nabbit / NabbitC).
//!
//! Faithful to the threaded runtime at the level that matters for the
//! paper's figures: per-core deques hold the runtime's own morphing
//! [`Batch`]es, split by the same [`Batch::split`] that `spawn_colors`
//! drives on the pool, one `cost.split` per pushed half (so a steal
//! acquires half of a color-split batch, and the first steals acquire
//! large chunks near the root), owners pop LIFO while thieves take the
//! oldest entry, colored steals check the top entry's color set, and each
//! core's steal search is the threaded pool's own [`Thief`] — K colored
//! attempts then one random attempt, after
//! a forced first colored steal whose patience is charged as
//! [`StealPolicy::first_steal_max_declined`] says. The simulator drives it
//! on a virtual clock: one forced probe per event, `idle_backoff` after a
//! round that ends in a failed random attempt.
//!
//! Simulated time advances through a deterministic event heap; every cost
//! comes from the [`CostModel`]. Same graph + same config ⇒ identical
//! result, which makes the figure harnesses reproducible.

use crate::node_ticks;
use crate::result::{CoreStats, SimResult};
use nabbitc_color::Color;
use nabbitc_cost::{CostModel, Topology};
use nabbitc_graph::{NodeId, TaskGraph};
use nabbitc_runtime::morph::Batch;
use nabbitc_runtime::policy::{Attempt, Outcome, Step, Thief};
use nabbitc_runtime::rng::XorShift64;
use nabbitc_runtime::{RemoteAccessReport, StealPolicy};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Work-stealing simulation configuration.
#[derive(Clone, Debug)]
pub struct WsConfig {
    /// Simulated cores (= colors).
    pub cores: usize,
    /// Machine topology (use [`Topology::paper_machine`] + `truncated`
    /// for the paper's 1–80 core sweeps). The same value prices the
    /// matching estimate: hand `&cfg.topology` to the makespan estimator
    /// or to `AutoSelect::with_topology`.
    pub topology: Topology,
    /// Steal policy: [`StealPolicy::nabbitc`] or [`StealPolicy::nabbit`].
    pub policy: StealPolicy,
    /// Cost model.
    pub cost: CostModel,
    /// RNG seed (victim selection).
    pub seed: u64,
}

impl WsConfig {
    /// NabbitC on the first `cores` cores of the paper machine.
    pub fn nabbitc(cores: usize) -> Self {
        WsConfig {
            cores,
            topology: Topology::paper_machine().truncated(cores),
            policy: StealPolicy::nabbitc(),
            cost: CostModel::default(),
            seed: 0x5EED,
        }
    }

    /// Vanilla Nabbit on the first `cores` cores of the paper machine.
    pub fn nabbit(cores: usize) -> Self {
        WsConfig {
            policy: StealPolicy::nabbit(),
            ..Self::nabbitc(cores)
        }
    }
}

/// A release of `nodes` as the executors hand it to `spawn_colors`, in
/// node-id order within each color.
fn release(graph: &TaskGraph, mut nodes: Vec<NodeId>) -> Batch<NodeId> {
    nodes.sort_unstable();
    Batch::gather(nodes, |&u| graph.color(u))
}

struct Sim<'a> {
    graph: &'a TaskGraph,
    cfg: &'a WsConfig,
    join: Vec<u32>,
    deques: Vec<VecDeque<Batch<NodeId>>>,
    stats: Vec<CoreStats>,
    remote: RemoteAccessReport,
    thieves: Vec<Thief>,
    acquired: Vec<bool>,
    executed_total: u64,
    makespan: u64,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    seq: u64,
}

/// Simulates `graph` under work stealing per `cfg`. Panics unless
/// `cfg.topology` has a core for each of the `cfg.cores` workers.
pub fn simulate_ws(graph: &TaskGraph, cfg: &WsConfig) -> SimResult {
    assert!(cfg.cores > 0, "need at least one core");
    let p = cfg.cores;
    assert!(
        cfg.topology.cores() >= p,
        "topology with {} cores cannot place {p} workers",
        cfg.topology.cores()
    );
    let n = graph.node_count() as u64;

    let mut sim = Sim {
        graph,
        cfg,
        join: (0..graph.node_count())
            .map(|u| graph.in_degree(u as NodeId) as u32)
            .collect(),
        deques: (0..p).map(|_| VecDeque::new()).collect(),
        stats: vec![CoreStats::default(); p],
        remote: RemoteAccessReport::default(),
        thieves: (0..p)
            .map(|c| {
                let rng = XorShift64::new(cfg.seed ^ (0x9E37_79B9u64.wrapping_mul(c as u64 + 1)));
                Thief::new(&cfg.policy, c, p, rng)
            })
            .collect(),
        acquired: vec![false; p],
        executed_total: 0,
        makespan: 0,
        heap: BinaryHeap::new(),
        seq: 0,
    };

    // The root: all sources, color-grouped, handed to core 0 ("one worker
    // starts out with executing the root node").
    let sources = graph.sources();
    sim.deques[0].push_back(release(graph, sources));

    for c in 0..p {
        sim.schedule(0, c);
    }

    let mut events = 0u64;
    while sim.executed_total < n {
        let Reverse((t, _, c)) = sim.heap.pop().expect("work remains but no events pending");
        sim.step(c, t);
        events += 1;
        if events.is_multiple_of(1 << 26) {
            // Safety net: a healthy simulation needs a few events per node
            // plus steal retries; hundreds of millions means livelock.
            assert!(
                events < (1 << 30),
                "simulator stuck: {} events, {}/{} nodes executed, t={}, heap={}",
                events,
                sim.executed_total,
                n,
                t,
                sim.heap.len()
            );
        }
    }

    SimResult {
        makespan: sim.makespan,
        cores: sim.stats,
        remote: sim.remote,
    }
}

impl<'a> Sim<'a> {
    fn schedule(&mut self, t: u64, core: usize) {
        self.seq += 1;
        self.heap.push(Reverse((t, self.seq, core)));
    }

    fn step(&mut self, c: usize, t: u64) {
        if let Some(batch) = self.deques[c].pop_back() {
            self.process(c, t, batch);
        } else {
            self.steal_round(c, t);
        }
    }

    /// Splits a batch down to one node ([`Batch::split`], pushing each
    /// half it does not keep at `cost.split`) and executes the node.
    fn process(&mut self, c: usize, t: u64, batch: Batch<NodeId>) {
        if !self.acquired[c] {
            self.acquired[c] = true;
            self.stats[c].first_work = t;
        }
        let deque = &mut self.deques[c];
        let mut halves = 0;
        let u = batch
            .split(Color::from(c), |half| {
                deque.push_back(half);
                halves += 1;
            })
            .expect("a queued batch is never empty");
        let split = halves * self.cfg.cost.split;
        self.stats[c].busy += split;
        self.execute(c, t + split, u);
    }

    fn execute(&mut self, c: usize, t: u64, u: NodeId) {
        let g = self.graph;
        let cfg = self.cfg;
        let dur = node_ticks(g, u, c, &cfg.topology, &cfg.cost, &mut self.remote);

        self.stats[c].executed += 1;
        self.stats[c].busy += dur;
        self.executed_total += 1;
        let t_end = t + dur;
        self.makespan = self.makespan.max(t_end);

        // Notifies the successors and pushes the ready ones now, at the
        // node's start event, not at `t_end`: a thief can take a ready
        // successor before its predecessor has finished. A real run cannot;
        // this is a known error of the model, kept so that `results/`
        // stays as pinned.
        let mut ready: Vec<NodeId> = Vec::new();
        for &s in g.successors(u) {
            self.join[s as usize] -= 1;
            if self.join[s as usize] == 0 {
                ready.push(s);
            }
        }
        if !ready.is_empty() {
            self.deques[c].push_back(release(g, ready));
        }
        self.schedule(t_end, c);
    }

    /// One steal round of core `c` at `t`, in the order its thief draws:
    /// while the forcing lasts, one forced probe per event; after it, the
    /// thief's colored attempts and its random one, then `idle_backoff`.
    fn steal_round(&mut self, c: usize, t: u64) {
        let mut now = t;
        loop {
            let forcing = self.thieves[c].forcing();
            if forcing {
                self.stats[c].first_steal_checks += 1;
            }
            let Some(attempt) = self.thieves[c].attempt() else {
                // Single core: any work left is in our own deque, where
                // step() would have found it. Spin forward.
                now += self.cfg.cost.idle_backoff;
                break;
            };
            let outcome = self.steal_attempt(c, t, &mut now, attempt);
            if forcing && outcome == Outcome::Declined {
                self.stats[c].first_steal_declined += 1;
            }
            match self.thieves[c].report(outcome) {
                Step::Stole => return,
                Step::Again if !forcing => {}
                Step::Again => break, // one forced probe per event
                Step::Escaped => {
                    self.stats[c].first_steal_escapes += 1;
                    break;
                }
                Step::RoundOver => {
                    now += self.cfg.cost.idle_backoff;
                    break;
                }
            }
        }
        self.stats[c].idle += now - t;
        self.schedule(now, c);
    }

    /// One steal attempt by core `c`, `*now` ticks into a round that began
    /// at `t`. On success the batch is processed; whatever the outcome,
    /// `*now` has moved on by what the attempt cost.
    fn steal_attempt(&mut self, c: usize, t: u64, now: &mut u64, attempt: Attempt) -> Outcome {
        let cost = &self.cfg.cost;
        *now += cost.steal_check;
        let stats = &mut self.stats[c];
        let (attempts, steals) = if attempt.colored {
            (&mut stats.colored_attempts, &mut stats.colored_steals)
        } else {
            (&mut stats.random_attempts, &mut stats.random_steals)
        };
        *attempts += 1;
        let v = attempt.victim;
        let Some(front) = self.deques[v].front() else {
            return Outcome::Empty;
        };
        if attempt.colored && !front.colors().intersects(self.thieves[c].accept()) {
            return Outcome::Declined;
        }
        let batch = self.deques[v].pop_front().expect("peeked");
        *steals += 1;
        *now += cost.steal_transfer;
        stats.idle += *now - t;
        // The stolen batch is in the thief's hands — process it directly
        // (it must not be stealable in flight, or two idle cores can
        // ping-pong it forever without either resume firing).
        self.process(c, *now, batch);
        Outcome::Stolen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial_ticks;
    use nabbitc_graph::generate;

    fn total_executed(r: &SimResult) -> u64 {
        r.cores.iter().map(|c| c.executed).sum()
    }

    #[test]
    fn executes_every_node() {
        let g = generate::layered_random(10, 20, 3, (50, 200), 8, 1);
        let r = simulate_ws(&g, &WsConfig::nabbitc(8));
        assert_eq!(total_executed(&r), g.node_count() as u64);
        assert!(r.makespan > 0);
    }

    #[test]
    #[should_panic(expected = "topology with 4 cores cannot place 8 workers")]
    fn topology_with_fewer_cores_than_workers_panics() {
        let mut cfg = WsConfig::nabbitc(8);
        cfg.topology = Topology::new(1, 4);
        simulate_ws(&generate::chain(4, 1, 1), &cfg);
    }

    #[test]
    fn deterministic() {
        let g = generate::layered_random(10, 20, 3, (50, 200), 8, 2);
        let a = simulate_ws(&g, &WsConfig::nabbitc(8));
        let b = simulate_ws(&g, &WsConfig::nabbitc(8));
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.remote, b.remote);
        assert_eq!(a.cores, b.cores);
    }

    #[test]
    fn single_core_close_to_serial() {
        let g = generate::independent(200, 100, 1);
        let cfg = WsConfig::nabbitc(1);
        let r = simulate_ws(&g, &cfg);
        let serial = serial_ticks(&g, &cfg.cost);
        assert!(r.makespan >= serial, "sim cannot beat serial");
        assert!(
            (r.makespan as f64) < serial as f64 * 1.5,
            "single-core overhead should be modest: {} vs {}",
            r.makespan,
            serial
        );
    }

    #[test]
    fn speedup_grows_with_cores() {
        // The paper's setup: data is distributed across the P cores in use,
        // so the number of colors equals the core count of each run.
        let cost = CostModel::default();
        let serial = serial_ticks(&generate::independent(4000, 500, 1), &cost);
        let g10 = generate::independent(4000, 500, 10);
        let g40 = generate::independent(4000, 500, 40);
        let s10 = simulate_ws(&g10, &WsConfig::nabbitc(10)).speedup(serial);
        let s40 = simulate_ws(&g40, &WsConfig::nabbitc(40)).speedup(serial);
        assert!(s10 > 4.0, "10-core speedup too low: {s10}");
        assert!(s40 > s10, "speedup should grow: {s40} <= {s10}");
    }

    #[test]
    fn nabbitc_has_fewer_remote_accesses_than_nabbit() {
        // Regular iterated stencil across 4 domains: the heart of Fig. 7.
        let cores = 40;
        let g = generate::iterated_stencil(8, 400, 200, cores);
        let c = simulate_ws(&g, &WsConfig::nabbitc(cores));
        let nb = simulate_ws(&g, &WsConfig::nabbit(cores));
        assert!(
            c.remote.pct_remote() < nb.remote.pct_remote(),
            "NabbitC {}% vs Nabbit {}%",
            c.remote.pct_remote(),
            nb.remote.pct_remote()
        );
        assert!(
            c.remote.pct_remote() < 25.0,
            "NabbitC remote% too high: {}",
            c.remote.pct_remote()
        );
        assert!(
            nb.remote.pct_remote() > 30.0,
            "Nabbit remote% too low: {}",
            nb.remote.pct_remote()
        );
    }

    #[test]
    fn nabbitc_fewer_successful_steals() {
        // Fig. 8: forcing good first steals means thieves grab big chunks.
        let cores = 40;
        let g = generate::iterated_stencil(8, 400, 200, cores);
        let c = simulate_ws(&g, &WsConfig::nabbitc(cores));
        let nb = simulate_ws(&g, &WsConfig::nabbit(cores));
        assert!(
            c.avg_successful_steals() < nb.avg_successful_steals(),
            "NabbitC {} vs Nabbit {}",
            c.avg_successful_steals(),
            nb.avg_successful_steals()
        );
    }

    #[test]
    fn invalid_coloring_completes_and_matches_nabbit_shape() {
        // Table III: all nodes invalid ⇒ every colored steal fails.
        let cores = 20;
        let mut g = generate::iterated_stencil(6, 200, 200, cores);
        g.recolor(|_, _| Color::INVALID);
        let mut cfg = WsConfig::nabbitc(cores);
        cfg.policy.first_steal_max_declined = 200;
        let r = simulate_ws(&g, &cfg);
        assert_eq!(total_executed(&r), g.node_count() as u64);
        assert_eq!(
            r.cores.iter().map(|c| c.colored_steals).sum::<u64>(),
            0,
            "no colored steal can succeed with invalid colors"
        );
        assert!(r.cores.iter().map(|c| c.random_steals).sum::<u64>() > 0);
    }

    #[test]
    fn forced_first_steal_is_charged_for_declined_work_only() {
        // Every node is of color 0, so cores 1 and 2 can only decline what
        // core 0 holds — and find nothing when they probe each other. Each
        // leaves the forcing on its eighth declined probe, however many
        // empty deques it looked into on the way.
        let mut b = nabbitc_graph::GraphBuilder::new();
        let source = b.add_simple_node(1_000, Color(0), 0);
        for _ in 0..64 {
            let leaf = b.add_simple_node(5_000, Color(0), 0);
            b.add_edge(source, leaf);
        }
        let g = b.build().unwrap();
        let mut cfg = WsConfig::nabbitc(3);
        cfg.policy.first_steal_max_declined = 8;
        let r = simulate_ws(&g, &cfg);
        assert_eq!(total_executed(&r), 65);
        for thief in &r.cores[1..] {
            assert_eq!(thief.first_steal_declined, 8);
            assert_eq!(thief.first_steal_escapes, 1);
            assert!(thief.first_steal_checks >= 8);
            assert!(thief.executed > 0, "an escaped core helps");
        }
        let (checks, declined) = r.cores[1..].iter().fold((0, 0), |(c, d), t| {
            (c + t.first_steal_checks, d + t.first_steal_declined)
        });
        assert!(checks > declined, "no probe of an empty deque in {checks}");
    }

    #[test]
    fn zero_patience_never_forces_a_probe() {
        // A budget of zero declined probes: the forcing never starts, so
        // no probe is forced, none declined and none escapes.
        let g = generate::iterated_stencil(6, 200, 200, 8);
        let mut cfg = WsConfig::nabbitc(8);
        cfg.policy.first_steal_max_declined = 0;
        let r = simulate_ws(&g, &cfg);
        assert_eq!(total_executed(&r), g.node_count() as u64);
        for core in &r.cores {
            assert_eq!(
                (
                    core.first_steal_checks,
                    core.first_steal_declined,
                    core.first_steal_escapes
                ),
                (0, 0, 0)
            );
        }
        assert!(r.cores.iter().map(|c| c.colored_attempts).sum::<u64>() > 0);
    }

    #[test]
    fn forced_first_steal_waits_recorded() {
        let cores = 20;
        let g = generate::iterated_stencil(6, 200, 200, cores);
        let r = simulate_ws(&g, &WsConfig::nabbitc(cores));
        // Core 0 starts with the root (first_work == 0); every other core
        // must wait at least one steal check.
        assert_eq!(r.cores[0].first_work, 0);
        let waited = r.cores[1..].iter().filter(|c| c.first_work > 0).count();
        assert_eq!(waited, cores - 1);
    }

    #[test]
    fn chain_graph_is_serialized() {
        let g = generate::chain(100, 100, 4);
        let cfg = WsConfig::nabbitc(4);
        let r = simulate_ws(&g, &cfg);
        // A chain cannot go faster than its span.
        let serial = serial_ticks(&g, &cfg.cost);
        assert!(r.makespan >= serial);
    }

    #[test]
    fn uma_topology_no_remote() {
        let g = generate::iterated_stencil(5, 50, 100, 8);
        let mut cfg = WsConfig::nabbitc(8);
        cfg.topology = Topology::uma(8);
        let r = simulate_ws(&g, &cfg);
        assert_eq!(r.remote.pct_remote(), 0.0);
    }
}
