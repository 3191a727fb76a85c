//! Persistent thread team running a task graph as barrier-separated loops.

use nabbitc_core::metrics::{RemoteAccessReport, RemoteCounters};
use nabbitc_graph::analysis::hop_levels;
use nabbitc_graph::{NodeId, TaskGraph};
use nabbitc_runtime::sync::{AtomicUsize, Ordering};
use nabbitc_runtime::{OmpSchedule, Topology};
// Condvar has no loom shim; the team's park/wake protocol stays on
// parking_lot and is allowlisted by the lint facade-conformance pass.
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

type Job = dyn Fn(usize) + Sync;

struct State {
    epoch: u64,
    /// Job for the current epoch. The `'static` is a lie told to the type
    /// system: the reference lives exactly as long as the submitting
    /// `parallel_for` frame, which cannot return until `remaining == 0`.
    job: Option<&'static Job>,
    remaining: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// A persistent, logically pinned OpenMP-style thread team.
///
/// Thread `t` has color `t` and NUMA domain `t / cores_per_domain`. The
/// team executes one loop at a time; [`run_graph`](Self::run_graph)
/// returns after its last loop's closing barrier.
pub struct Team {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    size: usize,
    topology: Topology,
    submit_lock: Mutex<()>,
}

impl Team {
    /// Spawns a team of `size` threads on `topology`. Panics unless
    /// `topology` has a core for each thread.
    pub fn new(size: usize, topology: Topology) -> Team {
        assert!(size > 0, "team needs at least one thread");
        assert!(
            topology.cores() >= size,
            "topology with {} cores cannot place {size} workers",
            topology.cores()
        );
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let threads = (0..size)
            .map(|t| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("omp-team-{t}"))
                    .spawn(move || team_member(shared, t))
                    .expect("failed to spawn team thread")
            })
            .collect();
        Team {
            shared,
            threads,
            size,
            topology,
            submit_lock: Mutex::new(()),
        }
    }

    /// Convenience: a UMA team (no remote accesses possible).
    pub fn uma(size: usize) -> Team {
        Team::new(size, Topology::uma(size.max(1)))
    }

    /// Number of threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The team topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Runs `graph` as the OpenMP program of it: one parallel loop per
    /// hop-count level ([`hop_levels`]) under `schedule`, its iterations
    /// the level's nodes in `NodeId` order, each loop closed by a barrier.
    /// Thread `t` runs node `u` as `kernel(u, t)`, the call the task-graph
    /// executors make with their worker id. Returns the run's §V-B count,
    /// taken as `StaticExecutor` takes it: each node by its color, and each
    /// of its predecessors by theirs, against the executing thread's domain.
    pub fn run_graph<K>(
        &self,
        graph: &TaskGraph,
        schedule: OmpSchedule,
        kernel: &K,
    ) -> RemoteAccessReport
    where
        K: Fn(NodeId, usize) + Sync,
    {
        let counters = RemoteCounters::new(self.topology.clone(), self.size);
        for level in hop_levels(graph) {
            self.parallel_for(level.len(), schedule, |i, t| {
                let u = level[i];
                counters.record_node(
                    t,
                    graph.color(u),
                    graph.predecessors(u).iter().map(|&p| graph.color(p)),
                );
                kernel(u, t);
            });
        }
        counters.report()
    }

    /// Runs `body(iteration, thread)` for every iteration in `0..n` under
    /// `schedule`, blocking until the implicit closing barrier.
    fn parallel_for<F>(&self, n: usize, schedule: OmpSchedule, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let threads = self.size;
        let counter = AtomicUsize::new(0);
        let runner = move |t: usize| match schedule {
            OmpSchedule::Static => {
                for i in OmpSchedule::static_range(n, threads, t) {
                    body(i, t);
                }
            }
            OmpSchedule::Guided => loop {
                // ORDERING counter.load: Relaxed — guided self-scheduling
                // reads the cursor only to size its next chunk; the
                // fetch_add below is the actual claim, so a stale read can
                // only mis-size
                let cur = counter.load(Ordering::Relaxed);
                if cur >= n {
                    break;
                }
                let take = OmpSchedule::guided_chunk(n - cur, threads);
                // ORDERING counter.fetch_add: Relaxed — chunk-claim cursor;
                // the claim needs atomicity only — iteration data is
                // published by the team's mutex/condvar job handoff, not
                // through this counter
                let lo = counter.fetch_add(take, Ordering::Relaxed);
                if lo >= n {
                    break;
                }
                for i in lo..(lo + take).min(n) {
                    body(i, t);
                }
            },
        };
        self.run_team(&runner);
    }

    fn run_team(&self, job: &(dyn Fn(usize) + Sync)) {
        let _submit = self.submit_lock.lock();
        // SAFETY: `job` outlives this frame, and this frame does not return
        // until every team thread has finished calling it (`remaining`
        // reaches zero below). The 'static transmute never escapes: the
        // slot is cleared before return.
        let job_static: &'static Job = unsafe { std::mem::transmute(job) };
        {
            let mut st = self.shared.state.lock();
            st.job = Some(job_static);
            st.remaining = self.size;
            st.epoch += 1;
            self.shared.work_cv.notify_all();
        }
        let mut st = self.shared.state.lock();
        while st.remaining > 0 {
            self.shared.done_cv.wait(&mut st);
        }
        st.job = None;
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn team_member(shared: Arc<Shared>, t: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock();
            while st.epoch == seen && !st.shutdown {
                shared.work_cv.wait(&mut st);
            }
            if st.shutdown {
                return;
            }
            seen = st.epoch;
            st.job.expect("epoch bumped without a job")
        };
        job(t);
        {
            let mut st = shared.state.lock();
            st.remaining -= 1;
            if st.remaining == 0 {
                shared.done_cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_color::Color;
    use nabbitc_graph::{generate, GraphBuilder};
    use std::sync::atomic::{AtomicBool, AtomicU32};

    fn coverage(team: &Team, n: usize, schedule: OmpSchedule) -> Vec<u32> {
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        team.parallel_for(n, schedule, |i, _t| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        hits.into_iter().map(|h| h.into_inner()).collect()
    }

    /// Two loops of `n` nodes, node `i` of each colored `color(i)`, node
    /// `i` of the second reading node `i` of the first.
    fn two_loops(n: usize, color: impl Fn(usize) -> Color) -> TaskGraph {
        let mut gb = GraphBuilder::with_capacity(2 * n, n);
        for _ in 0..2 {
            for i in 0..n {
                gb.add_node(1, color(i), []);
            }
        }
        for i in 0..n {
            gb.add_edge(i as NodeId, (n + i) as NodeId);
        }
        gb.build().expect("two levels")
    }

    #[test]
    fn static_covers_every_iteration_once() {
        let team = Team::uma(4);
        for n in [0usize, 1, 3, 4, 17, 1000] {
            assert!(coverage(&team, n, OmpSchedule::Static)
                .iter()
                .all(|&c| c == 1));
        }
    }

    #[test]
    #[should_panic(expected = "topology with 4 cores cannot place 8 workers")]
    fn topology_with_fewer_cores_than_workers_panics() {
        let _ = Team::new(8, Topology::new(1, 4));
    }

    #[test]
    fn guided_covers_every_iteration_once() {
        let team = Team::uma(4);
        for n in [0usize, 1, 5, 100, 10_000] {
            assert!(
                coverage(&team, n, OmpSchedule::Guided)
                    .iter()
                    .all(|&c| c == 1),
                "n={n}"
            );
        }
    }

    #[test]
    fn more_threads_than_iterations() {
        let team = Team::uma(8);
        for schedule in [OmpSchedule::Static, OmpSchedule::Guided] {
            assert!(coverage(&team, 3, schedule).iter().all(|&c| c == 1));
        }
    }

    #[test]
    fn static_mapping_is_stable_across_loops() {
        let team = Team::uma(4);
        let n = 100;
        let owner1: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let owner2: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
        team.parallel_for(n, OmpSchedule::Static, |i, t| {
            owner1[i].store(t, Ordering::SeqCst);
        });
        team.parallel_for(n, OmpSchedule::Static, |i, t| {
            owner2[i].store(t, Ordering::SeqCst);
        });
        for i in 0..n {
            assert_eq!(
                owner1[i].load(Ordering::SeqCst),
                owner2[i].load(Ordering::SeqCst),
                "iteration {i} must stay on the same thread"
            );
        }
    }

    #[test]
    fn run_graph_orders_every_dependence() {
        // A panic on a team thread would hang the team, so the kernel only
        // records what it saw and the test asserts afterwards.
        let team = Team::uma(4);
        let g = generate::wavefront(12, 9, 1, 4);
        for schedule in [OmpSchedule::Static, OmpSchedule::Guided] {
            let runs: Vec<AtomicU32> = g.nodes().map(|_| AtomicU32::new(0)).collect();
            let early = AtomicBool::new(false);
            let report = team.run_graph(&g, schedule, &|u: NodeId, _t| {
                if g.predecessors(u)
                    .iter()
                    .any(|&p| runs[p as usize].load(Ordering::SeqCst) == 0)
                {
                    early.store(true, Ordering::SeqCst);
                }
                runs[u as usize].fetch_add(1, Ordering::SeqCst);
            });
            assert!(
                !early.load(Ordering::SeqCst),
                "a node ran before a predecessor"
            );
            assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
            assert_eq!(report.node_total, g.node_count() as u64);
            assert_eq!(report.pred_total, g.edge_count() as u64);
        }
    }

    #[test]
    fn static_with_matching_colors_has_zero_remote() {
        // 2 domains x 2 threads; color node i of each loop by its static
        // owner: first-touch locality => 0% remote, the OPENMPSTATIC
        // property, for the nodes and for the predecessors they read.
        let team = Team::new(4, Topology::new(2, 2));
        let n = 1000;
        let g = two_loops(n, |i| {
            let t = (0..4)
                .find(|&t| OmpSchedule::static_range(n, 4, t).contains(&i))
                .expect("iteration in exactly one static range");
            Color::from(t)
        });
        let report = team.run_graph(&g, OmpSchedule::Static, &|_u, _t| {});
        assert_eq!(report.pct_remote(), 0.0);
        assert_eq!(report.node_total, 2 * n as u64);
        assert_eq!(report.pred_total, n as u64);
    }

    #[test]
    fn guided_with_block_colors_incurs_remote() {
        // Guided scheduling ignores locality; with data block-colored to
        // domains, some nodes will (almost surely) run remotely.
        let team = Team::new(4, Topology::new(2, 2));
        let n = 50_000;
        let g = two_loops(n, |i| Color::from(i * 4 / n));
        let report = team.run_graph(&g, OmpSchedule::Guided, &|_u, _t| {
            std::hint::black_box(0u64);
        });
        assert_eq!(report.node_total, 2 * n as u64);
        // Cannot be deterministic, but with 100k nodes and adaptive
        // chunks the chance of a perfectly local assignment is nil.
        assert!(report.pct_remote() > 0.0);
    }

    #[test]
    fn team_is_reusable_many_times() {
        let team = Team::uma(4);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            team.parallel_for(50, OmpSchedule::Static, |_i, _t| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 5000);
    }

    #[test]
    fn zero_iterations_is_fine() {
        let team = Team::uma(2);
        team.parallel_for(0, OmpSchedule::Static, |_i, _t| {
            panic!("no iterations should run")
        });
    }
}
