//! Persistent thread team executing parallel-for loops.

use crate::schedule::Schedule;
use nabbitc_color::Color;
use nabbitc_core::metrics::{RemoteAccessReport, RemoteCounters};
use nabbitc_runtime::sync::{AtomicUsize, Ordering};
use nabbitc_runtime::Topology;
// Condvar has no loom shim; the team's park/wake protocol stays on
// parking_lot and is allowlisted by the lint facade-conformance pass.
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of one counted parallel loop.
#[derive(Debug)]
pub struct ForReport {
    /// Wall-clock time of the loop (including the closing barrier).
    pub elapsed: Duration,
    /// Remote accesses under the §V-B metric.
    pub remote: RemoteAccessReport,
}

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
/// team executes one loop at a time; `parallel_for` blocks until the loop's
/// implicit closing barrier.
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

    /// Runs `body(iteration, thread)` for every iteration in `0..n` under
    /// `schedule`, blocking until the implicit closing barrier.
    pub fn parallel_for<F>(&self, n: usize, schedule: Schedule, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let threads = self.size;
        let counter = AtomicUsize::new(0);
        let runner = move |t: usize| match schedule {
            Schedule::Static => {
                for i in Schedule::static_range(n, threads, t) {
                    body(i, t);
                }
            }
            Schedule::StaticChunk(chunk) => {
                let chunk = chunk.max(1);
                let mut lo = t * chunk;
                while lo < n {
                    for i in lo..(lo + chunk).min(n) {
                        body(i, t);
                    }
                    lo += threads * chunk;
                }
            }
            Schedule::Guided { min_chunk } => {
                let min_chunk = min_chunk.max(1);
                loop {
                    // Grab max(remaining/threads, min_chunk) at once.
                    let take = {
                        // ORDERING counter.load: Relaxed — guided
                        // self-scheduling reads the cursor only to size its
                        // next chunk; the fetch_add below is the actual claim,
                        // so a stale read can only mis-size
                        let cur = counter.load(Ordering::Relaxed);
                        if cur >= n {
                            break;
                        }
                        ((n - cur) / threads).max(min_chunk)
                    };
                    // ORDERING counter.fetch_add: Relaxed — chunk-claim cursor
                    // (two sites: guided + dynamic schedules); the claim needs
                    // atomicity only — iteration data is published by the
                    // team's mutex/condvar job handoff, not through this
                    // counter
                    let lo = counter.fetch_add(take, Ordering::Relaxed);
                    if lo >= n {
                        break;
                    }
                    for i in lo..(lo + take).min(n) {
                        body(i, t);
                    }
                }
            }
            Schedule::Dynamic { chunk } => {
                let chunk = chunk.max(1);
                loop {
                    let lo = counter.fetch_add(chunk, Ordering::Relaxed);
                    if lo >= n {
                        break;
                    }
                    for i in lo..(lo + chunk).min(n) {
                        body(i, t);
                    }
                }
            }
        };
        self.run_team(&runner);
    }

    /// Like [`parallel_for`](Self::parallel_for) but also counts remote
    /// accesses: iteration `i` is an access to data colored
    /// `iter_color(i)` by the executing thread.
    pub fn parallel_for_counted<F, C>(
        &self,
        n: usize,
        schedule: Schedule,
        iter_color: C,
        body: F,
    ) -> ForReport
    where
        F: Fn(usize, usize) + Sync,
        C: Fn(usize) -> Color + Sync,
    {
        let counters = RemoteCounters::new(self.topology.clone(), self.size);
        let started = Instant::now();
        self.parallel_for(n, schedule, |i, t| {
            counters.record_node(t, iter_color(i), std::iter::empty());
            body(i, t);
        });
        ForReport {
            elapsed: started.elapsed(),
            remote: counters.report(),
        }
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
    use std::sync::atomic::AtomicU32;

    fn coverage(team: &Team, n: usize, schedule: Schedule) -> Vec<u32> {
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        team.parallel_for(n, schedule, |i, _t| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        hits.into_iter().map(|h| h.into_inner()).collect()
    }

    #[test]
    fn static_covers_every_iteration_once() {
        let team = Team::uma(4);
        for n in [0usize, 1, 3, 4, 17, 1000] {
            assert!(coverage(&team, n, Schedule::Static).iter().all(|&c| c == 1));
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
                coverage(&team, n, Schedule::guided())
                    .iter()
                    .all(|&c| c == 1),
                "n={n}"
            );
        }
    }

    #[test]
    fn dynamic_covers_every_iteration_once() {
        let team = Team::uma(3);
        for chunk in [1usize, 7, 100] {
            assert!(coverage(&team, 1000, Schedule::Dynamic { chunk })
                .iter()
                .all(|&c| c == 1));
        }
    }

    #[test]
    fn static_chunk_covers_every_iteration_once() {
        let team = Team::uma(3);
        for chunk in [1usize, 4, 9] {
            assert!(coverage(&team, 100, Schedule::StaticChunk(chunk))
                .iter()
                .all(|&c| c == 1));
        }
    }

    #[test]
    fn more_threads_than_iterations() {
        let team = Team::uma(8);
        assert!(coverage(&team, 3, Schedule::Static).iter().all(|&c| c == 1));
        assert!(coverage(&team, 3, Schedule::guided())
            .iter()
            .all(|&c| c == 1));
    }

    #[test]
    fn static_mapping_is_stable_across_loops() {
        let team = Team::uma(4);
        let n = 100;
        let owner1: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let owner2: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
        team.parallel_for(n, Schedule::Static, |i, t| {
            owner1[i].store(t, Ordering::SeqCst);
        });
        team.parallel_for(n, Schedule::Static, |i, t| {
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
    fn static_with_matching_colors_has_zero_remote() {
        // 2 domains x 2 threads; color iteration i by its static owner:
        // first-touch locality => 0% remote, the OPENMPSTATIC property.
        let team = Team::new(4, Topology::new(2, 2));
        let n = 1000;
        let report = team.parallel_for_counted(
            n,
            Schedule::Static,
            |i| {
                let t = (0..4)
                    .find(|&t| Schedule::static_range(n, 4, t).contains(&i))
                    .expect("iteration in exactly one static range");
                Color::from(t)
            },
            |_i, _t| {},
        );
        assert_eq!(report.remote.pct_remote(), 0.0);
        assert_eq!(report.remote.node_total, n as u64);
    }

    #[test]
    fn guided_with_block_colors_incurs_remote() {
        // Guided scheduling ignores locality; with data block-colored to
        // domains, some iterations will (almost surely) run remotely.
        let team = Team::new(4, Topology::new(2, 2));
        let n = 100_000;
        let report = team.parallel_for_counted(
            n,
            Schedule::guided(),
            |i| Color::from(i * 4 / n),
            |_i, _t| {
                std::hint::black_box(0u64);
            },
        );
        assert!(report.remote.node_total == n as u64);
        // Cannot be deterministic, but with 100k iterations and adaptive
        // chunks the chance of a perfectly local assignment is nil.
        assert!(report.remote.pct_remote() > 0.0);
    }

    #[test]
    fn team_is_reusable_many_times() {
        let team = Team::uma(4);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            team.parallel_for(50, Schedule::Static, |_i, _t| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 5000);
    }

    #[test]
    fn zero_iterations_is_fine() {
        let team = Team::uma(2);
        team.parallel_for(0, Schedule::Static, |_i, _t| {
            panic!("no iterations should run")
        });
    }
}
