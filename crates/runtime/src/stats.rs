//! Per-worker scheduler statistics.
//!
//! These counters regenerate the paper's Figure 8 (average successful
//! steals per worker), Figure 9 (idle time from forcing the first colored
//! steal), and the steal-overhead discussion in §V-C. The forced first
//! steal is told in three: every probe it made (`first_steal_checks`, the
//! `C` of Theorem 1), the probes that found work of another color and
//! declined it (`first_steal_declined`, what the policy's patience is
//! charged), and whether the worker ran out of that patience and gave up
//! forcing (`first_steal_escapes`).

use crate::sync::OwnedCounter;
use crossbeam_utils::CachePadded;

/// Live counters for one worker (runtime-internal). Each is written by
/// its worker's thread only ([`OwnedCounter`]) and reset by the pool
/// between jobs, while the workers are parked.
#[derive(Default)]
pub(crate) struct WorkerStats {
    pub tasks_executed: CachePadded<OwnedCounter>,
    pub colored_steal_attempts: CachePadded<OwnedCounter>,
    pub colored_steals: CachePadded<OwnedCounter>,
    pub random_steal_attempts: CachePadded<OwnedCounter>,
    pub random_steals: CachePadded<OwnedCounter>,
    /// Colored checks made while satisfying the forced first steal (the
    /// quantity `C` in Theorem 1): every forced probe, whatever it found.
    pub first_steal_checks: CachePadded<OwnedCounter>,
    /// Of those checks, the ones that found stealable work of another
    /// color and declined it — what
    /// [`StealPolicy::first_steal_max_declined`](crate::StealPolicy::first_steal_max_declined)
    /// is charged.
    pub first_steal_declined: CachePadded<OwnedCounter>,
    /// Jobs in which this worker ran out of that patience and gave up
    /// forcing (0 or 1 per job).
    pub first_steal_escapes: CachePadded<OwnedCounter>,
    /// Nanoseconds from job start until this worker first acquired work.
    pub first_work_wait_ns: CachePadded<OwnedCounter>,
    /// Total nanoseconds spent in the steal loop (idle).
    pub idle_ns: CachePadded<OwnedCounter>,
    /// Successful steals that claimed more than one task (steal-half
    /// batching took effect).
    pub batch_steals: CachePadded<OwnedCounter>,
    /// Total tasks claimed by those batched steals (kept + moved local).
    pub batch_stolen_tasks: CachePadded<OwnedCounter>,
    /// Task-shell requests served from the worker's arena free list.
    pub arena_hits: CachePadded<OwnedCounter>,
    /// Task-shell requests that fell through to the allocator.
    pub arena_misses: CachePadded<OwnedCounter>,
}

impl WorkerStats {
    /// Every counter of the worker, in one order for `reset`.
    fn all(&self) -> [&OwnedCounter; 14] {
        [
            &self.tasks_executed,
            &self.colored_steal_attempts,
            &self.colored_steals,
            &self.random_steal_attempts,
            &self.random_steals,
            &self.first_steal_checks,
            &self.first_steal_declined,
            &self.first_steal_escapes,
            &self.first_work_wait_ns,
            &self.idle_ns,
            &self.batch_steals,
            &self.batch_stolen_tasks,
            &self.arena_hits,
            &self.arena_misses,
        ]
    }

    /// Zeroes every counter; the pool calls it between jobs, with the
    /// workers parked.
    pub(crate) fn reset(&self) {
        for counter in self.all() {
            counter.set(0);
        }
    }

    /// A copy of the counters, safe to take mid-run. A success count is
    /// read before the attempt count of its kind: the worker stores the
    /// attempt before the success, so a snapshot never shows more steals
    /// than attempts (see [`OwnedCounter::set`]).
    pub(crate) fn snapshot(&self) -> WorkerStatsSnapshot {
        let colored_steals = self.colored_steals.get();
        let random_steals = self.random_steals.get();
        WorkerStatsSnapshot {
            tasks_executed: self.tasks_executed.get(),
            colored_steal_attempts: self.colored_steal_attempts.get(),
            colored_steals,
            random_steal_attempts: self.random_steal_attempts.get(),
            random_steals,
            first_steal_checks: self.first_steal_checks.get(),
            first_steal_declined: self.first_steal_declined.get(),
            first_steal_escapes: self.first_steal_escapes.get(),
            first_work_wait_ns: self.first_work_wait_ns.get(),
            idle_ns: self.idle_ns.get(),
            batch_steals: self.batch_steals.get(),
            batch_stolen_tasks: self.batch_stolen_tasks.get(),
            arena_hits: self.arena_hits.get(),
            arena_misses: self.arena_misses.get(),
        }
    }
}

/// Point-in-time copy of one worker's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStatsSnapshot {
    /// Tasks executed.
    pub tasks_executed: u64,
    /// Colored steal attempts (successful or not).
    pub colored_steal_attempts: u64,
    /// Successful colored steals.
    pub colored_steals: u64,
    /// Random (unconditional) steal attempts.
    pub random_steal_attempts: u64,
    /// Successful random steals.
    pub random_steals: u64,
    /// Checks performed while the forced first colored steal was pending.
    pub first_steal_checks: u64,
    /// Of those, probes that found stealable work of another color and
    /// declined it (what the escape hatch's budget is charged).
    pub first_steal_declined: u64,
    /// Jobs in which this worker spent that budget and gave up forcing.
    pub first_steal_escapes: u64,
    /// Time from job start to first acquired work, nanoseconds.
    pub first_work_wait_ns: u64,
    /// Total idle (steal-loop) time, nanoseconds.
    pub idle_ns: u64,
    /// Successful steals that moved more than one task (steal-half).
    pub batch_steals: u64,
    /// Tasks claimed by those batched steals (kept + moved local).
    pub batch_stolen_tasks: u64,
    /// Task shells served from the worker's arena free list.
    pub arena_hits: u64,
    /// Task shells that had to be heap-allocated.
    pub arena_misses: u64,
}

impl WorkerStatsSnapshot {
    /// All successful steals.
    pub fn successful_steals(&self) -> u64 {
        self.colored_steals + self.random_steals
    }

    /// All steal attempts.
    pub fn steal_attempts(&self) -> u64 {
        self.colored_steal_attempts + self.random_steal_attempts
    }
}

/// Aggregated statistics for a pool run.
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// Per-worker snapshots.
    pub workers: Vec<WorkerStatsSnapshot>,
}

impl PoolStats {
    /// Sum of tasks executed.
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_executed).sum()
    }

    /// Average successful steals per worker — the y-axis of Figure 8.
    pub fn avg_successful_steals(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        let total: u64 = self.workers.iter().map(|w| w.successful_steals()).sum();
        total as f64 / self.workers.len() as f64
    }

    /// Average first-work wait per worker in seconds — the y-axis of
    /// Figure 9.
    pub fn avg_first_work_wait_s(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        let total: u64 = self.workers.iter().map(|w| w.first_work_wait_ns).sum();
        total as f64 / self.workers.len() as f64 / 1e9
    }

    /// Total successful steals across workers.
    pub fn total_successful_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.successful_steals()).sum()
    }

    /// Total tasks moved by steal-half batching across workers.
    pub fn total_batch_stolen_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.batch_stolen_tasks).sum()
    }

    /// Total arena free-list hits across workers.
    pub fn total_arena_hits(&self) -> u64 {
        self.workers.iter().map(|w| w.arena_hits).sum()
    }

    /// Total arena misses (heap allocations) across workers.
    pub fn total_arena_misses(&self) -> u64 {
        self.workers.iter().map(|w| w.arena_misses).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip() {
        let s = WorkerStats::default();
        s.tasks_executed.add(5);
        s.colored_steals.add(2);
        s.random_steals.add(1);
        let snap = s.snapshot();
        assert_eq!(snap.tasks_executed, 5);
        assert_eq!(snap.successful_steals(), 3);
        s.reset();
        assert_eq!(s.snapshot(), WorkerStatsSnapshot::default());
    }

    #[test]
    fn pool_aggregates() {
        let stats = PoolStats {
            workers: vec![
                WorkerStatsSnapshot {
                    tasks_executed: 10,
                    colored_steals: 4,
                    random_steals: 0,
                    first_work_wait_ns: 2_000_000_000,
                    ..Default::default()
                },
                WorkerStatsSnapshot {
                    tasks_executed: 20,
                    colored_steals: 0,
                    random_steals: 2,
                    first_work_wait_ns: 0,
                    ..Default::default()
                },
            ],
        };
        assert_eq!(stats.total_tasks(), 30);
        assert_eq!(stats.avg_successful_steals(), 3.0);
        assert!((stats.avg_first_work_wait_s() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_pool_stats_are_zero() {
        let stats = PoolStats::default();
        assert_eq!(stats.avg_successful_steals(), 0.0);
        assert_eq!(stats.avg_first_work_wait_s(), 0.0);
    }
}
