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

use crate::sync::{
    AtomicU64,
    Ordering::{Acquire, Relaxed},
};
use crossbeam_utils::CachePadded;

/// Live atomic counters for one worker (runtime-internal).
#[derive(Default)]
pub(crate) struct WorkerStats {
    pub tasks_executed: CachePadded<AtomicU64>,
    pub colored_steal_attempts: CachePadded<AtomicU64>,
    pub colored_steals: CachePadded<AtomicU64>,
    pub random_steal_attempts: CachePadded<AtomicU64>,
    pub random_steals: CachePadded<AtomicU64>,
    /// Colored checks made while satisfying the forced first steal (the
    /// quantity `C` in Theorem 1): every forced probe, whatever it found.
    pub first_steal_checks: CachePadded<AtomicU64>,
    /// Of those checks, the ones that found stealable work of another
    /// color and declined it — what
    /// [`StealPolicy::first_steal_max_declined`](crate::StealPolicy::first_steal_max_declined)
    /// is charged.
    pub first_steal_declined: CachePadded<AtomicU64>,
    /// Jobs in which this worker ran out of that patience and gave up
    /// forcing (0 or 1 per job).
    pub first_steal_escapes: CachePadded<AtomicU64>,
    /// Nanoseconds from job start until this worker first acquired work.
    pub first_work_wait_ns: CachePadded<AtomicU64>,
    /// Total nanoseconds spent in the steal loop (idle).
    pub idle_ns: CachePadded<AtomicU64>,
    /// Successful steals that claimed more than one task (steal-half
    /// batching took effect).
    pub batch_steals: CachePadded<AtomicU64>,
    /// Total tasks claimed by those batched steals (kept + moved local).
    pub batch_stolen_tasks: CachePadded<AtomicU64>,
    /// Task-shell requests served from the worker's arena free list.
    pub arena_hits: CachePadded<AtomicU64>,
    /// Task-shell requests that fell through to the allocator.
    pub arena_misses: CachePadded<AtomicU64>,
}

impl WorkerStats {
    pub(crate) fn reset(&self) {
        // ORDERING tasks_executed.store: Relaxed — reset happens between jobs
        // while workers are parked; atomicity only
        self.tasks_executed.store(0, Relaxed);
        // ORDERING colored_steal_attempts.store: Relaxed — quiescent reset; atomicity only
        self.colored_steal_attempts.store(0, Relaxed);
        // ORDERING colored_steals.store: Relaxed — quiescent reset; atomicity only
        self.colored_steals.store(0, Relaxed);
        // ORDERING random_steal_attempts.store: Relaxed — quiescent reset; atomicity only
        self.random_steal_attempts.store(0, Relaxed);
        // ORDERING random_steals.store: Relaxed — quiescent reset; atomicity only
        self.random_steals.store(0, Relaxed);
        // ORDERING first_steal_checks.store: Relaxed — quiescent reset; atomicity only
        self.first_steal_checks.store(0, Relaxed);
        // ORDERING first_steal_declined.store: Relaxed — quiescent reset; atomicity only
        self.first_steal_declined.store(0, Relaxed);
        // ORDERING first_steal_escapes.store: Relaxed — quiescent reset; atomicity only
        self.first_steal_escapes.store(0, Relaxed);
        // ORDERING first_work_wait_ns.store: Relaxed — quiescent reset; atomicity only
        self.first_work_wait_ns.store(0, Relaxed);
        // ORDERING idle_ns.store: Relaxed — quiescent reset; atomicity only
        self.idle_ns.store(0, Relaxed);
        // ORDERING batch_steals.store: Relaxed — quiescent reset; atomicity only
        self.batch_steals.store(0, Relaxed);
        // ORDERING batch_stolen_tasks.store: Relaxed — quiescent reset; atomicity only
        self.batch_stolen_tasks.store(0, Relaxed);
        // ORDERING arena_hits.store: Relaxed — quiescent reset; atomicity only
        self.arena_hits.store(0, Relaxed);
        // ORDERING arena_misses.store: Relaxed — quiescent reset; atomicity only
        self.arena_misses.store(0, Relaxed);
    }

    pub(crate) fn snapshot(&self) -> WorkerStatsSnapshot {
        // ORDERING colored_steals.load: Acquire; pairs
        // runtime/pool.rs::steal_attempt::steals.fetch_add — read before
        // the attempt counters; Acquire pairs with the Release increments so a
        // racy snapshot never shows steals > attempts: each success increment
        // is a Release that happens after its own attempt increment on the
        // same worker thread, so any success this snapshot observes implies
        // the matching attempt is visible too, per kind
        let colored_steals = self.colored_steals.load(Acquire);
        // ORDERING random_steals.load: Acquire; pairs
        // runtime/pool.rs::steal_attempt::steals.fetch_add — read before
        // the attempt counters; pairs with the Release increments
        let random_steals = self.random_steals.load(Acquire);
        WorkerStatsSnapshot {
            // ORDERING tasks_executed.load: Relaxed — monotone counter;
            // snapshot tolerates slight staleness
            tasks_executed: self.tasks_executed.load(Relaxed),
            // ORDERING colored_steal_attempts.load: Relaxed — read after the
            // Acquire on successes; may only overshoot, preserving the
            // invariant
            colored_steal_attempts: self.colored_steal_attempts.load(Relaxed),
            colored_steals,
            // ORDERING random_steal_attempts.load: Relaxed — read after the
            // Acquire on successes; may only overshoot
            random_steal_attempts: self.random_steal_attempts.load(Relaxed),
            random_steals,
            // ORDERING first_steal_checks.load: Relaxed — heuristic counter; staleness is fine
            first_steal_checks: self.first_steal_checks.load(Relaxed),
            // ORDERING first_steal_declined.load: Relaxed — Fig 9 companion
            // counter; staleness is fine
            first_steal_declined: self.first_steal_declined.load(Relaxed),
            // ORDERING first_steal_escapes.load: Relaxed — written at most once
            // per job; staleness is fine
            first_steal_escapes: self.first_steal_escapes.load(Relaxed),
            // ORDERING first_work_wait_ns.load: Relaxed — latency statistic
            // written once per job before the barrier
            first_work_wait_ns: self.first_work_wait_ns.load(Relaxed),
            // ORDERING idle_ns.load: Relaxed — idle-time statistic; staleness is fine
            idle_ns: self.idle_ns.load(Relaxed),
            // ORDERING batch_steals.load: Relaxed — reporting-only batching
            // counter; no cross-counter invariant to preserve
            batch_steals: self.batch_steals.load(Relaxed),
            // ORDERING batch_stolen_tasks.load: Relaxed — reporting-only
            // batching counter; staleness is fine
            batch_stolen_tasks: self.batch_stolen_tasks.load(Relaxed),
            // ORDERING arena_hits.load: Relaxed — reporting-only arena counter; staleness is fine
            arena_hits: self.arena_hits.load(Relaxed),
            // ORDERING arena_misses.load: Relaxed — reporting-only arena counter; staleness is fine
            arena_misses: self.arena_misses.load(Relaxed),
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
        s.tasks_executed.store(5, Relaxed);
        s.colored_steals.store(2, Relaxed);
        s.random_steals.store(1, Relaxed);
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
