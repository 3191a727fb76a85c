//! Simulation results.

use nabbitc_runtime::RemoteAccessReport;

/// Per-core simulated statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Nodes (or loop iterations) executed.
    pub executed: u64,
    /// Ticks spent executing work.
    pub busy: u64,
    /// Ticks spent idle (steal loop, back-off, barrier waits).
    pub idle: u64,
    /// Colored steal attempts.
    pub colored_attempts: u64,
    /// Successful colored steals.
    pub colored_steals: u64,
    /// Random steal attempts.
    pub random_attempts: u64,
    /// Successful random steals.
    pub random_steals: u64,
    /// Tick at which the core first acquired work.
    pub first_work: u64,
    /// Probes made while the forced first colored steal was pending (the
    /// `C` of Theorem 1), whatever they found.
    pub first_steal_checks: u64,
    /// Of those, probes that found a victim with work of another color
    /// (what `first_steal_max_declined` is charged).
    pub first_steal_declined: u64,
    /// 1 if the core spent that budget and gave up forcing, else 0.
    pub first_steal_escapes: u64,
}

impl CoreStats {
    /// Successful steals of either kind.
    pub fn successful_steals(&self) -> u64 {
        self.colored_steals + self.random_steals
    }
}

/// Result of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    /// Completion time in ticks.
    pub makespan: u64,
    /// Per-core statistics.
    pub cores: Vec<CoreStats>,
    /// Remote-access accounting (§V-B metric at node granularity).
    pub remote: RemoteAccessReport,
}

impl SimResult {
    /// Total nodes executed.
    pub fn total_executed(&self) -> u64 {
        self.cores.iter().map(|c| c.executed).sum()
    }

    /// Average successful steals per core (Figure 8 y-axis).
    pub fn avg_successful_steals(&self) -> f64 {
        if self.cores.is_empty() {
            return 0.0;
        }
        self.cores
            .iter()
            .map(|c| c.successful_steals())
            .sum::<u64>() as f64
            / self.cores.len() as f64
    }

    /// Average first-work acquisition tick (Figure 9 y-axis, in ticks).
    pub fn avg_first_work(&self) -> f64 {
        if self.cores.is_empty() {
            return 0.0;
        }
        self.cores.iter().map(|c| c.first_work).sum::<u64>() as f64 / self.cores.len() as f64
    }

    /// Speedup relative to a serial time.
    pub fn speedup(&self, serial_ticks: u64) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        serial_ticks as f64 / self.makespan as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let r = SimResult {
            makespan: 50,
            cores: vec![
                CoreStats {
                    executed: 3,
                    colored_steals: 2,
                    random_steals: 1,
                    first_work: 10,
                    ..Default::default()
                },
                CoreStats {
                    executed: 7,
                    first_work: 20,
                    ..Default::default()
                },
            ],
            remote: RemoteAccessReport {
                node_total: 2,
                node_remote: 1,
                pred_total: 8,
                pred_remote: 3,
            },
        };
        assert_eq!(r.total_executed(), 10);
        assert_eq!(r.avg_successful_steals(), 1.5);
        assert_eq!(r.avg_first_work(), 15.0);
        assert_eq!(r.speedup(100), 2.0);
        assert!((r.remote.pct_remote() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_result() {
        let r = SimResult::default();
        assert_eq!(r.avg_successful_steals(), 0.0);
        assert_eq!(r.speedup(100), 0.0);
        assert_eq!(r.remote.pct_remote(), 0.0);
    }
}
