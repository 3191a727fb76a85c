//! Steal policy knobs.

/// Configuration of the steal path, §III ("Colored Steals").
///
/// The paper's policy: when a worker runs out of local work it makes a
/// constant number of *colored* steal attempts (take the top continuation
/// of a random victim only if it contains the thief's color) and, failing
/// those, one unconditional random steal — preserving the provable load
/// balance of randomized work stealing. Additionally, the *first* steal a
/// worker performs in a computation is forced to be a successful colored
/// steal, because the first steal typically acquires a large chunk of the
/// task graph and a random first steal can doom locality for the whole run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StealPolicy {
    /// Number of colored steal attempts before each random attempt (the
    /// paper's "constant number"; default 4).
    pub colored_attempts: usize,
    /// Match granularity for colored steals: exact worker color (the
    /// paper's default), or any color in the thief's NUMA domain ("multiple
    /// nearby cores can have the same color" — coarser matching trades a
    /// little locality precision for more colored-steal hits).
    pub match_domain: bool,
    /// Whether to force the first steal to be colored (NabbitC: true;
    /// vanilla Nabbit: false — along with `colored_attempts = 0` this
    /// recovers plain randomized work stealing).
    pub force_first_colored: bool,
    /// Escape hatch for the forced first steal: how many *declined* probes
    /// a worker spends on it — per worker, per job; a reused pool starts
    /// every job's count at zero — before it falls back to the normal
    /// policy (colored attempts, then a random one).
    ///
    /// A probe is declined when the victim had stealable work and its
    /// oldest entry did not carry one of the thief's colors: work the
    /// forcing turned down, which is what forcing costs. A probe that found
    /// the victim empty (or lost a race) is no evidence about the coloring —
    /// the root is still running, the job has barely begun or is nearly
    /// over — so it is free: however long the root node runs, it cannot
    /// spend the budget. The threaded pool (`pool.rs`) and the simulator
    /// (`numasim::wsim`) both implement exactly this sentence.
    ///
    /// The paper assumes "at least one node from each color connected to
    /// the root". Where that holds, a worker that starts a job empty-handed
    /// finds its color on top of the root's deque and declines nothing;
    /// where it does not — an adversarial
    /// coloring (Table III: every colored steal fails), or a wavefront
    /// whose row-block coloring puts a single color at the source — a
    /// literal forcing idles the worker for as long as the frontier stays
    /// away from its color, so the bound is what lets it help in the
    /// meantime. A budget of evidence lasts longer where evidence is rare:
    /// on `P` workers of which few hold work, one declined probe stands for
    /// about `P`/busy probes. See [`StealPolicy::nabbitc`] for the default
    /// and the measurement behind it.
    pub first_steal_max_declined: u64,
}

impl StealPolicy {
    /// NabbitC defaults: colored steals on, forced first steal on, and a
    /// patience of `1 << 16` declined probes for it.
    ///
    /// The measurement behind the number (two workers on the 2-core build
    /// host, the repo benchmark, ≈ 28 ns a declined probe, so `1 << 16` is
    /// ≈ 1.8 ms of turning work down; `CHANGES.md`, PR 22). Where the
    /// paper's premise holds — the `heat-*` workloads and `pagerank-auto`
    /// have a node of every color among the sources — a worker that starts
    /// a job empty-handed declines *nothing* (0 in ≈ 1 900 operations): it
    /// finds the continuation of its own color on top of the root's deque,
    /// or finds the deque empty. No bound is too small for that steal.
    /// Where the premise fails — `sw-wavefront`'s row blocks put one color
    /// at the single source, lint NL010 — a worker has nothing to succeed
    /// on for the first quarter of the job, a third of the operation's
    /// length with the other worker alone; `1 << 16` is the largest power
    /// of two that keeps its wait under 1 % of the operation
    /// (`exec_p50_ms` −20 % against a bound it cannot reach; `1 << 18`
    /// measures the same within noise, `1 << 20` gives a quarter of the
    /// gain back). The other steal the bound ends is a worker's
    /// *late* first steal: the worker that ran the root steals for the
    /// first time when its own color has run dry, its partner's deque full
    /// of the other color, and declines until the job is over — medians of
    /// 7 k–127 k probes an operation on the four workloads above, maxima
    /// of 0.4–1.4 M (22 ms of a 165 ms operation), which no bound that
    /// helps the wavefront exceeds; with `1 << 16` that worker helps after
    /// 2 ms instead, and no end-to-end metric of the four moves.
    pub fn nabbitc() -> Self {
        StealPolicy {
            colored_attempts: 4,
            match_domain: false,
            force_first_colored: true,
            first_steal_max_declined: 1 << 16,
        }
    }

    /// Vanilla Nabbit / Cilk Plus: pure randomized work stealing.
    pub fn nabbit() -> Self {
        StealPolicy {
            colored_attempts: 0,
            match_domain: false,
            force_first_colored: false,
            first_steal_max_declined: 0,
        }
    }

    /// NabbitC with domain-granularity color matching.
    pub fn nabbitc_domain() -> Self {
        StealPolicy {
            match_domain: true,
            ..Self::nabbitc()
        }
    }

    /// Whether any colored machinery is active.
    pub fn is_colored(&self) -> bool {
        self.colored_attempts > 0 || self.force_first_colored
    }
}

impl Default for StealPolicy {
    fn default() -> Self {
        Self::nabbitc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_preset() {
        let p = StealPolicy::nabbitc_domain();
        assert!(p.match_domain && p.is_colored());
    }

    #[test]
    fn presets() {
        assert!(StealPolicy::nabbitc().is_colored());
        assert!(!StealPolicy::nabbit().is_colored());
        assert_eq!(StealPolicy::default(), StealPolicy::nabbitc());
    }
}
