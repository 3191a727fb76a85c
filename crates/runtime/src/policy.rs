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
    /// Escape hatch for the forced first steal: after this many failed
    /// colored attempts — per worker, per job; a reused pool starts every
    /// job's count at zero — the worker falls back to the normal policy. The
    /// paper assumes "at least one node from each color connected to the
    /// root"; with an adversarial coloring (Table III: every colored steal
    /// fails) a literal forcing would spin forever, so a bound is required
    /// for the experiment to terminate. Large enough to be irrelevant when
    /// the assumption holds.
    pub first_steal_max_attempts: u64,
}

impl StealPolicy {
    /// NabbitC defaults: colored steals on, forced first steal on.
    pub fn nabbitc() -> Self {
        StealPolicy {
            colored_attempts: 4,
            match_domain: false,
            force_first_colored: true,
            first_steal_max_attempts: 1 << 22,
        }
    }

    /// Vanilla Nabbit / Cilk Plus: pure randomized work stealing.
    pub fn nabbit() -> Self {
        StealPolicy {
            colored_attempts: 0,
            match_domain: false,
            force_first_colored: false,
            first_steal_max_attempts: 0,
        }
    }

    /// NabbitC with domain-granularity color matching.
    pub fn nabbitc_domain() -> Self {
        StealPolicy {
            match_domain: true,
            ..Self::nabbitc()
        }
    }

    /// NabbitC without the forced first steal (used by the Fig. 9 overhead
    /// ablation).
    pub fn nabbitc_unforced() -> Self {
        StealPolicy {
            force_first_colored: false,
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
        assert!(StealPolicy::nabbitc_unforced().is_colored());
        assert!(!StealPolicy::nabbitc_unforced().force_first_colored);
        assert_eq!(StealPolicy::default(), StealPolicy::nabbitc());
    }
}
