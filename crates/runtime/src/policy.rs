//! Steal policy knobs, and [`Thief`], the one implementation of them that
//! the threaded pool and the simulator (`numasim::wsim`) both drive.

use crate::deque::Steal;
use crate::rng::XorShift64;
use nabbitc_color::{Color, ColorSet};

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
    /// Patience of the forced first colored steal: how many *declined*
    /// probes a worker spends on it — per worker, per job; a reused pool
    /// starts every job's count at zero — before it falls back to the
    /// normal policy (colored attempts, then a random one). Zero turns the
    /// forcing off (vanilla Nabbit: along with `colored_attempts = 0` this
    /// recovers plain randomized work stealing).
    ///
    /// A probe is declined when the victim had stealable work and its
    /// oldest entry did not carry one of the thief's colors: work the
    /// forcing turned down, which is what forcing costs. A probe that found
    /// the victim empty (or lost a race) is no evidence about the coloring —
    /// the root is still running, the job has barely begun or is nearly
    /// over — so it is free: however long the root node runs, it cannot
    /// spend the budget.
    /// [`Thief`] is the one implementation of this sentence; the threaded
    /// pool (`pool.rs`) and the simulator (`numasim::wsim`) both drive it.
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
    /// patience of `1 << 16` declined probes for it (≈ 1.8 ms of turning
    /// work down at ≈ 28 ns a probe, two workers on a 2-core host). Where
    /// the paper's premise holds (`heat-*`, `pagerank-auto`) a worker that
    /// starts a job empty-handed declines nothing, so no bound is too
    /// small; where it fails (`sw-wavefront`, lint NL010) `1 << 16` is the
    /// largest power of two that keeps the wait under 1 % of an operation,
    /// and it also ends a worker's *late* first steal. README § *The
    /// forced first steal waits for evidence* has the measurement, and
    /// `CHANGES.md` the sweep of bounds behind it.
    pub fn nabbitc() -> Self {
        StealPolicy {
            colored_attempts: 4,
            first_steal_max_declined: 1 << 16,
        }
    }

    /// Vanilla Nabbit / Cilk Plus: pure randomized work stealing.
    pub fn nabbit() -> Self {
        StealPolicy {
            colored_attempts: 0,
            first_steal_max_declined: 0,
        }
    }
}

impl Default for StealPolicy {
    fn default() -> Self {
        Self::nabbitc()
    }
}

/// What one steal attempt found at its victim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The victim's oldest entry was taken.
    Stolen,
    /// The victim had work of no color the thief accepts, and kept it.
    Declined,
    /// Nothing to take (on threads, also a lost race): no evidence.
    Empty,
}

impl<T> From<&Steal<T>> for Outcome {
    fn from(got: &Steal<T>) -> Outcome {
        match got {
            Steal::Success(_) => Outcome::Stolen,
            Steal::ColorMismatch => Outcome::Declined,
            Steal::Empty | Steal::Retry => Outcome::Empty,
        }
    }
}

/// One steal attempt a [`Thief`] asks its driver to make.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attempt {
    /// The worker to probe; never the thief itself.
    pub victim: usize,
    /// Take the oldest entry only if its colors meet [`Thief::accept`].
    pub colored: bool,
}

/// What comes after an attempt's [`Outcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The attempt stole: the search is over.
    Stole,
    /// Keep searching.
    Again,
    /// That declined probe spent the forcing's last patience.
    Escaped,
    /// The cycle's random attempt failed: the round is over.
    RoundOver,
}

/// One worker's steal search through one job, as a plain state machine:
/// the accepted color (the worker's own), the victim (uniform over the
/// others), the cycle of [`StealPolicy::colored_attempts`] colored attempts
/// and one random one, and the forced first colored steal with its
/// patience. The driver asks for an [`attempt`](Self::attempt), probes and
/// [`report`](Self::report)s the outcome; counting, timing and what a
/// stolen entry becomes are the driver's. Built afresh for every job.
#[derive(Debug)]
pub struct Thief {
    me: usize,
    workers: usize,
    rng: XorShift64,
    accept: ColorSet,
    colored_attempts: usize,
    /// Colored attempts made so far in the current cycle.
    colored_made: usize,
    /// Declined probes the forced first steal may still spend; 0 once it
    /// stole or escaped, or if it never started.
    patience_left: u64,
}

impl Thief {
    /// The thief of worker `me` of `workers` under `policy`.
    pub fn new(policy: &StealPolicy, me: usize, workers: usize, rng: XorShift64) -> Thief {
        let patience = policy.first_steal_max_declined;
        Thief {
            me,
            workers,
            rng,
            accept: ColorSet::singleton(Color::from(me)),
            colored_attempts: policy.colored_attempts,
            colored_made: 0,
            patience_left: if workers > 1 { patience } else { 0 },
        }
    }

    /// The colors a colored attempt accepts.
    pub fn accept(&self) -> &ColorSet {
        &self.accept
    }

    /// Whether the forced first colored steal is still on: every attempt
    /// is then a colored, forced probe.
    pub fn forcing(&self) -> bool {
        self.patience_left > 0
    }

    /// The next attempt, or `None` with nobody to steal from.
    pub fn attempt(&mut self) -> Option<Attempt> {
        let victim = self.rng.victim(self.workers, self.me)?;
        let colored = self.forcing() || self.colored_made < self.colored_attempts;
        Some(Attempt { victim, colored })
    }

    /// Takes the last attempt's outcome; says what comes next.
    pub fn report(&mut self, outcome: Outcome) -> Step {
        if self.forcing() {
            match outcome {
                Outcome::Stolen => self.patience_left = 0,
                Outcome::Declined => self.patience_left -= 1,
                Outcome::Empty => {}
            }
            return match outcome {
                Outcome::Stolen => Step::Stole,
                _ if self.forcing() => Step::Again,
                _ => Step::Escaped,
            };
        }
        if outcome == Outcome::Stolen {
            self.colored_made = 0;
            Step::Stole
        } else if self.colored_made < self.colored_attempts {
            self.colored_made += 1;
            Step::Again
        } else {
            self.colored_made = 0;
            Step::RoundOver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let (nabbitc, nabbit) = (StealPolicy::nabbitc(), StealPolicy::nabbit());
        assert!(nabbitc.colored_attempts > 0 && nabbitc.first_steal_max_declined > 0);
        assert!(nabbit.colored_attempts == 0 && nabbit.first_steal_max_declined == 0);
        assert_eq!(StealPolicy::default(), StealPolicy::nabbitc());
    }

    fn forced(colored_attempts: usize, patience: u64) -> StealPolicy {
        StealPolicy {
            colored_attempts,
            first_steal_max_declined: patience,
        }
    }

    /// Makes one attempt and reports `outcome` for it.
    fn probe(thief: &mut Thief, outcome: Outcome) -> (Attempt, Step) {
        let attempt = thief.attempt().expect("a victim");
        (attempt, thief.report(outcome))
    }

    /// The kinds (colored or not) of the next `n` attempts, each reported
    /// as `outcome`; only a random attempt may end a round.
    fn kinds(thief: &mut Thief, n: usize, outcome: Outcome) -> Vec<bool> {
        (0..n)
            .map(|_| {
                let (attempt, step) = probe(thief, outcome);
                let want = if attempt.colored {
                    Step::Again
                } else {
                    Step::RoundOver
                };
                assert_eq!(step, want);
                attempt.colored
            })
            .collect()
    }

    /// `rounds` rounds of `k` colored attempts and one random one.
    fn cycle(k: usize, rounds: usize) -> Vec<bool> {
        let round = (0..=k).map(|i| i < k);
        round.cycle().take(rounds * (k + 1)).collect()
    }

    #[test]
    fn a_lost_race_is_charged_like_an_empty_deque() {
        assert_eq!(
            Outcome::from(&Steal::Success(Box::new(()))),
            Outcome::Stolen
        );
        assert_eq!(
            Outcome::from(&Steal::<()>::ColorMismatch),
            Outcome::Declined
        );
        assert_eq!(Outcome::from(&Steal::<()>::Empty), Outcome::Empty);
        assert_eq!(Outcome::from(&Steal::<()>::Retry), Outcome::Empty);
    }

    #[test]
    fn forcing_ends_on_a_steal() {
        let mut thief = Thief::new(&forced(2, 3), 0, 4, XorShift64::new(1));
        for outcome in [Outcome::Declined, Outcome::Empty, Outcome::Declined] {
            let (attempt, step) = probe(&mut thief, outcome);
            assert!(attempt.colored && step == Step::Again);
        }
        let (attempt, step) = probe(&mut thief, Outcome::Stolen);
        assert!(attempt.colored && step == Step::Stole);
        assert!(!thief.forcing());
        assert_eq!(kinds(&mut thief, 6, Outcome::Empty), cycle(2, 2));
    }

    #[test]
    fn forcing_ends_on_the_nth_declined_probe_and_never_on_nothing() {
        const N: u64 = 5;
        let mut thief = Thief::new(&forced(2, N), 1, 3, XorShift64::new(2));
        let (empty, retry) = (Steal::<()>::Empty, Steal::<()>::Retry);
        for got in [&empty, &retry] {
            for _ in 0..1_000 {
                let (attempt, step) = probe(&mut thief, Outcome::from(got));
                assert!(attempt.colored && step == Step::Again);
            }
        }
        for _ in 1..N {
            assert_eq!(probe(&mut thief, Outcome::Declined).1, Step::Again);
            assert_eq!(probe(&mut thief, Outcome::Empty).1, Step::Again);
            assert!(thief.forcing());
        }
        assert_eq!(probe(&mut thief, Outcome::Declined).1, Step::Escaped);
        assert!(!thief.forcing());
    }

    #[test]
    fn after_forcing_the_cycle_is_k_colored_then_one_random() {
        let mut thief = Thief::new(&forced(3, 1), 2, 5, XorShift64::new(3));
        assert_eq!(probe(&mut thief, Outcome::Declined).1, Step::Escaped);
        assert_eq!(kinds(&mut thief, 12, Outcome::Empty), cycle(3, 3));
        assert_eq!(kinds(&mut thief, 8, Outcome::Declined), cycle(3, 2));
        // A steal mid-cycle ends the search; the next one starts afresh.
        kinds(&mut thief, 2, Outcome::Empty);
        assert_eq!(probe(&mut thief, Outcome::Stolen).1, Step::Stole);
        assert_eq!(kinds(&mut thief, 4, Outcome::Empty), cycle(3, 1));
    }

    #[test]
    fn nabbit_only_steals_at_random() {
        let mut thief = Thief::new(&StealPolicy::nabbit(), 0, 8, XorShift64::new(4));
        assert!(!thief.forcing());
        assert_eq!(kinds(&mut thief, 100, Outcome::Empty), cycle(0, 100));
        let (attempt, step) = probe(&mut thief, Outcome::Stolen);
        assert!(!attempt.colored && step == Step::Stole);
    }

    #[test]
    fn victims_are_the_rngs_and_never_the_thief() {
        for workers in 2..=9 {
            for me in 0..workers {
                let seed = (workers * 16 + me) as u64;
                let mut thief =
                    Thief::new(&StealPolicy::nabbitc(), me, workers, XorShift64::new(seed));
                let mut rng = XorShift64::new(seed);
                for _ in 0..200 {
                    let (attempt, _) = probe(&mut thief, Outcome::Declined);
                    assert_ne!(attempt.victim, me);
                    assert!(attempt.victim < workers);
                    assert_eq!(Some(attempt.victim), rng.victim(workers, me));
                }
            }
        }
    }

    #[test]
    fn a_one_worker_thief_makes_no_attempt() {
        let mut thief = Thief::new(&StealPolicy::nabbitc(), 0, 1, XorShift64::new(5));
        assert!(!thief.forcing());
        assert_eq!(thief.attempt(), None);
    }

    #[test]
    fn a_fresh_thief_per_job_starts_a_fresh_budget() {
        const N: u64 = 3;
        for job in 0..3 {
            let mut thief = Thief::new(&forced(4, N), 0, 2, XorShift64::new(job));
            for _ in 1..N {
                assert_eq!(probe(&mut thief, Outcome::Declined).1, Step::Again);
            }
            assert_eq!(probe(&mut thief, Outcome::Declined).1, Step::Escaped);
        }
    }

    #[test]
    fn zero_patience_never_starts_the_forcing() {
        let mut thief = Thief::new(&forced(2, 0), 0, 4, XorShift64::new(6));
        assert!(!thief.forcing());
        assert_eq!(kinds(&mut thief, 6, Outcome::Declined), cycle(2, 2));
    }
}
