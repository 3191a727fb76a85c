//! The six WorkStealing.tla invariants checked over exhaustive bounded
//! interleavings of the real runtime deque and injector.
//!
//! Build and run with:
//! ```sh
//! RUSTFLAGS="--cfg nabbitc_check" cargo test -p nabbitc-check --release
//! ```
//! `NABBITC_CHECK_DEPTH` raises the preemption bound (default 2) and
//! `NABBITC_CHECK_ITERS` the execution cap for deeper local runs.
#![cfg(all(
    nabbitc_check,
    not(nabbitc_weak_pop),
    not(nabbitc_weak_batch),
    not(nabbitc_weak_push_batch),
    not(nabbitc_weak_join),
    not(nabbitc_weak_close),
    not(nabbitc_weak_fire)
))]

use loom::model::{explore, Options};
use nabbitc_check::model::{
    check_accounting, check_linearizable, run_colored_batch_prefix, run_injector_progress,
    run_injector_racing_push, run_join_protocol, run_pending_protocol, run_push_batch_publication,
    run_scenario, run_steal_batch_races_owner_pops, run_successor_list, Arming, JoinFiring,
    ScenarioCfg,
};
use nabbitc_check::spec::Op;
use std::collections::HashSet;

fn run_cfg(cfg: ScenarioCfg, linearize: bool) {
    let opts = Options::from_env();
    let bound = opts.preemption_bound;
    let report = explore(opts, || {
        let out = run_scenario(&cfg);
        check_accounting(&cfg, &out, bound);
        if linearize {
            check_linearizable(&out);
        }
    });
    if let Some(v) = report.violation {
        panic!(
            "invariant violated under {cfg:?} after {} executions:\n  {}\n  trail: {:?}",
            report.iterations,
            v.message,
            v.trail.iter().map(|e| e.chosen).collect::<Vec<_>>()
        );
    }
    assert!(report.completed > 0, "no complete execution explored");
    eprintln!(
        "{cfg:?}: {} executions ({} complete, {} pruned, capped: {})",
        report.iterations, report.completed, report.pruned, report.capped
    );
}

#[test]
fn w1_w2_w4_two_thieves_race_for_three_tasks() {
    run_cfg(
        ScenarioCfg {
            thieves: 2,
            tasks: 3,
            pop_every: 0,
            steal_attempts: 2,
            batch: false,
            colored: false,
        },
        true,
    );
}

#[test]
fn w1_w2_w4_owner_pops_race_a_thief() {
    run_cfg(
        ScenarioCfg {
            thieves: 1,
            tasks: 4,
            pop_every: 2,
            steal_attempts: 3,
            batch: false,
            colored: false,
        },
        true,
    );
}

#[test]
fn w1_w2_growth_races_a_concurrent_thief() {
    // MIN_CAP is 2 under the checker, so five pushes grow the buffer
    // twice (2 -> 4 -> 8) while the thief's speculative reads are in
    // flight — the retired-buffer reclamation path under full schedule
    // exploration.
    run_cfg(
        ScenarioCfg {
            thieves: 1,
            tasks: 5,
            pop_every: 0,
            steal_attempts: 2,
            batch: false,
            colored: false,
        },
        true,
    );
}

#[test]
fn w1_w2_colored_steal_path() {
    // steal_batch_if checks four color words before each claiming CAS;
    // every entry carries color 0 here, so the check always passes and
    // the claims race an owner popping at cadence 2.
    run_cfg(
        ScenarioCfg {
            thieves: 1,
            tasks: 3,
            pop_every: 2,
            steal_attempts: 2,
            batch: true,
            colored: true,
        },
        false,
    );
}

#[test]
fn w3_phased_steals_take_fifo_prefix_pops_take_lifo_suffix() {
    // Sequential phases (owner pushes, then a lone thief steals, then
    // the owner drains) make W3 exact: the thief must take the oldest
    // prefix in order, the owner the newest suffix in reverse.
    let report = explore(Options::from_env(), || {
        use loom::thread;
        use nabbitc_color::ColorSet;
        use nabbitc_runtime::deque::{ColoredDeque, Steal};
        use std::sync::Arc;

        let deque: Arc<ColoredDeque<u64>> = Arc::new(ColoredDeque::new());
        for v in 1..=4 {
            deque.push(Box::new(v), ColorSet::all(2));
        }
        let thief = {
            let deque = deque.clone();
            thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..2 {
                    if let Steal::Success(b) = deque.steal() {
                        got.push(*b);
                        std::mem::forget(b);
                    }
                }
                got
            })
        };
        let stolen = thief.join().unwrap();
        assert_eq!(
            stolen,
            vec![1, 2],
            "W3 violation: thief must take the FIFO prefix"
        );
        let mut popped = Vec::new();
        while let Some(b) = deque.pop() {
            popped.push(*b);
            std::mem::forget(b);
        }
        assert_eq!(popped, vec![4, 3], "W3 violation: owner must pop LIFO");
    });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.completed > 0);
}

#[test]
fn w5_injector_never_strands_work() {
    let report = explore(Options::from_env(), || run_injector_progress(2));
    if let Some(v) = report.violation {
        panic!("W5 violated: {} (trail {:?})", v.message, v.trail);
    }
    assert!(report.completed > 0);
}

#[test]
fn w1_w2_w3_batch_thief_races_live_pushes() {
    // steal_batch against an owner that is still pushing (and popping at
    // cadence 2): revalidation plus the claim-at-a-time CAS must keep
    // every value exactly-once no matter where the stale window lands —
    // and W4: a batch of k claims linearizes as k steals inside the call.
    run_cfg(
        ScenarioCfg {
            thieves: 1,
            tasks: 4,
            pop_every: 2,
            steal_attempts: 2,
            batch: true,
            colored: false,
        },
        true,
    );
}

#[test]
fn w1_w2_w3_colored_batch_thief() {
    // steal_batch_if with a color every entry carries: the color-word
    // reads before each claiming CAS run under all interleavings, W4
    // included.
    run_cfg(
        ScenarioCfg {
            thieves: 1,
            tasks: 3,
            pop_every: 0,
            steal_attempts: 2,
            batch: true,
            colored: true,
        },
        true,
    );
}

#[test]
fn w2_batch_steal_revalidates_against_owner_pops() {
    // The exact shape the `nabbitc_weak_batch` canary breaks: one batch
    // steal racing three owner pops over four tasks. With
    // BATCH_REVALIDATE = true this must hold on every interleaving.
    let opts = Options::from_env();
    let bound = opts.preemption_bound;
    let report = explore(opts, || run_steal_batch_races_owner_pops(bound));
    if let Some(v) = report.violation {
        panic!(
            "batch revalidation failed after {} executions: {} (trail {:?})",
            report.iterations, v.message, v.trail
        );
    }
    assert!(report.completed > 0);
}

#[test]
fn colored_batch_takes_only_matching_prefix() {
    let opts = Options::from_env();
    let bound = opts.preemption_bound;
    let report = explore(opts, || run_colored_batch_prefix(bound));
    if let Some(v) = report.violation {
        panic!(
            "colored batch prefix violated after {} executions: {} (trail {:?})",
            report.iterations, v.message, v.trail
        );
    }
    assert!(report.completed > 0);
}

#[test]
fn w2_push_batch_publishes_slots_before_bottom() {
    // The exact shape the `nabbitc_weak_push_batch` canary breaks: a
    // batch publish over pre-dirtied ring slots racing a thief. The
    // Release fence must keep stale pointers unobservable.
    let report = explore(Options::from_env(), run_push_batch_publication);
    if let Some(v) = report.violation {
        panic!(
            "push_batch publication violated after {} executions: {} (trail {:?})",
            report.iterations, v.message, v.trail
        );
    }
    assert!(report.completed > 0);
}

#[test]
fn pending_protocol_relaxed_orderings_are_sound() {
    // pool.rs's pending counter: Relaxed spawn-add, AcqRel execute-sub,
    // Acquire termination load. Zero observed => effects visible, and
    // no spurious zero mid-job.
    let report = explore(Options::from_env(), run_pending_protocol);
    if let Some(v) = report.violation {
        panic!(
            "pending protocol violated after {} executions: {} (trail {:?})",
            report.iterations, v.message, v.trail
        );
    }
    assert!(report.completed > 0);
}

/// Explores `run_join_protocol(preds, arming)` and returns every way its
/// one enqueue happened across the interleavings.
fn join_firings(preds: usize, arming: Arming) -> HashSet<JoinFiring> {
    let mut seen = HashSet::new();
    let report = explore(Options::from_env(), || {
        seen.insert(run_join_protocol(preds, arming));
    });
    if let Some(v) = report.violation {
        panic!(
            "join protocol ({arming:?}, {preds} predecessors) violated after {} executions: {} \
             (trail {:?})",
            report.iterations, v.message, v.trail
        );
    }
    assert!(report.completed > 0);
    seen
}

/// `(by_scanner, by_load)` as a [`JoinFiring`].
fn firing(by_scanner: bool, by_load: bool) -> JoinFiring {
    JoinFiring {
        by_scanner,
        by_load,
    }
}

#[test]
fn join_counter_enqueues_exactly_once_one_pred() {
    // The dynamic protocol's init-bias arbitration: one predecessor
    // racing the scanning worker. Exactly one of `notify` / `end_scan`
    // may reach zero on every interleaving — and each may, through its
    // fast path's load or through its RMW.
    let seen = join_firings(1, Arming::Scanned);
    for by_scanner in [true, false] {
        for by_load in [true, false] {
            assert!(
                seen.contains(&firing(by_scanner, by_load)),
                "no interleaving fired with {:?}; saw {seen:?}",
                firing(by_scanner, by_load)
            );
        }
    }
}

#[test]
fn join_counter_enqueues_exactly_once_two_preds() {
    // Two producers extend the AcqRel decrement chain (release sequence)
    // the firing decrement must synchronize with, whichever way it fires.
    let seen = join_firings(2, Arming::Scanned);
    for f in [
        firing(true, true),
        firing(false, true),
        firing(false, false),
    ] {
        assert!(
            seen.contains(&f),
            "no interleaving fired with {f:?}; saw {seen:?}"
        );
    }
}

#[test]
fn armed_join_counter_fires_exactly_once_and_sees_every_notifier() {
    // The pre-built-graph executor's arming: the counter is born holding
    // the in-degree, there is no scanner, and k predecessors each write
    // their output and notify once. Exactly one notify reaches zero, and
    // it observes every predecessor's write — through the load when the
    // others have all decremented, through the RMW when one raced it.
    for preds in [2, 3] {
        let seen = join_firings(preds, Arming::Armed);
        for by_load in [true, false] {
            assert!(
                seen.contains(&firing(false, by_load)),
                "{preds} notifiers: no interleaving fired with by_load = {by_load}; \
                 saw {seen:?}"
            );
        }
    }
}

#[test]
fn successor_list_decides_every_edge_exactly_once_one_registrant() {
    // register ∥ close on the real `SuccessorList`: the successor is
    // either drained by the close or told "closed", never both or neither.
    let report = explore(Options::from_env(), || run_successor_list(1));
    if let Some(v) = report.violation {
        panic!(
            "successor list violated after {} executions: {} (trail {:?})",
            report.iterations, v.message, v.trail
        );
    }
    assert!(report.completed > 0);
}

#[test]
fn successor_list_decides_every_edge_exactly_once_two_registrants() {
    // Two registrants also race each other's CAS on the head.
    let report = explore(Options::from_env(), || run_successor_list(2));
    if let Some(v) = report.violation {
        panic!(
            "successor list violated after {} executions: {} (trail {:?})",
            report.iterations, v.message, v.trail
        );
    }
    assert!(report.completed > 0);
}

#[test]
fn w5_injector_mirror_survives_racing_push() {
    let report = explore(Options::from_env(), || run_injector_racing_push(2));
    if let Some(v) = report.violation {
        panic!(
            "W5 (racing push) violated: {} (trail {:?})",
            v.message, v.trail
        );
    }
    assert!(report.completed > 0);
}

#[test]
fn w4_unit_histories_sanity() {
    // The Wing-Gong checker itself must accept/reject canonical histories
    // (redundant with crate unit tests, but cheap and keeps the W4 logic
    // exercised inside this gated binary too).
    use nabbitc_check::lin::{linearizable, Record};
    let h = [
        Record::new(Op::Push(1), None, 1, 1),
        Record::new(Op::Steal, Some(1), 2, 4),
        Record::new(Op::Pop, Some(1), 3, 5),
    ];
    assert!(!linearizable(&h), "double-take must not linearize");
}
