//! Harness sensitivity proof: with the deliberately seeded ordering bug
//! (`--cfg nabbitc_weak_pop` weakens `pop`'s SeqCst fence to Release),
//! the checker must *find* the owner/thief double-take — a W2 violation.
//! If this test fails, the model checker has lost the ability to detect
//! the exact class of bug it exists for.
//!
//! Run with:
//! ```sh
//! RUSTFLAGS="--cfg nabbitc_check --cfg nabbitc_weak_pop" \
//!     cargo test -p nabbitc-check --release --test seeded_bug
//! ```
#![cfg(all(nabbitc_check, nabbitc_weak_pop))]

use loom::model::{explore, Options};
use nabbitc_check::model::{check_accounting, run_scenario, ScenarioCfg};

#[test]
fn weakened_pop_fence_is_caught_as_w2_double_execution() {
    // The minimal double-take shape: two entries, the owner pops while a
    // thief steals twice. With the Release fence the owner's bottom
    // decrement can sit in its store buffer while it reads a stale top,
    // so owner and thief both take the last entry.
    let cfg = ScenarioCfg {
        thieves: 1,
        tasks: 2,
        pop_every: 2,
        steal_attempts: 2,
        batch: false,
        colored: false,
    };
    let opts = Options::from_env();
    let bound = opts.preemption_bound;
    let report = explore(opts, || {
        let out = run_scenario(&cfg);
        check_accounting(&cfg, &out, bound);
    });
    let v = report
        .violation
        .expect("checker failed to detect the seeded weak-pop bug");
    assert!(
        v.message.contains("W2 violation"),
        "seeded bug surfaced as the wrong invariant: {}",
        v.message
    );
    assert!(
        !v.trail.is_empty(),
        "violation must carry a reproducing schedule trail"
    );
    eprintln!(
        "seeded bug caught after {} executions: {}",
        report.iterations, v.message
    );
}
