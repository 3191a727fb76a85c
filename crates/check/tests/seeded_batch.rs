//! Harness sensitivity proof for steal-half batching: with the seeded
//! ordering bug (`--cfg nabbitc_weak_batch` sets `BATCH_REVALIDATE =
//! false`, so a batch thief chains claiming CASes against its
//! initially-read `bottom` instead of re-reading the indices before
//! every claim), the checker must *find* the thief/owner double-take —
//! a W2 violation. The counterexample: the thief snapshots `t = 0,
//! b = 4`, the owner pops three values (the last without a CAS since
//! `top` still reads 0), then the thief's chained CAS claims an index
//! the owner already took.
//!
//! Run with:
//! ```sh
//! RUSTFLAGS="--cfg nabbitc_check --cfg nabbitc_weak_batch" \
//!     cargo test -p nabbitc-check --release --test seeded_batch
//! ```
#![cfg(all(nabbitc_check, nabbitc_weak_batch))]

use loom::model::{explore, Options};
use nabbitc_check::model::run_steal_batch_races_owner_pops;

#[test]
fn skipped_batch_revalidation_is_caught_as_w2_double_execution() {
    let opts = Options::from_env();
    let bound = opts.preemption_bound;
    let report = explore(opts, || run_steal_batch_races_owner_pops(bound));
    let v = report
        .violation
        .expect("checker failed to detect the seeded weak-batch bug");
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
        "seeded batch bug caught after {} executions: {}",
        report.iterations, v.message
    );
}
