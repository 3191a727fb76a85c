//! Harness sensitivity proof for the successor list: with the
//! deliberately seeded bug (`--cfg nabbitc_weak_close` turns
//! `SuccessorList::close`'s single `swap` into a `load` followed by a
//! `store` in `nabbitc_core::join`), the checker must *find* the lost
//! successor — a W1 violation: a registration whose CAS lands between
//! the closer's load and its store is overwritten by the closed
//! sentinel, so the successor was told "enqueued" and is never notified.
//! The same rewrite is caught statically by the `nabbitc-lint` atomics
//! audit (`weak_close_canary_is_caught_statically`).
//!
//! Run with:
//! ```sh
//! RUSTFLAGS="--cfg nabbitc_check --cfg nabbitc_weak_close" \
//!     cargo test -p nabbitc-check --release --test seeded_close
//! ```
#![cfg(all(nabbitc_check, nabbitc_weak_close))]

use loom::model::{explore, Options};
use nabbitc_check::model::run_successor_list;

#[test]
fn weakened_close_is_caught_as_w1_lost_successor() {
    let report = explore(Options::from_env(), || run_successor_list(1));
    let v = report
        .violation
        .expect("checker failed to detect the seeded weak-close bug");
    assert!(
        v.message.contains("W1 violation"),
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
