//! Harness sensitivity proof for the join-counter protocol: with the
//! deliberately seeded bug (`--cfg nabbitc_weak_join` drops the +1 init
//! bias and downgrades `end_scan`'s decrement to `Relaxed` in
//! `nabbitc_core::join`), the checker must *find* the double-enqueue —
//! a W2 violation: a predecessor finishing between the consumer's
//! registration and its `end_scan` zeroes the counter for the producer
//! and leaves zero for `end_scan` to observe, so both enqueue the
//! compute. The downgrade is caught statically too, by the `nabbitc-lint`
//! atomics audit (`weak_join_canary_is_caught_statically`); the dropped
//! bias, a value and not an ordering, only by this test.
//!
//! Run with:
//! ```sh
//! RUSTFLAGS="--cfg nabbitc_check --cfg nabbitc_weak_join" \
//!     cargo test -p nabbitc-check --release --test seeded_join
//! ```
#![cfg(all(nabbitc_check, nabbitc_weak_join))]

use loom::model::{explore, Options};
use nabbitc_check::model::{run_join_protocol, Arming};

#[test]
fn weakened_join_counter_is_caught_as_w2_double_enqueue() {
    let report = explore(Options::from_env(), || {
        run_join_protocol(1, Arming::Scanned);
    });
    let v = report
        .violation
        .expect("checker failed to detect the seeded weak-join bug");
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
