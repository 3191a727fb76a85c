//! Harness sensitivity proof for the join counter's fast paths: with the
//! deliberately seeded bug (`--cfg nabbitc_weak_fire` makes `notify`'s
//! fast path in `nabbitc_core::join` fire when it reads 2, taking the
//! other unit for a scan bias that `end_scan` is about to release, and
//! leave that unit in the counter), the checker must *find* the
//! double-enqueue — a W2 violation: a predecessor that notifies between
//! the consumer's registration and its `end_scan` fires, and `end_scan`
//! then reads exactly its own share and fires through its fast path too.
//! No ordering changes, so the atomics audit cannot see this one; only
//! the checker can.
//!
//! Run with:
//! ```sh
//! RUSTFLAGS="--cfg nabbitc_check --cfg nabbitc_weak_fire" \
//!     cargo test -p nabbitc-check --release --test seeded_fire
//! ```
#![cfg(all(nabbitc_check, nabbitc_weak_fire))]

use loom::model::{explore, Options};
use nabbitc_check::model::{run_join_protocol, Arming};

#[test]
fn early_fast_path_fire_is_caught_as_w2_double_enqueue() {
    let report = explore(Options::from_env(), || {
        run_join_protocol(1, Arming::Scanned);
    });
    let v = report
        .violation
        .expect("checker failed to detect the seeded weak-fire bug");
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
