//! Model-check harness for the nabbitc runtime.
//!
//! Ports the six invariants of the WorkStealing.tla spec into executable
//! checks over the real `nabbitc-runtime` data structures, explored
//! exhaustively on bounded configurations by the workspace `loom` shim:
//!
//! | invariant | meaning | where checked |
//! |-----------|---------|---------------|
//! | W1 | no lost tasks | `model::check_accounting` |
//! | W2 | no double execution | `model::check_accounting` |
//! | W3 | LIFO local pops, FIFO steals | `model::check_accounting` + `tests/invariants.rs` |
//! | W4 | operations linearizable | [`lin`] (Wing–Gong) via `model::check_linearizable`; a steal-half call that claimed k entries is k steals |
//! | W5 | progress: work left ⇒ someone runs | `model::run_injector_progress` |
//! | W6 | steal attempts bounded per idle episode | `model::check_accounting` |
//!
//! W1–W4 and W6 come out of one scenario driver (`model::run_scenario`)
//! whose thieves call `steal`, `steal_batch` or `steal_batch_if` — one
//! claim loop in the deque, and the two steal-half forms are the only
//! ones the pool calls — so what is checked is what ships.
//!
//! The code under test is compiled with `--cfg nabbitc_check`, which
//! swaps its atomics for the loom shim's instrumented TSO model through
//! the `nabbitc_runtime::sync` facade — that covers the runtime's deque
//! and injector *and* the `nabbitc-core` on-demand protocol
//! (`model::run_successor_list` checks that the lock-free successor list
//! decides every register ∥ close edge exactly once, and
//! `model::run_join_protocol` the exactly-once enqueue of the join
//! counter both executors decrement — armed by the dynamic executor's
//! init-bias scan over that list, or born holding the in-degree as the
//! static executor's is; either way the firing decrement must also see
//! every predecessor's output — W1/W2 in successor-list and join-counter
//! form). The `model` module (scenarios + checks) only exists under
//! that cfg, which is why the table references it as plain text. The
//! [`spec`] and [`lin`] modules are plain sequential code and are
//! unit-tested in the ordinary tier-1 build as well.

pub mod lin;
pub mod spec;

#[cfg(nabbitc_check)]
pub mod model;
