//! Synchronization facade for every audited concurrent path in the
//! workspace.
//!
//! Normal builds re-export `std::sync::atomic` and
//! `parking_lot::{Mutex, RwLock}` directly — the facade is pure renaming
//! with zero cost. Under `--cfg nabbitc_check` (set via `RUSTFLAGS`,
//! never a cargo feature, so feature unification can't leak it into
//! regular builds) the same names resolve to the workspace `loom` shim's
//! instrumented primitives, which route every operation through an
//! exhaustive-interleaving model checker with a TSO weak-memory model.
//! `crates/check` builds the runtime this way to verify the
//! WorkStealing.tla invariants (W1–W6) against the real deque and
//! injector code, not a transliteration.
//!
//! Everything with audited atomics goes through this module: the
//! runtime's own `deque.rs`, `injector.rs`, `pool.rs`, `stats.rs` and
//! `trace.rs`, plus the downstream `nabbitc-core` executors (the join
//! counter and successor list in `core::join`, which both node stores
//! decrement through, the on-demand store's shard locks in `store.rs`,
//! metrics counters) and `nabbitc-parfor`'s chunk cursors. The `nabbitc-lint`
//! facade-conformance pass rejects direct `std::sync::atomic` /
//! `parking_lot` imports in audited files outside this module (condvar
//! use, which has no loom shim, is the one allowlisted exemption).

#[cfg(not(nabbitc_check))]
pub use parking_lot::{Mutex, RwLock};
#[cfg(not(nabbitc_check))]
pub use std::sync::atomic::{
    fence, AtomicBool, AtomicI64, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize,
    Ordering,
};

#[cfg(nabbitc_check)]
pub use loom::sync::atomic::{
    fence, AtomicBool, AtomicI64, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize,
    Ordering,
};
#[cfg(nabbitc_check)]
pub use loom::sync::{Mutex, RwLock};
