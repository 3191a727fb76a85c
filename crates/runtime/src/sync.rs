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

/// A statistics counter with one writer: the thread that owns it bumps it
/// with a load and a store instead of a lock-prefixed read-modify-write,
/// which costs several times as much even when no other core touches the
/// line (about 8 ns against 2.3 ns per update on a 2-vCPU x86-64 Xeon VM).
/// Readers — a racy [`Pool::stats`](crate::Pool::stats) snapshot, or
/// anyone after the job barrier — see some value the writer stored.
///
/// The single writer is the caller's promise: two threads adding to one
/// counter lose counts (never memory safety). Resets happen while the
/// writer is quiescent, ordered before its next add by whatever made it
/// quiescent (the pool's job barrier).
#[derive(Debug, Default)]
pub struct OwnedCounter {
    value: AtomicU64,
}

impl OwnedCounter {
    /// Adds `n`. Only the counter's one writer may call this.
    #[inline]
    pub fn add(&self, n: u64) {
        // ORDERING value.load: Relaxed — the writer reads its own last store
        self.set(self.value.load(Ordering::Relaxed) + n);
    }

    /// Overwrites the count (a one-shot statistic, or a reset while the
    /// writer is quiescent).
    #[inline]
    pub fn set(&self, n: u64) {
        // ORDERING value.store: Release — a plain `mov` on x86, as a
        // Relaxed store is: a reader whose Acquire `get` sees this value
        // also sees every store the writer made to its other counters
        // before it, so a snapshot that reads a success count before its
        // attempt count never shows more successes than attempts
        self.value.store(n, Ordering::Release);
    }

    /// The count.
    #[inline]
    pub fn get(&self) -> u64 {
        // ORDERING value.load: Acquire; pairs set::value.store — see `set`
        self.value.load(Ordering::Acquire)
    }
}
