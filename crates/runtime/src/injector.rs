//! Root-task injector: the one-shot FIFO queue a job's root enters
//! before a worker picks it up ("one worker starts out with executing
//! the root node and all other workers are stealing", §III).
//!
//! Split out of `pool.rs` so the queue-plus-length protocol is a single
//! type that the model checker (`crates/check`) can exercise under
//! exhaustive interleavings: all synchronization goes through
//! [`crate::sync`], so `--cfg nabbitc_check` swaps in instrumented
//! primitives.
//!
//! The protocol: `len` is a lock-free mirror of the queue length,
//! written with `Release` *while holding the queue lock*, read with
//! `Acquire` before locking. Workers poll `is_empty()` on their idle path
//! every round; the mirror keeps that poll from taking the lock when the
//! injector is (almost always) empty. The mirror may lag a concurrent
//! push/pop — callers must treat a non-empty hint as a hint and re-check
//! under the lock (`try_pop` returning `None`), and a false-empty read
//! is benign because the enqueuer wakes workers through the job condvar
//! after pushing. That hint-only contract is why `SeqCst` buys nothing
//! here: the Release store (under the lock) paired with the Acquire hint
//! load keeps "non-empty hint → queue really had work at store time", and
//! every decision that *matters* re-checks under the mutex. The W5
//! scenarios in `crates/check` (`run_injector_progress`,
//! `run_injector_racing_push`) explore this relaxed protocol exhaustively.

use crate::sync::{AtomicUsize, Mutex, Ordering};
use std::collections::VecDeque;

/// FIFO multi-producer multi-consumer queue with a lock-free emptiness
/// fast path.
pub struct Injector<T> {
    queue: Mutex<VecDeque<T>>,
    len: AtomicUsize,
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Injector<T> {
    pub fn new() -> Self {
        Injector {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Enqueues at the back.
    pub fn push(&self, value: T) {
        let mut q = self.queue.lock();
        q.push_back(value);
        // ORDERING len.store: Release — mutex-protected length mirror; Release
        // (from SeqCst) pairs with the Acquire hint load so a non-empty hint
        // implies the queue really held work at store time — every decision
        // that matters re-checks under the lock, and a stale-empty hint is
        // benign because the enqueuer wakes workers through the job condvar
        // (run_injector_progress and run_injector_racing_push explore this
        // exhaustively)
        self.len.store(q.len(), Ordering::Release);
    }

    /// Dequeues from the front; `None` when empty (including when a
    /// concurrent consumer won the race after a non-empty `len` hint).
    pub fn try_pop(&self) -> Option<T> {
        let mut q = self.queue.lock();
        let v = q.pop_front();
        // ORDERING len.store: Release — length mirror update under the lock;
        // Release for the same hint contract as push
        self.len.store(q.len(), Ordering::Release);
        v
    }

    /// Lock-free length hint (exact once all concurrent ops retire).
    pub fn len(&self) -> usize {
        // ORDERING len.load: Acquire; pairs push::len.store,
        // try_pop::len.store — idle-path hint probe
        // polled every worker round; Acquire (from SeqCst) pairs with the
        // Release mirror stores — the hint-only contract above needs nothing
        // stronger, and this load is hot enough to care
        self.len.load(Ordering::Acquire)
    }

    /// Lock-free emptiness fast path.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(all(test, not(nabbitc_check)))]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_len_mirror() {
        let inj: Injector<u32> = Injector::new();
        assert!(inj.is_empty());
        for i in 0..10 {
            inj.push(i);
            assert_eq!(inj.len(), (i + 1) as usize);
        }
        for i in 0..10 {
            assert_eq!(inj.try_pop(), Some(i));
        }
        assert!(inj.is_empty());
        assert_eq!(inj.try_pop(), None);
        assert!(inj.is_empty());
    }
}
