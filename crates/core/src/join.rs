//! The join counter — the paper's readiness arbiter, for both executors.
//!
//! On the on-demand path a node's counter is initialized with a +1
//! *initialization bias* while its predecessor list is being scanned
//! (`begin_scan`), so the node cannot fire mid-scan no matter how fast
//! predecessors complete. Each completing predecessor decrements once
//! (`notify`); the scanning worker releases the bias together with the
//! already-satisfied dependences in one RMW (`end_scan`). Whichever
//! decrement reaches zero owns the compute — exactly one of them can,
//! which is the exactly-once enqueue guarantee the `nabbitc-check` join
//! scenario verifies over all bounded interleavings. On the pre-built
//! path there is nothing to scan: the counter is born holding the
//! in-degree (`armed`) and `notify` is its only operation — the same
//! decrement chain without the scanner, checked by the same scenario.
//!
//! Orderings: the init store is `SeqCst` (it races nothing — the node is
//! not yet published to any predecessor's successor list — but it seeds
//! the decrement chain every later `AcqRel` RMW extends). The decrements
//! are `AcqRel`: each `Release` publishes the predecessor's computed
//! effects into the RMW release sequence, and the final `Acquire`
//! decrement (the one that fires) synchronizes with all of them, so the
//! compute observes every predecessor's writes.
//!
//! Under `--cfg nabbitc_weak_join` (a seeded-bug canary, set via
//! `RUSTFLAGS` like the runtime's `nabbitc_weak_pop`) the bias is
//! dropped and the scan-side operations are downgraded to `Relaxed`:
//! a predecessor finishing mid-scan can then bring the counter to zero
//! *and* the scanner's `end_scan` still observes zero — both enqueue,
//! the W2 double-compute the checker must catch. The same downgrade is
//! rejected statically by the `nabbitc-lint` atomics audit, which checks
//! this file's sites cfg-aware against the policy table.
//!
//! # The successor list
//!
//! [`SuccessorList`] is the other half of the protocol, Nabbit's
//! lock-free successor registration: a node that finds a predecessor
//! created but not yet computed pushes a [`Link`] onto the predecessor's
//! list with one CAS ([`register`](SuccessorList::register)); the
//! predecessor, once computed, takes the whole list and marks it closed
//! with one `swap` ([`close`](SuccessorList::close)) and notifies every
//! waiter it drained. A registration that finds the list closed is told
//! so and counts the dependence satisfied. Because one word holds both
//! "computed?" and the list head, every edge is decided exactly once:
//! either the link was pushed before the swap and is drained by it, or
//! the registrant sees the sentinel — never both, never neither (W2 / W1
//! in the `nabbitc-check` scenario's terms).
//!
//! Orderings: `register` reads the head with `Acquire` and publishes with
//! a `Release` CAS (`Acquire` on failure, since the failed CAS is the
//! next read of the head); `close` is an `AcqRel` swap. Seeing the
//! sentinel therefore happens-after everything the closer did before
//! `close` — the computed node's output — and the closer sees every
//! drained link as its registrant wrote it.
//!
//! Under `--cfg nabbitc_weak_close` (the canary for this type) `close`
//! becomes a `load` followed by a `store`: a link pushed between the two
//! is overwritten by the sentinel and its waiter is never notified — the
//! W1 lost successor the checker must catch, and two sites the atomics
//! audit has no policy row for.

use nabbitc_runtime::sync::{AtomicI64, AtomicPtr, Ordering};

/// Join counter with +1 initialization bias (see module docs).
#[derive(Debug)]
pub struct JoinCounter {
    count: AtomicI64,
}

impl Default for JoinCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl JoinCounter {
    /// A counter for a freshly created, not-yet-scanned node.
    pub fn new() -> Self {
        JoinCounter {
            count: AtomicI64::new(0),
        }
    }

    /// A counter for a node whose `preds` dependences are all known up
    /// front (a pre-built graph): armed at construction, with no scan and
    /// therefore no bias — only [`notify`](Self::notify) ever touches it,
    /// once per dependence, and the one that reaches zero owns the
    /// compute. A node with no dependences is born ready; it is its
    /// creator that releases it.
    pub fn armed(preds: usize) -> Self {
        JoinCounter {
            count: AtomicI64::new(preds as i64),
        }
    }

    /// Arms the counter for a predecessor scan over `preds` dependences:
    /// full count plus the init bias that keeps the node from firing
    /// before [`end_scan`](Self::end_scan).
    pub fn begin_scan(&self, preds: usize) {
        #[cfg(not(nabbitc_weak_join))]
        self.count.store(preds as i64 + 1, Ordering::SeqCst);
        #[cfg(nabbitc_weak_join)]
        self.count.store(preds as i64, Ordering::Relaxed);
    }

    /// Releases `satisfied` already-computed dependences plus the init
    /// bias in one decrement. Returns `true` iff this decrement brought
    /// the counter to zero — the caller owns the compute.
    pub fn end_scan(&self, satisfied: i64) -> bool {
        #[cfg(not(nabbitc_weak_join))]
        let ready = self.count.fetch_sub(satisfied + 1, Ordering::AcqRel) == satisfied + 1;
        #[cfg(nabbitc_weak_join)]
        let ready = self.count.fetch_sub(satisfied, Ordering::Relaxed) == satisfied;
        ready
    }

    /// One dependence satisfied by a completing predecessor. Returns
    /// `true` iff this was the last one — the caller owns the compute.
    pub fn notify(&self) -> bool {
        self.count.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Current count (diagnostics; a computed node must read zero).
    pub fn pending(&self) -> i64 {
        self.count.load(Ordering::SeqCst)
    }
}

/// One registration slot: a waiter and the intrusive `next` pointer of
/// the [`SuccessorList`] it is pushed onto. The waiter is fixed at
/// construction; `next` is written only by the registering thread,
/// before the CAS that publishes the link.
#[derive(Debug)]
pub struct Link<T> {
    next: AtomicPtr<Link<T>>,
    waiter: T,
}

impl<T> Link<T> {
    /// An unregistered slot for `waiter`.
    pub fn new(waiter: T) -> Self {
        Link {
            next: AtomicPtr::new(std::ptr::null_mut()),
            waiter,
        }
    }
}

/// Lock-free successor list, open until its node is computed (see the
/// module docs). `T` is whatever the notifier needs to find the waiter —
/// a node handle in the executor, an index in the model checker.
#[derive(Debug)]
pub struct SuccessorList<T> {
    /// Null (open, empty), a pushed [`Link`] (open), or [`Self::closed`].
    head: AtomicPtr<Link<T>>,
}

impl<T> Default for SuccessorList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SuccessorList<T> {
    /// An open, empty list.
    pub fn new() -> Self {
        SuccessorList {
            head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// The closed sentinel: `Link` holds a pointer, so no link lives at
    /// address 1.
    fn closed() -> *mut Link<T> {
        std::ptr::without_provenance_mut(1)
    }

    /// Pushes `link` unless the list is closed. `true`: the waiter is
    /// enqueued and the eventual [`close`](Self::close) yields it exactly
    /// once. `false`: the list was already closed — the dependence is
    /// satisfied and the link was not touched.
    ///
    /// # Safety
    ///
    /// `link` must stay alive and unmoved until the iterator returned by
    /// this list's `close` has been dropped (or the list itself is), and
    /// must not be passed to any `register` again once this call has
    /// returned `true`.
    pub unsafe fn register(&self, link: &Link<T>) -> bool {
        let this = link as *const Link<T> as *mut Link<T>;
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            if head == Self::closed() {
                return false;
            }
            link.next.store(head, Ordering::Relaxed);
            match self
                .head
                .compare_exchange(head, this, Ordering::Release, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(seen) => head = seen,
            }
        }
    }

    /// Closes the list and hands over every waiter registered before the
    /// close, newest first. Registrations from here on return `false`.
    /// Closing an already closed list yields nothing.
    pub fn close(&self) -> Drain<'_, T> {
        #[cfg(not(nabbitc_weak_close))]
        let head = self.head.swap(Self::closed(), Ordering::AcqRel);
        #[cfg(nabbitc_weak_close)]
        let head = self.head.load(Ordering::Acquire);
        #[cfg(nabbitc_weak_close)]
        self.head.store(Self::closed(), Ordering::Release);
        Drain {
            next: head,
            _list: std::marker::PhantomData,
        }
    }

    /// Whether [`close`](Self::close) has happened; `true` also makes the
    /// closer's earlier writes visible.
    pub fn is_closed(&self) -> bool {
        self.head.load(Ordering::Acquire) == Self::closed()
    }
}

/// The waiters a [`SuccessorList::close`] took, newest registration first.
#[derive(Debug)]
pub struct Drain<'a, T> {
    next: *mut Link<T>,
    _list: std::marker::PhantomData<&'a SuccessorList<T>>,
}

impl<T: Copy> Iterator for Drain<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.next.is_null() || self.next == SuccessorList::<T>::closed() {
            return None;
        }
        // SAFETY: a non-null, non-sentinel pointer in the chain was pushed
        // by `register`, whose caller keeps the link alive and in place
        // until this iterator is dropped; the link is only ever read
        // through shared references. The `AcqRel` swap in `close`
        // synchronized with the `Release` CAS that published it.
        let link = unsafe { &*self.next };
        self.next = link.next.load(Ordering::Relaxed);
        Some(link.waiter)
    }
}

#[cfg(all(test, not(nabbitc_check)))]
mod tests {
    use super::*;

    #[test]
    fn scan_side_owns_compute_when_all_preds_done() {
        let j = JoinCounter::new();
        j.begin_scan(2);
        assert!(!j.notify());
        assert!(!j.notify());
        assert!(j.end_scan(0), "bias release must fire after both preds");
        assert_eq!(j.pending(), 0);
    }

    #[test]
    fn already_satisfied_preds_fold_into_end_scan() {
        let j = JoinCounter::new();
        j.begin_scan(3);
        assert!(!j.notify());
        // Two preds were observed computed during the scan.
        assert!(j.end_scan(2));
        assert_eq!(j.pending(), 0);
    }

    #[test]
    fn late_notify_owns_compute() {
        let j = JoinCounter::new();
        j.begin_scan(1);
        assert!(!j.end_scan(0), "pred outstanding: scanner must not fire");
        assert!(j.notify(), "last dependence owns the compute");
        assert_eq!(j.pending(), 0);
    }

    #[test]
    fn armed_counter_fires_on_the_last_of_its_notifies() {
        let j = JoinCounter::armed(3);
        assert_eq!(j.pending(), 3);
        assert!(!j.notify());
        assert!(!j.notify());
        assert!(j.notify(), "the last dependence owns the compute");
        assert_eq!(j.pending(), 0);
        assert_eq!(JoinCounter::armed(0).pending(), 0, "a source is born ready");
    }

    #[test]
    fn no_preds_fires_immediately() {
        let j = JoinCounter::new();
        j.begin_scan(0);
        assert!(j.end_scan(0));
    }

    #[test]
    fn close_drains_registered_waiters_newest_first_then_refuses() {
        let list = SuccessorList::new();
        let links: Vec<Link<u32>> = (0..3).map(Link::new).collect();
        assert!(!list.is_closed());
        for l in &links {
            // SAFETY: `links` outlives `list`, each link is registered once.
            assert!(unsafe { list.register(l) });
        }
        assert_eq!(list.close().collect::<Vec<_>>(), vec![2, 1, 0]);
        assert!(list.is_closed());
        let late = Link::new(9);
        // SAFETY: `late` outlives `list`; a refused link is not retained.
        assert!(!unsafe { list.register(&late) });
        assert_eq!(list.close().count(), 0, "second close yields nothing");
    }

    #[test]
    fn racing_registrations_are_each_drained_or_refused_exactly_once() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 2_000;
        for _ in 0..20 {
            let list = SuccessorList::new();
            let links: Vec<Link<usize>> = (0..THREADS * PER_THREAD).map(Link::new).collect();
            let barrier = std::sync::Barrier::new(THREADS + 1);
            let (enqueued, drained) = std::thread::scope(|s| {
                let registrants: Vec<_> = links
                    .chunks(PER_THREAD)
                    .map(|mine| {
                        let (list, barrier) = (&list, &barrier);
                        s.spawn(move || {
                            barrier.wait();
                            mine.iter()
                                // SAFETY: `links` outlives the scope and the
                                // drain below; each link is registered once.
                                .filter(|l| unsafe { list.register(l) })
                                .map(|l| l.waiter)
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                barrier.wait();
                std::thread::yield_now();
                let drained: Vec<usize> = list.close().collect();
                let enqueued: Vec<usize> = registrants
                    .into_iter()
                    .flat_map(|h| h.join().expect("registrant panicked"))
                    .collect();
                (enqueued, drained)
            });
            let sorted = |mut v: Vec<usize>| {
                v.sort_unstable();
                v
            };
            assert_eq!(sorted(enqueued), sorted(drained));
        }
    }
}
