//! The join counter — the paper's readiness arbiter, for both executors.
//!
//! On the on-demand path a node's counter is initialized with a +1
//! *initialization bias* while its predecessor list is being scanned
//! (`begin_scan`), so the node cannot fire mid-scan no matter how fast
//! predecessors complete. Each completing predecessor decrements once
//! (`notify`); the scanning worker releases the bias together with the
//! already-satisfied dependences in one decrement (`end_scan`). Whichever
//! decrement reaches zero owns the compute — exactly one of them can,
//! which is the exactly-once enqueue guarantee the `nabbitc-check` join
//! scenario verifies over all bounded interleavings. On the pre-built
//! path there is nothing to scan: the counter is born holding the
//! in-degree (`armed`) and `notify` is its only operation — the same
//! decrement chain without the scanner, checked by the same scenario.
//!
//! A decrement that finds the counter holding exactly its own share —
//! 1 for `notify`, the satisfied dependences plus the bias for `end_scan`
//! — is the last one: every other holder of a share has already taken
//! it off, so no thread can write the counter again. It fires with a
//! load and a plain store of zero instead of a lock-prefixed RMW. Only
//! when other shares are still outstanding does it pay the RMW, whose
//! result decides the race as before.
//!
//! Orderings: the count is armed with a `Relaxed` store, which reaches
//! every notifier through the registration CAS that publishes the node
//! (or, armed, through the job's start); the decrements form an `AcqRel`
//! release sequence, and the fast paths' `Acquire` load reads its last
//! value, so whichever decrement fires observes every predecessor's
//! writes. Each site's `// ORDERING` comment below gives its pairing and
//! reason.
//!
//! Under `--cfg nabbitc_weak_join` (a seeded-bug canary, set via
//! `RUSTFLAGS` like the runtime's `nabbitc_weak_pop`) the bias is
//! dropped and `end_scan`'s decrement is downgraded to `Relaxed`: a
//! predecessor finishing mid-scan can then bring the counter to zero
//! *and* the scanner's `end_scan` still observes zero — both enqueue,
//! the W2 double-compute the checker must catch. The downgrade is
//! rejected statically by the `nabbitc-lint` atomics audit, which checks
//! this file's sites cfg-aware against their `// ORDERING` annotations.
//!
//! Under `--cfg nabbitc_weak_fire` (the canary for the fast paths)
//! `notify`'s fast path forgets the scan's bias: a notifier that reads 2
//! fires, taking the other unit for a bias that `end_scan` is about to
//! release, and leaves it in the counter — so `end_scan` then finds its
//! own share and fires too: the W2 double enqueue, which the checker must
//! catch. No ordering changes, so only the checker can.
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
//! Orderings: an `Acquire` read and a `Release` CAS in `register`, an
//! `AcqRel` swap in `close`. Seeing the sentinel therefore happens-after
//! everything the closer did before `close` — the computed node's output
//! — and the closer sees every drained link as its registrant wrote it;
//! the per-site reasons are in the `// ORDERING` comments below.
//!
//! Under `--cfg nabbitc_weak_close` (the canary for this type) `close`
//! becomes a `load` followed by a `store`: a link pushed between the two
//! is overwritten by the sentinel and its waiter is never notified — the
//! W1 lost successor the checker must catch, and two sites no
//! `// ORDERING` annotation covers.

use nabbitc_runtime::sync::{AtomicI64, AtomicPtr, Ordering};

/// Join counter with +1 initialization bias (see module docs).
#[derive(Debug)]
pub struct JoinCounter {
    count: AtomicI64,
}

/// The count of a counter whose scan has not begun. No armed count is
/// negative, so [`JoinCounter::begin_scan`] tells a first scan from any
/// later one by what it finds.
const UNSCANNED: i64 = -1;

/// How a decrement that fired got the counter to zero: seen by the model
/// checker, which asserts that its scenarios reach both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fired {
    /// The counter held exactly the caller's share: a load and a store.
    Load,
    /// Other shares were outstanding when the caller looked: the RMW's
    /// result decided it.
    Rmw,
}

impl Default for JoinCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl JoinCounter {
    /// A counter for a freshly created, not-yet-scanned node; it reads
    /// −1 until [`begin_scan`](Self::begin_scan) arms it.
    pub fn new() -> Self {
        JoinCounter {
            count: AtomicI64::new(UNSCANNED),
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
    /// before [`end_scan`](Self::end_scan). Only the node's creator scans
    /// it, before publishing it to any predecessor.
    ///
    /// # Panics
    ///
    /// If the counter was armed before — mid-scan, waiting or computed: a
    /// node is scanned exactly once.
    pub fn begin_scan(&self, preds: usize) {
        // ORDERING count.load: Relaxed — the scanned-once check: the creator
        // reads the count it was born with; no other thread writes it before
        // the scan publishes the node
        let before = self.count.load(Ordering::Relaxed);
        assert_eq!(before, UNSCANNED, "a node is scanned exactly once");
        #[cfg(not(nabbitc_weak_join))]
        let armed = preds as i64 + 1;
        #[cfg(nabbitc_weak_join)]
        let armed = preds as i64;
        // ORDERING count.store: Relaxed — seeds preds+1 (the init bias): the
        // node reaches no notifier before the registration CAS (Release) that
        // publishes it, which orders this store before every decrement
        self.count.store(armed, Ordering::Relaxed);
    }

    /// Releases `satisfied` already-computed dependences plus the init
    /// bias in one decrement. Returns `true` iff this decrement brought
    /// the counter to zero — the caller owns the compute.
    pub fn end_scan(&self, satisfied: i64) -> bool {
        self.end_scan_fired(satisfied).is_some()
    }

    /// [`end_scan`](Self::end_scan), telling how it fired.
    #[inline]
    pub(crate) fn end_scan_fired(&self, satisfied: i64) -> Option<Fired> {
        // The scanner's share: the satisfied dependences and the bias.
        let share = satisfied + 1;
        // ORDERING count.load: Acquire; pairs notify_fired::count.fetch_sub —
        // the fast path: reading exactly the scanner's share means every
        // registered predecessor has notified, and reading the last RMW of
        // the release sequence synchronizes with each of them
        #[cfg(not(nabbitc_weak_join))]
        let alone = self.count.load(Ordering::Acquire) == share;
        #[cfg(nabbitc_weak_join)]
        let alone = false;
        if alone {
            // ORDERING count.store: Relaxed — no one else holds a share, so no
            // thread writes the counter again; zero keeps `pending()` reading 0
            // on a computed node
            self.count.store(0, Ordering::Relaxed);
            return Some(Fired::Load);
        }
        // ORDERING count.fetch_sub: AcqRel; pairs notify_fired::count.fetch_sub
        // — releases the bias plus already-satisfied dependences in one RMW
        // while notifiers are still outstanding; Acquire on the firing
        // decrement synchronizes with every predecessor's Release in the
        // chain — the nabbitc_weak_join cfg drops the bias and downgrades this
        // to Relaxed, rejected here
        #[cfg(not(nabbitc_weak_join))]
        let fired = self.count.fetch_sub(share, Ordering::AcqRel) == share;
        #[cfg(nabbitc_weak_join)]
        let fired = self.count.fetch_sub(share - 1, Ordering::Relaxed) == share - 1;
        fired.then_some(Fired::Rmw)
    }

    /// One dependence satisfied by a completing predecessor. Returns
    /// `true` iff this was the last one — the caller owns the compute.
    pub fn notify(&self) -> bool {
        self.notify_fired().is_some()
    }

    /// [`notify`](Self::notify), telling how it fired.
    #[inline]
    pub(crate) fn notify_fired(&self) -> Option<Fired> {
        // ORDERING count.load: Acquire; pairs notify_fired::count.fetch_sub,
        // end_scan_fired::count.fetch_sub — the fast path: reading 1 means the
        // caller's is the only share left, and reading the last RMW of the
        // release sequence synchronizes with every earlier decrement
        let count = self.count.load(Ordering::Acquire);
        #[cfg(not(nabbitc_weak_fire))]
        let alone = count == 1;
        #[cfg(nabbitc_weak_fire)]
        let alone = count == 1 || count == 2;
        if alone {
            // ORDERING count.store: Relaxed — no one else holds a share, so no
            // thread writes the counter again; zero keeps `pending()` reading 0
            // on a computed node
            #[cfg(not(nabbitc_weak_fire))]
            self.count.store(0, Ordering::Relaxed);
            #[cfg(nabbitc_weak_fire)]
            self.count.store(count - 1, Ordering::Relaxed);
            return Some(Fired::Load);
        }
        // ORDERING count.fetch_sub: AcqRel; pairs notify_fired::count.fetch_sub,
        // end_scan_fired::count.fetch_sub — per-predecessor decrement while
        // other shares are outstanding, the one successor-release site of both
        // node stores (the on-demand table's drained waiters and the dense
        // store's graph successors, whose counter is born armed with the
        // in-degree and sees no other operation): Release publishes the
        // predecessor's computed effects into the release sequence (including
        // its own prior decrements, hence the self pair), Acquire on the
        // firing decrement observes them all — run_join_protocol checks both
        // armings
        (self.count.fetch_sub(1, Ordering::AcqRel) == 1).then_some(Fired::Rmw)
    }

    /// Current count (diagnostics; a computed node must read zero).
    pub fn pending(&self) -> i64 {
        // ORDERING count.load: SeqCst — diagnostics read (a computed node must
        // show zero); off the hot path
        self.count.load(Ordering::SeqCst)
    }
}

/// What the model checker sees of a decrement: whether it fired, and how.
#[cfg(nabbitc_check)]
impl JoinCounter {
    /// [`notify`](Self::notify): `None` if it did not fire, else whether
    /// it fired through the load (`true`) or the RMW.
    pub fn notify_by_load(&self) -> Option<bool> {
        self.notify_fired().map(|f| f == Fired::Load)
    }

    /// [`end_scan`](Self::end_scan): `None` if it did not fire, else
    /// whether it fired through the load (`true`) or the RMW.
    pub fn end_scan_by_load(&self, satisfied: i64) -> Option<bool> {
        self.end_scan_fired(satisfied).map(|f| f == Fired::Load)
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
        // ORDERING head.load: Acquire; pairs close::head.swap,
        // register::head.compare_exchange — first read of the head: Acquire so
        // that seeing the closed sentinel makes the computed predecessor's
        // output visible (the closer's swap), and so that the link pushed by
        // an earlier registrant is visible before it becomes this link's next
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            if head == Self::closed() {
                return false;
            }
            // ORDERING next.store: Relaxed — link slot written only by its
            // owner before the publishing CAS; the CAS's Release is what makes
            // it visible to the drain
            link.next.store(head, Ordering::Relaxed);
            // ORDERING head.compare_exchange: Release/Acquire; pairs
            // close::head.swap, register::head.compare_exchange — publishes
            // the link (waiter, next, and the waiter's armed join counter) to
            // the closer's Acquire swap; on failure it is the next read of the
            // head, hence Acquire for the same reasons as the first load
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
        // ORDERING head.swap: AcqRel; pairs register::head.compare_exchange —
        // one RMW decides every edge: Acquire takes the links registrants
        // published, Release publishes the computed node's output to whoever
        // sees the sentinel — the nabbitc_weak_close cfg replaces it with a
        // load and a store (a registration between the two is lost), sites
        // deliberately left without an annotation
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
        // ORDERING head.load: Acquire; pairs close::head.swap — status read
        // (the sink check after the run, diagnostics); Acquire so that
        // 'computed' implies the node's output is visible
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
        // ORDERING next.load: Relaxed — drain walk: the link was published by
        // a Release CAS that the closing swap acquired, so its next pointer is
        // already visible
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
    fn a_second_scan_fails_loudly_whatever_the_count() {
        let second_scan_panics = |j: &JoinCounter| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| j.begin_scan(1))).is_err()
        };
        // Mid-scan, waiting on a predecessor, and computed (count zero).
        let mid_scan = JoinCounter::new();
        mid_scan.begin_scan(1);
        assert!(second_scan_panics(&mid_scan));
        let waiting = JoinCounter::new();
        waiting.begin_scan(1);
        assert!(!waiting.end_scan(0));
        assert!(second_scan_panics(&waiting));
        let computed = JoinCounter::new();
        computed.begin_scan(0);
        assert!(computed.end_scan(0));
        assert_eq!(computed.pending(), 0);
        assert!(second_scan_panics(&computed));
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
