//! Chase–Lev work-stealing deque with embedded color tags and a
//! *conditional* (colored) steal.
//!
//! The paper keeps a separate "color deque" in lockstep with the Cilk work
//! deque because it cannot change Cilk's frame layout; each entry is "a
//! fixed length array of boolean flags indicating colors contained in the
//! corresponding continuation. This makes the thief's check a constant time
//! operation" (§III). Here we control the layout, so the color mask lives
//! *inside* the deque slot and the steal operation takes the thief's color
//! as a predicate evaluated before the claiming CAS — semantically the same
//! check with one less structure to keep synchronized.
//!
//! The algorithm is the classic dynamic circular work-stealing deque
//! (Chase & Lev, SPAA'05) with the C11 orderings of Lê et al. (PPoPP'13).
//! Values are `Box<T>` raw pointers so every slot field is individually
//! atomic — no torn reads anywhere:
//!
//! * `push`/`pop` are owner-only (single thread);
//! * `steal`/`steal_batch`/`steal_batch_if` may be called by any number of
//!   thieves, and are one claim loop: `steal` claims at most one entry,
//!   the batch forms up to half the victim's (steal-half);
//! * a *colored* steal reads the top slot's color words and returns
//!   [`Steal::ColorMismatch`] without touching `top` when the thief's color
//!   is absent — a failed colored steal attempt, O(1), no interference with
//!   the victim (exactly the paper's cheap check);
//! * retired buffers from growth are kept alive until the deque drops, so
//!   in-flight thieves can always dereference the buffer they loaded.

use crate::sync::{fence, AtomicIsize, AtomicPtr, AtomicU64, Mutex, Ordering};
use crossbeam_utils::CachePadded;
use nabbitc_color::ColorSet;

/// Result of a steal attempt.
#[derive(Debug)]
pub enum Steal<T> {
    /// The thief claimed this value.
    Success(Box<T>),
    /// The deque was (apparently) empty.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
    /// Colored steal only: the top entry does not contain the thief's
    /// color. The entry was left in place.
    ColorMismatch,
}

impl<T> Steal<T> {
    /// Unwraps a successful steal.
    pub fn success(self) -> Option<Box<T>> {
        match self {
            Steal::Success(v) => Some(v),
            _ => None,
        }
    }
}

const COLOR_WORDS: usize = 4;

/// Upper bound on the number of entries one [`ColoredDeque::steal_batch`]
/// call may claim. Half the victim's visible length is the steal-half
/// policy; the cap keeps a single thief from monopolizing a huge deque
/// (and bounds the time the thief spends re-validating claims).
pub const MAX_STEAL_BATCH: usize = 16;

/// Gate on the per-claim revalidation inside `claim`. Claiming
/// more than one element with the indices read *before the first CAS* is
/// unsound: the owner may pop the deque down and, once `bottom` reaches
/// the thief's stale window, take an element *without* a CAS (the `t < b`
/// fast path in `pop`) while the thief's chained CAS still succeeds —
/// both sides own one slot. `--cfg nabbitc_weak_batch` seeds exactly that
/// bug so the model checker can prove the batch scenarios catch it.
#[cfg(not(nabbitc_weak_batch))]
const BATCH_REVALIDATE: bool = true;
#[cfg(nabbitc_weak_batch)]
const BATCH_REVALIDATE: bool = false;

/// One deque slot: a value pointer plus the entry's color mask. All fields
/// atomic; thieves read them speculatively and the top-CAS validates the
/// claim (standard Chase–Lev reasoning — a slot at index `t` cannot be
/// recycled until `top` has moved past `t`).
struct Slot<T> {
    ptr: AtomicPtr<T>,
    colors: [AtomicU64; COLOR_WORDS],
}

impl<T> Slot<T> {
    fn empty() -> Self {
        Slot {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
            colors: Default::default(),
        }
    }
}

struct Buffer<T> {
    mask: usize,
    slots: Box<[Slot<T>]>,
}

impl<T> Buffer<T> {
    fn new(cap: usize) -> Box<Self> {
        debug_assert!(cap.is_power_of_two());
        Box::new(Buffer {
            mask: cap - 1,
            slots: (0..cap).map(|_| Slot::empty()).collect(),
        })
    }

    #[inline]
    fn slot(&self, index: isize) -> &Slot<T> {
        &self.slots[(index as usize) & self.mask]
    }

    #[inline]
    fn cap(&self) -> usize {
        self.mask + 1
    }
}

/// A work-stealing deque whose entries carry a [`ColorSet`].
///
/// Owner operations: [`push`](Self::push), [`pop`](Self::pop).
/// Thief operations: [`steal`](Self::steal),
/// [`steal_batch`](Self::steal_batch),
/// [`steal_batch_if`](Self::steal_batch_if).
///
/// The owner side must be used from a single thread at a time; this is not
/// enforced by the type system here because the pool stores all deques in
/// one array (each worker only touches its own bottom end). Misuse is
/// checked in debug builds via an owner tag would be overkill; the pool is
/// the only client.
pub struct ColoredDeque<T> {
    bottom: CachePadded<AtomicIsize>,
    top: CachePadded<AtomicIsize>,
    buffer: AtomicPtr<Buffer<T>>,
    /// Buffers replaced by growth; freed on drop. Keeping them alive lets
    /// in-flight thieves finish their speculative reads safely.
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: the deque owns its values behind raw pointers (Box::into_raw on
// push, Box::from_raw on exactly one successful pop/steal), so sending the
// deque sends the values — T: Send is exactly the bound that makes that
// sound. Concurrent access is mediated entirely by the atomic protocol
// above; no &T is ever handed out, so no T: Sync requirement arises.
unsafe impl<T: Send> Send for ColoredDeque<T> {}
// SAFETY: see the Send impl — shared access goes through atomics only.
unsafe impl<T: Send> Sync for ColoredDeque<T> {}

/// Initial buffer capacity. Under the model checker it drops to 2 so the
/// bounded configs (3–6 tasks) exercise `grow` — a buffer resize racing
/// concurrent thieves — without needing 65 pushes per execution.
#[cfg(not(nabbitc_check))]
const MIN_CAP: usize = 64;
#[cfg(nabbitc_check)]
const MIN_CAP: usize = 2;

impl<T> Default for ColoredDeque<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ColoredDeque<T> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        ColoredDeque {
            bottom: CachePadded::new(AtomicIsize::new(0)),
            top: CachePadded::new(AtomicIsize::new(0)),
            buffer: AtomicPtr::new(Box::into_raw(Buffer::new(MIN_CAP))),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Approximate number of entries (racy; for stats/heuristics only).
    pub fn len(&self) -> usize {
        // ORDERING bottom.load: Relaxed — advisory size for stats/heuristics;
        // staleness is tolerated by design
        let b = self.bottom.load(Ordering::Relaxed);
        // ORDERING top.load: Relaxed — advisory size for stats/heuristics;
        // staleness is tolerated by design
        let t = self.top.load(Ordering::Relaxed);
        b.saturating_sub(t).max(0) as usize
    }

    /// Whether the deque appears empty (racy).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner: pushes a value tagged with `colors` at the bottom.
    pub fn push(&self, value: Box<T>, colors: ColorSet) {
        // ORDERING bottom.load: Relaxed — bottom is owner-only; the owner
        // reads its own last store
        let b = self.bottom.load(Ordering::Relaxed);
        // ORDERING top.load: Acquire; pairs pop::top.compare_exchange,
        // claim::top.compare_exchange — reserves space against concurrent
        // steals; Acquire synchronizes with thieves' top CAS
        let t = self.top.load(Ordering::Acquire);
        // SAFETY: only the owner swaps `buffer` (in `grow`), and we are the
        // owner — the pointer is the one we installed and stays valid until
        // we retire it ourselves.
        // ORDERING buffer.load: Relaxed — buffer is replaced only by the owner
        // itself (grow), so its own load needs no ordering
        let mut buf = unsafe { &*self.buffer.load(Ordering::Relaxed) };

        if b - t >= buf.cap() as isize {
            self.grow(b, t);
            // SAFETY: as above; `grow` just installed this buffer.
            buf = unsafe { &*self.buffer.load(Ordering::Relaxed) };
        }

        let slot = buf.slot(b);
        for (w, v) in slot.colors.iter().zip(colors.to_words()) {
            // ORDERING w.store: Relaxed — color-array slot write; published to
            // thieves by the Release fence before the bottom store
            w.store(v, Ordering::Relaxed);
        }
        // ORDERING ptr.store: Relaxed — task-slot write; published to thieves
        // by the Release fence before the bottom store
        slot.ptr.store(Box::into_raw(value), Ordering::Relaxed);
        // ORDERING fence: Release — publishes the slot writes before bottom is
        // advanced (pairs with the thief's SeqCst fence)
        fence(Ordering::Release);
        // ORDERING bottom.store: Relaxed — the preceding Release fence orders
        // the slot data before this index publication
        self.bottom.store(b + 1, Ordering::Relaxed);
    }

    /// Owner: publishes `values` (oldest first) with **one** release fence
    /// and **one** `bottom` store, instead of one of each per entry — the
    /// batched-spawn fast path. Equivalent to pushing the entries in
    /// order: thieves see `values[0]` first, the owner pops the last
    /// entry first.
    pub fn push_batch(&self, values: Vec<(Box<T>, ColorSet)>) {
        let n = values.len() as isize;
        if n == 0 {
            return;
        }
        // ORDERING bottom.load: Relaxed — bottom is owner-only; the owner
        // reads its own last store
        let b = self.bottom.load(Ordering::Relaxed);
        // ORDERING top.load: Acquire; pairs pop::top.compare_exchange,
        // claim::top.compare_exchange — reserves space for the whole batch
        // against concurrent steals; same edge as push
        let t = self.top.load(Ordering::Acquire);
        // SAFETY: owner-side buffer access, same argument as in `push`.
        // ORDERING buffer.load: Relaxed — buffer is replaced only by the owner
        // itself (grow); two sites (initial + post-grow reload)
        let mut buf = unsafe { &*self.buffer.load(Ordering::Relaxed) };

        while b - t + n > buf.cap() as isize {
            self.grow(b, t);
            // SAFETY: as above; `grow` just installed this buffer.
            buf = unsafe { &*self.buffer.load(Ordering::Relaxed) };
        }

        // Seeded bug (`--cfg nabbitc_weak_push_batch`): publishing the
        // advanced `bottom` *before* the slot writes lets a thief read a
        // stale slot — a pointer from a previous occupant — and claim it
        // with a valid-looking CAS. The correct store below is ordered
        // after the slot writes by the release fence (and, on TSO, by
        // store-buffer FIFO order).
        #[cfg(nabbitc_weak_push_batch)]
        self.bottom.store(b + n, Ordering::Relaxed);
        for (i, (value, colors)) in values.into_iter().enumerate() {
            let slot = buf.slot(b + i as isize);
            for (w, v) in slot.colors.iter().zip(colors.to_words()) {
                // ORDERING w.store: Relaxed — color-array writes for the whole
                // batch; published by the single Release fence below
                w.store(v, Ordering::Relaxed);
            }
            // ORDERING ptr.store: Relaxed — task-slot writes for the whole
            // batch; published by the single Release fence below
            slot.ptr.store(Box::into_raw(value), Ordering::Relaxed);
        }
        // ORDERING fence: Release — one fence publishes all N slot writes
        // before the single bottom advance — the point of batched spawn; the
        // nabbitc_weak_push_batch cfg moves the bottom store before the slots
        // and the seeded_push_batch model check proves that is caught as a W2
        // double take
        fence(Ordering::Release);
        // ORDERING bottom.store: Relaxed — single index publication for the
        // batch; ordered after the slot writes by the Release fence
        #[cfg(not(nabbitc_weak_push_batch))]
        self.bottom.store(b + n, Ordering::Relaxed);
    }

    /// Owner: pops the most recently pushed value (LIFO end).
    pub fn pop(&self) -> Option<Box<T>> {
        // ORDERING bottom.load: Relaxed — bottom is owner-only; the owner
        // reads its own last store
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        // SAFETY: owner-side buffer access, same argument as in `push`.
        // ORDERING buffer.load: Relaxed — buffer is replaced only by the owner
        // itself (grow)
        let buf = unsafe { &*self.buffer.load(Ordering::Relaxed) };
        // ORDERING bottom.store: Relaxed — owner-only index update; ordering
        // against thieves comes from the SeqCst fence and CAS
        self.bottom.store(b, Ordering::Relaxed);
        // ORDERING fence: SeqCst — the load-bearing store-load fence of
        // Chase–Lev (PPoPP'13): the `bottom` store above must be visible
        // before the `top` load below. Weakened to Release, the store can
        // sit in the store buffer while the load reads a stale `top` — owner
        // and thief can then both take the last element. `--cfg
        // nabbitc_weak_pop` seeds exactly that bug: the model checker must
        // catch it as a W2 violation, the lint audit as a downgrade.
        #[cfg(not(nabbitc_weak_pop))]
        fence(Ordering::SeqCst);
        #[cfg(nabbitc_weak_pop)]
        fence(Ordering::Release);
        // ORDERING top.load: Relaxed — ordered after the bottom decrement by
        // the SeqCst fence; no payload is read through it
        let t = self.top.load(Ordering::Relaxed);

        if t <= b {
            // Non-empty.
            // ORDERING ptr.load: Relaxed — owner reads a slot it previously
            // wrote; no inter-thread publication involved
            let ptr = buf.slot(b).ptr.load(Ordering::Relaxed);
            if t == b {
                // Last element: race against thieves for it.
                // ORDERING top.compare_exchange: SeqCst/Relaxed — last-task
                // race with thieves; SeqCst keeps it in the fence's total
                // order, failure is a pure retry so Relaxed suffices there
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b + 1, Ordering::Relaxed);
                if !won {
                    return None;
                }
            }
            // SAFETY: we own index b exclusively now (either b > t, so no
            // thief can claim it, or we won the CAS above).
            Some(unsafe { Box::from_raw(ptr) })
        } else {
            // Empty: restore bottom.
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Thief: steals the oldest entry (FIFO end), whatever its colors —
    /// the claim loop with a limit of one, which has nothing to spill.
    pub fn steal(&self) -> Steal<T> {
        let (got, _) = self.claim(None, 1, |_, _| unreachable!("nothing to spill"));
        got
    }

    /// Thief: steal-half batching — claims up to half the victim's
    /// visible entries (capped at [`MAX_STEAL_BATCH`]), returns the
    /// oldest as `Steal::Success` and pushes the rest onto `dest` (the
    /// thief's own deque) in victim FIFO order, so `dest.pop()` runs them
    /// newest-first and further thieves see the oldest first — the same
    /// order a chain of single steals would have produced.
    ///
    /// The second element is the number of entries moved into `dest`
    /// (0 when only one entry was claimed or the steal failed).
    pub fn steal_batch(&self, dest: &ColoredDeque<T>) -> (Steal<T>, usize) {
        debug_assert!(!std::ptr::eq(self, dest), "cannot steal into the victim");
        self.claim(None, MAX_STEAL_BATCH, |v, colors| dest.push(v, colors))
    }

    /// Thief: *colored* steal-half — like [`steal_batch`](Self::steal_batch)
    /// but claims only the longest prefix whose every entry intersects
    /// `accept`: the thief's own color, or every color of its NUMA domain
    /// (the paper: "multiple nearby cores can have the same color"). The
    /// first non-matching entry stops the batch (it stays in place for a
    /// matching thief); a mismatch on the very first entry is a
    /// [`Steal::ColorMismatch`] that leaves the deque untouched and costs
    /// four relaxed loads plus the initial index loads.
    pub fn steal_batch_if(&self, accept: &ColorSet, dest: &ColoredDeque<T>) -> (Steal<T>, usize) {
        debug_assert!(!std::ptr::eq(self, dest), "cannot steal into the victim");
        self.claim(Some(*accept), MAX_STEAL_BATCH, |v, colors| {
            dest.push(v, colors)
        })
    }

    /// The one thief-side protocol. Claims up to `limit` entries, never
    /// more than half of what is visible (rounded up), and only while they
    /// intersect `accept` when there is one; returns the oldest and hands
    /// every later one to `spill` in claim order, counting them.
    ///
    /// Entries are claimed **one CAS at a time**, and before every claim
    /// after the first the thief re-runs the full top/fence/bottom
    /// validation. Chaining CASes against the *initially* read `bottom`
    /// would be unsound — the owner may have popped the window down in the
    /// meantime and taken an element without a CAS (see
    /// [`BATCH_REVALIDATE`]). The win of a batch over repeated single
    /// steals is fewer steal-loop round trips and the locality of landing
    /// a coherent FIFO prefix in the thief's own deque, not fewer
    /// synchronizing operations per element.
    fn claim(
        &self,
        accept: Option<ColorSet>,
        limit: usize,
        mut spill: impl FnMut(Box<T>, ColorSet),
    ) -> (Steal<T>, usize) {
        // ORDERING top.load: Acquire; pairs pop::top.compare_exchange,
        // claim::top.compare_exchange — two sites: the thief's first read
        // and the per-claim revalidation; both synchronize with the owner's
        // and other thieves' CAS/publication of top
        let mut t = self.top.load(Ordering::Acquire);
        // ORDERING fence: SeqCst — two sites (initial + per-claim
        // revalidation): pairs with the pop fence, ordering the top read
        // before the bottom read in the single total order and so closing
        // the two-claimants window; re-running it before every chained claim
        // is what makes batching sound against concurrent owner pops (see the
        // nabbitc_weak_batch canary)
        fence(Ordering::SeqCst);
        // ORDERING bottom.load: Acquire; pairs push::fence.fence,
        // push_batch::fence.fence — two sites (initial + per-claim
        // revalidation); synchronizes with the owner's push publication so
        // each claim checks a current range, never the stale initial window
        let mut b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return (Steal::Empty, 0);
        }
        // Steal-half: half of what is visible now, rounded up, capped.
        let goal = (((b - t + 1) / 2) as usize).min(limit);
        let mut first: Option<Box<T>> = None;
        let mut moved = 0usize;
        for i in 0..goal {
            if i > 0 && BATCH_REVALIDATE {
                t = self.top.load(Ordering::Acquire);
                fence(Ordering::SeqCst);
                b = self.bottom.load(Ordering::Acquire);
            }
            if t >= b {
                break;
            }
            // SAFETY: a thief may observe a buffer the owner has since
            // retired, but retired buffers are kept alive (in `retired`)
            // until the deque itself drops, so the dereference never
            // dangles; the CAS below invalidates any stale value read
            // through it.
            // ORDERING buffer.load: Acquire; pairs grow::buffer.swap — re-read
            // per claim; synchronizes with grow's Release swap so the thief
            // sees fully-initialized storage
            let buf = unsafe { &*self.buffer.load(Ordering::Acquire) };
            let slot = buf.slot(t);
            let mut words = [0u64; COLOR_WORDS];
            for (w, a) in words.iter_mut().zip(slot.colors.iter()) {
                // ORDERING a.load: Relaxed — color-array slot read; made
                // visible by the push fence / buffer Acquire, value is
                // re-validated by the claiming CAS
                *w = a.load(Ordering::Relaxed);
            }
            let colors = ColorSet::from_words(words);
            if let Some(accept) = &accept {
                // A stale read here (slot recycled concurrently) either
                // fails the check — a spurious mismatch, which just ends
                // the batch — or passes it and is then invalidated by the
                // CAS below.
                if !colors.intersects(accept) {
                    if first.is_none() {
                        return (Steal::ColorMismatch, 0);
                    }
                    break;
                }
            }
            // ORDERING ptr.load: Relaxed — task-slot read; made visible by the
            // push fence / buffer Acquire, ownership is only taken if the
            // claiming CAS succeeds
            let ptr = slot.ptr.load(Ordering::Relaxed);
            // ORDERING top.compare_exchange: SeqCst/Relaxed — one CAS per
            // claimed task — never a multi-task jump — so the owner's
            // last-element pop and other thieves contend on one protocol;
            // SeqCst joins the fence order, failure aborts the batch (pure
            // retry) so Relaxed suffices there
            match self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            {
                Ok(_) => {
                    // SAFETY: winning the CAS on `top` grants exclusive
                    // ownership of the value read from slot t: the slot
                    // cannot have been recycled while top == t (the owner
                    // only reuses a slot index after top has advanced past
                    // it, and growth copies preserve slot contents at
                    // unchanged indices).
                    let value = unsafe { Box::from_raw(ptr) };
                    if first.is_none() {
                        first = Some(value);
                    } else {
                        spill(value, colors);
                        moved += 1;
                    }
                    t += 1;
                }
                Err(_) => {
                    if first.is_none() {
                        return (Steal::Retry, 0);
                    }
                    break;
                }
            }
        }
        match first {
            Some(v) => (Steal::Success(v), moved),
            // Raced to empty between the length read and the first claim.
            None => (Steal::Empty, 0),
        }
    }

    /// Owner: doubles the buffer, copying live entries `t..b`.
    #[cold]
    fn grow(&self, b: isize, t: isize) {
        // SAFETY: `grow` is only called by the owner, and only the owner
        // replaces `buffer`; the current pointer is live until we retire
        // it at the end of this function.
        // ORDERING buffer.load: Relaxed — grow runs on the owner thread; it
        // reads its own buffer pointer
        let old = unsafe { &*self.buffer.load(Ordering::Relaxed) };
        let new = Buffer::new(old.cap() * 2);
        for i in t..b {
            let os = old.slot(i);
            let ns = new.slot(i);
            // ORDERING ptr.load: Relaxed — copying slots the owner itself
            // wrote; publication happens at the buffer swap
            // ORDERING ptr.store: Relaxed — filling the new buffer before it
            // is published by the Release swap
            ns.ptr
                .store(os.ptr.load(Ordering::Relaxed), Ordering::Relaxed);
            for (nw, ow) in ns.colors.iter().zip(os.colors.iter()) {
                // ORDERING ow.load: Relaxed — copying color slots the owner
                // itself wrote; published by the Release swap
                // ORDERING nw.store: Relaxed — filling the new color array
                // before it is published by the Release swap
                nw.store(ow.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        // ORDERING buffer.swap: Release — publishes the fully-copied buffer;
        // pairs with the thief's Acquire buffer load
        let old_ptr = self.buffer.swap(Box::into_raw(new), Ordering::Release);
        self.retired.lock().push(old_ptr);
    }
}

impl<T> Drop for ColoredDeque<T> {
    fn drop(&mut self) {
        // Drain remaining values (owner context: no concurrent access
        // possible when dropping by &mut).
        while let Some(v) = self.pop() {
            drop(v);
        }
        // SAFETY: &mut self proves no thief or owner is running, so the
        // live buffer and every retired buffer are reachable only from
        // here; each was created by Box::into_raw and is freed exactly
        // once (retired entries are drained, preventing a double free).
        unsafe {
            // ORDERING buffer.load: Relaxed — destructor runs with exclusive
            // access (&mut self); no concurrent observers remain
            drop(Box::from_raw(self.buffer.load(Ordering::Relaxed)));
            for p in self.retired.lock().drain(..) {
                drop(Box::from_raw(p));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_color::Color;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Arc;

    fn set(colors: &[u16]) -> ColorSet {
        colors.iter().map(|&c| Color(c)).collect()
    }

    /// One colored steal by a thief of color `c`, on a deque where no two
    /// neighbours share a color — so the batch is its first entry alone.
    fn steal_colored(d: &ColoredDeque<u32>, c: Color) -> Steal<u32> {
        let (got, moved) = d.steal_batch_if(&ColorSet::singleton(c), &ColoredDeque::new());
        assert_eq!(moved, 0);
        got
    }

    #[test]
    fn push_pop_lifo() {
        let d: ColoredDeque<u32> = ColoredDeque::new();
        d.push(Box::new(1), set(&[0]));
        d.push(Box::new(2), set(&[1]));
        assert_eq!(*d.pop().unwrap(), 2);
        assert_eq!(*d.pop().unwrap(), 1);
        assert!(d.pop().is_none());
        assert!(d.pop().is_none()); // repeated pops on empty stay empty
    }

    #[test]
    fn steal_fifo() {
        let d: ColoredDeque<u32> = ColoredDeque::new();
        d.push(Box::new(1), set(&[0]));
        d.push(Box::new(2), set(&[0]));
        assert_eq!(*d.steal().success().unwrap(), 1);
        assert_eq!(*d.steal().success().unwrap(), 2);
        assert!(matches!(d.steal(), Steal::Empty));
    }

    #[test]
    fn steal_takes_exactly_one_of_many() {
        // Half of six is three, but `steal` is the claim loop with a
        // limit of one: it takes the oldest and leaves the other five.
        let d: ColoredDeque<u32> = ColoredDeque::new();
        for i in 0..6 {
            d.push(Box::new(i), set(&[0]));
        }
        assert_eq!(*d.steal().success().unwrap(), 0);
        assert_eq!(d.len(), 5);
        assert_eq!(*d.steal().success().unwrap(), 1);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn colored_steal_checks_top_entry() {
        let d: ColoredDeque<u32> = ColoredDeque::new();
        d.push(Box::new(1), set(&[3])); // top (steal end)
        d.push(Box::new(2), set(&[5]));
        assert!(matches!(steal_colored(&d, Color(5)), Steal::ColorMismatch));
        assert_eq!(d.len(), 2, "a mismatch leaves the deque untouched");
        assert_eq!(*steal_colored(&d, Color(3)).success().unwrap(), 1);
        // Now entry colored {5} is on top.
        assert!(matches!(steal_colored(&d, Color(3)), Steal::ColorMismatch));
        assert_eq!(*steal_colored(&d, Color(5)).success().unwrap(), 2);
    }

    #[test]
    fn colored_steal_matches_any_color_of_the_set() {
        let d: ColoredDeque<u32> = ColoredDeque::new();
        let dest: ColoredDeque<u32> = ColoredDeque::new();
        d.push(Box::new(1), set(&[4]));
        let accept: ColorSet = [Color(3), Color(4), Color(5)].into_iter().collect();
        let reject: ColorSet = [Color(0), Color(1)].into_iter().collect();
        assert!(matches!(
            d.steal_batch_if(&reject, &dest).0,
            Steal::ColorMismatch
        ));
        assert_eq!(*d.steal_batch_if(&accept, &dest).0.success().unwrap(), 1);
    }

    #[test]
    fn colored_steal_on_empty_is_empty() {
        let d: ColoredDeque<u32> = ColoredDeque::new();
        assert!(matches!(steal_colored(&d, Color(0)), Steal::Empty));
    }

    #[test]
    fn invalid_color_never_matches() {
        let d: ColoredDeque<u32> = ColoredDeque::new();
        d.push(Box::new(1), ColorSet::all(8));
        assert!(matches!(
            steal_colored(&d, Color::INVALID),
            Steal::ColorMismatch
        ));
        // Entry tagged with the empty set (invalid node color) is
        // unstealable by any colored steal — the Table III setup.
        let d2: ColoredDeque<u32> = ColoredDeque::new();
        d2.push(Box::new(9), ColorSet::singleton(Color::INVALID));
        assert!(matches!(steal_colored(&d2, Color(0)), Steal::ColorMismatch));
        assert_eq!(*d2.steal().success().unwrap(), 9); // random steal still works
    }

    #[test]
    fn growth_preserves_entries_and_colors() {
        let d: ColoredDeque<u64> = ColoredDeque::new();
        let dest: ColoredDeque<u64> = ColoredDeque::new();
        let n = 10_000u64; // forces several growths from MIN_CAP=64
        for i in 0..n {
            d.push(Box::new(i), set(&[(i % 13) as u16]));
        }
        // Steal half from the top (FIFO: 0,1,2,...). Neighbours differ in
        // color, so each colored batch is its first entry alone.
        for i in 0..n / 2 {
            // Color 100 never matches an entry (colors are i % 13): the
            // call must not yield the entry, only exercise the miss path.
            let miss = d.steal_batch_if(&set(&[100]), &dest).0;
            assert!(miss.success().is_none());
            let (got, moved) = d.steal_batch_if(&set(&[(i % 13) as u16]), &dest);
            assert_eq!((*got.success().unwrap(), moved), (i, 0));
        }
        // Pop the rest from the bottom (LIFO: n-1, n-2, ...).
        for i in (n / 2..n).rev() {
            assert_eq!(*d.pop().unwrap(), i);
        }
        assert!(d.pop().is_none());
    }

    #[test]
    fn drop_frees_remaining_entries() {
        // Miri/leak-check would catch failures; here we check drop counts.
        struct Counting(Arc<AtomicUsize>);
        impl Drop for Counting {
            fn drop(&mut self) {
                self.0.fetch_add(1, Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let d: ColoredDeque<Counting> = ColoredDeque::new();
            for _ in 0..100 {
                d.push(Box::new(Counting(drops.clone())), set(&[0]));
            }
            let _ = d.pop();
        }
        assert_eq!(drops.load(Relaxed), 100);
    }

    #[test]
    fn stress_owner_vs_thieves_every_item_once() {
        const ITEMS: usize = 200_000;
        const THIEVES: usize = 6;
        // Reproducible randomness: the owner's pop cadence comes from a
        // seeded RNG; set NABBITC_TEST_SEED to replay a failing run (the
        // seed is part of every assertion message).
        let seed = crate::rng::XorShift64::test_seed();
        let mut rng = crate::rng::XorShift64::new(seed);
        let d: Arc<ColoredDeque<usize>> = Arc::new(ColoredDeque::new());
        let seen: Arc<Vec<AtomicUsize>> =
            Arc::new((0..ITEMS).map(|_| AtomicUsize::new(0)).collect());
        let done = Arc::new(AtomicUsize::new(0));

        let thieves: Vec<_> = (0..THIEVES)
            .map(|_| {
                let d = d.clone();
                let seen = seen.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let mut got = 0usize;
                    loop {
                        match d.steal() {
                            Steal::Success(v) => {
                                seen[*v].fetch_add(1, Relaxed);
                                got += 1;
                            }
                            Steal::Empty => {
                                if done.load(Relaxed) == 1 {
                                    break;
                                }
                                // Yield, not spin: the test must progress
                                // on single-CPU machines where a spinning
                                // thief would starve the owner for a whole
                                // scheduler quantum.
                                std::thread::yield_now();
                            }
                            _ => std::thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();

        // Owner: pushes everything, popping at a seeded-random cadence so
        // different seeds exercise different owner/thief phase alignments.
        let mut popped = 0usize;
        for i in 0..ITEMS {
            d.push(Box::new(i), set(&[(i % 7) as u16]));
            if rng.next_below(3) == 0 {
                if let Some(v) = d.pop() {
                    seen[*v].fetch_add(1, Relaxed);
                    popped += 1;
                }
            }
        }
        while let Some(v) = d.pop() {
            seen[*v].fetch_add(1, Relaxed);
            popped += 1;
        }
        done.store(1, Relaxed);
        let stolen: usize = thieves.into_iter().map(|t| t.join().unwrap()).sum();

        assert_eq!(
            popped + stolen,
            ITEMS,
            "lost or duplicated items; replay with NABBITC_TEST_SEED={seed}"
        );
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(
                s.load(Relaxed),
                1,
                "item {i} seen {} times; replay with NABBITC_TEST_SEED={seed}",
                s.load(Relaxed)
            );
        }
    }

    #[test]
    fn stress_colored_thieves_only_take_matching() {
        const ITEMS: usize = 100_000;
        const THIEVES: usize = 4; // colors 0..4
        let seed = crate::rng::XorShift64::test_seed();
        let d: Arc<ColoredDeque<usize>> = Arc::new(ColoredDeque::new());
        let done = Arc::new(AtomicUsize::new(0));
        let taken = Arc::new(AtomicUsize::new(0));

        let thieves: Vec<_> = (0..THIEVES)
            .map(|tc| {
                let d = d.clone();
                let done = done.clone();
                let taken = taken.clone();
                std::thread::spawn(move || {
                    let my = ColorSet::singleton(Color(tc as u16));
                    let dest: ColoredDeque<usize> = ColoredDeque::new();
                    let mut violations = 0usize;
                    loop {
                        match d.steal_batch_if(&my, &dest).0 {
                            Steal::Success(v) => {
                                // Item i was tagged with color i % THIEVES,
                                // and so must whatever the batch moved be.
                                let moved = std::iter::from_fn(|| dest.pop());
                                for v in std::iter::once(v).chain(moved) {
                                    if *v % THIEVES != tc {
                                        violations += 1;
                                    }
                                    taken.fetch_add(1, Relaxed);
                                }
                            }
                            Steal::Empty => {
                                if done.load(Relaxed) == 1 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                            // A color mismatch blocks this thief until the
                            // matching thief takes the top entry — yield so
                            // that thief gets CPU time even on one core.
                            _ => std::thread::yield_now(),
                        }
                    }
                    violations
                })
            })
            .collect();

        // Seeded-random yields vary the owner/thief interleaving per run;
        // NABBITC_TEST_SEED replays a failing alignment exactly.
        let mut rng = crate::rng::XorShift64::new(seed);
        for i in 0..ITEMS {
            d.push(Box::new(i), set(&[(i % THIEVES) as u16]));
            if rng.next_below(64) == 0 {
                std::thread::yield_now();
            }
        }
        // Wait for thieves to drain everything (they cover all colors).
        while taken.load(Relaxed) < ITEMS {
            std::thread::yield_now();
        }
        done.store(1, Relaxed);
        for t in thieves {
            assert_eq!(
                t.join().unwrap(),
                0,
                "colored steal took a non-matching item; replay with NABBITC_TEST_SEED={seed}"
            );
        }
    }

    #[test]
    fn push_batch_matches_push_semantics() {
        let d: ColoredDeque<u32> = ColoredDeque::new();
        d.push(Box::new(0), set(&[0]));
        d.push_batch(vec![
            (Box::new(1), set(&[1])),
            (Box::new(2), set(&[2])),
            (Box::new(3), set(&[3])),
        ]);
        assert_eq!(d.len(), 4);
        // Thieves see the batch oldest-first, colors intact.
        assert!(matches!(steal_colored(&d, Color(5)), Steal::ColorMismatch));
        assert_eq!(*steal_colored(&d, Color(0)).success().unwrap(), 0);
        assert_eq!(*steal_colored(&d, Color(1)).success().unwrap(), 1);
        // Owner pops the newest batch entry first.
        assert_eq!(*d.pop().unwrap(), 3);
        assert_eq!(*d.pop().unwrap(), 2);
        assert!(d.pop().is_none());
        // Empty batches are a no-op.
        d.push_batch(Vec::new());
        assert!(d.pop().is_none());
    }

    #[test]
    fn push_batch_grows_past_several_doublings() {
        let d: ColoredDeque<u64> = ColoredDeque::new();
        let n = 1000u64; // one batch >> MIN_CAP forces a multi-doubling grow
        d.push_batch(
            (0..n)
                .map(|i| (Box::new(i), set(&[(i % 5) as u16])))
                .collect(),
        );
        for i in 0..n / 2 {
            assert_eq!(*d.steal().success().unwrap(), i);
        }
        for i in (n / 2..n).rev() {
            assert_eq!(*d.pop().unwrap(), i);
        }
        assert!(d.pop().is_none());
    }

    #[test]
    fn steal_batch_takes_half_and_keeps_fifo_order() {
        let d: ColoredDeque<u32> = ColoredDeque::new();
        let dest: ColoredDeque<u32> = ColoredDeque::new();
        for i in 0..8 {
            d.push(Box::new(i), set(&[0]));
        }
        let (got, moved) = d.steal_batch(&dest);
        // Half of 8 (the +1 rounds *up* on odd lengths) = 4: one kept,
        // three moved into dest.
        assert_eq!(*got.success().unwrap(), 0);
        assert_eq!(moved, 3);
        assert_eq!(dest.len(), 3);
        // dest holds the FIFO prefix in order: further thieves see the
        // oldest first, the new owner pops the newest first.
        assert_eq!(*dest.steal().success().unwrap(), 1);
        assert_eq!(*dest.pop().unwrap(), 3);
        assert_eq!(*dest.pop().unwrap(), 2);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn steal_batch_respects_cap_and_empty() {
        let d: ColoredDeque<usize> = ColoredDeque::new();
        let dest: ColoredDeque<usize> = ColoredDeque::new();
        assert!(matches!(d.steal_batch(&dest).0, Steal::Empty));
        for i in 0..100 {
            d.push(Box::new(i), set(&[0]));
        }
        let (got, moved) = d.steal_batch(&dest);
        assert!(got.success().is_some());
        assert_eq!(moved, MAX_STEAL_BATCH - 1, "batch must stop at the cap");
    }

    #[test]
    fn steal_batch_if_takes_matching_prefix_only() {
        let d: ColoredDeque<u32> = ColoredDeque::new();
        let dest: ColoredDeque<u32> = ColoredDeque::new();
        // Colors 0,0,1,0: a color-0 batch must stop before entry 2.
        for (i, c) in [0u16, 0, 1, 0].iter().enumerate() {
            d.push(Box::new(i as u32), set(&[*c]));
        }
        let accept = ColorSet::singleton(Color(0));
        let (got, moved) = d.steal_batch_if(&accept, &dest);
        assert_eq!(*got.success().unwrap(), 0);
        assert_eq!(moved, 1, "only the matching prefix may travel");
        assert_eq!(*dest.steal().success().unwrap(), 1);
        // The mismatching entry is now on top: first-entry mismatch.
        assert!(matches!(
            d.steal_batch_if(&accept, &dest).0,
            Steal::ColorMismatch
        ));
        assert_eq!(*d.steal().success().unwrap(), 2);
    }

    #[test]
    fn stress_batch_thieves_every_item_once() {
        const ITEMS: usize = 100_000;
        const THIEVES: usize = 4;
        let seed = crate::rng::XorShift64::test_seed();
        let mut rng = crate::rng::XorShift64::new(seed);
        let d: Arc<ColoredDeque<usize>> = Arc::new(ColoredDeque::new());
        let seen: Arc<Vec<AtomicUsize>> =
            Arc::new((0..ITEMS).map(|_| AtomicUsize::new(0)).collect());
        let done = Arc::new(AtomicUsize::new(0));

        let thieves: Vec<_> = (0..THIEVES)
            .map(|_| {
                let d = d.clone();
                let seen = seen.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    // Each thief drains its batch destination locally —
                    // the pool does the same with its own deque.
                    let dest: ColoredDeque<usize> = ColoredDeque::new();
                    let mut got = 0usize;
                    loop {
                        match d.steal_batch(&dest).0 {
                            Steal::Success(v) => {
                                seen[*v].fetch_add(1, Relaxed);
                                got += 1;
                                while let Some(v) = dest.pop() {
                                    seen[*v].fetch_add(1, Relaxed);
                                    got += 1;
                                }
                            }
                            Steal::Empty => {
                                if done.load(Relaxed) == 1 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                            _ => std::thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();

        let mut popped = 0usize;
        for i in 0..ITEMS {
            d.push(Box::new(i), set(&[(i % 7) as u16]));
            if rng.next_below(3) == 0 {
                if let Some(v) = d.pop() {
                    seen[*v].fetch_add(1, Relaxed);
                    popped += 1;
                }
            }
        }
        while let Some(v) = d.pop() {
            seen[*v].fetch_add(1, Relaxed);
            popped += 1;
        }
        done.store(1, Relaxed);
        let stolen: usize = thieves.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(
            popped + stolen,
            ITEMS,
            "lost or duplicated items; replay with NABBITC_TEST_SEED={seed}"
        );
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(
                s.load(Relaxed),
                1,
                "item {i} seen {} times; replay with NABBITC_TEST_SEED={seed}",
                s.load(Relaxed)
            );
        }
    }

    #[test]
    fn len_tracks_roughly() {
        let d: ColoredDeque<u32> = ColoredDeque::new();
        assert!(d.is_empty());
        for i in 0..10 {
            d.push(Box::new(i), set(&[0]));
        }
        assert_eq!(d.len(), 10);
        d.pop();
        assert_eq!(d.len(), 9);
    }
}
