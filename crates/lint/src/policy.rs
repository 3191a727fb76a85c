//! The committed atomics-ordering policy for the workspace.
//!
//! Every entry pins one atomic site (or a group of identical sites) to
//! the ordering sequences it is allowed to use, with a one-line
//! justification. The table is the reviewed ground truth the audit in
//! [`crate::atomics::audit`] checks the scanned sources against:
//!
//! * a scanned site with no entry here fails ("unknown atomic site") —
//!   new atomics must be added to this table, with a reason, to land;
//! * a site whose ordering sequence is not listed fails ("ordering
//!   violation") — this is how the seeded `nabbitc_weak_pop` canary is
//!   caught: the policy for the pop fence allows only `SeqCst`, so the
//!   `Release` variant that cfg enables is rejected statically;
//! * an entry matching no active site fails ("stale policy entry") —
//!   the table cannot outlive the code it describes.
//!
//! Entries are keyed `(file, function, receiver symbol, operation)`,
//! where `file` is the crate-qualified key the workspace scan produces
//! (`"runtime/deque.rs"`, `"core/join.rs"`). Harness files (the model
//! checker) are covered by [`SCAN_ALLOWLIST`] instead of per-site
//! entries, and the facade-conformance pass's justified exceptions live
//! in [`FACADE_EXEMPT`].
//! Sites that are textually repeated with the same meaning (e.g. the
//! three `bottom.store(Relaxed)` writes in `pop`) share one entry.
//! Where one key legitimately uses two orderings (the seqlock `seq`
//! field in `trace.rs`), both sequences are listed and the reason says
//! which is which; the audit then cannot distinguish a swap between
//! those two listed sequences, which is acceptable for a seqlock whose
//! safety is separately model-checked.
//!
//! The memory-ordering arguments below reference the Chase–Lev deque
//! correctness argument (Lê et al., "Correct and Efficient Work-Stealing
//! for Weak Memory Models", PPoPP'13) for `deque.rs`, and the loom
//! models in `crates/check` which exhaustively verify the deque,
//! trace-buffer, pending-counter, join-counter and successor-list
//! protocols under `--cfg nabbitc_check`.

use crate::atomics::{AtomicOp, AtomicOrdering};

/// One row of the ordering policy: which site(s) it matches, which
/// ordering sequences are allowed, and why.
#[derive(Debug, Clone, Copy)]
pub struct PolicyEntry {
    /// Crate-qualified file key: crate directory name plus the path
    /// relative to its `src/` (`"runtime/deque.rs"`, `"core/join.rs"`).
    pub file: &'static str,
    /// Enclosing function name.
    pub func: &'static str,
    /// Receiver field/variable, or `"fence"` for fences.
    pub symbol: &'static str,
    /// The operation kind.
    pub op: AtomicOp,
    /// Allowed ordering sequences. A site passes iff its sequence equals
    /// one of these exactly (so `compare_exchange` success/failure pairs
    /// are checked together and downgrades of either fail).
    pub allowed: &'static [&'static [AtomicOrdering]],
    /// Keys of the release-capable policy entries this site's Acquire
    /// side synchronizes with (`"runtime/deque.rs::push::fence.fence"`).
    /// Mandatory for entries with Acquire/AcqRel semantics; entries with
    /// Release semantics must be *named* by someone. Verified by
    /// [`crate::atomics::audit_pairs`].
    pub pairs_with: &'static [&'static str],
    /// One-line justification for the allowed orderings.
    pub why: &'static str,
}

const fn entry(
    file: &'static str,
    func: &'static str,
    symbol: &'static str,
    op: AtomicOp,
    allowed: &'static [&'static [AtomicOrdering]],
    why: &'static str,
) -> PolicyEntry {
    PolicyEntry {
        file,
        func,
        symbol,
        op,
        allowed,
        pairs_with: &[],
        why,
    }
}

/// [`entry`] plus a declared publication pair: the `pairs_with` keys
/// name the Release-side entries this site's Acquire synchronizes with.
const fn pentry(
    file: &'static str,
    func: &'static str,
    symbol: &'static str,
    op: AtomicOp,
    allowed: &'static [&'static [AtomicOrdering]],
    pairs_with: &'static [&'static str],
    why: &'static str,
) -> PolicyEntry {
    PolicyEntry {
        file,
        func,
        symbol,
        op,
        allowed,
        pairs_with,
        why,
    }
}

use AtomicOrdering::{AcqRel, Acquire, Relaxed, Release, SeqCst};

// Shorthand sequences so the table below stays one-entry-per-screen-line.
const RLX: &[&[AtomicOrdering]] = &[&[Relaxed]];
const ACQ: &[&[AtomicOrdering]] = &[&[Acquire]];
const REL: &[&[AtomicOrdering]] = &[&[Release]];
const SC: &[&[AtomicOrdering]] = &[&[SeqCst]];
const CAS_SC: &[&[AtomicOrdering]] = &[&[SeqCst, Relaxed]];
const AR: &[&[AtomicOrdering]] = &[&[AcqRel]];

/// The committed policy table. Kept in source order of the audited files
/// so a diff of the runtime and a diff of this table line up.
pub static POLICY: &[PolicyEntry] = &[
    // ---------------------------------------------------------------- deque.rs
    // Chase–Lev deque (PPoPP'13 orderings, verified by the loom model in
    // crates/check).
    entry(
        "runtime/deque.rs",
        "len",
        "bottom",
        AtomicOp::Load,
        RLX,
        "advisory size for stats/heuristics; staleness is tolerated by design",
    ),
    entry(
        "runtime/deque.rs",
        "len",
        "top",
        AtomicOp::Load,
        RLX,
        "advisory size for stats/heuristics; staleness is tolerated by design",
    ),
    entry(
        "runtime/deque.rs",
        "push",
        "bottom",
        AtomicOp::Load,
        RLX,
        "bottom is owner-only; the owner reads its own last store",
    ),
    pentry(
        "runtime/deque.rs",
        "push",
        "top",
        AtomicOp::Load,
        ACQ,
        &[
            "runtime/deque.rs::pop::top.compare_exchange",
            "runtime/deque.rs::steal_impl::top.compare_exchange",
            "runtime/deque.rs::steal_batch_impl::top.compare_exchange",
        ],
        "reserves space against concurrent steals; Acquire synchronizes with thieves' top CAS",
    ),
    entry(
        "runtime/deque.rs",
        "push",
        "buffer",
        AtomicOp::Load,
        RLX,
        "buffer is replaced only by the owner itself (grow), so its own load needs no ordering",
    ),
    entry(
        "runtime/deque.rs",
        "push",
        "w",
        AtomicOp::Store,
        RLX,
        "color-array slot write; published to thieves by the Release fence before the bottom store",
    ),
    entry(
        "runtime/deque.rs",
        "push",
        "ptr",
        AtomicOp::Store,
        RLX,
        "task-slot write; published to thieves by the Release fence before the bottom store",
    ),
    entry(
        "runtime/deque.rs",
        "push",
        "fence",
        AtomicOp::Fence,
        REL,
        "publishes the slot writes before bottom is advanced (pairs with the thief's SeqCst fence)",
    ),
    entry(
        "runtime/deque.rs",
        "push",
        "bottom",
        AtomicOp::Store,
        RLX,
        "the preceding Release fence orders the slot data before this index publication",
    ),
    entry(
        "runtime/deque.rs",
        "push_batch",
        "bottom",
        AtomicOp::Load,
        RLX,
        "bottom is owner-only; the owner reads its own last store",
    ),
    pentry(
        "runtime/deque.rs",
        "push_batch",
        "top",
        AtomicOp::Load,
        ACQ,
        &[
            "runtime/deque.rs::pop::top.compare_exchange",
            "runtime/deque.rs::steal_impl::top.compare_exchange",
            "runtime/deque.rs::steal_batch_impl::top.compare_exchange",
        ],
        "reserves space for the whole batch against concurrent steals; same edge as push",
    ),
    entry(
        "runtime/deque.rs",
        "push_batch",
        "buffer",
        AtomicOp::Load,
        RLX,
        "buffer is replaced only by the owner itself (grow); two sites (initial + post-grow reload)",
    ),
    entry(
        "runtime/deque.rs",
        "push_batch",
        "w",
        AtomicOp::Store,
        RLX,
        "color-array writes for the whole batch; published by the single Release fence below",
    ),
    entry(
        "runtime/deque.rs",
        "push_batch",
        "ptr",
        AtomicOp::Store,
        RLX,
        "task-slot writes for the whole batch; published by the single Release fence below",
    ),
    entry(
        "runtime/deque.rs",
        "push_batch",
        "fence",
        AtomicOp::Fence,
        REL,
        "one fence publishes all N slot writes before the single bottom advance — the point of \
         batched spawn; the nabbitc_weak_push_batch cfg moves the bottom store before the slots \
         and the seeded_push_batch model check proves that is caught as a W2 double take",
    ),
    entry(
        "runtime/deque.rs",
        "push_batch",
        "bottom",
        AtomicOp::Store,
        RLX,
        "single index publication for the batch; ordered after the slot writes by the Release fence",
    ),
    entry(
        "runtime/deque.rs",
        "pop",
        "bottom",
        AtomicOp::Load,
        RLX,
        "bottom is owner-only; the owner reads its own last store",
    ),
    entry(
        "runtime/deque.rs",
        "pop",
        "buffer",
        AtomicOp::Load,
        RLX,
        "buffer is replaced only by the owner itself (grow)",
    ),
    entry(
        "runtime/deque.rs",
        "pop",
        "bottom",
        AtomicOp::Store,
        RLX,
        "owner-only index update; ordering against thieves comes from the SeqCst fence and CAS",
    ),
    entry(
        "runtime/deque.rs",
        "pop",
        "fence",
        AtomicOp::Fence,
        SC,
        "the PPoPP'13 store-load fence: the bottom decrement must be visible before top is read, \
         or owner and thief can both take the last task; the nabbitc_weak_pop cfg downgrades \
         this to Release and is the seeded bug this audit must reject",
    ),
    entry(
        "runtime/deque.rs",
        "pop",
        "top",
        AtomicOp::Load,
        RLX,
        "ordered after the bottom decrement by the SeqCst fence; no payload is read through it",
    ),
    entry(
        "runtime/deque.rs",
        "pop",
        "ptr",
        AtomicOp::Load,
        RLX,
        "owner reads a slot it previously wrote; no inter-thread publication involved",
    ),
    entry(
        "runtime/deque.rs",
        "pop",
        "top",
        AtomicOp::CompareExchange,
        CAS_SC,
        "last-task race with thieves; SeqCst keeps it in the fence's total order, failure is a \
         pure retry so Relaxed suffices there",
    ),
    pentry(
        "runtime/deque.rs",
        "steal_impl",
        "top",
        AtomicOp::Load,
        ACQ,
        &[
            "runtime/deque.rs::pop::top.compare_exchange",
            "runtime/deque.rs::steal_impl::top.compare_exchange",
            "runtime/deque.rs::steal_batch_impl::top.compare_exchange",
        ],
        "thief's first read; synchronizes with the owner's CAS/publication of top",
    ),
    entry(
        "runtime/deque.rs",
        "steal_impl",
        "fence",
        AtomicOp::Fence,
        SC,
        "pairs with the pop fence: orders the top read before the bottom read in the single \
         total order, closing the two-claimants window",
    ),
    pentry(
        "runtime/deque.rs",
        "steal_impl",
        "bottom",
        AtomicOp::Load,
        ACQ,
        &[
            "runtime/deque.rs::push::fence.fence",
            "runtime/deque.rs::push_batch::fence.fence",
        ],
        "synchronizes with the owner's push publication so the observed range is consistent",
    ),
    pentry(
        "runtime/deque.rs",
        "steal_impl",
        "buffer",
        AtomicOp::Load,
        ACQ,
        &[
            "runtime/deque.rs::grow::buffer.swap",
        ],
        "synchronizes with grow's Release swap so the thief sees fully-initialized storage",
    ),
    entry(
        "runtime/deque.rs",
        "steal_impl",
        "a",
        AtomicOp::Load,
        RLX,
        "color-array slot read; made visible by the push fence / buffer Acquire, value is \
         re-validated by the CAS",
    ),
    entry(
        "runtime/deque.rs",
        "steal_impl",
        "ptr",
        AtomicOp::Load,
        RLX,
        "task-slot read; made visible by the push fence / buffer Acquire, ownership is only \
         taken if the CAS succeeds",
    ),
    entry(
        "runtime/deque.rs",
        "steal_impl",
        "top",
        AtomicOp::CompareExchange,
        CAS_SC,
        "claims the task against owner and other thieves; SeqCst joins the fence order, \
         failure is a pure retry so Relaxed suffices there",
    ),
    pentry(
        "runtime/deque.rs",
        "steal_batch_impl",
        "top",
        AtomicOp::Load,
        ACQ,
        &[
            "runtime/deque.rs::pop::top.compare_exchange",
            "runtime/deque.rs::steal_impl::top.compare_exchange",
            "runtime/deque.rs::steal_batch_impl::top.compare_exchange",
        ],
        "two sites: the initial index read and the per-claim revalidation; both synchronize \
         with owner/thief top updates exactly like steal_impl's first read",
    ),
    entry(
        "runtime/deque.rs",
        "steal_batch_impl",
        "fence",
        AtomicOp::Fence,
        SC,
        "two sites (initial + per-claim revalidation): same store-load pairing with the pop \
         fence as steal_impl; re-running it before every chained claim is what makes batching \
         sound against concurrent owner pops (see the nabbitc_weak_batch canary)",
    ),
    pentry(
        "runtime/deque.rs",
        "steal_batch_impl",
        "bottom",
        AtomicOp::Load,
        ACQ,
        &[
            "runtime/deque.rs::push::fence.fence",
            "runtime/deque.rs::push_batch::fence.fence",
        ],
        "two sites (initial + per-claim revalidation); synchronizes with the owner's push \
         publication so each claim checks a current range, never the stale initial window",
    ),
    pentry(
        "runtime/deque.rs",
        "steal_batch_impl",
        "buffer",
        AtomicOp::Load,
        ACQ,
        &[
            "runtime/deque.rs::grow::buffer.swap",
        ],
        "re-read per claim; synchronizes with grow's Release swap like steal_impl",
    ),
    entry(
        "runtime/deque.rs",
        "steal_batch_impl",
        "a",
        AtomicOp::Load,
        RLX,
        "color-array slot read; made visible by the push fence / buffer Acquire, value is \
         re-validated by the claiming CAS",
    ),
    entry(
        "runtime/deque.rs",
        "steal_batch_impl",
        "ptr",
        AtomicOp::Load,
        RLX,
        "task-slot read; ownership is only taken if the claiming CAS succeeds",
    ),
    entry(
        "runtime/deque.rs",
        "steal_batch_impl",
        "top",
        AtomicOp::CompareExchange,
        CAS_SC,
        "one CAS per claimed task — never a multi-task jump — so owner pops and other thieves \
         contend on the same protocol as single steals; SeqCst joins the fence order, failure \
         aborts the batch (pure retry) so Relaxed suffices there",
    ),
    entry(
        "runtime/deque.rs",
        "grow",
        "buffer",
        AtomicOp::Load,
        RLX,
        "grow runs on the owner thread; it reads its own buffer pointer",
    ),
    entry(
        "runtime/deque.rs",
        "grow",
        "ptr",
        AtomicOp::Load,
        RLX,
        "copying slots the owner itself wrote; publication happens at the buffer swap",
    ),
    entry(
        "runtime/deque.rs",
        "grow",
        "ptr",
        AtomicOp::Store,
        RLX,
        "filling the new buffer before it is published by the Release swap",
    ),
    entry(
        "runtime/deque.rs",
        "grow",
        "ow",
        AtomicOp::Load,
        RLX,
        "copying color slots the owner itself wrote; published by the Release swap",
    ),
    entry(
        "runtime/deque.rs",
        "grow",
        "nw",
        AtomicOp::Store,
        RLX,
        "filling the new color array before it is published by the Release swap",
    ),
    entry(
        "runtime/deque.rs",
        "grow",
        "buffer",
        AtomicOp::Swap,
        REL,
        "publishes the fully-copied buffer; pairs with the thief's Acquire buffer load",
    ),
    entry(
        "runtime/deque.rs",
        "drop",
        "buffer",
        AtomicOp::Load,
        RLX,
        "destructor runs with exclusive access (&mut self); no concurrent observers remain",
    ),
    // ------------------------------------------------------------- injector.rs
    entry(
        "runtime/injector.rs",
        "push",
        "len",
        AtomicOp::Store,
        REL,
        "mutex-protected length mirror; Release (from SeqCst) pairs with the Acquire hint load \
         so a non-empty hint implies the queue really held work at store time — every decision \
         that matters re-checks under the lock, and a stale-empty hint is benign because the \
         enqueuer wakes workers through the job condvar (run_injector_progress and \
         run_injector_racing_push explore this exhaustively)",
    ),
    entry(
        "runtime/injector.rs",
        "try_pop",
        "len",
        AtomicOp::Store,
        REL,
        "length mirror update under the lock; Release for the same hint contract as push",
    ),
    entry(
        "runtime/injector.rs",
        "try_pop_batch",
        "len",
        AtomicOp::Store,
        REL,
        "one mirror update for the whole drained batch, under the lock; same hint contract",
    ),
    pentry(
        "runtime/injector.rs",
        "len",
        "len",
        AtomicOp::Load,
        ACQ,
        &[
            "runtime/injector.rs::push::len.store",
            "runtime/injector.rs::try_pop::len.store",
            "runtime/injector.rs::try_pop_batch::len.store",
        ],
        "idle-path hint probe polled every worker round; Acquire (from SeqCst) pairs with the \
         Release mirror stores — the hint-only contract above needs nothing stronger, and this \
         load is hot enough to care",
    ),
    // ----------------------------------------------------------------- pool.rs
    entry(
        "runtime/pool.rs",
        "next_task_id",
        "task_seq",
        AtomicOp::FetchAdd,
        RLX,
        "unique-id counter; only atomicity is needed, no ordering with other data",
    ),
    // `quiesce` + `submit` are the one job body behind `run` and
    // `run_measured`; the latter adds only calls to `reset_stats`,
    // `reset_trace`, `stats` and `trace_snapshot`, whose sites have their
    // own rows.
    entry(
        "runtime/pool.rs",
        "quiesce",
        "active",
        AtomicOp::Load,
        SC,
        "job-barrier handshake; the pool control plane uses SeqCst throughout as it is \
         microseconds per job, not per task",
    ),
    entry(
        "runtime/pool.rs",
        "submit",
        "pending",
        AtomicOp::Load,
        SC,
        "job-barrier handshake (control plane, SeqCst by convention)",
    ),
    entry(
        "runtime/pool.rs",
        "submit",
        "job_panicked",
        AtomicOp::Store,
        SC,
        "clears the panic flag before publishing a new job (control plane, SeqCst)",
    ),
    entry(
        "runtime/pool.rs",
        "submit",
        "pending",
        AtomicOp::Store,
        SC,
        "seeds the pending-task count before the epoch bump releases workers (control plane)",
    ),
    entry(
        "runtime/pool.rs",
        "submit",
        "job_start_ns",
        AtomicOp::Store,
        SC,
        "job start timestamp must be visible to workers when the epoch bump wakes them",
    ),
    entry(
        "runtime/pool.rs",
        "submit",
        "epoch",
        AtomicOp::FetchAdd,
        SC,
        "the job-release edge: workers spin on epoch, and every job field stored above must \
         be ordered before it (control plane, SeqCst)",
    ),
    entry(
        "runtime/pool.rs",
        "submit",
        "job_panicked",
        AtomicOp::Load,
        SC,
        "reads the outcome after the completion barrier (control plane, SeqCst)",
    ),
    entry(
        "runtime/pool.rs",
        "reset_trace",
        "task_seq",
        AtomicOp::Store,
        RLX,
        "reset while the pool is quiescent — by `run_measured` under the run guard after \
         the last straggler left, or by a caller between jobs; atomicity only",
    ),
    entry(
        "runtime/pool.rs",
        "drop",
        "shutdown",
        AtomicOp::Store,
        SC,
        "shutdown edge observed by worker spin loops (control plane, SeqCst)",
    ),
    entry(
        "runtime/pool.rs",
        "spawn",
        "pending",
        AtomicOp::FetchAdd,
        RLX,
        "per-spawn hot path, Relaxed (from SeqCst): the increment precedes the deque push, \
         whose Release fence publishes it to whichever worker acquires the task, so the \
         matching decrement is ordered after it in pending's modification order — the counter \
         can never spuriously hit zero mid-job (run_pending_protocol checks this exhaustively)",
    ),
    entry(
        "runtime/pool.rs",
        "drop",
        "pending",
        AtomicOp::FetchAdd,
        RLX,
        "SpawnBatch::drop counts the whole batch before its single push_batch publishes the \
         tasks; same publish-before-decrement argument as spawn",
    ),
    entry(
        "runtime/pool.rs",
        "note_arena",
        "arena_hits",
        AtomicOp::FetchAdd,
        RLX,
        "reporting-only arena counter mirrored from the worker-owned free list; read after \
         the job barrier",
    ),
    entry(
        "runtime/pool.rs",
        "note_arena",
        "arena_misses",
        AtomicOp::FetchAdd,
        RLX,
        "reporting-only arena counter; read after the job barrier",
    ),
    entry(
        "runtime/pool.rs",
        "note_batch",
        "batch_steals",
        AtomicOp::FetchAdd,
        RLX,
        "reporting-only batching counter with no cross-counter invariant (unlike the \
         Release steal-success counters); read after the job barrier",
    ),
    entry(
        "runtime/pool.rs",
        "note_batch",
        "batch_stolen_tasks",
        AtomicOp::FetchAdd,
        RLX,
        "reporting-only batching counter; read after the job barrier",
    ),
    entry(
        "runtime/pool.rs",
        "worker_main",
        "epoch",
        AtomicOp::Load,
        SC,
        "worker spin on the job-release edge (control plane, SeqCst)",
    ),
    entry(
        "runtime/pool.rs",
        "worker_main",
        "shutdown",
        AtomicOp::Load,
        SC,
        "worker spin on the shutdown edge (control plane, SeqCst)",
    ),
    entry(
        "runtime/pool.rs",
        "worker_main",
        "active",
        AtomicOp::FetchAdd,
        SC,
        "entering a job; the barrier in run() counts active workers (control plane, SeqCst)",
    ),
    entry(
        "runtime/pool.rs",
        "worker_main",
        "active",
        AtomicOp::FetchSub,
        SC,
        "leaving a job; pairs with the barrier's active==0 check (control plane, SeqCst)",
    ),
    entry(
        "runtime/pool.rs",
        "run_job_loop",
        "job_start_ns",
        AtomicOp::Load,
        SC,
        "reads the job start timestamp published before the epoch bump (control plane)",
    ),
    entry(
        "runtime/pool.rs",
        "run_job_loop",
        "first_work_wait_ns",
        AtomicOp::Store,
        RLX,
        "per-worker latency statistic; read only after the job barrier",
    ),
    pentry(
        "runtime/pool.rs",
        "run_job_loop",
        "pending",
        AtomicOp::Load,
        ACQ,
        &[
            "runtime/pool.rs::execute::pending.fetch_sub",
        ],
        "termination check, Acquire (from SeqCst): reading zero means reading the final \
         decrement of the AcqRel fetch_sub release sequence, which synchronizes with every \
         task's effects; a stale nonzero read just loops once more. Two sites (loop head and \
         idle re-check); run_pending_protocol models the full handshake",
    ),
    entry(
        "runtime/pool.rs",
        "run_job_loop",
        "idle_ns",
        AtomicOp::FetchAdd,
        RLX,
        "per-worker idle-time statistic; read only after the job barrier",
    ),
    entry(
        "runtime/pool.rs",
        "execute",
        "tasks_executed",
        AtomicOp::FetchAdd,
        RLX,
        "per-worker counter; read only after the job barrier",
    ),
    entry(
        "runtime/pool.rs",
        "execute",
        "job_panicked",
        AtomicOp::Store,
        SC,
        "panic flag must be visible before the pending count reaches zero (control plane)",
    ),
    pentry(
        "runtime/pool.rs",
        "execute",
        "pending",
        AtomicOp::FetchSub,
        AR,
        &[
            "runtime/pool.rs::execute::pending.fetch_sub",
        ],
        "task completion, AcqRel (from SeqCst): Release publishes this task's effects to \
         whoever reads the counter down the release sequence (the job-done edge), Acquire \
         keeps later recycling ordered after the count; run()'s completion barrier still \
         goes through the done mutex + condvar, not this counter alone",
    ),
    pentry(
        "runtime/pool.rs",
        "steal_round",
        "pending",
        AtomicOp::Load,
        ACQ,
        &[
            "runtime/pool.rs::execute::pending.fetch_sub",
        ],
        "early-out of the forced-steal loop; same release-sequence argument as the \
         run_job_loop termination check",
    ),
    entry(
        "runtime/pool.rs",
        "steal_round",
        "first_steal_checks",
        AtomicOp::FetchAdd,
        RLX,
        "steal-heuristic counter; read only after the job barrier",
    ),
    entry(
        "runtime/pool.rs",
        "steal_round",
        "colored_steal_attempts",
        AtomicOp::FetchAdd,
        RLX,
        "attempt counter; read only after the job barrier",
    ),
    entry(
        "runtime/pool.rs",
        "steal_round",
        "colored_steals",
        AtomicOp::FetchAdd,
        REL,
        "success counter; Release pairs with the Acquire load in WorkerStats::snapshot so \
         steals <= attempts holds in any racy snapshot",
    ),
    entry(
        "runtime/pool.rs",
        "steal_round",
        "random_steal_attempts",
        AtomicOp::FetchAdd,
        RLX,
        "attempt counter; read only after the job barrier",
    ),
    entry(
        "runtime/pool.rs",
        "steal_round",
        "random_steals",
        AtomicOp::FetchAdd,
        REL,
        "success counter; Release pairs with the Acquire load in WorkerStats::snapshot",
    ),
    // ---------------------------------------------------------------- stats.rs
    entry(
        "runtime/stats.rs",
        "reset",
        "tasks_executed",
        AtomicOp::Store,
        RLX,
        "reset happens between jobs while workers are parked; atomicity only",
    ),
    entry(
        "runtime/stats.rs",
        "reset",
        "colored_steal_attempts",
        AtomicOp::Store,
        RLX,
        "quiescent reset; atomicity only",
    ),
    entry(
        "runtime/stats.rs",
        "reset",
        "colored_steals",
        AtomicOp::Store,
        RLX,
        "quiescent reset; atomicity only",
    ),
    entry(
        "runtime/stats.rs",
        "reset",
        "random_steal_attempts",
        AtomicOp::Store,
        RLX,
        "quiescent reset; atomicity only",
    ),
    entry(
        "runtime/stats.rs",
        "reset",
        "random_steals",
        AtomicOp::Store,
        RLX,
        "quiescent reset; atomicity only",
    ),
    entry(
        "runtime/stats.rs",
        "reset",
        "first_steal_checks",
        AtomicOp::Store,
        RLX,
        "quiescent reset; atomicity only",
    ),
    entry(
        "runtime/stats.rs",
        "reset",
        "first_work_wait_ns",
        AtomicOp::Store,
        RLX,
        "quiescent reset; atomicity only",
    ),
    entry(
        "runtime/stats.rs",
        "reset",
        "idle_ns",
        AtomicOp::Store,
        RLX,
        "quiescent reset; atomicity only",
    ),
    entry(
        "runtime/stats.rs",
        "reset",
        "batch_steals",
        AtomicOp::Store,
        RLX,
        "quiescent reset; atomicity only",
    ),
    entry(
        "runtime/stats.rs",
        "reset",
        "batch_stolen_tasks",
        AtomicOp::Store,
        RLX,
        "quiescent reset; atomicity only",
    ),
    entry(
        "runtime/stats.rs",
        "reset",
        "arena_hits",
        AtomicOp::Store,
        RLX,
        "quiescent reset; atomicity only",
    ),
    entry(
        "runtime/stats.rs",
        "reset",
        "arena_misses",
        AtomicOp::Store,
        RLX,
        "quiescent reset; atomicity only",
    ),
    pentry(
        "runtime/stats.rs",
        "snapshot",
        "colored_steals",
        AtomicOp::Load,
        ACQ,
        &[
            "runtime/pool.rs::steal_round::colored_steals.fetch_add",
        ],
        "read before the attempt counters; Acquire pairs with the Release increments so a \
         racy snapshot never shows steals > attempts",
    ),
    pentry(
        "runtime/stats.rs",
        "snapshot",
        "random_steals",
        AtomicOp::Load,
        ACQ,
        &[
            "runtime/pool.rs::steal_round::random_steals.fetch_add",
        ],
        "read before the attempt counters; pairs with the Release increments",
    ),
    entry(
        "runtime/stats.rs",
        "snapshot",
        "tasks_executed",
        AtomicOp::Load,
        RLX,
        "monotone counter; snapshot tolerates slight staleness",
    ),
    entry(
        "runtime/stats.rs",
        "snapshot",
        "colored_steal_attempts",
        AtomicOp::Load,
        RLX,
        "read after the Acquire on successes; may only overshoot, preserving the invariant",
    ),
    entry(
        "runtime/stats.rs",
        "snapshot",
        "random_steal_attempts",
        AtomicOp::Load,
        RLX,
        "read after the Acquire on successes; may only overshoot",
    ),
    entry(
        "runtime/stats.rs",
        "snapshot",
        "first_steal_checks",
        AtomicOp::Load,
        RLX,
        "heuristic counter; staleness is fine",
    ),
    entry(
        "runtime/stats.rs",
        "snapshot",
        "first_work_wait_ns",
        AtomicOp::Load,
        RLX,
        "latency statistic written once per job before the barrier",
    ),
    entry(
        "runtime/stats.rs",
        "snapshot",
        "idle_ns",
        AtomicOp::Load,
        RLX,
        "idle-time statistic; staleness is fine",
    ),
    entry(
        "runtime/stats.rs",
        "snapshot",
        "batch_steals",
        AtomicOp::Load,
        RLX,
        "reporting-only batching counter; no cross-counter invariant to preserve",
    ),
    entry(
        "runtime/stats.rs",
        "snapshot",
        "batch_stolen_tasks",
        AtomicOp::Load,
        RLX,
        "reporting-only batching counter; staleness is fine",
    ),
    entry(
        "runtime/stats.rs",
        "snapshot",
        "arena_hits",
        AtomicOp::Load,
        RLX,
        "reporting-only arena counter; staleness is fine",
    ),
    entry(
        "runtime/stats.rs",
        "snapshot",
        "arena_misses",
        AtomicOp::Load,
        RLX,
        "reporting-only arena counter; staleness is fine",
    ),
    // ---------------------------------------------------------------- trace.rs
    // Seqlock-style ring buffer (loom-verified in crates/check): writers
    // bump seq to odd (Relaxed, fenced), write the slot, then publish seq
    // even with Release; readers Acquire seq, read, fence, re-check.
    entry(
        "runtime/trace.rs",
        "push",
        "head",
        AtomicOp::Load,
        RLX,
        "single-writer cursor; the writer reads its own position",
    ),
    entry(
        "runtime/trace.rs",
        "push",
        "seq",
        AtomicOp::Load,
        RLX,
        "writer reads its own slot sequence to compute the odd marker",
    ),
    entry(
        "runtime/trace.rs",
        "push",
        "seq",
        AtomicOp::Store,
        &[&[Relaxed], &[Release]],
        "two sites: the odd write-in-progress marker is Relaxed (ordered by the Release \
         fence that follows), the even publish is Release (pairs with the reader's Acquire)",
    ),
    entry(
        "runtime/trace.rs",
        "push",
        "fence",
        AtomicOp::Fence,
        REL,
        "orders the odd seq marker before the payload writes for racing readers",
    ),
    entry(
        "runtime/trace.rs",
        "push",
        "ts",
        AtomicOp::Store,
        RLX,
        "slot payload; guarded by the seqlock protocol, not by its own ordering",
    ),
    entry(
        "runtime/trace.rs",
        "push",
        "payload",
        AtomicOp::Store,
        RLX,
        "slot payload; guarded by the seqlock protocol",
    ),
    entry(
        "runtime/trace.rs",
        "push",
        "head",
        AtomicOp::Store,
        REL,
        "publishes the advanced cursor; pairs with recorded()'s Acquire",
    ),
    pentry(
        "runtime/trace.rs",
        "recorded",
        "head",
        AtomicOp::Load,
        ACQ,
        &[
            "runtime/trace.rs::push::head.store",
            "runtime/trace.rs::reset::head.store",
        ],
        "pairs with the writer's Release so the count never runs ahead of published slots",
    ),
    pentry(
        "runtime/trace.rs",
        "snapshot",
        "seq",
        AtomicOp::Load,
        &[&[Acquire], &[Relaxed]],
        &[
            "runtime/trace.rs::push::seq.store",
        ],
        "two sites: the first read is Acquire (pairs with the even Release publish), the \
         post-fence re-check is Relaxed (the Acquire fence before it orders the payload reads)",
    ),
    entry(
        "runtime/trace.rs",
        "snapshot",
        "ts",
        AtomicOp::Load,
        RLX,
        "payload read validated by the seq re-check; torn reads are discarded",
    ),
    entry(
        "runtime/trace.rs",
        "snapshot",
        "payload",
        AtomicOp::Load,
        RLX,
        "payload read validated by the seq re-check",
    ),
    pentry(
        "runtime/trace.rs",
        "snapshot",
        "fence",
        AtomicOp::Fence,
        ACQ,
        &[
            "runtime/trace.rs::push::fence.fence",
        ],
        "orders the payload reads before the seq re-check (reader half of the seqlock)",
    ),
    entry(
        "runtime/trace.rs",
        "reset",
        "head",
        AtomicOp::Store,
        REL,
        "publishes the cleared buffer state to subsequent readers",
    ),
    // --------------------------------------------------------------- core/join.rs
    // The join counter of both executors (exactly-once enqueue verified by
    // run_join_protocol in crates/check, scanned and armed; the
    // nabbitc_weak_join canary drops the scan's init bias and relaxes the
    // scan side, and must be rejected here statically).
    entry(
        "core/join.rs",
        "begin_scan",
        "count",
        AtomicOp::Store,
        SC,
        "seeds preds+1 (the init bias) before the node is published to any predecessor's \
         successor list; it races nothing but anchors the decrement chain — the \
         nabbitc_weak_join cfg drops the bias and downgrades this to Relaxed, which this \
         entry rejects",
    ),
    pentry(
        "core/join.rs",
        "end_scan",
        "count",
        AtomicOp::FetchSub,
        AR,
        &[
            "core/join.rs::notify::count.fetch_sub",
            "core/join.rs::begin_scan::count.store",
        ],
        "releases the bias plus already-satisfied dependences in one RMW; Acquire on the \
         firing decrement synchronizes with every predecessor's Release in the chain — \
         the nabbitc_weak_join cfg downgrades this to Relaxed, rejected here",
    ),
    pentry(
        "core/join.rs",
        "notify",
        "count",
        AtomicOp::FetchSub,
        AR,
        &[
            "core/join.rs::begin_scan::count.store",
            "core/join.rs::notify::count.fetch_sub",
        ],
        "per-predecessor decrement, the one successor-release site of both node stores \
         (the on-demand table's drained waiters and the dense store's graph successors, \
         whose counter is born armed with the in-degree and sees no other operation): \
         Release publishes the predecessor's computed effects into the release sequence \
         (including its own prior decrements, hence the self pair), Acquire on the firing \
         decrement observes them all — run_join_protocol checks both armings",
    ),
    entry(
        "core/join.rs",
        "pending",
        "count",
        AtomicOp::Load,
        SC,
        "diagnostics read (a computed node must show zero); off the hot path",
    ),
    // The lock-free successor list (one word holds "computed?" and the
    // list head; exactly-once per edge verified by run_successor_list in
    // crates/check; the nabbitc_weak_close canary splits close's swap into
    // a load and a store, two sites with no row here, and must be rejected
    // statically).
    pentry(
        "core/join.rs",
        "register",
        "head",
        AtomicOp::Load,
        ACQ,
        &[
            "core/join.rs::close::head.swap",
            "core/join.rs::register::head.compare_exchange",
        ],
        "first read of the head: Acquire so that seeing the closed sentinel makes the \
         computed predecessor's output visible (the closer's swap), and so that the link \
         pushed by an earlier registrant is visible before it becomes this link's next",
    ),
    entry(
        "core/join.rs",
        "register",
        "next",
        AtomicOp::Store,
        RLX,
        "link slot written only by its owner before the publishing CAS; the CAS's Release \
         is what makes it visible to the drain",
    ),
    pentry(
        "core/join.rs",
        "register",
        "head",
        AtomicOp::CompareExchange,
        &[&[Release, Acquire]],
        &[
            "core/join.rs::close::head.swap",
            "core/join.rs::register::head.compare_exchange",
        ],
        "publishes the link (waiter, next, and the waiter's armed join counter) to the \
         closer's Acquire swap; on failure it is the next read of the head, hence Acquire \
         for the same reasons as the first load",
    ),
    pentry(
        "core/join.rs",
        "close",
        "head",
        AtomicOp::Swap,
        AR,
        &["core/join.rs::register::head.compare_exchange"],
        "one RMW decides every edge: Acquire takes the links registrants published, \
         Release publishes the computed node's output to whoever sees the sentinel — the \
         nabbitc_weak_close cfg replaces it with a load and a store (a registration \
         between the two is lost), sites this table deliberately has no rows for",
    ),
    pentry(
        "core/join.rs",
        "is_closed",
        "head",
        AtomicOp::Load,
        ACQ,
        &["core/join.rs::close::head.swap"],
        "status read (the sink check after the run, diagnostics); Acquire so that \
         'computed' implies the node's output is visible",
    ),
    entry(
        "core/join.rs",
        "next",
        "next",
        AtomicOp::Load,
        RLX,
        "drain walk: the link was published by a Release CAS that the closing swap \
         acquired, so its next pointer is already visible",
    ),
    // ------------------------------------------------------------ core/metrics.rs
    entry(
        "core/metrics.rs",
        "record_node",
        "node_total",
        AtomicOp::FetchAdd,
        RLX,
        "NUMA-remoteness counter aggregated after the run; atomicity only",
    ),
    entry(
        "core/metrics.rs",
        "record_node",
        "node_remote",
        AtomicOp::FetchAdd,
        RLX,
        "NUMA-remoteness counter aggregated after the run; atomicity only",
    ),
    entry(
        "core/metrics.rs",
        "record_node",
        "pred_total",
        AtomicOp::FetchAdd,
        RLX,
        "per-predecessor traffic counter aggregated after the run; atomicity only",
    ),
    entry(
        "core/metrics.rs",
        "record_node",
        "pred_remote",
        AtomicOp::FetchAdd,
        RLX,
        "per-predecessor traffic counter aggregated after the run; atomicity only",
    ),
    entry(
        "core/metrics.rs",
        "report",
        "node_total",
        AtomicOp::Load,
        RLX,
        "post-run aggregation; the counters are quiescent once the job barrier passed",
    ),
    entry(
        "core/metrics.rs",
        "report",
        "node_remote",
        AtomicOp::Load,
        RLX,
        "post-run aggregation over quiescent counters",
    ),
    entry(
        "core/metrics.rs",
        "report",
        "pred_total",
        AtomicOp::Load,
        RLX,
        "post-run aggregation over quiescent counters",
    ),
    entry(
        "core/metrics.rs",
        "report",
        "pred_remote",
        AtomicOp::Load,
        RLX,
        "post-run aggregation over quiescent counters",
    ),
    entry(
        "core/metrics.rs",
        "add",
        "slots",
        AtomicOp::FetchAdd,
        RLX,
        "per-worker executed-node counter (both executors), written by its worker only \
         and read after the job barrier; atomicity only",
    ),
    entry(
        "core/metrics.rs",
        "total",
        "slot",
        AtomicOp::Load,
        RLX,
        "post-run sum over quiescent per-worker counters; the pool's job barrier orders \
         every add before it",
    ),
    // ------------------------------------------------------------- parfor/team.rs
    entry(
        "parfor/team.rs",
        "parallel_for",
        "counter",
        AtomicOp::Load,
        RLX,
        "guided self-scheduling reads the cursor only to size its next chunk; the \
         fetch_add below is the actual claim, so a stale read can only mis-size",
    ),
    entry(
        "parfor/team.rs",
        "parallel_for",
        "counter",
        AtomicOp::FetchAdd,
        RLX,
        "chunk-claim cursor (two sites: guided + dynamic schedules); the claim needs \
         atomicity only — iteration data is published by the team's mutex/condvar job \
         handoff, not through this counter",
    ),
];

/// One allowlisted file prefix: atomic sites under it are discovered and
/// counted by the workspace scan but exempt from per-site policy
/// matching, and the file is out of scope for the facade pass.
#[derive(Debug, Clone, Copy)]
pub struct AllowlistEntry {
    /// Crate-qualified key prefix (`"check/"` covers the whole crate).
    pub prefix: &'static str,
    /// Why these files are exempt.
    pub why: &'static str,
}

/// Harness code whose atomics are not shipped runtime code. Everything
/// else — every crate under `crates/` — must be covered by [`POLICY`]. A
/// prefix covering no scanned site fails
/// [`crate::atomics::audit_allowlist`], so this list cannot rot either.
pub static SCAN_ALLOWLIST: &[AllowlistEntry] = &[AllowlistEntry {
    prefix: "check/",
    why: "model-check harness: loom-instrumented scenario code whose orderings are \
          verified dynamically by exhaustive interleaving, not by this table",
}];

/// One justified direct `std::sync::atomic` / `parking_lot` reference
/// outside the `nabbitc_runtime::sync` facade.
#[derive(Debug, Clone, Copy)]
pub struct FacadeExemption {
    /// Crate-qualified file key.
    pub file: &'static str,
    /// The token the file may reference (`"parking_lot"`).
    pub token: &'static str,
    /// Why the facade cannot cover this use.
    pub why: &'static str,
}

/// The reviewed exceptions for [`crate::atomics::audit_facade`]. An
/// entry matching no occurrence fails the audit, so this list cannot
/// rot either.
pub static FACADE_EXEMPT: &[FacadeExemption] = &[
    FacadeExemption {
        file: "runtime/sync.rs",
        token: "std::sync::atomic",
        why: "the facade itself: re-exports the std atomics in normal builds",
    },
    FacadeExemption {
        file: "runtime/sync.rs",
        token: "parking_lot",
        why: "the facade itself: re-exports the parking_lot locks in normal builds",
    },
    FacadeExemption {
        file: "runtime/pool.rs",
        token: "parking_lot",
        why: "Condvar has no loom shim; the pool's parking protocol is exercised by the \
              model harness through the deque/injector API instead",
    },
    FacadeExemption {
        file: "parfor/team.rs",
        token: "parking_lot",
        why: "Condvar has no loom shim; the team's park/wake handoff stays on parking_lot",
    },
];
