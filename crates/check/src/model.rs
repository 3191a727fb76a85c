//! Bounded work-stealing scenarios executed under the loom explorer.
//!
//! Each scenario is a *fixed-length script* per virtual thread (no
//! unbounded retry loops), so every execution terminates and the DFS
//! tree is finite: the owner pushes `tasks` values (popping at a
//! configured cadence), each thief makes a fixed number of steal
//! attempts — through `steal`, `steal_batch` or `steal_batch_if`, which
//! are one claim loop in the deque and, the last two, the pool's only
//! steals — then the owner joins everyone and drains the leftovers. One
//! driver (`drive`), one thief script (`thief`) and one accounting check
//! serve every deque scenario.
//! The explorer enumerates every interleaving of the visible operations
//! within the preemption bound, including TSO store-buffer commit
//! timing.
//!
//! Values taken out of the deque are deliberately *leaked* (`mem::forget`)
//! instead of dropped: under a seeded ordering bug a W2 violation means
//! two `Box::from_raw` calls on one allocation, and the harness must
//! report that through invariant accounting, not crash in the allocator.
//! The leak is a few machine words per execution, reclaimed at process
//! exit.

use crate::lin::Record;
use crate::spec::Op;
use loom::thread;
use nabbitc_color::{Color, ColorSet};
use nabbitc_runtime::deque::{ColoredDeque, Steal};
use nabbitc_runtime::injector::Injector;
use std::sync::Arc;

/// One bounded scenario configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioCfg {
    /// Number of thief threads (the owner is the model's root thread).
    pub thieves: usize,
    /// Values the owner pushes: `1..=tasks`.
    pub tasks: u64,
    /// Owner pops once after every `pop_every` pushes (0 = no
    /// interleaved pops; the owner still drains at the end).
    pub pop_every: usize,
    /// Steal attempts per thief (the W6 idle-episode budget).
    pub steal_attempts: usize,
    /// Thieves steal half (`steal_batch`, what the pool's random attempt
    /// calls) instead of one entry (`steal`).
    pub batch: bool,
    /// Thieves steal half through the colored `steal_batch_if` (the
    /// pool's colored attempt; needs `batch`, the deque has no colored
    /// single steal), accepting color 0 — which every entry of
    /// [`run_scenario`] carries, so the color-word check before each claim
    /// always passes.
    pub colored: bool,
}

/// What one execution observed; the input to the invariant checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Values the owner popped, in pop order (interleaved + final drain).
    pub popped: Vec<u64>,
    /// Per thief: values claimed, in that thief's claim order.
    pub stolen: Vec<Vec<u64>>,
    /// Lost CAS races (`Steal::Retry`) summed over all thieves.
    pub retries: usize,
    /// Clock-stamped operation records for the linearizability check:
    /// every push, every pop, every *claim* (see `thief`).
    pub history: Vec<Record>,
}

fn record<R>(history: &mut Vec<Record>, op: Op, f: impl FnOnce() -> (Option<u64>, R)) -> R {
    let invoke = loom::clock();
    let (ret, out) = f();
    history.push(Record::new(op, ret, invoke, loom::clock()));
    out
}

fn owner_push(deque: &ColoredDeque<u64>, out: &mut Outcome, v: u64, colors: ColorSet) {
    record(&mut out.history, Op::Push(v), || {
        deque.push(Box::new(v), colors);
        (None, ())
    });
}

/// One owner pop; false when the deque was empty (or a thief won the
/// last element).
fn owner_pop(deque: &ColoredDeque<u64>, out: &mut Outcome) -> bool {
    let popped = record(&mut out.history, Op::Pop, || {
        let p = deque.pop();
        (p.as_deref().copied(), p)
    });
    match popped {
        Some(b) => {
            out.popped.push(*b);
            std::mem::forget(b);
            true
        }
        None => false,
    }
}

/// The one thief script: `attempts` calls of the entry point (`batch`,
/// `accept`) selects, against a `dest` deque of the thief's own that it
/// drains after every call, as the pool's worker drains its deque before
/// stealing again. A single steal is a batch that moved nothing.
///
/// History: a call that claimed k entries is k `Op::Steal` records sharing
/// the call's (invoke, return) interval — each claim is its own `top` CAS
/// inside that interval. A call that claimed nothing leaves no record:
/// Chase–Lev may report `Empty` from a stale `bottom` read long after a
/// push completed (on TSO the push's plain `bottom` store can still sit in
/// the owner's store buffer), so `Empty` is only a hint. This is the
/// standard relaxed semantics — the pool treats it exactly that way,
/// retrying and parking through the job condvar instead of trusting a
/// single `Empty`.
fn thief(
    deque: &ColoredDeque<u64>,
    batch: bool,
    accept: Option<ColorSet>,
    attempts: usize,
) -> (Vec<u64>, Vec<Record>, usize) {
    assert!(
        batch || accept.is_none(),
        "a colored steal is a batch steal"
    );
    let dest: ColoredDeque<u64> = ColoredDeque::new();
    let (mut got, mut history, mut retries) = (Vec::new(), Vec::new(), 0usize);
    for _ in 0..attempts {
        let invoke = loom::clock();
        let steal = match (&accept, batch) {
            (Some(accept), _) => deque.steal_batch_if(accept, &dest).0,
            (None, true) => deque.steal_batch(&dest).0,
            (None, false) => deque.steal(),
        };
        let response = loom::clock();
        let mut claimed = Vec::new();
        match steal {
            Steal::Success(b) => {
                claimed.push(*b);
                std::mem::forget(b);
                // The moved entries come back LIFO through `pop`;
                // reversing the drain restores the claim order.
                while let Some(b) = dest.pop() {
                    claimed.push(*b);
                    std::mem::forget(b);
                }
                claimed[1..].reverse();
            }
            Steal::Retry => retries += 1,
            Steal::Empty | Steal::ColorMismatch => {}
        }
        history.extend(
            claimed
                .iter()
                .map(|&v| Record::new(Op::Steal, Some(v), invoke, response)),
        );
        got.extend(claimed);
    }
    (got, history, retries)
}

/// The one owner-versus-thieves driver. The owner pushes the first
/// `preload` of its `1..=cfg.tasks` values (colored by `color_of`) before
/// the thieves start, the rest against them, popping at `cfg.pop_every`'s
/// cadence; then pops `pops` more times, still against them; then joins
/// them and drains the leftovers. Must be called inside a `loom` execution.
fn drive(
    cfg: &ScenarioCfg,
    color_of: impl Fn(u64) -> ColorSet,
    preload: u64,
    pops: usize,
) -> Outcome {
    let deque: Arc<ColoredDeque<u64>> = Arc::new(ColoredDeque::new());
    let mut out = Outcome::default();
    for v in 1..=preload {
        owner_push(&deque, &mut out, v, color_of(v));
    }

    let accept = cfg.colored.then(|| ColorSet::singleton(Color(0)));
    let thieves: Vec<_> = (0..cfg.thieves)
        .map(|_| {
            let (deque, cfg) = (deque.clone(), *cfg);
            thread::spawn(move || thief(&deque, cfg.batch, accept, cfg.steal_attempts))
        })
        .collect();

    for v in preload + 1..=cfg.tasks {
        owner_push(&deque, &mut out, v, color_of(v));
        if cfg.pop_every > 0 && v % cfg.pop_every as u64 == 0 {
            owner_pop(&deque, &mut out);
        }
    }
    for _ in 0..pops {
        owner_pop(&deque, &mut out);
    }

    for t in thieves {
        let (got, history, retries) = t.join().expect("thief panicked");
        out.stolen.push(got);
        out.history.extend(history);
        out.retries += retries;
    }
    // Owner drains what is left (thieves are done: no concurrency here).
    while owner_pop(&deque, &mut out) {}
    out
}

/// Runs the scenario once: every entry carries both colors, the owner
/// pushes as the thieves steal.
pub fn run_scenario(cfg: &ScenarioCfg) -> Outcome {
    drive(cfg, |_| ColorSet::all(2), 0, 0)
}

/// Asserts W1, W2, W3 (thief side), and W6 on a completed execution.
/// W4 (linearizability) is a separate, more expensive call because some
/// configs produce histories too long to check every execution.
pub fn check_accounting(cfg: &ScenarioCfg, out: &Outcome, preemption_bound: usize) {
    // W1 (no lost tasks) + W2 (no double execution): every pushed value
    // observed exactly once across pops and steals.
    let mut seen = vec![0u32; cfg.tasks as usize + 1];
    for &v in out.popped.iter().chain(out.stolen.iter().flatten()) {
        assert!(v >= 1 && v <= cfg.tasks, "value {v} was never pushed");
        seen[v as usize] += 1;
    }
    for v in 1..=cfg.tasks as usize {
        assert!(seen[v] != 0, "W1 violation: task {v} lost");
        assert!(
            seen[v] == 1,
            "W2 violation: task {v} executed {} times",
            seen[v]
        );
    }

    // W3, thief side: steals linearize on the `top` CAS, which claims
    // strictly increasing indices holding values pushed in increasing
    // order — so every thief's own claim sequence must be strictly
    // increasing (and, values being unique by W2, the per-thief
    // sequences interleave into one increasing global CAS order).
    for (i, got) in out.stolen.iter().enumerate() {
        for pair in got.windows(2) {
            assert!(
                pair[0] < pair[1],
                "W3 violation: thief {i} claimed {:?} out of FIFO order",
                got
            );
        }
    }

    // W6: steal attempts are bounded per idle episode by construction
    // (the fixed budget); the non-vacuous part is that lost CAS races
    // cannot exceed the preemption bound — a `Retry` requires another
    // thread to move `top` between the thief's read and its first CAS,
    // which costs a preemption.
    assert!(
        out.retries <= preemption_bound,
        "W6 violation: {} retries with preemption bound {}",
        out.retries,
        preemption_bound
    );
    // One successful single steal claims one entry, so the attempt budget
    // bounds the take; one successful batch claims up to half the deque.
    if !cfg.batch {
        for (i, got) in out.stolen.iter().enumerate() {
            assert!(
                got.len() <= cfg.steal_attempts,
                "W6 violation: thief {i} exceeded its attempt budget"
            );
        }
    }
}

/// Asserts W4: the recorded history — pushes, pops, and every claim a
/// steal of either kind made — linearizes against the sequential deque
/// spec.
pub fn check_linearizable(out: &Outcome) {
    assert!(
        crate::lin::linearizable(&out.history),
        "W4 violation: history not linearizable: {:?}",
        out.history
    );
}

/// The revalidation obligation behind `steal_batch`: a thief chaining
/// claims against an initially-read `bottom` can re-claim an index the
/// owner has already taken *without* a CAS (the owner only CASes for the
/// last element). Owner pushes four, a thief runs one `steal_batch`
/// while the owner pops three; every value must still be taken exactly
/// once. Under `--cfg nabbitc_weak_batch` (`BATCH_REVALIDATE = false`)
/// the explorer finds the W2 double take at preemption bound 2: the
/// thief reads `t = 0, b = 4`, the owner pops values 4, 3, 2 (the last
/// without a CAS since `top` still reads 0), then the thief's chained
/// CASes claim indices 0 *and* 1 — value 2 is taken twice.
pub fn run_steal_batch_races_owner_pops(preemption_bound: usize) {
    let cfg = ScenarioCfg {
        thieves: 1,
        tasks: 4,
        pop_every: 0,
        steal_attempts: 1,
        batch: true,
        colored: false,
    };
    let out = drive(&cfg, |_| ColorSet::all(2), 4, 3);
    check_accounting(&cfg, &out, preemption_bound);
}

/// Colored steal-half takes only the matching prefix. The owner's deque
/// holds colors `[c0, c0, c1, c0]`; a thief restricted to `c0` must stop
/// at the `c1` entry, so in every interleaving with concurrent owner
/// pops the thief can only ever claim values 1 and 2 — and every value
/// is still taken exactly once.
pub fn run_colored_batch_prefix(preemption_bound: usize) {
    let cfg = ScenarioCfg {
        thieves: 1,
        tasks: 4,
        pop_every: 0,
        steal_attempts: 2,
        batch: true,
        colored: true,
    };
    let color_of = |v| ColorSet::singleton(Color(u16::from(v == 3)));
    let out = drive(&cfg, color_of, 4, 2);
    for &v in &out.stolen[0] {
        assert!(
            v == 1 || v == 2,
            "colored batch steal claimed {v}, which is past the c1 barrier"
        );
    }
    check_accounting(&cfg, &out, preemption_bound);
}

/// `push_batch` must publish its slot writes before the `bottom` store.
/// The prelude dirties the ring (`MIN_CAP = 2` under the checker): two
/// pushes and two leaked pops leave both slots holding stale-but-live
/// pointers at `t = 1, b = 1`. The owner then batch-publishes `[3, 4]`
/// while a thief steals twice: a thief that observes the new `bottom`
/// before the slot writes reads a stale pointer and "steals" an
/// already-popped value — a W2 double take. Under
/// `--cfg nabbitc_weak_push_batch` (bottom stored before the slots) the
/// TSO explorer finds exactly that; with the Release fence in place the
/// invariant holds over all interleavings.
pub fn run_push_batch_publication() {
    let colors = ColorSet::all(2);
    let deque: Arc<ColoredDeque<u64>> = Arc::new(ColoredDeque::new());
    deque.push(Box::new(1u64), colors);
    deque.push(Box::new(2u64), colors);
    let a = deque.pop().expect("sequential pop");
    std::mem::forget(a);
    let b = deque.pop().expect("sequential pop");
    std::mem::forget(b);

    let thief = {
        let deque = deque.clone();
        thread::spawn(move || thief(&deque, false, None, 2).0)
    };
    deque.push_batch(vec![(Box::new(3u64), colors), (Box::new(4u64), colors)]);
    let stolen = thief.join().expect("thief panicked");

    let mut popped = Vec::new();
    while let Some(b) = deque.pop() {
        popped.push(*b);
        std::mem::forget(b);
    }
    for &v in &stolen {
        assert!(
            v == 3 || v == 4,
            "W2 violation: thief observed stale slot value {v} (double take)"
        );
    }
    let mut seen = [0u32; 5];
    for &v in popped.iter().chain(stolen.iter()) {
        assert!(
            (3..=4).contains(&v),
            "W2 violation: stale value {v} resurfaced"
        );
        seen[v as usize] += 1;
    }
    for v in 3..=4usize {
        assert!(seen[v] != 0, "W1 violation: batched task {v} lost");
        assert!(seen[v] == 1, "W2 violation: batched task {v} taken twice");
    }
}

/// The pool's pending-counter protocol under its relaxed orderings
/// (`pool.rs`): spawn counts `+1` with `Relaxed` *before* pushing the
/// task (the deque push's Release fence publishes the increment to
/// whoever acquires the task), execute counts `-1` with `AcqRel` after
/// running it, and the idle loop reads with `Acquire`. The invariant: an
/// `Acquire` load observing zero happens-after every task's effects —
/// the fetch-sub RMW chain forms a release sequence, so reading the
/// final decrement synchronizes with all of them — and the counter can
/// never spuriously hit zero mid-job, because each `-1` happens-after
/// its `+1` through the deque's publish edge. A bounded poller checks
/// both; worker scripts are fixed-length so every execution terminates.
pub fn run_pending_protocol() {
    use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    let pending = Arc::new(AtomicUsize::new(1)); // the root task
    let effect = Arc::new(AtomicU64::new(0));
    let deque: Arc<ColoredDeque<u64>> = Arc::new(ColoredDeque::new());

    // Worker 1 executes the root: spawn one child (count, then push),
    // retire the root, then pop-execute the child if the thief missed it
    // so every execution drains to pending == 0.
    let w1 = {
        let (pending, effect, deque) = (pending.clone(), effect.clone(), deque.clone());
        thread::spawn(move || {
            pending.fetch_add(1, Ordering::Relaxed);
            deque.push(Box::new(7u64), ColorSet::all(1));
            pending.fetch_sub(1, Ordering::AcqRel);
            if let Some(b) = deque.pop() {
                effect.fetch_add(*b, Ordering::Relaxed);
                std::mem::forget(b);
                pending.fetch_sub(1, Ordering::AcqRel);
            }
        })
    };
    // Worker 2 races to steal-execute the child.
    let w2 = {
        let (pending, effect, deque) = (pending.clone(), effect.clone(), deque.clone());
        thread::spawn(move || {
            for _ in 0..2 {
                if let Steal::Success(b) = deque.steal() {
                    effect.fetch_add(*b, Ordering::Relaxed);
                    std::mem::forget(b);
                    pending.fetch_sub(1, Ordering::AcqRel);
                    break;
                }
            }
        })
    };
    // The termination read: a bounded poll standing in for the idle
    // loop's exit check. Observing zero must imply the child's effects.
    let poller = {
        let (pending, effect) = (pending.clone(), effect.clone());
        thread::spawn(move || {
            for _ in 0..3 {
                let p = pending.load(Ordering::Acquire);
                assert!(p <= 2, "pending counter went spuriously negative: {p}");
                if p == 0 {
                    assert_eq!(
                        effect.load(Ordering::Relaxed),
                        7,
                        "pending hit 0 before the task's effects were visible"
                    );
                    return;
                }
            }
        })
    };
    w1.join().expect("worker 1 panicked");
    w2.join().expect("worker 2 panicked");
    poller.join().expect("poller panicked");
    assert_eq!(pending.load(Ordering::Acquire), 0);
    assert_eq!(effect.load(Ordering::Relaxed), 7);
}

/// The dynamic executor's successor registration
/// (`nabbitc_core::join::SuccessorList`, driven here as the real type):
/// one predecessor computes and then closes its list, notifying whatever
/// it drained (`compute_and_notify`), while `registrants` successors each
/// try to register one link on it (`init_node`'s `try_init_compute`). The
/// invariant, per edge: *exactly one* of "enqueued, and later notified by
/// the closer" and "saw the list closed, and counted the dependence
/// satisfied" — an enqueued successor that is never notified is lost
/// (W1), one that is notified twice, or notified although it was told
/// "closed", computes twice (W2). Seeing "closed" must also make the
/// predecessor's output visible. Under `--cfg nabbitc_weak_close` (close
/// as a `load` followed by a `store` instead of one `swap`) a link pushed
/// between the two is overwritten by the sentinel — enqueued, never
/// notified — and the explorer must find it.
pub fn run_successor_list(registrants: usize) {
    use loom::sync::atomic::{AtomicUsize, Ordering};
    use nabbitc_core::{Link, SuccessorList};

    let list: Arc<SuccessorList<usize>> = Arc::new(SuccessorList::new());
    let links: Arc<Vec<Link<usize>>> = Arc::new((0..registrants).map(Link::new).collect());
    let output = Arc::new(AtomicUsize::new(0));

    // The predecessor: compute, close, notify. It drains, so it co-owns
    // the slots.
    let closer = {
        let (list, links, output) = (list.clone(), links.clone(), output.clone());
        thread::spawn(move || {
            let _slots = links;
            output.store(7, Ordering::Relaxed);
            let notified = list.close().collect::<Vec<usize>>();
            // The task then retires from the pool's pending count
            // (`pool.rs`: an AcqRel RMW). Some later operation of the
            // closer is what lets the explorer run a registrant while a
            // store made by `close` is still in the closer's buffer.
            output.fetch_add(1, Ordering::AcqRel);
            notified
        })
    };
    let register = move |i: usize| {
        // SAFETY: `links` is co-owned by every registrant (this closure)
        // and by the closer, the one thread that drains; link `i` is
        // registered by registrant `i` only.
        let enqueued = unsafe { list.register(&links[i]) };
        if !enqueued {
            assert!(
                output.load(Ordering::Relaxed) >= 7,
                "successor {i} saw the list closed before the predecessor's output"
            );
        }
        enqueued
    };
    // Registrants 1.. on their own threads, registrant 0 on the root.
    let others: Vec<_> = (1..registrants)
        .map(|i| {
            let register = register.clone();
            thread::spawn(move || register(i))
        })
        .collect();
    let mut enqueued = vec![register(0)];
    enqueued.extend(
        others
            .into_iter()
            .map(|h| h.join().expect("registrant panicked")),
    );
    let notified = closer.join().expect("closer panicked");

    for (i, &enq) in enqueued.iter().enumerate() {
        let n = notified.iter().filter(|&&w| w == i).count();
        assert!(
            !(enq && n == 0),
            "W1 violation: successor {i} was enqueued but never notified (lost)"
        );
        assert!(
            n <= 1 && (enq || n == 0),
            "W2 violation: successor {i} notified {n} times (enqueued: {enq})"
        );
    }
}

/// The join-counter protocol (`nabbitc_core::join::JoinCounter`, the
/// paper's readiness arbiter), in the two ways the executors arm it.
///
/// [`Arming::Scanned`] is the on-demand executor's, composed with the
/// real successor registration ([`run_successor_list`]'s
/// `SuccessorList`): the scanning worker arms the counter with a +1 init
/// bias (`begin_scan`), registers with each of `preds` predecessors — or
/// counts the already-computed ones as satisfied — then releases bias +
/// satisfied count in one RMW (`end_scan`). Each predecessor, after
/// computing, closes its list and notifies the successors it drained
/// (`notify`). [`Arming::Armed`] is the pre-built-graph executor's: the
/// counter is born holding `preds` (`JoinCounter::armed`), there is no
/// scanner and no registration — a node's successors are the graph's —
/// and each of the `preds` predecessors, after computing, notifies once.
///
/// The invariant either way: across every interleaving, *exactly one*
/// decrement reaches zero, so the node is enqueued exactly once — W1
/// (never enqueued) and W2 (double compute) in join-counter form — and
/// the thread whose decrement it was sees every predecessor's output,
/// written before that predecessor's own decrement. Under `--cfg
/// nabbitc_weak_join` (bias dropped, scan-side orderings Relaxed) a
/// predecessor finishing between the scanning consumer's registration
/// and its `end_scan` zeroes the counter for the producer *and* leaves
/// zero for `end_scan` to observe — both enqueue, and the explorer must
/// find it.
pub fn run_join_protocol(preds: usize, arming: Arming) {
    use loom::sync::atomic::{AtomicUsize, Ordering};
    use nabbitc_core::{JoinCounter, Link, SuccessorList};

    let scanned = arming == Arming::Scanned;
    let join = Arc::new(if scanned {
        JoinCounter::new()
    } else {
        JoinCounter::armed(preds)
    });
    // One successor list per predecessor, and the consumer's registration
    // slot for each (the scanned arming only).
    let lists: Arc<Vec<SuccessorList<usize>>> =
        Arc::new((0..preds).map(|_| SuccessorList::new()).collect());
    let links: Arc<Vec<Link<usize>>> = Arc::new((0..preds).map(Link::new).collect());
    let outputs: Arc<Vec<AtomicUsize>> =
        Arc::new((0..preds).map(|_| AtomicUsize::new(0)).collect());
    let enqueues = Arc::new(AtomicUsize::new(0));

    // What the owner of the zeroing decrement does: read what the node
    // depends on, enqueue the node.
    let fire = {
        let (outputs, enqueues) = (outputs.clone(), enqueues.clone());
        move || {
            for (i, output) in outputs.iter().enumerate() {
                assert_eq!(
                    output.load(Ordering::Relaxed),
                    1,
                    "the firing decrement did not see predecessor {i}'s output"
                );
            }
            enqueues.fetch_add(1, Ordering::Relaxed);
        }
    };

    // Arm the counter *before* publishing interest anywhere, as
    // `init_node` does — no `notify` can precede `begin_scan` because
    // registration (below) is what makes a producer notify at all.
    if scanned {
        join.begin_scan(preds);
    }

    // Producers: compute the predecessor, then notify — through
    // close-and-drain (the `compute_and_notify` waiter loop, at most one
    // waiter) when the consumer registers, directly when the edge is the
    // graph's.
    let producers: Vec<_> = (0..preds)
        .map(|i| {
            let (join, lists, outputs, fire) =
                (join.clone(), lists.clone(), outputs.clone(), fire.clone());
            // Every thread that may drain a list co-owns the slots.
            let links = links.clone();
            thread::spawn(move || {
                let _slots = links;
                outputs[i].store(1, Ordering::Relaxed);
                let waiters = if scanned { lists[i].close().count() } else { 1 };
                for _waiter in 0..waiters {
                    if join.notify() {
                        fire();
                    }
                }
            })
        })
        .collect();

    // Consumer (the model's root thread): the predecessor scan.
    if scanned {
        let mut satisfied: i64 = 0;
        for (list, link) in lists.iter().zip(links.iter()) {
            // SAFETY: `links` is co-owned by this thread and every
            // producer — the only threads that drain — so it outlives
            // every drain; each link is registered once, on its own
            // predecessor's list.
            if !unsafe { list.register(link) } {
                satisfied += 1;
            }
        }
        if join.end_scan(satisfied) {
            fire();
        }
    }

    for p in producers {
        p.join().expect("producer panicked");
    }
    let n = enqueues.load(Ordering::Relaxed);
    assert!(n != 0, "W1 violation: join-counter node never enqueued");
    assert_eq!(
        n, 1,
        "W2 violation: join-counter node enqueued {n} times (double compute)"
    );
    assert_eq!(join.pending(), 0, "join counter nonzero after quiescence");
}

/// How [`run_join_protocol`]'s consumer gets its count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arming {
    /// `begin_scan` … `end_scan` around a registration scan, with the +1
    /// init bias (`DynamicExecutor`).
    Scanned,
    /// `JoinCounter::armed(preds)`: no scan, no bias (`StaticExecutor`).
    Armed,
}

/// W5 scenario (progress through the injector): a task is pushed into
/// the injector, then `workers` virtual workers each run one
/// check-and-take round exactly like `pool.rs`'s idle path (lock-free
/// `is_empty` hint, then `try_pop`). The push happens-before every
/// worker start, so the hint may never read stale-empty: if all workers
/// skip while the injector holds work, workers would park forever in the
/// real pool — the W5 violation this scenario encodes.
pub fn run_injector_progress(workers: usize) {
    let inj: Arc<Injector<u64>> = Arc::new(Injector::new());
    inj.push(42);
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let inj = inj.clone();
            thread::spawn(move || if !inj.is_empty() { inj.try_pop() } else { None })
        })
        .collect();
    let taken: Vec<u64> = handles
        .into_iter()
        .filter_map(|h| h.join().expect("worker panicked"))
        .collect();
    assert_eq!(
        taken,
        vec![42],
        "W5 violation: all workers parked while the injector was non-empty \
         (or the task was taken more than once)"
    );
    assert!(inj.is_empty());
}

/// W5 under a *racing* push: unlike [`run_injector_progress`], the push
/// is concurrent with the workers' hint-then-pop rounds, so a
/// stale-empty hint is legal (the real pool's enqueuer wakes workers
/// through the job condvar afterwards). What must still hold under the
/// Release/Acquire mirror protocol: the task is never taken twice, and
/// it is either taken by a worker or still drainable afterwards — never
/// lost.
pub fn run_injector_racing_push(workers: usize) {
    let inj: Arc<Injector<u64>> = Arc::new(Injector::new());
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let inj = inj.clone();
            thread::spawn(move || if !inj.is_empty() { inj.try_pop() } else { None })
        })
        .collect();
    inj.push(42);
    let taken: Vec<u64> = handles
        .into_iter()
        .filter_map(|h| h.join().expect("worker panicked"))
        .collect();
    assert!(taken.len() <= 1, "W2 violation: injector task taken twice");
    let leftover = inj.try_pop();
    assert_eq!(
        taken.len() + usize::from(leftover.is_some()),
        1,
        "W1 violation: injector task lost"
    );
    assert!(inj.is_empty());
    assert!(leftover.iter().chain(taken.iter()).all(|&v| v == 42));
}
