//! Bounded work-stealing scenarios executed under the loom explorer.
//!
//! Each scenario is a *fixed-length script* per virtual thread (no
//! unbounded retry loops), so every execution terminates and the DFS
//! tree is finite: the owner pushes `tasks` values (popping at a
//! configured cadence), each thief makes a fixed number of steal
//! attempts, then the owner joins everyone and drains the leftovers.
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
    /// Thieves use the colored steal (`steal_if`) with a color every
    /// entry carries, exercising the color-word reads on the steal path.
    pub colored: bool,
}

/// What one execution observed; the input to the invariant checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Values the owner popped, in pop order (interleaved + final drain).
    pub popped: Vec<u64>,
    /// Per thief: values stolen, in that thief's steal order.
    pub stolen: Vec<Vec<u64>>,
    /// Lost CAS races (`Steal::Retry`) summed over all thieves.
    pub retries: usize,
    /// Clock-stamped operation records for the linearizability check.
    pub history: Vec<Record>,
}

fn record<R>(history: &mut Vec<Record>, op: Op, f: impl FnOnce() -> (Option<u64>, R)) -> R {
    let invoke = loom::clock();
    let (ret, out) = f();
    history.push(Record::new(op, ret, invoke, loom::clock()));
    out
}

/// Runs the scenario once; must be called inside a `loom` execution.
pub fn run_scenario(cfg: &ScenarioCfg) -> Outcome {
    let colors = ColorSet::all(2);
    let deque: Arc<ColoredDeque<u64>> = Arc::new(ColoredDeque::new());

    let thieves: Vec<_> = (0..cfg.thieves)
        .map(|_| {
            let deque = deque.clone();
            let attempts = cfg.steal_attempts;
            let colored = cfg.colored;
            thread::spawn(move || {
                let mut got = Vec::new();
                let mut hist = Vec::new();
                let mut retries = 0usize;
                for _ in 0..attempts {
                    let steal = record(&mut hist, Op::Steal, || {
                        let s = if colored {
                            deque.steal_if(Color(0))
                        } else {
                            deque.steal()
                        };
                        let v = match &s {
                            Steal::Success(b) => Some(**b),
                            _ => None,
                        };
                        (v, s)
                    });
                    match steal {
                        Steal::Success(b) => {
                            got.push(*b);
                            std::mem::forget(b);
                        }
                        Steal::Retry => retries += 1,
                        Steal::Empty | Steal::ColorMismatch => {}
                    }
                }
                (got, hist, retries)
            })
        })
        .collect();

    let mut out = Outcome::default();
    for v in 1..=cfg.tasks {
        record(&mut out.history, Op::Push(v), || {
            deque.push(Box::new(v), colors);
            (None, ())
        });
        if cfg.pop_every > 0 && v % cfg.pop_every as u64 == 0 {
            let popped = record(&mut out.history, Op::Pop, || {
                let p = deque.pop();
                (p.as_deref().copied(), p)
            });
            if let Some(b) = popped {
                out.popped.push(*b);
                std::mem::forget(b);
            }
        }
    }

    for t in thieves {
        let (got, hist, retries) = t.join().expect("thief panicked");
        out.stolen.push(got);
        out.history.extend(hist);
        out.retries += retries;
    }

    // Owner drains what is left (thieves are done: no concurrency here).
    loop {
        let popped = record(&mut out.history, Op::Pop, || {
            let p = deque.pop();
            (p.as_deref().copied(), p)
        });
        match popped {
            Some(b) => {
                out.popped.push(*b);
                std::mem::forget(b);
            }
            None => break,
        }
    }
    out
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
    // order — so every thief's own steal sequence must be strictly
    // increasing (and, values being unique by W2, the per-thief
    // sequences interleave into one increasing global CAS order).
    for (i, got) in out.stolen.iter().enumerate() {
        for pair in got.windows(2) {
            assert!(
                pair[0] < pair[1],
                "W3 violation: thief {i} stole {:?} out of FIFO order",
                got
            );
        }
    }

    // W6: steal attempts are bounded per idle episode by construction
    // (the fixed budget); the non-vacuous part is that lost CAS races
    // cannot exceed the preemption bound — a `Retry` requires another
    // thread to move `top` between the thief's read and CAS, which
    // costs a preemption.
    assert!(
        out.retries <= preemption_bound,
        "W6 violation: {} retries with preemption bound {}",
        out.retries,
        preemption_bound
    );
    for (i, got) in out.stolen.iter().enumerate() {
        assert!(
            got.len() <= cfg.steal_attempts,
            "W6 violation: thief {i} exceeded its attempt budget"
        );
    }
}

/// Asserts W4: the recorded history linearizes against the sequential
/// deque spec.
///
/// Failed steals are exempt: Chase–Lev `steal` may report `Empty` from a
/// stale `bottom` read long after a push completed (on TSO the push's
/// plain `bottom` store can still sit in the owner's store buffer), so
/// `Empty` is only a hint. This is the standard relaxed semantics — the
/// pool treats it exactly that way, retrying and parking through the job
/// condvar instead of trusting a single `Empty`. Successful operations
/// and owner pops (which read their own `bottom` and a monotonic `top`)
/// must linearize strictly.
pub fn check_linearizable(out: &Outcome) {
    let strict: Vec<Record> = out
        .history
        .iter()
        .filter(|r| !(r.op == Op::Steal && r.ret.is_none()))
        .copied()
        .collect();
    assert!(
        crate::lin::linearizable(&strict),
        "W4 violation: history not linearizable: {:?}",
        strict
    );
}

/// Reconstructs a batch-stealing thief's claim order: the kept task came
/// first, then the moved tasks — which the thief drains LIFO through
/// `pop` on its own deque, so reversing the drain restores the strictly
/// increasing claim order the W3 check expects.
fn drain_batch_dest(dest: &ColoredDeque<u64>, got: &mut Vec<u64>) {
    let mut drained = Vec::new();
    while let Some(b) = dest.pop() {
        drained.push(*b);
        std::mem::forget(b);
    }
    drained.reverse();
    got.extend(drained);
}

/// Steal-half variant of [`run_scenario`]: each thief owns a destination
/// deque and calls `steal_batch` / `steal_batch_if`, draining the moved
/// tasks after every attempt. No linearization history is recorded — the
/// W4 spec models single-task steals — so pair this with
/// [`check_batch_accounting`].
pub fn run_batch_scenario(cfg: &ScenarioCfg) -> Outcome {
    let colors = ColorSet::all(2);
    let deque: Arc<ColoredDeque<u64>> = Arc::new(ColoredDeque::new());

    let thieves: Vec<_> = (0..cfg.thieves)
        .map(|_| {
            let deque = deque.clone();
            let attempts = cfg.steal_attempts;
            let colored = cfg.colored;
            thread::spawn(move || {
                let dest: ColoredDeque<u64> = ColoredDeque::new();
                let mut got = Vec::new();
                let mut retries = 0usize;
                for _ in 0..attempts {
                    let (steal, _moved) = if colored {
                        deque.steal_batch_if(&ColorSet::singleton(Color(0)), &dest)
                    } else {
                        deque.steal_batch(&dest)
                    };
                    match steal {
                        Steal::Success(b) => {
                            got.push(*b);
                            std::mem::forget(b);
                            drain_batch_dest(&dest, &mut got);
                        }
                        Steal::Retry => retries += 1,
                        Steal::Empty | Steal::ColorMismatch => {}
                    }
                }
                (got, retries)
            })
        })
        .collect();

    let mut out = Outcome::default();
    for v in 1..=cfg.tasks {
        deque.push(Box::new(v), colors);
        if cfg.pop_every > 0 && v % cfg.pop_every as u64 == 0 {
            if let Some(b) = deque.pop() {
                out.popped.push(*b);
                std::mem::forget(b);
            }
        }
    }

    for t in thieves {
        let (got, retries) = t.join().expect("thief panicked");
        out.stolen.push(got);
        out.retries += retries;
    }

    while let Some(b) = deque.pop() {
        out.popped.push(*b);
        std::mem::forget(b);
    }
    out
}

/// W1/W2/W3 for batch steals. The per-attempt budget of the W6 check
/// does not apply (one successful batch claims up to half the deque);
/// the retry bound does — a batch `Retry` still requires another thread
/// to move `top` between the thief's read and its first CAS.
pub fn check_batch_accounting(cfg: &ScenarioCfg, out: &Outcome, preemption_bound: usize) {
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
    for (i, got) in out.stolen.iter().enumerate() {
        for pair in got.windows(2) {
            assert!(
                pair[0] < pair[1],
                "W3 violation: thief {i} claimed {:?} out of FIFO order",
                got
            );
        }
    }
    assert!(
        out.retries <= preemption_bound,
        "W6 violation: {} retries with preemption bound {}",
        out.retries,
        preemption_bound
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
pub fn run_steal_batch_races_owner_pops() {
    let colors = ColorSet::all(2);
    let deque: Arc<ColoredDeque<u64>> = Arc::new(ColoredDeque::new());
    for v in 1..=4u64 {
        deque.push(Box::new(v), colors);
    }

    let thief = {
        let deque = deque.clone();
        thread::spawn(move || {
            let dest: ColoredDeque<u64> = ColoredDeque::new();
            let mut got = Vec::new();
            if let (Steal::Success(b), _) = deque.steal_batch(&dest) {
                got.push(*b);
                std::mem::forget(b);
                drain_batch_dest(&dest, &mut got);
            }
            got
        })
    };

    let mut popped = Vec::new();
    for _ in 0..3 {
        if let Some(b) = deque.pop() {
            popped.push(*b);
            std::mem::forget(b);
        }
    }
    let stolen = thief.join().expect("thief panicked");
    while let Some(b) = deque.pop() {
        popped.push(*b);
        std::mem::forget(b);
    }

    let mut seen = [0u32; 5];
    for &v in popped.iter().chain(stolen.iter()) {
        assert!((1..=4).contains(&v), "value {v} was never pushed");
        seen[v as usize] += 1;
    }
    for v in 1..=4usize {
        assert!(seen[v] != 0, "W1 violation: task {v} lost");
        assert!(
            seen[v] == 1,
            "W2 violation: task {v} executed {} times",
            seen[v]
        );
    }
    for pair in stolen.windows(2) {
        assert!(
            pair[0] < pair[1],
            "W3 violation: batch claims {stolen:?} out of FIFO order"
        );
    }
}

/// Colored steal-half takes only the matching prefix. The owner's deque
/// holds colors `[c0, c0, c1, c0]`; a thief restricted to `c0` must stop
/// at the `c1` entry, so in every interleaving with concurrent owner
/// pops the thief can only ever claim values 1 and 2 — and every value
/// is still taken exactly once.
pub fn run_colored_batch_prefix() {
    let c0 = ColorSet::singleton(Color(0));
    let c1 = ColorSet::singleton(Color(1));
    let deque: Arc<ColoredDeque<u64>> = Arc::new(ColoredDeque::new());
    for (v, c) in [(1u64, c0), (2, c0), (3, c1), (4, c0)] {
        deque.push(Box::new(v), c);
    }

    let thief = {
        let deque = deque.clone();
        thread::spawn(move || {
            let dest: ColoredDeque<u64> = ColoredDeque::new();
            let mut got = Vec::new();
            for _ in 0..2 {
                if let (Steal::Success(b), _) = deque.steal_batch_if(&c0, &dest) {
                    got.push(*b);
                    std::mem::forget(b);
                    drain_batch_dest(&dest, &mut got);
                }
            }
            got
        })
    };

    let mut popped = Vec::new();
    for _ in 0..2 {
        if let Some(b) = deque.pop() {
            popped.push(*b);
            std::mem::forget(b);
        }
    }
    let stolen = thief.join().expect("thief panicked");
    while let Some(b) = deque.pop() {
        popped.push(*b);
        std::mem::forget(b);
    }

    for &v in &stolen {
        assert!(
            v == 1 || v == 2,
            "colored batch steal claimed {v}, which is past the c1 barrier"
        );
    }
    let mut seen = [0u32; 5];
    for &v in popped.iter().chain(stolen.iter()) {
        seen[v as usize] += 1;
    }
    for v in 1..=4usize {
        assert!(seen[v] != 0, "W1 violation: task {v} lost");
        assert!(seen[v] == 1, "W2 violation: task {v} taken twice");
    }
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
        thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                if let Steal::Success(b) = deque.steal() {
                    got.push(*b);
                    std::mem::forget(b);
                }
            }
            got
        })
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
/// lost. The final drain goes through `try_pop_batch`, covering the
/// batched mirror store too.
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
    let leftover = inj.try_pop_batch(4);
    assert_eq!(
        taken.len() + leftover.len(),
        1,
        "W1 violation: injector task lost"
    );
    assert!(inj.is_empty());
    assert!(leftover.iter().chain(taken.iter()).all(|&v| v == 42));
}
