//! Per-worker task arena: a free list of recycled `Box<Task>` shells.
//!
//! Every spawn used to pay one `Box::new(Task::new(..))` allocation; with
//! tasks storing their closures inline ([`crate::task`]), the boxed shell
//! is the *only* per-task allocation left — so recycling shells makes the
//! steady-state spawn path allocation-free. Each worker owns one arena
//! (`&mut` access only, no atomics, no sharing): a worker that executes a
//! task stolen from elsewhere recycles the shell into its *own* arena,
//! which is exactly where its next spawn allocates from, so shells migrate
//! toward spawn-heavy workers on their own.
//!
//! Counters are plain integers — the arena is thread-confined — and are
//! mirrored into [`WorkerStats`](crate::stats::WorkerStats) by the pool so
//! tests and benches can observe the recycle hit rate.

use crate::pool::WorkerContext;
use crate::task::Task;
use nabbitc_color::ColorSet;

/// Free-list capacity per worker. Beyond this, recycled shells are simply
/// dropped: the list exists to absorb a worker's working set of in-flight
/// tasks, not to cache a whole job's worth of shells.
const MAX_FREE: usize = 256;

/// A worker-owned free list of vacant task shells.
#[derive(Default)]
pub(crate) struct TaskArena {
    // The boxes ARE the cache: a recycled shell must keep its heap
    // allocation so the next spawn can reuse it (clippy would unbox).
    #[allow(clippy::vec_box)]
    free: Vec<Box<Task>>,
    /// The worker's spawn-batch buffer, empty between batches: a
    /// [`SpawnBatch`](crate::SpawnBatch) takes it and hands it back, so
    /// publishing a batch allocates nothing once it has grown.
    pub(crate) batch: Vec<(Box<Task>, ColorSet)>,
    /// Shells served from the free list.
    pub(crate) hits: u64,
    /// Shells that had to be allocated.
    pub(crate) misses: u64,
}

impl TaskArena {
    /// Builds a boxed task from a recycled shell (or the allocator), with
    /// the closure stored in place — zero allocations on the hit path for
    /// inline-sized closures. The second element reports whether the free
    /// list served the request (the pool mirrors it into `WorkerStats`).
    pub(crate) fn allocate<F>(&mut self, colors: ColorSet, id: u64, func: F) -> (Box<Task>, bool)
    where
        F: FnOnce(&mut WorkerContext<'_>) + Send + 'static,
    {
        match self.free.pop() {
            Some(mut shell) => {
                self.hits += 1;
                shell.colors = colors;
                shell.id = id;
                shell.fill(func);
                (shell, true)
            }
            None => {
                self.misses += 1;
                (Box::new(Task::new(colors, func).with_id(id)), false)
            }
        }
    }

    /// Boxes an already-built task, reusing a shell when one is free
    /// (the injector hand-off path: the root task arrives by value).
    pub(crate) fn adopt(&mut self, task: Task) -> (Box<Task>, bool) {
        match self.free.pop() {
            Some(mut shell) => {
                self.hits += 1;
                *shell = task;
                (shell, true)
            }
            None => {
                self.misses += 1;
                (Box::new(task), false)
            }
        }
    }

    /// Returns a shell to the free list, clearing its closure, colors and
    /// trace id (see [`Task::clear`] — a recycled shell must get a fresh
    /// id at its next spawn).
    pub(crate) fn recycle(&mut self, mut shell: Box<Task>) {
        if self.free.len() < MAX_FREE {
            shell.clear();
            self.free.push(shell);
        }
    }
}

#[cfg(all(test, not(nabbitc_check)))]
mod tests {
    use super::*;

    #[test]
    fn recycle_then_allocate_hits_and_resets_identity() {
        let mut arena = TaskArena::default();
        let (t, hit) = arena.allocate(ColorSet::all(2), 7, |_| {});
        assert!(!hit);
        assert_eq!((arena.hits, arena.misses), (0, 1));
        arena.recycle(t);
        let (t, hit) = arena.allocate(ColorSet::singleton(nabbitc_color::Color(1)), 9, |_| {});
        assert!(hit);
        assert_eq!((arena.hits, arena.misses), (1, 1));
        assert_eq!(t.id, 9, "recycled shell must carry the new id");
        drop(t);

        // An adopted task reuses a shell too.
        let (t, _) = arena.allocate(ColorSet::all(1), 0, |_| {});
        arena.recycle(t);
        let (adopted, hit) = arena.adopt(Task::new(ColorSet::all(1), |_| {}));
        assert!(hit);
        assert_eq!((arena.hits, arena.misses), (2, 2));
        drop(adopted);
    }

    #[test]
    fn free_list_is_capped() {
        let mut arena = TaskArena::default();
        let shells: Vec<_> = (0..MAX_FREE + 10)
            .map(|_| arena.allocate(ColorSet::all(1), 0, |_| {}).0)
            .collect();
        for s in shells {
            arena.recycle(s);
        }
        assert_eq!(arena.free.len(), MAX_FREE);
    }
}
