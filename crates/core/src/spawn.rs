//! `spawn_colors` — morphing continuations (§III, Fig. 3) on the pool.
//!
//! Nabbit spawns a batch of nodes (predecessors during exploration,
//! successors during notification) in any order. NabbitC splits it by
//! color with the runtime's [`Batch`], the one statement of Fig. 3 that the
//! simulator drives too; this module publishes every half the spawning
//! worker does not keep as a task tagged with the half's colors, which
//! splits again on whichever worker takes it.
//!
//! The one item the split leaves to the spawning worker is returned, not
//! processed: the executors' loops take it as their next node, so a graph
//! that releases two nodes per step (a comb: a spine with a leaf at every
//! level) runs in constant stack depth instead of one frame per level. A
//! stolen half has no loop to return to and processes its item itself, at
//! the top of its own task.

use nabbitc_color::Color;
use nabbitc_runtime::morph::Batch;
use nabbitc_runtime::WorkerContext;

/// Work items routed through color-aware spawning.
pub trait ColoredItem: Send + 'static {
    /// The item's locality color.
    fn color(&self) -> Color;
}

/// Color-aware batch spawn: the paper's `spawn_colors` entry point.
///
/// Every item but one becomes stealable work: `process` is invoked exactly
/// once per such item, on whichever worker ends up owning it after the
/// color-guided splits and any steals. The remaining item — of the
/// worker's own color when the batch has one — is returned for the caller
/// to process next (`None` only for an empty batch).
///
/// `process` is copied into every task it spawns, so a spawn costs no
/// allocation and no reference count: it should capture handles, not
/// state.
#[must_use = "the returned item is the caller's to process"]
pub fn spawn_colors<I, F>(
    ctx: &mut WorkerContext<'_>,
    items: impl IntoIterator<Item = I>,
    process: F,
) -> Option<I>
where
    I: ColoredItem,
    F: Fn(&mut WorkerContext<'_>, I) + Copy + Send + 'static,
{
    split(ctx, Batch::gather(items, I::color), process)
}

/// Splits `batch` for this worker, publishing every half it does not keep
/// as one spawn batch — a single bottom store and Release fence for the
/// whole release, in the deque order of spawning one at a time — and
/// returns the item it keeps.
fn split<I, F>(ctx: &mut WorkerContext<'_>, batch: Batch<I>, process: F) -> Option<I>
where
    I: ColoredItem,
    F: Fn(&mut WorkerContext<'_>, I) + Copy + Send + 'static,
{
    let mine = ctx.color();
    let mut spawn = ctx.spawn_batch();
    let kept = batch.split(mine, |half| {
        spawn.add(half.colors(), move |ctx| {
            if let Some(item) = split(ctx, half, process) {
                process(ctx, item);
            }
        });
    });
    spawn.publish();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_color::ColorSet;
    use nabbitc_runtime::{Pool, PoolConfig};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    impl ColoredItem for (u32, Color) {
        fn color(&self) -> Color {
            self.1
        }
    }

    /// The color groups `spawn_colors` splits `items` into.
    fn gather_colors(items: Vec<(u32, Color)>) -> Vec<(Color, Vec<(u32, Color)>)> {
        match Batch::gather(items, |i| i.1) {
            Batch::Groups(groups) => groups,
            Batch::Nodes(..) | Batch::One(..) => unreachable!("gather returns groups"),
        }
    }

    /// State a copyable `process` closure can capture: leaked, a few
    /// bytes per test.
    fn shared<T>(value: T) -> &'static T {
        Box::leak(Box::new(value))
    }

    /// `spawn_colors`, then the item it leaves to the caller — what the
    /// executors' loops do with it.
    fn spawn_and_process<I, F>(ctx: &mut WorkerContext<'_>, items: Vec<I>, process: F)
    where
        I: ColoredItem,
        F: Fn(&mut WorkerContext<'_>, I) + Copy + Send + 'static,
    {
        if let Some(item) = spawn_colors(ctx, items, process) {
            process(ctx, item);
        }
    }

    #[test]
    fn gather_groups_by_color_sorted() {
        let items = vec![
            (0u32, Color(2)),
            (1, Color(0)),
            (2, Color(2)),
            (3, Color(1)),
            (4, Color(0)),
        ];
        let groups = gather_colors(items);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].0, Color(0));
        assert_eq!(groups[0].1, vec![(1, Color(0)), (4, Color(0))]);
        assert_eq!(groups[1].0, Color(1));
        assert_eq!(groups[2].0, Color(2));
        assert_eq!(groups[2].1, vec![(0, Color(2)), (2, Color(2))]);
    }

    #[test]
    fn gather_empty() {
        let groups = gather_colors(Vec::new());
        assert!(groups.is_empty());
    }

    #[test]
    fn gather_single_color() {
        let items: Vec<(u32, Color)> = (0..10).map(|i| (i, Color(7))).collect();
        let groups = gather_colors(items);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].1.len(), 10);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let pool = Pool::new(PoolConfig::nabbitc(4));
        const N: usize = 10_000;
        let counts = shared((0..N).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        pool.run(ColorSet::all(4), move |ctx| {
            let items: Vec<(u32, Color)> =
                (0..N as u32).map(|i| (i, Color((i % 4) as u16))).collect();
            spawn_and_process(
                ctx,
                items,
                move |_ctx: &mut WorkerContext<'_>, item: (u32, Color)| {
                    counts[item.0 as usize].fetch_add(1, Ordering::SeqCst);
                },
            );
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    #[test]
    fn preferred_color_processed_first_by_spawner() {
        // On a single worker nothing is ever stolen, so the worker's own
        // color must be fully processed before any other color — the
        // morphing-continuation guarantee.
        let pool = Pool::new(PoolConfig::nabbitc(1));
        let order: &Mutex<Vec<(u32, Color)>> = shared(Mutex::new(Vec::new()));
        pool.run(ColorSet::all(1), move |ctx| {
            // Worker 0 has color 0; give it items of colors 0..4.
            let items: Vec<(u32, Color)> = (0..16u32).map(|i| (i, Color((i % 4) as u16))).collect();
            spawn_and_process(
                ctx,
                items,
                move |_ctx: &mut WorkerContext<'_>, item: (u32, Color)| {
                    order.lock().push(item);
                },
            );
        });
        let order = order.lock();
        assert_eq!(order.len(), 16);
        let first_own: Vec<Color> = order.iter().take(4).map(|i| i.1).collect();
        assert!(
            first_own.iter().all(|&c| c == Color(0)),
            "worker 0 must process its own color first, got {first_own:?}"
        );
    }

    #[test]
    fn absent_color_does_not_stall() {
        // Worker color not present in the batch: items still processed.
        let pool = Pool::new(PoolConfig::nabbitc(1));
        let n = shared(AtomicUsize::new(0));
        pool.run(ColorSet::all(1), move |ctx| {
            let items: Vec<(u32, Color)> = (0..8u32).map(|i| (i, Color(5))).collect();
            spawn_and_process(ctx, items, move |_ctx: &mut WorkerContext<'_>, _| {
                n.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(n.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn large_multicolor_batch_under_contention() {
        let pool = Pool::new(PoolConfig::nabbitc(8));
        const N: usize = 50_000;
        let total = shared(AtomicUsize::new(0));
        pool.run(ColorSet::all(8), move |ctx| {
            let items: Vec<(u32, Color)> =
                (0..N as u32).map(|i| (i, Color((i % 8) as u16))).collect();
            spawn_and_process(ctx, items, move |_ctx: &mut WorkerContext<'_>, _| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), N);
    }
}
