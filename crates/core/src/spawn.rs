//! `gather_colors` + `spawn_colors` — morphing continuations (§III, Fig. 3).
//!
//! When Nabbit spawns a batch of nodes (predecessors during exploration,
//! successors during notification) it is oblivious to order. NabbitC
//! instead:
//!
//! 1. groups the batch by color (`gather_colors`, Fig. 4);
//! 2. recursively splits the color groups in half, *swapping* the halves so
//!    the spawning worker's own color lands in the half it processes
//!    immediately while the other half becomes a stealable task tagged with
//!    exactly its colors (`spawn_colors`, Fig. 3) — the morphing
//!    continuation;
//! 3. within a single color, splits recursively like a parallel-for
//!    (`spawn_nodes`), each stealable piece tagged with the singleton
//!    color.
//!
//! If the worker's color is absent, the batch is processed in its original
//! order — "a worker does not stall even if it can not find the work of its
//! color" (§III).
//!
//! The one item the splits leave to the spawning worker is returned, not
//! processed: the executors' loops take it as their next node, so a graph
//! that releases two nodes per step (a comb: a spine with a leaf at every
//! level) runs in constant stack depth instead of one frame per level. A
//! stolen half has no loop to return to and processes its item itself, at
//! the top of its own task.

use nabbitc_color::{Color, ColorSet};
use nabbitc_runtime::{SpawnBatch, WorkerContext};
use std::sync::Arc;

/// Work items routed through color-aware spawning.
pub trait ColoredItem: Send + 'static {
    /// The item's locality color.
    fn color(&self) -> Color;
}

impl ColoredItem for (u32, Color) {
    fn color(&self) -> Color {
        self.1
    }
}

/// Groups `items` by color, preserving encounter order within each group
/// and ordering groups by color — the paper's `gather_colors` (Fig. 4).
pub fn gather_colors<I: ColoredItem>(items: Vec<I>) -> Vec<(Color, Vec<I>)> {
    let mut groups: Vec<(Color, Vec<I>)> = Vec::new();
    for item in items {
        let c = item.color();
        match groups.binary_search_by_key(&c, |g| g.0) {
            Ok(i) => groups[i].1.push(item),
            Err(i) => groups.insert(i, (c, vec![item])),
        }
    }
    groups
}

/// Color-aware batch spawn: the paper's `spawn_colors` entry point.
///
/// Every item but one becomes stealable work: `process` is invoked exactly
/// once per such item, on whichever worker ends up owning it after the
/// color-guided splits and any steals. The remaining item — of the
/// worker's own color when the batch has one — is returned for the caller
/// to process next (`None` only for an empty batch).
#[must_use = "the returned item is the caller's to process"]
pub fn spawn_colors<I, F>(ctx: &mut WorkerContext<'_>, items: Vec<I>, process: Arc<F>) -> Option<I>
where
    I: ColoredItem,
    F: Fn(&mut WorkerContext<'_>, I) + Send + Sync + 'static,
{
    spawn_color_groups(ctx, gather_colors(items), &process)
}

fn colors_of<I: ColoredItem>(groups: &[(Color, Vec<I>)]) -> ColorSet {
    groups.iter().map(|g| g.0).collect()
}

/// Queues every group's stealable pieces and returns the one item left to
/// the calling worker.
fn spawn_color_groups<I, F>(
    ctx: &mut WorkerContext<'_>,
    mut groups: Vec<(Color, Vec<I>)>,
    process: &Arc<F>,
) -> Option<I>
where
    I: ColoredItem,
    F: Fn(&mut WorkerContext<'_>, I) + Send + Sync + 'static,
{
    // Every stealable piece this release creates — color-group halves and
    // same-color node halves alike — goes into one batch, published with
    // a single bottom store and Release fence instead of one per spawn.
    // The deque order is identical to spawning one at a time, so the
    // morphing-continuation guarantees are unchanged.
    let c_p = ctx.color();
    let mut batch = ctx.spawn_batch();
    let inline = loop {
        match groups.len() {
            0 => break None,
            1 => {
                let (color, nodes) = groups.pop().expect("len checked");
                break halve_into(&mut batch, color, nodes, process);
            }
            _ => {
                let mid = groups.len() / 2;
                let mut second: Vec<_> = groups.split_off(mid);
                let mut first = groups;
                // Morph: make sure the worker's own color is in the half
                // it will process immediately (the paper swaps when c_p
                // is in the second half; equivalently we swap it into
                // `first`).
                if second.iter().any(|g| g.0 == c_p) {
                    std::mem::swap(&mut first, &mut second);
                }
                // cilkrts_set_next_colors(second.keys()) + cilk_spawn:
                // the continuation carrying the non-preferred colors
                // becomes a stealable task tagged with exactly those
                // colors.
                let second_colors = colors_of(&second);
                let p2 = process.clone();
                batch.add(second_colors, move |ctx| {
                    if let Some(item) = spawn_color_groups(ctx, second, &p2) {
                        p2(ctx, item);
                    }
                });
                groups = first;
            }
        }
    };
    batch.publish();
    inline
}

/// Parallel-for over same-colored nodes: the paper's `spawn_nodes`.
fn spawn_nodes<I, F>(ctx: &mut WorkerContext<'_>, color: Color, nodes: Vec<I>, process: Arc<F>)
where
    I: ColoredItem,
    F: Fn(&mut WorkerContext<'_>, I) + Send + Sync + 'static,
{
    let mut batch = ctx.spawn_batch();
    let inline = halve_into(&mut batch, color, nodes, &process);
    batch.publish();
    if let Some(item) = inline {
        process(ctx, item);
    }
}

/// Queues the stealable halves of `nodes` (each tagged with the singleton
/// color) and returns the one item the caller processes inline.
fn halve_into<I, F>(
    batch: &mut SpawnBatch<'_, '_>,
    color: Color,
    mut nodes: Vec<I>,
    process: &Arc<F>,
) -> Option<I>
where
    I: ColoredItem,
    F: Fn(&mut WorkerContext<'_>, I) + Send + Sync + 'static,
{
    loop {
        match nodes.len() {
            0 => return None,
            1 => return Some(nodes.pop().expect("len checked")),
            _ => {
                let mid = nodes.len() / 2;
                let second = nodes.split_off(mid);
                let p2 = process.clone();
                let cs = ColorSet::singleton(color);
                batch.add(cs, move |ctx| {
                    spawn_nodes(ctx, color, second, p2);
                });
                // Iterative recursion into the first half.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_runtime::{Pool, PoolConfig};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `spawn_colors`, then the item it leaves to the caller — what the
    /// executors' loops do with it.
    fn spawn_and_process<I, F>(ctx: &mut WorkerContext<'_>, items: Vec<I>, process: F)
    where
        I: ColoredItem,
        F: Fn(&mut WorkerContext<'_>, I) + Send + Sync + 'static,
    {
        let process = Arc::new(process);
        if let Some(item) = spawn_colors(ctx, items, process.clone()) {
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
        let groups = gather_colors(Vec::<(u32, Color)>::new());
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
        let counts: Arc<Vec<AtomicUsize>> = Arc::new((0..N).map(|_| AtomicUsize::new(0)).collect());
        let c2 = counts.clone();
        pool.run(ColorSet::all(4), move |ctx| {
            let items: Vec<(u32, Color)> =
                (0..N as u32).map(|i| (i, Color((i % 4) as u16))).collect();
            let c3 = c2.clone();
            spawn_and_process(
                ctx,
                items,
                move |_ctx: &mut WorkerContext<'_>, item: (u32, Color)| {
                    c3[item.0 as usize].fetch_add(1, Ordering::SeqCst);
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
        let order: Arc<Mutex<Vec<(u32, Color)>>> = Arc::new(Mutex::new(Vec::new()));
        let o2 = order.clone();
        pool.run(ColorSet::all(1), move |ctx| {
            // Worker 0 has color 0; give it items of colors 0..4.
            let items: Vec<(u32, Color)> = (0..16u32).map(|i| (i, Color((i % 4) as u16))).collect();
            let o3 = o2.clone();
            spawn_and_process(
                ctx,
                items,
                move |_ctx: &mut WorkerContext<'_>, item: (u32, Color)| {
                    o3.lock().push(item);
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
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = n.clone();
        pool.run(ColorSet::all(1), move |ctx| {
            let items: Vec<(u32, Color)> = (0..8u32).map(|i| (i, Color(5))).collect();
            let n3 = n2.clone();
            spawn_and_process(ctx, items, move |_ctx: &mut WorkerContext<'_>, _| {
                n3.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(n.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn large_multicolor_batch_under_contention() {
        let pool = Pool::new(PoolConfig::nabbitc(8));
        const N: usize = 50_000;
        let total = Arc::new(AtomicUsize::new(0));
        let t2 = total.clone();
        pool.run(ColorSet::all(8), move |ctx| {
            let items: Vec<(u32, Color)> =
                (0..N as u32).map(|i| (i, Color((i % 8) as u16))).collect();
            let t3 = t2.clone();
            spawn_and_process(ctx, items, move |_ctx: &mut WorkerContext<'_>, _| {
                t3.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), N);
    }
}
