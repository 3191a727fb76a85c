//! The morphing continuation's split (§III, Fig. 3), as a plain type that
//! the executors (`nabbitc_core::spawn`) and the simulator
//! (`numasim::wsim`) both drive.
//!
//! A release is grouped by color ([`Batch::gather`], the paper's
//! `gather_colors`, Fig. 4). [`Batch::split`] then halves the groups,
//! swapping the halves so that the splitting worker keeps its own color
//! whenever the batch holds it, and halves one color's nodes like a
//! parallel-for. Every half the worker does not keep is handed out as
//! stealable work, tagged with exactly its [`colors`](Batch::colors); the
//! one item left is the worker's to run next. If the worker's color is
//! absent the batch is split in its own order — "a worker does not stall
//! even if it can not find the work of its color" (§III).
//!
//! Spawning, timing and what a stolen half becomes are the driver's; a
//! half splits again, the same way, on whichever worker takes it.

use nabbitc_color::{Color, ColorSet};

/// A release of work items on its way down Fig. 3's recursion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Batch<T> {
    /// Color groups still to split, ordered by color, each group's items
    /// in encounter order.
    Groups(Vec<(Color, Vec<T>)>),
    /// One color's items, split like a parallel-for.
    Nodes(Color, Vec<T>),
    /// One item: a half of a two-item split, pushed without a `Vec`.
    One(Color, T),
}

impl<T> Batch<T> {
    /// Groups `items` by `color_of`: groups ordered by color, each in
    /// encounter order — the paper's `gather_colors` (Fig. 4).
    pub fn gather(items: impl IntoIterator<Item = T>, color_of: impl Fn(&T) -> Color) -> Self {
        let mut groups: Vec<(Color, Vec<T>)> = Vec::new();
        for item in items {
            let c = color_of(&item);
            match groups.binary_search_by_key(&c, |g| g.0) {
                Ok(i) => groups[i].1.push(item),
                Err(i) => groups.insert(i, (c, vec![item])),
            }
        }
        Batch::Groups(groups)
    }

    /// The colors of the batch's items: a stealable half's tag.
    pub fn colors(&self) -> ColorSet {
        match self {
            Batch::Groups(groups) => groups.iter().map(|g| g.0).collect(),
            Batch::Nodes(c, _) | Batch::One(c, _) => ColorSet::singleton(*c),
        }
    }

    /// Splits the batch down to one item for a worker of color `mine`.
    /// Every half it does not keep goes to `push`, in the order a deque
    /// takes them (the continuation first, so thieves reach it first);
    /// the item it keeps — of color `mine` whenever the batch holds one —
    /// is returned, `None` only for an empty batch.
    ///
    /// Two groups split into two [`Nodes`](Batch::Nodes) halves and two
    /// items into two [`One`](Batch::One)s, with no `Vec` allocated for
    /// the halves; the halves, their order and their items are those of
    /// halving the `Vec`s.
    pub fn split(self, mine: Color, mut push: impl FnMut(Batch<T>)) -> Option<T> {
        let mut batch = self;
        loop {
            batch = match batch {
                Batch::Groups(mut groups) if groups.len() == 2 => {
                    let (mut keep, mut give) = (groups.swap_remove(0), groups.swap_remove(0));
                    if give.0 == mine {
                        std::mem::swap(&mut keep, &mut give);
                    }
                    push(Batch::Nodes(give.0, give.1));
                    Batch::Nodes(keep.0, keep.1)
                }
                Batch::Groups(mut groups) if groups.len() > 1 => {
                    let mut second = groups.split_off(groups.len() / 2);
                    // Morph: the worker keeps the half holding its color
                    // (the paper swaps the halves when it is in the second).
                    if second.iter().any(|g| g.0 == mine) {
                        std::mem::swap(&mut groups, &mut second);
                    }
                    push(Batch::Groups(second));
                    Batch::Groups(groups)
                }
                Batch::Groups(mut groups) => {
                    let (color, nodes) = groups.pop()?;
                    Batch::Nodes(color, nodes)
                }
                Batch::Nodes(color, mut nodes) if nodes.len() == 2 => {
                    let second = nodes.pop().expect("two items");
                    push(Batch::One(color, second));
                    Batch::One(color, nodes.pop().expect("two items"))
                }
                Batch::Nodes(color, mut nodes) if nodes.len() > 1 => {
                    let second = nodes.split_off(nodes.len() / 2);
                    push(Batch::Nodes(color, second));
                    Batch::Nodes(color, nodes)
                }
                Batch::Nodes(_, mut nodes) => return nodes.pop(),
                Batch::One(_, item) => return Some(item),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Splits `batch` on a worker of color `mine`, checks the item it
    /// keeps and every pushed half's tag, and splits each half again on a
    /// thief of another color, as stealing would; appends every kept item
    /// to `kept`, this split's first.
    fn drain(batch: Batch<(u32, Color)>, mine: Color, kept: &mut Vec<(u32, Color)>) {
        let held = batch.colors();
        let mut halves = Vec::new();
        let item = batch.split(mine, |half| halves.push(half));
        if held.contains(mine) {
            assert_eq!(item.map(|i| i.1), Some(mine), "the worker keeps its color");
        }
        kept.extend(item);
        for (k, half) in halves.into_iter().enumerate() {
            let items: ColorSet = match &half {
                Batch::Groups(groups) => groups.iter().flat_map(|g| &g.1).map(|i| i.1).collect(),
                Batch::Nodes(_, nodes) => nodes.iter().map(|i| i.1).collect(),
                Batch::One(_, item) => ColorSet::singleton(item.1),
            };
            assert!(!items.is_empty(), "no empty half is pushed");
            assert_eq!(
                half.colors(),
                items,
                "a half is tagged with its items' colors"
            );
            drain(half, Color((mine.0 + 1 + k as u16) % 8), kept);
        }
    }

    #[test]
    fn groups_halve_before_nodes_and_the_continuation_goes_first() {
        let items: Vec<(u32, Color)> = (0..4).map(|i| (i, Color((i % 2) as u16))).collect();
        let mut pushed = Vec::new();
        let kept = Batch::gather(items, |i| i.1).split(Color(1), |h| pushed.push(h));
        assert_eq!(kept, Some((1, Color(1))));
        assert_eq!(
            pushed,
            [
                Batch::Nodes(Color(0), vec![(0, Color(0)), (2, Color(0))]),
                Batch::One(Color(1), (3, Color(1))),
            ]
        );
    }

    #[test]
    fn three_groups_halve_as_groups_and_odd_nodes_as_nodes() {
        let items: Vec<(u32, Color)> = (0..9).map(|i| (i, Color((i % 3) as u16))).collect();
        let mut pushed = Vec::new();
        let kept = Batch::gather(items, |i| i.1).split(Color(0), |h| pushed.push(h));
        assert_eq!(kept, Some((0, Color(0))));
        assert_eq!(
            pushed,
            [
                Batch::Groups(vec![
                    (Color(1), vec![(1, Color(1)), (4, Color(1)), (7, Color(1))]),
                    (Color(2), vec![(2, Color(2)), (5, Color(2)), (8, Color(2))]),
                ]),
                Batch::Nodes(Color(0), vec![(3, Color(0)), (6, Color(0))]),
            ]
        );
        // A pushed pair splits into a one-item half and the item kept.
        let mut again = Vec::new();
        let last = pushed.pop().expect("two halves");
        assert_eq!(last.split(Color(5), |h| again.push(h)), Some((3, Color(0))));
        assert_eq!(again, [Batch::One(Color(0), (6, Color(0)))]);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn every_item_is_kept_once_and_each_worker_keeps_its_color(
            colors in vec(0u16..6, 0..120),
            mine in 0u16..8,
        ) {
            let items: Vec<(u32, Color)> =
                colors.iter().enumerate().map(|(i, &c)| (i as u32, Color(c))).collect();
            let mut kept = Vec::new();
            drain(Batch::gather(items.clone(), |i| i.1), Color(mine), &mut kept);
            kept.sort_unstable();
            prop_assert_eq!(kept, items);
        }
    }
}
