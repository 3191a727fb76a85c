//! The §V-B locality rule, in colors.
//!
//! The evaluation machine in the paper is 8 NUMA domains × 10 cores. Worker
//! threads are pinned, one per core, and each worker gets a unique color
//! equal to its id. A *remote access* (§V-B) is an access to data whose
//! color belongs to no worker in the accessing worker's domain.
//!
//! The worker→domain mapping itself is [`nabbitc_cost::Topology`], the
//! workspace's one machine description; [`ColorDomains`] adds the
//! questions that take a [`Color`]. They live here rather than on the
//! type because `nabbitc-cost` does not know about colors. On the
//! container this library runs in, physical pinning is unavailable, but
//! the remote-access *metric* and the scheduling policies depend only on
//! the mapping, not on actual placement.

use nabbitc_color::Color;
use nabbitc_cost::Topology;

/// Color-typed queries on a [`Topology`] (color = initializing worker id).
pub trait ColorDomains {
    /// Domain that owns data colored `c`. Invalid colors and colors past
    /// the last core belong to no domain.
    fn domain_of_color(&self, c: Color) -> Option<usize>;

    /// Whether an access by `worker` to data colored `data_color` is remote
    /// (crosses NUMA domains). Accesses to invalid/unowned colors count as
    /// remote, matching the conservative reading of the paper's metric.
    fn is_remote(&self, worker: usize, data_color: Color) -> bool;

    /// The §V-B count of one node colored `node`, whose predecessors are
    /// colored `preds`, run by `worker`: the node's own data and each
    /// predecessor's output are one access each.
    fn count_node(
        &self,
        worker: usize,
        node: Color,
        preds: impl IntoIterator<Item = Color>,
    ) -> NodeCount {
        let mut count = NodeCount {
            remote: self.is_remote(worker, node),
            ..NodeCount::default()
        };
        for p in preds {
            count.preds += 1;
            count.preds_remote += u64::from(self.is_remote(worker, p));
        }
        count
    }
}

/// One node's §V-B count ([`ColorDomains::count_node`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCount {
    /// Whether the node itself ran outside its color's domain.
    pub remote: bool,
    /// Predecessors read.
    pub preds: u64,
    /// Of those, predecessors whose color is remote.
    pub preds_remote: u64,
}

impl ColorDomains for Topology {
    #[inline]
    fn domain_of_color(&self, c: Color) -> Option<usize> {
        (c.is_valid() && c.index() < self.cores()).then(|| self.domain_of(c.index()))
    }

    #[inline]
    fn is_remote(&self, worker: usize, data_color: Color) -> bool {
        self.domain_of_color(data_color) != Some(self.domain_of(worker))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_colors_are_contiguous() {
        let t = Topology::new(2, 3);
        let domains: Vec<_> = (0..6u16).map(|c| t.domain_of_color(Color(c))).collect();
        assert_eq!(
            domains,
            [Some(0), Some(0), Some(0), Some(1), Some(1), Some(1)]
        );
        assert_eq!(t.domain_of_color(Color(6)), None);
    }

    #[test]
    fn remote_detection() {
        let t = Topology::new(2, 2);
        assert!(!t.is_remote(0, Color(1))); // same domain
        assert!(t.is_remote(0, Color(2))); // other domain
        assert!(t.is_remote(3, Color(0)));
        assert!(!t.is_remote(3, Color(2)));
        assert!(t.is_remote(0, Color::INVALID));
        assert!(t.is_remote(0, Color(99))); // unowned color
    }

    #[test]
    fn uma_has_no_remote() {
        let t = Topology::uma(8);
        for w in 0..8 {
            for c in 0..8u16 {
                assert!(!t.is_remote(w, Color(c)));
            }
        }
    }

    #[test]
    fn color_queries_agree_with_the_worker_mapping() {
        for d in 1..=4 {
            for c in 1..=4 {
                let t = Topology::new(d, c);
                for w in 0..t.cores() {
                    for x in 0..t.cores() {
                        assert_eq!(t.is_remote(w, Color::from(x)), !t.same_domain(w, x));
                    }
                    assert!(t.is_remote(w, Color::INVALID));
                    assert!(t.is_remote(w, Color::from(t.cores())));
                    assert!(t.is_remote(w, Color::from(t.cores() + 7)));
                }
                for x in 0..t.cores() {
                    assert_eq!(t.domain_of_color(Color::from(x)), Some(t.domain_of(x)));
                }
            }
        }
    }
}
