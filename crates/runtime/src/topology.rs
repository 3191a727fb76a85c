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
//!
//! [`ColorDomains::count_node`] counts one node; [`RemoteAccessReport`]
//! sums those counts, in the one vocabulary every clock reports.

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

/// §V-B counts summed over a run, or over any set of nodes: each node's
/// own data and each predecessor read are one access. The threaded
/// executors, the OpenMP team and both simulators all report this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RemoteAccessReport {
    /// Nodes executed.
    pub node_total: u64,
    /// Nodes executed outside their color's domain — the component the
    /// scheduler controls (predecessor remoteness is fixed by the graph's
    /// coloring).
    pub node_remote: u64,
    /// Predecessor accesses checked.
    pub pred_total: u64,
    /// Predecessor accesses crossing domains.
    pub pred_remote: u64,
}

impl RemoteAccessReport {
    /// Adds one node's count ([`ColorDomains::count_node`]).
    pub fn add(&mut self, count: NodeCount) {
        self.node_total += 1;
        self.node_remote += u64::from(count.remote);
        self.pred_total += count.preds;
        self.pred_remote += count.preds_remote;
    }

    /// Total accesses considered.
    pub fn total(&self) -> u64 {
        self.node_total + self.pred_total
    }

    /// Remote accesses.
    pub fn remote(&self) -> u64 {
        self.node_remote + self.pred_remote
    }

    /// Percentage of accesses that were remote — the Figure 7 y-axis.
    pub fn pct_remote(&self) -> f64 {
        pct(self.remote(), self.total())
    }

    /// Percentage of node executions run outside their color's domain.
    pub fn pct_nodes(&self) -> f64 {
        pct(self.node_remote, self.node_total)
    }
}

impl std::ops::AddAssign for RemoteAccessReport {
    fn add_assign(&mut self, other: Self) {
        self.node_total += other.node_total;
        self.node_remote += other.node_remote;
        self.pred_total += other.pred_total;
        self.pred_remote += other.pred_remote;
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
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
    fn report_sums_node_counts() {
        let t = Topology::new(2, 2);
        let mut a = RemoteAccessReport::default();
        a.add(t.count_node(0, Color(1), [Color(2), Color(3)]));
        let mut b = RemoteAccessReport::default();
        b.add(t.count_node(3, Color(0), [Color(2)]));
        a += b;
        assert_eq!((a.node_total, a.node_remote), (2, 1));
        assert_eq!((a.pred_total, a.pred_remote), (3, 2));
        assert_eq!((a.total(), a.remote()), (5, 3));
        assert!((a.pct_remote() - 60.0).abs() < 1e-12);
        assert_eq!(a.pct_nodes(), 50.0);
        assert_eq!(RemoteAccessReport::default().pct_nodes(), 0.0);
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
