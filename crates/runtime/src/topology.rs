//! The §V-B locality rule, in colors.
//!
//! The evaluation machine in the paper is 8 NUMA domains × 10 cores. Worker
//! threads are pinned, one per core, and each worker gets a unique color
//! equal to its id. A *remote access* (§V-B) is an access to data whose
//! color belongs to no worker in the accessing worker's domain.
//!
//! The worker→domain mapping itself is [`nabbitc_cost::Topology`], the
//! workspace's one machine description; [`ColorDomains`] adds the three
//! questions that take a [`Color`]. They live here rather than on the
//! type because `nabbitc-cost` does not know about colors. On the
//! container this library runs in, physical pinning is unavailable, but
//! the remote-access *metric* and the scheduling policies depend only on
//! the mapping, not on actual placement.

use nabbitc_color::{Color, ColorSet};
use nabbitc_cost::Topology;

/// Color-typed queries on a [`Topology`] (color = initializing worker id).
pub trait ColorDomains {
    /// Domain that owns data colored `c`. Invalid colors and colors past
    /// the last core belong to no domain.
    fn domain_of_color(&self, c: Color) -> Option<usize>;

    /// The set of colors owned by workers in `domain`. Used by the §V-B
    /// metric: an access is *local* if its color is in the accessing
    /// worker's domain color set. Panics if `domain` is out of range.
    fn domain_colors(&self, domain: usize) -> ColorSet;

    /// Whether an access by `worker` to data colored `data_color` is remote
    /// (crosses NUMA domains). Accesses to invalid/unowned colors count as
    /// remote, matching the conservative reading of the paper's metric.
    fn is_remote(&self, worker: usize, data_color: Color) -> bool;
}

impl ColorDomains for Topology {
    #[inline]
    fn domain_of_color(&self, c: Color) -> Option<usize> {
        (c.is_valid() && c.index() < self.cores()).then(|| self.domain_of(c.index()))
    }

    fn domain_colors(&self, domain: usize) -> ColorSet {
        assert!(domain < self.domains());
        let lo = domain * self.cores_per_domain();
        (lo..lo + self.cores_per_domain())
            .map(Color::from)
            .collect()
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
        let d0 = t.domain_colors(0);
        assert!(d0.contains(Color(0)) && d0.contains(Color(2)));
        assert!(!d0.contains(Color(3)));
        let d1 = t.domain_colors(1);
        assert!(d1.contains(Color(3)) && d1.contains(Color(5)));
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
                for k in 0..d {
                    let owned: ColorSet = (0..t.cores())
                        .filter(|&x| t.domain_of(x) == k)
                        .map(Color::from)
                        .collect();
                    assert_eq!(t.domain_colors(k), owned, "{d}x{c} domain {k}");
                }
            }
        }
    }
}
