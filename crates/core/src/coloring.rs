//! Coloring strategies — correct, bad (Table II), and invalid (Table III).
//!
//! The paper's coloring contract (§III, *Optimizing locality through
//! coloring*): data is distributed so each worker initializes a unique
//! region; a node is colored by the worker owning the largest fraction of
//! the data it touches ("majority coloring"). Two adversarial variants
//! probe the cost of getting this wrong:
//!
//! * **Bad** (Table II): every node gets a *valid but incorrect* color, so
//!   workers preferentially execute non-local tasks. We rotate colors by
//!   one full NUMA domain, which maximizes wrongness (a node's bad color is
//!   never in its true domain when there is more than one domain).
//! * **Invalid** (Table III): every node gets a color no worker has, so
//!   every colored steal attempt fails — NabbitC degenerates to Nabbit plus
//!   the colored-steal overhead.

use nabbitc_color::Color;
use nabbitc_cost::Topology;
use nabbitc_graph::TaskGraph;

/// How node colors relate to data placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColoringMode {
    /// The user's correct majority coloring (leave the graph as built).
    Correct,
    /// Valid but wrong: rotate every color by one NUMA domain (Table II).
    Bad,
    /// A color no worker has: all colored steals fail (Table III).
    Invalid,
}

impl ColoringMode {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ColoringMode::Correct => "correct",
            ColoringMode::Bad => "bad",
            ColoringMode::Invalid => "invalid",
        }
    }
}

/// Maps a correct color to its variant under `mode` for a machine with
/// `workers` workers on `topology`.
pub fn map_color(mode: ColoringMode, c: Color, topology: &Topology, workers: usize) -> Color {
    match mode {
        ColoringMode::Correct => c,
        ColoringMode::Bad => {
            if !c.is_valid() || workers == 0 {
                return c;
            }
            // Rotate by one domain's worth of cores: lands in the adjacent
            // domain (mod machine), so the preferred location is always
            // wrong on multi-domain machines.
            let shift = topology.cores_per_domain();
            Color::from((c.0 as usize + shift) % workers)
        }
        ColoringMode::Invalid => Color::INVALID,
    }
}

/// Applies `mode` to every node of `graph` in place.
///
/// Note this changes only the *scheduling hint*; the node's true data
/// placement (its access list) is untouched — exactly the paper's setup,
/// where the data stays put and only the hints lie.
pub fn apply_coloring(
    graph: &mut TaskGraph,
    mode: ColoringMode,
    topology: &Topology,
    workers: usize,
) {
    if mode == ColoringMode::Correct {
        return;
    }
    graph.recolor(|_, c| map_color(mode, c, topology, workers));
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_graph::generate;
    use nabbitc_runtime::ColorDomains;

    #[test]
    fn correct_is_identity() {
        let t = Topology::new(2, 2);
        assert_eq!(map_color(ColoringMode::Correct, Color(3), &t, 4), Color(3));
    }

    #[test]
    fn bad_moves_to_other_domain() {
        let t = Topology::new(2, 2); // domains {0,1},{2,3}
        for c in 0..4u16 {
            let bad = map_color(ColoringMode::Bad, Color(c), &t, 4);
            assert!(bad.is_valid());
            assert_ne!(
                t.domain_of_color(bad),
                t.domain_of_color(Color(c)),
                "bad color must land in a different domain"
            );
        }
    }

    #[test]
    fn bad_is_identity_on_single_domain() {
        // With one domain the rotation stays in the same (only) domain —
        // locality-neutral, as the paper's 1-10 core runs are.
        let t = Topology::uma(4);
        let bad = map_color(ColoringMode::Bad, Color(1), &t, 4);
        assert_eq!(t.domain_of_color(bad), Some(0));
    }

    #[test]
    fn invalid_is_invalid() {
        let t = Topology::new(2, 2);
        assert_eq!(
            map_color(ColoringMode::Invalid, Color(0), &t, 4),
            Color::INVALID
        );
    }

    #[test]
    fn apply_recolors_all_nodes() {
        let t = Topology::new(2, 2);
        let mut g = generate::independent(16, 1, 4);
        apply_coloring(&mut g, ColoringMode::Invalid, &t, 4);
        assert!(g.nodes().all(|u| g.color(u) == Color::INVALID));
    }

    #[test]
    fn bad_preserves_validity() {
        let t = Topology::paper_machine();
        let mut g = generate::independent(160, 1, 80);
        apply_coloring(&mut g, ColoringMode::Bad, &t, 80);
        assert!(g.nodes().all(|u| g.color(u).is_valid()));
        assert!(g.nodes().all(|u| (g.color(u).0 as usize) < 80));
    }
}
