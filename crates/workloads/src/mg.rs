//! Multigrid V-cycle (Table I: `mg`).
//!
//! A 1-D geometric multigrid V-cycle for `-u'' = f`: weighted-Jacobi
//! smoothing on the way down, full-weighting restriction of the residual,
//! a coarse solve, then prolongation + smoothing on the way up. Each phase
//! is block-parallel; blocks halve with the grid at each level, so the top
//! levels are wide and the bottom levels nearly serial — the shape that
//! makes MG interesting for dynamic schedulers.
//!
//! The plan (sequence of phases with per-level block counts) is shared by
//! the graph builder and the runnable problem, so both execute the same
//! computation.

use crate::runner::GraphRunner;
use crate::util::{block_owner, block_range, SharedBuffer};
use nabbitc_color::Color;
use nabbitc_core::metrics::RemoteAccessReport;
use nabbitc_graph::{GraphBuilder, NodeAccess, NodeId, TaskGraph};
use std::sync::Arc;

/// One multigrid phase kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MgPhase {
    /// Jacobi sweep at `level`: `tmp = smooth(u, f)`.
    Smooth(usize),
    /// Copy `tmp` back into `u` at `level`.
    CopyBack(usize),
    /// Residual + restrict from `level` to `level+1` (also zeroes the
    /// coarse `u`).
    Restrict(usize),
    /// Prolong the correction from `level+1` into `u` at `level`.
    Prolong(usize),
}

/// The phase plan of one V-cycle.
#[derive(Clone, Debug)]
pub struct MgPlan {
    /// Grid points at level 0.
    pub n0: usize,
    /// Levels.
    pub levels: usize,
    /// Blocks at level 0 (halved per level, min 1).
    pub blocks0: usize,
    /// Phases in execution order with their block counts.
    pub phases: Vec<(MgPhase, usize)>,
}

/// Builds the plan for a V-cycle.
pub fn plan(n0: usize, levels: usize, blocks0: usize) -> MgPlan {
    // Odd-grid convention: n0 = 2^m - 1 interior points, so every coarse
    // point (fine index 2j+1) aligns with the Dirichlet boundaries at
    // virtual indices -1 and n.
    assert!((n0 + 1).is_power_of_two(), "n0 must be 2^m - 1");
    assert!(
        levels >= 1 && (n0 + 1) >> (levels - 1) >= 8,
        "grid too coarse"
    );
    let blocks = |l: usize| (blocks0 >> l).max(1);
    let mut phases = Vec::new();
    for l in 0..levels - 1 {
        phases.push((MgPhase::Smooth(l), blocks(l)));
        phases.push((MgPhase::CopyBack(l), blocks(l)));
        phases.push((MgPhase::Restrict(l), blocks(l + 1)));
    }
    // Coarse solve: enough smooth sweeps to resolve the coarsest grid
    // (the coarsest level is tiny, so this is cheap).
    let coarse_sweeps = (2 * ((n0 + 1) >> (levels - 1))).clamp(8, 64);
    for _ in 0..coarse_sweeps {
        phases.push((MgPhase::Smooth(levels - 1), blocks(levels - 1)));
        phases.push((MgPhase::CopyBack(levels - 1), blocks(levels - 1)));
    }
    for l in (0..levels - 1).rev() {
        phases.push((MgPhase::Prolong(l), blocks(l)));
        phases.push((MgPhase::Smooth(l), blocks(l)));
        phases.push((MgPhase::CopyBack(l), blocks(l)));
    }
    MgPlan {
        n0,
        levels,
        blocks0,
        phases,
    }
}

impl MgPlan {
    /// Grid points at `level` (odd-grid convention: `(n0+1)/2^l - 1`).
    pub fn n_at(&self, level: usize) -> usize {
        ((self.n0 + 1) >> level) - 1
    }

    /// Total task-graph nodes.
    pub fn nodes(&self) -> usize {
        self.phases.iter().map(|&(_, b)| b).sum()
    }

    fn level_of(&self, phase: MgPhase) -> usize {
        match phase {
            MgPhase::Smooth(l)
            | MgPhase::CopyBack(l)
            | MgPhase::Restrict(l)
            | MgPhase::Prolong(l) => l,
        }
    }

    /// Work and bytes of one block of `phase`.
    fn block_cost(&self, phase: MgPhase, blocks: usize) -> (u64, u64) {
        let l = self.level_of(phase);
        let pts = (self.n_at(l) / blocks).max(1) as u64;
        match phase {
            MgPhase::Smooth(_) => (4 * pts, 24 * pts),
            MgPhase::CopyBack(_) => (pts, 16 * pts),
            MgPhase::Restrict(_) => (6 * pts, 32 * pts),
            MgPhase::Prolong(_) => (3 * pts, 24 * pts),
        }
    }
}

/// Paper-scaled plan: ~16 384 nodes over 11 levels (Table I).
pub fn shape(_scale_div: usize) -> MgPlan {
    // blocks0 = 4096, halving: down Σ ≈ 3*(4096+...+8)+..., tuned to land
    // near 16 384 nodes with 11 levels.
    plan((1 << 20) - 1, 11, 1536)
}

/// Task graph for `p` workers. Consecutive phases are linked
/// conservatively: block `b` of phase `k` depends on blocks `b'` of phase
/// `k-1` whose index ranges overlap `b`'s halo (after scaling between the
/// two phases' block counts).
pub fn graph_from_plan(plan: &MgPlan, p: usize) -> TaskGraph {
    let mut gb = GraphBuilder::with_capacity(plan.nodes(), plan.nodes() * 4);
    let mut first_of_phase = Vec::with_capacity(plan.phases.len());
    for &(ph, blocks) in &plan.phases {
        first_of_phase.push(gb.node_count() as NodeId);
        let (work, bytes) = plan.block_cost(ph, blocks);
        for b in 0..blocks {
            let own = Color::from(block_owner(b, blocks, p));
            let halo = |q: usize| NodeAccess {
                owner: Color::from(block_owner(q, blocks, p)),
                bytes: 32,
            };
            let left = b.checked_sub(1).map(halo);
            let right = (b + 1 < blocks).then(|| halo(b + 1));
            let acc = [Some(NodeAccess { owner: own, bytes }), left, right];
            gb.add_node(work, own, acc.into_iter().flatten());
        }
    }
    for k in 1..plan.phases.len() {
        let (_, nb) = plan.phases[k];
        let (_, pb) = plan.phases[k - 1];
        for b in 0..nb {
            // Map b's halo onto the previous phase's block space.
            let lo = (b.saturating_sub(1) * pb) / nb;
            let hi = (((b + 2) * pb).div_ceil(nb)).min(pb).max(lo + 1);
            for q in lo..hi {
                gb.add_edge(
                    first_of_phase[k - 1] + q as NodeId,
                    first_of_phase[k] + b as NodeId,
                );
            }
        }
    }
    gb.build().expect("mg graph is acyclic")
}

/// Task graph at a scale divisor.
pub fn graph(scale_div: usize, p: usize) -> TaskGraph {
    graph_from_plan(&shape(scale_div), p)
}

/// A real, runnable V-cycle for `-u'' = f` with homogeneous Dirichlet
/// boundaries (grid spacing 1).
pub struct MgProblem {
    /// The plan.
    pub plan: MgPlan,
}

/// Per-level state.
struct Levels {
    u: Vec<Arc<SharedBuffer<f64>>>,
    f: Vec<Arc<SharedBuffer<f64>>>,
    tmp: Vec<Arc<SharedBuffer<f64>>>,
}

impl MgProblem {
    /// Small instance for tests/examples.
    pub fn small() -> Self {
        MgProblem {
            plan: plan(1023, 8, 32),
        }
    }

    fn init_f(&self) -> Vec<f64> {
        let n = self.plan.n0;
        (0..n)
            .map(|i| (std::f64::consts::PI * 3.0 * i as f64 / n as f64).sin())
            .collect()
    }

    /// Applies one phase serially over one block (shared by the serial
    /// reference and the task-graph kernels, so they match exactly).
    ///
    /// # Safety
    /// Caller must guarantee phase ordering and block-disjoint writes (the
    /// serial path trivially does; the parallel path relies on the graph).
    unsafe fn apply_block(plan: &MgPlan, lv: &Levels, phase: MgPhase, blocks: usize, b: usize) {
        match phase {
            MgPhase::Smooth(l) => {
                let n = plan.n_at(l);
                let rg = block_range(n, blocks, b);
                let (u, f, tmp) = (&lv.u[l], &lv.f[l], &lv.tmp[l]);
                for i in rg {
                    let left = if i > 0 { u.read(i - 1) } else { 0.0 };
                    let right = if i + 1 < n { u.read(i + 1) } else { 0.0 };
                    // Weighted Jacobi (ω = 2/3) for -u'' = f, h = 1.
                    let jac = 0.5 * (left + right + f.read(i));
                    tmp.write(i, u.read(i) + (2.0 / 3.0) * (jac - u.read(i)));
                }
            }
            MgPhase::CopyBack(l) => {
                let n = plan.n_at(l);
                let rg = block_range(n, blocks, b);
                for i in rg {
                    lv.u[l].write(i, lv.tmp[l].read(i));
                }
            }
            MgPhase::Restrict(l) => {
                let nf = plan.n_at(l);
                let nc = plan.n_at(l + 1);
                let rg = block_range(nc, blocks, b);
                let (u, f) = (&lv.u[l], &lv.f[l]);
                for j in rg {
                    // Coarse point j sits at fine index 2j+1.
                    let i = 2 * j + 1;
                    let res = |i: usize| -> f64 {
                        debug_assert!(i < nf);
                        let left = if i > 0 { u.read(i - 1) } else { 0.0 };
                        let right = if i + 1 < nf { u.read(i + 1) } else { 0.0 };
                        f.read(i) - (2.0 * u.read(i) - left - right)
                    };
                    let v = 0.25 * res(i - 1) + 0.5 * res(i) + 0.25 * res(i + 1);
                    // Same unit stencil is reused at every level, so the
                    // doubled spacing enters as h_c^2 = 4 on the RHS.
                    lv.f[l + 1].write(j, 4.0 * v);
                    lv.u[l + 1].write(j, 0.0);
                }
            }
            MgPhase::Prolong(l) => {
                let nf = plan.n_at(l);
                let nc = plan.n_at(l + 1);
                let rg = block_range(nf, blocks, b);
                let (uf, uc) = (&lv.u[l], &lv.u[l + 1]);
                for i in rg {
                    let corr = if i % 2 == 1 {
                        // Fine odd points coincide with coarse points.
                        uc.read((i - 1) / 2)
                    } else {
                        let a = if i / 2 >= 1 { uc.read(i / 2 - 1) } else { 0.0 };
                        let bb = if i / 2 < nc { uc.read(i / 2) } else { 0.0 };
                        0.5 * (a + bb)
                    };
                    uf.write(i, uf.read(i) + corr);
                }
            }
        }
    }

    fn levels(&self) -> Levels {
        let mk = |l: usize| Arc::new(SharedBuffer::new(self.plan.n_at(l), 0.0f64));
        Levels {
            u: (0..self.plan.levels).map(mk).collect(),
            f: (0..self.plan.levels)
                .map(|l| {
                    if l == 0 {
                        Arc::new(SharedBuffer::from_vec(self.init_f()))
                    } else {
                        mk(l)
                    }
                })
                .collect(),
            tmp: (0..self.plan.levels).map(mk).collect(),
        }
    }

    fn extract_u0(lv: Levels, n0: usize) -> Vec<f64> {
        // SAFETY: called after the run completes, with the levels moved in
        // by value — no tasks hold references anymore.
        (0..n0).map(|i| unsafe { lv.u[0].read(i) }).collect()
    }

    /// Serial reference: runs the plan phase by phase; returns `u` at
    /// level 0.
    pub fn run_serial(&self) -> Vec<f64> {
        let lv = self.levels();
        for &(ph, blocks) in &self.plan.phases {
            for b in 0..blocks {
                // SAFETY: strictly sequential.
                unsafe { Self::apply_block(&self.plan, &lv, ph, blocks, b) };
            }
        }
        Self::extract_u0(lv, self.plan.n0)
    }

    /// Runs the task graph under `runner`; returns `u` at level 0 and the
    /// run's §V-B count.
    pub fn run_taskgraph(&self, runner: &impl GraphRunner) -> (Vec<f64>, RemoteAccessReport) {
        let p = runner.workers();
        let graph = Arc::new(graph_from_plan(&self.plan, p));
        let lv = Arc::new(self.levels());
        let plan = Arc::new(self.plan.clone());

        // node id -> (phase index, block) decode table.
        let mut decode = Vec::with_capacity(graph.node_count());
        for (k, &(_, blocks)) in plan.phases.iter().enumerate() {
            for b in 0..blocks {
                decode.push((k, b));
            }
        }
        let decode = Arc::new(decode);

        let (lv2, plan2, dec2) = (lv.clone(), plan.clone(), decode.clone());
        let remote = runner.run(
            &graph,
            Arc::new(move |u: NodeId, _w: usize| {
                let (k, b) = dec2[u as usize];
                let (ph, blocks) = plan2.phases[k];
                // SAFETY: conservative inter-phase edges order every halo
                // read after its writers; writes are block-disjoint within
                // a phase.
                unsafe { MgProblem::apply_block(&plan2, &lv2, ph, blocks, b) };
            }),
        );

        let lv = Arc::try_unwrap(lv).unwrap_or_else(|_| panic!("levels still shared"));
        (Self::extract_u0(lv, self.plan.n0), remote)
    }

    /// Residual norm ‖f + u'' ‖₂ at level 0 (boundary-aware).
    pub fn residual_norm(&self, u: &[f64]) -> f64 {
        let n = self.plan.n0;
        let f = self.init_f();
        (0..n)
            .map(|i| {
                let left = if i > 0 { u[i - 1] } else { 0.0 };
                let right = if i + 1 < n { u[i + 1] } else { 0.0 };
                let r = f[i] - (2.0 * u[i] - left - right);
                r * r
            })
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_core::StaticExecutor;
    use nabbitc_runtime::{Pool, PoolConfig};

    #[test]
    fn node_count_near_table1() {
        let n = shape(1).nodes();
        assert!(
            (15_000..=18_500).contains(&n),
            "mg nodes {n} should be near Table I's 16 384"
        );
    }

    #[test]
    fn vcycle_reduces_residual() {
        let p = MgProblem::small();
        let u = p.run_serial();
        let r0 = p.residual_norm(&vec![0.0; p.plan.n0]);
        let r1 = p.residual_norm(&u);
        assert!(
            r1 < r0 * 0.6,
            "V-cycle should reduce residual: {r1} vs {r0}"
        );
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let p = MgProblem::small();
        let serial = p.run_serial();
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(6)));
        let exec = StaticExecutor::new(pool);
        let (par, _) = p.run_taskgraph(&exec);
        for i in 0..p.plan.n0 {
            assert!(
                (serial[i] - par[i]).abs() < 1e-12,
                "u[{i}]: {} vs {}",
                serial[i],
                par[i]
            );
        }
    }

    #[test]
    fn plan_is_a_v() {
        let pl = plan(1023, 4, 16);
        // Starts at level 0, dips to 3, returns to 0.
        let levels: Vec<usize> = pl.phases.iter().map(|&(ph, _)| pl.level_of(ph)).collect();
        assert_eq!(*levels.first().unwrap(), 0);
        assert_eq!(*levels.last().unwrap(), 0);
        assert_eq!(*levels.iter().max().unwrap(), 3);
    }

    #[test]
    fn graph_has_no_cycles_and_right_size() {
        let pl = plan(1023, 8, 32);
        let g = graph_from_plan(&pl, 8);
        assert_eq!(g.node_count(), pl.nodes());
        assert!(g.edge_count() > 0);
    }
}
