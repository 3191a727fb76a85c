//! Threaded OpenMP-style baselines of the runnable workloads.
//!
//! The paper compares NabbitC against real OpenMP programs; the simulator
//! covers the figures, and these functions cover *real execution*: the
//! same kernels as the task-graph runners, expressed as barrier-separated
//! [`Team::parallel_for`] loops under a chosen [`Schedule`]. Each returns
//! the same result as the corresponding serial reference, which the tests
//! assert — so all three execution styles (serial, task graph, loop team)
//! are interchangeable on results and comparable on locality metrics.

use crate::heat::HeatProblem;
use crate::life::LifeProblem;
use crate::pagerank::PageRank;
use crate::util::{block_owner, block_range, SharedBuffer};
use nabbitc_color::Color;
use nabbitc_core::metrics::RemoteAccessReport;
use nabbitc_parfor::{Schedule, Team};

/// Result of a counted OpenMP-style run.
pub struct OmpRunReport<T> {
    /// The computed result (grid / board / ranks).
    pub result: T,
    /// Accumulated remote-access accounting across all loops.
    pub remote: RemoteAccessReport,
}

fn merge(total: &mut RemoteAccessReport, part: RemoteAccessReport) {
    total.node_total += part.node_total;
    total.node_remote += part.node_remote;
    total.pred_total += part.pred_total;
    total.pred_remote += part.pred_remote;
}

/// Heat diffusion as `steps` parallel loops over row blocks.
pub fn heat_parfor(p: &HeatProblem, team: &Team, schedule: Schedule) -> OmpRunReport<Vec<f64>> {
    let (rows, cols, blocks) = (p.rows, p.cols, p.blocks);
    let a = SharedBuffer::from_vec(p.init_grid());
    let b = SharedBuffer::new(rows * cols, 0.0f64);
    let mut remote = RemoteAccessReport::default();
    let threads = team.size();

    for t in 0..p.steps {
        let (src, dst) = if t % 2 == 0 { (&a, &b) } else { (&b, &a) };
        let rep = team.parallel_for_counted(
            blocks,
            schedule,
            |blk| Color::from(block_owner(blk, blocks, threads)),
            |blk, _thread| {
                let range = block_range(rows, blocks, blk);
                // SAFETY: disjoint row blocks within a loop; the barrier
                // between loops orders reads of the previous buffer after
                // all of its writes.
                unsafe {
                    let dst = dst.slice_mut(range.start * cols, range.end * cols);
                    for r in range.clone() {
                        p.step_row_at(|i| src.read(i), dst, r, range.start);
                    }
                }
            },
        );
        merge(&mut remote, rep.remote);
    }

    let result = if p.steps % 2 == 1 { b } else { a };
    OmpRunReport {
        result: result.into_vec(),
        remote,
    }
}

/// Game of life as `steps` parallel loops over row blocks (torus wrap is
/// safe under the loop barrier).
pub fn life_parfor(p: &LifeProblem, team: &Team, schedule: Schedule) -> OmpRunReport<Vec<u8>> {
    let (rows, cols, blocks) = (p.rows, p.cols, p.blocks);
    let a = SharedBuffer::from_vec(p.init_board());
    let b = SharedBuffer::new(rows * cols, 0u8);
    let mut remote = RemoteAccessReport::default();
    let threads = team.size();

    for t in 0..p.steps {
        let (src, dst) = if t % 2 == 0 { (&a, &b) } else { (&b, &a) };
        let rep = team.parallel_for_counted(
            blocks,
            schedule,
            |blk| Color::from(block_owner(blk, blocks, threads)),
            |blk, _thread| {
                let range = block_range(rows, blocks, blk);
                // SAFETY: as in heat; wrap reads are ordered by the
                // barrier, not by stencil edges.
                unsafe {
                    let dst = dst.slice_mut(range.start * cols, range.end * cols);
                    for r in range.clone() {
                        for c in 0..cols {
                            dst[(r - range.start) * cols + c] =
                                p.next_cell_at(|i| src.read(i), r, c);
                        }
                    }
                }
            },
        );
        merge(&mut remote, rep.remote);
    }

    let result = if p.steps % 2 == 1 { b } else { a };
    OmpRunReport {
        result: result.into_vec(),
        remote,
    }
}

/// PageRank power iterations as parallel loops over vertex blocks — the
/// paper's OPENMPSTATIC / OPENMPGUIDED comparison point for the irregular
/// benchmark.
pub fn pagerank_parfor(pr: &PageRank, team: &Team, schedule: Schedule) -> OmpRunReport<Vec<f64>> {
    let nv = pr.web.nv;
    let blocks = pr.blocks;
    let threads = team.size();
    let rank = SharedBuffer::from_vec(vec![1.0 / nv as f64; nv]);
    let next = SharedBuffer::new(nv, 0.0f64);
    let mut remote = RemoteAccessReport::default();

    for t in 0..pr.iters {
        let (src, dst) = if t % 2 == 0 {
            (&rank, &next)
        } else {
            (&next, &rank)
        };
        let rep = team.parallel_for_counted(
            blocks,
            schedule,
            |blk| Color::from(block_owner(blk, blocks, threads)),
            |blk, _thread| {
                let range = block_range(nv, blocks, blk);
                // SAFETY: block-disjoint writes; the loop barrier orders
                // reads of the previous rank buffer.
                unsafe {
                    let dst = dst.slice_mut(range.start, range.end);
                    for (k, v) in range.clone().enumerate() {
                        let mut sum = 0.0;
                        for &s in pr.web.in_neighbors(v) {
                            let s = s as usize;
                            sum += src.read(s) / pr.web.out_degree(s) as f64;
                        }
                        dst[k] = 0.15 / nv as f64 + 0.85 * sum;
                    }
                }
            },
        );
        merge(&mut remote, rep.remote);
    }

    let result = if pr.iters % 2 == 1 { next } else { rank };
    OmpRunReport {
        result: result.into_vec(),
        remote,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbitc_runtime::Topology;

    #[test]
    fn heat_static_matches_serial() {
        let p = HeatProblem::small();
        let serial = p.run_serial();
        let team = Team::uma(4);
        let run = heat_parfor(&p, &team, Schedule::Static);
        for (s, q) in serial.iter().zip(run.result.iter()) {
            assert!((s - q).abs() < 1e-12);
        }
    }

    #[test]
    fn heat_guided_matches_serial() {
        let p = HeatProblem::small();
        let serial = p.run_serial();
        let team = Team::uma(5);
        let run = heat_parfor(&p, &team, Schedule::guided());
        for (s, q) in serial.iter().zip(run.result.iter()) {
            assert!((s - q).abs() < 1e-12);
        }
    }

    #[test]
    fn life_static_matches_serial_exactly() {
        let p = LifeProblem::small();
        let serial = p.run_serial();
        let team = Team::uma(4);
        assert_eq!(serial, life_parfor(&p, &team, Schedule::Static).result);
    }

    #[test]
    fn life_dynamic_matches_serial_exactly() {
        let p = LifeProblem::small();
        let serial = p.run_serial();
        let team = Team::uma(3);
        assert_eq!(
            serial,
            life_parfor(&p, &team, Schedule::Dynamic { chunk: 2 }).result
        );
    }

    #[test]
    fn pagerank_static_and_guided_match_serial() {
        let pr = PageRank::small();
        let serial = pr.run_serial();
        let team = Team::uma(6);
        for sched in [Schedule::Static, Schedule::guided()] {
            let run = pagerank_parfor(&pr, &team, sched);
            for (s, q) in serial.iter().zip(run.result.iter()) {
                assert!((s - q).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn static_locality_beats_guided_on_numa_team() {
        // The §V-B story on the real team: static keeps block iterations on
        // their owning threads (0% remote); guided does not.
        let p = HeatProblem {
            rows: 256,
            cols: 64,
            steps: 6,
            blocks: 32,
        };
        let team = Team::new(8, Topology::new(2, 4));
        let st = heat_parfor(&p, &team, Schedule::Static);
        let gd = heat_parfor(&p, &team, Schedule::guided());
        assert_eq!(st.remote.pct_remote(), 0.0, "static must be fully local");
        assert!(
            gd.remote.pct_remote() > 0.0,
            "guided should incur remote block executions"
        );
    }
}
