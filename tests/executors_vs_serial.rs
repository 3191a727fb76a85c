//! End-to-end correctness: every Table I benchmark's task graph executes
//! under both scheduler policies with all dependences respected, and the
//! runnable kernels produce results identical to their serial references.

use nabbitc::core::{ExecOptions, StaticExecutor};
use nabbitc::graph::trace::order_respects_dependences;
use nabbitc::prelude::*;
use nabbitc::workloads::{
    cg::CgProblem, fdtd::FdtdProblem, heat::HeatProblem, life::LifeProblem, pagerank::PageRank,
    registry, sw::SwProblem, BenchId, Scale,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn traced_executor(workers: usize, policy: StealPolicy) -> StaticExecutor {
    let topo = Topology::new(2, workers.div_ceil(2).max(1));
    let pool = Arc::new(Pool::new(
        PoolConfig::nabbitc(workers)
            .with_topology(topo)
            .with_policy(policy),
    ));
    StaticExecutor::new(pool).with_options(ExecOptions {
        record_trace: true,
        count_remote: true,
        ..ExecOptions::default()
    })
}

#[test]
fn all_benchmarks_execute_with_valid_traces_nabbitc() {
    for id in BenchId::all() {
        let built = registry::build(id, Scale::Small, 6);
        let graph = Arc::new(built.graph);
        let exec = traced_executor(6, StealPolicy::nabbitc());
        let counts: Arc<Vec<AtomicU32>> =
            Arc::new((0..graph.node_count()).map(|_| AtomicU32::new(0)).collect());
        let c2 = counts.clone();
        let report = exec.execute(
            &graph,
            Arc::new(move |u, _w| {
                c2[u as usize].fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert!(
            counts.iter().all(|c| c.load(Ordering::SeqCst) == 1),
            "{}: every node exactly once",
            id.name()
        );
        report
            .trace
            .validate(&graph)
            .unwrap_or_else(|e| panic!("{}: invalid trace: {e}", id.name()));
    }
}

#[test]
fn all_benchmarks_execute_with_valid_traces_nabbit() {
    for id in [
        BenchId::Heat,
        BenchId::PageTwitter2010,
        BenchId::Sw,
        BenchId::Mg,
    ] {
        let built = registry::build(id, Scale::Small, 6);
        let graph = Arc::new(built.graph);
        let exec = traced_executor(6, StealPolicy::nabbit());
        let report = exec.execute(&graph, Arc::new(|_u, _w| {}));
        report
            .trace
            .validate(&graph)
            .unwrap_or_else(|e| panic!("{}: invalid trace: {e}", id.name()));
    }
}

#[test]
fn serial_executor_order_is_valid_on_all_benchmarks() {
    for id in BenchId::all() {
        let built = registry::build(id, Scale::Small, 4);
        let order = nabbitc::graph::serial::execute(&built.graph, |_| {});
        assert!(
            order_respects_dependences(&built.graph, &order),
            "{}: serial order invalid",
            id.name()
        );
    }
}

#[test]
fn heat_kernel_matches_serial_on_both_policies() {
    let p = HeatProblem {
        rows: 160,
        cols: 96,
        steps: 7,
        blocks: 20,
    };
    let serial = p.run_serial();
    for policy in [StealPolicy::nabbitc(), StealPolicy::nabbit()] {
        let exec = traced_executor(6, policy);
        let par = p.run_taskgraph(&exec);
        for (s, q) in serial.iter().zip(par.iter()) {
            assert!((s - q).abs() < 1e-12);
        }
    }
}

#[test]
fn life_kernel_matches_serial() {
    let p = LifeProblem {
        rows: 128,
        cols: 96,
        steps: 6,
        blocks: 16,
        seed: 7,
    };
    let serial = p.run_serial();
    let exec = traced_executor(8, StealPolicy::nabbitc());
    assert_eq!(serial, p.run_taskgraph(&exec));
}

#[test]
fn fdtd_kernel_matches_serial() {
    let p = FdtdProblem {
        n: 8192,
        steps: 12,
        blocks: 32,
    };
    let (es, hs) = p.run_serial();
    let exec = traced_executor(6, StealPolicy::nabbitc());
    let (ep, hp) = p.run_taskgraph(&exec);
    for i in 0..p.n {
        assert!((es[i] - ep[i]).abs() < 1e-12);
        assert!((hs[i] - hp[i]).abs() < 1e-12);
    }
}

#[test]
fn pagerank_kernel_matches_serial() {
    let pr = PageRank::small();
    let serial = pr.run_serial();
    let exec = traced_executor(8, StealPolicy::nabbitc());
    let par = pr.run_taskgraph(&exec);
    for (s, q) in serial.iter().zip(par.iter()) {
        assert!((s - q).abs() < 1e-12);
    }
}

#[test]
fn sw_kernel_matches_serial() {
    let p = SwProblem {
        n: 256,
        m: 320,
        tiles_n: 8,
        tiles_m: 16,
        seed: 3,
    };
    let exec = traced_executor(6, StealPolicy::nabbitc());
    assert_eq!(p.run_serial(), p.run_taskgraph(&exec));
}

#[test]
fn cg_kernel_matches_serial() {
    let p = CgProblem {
        n: 2048,
        blocks: 12,
        k: 32,
        iters: 3,
    };
    let (xs, rrs) = p.run_serial();
    let exec = traced_executor(6, StealPolicy::nabbitc());
    let (xp, rrp) = p.run_taskgraph(&exec);
    assert!((rrs - rrp).abs() / rrs.max(1e-30) < 1e-9);
    for i in 0..p.n {
        assert!((xs[i] - xp[i]).abs() < 1e-9 * xs[i].abs().max(1.0));
    }
}

#[test]
fn mg_kernel_matches_serial() {
    use nabbitc::workloads::mg::{plan, MgProblem};
    let p = MgProblem {
        plan: plan(2047, 8, 24),
    };
    let serial = p.run_serial();
    let exec = traced_executor(6, StealPolicy::nabbitc());
    let par = p.run_taskgraph(&exec);
    for i in 0..serial.len() {
        assert!((serial[i] - par[i]).abs() < 1e-12);
    }
}

#[test]
fn dynamic_executor_runs_graph_benchmark() {
    // Drive a wavefront through the *dynamic* (on-demand) protocol and
    // compare the set of executed keys with the static graph's nodes.
    struct Wave {
        rows: usize,
        cols: usize,
        executed: Mutex<Vec<(usize, usize)>>,
    }
    impl nabbitc::core::TaskSpec for Wave {
        type Key = (usize, usize);
        fn predecessors(&self, &(i, j): &Self::Key) -> Vec<Self::Key> {
            let mut p = Vec::new();
            if i > 0 {
                p.push((i - 1, j));
            }
            if j > 0 {
                p.push((i, j - 1));
            }
            if i > 0 && j > 0 {
                p.push((i - 1, j - 1));
            }
            p
        }
        fn color(&self, &(i, _): &Self::Key) -> Color {
            Color::from(i * 4 / self.rows)
        }
        fn compute(&self, key: &Self::Key, _w: usize) {
            self.executed.lock().push(*key);
        }
    }
    let spec = Arc::new(Wave {
        rows: 24,
        cols: 30,
        executed: Mutex::new(Vec::new()),
    });
    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(4)));
    let exec = nabbitc::core::DynamicExecutor::new(pool, spec.clone());
    let report = exec.execute((spec.rows - 1, spec.cols - 1));
    assert_eq!(report.nodes_executed as usize, spec.rows * spec.cols);
    let mut keys = spec.executed.lock().clone();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), spec.rows * spec.cols);
}
