//! Malformed `TaskSpec`s: the on-demand executor must fail loudly on the
//! ones it cannot run, run the odd-but-legal ones correctly, and leave
//! the pool usable either way.

use nabbitc::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Keys `0..n`; key `k` depends on whatever `preds(k)` says.
struct Table {
    preds: fn(u32) -> Vec<u32>,
    computed: Vec<AtomicU32>,
}

impl Table {
    fn new(n: usize, preds: fn(u32) -> Vec<u32>) -> Arc<Self> {
        Arc::new(Table {
            preds,
            computed: (0..n).map(|_| AtomicU32::new(0)).collect(),
        })
    }

    fn counts(&self) -> Vec<u32> {
        self.computed
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .collect()
    }
}

impl TaskSpec for Table {
    type Key = u32;
    fn predecessors(&self, &k: &u32) -> Vec<u32> {
        (self.preds)(k)
    }
    fn color(&self, &k: &u32) -> Color {
        Color((k % 2) as u16)
    }
    fn compute(&self, &k: &u32, _worker: usize) {
        self.computed[k as usize].fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn cyclic_spec_fails_loudly_and_pool_survives() {
    let pool = Arc::new(Pool::new(PoolConfig::nabbitc(2)));

    // 0 <- 1 <- 2 <- 0: nothing can ever run. The job drains and the
    // executor says what it knows instead of hanging or returning.
    let cycle = Table::new(3, |k| vec![(k + 1) % 3]);
    let exec = DynamicExecutor::new(pool.clone(), cycle.clone());
    let panic = catch_unwind(AssertUnwindSafe(|| exec.execute(0)))
        .expect_err("a cyclic spec must not return a report");
    let message = panic
        .downcast_ref::<String>()
        .expect("the panic carries a formatted message");
    for part in [
        "sink 0 did not complete",
        "3 nodes discovered",
        "0 computed",
        "predecessors() is cyclic or inconsistent",
    ] {
        assert!(message.contains(part), "{part:?} missing from: {message}");
    }
    assert_eq!(cycle.counts(), vec![0, 0, 0]);

    // The same pool runs the next job as if nothing had happened.
    let chain = Table::new(10, |k| if k == 0 { vec![] } else { vec![k - 1] });
    let report = DynamicExecutor::new(pool, chain.clone()).execute(9);
    assert_eq!(report.nodes_executed, 10);
    assert_eq!(chain.counts(), vec![1; 10]);
}

#[test]
fn a_predecessor_listed_twice_still_computes_every_node_once() {
    for workers in [1, 4] {
        // 3 lists 1 twice and 2 once; 1 and 2 both list 0 twice.
        let spec = Table::new(4, |k| match k {
            3 => vec![1, 2, 1],
            1 | 2 => vec![0, 0],
            _ => vec![],
        });
        let pool = Arc::new(Pool::new(PoolConfig::nabbitc(workers)));
        for round in 1..=20 {
            let report = DynamicExecutor::new(pool.clone(), spec.clone()).execute(3);
            assert_eq!(report.nodes_executed, 4);
            assert_eq!(spec.counts(), vec![round; 4], "{workers} workers");
        }
    }
}
