//! The OpenMP baselines on real threads.
//!
//! The paper compares NabbitC against OpenMP's loop schedulers (§V):
//! **OPENMPSTATIC** divides the iteration space evenly among pinned
//! threads — when computation loops are scheduled like the initialization
//! loops this gives regular applications perfect locality *and* perfect
//! load balance with zero scheduling overhead; **OPENMPGUIDED** hands out
//! adaptively shrinking chunks from a shared counter — dynamic load balance
//! but no locality control. Both are
//! [`OmpSchedule`](nabbitc_runtime::OmpSchedule)s, the type the
//! simulator (`numasim::ompsim`) runs too.
//!
//! [`Team`] is a persistent group of logically pinned threads (thread `t`
//! has color `t`, domain `t / cores_per_domain`, exactly like the runtime's
//! workers). [`Team::run_graph`] runs a task graph as the OpenMP program
//! of it: one barrier-closed parallel loop per hop-count level, calling
//! the same `kernel(node, worker)` the task-graph executors call. Because
//! the team persists, the static schedule's iteration→thread mapping is
//! stable across loops — the property that makes "initialize in one static
//! loop, compute in another" yield first-touch locality.
//!
//! Remote accesses are counted with the same §V-B node-granularity metric
//! as the executors: each node by its color, and each of its predecessors
//! by theirs.

mod team;

pub use team::Team;
