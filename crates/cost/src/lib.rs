//! The NabbitC cost model — one crate, one source of truth.
//!
//! Everything in this workspace that prices a schedule consumes the same
//! [`CostModel`]:
//!
//! * the NUMA work-stealing and OpenMP simulators (`nabbitc-numasim`)
//!   charge every node `node_ticks(work, local, remote)` plus steal,
//!   split, back-off, and barrier overheads;
//! * the list-schedule makespan estimator
//!   (`nabbitc-graph::analysis::estimate_makespan_colored_strict_on`)
//!   charges a cross-color dependence edge as **remote-byte bandwidth on
//!   the consumer** ([`CostModel::remote_excess`]) plus the steal
//!   hand-off latency ([`CostModel::cross_edge_latency`]);
//! * the autocolor objectives (`nabbitc-autocolor`'s `CpLevelAware` sweep
//!   and its `MakespanGain` refinement, which price per worker, and the
//!   `AutoSelect` meta-assigner, which scores on the machine it is given)
//!   optimize and score with the same two terms.
//!
//! Before this crate existed the workspace carried three incompatible
//! pricings of a cross-color edge — the simulator's byte costs, the
//! estimator's flat `cross_penalty` ticks on ready *latency*, and the
//! assigners' `cross_penalty_frac` in node-weight units — and the
//! estimator penalty had to stay hand-calibrated below ~0.5× the mean
//! node weight or memory-bound stencils mis-ranked. Deriving every layer
//! from one bandwidth-aware model makes the penalty principled instead of
//! calibrated: a cross edge costs what moving its bytes costs.
//!
//! All costs are integer "ticks". The defaults model a memory-bound
//! workload on a multi-socket machine: remote DRAM costs ~3× local
//! (typical 2-hop QPI ratio on the paper's Westmere-EX generation),
//! scheduling costs are small relative to node work, and barriers cost on
//! the order of a few thousand cycles.
//!
//! Whether a byte is *local* or *remote* is a property of the machine, not
//! of the model: [`Topology`] is the workspace's one machine description,
//! shared by the worker pool, the executors' §V-B counters, the
//! simulators and the cost consumers (the paper machine groups 10 workers
//! per NUMA domain, so a cut edge between two workers of the same domain
//! moves its bytes at *local* bandwidth). [`Topology::per_worker`] —
//! every worker its own domain — is the conservative choice, and what
//! every cost consumer uses when a topology is not supplied explicitly.

/// A logical NUMA topology: `domains × cores_per_domain` workers, mapped
/// to domains by contiguous blocks (worker ids in pinning order).
///
/// The worker pool is built on it, the simulators price accesses with
/// it, and the cost consumers — the makespan estimator in
/// `nabbitc-graph::analysis`, the autocolor selection, and the domain
/// packing pass — ask it "is this worker pair remote?". The questions
/// that take a color (`is_remote`, `domain_of_color`) are the `nabbitc_runtime::ColorDomains` extension trait: this crate
/// has no notion of colors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    domains: usize,
    cores_per_domain: usize,
}

impl Topology {
    /// Creates a topology. Panics if either dimension is zero.
    pub fn new(domains: usize, cores_per_domain: usize) -> Self {
        assert!(domains > 0 && cores_per_domain > 0, "degenerate topology");
        Topology {
            domains,
            cores_per_domain,
        }
    }

    /// Every worker its own domain: the conservative pre-domain-aware
    /// model, where *any* cross-worker edge is priced remote. This is the
    /// default wherever a topology is not supplied. Panics if `workers`
    /// is zero (the workspace-wide worker-count contract).
    pub fn per_worker(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        Topology::new(workers, 1)
    }

    /// The paper's evaluation machine: 8 Xeon E7-8860 sockets × 10 cores.
    pub fn paper_machine() -> Self {
        Topology::new(8, 10)
    }

    /// A single-domain topology of `cores` cores (UMA): nothing is remote.
    pub fn uma(cores: usize) -> Self {
        Topology::new(1, cores)
    }

    /// Number of domains.
    #[inline]
    pub fn domains(&self) -> usize {
        self.domains
    }

    /// Cores per domain.
    #[inline]
    pub fn cores_per_domain(&self) -> usize {
        self.cores_per_domain
    }

    /// Total cores.
    #[inline]
    pub fn cores(&self) -> usize {
        self.domains * self.cores_per_domain
    }

    /// Domain of a worker id (contiguous block mapping, as produced by
    /// pinning threads in id order; ids past the last core clamp to the
    /// last domain).
    #[inline]
    pub fn domain_of(&self, worker: usize) -> usize {
        (worker / self.cores_per_domain).min(self.domains - 1)
    }

    /// Whether two workers share a NUMA domain — i.e. whether a cut edge
    /// between them moves its bytes at local bandwidth.
    #[inline]
    pub fn same_domain(&self, a: usize, b: usize) -> bool {
        self.domain_of(a) == self.domain_of(b)
    }

    /// Restricts the topology to the first `p` cores, preserving the
    /// domain granularity — how the paper scales core counts (1–10 cores
    /// fit in one domain, 20 cores span two, ...). Panics if `p` is zero.
    pub fn truncated(&self, p: usize) -> Topology {
        assert!(p > 0, "need at least one worker");
        Topology {
            domains: p.div_ceil(self.cores_per_domain).min(self.domains),
            cores_per_domain: self.cores_per_domain,
        }
    }
}

/// Cost parameters, in integer "ticks".
///
/// The bandwidth terms (`work_tick`, `local_byte`, `remote_byte`) are
/// validated by every constructor and builder — and re-checked by
/// [`assert_valid`](Self::assert_valid) at consumer entry points — so a
/// NaN, negative, or zero term panics with a clear message instead of
/// silently producing garbage tick counts downstream.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Ticks per unit of node `work` (compute).
    pub work_tick: f64,
    /// Ticks per byte accessed in the executing core's own domain.
    pub local_byte: f64,
    /// Ticks per byte accessed in a remote domain.
    pub remote_byte: f64,
    /// Fixed per-node scheduling overhead (dependence bookkeeping — the
    /// `O(|E|)` term of `T1`).
    pub node_overhead: u64,
    /// Cost of one steal attempt (successful or not) — a cache-line probe
    /// of a remote deque.
    pub steal_check: u64,
    /// Additional cost of transferring a stolen entry.
    pub steal_transfer: u64,
    /// Cost of one pushed half of a morphing split (`spawn_colors`).
    pub split: u64,
    /// Idle back-off after a fully failed steal round.
    pub idle_backoff: u64,
    /// Per-phase barrier cost for the OpenMP simulator.
    pub barrier: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            work_tick: 1.0,
            local_byte: 1.0,
            remote_byte: 3.0,
            node_overhead: 200,
            steal_check: 150,
            steal_transfer: 300,
            split: 40,
            idle_backoff: 300,
            barrier: 4000,
        }
    }
}

/// Panics unless `v` is a finite, strictly positive bandwidth term.
fn check_term(name: &str, v: f64) {
    assert!(
        v.is_finite() && v > 0.0,
        "cost model: {name} must be finite and > 0, got {v}"
    );
}

impl CostModel {
    /// A model with explicit bandwidth terms (everything else default).
    /// Panics if any term is NaN, infinite, negative, or zero.
    pub fn new(work_tick: f64, local_byte: f64, remote_byte: f64) -> Self {
        let m = CostModel {
            work_tick,
            local_byte,
            remote_byte,
            ..CostModel::default()
        };
        m.assert_valid();
        m
    }

    /// A model with a custom remote/local byte-cost ratio (ablation knob).
    /// Panics if `ratio` is NaN, infinite, negative, or zero.
    pub fn with_remote_ratio(mut self, ratio: f64) -> Self {
        check_term("remote ratio", ratio);
        self.remote_byte = self.local_byte * ratio;
        self.assert_valid();
        self
    }

    /// Validates the bandwidth terms, panicking with a clear message on
    /// NaN/negative/zero. Constructors call this; consumers that accept a
    /// `&CostModel` (whose public fields a caller may have set directly)
    /// re-check at entry.
    pub fn assert_valid(&self) {
        check_term("work_tick", self.work_tick);
        check_term("local_byte", self.local_byte);
        check_term("remote_byte", self.remote_byte);
    }

    /// Remote/local byte-cost ratio.
    #[inline]
    pub fn remote_ratio(&self) -> f64 {
        self.remote_byte / self.local_byte
    }

    /// Execution ticks for a node with `work` compute units, `local` local
    /// bytes, and `remote` remote bytes.
    #[inline]
    pub fn node_ticks(&self, work: u64, local: u64, remote: u64) -> u64 {
        self.node_overhead
            + (work as f64 * self.work_tick
                + local as f64 * self.local_byte
                + remote as f64 * self.remote_byte)
                .round() as u64
    }

    /// Execution ticks when every byte is local.
    #[inline]
    pub fn node_ticks_all_local(&self, work: u64, bytes: u64) -> u64 {
        self.node_ticks(work, bytes, 0)
    }

    /// Extra ticks `bytes` cost when read remotely instead of locally —
    /// the bandwidth price of a cross-color dependence edge carrying
    /// `bytes` of producer output. Zero when remote is not dearer than
    /// local.
    #[inline]
    pub fn remote_excess(&self, bytes: u64) -> u64 {
        ((self.remote_byte - self.local_byte).max(0.0) * bytes as f64).round() as u64
    }

    /// Extra ticks a cut edge carrying `bytes` costs under `topo`: the
    /// full [`remote_excess`](Self::remote_excess) when the producing and
    /// consuming workers sit in different NUMA domains, zero when they
    /// share one (the bytes move at local bandwidth). With
    /// [`Topology::per_worker`] every cross-worker pair is remote, which
    /// reproduces the pre-domain-aware pricing.
    ///
    /// This is the one-edge form, for callers pricing edges
    /// independently. The estimator instead *accumulates* a node's
    /// cross-domain bytes and prices the total once through
    /// [`node_ticks`](Self::node_ticks) /
    /// [`remote_excess`](Self::remote_excess) (one rounding per node,
    /// not per edge), so it branches on [`Topology::same_domain`]
    /// directly — the rule is the same, the rounding granularity is not.
    #[inline]
    pub fn cut_excess(&self, topo: &Topology, producer: usize, consumer: usize, bytes: u64) -> u64 {
        if topo.same_domain(producer, consumer) {
            0
        } else {
            self.remote_excess(bytes)
        }
    }

    /// Latency of handing a task across workers — one steal probe plus
    /// one entry transfer. The estimator charges this on the *ready time*
    /// of a cross-worker dependence (it delays the consumer but does not
    /// occupy it), in contrast to [`remote_excess`](Self::remote_excess),
    /// which occupies the consumer's core for the duration of the byte
    /// traffic.
    #[inline]
    pub fn cross_edge_latency(&self) -> u64 {
        self.steal_check + self.steal_transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_costs_more() {
        let m = CostModel::default();
        let local = m.node_ticks(100, 1000, 0);
        let remote = m.node_ticks(100, 0, 1000);
        assert!(remote > local);
        assert_eq!(remote - local, 2000); // (3.0 - 1.0) * 1000
        assert_eq!(m.remote_excess(1000), 2000);
    }

    #[test]
    fn ratio_knob() {
        let m = CostModel::default().with_remote_ratio(5.0);
        assert_eq!(m.remote_byte, 5.0);
        assert_eq!(m.remote_ratio(), 5.0);
    }

    #[test]
    fn overhead_included() {
        let m = CostModel::default();
        assert_eq!(m.node_ticks(0, 0, 0), m.node_overhead);
    }

    #[test]
    fn cross_edge_latency_is_steal_handoff() {
        let m = CostModel::default();
        assert_eq!(m.cross_edge_latency(), m.steal_check + m.steal_transfer);
    }

    #[test]
    fn remote_excess_never_negative() {
        // A (pathological but finite) model where remote is cheaper than
        // local must clamp the excess at zero, not wrap.
        let m = CostModel {
            local_byte: 3.0,
            remote_byte: 1.0,
            ..CostModel::default()
        };
        assert_eq!(m.remote_excess(1000), 0);
    }

    #[test]
    fn topology_maps_workers_to_contiguous_domains() {
        let t = Topology::paper_machine();
        assert_eq!(t.cores(), 80);
        assert_eq!(t.domains(), 8);
        assert_eq!(t.domain_of(0), 0);
        assert_eq!(t.domain_of(9), 0);
        assert_eq!(t.domain_of(10), 1);
        assert_eq!(t.domain_of(79), 7);
        assert_eq!(t.domain_of(200), 7, "past-the-end ids clamp");
        assert!(t.same_domain(3, 7));
        assert!(!t.same_domain(9, 10));
    }

    #[test]
    fn per_worker_topology_isolates_every_worker() {
        let t = Topology::per_worker(6);
        assert_eq!(t.domains(), 6);
        assert_eq!(t.cores_per_domain(), 1);
        for a in 0..6 {
            for b in 0..6 {
                assert_eq!(t.same_domain(a, b), a == b);
            }
        }
    }

    #[test]
    fn uma_topology_is_never_remote() {
        let t = Topology::uma(8);
        assert!(t.same_domain(0, 7));
        assert_eq!(CostModel::default().cut_excess(&t, 0, 7, 1000), 0);
    }

    #[test]
    fn truncation_matches_paper_scaling() {
        let t = Topology::paper_machine();
        assert_eq!(t.truncated(10).domains(), 1);
        assert_eq!(t.truncated(11).domains(), 2);
        assert_eq!(t.truncated(20).domains(), 2);
        assert_eq!(t.truncated(80).domains(), 8);
    }

    #[test]
    fn cut_excess_prices_only_cross_domain_pairs() {
        let m = CostModel::default();
        let t = Topology::new(2, 2);
        // Workers 0,1 share domain 0; workers 2,3 share domain 1.
        assert_eq!(m.cut_excess(&t, 0, 1, 1000), 0);
        assert_eq!(m.cut_excess(&t, 1, 2, 1000), m.remote_excess(1000));
        // Per-worker topology reproduces the old "any cross pair is
        // remote" pricing.
        let pw = Topology::per_worker(4);
        assert_eq!(m.cut_excess(&pw, 0, 1, 1000), m.remote_excess(1000));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_domain_topology_panics() {
        Topology::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn per_worker_zero_workers_panics() {
        Topology::per_worker(0);
    }

    #[test]
    fn new_validates_and_builds() {
        let m = CostModel::new(2.0, 1.0, 4.0);
        assert_eq!(m.work_tick, 2.0);
        assert_eq!(m.node_overhead, CostModel::default().node_overhead);
    }

    macro_rules! rejects {
        ($name:ident, $build:expr, $msg:expr) => {
            #[test]
            fn $name() {
                let err = std::panic::catch_unwind(|| $build).expect_err("must panic");
                let got = err
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                assert!(got.contains($msg), "panic message {got:?} lacks {:?}", $msg);
            }
        };
    }

    rejects!(
        rejects_nan_work_tick,
        CostModel::new(f64::NAN, 1.0, 3.0),
        "work_tick must be finite and > 0"
    );
    rejects!(
        rejects_zero_local_byte,
        CostModel::new(1.0, 0.0, 3.0),
        "local_byte must be finite and > 0"
    );
    rejects!(
        rejects_negative_remote_byte,
        CostModel::new(1.0, 1.0, -3.0),
        "remote_byte must be finite and > 0"
    );
    rejects!(
        rejects_zero_remote_ratio,
        CostModel::default().with_remote_ratio(0.0),
        "remote ratio must be finite and > 0"
    );
    rejects!(
        rejects_nan_remote_ratio,
        CostModel::default().with_remote_ratio(f64::NAN),
        "remote ratio must be finite and > 0"
    );
    rejects!(
        rejects_infinite_remote_ratio,
        CostModel::default().with_remote_ratio(f64::INFINITY),
        "remote ratio must be finite and > 0"
    );
    rejects!(
        assert_valid_catches_hand_set_fields,
        CostModel {
            local_byte: f64::NEG_INFINITY,
            ..CostModel::default()
        }
        .assert_valid(),
        "local_byte must be finite and > 0"
    );
}
