//! Static analysis for NabbitC: a graph/schedule linter and an
//! atomics-ordering audit for the lock-free runtime.
//!
//! # Graph/schedule linter
//!
//! [`lint_graph`] runs structural and scheduling detectors over a colored
//! [`TaskGraph`](nabbitc_graph::TaskGraph), priced against a machine size,
//! a [`CostModel`](nabbitc_cost::CostModel), and an optional NUMA
//! [`Topology`](nabbitc_cost::Topology). Findings carry stable codes:
//!
//! | Code  | Severity | Meaning |
//! |-------|----------|---------|
//! | NL000 | Error    | graph construction error ([`GraphBuilder::check`](nabbitc_graph::GraphBuilder::check)) |
//! | NL001 | Error    | invalid / out-of-range node color |
//! | NL002 | Warn     | isolated zero-work node |
//! | NL003 | Warn     | serialized wide level (the wavefront bisection trap) |
//! | NL004 | Warn     | color load above the 2x balance bound |
//! | NL005 | Warn     | hub producer fanning out across NUMA domains |
//! | NL006 | Warn     | cross-domain hot edge (remote traffic vs. work share) |
//! | NL007 | Warn     | max width below the worker count |
//! | NL008 | Info     | max width far above the worker count |
//! | NL009 | Warn     | worker color with no nodes |
//! | NL010 | Warn     | worker color absent from the sources (first appears behind the source front: the forced first colored steal waits for the frontier) |
//!
//! Reports render human-readable ([`LintReport::render`]) and
//! machine-readable ([`LintReport::to_json`], schema versioned by
//! [`LINT_SCHEMA_VERSION`]). The linter is wired into the execution
//! facade as an opt-in pre-flight gate (see `nabbitc_core`'s
//! `ExecOptions`) and into the `graphlint` CLI in `nabbitc-bench`.
//!
//! # Workspace concurrency audit
//!
//! [`atomics::scan_workspace`] discovers every `.rs` file under
//! `crates/*/src` and extracts every atomic operation site and every
//! `// ORDERING` annotation ([`atomics::Annotation`]: the allowed
//! orderings, the `pairs` partners and the reason, written in the
//! function that owns the site); four passes then run over the result:
//!
//! | pass | check |
//! |------|-------|
//! | [`atomics::audit`] | every site is covered by an annotation in its function and uses an allowed `Ordering` sequence; every annotation covers a site (harness files: [`policy::SCAN_ALLOWLIST`], itself checked for stale prefixes by [`atomics::audit_allowlist`]) |
//! | [`atomics::audit_pairs`] | every Acquire annotation names its release-capable partner(s); every Release annotation is named by someone |
//! | [`atomics::audit_facade`] | no direct `std::sync::atomic` / `parking_lot` outside the `nabbitc_runtime::sync` facade ([`policy::FACADE_EXEMPT`]) |
//! | [`atomics::audit_safety`] | every `unsafe` in non-test code carries a `SAFETY` / `# Safety` justification |
//!
//! Unannotated sites, ordering downgrades, stale annotations or allowlist
//! entries, orphaned Release stores, facade escapes, and undocumented
//! `unsafe` all fail — including the seeded `nabbitc_weak_pop` fence
//! weakening, the seeded `nabbitc_weak_join` counter relaxation and the
//! seeded `nabbitc_weak_close` split of the successor list's closing
//! swap, which the audit catches without ever building the weakened
//! binaries.

pub mod atomics;
pub mod diag;
pub mod graph;
pub mod policy;

pub use atomics::{
    audit, audit_allowlist, audit_facade, audit_pairs, audit_safety, scan_workspace, Annotation,
    AtomicOp, AtomicOrdering, AtomicSite, SourceFile, WorkspaceScan,
};
pub use diag::{Diagnostic, LintReport, Severity, LINT_SCHEMA_VERSION};
pub use graph::{diagnose_build_errors, lint_graph, LintConfig};
pub use policy::{AllowlistEntry, FacadeExemption, FACADE_EXEMPT, SCAN_ALLOWLIST};
