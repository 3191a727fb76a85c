//! The two reviewed exception lists of the workspace concurrency audit.
//!
//! Which ordering an atomic site may use, why, and which site it pairs
//! with is written at the site, in an `// ORDERING` comment
//! ([`crate::atomics::Annotation`]). What cannot stand at a site stays
//! here: the harness files whose sites are exempt from annotation
//! ([`SCAN_ALLOWLIST`]) and the justified direct references past the
//! `nabbitc_runtime::sync` facade ([`FACADE_EXEMPT`]). An entry of either
//! list that matches nothing fails the audit.

/// One allowlisted file prefix: atomic sites under it are discovered and
/// counted by the workspace scan but exempt from annotation
/// matching, and the file is out of scope for the facade pass.
#[derive(Debug, Clone, Copy)]
pub struct AllowlistEntry {
    /// Crate-qualified key prefix (`"check/"` covers the whole crate).
    pub prefix: &'static str,
    /// Why these files are exempt.
    pub why: &'static str,
}

/// Harness code whose atomics are not shipped runtime code. Every site
/// anywhere else under `crates/` must carry an `// ORDERING` annotation. A
/// prefix covering no scanned site fails
/// [`crate::atomics::audit_allowlist`], so this list cannot rot either.
pub static SCAN_ALLOWLIST: &[AllowlistEntry] = &[AllowlistEntry {
    prefix: "check/",
    why: "model-check harness: loom-instrumented scenario code whose orderings are \
          verified dynamically by exhaustive interleaving, not by annotation",
}];

/// One justified direct `std::sync::atomic` / `parking_lot` reference
/// outside the `nabbitc_runtime::sync` facade.
#[derive(Debug, Clone, Copy)]
pub struct FacadeExemption {
    /// Crate-qualified file key.
    pub file: &'static str,
    /// The token the file may reference (`"parking_lot"`).
    pub token: &'static str,
    /// Why the facade cannot cover this use.
    pub why: &'static str,
}

/// The reviewed exceptions for [`crate::atomics::audit_facade`]. An
/// entry matching no occurrence fails the audit, so this list cannot
/// rot either.
pub static FACADE_EXEMPT: &[FacadeExemption] = &[
    FacadeExemption {
        file: "runtime/sync.rs",
        token: "std::sync::atomic",
        why: "the facade itself: re-exports the std atomics in normal builds",
    },
    FacadeExemption {
        file: "runtime/sync.rs",
        token: "parking_lot",
        why: "the facade itself: re-exports the parking_lot locks in normal builds",
    },
    FacadeExemption {
        file: "runtime/pool.rs",
        token: "parking_lot",
        why: "Condvar has no loom shim; the pool's parking protocol is exercised by the \
              model harness through the deque/injector API instead",
    },
    FacadeExemption {
        file: "parfor/team.rs",
        token: "parking_lot",
        why: "Condvar has no loom shim; the team's park/wake handoff stays on parking_lot",
    },
];
