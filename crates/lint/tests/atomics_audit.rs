//! The workspace concurrency audit, run over the real sources.
//!
//! These tests are the CI gate: they discover every `.rs` file under
//! `crates/*/src`, check every atomic site against the `// ORDERING`
//! annotation in its function, verify the declared publication pairs,
//! enforce the `nabbitc_runtime::sync` facade, require SAFETY comments on
//! every `unsafe`, and verify the audit's teeth — the seeded
//! `nabbitc_weak_pop`, `nabbitc_weak_join` and `nabbitc_weak_close`
//! rewrites must be caught *statically*, and unannotated sites /
//! downgrades / stale annotations or allowlist entries / orphaned
//! Releases / facade escapes must all fail.

use nabbitc_lint::atomics::{scan_annotations, scan_source};
use nabbitc_lint::{
    audit, audit_allowlist, audit_facade, audit_pairs, audit_safety, scan_workspace,
    AllowlistEntry, AtomicOp, AtomicOrdering, SourceFile, SCAN_ALLOWLIST,
};

/// Floor on the number of sites the workspace scanner must find. If a
/// refactor drops the real count below this, either atomics were
/// genuinely removed (update the floor) or the scanner went blind (the
/// bug this assertion exists to catch).
const MIN_SITES: usize = 120;

#[test]
fn workspace_atomics_pass_the_committed_policy() {
    let scan = scan_workspace().expect("scan workspace sources");
    assert!(
        scan.sites.len() >= MIN_SITES,
        "scanner found only {} sites (expected >= {MIN_SITES}); did it go blind?",
        scan.sites.len()
    );
    let mut problems = audit(&scan.sites, &scan.annotations, &[]);
    problems.extend(audit_allowlist(&scan.sites, SCAN_ALLOWLIST));
    assert!(
        problems.is_empty(),
        "atomics audit failed:\n  {}",
        problems.join("\n  ")
    );
}

/// Exact number of atomic sites in the workspace today, pinned so that a
/// site cannot ride in under an existing annotation unreviewed: adding or
/// removing a site changes this number, and whoever does it must update
/// the pin in the same change.
///
/// 132 = runtime/ 94 + core/ 19 + parfor/ 2 + check/ 17; the split is
/// asserted too, so a site moving between crates under an unchanged
/// total is reviewed like any other.
const GOLDEN_SITE_COUNT: usize = 132;

#[test]
fn workspace_site_count_is_pinned() {
    let scan = scan_workspace().expect("scan workspace sources");
    let by_crate = |prefix: &str| {
        scan.sites
            .iter()
            .filter(|s| s.file.starts_with(prefix))
            .count()
    };
    assert_eq!(
        scan.sites.len(),
        GOLDEN_SITE_COUNT,
        "workspace atomic-site count changed (runtime/={}, core/={}, parfor/={}, \
         check/={}): review the new/removed sites and their ORDERING \
         annotations, then re-pin GOLDEN_SITE_COUNT",
        by_crate("runtime/"),
        by_crate("core/"),
        by_crate("parfor/"),
        by_crate("check/"),
    );
    assert_eq!(
        ["runtime/", "core/", "parfor/", "check/"].map(by_crate),
        [94, 19, 2, 17],
        "per-crate split moved under an unchanged total"
    );
    // Both executors decrement through `core/join.rs`: the pre-built
    // path has no atomic of its own, and no annotation to go stale. The
    // rules the threaded pool and the simulator both drive — the steal
    // search, the morphing split, the OpenMP schedules — and the
    // simulator itself run on a virtual clock too, so none may hold one.
    let clock_free = [
        "core/static_exec.rs",
        "core/exec.rs",
        "runtime/policy.rs",
        "runtime/morph.rs",
        "runtime/schedule.rs",
        "numasim/",
    ];
    for prefix in clock_free {
        assert_eq!(by_crate(prefix), 0, "atomic site under {prefix}");
        assert!(
            !scan.annotations.iter().any(|a| a.file.starts_with(prefix)),
            "ORDERING annotation under {prefix}"
        );
    }
    assert!(
        scan.files.iter().any(|f| f.key == "runtime/morph.rs")
            && scan.files.iter().any(|f| f.key.starts_with("numasim/")),
        "the clock-free modules are not scanned"
    );
}

#[test]
fn workspace_scan_spans_runtime_core_and_parfor() {
    let scan = scan_workspace().expect("scan workspace sources");
    for prefix in ["runtime/", "core/", "parfor/"] {
        assert!(
            scan.sites.iter().any(|s| s.file.starts_with(prefix)),
            "no atomic sites under {prefix}; discovery or refactor went wrong"
        );
    }
    // The harness crate is discovered and counted too (allowlisted from
    // policy matching, not from discovery).
    assert!(
        scan.sites.iter().any(|s| s.file.starts_with("check/")),
        "no atomic sites under allowlisted check/; discovery went wrong"
    );
    // Crates with no atomics at all are still discovered as files.
    assert!(
        scan.files.iter().any(|f| f.key.starts_with("color/")),
        "workspace discovery missed the color crate"
    );
}

#[test]
fn zero_site_files_are_still_audited() {
    // runtime/task.rs has no non-test atomics, but it is in scope for
    // the facade and SAFETY passes — the audit must tolerate audited
    // files that contribute zero sites rather than requiring each file
    // to have annotations.
    let scan = scan_workspace().expect("scan workspace sources");
    assert!(
        scan.files.iter().any(|f| f.key == "runtime/task.rs"),
        "runtime/task.rs not discovered"
    );
    assert!(
        !scan.sites.iter().any(|s| s.file == "runtime/task.rs"),
        "task.rs grew non-test atomics; annotate them and update this test"
    );
    assert!(audit(
        &scan
            .sites
            .iter()
            .filter(|s| s.file == "runtime/task.rs")
            .cloned()
            .collect::<Vec<_>>(),
        &[],
        &[]
    )
    .is_empty());
}

#[test]
fn weak_pop_canary_is_caught_statically() {
    let scan = scan_workspace().expect("scan workspace sources");
    // The two fence variants coexist in the source under opposite cfgs.
    let pop_fences: Vec<_> = scan
        .sites
        .iter()
        .filter(|s| s.file == "runtime/deque.rs" && s.func == "pop" && s.op == AtomicOp::Fence)
        .collect();
    assert_eq!(
        pop_fences.len(),
        2,
        "expected both cfg variants of the pop fence"
    );
    assert!(pop_fences
        .iter()
        .any(|s| s.orderings == [AtomicOrdering::SeqCst]
            && s.cfg.as_deref() == Some("not(nabbitc_weak_pop)")));
    assert!(pop_fences
        .iter()
        .any(|s| s.orderings == [AtomicOrdering::Release]
            && s.cfg.as_deref() == Some("nabbitc_weak_pop")));

    // Auditing the weakened configuration must flag the Release fence.
    let problems = audit(&scan.sites, &scan.annotations, &["nabbitc_weak_pop"]);
    assert!(
        problems
            .iter()
            .any(|p| p.contains("ordering violation") && p.contains("fence(Release)")),
        "weak-pop canary not flagged; problems were:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn weak_join_canary_is_caught_statically() {
    let scan = scan_workspace().expect("scan workspace sources");
    // Both cfg variants of the join-counter scan ops coexist in source.
    let join_sites: Vec<_> = scan
        .sites
        .iter()
        .filter(|s| s.file == "core/join.rs")
        .collect();
    assert!(
        join_sites
            .iter()
            .any(|s| s.cfg.as_deref() == Some("nabbitc_weak_join")),
        "weak-join cfg variants not found; sites: {join_sites:?}"
    );

    // The default audit must pass (weak sites inactive)...
    assert!(audit(&scan.sites, &scan.annotations, &[]).is_empty());
    // ...and the weakened configuration must be rejected: its Relaxed
    // end_scan decrement. (Dropping the bias changes the value
    // `begin_scan` stores, not an ordering — begin_scan's store is Relaxed
    // by design — so that half is the model checker's to catch.)
    let problems = audit(&scan.sites, &scan.annotations, &["nabbitc_weak_join"]);
    let join_violations: Vec<_> = problems
        .iter()
        .filter(|p| p.contains("ordering violation") && p.contains("core/join.rs"))
        .collect();
    assert!(
        join_violations
            .iter()
            .any(|p| p.contains("end_scan_fired::count.fetch_sub(Relaxed)")),
        "weak-join canary not flagged; problems were:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn weak_close_canary_is_caught_statically() {
    let scan = scan_workspace().expect("scan workspace sources");
    // The swap and its load + store replacement coexist in the source
    // under opposite cfgs.
    let close_sites: Vec<_> = scan
        .sites
        .iter()
        .filter(|s| s.file == "core/join.rs" && s.func == "close")
        .collect();
    assert!(close_sites
        .iter()
        .any(|s| s.op == AtomicOp::Swap && s.cfg.as_deref() == Some("not(nabbitc_weak_close)")));
    for op in [AtomicOp::Load, AtomicOp::Store] {
        assert!(
            close_sites
                .iter()
                .any(|s| s.op == op && s.cfg.as_deref() == Some("nabbitc_weak_close")),
            "weak-close {} not found; sites: {close_sites:?}",
            op.name()
        );
    }

    // The default audit passes (weak sites inactive); the weakened
    // configuration has a load and a store no annotation covers, and
    // leaves the swap's annotation without a site.
    assert!(audit(&scan.sites, &scan.annotations, &[]).is_empty());
    let problems = audit(&scan.sites, &scan.annotations, &["nabbitc_weak_close"]);
    let unknown = |op: &str| {
        problems.iter().any(|p| {
            p.contains("unknown atomic site") && p.contains("core/join.rs") && p.contains(op)
        })
    };
    assert!(
        unknown("load(Acquire)") && unknown("store(Release)"),
        "weak-close canary not fully flagged; problems were:\n  {}",
        problems.join("\n  ")
    );
    assert!(problems
        .iter()
        .any(|p| p.contains("stale annotation") && p.contains("close::head.swap")));
}

#[test]
fn unknown_sites_and_downgrades_fail() {
    let scan = scan_workspace().expect("scan workspace sources");
    // A site no annotation covers, in a file that has annotations.
    let src = "fn brand_new() { mystery.load(Ordering::Relaxed); }";
    let sites = scan_source("runtime/deque.rs", src).unwrap();
    let problems = audit(&sites, &scan.annotations, &[]);
    assert!(
        problems.iter().any(|p| p.contains("unknown atomic site")
            && p.contains("runtime/deque.rs:1 brand_new::mystery.load")),
        "{problems:?}"
    );

    // The same site in a crate with no annotation at all must fail too —
    // workspace discovery closes that gap.
    let sites = scan_source("cost/model.rs", src).unwrap();
    let problems = audit(&sites, &scan.annotations, &[]);
    assert!(
        problems.iter().any(|p| p.contains("unknown atomic site")),
        "{problems:?}"
    );

    // An annotated site with a weakened ordering: the thief's top Acquire
    // -> Relaxed, against the annotation `claim` really carries.
    let src = "fn claim(&self) { let t = self.top.load(Ordering::Relaxed); }";
    let sites = scan_source("runtime/deque.rs", src).unwrap();
    let problems = audit(&sites, &scan.annotations, &[]);
    assert!(
        problems.iter().any(|p| p.contains("ordering violation")
            && p.contains("runtime/deque.rs:1 claim::top.load(Relaxed)")),
        "{problems:?}"
    );

    // A compare_exchange whose failure ordering alone is upgraded still
    // mismatches the annotated SeqCst/Relaxed sequence.
    let src = "fn pop(&self) { let _ = self.top.compare_exchange(t, t + 1, \
               Ordering::SeqCst, Ordering::SeqCst); }";
    let sites = scan_source("runtime/deque.rs", src).unwrap();
    let problems = audit(&sites, &scan.annotations, &[]);
    assert!(
        problems.iter().any(|p| p.contains("ordering violation")),
        "{problems:?}"
    );
}

#[test]
fn allowlisted_harness_sites_are_exempt_from_policy_matching() {
    let src = "\
fn scenario() {
    effects.fetch_add(1, Ordering::Relaxed);
}
";
    let sites = scan_source("check/model.rs", src).unwrap();
    assert_eq!(sites.len(), 1, "site must still be discovered and counted");
    // No annotation exists for it, and none is required...
    assert!(audit(&sites, &[], &[]).is_empty());
    // ...and one written there could never be checked, so it is reported.
    let annotated = src.replace(
        "    effects",
        "    // ORDERING effects.fetch_add: Relaxed — counter\n    effects",
    );
    let notes = scan_annotations("check/model.rs", &annotated).unwrap();
    let problems = audit(&sites, &notes, &[]);
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(
        problems[0].contains("unreachable annotation") && problems[0].contains("check/model.rs:2"),
        "{problems:?}"
    );
}

#[test]
fn stale_allowlist_prefixes_fail() {
    // The bench crate has no atomic site, so against the real scan a
    // `bench/` entry exempts nothing and must be reported — and only it.
    let scan = scan_workspace().expect("scan workspace sources");
    let mut with_bench = SCAN_ALLOWLIST.to_vec();
    with_bench.push(AllowlistEntry {
        prefix: "bench/",
        why: "test",
    });
    let problems = audit_allowlist(&scan.sites, &with_bench);
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(
        problems[0].contains("stale allowlist entry") && problems[0].contains("\"bench/\""),
        "{problems:?}"
    );
}

#[test]
fn stale_annotations_fail() {
    // Auditing an empty site list: every annotation is stale, and says
    // where it stands.
    let scan = scan_workspace().expect("scan workspace sources");
    let problems = audit(&[], &scan.annotations, &[]);
    assert_eq!(problems.len(), scan.annotations.len());
    assert!(problems.iter().all(|p| p.contains("stale annotation")));
    assert!(problems
        .iter()
        .any(|p| p.contains("runtime/deque.rs:") && p.contains("pop::fence.fence")));
}

#[test]
fn publication_pairs_are_declared_and_valid() {
    let scan = scan_workspace().expect("scan workspace sources");
    let problems = audit_pairs(&scan.annotations);
    assert!(
        problems.is_empty(),
        "publication-pair audit failed:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn pair_audit_catches_orphans_and_bad_references() {
    // Each case is one file of annotations; the failure names the file,
    // the annotation's line and its site key.
    let failure = |src: &str| audit_pairs(&scan_annotations("x/y.rs", src).unwrap()).join("\n");

    // An Acquire load with no declared partner.
    let unpaired = failure("fn f() {\n // ORDERING flag.load: Acquire — reads the flag\n}");
    assert!(
        unpaired.contains("unpaired Acquire: x/y.rs:2 f::flag.load"),
        "{unpaired}"
    );

    // A Release store no one names.
    let orphan = failure("fn g() {\n // ORDERING flag.store: Release — sets the flag\n}");
    assert!(
        orphan.contains("orphaned Release: x/y.rs:2 g::flag.store"),
        "{orphan}"
    );

    // An Acquire naming a partner that does not exist.
    let dangling =
        failure("fn f() {\n // ORDERING flag.load: Acquire; pairs nope::flag.store — reads\n}");
    assert!(
        dangling
            .contains("x/y.rs:2 f::flag.load names nonexistent partner x/y.rs::nope::flag.store"),
        "{dangling}"
    );

    // An Acquire naming a partner that can never release (a Relaxed load).
    let weak_partner = failure(
        "fn f() {\n // ORDERING flag.load: Acquire; pairs g::flag.load — reads\n}\n\
         fn g() {\n // ORDERING flag.load: Relaxed — peeks\n}",
    );
    assert!(
        weak_partner.contains("x/y.rs:2 f::flag.load names x/y.rs::g::flag.load, which can never"),
        "{weak_partner}"
    );

    // A valid pair is clean.
    let good = failure(
        "fn f() {\n // ORDERING flag.load: Acquire; pairs g::flag.store — reads\n}\n\
         fn g() {\n // ORDERING flag.store: Release — sets\n}",
    );
    assert!(good.is_empty(), "{good}");
}

#[test]
fn facade_conformance_holds_workspace_wide() {
    let scan = scan_workspace().expect("scan workspace sources");
    let problems = audit_facade(&scan.files);
    assert!(
        problems.is_empty(),
        "facade audit failed:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn facade_escapes_are_flagged() {
    let fake = SourceFile {
        key: "core/fake.rs".to_string(),
        text: "use std::sync::atomic::AtomicUsize;\nfn f() {}\n".to_string(),
    };
    let problems = audit_facade(&[fake]);
    assert!(
        problems
            .iter()
            .any(|p| p.contains("facade escape") && p.contains("core/fake.rs:1")),
        "{problems:?}"
    );
    // With no files at all, every FACADE_EXEMPT entry is stale.
    let problems = audit_facade(&[]);
    assert!(
        problems
            .iter()
            .all(|p| p.contains("stale facade exemption")),
        "{problems:?}"
    );
    assert_eq!(problems.len(), nabbitc_lint::FACADE_EXEMPT.len());
}

#[test]
fn safety_comments_hold_workspace_wide() {
    let scan = scan_workspace().expect("scan workspace sources");
    let problems = audit_safety(&scan.files);
    assert!(
        problems.is_empty(),
        "SAFETY audit failed:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn annotations_are_internally_consistent() {
    // What the reader rejects outright, each with file and line.
    let rejected =
        |body: &str| scan_annotations("x/y.rs", &format!("fn f() {{\n{body}\n}}")).unwrap_err();
    let arity = rejected("// ORDERING top.compare_exchange: SeqCst — one ordering for a CAS");
    assert!(
        arity.contains("x/y.rs:2") && arity.contains("takes 2 ordering(s)"),
        "{arity}"
    );
    let arity = rejected("// ORDERING top.load: SeqCst/Relaxed — two orderings for a load");
    assert!(arity.contains("takes 1 ordering(s)"), "{arity}");
    let no_reason = rejected("// ORDERING top.load: Relaxed");
    assert!(no_reason.contains("missing ` — reason`"), "{no_reason}");
    let no_reason = rejected("// ORDERING top.load: Relaxed — ");
    assert!(no_reason.contains("missing ` — reason`"), "{no_reason}");
    let duplicate =
        rejected("// ORDERING top.load: Relaxed — once\n//\n// ORDERING top.load: Acquire — twice");
    assert!(
        duplicate.contains("x/y.rs:4: duplicate annotation for f::top.load")
            && duplicate.contains("line 2"),
        "{duplicate}"
    );

    // An annotation in a test module is not read: the module is out of
    // audit scope, sites and annotations alike.
    let in_tests = "\
fn f() {}
#[cfg(test)]
mod tests {
    fn t() {
        // ORDERING b.load: SeqCst — test only
        b.load(Ordering::SeqCst);
    }
}
";
    assert!(scan_annotations("x/y.rs", in_tests).unwrap().is_empty());

    // What the table's version of this test also asserted of the committed
    // rows holds by construction now: an annotation is read from a scanned
    // file, its file is part of its key (so the per-file duplicate check
    // is the workspace-wide one), and one under an allowlisted prefix
    // fails `audit` as unreachable.
    for a in SCAN_ALLOWLIST {
        assert!(!a.why.is_empty(), "{}: missing allowlist reason", a.prefix);
    }
    for e in nabbitc_lint::FACADE_EXEMPT {
        assert!(!e.why.is_empty(), "{}: missing exemption reason", e.file);
    }
}
