//! Source-level concurrency audit for the whole workspace.
//!
//! The audit discovers every `.rs` file under `crates/*/src` and runs
//! four passes over them:
//!
//! 1. **Per-site ordering audit** ([`scan_workspace`] + [`audit`]):
//!    every atomic operation site must match an entry in the committed
//!    policy table ([`crate::policy::POLICY`]) and use one of its allowed
//!    ordering sequences. Harness code (the model checker) is covered
//!    by an explicit per-file allowlist
//!    ([`crate::policy::SCAN_ALLOWLIST`]) instead — its sites are still
//!    discovered and counted, but not policy-matched. The audit is
//!    strict in both directions: an unknown site fails (new atomics must
//!    be justified before they land), and a policy entry matching no site
//!    or an allowlist prefix covering no site ([`audit_allowlist`]) fails
//!    (neither table can rot).
//! 2. **Publication-pair audit** ([`audit_pairs`]): every policy entry
//!    with Acquire semantics must name, in its `pairs_with` field, the
//!    release-capable entry (or entries) it synchronizes with, and every
//!    entry with Release semantics must be named by someone — an
//!    orphaned Release store is either dead publication or an
//!    undocumented reader, and both deserve a failure.
//! 3. **Facade conformance** ([`audit_facade`]): product code must reach
//!    atomics and locks through the `nabbitc_runtime::sync` facade (so
//!    the `--cfg nabbitc_check` loom shim covers it); direct
//!    `std::sync::atomic` / `parking_lot` references outside the facade
//!    are failures unless a [`crate::policy::FACADE_EXEMPT`] entry
//!    justifies them (the one legitimate case: `Condvar`, which has no
//!    loom shim).
//! 4. **SAFETY comments** ([`audit_safety`]): every `unsafe` token in
//!    non-test code must have a `SAFETY`/`# Safety` justification on the
//!    same or a nearby preceding line.
//!
//! A site passes the ordering audit only if its ordering *sequence*
//! equals one of the allowed sequences, so a downgrade (e.g. the seeded
//! `nabbitc_weak_pop` canary turning the `SeqCst` pop fence into
//! `Release`, or `nabbitc_weak_join` relaxing the join-counter scan) is
//! caught statically, without building or running the weakened code —
//! as is a rewrite into operations the table has no row for
//! (`nabbitc_weak_close` splitting the successor list's closing `swap`
//! into a `load` and a `store`).
//!
//! The scanner is a purpose-built lexer, not a Rust parser: it masks
//! comments, strings, and char literals, truncates each file at its test
//! module, tracks `fn` names and per-line `#[cfg(...)]` attributes, and
//! then pattern-matches the seven atomic operations the workspace
//! actually uses. A same-named non-atomic call (`Vec::swap`, a config
//! `load`) is recognized by its missing `Ordering` argument and skipped
//! — an atomic op cannot be spelled without one — while a call with the
//! wrong *number* of orderings still fails loudly.

use std::fmt;
use std::path::{Path, PathBuf};

/// The five `std::sync::atomic::Ordering` variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicOrdering {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

impl AtomicOrdering {
    /// Parses an ordering identifier (`"Relaxed"`, `"SeqCst"`, ...).
    pub fn parse(s: &str) -> Option<AtomicOrdering> {
        match s {
            "Relaxed" => Some(AtomicOrdering::Relaxed),
            "Acquire" => Some(AtomicOrdering::Acquire),
            "Release" => Some(AtomicOrdering::Release),
            "AcqRel" => Some(AtomicOrdering::AcqRel),
            "SeqCst" => Some(AtomicOrdering::SeqCst),
            _ => None,
        }
    }
}

impl fmt::Display for AtomicOrdering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The atomic operations the workspace uses. `orderings()` is how many
/// ordering arguments each takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicOp {
    Load,
    Store,
    Swap,
    FetchAdd,
    FetchSub,
    CompareExchange,
    Fence,
}

impl AtomicOp {
    /// All ops the scanner recognizes, with their source spelling.
    const ALL: [(AtomicOp, &'static str); 7] = [
        (AtomicOp::Load, "load"),
        (AtomicOp::Store, "store"),
        (AtomicOp::Swap, "swap"),
        (AtomicOp::FetchAdd, "fetch_add"),
        (AtomicOp::FetchSub, "fetch_sub"),
        (AtomicOp::CompareExchange, "compare_exchange"),
        (AtomicOp::Fence, "fence"),
    ];

    /// Source spelling (`"fetch_add"`).
    pub fn name(self) -> &'static str {
        Self::ALL.iter().find(|(op, _)| *op == self).unwrap().1
    }

    /// Number of `Ordering` arguments (`compare_exchange` takes success
    /// and failure orderings; everything else takes one).
    pub fn orderings(self) -> usize {
        if self == AtomicOp::CompareExchange {
            2
        } else {
            1
        }
    }
}

/// One atomic operation in the workspace sources.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomicSite {
    /// Crate-qualified file key (`"runtime/deque.rs"`, `"core/join.rs"`):
    /// the crate's directory name under `crates/` plus the path relative
    /// to its `src/`.
    pub file: String,
    /// Enclosing `fn` name (`"steal_impl"`), or `"<module>"` at file
    /// scope.
    pub func: String,
    /// Receiver field/variable (`"top"`), or `"fence"` for fences.
    pub symbol: String,
    /// Which operation.
    pub op: AtomicOp,
    /// The ordering arguments, in source order.
    pub orderings: Vec<AtomicOrdering>,
    /// 1-based source line of the operation name.
    pub line: usize,
    /// Inner text of a `#[cfg(...)]` attribute guarding the statement,
    /// if any (`"not(nabbitc_weak_pop)"`).
    pub cfg: Option<String>,
}

impl AtomicSite {
    /// Compact one-line rendering used in audit failure messages.
    pub fn describe(&self) -> String {
        let ords: Vec<String> = self.orderings.iter().map(|o| o.to_string()).collect();
        let cfg = match &self.cfg {
            Some(c) => format!(" cfg({c})"),
            None => String::new(),
        };
        format!(
            "{}:{} {}::{}.{}({}){}",
            self.file,
            self.line,
            self.func,
            self.symbol,
            self.op.name(),
            ords.join(", "),
            cfg
        )
    }
}

/// One discovered source file: its crate-qualified key and full text.
/// Kept around so the facade and SAFETY passes run over exactly the set
/// of files the ordering audit saw.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Crate-qualified key (`"runtime/deque.rs"`).
    pub key: String,
    /// The file's raw text.
    pub text: String,
}

/// Everything the workspace discovery found: the atomic sites and the
/// files they came from.
#[derive(Debug, Clone)]
pub struct WorkspaceScan {
    /// Every atomic site in non-test code, across all crates.
    pub sites: Vec<AtomicSite>,
    /// Every discovered `.rs` file under `crates/*/src`.
    pub files: Vec<SourceFile>,
}

/// Absolute path of the workspace's `crates/` directory, resolved
/// relative to this crate so the audit works from any working directory.
pub fn crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .to_path_buf()
}

/// Discovers and scans every `.rs` file under `crates/*/src`.
///
/// On failure returns **all** problems at once — every unreadable file
/// and every file the lexer could not make sense of — so one broken file
/// does not hide the next.
pub fn scan_workspace() -> Result<WorkspaceScan, Vec<String>> {
    scan_crates_root(&crates_dir())
}

/// [`scan_workspace`] against an explicit crates root (testable).
pub fn scan_crates_root(root: &Path) -> Result<WorkspaceScan, Vec<String>> {
    let mut errors = Vec::new();
    let mut files = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = match std::fs::read_dir(root) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect(),
        Err(e) => return Err(vec![format!("cannot read {}: {e}", root.display())]),
    };
    crate_dirs.sort();
    for cdir in &crate_dirs {
        let src = cdir.join("src");
        if !src.is_dir() {
            continue;
        }
        let crate_name = cdir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut paths = Vec::new();
        walk_rs(&src, &mut paths, &mut errors);
        paths.sort();
        for path in paths {
            let rel = path.strip_prefix(&src).expect("walked under src");
            let key = format!("{crate_name}/{}", rel.display());
            match std::fs::read_to_string(&path) {
                Ok(text) => files.push(SourceFile { key, text }),
                Err(e) => errors.push(format!("cannot read {}: {e}", path.display())),
            }
        }
    }
    let mut sites = Vec::new();
    for f in &files {
        match scan_source(&f.key, &f.text) {
            Ok(s) => sites.extend(s),
            Err(e) => errors.push(e),
        }
    }
    if errors.is_empty() {
        Ok(WorkspaceScan { sites, files })
    } else {
        Err(errors)
    }
}

/// Collects every `.rs` file under `dir`, recursively. Directory read
/// errors are reported, not fatal, so the caller sees all of them.
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>, errors: &mut Vec<String>) {
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) => {
            errors.push(format!("cannot read {}: {e}", dir.display()));
            return;
        }
    };
    for entry in rd.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out, errors);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Scans one file's source text. `file` is the crate-qualified key
/// recorded on each site.
pub fn scan_source(file: &str, src: &str) -> Result<Vec<AtomicSite>, String> {
    let src = truncate_at_test_module(src);
    let masked = mask_non_code(src);
    let line_starts = line_start_offsets(&masked);
    let cfgs = cfg_by_line(&masked);
    let fns = fn_starts(&masked);
    let mut sites = Vec::new();
    for (op, spelled) in AtomicOp::ALL {
        let needle = if op == AtomicOp::Fence {
            "fence(".to_string()
        } else {
            format!(".{spelled}(")
        };
        let mut from = 0;
        while let Some(rel) = masked[from..].find(&needle) {
            let at = from + rel;
            from = at + needle.len();
            if op == AtomicOp::Fence {
                // Reject `compiler_fence(` and any `foo.fence(`.
                let prev = masked[..at].chars().next_back();
                if prev.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.') {
                    continue;
                }
            }
            let line = line_of(&line_starts, at);
            let symbol = if op == AtomicOp::Fence {
                "fence".to_string()
            } else {
                receiver_symbol(&masked, at)
                    .ok_or_else(|| format!("{file}:{line}: no receiver before .{spelled}("))?
            };
            let args_start = at + needle.len();
            let args = balanced_span(&masked, args_start - 1)
                .ok_or_else(|| format!("{file}:{line}: unbalanced parens in {spelled} call"))?;
            let found = ordering_idents(&masked[args_start..args]);
            if found.is_empty() {
                // A same-named non-atomic method (`Vec::swap`, a config
                // `load`): atomics cannot be called without an
                // `Ordering` argument, so this is not a site.
                continue;
            }
            let need = op.orderings();
            if found.len() < need {
                return Err(format!(
                    "{file}:{line}: {symbol}.{spelled}(...) has {} ordering argument(s), \
                     expected at least {need}",
                    found.len()
                ));
            }
            let orderings = found[found.len() - need..].to_vec();
            sites.push(AtomicSite {
                file: file.to_string(),
                func: enclosing_fn(&fns, at),
                symbol,
                op,
                orderings,
                line,
                cfg: cfgs.get(line - 1).cloned().flatten(),
            });
        }
    }
    sites.sort_by_key(|s| (s.line, s.op.name()));
    Ok(sites)
}

/// Runs the per-site ordering audit: every active site must match a
/// policy entry and use an allowed ordering sequence, and every policy
/// entry must match at least one active site. Sites in files covered by
/// [`crate::policy::SCAN_ALLOWLIST`] (harness code) are exempt from the
/// match requirement. Returns the list of problems (empty = pass).
///
/// `active_cfgs` is the set of enabled `--cfg` flags; sites guarded by a
/// `#[cfg(...)]` that evaluates false are skipped, which is how the
/// default audit sees the `SeqCst` pop fence while an audit with
/// `"nabbitc_weak_pop"` active sees — and rejects — the `Release` one.
pub fn audit(
    sites: &[AtomicSite],
    policy: &[crate::policy::PolicyEntry],
    active_cfgs: &[&str],
) -> Vec<String> {
    let mut problems = Vec::new();
    let active: Vec<&AtomicSite> = sites
        .iter()
        .filter(|s| cfg_active(s.cfg.as_deref(), active_cfgs))
        .collect();
    let mut matched = vec![false; policy.len()];
    for site in &active {
        let entry = policy.iter().enumerate().find(|(_, e)| {
            e.file == site.file && e.func == site.func && e.symbol == site.symbol && e.op == site.op
        });
        match entry {
            None => {
                let allowlisted = crate::policy::SCAN_ALLOWLIST
                    .iter()
                    .any(|a| site.file.starts_with(a.prefix));
                if !allowlisted {
                    problems.push(format!("unknown atomic site: {}", site.describe()));
                }
            }
            Some((i, e)) => {
                matched[i] = true;
                let ok = e
                    .allowed
                    .iter()
                    .any(|seq| seq == &site.orderings.as_slice());
                if !ok {
                    let allowed: Vec<String> = e
                        .allowed
                        .iter()
                        .map(|seq| {
                            let s: Vec<String> = seq.iter().map(|o| o.to_string()).collect();
                            format!("({})", s.join(", "))
                        })
                        .collect();
                    problems.push(format!(
                        "ordering violation: {} — policy allows {} ({})",
                        site.describe(),
                        allowed.join(" or "),
                        e.why
                    ));
                }
            }
        }
    }
    for (i, e) in policy.iter().enumerate() {
        if !matched[i] {
            problems.push(format!(
                "stale policy entry: {}::{} {}.{} matches no active site",
                e.file,
                e.func,
                e.symbol,
                e.op.name()
            ));
        }
    }
    problems
}

/// Stale-allowlist check, the [`audit`] counterpart for
/// [`crate::policy::SCAN_ALLOWLIST`]: a prefix under which the scan found
/// no atomic site exempts nothing today and would silently exempt
/// whatever lands there later, so it is reported.
pub fn audit_allowlist(
    sites: &[AtomicSite],
    allowlist: &[crate::policy::AllowlistEntry],
) -> Vec<String> {
    allowlist
        .iter()
        .filter(|a| !sites.iter().any(|s| s.file.starts_with(a.prefix)))
        .map(|a| {
            format!(
                "stale allowlist entry: prefix {:?} covers no scanned atomic site",
                a.prefix
            )
        })
        .collect()
}

/// Renders the `pairs_with` key of a policy entry
/// (`"runtime/deque.rs::push::fence.fence"`).
fn pair_key(e: &crate::policy::PolicyEntry) -> String {
    format!("{}::{}::{}.{}", e.file, e.func, e.symbol, e.op.name())
}

/// Publication-pair audit over the policy table itself.
///
/// * Every `pairs_with` reference must name an existing entry that can
///   actually perform a release (a non-`load` op allowing `Release`,
///   `AcqRel`, or `SeqCst`).
/// * Every entry with Acquire semantics (`Acquire` or `AcqRel` in an
///   allowed sequence) must declare its partner(s) — an Acquire that
///   synchronizes with nothing nameable is a smell worth a failure.
/// * Every pure-Release entry (allows `Release`/`AcqRel`, no Acquire
///   side of its own) must be *named by* some entry — an orphaned
///   Release store is dead publication or an undocumented reader.
///
/// `SeqCst`-only sites (the pool control plane) may pair but are not
/// required to: their correctness argument is the single total order,
/// not a specific release/acquire edge.
pub fn audit_pairs(policy: &[crate::policy::PolicyEntry]) -> Vec<String> {
    use AtomicOrdering::{AcqRel, Acquire, Release, SeqCst};
    let has = |e: &crate::policy::PolicyEntry, o: AtomicOrdering| {
        e.allowed.iter().any(|seq| seq.contains(&o))
    };
    let release_capable = |e: &crate::policy::PolicyEntry| {
        e.op != AtomicOp::Load && (has(e, Release) || has(e, AcqRel) || has(e, SeqCst))
    };
    let mut problems = Vec::new();
    let mut referenced: std::collections::HashSet<String> = std::collections::HashSet::new();
    for e in policy {
        for p in e.pairs_with {
            match policy.iter().find(|c| pair_key(c) == *p) {
                None => problems.push(format!(
                    "publication pair: {} names nonexistent partner {p}",
                    pair_key(e)
                )),
                Some(partner) => {
                    if !release_capable(partner) {
                        problems.push(format!(
                            "publication pair: {} names {p}, which can never perform a release \
                             ({} with no Release/AcqRel/SeqCst write)",
                            pair_key(e),
                            partner.op.name()
                        ));
                    }
                    referenced.insert((*p).to_string());
                }
            }
        }
    }
    for e in policy {
        let k = pair_key(e);
        let acquire_side = has(e, Acquire) || has(e, AcqRel);
        if acquire_side && e.pairs_with.is_empty() {
            problems.push(format!(
                "unpaired Acquire: {k} must name the Release site(s) it synchronizes with \
                 in pairs_with"
            ));
        }
        let pure_release =
            !acquire_side && e.op != AtomicOp::Load && (has(e, Release) || has(e, AcqRel));
        if pure_release && !referenced.contains(&k) {
            problems.push(format!(
                "orphaned Release: {k} is named by no Acquire site's pairs_with — dead \
                 publication or an undocumented reader"
            ));
        }
    }
    problems
}

/// Facade-conformance pass: non-test product code must not reference
/// `std::sync::atomic` or `parking_lot` directly — those go through the
/// `nabbitc_runtime::sync` facade so the loom shim covers them under
/// `--cfg nabbitc_check`. Harness files ([`crate::policy::SCAN_ALLOWLIST`])
/// are out of scope; justified exceptions live in
/// [`crate::policy::FACADE_EXEMPT`], and an exemption matching no
/// occurrence is itself a failure.
pub fn audit_facade(files: &[SourceFile]) -> Vec<String> {
    const TOKENS: [&str; 2] = ["std::sync::atomic", "parking_lot"];
    let mut problems = Vec::new();
    let mut used = vec![false; crate::policy::FACADE_EXEMPT.len()];
    for f in files {
        if crate::policy::SCAN_ALLOWLIST
            .iter()
            .any(|a| f.key.starts_with(a.prefix))
        {
            continue;
        }
        let text = truncate_at_test_module(&f.text);
        let masked = mask_non_code(text);
        let starts = line_start_offsets(&masked);
        for token in TOKENS {
            let mut from = 0;
            while let Some(rel) = masked[from..].find(token) {
                let at = from + rel;
                from = at + token.len();
                if let Some(i) = crate::policy::FACADE_EXEMPT
                    .iter()
                    .position(|e| e.file == f.key && e.token == token)
                {
                    used[i] = true;
                    continue;
                }
                problems.push(format!(
                    "facade escape: {}:{} references `{token}` directly; route it through \
                     nabbitc_runtime::sync or add a justified FACADE_EXEMPT entry",
                    f.key,
                    line_of(&starts, at)
                ));
            }
        }
    }
    for (i, e) in crate::policy::FACADE_EXEMPT.iter().enumerate() {
        if !used[i] {
            problems.push(format!(
                "stale facade exemption: {} / `{}` matches no source occurrence",
                e.file, e.token
            ));
        }
    }
    problems
}

/// How many preceding raw-source lines [`audit_safety`] searches for a
/// `SAFETY` / `# Safety` justification.
pub const SAFETY_WINDOW: usize = 8;

/// SAFETY-comment pass: every `unsafe` token in non-test code must have
/// a `SAFETY` or `# Safety` marker on its own line or within the
/// [`SAFETY_WINDOW`] preceding lines (which covers both `// SAFETY:`
/// block comments and `/// # Safety` doc sections on `unsafe fn`s).
pub fn audit_safety(files: &[SourceFile]) -> Vec<String> {
    let mut problems = Vec::new();
    for f in files {
        let text = truncate_at_test_module(&f.text);
        let masked = mask_non_code(text);
        let starts = line_start_offsets(&masked);
        let raw_lines: Vec<&str> = text.lines().collect();
        let bytes = masked.as_bytes();
        let mut from = 0;
        while let Some(rel) = masked[from..].find("unsafe") {
            let at = from + rel;
            from = at + "unsafe".len();
            let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
            if at > 0 && ident(bytes[at - 1]) {
                continue;
            }
            if bytes.get(at + "unsafe".len()).is_some_and(|b| ident(*b)) {
                continue;
            }
            let line = line_of(&starts, at);
            let line0 = line - 1;
            let has_marker = |l: &str| l.contains("SAFETY") || l.contains("# Safety");
            // Same-line marker counts; otherwise walk backwards up to
            // SAFETY_WINDOW lines, stopping at the first line that closes
            // a block (`}` in *code*, so comments can't form barriers) —
            // a SAFETY comment from an earlier scope must not justify
            // this site.
            let mut justified = has_marker(raw_lines[line0]);
            if !justified {
                let masked_lines: Vec<&str> = masked.lines().collect();
                for i in (line0.saturating_sub(SAFETY_WINDOW)..line0).rev() {
                    if has_marker(raw_lines[i]) {
                        justified = true;
                        break;
                    }
                    if masked_lines[i].contains('}') {
                        break;
                    }
                }
            }
            if !justified {
                problems.push(format!(
                    "undocumented unsafe: {}:{line} has no SAFETY justification within the \
                     {SAFETY_WINDOW} preceding lines",
                    f.key
                ));
            }
        }
    }
    problems
}

/// Evaluates a site's `#[cfg(...)]` guard against the active flag set.
/// Supports the two forms the workspace uses: a bare flag name and
/// `not(name)`. Anything else is treated as active (and will then fail
/// as an unknown site unless the policy covers it).
fn cfg_active(cfg: Option<&str>, active: &[&str]) -> bool {
    match cfg {
        None => true,
        Some(c) => {
            let c = c.trim();
            if let Some(inner) = c.strip_prefix("not(").and_then(|r| r.strip_suffix(')')) {
                !active.contains(&inner.trim())
            } else if c.chars().all(|ch| ch.is_alphanumeric() || ch == '_') {
                active.contains(&c)
            } else {
                true
            }
        }
    }
}

/// Cuts the source at the first `#[cfg(...test...)]` attribute line, which
/// in this workspace always introduces the test module. Test-only
/// atomics (loom models, stress harnesses) are out of audit scope.
fn truncate_at_test_module(src: &str) -> &str {
    let mut offset = 0;
    for line in src.split_inclusive('\n') {
        let t = line.trim_start();
        if t.starts_with("#[cfg(") && t.contains("test") {
            return &src[..offset];
        }
        offset += line.len();
    }
    src
}

/// Replaces comments, string literals, and char literals with spaces,
/// preserving byte offsets and newlines so line numbers stay exact.
fn mask_non_code(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 0;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                out[i] = b' ';
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' {
                        out[i] = b' ';
                        if i + 1 < bytes.len() && bytes[i + 1] != b'\n' {
                            out[i + 1] = b' ';
                        }
                        i += 2;
                    } else if bytes[i] == b'"' {
                        out[i] = b' ';
                        i += 1;
                        break;
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'\'' => {
                // Char literal: 'x' or '\n'. Lifetimes ('a) have no
                // closing quote in range; leave them untouched.
                let close = if bytes.get(i + 1) == Some(&b'\\') {
                    i + 3
                } else {
                    i + 2
                };
                if bytes.get(close) == Some(&b'\'') {
                    for b in out.iter_mut().take(close + 1).skip(i) {
                        *b = b' ';
                    }
                    i = close + 1;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("masking only writes ASCII spaces")
}

/// Byte offsets where each line begins.
fn line_start_offsets(src: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in src.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// 1-based line number of a byte offset.
fn line_of(starts: &[usize], offset: usize) -> usize {
    starts.partition_point(|&s| s <= offset)
}

/// Per-line cfg guard: a `#[cfg(...)]` attribute line applies to the
/// next non-attribute, non-blank line (the statement-level form the
/// workspace uses, e.g. the weak-pop fence pair and the weak-join
/// counter ops).
fn cfg_by_line(src: &str) -> Vec<Option<String>> {
    let mut out = Vec::new();
    let mut pending: Option<String> = None;
    for line in src.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("#[cfg(") {
            if let Some(inner) = rest.strip_suffix(")]") {
                out.push(None);
                pending = Some(inner.to_string());
                continue;
            }
        }
        if t.starts_with("#[") || t.is_empty() {
            out.push(None);
            continue;
        }
        out.push(pending.take());
    }
    out
}

/// `(offset, name)` of every `fn` item, in order.
fn fn_starts(src: &str) -> Vec<(usize, String)> {
    let bytes = src.as_bytes();
    let mut fns = Vec::new();
    let mut from = 0;
    while let Some(rel) = src[from..].find("fn ") {
        let at = from + rel;
        from = at + 3;
        let prev = src[..at].chars().next_back();
        if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        let mut j = at + 3;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        if j > at + 3 {
            fns.push((at, src[at + 3..j].to_string()));
        }
    }
    fns
}

/// Name of the last `fn` starting before `offset`.
fn enclosing_fn(fns: &[(usize, String)], offset: usize) -> String {
    let idx = fns.partition_point(|(at, _)| *at < offset);
    if idx == 0 {
        "<module>".to_string()
    } else {
        fns[idx - 1].1.clone()
    }
}

/// Walks back from the `.` at `dot` over whitespace and reads the
/// receiver identifier (handles multi-line `stats\n.field\n.store(...)`
/// chains). An indexed receiver (`state.join[s as usize].fetch_sub`)
/// resolves to the indexed field (`join`): the balanced `[...]` suffix
/// is skipped first.
fn receiver_symbol(src: &str, dot: usize) -> Option<String> {
    let bytes = src.as_bytes();
    let mut i = dot;
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    if i > 0 && bytes[i - 1] == b']' {
        let mut depth = 0i32;
        while i > 0 {
            match bytes[i - 1] {
                b']' => depth += 1,
                b'[' => {
                    depth -= 1;
                    if depth == 0 {
                        i -= 1;
                        break;
                    }
                }
                _ => {}
            }
            i -= 1;
        }
    }
    let end = i;
    while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        i -= 1;
    }
    if i == end {
        None
    } else {
        Some(src[i..end].to_string())
    }
}

/// Given the offset of an opening `(`, returns the offset of its
/// matching `)`.
fn balanced_span(src: &str, open: usize) -> Option<usize> {
    let mut depth = 0;
    for (i, b) in src.bytes().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Ordering identifiers appearing in an argument span, in order. Matches
/// both qualified (`Ordering::SeqCst`) and bare (`SeqCst`) spellings —
/// `stats.rs` imports the variants directly.
fn ordering_idents(span: &str) -> Vec<AtomicOrdering> {
    let bytes = span.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            if let Some(o) = AtomicOrdering::parse(&span[start..i]) {
                out.push(o);
            }
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_simple_ops_with_fn_and_symbol() {
        let src = "\
fn push(&self) {
    let b = self.bottom.load(Ordering::Relaxed);
    self.bottom.store(b + 1, Ordering::Release);
}
fn check() {
    fence(Ordering::SeqCst);
}
";
        let sites = scan_source("x.rs", src).unwrap();
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[0].func, "push");
        assert_eq!(sites[0].symbol, "bottom");
        assert_eq!(sites[0].op, AtomicOp::Load);
        assert_eq!(sites[0].orderings, vec![AtomicOrdering::Relaxed]);
        assert_eq!(sites[0].line, 2);
        assert_eq!(sites[2].func, "check");
        assert_eq!(sites[2].symbol, "fence");
        assert_eq!(sites[2].orderings, vec![AtomicOrdering::SeqCst]);
    }

    #[test]
    fn handles_multiline_receivers_and_bare_orderings() {
        let src = "\
fn f(stats: &S) {
    stats
        .idle_ns
        .fetch_add(1, Relaxed);
    let _ = x
        .top
        .compare_exchange(t, t + 1, SeqCst, Relaxed);
}
";
        let sites = scan_source("x.rs", src).unwrap();
        assert_eq!(sites[0].symbol, "idle_ns");
        assert_eq!(sites[0].op, AtomicOp::FetchAdd);
        assert_eq!(sites[1].symbol, "top");
        assert_eq!(
            sites[1].orderings,
            vec![AtomicOrdering::SeqCst, AtomicOrdering::Relaxed]
        );
    }

    #[test]
    fn indexed_receiver_resolves_to_the_indexed_field() {
        let src = "fn run() { if state.join[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {} }";
        let sites = scan_source("x.rs", src).unwrap();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].symbol, "join");
        assert_eq!(sites[0].op, AtomicOp::FetchSub);
        let nested = "fn g() { grid[idx[i]].store(1, Ordering::Release); }";
        let sites = scan_source("x.rs", nested).unwrap();
        assert_eq!(sites[0].symbol, "grid");
    }

    #[test]
    fn nested_calls_yield_two_sites_with_right_orderings() {
        let src = "fn grow() { ns.ptr.store(os.ptr.load(Ordering::Acquire), Ordering::Release); }";
        let mut sites = scan_source("x.rs", src).unwrap();
        sites.sort_by_key(|s| s.op.name());
        assert_eq!(sites.len(), 2);
        let load = sites.iter().find(|s| s.op == AtomicOp::Load).unwrap();
        let store = sites.iter().find(|s| s.op == AtomicOp::Store).unwrap();
        assert_eq!(load.orderings, vec![AtomicOrdering::Acquire]);
        assert_eq!(store.orderings, vec![AtomicOrdering::Release]);
    }

    #[test]
    fn masks_comments_strings_and_chars() {
        let src = "\
fn f() {
    // self.fake.load(Ordering::Relaxed)
    let s = \".store(Ordering::SeqCst)\";
    let c = ',';
    real.load(Ordering::Acquire);
}
";
        let sites = scan_source("x.rs", src).unwrap();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].symbol, "real");
    }

    #[test]
    fn cfg_attribute_attaches_to_next_statement() {
        let src = "\
fn pop() {
    #[cfg(not(weak))]
    fence(Ordering::SeqCst);
    #[cfg(weak)]
    fence(Ordering::Release);
}
";
        let sites = scan_source("x.rs", src).unwrap();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].cfg.as_deref(), Some("not(weak)"));
        assert_eq!(sites[1].cfg.as_deref(), Some("weak"));
        assert!(cfg_active(sites[0].cfg.as_deref(), &[]));
        assert!(!cfg_active(sites[0].cfg.as_deref(), &["weak"]));
        assert!(!cfg_active(sites[1].cfg.as_deref(), &[]));
        assert!(cfg_active(sites[1].cfg.as_deref(), &["weak"]));
    }

    #[test]
    fn test_module_is_out_of_scope() {
        let src = "\
fn f() { a.load(Ordering::Relaxed); }
#[cfg(test)]
mod tests {
    fn t() { b.load(Ordering::SeqCst); }
}
";
        let sites = scan_source("x.rs", src).unwrap();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].symbol, "a");
    }

    #[test]
    fn non_atomic_lookalikes_are_skipped_but_arity_still_bites() {
        let src = "fn f() { compiler_fence(Ordering::SeqCst); }";
        assert!(scan_source("x.rs", src).unwrap().is_empty());
        // `Vec::swap` / `mem::swap` style calls carry no Ordering: not
        // atomic sites.
        let vec_swap = "fn f() { v.swap(0, 1); picks.swap(i, j); }";
        assert!(scan_source("x.rs", vec_swap).unwrap().is_empty());
        // But an atomic op with too few orderings is still an error.
        let bad_cas = "fn f() { t.compare_exchange(a, b, Ordering::SeqCst); }";
        assert!(scan_source("x.rs", bad_cas).is_err());
    }

    #[test]
    fn safety_pass_accepts_nearby_markers_and_flags_bare_unsafe() {
        let file = SourceFile {
            key: "x/y.rs".to_string(),
            text: "\
fn ok() {
    // SAFETY: index is bounds-checked above.
    unsafe { do_it() };
}
/// # Safety
/// Caller must uphold the contract.
pub unsafe fn documented() {}
fn bad() {
    unsafe { oops() };
}
"
            .to_string(),
        };
        let problems = audit_safety(&[file]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("x/y.rs:9"), "{problems:?}");
    }

    #[test]
    fn scan_errors_are_collected_across_files_not_first_only() {
        let dir = std::env::temp_dir().join(format!("nabbitc-lint-scan-{}", std::process::id()));
        let src_a = dir.join("alpha").join("src");
        let src_b = dir.join("beta").join("src");
        std::fs::create_dir_all(&src_a).unwrap();
        std::fs::create_dir_all(&src_b).unwrap();
        // Both files are broken (an atomic op with too few orderings):
        // the scan must report both, not stop at the first.
        std::fs::write(
            src_a.join("a.rs"),
            "fn f() { t.compare_exchange(a, b, Ordering::SeqCst); }",
        )
        .unwrap();
        std::fs::write(
            src_b.join("b.rs"),
            "fn g() { u.compare_exchange(c, d, Ordering::AcqRel); }",
        )
        .unwrap();
        let errs = scan_crates_root(&dir).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("alpha/a.rs")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("beta/b.rs")), "{errs:?}");
    }
}
