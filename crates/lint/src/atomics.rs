//! Source-level concurrency audit for the whole workspace.
//!
//! The audit discovers every `.rs` file under `crates/*/src` and runs
//! four passes over them:
//!
//! 1. **Per-site ordering audit** ([`scan_workspace`] + [`audit`]):
//!    every atomic operation site must be covered by an `// ORDERING`
//!    annotation in the function that owns it ([`Annotation`]) and use
//!    one of the ordering sequences the annotation allows. Harness code
//!    (the model checker) is covered by an explicit per-file allowlist
//!    ([`crate::policy::SCAN_ALLOWLIST`]) instead — its sites are still
//!    discovered and counted, but not matched. The audit is strict in
//!    both directions: an unannotated site fails (new atomics must be
//!    justified where they stand), and an annotation matching no site or
//!    an allowlist prefix covering no site ([`audit_allowlist`]) fails
//!    (neither can rot).
//! 2. **Publication-pair audit** ([`audit_pairs`]): every annotation
//!    with Acquire semantics must name, after `pairs`, the
//!    release-capable annotation(s) it synchronizes with, and every
//!    annotation with Release semantics must be named by someone — an
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
//! # The `ORDERING` annotation
//!
//! A full-line `//` comment inside the function that owns the site:
//!
//! ```text
//! // ORDERING bottom.load: Acquire; pairs push::fence.fence,
//! // push_batch::fence.fence — synchronizes with the owner's push
//! // publication so the observed range is consistent
//! ```
//!
//! * `bottom.load` is the site key, `symbol.op`, within the enclosing
//!   `fn` (a fence is `fence`); file and function come from where the
//!   comment stands. Textually repeated sites and `#[cfg]` twins of one
//!   key share the one annotation.
//! * Then the allowed ordering sequence: one `Ordering` variant, or
//!   `Success/Failure` for a `compare_exchange`. A key that legitimately
//!   uses two orderings (the seqlock `seq`) lists alternatives with `|`;
//!   the audit cannot tell a swap between listed alternatives, which is
//!   acceptable where the protocol is separately model-checked.
//! * Optionally `; pairs` and a comma-separated list of the Release-side
//!   annotations this Acquire synchronizes with: `fn::symbol.op` in the
//!   same file, `crate/file.rs::fn::symbol.op` elsewhere.
//! * Then ` — ` and the reason, which may not be empty.
//!
//! The annotation runs on over the following `//` lines up to a blank
//! `//`, the next annotation or the end of the comment block.
//!
//! A site passes the ordering audit only if its ordering *sequence*
//! equals one of the allowed sequences, so a downgrade (e.g. the seeded
//! `nabbitc_weak_pop` canary turning the `SeqCst` pop fence into
//! `Release`, or `nabbitc_weak_join` relaxing the join-counter scan) is
//! caught statically, without building or running the weakened code —
//! as is a rewrite into operations no annotation covers
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

    /// The op spelled `s`, if the scanner recognizes it.
    pub fn parse(s: &str) -> Option<AtomicOp> {
        Self::ALL.iter().find(|(_, n)| *n == s).map(|(op, _)| *op)
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
    /// Enclosing `fn` name (`"claim"`), or `"<module>"` at file
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

/// One `// ORDERING` annotation: the reviewed orderings of one site key
/// (`symbol.op` within a function), read from the comment that stands in
/// that function. See the module docs for the grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// Crate-qualified key of the file the comment stands in.
    pub file: String,
    /// The `fn` enclosing the comment.
    pub func: String,
    /// Receiver field/variable, or `"fence"` for fences.
    pub symbol: String,
    /// The operation kind.
    pub op: AtomicOp,
    /// Allowed ordering sequences. A site passes iff its sequence equals
    /// one of these exactly (so `compare_exchange` success/failure pairs
    /// are checked together and downgrades of either fail).
    pub allowed: Vec<Vec<AtomicOrdering>>,
    /// Full keys (`"runtime/deque.rs::push::fence.fence"`) of the
    /// release-capable annotations this site's Acquire side synchronizes
    /// with. Verified by [`audit_pairs`].
    pub pairs: Vec<String>,
    /// The justification for the allowed orderings.
    pub why: String,
    /// 1-based source line of the `// ORDERING` comment.
    pub line: usize,
}

impl Annotation {
    /// The key other annotations name this one by in `pairs`
    /// (`"runtime/deque.rs::push::fence.fence"`).
    pub fn key(&self) -> String {
        format!("{}::{}", self.file, self.site())
    }

    /// The comment's place and site, for failure messages.
    fn describe(&self) -> String {
        format!("{}:{} {}", self.file, self.line, self.site())
    }

    fn site(&self) -> String {
        format!("{}::{}.{}", self.func, self.symbol, self.op.name())
    }

    fn has(&self, o: AtomicOrdering) -> bool {
        self.allowed.iter().any(|seq| seq.contains(&o))
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

/// Everything the workspace discovery found: the atomic sites, their
/// annotations and the files they came from.
#[derive(Debug, Clone)]
pub struct WorkspaceScan {
    /// Every atomic site in non-test code, across all crates.
    pub sites: Vec<AtomicSite>,
    /// Every `// ORDERING` annotation in non-test code.
    pub annotations: Vec<Annotation>,
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
    let mut annotations = Vec::new();
    for f in &files {
        match scan_source(&f.key, &f.text) {
            Ok(s) => sites.extend(s),
            Err(e) => errors.push(e),
        }
        match scan_annotations(&f.key, &f.text) {
            Ok(a) => annotations.extend(a),
            Err(e) => errors.push(e),
        }
    }
    if errors.is_empty() {
        Ok(WorkspaceScan {
            sites,
            annotations,
            files,
        })
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

/// Reads the `// ORDERING` annotations of one file's non-test code (the
/// grammar is in the module docs). A comment that starts with `ORDERING`
/// and a site key but does not parse — unknown op or ordering, wrong
/// ordering count for the op, a malformed `pairs` clause, no reason — is
/// an error, as is a second annotation for one key in one `fn`; prose
/// that merely mentions the word is not an annotation.
pub fn scan_annotations(file: &str, src: &str) -> Result<Vec<Annotation>, String> {
    let src = truncate_at_test_module(src);
    let masked = mask_non_code(src);
    let line_starts = line_start_offsets(&masked);
    let fns = fn_starts(&masked);
    // The text of a full-line `//` comment (doc comments are not read).
    let lines: Vec<Option<&str>> = src
        .lines()
        .zip(masked.lines())
        .map(|(raw, code)| {
            let text = raw.trim_start().strip_prefix("//")?;
            let plain = code.trim().is_empty() && !text.starts_with(['/', '!']);
            plain.then(|| text.trim())
        })
        .collect();
    let mut out: Vec<Annotation> = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let head = lines[i]
            .and_then(|t| t.strip_prefix("ORDERING "))
            .and_then(|t| t.split_once(':'))
            .filter(|(key, _)| {
                key.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            });
        let Some((key, rest)) = head else {
            i += 1;
            continue;
        };
        let line = i + 1;
        let mut body = rest.trim().to_string();
        i += 1;
        while let Some(Some(t)) = lines.get(i) {
            if t.is_empty() || t.starts_with("ORDERING ") {
                break;
            }
            body.push(' ');
            body.push_str(t);
            i += 1;
        }
        let func = enclosing_fn(&fns, line_starts[line - 1]);
        let a = parse_annotation(file, func, line, key, &body)
            .map_err(|e| format!("{file}:{line}: ORDERING {key}: {e}"))?;
        if let Some(first) = out
            .iter()
            .find(|b| b.func == a.func && b.symbol == a.symbol && b.op == a.op)
        {
            return Err(format!(
                "{file}:{line}: duplicate annotation for {}::{key} (first at line {})",
                a.func, first.line
            ));
        }
        out.push(a);
    }
    Ok(out)
}

/// Parses `key` and the joined comment text after its colon:
/// `<seq> [| <seq>]... [; pairs <key>, ...] — <reason>`.
fn parse_annotation(
    file: &str,
    func: String,
    line: usize,
    key: &str,
    body: &str,
) -> Result<Annotation, String> {
    // A fence has no receiver: `fence` stands for `fence.fence`.
    let (symbol, op) = key.split_once('.').unwrap_or((key, key));
    let op = AtomicOp::parse(op).ok_or_else(|| format!("unknown operation `{op}`"))?;
    let (head, why) = body.split_once(" — ").unwrap_or((body, ""));
    if why.trim().is_empty() {
        return Err("missing ` — reason`".to_string());
    }
    let (seqs, pairs) = match head.split_once(';') {
        None => (head, ""),
        Some((seqs, clause)) => (
            seqs,
            clause.trim().strip_prefix("pairs ").ok_or_else(|| {
                format!("expected `pairs <site>, ...` after `;`, found `{clause}`")
            })?,
        ),
    };
    let mut allowed = Vec::new();
    for seq in seqs.split('|') {
        let seq: Vec<AtomicOrdering> = seq
            .split('/')
            .map(|o| {
                AtomicOrdering::parse(o.trim()).ok_or_else(|| format!("unknown ordering `{o}`"))
            })
            .collect::<Result<_, _>>()?;
        if seq.len() != op.orderings() {
            return Err(format!(
                "{} takes {} ordering(s), the annotation lists {}",
                op.name(),
                op.orderings(),
                seq.len()
            ));
        }
        allowed.push(seq);
    }
    let pairs = pairs
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| match p.matches("::").count() {
            1 => format!("{file}::{p}"),
            _ => p.to_string(),
        })
        .collect();
    Ok(Annotation {
        file: file.to_string(),
        func,
        symbol: symbol.to_string(),
        op,
        allowed,
        pairs,
        why: why.trim().to_string(),
        line,
    })
}

fn allowlisted(file: &str) -> bool {
    crate::policy::SCAN_ALLOWLIST
        .iter()
        .any(|a| file.starts_with(a.prefix))
}

/// Runs the per-site ordering audit: every active site must be covered
/// by an annotation in its function and use an allowed ordering sequence,
/// and every annotation must cover at least one active site. Sites in
/// files covered by [`crate::policy::SCAN_ALLOWLIST`] (harness code) are
/// exempt, and an annotation there is unreachable, which is reported.
/// Returns the list of problems (empty = pass).
///
/// `active_cfgs` is the set of enabled `--cfg` flags; sites guarded by a
/// `#[cfg(...)]` that evaluates false are skipped, which is how the
/// default audit sees the `SeqCst` pop fence while an audit with
/// `"nabbitc_weak_pop"` active sees — and rejects — the `Release` one.
pub fn audit(
    sites: &[AtomicSite],
    annotations: &[Annotation],
    active_cfgs: &[&str],
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut matched = vec![false; annotations.len()];
    for site in sites {
        if !cfg_active(site.cfg.as_deref(), active_cfgs) || allowlisted(&site.file) {
            continue;
        }
        let found = annotations.iter().position(|a| {
            a.file == site.file && a.func == site.func && a.symbol == site.symbol && a.op == site.op
        });
        let Some(i) = found else {
            problems.push(format!(
                "unknown atomic site: {} has no ORDERING annotation in its function",
                site.describe()
            ));
            continue;
        };
        matched[i] = true;
        let a = &annotations[i];
        if !a.allowed.contains(&site.orderings) {
            let allowed: Vec<String> = a
                .allowed
                .iter()
                .map(|seq| {
                    let s: Vec<String> = seq.iter().map(|o| o.to_string()).collect();
                    format!("({})", s.join(", "))
                })
                .collect();
            problems.push(format!(
                "ordering violation: {} — the annotation at line {} allows {} ({})",
                site.describe(),
                a.line,
                allowed.join(" or "),
                a.why
            ));
        }
    }
    for (a, matched) in annotations.iter().zip(matched) {
        if allowlisted(&a.file) {
            problems.push(format!(
                "unreachable annotation: {} stands in an allowlisted file",
                a.describe()
            ));
        } else if !matched {
            problems.push(format!(
                "stale annotation: {} matches no active site",
                a.describe()
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

/// Publication-pair audit over the annotations themselves.
///
/// * Every `pairs` reference must name an existing annotation that can
///   actually perform a release (a non-`load` op allowing `Release`,
///   `AcqRel`, or `SeqCst`).
/// * Every annotation with Acquire semantics (`Acquire` or `AcqRel` in an
///   allowed sequence) must declare its partner(s) — an Acquire that
///   synchronizes with nothing nameable is a smell worth a failure.
/// * Every pure-Release annotation (allows `Release`/`AcqRel`, no Acquire
///   side of its own) must be *named by* some annotation — an orphaned
///   Release store is dead publication or an undocumented reader.
///
/// `SeqCst`-only sites (the pool control plane) may pair but are not
/// required to: their correctness argument is the single total order,
/// not a specific release/acquire edge.
pub fn audit_pairs(annotations: &[Annotation]) -> Vec<String> {
    use AtomicOrdering::{AcqRel, Acquire, Release, SeqCst};
    let mut problems = Vec::new();
    let keys: Vec<String> = annotations.iter().map(Annotation::key).collect();
    let mut referenced = vec![false; annotations.len()];
    for a in annotations {
        for p in &a.pairs {
            match keys.iter().position(|k| k == p) {
                None => problems.push(format!(
                    "publication pair: {} names nonexistent partner {p}",
                    a.describe()
                )),
                Some(i) => {
                    let partner = &annotations[i];
                    let release_capable = partner.op != AtomicOp::Load
                        && (partner.has(Release) || partner.has(AcqRel) || partner.has(SeqCst));
                    if !release_capable {
                        problems.push(format!(
                            "publication pair: {} names {p}, which can never perform a release \
                             ({} with no Release/AcqRel/SeqCst write)",
                            a.describe(),
                            partner.op.name()
                        ));
                    }
                    referenced[i] = true;
                }
            }
        }
    }
    for (a, named) in annotations.iter().zip(referenced) {
        let acquire_side = a.has(Acquire) || a.has(AcqRel);
        if acquire_side && a.pairs.is_empty() {
            problems.push(format!(
                "unpaired Acquire: {} must name the Release site(s) it synchronizes with \
                 after `pairs`",
                a.describe()
            ));
        }
        let pure_release =
            !acquire_side && a.op != AtomicOp::Load && (a.has(Release) || a.has(AcqRel));
        if pure_release && !named {
            problems.push(format!(
                "orphaned Release: {} is named by no Acquire site's `pairs` — dead \
                 publication or an undocumented reader",
                a.describe()
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
        if allowlisted(&f.key) {
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
/// as an unknown site unless an annotation covers it).
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
    fn annotation_reader_parses_the_grammar() {
        use AtomicOrdering::{Acquire, Relaxed, SeqCst};
        let src = "\
fn pop(&self) {
    // ORDERING matters here: prose that starts with the word.
    // ORDERING: a heading in prose, not a site key.
    //
    // ORDERING top.compare_exchange: SeqCst/Relaxed — last-task race
    let _ = self.top.compare_exchange(t, t + 1, SeqCst, Relaxed);
    // ORDERING seq.load: Acquire | Relaxed; pairs push::seq.store,
    // core/join.rs::begin_scan::count.store — first read
    // and re-check
    //
    // Prose after a blank comment line is not part of the reason.
    let s = slot.seq.load(Acquire);
    /// ORDERING doc.load: Relaxed — doc comments are not read
    // ORDERING fence: SeqCst — store-load fence
    // ORDERING bottom.store: Relaxed — the next annotation ends the last
    fence(SeqCst);
}
";
        let notes = scan_annotations("runtime/deque.rs", src).unwrap();
        let keys: Vec<String> = notes.iter().map(|a| a.key()).collect();
        assert_eq!(
            keys,
            [
                "runtime/deque.rs::pop::top.compare_exchange",
                "runtime/deque.rs::pop::seq.load",
                "runtime/deque.rs::pop::fence.fence",
                "runtime/deque.rs::pop::bottom.store",
            ]
        );
        assert_eq!(notes[0].allowed, [[SeqCst, Relaxed]]);
        assert_eq!(
            (notes[0].line, notes[0].why.as_str()),
            (5, "last-task race")
        );
        // `|` alternatives, a wrapped `pairs` list (same-file shorthand
        // and a full key) and a wrapped reason.
        assert_eq!(notes[1].allowed, [[Acquire], [Relaxed]]);
        assert_eq!(
            notes[1].pairs,
            [
                "runtime/deque.rs::push::seq.store",
                "core/join.rs::begin_scan::count.store"
            ]
        );
        assert_eq!(notes[1].why, "first read and re-check");
        assert_eq!(
            (notes[2].op, notes[2].why.as_str()),
            (AtomicOp::Fence, "store-load fence")
        );
        assert_eq!(notes[3].allowed, [[Relaxed]]);
        assert!(notes[3].pairs.is_empty());

        for (bad, says) in [
            (
                "// ORDERING top.peek: Relaxed — x",
                "unknown operation `peek`",
            ),
            (
                "// ORDERING top.load: Sequential — x",
                "unknown ordering `Sequential`",
            ),
            (
                "// ORDERING top.load: Acquire; with push::fence.fence — x",
                "expected `pairs",
            ),
        ] {
            let err = scan_annotations("x.rs", &format!("fn f() {{\n{bad}\n}}")).unwrap_err();
            assert!(err.starts_with("x.rs:2: ") && err.contains(says), "{err}");
        }
    }

    #[test]
    fn one_annotation_covers_both_cfg_twins() {
        let src = "\
fn pop() {
    // ORDERING fence: SeqCst — store-load fence
    #[cfg(not(weak))]
    fence(Ordering::SeqCst);
    #[cfg(weak)]
    fence(Ordering::Release);
}
";
        let sites = scan_source("x.rs", src).unwrap();
        let notes = scan_annotations("x.rs", src).unwrap();
        assert_eq!((sites.len(), notes.len()), (2, 1));
        assert!(audit(&sites, &notes, &[]).is_empty());
        let weak = audit(&sites, &notes, &["weak"]);
        assert_eq!(weak.len(), 1, "{weak:?}");
        assert!(
            weak[0].contains("ordering violation: x.rs:6 pop::fence.fence(Release) cfg(weak)")
                && weak[0].contains("line 2 allows (SeqCst)"),
            "{weak:?}"
        );
        // The annotation belongs to the function it stands in.
        let elsewhere = src.replace("fn pop() {\n", "fn pop() {\n}\nfn other() {\n");
        let notes = scan_annotations("x.rs", &elsewhere).unwrap();
        assert_eq!(notes[0].func, "other");
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
