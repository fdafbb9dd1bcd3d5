//! The rule registry and the suppression engine.
//!
//! # Rule ids
//!
//! | id | invariant |
//! |----|-----------|
//! | `codec-hygiene` | wire decode paths are panic-free: no unwrap/expect/panics, no direct indexing, no truncating `as` casts, every wire count bounds-checked before `Vec::with_capacity` |
//! | `atomic-ordering` | every atomic site is classified counter vs. publication edge; counters are `Relaxed`, publication edges are `Acquire`/`Release`/`AcqRel` |
//! | `lock-order` | nested lock acquisitions (directly or through same-file calls) respect the declared workspace lock order |
//! | `unsafe-allowlist` | `unsafe` appears only in allowlisted files |
//! | `pragma` | suppression pragmas are well-formed, justified, name a known rule, and suppress something |
//!
//! # Suppression pragma
//!
//! ```text
//! // cpqx-analyze: allow(<rule-id>): <justification>
//! ```
//!
//! A pragma suppresses findings of `<rule-id>` on its own line, or — for
//! an own-line comment — on the next line of code. The justification
//! after the colon is mandatory and must say *why* the invariant holds
//! anyway; the `pragma` meta-rule reports bare or unused suppressions.
//!
//! # Adding a rule
//!
//! Implement [`Rule`] in a new `rules/` module (token-scan the
//! [`SourceFile`](crate::model::SourceFile); emit one
//! [`Finding`] per violation with the line it anchors to), register it in
//! [`all_rules`], and add a fixture under `tests/fixtures/` plus an
//! exactness test in `tests/analyzer.rs` proving it fires exactly there.

use crate::model::SourceFile;

mod atomic_ordering;
mod codec_hygiene;
mod lock_order;
mod unsafe_allowlist;

pub use atomic_ordering::AtomicOrdering;
pub use codec_hygiene::CodecHygiene;
pub use lock_order::LockOrder;
pub use unsafe_allowlist::UnsafeAllowlist;

/// One diagnostic: a rule violation anchored to a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (see the module table).
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// A single invariant checker over one file's token stream.
pub trait Rule {
    /// Stable rule id used in diagnostics and `allow(...)` pragmas.
    fn id(&self) -> &'static str;
    /// One-line statement of the enforced invariant.
    fn explanation(&self) -> &'static str;
    /// Scans `file`, pushing one [`Finding`] per violation.
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// Every registered rule, in diagnostic order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(CodecHygiene),
        Box::new(AtomicOrdering),
        Box::new(LockOrder),
        Box::new(UnsafeAllowlist),
    ]
}

/// Rule id of the pragma meta-diagnostics.
pub const PRAGMA_RULE: &str = "pragma";

/// Is `rel` one of the analyzer's own test fixtures? Fixtures are
/// excluded from workspace scans but must be in scope for every rule
/// when a test points the analyzer straight at them.
pub(crate) fn is_fixture(rel: &str) -> bool {
    rel.contains("tests/fixtures/")
}

/// Result of running the rules over a set of files and applying
/// suppressions.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Unsuppressed findings — the tool's exit status is driven by this.
    pub findings: Vec<Finding>,
    /// Findings matched (and silenced) by a justified pragma.
    pub suppressed: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
}

/// Runs every rule over `files` and applies the suppression pragmas.
///
/// Pragma semantics are strict: a suppression must be well-formed, carry
/// a justification, name a registered rule and actually match a finding;
/// each shortfall is itself a `pragma` finding (which no pragma can
/// suppress).
pub fn run(files: &[SourceFile]) -> Analysis {
    let rules = all_rules();
    let known: Vec<&'static str> = rules.iter().map(|r| r.id()).collect();
    let mut analysis = Analysis { files: files.len(), ..Analysis::default() };
    for file in files {
        let mut raw = Vec::new();
        for rule in &rules {
            rule.check(file, &mut raw);
        }
        let mut used = vec![false; file.pragmas.len()];
        for finding in raw {
            let slot = file.pragmas.iter().position(|p| {
                p.rule == finding.rule
                    && !p.justification.is_empty()
                    && p.covers.contains(&finding.line)
            });
            match slot {
                Some(pi) => {
                    used[pi] = true;
                    analysis.suppressed.push(finding);
                }
                None => analysis.findings.push(finding),
            }
        }
        for (p, was_used) in file.pragmas.iter().zip(&used) {
            let problem = if p.rule.is_empty() {
                Some("malformed pragma: expected `cpqx-analyze: allow(<rule>): <why>`".to_string())
            } else if !known.contains(&p.rule.as_str()) {
                Some(format!("pragma names unknown rule `{}`", p.rule))
            } else if p.justification.is_empty() {
                Some(format!(
                    "pragma `allow({})` lacks a justification — append `: <why the invariant \
                     holds anyway>`",
                    p.rule
                ))
            } else if !*was_used {
                Some(format!(
                    "unused pragma: no `{}` finding on the covered line{}",
                    p.rule,
                    if p.covers.len() > 1 { "s" } else { "" }
                ))
            } else {
                None
            };
            if let Some(message) = problem {
                analysis.findings.push(Finding {
                    file: file.rel.clone(),
                    line: p.line,
                    rule: PRAGMA_RULE,
                    message,
                });
            }
        }
    }
    analysis.findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    analysis
}
