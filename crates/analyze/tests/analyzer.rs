//! Fixture exactness tests — every `//~ <rule>` marker in a fixture
//! must produce exactly one finding of that rule on that line, and
//! nothing else may fire — plus the workspace-is-clean gate that makes
//! `cargo test` enforce the analyzer in tier-1 CI.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cpqx_analyze::model::SourceFile;
use cpqx_analyze::rules;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Loads a fixture and collects its `//~ <rule>` markers as the
/// expected `(rule, line) -> count` multiset.
fn load_fixture(name: &str) -> (SourceFile, BTreeMap<(String, u32), usize>) {
    let path = fixture_path(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut expected = BTreeMap::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(pos) = line.find("//~") {
            for rule in line[pos + 3..].split_whitespace() {
                *expected.entry((rule.to_string(), (i + 1) as u32)).or_insert(0usize) += 1;
            }
        }
    }
    assert!(!expected.is_empty(), "fixture {name} declares no expected findings");
    let rel = format!("crates/analyze/tests/fixtures/{name}");
    (SourceFile::parse(rel, &src), expected)
}

/// Runs all rules over one fixture and asserts the finding multiset
/// matches the markers exactly (both directions: nothing missing,
/// nothing extra — including cross-rule contamination).
fn assert_fires_exactly(name: &str) -> rules::Analysis {
    let (file, expected) = load_fixture(name);
    let analysis = rules::run(std::slice::from_ref(&file));
    let mut actual = BTreeMap::new();
    for f in &analysis.findings {
        *actual.entry((f.rule.to_string(), f.line)).or_insert(0usize) += 1;
    }
    assert_eq!(
        actual, expected,
        "finding mismatch in {name}; actual findings: {:#?}",
        analysis.findings
    );
    analysis
}

#[test]
fn codec_hygiene_fixture() {
    assert_fires_exactly("codec_hygiene.rs");
}

#[test]
fn atomic_ordering_fixture() {
    assert_fires_exactly("atomic_ordering.rs");
}

#[test]
fn lock_order_fixture() {
    assert_fires_exactly("lock_order.rs");
}

#[test]
fn unsafe_allowlist_fixture() {
    assert_fires_exactly("unsafe_allowlist.rs");
}

#[test]
fn pragma_fixture() {
    let analysis = assert_fires_exactly("pragma.rs");
    // The one justified, covering pragma silences exactly one finding.
    assert_eq!(analysis.suppressed.len(), 1, "suppressed: {:#?}", analysis.suppressed);
    assert_eq!(analysis.suppressed[0].rule, "unsafe-allowlist");
}

/// Tier-1 gate: the workspace's own sources carry zero unsuppressed
/// findings. Run `cargo run -p cpqx-analyze` for the full report when
/// this fails.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analysis = cpqx_analyze::analyze_workspace(&root).expect("workspace scan");
    assert!(analysis.files > 100, "scan looks truncated: {} files", analysis.files);
    assert!(
        analysis.findings.is_empty(),
        "workspace has unsuppressed findings:\n{}",
        analysis.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}
