//! cpqx-analyze — offline static analysis for the cpqx workspace.
//!
//! The rules encode invariants the compiler cannot see and `clippy`
//! does not know about, because they are *ours*: the panic-free decode
//! surface, the atomic-ordering classification behind the obs and
//! server counters, the engine's lock order and the no-`unsafe`
//! policy. Each is checked by a token-level scan — no `syn`, no
//! dependencies — precise enough to anchor diagnostics to a line and
//! honest enough to be suppressible only with a written justification.
//!
//! Run it two ways:
//!
//! * `cargo run -p cpqx-analyze` (add `--json` for CI) — scans the
//!   workspace, exits nonzero on findings;
//! * `cargo test -q` — the crate's integration test runs the same scan,
//!   so tier-1 CI gates on a clean workspace.
//!
//! See [`rules`] for the rule table, the
//! `// cpqx-analyze: allow(<rule>): <why>` pragma grammar, and how to
//! add a rule.

pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

use model::SourceFile;
use rules::Analysis;

/// Directory names never descended into during a workspace scan.
const SKIP_DIRS: &[&str] = &["target", ".git", "results"];

/// Collects every `.rs` file under `root` (skipping build output and
/// the analyzer's own rule fixtures) as workspace-relative paths.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                let rel_str = rel_string(rel);
                // Fixtures are deliberately rule-violating inputs for
                // the analyzer's own tests.
                if !rel_str.contains("tests/fixtures/") {
                    out.push(path);
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Parses one file into the analyzed form, with a `root`-relative path.
pub fn load_source(root: &Path, path: &Path) -> std::io::Result<SourceFile> {
    let src = std::fs::read_to_string(path)?;
    let rel = rel_string(path.strip_prefix(root).unwrap_or(path));
    Ok(SourceFile::parse(rel, &src))
}

/// Scans the workspace rooted at `root` and runs every rule.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    let mut files = Vec::new();
    for path in collect_sources(root)? {
        files.push(load_source(root, &path)?);
    }
    Ok(rules::run(&files))
}

/// Walks upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn rel_string(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
