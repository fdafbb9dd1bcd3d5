//! `lock-order`: nested lock acquisitions respect the declared
//! workspace order.
//!
//! Every mutex/rwlock field in the workspace is assigned a rank in
//! [`LOCK_RANKS`]; while a guard on rank *r* is held, only locks of
//! rank `> r` may be acquired. The table encodes the one ordering the
//! engine already relies on — writer lock → durability sink → snapshot
//! install — and extends it to every other lock so new nesting is
//! forced to pick (and document) a position instead of improvising one.
//!
//! Analysis is a per-function linear scan with three ingredients:
//!
//! * **held guards** — a lock is *held* past its statement only when
//!   bound exactly as `let [mut] name = <chain>.lock()/.read()/.write()
//!   .unwrap()/.expect(..);`. A leading `*` deref, a continued method
//!   chain, or any other consuming context makes the guard a temporary
//!   that dies at the semicolon (`if let` / match scrutinee guards are
//!   deliberately out of scope of the heuristic — the workspace does
//!   not hold locks that way).
//! * **scopes** — a guard dies when the block it was bound in closes,
//!   or at an explicit `drop(name)`.
//! * **same-file calls** — a fixpoint over the file's call graph
//!   propagates each fn's transitively acquired lock set, so
//!   `write_txn` holding `writer` and calling `install()` is checked
//!   against the locks `install` takes.
//!
//! Re-acquiring a held lock is flagged as self-deadlock; acquiring an
//! undeclared field is flagged so the table stays total.

use std::collections::{BTreeMap, BTreeSet};

use crate::model::{SourceFile, TokKind};
use crate::rules::{Finding, Rule};

pub struct LockOrder;

const ID: &str = "lock-order";

/// The workspace lock order, lowest rank acquired first. One entry per
/// lock field; the comment states where it lives and why it sits there.
const LOCK_RANKS: &[(&str, u32)] = &[
    // engine: the single-writer mutex is the outermost lock — every
    // mutation path enters here first.
    ("writer", 0),
    // engine: the durability sink slot; write_txn reads it (and the
    // sink appends) while holding `writer`.
    ("durability", 1),
    // store: WAL + snapshot state, locked inside durability appends
    // that run under the engine's writer lock.
    ("inner", 2),
    // engine: tagged result cache, taken during snapshot install while
    // `writer` is held.
    ("results", 3),
    // engine: the published snapshot RwLock — installed after results
    // are staged, still under `writer`.
    ("current", 4),
    // engine: last build report, written at the tail of the install
    // path.
    ("last_build", 5),
    // engine: plan LRU — leaf on the read path, never wraps another
    // lock.
    ("plans", 6),
    // obs: trace ring — leaf.
    ("traces", 8),
    // obs: slow-query ring — leaf.
    ("slow", 9),
    // obs: workload counter map — leaf.
    ("workload", 10),
    // net: evaluation jobs queued for the worker pool; pushes and pops
    // are consuming temporaries except the worker's condvar wait, which
    // holds no other lock.
    ("jobs", 11),
    // net: finished evaluations travelling back to the event loop —
    // leaf, touched only as a consuming temporary.
    ("done", 12),
    // core pool: per-item work slots — leaf inside worker bodies.
    ("work", 13),
    // core pool / engine batch: per-item output slots — leaf.
    ("slots", 14),
    // perfbench: the traced replay's span recorder (also bound as `t`
    // in closures) — leaf, every acquisition a consuming temporary.
    ("tracer", 15),
    ("t", 15),
    // perfbench: the durability sink wrapper's store tally — leaf.
    ("tally", 16),
];

fn rank_of(field: &str) -> Option<u32> {
    LOCK_RANKS.iter().find(|(f, _)| *f == field).map(|&(_, r)| r)
}

/// One detected lock acquisition inside a fn body.
struct Acq {
    /// Token index of the `.` before the lock method.
    dot: usize,
    line: u32,
    /// Resolved lock field (`None` when the receiver chain has no
    /// identifier segment to anchor on).
    field: Option<String>,
    /// `Some(name)` when the statement binds a held guard.
    bound: Option<String>,
}

struct Held {
    name: String,
    field: String,
    rank: u32,
    depth: i64,
}

impl Rule for LockOrder {
    fn id(&self) -> &'static str {
        ID
    }

    fn explanation(&self) -> &'static str {
        "nested lock acquisitions (directly or through same-file calls) must follow the declared \
         rank table (writer → durability → store inner → results → current → last_build → leaf \
         locks); re-entry and undeclared lock fields are flagged"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let in_scope = (file.rel.contains("/src/") && !file.rel.starts_with("crates/shims/"))
            || crate::rules::is_fixture(&file.rel);
        if !in_scope {
            return;
        }

        // Pass 1: per-fn direct lock sets, then close them over the
        // same-file call graph.
        let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let fn_names: BTreeSet<&str> = file.fns.iter().map(|f| f.name.as_str()).collect();
        for f in &file.fns {
            let d = direct.entry(f.name.clone()).or_default();
            for a in acquisitions(file, f.body()) {
                if let Some(field) = a.field {
                    d.insert(field);
                }
            }
            let c = calls.entry(f.name.clone()).or_default();
            for i in f.body() {
                if let Some(callee) = call_target(file, i, &fn_names) {
                    if callee != f.name {
                        c.insert(callee.to_string());
                    }
                }
            }
        }
        let mut closed = direct.clone();
        loop {
            let mut changed = false;
            for (name, callees) in &calls {
                let mut add = BTreeSet::new();
                for callee in callees {
                    if let Some(locks) = closed.get(callee) {
                        add.extend(locks.iter().cloned());
                    }
                }
                let set = closed.entry(name.clone()).or_default();
                for l in add {
                    changed |= set.insert(l);
                }
            }
            if !changed {
                break;
            }
        }

        // Pass 2: linear scan of each fn with guard lifetimes.
        for f in &file.fns {
            let body = f.body();
            let acqs = acquisitions(file, body.clone());
            let mut next_acq = 0usize;
            let mut held: Vec<Held> = Vec::new();
            let mut depth = 0i64;
            let mut finding = |line: u32, message: String| {
                out.push(Finding { file: file.rel.clone(), line, rule: ID, message });
            };
            for i in body {
                match file.text(i) {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        held.retain(|h| h.depth <= depth);
                    }
                    "drop"
                        if file.text(i + 1) == "("
                            && file.text(i + 3) == ")"
                            && file.toks.get(i + 2).map(|t| t.kind) == Some(TokKind::Ident) =>
                    {
                        let name = file.text(i + 2);
                        held.retain(|h| h.name != name);
                    }
                    _ => {}
                }
                // Direct acquisition at this token?
                if next_acq < acqs.len() && acqs[next_acq].dot == i {
                    let a = &acqs[next_acq];
                    next_acq += 1;
                    let Some(field) = &a.field else {
                        finding(
                            a.line,
                            format!(
                                "fn `{}` acquires a lock through an unresolvable receiver — \
                                 bind the lock to a named field so it can carry a rank",
                                f.name
                            ),
                        );
                        continue;
                    };
                    let Some(rank) = rank_of(field) else {
                        finding(
                            a.line,
                            format!(
                                "fn `{}` locks undeclared field `{field}` — add it to the \
                                 lock-order table (with a rank justification) in \
                                 rules/lock_order.rs",
                                f.name
                            ),
                        );
                        continue;
                    };
                    for h in &held {
                        if h.field == *field {
                            finding(
                                a.line,
                                format!(
                                    "fn `{}` re-acquires `{field}` while already holding it \
                                     (bound as `{}`) — self-deadlock",
                                    f.name, h.name
                                ),
                            );
                        } else if rank <= h.rank {
                            finding(
                                a.line,
                                format!(
                                    "fn `{}` acquires `{field}` (rank {rank}) while holding \
                                     `{}` (rank {}) — violates the declared lock order",
                                    f.name, h.field, h.rank
                                ),
                            );
                        }
                    }
                    if let Some(name) = &a.bound {
                        held.push(Held { name: name.clone(), field: field.clone(), rank, depth });
                    }
                    continue;
                }
                // Call into a same-file fn while holding guards?
                if held.is_empty() {
                    continue;
                }
                if let Some(callee) = call_target(file, i, &fn_names) {
                    if callee == f.name {
                        continue;
                    }
                    let Some(locks) = closed.get(callee) else { continue };
                    for lf in locks {
                        let Some(rank) = rank_of(lf) else { continue };
                        for h in &held {
                            if h.field == *lf {
                                finding(
                                    file.line(i),
                                    format!(
                                        "fn `{}` holds `{}` and calls `{callee}`, which \
                                         (transitively) re-acquires `{lf}` — self-deadlock",
                                        f.name, h.field
                                    ),
                                );
                            } else if rank <= h.rank {
                                finding(
                                    file.line(i),
                                    format!(
                                        "fn `{}` holds `{}` (rank {}) and calls `{callee}`, \
                                         which (transitively) acquires `{lf}` (rank {rank}) — \
                                         violates the declared lock order",
                                        f.name, h.field, h.rank
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Is token `i` a call to one of this file's fns? Matches `name(` as a
/// free call and `self.name(` as a method call; foreign-receiver method
/// calls are excluded (their names only collide with local fns by
/// accident).
fn call_target<'a>(file: &SourceFile, i: usize, fn_names: &BTreeSet<&'a str>) -> Option<&'a str> {
    if file.toks.get(i)?.kind != TokKind::Ident || file.text(i + 1) != "(" {
        return None;
    }
    let name = file.text(i);
    let name = *fn_names.get(name)?;
    let prev = if i == 0 { "" } else { file.text(i - 1) };
    if prev == "fn" {
        return None; // the definition itself
    }
    if prev == "::" {
        return None; // `Other::name(...)` — usually a foreign item
    }
    if prev == "." && !(i >= 2 && file.is_seq(i - 2, &["self", "."])) {
        return None;
    }
    Some(name)
}

/// Finds every lock acquisition in `range`: a
/// `.lock()/.read()/.write()` with empty argument list immediately
/// followed by `.unwrap(`/`.expect(` — the only way this workspace
/// takes locks. Classifies each as held-binding or temporary.
fn acquisitions(file: &SourceFile, range: std::ops::Range<usize>) -> Vec<Acq> {
    let mut out = Vec::new();
    for dot in range {
        if file.text(dot) != "."
            || !matches!(file.text(dot + 1), "lock" | "read" | "write")
            || !file.is_seq(dot + 2, &["(", ")", "."])
            || !matches!(file.text(dot + 5), "unwrap" | "expect")
            || file.text(dot + 6) != "("
        {
            continue;
        }
        let field = lock_field(file, dot).map(|i| file.text(i).to_string());
        // Held binding: `let [mut] name = <chain>...unwrap()/expect(..);`
        let bound = (|| {
            let close = file.matching_close(dot + 6);
            if file.text(close + 1) != ";" {
                return None; // continued chain or expression context
            }
            let cs = chain_start(file, dot)?;
            if cs < 2 || file.text(cs - 1) != "=" {
                return None;
            }
            let name_i = cs - 2;
            if file.toks.get(name_i)?.kind != TokKind::Ident {
                return None;
            }
            let is_let = file.text(name_i.checked_sub(1)?) == "let"
                || (file.text(name_i.checked_sub(1)?) == "mut"
                    && file.text(name_i.checked_sub(2)?) == "let");
            is_let.then(|| file.text(name_i).to_string())
        })();
        out.push(Acq { dot, line: file.line(dot), field, bound });
    }
    out
}

/// Start index of the segment whose last token is at `end`: skips
/// trailing `[...]`/`(...)` groups back to the ident/number they hang
/// off. Returns `None` for non-chain tokens.
fn seg_start(file: &SourceFile, end: usize) -> Option<usize> {
    let mut j = end;
    while let close @ ("]" | ")") = file.text(j) {
        let close = close.to_string();
        let open = if close == "]" { "[" } else { "(" };
        let mut depth = 1i64;
        while depth > 0 {
            j = j.checked_sub(1)?;
            if file.text(j) == close {
                depth += 1;
            } else if file.text(j) == open {
                depth -= 1;
            }
        }
        j = j.checked_sub(1)?;
    }
    matches!(file.toks.get(j)?.kind, TokKind::Ident | TokKind::Num).then_some(j)
}

/// The lock's field name for the acquisition whose method-dot is at
/// `dot`: the nearest identifier segment of the receiver chain, looking
/// through tuple indices (`queue.0`) and skipping a bare `self`.
fn lock_field(file: &SourceFile, dot: usize) -> Option<usize> {
    let mut d = dot;
    loop {
        let s = seg_start(file, d.checked_sub(1)?)?;
        if file.toks.get(s)?.kind == TokKind::Ident && file.text(s) != "self" {
            return Some(s);
        }
        if s == 0 || file.text(s - 1) != "." {
            return None;
        }
        d = s - 1;
    }
}

/// First token of the whole receiver chain ending at `dot`.
fn chain_start(file: &SourceFile, dot: usize) -> Option<usize> {
    let mut d = dot;
    loop {
        let s = seg_start(file, d.checked_sub(1)?)?;
        if s == 0 || file.text(s - 1) != "." {
            return Some(s);
        }
        d = s - 1;
    }
}
