//! The per-file structure rules operate on: the token stream, extracted
//! function items (signature + body token ranges), and parsed
//! `cpqx-analyze: allow(...)` suppression pragmas.

pub use crate::lexer::TokKind;
use crate::lexer::{lex, Comment, Tok};

/// One `fn` item. `sig` spans from the `fn` keyword to the body's opening
/// brace (exclusive); `body` spans the tokens between the braces
/// (exclusive on both ends). Bodiless fns (trait methods, `extern`
/// declarations) have an empty body range.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub sig_start: usize,
    /// Token index of the body's `{` (== `body_end` when bodiless).
    pub body_start: usize,
    /// Token index one past the body's `}`.
    pub body_end: usize,
}

impl FnItem {
    /// Signature token range (excludes the opening brace).
    pub fn sig(&self) -> std::ops::Range<usize> {
        self.sig_start..self.body_start
    }

    /// Body token range, braces excluded.
    pub fn body(&self) -> std::ops::Range<usize> {
        if self.body_start == self.body_end {
            return self.body_start..self.body_start;
        }
        self.body_start + 1..self.body_end - 1
    }
}

/// One parsed `// cpqx-analyze: allow(<rule>): <justification>` pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    pub rule: String,
    pub justification: String,
    /// Line the pragma comment starts on.
    pub line: u32,
    /// Lines the pragma covers: its own line and, for an own-line
    /// comment, the next line carrying a token.
    pub covers: Vec<u32>,
}

/// The analyzed form of one source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    pub fns: Vec<FnItem>,
    pub pragmas: Vec<Pragma>,
}

/// The marker every suppression pragma starts with.
pub const PRAGMA_MARKER: &str = "cpqx-analyze:";

impl SourceFile {
    pub fn parse(rel: String, src: &str) -> SourceFile {
        let lexed = lex(src);
        let fns = extract_fns(&lexed.toks);
        let pragmas = extract_pragmas(&lexed.comments, &lexed.toks);
        SourceFile { rel, toks: lexed.toks, comments: lexed.comments, fns, pragmas }
    }

    /// Text of token `i`, or `""` past the end.
    pub fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    /// Line of token `i` (0 past the end).
    pub fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map_or(0, |t| t.line)
    }

    /// Does the token sequence at `at` match `pat` textually?
    pub fn is_seq(&self, at: usize, pat: &[&str]) -> bool {
        pat.iter().enumerate().all(|(j, p)| {
            self.toks.get(at + j).is_some_and(|t| t.text == *p && t.kind != TokKind::Str)
        })
    }

    /// All positions in `range` where `pat` matches.
    pub fn find_seq(&self, range: std::ops::Range<usize>, pat: &[&str]) -> Vec<usize> {
        range.filter(|&i| self.is_seq(i, pat)).collect()
    }

    /// Does any position in `range` match `pat`?
    pub fn contains_seq(&self, range: std::ops::Range<usize>, pat: &[&str]) -> bool {
        range.into_iter().any(|i| self.is_seq(i, pat))
    }

    /// The innermost fn whose item range contains token `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.sig_start <= i && i < f.body_end)
            .min_by_key(|f| f.body_end - f.sig_start)
    }

    /// Index of the matching `)`/`]`/`}` for the opener at `open`
    /// (which must be one), or `toks.len()` if unbalanced.
    pub fn matching_close(&self, open: usize) -> usize {
        let mut depth = 0i64;
        for i in open..self.toks.len() {
            match self.text(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        self.toks.len()
    }

    /// Walks backward from `i` (exclusive) to the base identifier of the
    /// receiver chain ending there, skipping one `[...]`/`(...)` group
    /// per step: for `self.a.b[c].m` with `i` at `.m`'s dot, returns the
    /// index of `b`. Returns `None` when the previous token is not part
    /// of a receiver chain.
    pub fn receiver_field(&self, i: usize) -> Option<usize> {
        let mut j = i.checked_sub(1)?;
        while let close @ ("]" | ")") = self.text(j) {
            // Skip the bracket group to its opener.
            let close = close.to_string();
            let open = if close == "]" { "[" } else { "(" };
            let mut depth = 1i64;
            while depth > 0 {
                j = j.checked_sub(1)?;
                if self.text(j) == close {
                    depth += 1;
                } else if self.text(j) == open {
                    depth -= 1;
                }
            }
            j = j.checked_sub(1)?;
        }
        (self.toks.get(j).map(|t| t.kind) == Some(TokKind::Ident)).then_some(j)
    }
}

/// Extracts every `fn` item (including nested ones) by scanning for the
/// `fn` keyword and matching the body braces. `fn` as a pointer-type
/// (`fn(..) -> ..`) has no name token after it and is skipped.
fn extract_fns(toks: &[Tok]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text != "fn" || toks[i].kind != TokKind::Ident {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else { continue };
        if name_tok.kind != TokKind::Ident {
            continue; // `fn(` pointer type or malformed
        }
        // Find the body `{` (or `;` for a bodiless declaration) at zero
        // paren/bracket depth. Angle brackets are not tracked: generic
        // argument lists contain neither `{` nor `;`.
        let mut depth = 0i64;
        let mut body_start = None;
        for (j, t) in toks.iter().enumerate().skip(i + 2) {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    body_start = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
        }
        let (body_start, body_end) = match body_start {
            None => {
                fns.push(FnItem {
                    name: name_tok.text.clone(),
                    line: toks[i].line,
                    sig_start: i,
                    body_start: i + 2,
                    body_end: i + 2,
                });
                continue;
            }
            Some(bs) => {
                let mut d = 0i64;
                let mut end = toks.len();
                for (j, t) in toks.iter().enumerate().skip(bs) {
                    match t.text.as_str() {
                        "{" => d += 1,
                        "}" => {
                            d -= 1;
                            if d == 0 {
                                end = j + 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                (bs, end)
            }
        };
        fns.push(FnItem {
            name: name_tok.text.clone(),
            line: toks[i].line,
            sig_start: i,
            body_start,
            body_end,
        });
    }
    fns
}

/// Parses suppression pragmas out of the comment stream. Malformed
/// pragmas (no rule, missing justification) still produce a [`Pragma`]
/// with an empty field — the `pragma` meta-rule reports them; silently
/// ignoring a typo'd suppression would be the worst possible failure
/// mode for this tool.
fn extract_pragmas(comments: &[Comment], toks: &[Tok]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in comments {
        // Doc comments (`///`, `//!`, `/** */`, `/*! */`) are prose —
        // they may *describe* the pragma syntax without invoking it.
        // Their extra marker char survives as the text's first char.
        if matches!(c.text.chars().next(), Some('/') | Some('!') | Some('*')) {
            continue;
        }
        let Some(pos) = c.text.find(PRAGMA_MARKER) else { continue };
        let rest = c.text[pos + PRAGMA_MARKER.len()..].trim();
        let (rule, justification) = match rest.strip_prefix("allow(") {
            Some(after) => match after.split_once(')') {
                Some((rule, tail)) => {
                    let j = tail.trim_start().strip_prefix(':').unwrap_or("").trim();
                    (rule.trim().to_string(), j.to_string())
                }
                None => (String::new(), String::new()),
            },
            None => (String::new(), String::new()),
        };
        // Coverage: the pragma's own line, plus — when no token shares
        // that line (own-line comment) — the next line carrying a token.
        let mut covers = vec![c.line];
        let own_line_code = toks.iter().any(|t| t.line == c.line);
        if !own_line_code {
            if let Some(next) = toks.iter().map(|t| t.line).filter(|&l| l > c.line).min() {
                covers.push(next);
            }
        }
        out.push(Pragma { rule, justification, line: c.line, covers });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_extraction_spans_bodies() {
        let f = SourceFile::parse(
            "t.rs".into(),
            "impl X { fn a(&self) -> u32 { if x { y } else { z } } }\nfn b();",
        );
        assert_eq!(f.fns.len(), 2);
        let a = &f.fns[0];
        assert_eq!(a.name, "a");
        assert_eq!(f.text(a.body_start), "{");
        assert_eq!(f.text(a.body_end - 1), "}");
        assert_eq!(f.text(a.body_end), "}"); // impl's closing brace
        assert_eq!(f.fns[1].name, "b");
        assert!(f.fns[1].body().is_empty());
    }

    #[test]
    fn nested_fns_and_innermost_lookup() {
        let f = SourceFile::parse("t.rs".into(), "fn outer() { fn inner() { body(); } tail(); }");
        assert_eq!(f.fns.len(), 2);
        let body_call = f.find_seq(0..f.toks.len(), &["body"])[0];
        assert_eq!(f.enclosing_fn(body_call).unwrap().name, "inner");
        let tail_call = f.find_seq(0..f.toks.len(), &["tail"])[0];
        assert_eq!(f.enclosing_fn(tail_call).unwrap().name, "outer");
    }

    #[test]
    fn receiver_chains() {
        let f = SourceFile::parse("t.rs".into(), "self.counts[bucket(v)].fetch_add(1, o); x.y();");
        let dots = f.find_seq(0..f.toks.len(), &[".", "fetch_add"]);
        let base = f.receiver_field(dots[0]).unwrap();
        assert_eq!(f.text(base), "counts");
        let dots = f.find_seq(0..f.toks.len(), &[".", "y"]);
        assert_eq!(f.text(f.receiver_field(dots[0]).unwrap()), "x");
    }

    #[test]
    fn pragma_parsing_and_coverage() {
        let src = "\
// cpqx-analyze: allow(unsafe-allowlist): audited FFI shim\n\
fn build() {}\n\
let x = 1; // cpqx-analyze: allow(lock-order): leaf lock, never nested\n\
// cpqx-analyze: allow(bad syntax\n";
        let f = SourceFile::parse("t.rs".into(), src);
        assert_eq!(f.pragmas.len(), 3);
        assert_eq!(f.pragmas[0].rule, "unsafe-allowlist");
        assert!(f.pragmas[0].covers.contains(&2));
        assert_eq!(f.pragmas[1].covers, vec![3]);
        assert!(f.pragmas[2].rule.is_empty());
    }
}
