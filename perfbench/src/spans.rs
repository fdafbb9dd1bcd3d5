//! In-memory spans for the traced replay, written to a file when the
//! replay ends and read back from it to compute self times.
//!
//! A span has a name, a start and end (ns since the tracer's base), a
//! parent (0 = none) and the request it belongs to. A *marked* span is
//! a lower layer's public function called a second time on the same
//! input, after the request finished, because the call that did the
//! work is hidden inside an upper layer's function (`Engine::query_on`
//! plans and executes; `Engine::apply_delta` clones and maintains). Its
//! interval therefore lies outside its parent's; its duration is still
//! the parent's child time, so the parent's self time is its duration
//! minus the durations of all its children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub req: u32,
    pub id: u32,
    pub parent: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span names: one per layer boundary the replay times.
pub mod names {
    /// Root span of a replayed QUERY.
    pub const READ: &str = "read";
    /// Root span of a replayed DELTA.
    pub const WRITE: &str = "write";
    pub const DECODE: &str = "net.decode";
    pub const ENCODE: &str = "net.encode";
    pub const SNAPSHOT: &str = "engine.snapshot";
    pub const PARSE: &str = "query.parse";
    pub const CANONICAL: &str = "query.canonical";
    pub const QUERY_ON: &str = "engine.query_on";
    pub const PLAN: &str = "core.plan";
    pub const EXEC: &str = "core.exec";
    pub const RESOLVE: &str = "net.resolve";
    pub const APPLY_DELTA: &str = "engine.apply_delta";
    pub const CLONE: &str = "engine.clone";
    pub const MAINTAIN: &str = "core.maintain";
    pub const APPEND: &str = "store.append";
    pub const CHECKPOINT: &str = "store.checkpoint";
}

/// A span as held in memory (its id is its index + 1).
struct Open {
    req: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    marked: bool,
}

/// The recorder. Spans stay in memory until [`Tracer::write`].
pub struct Tracer {
    base: Instant,
    spans: Vec<Open>,
    /// Ids of the spans open now, innermost last.
    stack: Vec<u32>,
    /// Request currently being replayed.
    pub req: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { base: Instant::now(), spans: Vec::new(), stack: Vec::new(), req: 0 }
    }

    /// Opens a span now under `parent`, or under the innermost open span
    /// when `parent` is `None` (0 when none is open); returns its id.
    pub fn open(&mut self, parent: Option<u32>, name: &'static str, marked: bool) -> u32 {
        let parent = parent.unwrap_or_else(|| self.stack.last().copied().unwrap_or(0));
        let start_ns = self.base.elapsed().as_nanos() as u64;
        self.spans.push(Open { req: self.req, parent, name, start_ns, end_ns: start_ns, marked });
        let id = self.spans.len() as u32;
        self.stack.push(id);
        id
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: u32) {
        let end = self.base.elapsed().as_nanos() as u64;
        if let Some(s) = self.spans.get_mut(id as usize - 1) {
            s.end_ns = end;
        }
        self.stack.retain(|&open| open != id);
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 64);
        text.push_str("req\tid\tparent\tname\tstart_ns\tend_ns\tmarked\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.req,
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                u8::from(s.marked)
            );
        }
        std::fs::write(path, text)
    }
}

/// Runs `f` inside a span (see [`Tracer::open`] for `parent`); returns
/// its output and the span's id.
pub fn within<T>(
    tracer: &Mutex<Tracer>,
    parent: Option<u32>,
    name: &'static str,
    marked: bool,
    f: impl FnOnce() -> T,
) -> (T, u32) {
    let id = tracer.lock().expect("tracer lock poisoned").open(parent, name, marked);
    let out = f();
    tracer.lock().expect("tracer lock poisoned").close(id);
    (out, id)
}

/// Reads a span file written by [`Tracer::write`].
pub fn read(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |n: usize| format!("{}: malformed line {n}", path.display());
    text.lines()
        .enumerate()
        .skip(1)
        .map(|(n, line)| {
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 7 {
                return Err(bad(n));
            }
            let num = |i: usize| f[i].parse::<u64>().map_err(|_| bad(n));
            Ok(Span {
                req: num(0)? as u32,
                id: num(1)? as u32,
                parent: num(2)? as u32,
                name: f[3].to_string(),
                start_ns: num(4)?,
                end_ns: num(5)?,
            })
        })
        .collect()
}

/// Per-name totals over a span file.
#[derive(Default, Clone, Debug)]
pub struct NameStats {
    /// Spans with this name.
    pub count: u64,
    /// Σ duration − Σ children's durations.
    pub self_ns: u64,
    /// Self times, ascending.
    pub self_ns_sorted: Vec<u64>,
}

/// Self times and durations per span name over the requests whose
/// root span is named `root`, plus each such request's root duration
/// (in request order).
pub struct Analysis {
    pub by_name: BTreeMap<String, NameStats>,
    pub root_ns: Vec<u64>,
}

impl Analysis {
    pub fn of(spans: &[Span], root: &str) -> Analysis {
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        let mut kept_reqs = std::collections::BTreeSet::new();
        for s in spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            } else if s.name == root {
                kept_reqs.insert(s.req);
            }
        }
        let mut by_name: BTreeMap<String, NameStats> = BTreeMap::new();
        let mut root_ns = Vec::new();
        for s in spans.iter().filter(|s| kept_reqs.contains(&s.req)) {
            let e = by_name.entry(s.name.clone()).or_default();
            let self_ns = s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            e.count += 1;
            e.self_ns += self_ns;
            e.self_ns_sorted.push(self_ns);
            if s.parent == 0 {
                root_ns.push(s.dur_ns());
            }
        }
        for e in by_name.values_mut() {
            e.self_ns_sorted.sort_unstable();
        }
        Analysis { by_name, root_ns }
    }

    /// Σ self time of `name`, in µs, divided by `per`.
    pub fn self_us_per(&self, name: &str, per: f64) -> f64 {
        let ns = self.by_name.get(name).map_or(0, |e| e.self_ns);
        crate::util::ratio(ns as f64 / 1e3, per)
    }

    /// Median self time of one `name` span, in µs (0 when absent).
    pub fn p50_self_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .and_then(|e| crate::util::quantile_sorted(&e.self_ns_sorted, 0.5))
            .map_or(0.0, |ns| ns as f64 / 1e3)
    }
}
