//! Physical pair-set operators shared by every engine.
//!
//! All operators consume and produce *normalized* pair sets: sorted
//! source-major, deduplicated. The index executors (Sec. IV-D), the Path
//! baseline, and the BFS baseline all reuse these, so engine comparisons in
//! the benchmarks measure index design rather than operator implementations
//! (the paper does the same: "we used the same query plans for all methods").
//!
//! Joins are **output-sensitive**: their cost tracks input plus output, not
//! the number of `(v, u, y)` join candidates, which on dense graphs is
//! orders of magnitude larger than the answer. The kernel is Gustavson's
//! row-wise product, held in an [`EvalContext`]:
//!
//! * the right operand's rows are indexed by source once, in
//!   `O(|right|)` (targets become accumulator columns);
//! * for each left source `v`, the right rows of all its middles `u` are
//!   unioned into a per-row accumulator — a bitset row-OR when the right
//!   operand is dense (mean row length ≥ bitset words), a mark bitset
//!   plus a touched list otherwise;
//! * each output row leaves the accumulator already sorted, so no
//!   candidate is ever stored or sorted.
//!
//! `JOIN-ID` needs no accumulator: it probes whether `v` is in right's row
//! `u` for some left pair `(v, u)`. Operators that touch the graph read its
//! per-chunk CSR faces ([`cpqx_graph::csr`]) and reuse the same
//! accumulator: [`EvalContext::expand_adjacency`] takes right rows from
//! forward faces, [`EvalContext::join_label_left`] left rows.
//!
//! Per-join set-up is `O(|left| + |right|)`, never `O(max vertex id)`:
//! sparse id ranges fall back to rank-compressed columns and binary-search
//! row lookup.

use cpqx_graph::{ExtLabel, Graph, Pair, VertexId};

/// Reusable per-evaluation scratch state for the pair-set operators.
///
/// One evaluation (a plan execution, a BFS recursion, a path-index
/// recursion) creates a context up front and threads it through its
/// joins; the right-operand index and the row accumulator then grow to
/// the largest operand once and are reused by every subsequent join
/// instead of being allocated and freed per call.
#[derive(Default)]
pub struct EvalContext {
    right: RightRows,
    acc: Accumulator,
}

impl EvalContext {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Join `{(v, y) | (v, u) ∈ left, (u, y) ∈ right}`.
    ///
    /// `right` must be normalized. `left` may be in any order and hold
    /// duplicates (a non-sorted left is sorted into a copy first). Output
    /// is normalized.
    pub fn join_pairs(&mut self, left: &[Pair], right: &[Pair]) -> Vec<Pair> {
        if left.is_empty() || right.is_empty() {
            return Vec::new();
        }
        let sorted;
        let left = if left.is_sorted() {
            left
        } else {
            sorted = sorted_copy(left);
            &sorted
        };
        self.right.index(right, left.len());
        self.acc.fit(self.right.width);
        let mut out = Vec::new();
        for group in left.chunk_by(|a, b| a.src() == b.src()) {
            let middles = group.iter().map(|p| p.dst());
            self.right.join_row(&mut self.acc, group[0].src(), middles, &mut out);
        }
        out
    }

    /// The paper's fused `JOIN-ID`: like [`EvalContext::join_pairs`] but
    /// keeps only cyclic results (`v = y`). A probe, not a product: emits
    /// `(v, v)` iff `v` is in right's row `u` for some `(v, u) ∈ left`.
    pub fn join_pairs_id(&mut self, left: &[Pair], right: &[Pair]) -> Vec<Pair> {
        if left.is_empty() || right.is_empty() {
            return Vec::new();
        }
        let sorted;
        let left = if left.is_sorted() {
            left
        } else {
            sorted = sorted_copy(left);
            &sorted
        };
        let mut out = Vec::new();
        for group in left.chunk_by(|a, b| a.src() == b.src()) {
            let v = group[0].src();
            if group.iter().any(|p| right.binary_search(&Pair::new(p.dst(), v)).is_ok()) {
                out.push(Pair::new(v, v));
            }
        }
        out
    }

    /// Join `⟦ℓ⟧ ⋈ right` with the left operand's rows read from the
    /// graph's per-chunk **forward CSR faces** — the label relation is
    /// never materialized or re-sorted. Chunks cover ascending vertex
    /// ranges, so rows come out in source order. With `require_loop`,
    /// keeps only cyclic results (fused `JOIN-ID`), probing from whichever
    /// of `⟦ℓ⟧` and `right` is smaller.
    pub fn join_label_left(
        &mut self,
        g: &Graph,
        l: ExtLabel,
        right: &[Pair],
        require_loop: bool,
    ) -> Vec<Pair> {
        let mut out = Vec::new();
        if right.is_empty() {
            return out;
        }
        let label_len = g.edge_pairs(l).len();
        if require_loop && right.len() < label_len {
            // `(u, y) ∈ right` closes a loop iff `y →ℓ u`.
            self.acc.fit(g.vertex_count() as usize);
            for p in right {
                if g.neighbors(p.dst(), l).binary_search(&p.src()).is_ok() {
                    self.acc.insert(p.dst());
                }
            }
            self.acc.drain(g.vertex_count() as usize, |v| out.push(Pair::new(v, v)));
            return out;
        }
        if !require_loop {
            self.right.index(right, label_len);
            self.acc.fit(self.right.width);
        }
        for csr in g.csr_chunks() {
            let Some(face) = csr.face(l) else { continue };
            for r in 0..csr.rows() {
                let middles = face.targets_of_row(r as usize);
                if middles.is_empty() {
                    continue;
                }
                let v = csr.start() + r;
                if !require_loop {
                    self.right.join_row(&mut self.acc, v, middles.iter().copied(), &mut out);
                } else if middles.iter().any(|&u| right.binary_search(&Pair::new(u, v)).is_ok()) {
                    out.push(Pair::new(v, v));
                }
            }
        }
        out
    }

    /// Expands a normalized pair set by one adjacency step: for every
    /// `(v, u)` and every edge `(u, t, ℓ)`, emits `(v, t)` — the frontier
    /// expansion of the index-free BFS baseline and of chain suffixes
    /// `P ⋈ ⟦ℓ⟧`. The right rows are the graph's forward CSR faces, and
    /// each output row is unioned in the accumulator like a join row.
    pub fn expand_adjacency(&mut self, g: &Graph, pairs: &[Pair], l: ExtLabel) -> Vec<Pair> {
        let sorted;
        let pairs = if pairs.is_sorted() {
            pairs
        } else {
            sorted = sorted_copy(pairs);
            &sorted
        };
        let width = g.vertex_count() as usize;
        self.acc.fit(width);
        // With at least one left pair per vertex, resolving every face row
        // once beats routing each middle to its chunk.
        let table = (pairs.len() >= width).then(|| face_rows(g, l));
        let row = |u: VertexId| match &table {
            Some(t) => t[u as usize],
            None => g.neighbors(u, l),
        };
        let mut out = Vec::new();
        for group in pairs.chunk_by(|a, b| a.src() == b.src()) {
            let v = group[0].src();
            if let [p] = group {
                // One middle: its face row is the output row.
                out.extend(row(p.dst()).iter().map(|&t| Pair::new(v, t)));
                continue;
            }
            let rows = group.iter().map(|p| row(p.dst()));
            self.acc.union(rows, width, |t| out.push(Pair::new(v, t)));
        }
        out
    }

    /// Fused `expand ∩ id`: like [`EvalContext::expand_adjacency`] but
    /// keeps only cyclic results `(v, v)` — the one-label-suffix form of
    /// `JOIN-ID`.
    pub fn expand_adjacency_id(&mut self, g: &Graph, pairs: &[Pair], l: ExtLabel) -> Vec<Pair> {
        let sorted;
        let pairs = if pairs.is_sorted() {
            pairs
        } else {
            sorted = sorted_copy(pairs);
            &sorted
        };
        let mut out = Vec::new();
        let rel = g.edge_pairs(l);
        if rel.len() < pairs.len() {
            // The label relation is the smaller side: scan it once and
            // binary-search the sorted left operand for the closing pair —
            // an edge `m →ℓ v` yields the loop `(v, v)` iff `(v, m)` is in
            // the left. `O(|ℓ| · log |left|)` instead of one face probe
            // per left pair.
            let width = g.vertex_count() as usize;
            self.acc.fit(width);
            for e in rel.iter() {
                if pairs.binary_search(&e.swap()).is_ok() {
                    self.acc.insert(e.dst());
                }
            }
            self.acc.drain(width, |v| out.push(Pair::new(v, v)));
        } else {
            for group in pairs.chunk_by(|a, b| a.src() == b.src()) {
                let v = group[0].src();
                if group.iter().any(|p| g.neighbors(p.dst(), l).binary_search(&v).is_ok()) {
                    out.push(Pair::new(v, v));
                }
            }
        }
        out
    }
}

/// Every vertex's forward face row of label `l`, indexed by vertex id.
fn face_rows(g: &Graph, l: ExtLabel) -> Vec<&[VertexId]> {
    let mut rows = vec![&[][..]; g.vertex_count() as usize];
    for csr in g.csr_chunks() {
        if let Some(face) = csr.face(l) {
            for r in 0..csr.rows() {
                rows[(csr.start() + r) as usize] = face.targets_of_row(r as usize);
            }
        }
    }
    rows
}

/// A sorted, deduplicated copy of an arbitrary pair slice.
fn sorted_copy(pairs: &[Pair]) -> Vec<Pair> {
    let mut v = pairs.to_vec();
    cpqx_graph::pair::normalize(&mut v);
    v
}

/// The right operand of a join, indexed by source: its rows, their
/// targets as accumulator columns, and (when dense) one bitset per row.
#[derive(Default)]
struct RightRows {
    /// Distinct sources, ascending.
    keys: Vec<VertexId>,
    /// `starts[r]..starts[r + 1]` indexes `cols` with row `r`'s columns.
    starts: Vec<u32>,
    /// Row targets as columns, in target order (the mapping is monotone,
    /// so ascending columns are ascending vertices); sparse operands only.
    cols: Vec<u32>,
    /// Column `c` is vertex `base + c` when `ranks` is empty, otherwise
    /// `ranks[c]` (sparse target ranges are rank-compressed).
    base: VertexId,
    ranks: Vec<VertexId>,
    /// Number of columns.
    width: usize,
    /// Direct row lookup, `slot[u - slot_base] = r + 1` (0: no row), when
    /// the source range is within a constant of the operand sizes; empty
    /// otherwise (binary search over `keys`).
    slot: Vec<u32>,
    slot_base: VertexId,
    /// Row bitsets, `keys.len() × words`, when the operand is dense.
    bits: Vec<u64>,
    words: usize,
    dense: bool,
}

impl RightRows {
    /// Indexes a normalized, non-empty `right` in `O(|right|)` (plus a
    /// sort of the distinct targets when their range is sparse).
    /// `left_len` bounds the direct row table alongside `|right|`.
    fn index(&mut self, right: &[Pair], left_len: usize) {
        self.keys.clear();
        self.starts.clear();
        self.cols.clear();
        self.ranks.clear();
        self.slot.clear();
        self.bits.clear();
        let (mut lo, mut hi) = (VertexId::MAX, 0);
        for (i, p) in right.iter().enumerate() {
            if self.keys.last() != Some(&p.src()) {
                self.keys.push(p.src());
                self.starts.push(i as u32);
            }
            lo = lo.min(p.dst());
            hi = hi.max(p.dst());
        }
        self.starts.push(right.len() as u32);

        // Columns: offsets from the smallest target while the range's
        // bitset stays within one word per right pair; ranks otherwise.
        let span = (hi - lo) as usize + 1;
        if span <= 64 * (right.len() + 1) {
            self.base = lo;
            self.width = span;
        } else {
            self.ranks.extend(right.iter().map(|p| p.dst()));
            self.ranks.sort_unstable();
            self.ranks.dedup();
            self.width = self.ranks.len();
        }
        let col = |t: VertexId| {
            if self.ranks.is_empty() {
                t - lo
            } else {
                self.ranks.partition_point(|&r| r < t) as u32
            }
        };

        // Dense rows (mean row length ≥ bitset words) are kept as bitsets
        // only — `rows × words ≤ |right|`, so building them stays
        // `O(|right|)` — sparse ones as column lists.
        self.words = self.width.div_ceil(64);
        self.dense = right.len() >= self.keys.len() * self.words;
        if self.dense {
            let w = self.words;
            self.bits.resize(self.keys.len() * w, 0);
            for (row, r) in self.bits.chunks_exact_mut(w).zip(self.starts.windows(2)) {
                for p in &right[r[0] as usize..r[1] as usize] {
                    let c = col(p.dst());
                    row[(c / 64) as usize] |= 1 << (c % 64);
                }
            }
        } else {
            self.cols.extend(right.iter().map(|p| col(p.dst())));
        }

        // Row lookup: a direct table when the source range is small.
        let (first, last) = (self.keys[0], self.keys[self.keys.len() - 1]);
        let src_span = (last - first) as usize + 1;
        if src_span <= 2 * (left_len + right.len()) + 64 {
            self.slot_base = first;
            self.slot.resize(src_span, 0);
            for (r, &k) in self.keys.iter().enumerate() {
                self.slot[(k - first) as usize] = r as u32 + 1;
            }
        }
    }

    /// The row index of source `u`, if `u` has a row.
    #[inline]
    fn row(&self, u: VertexId) -> Option<usize> {
        if self.slot.is_empty() {
            return self.keys.binary_search(&u).ok();
        }
        // `u < slot_base` wraps past every slot.
        let s = *self.slot.get(u.wrapping_sub(self.slot_base) as usize)?;
        s.checked_sub(1).map(|r| r as usize)
    }

    /// The vertex of column `c`.
    #[inline]
    fn vertex(&self, c: u32) -> VertexId {
        if self.ranks.is_empty() {
            self.base + c
        } else {
            self.ranks[c as usize]
        }
    }

    /// Unions the rows of `middles` in `acc` and appends the output row
    /// of source `v` to `out`, sorted.
    fn join_row(
        &self,
        acc: &mut Accumulator,
        v: VertexId,
        middles: impl Iterator<Item = VertexId> + Clone,
        out: &mut Vec<Pair>,
    ) {
        let w = self.words;
        if self.dense {
            let mut any = false;
            for u in middles {
                if let Some(r) = self.row(u) {
                    acc.or_row(&self.bits[r * w..(r + 1) * w]);
                    any = true;
                }
            }
            if any {
                acc.drain_scan(w, |c| out.push(Pair::new(v, self.vertex(c))));
            }
        } else {
            let rows = middles
                .filter_map(|u| self.row(u))
                .map(|r| &self.cols[self.starts[r] as usize..self.starts[r + 1] as usize]);
            acc.union(rows, self.width, |c| out.push(Pair::new(v, self.vertex(c))));
        }
    }
}

/// The per-row accumulator: a column bitset that is all-zero between
/// rows, plus the list of columns set since the last drain.
#[derive(Default)]
struct Accumulator {
    mark: Vec<u64>,
    touched: Vec<u32>,
}

impl Accumulator {
    /// Makes room for `width` columns. The bitset only grows, and stays
    /// zero outside a row, so this never clears it.
    fn fit(&mut self, width: usize) {
        let words = width.div_ceil(64);
        if self.mark.len() < words {
            self.mark.resize(words, 0);
        }
    }

    #[inline]
    fn insert(&mut self, c: u32) {
        let (w, bit) = ((c / 64) as usize, 1u64 << (c % 64));
        if self.mark[w] & bit == 0 {
            self.mark[w] |= bit;
            self.touched.push(c);
        }
    }

    /// Unions the column lists `rows` (of a `width`-column domain) and
    /// emits the union in ascending order. When the rows hold at least
    /// one column per two domain words, marks are set branch-free and the
    /// domain is scanned; otherwise each new column is recorded and the
    /// touched list sorted.
    fn union<'r>(
        &mut self,
        rows: impl Iterator<Item = &'r [u32]> + Clone,
        width: usize,
        emit: impl FnMut(u32),
    ) {
        let words = width.div_ceil(64);
        let total: usize = rows.clone().map(<[u32]>::len).sum();
        if words <= 2 * total {
            for &c in rows.flatten() {
                self.mark[(c / 64) as usize] |= 1 << (c % 64);
            }
            self.drain_scan(words, emit);
        } else {
            for &c in rows.flatten() {
                self.insert(c);
            }
            self.drain(width, emit);
        }
    }

    #[inline]
    fn or_row(&mut self, row: &[u64]) {
        for (m, &r) in self.mark.iter_mut().zip(row) {
            *m |= r;
        }
    }

    /// Emits the inserted columns (of a `width`-column domain) in
    /// ascending order and clears them: a word scan when the row fills a
    /// good part of the domain, a sort of the touched list otherwise.
    fn drain(&mut self, width: usize, mut emit: impl FnMut(u32)) {
        let words = width.div_ceil(64);
        if words <= 2 * self.touched.len() {
            self.touched.clear();
            self.drain_scan(words, emit);
        } else {
            self.touched.sort_unstable();
            for &c in &self.touched {
                self.mark[(c / 64) as usize] = 0;
                emit(c);
            }
            self.touched.clear();
        }
    }

    /// Emits the set columns of the first `words` words in ascending
    /// order and zeroes them (the row-OR path, which keeps no touched
    /// list).
    fn drain_scan(&mut self, words: usize, mut emit: impl FnMut(u32)) {
        for (w, m) in self.mark[..words].iter_mut().enumerate() {
            let mut bits = std::mem::take(m);
            while bits != 0 {
                emit(w as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

/// One-shot convenience wrapper over [`EvalContext::join_pairs`] (tests,
/// cold paths). Hot loops should hold a context instead.
pub fn join_pairs(left: &[Pair], right: &[Pair]) -> Vec<Pair> {
    EvalContext::new().join_pairs(left, right)
}

/// One-shot convenience wrapper over [`EvalContext::join_pairs_id`].
pub fn join_pairs_id(left: &[Pair], right: &[Pair]) -> Vec<Pair> {
    EvalContext::new().join_pairs_id(left, right)
}

/// One-shot convenience wrapper over [`EvalContext::expand_adjacency`].
pub fn expand_adjacency(g: &Graph, pairs: &[Pair], l: ExtLabel) -> Vec<Pair> {
    EvalContext::new().expand_adjacency(g, pairs, l)
}

/// Sorted intersection of two normalized pair sets (galloping on skewed
/// inputs — see [`cpqx_graph::pair::intersect_sorted`]).
pub fn intersect_pairs(a: &[Pair], b: &[Pair]) -> Vec<Pair> {
    let mut out = Vec::new();
    cpqx_graph::pair::intersect_sorted(a, b, &mut out);
    out
}

/// Filters a normalized pair set to cyclic pairs (the bare `IDENTITY`
/// operator applied to a pair set).
pub fn filter_loops(pairs: &[Pair]) -> Vec<Pair> {
    pairs.iter().copied().filter(|p| p.is_loop()).collect()
}

/// The full identity relation `{(v, v)}` of a graph.
pub fn all_loops(g: &Graph) -> Vec<Pair> {
    g.vertices().map(|v| Pair::new(v, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate;

    fn p(v: u32, u: u32) -> Pair {
        Pair::new(v, u)
    }

    #[test]
    fn join_matches_middle() {
        let left = vec![p(0, 1), p(0, 2), p(5, 1)];
        let right = vec![p(1, 7), p(2, 8), p(3, 9)];
        assert_eq!(join_pairs(&left, &right), vec![p(0, 7), p(0, 8), p(5, 7)]);
    }

    #[test]
    fn join_dedups() {
        let left = vec![p(0, 1), p(0, 2)];
        let right = vec![p(1, 7), p(2, 7)];
        assert_eq!(join_pairs(&left, &right), vec![p(0, 7)]);
    }

    #[test]
    fn join_id_keeps_cycles_only() {
        let left = vec![p(0, 1), p(7, 2)];
        let right = vec![p(1, 0), p(2, 8)];
        assert_eq!(join_pairs_id(&left, &right), vec![p(0, 0)]);
    }

    #[test]
    fn join_empty_sides() {
        assert!(join_pairs(&[], &[p(0, 1)]).is_empty());
        assert!(join_pairs(&[p(0, 1)], &[]).is_empty());
    }

    #[test]
    fn context_reuse_matches_one_shot() {
        let mut ctx = EvalContext::new();
        let left = vec![p(0, 1), p(0, 2), p(5, 1)];
        let right = vec![p(1, 7), p(2, 8), p(3, 9)];
        let a = ctx.join_pairs(&left, &right);
        // Second join with a different shape reuses the same scratch.
        let b = ctx.join_pairs(&right, &left);
        assert_eq!(a, join_pairs(&left, &right));
        assert_eq!(b, join_pairs(&right, &left));
        assert_eq!(ctx.join_pairs_id(&[p(0, 1)], &[p(1, 0)]), vec![p(0, 0)]);
    }

    #[test]
    fn label_left_join_reads_forward_faces() {
        let g = generate::gex();
        let f = g.label_named("f").unwrap().fwd();
        let v = g.label_named("v").unwrap().fwd();
        let mut ctx = EvalContext::new();
        for l in [f, v] {
            let left = g.edge_pairs(l).to_vec();
            let right = g.edge_pairs(f).to_vec();
            assert_eq!(ctx.join_label_left(&g, l, &right, false), join_pairs(&left, &right));
            assert_eq!(ctx.join_label_left(&g, l, &right, true), join_pairs_id(&left, &right));
        }
        assert!(ctx.join_label_left(&g, f, &[], false).is_empty());
    }

    #[test]
    fn expand_matches_join_on_edge_relation() {
        let g = generate::gex();
        let f = g.label_named("f").unwrap().fwd();
        let v = g.label_named("v").unwrap().fwd();
        let base = g.edge_pairs(f).to_vec();
        let a = expand_adjacency(&g, &base, v);
        let b = join_pairs(&base, &g.edge_pairs(v).to_vec());
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let a_id = EvalContext::new().expand_adjacency_id(&g, &base, v);
        let b_id = join_pairs_id(&base, &g.edge_pairs(v).to_vec());
        assert_eq!(a_id, b_id);
    }

    #[test]
    fn loops_filter() {
        let pairs = vec![p(0, 0), p(0, 1), p(2, 2)];
        assert_eq!(filter_loops(&pairs), vec![p(0, 0), p(2, 2)]);
        let g = generate::cycle(4, "f");
        assert_eq!(all_loops(&g).len(), 4);
    }
}
