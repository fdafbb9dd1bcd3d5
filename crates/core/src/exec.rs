//! Query processing with the index — the paper's Algorithms 3 and 4.
//!
//! Intermediate results are either sorted **class-id sets** or normalized
//! **pair sets**. The executor keeps results at the class level as long as
//! possible: LOOKUP returns class ids; CONJUNCTION of two class sets is an
//! id-list intersection (the order-of-magnitude win of Example 4.3);
//! IDENTITY on a class set is an O(1) per-class flag check. JOIN must
//! materialize pairs (Algorithm 4's JOIN), as does any operator with one
//! materialized operand. The root expands surviving classes through `Ic2p`.
//!
//! Pair-level joins run on the output-sensitive row-accumulator kernel of
//! [`cpqx_query::ops`]: their cost tracks the operands plus the answer,
//! never the `(v, u, y)` candidates of a materialize-then-sort join. The
//! executor holds one [`EvalContext`] so every join of a plan reuses its
//! scratch.

use crate::bisim::ClassId;
use crate::index::CpqxIndex;
use cpqx_graph::{ExtLabel, Graph, LabelSeq, Pair};
use cpqx_query::ops;
use cpqx_query::ops::EvalContext;
use cpqx_query::plan::Plan;

/// An intermediate result: `C` or `P` in Algorithm 3's notation.
#[derive(Clone, Debug, PartialEq)]
pub enum Intermediate {
    /// Sorted class ids — unions of whole equivalence classes.
    Classes(Vec<ClassId>),
    /// Normalized s-t pairs.
    Pairs(Vec<Pair>),
}

/// Ablation switches for the executor — both default to the paper's
/// behaviour; turning one off isolates its contribution (the `ablation_ops`
/// bench target measures exactly this).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOptions {
    /// Keep conjunction at the class level (Prop. 4.1). When off,
    /// conjunctions materialize both sides into pairs first — the
    /// language-unaware strategy.
    pub class_level_conjunction: bool,
    /// Execute IDENTITY as a per-class flag check fused into the operators
    /// (the paper's third optimization). When off, identity filters
    /// materialized pairs.
    pub fused_identity: bool,
    /// Route single-label join operands through the graph's per-chunk CSR
    /// faces ([`cpqx_graph::csr`]): a chain suffix `P ⋈ ⟦ℓ⟧` takes its
    /// right rows from the faces, a chain prefix `⟦ℓ⟧ ⋈ P` its left rows
    /// — neither materializes or sorts the label relation. When off,
    /// every join expands both operands from the index and joins them as
    /// pair sets (the index-expansion baseline the differential harness
    /// and the `fig06_csr` bench compare against). Answers are identical
    /// either way.
    pub csr_faces: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { class_level_conjunction: true, fused_identity: true, csr_faces: true }
    }
}

/// Work counters collected during one plan execution — the EXPLAIN-style
/// instrumentation behind Table III's pruning-power measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of `Il2c` lookups performed.
    pub lookups: usize,
    /// Class identifiers retrieved by those lookups.
    pub classes_touched: usize,
    /// s-t pairs materialized from classes (`Ic2p` expansions).
    pub pairs_materialized: usize,
    /// Conjunctions resolved at the class level (Prop. 4.1).
    pub class_conjunctions: usize,
    /// Conjunctions that had to intersect pair sets.
    pub pair_intersections: usize,
    /// Pair-level joins executed.
    pub joins: usize,
    /// Joins answered through a CSR read face (a subset of `joins`):
    /// the single-label operand was read from the graph's per-chunk
    /// faces instead of expanding from the index. Always 0 with
    /// [`ExecOptions::csr_faces`] off — benches use this to tell cells
    /// where the fast path engaged from cells it cannot touch.
    pub csr_joins: usize,
}

/// Plan executor bound to an index and its graph.
pub struct Executor<'i, 'g> {
    index: &'i CpqxIndex,
    graph: &'g Graph,
    options: ExecOptions,
    stats: std::cell::Cell<ExecStats>,
    /// Per-execution scratch shared by every join of a plan (the borrow
    /// is confined to each single join call, never held across the
    /// recursion).
    ctx: std::cell::RefCell<EvalContext>,
}

impl<'i, 'g> Executor<'i, 'g> {
    /// Creates an executor. The graph is only consulted for the bare `id`
    /// plan (`AllId`); everything else is answered from the index.
    pub fn new(index: &'i CpqxIndex, graph: &'g Graph) -> Self {
        Self::with_options(index, graph, ExecOptions::default())
    }

    /// Creates an executor with explicit ablation switches.
    pub fn with_options(index: &'i CpqxIndex, graph: &'g Graph, options: ExecOptions) -> Self {
        Executor {
            index,
            graph,
            options,
            stats: std::cell::Cell::new(ExecStats::default()),
            ctx: std::cell::RefCell::new(EvalContext::new()),
        }
    }

    /// Runs a plan and returns the answers together with the work counters
    /// of this execution.
    pub fn run_explained(&self, plan: &Plan) -> (Vec<Pair>, ExecStats) {
        self.stats.set(ExecStats::default());
        let out = self.run(plan);
        (out, self.stats.get())
    }

    #[inline]
    fn bump(&self, f: impl FnOnce(&mut ExecStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Runs a plan to a normalized pair set.
    pub fn run(&self, plan: &Plan) -> Vec<Pair> {
        match self.eval(plan) {
            Intermediate::Pairs(p) => p,
            Intermediate::Classes(cs) => self.expand(&cs),
        }
    }

    /// Runs a plan, returning only the first answer (ordered by class
    /// discovery for class-level results, pair order otherwise).
    pub fn run_first(&self, plan: &Plan) -> Option<Pair> {
        match self.eval(plan) {
            Intermediate::Pairs(p) => p.first().copied(),
            Intermediate::Classes(cs) => {
                cs.iter().find_map(|&c| self.index.class_pairs(c).first().copied())
            }
        }
    }

    /// Evaluates a plan node to an intermediate (Algorithm 3's recursion).
    pub fn eval(&self, plan: &Plan) -> Intermediate {
        match plan {
            Plan::AllId => Intermediate::Pairs(ops::all_loops(self.graph)),
            Plan::Lookup(seq) => {
                debug_assert!(self.index.is_indexed(seq), "planner must split {seq:?}");
                let cs = self.index.lookup(seq);
                self.bump(|s| {
                    s.lookups += 1;
                    s.classes_touched += cs.len();
                });
                Intermediate::Classes(cs.to_vec())
            }
            Plan::LookupId(seq) => {
                // Fused `⟦seq⟧ ∩ id`: keep cyclic classes only (the paper's
                // "check the first s-t pair" — cyclicity is uniform per
                // class, so it is a flag here).
                let looked = self.index.lookup(seq);
                self.bump(|s| {
                    s.lookups += 1;
                    s.classes_touched += looked.len();
                });
                if !self.options.fused_identity {
                    let pairs = self.expand(looked);
                    return Intermediate::Pairs(ops::filter_loops(&pairs));
                }
                let cs = looked.iter().copied().filter(|&c| self.index.class_is_loop(c)).collect();
                Intermediate::Classes(cs)
            }
            Plan::Join(a, b) => self.join(a, b, false),
            Plan::JoinId(a, b) => self.join(a, b, true),
            Plan::Conj(a, b) => match (self.eval(a), self.eval(b)) {
                // The class-level conjunction of Prop. 4.1.
                (Intermediate::Classes(x), Intermediate::Classes(y))
                    if self.options.class_level_conjunction =>
                {
                    self.bump(|s| s.class_conjunctions += 1);
                    Intermediate::Classes(intersect_ids(&x, &y))
                }
                (x, y) => {
                    let left = self.pairs(x);
                    let right = self.pairs(y);
                    self.bump(|s| s.pair_intersections += 1);
                    Intermediate::Pairs(ops::intersect_pairs(&left, &right))
                }
            },
            Plan::ConjId(a, b) => match (self.eval(a), self.eval(b)) {
                (Intermediate::Classes(x), Intermediate::Classes(y))
                    if self.options.class_level_conjunction && self.options.fused_identity =>
                {
                    self.bump(|s| s.class_conjunctions += 1);
                    let cs = intersect_ids(&x, &y)
                        .into_iter()
                        .filter(|&c| self.index.class_is_loop(c))
                        .collect();
                    Intermediate::Classes(cs)
                }
                (x, y) => {
                    let left = self.pairs(x);
                    let right = self.pairs(y);
                    self.bump(|s| s.pair_intersections += 1);
                    let out = ops::intersect_pairs(&left, &right);
                    Intermediate::Pairs(ops::filter_loops(&out))
                }
            },
        }
    }

    /// `JOIN` / fused `JOIN-ID` (Algorithm 4), with the CSR fast paths.
    ///
    /// When [`ExecOptions::csr_faces`] is on (and identity stays fused), a
    /// single-label operand is executed against the graph's per-chunk CSR
    /// faces instead of being expanded from the index: a label *right*
    /// operand supplies the join rows from forward faces, a label *left*
    /// operand its row middles — in both cases the label relation is never
    /// materialized or sorted. The `Il2c` lookup still runs (it is the
    /// emptiness check and keeps the EXPLAIN counters describing the same
    /// logical work), but its classes are not expanded.
    fn join(&self, a: &Plan, b: &Plan, require_loop: bool) -> Intermediate {
        let csr = self.options.csr_faces && (self.options.fused_identity || !require_loop);
        // Label prefix: ⟦ℓ⟧ ⋈ P, left rows from forward faces.
        if csr && self.single_label(a).is_some() && self.single_label(b).is_none() {
            let (seq, l) = self.single_label(a).unwrap();
            if self.lookup_counted(seq).is_empty() {
                return Intermediate::Pairs(Vec::new());
            }
            let right = self.pairs(self.eval(b));
            self.bump(|s| {
                s.joins += 1;
                s.csr_joins += 1;
            });
            let mut ctx = self.ctx.borrow_mut();
            return Intermediate::Pairs(ctx.join_label_left(self.graph, l, &right, require_loop));
        }
        let left = self.pairs(self.eval(a));
        if left.is_empty() {
            return Intermediate::Pairs(Vec::new());
        }
        // Label suffix: P ⋈ ⟦ℓ⟧, right rows from forward faces.
        if csr {
            if let Some((seq, l)) = self.single_label(b) {
                self.bump(|s| {
                    s.joins += 1;
                    s.csr_joins += 1;
                });
                if self.lookup_counted(seq).is_empty() {
                    return Intermediate::Pairs(Vec::new());
                }
                let mut ctx = self.ctx.borrow_mut();
                return Intermediate::Pairs(if require_loop {
                    ctx.expand_adjacency_id(self.graph, &left, l)
                } else {
                    ctx.expand_adjacency(self.graph, &left, l)
                });
            }
        }
        let right = self.pairs(self.eval(b));
        self.bump(|s| s.joins += 1);
        let mut ctx = self.ctx.borrow_mut();
        if !require_loop {
            Intermediate::Pairs(ctx.join_pairs(&left, &right))
        } else if self.options.fused_identity {
            Intermediate::Pairs(ctx.join_pairs_id(&left, &right))
        } else {
            let joined = ctx.join_pairs(&left, &right);
            Intermediate::Pairs(ops::filter_loops(&joined))
        }
    }

    /// The plan's extended label if it is a bare single-label lookup.
    fn single_label(&self, p: &Plan) -> Option<(LabelSeq, ExtLabel)> {
        match p {
            Plan::Lookup(seq) if seq.len() == 1 => Some((*seq, seq.get(0))),
            _ => None,
        }
    }

    /// `Il2c` lookup that records the EXPLAIN counters (shared by the CSR
    /// fast paths, which consult the index for emptiness and stats but
    /// answer pair work from the graph faces).
    fn lookup_counted(&self, seq: LabelSeq) -> &[ClassId] {
        let cs = self.index.lookup(&seq);
        self.bump(|s| {
            s.lookups += 1;
            s.classes_touched += cs.len();
        });
        cs
    }

    /// Materializes an intermediate to pairs.
    fn pairs(&self, im: Intermediate) -> Vec<Pair> {
        match im {
            Intermediate::Pairs(p) => p,
            Intermediate::Classes(cs) => self.expand(&cs),
        }
    }

    /// `⋃_{c} Ic2p(c)`, normalized. Classes are disjoint, so only a sort is
    /// needed (a counting sort by source when the source range allows).
    fn expand(&self, cs: &[ClassId]) -> Vec<Pair> {
        let parts: Vec<&[Pair]> = cs.iter().map(|&c| self.index.class_pairs(c)).collect();
        let total: usize = parts.iter().map(|p| p.len()).sum();
        self.bump(|s| s.pairs_materialized += total);
        cpqx_graph::pair::sorted_concat(&parts, total)
    }
}

/// Sorted intersection of class-id lists (galloping on skewed inputs —
/// same dispatch as the pair-set intersection).
pub fn intersect_ids(a: &[ClassId], b: &[ClassId]) -> Vec<ClassId> {
    let mut out = Vec::new();
    cpqx_graph::pair::intersect_sorted(a, b, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_intersection() {
        assert_eq!(intersect_ids(&[1, 3, 5, 9], &[2, 3, 9]), vec![3, 9]);
        assert_eq!(intersect_ids(&[], &[1]), Vec::<ClassId>::new());
    }

    #[test]
    fn explain_counts_class_level_work() {
        use cpqx_graph::generate;
        let g = generate::gex();
        let idx = crate::CpqxIndex::build(&g, 2);
        let q = cpqx_query::parse_cpq("(f . f) & f^-1", &g).unwrap();
        let (result, stats) = idx.explain(&g, &q);
        assert_eq!(result.len(), 3);
        assert_eq!(stats.lookups, 2, "two lookups: ⟨f,f⟩ and ⟨f⁻¹⟩");
        assert_eq!(stats.classes_touched, 6, "Example 4.3: 3 + 3 class ids");
        assert_eq!(stats.class_conjunctions, 1, "resolved without touching pairs");
        assert_eq!(stats.pair_intersections, 0);
        assert_eq!(stats.joins, 0);
        assert_eq!(stats.pairs_materialized, 3, "only the final triad expands");
    }

    #[test]
    fn explain_counts_join_work() {
        use cpqx_graph::generate;
        let g = generate::gex();
        let idx = crate::CpqxIndex::build(&g, 2);
        let q = cpqx_query::parse_cpq("f . f . f", &g).unwrap();
        let (_, stats) = idx.explain(&g, &q);
        assert_eq!(stats.lookups, 2, "⟨f,f⟩ ⋈ ⟨f⟩ at k = 2");
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.class_conjunctions, 0);
    }

    #[test]
    fn ablation_disables_class_conjunction() {
        use cpqx_graph::generate;
        let g = generate::gex();
        let idx = crate::CpqxIndex::build(&g, 2);
        let q = cpqx_query::parse_cpq("(f . f) & f^-1", &g).unwrap();
        let exec = Executor::with_options(
            &idx,
            &g,
            ExecOptions { class_level_conjunction: false, ..ExecOptions::default() },
        );
        let (result, stats) = exec.run_explained(&idx.plan(&q));
        assert_eq!(result.len(), 3, "answers unchanged");
        assert_eq!(stats.class_conjunctions, 0);
        assert_eq!(stats.pair_intersections, 1, "falls back to pair sets");
        assert!(stats.pairs_materialized > 3, "must expand both operands");
    }
}
