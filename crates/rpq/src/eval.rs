//! RPQ evaluation: reference product-graph BFS and the index-accelerated
//! algebraic evaluator.

use crate::ast::Rpq;
use crate::automaton::Nfa;
use cpqx_core::CpqxIndex;
use cpqx_graph::{ExtLabel, Graph, LabelSeq, Pair};
use cpqx_query::ops;

/// Reference evaluator: BFS over the product of the graph and the ε-NFA,
/// from every source vertex. Returns the normalized set of pairs `(v, u)`
/// such that some path from `v` to `u` spells a word of the language.
pub fn eval_product(g: &Graph, r: &Rpq) -> Vec<Pair> {
    let nfa = Nfa::compile(r);
    let adj = nfa.labeled_adjacency();
    let mut out = Vec::new();
    for v in g.vertices() {
        // Visited (vertex, state) pairs.
        let mut seen = std::collections::HashSet::new();
        let mut frontier: Vec<(u32, u32)> = Vec::new();
        for s in nfa.epsilon_closure(&[nfa.start]) {
            if seen.insert((v, s)) {
                frontier.push((v, s));
            }
        }
        while let Some((u, s)) = frontier.pop() {
            if s == nfa.accept {
                out.push(Pair::new(v, u));
            }
            for &(l, s2) in &adj[s as usize] {
                for &t in g.neighbors(u, l) {
                    for s3 in nfa.epsilon_closure(&[s2]) {
                        if seen.insert((t, s3)) {
                            frontier.push((t, s3));
                        }
                    }
                }
            }
        }
    }
    cpqx_graph::pair::normalize(&mut out);
    out
}

/// Index-accelerated RPQ evaluation: the regex is evaluated bottom-up as
/// relational algebra over normalized pair sets, with two accelerations
/// borrowed from the CPQ machinery:
///
/// * maximal concatenation runs of labels become `Il2c` lookups of length
///   ≤ k (the same chunking the CPQ planner performs, Fig. 4), and
/// * `R*` / `R+` are computed by **semi-naive fixpoint**: only the delta of
///   the previous round is re-joined.
///
/// This is the "CPQx inside an RPQ engine" pipeline the paper's conclusion
/// sketches.
pub struct IndexRpqEngine<'i> {
    index: &'i CpqxIndex,
}

impl<'i> IndexRpqEngine<'i> {
    /// Creates an engine over a built CPQ-aware index.
    pub fn new(index: &'i CpqxIndex) -> Self {
        IndexRpqEngine { index }
    }

    /// Evaluates `r` on `g`.
    pub fn evaluate(&self, g: &Graph, r: &Rpq) -> Vec<Pair> {
        match r {
            Rpq::Epsilon => ops::all_loops(g),
            Rpq::Label(l) => self.lookup_seq(&LabelSeq::single(*l)),
            Rpq::Concat(..) => {
                // Flatten the concat chain, chunk label runs, join.
                let mut factors = Vec::new();
                flatten_concat(r, &mut factors);
                let mut relations: Vec<Vec<Pair>> = Vec::new();
                let mut run: Vec<ExtLabel> = Vec::new();
                for f in factors {
                    match f {
                        Rpq::Label(l) => run.push(*l),
                        Rpq::Epsilon => {}
                        other => {
                            self.flush_run(&mut run, &mut relations);
                            relations.push(self.evaluate(g, other));
                        }
                    }
                }
                self.flush_run(&mut run, &mut relations);
                let mut it = relations.into_iter();
                let Some(mut acc) = it.next() else {
                    return ops::all_loops(g); // all-ε concat
                };
                let mut ctx = ops::EvalContext::new();
                for rel in it {
                    if acc.is_empty() {
                        return Vec::new();
                    }
                    acc = ctx.join_pairs(&acc, &rel);
                }
                acc
            }
            Rpq::Alt(a, b) => {
                let mut left = self.evaluate(g, a);
                let right = self.evaluate(g, b);
                left.extend_from_slice(&right);
                cpqx_graph::pair::normalize(&mut left);
                left
            }
            Rpq::Star(a) => {
                let base = self.evaluate(g, a);
                let mut closure = transitive_closure(&base);
                closure.extend(ops::all_loops(g));
                cpqx_graph::pair::normalize(&mut closure);
                closure
            }
            Rpq::Plus(a) => {
                let base = self.evaluate(g, a);
                let mut closure = transitive_closure(&base);
                if a.nullable() {
                    closure.extend(ops::all_loops(g));
                    cpqx_graph::pair::normalize(&mut closure);
                }
                closure
            }
            Rpq::Opt(a) => {
                let mut rel = self.evaluate(g, a);
                rel.extend(ops::all_loops(g));
                cpqx_graph::pair::normalize(&mut rel);
                rel
            }
        }
    }

    fn flush_run(&self, run: &mut Vec<ExtLabel>, relations: &mut Vec<Vec<Pair>>) {
        if run.is_empty() {
            return;
        }
        // Greedy longest-indexed-prefix chunking, like the CPQ planner.
        let mut i = 0;
        while i < run.len() {
            let max_len = self.index.k().min(run.len() - i).min(cpqx_graph::MAX_SEQ_LEN);
            let mut taken = 1;
            for len in (2..=max_len).rev() {
                let seq = LabelSeq::from_slice(&run[i..i + len]);
                if self.index.is_indexed(&seq) {
                    taken = len;
                    break;
                }
            }
            relations.push(self.lookup_seq(&LabelSeq::from_slice(&run[i..i + taken])));
            i += taken;
        }
        run.clear();
    }

    fn lookup_seq(&self, seq: &LabelSeq) -> Vec<Pair> {
        let mut out = Vec::new();
        for &c in self.index.lookup(seq) {
            out.extend_from_slice(self.index.class_pairs(c));
        }
        out.sort_unstable();
        out
    }
}

/// Semi-naive transitive closure `R⁺` of a normalized relation: each round
/// joins only the newly discovered delta against the base.
pub fn transitive_closure(base: &[Pair]) -> Vec<Pair> {
    let mut all: Vec<Pair> = base.to_vec();
    let mut delta: Vec<Pair> = base.to_vec();
    let mut ctx = ops::EvalContext::new();
    while !delta.is_empty() {
        let step = ctx.join_pairs(&delta, base);
        // delta = step \ all
        let mut fresh = Vec::new();
        for p in step {
            if all.binary_search(&p).is_err() {
                fresh.push(p);
            }
        }
        fresh.sort_unstable();
        fresh.dedup();
        if fresh.is_empty() {
            break;
        }
        all.extend_from_slice(&fresh);
        all.sort_unstable();
        delta = fresh;
    }
    all
}

fn flatten_concat<'r>(r: &'r Rpq, out: &mut Vec<&'r Rpq>) {
    match r {
        Rpq::Concat(a, b) => {
            flatten_concat(a, out);
            flatten_concat(b, out);
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_rpq;
    use cpqx_graph::generate;

    fn check(g: &Graph, idx: &CpqxIndex, expr: &str) {
        let r = parse_rpq(expr, g).unwrap();
        let reference = eval_product(g, &r);
        let accelerated = IndexRpqEngine::new(idx).evaluate(g, &r);
        assert_eq!(accelerated, reference, "expr {expr}");
    }

    #[test]
    fn agree_on_gex() {
        let g = generate::gex();
        let idx = CpqxIndex::build(&g, 2);
        for expr in [
            "f",
            "f^-1",
            "f . f",
            "f . v",
            "f | v",
            "f*",
            "f+",
            "f?",
            "f* . v",
            "(f | v)*",
            "(f . f)* | v",
            "f . (v | f) . f^-1",
            "eps",
            "(f^-1)*",
            "f . f . f . f . f",
        ] {
            check(&g, &idx, expr);
        }
    }

    #[test]
    fn star_on_cycle_is_total_within_component() {
        let g = generate::cycle(5, "f");
        let idx = CpqxIndex::build(&g, 2);
        let r = parse_rpq("f*", &g).unwrap();
        let result = IndexRpqEngine::new(&idx).evaluate(&g, &r);
        // Every ordered pair is reachable on a directed cycle.
        assert_eq!(result.len(), 25);
        assert_eq!(result, eval_product(&g, &r));
    }

    #[test]
    fn plus_excludes_identity_unless_cyclic() {
        let g = generate::labeled_path(&["a", "a"]);
        let idx = CpqxIndex::build(&g, 2);
        let r = parse_rpq("a+", &g).unwrap();
        let result = IndexRpqEngine::new(&idx).evaluate(&g, &r);
        assert_eq!(result, vec![Pair::new(0, 1), Pair::new(0, 2), Pair::new(1, 2)]);
        assert_eq!(result, eval_product(&g, &r));
    }

    #[test]
    fn agree_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for seed in 0..3u64 {
            let cfg = generate::RandomGraphConfig::social(30, 110, 2, seed);
            let g = generate::random_graph(&cfg);
            let idx = CpqxIndex::build(&g, 2);
            // Random expressions from a small template pool.
            for _ in 0..12 {
                let l = |rng: &mut rand::rngs::StdRng| {
                    Rpq::Label(ExtLabel(rng.gen_range(0..g.ext_label_count())))
                };
                let a = l(&mut rng);
                let b = l(&mut rng);
                let c = l(&mut rng);
                let expr = match rng.gen_range(0..6) {
                    0 => a.then(b).then(c),
                    1 => a.or(b).star(),
                    2 => a.then(b.or(c)),
                    3 => a.plus().then(b.opt()),
                    4 => a.then(b).star().then(c),
                    _ => a.opt().or(b.then(c)),
                };
                let reference = eval_product(&g, &expr);
                let accelerated = IndexRpqEngine::new(&idx).evaluate(&g, &expr);
                assert_eq!(accelerated, reference, "seed {seed} expr {expr:?}");
            }
        }
    }

    #[test]
    fn interest_aware_index_also_works() {
        let g = generate::gex();
        let f = g.label_named("f").unwrap();
        let idx =
            CpqxIndex::build_interest_aware(&g, 2, [LabelSeq::from_slice(&[f.fwd(), f.fwd()])]);
        for expr in ["f . f . v", "f* . v", "(f . f)+"] {
            check(&g, &idx, expr);
        }
    }

    #[test]
    fn closure_is_idempotent() {
        let base = vec![Pair::new(0, 1), Pair::new(1, 2), Pair::new(2, 0)];
        let once = transitive_closure(&base);
        let twice = transitive_closure(&once);
        assert_eq!(once, twice);
        assert_eq!(once.len(), 9, "3-cycle closure is total");
    }
}
