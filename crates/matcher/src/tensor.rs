//! Tentris-style worst-case-optimal join evaluation.
//!
//! Stand-in for the tensor-based RDF engine \[6\]: the graph's per-label
//! sorted adjacency doubles as a hypertrie (label → source → targets and
//! label → target → sources via inverse labels). Queries are evaluated by a
//! worst-case-optimal join: variables are eliminated along a static greedy
//! order, and each variable's bindings are the *k-way sorted intersection*
//! (leapfrog style) of every adjacency slice constraining it — contrast
//! with the backtracking engine, which picks one candidate list and
//! verifies the rest edge-at-a-time.

use crate::pattern::PatternGraph;
use cpqx_graph::{Graph, Pair, VertexId};
use cpqx_query::Cpq;
use std::collections::HashSet;

/// The Tentris-style WCOJ engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct TensorEngine;

impl TensorEngine {
    /// Evaluates `q` on `g` under homomorphic semantics.
    pub fn evaluate(&self, g: &Graph, q: &Cpq) -> Vec<Pair> {
        let pattern = PatternGraph::from_cpq(q);
        let mut s = Wcoj::new(g, &pattern, false);
        s.run();
        let mut out: Vec<Pair> = s.results.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Stops at the first answer.
    pub fn evaluate_first(&self, g: &Graph, q: &Cpq) -> Option<Pair> {
        let pattern = PatternGraph::from_cpq(q);
        let mut s = Wcoj::new(g, &pattern, true);
        s.run();
        s.results.into_iter().next()
    }

    /// Evaluates a pre-compiled pattern graph (the CQ front-end's entry
    /// point).
    pub fn evaluate_pattern(&self, g: &Graph, pattern: &PatternGraph) -> Vec<Pair> {
        let mut s = Wcoj::new(g, pattern, false);
        s.run();
        let mut out: Vec<Pair> = s.results.into_iter().collect();
        out.sort_unstable();
        out
    }
}

struct Wcoj<'a> {
    g: &'a Graph,
    p: &'a PatternGraph,
    order: Vec<u32>,
    assign: Vec<Option<VertexId>>,
    results: HashSet<Pair>,
    first_only: bool,
    done: bool,
}

impl<'a> Wcoj<'a> {
    fn new(g: &'a Graph, p: &'a PatternGraph, first_only: bool) -> Self {
        let order = elimination_order(g, p);
        Wcoj {
            g,
            p,
            order,
            assign: vec![None; p.var_count as usize],
            results: HashSet::new(),
            first_only,
            done: false,
        }
    }

    fn run(&mut self) {
        if self.p.edges.is_empty() {
            debug_assert_eq!(self.p.src, self.p.dst);
            for v in self.g.vertices() {
                self.results.insert(Pair::new(v, v));
                if self.first_only {
                    return;
                }
            }
            return;
        }
        self.eliminate(0);
    }

    fn eliminate(&mut self, depth: usize) {
        if self.done {
            return;
        }
        if let (Some(s), Some(t)) =
            (self.assign[self.p.src as usize], self.assign[self.p.dst as usize])
        {
            if self.results.contains(&Pair::new(s, t)) {
                return;
            }
        }
        if depth == self.order.len() {
            let s = self.assign[self.p.src as usize].expect("src bound");
            let t = self.assign[self.p.dst as usize].expect("dst bound");
            self.results.insert(Pair::new(s, t));
            if self.first_only {
                self.done = true;
            }
            return;
        }
        let var = self.order[depth];
        for c in self.bindings(var) {
            self.assign[var as usize] = Some(c);
            self.eliminate(depth + 1);
            self.assign[var as usize] = None;
            if self.done {
                return;
            }
        }
    }

    /// Leapfrog-style bindings: intersect every sorted list constraining
    /// `var`, starting from the smallest.
    fn bindings(&self, var: u32) -> Vec<VertexId> {
        let mut lists: Vec<Vec<VertexId>> = Vec::new();
        let mut loop_labels = Vec::new();
        for e in self.p.incident(var) {
            if e.from == var && e.to == var {
                loop_labels.push(e.label);
                continue;
            }
            if e.from == var {
                match self.assign[e.to as usize] {
                    Some(y) => lists.push(self.g.neighbors(y, e.label.inv()).to_vec()),
                    None => {
                        // Unbound neighbor: var still must be a source of
                        // the label relation (hypertrie level projection).
                        let mut proj: Vec<VertexId> =
                            self.g.edge_pairs(e.label.fwd()).iter().map(|p| p.src()).collect();
                        proj.dedup();
                        lists.push(proj);
                    }
                }
            } else {
                match self.assign[e.from as usize] {
                    Some(x) => lists.push(self.g.neighbors(x, e.label.fwd()).to_vec()),
                    None => {
                        let mut proj: Vec<VertexId> =
                            self.g.edge_pairs(e.label.inv()).iter().map(|p| p.src()).collect();
                        proj.dedup();
                        lists.push(proj);
                    }
                }
            }
        }
        let mut result: Vec<VertexId> = match lists.iter().min_by_key(|l| l.len()) {
            Some(smallest) => {
                let mut base = smallest.clone();
                base.sort_unstable();
                base.dedup();
                for list in &lists {
                    if std::ptr::eq(list, smallest) {
                        continue;
                    }
                    let mut sorted = list.clone();
                    sorted.sort_unstable();
                    base = intersect(&base, &sorted);
                    if base.is_empty() {
                        break;
                    }
                }
                base
            }
            None => self.g.vertices().collect(),
        };
        if !loop_labels.is_empty() {
            result.retain(|&c| loop_labels.iter().all(|&l| self.g.has_edge(c, c, l.fwd())));
        }
        result
    }
}

fn intersect(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Static greedy elimination order: smallest-relation variable first, then
/// repeatedly the cheapest variable adjacent to the chosen prefix.
fn elimination_order(g: &Graph, p: &PatternGraph) -> Vec<u32> {
    let estimate = |v: u32| -> usize {
        p.incident(v)
            .map(|e| {
                let rel = if e.from == v { e.label.fwd() } else { e.label.inv() };
                g.edge_pairs(rel).len()
            })
            .min()
            .unwrap_or(g.vertex_count() as usize)
    };
    let mut order: Vec<u32> = Vec::with_capacity(p.var_count as usize);
    let mut chosen = vec![false; p.var_count as usize];
    while order.len() < p.var_count as usize {
        let mut best: Option<(bool, usize, u32)> = None;
        for v in 0..p.var_count {
            if chosen[v as usize] {
                continue;
            }
            let adjacent = p.incident(v).any(|e| chosen[e.from as usize] || chosen[e.to as usize]);
            // Prefer adjacency to the prefix (false < true ⇒ negate).
            let key = (!(adjacent || order.is_empty()), estimate(v), v);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let (_, _, v) = best.expect("some variable remains");
        chosen[v as usize] = true;
        order.push(v);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate;
    use cpqx_query::eval::eval_reference;
    use cpqx_query::parse_cpq;

    #[test]
    fn triad_on_gex() {
        let g = generate::gex();
        let q = parse_cpq("(f . f) & f^-1", &g).unwrap();
        assert_eq!(TensorEngine.evaluate(&g, &q), eval_reference(&g, &q));
    }

    #[test]
    fn order_covers_all_vars() {
        let g = generate::gex();
        let q = parse_cpq("((f . f) & f^-1) . v", &g).unwrap();
        let p = PatternGraph::from_cpq(&q);
        let order = elimination_order(&g, &p);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..p.var_count).collect::<Vec<_>>());
    }

    #[test]
    fn homomorphic_semantics() {
        let g = generate::labeled_path(&["a", "b"]);
        let q = parse_cpq("(a . b) & (a . b)", &g).unwrap();
        assert_eq!(TensorEngine.evaluate(&g, &q), vec![Pair::new(0, 2)]);
    }

    #[test]
    fn first_result() {
        let g = generate::gex();
        let q = parse_cpq("v . v^-1", &g).unwrap();
        let all = TensorEngine.evaluate(&g, &q);
        assert!(all.contains(&TensorEngine.evaluate_first(&g, &q).unwrap()));
    }

    #[test]
    fn identity_patterns() {
        let g = generate::gex();
        for src in ["id", "(f . f^-1) & id", "(f . f . f) & id"] {
            let q = parse_cpq(src, &g).unwrap();
            assert_eq!(TensorEngine.evaluate(&g, &q), eval_reference(&g, &q), "{src}");
        }
    }
}
