//! TurboHom++-style homomorphic subgraph matching.
//!
//! Stand-in for the paper's strongest matching baseline \[26\] (closed
//! binary): candidate filtering from the label-indexed adjacency, a dynamic
//! fewest-candidates-first matching order, and backtracking enumeration.
//! Because a CPQ's answer is the *binary projection* onto (s, t), the
//! search prunes any subtree whose (s, t) binding is already in the answer
//! set — once both endpoints are bound, the rest is an existence check,
//! mirroring how TurboHom++'s NEC-style grouping avoids re-enumerating
//! equivalent embeddings.

use crate::pattern::{PatternEdge, PatternGraph};
use cpqx_graph::{Graph, Pair, VertexId};
use cpqx_query::Cpq;
use std::collections::HashSet;

/// The TurboHom++-style engine (stateless; all state lives per query).
#[derive(Debug, Default, Clone, Copy)]
pub struct TurboEngine;

impl TurboEngine {
    /// Evaluates `q` on `g` under homomorphic semantics, returning the
    /// normalized (s, t) pair set.
    pub fn evaluate(&self, g: &Graph, q: &Cpq) -> Vec<Pair> {
        let pattern = PatternGraph::from_cpq(q);
        let mut s = Search::new(g, &pattern, false);
        s.run();
        let mut out: Vec<Pair> = s.results.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Stops at the first embedding (Fig. 7's first-answer measurement).
    pub fn evaluate_first(&self, g: &Graph, q: &Cpq) -> Option<Pair> {
        let pattern = PatternGraph::from_cpq(q);
        let mut s = Search::new(g, &pattern, true);
        s.run();
        s.results.into_iter().next()
    }

    /// Evaluates a pre-compiled pattern graph (the CQ front-end's entry
    /// point — arbitrary basic graph patterns, not just CPQ compilations).
    pub fn evaluate_pattern(&self, g: &Graph, pattern: &PatternGraph) -> Vec<Pair> {
        let mut s = Search::new(g, pattern, false);
        s.run();
        let mut out: Vec<Pair> = s.results.into_iter().collect();
        out.sort_unstable();
        out
    }
}

pub(crate) struct Search<'a> {
    g: &'a Graph,
    p: &'a PatternGraph,
    assign: Vec<Option<VertexId>>,
    pub(crate) results: HashSet<Pair>,
    first_only: bool,
    done: bool,
}

impl<'a> Search<'a> {
    pub(crate) fn new(g: &'a Graph, p: &'a PatternGraph, first_only: bool) -> Self {
        Search {
            g,
            p,
            assign: vec![None; p.var_count as usize],
            results: HashSet::new(),
            first_only,
            done: false,
        }
    }

    pub(crate) fn run(&mut self) {
        if self.p.edges.is_empty() {
            // Pure identity pattern: every vertex embeds.
            debug_assert_eq!(self.p.src, self.p.dst);
            for v in self.g.vertices() {
                self.results.insert(Pair::new(v, v));
                if self.first_only {
                    return;
                }
            }
            return;
        }
        self.search();
    }

    fn search(&mut self) {
        if self.done {
            return;
        }
        // Binary-projection pruning: a bound (s, t) already in the answers
        // cannot contribute anything new.
        if let (Some(s), Some(t)) =
            (self.assign[self.p.src as usize], self.assign[self.p.dst as usize])
        {
            if self.results.contains(&Pair::new(s, t)) {
                return;
            }
        }
        let Some(var) = self.pick_var() else {
            let s = self.assign[self.p.src as usize].expect("src assigned");
            let t = self.assign[self.p.dst as usize].expect("dst assigned");
            self.results.insert(Pair::new(s, t));
            if self.first_only {
                self.done = true;
            }
            return;
        };
        let cands = self.candidates(var);
        for c in cands {
            self.assign[var as usize] = Some(c);
            self.search();
            self.assign[var as usize] = None;
            if self.done {
                return;
            }
        }
    }

    /// Dynamic order: the unassigned variable with the smallest candidate
    /// estimate, preferring variables constrained by an assigned neighbor.
    fn pick_var(&self) -> Option<u32> {
        let mut best: Option<(bool, usize, u32)> = None; // (unconstrained?, est, var)
        for v in 0..self.p.var_count {
            if self.assign[v as usize].is_some() {
                continue;
            }
            let (constrained, est) = self.estimate(v);
            let key = (!constrained, est, v);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, v)| v)
    }

    /// (has an assigned-neighbor constraint, candidate-count estimate).
    fn estimate(&self, var: u32) -> (bool, usize) {
        let mut constrained = false;
        let mut est = usize::MAX;
        for e in self.p.incident(var) {
            let sz = match self.constraint_list(var, e) {
                Some(list) => {
                    constrained = true;
                    list.len()
                }
                None => self.projection_size(var, e),
            };
            est = est.min(sz);
        }
        if est == usize::MAX {
            est = self.g.vertex_count() as usize; // isolated variable
        }
        (constrained, est)
    }

    /// The sorted candidate list induced by `e` if its other endpoint is
    /// assigned: an adjacency slice of the graph.
    fn constraint_list(&self, var: u32, e: &PatternEdge) -> Option<&'a [VertexId]> {
        if e.from == var && e.to == var {
            return None; // self-loop: verified, not enumerated
        }
        if e.from == var {
            let y = self.assign[e.to as usize]?;
            Some(self.g.neighbors(y, e.label.inv()))
        } else if e.to == var {
            let x = self.assign[e.from as usize]?;
            Some(self.g.neighbors(x, e.label.fwd()))
        } else {
            None
        }
    }

    fn projection_size(&self, var: u32, e: &PatternEdge) -> usize {
        let rel = if e.from == var { e.label.fwd() } else { e.label.inv() };
        self.g.edge_pairs(rel).len()
    }

    /// Candidate vertices for `var`: the smallest assigned-neighbor
    /// adjacency slice (or a relation projection), verified against every
    /// other incident constraint.
    fn candidates(&self, var: u32) -> Vec<VertexId> {
        // Base list.
        let mut base: Option<Vec<VertexId>> = None;
        let mut base_len = usize::MAX;
        for e in self.p.incident(var) {
            if let Some(list) = self.constraint_list(var, e) {
                if list.len() < base_len {
                    base_len = list.len();
                    base = Some(list.to_vec());
                }
            }
        }
        let mut cands = match base {
            Some(c) => c,
            None => {
                // No assigned neighbor: project the smallest incident
                // relation onto this variable.
                let mut best: Option<(usize, Vec<VertexId>)> = None;
                for e in self.p.incident(var) {
                    if e.from == var && e.to == var {
                        continue;
                    }
                    let rel = if e.from == var { e.label.fwd() } else { e.label.inv() };
                    let pairs = self.g.edge_pairs(rel);
                    if best.as_ref().is_none_or(|(n, _)| pairs.len() < *n) {
                        let mut proj: Vec<VertexId> = pairs.iter().map(|p| p.src()).collect();
                        proj.dedup(); // pairs sorted source-major
                        best = Some((pairs.len(), proj));
                    }
                }
                match best {
                    Some((_, proj)) => proj,
                    None => self.g.vertices().collect(), // isolated variable
                }
            }
        };
        cands.sort_unstable();
        cands.dedup();
        // Verify all remaining constraints (including self-loops).
        cands.retain(|&c| self.verify(var, c));
        cands
    }

    fn verify(&self, var: u32, c: VertexId) -> bool {
        for e in self.p.incident(var) {
            if e.from == var && e.to == var {
                if !self.g.has_edge(c, c, e.label.fwd()) {
                    return false;
                }
                continue;
            }
            if e.from == var {
                if let Some(y) = self.assign[e.to as usize] {
                    if !self.g.has_edge(c, y, e.label.fwd()) {
                        return false;
                    }
                }
            } else if e.to == var {
                if let Some(x) = self.assign[e.from as usize] {
                    if !self.g.has_edge(x, c, e.label.fwd()) {
                        return false;
                    }
                }
            }
        }
        true
    }
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
        assert_eq!(TurboEngine.evaluate(&g, &q), eval_reference(&g, &q));
        assert_eq!(TurboEngine.evaluate(&g, &q).len(), 3);
    }

    #[test]
    fn homomorphic_not_isomorphic() {
        // Square template with repeated labels on a single 2-path: the two
        // branches may map onto the SAME path (homomorphism). Isomorphic
        // matchers would return nothing here.
        let g = generate::labeled_path(&["a", "b"]);
        let q = parse_cpq("(a . b) & (a . b)", &g).unwrap();
        let result = TurboEngine.evaluate(&g, &q);
        assert_eq!(result, vec![Pair::new(0, 2)]);
    }

    #[test]
    fn first_result_consistency() {
        let g = generate::gex();
        let q = parse_cpq("f . f", &g).unwrap();
        let all = TurboEngine.evaluate(&g, &q);
        let first = TurboEngine.evaluate_first(&g, &q).unwrap();
        assert!(all.contains(&first));
        let empty = parse_cpq("(v . v) & f", &g).unwrap();
        assert!(TurboEngine.evaluate_first(&g, &empty).is_none());
    }

    #[test]
    fn identity_patterns() {
        let g = generate::gex();
        for src in ["id", "(f . f^-1) & id", "(f . f . f) & id"] {
            let q = parse_cpq(src, &g).unwrap();
            assert_eq!(TurboEngine.evaluate(&g, &q), eval_reference(&g, &q), "{src}");
        }
    }
}
