//! Seeded query workload generation (Sec. VI, "Queries").
//!
//! For each template and dataset the paper generates ten queries with random
//! labels, keeping only queries "in which all (sub-)paths of length two are
//! non-empty" (final answers may still be empty — intermediate results are
//! not). [`WorkloadGen`] reproduces this: it instantiates a
//! [`Template`] with uniformly random extended labels and accepts the query
//! iff every length-2 window of every maximal label run is non-empty
//! according to a [`SeqProbe`].

use crate::ast::{Cpq, Template};
use cpqx_graph::{ExtLabel, Graph, LabelSeq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Answers "does some path with this label sequence exist?" — used by the
/// workload filter. Implemented by the graph itself ([`GraphProbe`]) and by
/// the indexes (a lookup is O(1)).
pub trait SeqProbe {
    /// Whether `⟦seq⟧` is non-empty.
    fn seq_nonempty(&self, seq: &LabelSeq) -> bool;
}

/// Index-free probe: checks sequence non-emptiness by early-exit DFS over
/// the adjacency lists.
pub struct GraphProbe<'g>(
    /// The graph to probe.
    pub &'g Graph,
);

impl SeqProbe for GraphProbe<'_> {
    fn seq_nonempty(&self, seq: &LabelSeq) -> bool {
        if seq.is_empty() {
            return true;
        }
        let first = seq.get(0);
        for p in self.0.edge_pairs(first) {
            if extend(self.0, p.dst(), seq, 1) {
                return true;
            }
        }
        false
    }
}

fn extend(g: &Graph, v: u32, seq: &LabelSeq, depth: usize) -> bool {
    if depth == seq.len() {
        return true;
    }
    let l = seq.get(depth);
    for &t in g.neighbors(v, l) {
        if extend(g, t, seq, depth + 1) {
            return true;
        }
    }
    false
}

/// Seeded template instantiator.
pub struct WorkloadGen<'g> {
    graph: &'g Graph,
    rng: StdRng,
    /// Extended labels that have at least one edge — the sampling pool.
    pool: Vec<ExtLabel>,
}

impl<'g> WorkloadGen<'g> {
    /// Creates a generator; deterministic in `seed`.
    pub fn new(graph: &'g Graph, seed: u64) -> Self {
        let pool: Vec<ExtLabel> =
            graph.ext_labels().filter(|&l| !graph.edge_pairs(l).is_empty()).collect();
        WorkloadGen { graph, rng: StdRng::seed_from_u64(seed), pool }
    }

    /// The graph this generator draws labels from.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Samples one random non-empty extended label.
    pub fn random_label(&mut self) -> ExtLabel {
        assert!(!self.pool.is_empty(), "graph has no edges");
        self.pool[self.rng.gen_range(0..self.pool.len())]
    }

    /// Instantiates `template` once, retrying labels until the paper's
    /// filter passes (up to `attempts` tries). Returns `None` if the graph
    /// is too sparse to satisfy the filter.
    pub fn instantiate(
        &mut self,
        template: Template,
        probe: &dyn SeqProbe,
        attempts: usize,
    ) -> Option<Cpq> {
        for _ in 0..attempts {
            let labels: Vec<ExtLabel> =
                (0..template.arity()).map(|_| self.random_label()).collect();
            let q = template.instantiate(&labels);
            if passes_filter(&q, probe) {
                return Some(q);
            }
        }
        None
    }

    /// Generates up to `count` filtered queries for `template` (the paper
    /// uses ten per template/dataset).
    pub fn queries(&mut self, template: Template, count: usize, probe: &dyn SeqProbe) -> Vec<Cpq> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            if let Some(q) = self.instantiate(template, probe, 300) {
                out.push(q);
            }
        }
        out
    }
}

/// The paper's workload filter: every maximal label run must have all of its
/// length-2 windows non-empty (single-label runs are checked directly).
pub fn passes_filter(q: &Cpq, probe: &dyn SeqProbe) -> bool {
    for run in q.label_runs() {
        if run.len() == 1 {
            if !probe.seq_nonempty(&LabelSeq::single(run[0])) {
                return false;
            }
            continue;
        }
        for w in run.windows(2) {
            if !probe.seq_nonempty(&LabelSeq::from_slice(w)) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_reference;
    use cpqx_graph::generate;

    #[test]
    fn graph_probe_basic() {
        let g = generate::labeled_path(&["a", "b", "c"]);
        let probe = GraphProbe(&g);
        let a = g.label_named("a").unwrap().fwd();
        let b = g.label_named("b").unwrap().fwd();
        let c = g.label_named("c").unwrap().fwd();
        assert!(probe.seq_nonempty(&LabelSeq::from_slice(&[a, b])));
        assert!(probe.seq_nonempty(&LabelSeq::from_slice(&[a, b, c])));
        assert!(!probe.seq_nonempty(&LabelSeq::from_slice(&[b, a])));
        assert!(probe.seq_nonempty(&LabelSeq::from_slice(&[b, b.inverse()])));
    }

    #[test]
    fn probe_agrees_with_reference() {
        let cfg = generate::RandomGraphConfig::social(50, 200, 3, 5);
        let g = generate::random_graph(&cfg);
        let probe = GraphProbe(&g);
        for l1 in g.ext_labels() {
            for l2 in g.ext_labels() {
                let seq = LabelSeq::from_slice(&[l1, l2]);
                let q = Cpq::ext(l1).join(Cpq::ext(l2));
                assert_eq!(
                    probe.seq_nonempty(&seq),
                    !eval_reference(&g, &q).is_empty(),
                    "seq {seq:?}"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g = generate::gex();
        let probe = GraphProbe(&g);
        let qs1 = WorkloadGen::new(&g, 7).queries(Template::T, 5, &probe);
        let qs2 = WorkloadGen::new(&g, 7).queries(Template::T, 5, &probe);
        assert_eq!(qs1, qs2);
        assert!(!qs1.is_empty());
    }

    #[test]
    fn generated_queries_pass_filter() {
        let cfg = generate::RandomGraphConfig::social(100, 600, 4, 3);
        let g = generate::random_graph(&cfg);
        let probe = GraphProbe(&g);
        let mut gen = WorkloadGen::new(&g, 11);
        for t in Template::ALL {
            for q in gen.queries(t, 3, &probe) {
                assert!(passes_filter(&q, &probe), "template {}", t.name());
            }
        }
    }

    #[test]
    fn filter_rejects_empty_two_paths() {
        let g = generate::labeled_path(&["a", "b"]);
        let probe = GraphProbe(&g);
        let a = g.label_named("a").unwrap();
        let q = Cpq::label(a).join(Cpq::label(a)); // a·a has no match
        assert!(!passes_filter(&q, &probe));
    }
}
