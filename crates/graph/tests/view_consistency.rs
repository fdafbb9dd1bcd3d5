//! Model-based test: replayed insert/remove/isolate/add-vertex scripts
//! against a plain set of extended edges. After every op, every read
//! path of the graph — neighbor rows, adjacency walks, edge probes,
//! degrees and the per-label pair lists — must agree with the model, and
//! the write must have copied only the chunks it touched (the maintenance
//! experiments depend on both).

use cpqx_graph::generate::{random_graph, RandomGraphConfig};
use cpqx_graph::{ExtLabel, Graph, GraphBuilder, Label, Pair, VertexId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Extended edges `(ext label, source, target)`.
type Model = BTreeSet<(u16, VertexId, VertexId)>;

fn model_of(g: &Graph) -> Model {
    g.base_edges().flat_map(|(v, u, l)| [(l.fwd().0, v, u), (l.inv().0, u, v)]).collect()
}

/// `g` rebuilt with an explicit chunk weight (`None`: the default).
fn with_chunk_weight(g: Graph, weight: Option<usize>) -> Graph {
    let Some(weight) = weight else { return g };
    let mut b = GraphBuilder::new();
    b.ensure_vertices(g.vertex_count());
    b.ensure_labels(g.base_label_count());
    for (v, u, l) in g.base_edges() {
        b.add_edge(v, u, l);
    }
    b.build_with_chunk_weight(weight)
}

/// Compares every read path of `g` with the model; `(lo, hi)` is the
/// source window probed with `restrict_src`.
fn check_against(g: &Graph, model: &Model, lo: VertexId, hi: VertexId) {
    let n = g.vertex_count() as usize;
    let mut rows: Vec<Vec<(ExtLabel, VertexId)>> = vec![Vec::new(); n];
    let mut rels: Vec<Vec<Pair>> = vec![Vec::new(); g.ext_label_count() as usize];
    // Model order is (label, source, target): per source that is
    // (label, target) order, per label the sorted relation.
    for &(l, v, t) in model {
        rows[v as usize].push((ExtLabel(l), t));
        rels[l as usize].push(Pair::new(v, t));
    }
    for v in g.vertices() {
        let row = &rows[v as usize];
        assert_eq!(g.adjacency(v).collect::<Vec<_>>(), *row, "adjacency of {v}");
        assert_eq!(g.ext_degree(v), row.len(), "ext_degree of {v}");
        for l in g.ext_labels() {
            let want: Vec<VertexId> =
                row.iter().filter(|&&(x, _)| x == l).map(|&(_, t)| t).collect();
            assert_eq!(g.neighbors(v, l), want.as_slice(), "neighbors({v}, {l:?})");
            for &t in &want {
                assert!(g.has_edge(v, t, l));
            }
            let absent = (v + 1 + l.0 as VertexId) % n as VertexId;
            assert_eq!(g.has_edge(v, absent, l), want.contains(&absent));
        }
    }
    for l in g.ext_labels() {
        let want = &rels[l.0 as usize];
        let pairs = g.edge_pairs(l);
        assert_eq!(pairs.len(), want.len(), "len of {l:?}");
        assert_eq!(pairs.to_vec(), *want, "pairs of {l:?}");
        assert!(pairs.iter().eq(want.iter().copied()));
        for &p in want {
            assert!(pairs.contains(p));
        }
        assert!(!pairs.contains(Pair::new(VertexId::MAX - 1, 0)));
        let window: Vec<Pair> =
            want.iter().copied().filter(|p| (lo..hi).contains(&p.src())).collect();
        let sub = pairs.restrict_src(lo, hi);
        assert_eq!(sub.len(), window.len(), "restrict_src({lo}, {hi}) len of {l:?}");
        assert_eq!(sub.to_vec(), window, "restrict_src({lo}, {hi}) of {l:?}");
        for p in want {
            assert_eq!(sub.contains(*p), window.contains(p));
        }
    }
    let forward_total: usize = g.labels().map(|l| g.edge_pairs(l.fwd()).len()).sum();
    assert_eq!(forward_total, g.edge_count());
    assert_eq!(model.len(), 2 * g.edge_count());
}

/// Applies one script op to graph and model; returns the number of
/// effective edge writes (0 for no-ops) and whether it added a vertex.
fn apply(g: &mut Graph, model: &mut Model, (v, u, l, op): (u32, u32, u16, u8)) -> (usize, bool) {
    let n = g.vertex_count();
    let (v, u, l) = (v % n, u % n, Label(l % g.base_label_count()));
    match op {
        0 => {
            let changed = g.insert_edge(v, u, l);
            assert_eq!(changed, model.insert((l.fwd().0, v, u)));
            model.insert((l.inv().0, u, v));
            (changed as usize, false)
        }
        1 => {
            let changed = g.remove_edge(v, u, l);
            assert_eq!(changed, model.remove(&(l.fwd().0, v, u)));
            model.remove(&(l.inv().0, u, v));
            (changed as usize, false)
        }
        2 => {
            let removed = g.isolate_vertex(v);
            for &(s, d, bl) in &removed {
                assert!(model.remove(&(bl.fwd().0, s, d)));
                assert!(model.remove(&(bl.inv().0, d, s)));
            }
            assert!(model.iter().all(|&(_, s, d)| s != v && d != v), "{v} isolated");
            (removed.len(), false)
        }
        _ => {
            assert_eq!(g.add_vertex(format!("x{n}")), n);
            (0, true)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn views_stay_consistent_under_updates(
        seed in 0u64..500,
        script in prop::collection::vec((0u32..40, 0u32..40, 0u16..3, 0u8..4), 0..40),
    ) {
        for weight in [Some(8), Some(64), None] {
            let cfg = RandomGraphConfig::social(30, 80, 3, seed);
            let mut g = with_chunk_weight(random_graph(&cfg), weight);
            let mut model = model_of(&g);
            check_against(&g, &model, 0, g.vertex_count());
            for &step in &script {
                let before = g.clone();
                let (writes, grew) = apply(&mut g, &mut model, step);
                let copied = g.cow_diff(&before).chunks_copied;
                if grew {
                    // The grown (or new) last topology chunk plus its name chunk.
                    prop_assert!(copied <= 2, "add_vertex copied {} chunks", copied);
                } else {
                    prop_assert!(
                        copied <= 2 * writes,
                        "{} effective edge writes copied {} chunks", writes, copied
                    );
                }
                let (a, b) = (step.0 % g.vertex_count(), step.1 % g.vertex_count());
                check_against(&g, &model, a.min(b), a.max(b) + 1);
            }
        }
    }

    #[test]
    fn has_edge_agrees_with_pair_lists(seed in 0u64..200) {
        let cfg = RandomGraphConfig::uniform(25, 70, 2, seed);
        let g = random_graph(&cfg);
        for v in g.vertices() {
            for u in g.vertices() {
                for l in g.ext_labels() {
                    let via_adj = g.has_edge(v, u, l);
                    let via_pairs = g.edge_pairs(l).contains(Pair::new(v, u));
                    prop_assert_eq!(via_adj, via_pairs);
                }
            }
        }
    }

    #[test]
    fn neighbors_slice_is_exact(seed in 0u64..200) {
        let cfg = RandomGraphConfig::social(25, 70, 3, seed);
        let g = random_graph(&cfg);
        for v in g.vertices() {
            let mut total = 0;
            for l in g.ext_labels() {
                let slice = g.neighbors(v, l);
                prop_assert!(slice.windows(2).all(|w| w[0] < w[1]));
                for &t in slice {
                    prop_assert!(g.has_edge(v, t, l));
                }
                total += slice.len();
            }
            prop_assert_eq!(total, g.ext_degree(v));
        }
    }
}
