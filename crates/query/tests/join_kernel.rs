//! Differential properties of the output-sensitive join kernel in
//! `cpqx_query::ops`: every operator against a naive `HashSet` join, over
//! dense id ranges (both accumulator modes), sparse ids near `u32::MAX`
//! (rank-compressed columns, binary-search row lookup — setup must not be
//! `O(max id)`), unsorted and duplicated left operands, empty operands,
//! and the graph-face operators on generated graphs.

use cpqx_graph::generate::{random_graph, RandomGraphConfig};
use cpqx_graph::{Graph, Pair};
use cpqx_query::ops::{self, EvalContext};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// The reference: `{(v, y) | (v, u) ∈ left, (u, y) ∈ right}` (only
/// `v = y` with `loops`) through hash maps, sorted at the end.
fn naive_join(left: &[Pair], right: &[Pair], loops: bool) -> Vec<Pair> {
    let mut rows: HashMap<u32, Vec<u32>> = HashMap::new();
    for p in right {
        rows.entry(p.src()).or_default().push(p.dst());
    }
    let mut out = HashSet::new();
    for p in left {
        for &y in rows.get(&p.dst()).map(Vec::as_slice).unwrap_or(&[]) {
            if !loops || p.src() == y {
                out.insert(Pair::new(p.src(), y));
            }
        }
    }
    let mut out: Vec<Pair> = out.into_iter().collect();
    out.sort_unstable();
    out
}

fn pairs(raw: &[(u32, u32)], id: impl Fn(u32) -> u32) -> Vec<Pair> {
    raw.iter().map(|&(v, u)| Pair::new(id(v), id(u))).collect()
}

fn normalized(mut v: Vec<Pair>) -> Vec<Pair> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Joins `left` (as given: any order, duplicates) with the normalized
/// `right` through one shared context and checks both operators.
fn check(ctx: &mut EvalContext, left: &[Pair], right: &[Pair]) {
    assert_eq!(ctx.join_pairs(left, right), naive_join(left, right, false), "join");
    assert_eq!(ctx.join_pairs_id(left, right), naive_join(left, right, true), "join-id");
}

/// Ids spread over the upper half of the `u32` range, `sparse(0)` being
/// `u32::MAX`.
fn sparse(x: u32) -> u32 {
    u32::MAX - x.wrapping_mul(97_654_321) % (u32::MAX / 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn small_dense_ids_match_the_naive_join(
        left in prop::collection::vec((0u32..64, 0u32..64), 0..200),
        right in prop::collection::vec((0u32..64, 0u32..64), 0..400),
    ) {
        let (left, right) = (pairs(&left, |x| x), normalized(pairs(&right, |x| x)));
        let mut ctx = EvalContext::new();
        check(&mut ctx, &left, &right);
        // The left's order and duplicates must not matter.
        check(&mut ctx, &normalized(left.clone()), &right);
    }

    #[test]
    fn stringhs_shaped_dense_ids_match_the_naive_join(
        left in prop::collection::vec((0u32..300, 0u32..300), 0..3_000),
        right in prop::collection::vec((0u32..300, 0u32..300), 0..6_000),
    ) {
        let (left, right) = (pairs(&left, |x| x), normalized(pairs(&right, |x| x)));
        check(&mut EvalContext::new(), &left, &right);
    }

    #[test]
    fn sparse_ids_near_u32_max_match_the_naive_join(
        left in prop::collection::vec((0u32..40, 0u32..40), 0..300),
        right in prop::collection::vec((0u32..40, 0u32..40), 0..300),
    ) {
        let (left, right) = (pairs(&left, sparse), normalized(pairs(&right, sparse)));
        check(&mut EvalContext::new(), &left, &right);
        // Mixed: dense sources with sparse targets (rank columns behind a
        // direct row table), and sparse middles on the left.
        let mixed = normalized(right.iter().map(|p| Pair::new(p.src() % 50, p.dst())).collect());
        let left_mixed: Vec<Pair> = left.iter().map(|p| Pair::new(p.src(), p.dst() % 50)).collect();
        check(&mut EvalContext::new(), &left_mixed, &mixed);
    }

    #[test]
    fn one_context_across_shapes_matches_the_naive_join(
        shapes in prop::collection::vec((0u32..3, 1u32..400, 0usize..500), 1..8),
    ) {
        // Alternating dense, sparse and wide joins on one context: the
        // accumulator must come back clean after every row.
        let mut ctx = EvalContext::new();
        for (i, &(kind, universe, n)) in shapes.iter().enumerate() {
            let draw = |salt: u32| -> Vec<Pair> {
                (0..n as u32)
                    .map(|k| {
                        let h = (k ^ salt).wrapping_mul(2_654_435_761);
                        let (v, u) = (h % universe, (h >> 7) % universe);
                        match kind {
                            0 => Pair::new(v, u),
                            1 => Pair::new(sparse(v), sparse(u)),
                            _ => Pair::new(v * 1_000, u * 70_001),
                        }
                    })
                    .collect()
            };
            let left = draw(i as u32);
            let right = normalized(draw(i as u32 + 1_000));
            check(&mut ctx, &left, &right);
        }
    }

    #[test]
    fn graph_face_operators_match_pair_joins(seed in 0u64..1_000, dense in 0u32..2) {
        let cfg = if dense == 1 {
            RandomGraphConfig::uniform(40, 600, 3, seed)
        } else {
            RandomGraphConfig::social(120, 300, 3, seed)
        };
        check_graph(&random_graph(&cfg));
    }
}

/// `expand_adjacency(_id)` and `join_label_left` against the naive join
/// over the label relations, on one shared context.
fn check_graph(g: &Graph) {
    let mut ctx = EvalContext::new();
    for a in g.ext_labels() {
        let left = g.edge_pairs(a).to_vec();
        // A thinned left probes the other side of the adaptive JOIN-IDs.
        let few: Vec<Pair> = left.iter().copied().step_by(7).collect();
        for l in g.ext_labels() {
            let rel = g.edge_pairs(l).to_vec();
            for left in [&left, &few] {
                let want = naive_join(left, &rel, false);
                assert_eq!(ctx.join_pairs(left, &rel), want, "join");
                assert_eq!(ctx.expand_adjacency(g, left, l), want, "expand");
                let want_id = naive_join(left, &rel, true);
                assert_eq!(ctx.expand_adjacency_id(g, left, l), want_id, "expand-id");
                let rel_left = naive_join(&rel, left, false);
                assert_eq!(ctx.join_label_left(g, l, left, false), rel_left, "label-left");
                let rel_left_id = naive_join(&rel, left, true);
                assert_eq!(ctx.join_label_left(g, l, left, true), rel_left_id, "label-left-id");
            }
        }
    }
}

#[test]
fn empty_operands_give_empty_answers() {
    let g = random_graph(&RandomGraphConfig::uniform(10, 20, 2, 1));
    let l = g.ext_labels().next().unwrap();
    let some = [Pair::new(0, 1), Pair::new(1, 2)];
    let mut ctx = EvalContext::new();
    for (left, right) in [(&[][..], &some[..]), (&some[..], &[][..]), (&[][..], &[][..])] {
        assert!(ctx.join_pairs(left, right).is_empty());
        assert!(ctx.join_pairs_id(left, right).is_empty());
    }
    assert!(ctx.expand_adjacency(&g, &[], l).is_empty());
    assert!(ctx.expand_adjacency_id(&g, &[], l).is_empty());
    assert!(ctx.join_label_left(&g, l, &[], false).is_empty());
    assert!(ctx.join_label_left(&g, l, &[], true).is_empty());
    assert!(ops::join_pairs(&[], &[]).is_empty());
}

#[test]
fn extreme_ids_do_not_allocate_by_max_id() {
    // Sources and targets at both ends of the id space: a set-up sized by
    // the id range would need gigabytes here.
    let (lo, hi) = (0, u32::MAX);
    let left = vec![Pair::new(hi, lo), Pair::new(lo, hi), Pair::new(hi, hi)];
    let right = normalized(vec![Pair::new(lo, hi), Pair::new(lo, lo), Pair::new(hi, lo)]);
    let mut ctx = EvalContext::new();
    check(&mut ctx, &left, &right);
    assert_eq!(
        ctx.join_pairs(&left, &right),
        vec![Pair::new(lo, lo), Pair::new(hi, lo), Pair::new(hi, hi)]
    );
}
