//! Bounded path enumeration on the extended graph — the primitives behind
//! index maintenance (recomputing `L≤k(v,u)` for affected pairs and finding
//! the pairs an edge update can affect) and the partition-invariant tests.

use cpqx_graph::{Graph, LabelSeq, Pair, VertexId};
use std::collections::HashMap;

/// Enumerates the sorted, distinct label sequences of all paths from `src`
/// to `dst` of length `1..=k` (i.e. `L≤k(src,dst)` minus the identity).
///
/// Meet-in-the-middle: forward walks of length ≤ ⌈k/2⌉ from `src` and
/// backward walks of length ≤ ⌊k/2⌋ from `dst` are joined on their meeting
/// vertex, so the cost is O(d^⌈k/2⌉) instead of the naive O(dᵏ) — the
/// difference between microseconds and seconds per affected pair on the
/// hub-heavy graphs of Table II.
pub fn label_seqs_between(g: &Graph, src: VertexId, dst: VertexId, k: usize) -> Vec<LabelSeq> {
    assert!((1..=cpqx_graph::MAX_SEQ_LEN).contains(&k));
    let h1 = k.div_ceil(2);
    let h2 = k / 2;
    // Forward prefixes: (meeting vertex, prefix length) → sequences.
    let mut fwd: HashMap<(VertexId, u8), Vec<LabelSeq>> = HashMap::new();
    collect_walks(g, src, h1, &mut fwd);
    // Backward suffixes from dst (walked on the extended graph, then
    // reversed+inverted back into forward form).
    let mut bwd_raw: HashMap<(VertexId, u8), Vec<LabelSeq>> = HashMap::new();
    collect_walks(g, dst, h2, &mut bwd_raw);

    let mut out = Vec::new();
    for (&(mid, p), prefixes) in &fwd {
        for s in 0..=(h2 as u8) {
            let j = p as usize + s as usize;
            if j == 0 || j > k {
                continue;
            }
            // Each path of length j is counted once: split at p = ⌈j/2⌉.
            if p as usize != j.div_ceil(2) {
                continue;
            }
            let Some(suffixes) = bwd_raw.get(&(mid, s)) else {
                continue;
            };
            for prefix in prefixes {
                for suffix in suffixes {
                    out.push(prefix.concat(&suffix.reversed_inverse()));
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// All walks of length `0..=depth` from `start`, grouped by
/// `(end vertex, length)`.
fn collect_walks(
    g: &Graph,
    start: VertexId,
    depth: usize,
    out: &mut HashMap<(VertexId, u8), Vec<LabelSeq>>,
) {
    out.entry((start, 0)).or_default().push(LabelSeq::empty());
    let mut cur = LabelSeq::empty();
    walk_rec(g, start, depth, 0, &mut cur, out);
}

fn walk_rec(
    g: &Graph,
    v: VertexId,
    depth: usize,
    len: u8,
    cur: &mut LabelSeq,
    out: &mut HashMap<(VertexId, u8), Vec<LabelSeq>>,
) {
    if (len as usize) == depth {
        return;
    }
    for (l, t) in g.adjacency(v) {
        let mut next = cur.appended(l);
        out.entry((t, len + 1)).or_default().push(next);
        std::mem::swap(cur, &mut next);
        walk_rec(g, t, depth, len + 1, cur, out);
        std::mem::swap(cur, &mut next);
    }
}

/// Reference implementation of [`label_seqs_between`] — straightforward
/// depth-first enumeration. Kept for differential testing.
pub fn label_seqs_between_naive(
    g: &Graph,
    src: VertexId,
    dst: VertexId,
    k: usize,
) -> Vec<LabelSeq> {
    let mut out = Vec::new();
    let mut cur = LabelSeq::empty();
    naive_rec(g, src, dst, k, &mut cur, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

fn naive_rec(
    g: &Graph,
    v: VertexId,
    dst: VertexId,
    remaining: usize,
    cur: &mut LabelSeq,
    out: &mut Vec<LabelSeq>,
) {
    if remaining == 0 {
        return;
    }
    for (l, t) in g.adjacency(v) {
        let mut next = cur.appended(l);
        if t == dst {
            out.push(next);
        }
        if remaining > 1 {
            std::mem::swap(cur, &mut next);
            naive_rec(g, t, dst, remaining - 1, cur, out);
            std::mem::swap(cur, &mut next);
        }
    }
}

/// Vertices within distance `radius` (over extended edges, any label) of
/// `seed`, bucketed by exact BFS distance: `buckets[d]` holds the vertices
/// at distance `d`.
pub fn distance_buckets(g: &Graph, seed: VertexId, radius: usize) -> Vec<Vec<VertexId>> {
    let mut dist: HashMap<VertexId, u8> = HashMap::new();
    let mut buckets: Vec<Vec<VertexId>> = vec![vec![seed]];
    dist.insert(seed, 0);
    for d in 1..=radius {
        let mut next = Vec::new();
        for &v in &buckets[d - 1] {
            for (_, t) in g.adjacency(v) {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(t) {
                    e.insert(d as u8);
                    next.push(t);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        buckets.push(next);
    }
    buckets
}

/// Vertices within distance `radius` of any seed, with minimum distances
/// (the merged ball of Sec. IV-E's breadth-first search).
pub fn bounded_ball(g: &Graph, seeds: &[VertexId], radius: usize) -> Vec<(VertexId, u8)> {
    let mut dist: HashMap<VertexId, u8> = HashMap::new();
    let mut frontier: Vec<VertexId> = Vec::new();
    for &s in seeds {
        if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(s) {
            e.insert(0);
            frontier.push(s);
        }
    }
    for d in 1..=radius {
        let mut next = Vec::new();
        for &v in &frontier {
            for (_, t) in g.adjacency(v) {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(t) {
                    e.insert(d as u8);
                    next.push(t);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    let mut out: Vec<(VertexId, u8)> = dist.into_iter().collect();
    out.sort_unstable();
    out
}

/// All pairs whose `L≤k` can change when an edge between `v` and `u` is
/// inserted or deleted (Sec. IV-E's `Pu`, over-approximated):
///
/// * **single edge use**: a path `x →(j₁)→ a –edge→ b →(j₂)→ y` with
///   `{a,b} = {v,u}` and `j₁ + 1 + j₂ ≤ k` — the distance-bucketed cross
///   products below, O(d) pairs for k = 2 instead of the O(d²) a merged
///   ball-product would enumerate;
/// * **multiple edge uses**: both legs must then fit in `k − 2` steps, a
///   tiny merged-ball product.
pub fn affected_pairs(g: &Graph, v: VertexId, u: VertexId, k: usize) -> Vec<Pair> {
    let bv = distance_buckets(g, v, k - 1);
    let bu = distance_buckets(g, u, k - 1);
    let mut out = Vec::new();
    for (j1, bucket_v) in bv.iter().enumerate() {
        for (j2, bucket_u) in bu.iter().enumerate() {
            if j1 + 1 + j2 > k {
                continue;
            }
            for &x in bucket_v {
                for &y in bucket_u {
                    // Through v→u and through the inverse edge u→v.
                    out.push(Pair::new(x, y));
                    out.push(Pair::new(y, x));
                }
            }
        }
    }
    if k >= 2 {
        // Paths using the edge more than once: ≥ 2 uses cost ≥ 2 steps, so
        // the legs fit in k − 2.
        let merged = bounded_ball(g, &[v, u], k - 2);
        for &(x, dx) in &merged {
            for &(y, dy) in &merged {
                if (dx as usize) + (dy as usize) <= k - 2 {
                    out.push(Pair::new(x, y));
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate;

    #[test]
    fn seqs_on_a_path() {
        let g = generate::labeled_path(&["a", "b"]);
        let (v0, v2) = (0, 2);
        let seqs = label_seqs_between(&g, v0, v2, 2);
        assert_eq!(seqs.len(), 1);
        assert_eq!(seqs[0].len(), 2);
        // Within k = 1 there is no path.
        assert!(label_seqs_between(&g, v0, v2, 1).is_empty());
    }

    #[test]
    fn seqs_include_inverse_steps() {
        // a: 0→1, so 1→0 via a⁻¹; 0→1→0 is ⟨a, a⁻¹⟩.
        let g = generate::labeled_path(&["a"]);
        let seqs = label_seqs_between(&g, 0, 0, 2);
        assert_eq!(seqs.len(), 1);
        let s = seqs[0];
        assert_eq!(s.get(0).base(), s.get(1).base());
        assert_ne!(s.get(0).is_inverse(), s.get(1).is_inverse());
    }

    #[test]
    fn gex_triad_seqs() {
        let g = generate::gex();
        let (joe, sue) = (g.vertex_named("joe").unwrap(), g.vertex_named("sue").unwrap());
        let f = g.label_named("f").unwrap();
        let seqs = label_seqs_between(&g, joe, sue, 2);
        // Fig. 3: L≤2(joe, sue) = {⟨f⁻¹⟩, ⟨f,f⟩, ⟨v,v⁻¹⟩}.
        assert_eq!(seqs.len(), 3);
        assert!(seqs.contains(&LabelSeq::single(f.inv())));
        assert!(seqs.contains(&LabelSeq::from_slice(&[f.fwd(), f.fwd()])));
    }

    #[test]
    fn mitm_matches_naive_enumeration() {
        for seed in 0..4u64 {
            let cfg = generate::RandomGraphConfig::social(30, 140, 3, seed);
            let g = generate::random_graph(&cfg);
            for k in 1..=4usize {
                for v in (0..g.vertex_count()).step_by(7) {
                    for u in (0..g.vertex_count()).step_by(5) {
                        assert_eq!(
                            label_seqs_between(&g, v, u, k),
                            label_seqs_between_naive(&g, v, u, k),
                            "seed {seed} k {k} pair ({v},{u})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ball_distances() {
        let g = generate::labeled_path(&["a", "a", "a", "a"]);
        let ball = bounded_ball(&g, &[2], 1);
        // Vertex 2 plus both neighbours (undirected via inverse edges).
        assert_eq!(ball, vec![(1, 1), (2, 0), (3, 1)]);
        let ball2 = bounded_ball(&g, &[2], 2);
        assert_eq!(ball2.len(), 5);
        let ball0 = bounded_ball(&g, &[2], 0);
        assert_eq!(ball0, vec![(2, 0)]);
    }

    #[test]
    fn ball_merges_seeds() {
        let g = generate::labeled_path(&["a", "a", "a"]);
        let ball = bounded_ball(&g, &[0, 3], 1);
        let d: std::collections::HashMap<_, _> = ball.into_iter().collect();
        assert_eq!(d[&0], 0);
        assert_eq!(d[&3], 0);
        assert_eq!(d[&1], 1);
        assert_eq!(d[&2], 1);
    }

    #[test]
    fn buckets_match_ball() {
        let g = generate::gex();
        let v = g.vertex_named("ada").unwrap();
        let buckets = distance_buckets(&g, v, 2);
        let ball = bounded_ball(&g, &[v], 2);
        let flat: usize = buckets.iter().map(Vec::len).sum();
        assert_eq!(flat, ball.len());
        for (d, bucket) in buckets.iter().enumerate() {
            for x in bucket {
                assert!(ball.contains(&(*x, d as u8)));
            }
        }
    }

    #[test]
    fn affected_pairs_cover_endpoints_and_respect_radius() {
        let g = generate::labeled_path(&["a", "a", "a", "a"]);
        let aff = affected_pairs(&g, 2, 3, 2);
        assert!(aff.contains(&Pair::new(2, 3)));
        assert!(aff.contains(&Pair::new(3, 2)));
        assert!(aff.contains(&Pair::new(1, 3)));
        // Vertex 0 is ≥ 2 steps from both endpoints: unaffected at k = 2.
        assert!(!aff.iter().any(|p| p.src() == 0 || p.dst() == 0));
    }

    /// Soundness: every pair whose L≤k actually changes under an edge flip
    /// is in the candidate set.
    #[test]
    fn affected_pairs_are_sound() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for seed in 0..3u64 {
            let cfg = generate::RandomGraphConfig::social(24, 90, 2, seed);
            let mut g = generate::random_graph(&cfg);
            for k in 1..=3usize {
                for _ in 0..6 {
                    let v = rng.gen_range(0..g.vertex_count());
                    let u = rng.gen_range(0..g.vertex_count());
                    let l = cpqx_graph::Label(rng.gen_range(0..g.base_label_count()));
                    // Snapshot, flip the edge, compare all pairs.
                    let before: Vec<Vec<LabelSeq>> = (0..g.vertex_count())
                        .flat_map(|x| (0..g.vertex_count()).map(move |y| (x, y)))
                        .map(|(x, y)| label_seqs_between(&g, x, y, k))
                        .collect();
                    let inserted = g.insert_edge(v, u, l);
                    if !inserted {
                        g.remove_edge(v, u, l);
                    }
                    let candidates = affected_pairs(&g, v, u, k);
                    let n = g.vertex_count();
                    for x in 0..n {
                        for y in 0..n {
                            let after = label_seqs_between(&g, x, y, k);
                            if after != before[(x * n + y) as usize] {
                                assert!(
                                    candidates.binary_search(&Pair::new(x, y)).is_ok(),
                                    "changed pair ({x},{y}) missing from candidates (k={k})"
                                );
                            }
                        }
                    }
                    // Restore.
                    if inserted {
                        g.remove_edge(v, u, l);
                    } else {
                        g.insert_edge(v, u, l);
                    }
                }
            }
        }
    }
}
