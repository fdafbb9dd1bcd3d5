//! CSR read-face correctness: faces agree with the chunked rows (and an
//! inverse label's face with the reversed relation), mutation invalidates exactly the touched chunks' faces
//! (and a rebuilt face sees the delta), clones share built faces by
//! pointer — plus the skewed multi-segment `PairList` point/range lookup
//! regression.

use cpqx_graph::{Graph, GraphBuilder, Pair};

/// A multi-chunk graph with a tiny chunk weight so chunk boundaries fall
/// inside the data.
fn chunky(n: u32, weight: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.ensure_vertices(n);
    let f = b.label("f");
    let v = b.label("v");
    for x in 0..n {
        b.add_edge(x, (x + 1) % n, f);
        b.add_edge(x, (x + 7) % n, f);
        if x % 3 == 0 {
            b.add_edge(x, (x + 2) % n, v);
        }
    }
    b.build_with_chunk_weight(weight)
}

/// A graph with one hub vertex carrying most of the edges — segments are
/// heavily skewed across chunks.
fn skewed(n: u32, weight: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.ensure_vertices(n);
    let f = b.label("f");
    for x in 1..n {
        b.add_edge(0, x, f); // hub fan-out
        if x % 5 == 0 {
            b.add_edge(x, (x + 1) % n, f);
        }
    }
    b.build_with_chunk_weight(weight)
}

#[test]
fn forward_face_matches_adjacency_rows() {
    let g = chunky(64, 8);
    assert!(g.topology_chunk_count() > 4, "chunk boundaries must fall inside the data");
    for v in g.vertices() {
        for l in g.ext_labels() {
            let rows: Vec<u32> = g.neighbors(v, l).iter().map(|&(_, t)| t).collect();
            assert_eq!(g.csr_targets(v, l), rows.as_slice(), "targets of ({v}, {l:?})");
        }
    }
}

#[test]
fn inverse_label_face_is_the_reverse_relation() {
    // Faces have no separate reverse direction: `ℓ⁻¹`'s forward face
    // holds `⟦ℓ⟧` swapped, row by row.
    let g = chunky(64, 8);
    for l in g.labels() {
        let mut expect: Vec<Pair> = g.edge_pairs(l.fwd()).iter().map(|p| p.swap()).collect();
        expect.sort_unstable();
        let got: Vec<Pair> = g
            .vertices()
            .flat_map(|t| g.csr_targets(t, l.inv()).iter().map(move |&s| Pair::new(t, s)))
            .collect();
        assert_eq!(got, expect, "face of {:?}", l.inv());
    }
}

#[test]
fn mutation_invalidates_touched_faces_and_rebuild_sees_delta() {
    let mut g = chunky(64, 8);
    let f = g.label_named("f").unwrap();
    g.ensure_csr();
    assert!((0..g.topology_chunk_count()).all(|i| g.csr_built(i)));

    // Repeated COW deltas: after each one, only the endpoint chunks lost
    // their face, and the rebuilt face answers with the delta applied.
    for (a, b, insert) in [(3u32, 40u32, true), (10, 55, true), (3, 40, false), (0, 1, false)] {
        let before = g.clone(); // keeps refcounts > 1: make_mut must copy
        let changed = if insert { g.insert_edge(a, b, f) } else { g.remove_edge(a, b, f) };
        assert!(changed);
        let stale: Vec<usize> =
            (0..g.topology_chunk_count()).filter(|&i| !g.csr_built(i)).collect();
        assert!(
            !stale.is_empty() && stale.len() <= 2,
            "exactly the endpoint chunks lose their face: {stale:?}"
        );
        for i in 0..g.topology_chunk_count() {
            assert_eq!(
                g.csr_built(i),
                g.topology_chunk_shared_with(&before, i),
                "face staleness must track chunk copies (chunk {i})"
            );
        }
        // Rebuilt faces see the new state; the predecessor still has the
        // old faces with the old answers.
        assert_eq!(g.csr_targets(a, f.fwd()).contains(&b), insert);
        assert_eq!(g.csr_targets(b, f.inv()).contains(&a), insert);
        assert_eq!(before.csr_targets(a, f.fwd()).contains(&b), !insert);
        for v in g.vertices() {
            let rows: Vec<u32> = g.neighbors(v, f.fwd()).iter().map(|&(_, t)| t).collect();
            assert_eq!(g.csr_targets(v, f.fwd()), rows.as_slice());
        }
        assert!((0..g.topology_chunk_count()).all(|i| g.csr_built(i)), "reads rebuilt all");
    }
}

#[test]
fn in_place_mutation_at_refcount_one_still_invalidates() {
    // No live clone: `Arc::make_mut` mutates in place, so only the
    // explicit take() protects readers from a stale face.
    let mut g = chunky(64, 8);
    let f = g.label_named("f").unwrap();
    g.ensure_csr();
    assert!(!g.csr_targets(3, f.fwd()).contains(&40));
    assert!(g.insert_edge(3, 40, f));
    assert!(g.csr_targets(3, f.fwd()).contains(&40), "face rebuilt after in-place write");
}

#[test]
fn clones_share_built_faces_until_mutation() {
    let base = chunky(64, 8);
    base.ensure_csr();
    let mut g = base.clone();
    for i in 0..g.topology_chunk_count() {
        assert!(g.csr_shared_with(&base, i), "clone shares every built face");
    }
    let f = g.label_named("f").unwrap();
    g.insert_edge(3, 40, f);
    g.ensure_csr();
    let shared: Vec<bool> =
        (0..g.topology_chunk_count()).map(|i| g.csr_shared_with(&base, i)).collect();
    let copied = shared.iter().filter(|&&s| !s).count();
    assert!((1..=2).contains(&copied), "only endpoint chunks rebuild: {shared:?}");
    for (i, &s) in shared.iter().enumerate() {
        assert_eq!(s, g.topology_chunk_shared_with(&base, i));
    }
}

#[test]
fn add_vertex_invalidates_grown_chunk() {
    let mut g = chunky(16, usize::MAX); // single topology chunk
    assert_eq!(g.topology_chunk_count(), 1);
    g.ensure_csr();
    let d = g.add_vertex("extra");
    assert!(!g.csr_built(0), "growing the last chunk drops its face");
    let f = g.label_named("f").unwrap();
    assert!(g.csr_targets(d, f.fwd()).is_empty(), "fresh vertex has an (empty) CSR row");
}

#[test]
fn skewed_multi_segment_pair_list_lookups() {
    // Regression for the linear-scan `PairList::contains`/`restrict_src`:
    // a hub-skewed relation spread over many chunks, probed at points,
    // boundaries, and ranges; answers must match the brute-force filter.
    let g = skewed(96, 4);
    let f = g.label_named("f").unwrap();
    assert!(g.topology_chunk_count() > 6, "skew must span many chunks");
    let all = g.edge_pairs(f.fwd());
    let flat = all.to_vec();
    assert_eq!(all.len(), flat.len());
    for &p in &flat {
        assert!(all.contains(p), "{p:?} present");
    }
    for p in [Pair::new(0, 0), Pair::new(2, 3), Pair::new(95, 0), Pair::new(200, 1)] {
        assert_eq!(all.contains(p), flat.contains(&p), "{p:?} membership");
    }
    for (lo, hi) in [(0, 1), (0, 96), (1, 96), (5, 6), (40, 41), (90, 200), (30, 30), (50, 40)] {
        let sub = all.restrict_src(lo, hi);
        let expect: Vec<Pair> =
            flat.iter().copied().filter(|p| p.src() >= lo && p.src() < hi).collect();
        assert_eq!(sub.len(), expect.len(), "restrict_src({lo}, {hi}) length");
        assert_eq!(sub.to_vec(), expect, "restrict_src({lo}, {hi}) contents");
        for &p in &expect {
            assert!(sub.contains(p));
        }
        // Membership outside the window must be rejected by the bounds
        // check, not found via a stray segment.
        if let Some(&outside) = flat.iter().find(|p| p.src() < lo || p.src() >= hi) {
            assert!(!sub.contains(outside));
        }
        // Nested restriction composes.
        let nested = sub.restrict_src(lo.saturating_add(1), hi);
        let expect2: Vec<Pair> = expect.iter().copied().filter(|p| p.src() > lo).collect();
        assert_eq!(nested.to_vec(), expect2);
        assert_eq!(nested.len(), expect2.len());
    }
}

#[test]
fn concurrent_lazy_build_races_are_safe() {
    let g = chunky(64, 8);
    let f = g.label_named("f").unwrap();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for v in g.vertices() {
                    let rows: Vec<u32> = g.neighbors(v, f.fwd()).iter().map(|&(_, t)| t).collect();
                    assert_eq!(g.csr_targets(v, f.fwd()), rows.as_slice());
                }
            });
        }
    });
    assert!((0..g.topology_chunk_count()).all(|i| g.csr_built(i)));
}
