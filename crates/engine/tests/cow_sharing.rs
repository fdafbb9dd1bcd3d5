//! Structural-sharing properties of the copy-on-write write path: a
//! delta transaction's snapshot must share every untouched chunk with
//! the snapshot it replaced (`Arc::ptr_eq`, surfaced through
//! `cow_diff`), and old-epoch readers pinned across the install must keep
//! answering from their version.

use cpqx_engine::delta::Delta;
use cpqx_engine::{Engine, EngineOptions};
use cpqx_graph::{generate, Graph, GraphBuilder};
use cpqx_query::eval::eval_reference;
use cpqx_query::workload::{GraphProbe, WorkloadGen};
use cpqx_query::{Cpq, Template};

/// A random social graph rebuilt with a tiny chunk weight so the COW
/// chunk boundaries fall *inside* the data even at test scale.
fn chunky_graph(vertices: u32, edges: usize, seed: u64) -> Graph {
    let g = generate::random_graph(&generate::RandomGraphConfig::social(vertices, edges, 3, seed));
    let mut b = GraphBuilder::new();
    for v in g.vertices() {
        b.vertex(g.vertex_name(v));
    }
    for l in g.labels() {
        b.label(g.label_name(l));
    }
    for (v, u, l) in g.base_edges() {
        b.add_edge(v, u, l);
    }
    b.build_with_chunk_weight(64)
}

fn workload(g: &Graph) -> Vec<Cpq> {
    let probe = GraphProbe(g);
    let mut gen = WorkloadGen::new(g, 7);
    Template::ALL.iter().flat_map(|&t| gen.queries(t, 2, &probe)).collect()
}

#[test]
fn small_delta_shares_untouched_chunks() {
    // A long path whose vertex ids are consecutive along the walk: the
    // pairs a mid-path edge flip can affect all live within distance k of
    // the endpoints, i.e. in a handful of adjacent id ranges — the
    // locality the chunked stores turn into structural sharing. (On
    // hub-heavy graphs one edge can legitimately touch classes in many
    // chunks; sharing then shows at real scale, not at 300 vertices.)
    let labels: Vec<String> = (0..4000).map(|i| format!("l{}", i % 3)).collect();
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let path = generate::labeled_path(&label_refs);
    let mut b = GraphBuilder::new();
    for v in path.vertices() {
        b.vertex(path.vertex_name(v));
    }
    for l in path.labels() {
        b.label(path.label_name(l));
    }
    for (v, u, l) in path.base_edges() {
        b.add_edge(v, u, l);
    }
    let g = b.build_with_chunk_weight(64);
    let (engine, _) = Engine::with_options(
        g,
        EngineOptions { k: 2, auto_rebuild_ratio: None, ..EngineOptions::default() },
    );
    let snap0 = engine.snapshot();
    assert!(snap0.graph().chunk_count() > 20, "test graph must span many chunks");
    assert!(snap0.index().chunk_count() > 2, "index must span several chunks/shards");

    let (v, u, l) = snap0.graph().base_edges().nth(2000).expect("mid-path edge");
    let report = engine
        .apply_delta(&Delta::new().delete_edge(v, u, l).insert_edge(v, u, l))
        .expect("valid delta");
    assert_eq!(report.applied, 2);

    let snap1 = engine.snapshot();
    let gd = snap1.graph().cow_diff(snap0.graph());
    // The edge touches at most the two endpoint chunks.
    assert!(gd.chunks_copied <= 2, "graph copied more than the endpoint chunks: {gd:?}");
    assert_eq!(gd.chunks_copied + gd.chunks_shared, snap1.graph().chunk_count());
    assert!(gd.chunks_shared > gd.chunks_copied, "most graph chunks must stay shared: {gd:?}");

    let id = snap1.index().cow_diff(snap0.index());
    assert!(id.chunks_shared > 0, "index stores must share untouched chunks: {id:?}");
    assert_eq!(id.chunks_copied + id.chunks_shared, snap1.index().chunk_count());

    // The engine's cumulative gauges agree with the per-snapshot diffs.
    let stats = engine.stats();
    assert_eq!(stats.cow_chunks_copied, (gd.chunks_copied + id.chunks_copied) as u64);
    assert_eq!(stats.cow_chunks_shared, (gd.chunks_shared + id.chunks_shared) as u64);
}

#[test]
fn pinned_old_epoch_readers_survive_writes() {
    let g = chunky_graph(200, 800, 23);
    let engine = Engine::build(g, 2);
    let snap0 = engine.snapshot();
    let queries = workload(snap0.graph());
    let expected0: Vec<_> = queries.iter().map(|q| eval_reference(snap0.graph(), q)).collect();

    // Stream several small deltas; after each install, the pinned epoch-0
    // snapshot must still answer exactly as before the writes — its
    // shared chunks are immutable, only the writer's copies moved on.
    for (i, &(v, u, l)) in generate::sample_edges(snap0.graph(), 6, 5).iter().enumerate() {
        engine.apply_delta(&Delta::new().delete_edge(v, u, l)).expect("valid delta");
        assert_eq!(engine.epoch(), i as u64 + 1);
        for (q, want) in queries.iter().zip(&expected0) {
            assert_eq!(&snap0.evaluate(q), want, "pinned reader torn at epoch {}", i + 1);
        }
    }
    // And the live snapshot matches sequential evaluation of the mutated
    // graph.
    let live = engine.snapshot();
    for q in &queries {
        assert_eq!(*engine.query(q), eval_reference(live.graph(), q), "{q:?}");
    }
}

/// Engine-level regression for the empty-baseline fragmentation misfire:
/// an engine seeded with an edgeless graph and an aggressive rebuild
/// threshold must not thrash auto-rebuilds on its first inserts.
#[test]
fn empty_seeded_engine_does_not_thrash_rebuilds() {
    let mut b = GraphBuilder::new();
    b.ensure_vertices(16);
    b.ensure_labels(2);
    let (engine, _) = Engine::with_options(
        b.build(),
        EngineOptions { k: 2, auto_rebuild_ratio: Some(1.5), ..EngineOptions::default() },
    );
    assert_eq!(engine.stats().baseline_classes, 0);
    // The first insert used to read as `ratio = class_slots` (baseline 0
    // fell into `.max(1)`), instantly tripping the 1.5 threshold. Now it
    // re-baselines: no rebuild, ratio exactly 1.0.
    let report = engine
        .apply_delta(&Delta::new().insert_edge(0, 1, cpqx_graph::Label(0)))
        .expect("valid delta");
    assert!(!report.rebuilt, "first growth must re-baseline, not rebuild");
    assert!((report.fragmentation_ratio - 1.0).abs() < 1e-9);
    let stats = engine.stats();
    assert_eq!(stats.auto_rebuilds, 0);
    assert!(stats.baseline_classes > 0, "baseline snapped to the first real classes");
    // Later growth fragments against that real baseline as usual (a
    // rebuild may then fire legitimately — that is policy, not thrash).
    for v in 1..15u32 {
        engine
            .apply_delta(&Delta::new().insert_edge(v, v + 1, cpqx_graph::Label(v as u16 % 2)))
            .expect("valid delta");
    }
    let stats = engine.stats();
    assert!(
        stats.auto_rebuilds < stats.delta_transactions,
        "not every transaction may rebuild: {stats}"
    );
    // Serving is correct on the grown graph.
    let snap = engine.snapshot();
    let q = cpqx_query::parse_cpq("l0 . l1", snap.graph()).unwrap();
    assert_eq!(*engine.query(&q), eval_reference(snap.graph(), &q));
}
