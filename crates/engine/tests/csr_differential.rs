//! Differential harness for the CSR read faces: every query answered
//! through the CSR fast paths must be byte-identical to the
//! index-expansion executor and to the hash-set reference oracle —
//! across benchmark queries, all templates, random CPQ trees,
//! mutation-then-read sequences, and concurrent readers. Also pins the snapshot-install
//! economics: untouched chunks carry their faces across `apply_delta`
//! by `Arc` pointer, so a delta copies only the chunks it writes.

use cpqx_core::CpqxIndex;
use cpqx_engine::delta::Delta;
use cpqx_engine::{Engine, EngineOptions, ExecOptions};
use cpqx_graph::{generate, ExtLabel, Graph, GraphBuilder};
use cpqx_query::eval::eval_reference;
use cpqx_query::workload::{GraphProbe, WorkloadGen};
use cpqx_query::{benchqueries, Cpq, Template};
use rand::{Rng, SeedableRng};

/// A random social graph rebuilt with a tiny chunk weight so chunk
/// boundaries — and therefore per-chunk CSR faces — fall inside the data.
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

fn csr_off() -> ExecOptions {
    ExecOptions { csr_faces: false, ..ExecOptions::default() }
}

/// CSR-face evaluation vs index-expansion evaluation vs the oracle, over the
/// three benchmark query sets and every template.
#[test]
fn csr_matches_rows_on_benchqueries_and_templates() {
    let g = chunky_graph(220, 900, 11);
    let idx = CpqxIndex::build(&g, 2);
    let mut queries: Vec<(String, Cpq)> = Vec::new();
    for nq in benchqueries::yago_queries(&g, 3)
        .into_iter()
        .chain(benchqueries::lubm_queries(&g, 4))
        .chain(benchqueries::watdiv_queries(&g, 5))
    {
        queries.push((nq.name, nq.query));
    }
    let probe = GraphProbe(&g);
    let mut gen = WorkloadGen::new(&g, 17);
    for &t in &Template::ALL {
        for (i, q) in gen.queries(t, 2, &probe).into_iter().enumerate() {
            queries.push((format!("{}#{i}", t.name()), q));
        }
    }
    for (name, q) in &queries {
        let oracle = eval_reference(&g, q);
        assert_eq!(idx.evaluate_with_options(&g, q, csr_off()), oracle, "{name} rows vs oracle");
        assert_eq!(
            idx.evaluate_with_options(&g, q, ExecOptions::default()),
            oracle,
            "{name} csr vs oracle"
        );
    }
}

/// Random CPQ ASTs (not just templates): the structural fuzz of the core
/// crate, replayed through both read paths.
#[test]
fn csr_matches_rows_on_random_cpq_trees() {
    fn random_cpq(rng: &mut impl Rng, depth: usize, nl: u16) -> Cpq {
        if depth == 0 || rng.gen_bool(0.4) {
            if rng.gen_bool(0.08) {
                Cpq::Id
            } else {
                Cpq::ext(ExtLabel(rng.gen_range(0..nl)))
            }
        } else if rng.gen_bool(0.5) {
            Cpq::Join(
                Box::new(random_cpq(rng, depth - 1, nl)),
                Box::new(random_cpq(rng, depth - 1, nl)),
            )
        } else {
            Cpq::Conj(
                Box::new(random_cpq(rng, depth - 1, nl)),
                Box::new(random_cpq(rng, depth - 1, nl)),
            )
        }
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    let g = chunky_graph(150, 600, 13);
    let idx = CpqxIndex::build(&g, 2);
    for i in 0..80 {
        let q = random_cpq(&mut rng, 3, g.ext_label_count());
        let rows = idx.evaluate_with_options(&g, &q, csr_off());
        let csr = idx.evaluate_with_options(&g, &q, ExecOptions::default());
        assert_eq!(csr, rows, "fuzz case {i}: {q:?}");
        assert_eq!(csr, eval_reference(&g, &q), "fuzz case {i} vs oracle: {q:?}");
    }
}

/// Mutate-then-read through the engine: after every delta the freshly
/// installed snapshot must answer from the *new* topology (no stale CSR
/// face can leak through the install), while a reader pinned on the old
/// snapshot keeps the old answers.
#[test]
fn mutated_snapshots_never_serve_stale_faces() {
    let g = chunky_graph(200, 800, 19);
    let (engine, _) = Engine::with_options(
        g,
        EngineOptions { k: 2, result_cache_capacity: 0, ..EngineOptions::default() },
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let probe_queries: Vec<Cpq> = {
        let snap = engine.snapshot();
        let probe = GraphProbe(snap.graph());
        let mut gen = WorkloadGen::new(snap.graph(), 23);
        Template::ALL.iter().flat_map(|&t| gen.queries(t, 1, &probe)).collect()
    };
    for round in 0..6 {
        let before = engine.snapshot();
        let labels: Vec<_> = before.graph().labels().collect();
        let n = before.graph().vertex_count();
        let delta = if round % 3 == 2 {
            let (v, u, l) = before.graph().base_edges().next().unwrap();
            Delta::new().delete_edge(v, u, l)
        } else {
            Delta::new().insert_edge(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                labels[rng.gen_range(0..labels.len())],
            )
        };
        engine.apply_delta(&delta).unwrap();
        let after = engine.snapshot();
        for q in &probe_queries {
            assert_eq!(
                after.evaluate(q),
                eval_reference(after.graph(), q),
                "round {round}: stale read after the delta"
            );
            assert_eq!(
                before.evaluate(q),
                eval_reference(before.graph(), q),
                "round {round}: pinned reader drifted"
            );
        }
    }
}

/// The faces are the topology chunks, so a delta install shares every
/// untouched face by `Arc` pointer and copies at most the two endpoint
/// chunks of a one-edge write; the copies carry the delta, the pinned
/// snapshot's faces do not.
#[test]
fn snapshot_install_shares_untouched_faces() {
    let g = chunky_graph(300, 1200, 7);
    let (engine, _) = Engine::with_options(
        g,
        EngineOptions { k: 2, result_cache_capacity: 0, ..EngineOptions::default() },
    );
    let before = engine.snapshot();
    let (v, u, l) = before.graph().base_edges().next().unwrap();
    engine.apply_delta(&Delta::new().delete_edge(v, u, l)).unwrap();
    let after = engine.snapshot();
    let bg = before.graph();
    let ag = after.graph();
    assert_eq!(bg.topology_chunk_count(), ag.topology_chunk_count());
    let copied =
        (0..ag.topology_chunk_count()).filter(|&i| !ag.topology_chunk_shared_with(bg, i)).count();
    assert!((1..=2).contains(&copied), "a one-edge delta copies its endpoint chunks: {copied}");
    assert!(bg.neighbors(v, l.fwd()).contains(&u) && bg.neighbors(u, l.inv()).contains(&v));
    assert!(!ag.neighbors(v, l.fwd()).contains(&u) && !ag.neighbors(u, l.inv()).contains(&v));
}

/// Concurrent readers sharing one snapshot's faces, at
/// 1, 4, 8 and 16 threads: every thread gets the oracle's answer.
#[test]
fn concurrent_csr_reads_agree_with_oracle() {
    let g = chunky_graph(180, 700, 31);
    let idx = CpqxIndex::build(&g, 2);
    let probe = GraphProbe(&g);
    let mut gen = WorkloadGen::new(&g, 37);
    let queries: Vec<Cpq> = Template::ALL.iter().flat_map(|&t| gen.queries(t, 1, &probe)).collect();
    let expected: Vec<Vec<cpqx_graph::Pair>> =
        queries.iter().map(|q| eval_reference(&g, q)).collect();
    for threads in [1usize, 4, 8, 16] {
        let fresh = g.clone(); // clone shares chunks but we re-race builds
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for (q, want) in queries.iter().zip(&expected) {
                        assert_eq!(
                            &idx.evaluate_with_options(&fresh, q, ExecOptions::default()),
                            want
                        );
                    }
                });
            }
        });
    }
}

/// The engine-level ablation seam: an engine built with `csr_faces:
/// false` serves the same answers as the default engine.
#[test]
fn engine_exec_options_seam_is_answer_invariant() {
    let g = chunky_graph(160, 650, 43);
    let (on, _) = Engine::with_options(g.clone(), EngineOptions { k: 2, ..Default::default() });
    let (off, _) =
        Engine::with_options(g, EngineOptions { k: 2, exec: csr_off(), ..Default::default() });
    let snap = on.snapshot();
    let probe = GraphProbe(snap.graph());
    let mut gen = WorkloadGen::new(snap.graph(), 53);
    for &t in &Template::ALL {
        for q in gen.queries(t, 2, &probe) {
            assert_eq!(on.query(&q), off.query(&q), "{}", t.name());
        }
    }
}
