//! Network front-end throughput: loopback round-trip serving versus
//! in-process serving, across client counts and the BATCH fast path.
//!
//! Expected shape: single-client wire qps trails in-process qps by the
//! per-request framing + syscall overhead; concurrent clients close most
//! of the gap (the worker pool overlaps parsing/evaluation with I/O);
//! one BATCH frame amortizes framing across the whole workload and lands
//! near in-process batch throughput. A BATCH whose reply would exceed the
//! frame limit comes back as a `TOO_LARGE` error and is re-sent as two
//! halves.
//!
//! Knobs: the usual `CPQX_*` variables plus `CPQX_NET_CLIENTS`
//! (default 4) and `CPQX_NET_ROUNDS` (default 3 — workload repeats per
//! measurement, so cache hits are exercised).

use cpqx_bench::harness::workload_for;
use cpqx_bench::{env_parse, BenchConfig, Table};
use cpqx_engine::{BatchOptions, Engine, EngineOptions, ExecOptions};
use cpqx_graph::datasets::Dataset;
use cpqx_net::{Client, ClientError, ErrorCode, Server, ServerOptions};
use cpqx_query::ast::Template;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let cfg = BenchConfig::from_env();
    let clients: usize = env_parse("CPQX_NET_CLIENTS", 4);
    let rounds: usize = env_parse("CPQX_NET_ROUNDS", 3).max(1);

    let wire_col = format!("wire x{clients}[qps]");
    let mut table = Table::new(
        "net_throughput",
        &[
            "dataset",
            "queries",
            "in-proc[qps]",
            "exec rows[qps]",
            "exec csr[qps]",
            "wire x1[qps]",
            &wire_col,
            "batch[qps]",
            "hit rate",
        ],
    );

    for ds in [Dataset::Advogato, Dataset::StringHS] {
        let g = ds.generate(cfg.edge_budget, cfg.seed);
        let queries: Vec<_> =
            workload_for(&g, &Template::ALL, &cfg).into_iter().flat_map(|(_, qs)| qs).collect();
        let texts: Vec<String> = queries.iter().map(|q| q.to_text(&g)).collect();

        let (engine, _) = Engine::with_options(g, EngineOptions { k: cfg.k, ..Default::default() });
        let engine = Arc::new(engine);

        // In-process baseline: the engine's own batch path.
        let t0 = Instant::now();
        for _ in 0..rounds {
            engine.evaluate_batch(&queries, BatchOptions::default());
        }
        let inproc_qps = (rounds * queries.len()) as f64 / t0.elapsed().as_secs_f64();

        // Raw executor throughput on the served snapshot, CSR read faces
        // off versus on — the cache-free read-path comparison the wire
        // numbers sit on top of.
        let snap = engine.snapshot();
        let mut exec_qps = [0.0f64; 2];
        let variants =
            [ExecOptions { csr_faces: false, ..ExecOptions::default() }, ExecOptions::default()];
        for (slot, options) in exec_qps.iter_mut().zip(variants) {
            let t0 = Instant::now();
            for _ in 0..rounds {
                for q in &queries {
                    std::hint::black_box(snap.index().evaluate_with_options(
                        snap.graph(),
                        q,
                        options,
                    ));
                }
            }
            *slot = (rounds * queries.len()) as f64 / t0.elapsed().as_secs_f64();
        }

        let server = Server::bind(
            Arc::clone(&engine),
            "127.0.0.1:0",
            ServerOptions { workers: clients.max(2), ..ServerOptions::default() },
        )
        .expect("bind");
        let addr = server.local_addr();

        // Single client, sequential round-trips. Dropped afterwards so
        // it neither occupies a server worker nor idles into the read
        // timeout during the later phases.
        let wire1_qps = {
            let mut c = Client::connect(addr).expect("connect");
            let t0 = Instant::now();
            for _ in 0..rounds {
                for t in &texts {
                    std::hint::black_box(c.query(t).expect("query").pairs.len());
                }
            }
            (rounds * texts.len()) as f64 / t0.elapsed().as_secs_f64()
        };

        // Concurrent clients, sharing the workload.
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for w in 0..clients {
                let texts = &texts;
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    for round in 0..rounds {
                        for (i, t) in texts.iter().enumerate() {
                            if i % clients == (w + round) % clients {
                                std::hint::black_box(c.query(t).expect("query").pairs.len());
                            }
                        }
                    }
                });
            }
        });
        let wiren_qps = (rounds * texts.len()) as f64 / t0.elapsed().as_secs_f64();

        // One BATCH frame per round (split only past the frame limit),
        // on a fresh connection.
        let mut c = Client::connect(addr).expect("connect");
        let t0 = Instant::now();
        for _ in 0..rounds {
            std::hint::black_box(batch_all(&mut c, &texts));
        }
        let batch_qps = (rounds * texts.len()) as f64 / t0.elapsed().as_secs_f64();

        let stats = c.stats().expect("stats");
        table.row(vec![
            ds.name().to_string(),
            texts.len().to_string(),
            format!("{inproc_qps:.0}"),
            format!("{:.0}", exec_qps[0]),
            format!("{:.0}", exec_qps[1]),
            format!("{wire1_qps:.0}"),
            format!("{wiren_qps:.0}"),
            format!("{batch_qps:.0}"),
            format!("{:.1}%", stats.result_hit_rate() * 100.0),
        ]);
        drop(c);
        server.shutdown();
    }

    table.finish();
    println!(
        "\nInvariant check: batch qps should dominate single-request wire qps (framing is \
         amortized); concurrent wire qps should exceed single-client wire qps."
    );
}

/// Sends `texts` as one BATCH frame, halving any batch whose reply the
/// server refuses as too large for a frame. Returns the result count.
fn batch_all<S: AsRef<str>>(c: &mut Client, texts: &[S]) -> usize {
    match c.batch(texts) {
        Ok(reply) => reply.results.len(),
        Err(ClientError::Server(e)) if e.code == ErrorCode::TooLarge && texts.len() > 1 => {
            let (a, b) = texts.split_at(texts.len() / 2);
            batch_all(c, a) + batch_all(c, b)
        }
        Err(e) => panic!("batch: {e}"),
    }
}
