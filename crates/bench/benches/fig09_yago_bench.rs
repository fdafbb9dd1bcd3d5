//! Fig. 9: the YAGO2 benchmark queries Y1–Y4 on the YAGO2 stand-in
//! (80M vertices / 164M edges / 38 extended labels in the paper; scaled
//! here), for iaCPQx, iaPath, TurboHom++, Tentris and BFS.
//!
//! Expected shape: iaCPQx has the smallest average time across the four
//! queries; the matchers degrade on the snowflake shapes (Y3/Y4).

use cpqx_bench::harness::{avg_query_time, interests_from_queries, Timing};
use cpqx_bench::{BenchConfig, Engine, Method, Table};
use cpqx_core::exec::ExecOptions;
use cpqx_graph::generate::RandomGraphConfig;
use cpqx_query::benchqueries::yago_queries;
use cpqx_query::Cpq;
use std::time::{Duration, Instant};

/// Times a single query through the iaCPQx executor under explicit
/// options — the Y1–Y4 rows of the `fig09_csr` companion table.
fn timed_with_options(
    idx: &cpqx_core::CpqxIndex,
    g: &cpqx_graph::Graph,
    q: &Cpq,
    cfg: &BenchConfig,
    options: ExecOptions,
) -> Timing {
    let budget = Duration::from_millis(cfg.cell_budget_ms);
    let started = Instant::now();
    let mut total = Duration::ZERO;
    let mut n = 0u32;
    for _ in 0..cfg.reps.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(idx.evaluate_with_options(g, q, options));
        total += t0.elapsed();
        n += 1;
        if started.elapsed() > budget {
            return Timing::Timeout;
        }
    }
    Timing::Avg(total.as_secs_f64() / n as f64)
}

fn main() {
    let cfg = BenchConfig::from_env();
    // YAGO2: |V|/|E| ratio ~1:2, 19 base labels.
    let vertices = (cfg.edge_budget / 2).max(512) as u32;
    let g = cpqx_graph::generate::random_graph(&RandomGraphConfig::social(
        vertices,
        cfg.edge_budget,
        19,
        cfg.seed,
    ));
    let queries = yago_queries(&g, cfg.seed);
    let interests = interests_from_queries(queries.iter().map(|nq| &nq.query), cfg.k);

    let methods = [Method::IaCpqx, Method::IaPath, Method::TurboHom, Method::Tentris, Method::Bfs];
    let mut headers = vec!["query"];
    headers.extend(methods.iter().map(|m| m.name()));
    let mut table = Table::new("fig09_yago_bench", &headers);

    let engines: Vec<Engine> =
        methods.iter().map(|&m| Engine::build(m, &g, cfg.k, &interests).0).collect();
    for nq in &queries {
        let mut row = vec![nq.name.clone()];
        for e in &engines {
            let qs = [nq.query.clone()];
            row.push(avg_query_time(e, &g, &qs, &cfg).cell());
        }
        table.row(row);
    }
    table.finish();

    // Companion: the same Y1–Y4 queries through the iaCPQx executor with
    // the CSR read faces off versus on (identical index and plans).
    let mut csr_table = Table::new("fig09_csr", &["query", "rows[s]", "csr[s]", "speedup"]);
    let idx = engines[0].as_cpqx().expect("iaCPQx is a CPQ-aware index");
    let off_options = ExecOptions { csr_faces: false, ..ExecOptions::default() };
    for nq in &queries {
        let off = timed_with_options(idx, &g, &nq.query, &cfg, off_options);
        let on = timed_with_options(idx, &g, &nq.query, &cfg, ExecOptions::default());
        let speedup = match (off.seconds(), on.seconds()) {
            (Some(o), Some(n)) if n > 0.0 => format!("{:.2}x", o / n),
            _ => "-".to_string(),
        };
        csr_table.row(vec![nq.name.clone(), off.cell(), on.cell(), speedup]);
    }
    csr_table.finish();
}
