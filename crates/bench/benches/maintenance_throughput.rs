//! Maintenance (write-path) throughput: per-op snapshot installs vs.
//! typed delta transactions vs. full rebuild — the engine-level form of
//! the paper's lazy-update/recompute tradeoff (Tables V–VII) plus the
//! copy-on-write claim of the snapshot store: **per-transaction write
//! cost is O(changed), not O(graph)**.
//!
//! Three write strategies churn the same sampled edges (delete +
//! reinsert, so the graph ends where it started):
//!
//! * **per-op** — one `Engine::delete_edge`/`insert_edge` call per op:
//!   a snapshot install per op (itself COW-cheap, but still one
//!   install + cache invalidation each);
//! * **delta ×B** — `Engine::apply_delta` with B-op transactions over
//!   the structural-sharing snapshot: one O(#chunks) clone per
//!   transaction, chunk-local copies for what the ops touch;
//! * **rebuild** — a from-scratch sharded build of the final graph, the
//!   defragmentation cost the auto-rebuild threshold weighs against.
//!
//! The second table scales the uniform family (bounded degree, so the
//! per-op lazy-maintenance work stays small) and reports the chunks a
//! one-edge transaction copies, from `Engine::stats`'
//! `cow_chunks_copied`. That count is deterministic and must stay flat
//! in |E|: a transaction that copies O(graph) storage shows up as copies
//! growing with the graph.
//!
//! Knobs: the usual `CPQX_*` variables plus `CPQX_MAINT_OPS` (total ops
//! per strategy, default 256), `CPQX_MAINT_TXN` (delta transaction
//! size, default 64) and `CPQX_MAINT_ASSERT_COW` (maximum accepted ratio
//! of chunks copied per transaction at the full budget over the same
//! figure at a quarter of it; unset = report only). CI sets the
//! assertion so a regression back to O(graph) writes fails the job
//! visibly.

use cpqx_bench::{env_parse, BenchConfig, Table};
use cpqx_engine::delta::Delta;
use cpqx_engine::{Engine, EngineOptions};
use cpqx_graph::datasets::Dataset;
use cpqx_graph::generate::sample_edges;
use std::time::Instant;

fn engine_for(g: &cpqx_graph::Graph, k: usize) -> Engine {
    // Auto-rebuild disabled: this bench isolates the raw strategies.
    let (engine, _) = Engine::with_options(
        g.clone(),
        EngineOptions { k, auto_rebuild_ratio: None, ..EngineOptions::default() },
    );
    engine
}

/// Runs the delete+reinsert churn as `txn`-op delta transactions,
/// returning the elapsed seconds.
fn run_deltas(engine: &Engine, victims: &[(u32, u32, cpqx_graph::Label)], txn: usize) -> f64 {
    let t0 = Instant::now();
    for chunk in victims.chunks(txn / 2) {
        let mut delta = Delta::new();
        for &(v, u, l) in chunk {
            delta = delta.delete_edge(v, u, l).insert_edge(v, u, l);
        }
        engine.apply_delta(&delta).expect("sampled edges are valid");
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    let cfg = BenchConfig::from_env();
    let ops: usize = env_parse("CPQX_MAINT_OPS", 256);
    let txn: usize = env_parse("CPQX_MAINT_TXN", 64).max(2);
    let assert_cow: Option<f64> =
        std::env::var("CPQX_MAINT_ASSERT_COW").ok().and_then(|v| v.parse().ok());
    let delta_col = format!("delta x{txn} [ops/s]");
    let mut table = Table::new(
        "maintenance_throughput",
        &[
            "dataset",
            "|V|",
            "|E|",
            "ops",
            "per-op [ops/s]",
            &delta_col,
            "cow shared",
            "frag after",
            "rebuild[s]",
        ],
    );

    // Bounded-degree synthetic: |V| = |E| keeps the average extended
    // degree at ~2, so the per-op lazy-maintenance work (ball
    // enumeration, O(d^k)) is small and the write-path copy dominates;
    // the graph/index stores are still |E|-sized, which is exactly what
    // a transaction must not copy.
    let uniform = |edges: usize| {
        cpqx_graph::generate::random_graph(&cpqx_graph::generate::RandomGraphConfig::uniform(
            edges.max(64) as u32,
            edges,
            8,
            cfg.seed,
        ))
    };

    let named: Vec<(String, cpqx_graph::Graph)> = vec![
        ("Advogato".into(), Dataset::Advogato.generate(cfg.edge_budget, cfg.seed)),
        ("Robots".into(), Dataset::Robots.generate(cfg.edge_budget, cfg.seed)),
        ("uniform".into(), uniform(cfg.edge_budget)),
    ];
    for (name, g) in &named {
        let victims = sample_edges(g, ops / 2, cfg.seed ^ 0x7A);
        let total_ops = victims.len() * 2;

        // -- per-op path: one snapshot install per op -------------------
        let engine = engine_for(g, cfg.k);
        let t0 = Instant::now();
        for &(v, u, l) in &victims {
            engine.delete_edge(v, u, l);
            engine.insert_edge(v, u, l);
        }
        let per_op_s = t0.elapsed().as_secs_f64();

        // -- COW delta path: O(changed) copies per transaction ----------
        let engine = engine_for(g, cfg.k);
        let delta_s = run_deltas(&engine, &victims, txn);
        let cow_stats = engine.stats();
        let shared_pct = 100 * cow_stats.cow_chunks_shared
            / (cow_stats.cow_chunks_copied + cow_stats.cow_chunks_shared).max(1);

        // -- rebuild: the defragmentation alternative -------------------
        let t0 = Instant::now();
        engine.rebuild();
        let rebuild_s = t0.elapsed().as_secs_f64();

        table.row(vec![
            name.clone(),
            g.vertex_count().to_string(),
            g.edge_count().to_string(),
            total_ops.to_string(),
            format!("{:.0}", total_ops as f64 / per_op_s.max(1e-9)),
            format!("{:.0}", total_ops as f64 / delta_s.max(1e-9)),
            format!("{shared_pct}%"),
            format!("{:.3}x", cow_stats.fragmentation_ratio),
            format!("{rebuild_s:.3}"),
        ]);
    }
    table.finish();

    // -- scaling table: per-transaction cost vs. graph size -------------
    // One edge (delete + reinsert) per transaction: a B-op transaction's
    // footprint can span every chunk of the smallest graph, which would
    // cap its copy count there and read as growth in |E|.
    let mut scaling = Table::new(
        "maintenance_write_scaling",
        &["|E|", "txns", "cow [us/txn]", "copied/txn", "shared/txn"],
    );
    let mut copied_per_txn = Vec::new();
    for budget in [cfg.edge_budget / 4, cfg.edge_budget / 2, cfg.edge_budget] {
        let g = uniform(budget.max(64));
        let victims = sample_edges(&g, ops / 2, cfg.seed ^ 0x5C);
        let txns = victims.len().max(1);
        let engine = engine_for(&g, cfg.k);
        let cow_s = run_deltas(&engine, &victims, 2);
        let s = engine.stats();
        let copied = s.cow_chunks_copied as f64 / txns as f64;
        copied_per_txn.push(copied);
        scaling.row(vec![
            g.edge_count().to_string(),
            txns.to_string(),
            format!("{:.0}", cow_s * 1e6 / txns as f64),
            format!("{copied:.1}"),
            format!("{:.1}", s.cow_chunks_shared as f64 / txns as f64),
        ]);
    }
    scaling.finish();

    println!(
        "\nInvariant check: a delta transaction copies only the chunks its ops touch, so \
         'copied/txn' stays flat as |E| grows while 'shared/txn' grows with the graph. \
         'frag after' is Table VII's ratio, live."
    );
    if let Some(max) = assert_cow {
        // Chunk copies are a deterministic count (seeded graph, seeded
        // victims), so one measurement per size decides.
        let (small, full) = (copied_per_txn[0], copied_per_txn[2]);
        assert!(
            full <= max * small,
            "COW write path regressed: {full:.1} chunks copied per transaction at the full \
             budget vs {small:.1} at a quarter of it (allowed ratio {max}) — a transaction is \
             paying O(graph) copies again"
        );
        println!("cow-copies assertion passed: {full:.1} <= {max} x {small:.1} chunks per txn");
    }
}
