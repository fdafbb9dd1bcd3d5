//! Batch workload evaluation over one consistent snapshot.
//!
//! A batch pins the engine's current snapshot once and fans its queries
//! out across a scoped worker pool: every answer in the batch reflects the
//! *same* graph version even if maintenance installs new snapshots while
//! the batch runs. Results come back in input order together with
//! per-query latencies and aggregate throughput.

use cpqx_graph::Pair;
use cpqx_query::Cpq;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::engine::Engine;
use crate::pool;

/// Knobs for [`Engine::evaluate_batch`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchOptions {
    /// Worker threads; `None` uses the available parallelism (capped by
    /// the batch size).
    pub threads: Option<usize>,
    /// Skip the shared result cache (every query executes; used to
    /// measure raw engine throughput).
    pub bypass_result_cache: bool,
}

/// The outcome of one batch run.
pub struct BatchOutcome {
    /// Per-query answers, in input order, shared with the result cache.
    pub results: Vec<Arc<Vec<Pair>>>,
    /// Per-query wall-clock latencies, in input order.
    pub latencies: Vec<Duration>,
    /// End-to-end wall-clock of the whole batch.
    pub total: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// The epoch all answers are consistent with.
    pub epoch: u64,
}

impl BatchOutcome {
    /// Queries per second over the batch wall-clock.
    pub fn throughput_qps(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.results.len() as f64 / self.total.as_secs_f64()
    }

    /// The `p`-quantile (0.0–1.0, clamped) of per-query latency — the
    /// engine-wide nearest-rank definition
    /// ([`crate::stats::nearest_rank_quantile`]), so batch quantiles and
    /// `StatsReport` percentiles agree on semantics.
    pub fn latency_quantile(&self, p: f64) -> Duration {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        crate::stats::nearest_rank_quantile(&sorted, p).unwrap_or(Duration::ZERO)
    }
}

impl Engine {
    /// Evaluates `queries` across a worker pool against one pinned
    /// snapshot (see module docs).
    pub fn evaluate_batch(&self, queries: &[Cpq], opts: BatchOptions) -> BatchOutcome {
        let snap = self.snapshot();
        self.evaluate_batch_on(&snap, queries, opts)
    }

    /// Like [`Engine::evaluate_batch`] but against a caller-pinned
    /// snapshot, so the caller can atomically tie other per-version work —
    /// e.g. parsing query text against the snapshot's label table, as the
    /// network front-end does — to the exact version the whole batch is
    /// evaluated on.
    pub fn evaluate_batch_on(
        &self,
        snap: &crate::engine::Snapshot,
        queries: &[Cpq],
        opts: BatchOptions,
    ) -> BatchOutcome {
        let n = queries.len();
        let threads = opts.threads.unwrap_or_else(pool::default_threads).clamp(1, n.max(1));
        let t0 = Instant::now();

        type Slot = Mutex<Option<(Arc<Vec<Pair>>, Duration)>>;
        let slots: Vec<Slot> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        pool::spawn_workers(threads, |_worker| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let q0 = Instant::now();
            let out = if opts.bypass_result_cache {
                let out = Arc::new(snap.evaluate(&queries[i]));
                // query_on records its own traffic; the bypass path must
                // account itself, or stats would undercount served
                // queries.
                self.note_query(q0.elapsed(), false);
                out
            } else {
                self.query_on(snap, &queries[i])
            };
            *slots[i].lock().unwrap() = Some((out, q0.elapsed()));
        });

        let mut results = Vec::with_capacity(n);
        let mut latencies = Vec::with_capacity(n);
        for s in slots {
            let (r, l) = s.into_inner().unwrap().expect("batch slot unfilled");
            results.push(r);
            latencies.push(l);
        }
        let total = t0.elapsed();
        // Whole-batch wall time under its own opcode; the member
        // queries already landed in the query histogram individually.
        self.obs().record_op(cpqx_obs::Op::Batch, total);
        BatchOutcome { results, latencies, total, threads, epoch: snap.epoch() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use cpqx_graph::generate;
    use cpqx_query::eval::eval_reference;
    use cpqx_query::workload::{GraphProbe, WorkloadGen};
    use cpqx_query::Template;

    fn workload(g: &cpqx_graph::Graph, per_template: usize) -> Vec<Cpq> {
        let probe = GraphProbe(g);
        let mut gen = WorkloadGen::new(g, 99);
        Template::ALL.iter().flat_map(|&t| gen.queries(t, per_template, &probe)).collect()
    }

    #[test]
    fn batch_matches_reference_in_order() {
        let g = generate::random_graph(&generate::RandomGraphConfig::social(80, 400, 3, 7));
        let queries = workload(&g, 2);
        assert!(!queries.is_empty());
        let engine = Engine::build(g, 2);
        let snap = engine.snapshot();
        let out = engine
            .evaluate_batch(&queries, BatchOptions { threads: Some(4), ..BatchOptions::default() });
        assert_eq!(out.results.len(), queries.len());
        assert_eq!(out.latencies.len(), queries.len());
        assert_eq!(out.epoch, 0);
        for (q, r) in queries.iter().zip(&out.results) {
            assert_eq!(**r, eval_reference(snap.graph(), q), "query {q:?}");
        }
        assert!(out.throughput_qps() > 0.0);
        assert!(out.latency_quantile(0.99) >= out.latency_quantile(0.5));
    }

    #[test]
    fn repeated_batch_hits_cache() {
        let g = generate::gex();
        let queries = workload(&g, 3);
        let engine = Engine::build(g, 2);
        engine.evaluate_batch(&queries, BatchOptions::default());
        let before = engine.stats().result_hits;
        engine.evaluate_batch(&queries, BatchOptions::default());
        let after = engine.stats().result_hits;
        assert!(after > before, "second pass must be served from cache");
    }

    #[test]
    fn bypass_cache_executes_everything() {
        let g = generate::gex();
        let queries = workload(&g, 2);
        let engine = Engine::build(g, 2);
        let opts = BatchOptions { bypass_result_cache: true, ..BatchOptions::default() };
        engine.evaluate_batch(&queries, opts);
        engine.evaluate_batch(&queries, opts);
        assert_eq!(engine.stats().result_hits, 0);
    }

    #[test]
    fn batch_on_pinned_snapshot_survives_swap() {
        let g = generate::gex();
        let engine = Engine::build(g, 2);
        let snap = engine.snapshot();
        let queries = workload(snap.graph(), 2);
        let f = snap.graph().label_named("f").unwrap();
        let (sue, joe) =
            (snap.graph().vertex_named("sue").unwrap(), snap.graph().vertex_named("joe").unwrap());
        assert!(engine.delete_edge(sue, joe, f));
        // The batch still evaluates on the pinned pre-deletion version.
        let out = engine.evaluate_batch_on(&snap, &queries, BatchOptions::default());
        assert_eq!(out.epoch, 0);
        for (q, r) in queries.iter().zip(&out.results) {
            assert_eq!(**r, eval_reference(snap.graph(), q), "query {q:?}");
        }
    }

    #[test]
    fn empty_batch() {
        let engine = Engine::build(generate::gex(), 2);
        let out = engine.evaluate_batch(&[], BatchOptions::default());
        assert!(out.results.is_empty());
        assert_eq!(out.throughput_qps(), 0.0);
        assert_eq!(out.latency_quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn batch_threads_clamp() {
        let g = generate::gex();
        let queries = workload(&g, 1);
        let (engine, _) =
            Engine::with_options(g, EngineOptions { k: 2, ..EngineOptions::default() });
        let out = engine.evaluate_batch(
            &queries,
            BatchOptions { threads: Some(64), ..BatchOptions::default() },
        );
        assert!(out.threads <= queries.len());
    }
}
