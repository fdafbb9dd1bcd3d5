//! Engine statistics: the engine's typed view of the metrics registry.
//!
//! Counters live in the recorder's registry ([`cpqx_obs::metrics`]),
//! bumped with one relaxed atomic each on the hot path; p50/p99 come
//! from the recorder's [`Op::Query`] latency histogram. A
//! [`StatsReport`] copies both out, with hit rates derived.

use cpqx_obs::{Metric, Op, Recorder};
use std::time::Duration;

/// The nearest-rank `p`-quantile of an ascending-sorted sample slice —
/// the engine's quantile definition for raw samples (per-batch latency
/// quantiles in `BatchOutcome::latency_quantile` route here; the
/// histogram sketch behind [`StatsReport::p50`] tracks it within one
/// log bucket, as `cpqx-obs`'s `hist_props` tests check).
///
/// Semantics: `p` is clamped to `[0.0, 1.0]` (a non-finite `p` reads as
/// `0.0`); the returned sample is `sorted[round((len - 1) · p)]`, i.e.
/// `p = 0.0` is the minimum, `p = 1.0` the maximum, and `p = 0.5` the
/// (upper-biased) median. Returns `None` for an empty slice.
pub fn nearest_rank_quantile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let p = if p.is_finite() { p.clamp(0.0, 1.0) } else { 0.0 };
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    Some(sorted[idx])
}

fn rate(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Point-in-time engine statistics (see [`crate::Engine::stats`]).
#[derive(Clone, Copy, Debug)]
pub struct StatsReport {
    /// Queries served (cached or not).
    pub queries: u64,
    /// Queries answered from the result cache.
    pub result_hits: u64,
    /// Queries that executed against the index.
    pub result_misses: u64,
    /// `result_hits / queries`.
    pub result_hit_rate: f64,
    /// Plans reused from the snapshot's plan cache.
    pub plan_hits: u64,
    /// Plans lowered fresh.
    pub plan_misses: u64,
    /// `plan_hits / (plan_hits + plan_misses)`.
    pub plan_hit_rate: f64,
    /// Snapshots installed over the engine's lifetime (excluding the
    /// initial build).
    pub snapshot_swaps: u64,
    /// Result-cache entries dropped by snapshot swaps.
    pub invalidated_results: u64,
    /// Executed queries whose result the admission policy refused to
    /// cache because the estimated plan cost fell below
    /// `EngineOptions::result_admission_min_cost`.
    pub rejected_admissions: u64,
    /// Delta transactions committed via `Engine::apply_delta` (the
    /// single-op update helpers count too — they are one-op deltas).
    pub delta_transactions: u64,
    /// Individual delta ops applied through the lazy maintenance
    /// procedures (no-ops excluded).
    pub lazy_update_ops: u64,
    /// Full index rebuilds, manual (`Engine::rebuild`) and automatic.
    pub rebuilds: u64,
    /// Rebuilds triggered by `EngineOptions::auto_rebuild_ratio`.
    pub auto_rebuilds: u64,
    /// Copy-on-write chunks/shards physically copied by write
    /// transactions (cumulative, graph + index; rebuilds count all-new
    /// storage as copied). Together with [`StatsReport::cow_chunks_shared`]
    /// this shows whether writes stay O(changed): healthy small deltas
    /// copy a handful of chunks against a large shared remainder.
    pub cow_chunks_copied: u64,
    /// Copy-on-write chunks/shards still structurally shared with the
    /// replaced snapshot after each write transaction (cumulative).
    pub cow_chunks_shared: u64,
    /// Delta transactions appended to the write-ahead log (zero unless a
    /// durability sink is attached; see `Engine::attach_durability`).
    pub wal_appends: u64,
    /// Total payload + framing bytes those appends wrote.
    pub wal_bytes: u64,
    /// Snapshot checkpoints persisted by the WAL-bytes trigger.
    pub snapshots_written: u64,
    /// Chunk records those checkpoints skipped because the chunk was
    /// still shared (pointer-identical) with the previous snapshot
    /// generation — the incremental-snapshot savings gauge.
    pub snapshot_chunks_skipped: u64,
    /// Current `class_slots / baseline_classes` of the serving index
    /// (1.0 right after a build; grows under lazy maintenance). Filled
    /// by `Engine::stats` from the live snapshot; 0.0 when the report
    /// comes from bare counters.
    pub fragmentation_ratio: f64,
    /// Allocated class slots (tombstones included) of the serving index.
    pub class_slots: u64,
    /// Class count of the full build the serving index descends from.
    pub baseline_classes: u64,
    /// Wall-clock of the level-1 pass of the most recent full build
    /// (initial build, manual rebuild, or auto-rebuild; zero for
    /// interest-aware builds, which have no level-1 phase, or when the
    /// report comes from bare counters). Filled by `Engine::stats`.
    pub build_level1: Duration,
    /// Wall-clock spent inside level-1's parallel sections during the
    /// most recent full build (zero when level 1 ran single-threaded).
    pub build_level1_parallel: Duration,
    /// Wall-clock of the parallel interest-shard partitioning phase of
    /// the most recent build (interest-aware engines only).
    pub build_interest_shards: Duration,
    /// End-to-end wall-clock of the most recent full build.
    pub build_total: Duration,
    /// Median query latency since the engine started (zero while the
    /// recorder is disabled).
    pub p50: Duration,
    /// 99th-percentile query latency since the engine started (zero
    /// while the recorder is disabled).
    pub p99: Duration,
}

impl StatsReport {
    /// The registry's engine counters, with p50/p99 from the recorder's
    /// [`Op::Query`] histogram (zero while the recorder is disabled,
    /// since the histogram then records nothing). Snapshot gauges and
    /// build timings are zero here; [`crate::Engine::stats`] fills them.
    pub fn from_recorder(obs: &Recorder) -> StatsReport {
        let c = |m: Metric| obs.value(m);
        let latency = obs.op_snapshot(Op::Query);
        let pct = |p: f64| Duration::from_micros(latency.quantile(p).unwrap_or(0));
        let (result_hits, result_misses) = (c(Metric::ResultHits), c(Metric::ResultMisses));
        let (plan_hits, plan_misses) = (c(Metric::PlanHits), c(Metric::PlanMisses));
        StatsReport {
            queries: c(Metric::Queries),
            result_hits,
            result_misses,
            result_hit_rate: rate(result_hits, result_hits + result_misses),
            plan_hits,
            plan_misses,
            plan_hit_rate: rate(plan_hits, plan_hits + plan_misses),
            snapshot_swaps: c(Metric::SnapshotSwaps),
            invalidated_results: c(Metric::InvalidatedResults),
            rejected_admissions: c(Metric::RejectedAdmissions),
            delta_transactions: c(Metric::DeltaTransactions),
            lazy_update_ops: c(Metric::LazyUpdateOps),
            rebuilds: c(Metric::Rebuilds),
            auto_rebuilds: c(Metric::AutoRebuilds),
            cow_chunks_copied: c(Metric::CowChunksCopied),
            cow_chunks_shared: c(Metric::CowChunksShared),
            wal_appends: c(Metric::WalAppends),
            wal_bytes: c(Metric::WalBytes),
            snapshots_written: c(Metric::SnapshotsWritten),
            snapshot_chunks_skipped: c(Metric::SnapshotChunksSkipped),
            fragmentation_ratio: 0.0,
            class_slots: 0,
            baseline_classes: 0,
            build_level1: Duration::ZERO,
            build_level1_parallel: Duration::ZERO,
            build_interest_shards: Duration::ZERO,
            build_total: Duration::ZERO,
            p50: pct(0.50),
            p99: pct(0.99),
        }
    }
}

impl std::fmt::Display for StatsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queries={} hit_rate={:.1}% plan_hit_rate={:.1}% swaps={} deltas={} lazy_ops={} \
             rebuilds={} frag={:.2} cow={}/{} wal[appends={} bytes={}] \
             snapshots[written={} skipped={}] \
             build[total={:?} level1={:?} l1par={:?} ia={:?}] p50={:?} p99={:?}",
            self.queries,
            self.result_hit_rate * 100.0,
            self.plan_hit_rate * 100.0,
            self.snapshot_swaps,
            self.delta_transactions,
            self.lazy_update_ops,
            self.rebuilds,
            self.fragmentation_ratio,
            self.cow_chunks_copied,
            self.cow_chunks_shared,
            self.wal_appends,
            self.wal_bytes,
            self.snapshots_written,
            self.snapshot_chunks_skipped,
            self.build_total,
            self.build_level1,
            self.build_level1_parallel,
            self.build_interest_shards,
            self.p50,
            self.p99,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_obs::ObsOptions;

    fn recorder() -> Recorder {
        Recorder::new(&ObsOptions::default())
    }

    #[test]
    fn rates_and_percentiles() {
        let r = recorder();
        for i in 0..100u64 {
            r.add(Metric::Queries, 1);
            r.add(if i % 4 == 0 { Metric::ResultHits } else { Metric::ResultMisses }, 1);
            r.record_op(Op::Query, Duration::from_micros(i + 1));
        }
        r.add(Metric::PlanHits, 1);
        r.add(Metric::PlanMisses, 1);
        r.add(Metric::SnapshotSwaps, 1);
        r.add(Metric::InvalidatedResults, 3);
        r.add(Metric::RejectedAdmissions, 2);
        let s = StatsReport::from_recorder(&r);
        assert_eq!(s.rejected_admissions, 2);
        assert_eq!(s.queries, 100);
        assert_eq!(s.result_hits, 25);
        assert!((s.result_hit_rate - 0.25).abs() < 1e-9);
        assert!((s.plan_hit_rate - 0.5).abs() < 1e-9);
        assert_eq!(s.snapshot_swaps, 1);
        assert_eq!(s.invalidated_results, 3);
        assert!(s.p50 >= Duration::from_micros(40) && s.p50 <= Duration::from_micros(60));
        assert!(s.p99 >= s.p50);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn empty_report_is_zeroed() {
        let s = StatsReport::from_recorder(&recorder());
        assert_eq!(s.queries, 0);
        assert_eq!(s.result_hit_rate, 0.0);
        assert_eq!(s.p50, Duration::ZERO);
    }

    #[test]
    fn disabled_recorder_counts_but_reports_zero_percentiles() {
        let r = Recorder::new(&ObsOptions::disabled());
        r.add(Metric::Queries, 1);
        r.record_op(Op::Query, Duration::from_micros(70));
        let s = StatsReport::from_recorder(&r);
        assert_eq!(s.queries, 1);
        assert_eq!((s.p50, s.p99), (Duration::ZERO, Duration::ZERO));
    }

    #[test]
    fn nearest_rank_edge_cases() {
        // Empty: no quantile.
        assert_eq!(nearest_rank_quantile::<u64>(&[], 0.5), None);
        // Single sample: every p returns it.
        for p in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(nearest_rank_quantile(&[7u64], p), Some(7));
        }
        let sorted: Vec<u64> = (1..=100).collect();
        // Extremes hit the ends exactly.
        assert_eq!(nearest_rank_quantile(&sorted, 0.0), Some(1));
        assert_eq!(nearest_rank_quantile(&sorted, 1.0), Some(100));
        // Out-of-range p clamps instead of indexing out of bounds (this
        // was the divergence between the two pre-unification copies).
        assert_eq!(nearest_rank_quantile(&sorted, -3.0), Some(1));
        assert_eq!(nearest_rank_quantile(&sorted, 17.0), Some(100));
        assert_eq!(nearest_rank_quantile(&sorted, f64::NAN), Some(1));
        // Median and p99 are the nearest ranks.
        assert_eq!(nearest_rank_quantile(&sorted, 0.5), Some(51));
        assert_eq!(nearest_rank_quantile(&sorted, 0.99), Some(99));
    }

    #[test]
    fn build_timings_surface_in_display() {
        let mut s = StatsReport::from_recorder(&recorder());
        assert_eq!(s.build_total, Duration::ZERO);
        s.build_level1 = Duration::from_millis(7);
        s.build_level1_parallel = Duration::from_millis(5);
        s.build_interest_shards = Duration::from_millis(3);
        s.build_total = Duration::from_millis(11);
        let text = s.to_string();
        assert!(text.contains("build[total=11ms level1=7ms l1par=5ms ia=3ms]"), "{text}");
    }

    #[test]
    fn cow_counters_accumulate() {
        let r = recorder();
        for (copied, shared) in [(3, 17), (1, 19)] {
            r.add(Metric::CowChunksCopied, copied);
            r.add(Metric::CowChunksShared, shared);
        }
        let s = StatsReport::from_recorder(&r);
        assert_eq!(s.cow_chunks_copied, 4);
        assert_eq!(s.cow_chunks_shared, 36);
        assert!(s.to_string().contains("cow=4/36"));
    }

    #[test]
    fn durability_counters_accumulate() {
        let r = recorder();
        for bytes in [120, 88] {
            r.add(Metric::WalAppends, 1);
            r.add(Metric::WalBytes, bytes);
        }
        r.add(Metric::SnapshotsWritten, 1);
        r.add(Metric::SnapshotChunksSkipped, 29);
        let s = StatsReport::from_recorder(&r);
        assert_eq!(s.wal_appends, 2);
        assert_eq!(s.wal_bytes, 208);
        assert_eq!(s.snapshots_written, 1);
        assert_eq!(s.snapshot_chunks_skipped, 29);
        let text = s.to_string();
        assert!(text.contains("wal[appends=2 bytes=208]"), "{text}");
        assert!(text.contains("snapshots[written=1 skipped=29]"), "{text}");
    }
}
