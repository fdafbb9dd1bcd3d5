//! Property tests for the log-bucketed histogram: merging is lossless
//! with respect to recording, quantiles track the engine's exact
//! nearest-rank definition to within one bucket, and the sparse wire
//! form is a faithful encoding.

use cpqx_obs::{bucket_index, Histogram, HistogramSnapshot};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recording a workload split across two histograms and merging the
    /// snapshots equals recording the whole workload into one — bucket
    /// counts, total, sum and max all included.
    #[test]
    fn record_then_merge_preserves_counts(
        a in prop::collection::vec(0u64..1_000_000_000, 0..200),
        b in prop::collection::vec(0u64..1_000_000_000, 0..200),
    ) {
        let (ha, hb, whole) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &v in &a {
            ha.record(v);
            whole.record(v);
        }
        for &v in &b {
            hb.record(v);
            whole.record(v);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        prop_assert_eq!(merged, whole.snapshot());
    }

    /// The histogram's quantile and the exact nearest-rank quantile over
    /// the raw samples (`cpqx_engine::nearest_rank_quantile`'s definition,
    /// `rank = round((n-1) * p)`) land in the same log bucket, or
    /// adjacent ones — i.e. they agree to within the sketch's ≤12.5%
    /// relative error.
    #[test]
    fn quantiles_track_nearest_rank(
        mut vals in prop::collection::vec(0u64..10_000_000, 1..300),
        p_permille in 0u64..=1000,
    ) {
        let p = p_permille as f64 / 1000.0;
        let h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        let rank = (((vals.len() - 1) as f64) * p).round() as usize;
        let exact = vals[rank];
        let approx = h.snapshot().quantile(p).expect("non-empty histogram");
        let (be, ba) = (bucket_index(exact), bucket_index(approx));
        prop_assert!(
            be.abs_diff(ba) <= 1,
            "exact {exact} (bucket {be}) vs histogram {approx} (bucket {ba}) at p={p}"
        );
    }

    /// The sparse (index, count) wire form reconstructs the snapshot
    /// exactly.
    #[test]
    fn sparse_form_roundtrips(vals in prop::collection::vec(0u64..u64::MAX / 2, 0..200)) {
        let h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        let snap = h.snapshot();
        let nonzero: Vec<(u16, u64)> = snap.nonzero().collect();
        let back = HistogramSnapshot::from_parts(snap.count(), snap.sum(), snap.max(), &nonzero)
            .expect("own parts are valid");
        prop_assert_eq!(back, snap);
    }
}
