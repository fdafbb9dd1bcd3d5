//! cpqx-obs: zero-dependency observability for the cpqx serving stack.
//!
//! Four pieces, layered so the fast path stays fast:
//!
//! - [`metrics`] — the registry: one table declaring every counter and
//!   gauge the engine and the server keep (name, kind, unit, help).
//!   STATS, METRICS and the Prometheus text are views of it.
//! - [`hist`] — fixed-layout log-bucketed (HDR-style) latency
//!   histograms: lock-free to record, cheap to snapshot, and mergeable
//!   across threads and processes because every histogram shares the
//!   same bucket boundaries. These are the engine's source of p50/p99.
//! - [`span`] — per-operation traces: a flat span tree recording where
//!   one query / delta / build / recovery spent its time, with the
//!   canonical query key and epoch attached.
//! - [`recorder`] — the [`Recorder`] gluing them together: sampling
//!   policy, per-opcode and per-stage histograms, a bounded trace
//!   ring, the slow-query log, observed-workload key counts (the
//!   input the self-tuning advisor consumes), and the registry's
//!   values.
//!
//! A disabled recorder costs one relaxed load and a branch per probe;
//! see [`recorder`] for the full cost model. The crate has no
//! dependencies and no platform requirements beyond `std`.

pub mod hist;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use hist::{bucket_hi, bucket_index, bucket_lo, Histogram, HistogramSnapshot, BUCKETS};
pub use metrics::{Metric, MetricKind, METRIC_COUNT};
pub use recorder::{ObsOptions, Op, Recorder, OP_COUNT};
pub use span::{Span, Stage, Trace, TraceBuilder, TraceKind, STAGE_COUNT};
