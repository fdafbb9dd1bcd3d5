//! `cpqx-engine` — sharded parallel index construction and a concurrent
//! query-serving layer over the CPQx index family.
//!
//! The core crates reproduce the paper faithfully but leave every caller
//! holding a bare [`cpqx_core::CpqxIndex`]: single-threaded construction,
//! no concurrency story, no caching. This crate adds the three layers a
//! serving deployment needs:
//!
//! 1. **Fully parallel build pipeline** ([`build`]): the shared level-1
//!    pass itself runs parallel per source range
//!    ([`cpqx_core::RefinementBase::with_threads`], structurally
//!    identical to the sequential pass), then — `P≤k` partitions exactly
//!    by source vertex — the Algorithm-1 refinement runs independently
//!    per source-range shard on a scoped thread pool; per-shard
//!    partitions merge by the class invariant `(cyclicity, L≤k)` into an
//!    index that is query-equivalent to the sequential build. The
//!    interest-aware variant shards the same way over label-weighted
//!    source ranges ([`build_interest_sharded`]).
//! 2. **Concurrent read path** ([`engine`]): an [`Engine`] holds the
//!    graph + index behind an atomically swappable [`Snapshot`] `Arc`.
//!    Maintenance (edge/vertex/interest updates, rebuilds) clones, applies
//!    the paper's lazy update procedures to the clone, and installs the
//!    result; in-flight readers keep the version they started with and
//!    are never blocked (snapshot isolation).
//! 3. **Serving layer** ([`engine`] + [`batch`]): a per-snapshot plan
//!    cache and a cross-query LRU result cache, both keyed on the
//!    *canonical* form of the query ([`cpqx_query::canonical`]) so
//!    syntactic variants share entries; a [`Engine::evaluate_batch`] API
//!    fanning a workload across a worker pool against one pinned
//!    snapshot; and hit-rate / p50 / p99 statistics ([`Engine::stats`]).
//!
//! ```
//! use cpqx_engine::{Engine, BatchOptions};
//! use cpqx_graph::generate::gex;
//! use cpqx_query::parse_cpq;
//!
//! let engine = Engine::build(gex(), 2);
//! let snap = engine.snapshot();
//! let q = parse_cpq("(f . f) & f^-1", snap.graph()).unwrap();
//! assert_eq!(engine.query(&q).len(), 3);   // executes
//! assert_eq!(engine.query(&q).len(), 3);   // served from cache
//! assert!(engine.stats().result_hit_rate > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod build;
pub mod cache;
pub mod delta;
pub mod durability;
pub mod engine;
pub mod pool;
pub mod stats;

pub use batch::{BatchOptions, BatchOutcome};
pub use build::{
    build_interest_sharded, build_interest_sharded_with_report, build_sharded,
    build_sharded_with_report, BuildOptions, BuildReport,
};
pub use cache::LruCache;
pub use cpqx_core::ExecOptions;
pub use delta::{apply_ops, validate_ops, Delta, DeltaError, DeltaOp, DeltaReport, OpOutcome};
pub use durability::{CheckpointReport, DurabilityOptions, DurabilitySink};
pub use engine::{Engine, EngineOptions, PlannedQuery, Snapshot};
pub use stats::{nearest_rank_quantile, StatsReport};
// Observability types callers configure or consume through the engine
// ([`EngineOptions::obs`], [`Engine::obs`]) — re-exported so engine
// users don't need a direct `cpqx-obs` dependency.
pub use cpqx_obs::{Metric, ObsOptions, Recorder};
