//! The concurrent query-serving engine.
//!
//! An [`Engine`] owns an immutable [`Snapshot`] — graph + index + a plan
//! cache — behind an atomically swappable `Arc`. Readers clone the `Arc`
//! under a briefly-held read lock and then evaluate entirely lock-free on
//! the snapshot; maintenance clones the state, applies updates to the
//! clone, and *installs* a new snapshot, never blocking in-flight readers
//! (they finish on the version they started with — snapshot isolation).
//!
//! Writes go through **typed delta transactions** ([`crate::delta`]):
//! one clone + one install per [`Delta`] however many ops it carries,
//! each op applied by the paper's lazy maintenance procedures, with a
//! fragmentation-triggered automatic rebuild
//! ([`EngineOptions::auto_rebuild_ratio`]) as the defragmentation
//! backstop.
//!
//! Serving adds two caches:
//!
//! * a **plan cache** per snapshot: canonical query → cost-optimized
//!   [`Plan`] plus its cost estimate, from one optimizer pass (plans and
//!   costs depend on the index's statistics and interest set, so they
//!   live and die with the snapshot);
//! * an **LRU result cache** across queries, keyed by the canonical form
//!   of the query ([`cpqx_query::canonical`]) and tagged with the epoch it
//!   is valid for — a snapshot swap atomically invalidates it.
//!
//! All counters and latency percentiles are exported through
//! [`Engine::stats`].

use cpqx_core::{CpqxIndex, ExecOptions, Executor};
use cpqx_graph::{Graph, Label, LabelSeq, Pair, VertexId};
use cpqx_obs::{Metric, ObsOptions, Op, Recorder, Stage, TraceBuilder, TraceKind};
use cpqx_query::canonical::{cache_key, canonicalize};
use cpqx_query::{Cpq, Plan};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::build::{
    build_interest_sharded_with_report, build_sharded_with_report, BuildOptions, BuildReport,
};
use crate::cache::LruCache;
use crate::delta::{apply_ops, Delta, DeltaError, DeltaOp, DeltaReport};
use crate::durability::{DurabilityOptions, DurabilitySink};
use crate::stats::StatsReport;

/// Engine construction knobs.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Index path-length parameter `k`.
    pub k: usize,
    /// Sharding knobs for the initial build and [`Engine::rebuild`].
    pub build: BuildOptions,
    /// Result-cache capacity in entries (0 disables result caching).
    pub result_cache_capacity: usize,
    /// Per-snapshot plan-cache capacity in entries (0 disables plan
    /// caching). Bounded for the same reason as the result cache: a
    /// long-lived snapshot serving millions of distinct queries must not
    /// grow without bound.
    pub plan_cache_capacity: usize,
    /// Result-cache admission threshold: an executed query is admitted to
    /// the result cache only when its estimated plan cost
    /// ([`cpqx_core::estimate_plan_cost`]) is at least this value. `0.0`
    /// (the default) admits everything; raising it keeps cheap queries —
    /// which are faster to re-execute than the cache churn they cause —
    /// from evicting expensive ones. Rejections are counted in
    /// [`StatsReport::rejected_admissions`].
    pub result_admission_min_cost: f64,
    /// `Some(interests)` builds the interest-aware index (iaCPQx) instead
    /// of full CPQx. Both variants build sharded in parallel under the
    /// same [`BuildOptions`]: full CPQx over degree-balanced source
    /// ranges, iaCPQx over label-weighted ones
    /// ([`crate::build::build_interest_sharded`]).
    pub interests: Option<Vec<LabelSeq>>,
    /// Fragmentation threshold for automatic defragmentation: when a
    /// write transaction leaves the index with
    /// `class_slots / baseline_classes` *above* this ratio, the engine
    /// rebuilds the index from scratch inside the same transaction (one
    /// snapshot install; readers never see the fragmented intermediate).
    /// This is the lazy-update/rebuild tradeoff of the paper's Table VII
    /// as a serving policy. `None` disables auto-rebuild; the default
    /// (8.0) is far above the ratios ordinary churn produces (the paper
    /// measures 1.02–1.63 for up to 20% edge churn), so it only fires
    /// under sustained heavy write load.
    pub auto_rebuild_ratio: Option<f64>,
    /// Durability policy: when a [`DurabilitySink`] is attached
    /// ([`Engine::attach_durability`]), this drives the engine-triggered
    /// checkpoint cadence. Irrelevant (and harmless) without a sink.
    pub durability: DurabilityOptions,
    /// Observability: trace sampling, slow-query log, histogram
    /// recording (see [`cpqx_obs::ObsOptions`]). Enabled by default —
    /// a recorded stage costs a few relaxed atomic adds; set
    /// `obs.enabled = false` to reduce every probe to a branch.
    pub obs: ObsOptions,
    /// Executor switches ([`cpqx_core::ExecOptions`]) applied to every
    /// query this engine serves. The defaults enable all optimizations
    /// (class-level conjunction, fused identity, CSR read faces);
    /// overriding them here turns the whole engine into the
    /// corresponding ablation, which is how the differential tests and
    /// the `fig06_csr`/`net_throughput` benches compare read paths under
    /// identical serving conditions.
    pub exec: ExecOptions,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            k: 2,
            build: BuildOptions::default(),
            result_cache_capacity: 1024,
            plan_cache_capacity: 4096,
            result_admission_min_cost: 0.0,
            interests: None,
            auto_rebuild_ratio: Some(8.0),
            durability: DurabilityOptions::default(),
            obs: ObsOptions::default(),
            exec: ExecOptions::default(),
        }
    }
}

/// A lowered plan together with its estimated execution cost, produced by
/// one pass of the cost-based optimizer
/// ([`cpqx_core::optimize_query_costed`]) — the unit the per-snapshot
/// plan cache stores, so the cost always describes the plan that actually
/// executes and the admission policy never re-estimates on a plan-cache
/// hit.
pub struct PlannedQuery {
    /// The physical plan the executor runs.
    pub plan: Plan,
    /// The plan's estimated cumulative execution cost.
    pub cost: f64,
}

/// An immutable, shareable point-in-time view: the graph, its index, the
/// epoch that produced it, and a plan cache scoped to it.
pub struct Snapshot {
    graph: Graph,
    index: CpqxIndex,
    epoch: u64,
    plans: Mutex<LruCache<String, Arc<PlannedQuery>>>,
    exec: ExecOptions,
}

impl Snapshot {
    fn new(
        graph: Graph,
        index: CpqxIndex,
        epoch: u64,
        plan_capacity: usize,
        exec: ExecOptions,
    ) -> Self {
        Snapshot { graph, index, epoch, plans: Mutex::new(LruCache::new(plan_capacity)), exec }
    }

    /// The snapshot's graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The snapshot's index.
    pub fn index(&self) -> &CpqxIndex {
        &self.index
    }

    /// The engine epoch this snapshot was installed at (0 = initial
    /// build; each maintenance installation increments it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cost-optimized plan (with its cost estimate) for a canonical
    /// query, cached per snapshot (LRU, bounded by
    /// [`EngineOptions::plan_cache_capacity`]). Returns the planned query
    /// and whether it was a cache hit.
    pub fn plan_for(&self, key: &str, canonical: &Cpq) -> (Arc<PlannedQuery>, bool) {
        if let Some(p) = self.plans.lock().unwrap().get(key) {
            return (Arc::clone(p), true);
        }
        // Lower outside the lock: planning is pure and collisions are
        // idempotent (last insert wins with an identical plan).
        let (plan, cost) = cpqx_core::optimize_query_costed(&self.index, &self.graph, canonical);
        let planned = Arc::new(PlannedQuery { plan, cost });
        self.plans.lock().unwrap().insert(key.to_string(), Arc::clone(&planned));
        (planned, false)
    }

    /// Evaluates `q` against this snapshot, bypassing the result cache
    /// (still uses the snapshot's plan cache).
    pub fn evaluate(&self, q: &Cpq) -> Vec<Pair> {
        let canonical = canonicalize(q);
        let key = cache_key(&canonical);
        let (planned, _) = self.plan_for(&key, &canonical);
        Executor::with_options(&self.index, &self.graph, self.exec).run(&planned.plan)
    }
}

/// Result cache tagged with the epoch its entries are valid for.
struct TaggedResults {
    epoch: u64,
    cache: LruCache<String, Arc<Vec<Pair>>>,
}

/// The concurrent serving engine (see module docs).
pub struct Engine {
    current: RwLock<Arc<Snapshot>>,
    results: Mutex<TaggedResults>,
    /// Serializes writers: clone → mutate → install must not interleave.
    writer: Mutex<()>,
    /// Phase timings of the most recent full build (initial build,
    /// [`Engine::rebuild`], or an auto-rebuild) — surfaced through
    /// [`Engine::stats`].
    last_build: Mutex<BuildReport>,
    /// The attached durability sink, if any (see
    /// [`Engine::attach_durability`]). Consulted (one brief lock to
    /// clone the `Arc`) at the start of every logged write transaction.
    durability: Mutex<Option<Arc<dyn DurabilitySink>>>,
    /// The observability recorder: the metrics registry's values,
    /// per-opcode/per-stage histograms, sampled traces, and the
    /// slow-query log. Shared with the network front-end (see
    /// [`Engine::obs`]); every counter of [`StatsReport`] lives here,
    /// and its `Op::Query` histogram is the source of
    /// [`StatsReport::p50`]/[`StatsReport::p99`].
    obs: Arc<Recorder>,
    options: EngineOptions,
}

impl Engine {
    /// Builds an engine over `graph` with default options and path
    /// parameter `k` (sharded parallel build).
    pub fn build(graph: Graph, k: usize) -> Engine {
        Engine::with_options(graph, EngineOptions { k, ..EngineOptions::default() }).0
    }

    /// Builds an engine with explicit options, returning the initial
    /// build's report (interest-aware engines build sharded too, through
    /// [`crate::build::build_interest_sharded`]).
    pub fn with_options(graph: Graph, options: EngineOptions) -> (Engine, BuildReport) {
        let (index, report) = match &options.interests {
            None => build_sharded_with_report(&graph, options.k, options.build),
            Some(lq) => build_interest_sharded_with_report(
                &graph,
                options.k,
                lq.iter().copied(),
                options.build,
            ),
        };
        let snapshot =
            Arc::new(Snapshot::new(graph, index, 0, options.plan_cache_capacity, options.exec));
        let engine = Engine {
            current: RwLock::new(snapshot),
            results: Mutex::new(TaggedResults {
                epoch: 0,
                cache: LruCache::new(options.result_cache_capacity),
            }),
            writer: Mutex::new(()),
            last_build: Mutex::new(report),
            durability: Mutex::new(None),
            obs: Arc::new(Recorder::new(&options.obs)),
            options,
        };
        engine.record_build_obs(&report, 0);
        (engine, report)
    }

    /// Revives an engine from externally recovered state (a persisted
    /// snapshot plus its replayed WAL tail — see the `cpqx-store`
    /// crate's `recover` module): the given graph + index install as
    /// epoch 0 **without** a rebuild, which is the entire point of
    /// persisting the index — restart cost is I/O plus replay, not an
    /// index construction. Counters and build timings start fresh; like
    /// a loaded index, the recovered state begins a new fragmentation
    /// epoch.
    pub fn with_recovered(graph: Graph, index: CpqxIndex, options: EngineOptions) -> Engine {
        let snapshot =
            Arc::new(Snapshot::new(graph, index, 0, options.plan_cache_capacity, options.exec));
        Engine {
            current: RwLock::new(snapshot),
            results: Mutex::new(TaggedResults {
                epoch: 0,
                cache: LruCache::new(options.result_cache_capacity),
            }),
            writer: Mutex::new(()),
            last_build: Mutex::new(BuildReport::default()),
            durability: Mutex::new(None),
            obs: Arc::new(Recorder::new(&options.obs)),
            options,
        }
    }

    /// Attaches a durability sink: from now on every typed delta
    /// transaction is appended to the sink **before** its snapshot
    /// installs (write-ahead ordering; see [`crate::durability`]), and
    /// [`EngineOptions::durability`] drives the checkpoint cadence.
    /// Replaces any previously attached sink.
    ///
    /// Note that closure transactions ([`Engine::update`]) carry no
    /// typed ops and therefore cannot be logged — durable deployments
    /// must write through [`Engine::apply_delta`] (as the single-op
    /// helpers and the network front-end do).
    pub fn attach_durability(&self, sink: Arc<dyn DurabilitySink>) {
        *self.durability.lock().unwrap() = Some(sink);
    }

    /// The attached durability sink, if any.
    fn sink(&self) -> Option<Arc<dyn DurabilitySink>> {
        self.durability.lock().unwrap().clone()
    }

    /// The current snapshot. Readers hold it as long as they like; a
    /// concurrent swap never invalidates it.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().unwrap())
    }

    /// The current epoch (bumped by every maintenance installation).
    /// Always agrees with `self.snapshot().epoch()` — the epoch *is* the
    /// published snapshot's epoch, so there is no window where the two
    /// disagree.
    pub fn epoch(&self) -> u64 {
        self.current.read().unwrap().epoch()
    }

    /// The engine's construction options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The observability recorder: histograms, sampled traces, the
    /// slow-query log and observed-workload counts. The network
    /// front-end shares this recorder so wire-level stages (parse) and
    /// engine-level stages land in one place.
    pub fn obs(&self) -> &Arc<Recorder> {
        &self.obs
    }

    /// Feeds one build report's phase timings into the recorder (the
    /// shard phase unifies `refine` for full builds and
    /// `interest_shards` for interest-aware ones — exactly one of the
    /// two is non-zero per report).
    fn record_build_obs(&self, report: &BuildReport, epoch: u64) {
        self.obs.record_build(
            report.level1,
            report.refine + report.interest_shards,
            report.merge,
            report.total,
            epoch,
        );
    }

    /// Serves `q` from the result cache or by evaluating it on the
    /// current snapshot. The returned `Arc` is shared with the cache.
    pub fn query(&self, q: &Cpq) -> Arc<Vec<Pair>> {
        let snap = self.snapshot();
        self.query_on(&snap, q)
    }

    /// Serves `q` against an explicitly held snapshot — the consistency
    /// primitive batch evaluation builds on: all queries of a batch see
    /// one version. The result cache is consulted only while it is still
    /// tagged with `snap`'s epoch.
    pub fn query_on(&self, snap: &Snapshot, q: &Cpq) -> Arc<Vec<Pair>> {
        let mut trace = self.obs.begin(TraceKind::Query);
        let out = self.query_traced(snap, q, trace.as_mut());
        if let Some(tb) = trace {
            self.obs.finish(tb);
        }
        out
    }

    /// [`Engine::query_on`] with an externally owned trace: the network
    /// front-end begins the trace before parsing (so the parse span is
    /// part of the same tree) and finishes it after the response is
    /// built. The engine attaches the canonical key and epoch and
    /// contributes the cache-probe / plan / eval spans.
    pub fn query_traced(
        &self,
        snap: &Snapshot,
        q: &Cpq,
        mut trace: Option<&mut TraceBuilder>,
    ) -> Arc<Vec<Pair>> {
        let t0 = Instant::now();
        let canonical = canonicalize(q);
        let key = cache_key(&canonical);
        if let Some(tb) = trace.as_deref_mut() {
            tb.set_key(&key);
            tb.set_epoch(snap.epoch());
        }
        let probe = self.obs.timer();
        {
            let mut res = self.results.lock().unwrap();
            if res.epoch == snap.epoch() {
                if let Some(hit) = res.cache.get(&key) {
                    let hit = Arc::clone(hit);
                    drop(res);
                    self.obs.stage(Stage::CacheProbe, probe, trace.as_deref_mut());
                    self.note_query(t0.elapsed(), true);
                    return hit;
                }
            }
        }
        self.obs.stage(Stage::CacheProbe, probe, trace.as_deref_mut());
        let plan_timer = self.obs.timer();
        let (planned, plan_hit) = snap.plan_for(&key, &canonical);
        self.obs.stage(Stage::Plan, plan_timer, trace.as_deref_mut());
        self.obs.add(if plan_hit { Metric::PlanHits } else { Metric::PlanMisses }, 1);
        let eval_timer = self.obs.timer();
        let out = Arc::new(
            Executor::with_options(snap.index(), snap.graph(), snap.exec).run(&planned.plan),
        );
        self.obs.stage(Stage::Eval, eval_timer, trace);
        if planned.cost >= self.options.result_admission_min_cost {
            let mut res = self.results.lock().unwrap();
            // Tag check: a swap may have happened while we executed; a
            // result from the old snapshot must not populate the new
            // epoch's cache.
            if res.epoch == snap.epoch() {
                res.cache.insert(key, Arc::clone(&out));
            }
        } else {
            self.obs.add(Metric::RejectedAdmissions, 1);
        }
        self.note_query(t0.elapsed(), false);
        out
    }

    /// Evaluates `q` on the current snapshot without touching the result
    /// cache (used by benches to measure uncached latency).
    pub fn query_uncached(&self, q: &Cpq) -> Vec<Pair> {
        let t0 = Instant::now();
        let snap = self.snapshot();
        let out = snap.evaluate(q);
        self.note_query(t0.elapsed(), false);
        out
    }

    /// Accounts one served query: its counters and its latency in the
    /// opcode histogram (the source of p50/p99). Every query-serving
    /// path must route through here.
    pub(crate) fn note_query(&self, dur: Duration, cache_hit: bool) {
        self.obs.add(Metric::Queries, 1);
        self.obs.add(if cache_hit { Metric::ResultHits } else { Metric::ResultMisses }, 1);
        self.obs.record_op(Op::Query, dur);
    }

    /// Applies a typed delta transaction: clones the current state
    /// **once**, applies every [`DeltaOp`] to the clone via the paper's
    /// lazy maintenance procedures, and installs the result as one new
    /// snapshot — the engine's primary write path (single-op helpers and
    /// the network front-end's UPDATE/DELTA frames all route through
    /// it). Atomic: an invalid op rejects the whole delta with a
    /// [`DeltaError`] and installs nothing.
    ///
    /// After applying, the index's fragmentation ratio is checked
    /// against [`EngineOptions::auto_rebuild_ratio`]; crossing it
    /// triggers a defragmenting full rebuild *within the same
    /// transaction*, so readers go straight from the pre-delta snapshot
    /// to the rebuilt one. Lazy-vs-rebuild accounting lands in
    /// [`StatsReport`] (`delta_transactions`, `lazy_update_ops`,
    /// `rebuilds`, `auto_rebuilds`, `fragmentation_ratio`).
    pub fn apply_delta(&self, delta: &Delta) -> Result<DeltaReport, DeltaError> {
        // Reject invalid deltas read-only against the current snapshot,
        // before the write transaction takes the lock and pays the
        // clone. Vertex ids and the label table only grow, so a delta
        // passing here cannot fail against the clone below.
        crate::delta::validate_ops(self.snapshot().graph(), delta.ops())?;
        let txn_timer = self.obs.timer();
        let (result, epoch, rebuilt, ratio) = self
            .write_txn(Some(delta.ops()), |g, idx| match apply_ops(g, idx, delta.ops()) {
                Ok(outcomes) => {
                    let applied = outcomes.iter().filter(|o| o.changed()).count();
                    (Ok((outcomes, applied)), applied > 0)
                }
                Err(e) => (Err(e), false),
            })
            .map_err(|e| DeltaError {
                op_index: 0,
                reason: format!("durability: WAL append failed: {e}"),
            })?;
        let (outcomes, applied) = result?;
        self.obs.add(Metric::DeltaTransactions, 1);
        self.obs.add(Metric::LazyUpdateOps, applied as u64);
        if let Some(t0) = txn_timer {
            self.obs.record_op(Op::Delta, t0.elapsed());
        }
        Ok(DeltaReport { outcomes, applied, epoch, rebuilt, fragmentation_ratio: ratio })
    }

    /// Applies a maintenance transaction given as a closure: clones the
    /// current state, runs `f` on the clone (graph + index stay
    /// consistent through the [`CpqxIndex`] maintenance API), installs
    /// the result as a new snapshot, and invalidates the result cache.
    /// Readers are never blocked; concurrent writers serialize. Returns
    /// `f`'s output and the new epoch. Prefer [`Engine::apply_delta`]
    /// where the ops are expressible as typed [`DeltaOp`]s — it gets
    /// per-op outcomes and lazy-update accounting for free.
    pub fn update<R>(&self, f: impl FnOnce(&mut Graph, &mut CpqxIndex) -> R) -> (R, u64) {
        let (out, epoch, _, _) = self
            .write_txn(None, |g, idx| (f(g, idx), true))
            .expect("unlogged transactions perform no I/O");
        (out, epoch)
    }

    /// Inserts a base edge (lazy index maintenance; see
    /// [`CpqxIndex::insert_edge`]). Returns `false` if it already existed
    /// (no snapshot is installed in that case either).
    ///
    /// # Panics
    /// Panics if the vertices or label are out of range (use
    /// [`Engine::apply_delta`] for a non-panicking, typed-error path).
    pub fn insert_edge(&self, v: VertexId, u: VertexId, l: Label) -> bool {
        self.insert_edge_with_epoch(v, u, l).0
    }

    /// Like [`Engine::insert_edge`], additionally returning the epoch the
    /// caller may pin: the epoch this update installed, or (for no-ops)
    /// the epoch the no-op was decided against. Read under the writer
    /// lock, so a concurrent writer can never make the pair stale — the
    /// seam the network front-end's `UPDATE_ACK` relies on.
    pub fn insert_edge_with_epoch(&self, v: VertexId, u: VertexId, l: Label) -> (bool, u64) {
        self.one_op(DeltaOp::InsertEdge { src: v, dst: u, label: l })
    }

    /// Deletes a base edge (lazy index maintenance). Returns `false` if
    /// it did not exist.
    ///
    /// # Panics
    /// Panics if the vertices or label are out of range.
    pub fn delete_edge(&self, v: VertexId, u: VertexId, l: Label) -> bool {
        self.delete_edge_with_epoch(v, u, l).0
    }

    /// Like [`Engine::delete_edge`] with the pinnable epoch (see
    /// [`Engine::insert_edge_with_epoch`]).
    pub fn delete_edge_with_epoch(&self, v: VertexId, u: VertexId, l: Label) -> (bool, u64) {
        self.one_op(DeltaOp::DeleteEdge { src: v, dst: u, label: l })
    }

    /// Registers an interest sequence on an interest-aware engine (see
    /// [`CpqxIndex::insert_interest`]). Returns `false` for sequences
    /// the index cannot register (full CPQx engine, length outside
    /// `2..=k`, already registered).
    ///
    /// # Panics
    /// Panics if the sequence names a label the graph lacks (use
    /// [`Engine::apply_delta`] for a non-panicking, typed-error path).
    pub fn insert_interest(&self, seq: LabelSeq) -> bool {
        self.one_op(DeltaOp::InsertInterest { seq }).0
    }

    /// Drops an interest sequence on an interest-aware engine.
    pub fn delete_interest(&self, seq: &LabelSeq) -> bool {
        self.one_op(DeltaOp::DeleteInterest { seq: *seq }).0
    }

    /// A single-op delta transaction (the legacy update surface).
    fn one_op(&self, op: DeltaOp) -> (bool, u64) {
        let report = self
            .apply_delta(&Delta::from(vec![op]))
            .unwrap_or_else(|e| panic!("invalid single-op update: {e}"));
        (report.applied > 0, report.epoch)
    }

    /// Rebuilds the index from the current graph (defragmentation after
    /// lazy maintenance), using the sharded parallel builder for both
    /// index variants. Returns the build report.
    pub fn rebuild(&self) -> BuildReport {
        let _writer = self.writer.lock().unwrap();
        let snap = self.snapshot();
        let graph = snap.graph.clone();
        let (index, report) = self.build_fresh(&graph, snap.index.interests().cloned());
        self.obs.add(Metric::Rebuilds, 1);
        let epoch = self.install(graph, index);
        // Recorded only after the install: a concurrent stats() must never
        // pair this build's timings with the gauges of the snapshot it is
        // about to replace.
        *self.last_build.lock().unwrap() = report;
        self.record_build_obs(&report, epoch);
        report
    }

    /// Builds a fresh (minimal-partition) index over `graph`, sharded for
    /// both variants (source-range shards for full CPQx, label-weighted
    /// interest shards for iaCPQx) — shared by the initial build path,
    /// [`Engine::rebuild`] and the auto-rebuild trigger. Callers record
    /// the report into `last_build` themselves, *after* installing the
    /// snapshot the build produced, so [`Engine::stats`] never pairs a
    /// build's timings with the gauges of the snapshot it replaced.
    fn build_fresh(
        &self,
        graph: &Graph,
        interests: Option<BTreeSet<LabelSeq>>,
    ) -> (CpqxIndex, BuildReport) {
        match interests {
            None => build_sharded_with_report(graph, self.options.k, self.options.build),
            Some(lq) => build_interest_sharded_with_report(
                graph,
                self.options.k,
                lq.iter().copied(),
                self.options.build,
            ),
        }
    }

    /// Engine statistics: query counts, cache hit rates, swap counts,
    /// maintenance/fragmentation accounting, copy-on-write sharing and
    /// latency percentiles.
    pub fn stats(&self) -> StatsReport {
        // Pin the snapshot *before* reading the counters: the counter
        // report then describes a state at least as old as the gauges, so
        // one report never mixes gauges from a snapshot that a
        // counter-visible write transaction has already replaced. (The
        // converse skew — counters advancing right after the pin — only
        // over-reports activity, never attributes gauges to the wrong
        // snapshot.)
        let snap = self.snapshot();
        let mut report = StatsReport::from_recorder(&self.obs);
        // O(1) fragmentation gauges only — the full report's live-class
        // scan is too expensive for a stats endpoint polled by monitors.
        report.fragmentation_ratio = snap.index().fragmentation_ratio();
        report.class_slots = snap.index().class_slots() as u64;
        report.baseline_classes = snap.index().baseline_class_count() as u64;
        // Phase timings of the most recent full build (initial, manual
        // rebuild, or auto-rebuild) — how the serving layer observes the
        // parallel build pipeline.
        let build = *self.last_build.lock().unwrap();
        report.build_level1 = build.level1;
        report.build_level1_parallel = build.level1_parallel;
        report.build_interest_shards = build.interest_shards;
        report.build_total = build.total;
        report
    }

    /// The registry's counter view: [`Engine::stats`] without the
    /// snapshot gauges and build timings. An alias kept because
    /// `perfbench/` reads `plan_misses` from it once per traced read;
    /// drop it at the next change to that benchmark.
    pub fn reservoir_report(&self) -> StatsReport {
        StatsReport::from_recorder(&self.obs)
    }

    /// The single write-transaction core every mutating path funnels
    /// through (`apply_delta`, `update`, and via them the single-op
    /// helpers): under the writer lock, clone the current state once,
    /// run `f` on the clone, and — iff `f` reports a change — install
    /// the result as one new snapshot. Before installing, the
    /// fragmentation ratio is checked against
    /// [`EngineOptions::auto_rebuild_ratio`]; crossing it replaces the
    /// fragmented clone with a fresh build of the same graph, still
    /// within the single install, so no reader ever observes the
    /// fragmented intermediate. Returns `f`'s output, the pinnable
    /// epoch (installed, or unchanged for no-ops), whether an
    /// auto-rebuild fired, and the fragmentation ratio after the
    /// transaction.
    ///
    /// `log_ops` carries the transaction's typed ops for the durability
    /// sink (if one is attached): they are appended to the WAL after `f`
    /// succeeds and **before** the install — write-ahead ordering — and
    /// an append failure aborts the transaction with the I/O error
    /// (nothing installs). Closure transactions pass `None` and can
    /// never fail. After a successful append (and a possible
    /// auto-rebuild), crossing
    /// [`DurabilityOptions::checkpoint_wal_bytes`] triggers a sink
    /// checkpoint of the exact state about to install; checkpoint
    /// failures are non-fatal (the WAL still covers everything, the
    /// next trigger retries).
    fn write_txn<R>(
        &self,
        log_ops: Option<&[DeltaOp]>,
        f: impl FnOnce(&mut Graph, &mut CpqxIndex) -> (R, bool),
    ) -> Result<(R, u64, bool, f64), std::io::Error> {
        let _writer = self.writer.lock().unwrap();
        let mut trace = self.obs.begin(TraceKind::Delta);
        let snap = self.snapshot();
        // The clone is O(#chunks): all heavyweight storage is structurally
        // shared with the snapshot and copied chunk-by-chunk on first
        // touch.
        let clone_timer = self.obs.timer();
        let (mut graph, mut index) = (snap.graph.clone(), snap.index.clone());
        self.obs.stage(Stage::Clone, clone_timer, trace.as_mut());
        let maintain_timer = self.obs.timer();
        let (out, changed) = f(&mut graph, &mut index);
        self.obs.stage(Stage::Maintain, maintain_timer, trace.as_mut());
        if !changed {
            if let Some(mut tb) = trace {
                tb.set_epoch(snap.epoch());
                self.obs.finish(tb);
            }
            return Ok((out, snap.epoch(), false, index.fragmentation_ratio()));
        }
        let sink = match (log_ops, self.sink()) {
            (Some(ops), Some(sink)) => {
                let wal_timer = self.obs.timer();
                let bytes = sink.append(&graph, ops)?;
                self.obs.stage(Stage::WalAppend, wal_timer, trace.as_mut());
                self.obs.add(Metric::WalAppends, 1);
                self.obs.add(Metric::WalBytes, bytes);
                Some(sink)
            }
            _ => None,
        };
        let rebuild_report = match self.options.auto_rebuild_ratio {
            Some(threshold) if index.fragmentation_ratio() > threshold => {
                let (fresh, report) = self.build_fresh(&graph, index.interests().cloned());
                index = fresh;
                self.obs.add(Metric::Rebuilds, 1);
                self.obs.add(Metric::AutoRebuilds, 1);
                Some(report)
            }
            _ => None,
        };
        // Copy-on-write accounting against the snapshot being replaced: a
        // rebuild naturally reads as all-copied, a small delta as a few
        // copied chunks over a large shared remainder.
        let cow = graph.cow_diff(&snap.graph).merge(index.cow_diff(&snap.index));
        self.obs.add(Metric::CowChunksCopied, cow.chunks_copied as u64);
        self.obs.add(Metric::CowChunksShared, cow.chunks_shared as u64);
        if let (Some(sink), Some(limit)) = (&sink, self.options.durability.checkpoint_wal_bytes) {
            if sink.wal_bytes_since_checkpoint() > limit {
                // Checkpoints the exact (possibly auto-rebuilt) state the
                // install below publishes. Failure is non-fatal: the WAL
                // retains full coverage and the next trigger retries.
                if let Ok(report) = sink.checkpoint(&graph, &index) {
                    self.obs.add(Metric::SnapshotsWritten, 1);
                    self.obs.add(Metric::SnapshotChunksWritten, report.chunks_written);
                    self.obs.add(Metric::SnapshotChunksSkipped, report.chunks_skipped);
                }
            }
        }
        let ratio = index.fragmentation_ratio();
        let install_timer = self.obs.timer();
        let epoch = self.install(graph, index);
        self.obs.stage(Stage::Install, install_timer, trace.as_mut());
        if let Some(report) = rebuild_report {
            // After the install, for the same reason as Engine::rebuild.
            *self.last_build.lock().unwrap() = report;
            self.record_build_obs(&report, epoch);
        }
        if let Some(mut tb) = trace {
            tb.set_epoch(epoch);
            self.obs.finish(tb);
        }
        Ok((out, epoch, rebuild_report.is_some(), ratio))
    }

    /// Installs a new current snapshot (caller holds the writer lock).
    /// Invalidate-then-install ordering: between the two steps readers
    /// run uncached against the old snapshot, but no stale entry can ever
    /// be served for the new epoch.
    fn install(&self, graph: Graph, index: CpqxIndex) -> u64 {
        let epoch = self.epoch() + 1;
        {
            let mut res = self.results.lock().unwrap();
            let dropped = res.cache.len() as u64;
            res.epoch = epoch;
            res.cache.clear();
            self.obs.add(Metric::SnapshotSwaps, 1);
            self.obs.add(Metric::InvalidatedResults, dropped);
        }
        let snapshot =
            Snapshot::new(graph, index, epoch, self.options.plan_cache_capacity, self.options.exec);
        *self.current.write().unwrap() = Arc::new(snapshot);
        epoch
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Engine")
            .field("epoch", &snap.epoch())
            .field("index", snap.index())
            .field("stats", &self.stats().to_string())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate;
    use cpqx_query::eval::eval_reference;
    use cpqx_query::parse_cpq;

    fn gex_engine() -> Engine {
        Engine::build(generate::gex(), 2)
    }

    #[test]
    fn serves_correct_answers() {
        let engine = gex_engine();
        let snap = engine.snapshot();
        let q = parse_cpq("(f . f) & f^-1", snap.graph()).unwrap();
        let expected = eval_reference(snap.graph(), &q);
        assert_eq!(*engine.query(&q), expected);
        // Second serve: result-cache hit, same answer.
        assert_eq!(*engine.query(&q), expected);
        let stats = engine.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.result_hits, 1);
        assert!(stats.result_hit_rate > 0.49);
    }

    #[test]
    fn semantically_equal_queries_share_cache_entries() {
        let engine = gex_engine();
        let g = engine.snapshot();
        let a = parse_cpq("(f . f) & f^-1", g.graph()).unwrap();
        let b = parse_cpq("f^-1 & (f . (f . id))", g.graph()).unwrap();
        engine.query(&a);
        engine.query(&b);
        let stats = engine.stats();
        assert_eq!(stats.result_hits, 1, "canonicalization must unify {a:?} and {b:?}");
    }

    #[test]
    fn maintenance_swaps_snapshots_and_invalidates() {
        let engine = gex_engine();
        let snap0 = engine.snapshot();
        let g0 = snap0.graph();
        let q = parse_cpq("f . f", g0).unwrap();
        let before = engine.query(&q);
        let (sue, joe) = (g0.vertex_named("sue").unwrap(), g0.vertex_named("joe").unwrap());
        let f = g0.label_named("f").unwrap();
        assert!(engine.delete_edge(sue, joe, f));
        assert_eq!(engine.epoch(), 1);
        // Old snapshot still fully queryable (readers are not blocked).
        assert_eq!(snap0.evaluate(&q), *before);
        // New snapshot reflects the deletion and matches the reference.
        let snap1 = engine.snapshot();
        let expected = eval_reference(snap1.graph(), &q);
        assert_eq!(*engine.query(&q), expected);
        assert_ne!(*before, expected, "deletion must change this answer");
        assert_eq!(engine.stats().snapshot_swaps, 1);
        // No-op maintenance installs nothing.
        assert!(!engine.delete_edge(sue, joe, f));
        assert_eq!(engine.epoch(), 1);
    }

    #[test]
    fn update_with_epoch_reports_the_installed_version() {
        let engine = gex_engine();
        let snap = engine.snapshot();
        let g0 = snap.graph();
        let (sue, joe) = (g0.vertex_named("sue").unwrap(), g0.vertex_named("joe").unwrap());
        let f = g0.label_named("f").unwrap();
        assert_eq!(engine.delete_edge_with_epoch(sue, joe, f), (true, 1));
        // No-op: not applied, epoch pinned to the version the decision
        // was made against.
        assert_eq!(engine.delete_edge_with_epoch(sue, joe, f), (false, 1));
        assert_eq!(engine.insert_edge_with_epoch(sue, joe, f), (true, 2));
        assert_eq!(engine.epoch(), 2);
    }

    #[test]
    fn update_transaction_batches_changes() {
        let engine = gex_engine();
        let snap = engine.snapshot();
        let f = snap.graph().label_named("f").unwrap();
        let (applied, epoch) = engine.update(|g, idx| {
            let a = idx.add_vertex(g, "newbie");
            let sue = g.vertex_named("sue").unwrap();
            idx.insert_edge(g, a, sue, f) && idx.insert_edge(g, sue, a, f)
        });
        assert!(applied);
        assert_eq!(epoch, 1);
        let snap1 = engine.snapshot();
        let q = parse_cpq("(f . f) & id", snap1.graph()).unwrap();
        assert_eq!(*engine.query(&q), eval_reference(snap1.graph(), &q));
    }

    #[test]
    fn rebuild_defragments() {
        let engine = gex_engine();
        let snap = engine.snapshot();
        let g0 = snap.graph();
        let f = g0.label_named("f").unwrap();
        let (sue, joe) = (g0.vertex_named("sue").unwrap(), g0.vertex_named("joe").unwrap());
        engine.delete_edge(sue, joe, f);
        engine.insert_edge(sue, joe, f);
        let fragmented = engine.snapshot().index().class_slots();
        let report = engine.rebuild();
        assert!(report.shards >= 1);
        let rebuilt = engine.snapshot();
        assert!(rebuilt.index().class_slots() <= fragmented);
        let q = parse_cpq("(f . f) & f^-1", rebuilt.graph()).unwrap();
        assert_eq!(*engine.query(&q), eval_reference(rebuilt.graph(), &q));
    }

    #[test]
    fn interest_aware_engine_serves_and_maintains() {
        let g = generate::gex();
        let f = g.label_named("f").unwrap();
        let ff = LabelSeq::from_slice(&[f.fwd(), f.fwd()]);
        let (engine, report) = Engine::with_options(
            g,
            EngineOptions { k: 2, interests: Some(vec![ff]), ..EngineOptions::default() },
        );
        // Interest-aware engines build sharded too: the report describes
        // the interest-shard phase instead of level-1/refine.
        assert!(report.shards >= 1);
        assert_eq!(report.level1, std::time::Duration::ZERO);
        let snap = engine.snapshot();
        assert!(snap.index().is_interest_aware());
        let q = parse_cpq("(f . f) & f^-1", snap.graph()).unwrap();
        assert_eq!(*engine.query(&q), eval_reference(snap.graph(), &q));
        let v = g_label_seq(&engine);
        assert!(engine.insert_interest(v));
        assert_eq!(engine.epoch(), 1);
        assert!(engine.rebuild().shards >= 1);
        let q2 = parse_cpq("(f^-1 . f) & id", engine.snapshot().graph()).unwrap();
        assert_eq!(*engine.query(&q2), eval_reference(engine.snapshot().graph(), &q2));
    }

    fn g_label_seq(engine: &Engine) -> LabelSeq {
        let snap = engine.snapshot();
        let f = snap.graph().label_named("f").unwrap();
        LabelSeq::from_slice(&[f.inv(), f.fwd()])
    }

    #[test]
    fn plan_cache_hits_within_a_snapshot() {
        let engine = gex_engine();
        let snap = engine.snapshot();
        let q = parse_cpq("f . f . f", snap.graph()).unwrap();
        engine.query_uncached(&q);
        engine.query_uncached(&q);
        // query_uncached bypasses result caching but shares the snapshot
        // plan cache via Snapshot::evaluate.
        assert_eq!(engine.stats().result_hits, 0);
    }

    #[test]
    fn admission_policy_rejects_cheap_queries() {
        let g = generate::gex();
        let (engine, _) = Engine::with_options(
            g,
            EngineOptions {
                k: 2,
                result_admission_min_cost: f64::INFINITY,
                ..EngineOptions::default()
            },
        );
        let snap = engine.snapshot();
        let q = parse_cpq("(f . f) & f^-1", snap.graph()).unwrap();
        let expected = eval_reference(snap.graph(), &q);
        assert_eq!(*engine.query(&q), expected);
        assert_eq!(*engine.query(&q), expected, "rejection must not change answers");
        let stats = engine.stats();
        assert_eq!(stats.result_hits, 0, "nothing may be admitted");
        assert_eq!(stats.rejected_admissions, 2);
    }

    #[test]
    fn admission_policy_separates_by_cost() {
        // A threshold between the costs of a trivial and a compound query
        // must cache the latter but not the former.
        let g = generate::gex();
        let snap_graph = g.clone();
        let idx = cpqx_core::CpqxIndex::build(&snap_graph, 2);
        let cheap = parse_cpq("f", &snap_graph).unwrap();
        let pricey = parse_cpq("(f . f) & f^-1", &snap_graph).unwrap();
        let cheap_cost = cpqx_core::estimate_plan_cost(&idx, &snap_graph, &cheap);
        let pricey_cost = cpqx_core::estimate_plan_cost(&idx, &snap_graph, &pricey);
        assert!(cheap_cost < pricey_cost, "{cheap_cost} !< {pricey_cost}");
        let (engine, _) = Engine::with_options(
            g,
            EngineOptions {
                k: 2,
                result_admission_min_cost: (cheap_cost + pricey_cost) / 2.0,
                ..EngineOptions::default()
            },
        );
        engine.query(&cheap);
        engine.query(&cheap);
        engine.query(&pricey);
        engine.query(&pricey);
        let stats = engine.stats();
        assert_eq!(stats.result_hits, 1, "only the compound query is cached");
        assert_eq!(stats.rejected_admissions, 2);
    }

    #[test]
    fn delta_transaction_applies_atomically_with_per_op_outcomes() {
        use crate::delta::{Delta, OpOutcome};
        let engine = gex_engine();
        let snap = engine.snapshot();
        let g0 = snap.graph();
        let f = g0.label_named("f").unwrap();
        let v = g0.label_named("v").unwrap();
        let (sue, joe) = (g0.vertex_named("sue").unwrap(), g0.vertex_named("joe").unwrap());
        let new_id = g0.vertex_count();
        let delta = Delta::new()
            .add_vertex("newbie")
            .insert_edge(new_id, sue, f) // references the vertex added above
            .insert_edge(sue, joe, f) // already exists: noop
            .change_edge_label(sue, joe, f, v)
            .delete_edge(joe, sue, v); // never existed: noop
        let report = engine.apply_delta(&delta).expect("valid delta");
        assert_eq!(report.outcomes.len(), 5);
        assert_eq!(report.outcomes[0], OpOutcome::VertexAdded(new_id));
        assert_eq!(report.outcomes[1], OpOutcome::Applied);
        assert_eq!(report.outcomes[2], OpOutcome::Noop);
        assert_eq!(report.outcomes[3], OpOutcome::Applied);
        assert_eq!(report.outcomes[4], OpOutcome::Noop);
        assert_eq!(report.applied, 3);
        // One transaction = one install, whatever the op count.
        assert_eq!(report.epoch, 1);
        assert_eq!(engine.epoch(), 1);
        assert!(!report.rebuilt);
        assert!(report.fragmentation_ratio >= 1.0);
        let snap1 = engine.snapshot();
        for text in ["f . f", "v . v^-1", "(f . f) & f^-1"] {
            let q = parse_cpq(text, snap1.graph()).unwrap();
            assert_eq!(*engine.query(&q), eval_reference(snap1.graph(), &q), "{text}");
        }
        let stats = engine.stats();
        assert_eq!(stats.delta_transactions, 1);
        assert_eq!(stats.lazy_update_ops, 3);
        assert_eq!(stats.rebuilds, 0);

        // An invalid op rejects the whole delta: nothing installed, even
        // for the valid prefix.
        let bad = Delta::new().delete_edge(sue, joe, v).insert_edge(u32::MAX, sue, f);
        let err = engine.apply_delta(&bad).expect_err("out-of-range vertex");
        assert_eq!(err.op_index, 1);
        assert_eq!(engine.epoch(), 1, "aborted delta must not install");
        let q = parse_cpq("v", engine.snapshot().graph()).unwrap();
        assert_eq!(
            *engine.query(&q),
            eval_reference(engine.snapshot().graph(), &q),
            "prefix of the aborted delta must not be visible"
        );

        // Empty deltas don't install either.
        let report = engine.apply_delta(&Delta::new()).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.applied, 0);
    }

    #[test]
    fn auto_rebuild_defragments_past_the_threshold() {
        let g = generate::random_graph(&generate::RandomGraphConfig::social(60, 240, 3, 5));
        let (engine, _) = Engine::with_options(
            g,
            EngineOptions { k: 2, auto_rebuild_ratio: Some(1.02), ..EngineOptions::default() },
        );
        let baseline = engine.stats().baseline_classes;
        // Churn until the (very low) threshold trips.
        let snap = engine.snapshot();
        let edges: Vec<_> = snap.graph().base_edges().take(40).collect();
        let mut rebuilt_seen = false;
        for (v, u, l) in edges {
            let delta = crate::delta::Delta::new().delete_edge(v, u, l).insert_edge(v, u, l);
            let report = engine.apply_delta(&delta).unwrap();
            rebuilt_seen |= report.rebuilt;
            if report.rebuilt {
                assert!(
                    (report.fragmentation_ratio - 1.0).abs() < 1e-9,
                    "a rebuild restores the minimal partition"
                );
            }
        }
        assert!(rebuilt_seen, "threshold 1.02 must trip under churn");
        let stats = engine.stats();
        assert!(stats.auto_rebuilds >= 1);
        assert_eq!(stats.rebuilds, stats.auto_rebuilds);
        assert!(stats.baseline_classes > 0);
        assert!(baseline > 0);
        // Serving stays correct across the auto-rebuilds.
        let snap = engine.snapshot();
        let q =
            parse_cpq("0 . 1", snap.graph()).or_else(|_| parse_cpq("l0 . l1", snap.graph())).ok();
        if let Some(q) = q {
            assert_eq!(*engine.query(&q), eval_reference(snap.graph(), &q));
        }
    }

    #[test]
    fn interest_delta_ops_on_interest_aware_engine() {
        use crate::delta::OpOutcome;
        let g = generate::gex();
        let f = g.label_named("f").unwrap();
        let ff = LabelSeq::from_slice(&[f.fwd(), f.fwd()]);
        let fif = LabelSeq::from_slice(&[f.inv(), f.fwd()]);
        let (engine, _) = Engine::with_options(
            g,
            EngineOptions { k: 2, interests: Some(vec![ff]), ..EngineOptions::default() },
        );
        let delta = crate::delta::Delta::new()
            .insert_interest(fif)
            .insert_interest(ff) // already registered: noop
            .delete_interest(ff);
        let report = engine.apply_delta(&delta).unwrap();
        assert_eq!(report.outcomes, vec![OpOutcome::Applied, OpOutcome::Noop, OpOutcome::Applied]);
        let snap = engine.snapshot();
        let q = parse_cpq("(f^-1 . f) & id", snap.graph()).unwrap();
        assert_eq!(*engine.query(&q), eval_reference(snap.graph(), &q));
        // On a full (non-ia) engine interest ops are valid no-ops.
        let full = gex_engine();
        let report = full.apply_delta(&crate::delta::Delta::new().insert_interest(fif)).unwrap();
        assert_eq!(report.outcomes, vec![OpOutcome::Noop]);
        assert_eq!(full.epoch(), 0);
    }

    #[test]
    fn slow_query_log_captures_span_tree_with_key_and_epoch() {
        let g = generate::gex();
        let (engine, _) = Engine::with_options(
            g,
            EngineOptions {
                k: 2,
                result_cache_capacity: 0, // force plan+eval every time
                obs: ObsOptions {
                    // Threshold 1us: effectively every query is "slow".
                    slow_query: Some(Duration::from_micros(1)),
                    ..ObsOptions::default()
                },
                ..EngineOptions::default()
            },
        );
        let snap = engine.snapshot();
        let q = parse_cpq("(f . f) & f^-1", snap.graph()).unwrap();
        engine.query(&q);
        let slow = engine.obs().slow_queries();
        assert!(!slow.is_empty(), "a 1us threshold must capture this query");
        let entry = slow.last().unwrap();
        assert_eq!(entry.epoch, 0);
        assert!(!entry.key.is_empty(), "canonical key attached");
        for stage in [Stage::CacheProbe, Stage::Plan, Stage::Eval] {
            assert!(entry.span(stage).is_some(), "missing {stage:?} in {entry:?}");
        }
        assert!(entry.total_us >= 1);
    }

    #[test]
    fn delta_and_build_traces_record_their_stages() {
        let g = generate::gex();
        let (engine, _) = Engine::with_options(
            g,
            EngineOptions {
                k: 2,
                obs: ObsOptions { sample_every: 1, ..ObsOptions::default() },
                ..EngineOptions::default()
            },
        );
        let snap = engine.snapshot();
        let f = snap.graph().label_named("f").unwrap();
        let (sue, joe) =
            (snap.graph().vertex_named("sue").unwrap(), snap.graph().vertex_named("joe").unwrap());
        engine.delete_edge(sue, joe, f);
        engine.rebuild();
        let traces = engine.obs().traces();
        let delta = traces.iter().find(|t| t.kind == TraceKind::Delta).expect("delta trace");
        assert!(delta.span(Stage::Clone).is_some() && delta.span(Stage::Install).is_some());
        assert!(delta.span(Stage::Maintain).is_some());
        assert_eq!(delta.epoch, 1);
        let build = traces.iter().rfind(|t| t.kind == TraceKind::Build).expect("build trace");
        assert!(build.span(Stage::BuildMerge).is_some());
        assert_eq!(build.epoch, 2, "rebuild trace carries the installed epoch");
        // Opcode histograms saw the traffic too.
        assert!(engine.obs().op_snapshot(Op::Delta).count() >= 1);
    }

    #[test]
    fn zero_capacity_result_cache() {
        let g = generate::gex();
        let (engine, _) = Engine::with_options(
            g,
            EngineOptions { k: 2, result_cache_capacity: 0, ..EngineOptions::default() },
        );
        let snap = engine.snapshot();
        let q = parse_cpq("f . f", snap.graph()).unwrap();
        engine.query(&q);
        engine.query(&q);
        assert_eq!(engine.stats().result_hits, 0, "cache disabled");
    }
}
