//! The event-driven TCP front-end over [`cpqx_engine::Engine`].
//!
//! Architecture: one **event-loop** thread owns the nonblocking
//! listener and every connection socket, multiplexed through raw
//! level-triggered `epoll` ([`crate::sys`]). The loop accepts, reads,
//! reassembles frames ([`crate::proto::FrameAssembler`]), answers cheap
//! requests inline and hands evaluation work (QUERY/BATCH/UPDATE/DELTA)
//! to a fixed **worker pool**; completions return over a shared list
//! plus an eventfd wake and are written out by the loop in strict
//! per-connection arrival order (see [`crate::event`] and
//! [`crate::conn`]). An idle connection therefore costs two buffers, not
//! a parked thread — thousands of idle clients coexist with a handful
//! of workers.
//!
//! Backpressure: per-connection pipeline and write-backlog bounds pause
//! reading from a peer that overruns the server, and a global
//! [`ServerOptions::max_connections`] cap rejects new connections with
//! a best-effort BUSY error frame (counted in the metrics registry's
//! [`Metric::RejectedConnections`]).
//!
//! Counters: the front end keeps none of its own. Connection and
//! request counts go into the engine's recorder
//! ([`cpqx_engine::Engine::obs`]), beside the engine's counters, and the
//! STATS and METRICS replies are views of that one registry.
//!
//! Consistency: every QUERY pins one engine snapshot for parse *and*
//! evaluation, and every BATCH parses and evaluates all its queries on
//! one pinned snapshot, so answers always carry the epoch they reflect —
//! maintenance running concurrently (via UPDATE frames or in-process
//! writers) never produces a torn read.
//!
//! Shutdown: [`Server::shutdown`] flips a stop flag, signals the
//! event-loop's wake eventfd, and joins every thread; the loop shuts
//! down every connection socket on its way out (accepted-but-unserved
//! ones included), so a peer blocked in a read observes EOF.

use crate::event::{event_loop, worker_loop, Completion, Job};
use crate::proto::{
    ErrorCode, Request, Response, StatsField, WireError, WireMetrics, WireOp, WireOutcome,
    WireSample, WireSeqLabel, WireStats, DEFAULT_MAX_FRAME,
};
use crate::sys::EventFd;
use cpqx_engine::delta::{Delta, DeltaOp, OpOutcome};
use cpqx_engine::{BatchOptions, Engine};
use cpqx_graph::{Graph, Label, LabelSeq};
use cpqx_obs::{Metric, Op as ObsOp, Stage, TraceKind};
use cpqx_query::parse_cpq;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Worker threads evaluating queries and deltas. Default: the
    /// machine's available parallelism, capped at 8. Workers never
    /// touch sockets, so this bounds CPU, not concurrency.
    pub workers: usize,
    /// Global cap on concurrently open connections; beyond it new
    /// connections get a best-effort BUSY error frame and are closed.
    /// Default 10 000.
    pub max_connections: usize,
    /// Per-connection bound on requests in flight (decoded, response
    /// not yet flushed). Past it the loop stops reading from that
    /// connection until responses drain. Default 128.
    pub max_pipeline: usize,
    /// Maximum payload size, for requests read and replies sent alike.
    /// A larger request desynchronizes the stream (BAD_FRAME, then
    /// close); a larger reply is replaced by a TOO_LARGE error frame
    /// carrying its answer count, and the connection stays open.
    /// Default [`DEFAULT_MAX_FRAME`].
    pub max_frame_len: usize,
    /// Per-connection idle timeout: a connection with no request in
    /// flight and no bytes arriving past it is closed — cleanly at a
    /// frame boundary, with a final TIMEOUT error frame if it dies
    /// mid-frame (the stream is desynchronized either way). Default
    /// 30 s; `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout: a peer that accepts no response
    /// bytes for this long is dropped. Default 30 s.
    pub write_timeout: Option<Duration>,
    /// Worker threads each BATCH frame fans out over (see
    /// [`Engine::evaluate_batch_on`]); `None` uses the engine default.
    /// Default `Some(2)` so concurrent connections don't oversubscribe
    /// the host.
    pub batch_threads: Option<usize>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: cpqx_engine::pool::default_threads().min(8),
            max_connections: 10_000,
            max_pipeline: 128,
            max_frame_len: DEFAULT_MAX_FRAME,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            batch_threads: Some(2),
        }
    }
}

/// State shared by the event loop, the workers and the handle.
pub(crate) struct Shared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) opts: ServerOptions,
    /// Shutdown publication edge: set once with `AcqRel`, observed with
    /// `Acquire` (classified by the cpqx-analyze atomic-ordering rule).
    pub(crate) stop: AtomicBool,
    /// Evaluation work queued for the pool (event loop → workers).
    pub(crate) jobs: Mutex<VecDeque<Job>>,
    pub(crate) jobs_cv: Condvar,
    /// Finished evaluations awaiting the loop (workers → event loop).
    pub(crate) done: Mutex<Vec<Completion>>,
    /// Wakes the event loop out of `epoll_wait` (completions posted,
    /// shutdown requested).
    pub(crate) waker: EventFd,
}

/// A running TCP front-end. Threads start in [`Server::bind`] and stop in
/// [`Server::shutdown`] (or on drop).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    event: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the event-loop and worker threads.
    pub fn bind(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        opts: ServerOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            opts: opts.clone(),
            stop: AtomicBool::new(false),
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            done: Mutex::new(Vec::new()),
            waker: EventFd::new()?,
        });
        let workers = (0..opts.workers.max(1))
            .map(|i| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cpqx-net-worker-{i}"))
                    .spawn(move || worker_loop(&s))
                    .expect("spawn worker")
            })
            .collect();
        let event = {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cpqx-net-event".into())
                .spawn(move || event_loop(&s, listener))
                .expect("spawn event loop")
        };
        Ok(Server { shared, local_addr, event: Some(event), workers })
    }

    /// The bound address (resolves the actual port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Stops accepting, closes every connection (queued work included),
    /// and joins every thread. Idempotent with drop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // AcqRel, not SeqCst: `stop` is a plain publication edge
        // (Release the set, Acquire at every load) — nothing here needs
        // a single total order across atomics (see the cpqx-analyze
        // atomic-ordering rule).
        self.shared.stop.swap(true, Ordering::AcqRel);
        // Wake the event loop out of epoll_wait and the workers out of
        // their condvar; the loop shuts down every connection socket
        // (even ones accepted but never yet served) before exiting.
        self.shared.waker.signal();
        self.shared.jobs_cv.notify_all();
        if let Some(event) = self.event.take() {
            let _ = event.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Serves one decoded request. Pure with respect to the connection: all
/// socket I/O stays on the event loop ([`crate::event`]).
pub(crate) fn handle(s: &Shared, req: Request) -> Response {
    match req {
        Request::Hello { .. } => Response::Error(WireError::new(
            ErrorCode::BadFrame,
            "HELLO after handshake".to_string(),
        )),
        Request::Ping => {
            s.engine.obs().add(Metric::PingRequests, 1);
            let t0 = s.engine.obs().timer();
            if let Some(t0) = t0 {
                s.engine.obs().record_op(ObsOp::Ping, t0.elapsed());
            }
            Response::Pong
        }
        Request::Query(text) => {
            s.engine.obs().add(Metric::QueryRequests, 1);
            // The server owns the whole-request trace so the span tree
            // covers parse as well as the engine's plan/cache/eval
            // stages (query_traced records into the same builder).
            let obs = s.engine.obs();
            let mut trace = obs.begin(TraceKind::Query);
            // One snapshot for parse + evaluation: the answer's epoch is
            // exactly the version the label names were resolved against.
            let snap = s.engine.snapshot();
            let parse_timer = obs.timer();
            let parsed = parse_cpq(&text, snap.graph());
            obs.stage(Stage::Parse, parse_timer, trace.as_mut());
            let resp = match parsed {
                Ok(q) => {
                    let pairs = s.engine.query_traced(&snap, &q, trace.as_mut());
                    Response::Result { epoch: snap.epoch(), pairs: (*pairs).clone() }
                }
                Err(e) => Response::Error(WireError::from(e)),
            };
            if let Some(tb) = trace {
                obs.finish(tb);
            }
            resp
        }
        Request::Batch(texts) => {
            s.engine.obs().add(Metric::BatchRequests, 1);
            let snap = s.engine.snapshot();
            let mut queries = Vec::with_capacity(texts.len());
            for (i, text) in texts.iter().enumerate() {
                match parse_cpq(text, snap.graph()) {
                    Ok(q) => queries.push(q),
                    Err(e) => {
                        let mut w = WireError::from(e);
                        w.message = format!("batch query {i}: {}", w.message);
                        return Response::Error(w);
                    }
                }
            }
            let opts = BatchOptions { threads: s.opts.batch_threads, ..BatchOptions::default() };
            let out = s.engine.evaluate_batch_on(&snap, &queries, opts);
            Response::BatchResult {
                epoch: out.epoch,
                results: out.results.iter().map(|r| (**r).clone()).collect(),
            }
        }
        Request::Update { insert, src, dst, label } => {
            s.engine.obs().add(Metric::UpdateRequests, 1);
            // The legacy opaque form is one op of the typed delta path.
            let op = if insert {
                WireOp::InsertEdge { src, dst, label }
            } else {
                WireOp::DeleteEdge { src, dst, label }
            };
            match apply_wire_delta(s, &[op]) {
                // The ack epoch was determined under the engine's writer
                // lock — re-reading `engine.epoch()` here could see a
                // later concurrent writer's install.
                Ok(report) => {
                    Response::UpdateAck { applied: report.applied > 0, epoch: report.epoch }
                }
                Err(e) => Response::Error(e),
            }
        }
        Request::Delta(ops) => {
            s.engine.obs().add(Metric::DeltaRequests, 1);
            match apply_wire_delta(s, &ops) {
                Ok(report) => Response::DeltaAck {
                    epoch: report.epoch,
                    rebuilt: report.rebuilt,
                    outcomes: report.outcomes.iter().map(wire_outcome).collect(),
                },
                Err(e) => Response::Error(e),
            }
        }
        Request::Stats => {
            s.engine.obs().add(Metric::StatsRequests, 1);
            let t0 = s.engine.obs().timer();
            let resp = Response::Stats(Box::new(stats_report(s)));
            if let Some(t0) = t0 {
                s.engine.obs().record_op(ObsOp::Stats, t0.elapsed());
            }
            resp
        }
        Request::Metrics => {
            s.engine.obs().add(Metric::MetricsRequests, 1);
            let t0 = s.engine.obs().timer();
            let resp = Response::Metrics(Box::new(metrics_report(s)));
            // This request's own latency lands in the *next* report —
            // the snapshot above must not be mutated after it is taken.
            if let Some(t0) = t0 {
                s.engine.obs().record_op(ObsOp::Metrics, t0.elapsed());
            }
            resp
        }
    }
}

/// Resolves wire ops against the current snapshot's label table and
/// applies them as one atomic engine transaction. Unknown labels,
/// over-long interests and engine-side rejections (e.g. out-of-range
/// vertices) all come back as [`ErrorCode::BadUpdate`] error frames
/// naming the offending op; nothing is applied in that case.
fn apply_wire_delta(s: &Shared, ops: &[WireOp]) -> Result<cpqx_engine::DeltaReport, WireError> {
    // Label ids are append-only, so resolving against the snapshot
    // current *now* stays valid when the engine applies the delta to a
    // possibly newer clone under its writer lock.
    let snap = s.engine.snapshot();
    let delta = resolve_ops(snap.graph(), ops)?;
    s.engine.apply_delta(&delta).map_err(|e| {
        WireError::new(ErrorCode::BadUpdate, format!("delta op {}: {}", e.op_index, e.reason))
    })
}

fn resolve_ops(g: &Graph, ops: &[WireOp]) -> Result<Delta, WireError> {
    let label = |name: &str, i: usize| -> Result<Label, WireError> {
        g.label_named(name).ok_or_else(|| {
            WireError::new(ErrorCode::BadUpdate, format!("delta op {i}: unknown label {name:?}"))
        })
    };
    let seq = |steps: &[WireSeqLabel], i: usize| -> Result<LabelSeq, WireError> {
        steps
            .iter()
            .map(|s| label(&s.label, i).map(|l| if s.inverse { l.inv() } else { l.fwd() }))
            .collect::<Result<Vec<_>, _>>()
            .map(|ls| LabelSeq::from_slice(&ls))
    };
    // Vertex ids are pre-validated here, against the snapshot's count
    // plus any preceding in-delta AddVertex ops, so a delta that can
    // only be rejected never reaches the engine's writer lock (where
    // rejection would cost a full graph + index clone). Ids only grow,
    // so passing here never turns into a spurious engine-side panic —
    // the engine still re-validates against the clone it mutates.
    let check = |v: u32, bound: u32, i: usize| -> Result<u32, WireError> {
        if v < bound {
            Ok(v)
        } else {
            Err(WireError::new(
                ErrorCode::BadUpdate,
                format!("delta op {i}: vertex {v} out of range (graph has {bound})"),
            ))
        }
    };
    let mut vertices = g.vertex_count();
    let mut resolved = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        resolved.push(match op {
            WireOp::InsertEdge { src, dst, label: l } => DeltaOp::InsertEdge {
                src: check(*src, vertices, i)?,
                dst: check(*dst, vertices, i)?,
                label: label(l, i)?,
            },
            WireOp::DeleteEdge { src, dst, label: l } => DeltaOp::DeleteEdge {
                src: check(*src, vertices, i)?,
                dst: check(*dst, vertices, i)?,
                label: label(l, i)?,
            },
            WireOp::ChangeEdgeLabel { src, dst, from, to } => DeltaOp::ChangeEdgeLabel {
                src: check(*src, vertices, i)?,
                dst: check(*dst, vertices, i)?,
                from: label(from, i)?,
                to: label(to, i)?,
            },
            WireOp::AddVertex { name } => {
                vertices += 1;
                DeltaOp::AddVertex { name: name.clone() }
            }
            WireOp::DeleteVertex { vertex } => {
                DeltaOp::DeleteVertex { vertex: check(*vertex, vertices, i)? }
            }
            WireOp::InsertInterest { seq: s } => DeltaOp::InsertInterest { seq: seq(s, i)? },
            WireOp::DeleteInterest { seq: s } => DeltaOp::DeleteInterest { seq: seq(s, i)? },
        });
    }
    Ok(Delta::from(resolved))
}

fn wire_outcome(o: &OpOutcome) -> WireOutcome {
    match o {
        OpOutcome::Applied => WireOutcome::Applied,
        OpOutcome::Noop => WireOutcome::Noop,
        OpOutcome::VertexAdded(v) => WireOutcome::VertexAdded(*v),
    }
}

/// The STATS view: registry values plus the derived slots, in
/// [`crate::proto::STATS_LAYOUT`] order.
fn stats_report(s: &Shared) -> WireStats {
    // `Engine::stats` pins the snapshot before the registry is read, so
    // the gauges never describe a newer snapshot than the counters.
    let engine = s.engine.stats();
    let obs = s.engine.obs();
    let us = |d: Duration| d.as_micros().min(u64::MAX as u128) as u64;
    WireStats::from_fn(|field| match field {
        StatsField::Epoch => s.engine.epoch(),
        StatsField::Metric(m) => obs.value(m),
        StatsField::ClassSlots => engine.class_slots,
        StatsField::BaselineClasses => engine.baseline_classes,
        StatsField::P50Us => us(engine.p50),
        StatsField::P99Us => us(engine.p99),
    })
}

/// The METRICS view: non-empty histograms, every registry value, the
/// slow-query ring and the workload table.
fn metrics_report(s: &Shared) -> WireMetrics {
    let obs = s.engine.obs();
    // Empty histograms are omitted: the common deployment exercises a
    // handful of opcodes/stages, and the sparse form keeps the frame
    // proportional to actual traffic.
    let ops = ObsOp::ALL.into_iter().map(|op| (op, obs.op_snapshot(op)));
    let stages = Stage::ALL.into_iter().map(|stage| (stage, obs.stage_snapshot(stage)));
    WireMetrics {
        epoch: s.engine.epoch(),
        ops: ops.filter(|(_, h)| h.count() > 0).collect(),
        stages: stages.filter(|(_, h)| h.count() > 0).collect(),
        counters: Metric::ALL
            .into_iter()
            .map(|m| WireSample { name: m.name().to_string(), kind: m.kind(), value: obs.value(m) })
            .collect(),
        slow: obs.slow_queries(),
        workload: obs.workload_counts(),
    }
}
