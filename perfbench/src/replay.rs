//! The in-process replay behind the traced run. It sends a fixed,
//! seeded prefix of the workload's request sequence through the same
//! public functions the server's dispatcher calls, in the same order:
//!
//! * read: `proto::decode_request` → `Engine::snapshot` → `parse_cpq`
//!   → `Engine::query_on` → `proto::encode_response`;
//! * write: `proto::decode_request` → `Engine::snapshot` → label
//!   resolution → `Engine::apply_delta` (the store calls inside it are
//!   timed by [`crate::sink::BenchSink`]) → `proto::encode_response`.
//!
//! The untraced pass runs exactly these calls, timing each request as a
//! whole. The traced pass wraps each call in a span and afterwards
//! re-runs, as marked children, the lower-layer functions hidden inside
//! `query_on` (`canonicalize` + `cache_key`; on a result-cache miss
//! `optimize_query_costed` when the plan cache missed too, and
//! `Executor::run_explained`) and inside `apply_delta` (a `Graph` +
//! `CpqxIndex` clone, `apply_ops` on that throwaway clone).

use crate::spans::{names, within, Tracer};
use crate::workloads::{Inputs, Kind, Workload};
use cpqx_core::exec::ExecStats;
use cpqx_core::{optimize_query_costed, Executor};
use cpqx_engine::delta::{apply_ops, Delta, DeltaOp, OpOutcome};
use cpqx_engine::Engine;
use cpqx_graph::Label;
use cpqx_net::proto::{decode_request, encode_request, encode_response};
use cpqx_net::{Request, Response, WireOp, WireOutcome};
use cpqx_obs::Stage;
use cpqx_query::{cache_key, canonicalize, parse_cpq};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Reads replayed per workload.
const HOT_READS: usize = 20_000;
const COLD_READS: usize = 1_200;
/// `mixed_write`: transactions replayed, each after this many reads.
const MIXED_WRITES: usize = 100;
const READS_PER_WRITE: usize = 20;

/// One request of the replayed sequence.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    Read(usize),
    Write(usize),
}

/// The replayed prefix of the workload's sequence: the hot readers'
/// streams interleaved, the cold list from the readers' start, or the mixed reader's
/// stream with a write after every [`READS_PER_WRITE`] reads.
pub fn sequence(w: &Workload, inputs: &Inputs, seed: u64) -> Vec<Step> {
    match w.kind {
        Kind::HotRead => {
            let mut streams: Vec<_> = (0..2).map(|c| inputs.hot_stream(seed, c)).collect();
            (0..HOT_READS).map(|i| Step::Read(streams[i % 2]())).collect()
        }
        Kind::ColdRead => {
            let n = inputs.queries.len();
            (0..COLD_READS.min(n)).map(|i| Step::Read((inputs.cold_start + i) % n)).collect()
        }
        Kind::MixedWrite => {
            let mut stream = inputs.hot_stream(seed, 0);
            let writes = MIXED_WRITES.min(inputs.deltas.len());
            (0..writes)
                .flat_map(|i| {
                    let reads: Vec<Step> =
                        (0..READS_PER_WRITE).map(|_| Step::Read(stream())).collect();
                    reads.into_iter().chain([Step::Write(i)])
                })
                .collect()
        }
    }
}

/// Encoded request frames for `steps` (the client side: not timed).
pub fn payloads(inputs: &Inputs, steps: &[Step]) -> Vec<Vec<u8>> {
    steps
        .iter()
        .map(|s| match *s {
            Step::Read(q) => encode_request(&Request::Query(inputs.queries[q].text.clone())),
            Step::Write(d) => encode_request(&Request::Delta(inputs.deltas[d].clone())),
        })
        .collect()
}

/// Deterministic totals of the traced pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub reads: u64,
    pub writes: u64,
    /// Reads that missed the result cache (and so reached `core`).
    pub executed: u64,
    pub answers_executed: u64,
    pub reply_bytes: u64,
    pub exec: ExecStats,
}

/// Serves `steps` without spans; returns each request's wall time in ns.
pub fn run_untraced(
    engine: &Engine,
    steps: &[Step],
    payloads: &[Vec<u8>],
) -> Result<Vec<u64>, String> {
    let mut per_req = Vec::with_capacity(payloads.len());
    for (&step, p) in steps.iter().zip(payloads) {
        let t0 = Instant::now();
        serve_one(engine, step, p, None)?;
        per_req.push(t0.elapsed().as_nanos() as u64);
    }
    Ok(per_req)
}

/// Serves `steps` with spans into `tracer`.
pub fn run_traced(
    engine: &Engine,
    steps: &[Step],
    payloads: &[Vec<u8>],
    tracer: &Arc<Mutex<Tracer>>,
) -> Result<Totals, String> {
    let mut totals = Totals::default();
    let plan_stage = || engine.obs().stage_snapshot(Stage::Plan).count();
    let mut plan_misses = engine.reservoir_report().plan_misses;
    for (req, (&step, p)) in steps.iter().zip(payloads).enumerate() {
        tracer.lock().expect("tracer lock poisoned").req = req as u32;
        let plans_before = plan_stage();
        let done = serve_one(engine, step, p, Some(tracer))?;
        match done {
            Done::Read { snap, query, query_on, reply_bytes, answers } => {
                totals.reads += 1;
                totals.reply_bytes += reply_bytes;
                // The engine records a Plan stage exactly when the
                // result cache misses; plan counters move only then.
                let result_miss = plan_stage() > plans_before;
                let plan_miss = result_miss && {
                    let now = engine.reservoir_report().plan_misses;
                    let missed = now > plan_misses;
                    plan_misses = now;
                    missed
                };
                let canonical = marked(tracer, query_on, names::CANONICAL, || {
                    let c = canonicalize(&query);
                    let key = cache_key(&c);
                    (c, key)
                });
                if result_miss {
                    let (c, key) = canonical;
                    let plan = if plan_miss {
                        marked(tracer, query_on, names::PLAN, || {
                            optimize_query_costed(snap.index(), snap.graph(), &c).0
                        })
                    } else {
                        snap.plan_for(&key, &c).0.plan.clone()
                    };
                    let exec = engine.options().exec;
                    let (pairs, stats) = marked(tracer, query_on, names::EXEC, || {
                        Executor::with_options(snap.index(), snap.graph(), exec)
                            .run_explained(&plan)
                    });
                    if pairs.len() as u64 != answers {
                        return Err(format!(
                            "request {req}: run_explained gave {} pairs, query_on {answers}",
                            pairs.len()
                        ));
                    }
                    totals.executed += 1;
                    totals.answers_executed += answers;
                    add_stats(&mut totals.exec, &stats);
                }
            }
            Done::Write { snap, ops, apply } => {
                totals.writes += 1;
                let (mut g, mut idx) = marked(tracer, apply, names::CLONE, || {
                    (snap.graph().clone(), snap.index().clone())
                });
                marked(tracer, apply, names::MAINTAIN, || apply_ops(&mut g, &mut idx, &ops))
                    .map_err(|e| format!("request {req}: apply_ops: {}", e.reason))?;
            }
        }
    }
    Ok(totals)
}

fn add_stats(acc: &mut ExecStats, s: &ExecStats) {
    acc.lookups += s.lookups;
    acc.classes_touched += s.classes_touched;
    acc.pairs_materialized += s.pairs_materialized;
    acc.class_conjunctions += s.class_conjunctions;
    acc.pair_intersections += s.pair_intersections;
    acc.joins += s.joins;
    acc.csr_joins += s.csr_joins;
}

/// Runs `f` as a marked child of span `parent`.
fn marked<T>(tracer: &Mutex<Tracer>, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
    within(tracer, Some(parent), name, true, f).0
}

/// What one served request leaves for its marked children.
enum Done {
    Read {
        snap: Arc<cpqx_engine::Snapshot>,
        query: cpqx_query::Cpq,
        query_on: u32,
        reply_bytes: u64,
        answers: u64,
    },
    Write {
        snap: Arc<cpqx_engine::Snapshot>,
        ops: Vec<DeltaOp>,
        apply: u32,
    },
}

/// Spans around the calls of one request, when tracing.
struct Scope<'t> {
    tracer: Option<&'t Mutex<Tracer>>,
}

impl Scope<'_> {
    /// Runs `f` in a span under the request's root (spans the
    /// durability wrapper opens meanwhile become its children); returns
    /// the output and the span id (0 untraced).
    fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, u32) {
        match self.tracer {
            Some(t) => within(t, None, name, false, f),
            None => (f(), 0),
        }
    }
}

/// Serves one request frame the way the server's dispatcher does.
fn serve_one(
    engine: &Engine,
    step: Step,
    payload: &[u8],
    tracer: Option<&Mutex<Tracer>>,
) -> Result<Done, String> {
    let root_name = match step {
        Step::Read(_) => names::READ,
        Step::Write(_) => names::WRITE,
    };
    let root = tracer
        .map_or(0, |t| t.lock().expect("tracer lock poisoned").open(Some(0), root_name, false));
    let scope = Scope { tracer };
    let (decoded, _) = scope.call(names::DECODE, || decode_request(payload));
    let (snap, _) = scope.call(names::SNAPSHOT, || engine.snapshot());
    let done = match decoded.map_err(|e| format!("decode: {e:?}"))? {
        Request::Query(text) => {
            let (parsed, _) = scope.call(names::PARSE, || parse_cpq(&text, snap.graph()));
            let query = parsed.map_err(|e| format!("parse {text:?}: {e}"))?;
            let (pairs, query_on) = scope.call(names::QUERY_ON, || engine.query_on(&snap, &query));
            let (frame, _) = scope.call(names::ENCODE, || {
                encode_response(&Response::Result { epoch: snap.epoch(), pairs: (*pairs).clone() })
            });
            let answers = pairs.len() as u64;
            Done::Read { snap, query, query_on, reply_bytes: frame.len() as u64, answers }
        }
        Request::Delta(wire) => {
            let (resolved, _) = scope.call(names::RESOLVE, || resolve(snap.graph(), &wire));
            let delta = resolved?;
            let (report, apply) = scope.call(names::APPLY_DELTA, || engine.apply_delta(&delta));
            let report =
                report.map_err(|e| format!("apply_delta: op {}: {}", e.op_index, e.reason))?;
            if report.applied != wire.len() {
                return Err(format!("delta applied {} of {} ops", report.applied, wire.len()));
            }
            scope.call(names::ENCODE, || {
                encode_response(&Response::DeltaAck {
                    epoch: report.epoch,
                    rebuilt: report.rebuilt,
                    outcomes: report.outcomes.iter().map(wire_outcome).collect(),
                })
            });
            Done::Write { snap, ops: delta.ops().to_vec(), apply }
        }
        other => return Err(format!("unexpected request {other:?}")),
    };
    if let Some(t) = tracer {
        t.lock().expect("tracer lock poisoned").close(root);
    }
    Ok(done)
}

/// Wire ops → typed delta, by label name against the current snapshot
/// (the server's dispatcher does the same before `apply_delta`).
fn resolve(g: &cpqx_graph::Graph, ops: &[WireOp]) -> Result<Delta, String> {
    let label = |name: &str| -> Result<Label, String> {
        g.label_named(name).ok_or_else(|| format!("unknown label {name:?}"))
    };
    ops.iter()
        .map(|op| match op {
            WireOp::InsertEdge { src, dst, label: l } => {
                Ok(DeltaOp::InsertEdge { src: *src, dst: *dst, label: label(l)? })
            }
            WireOp::DeleteEdge { src, dst, label: l } => {
                Ok(DeltaOp::DeleteEdge { src: *src, dst: *dst, label: label(l)? })
            }
            other => Err(format!("the benchmark sends no {other:?}")),
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Delta::from)
}

fn wire_outcome(o: &OpOutcome) -> WireOutcome {
    match o {
        OpOutcome::Applied => WireOutcome::Applied,
        OpOutcome::Noop => WireOutcome::Noop,
        OpOutcome::VertexAdded(v) => WireOutcome::VertexAdded(*v),
    }
}
