//! The loopback load generator: closed-loop readers (the blocking
//! `Client` keeps one request outstanding) and, for `mixed_write`, one
//! open-loop writer sending a DELTA every 1/rate seconds, each timed
//! from the moment it was due.

use crate::util::{answer_hash, quantile_sorted, threads_cpu_ns};
use crate::workloads::{Inputs, Kind, Workload, EDGES_PER_DELTA, WRITES_PER_SECOND};
use cpqx_net::{Client, WireOutcome};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Latency recorded for a failed op: slower than any percentile.
pub const FAILED: u64 = u64::MAX;

/// (query index, answer length, answer hash) → reads that returned it.
pub type Answers = HashMap<(u32, u64, u64), u64>;

#[derive(Default)]
pub struct ReadOut {
    /// Per read, ns (`FAILED` for failed reads).
    pub lat_ns: Vec<u64>,
    /// Per read, when it completed, in ns since the start of timing.
    pub done_ns: Vec<u64>,
    /// Per read, the window it belongs to (see [`windows`]).
    pub window: Vec<u32>,
    pub answers: Answers,
    pub failed: u64,
}

#[derive(Default)]
pub struct WriteOut {
    /// Per write, ms from its due time to its ack (`f64::INFINITY` when
    /// it failed).
    pub lat_ms: Vec<f64>,
    /// Per write, ms the generator sent it after its due time.
    pub late_ms: Vec<f64>,
    pub failed: u64,
    /// Acks that did not report every op applied.
    pub bad_acks: u64,
}

pub struct LoadOut {
    pub reads: ReadOut,
    pub writes: WriteOut,
    /// CPU time the server's threads (event loop and workers) used
    /// during the timed phase, in ns.
    pub server_cpu_ns: u64,
}

/// Thread-name prefix of the server's event loop and workers.
const SERVER_THREADS: &str = "cpqx-net-";

/// How a reader picks its next query, and when it stops.
enum Source<'a> {
    /// A hot stream, read until the deadline (or, with a writer, until
    /// the writer is done).
    Stream(Box<dyn FnMut() -> usize + 'a>),
    /// The cold list, shared by the readers through `next`, read in
    /// whole passes: once the deadline has passed, the readers finish
    /// the current pass (`limit` is where it ends).
    List { next: &'a AtomicUsize, limit: &'a AtomicUsize },
}

/// Runs the workload's timed phase against `addr` for `seconds`
/// (`cold_read`: to the end of the pass running at the deadline;
/// `mixed_write`: until the writer has sent its fixed schedule).
pub fn run(w: &Workload, inputs: &Inputs, addr: SocketAddr, seed: u64, seconds: u64) -> LoadOut {
    let writer_done = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let limit = AtomicUsize::new(usize::MAX);
    let mut clients: Vec<Option<Client>> =
        (0..w.readers).map(|_| Client::connect(addr).ok()).collect();
    let writer = if w.kind == Kind::MixedWrite { Some(Client::connect(addr).ok()) } else { None };
    let cpu0 = threads_cpu_ns(SERVER_THREADS);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let (read_outs, writes) = std::thread::scope(|scope| {
        let readers: Vec<_> = clients
            .drain(..)
            .enumerate()
            .map(|(c, client)| {
                let (writer_done, next, limit) = (&writer_done, &next, &limit);
                scope.spawn(move || {
                    let source = match w.kind {
                        Kind::ColdRead => Source::List { next, limit },
                        _ => Source::Stream(Box::new(inputs.hot_stream(seed, c as u64))),
                    };
                    let stop = || match w.kind {
                        Kind::MixedWrite => writer_done.load(Ordering::Acquire),
                        _ => Instant::now() >= deadline,
                    };
                    read_loop(addr, client, inputs, source, stop, start)
                })
            })
            .collect();
        let writes = writer.map(|client| {
            let out = write_loop(addr, client, inputs, start);
            // Release pairs with the readers' Acquire: they stop after
            // the last write's outcome is final.
            writer_done.store(true, Ordering::Release);
            out
        });
        let outs: Vec<ReadOut> =
            readers.into_iter().map(|h| h.join().expect("reader thread panicked")).collect();
        (outs, writes.unwrap_or_default())
    });
    let server_cpu_ns = threads_cpu_ns(SERVER_THREADS).saturating_sub(cpu0);
    let mut reads = ReadOut::default();
    for r in read_outs {
        reads.lat_ns.extend(r.lat_ns);
        reads.done_ns.extend(r.done_ns);
        reads.window.extend(r.window);
        reads.failed += r.failed;
        for (k, n) in r.answers {
            *reads.answers.entry(k).or_default() += n;
        }
    }
    LoadOut { reads, writes, server_cpu_ns }
}

fn read_loop(
    addr: SocketAddr,
    mut client: Option<Client>,
    inputs: &Inputs,
    mut source: Source<'_>,
    stop: impl Fn() -> bool,
    start: Instant,
) -> ReadOut {
    let len = inputs.queries.len();
    let mut out = ReadOut::default();
    loop {
        let (qid, pass) = match &mut source {
            Source::Stream(next) => {
                if stop() {
                    break;
                }
                (next(), None)
            }
            Source::List { next, limit } => {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if stop() {
                    limit.fetch_min(i.div_ceil(len) * len, Ordering::Relaxed);
                }
                if i >= limit.load(Ordering::Relaxed) {
                    break;
                }
                ((inputs.cold_start + i) % len, Some((i / len) as u32))
            }
        };
        let t0 = Instant::now();
        let reply = match client.as_mut() {
            Some(c) => c.query(&inputs.queries[qid].text).map_err(|e| e.to_string()),
            None => Err("not connected".to_string()),
        };
        let done = Instant::now();
        let done_ns = done.duration_since(start).as_nanos() as u64;
        out.done_ns.push(done_ns);
        out.window.push(pass.unwrap_or((done_ns / 1_000_000_000) as u32));
        match reply {
            Ok(r) => {
                out.lat_ns.push(done.duration_since(t0).as_nanos() as u64);
                let key = (qid as u32, r.pairs.len() as u64, answer_hash(&r.pairs));
                *out.answers.entry(key).or_default() += 1;
            }
            Err(_) => {
                out.lat_ns.push(FAILED);
                out.failed += 1;
                // The stream may be desynchronized: start afresh.
                client = Client::connect(addr).ok();
            }
        }
    }
    out
}

/// Read figures of one window.
pub struct Window {
    pub reads: usize,
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Splits the timed reads into windows and measures each. `cold_read`'s
/// windows are its passes over the list, so each holds every query once
/// (a pass ends when its last read completes; the next starts there).
/// The other workloads' windows are the whole seconds of the timed
/// phase; reads completing after it are left out.
pub fn windows(w: &Workload, reads: &ReadOut, seconds: u64) -> Vec<Window> {
    let count = match w.kind {
        Kind::ColdRead => reads.window.iter().max().map_or(0, |&p| p as usize + 1),
        _ => seconds as usize,
    };
    let mut lat: Vec<Vec<u64>> = vec![Vec::new(); count];
    let mut end_ns = vec![0u64; count];
    for ((&win, &l), &done) in reads.window.iter().zip(&reads.lat_ns).zip(&reads.done_ns) {
        if let Some(v) = lat.get_mut(win as usize) {
            v.push(l);
            end_ns[win as usize] = end_ns[win as usize].max(done);
        }
    }
    let mut begin_ns = 0;
    lat.into_iter()
        .enumerate()
        .map(|(i, mut v)| {
            let span_s = match w.kind {
                Kind::ColdRead => {
                    let span = end_ns[i].saturating_sub(begin_ns);
                    begin_ns = end_ns[i];
                    span as f64 / 1e9
                }
                _ => 1.0,
            };
            v.sort_unstable();
            let ok = v.iter().filter(|&&l| l != FAILED).count();
            let p = |q: f64| quantile_sorted(&v, q).map_or(0.0, |ns| ns as f64 / 1e3);
            Window { reads: v.len(), qps: ok as f64 / span_s, p50_us: p(0.5), p99_us: p(0.99) }
        })
        .collect()
}

fn write_loop(
    addr: SocketAddr,
    mut client: Option<Client>,
    inputs: &Inputs,
    start: Instant,
) -> WriteOut {
    let mut out = WriteOut::default();
    let period = Duration::from_nanos(1_000_000_000 / WRITES_PER_SECOND);
    for (i, ops) in inputs.deltas.iter().enumerate() {
        let due = start + period * i as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        out.late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let reply = match client.as_mut() {
            Some(c) => c.apply_delta(ops.clone()).map_err(|e| e.to_string()),
            None => Err("not connected".to_string()),
        };
        match reply {
            Ok(ack) => {
                out.lat_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let all_applied = ack.outcomes.len() == 2 * EDGES_PER_DELTA
                    && ack.outcomes.iter().all(|o| *o == WireOutcome::Applied);
                if !all_applied {
                    out.bad_acks += 1;
                }
            }
            Err(_) => {
                out.lat_ms.push(f64::INFINITY);
                out.failed += 1;
                client = Client::connect(addr).ok();
            }
        }
    }
    out
}
