//! Scaling harness for the event-driven core: a horde of idle
//! connections far exceeding the worker count must coexist with active
//! clients that are still answered promptly, correctly, and in order.
//!
//! The connection budget comes from `CPQX_SCALE_CONNS` (default 1000).
//! On hosts whose fd limit cannot carry the budget, the test degrades
//! to an explicit skip instead of a spurious failure — CI sets the
//! budget; laptops with tight ulimits just see the skip line.

use cpqx_engine::{Engine, EngineOptions, Metric, Snapshot};
use cpqx_graph::generate::{self, sample_edges, RandomGraphConfig};
use cpqx_graph::Pair;
use cpqx_net::proto::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};
use cpqx_net::{Client, Server, ServerOptions};
use cpqx_query::workload::{GraphProbe, WorkloadGen};
use cpqx_query::{parse_cpq, Cpq, Template};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ACTIVE_CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 20;
const WRITER_ROUNDS: u64 = 4;
const READ_TIMEOUT: Duration = Duration::from_secs(30);

fn conn_budget() -> usize {
    std::env::var("CPQX_SCALE_CONNS").ok().and_then(|v| v.parse().ok()).unwrap_or(1000)
}

/// Opens one connection and completes the handshake, or reports why it
/// could not.
fn handshaken(addr: std::net::SocketAddr) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    write_frame(&mut stream, &encode_request(&Request::Hello { version: PROTOCOL_VERSION }))
        .map_err(std::io::Error::other)?;
    let ack = read_frame(&mut stream, DEFAULT_MAX_FRAME).map_err(std::io::Error::other)?;
    match decode_response(&ack) {
        Ok(Response::HelloAck { .. }) => Ok(stream),
        other => Err(std::io::Error::other(format!("expected HELLO_ACK, got {other:?}"))),
    }
}

#[test]
fn idle_horde_does_not_starve_active_clients() {
    let budget = conn_budget();
    let g = generate::random_graph(&RandomGraphConfig::social(150, 700, 3, 17));
    let probe_graph = g.clone();
    let (engine, _) = Engine::with_options(g, EngineOptions { k: 2, ..Default::default() });
    let engine = Arc::new(engine);
    // Two workers against `budget` idle connections: with the old
    // thread-per-connection core this configuration deadlocks the
    // active clients behind parked reads; the event loop must not care.
    let server = Server::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerOptions {
            workers: 2,
            max_connections: budget + 64,
            read_timeout: Some(READ_TIMEOUT),
            write_timeout: Some(READ_TIMEOUT),
            ..ServerOptions::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    // Phase 1: the idle horde. Every connection handshakes, then goes
    // silent. Resource exhaustion (EMFILE and friends) downgrades to an
    // explicit skip — the harness proves scheduling, not ulimits.
    let mut horde: Vec<TcpStream> = Vec::with_capacity(budget);
    for _ in 0..budget {
        match handshaken(addr) {
            Ok(stream) => horde.push(stream),
            Err(e) => {
                eprintln!(
                    "cpqx-net scale: SKIPPED — opened {}/{budget} connections ({e}); \
                     raise the fd limit or lower CPQX_SCALE_CONNS",
                    horde.len()
                );
                return;
            }
        }
    }
    let open = server.engine().obs().value(Metric::OpenConnections);
    assert!(open >= budget as u64, "gauge says {open} open, expected ≥ {budget}");

    // Phase 2: active clients query (and one writes) through the horde.
    // Every answer must match sequential evaluation on the snapshot of
    // the epoch it reports, and the whole active workload must finish
    // well inside the read timeout — idle connections cost the loop
    // nothing after registration.
    let probe = GraphProbe(&probe_graph);
    let mut gen = WorkloadGen::new(&probe_graph, 23);
    let workload: Vec<(String, Cpq)> = Template::ALL
        .iter()
        .flat_map(|&t| gen.queries(t, 2, &probe))
        .map(|q| (q.to_text(&probe_graph), q))
        .collect();
    assert!(workload.len() >= 8, "workload too small");

    let snapshots: Mutex<HashMap<u64, Arc<Snapshot>>> = Mutex::new(HashMap::new());
    snapshots.lock().unwrap().insert(engine.epoch(), engine.snapshot());

    let t0 = Instant::now();
    type Served = (usize, u64, Vec<Pair>);
    let observations: Vec<Vec<Served>> = std::thread::scope(|scope| {
        let workload = &workload;
        let snapshots = &snapshots;
        let engine = &engine;

        let writer = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("writer connects");
            for round in 0..WRITER_ROUNDS {
                let snap = engine.snapshot();
                let (v, u, l) = sample_edges(snap.graph(), 1, round)[0];
                let name = snap.graph().label_name(l).to_string();
                let ack = client.delete_edge(v, u, &name).expect("wire delete");
                if ack.applied {
                    let now = engine.snapshot();
                    assert_eq!(now.epoch(), ack.epoch, "sole writer: ack epoch is current");
                    snapshots.lock().unwrap().insert(ack.epoch, now);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        let readers: Vec<_> = (0..ACTIVE_CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("active client connects");
                    let mut served: Vec<Served> = Vec::new();
                    for j in 0..QUERIES_PER_CLIENT {
                        let at = (c * 7 + j * 3) % workload.len();
                        let reply = client.query(&workload[at].0).expect("wire query");
                        served.push((at, reply.epoch, reply.pairs));
                    }
                    served
                })
            })
            .collect();

        writer.join().expect("writer thread");
        readers.into_iter().map(|r| r.join().expect("active client")).collect()
    });
    let active_elapsed = t0.elapsed();
    assert!(
        active_elapsed < READ_TIMEOUT,
        "active clients took {active_elapsed:?} behind {budget} idle connections"
    );

    // Differential check: every answer equals sequential evaluation on
    // the snapshot of its reported epoch.
    let snapshots = snapshots.into_inner().unwrap();
    let mut checked = 0usize;
    for served in &observations {
        for (at, epoch, pairs) in served {
            let snap = snapshots
                .get(epoch)
                .unwrap_or_else(|| panic!("answer reports unknown epoch {epoch}"));
            let (text, q) = &workload[*at];
            assert_eq!(&snap.evaluate(q), pairs, "torn read for {text:?} at epoch {epoch}");
            checked += 1;
        }
    }
    assert_eq!(checked, ACTIVE_CLIENTS * QUERIES_PER_CLIENT);

    // Phase 3: arrival order survives the horde. One connection
    // pipelines a burst without reading, then collects: responses come
    // back in exactly the order requests went out.
    let mut pipelined = handshaken(addr).expect("pipelining connection");
    let snap = engine.snapshot();
    let burst: Vec<&(String, Cpq)> = (0..6).map(|i| &workload[(i * 5) % workload.len()]).collect();
    for (text, _) in &burst {
        write_frame(&mut pipelined, &encode_request(&Request::Query(text.clone()))).unwrap();
    }
    write_frame(&mut pipelined, &encode_request(&Request::Ping)).unwrap();
    for (text, _) in &burst {
        let payload = read_frame(&mut pipelined, DEFAULT_MAX_FRAME).unwrap();
        match decode_response(&payload).unwrap() {
            Response::Result { pairs, .. } => {
                let q = parse_cpq(text, snap.graph()).unwrap();
                assert_eq!(pairs, snap.evaluate(&q), "pipelined answer for {text:?}");
            }
            other => panic!("expected RESULT for {text:?}, got {other:?}"),
        }
    }
    let pong = read_frame(&mut pipelined, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(decode_response(&pong).unwrap(), Response::Pong));

    // Phase 4: the horde is still alive — sampled members answer PING
    // (the loop never traded idle connections for active throughput).
    for stream in horde.iter_mut().step_by((budget / 10).max(1)) {
        write_frame(stream, &encode_request(&Request::Ping)).unwrap();
        let payload = read_frame(stream, DEFAULT_MAX_FRAME).unwrap();
        assert!(matches!(decode_response(&payload).unwrap(), Response::Pong));
    }

    // Phase 5: shutdown with the horde still connected stays prompt —
    // the loop explicitly shuts every socket down on its way out.
    let t1 = Instant::now();
    server.shutdown();
    assert!(t1.elapsed() < Duration::from_secs(10), "shutdown took {:?}", t1.elapsed());
}
