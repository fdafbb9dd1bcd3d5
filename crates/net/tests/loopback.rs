//! Loopback integration tests: a live TCP server under concurrent
//! clients and wire-driven maintenance, verified against sequential
//! engine evaluation on pinned snapshots.

use cpqx_engine::{Engine, EngineOptions, Metric, Snapshot};
use cpqx_graph::generate::{self, sample_edges, RandomGraphConfig};
use cpqx_graph::Pair;
use cpqx_net::proto::{
    decode_response, encode_request, read_frame, write_frame, FrameError, Request, Response,
    DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use cpqx_net::{
    Client, ClientError, ErrorCode, Server, ServerOptions, StatsField, WireOp, WireOutcome,
};
use cpqx_query::workload::{GraphProbe, WorkloadGen};
use cpqx_query::{benchqueries, parse_cpq, Cpq, Template};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A CPQ workload rendered both as text (for the wire) and AST (for the
/// verification oracle).
fn text_workload(g: &cpqx_graph::Graph, per_template: usize) -> Vec<(String, Cpq)> {
    let probe = GraphProbe(g);
    let mut gen = WorkloadGen::new(g, 23);
    Template::ALL
        .iter()
        .flat_map(|&t| gen.queries(t, per_template, &probe))
        .map(|q| (q.to_text(g), q))
        .collect()
}

fn start_server(graph: cpqx_graph::Graph, workers: usize) -> (Arc<Engine>, Server) {
    start_server_with(graph, workers, EngineOptions { k: 2, ..Default::default() })
}

fn start_server_with(
    graph: cpqx_graph::Graph,
    workers: usize,
    opts: EngineOptions,
) -> (Arc<Engine>, Server) {
    let (engine, _) = Engine::with_options(graph, opts);
    let engine = Arc::new(engine);
    let server = Server::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerOptions { workers, ..ServerOptions::default() },
    )
    .expect("bind ephemeral port");
    (engine, server)
}

/// The acceptance scenario: ≥8 concurrent TCP clients query a live
/// server while a writer client applies UPDATE frames over the same
/// wire; every response must match sequential engine evaluation on the
/// snapshot of the epoch it reported — no torn reads — and the server
/// must shut down cleanly afterwards.
#[test]
fn concurrent_clients_with_live_wire_maintenance() {
    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 36;
    const WRITER_ROUNDS: u64 = 8;

    let g = generate::random_graph(&RandomGraphConfig::social(200, 1_000, 4, 11));
    let workload = text_workload(&g, 2);
    assert!(workload.len() >= 12, "workload too small to exercise the server");
    let (engine, server) = start_server(g, CLIENTS + 4);
    let addr = server.local_addr();

    // Oracle: every installed epoch's snapshot, pinned. The writer is
    // the only source of installs, so it can record each one right
    // after its UPDATE is acknowledged.
    let snapshots: Mutex<HashMap<u64, Arc<Snapshot>>> = Mutex::new(HashMap::new());
    snapshots.lock().unwrap().insert(0, engine.snapshot());

    // (workload index, reported epoch, answer) per served query.
    type Served = (usize, u64, Vec<Pair>);

    let observations: Vec<Vec<Served>> = std::thread::scope(|scope| {
        let workload = &workload;
        let snapshots = &snapshots;
        let engine = &engine;

        let writer = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("writer connects");
            let mut applied = 0u64;
            for round in 0..WRITER_ROUNDS {
                let snap = engine.snapshot();
                for (v, u, l) in sample_edges(snap.graph(), 2, round) {
                    let name = snap.graph().label_name(l).to_string();
                    for insert in [false, true] {
                        let ack = if insert {
                            client.insert_edge(v, u, &name).expect("wire insert")
                        } else {
                            client.delete_edge(v, u, &name).expect("wire delete")
                        };
                        if ack.applied {
                            applied += 1;
                            let now = engine.snapshot();
                            assert_eq!(
                                now.epoch(),
                                ack.epoch,
                                "sole writer: ack epoch must be current"
                            );
                            snapshots.lock().unwrap().insert(ack.epoch, now);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(3));
            }
            applied
        });

        let readers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("reader connects");
                    let mut served: Vec<Served> = Vec::new();
                    for j in 0..QUERIES_PER_CLIENT {
                        let at = (c * 7 + j * 3) % workload.len();
                        if j % 6 == 5 {
                            // Exercise BATCH: three queries, one snapshot.
                            let idxs = [at, (at + 1) % workload.len(), (at + 2) % workload.len()];
                            let texts: Vec<&str> =
                                idxs.iter().map(|&i| workload[i].0.as_str()).collect();
                            let reply = client.batch(&texts).expect("wire batch");
                            assert_eq!(reply.results.len(), idxs.len());
                            for (&i, pairs) in idxs.iter().zip(reply.results) {
                                served.push((i, reply.epoch, pairs));
                            }
                        } else {
                            let reply = client.query(&workload[at].0).expect("wire query");
                            served.push((at, reply.epoch, reply.pairs));
                        }
                    }
                    // Keep querying (bounded) until this reader has
                    // witnessed at least one maintenance install, so the
                    // read/write overlap is guaranteed, not probabilistic.
                    let mut extra = 0usize;
                    while served.iter().all(|&(_, epoch, _)| epoch == 0) && extra < 500 {
                        let at = (c + extra) % workload.len();
                        let reply = client.query(&workload[at].0).expect("wire query");
                        served.push((at, reply.epoch, reply.pairs));
                        extra += 1;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    served
                })
            })
            .collect();

        let applied = writer.join().expect("writer thread");
        assert!(applied > 0, "the writer must actually install snapshots");
        readers.into_iter().map(|r| r.join().expect("reader thread")).collect()
    });

    // Verify every wire answer against sequential evaluation on the
    // snapshot of the epoch the server reported.
    let snapshots = snapshots.into_inner().unwrap();
    let mut checked = 0usize;
    let mut epochs_seen: Vec<u64> = Vec::new();
    for served in &observations {
        for (at, epoch, pairs) in served {
            let snap = snapshots
                .get(epoch)
                .unwrap_or_else(|| panic!("answer reports unknown epoch {epoch}"));
            let (text, q) = &workload[*at];
            assert_eq!(&snap.evaluate(q), pairs, "torn read for {text:?} at epoch {epoch}");
            checked += 1;
            epochs_seen.push(*epoch);
        }
    }
    assert!(checked >= CLIENTS * QUERIES_PER_CLIENT, "checked only {checked} answers");
    epochs_seen.sort_unstable();
    epochs_seen.dedup();
    assert!(
        epochs_seen.len() > 1,
        "maintenance must have been visible to readers (saw epochs {epochs_seen:?})"
    );

    let stats = engine.stats();
    assert!(stats.snapshot_swaps > 0);
    server.shutdown();
    // Clean shutdown: the port no longer accepts connections.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "server port must be released after shutdown"
    );
}

/// Typed delta transactions over the wire under concurrent readers,
/// with the engine's fragmentation threshold set low enough that an
/// automatic defragmenting rebuild fires mid-run: readers pinned on the
/// pre-churn epoch stay byte-for-byte consistent, every live answer
/// matches sequential evaluation on the snapshot of the epoch it
/// reports, and per-op DELTA acks carry correct typed outcomes.
#[test]
fn typed_deltas_with_pinned_readers_and_auto_rebuild() {
    const CLIENTS: usize = 4;
    const QUERIES_PER_CLIENT: usize = 24;
    const WRITER_ROUNDS: u64 = 24;

    let g = generate::random_graph(&RandomGraphConfig::social(150, 700, 3, 17));
    let workload = text_workload(&g, 2);
    assert!(workload.len() >= 10);
    let (engine, server) = start_server_with(
        g,
        CLIENTS + 2,
        EngineOptions { k: 2, auto_rebuild_ratio: Some(1.05), ..Default::default() },
    );
    let addr = server.local_addr();

    // The pre-churn snapshot and its answers: the pin readers re-check
    // against these *while* deltas and rebuilds land.
    let snap0 = engine.snapshot();
    let initial: Vec<Vec<Pair>> = workload.iter().map(|(_, q)| snap0.evaluate(q)).collect();

    let snapshots: Mutex<HashMap<u64, Arc<Snapshot>>> = Mutex::new(HashMap::new());
    snapshots.lock().unwrap().insert(0, engine.snapshot());

    type Served = (usize, u64, Vec<Pair>);
    let (observations, rebuilt_over_wire): (Vec<Vec<Served>>, bool) = std::thread::scope(|scope| {
        let workload = &workload;
        let snapshots = &snapshots;
        let engine = &engine;
        let snap0 = &snap0;
        let initial = &initial;

        let writer = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("writer connects");
            let mut rebuilt = false;
            for round in 0..WRITER_ROUNDS {
                let snap = engine.snapshot();
                let name = |l| snap.graph().label_name(l).to_string();
                let victims = sample_edges(snap.graph(), 2, round);
                let (v1, u1, l1) = victims[0];
                let (v2, u2, l2) = victims[1];
                // One multi-op transaction: churn two edges, relabel
                // one, and every few rounds grow the graph by a
                // vertex wired to an existing one *within the same
                // delta* (exercising in-delta id visibility).
                let mut ops = vec![
                    WireOp::DeleteEdge { src: v1, dst: u1, label: name(l1) },
                    WireOp::InsertEdge { src: v1, dst: u1, label: name(l1) },
                    WireOp::ChangeEdgeLabel { src: v2, dst: u2, from: name(l2), to: name(l1) },
                    WireOp::ChangeEdgeLabel { src: v2, dst: u2, from: name(l1), to: name(l2) },
                ];
                if round % 6 == 5 {
                    let fresh_id = snap.graph().vertex_count();
                    ops.push(WireOp::AddVertex { name: format!("wire-{round}") });
                    ops.push(WireOp::InsertEdge { src: fresh_id, dst: v1, label: name(l1) });
                    ops.push(WireOp::DeleteVertex { vertex: fresh_id });
                }
                let n_ops = ops.len();
                let ack = client.apply_delta(ops).expect("wire delta");
                assert_eq!(ack.outcomes.len(), n_ops);
                if round % 6 == 5 {
                    assert_eq!(
                        ack.outcomes[n_ops - 3],
                        WireOutcome::VertexAdded(snap.graph().vertex_count()),
                        "AddVertex must report the allocated id"
                    );
                }
                rebuilt |= ack.rebuilt;
                let now = engine.snapshot();
                assert_eq!(now.epoch(), ack.epoch, "sole writer: ack epoch must be current");
                snapshots.lock().unwrap().insert(ack.epoch, now);
                std::thread::sleep(Duration::from_millis(2));
            }
            rebuilt
        });

        let readers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("reader connects");
                    let mut served: Vec<Served> = Vec::new();
                    for j in 0..QUERIES_PER_CLIENT {
                        let at = (c * 5 + j * 3) % workload.len();
                        let reply = client.query(&workload[at].0).expect("wire query");
                        served.push((at, reply.epoch, reply.pairs));
                        // Pinned-epoch consistency: the pre-churn
                        // snapshot answers exactly as before, however
                        // many deltas and auto-rebuilds have landed.
                        let pin = (c + j) % workload.len();
                        assert_eq!(
                            snap0.evaluate(&workload[pin].1),
                            initial[pin],
                            "pinned epoch-0 reader observed drift"
                        );
                    }
                    // Guarantee overlap with maintenance: keep
                    // querying (bounded) until a delta install is
                    // visible to this reader.
                    let mut extra = 0usize;
                    while served.iter().all(|&(_, epoch, _)| epoch == 0) && extra < 500 {
                        let at = (c + extra) % workload.len();
                        let reply = client.query(&workload[at].0).expect("wire query");
                        served.push((at, reply.epoch, reply.pairs));
                        extra += 1;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    served
                })
            })
            .collect();

        let rebuilt = writer.join().expect("writer thread");
        (readers.into_iter().map(|r| r.join().expect("reader thread")).collect(), rebuilt)
    });

    assert!(rebuilt_over_wire, "threshold 1.05 must trip an auto-rebuild over the wire");
    let stats = engine.stats();
    assert!(stats.auto_rebuilds >= 1, "engine must count the auto-rebuild");
    assert!(stats.delta_transactions >= WRITER_ROUNDS);

    // Every live answer matches sequential evaluation on the snapshot of
    // the epoch it reported — even across rebuild installs.
    let snapshots = snapshots.into_inner().unwrap();
    let mut epochs_seen: Vec<u64> = Vec::new();
    for served in &observations {
        for (at, epoch, pairs) in served {
            let snap = snapshots
                .get(epoch)
                .unwrap_or_else(|| panic!("answer reports unknown epoch {epoch}"));
            let (text, q) = &workload[*at];
            assert_eq!(&snap.evaluate(q), pairs, "torn read for {text:?} at epoch {epoch}");
            epochs_seen.push(*epoch);
        }
    }
    epochs_seen.sort_unstable();
    epochs_seen.dedup();
    assert!(epochs_seen.len() > 1, "deltas must have been visible to readers");

    let wire_stats = Client::connect(addr).unwrap().stats().expect("stats");
    assert!(wire_stats.get(Metric::DeltaRequests) >= Some(WRITER_ROUNDS));
    assert!(wire_stats.get(Metric::Rebuilds) >= Some(1));
    assert!(wire_stats.fragmentation_ratio() > 0.0);
    server.shutdown();
    // The STATS frame must round-trip the engine's fragmentation and
    // copy-on-write gauges exactly — the server is quiescent now, so a
    // fresh engine report and the last wire report describe the same
    // counters.
    let end = engine.stats();
    assert_eq!(wire_stats.get(StatsField::ClassSlots), Some(end.class_slots));
    assert_eq!(wire_stats.get(StatsField::BaselineClasses), Some(end.baseline_classes));
    assert_eq!(wire_stats.get(Metric::CowChunksCopied), Some(end.cow_chunks_copied));
    assert_eq!(wire_stats.get(Metric::CowChunksShared), Some(end.cow_chunks_shared));
    assert!(end.cow_chunks_copied > 0, "write transactions must have copied chunks: {end}");
}

/// The CI smoke scenario: benchmark-query batches plus one UPDATE over
/// the wire, answers equal to direct engine evaluation.
#[test]
fn loopback_smoke_benchqueries() {
    let g = generate::gmark(400, 3);
    let (engine, server) = start_server(g, 4);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");

    let snap = engine.snapshot();
    let named: Vec<_> = benchqueries::yago_queries(snap.graph(), 7)
        .into_iter()
        .chain(benchqueries::lubm_queries(snap.graph(), 7))
        .chain(benchqueries::watdiv_queries(snap.graph(), 7))
        .collect();
    let texts: Vec<String> = named.iter().map(|nq| nq.query.to_text(snap.graph())).collect();

    let reply = client.batch(&texts).expect("batch");
    assert_eq!(reply.epoch, snap.epoch());
    assert_eq!(reply.results.len(), named.len());
    for (nq, pairs) in named.iter().zip(&reply.results) {
        assert_eq!(&snap.evaluate(&nq.query), pairs, "{} must match direct evaluation", nq.name);
    }

    // One UPDATE: delete an existing edge, verify a query reflects it.
    let (v, u, l) = sample_edges(snap.graph(), 1, 5)[0];
    let name = snap.graph().label_name(l).to_string();
    let ack = client.delete_edge(v, u, &name).expect("wire delete");
    assert!(ack.applied);
    assert_eq!(ack.epoch, 1);
    let after = client.batch(&texts).expect("batch after update");
    assert_eq!(after.epoch, 1);
    let snap1 = engine.snapshot();
    for (nq, pairs) in named.iter().zip(&after.results) {
        assert_eq!(&snap1.evaluate(&nq.query), pairs, "{} stale after update", nq.name);
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.get(StatsField::Epoch), Some(1));
    assert_eq!(stats.get(Metric::BatchRequests), Some(2));
    assert_eq!(stats.get(Metric::UpdateRequests), Some(1));
    assert_eq!(stats.get(Metric::PingRequests), Some(1));
    assert_eq!(stats.get(Metric::StatsRequests), Some(1));
    assert!(stats.get(Metric::Queries) >= Some(2 * texts.len() as u64));
    // COW gauges round-trip the engine's report: one small delta copied a
    // few chunks and left the rest of the snapshot shared.
    let engine_stats = engine.stats();
    assert_eq!(stats.get(Metric::CowChunksCopied), Some(engine_stats.cow_chunks_copied));
    assert_eq!(stats.get(Metric::CowChunksShared), Some(engine_stats.cow_chunks_shared));
    assert!(engine_stats.cow_chunks_copied > 0, "the UPDATE delta copied chunks");
    server.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let g = generate::gex();
    let (_engine, server) = start_server(g, 2);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    write_frame(&mut stream, &encode_request(&Request::Hello { version: PROTOCOL_VERSION }))
        .unwrap();
    let ack = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(decode_response(&ack).unwrap(), Response::HelloAck { .. }));

    // Write a full pipeline before reading anything.
    let texts = ["f", "f . f", "(f . f) & f^-1", "id", "f^-1"];
    for t in texts {
        write_frame(&mut stream, &encode_request(&Request::Query(t.into()))).unwrap();
    }
    write_frame(&mut stream, &encode_request(&Request::Ping)).unwrap();

    let snap = server.engine().snapshot();
    for t in texts {
        let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        match decode_response(&payload).unwrap() {
            Response::Result { pairs, .. } => {
                let q = parse_cpq(t, snap.graph()).unwrap();
                assert_eq!(pairs, snap.evaluate(&q), "pipelined answer for {t:?}");
            }
            other => panic!("expected RESULT for {t:?}, got {other:?}"),
        }
    }
    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(decode_response(&payload).unwrap(), Response::Pong));
    server.shutdown();
}

#[test]
fn typed_errors_over_the_wire() {
    let g = generate::gex();
    let (_engine, server) = start_server(g, 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Syntax error: position survives the wire.
    match client.query("(f . f") {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Parse);
            assert!(e.position.is_some());
        }
        other => panic!("expected parse error, got {other:?}"),
    }
    // Unknown label: distinct code.
    match client.query("f . nosuch") {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::UnknownLabel);
            assert_eq!(e.position, Some(4));
            assert!(e.message.contains("nosuch"));
        }
        other => panic!("expected unknown-label error, got {other:?}"),
    }
    // Bad update: unknown label and out-of-range vertex.
    match client.insert_edge(0, 1, "ghost") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::BadUpdate),
        other => panic!("expected bad-update error, got {other:?}"),
    }
    match client.delete_edge(0, u32::MAX, "f") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::BadUpdate),
        other => panic!("expected bad-update error, got {other:?}"),
    }
    // The connection survives all of the above (errors are recoverable).
    client.ping().expect("connection still alive");
    let reply = client.query("f").expect("valid query after errors");
    assert!(!reply.pairs.is_empty());
    server.shutdown();
}

/// A reply over the server's frame limit comes back as a typed
/// TOO_LARGE error carrying the answer count — never as a frame the
/// client must reject — and the connection stays in sync.
#[test]
fn oversize_reply_gets_a_typed_error_and_the_connection_survives() {
    // clique(40): `f . f` holds all 1,600 pairs (12.8 KB of answers).
    let g = generate::clique(40, "f");
    let (engine, _) = Engine::with_options(g, EngineOptions { k: 2, ..Default::default() });
    let opts = ServerOptions { workers: 2, max_frame_len: 4096, ..ServerOptions::default() };
    let server = Server::bind(Arc::new(engine), "127.0.0.1:0", opts).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let answers = 40 * 40; // every pair, loops included
    for attempt in 0..2 {
        match client.query("f . f") {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, ErrorCode::TooLarge, "attempt {attempt}");
                assert_eq!(e.count, Some(answers));
            }
            other => panic!("expected TOO_LARGE, got {:?}", other.map(|r| r.pairs.len())),
        }
        client.ping().expect("connection still in sync");
    }
    // A BATCH over the limit counts the answers of all its queries.
    match client.batch(&["f", "f . f"]) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::TooLarge);
            assert_eq!(e.count, Some(answers + 40 * 39));
        }
        other => panic!("expected TOO_LARGE, got {:?}", other.map(|r| r.results.len())),
    }
    // Replies under the limit still go through on the same connection.
    assert_eq!(client.query("(f . f) & id").expect("small reply").pairs.len(), 40);
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.get(Metric::ErrorResponses),
        Some(3),
        "each oversize reply counts as an error"
    );
    server.shutdown();
}

#[test]
fn hostile_queries_cannot_kill_the_server() {
    // A deeply nested or absurdly long query text fits comfortably under
    // the frame-size bound but would blow the worker's stack if it ever
    // reached unbounded recursion — it must come back as a parse error
    // frame with the server (and even the connection) intact.
    let g = generate::gex();
    let (_engine, server) = start_server(g, 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let deep = format!("{}f{}", "(".repeat(200_000), ")".repeat(200_000));
    let long = vec!["f"; 200_000].join(" . ");
    for hostile in [deep, long] {
        match client.query(&hostile) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Parse),
            other => panic!("expected parse error frame, got {:?}", other.map(|r| r.epoch)),
        }
    }
    client.ping().expect("server must survive hostile queries");
    assert!(!client.query("f").expect("still serving").pairs.is_empty());
    server.shutdown();
}

#[test]
fn oversized_handshake_frame_gets_a_final_error() {
    let g = generate::gex();
    let (_engine, server) = start_server(g, 2);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Announce a payload over the server's bound as the very first frame.
    use std::io::Write;
    stream.write_all(&(64u32 * 1024 * 1024).to_be_bytes()).unwrap();
    stream.flush().unwrap();
    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    match decode_response(&payload).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn handshake_is_enforced() {
    let g = generate::gex();
    let (_engine, server) = start_server(g, 2);

    // Wrong version is refused with a typed error.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut stream, &encode_request(&Request::Hello { version: 999 })).unwrap();
    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    match decode_response(&payload).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::UnsupportedVersion),
        other => panic!("expected version error, got {other:?}"),
    }

    // A first frame that is not HELLO is refused.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut stream, &encode_request(&Request::Ping)).unwrap();
    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    match decode_response(&payload).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadFrame),
        other => panic!("expected handshake error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn batch_parse_failures_name_the_query() {
    let g = generate::gex();
    let (_engine, server) = start_server(g, 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    match client.batch(&["f", "f . f", "(f"]) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Parse);
            assert!(e.message.contains("batch query 2"), "got {:?}", e.message);
        }
        other => panic!("expected batch parse error, got {other:?}"),
    }
    server.shutdown();
}

/// Filling the connection cap answers new connections with a typed BUSY
/// error frame — not a bare close — counts the rejection in STATS and
/// METRICS, and frees the slot when a connection departs.
#[test]
fn connection_cap_rejects_with_busy_error() {
    let g = generate::gex();
    let (engine, _) = Engine::with_options(g, EngineOptions { k: 2, ..Default::default() });
    let engine = Arc::new(engine);
    let server = Server::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerOptions { workers: 2, max_connections: 2, ..ServerOptions::default() },
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut a = Client::connect(addr).expect("first connection fits");
    let b = Client::connect(addr).expect("second connection fits");

    // Over capacity. Read without sending HELLO: the BUSY frame arrives
    // unprompted, followed by a clean close (sending first could race
    // the server's shutdown into an RST that discards the frame).
    let mut rejected = TcpStream::connect(addr).expect("tcp connect still succeeds");
    let payload = read_frame(&mut rejected, DEFAULT_MAX_FRAME).expect("a BUSY frame, not a close");
    match decode_response(&payload).expect("decodes") {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::Busy);
            assert!(e.message.contains("capacity"), "got {:?}", e.message);
        }
        other => panic!("expected BUSY error, got {other:?}"),
    }
    match read_frame(&mut rejected, DEFAULT_MAX_FRAME) {
        Err(FrameError::Closed) => {}
        other => panic!("expected close after BUSY, got {other:?}"),
    }

    // The rejection and the open-connection gauge are visible over the
    // wire (METRICS, STATS) and in the process-local registry.
    let metrics = a.metrics().expect("metrics");
    assert_eq!(metrics.get(Metric::RejectedConnections), Some(1));
    assert_eq!(metrics.get(Metric::OpenConnections), Some(2));
    let stats = a.stats().expect("stats");
    assert_eq!(stats.get(Metric::RejectedConnections), Some(1));
    assert_eq!(stats.get(Metric::MetricsRequests), Some(1), "STATS must carry the METRICS counter");
    assert!(
        stats.get(Metric::ErrorResponses) >= Some(1),
        "the BUSY frame counts as an error response"
    );
    let local = server.engine().obs();
    assert_eq!(local.value(Metric::RejectedConnections), 1);
    assert_eq!(local.value(Metric::OpenConnections), 2);

    // Departures free slots: close one, the next connect succeeds.
    drop(b);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr) {
            Ok(_) => break,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("slot never freed after departure: {e:?}"),
        }
    }
    server.shutdown();
}

/// A read timeout that lands mid-frame means the stream is
/// desynchronized: the server must send the promised final TIMEOUT
/// error frame before closing, never a silent drop.
#[test]
fn mid_frame_read_timeout_sends_a_final_timeout_error() {
    let g = generate::gex();
    let (engine, _) = Engine::with_options(g, EngineOptions { k: 2, ..Default::default() });
    let engine = Arc::new(engine);
    let server = Server::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerOptions {
            workers: 2,
            read_timeout: Some(Duration::from_millis(200)),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut stream, &encode_request(&Request::Hello { version: PROTOCOL_VERSION }))
        .unwrap();
    let ack = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(decode_response(&ack).unwrap(), Response::HelloAck { .. }));

    // A header promising 8 payload bytes, followed by only 3, then
    // silence: the connection dies mid-frame.
    use std::io::Write;
    stream.write_all(&8u32.to_be_bytes()).unwrap();
    stream.write_all(&[1, 2, 3]).unwrap();
    stream.flush().unwrap();

    let payload =
        read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("a final error frame, not a bare close");
    match decode_response(&payload).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::Timeout);
            assert!(e.message.contains("mid-frame"), "got {:?}", e.message);
        }
        other => panic!("expected TIMEOUT error, got {other:?}"),
    }
    match read_frame(&mut stream, DEFAULT_MAX_FRAME) {
        Err(FrameError::Closed) => {}
        other => panic!("expected close after the final error, got {other:?}"),
    }
    server.shutdown();
}

/// An idle timeout at a frame boundary is a clean close: EOF, no error
/// frame — an idle client did nothing wrong.
#[test]
fn idle_timeout_at_a_frame_boundary_closes_cleanly() {
    let g = generate::gex();
    let (engine, _) = Engine::with_options(g, EngineOptions { k: 2, ..Default::default() });
    let engine = Arc::new(engine);
    let server = Server::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerOptions {
            workers: 2,
            read_timeout: Some(Duration::from_millis(200)),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut stream, &encode_request(&Request::Hello { version: PROTOCOL_VERSION }))
        .unwrap();
    let ack = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(decode_response(&ack).unwrap(), Response::HelloAck { .. }));

    // Go silent at the frame boundary; the next thing on the wire must
    // be EOF, not an error frame.
    match read_frame(&mut stream, DEFAULT_MAX_FRAME) {
        Err(FrameError::Closed) => {}
        other => panic!("expected a clean close, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn shutdown_unblocks_idle_connections() {
    // An idle client parked inside the server's read must not stall
    // shutdown for its full read timeout.
    let g = generate::gex();
    let (_engine, server) = start_server(g, 2);
    let mut idle = Client::connect(server.local_addr()).expect("connect");
    idle.ping().expect("ping");
    let t0 = std::time::Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} with an idle connection",
        t0.elapsed()
    );
    assert!(idle.ping().is_err(), "connection must be closed by shutdown");
}
