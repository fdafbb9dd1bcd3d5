//! Loopback tests for the METRICS frame: byte-exact codec behaviour
//! over a live TCP connection, every registry value on the wire, STATS
//! percentiles equal to the METRICS histogram's, queue wait split from
//! evaluation, and slow-query capture with a full span tree.

use cpqx_engine::{Engine, EngineOptions, ObsOptions};
use cpqx_graph::generate::{self, RandomGraphConfig};
use cpqx_net::proto::{
    decode_response, encode_request, encode_response, read_frame, write_frame, Request, Response,
    StatsField, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use cpqx_net::{Client, Server, ServerOptions};
use cpqx_obs::{Metric, Op as ObsOp, Stage, TraceKind};
use cpqx_query::workload::{GraphProbe, WorkloadGen};
use cpqx_query::Template;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn start_server(options: EngineOptions) -> (Arc<Engine>, Server) {
    let g = generate::random_graph(&RandomGraphConfig::social(150, 700, 3, 17));
    let (engine, _) = Engine::with_options(g, options);
    let engine = Arc::new(engine);
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0", ServerOptions::default())
        .expect("bind ephemeral port");
    (engine, server)
}

fn drive_queries(client: &mut Client, engine: &Engine, n: usize) {
    let snap = engine.snapshot();
    let probe = GraphProbe(snap.graph());
    let mut gen = WorkloadGen::new(snap.graph(), 7);
    let texts: Vec<String> = Template::ALL
        .iter()
        .flat_map(|&t| gen.queries(t, 1 + n / Template::ALL.len(), &probe))
        .map(|q| q.to_text(snap.graph()))
        .collect();
    assert!(!texts.is_empty());
    for text in texts.iter().cycle().take(n) {
        client.query(text).expect("query over loopback");
    }
}

/// The METRICS response survives a decode → re-encode cycle byte for
/// byte: what the server put on the wire is exactly what the codec
/// produces for the decoded report.
#[test]
fn metrics_roundtrip_is_byte_exact_over_loopback() {
    let (engine, server) = start_server(EngineOptions { k: 2, ..Default::default() });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    drive_queries(&mut client, &engine, 40);

    // Speak the frame layer directly so the raw response bytes are
    // observable.
    let stream = TcpStream::connect(server.local_addr()).expect("raw connect");
    let mut reader = std::io::BufReader::new(&stream);
    let mut writer = std::io::BufWriter::new(&stream);
    let hello = encode_request(&Request::Hello { version: PROTOCOL_VERSION });
    write_frame(&mut writer, &hello).unwrap();
    let ack = read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(decode_response(&ack), Ok(Response::HelloAck { .. })));
    write_frame(&mut writer, &encode_request(&Request::Metrics)).unwrap();
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap();

    let resp = decode_response(&payload).expect("METRICS_RESULT decodes");
    let Response::Metrics(m) = &resp else { panic!("expected METRICS_RESULT, got {resp:?}") };
    assert!(m.op_histogram(ObsOp::Query).is_some(), "query traffic must be present");
    assert_eq!(encode_response(&resp), payload, "re-encode must reproduce the wire bytes");
    server.shutdown();
}

/// STATS p50/p99 and the METRICS `Op::Query` histogram have one
/// source, so they agree exactly; the workload table names the
/// canonical keys served.
#[test]
fn stats_percentiles_equal_metrics_quantiles() {
    let (engine, server) = start_server(EngineOptions { k: 2, ..Default::default() });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    drive_queries(&mut client, &engine, 120);

    let stats = client.stats().expect("stats over loopback");
    let m = client.metrics().expect("metrics over loopback");
    assert_eq!(m.epoch, engine.epoch());
    assert_eq!(m.get(Metric::QueryRequests), Some(120));
    assert_eq!(m.get(Metric::Queries), Some(120));
    assert_eq!(m.get(Metric::StatsRequests), Some(1));
    assert_eq!(m.get(Metric::MetricsRequests), Some(1));

    let h = m.op_histogram(ObsOp::Query).expect("query histogram");
    assert_eq!(h.count(), 120);
    for (p, field) in [(0.5, StatsField::P50Us), (0.99, StatsField::P99Us)] {
        assert_eq!(stats.get(field), h.quantile(p), "p{p}");
    }

    // Query stages were exercised; their histograms travel too.
    for stage in [Stage::Parse, Stage::Plan, Stage::Eval] {
        assert!(m.stage_histogram(stage).is_some(), "missing {} histogram", stage.name());
    }
    // Canonical keys of the served workload feed the advisor table.
    // Keys are counted on sampled traces (one in `sample_every`), so the
    // table is a sampled frequency estimate, not an exact census.
    assert!(!m.workload.is_empty());
    let sampled: u64 = m.workload.iter().map(|(_, c)| c).sum();
    assert!((1..=120).contains(&sampled), "sampled workload count {sampled} out of range");
    server.shutdown();
}

/// A decoded METRICS frame carries every registry entry exactly once,
/// with its kind, and with the value the server's recorder holds.
#[test]
fn metrics_frame_carries_every_registry_entry_once() {
    let (engine, server) = start_server(EngineOptions { k: 2, ..Default::default() });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    drive_queries(&mut client, &engine, 10);
    let m = client.metrics().expect("metrics over loopback");
    assert_eq!(m.counters.len(), Metric::ALL.len());
    for metric in Metric::ALL {
        let entries: Vec<_> = m.counters.iter().filter(|c| c.name == metric.name()).collect();
        assert_eq!(entries.len(), 1, "{} appears {} times", metric.name(), entries.len());
        assert_eq!(entries[0].kind, metric.kind(), "{}", metric.name());
    }
    // Quiescent server: the wire values are the recorder's values now
    // (the METRICS counter is bumped before the report is built).
    for metric in Metric::ALL {
        assert_eq!(m.get(metric), Some(engine.obs().value(metric)), "{}", metric.name());
    }
    assert_eq!(m.get(Metric::OpenConnections), Some(1));
    server.shutdown();
}

/// Worker-queue wait is its own stage: behind a slow BATCH on a
/// one-worker server, a QUERY waits in the queue, and neither wait is
/// counted as evaluation. (PING never visits the queue: the event loop
/// answers it inline.)
#[test]
fn queue_wait_is_split_from_evaluate() {
    let g = generate::random_graph(&RandomGraphConfig::social(150, 700, 3, 17));
    let options = EngineOptions { k: 2, result_cache_capacity: 0, ..Default::default() };
    let engine = Arc::new(Engine::with_options(g, options).0);
    let server = Server::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerOptions { workers: 1, batch_threads: Some(1), ..ServerOptions::default() },
    )
    .expect("bind ephemeral port");
    let snap = engine.snapshot();
    let probe = GraphProbe(snap.graph());
    let mut gen = WorkloadGen::new(snap.graph(), 3);
    let batch: Vec<String> = Template::ALL
        .iter()
        .flat_map(|&t| gen.queries(t, 10, &probe))
        .map(|q| q.to_text(snap.graph()))
        .collect();
    let query = batch[0].clone();

    // Pipeline BATCH, QUERY and PING in one write: the loop queues the
    // first two for the single worker before it pops either.
    let stream = TcpStream::connect(server.local_addr()).expect("raw connect");
    let mut reader = std::io::BufReader::new(&stream);
    let mut writer = std::io::BufWriter::new(&stream);
    write_frame(&mut writer, &encode_request(&Request::Hello { version: PROTOCOL_VERSION }))
        .unwrap();
    let ack = read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(decode_response(&ack), Ok(Response::HelloAck { .. })));
    let mut burst = Vec::new();
    for req in [Request::Batch(batch), Request::Query(query), Request::Ping] {
        write_frame(&mut burst, &encode_request(&req)).unwrap();
    }
    std::io::Write::write_all(&mut writer, &burst).unwrap();
    std::io::Write::flush(&mut writer).unwrap();
    for want in ["batch", "query", "pong"] {
        let resp = decode_response(&read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap());
        let ok = matches!(
            (want, &resp),
            ("batch", Ok(Response::BatchResult { .. }))
                | ("query", Ok(Response::Result { .. }))
                | ("pong", Ok(Response::Pong))
        );
        assert!(ok, "expected {want}, got {resp:?}");
    }

    let wait = engine.obs().stage_snapshot(Stage::QueueWait);
    let eval = engine.obs().stage_snapshot(Stage::Evaluate);
    assert_eq!(wait.count(), 2, "BATCH and QUERY each waited once");
    assert_eq!(eval.count(), wait.count());
    assert!(wait.max() > 0, "the QUERY queued behind the BATCH");
    server.shutdown();
}

/// With a slow-query threshold armed, a wire query over the threshold
/// lands in the slow ring carrying its parse/plan/eval span tree, its
/// canonical key and the epoch it was served at.
#[test]
fn slow_queries_capture_span_tree_over_the_wire() {
    let obs = ObsOptions {
        slow_query: Some(Duration::from_nanos(1)),
        sample_every: 0, // slow capture must not depend on trace sampling
        ..ObsOptions::default()
    };
    let options = EngineOptions {
        k: 2,
        obs,
        // No result cache: every wire query must evaluate, so slow
        // entries always carry the full parse/plan/eval tree.
        result_cache_capacity: 0,
        ..Default::default()
    };
    let (engine, server) = start_server(options);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    drive_queries(&mut client, &engine, 10);

    let m = client.metrics().expect("metrics over loopback");
    assert!(m.get(Metric::SlowQueries) >= Some(1), "1ns threshold must flag queries");
    let slow = m.slow.last().expect("slow ring entry");
    assert_eq!(slow.kind, TraceKind::Query);
    assert!(!slow.key.is_empty(), "slow entry must carry the canonical key");
    assert_eq!(slow.epoch, engine.epoch());
    for stage in [Stage::Parse, Stage::Plan, Stage::Eval] {
        assert!(slow.span(stage).is_some(), "missing {} span: {}", stage.name(), slow.render());
    }
    server.shutdown();
}
