//! `cpqx-perfbench` — the repository's seeded serving benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot_read|cold_read|mixed_write> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the workload up [`workloads::SETUP_REPS`] times (graph,
//! engine, store, server, warm-up) and keeps the last set-up; drives it
//! over loopback for `--seconds`; checks every answer against
//! `eval_reference` on the seed graph; for `mixed_write` stops the
//! server, measures the store directory and reopens it. With
//! `--trace 1` it then replays a fixed prefix of the same request
//! sequence in-process (untraced, traced, untraced again) and derives
//! per-layer numbers from the span file the traced pass writes. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). Scratch files go under `.bench_build/perfbench-out`.

mod idle;
mod load;
mod oracle;
mod replay;
mod setup;
mod sink;
mod spans;
mod util;
mod workloads;

use crate::sink::StoreTally;
use crate::spans::{names, Analysis, Tracer};
use crate::util::{median, quantile_sorted, ratio};
use crate::workloads::{Inputs, Kind, Workload};
use cpqx_engine::StatsReport;
use cpqx_net::{Client, WireMetrics};
use cpqx_obs::Stage;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const OUT_DIR: &str = ".bench_build/perfbench-out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 20;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::workload(&value).ok_or_else(|| {
                    let known: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (known: {})", known.join(", "))
                })?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let mut argv = std::env::args().skip(1);
    if argv.next().as_deref() == Some("--idle-poll") {
        if let Some(parent) = argv.next().and_then(|p| p.parse().ok()) {
            idle::poll_until_parent_exits(parent);
        }
        return;
    }
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Metric rows in print order: (name, value, unit).
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Exact counts that two same-seed runs of one build must repeat.
type Counts = BTreeMap<&'static str, u64>;

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let w = args.workload;
    let out = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let pid = std::process::id();

    let g = w.dataset.generate(workloads::EDGE_BUDGET, workloads::GRAPH_SEED);
    let inputs = Inputs::generate(w, &g, args.seed, args.seconds);
    if inputs.queries.is_empty() {
        return Err("the generator produced no queries".into());
    }
    print_meta(&args, &g, &inputs);
    let t_run = Instant::now();
    let phase = |name: &str| {
        println!(
            "# phase {name} done at {:.2} s, rss {:.0} MB",
            t_run.elapsed().as_secs_f64(),
            rss_mb("VmRSS:").unwrap_or(0.0)
        );
    };

    let (pollers, polling) = idle::IdlePollers::start();
    println!("# idle pollers: {polling}");
    // Set up several times; keep the last one serving.
    let mut setups = Vec::with_capacity(workloads::SETUP_REPS);
    let mut served: Option<setup::Served> = None;
    for rep in 0..workloads::SETUP_REPS {
        if let Some(prev) = served.take() {
            if let Some(dir) = prev.stop() {
                setup::remove_dir(&dir)?;
            }
        }
        let s = setup::serve(w, &inputs, &out.join(format!("store-{pid}-setup{rep}")))?;
        setups.push(s.built.times);
        served = Some(s);
    }
    let served = served.ok_or("no set-up ran")?;
    phase("setup");
    let engine = served.built.engine.clone();
    let graph_bytes = engine.snapshot().graph().size_bytes() as f64;
    let index_bytes = engine.snapshot().index().size_bytes() as f64;
    let addr = served.server.local_addr();

    let before = engine.stats();
    let load = load::run(w, &inputs, addr, args.seed, args.seconds);
    let after = engine.stats();
    let wire_metrics = Client::connect(addr).and_then(|mut c| c.metrics()).ok();
    let rss_mb = rss_mb("VmHWM:")?;
    drop(pollers);
    phase("load");
    let loop_store = served.built.store.as_ref().map(|(_, s)| s.tally());
    drop(engine);
    let store_dir = served.stop();

    // The answer oracle, after timing.
    let mut problems: Vec<String> = Vec::new();
    let mut wanted: BTreeSet<u32> = load.reads.answers.keys().map(|k| k.0).collect();
    if w.kind == Kind::MixedWrite {
        wanted.extend(0..inputs.queries.len() as u32);
    }
    let want = oracle::expected(&g, &inputs.queries, &wanted);
    phase("oracle");
    for m in oracle::check(&load.reads.answers, &want) {
        problems.push(format!(
            "query {} ({:?}): {} reads answered {} pairs, reference has {}",
            m.query, inputs.queries[m.query as usize].text, m.reads, m.got_len, m.want_len
        ));
    }
    if load.writes.bad_acks > 0 {
        problems
            .push(format!("{} DELTA acks did not report all ops applied", load.writes.bad_acks));
    }

    let mut counts = Counts::new();
    counts.insert("inputs.fingerprint", inputs.fingerprint());
    let mut m = Metrics::default();
    let attempted = (load.reads.lat_ns.len() + load.writes.lat_ms.len()) as u64;
    let failed = load.reads.failed + load.writes.failed;
    // Read figures are measured per window and reported as the median
    // over the windows, so a burst of host noise moves one window, not
    // the result.
    let windows = load::windows(w, &load.reads, args.seconds);
    let over_windows =
        |f: fn(&load::Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    println!(
        "# reads: {} in {} windows of {}..{} reads; writes: {}",
        load.reads.lat_ns.len(),
        windows.len(),
        windows.iter().map(|w| w.reads).min().unwrap_or(0),
        windows.iter().map(|w| w.reads).max().unwrap_or(0),
        load.writes.lat_ms.len()
    );
    let per_window = |f: fn(&load::Window) -> f64| {
        windows.iter().map(|w| format!("{:.0}", f(w))).collect::<Vec<_>>().join(" ")
    };
    println!("# window read_qps: {}", per_window(|w| w.qps));
    println!("# window read_p99_us: {}", per_window(|w| w.p99_us));
    let read_p50_us = over_windows(|w| w.p50_us);
    // The metrics `BENCHMARK.json` bounds: present and non-zero on every
    // workload, and steady from run to run on a shared 2-CPU host.
    m.put("setup_s", median(&setups.iter().map(|t| t.total).collect::<Vec<_>>()), "s");
    m.put("read_qps", over_windows(|w| w.qps), "1/s");
    m.put("read_p50_us", read_p50_us, "us");
    m.put("rss_peak_mb", rss_mb, "MB");
    let e2e_count = m.0.len();

    // The rest: the read tail, whose run-to-run spread on such a host
    // exceeds any useful bound, and the server's CPU per request.
    m.put("read_p99_us", over_windows(|w| w.p99_us), "us");
    let ops_ok = attempted - failed;
    m.put("server_cpu_us_per_op", ratio(load.server_cpu_ns as f64 / 1e3, ops_ok as f64), "us");

    // Write path and recovery (`mixed_write`).
    let mut wl = load.writes.lat_ms.clone();
    wl.sort_by(f64::total_cmp);
    let mut late = load.writes.late_ms.clone();
    late.sort_by(f64::total_cmp);
    m.put("write_p50_ms", quantile_sorted(&wl, 0.5).unwrap_or(0.0), "ms");
    m.put("write_p95_ms", quantile_sorted(&wl, 0.95).unwrap_or(0.0), "ms");
    m.put("load.writer_late_max_ms", late.last().copied().unwrap_or(0.0), "ms");
    m.put("error_rate", ratio(failed as f64, attempted as f64), "ratio");
    let mut recovery = Recovery::default();
    if let Some(dir) = &store_dir {
        let disk = setup::dir_bytes(dir)?;
        let reopened = setup::reopen(w, dir, 3)?;
        let r = &reopened.recovered;
        if r.edge_count != g.edge_count() as u64 {
            problems.push(format!("recovered {} edges, seed has {}", r.edge_count, g.edge_count()));
        }
        // `want` holds the whole hot set here (see `wanted` above).
        for q in oracle::check_engine(&reopened.engine, &inputs.queries, &want) {
            problems.push(format!("recovered engine answers query {q} differently"));
        }
        recovery = Recovery {
            recover_s: reopened.recover_s,
            disk_bytes_per_edge: disk as f64 / g.edge_count() as f64,
            manifest_ms: r.manifest_time.as_secs_f64() * 1e3,
            chunks_ms: r.chunks_time.as_secs_f64() * 1e3,
            replay_ms: r.replay_time.as_secs_f64() * 1e3,
            replayed_txns: r.replayed_transactions as f64,
        };
        counts.insert("store.disk_bytes", disk);
        counts.insert("store.replayed_txns", r.replayed_transactions);
        drop(reopened);
        setup::remove_dir(dir)?;
    }
    m.put("recover_s", recovery.recover_s, "s");
    m.put("disk_bytes_per_edge", recovery.disk_bytes_per_edge, "B");
    if let Some(c) = &loop_store {
        counts.insert("wal.appends", c.appends);
        counts.insert("wal.bytes", c.wal_bytes);
        counts.insert("store.checkpoints", c.checkpoints);
        counts.insert("store.chunks_written", c.chunks_written);
        counts.insert("store.chunks_skipped", c.chunks_skipped);
        counts
            .insert("engine.cow_chunks_copied", after.cow_chunks_copied - before.cow_chunks_copied);
        counts.insert("engine.auto_rebuilds", after.auto_rebuilds - before.auto_rebuilds);
    }

    let mut layers = Metrics::default();
    if args.trace {
        let traced = traced_run(w, &inputs, &args, &out, pid, &mut counts)?;
        layer_metrics(
            &mut layers,
            &traced,
            &LoopFacts {
                setups: &setups,
                before: &before,
                after: &after,
                store: loop_store.unwrap_or_default(),
                graph_bytes,
                index_bytes,
                read_p50_us,
                recovery,
            },
        );
        for &(name, value, unit) in &m.0[e2e_count..] {
            layers.put(name, value, unit);
        }
        print_cross_check(wire_metrics.as_ref(), Some(&traced));
    } else {
        print_cross_check(wire_metrics.as_ref(), None);
    }

    check_counts(&out, &args, &counts, &mut problems)?;
    let correct = problems.is_empty();
    for p in &problems {
        println!("WRONG: {p}");
    }
    println!(
        "# end-to-end (error_rate {:.6}; {failed} of {attempted} ops failed)",
        ratio(failed as f64, attempted as f64)
    );
    for &(name, value, unit) in &m.0 {
        println!("e2e {name} = {value} {unit}");
    }
    for &(name, value, unit) in &layers.0 {
        println!("layer {name} = {value} {unit}");
    }
    for (name, value) in &counts {
        println!("count {name} = {value}");
    }
    let shown = if args.trace { &layers.0[..] } else { &m.0[..e2e_count] };
    println!("{}", result_json(correct, attempted.max(1), failed, shown));
    Ok(correct)
}

/// What the traced run measured.
struct Traced {
    reads: Analysis,
    writes: Analysis,
    totals: replay::Totals,
    /// Over the replayed reads: Σ untraced per-request ns, Σ traced
    /// root-span ns.
    untraced_ns: u64,
    traced_ns: u64,
    csr_build_ms: f64,
}

fn traced_run(
    w: &Workload,
    inputs: &Inputs,
    args: &Args,
    out: &Path,
    pid: u32,
    counts: &mut Counts,
) -> Result<Traced, String> {
    // CSR faces on a freshly generated copy of the graph (the served
    // engine builds them lazily on first read).
    let fresh = w.dataset.generate(workloads::EDGE_BUDGET, workloads::GRAPH_SEED);
    let t0 = Instant::now();
    fresh.ensure_csr();
    let csr_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(fresh);

    let steps = replay::sequence(w, inputs, args.seed);
    let payloads = replay::payloads(inputs, &steps);

    // Untraced, traced, untraced again, each pass on its own fresh
    // set-up: the overhead compares the traced pass with the mean of the
    // two around it, so drift and first-pass effects cancel.
    let untraced_pass = |tag: &str| -> Result<u64, String> {
        let dir = out.join(format!("store-{pid}-replay-{tag}"));
        let built = setup::build(w, &dir, None)?;
        setup::warm_in_process(&built.engine, &inputs.warmup);
        let per_req = replay::run_untraced(&built.engine, &steps, &payloads)?;
        drop(built);
        setup::remove_dir(&dir)?;
        // Over reads only: a write's time is dominated by maintenance
        // and fsync, whose pass-to-pass noise would swamp tracing cost.
        Ok(steps
            .iter()
            .zip(&per_req)
            .filter(|(s, _)| matches!(s, replay::Step::Read(_)))
            .map(|(_, &ns)| ns)
            .sum())
    };
    let before_ns = untraced_pass("untraced-1")?;

    let tracer = Arc::new(Mutex::new(Tracer::new()));
    let dir = out.join(format!("store-{pid}-replay-traced"));
    let b = setup::build(w, &dir, Some(tracer.clone()))?;
    setup::warm_in_process(&b.engine, &inputs.warmup);
    let totals = replay::run_traced(&b.engine, &steps, &payloads, &tracer)?;
    let replay_store = b.store.as_ref().map(|(_, s)| s.tally()).unwrap_or_default();
    drop(b);
    setup::remove_dir(&dir)?;

    let untraced_ns = (before_ns + untraced_pass("untraced-2")?) / 2;
    let path = out.join(format!("spans-{}.tsv", w.name));
    tracer
        .lock()
        .expect("tracer lock poisoned")
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let spans = spans::read(&path)?;
    let reads = Analysis::of(&spans, names::READ);
    let writes = Analysis::of(&spans, names::WRITE);
    let traced_ns = reads.root_ns.iter().sum();

    counts.insert("replay.reads", totals.reads);
    counts.insert("replay.writes", totals.writes);
    counts.insert("replay.executed", totals.executed);
    counts.insert("replay.answers_executed", totals.answers_executed);
    counts.insert("replay.reply_bytes", totals.reply_bytes);
    let e = &totals.exec;
    counts.insert("replay.exec.lookups", e.lookups as u64);
    counts.insert("replay.exec.classes_touched", e.classes_touched as u64);
    counts.insert("replay.exec.pairs_materialized", e.pairs_materialized as u64);
    counts.insert("replay.exec.class_conjunctions", e.class_conjunctions as u64);
    counts.insert("replay.exec.pair_intersections", e.pair_intersections as u64);
    counts.insert("replay.exec.joins", e.joins as u64);
    counts.insert("replay.exec.csr_joins", e.csr_joins as u64);
    if w.kind == Kind::MixedWrite {
        counts.insert("replay.wal.bytes", replay_store.wal_bytes);
        counts.insert("replay.store.checkpoints", replay_store.checkpoints);
        counts.insert("replay.store.chunks_written", replay_store.chunks_written);
        counts.insert("replay.store.chunks_skipped", replay_store.chunks_skipped);
    }
    Ok(Traced { reads, writes, totals, untraced_ns, traced_ns, csr_build_ms })
}

/// What the loopback phase and the set-ups measured, for the layer
/// metrics.
struct LoopFacts<'a> {
    setups: &'a [setup::SetupTimes],
    before: &'a StatsReport,
    after: &'a StatsReport,
    store: StoreTally,
    graph_bytes: f64,
    index_bytes: f64,
    read_p50_us: f64,
    recovery: Recovery,
}

/// What reopening the `mixed_write` store measured (zero elsewhere).
#[derive(Clone, Copy, Debug, Default)]
struct Recovery {
    recover_s: f64,
    disk_bytes_per_edge: f64,
    manifest_ms: f64,
    chunks_ms: f64,
    replay_ms: f64,
    replayed_txns: f64,
}

fn layer_metrics(m: &mut Metrics, t: &Traced, f: &LoopFacts<'_>) {
    let reads = t.totals.reads as f64;
    let writes = t.totals.writes as f64;
    let r = &t.reads;
    let wr = &t.writes;
    let setup_med = |pick: fn(&setup::SetupTimes) -> f64| {
        median(&f.setups.iter().map(pick).collect::<Vec<_>>())
    };
    let d = |pick: fn(&StatsReport) -> u64| (pick(f.after) - pick(f.before)) as f64;
    let e = &t.totals.exec;

    m.put("net.decode_us", r.self_us_per(names::DECODE, reads), "us");
    m.put("net.encode_us", r.self_us_per(names::ENCODE, reads), "us");
    m.put("net.reply_bytes", ratio(t.totals.reply_bytes as f64, reads), "B");
    let root_p50_us = median(&r.root_ns.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>());
    m.put("net.unattributed_us", f.read_p50_us - root_p50_us, "us");
    m.put("query.parse_us", r.self_us_per(names::PARSE, reads), "us");
    m.put("query.canonical_us", r.self_us_per(names::CANONICAL, reads), "us");
    m.put(
        "engine.query_self_us",
        r.self_us_per(names::QUERY_ON, reads) + r.self_us_per(names::SNAPSHOT, reads),
        "us",
    );
    m.put(
        "engine.result_hit_rate",
        ratio(d(|s| s.result_hits), d(|s| s.result_hits) + d(|s| s.result_misses)),
        "ratio",
    );
    m.put(
        "engine.plan_hit_rate",
        ratio(d(|s| s.plan_hits), d(|s| s.plan_hits) + d(|s| s.plan_misses)),
        "ratio",
    );
    m.put("core.plan_us", r.self_us_per(names::PLAN, reads), "us");
    m.put("core.exec_us", r.self_us_per(names::EXEC, reads), "us");
    m.put("core.exec.lookups_per_read", ratio(e.lookups as f64, reads), "count");
    m.put("core.exec.classes_touched_per_read", ratio(e.classes_touched as f64, reads), "count");
    m.put(
        "core.exec.pairs_per_answer",
        ratio(e.pairs_materialized as f64, t.totals.answers_executed as f64),
        "ratio",
    );
    m.put("core.exec.joins_per_read", ratio(e.joins as f64, reads), "count");
    m.put("core.exec.csr_join_share", ratio(e.csr_joins as f64, e.joins as f64), "ratio");
    m.put(
        "core.exec.class_conj_share",
        ratio(e.class_conjunctions as f64, (e.class_conjunctions + e.pair_intersections) as f64),
        "ratio",
    );
    m.put("core.build.level1_s", setup_med(|s| s.level1), "s");
    m.put("core.build.refine_s", setup_med(|s| s.refine), "s");
    m.put("core.build.merge_s", setup_med(|s| s.merge), "s");
    m.put("core.index_bytes", f.index_bytes, "B");
    m.put("graph.generate_s", setup_med(|s| s.generate), "s");
    m.put("graph.csr_build_ms", t.csr_build_ms, "ms");
    m.put("graph.bytes", f.graph_bytes, "B");
    m.put(
        "engine.delta_self_us",
        wr.self_us_per(names::APPLY_DELTA, writes) + wr.self_us_per(names::SNAPSHOT, writes),
        "us",
    );
    m.put("engine.clone_us", wr.self_us_per(names::CLONE, writes), "us");
    m.put(
        "engine.cow_chunks_copied_per_txn",
        ratio(d(|s| s.cow_chunks_copied), d(|s| s.delta_transactions)),
        "count",
    );
    m.put("engine.frag_ratio_end", f.after.fragmentation_ratio, "ratio");
    m.put("engine.auto_rebuilds", d(|s| s.auto_rebuilds), "count");
    m.put("core.maintain_us", wr.self_us_per(names::MAINTAIN, writes), "us");
    m.put("store.append_us", wr.self_us_per(names::APPEND, writes), "us");
    let checkpoints = wr.by_name.get(names::CHECKPOINT).map_or(0, |s| s.count) as f64;
    m.put("store.checkpoint_ms", wr.self_us_per(names::CHECKPOINT, checkpoints) / 1e3, "ms");
    let s = &f.store;
    m.put("store.wal_bytes_per_txn", ratio(s.wal_bytes as f64, s.appends as f64), "B");
    m.put(
        "store.chunks_written_per_checkpoint",
        ratio(s.chunks_written as f64, s.checkpoints as f64),
        "count",
    );
    m.put(
        "store.chunk_reuse_ratio",
        ratio(s.chunks_skipped as f64, (s.chunks_written + s.chunks_skipped) as f64),
        "ratio",
    );
    m.put("store.bootstrap_s", setup_med(|s| s.bootstrap), "s");
    m.put("store.recover.manifest_ms", f.recovery.manifest_ms, "ms");
    m.put("store.recover.chunks_ms", f.recovery.chunks_ms, "ms");
    m.put("store.recover.replay_ms", f.recovery.replay_ms, "ms");
    m.put("store.replayed_txns", f.recovery.replayed_txns, "count");
    m.put("trace.overhead", ratio(t.traced_ns as f64, t.untraced_ns as f64), "ratio");
}

/// The product's own per-stage p50 (from METRICS over the wire) beside
/// the matching bench span's median self time per call, from the read
/// or the write requests of the traced replay. A report, not a gate: the
/// bench has no span of its own for the cache probe or the install, so
/// those rows show `query_on` and `apply_delta` self time.
fn print_cross_check(wire: Option<&WireMetrics>, traced: Option<&Traced>) {
    let rows: [(Stage, &str, bool); 8] = [
        (Stage::Parse, names::PARSE, false),
        (Stage::CacheProbe, names::QUERY_ON, false),
        (Stage::Plan, names::PLAN, false),
        (Stage::Eval, names::EXEC, false),
        (Stage::Clone, names::CLONE, true),
        (Stage::Maintain, names::MAINTAIN, true),
        (Stage::WalAppend, names::APPEND, true),
        (Stage::Install, names::APPLY_DELTA, true),
    ];
    println!("# METRICS cross-check: product stage p50 [us] | bench span self p50 per call [us]");
    for (stage, span, write) in rows {
        let product = wire
            .and_then(|m| m.stage_histogram(stage))
            .and_then(|h| h.quantile(0.5))
            .map_or("-".to_string(), |v| v.to_string());
        let ours = traced.map_or("(trace 1)".to_string(), |t| {
            format!("{:.2}", if write { &t.writes } else { &t.reads }.p50_self_us(span))
        });
        println!("xcheck {stage:?} = {product} | {span} = {ours}");
    }
}

fn print_meta(args: &Args, g: &cpqx_graph::Graph, inputs: &Inputs) {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let workers = cpqx_net::ServerOptions::default().workers;
    let writer = if w.kind == Kind::MixedWrite {
        format!("{}/s open loop", workloads::WRITES_PER_SECOND)
    } else {
        "none".into()
    };
    println!("# perfbench workload={} why: {}", w.name, w.why);
    println!(
        "# meta nproc={nproc} commit={} seed={} held_out_seed={} seconds={} trace={} \
         dataset={} |V|={} |E|={} labels={} graph_seed={} queries={} warmup={} deltas={} \
         readers={} writer={writer} server_workers={workers} fsync={:?} \
         checkpoint_wal_bytes={}",
        git_commit(),
        args.seed,
        workloads::HELD_OUT_SEED,
        args.seconds,
        u8::from(args.trace),
        w.dataset,
        g.vertex_count(),
        g.edge_count(),
        g.base_label_count(),
        workloads::GRAPH_SEED,
        inputs.queries.len(),
        inputs.warmup.len(),
        inputs.deltas.len(),
        w.readers,
        setup::FSYNC,
        if w.kind == Kind::MixedWrite { workloads::CHECKPOINT_WAL_BYTES } else { 0 },
    );
}

/// The commit being measured: `git rev-parse HEAD` when the working
/// directory is the root of a git checkout, else `unknown`.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

/// A memory figure of this process from `/proc/self/status` (`VmHWM:`
/// is the peak resident set), in MiB.
fn rss_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("{e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Records this run's exact counts, keyed by workload, seed, trace mode
/// and a hash of this executable; when an earlier run of the same
/// binary left a record, every count must repeat exactly.
fn check_counts(
    out: &Path,
    args: &Args,
    counts: &Counts,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let exe = std::env::current_exe().and_then(std::fs::read).map_err(|e| format!("exe: {e}"))?;
    let build = util::mix64(
        exe.iter().fold(0u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)),
    );
    let dir = out.join("counts");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}-{build:016x}.txt",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    ));
    let mut text = String::new();
    for (k, v) in counts {
        let _ = writeln!(text, "{k} {v}");
    }
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev == text => {
            println!("# exact counts repeat those of an earlier run ({})", path.display());
        }
        Ok(prev) => problems.push(format!(
            "exact counts differ from an earlier same-seed run ({}):\nwas:\n{prev}now:\n{text}",
            path.display()
        )),
        Err(_) => std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?,
    }
    Ok(())
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, &(name, value, unit)) in metrics.iter().enumerate() {
        // JSON has no infinities; a failed op's latency reads as huge.
        let value = if value.is_finite() { value } else { 1e300 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}
