//! Set-up and tear-down of the system under test: generate the graph,
//! build the engine (durable for `mixed_write`), bind the server and
//! warm up; afterwards stop it, measure the store and reopen it.

use crate::sink::BenchSink;
use crate::spans::Tracer;
use crate::workloads::{
    Inputs, Kind, Query, Workload, CHECKPOINT_WAL_BYTES, EDGE_BUDGET, GRAPH_SEED,
};
use cpqx_engine::{DurabilityOptions, Engine, EngineOptions};
use cpqx_net::{Client, Server, ServerOptions};
use cpqx_obs::Stage;
use cpqx_store::{durable_engine, FsyncPolicy, Recovered, StoreOptions};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const FSYNC: FsyncPolicy = FsyncPolicy::Always;

pub fn engine_options(w: &Workload) -> EngineOptions {
    let mut options = EngineOptions::default();
    if w.kind == Kind::MixedWrite {
        options.durability = DurabilityOptions { checkpoint_wal_bytes: Some(CHECKPOINT_WAL_BYTES) };
    }
    options
}

/// Phase times of one set-up, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total: f64,
    pub generate: f64,
    pub level1: f64,
    pub refine: f64,
    pub merge: f64,
    /// `mixed_write`: store bootstrap (the generation-1 snapshot).
    pub bootstrap: f64,
}

/// A built engine, before or without a server.
pub struct Built {
    pub engine: Arc<Engine>,
    /// `mixed_write`: the store directory and the wrapper attached as
    /// the engine's durability sink.
    pub store: Option<(PathBuf, Arc<BenchSink>)>,
    pub times: SetupTimes,
}

/// Generates the graph and builds the engine; `mixed_write` opens a
/// durable engine on a fresh directory `dir` and attaches a
/// [`BenchSink`] (spans go to `tracer` when given).
pub fn build(
    w: &Workload,
    dir: &Path,
    tracer: Option<Arc<Mutex<Tracer>>>,
) -> Result<Built, String> {
    let t0 = Instant::now();
    let mut generate = Duration::ZERO;
    let mut seed = || {
        let t = Instant::now();
        let g = w.dataset.generate(EDGE_BUDGET, GRAPH_SEED);
        generate = t.elapsed();
        g
    };
    let options = engine_options(w);
    let (engine, store) = if w.kind == Kind::MixedWrite {
        remove_dir(dir)?;
        let start = durable_engine(dir, StoreOptions { fsync: FSYNC }, options, &mut seed)
            .map_err(|e| format!("durable_engine({}): {e}", dir.display()))?;
        if start.recovered.is_some() {
            return Err(format!("{} was not fresh", dir.display()));
        }
        let sink = Arc::new(BenchSink::new(start.store, tracer));
        start.engine.attach_durability(sink.clone());
        (start.engine, Some((dir.to_path_buf(), sink)))
    } else {
        (Engine::with_options(seed(), options).0, None)
    };
    let total = t0.elapsed().as_secs_f64();
    let stage_s = |s: Stage| engine.obs().stage_snapshot(s).sum() as f64 / 1e6;
    let (level1, refine, merge) =
        (stage_s(Stage::BuildLevel1), stage_s(Stage::BuildShards), stage_s(Stage::BuildMerge));
    let generate = generate.as_secs_f64();
    let bootstrap =
        if store.is_some() { (total - generate - level1 - refine - merge).max(0.0) } else { 0.0 };
    let times = SetupTimes { total, generate, level1, refine, merge, bootstrap };
    Ok(Built { engine: Arc::new(engine), store, times })
}

/// Warms an engine in-process with the same queries the wire warm-up
/// sends (the replay's starting state).
pub fn warm_in_process(engine: &Engine, warmup: &[Query]) {
    for q in warmup {
        std::hint::black_box(engine.query(&q.cpq));
    }
}

/// A served set-up: the engine behind a loopback server, warmed up.
pub struct Served {
    pub built: Built,
    pub server: Server,
}

/// One full set-up as `setup_s` times it: build, bind, warm up over
/// the wire.
pub fn serve(w: &Workload, inputs: &Inputs, dir: &Path) -> Result<Served, String> {
    let t0 = Instant::now();
    let mut built = build(w, dir, None)?;
    let server = Server::bind(built.engine.clone(), "127.0.0.1:0", ServerOptions::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    for q in &inputs.warmup {
        client.query(&q.text).map_err(|e| format!("warm-up query {:?}: {e}", q.text))?;
    }
    drop(client);
    built.times.total = t0.elapsed().as_secs_f64();
    Ok(Served { built, server })
}

impl Served {
    /// Stops the server and drops the engine (closing the store).
    /// Returns the store directory, if any.
    pub fn stop(self) -> Option<PathBuf> {
        self.server.shutdown();
        self.built.store.map(|(dir, _)| dir)
    }
}

/// What reopening the store found.
pub struct Reopened {
    pub engine: Engine,
    pub recovered: Recovered,
    /// Median wall time of the reopenings, in seconds.
    pub recover_s: f64,
}

/// Reopens `dir` into a serving engine `reps` times (the seed closure
/// must never run: the directory holds a store) and keeps the last.
pub fn reopen(w: &Workload, dir: &Path, reps: usize) -> Result<Reopened, String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        let start = durable_engine(dir, StoreOptions { fsync: FSYNC }, engine_options(w), || {
            w.dataset.generate(EDGE_BUDGET, GRAPH_SEED)
        })
        .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
        times.push(t0.elapsed().as_secs_f64());
        let recovered =
            start.recovered.ok_or_else(|| format!("{} held no store", dir.display()))?;
        last = Some((start.engine, recovered));
    }
    let (engine, recovered) = last.ok_or("no reopening")?;
    Ok(Reopened { engine, recovered, recover_s: crate::util::median(&times) })
}

/// Total bytes of the regular files directly in `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut total = 0;
    for entry in entries {
        let meta = entry.and_then(|e| e.metadata()).map_err(|e| format!("{e}"))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", dir.display())),
    }
}
