//! Crash recovery: latest valid snapshot + WAL tail → a serving engine.
//!
//! Recovery is the inverse of the write path, in three steps:
//!
//! 1. **Load** the live manifest's snapshot: reassemble the graph from
//!    its topology/name chunk records ([`Graph::from_chunk_parts`]
//!    rebuilds the label faces) and the index from its class
//!    chunk records ([`CpqxIndex::from_class_records`] rebuilds `Il2c`
//!    and pair → class) — **no index construction happens**; restart
//!    cost is I/O plus replay.
//! 2. **Replay** the WAL tail the manifest points at, applying each
//!    logged transaction through the engine's own
//!    [`cpqx_engine::apply_ops`] — the same lazy maintenance procedures
//!    that ran before the crash, so the recovered index is the one the
//!    engine would have served. A torn or corrupt record ends the
//!    committed prefix; the tail beyond it is dropped, never fatal.
//! 3. **Install** the result as epoch 0 via
//!    [`Engine::with_recovered`] and attach a [`Store`] resuming at the
//!    recovered position, so the next write appends where the log left
//!    off and the next checkpoint snapshots incrementally against the
//!    recovered generation.

use crate::manifest;
use crate::snapshot::{
    decode_class_chunk, decode_header, decode_name_chunk, decode_topology_chunk, read_record,
};
use crate::store::{Retained, Store, StoreOptions};
use crate::wal;
use cpqx_core::CpqxIndex;
use cpqx_engine::{apply_ops, Engine, EngineOptions};
use cpqx_graph::Graph;
use std::path::Path;
use std::sync::Arc;

/// Why recovery failed. Torn WAL tails are *not* errors (they are the
/// expected shape of a crash); these are genuine inconsistencies —
/// unreadable files, checksum-failing snapshot records, or a log that
/// contradicts the snapshot it should extend.
#[derive(Debug)]
pub enum RecoverError {
    /// An I/O error outside any record framing.
    Io(std::io::Error),
    /// A store file exists but its contents are invalid.
    Corrupt {
        /// The offending file.
        file: String,
        /// What was wrong with it.
        what: String,
    },
    /// A committed (checksum-valid) WAL transaction failed to decode or
    /// re-apply against the snapshot it should extend.
    Replay {
        /// Zero-based index of the transaction in replay order.
        txn: usize,
        /// Why it failed.
        reason: String,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "i/o error during recovery: {e}"),
            RecoverError::Corrupt { file, what } => write!(f, "corrupt store file {file}: {what}"),
            RecoverError::Replay { txn, reason } => {
                write!(f, "WAL replay failed at transaction {txn}: {reason}")
            }
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// What recovery restored (see [`DurableStart::recovered`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recovered {
    /// The snapshot generation the state was loaded from.
    pub generation: u64,
    /// Committed WAL transactions replayed on top of the snapshot.
    pub replayed_transactions: u64,
    /// Torn-tail bytes dropped from the end of the log (0 after a clean
    /// shutdown).
    pub dropped_wal_bytes: u64,
    /// Vertices in the recovered graph.
    pub vertex_count: u32,
    /// Base edges in the recovered graph.
    pub edge_count: u64,
    /// Wall-clock of the manifest read + validation.
    pub manifest_time: std::time::Duration,
    /// Wall-clock of chunk decode + graph/index reassembly.
    pub chunks_time: std::time::Duration,
    /// Wall-clock of the WAL tail replay.
    pub replay_time: std::time::Duration,
}

/// A durable engine, started: the engine (serving the recovered or
/// seeded state as epoch 0), the attached store, and what recovery
/// found.
pub struct DurableStart {
    /// The engine, with the store already attached as its durability
    /// sink.
    pub engine: Engine,
    /// The store persisting into the data directory (the same `Arc` the
    /// engine holds).
    pub store: Arc<Store>,
    /// `Some` when state was recovered from disk; `None` when the
    /// directory was fresh and the engine was built from the seed.
    pub recovered: Option<Recovered>,
}

/// Everything [`durable_engine`] needs beyond the public
/// [`recover_state`] view: the pre-replay retained image and the WAL
/// resume position.
struct FullRecovery {
    graph: Graph,
    index: CpqxIndex,
    retained: Retained,
    active_wal_gen: u64,
    active_wal_committed: u64,
    bytes_since_checkpoint: u64,
    info: Recovered,
}

fn corrupt(path: &Path, what: impl Into<String>) -> RecoverError {
    RecoverError::Corrupt { file: path.display().to_string(), what: what.into() }
}

fn recover_full(dir: &Path) -> Result<Option<FullRecovery>, RecoverError> {
    let t_manifest = std::time::Instant::now();
    let Some(m) = manifest::load_current(dir)? else { return Ok(None) };
    let mpath = dir.join(format!("manifest-{}", m.gen));
    let manifest_time = t_manifest.elapsed();

    // 1. Reassemble the snapshot state chunk by chunk.
    let t_chunks = std::time::Instant::now();
    let header = decode_header(&read_record(dir, m.header)?).map_err(|e| corrupt(&mpath, e))?;
    if header.topo_chunks != m.topo.len()
        || header.name_chunks != m.names.len()
        || header.class_chunks != m.classes.len()
    {
        return Err(corrupt(&mpath, "chunk tables disagree with snapshot header"));
    }
    let mut topology = Vec::with_capacity(m.topo.len());
    for (i, loc) in m.topo.iter().enumerate() {
        let (ci, start, rows) =
            decode_topology_chunk(&read_record(dir, *loc)?).map_err(|e| corrupt(&mpath, e))?;
        if ci != i {
            return Err(corrupt(&mpath, format!("topology chunk {ci} filed under index {i}")));
        }
        topology.push((start, rows));
    }
    let mut names = Vec::with_capacity(m.names.len());
    for (i, loc) in m.names.iter().enumerate() {
        let (ci, chunk) =
            decode_name_chunk(&read_record(dir, *loc)?).map_err(|e| corrupt(&mpath, e))?;
        if ci != i {
            return Err(corrupt(&mpath, format!("name chunk {ci} filed under index {i}")));
        }
        names.push(chunk);
    }
    let graph = Graph::from_chunk_parts(header.label_names, topology, names)
        .map_err(|e| corrupt(&mpath, format!("graph reassembly failed: {e}")))?;
    let mut class_chunks = Vec::with_capacity(m.classes.len());
    for (i, loc) in m.classes.iter().enumerate() {
        let (ci, records) = decode_class_chunk(header.k, &read_record(dir, *loc)?)
            .map_err(|e| corrupt(&mpath, e))?;
        if ci != i {
            return Err(corrupt(&mpath, format!("class chunk {ci} filed under index {i}")));
        }
        class_chunks.push(records);
    }
    let index = CpqxIndex::from_class_records(header.k, header.interests, class_chunks)
        .map_err(|e| corrupt(&mpath, format!("index reassembly failed: {e}")))?;
    let chunks_time = t_chunks.elapsed();

    // The retained image must alias the chunks of the state the engine
    // will serve, so the next incremental checkpoint sees unchanged
    // chunks as pointer-identical. Clone *before* replay mutates.
    let retained = Retained {
        graph: graph.clone(),
        index: index.clone(),
        topo: m.topo.clone(),
        names: m.names.clone(),
        classes: m.classes.clone(),
    };

    // 2. Replay the committed WAL tail.
    let t_replay = std::time::Instant::now();
    let mut graph = graph;
    let mut index = index;
    let segments: Vec<u64> =
        wal::list_segments(dir)?.into_iter().filter(|g| *g >= m.wal_gen).collect();
    let mut replayed = 0u64;
    let mut dropped = 0u64;
    let mut since_checkpoint = 0u64;
    let mut active = (m.wal_gen, 0u64);
    for gen in segments {
        let path = wal::segment_path(dir, gen);
        let scan = wal::scan_segment(&path)?;
        dropped += scan.dropped_bytes;
        let skip_to = if gen == m.wal_gen { m.wal_offset } else { 0 };
        let mut at = 0u64;
        for payload in &scan.records {
            let rec_len = 8 + payload.len() as u64;
            if at >= skip_to {
                let ops = wal::decode_ops(&graph, payload)
                    .map_err(|reason| RecoverError::Replay { txn: replayed as usize, reason })?;
                apply_ops(&mut graph, &mut index, &ops).map_err(|e| RecoverError::Replay {
                    txn: replayed as usize,
                    reason: format!("op {} rejected: {}", e.op_index, e.reason),
                })?;
                replayed += 1;
                since_checkpoint += rec_len;
            }
            at += rec_len;
        }
        active = (gen, scan.valid_len);
    }

    let info = Recovered {
        generation: m.gen,
        replayed_transactions: replayed,
        dropped_wal_bytes: dropped,
        vertex_count: graph.vertex_count(),
        edge_count: graph.edge_count() as u64,
        manifest_time,
        chunks_time,
        replay_time: t_replay.elapsed(),
    };
    Ok(Some(FullRecovery {
        graph,
        index,
        retained,
        active_wal_gen: active.0,
        active_wal_committed: active.1,
        bytes_since_checkpoint: since_checkpoint,
        info,
    }))
}

/// Read-only recovery: loads the latest valid snapshot and replays the
/// committed WAL tail **without opening anything for writing or
/// truncating torn tails** — the state a [`durable_engine`] call would
/// serve, as a pure function of the directory. `Ok(None)` means the
/// directory holds no store. The crash-consistency harness is built on
/// this: it can probe the same directory at many simulated crash points
/// without the probes disturbing each other.
pub fn recover_state(
    dir: impl AsRef<Path>,
) -> Result<Option<(Graph, CpqxIndex, Recovered)>, RecoverError> {
    Ok(recover_full(dir.as_ref())?.map(|r| (r.graph, r.index, r.info)))
}

/// Opens a durable engine on `dir`, creating the directory on first
/// use.
///
/// * If `dir` holds a store: recover (snapshot + WAL tail), install as
///   epoch 0 — the seed closure is **not** called, and `options.k` /
///   `options.interests` are overridden by the persisted index's so
///   rebuilds reproduce the recovered configuration.
/// * If `dir` is fresh: build the engine from `seed()` under `options`,
///   then bootstrap the store with a full generation-1 snapshot (the
///   WAL alone cannot reconstruct a seed state, so durability starts
///   with a checkpoint).
///
/// Either way the returned engine has the store attached: every
/// subsequent typed delta transaction is logged before it installs, and
/// checkpoints follow `options.durability.checkpoint_wal_bytes`.
///
/// A directory with WAL segments but no valid manifest is an error, not
/// a fresh start — silently reseeding would discard logged data.
pub fn durable_engine(
    dir: impl AsRef<Path>,
    store_options: StoreOptions,
    mut options: EngineOptions,
    seed: impl FnOnce() -> Graph,
) -> Result<DurableStart, RecoverError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    if let Some(r) = recover_full(dir)? {
        options.k = r.index.k();
        options.interests = r.index.interests().map(|lq| lq.iter().copied().collect());
        let engine = Engine::with_recovered(r.graph, r.index, options);
        let store = Arc::new(Store::resume(
            dir,
            store_options,
            r.active_wal_gen,
            r.active_wal_committed,
            r.bytes_since_checkpoint,
            Some(r.retained),
        )?);
        engine.attach_durability(store.clone());
        // Restart timings land in the recorder like any other pipeline,
        // so METRICS exposes recovery stages alongside serving stages.
        engine.obs().record_recovery(
            r.info.manifest_time,
            r.info.chunks_time,
            r.info.replay_time,
            engine.epoch(),
        );
        return Ok(DurableStart { engine, store, recovered: Some(r.info) });
    }
    if !wal::list_segments(dir)?.is_empty() {
        return Err(RecoverError::Corrupt {
            file: dir.display().to_string(),
            what: "WAL segments present but no valid manifest".into(),
        });
    }
    let (engine, _report) = Engine::with_options(seed(), options);
    let snap = engine.snapshot();
    let store = Arc::new(Store::create(dir, store_options, snap.graph(), snap.index())?);
    drop(snap);
    engine.attach_durability(store.clone());
    Ok(DurableStart { engine, store, recovered: None })
}
