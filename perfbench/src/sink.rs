//! The benchmark's durability wrapper: a [`DurabilitySink`] around the
//! real [`Store`], attached with `Engine::attach_durability`. It counts
//! what the store does (appends, WAL bytes, checkpoints, chunk records
//! written and skipped) and, in the traced replay, opens a span around
//! each call.

use crate::spans::{names, within, Tracer};
use cpqx_core::CpqxIndex;
use cpqx_engine::{CheckpointReport, DeltaOp, DurabilitySink};
use cpqx_graph::Graph;
use cpqx_store::Store;
use std::sync::{Arc, Mutex};

/// Store activity as counted by the wrapper.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreTally {
    pub appends: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
    pub chunks_written: u64,
    pub chunks_skipped: u64,
}

pub struct BenchSink {
    inner: Arc<Store>,
    tally: Mutex<StoreTally>,
    tracer: Option<Arc<Mutex<Tracer>>>,
}

impl BenchSink {
    pub fn new(inner: Arc<Store>, tracer: Option<Arc<Mutex<Tracer>>>) -> BenchSink {
        BenchSink { inner, tally: Mutex::default(), tracer }
    }

    /// What the store has done so far.
    pub fn tally(&self) -> StoreTally {
        *self.tally.lock().expect("tally lock poisoned")
    }

    /// Runs `f` in a span under the innermost open one (the replay's
    /// `Engine::apply_delta` span).
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            Some(t) => within(t, None, name, false, f).0,
            None => f(),
        }
    }
}

impl DurabilitySink for BenchSink {
    fn append(&self, graph: &Graph, ops: &[DeltaOp]) -> std::io::Result<u64> {
        let bytes = self.span(names::APPEND, || self.inner.append(graph, ops))?;
        let mut t = self.tally.lock().expect("tally lock poisoned");
        t.appends += 1;
        t.wal_bytes += bytes;
        Ok(bytes)
    }

    fn wal_bytes_since_checkpoint(&self) -> u64 {
        self.inner.wal_bytes_since_checkpoint()
    }

    fn checkpoint(&self, graph: &Graph, index: &CpqxIndex) -> std::io::Result<CheckpointReport> {
        let report = self.span(names::CHECKPOINT, || self.inner.checkpoint(graph, index))?;
        let mut t = self.tally.lock().expect("tally lock poisoned");
        t.checkpoints += 1;
        t.chunks_written += report.chunks_written;
        t.chunks_skipped += report.chunks_skipped;
        Ok(report)
    }
}
