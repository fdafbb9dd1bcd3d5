//! The cpqx wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message on the wire is one **frame**: a 4-byte big-endian payload
//! length followed by the payload. The first payload byte is the opcode;
//! the rest is the opcode's body, encoded with the primitives below
//! (big-endian integers, `u32`-length-prefixed UTF-8 strings,
//! `u32`-count-prefixed lists). A connection starts with a handshake —
//! the client sends [`Request::Hello`] carrying the [`MAGIC`] bytes and
//! its protocol version, the server answers [`Response::HelloAck`] or an
//! [`ErrorCode::UnsupportedVersion`] error frame — after which requests
//! may be pipelined: the server answers frames strictly in arrival order,
//! so a client may write several requests before reading any response.
//!
//! Queries travel as CPQ *text* (the [`cpqx_query::parse_cpq`] syntax)
//! and are resolved against the label table of the snapshot that serves
//! them; answers travel as packed [`Pair`] words plus the epoch of the
//! snapshot they were evaluated on, so a client can correlate every
//! answer with one graph version even while the server applies
//! maintenance. Malformed queries come back as typed error frames
//! ([`ErrorCode::Parse`] / [`ErrorCode::UnknownLabel`]) carrying the byte
//! position reported by the parser.
//!
//! Codec functions ([`encode_request`]/[`decode_request`],
//! [`encode_response`]/[`decode_response`]) are pure byte-slice
//! transformations; [`read_frame`]/[`write_frame`] do the I/O. Decoding
//! never panics on adversarial input — every failure is a typed
//! [`DecodeError`] — and frames above the caller's size bound are
//! rejected before any allocation ([`FrameError::TooLarge`]).
//!
//! See `PROTOCOL.md` at the repository root for the normative frame
//! layout tables.

use cpqx_graph::Pair;
use cpqx_obs::{HistogramSnapshot, Metric, MetricKind, Op as ObsOp, Span, Stage, Trace, TraceKind};
use cpqx_query::{ParseError, ParseErrorKind};
use std::io::{self, Read, Write};

/// Handshake magic carried by the HELLO frame (`b"CPQX"`).
pub const MAGIC: [u8; 4] = *b"CPQX";

/// The protocol version this build speaks. The handshake requires an
/// exact match (pre-release protocol: no cross-version compatibility
/// promise). Version 2 added the typed DELTA/DELTA_ACK frames and
/// extended the STATS report with maintenance counters; version 3
/// extended STATS again with the copy-on-write sharing gauges
/// (`cow_chunks_copied` / `cow_chunks_shared`); version 4 appended the
/// durability gauges (`wal_appends` / `wal_bytes` / `snapshots_written`
/// / `snapshot_chunks_skipped`); version 5 added the METRICS /
/// METRICS_RESULT frames (per-opcode and per-stage latency histograms,
/// the slow-query ring, and observed-workload key counts); version 6
/// extended STATS with the front-end counters it silently dropped
/// (`metrics_requests` / `rejected_connections`), added the
/// `open_connections` gauge to the METRICS net counters, the event-loop
/// server stages to the METRICS stage histograms, and the
/// [`ErrorCode::Busy`] / [`ErrorCode::Timeout`] error codes; version 7
/// added the [`ErrorCode::TooLarge`] error code and the `count` field of
/// error frames ([`WireError::count`]), which carries the answer count
/// of a reply too large for a frame; version 8 replaced the METRICS
/// frame's fixed net counters (and its `slow_total` /
/// `workload_dropped` fields) with a name-tagged list of every metrics
/// registry value ([`WireMetrics::counters`]) and added the
/// [`Stage::QueueWait`] stage tag. The STATS layout is unchanged since
/// version 6 ([`STATS_LAYOUT`]).
pub const PROTOCOL_VERSION: u16 = 8;

/// Default bound on accepted payload sizes (16 MiB). Servers apply it to
/// requests, clients to responses; both sides make it configurable.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

// Request opcodes (client → server).
const OP_HELLO: u8 = 0x01;
const OP_PING: u8 = 0x02;
const OP_QUERY: u8 = 0x03;
const OP_BATCH: u8 = 0x04;
const OP_UPDATE: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_DELTA: u8 = 0x07;
const OP_METRICS: u8 = 0x08;

// Response opcodes (server → client): request opcode | 0x80.
const OP_HELLO_ACK: u8 = 0x81;
const OP_PONG: u8 = 0x82;
const OP_RESULT: u8 = 0x83;
const OP_BATCH_RESULT: u8 = 0x84;
const OP_UPDATE_ACK: u8 = 0x85;
const OP_STATS_RESULT: u8 = 0x86;
const OP_DELTA_ACK: u8 = 0x87;
const OP_METRICS_RESULT: u8 = 0x88;
const OP_ERROR: u8 = 0xFF;

/// A client → server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Handshake opener: magic + the client's protocol version.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Evaluate one CPQ, given in the text syntax of
    /// [`cpqx_query::parse_cpq`].
    Query(String),
    /// Evaluate several CPQs against one consistent snapshot.
    Batch(Vec<String>),
    /// Insert or delete one base edge — the legacy opaque update form,
    /// served as a one-op delta transaction since protocol 2.
    Update {
        /// `true` inserts the edge, `false` deletes it.
        insert: bool,
        /// Source vertex id.
        src: u32,
        /// Target vertex id.
        dst: u32,
        /// Base label name, resolved against the current snapshot.
        label: String,
    },
    /// Fetch the server's statistics report.
    Stats,
    /// Apply an atomic typed delta transaction (protocol ≥ 2): every op
    /// lands in one engine write transaction, acknowledged with per-op
    /// outcomes by [`Response::DeltaAck`].
    Delta(Vec<WireOp>),
    /// Fetch the server's observability report (protocol ≥ 5):
    /// per-opcode and per-stage latency histograms, net request
    /// counters, the slow-query ring, and observed-workload key counts.
    Metrics,
}

/// One typed maintenance op inside a [`Request::Delta`] frame. Labels
/// travel as names and are resolved against the snapshot current when
/// the server applies the transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireOp {
    /// Insert the base edge `(src, dst, label)`.
    InsertEdge {
        /// Source vertex id.
        src: u32,
        /// Target vertex id.
        dst: u32,
        /// Base label name.
        label: String,
    },
    /// Delete the base edge `(src, dst, label)`.
    DeleteEdge {
        /// Source vertex id.
        src: u32,
        /// Target vertex id.
        dst: u32,
        /// Base label name.
        label: String,
    },
    /// Relabel the base edge `(src, dst, from)` to `to`.
    ChangeEdgeLabel {
        /// Source vertex id.
        src: u32,
        /// Target vertex id.
        dst: u32,
        /// Current base label name.
        from: String,
        /// New base label name.
        to: String,
    },
    /// Add an isolated vertex; its id comes back as
    /// [`WireOutcome::VertexAdded`] and later ops of the same delta may
    /// reference it.
    ///
    /// The wire has no symbolic reference for a not-yet-allocated id,
    /// so a later op can only name it by *predicting* the id (the
    /// vertex count at apply time). That prediction is reliable only
    /// for a sole writer: under concurrent writers another delta may
    /// allocate the predicted id first, silently wiring your edges to
    /// *its* vertex. Multi-writer clients must treat the id in the ack
    /// as authoritative and send dependent edges in a follow-up delta.
    AddVertex {
        /// Display name of the new vertex.
        name: String,
    },
    /// Remove all edges incident to a vertex (the id stays allocated).
    DeleteVertex {
        /// The vertex id.
        vertex: u32,
    },
    /// iaCPQx only: register an interest label sequence.
    InsertInterest {
        /// The sequence, one direction-aware label per step.
        seq: Vec<WireSeqLabel>,
    },
    /// iaCPQx only: drop an interest label sequence.
    DeleteInterest {
        /// The sequence, one direction-aware label per step.
        seq: Vec<WireSeqLabel>,
    },
}

/// One step of a wire-encoded interest sequence: a base label name plus
/// a traversal direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSeqLabel {
    /// `true` for the inverse direction (`ℓ⁻¹`).
    pub inverse: bool,
    /// Base label name.
    pub label: String,
}

/// What one op of an acknowledged delta did (see
/// `cpqx_engine::OpOutcome`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireOutcome {
    /// The op changed the graph/index.
    Applied,
    /// The op was valid but changed nothing.
    Noop,
    /// An `AddVertex` op allocated this vertex id.
    VertexAdded(u32),
}

/// A server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake accepted at the given version.
    HelloAck {
        /// The version the connection will speak.
        version: u16,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Query`].
    Result {
        /// Epoch of the snapshot the query was evaluated on.
        epoch: u64,
        /// The sorted, deduplicated answer set.
        pairs: Vec<Pair>,
    },
    /// Answer to [`Request::Batch`]: per-query answers in request order,
    /// all evaluated on one snapshot.
    BatchResult {
        /// Epoch of the snapshot every answer reflects.
        epoch: u64,
        /// Per-query answer sets, in request order.
        results: Vec<Vec<Pair>>,
    },
    /// Answer to [`Request::Update`].
    UpdateAck {
        /// Whether the update changed the graph (`false` for inserting
        /// an existing edge or deleting a missing one).
        applied: bool,
        /// The engine epoch after the update.
        epoch: u64,
    },
    /// Answer to [`Request::Stats`] (boxed: at 33 values the payload
    /// would otherwise dominate every `Response`'s size).
    Stats(Box<WireStats>),
    /// Answer to [`Request::Delta`]: the transaction committed as one
    /// snapshot install (or changed nothing), with per-op outcomes in op
    /// order. Rejected deltas come back as [`ErrorCode::BadUpdate`]
    /// error frames instead, naming the offending op.
    DeltaAck {
        /// The engine epoch whose snapshot reflects the whole
        /// transaction.
        epoch: u64,
        /// Whether the fragmentation threshold triggered a defragmenting
        /// rebuild inside this transaction.
        rebuilt: bool,
        /// Per-op outcomes, in op order.
        outcomes: Vec<WireOutcome>,
    },
    /// Answer to [`Request::Metrics`] (protocol ≥ 5; boxed — the
    /// histograms and slow-query ring dominate every other response's
    /// size).
    Metrics(Box<WireMetrics>),
    /// Any request can fail with a typed error frame.
    Error(WireError),
}

/// Typed failure classes carried by error frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Handshake version (or magic) not accepted.
    UnsupportedVersion,
    /// The frame payload did not decode as a known message.
    BadFrame,
    /// The opcode byte is not assigned.
    UnknownOpcode,
    /// The query text is not a well-formed CPQ.
    Parse,
    /// The query is well-formed but names a label the graph lacks.
    UnknownLabel,
    /// The update names an unknown label or an out-of-range vertex.
    BadUpdate,
    /// The server failed internally.
    Internal,
    /// The server is at its connection capacity (protocol ≥ 6): sent
    /// best-effort before an over-capacity connection is closed, so
    /// clients can tell overload from a crashed server.
    Busy,
    /// The connection timed out mid-frame (protocol ≥ 6): the stream is
    /// desynchronized and the server drops it after this final frame. An
    /// *idle* timeout — no partial frame buffered — closes cleanly
    /// without an error frame.
    Timeout,
    /// The reply would exceed the frame limit (protocol ≥ 7): the server
    /// sends this error in its place, carrying the reply's answer count
    /// in [`WireError::count`]. The frame boundary is intact, so the
    /// connection stays usable.
    TooLarge,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::UnsupportedVersion => 1,
            ErrorCode::BadFrame => 2,
            ErrorCode::UnknownOpcode => 3,
            ErrorCode::Parse => 4,
            ErrorCode::UnknownLabel => 5,
            ErrorCode::BadUpdate => 6,
            ErrorCode::Internal => 7,
            ErrorCode::Busy => 8,
            ErrorCode::Timeout => 9,
            ErrorCode::TooLarge => 10,
        }
    }

    fn from_u8(b: u8) -> Result<Self, DecodeError> {
        Ok(match b {
            1 => ErrorCode::UnsupportedVersion,
            2 => ErrorCode::BadFrame,
            3 => ErrorCode::UnknownOpcode,
            4 => ErrorCode::Parse,
            5 => ErrorCode::UnknownLabel,
            6 => ErrorCode::BadUpdate,
            7 => ErrorCode::Internal,
            8 => ErrorCode::Busy,
            9 => ErrorCode::Timeout,
            10 => ErrorCode::TooLarge,
            _ => return Err(DecodeError::BadValue("error code")),
        })
    }
}

/// An error frame: code, optional byte position (for parse errors), a
/// human-readable message and an optional count (for oversize replies).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// What class of failure this is.
    pub code: ErrorCode,
    /// Byte offset into the offending query text, when meaningful.
    pub position: Option<u32>,
    /// Human-readable description.
    pub message: String,
    /// For [`ErrorCode::TooLarge`], the number of answer pairs the
    /// refused reply carried (protocol ≥ 7).
    pub count: Option<u64>,
}

impl WireError {
    /// Convenience constructor for position-less errors.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError { code, position: None, message: message.into(), count: None }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.position {
            Some(p) => write!(f, "{:?} at byte {}: {}", self.code, p, self.message),
            None => write!(f, "{:?}: {}", self.code, self.message),
        }
    }
}

impl std::error::Error for WireError {}

impl From<ParseError> for WireError {
    fn from(e: ParseError) -> Self {
        WireError {
            code: match e.kind {
                ParseErrorKind::Syntax => ErrorCode::Parse,
                ParseErrorKind::UnknownLabel => ErrorCode::UnknownLabel,
            },
            position: Some(e.position.min(u32::MAX as usize) as u32),
            message: e.message,
            count: None,
        }
    }
}

/// One slot of the STATS frame: a registry value, or a value the
/// server derives when it builds the report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsField {
    /// Current engine epoch.
    Epoch,
    /// A metrics-registry value (see [`cpqx_obs::metrics`]).
    Metric(Metric),
    /// Allocated class slots of the serving index (tombstones included).
    ClassSlots,
    /// Class count of the full build the serving index descends from.
    BaselineClasses,
    /// Median engine query latency in microseconds, from the
    /// `Op::Query` histogram (0 while the recorder is disabled).
    P50Us,
    /// 99th-percentile engine query latency in microseconds, from the
    /// same histogram.
    P99Us,
}

impl StatsField {
    /// Short name: the registry name without its `cpqx_` prefix and
    /// `_total` suffix, or the derived value's name.
    pub fn name(self) -> &'static str {
        match self {
            StatsField::Epoch => "epoch",
            StatsField::Metric(m) => {
                let name = m.name().strip_prefix("cpqx_").unwrap_or(m.name());
                name.strip_suffix("_total").unwrap_or(name)
            }
            StatsField::ClassSlots => "class_slots",
            StatsField::BaselineClasses => "baseline_classes",
            StatsField::P50Us => "p50_us",
            StatsField::P99Us => "p99_us",
        }
    }
}

impl From<Metric> for StatsField {
    fn from(m: Metric) -> StatsField {
        StatsField::Metric(m)
    }
}

/// Number of `u64` slots in the STATS frame.
pub const STATS_FIELDS: usize = 33;

/// The STATS frame's slots in wire order: the one place that order is
/// written. Frozen since protocol 6; a new signal goes into the
/// registry (and so into METRICS), not here.
pub const STATS_LAYOUT: [StatsField; STATS_FIELDS] = {
    use Metric as M;
    use StatsField::Metric as R;
    [
        StatsField::Epoch,
        R(M::Queries),
        R(M::ResultHits),
        R(M::ResultMisses),
        R(M::PlanHits),
        R(M::PlanMisses),
        R(M::SnapshotSwaps),
        R(M::InvalidatedResults),
        R(M::RejectedAdmissions),
        R(M::DeltaTransactions),
        R(M::LazyUpdateOps),
        R(M::Rebuilds),
        R(M::AutoRebuilds),
        R(M::CowChunksCopied),
        R(M::CowChunksShared),
        StatsField::ClassSlots,
        StatsField::BaselineClasses,
        StatsField::P50Us,
        StatsField::P99Us,
        R(M::PingRequests),
        R(M::QueryRequests),
        R(M::BatchRequests),
        R(M::UpdateRequests),
        R(M::DeltaRequests),
        R(M::StatsRequests),
        R(M::MetricsRequests),
        R(M::ErrorResponses),
        R(M::Connections),
        R(M::RejectedConnections),
        R(M::WalAppends),
        R(M::WalBytes),
        R(M::SnapshotsWritten),
        R(M::SnapshotChunksSkipped),
    ]
};

/// The statistics report the STATS frame carries: one `u64` per
/// [`STATS_LAYOUT`] slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireStats {
    values: [u64; STATS_FIELDS],
}

impl Default for WireStats {
    fn default() -> Self {
        WireStats { values: [0; STATS_FIELDS] }
    }
}

impl WireStats {
    /// Builds a report by asking `value` for every slot, in wire order.
    pub fn from_fn(value: impl FnMut(StatsField) -> u64) -> WireStats {
        WireStats { values: STATS_LAYOUT.map(value) }
    }

    /// The value of one slot; `None` for a registry entry the frozen
    /// layout does not carry (METRICS carries every entry).
    pub fn get(&self, field: impl Into<StatsField>) -> Option<u64> {
        let field = field.into();
        STATS_LAYOUT.iter().position(|&f| f == field).map(|i| self.values[i])
    }

    fn value(&self, field: impl Into<StatsField>) -> u64 {
        self.get(field).unwrap_or(0)
    }

    /// Result-cache hit rate, `hits / (hits + misses)`.
    pub fn result_hit_rate(&self) -> f64 {
        let hits = self.value(Metric::ResultHits);
        let total = hits + self.value(Metric::ResultMisses);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Total requests served across all opcodes: every slot whose
    /// registry unit is `requests`.
    pub fn total_requests(&self) -> u64 {
        let requests =
            |f: &StatsField| matches!(f, StatsField::Metric(m) if m.unit() == "requests");
        STATS_LAYOUT.iter().zip(self.values).filter(|(f, _)| requests(f)).map(|(_, v)| v).sum()
    }

    /// Current fragmentation ratio of the serving index,
    /// `class_slots / baseline_classes` (0.0 when unreported).
    pub fn fragmentation_ratio(&self) -> f64 {
        match self.value(StatsField::BaselineClasses) {
            0 => 0.0,
            baseline => self.value(StatsField::ClassSlots) as f64 / baseline as f64,
        }
    }
}

/// Every slot as `name=value`, in wire order.
impl std::fmt::Display for WireStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (field, value)) in STATS_LAYOUT.iter().zip(self.values).enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{}={value}", field.name())?;
        }
        Ok(())
    }
}

/// One name-tagged registry value in a METRICS report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSample {
    /// The registry's series name ([`Metric::name`]).
    pub name: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// The value when the report was built.
    pub value: u64,
}

/// The observability report the METRICS frame carries (protocol ≥ 5):
/// per-opcode and per-stage latency histograms in the sparse
/// log-bucketed form of [`HistogramSnapshot`], every metrics-registry
/// value (protocol ≥ 8), the slow-query ring, and the canonical-key
/// workload counts that feed index advisor tooling.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// Current engine epoch.
    pub epoch: u64,
    /// Per-opcode latency histograms, tag order; histograms with no
    /// samples are omitted.
    pub ops: Vec<(ObsOp, HistogramSnapshot)>,
    /// Per-stage latency histograms, tag order; histograms with no
    /// samples are omitted.
    pub stages: Vec<(Stage, HistogramSnapshot)>,
    /// Every registry counter and gauge, in registry order.
    pub counters: Vec<WireSample>,
    /// Slow-query ring contents, oldest first.
    pub slow: Vec<Trace>,
    /// Canonical-key workload counts, most frequent first.
    pub workload: Vec<(String, u64)>,
}

impl WireMetrics {
    /// The latency histogram recorded for `op` (`None` if no traffic
    /// landed under that opcode).
    pub fn op_histogram(&self, op: ObsOp) -> Option<&HistogramSnapshot> {
        self.ops.iter().find(|(o, _)| *o == op).map(|(_, h)| h)
    }

    /// The latency histogram recorded for `stage` (`None` if the stage
    /// never ran).
    pub fn stage_histogram(&self, stage: Stage) -> Option<&HistogramSnapshot> {
        self.stages.iter().find(|(s, _)| *s == stage).map(|(_, h)| h)
    }

    /// The reported value of a registry entry (`None` if absent).
    pub fn get(&self, metric: Metric) -> Option<u64> {
        self.counters.iter().find(|c| c.name == metric.name()).map(|c| c.value)
    }
}

/// Why a payload failed to decode. Strictly recoverable: the frame
/// boundary is intact, so a server can answer with an error frame and
/// keep the connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the message did.
    Truncated,
    /// Bytes remained after the message ended.
    Trailing,
    /// The opcode byte is not assigned.
    UnknownOpcode(u8),
    /// A HELLO frame without the [`MAGIC`] bytes.
    BadMagic,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A field held an out-of-domain value (context in the payload).
    BadValue(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::Trailing => write!(f, "trailing bytes after message"),
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::BadMagic => write!(f, "bad handshake magic"),
            DecodeError::BadUtf8 => write!(f, "string field is not UTF-8"),
            DecodeError::BadValue(what) => write!(f, "out-of-domain value for {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        let code = match e {
            DecodeError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
            DecodeError::BadMagic => ErrorCode::UnsupportedVersion,
            _ => ErrorCode::BadFrame,
        };
        WireError::new(code, e.to_string())
    }
}

// ---------------------------------------------------------------- codec --

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_pairs(out: &mut Vec<u8>, pairs: &[Pair]) {
    out.reserve(4 + pairs.len() * 8);
    put_u32(out, pairs.len() as u32);
    let start = out.len();
    out.resize(start + pairs.len() * 8, 0);
    let (_, body) = out.split_at_mut(start);
    for (dst, p) in body.chunks_exact_mut(8).zip(pairs) {
        dst.copy_from_slice(&p.0.to_be_bytes());
    }
}

/// Bounds-checked big-endian reader over a payload slice.
struct Cur<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.at.checked_add(n).ok_or(DecodeError::Truncated)?;
        let s = self.buf.get(self.at..end).ok_or(DecodeError::Truncated)?;
        self.at = end;
        Ok(s)
    }

    /// `take(N)` as a fixed array; the length mismatch arm is
    /// unreachable but still surfaces as `Truncated` rather than a
    /// panic.
    fn take_arr<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| DecodeError::Truncated)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        let [b] = self.take_arr()?;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.take_arr()?))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take_arr()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take_arr()?))
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::BadValue("bool")),
        }
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    fn op(&mut self) -> Result<WireOp, DecodeError> {
        Ok(match self.u8()? {
            OPTAG_INSERT_EDGE => {
                WireOp::InsertEdge { src: self.u32()?, dst: self.u32()?, label: self.str()? }
            }
            OPTAG_DELETE_EDGE => {
                WireOp::DeleteEdge { src: self.u32()?, dst: self.u32()?, label: self.str()? }
            }
            OPTAG_CHANGE_EDGE_LABEL => WireOp::ChangeEdgeLabel {
                src: self.u32()?,
                dst: self.u32()?,
                from: self.str()?,
                to: self.str()?,
            },
            OPTAG_ADD_VERTEX => WireOp::AddVertex { name: self.str()? },
            OPTAG_DELETE_VERTEX => WireOp::DeleteVertex { vertex: self.u32()? },
            OPTAG_INSERT_INTEREST => WireOp::InsertInterest { seq: self.seq()? },
            OPTAG_DELETE_INTEREST => WireOp::DeleteInterest { seq: self.seq()? },
            _ => return Err(DecodeError::BadValue("delta op tag")),
        })
    }

    fn seq(&mut self) -> Result<Vec<WireSeqLabel>, DecodeError> {
        let n = self.u8()? as usize;
        // Sequences are bounded structurally (they must fit a LabelSeq),
        // so a hostile count is rejected before any resolution work.
        if n > cpqx_graph::MAX_SEQ_LEN {
            return Err(DecodeError::BadValue("interest sequence length"));
        }
        (0..n).map(|_| Ok(WireSeqLabel { inverse: self.bool()?, label: self.str()? })).collect()
    }

    fn outcome(&mut self) -> Result<WireOutcome, DecodeError> {
        Ok(match self.u8()? {
            0 => WireOutcome::Noop,
            1 => WireOutcome::Applied,
            2 => WireOutcome::VertexAdded(self.u32()?),
            _ => return Err(DecodeError::BadValue("op outcome")),
        })
    }

    fn pairs(&mut self) -> Result<Vec<Pair>, DecodeError> {
        let n = self.u32()? as usize;
        // The count must be consistent with the remaining payload before
        // any allocation, so a hostile length cannot balloon memory (and
        // the 8×n product is overflow-checked, unlike the old `n * 8`).
        if self_inconsistent_count(n, 8, self.remaining()) {
            return Err(DecodeError::Truncated);
        }
        let len = n.checked_mul(8).ok_or(DecodeError::Truncated)?;
        let (words, rest) = self.take(len)?.as_chunks::<8>();
        if !rest.is_empty() {
            return Err(DecodeError::Truncated);
        }
        let mut out = Vec::with_capacity(words.len());
        out.extend(words.iter().map(|w| Pair(u64::from_be_bytes(*w))));
        Ok(out)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn hist(&mut self) -> Result<HistogramSnapshot, DecodeError> {
        let total = self.u64()?;
        let sum = self.u64()?;
        let max = self.u64()?;
        let n = self.u16()? as usize;
        // Each non-zero bucket is (u16 index, u64 count) = 10 bytes.
        if self_inconsistent_count(n, 10, self.remaining()) {
            return Err(DecodeError::Truncated);
        }
        let mut nonzero = Vec::with_capacity(n);
        for _ in 0..n {
            nonzero.push((self.u16()?, self.u64()?));
        }
        // from_parts rejects out-of-range bucket indices and count
        // overflow — both only reachable from hostile payloads.
        HistogramSnapshot::from_parts(total, sum, max, &nonzero)
            .ok_or(DecodeError::BadValue("histogram bucket"))
    }

    fn trace(&mut self) -> Result<Trace, DecodeError> {
        let kind = TraceKind::from_u8(self.u8()?).ok_or(DecodeError::BadValue("trace kind"))?;
        let key = self.str()?;
        let epoch = self.u64()?;
        let total_us = self.u64()?;
        let n = self.u16()? as usize;
        // Each span is (u8 stage, u64 start, u64 dur, u8 depth) = 18 bytes.
        if self_inconsistent_count(n, 18, self.remaining()) {
            return Err(DecodeError::Truncated);
        }
        let mut spans = Vec::with_capacity(n);
        for _ in 0..n {
            let stage = Stage::from_u8(self.u8()?).ok_or(DecodeError::BadValue("span stage"))?;
            spans.push(Span {
                stage,
                start_us: self.u64()?,
                dur_us: self.u64()?,
                depth: self.u8()?,
            });
        }
        Ok(Trace { kind, key, epoch, total_us, spans })
    }

    fn metrics(&mut self) -> Result<WireMetrics, DecodeError> {
        let epoch = self.u64()?;
        let mut ops = Vec::new();
        for _ in 0..self.u8()? {
            let op = ObsOp::from_u8(self.u8()?).ok_or(DecodeError::BadValue("metrics op tag"))?;
            ops.push((op, self.hist()?));
        }
        let mut stages = Vec::new();
        for _ in 0..self.u8()? {
            let stage =
                Stage::from_u8(self.u8()?).ok_or(DecodeError::BadValue("metrics stage tag"))?;
            stages.push((stage, self.hist()?));
        }
        let ncounters = self.u16()? as usize;
        // Smallest entry: empty name (u32 len) + kind + value.
        if self_inconsistent_count(ncounters, 13, self.remaining()) {
            return Err(DecodeError::Truncated);
        }
        let mut counters = Vec::with_capacity(ncounters);
        for _ in 0..ncounters {
            let name = self.str()?;
            let kind =
                MetricKind::from_u8(self.u8()?).ok_or(DecodeError::BadValue("metric kind"))?;
            counters.push(WireSample { name, kind, value: self.u64()? });
        }
        let nslow = self.u16()? as usize;
        // Smallest trace on the wire: tag + empty key + epoch + total +
        // an empty span count.
        if self_inconsistent_count(nslow, 23, self.remaining()) {
            return Err(DecodeError::Truncated);
        }
        let mut slow = Vec::with_capacity(nslow);
        for _ in 0..nslow {
            slow.push(self.trace()?);
        }
        let nw = self.u32()? as usize;
        // Smallest workload entry: empty string (u32 len) + u64 count.
        if self_inconsistent_count(nw, 12, self.remaining()) {
            return Err(DecodeError::Truncated);
        }
        let mut workload = Vec::with_capacity(nw);
        for _ in 0..nw {
            let key = self.str()?;
            workload.push((key, self.u64()?));
        }
        Ok(WireMetrics { epoch, ops, stages, counters, slow, workload })
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.at != self.buf.len() {
            return Err(DecodeError::Trailing);
        }
        Ok(())
    }
}

/// Encodes a request into a frame payload (no length prefix).
///
/// # Panics
/// Panics if a [`Request::Delta`] interest sequence exceeds
/// [`cpqx_graph::MAX_SEQ_LEN`] steps — such a frame could never decode
/// and must not reach the wire ([`crate::Client::apply_delta`] rejects
/// it with a typed error instead).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Hello { version } => {
            out.push(OP_HELLO);
            out.extend_from_slice(&MAGIC);
            put_u16(&mut out, *version);
        }
        Request::Ping => out.push(OP_PING),
        Request::Query(text) => {
            out.push(OP_QUERY);
            put_str(&mut out, text);
        }
        Request::Batch(texts) => {
            out.push(OP_BATCH);
            put_u32(&mut out, texts.len() as u32);
            for t in texts {
                put_str(&mut out, t);
            }
        }
        Request::Update { insert, src, dst, label } => {
            out.push(OP_UPDATE);
            out.push(u8::from(*insert));
            put_u32(&mut out, *src);
            put_u32(&mut out, *dst);
            put_str(&mut out, label);
        }
        Request::Stats => out.push(OP_STATS),
        Request::Delta(ops) => {
            out.push(OP_DELTA);
            put_u32(&mut out, ops.len() as u32);
            for op in ops {
                put_op(&mut out, op);
            }
        }
        Request::Metrics => out.push(OP_METRICS),
    }
    out
}

// Delta op tags (first byte of each op inside a DELTA frame).
const OPTAG_INSERT_EDGE: u8 = 1;
const OPTAG_DELETE_EDGE: u8 = 2;
const OPTAG_CHANGE_EDGE_LABEL: u8 = 3;
const OPTAG_ADD_VERTEX: u8 = 4;
const OPTAG_DELETE_VERTEX: u8 = 5;
const OPTAG_INSERT_INTEREST: u8 = 6;
const OPTAG_DELETE_INTEREST: u8 = 7;

fn put_op(out: &mut Vec<u8>, op: &WireOp) {
    match op {
        WireOp::InsertEdge { src, dst, label } => {
            out.push(OPTAG_INSERT_EDGE);
            put_u32(out, *src);
            put_u32(out, *dst);
            put_str(out, label);
        }
        WireOp::DeleteEdge { src, dst, label } => {
            out.push(OPTAG_DELETE_EDGE);
            put_u32(out, *src);
            put_u32(out, *dst);
            put_str(out, label);
        }
        WireOp::ChangeEdgeLabel { src, dst, from, to } => {
            out.push(OPTAG_CHANGE_EDGE_LABEL);
            put_u32(out, *src);
            put_u32(out, *dst);
            put_str(out, from);
            put_str(out, to);
        }
        WireOp::AddVertex { name } => {
            out.push(OPTAG_ADD_VERTEX);
            put_str(out, name);
        }
        WireOp::DeleteVertex { vertex } => {
            out.push(OPTAG_DELETE_VERTEX);
            put_u32(out, *vertex);
        }
        WireOp::InsertInterest { seq } => {
            out.push(OPTAG_INSERT_INTEREST);
            put_seq(out, seq);
        }
        WireOp::DeleteInterest { seq } => {
            out.push(OPTAG_DELETE_INTEREST);
            put_seq(out, seq);
        }
    }
}

fn put_seq(out: &mut Vec<u8>, seq: &[WireSeqLabel]) {
    // Hard assert, not debug: `seq.len() as u8` on an over-long sequence
    // would silently truncate the count and desynchronize the op stream
    // for the decoder (which rejects counts above MAX_SEQ_LEN anyway).
    assert!(
        seq.len() <= cpqx_graph::MAX_SEQ_LEN,
        "interest sequence of {} steps exceeds MAX_SEQ_LEN",
        seq.len()
    );
    out.push(seq.len() as u8);
    for step in seq {
        out.push(u8::from(step.inverse));
        put_str(out, &step.label);
    }
}

/// Decodes a frame payload into a request.
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    let mut c = Cur::new(payload);
    let op = c.u8()?;
    let req = match op {
        OP_HELLO => {
            if c.take(4)? != MAGIC {
                return Err(DecodeError::BadMagic);
            }
            Request::Hello { version: c.u16()? }
        }
        OP_PING => Request::Ping,
        OP_QUERY => Request::Query(c.str()?),
        OP_BATCH => {
            let n = c.u32()? as usize;
            if self_inconsistent_count(n, 4, c.buf.len() - c.at) {
                return Err(DecodeError::Truncated);
            }
            let mut texts = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                texts.push(c.str()?);
            }
            Request::Batch(texts)
        }
        OP_UPDATE => {
            let insert = c.bool()?;
            let src = c.u32()?;
            let dst = c.u32()?;
            let label = c.str()?;
            Request::Update { insert, src, dst, label }
        }
        OP_STATS => Request::Stats,
        OP_DELTA => {
            let n = c.u32()? as usize;
            // Smallest op on the wire: tag + an empty interest sequence.
            if self_inconsistent_count(n, 2, c.buf.len() - c.at) {
                return Err(DecodeError::Truncated);
            }
            let mut ops = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                ops.push(c.op()?);
            }
            Request::Delta(ops)
        }
        OP_METRICS => Request::Metrics,
        other => return Err(DecodeError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(req)
}

/// `n` items of at least `min_item_len` bytes cannot fit in `remaining`.
fn self_inconsistent_count(n: usize, min_item_len: usize, remaining: usize) -> bool {
    n.checked_mul(min_item_len).is_none_or(|need| need > remaining)
}

/// Encodes a response into a frame payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(resp, &mut out);
    out
}

/// Appends a response's frame payload (no length prefix) to `out` — the
/// server encodes straight into a connection's write buffer this way.
pub fn encode_response_into(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::HelloAck { version } => {
            out.push(OP_HELLO_ACK);
            put_u16(out, *version);
        }
        Response::Pong => out.push(OP_PONG),
        Response::Result { epoch, pairs } => {
            out.push(OP_RESULT);
            put_u64(out, *epoch);
            put_pairs(out, pairs);
        }
        Response::BatchResult { epoch, results } => {
            out.push(OP_BATCH_RESULT);
            put_u64(out, *epoch);
            put_u32(out, results.len() as u32);
            for r in results {
                put_pairs(out, r);
            }
        }
        Response::UpdateAck { applied, epoch } => {
            out.push(OP_UPDATE_ACK);
            out.push(u8::from(*applied));
            put_u64(out, *epoch);
        }
        Response::Stats(s) => {
            out.push(OP_STATS_RESULT);
            for &v in &s.values {
                put_u64(out, v);
            }
        }
        Response::DeltaAck { epoch, rebuilt, outcomes } => {
            out.push(OP_DELTA_ACK);
            put_u64(out, *epoch);
            out.push(u8::from(*rebuilt));
            put_u32(out, outcomes.len() as u32);
            for o in outcomes {
                match o {
                    WireOutcome::Noop => out.push(0),
                    WireOutcome::Applied => out.push(1),
                    WireOutcome::VertexAdded(v) => {
                        out.push(2);
                        put_u32(out, *v);
                    }
                }
            }
        }
        Response::Metrics(m) => {
            out.push(OP_METRICS_RESULT);
            put_metrics(out, m);
        }
        Response::Error(e) => {
            out.push(OP_ERROR);
            out.push(e.code.to_u8());
            put_u32(out, e.position.unwrap_or(u32::MAX));
            put_str(out, &e.message);
            put_u64(out, e.count.unwrap_or(u64::MAX));
        }
    }
}

fn put_hist(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    put_u64(out, h.count());
    put_u64(out, h.sum());
    put_u64(out, h.max());
    // Sparse bucket form: histograms have cpqx_obs::BUCKETS (< u16::MAX)
    // buckets total, so the non-zero count always fits a u16.
    let nonzero: Vec<(u16, u64)> = h.nonzero().collect();
    put_u16(out, nonzero.len() as u16);
    for (index, count) in nonzero {
        put_u16(out, index);
        put_u64(out, count);
    }
}

fn put_trace(out: &mut Vec<u8>, t: &Trace) {
    out.push(t.kind as u8);
    put_str(out, &t.key);
    put_u64(out, t.epoch);
    put_u64(out, t.total_us);
    put_u16(out, t.spans.len().min(u16::MAX as usize) as u16);
    for s in t.spans.iter().take(u16::MAX as usize) {
        out.push(s.stage as u8);
        put_u64(out, s.start_us);
        put_u64(out, s.dur_us);
        out.push(s.depth);
    }
}

fn put_metrics(out: &mut Vec<u8>, m: &WireMetrics) {
    put_u64(out, m.epoch);
    // Op/stage lists are bounded by their tag spaces (≤ OP_COUNT /
    // STAGE_COUNT entries), so a u8 count suffices.
    out.push(m.ops.len().min(u8::MAX as usize) as u8);
    for (op, h) in m.ops.iter().take(u8::MAX as usize) {
        out.push(*op as u8);
        put_hist(out, h);
    }
    out.push(m.stages.len().min(u8::MAX as usize) as u8);
    for (stage, h) in m.stages.iter().take(u8::MAX as usize) {
        out.push(*stage as u8);
        put_hist(out, h);
    }
    // The registry has a few dozen rows; a u16 count is ample.
    put_u16(out, m.counters.len().min(u16::MAX as usize) as u16);
    for c in m.counters.iter().take(u16::MAX as usize) {
        put_str(out, &c.name);
        out.push(c.kind as u8);
        put_u64(out, c.value);
    }
    put_u16(out, m.slow.len().min(u16::MAX as usize) as u16);
    for t in m.slow.iter().take(u16::MAX as usize) {
        put_trace(out, t);
    }
    put_u32(out, m.workload.len() as u32);
    for (key, count) in &m.workload {
        put_str(out, key);
        put_u64(out, *count);
    }
}

/// Decodes a frame payload into a response.
pub fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
    let mut c = Cur::new(payload);
    let op = c.u8()?;
    let resp = match op {
        OP_HELLO_ACK => Response::HelloAck { version: c.u16()? },
        OP_PONG => Response::Pong,
        OP_RESULT => Response::Result { epoch: c.u64()?, pairs: c.pairs()? },
        OP_BATCH_RESULT => {
            let epoch = c.u64()?;
            let n = c.u32()? as usize;
            if self_inconsistent_count(n, 4, c.buf.len() - c.at) {
                return Err(DecodeError::Truncated);
            }
            let mut results = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                results.push(c.pairs()?);
            }
            Response::BatchResult { epoch, results }
        }
        OP_UPDATE_ACK => Response::UpdateAck { applied: c.bool()?, epoch: c.u64()? },
        OP_DELTA_ACK => {
            let epoch = c.u64()?;
            let rebuilt = c.bool()?;
            let n = c.u32()? as usize;
            if self_inconsistent_count(n, 1, c.buf.len() - c.at) {
                return Err(DecodeError::Truncated);
            }
            let mut outcomes = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                outcomes.push(c.outcome()?);
            }
            Response::DeltaAck { epoch, rebuilt, outcomes }
        }
        OP_STATS_RESULT => {
            let mut values = [0u64; STATS_FIELDS];
            for v in values.iter_mut() {
                *v = c.u64()?;
            }
            Response::Stats(Box::new(WireStats { values }))
        }
        OP_METRICS_RESULT => Response::Metrics(Box::new(c.metrics()?)),
        OP_ERROR => {
            let code = ErrorCode::from_u8(c.u8()?)?;
            let position = match c.u32()? {
                u32::MAX => None,
                p => Some(p),
            };
            let message = c.str()?;
            let count = match c.u64()? {
                u64::MAX => None,
                n => Some(n),
            };
            Response::Error(WireError { code, position, message, count })
        }
        other => return Err(DecodeError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(resp)
}

// ------------------------------------------------------------- frame I/O --

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The announced payload length exceeds the caller's bound. The
    /// stream is no longer synchronized; the connection must be dropped.
    TooLarge {
        /// The announced length.
        len: usize,
        /// The caller's bound.
        max: usize,
    },
    /// The connection failed mid-frame (including read timeouts).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= u32::MAX as usize);
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame payload, enforcing `max_len`. A clean peer close
/// *before the first header byte* is [`FrameError::Closed`]; EOF anywhere
/// later is an [`FrameError::Io`] of kind `UnexpectedEof`.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got == 0 {
        match r.read(&mut header)? {
            0 => return Err(FrameError::Closed),
            n => got = n,
        }
    }
    // `got` is 1..=4, so the tail slice always exists; `get_mut` keeps
    // this decode path free of panic-capable indexing regardless.
    if let Some(rest) = header.get_mut(got..) {
        r.read_exact(rest)?;
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_len {
        return Err(FrameError::TooLarge { len, max: max_len });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Incremental frame reassembly for nonblocking sockets.
///
/// [`read_frame`] needs a blocking `Read`; a readiness-driven server
/// instead feeds whatever bytes `read` returned into this buffer with
/// [`FrameAssembler::extend`] and pops complete payloads with
/// [`FrameAssembler::next_frame`]. The announced length is checked
/// against the bound as soon as the 4-byte header is buffered, so a
/// hostile header is refused before its payload is ever allocated —
/// buffered data therefore never exceeds `max_len` plus one read chunk.
#[derive(Debug)]
pub struct FrameAssembler {
    /// Raw bytes as received; `at..` is the unparsed tail.
    buf: Vec<u8>,
    /// Parse offset: bytes before it belong to already-popped frames.
    at: usize,
    /// Per-connection payload bound (the server's `max_frame_len`).
    max_len: usize,
}

/// Compact the buffer once the consumed prefix passes this size, so a
/// long-lived connection does not accrete every frame it ever received.
const ASSEMBLER_COMPACT: usize = 64 * 1024;

impl FrameAssembler {
    /// An empty assembler enforcing `max_len` on announced payloads.
    pub fn new(max_len: usize) -> FrameAssembler {
        FrameAssembler { buf: Vec::new(), at: 0, max_len }
    }

    /// Appends bytes received from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unparsed bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.at
    }

    /// `true` when a frame is partially buffered — a timeout now leaves
    /// the stream desynchronized (versus a clean idle close at a frame
    /// boundary).
    pub fn mid_frame(&self) -> bool {
        self.at < self.buf.len()
    }

    /// Pops the next complete frame payload, `Ok(None)` when more bytes
    /// are needed. [`FrameError::TooLarge`] means the stream is
    /// desynchronized and the connection must be dropped; the assembler
    /// keeps returning it for the same frame.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let Some(header) = self.buf.get(self.at..self.at + 4) else {
            return Ok(None);
        };
        let Ok(header) = <[u8; 4]>::try_from(header) else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(header) as usize;
        if len > self.max_len {
            return Err(FrameError::TooLarge { len, max: self.max_len });
        }
        let start = self.at + 4;
        let Some(payload) = self.buf.get(start..start + len) else {
            return Ok(None);
        };
        let payload = payload.to_vec();
        self.at = start + len;
        if self.at == self.buf.len() {
            self.buf.clear();
            self.at = 0;
        } else if self.at >= ASSEMBLER_COMPACT {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Hello { version: PROTOCOL_VERSION },
            Request::Ping,
            Request::Query("(f . f) & f^-1".into()),
            Request::Query(String::new()),
            Request::Batch(vec![]),
            Request::Batch(vec!["f".into(), "f . f".into(), "id".into()]),
            Request::Update { insert: true, src: 0, dst: u32::MAX, label: "follows".into() },
            Request::Update { insert: false, src: 7, dst: 7, label: "f".into() },
            Request::Stats,
            Request::Metrics,
            Request::Delta(vec![]),
            Request::Delta(vec![
                WireOp::AddVertex { name: "newbie".into() },
                WireOp::InsertEdge { src: 14, dst: 0, label: "f".into() },
                WireOp::DeleteEdge { src: 1, dst: 2, label: "v".into() },
                WireOp::ChangeEdgeLabel { src: 3, dst: 4, from: "f".into(), to: "v".into() },
                WireOp::DeleteVertex { vertex: 9 },
                WireOp::InsertInterest {
                    seq: vec![
                        WireSeqLabel { inverse: false, label: "f".into() },
                        WireSeqLabel { inverse: true, label: "f".into() },
                    ],
                },
                WireOp::DeleteInterest {
                    seq: vec![WireSeqLabel { inverse: false, label: "v".into() }],
                },
            ]),
        ]
    }

    fn sample_metrics() -> WireMetrics {
        use MetricKind::{Counter, Gauge};
        let hist = |nonzero: &[(u16, u64)], total, sum, max| {
            HistogramSnapshot::from_parts(total, sum, max, nonzero).unwrap()
        };
        WireMetrics {
            epoch: 5,
            ops: vec![
                (ObsOp::Query, hist(&[(0, 3), (12, 2)], 5, 90, 40)),
                (ObsOp::Delta, hist(&[(20, 1)], 1, 300, 300)),
            ],
            stages: vec![
                (Stage::Plan, hist(&[(2, 5)], 5, 10, 2)),
                (Stage::Eval, hist(&[(9, 4)], 4, 36, 11)),
            ],
            counters: vec![
                WireSample { name: "cpqx_connections_total".into(), kind: Counter, value: 2 },
                WireSample { name: "cpqx_open_connections".into(), kind: Gauge, value: 2 },
                WireSample { name: String::new(), kind: Counter, value: u64::MAX },
            ],
            slow: vec![Trace {
                kind: TraceKind::Query,
                key: "((f.f)&f^-1)".into(),
                epoch: 5,
                total_us: 900,
                spans: vec![
                    Span { stage: Stage::Parse, start_us: 0, dur_us: 10, depth: 0 },
                    Span { stage: Stage::Eval, start_us: 12, dur_us: 880, depth: 1 },
                ],
            }],
            workload: vec![("((f.f)&f^-1)".into(), 9), ("f".into(), 1)],
        }
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::HelloAck { version: PROTOCOL_VERSION },
            Response::Pong,
            Response::Result { epoch: 0, pairs: vec![] },
            Response::Result { epoch: 42, pairs: vec![Pair::new(1, 2), Pair::new(3, 3)] },
            Response::BatchResult { epoch: 9, results: vec![] },
            Response::BatchResult {
                epoch: 9,
                results: vec![vec![Pair::new(0, 0)], vec![], vec![Pair::new(5, 6)]],
            },
            Response::UpdateAck { applied: true, epoch: 3 },
            Response::DeltaAck { epoch: 0, rebuilt: false, outcomes: vec![] },
            Response::DeltaAck {
                epoch: 17,
                rebuilt: true,
                outcomes: vec![
                    WireOutcome::Applied,
                    WireOutcome::Noop,
                    WireOutcome::VertexAdded(4096),
                ],
            },
            Response::Stats(Box::default()),
            Response::Stats(Box::new(WireStats::from_fn(|f| match f {
                StatsField::Epoch => 2,
                StatsField::P99Us => 1234,
                StatsField::Metric(m) => 100 + m as u64,
                _ => 0,
            }))),
            Response::Metrics(Box::default()),
            Response::Metrics(Box::new(sample_metrics())),
            Response::Error(WireError {
                code: ErrorCode::Parse,
                position: Some(4),
                message: "unknown label \"nosuch\"".into(),
                count: None,
            }),
            Response::Error(WireError {
                count: Some(74_529),
                ..WireError::new(ErrorCode::TooLarge, "reply too large")
            }),
            Response::Error(WireError::new(ErrorCode::Internal, "boom")),
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in all_requests() {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req, "roundtrip of {req:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in all_responses() {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp, "roundtrip of {resp:?}");
        }
    }

    #[test]
    fn truncation_never_panics() {
        for req in all_requests() {
            let bytes = encode_request(&req);
            for cut in 0..bytes.len() {
                let _ = decode_request(&bytes[..cut]); // must not panic
            }
        }
        for resp in all_responses() {
            let bytes = encode_response(&resp);
            for cut in 0..bytes.len() {
                let _ = decode_response(&bytes[..cut]);
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert_eq!(decode_request(&bytes), Err(DecodeError::Trailing));
    }

    #[test]
    fn unknown_opcodes_are_rejected() {
        assert_eq!(decode_request(&[0x7E]), Err(DecodeError::UnknownOpcode(0x7E)));
        assert_eq!(decode_response(&[0x10]), Err(DecodeError::UnknownOpcode(0x10)));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_request(&Request::Hello { version: 1 });
        bytes[1] = b'X';
        assert_eq!(decode_request(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A BATCH claiming 2^31 strings in a 9-byte payload must fail
        // fast on the count-consistency check.
        let mut bytes = vec![OP_BATCH];
        bytes.extend_from_slice(&0x8000_0000u32.to_be_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(decode_request(&bytes), Err(DecodeError::Truncated));
        // Same for a RESULT claiming 2^30 pairs.
        let mut bytes = vec![OP_RESULT];
        bytes.extend_from_slice(&7u64.to_be_bytes());
        bytes.extend_from_slice(&0x4000_0000u32.to_be_bytes());
        assert_eq!(decode_response(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_bools_and_codes_are_rejected() {
        let mut upd =
            encode_request(&Request::Update { insert: true, src: 1, dst: 2, label: "f".into() });
        upd[1] = 9;
        assert_eq!(decode_request(&upd), Err(DecodeError::BadValue("bool")));
        let mut err = encode_response(&Response::Error(WireError::new(ErrorCode::Internal, "x")));
        err[1] = 0xEE;
        assert_eq!(decode_response(&err), Err(DecodeError::BadValue("error code")));
    }

    #[test]
    fn bad_delta_payloads_are_rejected() {
        // Unknown op tag.
        let mut bytes = vec![OP_DELTA];
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&[0xEE, 0x00]);
        assert_eq!(decode_request(&bytes), Err(DecodeError::BadValue("delta op tag")));
        // Hostile op count in a tiny payload fails the consistency check.
        let mut bytes = vec![OP_DELTA];
        bytes.extend_from_slice(&0x4000_0000u32.to_be_bytes());
        bytes.extend_from_slice(&[0, 0]);
        assert_eq!(decode_request(&bytes), Err(DecodeError::Truncated));
        // An interest sequence longer than a LabelSeq can hold.
        let mut bytes = vec![OP_DELTA];
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.push(OPTAG_INSERT_INTEREST);
        bytes.push(cpqx_graph::MAX_SEQ_LEN as u8 + 1);
        bytes.extend_from_slice(&[0; 64]);
        assert_eq!(decode_request(&bytes), Err(DecodeError::BadValue("interest sequence length")));
        // Bad outcome tag in an ack.
        let mut bytes = vec![OP_DELTA_ACK];
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.push(9);
        assert_eq!(decode_response(&bytes), Err(DecodeError::BadValue("op outcome")));
    }

    #[test]
    fn bad_metrics_payloads_are_rejected() {
        // Unknown op tag in the per-opcode histogram list.
        let mut bytes = vec![OP_METRICS_RESULT];
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.push(1);
        bytes.push(99);
        assert_eq!(decode_response(&bytes), Err(DecodeError::BadValue("metrics op tag")));
        // Unknown stage tag in the per-stage list.
        let mut bytes = vec![OP_METRICS_RESULT];
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.push(0);
        bytes.push(1);
        bytes.push(200);
        assert_eq!(decode_response(&bytes), Err(DecodeError::BadValue("metrics stage tag")));
        // Out-of-range histogram bucket index: patch the first non-zero
        // bucket of a valid encoding (offset: opcode 1 + epoch 8 +
        // op-count 1 + op tag 1 + total/sum/max 24 + nz-count 2).
        let one_op = WireMetrics {
            ops: vec![(ObsOp::Query, HistogramSnapshot::from_parts(1, 9, 9, &[(3, 1)]).unwrap())],
            ..WireMetrics::default()
        };
        let mut bytes = encode_response(&Response::Metrics(Box::new(one_op)));
        bytes[37..39].copy_from_slice(&(cpqx_obs::BUCKETS as u16).to_be_bytes());
        assert_eq!(decode_response(&bytes), Err(DecodeError::BadValue("histogram bucket")));
        // The header every case below shares: opcode, epoch, no op or
        // stage histograms.
        let header = || {
            let mut bytes = vec![OP_METRICS_RESULT];
            bytes.extend_from_slice(&0u64.to_be_bytes());
            bytes.extend_from_slice(&[0, 0]);
            bytes
        };
        // Bad kind tag in the registry list.
        let mut bytes = header();
        bytes.extend_from_slice(&1u16.to_be_bytes()); // one entry ...
        put_str(&mut bytes, "cpqx_queries_total");
        bytes.push(9); // ... of a kind that does not exist
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.extend_from_slice(&[0u8; 6]); // empty slow ring and workload
        assert_eq!(decode_response(&bytes), Err(DecodeError::BadValue("metric kind")));
        // A lying registry count fails fast on the count-consistency
        // check; a lying name length runs out of payload.
        let mut bytes = header();
        bytes.extend_from_slice(&u16::MAX.to_be_bytes());
        bytes.extend_from_slice(&[0u8; 13]);
        assert_eq!(decode_response(&bytes), Err(DecodeError::Truncated));
        let mut bytes = header();
        bytes.extend_from_slice(&1u16.to_be_bytes());
        bytes.extend_from_slice(&u32::MAX.to_be_bytes()); // name length
        bytes.extend_from_slice(&[0u8; 15]);
        assert_eq!(decode_response(&bytes), Err(DecodeError::Truncated));
        // Bad trace kind in the slow-query ring.
        let mut bytes = header();
        bytes.extend_from_slice(&0u16.to_be_bytes()); // no registry values
        bytes.extend_from_slice(&1u16.to_be_bytes()); // one trace ...
        bytes.push(7); // ... of a kind that does not exist
        bytes.extend_from_slice(&[0u8; 32]);
        assert_eq!(decode_response(&bytes), Err(DecodeError::BadValue("trace kind")));
        // Hostile slow-trace and workload counts fail fast on the
        // count-consistency check.
        let mut bytes = header();
        bytes.extend_from_slice(&0u16.to_be_bytes());
        bytes.extend_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(decode_response(&bytes), Err(DecodeError::Truncated));
        let mut bytes = header();
        bytes.extend_from_slice(&0u16.to_be_bytes());
        bytes.extend_from_slice(&0u16.to_be_bytes()); // no slow traces
        bytes.extend_from_slice(&0x4000_0000u32.to_be_bytes());
        assert_eq!(decode_response(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn parse_errors_map_to_typed_codes() {
        use cpqx_graph::generate::gex;
        let g = gex();
        let e = cpqx_query::parse_cpq("f . nosuch", &g).unwrap_err();
        let w = WireError::from(e);
        assert_eq!(w.code, ErrorCode::UnknownLabel);
        assert_eq!(w.position, Some(4));
        let e = cpqx_query::parse_cpq("(f", &g).unwrap_err();
        assert_eq!(WireError::from(e).code, ErrorCode::Parse);
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        let payloads: Vec<Vec<u8>> = all_requests().iter().map(encode_request).collect();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        let mut r = io::Cursor::new(wire);
        for p in &payloads {
            assert_eq!(&read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), p);
        }
        assert!(matches!(read_frame(&mut r, DEFAULT_MAX_FRAME), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_frames_are_refused_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut io::Cursor::new(wire), 1024).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge { max: 1024, .. }));
    }

    #[test]
    fn eof_mid_frame_is_io_not_closed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::Ping)).unwrap();
        wire.truncate(3); // cut inside the header
        let err = read_frame(&mut io::Cursor::new(wire), 1024).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)));
    }

    #[test]
    fn stats_helpers() {
        let s = WireStats::from_fn(|f| match f {
            StatsField::Metric(Metric::ResultHits) => 3,
            StatsField::Metric(Metric::ResultMisses) => 1,
            StatsField::Metric(Metric::PingRequests) => 1,
            StatsField::Metric(Metric::QueryRequests) => 4,
            StatsField::Metric(Metric::MetricsRequests) => 2,
            StatsField::ClassSlots => 6,
            StatsField::BaselineClasses => 4,
            _ => 0,
        });
        assert!((s.result_hit_rate() - 0.75).abs() < 1e-9);
        // METRICS requests count too (dropped from the sum before v6).
        assert_eq!(s.total_requests(), 7);
        assert!((s.fragmentation_ratio() - 1.5).abs() < 1e-9);
        assert_eq!(WireStats::default().result_hit_rate(), 0.0);
        assert_eq!(WireStats::default().fragmentation_ratio(), 0.0);
        assert_eq!(s.get(Metric::QueryRequests), Some(4));
        let text = s.to_string();
        assert!(text.starts_with("epoch=0 queries=0 result_cache_hits=3 "), "{text}");
        assert!(text.contains(" class_slots=6 baseline_classes=4 p50_us=0 "), "{text}");
        assert!(text.ends_with(" snapshot_chunks_skipped=0"), "{text}");
        // Registry entries outside the frozen layout travel in METRICS.
        assert_eq!(s.get(Metric::OpenConnections), None);
    }

    #[test]
    fn stats_layout_names_each_slot_once() {
        for (i, field) in STATS_LAYOUT.iter().enumerate() {
            assert_eq!(STATS_LAYOUT.iter().position(|f| f == field), Some(i), "{field:?} twice");
        }
        for derived in [
            StatsField::Epoch,
            StatsField::ClassSlots,
            StatsField::BaselineClasses,
            StatsField::P50Us,
            StatsField::P99Us,
        ] {
            assert!(STATS_LAYOUT.contains(&derived), "{derived:?} missing");
        }
        let registry = STATS_LAYOUT.iter().filter(|f| matches!(f, StatsField::Metric(_))).count();
        assert_eq!(registry, STATS_FIELDS - 5);
        // Every per-opcode request counter has a slot (total_requests
        // sums them).
        for m in Metric::ALL.into_iter().filter(|m| m.unit() == "requests") {
            assert!(STATS_LAYOUT.contains(&StatsField::Metric(m)), "{m:?} missing");
        }
    }

    /// The STATS_RESULT payload for fixed values, byte for byte: the
    /// layout has been frozen since protocol 6, so these bytes are the
    /// ones a protocol-7 server sent for the same values.
    #[test]
    fn stats_result_bytes_are_pinned() {
        use Metric as M;
        let s = WireStats::from_fn(|f| match f {
            StatsField::Epoch => 1000,
            StatsField::ClassSlots => 1015,
            StatsField::BaselineClasses => 1016,
            StatsField::P50Us => 1017,
            StatsField::P99Us => 1018,
            StatsField::Metric(m) => match m {
                M::Queries => 1001,
                M::ResultHits => 1002,
                M::ResultMisses => 1003,
                M::PlanHits => 1004,
                M::PlanMisses => 1005,
                M::SnapshotSwaps => 1006,
                M::InvalidatedResults => 1007,
                M::RejectedAdmissions => 1008,
                M::DeltaTransactions => 1009,
                M::LazyUpdateOps => 1010,
                M::Rebuilds => 1011,
                M::AutoRebuilds => 1012,
                M::CowChunksCopied => 1013,
                M::CowChunksShared => 1014,
                M::PingRequests => 1019,
                M::QueryRequests => 1020,
                M::BatchRequests => 1021,
                M::UpdateRequests => 1022,
                M::DeltaRequests => 1023,
                M::StatsRequests => 1024,
                M::MetricsRequests => 1025,
                M::ErrorResponses => 1026,
                M::Connections => 1027,
                M::RejectedConnections => 1028,
                M::WalAppends => 1029,
                M::WalBytes => 1030,
                M::SnapshotsWritten => 1031,
                M::SnapshotChunksSkipped => 1032,
                _ => 0,
            },
        });
        let bytes = encode_response(&Response::Stats(Box::new(s)));
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let golden = "86\
            00000000000003e800000000000003e900000000000003ea00000000000003eb\
            00000000000003ec00000000000003ed00000000000003ee00000000000003ef\
            00000000000003f000000000000003f100000000000003f200000000000003f3\
            00000000000003f400000000000003f500000000000003f600000000000003f7\
            00000000000003f800000000000003f900000000000003fa00000000000003fb\
            00000000000003fc00000000000003fd00000000000003fe00000000000003ff\
            0000000000000400000000000000040100000000000004020000000000000403\
            0000000000000404000000000000040500000000000004060000000000000407\
            0000000000000408";
        assert_eq!(hex, golden);
        assert_eq!(decode_response(&bytes), Ok(Response::Stats(Box::new(s))));
    }

    #[test]
    fn assembler_matches_read_frame_byte_at_a_time() {
        let payloads: Vec<Vec<u8>> = all_requests().iter().map(encode_request).collect();
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        // Feed the whole stream one byte at a time: every frame must pop
        // exactly when its last byte arrives, never earlier.
        let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME);
        let mut got = Vec::new();
        for b in &wire {
            asm.extend(std::slice::from_ref(b));
            while let Some(frame) = asm.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, payloads);
        assert!(!asm.mid_frame());
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn assembler_pops_pipelined_frames_from_one_chunk() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::Ping)).unwrap();
        write_frame(&mut wire, &encode_request(&Request::Stats)).unwrap();
        write_frame(&mut wire, &encode_request(&Request::Query("f".into()))).unwrap();
        let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME);
        asm.extend(&wire);
        let mut got = Vec::new();
        while let Some(frame) = asm.next_frame().unwrap() {
            got.push(decode_request(&frame).unwrap());
        }
        assert_eq!(got, vec![Request::Ping, Request::Stats, Request::Query("f".into())]);
    }

    #[test]
    fn assembler_tracks_mid_frame_state() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::Ping)).unwrap();
        let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME);
        assert!(!asm.mid_frame()); // empty = clean boundary
        asm.extend(&wire[..3]); // partial header counts as mid-frame
        assert!(asm.mid_frame());
        assert!(asm.next_frame().unwrap().is_none());
        asm.extend(&wire[3..]);
        assert!(asm.next_frame().unwrap().is_some());
        assert!(!asm.mid_frame());
    }

    #[test]
    fn assembler_refuses_oversized_headers_before_payload() {
        let mut asm = FrameAssembler::new(1024);
        asm.extend(&u32::MAX.to_be_bytes());
        assert!(matches!(asm.next_frame(), Err(FrameError::TooLarge { max: 1024, .. })));
        // The error is sticky: the stream cannot resynchronize.
        assert!(matches!(asm.next_frame(), Err(FrameError::TooLarge { .. })));
    }
}
