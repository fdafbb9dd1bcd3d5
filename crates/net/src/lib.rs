//! `cpqx-net` — the network front-end over the cpqx serving engine.
//!
//! [PR 1's engine](cpqx_engine) made the index concurrent but in-process
//! only; this crate puts it on the wire:
//!
//! 1. **Wire protocol** ([`proto`]): versioned, length-prefixed binary
//!    frames with a magic + version handshake; `QUERY` / `BATCH` /
//!    `UPDATE` / `STATS` / `METRICS` / `PING` requests, typed error
//!    frames (parse
//!    errors keep their byte position and their syntax-vs-unknown-label
//!    classification), pure, panic-free codecs, and an incremental
//!    [`proto::FrameAssembler`] for nonblocking reads.
//! 2. **Server** ([`server`]): an event-driven front-end — one
//!    event-loop thread multiplexes the listener and every connection
//!    over raw level-triggered `epoll` ([`sys`]), a fixed worker pool
//!    evaluates queries and deltas, completions flow back over an
//!    eventfd wake and leave each connection in strict arrival order.
//!    Idle connections cost buffers, not threads; timeouts run on a
//!    timer wheel; overload answers with BUSY error frames. No async
//!    runtime: the build environment is offline, so the design sticks
//!    to the standard library plus an audited syscall shim.
//! 3. **Client** ([`client`]): a blocking library used by the examples,
//!    the integration tests and the loopback CI smoke job.
//!
//! Consistency contract: every response that carries answers also
//! carries the **epoch** of the engine snapshot that produced them, and
//! a `BATCH` parses *and* evaluates all its queries on one pinned
//! snapshot — so clients observe snapshot isolation end-to-end even
//! while `UPDATE` frames (or in-process writers) swap snapshots under
//! them.
//!
//! ```
//! use cpqx_engine::Engine;
//! use cpqx_graph::generate::gex;
//! use cpqx_net::{Client, Server, ServerOptions};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Engine::build(gex(), 2));
//! let server = Server::bind(engine, "127.0.0.1:0", ServerOptions::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let reply = client.query("(f . f) & f^-1").unwrap();
//! assert_eq!(reply.pairs.len(), 3);
//! assert_eq!(reply.epoch, 0);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
mod conn;
mod event;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod sys;

pub use client::{
    BatchReply, Client, ClientError, ClientOptions, DeltaReply, QueryReply, UpdateReply,
};
pub use metrics::render_prometheus;
pub use proto::{
    ErrorCode, Request, Response, StatsField, WireError, WireMetrics, WireOp, WireOutcome,
    WireSample, WireSeqLabel, WireStats, PROTOCOL_VERSION,
};
pub use server::{Server, ServerOptions};
