//! The event loop: readiness-based serving on raw `epoll`.
//!
//! One thread owns the nonblocking listener, every connection socket and
//! a coarse timer wheel, and multiplexes them through [`crate::sys`]'s
//! level-triggered epoll wrapper. Workers never see a socket: the loop
//! decodes frames, answers cheap requests (PING/STATS/METRICS,
//! handshake, decode errors) inline, and hands evaluation work
//! (QUERY/BATCH/UPDATE/DELTA) to the pool as [`Job`]s; finished
//! [`Completion`]s come back over a mutex'd list plus an eventfd wake,
//! and the loop writes them out through each connection's ordered slot
//! queue — so per-connection arrival order survives any worker
//! interleaving, and an idle connection costs two buffers instead of a
//! parked thread.
//!
//! Backpressure has three rungs: a per-connection pipeline bound (reads
//! pause while too many requests are in flight), a write-backlog bound
//! (reads pause while the peer is not draining responses), and a global
//! connection cap (new connections get a best-effort
//! [`ErrorCode::Busy`] error frame, then close).
//!
//! Timeouts live on a hashed timer wheel, not on socket options: each
//! connection carries an authoritative deadline (idle or
//! write-progress) and is lazily filed under a wheel tick; a visit
//! whose deadline moved simply re-files. An idle timeout at a frame
//! boundary closes cleanly; one that lands mid-frame means the stream
//! is desynchronized, so the connection gets the PROTOCOL.md-promised
//! final [`ErrorCode::Timeout`] error frame before the close.

use crate::conn::{Conn, ConnState, ReadStatus, READ_CHUNK};
use crate::proto::{
    decode_request, encode_response, ErrorCode, Request, Response, WireError, PROTOCOL_VERSION,
};
use crate::server::{handle, Shared};
use crate::sys::{Epoll, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use cpqx_obs::{Metric, Stage};
use std::collections::HashMap;
use std::io::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Token of the wake-up eventfd.
const TOKEN_WAKER: u64 = 1;
/// First connection token.
const TOKEN_BASE: u64 = 2;

/// Pause reading from a connection while this many encoded response
/// bytes sit unsent (the peer is not draining its side).
const WBUF_PAUSE: usize = 1 << 20;

/// One evaluation request handed to the worker pool.
pub(crate) struct Job {
    /// Connection token the response slot belongs to.
    conn: u64,
    /// Reserved slot in that connection's response queue.
    seq: u64,
    req: Request,
    /// Enqueue instant (when obs is enabled): the start of the
    /// QueueWait stage, which ends when a worker pops the job.
    queued: Option<Instant>,
}

/// One finished evaluation travelling back to the event loop.
pub(crate) struct Completion {
    conn: u64,
    seq: u64,
    resp: Response,
}

/// A hashed timer wheel with coarse ticks. Slots hold connection
/// tokens; entries are lazy — the connection's own deadline is
/// authoritative and a premature visit re-files.
struct TimerWheel {
    slots: Vec<Vec<u64>>,
    tick: Duration,
    start: Instant,
    /// First tick not yet processed.
    next_tick: u64,
}

const WHEEL_SLOTS: usize = 64;

impl TimerWheel {
    fn new(tick: Duration, start: Instant) -> TimerWheel {
        TimerWheel { slots: vec![Vec::new(); WHEEL_SLOTS], tick, start, next_tick: 1 }
    }

    fn tick_of(&self, t: Instant) -> u64 {
        let ms = t.saturating_duration_since(self.start).as_millis();
        (ms / self.tick.as_millis().max(1)) as u64
    }

    /// Files `token` under `tick` (clamped to the next unprocessed tick
    /// so nothing lands in the past). Returns the filed tick.
    fn file(&mut self, token: u64, tick: u64) -> u64 {
        let tick = tick.max(self.next_tick);
        self.slots[(tick % WHEEL_SLOTS as u64) as usize].push(token);
        tick
    }

    /// Drains every slot whose tick has passed, collecting candidates.
    fn due(&mut self, now: Instant, out: &mut Vec<u64>) {
        let current = self.tick_of(now);
        // A slot holds entries for ticks ≡ slot (mod WHEEL_SLOTS); a
        // full lap visits each slot once, so bound the sweep by one lap.
        let until = current.min(self.next_tick + WHEEL_SLOTS as u64);
        while self.next_tick <= until {
            let idx = (self.next_tick % WHEEL_SLOTS as u64) as usize;
            out.append(&mut self.slots[idx]);
            self.next_tick += 1;
        }
    }
}

/// Spawned once per server: owns the listener and every connection.
pub(crate) fn event_loop(s: &Shared, listener: TcpListener) {
    if run_loop(s, listener).is_err() {
        // A failed epoll/eventfd setup (or a fatal wait error) means the
        // server cannot serve; flip the stop flag so workers and
        // `shutdown` don't hang waiting for a loop that already exited.
        s.stop.swap(true, Ordering::AcqRel);
        s.jobs_cv.notify_all();
    }
}

/// Everything the loop body threads through its helpers.
struct Loop<'a> {
    s: &'a Shared,
    epoll: Epoll,
    conns: HashMap<u64, Conn>,
    wheel: TimerWheel,
    next_token: u64,
}

fn run_loop(s: &Shared, listener: TcpListener) -> std::io::Result<()> {
    use std::os::unix::io::AsRawFd;
    let epoll = Epoll::new()?;
    listener.set_nonblocking(true)?;
    epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(s.waker.raw_fd(), EPOLLIN, TOKEN_WAKER)?;

    // Tick granularity: fine enough that a timeout fires within ~1/4 of
    // the configured bound, bounded to [5ms, 1s] so short test timeouts
    // stay accurate and production defaults don't busy-wake.
    let shortest = [s.opts.read_timeout, s.opts.write_timeout]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(Duration::from_secs(30));
    let tick = (shortest / 4).clamp(Duration::from_millis(5), Duration::from_secs(1));
    let timers_armed = s.opts.read_timeout.is_some() || s.opts.write_timeout.is_some();

    let mut lp = Loop {
        s,
        epoll,
        conns: HashMap::new(),
        wheel: TimerWheel::new(tick, Instant::now()),
        next_token: TOKEN_BASE,
    };
    let mut events = Vec::new();
    let mut chunk = Box::new([0u8; READ_CHUNK]);
    let mut due = Vec::new();

    loop {
        events.clear();
        let timeout = if timers_armed && !lp.conns.is_empty() { Some(tick) } else { None };
        lp.epoll.wait(&mut events, timeout)?;
        if s.stop.load(Ordering::Acquire) {
            break;
        }
        let now = Instant::now();
        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => accept_burst(&mut lp, &listener, now),
                TOKEN_WAKER => s.waker.drain(),
                token => {
                    let keep =
                        on_conn_event(&mut lp, token, ev.readable, ev.closed, &mut chunk, now);
                    if !keep {
                        close_conn(&mut lp, token);
                    }
                }
            }
        }
        drain_completions(&mut lp, now);
        due.clear();
        lp.wheel.due(now, &mut due);
        for token in due.drain(..) {
            check_deadline(&mut lp, token, now);
        }
    }

    // Shutdown: close every connection's socket explicitly, so a peer
    // blocked in a read observes EOF instead of a silent leak (including
    // connections accepted but never yet served — the old thread-pool
    // core dropped those without a shutdown).
    for (_, conn) in lp.conns.drain() {
        let _ = conn.stream.shutdown(Shutdown::Both);
        s.engine.obs().sub(Metric::OpenConnections, 1);
    }
    Ok(())
}

/// Accepts until `WouldBlock`; over-capacity connections get a
/// best-effort BUSY error frame before the close.
fn accept_burst(lp: &mut Loop<'_>, listener: &TcpListener, now: Instant) {
    use std::os::unix::io::AsRawFd;
    let obs = lp.s.engine.obs();
    let t0 = obs.timer();
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if lp.conns.len() >= lp.s.opts.max_connections {
                    reject_busy(lp.s, &stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue; // dropped: closes the socket
                }
                let _ = stream.set_nodelay(true);
                let token = lp.next_token;
                lp.next_token += 1;
                let fd = stream.as_raw_fd();
                let mut conn = Conn::new(stream, lp.s.opts.max_frame_len, now);
                conn.interest = EPOLLIN | EPOLLRDHUP;
                if lp.epoll.add(fd, conn.interest, token).is_err() {
                    continue;
                }
                obs.add(Metric::Connections, 1);
                obs.add(Metric::OpenConnections, 1);
                lp.conns.insert(token, conn);
                if !pump(lp, token, now) {
                    close_conn(lp, token);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Transient accept failure (EMFILE, ECONNABORTED, …):
                // back off briefly instead of spinning the loop.
                std::thread::sleep(Duration::from_millis(10));
                break;
            }
        }
    }
    obs.stage(Stage::Accept, t0, None);
}

/// Sends one best-effort BUSY error frame and closes. The write is a
/// single nonblocking attempt: the frame is ~60 bytes and a fresh
/// socket's send buffer always holds it unless the peer already died —
/// in which case nobody is reading anyway.
fn reject_busy(s: &Shared, stream: &TcpStream) {
    s.engine.obs().add(Metric::RejectedConnections, 1);
    s.engine.obs().add(Metric::ErrorResponses, 1);
    let payload = encode_response(&Response::Error(WireError::new(
        ErrorCode::Busy,
        "server at connection capacity; retry later",
    )));
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    let _ = stream.set_nonblocking(true);
    let _ = (&*stream).write(&frame);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Handles one readiness event for a connection. Returns `false` when
/// the connection should close.
fn on_conn_event(
    lp: &mut Loop<'_>,
    token: u64,
    readable: bool,
    closed: bool,
    chunk: &mut [u8; READ_CHUNK],
    now: Instant,
) -> bool {
    let obs = lp.s.engine.obs();
    let t0 = obs.timer();
    let Some(conn) = lp.conns.get_mut(&token) else {
        return true; // already closed this batch
    };
    if readable && conn.state != ConnState::Draining {
        match conn.read_some(chunk) {
            Ok((n, status)) => {
                if n > 0 {
                    conn.last_activity = now;
                }
                if status == ReadStatus::PeerClosed {
                    conn.peer_eof = true;
                }
            }
            Err(_) => return false,
        }
    } else if closed {
        // Error/hang-up edge with nothing to read: the peer's write
        // half is gone. In-flight responses still get a delivery
        // attempt (pump closes once everything drains, or the write
        // fails fast on a truly dead socket).
        conn.peer_eof = true;
    }
    let keep = pump(lp, token, now);
    obs.stage(Stage::Readiness, t0, None);
    keep
}

/// The per-connection driver: pops buffered frames (respecting the
/// pipeline bound), flushes completed responses, writes, and reconciles
/// epoll interest and the timer wheel. Returns `false` to close.
fn pump(lp: &mut Loop<'_>, token: u64, now: Instant) -> bool {
    let s = lp.s;
    let Some(conn) = lp.conns.get_mut(&token) else {
        return true;
    };
    // 1. Decode and dispatch buffered frames.
    while conn.state != ConnState::Draining && conn.pending_len() < s.opts.max_pipeline {
        match conn.assembler.next_frame() {
            Ok(Some(frame)) => process_frame(s, conn, token, &frame),
            Ok(None) => break,
            Err(too_large) => {
                // Desynchronized: PROTOCOL.md promises one final error
                // frame before the drop.
                queue_inline(
                    s,
                    conn,
                    Response::Error(WireError::new(ErrorCode::BadFrame, too_large.to_string())),
                );
                conn.state = ConnState::Draining;
                break;
            }
        }
    }
    // 2. Stage completed responses and push bytes.
    let (staged, too_large) = conn.flush_ready();
    if staged > 0 {
        conn.last_activity = now;
    }
    if too_large > 0 {
        s.engine.obs().add(Metric::ErrorResponses, too_large as u64);
    }
    if conn.unsent() > 0 {
        let obs = s.engine.obs();
        let t0 = obs.timer();
        let drained = match conn.write_some(now) {
            Ok(drained) => drained,
            Err(_) => return false,
        };
        obs.stage(Stage::Write, t0, None);
        if drained && conn.state == ConnState::Draining {
            return false; // final frame delivered
        }
    } else if conn.state == ConnState::Draining {
        return false; // nothing left to drain
    }
    // Peer EOF with everything served and flushed: close. (With the
    // pipeline empty, the dispatch loop above ran the assembler dry, so
    // no complete frame is still buffered — at most a truncated tail.)
    if conn.peer_eof && conn.pending_len() == 0 && conn.unsent() == 0 {
        return false;
    }
    // 3. Reconcile epoll interest.
    let paused = conn.pending_len() >= s.opts.max_pipeline || conn.unsent() > WBUF_PAUSE;
    let mut want = 0u32;
    // An EOF'd socket stays readable forever under level-triggered
    // epoll; dropping read interest once EOF is seen keeps the loop
    // from spinning while responses are still in flight.
    if conn.state != ConnState::Draining && !paused && !conn.peer_eof {
        want |= EPOLLIN | EPOLLRDHUP;
    }
    if conn.unsent() > 0 {
        want |= EPOLLOUT;
    }
    if want != conn.interest {
        use std::os::unix::io::AsRawFd;
        let fd = conn.stream.as_raw_fd();
        // `interest == 0` ⇔ the fd is deregistered. Keeping a
        // zero-interest fd registered is not an option: level-triggered
        // ERR/HUP edges are delivered regardless of the mask and would
        // spin the loop (e.g. a reset peer whose request is still at a
        // worker).
        let ok = if conn.interest == 0 {
            lp.epoll.add(fd, want, token).is_ok()
        } else if want == 0 {
            lp.epoll.del(fd).is_ok()
        } else {
            lp.epoll.modify(fd, want, token).is_ok()
        };
        if !ok {
            return false;
        }
        conn.interest = want;
    }
    // 4. File the nearest deadline on the wheel (lazily).
    if let Some(deadline) = deadline_of(s, conn) {
        let tick = lp.wheel.tick_of(deadline);
        if conn.filed.is_none_or(|filed| tick < filed) {
            conn.filed = Some(lp.wheel.file(token, tick));
        }
    }
    true
}

/// The connection's authoritative deadline: idle timeout while no
/// request is in flight, write timeout while bytes are unsent.
fn deadline_of(s: &Shared, conn: &Conn) -> Option<Instant> {
    let idle = if conn.pending_len() == 0 {
        s.opts.read_timeout.map(|t| conn.last_activity + t)
    } else {
        None // evaluation time is not idle time (matches the old core)
    };
    let write = if conn.unsent() > 0 {
        s.opts.write_timeout.map(|t| conn.last_write_progress + t)
    } else {
        None
    };
    match (idle, write) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Revisits a wheel candidate: re-files if the deadline moved, times
/// the connection out if it really expired.
fn check_deadline(lp: &mut Loop<'_>, token: u64, now: Instant) {
    let s = lp.s;
    let Some(conn) = lp.conns.get_mut(&token) else {
        return; // closed since filing — lazy deletion
    };
    conn.filed = None;
    let Some(deadline) = deadline_of(s, conn) else {
        return; // no longer needs a timer; pump re-files when it does
    };
    if deadline > now {
        let tick = lp.wheel.tick_of(deadline);
        conn.filed = Some(lp.wheel.file(token, tick));
        return;
    }
    let write_expired = conn.unsent() > 0
        && s.opts.write_timeout.is_some_and(|t| now.duration_since(conn.last_write_progress) >= t);
    if write_expired {
        // The peer stopped draining responses: nothing can be delivered,
        // including an error frame. Hard close.
        close_conn(lp, token);
        return;
    }
    if conn.assembler.mid_frame() && conn.state != ConnState::Draining {
        // Timed out mid-frame: the stream is desynchronized. Send the
        // promised final error frame, then drain and close.
        queue_inline(
            s,
            conn,
            Response::Error(WireError::new(
                ErrorCode::Timeout,
                "read timed out mid-frame; dropping desynchronized connection",
            )),
        );
        conn.state = ConnState::Draining;
        if !pump(lp, token, now) {
            close_conn(lp, token);
        }
    } else {
        // Idle at a frame boundary: clean close, no error frame.
        close_conn(lp, token);
    }
}

/// Decodes and routes one frame according to the connection state.
fn process_frame(s: &Shared, conn: &mut Conn, token: u64, frame: &[u8]) {
    match conn.state {
        ConnState::Handshake => match decode_request(frame) {
            Ok(Request::Hello { version }) if version == PROTOCOL_VERSION => {
                conn.push_inline(Response::HelloAck { version });
                conn.state = ConnState::Serving;
            }
            Ok(Request::Hello { version }) => {
                queue_inline(
                    s,
                    conn,
                    Response::Error(WireError::new(
                        ErrorCode::UnsupportedVersion,
                        format!("server speaks protocol {PROTOCOL_VERSION}, client sent {version}"),
                    )),
                );
                conn.state = ConnState::Draining;
            }
            Ok(other) => {
                queue_inline(
                    s,
                    conn,
                    Response::Error(WireError::new(
                        ErrorCode::BadFrame,
                        format!("expected HELLO, got {other:?}"),
                    )),
                );
                conn.state = ConnState::Draining;
            }
            Err(e) => {
                queue_inline(s, conn, Response::Error(WireError::from(e)));
                conn.state = ConnState::Draining;
            }
        },
        ConnState::Serving => match decode_request(frame) {
            // Decode failures leave the frame boundary intact, so the
            // connection survives them.
            Err(e) => queue_inline(s, conn, Response::Error(WireError::from(e))),
            // Cheap requests complete inline on the event loop; only
            // evaluation work visits the pool.
            Ok(
                req @ (Request::Hello { .. } | Request::Ping | Request::Stats | Request::Metrics),
            ) => {
                let resp = handle(s, req);
                queue_inline(s, conn, resp);
            }
            Ok(req) => {
                let seq = conn.reserve_slot();
                let queued = s.engine.obs().timer();
                s.jobs.lock().unwrap().push_back(Job { conn: token, seq, req, queued });
                s.jobs_cv.notify_one();
            }
        },
        ConnState::Draining => {} // unreachable: pump stops popping
    }
}

/// Queues an inline response, keeping the error counter exact.
fn queue_inline(s: &Shared, conn: &mut Conn, resp: Response) {
    if matches!(resp, Response::Error(_)) {
        s.engine.obs().add(Metric::ErrorResponses, 1);
    }
    conn.push_inline(resp);
}

/// Moves finished evaluations into their connections' slot queues and
/// pumps every touched connection.
fn drain_completions(lp: &mut Loop<'_>, now: Instant) {
    let completed = std::mem::take(&mut *lp.s.done.lock().unwrap());
    if completed.is_empty() {
        return;
    }
    let mut touched = Vec::new();
    for c in completed {
        if matches!(c.resp, Response::Error(_)) {
            lp.s.engine.obs().add(Metric::ErrorResponses, 1);
        }
        if let Some(conn) = lp.conns.get_mut(&c.conn) {
            conn.complete_slot(c.seq, c.resp);
            if !touched.contains(&c.conn) {
                touched.push(c.conn);
            }
        }
        // else: the connection closed while the worker ran — the work
        // is done (deltas committed), only the acknowledgment is moot.
    }
    for token in touched {
        if !pump(lp, token, now) {
            close_conn(lp, token);
        }
    }
}

/// Deregisters, shuts down and forgets one connection. Wheel entries
/// are left to lazy deletion.
fn close_conn(lp: &mut Loop<'_>, token: u64) {
    use std::os::unix::io::AsRawFd;
    if let Some(conn) = lp.conns.remove(&token) {
        let _ = lp.epoll.del(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        lp.s.engine.obs().sub(Metric::OpenConnections, 1);
    }
}

/// Worker-pool body: pop a job, evaluate it, post the completion, wake
/// the loop. Exits when the stop flag is up and the queue is empty.
pub(crate) fn worker_loop(s: &Shared) {
    loop {
        let job = {
            let mut jobs = s.jobs.lock().unwrap();
            loop {
                if let Some(job) = jobs.pop_front() {
                    break Some(job);
                }
                if s.stop.load(Ordering::Acquire) {
                    break None;
                }
                let (guard, _) = s.jobs_cv.wait_timeout(jobs, Duration::from_millis(200)).unwrap();
                jobs = guard;
            }
        };
        let Some(job) = job else {
            return;
        };
        let obs = s.engine.obs();
        obs.stage(Stage::QueueWait, job.queued, None);
        let t0 = obs.timer();
        let resp = handle(s, job.req);
        obs.stage(Stage::Evaluate, t0, None);
        s.done.lock().unwrap().push(Completion { conn: job.conn, seq: job.seq, resp });
        s.waker.signal();
    }
}
