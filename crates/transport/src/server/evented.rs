//! The readiness-driven event loop behind [`IdeaServer`].
//!
//! One thread multiplexes the listener and every connection over the
//! vendored `mio`-style poller. The loop blocks in `poll` with no timeout
//! — an idle server schedules zero wakeups (the regression pin replacing
//! the old 20 ms accept-poll). Per connection the loop keeps:
//!
//! * a **read buffer** reassembling frames from whatever byte runs the
//!   nonblocking socket hands over ([`parse_frame`]);
//! * a **write queue**: one contiguous buffer that response frames append
//!   to and flushes drain with single `write` calls — many small pipelined
//!   responses coalesce into one syscall.
//!
//! Commands dispatch in arrival order through the non-blocking
//! [`CommandExecutor::dispatch`] reply-callback path; callbacks push onto
//! a completion queue and wake the loop, which encodes them in completion
//! order.
//!
//! Readiness handling is drain-to-`WouldBlock` throughout, so the loop is
//! correct under both level-triggered semantics (the epoll backend) and
//! the portable backend's spurious readiness.
//!
//! Admission and backpressure: an over-cap connection is answered with the typed
//! [`WireError::ServerAtCapacity`] rejection and closed; a connection
//! whose un-flushed responses exceed `high_water_bytes` has its reads —
//! and the parsing of already-buffered frames — deferred until the queue
//! drains below half the mark, so a slow reader stops generating new work
//! instead of ballooning server memory, without stalling its neighbours.

use super::{IdeaServer, ServerConfig};
use crate::frame::{frame_bytes, parse_frame, Frame, FramePayload, NO_REPLY};
use idea_core::{CommandExecutor, Response};
use idea_types::{NodeId, WireError};
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// First connection token; tokens are monotonic and never reused, so a
/// completion for a closed connection can never be misdelivered to a new
/// one occupying the same slot.
const FIRST_CONN: usize = 2;

/// Read-side scratch granularity per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// Compact the read buffer once this many consumed bytes sit ahead of the
/// unparsed remainder.
const COMPACT_AT: usize = 64 * 1024;

/// A completed command's response, queued by a dispatch callback for the
/// loop to encode: `(connection token, request_id, node, response)`.
type Completion = (usize, u64, NodeId, Response);

/// Counters shared between the loop thread and the server handle.
#[derive(Default)]
pub(super) struct Stats {
    pub(super) accepted: AtomicU64,
    pub(super) rejected: AtomicU64,
    pub(super) wakeups: AtomicU64,
    pub(super) reads_deferred: AtomicU64,
}

/// Starts the loop thread over a bound `listener`.
pub(super) fn spawn(
    listener: TcpListener,
    executor: Arc<dyn CommandExecutor>,
    config: ServerConfig,
) -> io::Result<IdeaServer> {
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let poll = Poll::new()?;
    poll.registry().register(&listener, LISTENER, Interest::READABLE)?;
    let waker = Arc::new(Waker::new(poll.registry(), WAKER)?);
    let stop_flag = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(Stats::default());

    let handle = {
        let stop_flag = Arc::clone(&stop_flag);
        let waker = Arc::clone(&waker);
        let stats = Arc::clone(&stats);
        thread::Builder::new().name("idea-evented".into()).spawn(move || {
            EventLoop {
                poll,
                listener,
                executor,
                config,
                waker,
                stop_flag,
                stats,
                conns: HashMap::new(),
                next_token: FIRST_CONN,
                completions: Arc::new(Mutex::new(Vec::new())),
                scratch: vec![0u8; READ_CHUNK],
            }
            .run();
        })?
    };

    Ok(IdeaServer { local_addr, stop_flag, waker, handle: Some(handle), stats })
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Incoming bytes not yet parsed into frames; `in_start` marks the
    /// consumed prefix (compacted lazily).
    in_buf: Vec<u8>,
    in_start: usize,
    /// The write queue: encoded response frames awaiting flush; `out_pos`
    /// marks the flushed prefix.
    out: Vec<u8>,
    out_pos: usize,
    /// What the poller currently watches for this socket (`None` =
    /// deregistered — e.g. drained EOF still awaiting completions).
    registered: Option<Interest>,
    /// Responses dispatched but not yet completed.
    in_flight: usize,
    /// Reads parked by backpressure until the write queue drains.
    reads_deferred: bool,
    /// No further reads: peer EOF, malformed frame, or engine loss. The
    /// connection closes once `in_flight` and the write queue drain.
    no_more_reads: bool,
    /// Hard failure: close without draining.
    dead: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// The interest this connection currently needs from the poller.
    fn desired_interest(&self) -> Option<Interest> {
        if self.dead {
            return None;
        }
        let wants_read = !self.no_more_reads && !self.reads_deferred;
        let wants_write = self.pending_out() > 0;
        match (wants_read, wants_write) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        }
    }

    fn done(&self) -> bool {
        self.dead || (self.no_more_reads && self.in_flight == 0 && self.pending_out() == 0)
    }
}

struct EventLoop {
    poll: Poll,
    listener: TcpListener,
    executor: Arc<dyn CommandExecutor>,
    config: ServerConfig,
    waker: Arc<Waker>,
    stop_flag: Arc<AtomicBool>,
    stats: Arc<Stats>,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    completions: Arc<Mutex<Vec<Completion>>>,
    scratch: Vec<u8>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        let mut touched: Vec<usize> = Vec::new();
        while !self.stop_flag.load(Ordering::SeqCst) {
            if self.poll.poll(&mut events, None).is_err() {
                continue; // EINTR and transient poll failures
            }
            self.stats.wakeups.fetch_add(1, Ordering::SeqCst);
            touched.clear();
            for event in events.iter() {
                match event.token() {
                    LISTENER => self.accept_ready(),
                    WAKER => self.waker.drain(),
                    Token(t) => {
                        if self.conns.contains_key(&t) {
                            touched.push(t);
                        }
                    }
                }
            }
            // Completions queued by dispatch callbacks since the last
            // pass — encode them in completion order.
            let completed = std::mem::take(&mut *self.completions.lock().expect("completions"));
            for (t, request_id, node, response) in completed {
                let Some(conn) = self.conns.get_mut(&t) else {
                    continue; // connection died while the command ran
                };
                conn.in_flight -= 1;
                enqueue_response(conn, request_id, node, response);
                if !touched.contains(&t) {
                    touched.push(t);
                }
            }
            for &t in &touched {
                self.pump(t);
            }
        }
    }

    /// Drains the accept queue: admit (Hello) or reject (typed capacity
    /// error) every pending connection.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // transient (EMFILE etc.) — retry on next readiness
            };
            self.stats.accepted.fetch_add(1, Ordering::SeqCst);
            let _ = stream.set_nodelay(true);

            if self.conns.len() >= self.config.max_connections {
                self.reject_at_capacity(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }

            let token = self.next_token;
            self.next_token += 1;
            let mut conn = Conn {
                stream,
                in_buf: Vec::new(),
                in_start: 0,
                out: Vec::new(),
                out_pos: 0,
                registered: None,
                in_flight: 0,
                reads_deferred: false,
                no_more_reads: false,
                dead: false,
            };
            // Greeting: the deployment size, before any command response.
            let hello = Frame {
                request_id: NO_REPLY,
                node: NodeId(0),
                payload: FramePayload::Hello { nodes: self.executor.node_count() as u32 },
            };
            match frame_bytes(&hello) {
                Ok(bytes) => conn.out.extend_from_slice(&bytes),
                Err(_) => continue, // unreachable: a Hello frame is tiny
            }
            self.conns.insert(token, conn);
            self.pump(token);
        }
    }

    /// Answers an over-cap connection with the typed rejection and closes
    /// it. The socket is still in blocking mode and its send buffer is
    /// empty, so the one small frame cannot block the loop.
    fn reject_at_capacity(&self, mut stream: TcpStream) {
        self.stats.rejected.fetch_add(1, Ordering::SeqCst);
        let error = WireError::ServerAtCapacity { limit: self.config.max_connections as u32 };
        let frame = Frame {
            request_id: NO_REPLY,
            node: NodeId(0),
            payload: FramePayload::Response(Response::Rejected { error }),
        };
        if let Ok(bytes) = frame_bytes(&frame) {
            let _ = stream.write_all(&bytes);
        }
    }

    /// Advances one connection's state machine as far as readiness allows:
    /// read to `WouldBlock`, parse and dispatch buffered frames (unless
    /// deferred), flush the write queue, re-evaluate backpressure, update
    /// poller interest, and reap the connection once done.
    fn pump(&mut self, token: usize) {
        let Some(mut conn) = self.conns.remove(&token) else { return };

        if !conn.no_more_reads && !conn.reads_deferred && !conn.dead {
            self.read_ready(&mut conn);
        }
        // Parse / flush / re-evaluate backpressure until no further
        // progress is possible. The loop matters for liveness: a resumed
        // connection may still hold complete frames in its read buffer
        // with nothing left in the socket — no readiness event will ever
        // re-announce them, so they must be consumed before registering.
        loop {
            self.parse_frames(token, &mut conn);
            flush(&mut conn);
            // Backpressure: park reads past the high-water mark; resume
            // once the flush above drained below half of it.
            if !conn.reads_deferred && conn.pending_out() > self.config.high_water_bytes {
                conn.reads_deferred = true;
                self.stats.reads_deferred.fetch_add(1, Ordering::SeqCst);
            } else if conn.reads_deferred && conn.pending_out() <= self.config.high_water_bytes / 2
            {
                conn.reads_deferred = false;
                // Bytes may have queued in the socket while reads were
                // parked; level-triggered readiness would re-announce
                // them, but the portable backend's spurious events would
                // not carry them here promptly.
                self.read_ready(&mut conn);
            }
            if conn.dead || conn.no_more_reads || conn.reads_deferred {
                break;
            }
            if !has_buffered_frame(&conn.in_buf[conn.in_start..]) {
                break;
            }
        }

        if conn.done() {
            if conn.registered.is_some() {
                let _ = self.poll.registry().deregister(&conn.stream);
            }
            return; // dropping the stream closes the connection
        }
        let desired = conn.desired_interest();
        if desired != conn.registered {
            let registry = self.poll.registry();
            let outcome = match (conn.registered, desired) {
                (None, Some(want)) => registry.register(&conn.stream, Token(token), want),
                (Some(_), Some(want)) => registry.reregister(&conn.stream, Token(token), want),
                (Some(_), None) => registry.deregister(&conn.stream),
                (None, None) => Ok(()),
            };
            match outcome {
                Ok(()) => conn.registered = desired,
                Err(_) => return, // poller refused the fd: drop the connection
            }
        }
        self.conns.insert(token, conn);
    }

    /// Reads until `WouldBlock` (or EOF / failure), appending to the
    /// connection's reassembly buffer.
    fn read_ready(&mut self, conn: &mut Conn) {
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.no_more_reads = true;
                    return;
                }
                Ok(n) => conn.in_buf.extend_from_slice(&self.scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Parses and handles every complete buffered frame, stopping early if
    /// backpressure engages mid-batch. A malformed frame stops reads for
    /// good (the stream position is unrecoverable) but still drains
    /// responses already owed.
    fn parse_frames(&mut self, token: usize, conn: &mut Conn) {
        loop {
            if conn.dead || conn.pending_out() > self.config.high_water_bytes {
                break;
            }
            match parse_frame(&conn.in_buf[conn.in_start..]) {
                Ok(Some((frame, used))) => {
                    conn.in_start += used;
                    self.handle_frame(token, conn, frame);
                }
                Ok(None) => break,
                Err(_) => {
                    conn.no_more_reads = true;
                    break;
                }
            }
        }
        if conn.in_start == conn.in_buf.len() {
            conn.in_buf.clear();
            conn.in_start = 0;
        } else if conn.in_start >= COMPACT_AT {
            conn.in_buf.drain(..conn.in_start);
            conn.in_start = 0;
        }
    }

    /// One decoded frame: the reply callback queues into the completion
    /// list and wakes the loop.
    fn handle_frame(&mut self, token: usize, conn: &mut Conn, frame: Frame) {
        let Frame { request_id, node, payload } = frame;
        match payload {
            FramePayload::Command(cmd) if request_id == NO_REPLY => {
                match self.executor.try_submit(node, cmd) {
                    Ok(()) => {}
                    // Command-independent failure: the engine is gone, so
                    // every later command would fail too — stop reading,
                    // which the client observes as a closed connection.
                    Err(WireError::EngineUnavailable(_)) => conn.no_more_reads = true,
                    Err(_) => {}
                }
            }
            FramePayload::Command(cmd) => {
                conn.in_flight += 1;
                let completions = Arc::clone(&self.completions);
                let waker = Arc::clone(&self.waker);
                self.executor.dispatch(
                    node,
                    cmd,
                    Box::new(move |response| {
                        completions
                            .lock()
                            .expect("completions")
                            .push((token, request_id, node, response));
                        let _ = waker.wake();
                    }),
                );
                // An inline executor may have completed synchronously;
                // fold completions for *this* connection straight into its
                // write queue so a burst of pipelined commands coalesces
                // into one flush. Completions for other connections stay
                // queued — their callback's wakeup is already pending and
                // the run loop's drain is what pumps those connections.
                let mine = {
                    let mut queue = self.completions.lock().expect("completions");
                    let mut mine = Vec::new();
                    queue.retain(|entry| {
                        if entry.0 == token {
                            mine.push(entry.clone());
                            false
                        } else {
                            true
                        }
                    });
                    mine
                };
                for (_, id, n, response) in mine {
                    conn.in_flight -= 1;
                    enqueue_response(conn, id, n, response);
                }
            }
            // Only clients send Hello/Response frames — answer with a
            // typed rejection when correlatable, otherwise ignore.
            FramePayload::Hello { .. } | FramePayload::Response(_) => {
                if request_id != NO_REPLY {
                    let error = WireError::Protocol("clients must send Command frames".to_string());
                    enqueue_response(conn, request_id, node, Response::Rejected { error });
                }
            }
        }
    }
}

/// Whether `buf` starts with one complete frame — the cheap length-only
/// check `pump` uses to decide if another parse pass can make progress.
/// Malformed prefixes count as "complete": the parse pass must see them to
/// fail the connection.
fn has_buffered_frame(buf: &[u8]) -> bool {
    if buf.is_empty() {
        return false;
    }
    let Some(header) = buf.get(..10) else {
        // A short prefix that cannot be a frame header: complete only if
        // it is already un-parseable (bad magic).
        return !crate::frame::MAGIC.starts_with(&buf[..buf.len().min(4)]);
    };
    if header[..4] != crate::frame::MAGIC {
        return true;
    }
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]) as usize;
    len > crate::frame::MAX_FRAME_BYTES || buf.len() >= 10 + len
}

/// Appends one response frame to the connection's write queue. An
/// unframeable (over-cap) response fails only its own request: substitute
/// a typed rejection so the waiting client is answered and the connection
/// survives.
fn enqueue_response(conn: &mut Conn, request_id: u64, node: NodeId, response: Response) {
    let frame = Frame { request_id, node, payload: FramePayload::Response(response) };
    let bytes = match frame_bytes(&frame) {
        Ok(bytes) => bytes,
        Err(error) => {
            let substitute = Frame {
                request_id,
                node,
                payload: FramePayload::Response(Response::Rejected { error }),
            };
            match frame_bytes(&substitute) {
                Ok(bytes) => bytes,
                Err(_) => return, // unreachable: the substitute is tiny
            }
        }
    };
    conn.out.extend_from_slice(&bytes);
}

/// Flushes the write queue until `WouldBlock` or empty. One `write` call
/// covers every queued frame.
fn flush(conn: &mut Conn) {
    while conn.pending_out() > 0 {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
}
