//! The load generator: one thread driving two pipelined TCP connections
//! with the transport's own `frame_bytes` / `parse_frame`.
//!
//! Two phase shapes:
//!
//! * **open loop** — command `i` is due at `start + i / rate` whether or
//!   not earlier ones completed; latency runs from the due time, so a
//!   stall also charges the commands queued behind it;
//! * **closed loop** — at most `window` commands are in flight; the next
//!   one goes out as soon as one completes. Its elapsed time gives
//!   goodput.

use crate::stream::{Kind, Op};
use idea_core::{Command, Response};
use idea_transport::frame::{frame_bytes, parse_frame, NO_REPLY};
use idea_transport::{Frame, FramePayload};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long a phase may overrun its nominal length before the commands
/// still outstanding count as timed out.
const GRACE: Duration = Duration::from_secs(10);

/// Longest wait for a response once every command of a phase is out; the
/// wait ends as soon as one arrives, so this only paces the deadline check.
const IDLE_WAIT: Duration = Duration::from_millis(1);

/// How a phase paces its commands.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    Open { rate: f64 },
    Closed { window: usize },
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub attempted: u64,
    /// `Written`/`Value` answers of the right kind.
    pub ok: u64,
    /// `Rejected` answers.
    pub rejected: u64,
    /// Commands with no answer by the deadline.
    pub lost: u64,
    /// Answers that matched no outstanding request, came twice, or had the
    /// wrong kind — a correctness failure of the system under test.
    pub mismatched: u64,
    pub elapsed: Duration,
    /// Milliseconds from due (open) or send (closed) time to the answer.
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    /// How late each command went out against its due time (open loop).
    pub late_ms: Vec<f64>,
    /// Levels the answered reads reported.
    pub read_levels: Vec<f64>,
    /// Writes acknowledged, by node — the updates the run created.
    pub writes_acked: u64,
    pub req_bytes: u64,
    pub resp_bytes: u64,
    /// Summed nanoseconds inside `frame_bytes` / `parse_frame` (traced
    /// phases only; zero otherwise).
    pub encode_ns: u64,
    pub parse_ns: u64,
}

impl PhaseResult {
    /// Folds a later chunk of the same phase into this one.
    pub fn absorb(&mut self, o: PhaseResult) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.rejected += o.rejected;
        self.lost += o.lost;
        self.mismatched += o.mismatched;
        self.elapsed += o.elapsed;
        self.read_ms.extend(o.read_ms);
        self.write_ms.extend(o.write_ms);
        self.late_ms.extend(o.late_ms);
        self.read_levels.extend(o.read_levels);
        self.writes_acked += o.writes_acked;
        self.req_bytes += o.req_bytes;
        self.resp_bytes += o.resp_bytes;
        self.encode_ns += o.encode_ns;
        self.parse_ns += o.parse_ns;
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
}

/// Two connections to one server.
pub struct Client {
    conns: Vec<Conn>,
    next_id: u64,
}

impl Client {
    /// Connects `count` connections and consumes each server greeting.
    pub fn connect(addr: SocketAddr, count: usize) -> io::Result<Client> {
        let mut conns = Vec::with_capacity(count);
        for _ in 0..count {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let mut inbuf = Vec::new();
            let mut chunk = [0u8; 256];
            loop {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "closed before Hello",
                    ));
                }
                inbuf.extend_from_slice(&chunk[..n]);
                match parse_frame(&inbuf) {
                    Ok(Some((frame, used))) => {
                        if !matches!(frame.payload, FramePayload::Hello { .. }) {
                            return Err(io::Error::other("first frame is not a Hello"));
                        }
                        inbuf.drain(..used);
                        break;
                    }
                    Ok(None) => continue,
                    Err(e) => return Err(io::Error::other(e.to_string())),
                }
            }
            stream.set_nonblocking(true)?;
            conns.push(Conn { stream, out: Vec::new(), out_pos: 0, inbuf });
        }
        Ok(Client { conns, next_id: NO_REPLY + 1 })
    }

    /// Runs `ops` under `pacing`. With `trace` the codec calls are timed.
    pub fn run(&mut self, ops: &[Op], pacing: Pacing, trace: bool) -> PhaseResult {
        precise_timers();
        let n = ops.len();
        let base = self.next_id;
        self.next_id += n as u64;
        let mut sent_at: Vec<Option<Instant>> = vec![None; n];
        let mut answered = vec![false; n];
        let mut r = PhaseResult { attempted: n as u64, ..PhaseResult::default() };
        let nominal = match pacing {
            Pacing::Open { rate } => Duration::from_secs_f64(n as f64 / rate),
            Pacing::Closed { .. } => Duration::ZERO,
        };
        let start = Instant::now();
        let due = |i: usize| match pacing {
            Pacing::Open { rate } => start + Duration::from_secs_f64(i as f64 / rate),
            Pacing::Closed { .. } => start,
        };
        let mut next = 0usize;
        let mut done = 0usize;
        let mut outstanding = 0usize;
        let mut last_progress = Instant::now();
        while done < n {
            let now = Instant::now();
            while next < n {
                let ready = match pacing {
                    Pacing::Open { .. } => due(next) <= now,
                    Pacing::Closed { window } => outstanding < window,
                };
                if !ready {
                    break;
                }
                let op = &ops[next];
                let frame = Frame {
                    request_id: base + next as u64,
                    node: op.node,
                    payload: FramePayload::Command(op.command.clone()),
                };
                let t0 = if trace { Some(Instant::now()) } else { None };
                let bytes = frame_bytes(&frame).expect("generated frames are in bounds");
                if let Some(t0) = t0 {
                    r.encode_ns += t0.elapsed().as_nanos() as u64;
                }
                r.req_bytes += bytes.len() as u64;
                let which = op.object().0 as usize % self.conns.len();
                let conn = &mut self.conns[which];
                conn.out.extend_from_slice(&bytes);
                let at = Instant::now();
                if let Pacing::Open { .. } = pacing {
                    r.late_ms.push(ms(at.saturating_duration_since(due(next))));
                }
                sent_at[next] = Some(if let Pacing::Open { .. } = pacing { due(next) } else { at });
                next += 1;
                outstanding += 1;
            }
            for conn in &mut self.conns {
                flush(conn);
            }
            let got = self.drain(ops, base, &sent_at, &mut answered, &mut r, trace);
            done += got;
            outstanding -= got;
            if got > 0 {
                last_progress = Instant::now();
            }
            if done == n {
                break;
            }
            let now = Instant::now();
            if now > start + nominal + GRACE && now > last_progress + GRACE {
                break;
            }
            if got == 0 {
                let wait = match pacing {
                    Pacing::Open { .. } if next < n => due(next).saturating_duration_since(now),
                    _ => IDLE_WAIT,
                };
                self.wait_readable(wait);
            }
        }
        r.elapsed = start.elapsed();
        r.lost = (n - done) as u64;
        r
    }

    /// Blocks until a connection is readable or `timeout` passes, with
    /// nanosecond resolution: a response is noticed when it arrives, not
    /// at the next due time, and a sub-millisecond wait is not rounded up
    /// (as `epoll_wait`'s millisecond timeout would).
    fn wait_readable(&mut self, timeout: Duration) {
        let mut fds: Vec<sys::PollFd> = self
            .conns
            .iter()
            .map(|c| sys::PollFd { fd: c.stream.as_raw_fd(), events: sys::POLLIN, revents: 0 })
            .collect();
        let ts =
            sys::Timespec { tv_sec: timeout.as_secs() as _, tv_nsec: timeout.subsec_nanos() as _ };
        // SAFETY: `fds` is a live array of `fds.len()` initialised entries
        // and `ts` a valid timespec, both outliving the call; a null
        // signal mask leaves the mask unchanged. An error (EINTR) just
        // ends the wait early, which the caller's loop tolerates.
        unsafe {
            sys::ppoll(fds.as_mut_ptr(), fds.len() as _, &ts, std::ptr::null());
        }
    }

    /// Reads and checks every complete response frame; returns how many
    /// outstanding commands they answered.
    fn drain(
        &mut self,
        ops: &[Op],
        base: u64,
        sent_at: &[Option<Instant>],
        answered: &mut [bool],
        r: &mut PhaseResult,
        trace: bool,
    ) -> usize {
        let mut got = 0;
        let mut chunk = [0u8; 64 * 1024];
        for conn in &mut self.conns {
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(k) => conn.inbuf.extend_from_slice(&chunk[..k]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            let mut pos = 0;
            loop {
                let t0 = if trace { Some(Instant::now()) } else { None };
                let parsed = parse_frame(&conn.inbuf[pos..]);
                if let Some(t0) = t0 {
                    r.parse_ns += t0.elapsed().as_nanos() as u64;
                }
                let (frame, used) = match parsed {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(_) => {
                        r.mismatched += 1;
                        pos = conn.inbuf.len();
                        break;
                    }
                };
                pos += used;
                r.resp_bytes += used as u64;
                let now = Instant::now();
                let idx = frame.request_id.wrapping_sub(base) as usize;
                if idx >= ops.len() || answered[idx] || sent_at[idx].is_none() {
                    r.mismatched += 1;
                    continue;
                }
                answered[idx] = true;
                got += 1;
                let op = &ops[idx];
                let lat = ms(now.saturating_duration_since(sent_at[idx].expect("checked")));
                match check(op, frame.node, frame.payload) {
                    Outcome::Ok(level) => {
                        r.ok += 1;
                        match op.kind {
                            Kind::Read => {
                                r.read_ms.push(lat);
                                r.read_levels.extend(level);
                            }
                            Kind::Write => {
                                r.write_ms.push(lat);
                                r.writes_acked += 1;
                            }
                        }
                    }
                    Outcome::Rejected => r.rejected += 1,
                    Outcome::Wrong => r.mismatched += 1,
                }
            }
            conn.inbuf.drain(..pos);
        }
        got
    }
}

enum Outcome {
    /// The right answer; reads carry the level they reported.
    Ok(Option<f64>),
    Rejected,
    Wrong,
}

/// A `Write` must be answered by `Written` for the same object, a `Read`
/// by `Value` for the same object, both from the addressed node.
fn check(op: &Op, node: idea_types::NodeId, payload: FramePayload) -> Outcome {
    let FramePayload::Response(resp) = payload else {
        return Outcome::Wrong;
    };
    if node != op.node {
        return Outcome::Wrong;
    }
    match (&op.command, resp) {
        (Command::Write { object, .. }, Response::Written { update })
            if update.object == *object =>
        {
            Outcome::Ok(None)
        }
        (Command::Read { object, .. }, Response::Value { read }) if read.object == *object => {
            Outcome::Ok(Some(read.level.value()))
        }
        (_, Response::Rejected { .. }) => Outcome::Rejected,
        _ => Outcome::Wrong,
    }
}

fn flush(conn: &mut Conn) {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(k) => conn.out_pos += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sets the calling thread's timer slack to 1 ns. With the default 50 µs
/// slack a wait for the next due time may end up to 50 µs late, and that
/// lateness would be charged to the command (latency runs from due time).
/// Best effort: without it the waits are only coarser.
pub fn precise_timers() {
    // SAFETY: PR_SET_TIMERSLACK takes plain integer arguments and only
    // changes the calling thread's timer slack.
    unsafe {
        sys::prctl(sys::PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// The system calls `std` does not wrap: `ppoll(2)`, a readiness wait with
/// a `timespec` timeout, and `prctl(2)` for the timer slack.
mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};

    pub const POLLIN: c_short = 0x1;
    pub const PR_SET_TIMERSLACK: c_int = 29;

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;

        pub fn prctl(
            option: c_int,
            arg2: c_ulong,
            arg3: c_ulong,
            arg4: c_ulong,
            arg5: c_ulong,
        ) -> c_int;
    }
}
