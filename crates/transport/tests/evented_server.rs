//! Event-loop guarantees of [`IdeaServer`]: an idle server schedules zero
//! wakeups, hundreds of concurrent connections are each greeted and
//! served, admission past the connection cap is a *typed* rejection
//! (never a hang), and a slow reader hitting the write-queue high-water
//! mark has its reads deferred without stalling other connections.

use idea_core::{Command, CommandExecutor, IdeaConfig, IdeaNode, LockedEngine, Response};
use idea_net::{SimConfig, SimEngine, Topology};
use idea_transport::frame::{frame_bytes, read_frame, Frame, FramePayload, NO_REPLY};
use idea_transport::{IdeaServer, RemoteEngine, ServerConfig};
use idea_types::{NodeId, ObjectId, UpdatePayload, WireError};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An executor answering every command with a ~32 KiB response, inline on
/// the calling thread — bulk enough that a client who stops reading pushes
/// the server's write queue over any small high-water mark.
struct BlobExecutor;

const BLOB_BYTES: usize = 32 * 1024;

impl CommandExecutor for BlobExecutor {
    fn node_count(&self) -> usize {
        1
    }
    fn try_execute(&self, _node: NodeId, _cmd: Command) -> Result<Response, WireError> {
        Ok(Response::Rejected { error: WireError::Protocol("x".repeat(BLOB_BYTES)) })
    }
}

fn peek_frame(request_id: u64) -> Vec<u8> {
    frame_bytes(&Frame {
        request_id,
        node: NodeId(0),
        payload: FramePayload::Command(Command::Peek { object: ObjectId(1) }),
    })
    .unwrap()
}

/// Reads the server greeting off a raw socket.
fn expect_hello(stream: &mut TcpStream) {
    let frame = read_frame(stream).unwrap().expect("greeting");
    assert!(matches!(frame.payload, FramePayload::Hello { .. }), "{frame:?}");
}

/// An idle evented server blocks in its poll: zero wakeups while nothing
/// happens (the regression pin for the accept loop's old 20 ms sleep
/// poll), and wakeups only once a client actually connects.
#[test]
fn idle_server_schedules_no_wakeups() {
    if !mio::Poll::new().unwrap().is_os_backed() {
        // The portable fallback backend is *defined* by periodic spurious
        // wakeups; the zero-wakeup property only holds over a real OS
        // readiness queue.
        return;
    }
    let server =
        IdeaServer::bind_with("127.0.0.1:0", Arc::new(BlobExecutor), ServerConfig::default())
            .unwrap();

    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(server.loop_wakeups(), 0, "idle server must not wake");

    let mut client = TcpStream::connect(server.local_addr()).unwrap();
    expect_hello(&mut client);
    assert!(server.loop_wakeups() >= 1);
    assert_eq!(server.connections_accepted(), 1);
}

/// Fan-in: 256 connections held open at once — opened, greeted and
/// served from one client thread, so the test starts no extra threads —
/// each get their greeting and a `Peek` reply identical to the in-process
/// answer, and every one of them is admitted.
#[test]
fn many_concurrent_connections_are_each_greeted_and_served() {
    const CONNECTIONS: usize = 256;
    const NODES: usize = 2;
    let object = ObjectId(1);
    let nodes: Vec<IdeaNode> = (0..NODES as u32)
        .map(|i| IdeaNode::new(NodeId(i), IdeaConfig::default(), &[object]))
        .collect();
    let engine = Arc::new(LockedEngine::new(SimEngine::new(
        Topology::lan(NODES),
        SimConfig::default(),
        nodes,
    )));
    let write = Command::Write { object, meta_delta: 7, payload: UpdatePayload::none() };
    engine.try_execute(NodeId(0), write).unwrap();
    let expected: Vec<Response> = (0..NODES as u32)
        .map(|n| engine.try_execute(NodeId(n), Command::Peek { object }).unwrap())
        .collect();
    assert!(matches!(expected[0], Response::Value { .. }), "{:?}", expected[0]);

    let server = IdeaServer::bind_with("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut conns: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let conn = TcpStream::connect(addr).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            conn
        })
        .collect();
    for conn in &mut conns {
        expect_hello(conn);
    }
    // Every connection has a request in flight before any reply is read.
    for (i, conn) in conns.iter_mut().enumerate() {
        let frame = Frame {
            request_id: i as u64 + 1,
            node: NodeId((i % NODES) as u32),
            payload: FramePayload::Command(Command::Peek { object }),
        };
        conn.write_all(&frame_bytes(&frame).unwrap()).unwrap();
    }
    for (i, conn) in conns.iter_mut().enumerate() {
        let frame = read_frame(conn).unwrap().expect("response");
        assert_eq!(frame.request_id, i as u64 + 1);
        assert_eq!(frame.payload, FramePayload::Response(expected[i % NODES].clone()), "conn {i}");
    }
    assert_eq!(server.connections_accepted(), CONNECTIONS as u64);
    assert_eq!(server.connections_rejected(), 0);
}

/// A connection past `max_connections` is answered with the typed
/// `ServerAtCapacity` rejection — the client's connect call fails with
/// that exact error, promptly, and the slot frees once a live connection
/// closes.
#[test]
fn over_cap_connection_is_rejected_with_typed_error() {
    let server = IdeaServer::bind_with(
        "127.0.0.1:0",
        Arc::new(BlobExecutor),
        ServerConfig { max_connections: 2, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    let first = RemoteEngine::connect(addr).unwrap();
    let _second = RemoteEngine::connect(addr).unwrap();

    let started = Instant::now();
    let Err(err) = RemoteEngine::connect(addr) else {
        panic!("third connection is over the cap and must be refused");
    };
    assert_eq!(err, WireError::ServerAtCapacity { limit: 2 });
    assert!(started.elapsed() < Duration::from_secs(5), "rejection must be prompt, not a hang");
    assert_eq!(server.connections_rejected(), 1);

    // Closing a live connection frees its admission slot (the server
    // notices the close on its next readiness event).
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match RemoteEngine::connect(addr) {
            Ok(_) => break,
            Err(WireError::ServerAtCapacity { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("unexpected connect failure: {e}"),
        }
    }
}

/// A client who stops reading has its *reads* parked once un-flushed
/// responses cross the high-water mark — other connections keep getting
/// served — and every owed response is still delivered once the slow
/// client drains.
#[test]
fn slow_reader_defers_reads_without_stalling_neighbours() {
    const COMMANDS: u64 = 300;
    let server = IdeaServer::bind_with(
        "127.0.0.1:0",
        Arc::new(BlobExecutor),
        ServerConfig { high_water_bytes: 64 * 1024, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    // The slow reader: pipeline 300 commands (~9.6 MiB of responses) and
    // read nothing.
    let mut slow = TcpStream::connect(addr).unwrap();
    expect_hello(&mut slow);
    let mut burst = Vec::new();
    for id in 1..=COMMANDS {
        burst.extend_from_slice(&peek_frame(id));
    }
    slow.write_all(&burst).unwrap();

    // A neighbour connection stays fully served while the slow reader's
    // queue is parked at the high-water mark.
    let neighbour = RemoteEngine::connect(addr).unwrap();
    let started = Instant::now();
    for _ in 0..10 {
        let response = neighbour.try_execute(NodeId(0), Command::Peek { object: ObjectId(1) });
        assert!(matches!(response, Ok(Response::Rejected { .. })), "{response:?}");
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "neighbour stalled behind a backpressured connection"
    );

    // Now drain the slow connection: all 300 responses arrive, in request
    // order (one connection, one object, inline completions), none lost to
    // the defer/resume cycles.
    slow.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    for expected_id in 1..=COMMANDS {
        let frame = read_frame(&mut slow).unwrap().expect("response stream ended early");
        assert_eq!(frame.request_id, expected_id);
        let FramePayload::Response(Response::Rejected { error: WireError::Protocol(blob) }) =
            frame.payload
        else {
            panic!("unexpected payload for request {expected_id}");
        };
        assert_eq!(blob.len(), BLOB_BYTES);
    }
    assert!(
        server.reads_deferred_total() >= 1,
        "the high-water mark was never crossed — the test lost its teeth"
    );
}

/// Fire-and-forget frames stay silent on the evented server too: a
/// NO_REPLY command produces no response frame, and the next correlated
/// command's response is the first thing on the wire.
#[test]
fn no_reply_commands_stay_silent() {
    let server =
        IdeaServer::bind_with("127.0.0.1:0", Arc::new(BlobExecutor), ServerConfig::default())
            .unwrap();
    let mut client = TcpStream::connect(server.local_addr()).unwrap();
    expect_hello(&mut client);

    let mut bytes = peek_frame(NO_REPLY);
    bytes.extend_from_slice(&peek_frame(42));
    client.write_all(&bytes).unwrap();

    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let frame = read_frame(&mut client).unwrap().expect("response");
    assert_eq!(frame.request_id, 42, "the NO_REPLY command must not be answered");
}
