//! [`IdeaServer`]: the TCP frontend over any [`CommandExecutor`] — one
//! readiness-driven event loop thread multiplexing every connection over
//! the vendored `mio`-style poller: nonblocking accept, per-connection
//! read-buffer frame reassembly, and a per-connection write queue whose
//! flushes coalesce many small response frames into one `write` syscall.
//! Thread count is O(1) in the number of connections.
//!
//! Per connection, commands dispatch in arrival order into the executor's
//! per-object FIFO mailboxes via the non-blocking
//! [`CommandExecutor::dispatch`] reply-callback path, responses return in
//! *completion* order correlated by `request_id`, and fire-and-forget
//! frames (`request_id == `[`NO_REPLY`](crate::frame::NO_REPLY)) are
//! submitted with no reply path at all.
//!
//! The server bounds what clients can make it hold:
//!
//! * a connection past [`ServerConfig::max_connections`] is answered with
//!   the typed [`WireError::ServerAtCapacity`](idea_types::WireError::ServerAtCapacity) rejection and closed —
//!   never silently dropped, never hung;
//! * a connection whose un-flushed response bytes exceed
//!   [`ServerConfig::high_water_bytes`] (a slow or stalled reader) has its
//!   *reads* deferred until the queue drains below half the mark, so one
//!   slow consumer cannot balloon server memory or stall its neighbours.

use idea_core::CommandExecutor;
use mio::Waker;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

mod evented;

/// The server implementation [`ServerConfig::mode`] names. There is one:
/// the readiness-driven event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// Readiness-driven event loop: one thread for every connection.
    Evented,
}

/// Tuning for [`IdeaServer::bind_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Implementation to start; [`ServerMode::Evented`] is the only value.
    pub mode: ServerMode,
    /// Admission cap: a connection accepted while this many are live is
    /// answered with the typed [`WireError::ServerAtCapacity`](idea_types::WireError::ServerAtCapacity) rejection
    /// and closed. Default 16 384.
    pub max_connections: usize,
    /// Per-connection backpressure mark: once a connection's un-flushed
    /// response bytes exceed this, its reads are deferred until the queue
    /// drains below half the mark. Default 1 MiB.
    pub high_water_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            mode: ServerMode::Evented,
            max_connections: 16_384,
            high_water_bytes: 1 << 20,
        }
    }
}

/// A running TCP server fronting a [`CommandExecutor`].
///
/// Bind with [`IdeaServer::bind`] (default configuration) or
/// [`IdeaServer::bind_with`]; the listener address (useful with port `0`)
/// is [`IdeaServer::local_addr`]. [`IdeaServer::stop`] (also run on drop)
/// closes the listener and every connection and joins the loop thread —
/// it does **not** stop the engine, which the caller still owns.
pub struct IdeaServer {
    local_addr: SocketAddr,
    stop_flag: Arc<AtomicBool>,
    waker: Arc<Waker>,
    handle: Option<JoinHandle<()>>,
    stats: Arc<evented::Stats>,
}

impl IdeaServer {
    /// Binds `addr` and starts serving `executor` with the default
    /// [`ServerConfig`].
    ///
    /// # Errors
    /// Propagates listener- and poller-setup I/O failures; per-connection
    /// failures after that only close the affected connection.
    pub fn bind(addr: impl ToSocketAddrs, executor: Arc<dyn CommandExecutor>) -> io::Result<Self> {
        Self::bind_with(addr, executor, ServerConfig::default())
    }

    /// Binds `addr` and starts serving `executor` under `config`.
    ///
    /// # Errors
    /// Propagates listener- and poller-setup I/O failures.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        executor: Arc<dyn CommandExecutor>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        evented::spawn(TcpListener::bind(addr)?, executor, config)
    }

    /// The bound listener address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections accepted since bind (monotonic; includes closed and
    /// admission-rejected ones).
    pub fn connections_accepted(&self) -> u64 {
        self.stats.accepted.load(Ordering::SeqCst)
    }

    /// Connections refused at admission with the typed
    /// [`WireError::ServerAtCapacity`](idea_types::WireError::ServerAtCapacity) rejection.
    pub fn connections_rejected(&self) -> u64 {
        self.stats.rejected.load(Ordering::SeqCst)
    }

    /// Times the event loop woke from its poll since bind — accept
    /// readiness, connection I/O, and completion wake-ups all count. An
    /// *idle* server on an OS-backed poller blocks in the poll and burns
    /// none (the regression pin for the old 20 ms accept-poll).
    pub fn loop_wakeups(&self) -> u64 {
        self.stats.wakeups.load(Ordering::SeqCst)
    }

    /// Count of reads-deferred transitions: how many times a connection
    /// crossed [`ServerConfig::high_water_bytes`] and had its reads parked
    /// until the write queue drained.
    pub fn reads_deferred_total(&self) -> u64 {
        self.stats.reads_deferred.load(Ordering::SeqCst)
    }

    /// Stops accepting, closes every connection and joins the loop
    /// thread. Idempotent; also runs on drop.
    pub fn stop(self) {
        // Drop runs the shutdown.
    }
}

impl Drop for IdeaServer {
    fn drop(&mut self) {
        self.stop_flag.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
