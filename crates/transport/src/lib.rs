//! TCP transport for the IDEA service API — the paper's *infrastructure*
//! positioning made literal: a replicated service links the client stub,
//! IDEA runs as a served system.
//!
//! Three layers, bottom up:
//!
//! * [`codec`] — a deterministic binary encoding ([`WireCodec`]) for every
//!   type of the client surface (`Command`, `Response`, their leaves),
//!   hand-written because the offline `serde` stand-in cannot drive
//!   serialization; strict decoding maps malformed input to
//!   [`idea_types::WireError::Protocol`].
//! * [`frame`] — the length-prefixed, versioned frame
//!   (`magic · version · length · request_id · node · payload`) that
//!   carries encoded values over a byte stream; `request_id` correlates
//!   pipelined responses, id [`frame::NO_REPLY`] marks fire-and-forget.
//! * [`server`] / [`client`] — [`IdeaServer`] fronts any
//!   [`idea_core::CommandExecutor`] (in practice a `ShardedEngine`, whose
//!   per-shard mailboxes the dispatch path feeds directly), and
//!   [`RemoteEngine`] implements [`idea_core::EngineHandle`] over a
//!   connection pool, so `Session` code from `idea_core::client` runs
//!   unchanged against a remote cluster. The server is one
//!   readiness-driven event loop thread for every connection, with
//!   admission and backpressure control tuned by [`ServerConfig`].
//!
//! ## Ordering and pipelining guarantees
//!
//! Per connection, commands are dispatched in arrival order into
//! per-object FIFO worker mailboxes: two commands on the same connection
//! addressing the same object execute in order. Responses return in
//! *completion* order (correlate by `request_id`). Across connections —
//! including the pool connections of one [`RemoteEngine`] — only commands
//! for the same object keep their order, because the pool pins each object
//! to one connection by the same `ShardId::of` hash the server shards by.
//!
//! ```no_run
//! use idea_core::{IdeaConfig, IdeaNode, LockedEngine, Session};
//! use idea_net::{SimConfig, SimEngine, Topology};
//! use idea_transport::{IdeaServer, RemoteEngine};
//! use idea_types::{NodeId, ObjectId, UpdatePayload};
//! use std::sync::Arc;
//!
//! let object = ObjectId(1);
//! let nodes: Vec<IdeaNode> =
//!     (0..2).map(|i| IdeaNode::new(NodeId(i), IdeaConfig::default(), &[object])).collect();
//! let engine = SimEngine::new(Topology::lan(2), SimConfig::default(), nodes);
//!
//! // Serve the engine, then talk to it over real TCP.
//! let shared = Arc::new(LockedEngine::new(engine));
//! let server = IdeaServer::bind("127.0.0.1:0", shared.clone()).unwrap();
//! let mut remote = RemoteEngine::connect(server.local_addr()).unwrap();
//! let mut session = Session::open(&mut remote, NodeId(0));
//! session.object(object).write(7, UpdatePayload::none()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod frame;
pub mod server;

pub use client::{RemoteEngine, RemoteStats};
pub use codec::{CodecError, WireCodec, WireReader};
pub use frame::{Frame, FramePayload, MAX_FRAME_BYTES, VERSION};
pub use server::{IdeaServer, ServerConfig, ServerMode};
