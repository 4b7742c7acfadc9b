//! The engine-agnostic protocol abstraction.
//!
//! A protocol node is a state machine reacting to messages and timers. It
//! never reads wall-clock time, never owns sockets, and draws randomness only
//! from its [`Context`] — which is what makes a run on the discrete-event
//! engine deterministic and a run on the threaded runtime
//! ([`crate::ShardedEngine`]) faithful.

use crate::stats::MsgClass;
use idea_types::{NodeId, SimDuration, SimTime};
use rand::RngCore;

/// Opaque handle to a pending timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// Metadata every protocol message must expose so the engines can account
/// for it (Table 3 counts messages; Formula 4 needs bytes).
pub trait Wire {
    /// Which protocol class the message belongs to (for per-class stats).
    fn class(&self) -> MsgClass;

    /// Approximate payload size in bytes (excluding transport headers).
    fn wire_size(&self) -> usize {
        64
    }
}

/// The world as seen by a protocol node while handling one event.
pub trait Context<M> {
    /// Current time. Virtual on the simulator, wall-clock-derived on the
    /// threaded runtime.
    fn now(&self) -> SimTime;

    /// This node's identity.
    fn me(&self) -> NodeId;

    /// Number of nodes in the deployment.
    fn node_count(&self) -> usize;

    /// Sends `msg` to `to`. Delivery is asynchronous and unordered across
    /// destinations; per-pair FIFO is *not* guaranteed (WAN semantics).
    fn send(&mut self, to: NodeId, msg: M);

    /// Arms a one-shot timer firing after `delay`; `kind` is returned to
    /// [`Proto::on_timer`] so one protocol can multiplex several timers.
    fn set_timer(&mut self, delay: SimDuration, kind: u64) -> TimerId;

    /// Cancels a pending timer (no-op if it already fired).
    fn cancel_timer(&mut self, timer: TimerId);

    /// Deterministic per-engine randomness source.
    fn rng(&mut self) -> &mut dyn RngCore;
}

/// A protocol whose per-object state can be partitioned into independent
/// shards, so one node's events can be processed by several workers.
///
/// The contract: a message's shard is a pure function of the message
/// ([`ShardedProto::shard_of`], typically an `ObjectId` hash), handling a
/// message only touches the state of its shard (plus internally
/// synchronised node-wide state), and a timer armed while handling shard
/// `s` fires back into shard `s`. Under that contract, delivering each
/// shard's messages on its own FIFO worker preserves per-object ordering
/// while disjoint objects proceed in parallel — and routing the same events
/// through a single instance in shard order (what [`Proto`] on the
/// composed type does) is semantically equivalent, which is how the
/// deterministic engine pins the threaded behaviour.
pub trait ShardedProto: Proto {
    /// Per-shard state machine (one shard's slice of the node).
    type Shard: Send + 'static;

    /// Number of shards this instance was built with.
    fn shard_count(&self) -> usize;

    /// Which shard handles `msg`, among `shards` shards. Must agree with
    /// the partition used by [`ShardedProto::into_shards`].
    fn shard_of(msg: &Self::Msg, shards: usize) -> usize;

    /// Decomposes the node into its shards, in shard-index order.
    fn into_shards(self) -> Vec<Self::Shard>;

    /// Reassembles a node from shards produced by
    /// [`ShardedProto::into_shards`] (same order).
    fn from_shards(shards: Vec<Self::Shard>) -> Self;

    /// Called once per shard when the engine starts the node.
    fn shard_on_start(shard: &mut Self::Shard, ctx: &mut dyn Context<Self::Msg>);

    /// Called for every message delivered to `shard`.
    fn shard_on_message(
        shard: &mut Self::Shard,
        from: NodeId,
        msg: Self::Msg,
        ctx: &mut dyn Context<Self::Msg>,
    );

    /// Called when a timer armed by `shard` fires.
    fn shard_on_timer(
        shard: &mut Self::Shard,
        timer: TimerId,
        kind: u64,
        ctx: &mut dyn Context<Self::Msg>,
    );
}

/// A protocol state machine.
///
/// Implementations must be `Send` so an engine holding them can move
/// between threads.
pub trait Proto: Send {
    /// Message type exchanged between nodes of this protocol.
    type Msg: Wire + Clone + Send + std::fmt::Debug + 'static;

    /// Called once when the engine starts the node.
    fn on_start(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        let _ = ctx;
    }

    /// Called for every delivered message.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut dyn Context<Self::Msg>);

    /// Called when a timer armed via [`Context::set_timer`] fires.
    fn on_timer(&mut self, timer: TimerId, kind: u64, ctx: &mut dyn Context<Self::Msg>) {
        let _ = (timer, kind, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Ping;

    impl Wire for Ping {
        fn class(&self) -> MsgClass {
            MsgClass::App
        }
    }

    struct Echo {
        seen: usize,
    }

    impl Proto for Echo {
        type Msg = Ping;
        fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut dyn Context<Ping>) {
            self.seen += 1;
            if self.seen == 1 {
                ctx.send(from, msg);
            }
        }
    }

    /// A minimal in-process context for trait-level tests.
    struct LoopCtx {
        sent: Vec<(NodeId, Ping)>,
        rng: rand::rngs::mock::StepRng,
    }

    impl Context<Ping> for LoopCtx {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn me(&self) -> NodeId {
            NodeId(0)
        }
        fn node_count(&self) -> usize {
            2
        }
        fn send(&mut self, to: NodeId, msg: Ping) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, _delay: SimDuration, _kind: u64) -> TimerId {
            TimerId(0)
        }
        fn cancel_timer(&mut self, _timer: TimerId) {}
        fn rng(&mut self) -> &mut dyn RngCore {
            &mut self.rng
        }
    }

    #[test]
    fn default_wire_size_is_nonzero() {
        assert!(Ping.wire_size() > 0);
    }

    #[test]
    fn proto_default_hooks_are_noops() {
        let mut e = Echo { seen: 0 };
        let mut ctx = LoopCtx { sent: vec![], rng: rand::rngs::mock::StepRng::new(0, 1) };
        e.on_start(&mut ctx);
        e.on_timer(TimerId(1), 7, &mut ctx);
        assert_eq!(e.seen, 0);
        e.on_message(NodeId(1), Ping, &mut ctx);
        e.on_message(NodeId(1), Ping, &mut ctx);
        assert_eq!(e.seen, 2);
        assert_eq!(ctx.sent.len(), 1); // echoed only once
    }
}
