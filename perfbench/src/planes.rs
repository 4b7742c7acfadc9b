//! A benchmark-side [`Proto`] wrapper around [`IdeaNode`] that times the
//! protocol planes from outside: every `on_message` by the message's
//! [`Wire::class`], every `on_timer`. Used only by traced passes.
//!
//! The wrapper forwards each call unchanged, so the protocol's trace is the
//! same with and without it — the sim workload checks exactly that.

use idea_core::protocol::ProtocolShard;
use idea_core::{IdeaHost, IdeaMsg, IdeaNode};
use idea_net::{Context, MsgClass, Proto, ShardedProto, TimerId, Wire};
use idea_types::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The planes handler time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    Detect,
    Gossip,
    Resolution,
    Transfer,
    Timer,
}

impl Plane {
    fn of(class: MsgClass) -> Plane {
        match class {
            MsgClass::Detect => Plane::Detect,
            MsgClass::Gossip | MsgClass::Overlay => Plane::Gossip,
            MsgClass::Transfer => Plane::Transfer,
            MsgClass::ResolutionCtl | MsgClass::App | MsgClass::Other => Plane::Resolution,
        }
    }
}

static NS: [AtomicU64; 5] =
    [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

fn charge(plane: Plane, since: Instant) {
    NS[plane as usize].fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Nanoseconds spent in each plane's handlers since the last [`reset`].
pub fn totals() -> [u64; 5] {
    std::array::from_fn(|i| NS[i].load(Ordering::Relaxed))
}

pub fn reset() {
    for a in &NS {
        a.store(0, Ordering::Relaxed);
    }
}

/// An [`IdeaNode`] whose handlers are timed per plane.
pub struct Timed(pub IdeaNode);

impl Proto for Timed {
    type Msg = IdeaMsg;

    fn on_start(&mut self, ctx: &mut dyn Context<IdeaMsg>) {
        self.0.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: IdeaMsg, ctx: &mut dyn Context<IdeaMsg>) {
        let plane = Plane::of(msg.class());
        let t = Instant::now();
        self.0.on_message(from, msg, ctx);
        charge(plane, t);
    }

    fn on_timer(&mut self, timer: TimerId, kind: u64, ctx: &mut dyn Context<IdeaMsg>) {
        let t = Instant::now();
        self.0.on_timer(timer, kind, ctx);
        charge(Plane::Timer, t);
    }
}

impl IdeaHost for Timed {
    fn idea(&self) -> &IdeaNode {
        &self.0
    }
    fn idea_mut(&mut self) -> &mut IdeaNode {
        &mut self.0
    }
}

impl ShardedProto for Timed {
    type Shard = ProtocolShard;

    fn shard_count(&self) -> usize {
        self.0.shard_count()
    }

    fn shard_of(msg: &IdeaMsg, shards: usize) -> usize {
        IdeaNode::shard_of(msg, shards)
    }

    fn into_shards(self) -> Vec<ProtocolShard> {
        self.0.into_shards()
    }

    fn from_shards(shards: Vec<ProtocolShard>) -> Self {
        Timed(IdeaNode::from_shards(shards))
    }

    fn shard_on_start(shard: &mut ProtocolShard, ctx: &mut dyn Context<IdeaMsg>) {
        IdeaNode::shard_on_start(shard, ctx);
    }

    fn shard_on_message(
        shard: &mut ProtocolShard,
        from: NodeId,
        msg: IdeaMsg,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let plane = Plane::of(msg.class());
        let t = Instant::now();
        IdeaNode::shard_on_message(shard, from, msg, ctx);
        charge(plane, t);
    }

    fn shard_on_timer(
        shard: &mut ProtocolShard,
        timer: TimerId,
        kind: u64,
        ctx: &mut dyn Context<IdeaMsg>,
    ) {
        let t = Instant::now();
        IdeaNode::shard_on_timer(shard, timer, kind, ctx);
        charge(Plane::Timer, t);
    }
}

impl From<Timed> for IdeaNode {
    fn from(t: Timed) -> IdeaNode {
        t.0
    }
}
