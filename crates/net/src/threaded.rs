//! The threaded runtime: the same protocol state machines on real threads.
//!
//! [`ShardedEngine`] runs `ThreadedConfig::shards` workers **per node**,
//! each owning one [`ShardedProto::Shard`] of the node's state, plus one
//! delay-router thread per shard. Links are crossbeam channels; a router
//! holds every in-flight message in a delay heap and forwards it when its
//! (scaled) latency elapses, so the threaded runtime exhibits the same WAN
//! behaviour as the simulator — just in wall-clock time and without
//! determinism. With `shards = 1` this is one worker and one mailbox per
//! node: the paper's one-process-per-replica deployment.
//!
//! Mailboxes are sharded: every message is routed to the worker
//! `ShardedProto::shard_of(msg, S)` of its destination node, so messages
//! about one object always land on the same FIFO worker (per-object order
//! preserved) while disjoint objects are processed concurrently. The
//! delay-router is sharded by the same function — shard `s` traffic of all
//! nodes flows through router `s` — so no single thread serialises the
//! cluster's forwarding.
//!
//! `time_scale` maps virtual time to wall time (`wall = virtual × scale`), so
//! integration tests can replay a 100-second PlanetLab scenario in a second.

use crate::proto::{Context, Proto, ShardedProto, TimerId, Wire};
use crate::stats::{NetStats, StatsSnapshot};
use crate::topology::Topology;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use idea_types::{NodeId, SimDuration, SimTime};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Threaded-engine configuration.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Seed for the router's latency sampling and per-node RNGs.
    pub seed: u64,
    /// Wall seconds per virtual second. `0.01` replays a 100 s scenario in
    /// roughly one wall second.
    pub time_scale: f64,
    /// Shard workers per node (`0` is treated as `1`). Every node's
    /// [`ShardedProto::shard_count`] must equal it.
    pub shards: usize,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig { seed: 0, time_scale: 1.0, shards: 1 }
    }
}

/// Reads the shard count for threaded runs from the `THREADED_SHARDS`
/// environment variable (the CI matrix knob), defaulting to `default`.
pub fn shards_from_env(default: usize) -> usize {
    std::env::var("THREADED_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(default)
}

enum RouterCmd<M> {
    Send { from: NodeId, to: NodeId, msg: M },
    Stop,
}

/// In-flight message inside the router's delay heap.
struct InFlight<M> {
    due: Instant,
    seq: u64,
    from: NodeId,
    to: NodeId,
    msg: M,
}

impl<M> PartialEq for InFlight<M> {
    fn eq(&self, o: &Self) -> bool {
        self.due == o.due && self.seq == o.seq
    }
}
impl<M> Eq for InFlight<M> {}
impl<M> PartialOrd for InFlight<M> {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl<M> Ord for InFlight<M> {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        self.due.cmp(&o.due).then_with(|| self.seq.cmp(&o.seq))
    }
}

/// Boxed closure run on one shard worker (see [`ShardedEngine::invoke`]).
type ShardInvokeFn<P> =
    Box<dyn FnOnce(&mut <P as ShardedProto>::Shard, &mut dyn Context<<P as Proto>::Msg>) + Send>;

enum ShardEnvelope<P: ShardedProto> {
    Net { from: NodeId, msg: P::Msg },
    Invoke(ShardInvokeFn<P>),
    Stop,
}

/// One shard worker's timers: a due-time heap plus the ids still live.
///
/// A timer fires only while its id is live, and both firing and
/// cancelling retire the id, so cancelling a timer that already fired —
/// what a deadline handler does when it cleans up its own round — leaves
/// nothing behind. Cancelled entries stay in the heap until their due
/// time, which bounds them by the timers the worker armed.
#[derive(Default)]
struct WorkerTimers {
    heap: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    live: HashSet<u64>,
    next_id: u64,
}

impl WorkerTimers {
    fn set(&mut self, due: Instant, kind: u64) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        self.heap.push(Reverse((due, id, kind)));
        self.live.insert(id);
        TimerId(id)
    }

    fn cancel(&mut self, timer: TimerId) {
        self.live.remove(&timer.0);
    }

    /// Pops the next live timer due by `now`, as `(id, kind)`.
    fn pop_due(&mut self, now: Instant) -> Option<(TimerId, u64)> {
        while let Some(&Reverse((due, id, kind))) = self.heap.peek() {
            if due > now {
                return None;
            }
            self.heap.pop();
            if self.live.remove(&id) {
                return Some((TimerId(id), kind));
            }
        }
        None
    }

    /// Wall time until the earliest armed entry, or `None` when the heap
    /// is empty.
    fn next_wait(&self) -> Option<Duration> {
        self.heap.peek().map(|Reverse((due, _, _))| due.saturating_duration_since(Instant::now()))
    }
}

/// Context handed to shard workers: sends are routed to the router of the
/// message's shard.
struct ShardCtx<'a, M> {
    me: NodeId,
    n: usize,
    shards: usize,
    start: Instant,
    scale: f64,
    route: fn(&M, usize) -> usize,
    routers: &'a [Sender<RouterCmd<M>>],
    timers: &'a mut WorkerTimers,
    rng: &'a mut StdRng,
}

impl<M> Context<M> for ShardCtx<'_, M> {
    fn now(&self) -> SimTime {
        let wall = self.start.elapsed().as_micros() as f64;
        SimTime((wall / self.scale) as u64)
    }
    fn me(&self) -> NodeId {
        self.me
    }
    fn node_count(&self) -> usize {
        self.n
    }
    fn send(&mut self, to: NodeId, msg: M) {
        let shard = (self.route)(&msg, self.shards);
        // A closed router means the engine is stopping; drop silently.
        let _ = self.routers[shard].send(RouterCmd::Send { from: self.me, to, msg });
    }
    fn set_timer(&mut self, delay: SimDuration, kind: u64) -> TimerId {
        let wall = Duration::from_secs_f64(delay.as_secs_f64() * self.scale);
        self.timers.set(Instant::now() + wall, kind)
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.timers.cancel(timer);
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }
}

/// The sharded threaded engine: `shards` workers per node, each owning one
/// [`ShardedProto::Shard`], mailboxes and delay-routers partitioned by the
/// protocol's object hash. See the module docs for the ordering guarantees.
pub struct ShardedEngine<P: ShardedProto + 'static> {
    /// Worker mailboxes, indexed `node * shards + shard`.
    worker_txs: Vec<Sender<ShardEnvelope<P>>>,
    router_txs: Vec<Sender<RouterCmd<P::Msg>>>,
    worker_handles: Vec<thread::JoinHandle<P::Shard>>,
    router_handles: Vec<thread::JoinHandle<()>>,
    shards: usize,
    stats: Arc<Mutex<NetStats>>,
    start: Instant,
    scale: f64,
}

impl<P: ShardedProto + 'static> ShardedEngine<P> {
    /// Starts `cfg.shards` workers per node plus one delay-router per
    /// shard, running `shard_on_start` on every worker.
    ///
    /// # Panics
    /// Panics when a node's [`ShardedProto::shard_count`] differs from
    /// `cfg.shards` (the store partition and the mailbox partition must be
    /// the same function, or per-object ordering breaks).
    pub fn start(topo: Topology, cfg: ThreadedConfig, nodes: Vec<P>) -> Self {
        assert_eq!(nodes.len(), topo.len(), "one protocol instance per topology node");
        assert!(cfg.time_scale > 0.0, "time_scale must be positive");
        let shards = cfg.shards.max(1);
        for node in &nodes {
            assert_eq!(
                node.shard_count(),
                shards,
                "node shard count must match ThreadedConfig::shards"
            );
        }
        let n = nodes.len();
        let stats = Arc::new(Mutex::new(NetStats::new()));
        let start = Instant::now();

        let mut router_txs = Vec::with_capacity(shards);
        let mut router_rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = unbounded::<RouterCmd<P::Msg>>();
            router_txs.push(tx);
            router_rxs.push(rx);
        }
        let mut worker_txs = Vec::with_capacity(n * shards);
        let mut worker_rxs = Vec::with_capacity(n * shards);
        for _ in 0..n * shards {
            let (tx, rx) = unbounded::<ShardEnvelope<P>>();
            worker_txs.push(tx);
            worker_rxs.push(rx);
        }

        // One delay-router per shard: shard s of every node talks through
        // router s, which delivers into the `node * shards + s` mailboxes.
        let mut router_handles = Vec::with_capacity(shards);
        for (s, rx) in router_rxs.into_iter().enumerate() {
            let topo = topo.clone();
            let txs: Vec<Sender<ShardEnvelope<P>>> = worker_txs.clone();
            let stats = Arc::clone(&stats);
            let scale = cfg.time_scale;
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0070_07e5 ^ ((s as u64) << 32));
            let handle = thread::Builder::new()
                .name(format!("idea-router-{s}"))
                .spawn(move || {
                    sharded_router_loop::<P>(topo, scale, shards, s, txs, rx, stats, &mut rng);
                })
                .expect("spawn router");
            router_handles.push(handle);
        }

        // Shard workers.
        let mut worker_handles = Vec::with_capacity(n * shards);
        for (i, node) in nodes.into_iter().enumerate() {
            let node_shards = node.into_shards();
            assert_eq!(node_shards.len(), shards, "into_shards must honour shard_count");
            for (s, mut shard) in node_shards.into_iter().enumerate() {
                let inbox = worker_rxs.remove(0);
                let routers = router_txs.clone();
                let scale = cfg.time_scale;
                let seed = cfg.seed.wrapping_add(1 + (i * shards + s) as u64);
                let handle = thread::Builder::new()
                    .name(format!("idea-node-{i}-s{s}"))
                    .spawn(move || {
                        shard_worker_loop::<P>(
                            NodeId(i as u32),
                            n,
                            shards,
                            start,
                            scale,
                            &mut shard,
                            inbox,
                            routers,
                            seed,
                        );
                        shard
                    })
                    .expect("spawn shard worker");
                worker_handles.push(handle);
            }
        }

        ShardedEngine {
            worker_txs,
            router_txs,
            worker_handles,
            router_handles,
            shards,
            stats,
            start,
            scale: cfg.time_scale,
        }
    }

    /// Current virtual time as observed by the engine.
    pub fn now(&self) -> SimTime {
        SimTime((self.start.elapsed().as_micros() as f64 / self.scale) as u64)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.worker_txs.len() / self.shards
    }

    /// True when the engine has no nodes.
    pub fn is_empty(&self) -> bool {
        self.worker_txs.is_empty()
    }

    /// Shard workers per node.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The worker index owning `object` — the same `ObjectId` hash the
    /// message mailboxes are partitioned by, exposed so command layers can
    /// route object-addressed work without re-deriving the partition.
    pub fn shard_for_object(&self, object: idea_types::ObjectId) -> usize {
        idea_types::ShardId::of(object, self.shards).index()
    }

    /// Fire-and-forget action on one shard worker of a node. The caller
    /// picks the shard owning the object it is about to touch (the same
    /// hash the mailbox uses, e.g. `ShardId::of`).
    pub fn invoke(
        &self,
        id: NodeId,
        shard: usize,
        f: impl FnOnce(&mut P::Shard, &mut dyn Context<P::Msg>) + Send + 'static,
    ) {
        let _ = self.try_invoke(id, shard, f);
    }

    /// Fallible fire-and-forget: `false` when the shard worker's mailbox is
    /// closed (the engine is stopping or stopped), so service frontends can
    /// surface a typed error instead of dropping the command silently.
    #[must_use]
    pub fn try_invoke(
        &self,
        id: NodeId,
        shard: usize,
        f: impl FnOnce(&mut P::Shard, &mut dyn Context<P::Msg>) + Send + 'static,
    ) -> bool {
        assert!(shard < self.shards, "shard index out of range");
        self.worker_txs[id.index() * self.shards + shard]
            .send(ShardEnvelope::Invoke(Box::new(f)))
            .is_ok()
    }

    /// Runs `f` on the shard worker and waits for its result.
    ///
    /// # Panics
    /// Panics when the worker is gone; use [`ShardedEngine::try_query`]
    /// where that must be an error instead.
    pub fn query<R: Send + 'static>(
        &self,
        id: NodeId,
        shard: usize,
        f: impl FnOnce(&mut P::Shard, &mut dyn Context<P::Msg>) -> R + Send + 'static,
    ) -> R {
        self.try_query(id, shard, f).expect("shard worker alive")
    }

    /// Like [`ShardedEngine::query`], but returns `None` instead of
    /// panicking when the shard worker is gone — either the mailbox is
    /// already closed, or the worker dies before replying.
    pub fn try_query<R: Send + 'static>(
        &self,
        id: NodeId,
        shard: usize,
        f: impl FnOnce(&mut P::Shard, &mut dyn Context<P::Msg>) -> R + Send + 'static,
    ) -> Option<R> {
        let (tx, rx) = bounded(1);
        if !self.try_invoke(id, shard, move |p, ctx| {
            let _ = tx.send(f(p, ctx));
        }) {
            return None;
        }
        rx.recv().ok()
    }

    /// Sleeps for `d` of *virtual* time (scaled to wall time).
    pub fn sleep_virtual(&self, d: SimDuration) {
        thread::sleep(Duration::from_secs_f64(d.as_secs_f64() * self.scale));
    }

    /// Snapshot of network statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.lock().snapshot()
    }

    /// Stops all workers and routers, reassembles each node from its shards
    /// and returns the final node states in id order.
    ///
    /// Routers are stopped and joined **before** the workers are told to
    /// stop: the router shutdown flushes its delay heap into the worker
    /// mailboxes, and the flush must precede each worker's `Stop` envelope
    /// (FIFO) to be processed rather than silently dropped.
    pub fn stop(mut self) -> Vec<P> {
        for tx in &self.router_txs {
            let _ = tx.send(RouterCmd::Stop);
        }
        for h in self.router_handles.drain(..) {
            let _ = h.join();
        }
        for tx in &self.worker_txs {
            let _ = tx.send(ShardEnvelope::Stop);
        }
        let mut shards: Vec<P::Shard> = self
            .worker_handles
            .drain(..)
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        let mut nodes = Vec::with_capacity(shards.len() / self.shards);
        while !shards.is_empty() {
            let rest = shards.split_off(self.shards.min(shards.len()));
            nodes.push(P::from_shards(std::mem::replace(&mut shards, rest)));
        }
        nodes
    }
}

#[allow(clippy::too_many_arguments)]
fn shard_worker_loop<P: ShardedProto>(
    me: NodeId,
    n: usize,
    shards: usize,
    start: Instant,
    scale: f64,
    shard: &mut P::Shard,
    inbox: Receiver<ShardEnvelope<P>>,
    routers: Vec<Sender<RouterCmd<P::Msg>>>,
    seed: u64,
) {
    let mut timers = WorkerTimers::default();
    let mut rng = StdRng::seed_from_u64(seed);

    macro_rules! ctx {
        () => {
            ShardCtx {
                me,
                n,
                shards,
                start,
                scale,
                route: P::shard_of,
                routers: &routers,
                timers: &mut timers,
                rng: &mut rng,
            }
        };
    }

    {
        let mut c = ctx!();
        P::shard_on_start(shard, &mut c);
    }

    loop {
        // Fire due timers first.
        while let Some((id, kind)) = timers.pop_due(Instant::now()) {
            let mut c = ctx!();
            P::shard_on_timer(shard, id, kind, &mut c);
        }

        // Idle shard workers must not wake the scheduler: with no timer
        // armed, block until the next envelope (Stop arrives on the
        // channel too). With hundreds of workers per machine a 25 ms idle
        // poll was a measurable scheduling storm.
        let timeout = timers.next_wait().unwrap_or(Duration::from_secs(3600));

        match inbox.recv_timeout(timeout) {
            Ok(ShardEnvelope::Net { from, msg }) => {
                let mut c = ctx!();
                P::shard_on_message(shard, from, msg, &mut c);
            }
            Ok(ShardEnvelope::Invoke(f)) => {
                let mut c = ctx!();
                f(shard, &mut c);
            }
            Ok(ShardEnvelope::Stop) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn sharded_router_loop<P: ShardedProto>(
    topo: Topology,
    scale: f64,
    shards: usize,
    my_shard: usize,
    txs: Vec<Sender<ShardEnvelope<P>>>,
    rx: Receiver<RouterCmd<P::Msg>>,
    stats: Arc<Mutex<NetStats>>,
    rng: &mut StdRng,
) {
    let deliver = |f: InFlight<P::Msg>| {
        let _ = txs[f.to.index() * shards + my_shard]
            .send(ShardEnvelope::Net { from: f.from, msg: f.msg });
    };
    let mut heap: BinaryHeap<Reverse<InFlight<P::Msg>>> = BinaryHeap::new();
    let mut seq = 0u64;
    loop {
        // Forward everything due.
        loop {
            let due_now = match heap.peek() {
                Some(Reverse(f)) => f.due <= Instant::now(),
                None => false,
            };
            if !due_now {
                break;
            }
            let Reverse(f) = heap.pop().expect("peeked");
            deliver(f);
        }

        // Nothing in flight: block until the next command.
        let timeout = heap
            .peek()
            .map(|Reverse(f)| f.due.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_secs(3600));

        match rx.recv_timeout(timeout) {
            Ok(RouterCmd::Send { from, to, msg }) => {
                stats.lock().record(msg.class(), msg.wire_size() as u64);
                let virt = if from == to {
                    SimDuration::from_micros(50)
                } else {
                    topo.sample_delay(from, to, rng)
                };
                let wall = Duration::from_secs_f64(virt.as_secs_f64() * scale);
                heap.push(Reverse(InFlight { due: Instant::now() + wall, seq, from, to, msg }));
                seq += 1;
            }
            Ok(RouterCmd::Stop) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
    // Flush anything still queued so late messages are not lost on stop.
    while let Some(Reverse(f)) = heap.pop() {
        deliver(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{Jitter, LatencyModel};
    use crate::stats::MsgClass;

    #[derive(Debug, Clone)]
    struct Token {
        hops: u32,
    }

    impl Wire for Token {
        fn class(&self) -> MsgClass {
            MsgClass::App
        }
    }

    /// The runtime's two shapes: one worker per node, and several.
    const SHARD_COUNTS: [usize; 2] = [1, 4];

    /// Starts a `ShardedEngine` at `cfg.shards` workers per node, with
    /// every node built by `node(cfg.shards)`.
    fn start<P: ShardedProto + 'static>(
        topo: Topology,
        cfg: ThreadedConfig,
        node: impl Fn(usize) -> P,
    ) -> ShardedEngine<P> {
        let nodes = (0..topo.len()).map(|_| node(cfg.shards)).collect();
        ShardedEngine::start(topo, cfg, nodes)
    }

    /// Passes a token around the ring for `laps` laps. Each shard worker
    /// is a `Ring` of its own, and a token's shard is its hop count, so
    /// consecutive hops leave through different routers.
    struct Ring {
        received: u32,
        laps: u32,
        shards: usize,
    }

    impl Ring {
        fn new(laps: u32, shards: usize) -> Self {
            Ring { received: 0, laps, shards }
        }
    }

    impl Proto for Ring {
        type Msg = Token;
        fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut dyn Context<Token>) {
            self.received += 1;
            if msg.hops < self.laps * ctx.node_count() as u32 {
                let next = NodeId((ctx.me().0 + 1) % ctx.node_count() as u32);
                ctx.send(next, Token { hops: msg.hops + 1 });
            }
        }
    }

    impl ShardedProto for Ring {
        type Shard = Ring;
        fn shard_count(&self) -> usize {
            self.shards
        }
        fn shard_of(msg: &Token, shards: usize) -> usize {
            msg.hops as usize % shards
        }
        fn into_shards(self) -> Vec<Ring> {
            let mut parts: Vec<Ring> = (0..self.shards).map(|_| Ring::new(self.laps, 1)).collect();
            parts[0].received = self.received;
            parts
        }
        fn from_shards(parts: Vec<Ring>) -> Self {
            let received = parts.iter().map(|p| p.received).sum();
            Ring { received, laps: parts[0].laps, shards: parts.len() }
        }
        fn shard_on_start(_shard: &mut Ring, _ctx: &mut dyn Context<Token>) {}
        fn shard_on_message(
            shard: &mut Ring,
            from: NodeId,
            msg: Token,
            ctx: &mut dyn Context<Token>,
        ) {
            shard.on_message(from, msg, ctx);
        }
        fn shard_on_timer(_s: &mut Ring, _t: TimerId, _k: u64, _c: &mut dyn Context<Token>) {}
    }

    #[test]
    fn token_ring_runs_on_threads() {
        for shards in SHARD_COUNTS {
            let cfg = ThreadedConfig { seed: 1, time_scale: 1.0, shards };
            let eng = start(Topology::lan(4), cfg, |s| Ring::new(3, s));
            eng.invoke(NodeId(0), 0, |_, ctx| ctx.send(NodeId(1), Token { hops: 1 }));
            // 12 hops at 0.5 ms each — give it ample wall time.
            thread::sleep(Duration::from_millis(400));
            let s = Ring::shard_of(&Token { hops: 1 }, shards);
            let received = eng.query(NodeId(1), s, |p, _| p.received);
            assert!(received >= 1, "shards={shards}");
            let states = eng.stop();
            let total: u32 = states.iter().map(|p| p.received).sum();
            assert_eq!(total, 12, "shards={shards}");
        }
    }

    #[test]
    fn stats_are_shared_and_counted() {
        for shards in SHARD_COUNTS {
            let cfg = ThreadedConfig { seed: 2, time_scale: 1.0, shards };
            let eng = start(Topology::lan(2), cfg, |s| Ring::new(1, s));
            eng.invoke(NodeId(0), 0, |_, ctx| ctx.send(NodeId(1), Token { hops: 1 }));
            thread::sleep(Duration::from_millis(200));
            let snap = eng.stats();
            let app = snap
                .per_class
                .iter()
                .find(|(c, _, _)| *c == MsgClass::App)
                .map(|(_, m, _)| *m)
                .unwrap_or(0);
            // The initial send and one forward, through different routers
            // when there are several.
            assert_eq!(app, 2, "shards={shards}");
            eng.stop();
        }
    }

    #[test]
    fn stop_delivers_messages_still_in_the_delay_heap() {
        // 200 ms constant delay: the token is guaranteed to still sit in
        // the router's delay heap when stop() runs right after the send.
        // The router's shutdown flush must land in a mailbox the worker
        // will still drain (regression: workers used to be stopped first,
        // so the flushed message arrived behind Stop and was never
        // processed).
        let delay = LatencyModel::Constant(SimDuration::from_millis(200));
        for shards in SHARD_COUNTS {
            let topo = Topology::custom(2, delay.clone(), Jitter::None);
            let cfg = ThreadedConfig { seed: 5, shards, ..Default::default() };
            let eng = start(topo, cfg, |s| Ring::new(0, s));
            // query (not invoke) so the send has reached the router before
            // stop() enqueues RouterCmd::Stop behind it.
            eng.query(NodeId(0), 0, |_, ctx| ctx.send(NodeId(1), Token { hops: 99 }));
            let states = eng.stop();
            assert_eq!(states[1].received, 1, "in-flight message dropped (shards={shards})");
        }
    }

    #[test]
    fn query_round_trips() {
        for shards in SHARD_COUNTS {
            let cfg = ThreadedConfig { shards, ..Default::default() };
            let eng = start(Topology::lan(2), cfg, |s| Ring::new(1, s));
            let me = eng.query(NodeId(1), shards - 1, |_, ctx| ctx.me());
            assert_eq!(me, NodeId(1));
            assert_eq!(eng.len(), 2);
            assert_eq!(eng.shards(), shards);
            eng.stop();
        }
    }

    /// Arms timer kind 7, and arms then cancels kind 8, on every worker.
    struct Alarm {
        fired: Vec<u64>,
        shards: usize,
    }

    impl Alarm {
        fn new(shards: usize) -> Self {
            Alarm { fired: Vec::new(), shards }
        }
    }

    impl Proto for Alarm {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut dyn Context<Token>) {
            ctx.set_timer(SimDuration::from_millis(5), 7);
            let t = ctx.set_timer(SimDuration::from_millis(10), 8);
            ctx.cancel_timer(t);
        }
        fn on_message(&mut self, _f: NodeId, _m: Token, _c: &mut dyn Context<Token>) {}
        fn on_timer(&mut self, _t: TimerId, kind: u64, _c: &mut dyn Context<Token>) {
            self.fired.push(kind);
        }
    }

    impl ShardedProto for Alarm {
        type Shard = Alarm;
        fn shard_count(&self) -> usize {
            self.shards
        }
        fn shard_of(_msg: &Token, _shards: usize) -> usize {
            0
        }
        fn into_shards(self) -> Vec<Alarm> {
            let mut parts: Vec<Alarm> = (0..self.shards).map(|_| Alarm::new(1)).collect();
            parts[0].fired = self.fired;
            parts
        }
        fn from_shards(parts: Vec<Alarm>) -> Self {
            let shards = parts.len();
            Alarm { fired: parts.into_iter().flat_map(|p| p.fired).collect(), shards }
        }
        fn shard_on_start(shard: &mut Alarm, ctx: &mut dyn Context<Token>) {
            shard.on_start(ctx);
        }
        fn shard_on_message(_s: &mut Alarm, _f: NodeId, _m: Token, _c: &mut dyn Context<Token>) {}
        fn shard_on_timer(shard: &mut Alarm, t: TimerId, kind: u64, ctx: &mut dyn Context<Token>) {
            shard.on_timer(t, kind, ctx);
        }
    }

    #[test]
    fn timers_fire_and_cancel_on_threads() {
        for shards in SHARD_COUNTS {
            let cfg = ThreadedConfig { seed: 3, time_scale: 1.0, shards };
            let eng = start(Topology::lan(1), cfg, Alarm::new);
            thread::sleep(Duration::from_millis(120));
            let states = eng.stop();
            assert_eq!(states[0].fired, vec![7; shards]);
        }
    }

    #[test]
    fn virtual_time_respects_scale() {
        for shards in SHARD_COUNTS {
            let cfg = ThreadedConfig { seed: 4, time_scale: 0.01, shards };
            let eng = start(Topology::lan(1), cfg, Alarm::new);
            thread::sleep(Duration::from_millis(50));
            // 50 ms of wall time at scale 0.01 is ~5 s of virtual time.
            let now = eng.now();
            assert!(now >= SimTime::from_secs(4), "virtual now {now} (shards={shards})");
            eng.stop();
        }
    }

    /// The deadline pattern of a detection round: the timer fires, and the
    /// handler's cleanup cancels the handle that just fired.
    struct LateCancel {
        rounds: u32,
    }

    impl Proto for LateCancel {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut dyn Context<Token>) {
            ctx.set_timer(SimDuration::ZERO, 1);
        }
        fn on_message(&mut self, _f: NodeId, _m: Token, _c: &mut dyn Context<Token>) {}
        fn on_timer(&mut self, timer: TimerId, _kind: u64, ctx: &mut dyn Context<Token>) {
            self.rounds += 1;
            ctx.cancel_timer(timer);
            if self.rounds < 100 {
                ctx.set_timer(SimDuration::ZERO, 1);
            }
        }
    }

    #[test]
    fn cancelling_fired_timers_leaves_no_residue() {
        let mut timers = WorkerTimers::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut ctx = ShardCtx {
            me: NodeId(0),
            n: 1,
            shards: 1,
            start: Instant::now(),
            scale: 1.0,
            route: Ring::shard_of,
            routers: &[],
            timers: &mut timers,
            rng: &mut rng,
        };
        let mut late = LateCancel { rounds: 0 };
        late.on_start(&mut ctx);
        // The worker loop's firing step, without the mailbox.
        while let Some((id, kind)) = ctx.timers.pop_due(Instant::now()) {
            late.on_timer(id, kind, &mut ctx);
        }
        assert_eq!(late.rounds, 100);
        assert!(timers.heap.is_empty(), "every fired timer left the heap");
        assert!(timers.live.is_empty(), "cancelling fired timers must leave no residue");
    }
}
