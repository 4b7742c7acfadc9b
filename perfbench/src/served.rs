//! The served workloads: a `ShardedEngine` (4 nodes × 2 shards on
//! `Topology::lan`, real time) behind the evented `IdeaServer`, driven
//! over loopback by the one-thread generator in [`crate::client`].
//!
//! A run is a series of independent trials (see [`trials`]). Each trial
//! builds the stack several times (set-up), warms the last build, then
//! runs a fixed-count open-loop phase at a fixed rate and a fixed-count
//! closed-loop phase with a fixed in-flight window. Counters are read at
//! the phase edges from `/proc`, the server and the engine.

use crate::client::{ms, Client, Pacing, PhaseResult};
use crate::planes::{self, Timed};
use crate::procfs::{self, Group, Io};
use crate::stats::median;
use crate::stream::{self, Kind, Mix, Op, HINT};
use idea_core::protocol::ProtocolShard;
use idea_core::{
    Command, CommandExecutor, DurabilityConfig, IdeaConfig, IdeaMsg, IdeaNode, Response,
};
use idea_net::{MsgClass, ShardedEngine, ShardedProto, StatsSnapshot, ThreadedConfig, Topology};
use idea_transport::{IdeaServer, ServerConfig, ServerMode};
use idea_types::{NodeId, ObjectId, ShardId, SimTime, UpdatePayload};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

pub const NODES: usize = 4;
pub const SHARDS: usize = 2;
/// Generator connections.
pub const CONNECTIONS: usize = 2;
/// Nominal length of one trial. An e2e run is a series of independent
/// trials, each on a freshly built stack with its own command streams. A
/// stack's history grows with every write (so the cost of an op drifts
/// within a trial), and where its threads land is decided once per build;
/// pooling the chunks of several short trials keeps both from settling a
/// run's figures, and every trial does the same work whatever the run's
/// length.
const TRIAL_SECONDS: f64 = 5.0;

/// How many trials a run of `seconds` makes, and how long each is.
pub fn trials(seconds: f64) -> (usize, f64) {
    let n = (seconds / TRIAL_SECONDS).round().max(1.0);
    (n as usize, seconds / n)
}

/// Stack builds per trial; set-up time is the median over every trial's.
const SETUPS: usize = 5;
/// Group-commit window of the durable workload's WAL (fdatasync once per
/// this many appends, on both sides of any comparison).
pub const GROUP_COMMIT: u64 = 32;

/// One served workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub mix: Mix,
    /// Open-loop rate, commands per second.
    pub rate: f64,
    /// Closed-loop in-flight window (across both connections).
    pub window: usize,
    /// Closed-loop commands per measured second (a fixed constant, so the
    /// op count never depends on how fast a run went).
    pub closed_per_s: f64,
    pub durable: bool,
}

pub const READ_MOSTLY: Spec = Spec {
    mix: Mix { nodes: NODES as u32, objects: 4096, zipf_s: 0.99, read_frac: 0.9, floor_frac: 0.2 },
    rate: 5_000.0,
    window: 64,
    closed_per_s: 60_000.0,
    durable: false,
};

pub const DURABLE_WRITES: Spec = Spec {
    mix: Mix { nodes: NODES as u32, objects: 8, zipf_s: 0.0, read_frac: 0.1, floor_frac: 1.0 },
    rate: 1_500.0,
    window: 64,
    closed_per_s: 30_000.0,
    durable: true,
};

/// Op counts of one run, all fixed by the spec and the run length.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    pub warm: usize,
    pub open: usize,
    pub closed: usize,
}

impl Counts {
    pub fn of(spec: &Spec, seconds: f64) -> Counts {
        Counts {
            warm: (spec.rate * 0.1 * seconds).round() as usize,
            open: (spec.rate * 0.5 * seconds).round() as usize,
            closed: (spec.closed_per_s * 0.3 * seconds).round() as usize,
        }
    }
}

/// The three command streams of a trial.
pub struct Streams {
    pub warm: Vec<Op>,
    pub open: Vec<Op>,
    pub closed: Vec<Op>,
}

pub fn streams(spec: &Spec, seed: u64, trial: usize, c: Counts) -> Streams {
    let first = 3 * trial as u64;
    Streams {
        warm: stream::generate(&spec.mix, seed, first, c.warm),
        open: stream::generate(&spec.mix, seed, first + 1, c.open),
        closed: stream::generate(&spec.mix, seed, first + 2, c.closed),
    }
}

fn objects(spec: &Spec) -> Vec<ObjectId> {
    (1..=spec.mix.objects as u64).map(ObjectId).collect()
}

fn node_config(spec: &Spec, wal: Option<&Path>) -> IdeaConfig {
    let mut cfg = IdeaConfig::whiteboard(HINT);
    cfg.store_shards = SHARDS;
    if spec.durable {
        let dir = wal.expect("durable workloads get a WAL directory");
        cfg.durability = DurabilityConfig::sync_grouped(dir, GROUP_COMMIT);
    }
    cfg
}

/// A running engine, optionally served.
pub struct Stack<P: ShardedProto + 'static> {
    pub engine: Arc<ShardedEngine<P>>,
    pub server: Option<IdeaServer>,
    pub client: Option<Client>,
}

fn start_engine<P>(
    spec: &Spec,
    seed: u64,
    wal: Option<&Path>,
    wrap: fn(IdeaNode) -> P,
) -> Arc<ShardedEngine<P>>
where
    P: ShardedProto<Msg = IdeaMsg, Shard = ProtocolShard> + 'static,
{
    let cfg = node_config(spec, wal);
    let objs = objects(spec);
    let nodes: Vec<P> =
        (0..NODES).map(|i| wrap(IdeaNode::new(NodeId(i as u32), cfg.clone(), &objs))).collect();
    Arc::new(ShardedEngine::start(
        Topology::lan(NODES),
        ThreadedConfig { seed, time_scale: 1.0, shards: SHARDS },
        nodes,
    ))
}

/// Engine, server and generator connections: the workload's set-up.
pub fn build<P>(spec: &Spec, seed: u64, wal: Option<&Path>, wrap: fn(IdeaNode) -> P) -> Stack<P>
where
    P: ShardedProto<Msg = IdeaMsg, Shard = ProtocolShard> + 'static,
{
    let engine = start_engine(spec, seed, wal, wrap);
    let executor: Arc<dyn CommandExecutor> = engine.clone();
    let config = ServerConfig { mode: ServerMode::Evented, ..ServerConfig::default() };
    let server = IdeaServer::bind_with("127.0.0.1:0", executor, config).expect("bind loopback");
    let client = Client::connect(server.local_addr(), CONNECTIONS).expect("connect generator");
    Stack { engine, server: Some(server), client: Some(client) }
}

/// Closes the connections, stops the server and the engine, and returns
/// the final node states.
pub fn teardown<P>(mut stack: Stack<P>) -> Vec<P>
where
    P: ShardedProto + 'static,
{
    drop(stack.client.take());
    if let Some(server) = stack.server.take() {
        server.stop();
    }
    stop_engine(stack.engine)
}

/// Stops an engine once every other handle to it is gone (the server's
/// event loop drops its handle when it joins).
fn stop_engine<P: ShardedProto + 'static>(mut engine: Arc<ShardedEngine<P>>) -> Vec<P> {
    loop {
        match Arc::try_unwrap(engine) {
            Ok(e) => return e.stop(),
            Err(shared) => {
                engine = shared;
                thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// A temporary directory for one stack's WAL, inside the working directory.
pub struct WalDir(PathBuf);

impl WalDir {
    pub fn new(tag: &str) -> WalDir {
        let dir = PathBuf::from(".perfbench-tmp").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the WAL directory");
        WalDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn bytes(&self) -> u64 {
        dir_bytes(&self.0)
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |rd| {
        rd.flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// [`SETUPS`] timed builds; all but the last are torn down again, the last
/// one is returned for the measurement with every build's time.
pub fn timed_setup<P>(
    spec: &Spec,
    seed: u64,
    tag: &str,
    wrap: fn(IdeaNode) -> P,
) -> (Stack<P>, Option<WalDir>, Vec<f64>)
where
    P: ShardedProto<Msg = IdeaMsg, Shard = ProtocolShard> + 'static,
{
    let mut times = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        let wal = spec.durable.then(|| WalDir::new(&format!("{tag}{k}")));
        let t = Instant::now();
        let stack = build(spec, seed, wal.as_ref().map(WalDir::path), wrap);
        times.push(t.elapsed().as_secs_f64());
        if k + 1 == SETUPS {
            return (stack, wal, times);
        }
        teardown(stack);
    }
    unreachable!("SETUPS is positive")
}

/// Counters at one phase edge.
#[derive(Clone)]
pub struct Edge {
    pub threads: procfs::Snapshot,
    pub io: Io,
    pub wakeups: u64,
    pub net: StatsSnapshot,
}

impl Edge {
    pub fn take<P: ShardedProto + 'static>(stack: &Stack<P>) -> Edge {
        Edge {
            threads: procfs::Snapshot::take(),
            io: Io::take(),
            wakeups: stack.server.as_ref().map_or(0, IdeaServer::loop_wakeups),
            net: stack.engine.stats(),
        }
    }
}

/// Per-class `(messages, bytes)` growth between two engine snapshots.
pub fn class_delta(a: &StatsSnapshot, b: &StatsSnapshot, c: MsgClass) -> (u64, u64) {
    let get = |s: &StatsSnapshot| {
        s.per_class.iter().find(|(k, _, _)| *k == c).map_or((0, 0), |&(_, m, b)| (m, b))
    };
    let (m0, b0) = get(a);
    let (m1, b1) = get(b);
    (m1.saturating_sub(m0), b1.saturating_sub(b0))
}

/// Everything one served trial measured.
pub struct Run {
    /// Seconds each of the trial's builds took.
    pub setup_s: Vec<f64>,
    pub counts: Counts,
    pub open: PhaseResult,
    pub closed: PhaseResult,
    /// Per-chunk figures of each phase; the e2e timings are their medians.
    pub open_chunks: Vec<Chunk>,
    pub closed_chunks: Vec<Chunk>,
    /// Edges: before open, between open and closed, after closed.
    pub edges: [Edge; 3],
    /// Acknowledged writes over the whole trial, warm-up included.
    pub writes_total: u64,
    pub warm_failed: u64,
    /// Start (engine time) and delay (ms) of every resolution round
    /// started during the measured phases.
    pub rounds: Vec<(SimTime, f64)>,
    pub resolutions: u64,
    pub useful_resolutions: u64,
    pub convergence: Convergence,
    /// Durable workload: WAL bytes on disk at the end, recovery time, and
    /// whether node 0 recovered to the stopped node's state.
    pub wal_bytes: u64,
    pub recover_ms: f64,
    pub recovered_ok: bool,
    pub hop_rtt_us: f64,
    /// Mean nanoseconds of `ProtocolShard::local_write` inside a worker.
    pub write_path_ns: f64,
    pub plane_ns: [u64; 5],
}

/// Chunks each measured phase of a trial is split into (a quarter second or
/// less each). Each chunk is paced like the whole phase; short chunks let
/// the steal filter keep the quiet stretches between bursts of
/// interference from outside.
pub const CHUNKS: usize = 10;

/// A chunk counts as disturbed when the hypervisor stole more than this
/// share of the guest's CPU capacity during it (plus one tick of `/proc/stat`
/// granularity). On a shared host, steal raises served p50 several-fold and
/// p90 tenfold, whatever the program does.
const STEAL_LIMIT: f64 = 0.01;

/// The share of a run's chunks of one phase its figures come from, at
/// least (one in this many): the undisturbed chunks when there are that
/// many, otherwise that many chunks with the least steal. Disturbed chunks
/// are not run again: that would change the work (and the history the
/// system accumulates) between runs.
const MIN_COUNTED_ONE_IN: usize = 10;

/// The e2e figures of one chunk of a phase.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Latencies of the chunk's answered commands, ms.
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub server_cpu_us_per_op: f64,
    pub ok_per_s: f64,
    /// Share of the guest's CPU capacity the hypervisor stole during the
    /// chunk.
    pub steal_frac: f64,
    /// Whether that stays within [`STEAL_LIMIT`].
    pub clean: bool,
    /// The trial the chunk belongs to, and the engine time it spanned.
    pub trial: usize,
    pub window: (SimTime, SimTime),
}

/// The chunks of one phase, pooled over a run's trials, that its figures
/// come from: the undisturbed ones when they are at least one in
/// [`MIN_COUNTED_ONE_IN`], otherwise that many with the least steal.
/// Pooling lets a run whose steal came in bursts count the quiet periods of
/// any trial.
pub fn counted<'a>(chunks: impl IntoIterator<Item = &'a Chunk>) -> Vec<&'a Chunk> {
    let mut least: Vec<&Chunk> = chunks.into_iter().collect();
    let least_n = (least.len() / MIN_COUNTED_ONE_IN).max(1);
    let clean: Vec<&Chunk> = least.iter().copied().filter(|c| c.clean).collect();
    if clean.len() >= least_n {
        return clean;
    }
    least.sort_by(|a, b| a.steal_frac.total_cmp(&b.steal_frac));
    least.truncate(least_n);
    least
}

/// Runs `ops` in [`CHUNKS`] consecutive chunks of trial `trial`, reading
/// the counters and the machine's steal time at every chunk edge. Returns
/// the merged result, the chunk figures, and the edges before the first and
/// after the last chunk.
fn run_chunked<P: ShardedProto + 'static>(
    stack: &mut Stack<P>,
    trial: usize,
    ops: &[Op],
    pacing: Pacing,
    traced: bool,
) -> (PhaseResult, Vec<Chunk>, Edge, Edge) {
    let first = Edge::take(stack);
    let mut before = first.clone();
    let mut total = PhaseResult::default();
    let mut chunks: Vec<Chunk> = Vec::with_capacity(CHUNKS);
    for part in ops.chunks(ops.len().div_ceil(CHUNKS).max(1)) {
        let (steal0, vt0) = (procfs::steal_ticks(), stack.engine.now());
        let r = stack.client.as_mut().expect("built with a client").run(part, pacing, traced);
        let after = Edge::take(stack);
        let steal = procfs::steal_ticks().saturating_sub(steal0);
        let capacity = r.elapsed.as_secs_f64() * procfs::TICKS_PER_S * procfs::nproc() as f64;
        let cpu_ns =
            after.threads.server_cpu_ns().saturating_sub(before.threads.server_cpu_ns()) as f64;
        chunks.push(Chunk {
            read_ms: r.read_ms.clone(),
            write_ms: r.write_ms.clone(),
            server_cpu_us_per_op: cpu_ns / 1e3 / r.ok.max(1) as f64,
            ok_per_s: r.ok as f64 / r.elapsed.as_secs_f64(),
            steal_frac: steal as f64 / capacity,
            clean: steal as f64 <= 1.0 + STEAL_LIMIT * capacity,
            trial,
            window: (vt0, stack.engine.now()),
        });
        total.absorb(r);
        before = after;
    }
    (total, chunks, first, before)
}

/// Convergence of sampled objects after the measured phases.
#[derive(Debug, Default)]
pub struct Convergence {
    pub ms: Vec<f64>,
    pub sampled: u64,
    pub unconverged: u64,
}

/// One served trial of `seconds`. `traced` times the codec calls and the
/// protocol planes (through [`Timed`]); the e2e metrics come from untraced
/// trials.
pub fn run(spec: &Spec, seed: u64, trial: usize, seconds: f64, traced: bool) -> Run {
    if traced {
        run_with(spec, seed, trial, seconds, true, Timed)
    } else {
        run_with(spec, seed, trial, seconds, false, |n| n)
    }
}

fn run_with<P>(
    spec: &Spec,
    seed: u64,
    trial: usize,
    seconds: f64,
    traced: bool,
    wrap: fn(IdeaNode) -> P,
) -> Run
where
    P: ShardedProto<Msg = IdeaMsg, Shard = ProtocolShard> + Into<IdeaNode> + 'static,
{
    let counts = Counts::of(spec, seconds);
    let s = streams(spec, seed, trial, counts);
    let tag = if traced { "t" } else { "u" };
    let (mut stack, wal, setup_s) = timed_setup(spec, seed, tag, wrap);
    let pacing_open = Pacing::Open { rate: spec.rate };
    let warm = stack.client.as_mut().expect("built with a client").run(&s.warm, pacing_open, false);
    let vt0 = stack.engine.now();
    planes::reset();
    let (open, open_chunks, e0, e1) = run_chunked(&mut stack, trial, &s.open, pacing_open, traced);
    let closed_pacing = Pacing::Closed { window: spec.window };
    let (closed, closed_chunks, _, e2) =
        run_chunked(&mut stack, trial, &s.closed, closed_pacing, traced);
    let plane_ns = planes::totals();
    let convergence =
        if traced { converge(&stack.engine, &s.closed) } else { Convergence::default() };
    let hop_rtt_us = if traced { hop_rtt_us(&stack.engine) } else { 0.0 };
    let write_path_ns = if traced { write_path_ns(&stack.engine, spec.mix.objects) } else { 0.0 };
    let nodes: Vec<IdeaNode> = teardown(stack).into_iter().map(Into::into).collect();
    let mut rounds = Vec::new();
    let (mut resolutions, mut useful_resolutions) = (0, 0);
    for node in &nodes {
        for rec in node.resolution_log().into_iter().filter(|r| r.started >= vt0) {
            resolutions += 1;
            useful_resolutions += u64::from(rec.resolved_conflict);
            rounds.push((rec.started, rec.total_delay().as_millis_f64()));
        }
    }
    let timed_writes = if traced { WRITE_PATH_SAMPLES as u64 } else { 0 };
    let writes_total = warm.writes_acked + open.writes_acked + closed.writes_acked + timed_writes;
    let warm_failed = warm.rejected + warm.lost + warm.mismatched;
    let (mut wal_bytes, mut recover_ms, mut recovered_ok) = (0, 0.0, true);
    if let Some(wal) = &wal {
        let hash = nodes[0].state_hash();
        drop(nodes);
        wal_bytes = wal.bytes();
        let cfg = node_config(spec, Some(wal.path()));
        let t = Instant::now();
        let back = IdeaNode::recover(NodeId(0), cfg, &objects(spec)).expect("valid config");
        recover_ms = ms(t.elapsed());
        recovered_ok = back.state_hash() == hash;
    }
    Run {
        setup_s,
        counts,
        open,
        closed,
        open_chunks,
        closed_chunks,
        edges: [e0, e1, e2],
        writes_total,
        warm_failed,
        rounds,
        resolutions,
        useful_resolutions,
        convergence,
        wal_bytes,
        recover_ms,
        recovered_ok,
        hop_rtt_us,
        write_path_ns,
        plane_ns,
    }
}

/// Objects sampled for the post-phase convergence probe: the distinct
/// objects of the closed phase's last writes.
const CONVERGE_SAMPLE: usize = 256;
/// How long the probe waits for a sampled object before giving up on it.
const CONVERGE_LIMIT: Duration = Duration::from_secs(3);
/// How often the probe repeats its resolution demands.
const DEMAND_EVERY: Duration = Duration::from_millis(500);

/// After the last phase, how long each recently written object takes,
/// under repeated resolution demands, until every node holds the same
/// replica of it (its writes applied or invalidated everywhere). Polls the
/// owning shard of every node.
fn converge<P>(engine: &ShardedEngine<P>, closed: &[Op]) -> Convergence
where
    P: ShardedProto<Msg = IdeaMsg, Shard = ProtocolShard> + 'static,
{
    let mut objects: Vec<ObjectId> = closed
        .iter()
        .rev()
        .filter(|op| op.kind == Kind::Write)
        .take(CONVERGE_SAMPLE)
        .map(Op::object)
        .collect();
    objects.sort();
    objects.dedup();
    let start = Instant::now();
    let mut out = Convergence { sampled: objects.len() as u64, ..Convergence::default() };
    let mut next_demand = start;
    while !objects.is_empty() && start.elapsed() < CONVERGE_LIMIT {
        if Instant::now() >= next_demand {
            // As in the sim's settle period: every node demands a
            // resolution of each object not yet converged (§5.1), again
            // after each `DEMAND_EVERY`.
            for &object in &objects {
                for n in 0..NODES {
                    let cmd = Command::DemandResolution { object };
                    let _ = engine.try_execute(NodeId(n as u32), cmd);
                }
            }
            next_demand += DEMAND_EVERY;
        }
        // hashes[node][i] for objects[i]
        let hashes: Vec<Vec<Option<u64>>> = (0..NODES)
            .map(|n| {
                let mut row = vec![None; objects.len()];
                for s in 0..SHARDS {
                    let mine: Vec<(usize, ObjectId)> = objects
                        .iter()
                        .copied()
                        .enumerate()
                        .filter(|&(_, o)| shard_of(o) == s)
                        .collect();
                    let got = engine.query(NodeId(n as u32), s, move |shard, _| {
                        mine.into_iter()
                            .map(|(i, o)| {
                                (i, shard.store().replica(o).ok().map(|r| r.state_hash()))
                            })
                            .collect::<Vec<_>>()
                    });
                    for (i, h) in got {
                        row[i] = h;
                    }
                }
                row
            })
            .collect();
        let at = ms(start.elapsed());
        let mut i = 0;
        objects.retain(|_| {
            let first = hashes[0][i];
            let done = first.is_some() && hashes.iter().all(|row| row[i] == first);
            i += 1;
            if done {
                out.ms.push(at);
            }
            !done
        });
        thread::sleep(Duration::from_millis(1));
    }
    // Objects still apart at the limit count as converging at it (a
    // censored sample), so the quantiles never silently drop them.
    out.unconverged = objects.len() as u64;
    out.ms.extend(objects.iter().map(|_| ms(CONVERGE_LIMIT)));
    out
}

/// Writes timed by [`write_path_ns`].
const WRITE_PATH_SAMPLES: usize = 1_000;

/// Mean time of the write path alone: `ProtocolShard::local_write` timed
/// inside the owning worker through `ShardedEngine::query`, after the
/// measured phases, over the workload's objects from every node.
fn write_path_ns<P>(engine: &ShardedEngine<P>, objects: usize) -> f64
where
    P: ShardedProto<Msg = IdeaMsg, Shard = ProtocolShard> + 'static,
{
    let total: u128 = (0..WRITE_PATH_SAMPLES)
        .map(|i| {
            let object = ObjectId(1 + (i % objects) as u64);
            engine.query(NodeId((i % NODES) as u32), shard_of(object), move |shard, ctx| {
                let t = Instant::now();
                shard.local_write(object, 1, UpdatePayload::none(), ctx);
                t.elapsed().as_nanos()
            })
        })
        .sum();
    total as f64 / WRITE_PATH_SAMPLES as f64
}

/// Median round trip of a no-op query into a shard worker's mailbox.
fn hop_rtt_us<P>(engine: &ShardedEngine<P>) -> f64
where
    P: ShardedProto<Msg = IdeaMsg, Shard = ProtocolShard> + 'static,
{
    let samples: Vec<f64> = (0..2_000)
        .map(|i| {
            let t = Instant::now();
            engine.query(NodeId((i % NODES) as u32), i % SHARDS, |_, _| ());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(samples)
}

/// The in-process replay behind `core.exec_*`: the first trial's open-phase
/// commands at the same rate through `CommandExecutor::dispatch` on an
/// identically built engine with no server.
#[derive(Debug, Default)]
pub struct Replay {
    /// Microseconds from due time to the reply callback, per kind.
    pub reads_us: Vec<f64>,
    pub writes_us: Vec<f64>,
    /// Replies of the wrong kind (a correctness failure).
    pub wrong: u64,
}

pub fn replay(spec: &Spec, seed: u64, seconds: f64) -> Replay {
    let counts = Counts::of(spec, seconds);
    let s = streams(spec, seed, 0, counts);
    let wal = spec.durable.then(|| WalDir::new("r"));
    let engine = start_engine(spec, seed, wal.as_ref().map(WalDir::path), |n| n);
    let warm = paced_dispatch(&engine, &s.warm, spec.rate);
    let mut out = paced_dispatch(&engine, &s.open, spec.rate);
    out.wrong += warm.wrong;
    stop_engine(engine);
    out
}

fn paced_dispatch(engine: &Arc<ShardedEngine<IdeaNode>>, ops: &[Op], rate: f64) -> Replay {
    crate::client::precise_timers();
    let (tx, rx) = mpsc::channel::<(Kind, f64, bool)>();
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            thread::sleep((due - now).min(Duration::from_micros(100)));
        }
        let tx = tx.clone();
        let kind = op.kind;
        engine.dispatch(
            op.node,
            op.command.clone(),
            Box::new(move |resp: Response| {
                let ok = matches!(
                    (kind, &resp),
                    (Kind::Write, Response::Written { .. }) | (Kind::Read, Response::Value { .. })
                );
                let _ = tx.send((kind, due.elapsed().as_secs_f64() * 1e6, ok));
            }),
        );
    }
    drop(tx);
    let mut out = Replay::default();
    for (kind, us, ok) in rx.iter().take(ops.len()) {
        out.wrong += u64::from(!ok);
        match kind {
            Kind::Read => out.reads_us.push(us),
            Kind::Write => out.writes_us.push(us),
        }
    }
    out
}

pub fn shard_of(object: ObjectId) -> usize {
    ShardId::of(object, SHARDS).index()
}

pub fn group_delta(a: &Edge, b: &Edge, g: Group) -> procfs::ThreadCounters {
    b.threads.delta(&a.threads, g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(steal_frac: f64, clean: bool) -> Chunk {
        Chunk {
            read_ms: Vec::new(),
            write_ms: Vec::new(),
            server_cpu_us_per_op: 0.0,
            ok_per_s: 0.0,
            steal_frac,
            clean,
            trial: 0,
            window: (SimTime::ZERO, SimTime::ZERO),
        }
    }

    #[test]
    fn trials_are_about_five_seconds() {
        assert_eq!(trials(45.0), (9, 5.0));
        assert_eq!(trials(10.0), (2, 5.0));
        assert_eq!(trials(0.5), (1, 0.5));
    }

    #[test]
    fn counted_prefers_clean_chunks_then_least_steal() {
        // 3 clean of 20: at least one in ten, so exactly the clean ones.
        let mut chunks: Vec<Chunk> =
            (0..20).map(|i| chunk(0.1 + i as f64 / 100.0, false)).collect();
        for k in [2, 5, 7] {
            chunks[k] = chunk(0.0, true);
        }
        let got = counted(&chunks);
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|c| c.clean));
        // 1 clean of 20: the two chunks with the least steal.
        let mut chunks: Vec<Chunk> =
            (0..20).map(|i| chunk(0.5 - i as f64 / 100.0, false)).collect();
        chunks[0] = chunk(0.001, true);
        let steals: Vec<f64> = counted(&chunks).iter().map(|c| c.steal_frac).collect();
        assert_eq!(steals, vec![0.001, 0.5 - 19.0 / 100.0]);
    }
}
