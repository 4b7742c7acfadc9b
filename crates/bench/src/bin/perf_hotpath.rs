//! Perf baseline harness for the detection hot path.
//!
//! Times the three costs the wire-compaction work targets — pairwise
//! `triple_against`, shipping a vector (full clone vs compact
//! [`idea_vv::VvSummary`] encode), and an N-node detect-round simulation — and emits
//! machine-readable `BENCH_hotpath.json` so future PRs have a trajectory to
//! compare against.
//!
//! The `baseline` block is the pre-compaction measurement (full
//! `ExtendedVersionVector` on every detect/sweep message, `events()` sort
//! per triple, per-write probe rounds), recorded with the identical
//! scenario driver at commit `bafd422` before the wire change landed; the
//! `current` block is measured at run time. `batched` additionally runs the
//! N=40 scenario under a burst workload with and without the
//! `detect_batch_window` coalescing, showing the probe-count reduction.
//!
//! The `sharded_drain` block measures the same backlogged write blast on
//! the threaded runtime with 1 vs 4 shard workers per node
//! (`ShardedEngine`); the recorded `cores` count qualifies the speedup —
//! on a single-core machine the configurations can only tie.
//!
//! The `fan_in` block sweeps concurrent-session counts (10 → 10,000)
//! against both server implementations at a fixed aggregate request rate,
//! recording latency percentiles from a child-process client and the
//! server's peak thread count — the threaded-vs-evented scaling story.
//!
//! Usage: `cargo run -p idea-bench --release --bin perf_hotpath`
//! (optionally `--seed N`; `--small` runs the N ∈ {10, 80} scale points
//! and a reduced drain for CI smoke; `--gossip-scale`, `--fan-in`,
//! `--burst` and `--durability` are the self-contained CI smokes of their
//! blocks — `--burst` covers the `resolution_compaction` wire A/B,
//! `--durability` the WAL write-drain/recovery/rejoin costs).

use idea_bench::LatencyHistogram;
use idea_core::client::{Command, CommandExecutor};
use idea_core::{DurabilityConfig, IdeaConfig, IdeaNode, LockedEngine};
use idea_net::{MsgClass, ShardedEngine, SimConfig, SimEngine, ThreadedConfig, Topology};
use idea_overlay::GossipMode;
use idea_transport::frame::{frame_bytes, parse_frame, read_frame, Frame, FramePayload};
use idea_transport::{IdeaServer, RemoteEngine, ServerConfig, ServerMode};
use idea_types::{NodeId, ObjectId, ShardId, SimDuration, SimTime, UpdatePayload, WriterId};
use idea_vv::ExtendedVersionVector;
use idea_wal::ShardWal;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{Read as _, Write as IoWrite};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Writers driving the detect-round scenario (the paper's top-layer size).
const WRITERS: usize = 4;
/// Measurement window of the scenario.
const WINDOW_SECS: u64 = 600;
/// Per-writer write period. The paper's workload writes every 5 s; the
/// harness presses harder (2 s) so per-writer histories reach ~300 updates
/// and the history-proportional costs dominate the measurement.
const WRITE_PERIOD_SECS: u64 = 2;

/// Pre-change baseline, recorded with this exact driver (seed 7, burst 1)
/// on the commit before the compact wire forms: `(n, detect_msgs,
/// detect_bytes, gossip_msgs, gossip_bytes, total_msgs, wall_ms)`.
const BASELINE_SCENARIOS: &[(usize, u64, u64, u64, u64, u64, f64)] = &[
    (10, 2_322, 2_356_808, 8_213, 653_336, 13_865, 16.4),
    (40, 2_320, 2_355_528, 26_058, 2_074_404, 31_541, 25.6),
    (80, 2_318, 2_356_624, 40_932, 3_255_392, 46_616, 35.9),
];
/// Pre-change micro timings from the same run: `triple_against` over two
/// 4-writer × 250-update vectors, and a full-vector clone.
const BASELINE_TRIPLE_NS: f64 = 36_511.1;
const BASELINE_CLONE_NS: f64 = 249.4;

/// Measurement window of the fig9 gossip-scale sweep — shorter than the
/// N ≤ 80 trajectory window so the N=640 point stays affordable in CI.
const GOSSIP_SCALE_WINDOW_SECS: u64 = 120;
/// Pre-flip eager baseline for the fig9 extension, recorded with this
/// exact driver (seed 7, burst 1, 120 s window) at the commit where the
/// lazy plane landed but the default gossip mode was still eager:
/// `(n, gossip_msgs, gossip_bytes)`.
const GOSSIP_SCALE_EAGER_BASELINE: &[(usize, u64, u64)] =
    &[(160, 6_496, 489_960), (320, 8_331, 626_272), (640, 9_447, 700_252)];

/// Pre-compaction resolution-plane traffic `(resolution_msgs,
/// resolution_bytes)` at the burst N=40 point, recorded with this exact
/// driver (seed 7, burst 8) at commit `f367aa9` — before the delta
/// collect / compact inform / chunked fetch wire landed. The PR-8
/// acceptance bar is the batched leg's bytes dropping ≥ 4× below this.
const RESOLUTION_BASELINE_PER_WRITE: (u64, u64) = (15_820, 15_362_048);
const RESOLUTION_BASELINE_BATCHED: (u64, u64) = (7_358, 8_163_344);

/// One detect-round scenario measurement.
#[derive(Debug, Clone)]
struct ScenarioStats {
    n: usize,
    detect_msgs: u64,
    detect_bytes: u64,
    gossip_msgs: u64,
    gossip_bytes: u64,
    resolution_msgs: u64,
    resolution_bytes: u64,
    total_msgs: u64,
    wall_ms: f64,
}

impl ScenarioStats {
    /// Gossip bytes normalised per node — the fig9 scale-out number: the
    /// fanout work each node pays, independent of deployment size.
    fn gossip_bytes_per_node(&self) -> f64 {
        self.gossip_bytes as f64 / self.n as f64
    }

    fn msgs_per_node(&self) -> f64 {
        self.total_msgs as f64 / self.n as f64
    }

    fn json(&self) -> String {
        format!(
            "{{\"n\": {}, \"detect_msgs\": {}, \"detect_bytes\": {}, \"gossip_msgs\": {}, \"gossip_bytes\": {}, \"gossip_bytes_per_node\": {:.1}, \"msgs_per_node\": {:.1}, \"resolution_msgs\": {}, \"resolution_bytes\": {}, \"total_msgs\": {}, \"wall_ms\": {:.1}}}",
            self.n, self.detect_msgs, self.detect_bytes, self.gossip_msgs, self.gossip_bytes,
            self.gossip_bytes_per_node(), self.msgs_per_node(),
            self.resolution_msgs, self.resolution_bytes, self.total_msgs, self.wall_ms
        )
    }
}

/// The plane-selection knobs of [`detect_round_scenario_mode`], bundled so
/// the A/B legs read as named overrides instead of positional booleans.
struct ScenarioOpts {
    /// Forced gossip plane (`None` = the config default).
    mode: Option<GossipMode>,
    /// Virtual-time window the writers are driven for.
    window_secs: u64,
    /// Resolution wire: `false` = the legacy full-EVV collect/inform
    /// forms, the `resolution_compaction` A/B leg.
    compact: bool,
}

impl ScenarioOpts {
    /// The measured default: config-default gossip plane, full window,
    /// compact resolution wire.
    fn default_window(window_secs: u64) -> Self {
        Self { mode: None, window_secs, compact: true }
    }
}

/// Drives `WRITERS` staggered writers for `opts.window_secs` of virtual
/// time on an `n`-node cluster and reports the network cost of the
/// detection layer. The hint floor keeps replicas converging through
/// resolutions, as in the paper's §6.1 runs — which is exactly the regime
/// where shipping full histories is wasteful: the history keeps growing
/// while the actual divergence stays bounded. `burst` writes are issued
/// 50 ms apart at each write slot (1 = the paper's workload); `batch_ms`
/// arms the probe coalescing window; the remaining plane knobs ride in
/// [`ScenarioOpts`].
fn detect_round_scenario_mode(
    n: usize,
    seed: u64,
    burst: usize,
    batch_ms: Option<u64>,
    opts: ScenarioOpts,
) -> ScenarioStats {
    let obj = ObjectId(1);
    let mut cfg = IdeaConfig::whiteboard(0.95);
    cfg.detect_batch_window = batch_ms.map(SimDuration::from_millis);
    cfg.compact_resolution = opts.compact;
    if let Some(m) = opts.mode {
        cfg.gossip.mode = m;
    }
    let nodes: Vec<IdeaNode> =
        (0..n).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &[obj])).collect();
    let mut eng = SimEngine::new(
        Topology::planetlab(n, seed),
        SimConfig { seed, ..Default::default() },
        nodes,
    );

    let start = Instant::now();
    let writers = WRITERS.min(n);
    let end = SimTime::ZERO + SimDuration::from_secs(opts.window_secs);
    let mut next_write: Vec<SimTime> =
        (0..writers).map(|w| SimTime::ZERO + SimDuration::from_secs(w as u64)).collect();
    loop {
        let t = next_write.iter().copied().min().expect("at least one writer");
        if t > end {
            break;
        }
        eng.run_until(t);
        for (w, next) in next_write.iter_mut().enumerate() {
            if *next == t {
                for _ in 0..burst {
                    eng.with_node(NodeId(w as u32), |p, ctx| {
                        p.local_write(obj, 1, UpdatePayload::none(), ctx);
                    });
                    eng.run_for(SimDuration::from_millis(50));
                }
                *next = t + SimDuration::from_secs(WRITE_PERIOD_SECS);
            }
        }
    }
    eng.run_until(end + SimDuration::from_secs(5));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let s = eng.stats();
    ScenarioStats {
        n,
        detect_msgs: s.messages(MsgClass::Detect),
        detect_bytes: s.payload_bytes(MsgClass::Detect),
        gossip_msgs: s.messages(MsgClass::Gossip),
        gossip_bytes: s.payload_bytes(MsgClass::Gossip),
        resolution_msgs: s.messages(MsgClass::ResolutionCtl) + s.messages(MsgClass::Transfer),
        resolution_bytes: s.payload_bytes(MsgClass::ResolutionCtl)
            + s.payload_bytes(MsgClass::Transfer),
        total_msgs: s.total_messages(),
        wall_ms,
    }
}

/// How the timed write blast reaches the shard workers.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DrainRoute {
    /// `ShardedEngine::invoke` closures — the low-level escape hatch.
    Closure,
    /// `Command::Write` through `EngineHandle::submit` — the typed client
    /// layer a network frontend would use.
    Session,
    /// The same `Command::Write` submits, but framed over loopback TCP
    /// through `RemoteEngine → IdeaServer` — what the served system costs
    /// on the write drain versus in-process submission.
    Remote,
}

/// Sharded-vs-unsharded wall clock on the threaded runtime: `writers` hot
/// nodes of an `n`-node cluster blast `rounds` write waves over `objects`
/// disjoint objects with no pacing, so the hot nodes' mailboxes backlog and
/// message processing — not virtual-time sleeping — dominates. The same
/// workload then drains on `shards` workers per node; with shards > 1 the
/// backlogged nodes process disjoint objects concurrently. `route` selects
/// closure-injected vs session-routed writes for the timed phase, which is
/// what pins the command layer's overhead (`client_overhead` in the JSON).
///
/// Returns the stats alongside wall time so the caller can verify both
/// configurations did equivalent protocol work.
fn sharded_drain_scenario(
    n: usize,
    shards: usize,
    seed: u64,
    rounds: usize,
    route: DrainRoute,
) -> ScenarioStats {
    const OBJECTS: u64 = 16;
    const WRITERS_HOT: u32 = 4;
    let objects: Vec<ObjectId> = (1..=OBJECTS).map(ObjectId).collect();
    let mut cfg = IdeaConfig::whiteboard(0.95);
    cfg.store_shards = shards;
    let nodes: Vec<IdeaNode> =
        (0..n).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &objects)).collect();

    let eng = Arc::new(ShardedEngine::start(
        Topology::planetlab(n, seed),
        ThreadedConfig { seed, time_scale: 0.002, shards },
        nodes,
    ));
    // The remote route serves the same engine over loopback TCP and routes
    // the timed submits through a pooled client; the other routes never
    // touch the network.
    let served = if route == DrainRoute::Remote {
        let server = IdeaServer::bind("127.0.0.1:0", eng.clone()).expect("bind loopback");
        let remote =
            RemoteEngine::connect_pool(server.local_addr(), 4).expect("connect drain client");
        Some((server, remote))
    } else {
        None
    };
    let writers = WRITERS_HOT.min(n as u32);
    // Warm-up (untimed): paced write waves so the announce gossip spreads
    // and every object's top layer forms — the blast below must exercise
    // the detection/resolution paths, not just bootstrap announces. Larger
    // clusters need more waves for the announces to reach the writers.
    let warm_rounds = if n >= 40 { 6 } else { 3 };
    for _ in 0..warm_rounds {
        for w in 0..writers {
            for &obj in &objects {
                let s = ShardId::of(obj, shards).index();
                eng.invoke(NodeId(w), s, move |shard, ctx| {
                    shard.local_write(obj, 1, UpdatePayload::none(), ctx);
                });
            }
            eng.sleep_virtual(SimDuration::from_millis(400));
        }
        eng.sleep_virtual(SimDuration::from_secs(1));
    }
    eng.sleep_virtual(SimDuration::from_secs(3));

    // Timed phase: unpaced write blast — the hot nodes' mailboxes backlog —
    // then drain until traffic stops growing.
    let start = Instant::now();
    for _ in 0..rounds {
        for w in 0..writers {
            for &obj in &objects {
                match route {
                    DrainRoute::Closure => {
                        let s = ShardId::of(obj, shards).index();
                        eng.invoke(NodeId(w), s, move |shard, ctx| {
                            shard.local_write(obj, 1, UpdatePayload::none(), ctx);
                        });
                    }
                    DrainRoute::Session => {
                        let _ = eng.try_submit(
                            NodeId(w),
                            Command::Write {
                                object: obj,
                                meta_delta: 1,
                                payload: UpdatePayload::none(),
                            },
                        );
                    }
                    DrainRoute::Remote => {
                        let (_, remote) = served.as_ref().expect("remote route is served");
                        let _ = remote.try_submit(
                            NodeId(w),
                            Command::Write {
                                object: obj,
                                meta_delta: 1,
                                payload: UpdatePayload::none(),
                            },
                        );
                    }
                }
            }
        }
        eng.sleep_virtual(SimDuration::from_millis(500));
    }
    let mut last = 0u64;
    let mut stable = 0;
    let drain_deadline = Instant::now() + Duration::from_secs(60);
    while stable < 3 {
        if Instant::now() >= drain_deadline {
            // Steady traffic (e.g. background resolution) never goes quiet;
            // report what accumulated instead of hanging the CI smoke.
            eprintln!("sharded_drain: traffic did not settle within 60 s; reporting as-is");
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
        let total = eng.stats().per_class.iter().map(|(_, m, _)| *m).sum::<u64>();
        if total == last {
            stable += 1;
        } else {
            stable = 0;
            last = total;
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let snap = eng.stats();
    if let Some((server, remote)) = served {
        drop(remote);
        server.stop();
    }
    let eng = Arc::try_unwrap(eng).ok().expect("server released the engine");
    let _ = eng.stop();

    let class = |c: MsgClass| {
        snap.per_class
            .iter()
            .find(|(cl, _, _)| *cl == c)
            .map(|(_, m, b)| (*m, *b))
            .unwrap_or((0, 0))
    };
    let (dm, db) = class(MsgClass::Detect);
    let (gm, gb) = class(MsgClass::Gossip);
    let (rm, rb) = class(MsgClass::ResolutionCtl);
    let (tm, tb) = class(MsgClass::Transfer);
    let total: u64 = snap.per_class.iter().map(|(_, m, _)| *m).sum();
    ScenarioStats {
        n,
        detect_msgs: dm,
        detect_bytes: db,
        gossip_msgs: gm,
        gossip_bytes: gb,
        resolution_msgs: rm + tm,
        resolution_bytes: rb + tb,
        total_msgs: total,
        wall_ms,
    }
}

/// One fig9 gossip-scale point: the paper workload (burst 1, no probe
/// batching) on the shortened window, gossip plane forced to `mode`.
/// Traffic counts are deterministic per (n, seed, mode); wall time is
/// reported as measured from a single run.
fn gossip_scale_point(n: usize, seed: u64, mode: GossipMode) -> ScenarioStats {
    detect_round_scenario_mode(
        n,
        seed,
        1,
        None,
        ScenarioOpts { mode: Some(mode), ..ScenarioOpts::default_window(GOSSIP_SCALE_WINDOW_SECS) },
    )
}

/// Min-of-three wall clock over identical deterministic runs (the minimum
/// of repeated identical work is the noise-robust estimator).
fn measured(n: usize, seed: u64, burst: usize, batch_ms: Option<u64>) -> ScenarioStats {
    measured_wire(n, seed, burst, batch_ms, true)
}

/// [`measured`] with the resolution wire selected explicitly — the
/// `resolution_compaction` block runs the same burst legs under both
/// wires for the same-commit A/B.
fn measured_wire(
    n: usize,
    seed: u64,
    burst: usize,
    batch_ms: Option<u64>,
    compact: bool,
) -> ScenarioStats {
    let run = || {
        detect_round_scenario_mode(
            n,
            seed,
            burst,
            batch_ms,
            ScenarioOpts { compact, ..ScenarioOpts::default_window(WINDOW_SECS) },
        )
    };
    let mut best = run();
    for _ in 0..2 {
        best.wall_ms = best.wall_ms.min(run().wall_ms);
    }
    best
}

/// Builds an EVV with `writers` writers and `each` updates per writer.
fn evv_with(writers: u32, each: u64) -> ExtendedVersionVector {
    let mut v = ExtendedVersionVector::new();
    for s in 1..=each {
        for w in 0..writers {
            v.record(WriterId(w), s, SimTime::from_secs(s), 1);
        }
    }
    v
}

/// Mean nanoseconds per iteration of `f`, over enough iterations to matter.
fn time_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    // Warm-up & calibration.
    let start = Instant::now();
    std::hint::black_box(f());
    let once = start.elapsed().max(std::time::Duration::from_nanos(1));
    let iters = (std::time::Duration::from_millis(80).as_nanos() / once.as_nanos())
        .clamp(10, 200_000) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The fig9 gossip-scale block: pinned pre-flip eager baseline, live eager
/// and lazy measurements at each `sizes` point, and the per-N byte factor.
/// Returned without a trailing comma; the caller splices it into the
/// top-level object.
fn gossip_scale_json(seed: u64, sizes: &[usize]) -> String {
    let points: Vec<(ScenarioStats, ScenarioStats)> = sizes
        .iter()
        .map(|&n| {
            (
                gossip_scale_point(n, seed, GossipMode::Eager),
                gossip_scale_point(n, seed, GossipMode::Lazy),
            )
        })
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "  \"gossip_scale\": {{");
    let _ = writeln!(out, "    \"window_secs\": {GOSSIP_SCALE_WINDOW_SECS},");
    let _ = writeln!(out, "    \"eager_baseline_preflip\": [");
    for (i, &(n, gm, gb)) in GOSSIP_SCALE_EAGER_BASELINE.iter().enumerate() {
        let comma = if i + 1 == GOSSIP_SCALE_EAGER_BASELINE.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "      {{\"n\": {n}, \"gossip_msgs\": {gm}, \"gossip_bytes\": {gb}, \"gossip_bytes_per_node\": {:.1}}}{comma}",
            gb as f64 / n as f64
        );
    }
    let _ = writeln!(out, "    ],");
    for (label, pick) in [("eager", 0usize), ("lazy", 1usize)] {
        let _ = writeln!(out, "    \"{label}\": [");
        for (i, pair) in points.iter().enumerate() {
            let s = if pick == 0 { &pair.0 } else { &pair.1 };
            let comma = if i + 1 == points.len() { "" } else { "," };
            let _ = writeln!(out, "      {}{comma}", s.json());
        }
        let _ = writeln!(out, "    ],");
    }
    let _ = writeln!(out, "    \"lazy_over_eager_bytes_factor\": [");
    for (i, (eager, lazy)) in points.iter().enumerate() {
        let factor = lazy.gossip_bytes as f64 / eager.gossip_bytes.max(1) as f64;
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(out, "      {{\"n\": {}, \"factor\": {factor:.3}}}{comma}", eager.n);
    }
    let _ = writeln!(out, "    ]");
    out.push_str("  }");
    out
}

/// The PR-8 `resolution_compaction` block: pinned pre-compaction
/// resolution traffic at the burst N=40 point, the same legs re-measured
/// live under the legacy full-EVV wire and the compact delta wire
/// (same commit, one config flag apart), and the byte-reduction factors.
/// `bytes_reduction_vs_baseline.batched_1s_window` is the acceptance
/// number: it must be ≥ 4. Returned without a trailing comma.
fn resolution_compaction_json(seed: u64) -> String {
    let legacy_pw = measured_wire(40, seed, 8, None, false);
    let legacy_ba = measured_wire(40, seed, 8, Some(1_000), false);
    let compact_pw = measured_wire(40, seed, 8, None, true);
    let compact_ba = measured_wire(40, seed, 8, Some(1_000), true);
    let factor = |base: u64, now: u64| base as f64 / now.max(1) as f64;

    let mut out = String::new();
    let _ = writeln!(out, "  \"resolution_compaction\": {{");
    let _ = writeln!(out, "    \"baseline_precompaction\": {{");
    let _ = writeln!(out, "      \"commit\": \"f367aa9 (pre resolution-compaction)\",");
    let _ = writeln!(
        out,
        "      \"per_write_probing\": {{\"resolution_msgs\": {}, \"resolution_bytes\": {}}},",
        RESOLUTION_BASELINE_PER_WRITE.0, RESOLUTION_BASELINE_PER_WRITE.1
    );
    let _ = writeln!(
        out,
        "      \"batched_1s_window\": {{\"resolution_msgs\": {}, \"resolution_bytes\": {}}}",
        RESOLUTION_BASELINE_BATCHED.0, RESOLUTION_BASELINE_BATCHED.1
    );
    let _ = writeln!(out, "    }},");
    for (label, pw, ba) in
        [("legacy_full_wire", &legacy_pw, &legacy_ba), ("compact_wire", &compact_pw, &compact_ba)]
    {
        let _ = writeln!(out, "    \"{label}\": {{");
        let _ = writeln!(out, "      \"per_write_probing\": {},", pw.json());
        let _ = writeln!(out, "      \"batched_1s_window\": {}", ba.json());
        let _ = writeln!(out, "    }},");
    }
    let _ = writeln!(out, "    \"bytes_reduction_vs_baseline\": {{");
    let _ = writeln!(
        out,
        "      \"per_write_probing\": {:.2},",
        factor(RESOLUTION_BASELINE_PER_WRITE.1, compact_pw.resolution_bytes)
    );
    let _ = writeln!(
        out,
        "      \"batched_1s_window\": {:.2}",
        factor(RESOLUTION_BASELINE_BATCHED.1, compact_ba.resolution_bytes)
    );
    let _ = writeln!(out, "    }},");
    let _ = writeln!(out, "    \"bytes_reduction_vs_legacy_same_commit\": {{");
    let _ = writeln!(
        out,
        "      \"per_write_probing\": {:.2},",
        factor(legacy_pw.resolution_bytes, compact_pw.resolution_bytes)
    );
    let _ = writeln!(
        out,
        "      \"batched_1s_window\": {:.2}",
        factor(legacy_ba.resolution_bytes, compact_ba.resolution_bytes)
    );
    let _ = writeln!(out, "    }}");
    out.push_str("  }");
    out
}

// ---------------------------------------------------------------------------
// durability: WAL cost on the write path, recovery time, rejoin delta
// ---------------------------------------------------------------------------

/// Deployment size of the durability block — the acceptance point shared
/// with the trajectory scenarios.
const DUR_N: usize = 40;
/// Virtual window of the durability workload. Shorter than the trajectory
/// window: WAL cost scales with appends, not with how long the tail of the
/// run idles.
const DUR_WINDOW_SECS: u64 = 60;
/// Writes the crashed node misses before rejoining (virtual seconds).
const DUR_DOWNTIME_SECS: u64 = 30;
/// Group-commit window of the coalesced-sync leg: one `fdatasync` per this
/// many appends instead of one per append.
const DUR_GROUP_COMMIT: u64 = 32;
const DUR_OBJ: ObjectId = ObjectId(1);
/// The crashed-and-rejoining writer of the rejoin legs.
const DUR_CRASHED: NodeId = NodeId(3);

/// Drives the listed `writers` at the paper pace (one write every
/// `WRITE_PERIOD_SECS`, start times staggered 1 s apart) from `from` for
/// `secs` of virtual time — the trajectory workload, factored so the
/// rejoin legs can keep writing after a crash.
fn drive_paced_writers(eng: &mut SimEngine<IdeaNode>, from: SimTime, secs: u64, writers: &[u32]) {
    let end = from + SimDuration::from_secs(secs);
    let mut next_write: Vec<(u32, SimTime)> = writers
        .iter()
        .enumerate()
        .map(|(i, &w)| (w, from + SimDuration::from_secs(i as u64)))
        .collect();
    loop {
        let t = next_write.iter().map(|&(_, t)| t).min().expect("at least one writer");
        if t > end {
            break;
        }
        eng.run_until(t);
        for (w, next) in &mut next_write {
            if *next == t {
                let writer = *w;
                eng.with_node(NodeId(writer), |p, ctx| {
                    p.local_write(DUR_OBJ, 1, UpdatePayload::none(), ctx);
                });
                *next = t + SimDuration::from_secs(WRITE_PERIOD_SECS);
            }
        }
    }
    eng.run_until(end);
}

/// The durability legs' config: the trajectory whiteboard config with the
/// given WAL policy. Everything except the durability plane is identical
/// across legs, so wall-clock deltas are pure WAL cost.
fn dur_cfg(durability: DurabilityConfig) -> IdeaConfig {
    let mut cfg = IdeaConfig::whiteboard(0.95);
    cfg.durability = durability;
    cfg
}

/// One write-drain leg: the paced `DUR_N`-node workload under `cfg`.
/// Returns the settled engine and the run's wall-clock in milliseconds.
fn durability_workload(cfg: &IdeaConfig, seed: u64) -> (SimEngine<IdeaNode>, f64) {
    let nodes: Vec<IdeaNode> =
        (0..DUR_N).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &[DUR_OBJ])).collect();
    let mut eng = SimEngine::new(
        Topology::planetlab(DUR_N, seed),
        SimConfig { seed, ..Default::default() },
        nodes,
    );
    let start = Instant::now();
    let writers: Vec<u32> = (0..WRITERS.min(DUR_N) as u32).collect();
    drive_paced_writers(&mut eng, SimTime::ZERO, DUR_WINDOW_SECS, &writers);
    eng.run_until(SimTime::ZERO + SimDuration::from_secs(DUR_WINDOW_SECS + 5));
    (eng, start.elapsed().as_secs_f64() * 1e3)
}

/// Transfer-class bytes a crashed writer's re-entry costs. `fresh = false`
/// recovers the node from its WAL (rejoin fetches only the missed
/// suffix); `fresh = true` restarts it with an empty store (the
/// full-state-transfer baseline).
fn durability_rejoin_bytes(seed: u64, cfg: &IdeaConfig, fresh: bool) -> u64 {
    let (mut eng, _) = durability_workload(cfg, seed);

    // Crash: drop the in-memory node, restart from disk (or empty).
    let restarted = if fresh {
        IdeaNode::new(DUR_CRASHED, cfg.clone(), &[DUR_OBJ])
    } else {
        IdeaNode::recover(DUR_CRASHED, cfg.clone(), &[DUR_OBJ]).expect("valid config")
    };
    *eng.node_mut(DUR_CRASHED) = restarted;

    // Downtime: the node is cut off both ways (messages to a dead node
    // vanish) while the surviving writers keep the workload going.
    for i in 0..DUR_N as u32 {
        let other = NodeId(i);
        if other != DUR_CRASHED {
            eng.partition(other, DUR_CRASHED);
            eng.partition(DUR_CRASHED, other);
        }
    }
    let downtime_from = SimTime::ZERO + SimDuration::from_secs(DUR_WINDOW_SECS + 5);
    let survivors: Vec<u32> =
        (0..WRITERS.min(DUR_N) as u32).filter(|&w| NodeId(w) != DUR_CRASHED).collect();
    drive_paced_writers(&mut eng, downtime_from, DUR_DOWNTIME_SECS, &survivors);

    // Restart + rejoin: heal, delta-fetch from node 0, settle.
    for i in 0..DUR_N as u32 {
        let other = NodeId(i);
        if other != DUR_CRASHED {
            eng.heal(other, DUR_CRASHED);
            eng.heal(DUR_CRASHED, other);
        }
    }
    let before = eng.stats().payload_bytes(MsgClass::Transfer);
    eng.with_node(DUR_CRASHED, |p, ctx| p.rejoin_from(NodeId(0), ctx));
    eng.run_for(SimDuration::from_secs(10));
    eng.stats().payload_bytes(MsgClass::Transfer) - before
}

/// Total size of the files under `dir` — the on-disk WAL footprint.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut total = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += dir_bytes(&path);
        } else if let Ok(meta) = entry.metadata() {
            total += meta.len();
        }
    }
    total
}

/// The PR-9 `durability` block: write-drain wall clock under Off / Async /
/// Sync (identical workload, min-of-three), WAL recovery time for the
/// busiest writer, and the rejoin cost of a recovered node vs a fresh one
/// in transfer-class bytes. Returned without a trailing comma.
fn durability_json(seed: u64) -> String {
    let base = std::env::temp_dir().join(format!("idea-bench-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cfg_off = dur_cfg(DurabilityConfig::off());
    let cfg_async = dur_cfg(DurabilityConfig::buffered(base.join("async")));
    let cfg_sync = dur_cfg(DurabilityConfig::sync(base.join("sync")));
    let cfg_gc = dur_cfg(DurabilityConfig::sync_grouped(base.join("sync-gc"), DUR_GROUP_COMMIT));

    // Write-drain overhead: the identical deterministic run under each
    // mode; every repetition recreates the WAL from genesis, so min-of-3
    // wall clocks compare like with like.
    let run3 = |cfg: &IdeaConfig| {
        let (mut eng, mut best) = durability_workload(cfg, seed);
        for _ in 0..2 {
            let (again, wall) = durability_workload(cfg, seed);
            eng = again;
            best = best.min(wall);
        }
        let msgs = eng.stats().total_messages();
        (best, msgs, eng)
    };
    let (off_ms, off_msgs, _) = run3(&cfg_off);
    let (async_ms, async_msgs, _) = run3(&cfg_async);
    let (gc_ms, gc_msgs, _) = run3(&cfg_gc);
    let (sync_ms, sync_msgs, sync_eng) = run3(&cfg_sync);

    // Recovery: replay the busiest writer's WAL and compare content.
    let mut tail_records = 0usize;
    for s in 0..cfg_sync.store_shards as u32 {
        let r = ShardWal::load(&cfg_sync.durability, NodeId(0), s).expect("readable WAL");
        tail_records += r.tail.len();
    }
    let wal_bytes = dir_bytes(&base.join("sync").join("node-0"));
    let t0 = Instant::now();
    let rec = IdeaNode::recover(NodeId(0), cfg_sync.clone(), &[DUR_OBJ]).expect("valid config");
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let bit_identical = rec.state_hash() == sync_eng.node(NodeId(0)).state_hash();
    drop(sync_eng);

    // Rejoin: the recovered node's delta fetch vs a fresh node's full
    // transfer, each on its own freshly-written WAL directory.
    let delta = durability_rejoin_bytes(
        seed,
        &dur_cfg(DurabilityConfig::sync(base.join("rejoin-delta"))),
        false,
    );
    let full = durability_rejoin_bytes(
        seed,
        &dur_cfg(DurabilityConfig::sync(base.join("rejoin-full"))),
        true,
    );
    let _ = std::fs::remove_dir_all(&base);

    let mut out = String::new();
    let _ = writeln!(out, "  \"durability\": {{");
    let _ = writeln!(out, "    \"n\": {DUR_N},");
    let _ = writeln!(out, "    \"window_secs\": {DUR_WINDOW_SECS},");
    let _ = writeln!(out, "    \"write_drain\": {{");
    for (label, wall, msgs) in [
        ("off", off_ms, off_msgs),
        ("async", async_ms, async_msgs),
        ("sync", sync_ms, sync_msgs),
        ("sync_group_commit", gc_ms, gc_msgs),
    ] {
        let _ =
            writeln!(out, "      \"{label}\": {{\"wall_ms\": {wall:.1}, \"total_msgs\": {msgs}}},");
    }
    let _ = writeln!(out, "      \"group_commit_window\": {DUR_GROUP_COMMIT},");
    let _ =
        writeln!(out, "      \"async_over_off_wall_factor\": {:.2},", async_ms / off_ms.max(1e-9));
    let _ =
        writeln!(out, "      \"sync_over_off_wall_factor\": {:.2},", sync_ms / off_ms.max(1e-9));
    let _ = writeln!(
        out,
        "      \"sync_group_commit_over_off_wall_factor\": {:.2},",
        gc_ms / off_ms.max(1e-9)
    );
    let _ = writeln!(
        out,
        "      \"sync_over_sync_group_commit_wall_factor\": {:.2},",
        sync_ms / gc_ms.max(1e-9)
    );
    // Identical message totals across modes pin the WAL as a pure side
    // effect — durability never perturbs the protocol trace.
    let _ = writeln!(
        out,
        "      \"trace_invariant\": {}",
        off_msgs == async_msgs && off_msgs == sync_msgs && off_msgs == gc_msgs
    );
    let _ = writeln!(out, "    }},");
    let _ = writeln!(out, "    \"recovery\": {{");
    let _ = writeln!(out, "      \"node\": 0,");
    let _ = writeln!(out, "      \"wal_tail_records\": {tail_records},");
    let _ = writeln!(out, "      \"wal_dir_bytes\": {wal_bytes},");
    let _ = writeln!(out, "      \"recover_ms\": {recover_ms:.2},");
    let _ = writeln!(out, "      \"bit_identical\": {bit_identical}");
    let _ = writeln!(out, "    }},");
    let _ = writeln!(out, "    \"rejoin\": {{");
    let _ = writeln!(out, "      \"downtime_secs\": {DUR_DOWNTIME_SECS},");
    let _ = writeln!(out, "      \"delta_transfer_bytes\": {delta},");
    let _ = writeln!(out, "      \"full_transfer_bytes\": {full},");
    let _ = writeln!(out, "      \"delta_over_full\": {:.3}", delta as f64 / full.max(1) as f64);
    let _ = writeln!(out, "    }}");
    out.push_str("  }");
    out
}

// ---------------------------------------------------------------------------
// fan_in: many-session latency sweep, threaded baseline vs evented server
// ---------------------------------------------------------------------------

/// Aggregate offered rate of the fan-in sweep, fixed across session counts
/// so the percentiles compare *connection-scaling* cost, not queueing: at
/// every leg the server does the same requests/second, only spread over
/// more connections.
const FAN_IN_RATE_PER_SEC: u64 = 2_000;
/// Samples per leg (5 s of measurement at the fixed rate).
const FAN_IN_REQUESTS: u64 = 10_000;
/// The paper-engine deployment served during the sweep.
const FAN_IN_OBJECT: ObjectId = ObjectId(1);

/// One fan-in leg: `sessions` concurrent connections driven by a child
/// process at the fixed aggregate rate against one server mode.
struct FanInLeg {
    sessions: usize,
    hist: LatencyHistogram,
    errors: u64,
    /// Peak `Threads:` count of the *server* process during the leg.
    peak_threads: u64,
    wall_ms: f64,
}

impl FanInLeg {
    fn json(&self) -> String {
        let us = |ns: u64| ns as f64 / 1e3;
        format!(
            "{{\"sessions\": {}, \"samples\": {}, \"errors\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \"max_us\": {:.1}, \"peak_threads\": {}, \"wall_ms\": {:.0}}}",
            self.sessions,
            self.hist.count(),
            self.errors,
            us(self.hist.p50()),
            us(self.hist.p99()),
            us(self.hist.p999()),
            us(self.hist.max()),
            self.peak_threads,
            self.wall_ms,
        )
    }
}

/// `Threads:` from `/proc/self/status` (0 where /proc is unavailable).
fn current_thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Runs one leg: serves a `LockedEngine<SimEngine>` in *this* process
/// (sampling its peak thread count) and re-executes this binary as the
/// client child — two processes because the 10,000-session leg needs
/// ~10 k fds on each side of the loopback, and a single process would
/// blow through the fd ceiling holding both ends.
fn fan_in_leg(mode: ServerMode, sessions: usize, seed: u64) -> FanInLeg {
    let cfg = IdeaConfig::whiteboard(0.95);
    let nodes: Vec<IdeaNode> =
        (0..2).map(|i| IdeaNode::new(NodeId(i), cfg.clone(), &[FAN_IN_OBJECT])).collect();
    let engine = SimEngine::new(Topology::lan(2), SimConfig { seed, ..Default::default() }, nodes);
    let shared = Arc::new(LockedEngine::new(engine));
    let server = IdeaServer::bind_with(
        "127.0.0.1:0",
        shared,
        ServerConfig { mode, ..ServerConfig::default() },
    )
    .expect("bind fan-in server");

    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicU64::new(0));
    let sampler = {
        let stop = Arc::clone(&stop);
        let peak = Arc::clone(&peak);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(current_thread_count(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    let started = Instant::now();
    let exe = std::env::current_exe().expect("current_exe");
    let output = std::process::Command::new(exe)
        .args([
            "--fan-in-client",
            &server.local_addr().to_string(),
            &sessions.to_string(),
            &FAN_IN_RATE_PER_SEC.to_string(),
            &FAN_IN_REQUESTS.to_string(),
        ])
        .output()
        .expect("spawn fan-in client child");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    stop.store(true, Ordering::Relaxed);
    let _ = sampler.join();
    if !output.status.success() {
        panic!(
            "fan-in client failed ({} sessions, {mode:?}): {}",
            sessions,
            String::from_utf8_lossy(&output.stderr)
        );
    }

    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut hist = LatencyHistogram::new();
    let mut errors = u64::MAX;
    for line in stdout.lines() {
        if let Some(encoded) = line.strip_prefix("FANIN_HIST ") {
            hist = LatencyHistogram::decode(encoded.trim()).expect("child histogram");
        } else if line.starts_with("FANIN ") {
            errors = line
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("errors="))
                .and_then(|v| v.parse().ok())
                .expect("child error count");
        }
    }
    assert!(errors != u64::MAX, "child reported no error count:\n{stdout}");
    FanInLeg { sessions, hist, errors, peak_threads: peak.load(Ordering::Relaxed), wall_ms }
}

/// Per-connection client state in the fan-in child.
struct FanInSession {
    stream: TcpStream,
    in_buf: Vec<u8>,
    in_start: usize,
    dead: bool,
}

/// The child role behind the hidden `--fan-in-client addr sessions rate
/// requests` invocation: opens `sessions` connections, paces `requests`
/// Peek commands round-robin at the aggregate `rate`, and prints the
/// latency histogram (nanoseconds) plus an error count for the parent to
/// decode. Responses are collected with the same vendored poller the
/// server uses — one thread regardless of session count.
fn fan_in_client(args: &[String]) -> ! {
    let addr: SocketAddr = args[0].parse().expect("server address");
    let sessions: usize = args[1].parse().expect("session count");
    let rate: u64 = args[2].parse().expect("rate");
    let requests: u64 = args[3].parse().expect("request count");

    let mut poll = mio::Poll::new().expect("client poller");
    let mut conns: Vec<FanInSession> = Vec::with_capacity(sessions);
    let mut errors = 0u64;
    for i in 0..sessions {
        let mut stream = TcpStream::connect(addr).expect("connect session");
        let _ = stream.set_nodelay(true);
        let hello = read_frame(&mut stream).expect("handshake").expect("greeting");
        assert!(matches!(hello.payload, FramePayload::Hello { .. }), "{hello:?}");
        stream.set_nonblocking(true).expect("nonblocking session");
        poll.registry()
            .register(&stream, mio::Token(i), mio::Interest::READABLE)
            .expect("register session");
        conns.push(FanInSession { stream, in_buf: Vec::new(), in_start: 0, dead: false });
    }

    // One Peek per request, round-robin over the sessions; request ids are
    // globally unique so in-flight requests correlate through one map.
    let command_bytes = |request_id: u64| {
        frame_bytes(&Frame {
            request_id,
            node: NodeId(0),
            payload: FramePayload::Command(Command::Peek { object: FAN_IN_OBJECT }),
        })
        .expect("encode Peek")
    };
    let interval = Duration::from_nanos(1_000_000_000 / rate);
    let mut hist = LatencyHistogram::new();
    let mut in_flight: HashMap<u64, Instant> = HashMap::new();
    let mut sent = 0u64;
    let mut completed = 0u64;
    let mut events = mio::Events::with_capacity(1024);
    let started = Instant::now();
    let deadline = started + interval * requests as u32 + Duration::from_secs(20);

    while (completed + errors < requests || sent < requests) && Instant::now() < deadline {
        // Send everything due by now (the poll below has millisecond
        // granularity; a wake may owe several sub-millisecond slots).
        while sent < requests && started.elapsed() >= interval * sent as u32 {
            let id = sent + 1;
            let conn = &mut conns[(sent % sessions as u64) as usize];
            sent += 1;
            if conn.dead {
                errors += 1;
                continue;
            }
            let bytes = command_bytes(id);
            match conn.stream.write_all(&bytes) {
                Ok(()) => {
                    in_flight.insert(id, Instant::now());
                }
                Err(_) => {
                    conn.dead = true;
                    errors += 1;
                }
            }
        }
        let timeout = if sent < requests {
            let next_due = started + interval * sent as u32;
            next_due.saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(50)
        };
        if poll.poll(&mut events, Some(timeout)).is_err() {
            continue;
        }
        for event in events.iter() {
            let mio::Token(i) = event.token();
            let conn = &mut conns[i];
            if conn.dead {
                continue;
            }
            // Drain the socket, then every complete response frame.
            let mut scratch = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => conn.in_buf.extend_from_slice(&scratch[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            loop {
                match parse_frame(&conn.in_buf[conn.in_start..]) {
                    Ok(Some((frame, used))) => {
                        conn.in_start += used;
                        if let Some(t0) = in_flight.remove(&frame.request_id) {
                            hist.record(t0.elapsed().as_nanos() as u64);
                            completed += 1;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.in_start == conn.in_buf.len() {
                conn.in_buf.clear();
                conn.in_start = 0;
            }
        }
    }
    // Requests still unanswered at the deadline are failures.
    errors += in_flight.len() as u64;

    println!("FANIN sessions={sessions} sent={sent} completed={completed} errors={errors}");
    println!("FANIN_HIST {}", hist.encode());
    std::process::exit(0);
}

/// The `fan_in` JSON block: the threaded baseline at the session counts it
/// can reach, the evented server through the ten-thousand-session leg, and
/// the headline guard (evented p99 at 100 sessions vs threaded).
/// Returned without a trailing comma.
fn fan_in_json(seed: u64, threaded_legs: &[usize], evented_legs: &[usize]) -> String {
    let run = |mode: ServerMode, legs: &[usize]| -> Vec<FanInLeg> {
        legs.iter()
            .map(|&sessions| {
                eprintln!("fan_in: {mode:?} x {sessions} sessions...");
                fan_in_leg(mode, sessions, seed)
            })
            .collect()
    };
    let threaded = run(ServerMode::Threaded, threaded_legs);
    let evented = run(ServerMode::Evented, evented_legs);
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);

    let mut out = String::new();
    let _ = writeln!(out, "  \"fan_in\": {{");
    let _ = writeln!(out, "    \"rate_per_sec\": {FAN_IN_RATE_PER_SEC},");
    let _ = writeln!(out, "    \"requests_per_leg\": {FAN_IN_REQUESTS},");
    let _ = writeln!(out, "    \"cores\": {cores},");
    for (label, legs) in [("threaded", &threaded), ("evented", &evented)] {
        let _ = writeln!(out, "    \"{label}\": [");
        for (i, leg) in legs.iter().enumerate() {
            let comma = if i + 1 == legs.len() { "" } else { "," };
            let _ = writeln!(out, "      {}{comma}", leg.json());
        }
        let _ = writeln!(out, "    ],");
    }
    // The acceptance guard: at 100 sessions (a count both servers reach
    // comfortably) the evented p99 must not be worse than the baseline's.
    let guard = |legs: &[FanInLeg]| {
        legs.iter().find(|l| l.sessions == 100).map(|l| l.hist.p99() as f64 / 1e3)
    };
    match (guard(&threaded), guard(&evented)) {
        (Some(t), Some(e)) => {
            let _ = writeln!(out, "    \"p99_at_100_sessions\": {{");
            let _ = writeln!(out, "      \"threaded_us\": {t:.1},");
            let _ = writeln!(out, "      \"evented_us\": {e:.1},");
            let _ = writeln!(out, "      \"evented_over_threaded\": {:.2}", e / t.max(1e-9));
            let _ = writeln!(out, "    }}");
        }
        _ => {
            let _ = writeln!(out, "    \"p99_at_100_sessions\": null");
        }
    }
    out.push_str("  }");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // The hidden child role behind the fan-in sweep — must dispatch before
    // anything else (it is re-executed per leg).
    if let Some(pos) = args.iter().position(|a| a == "--fan-in-client") {
        fan_in_client(&args[pos + 1..]);
    }
    let seed = idea_bench::seed_from_args();
    let small = args.iter().any(|a| a == "--small");
    let gossip_scale_only = args.iter().any(|a| a == "--gossip-scale");
    let fan_in_only = args.iter().any(|a| a == "--fan-in");
    let burst_only = args.iter().any(|a| a == "--burst");
    let durability_only = args.iter().any(|a| a == "--durability");

    // CI `crash-recovery-smoke`: just the durability block (write-drain
    // overhead, recovery time, rejoin delta vs full), written as a
    // self-contained BENCH_hotpath.json (the full harness overwrites it on
    // the next unrestricted run).
    if durability_only {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"seed\": {seed},");
        json.push_str(&durability_json(seed));
        json.push_str("\n}\n");
        std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
        print!("{json}");
        return;
    }

    // CI `perf-smoke`: just the burst N=40 resolution-compaction A/B,
    // written as a self-contained BENCH_hotpath.json (the full harness
    // overwrites it on the next unrestricted run).
    if burst_only {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"seed\": {seed},");
        json.push_str(&resolution_compaction_json(seed));
        json.push_str("\n}\n");
        std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
        print!("{json}");
        return;
    }

    // CI `gossip-scale` smoke: just the N=160 eager/lazy sweep, written as
    // a self-contained BENCH_hotpath.json (the full harness overwrites it
    // on the next unrestricted run).
    if gossip_scale_only {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"seed\": {seed},");
        json.push_str(&gossip_scale_json(seed, &[160]));
        json.push_str("\n}\n");
        std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
        print!("{json}");
        return;
    }

    // CI `fan-in-smoke`: the 10/100/1,000-session legs against both server
    // modes, written as a self-contained BENCH_hotpath.json (the full
    // harness additionally runs the 10,000-session evented leg).
    if fan_in_only {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"seed\": {seed},");
        json.push_str(&fan_in_json(seed, &[10, 100, 1_000], &[10, 100, 1_000]));
        json.push_str("\n}\n");
        std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
        print!("{json}");
        return;
    }

    // ---- micro: pairwise triple + vector shipping cost --------------------
    let a = evv_with(WRITERS as u32, 250);
    let mut b = evv_with(WRITERS as u32, 250);
    for w in 0..WRITERS as u32 {
        let next = b.count(WriterId(w)) + 1;
        b.record(WriterId(w), next, SimTime::from_secs(251), 1);
    }
    let triple_ns = time_ns(|| a.triple_against(&b));
    let clone_ns = time_ns(|| a.clone());
    let summary_ns = time_ns(|| a.summary(8));

    // ---- scenarios --------------------------------------------------------
    // The N=80 scale point runs even in the CI smoke so the per-category
    // byte split (detect vs gossip vs resolution) of the gossip-fanout
    // ROADMAP item has a tracked trajectory.
    let sizes: &[usize] = if small { &[10, 80] } else { &[10, 40, 80] };
    let scenarios: Vec<ScenarioStats> = sizes.iter().map(|&n| measured(n, seed, 1, None)).collect();

    // Burst workload at N=40: per-write probing vs a 1 s coalescing window.
    let (burst_unbatched, burst_batched) = if small {
        (None, None)
    } else {
        (Some(measured(40, seed, 8, None)), Some(measured(40, seed, 8, Some(1_000))))
    };

    // Sharded-vs-unsharded drain on the threaded runtime (per-node shard
    // workers; see `sharded_drain_scenario`). The smoke uses a smaller
    // cluster so CI exercises the parallel path without the thread storm.
    let (drain_n, drain_rounds) = if small { (24, 3) } else { (80, 6) };
    let drain_unsharded =
        sharded_drain_scenario(drain_n, 1, seed, drain_rounds, DrainRoute::Closure);
    let drain_sharded = sharded_drain_scenario(drain_n, 4, seed, drain_rounds, DrainRoute::Closure);
    // Client-layer overhead: the identical sharded drain with writes routed
    // as typed `Command`s through `EngineHandle::submit` instead of raw
    // closures — pins what the command surface costs on the hot write path.
    let drain_session = sharded_drain_scenario(drain_n, 4, seed, drain_rounds, DrainRoute::Session);
    // Loopback-TCP drain: the identical workload submitted through
    // RemoteEngine → IdeaServer — pins what serving costs on the write path.
    let drain_remote = sharded_drain_scenario(drain_n, 4, seed, drain_rounds, DrainRoute::Remote);
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"baseline\": {{");
    let _ = writeln!(json, "    \"commit\": \"bafd422 (pre wire-compaction)\",");
    let _ = writeln!(json, "    \"micro\": {{");
    let _ = writeln!(json, "      \"triple_against_1000_ns\": {BASELINE_TRIPLE_NS:.1},");
    let _ = writeln!(json, "      \"evv_clone_1000_ns\": {BASELINE_CLONE_NS:.1}");
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"scenarios\": [");
    for (i, &(n, dm, db, gm, gb, tm, w)) in BASELINE_SCENARIOS.iter().enumerate() {
        // Per-class resolution bytes were not recorded pre-compaction.
        let s = ScenarioStats {
            n,
            detect_msgs: dm,
            detect_bytes: db,
            gossip_msgs: gm,
            gossip_bytes: gb,
            resolution_msgs: 0,
            resolution_bytes: 0,
            total_msgs: tm,
            wall_ms: w,
        };
        let comma = if i + 1 == BASELINE_SCENARIOS.len() { "" } else { "," };
        let _ = writeln!(json, "      {}{comma}", s.json());
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"current\": {{");
    let _ = writeln!(json, "    \"micro\": {{");
    let _ = writeln!(json, "      \"triple_against_1000_ns\": {triple_ns:.1},");
    let _ = writeln!(json, "      \"evv_clone_1000_ns\": {clone_ns:.1},");
    // The clone drifted from the 249 ns pre-compaction baseline when the
    // wire-compaction PR added the per-writer counter cache to
    // `ExtendedVersionVector`: every clone now copies the cache alongside
    // the history. That cache is also what cut `triple_against` ~6x, and
    // the detect hot path ships `VvSummary` (not clones), so the trade is
    // deliberate — annotated here so the drift reads as understood, not as
    // an unnoticed regression.
    let _ = writeln!(
        json,
        "      \"evv_clone_drift_note\": \"clone copies the counter cache added by the wire-compaction PR; the cache funds the triple_against speedup and clones are off the detect hot path\","
    );
    let _ = writeln!(json, "      \"summary_encode_1000_ns\": {summary_ns:.1}");
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"scenarios\": [");
    for (i, s) in scenarios.iter().enumerate() {
        let comma = if i + 1 == scenarios.len() { "" } else { "," };
        let _ = writeln!(json, "      {}{comma}", s.json());
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    if let (Some(un), Some(ba)) = (&burst_unbatched, &burst_batched) {
        let _ = writeln!(json, "  \"burst_n40\": {{");
        let _ = writeln!(json, "    \"per_write_probing\": {},", un.json());
        let _ = writeln!(json, "    \"batched_1s_window\": {}", ba.json());
        let _ = writeln!(json, "  }},");
    }
    // Resolution wire-compaction A/B at the same burst point (skipped in
    // the smoke: the burst legs above already cover the compact wire
    // there, and `--burst` is the dedicated CI smoke of this block).
    if !small {
        json.push_str(&resolution_compaction_json(seed));
        json.push_str(",\n");
    }
    // WAL durability costs (skipped in the smoke: `--durability` is the
    // dedicated CI smoke of this block).
    if !small {
        json.push_str(&durability_json(seed));
        json.push_str(",\n");
    }
    // Threaded drain: same backlogged workload on 1 vs 4 shard workers per
    // node. The speedup factor is only meaningful with spare cores — the
    // recorded `cores` qualifies it.
    {
        let speedup = drain_unsharded.wall_ms / drain_sharded.wall_ms.max(1e-9);
        let _ = writeln!(json, "  \"sharded_drain\": {{");
        let _ = writeln!(json, "    \"cores\": {cores},");
        let _ = writeln!(json, "    \"rounds\": {drain_rounds},");
        let _ = writeln!(json, "    \"shards_1\": {},", drain_unsharded.json());
        let _ = writeln!(json, "    \"shards_4\": {},", drain_sharded.json());
        let _ = writeln!(json, "    \"wall_speedup_factor\": {speedup:.2}");
        let _ = writeln!(json, "  }},");
    }
    // Command-layer cost on the same sharded drain: session-routed writes
    // (Command::Write via EngineHandle) vs closure-injected writes. A
    // factor near 1.0 means the typed surface is free on the hot path.
    {
        let factor = drain_session.wall_ms / drain_sharded.wall_ms.max(1e-9);
        let _ = writeln!(json, "  \"client_overhead\": {{");
        let _ = writeln!(json, "    \"cores\": {cores},");
        let _ = writeln!(json, "    \"rounds\": {drain_rounds},");
        let _ = writeln!(json, "    \"closure_routed\": {},", drain_sharded.json());
        let _ = writeln!(json, "    \"session_routed\": {},", drain_session.json());
        let _ = writeln!(json, "    \"session_over_closure_factor\": {factor:.2}");
        let _ = writeln!(json, "  }},");
    }
    // Served-system cost on the same drain: loopback-TCP session submits
    // (RemoteEngine → IdeaServer → shard mailboxes) vs in-process session
    // submits. The engine does identical protocol work; the factor is the
    // framing + socket overhead of the write drain.
    {
        let factor = drain_remote.wall_ms / drain_session.wall_ms.max(1e-9);
        let _ = writeln!(json, "  \"remote_drain\": {{");
        let _ = writeln!(json, "    \"cores\": {cores},");
        let _ = writeln!(json, "    \"rounds\": {drain_rounds},");
        let _ = writeln!(json, "    \"in_process_session\": {},", drain_session.json());
        let _ = writeln!(json, "    \"loopback_tcp_session\": {},", drain_remote.json());
        let _ = writeln!(json, "    \"remote_over_local_factor\": {factor:.2},");
        // Recorded factors for this leg have ranged 0.83–1.18 across runs
        // of the identical workload (0.95 was quoted in ROADMAP/CHANGES,
        // 1.18 in a later BENCH snapshot): the settle detector samples
        // wall time, so a single lucky or unlucky drain swings the ratio
        // ~±20% around 1. The honest reading is "within drain-loop noise
        // of free", not any one decimal — the annotation keeps the next
        // reader from chasing whichever value the last run happened to pin.
        let _ = writeln!(
            json,
            "    \"factor_note\": \"single-run wall-clock ratio; observed 0.83-1.18 across identical runs, so read as ~1.0 (framing within drain-loop noise), not as a trend\""
        );
        let _ = writeln!(json, "  }},");
    }
    // Headline comparison at the acceptance point (N=40, paper workload).
    if let Some(cur) = scenarios.iter().find(|s| s.n == 40) {
        let base = &BASELINE_SCENARIOS[1];
        let bytes_factor = base.2 as f64 / cur.detect_bytes.max(1) as f64;
        let wall_factor = base.6 / cur.wall_ms.max(1e-9);
        let _ = writeln!(json, "  \"n40_vs_baseline\": {{");
        let _ = writeln!(json, "    \"detect_bytes_reduction_factor\": {bytes_factor:.2},");
        let _ = writeln!(json, "    \"wall_clock_speedup_factor\": {wall_factor:.2}");
        let _ = writeln!(json, "  }},");
    }
    // fig9 extension: eager vs lazy gossip traffic at N ∈ {160, 320, 640}
    // ({160} in the CI smoke), per-node bytes being the scale-out number.
    let scale_sizes: &[usize] = if small { &[160] } else { &[160, 320, 640] };
    json.push_str(&gossip_scale_json(seed, scale_sizes));
    json.push_str(",\n");
    // Fan-in latency sweep: threaded baseline vs evented server. The
    // threaded server pays 2 threads + 2 fds per connection, so its legs
    // stop at 1,000 sessions (10,000 would need 20k fds in this process);
    // the evented sweep runs through 10,000 in the full harness.
    let (fan_threaded, fan_evented): (&[usize], &[usize]) = if small {
        (&[10, 100], &[10, 100, 1_000])
    } else {
        (&[10, 100, 1_000], &[10, 100, 1_000, 10_000])
    };
    json.push_str(&fan_in_json(seed, fan_threaded, fan_evented));
    json.push_str(",\n");
    let _ = writeln!(json, "  \"triple_speedup_factor\": {:.1}", BASELINE_TRIPLE_NS / triple_ns);
    json.push_str("}\n");

    std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
    print!("{json}");
}
