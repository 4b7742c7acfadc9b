//! `sim_paper_n40`: the paper's own regime on the deterministic simulator.
//!
//! 40 PlanetLab nodes, `IdeaConfig::whiteboard(0.95)`, and per object four
//! writers updating at the paper's pace (one write per 5 s each) with
//! occasional bursts. Writers poll their replica at a fixed virtual period
//! (the Fig. 7 "view from the user"). No threads, sockets or disk: the
//! protocol planes do all the work, and virtual-time results repeat
//! exactly per seed.

use crate::planes::{self, Timed};
use crate::rng::Rng;
use crate::stats::median;
use idea_core::{Command, EngineHandle, IdeaConfig, IdeaHost, IdeaMsg, IdeaNode, Response};
use idea_net::{MsgClass, Proto, SimConfig, SimEngine, Topology};
use idea_types::{NodeId, ObjectId, SimDuration, SimTime, UpdatePayload};
use std::collections::BTreeMap;
use std::time::Instant;

pub const NODES: usize = 40;
pub const WRITERS: usize = 4;
pub const HINT: f64 = 0.95;
/// The paper's per-writer update period (§6.1).
const WRITE_PERIOD: SimDuration = SimDuration::from_secs(5);
/// Writer poll period, off the write grid so polls land inside the short
/// sub-hint dips (as in the Fig. 7 runner).
const POLL: SimDuration = SimDuration::from_millis(333);
/// Convergence is checked at this virtual granularity.
const CONVERGE_TICK: SimDuration = SimDuration::from_millis(10);
/// Top-layer formation before writes are measured.
const WARMUP: SimDuration = SimDuration::from_secs(10);
/// Quiet tail after the last write, in which writers demand resolution
/// until their object converges.
pub const SETTLE: SimDuration = SimDuration::from_secs(30);
/// How often, during the settle period, the writers of unconverged
/// objects repeat their resolution demand.
const DEMAND_EVERY: SimDuration = SimDuration::from_secs(5);
/// Share of write ticks that are bursts, and the burst shape.
const BURST_P: f64 = 0.2;
const BURST_LEN: u64 = 3;
const BURST_GAP: SimDuration = SimDuration::from_millis(150);

/// The fixed work of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub objects: usize,
    /// Virtual length of the write window (after warm-up).
    pub window: SimDuration,
}

/// One scheduled write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Write {
    pub at: SimTime,
    pub node: NodeId,
    pub object: ObjectId,
}

/// The input: per object, four seeded writers and their write times.
pub fn schedule(shape: Shape, seed: u64) -> Vec<Write> {
    let mut rng = Rng::new(seed ^ 0x5EED_0040);
    let end = SimTime::ZERO + WARMUP + shape.window;
    let mut out = Vec::new();
    for o in 0..shape.objects {
        let object = ObjectId(o as u64 + 1);
        let mut writers: Vec<u32> = Vec::with_capacity(WRITERS);
        while writers.len() < WRITERS {
            let w = rng.below(NODES as u64) as u32;
            if !writers.contains(&w) {
                writers.push(w);
            }
        }
        for &w in &writers {
            let phase = SimDuration::from_micros(rng.below(WRITE_PERIOD.as_micros()));
            let mut t = SimTime::ZERO + WARMUP + phase;
            while t < end {
                let burst = if rng.unit() < BURST_P { BURST_LEN } else { 1 };
                for k in 0..burst {
                    let at = t + BURST_GAP.saturating_mul(k);
                    if at < end {
                        out.push(Write { at, node: NodeId(w), object });
                    }
                }
                t += WRITE_PERIOD;
            }
        }
    }
    out.sort_by_key(|w| (w.at, w.node, w.object));
    out
}

fn writers_of(sched: &[Write], object: ObjectId) -> Vec<NodeId> {
    let mut v: Vec<NodeId> = sched.iter().filter(|w| w.object == object).map(|w| w.node).collect();
    v.sort();
    v.dedup();
    v
}

/// True when every writer of `object` holds the same replica: each write
/// has been applied everywhere or invalidated everywhere.
fn converged<P: Proto<Msg = IdeaMsg> + IdeaHost>(
    eng: &SimEngine<P>,
    object: ObjectId,
    writers: &[NodeId],
) -> bool {
    let hash = |n: NodeId| eng.node(n).idea().replica(object).map(|r| r.state_hash()).ok();
    let first = hash(writers[0]);
    first.is_some() && writers.iter().all(|&n| hash(n) == first)
}

/// Which node polls which object: every object's writers.
fn pollers(sched: &[Write]) -> Vec<(NodeId, ObjectId)> {
    let mut p: Vec<(NodeId, ObjectId)> = sched.iter().map(|w| (w.node, w.object)).collect();
    p.sort();
    p.dedup();
    p
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub cpu_ns: u64,
    pub writes: u64,
    pub polls: u64,
    /// Commands answered with the wrong kind (`Written` for `Write`,
    /// `Value` for `Peek`, `Done` for `DemandResolution` are right).
    pub wrong: u64,
    pub converge_ms: Vec<f64>,
    /// Objects whose writers hold identical replicas at the end (traced
    /// passes: convergence is only tracked there).
    pub converged_objects: u64,
    pub resolve_ms: Vec<f64>,
    pub resolutions: u64,
    pub useful_resolutions: u64,
    pub levels: Vec<f64>,
    /// Wall microseconds per `Peek` (mean of each poll round) and per
    /// `Write` command.
    pub read_us: Vec<f64>,
    pub write_us: Vec<f64>,
    /// `(messages, payload bytes)` per class, in `MsgClass::ALL` order.
    pub per_class: Vec<(MsgClass, u64, u64)>,
    pub state_hashes: Vec<u64>,
    /// Traced passes: handler nanoseconds per plane.
    pub plane_ns: [u64; 5],
    /// Traced passes: wall nanoseconds the convergence checks took (the
    /// benchmark's own cost, kept out of the engine's self time).
    pub probe_ns: u64,
}

impl Pass {
    pub fn ops(&self) -> u64 {
        self.writes + self.polls
    }

    pub fn class(&self, c: MsgClass) -> (u64, u64) {
        self.per_class.iter().find(|(k, _, _)| *k == c).map_or((0, 0), |&(_, m, b)| (m, b))
    }

    pub fn total_bytes(&self) -> u64 {
        self.per_class.iter().map(|&(_, _, b)| b).sum()
    }
}

fn config() -> IdeaConfig {
    IdeaConfig::whiteboard(HINT)
}

fn objects(shape: Shape) -> Vec<ObjectId> {
    (1..=shape.objects as u64).map(ObjectId).collect()
}

/// Builds the 40-node engine (the workload's set-up).
pub fn build<P: Proto<Msg = IdeaMsg>>(
    shape: Shape,
    seed: u64,
    wrap: impl Fn(IdeaNode) -> P,
) -> SimEngine<P> {
    let objs = objects(shape);
    let nodes: Vec<P> =
        (0..NODES).map(|i| wrap(IdeaNode::new(NodeId(i as u32), config(), &objs))).collect();
    SimEngine::new(
        Topology::planetlab(NODES, seed),
        SimConfig { seed, ..Default::default() },
        nodes,
    )
}

/// Runs one pass: warm-up, the write window, then the settle period.
pub fn run_pass<P>(mut eng: SimEngine<P>, shape: Shape, sched: &[Write], traced: bool) -> Pass
where
    P: Proto<Msg = IdeaMsg> + IdeaHost,
{
    let polled = pollers(sched);
    let end = SimTime::ZERO + WARMUP + shape.window + SETTLE;
    let mut pass = Pass::default();
    let writers: BTreeMap<ObjectId, Vec<NodeId>> =
        objects(shape).into_iter().map(|o| (o, writers_of(sched, o))).collect();
    // Per object, the times of writes whose outcome has not yet reached
    // every writer.
    let mut pending: BTreeMap<ObjectId, Vec<SimTime>> = BTreeMap::new();
    let mut next_write = 0usize;
    let mut next_poll = SimTime::ZERO + WARMUP + POLL;
    // Only traced passes track convergence; untraced passes do nothing but
    // the workload, so their wall time is the system's alone.
    let mut next_tick =
        if traced { SimTime::ZERO + WARMUP } else { SimTime::from_micros(u64::MAX) };
    let mut next_demand = SimTime::ZERO + WARMUP + shape.window;
    planes::reset();
    let cpu0 = crate::procfs::Snapshot::take().total_cpu_ns();
    let start = Instant::now();
    loop {
        let t = sched
            .get(next_write)
            .map_or(end, |w| w.at)
            .min(next_poll)
            .min(next_tick)
            .min(next_demand);
        if t >= end {
            break;
        }
        eng.run_until(t);
        if next_demand == t {
            // The §5.1 on-demand mode: once writing stops, the writers of
            // every object not yet converged demand an active resolution.
            // Each writer's top-layer view holds itself and the hot
            // writers it knows of, and a demand made while the writer is
            // still backing off from an earlier round is dropped, so the
            // demands repeat until the object converges.
            let open: Vec<(ObjectId, &Vec<NodeId>)> = writers
                .iter()
                .filter(|(o, ws)| !converged(&eng, **o, ws))
                .map(|(o, ws)| (*o, ws))
                .collect();
            for (object, ws) in open {
                for &w in ws {
                    let resp = eng.execute(w, Command::DemandResolution { object });
                    pass.wrong += u64::from(!matches!(resp, Response::Done));
                }
            }
            next_demand = t + DEMAND_EVERY;
        }
        while next_write < sched.len() && sched[next_write].at == t {
            let w = sched[next_write];
            let cmd =
                Command::Write { object: w.object, meta_delta: 1, payload: UpdatePayload::none() };
            let t0 = Instant::now();
            let resp = eng.execute(w.node, cmd);
            pass.write_us.push(t0.elapsed().as_secs_f64() * 1e6);
            pass.wrong += u64::from(!matches!(resp, Response::Written { .. }));
            pending.entry(w.object).or_default().push(t);
            pass.writes += 1;
            next_write += 1;
        }
        if next_poll == t {
            if t < SimTime::ZERO + WARMUP + shape.window {
                let t0 = Instant::now();
                for &(node, object) in &polled {
                    match eng.execute(node, Command::Peek { object }) {
                        Response::Value { read } => pass.levels.push(read.level.value()),
                        _ => pass.wrong += 1,
                    }
                }
                // One sample per poll round: the mean over its `Peek`s
                // (single reads are too short to time one by one).
                pass.read_us.push(t0.elapsed().as_secs_f64() * 1e6 / polled.len() as f64);
                pass.polls += polled.len() as u64;
            }
            next_poll = t + POLL;
        }
        if next_tick == t {
            let t0 = Instant::now();
            pending.retain(|object, times| {
                if converged(&eng, *object, &writers[object]) {
                    pass.converge_ms
                        .extend(times.iter().map(|at| t.saturating_since(*at).as_millis_f64()));
                    false
                } else {
                    true
                }
            });
            next_tick = t + CONVERGE_TICK;
            pass.probe_ns += t0.elapsed().as_nanos() as u64;
        }
    }
    eng.run_until(end);
    pass.wall_s = start.elapsed().as_secs_f64();
    if traced {
        // Writes still apart at the end count as converging then (censored
        // samples), so the quantiles never silently drop them.
        pass.converge_ms
            .extend(pending.values().flatten().map(|at| end.saturating_since(*at).as_millis_f64()));
    }
    pass.cpu_ns = crate::procfs::Snapshot::take().total_cpu_ns().saturating_sub(cpu0);
    if traced {
        pass.plane_ns = planes::totals();
    }
    pass.converged_objects =
        writers.iter().filter(|(o, ws)| converged(&eng, **o, ws)).count() as u64;
    for n in 0..NODES as u32 {
        let node = eng.node(NodeId(n)).idea();
        pass.state_hashes.push(node.state_hash());
        for rec in node.resolution_log() {
            pass.resolutions += 1;
            pass.useful_resolutions += u64::from(rec.resolved_conflict);
            pass.resolve_ms.push(rec.total_delay().as_millis_f64());
        }
    }
    pass.per_class = MsgClass::ALL
        .iter()
        .map(|&c| (c, eng.stats().messages(c), eng.stats().payload_bytes(c)))
        .collect();
    pass
}

/// Set-up time: median of `k` engine builds.
pub fn setup_s(shape: Shape, seed: u64, k: usize) -> f64 {
    median(
        (0..k)
            .map(|_| {
                let t = Instant::now();
                let eng = build(shape, seed, |n| n);
                let s = t.elapsed().as_secs_f64();
                drop(eng);
                s
            })
            .collect(),
    )
}

pub fn untraced(shape: Shape, seed: u64, sched: &[Write]) -> Pass {
    run_pass(build(shape, seed, |n| n), shape, sched, false)
}

pub fn traced(shape: Shape, seed: u64, sched: &[Write]) -> Pass {
    run_pass(build(shape, seed, Timed), shape, sched, true)
}

/// The trace-identity gate: the wrapper and the polling must leave the
/// protocol's run unchanged.
pub fn same_trace(a: &Pass, b: &Pass) -> bool {
    a.per_class == b.per_class && a.state_hashes == b.state_hashes && a.writes == b.writes
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape { objects: 3, window: SimDuration::from_secs(30) };

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(schedule(SHAPE, 5), schedule(SHAPE, 5));
        assert_ne!(schedule(SHAPE, 5), schedule(SHAPE, 6));
        let end = SimTime::ZERO + WARMUP + SHAPE.window;
        assert!(schedule(SHAPE, 5).iter().all(|w| w.at < end));
    }

    #[test]
    fn tracing_leaves_the_trace_unchanged() {
        let sched = schedule(SHAPE, 9);
        let plain = untraced(SHAPE, 9, &sched);
        let timed = traced(SHAPE, 9, &sched);
        assert!(plain.writes > 0 && plain.per_class.iter().any(|&(_, m, _)| m > 0));
        assert!(same_trace(&plain, &timed), "wrapper or polling changed the run");
        assert!(timed.plane_ns.iter().sum::<u64>() > 0, "traced pass timed no handler");
    }
}
