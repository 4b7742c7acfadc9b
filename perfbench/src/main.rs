//! `idea-perfbench`: the repository's benchmark runner.
//!
//! ```text
//! idea-perfbench --workload <served_read_mostly|served_durable_writes|sim_paper_n40>
//!                --seed <n> --seconds <s> --trace <0|1> [--raw <file>]
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics, with
//! `--trace 1` the per-layer ones. The last stdout line is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is
//! the run's raw record (also appended to `--raw <file>`), and stderr gets
//! a readable table. A failed correctness gate exits with status 1.
//! See `perfbench/README.md` for every metric and workload.

mod client;
mod planes;
mod procfs;
mod rng;
mod served;
mod sim;
mod stats;
mod stream;

use idea_net::MsgClass;
use procfs::{Group, Io};
use stats::{median, q};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

/// The protocol classes reported per op / per write.
const CLASSES: [(MsgClass, &str); 4] = [
    (MsgClass::Detect, "detect"),
    (MsgClass::Gossip, "gossip"),
    (MsgClass::ResolutionCtl, "resolution"),
    (MsgClass::Transfer, "transfer"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    raw: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut raw) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            "--raw" => raw = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        raw,
    })
}

/// One named measurement.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// A run's outcome: metrics, counts, gate verdicts and the record of what
/// work it did.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    /// Per-layer timings of layers only some workloads have (see
    /// [`WORKLOAD_SPECIFIC`]): printed and recorded, not in the result.
    extras: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Failed correctness gates, by description.
    violations: Vec<String>,
    /// `key: value` pairs describing the fixed work (rates, op counts,
    /// windows, message totals).
    work: Vec<(String, String)>,
}

/// Per-layer timings that can read the same constant on every run of some
/// workload: the transport and thread timings (served only), recovery
/// (durable only), gossip handling (not on the durable workload, whose four
/// writers are all top layer), the event-queue split (sim only), the open loop's lateness and generator CPU (served only), and
/// convergence times, which sit at the probe's limit where objects never
/// converge. They go to the raw record and the stderr table instead of the
/// result line.
const WORKLOAD_SPECIFIC: &[&str] = &[
    "transport.encode_ns",
    "transport.parse_ns",
    "transport.loop_cpu_us_per_op",
    "transport.share_p50_us",
    "net.worker_cpu_us_per_op",
    "net.router_cpu_us_per_op",
    "net.hop_rtt_us",
    "wal.recover_ms",
    "overlay.gossip_cpu_ns_per_write",
    "net.sim_self_ns_per_write",
    "client.gen_late_p99_ms",
    "client.gen_late_max_ms",
    "client.cpu_us_per_op",
    "core.converge_p50_ms",
    "core.converge_p99_ms",
];

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        let metric = Metric { name: name.to_string(), value, unit };
        if WORKLOAD_SPECIFIC.contains(&name) {
            self.extras.push(metric);
        } else {
            self.metrics.push(metric);
        }
    }

    /// A diagnostic kept in the raw record and the stderr table only.
    fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push(Metric { name: name.to_string(), value, unit });
    }

    fn work(&mut self, key: &str, value: impl ToString) {
        self.work.push((key.to_string(), value.to_string()));
    }

    fn gate(&mut self, ok: bool, what: &str) {
        if !ok {
            self.violations.push(what.to_string());
        }
    }
}

fn per(n: f64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n / d as f64
    }
}

// ---------------------------------------------------------------- served

fn served_spec(name: &str) -> Option<served::Spec> {
    match name {
        "served_read_mostly" => Some(served::READ_MOSTLY),
        "served_durable_writes" => Some(served::DURABLE_WRITES),
        _ => None,
    }
}

/// The gates every served pass must pass.
fn served_gates(rep: &mut Report, r: &served::Run, label: &str) {
    for (phase, p) in [("open", &r.open), ("closed", &r.closed)] {
        rep.gate(
            p.mismatched == 0,
            &format!(
                "{label} {phase}: {} responses matched no request or had the wrong kind",
                p.mismatched
            ),
        );
    }
    rep.gate(r.warm_failed == 0, &format!("{label} warm-up: {} commands failed", r.warm_failed));
    rep.gate(
        r.recovered_ok,
        &format!("{label}: recovered node 0 state_hash differs from the stopped node"),
    );
}

/// The fixed work of `trials` (each with the same counts), summed.
fn served_work(rep: &mut Report, spec: &served::Spec, trials: &[served::Run]) {
    let r = &trials[0];
    rep.work("trials", trials.len());
    rep.work("open_rate_ops_s", spec.rate);
    rep.work("closed_window", spec.window);
    rep.work("warm_ops_per_trial", r.counts.warm);
    rep.work("open_ops_per_trial", r.counts.open);
    rep.work("closed_ops_per_trial", r.counts.closed);
    rep.work("objects", spec.mix.objects);
    rep.work("read_frac", spec.mix.read_frac);
    rep.work("nodes_x_shards", format!("{}x{}", served::NODES, served::SHARDS));
    rep.work(
        "durability",
        if spec.durable { format!("sync_grouped({})", served::GROUP_COMMIT) } else { "off".into() },
    );
    for (c, name) in CLASSES {
        let m: u64 =
            trials.iter().map(|r| served::class_delta(&r.edges[0].net, &r.edges[2].net, c).0).sum();
        rep.work(&format!("msgs.{name}"), m);
    }
    let clean = |chunks: Vec<&served::Chunk>| {
        format!("{}/{}", chunks.iter().filter(|k| k.clean).count(), chunks.len())
    };
    rep.work("open_chunks_clean", clean(trials.iter().flat_map(|r| &r.open_chunks).collect()));
    rep.work("closed_chunks_clean", clean(trials.iter().flat_map(|r| &r.closed_chunks).collect()));
}

fn served_e2e(spec: &served::Spec, seed: u64, seconds: f64) -> Report {
    let (n, trial_s) = served::trials(seconds);
    // Peak RSS as of the end of the first trial: later trials run on
    // fresh threads, and how much of the earlier trials' heap the
    // allocator hands back to them varies from run to run.
    let mut peak_rss_mb = 0.0;
    let trials: Vec<served::Run> = (0..n)
        .map(|k| {
            let r = served::run(spec, seed, k, trial_s, false);
            if k == 0 {
                peak_rss_mb = procfs::peak_rss_mb();
            }
            r
        })
        .collect();
    let mut rep = Report::default();
    for (k, r) in trials.iter().enumerate() {
        served_gates(&mut rep, r, &format!("trial {k}"));
    }
    served_work(&mut rep, spec, &trials);
    let (mut ok, mut writes, mut bytes) = (0, 0, 0);
    let (mut levels, mut setup_s) = (Vec::new(), Vec::new());
    for r in &trials {
        let (o, c, e) = (&r.open, &r.closed, &r.edges);
        rep.attempted += o.attempted + c.attempted;
        ok += o.ok + c.ok;
        writes += o.writes_acked + c.writes_acked;
        bytes += MsgClass::ALL
            .iter()
            .map(|&k| served::class_delta(&e[0].net, &e[2].net, k).1)
            .sum::<u64>();
        levels.extend(o.read_levels.iter().chain(&c.read_levels));
        setup_s.extend(&r.setup_s);
    }
    let open_chunks = served::counted(trials.iter().flat_map(|r| &r.open_chunks));
    let closed_chunks = served::counted(trials.iter().flat_map(|r| &r.closed_chunks));
    // Resolution rounds that started inside a counted chunk of their trial.
    let resolve_ms: Vec<f64> = trials
        .iter()
        .enumerate()
        .flat_map(|(k, r)| {
            let windows: Vec<_> = open_chunks
                .iter()
                .chain(&closed_chunks)
                .filter(|c| c.trial == k)
                .map(|c| c.window)
                .collect();
            r.rounds
                .iter()
                .filter(move |(at, _)| windows.iter().any(|&(a, b)| (a..b).contains(at)))
                .map(|&(_, ms)| ms)
        })
        .collect();
    rep.failed = rep.attempted - ok;
    rep.put("setup_s", median(setup_s), "s");
    rep.put("peak_rss_mb", peak_rss_mb, "MiB");
    // Latency quantiles over every sample of the counted open-loop chunks.
    let reads: Vec<f64> = open_chunks.iter().flat_map(|k| &k.read_ms).copied().collect();
    let writes_ms: Vec<f64> = open_chunks.iter().flat_map(|k| &k.write_ms).copied().collect();
    rep.put("read_p50_ms", q(&reads, 0.5), "ms");
    rep.put("read_p90_ms", q(&reads, 0.9), "ms");
    rep.put("write_p50_ms", q(&writes_ms, 0.5), "ms");
    rep.put("write_p90_ms", q(&writes_ms, 0.9), "ms");
    rep.put("goodput_ops_s", median(closed_chunks.iter().map(|k| k.ok_per_s).collect()), "ops/s");
    let cpu = open_chunks.iter().map(|k| k.server_cpu_us_per_op).collect();
    rep.put("server_cpu_us_per_op", median(cpu), "us");
    rep.put("ok_frac", per(ok as f64, rep.attempted), "frac");
    rep.put("resolve_p50_ms", q(&resolve_ms, 0.5), "ms");
    rep.put("level_p1", q(&levels, 0.01), "level");
    rep.put("wire_bytes_per_write", per(bytes as f64, writes), "B");
    // The tails the gate leaves out, kept to show why (see README).
    rep.note("client.read_p99_ms", q(&reads, 0.99), "ms");
    rep.note("client.write_p99_ms", q(&writes_ms, 0.99), "ms");
    rep
}

/// Per-layer figures of the first trial, run untraced, traced, and
/// replayed in process.
fn served_traced(spec: &served::Spec, seed: u64, seconds: f64) -> Report {
    let (_, seconds) = served::trials(seconds);
    let base = served::run(spec, seed, 0, seconds, false);
    let r = served::run(spec, seed, 0, seconds, true);
    let replay = served::replay(spec, seed, seconds);
    let (exec_reads, exec_writes) = (&replay.reads_us, &replay.writes_us);
    let mut rep = Report::default();
    served_gates(&mut rep, &base, "untraced");
    served_gates(&mut rep, &r, "traced");
    rep.gate(
        replay.wrong == 0,
        &format!("in-process replay: {} replies of the wrong kind", replay.wrong),
    );
    served_work(&mut rep, spec, std::slice::from_ref(&r));
    let (o, c, e) = (&r.open, &r.closed, &r.edges);
    let ops = o.ok + c.ok;
    let writes = o.writes_acked + c.writes_acked;
    rep.attempted = o.attempted + c.attempted;
    rep.failed = rep.attempted - ops;
    let open_ops = o.ok;
    let d = |g: Group| served::group_delta(&e[0], &e[1], g);
    let (lp, wk, rt) = (d(Group::Loop), d(Group::Worker), d(Group::Router));

    rep.put(
        "transport.encode_ns",
        per(o.encode_ns as f64 + c.encode_ns as f64, rep.attempted),
        "ns",
    );
    rep.put("transport.parse_ns", per(o.parse_ns as f64 + c.parse_ns as f64, ops), "ns");
    rep.put("transport.req_bytes", per((o.req_bytes + c.req_bytes) as f64, rep.attempted), "B");
    rep.put("transport.resp_bytes", per((o.resp_bytes + c.resp_bytes) as f64, ops), "B");
    rep.put("transport.loop_cpu_us_per_op", per(lp.cpu_ns as f64 / 1e3, open_ops), "us");
    rep.put(
        "transport.loop_wakeups_per_op",
        per((e[1].wakeups - e[0].wakeups) as f64, open_ops),
        "count",
    );
    rep.put("transport.loop_vol_cs_per_op", per(lp.vol_cs as f64, open_ops), "count");
    rep.put("transport.loop_nonvol_cs_per_op", per(lp.nonvol_cs as f64, open_ops), "count");
    let all_exec: Vec<f64> = exec_reads.iter().chain(exec_writes).copied().collect();
    let served_all: Vec<f64> =
        base.open.read_ms.iter().chain(&base.open.write_ms).copied().collect();
    rep.put("transport.share_p50_us", q(&served_all, 0.5) * 1e3 - q(&all_exec, 0.5), "us");
    rep.put("core.exec_read_p50_us", q(exec_reads, 0.5), "us");
    rep.put("core.exec_write_p50_us", q(exec_writes, 0.5), "us");
    rep.put("core.exec_p90_us", q(&all_exec, 0.9), "us");
    rep.put("net.worker_cpu_us_per_op", per(wk.cpu_ns as f64 / 1e3, open_ops), "us");
    rep.put("net.worker_vol_cs_per_op", per(wk.vol_cs as f64, open_ops), "count");
    rep.put("net.worker_nonvol_cs_per_op", per(wk.nonvol_cs as f64, open_ops), "count");
    rep.put("net.router_cpu_us_per_op", per(rt.cpu_ns as f64 / 1e3, open_ops), "us");
    rep.put("net.router_vol_cs_per_op", per(rt.vol_cs as f64, open_ops), "count");
    rep.put("net.hop_rtt_us", r.hop_rtt_us, "us");
    for (k, name) in CLASSES {
        let (m, b) = served::class_delta(&e[0].net, &e[2].net, k);
        rep.put(&format!("net.msgs_per_op.{name}"), per(m as f64, ops), "count");
        rep.put(&format!("net.bytes_per_op.{name}"), per(b as f64, ops), "B");
        rep.put(&format!("net.msgs_per_write.{name}"), per(m as f64, writes), "count");
        rep.put(&format!("net.bytes_per_write.{name}"), per(b as f64, writes), "B");
    }
    let io = e[2].io.since(e[0].io);
    rep.put("wal.disk_bytes_per_write", per(r.wal_bytes as f64, r.writes_total), "B");
    rep.put(
        "wal.io_write_bytes_per_write",
        if spec.durable { per(io.write_bytes as f64, writes) } else { 0.0 },
        "B",
    );
    rep.put("wal.recover_ms", r.recover_ms, "ms");
    plane_metrics(&mut rep, r.plane_ns, writes);
    rep.put("core.write_path_ns_per_write", r.write_path_ns, "ns");
    rep.put("net.sim_self_ns_per_write", 0.0, "ns");
    rep.put("core.resolutions_per_write", per(r.resolutions as f64, writes), "count");
    rep.put("core.resolution_useful_frac", per(r.useful_resolutions as f64, r.resolutions), "frac");
    rep.put("core.converge_p50_ms", q(&r.convergence.ms, 0.5), "ms");
    rep.put("core.converge_p99_ms", q(&r.convergence.ms, 0.99), "ms");
    rep.put(
        "core.unconverged_frac",
        per(r.convergence.unconverged as f64, r.convergence.sampled),
        "frac",
    );
    let bo = &base.open;
    let be = &base.edges;
    let base_io = be[1].io.since(be[0].io);
    let gen = served::group_delta(&be[0], &be[1], Group::Other);
    rep.put("client.read_p99_ms", q(&bo.read_ms, 0.99), "ms");
    rep.put("client.read_p999_ms", q(&bo.read_ms, 0.999), "ms");
    rep.put("client.write_p99_ms", q(&bo.write_ms, 0.99), "ms");
    rep.put("client.gen_late_p99_ms", q(&bo.late_ms, 0.99), "ms");
    rep.put("client.gen_late_max_ms", q(&bo.late_ms, 1.0), "ms");
    rep.put("client.cpu_us_per_op", per(gen.cpu_ns as f64 / 1e3, bo.ok), "us");
    rep.put("proc.syscw_per_op", per(base_io.syscw as f64, bo.ok), "count");
    rep.put("proc.syscr_per_op", per(base_io.syscr as f64, bo.ok), "count");
    let cpu_per_op = |run: &served::Run| {
        let e = &run.edges;
        per(
            e[1].threads.total_cpu_ns().saturating_sub(e[0].threads.total_cpu_ns()) as f64,
            run.open.ok,
        )
    };
    rep.put("trace.overhead_frac", cpu_per_op(&r) / cpu_per_op(&base) - 1.0, "frac");
    rep
}

fn plane_metrics(rep: &mut Report, ns: [u64; 5], writes: u64) {
    use planes::Plane;
    let p = |pl: Plane| per(ns[pl as usize] as f64, writes);
    rep.put("detect.cpu_ns_per_write", p(Plane::Detect), "ns");
    rep.put("overlay.gossip_cpu_ns_per_write", p(Plane::Gossip), "ns");
    rep.put("core.resolution_cpu_ns_per_write", p(Plane::Resolution), "ns");
    rep.put("core.transfer_cpu_ns_per_write", p(Plane::Transfer), "ns");
    rep.put("core.timer_cpu_ns_per_write", p(Plane::Timer), "ns");
}

// ------------------------------------------------------------------- sim

/// The sim pass's fixed work: objects scale with the run length, the
/// virtual window is fixed.
fn sim_shape(seconds: f64) -> sim::Shape {
    sim::Shape {
        objects: ((seconds * 2.0).round() as usize).max(2),
        window: idea_types::SimDuration::from_secs(150),
    }
}

fn sim_gates(rep: &mut Report, p: &sim::Pass, label: &str) {
    rep.gate(p.writes > 0 && p.polls > 0, &format!("{label}: the pass issued no commands"));
    rep.gate(p.wrong == 0, &format!("{label}: {} commands answered with the wrong kind", p.wrong));
}

fn sim_work(rep: &mut Report, shape: sim::Shape, p: &sim::Pass) {
    rep.work("nodes", sim::NODES);
    rep.work("writers_per_object", sim::WRITERS);
    rep.work("objects", shape.objects);
    rep.work("window_virtual_s", shape.window.as_secs_f64());
    rep.work("settle_virtual_s", sim::SETTLE.as_secs_f64());
    rep.work("writes", p.writes);
    rep.work("polls", p.polls);
    for (c, name) in CLASSES {
        rep.work(&format!("msgs.{name}"), p.class(c).0);
    }
}

/// Untraced sim passes per e2e run: timings are medians over them, so a
/// burst of interference from outside spoils at most a minority.
const SIM_REPS: usize = 31;

/// Passes of each kind behind the sim's `trace.overhead_frac`.
const SIM_OVERHEAD_REPS: usize = 9;

fn sim_e2e(seed: u64, seconds: f64) -> Report {
    let shape = sim_shape(seconds);
    let sched = sim::schedule(shape, seed);
    let setup = sim::setup_s(shape, seed, 21);
    let passes: Vec<sim::Pass> =
        (0..SIM_REPS).map(|_| sim::untraced(shape, seed, &sched)).collect();
    let mut rep = Report::default();
    for p in &passes {
        sim_gates(&mut rep, p, "sim");
        rep.gate(sim::same_trace(p, &passes[0]), "repeated sim passes of one seed differ");
    }
    let p = &passes[0];
    sim_work(&mut rep, shape, p);
    rep.work("passes", SIM_REPS);
    let med = |f: &dyn Fn(&sim::Pass) -> f64| median(passes.iter().map(f).collect());
    let wall = med(&|p| p.wall_s);
    rep.attempted = p.ops();
    rep.failed = p.wrong;
    rep.put("setup_s", setup, "s");
    rep.put("peak_rss_mb", procfs::peak_rss_mb(), "MiB");
    rep.put("read_p50_ms", med(&|p| q(&p.read_us, 0.5)) / 1e3, "ms");
    rep.put("read_p90_ms", med(&|p| q(&p.read_us, 0.9)) / 1e3, "ms");
    rep.put("write_p50_ms", med(&|p| q(&p.write_us, 0.5)) / 1e3, "ms");
    rep.put("write_p90_ms", med(&|p| q(&p.write_us, 0.9)) / 1e3, "ms");
    rep.put("goodput_ops_s", p.ops() as f64 / wall, "ops/s");
    rep.put("server_cpu_us_per_op", med(&|p| per(p.cpu_ns as f64 / 1e3, p.ops())), "us");
    rep.put("ok_frac", per(p.ops().saturating_sub(p.wrong) as f64, p.ops()), "frac");
    rep.note("sim_wall_s", wall, "s");
    rep.put("resolve_p50_ms", q(&p.resolve_ms, 0.5), "ms");
    rep.put("level_p1", q(&p.levels, 0.01), "level");
    rep.put("wire_bytes_per_write", per(p.total_bytes() as f64, p.writes), "B");
    rep
}

fn sim_traced(seed: u64, seconds: f64) -> Report {
    let shape = sim_shape(seconds);
    let sched = sim::schedule(shape, seed);
    let io0 = Io::take();
    let base = sim::untraced(shape, seed, &sched);
    let io = Io::take().since(io0);
    let p = sim::traced(shape, seed, &sched);
    // The overhead compares medians of further passes of each kind, since
    // one short pass is at the mercy of the host's momentary speed.
    let base_wall =
        median((0..SIM_OVERHEAD_REPS).map(|_| sim::untraced(shape, seed, &sched).wall_s).collect());
    let traced_wall = median(
        (0..SIM_OVERHEAD_REPS)
            .map(|_| {
                let t = sim::traced(shape, seed, &sched);
                t.wall_s - t.probe_ns as f64 / 1e9
            })
            .collect(),
    );
    let mut rep = Report::default();
    sim_gates(&mut rep, &base, "untraced");
    sim_gates(&mut rep, &p, "traced");
    rep.gate(
        sim::same_trace(&base, &p),
        "traced and untraced sim passes differ in message totals or state hashes",
    );
    sim_work(&mut rep, shape, &p);
    rep.attempted = p.ops();
    let writes = p.writes;
    // No transport in the simulator.
    for (name, unit) in [
        ("transport.encode_ns", "ns"),
        ("transport.parse_ns", "ns"),
        ("transport.req_bytes", "B"),
        ("transport.resp_bytes", "B"),
        ("transport.loop_cpu_us_per_op", "us"),
        ("transport.loop_wakeups_per_op", "count"),
        ("transport.loop_vol_cs_per_op", "count"),
        ("transport.loop_nonvol_cs_per_op", "count"),
        ("transport.share_p50_us", "us"),
    ] {
        rep.put(name, 0.0, unit);
    }
    let all: Vec<f64> = p.read_us.iter().chain(&p.write_us).copied().collect();
    rep.put("core.exec_read_p50_us", q(&p.read_us, 0.5), "us");
    rep.put("core.exec_write_p50_us", q(&p.write_us, 0.5), "us");
    rep.put("core.exec_p90_us", q(&all, 0.9), "us");
    // No worker or router threads in the simulator.
    for (name, unit) in [
        ("net.worker_cpu_us_per_op", "us"),
        ("net.worker_vol_cs_per_op", "count"),
        ("net.worker_nonvol_cs_per_op", "count"),
        ("net.router_cpu_us_per_op", "us"),
        ("net.router_vol_cs_per_op", "count"),
        ("net.hop_rtt_us", "us"),
    ] {
        rep.put(name, 0.0, unit);
    }
    for (k, name) in CLASSES {
        let (m, b) = p.class(k);
        rep.put(&format!("net.msgs_per_op.{name}"), per(m as f64, p.ops()), "count");
        rep.put(&format!("net.bytes_per_op.{name}"), per(b as f64, p.ops()), "B");
        rep.put(&format!("net.msgs_per_write.{name}"), per(m as f64, writes), "count");
        rep.put(&format!("net.bytes_per_write.{name}"), per(b as f64, writes), "B");
    }
    // No durability plane in the simulator.
    rep.put("wal.disk_bytes_per_write", 0.0, "B");
    rep.put("wal.io_write_bytes_per_write", 0.0, "B");
    rep.put("wal.recover_ms", 0.0, "ms");
    plane_metrics(&mut rep, p.plane_ns, writes);
    let write_ns: f64 = p.write_us.iter().sum::<f64>() * 1e3;
    let read_ns: f64 =
        p.read_us.iter().sum::<f64>() * 1e3 * per(p.polls as f64, p.read_us.len() as u64);
    let handler_ns: u64 = p.plane_ns.iter().sum();
    rep.put("core.write_path_ns_per_write", per(write_ns, writes), "ns");
    rep.put(
        "net.sim_self_ns_per_write",
        per(p.wall_s * 1e9 - (handler_ns + p.probe_ns) as f64 - write_ns - read_ns, writes),
        "ns",
    );
    rep.put("core.resolutions_per_write", per(p.resolutions as f64, writes), "count");
    rep.put("core.resolution_useful_frac", per(p.useful_resolutions as f64, p.resolutions), "frac");
    rep.put("core.converge_p50_ms", q(&p.converge_ms, 0.5), "ms");
    rep.put("core.converge_p99_ms", q(&p.converge_ms, 0.99), "ms");
    rep.put(
        "core.unconverged_frac",
        1.0 - per(p.converged_objects as f64, shape.objects as u64),
        "frac",
    );
    rep.put("client.read_p99_ms", q(&base.read_us, 0.99) / 1e3, "ms");
    rep.put("client.read_p999_ms", q(&base.read_us, 0.999) / 1e3, "ms");
    rep.put("client.write_p99_ms", q(&base.write_us, 0.99) / 1e3, "ms");
    rep.put("client.gen_late_p99_ms", 0.0, "ms");
    rep.put("client.gen_late_max_ms", 0.0, "ms");
    rep.put("client.cpu_us_per_op", 0.0, "us");
    rep.put("proc.syscw_per_op", per(io.syscw as f64, base.ops()), "count");
    rep.put("proc.syscr_per_op", per(io.syscr as f64, base.ops()), "count");
    rep.put("trace.overhead_frac", traced_wall / base_wall - 1.0, "frac");
    rep
}

// ------------------------------------------------------------------ output

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Milliseconds a fixed integer loop takes: the host's momentary CPU speed,
/// recorded next to each run because neighbours on a shared host can move
/// it by well over a tenth within a minute.
fn host_ref_ms() -> f64 {
    let t = std::time::Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn commit() -> String {
    if let Ok(c) = std::env::var("IDEA_COMMIT") {
        return c;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("idea-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let steal0 = procfs::steal_ticks();
    let host0 = host_ref_ms();
    let mut rep = if let Some(spec) = served_spec(&args.workload) {
        if args.trace {
            served_traced(&spec, args.seed, args.seconds)
        } else {
            served_e2e(&spec, args.seed, args.seconds)
        }
    } else if args.workload == "sim_paper_n40" {
        if args.trace {
            sim_traced(args.seed, args.seconds)
        } else {
            sim_e2e(args.seed, args.seconds)
        }
    } else {
        eprintln!("idea-perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    // CPU time the hypervisor gave to other guests during the run: a
    // diagnostic for runs disturbed from outside.
    rep.work("steal_ticks", procfs::steal_ticks().saturating_sub(steal0));
    rep.work("host_ref_ms", format!("{host0:.2}/{:.2}", host_ref_ms()));
    let correct = rep.violations.is_empty();

    for m in &rep.metrics {
        eprintln!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &rep.extras {
        eprintln!("{:<40} {:>16.6} {} (workload-specific)", m.name, m.value, m.unit);
    }
    for v in &rep.violations {
        eprintln!("GATE FAILED: {v}");
    }
    let work: Vec<String> =
        rep.work.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    let raw = format!(
        "{{\"raw\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \"nproc\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"work\": {{{}}}, \"metrics\": {}, \"extras\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&commit()),
        procfs::nproc(),
        correct,
        rep.attempted,
        rep.failed,
        work.join(", "),
        metrics_json(&rep.metrics),
        metrics_json(&rep.extras),
    );
    if let Some(path) = &args.raw {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{raw}"));
        if let Err(e) = appended {
            eprintln!("idea-perfbench: cannot append to {path}: {e}");
        }
    }
    println!("{raw}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        rep.attempted.max(1),
        rep.failed,
        metrics_json(&rep.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
