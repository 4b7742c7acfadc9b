//! Crash-recovery and rejoin-by-delta pins on the deterministic engine.
//!
//! Four guarantees, all on fixed seeds:
//!
//! 1. **Recovery fidelity**: killing a node mid-workload at any of several
//!    points and recovering from its WAL yields bit-identical replica
//!    content (`state_hash`) to the in-memory state at the kill.
//! 2. **Rejoin convergence**: a crashed-and-recovered node re-enters the
//!    deployment via [`IdeaNode::rejoin_from`] and the whole deployment
//!    converges to the same `state_hash` as an uninterrupted reference
//!    run of the identical workload.
//! 3. **Rejoin is a delta**: the recovered node resyncs by fetching only
//!    the suffix beyond its recovered counters — measurably fewer
//!    transfer-class bytes than a fresh (empty-store) node joining the
//!    same workload.
//! 4. **Durability is a pure side effect**: Off, Async and Sync runs of
//!    the same scenario produce identical traces — message counts and
//!    final replica content — so `DurabilityConfig::off()` (the default)
//!    keeps every pinned fixed-seed trace bit-identical.

use idea_core::{DurabilityConfig, IdeaConfig, IdeaNode};
use idea_net::{MsgClass, SimConfig, SimEngine, Topology};
use idea_types::{NodeId, ObjectId, SimDuration, SimTime, UpdatePayload};

const OBJ: ObjectId = ObjectId(5);
const N: usize = 4;
const CRASHED: NodeId = NodeId(2);
const SEED: u64 = 42;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("idea-core-dur-{}-{tag}", std::process::id()))
}

fn cfg_with(durability: DurabilityConfig) -> IdeaConfig {
    IdeaConfig { durability, ..Default::default() }
}

fn mk_engine(cfg: &IdeaConfig) -> SimEngine<IdeaNode> {
    let nodes: Vec<IdeaNode> =
        (0..N).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &[OBJ])).collect();
    SimEngine::new(
        Topology::planetlab(N, SEED),
        SimConfig { seed: SEED, ..Default::default() },
        nodes,
    )
}

fn write(eng: &mut SimEngine<IdeaNode>, node: u32, delta: i64) {
    eng.with_node(NodeId(node), |p, ctx| {
        p.local_write(OBJ, delta, UpdatePayload::none(), ctx);
    });
}

fn resolve_and_settle(eng: &mut SimEngine<IdeaNode>) {
    eng.with_node(NodeId(0), |p, ctx| p.demand_active_resolution(OBJ, ctx));
    eng.run_for(SimDuration::from_secs(5));
    let q = eng.run_until_quiescent(SimTime::from_secs(3_600));
    assert!(q.reached(), "settle exhausted its event budget: {q:?}");
}

/// Phase 1: every node writes, then a demanded resolution converges the
/// deployment on the winner's sanctioned state.
fn phase1(eng: &mut SimEngine<IdeaNode>) {
    for wave in 0..2 {
        for w in 0..N as u32 {
            write(eng, w, 1 + wave);
        }
        eng.run_for(SimDuration::from_millis(500));
    }
    resolve_and_settle(eng);
}

/// Phase 2 writes: only nodes 0 and 1 (the crashed node stays silent, so
/// the reference and crash runs drive identical external stimuli).
fn phase2_writes(eng: &mut SimEngine<IdeaNode>) {
    for wave in 0..2 {
        for w in 0..2u32 {
            write(eng, w, 10 + wave);
        }
        eng.run_for(SimDuration::from_millis(500));
    }
}

fn all_hashes(eng: &SimEngine<IdeaNode>) -> Vec<u64> {
    (0..N as u32).map(|i| eng.node(NodeId(i)).state_hash()).collect()
}

/// The uninterrupted reference run: phase 1, phase 2, final resolution.
/// Returns the converged per-node hashes.
fn reference_run(cfg: &IdeaConfig) -> Vec<u64> {
    let mut eng = mk_engine(cfg);
    phase1(&mut eng);
    phase2_writes(&mut eng);
    resolve_and_settle(&mut eng);
    all_hashes(&eng)
}

/// Cuts the crashed node off in both directions (messages to a dead node
/// vanish — the crash model) or heals it back.
fn set_down(eng: &mut SimEngine<IdeaNode>, down: bool) {
    for i in 0..N as u32 {
        let other = NodeId(i);
        if other == CRASHED {
            continue;
        }
        if down {
            eng.partition(other, CRASHED);
            eng.partition(CRASHED, other);
        } else {
            eng.heal(other, CRASHED);
            eng.heal(CRASHED, other);
        }
    }
}

/// The crash run: phase 1, kill + recover `CRASHED`, phase 2 while it is
/// down, then rejoin and a final resolution. Returns the converged
/// per-node hashes and the transfer-class bytes the rejoin cost.
fn crash_run(cfg: &IdeaConfig, fresh_rejoin: bool) -> (Vec<u64>, u64) {
    let mut eng = mk_engine(cfg);
    phase1(&mut eng);

    // Kill: the in-memory node drops; under Sync every acknowledged
    // mutation is already on disk, so recovery is bit-identical.
    let h_at_kill = eng.node(CRASHED).state_hash();
    let restarted = if fresh_rejoin {
        // Baseline joiner: same identity, empty store (full state transfer).
        IdeaNode::new(CRASHED, cfg.clone(), &[OBJ])
    } else {
        let rec = IdeaNode::recover(CRASHED, cfg.clone(), &[OBJ]).expect("valid config");
        assert_eq!(rec.state_hash(), h_at_kill, "recovery must be bit-identical");
        rec
    };
    *eng.node_mut(CRASHED) = restarted;

    // Downtime: the deployment keeps working without the crashed node.
    set_down(&mut eng, true);
    phase2_writes(&mut eng);
    eng.run_for(SimDuration::from_secs(2));

    // Restart + rejoin: delta fetch from node 0, then detection rounds.
    set_down(&mut eng, false);
    let bytes_before = eng.stats().payload_bytes(MsgClass::Transfer);
    eng.with_node(CRASHED, |p, ctx| p.rejoin_from(NodeId(0), ctx));
    eng.run_for(SimDuration::from_secs(5));
    let rejoin_bytes = eng.stats().payload_bytes(MsgClass::Transfer) - bytes_before;

    resolve_and_settle(&mut eng);
    (all_hashes(&eng), rejoin_bytes)
}

#[test]
fn crash_restart_converges_to_the_uninterrupted_run() {
    let dir = tmp_dir("converge");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = cfg_with(DurabilityConfig::sync(dir.clone()));

    let reference = reference_run(&cfg);
    assert!(
        reference.iter().all(|&h| h == reference[0]),
        "reference run must converge: {reference:?}"
    );

    // Fresh directory for the crash run — same node ids, same files.
    let _ = std::fs::remove_dir_all(&dir);
    let (after_crash, rejoin_bytes) = crash_run(&cfg, false);
    assert!(
        after_crash.iter().all(|&h| h == after_crash[0]),
        "crash run must converge: {after_crash:?}"
    );
    assert_eq!(
        after_crash[0], reference[0],
        "crash + recovery + rejoin must land on the uninterrupted run's state"
    );
    assert!(rejoin_bytes > 0, "the rejoin actually fetched the missed suffix");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rejoin_by_delta_ships_fewer_bytes_than_a_full_transfer() {
    let dir = tmp_dir("delta");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = cfg_with(DurabilityConfig::sync(dir.clone()));

    let (_, delta_bytes) = crash_run(&cfg, false);
    let _ = std::fs::remove_dir_all(&dir);
    let (_, full_bytes) = crash_run(&cfg, true);

    assert!(delta_bytes > 0, "recovered node still missed the downtime writes");
    assert!(
        delta_bytes < full_bytes,
        "rejoin-by-delta ({delta_bytes} B) must undercut a full transfer ({full_bytes} B)"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill the node at several mid-workload points — after each wave of the
/// interleaved write/propagation schedule — and pin recovery to the
/// in-memory state at exactly that point.
#[test]
fn recovery_is_bit_identical_at_every_kill_point() {
    for kill_after in [1usize, 2, 3, 4] {
        let dir = tmp_dir(&format!("kill-{kill_after}"));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = cfg_with(DurabilityConfig::sync(dir.clone()));

        let mut eng = mk_engine(&cfg);
        for wave in 0..kill_after {
            for w in 0..N as u32 {
                write(&mut eng, w, wave as i64 + 1);
            }
            eng.run_for(SimDuration::from_millis(700));
            if wave == 1 {
                // A mid-schedule resolution exercises the reference
                // transition records (DropExtras/ResumeSeq) too.
                resolve_and_settle(&mut eng);
            }
        }

        let h_at_kill = eng.node(CRASHED).state_hash();
        drop(eng); // the crash: all in-memory state gone
        let rec = IdeaNode::recover(CRASHED, cfg.clone(), &[OBJ]).expect("valid config");
        assert_eq!(
            rec.state_hash(),
            h_at_kill,
            "kill point {kill_after}: recovered state diverged"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Kill the node at **every** engine step of an in-flight two-phase
/// resolution round and pin recovery to the in-memory state at exactly
/// that step. The round's mid-flight mutations — collect snapshots,
/// reference reconciliation, extra-dropping — all hit the WAL before they
/// hit memory under `Sync`, so there must be no step, however deep inside
/// the round, where a crash loses or invents state.
#[test]
fn recovery_is_bit_identical_at_every_resolution_kill_point() {
    // Reference run: count the engine steps the demanded round keeps the
    // initiator resolving (the kill window this sweep walks).
    let dir = tmp_dir("res-kill-ref");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = cfg_with(DurabilityConfig::sync(dir.clone()));
    let total = {
        let mut eng = mk_engine(&cfg);
        phase1(&mut eng);
        eng.with_node(NodeId(1), |p, ctx| p.demand_active_resolution(OBJ, ctx));
        let mut steps = 0u32;
        while eng.node(NodeId(1)).is_resolving(OBJ) && eng.step() {
            steps += 1;
        }
        steps
    };
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(total >= 8, "the round ended suspiciously fast ({total} steps)");

    // Walk every step of the window (strided only if the round is huge,
    // keeping ~50 kill points); the fixed seed makes each run's prefix
    // identical to the reference, so step k is the same event every time.
    let stride = (total / 50).max(1) as usize;
    for k in (0..=total).step_by(stride) {
        let dir = tmp_dir(&format!("res-kill-{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = cfg_with(DurabilityConfig::sync(dir.clone()));
        let mut eng = mk_engine(&cfg);
        phase1(&mut eng);
        eng.with_node(NodeId(1), |p, ctx| p.demand_active_resolution(OBJ, ctx));
        for _ in 0..k {
            assert!(eng.step(), "kill point {k} beyond the round's events");
        }
        let h_at_kill = eng.node(CRASHED).state_hash();
        drop(eng); // the crash: all in-memory state gone
        let rec = IdeaNode::recover(CRASHED, cfg.clone(), &[OBJ]).expect("valid config");
        assert_eq!(
            rec.state_hash(),
            h_at_kill,
            "kill at step {k}/{total} of the in-flight round: recovered state diverged"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Off, Async, Sync and group-committed Sync runs of the same scenario are
/// indistinguishable on the wire and in final content — the WAL is a pure
/// side effect, so the default (`off`) keeps every pinned fixed-seed trace
/// bit-identical.
#[test]
fn durability_mode_does_not_perturb_the_protocol() {
    let run = |durability: DurabilityConfig| {
        let cfg = cfg_with(durability);
        let mut eng = mk_engine(&cfg);
        phase1(&mut eng);
        phase2_writes(&mut eng);
        resolve_and_settle(&mut eng);
        let msgs: Vec<u64> = MsgClass::ALL.iter().map(|&c| eng.stats().messages(c)).collect();
        (all_hashes(&eng), msgs, eng.stats().total_messages())
    };

    let off = run(DurabilityConfig::off());
    let dir_a = tmp_dir("mode-async");
    let dir_s = tmp_dir("mode-sync");
    let dir_g = tmp_dir("mode-sync-grouped");
    for dir in [&dir_a, &dir_s, &dir_g] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let buffered = run(DurabilityConfig::buffered(dir_a.clone()));
    let sync = run(DurabilityConfig::sync(dir_s.clone()));
    let grouped = run(DurabilityConfig::sync_grouped(dir_g.clone(), 32));

    assert_eq!(off, buffered, "Async durability changed the trace");
    assert_eq!(off, sync, "Sync durability changed the trace");
    assert_eq!(off, grouped, "group-committed Sync durability changed the trace");
    for dir in [&dir_a, &dir_s, &dir_g] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// A clean shutdown flushes a final snapshot, so the next restart replays
/// an empty tail; the WAL then re-grows from new work only.
#[test]
fn flush_leaves_an_empty_tail_and_recovers() {
    let dir = tmp_dir("flush");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = cfg_with(DurabilityConfig::sync(dir.clone()));

    let mut eng = mk_engine(&cfg);
    phase1(&mut eng);
    let h = eng.node(CRASHED).state_hash();
    eng.node_mut(CRASHED).flush_durability();

    let shards = cfg.store_shards as u32;
    for s in 0..shards {
        let r = idea_wal::ShardWal::load(&cfg.durability, CRASHED, s).unwrap();
        assert!(r.tail.is_empty(), "shard {s}: tail not empty after flush");
        assert_eq!(r.torn_bytes, 0, "shard {s}: torn bytes after clean flush");
    }
    let rec = IdeaNode::recover(CRASHED, cfg.clone(), &[OBJ]).expect("valid config");
    assert_eq!(rec.state_hash(), h);
    std::fs::remove_dir_all(&dir).unwrap();
}
