//! Traffic floors of the two compacted control planes, on the
//! deterministic engine: fixed-seed detect-round runs whose per-class
//! byte counts must stay under recorded bars.
//!
//! * **Resolution wire.** Under a burst workload at N = 40 with a 1 s
//!   probe-batching window, resolution control + transfer bytes must stay
//!   at least 4× below the 8,163,344 B the same run cost before the
//!   resolution wire was compacted (full-vector collect answers,
//!   self-contained `Inform`, one unbounded fetch reply).
//! * **Gossip plane.** At N = 160 over a 120 s window, the lazy
//!   push/pull plane must ship fewer gossip bytes than the eager flood.
//!
//! Message and byte totals are deterministic per seed, so these are exact
//! pins on traffic, not timing measurements.

use idea_core::{IdeaConfig, IdeaNode};
use idea_net::{MsgClass, NetStats, SimConfig, SimEngine, Topology};
use idea_overlay::GossipMode;
use idea_types::{NodeId, ObjectId, SimDuration, SimTime, UpdatePayload};

/// Writers driving the scenario (the paper's top-layer size).
const WRITERS: usize = 4;
/// Per-writer write period: harder than the paper's 5 s, so per-writer
/// histories grow long and history-proportional costs would show.
const WRITE_PERIOD_SECS: u64 = 2;
const SEED: u64 = 7;
const OBJ: ObjectId = ObjectId(1);

/// Resolution control + transfer bytes of the burst N = 40, 1 s-window
/// run before the resolution wire was compacted.
const PRECOMPACTION_RESOLUTION_BYTES: u64 = 8_163_344;

/// Drives `WRITERS` staggered writers for `window_secs` of virtual time
/// on an `n`-node whiteboard cluster (hint floor 0.95, so replicas keep
/// converging through resolutions). At each write slot a writer issues
/// `burst` writes 50 ms apart; `batch_ms` arms the probe-coalescing
/// window and `mode` forces the gossip plane.
fn detect_rounds(
    n: usize,
    window_secs: u64,
    burst: usize,
    batch_ms: Option<u64>,
    mode: Option<GossipMode>,
) -> NetStats {
    let mut cfg = IdeaConfig::whiteboard(0.95);
    cfg.detect_batch_window = batch_ms.map(SimDuration::from_millis);
    if let Some(mode) = mode {
        cfg.gossip.mode = mode;
    }
    let nodes: Vec<IdeaNode> =
        (0..n).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &[OBJ])).collect();
    let mut eng = SimEngine::new(
        Topology::planetlab(n, SEED),
        SimConfig { seed: SEED, ..Default::default() },
        nodes,
    );
    let end = SimTime::ZERO + SimDuration::from_secs(window_secs);
    let mut next_write: Vec<SimTime> =
        (0..WRITERS.min(n)).map(|w| SimTime::ZERO + SimDuration::from_secs(w as u64)).collect();
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
                        p.local_write(OBJ, 1, UpdatePayload::none(), ctx);
                    });
                    eng.run_for(SimDuration::from_millis(50));
                }
                *next = t + SimDuration::from_secs(WRITE_PERIOD_SECS);
            }
        }
    }
    eng.run_until(end + SimDuration::from_secs(5));
    eng.stats().clone()
}

#[test]
fn burst_resolution_bytes_stay_4x_below_the_precompaction_wire() {
    let s = detect_rounds(40, 600, 8, Some(1_000), None);
    let msgs = s.messages(MsgClass::ResolutionCtl) + s.messages(MsgClass::Transfer);
    let bytes = s.payload_bytes(MsgClass::ResolutionCtl) + s.payload_bytes(MsgClass::Transfer);
    assert!(msgs > 0, "no resolution traffic — the floor is vacuous");
    assert!(
        bytes * 4 <= PRECOMPACTION_RESOLUTION_BYTES,
        "resolution bytes {bytes} B over {msgs} msgs: less than 4x below the \
         pre-compaction {PRECOMPACTION_RESOLUTION_BYTES} B"
    );
}

#[test]
fn lazy_gossip_ships_fewer_bytes_than_eager_at_n160() {
    let eager = detect_rounds(160, 120, 1, None, Some(GossipMode::Eager));
    let lazy = detect_rounds(160, 120, 1, None, Some(GossipMode::Lazy));
    let (eager_bytes, lazy_bytes) =
        (eager.payload_bytes(MsgClass::Gossip), lazy.payload_bytes(MsgClass::Gossip));
    assert!(eager_bytes > 0, "no gossip traffic — the comparison is vacuous");
    assert!(lazy_bytes < eager_bytes, "lazy gossip {lazy_bytes} B not below eager {eager_bytes} B");
}
