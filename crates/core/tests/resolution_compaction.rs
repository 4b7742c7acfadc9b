//! The compact resolution wire against the frozen full-vector wire, on
//! the deterministic engine.
//!
//! The compact wire forms change *what bytes* the resolution plane ships
//! — `VvDelta` collect answers against the initiator's probe summary,
//! reference deltas in `Inform` — never what the protocol concludes. The
//! full-vector wire (collect answers carrying the whole extended version
//! vector, `Inform` always self-contained) was the reference these forms
//! were built against; its outcomes are frozen below as golden digests,
//! captured from that wire before it was deleted. Three guarantees, all
//! on loss-free `SimEngine` runs:
//!
//! 1. **Reference identity**: on fixed seeds and on fixed cases from the
//!    old equivalence proptest's domain, the compact wire ends with
//!    bit-identical replicas (same extended version vectors, meta, levels
//!    and update content) and identical resolution logs at every node —
//!    the delta path reconstructs exactly the vectors the full path
//!    shipped, so `choose_reference` picks the same winner.
//! 2. **Compaction**: on the deep-history seeds the compact wire pays
//!    strictly fewer resolution-control bytes than the full wire did, at
//!    the same message count.
//! 3. **Chunking**: `max_fetch_updates` ∈ {1, 7, 64, ∞} all converge to
//!    the same final replicas — a chunked backlog reassembles the same
//!    update set one unbounded reply would ship. (The per-frame bound
//!    itself is pinned in-crate, where reply frames can be intercepted.)

use idea_core::resolution::{ResolutionKind, ResolutionRecord};
use idea_core::{IdeaConfig, IdeaNode};
use idea_net::{MsgClass, SimConfig, SimEngine, Topology};
use idea_types::{NodeId, ObjectId, SimDuration, SimTime, UpdatePayload};
use idea_vv::ExtendedVersionVector;
use idea_wal::hash::{mix, splitmix64};

const OBJ: ObjectId = ObjectId(1);

/// Per-node observable state: `(meta, updates, level ppm, full extended
/// version vector)`.
type NodeState = (i64, usize, u64, ExtendedVersionVector);

/// Everything observable a run leaves behind, plus its digests.
struct Outcome {
    nodes: Vec<NodeState>,
    /// Per node: meta, update count, level ppm, store content hash and
    /// every `(time, writer, seq)` event of the extended version vector.
    node_digests: Vec<u64>,
    /// Every node's resolution log, record field by record field.
    log_digest: u64,
    resolutions: usize,
    ctl_msgs: u64,
    ctl_bytes: u64,
}

/// Frozen full-wire outcome of one fixed-seed run (`n = 10`, 10 waves).
struct Golden {
    seed: u64,
    nodes: [u64; 10],
    log: u64,
    ctl_msgs: u64,
    full_ctl_bytes: u64,
}

/// Frozen full-wire outcome of one `(n, waves, seed)` case; `digest`
/// folds every node digest into the log digest.
struct Case {
    n: usize,
    waves: u32,
    seed: u64,
    digest: u64,
    ctl_msgs: u64,
    full_ctl_bytes: u64,
}

// Captured from the full-vector wire at commit cf0fe98 (its last
// commit), with the digest functions below.
const GOLDEN: [Golden; 3] = [
    Golden {
        seed: 7,
        nodes: [
            0xee19_4fd5_9298_dbc0,
            0xf14e_14fc_2944_65ec,
            0xe475_017b_90b6_1f01,
            0x931b_bea5_0681_dac4,
            0xcec0_a418_1c9c_14bb,
            0x3e63_dd59_0239_9f44,
            0xa7b8_63b3_5c99_0103,
            0x8fb5_57b9_86e0_b5ed,
            0xe4bb_9a2a_d7fc_2a1c,
            0x283d_d7af_15ed_b4f8,
        ],
        log: 0xf528_b148_1d21_8117,
        ctl_msgs: 167,
        full_ctl_bytes: 9960,
    },
    Golden {
        seed: 21,
        nodes: [
            0x4de6_b815_3bb6_379c,
            0xf104_a6b1_eb65_f9d4,
            0x6426_8aeb_28a4_7f61,
            0xe159_c53c_b9e9_ea47,
            0xcec0_a418_1c9c_14bb,
            0x3e63_dd59_0239_9f44,
            0xa7b8_63b3_5c99_0103,
            0x8fb5_57b9_86e0_b5ed,
            0xe4bb_9a2a_d7fc_2a1c,
            0x283d_d7af_15ed_b4f8,
        ],
        log: 0x90ca_cc5a_82c9_c30f,
        ctl_msgs: 167,
        full_ctl_bytes: 10284,
    },
    Golden {
        seed: 42,
        nodes: [
            0xd06d_33f5_391b_2c60,
            0xb9f0_3479_69db_cc6e,
            0x7a8d_c1d6_b047_0314,
            0x7074_dce8_ec42_8c33,
            0xcec0_a418_1c9c_14bb,
            0x3e63_dd59_0239_9f44,
            0xa7b8_63b3_5c99_0103,
            0x8fb5_57b9_86e0_b5ed,
            0xe4bb_9a2a_d7fc_2a1c,
            0x283d_d7af_15ed_b4f8,
        ],
        log: 0xecad_f2c1_4546_83d1,
        ctl_msgs: 167,
        full_ctl_bytes: 9516,
    },
];

// Same capture; fixed draws from the retired proptest's domain
// (`n ∈ 5..11`, `waves ∈ 2..6`, `seed ∈ 0..1000`).
#[rustfmt::skip]
const CASES: [Case; 10] = [
    Case { n: 5, waves: 2, seed: 3, digest: 0x17fc_aea6_2866_c569, ctl_msgs: 18, full_ctl_bytes: 624 },
    Case { n: 6, waves: 3, seed: 117, digest: 0x455f_5dc4_dfcc_b72f, ctl_msgs: 34, full_ctl_bytes: 1452 },
    Case { n: 7, waves: 4, seed: 256, digest: 0xb1e9_bfbc_0c15_708d, ctl_msgs: 53, full_ctl_bytes: 2580 },
    Case { n: 8, waves: 5, seed: 389, digest: 0x4571_4eab_c491_3a41, ctl_msgs: 72, full_ctl_bytes: 3516 },
    Case { n: 9, waves: 2, seed: 512, digest: 0x3c86_0772_470d_30e3, ctl_msgs: 18, full_ctl_bytes: 624 },
    Case { n: 10, waves: 3, seed: 641, digest: 0x0215_28f8_8fb0_ca08, ctl_msgs: 34, full_ctl_bytes: 1452 },
    Case { n: 5, waves: 5, seed: 777, digest: 0xc013_1a08_5efe_edf3, ctl_msgs: 72, full_ctl_bytes: 3744 },
    Case { n: 6, waves: 4, seed: 858, digest: 0x9fec_8792_76eb_ab16, ctl_msgs: 53, full_ctl_bytes: 2460 },
    Case { n: 8, waves: 3, seed: 901, digest: 0x9005_3795_58d1_6adc, ctl_msgs: 34, full_ctl_bytes: 1452 },
    Case { n: 10, waves: 5, seed: 999, digest: 0xb8de_d08b_5929_30d9, ctl_msgs: 72, full_ctl_bytes: 3744 },
];

fn record_digest(h: u64, r: &ResolutionRecord) -> u64 {
    let kind = match r.kind {
        ResolutionKind::Background => 1,
        ResolutionKind::Active => 2,
    };
    let mut h = mix(h, r.rid);
    h = mix(h, kind);
    h = mix(h, r.members as u64);
    h = mix(h, r.started.0);
    h = mix(h, r.phase1_dispatch.0);
    h = mix(h, r.phase1_acked.0);
    h = mix(h, r.phase2.0);
    mix(h, u64::from(r.resolved_conflict))
}

fn node_digest(node: &IdeaNode, i: u32, state: &NodeState) -> u64 {
    let (meta, updates, level_ppm, evv) = state;
    let mut h = splitmix64(u64::from(i));
    h = mix(h, *meta as u64);
    h = mix(h, *updates as u64);
    h = mix(h, *level_ppm);
    h = mix(h, node.state_hash());
    h = mix(h, evv.meta() as u64);
    for (t, id) in evv.events() {
        h = mix(h, t.0);
        h = mix(h, u64::from(id.writer.0));
        h = mix(h, id.seq);
    }
    h
}

fn run(max_fetch: Option<usize>, n: usize, seed: u64, waves: u32) -> Outcome {
    let cfg = IdeaConfig {
        // Sweep-driven rollbacks trigger resolution rounds (the same
        // recipe the gossip-equivalence scenario uses), and an explicit
        // demand after the last wave adds an active two-phase round.
        sweep_every: Some(1),
        sweep_deadline: SimDuration::from_secs(2),
        rollback_resolve: true,
        max_fetch_updates: max_fetch,
        ..Default::default()
    };
    let nodes: Vec<IdeaNode> =
        (0..n).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &[OBJ])).collect();
    let mut eng = SimEngine::new(
        Topology::planetlab(n, seed),
        SimConfig { seed, ..Default::default() },
        nodes,
    );
    let writers = 4.min(n as u32);
    // Warm up so the top layer forms, then pile on conflicting waves —
    // every writer writes concurrently, so detection finds divergence and
    // rollback resolution picks references round after round.
    for wave in 0..waves {
        for w in 0..writers {
            eng.with_node(NodeId(w), |p, ctx| {
                p.local_write(OBJ, 1 + wave as i64, UpdatePayload::none(), ctx);
            });
        }
        eng.run_for(SimDuration::from_secs(5));
    }
    eng.with_node(NodeId(0), |p, ctx| p.demand_active_resolution(OBJ, ctx));
    eng.run_until_quiescent(SimTime::from_secs(600));
    let mut out = Outcome {
        nodes: Vec::with_capacity(n),
        node_digests: Vec::with_capacity(n),
        log_digest: splitmix64(n as u64),
        resolutions: 0,
        ctl_msgs: eng.stats().messages(MsgClass::ResolutionCtl),
        ctl_bytes: eng.stats().payload_bytes(MsgClass::ResolutionCtl),
    };
    for i in 0..n as u32 {
        let node = eng.node(NodeId(i));
        let rep = node.report(OBJ);
        let level_ppm = (node.level(OBJ).value() * 1e6).round() as u64;
        let evv = node.peek(OBJ).expect("hosted replica").version.clone();
        let state = (rep.meta, rep.updates, level_ppm, evv);
        out.node_digests.push(node_digest(node, i, &state));
        out.nodes.push(state);
        out.log_digest = mix(out.log_digest, u64::from(i));
        for r in node.resolution_log() {
            out.log_digest = record_digest(out.log_digest, &r);
            out.resolutions += 1;
        }
    }
    out
}

/// On fixed seeds the compact wire chooses the bit-identical reference
/// (identical resolution logs, replica for replica) and converges to the
/// identical final state the full-vector wire reached — at the same
/// resolution message count, for strictly fewer resolution-control bytes.
#[test]
fn compact_and_full_wire_converge_identically_on_fixed_seeds() {
    // Ten waves build real per-writer histories: the full wire's collect
    // replies shipped every issue timestamp, the compact wire's deltas
    // ship only the divergence, so the byte gap is structural, not noise.
    // (On shallow histories the probe summary can outweigh the delta
    // saving — compaction is a deep-history optimisation.)
    for g in &GOLDEN {
        let seed = g.seed;
        let compact = run(None, 10, seed, 10);
        assert!(compact.resolutions > 0, "seed {seed}: no resolutions ran — the pin is vacuous");
        assert_eq!(compact.node_digests, g.nodes, "seed {seed}: final replicas diverged");
        assert_eq!(compact.log_digest, g.log, "seed {seed}: resolution logs diverged");
        assert_eq!(
            compact.ctl_msgs, g.ctl_msgs,
            "seed {seed}: compaction must not change the message count"
        );
        assert!(
            compact.ctl_bytes < g.full_ctl_bytes,
            "seed {seed}: compact ctl bytes {} not below full {}",
            compact.ctl_bytes,
            g.full_ctl_bytes
        );
    }
}

/// Chunking satellite pin: under every `max_fetch_updates` bound the
/// protocol still converges — all replicas that hold the object agree on
/// one final state at level 1.0, with the same total meta and update
/// count as the unbounded run. (The extra continuation round trips shift
/// resolution timing, so *which* equally-valid reference wins can differ
/// between bounds; the frame-exact reassembly pin lives in-crate where
/// reply frames can be intercepted.)
#[test]
fn every_fetch_chunk_bound_converges() {
    for seed in [7u64, 42] {
        let unbounded = run(None, 10, seed, 10);
        let reference = &unbounded.nodes[0];
        assert!(reference.1 > 0, "seed {seed}: writers ended empty — vacuous scenario");
        for cap in [1usize, 7, 64] {
            let chunked = run(Some(cap), 10, seed, 10);
            let first = &chunked.nodes[0];
            assert_eq!(first.2, 1_000_000, "seed {seed}: cap {cap} left node 0 unsettled");
            for (i, node) in chunked.nodes.iter().enumerate() {
                if node.1 == 0 {
                    continue; // never hosted an update; nothing to reconcile
                }
                assert_eq!(
                    node, first,
                    "seed {seed}: cap {cap} left node {i} diverged from node 0"
                );
            }
            assert_eq!(
                (first.0, first.1),
                (reference.0, reference.1),
                "seed {seed}: cap {cap} converged to a different meta/update total"
            );
        }
    }
}

/// Over deployment sizes, divergence depths and seeds drawn from the
/// retired live-equivalence proptest's domain, delta collect reproduces
/// the reference and post-resolution state full-vector collect reached,
/// at the same message count. Bytes are compared only in aggregate: on
/// shallow histories the probe summary legitimately outweighs the delta
/// saving of a single case.
#[test]
fn delta_collect_matches_full_collect() {
    let (mut compact_bytes, mut full_bytes) = (0, 0);
    for c in &CASES {
        let (n, waves, seed) = (c.n, c.waves, c.seed);
        let compact = run(None, n, seed, waves);
        assert!(compact.resolutions > 0, "case {n}/{waves}/{seed}: no resolutions ran");
        let digest = compact.node_digests.iter().fold(compact.log_digest, |h, d| mix(h, *d));
        assert_eq!(digest, c.digest, "case {n}/{waves}/{seed}: outcome diverged");
        assert_eq!(compact.ctl_msgs, c.ctl_msgs, "case {n}/{waves}/{seed}: message count");
        compact_bytes += compact.ctl_bytes;
        full_bytes += c.full_ctl_bytes;
    }
    assert!(compact_bytes < full_bytes, "compact {compact_bytes} B vs full {full_bytes} B");
}
