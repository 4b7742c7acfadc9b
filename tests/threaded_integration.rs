//! The IDEA protocol under real concurrency: the threaded runtime drives the
//! same state machines over crossbeam channels with injected WAN latency.
//! The single-object tests run at `THREADED_SHARDS` workers per node
//! (default 1, one worker per node).

use idea::prelude::*;
use std::thread;
use std::time::Duration;

const OBJ: ObjectId = ObjectId(1);

/// A cluster replicating `OBJ`, and the shard worker that owns it.
fn threaded_cluster(n: usize, seed: u64) -> (ShardedEngine<IdeaNode>, usize) {
    let shards = shards_from_env(1);
    let cfg = IdeaConfig { store_shards: shards, ..Default::default() };
    let nodes: Vec<IdeaNode> =
        (0..n).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &[OBJ])).collect();
    let net = ShardedEngine::start(
        Topology::planetlab(n, seed),
        ThreadedConfig { seed, time_scale: 0.02, shards },
        nodes,
    );
    (net, ShardId::of(OBJ, shards).index())
}

#[test]
fn threaded_cluster_forms_top_layer_and_resolves() {
    let (net, s) = threaded_cluster(4, 1);
    for _ in 0..3 {
        for w in 0..4u32 {
            net.invoke(NodeId(w), s, move |p, ctx| {
                p.local_write(OBJ, 1, UpdatePayload::none(), ctx);
            });
            net.sleep_virtual(SimDuration::from_millis(400));
        }
    }
    net.sleep_virtual(SimDuration::from_secs(4));

    let members = net.query(NodeId(0), s, |p, _| p.report(OBJ).top_members);
    assert!(members.len() >= 3, "top layer too small on threads: {members:?}");

    for w in 0..4u32 {
        net.invoke(NodeId(w), s, move |p, ctx| {
            p.local_write(OBJ, 5, UpdatePayload::none(), ctx);
        });
    }
    net.sleep_virtual(SimDuration::from_secs(2));
    net.invoke(NodeId(0), s, |p, ctx| p.demand_active_resolution(OBJ, ctx));
    net.sleep_virtual(SimDuration::from_secs(8));
    thread::sleep(Duration::from_millis(300));

    let states = net.stop();
    let metas: Vec<i64> = states.iter().map(|s| s.report(OBJ).meta).collect();
    // Threaded runs are not deterministic; allow late stragglers but demand
    // that a majority agrees with the highest-id reference.
    let reference = metas[3];
    let agreeing = metas.iter().filter(|m| **m == reference).count();
    assert!(agreeing >= 3, "metas {metas:?}");
}

#[test]
fn threaded_engine_reports_stats() {
    let (net, s) = threaded_cluster(3, 2);
    for w in 0..3u32 {
        net.invoke(NodeId(w), s, move |p, ctx| {
            p.local_write(OBJ, 1, UpdatePayload::none(), ctx);
        });
    }
    net.sleep_virtual(SimDuration::from_secs(2));
    thread::sleep(Duration::from_millis(200));
    let snap = net.stats();
    let total: u64 = snap.per_class.iter().map(|(_, m, _)| *m).sum();
    assert!(total > 0, "traffic must be accounted");
    net.stop();
}

/// The sharded runtime: `THREADED_SHARDS` workers per node (default 2),
/// sharded mailboxes and routers. Disjoint objects are processed
/// concurrently while per-object ordering holds, so every object still
/// converges through its own detection/resolution rounds.
#[test]
fn sharded_threaded_cluster_converges_per_object() {
    let shards = shards_from_env(2);
    let n = 4usize;
    let objects: Vec<ObjectId> = (0..8u64).map(ObjectId).collect();
    let cfg = IdeaConfig { store_shards: shards, ..Default::default() };
    let nodes: Vec<IdeaNode> =
        (0..n).map(|i| IdeaNode::new(NodeId(i as u32), cfg.clone(), &objects)).collect();
    let net = ShardedEngine::start(
        Topology::planetlab(n, 9),
        ThreadedConfig { seed: 9, time_scale: 0.02, shards },
        nodes,
    );
    assert_eq!(net.shards(), shards);
    assert_eq!(net.len(), n);

    // Warm every object's top layer, then write conflicting values.
    for _ in 0..3 {
        for w in 0..n as u32 {
            for &obj in &objects {
                let s = ShardId::of(obj, shards).index();
                net.invoke(NodeId(w), s, move |shard, ctx| {
                    shard.local_write(obj, 1, UpdatePayload::none(), ctx);
                });
            }
            net.sleep_virtual(SimDuration::from_millis(400));
        }
    }
    net.sleep_virtual(SimDuration::from_secs(4));

    for w in 0..n as u32 {
        for &obj in &objects {
            let s = ShardId::of(obj, shards).index();
            net.invoke(NodeId(w), s, move |shard, ctx| {
                shard.local_write(obj, 5, UpdatePayload::none(), ctx);
            });
        }
    }
    net.sleep_virtual(SimDuration::from_secs(2));
    for &obj in &objects {
        let s = ShardId::of(obj, shards).index();
        net.invoke(NodeId(0), s, move |shard, ctx| shard.demand_active_resolution(obj, ctx));
    }
    net.sleep_virtual(SimDuration::from_secs(8));
    thread::sleep(Duration::from_millis(300));

    // A sharded query observes the same state the worker wrote.
    let first = objects[0];
    let s = ShardId::of(first, shards).index();
    let meta = net.query(NodeId(0), s, move |shard, _| shard.report(first).meta);
    assert!(meta > 0, "worker-owned replica must reflect writes");

    let states = net.stop();
    assert_eq!(states.len(), n, "stop() reassembles every node from its shards");
    for &obj in &objects {
        let metas: Vec<i64> = states.iter().map(|st| st.report(obj).meta).collect();
        // Threaded runs are not deterministic; allow late stragglers but
        // demand that a majority agrees with the highest-id reference.
        let reference = metas[3];
        let agreeing = metas.iter().filter(|m| **m == reference).count();
        assert!(agreeing >= 3, "object {obj}: metas {metas:?}");
    }
}

#[test]
fn query_reads_consistent_state_from_node_thread() {
    let (net, s) = threaded_cluster(3, 3);
    net.invoke(NodeId(1), s, |p, ctx| {
        p.local_write(OBJ, 42, UpdatePayload::none(), ctx);
    });
    // query is serialised on the object's own worker, so it observes the write.
    let meta = net.query(NodeId(1), s, |p, _| p.report(OBJ).meta);
    assert_eq!(meta, 42);
    net.stop();
}
