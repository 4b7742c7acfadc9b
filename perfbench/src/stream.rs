//! The served workloads' command streams, generated from the seed alone.
//!
//! The system under test sees only the commands; the mix parameters and
//! the seed stay on the benchmark's side.

use crate::rng::{Rng, Zipf};
use idea_core::{Command, ReadConsistency};
use idea_types::{ConsistencyLevel, NodeId, ObjectId, UpdatePayload};

/// The hint floor of the served deployment, which `AtLeast` reads ask for.
pub const HINT: f64 = 0.95;

/// What a command stream is made of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Nodes commands are addressed to (uniformly).
    pub nodes: u32,
    /// Objects `1..=objects` the commands touch.
    pub objects: usize,
    /// Zipf exponent of object popularity (`0.0` is uniform).
    pub zipf_s: f64,
    /// Share of commands that are `Read`s; the rest are `Write`s.
    pub read_frac: f64,
    /// Share of reads that ask for `ReadConsistency::AtLeast(HINT)`, so
    /// the §4.2 read trigger can start a detection probe; the rest read
    /// with `ReadConsistency::Any`.
    pub floor_frac: f64,
}

/// Which operation a command is, for response checking and latency split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// One generated command.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub node: NodeId,
    pub kind: Kind,
    pub command: Command,
}

impl Op {
    pub fn object(&self) -> ObjectId {
        self.command.object().expect("generated commands are object-addressed")
    }
}

/// `n` commands of `mix`, fully determined by `seed` and `stream` (each
/// phase of a run draws from its own stream).
pub fn generate(mix: &Mix, seed: u64, stream: u64, n: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed.wrapping_mul(0x100_0000_01B3).wrapping_add(stream));
    let zipf = Zipf::new(mix.objects, mix.zipf_s);
    // Popularity ranks map to object ids through one fixed permutation: the
    // hot objects spread over shards the same way for every seed, so a seed
    // varies the command sequence but not which shard carries the hot set
    // (with a per-seed permutation that alone moved read p90 by a quarter).
    let mut ids: Vec<u64> = (1..=mix.objects as u64).collect();
    let mut perm = Rng::new(0x0B1E_C7ED);
    for i in (1..ids.len()).rev() {
        ids.swap(i, perm.below(i as u64 + 1) as usize);
    }
    (0..n)
        .map(|_| {
            let node = NodeId(rng.below(u64::from(mix.nodes)) as u32);
            let object = ObjectId(ids[zipf.sample(&mut rng)]);
            if rng.unit() < mix.read_frac {
                let consistency = if rng.unit() < mix.floor_frac {
                    ReadConsistency::AtLeast(ConsistencyLevel::new(HINT))
                } else {
                    ReadConsistency::Any
                };
                Op { node, kind: Kind::Read, command: Command::Read { object, consistency } }
            } else {
                let command =
                    Command::Write { object, meta_delta: 1, payload: UpdatePayload::none() };
                Op { node, kind: Kind::Write, command }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix { nodes: 4, objects: 4096, zipf_s: 0.99, read_frac: 0.9, floor_frac: 0.2 };

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(generate(&MIX, 7, 1, 5_000), generate(&MIX, 7, 1, 5_000));
        assert_ne!(generate(&MIX, 7, 1, 5_000), generate(&MIX, 8, 1, 5_000));
        assert_ne!(generate(&MIX, 7, 1, 5_000), generate(&MIX, 7, 2, 5_000));
    }

    #[test]
    fn mix_shares_hold() {
        let ops = generate(&MIX, 3, 0, 20_000);
        let reads = ops.iter().filter(|o| o.kind == Kind::Read).count() as f64 / 20_000.0;
        assert!((reads - 0.9).abs() < 0.01, "read share {reads}");
        assert!(ops.iter().all(|o| o.node.0 < 4 && (1..=4096).contains(&o.object().0)));
    }
}
