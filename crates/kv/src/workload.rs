//! Simulated store workloads: closed-loop clients with skewed key
//! popularity and scripted crash/recovery, ready to drive
//! [`rmem_sim::Simulation`] and be certified per key afterwards.
//!
//! The generator owns the whole loop: it derives a collision-free key
//! universe from the router ([`ShardRouter::covering_keys`], one key per
//! shard), draws each client's operation list from a
//! [`KeyDistribution`] (uniform or Zipf), encodes writes through the store
//! codec, and returns the [`KeyMap`] that later names the checker's
//! verdicts.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_sim::workload::ClosedLoop;
use rmem_sim::{KeyDistribution, PlannedEvent, Schedule};
use rmem_types::{Micros, Op, ProcessId};

use crate::codec;
use crate::history::KeyMap;
use crate::router::ShardRouter;

/// Key-popularity shape of a generated workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipf-skewed with this exponent (YCSB-style skew at ≈ 0.99).
    Zipf(f64),
}

impl KeyDist {
    fn distribution(self, n: usize) -> KeyDistribution {
        match self {
            KeyDist::Uniform => KeyDistribution::uniform(n),
            KeyDist::Zipf(s) => KeyDistribution::zipf(n, s),
        }
    }

    /// Short label for reports.
    pub fn label(self) -> String {
        match self {
            KeyDist::Uniform => "uniform".to_string(),
            KeyDist::Zipf(s) => format!("zipf({s})"),
        }
    }
}

/// Specification of a simulated store workload.
#[derive(Debug, Clone)]
pub struct KvWorkloadSpec {
    /// Shard count (also the number of distinct keys; the generator uses
    /// one key per shard so runs certify per key).
    pub shards: u16,
    /// Closed-loop clients, bound to processes `0..clients`.
    pub clients: usize,
    /// Operations per client.
    pub ops_per_client: usize,
    /// Probability an operation is a put (the rest are gets).
    pub write_fraction: f64,
    /// Key popularity.
    pub distribution: KeyDist,
    /// Bytes per written value. Floor of 8: the first 8 bytes carry a
    /// `(client, counter)` tag making every written value unique, which
    /// is what gives the atomicity checkers discriminating power.
    pub value_len: usize,
    /// Client think time between operations.
    pub think: Micros,
    /// Seed for all randomness (same seed ⇒ same workload).
    pub seed: u64,
    /// Restrict each key's writes to one owning client (`shard % clients`)
    /// — required for the single-writer `Regular` flavor, optional
    /// elsewhere.
    pub single_writer: bool,
    /// Multi-op round size, modelling a `KvClient::multi_*` call's
    /// per-register coalescing:
    /// `1` issues every store operation as its own register operation
    /// (the unbatched baseline); `k > 1` groups each client's stream into
    /// rounds of `k` and coalesces each round per shard — the round's
    /// gets on one shard become a single `ReadAt`, its puts one `WriteAt`
    /// of the coalesced payload (last write per key wins, exactly the
    /// client's semantics). [`KvRun::logical_ops`] /
    /// [`KvRun::register_ops`] report the amortization.
    pub batch: usize,
    /// Scripted crashes: `(at µs, process, down-for µs)`.
    pub crashes: Vec<(u64, u16, u64)>,
}

impl Default for KvWorkloadSpec {
    fn default() -> Self {
        KvWorkloadSpec {
            shards: 8,
            clients: 3,
            ops_per_client: 40,
            write_fraction: 0.5,
            distribution: KeyDist::Uniform,
            value_len: 8,
            think: Micros(200),
            seed: 42,
            single_writer: false,
            batch: 1,
            crashes: Vec::new(),
        }
    }
}

/// A generated run: attach [`loops`](KvRun::loops) and
/// [`schedule`](KvRun::schedule) to a simulation, then certify its trace
/// with [`key_map`](KvRun::key_map).
#[derive(Debug, Clone)]
pub struct KvRun {
    /// One closed-loop client per process.
    pub loops: Vec<ClosedLoop>,
    /// The crash/recovery schedule.
    pub schedule: Schedule,
    /// The key universe (key `i` lives on shard `i`).
    pub keys: Vec<String>,
    /// Names for the per-register verdicts.
    pub key_map: KeyMap,
    /// The router used.
    pub router: ShardRouter,
    /// Store-level operations the run represents (puts + gets before any
    /// coalescing). Equal to [`register_ops`](KvRun::register_ops) for
    /// unbatched runs.
    pub logical_ops: usize,
    /// Register operations actually scheduled (after per-shard
    /// coalescing). Throughput reports divide completed *logical* work by
    /// time, so batched and unbatched rows compare the same workload.
    pub register_ops: usize,
}

/// One store-level operation before lowering to register operations.
enum LogicalOp {
    /// Write this pre-built value under key `keys[index]`.
    Put(usize, Vec<u8>),
    /// Read key `keys[index]`.
    Get(usize),
}

/// Lowers one client's logical stream to register operations: 1:1 for
/// `batch == 1`, per-shard coalesced rounds otherwise (see
/// [`KvWorkloadSpec::batch`]).
fn lower(logical: Vec<LogicalOp>, batch: usize, keys: &[String], router: &ShardRouter) -> Vec<Op> {
    if batch <= 1 {
        return logical
            .into_iter()
            .map(|op| match op {
                LogicalOp::Put(i, value) => Op::WriteAt(
                    router.register_for(&keys[i]),
                    // Simulated runs live in epoch 0 (the sim engine has
                    // no config register or migration actors).
                    codec::encode_entry(&keys[i], &Bytes::from(value), 0),
                ),
                LogicalOp::Get(i) => Op::ReadAt(router.register_for(&keys[i])),
            })
            .collect();
    }
    let mut ops = Vec::new();
    for round in logical.chunks(batch) {
        // The round's gets: one Read round per touched shard.
        let mut read_regs = std::collections::BTreeSet::new();
        // The round's puts: per shard, last write per key wins (key order
        // by first appearance — the engine's coalescing). Indexed so a
        // hot key under heavy skew coalesces in linear time.
        let mut writes: std::collections::BTreeMap<u16, Vec<(usize, Vec<u8>)>> =
            std::collections::BTreeMap::new();
        let mut index: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for op in round {
            match op {
                LogicalOp::Get(i) => {
                    read_regs.insert(router.register_for(&keys[*i]));
                }
                LogicalOp::Put(i, value) => {
                    let reg = router.register_for(&keys[*i]);
                    let entries = writes.entry(reg.0).or_default();
                    match index.get(i) {
                        Some(&pos) => entries[pos].1 = value.clone(),
                        None => {
                            index.insert(*i, entries.len());
                            entries.push((*i, value.clone()));
                        }
                    }
                }
            }
        }
        // Reads first, then writes: everything in a round is concurrent
        // at the store level, so any serialization is legal; this one
        // mirrors the engine's flush order.
        ops.extend(read_regs.into_iter().map(Op::ReadAt));
        for (reg, entries) in writes {
            let entries: Vec<(&str, Bytes)> = entries
                .iter()
                .map(|(i, v)| (keys[*i].as_str(), Bytes::from(v.clone())))
                .collect();
            ops.push(Op::WriteAt(
                rmem_types::RegisterId(reg),
                codec::encode_entries(&entries, 0),
            ));
        }
    }
    ops
}

/// Generates a workload from `spec`.
///
/// # Panics
///
/// Panics if `spec.clients == 0` or `spec.write_fraction` is outside
/// `[0, 1]`.
pub fn generate(spec: &KvWorkloadSpec) -> KvRun {
    assert!(spec.clients > 0, "a workload needs at least one client");
    assert!(
        (0.0..=1.0).contains(&spec.write_fraction),
        "write_fraction must be a probability"
    );
    let router = ShardRouter::new(spec.shards);
    let keys = router.covering_keys("key-");
    let key_map = KeyMap::new(&router, keys.iter().map(String::as_str));
    let dist = spec.distribution.distribution(keys.len());

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut loops = Vec::with_capacity(spec.clients);
    let mut logical_ops = 0;
    let mut register_ops = 0;
    for client in 0..spec.clients {
        let owned: Vec<usize> = (0..keys.len())
            .filter(|i| i % spec.clients == client)
            .collect();
        let mut logical = Vec::with_capacity(spec.ops_per_client);
        let mut write_counter = 0u64;
        for _ in 0..spec.ops_per_client {
            let key_index = dist.sample(&mut rng);
            let is_write = rng.gen_bool(spec.write_fraction);
            if is_write {
                // Under single-writer ownership a client only writes its
                // own keys; fold foreign draws onto an owned key of
                // similar rank to keep the skew shape.
                let key_index = if spec.single_writer {
                    if owned.is_empty() {
                        // More clients than keys: this client only reads.
                        logical.push(LogicalOp::Get(key_index));
                        continue;
                    }
                    owned[key_index % owned.len()]
                } else {
                    key_index
                };
                let mut value = vec![0u8; spec.value_len.max(8)];
                value[..8].copy_from_slice(&((client as u64) << 32 | write_counter).to_be_bytes());
                write_counter += 1;
                logical.push(LogicalOp::Put(key_index, value));
            } else {
                logical.push(LogicalOp::Get(key_index));
            }
        }
        logical_ops += logical.len();
        let ops = lower(logical, spec.batch, &keys, &router);
        register_ops += ops.len();
        loops.push(ClosedLoop {
            pid: ProcessId(client as u16),
            ops,
            think: spec.think,
            start_after: Micros(10 + client as u64 * 7),
        });
    }

    let mut schedule = Schedule::new();
    for &(at, pid, down_for) in &spec.crashes {
        schedule = schedule
            .at(at, PlannedEvent::Crash(ProcessId(pid)))
            .at(at + down_for, PlannedEvent::Recover(ProcessId(pid)));
    }

    KvRun {
        loops,
        schedule,
        keys,
        key_map,
        router,
        logical_ops,
        register_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = KvWorkloadSpec::default();
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.keys, b.keys);
        for (la, lb) in a.loops.iter().zip(&b.loops) {
            assert_eq!(la.ops, lb.ops);
        }
        let c = generate(&KvWorkloadSpec { seed: 43, ..spec });
        assert!(a.loops.iter().zip(&c.loops).any(|(x, y)| x.ops != y.ops));
    }

    #[test]
    fn one_key_per_shard_and_injective_map() {
        let run = generate(&KvWorkloadSpec {
            shards: 16,
            ..KvWorkloadSpec::default()
        });
        assert_eq!(run.keys.len(), 16);
        assert!(run.key_map.is_injective());
    }

    #[test]
    fn single_writer_partitions_write_ownership() {
        let spec = KvWorkloadSpec {
            single_writer: true,
            write_fraction: 1.0,
            ops_per_client: 60,
            ..KvWorkloadSpec::default()
        };
        let run = generate(&spec);
        for (client, lp) in run.loops.iter().enumerate() {
            for op in &lp.ops {
                if let Op::WriteAt(reg, _) = op {
                    assert_eq!(
                        reg.0 as usize % spec.clients,
                        client,
                        "client {client} wrote a foreign shard {reg}"
                    );
                }
            }
        }
    }

    #[test]
    fn crashes_turn_into_schedule_pairs() {
        let run = generate(&KvWorkloadSpec {
            crashes: vec![(5_000, 1, 2_000)],
            ..KvWorkloadSpec::default()
        });
        assert_eq!(run.schedule.entries().len(), 2);
    }

    #[test]
    fn batched_lowering_coalesces_and_accounts() {
        let base = KvWorkloadSpec {
            shards: 8,
            clients: 3,
            ops_per_client: 40,
            distribution: KeyDist::Zipf(0.99),
            ..KvWorkloadSpec::default()
        };
        let unbatched = generate(&base);
        assert_eq!(unbatched.logical_ops, 120);
        assert_eq!(unbatched.register_ops, 120, "batch=1 lowers 1:1");
        let batched = generate(&KvWorkloadSpec { batch: 8, ..base });
        assert_eq!(batched.logical_ops, 120, "same workload");
        assert!(
            batched.register_ops < unbatched.register_ops,
            "coalescing must drop register ops ({} vs {})",
            batched.register_ops,
            unbatched.register_ops
        );
        assert_eq!(
            batched.register_ops,
            batched.loops.iter().map(|l| l.ops.len()).sum::<usize>()
        );
        // Every lowered write is decodable, single-key (injective
        // universe), and correctly routed.
        for lp in &batched.loops {
            for op in &lp.ops {
                if let Op::WriteAt(reg, payload) = op {
                    let entries = crate::codec::decode_entries(payload).expect("decodable");
                    assert_eq!(entries.len(), 1, "one key per shard ⇒ one entry");
                    assert_eq!(batched.router.register_for(&entries[0].0), *reg);
                }
            }
        }
    }

    #[test]
    fn batched_generation_is_deterministic() {
        let spec = KvWorkloadSpec {
            batch: 4,
            ..KvWorkloadSpec::default()
        };
        let a = generate(&spec);
        let b = generate(&spec);
        for (la, lb) in a.loops.iter().zip(&b.loops) {
            assert_eq!(la.ops, lb.ops);
        }
    }

    #[test]
    fn writes_are_valid_store_entries() {
        let run = generate(&KvWorkloadSpec {
            write_fraction: 1.0,
            ..KvWorkloadSpec::default()
        });
        for lp in &run.loops {
            for op in &lp.ops {
                let Op::WriteAt(reg, payload) = op else {
                    panic!("expected writes only")
                };
                let (key, _) = crate::codec::decode_entry(payload).expect("decodable entry");
                assert_eq!(run.router.register_for(&key), *reg);
            }
        }
    }
}
