//! Real-runtime lease freshness: concurrent writers vs leased readers,
//! plus the pinned foreign-write fence.
//!
//! A register's home node answers hot-key gets under its tag lease in
//! **zero** rounds, so these are the reads most able to go stale — and
//! the writer's puts go through the very nodes that hold the leases,
//! past their own fences. Each seeded run races a writer installing
//! monotone versions against two reader families over Zipf-hot keys;
//! every run is recorded and per-key certified, and every zero-round
//! read (identified by the family's `lease_hits` delta around the get)
//! is policed by the [`check_freshness`] oracle on one shared monotonic
//! clock: **a leased read must never return a value older than any value
//! returned after a completed write.**
//!
//! The pinned case writes a leased register through a node that does
//! not hold the lease: the put waits out the holder's grants, exactly as
//! every write did while grants went out to clients.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_consistency::{check_freshness, Criterion, FreshnessKind, FreshnessOp};
use rmem_core::{Persistent, SharedMemory};
use rmem_kv::{certify_per_key_epoch_path, KvClient, OpRecorder, ShardRouter};
use rmem_net::LocalCluster;
use rmem_sim::KeyDistribution;
use rmem_types::ProcessId;

const SHARDS: u16 = 4;
/// Real-time lease horizon for the traffic sweep: long enough for a
/// reader's inter-op think time (≤ 150µs) to land many gets inside one
/// grant, short enough that the replica write fence (horizon + ¼) keeps
/// each seeded run well under 100ms.
const LEASE_MICROS: u64 = 2_000;
const WRITES_PER_SEED: usize = 24;
const READS_PER_READER: usize = 60;

fn leased_cluster(lease_micros: u64) -> LocalCluster {
    LocalCluster::channel(
        3,
        SharedMemory::factory(Persistent::flavor().with_lease(lease_micros)),
    )
    .unwrap()
}

fn version_bytes(v: u64) -> Vec<u8> {
    v.to_be_bytes().to_vec()
}

fn version_of(bytes: Option<&[u8]>) -> u64 {
    bytes.map_or(0, |b| {
        u64::from_be_bytes(b.try_into().expect("writers install 8-byte versions"))
    })
}

struct SeedOutcome {
    leased_reads: usize,
    quorum_reads: usize,
    /// The writer's register writes, and the rounds they took.
    writes: u64,
    write_rounds: u64,
}

/// One seeded run: preload → one writer thread installing monotone
/// versions vs two leased reader families → per-key certification and
/// the per-key freshness oracle.
fn run_seed(seed: u64) -> SeedOutcome {
    let cluster = leased_cluster(LEASE_MICROS);
    let recorder = OpRecorder::new();
    let writer = KvClient::new(cluster.clients(), ShardRouter::new(SHARDS))
        .unwrap()
        .with_recorder(recorder.clone());
    let keys = ShardRouter::new(SHARDS).covering_keys("lk-");
    // Preload: version 1 everywhere, so no read ever sees ⊥ and every
    // returned value names its version.
    for key in &keys {
        writer.put(key, version_bytes(1)).unwrap();
    }

    // (key index, op) pairs from every thread, on one shared clock.
    let t_zero = Instant::now();
    let log: Mutex<Vec<(usize, FreshnessOp)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        // The writer: Zipf-hot keys, per-key monotone versions 2, 3, …
        {
            let writer = &writer;
            let keys = &keys;
            let log = &log;
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
            scope.spawn(move || {
                let dist = KeyDistribution::zipf(keys.len(), 0.99);
                let mut versions = vec![1u64; keys.len()];
                for _ in 0..WRITES_PER_SEED {
                    let k = dist.sample(&mut rng);
                    versions[k] += 1;
                    let invoked_at = t_zero.elapsed().as_micros() as u64;
                    writer.put(&keys[k], version_bytes(versions[k])).unwrap();
                    let completed_at = t_zero.elapsed().as_micros() as u64;
                    log.lock().unwrap().push((
                        k,
                        FreshnessOp {
                            invoked_at,
                            completed_at,
                            kind: FreshnessKind::Write {
                                version: versions[k],
                            },
                        },
                    ));
                    std::thread::sleep(Duration::from_micros(rng.gen_range(0..150)));
                }
            });
        }
        // Two reader families. Each family is one thread owning its own
        // client (and so its own counters): the `lease_hits` delta
        // around a get is exactly "this get was answered under a lease,
        // zero rounds".
        for family in 0..2u64 {
            let clients = cluster.clients();
            let recorder = recorder.clone();
            let keys = &keys;
            let log = &log;
            let mut rng = StdRng::seed_from_u64(seed * 31 + family);
            scope.spawn(move || {
                let reader = KvClient::new(clients, ShardRouter::new(SHARDS))
                    .unwrap()
                    .with_recorder(recorder);
                let dist = KeyDistribution::zipf(keys.len(), 0.99);
                for _ in 0..READS_PER_READER {
                    let k = dist.sample(&mut rng);
                    let hits_before = reader.stats().lease_hits;
                    let invoked_at = t_zero.elapsed().as_micros() as u64;
                    let got = reader.get(&keys[k]).unwrap();
                    let completed_at = t_zero.elapsed().as_micros() as u64;
                    let leased = reader.stats().lease_hits > hits_before;
                    log.lock().unwrap().push((
                        k,
                        FreshnessOp {
                            invoked_at,
                            completed_at,
                            kind: FreshnessKind::Read {
                                version: version_of(got.as_deref()),
                                leased,
                            },
                        },
                    ));
                    std::thread::sleep(Duration::from_micros(rng.gen_range(0..150)));
                }
            });
        }
    });

    // Full per-key atomicity certification of everything that ran —
    // leased reads included (they are ordinary recorded store ops).
    let history = recorder.history();
    certify_per_key_epoch_path(
        &history,
        keys.iter().map(String::as_str),
        &[SHARDS],
        Criterion::Persistent,
    )
    .unwrap_or_else(|e| panic!("seed {seed}: certification failed: {e}"));

    // The freshness oracle, per key (it polices one register at a time).
    let log = log.into_inner().unwrap();
    let mut leased_reads = 0;
    let mut quorum_reads = 0;
    for (k, key) in keys.iter().enumerate() {
        let ops: Vec<FreshnessOp> = log
            .iter()
            .filter(|(logged, _)| *logged == k)
            .map(|&(_, op)| op)
            .collect();
        let report = check_freshness(&ops)
            .unwrap_or_else(|violation| panic!("seed {seed}, key {key}: {violation}"));
        leased_reads += report.leased_reads;
        quorum_reads += ops
            .iter()
            .filter(|o| matches!(o.kind, FreshnessKind::Read { leased: false, .. }))
            .count();
    }
    let stats = writer.stats();
    SeedOutcome {
        leased_reads,
        quorum_reads,
        writes: stats.writes,
        write_rounds: stats.write_rounds,
    }
}

/// The CI smoke: one full seeded run.
#[test]
fn single_seed_smoke() {
    let outcome = run_seed(0);
    assert_eq!(
        outcome.leased_reads + outcome.quorum_reads,
        2 * READS_PER_READER,
        "every read must be logged"
    );
}

/// ≥ 12 seeds of writers vs leased readers: every history certified,
/// zero stale leased reads, and the lease demonstrably fired (while
/// cold starts and revocations kept some reads on the quorum path) —
/// for the writer too: a put that meets a live lease at its key's home
/// takes it for its query round.
#[test]
fn sweep_writers_vs_leased_readers() {
    let mut leased = 0usize;
    let mut quorum = 0usize;
    let (mut writes, mut write_rounds) = (0, 0);
    for seed in 1..=12 {
        let outcome = run_seed(seed);
        leased += outcome.leased_reads;
        quorum += outcome.quorum_reads;
        writes += outcome.writes;
        write_rounds += outcome.write_rounds;
    }
    assert!(
        write_rounds < 2 * writes,
        "no put began under a lease: {writes} writes, {write_rounds} rounds"
    );
    assert!(
        leased > 0,
        "the sweep must serve some reads from leases — otherwise the \
         freshness oracle policed nothing (got {quorum} quorum reads)"
    );
    assert!(
        quorum > 0,
        "cold starts and horizon expiries must keep some reads on the \
         quorum path"
    );
    println!(
        "sweep: {leased} leased reads, {quorum} quorum reads, all fresh; \
         {writes} writes in {write_rounds} rounds"
    );
}

/// A lease in use renews itself with nobody waiting — and stops: each
/// renew point of a period that served nothing spends one of the lease's
/// idle allowance, which use earns one read at a time up to a cap of
/// [`ALLOWANCE_CAP`] periods (7/8 of a term each), so once the calls end
/// each lease in use renews at most that many times and then lapses: the
/// last renewal leaves within the cap's periods of the last call, quiet a
/// hold later. No renewal loop keeps an idle cluster talking.
#[test]
fn an_idle_cluster_goes_quiet_within_the_allowance_cap_after_its_last_call() {
    const TERM: Duration = Duration::from_millis(40);
    let cluster = leased_cluster(TERM.as_micros() as u64);
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(SHARDS)).unwrap();
    let keys = ShardRouter::new(SHARDS).covering_keys("ik-");
    for key in &keys {
        kv.put(key, version_bytes(1)).unwrap();
    }
    std::thread::sleep(SETTLE);
    // Every home node mints, serves from the lease, writes under it
    // (handing it on) and serves again: every lease is in use.
    for key in &keys {
        for _ in 0..2 {
            assert_eq!(version_of(kv.get(key).unwrap().as_deref()), 1);
        }
        kv.put(key, version_bytes(2)).unwrap();
        assert_eq!(version_of(kv.get(key).unwrap().as_deref()), 2);
    }
    let stats = kv.stats();
    assert!(stats.lease_hits as usize >= 2 * keys.len(), "{stats:?}");
    let sent = || -> Vec<u64> {
        let of = |pid| cluster.metrics(pid).counter("runner.msgs_out");
        ProcessId::all(3).map(of).collect()
    };
    let at_the_last_call = sent();
    let hold = TERM + TERM / 4;
    std::thread::sleep(3 * hold);
    let three_holds_on = sent();
    assert_ne!(
        three_holds_on, at_the_last_call,
        "the leases in use renewed"
    );
    let period = TERM - TERM / 8;
    std::thread::sleep(ALLOWANCE_CAP * period + hold - 3 * hold);
    let quiet = sent();
    std::thread::sleep(2 * hold);
    assert_eq!(sent(), quiet, "something still renews");
}

/// The most idle renewal periods a lease may have earned (the automaton's
/// `ALLOWANCE_CAP` in `rmem_core::generic`).
const ALLOWANCE_CAP: u32 = 12;

/// A write returns on a majority; minting needs the whole read quorum to
/// agree, so a check that a lease is earned first lets the last replica
/// catch up.
const SETTLE: Duration = Duration::from_millis(20);

/// The pinned fence's lease term: long enough that "waited it out" and
/// "did not wait" cannot be confused on a loaded machine.
const FENCE_LEASE: Duration = Duration::from_millis(400);

/// Pinned: a put submitted through one node that is **not** the hot
/// register's home is a foreign coordinator's write: the replicas park
/// its acknowledgement until the holder's grants expire — the fence is
/// what keeps the holder's lease fresh — and the leased reader's next get
/// returns it. (A put through the holder itself passes its own fence:
/// `client::tests::a_put_through_the_holder_neither_waits_nor_ends_its_lease`.)
#[test]
fn a_put_through_a_foreign_node_waits_out_the_holders_grants() {
    let cluster = leased_cluster(FENCE_LEASE.as_micros() as u64);
    let owner = KvClient::new(cluster.clients(), ShardRouter::new(SHARDS)).unwrap();
    let reader = KvClient::new(cluster.clients(), ShardRouter::new(SHARDS)).unwrap();
    let keys = ShardRouter::new(SHARDS).covering_keys("gk-");
    let hot = &keys[0];
    owner.put(hot, version_bytes(1)).unwrap();
    std::thread::sleep(SETTLE);
    let granted_after = Instant::now();
    for _ in 0..2 {
        let got = reader.get(hot).unwrap();
        assert_eq!(got.as_deref(), Some(version_bytes(1).as_slice()));
    }
    assert!(
        reader.stats().lease_hits >= 1,
        "the key must be served under a lease: {:?}",
        reader.stats()
    );

    let home = owner.shard_map().register_for(hot).0 as usize % 3;
    let foreign = cluster.client(ProcessId(((home + 1) % 3) as u16));
    let writer = KvClient::new(vec![foreign], ShardRouter::new(SHARDS)).unwrap();
    writer.put(hot, version_bytes(2)).unwrap();
    // Every replica granted after `granted_after` and holds the put's
    // acknowledgement for the term (plus its slack) from then.
    let done_after = granted_after.elapsed();
    assert!(
        done_after >= FENCE_LEASE,
        "the put must have waited out the holder's grants (done {done_after:?} after them)"
    );
    assert_eq!(
        reader.get(hot).unwrap().as_deref(),
        Some(version_bytes(2).as_slice()),
        "a leased reader must never see past a completed write"
    );
}
