//! Migration fault injection: concurrent get/put traffic during a live
//! 4 → 8 shard split, with crash schedules that kill and recover a
//! minority mid-migration. Every run is recorded and must pass
//! **cross-epoch per-key certification** (`certify_per_key_epoch_path`), and
//! the write barrier must never deadlock: every operation either
//! completes or fails with a definite non-barrier error within its
//! bounded wait.
//!
//! The sweep runs ≥ 12 seeds; each seed varies the Zipf traffic, the
//! victim node, the crash timing relative to the split, and the outage
//! length. CI additionally runs `single_seed_smoke` as its own step.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_consistency::Criterion;
use rmem_core::{SharedMemory, Transient};
use rmem_kv::{certify_per_key_epoch_path, KvClient, KvError, OpRecorder, ShardRouter};
use rmem_net::{FaultSchedule, LocalCluster};
use rmem_sim::KeyDistribution;
use rmem_types::ProcessId;

const OLD_SHARDS: u16 = 4;
const NEW_SHARDS: u16 = 8;
const TRAFFIC_THREADS: u64 = 3;
const OPS_PER_THREAD: usize = 50;

/// Debug aid: prints a recorded history with decoded payload summaries.
fn dump_history(history: &rmem_consistency::History) {
    use rmem_consistency::Event;
    use rmem_types::{Op, OpResult};
    let summarize = |v: &rmem_types::Value| -> String {
        if v.is_bottom() {
            return "⊥".into();
        }
        if rmem_kv::codec::is_seal(v) {
            return format!("seal(e{})", rmem_kv::codec::payload_epoch(v).unwrap_or(255));
        }
        match rmem_kv::codec::decode_entries(v) {
            Some(entries) => entries
                .iter()
                .map(|(k, val)| {
                    format!(
                        "{k}={:02x?}(e{})",
                        &val[..val.len().min(8)],
                        rmem_kv::codec::payload_epoch(v).unwrap_or(255)
                    )
                })
                .collect::<Vec<_>>()
                .join(","),
            None => format!("raw:{:02x?}", &v.bytes()[..v.bytes().len().min(6)]),
        }
    };
    for (i, event) in history.events().iter().enumerate() {
        match event {
            Event::Invoke { op, operation } => match operation {
                Op::WriteAt(reg, v) => eprintln!("{i:4} {op:?} W {reg} {}", summarize(v)),
                Op::ReadAt(reg) => eprintln!("{i:4} {op:?} R {reg}"),
                other => eprintln!("{i:4} {op:?} {other:?}"),
            },
            Event::Reply { op, result } => match result {
                OpResult::ReadValue(v) => eprintln!("{i:4} {op:?} -> {}", summarize(v)),
                other => eprintln!("{i:4} {op:?} -> {other:?}"),
            },
            Event::Crash { pid } => eprintln!("{i:4} CRASH {pid}"),
            Event::Recover { pid } => eprintln!("{i:4} RECOVER {pid}"),
        }
    }
}

struct RunOutcome {
    completed: u64,
    ambiguous: u64,
    barrier_waits: u64,
    barrier_polls: u64,
}

/// One seeded run: preload → concurrent Zipf traffic + minority crash
/// schedule + mid-run 4→8 grow → cross-epoch certification.
fn run_seed(seed: u64) -> RunOutcome {
    let mut cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let recorder = OpRecorder::new();
    // Patience well below the health cooldown: the first op to hit the
    // dead node pays one timeout and marks it for everyone; the barrier
    // budget covers a couple of timeouts' worth of migration stall.
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(OLD_SHARDS))
        .unwrap()
        .with_op_timeout(Duration::from_millis(300))
        .with_health_cooldown(Duration::from_secs(2))
        .with_barrier_polls(4_096)
        .with_recorder(recorder.clone());

    // One key per pre-split shard: injective under both epochs (linear
    // hashing preserves injectivity across a split), which is what lets
    // the per-register certificates read as per-key ones.
    let keys = ShardRouter::new(OLD_SHARDS).covering_keys("rk-");
    for (i, key) in keys.iter().enumerate() {
        kv.put(key, vec![0, i as u8]).unwrap();
    }

    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
    // The crash schedule: kill one of the three nodes (a minority) in a
    // window overlapping the split, recover it before the run ends.
    let victim = ProcessId(rng.gen_range(0..3));
    let kill_at = Duration::from_millis(rng.gen_range(5..35));
    let down_for = Duration::from_millis(rng.gen_range(20..60));
    let grow_at = Duration::from_millis(rng.gen_range(10..30));
    let schedule = FaultSchedule::new().crash_for(kill_at, victim, down_for);

    let completed = AtomicU64::new(0);
    let ambiguous = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Traffic: closed-loop clients with Zipf-skewed key popularity.
        for t in 0..TRAFFIC_THREADS {
            let client = kv.recorded_clone();
            let keys = &keys;
            let completed = &completed;
            let ambiguous = &ambiguous;
            let mut rng = StdRng::seed_from_u64(seed * 31 + t);
            scope.spawn(move || {
                let dist = KeyDistribution::zipf(keys.len(), 0.99);
                let mut counter = 0u64;
                for _ in 0..OPS_PER_THREAD {
                    let key = &keys[dist.sample(&mut rng)];
                    let outcome = if rng.gen_bool(0.5) {
                        counter += 1;
                        // Unique values give the certifier discriminating
                        // power: (thread, counter) tags.
                        let value = ((t + 1) << 32 | counter).to_be_bytes().to_vec();
                        client.put(key, value).map(|_| ())
                    } else {
                        client.get(key).map(|_| ())
                    };
                    match outcome {
                        Ok(()) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        // The bounded-wait assertion: a barrier that never
                        // cleared would surface here and fail the run.
                        Err(KvError::Barrier { key, shard }) => {
                            panic!(
                                "seed {seed}: write barrier deadlocked on {key:?} (shard {shard})"
                            )
                        }
                        // Ambiguous failures (node died under the op after
                        // failover) are legal — the recorder stores them as
                        // pending-plus-crash, exactly the model's story.
                        Err(_) => {
                            ambiguous.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    std::thread::sleep(Duration::from_micros(rng.gen_range(0..300)));
                }
            });
        }
        // The migration driver: a live 4 → 8 split mid-traffic.
        let grower = kv.recorded_clone();
        scope.spawn(move || {
            std::thread::sleep(grow_at);
            let report = grower.grow(NEW_SHARDS).unwrap();
            assert_eq!(report.epoch, 1);
            assert_eq!(report.to_shards, NEW_SHARDS);
        });
        // The adversary: kill + recover the victim on the clock.
        let cluster = &mut cluster;
        scope.spawn(move || {
            schedule.run(cluster).unwrap();
        });
    });

    // The split committed despite the crash.
    let map = kv.shard_map();
    assert!(
        !map.is_migrating(),
        "seed {seed}: split must have committed"
    );
    assert_eq!(map.shards, NEW_SHARDS);
    assert_eq!(map.epoch, 1);

    // Cross-epoch per-key certification: the correctness oracle.
    let history = recorder.history();
    let cert = certify_per_key_epoch_path(
        &history,
        keys.iter().map(String::as_str),
        &[OLD_SHARDS, NEW_SHARDS],
        Criterion::Transient,
    )
    .unwrap_or_else(|e| {
        dump_history(&history);
        // The per-node flight recorders: what each runner actually did
        // (rounds, store queue→durable, group commits) around the
        // violation — evidence the decoded history alone cannot carry.
        eprintln!("{}", cluster.dump_flight_recorders(120));
        eprintln!("--- client flight recorder ---");
        eprintln!("{}", kv.flight_recorder().dump_timeline(120));
        // The stitched causal view: node rings + client ring merged into
        // per-op timelines with clock skew corrected — shows *which hop*
        // of which op went wrong, not just what each node saw locally.
        eprintln!(
            "{}",
            cluster.dump_stitched(kv.trace_ring_dump().into_iter().collect(), 5)
        );
        panic!("seed {seed}: cross-epoch certification failed: {e}")
    });
    assert_eq!(
        cert.per_key.len(),
        keys.len(),
        "seed {seed}: every key must be certified"
    );

    // Post-split sanity: every key serves, and new writes stick.
    for key in &keys {
        kv.put(key, b"final".to_vec()).unwrap();
        assert_eq!(kv.get(key).unwrap().as_deref(), Some(b"final".as_ref()));
    }

    let stats = kv.stats();
    RunOutcome {
        completed: completed.load(Ordering::Relaxed),
        ambiguous: ambiguous.load(Ordering::Relaxed),
        barrier_waits: stats.barrier_waits,
        barrier_polls: stats.barrier_polls,
    }
}

/// The CI smoke: one full seeded run (fault schedule + live split +
/// cross-epoch certification).
#[test]
fn single_seed_smoke() {
    let outcome = run_seed(0);
    assert!(
        outcome.completed > 0,
        "traffic must have flowed through the split"
    );
}

/// The seeded sweep: ≥ 12 seeds of concurrent traffic, minority crash
/// schedules and live splits — all certified, none deadlocked.
#[test]
fn sweep_reshard_under_faults() {
    let mut total_completed = 0;
    let mut total_ambiguous = 0;
    let mut total_barrier_waits = 0;
    let mut total_barrier_polls = 0;
    for seed in 1..=12 {
        let outcome = run_seed(seed);
        assert!(
            outcome.completed >= (TRAFFIC_THREADS * OPS_PER_THREAD as u64) / 2,
            "seed {seed}: most operations must complete (got {})",
            outcome.completed
        );
        total_completed += outcome.completed;
        total_ambiguous += outcome.ambiguous;
        total_barrier_waits += outcome.barrier_waits;
        total_barrier_polls += outcome.barrier_polls;
    }
    // Bounded wait, quantified across the sweep: barriered writers poll
    // the seal a handful of times, not anywhere near the failure cap
    // (every run above already proved none *hit* the cap).
    if total_barrier_waits > 0 {
        let mean_polls = total_barrier_polls as f64 / total_barrier_waits as f64;
        assert!(
            mean_polls < 64.0,
            "barriered writers should clear in a few polls, got mean {mean_polls:.1}"
        );
    }
    println!(
        "sweep: {total_completed} completed, {total_ambiguous} ambiguous, \
         {total_barrier_waits} barrier waits ({total_barrier_polls} polls)"
    );
}

/// ROADMAP defect (f), in four calls and no race: writes are blind
/// (`Written` carries no epoch stamp), so a client family whose cached map
/// predates **another** family's committed split keeps writing a moved
/// key's old home, over the seal — its put is acknowledged and lost to
/// everyone routing under the new map. Readers self-heal on a foreign
/// stamp; a writer is guarded only by its own family's cache (which the
/// migrating family shares with its clones — the only shape every other
/// suite here runs). Asserts the correct behaviour; un-ignore with the fix.
#[test]
#[ignore = "ROADMAP defect (f)"]
fn a_put_after_another_familys_committed_split_is_not_lost() {
    let mut cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let a = KvClient::new(cluster.clients(), ShardRouter::new(OLD_SHARDS)).unwrap();
    let b = KvClient::new(cluster.clients(), ShardRouter::new(OLD_SHARDS)).unwrap();
    let moves = |k: &&String| {
        ShardRouter::new(OLD_SHARDS).shard_of(k) != ShardRouter::new(NEW_SHARDS).shard_of(k)
    };
    let keys = ShardRouter::new(OLD_SHARDS).covering_keys("rk-");
    let key = keys.iter().find(moves).expect("a 4 → 8 split moves a key");

    a.put(key, b"v1".to_vec()).unwrap();
    b.grow(NEW_SHARDS).unwrap();
    a.put(key, b"v2".to_vec()).unwrap();
    assert_eq!(
        b.get(key).unwrap().as_deref(),
        Some(b"v2".as_ref()),
        "an acknowledged put must be visible to every client (a's epoch: {})",
        a.epoch()
    );
    assert_eq!(a.get(key).unwrap().as_deref(), Some(b"v2".as_ref()));
    cluster.shutdown();
}
