//! Pipeline fault handling: timeouts, cancellation, and kill/recover
//! schedules against the event-driven client core.
//!
//! Three layers of assurance:
//!
//! 1. **abandonment** — a cancelled in-flight op's slot and scratch
//!    buffer are reclaimed immediately, its eventual ack is counted
//!    late and never delivered to the slot's next tenant;
//! 2. **dead-node failover** — a batch whose home node is down still
//!    completes at the registers' next nodes, firing `kv.retries`, and
//!    the recorded history certifies;
//! 3. **kill/recover mid-pipeline** — seeded [`FaultSchedule`] crash
//!    windows under concurrent batched traffic: no wedged waiter, no
//!    barrier deadlock, every surviving history certifies per key.
//!    Failures dump the per-node flight recorders and the client's own
//!    timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_consistency::Criterion;
use rmem_core::{SharedMemory, Transient};
use rmem_kv::{certify_per_key_epoch_path, KvClient, KvError, OpRecorder, ShardRouter};
use rmem_net::{FaultSchedule, LocalCluster, PipelinedClient};
use rmem_types::{OpResult, ProcessId, RegisterId, Value};

const SHARDS: u16 = 8;
const TRAFFIC_THREADS: u64 = 3;
const OPS_PER_THREAD: usize = 30;

/// Cancelling an in-flight op reclaims its slot at once; the zombie ack
/// is dropped and counted, and the reused slot's new tenant is
/// untouched.
#[test]
fn cancelled_op_reclaims_slot_and_drops_late_ack() {
    let mut cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let fan = PipelinedClient::fan(&cluster.clients());

    // Submit a write, then abandon it before draining any completion:
    // the slot and its scratch buffer go back to the free list now.
    let abandoned = fan
        .submit_write(0, RegisterId(0), Value::from_u32(7))
        .unwrap();
    assert_eq!(fan.in_flight(), 1);
    assert!(fan.cancel(abandoned), "an in-flight op must be cancellable");
    assert_eq!(fan.in_flight(), 0, "cancel must reclaim the slot now");
    assert!(!fan.cancel(abandoned), "double cancel must be a no-op");

    // A new tenant takes the reclaimed slot. The abandoned op's ack, when
    // the runner routes it, must be counted late, not delivered to the
    // tenant.
    let tenant = fan.submit_read(1, RegisterId(1)).unwrap();
    let (result, _) = fan.wait(tenant).expect("the new tenant must complete");
    assert!(
        matches!(result, OpResult::ReadValue(_)),
        "tenant claimed a foreign result: {result:?}"
    );
    assert_eq!(fan.in_flight(), 0);

    // The abandoned write still executed server-side: the cancel
    // abandoned the *claim*, not the quorum op. This read targets the
    // same node and register, so the runner queues it behind the write:
    // it routes the write's ack — counted late, delivered nowhere —
    // before it admits the check read.
    let check = fan.submit_read(0, RegisterId(0)).unwrap();
    let (result, _) = fan.wait(check).expect("the check read must complete");
    assert_eq!(result, OpResult::ReadValue(Value::from_u32(7)));
    assert_eq!(
        fan.late_acks(),
        1,
        "the abandoned op's ack must be counted late"
    );
    cluster.shutdown();
}

/// A batch whose home node is dead still completes: the driver moves
/// each affected operation to its register's next node, `kv.retries`
/// fires, the health memory steers later submissions away, and the
/// recorded history certifies.
#[test]
fn dead_node_mid_pipeline_falls_back_and_fires_retries() {
    let mut cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let recorder = OpRecorder::new();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(SHARDS))
        .unwrap()
        .with_op_timeout(Duration::from_millis(200))
        .with_recorder(recorder.clone());
    let keys = kv.router().covering_keys("pf-");

    let seed: Vec<(&str, bytes::Bytes)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.as_str(), bytes::Bytes::from(vec![1, i as u8])))
        .collect();
    kv.multi_put(&seed).expect("preload batch must complete");

    // Kill one node: a third of the shard homes now point at a corpse.
    cluster.kill(ProcessId(1));

    let got = kv
        .multi_get(&keys.iter().map(String::as_str).collect::<Vec<_>>())
        .expect("a dead minority must not fail the batch");
    for (i, value) in got.iter().enumerate() {
        assert_eq!(
            value.as_deref(),
            Some([1, i as u8].as_slice()),
            "key {} lost its value to the failover",
            keys[i]
        );
    }
    assert!(
        kv.metrics().counter("kv.retries") > 0,
        "the dead node must have cost at least one retry"
    );

    // Writes through the same outage: failover again.
    let rewrite: Vec<(&str, bytes::Bytes)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.as_str(), bytes::Bytes::from(vec![2, i as u8])))
        .collect();
    kv.multi_put(&rewrite)
        .expect("writes must survive a dead minority");

    // Recover the node; the next batches run clean.
    cluster.restart(ProcessId(1)).unwrap();
    let got = kv
        .multi_get(&keys.iter().map(String::as_str).collect::<Vec<_>>())
        .expect("post-recovery batch must complete");
    for (i, value) in got.iter().enumerate() {
        assert_eq!(value.as_deref(), Some([2, i as u8].as_slice()));
    }

    certify_per_key_epoch_path(
        &recorder.history(),
        keys.iter().map(String::as_str),
        &[SHARDS],
        Criterion::Transient,
    )
    .unwrap_or_else(|e| {
        eprintln!("{}", cluster.dump_flight_recorders(120));
        eprintln!("--- client flight recorder ---");
        eprintln!("{}", kv.flight_recorder().dump_timeline(120));
        panic!("certification failed across the outage: {e}")
    });
    cluster.shutdown();
}

/// One seeded kill/recover run: batched pipelined traffic from several
/// threads while a [`FaultSchedule`] crashes and revives a minority
/// node mid-pipeline. Returns (completed, ambiguous) op counts.
fn run_kill_recover_seed(seed: u64) -> (u64, u64) {
    let mut cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let recorder = OpRecorder::new();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(SHARDS))
        .unwrap()
        .with_op_timeout(Duration::from_millis(300))
        .with_health_cooldown(Duration::from_secs(2))
        .with_recorder(recorder.clone());
    let keys = kv.router().covering_keys("kr-");
    for (i, key) in keys.iter().enumerate() {
        kv.put(key, vec![0, i as u8]).unwrap();
    }

    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
    let victim = ProcessId(rng.gen_range(0..3));
    let kill_at = Duration::from_millis(rng.gen_range(5..30));
    let down_for = Duration::from_millis(rng.gen_range(20..60));
    let schedule = FaultSchedule::new().crash_for(kill_at, victim, down_for);

    let completed = AtomicU64::new(0);
    let ambiguous = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for t in 0..TRAFFIC_THREADS {
            let client = kv.recorded_clone();
            let keys = &keys;
            let completed = &completed;
            let ambiguous = &ambiguous;
            let mut rng = StdRng::seed_from_u64(seed * 67 + t);
            scope.spawn(move || {
                let mut counter = 0u64;
                for _ in 0..OPS_PER_THREAD {
                    // Batches of 2–4 distinct keys keep several shard
                    // queues in flight at once — the pipelined path.
                    let batch = rng.gen_range(2..=4usize).min(keys.len());
                    let start = rng.gen_range(0..keys.len());
                    let picked: Vec<&str> = (0..batch)
                        .map(|j| keys[(start + j) % keys.len()].as_str())
                        .collect();
                    let outcome = if rng.gen_bool(0.5) {
                        counter += 1;
                        let puts: Vec<(&str, bytes::Bytes)> = picked
                            .iter()
                            .map(|k| {
                                let value = ((t + 1) << 32 | counter).to_be_bytes().to_vec();
                                (*k, bytes::Bytes::from(value))
                            })
                            .collect();
                        client.multi_put(&puts)
                    } else {
                        client.multi_get(&picked).map(|_| ())
                    };
                    match outcome {
                        Ok(()) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(KvError::Barrier { key, shard }) => {
                            panic!("seed {seed}: barrier deadlocked on {key:?} (shard {shard})")
                        }
                        // Ambiguous failures under the crash window are
                        // legal: the recorder keeps them pending.
                        Err(_) => {
                            ambiguous.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    std::thread::sleep(Duration::from_micros(rng.gen_range(0..300)));
                }
            });
        }
        let cluster = &mut cluster;
        scope.spawn(move || {
            schedule.run(cluster).unwrap();
        });
    });

    let history = recorder.history();
    certify_per_key_epoch_path(
        &history,
        keys.iter().map(String::as_str),
        &[SHARDS],
        Criterion::Transient,
    )
    .unwrap_or_else(|e| {
        eprintln!("{}", cluster.dump_flight_recorders(120));
        eprintln!("--- client flight recorder ---");
        eprintln!("{}", kv.flight_recorder().dump_timeline(120));
        panic!("seed {seed}: certification failed under kill/recover: {e}")
    });

    // Post-recovery: every key still serves through the batch path.
    let survivors = kv
        .multi_get(&keys.iter().map(String::as_str).collect::<Vec<_>>())
        .expect("post-schedule batch must complete");
    assert!(
        survivors.iter().all(Option::is_some),
        "seed {seed}: a preloaded key vanished"
    );

    let out = (
        completed.load(Ordering::Relaxed),
        ambiguous.load(Ordering::Relaxed),
    );
    cluster.shutdown();
    out
}

/// The seeded kill/recover sweep: every run completes (no wedged
/// waiter — `thread::scope` returning *is* the assertion), most ops
/// succeed, and every history certifies.
#[test]
fn sweep_kill_recover_mid_pipeline() {
    let mut total_completed = 0;
    let mut total_ambiguous = 0;
    for seed in 0..6 {
        let (completed, ambiguous) = run_kill_recover_seed(seed);
        assert!(
            completed >= (TRAFFIC_THREADS * OPS_PER_THREAD as u64) / 2,
            "seed {seed}: most batches must complete (got {completed})"
        );
        total_completed += completed;
        total_ambiguous += ambiguous;
    }
    println!("kill/recover sweep: {total_completed} completed, {total_ambiguous} ambiguous");
}
