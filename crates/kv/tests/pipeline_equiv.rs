//! Depth-1 equivalence: `multi_get`/`multi_put` of one input and
//! `get`/`put` are one client.
//!
//! Since the client became one event loop, `get(k)` *is* `multi_get([k])`
//! (and `put` `multi_put` of one entry): both drive the same `Flight`.
//! This suite pins that nothing between the call and that `Flight` tells
//! them apart:
//!
//! * 12 seeds of mixed reader/writer threads, each seed run twice — once
//!   through one-input `multi_*` calls, once through `get`/`put` — and
//!   **both** recorded histories must certify per key;
//! * a quiescent twin (single client, settled ops), hosted in virtual time
//!   by `rmem_kv::run_hosted`, must produce **identical** `KvOpStats`
//!   round counts on both paths — same reads, same writes, same quorum
//!   rounds, every read on the fast path. Virtual time is exact: no
//!   retransmission fires because a loaded host was slow to answer;
//! * the fast-read fraction of the concurrent sweep must be preserved
//!   across the two drives.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_consistency::Criterion;
use rmem_core::{SharedMemory, Transient};
use rmem_kv::{
    certify_per_key_epoch_path, run_hosted, KvClient, KvOpStats, OpRecorder, Script, ShardRouter,
};
use rmem_net::LocalCluster;
use rmem_sim::{ClusterConfig, KeyDistribution, Simulation};

const SHARDS: u16 = 16;
const TRAFFIC_THREADS: u64 = 3;
const OPS_PER_THREAD: usize = 40;

/// Which calls drive the workload's ops.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Drive {
    /// `multi_get(&[key])` / `multi_put(&[(key, value)])`: one-input
    /// batches.
    PipelinedDepth1,
    /// `get(key)` / `put(key, value)`.
    Blocking,
}

fn cluster_kv(recorder: &OpRecorder) -> (LocalCluster, KvClient) {
    let cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(SHARDS))
        .unwrap()
        .with_recorder(recorder.clone());
    (cluster, kv)
}

fn do_put(kv: &KvClient, drive: Drive, key: &str, value: Vec<u8>) {
    match drive {
        Drive::PipelinedDepth1 => kv
            .multi_put(&[(key, bytes::Bytes::from(value))])
            .expect("depth-1 pipelined put must complete"),
        Drive::Blocking => kv.put(key, value).expect("blocking put must complete"),
    }
}

fn do_get(kv: &KvClient, drive: Drive, key: &str) -> Option<bytes::Bytes> {
    match drive {
        Drive::PipelinedDepth1 => kv
            .multi_get(&[key])
            .expect("depth-1 pipelined get must complete")
            .pop()
            .expect("one key in, one slot out"),
        Drive::Blocking => kv.get(key).expect("blocking get must complete"),
    }
}

/// One seeded concurrent run under `drive`: preload, mixed Zipf traffic
/// from several threads, then per-key certification of the recorded
/// history. Returns the run's op stats.
fn run_concurrent_seed(seed: u64, drive: Drive) -> KvOpStats {
    let recorder = OpRecorder::new();
    let (mut cluster, kv) = cluster_kv(&recorder);
    let keys = kv.router().covering_keys("eq-");
    for (i, key) in keys.iter().enumerate() {
        do_put(&kv, drive, key, vec![0, i as u8]);
    }

    std::thread::scope(|scope| {
        for t in 0..TRAFFIC_THREADS {
            let client = kv.recorded_clone();
            let keys = &keys;
            let mut rng = StdRng::seed_from_u64(seed * 131 + t);
            scope.spawn(move || {
                let dist = KeyDistribution::zipf(keys.len(), 0.99);
                let mut counter = 0u64;
                for _ in 0..OPS_PER_THREAD {
                    let key = &keys[dist.sample(&mut rng)];
                    if rng.gen_bool(0.5) {
                        counter += 1;
                        // Unique (thread, counter) values give the
                        // certifier discriminating power.
                        let value = ((t + 1) << 32 | counter).to_be_bytes().to_vec();
                        do_put(&client, drive, key, value);
                    } else {
                        do_get(&client, drive, key);
                    }
                    std::thread::sleep(Duration::from_micros(rng.gen_range(0..300)));
                }
            });
        }
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
        panic!("seed {seed} ({drive:?}): certification failed: {e}")
    });
    let stats = kv.stats();
    cluster.shutdown();
    stats
}

/// The 12-seed sweep: every seed certifies under both engines, and the
/// aggregate fast-read fraction is preserved across them.
#[test]
fn sweep_depth1_matches_blocking_and_certifies() {
    let mut agg = [KvOpStats::default(), KvOpStats::default()];
    for seed in 0..12u64 {
        for (slot, drive) in [Drive::PipelinedDepth1, Drive::Blocking]
            .into_iter()
            .enumerate()
        {
            let stats = run_concurrent_seed(seed, drive);
            assert!(
                stats.reads > 0 && stats.writes > 0,
                "seed {seed} ({drive:?}): traffic must have flowed"
            );
            agg[slot].reads += stats.reads;
            agg[slot].read_rounds += stats.read_rounds;
            agg[slot].fast_reads += stats.fast_reads;
            agg[slot].writes += stats.writes;
            agg[slot].write_rounds += stats.write_rounds;
        }
    }
    let [pipelined, blocking] = agg;
    assert!(
        pipelined.fast_reads > 0 && blocking.fast_reads > 0,
        "both engines must exercise the fast path"
    );
    let drift = (pipelined.fast_read_fraction() - blocking.fast_read_fraction()).abs();
    assert!(
        drift < 0.2,
        "depth-1 pipelining must preserve the fast-read fraction: \
         pipelined {:.3} vs blocking {:.3}",
        pipelined.fast_read_fraction(),
        blocking.fast_read_fraction()
    );
}

/// The quiescent twin: one hosted client's settled op sequence must yield
/// **identical** round counts through both drives — same number of
/// recorded reads/writes, same quorum rounds, and every read on the
/// fast path (32 of 32).
#[test]
fn quiescent_twin_has_identical_round_counts() {
    let mut outcomes = Vec::new();
    for drive in [Drive::PipelinedDepth1, Drive::Blocking] {
        let recorder = OpRecorder::new();
        let router = ShardRouter::new(SHARDS);
        let keys = router.covering_keys("tw-");
        let flavor = SharedMemory::factory(Transient::flavor());
        let sim = Simulation::new(ClusterConfig::new(3), flavor, 7);
        let mut family = None;
        run_hosted(sim, |world| {
            let kv = family
                .insert(KvClient::over(world.clone(), router).with_recorder(recorder.clone()));
            let (kv, keys) = (kv.recorded_clone(), &keys);
            vec![Box::new(move || {
                for (i, key) in keys.iter().enumerate() {
                    do_put(&kv, drive, key, vec![i as u8; 8]);
                    // Settle: the propagate round finishes everywhere, so
                    // the following reads deterministically fast-path.
                    world.wait_any(&[], world.now() + Duration::from_millis(5));
                    assert_eq!(
                        do_get(&kv, drive, key).as_deref(),
                        Some(vec![i as u8; 8].as_slice()),
                        "{drive:?}: the settled read must observe the write"
                    );
                    assert!(do_get(&kv, drive, key).is_some());
                }
            }) as Script]
        });
        let kv = family.expect("built by the setup");
        certify_per_key_epoch_path(
            &recorder.history(),
            keys.iter().map(String::as_str),
            &[SHARDS],
            Criterion::Transient,
        )
        .unwrap_or_else(|e| panic!("{drive:?}: quiescent twin failed certification: {e}"));
        let stats = kv.stats();
        assert_eq!(
            (stats.fast_reads, stats.reads),
            (32, 32),
            "{drive:?}: every quiescent read must take the fast path"
        );
        outcomes.push(stats);
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "the quiescent twin must produce identical op stats through both \
         drives"
    );
}

/// Same-key duplicates in one batch (its reads below stay single-key):
/// the entries of one key coalesce into one register write carrying the
/// last input, so eight entries over three keys cost three writes where
/// the blocking twin pays eight — and nothing else differs: same reads,
/// same rounds per operation, no retries, both histories certified.
#[test]
fn duplicate_keys_in_a_batch_coalesce_to_the_last_input_per_key() {
    let mut outcomes = Vec::new();
    for drive in [Drive::PipelinedDepth1, Drive::Blocking] {
        let recorder = OpRecorder::new();
        let (mut cluster, kv) = cluster_kv(&recorder);
        let keys = kv.router().covering_keys("dup-");
        // Eight entries over three keys, duplicates interleaved.
        let batch: Vec<(&str, bytes::Bytes)> = [0, 1, 0, 2, 1, 0, 2, 0]
            .iter()
            .enumerate()
            .map(|(i, &k)| (keys[k].as_str(), bytes::Bytes::from(vec![k as u8, i as u8])))
            .collect();
        match drive {
            Drive::PipelinedDepth1 => kv.multi_put(&batch).expect("the batch must complete"),
            Drive::Blocking => batch
                .iter()
                .for_each(|(key, value)| kv.put(key, value.clone()).expect("put must complete")),
        }
        std::thread::sleep(Duration::from_millis(5));
        for (k, last_input) in [(0u8, 7u8), (1, 4), (2, 6)] {
            assert_eq!(
                do_get(&kv, drive, &keys[k as usize]).as_deref(),
                Some([k, last_input].as_ref()),
                "{drive:?}: the last input for key {k} must win"
            );
        }
        certify_per_key_epoch_path(
            &recorder.history(),
            keys.iter().map(String::as_str),
            &[SHARDS],
            Criterion::Transient,
        )
        .unwrap_or_else(|e| panic!("{drive:?}: duplicate batch failed certification: {e}"));
        outcomes.push(kv.stats());
        cluster.shutdown();
    }
    let [coalesced, blocking] = outcomes[..] else {
        unreachable!("two drives");
    };
    assert_eq!((coalesced.writes, blocking.writes), (3, 8));
    assert_eq!(coalesced.write_rounds * 8, blocking.write_rounds * 3);
    assert_eq!(
        KvOpStats {
            writes: 0,
            write_rounds: 0,
            ..coalesced
        },
        KvOpStats {
            writes: 0,
            write_rounds: 0,
            ..blocking
        },
        "beyond the coalesced writes, the batch must cost what its blocking twin costs"
    );
}
