//! The two irregular routes of a multi-key call, which no other suite
//! drives: a batch issued **while a split is migrating** (barriered keys
//! settle through the blocking path, every other key stays pipelined) and
//! a batch on an **exactly-once** client (every entry settles through the
//! journaled `put`, in input order).

use std::time::{Duration, Instant};

use bytes::Bytes;
use rmem_consistency::Criterion;
use rmem_core::{SharedMemory, Transient};
use rmem_kv::{
    certify_per_key_epoch_path, check_store_exactly_once, codec, KvClient, OpRecorder, ShardMap,
    ShardRouter, CONFIG_REGISTER,
};
use rmem_net::LocalCluster;
use rmem_storage::{IntentJournal, MemStorage};
use rmem_types::OpTag;

const OLD_SHARDS: u16 = 4;
/// 4 → 6 splits shards 0 and 1 only: shards 2 and 3 keep their keys, so
/// a covering key set is half barriered, half not.
const NEW_SHARDS: u16 = 6;

fn cluster_kv(recorder: &OpRecorder) -> (LocalCluster, KvClient) {
    let cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(OLD_SHARDS))
        .unwrap()
        .with_recorder(recorder.clone());
    (cluster, kv)
}

fn entries(keys: &[String], version: u8) -> Vec<(String, Bytes)> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), Bytes::from(vec![version, i as u8])))
        .collect()
}

fn depth_samples(kv: &KvClient) -> u64 {
    kv.metrics().histogram("kv.pipeline_depth").count
}

#[test]
fn a_mid_split_batch_pipelines_every_key_not_behind_the_barrier() {
    let recorder = OpRecorder::new();
    let (mut cluster, kv) = cluster_kv(&recorder);
    let keys = ShardRouter::new(OLD_SHARDS).covering_keys("m-");
    kv.multi_put(&entries(&keys, 0)).unwrap();

    // A driver publishes the split and dies before migrating anything.
    let migrating = ShardMap::genesis(OLD_SHARDS).split_to(NEW_SHARDS);
    cluster.clients()[0]
        .write_at(CONFIG_REGISTER, migrating.encode())
        .unwrap();
    assert!(kv.refresh_map().unwrap());
    assert_eq!(kv.shard_map(), migrating);
    let open = keys.iter().filter(|k| !migrating.is_barriered(k)).count() as u64;
    assert_eq!(
        open, 2,
        "4 → 6 leaves two covering keys outside the barrier"
    );

    // Reads: the barriered keys take old-home-then-new-home on the
    // blocking path, the other two ride the pipeline — one depth sample
    // per pipelined op.
    let before = depth_samples(&kv);
    let got = kv.multi_get(&keys).unwrap();
    for (i, value) in got.iter().enumerate() {
        assert_eq!(value.as_deref(), Some([0, i as u8].as_ref()), "{}", keys[i]);
    }
    assert_eq!(depth_samples(&kv) - before, open);

    // Writes: the barriered entries park on the write barrier until a
    // rescuer seals their shards; the other two were pipelined already.
    let before = depth_samples(&kv);
    let rescuer = kv.recorded_clone();
    let batch = entries(&keys, 1);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| kv.multi_put(&batch));
        let deadline = Instant::now() + Duration::from_secs(10);
        while kv.stats().barrier_waits == 0 {
            assert!(Instant::now() < deadline, "no write reached the barrier");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(depth_samples(&kv) - before, open);
        assert!(rescuer.finish_split().unwrap());
        writer
            .join()
            .unwrap()
            .expect("barriered writes finish once sealed");
    });
    assert_eq!(kv.shard_map(), migrating.committed());

    let got = kv.multi_get(&keys).unwrap();
    for (i, value) in got.iter().enumerate() {
        assert_eq!(value.as_deref(), Some([1, i as u8].as_ref()), "{}", keys[i]);
    }
    certify_per_key_epoch_path(
        &recorder.history(),
        keys.iter().map(String::as_str),
        &[OLD_SHARDS, NEW_SHARDS],
        Criterion::Transient,
    )
    .unwrap_or_else(|e| panic!("mid-split multi-key run failed certification: {e}"));
    cluster.shutdown();
}

#[test]
fn an_exactly_once_batch_settles_through_the_journal_in_input_order() {
    const CLIENT: u16 = 11;
    let recorder = OpRecorder::new();
    let (mut cluster, kv) = cluster_kv(&recorder);
    let journal = IntentJournal::with_storage(Box::new(MemStorage::new())).unwrap();
    let kv = kv.with_exactly_once(CLIENT, journal);
    let keys = ShardRouter::new(OLD_SHARDS).covering_keys("x-");
    // A same-key duplicate up front: the later input must win.
    let mut batch = vec![(keys[0].clone(), Bytes::from_static(b"superseded"))];
    batch.extend(entries(&keys, 7));

    kv.multi_put(&batch).unwrap();

    assert_eq!(depth_samples(&kv), 0, "journaled writes never pipeline");
    assert!(kv.pending_intents().is_empty(), "acked ops are tombstoned");
    for (i, key) in keys.iter().enumerate() {
        // Tags are allocated as entries settle: input order, so key `i`
        // landed last under sequence number `i + 1`.
        let payload = kv.raw_read(kv.shard_map().register_for(key), key).unwrap();
        assert_eq!(
            codec::payload_op_tag(&payload),
            Some(OpTag::new(CLIENT, i as u64 + 1)),
            "{key}"
        );
        assert_eq!(
            codec::value_for_key(&payload, key).as_deref(),
            Some([7, i as u8].as_ref())
        );
    }
    let report = check_store_exactly_once(&recorder.history()).expect("no duplicate application");
    assert_eq!(report.logical_ops, batch.len() as u64);
    assert_eq!(report.retries, 0);
    cluster.shutdown();
}
