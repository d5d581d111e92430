//! What a multi-key call does that a loop of `get`/`put` does not.
//!
//! **Coalescing**: the inputs of one call that share a register cost one
//! register operation per chunk — one read round answers all its gets,
//! one composite write carries all its puts (last write per key wins),
//! cut only by the transport frame.
//!
//! **The irregular route**, which never coalesces: a batch on an
//! exactly-once client (every entry is a journaled `put`, in input
//! order).
//!
//! **The ambiguous end**: a call every node fails records one crash,
//! after nothing of it is in flight.

use std::time::Duration;

use bytes::Bytes;
use rmem_consistency::Criterion;
use rmem_core::{SharedMemory, Transient};
use rmem_kv::{
    certify_per_key_epoch_path, check_store_exactly_once, codec, KvClient, KvError, OpRecorder,
    ShardRouter,
};
use rmem_net::LocalCluster;
use rmem_storage::{IntentJournal, MemStorage};
use rmem_types::{OpTag, ProcessId};

const SHARDS: u16 = 4;

fn cluster_kv(recorder: &OpRecorder) -> (LocalCluster, KvClient) {
    let cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(SHARDS))
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

/// An unrecorded client over a fresh in-memory cluster.
fn plain_kv(shards: u16) -> (LocalCluster, KvClient) {
    let cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(shards)).unwrap();
    (cluster, kv)
}

/// An unrecorded client over a fresh loopback-UDP cluster (64 KB frames)
/// and the scratch directory to remove afterwards.
fn udp_kv(shards: u16, tag: &str) -> (LocalCluster, KvClient, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("rmem-kv-{tag}-{}", std::process::id()));
    let cluster = LocalCluster::udp(3, SharedMemory::factory(Transient::flavor()), &dir).unwrap();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(shards)).unwrap();
    (cluster, kv, dir)
}

/// `n` entries `{prefix}{i}` → `[i + offset]`.
fn numbered(prefix: &str, n: u8, offset: u8) -> Vec<(String, Bytes)> {
    (0..n)
        .map(|i| (format!("{prefix}{i}"), Bytes::from(vec![i + offset])))
        .collect()
}

fn keys_of(entries: &[(String, Bytes)]) -> Vec<String> {
    entries.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn multi_ops_roundtrip_and_amortize() {
    // 64 keys over 4 shards: every register carries many inputs.
    let (mut cluster, kv) = plain_kv(4);
    let batch = numbered("k", 64, 0);
    kv.multi_put(&batch).unwrap();
    let got = kv.multi_get(&keys_of(&batch)).unwrap();
    for (i, value) in got.iter().enumerate() {
        assert_eq!(value.as_deref(), Some([i as u8].as_ref()), "key k{i}");
    }
    let stats = kv.stats();
    assert_eq!(stats.writes, 4, "one composite write per register");
    assert_eq!(stats.reads, 4, "one read round per register");
    let bundles = kv.metrics().histogram("kv.bundle_size");
    assert_eq!((bundles.count, bundles.sum), (4, 64));
    cluster.shutdown();
}

#[test]
fn same_key_puts_coalesce_to_the_last_value() {
    let (mut cluster, kv) = plain_kv(2);
    let batch: Vec<(&str, Bytes)> = (0..10u8).map(|i| ("hot", Bytes::from(vec![i]))).collect();
    kv.multi_put(&batch).unwrap();
    assert_eq!(
        kv.get("hot").unwrap().as_deref(),
        Some([9u8].as_ref()),
        "last write of the batch wins"
    );
    assert_eq!(kv.stats().writes, 1, "ten same-key puts are one write");
    cluster.shutdown();
}

#[test]
fn colliding_keys_share_a_bundle_and_both_resolve() {
    // One shard: every key collides. A multi_put of distinct keys must
    // store a bundle that serves *both* keys — unlike two puts, where the
    // second displaces the first.
    let (mut cluster, kv) = plain_kv(1);
    kv.multi_put(&[
        ("a", Bytes::from_static(b"1")),
        ("b", Bytes::from_static(b"2")),
    ])
    .unwrap();
    let reads = kv.stats().reads;
    assert_eq!(
        kv.multi_get(&["a", "b", "absent"]).unwrap(),
        [
            Some(Bytes::from_static(b"1")),
            Some(Bytes::from_static(b"2")),
            None
        ]
    );
    assert_eq!(kv.stats().reads - reads, 1, "one round answers all three");
    // A later single put replaces the whole cell (displacement semantics).
    kv.put("c", b"3".to_vec()).unwrap();
    assert_eq!(kv.get("a").unwrap(), None);
    assert_eq!(kv.get("c").unwrap().as_deref(), Some(b"3".as_ref()));
    cluster.shutdown();
}

#[test]
fn batches_survive_a_node_death() {
    let (mut cluster, kv) = plain_kv(8);
    let batch = numbered("d", 24, 0);
    kv.multi_put(&batch).unwrap();
    cluster.kill(rmem_types::ProcessId(1));
    let got = kv.multi_get(&keys_of(&batch)).unwrap();
    for (i, value) in got.iter().enumerate() {
        assert_eq!(
            value.as_deref(),
            Some([i as u8].as_ref()),
            "key d{i} must survive the node death"
        );
    }
    // A chunk homed on the dead node fails over as the same composite
    // write, so every key of the call resolves afterwards.
    kv.multi_put(&numbered("d", 24, 100)).unwrap();
    let got = kv.multi_get(&keys_of(&batch)).unwrap();
    for (i, value) in got.iter().enumerate() {
        assert_eq!(value.as_deref(), Some([i as u8 + 100].as_ref()), "key d{i}");
    }
    cluster.shutdown();
}

#[test]
fn oversized_entries_split_across_write_rounds() {
    // Frame-budget chunking: entries that cannot share one UDP-sized
    // payload must land in separate rounds.
    let (mut cluster, kv, dir) = udp_kv(1, "split");
    // Three 30 KB values: any two fit a 64 KB frame, three do not.
    let batch: Vec<(String, Bytes)> = (0..3u8)
        .map(|i| (format!("big{i}"), Bytes::from(vec![i; 30_000])))
        .collect();
    kv.multi_put(&batch).unwrap();
    assert_eq!(kv.stats().writes, 2, "[big0, big1] then [big2]");
    // The last chunk owns the cell; the earlier chunk's keys were
    // displaced (the store's usual collision semantics).
    let got = kv.multi_get(&keys_of(&batch)).unwrap();
    assert_eq!(got[..2], [None, None]);
    assert_eq!(got[2].as_deref(), Some([2u8; 30_000].as_ref()));
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_entry_over_any_frame_fails_with_too_large() {
    // One shard, so the cuts are exact: [fit0..2], [huge], [fit3..7].
    let (mut cluster, kv, dir) = udp_kv(1, "toolarge");
    let mut batch = numbered("fit", 8, 0);
    batch.insert(3, ("huge".to_string(), Bytes::from(vec![0u8; 80_000])));
    let err = kv.multi_put(&batch).unwrap_err();
    assert!(
        matches!(err, KvError::TooLarge { ref key, size, limit } if key == "huge" && size > limit),
        "expected TooLarge for the one oversized entry, got {err}"
    );
    // Only `huge` failed: the chunks on either side of it were written,
    // and the last one owns the cell.
    assert_eq!(kv.stats().writes, 2);
    let got = kv.multi_get(&keys_of(&batch)).unwrap();
    for (i, (key, value)) in batch.iter().enumerate() {
        assert_eq!(got[i].as_ref(), (i > 3).then_some(value), "{key}");
    }
    // A refused entry supersedes nothing: like `put` then a failing
    // `put`, the key keeps the value that could be sent.
    let twice = [batch[0].clone(), (batch[0].0.clone(), batch[3].1.clone())];
    assert!(matches!(
        kv.multi_put(&twice),
        Err(KvError::TooLarge { .. })
    ));
    assert_eq!(kv.get(&batch[0].0).unwrap().as_ref(), Some(&batch[0].1));
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_exactly_once_batch_settles_through_the_journal_in_input_order() {
    const CLIENT: u16 = 11;
    let recorder = OpRecorder::new();
    let (mut cluster, kv) = cluster_kv(&recorder);
    let journal = IntentJournal::with_storage(Box::new(MemStorage::new())).unwrap();
    let kv = kv.with_exactly_once(CLIENT, journal);
    let keys = ShardRouter::new(SHARDS).covering_keys("x-");
    // A same-key duplicate up front: the later input must win.
    let mut batch = vec![(keys[0].clone(), Bytes::from_static(b"superseded"))];
    batch.extend(entries(&keys, 7));

    kv.multi_put(&batch).unwrap();

    let depth = kv.metrics().histogram("kv.pipeline_depth");
    assert!(depth.count >= batch.len() as u64);
    assert_eq!(depth.sum, depth.count, "journaled writes go one at a time");
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

/// Defect (a) of PRs 14–15: with a majority dead every node attempt of
/// every chunk ends `ProcessDown` or `TimedOut`, so the call fails
/// ambiguously — and must say so once, after its last operation has
/// settled, whatever the number of registers and coalesced inputs.
#[test]
fn a_call_every_node_fails_records_one_crash() {
    let recorder = OpRecorder::new();
    let cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor()));
    let mut cluster = cluster.unwrap();
    let router = ShardRouter::new(8);
    let kv = KvClient::new(cluster.clients(), router)
        .unwrap()
        .with_op_timeout(Duration::from_millis(200))
        .with_recorder(recorder.clone());
    let keys = router.covering_keys("c-");
    let k: Vec<&str> = keys.iter().map(String::as_str).collect();
    let value = |v: u8| Bytes::from(vec![v]);
    kv.multi_put(&entries(&keys, 0)).unwrap();
    cluster.kill(ProcessId(1));
    cluster.kill(ProcessId(2));
    let failed = |outcome: Result<(), KvError>, crashes: usize, pending: usize| {
        assert!(
            matches!(outcome, Err(KvError::Register { .. })),
            "{outcome:?}"
        );
        let history = recorder.history();
        assert_eq!(history.crash_count(), crashes);
        assert_eq!(history.pending_ops().len(), pending, "one per chunk");
        for reg in history.registers() {
            let per_reg = history.restrict_to_register(reg);
            per_reg
                .well_formed()
                .unwrap_or_else(|e| panic!("{reg:?}: {e}"));
        }
    };

    // Two registers, one of them with two inputs: writes, then reads.
    let puts = [(k[0], value(1)), (k[1], value(2)), (k[1], value(3))];
    failed(kv.multi_put(&puts), 1, 2);
    failed(kv.multi_get(&[k[2], k[3], k[3]]).map(drop), 2, 4);
    // Behind the writes the surviving node still holds, the reads wait
    // their turn there — and time out like them: pending, one more crash.
    failed(kv.multi_get(&[k[0], k[1], k[1]]).map(drop), 3, 6);
    certify_per_key_epoch_path(
        &recorder.history(),
        k.iter().copied(),
        &[8],
        Criterion::Transient,
    )
    .unwrap_or_else(|e| panic!("the failed calls left an uncertifiable history: {e}"));

    // A composite write of two keys fails the same way.
    let twin = (0..)
        .map(|n| format!("twin-{n}"))
        .find(|key| router.shard_of(key) == router.shard_of(k[5]))
        .unwrap();
    let puts = [(k[4], value(4)), (k[5], value(5)), (&twin, value(6))];
    failed(kv.multi_put(&puts), 4, 8);
    cluster.shutdown();
}
