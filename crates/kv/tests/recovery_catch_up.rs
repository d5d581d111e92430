//! Recovery catch-up on the real runtime: a restarted node re-learns
//! every register it knows from a majority before it serves, so the
//! reads that follow a restart stay on the one-round fast path — whoever
//! coordinates them, whichever replicas answer first.
//!
//! Without the catch-up the node below recovers two puts behind on every
//! register: each read it coordinates disagrees with its first peer, each
//! read that hears it before the other fresh node does too, and the
//! `fast_reads == reads` assertions fail.

use std::time::{Duration, Instant};

use bytes::Bytes;
use rmem_consistency::Criterion;
use rmem_core::{Persistent, SharedMemory, Transient};
use rmem_kv::{certify_per_key_epoch_path, KvClient, OpRecorder, ShardMap, ShardRouter};
use rmem_net::{DiskMode, LocalCluster};
use rmem_types::ProcessId;

const SHARDS: u16 = 16;
const VICTIM: ProcessId = ProcessId(2);
/// The peer that goes down too in the fallback case.
const PEER: ProcessId = ProcessId(1);

fn entries(keys: &[String], version: u8) -> Vec<(String, Bytes)> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), Bytes::from(vec![version, i as u8])))
        .collect()
}

/// Kill the victim, put every key twice on the surviving majority,
/// restart it (`tear`: over a torn WAL tail; `peer_down`: after killing
/// the other peer too, so that one node alone can vouch for what it
/// missed), wait until it serves, and read every key back through a
/// fresh client family. Returns how many records the victim made durable
/// across the restart.
fn stale_restart_reads_back_fast(
    mut cluster: LocalCluster,
    criterion: Criterion,
    tear: bool,
    peer_down: bool,
) -> u64 {
    let router = ShardRouter::new(SHARDS);
    let keys = router.covering_keys("cu-");
    let recorder = OpRecorder::new();
    // Handles to a dead runner stay dead, so every phase gets a family
    // over the nodes that are up right now.
    let family = |clients| {
        KvClient::new(clients, router)
            .expect("nodes are up")
            .with_recorder(recorder.clone())
    };
    // Every key, written once through the victim: thrifty rounds could
    // leave it out of a register another node coordinates, and then it
    // would meet that register only when something first named it.
    family(vec![cluster.client(VICTIM)])
        .multi_put(&entries(&keys, 0))
        .unwrap();

    cluster.kill(VICTIM);
    if tear {
        assert!(cluster.tear_wal_tail(VICTIM).unwrap() > 0);
    }
    let kv = family(cluster.clients());
    kv.multi_put(&entries(&keys, 1)).unwrap();
    kv.multi_put(&entries(&keys, 2)).unwrap();
    if peer_down {
        cluster.kill(PEER);
    }

    let stores = |cluster: &LocalCluster| cluster.metrics(VICTIM).counter("runner.stores_durable");
    let stores_before = stores(&cluster);
    cluster.restart(VICTIM).unwrap();
    // Its own read queues behind that register's catch-up …
    let probe = ShardMap::genesis(SHARDS).register_for(&keys[0]);
    cluster.client(VICTIM).read_at(probe).expect("served");
    // … and the runner's one sample per incarnation says when the last
    // register turned ready (the restart is this node's only recovery).
    let started = Instant::now();
    let recovery = loop {
        let h = cluster.metrics(VICTIM).histogram("runner.recovery_micros");
        if h.count == 1 {
            break h;
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the restarted node never reported ready"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(recovery.percentile(0.5) > 0, "a recovery takes time");
    for pid in [ProcessId(0), PEER] {
        let fresh_boots = cluster.metrics(pid).histogram("runner.recovery_micros");
        assert_eq!(fresh_boots.count, 0, "{pid} never recovered");
    }
    let stored = stores(&cluster) - stores_before;

    let kv = family(cluster.clients());
    let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    let got = kv.multi_get(&key_refs).unwrap();
    for (i, value) in got.iter().enumerate() {
        assert_eq!(
            value.as_deref(),
            Some([2, i as u8].as_ref()),
            "{}: the last acked put",
            keys[i]
        );
    }
    let stats = kv.stats();
    assert!(stats.reads >= u64::from(SHARDS), "{stats:?}");
    assert_eq!(
        stats.fast_reads, stats.reads,
        "a read paid the write-back after the restart: {stats:?}"
    );
    certify_per_key_epoch_path(&recorder.history(), key_refs, &[SHARDS], criterion)
        .unwrap_or_else(|e| panic!("certification failed: {e}"));
    cluster.shutdown();
    stored
}

/// With both peers up, the two that hold every put vouch for it: the
/// catch-up logs nothing across the victim's restart — all a transient
/// node logs is its own `recovered` counter per register (Fig. 5 line 20;
/// the sixteen shards' and the shard map's). With one of them down the
/// other's word is not enough, and the victim also logs one adoption per
/// register it missed — and its reads are as fast.
#[test]
fn channel_cluster_reads_stay_fast_after_a_stale_restart() {
    let registers = u64::from(SHARDS) + 1;
    for peer_down in [false, true] {
        let cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
        let stored = stale_restart_reads_back_fast(cluster, Criterion::Transient, false, peer_down);
        let missed = if peer_down { u64::from(SHARDS) } else { 0 };
        assert_eq!(stored, registers + missed, "peer_down={peer_down}");
    }
}

/// As above, on a persistent cluster, whose recovery logs nothing of its
/// own: the victim's store count across the restart is zero with both
/// peers up.
#[test]
fn udp_wal_cluster_reads_stay_fast_after_a_stale_restart() {
    for (tear, peer_down) in [(false, false), (true, false), (false, true)] {
        let dir = std::env::temp_dir().join(format!(
            "rmem-kv-catch-up-{tear}-{peer_down}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cluster = LocalCluster::udp_with_disk(
            3,
            SharedMemory::factory(Persistent::flavor()),
            &dir,
            DiskMode::Wal,
        )
        .unwrap();
        let stored = stale_restart_reads_back_fast(cluster, Criterion::Persistent, tear, peer_down);
        let missed = if peer_down { u64::from(SHARDS) } else { 0 };
        assert_eq!(stored, missed, "tear={tear} peer_down={peer_down}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
