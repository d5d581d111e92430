//! A sharded key-value store on a real 3-node cluster: puts and gets
//! through `KvClient`, one node killed and recovered mid-traffic, and the
//! recorded history certified atomic **per key** at the end.
//!
//! ```text
//! cargo run --example kv_store
//! ```

use rmem_consistency::Criterion;
use rmem_core::{Persistent, SharedMemory};
use rmem_kv::{certify_per_key_epoch_path, KvClient, OpRecorder, ShardRouter};
use rmem_net::LocalCluster;
use rmem_types::ProcessId;

fn main() {
    println!("kv_store: a sharded store surviving a crash, certified per key\n");

    let mut cluster =
        LocalCluster::channel(3, SharedMemory::factory(Persistent::flavor())).expect("cluster");
    let router = ShardRouter::new(8);
    let keys = router.covering_keys("item:");
    // Every register operation of every client below is recorded, each
    // client (and each thread's clone) as its own history process.
    let recorder = OpRecorder::new();
    // Handles to a dead runner stay dead, so every phase builds its client
    // over the nodes that are up right now.
    let client = |cluster: &LocalCluster| {
        KvClient::new(cluster.clients(), router)
            .expect("client")
            .with_recorder(recorder.clone())
    };

    // Phase 1: two "users" write and read concurrently through different
    // nodes.
    {
        let kv = client(&cluster);
        std::thread::scope(|scope| {
            for (user, chunk) in keys.chunks(4).enumerate() {
                let kv = kv.recorded_clone();
                scope.spawn(move || {
                    for (i, key) in chunk.iter().enumerate() {
                        kv.put(key, format!("v{user}.{i}")).expect("put");
                        let got = kv.get(key).expect("get");
                        assert!(got.is_some(), "own write must be visible");
                    }
                });
            }
        });
        println!(
            "phase 1  2 concurrent users wrote and read {} keys",
            keys.len()
        );
    }

    // Phase 2: kill p2 mid-run; the store keeps serving on {p0, p1}.
    cluster.kill(ProcessId(2));
    println!("phase 2  p2 killed — volatile state gone, logs intact");
    {
        let kv = client(&cluster);
        for key in &keys[..4] {
            kv.put(key, "updated-while-degraded").expect("put");
        }
        println!("phase 3  4 keys overwritten with p2 down");
    }

    // Phase 3: recover p2 and read everything through it (its client
    // handle is last in the clients() list — route a fresh client).
    cluster.restart(ProcessId(2)).expect("restart");
    {
        let kv = client(&cluster);
        let hits = keys
            .iter()
            .filter(|key| kv.get(key).expect("get").is_some());
        assert_eq!(
            hits.count(),
            keys.len(),
            "every key must still be present after recovery"
        );
        println!("phase 4  p2 recovered; all {} keys readable", keys.len());
    }
    cluster.shutdown();

    // Certification: the recorded history, sliced per key, must satisfy
    // persistent atomicity — reads never go back in time, even across the
    // crash.
    let h = recorder.history();
    let names = keys.iter().map(String::as_str);
    let cert = certify_per_key_epoch_path(&h, names, &[router.shards()], Criterion::Persistent)
        .expect("the run must be atomic per key");
    println!(
        "\n✓ certified: {} keys persistent-atomic across {} events (through p2's crash + recovery)",
        cert.per_key.len(),
        h.len(),
    );
}
