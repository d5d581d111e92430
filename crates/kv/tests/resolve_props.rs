//! Property coverage for the resolve() idempotency invariant (see
//! `rmem_kv::exactly_once`): **a resolved-`NotLanded` op may never later
//! become visible, and retrying a `Landed` op is a no-op.**
//!
//! Each property spins a real 3-node channel cluster per case, so the
//! case counts are deliberately low — these are randomized integration
//! probes over the crash/recovery surface, not number-theoretic sweeps:
//!
//! * **duplicate delivery** — the same `Sent` intent replayed through
//!   several recovering clients carries exactly one store effect;
//! * **resolve-before-ack** — resolving a staged (`Prepared`) op before
//!   its owner sends fences the owner forever;
//! * **resolve-after-crash-mid-round** — a recovery sweep over a
//!   reopened on-disk journal settles every op definitively while the
//!   crashed client's write is still racing it;
//! * **double-resolve** — after a crash at any output of a staged put,
//!   repeated resolves, from a recovered handle and from its clones,
//!   always agree (with the verdict memoized durably).
//!
//! A crash is [`Crash`]: the client's host takes its first k outputs
//! (submissions, journal writes) and none after.

use proptest::prelude::*;
use proptest::TestCaseError;
use rmem_core::{SharedMemory, Transient};
use rmem_kv::history::check_store_exactly_once;
use rmem_kv::{codec, Crash, KvClient, KvError, OpRecorder, Resolution, ShardRouter};
use rmem_net::cluster::SharedStorage;
use rmem_net::LocalCluster;
use rmem_storage::{Intent, IntentJournal, IntentState, MemStorage, StableStorage, WalStorage};
use rmem_types::OpTag;

fn cluster() -> LocalCluster {
    LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap()
}

fn mem_journal() -> IntentJournal {
    IntentJournal::with_storage(Box::new(MemStorage::new())).unwrap()
}

fn eo_client(cluster: &LocalCluster, id: u16) -> KvClient {
    KvClient::new(cluster.clients(), ShardRouter::new(4))
        .unwrap()
        .with_exactly_once(id, mem_journal())
}

fn arb_key() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9_.-]{1,24}").unwrap()
}

fn arb_value() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..32)
}

/// Client `id` over `journal`'s storage, its outputs spending `crash`.
fn crashing(
    cluster: &LocalCluster,
    id: u16,
    crash: &Crash,
    journal: impl StableStorage + 'static,
) -> KvClient {
    let journal = IntentJournal::with_storage(crash.storage(journal)).unwrap();
    KvClient::new(cluster.clients(), ShardRouter::new(4))
        .unwrap()
        .with_crash(crash)
        .with_exactly_once(id, journal)
}

/// How many outputs a fresh client's staged put makes before it crashes:
/// it journals the op `Prepared` (1), marks it `Sent` (2), reads the
/// shard map (3) and sends the write (4); its tombstone would be the
/// fifth.
fn arb_crash_point() -> impl Strategy<Value = u64> {
    1u64..5
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Duplicate delivery: the same `Sent` intent (one tag, one value)
    /// replayed through several recovering clients — each a fresh client
    /// over a journal still holding the op — resolves `Landed` every
    /// time, leaves exactly the op's value under exactly its tag, and
    /// the recorded history carries **one** application of the tag.
    #[test]
    fn duplicate_delivery_carries_one_effect(
        key in arb_key(),
        value in arb_value(),
        deliveries in 1usize..4,
    ) {
        let mut cluster = cluster();
        let recorder = OpRecorder::new();
        let tag = OpTag::new(7, 0);
        for _ in 0..deliveries {
            // A recovering incarnation: its journal says `Sent`, the
            // datagrams' fate unknown. The first resolve re-issues under
            // the tag; later ones observe the tag and touch nothing.
            let mut journal = mem_journal();
            journal
                .begin(Intent {
                    tag,
                    key: key.clone(),
                    value: value.clone().into(),
                    state: IntentState::Sent,
                })
                .unwrap();
            let kv = KvClient::new(cluster.clients(), ShardRouter::new(4))
                .unwrap()
                .with_recorder(recorder.clone())
                .with_exactly_once(7, journal);
            prop_assert_eq!(kv.resolve(tag).unwrap(), Resolution::Landed { tag });
            prop_assert!(kv.pending_intents().is_empty());
        }
        let kv = KvClient::new(cluster.clients(), ShardRouter::new(4)).unwrap();
        let got = kv.get(&key).unwrap();
        prop_assert_eq!(got.as_deref(), Some(value.as_slice()));
        let reg = kv.shard_map().register_for(&key);
        let payload = kv.raw_read(reg, "inspect").unwrap();
        prop_assert_eq!(codec::payload_op_tag(&payload), Some(tag));
        let report = check_store_exactly_once(&recorder.history())
            .map_err(|dup| TestCaseError::fail(format!("duplicate application: {dup:?}")))?;
        prop_assert_eq!(report.logical_ops, 1, "one tag, one logical write");
        prop_assert!(
            report.retries as usize <= deliveries,
            "at most one physical write per delivery"
        );
        cluster.shutdown();
    }

    /// Resolve-before-ack: a staged op resolved before its owner issues
    /// it is `NotLanded` — and that verdict can never be invalidated.
    /// However many times the owner retries `send_put`, it stays fenced
    /// and the key stays invisible.
    #[test]
    fn resolve_before_ack_fences_the_owner(
        key in arb_key(),
        value in arb_value(),
        retries in 1usize..4,
    ) {
        let mut cluster = cluster();
        let kv = eo_client(&cluster, 3);
        let tag = kv.begin_put(&key, value).unwrap();
        // The recovery sweep (e.g. from a clone of the family) wins the
        // fence race before the owner's send.
        prop_assert_eq!(kv.clone().resolve(tag).unwrap(), Resolution::NotLanded);
        for _ in 0..retries {
            prop_assert!(matches!(kv.send_put(tag), Err(KvError::Fenced { .. })));
            prop_assert_eq!(kv.resolve(tag).unwrap(), Resolution::NotLanded);
        }
        prop_assert_eq!(kv.get(&key).unwrap(), None);
        cluster.shutdown();
    }

    /// Resolve-after-crash-mid-round: the client crashes with its write
    /// still being driven by the register layer; a **fresh client over
    /// the reopened on-disk journal** (the real recovery path) sweeps the
    /// journal and must settle the op to `Landed` with the value visible,
    /// racing the orphaned write the whole time.
    #[test]
    fn resolve_after_mid_round_crash_settles_from_reopened_journal(
        key in arb_key(),
        value in arb_value(),
        case in 0u64..10_000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "rmem-resolve-props-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cluster = cluster();
        // Journal the op, read the shard map, send the write: the
        // tombstone is refused.
        let crash = Crash::after(3);
        let crashed = crashing(&cluster, 5, &crash, WalStorage::open(&dir).unwrap());
        let (recovered, tag, verdicts) = std::thread::scope(|scope| {
            scope.spawn(|| crashed.put(&key, value.clone()));
            while crash.outputs() < 3 {
                std::thread::yield_now();
            }
            let recovered = KvClient::new(cluster.clients(), ShardRouter::new(4))
                .unwrap()
                .with_exactly_once(5, IntentJournal::open(&dir).unwrap());
            let tag = recovered.pending_intents()[0].tag;
            let verdicts = recovered.resolve_all().unwrap();
            (recovered, tag, verdicts)
        });
        prop_assert_eq!(verdicts, vec![(tag, Resolution::Landed { tag })]);
        prop_assert!(recovered.pending_intents().is_empty());
        let got = recovered.get(&key).unwrap();
        prop_assert_eq!(got.as_deref(), Some(value.as_slice()));
        // Sequence allocation continues past the crashed op's identity.
        let next = recovered.begin_put(&key, b"next".to_vec()).unwrap();
        prop_assert!(next.seq > tag.seq);
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Double-resolve agreement: however often and from however many
    /// handles an op is resolved — any crash point — every verdict is the
    /// same, and the store state matches it.
    #[test]
    fn double_resolve_always_agrees(
        key in arb_key(),
        value in arb_value(),
        point in arb_crash_point(),
        resolves in 2usize..5,
    ) {
        let mut cluster = cluster();
        let disk = SharedStorage::new();
        let crashed = crashing(&cluster, 6, &Crash::after(point), disk.clone());
        let tag = crashed.begin_put(&key, value.clone()).unwrap();
        prop_assert!(crashed.send_put(tag).is_err(), "the crash comes before the tombstone");
        let kv = KvClient::new(cluster.clients(), ShardRouter::new(4))
            .unwrap()
            .with_exactly_once(6, IntentJournal::with_storage(Box::new(disk)).unwrap());
        let first = kv.resolve(tag).unwrap();
        for i in 0..resolves {
            // Alternate the recovered handle and a clone of the family.
            let verdict = if i % 2 == 0 {
                kv.resolve(tag).unwrap()
            } else {
                kv.clone().resolve(tag).unwrap()
            };
            prop_assert_eq!(verdict, first);
        }
        match first {
            Resolution::NotLanded => {
                prop_assert_eq!(point, 1, "only a crash before `Sent` is NotLanded");
                prop_assert_eq!(kv.get(&key).unwrap(), None);
            }
            Resolution::Landed { tag: t } => {
                prop_assert_eq!(t, tag);
                let got = kv.get(&key).unwrap();
                prop_assert_eq!(got.as_deref(), Some(value.as_slice()));
            }
        }
        cluster.shutdown();
    }
}
