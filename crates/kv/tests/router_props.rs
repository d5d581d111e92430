//! Property tests for the shard router and the per-key certification
//! pipeline (the locality story, end to end), plus the epoch layer's
//! routing properties: same-epoch determinism across clients and the
//! minimal-movement guarantee of linear-hash splits.

use proptest::prelude::*;
use rmem_consistency::Criterion;
use rmem_kv::router::split_sources;
use rmem_kv::{certify_per_key_epoch_path, codec, ShardMap, ShardRouter};
use rmem_types::{Op, OpResult, ProcessId};

fn arb_key() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9_:/.-]{1,32}").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The mapping is a pure function of the key: two routers built
    /// independently (different "processes"/"restarts") agree on every
    /// key.
    #[test]
    fn routing_is_deterministic_across_instances(
        keys in proptest::collection::vec(arb_key(), 1..40),
        shards in 1u16..64,
    ) {
        let before_restart = ShardRouter::new(shards);
        let after_restart = ShardRouter::new(shards);
        for key in &keys {
            prop_assert_eq!(
                before_restart.shard_of(key),
                after_restart.shard_of(key),
                "key {:?} moved across restarts", key
            );
        }
    }

    /// Shard indices stay in range for arbitrary keys and shard counts.
    #[test]
    fn shards_stay_in_range(key in arb_key(), shards in 1u16..512) {
        let router = ShardRouter::new(shards);
        prop_assert!(router.shard_of(&key) < shards);
    }

    /// The derived covering key set hits every shard exactly once, for any
    /// shard count and prefix.
    #[test]
    fn covering_keys_cover_all_shards(
        shards in 1u16..48,
        prefix in proptest::string::string_regex("[a-z]{0,6}").unwrap(),
    ) {
        let router = ShardRouter::new(shards);
        let keys = router.covering_keys(&prefix);
        prop_assert_eq!(keys.len() as u16, shards);
        let mut hit = vec![false; shards as usize];
        for key in &keys {
            let s = router.shard_of(key) as usize;
            prop_assert!(!hit[s], "shard {} covered twice", s);
            hit[s] = true;
        }
        prop_assert!(hit.iter().all(|&h| h));
    }

    /// Entry payloads roundtrip for arbitrary keys, values and epoch
    /// stamps.
    #[test]
    fn codec_roundtrips(
        key in arb_key(),
        value in proptest::collection::vec(any::<u8>(), 0..256),
        epoch in any::<u8>(),
    ) {
        let payload = codec::encode_entry(&key, &bytes::Bytes::from(value.clone()), epoch);
        let (k, v) = codec::decode_entry(&payload).expect("decodes");
        prop_assert_eq!(k, key);
        prop_assert_eq!(v.as_ref(), value.as_slice());
        prop_assert_eq!(codec::payload_epoch(&payload), Some(epoch));
    }

    /// Same-epoch routing is deterministic across clients: two shard maps
    /// built independently from the same epoch record agree on every key,
    /// on both the current and the previous routing.
    #[test]
    fn same_epoch_routing_is_deterministic_across_clients(
        keys in proptest::collection::vec(arb_key(), 1..32),
        old_shards in 1u16..48,
        grow_by in 0u16..16,
        epoch in 0u64..1000,
    ) {
        let map_a = ShardMap { epoch, shards: old_shards + grow_by, prev_shards: old_shards };
        // A second client decodes the same published record.
        let map_b = ShardMap::decode(&map_a.encode()).expect("decodes");
        prop_assert_eq!(map_a, map_b);
        for key in &keys {
            prop_assert_eq!(map_a.register_for(key), map_b.register_for(key));
            prop_assert_eq!(map_a.old_register_for(key), map_b.old_register_for(key));
            prop_assert_eq!(map_a.shard_of(key), map_b.shard_of(key));
        }
    }

    /// Minimal movement: a split from `s` to `s + k` shards moves only
    /// keys owned by the split-source shards — every key either keeps its
    /// shard or leaves a split source for one of the new shards; keys of
    /// non-source shards never move.
    #[test]
    fn split_moves_only_split_source_keys(
        keys in proptest::collection::vec(arb_key(), 1..64),
        s in 1u16..48,
        k in 1u16..16,
    ) {
        let before = ShardRouter::new(s);
        let after = ShardRouter::new(s + k);
        let sources = split_sources(s, s + k);
        for key in &keys {
            let (old, new) = (before.shard_of(key), after.shard_of(key));
            if old != new {
                prop_assert!(
                    sources.contains(&old),
                    "key {:?} moved out of non-source shard {} ({} -> {} shards)",
                    key, old, s, s + k
                );
                prop_assert!(
                    new >= s,
                    "a moved key must land in a newly created shard, got {}",
                    new
                );
            }
        }
        // The source set never names a shard that does not exist yet.
        prop_assert!(sources.iter().all(|&b| b < s));
    }

    /// Injectivity survives a split: a universe with at most one key per
    /// shard before the split keeps at most one key per shard after it
    /// (what lets covering keys of the old router certify across epochs).
    #[test]
    fn injectivity_survives_splits(s in 1u16..24, k in 1u16..16) {
        let before = ShardRouter::new(s);
        let after = ShardRouter::new(s + k);
        let keys = before.covering_keys("inj-");
        let mut seen = std::collections::BTreeSet::new();
        for key in &keys {
            prop_assert!(
                seen.insert(after.shard_of(key)),
                "two old-injective keys collided after {} -> {}",
                s, s + k
            );
        }
    }

    /// Locality end to end: a random multi-key sequential store history
    /// (every read returns the latest value of *its* key) certifies
    /// per key under both criteria.
    #[test]
    fn multi_key_history_sliced_per_key_passes(
        steps in proptest::collection::vec((0u16..3, any::<bool>(), 0usize..8, 1u32..5), 1..24),
        shards in 8u16..16,
    ) {
        let router = ShardRouter::new(shards);
        let keys = router.covering_keys("key-");
        let map = ShardMap::genesis(shards);

        let mut h = rmem_consistency::History::new();
        let mut latest: Vec<Option<u32>> = vec![None; keys.len()];
        for (pid, is_write, key_index, v) in steps {
            let key = &keys[key_index % keys.len()];
            let reg = map.register_for(key);
            let latest = &mut latest[key_index % keys.len()];
            if is_write {
                let payload = codec::encode_entry(key, &bytes::Bytes::from(v.to_be_bytes().to_vec()), 0);
                let op = h.invoke(ProcessId(pid), Op::WriteAt(reg, payload));
                h.reply(op, OpResult::Written);
                *latest = Some(v);
            } else {
                let result = match *latest {
                    Some(v) => OpResult::ReadValue(
                        codec::encode_entry(key, &bytes::Bytes::from(v.to_be_bytes().to_vec()), 0),
                    ),
                    None => OpResult::ReadValue(rmem_types::Value::bottom()),
                };
                let op = h.invoke(ProcessId(pid), Op::ReadAt(reg));
                h.reply(op, result);
            }
        }

        let names = || keys.iter().map(String::as_str);
        let persistent = certify_per_key_epoch_path(&h, names(), &[shards], Criterion::Persistent);
        prop_assert!(persistent.is_ok(), "persistent: {:?}", persistent.err());
        let transient = certify_per_key_epoch_path(&h, names(), &[shards], Criterion::Transient);
        prop_assert!(transient.is_ok(), "transient: {:?}", transient.err());
    }
}
