//! Epoch-stamped shard maps, stored **in the store itself**.
//!
//! The paper's crash-recovery registers exist to keep a small piece of
//! critical state consistent while nodes fail — exactly what a shard map
//! is. This module therefore bootstraps the store's own coordination from
//! the primitive it serves: the authoritative epoch → shard-count map
//! lives in a reserved **config register** (register 0, read and written
//! through the ordinary atomic-register client, à la
//! `examples/config_store.rs`), and every data shard `i` lives at register
//! `i + 1`.
//!
//! # The map
//!
//! A [`ShardMap`] is `{ epoch, shards, prev_shards }`:
//!
//! * **committed** (`prev_shards == shards`) — epoch `e` routes every key
//!   with [`shard_at`](crate::router::shard_at) over `shards`;
//! * **migrating** (`prev_shards < shards`) — the split to epoch `e` has
//!   been *published* but not *committed*: keys still route by
//!   `prev_shards` until their source shard is sealed (see the protocol
//!   in [`crate::client::KvClient::grow`]).
//!
//! Because the map register is (transient-)atomic and survives crashes,
//! clients can never durably disagree about the current epoch: whoever
//! reads the register last sees the latest published map, and the
//! one-byte epoch stamps on data payloads ([`crate::codec`]) tell stale
//! clients *when* to come back and read it.

use bytes::{Buf, BufMut, BytesMut};
use rmem_types::{RegisterId, Value};

use crate::codec::MAP_MARKER;
use crate::router::{shard_at, split_sources, stable_hash};

/// The reserved register holding the [`ShardMap`] — the store's own
/// configuration, kept in the store.
pub const CONFIG_REGISTER: RegisterId = RegisterId(0);

/// The register hosting data shard `shard` (offset past the config
/// register).
///
/// # Panics
///
/// Panics if `shard` is `u16::MAX` (the register id space is `u16`).
pub fn data_register(shard: u16) -> RegisterId {
    assert!(shard < u16::MAX, "shard index exhausts the register space");
    RegisterId(shard + 1)
}

/// Version byte of the encoded map record, for forward evolution.
const MAP_VERSION: u8 = 1;

/// The epoch-stamped shard map of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    /// The epoch this map belongs to (monotone across the store's life).
    pub epoch: u64,
    /// Shard count of this epoch.
    pub shards: u16,
    /// Shard count of the previous epoch; equal to [`shards`](Self::shards)
    /// once the epoch is committed, smaller while a split is migrating.
    pub prev_shards: u16,
}

impl ShardMap {
    /// The map a store starts with before any split was ever published:
    /// epoch 0, committed, at the bootstrap shard count.
    pub fn genesis(shards: u16) -> Self {
        assert!(shards > 0, "a shard map needs at least one shard");
        ShardMap {
            epoch: 0,
            shards,
            prev_shards: shards,
        }
    }

    /// The migrating map publishing a split of `self` to `new_shards`
    /// (epoch bumped, previous count remembered).
    ///
    /// # Panics
    ///
    /// Panics if `self` is still migrating or `new_shards` does not grow
    /// the table.
    pub fn split_to(&self, new_shards: u16) -> Self {
        assert!(!self.is_migrating(), "commit the current split first");
        assert!(new_shards > self.shards, "shard tables only grow");
        ShardMap {
            epoch: self.epoch + 1,
            shards: new_shards,
            prev_shards: self.shards,
        }
    }

    /// The committed form of a migrating map.
    pub fn committed(&self) -> Self {
        ShardMap {
            epoch: self.epoch,
            shards: self.shards,
            prev_shards: self.shards,
        }
    }

    /// Whether a split is published but not yet committed.
    pub fn is_migrating(&self) -> bool {
        self.prev_shards != self.shards
    }

    /// The one-byte stamp entries written under this map carry (the
    /// epoch's low byte — a staleness *signal*, not the authority; see
    /// [`crate::codec`]).
    pub fn stamp(&self) -> u8 {
        self.epoch as u8
    }

    /// The shard of `key` under this epoch's count.
    pub fn shard_of(&self, key: &str) -> u16 {
        shard_at(stable_hash(key), self.shards)
    }

    /// The shard of `key` under the *previous* epoch's count (where its
    /// value lives until the source shard is sealed).
    pub fn old_shard_of(&self, key: &str) -> u16 {
        shard_at(stable_hash(key), self.prev_shards)
    }

    /// The data register of `key` under this epoch.
    pub fn register_for(&self, key: &str) -> RegisterId {
        data_register(self.shard_of(key))
    }

    /// The data register of `key` under the previous epoch.
    pub fn old_register_for(&self, key: &str) -> RegisterId {
        data_register(self.old_shard_of(key))
    }

    /// The previous-epoch shards whose keys may move in this split (empty
    /// for a committed map).
    pub fn split_sources(&self) -> std::collections::BTreeSet<u16> {
        if self.is_migrating() {
            split_sources(self.prev_shards, self.shards)
        } else {
            std::collections::BTreeSet::new()
        }
    }

    /// Whether previous-epoch shard `shard` is a split source of this
    /// migration (always `false` on a committed map).
    pub fn is_split_source(&self, shard: u16) -> bool {
        self.is_migrating() && self.split_sources().contains(&shard)
    }

    /// Whether `key` currently sits behind the migration barrier (its
    /// source shard is splitting): its operations are chunks of their
    /// own, which run the write barrier and the old-home-then-new-home
    /// read protocol. Always `false` on a committed map.
    pub fn is_barriered(&self, key: &str) -> bool {
        self.is_migrating() && self.is_split_source(self.old_shard_of(key))
    }

    /// How `payload`, read from `key`'s register under this map, answers
    /// a read of `key`: `Some(Some(value))` on a hit; `Some(None)` for ⊥
    /// and for a key absent under this map's own stamp (a plain miss —
    /// collision displacement); `None` when the key is absent under a
    /// *foreign* stamp — this map may be stale (a split moved the key),
    /// so the caller refreshes and re-routes instead of answering.
    pub fn read_answer(&self, payload: &Value, key: &str) -> Option<Option<bytes::Bytes>> {
        if payload.is_bottom() {
            return Some(None);
        }
        match crate::codec::value_for_key(payload, key) {
            Some(value) => Some(Some(value)),
            None if crate::codec::payload_epoch(payload) == Some(self.stamp()) => Some(None),
            None => None,
        }
    }

    /// Whether `payload` proves that previous-epoch shard `source` has
    /// been sealed into **this** map's epoch — the authority check of
    /// the migration sites (barrier release, reader forwarding, resume
    /// detection).
    ///
    /// Seal markers carry the full epoch and compare exactly. Stayer
    /// seals (and post-seal stayer rewrites) are entry payloads: their
    /// one-byte stamp must match *and* every carried key must belong to
    /// `source` under the new routing — an old payload at a wrapped
    /// stamp (epochs 0 and 256 share a byte) still contains a moved
    /// tenant and is correctly rejected.
    pub fn seals_source(&self, payload: &Value, source: u16) -> bool {
        if let Some(epoch) = crate::codec::seal_epoch(payload) {
            return epoch == self.epoch;
        }
        if crate::codec::payload_epoch(payload) != Some(self.stamp()) {
            return false;
        }
        crate::codec::decode_entries(payload)
            .is_some_and(|entries| entries.iter().all(|(key, _)| self.shard_of(key) == source))
    }

    /// Encodes the map into the config-register payload:
    /// `[0xFFFD][version][epoch u64][shards u16][prev u16]`.
    pub fn encode(&self) -> Value {
        let mut buf = BytesMut::with_capacity(15);
        buf.put_u16(MAP_MARKER);
        buf.put_u8(MAP_VERSION);
        buf.put_u64(self.epoch);
        buf.put_u16(self.shards);
        buf.put_u16(self.prev_shards);
        Value::new(buf.freeze().to_vec())
    }

    /// Decodes a config-register payload. `None` for ⊥ (no map ever
    /// published — callers fall back to their bootstrap genesis map) and
    /// for payloads that are not a map record.
    pub fn decode(payload: &Value) -> Option<Self> {
        if payload.is_bottom() {
            return None;
        }
        let mut buf: &[u8] = payload.bytes().as_ref();
        if buf.remaining() != 15 {
            return None;
        }
        if buf.get_u16() != MAP_MARKER || buf.get_u8() != MAP_VERSION {
            return None;
        }
        let epoch = buf.get_u64();
        let shards = buf.get_u16();
        let prev_shards = buf.get_u16();
        if shards == 0 || prev_shards == 0 || prev_shards > shards {
            return None;
        }
        Some(ShardMap {
            epoch,
            shards,
            prev_shards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_is_committed_and_routes() {
        let map = ShardMap::genesis(8);
        assert!(!map.is_migrating());
        assert_eq!(map.epoch, 0);
        assert_eq!(map.stamp(), 0);
        assert!(map.split_sources().is_empty());
        let reg = map.register_for("user:42");
        assert!(reg.0 >= 1 && reg.0 <= 8, "data registers skip register 0");
        assert_ne!(reg, CONFIG_REGISTER);
        assert_eq!(map.register_for("user:42"), map.old_register_for("user:42"));
    }

    #[test]
    fn split_publishes_and_commits() {
        let map = ShardMap::genesis(4);
        let migrating = map.split_to(8);
        assert!(migrating.is_migrating());
        assert_eq!(migrating.epoch, 1);
        assert_eq!(migrating.prev_shards, 4);
        assert_eq!(
            migrating.split_sources().into_iter().collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        let committed = migrating.committed();
        assert!(!committed.is_migrating());
        assert_eq!(committed.epoch, 1);
        assert_eq!(committed.shards, 8);
    }

    #[test]
    #[should_panic(expected = "only grow")]
    fn shrinking_split_panics() {
        let _ = ShardMap::genesis(8).split_to(4);
    }

    #[test]
    fn map_record_roundtrips_and_rejects_foreign_payloads() {
        for map in [
            ShardMap::genesis(1),
            ShardMap::genesis(4).split_to(9),
            ShardMap {
                epoch: 300,
                shards: 512,
                prev_shards: 512,
            },
        ] {
            assert_eq!(ShardMap::decode(&map.encode()), Some(map));
        }
        assert_eq!(ShardMap::decode(&Value::bottom()), None);
        assert_eq!(ShardMap::decode(&Value::from_u32(7)), None);
        assert_eq!(
            ShardMap::decode(&crate::codec::encode_entry("k", &bytes::Bytes::new(), 0)),
            None
        );
        assert_eq!(ShardMap::decode(&crate::codec::encode_seal(3)), None);
        // A shrunk or zeroed record is corrupt, not a map.
        let mut bad = ShardMap::genesis(4).split_to(8);
        bad.prev_shards = 9;
        assert_eq!(ShardMap::decode(&bad.encode()), None);
    }

    #[test]
    fn stamps_wrap_at_a_byte() {
        let map = ShardMap {
            epoch: 257,
            shards: 4,
            prev_shards: 4,
        };
        assert_eq!(map.stamp(), 1);
    }

    #[test]
    fn seal_authority_is_exact_across_stamp_wraparound() {
        use crate::codec;
        // Epoch 256 wraps to stamp 0 — the same byte as genesis entries.
        let map = ShardMap {
            epoch: 256,
            shards: 8,
            prev_shards: 4,
        };
        let source = *map.split_sources().iter().next().unwrap();
        // A seal marker carries the full epoch: only this epoch's counts.
        assert!(map.seals_source(&codec::encode_seal(256), source));
        assert!(!map.seals_source(&codec::encode_seal(0), source));
        // An old epoch-0 entry shares the stamp byte, but if it carries a
        // tenant that *moves* in this split, it cannot be a stayer seal.
        let keys = crate::ShardRouter::new(4).covering_keys("w-");
        let mover = keys
            .iter()
            .find(|k| map.old_shard_of(k) != map.shard_of(k))
            .expect("a 4→8 split moves some covering key");
        let old_entry = codec::encode_entry(mover, &bytes::Bytes::from_static(b"v"), 0);
        assert!(
            !map.seals_source(&old_entry, map.old_shard_of(mover)),
            "a wrapped-stamp relic must not pass for a seal"
        );
        // A genuine stayer rewrite (stamped, stays under the new routing)
        // does count as sealed.
        let stayer = keys
            .iter()
            .find(|k| map.old_shard_of(k) == map.shard_of(k))
            .expect("a 4→8 split keeps some covering key");
        let rewrite = codec::encode_entry(stayer, &bytes::Bytes::from_static(b"v"), 0);
        assert!(map.seals_source(&rewrite, map.shard_of(stayer)));
        assert!(!map.seals_source(&Value::bottom(), source));
    }

    #[test]
    fn only_keys_of_splitting_shards_are_barriered() {
        let keys = crate::ShardRouter::new(4).covering_keys("b-");
        assert!(keys.iter().all(|k| !ShardMap::genesis(4).is_barriered(k)));
        // 4 → 6 splits shards 0 and 1 only; 2 and 3 keep their keys.
        let map = ShardMap::genesis(4).split_to(6);
        for key in &keys {
            assert_eq!(
                map.is_barriered(key),
                map.split_sources().contains(&map.old_shard_of(key)),
                "{key}"
            );
            if !map.is_barriered(key) {
                assert_eq!(map.old_shard_of(key), map.shard_of(key), "{key} stays");
            }
        }
        assert_eq!(keys.iter().filter(|k| map.is_barriered(k)).count(), 2);
        assert!(keys.iter().all(|k| !map.committed().is_barriered(k)));
    }

    #[test]
    fn read_answers_classify_hit_miss_and_stale() {
        use crate::codec;
        let map = ShardMap::genesis(4).split_to(8).committed(); // stamp 1
        let value = bytes::Bytes::from_static(b"v");
        let own = codec::encode_entry("k", &value, map.stamp());
        assert_eq!(map.read_answer(&own, "k"), Some(Some(value.clone())));
        assert_eq!(map.read_answer(&Value::bottom(), "k"), Some(None));
        // Another tenant under our own stamp: displaced, a plain miss.
        assert_eq!(map.read_answer(&own, "other"), Some(None));
        // A hit is a hit whatever the stamp; absence under a foreign
        // stamp is not an answer.
        let foreign = codec::encode_entry("k", &value, 0);
        assert_eq!(map.read_answer(&foreign, "k"), Some(Some(value)));
        assert_eq!(map.read_answer(&foreign, "other"), None);
        assert_eq!(map.read_answer(&codec::encode_seal(9), "k"), None);
    }

    #[test]
    fn old_routing_uses_previous_count() {
        let map = ShardMap::genesis(4).split_to(8);
        let router_old = crate::ShardRouter::new(4);
        let router_new = crate::ShardRouter::new(8);
        for i in 0..64 {
            let key = format!("k{i}");
            assert_eq!(map.old_shard_of(&key), router_old.shard_of(&key));
            assert_eq!(map.shard_of(&key), router_new.shard_of(&key));
        }
    }
}
