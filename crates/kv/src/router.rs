//! The shard router: a pure, stable mapping from string keys onto the
//! registers of a shared memory.
//!
//! Determinism is the load-bearing property: every client, every process,
//! every incarnation after a crash, and every future run must route a key
//! to the same shard — no shard map is ever exchanged over the network,
//! the function *is* the map, and a store's shard count is fixed when it
//! is built. The router therefore hashes with a fixed,
//! platform-independent FNV-1a (not `std`'s `DefaultHasher`, whose output
//! is unspecified across releases and randomized per process).
//!
//! Data shard `i` lives at register `i + 1` ([`data_register`]); register
//! 0 is reserved and holds no key.

use rmem_types::RegisterId;

/// Stable 64-bit FNV-1a over the key bytes.
///
/// Exposed so tests and tooling can reason about placements without a
/// router instance.
pub fn stable_hash(key: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in key.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Linear-hashing address of `hash` in a table of `shards` buckets
/// (Litwin's addressing): take the hash modulo the next power of two
/// `2^(ℓ+1) ≥ shards`; addresses beyond the table fold back by `2^ℓ`.
///
/// For a power-of-two `shards` this is exactly `hash % shards`; for
/// other counts it is the placement every store of that count has used.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_at(hash: u64, shards: u16) -> u16 {
    assert!(shards > 0, "a shard table needs at least one bucket");
    let upper = (shards as u64).next_power_of_two();
    let addr = hash % upper;
    if addr >= shards as u64 {
        (addr - upper / 2) as u16
    } else {
        addr as u16
    }
}

/// The register hosting data shard `shard` (offset past the reserved
/// register 0).
///
/// # Panics
///
/// Panics if `shard` is `u16::MAX` (the register id space is `u16`).
pub fn data_register(shard: u16) -> RegisterId {
    assert!(shard < u16::MAX, "shard index exhausts the register space");
    RegisterId(shard + 1)
}

/// The store's shard map: its router, under the name the frozen
/// `benchmark/` package uses ([`ShardRouter::genesis`],
/// [`ShardRouter::register_for`], [`ShardRouter::stamp`]).
pub type ShardMap = ShardRouter;

/// Routes keys to shards (shard `i` lives at register `i + 1`, see
/// [`register_for`](ShardRouter::register_for)).
///
/// # Example
///
/// ```
/// use rmem_kv::ShardRouter;
///
/// let router = ShardRouter::new(8);
/// let shard = router.shard_of("user:42");
/// // Same key, same shard — here, on every node, after every restart.
/// assert_eq!(router.shard_of("user:42"), shard);
/// assert!(shard < 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: u16,
}

impl ShardRouter {
    /// A router over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: u16) -> Self {
        assert!(shards > 0, "a shard router needs at least one shard");
        ShardRouter { shards }
    }

    /// [`new`](Self::new), under the name the frozen `benchmark/`
    /// package calls.
    pub fn genesis(shards: u16) -> Self {
        ShardRouter::new(shards)
    }

    /// Number of shards.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The byte [`crate::codec::encode_entry`] writes beside the key:
    /// always 0. It carries no meaning; the frozen `benchmark/` package
    /// passes it through.
    pub fn stamp(&self) -> u8 {
        0
    }

    /// The data register of `key`.
    pub fn register_for(&self, key: &str) -> RegisterId {
        data_register(self.shard_of(key))
    }

    /// The shard index of `key` (in `0..shards`; linear-hashing
    /// addressing, see [`shard_at`]).
    pub fn shard_of(&self, key: &str) -> u16 {
        shard_at(stable_hash(key), self.shards)
    }

    /// Deterministically derives one key per shard from the naming scheme
    /// `"{prefix}{i}"`: for each shard, the first `i` (scanning from 0)
    /// whose key routes to it.
    ///
    /// The result is injective (one key per register, every shard
    /// covered), which is what makes per-register atomicity certificates
    /// readable as per-*key* certificates — workload generators and
    /// examples use this to build collision-free key universes.
    pub fn covering_keys(&self, prefix: &str) -> Vec<String> {
        let mut found: Vec<Option<String>> = vec![None; self.shards as usize];
        let mut remaining = self.shards as usize;
        let mut i = 0u64;
        while remaining > 0 {
            let key = format!("{prefix}{i}");
            let shard = self.shard_of(&key) as usize;
            if found[shard].is_none() {
                found[shard] = Some(key);
                remaining -= 1;
            }
            i += 1;
        }
        found
            .into_iter()
            .map(|k| k.expect("all shards covered"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_across_instances() {
        let a = ShardRouter::new(16);
        let b = ShardRouter::new(16);
        for key in ["a", "user:1", "ключ", "🔑", ""] {
            assert_eq!(a.shard_of(key), b.shard_of(key));
        }
    }

    #[test]
    fn known_hash_values_do_not_drift() {
        // Pinned FNV-1a test vectors: a silent hash change would reshuffle
        // every deployed shard map.
        assert_eq!(stable_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(stable_hash("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn power_of_two_addressing_is_plain_modulo() {
        // The first router was `hash % shards` for the power-of-two
        // counts every deployment uses; linear hashing must not move a
        // single one of those placements.
        for shards in [1u16, 2, 4, 8, 16, 64, 256] {
            for i in 0..500u64 {
                let h = stable_hash(&format!("k{i}"));
                assert_eq!(shard_at(h, shards), (h % shards as u64) as u16);
            }
        }
    }

    #[test]
    fn shards_bound_register_ids() {
        for shards in [3u16, 5, 7, 12, 100] {
            let router = ShardRouter::new(shards);
            for i in 0..1000 {
                assert!(router.shard_of(&format!("k{i}")) < shards);
            }
        }
    }

    #[test]
    fn covering_keys_hit_every_shard_exactly_once() {
        let router = ShardRouter::new(8);
        let keys = router.covering_keys("key-");
        assert_eq!(keys.len(), 8);
        let mut seen = std::collections::BTreeSet::new();
        for (shard, key) in keys.iter().enumerate() {
            assert_eq!(router.shard_of(key) as usize, shard);
            assert!(seen.insert(key.clone()), "duplicate key {key}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardRouter::new(0);
    }
}
