//! The shard router: a pure, stable mapping from string keys onto the
//! registers of a shared memory.
//!
//! Determinism is the load-bearing property: every client, every process,
//! every incarnation after a crash, and every future run must route a key
//! to the same shard — within one epoch, no shard map is ever
//! exchanged over the network, the function *is* the map. The router
//! therefore hashes with a fixed, platform-independent FNV-1a (not
//! `std`'s `DefaultHasher`, whose output is unspecified across releases
//! and randomized per process).
//!
//! # Addressing and minimal movement
//!
//! The shard of a key is computed with **linear-hashing addressing**
//! ([`shard_at`]), not a bare `hash % shards`: for power-of-two shard
//! counts the two coincide exactly, but linear hashing additionally gives
//! live resharding its crucial property — growing from `s` to `s + k`
//! shards only moves keys out of the [*split source*](split_sources)
//! shards, everything else stays put. That is what lets the epoch layer
//! ([`crate::epoch`]) migrate a handful of registers under a write
//! barrier instead of reshuffling the whole store.

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
/// For a power-of-two `shards` this is exactly `hash % shards`. Its
/// defining property: growing the table from `s` to `s + 1` splits
/// exactly one bucket (`s - 2^ℓ`) between its old position and the new
/// bucket `s` — no other key moves.
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

/// The bucket a freshly created bucket `j` splits from: `j` with its top
/// bit cleared (the bucket whose keys fold onto `j` one level up).
///
/// # Panics
///
/// Panics if `j == 0` (the first bucket splits from nothing).
pub fn parent_of(j: u16) -> u16 {
    assert!(j > 0, "bucket 0 has no parent");
    let top = 1u16 << (15 - j.leading_zeros() as u16);
    j - top
}

/// The shards of an `old`-shard table whose keys may move when the table
/// grows to `new` shards — every other shard's keys provably stay put
/// (the minimal-movement property of linear hashing).
///
/// Each new bucket `j ∈ old..new` drains from its parent chain's first
/// member below `old`.
///
/// # Panics
///
/// Panics if `old == 0` or `new < old`.
pub fn split_sources(old: u16, new: u16) -> std::collections::BTreeSet<u16> {
    assert!(old > 0, "a shard table needs at least one bucket");
    assert!(new >= old, "shard tables only grow");
    let mut sources = std::collections::BTreeSet::new();
    for j in old..new {
        let mut b = j;
        while b >= old {
            b = parent_of(b);
        }
        sources.insert(b);
    }
    sources
}

/// Routes keys to shards (shard `i` lives at register `i + 1`, see
/// [`crate::epoch::ShardMap::register_for`]).
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

    /// Number of shards.
    pub fn shards(&self) -> u16 {
        self.shards
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
        // The pre-epoch router was `hash % shards` for the power-of-two
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
    fn growing_one_shard_splits_exactly_one_bucket() {
        for s in 1u16..40 {
            let sources = split_sources(s, s + 1);
            assert_eq!(sources.len(), 1, "{s} -> {} split {sources:?}", s + 1);
            // And keys only ever leave that bucket.
            for i in 0..2000u64 {
                let h = stable_hash(&format!("g{i}"));
                let (old, new) = (shard_at(h, s), shard_at(h, s + 1));
                if old != new {
                    assert!(sources.contains(&old));
                    assert_eq!(new, s, "a moved key lands in the new bucket");
                }
            }
        }
    }

    #[test]
    fn doubling_splits_every_bucket_to_its_image() {
        // 4 → 8: each bucket i splits into {i, i+4}.
        assert_eq!(
            split_sources(4, 8).into_iter().collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        for i in 0..4000u64 {
            let h = stable_hash(&format!("d{i}"));
            let (old, new) = (shard_at(h, 4), shard_at(h, 8));
            assert!(new == old || new == old + 4);
        }
    }

    #[test]
    fn parent_chain_reaches_below() {
        assert_eq!(parent_of(4), 0);
        assert_eq!(parent_of(5), 1);
        assert_eq!(parent_of(9), 1);
        assert_eq!(parent_of(13), 5);
        // 5 → 16 drains buckets created mid-grow through their chain.
        let sources = split_sources(5, 16);
        assert!(sources.iter().all(|&b| b < 5));
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
