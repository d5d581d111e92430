//! The client-held tag-lease cache: zero-datagram reads for hot keys.
//!
//! A fast-path read whose quorum unanimously attested durability *and*
//! attached lease grants returns a [`rmem_types::LeaseGrant`] alongside
//! its payload. The grant is a replica-side promise: every replica in
//! the read quorum withholds acknowledgement of any **newer** write
//! until the granted horizon passes, and any completing write's quorum
//! intersects the grant quorum — so until the horizon, the granted tag
//! is the newest tag any completed write can have. The client may
//! therefore serve repeated reads of that register from local memory,
//! with **zero** datagrams, without violating atomicity.
//!
//! The cache is deliberately conservative on the client side:
//!
//! * The expiry clock starts at the instant the read was *submitted*
//!   (`t0`), not when its ack arrived — the replica's horizon opened no
//!   later than the ack left, so `t0 + grant` strictly undershoots every
//!   replica's fence.
//! * An entry is only served under the exact shard-map stamp it was
//!   filled under, and never while a split is migrating — a lease never
//!   survives an epoch change ([`LeaseCache::clear`] runs on every map
//!   adoption).
//! * Any write the client itself issues to a register revokes that
//!   register's entry *before* the write is sent.
//!
//! Capacity is bounded: filling past `capacity` evicts the
//! least-recently-served entry, so a scan over a large keyspace cannot
//! balloon client memory — only the Zipf-hot registers stay resident.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use rmem_types::{RegisterId, Timestamp, Value};

/// One cached leased read: the payload a future hit returns, the tag
/// that bounds which fills may replace it, the shard-map stamp it must
/// be served under, and the horizon on the client's clock
/// ([`World::now`](crate::World::now)).
#[derive(Debug, Clone)]
struct LeaseEntry {
    payload: Value,
    ts: Timestamp,
    stamp: u8,
    expires_at: Duration,
    /// Monotone use counter for LRU eviction (bumped on hit and fill).
    used: u64,
}

/// The outcome of a cache lookup, split so the caller can count hits,
/// expiries (lapsed horizon — the entry is gone) and plain misses
/// separately.
#[derive(Debug)]
pub(crate) enum Lookup {
    /// A live lease under the expected stamp: the cached payload.
    Hit(Value),
    /// An entry existed but its horizon (or its epoch) had passed; it
    /// was evicted.
    Expired,
    /// No entry.
    Miss,
}

/// A bounded, LRU-evicting map from register to live lease, shared by a
/// client family (clones serve from and revoke into one cache).
#[derive(Debug)]
pub(crate) struct LeaseCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct Inner {
    entries: BTreeMap<RegisterId, LeaseEntry>,
    tick: u64,
}

impl LeaseCache {
    /// An empty cache holding at most `capacity` leases.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a lease cache needs room for one lease");
        LeaseCache {
            inner: Mutex::new(Inner::default()),
            capacity,
        }
    }

    /// Looks up a live lease for `reg` under shard-map stamp `stamp`.
    /// An entry whose horizon passed — or that was filled under another
    /// stamp — is removed and reported as [`Lookup::Expired`].
    pub(crate) fn lookup(&self, reg: RegisterId, stamp: u8, now: Duration) -> Lookup {
        let mut inner = self.inner.lock().expect("lease cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let Some(entry) = inner.entries.get_mut(&reg) else {
            return Lookup::Miss;
        };
        if entry.stamp != stamp || now >= entry.expires_at {
            inner.entries.remove(&reg);
            return Lookup::Expired;
        }
        entry.used = tick;
        Lookup::Hit(entry.payload.clone())
    }

    /// Installs (or refreshes) the lease for `reg`. A fill never moves a
    /// tag backwards: if a concurrent thread already cached a newer tag,
    /// the older grant is dropped. Returns how many entries LRU
    /// eviction pushed out (0 or 1).
    pub(crate) fn fill(
        &self,
        reg: RegisterId,
        ts: Timestamp,
        payload: Value,
        stamp: u8,
        expires_at: Duration,
    ) -> usize {
        let mut inner = self.inner.lock().expect("lease cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(existing) = inner.entries.get(&reg) {
            if existing.ts > ts {
                return 0;
            }
        }
        inner.entries.insert(
            reg,
            LeaseEntry {
                payload,
                ts,
                stamp,
                expires_at,
                used: tick,
            },
        );
        let mut evicted = 0;
        while inner.entries.len() > self.capacity {
            let coldest = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(&r, _)| r)
                .expect("non-empty over-capacity cache");
            inner.entries.remove(&coldest);
            evicted += 1;
        }
        evicted
    }

    /// Drops `reg`'s lease (the client is about to write it, or observed
    /// a newer tag). Returns whether an entry was actually revoked.
    pub(crate) fn invalidate(&self, reg: RegisterId) -> bool {
        self.inner
            .lock()
            .expect("lease cache lock")
            .entries
            .remove(&reg)
            .is_some()
    }

    /// Drops every lease (the shard map moved — no lease survives an
    /// epoch change). Returns how many were dropped.
    pub(crate) fn clear(&self) -> usize {
        let mut inner = self.inner.lock().expect("lease cache lock");
        let n = inner.entries.len();
        inner.entries.clear();
        n
    }

    /// Live entry count (tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("lease cache lock").entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(b: u8) -> Value {
        Value::from(vec![b])
    }

    fn ts(n: u64) -> Timestamp {
        Timestamp {
            seq: n,
            pid: rmem_types::ProcessId(0),
        }
    }

    #[test]
    fn hit_requires_stamp_match_and_live_horizon() {
        let cache = LeaseCache::new(4);
        let now = Duration::from_secs(1);
        let horizon = now + Duration::from_secs(60);
        cache.fill(RegisterId(1), ts(3), val(7), 42, horizon);
        assert!(matches!(
            cache.lookup(RegisterId(1), 42, now),
            Lookup::Hit(v) if v == val(7)
        ));
        // Foreign stamp: the entry is dead, not just skipped.
        assert!(matches!(
            cache.lookup(RegisterId(1), 43, now),
            Lookup::Expired
        ));
        assert!(matches!(cache.lookup(RegisterId(1), 42, now), Lookup::Miss));
        // Lapsed horizon.
        cache.fill(RegisterId(1), ts(3), val(7), 42, horizon);
        let late = horizon + Duration::from_micros(1);
        assert!(matches!(
            cache.lookup(RegisterId(1), 42, late),
            Lookup::Expired
        ));
    }

    #[test]
    fn fill_never_moves_a_tag_backwards() {
        let cache = LeaseCache::new(4);
        let now = Duration::from_secs(1);
        let horizon = now + Duration::from_secs(60);
        cache.fill(RegisterId(1), ts(5), val(5), 1, horizon);
        // A racing older grant must not clobber the newer payload.
        cache.fill(RegisterId(1), ts(4), val(4), 1, horizon);
        assert!(matches!(
            cache.lookup(RegisterId(1), 1, now),
            Lookup::Hit(v) if v == val(5)
        ));
        // A newer grant replaces.
        cache.fill(RegisterId(1), ts(6), val(6), 1, horizon);
        assert!(matches!(
            cache.lookup(RegisterId(1), 1, now),
            Lookup::Hit(v) if v == val(6)
        ));
    }

    #[test]
    fn capacity_is_bounded_and_evicts_the_coldest() {
        let cache = LeaseCache::new(2);
        let now = Duration::from_secs(1);
        let horizon = now + Duration::from_secs(60);
        cache.fill(RegisterId(1), ts(1), val(1), 0, horizon);
        cache.fill(RegisterId(2), ts(1), val(2), 0, horizon);
        // Touch register 1 so 2 is the coldest.
        assert!(matches!(
            cache.lookup(RegisterId(1), 0, now),
            Lookup::Hit(_)
        ));
        let evicted = cache.fill(RegisterId(3), ts(1), val(3), 0, horizon);
        assert_eq!(evicted, 1);
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup(RegisterId(2), 0, now), Lookup::Miss));
        assert!(matches!(
            cache.lookup(RegisterId(1), 0, now),
            Lookup::Hit(_)
        ));
    }

    #[test]
    fn invalidate_and_clear_drop_leases() {
        let cache = LeaseCache::new(4);
        let horizon = Duration::from_secs(60);
        cache.fill(RegisterId(1), ts(1), val(1), 0, horizon);
        cache.fill(RegisterId(2), ts(1), val(2), 0, horizon);
        assert!(cache.invalidate(RegisterId(1)));
        assert!(!cache.invalidate(RegisterId(1)));
        assert_eq!(cache.clear(), 1);
        assert_eq!(cache.len(), 0);
    }
}
