//! Fault-injecting storage decorator for robustness tests.

use std::time::Duration;

use bytes::Bytes;

use crate::{StableStorage, StorageError};

/// Deterministic schedule of injected store failures.
///
/// The plan is consulted on every `store`; when it says "fail", the store
/// returns [`StorageError::Injected`] and the underlying storage is left
/// untouched (matching the [`StableStorage`] contract that a failed store
/// preserves the previous record).
#[derive(Debug, Clone)]
pub enum FaultPlan {
    /// Never inject (pass-through).
    None,
    /// Fail every `n`-th store, 1-indexed: `fail_every(3)` fails stores
    /// 3, 6, 9, …
    EveryNth {
        /// The period.
        n: u64,
        /// Stores seen so far.
        seen: u64,
    },
    /// Fail the stores whose 1-indexed positions are listed (sorted).
    AtPositions {
        /// Sorted positions to fail.
        positions: Vec<u64>,
        /// Stores seen so far.
        seen: u64,
    },
    /// Fail every store to the given slot.
    OnKey(
        /// The slot name to fail.
        String,
    ),
    /// Fail the `nth` store to `key`, 1-indexed.
    NthOnKey {
        /// The slot name.
        key: String,
        /// Which of its stores fails.
        nth: u64,
        /// Stores to the slot seen so far.
        seen: u64,
    },
}

impl FaultPlan {
    /// Plan failing every `n`-th store.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn fail_every(n: u64) -> Self {
        assert!(n > 0, "period must be positive");
        FaultPlan::EveryNth { n, seen: 0 }
    }

    /// Plan failing the stores at the given 1-indexed positions.
    pub fn fail_at(mut positions: Vec<u64>) -> Self {
        positions.sort_unstable();
        FaultPlan::AtPositions { positions, seen: 0 }
    }

    /// Plan failing every store to `key`.
    pub fn fail_key(key: impl Into<String>) -> Self {
        FaultPlan::OnKey(key.into())
    }

    /// Plan failing the `nth` store to `key` (1-indexed) and no other.
    pub fn fail_nth_on_key(key: impl Into<String>, nth: u64) -> Self {
        FaultPlan::NthOnKey {
            key: key.into(),
            nth,
            seen: 0,
        }
    }

    fn should_fail(&mut self, key: &str) -> bool {
        match self {
            FaultPlan::None => false,
            FaultPlan::EveryNth { n, seen } => {
                *seen += 1;
                *seen % *n == 0
            }
            FaultPlan::AtPositions { positions, seen } => {
                *seen += 1;
                positions.binary_search(seen).is_ok()
            }
            FaultPlan::OnKey(k) => k == key,
            FaultPlan::NthOnKey { key: k, nth, seen } => {
                *seen += u64::from(k == key);
                k == key && *seen == *nth
            }
        }
    }
}

/// A [`StableStorage`] decorator that injects failures per a [`FaultPlan`]
/// and, optionally, a fixed **commit delay** — a slow disk whose every
/// durability point (blocking store or flush) stalls for the configured
/// duration. The delay is what the runner's no-stall tests lean on: with
/// the durability pipeline off the event loop, a 100 ms commit on one
/// node must not delay operations on other registers.
#[derive(Debug)]
pub struct FaultyStorage<S> {
    inner: S,
    plan: FaultPlan,
    injected: u64,
    delay: Option<Duration>,
    /// Records staged (begin_store, not yet durable) since the last
    /// flush: a flush is only a durability point — and only stalls —
    /// when it covers at least one of these.
    staged: u64,
}

impl<S: StableStorage> FaultyStorage<S> {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultyStorage {
            inner,
            plan,
            injected: 0,
            delay: None,
            staged: 0,
        }
    }

    /// Adds a fixed delay to every commit (blocking `store` and `flush`),
    /// emulating a slow disk.
    #[must_use]
    pub fn with_commit_delay(mut self, delay: Duration) -> Self {
        self.delay = Some(delay);
        self
    }

    /// How many failures have been injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The inner storage (what actually landed).
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Unwraps the inner storage.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn stall(&self) {
        if let Some(d) = self.delay {
            std::thread::sleep(d);
        }
    }
}

impl<S: StableStorage> StableStorage for FaultyStorage<S> {
    fn store(&mut self, key: &str, bytes: Bytes) -> Result<(), StorageError> {
        if self.plan.should_fail(key) {
            self.injected += 1;
            return Err(StorageError::Injected {
                key: key.to_string(),
            });
        }
        self.stall();
        self.inner.store(key, bytes)
    }

    fn retrieve(&self, key: &str) -> Result<Option<Bytes>, StorageError> {
        self.inner.retrieve(key)
    }

    fn keys(&self) -> Vec<String> {
        self.inner.keys()
    }

    fn begin_store(&mut self, key: &str, bytes: Bytes) -> Result<(), StorageError> {
        if self.plan.should_fail(key) {
            self.injected += 1;
            return Err(StorageError::Injected {
                key: key.to_string(),
            });
        }
        self.inner.begin_store(key, bytes)?;
        // The commit delay belongs to the durability point: a synchronous
        // inner commits here, a group-committing inner stages now and
        // commits at the covering flush.
        if self.inner.group_commits() {
            self.staged += 1;
        } else {
            self.stall();
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        // Only a covering flush is a commit: an empty flush (or one whose
        // records already committed at begin_store) costs nothing.
        if self.staged > 0 {
            self.staged = 0;
            self.stall();
        }
        self.inner.flush()
    }

    fn group_commits(&self) -> bool {
        self.inner.group_commits()
    }

    fn fsyncs_per_commit(&self) -> u64 {
        self.inner.fsyncs_per_commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStorage;

    #[test]
    fn every_nth_fails_periodically() {
        let mut s = FaultyStorage::new(MemStorage::new(), FaultPlan::fail_every(3));
        let results: Vec<bool> = (0..6)
            .map(|i| s.store("k", Bytes::from(vec![i as u8])).is_ok())
            .collect();
        assert_eq!(results, vec![true, true, false, true, true, false]);
        assert_eq!(s.injected(), 2);
    }

    #[test]
    fn failed_store_preserves_previous_record() {
        let mut s = FaultyStorage::new(MemStorage::new(), FaultPlan::fail_at(vec![2]));
        s.store("slot", Bytes::from_static(b"old")).unwrap();
        assert!(s.store("slot", Bytes::from_static(b"new")).is_err());
        assert_eq!(
            s.retrieve("slot").unwrap(),
            Some(Bytes::from_static(b"old"))
        );
    }

    #[test]
    fn on_key_targets_only_that_slot() {
        let mut s = FaultyStorage::new(MemStorage::new(), FaultPlan::fail_key("writing"));
        assert!(s.store("writing", Bytes::new()).is_err());
        assert!(s.store("written", Bytes::new()).is_ok());
        assert!(s.store("writing", Bytes::new()).is_err());
        assert_eq!(s.injected(), 2);
    }

    #[test]
    fn nth_on_key_counts_only_that_slot() {
        let mut s = FaultyStorage::new(MemStorage::new(), FaultPlan::fail_nth_on_key("writing", 2));
        let results: Vec<bool> = ["writing", "written", "written", "writing", "writing"]
            .iter()
            .map(|key| s.store(key, Bytes::new()).is_ok())
            .collect();
        assert_eq!(results, [true, true, true, false, true]);
        assert_eq!(s.injected(), 1);
    }

    #[test]
    fn none_plan_is_transparent() {
        let mut s = FaultyStorage::new(MemStorage::new(), FaultPlan::None);
        for i in 0..10u8 {
            s.store("k", Bytes::from(vec![i])).unwrap();
        }
        assert_eq!(s.injected(), 0);
        assert_eq!(s.retrieve("k").unwrap(), Some(Bytes::from(vec![9u8])));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = FaultPlan::fail_every(0);
    }

    #[test]
    fn commit_delay_stalls_stores_and_flushes() {
        let delay = std::time::Duration::from_millis(30);
        let mut s = FaultyStorage::new(MemStorage::new(), FaultPlan::None).with_commit_delay(delay);
        let t0 = std::time::Instant::now();
        s.store("k", Bytes::from_static(b"v")).unwrap();
        assert!(t0.elapsed() >= delay, "blocking store must stall");
        let t1 = std::time::Instant::now();
        s.begin_store("k", Bytes::from_static(b"w")).unwrap();
        assert!(
            t1.elapsed() >= delay,
            "a synchronous inner commits at begin_store"
        );
        // The delay is charged per durability point, not per call: after
        // a synchronous begin_store already committed, the covering
        // flush is empty and must not stall again.
        let t2 = std::time::Instant::now();
        s.flush().unwrap();
        assert!(
            t2.elapsed() < delay / 2,
            "an empty flush must not be charged a commit delay"
        );
    }

    #[test]
    fn commit_delay_charges_async_staging_at_the_flush() {
        let dir = std::env::temp_dir().join(format!(
            "rmem-faulty-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let delay = std::time::Duration::from_millis(30);
        let mut s = FaultyStorage::new(crate::WalStorage::open(&dir).unwrap(), FaultPlan::None)
            .with_commit_delay(delay);
        let t0 = std::time::Instant::now();
        s.begin_store("a", Bytes::from_static(b"1")).unwrap();
        s.begin_store("b", Bytes::from_static(b"2")).unwrap();
        assert!(
            t0.elapsed() < delay / 2,
            "staging on an async inner must not stall"
        );
        let t1 = std::time::Instant::now();
        s.flush().unwrap();
        assert!(t1.elapsed() >= delay, "the covering flush is the commit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_applies_to_begin_store_too() {
        let mut s = FaultyStorage::new(MemStorage::new(), FaultPlan::fail_every(2));
        assert!(s.begin_store("k", Bytes::new()).is_ok());
        assert!(s.begin_store("k", Bytes::new()).is_err());
        assert_eq!(s.injected(), 1);
    }
}
