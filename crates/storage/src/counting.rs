//! Store-count instrumentation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use crate::{StableStorage, StorageError};

/// Shared counters collected by a [`CountingStorage`].
///
/// The counters are atomics behind an [`Arc`], so a harness keeps a handle
/// while the storage itself is owned by the runtime. These raw counts (how
/// many stores, how many bytes) complement the *causal-log* accounting done
/// by the simulator trace: raw counts say how much logging happened, the
/// trace says how much of it was on an operation's critical path.
///
/// The **commit**-level counters measure group commit: a commit is one
/// durability point (a blocking `store`, or a `flush` with staged
/// records), `fsyncs` weights commits by the backend's physical cost
/// ([`StableStorage::fsyncs_per_commit`]), and
/// [`mean_group_size`](StoreCounters::mean_group_size) says how many
/// stores each commit amortized.
#[derive(Debug, Default)]
pub struct StoreCounters {
    stores: AtomicU64,
    bytes: AtomicU64,
    retrieves: AtomicU64,
    commits: AtomicU64,
    fsyncs: AtomicU64,
}

impl StoreCounters {
    /// Creates zeroed counters.
    pub fn new() -> Arc<Self> {
        Arc::new(StoreCounters::default())
    }

    /// Number of successful `store` calls (blocking and
    /// `begin_store`-staged alike).
    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }

    /// Total bytes across successful `store` calls.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of `retrieve` calls.
    pub fn retrieves(&self) -> u64 {
        self.retrieves.load(Ordering::Relaxed)
    }

    /// Number of commits: durability points that covered at least one
    /// store (each blocking `store` is its own commit of group size 1).
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Physical fsyncs those commits cost
    /// (commits × the backend's [`StableStorage::fsyncs_per_commit`]).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Mean stores per commit — the group-commit amortization factor
    /// (1.0 = no coalescing; 0.0 before any commit).
    pub fn mean_group_size(&self) -> f64 {
        let commits = self.commits();
        if commits == 0 {
            return 0.0;
        }
        self.stores() as f64 / commits as f64
    }

    /// Mean bytes made durable per commit (0.0 before any commit).
    pub fn bytes_per_commit(&self) -> f64 {
        let commits = self.commits();
        if commits == 0 {
            return 0.0;
        }
        self.bytes() as f64 / commits as f64
    }

    /// Resets all counters to zero (e.g. between benchmark phases).
    pub fn reset(&self) {
        self.stores.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.retrieves.store(0, Ordering::Relaxed);
        self.commits.store(0, Ordering::Relaxed);
        self.fsyncs.store(0, Ordering::Relaxed);
    }
}

/// A [`StableStorage`] decorator that counts traffic into shared
/// [`StoreCounters`].
#[derive(Debug)]
pub struct CountingStorage<S> {
    inner: S,
    counters: Arc<StoreCounters>,
    /// Stores staged (begin_store, not yet durable) since the last flush;
    /// a flush that covers any becomes one commit.
    staged: u64,
}

impl<S: StableStorage> CountingStorage<S> {
    /// Wraps `inner`, reporting into `counters`.
    pub fn new(inner: S, counters: Arc<StoreCounters>) -> Self {
        CountingStorage {
            inner,
            counters,
            staged: 0,
        }
    }

    /// The shared counters.
    pub fn counters(&self) -> &Arc<StoreCounters> {
        &self.counters
    }

    /// Unwraps the inner storage.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: StableStorage> StableStorage for CountingStorage<S> {
    fn store(&mut self, key: &str, bytes: Bytes) -> Result<(), StorageError> {
        let len = bytes.len() as u64;
        self.inner.store(key, bytes)?;
        self.counters.stores.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes.fetch_add(len, Ordering::Relaxed);
        self.counters.commits.fetch_add(1, Ordering::Relaxed);
        self.counters
            .fsyncs
            .fetch_add(self.inner.fsyncs_per_commit(), Ordering::Relaxed);
        Ok(())
    }

    fn retrieve(&self, key: &str) -> Result<Option<Bytes>, StorageError> {
        self.counters.retrieves.fetch_add(1, Ordering::Relaxed);
        self.inner.retrieve(key)
    }

    fn keys(&self) -> Vec<String> {
        self.inner.keys()
    }

    fn begin_store(&mut self, key: &str, bytes: Bytes) -> Result<(), StorageError> {
        let len = bytes.len() as u64;
        self.inner.begin_store(key, bytes)?;
        self.counters.stores.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes.fetch_add(len, Ordering::Relaxed);
        // A synchronous inner (default begin_store = store) is already
        // durable: that staging *was* a commit of group size 1.
        if self.inner.group_commits() {
            self.staged += 1;
        } else {
            self.counters.commits.fetch_add(1, Ordering::Relaxed);
            self.counters
                .fsyncs
                .fetch_add(self.inner.fsyncs_per_commit(), Ordering::Relaxed);
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.inner.flush()?;
        if self.staged > 0 {
            self.staged = 0;
            self.counters.commits.fetch_add(1, Ordering::Relaxed);
            self.counters
                .fsyncs
                .fetch_add(self.inner.fsyncs_per_commit(), Ordering::Relaxed);
        }
        Ok(())
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
    fn counts_stores_bytes_and_retrieves() {
        let counters = StoreCounters::new();
        let mut s = CountingStorage::new(MemStorage::new(), counters.clone());
        s.store("a", Bytes::from_static(b"12345")).unwrap();
        s.store("b", Bytes::from_static(b"123")).unwrap();
        let _ = s.retrieve("a").unwrap();
        let _ = s.retrieve("missing").unwrap();
        assert_eq!(counters.stores(), 2);
        assert_eq!(counters.bytes(), 8);
        assert_eq!(counters.retrieves(), 2);
    }

    #[test]
    fn failed_store_is_not_counted() {
        use crate::{FaultPlan, FaultyStorage};
        let counters = StoreCounters::new();
        let inner = FaultyStorage::new(MemStorage::new(), FaultPlan::fail_every(1));
        let mut s = CountingStorage::new(inner, counters.clone());
        assert!(s.store("a", Bytes::from_static(b"x")).is_err());
        assert_eq!(counters.stores(), 0);
        assert_eq!(counters.bytes(), 0);
    }

    #[test]
    fn reset_zeroes_counters() {
        let counters = StoreCounters::new();
        let mut s = CountingStorage::new(MemStorage::new(), counters.clone());
        s.store("a", Bytes::from_static(b"x")).unwrap();
        counters.reset();
        assert_eq!(counters.stores(), 0);
        assert_eq!(counters.bytes(), 0);
        assert_eq!(counters.retrieves(), 0);
    }

    #[test]
    fn group_commit_accounting_over_a_wal() {
        let dir = std::env::temp_dir().join(format!(
            "rmem-counting-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let counters = StoreCounters::new();
        let mut s = CountingStorage::new(crate::WalStorage::open(&dir).unwrap(), counters.clone());
        // Group of 3 → one commit, one fsync.
        s.begin_store("a", Bytes::from_static(b"11")).unwrap();
        s.begin_store("b", Bytes::from_static(b"22")).unwrap();
        s.begin_store("c", Bytes::from_static(b"33")).unwrap();
        assert_eq!(counters.commits(), 0, "nothing durable before the flush");
        s.flush().unwrap();
        assert_eq!(counters.stores(), 3);
        assert_eq!(counters.commits(), 1);
        assert_eq!(counters.fsyncs(), 1);
        assert!((counters.mean_group_size() - 3.0).abs() < f64::EPSILON);
        assert!((counters.bytes_per_commit() - 6.0).abs() < f64::EPSILON);
        // An empty flush is not a commit.
        s.flush().unwrap();
        assert_eq!(counters.commits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn synchronous_begin_store_counts_as_its_own_commit() {
        let counters = StoreCounters::new();
        let mut s = CountingStorage::new(MemStorage::new(), counters.clone());
        s.begin_store("a", Bytes::from_static(b"x")).unwrap();
        s.begin_store("b", Bytes::from_static(b"y")).unwrap();
        assert_eq!(counters.commits(), 2, "sync backends commit per store");
        assert_eq!(counters.fsyncs(), 0, "memory costs no physical fsync");
        assert!((counters.mean_group_size() - 1.0).abs() < f64::EPSILON);
        s.flush().unwrap();
        assert_eq!(counters.commits(), 2, "an idle flush adds nothing");
    }

    #[test]
    fn passthrough_keys_and_into_inner() {
        let counters = StoreCounters::new();
        let mut s = CountingStorage::new(MemStorage::new(), counters);
        s.store("k", Bytes::new()).unwrap();
        assert_eq!(s.keys(), vec!["k".to_string()]);
        let inner = s.into_inner();
        assert_eq!(inner.keys(), vec!["k".to_string()]);
    }
}
