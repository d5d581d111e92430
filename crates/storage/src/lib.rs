//! Stable-storage substrate for the crash-recovery emulations.
//!
//! The paper's model (§II) gives every process a *volatile* and a *stable*
//! storage; `store` writes a record durably and `retrieve` reads it back
//! after a crash. This crate provides:
//!
//! * the [`StableStorage`] trait mirroring those two primitives;
//! * [`MemStorage`] — an in-memory implementation the deterministic
//!   simulator holds *outside* the process automaton, so it survives
//!   simulated crashes exactly like a disk survives a machine reboot;
//! * [`FileStorage`] — a real directory-backed implementation that
//!   `fsync`s every store (the paper writes its log files synchronously,
//!   §V-A, precisely because buffered writes would void even transient
//!   atomicity);
//! * [`WalStorage`] — a segmented, append-only write-ahead log with
//!   **group commit**: appends are cheap ([`StableStorage::begin_store`]),
//!   one [`flush`](StableStorage::flush) makes every outstanding append
//!   durable at once, and recovery replays the log (CRC-guarded, torn
//!   tails truncated) to rebuild the latest record per slot. The §V-A
//!   invariant is preserved in its real form — *ack after durable*, not
//!   *fsync per store* — because nothing is acknowledged before the fsync
//!   covering it returns;
//! * [`IntentJournal`] — a tiny reusable journal of begun-but-unresolved
//!   client writes (durable before the first datagram leaves), the
//!   storage half of detectable client recovery (`rmem_kv`'s
//!   `KvClient::resolve`);
//! * typed [`records`] for the three log slots of the paper's pseudocode
//!   (`writing`, `written`, `recovered`) and their binary encoding;
//! * instrumentation wrappers: [`CountingStorage`] (stores, bytes,
//!   fsync-level commit accounting — the raw ingredient of
//!   log-complexity and group-commit measurements) and [`FaultyStorage`]
//!   (failure injection and slow-disk delays for robustness tests).
//!
//! # Example
//!
//! ```
//! use rmem_storage::{records, MemStorage, StableStorage};
//! use rmem_types::{ProcessId, Timestamp, Value};
//!
//! let mut disk = MemStorage::new();
//! let rec = records::WrittenRecord {
//!     ts: Timestamp::new(3, ProcessId(1)),
//!     value: Value::from_u32(42),
//! };
//! disk.store(records::KEY_WRITTEN, rec.encode())?;
//!
//! // ... the process crashes; on recovery it retrieves the record:
//! let bytes = disk.retrieve(records::KEY_WRITTEN)?.expect("stored");
//! assert_eq!(records::WrittenRecord::decode(&bytes)?.value.as_u32(), Some(42));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counting;
pub mod error;
pub mod faulty;
pub mod file;
pub mod intent;
pub mod memory;
pub mod records;
pub mod wal;

pub use counting::{CountingStorage, StoreCounters};
pub use error::StorageError;
pub use faulty::{FaultPlan, FaultyStorage};
pub use file::FileStorage;
pub use intent::{Intent, IntentJournal, IntentState};
pub use memory::MemStorage;
pub use wal::{RecoverySummary, WalOptions, WalStorage};

use bytes::Bytes;

/// The stable-storage primitives of the crash-recovery model (§II):
/// `store` persists a record durably under a named slot, `retrieve` reads
/// the most recent record in a slot.
///
/// Slots are overwritten in place, matching the pseudocode where e.g. a
/// second `store(writing, …)` replaces the first. Implementations must
/// guarantee that once `store` returns `Ok`, the record survives a crash
/// of the process (for [`FileStorage`] that means the data is `fsync`ed;
/// for [`MemStorage`] it means the map lives outside the simulated
/// process).
pub trait StableStorage: Send {
    /// Durably stores `bytes` under `key`, replacing any previous record.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError`] if the record could not be made durable;
    /// in that case the previous record in the slot must still be intact.
    fn store(&mut self, key: &str, bytes: Bytes) -> Result<(), StorageError>;

    /// Retrieves the most recently stored record under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError`] on I/O failure. A missing slot is `Ok(None)`,
    /// not an error — every slot is empty before its first store.
    fn retrieve(&self, key: &str) -> Result<Option<Bytes>, StorageError>;

    /// Lists the currently occupied slots (order unspecified). Used by
    /// recovery snapshots and debugging tools.
    fn keys(&self) -> Vec<String>;

    /// Begins a store without waiting for durability: the record is
    /// staged (appended, buffered) and becomes durable at the next
    /// [`flush`](StableStorage::flush).
    ///
    /// The default implementation delegates to the blocking
    /// [`store`](StableStorage::store): synchronous backends are durable
    /// on return. [`WalStorage`] overrides this with a real
    /// append-now/fsync-later split ([`group_commits`]), which is what
    /// makes group commit possible: many `begin_store`s, one flush.
    ///
    /// [`group_commits`]: StableStorage::group_commits
    ///
    /// # Errors
    ///
    /// Returns [`StorageError`] if the record could not be staged; the
    /// previous record in the slot must still be intact.
    fn begin_store(&mut self, key: &str, bytes: Bytes) -> Result<(), StorageError> {
        self.store(key, bytes)
    }

    /// Makes every record staged by
    /// [`begin_store`](StableStorage::begin_store) durable (the group
    /// commit: one fsync covers all of them). No-op for synchronous
    /// backends.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError`] if durability could not be achieved; in
    /// that case **none** of the outstanding records may be acknowledged
    /// (the crash-recovery model's answer is to crash the process).
    fn flush(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    /// Whether [`begin_store`](StableStorage::begin_store) only stages
    /// its record until the next [`flush`](StableStorage::flush) (the
    /// group commit of [`WalStorage`]). `false` for synchronous backends,
    /// whose every `begin_store` is a commit of its own.
    fn group_commits(&self) -> bool {
        false
    }

    /// How many physical fsyncs one commit (a blocking `store`, or a
    /// `flush`) costs on this backend: 0 for memory-backed storage, 2 for
    /// [`FileStorage`] (file + directory), 1 for [`WalStorage`]'s segment
    /// fsync. Instrumentation ([`CountingStorage`]) multiplies commits by
    /// this to report fsync counts.
    fn fsyncs_per_commit(&self) -> u64 {
        1
    }
}

impl StableStorage for Box<dyn StableStorage> {
    fn store(&mut self, key: &str, bytes: Bytes) -> Result<(), StorageError> {
        (**self).store(key, bytes)
    }

    fn retrieve(&self, key: &str) -> Result<Option<Bytes>, StorageError> {
        (**self).retrieve(key)
    }

    fn keys(&self) -> Vec<String> {
        (**self).keys()
    }

    fn begin_store(&mut self, key: &str, bytes: Bytes) -> Result<(), StorageError> {
        (**self).begin_store(key, bytes)
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        (**self).flush()
    }

    fn group_commits(&self) -> bool {
        (**self).group_commits()
    }

    fn fsyncs_per_commit(&self) -> u64 {
        (**self).fsyncs_per_commit()
    }
}

/// Adapter exposing any [`StableStorage`] as the read-only
/// [`rmem_types::StableSnapshot`] view handed to recovering automata.
pub struct SnapshotView<'a, S: StableStorage + ?Sized>(&'a S);

impl<'a, S: StableStorage + ?Sized> SnapshotView<'a, S> {
    /// Wraps a storage reference.
    pub fn new(storage: &'a S) -> Self {
        SnapshotView(storage)
    }
}

impl<S: StableStorage + ?Sized> rmem_types::StableSnapshot for SnapshotView<'_, S> {
    fn get(&self, key: &str) -> Option<Bytes> {
        self.0.retrieve(key).ok().flatten()
    }

    fn keys(&self) -> Vec<String> {
        self.0.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_types::StableSnapshot;

    #[test]
    fn snapshot_view_reads_through() {
        let mut mem = MemStorage::new();
        mem.store("written", Bytes::from_static(b"x")).unwrap();
        let view = SnapshotView::new(&mem);
        assert_eq!(view.get("written"), Some(Bytes::from_static(b"x")));
        assert_eq!(view.get("missing"), None);
    }
}
