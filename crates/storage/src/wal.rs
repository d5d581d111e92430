//! A segmented, append-only write-ahead log with group commit.
//!
//! The paper's implementation note (§V-A) writes its log files
//! synchronously because buffered writes would void even transient
//! atomicity. The invariant that actually matters, though, is
//! **ack-after-durable**, not *fsync-per-store*: nothing may be
//! acknowledged before the write covering it is on disk, but *several*
//! writes may share one fsync. [`WalStorage`] exploits exactly that gap:
//!
//! * [`begin_store`](crate::StableStorage::begin_store) appends a
//!   CRC-guarded `(key, bytes)` record to the active segment — a cheap
//!   sequential write, no fsync;
//! * [`flush`](crate::StableStorage::flush) fsyncs the segment once,
//!   making **every** outstanding append durable — the group commit;
//! * the blocking [`store`](crate::StableStorage::store) is simply
//!   `begin_store` + `flush`, so the synchronous contract still holds for
//!   callers that want it.
//!
//! On open the log is replayed in segment order to rebuild the latest
//! record per slot. Every record's CRC is verified; a torn tail (short
//! header, short payload, or CRC mismatch in the newest segment) is
//! **truncated, never trusted**. For a genuine torn write — the only
//! corruption a crash can produce, since appends are sequential — the
//! truncation covers exactly the records whose fsync never returned,
//! which by ack-after-durable were never acknowledged to anyone. The
//! policy is truncate-from-first-bad-record: against *media* corruption
//! of an interior record of the newest segment it also drops the valid
//! records behind the damage (resynchronizing past a record whose
//! length fields are untrustworthy cannot be done soundly), while a bad
//! record in any *older* segment is reported as an error, never
//! guessed around. When the live set shrinks to a small fraction
//! of the log, [`flush`](crate::StableStorage::flush) compacts: the
//! latest records are rewritten into a fresh checkpoint segment and the
//! old segments are deleted (checkpoint first, durably, so a crash
//! between the two steps only leaves redundant history behind).
//!
//! # On-disk format
//!
//! Segments are files named `seg-<16 hex digits>.wal`, replayed in
//! numeric order. Each holds a sequence of records:
//!
//! ```text
//! [crc32 u32 BE][key_len u16 BE][val_len u32 BE][key bytes][val bytes]
//! ```
//!
//! The CRC (IEEE 802.3 polynomial) covers everything after it — both
//! length fields, the key and the value — so a torn length field is as
//! detectable as a torn payload.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::{StableStorage, StorageError};

/// Fixed bytes per record before the key: crc32 + key_len + val_len.
const RECORD_HEADER: usize = 4 + 2 + 4;

/// Segment file prefix/suffix: `seg-<16 hex>.wal`.
const SEG_PREFIX: &str = "seg-";
const SEG_SUFFIX: &str = ".wal";

/// Tuning knobs for [`WalStorage`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Roll to a fresh segment once the active one exceeds this many
    /// bytes (checked at flush, so a group never straddles a roll).
    pub segment_bytes: u64,
    /// Compact when `live_bytes * compact_factor < total_bytes`, i.e.
    /// when the latest-record-per-slot set is less than
    /// `1/compact_factor` of the log.
    pub compact_factor: u64,
    /// Never compact a log smaller than this (compaction costs fsyncs;
    /// tiny logs replay instantly anyway).
    pub compact_min_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 4 * 1024 * 1024,
            compact_factor: 4,
            compact_min_bytes: 256 * 1024,
        }
    }
}

/// What replay found when the log was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Segments replayed (including an empty active segment).
    pub segments_replayed: usize,
    /// Records that passed their CRC and were applied.
    pub records_scanned: u64,
    /// Distinct slots live after replay (latest record per slot).
    pub records_kept: usize,
    /// Bytes cut off the newest segment because the tail was torn
    /// (short or CRC-mismatched).
    pub tail_bytes_truncated: u64,
}

/// A segmented write-ahead log implementing [`StableStorage`] with a real
/// append-now/fsync-later split (see the module docs).
#[derive(Debug)]
pub struct WalStorage {
    dir: PathBuf,
    opts: WalOptions,
    /// Latest record per slot. Reads are served from here; the log is
    /// only read at open.
    index: BTreeMap<String, Bytes>,
    /// Encoded size of the index's records (what a checkpoint would
    /// occupy).
    live_bytes: u64,
    /// Bytes across all segments.
    total_bytes: u64,
    /// Segment ids on disk, ascending; the last one is active.
    segments: Vec<u64>,
    active: fs::File,
    active_len: u64,
    /// Whether records were appended since the last returned fsync.
    staged: bool,
    recovery: RecoverySummary,
}

impl WalStorage {
    /// Opens (creating if necessary) a log directory and replays it.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError`] on I/O failure, or
    /// [`StorageError::Corrupt`]-style I/O errors if a non-tail record
    /// fails its CRC (corruption *inside* the durable prefix is not a
    /// torn write and is never silently dropped).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_with(dir, WalOptions::default())
    }

    /// [`open`](WalStorage::open) with explicit tuning knobs.
    ///
    /// # Errors
    ///
    /// As [`open`](WalStorage::open).
    pub fn open_with(dir: impl AsRef<Path>, opts: WalOptions) -> Result<Self, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| StorageError::io(dir.display().to_string(), e))?;
        let io = |e| StorageError::io(dir.display().to_string(), e);

        let mut segments = list_segments(&dir).map_err(io)?;
        let mut index = BTreeMap::new();
        let mut recovery = RecoverySummary::default();
        let mut total_bytes = 0u64;
        let last = segments.len().checked_sub(1);
        for (i, &seg) in segments.iter().enumerate() {
            let path = segment_path(&dir, seg);
            let data = fs::read(&path).map_err(io)?;
            let (consumed, scanned) =
                replay_segment(&data, &mut index, Some(i) == last).map_err(|offset| {
                    StorageError::io(
                        path.display().to_string(),
                        std::io::Error::other(format!(
                            "CRC mismatch at byte {offset} of a non-tail segment: the durable \
                             prefix is corrupt, refusing to guess"
                        )),
                    )
                })?;
            recovery.records_scanned += scanned;
            if consumed < data.len() as u64 {
                // Torn tail of the newest segment: cut it off durably so
                // the next append starts on a clean boundary.
                recovery.tail_bytes_truncated = data.len() as u64 - consumed;
                let f = fs::OpenOptions::new().write(true).open(&path).map_err(io)?;
                f.set_len(consumed).map_err(io)?;
                f.sync_data().map_err(io)?;
            }
            total_bytes += consumed;
            recovery.segments_replayed += 1;
        }
        if segments.is_empty() {
            create_segment(&dir, 0).map_err(io)?;
            segments.push(0);
            recovery.segments_replayed = 1;
        }
        recovery.records_kept = index.len();
        let active_id = *segments.last().expect("at least one segment");
        let active = fs::OpenOptions::new()
            .append(true)
            .open(segment_path(&dir, active_id))
            .map_err(io)?;
        let active_len = active.metadata().map_err(io)?.len();
        let live_bytes = index.iter().map(|(k, v)| encoded_len(k, v)).sum();
        Ok(WalStorage {
            dir,
            opts,
            index,
            live_bytes,
            total_bytes,
            segments,
            active,
            active_len,
            staged: false,
            recovery,
        })
    }

    /// What replay found when this log was opened.
    pub fn recovery_summary(&self) -> RecoverySummary {
        self.recovery
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Segment ids currently on disk, ascending.
    pub fn segment_ids(&self) -> &[u64] {
        &self.segments
    }

    /// Bytes across all segments (the replay cost of the next open).
    pub fn log_bytes(&self) -> u64 {
        self.total_bytes
    }

    fn io_err(&self, e: std::io::Error) -> StorageError {
        StorageError::io(self.dir.display().to_string(), e)
    }

    /// Rolls to a fresh active segment (durably: the new file and its
    /// directory entry are fsynced before any record lands in it).
    fn roll(&mut self) -> Result<(), StorageError> {
        let next = self.segments.last().expect("segments nonempty") + 1;
        self.active = create_segment(&self.dir, next).map_err(|e| self.io_err(e))?;
        self.segments.push(next);
        self.active_len = 0;
        Ok(())
    }

    /// Rewrites the live set into a checkpoint segment and deletes the
    /// history. Called under flush once the live set is a small fraction
    /// of the log. Crash-safe ordering: the checkpoint is fully durable
    /// (data + directory entry) before anything is deleted, and replay
    /// order means a crash in between only costs redundant bytes.
    fn compact(&mut self) -> Result<(), StorageError> {
        let ckpt_id = self.segments.last().expect("segments nonempty") + 1;
        let mut ckpt = create_segment(&self.dir, ckpt_id).map_err(|e| self.io_err(e))?;
        let mut written = 0u64;
        for (key, value) in &self.index {
            let rec = encode_record(key, value);
            ckpt.write_all(&rec).map_err(|e| self.io_err(e))?;
            written += rec.len() as u64;
        }
        ckpt.sync_data().map_err(|e| self.io_err(e))?;
        sync_dir(&self.dir).map_err(|e| self.io_err(e))?;
        for &old in &self.segments {
            fs::remove_file(segment_path(&self.dir, old)).map_err(|e| self.io_err(e))?;
        }
        sync_dir(&self.dir).map_err(|e| self.io_err(e))?;
        self.segments = vec![ckpt_id];
        self.total_bytes = written;
        self.active = ckpt;
        self.active_len = written;
        Ok(())
    }
}

impl StableStorage for WalStorage {
    fn store(&mut self, key: &str, bytes: Bytes) -> Result<(), StorageError> {
        self.begin_store(key, bytes)?;
        self.flush()
    }

    fn retrieve(&self, key: &str) -> Result<Option<Bytes>, StorageError> {
        Ok(self.index.get(key).cloned())
    }

    fn keys(&self) -> Vec<String> {
        self.index.keys().cloned().collect()
    }

    fn begin_store(&mut self, key: &str, bytes: Bytes) -> Result<(), StorageError> {
        let rec = encode_record(key, &bytes);
        self.active
            .write_all(&rec)
            .map_err(|e| StorageError::io(key, e))?;
        self.active_len += rec.len() as u64;
        self.total_bytes += rec.len() as u64;
        if let Some(old) = self.index.insert(key.to_string(), bytes) {
            self.live_bytes -= encoded_len(key, &old);
        }
        self.live_bytes += rec.len() as u64;
        self.staged = true;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        if !self.staged {
            return Ok(());
        }
        self.active.sync_data().map_err(|e| self.io_err(e))?;
        self.staged = false;
        // Maintenance after the commit point, so the group's latency is
        // one fsync and the occasional roll/compact rides behind it.
        if self.total_bytes > self.opts.compact_min_bytes
            && self.live_bytes.saturating_mul(self.opts.compact_factor) < self.total_bytes
        {
            self.compact()?;
        } else if self.active_len > self.opts.segment_bytes {
            self.roll()?;
        }
        Ok(())
    }

    fn group_commits(&self) -> bool {
        true
    }

    fn fsyncs_per_commit(&self) -> u64 {
        1
    }
}

// -- Encoding ------------------------------------------------------------

fn encoded_len(key: &str, value: &Bytes) -> u64 {
    (RECORD_HEADER + key.len() + value.len()) as u64
}

fn encode_record(key: &str, value: &Bytes) -> Vec<u8> {
    let key = key.as_bytes();
    assert!(key.len() <= u16::MAX as usize, "slot name too long");
    assert!(value.len() <= u32::MAX as usize, "record too large");
    let mut out = Vec::with_capacity(RECORD_HEADER + key.len() + value.len());
    out.extend_from_slice(&[0u8; 4]); // crc placeholder
    out.extend_from_slice(&(key.len() as u16).to_be_bytes());
    out.extend_from_slice(&(value.len() as u32).to_be_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let crc = crc32(&out[4..]);
    out[..4].copy_from_slice(&crc.to_be_bytes());
    out
}

/// Replays one segment's bytes into `index`. Returns `(bytes consumed,
/// records applied)`. A short or CRC-mismatched record is tolerated (and
/// everything after it ignored) only when `is_last` — a torn tail can
/// only exist at the end of the newest segment; anywhere else it is
/// corruption of the durable prefix and the error carries the offset.
fn replay_segment(
    data: &[u8],
    index: &mut BTreeMap<String, Bytes>,
    is_last: bool,
) -> Result<(u64, u64), u64> {
    let mut off = 0usize;
    let mut applied = 0u64;
    // Short header at the end of the data: torn tail candidate.
    while let Some(header) = data.get(off..off + RECORD_HEADER) {
        let crc = u32::from_be_bytes(header[0..4].try_into().expect("4 bytes"));
        let key_len = u16::from_be_bytes(header[4..6].try_into().expect("2 bytes")) as usize;
        let val_len = u32::from_be_bytes(header[6..10].try_into().expect("4 bytes")) as usize;
        let body_end = off + RECORD_HEADER + key_len + val_len;
        let Some(covered) = data.get(off + 4..body_end) else {
            break; // short payload: torn tail candidate
        };
        if crc32(covered) != crc {
            break; // CRC mismatch: torn tail candidate
        }
        let key = match std::str::from_utf8(&covered[6..6 + key_len]) {
            Ok(k) => k.to_string(),
            Err(_) => break, // CRC passed but the key is not UTF-8: treat as torn
        };
        index.insert(key, Bytes::copy_from_slice(&covered[6 + key_len..]));
        applied += 1;
        off = body_end;
        if off == data.len() {
            return Ok((off as u64, applied));
        }
    }
    if is_last {
        Ok((off as u64, applied))
    } else {
        Err(off as u64)
    }
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{SEG_PREFIX}{id:016x}{SEG_SUFFIX}"))
}

fn list_segments(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut ids = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(hex) = name
            .strip_prefix(SEG_PREFIX)
            .and_then(|s| s.strip_suffix(SEG_SUFFIX))
        {
            if let Ok(id) = u64::from_str_radix(hex, 16) {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

/// Creates a fresh segment durably: the empty file is fsynced, then the
/// directory, so the segment's existence survives a crash before its
/// first group lands.
fn create_segment(dir: &Path, id: u64) -> std::io::Result<fs::File> {
    let f = fs::OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(segment_path(dir, id))?;
    f.sync_all()?;
    sync_dir(dir)?;
    Ok(f)
}

fn sync_dir(dir: &Path) -> std::io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

// -- CRC-32 (IEEE 802.3), table-driven ----------------------------------

fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rmem-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn store_retrieve_roundtrip_and_reopen() {
        let dir = tmpdir("roundtrip");
        {
            let mut w = WalStorage::open(&dir).unwrap();
            assert_eq!(w.retrieve("written").unwrap(), None);
            w.store("written", Bytes::from_static(b"hello")).unwrap();
            w.store("writing", Bytes::from_static(b"w0")).unwrap();
            w.store("written", Bytes::from_static(b"world")).unwrap();
            assert_eq!(
                w.retrieve("written").unwrap(),
                Some(Bytes::from_static(b"world"))
            );
            assert_eq!(w.keys(), vec!["writing".to_string(), "written".to_string()]);
        }
        let w = WalStorage::open(&dir).unwrap();
        let r = w.recovery_summary();
        assert_eq!(
            w.retrieve("written").unwrap(),
            Some(Bytes::from_static(b"world"))
        );
        assert_eq!(
            w.retrieve("writing").unwrap(),
            Some(Bytes::from_static(b"w0"))
        );
        assert_eq!(r.records_scanned, 3);
        assert_eq!(r.records_kept, 2);
        assert_eq!(r.tail_bytes_truncated, 0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn group_commit_stages_until_flush() {
        let dir = tmpdir("group");
        let mut w = WalStorage::open(&dir).unwrap();
        assert!(!w.staged, "a fresh log has nothing to commit");
        w.begin_store("a", Bytes::from_static(b"1")).unwrap();
        w.begin_store("b", Bytes::from_static(b"2")).unwrap();
        assert!(w.staged, "both records wait for a flush");
        w.flush().unwrap();
        assert!(!w.staged, "one flush covers the whole group");
        // Nothing staged: the flush is an Ok no-op that skips the fsync.
        w.flush().unwrap();
        assert!(!w.staged);
        // A store after a flush waits for the next one.
        w.begin_store("c", Bytes::from_static(b"3")).unwrap();
        assert!(w.staged);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        let full_state;
        {
            let mut w = WalStorage::open(&dir).unwrap();
            w.store("a", Bytes::from_static(b"first")).unwrap();
            w.store("b", Bytes::from_static(b"second")).unwrap();
            full_state = w.log_bytes();
        }
        // Tear the last record: cut three bytes off the segment.
        let seg = segment_path(&dir, 0);
        let len = fs::metadata(&seg).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let w = WalStorage::open(&dir).unwrap();
        let r = w.recovery_summary();
        assert_eq!(w.retrieve("a").unwrap(), Some(Bytes::from_static(b"first")));
        assert_eq!(w.retrieve("b").unwrap(), None, "the torn record is gone");
        assert_eq!(r.records_kept, 1);
        assert!(r.tail_bytes_truncated > 0);
        assert!(w.log_bytes() < full_state);
        // The truncation is durable: a third open sees a clean log.
        drop(w);
        let w = WalStorage::open(&dir).unwrap();
        assert_eq!(w.recovery_summary().tail_bytes_truncated, 0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn crc_corruption_in_the_tail_truncates_there() {
        let dir = tmpdir("crc");
        {
            let mut w = WalStorage::open(&dir).unwrap();
            w.store("a", Bytes::from_static(b"keep")).unwrap();
            w.store("b", Bytes::from_static(b"lose")).unwrap();
        }
        let seg = segment_path(&dir, 0);
        let mut data = fs::read(&seg).unwrap();
        // Flip a payload byte of the second record.
        let first_len = RECORD_HEADER + 1 + 4;
        let target = first_len + RECORD_HEADER + 1;
        data[target] ^= 0xFF;
        fs::write(&seg, &data).unwrap();

        let w = WalStorage::open(&dir).unwrap();
        assert_eq!(w.retrieve("a").unwrap(), Some(Bytes::from_static(b"keep")));
        assert_eq!(w.retrieve("b").unwrap(), None);
        assert_eq!(w.recovery_summary().records_kept, 1);
        assert!(w.recovery_summary().tail_bytes_truncated > 0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corruption_in_a_non_tail_segment_is_an_error_not_a_guess() {
        let dir = tmpdir("deepcorrupt");
        {
            let mut w = WalStorage::open_with(
                &dir,
                WalOptions {
                    segment_bytes: 32, // force a roll almost immediately
                    compact_factor: 1, // live*1 < total is never true: no compaction
                    compact_min_bytes: u64::MAX,
                },
            )
            .unwrap();
            w.store("a", Bytes::from(vec![1u8; 40])).unwrap();
            w.store("b", Bytes::from(vec![2u8; 40])).unwrap();
            assert!(w.segment_ids().len() >= 2, "the log must have rolled");
        }
        // Corrupt the FIRST segment (not the newest): replay must refuse.
        let seg = segment_path(&dir, 0);
        let mut data = fs::read(&seg).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        fs::write(&seg, &data).unwrap();
        let err = WalStorage::open(&dir).unwrap_err();
        assert!(
            err.to_string().contains("non-tail"),
            "unexpected error: {err}"
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn segments_roll_at_the_size_threshold() {
        let dir = tmpdir("roll");
        let mut w = WalStorage::open_with(
            &dir,
            WalOptions {
                segment_bytes: 64,
                compact_factor: 1,
                compact_min_bytes: u64::MAX,
            },
        )
        .unwrap();
        for i in 0..8u8 {
            w.store(&format!("k{i}"), Bytes::from(vec![i; 40])).unwrap();
        }
        assert!(w.segment_ids().len() > 1, "the log must roll");
        drop(w);
        let w = WalStorage::open(&dir).unwrap();
        assert_eq!(w.recovery_summary().records_kept, 8);
        for i in 0..8u8 {
            assert_eq!(
                w.retrieve(&format!("k{i}")).unwrap(),
                Some(Bytes::from(vec![i; 40]))
            );
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn compaction_shrinks_the_log_and_preserves_the_live_set() {
        let dir = tmpdir("compact");
        let mut w = WalStorage::open_with(
            &dir,
            WalOptions {
                segment_bytes: u64::MAX,
                compact_factor: 4,
                compact_min_bytes: 1024,
            },
        )
        .unwrap();
        // Overwrite two slots many times: the live set stays 2 records
        // while the log grows, until compaction kicks in.
        for round in 0..200u32 {
            w.store("x", Bytes::from(round.to_be_bytes().to_vec()))
                .unwrap();
            w.store("y", Bytes::from((round + 1).to_be_bytes().to_vec()))
                .unwrap();
        }
        assert!(
            w.log_bytes() < 1024,
            "compaction must have run (log is {} bytes)",
            w.log_bytes()
        );
        assert_eq!(
            w.retrieve("x").unwrap(),
            Some(Bytes::from(199u32.to_be_bytes().to_vec()))
        );
        drop(w);
        let w = WalStorage::open(&dir).unwrap();
        assert_eq!(w.recovery_summary().records_kept, 2);
        assert_eq!(
            w.retrieve("y").unwrap(),
            Some(Bytes::from(200u32.to_be_bytes().to_vec()))
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn empty_value_and_weird_keys_roundtrip() {
        let dir = tmpdir("edge");
        {
            let mut w = WalStorage::open(&dir).unwrap();
            w.store("", Bytes::new()).unwrap();
            w.store("a/b c%", Bytes::from_static(b"x")).unwrap();
        }
        let w = WalStorage::open(&dir).unwrap();
        assert_eq!(w.retrieve("").unwrap(), Some(Bytes::new()));
        assert_eq!(
            w.retrieve("a/b c%").unwrap(),
            Some(Bytes::from_static(b"x"))
        );
        fs::remove_dir_all(dir).unwrap();
    }
}
