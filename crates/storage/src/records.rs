//! The typed stable-storage records of the paper's pseudocode.
//!
//! Three slots exist across the two algorithms:
//!
//! | slot | written by | meaning |
//! |---|---|---|
//! | `writing` | persistent writer, Fig. 4 line 12 | the tag/value about to be propagated, so a recovering writer can finish the write — **and** the writer's own replica record of that tag: its replica role attests the tag durable from this record and never logs it again under `written` |
//! | `written` | every replica, Fig. 4 line 24 | the newest tag/value the replica adopted from a propagation round (a node's own writes live in `writing` only) |
//! | `recovered` | transient recovery, Fig. 5 line 21 | how many times this process has recovered (folded into new sequence numbers, Fig. 5 line 11) |
//!
//! A recovering process therefore restores its replica from the newer of
//! `written` and `writing`. No initial `writing` record is stored at
//! first boot: an absent (or torn, undecodable) slot means "no write to
//! finish". Successive `writing` records of one process carry strictly
//! increasing tags.
//!
//! Records use the same binary primitives as the wire codec, prefixed with
//! a version byte so the on-disk format can evolve.

use bytes::{Bytes, BytesMut};

use rmem_types::codec;
use rmem_types::{DecodeError, Timestamp, Value};

/// Slot name for [`WritingRecord`].
pub const KEY_WRITING: &str = "writing";
/// Slot name for [`WrittenRecord`].
pub const KEY_WRITTEN: &str = "written";
/// Slot name for [`RecoveredRecord`].
pub const KEY_RECOVERED: &str = "recovered";

const RECORD_VERSION: u8 = 1;

fn check_version(buf: &mut &[u8], context: &'static str) -> Result<(), DecodeError> {
    let v = codec::get_u8(buf, context)?;
    if v != RECORD_VERSION {
        return Err(DecodeError::BadTag { context, tag: v });
    }
    Ok(())
}

fn finish(buf: &[u8]) -> Result<(), DecodeError> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(DecodeError::TrailingBytes {
            remaining: buf.len(),
        })
    }
}

/// `store(writing, sn, v)` — the persistent writer's pre-propagation log
/// (Fig. 4 line 12), doubling as the writer's replica record of the tag.
/// The tag's pid component is the writer itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritingRecord {
    /// The tag the writer chose for this write.
    pub ts: Timestamp,
    /// The value being written.
    pub value: Value,
}

impl WritingRecord {
    /// Encodes the record for storage.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16 + self.value.len());
        codec::put_u8(&mut buf, RECORD_VERSION);
        codec::put_timestamp(&mut buf, self.ts);
        codec::put_value(&mut buf, &self.value);
        buf.freeze()
    }

    /// Decodes a record previously produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation, version mismatch or trailing
    /// bytes.
    pub fn decode(mut bytes: &[u8]) -> Result<Self, DecodeError> {
        const CTX: &str = "WritingRecord";
        check_version(&mut bytes, CTX)?;
        let ts = codec::get_timestamp(&mut bytes, CTX)?;
        let value = codec::get_value(&mut bytes, CTX)?;
        finish(bytes)?;
        Ok(WritingRecord { ts, value })
    }
}

/// `store(written, sn, pid, v)` — a replica's adopted tag/value (Fig. 4
/// line 24; also written by `Initialize`, line 4). Not rewritten for a
/// tag the node itself pre-logged under `writing`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrittenRecord {
    /// The adopted tag (`[sn, pid]` in the pseudocode).
    pub ts: Timestamp,
    /// The adopted value.
    pub value: Value,
}

impl WrittenRecord {
    /// The record `Initialize` writes before any write is seen (Fig. 4
    /// line 4): tag `[0, me]`… the paper stores `(0, i, ⊥)`.
    pub fn initial(me: rmem_types::ProcessId) -> Self {
        WrittenRecord {
            ts: Timestamp::new(0, me),
            value: Value::bottom(),
        }
    }

    /// Encodes the record for storage.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16 + self.value.len());
        codec::put_u8(&mut buf, RECORD_VERSION);
        codec::put_timestamp(&mut buf, self.ts);
        codec::put_value(&mut buf, &self.value);
        buf.freeze()
    }

    /// Decodes a record previously produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation, version mismatch or trailing
    /// bytes.
    pub fn decode(mut bytes: &[u8]) -> Result<Self, DecodeError> {
        const CTX: &str = "WrittenRecord";
        check_version(&mut bytes, CTX)?;
        let ts = codec::get_timestamp(&mut bytes, CTX)?;
        let value = codec::get_value(&mut bytes, CTX)?;
        finish(bytes)?;
        Ok(WrittenRecord { ts, value })
    }
}

/// `store(recovered, rec)` — the transient algorithm's stable recovery
/// counter (Fig. 5 lines 3 and 19–21).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredRecord {
    /// Number of recoveries this process has completed.
    pub count: u64,
}

impl RecoveredRecord {
    /// Encodes the record for storage.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(9);
        codec::put_u8(&mut buf, RECORD_VERSION);
        codec::put_u64(&mut buf, self.count);
        buf.freeze()
    }

    /// Decodes a record previously produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation, version mismatch or trailing
    /// bytes.
    pub fn decode(mut bytes: &[u8]) -> Result<Self, DecodeError> {
        const CTX: &str = "RecoveredRecord";
        check_version(&mut bytes, CTX)?;
        let count = codec::get_u64(&mut bytes, CTX)?;
        finish(bytes)?;
        Ok(RecoveredRecord { count })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_types::ProcessId;

    #[test]
    fn writing_record_roundtrips() {
        let rec = WritingRecord {
            ts: Timestamp::new(9, ProcessId(2)),
            value: Value::from_u32(1234),
        };
        assert_eq!(WritingRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn written_record_roundtrips_including_bottom() {
        let rec = WrittenRecord::initial(ProcessId(3));
        let back = WrittenRecord::decode(&rec.encode()).unwrap();
        assert_eq!(back, rec);
        assert!(back.value.is_bottom());
        assert_eq!(back.ts, Timestamp::new(0, ProcessId(3)));
    }

    #[test]
    fn recovered_record_roundtrips() {
        let rec = RecoveredRecord { count: 17 };
        assert_eq!(RecoveredRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn truncated_records_fail_cleanly() {
        let rec = WritingRecord {
            ts: Timestamp::new(1, ProcessId(0)),
            value: Value::from("data"),
        };
        let bytes = rec.encode();
        for cut in 0..bytes.len() {
            assert!(WritingRecord::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let rec = RecoveredRecord { count: 1 };
        let mut bytes = rec.encode().to_vec();
        bytes[0] = 99;
        assert!(matches!(
            RecoveredRecord::decode(&bytes),
            Err(DecodeError::BadTag { tag: 99, .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = RecoveredRecord { count: 1 }.encode().to_vec();
        bytes.push(7);
        assert!(matches!(
            RecoveredRecord::decode(&bytes),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn slot_names_match_pseudocode() {
        assert_eq!(KEY_WRITING, "writing");
        assert_eq!(KEY_WRITTEN, "written");
        assert_eq!(KEY_RECOVERED, "recovered");
    }
}
