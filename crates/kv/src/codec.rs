//! Register-payload encoding for store entries.
//!
//! A shard register holds the latest entry written to it. The payload
//! embeds the *key* next to the value —
//! `[key length: u16 BE][key bytes][reserved: u8][value bytes]` — because
//! hashing is lossy: when two keys collide onto one shard, the tag is what
//! lets a `get` distinguish "my value" from "someone else's value parked in
//! my cell" and report the latter as absent instead of serving foreign
//! bytes. The reserved byte is written as 0 and read by nobody.
//!
//! # Bundles
//!
//! A multi-key call (`KvClient::multi_put`) coalesces its puts that land
//! on one shard into a **single register write**. When those puts carry
//! more than one distinct key, the payload is a *bundle*:
//!
//! ```text
//! [0xFFFF][reserved: u8][count: u16][ (key length: u16, key, value length: u32, value) × count ]
//! ```
//!
//! # Op-id frames
//!
//! An exactly-once write (see `KvClient::resolve`) prefixes its payload —
//! entry or bundle alike — with a 12-byte **op-id frame**:
//!
//! ```text
//! [0xFFFC][client: u16][seq: u64][inner payload]
//! ```
//!
//! The frame carries the client-assigned [`OpTag`] identifying the
//! *logical* write, so a recovering client can re-read a register and
//! decide whether its crashed operation landed, and certification can
//! collapse duplicate applications (a retry re-issued under the same tag)
//! into one logical write. Every decoder sees through the frame
//! transparently; **untagged legacy payloads decode unchanged**.
//!
//! The markers `0xFFFF` (bundle) and `0xFFFC` (op-id frame) cannot open a
//! single entry — keys are capped at [`MAX_KEY_LEN`] = 65 531 bytes — so
//! all payload forms are self-describing.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rmem_types::{OpTag, Value};

/// Longest accepted key, in bytes: below every reserved length-prefix
/// marker.
pub const MAX_KEY_LEN: usize = u16::MAX as usize - 4;

/// Length-prefix marker opening a bundle payload.
const BUNDLE_MARKER: u16 = u16::MAX;

/// Length-prefix marker opening an [op-id frame](self#op-id-frames).
const OPID_MARKER: u16 = u16::MAX - 3;

/// Most entries one bundle can carry (the `u16` count field).
pub const MAX_BUNDLE_ENTRIES: usize = u16::MAX as usize;

/// Encoded bytes the optional [op-id frame](self#op-id-frames) costs
/// (marker + client + seq).
pub const OP_TAG_OVERHEAD: usize = 12;

/// Encoded bytes a bundle costs beyond its entries in the worst case
/// (marker + reserved byte + count + the optional
/// [op-id frame](self#op-id-frames)).
///
/// Exposed with [`BUNDLE_ENTRY_OVERHEAD`] so the multi-key driver can
/// size payloads against a transport frame budget without re-deriving
/// the wire format; pinned by a test against [`encode_entries`].
pub const BUNDLE_OVERHEAD: usize = 5 + OP_TAG_OVERHEAD;

/// Encoded bytes each bundle entry costs beyond its key and value bytes
/// (key length prefix + value length prefix).
pub const BUNDLE_ENTRY_OVERHEAD: usize = 6;

/// Encodes a store entry into a register payload. `stamp` is the
/// reserved byte: callers pass 0 ([`crate::ShardRouter::stamp`]).
///
/// # Panics
///
/// Panics if `key` exceeds [`MAX_KEY_LEN`].
pub fn encode_entry(key: &str, value: &Bytes, stamp: u8) -> Value {
    let mut buf = BytesMut::with_capacity(3 + key.len() + value.len());
    encode_entry_into(&mut buf, key, value, stamp);
    Value::new(buf.freeze().to_vec())
}

/// As [`encode_entry`], but appends the wire form into a caller-owned
/// buffer instead of allocating — the pipelined client's zero-copy
/// submission path builds entries directly in its reusable per-slot
/// scratch this way.
///
/// # Panics
///
/// Panics if `key` exceeds [`MAX_KEY_LEN`].
pub fn encode_entry_into(buf: &mut BytesMut, key: &str, value: &Bytes, stamp: u8) {
    assert!(
        key.len() <= MAX_KEY_LEN,
        "key longer than {MAX_KEY_LEN} bytes"
    );
    buf.put_u16(key.len() as u16);
    buf.put_slice(key.as_bytes());
    buf.put_u8(stamp);
    buf.put_slice(value);
}

/// Encodes a store entry carrying the writer's [op-id
/// frame](self#op-id-frames): the entry of [`encode_entry`] prefixed with
/// `tag`. Decoders see through the frame; [`payload_op_tag`] recovers it.
///
/// # Panics
///
/// Panics if `key` exceeds [`MAX_KEY_LEN`].
pub fn encode_entry_tagged(key: &str, value: &Bytes, tag: OpTag) -> Value {
    tag_payload(tag, &encode_entry(key, value, 0))
}

/// Prefixes an encoded entry or bundle payload with an [op-id
/// frame](self#op-id-frames) naming the logical write `tag`.
///
/// # Panics
///
/// Panics on ⊥ (there is no write to tag) and on a payload that already
/// carries a frame (one logical write has exactly one identity).
pub fn tag_payload(tag: OpTag, inner: &Value) -> Value {
    assert!(!inner.is_bottom(), "cannot tag ⊥ — there is no write");
    assert!(
        payload_op_tag(inner).is_none(),
        "payload already carries an op-id frame"
    );
    let inner_bytes = inner.bytes();
    let mut buf = BytesMut::with_capacity(OP_TAG_OVERHEAD + inner_bytes.len());
    buf.put_u16(OPID_MARKER);
    buf.put_u16(tag.client);
    buf.put_u64(tag.seq);
    buf.put_slice(inner_bytes);
    Value::new(buf.freeze().to_vec())
}

/// The [`OpTag`] a payload's [op-id frame](self#op-id-frames) carries:
/// `Some` for tagged entries and bundles, `None` for untagged legacy
/// payloads, ⊥ and malformed payloads.
pub fn payload_op_tag(payload: &Value) -> Option<OpTag> {
    if payload.is_bottom() {
        return None;
    }
    let buf: &[u8] = payload.bytes().as_ref();
    if buf.len() < OP_TAG_OVERHEAD || u16::from_be_bytes([buf[0], buf[1]]) != OPID_MARKER {
        return None;
    }
    Some(OpTag {
        client: u16::from_be_bytes([buf[2], buf[3]]),
        seq: u64::from_be_bytes(buf[4..12].try_into().ok()?),
    })
}

/// Skips a payload's [op-id frame](self#op-id-frames) if present,
/// returning the inner entry/bundle bytes; untagged payloads pass
/// through unchanged.
fn strip_op_frame(buf: &[u8]) -> &[u8] {
    if buf.len() >= OP_TAG_OVERHEAD && u16::from_be_bytes([buf[0], buf[1]]) == OPID_MARKER {
        &buf[OP_TAG_OVERHEAD..]
    } else {
        buf
    }
}

/// Decodes a register payload into `(key, value)`, seeing through an
/// [op-id frame](self#op-id-frames) if one is present.
///
/// Returns `None` for ⊥ (the register was never written), for
/// malformed payloads (a register written through a non-KV client) and
/// for [bundles](self#bundles) (use
/// [`decode_entries`]).
pub fn decode_entry(payload: &Value) -> Option<(String, Bytes)> {
    if payload.is_bottom() {
        return None;
    }
    let mut buf: &[u8] = strip_op_frame(payload.bytes().as_ref());
    if buf.remaining() < 2 {
        return None;
    }
    let key_len = buf.get_u16();
    if key_len > MAX_KEY_LEN as u16 {
        return None;
    }
    let key_len = key_len as usize;
    if buf.remaining() < key_len + 1 {
        return None;
    }
    let key_bytes = buf.copy_to_bytes(key_len);
    let key = String::from_utf8(key_bytes.to_vec()).ok()?;
    buf.advance(1);
    Some((key, Bytes::copy_from_slice(buf.chunk())))
}

/// Encodes a batch of entries into one register payload: a single entry
/// for one key, a [bundle](self#bundles) for several. Keys must be distinct — the multi-key driver coalesces
/// same-key puts (last wins) before encoding.
///
/// # Panics
///
/// Panics on an empty batch, a batch over [`MAX_BUNDLE_ENTRIES`], a
/// duplicate key, or a key over [`MAX_KEY_LEN`].
pub fn encode_entries(entries: &[(&str, Bytes)]) -> Value {
    assert!(!entries.is_empty(), "a batch holds at least one entry");
    assert!(
        entries.len() <= MAX_BUNDLE_ENTRIES,
        "a bundle holds at most {MAX_BUNDLE_ENTRIES} entries"
    );
    if let [(key, value)] = entries {
        return encode_entry(key, value, 0);
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut size = BUNDLE_OVERHEAD;
    for (key, value) in entries {
        assert!(
            key.len() <= MAX_KEY_LEN,
            "key longer than {MAX_KEY_LEN} bytes"
        );
        assert!(seen.insert(*key), "duplicate key {key:?} in a bundle");
        size += BUNDLE_ENTRY_OVERHEAD + key.len() + value.len();
    }
    let mut buf = BytesMut::with_capacity(size);
    buf.put_u16(BUNDLE_MARKER);
    buf.put_u8(0);
    buf.put_u16(entries.len() as u16);
    for (key, value) in entries {
        buf.put_u16(key.len() as u16);
        buf.put_slice(key.as_bytes());
        buf.put_u32(value.len() as u32);
        buf.put_slice(value);
    }
    Value::new(buf.freeze().to_vec())
}

/// Decodes a register payload into its entries — one for a single entry,
/// several for a [bundle](self#bundles) — seeing through an [op-id
/// frame](self#op-id-frames) if one is present. `None` for ⊥ and
/// malformed payloads.
pub fn decode_entries(payload: &Value) -> Option<Vec<(String, Bytes)>> {
    if payload.is_bottom() {
        return None;
    }
    let mut buf: &[u8] = strip_op_frame(payload.bytes().as_ref());
    if buf.remaining() < 2 {
        return None;
    }
    if u16::from_be_bytes([buf[0], buf[1]]) != BUNDLE_MARKER {
        return decode_entry(payload).map(|e| vec![e]);
    }
    buf.advance(2);
    if buf.remaining() < 3 {
        return None;
    }
    buf.advance(1);
    let count = buf.get_u16() as usize;
    if count == 0 {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        if buf.remaining() < 2 {
            return None;
        }
        let key_len = buf.get_u16() as usize;
        if key_len > MAX_KEY_LEN || buf.remaining() < key_len {
            return None;
        }
        let key = String::from_utf8(buf.copy_to_bytes(key_len).to_vec()).ok()?;
        if buf.remaining() < 4 {
            return None;
        }
        let value_len = buf.get_u32() as usize;
        if buf.remaining() < value_len {
            return None;
        }
        entries.push((key, buf.copy_to_bytes(value_len)));
    }
    if buf.has_remaining() {
        return None; // trailing garbage
    }
    Some(entries)
}

/// Decodes a payload and keeps the value only if an entry belongs to
/// `key` (collision-aware `get`; serves singles and bundles alike).
pub fn value_for_key(payload: &Value, key: &str) -> Option<Bytes> {
    decode_entries(payload)?
        .into_iter()
        .find(|(stored, _)| stored == key)
        .map(|(_, value)| value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let v = encode_entry("user:7", &Bytes::from(b"payload".to_vec()), 3);
        let (key, value) = decode_entry(&v).unwrap();
        assert_eq!(key, "user:7");
        assert_eq!(value.as_ref(), b"payload");
    }

    #[test]
    fn empty_value_roundtrips() {
        let v = encode_entry("k", &Bytes::new(), 0);
        let (key, value) = decode_entry(&v).unwrap();
        assert_eq!(key, "k");
        assert!(value.is_empty());
    }

    #[test]
    fn bottom_and_garbage_decode_to_none() {
        assert_eq!(decode_entry(&Value::bottom()), None);
        assert_eq!(decode_entry(&Value::new(vec![0xff])), None);
        // Declared key length exceeds the payload.
        assert_eq!(decode_entry(&Value::new(vec![0x00, 0x09, b'a'])), None);
        // Entry with the key but no reserved byte.
        assert_eq!(decode_entry(&Value::new(vec![0x00, 0x01, b'a'])), None);
    }

    #[test]
    fn value_for_key_filters_collisions() {
        let payload = encode_entry("mine", &Bytes::from(b"1".to_vec()), 0);
        assert!(value_for_key(&payload, "mine").is_some());
        assert!(value_for_key(&payload, "theirs").is_none());
        assert!(value_for_key(&Value::bottom(), "mine").is_none());
    }

    #[test]
    fn bundle_roundtrips_and_serves_every_key() {
        let entries: Vec<(&str, Bytes)> = vec![
            ("a", Bytes::from(b"1".to_vec())),
            ("b", Bytes::from(b"22".to_vec())),
            ("c", Bytes::new()),
        ];
        let payload = encode_entries(&entries);
        let decoded = decode_entries(&payload).unwrap();
        assert_eq!(decoded.len(), 3);
        for (key, value) in &entries {
            assert_eq!(value_for_key(&payload, key).as_ref(), Some(value));
        }
        assert_eq!(value_for_key(&payload, "absent"), None);
        // A bundle is not a single entry.
        assert_eq!(decode_entry(&payload), None);
    }

    #[test]
    fn single_entry_batch_encodes_as_plain_entry() {
        let payload = encode_entries(&[("solo", Bytes::from(b"v".to_vec()))]);
        assert_eq!(
            decode_entry(&payload).unwrap(),
            ("solo".to_string(), Bytes::from(b"v".to_vec()))
        );
        assert_eq!(
            decode_entries(&payload).unwrap(),
            vec![("solo".to_string(), Bytes::from(b"v".to_vec()))]
        );
    }

    #[test]
    fn malformed_bundles_decode_to_none() {
        // Marker with no reserved byte/count.
        assert_eq!(decode_entries(&Value::new(vec![0xff, 0xff])), None);
        assert_eq!(decode_entries(&Value::new(vec![0xff, 0xff, 0])), None);
        // Count of zero.
        assert_eq!(decode_entries(&Value::new(vec![0xff, 0xff, 0, 0, 0])), None);
        // Truncated entry.
        assert_eq!(
            decode_entries(&Value::new(vec![0xff, 0xff, 0, 0, 1, 0, 5, b'a'])),
            None
        );
        // Trailing garbage after a valid bundle.
        let mut bytes = encode_entries(&[
            ("a", Bytes::from(b"1".to_vec())),
            ("b", Bytes::from(b"2".to_vec())),
        ])
        .bytes()
        .to_vec();
        bytes.push(0);
        assert_eq!(decode_entries(&Value::new(bytes)), None);
        assert_eq!(decode_entries(&Value::bottom()), None);
    }

    #[test]
    fn bundle_overhead_constants_are_exact() {
        let entries: Vec<(&str, Bytes)> = vec![
            ("k1", Bytes::from(b"abc".to_vec())),
            ("key2", Bytes::new()),
            ("k3", Bytes::from(vec![0u8; 100])),
        ];
        let entry_bytes: usize = entries
            .iter()
            .map(|(k, v)| BUNDLE_ENTRY_OVERHEAD + k.len() + v.len())
            .sum();
        // The constants describe the worst case: a payload carrying the
        // op-id frame. Untagged legacy payloads cost OP_TAG_OVERHEAD less.
        let bundle = encode_entries(&entries);
        assert_eq!(
            bundle.bytes().len(),
            BUNDLE_OVERHEAD - OP_TAG_OVERHEAD + entry_bytes
        );
        assert_eq!(
            tag_payload(OpTag::new(3, 9), &bundle).bytes().len(),
            BUNDLE_OVERHEAD + entry_bytes
        );
        // A lone entry's wire size, plain and tagged: key length prefix +
        // reserved byte (+ op-id frame). Both stay inside the one-entry
        // bundle estimate the multi-key driver cuts chunks by.
        let value = Bytes::from(b"val".to_vec());
        let plain = encode_entry("key", &value, 0).bytes().len();
        let tagged = encode_entry_tagged("key", &value, OpTag::new(1, 2));
        assert_eq!(plain, 3 + 3 + 3);
        assert_eq!(tagged.bytes().len(), plain + OP_TAG_OVERHEAD);
        assert!(tagged.bytes().len() <= BUNDLE_OVERHEAD + BUNDLE_ENTRY_OVERHEAD + 3 + 3);
    }

    #[test]
    fn tagged_entries_roundtrip_and_decode_transparently() {
        let tag = OpTag::new(7, 0x0123_4567_89ab_cdef);
        let tagged = encode_entry_tagged("user:7", &Bytes::from(b"payload".to_vec()), tag);
        // The frame is recoverable…
        assert_eq!(payload_op_tag(&tagged), Some(tag));
        // …and every decoder sees through it.
        let (key, value) = decode_entry(&tagged).unwrap();
        assert_eq!(key, "user:7");
        assert_eq!(value.as_ref(), b"payload");
        assert_eq!(
            value_for_key(&tagged, "user:7"),
            Some(Bytes::from(b"payload".to_vec()))
        );
        assert_eq!(value_for_key(&tagged, "other"), None);
        // Untagged legacy payloads carry no tag and decode unchanged.
        let legacy = encode_entry("user:7", &Bytes::from(b"payload".to_vec()), 3);
        assert_eq!(payload_op_tag(&legacy), None);
        assert_eq!(decode_entry(&legacy).unwrap().0, "user:7");
    }

    #[test]
    fn tagged_bundles_decode_transparently() {
        let tag = OpTag::new(2, 5);
        let bundle = encode_entries(&[
            ("a", Bytes::from(b"1".to_vec())),
            ("b", Bytes::from(b"2".to_vec())),
        ]);
        let tagged = tag_payload(tag, &bundle);
        assert_eq!(payload_op_tag(&tagged), Some(tag));
        assert_eq!(decode_entries(&tagged).unwrap().len(), 2);
        assert_eq!(
            value_for_key(&tagged, "b"),
            Some(Bytes::from(b"2".to_vec()))
        );
    }

    #[test]
    fn malformed_op_frames_decode_to_none() {
        // A bare marker with no tag body is not an entry (key_len 0xFFFC
        // exceeds MAX_KEY_LEN) and not a valid frame.
        assert_eq!(decode_entry(&Value::new(vec![0xff, 0xfc])), None);
        assert_eq!(payload_op_tag(&Value::new(vec![0xff, 0xfc])), None);
        // A truncated frame (marker + partial tag).
        assert_eq!(
            decode_entries(&Value::new(vec![0xff, 0xfc, 0, 1, 2, 3])),
            None
        );
        // A frame wrapping nothing decodes to no entry.
        let empty_frame = {
            let mut b = vec![0xff, 0xfc];
            b.extend_from_slice(&[0u8; 10]);
            Value::new(b)
        };
        assert_eq!(payload_op_tag(&empty_frame), Some(OpTag::new(0, 0)));
        assert_eq!(decode_entry(&empty_frame), None);
        assert_eq!(payload_op_tag(&Value::bottom()), None);
    }

    #[test]
    #[should_panic(expected = "already carries an op-id frame")]
    fn double_tagging_panics() {
        let tag = OpTag::new(1, 1);
        let once = encode_entry_tagged("k", &Bytes::new(), tag);
        let _ = tag_payload(tag, &once);
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_bundle_keys_panic() {
        let _ = encode_entries(&[
            ("same", Bytes::from(b"1".to_vec())),
            ("same", Bytes::from(b"2".to_vec())),
        ]);
    }

    #[test]
    fn unicode_keys_roundtrip() {
        let v = encode_entry("ключ-🔑", &Bytes::from(vec![1, 2]), 255);
        let (key, _) = decode_entry(&v).unwrap();
        assert_eq!(key, "ключ-🔑");
    }
}
