//! Property-based tests for the foundational types: the timestamp order is
//! a total order compatible with the paper's lexicographic comparison, and
//! the wire codec roundtrips arbitrary messages.

use proptest::prelude::*;
use rmem_types::codec::{decode_message, encode_message};
use rmem_types::{Message, ProcessId, RequestId, Timestamp, Value};

fn arb_process_id() -> impl Strategy<Value = ProcessId> {
    (0u16..64).prop_map(ProcessId)
}

fn arb_timestamp() -> impl Strategy<Value = Timestamp> {
    (any::<u64>(), arb_process_id()).prop_map(|(seq, pid)| Timestamp { seq, pid })
}

fn arb_request_id() -> impl Strategy<Value = RequestId> {
    (arb_process_id(), any::<u64>(), 0u16..8).prop_map(|(origin, nonce, reg)| {
        RequestId::for_register(origin, nonce, rmem_types::RegisterId(reg))
    })
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::bottom()),
        proptest::collection::vec(any::<u8>(), 0..512).prop_map(Value::new),
        any::<u32>().prop_map(Value::from_u32),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_request_id().prop_map(|req| Message::SnReq { req }),
        (arb_request_id(), any::<u64>()).prop_map(|(req, seq)| Message::SnAck { req, seq }),
        (arb_request_id(), arb_timestamp(), arb_value())
            .prop_map(|(req, ts, value)| Message::Write { req, ts, value }),
        arb_request_id().prop_map(|req| Message::WriteAck { req }),
        arb_request_id().prop_map(|req| Message::Read { req }),
        (
            arb_request_id(),
            arb_timestamp(),
            arb_value(),
            any::<bool>(),
            any::<u32>()
        )
            .prop_map(|(req, ts, value, durable, grant)| Message::ReadAck {
                req,
                ts,
                value,
                durable,
                grant,
            }),
    ]
}

proptest! {
    /// Lexicographic order: seq strictly dominates, pid breaks ties.
    #[test]
    fn timestamp_order_is_lexicographic(a in arb_timestamp(), b in arb_timestamp()) {
        let expected = (a.seq, a.pid).cmp(&(b.seq, b.pid));
        prop_assert_eq!(a.cmp(&b), expected);
    }

    /// The order is total and antisymmetric.
    #[test]
    fn timestamp_order_is_total(a in arb_timestamp(), b in arb_timestamp()) {
        use std::cmp::Ordering;
        match a.cmp(&b) {
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
            Ordering::Equal => prop_assert_eq!(a, b),
        }
    }

    /// `next` always produces a strictly larger tag regardless of pid.
    #[test]
    fn next_strictly_increases(t in arb_timestamp(), pid in arb_process_id()) {
        prop_assume!(t.seq < u64::MAX);
        prop_assert!(t < t.next(pid));
    }

    /// `next_after_recoveries` dominates `next` by exactly `rec`.
    #[test]
    fn recovery_bump_dominates(t in arb_timestamp(), pid in arb_process_id(), rec in 0u64..1000) {
        prop_assume!(t.seq < u64::MAX - rec - 1);
        let plain = t.next(pid);
        let bumped = t.next_after_recoveries(pid, rec);
        prop_assert_eq!(bumped.seq, plain.seq + rec);
        prop_assert!(bumped >= plain);
    }

    /// Every message survives an encode/decode roundtrip unchanged.
    #[test]
    fn message_codec_roundtrips(msg in arb_message()) {
        let bytes = encode_message(&msg);
        let back = decode_message(&bytes).expect("well-formed encoding must decode");
        prop_assert_eq!(back, msg);
    }

    /// Decoding arbitrary bytes never panics — it either yields a message
    /// or a clean error (transports feed raw datagrams straight in).
    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_message(&bytes);
    }

    /// Encodings are canonical: distinct messages have distinct encodings.
    #[test]
    fn encoding_is_injective(a in arb_message(), b in arb_message()) {
        if a != b {
            prop_assert_ne!(encode_message(&a), encode_message(&b));
        }
    }
}

proptest! {
    /// `request_id_mut` reaches the very id `request_id` reads, on every
    /// variant.
    #[test]
    fn request_id_mut_and_request_id_agree(msg in arb_message(), to in arb_request_id()) {
        let (read, mut msg) = (msg.request_id(), msg);
        prop_assert_eq!(*msg.request_id_mut(), read);
        *msg.request_id_mut() = to;
        prop_assert_eq!(msg.request_id(), to);
    }
}
