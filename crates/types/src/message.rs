//! The wire messages shared by every emulation algorithm.
//!
//! All three emulations (crash-stop baseline, transient, persistent) use
//! the same six message types, mirroring the listeners of Fig. 4
//! lines 17–30:
//!
//! * `SnReq` / `SnAck` — the write query round (lines 8/18–20);
//! * `Write` / `WriteAck` — the propagation round, also used by the read
//!   write-back (lines 14/21–27 and 37);
//! * `Read` / `ReadAck` — the read query round (lines 33/28–30).

use crate::process::ProcessId;
use crate::timestamp::{Seq, Timestamp};
use crate::value::Value;

/// Correlates acknowledgements with the broadcast round that solicited
/// them.
///
/// Every quorum round a process starts gets a fresh `RequestId`; replicas
/// echo it in their acks so retransmitted rounds and long-delayed stale
/// acks are filtered correctly (the fair-lossy channel may deliver
/// duplicates arbitrarily late).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId {
    /// The process that started the round.
    pub origin: ProcessId,
    /// Per-origin round counter (never reused within a process incarnation;
    /// recovered incarnations start a disjoint nonce range).
    pub nonce: u64,
    /// The register of the shared memory this round belongs to
    /// ([`RegisterId::ZERO`](crate::RegisterId::ZERO) for single-register
    /// emulations). Carried on the wire so every process can route the
    /// message to the right per-register state.
    pub reg: crate::RegisterId,
}

impl RequestId {
    /// Creates a request id for the default register.
    pub fn new(origin: ProcessId, nonce: u64) -> Self {
        RequestId {
            origin,
            nonce,
            reg: crate::RegisterId::ZERO,
        }
    }

    /// Creates a request id addressing a specific register.
    pub fn for_register(origin: ProcessId, nonce: u64, reg: crate::RegisterId) -> Self {
        RequestId { origin, nonce, reg }
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.reg == crate::RegisterId::ZERO {
            write!(f, "{}@{}", self.origin, self.nonce)
        } else {
            write!(f, "{}@{}/{}", self.origin, self.nonce, self.reg)
        }
    }
}

/// Identity of an originating client operation, propagated on the wire so
/// flight-recorder events on *every* node an op touches can be stamped with
/// the op that caused them (not just the local register), and later stitched
/// into one cross-node causal timeline.
///
/// `client` is a process-wide client-family id with the high bit set
/// ([`TraceId::CLIENT_BIT`]) so it can never collide with a node
/// [`ProcessId`] where recorders store an op origin; `op` is a per-family
/// monotonic counter, so every invocation attempt carries a fresh id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId {
    /// Client-family id (always has [`TraceId::CLIENT_BIT`] set).
    pub client: u16,
    /// Per-family operation counter.
    pub op: u64,
}

impl TraceId {
    /// High bit distinguishing client-family ids from node process ids in
    /// recorder op fields.
    pub const CLIENT_BIT: u16 = 0x8000;

    /// Creates a trace id, forcing the client bit on.
    pub fn new(client: u16, op: u64) -> Self {
        TraceId {
            client: client | Self::CLIENT_BIT,
            op,
        }
    }

    /// Allocates a process-wide fresh client-family id (client bit set).
    /// Wraps within 15 bits — collisions need 32k live client families.
    pub fn fresh_client() -> u16 {
        use std::sync::atomic::{AtomicU16, Ordering};
        static NEXT: AtomicU16 = AtomicU16::new(0);
        (NEXT.fetch_add(1, Ordering::Relaxed) & !Self::CLIENT_BIT) | Self::CLIENT_BIT
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}#{}", self.client & !Self::CLIENT_BIT, self.op)
    }
}

/// A message of the emulation protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Query round of a write: "send me your sequence number" (Fig. 4
    /// line 8).
    SnReq {
        /// Round correlation id.
        req: RequestId,
    },
    /// Reply to [`Message::SnReq`] carrying the replica's current sequence
    /// number (Fig. 4 line 19).
    SnAck {
        /// Round correlation id, echoed.
        req: RequestId,
        /// The replica's current sequence number.
        seq: Seq,
    },
    /// Propagation round of a write — and of a read's write-back phase
    /// (Fig. 4 lines 14 and 37): "adopt this tagged value if it is newer".
    Write {
        /// Round correlation id.
        req: RequestId,
        /// The tag `[sn, pid]` of the value.
        ts: Timestamp,
        /// The value itself.
        value: Value,
    },
    /// Acknowledgement of [`Message::Write`], sent **after** the replica
    /// logged the adopted value in the logging emulations (Fig. 4
    /// lines 24–26).
    WriteAck {
        /// Round correlation id, echoed.
        req: RequestId,
    },
    /// Query round of a read: "send me your tagged value" (Fig. 4
    /// line 33).
    Read {
        /// Round correlation id.
        req: RequestId,
    },
    /// Reply to [`Message::Read`] (Fig. 4 line 29).
    ReadAck {
        /// Round correlation id, echoed.
        req: RequestId,
        /// The replica's current tag.
        ts: Timestamp,
        /// The replica's current value.
        value: Value,
        /// Whether the reported tag is covered by the replica's stable
        /// `written` record (always `true` for non-logging flavors, whose
        /// volatile state is as stable as their model gets). The reader's
        /// one-round fast path may only skip its write-back when **every**
        /// replier in the quorum attests durability of one agreed tag —
        /// a volatile-only tag could vanish in a total crash, and a read
        /// that returned it without write-back would re-enable the
        /// new-old inversion the write-back exists to prevent.
        ///
        /// A replica holding outstanding tag-lease grants additionally
        /// reports tags *newer than the minimum tag it granted to a
        /// process other than the reader* as non-durable: such a tag is
        /// still fenced behind live leases (its write acknowledgements
        /// are parked), so a fast-path read returning it early would let
        /// a leased read elsewhere invert the order.
        durable: bool,
        /// Tag-lease grant, in microseconds (0 = no grant). A replica
        /// reporting a durable, lease-clear tag under a leasing flavor
        /// promises the reader to withhold acknowledgements of any newer
        /// write *from another process* for at least this long after
        /// sending the ack; a unanimous durable quorum whose acks all
        /// carry a grant mints a lease for the agreed tag, held by the
        /// reading coordinator and nobody else.
        grant: u32,
    },
}

impl Message {
    /// The correlation id carried by this message.
    pub fn request_id(&self) -> RequestId {
        match self {
            Message::SnReq { req }
            | Message::SnAck { req, .. }
            | Message::Write { req, .. }
            | Message::WriteAck { req }
            | Message::Read { req }
            | Message::ReadAck { req, .. } => *req,
        }
    }

    /// The correlation id carried by this message, to rewrite in place.
    pub fn request_id_mut(&mut self) -> &mut RequestId {
        match self {
            Message::SnReq { req }
            | Message::SnAck { req, .. }
            | Message::Write { req, .. }
            | Message::WriteAck { req }
            | Message::Read { req }
            | Message::ReadAck { req, .. } => req,
        }
    }

    /// Whether this message is a request (solicits an ack) as opposed to an
    /// acknowledgement.
    pub fn is_request(&self) -> bool {
        matches!(
            self,
            Message::SnReq { .. } | Message::Write { .. } | Message::Read { .. }
        )
    }

    /// Short human-readable label used in traces.
    pub fn label(&self) -> &'static str {
        match self {
            Message::SnReq { .. } => "SN",
            Message::SnAck { .. } => "SN_ack",
            Message::Write { .. } => "W",
            Message::WriteAck { .. } => "W_ack",
            Message::Read { .. } => "R",
            Message::ReadAck { .. } => "R_ack",
        }
    }

    /// The approximate payload this message contributes to a datagram, in
    /// bytes — used by the size-sensitive latency model of the Fig. 6
    /// (bottom) experiment.
    pub fn payload_len(&self) -> usize {
        match self {
            Message::Write { value, .. } | Message::ReadAck { value, .. } => value.len(),
            _ => 0,
        }
    }
}

impl std::fmt::Display for Message {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Message::SnReq { req } => write!(f, "SN({req})"),
            Message::SnAck { req, seq } => write!(f, "SN_ack({req},sn={seq})"),
            Message::Write { req, ts, value } => write!(f, "W({req},{ts},{value})"),
            Message::WriteAck { req } => write!(f, "W_ack({req})"),
            Message::Read { req } => write!(f, "R({req})"),
            Message::ReadAck {
                req,
                ts,
                value,
                durable,
                grant,
            } => {
                let marker = if *durable { "" } else { ",volatile" };
                if *grant > 0 {
                    write!(f, "R_ack({req},{ts},{value}{marker},lease={grant}µs)")
                } else {
                    write!(f, "R_ack({req},{ts},{value}{marker})")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid() -> RequestId {
        RequestId::new(ProcessId(1), 7)
    }

    #[test]
    fn request_id_is_extracted_from_every_variant() {
        let ts = Timestamp::new(1, ProcessId(1));
        let v = Value::from_u32(5);
        let msgs = [
            Message::SnReq { req: rid() },
            Message::SnAck { req: rid(), seq: 3 },
            Message::Write {
                req: rid(),
                ts,
                value: v.clone(),
            },
            Message::WriteAck { req: rid() },
            Message::Read { req: rid() },
            Message::ReadAck {
                req: rid(),
                ts,
                value: v,
                durable: true,
                grant: 0,
            },
        ];
        for m in &msgs {
            assert_eq!(m.request_id(), rid());
        }
    }

    #[test]
    fn request_vs_ack_classification() {
        assert!(Message::SnReq { req: rid() }.is_request());
        assert!(Message::Read { req: rid() }.is_request());
        assert!(!Message::WriteAck { req: rid() }.is_request());
        assert!(!Message::SnAck { req: rid(), seq: 0 }.is_request());
    }

    #[test]
    fn payload_len_counts_only_value_bearing_messages() {
        let v = Value::new(vec![0u8; 1024]);
        let ts = Timestamp::ZERO;
        assert_eq!(
            Message::Write {
                req: rid(),
                ts,
                value: v.clone()
            }
            .payload_len(),
            1024
        );
        assert_eq!(
            Message::ReadAck {
                req: rid(),
                ts,
                value: v,
                durable: true,
                grant: 0
            }
            .payload_len(),
            1024
        );
        assert_eq!(Message::SnReq { req: rid() }.payload_len(), 0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Message::SnReq { req: rid() }.label(), "SN");
        assert_eq!(Message::WriteAck { req: rid() }.label(), "W_ack");
    }
}
