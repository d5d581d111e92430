//! The transport abstraction.

use rmem_types::{Message, ProcessId, TraceId};

use crate::error::NetError;

/// A message received from the network.
#[derive(Debug, Clone)]
pub struct Inbound {
    /// The sending process.
    pub from: ProcessId,
    /// The message.
    pub msg: Message,
    /// The originating client operation, when the sender stamped one
    /// (see [`rmem_types::codec::encode_message_traced`]).
    pub trace: Option<TraceId>,
}

/// Where a transport's receiving side hands over what arrived. The
/// runner's own [`RunnerInbox`](crate::RunnerInbox) puts it on the node's
/// event queue; a plain channel sender serves probes and tests that want
/// the raw stream.
pub trait InboxSink: std::fmt::Debug + Send + Sync + 'static {
    /// Hands over one received message. `false` means the consuming side
    /// is gone, so a receiver thread can stop.
    fn deliver(&self, inbound: Inbound) -> bool;
}

impl InboxSink for crossbeam::channel::Sender<Inbound> {
    fn deliver(&self, inbound: Inbound) -> bool {
        self.send(inbound).is_ok()
    }
}

/// Datagram delivery between the cluster's processes with **fair-lossy**
/// semantics (§II): `send` may silently fail to deliver (packet loss,
/// closed peer, transient I/O error) — the automata retransmit until
/// acknowledged, which is exactly what makes fair-lossy channels
/// sufficient.
///
/// Received messages are handed to the [`InboxSink`] the transport was
/// constructed with (each implementation runs its own receiver thread).
pub trait Transport: Send + Sync + 'static {
    /// This endpoint's process id.
    fn local(&self) -> ProcessId;

    /// Number of processes in the cluster.
    fn cluster_size(&self) -> usize;

    /// Attempts to send `msg` to `to`. Delivery is best-effort: `Ok(())`
    /// means the message was handed to the network, not that it arrived.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] only for non-retryable problems (unknown peer,
    /// message over the size limit). Transient failures are swallowed —
    /// they are indistinguishable from packet loss.
    fn send(&self, to: ProcessId, msg: &Message) -> Result<(), NetError>;

    /// As [`send`](Transport::send), stamping the message with the
    /// originating client operation so the receiver's flight events can
    /// be attributed to it. The default drops the stamp — a transport
    /// that does not propagate trace context still interoperates (the
    /// receiver just sees untraced messages).
    ///
    /// # Errors
    ///
    /// As for [`send`](Transport::send).
    fn send_traced(
        &self,
        to: ProcessId,
        msg: &Message,
        trace: Option<TraceId>,
    ) -> Result<(), NetError> {
        let _ = trace;
        self.send(to, msg)
    }

    /// The largest encoded [`Message`] this transport can carry, if it has
    /// a hard ceiling (`None` for unbounded transports).
    ///
    /// Clients use this hint to fail oversized operations fast with
    /// [`ClientError::TooLarge`](crate::ClientError::TooLarge) instead of
    /// retransmitting an untransmittable message until the patience window
    /// runs out — under fair-lossy semantics a `send` that can never
    /// succeed is indistinguishable from 100% packet loss.
    fn max_payload(&self) -> Option<usize> {
        None
    }

    /// Stops the receiver machinery (idempotent).
    fn shutdown(&self);
}
