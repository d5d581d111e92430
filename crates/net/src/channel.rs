//! In-memory transport: a send is a push onto the receiving node's inbox
//! sink — the fastest way to run a real-threaded cluster in tests and
//! examples (no sockets, same runner code paths).

use parking_lot::RwLock;
use rmem_types::{Message, ProcessId};
use std::sync::Arc;

use crate::error::NetError;
use crate::transport::{Inbound, InboxSink, Transport};

/// Shared switchboard: one inbox sink per process.
#[derive(Debug, Default)]
pub struct Switchboard {
    inboxes: RwLock<Vec<Option<Arc<dyn InboxSink>>>>,
}

impl Switchboard {
    /// Creates a switchboard for `n` processes.
    pub fn new(n: usize) -> Arc<Self> {
        Arc::new(Switchboard {
            inboxes: RwLock::new(vec![None; n]),
        })
    }

    /// Registers the inbox of `pid`.
    pub fn register(&self, pid: ProcessId, inbox: impl InboxSink) {
        self.inboxes.write()[pid.index()] = Some(Arc::new(inbox));
    }

    /// Unregisters the inbox of `pid` (its messages now vanish — exactly a
    /// crashed receiver).
    pub fn unregister(&self, pid: ProcessId) {
        self.inboxes.write()[pid.index()] = None;
    }
}

/// An in-memory [`Transport`] endpoint bound to one process.
#[derive(Debug)]
pub struct ChannelTransport {
    me: ProcessId,
    n: usize,
    board: Arc<Switchboard>,
}

impl ChannelTransport {
    /// Creates the endpoint for `me`, registering `inbox` on the board.
    pub fn new(me: ProcessId, n: usize, board: Arc<Switchboard>, inbox: impl InboxSink) -> Self {
        board.register(me, inbox);
        ChannelTransport { me, n, board }
    }
}

impl Transport for ChannelTransport {
    fn local(&self) -> ProcessId {
        self.me
    }

    fn cluster_size(&self) -> usize {
        self.n
    }

    fn send(&self, to: ProcessId, msg: &Message) -> Result<(), NetError> {
        self.send_traced(to, msg, None)
    }

    fn send_traced(
        &self,
        to: ProcessId,
        msg: &Message,
        trace: Option<rmem_types::TraceId>,
    ) -> Result<(), NetError> {
        if to.index() >= self.n {
            return Err(NetError::UnknownPeer { pid: to });
        }
        let inboxes = self.board.inboxes.read();
        if let Some(Some(inbox)) = inboxes.get(to.index()) {
            // A disconnected inbox is packet loss.
            inbox.deliver(Inbound {
                from: self.me,
                msg: msg.clone(),
                trace,
            });
        }
        Ok(())
    }

    fn shutdown(&self) {
        self.board.unregister(self.me);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use rmem_types::RequestId;

    fn msg() -> Message {
        Message::SnReq {
            req: RequestId::new(ProcessId(0), 1),
        }
    }

    #[test]
    fn delivers_between_endpoints() {
        let board = Switchboard::new(2);
        let (tx0, rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let t0 = ChannelTransport::new(ProcessId(0), 2, board.clone(), tx0);
        let _t1 = ChannelTransport::new(ProcessId(1), 2, board, tx1);
        t0.send(ProcessId(1), &msg()).unwrap();
        let got = rx1.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
        assert_eq!(got.from, ProcessId(0));
        assert_eq!(got.msg, msg());
        assert!(rx0.is_empty());
    }

    #[test]
    fn self_send_loops_back() {
        let board = Switchboard::new(1);
        let (tx, rx) = unbounded();
        let t = ChannelTransport::new(ProcessId(0), 1, board, tx);
        t.send(ProcessId(0), &msg()).unwrap();
        assert_eq!(rx.recv().unwrap().from, ProcessId(0));
    }

    #[test]
    fn unknown_peer_is_an_error() {
        let board = Switchboard::new(1);
        let (tx, _rx) = unbounded();
        let t = ChannelTransport::new(ProcessId(0), 1, board, tx);
        assert!(matches!(
            t.send(ProcessId(5), &msg()),
            Err(NetError::UnknownPeer { .. })
        ));
    }

    #[test]
    fn sends_to_unregistered_peers_are_dropped_not_errors() {
        let board = Switchboard::new(2);
        let (tx, _rx) = unbounded();
        let t = ChannelTransport::new(ProcessId(0), 2, board.clone(), tx);
        // Peer 1 never registered — like a crashed process.
        assert!(t.send(ProcessId(1), &msg()).is_ok());
        // Shutdown makes our own inbox vanish too.
        t.shutdown();
        assert!(t.send(ProcessId(0), &msg()).is_ok());
    }
}
