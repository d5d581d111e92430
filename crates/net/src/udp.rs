//! UDP transport — the paper's own setup (§V-A): one socket per process,
//! datagrams capped at the 64 KB UDP limit.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rmem_types::{codec, Message, ProcessId};

use crate::error::NetError;
use crate::transport::{Inbound, InboxSink, Transport};

/// Maximum encoded message size accepted (UDP payload ceiling, minus
/// header room — the same constraint the paper discusses for Fig. 6
/// bottom).
pub const MAX_DATAGRAM: usize = 65_000;

/// A UDP [`Transport`] endpoint.
///
/// Wire format: 2-byte big-endian sender id, then the
/// [`rmem_types::codec`] encoding of the message. Malformed datagrams are
/// dropped (fair-lossy absorbs them).
pub struct UdpTransport {
    me: ProcessId,
    peers: Vec<SocketAddr>,
    socket: UdpSocket,
    stop: Arc<AtomicBool>,
    receiver: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for UdpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpTransport")
            .field("me", &self.me)
            .field("peers", &self.peers.len())
            .finish()
    }
}

impl UdpTransport {
    /// Binds the socket for `me` at `peers[me]` and starts the receiver
    /// thread pushing into `inbox`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Bind`] if the socket cannot be bound.
    pub fn bind(
        me: ProcessId,
        peers: Vec<SocketAddr>,
        inbox: impl InboxSink,
    ) -> Result<Self, NetError> {
        let addr = peers[me.index()];
        let socket = UdpSocket::bind(addr).map_err(|e| NetError::Bind {
            addr: addr.to_string(),
            source: Arc::new(e),
        })?;
        socket
            .set_read_timeout(Some(std::time::Duration::from_millis(50)))
            .map_err(|e| NetError::Bind {
                addr: addr.to_string(),
                source: Arc::new(e),
            })?;
        let stop = Arc::new(AtomicBool::new(false));

        let recv_socket = socket.try_clone().map_err(|e| NetError::Bind {
            addr: addr.to_string(),
            source: Arc::new(e),
        })?;
        let recv_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name(format!("udp-recv-{me}"))
            .spawn(move || {
                let mut buf = vec![0u8; MAX_DATAGRAM + 16];
                while !recv_stop.load(Ordering::Relaxed) {
                    match recv_socket.recv_from(&mut buf) {
                        Ok((len, _)) if len >= 2 => {
                            let from = ProcessId(u16::from_be_bytes([buf[0], buf[1]]));
                            if let Ok((msg, trace)) = codec::decode_message_traced(&buf[2..len]) {
                                if !inbox.deliver(Inbound { from, msg, trace }) {
                                    break; // runner gone
                                }
                            }
                        }
                        Ok(_) => {} // runt datagram: drop
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut => {}
                        Err(_) => {} // transient: drop
                    }
                }
            })
            .expect("spawning the UDP receiver thread");

        Ok(UdpTransport {
            me,
            peers,
            socket,
            stop,
            receiver: parking_lot::Mutex::new(Some(handle)),
        })
    }

    /// Convenience: loopback addresses for an `n`-process cluster starting
    /// at `base_port`.
    pub fn loopback_peers(n: usize, base_port: u16) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| SocketAddr::from(([127, 0, 0, 1], base_port + i as u16)))
            .collect()
    }
}

impl Transport for UdpTransport {
    fn local(&self) -> ProcessId {
        self.me
    }

    fn cluster_size(&self) -> usize {
        self.peers.len()
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
        let Some(addr) = self.peers.get(to.index()) else {
            return Err(NetError::UnknownPeer { pid: to });
        };
        let body = codec::encode_message_traced(msg, trace);
        if body.len() + 2 > MAX_DATAGRAM {
            return Err(NetError::TooLarge {
                size: body.len() + 2,
                limit: MAX_DATAGRAM,
            });
        }
        let mut datagram = Vec::with_capacity(body.len() + 2);
        datagram.extend_from_slice(&self.me.0.to_be_bytes());
        datagram.extend_from_slice(&body);
        // Send errors are packet loss under fair-lossy semantics.
        let _ = self.socket.send_to(&datagram, addr);
        Ok(())
    }

    fn max_payload(&self) -> Option<usize> {
        // The 2-byte sender-id prefix shares the datagram with the message.
        Some(MAX_DATAGRAM - 2)
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.receiver.lock().take() {
            // Wake the receiver out of `recv_from` with a runt datagram
            // (it drops those) instead of sleeping out its read timeout;
            // should the datagram be lost, the timeout still ends it.
            let _ = self.socket.send_to(&[], self.peers[self.me.index()]);
            let _ = h.join();
        }
    }
}

impl Drop for UdpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use rmem_types::{RequestId, Timestamp, Value};

    fn free_ports(n: usize) -> u16 {
        // Ask the OS for a free port and assume a small contiguous block
        // above it is free too (tests run sequentially per-process).
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        let port = probe.local_addr().unwrap().port();
        drop(probe);
        assert!(port as usize + n < u16::MAX as usize);
        port
    }

    #[test]
    fn roundtrip_between_two_endpoints() {
        let base = free_ports(2);
        let peers = UdpTransport::loopback_peers(2, base);
        let (tx0, _rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let t0 = UdpTransport::bind(ProcessId(0), peers.clone(), tx0).unwrap();
        let t1 = UdpTransport::bind(ProcessId(1), peers, tx1).unwrap();
        let msg = Message::Write {
            req: RequestId::new(ProcessId(0), 9),
            ts: Timestamp::new(4, ProcessId(0)),
            value: Value::from_u32(1234),
        };
        t0.send(ProcessId(1), &msg).unwrap();
        let got = rx1
            .recv_timeout(std::time::Duration::from_secs(2))
            .expect("delivery");
        assert_eq!(got.from, ProcessId(0));
        assert_eq!(got.msg, msg);
        t0.shutdown();
        t1.shutdown();
    }

    #[test]
    fn shutdown_of_an_idle_endpoint_does_not_wait_out_the_read_timeout() {
        let base = free_ports(1);
        let peers = UdpTransport::loopback_peers(1, base);
        let (tx, rx) = unbounded();
        let t = UdpTransport::bind(ProcessId(0), peers, tx).unwrap();
        // A delivered message proves the receiver is up and on its way
        // back into a blocking `recv_from` with nothing left to read.
        let msg = Message::SnReq {
            req: RequestId::new(ProcessId(0), 1),
        };
        t.send(ProcessId(0), &msg).unwrap();
        rx.recv_timeout(std::time::Duration::from_secs(2))
            .expect("delivery");
        let started = std::time::Instant::now();
        t.shutdown();
        let took = started.elapsed();
        assert!(
            took < std::time::Duration::from_millis(10),
            "shutdown took {took:?}: the receiver slept out its 50 ms read timeout"
        );
        t.shutdown(); // idempotent
    }

    #[test]
    fn oversized_messages_are_rejected() {
        let base = free_ports(1);
        let peers = UdpTransport::loopback_peers(1, base);
        let (tx, _rx) = unbounded();
        let t = UdpTransport::bind(ProcessId(0), peers, tx).unwrap();
        let msg = Message::Write {
            req: RequestId::new(ProcessId(0), 0),
            ts: Timestamp::new(1, ProcessId(0)),
            value: Value::new(vec![0u8; 70_000]),
        };
        assert!(matches!(
            t.send(ProcessId(0), &msg),
            Err(NetError::TooLarge { .. })
        ));
        t.shutdown();
    }

    #[test]
    fn malformed_datagrams_are_dropped() {
        let base = free_ports(1);
        let peers = UdpTransport::loopback_peers(1, base);
        let (tx, rx) = unbounded();
        let t = UdpTransport::bind(ProcessId(0), peers.clone(), tx).unwrap();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        raw.send_to(&[0, 0, 0xFF, 0xFF, 0xFF], peers[0]).unwrap();
        raw.send_to(&[7], peers[0]).unwrap();
        // Then a valid message to prove the receiver survived.
        let msg = Message::SnReq {
            req: RequestId::new(ProcessId(0), 3),
        };
        t.send(ProcessId(0), &msg).unwrap();
        let got = rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap();
        assert_eq!(got.msg, msg);
        t.shutdown();
    }
}
