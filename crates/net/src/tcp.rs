//! TCP transport: persistent, length-prefixed framed connections with
//! lazy reconnect.
//!
//! TCP removes the UDP datagram ceiling (values larger than 64 KB work),
//! at the cost of connection management. Delivery remains fair-lossy from
//! the automata's point of view: a broken connection simply drops the
//! in-flight message and the next send reconnects.
//!
//! Frame format: 2-byte sender id once per connection (handshake), then
//! per message a 4-byte big-endian length followed by the codec bytes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rmem_types::{codec, Message, ProcessId};

use crate::error::NetError;
use crate::transport::{Inbound, InboxSink, Transport};

/// Maximum frame body accepted (1 MiB — far above any register payload in
/// the experiments).
pub const MAX_FRAME: usize = 1 << 20;

/// A TCP [`Transport`] endpoint.
pub struct TcpTransport {
    me: ProcessId,
    peers: Vec<SocketAddr>,
    outgoing: Vec<Mutex<Option<TcpStream>>>,
    stop: Arc<AtomicBool>,
    acceptor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("me", &self.me)
            .field("peers", &self.peers.len())
            .finish()
    }
}

fn read_exact_or_none(stream: &mut TcpStream, buf: &mut [u8]) -> Option<()> {
    stream.read_exact(buf).ok()
}

impl TcpTransport {
    /// Binds the listener for `me` at `peers[me]` and starts accepting
    /// inbound connections, pushing decoded messages into `inbox`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Bind`] if the listener cannot be bound.
    pub fn bind(
        me: ProcessId,
        peers: Vec<SocketAddr>,
        inbox: impl InboxSink,
    ) -> Result<Self, NetError> {
        let inbox: Arc<dyn InboxSink> = Arc::new(inbox);
        let addr = peers[me.index()];
        let listener = TcpListener::bind(addr).map_err(|e| NetError::Bind {
            addr: addr.to_string(),
            source: Arc::new(e),
        })?;
        listener.set_nonblocking(true).map_err(|e| NetError::Bind {
            addr: addr.to_string(),
            source: Arc::new(e),
        })?;
        let stop = Arc::new(AtomicBool::new(false));

        let accept_stop = stop.clone();
        let acceptor = std::thread::Builder::new()
            .name(format!("tcp-accept-{me}"))
            .spawn(move || {
                while !accept_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((mut stream, _)) => {
                            let inbox = inbox.clone();
                            let conn_stop = accept_stop.clone();
                            let _ = stream.set_nonblocking(false);
                            let _ = stream
                                .set_read_timeout(Some(std::time::Duration::from_millis(100)));
                            std::thread::spawn(move || {
                                // Handshake: sender id.
                                let mut id = [0u8; 2];
                                let from = loop {
                                    if conn_stop.load(Ordering::Relaxed) {
                                        return;
                                    }
                                    match stream.read_exact(&mut id) {
                                        Ok(()) => break ProcessId(u16::from_be_bytes(id)),
                                        Err(e)
                                            if e.kind() == std::io::ErrorKind::WouldBlock
                                                || e.kind() == std::io::ErrorKind::TimedOut =>
                                        {
                                            continue
                                        }
                                        Err(_) => return,
                                    }
                                };
                                let mut len_buf = [0u8; 4];
                                loop {
                                    if conn_stop.load(Ordering::Relaxed) {
                                        return;
                                    }
                                    match stream.read_exact(&mut len_buf) {
                                        Ok(()) => {}
                                        Err(e)
                                            if e.kind() == std::io::ErrorKind::WouldBlock
                                                || e.kind() == std::io::ErrorKind::TimedOut =>
                                        {
                                            continue
                                        }
                                        Err(_) => return,
                                    }
                                    let len = u32::from_be_bytes(len_buf) as usize;
                                    if len > MAX_FRAME {
                                        return; // poisoned stream: drop connection
                                    }
                                    let mut body = vec![0u8; len];
                                    if read_exact_or_none(&mut stream, &mut body).is_none() {
                                        return;
                                    }
                                    if let Ok((msg, trace)) = codec::decode_message_traced(&body) {
                                        if !inbox.deliver(Inbound { from, msg, trace }) {
                                            return;
                                        }
                                    }
                                }
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(std::time::Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
                    }
                }
            })
            .expect("spawning the TCP acceptor thread");

        let outgoing = (0..peers.len()).map(|_| Mutex::new(None)).collect();
        Ok(TcpTransport {
            me,
            peers,
            outgoing,
            stop,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }

    /// Convenience: loopback addresses for an `n`-process cluster starting
    /// at `base_port`.
    pub fn loopback_peers(n: usize, base_port: u16) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| SocketAddr::from(([127, 0, 0, 1], base_port + i as u16)))
            .collect()
    }

    fn connect(&self, to: ProcessId) -> Option<TcpStream> {
        let addr = self.peers.get(to.index())?;
        let stream =
            TcpStream::connect_timeout(addr, std::time::Duration::from_millis(250)).ok()?;
        let mut s = stream;
        s.write_all(&self.me.0.to_be_bytes()).ok()?;
        Some(s)
    }
}

impl Transport for TcpTransport {
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
        if to.index() >= self.peers.len() {
            return Err(NetError::UnknownPeer { pid: to });
        }
        let body = codec::encode_message_traced(msg, trace);
        if body.len() > MAX_FRAME {
            return Err(NetError::TooLarge {
                size: body.len(),
                limit: MAX_FRAME,
            });
        }
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
        frame.extend_from_slice(&body);

        let mut slot = self.outgoing[to.index()].lock();
        if slot.is_none() {
            *slot = self.connect(to);
        }
        if let Some(stream) = slot.as_mut() {
            if stream.write_all(&frame).is_err() {
                // Broken pipe: drop the connection; this message is lost
                // (fair-lossy), the next send reconnects.
                *slot = None;
            }
        }
        Ok(())
    }

    fn max_payload(&self) -> Option<usize> {
        Some(MAX_FRAME)
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        for slot in &self.outgoing {
            *slot.lock() = None;
        }
        if let Some(h) = self.acceptor.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use rmem_types::{RequestId, Timestamp, Value};

    fn free_base(n: usize) -> u16 {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = probe.local_addr().unwrap().port();
        drop(probe);
        assert!(port as usize + n < u16::MAX as usize);
        port
    }

    #[test]
    fn roundtrip_and_large_payloads() {
        let base = free_base(2);
        let peers = TcpTransport::loopback_peers(2, base);
        let (tx0, _rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let t0 = TcpTransport::bind(ProcessId(0), peers.clone(), tx0).unwrap();
        let t1 = TcpTransport::bind(ProcessId(1), peers, tx1).unwrap();
        // Larger than any UDP datagram: TCP carries it fine.
        let msg = Message::Write {
            req: RequestId::new(ProcessId(0), 1),
            ts: Timestamp::new(1, ProcessId(0)),
            value: Value::new(vec![0xAB; 100_000]),
        };
        t0.send(ProcessId(1), &msg).unwrap();
        let got = rx1
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("delivery");
        assert_eq!(got.msg, msg);
        assert_eq!(got.from, ProcessId(0));
        t0.shutdown();
        t1.shutdown();
    }

    #[test]
    fn send_to_down_peer_is_loss_not_error() {
        let base = free_base(2);
        let peers = TcpTransport::loopback_peers(2, base);
        let (tx0, _rx0) = unbounded();
        let t0 = TcpTransport::bind(ProcessId(0), peers, tx0).unwrap();
        // Peer 1 never bound.
        let msg = Message::SnReq {
            req: RequestId::new(ProcessId(0), 1),
        };
        assert!(t0.send(ProcessId(1), &msg).is_ok());
        t0.shutdown();
    }
}
