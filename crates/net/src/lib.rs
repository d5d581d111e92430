//! Real asynchronous-network runtime for the register automata.
//!
//! The paper's measurements ran C processes over UDP on a LAN (§V-A). This
//! crate is the equivalent runtime for our automata: the *same*
//! [`rmem_types::Automaton`] implementations that run under the
//! deterministic simulator are hosted here on real sockets, real threads,
//! real timers and a real `fsync`-per-store disk log.
//!
//! * [`Transport`] — pluggable datagram delivery with fair-lossy
//!   semantics (errors drop the message; the automata retransmit).
//!   Implementations: [`UdpTransport`] (socket per process, exactly the
//!   paper's setup), [`TcpTransport`] (persistent length-prefixed framed
//!   connections, reconnect on demand), and [`ChannelTransport`]
//!   (in-memory, for fast tests).
//! * [`ProcessRunner`] — hosts one automaton: an event loop over the
//!   node's one event queue (network messages, client invocations,
//!   completed commits — every producer's send wakes it) and a timer
//!   heap. Stable stores run on a per-node **syncer thread** that
//!   group-commits whatever queued while the previous fsync ran; the
//!   loop is never blocked on the disk, yet nothing is acknowledged
//!   before the fsync covering it returns (**ack-after-durable** — the
//!   real content of the paper's §V-A synchronous-log note).
//! * [`LocalCluster`] — spins up `n` runners on loopback for examples,
//!   tests and the real-mode benchmark, with a choice of disk backend
//!   ([`DiskMode`]: per-slot files vs the group-commit WAL).
//!
//! # Example
//!
//! ```no_run
//! use rmem_core::Transient;
//! use rmem_net::LocalCluster;
//! use rmem_types::Value;
//!
//! let mut cluster = LocalCluster::channel(3, Transient::factory())?;
//! cluster.client(rmem_types::ProcessId(0)).write(Value::from_u32(42))?;
//! let v = cluster.client(rmem_types::ProcessId(1)).read()?;
//! assert_eq!(v.as_u32(), Some(42));
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod cluster;
pub mod control;
pub mod error;
pub mod faults;
pub mod pipeline;
pub mod runner;
mod syncer;
pub mod tcp;
pub mod transport;
pub mod udp;

pub use channel::ChannelTransport;
pub use cluster::{DiskMode, LocalCluster};
pub use control::{handle_command, send_command, ControlServer};
pub use error::{ClientError, NetError};
pub use faults::{FaultEvent, FaultSchedule};
pub use pipeline::{AnyCompletion, Claimed, InFlightTable, PipelinedClient, Routed, Ticket};
pub use runner::{Client, ProcessRunner, RunnerInbox, RunnerQueue, TraceCtx};
pub use tcp::TcpTransport;
pub use transport::{Inbound, InboxSink, Transport};
pub use udp::UdpTransport;
