//! Error types of the real runtime.

use std::sync::Arc;

/// A transport-level failure.
///
/// Under fair-lossy semantics most send failures are simply dropped
/// messages (the automata retransmit); `NetError` is reserved for
/// configuration and setup problems that retrying cannot fix.
#[derive(Debug, Clone)]
pub enum NetError {
    /// Socket setup failed.
    Bind {
        /// The failing address description.
        addr: String,
        /// OS error.
        source: Arc<std::io::Error>,
    },
    /// A peer id has no configured address.
    UnknownPeer {
        /// The peer in question.
        pid: rmem_types::ProcessId,
    },
    /// A message exceeds the transport's datagram limit (the paper hits
    /// the same 64 KB UDP ceiling, §V-B).
    TooLarge {
        /// Encoded size.
        size: usize,
        /// Transport limit.
        limit: usize,
    },
    /// A disk-level fault-injection step failed (e.g. tearing a killed
    /// node's write-ahead-log tail).
    Disk {
        /// The node whose disk was being manipulated.
        pid: rmem_types::ProcessId,
        /// OS error.
        source: Arc<std::io::Error>,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Bind { addr, source } => write!(f, "failed to bind {addr}: {source}"),
            NetError::UnknownPeer { pid } => write!(f, "no address configured for {pid}"),
            NetError::TooLarge { size, limit } => {
                write!(f, "message of {size} bytes exceeds transport limit {limit}")
            }
            NetError::Disk { pid, source } => {
                write!(f, "disk fault injection at {pid} failed: {source}")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Bind { source, .. } | NetError::Disk { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// A client-visible operation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The runner was shut down (or killed to simulate a crash) before the
    /// operation completed. A busy register is no failure: the runner
    /// queues a second operation on a register behind the first.
    ProcessDown,
    /// The operation did not complete within the client's patience window.
    TimedOut,
    /// The written value cannot fit the transport's frame (e.g. the 64 KB
    /// UDP datagram ceiling): without this check the fair-lossy runtime
    /// would treat every send of the oversized message as a loss and the
    /// operation would retransmit forever into a [`TimedOut`]. Surfaced
    /// *before* anything is sent or logged — use a TCP-backed cluster for
    /// larger values.
    ///
    /// [`TimedOut`]: ClientError::TimedOut
    TooLarge {
        /// The message size the value would produce on the wire.
        size: usize,
        /// The transport's frame limit.
        limit: usize,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::ProcessDown => write!(f, "the process is down"),
            ClientError::TimedOut => write!(f, "the operation timed out"),
            ClientError::TooLarge { size, limit } => {
                write!(
                    f,
                    "a {size}-byte message exceeds the transport frame limit of {limit} bytes"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = NetError::UnknownPeer {
            pid: rmem_types::ProcessId(3),
        };
        assert!(e.to_string().contains("p3"));
        let e = NetError::TooLarge {
            size: 70_000,
            limit: 65_000,
        };
        assert!(e.to_string().contains("70000"));
        assert_eq!(ClientError::ProcessDown.to_string(), "the process is down");
    }

    #[test]
    fn errors_are_send_sync() {
        fn check<E: std::error::Error + Send + Sync>(_: &E) {}
        check(&ClientError::TimedOut);
        check(&NetError::UnknownPeer {
            pid: rmem_types::ProcessId(0),
        });
    }
}
