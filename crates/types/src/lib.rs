//! Core vocabulary types for the `rmem` crash-recovery shared-memory
//! emulations (Guerraoui & Levy, *Robust Emulations of Shared Memory in a
//! Crash-Recovery Model*, ICDCS 2004).
//!
//! This crate deliberately contains no algorithm logic and no I/O. It
//! defines:
//!
//! * identifiers — [`ProcessId`], [`OpId`], [`RequestId`];
//! * the lexicographic write tag [`Timestamp`] ordering all written values;
//! * register payloads ([`Value`]) and operations ([`Op`], [`OpResult`]);
//! * the wire [`Message`] set shared by every emulation in `rmem-core`;
//! * a small self-contained binary [`codec`] (the real UDP/TCP transports
//!   and the storage records both use it — nothing external touches the
//!   wire or the disk format);
//! * the event-driven automaton model ([`Automaton`], [`Input`],
//!   [`Action`]) and the one [`NodeCore`] through which the deterministic
//!   simulator (`rmem-sim`) and the real socket runtime (`rmem-net`)
//!   drive the same algorithm implementations.
//!
//! # Example
//!
//! ```
//! use rmem_types::{ProcessId, Timestamp};
//!
//! // Timestamps order lexicographically: sequence number first,
//! // process id second (the paper's tie-break for concurrent writers).
//! let a = Timestamp::new(3, ProcessId(1));
//! let b = Timestamp::new(3, ProcessId(2));
//! let c = Timestamp::new(4, ProcessId(0));
//! assert!(a < b && b < c);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automaton;
pub mod codec;
pub mod error;
pub mod message;
pub mod node;
pub mod op;
pub mod process;
pub mod timestamp;
pub mod value;

pub use automaton::{
    Action, Automaton, AutomatonFactory, EmptySnapshot, Input, StableSnapshot, StoreToken,
    TimerToken,
};
pub use error::DecodeError;
pub use message::{Message, RequestId, TraceId};
pub use node::{Host, NodeCore};
pub use op::{Op, OpId, OpKind, OpResult, OpTag, RegisterId, RejectReason};
pub use process::ProcessId;
pub use timestamp::{Seq, Timestamp};
pub use value::Value;

/// Microsecond-granularity duration used for timer requests emitted by
/// automata.
///
/// The simulator interprets it in virtual time; the real runtime maps it to
/// a wall-clock [`std::time::Duration`]. Microseconds are the natural unit
/// for the paper's latency constants (δ ≈ 100 µs, λ ≈ 200 µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Micros(pub u64);

impl Micros {
    /// Zero duration.
    pub const ZERO: Micros = Micros(0);

    /// Constructs a duration from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Micros(ms * 1_000)
    }

    /// Returns the value in microseconds.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: Micros) -> Micros {
        Micros(self.0.saturating_add(other.0))
    }
}

impl From<Micros> for std::time::Duration {
    fn from(m: Micros) -> Self {
        std::time::Duration::from_micros(m.0)
    }
}

impl std::fmt::Display for Micros {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}µs", self.0)
    }
}

impl std::ops::Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Micros {
    type Output = Micros;
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_arithmetic() {
        let a = Micros(100);
        let b = Micros::from_millis(1);
        assert_eq!(a + b, Micros(1_100));
        assert_eq!(b - a, Micros(900));
        let mut c = a;
        c += b;
        assert_eq!(c, Micros(1_100));
        assert_eq!(Micros(u64::MAX).saturating_add(Micros(1)), Micros(u64::MAX));
    }

    #[test]
    fn micros_into_std_duration() {
        let d: std::time::Duration = Micros(2_500).into();
        assert_eq!(d, std::time::Duration::from_micros(2_500));
    }

    #[test]
    fn micros_display() {
        assert_eq!(Micros(42).to_string(), "42µs");
    }
}
