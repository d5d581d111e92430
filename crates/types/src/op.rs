//! Client-visible operations and their results.

use crate::process::ProcessId;
use crate::value::Value;

/// Identifier of one register within an emulated shared memory.
///
/// A single-register emulation is the memory whose only register is
/// [`RegisterId::ZERO`]; the multi-register layer
/// (`rmem_core::SharedMemory`) hosts one independent register emulation
/// per id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegisterId(pub u16);

impl RegisterId {
    /// The default register of single-register emulations.
    pub const ZERO: RegisterId = RegisterId(0);
}

impl std::fmt::Display for RegisterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u16> for RegisterId {
    fn from(v: u16) -> Self {
        RegisterId(v)
    }
}

/// A register operation a client asks a process to perform.
///
/// [`Op::Read`] and [`Op::Write`] address the default register
/// ([`RegisterId::ZERO`]); [`Op::ReadAt`] and [`Op::WriteAt`] address a
/// register of a multi-register shared memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Read the default register.
    Read,
    /// Write `Value` to the default register.
    Write(Value),
    /// Read the given register of a shared memory.
    ReadAt(RegisterId),
    /// Write `Value` to the given register of a shared memory.
    WriteAt(RegisterId, Value),
}

impl Op {
    /// The kind of this operation.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Read | Op::ReadAt(_) => OpKind::Read,
            Op::Write(_) | Op::WriteAt(..) => OpKind::Write,
        }
    }

    /// The register this operation addresses.
    pub fn register(&self) -> RegisterId {
        match self {
            Op::Read | Op::Write(_) => RegisterId::ZERO,
            Op::ReadAt(reg) | Op::WriteAt(reg, _) => *reg,
        }
    }

    /// Strips the register address, returning the plain single-register
    /// operation (used by routing layers that have already dispatched on
    /// [`register`](Self::register)).
    pub fn normalized(self) -> Op {
        match self {
            Op::ReadAt(_) => Op::Read,
            Op::WriteAt(_, v) => Op::Write(v),
            plain => plain,
        }
    }

    /// The written value, for writes of either addressing form.
    pub fn write_value(&self) -> Option<&Value> {
        match self {
            Op::Write(v) | Op::WriteAt(_, v) => Some(v),
            _ => None,
        }
    }
}

/// Discriminant of [`Op`], handy for statistics and history events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A read operation.
    Read,
    /// A write operation.
    Write,
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpKind::Read => write!(f, "R"),
            OpKind::Write => write!(f, "W"),
        }
    }
}

/// Identifier of one operation *invocation* at one process.
///
/// The pair (invoking process, per-process counter) is unique across an
/// execution; histories and traces are keyed by it. The counter restarts
/// only if the driving harness restarts it — recovery does **not** reset
/// it, so an invocation lost to a crash is never confused with a later one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId {
    /// Invoking process.
    pub pid: ProcessId,
    /// Per-process invocation counter.
    pub counter: u64,
}

impl OpId {
    /// Creates an operation id.
    pub fn new(pid: ProcessId, counter: u64) -> Self {
        OpId { pid, counter }
    }
}

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.pid, self.counter)
    }
}

/// Client-assigned identity of one **logical** store write, carried
/// inside the written payload (see `rmem_kv`'s codec op-id frame).
///
/// Unlike [`OpId`] — which names one *invocation* at one process and is
/// never reused — an `OpTag` survives client crashes: a recovering client
/// re-issues an unresolved write **under the same tag**, and every layer
/// that sees duplicate tags for one key (replicas, certification) treats
/// them as a single logical write. The pair (client, seq) is unique per
/// client family; `seq` is allocated from the client's intent journal so
/// it does not restart after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpTag {
    /// The issuing client's stable identity (assigned by the harness;
    /// distinct from any transport process id).
    pub client: u16,
    /// Journal-allocated sequence number, monotone across crashes.
    pub seq: u64,
}

impl OpTag {
    /// Creates an operation tag.
    pub fn new(client: u16, seq: u64) -> Self {
        OpTag { client, seq }
    }
}

impl std::fmt::Display for OpTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}#{}", self.client, self.seq)
    }
}

/// Why an operation was rejected: its process stopped under it, or its
/// client gave it up before any process accepted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// No process accepted the invocation: the answer a client records
    /// for an operation it gave up on before anything of it took effect
    /// (a process never produces it — a busy register queues instead).
    NotAccepted,
    /// The process is shutting down (or has halted): the operation was
    /// admitted but its emulation will never complete. From the caller's
    /// side this is indistinguishable from the process crashing with the
    /// operation pending — clients surface it as a process-down error.
    Shutdown,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::NotAccepted => write!(f, "no process accepted the operation"),
            RejectReason::Shutdown => write!(f, "the process is shutting down"),
        }
    }
}

/// The outcome a process reports for a completed operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// A write returned "OK".
    Written,
    /// A read returned this value.
    ReadValue(Value),
    /// The invocation was refused (see [`RejectReason`]); no operation was
    /// started and nothing was sent or logged.
    Rejected(RejectReason),
}

impl OpResult {
    /// The value carried by a read result, if any.
    pub fn read_value(&self) -> Option<&Value> {
        match self {
            OpResult::ReadValue(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the operation actually completed (was not rejected).
    pub fn is_completed(&self) -> bool {
        !matches!(self, OpResult::Rejected(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind() {
        assert_eq!(Op::Read.kind(), OpKind::Read);
        assert_eq!(Op::Write(Value::from_u32(1)).kind(), OpKind::Write);
        assert_eq!(Op::ReadAt(RegisterId(3)).kind(), OpKind::Read);
        assert_eq!(
            Op::WriteAt(RegisterId(3), Value::from_u32(1)).kind(),
            OpKind::Write
        );
        assert_eq!(OpKind::Read.to_string(), "R");
        assert_eq!(OpKind::Write.to_string(), "W");
    }

    #[test]
    fn register_addressing_and_normalization() {
        let v = Value::from_u32(9);
        assert_eq!(Op::Read.register(), RegisterId::ZERO);
        assert_eq!(Op::Write(v.clone()).register(), RegisterId::ZERO);
        assert_eq!(Op::ReadAt(RegisterId(7)).register(), RegisterId(7));
        assert_eq!(
            Op::WriteAt(RegisterId(7), v.clone()).register(),
            RegisterId(7)
        );
        assert_eq!(Op::ReadAt(RegisterId(7)).normalized(), Op::Read);
        assert_eq!(
            Op::WriteAt(RegisterId(7), v.clone()).normalized(),
            Op::Write(v.clone())
        );
        assert_eq!(Op::Read.normalized(), Op::Read);
        assert_eq!(
            Op::WriteAt(RegisterId(1), v.clone()).write_value(),
            Some(&v)
        );
        assert_eq!(Op::ReadAt(RegisterId(1)).write_value(), None);
    }

    #[test]
    fn register_id_display() {
        assert_eq!(RegisterId(4).to_string(), "r4");
        let r: RegisterId = 8u16.into();
        assert_eq!(r, RegisterId(8));
    }

    #[test]
    fn op_id_ordering_groups_by_process() {
        let a = OpId::new(ProcessId(0), 5);
        let b = OpId::new(ProcessId(0), 6);
        let c = OpId::new(ProcessId(1), 0);
        assert!(a < b && b < c);
        assert_eq!(a.to_string(), "p0#5");
    }

    #[test]
    fn result_accessors() {
        let r = OpResult::ReadValue(Value::from_u32(9));
        assert_eq!(r.read_value().and_then(Value::as_u32), Some(9));
        assert!(r.is_completed());
        assert!(OpResult::Written.is_completed());
        assert!(!OpResult::Rejected(RejectReason::NotAccepted).is_completed());
        assert_eq!(OpResult::Written.read_value(), None);
    }
}
