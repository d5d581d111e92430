//! The event queue: a deterministic priority queue over virtual time.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use bytes::Bytes;
use rmem_types::{Message, Op, OpId, ProcessId, StoreToken, TimerToken};

use crate::time::VirtualTime;

/// What happens when a scheduled event fires.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// Deliver a network message.
    Deliver {
        /// Receiving process.
        to: ProcessId,
        /// Sending process.
        from: ProcessId,
        /// The message.
        msg: Message,
        /// Causal-log chain length carried by this message (see
        /// [`crate::trace`]).
        chain: u32,
    },
    /// A store issued by `pid` reaches stable storage: apply it and notify
    /// the automaton.
    StoreDone {
        /// The storing process.
        pid: ProcessId,
        /// Correlation token for the automaton.
        token: StoreToken,
        /// Slot to write.
        key: String,
        /// Record to write.
        bytes: Bytes,
        /// The process incarnation that issued the store (stale
        /// completions from before a crash are discarded — an in-flight
        /// write is lost with the crash).
        incarnation: u32,
        /// Causal-log chain length *after* this store (issuer's chain + 1).
        chain: u32,
        /// The operation this store is attributed to for causal-log
        /// accounting (the issuer's pending op at issue time), if any.
        attributed_op: Option<OpId>,
    },
    /// A timer set by `pid` fires.
    TimerFire {
        /// The process whose timer fires.
        pid: ProcessId,
        /// Correlation token for the automaton.
        token: TimerToken,
        /// Issuing incarnation (timers die with their incarnation).
        incarnation: u32,
        /// Causal-log chain at the time the timer was set.
        chain: u32,
    },
    /// A client invokes an operation at `pid`.
    Invoke {
        /// Target process.
        pid: ProcessId,
        /// Operation id.
        op: OpId,
        /// The operation.
        operation: Op,
    },
    /// The adversary crashes `pid`.
    Crash {
        /// Victim.
        pid: ProcessId,
    },
    /// The adversary recovers `pid`.
    Recover {
        /// The process to revive.
        pid: ProcessId,
    },
    /// The adversary blocks or unblocks the directed link `from → to`
    /// (partition modelling; blocked links drop every message).
    SetLink {
        /// Sender side.
        from: ProcessId,
        /// Receiver side.
        to: ProcessId,
        /// `true` = blocked.
        blocked: bool,
    },
    /// Nothing happens but the clock reaching this instant: the deadline
    /// of a host driving the run through
    /// [`Simulation::step`](crate::Simulation::step).
    Wake,
}

/// A scheduled event. Ordering is (time, sequence number): two events never
/// compare equal, so execution order is total and deterministic.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// When the event fires.
    pub at: VirtualTime,
    /// Tie-break: insertion order.
    pub seq: u64,
    /// The payload.
    pub kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `kind` at `at`.
    pub fn push(&mut self, at: VirtualTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, kind });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Scheduled> {
        self.heap.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Iterates over pending events in unspecified order (used for cheap
    /// quiescence checks).
    pub fn iter(&self) -> impl Iterator<Item = &Scheduled> {
        self.heap.iter()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(VirtualTime(30), EventKind::Crash { pid: ProcessId(0) });
        q.push(VirtualTime(10), EventKind::Crash { pid: ProcessId(1) });
        q.push(VirtualTime(20), EventKind::Crash { pid: ProcessId(2) });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|s| s.at.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..5u16 {
            q.push(VirtualTime(7), EventKind::Crash { pid: ProcessId(i) });
        }
        let order: Vec<u16> = std::iter::from_fn(|| q.pop())
            .map(|s| match s.kind {
                EventKind::Crash { pid } => pid.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(VirtualTime(1), EventKind::Crash { pid: ProcessId(0) });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
