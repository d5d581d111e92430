//! Execution traces: operation records, causal-log accounting and history
//! export.
//!
//! # Causal-log accounting
//!
//! The paper's complexity metric (§I-B) counts **causal logs**: logs that
//! causally precede one another within one operation. Two logs performed in
//! parallel at different processes cost 1; a log the writer must complete
//! *before* broadcasting, followed by replica logs, costs 2. The simulator
//! measures this by threading a `chain` counter through the event graph:
//!
//! * an invocation starts with chain 0;
//! * every action inherits the chain of the input being processed;
//! * completing a store raises the chain by 1 (`StoreDone` carries
//!   `chain + 1`);
//! * a delivered message carries the sender's chain at send time.
//!
//! When an operation completes, the largest chain among the inputs it
//! causally waited for — invocation, acknowledgements of its rounds at the
//! invoking process, its own store completions — is exactly the number of
//! causal logs on the operation's critical path. The paper's bounds then
//! become *measurable assertions*: persistent writes report 2, transient
//! writes 1, uncontended reads 0 (and 1 under write concurrency),
//! crash-stop everything 0.

use std::collections::HashMap;

use rmem_consistency::History;
use rmem_types::{Op, OpId, OpKind, OpResult, ProcessId};

use crate::time::VirtualTime;

/// The lifecycle record of one operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Operation id.
    pub op: OpId,
    /// Read or write.
    pub kind: OpKind,
    /// The operation as invoked.
    pub operation: Op,
    /// Virtual invocation time.
    pub invoked_at: VirtualTime,
    /// Virtual completion time (`None` if the op was pending when its
    /// process crashed, or the run ended).
    pub completed_at: Option<VirtualTime>,
    /// The result (if completed).
    pub result: Option<OpResult>,
    /// Causal logs on the operation's critical path (see module docs).
    pub causal_logs: u32,
    /// Quorum round-trips the operation performed, as reported by the
    /// automaton at completion (0 while pending): 1 for fast-path and
    /// regular reads, 2 for written-back reads and queried writes.
    pub rounds: u32,
}

impl OpRecord {
    /// Operation latency, if completed.
    pub fn latency(&self) -> Option<rmem_types::Micros> {
        self.completed_at.map(|c| c.since(self.invoked_at))
    }

    /// Whether the operation completed with a non-rejected result.
    pub fn is_completed(&self) -> bool {
        self.result.as_ref().is_some_and(|r| r.is_completed())
    }
}

/// One history-relevant occurrence, in global order.
#[derive(Debug, Clone)]
enum TraceEvent {
    Invoke(OpId, Op),
    Reply(OpId, OpResult),
    Crash(ProcessId),
    Recover(ProcessId),
}

/// The full record of a simulation run.
#[derive(Debug, Default)]
pub struct Trace {
    ops: Vec<OpRecord>,
    index: HashMap<OpId, usize>,
    events: Vec<(VirtualTime, TraceEvent)>,
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages actually delivered.
    pub messages_delivered: u64,
    /// Stores applied to stable storage.
    pub stores_applied: u64,
    /// Stores that joined an already-pending group commit instead of
    /// starting their own (only nonzero under
    /// `DiskConfig::coalesce` — the sim's group-commit model).
    pub stores_coalesced: u64,
    /// Stores applied while no operation was pending at the storing
    /// process — recovery/initialisation logging, which the paper counts
    /// outside operations ("this log is outside the actual read and write
    /// operations", §IV-B).
    pub background_stores: u64,
    /// Invocations that arrived at a crashed process and were discarded.
    pub invokes_dropped: u64,
    /// Invocations that found an earlier one on their register at their
    /// process and waited for it to end before they began.
    pub invokes_queued: u64,
    /// Crash events delivered.
    pub crashes: u64,
    /// Recovery events delivered.
    pub recoveries: u64,
    /// Durations (µs) from each Recover event to the automaton reporting
    /// ready — the cost of the algorithm's recovery procedure.
    pub recovery_durations: Vec<u64>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records an invocation.
    pub fn record_invoke(&mut self, at: VirtualTime, op: OpId, operation: Op) {
        let record = OpRecord {
            op,
            kind: operation.kind(),
            operation: operation.clone(),
            invoked_at: at,
            completed_at: None,
            result: None,
            causal_logs: 0,
            rounds: 0,
        };
        self.index.insert(op, self.ops.len());
        self.ops.push(record);
        self.events.push((at, TraceEvent::Invoke(op, operation)));
    }

    /// Raises the causal-log watermark of a pending operation.
    pub fn bump_chain(&mut self, op: OpId, chain: u32) {
        if let Some(&i) = self.index.get(&op) {
            let r = &mut self.ops[i];
            if r.completed_at.is_none() {
                r.causal_logs = r.causal_logs.max(chain);
            }
        }
    }

    /// Records the quorum-round count the automaton reported for `op`.
    pub fn record_rounds(&mut self, op: OpId, rounds: u32) {
        if let Some(&i) = self.index.get(&op) {
            self.ops[i].rounds = rounds;
        }
    }

    /// Records a completion.
    pub fn record_complete(&mut self, at: VirtualTime, op: OpId, result: OpResult) {
        if let Some(&i) = self.index.get(&op) {
            let r = &mut self.ops[i];
            r.completed_at = Some(at);
            r.result = Some(result.clone());
        }
        self.events.push((at, TraceEvent::Reply(op, result)));
    }

    /// Records a crash.
    pub fn record_crash(&mut self, at: VirtualTime, pid: ProcessId) {
        self.crashes += 1;
        self.events.push((at, TraceEvent::Crash(pid)));
    }

    /// Records a recovery.
    pub fn record_recover(&mut self, at: VirtualTime, pid: ProcessId) {
        self.recoveries += 1;
        self.events.push((at, TraceEvent::Recover(pid)));
    }

    /// Records how long a recovery procedure took (Recover → ready).
    pub fn record_recovery_duration(&mut self, duration: rmem_types::Micros) {
        self.recovery_durations.push(duration.0);
    }

    /// All operation records, in invocation order.
    pub fn operations(&self) -> &[OpRecord] {
        &self.ops
    }

    /// The record of one operation.
    pub fn operation(&self, op: OpId) -> Option<&OpRecord> {
        self.index.get(&op).map(|&i| &self.ops[i])
    }

    /// Converts the trace into a checkable [`History`].
    pub fn to_history(&self) -> History {
        let mut h = History::new();
        for (_, ev) in &self.events {
            match ev {
                TraceEvent::Invoke(op, operation) => {
                    h.push(rmem_consistency::Event::Invoke {
                        op: *op,
                        operation: operation.clone(),
                    });
                }
                TraceEvent::Reply(op, result) => {
                    h.push(rmem_consistency::Event::Reply {
                        op: *op,
                        result: result.clone(),
                    });
                }
                TraceEvent::Crash(pid) => h.push(rmem_consistency::Event::Crash { pid: *pid }),
                TraceEvent::Recover(pid) => h.push(rmem_consistency::Event::Recover { pid: *pid }),
            }
        }
        h
    }

    /// Completed-operation latencies for `kind`, in microseconds.
    pub fn latencies(&self, kind: OpKind) -> Vec<u64> {
        self.ops
            .iter()
            .filter(|r| r.kind == kind && r.is_completed())
            .filter_map(|r| r.latency().map(|m| m.0))
            .collect()
    }

    /// Quorum-round counts of completed operations of `kind`, in
    /// invocation order — the fast-path observability hook: a read-heavy
    /// quiescent run shows a mean well below 2.0, a contended one shows
    /// the fallback's 2s.
    pub fn rounds(&self, kind: OpKind) -> Vec<u32> {
        self.ops
            .iter()
            .filter(|r| r.kind == kind && r.is_completed())
            .map(|r| r.rounds)
            .collect()
    }

    /// Crash/recovery marks for rendering: `(time µs, process, is_crash)`.
    pub fn lifecycle_marks(&self) -> Vec<(u64, ProcessId, bool)> {
        self.events
            .iter()
            .filter_map(|(at, ev)| match ev {
                TraceEvent::Crash(pid) => Some((at.as_micros(), *pid, true)),
                TraceEvent::Recover(pid) => Some((at.as_micros(), *pid, false)),
                _ => None,
            })
            .collect()
    }

    /// Maximum causal-log count among completed operations of `kind`.
    pub fn max_causal_logs(&self, kind: OpKind) -> u32 {
        self.ops
            .iter()
            .filter(|r| r.kind == kind && r.is_completed())
            .map(|r| r.causal_logs)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_types::Value;

    fn p(i: u16) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn op_lifecycle_latency_and_chain() {
        let mut t = Trace::new();
        let op = OpId::new(p(0), 0);
        t.record_invoke(VirtualTime(100), op, Op::Write(Value::from_u32(1)));
        t.bump_chain(op, 1);
        t.bump_chain(op, 2);
        t.bump_chain(op, 1); // watermark never decreases
        t.record_complete(VirtualTime(900), op, OpResult::Written);
        let r = t.operation(op).unwrap();
        assert_eq!(r.latency(), Some(rmem_types::Micros(800)));
        assert_eq!(r.causal_logs, 2);
        assert!(r.is_completed());
    }

    #[test]
    fn rounds_are_recorded_per_op_and_filterable() {
        let mut t = Trace::new();
        let r1 = OpId::new(p(0), 0);
        t.record_invoke(VirtualTime(0), r1, Op::Read);
        t.record_rounds(r1, 1);
        t.record_complete(VirtualTime(5), r1, OpResult::ReadValue(Value::bottom()));
        let r2 = OpId::new(p(1), 0);
        t.record_invoke(VirtualTime(0), r2, Op::Read);
        t.record_rounds(r2, 2);
        t.record_complete(VirtualTime(9), r2, OpResult::ReadValue(Value::bottom()));
        let w = OpId::new(p(2), 0);
        t.record_invoke(VirtualTime(0), w, Op::Write(Value::from_u32(1)));
        t.record_rounds(w, 2);
        // w never completes: excluded from the per-kind sample.
        assert_eq!(t.rounds(OpKind::Read), vec![1, 2]);
        assert!(t.rounds(OpKind::Write).is_empty());
        assert_eq!(t.operation(r1).unwrap().rounds, 1);
    }

    #[test]
    fn bump_after_completion_is_ignored() {
        let mut t = Trace::new();
        let op = OpId::new(p(0), 0);
        t.record_invoke(VirtualTime(0), op, Op::Read);
        t.record_complete(VirtualTime(10), op, OpResult::ReadValue(Value::bottom()));
        t.bump_chain(op, 9);
        assert_eq!(t.operation(op).unwrap().causal_logs, 0);
    }

    #[test]
    fn history_export_preserves_order_and_crashes() {
        let mut t = Trace::new();
        let w = OpId::new(p(0), 0);
        t.record_invoke(VirtualTime(0), w, Op::Write(Value::from_u32(5)));
        t.record_crash(VirtualTime(5), p(0));
        t.record_recover(VirtualTime(9), p(0));
        let h = t.to_history();
        assert_eq!(h.len(), 3);
        assert!(h.well_formed().is_ok());
        assert_eq!(h.pending_ops(), vec![w]);
    }

    #[test]
    fn latencies_filter_by_kind_and_completion() {
        let mut t = Trace::new();
        let w = OpId::new(p(0), 0);
        t.record_invoke(VirtualTime(0), w, Op::Write(Value::from_u32(1)));
        t.record_complete(VirtualTime(700), w, OpResult::Written);
        let r = OpId::new(p(1), 0);
        t.record_invoke(VirtualTime(0), r, Op::Read);
        // r never completes
        assert_eq!(t.latencies(OpKind::Write), vec![700]);
        assert!(t.latencies(OpKind::Read).is_empty());
        assert_eq!(t.max_causal_logs(OpKind::Write), 0);
    }

    #[test]
    fn rejected_ops_are_not_completed() {
        let mut t = Trace::new();
        let r = OpId::new(p(1), 0);
        t.record_invoke(VirtualTime(0), r, Op::Read);
        t.record_complete(
            VirtualTime(1),
            r,
            OpResult::Rejected(rmem_types::RejectReason::Shutdown),
        );
        assert!(!t.operation(r).unwrap().is_completed());
        assert!(t.latencies(OpKind::Read).is_empty());
    }
}
