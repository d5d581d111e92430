//! Translation of histories into operation intervals under a completion
//! rule.
//!
//! Both atomicity checkers reduce to the same question: *does some
//! completion of the history linearize?* Rather than enumerating reply
//! positions, we exploit a monotonicity fact: inserting a pending
//! operation's reply as **late as the completion rule allows** only
//! enlarges its interval, and a larger interval admits strictly more
//! linearizations. So each pending operation kept by a completion is
//! represented by the interval from its invocation to its *bound*:
//!
//! * persistent atomicity (§III-B): the next **invocation** by the same
//!   process — replies must land before it;
//! * transient atomicity (§III-C): the next **write reply** by the same
//!   process — the "weak completion" that lets an unfinished write overlap
//!   subsequent operations up to the next write's response.
//!
//! What still needs enumeration is the *keep or drop* choice for each
//! pending write (a pending read constrains without enabling anything, so
//! dropping it is always optimal and we do so eagerly — see
//! [`crate::atomicity`]).

use rmem_types::{Op, OpId, OpKind, OpResult, Value};

use crate::history::{Event, History};

/// The completion rule determining how far a pending operation's reply may
/// be postponed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionRule {
    /// Persistent atomicity: reply before the process's next invocation.
    Persistent,
    /// Transient atomicity: reply before the process's next write reply.
    Transient,
}

/// One operation as an interval over event indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalOp {
    /// The operation id.
    pub op: OpId,
    /// Read or write.
    pub kind: OpKind,
    /// For writes: the written value.
    pub write_value: Option<Value>,
    /// For completed reads: the returned value.
    pub read_value: Option<Value>,
    /// Event index of the invocation.
    pub inv: usize,
    /// Exclusive upper bound on the linearization interval: the reply's
    /// event index for completed operations, the completion-rule bound for
    /// pending ones (`usize::MAX` when unbounded).
    pub end: usize,
    /// Whether the operation was pending in the original history.
    pub pending: bool,
}

impl IntervalOp {
    /// Whether this op must be linearized before `other` (its interval
    /// ends before the other's begins).
    pub fn precedes(&self, other: &IntervalOp) -> bool {
        self.end < other.inv
    }
}

/// The intervals extracted from a history: completed operations plus the
/// kept-or-dropped choice space of pending writes.
#[derive(Debug, Clone)]
pub struct Intervals {
    /// Operations that are definitely part of every completion: completed
    /// reads and writes (rejected invocations are excluded — they never
    /// started an operation).
    pub fixed: Vec<IntervalOp>,
    /// Pending writes, each of which a completion may keep (with the
    /// rule's bound as interval end) or drop.
    pub optional_writes: Vec<IntervalOp>,
}

/// Extracts intervals from `history` under `rule`.
///
/// Pending reads are dropped eagerly (always sound, see module docs).
/// Operations that were rejected ([`OpResult::Rejected`]) never happened
/// and are excluded entirely.
pub fn extract(history: &History, rule: CompletionRule) -> Intervals {
    let events = history.events();

    // First pass: invocation/reply indices and metadata per op.
    struct Raw {
        op: OpId,
        operation: Op,
        inv: usize,
        reply: Option<(usize, OpResult)>,
    }
    let mut raws: Vec<Raw> = Vec::new();
    let mut index_of: std::collections::HashMap<OpId, usize> = std::collections::HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        match ev {
            Event::Invoke { op, operation } => {
                index_of.insert(*op, raws.len());
                // Addressed forms are normalized defensively; multi-register
                // histories are partitioned *before* extraction (see
                // `atomicity::check_with_rule`).
                raws.push(Raw {
                    op: *op,
                    operation: operation.clone().normalized(),
                    inv: i,
                    reply: None,
                });
            }
            Event::Reply { op, result } => {
                if let Some(&ri) = index_of.get(op) {
                    raws[ri].reply = Some((i, result.clone()));
                }
            }
            _ => {}
        }
    }

    // Second pass: completion bounds for pending ops.
    let bound_for = |raw: &Raw| -> usize {
        let pid = raw.op.pid;
        match rule {
            CompletionRule::Persistent => {
                // Index of the next invocation by the same process.
                events
                    .iter()
                    .enumerate()
                    .skip(raw.inv + 1)
                    .find_map(|(i, ev)| match ev {
                        Event::Invoke { op, .. } if op.pid == pid => Some(i),
                        _ => None,
                    })
                    .unwrap_or(usize::MAX)
            }
            CompletionRule::Transient => {
                // Index of the next *write reply* by the same process.
                let mut write_ops: std::collections::HashSet<OpId> =
                    std::collections::HashSet::new();
                for ev in events {
                    if let Event::Invoke {
                        op,
                        operation: Op::Write(_),
                    } = ev
                    {
                        if op.pid == pid {
                            write_ops.insert(*op);
                        }
                    }
                }
                events
                    .iter()
                    .enumerate()
                    .skip(raw.inv + 1)
                    .find_map(|(i, ev)| match ev {
                        Event::Reply { op, .. } if write_ops.contains(op) => Some(i),
                        _ => None,
                    })
                    .unwrap_or(usize::MAX)
            }
        }
    };

    let mut fixed = Vec::new();
    let mut optional_writes = Vec::new();
    for raw in &raws {
        match (&raw.operation, &raw.reply) {
            // Rejected invocations never started an operation.
            (_, Some((_, OpResult::Rejected(_)))) => {}
            (Op::Write(v), Some((ri, _))) => fixed.push(IntervalOp {
                op: raw.op,
                kind: OpKind::Write,
                write_value: Some(v.clone()),
                read_value: None,
                inv: raw.inv,
                end: *ri,
                pending: false,
            }),
            (Op::Read, Some((ri, res))) => fixed.push(IntervalOp {
                op: raw.op,
                kind: OpKind::Read,
                write_value: None,
                read_value: res.read_value().cloned(),
                inv: raw.inv,
                end: *ri,
                pending: false,
            }),
            (Op::Write(v), None) => optional_writes.push(IntervalOp {
                op: raw.op,
                kind: OpKind::Write,
                write_value: Some(v.clone()),
                read_value: None,
                inv: raw.inv,
                end: bound_for(raw),
                pending: true,
            }),
            // Pending reads are dropped eagerly.
            (Op::Read, None) => {}
            // Normalized above.
            (Op::ReadAt(_) | Op::WriteAt(..), _) => unreachable!("operations are normalized"),
        }
    }

    Intervals {
        fixed,
        optional_writes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_types::ProcessId;

    fn p(i: u16) -> ProcessId {
        ProcessId(i)
    }

    /// The paper's Fig. 1 shape: p1 writes v1 (ok), starts v2, crashes,
    /// recovers, writes v3 (ok).
    fn fig1_history() -> History {
        let mut h = History::new();
        let w1 = h.invoke(p(1), Op::Write(Value::from_u32(1)));
        h.reply(w1, OpResult::Written);
        let _w2 = h.invoke(p(1), Op::Write(Value::from_u32(2))); // index 2
        h.crash(p(1)); // 3
        h.recover(p(1)); // 4
        let w3 = h.invoke(p(1), Op::Write(Value::from_u32(3))); // 5
        h.reply(w3, OpResult::Written); // 6
        h
    }

    #[test]
    fn persistent_bound_is_next_invocation() {
        let h = fig1_history();
        let iv = extract(&h, CompletionRule::Persistent);
        assert_eq!(iv.fixed.len(), 2);
        assert_eq!(iv.optional_writes.len(), 1);
        let w2 = &iv.optional_writes[0];
        assert!(w2.pending);
        // Bound = index of W(v3) invocation (event 5).
        assert_eq!(w2.end, 5);
    }

    #[test]
    fn transient_bound_is_next_write_reply() {
        let h = fig1_history();
        let iv = extract(&h, CompletionRule::Transient);
        let w2 = &iv.optional_writes[0];
        // Bound = index of W(v3) reply (event 6): the unfinished write may
        // overlap W(v3).
        assert_eq!(w2.end, 6);
    }

    #[test]
    fn unbounded_when_no_subsequent_activity() {
        let mut h = History::new();
        let _w = h.invoke(p(0), Op::Write(Value::from_u32(9)));
        h.crash(p(0));
        for rule in [CompletionRule::Persistent, CompletionRule::Transient] {
            let iv = extract(&h, rule);
            assert_eq!(iv.optional_writes[0].end, usize::MAX);
        }
    }

    #[test]
    fn transient_bound_skips_read_replies() {
        let mut h = History::new();
        let _w = h.invoke(p(0), Op::Write(Value::from_u32(1))); // 0 pending
        h.crash(p(0)); // 1
        h.recover(p(0)); // 2
        let r = h.invoke(p(0), Op::Read); // 3
        h.reply(r, OpResult::ReadValue(Value::bottom())); // 4
        let w2 = h.invoke(p(0), Op::Write(Value::from_u32(2))); // 5
        h.reply(w2, OpResult::Written); // 6
        let iv = extract(&h, CompletionRule::Transient);
        // The read reply at 4 does not bound the pending write; the write
        // reply at 6 does.
        assert_eq!(iv.optional_writes[0].end, 6);
        // Persistent bound is the read invocation at 3.
        let ivp = extract(&h, CompletionRule::Persistent);
        assert_eq!(ivp.optional_writes[0].end, 3);
    }

    #[test]
    fn pending_reads_are_dropped() {
        let mut h = History::new();
        let _r = h.invoke(p(0), Op::Read);
        h.crash(p(0));
        let iv = extract(&h, CompletionRule::Persistent);
        assert!(iv.fixed.is_empty());
        assert!(iv.optional_writes.is_empty());
    }

    #[test]
    fn rejected_operations_are_excluded() {
        let mut h = History::new();
        let r = h.invoke(p(0), Op::Read);
        h.reply(r, OpResult::Rejected(rmem_types::RejectReason::Shutdown));
        let iv = extract(&h, CompletionRule::Persistent);
        assert!(iv.fixed.is_empty());
    }

    #[test]
    fn precedes_uses_interval_order() {
        let a = IntervalOp {
            op: OpId::new(p(0), 0),
            kind: OpKind::Write,
            write_value: Some(Value::from_u32(1)),
            read_value: None,
            inv: 0,
            end: 1,
            pending: false,
        };
        let b = IntervalOp {
            op: OpId::new(p(1), 0),
            inv: 2,
            end: 3,
            ..a.clone()
        };
        let c = IntervalOp {
            op: OpId::new(p(2), 0),
            inv: 1,
            end: 4,
            ..a.clone()
        };
        assert!(a.precedes(&b));
        assert!(!a.precedes(&c)); // c starts at 1, a ends at 1: concurrent
        assert!(!b.precedes(&a));
    }
}
