//! The three top-level verdicts: linearizability (crash-stop), persistent
//! atomicity and transient atomicity (crash-recovery).

use rmem_types::OpId;

use crate::history::History;
use crate::intervals::{extract, CompletionRule, IntervalOp};
use crate::linearize::linearize_register;

/// A successful verdict: the history satisfies the criterion, witnessed by
/// a legal sequential order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Operation ids in a witnessing linearization order. Pending
    /// operations the completion dropped do not appear.
    pub witness: Vec<OpId>,
    /// Pending writes the witnessing completion chose to keep.
    pub kept_pending: Vec<OpId>,
}

/// A failed verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The history is not even well-formed (§III-A); the criterion is not
    /// applicable.
    NotWellFormed(crate::history::WellFormedError),
    /// No completion of the history is equivalent to a legal sequential
    /// history preserving precedence.
    NotAtomic {
        /// Which rule failed.
        rule: &'static str,
    },
    /// `check_linearizable` was given a history containing crash or
    /// recovery events.
    CrashEventsPresent,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NotWellFormed(e) => write!(f, "history not well-formed: {e}"),
            Violation::NotAtomic { rule } => write!(f, "no {rule} completion linearizes"),
            Violation::CrashEventsPresent => {
                write!(f, "linearizability applies to crash-free histories only")
            }
        }
    }
}

impl std::error::Error for Violation {}

fn check_with_rule(history: &History, rule: CompletionRule) -> Result<Verdict, Violation> {
    // Multi-register histories: linearizability is local, so check each
    // register's restriction independently and merge the witnesses (see
    // [`History::restrict_to_register`]). Well-formedness (§III-A) is
    // checked per restriction too: the paper states it for a single
    // object, and the runtimes enforce sequentiality per register (the
    // per-register operation table), so one process may legally have
    // operations on *distinct* registers in flight at once — each
    // register's restriction still sees a sequential process.
    let registers = history.registers();
    if registers.len() > 1 {
        let mut witness = Vec::new();
        let mut kept_pending = Vec::new();
        for reg in registers {
            let sub = history.restrict_to_register(reg);
            let v = check_with_rule(&sub, rule)?;
            witness.extend(v.witness);
            kept_pending.extend(v.kept_pending);
        }
        return Ok(Verdict {
            witness,
            kept_pending,
        });
    }
    history.well_formed().map_err(Violation::NotWellFormed)?;

    let intervals = extract(history, rule);
    let w = intervals.optional_writes.len();
    assert!(
        w < 20,
        "too many pending writes to enumerate completions ({w})"
    );

    // Enumerate keep/drop subsets of pending writes, smallest first: the
    // most common witness keeps nothing.
    for subset in 0u32..(1u32 << w) {
        let mut ops: Vec<IntervalOp> = intervals.fixed.clone();
        let mut kept = Vec::new();
        for (i, pw) in intervals.optional_writes.iter().enumerate() {
            if subset & (1 << i) != 0 {
                ops.push(pw.clone());
                kept.push(pw.op);
            }
        }
        if let Some(witness) = linearize_register(&ops) {
            return Ok(Verdict {
                witness,
                kept_pending: kept,
            });
        }
    }
    Err(Violation::NotAtomic {
        rule: match rule {
            CompletionRule::Persistent => "persistent-atomic",
            CompletionRule::Transient => "transient-atomic",
        },
    })
}

/// Checks **persistent atomicity** (§III-B): some completion — every
/// pending invocation dropped or answered before the same process's next
/// invocation — is equivalent to a legal sequential history preserving
/// precedence.
///
/// # Errors
///
/// Returns [`Violation`] if the history is malformed or no completion
/// linearizes.
pub fn check_persistent(history: &History) -> Result<Verdict, Violation> {
    check_with_rule(history, CompletionRule::Persistent)
}

/// Checks **transient atomicity** (§III-C): as persistent, but pending
/// replies may be postponed to just before the same process's next *write
/// reply* (weak completion).
///
/// # Errors
///
/// Returns [`Violation`] if the history is malformed or no weak completion
/// linearizes.
pub fn check_transient(history: &History) -> Result<Verdict, Violation> {
    check_with_rule(history, CompletionRule::Transient)
}

/// Per-register verdicts for a multi-register history — locality made
/// explicit.
///
/// [`check_persistent`]/[`check_transient`] already exploit locality
/// internally (a multi-register history satisfies the criterion iff every
/// per-register restriction does) but stop at the first violation. Layers
/// that name registers — the `rmem-kv` store maps keys onto registers and
/// wants checker output per *key* — need the full partition: this returns
/// the verdict of every register's restriction, keyed by register.
///
/// An empty map means the history addresses no register at all (vacuously
/// atomic).
pub fn check_per_register(
    history: &History,
    criterion: Criterion,
) -> std::collections::BTreeMap<rmem_types::RegisterId, Result<Verdict, Violation>> {
    let rule = CompletionRule::from(criterion);
    history
        .registers()
        .into_iter()
        .map(|reg| {
            let sub = history.restrict_to_register(reg);
            (reg, check_with_rule(&sub, rule))
        })
        .collect()
}

/// Which crash-recovery criterion to apply (for APIs parametric in the
/// criterion, e.g. [`check_per_register`]).
///
/// This is the caller-facing *name* of a criterion; each maps onto the
/// checker-internal completion rule
/// (`CompletionRule`) implementing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Persistent atomicity (§III-B).
    Persistent,
    /// Transient atomicity (§III-C).
    Transient,
}

impl Criterion {
    /// Human-readable criterion name.
    pub fn name(self) -> &'static str {
        match self {
            Criterion::Persistent => "persistent atomicity",
            Criterion::Transient => "transient atomicity",
        }
    }
}

impl From<Criterion> for CompletionRule {
    fn from(criterion: Criterion) -> CompletionRule {
        match criterion {
            Criterion::Persistent => CompletionRule::Persistent,
            Criterion::Transient => CompletionRule::Transient,
        }
    }
}

/// Checks plain linearizability for a crash-free history (the crash-stop
/// baseline's criterion).
///
/// # Errors
///
/// Returns [`Violation::CrashEventsPresent`] if the history contains crash
/// or recovery events, otherwise as [`check_persistent`].
pub fn check_linearizable(history: &History) -> Result<Verdict, Violation> {
    if history.crash_count() > 0
        || history
            .events()
            .iter()
            .any(|e| matches!(e, crate::history::Event::Recover { .. }))
    {
        return Err(Violation::CrashEventsPresent);
    }
    check_with_rule(history, CompletionRule::Persistent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_types::{Op, OpResult, ProcessId, Value};

    fn p(i: u16) -> ProcessId {
        ProcessId(i)
    }

    fn v(x: u32) -> Value {
        Value::from_u32(x)
    }

    #[test]
    fn empty_history_satisfies_everything() {
        let h = History::new();
        assert!(check_persistent(&h).is_ok());
        assert!(check_transient(&h).is_ok());
        assert!(check_linearizable(&h).is_ok());
    }

    #[test]
    fn sequential_run_satisfies_everything() {
        let mut h = History::new();
        h.complete_write(p(0), v(1));
        h.complete_read(p(1), v(1));
        h.complete_write(p(0), v(2));
        h.complete_read(p(1), v(2));
        assert!(check_persistent(&h).is_ok());
        assert!(check_transient(&h).is_ok());
        assert!(check_linearizable(&h).is_ok());
    }

    #[test]
    fn linearizable_rejects_crashy_histories() {
        let mut h = History::new();
        h.crash(p(0));
        assert_eq!(check_linearizable(&h), Err(Violation::CrashEventsPresent));
    }

    /// Paper Fig. 1 (right): persistent-atomic run. Reads around the
    /// crashed write return v1 then v2 — the unfinished W(v2) is completed
    /// before the next invocation.
    #[test]
    fn fig1_persistent_run_passes_persistent() {
        let mut h = History::new();
        h.complete_write(p(1), v(1));
        let _w2 = h.invoke(p(1), Op::Write(v(2)));
        h.crash(p(1));
        let r1 = h.invoke(p(2), Op::Read);
        h.reply(r1, OpResult::ReadValue(v(2)));
        h.recover(p(1));
        let w3 = h.invoke(p(1), Op::Write(v(3)));
        let r2 = h.invoke(p(2), Op::Read);
        h.reply(r2, OpResult::ReadValue(v(3)));
        h.reply(w3, OpResult::Written);
        assert!(check_persistent(&h).is_ok());
        assert!(check_transient(&h).is_ok(), "persistent ⇒ transient");
    }

    /// Paper Fig. 1 (left): the transient-atomic run with the overlapping
    /// write: after recovery, during W(v3), a read still returns v1 (so
    /// W(v2) has not taken effect), and a later read returns v2?? — no:
    /// the figure shows R()→v1 then R()→v2 while W(v3) is in progress.
    /// Persistent atomicity forbids this (v2's write must land before
    /// W(v3) begins); transient atomicity allows it (W(v2)'s reply may be
    /// postponed into W(v3)'s interval).
    #[test]
    fn fig1_transient_run_passes_transient_but_not_persistent() {
        let mut h = History::new();
        h.complete_write(p(1), v(1)); // events 0,1
        let _w2 = h.invoke(p(1), Op::Write(v(2))); // 2 (pending)
        h.crash(p(1)); // 3
        h.recover(p(1)); // 4
        let w3 = h.invoke(p(1), Op::Write(v(3))); // 5
        let r1 = h.invoke(p(2), Op::Read); // 6
        h.reply(r1, OpResult::ReadValue(v(1))); // 7
        let r2 = h.invoke(p(2), Op::Read); // 8
        h.reply(r2, OpResult::ReadValue(v(2))); // 9
        h.reply(w3, OpResult::Written); // 10
                                        // Transient: W(v2) may linearize between the two reads (its reply
                                        // bound is W(v3)'s reply at event 10).
        let verdict = check_transient(&h).expect("transient must accept");
        assert_eq!(verdict.kept_pending.len(), 1);
        // Persistent: W(v2) must complete before event 5 — before both
        // reads — so R1 returning v1 is a new-old inversion.
        assert!(matches!(
            check_persistent(&h),
            Err(Violation::NotAtomic { .. })
        ));
    }

    /// Dropping an unread pending write must be allowed: a crashed write
    /// nobody observed simply vanishes.
    #[test]
    fn unobserved_pending_write_is_droppable() {
        let mut h = History::new();
        h.complete_write(p(0), v(1));
        let _w2 = h.invoke(p(0), Op::Write(v(2)));
        h.crash(p(0));
        h.recover(p(0));
        let r = h.invoke(p(0), Op::Read);
        h.reply(r, OpResult::ReadValue(v(1)));
        let verdict = check_persistent(&h).expect("must accept");
        assert!(verdict.kept_pending.is_empty());
    }

    /// A pending write that *was* read must be kept — and once read, a
    /// reversion to the older value is a violation in both criteria.
    #[test]
    fn observed_pending_write_cannot_revert() {
        let mut h = History::new();
        h.complete_write(p(0), v(1));
        let _w2 = h.invoke(p(0), Op::Write(v(2)));
        h.crash(p(0));
        let r1 = h.invoke(p(1), Op::Read);
        h.reply(r1, OpResult::ReadValue(v(2)));
        let r2 = h.invoke(p(1), Op::Read);
        h.reply(r2, OpResult::ReadValue(v(1)));
        assert!(check_persistent(&h).is_err());
        assert!(check_transient(&h).is_err());
    }

    /// Forgotten-value anomaly (§I-C issue 1): a completed write must
    /// never be lost, even if every process crashes.
    #[test]
    fn forgotten_value_is_a_violation() {
        let mut h = History::new();
        h.complete_write(p(0), v(1));
        for i in 0..3 {
            h.crash(p(i));
        }
        for i in 0..3 {
            h.recover(p(i));
        }
        let r = h.invoke(p(1), Op::Read);
        h.reply(r, OpResult::ReadValue(Value::bottom()));
        assert!(check_persistent(&h).is_err());
        assert!(check_transient(&h).is_err());
    }

    /// Confused-values anomaly (§I-C issue 2): two reads returning the two
    /// different values in an order violating precedence.
    #[test]
    fn confused_values_is_a_violation_everywhere() {
        let mut h = History::new();
        h.complete_write(p(0), v(1));
        h.complete_write(p(0), v(2));
        let r1 = h.invoke(p(1), Op::Read);
        h.reply(r1, OpResult::ReadValue(v(2)));
        let r2 = h.invoke(p(1), Op::Read);
        h.reply(r2, OpResult::ReadValue(v(1)));
        assert!(check_persistent(&h).is_err());
        assert!(check_transient(&h).is_err());
    }

    /// Run ρ4 of Theorem 2 (Fig. 3): reader reads v2, crashes, recovers,
    /// reads v1 — new-old inversion across the reader's crash. Both
    /// criteria must reject it (this is the run a log-free read cannot
    /// avoid).
    #[test]
    fn rho4_reader_inversion_is_rejected() {
        let mut h = History::new();
        h.complete_write(p(1), v(1));
        let w2 = h.invoke(p(1), Op::Write(v(2)));
        let r1 = h.invoke(p(2), Op::Read);
        h.reply(r1, OpResult::ReadValue(v(2)));
        h.crash(p(2));
        h.recover(p(2));
        let r2 = h.invoke(p(2), Op::Read);
        h.reply(r2, OpResult::ReadValue(v(1)));
        h.reply(w2, OpResult::Written);
        assert!(check_persistent(&h).is_err());
        assert!(check_transient(&h).is_err());
    }

    /// Runs ρ2/ρ3 individually are fine — it is only their fusion ρ4 that
    /// violates atomicity.
    #[test]
    fn rho2_and_rho3_are_individually_atomic() {
        // ρ2: reader crashes, recovers, reads v1 (write W(v2) still in
        // flight — reading the old value is allowed).
        let mut h2 = History::new();
        h2.complete_write(p(1), v(1));
        let w2 = h2.invoke(p(1), Op::Write(v(2)));
        h2.crash(p(2));
        h2.recover(p(2));
        let r = h2.invoke(p(2), Op::Read);
        h2.reply(r, OpResult::ReadValue(v(1)));
        h2.reply(w2, OpResult::Written);
        assert!(check_persistent(&h2).is_ok());

        // ρ3: reader reads v2 before crashing.
        let mut h3 = History::new();
        h3.complete_write(p(1), v(1));
        let w2 = h3.invoke(p(1), Op::Write(v(2)));
        let r = h3.invoke(p(2), Op::Read);
        h3.reply(r, OpResult::ReadValue(v(2)));
        h3.crash(p(2));
        h3.recover(p(2));
        h3.reply(w2, OpResult::Written);
        assert!(check_persistent(&h3).is_ok());
    }

    /// Malformed histories are reported as such, not as atomicity
    /// violations.
    #[test]
    fn malformed_history_is_flagged() {
        let mut h = History::new();
        h.reply(rmem_types::OpId::new(p(0), 3), OpResult::Written);
        assert!(matches!(
            check_persistent(&h),
            Err(Violation::NotWellFormed(_))
        ));
    }

    /// Rejected invocations are ignored by the checkers.
    #[test]
    fn rejected_invocations_do_not_affect_verdicts() {
        let mut h = History::new();
        h.complete_write(p(0), v(1));
        let r = h.invoke(p(0), Op::Read);
        h.reply(r, OpResult::Rejected(rmem_types::RejectReason::Shutdown));
        h.complete_read(p(1), v(1));
        assert!(check_persistent(&h).is_ok());
    }
}
