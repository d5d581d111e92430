//! Cross-epoch register checking: stitching a register's pre- and
//! post-migration histories into one atomicity check.
//!
//! A live shard split (see `rmem-kv`'s epoch layer) relocates a logical
//! register: operations before the handoff address the *old* physical
//! register, operations after it address the *new* one. Each physical
//! register's history is trivially atomic on its own — the interesting
//! property is that the **logical** register stays atomic *across* the
//! handoff: the first value served at the new home must be the latest
//! value written at the old home (the tag-monotonic handoff), and nothing
//! written before the move may resurface after it.
//!
//! [`check_per_register_epochs`] makes that checkable with the machinery
//! this crate already has: relabel every operation on a moved register's
//! old id onto its new id ([`stitch_moves`]) — interleaving order is
//! preserved, only the address changes — and run the ordinary
//! per-register decision procedure on the result. A lost update (the
//! handoff copying a superseded value) or a new-old inversion across the
//! move then shows up as a plain atomicity violation of the stitched
//! register.
//!
//! The caller is responsible for the *decode* step (stripping migration
//! infrastructure, e.g. seal markers, and mapping store payloads to raw
//! values) — `rmem_kv::certify_per_key_epoch_path` does that for store runs.

use std::collections::BTreeMap;

use rmem_types::{Op, RegisterId};

use crate::atomicity::{check_per_register, Criterion, Verdict, Violation};
use crate::history::{Event, History};

/// Rewrites every operation on a moved register's old id onto its new id,
/// preserving event order. Registers absent from `moves` pass through.
///
/// `moves` maps old → new physical ids; one hop is applied (the epoch
/// layer never chains moves within one transition — a key moves at most
/// once per split).
pub fn stitch_moves(history: &History, moves: &BTreeMap<RegisterId, RegisterId>) -> History {
    let relabel = |reg: RegisterId| moves.get(&reg).copied().unwrap_or(reg);
    let mut out = History::new();
    for event in history.events() {
        match event {
            Event::Invoke { op, operation } => {
                let operation = match operation {
                    Op::WriteAt(reg, v) => Op::WriteAt(relabel(*reg), v.clone()),
                    Op::Write(v) => Op::WriteAt(relabel(RegisterId::ZERO), v.clone()),
                    Op::ReadAt(reg) => Op::ReadAt(relabel(*reg)),
                    Op::Read => Op::ReadAt(relabel(RegisterId::ZERO)),
                };
                out.push(Event::Invoke { op: *op, operation });
            }
            other => out.push(other.clone()),
        }
    }
    out
}

/// Per-register verdicts of a history containing live register moves:
/// each moved register's pre- and post-migration operations are stitched
/// into one logical history (keyed by the *new* id) and checked under
/// `criterion`; unmoved registers are checked as usual.
///
/// An empty map means the history addresses no register at all (vacuously
/// atomic).
pub fn check_per_register_epochs(
    history: &History,
    moves: &BTreeMap<RegisterId, RegisterId>,
    criterion: Criterion,
) -> BTreeMap<RegisterId, Result<Verdict, Violation>> {
    check_per_register(&stitch_moves(history, moves), criterion)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_types::{OpResult, ProcessId, Value};

    fn v(x: u32) -> Value {
        Value::from_u32(x)
    }

    const OLD: RegisterId = RegisterId(1);
    const NEW: RegisterId = RegisterId(5);

    fn moves() -> BTreeMap<RegisterId, RegisterId> {
        [(OLD, NEW)].into_iter().collect()
    }

    /// The tag-monotonic handoff, pinned: the new home serves exactly the
    /// old home's latest value, then moves on — one logical register,
    /// atomic across the move.
    #[test]
    fn monotonic_handoff_passes() {
        let mut h = History::new();
        let w1 = h.invoke(ProcessId(0), Op::WriteAt(OLD, v(1)));
        h.reply(w1, OpResult::Written);
        let r1 = h.invoke(ProcessId(1), Op::ReadAt(OLD));
        h.reply(r1, OpResult::ReadValue(v(1)));
        // Handoff: the first new-home read serves the old home's latest.
        let r2 = h.invoke(ProcessId(1), Op::ReadAt(NEW));
        h.reply(r2, OpResult::ReadValue(v(1)));
        let w2 = h.invoke(ProcessId(0), Op::WriteAt(NEW, v(2)));
        h.reply(w2, OpResult::Written);
        let r3 = h.invoke(ProcessId(1), Op::ReadAt(NEW));
        h.reply(r3, OpResult::ReadValue(v(2)));

        let verdicts = check_per_register_epochs(&h, &moves(), Criterion::Persistent);
        assert_eq!(verdicts.len(), 1, "one logical register after stitching");
        assert!(verdicts[&NEW].is_ok(), "{:?}", verdicts[&NEW]);
    }

    /// A deliberately corrupted handoff: the move resurrects a superseded
    /// value (the copy was not tag-monotonic — it carried v1 although v2
    /// had completed at the old home). The stitched check must fail.
    #[test]
    fn lost_update_across_the_move_fails() {
        let mut h = History::new();
        let w1 = h.invoke(ProcessId(0), Op::WriteAt(OLD, v(1)));
        h.reply(w1, OpResult::Written);
        let w2 = h.invoke(ProcessId(0), Op::WriteAt(OLD, v(2)));
        h.reply(w2, OpResult::Written);
        // New home serves the *older* value after the move: a new-old
        // inversion of the logical register.
        let r = h.invoke(ProcessId(1), Op::ReadAt(NEW));
        h.reply(r, OpResult::ReadValue(v(1)));

        let verdicts = check_per_register_epochs(&h, &moves(), Criterion::Transient);
        assert!(
            matches!(verdicts[&NEW], Err(Violation::NotAtomic { .. })),
            "the stale handoff must be a violation, got {:?}",
            verdicts[&NEW]
        );
    }

    /// A completed pre-move write must not vanish at the new home: a ⊥
    /// read after the move is the forgotten-value anomaly of the logical
    /// register.
    #[test]
    fn forgotten_value_across_the_move_fails() {
        let mut h = History::new();
        let w = h.invoke(ProcessId(0), Op::WriteAt(OLD, v(7)));
        h.reply(w, OpResult::Written);
        let r = h.invoke(ProcessId(1), Op::ReadAt(NEW));
        h.reply(r, OpResult::ReadValue(Value::bottom()));
        let verdicts = check_per_register_epochs(&h, &moves(), Criterion::Persistent);
        assert!(verdicts[&NEW].is_err());
    }

    /// Unmoved registers are untouched by the stitching and share the
    /// result map with stitched ones.
    #[test]
    fn unmoved_registers_check_alongside() {
        let mut h = History::new();
        let w = h.invoke(ProcessId(0), Op::WriteAt(RegisterId(9), v(3)));
        h.reply(w, OpResult::Written);
        let r = h.invoke(ProcessId(1), Op::ReadAt(RegisterId(9)));
        h.reply(r, OpResult::ReadValue(v(3)));
        let w2 = h.invoke(ProcessId(0), Op::WriteAt(OLD, v(1)));
        h.reply(w2, OpResult::Written);
        let verdicts = check_per_register_epochs(&h, &moves(), Criterion::Persistent);
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts[&RegisterId(9)].is_ok());
        assert!(verdicts[&NEW].is_ok());
    }

    /// Crashes interleaved with the move keep their model semantics: a
    /// pending pre-move write may surface at the new home (kept by the
    /// completion) or vanish (dropped), both legal.
    #[test]
    fn pending_write_across_the_move_may_land_or_vanish() {
        // Kept: the pending write's value is served at the new home.
        let mut kept = History::new();
        let w1 = kept.invoke(ProcessId(0), Op::WriteAt(OLD, v(1)));
        kept.reply(w1, OpResult::Written);
        let _w2 = kept.invoke(ProcessId(0), Op::WriteAt(OLD, v(2)));
        kept.crash(ProcessId(0));
        kept.recover(ProcessId(0));
        let r = kept.invoke(ProcessId(1), Op::ReadAt(NEW));
        kept.reply(r, OpResult::ReadValue(v(2)));
        assert!(check_per_register_epochs(&kept, &moves(), Criterion::Persistent)[&NEW].is_ok());

        // Dropped: the new home still serves the last completed value.
        let mut dropped = History::new();
        let w1 = dropped.invoke(ProcessId(0), Op::WriteAt(OLD, v(1)));
        dropped.reply(w1, OpResult::Written);
        let _w2 = dropped.invoke(ProcessId(0), Op::WriteAt(OLD, v(2)));
        dropped.crash(ProcessId(0));
        dropped.recover(ProcessId(0));
        let r = dropped.invoke(ProcessId(1), Op::ReadAt(NEW));
        dropped.reply(r, OpResult::ReadValue(v(1)));
        assert!(check_per_register_epochs(&dropped, &moves(), Criterion::Persistent)[&NEW].is_ok());
    }

    /// Plain `Read`/`Write` (single-register shorthand) relabel through
    /// register 0 like any other address.
    #[test]
    fn shorthand_ops_relabel_through_zero() {
        let moves: BTreeMap<_, _> = [(RegisterId::ZERO, NEW)].into_iter().collect();
        let mut h = History::new();
        let w = h.invoke(ProcessId(0), Op::Write(v(4)));
        h.reply(w, OpResult::Written);
        let r = h.invoke(ProcessId(1), Op::ReadAt(NEW));
        h.reply(r, OpResult::ReadValue(v(4)));
        let verdicts = check_per_register_epochs(&h, &moves, Criterion::Persistent);
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[&NEW].is_ok());
    }
}
