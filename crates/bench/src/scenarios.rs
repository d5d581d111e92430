//! Executable reproductions of the paper's figure runs: the Fig. 1
//! persistent/transient comparison and the lower-bound proof runs ρ1
//! (Fig. 2, Theorem 1) and ρ4 (Fig. 3, Theorem 2).
//!
//! Each function returns an adversary [`Schedule`] for a 3-process
//! cluster. The schedules use directional link blocks and precisely timed
//! crashes to steer which replicas see which values — the simulator's
//! deterministic delays (δ = 100 µs one-way, ≈5 µs send serialization,
//! λ = 200 µs logs, 2 ms retransmit) make the interleavings reproducible.
//! The schedules steer the figures' message pattern — every round to all
//! `n` — so [`fig1`] and [`rho4`] are run with the read fast path off
//! (`Flavor::with_read_fast_path(false)`): with it on, rounds are thrifty
//! and go to the majority that answered last, which these blocks do not
//! steer. Run the matching algorithm and feed the trace history to the
//! checkers:
//!
//! | schedule | algorithm | persistent? | transient? |
//! |---|---|---|---|
//! | [`fig1`] | `Transient` | **violated** | satisfied |
//! | [`fig1`] | `Persistent` | satisfied | satisfied |
//! | [`rho1`] | `ablation::no_pre_log` | **violated** | **violated** |
//! | [`rho1`] | `Persistent` / `Transient` | satisfied | satisfied |
//! | [`rho4`] | `ablation::no_read_write_back` | **violated** | **violated** |
//! | [`rho4`] | `Persistent` | satisfied | satisfied |

use rmem_sim::{PlannedEvent, Schedule};
use rmem_types::{Op, ProcessId, Value};

fn p(i: u16) -> ProcessId {
    ProcessId(i)
}

fn w(x: u32) -> Op {
    Op::Write(Value::from_u32(x))
}

/// **Fig. 1**: the writer `p0` crashes mid-`W(v2)` after `v2` reached only
/// `p1`; after recovery it starts `W(v3)`, whose propagation is stalled by
/// blocks. Two reads by `p2` during `W(v3)` then return `v1` followed by
/// `v2` — the "overlapping write": fine for transient atomicity (the
/// unfinished `W(v2)` may linearize inside `W(v3)`'s window), a violation
/// of persistent atomicity (`W(v2)` had to finish before `W(v3)` began).
///
/// Run with the **transient** register to exhibit the anomaly; the
/// **persistent** register on the same schedule never lets `v2` escape
/// (the writer crashed before its pre-log completed, so recovery finds
/// nothing to finish and `v2` vanishes).
pub fn fig1() -> Schedule {
    Schedule::new()
        // A completed first write seeds v1 everywhere.
        .at(1_000, PlannedEvent::Invoke(p(0), w(1)))
        // Contain v2: p2 must not receive the W(v2) propagation.
        .at(9_000, PlannedEvent::Block(p(0), p(2)))
        .at(10_000, PlannedEvent::Invoke(p(0), w(2)))
        // The transient writer broadcasts at ~10.21 ms (right after its
        // query round); p1 adopts v2. Crashing at 10.30 ms kills the
        // writer's own in-flight adoption, so only p1 holds v2.
        .at(10_300, PlannedEvent::Crash(p(0)))
        // Contain the recovery too. The recovered writer re-learns the
        // register from a majority before it serves (the catch-up), and
        // it must not learn v2: while it is down, reopen p0→p2 (the
        // upcoming reads need to hear p0 anyway — v2 is dead at the
        // writer, nothing re-propagates it) and shut p1→p0 across the
        // recovery, so the catch-up quorum is {p0, p2}, both at v1.
        .at(12_000, PlannedEvent::Unblock(p(0), p(2)))
        .at(12_000, PlannedEvent::Block(p(1), p(0)))
        .at(13_000, PlannedEvent::Recover(p(0)))
        .at(13_500, PlannedEvent::Unblock(p(1), p(0)))
        // W(v3): its query round runs 20.00–20.21 ms; the blocks planted
        // at 20.15 ms let the in-flight SN acks through but stop the
        // propagation round, so v3 exists only at p0 and W(v3) stays
        // open, retransmitting against closed links.
        .at(20_000, PlannedEvent::Invoke(p(0), w(3)))
        .at(20_150, PlannedEvent::Block(p(0), p(1)))
        .at(20_150, PlannedEvent::Block(p(0), p(2)))
        // R1 by p2 at 20.01 ms: its quorum is itself (v1) plus p0's
        // ReadAck (v1 — sent before v3's self-adoption, in flight before
        // the block): returns v1.
        .at(20_010, PlannedEvent::Invoke(p(2), Op::Read))
        // R2 by p2 at 20.50 ms: p0's ReadAck is now blocked, so the
        // quorum is itself (v1) plus p1 (v2): returns v2.
        .at(20_500, PlannedEvent::Invoke(p(2), Op::Read))
        // Lift the blocks: W(v3)'s retransmission completes it, closing
        // the history exactly like the figure (W(v3) replies last).
        .at(25_000, PlannedEvent::Unblock(p(0), p(1)))
        .at(25_000, PlannedEvent::Unblock(p(0), p(2)))
}

/// **Run ρ1** (Fig. 2, Theorem 1): the writer crashes mid-`W(v2)` with
/// `v2` adopted by `p1` alone and nothing logged at the writer. The
/// recovered writer's query round is steered to a majority that never saw
/// `v2`, so — without the pre-log (and without the transient `rec`
/// counter) — it reuses sequence number 2 and `W(v3)` collides with
/// `W(v2)`: two different values under the tag `[2, p0]`. Reads then
/// return `v2, v3, v2` — certified not atomic.
///
/// The real persistent algorithm survives the same schedule via its
/// `writing` pre-log + recovery completion; the transient one via `rec`.
pub fn rho1() -> Schedule {
    Schedule::new()
        .at(1_000, PlannedEvent::Invoke(p(0), w(1)))
        // Contain v2: only p1 (and the writer itself) can receive the
        // propagation; the query round is served by {p0, p1}.
        .at(9_000, PlannedEvent::Block(p(0), p(2)))
        .at(10_000, PlannedEvent::Invoke(p(0), w(2)))
        // Broadcast leaves at ~10.21 ms; crash at 10.30 ms: p1's adoption
        // is in flight (it completes), the writer's own is lost.
        .at(10_300, PlannedEvent::Crash(p(0)))
        // While the writer is down, reopen p0→p2 and isolate p1 entirely,
        // so the recovered writer's query round sees only {p0, p2} — a
        // majority whose maximum sequence number is still 1.
        .at(11_000, PlannedEvent::Unblock(p(0), p(2)))
        .at(12_000, PlannedEvent::Block(p(0), p(1)))
        .at(12_000, PlannedEvent::Block(p(1), p(0)))
        .at(13_000, PlannedEvent::Recover(p(0)))
        .at(14_000, PlannedEvent::Invoke(p(0), w(3)))
        // Heal the cluster and read from everyone.
        .at(20_000, PlannedEvent::Unblock(p(0), p(1)))
        .at(20_000, PlannedEvent::Unblock(p(1), p(0)))
        .at(25_000, PlannedEvent::Invoke(p(1), Op::Read))
        .at(35_000, PlannedEvent::Invoke(p(2), Op::Read))
        .at(45_000, PlannedEvent::Invoke(p(1), Op::Read))
}

/// **Run ρ4** (Fig. 3, Theorem 2): `W(v2)` stays in flight, held at the
/// writer alone. Reader `p1` hears `v2` once (through a briefly opened
/// link), crashes, recovers, and — if its read performed no write-back
/// (no log anywhere) — its next read assembles a majority of `v1`
/// holders: `v2` then `v1`, a new-old inversion across the crash.
///
/// The real algorithm's read write-back (its 1 causal log) pushes `v2`
/// into a majority before the first read returns, which is exactly why
/// the same schedule leaves it atomic.
pub fn rho4() -> Schedule {
    Schedule::new()
        .at(1_000, PlannedEvent::Invoke(p(0), w(1)))
        // Contain v2 at the writer: p1 is cut off before the write begins
        // and p2 is cut off between the query round (whose SN acks are
        // already in flight) and the propagation round.
        .at(9_000, PlannedEvent::Block(p(0), p(1)))
        .at(10_000, PlannedEvent::Invoke(p(0), w(2)))
        .at(10_150, PlannedEvent::Block(p(0), p(2)))
        // Briefly reopen p0→p1 so exactly one ReadAck carrying v2 gets
        // through; the 2 ms retransmission of W(v2) fires at ~12.21 ms,
        // after the link closes again.
        .at(10_950, PlannedEvent::Unblock(p(0), p(1)))
        .at(11_000, PlannedEvent::Invoke(p(1), Op::Read)) // returns v2
        .at(11_500, PlannedEvent::Block(p(0), p(1)))
        .at(13_000, PlannedEvent::Crash(p(1)))
        .at(14_000, PlannedEvent::Recover(p(1)))
        .at(15_000, PlannedEvent::Invoke(p(1), Op::Read)) // returns v1
        // Heal everything so W(v2) finally completes and the run
        // quiesces (the paper's figure also completes W(v2) at the end).
        .at(30_000, PlannedEvent::Unblock(p(0), p(1)))
        .at(30_000, PlannedEvent::Unblock(p(0), p(2)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_nonempty_and_ordered_sanely() {
        for s in [fig1(), rho1(), rho4()] {
            assert!(s.entries().len() >= 8);
        }
    }
}
