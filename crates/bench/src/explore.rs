//! Randomized adversary exploration: run the emulations under thousands
//! of seeded random schedules (crashes, partitions, loss, duplication,
//! mixed workloads) and certify every recorded history with the
//! appropriate checker.
//!
//! This is the repository's model-checking-lite layer: the deterministic
//! simulator makes every counterexample a replayable seed, so a violation
//! report is a complete bug reproduction. The `explore` binary drives it
//! from the command line; `tests/properties.rs` runs a smaller sweep in
//! CI.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_consistency::{check_persistent, check_transient, Violation};
use rmem_core::{Persistent, SharedMemory, Transient};
use rmem_sim::{ClusterConfig, NetConfig, PlannedEvent, Schedule, Simulation};
use rmem_types::{Op, ProcessId, RegisterId, Value};

/// Which criterion the explored algorithm must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// The persistent algorithm against persistent atomicity.
    Persistent,
    /// The transient algorithm against transient atomicity.
    Transient,
    /// The persistent shared memory (multi-register) against persistent
    /// atomicity.
    PersistentMemory,
}

impl Target {
    /// All targets.
    pub const ALL: [Target; 3] = [
        Target::Persistent,
        Target::Transient,
        Target::PersistentMemory,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Target::Persistent => "persistent",
            Target::Transient => "transient",
            Target::PersistentMemory => "persistent-memory",
        }
    }
}

/// Outcome of one explored run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The seed that produced the run (sufficient to replay it).
    pub seed: u64,
    /// Operations completed.
    pub completed: usize,
    /// Crash events delivered.
    pub crashes: u64,
    /// Messages dropped (loss + partitions).
    pub dropped: u64,
    /// The checker verdict.
    pub verdict: Result<(), Violation>,
    /// The recorded history (replayable evidence; feed to
    /// [`rmem_consistency::shrink()`] on violation).
    pub history: rmem_consistency::History,
}

/// Generates a random adversarial run for `target` from `seed` and checks
/// it. The schedule space covers: 3–5 processes; 0–6 crash/recovery
/// cycles anywhere in time (including simultaneous ones); 0–4 temporary
/// directional partitions; loss up to 25% and duplication up to 15%;
/// 4–14 operations from random processes at random times (multi-register
/// targets spread them over 3 registers).
pub fn explore_one(target: Target, seed: u64) -> RunOutcome {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C0);
    let n = [3usize, 5][rng.gen_range(0..2)];

    let mut schedule = Schedule::new();

    // Crash/recovery cycles. Every crash recovers eventually, keeping the
    // liveness precondition (a majority eventually up long enough).
    for _ in 0..rng.gen_range(0..6) {
        let pid = ProcessId(rng.gen_range(0..n as u16));
        let at = rng.gen_range(2_000..150_000);
        let down = rng.gen_range(3_000..40_000);
        schedule = schedule
            .at(at, PlannedEvent::Crash(pid))
            .at(at + down, PlannedEvent::Recover(pid));
    }

    // Temporary directional partitions.
    for _ in 0..rng.gen_range(0..4) {
        let from = ProcessId(rng.gen_range(0..n as u16));
        let to = ProcessId(rng.gen_range(0..n as u16));
        let at = rng.gen_range(2_000..120_000);
        let heal = rng.gen_range(5_000..50_000);
        schedule = schedule
            .at(at, PlannedEvent::Block(from, to))
            .at(at + heal, PlannedEvent::Unblock(from, to));
    }

    // Operations.
    let ops = rng.gen_range(4..14);
    for i in 0..ops {
        let pid = ProcessId(rng.gen_range(0..n as u16));
        let at = rng.gen_range(1_000..200_000);
        let value = Value::from_u32(1_000 * seed as u32 + i);
        let op = match target {
            Target::PersistentMemory => {
                let reg = RegisterId(rng.gen_range(0..3));
                if rng.gen_bool(0.5) {
                    Op::WriteAt(reg, value)
                } else {
                    Op::ReadAt(reg)
                }
            }
            _ => {
                if rng.gen_bool(0.5) {
                    Op::Write(value)
                } else {
                    Op::Read
                }
            }
        };
        schedule = schedule.at(at, PlannedEvent::Invoke(pid, op));
    }

    let net = NetConfig::lossy(rng.gen_range(0.0..0.25), rng.gen_range(0.0..0.15));
    let config = ClusterConfig::new(n).with_net(net);
    let factory: std::sync::Arc<dyn rmem_types::AutomatonFactory> = match target {
        Target::Persistent => Persistent::factory(),
        Target::Transient => Transient::factory(),
        Target::PersistentMemory => SharedMemory::factory(Persistent::flavor()),
    };
    let mut sim = Simulation::new(config, factory, seed).with_schedule(schedule);
    let report = sim.run();

    let history = report.trace.to_history();
    let verdict = match target {
        Target::Persistent | Target::PersistentMemory => check_persistent(&history).map(|_| ()),
        Target::Transient => check_transient(&history).map(|_| ()),
    };
    RunOutcome {
        seed,
        completed: report
            .trace
            .operations()
            .iter()
            .filter(|o| o.is_completed())
            .count(),
        crashes: report.trace.crashes,
        dropped: report.messages_dropped,
        verdict,
        history,
    }
}

/// Sweep summary.
#[derive(Debug, Default)]
pub struct SweepSummary {
    /// Runs executed.
    pub runs: usize,
    /// Operations completed across all runs.
    pub completed_ops: usize,
    /// Crash events across all runs.
    pub crashes: u64,
    /// Messages dropped across all runs.
    pub dropped: u64,
    /// Seeds whose runs violated the criterion.
    pub violations: Vec<u64>,
}

/// Replays a violating seed and returns the shrunk minimal counterexample
/// (`None` if the seed does not actually violate). Used by the `explore`
/// binary to turn a failing seed into a readable bug report.
pub fn minimal_counterexample(target: Target, seed: u64) -> Option<rmem_consistency::History> {
    let outcome = explore_one(target, seed);
    outcome.verdict.is_err().then(|| {
        let is_violating = |h: &rmem_consistency::History| match target {
            Target::Persistent | Target::PersistentMemory => check_persistent(h).is_err(),
            Target::Transient => check_transient(h).is_err(),
        };
        rmem_consistency::shrink(&outcome.history, is_violating)
    })
}

/// Runs `count` seeds starting at `base` against `target`.
pub fn sweep(target: Target, base: u64, count: usize) -> SweepSummary {
    let mut summary = SweepSummary::default();
    for seed in base..base + count as u64 {
        let outcome = explore_one(target, seed);
        summary.runs += 1;
        summary.completed_ops += outcome.completed;
        summary.crashes += outcome.crashes;
        summary.dropped += outcome.dropped;
        if outcome.verdict.is_err() {
            summary.violations.push(seed);
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_sweeps_find_no_violations() {
        for target in Target::ALL {
            let summary = sweep(target, 1_000, 15);
            assert_eq!(summary.runs, 15);
            assert!(
                summary.violations.is_empty(),
                "{}: violating seeds {:?}",
                target.name(),
                summary.violations
            );
        }
    }

    #[test]
    fn explore_is_deterministic_per_seed() {
        let a = explore_one(Target::Transient, 42);
        let b = explore_one(Target::Transient, 42);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.verdict.is_ok(), b.verdict.is_ok());
    }
}
