//! The **chaos matrix**: a seeded generator of combined fault plans —
//! node kill/recover windows, torn-WAL-tail recoveries, and client
//! crashes after a planned number of outputs.
//!
//! The robustness suites all need the same adversary: "everything at
//! once, reproducibly". This module generates that adversary as *pure
//! data* ([`ChaosPlan`]), independent of any runtime, so one plan drives
//! both worlds:
//!
//! * the discrete-event simulator, via [`ChaosPlan::schedule`] (windows
//!   lower to [`PlannedEvent::Crash`]/[`PlannedEvent::Recover`]);
//! * the real-threaded cluster (`rmem-net`'s `FaultSchedule`, lowered by
//!   `rmem-kv`'s chaos harness), where torn tails and client crashes
//!   have physical meaning.
//!
//! Plans are majority-safe by construction: windows live in disjoint
//! time slots and each slot downs at most
//! [`MatrixSpec::max_concurrent_down`] processes, which is asserted to
//! leave a majority up — so every generated plan keeps the register
//! emulations live and *certifiable*, and a certification failure under
//! a plan is a real bug, not an availability artifact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_types::{Micros, ProcessId};

use crate::workload::{PlannedEvent, Schedule};

/// One node kill/recover window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// The process to kill.
    pub pid: ProcessId,
    /// Kill time (virtual µs from the run's start).
    pub start: Micros,
    /// How long the process stays down.
    pub down_for: Micros,
    /// Whether the recovery should find a torn write-ahead-log tail
    /// (garbage appended to the newest segment while the node is down).
    /// Runtimes whose disk for `pid` has no WAL treat this as a plain
    /// window.
    pub torn_tail: bool,
}

/// One planned client crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientCrash {
    /// Which client (an opaque id the harness maps onto its clients).
    pub client: u16,
    /// When its crash signal comes (virtual µs from the run's start).
    pub at: Micros,
    /// How many more outputs (submissions, journal writes) the client's
    /// host takes after the signal before it takes none: 1, 2, 3, 1, …
    /// by the crash's index, so three crashes of an idle exactly-once
    /// client leave an op journaled, marked sent, and sent.
    pub after_outputs: u64,
}

/// Specification of a seeded chaos plan.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Seed for all randomness (same seed ⇒ same plan).
    pub seed: u64,
    /// Total processes; windows target `0..processes`.
    pub processes: usize,
    /// Kill/recover windows to plan (one time slot each).
    pub windows: usize,
    /// Max processes down at once. Must leave a majority up:
    /// `max_concurrent_down ≤ (processes - 1) / 2`.
    pub max_concurrent_down: usize,
    /// Fraction of windows whose recovery is from a torn WAL tail.
    pub torn_fraction: f64,
    /// Client crashes to plan.
    pub client_crashes: usize,
    /// Client-id universe for crashes (`0..clients`).
    pub clients: u16,
    /// Plan horizon (virtual µs); windows and crashes all land inside.
    pub horizon: Micros,
}

impl Default for MatrixSpec {
    fn default() -> Self {
        MatrixSpec {
            seed: 0,
            processes: 50,
            windows: 6,
            max_concurrent_down: 3,
            torn_fraction: 0.5,
            client_crashes: 6,
            clients: 6,
            horizon: Micros(3_000_000),
        }
    }
}

/// A generated, reproducible combined fault plan (see the [module
/// docs](self)).
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// The generating seed (for labelling runs).
    pub seed: u64,
    /// Node kill/recover windows, in start order.
    pub windows: Vec<FaultWindow>,
    /// Client crashes, in time order.
    pub client_crashes: Vec<ClientCrash>,
}

impl ChaosPlan {
    /// Generates the plan for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the spec cannot keep a majority up
    /// (`max_concurrent_down > (processes - 1) / 2`) or has no processes.
    pub fn generate(spec: &MatrixSpec) -> ChaosPlan {
        assert!(spec.processes > 0, "a plan needs processes to fault");
        assert!(
            spec.max_concurrent_down <= (spec.processes - 1) / 2,
            "downing {} of {} processes would lose the majority",
            spec.max_concurrent_down,
            spec.processes
        );
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut windows = Vec::new();
        if spec.windows > 0 && spec.max_concurrent_down > 0 {
            // One disjoint time slot per requested window: concurrency
            // inside a slot is bounded by max_concurrent_down, and
            // nothing crosses a slot border — majority-safe by
            // construction.
            let slot = spec.horizon.0 / spec.windows as u64;
            for w in 0..spec.windows {
                let slot_start = w as u64 * slot;
                let downed = rng.gen_range(1..=spec.max_concurrent_down);
                let mut pids: Vec<usize> = Vec::new();
                while pids.len() < downed {
                    let pid = rng.gen_range(0..spec.processes);
                    if !pids.contains(&pid) {
                        pids.push(pid);
                    }
                }
                for pid in pids {
                    let start = slot_start + rng.gen_range(0..slot / 4 + 1);
                    let down_for = rng.gen_range(slot / 4..slot / 2 + 1);
                    windows.push(FaultWindow {
                        pid: ProcessId(pid as u16),
                        start: Micros(start),
                        down_for: Micros(down_for),
                        torn_tail: rng.gen_bool(spec.torn_fraction),
                    });
                }
            }
        }
        windows.sort_by_key(|w| w.start);
        let mut client_crashes: Vec<ClientCrash> = (0..spec.client_crashes)
            .map(|i| ClientCrash {
                client: rng.gen_range(0..spec.clients.max(1)),
                at: Micros(rng.gen_range(0..spec.horizon.0)),
                // From the index, not the generator: the plan's draws
                // stay what they are.
                after_outputs: 1 + i as u64 % 3,
            })
            .collect();
        client_crashes.sort_by_key(|c| c.at);
        ChaosPlan {
            seed: spec.seed,
            windows,
            client_crashes,
        }
    }

    /// The most processes ever down at one instant (a sanity readout for
    /// tests asserting majority-safety).
    pub fn peak_down(&self) -> usize {
        let mut edges: Vec<(u64, i64)> = Vec::new();
        for w in &self.windows {
            edges.push((w.start.0, 1));
            edges.push((w.start.0 + w.down_for.0, -1));
        }
        edges.sort();
        let mut down = 0i64;
        let mut peak = 0i64;
        for (_, delta) in edges {
            down += delta;
            peak = peak.max(down);
        }
        peak as usize
    }

    /// Lowers the node windows to a discrete-event [`Schedule`]
    /// (`Crash`/`Recover` pairs). Torn tails and client crashes have no
    /// simulator analogue — the simulator's stable storage never tears,
    /// and a client's crash is its host's to apply — so they are the
    /// harness's.
    pub fn schedule(&self) -> Schedule {
        let mut schedule = Schedule::new();
        for w in &self.windows {
            schedule = schedule
                .at(w.start.0, PlannedEvent::Crash(w.pid))
                .at(w.start.0 + w.down_for.0, PlannedEvent::Recover(w.pid));
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let spec = MatrixSpec::default();
        let a = ChaosPlan::generate(&spec);
        let b = ChaosPlan::generate(&spec);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.client_crashes, b.client_crashes);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChaosPlan::generate(&MatrixSpec::default());
        let b = ChaosPlan::generate(&MatrixSpec {
            seed: 1,
            ..MatrixSpec::default()
        });
        assert_ne!(a.windows, b.windows);
    }

    #[test]
    fn plans_preserve_a_majority() {
        for seed in 0..20 {
            let spec = MatrixSpec {
                seed,
                processes: 9,
                windows: 8,
                max_concurrent_down: 4,
                ..MatrixSpec::default()
            };
            let plan = ChaosPlan::generate(&spec);
            assert!(
                plan.peak_down() <= 4,
                "seed {seed}: peak {}",
                plan.peak_down()
            );
        }
    }

    #[test]
    fn output_budgets_all_covered_and_events_inside_horizon() {
        let spec = MatrixSpec {
            client_crashes: 7,
            ..MatrixSpec::default()
        };
        let plan = ChaosPlan::generate(&spec);
        for outputs in 1..=3 {
            assert!(
                plan.client_crashes
                    .iter()
                    .any(|c| c.after_outputs == outputs),
                "a crash after {outputs} outputs must be planned"
            );
        }
        for w in &plan.windows {
            assert!(w.start.0 + w.down_for.0 <= spec.horizon.0 + spec.horizon.0 / 2);
        }
        for c in &plan.client_crashes {
            assert!(c.at.0 < spec.horizon.0);
        }
    }

    #[test]
    fn majority_violating_spec_is_refused() {
        let spec = MatrixSpec {
            processes: 5,
            max_concurrent_down: 3,
            ..MatrixSpec::default()
        };
        assert!(std::panic::catch_unwind(|| ChaosPlan::generate(&spec)).is_err());
    }

    #[test]
    fn schedule_lowering_pairs_crash_with_recover() {
        let plan = ChaosPlan::generate(&MatrixSpec::default());
        let schedule = plan.schedule();
        let crashes = schedule
            .entries()
            .iter()
            .filter(|(_, e)| matches!(e, PlannedEvent::Crash(_)))
            .count();
        let recovers = schedule
            .entries()
            .iter()
            .filter(|(_, e)| matches!(e, PlannedEvent::Recover(_)))
            .count();
        assert_eq!(crashes, recovers);
        assert_eq!(crashes, plan.windows.len());
    }
}
