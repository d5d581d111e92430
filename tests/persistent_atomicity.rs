//! End-to-end persistent-atomicity certification: the Fig. 4 algorithm
//! under randomized workloads, crash schedules and network hostility —
//! every recorded history must satisfy the persistent checker.

use rmem_consistency::check_persistent;
use rmem_core::Persistent;
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

/// Randomized closed-loop workloads over many seeds, no crashes: always
/// linearizable (persistent reduces to plain atomicity here).
#[test]
fn random_crash_free_workloads_are_atomic() {
    for seed in 0..12u64 {
        let mut sim = Simulation::new(
            ClusterConfig::new(5).with_net(NetConfig::lossy(0.05, 0.05)),
            Persistent::factory(),
            seed,
        );
        sim.add_closed_loop(ClosedLoop::writes(p(0), v(100 + seed as u32), 8));
        sim.add_closed_loop(ClosedLoop::writes(p(1), v(200 + seed as u32), 8));
        sim.add_closed_loop(ClosedLoop::reads(p(2), 8));
        sim.add_closed_loop(ClosedLoop::reads(p(3), 8));
        let report = sim.run();
        assert_eq!(
            report
                .trace
                .operations()
                .iter()
                .filter(|o| o.is_completed())
                .count(),
            32,
            "seed {seed}: all ops complete"
        );
        check_persistent(&report.trace.to_history()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Crash schedules sweeping the crash instant across a write's lifetime:
/// before the query, mid-query, after the pre-log, mid-propagation. The
/// criterion must hold at every cut point.
#[test]
fn crash_sweep_across_a_write_is_atomic() {
    // The write at t=10_000 goes through: query (≈10_000–10_210), pre-log
    // (≈10_210–10_410), propagation (≈10_410–10_820). Sweep crashes
    // through all of it.
    for crash_at in (10_050..11_000).step_by(75) {
        let schedule = Schedule::new()
            .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
            .at(10_000, PlannedEvent::Invoke(p(0), Op::Write(v(2))))
            .at(crash_at, PlannedEvent::Crash(p(0)))
            .at(15_000, PlannedEvent::Recover(p(0)))
            .at(25_000, PlannedEvent::Invoke(p(1), Op::Read))
            .at(35_000, PlannedEvent::Invoke(p(2), Op::Read))
            .at(45_000, PlannedEvent::Invoke(p(0), Op::Read));
        let report = run_scheduled(3, Persistent::factory(), schedule, crash_at);
        let h = report.trace.to_history();
        check_persistent(&h).unwrap_or_else(|e| {
            panic!(
                "crash at t={crash_at}: {e}\nreads: {:?}",
                read_values(&report)
            )
        });
        // All three reads agree (they are sequential and crash-free).
        let reads = read_values(&report);
        assert_eq!(reads.len(), 3, "crash at t={crash_at}");
        assert!(
            reads.windows(2).all(|w| w[0] == w[1]),
            "crash at t={crash_at}: sequential reads disagree: {reads:?}"
        );
        // The first write always completed, so ⊥ and v-lost are ruled out.
        assert!(
            reads[0] == Some(1) || reads[0] == Some(2),
            "crash at t={crash_at}: reads returned {reads:?}"
        );
    }
}

/// The recovery procedure finishes an interrupted write whose pre-log was
/// durable: once any read observes v2, all subsequent reads must.
#[test]
fn recovery_finishes_prelogged_writes() {
    // Crash after the pre-log (≈10_410) but before propagation acks
    // (≈10_820): recovery must re-propagate v2.
    let schedule = Schedule::new()
        .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
        .at(10_000, PlannedEvent::Invoke(p(0), Op::Write(v(2))))
        .at(10_500, PlannedEvent::Crash(p(0)))
        .at(15_000, PlannedEvent::Recover(p(0)))
        .at(25_000, PlannedEvent::Invoke(p(1), Op::Read));
    let report = run_scheduled(3, Persistent::factory(), schedule, 9);
    assert_eq!(
        read_values(&report),
        vec![Some(2)],
        "the pre-logged write must be finished"
    );
    check_persistent(&report.trace.to_history()).expect("persistent");
}

/// Multi-writer contention with interleaved crashes of a reader and a
/// writer; several seeds.
#[test]
fn contended_multi_writer_with_crashes_is_atomic() {
    for seed in 0..8u64 {
        let schedule = Schedule::new()
            .at(5_000, PlannedEvent::Invoke(p(0), Op::Write(v(10))))
            .at(5_100, PlannedEvent::Invoke(p(1), Op::Write(v(20))))
            .at(5_200, PlannedEvent::Invoke(p(2), Op::Read))
            .at(8_000, PlannedEvent::Crash(p(1)))
            .at(12_000, PlannedEvent::Invoke(p(3), Op::Read))
            .at(14_000, PlannedEvent::Recover(p(1)))
            .at(16_000, PlannedEvent::Invoke(p(1), Op::Read))
            .at(20_000, PlannedEvent::Invoke(p(4), Op::Write(v(30))))
            .at(26_000, PlannedEvent::Invoke(p(2), Op::Read));
        let report = run_scheduled(5, Persistent::factory(), schedule, seed);
        check_persistent(&report.trace.to_history()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Writes spanning payload sizes (including the 64 KB UDP-limit payload of
/// Fig. 6 bottom) stay atomic and complete.
#[test]
fn large_payloads_are_atomic() {
    for size in [0usize, 1, 4096, 65536] {
        let payload = Value::new(vec![0x5Au8; size]);
        let schedule = Schedule::new()
            .at(
                1_000,
                PlannedEvent::Invoke(p(0), Op::Write(payload.clone())),
            )
            .at(40_000, PlannedEvent::Invoke(p(1), Op::Read));
        let report = run_scheduled(3, Persistent::factory(), schedule, size as u64);
        let ops = report.trace.operations();
        assert!(ops.iter().all(|o| o.is_completed()), "size {size}");
        let read = ops.last().unwrap();
        assert_eq!(
            read.result.as_ref().unwrap().read_value().unwrap(),
            &payload,
            "size {size}: read must return the exact payload"
        );
        check_persistent(&report.trace.to_history()).expect("persistent");
    }
}

/// Back-to-back crash/recovery cycles of the same process (flapping),
/// with writes in between: timestamps must keep increasing and the
/// history must stay atomic.
#[test]
fn flapping_process_stays_atomic() {
    let mut schedule = Schedule::new();
    let mut t = 1_000u64;
    for round in 0..5u32 {
        schedule = schedule
            .at(t, PlannedEvent::Invoke(p(0), Op::Write(v(round + 1))))
            .at(t + 1_100, PlannedEvent::Crash(p(0)))
            .at(t + 3_000, PlannedEvent::Recover(p(0)));
        t += 6_000;
    }
    schedule = schedule
        .at(t, PlannedEvent::Invoke(p(1), Op::Read))
        .at(t + 10_000, PlannedEvent::Invoke(p(2), Op::Read));
    let report = run_scheduled(3, Persistent::factory(), schedule, 77);
    check_persistent(&report.trace.to_history()).expect("persistent under flapping");
    // Reads agree on some round's value (or the last fully completed one).
    let reads = read_values(&report);
    assert_eq!(reads.len(), 2);
    assert_eq!(reads[0], reads[1]);
}
