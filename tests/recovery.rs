//! Recovery-path tests: what exactly each algorithm does between `Start`
//! and readiness after a crash, and that recovery logging stays *outside*
//! operations (§IV-B: "this log is outside the actual read and write
//! operations").

use rmem_core::{Persistent, Regular, Transient};
use rmem_sim::{ClusterConfig, PlannedEvent, Schedule, Simulation};
use rmem_storage::records::{RecoveredRecord, WritingRecord, WrittenRecord};
use rmem_storage::StableStorage;
use rmem_types::{Op, OpKind, ProcessId, Value};

mod common;
use common::{read_values, run_scheduled};

fn p(i: u16) -> ProcessId {
    ProcessId(i)
}

fn v(x: u32) -> Value {
    Value::from_u32(x)
}

/// After a persistent write completes, every node of its quorum durably
/// holds the value exactly once: the replica under `written`, the writer
/// under its `writing` pre-log alone (its `written` record is never
/// rewritten). The propagation round is thrifty: it goes to the writer
/// and the one peer that completed the query round with it, so the third
/// node keeps its initial record.
#[test]
fn stable_records_after_a_persistent_write() {
    let mut sim = Simulation::new(ClusterConfig::new(3), Persistent::factory(), 1)
        .with_schedule(Schedule::new().at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(7)))));
    let report = sim.run();
    assert!(report.trace.operations()[0].is_completed());

    let written_value = |pid: ProcessId| {
        let bytes = sim.storage(pid).retrieve("written").unwrap()?;
        WrittenRecord::decode(&bytes).unwrap().value.as_u32()
    };
    let mut peers = [written_value(p(1)), written_value(p(2))];
    peers.sort();
    assert_eq!(peers, [None, Some(7)], "one peer holds 7, the other ⊥");
    assert_eq!(
        written_value(p(0)),
        None,
        "the writer's pre-log is its replica record; no second store"
    );

    let writing = sim
        .storage(p(0))
        .retrieve("writing")
        .unwrap()
        .expect("writer pre-log");
    let rec = WritingRecord::decode(&writing).unwrap();
    assert_eq!(rec.value.as_u32(), Some(7));
    assert_eq!(rec.ts.pid, p(0));
    // A majority of stores for the write, on top of the n initial
    // `written` records.
    assert_eq!(report.trace.stores_applied, 3 + 2);
}

/// The transient recovery bumps and stores the `recovered` counter once
/// per recovery; flapping accumulates it.
#[test]
fn recovered_counter_accumulates_across_recoveries() {
    let schedule = Schedule::new()
        .at(1_000, PlannedEvent::Crash(p(0)))
        .at(2_000, PlannedEvent::Recover(p(0)))
        .at(5_000, PlannedEvent::Crash(p(0)))
        .at(6_000, PlannedEvent::Recover(p(0)))
        .at(9_000, PlannedEvent::Crash(p(0)))
        .at(10_000, PlannedEvent::Recover(p(0)));
    let mut sim =
        Simulation::new(ClusterConfig::new(3), Transient::factory(), 2).with_schedule(schedule);
    let report = sim.run();
    assert_eq!(report.trace.recoveries, 3);
    let bytes = sim
        .storage(p(0))
        .retrieve("recovered")
        .unwrap()
        .expect("rec record");
    assert_eq!(RecoveredRecord::decode(&bytes).unwrap().count, 3);
}

/// Recovery stores do not count toward any operation's causal logs: a
/// post-recovery uncontended write still measures exactly its flavor's
/// causal-log bound.
#[test]
fn recovery_logging_is_outside_operations() {
    for (factory, expected_write_logs) in [
        (Persistent::factory(), 2u32),
        (Transient::factory(), 1),
        (Regular::factory(), 1),
    ] {
        let name = factory.flavor().name;
        let schedule = Schedule::new()
            .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
            .at(10_000, PlannedEvent::Crash(p(0)))
            .at(12_000, PlannedEvent::Recover(p(0)))
            .at(30_000, PlannedEvent::Invoke(p(0), Op::Write(v(2))));
        let report = run_scheduled(3, factory, schedule, 3);
        let second_write = report
            .trace
            .operations()
            .iter()
            .filter(|o| o.kind == OpKind::Write)
            .nth(1)
            .expect("second write recorded");
        assert!(second_write.is_completed(), "{name}");
        assert_eq!(
            second_write.causal_logs, expected_write_logs,
            "{name}: post-recovery write must cost its normal causal logs"
        );
        assert!(
            report.trace.background_stores > 0,
            "{name}: recovery/initialisation stores must be accounted as background"
        );
    }
}

/// A process that recovers while an operation is being invoked at it
/// queues the invocation until its recovery round completes — the
/// operation then runs, it is not lost or rejected.
#[test]
fn invocations_during_recovery_are_served_after_it() {
    let schedule = Schedule::new()
        .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(5))))
        .at(10_000, PlannedEvent::Crash(p(1)))
        .at(12_000, PlannedEvent::Recover(p(1)))
        // 50µs after the Recover event the automaton is still mid-recovery
        // (its rec-store/finish-write takes ≥200µs): this invoke queues.
        .at(12_050, PlannedEvent::Invoke(p(1), Op::Read));
    for factory in [Persistent::factory(), Transient::factory()] {
        let name = factory.flavor().name;
        let report = run_scheduled(3, factory, schedule.clone(), 4);
        let reads = read_values(&report);
        assert_eq!(
            reads,
            vec![Some(5)],
            "{name}: the queued read must run and see the write"
        );
    }
}

/// Recovering from corrupted stable records must not panic: the process
/// falls back to initial state (and the cluster as a whole still serves).
#[test]
fn corrupt_stable_records_do_not_panic_recovery() {
    use rmem_types::{AutomatonFactory, Input, StableSnapshot};

    struct Corrupt;
    impl StableSnapshot for Corrupt {
        fn get(&self, _key: &str) -> Option<bytes::Bytes> {
            Some(bytes::Bytes::from_static(b"\xff\xff\xff garbage"))
        }
    }

    for factory in [
        Persistent::factory(),
        Transient::factory(),
        Regular::factory(),
    ] {
        let mut automaton = factory.recover(p(0), 3, 1, &Corrupt);
        let mut out = Vec::new();
        automaton.on_input(Input::Start, &mut out); // must not panic
    }
}
