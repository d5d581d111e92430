//! End-to-end shared-memory (multi-register) tests: independent
//! per-register emulations composed into one addressable memory, with
//! locality-based atomicity certification and crash recovery across
//! registers.

use rmem_consistency::{check_persistent, check_transient};
use rmem_core::{Persistent, SharedMemory, Transient};
use rmem_sim::{PlannedEvent, Schedule};
use rmem_types::{Op, OpKind, ProcessId, RegisterId, Value};

mod common;
use common::run_scheduled;

fn p(i: u16) -> ProcessId {
    ProcessId(i)
}

fn r(i: u16) -> RegisterId {
    RegisterId(i)
}

fn v(x: u32) -> Value {
    Value::from_u32(x)
}

#[test]
fn registers_are_independent() {
    let schedule = Schedule::new()
        .at(1_000, PlannedEvent::Invoke(p(0), Op::WriteAt(r(1), v(11))))
        .at(10_000, PlannedEvent::Invoke(p(1), Op::WriteAt(r(2), v(22))))
        .at(20_000, PlannedEvent::Invoke(p(2), Op::ReadAt(r(1))))
        .at(30_000, PlannedEvent::Invoke(p(2), Op::ReadAt(r(2))))
        .at(40_000, PlannedEvent::Invoke(p(2), Op::ReadAt(r(3)))); // never written
    let report = run_scheduled(3, SharedMemory::factory(Persistent::flavor()), schedule, 1);
    let reads: Vec<Option<u32>> = report
        .trace
        .operations()
        .iter()
        .filter(|o| o.kind == OpKind::Read)
        .map(|o| o.result.as_ref().unwrap().read_value().unwrap().as_u32())
        .collect();
    assert_eq!(
        reads,
        vec![Some(11), Some(22), None],
        "each register holds its own value"
    );
    check_persistent(&report.trace.to_history()).expect("multi-register persistent atomicity");
}

#[test]
fn concurrent_writers_on_different_registers_do_not_interfere() {
    for seed in 0..6u64 {
        let schedule = Schedule::new()
            // Simultaneous writes to different registers from different
            // processes — no cross-register quorum interference allowed.
            .at(1_000, PlannedEvent::Invoke(p(0), Op::WriteAt(r(1), v(1))))
            .at(1_000, PlannedEvent::Invoke(p(1), Op::WriteAt(r(2), v(2))))
            .at(1_000, PlannedEvent::Invoke(p(2), Op::WriteAt(r(3), v(3))))
            .at(10_000, PlannedEvent::Invoke(p(0), Op::ReadAt(r(2))))
            .at(10_000, PlannedEvent::Invoke(p(1), Op::ReadAt(r(3))))
            .at(10_000, PlannedEvent::Invoke(p(2), Op::ReadAt(r(1))));
        let report = run_scheduled(
            5,
            SharedMemory::factory(Transient::flavor()),
            schedule,
            seed,
        );
        let ops = report.trace.operations();
        assert!(ops.iter().all(|o| o.is_completed()), "seed {seed}");
        let read_of = |reg: RegisterId| {
            ops.iter()
                .find(|o| o.operation == Op::ReadAt(reg))
                .and_then(|o| o.result.as_ref().unwrap().read_value().unwrap().as_u32())
        };
        assert_eq!(read_of(r(1)), Some(1));
        assert_eq!(read_of(r(2)), Some(2));
        assert_eq!(read_of(r(3)), Some(3));
        check_transient(&report.trace.to_history()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn crash_recovery_restores_every_register() {
    let schedule = Schedule::new()
        .at(1_000, PlannedEvent::Invoke(p(0), Op::WriteAt(r(1), v(100))))
        .at(
            10_000,
            PlannedEvent::Invoke(p(0), Op::WriteAt(r(7), v(700))),
        )
        // Total blackout.
        .at(20_000, PlannedEvent::Crash(p(0)))
        .at(20_000, PlannedEvent::Crash(p(1)))
        .at(20_000, PlannedEvent::Crash(p(2)))
        .at(30_000, PlannedEvent::Recover(p(0)))
        .at(30_000, PlannedEvent::Recover(p(1)))
        .at(30_000, PlannedEvent::Recover(p(2)))
        .at(50_000, PlannedEvent::Invoke(p(1), Op::ReadAt(r(1))))
        .at(60_000, PlannedEvent::Invoke(p(2), Op::ReadAt(r(7))));
    let report = run_scheduled(3, SharedMemory::factory(Persistent::flavor()), schedule, 2);
    let reads: Vec<Option<u32>> = report
        .trace
        .operations()
        .iter()
        .filter(|o| o.kind == OpKind::Read)
        .map(|o| o.result.as_ref().unwrap().read_value().unwrap().as_u32())
        .collect();
    assert_eq!(
        reads,
        vec![Some(100), Some(700)],
        "both registers survive the blackout"
    );
    check_persistent(&report.trace.to_history()).expect("persistent across registers");
}

#[test]
fn writer_crash_mid_write_affects_only_its_register() {
    let schedule = Schedule::new()
        .at(1_000, PlannedEvent::Invoke(p(0), Op::WriteAt(r(1), v(1))))
        .at(10_000, PlannedEvent::Invoke(p(0), Op::WriteAt(r(2), v(2))))
        // Crash p0 mid-write on register 2.
        .at(10_500, PlannedEvent::Crash(p(0)))
        .at(15_000, PlannedEvent::Recover(p(0)))
        .at(30_000, PlannedEvent::Invoke(p(1), Op::ReadAt(r(1))))
        .at(40_000, PlannedEvent::Invoke(p(2), Op::ReadAt(r(2))));
    let report = run_scheduled(3, SharedMemory::factory(Persistent::flavor()), schedule, 3);
    let ops = report.trace.operations();
    let read1 = ops
        .iter()
        .find(|o| o.operation == Op::ReadAt(r(1)))
        .unwrap();
    assert_eq!(
        read1
            .result
            .as_ref()
            .unwrap()
            .read_value()
            .unwrap()
            .as_u32(),
        Some(1),
        "register 1's completed write is untouched by the register-2 crash"
    );
    check_persistent(&report.trace.to_history()).expect("persistent");
}

#[test]
fn mixed_default_and_addressed_operations_coexist() {
    // Op::Write / Op::Read address register 0 implicitly.
    let schedule = Schedule::new()
        .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(5))))
        .at(10_000, PlannedEvent::Invoke(p(1), Op::WriteAt(r(0), v(6))))
        .at(20_000, PlannedEvent::Invoke(p(2), Op::ReadAt(r(0))))
        .at(30_000, PlannedEvent::Invoke(p(2), Op::Read));
    let report = run_scheduled(3, SharedMemory::factory(Transient::flavor()), schedule, 4);
    let reads: Vec<Option<u32>> = report
        .trace
        .operations()
        .iter()
        .filter(|o| o.kind == OpKind::Read)
        .map(|o| o.result.as_ref().unwrap().read_value().unwrap().as_u32())
        .collect();
    assert_eq!(
        reads,
        vec![Some(6), Some(6)],
        "both addressings reach the same register"
    );
    check_transient(&report.trace.to_history()).expect("transient");
}

#[test]
fn per_register_causal_log_bounds_still_hold() {
    // The memory layer must not add logging: per-register ops cost exactly
    // the single-register bounds.
    let schedule = Schedule::new()
        .at(1_000, PlannedEvent::Invoke(p(0), Op::WriteAt(r(4), v(1))))
        .at(20_000, PlannedEvent::Invoke(p(1), Op::ReadAt(r(4))))
        .at(40_000, PlannedEvent::Invoke(p(2), Op::WriteAt(r(8), v(2))));
    let report = run_scheduled(5, SharedMemory::factory(Persistent::flavor()), schedule, 5);
    for op in report.trace.operations() {
        let expect = match op.kind {
            OpKind::Write => 2,
            OpKind::Read => 0, // uncontended
        };
        assert_eq!(op.causal_logs, expect, "{}", op.op);
    }
}

#[test]
fn memory_works_on_the_real_runtime_too() {
    // The wrapper is just another automaton: LocalCluster hosts it
    // unchanged, including kill/restart.
    let mut cluster =
        rmem_net::LocalCluster::channel(3, SharedMemory::factory(Persistent::flavor())).unwrap();
    cluster.client(p(0)).write(Value::from("root")).unwrap(); // register 0
    let c = cluster.client(p(1));
    // The blocking client API issues addressed ops through the Op enum.
    // (Client::write/read target register 0; addressed ops go through
    // invoke-level API in the sim. Here we verify the default register
    // path end-to-end and restart recovery of scoped slots.)
    assert_eq!(c.read().unwrap(), Value::from("root"));
    cluster.kill(p(0));
    cluster.restart(p(0)).unwrap();
    assert_eq!(cluster.client(p(0)).read().unwrap(), Value::from("root"));
    cluster.shutdown();
}
