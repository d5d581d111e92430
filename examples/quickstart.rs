//! Quickstart: a persistent-atomic register emulated by three simulated
//! processes, exercised through writes, reads and a crash — then certified
//! by the atomicity checker.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rmem_consistency::check_persistent;
use rmem_core::Persistent;
use rmem_sim::{ClusterConfig, PlannedEvent, Schedule, Simulation};
use rmem_types::{Op, ProcessId, Value};

fn main() {
    // Three processes, the paper's LAN/disk constants (δ=100µs, λ=200µs).
    let config = ClusterConfig::new(3);

    // A scripted run: p0 writes, p1 reads, p0 crashes mid-write and
    // recovers, p2 reads what the recovery finished.
    let schedule = Schedule::new()
        .at(
            1_000,
            PlannedEvent::Invoke(ProcessId(0), Op::Write(Value::from("hello"))),
        )
        .at(10_000, PlannedEvent::Invoke(ProcessId(1), Op::Read))
        .at(
            20_000,
            PlannedEvent::Invoke(ProcessId(0), Op::Write(Value::from("world"))),
        )
        .at(20_500, PlannedEvent::Crash(ProcessId(0))) // mid-write, after its pre-log
        .at(25_000, PlannedEvent::Recover(ProcessId(0)))
        .at(35_000, PlannedEvent::Invoke(ProcessId(2), Op::Read));

    let mut sim = Simulation::new(config, Persistent::factory(), 42).with_schedule(schedule);
    let report = sim.run();

    println!("operations:");
    for op in report.trace.operations() {
        println!("  {}", rmem_sim::render::describe_op(op));
    }
    println!();
    println!(
        "messages sent/delivered: {}/{}   stores applied: {}   crashes: {}",
        report.trace.messages_sent,
        report.trace.messages_delivered,
        report.trace.stores_applied,
        report.trace.crashes,
    );

    // The punchline: the recorded history satisfies persistent atomicity.
    let history = report.trace.to_history();
    match check_persistent(&history) {
        Ok(verdict) => println!(
            "persistent atomicity: SATISFIED (witness linearization of {} ops)",
            verdict.witness.len()
        ),
        Err(violation) => println!("persistent atomicity: VIOLATED — {violation}"),
    }
}
