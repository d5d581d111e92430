//! End-to-end tests: the register algorithms under the deterministic
//! simulator, with histories certified by the atomicity checkers and
//! causal-log counts checked against the paper's bounds.

use rmem_consistency::{
    check_linearizable, check_per_register, check_persistent, check_transient, Criterion,
};
use rmem_core::{
    CrashStop, Flavor, FlavorFactory, Persistent, RegisterAutomaton, Regular, Transient,
};
use rmem_sim::workload::ClosedLoop;
use rmem_sim::{ClusterConfig, DiskConfig, NetConfig, PlannedEvent, Schedule, Simulation};
use rmem_storage::records::KEY_WRITING;
use rmem_storage::FaultPlan;
use rmem_types::{
    Action, Automaton, AutomatonFactory, Input, Message, Micros, Op, OpId, OpKind, ProcessId,
    RegisterId, StableSnapshot, Timestamp, Value,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

fn p(i: u16) -> ProcessId {
    ProcessId(i)
}

fn v(x: u32) -> Value {
    Value::from_u32(x)
}

#[test]
fn persistent_sequential_writes_and_reads() {
    let mut sim = Simulation::new(ClusterConfig::new(3), Persistent::factory(), 1).with_schedule(
        Schedule::new()
            .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
            .at(10_000, PlannedEvent::Invoke(p(1), Op::Read))
            .at(20_000, PlannedEvent::Invoke(p(0), Op::Write(v(2))))
            .at(30_000, PlannedEvent::Invoke(p(2), Op::Read)),
    );
    let report = sim.run();
    let ops = report.trace.operations();
    assert_eq!(ops.len(), 4);
    assert!(
        ops.iter().all(|o| o.is_completed()),
        "all ops complete: {ops:#?}"
    );
    // Reads see the latest completed writes.
    assert_eq!(
        ops[1]
            .result
            .as_ref()
            .unwrap()
            .read_value()
            .unwrap()
            .as_u32(),
        Some(1)
    );
    assert_eq!(
        ops[3]
            .result
            .as_ref()
            .unwrap()
            .read_value()
            .unwrap()
            .as_u32(),
        Some(2)
    );
    // Crash-free run: plain linearizability holds.
    let h = report.trace.to_history();
    check_linearizable(&h).expect("crash-free persistent run must linearize");
}

#[test]
fn all_flavors_complete_a_mixed_workload() {
    for (factory, name) in [
        (Persistent::factory(), "persistent"),
        (Transient::factory(), "transient"),
        (CrashStop::factory(), "crash-stop"),
    ] {
        let config = ClusterConfig::new(5);
        let mut sim = Simulation::new(config, factory, 7);
        sim.add_closed_loop(ClosedLoop::writes(p(0), v(11), 10));
        sim.add_closed_loop(ClosedLoop::writes(p(1), v(22), 10));
        sim.add_closed_loop(ClosedLoop::reads(p(2), 10));
        sim.add_closed_loop(ClosedLoop::reads(p(3), 10));
        let report = sim.run();
        let completed = report
            .trace
            .operations()
            .iter()
            .filter(|o| o.is_completed())
            .count();
        assert_eq!(completed, 40, "{name}: all 40 ops complete");
        let h = report.trace.to_history();
        check_linearizable(&h)
            .unwrap_or_else(|e| panic!("{name}: crash-free run not linearizable: {e}"));
    }
}

#[test]
fn causal_log_counts_match_the_paper_uncontended() {
    // Sequential (uncontended) workload: the table of §IV —
    //   persistent: W=2, R=0 (no concurrency ⇒ read write-back adopts
    //   nothing and no replica logs);
    //   transient: W=1, R=0; crash-stop: 0/0; regular: W=1, R=0.
    let cases = [
        (Persistent::factory(), 2u32, 0u32),
        (Transient::factory(), 1, 0),
        (CrashStop::factory(), 0, 0),
        (Regular::factory(), 1, 0),
    ];
    for (factory, expect_w, expect_r) in cases {
        let name = factory.algorithm();
        let mut sim = Simulation::new(ClusterConfig::new(5), factory, 3).with_schedule(
            Schedule::new()
                .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
                .at(20_000, PlannedEvent::Invoke(p(1), Op::Read))
                .at(40_000, PlannedEvent::Invoke(p(0), Op::Write(v(2))))
                .at(60_000, PlannedEvent::Invoke(p(2), Op::Read)),
        );
        let report = sim.run();
        let ops = report.trace.operations();
        assert!(ops.iter().all(|o| o.is_completed()), "{name}");
        for op in ops {
            let expect = match op.kind {
                OpKind::Write => expect_w,
                OpKind::Read => expect_r,
            };
            assert_eq!(
                op.causal_logs, expect,
                "{name}: {} expected {expect} causal logs, measured {}",
                op.op, op.causal_logs
            );
        }
    }
}

#[test]
fn concurrent_read_pays_one_causal_log() {
    // A read overlapping a write must write back a value some replicas
    // have not logged yet → its write-back round logs → 1 causal log.
    // Steering: writer at p0 starts at t=0; reader at p1 starts mid-write
    // (after the writer's query round, before propagation finishes).
    let mut sim = Simulation::new(ClusterConfig::new(5), Persistent::factory(), 5).with_schedule(
        Schedule::new()
            .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(9))))
            // The write's query round takes ~200µs; its pre-log ~200µs;
            // propagation starts ~1400µs in. Read at 1450µs races it.
            .at(1_450, PlannedEvent::Invoke(p(1), Op::Read)),
    );
    let report = sim.run();
    let ops = report.trace.operations();
    assert!(ops.iter().all(|o| o.is_completed()));
    let read = ops.iter().find(|o| o.kind == OpKind::Read).unwrap();
    assert!(
        read.causal_logs <= 1,
        "persistent read exceeds Theorem 2's matching bound: {}",
        read.causal_logs
    );
    let h = report.trace.to_history();
    check_persistent(&h).expect("run must stay persistent atomic");
}

#[test]
fn persistent_survives_writer_crash_mid_write() {
    // Writer p0 crashes 1.3ms into a write (after pre-log, likely before
    // the propagation quorum), recovers, and the recovery round finishes
    // the write. A later read must then see it (or the checker must
    // otherwise be satisfied).
    let mut sim = Simulation::new(ClusterConfig::new(3), Persistent::factory(), 11).with_schedule(
        Schedule::new()
            .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
            .at(10_000, PlannedEvent::Invoke(p(0), Op::Write(v(2))))
            .at(11_300, PlannedEvent::Crash(p(0)))
            .at(15_000, PlannedEvent::Recover(p(0)))
            .at(25_000, PlannedEvent::Invoke(p(1), Op::Read))
            .at(35_000, PlannedEvent::Invoke(p(2), Op::Read)),
    );
    let report = sim.run();
    let h = report.trace.to_history();
    check_persistent(&h)
        .unwrap_or_else(|e| panic!("persistent atomicity violated: {e}\nhistory: {h:#?}"));
    // The recovery round re-propagated the pre-logged value: both reads
    // return v2 (the interrupted write was completed by recovery).
    let reads: Vec<_> = report
        .trace
        .operations()
        .iter()
        .filter(|o| o.kind == OpKind::Read && o.is_completed())
        .collect();
    assert_eq!(reads.len(), 2);
    for r in reads {
        assert_eq!(
            r.result.as_ref().unwrap().read_value().unwrap().as_u32(),
            Some(2),
            "recovery must have finished W(v2)"
        );
    }
}

#[test]
fn transient_survives_writer_crash_mid_write() {
    let mut sim = Simulation::new(ClusterConfig::new(3), Transient::factory(), 13).with_schedule(
        Schedule::new()
            .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
            .at(10_000, PlannedEvent::Invoke(p(0), Op::Write(v(2))))
            .at(10_450, PlannedEvent::Crash(p(0))) // mid-query-round
            .at(15_000, PlannedEvent::Recover(p(0)))
            .at(20_000, PlannedEvent::Invoke(p(0), Op::Write(v(3))))
            .at(30_000, PlannedEvent::Invoke(p(1), Op::Read))
            .at(40_000, PlannedEvent::Invoke(p(2), Op::Read)),
    );
    let report = sim.run();
    let h = report.trace.to_history();
    check_transient(&h)
        .unwrap_or_else(|e| panic!("transient atomicity violated: {e}\nhistory: {h:#?}"));
}

#[test]
fn all_processes_crash_and_majority_recovers() {
    // The paper's robustness claim explicitly covers total simultaneous
    // crashes as long as a majority eventually recovers (§I-D).
    let mut sim = Simulation::new(ClusterConfig::new(3), Persistent::factory(), 17).with_schedule(
        Schedule::new()
            .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(7))))
            .at(10_000, PlannedEvent::Crash(p(0)))
            .at(10_000, PlannedEvent::Crash(p(1)))
            .at(10_000, PlannedEvent::Crash(p(2)))
            .at(20_000, PlannedEvent::Recover(p(0)))
            .at(20_000, PlannedEvent::Recover(p(1)))
            // p2 never recovers; majority {p0, p1} suffices.
            .at(40_000, PlannedEvent::Invoke(p(1), Op::Read)),
    );
    let report = sim.run();
    let read = report
        .trace
        .operations()
        .iter()
        .find(|o| o.kind == OpKind::Read)
        .expect("read recorded");
    assert!(
        read.is_completed(),
        "read must terminate with a majority up"
    );
    assert_eq!(
        read.result.as_ref().unwrap().read_value().unwrap().as_u32(),
        Some(7),
        "the completed write must survive the total crash"
    );
    check_persistent(&report.trace.to_history()).expect("persistent atomicity");
}

#[test]
fn crash_stop_baseline_forgets_values_after_total_crash() {
    // The same schedule against the no-logging baseline: the write is
    // forgotten — the anomaly that motivates logging (§IV-A).
    let mut sim = Simulation::new(ClusterConfig::new(3), CrashStop::factory(), 17).with_schedule(
        Schedule::new()
            .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(7))))
            .at(10_000, PlannedEvent::Crash(p(0)))
            .at(10_000, PlannedEvent::Crash(p(1)))
            .at(10_000, PlannedEvent::Crash(p(2)))
            .at(20_000, PlannedEvent::Recover(p(0)))
            .at(20_000, PlannedEvent::Recover(p(1)))
            .at(20_000, PlannedEvent::Recover(p(2)))
            .at(40_000, PlannedEvent::Invoke(p(1), Op::Read)),
    );
    let report = sim.run();
    let read = report
        .trace
        .operations()
        .iter()
        .find(|o| o.kind == OpKind::Read)
        .unwrap();
    assert!(read.is_completed());
    assert!(
        read.result
            .as_ref()
            .unwrap()
            .read_value()
            .unwrap()
            .is_bottom(),
        "the baseline must forget the value"
    );
    // And the checker certifies the violation.
    assert!(
        check_persistent(&report.trace.to_history()).is_err(),
        "forgotten value must fail persistent atomicity"
    );
}

#[test]
fn operations_stall_without_a_majority_and_resume_with_one() {
    // p1 and p2 crash; p0's write cannot terminate (robustness requires a
    // majority). After recovery it completes.
    let mut sim = Simulation::new(ClusterConfig::new(3), Persistent::factory(), 23).with_schedule(
        Schedule::new()
            .at(1_000, PlannedEvent::Crash(p(1)))
            .at(1_000, PlannedEvent::Crash(p(2)))
            .at(2_000, PlannedEvent::Invoke(p(0), Op::Write(v(5))))
            .at(50_000, PlannedEvent::Recover(p(1))),
    );
    let report = sim.run();
    let w = &report.trace.operations()[0];
    assert!(w.is_completed(), "write completes once a majority is back");
    assert!(
        w.latency().unwrap().0 > 48_000,
        "completion must wait for the recovery at t=50ms, got {:?}",
        w.latency()
    );
}

#[test]
fn lossy_network_is_survived_by_retransmission() {
    let config = ClusterConfig::new(5).with_net(rmem_sim::NetConfig::lossy(0.25, 0.10));
    let mut sim = Simulation::new(config, Persistent::factory(), 31);
    sim.add_closed_loop(ClosedLoop::writes(p(0), v(1), 15));
    sim.add_closed_loop(ClosedLoop::reads(p(1), 15));
    let report = sim.run();
    let completed = report
        .trace
        .operations()
        .iter()
        .filter(|o| o.is_completed())
        .count();
    assert_eq!(
        completed, 30,
        "fair-lossy loss must not prevent termination"
    );
    assert!(
        report.messages_dropped > 0,
        "the lossy net must actually drop"
    );
    check_linearizable(&report.trace.to_history()).expect("loss must not break atomicity");
}

#[test]
fn regular_register_satisfies_regularity_under_crashes() {
    let mut sim = Simulation::new(ClusterConfig::new(3), Regular::factory(), 37).with_schedule(
        Schedule::new()
            .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
            .at(5_000, PlannedEvent::Invoke(p(1), Op::Read))
            .at(8_000, PlannedEvent::Invoke(p(0), Op::Write(v(2))))
            .at(8_300, PlannedEvent::Crash(p(0)))
            .at(12_000, PlannedEvent::Recover(p(0)))
            .at(16_000, PlannedEvent::Invoke(p(0), Op::Write(v(3))))
            .at(25_000, PlannedEvent::Invoke(p(1), Op::Read))
            .at(35_000, PlannedEvent::Invoke(p(2), Op::Read)),
    );
    let report = sim.run();
    let h = report.trace.to_history();
    rmem_consistency::check_regular_swmr(&h)
        .unwrap_or_else(|e| panic!("regularity violated: {e}\n{h:#?}"));
}

#[test]
fn same_seed_same_run() {
    let run = |seed: u64| {
        let mut sim = Simulation::new(
            ClusterConfig::new(5).with_net(rmem_sim::NetConfig::lossy(0.1, 0.1)),
            Transient::factory(),
            seed,
        );
        sim.add_closed_loop(ClosedLoop::writes(p(0), v(1), 10));
        sim.add_closed_loop(ClosedLoop::reads(p(1), 10));
        let report = sim.run();
        (
            report.final_time,
            report.events_processed,
            report.trace.latencies(OpKind::Write),
            report.trace.latencies(OpKind::Read),
        )
    };
    assert_eq!(run(99), run(99), "identical seeds must replay identically");
    assert_ne!(
        run(99).1,
        run(100).1,
        "different seeds should differ (event counts)"
    );
}

#[test]
fn latency_composition_matches_paper_model() {
    // δ=100µs, λ=200µs, no jitter ⇒ write latencies ≈
    //   crash-stop: 2 round-trips = 4δ ≈ 400µs
    //   transient: 4δ + λ ≈ 600µs
    //   persistent: 4δ + 2λ ≈ 800µs
    // (small constants on top: loopback self-delivery, scheduling).
    let measure = |factory: std::sync::Arc<rmem_core::FlavorFactory>| -> f64 {
        let mut sim = Simulation::new(ClusterConfig::new(5), factory, 41);
        sim.add_closed_loop(ClosedLoop::writes(p(0), v(1), 20));
        let report = sim.run();
        let lat = report.trace.latencies(OpKind::Write);
        lat.iter().sum::<u64>() as f64 / lat.len() as f64
    };
    let cs = measure(CrashStop::factory());
    let tr = measure(Transient::factory());
    let pe = measure(Persistent::factory());
    assert!(
        (380.0..480.0).contains(&cs),
        "crash-stop ≈ 4δ, measured {cs}"
    );
    assert!(
        (580.0..700.0).contains(&tr),
        "transient ≈ 4δ+λ, measured {tr}"
    );
    assert!(
        (780.0..920.0).contains(&pe),
        "persistent ≈ 4δ+2λ, measured {pe}"
    );
    // The paper's headline: the transient→persistent gap is another λ.
    assert!(pe > tr && tr > cs);
}

/// How the coordinator of the swept write dies.
#[derive(Debug, Clone, Copy)]
enum CoordinatorFault {
    /// Crash this long after the write's invocation.
    CrashAfter(u64),
    /// The write's pre-log is refused by the disk — a torn `writing` tail:
    /// the slot keeps its previous record and the process halts.
    TornPreLog,
}

/// One run of the coordinator-crash sweep (see the test below). p0 writes
/// 1, p1 writes 2, then p0 writes 3 and dies as `fault` says; it recovers,
/// two reads look, p0 writes 4 over whatever the interrupted write left
/// behind, and finally the whole cluster crashes and recovers — p0's copy
/// of 4 is in its `writing` slot alone — before a last read.
fn coordinator_crash_run(n: usize, seed: u64, flavor: Flavor, fault: CoordinatorFault) {
    let verbatim = !flavor.read_fast_path;
    let ctx = format!("n={n} seed={seed} verbatim={verbatim} {fault:?}");
    const W3_AT: u64 = 10_000;
    let mut schedule = Schedule::new()
        .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
        .at(5_000, PlannedEvent::Invoke(p(1), Op::Write(v(2))))
        .at(W3_AT, PlannedEvent::Invoke(p(0), Op::Write(v(3))))
        .at(14_000, PlannedEvent::Recover(p(0)))
        .at(20_000, PlannedEvent::Invoke(p(1), Op::Read))
        .at(24_000, PlannedEvent::Invoke(p(2), Op::Read))
        .at(28_000, PlannedEvent::Invoke(p(0), Op::Write(v(4))))
        .at(50_000, PlannedEvent::Invoke(p(2), Op::Read));
    for pid in ProcessId::all(n) {
        schedule = schedule
            .at(40_000, PlannedEvent::Crash(pid))
            .at(42_000, PlannedEvent::Recover(pid));
    }
    if let CoordinatorFault::CrashAfter(offset) = fault {
        schedule = schedule.at(W3_AT + offset, PlannedEvent::Crash(p(0)));
    }
    // Seeded jitter on every hop and every store: the same offset lands
    // on different protocol steps under different seeds.
    let config = ClusterConfig::new(n)
        .with_net(NetConfig {
            jitter: Micros(40),
            ..NetConfig::default()
        })
        .with_disk(DiskConfig {
            jitter: Micros(60),
            ..DiskConfig::default()
        });
    let factory = Arc::new(FlavorFactory::new(flavor, rmem_core::DEFAULT_RETRANSMIT));
    let mut sim = Simulation::new(config, factory, seed).with_schedule(schedule);
    if let CoordinatorFault::TornPreLog = fault {
        // p0's second `writing` store is W(3)'s pre-log (whether p1's
        // thrifty W(2) reached p0, and was logged before it, varies).
        sim = sim.with_store_faults(p(0), FaultPlan::fail_nth_on_key(KEY_WRITING, 2));
    }
    let report = sim.run();

    let history = report.trace.to_history();
    for (reg, verdict) in check_per_register(&history, Criterion::Persistent) {
        verdict
            .unwrap_or_else(|e| panic!("{ctx}: {reg:?} not persistent atomic: {e}\n{history:#?}"));
    }
    let reads: Vec<u32> = report
        .trace
        .operations()
        .iter()
        .filter(|o| o.kind == OpKind::Read)
        .map(|o| {
            let result = o
                .result
                .as_ref()
                .unwrap_or_else(|| panic!("{ctx}: read stuck"));
            result.read_value().unwrap().as_u32().unwrap()
        })
        .collect();
    // Recovery finishes the interrupted write iff its pre-log landed, and
    // does so before p0 serves again: both early reads agree.
    assert!(
        reads[..2] == [2, 2] || reads[..2] == [3, 3],
        "{ctx}: {reads:?}"
    );
    let pre_log_landed = reads[0] == 3;
    if let CoordinatorFault::TornPreLog = fault {
        assert!(!pre_log_landed, "{ctx}: a torn pre-log resurfaced");
        assert_eq!(
            report.trace.crashes,
            1 + n as u64,
            "{ctx}: the fault never fired"
        );
    }
    // W(4) completed; its majority includes p0 only through `writing`.
    assert_eq!(
        reads[2], 4,
        "{ctx}: completed write lost by the total crash"
    );
    assert_eq!(report.trace.max_causal_logs(OpKind::Write), 2, "{ctx}");
    // With the figures' broadcasts, every write whose pre-log landed cost
    // exactly n durable records — the pre-log plus n-1 replica records,
    // however many times recovery re-propagated it — on top of the n boot
    // records. Thrifty rounds log a write on the majority they reach (a
    // recovery's re-finish and catch-up reach the rest), never more than
    // once per replica.
    let landed_writes = 3 + u64::from(pre_log_landed);
    let figures = n as u64 * (1 + landed_writes);
    if verbatim {
        assert_eq!(
            report.trace.stores_applied, figures,
            "{ctx}: stores per persistent write must be n"
        );
    } else {
        let majority = rmem_types::process::majority(n) as u64;
        let thrifty = n as u64 + majority * landed_writes..=figures;
        assert!(
            thrifty.contains(&report.trace.stores_applied),
            "{ctx}: {} stores, not between a majority and n per write",
            report.trace.stores_applied
        );
    }
}

/// Crashes the coordinator of a persistent write at every step between
/// issuing its pre-log and assembling its quorum — pre-log in flight
/// (lost), pre-log durable but nothing sent, propagation partly
/// delivered, acks in flight — plus the torn-tail case, on 3 and 5 nodes.
/// Every run must certify persistent atomicity, never lose the later
/// completed write to a total crash, keep the write's causal-log depth at
/// 2 and spend exactly n durable records per write with the figures'
/// broadcasts — between a majority and n with thrifty rounds.
/// Deterministic: a failure names its `(n, seed, flavor, fault)`.
#[test]
fn coordinator_crash_sweep_between_pre_log_and_quorum() {
    for flavor in [
        Flavor::persistent(),
        Flavor::persistent().with_read_fast_path(false),
    ] {
        for n in [3, 5] {
            for seed in 0..4 {
                // Query round ≈ 200µs, pre-log ≈ +200µs, propagation and
                // the replica logs ≈ +400µs: 0..1.1ms in 25µs steps
                // brackets the whole write on either side.
                for offset in (0..=1_100).step_by(25) {
                    let fault = CoordinatorFault::CrashAfter(offset);
                    coordinator_crash_run(n, seed, flavor, fault);
                }
                coordinator_crash_run(n, seed, flavor, CoordinatorFault::TornPreLog);
            }
        }
    }
}

// -------------------------------------------------------------------
// Recovery catch-up under the simulator
// -------------------------------------------------------------------

/// What the catch-up sweep needs to see and the trace does not record.
#[derive(Default)]
struct WatchLog {
    /// The tag every propagated value travelled under (values are unique
    /// per write in the sweep).
    tags: HashMap<u32, Timestamp>,
    /// `(process, incarnation)` → its replica's tag at the moment that
    /// recovered incarnation turned ready.
    ready: HashMap<(ProcessId, u64), Timestamp>,
    /// Recovered incarnations → the `written` stores (adoptions) each
    /// issued before turning ready.
    adoptions: HashMap<(ProcessId, u64), u32>,
}

/// A register automaton reporting into a shared [`WatchLog`].
struct Watched {
    inner: RegisterAutomaton,
    /// `(process, incarnation)` of a recovered incarnation not yet ready.
    recovering: Option<(ProcessId, u64)>,
    log: Arc<Mutex<WatchLog>>,
}

impl Automaton for Watched {
    fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
        let first = out.len();
        self.inner.on_input(input, out);
        let mut log = self.log.lock().unwrap();
        for action in &out[first..] {
            match action {
                Action::Send {
                    msg: Message::Write { ts, value, .. },
                    ..
                } => {
                    log.tags.insert(value.as_u32().unwrap(), *ts);
                }
                Action::Store { key, .. } if key == "written" => {
                    if let Some(who) = self.recovering {
                        *log.adoptions.entry(who).or_default() += 1;
                    }
                }
                _ => {}
            }
        }
        if self.inner.is_ready() {
            if let Some(who) = self.recovering.take() {
                log.ready.insert(who, self.inner.replica_timestamp());
            }
        }
    }

    fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }

    fn active(&self, reg: RegisterId) -> Option<OpId> {
        self.inner.active(reg)
    }

    fn algorithm(&self) -> &'static str {
        self.inner.algorithm()
    }
}

struct WatchedFactory {
    flavor: Flavor,
    log: Arc<Mutex<WatchLog>>,
}

impl AutomatonFactory for WatchedFactory {
    fn fresh(&self, me: ProcessId, n: usize) -> Box<dyn Automaton> {
        Box::new(Watched {
            inner: RegisterAutomaton::fresh(me, n, self.flavor, rmem_core::DEFAULT_RETRANSMIT),
            recovering: None,
            log: self.log.clone(),
        })
    }

    fn recover(
        &self,
        me: ProcessId,
        n: usize,
        incarnation: u64,
        stable: &dyn StableSnapshot,
    ) -> Box<dyn Automaton> {
        let retransmit = rmem_core::DEFAULT_RETRANSMIT;
        Box::new(Watched {
            inner: RegisterAutomaton::recovered(
                me,
                n,
                self.flavor,
                retransmit,
                incarnation,
                stable,
            ),
            recovering: Some((me, incarnation)),
            log: self.log.clone(),
        })
    }

    fn algorithm(&self) -> &'static str {
        self.flavor.name
    }
}

/// Who dies while p0 catches up.
#[derive(Debug, Clone, Copy)]
enum CatchUpFault {
    /// p0 itself, again, this long into its recovery.
    Recovering(u64),
    /// As `Recovering`, with as many peers as the cluster can lose (p1 on
    /// 3 nodes, p1 and p2 on 5) down from before the recovery until p0
    /// recovers again: fewer others are up than make a majority, so p0
    /// cannot be vouched for and logs what it missed — one retransmit
    /// period after its majority answered.
    RecoveringPeersDown(u64),
    /// Its peer p1, this long into p0's recovery.
    Peer(u64),
}

/// What one run of the catch-up sweep saw of p0's first recovery.
struct CatchUpRun {
    turned_ready: bool,
    adoption_issued: bool,
}

/// How far p0's first recovery got, tallied over a sweep.
#[derive(Debug, Default)]
struct Stages {
    /// Crashed before it issued an adoption store.
    cut_short: u32,
    /// Crashed between issuing the adoption store and turning ready.
    cut_mid_adoption: u32,
    /// Ready on a majority's word, no store.
    vouched: u32,
    /// Ready after its adoption store.
    stored: u32,
}

impl Stages {
    fn add(&mut self, run: CatchUpRun) {
        *match (run.turned_ready, run.adoption_issued) {
            (false, false) => &mut self.cut_short,
            (false, true) => &mut self.cut_mid_adoption,
            (true, false) => &mut self.vouched,
            (true, true) => &mut self.stored,
        } += 1;
    }
}

/// The jittered network and disks the catch-up runs use: the same offset
/// lands on different steps of a recovery under different seeds.
fn jittered(n: usize) -> ClusterConfig {
    ClusterConfig::new(n)
        .with_net(NetConfig {
            jitter: Micros(40),
            ..NetConfig::default()
        })
        .with_disk(DiskConfig {
            jitter: Micros(60),
            ..DiskConfig::default()
        })
}

fn criterion_of(flavor: Flavor) -> Criterion {
    if flavor == Flavor::persistent() {
        Criterion::Persistent
    } else {
        Criterion::Transient
    }
}

/// One run of the catch-up sweep (see the test below). p1 writes 1; p0
/// crashes idle; p1 writes 2 and p2 writes 3 without it; p0 recovers and
/// `fault` strikes; whoever died recovers again; p1, p2 and p0 read, p0
/// writes 4, p2 reads. Writes never overlap, so tag order is value order.
fn catch_up_run(n: usize, seed: u64, flavor: Flavor, fault: CatchUpFault) -> CatchUpRun {
    let ctx = format!("{} n={n} seed={seed} {fault:?}", flavor.name);
    const RECOVER_AT: u64 = 12_000;
    const AGAIN_AT: u64 = 16_000;
    // Who dies when; each recovers at `AGAIN_AT` (p0, if among them, in
    // its second recovered incarnation).
    let crashes: Vec<(ProcessId, u64)> = match fault {
        CatchUpFault::Recovering(offset) => vec![(p(0), RECOVER_AT + offset)],
        CatchUpFault::RecoveringPeersDown(offset) => {
            let lost = n - rmem_types::process::majority(n);
            let peers = (1..=lost as u16).map(|i| (p(i), RECOVER_AT - 1_000));
            peers.chain([(p(0), RECOVER_AT + offset)]).collect()
        }
        CatchUpFault::Peer(offset) => vec![(p(1), RECOVER_AT + offset)],
    };
    let mut schedule = Schedule::new()
        .at(1_000, PlannedEvent::Invoke(p(1), Op::Write(v(1))))
        .at(3_000, PlannedEvent::Crash(p(0)))
        .at(5_000, PlannedEvent::Invoke(p(1), Op::Write(v(2))))
        .at(8_000, PlannedEvent::Invoke(p(2), Op::Write(v(3))))
        .at(RECOVER_AT, PlannedEvent::Recover(p(0)))
        .at(20_000, PlannedEvent::Invoke(p(1), Op::Read))
        .at(22_000, PlannedEvent::Invoke(p(2), Op::Read))
        .at(24_000, PlannedEvent::Invoke(p(0), Op::Read))
        .at(26_000, PlannedEvent::Invoke(p(0), Op::Write(v(4))))
        .at(30_000, PlannedEvent::Invoke(p(2), Op::Read));
    let mut recoveries = vec![(p(0), 1, RECOVER_AT)];
    for &(pid, at) in &crashes {
        schedule = schedule
            .at(at, PlannedEvent::Crash(pid))
            .at(AGAIN_AT, PlannedEvent::Recover(pid));
        let incarnation = if pid == p(0) { 2 } else { 1 };
        recoveries.push((pid, incarnation, AGAIN_AT));
    }
    let log = Arc::new(Mutex::new(WatchLog::default()));
    let factory = Arc::new(WatchedFactory {
        flavor,
        log: log.clone(),
    });
    let report = Simulation::new(jittered(n), factory, seed)
        .with_schedule(schedule)
        .run();
    assert!(report.quiescent, "{ctx}: a recovery never finished");

    let criterion = criterion_of(flavor);
    let history = report.trace.to_history();
    for (reg, verdict) in check_per_register(&history, criterion) {
        verdict.unwrap_or_else(|e| panic!("{ctx}: {reg:?} not {criterion:?} atomic: {e}"));
    }
    let ops = report.trace.operations();
    let reads: Vec<_> = ops.iter().filter(|o| o.kind == OpKind::Read).collect();
    let values: Vec<u32> = reads
        .iter()
        .map(|o| {
            let result = o
                .result
                .as_ref()
                .unwrap_or_else(|| panic!("{ctx}: read stuck"));
            result.read_value().unwrap().as_u32().unwrap()
        })
        .collect();
    assert_eq!(values, [3, 3, 3, 4], "{ctx}");
    // What the catch-up is for: everyone recovered level, so every read
    // before p0's write — p0's own included — finds its quorum unanimous.
    // Thrifty writes reach a majority: on 3 nodes the one replica 2 and 3
    // left out is p0, which the catch-up repairs; on 5 two are left out
    // and only one is repaired. (The last read goes through p2, which p0's
    // write of 4 may have left out.)
    if n == 3 {
        for read in &reads[..3] {
            assert_eq!(read.rounds, 1, "{ctx}: {:?} paid the write-back", read.op);
        }
    }

    // The invariant, from the trace: a recovered incarnation turns ready
    // holding at least the tag of every write that had completed before
    // its Recover event.
    let log = log.lock().unwrap();
    for (pid, incarnation, recovered_at) in recoveries {
        let Some(held) = log.ready.get(&(pid, incarnation)) else {
            // Only p0's first recovery may be cut short, and only by p0
            // crashing again.
            assert!(
                !matches!(fault, CatchUpFault::Peer(_)) && pid == p(0) && incarnation == 1,
                "{ctx}: {pid} incarnation {incarnation} never turned ready"
            );
            continue;
        };
        let completed_before = ops.iter().filter(|o| {
            o.kind == OpKind::Write
                && o.completed_at
                    .is_some_and(|at| at.as_micros() < recovered_at)
        });
        for write in completed_before {
            let Op::Write(value) = &write.operation else {
                unreachable!()
            };
            let tag = log.tags[&value.as_u32().unwrap()];
            assert!(
                *held >= tag,
                "{ctx}: {pid} incarnation {incarnation} turned ready at {held}, \
                 behind completed write {tag}"
            );
        }
    }
    CatchUpRun {
        turned_ready: log.ready.contains_key(&(p(0), 1)),
        adoption_issued: log.adoptions.contains_key(&(p(0), 1)),
    }
}

/// Crashes the **recovering** node at every 25 µs offset across its
/// catch-up — before the round, mid-round, just after ready — and again
/// with as many peers down as the cluster can lose, so that it cannot be
/// vouched for and its adoption store is reached too (issued one
/// retransmit period after the majority, and durable λ later); and,
/// separately, a **peer** at the same offsets; on 3 and 5 nodes, under
/// both crash-recovery flavors. Every run certifies its criterion, serves
/// every read before the next write in one round on three nodes, and
/// satisfies the catch-up's invariant (see [`catch_up_run`]).
/// Deterministic: a failure names its `(flavor, n, seed, fault)`.
#[test]
fn catch_up_crash_sweep_across_the_recovery() {
    for flavor in [Flavor::persistent(), Flavor::transient()] {
        for n in [3, 5] {
            let ctx = format!("{} n={n}", flavor.name);
            let mut own = Stages::default();
            let mut own_peers_down = Stages::default();
            let mut peer = Stages::default();
            for seed in 0..4 {
                // Read round ≈ 200–280 µs: 0..700 µs in 25 µs steps
                // brackets the recovery on either side.
                for offset in (0..=700).step_by(25) {
                    own.add(catch_up_run(
                        n,
                        seed,
                        flavor,
                        CatchUpFault::Recovering(offset),
                    ));
                    peer.add(catch_up_run(n, seed, flavor, CatchUpFault::Peer(offset)));
                }
                // Plus the retransmit period and the adoption store.
                for offset in (0..=2_700).step_by(25) {
                    let fault = CatchUpFault::RecoveringPeersDown(offset);
                    own_peers_down.add(catch_up_run(n, seed, flavor, fault));
                }
            }
            // The sweep reached every stage it claims to — and with every
            // peer up, a behind p0 never logged what it missed: the
            // majority of others that holds it vouched.
            assert!(own.cut_short > 0 && own.vouched > 0, "{ctx}: {own:?}");
            assert_eq!((own.cut_mid_adoption, own.stored), (0, 0), "{ctx}: {own:?}");
            let Stages {
                cut_short,
                cut_mid_adoption,
                vouched,
                stored,
            } = own_peers_down;
            assert!(
                cut_short > 0 && cut_mid_adoption > 0 && stored > 0 && vouched == 0,
                "{ctx}, peers down: {own_peers_down:?}"
            );
            // A peer's crash never cuts p0's recovery short. One that
            // holds 3 and dies before answering leaves too few vouchers
            // (thrifty, 3 went to a bare majority), and p0 logs.
            assert_eq!((peer.cut_short, peer.cut_mid_adoption), (0, 0), "{ctx}");
            assert!(peer.vouched > 0 && peer.stored > 0, "{ctx}: {peer:?}");
        }
    }
}

/// The fallback, priced exactly. p0 restarts one write behind while p2 is
/// down: its own replica and p1 make the majority, and p1's is the only
/// vouch there is. The register turns ready exactly one retransmit period
/// plus one store after a level restart under the same conditions — which
/// turns ready the moment its majority answered — having logged one
/// adoption.
#[test]
fn a_restart_with_one_voucher_pays_one_retransmit_period_and_one_store() {
    const LAMBDA: u64 = 200;
    for flavor in [Flavor::persistent(), Flavor::transient()] {
        let run = |behind: bool| {
            let mut schedule = Schedule::new()
                .at(1_000, PlannedEvent::Invoke(p(1), Op::Write(v(1))))
                .at(3_000, PlannedEvent::Crash(p(0)))
                .at(9_000, PlannedEvent::Crash(p(2)))
                .at(12_000, PlannedEvent::Recover(p(0)));
            if behind {
                schedule = schedule.at(5_000, PlannedEvent::Invoke(p(1), Op::Write(v(2))));
            }
            // No jitter, and sizes cost nothing: every delay is its base.
            let config = ClusterConfig::new(3)
                .with_net(NetConfig {
                    ns_per_byte: 0,
                    ..NetConfig::default()
                })
                .with_disk(DiskConfig {
                    base_latency: Micros(LAMBDA),
                    ns_per_byte: 0,
                    ..DiskConfig::default()
                });
            let log = Arc::new(Mutex::new(WatchLog::default()));
            let factory = Arc::new(WatchedFactory {
                flavor,
                log: log.clone(),
            });
            let report = Simulation::new(config, factory, 1)
                .with_schedule(schedule)
                .run();
            let [took] = report.trace.recovery_durations[..] else {
                panic!("one recovery: {:?}", report.trace.recovery_durations)
            };
            let log = log.lock().unwrap();
            let adoptions = log.adoptions.get(&(p(0), 1)).copied().unwrap_or(0);
            (took, adoptions, log.ready[&(p(0), 1)])
        };
        let (level, no_store, _) = run(false);
        let (behind, one_store, held) = run(true);
        let ctx = flavor.name;
        assert_eq!(no_store, 0, "{ctx}");
        assert_eq!(one_store, 1, "{ctx}");
        assert_eq!(held.seq, 2, "{ctx}: ready at {held}");
        assert_eq!(
            behind - level,
            rmem_core::DEFAULT_RETRANSMIT.0 + LAMBDA,
            "{ctx}: level {level} µs, behind {behind} µs"
        );
    }
}

/// Vouches build on vouches. Five processes; p3 and p4 are down while p0
/// writes 2, which lands on p0, p1 and p2 only. p3 recovers and is
/// vouched for by those three; p2 goes down, and p4 recovers vouched for
/// by p0, p1 — and p3, which never logged 2. Neither logs an adoption.
/// Then every process crashes and recovers, each restoring only what its
/// own log holds — p3 and p4 back to 1 — and the reads that follow still
/// return 2 and certify: 2 was on a majority of logs all along, which is
/// what p3's attestation said.
#[test]
fn a_vouch_may_count_a_vouched_attestation_and_a_total_crash_still_finds_the_write() {
    for flavor in [Flavor::persistent(), Flavor::transient()] {
        let mut schedule = Schedule::new()
            .at(1_000, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
            .at(3_000, PlannedEvent::Crash(p(3)))
            .at(3_000, PlannedEvent::Crash(p(4)))
            .at(5_000, PlannedEvent::Invoke(p(0), Op::Write(v(2))))
            .at(9_000, PlannedEvent::Recover(p(3)))
            .at(11_000, PlannedEvent::Crash(p(2)))
            .at(12_000, PlannedEvent::Recover(p(4)))
            .at(14_000, PlannedEvent::Recover(p(2)));
        for pid in ProcessId::all(5) {
            schedule = schedule
                .at(16_000, PlannedEvent::Crash(pid))
                .at(18_000, PlannedEvent::Recover(pid));
        }
        schedule = schedule
            .at(22_000, PlannedEvent::Invoke(p(3), Op::Read))
            .at(24_000, PlannedEvent::Invoke(p(4), Op::Read))
            .at(26_000, PlannedEvent::Invoke(p(1), Op::Read));
        let log = Arc::new(Mutex::new(WatchLog::default()));
        let factory = Arc::new(WatchedFactory {
            flavor,
            log: log.clone(),
        });
        let report = Simulation::new(jittered(5), factory, 3)
            .with_schedule(schedule)
            .run();
        let ctx = flavor.name;
        assert!(report.quiescent, "{ctx}: a recovery never finished");
        let criterion = criterion_of(flavor);
        let history = report.trace.to_history();
        for (reg, verdict) in check_per_register(&history, criterion) {
            verdict.unwrap_or_else(|e| panic!("{ctx}: {reg:?} not {criterion:?} atomic: {e}"));
        }
        let reads: Vec<u32> = report
            .trace
            .operations()
            .iter()
            .filter(|o| o.kind == OpKind::Read)
            .map(|o| {
                o.result
                    .as_ref()
                    .unwrap()
                    .read_value()
                    .unwrap()
                    .as_u32()
                    .unwrap()
            })
            .collect();
        assert_eq!(reads, [2, 2, 2], "{ctx}");
        let log = log.lock().unwrap();
        let written_2 = log.tags[&2];
        for voucher in [p(3), p(4)] {
            assert!(
                log.ready[&(voucher, 1)] >= written_2,
                "{ctx}: {voucher} turned ready behind {written_2}"
            );
            assert_eq!(
                log.adoptions.get(&(voucher, 1)),
                None,
                "{ctx}: {voucher} logged"
            );
        }
    }
}
