//! Direct tests of the simulation engine's semantics, using small
//! purpose-built automatons (no register algorithms involved): crash
//! incarnation guards, partition directionality, quiescence detection,
//! and the causal-chain bookkeeping.

use std::sync::Arc;

use bytes::Bytes;
use rmem_sim::{ClusterConfig, PlannedEvent, Schedule, Simulation, VirtualTime};
use rmem_storage::StableStorage;
use rmem_types::{
    Action, Automaton, AutomatonFactory, Input, Message, Micros, OpId, ProcessId, RegisterId,
    RequestId, StableSnapshot, StoreToken, TimerToken,
};

/// An automaton that stores a record on `Start`, and after the store
/// completes sends an `SnReq` to process 1. Used to probe store/crash
/// interleavings and message delivery.
struct StoreThenSend {
    me: ProcessId,
}

impl Automaton for StoreThenSend {
    fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
        match input {
            Input::Start => {
                out.push(Action::Store {
                    token: StoreToken(1),
                    key: "probe".to_string(),
                    bytes: Bytes::from(vec![self.me.0 as u8]),
                });
            }
            Input::StoreDone(StoreToken(1)) => {
                out.push(Action::Send {
                    to: ProcessId(1),
                    msg: Message::SnReq {
                        req: RequestId::new(self.me, 7),
                    },
                });
            }
            _ => {}
        }
    }

    fn algorithm(&self) -> &'static str {
        "store-then-send"
    }

    fn active(&self, _reg: RegisterId) -> Option<OpId> {
        None
    }
}

struct StoreThenSendFactory;

impl AutomatonFactory for StoreThenSendFactory {
    fn fresh(&self, me: ProcessId, _n: usize) -> Box<dyn Automaton> {
        Box::new(StoreThenSend { me })
    }

    fn recover(
        &self,
        me: ProcessId,
        _n: usize,
        _incarnation: u64,
        _stable: &dyn StableSnapshot,
    ) -> Box<dyn Automaton> {
        Box::new(StoreThenSend { me })
    }

    fn algorithm(&self) -> &'static str {
        "store-then-send"
    }
}

/// A store that is in flight when the process crashes never becomes
/// durable — and never triggers `StoreDone` for the next incarnation.
#[test]
fn in_flight_stores_die_with_the_crash() {
    // Stores take 200µs (default λ); crash p0 at t=100µs, mid-store.
    let schedule = Schedule::new().at(100, PlannedEvent::Crash(ProcessId(0)));
    let mut sim = Simulation::new(ClusterConfig::new(2), Arc::new(StoreThenSendFactory), 1)
        .with_schedule(schedule);
    let report = sim.run();
    assert_eq!(
        sim.storage(ProcessId(0)).retrieve("probe").unwrap(),
        None,
        "the in-flight store must be lost"
    );
    // p1's store (uninterrupted) landed.
    assert!(sim
        .storage(ProcessId(1))
        .retrieve("probe")
        .unwrap()
        .is_some());
    // p0 never sent its follow-up message (store never completed); p1 did.
    // p1's SnReq went to p1 itself (self-send).
    assert_eq!(report.trace.messages_sent, 1, "only p1's send happens");
}

/// Stores issued before the crash do not complete into the recovered
/// incarnation either (the recovered automaton re-stores on Start, so the
/// final record is the *second* incarnation's).
#[test]
fn recovered_incarnation_gets_no_stale_store_done() {
    let schedule = Schedule::new()
        .at(100, PlannedEvent::Crash(ProcessId(0)))
        .at(150, PlannedEvent::Recover(ProcessId(0)));
    let mut sim = Simulation::new(ClusterConfig::new(2), Arc::new(StoreThenSendFactory), 1)
        .with_schedule(schedule);
    let report = sim.run();
    // The recovered incarnation stored "probe" again on Start at t=150,
    // completing ≈t=350; both processes end with durable probes and each
    // sent exactly one message.
    assert!(sim
        .storage(ProcessId(0))
        .retrieve("probe")
        .unwrap()
        .is_some());
    assert_eq!(report.trace.messages_sent, 2);
}

/// Crashed receivers hear nothing, even for messages already in flight.
#[test]
fn messages_to_crashed_processes_vanish() {
    // p0's send departs ≈t=201 (after its 200µs store) and would arrive
    // at p1 ≈t=301; crash p1 at t=250 while the message is in flight.
    let schedule = Schedule::new().at(250, PlannedEvent::Crash(ProcessId(1)));
    let mut sim = Simulation::new(ClusterConfig::new(2), Arc::new(StoreThenSendFactory), 1)
        .with_schedule(schedule);
    let report = sim.run();
    // Two sends happened (p0→p1, p1→p1-self... p1's self-send at ~t=201
    // arrives ~t=202, before its crash).
    assert_eq!(report.trace.messages_sent, 2);
    assert_eq!(
        report.trace.messages_delivered, 1,
        "p0's message found p1 dead"
    );
}

/// Blocks are directional: blocking p0→p1 leaves p1→p0 intact.
#[test]
fn partitions_are_directional() {
    let schedule = Schedule::new()
        // Block p0's direction before anything is sent.
        .at(10, PlannedEvent::Block(ProcessId(0), ProcessId(1)));
    let mut sim = Simulation::new(ClusterConfig::new(2), Arc::new(StoreThenSendFactory), 1)
        .with_schedule(schedule);
    let report = sim.run();
    // p0's message to p1 dropped; p1's self-send unaffected.
    assert_eq!(report.trace.messages_sent, 2);
    assert_eq!(report.trace.messages_delivered, 1);
    assert_eq!(report.messages_dropped, 1);
}

/// An automaton that perpetually re-arms a timer and never reports ready
/// (like a recovery that cannot finish). The engine must still terminate
/// at `max_time` (the livelock guard) — note that *ready* automatons with
/// only timers pending are treated as quiescent and stopped early instead.
struct TimerLoop;

impl Automaton for TimerLoop {
    fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
        match input {
            Input::Start | Input::Timer(_) => {
                out.push(Action::SetTimer {
                    token: TimerToken(1),
                    after: Micros(1_000),
                });
            }
            _ => {}
        }
    }

    fn is_ready(&self) -> bool {
        false // a recovery that never completes
    }

    fn algorithm(&self) -> &'static str {
        "timer-loop"
    }

    fn active(&self, _reg: RegisterId) -> Option<OpId> {
        None
    }
}

struct TimerLoopFactory;

impl AutomatonFactory for TimerLoopFactory {
    fn fresh(&self, _me: ProcessId, _n: usize) -> Box<dyn Automaton> {
        Box::new(TimerLoop)
    }

    fn recover(
        &self,
        _me: ProcessId,
        _n: usize,
        _incarnation: u64,
        _stable: &dyn StableSnapshot,
    ) -> Box<dyn Automaton> {
        Box::new(TimerLoop)
    }

    fn algorithm(&self) -> &'static str {
        "timer-loop"
    }
}

#[test]
fn max_time_stops_perpetual_timers() {
    let config = ClusterConfig::new(1).with_max_time(VirtualTime(50_000));
    let mut sim = Simulation::new(config, Arc::new(TimerLoopFactory), 1);
    let report = sim.run();
    assert!(!report.quiescent, "a never-ready timer loop cannot quiesce");
    assert!(report.final_time <= VirtualTime(50_000));
    // ~50 timer firings.
    assert!(
        (40..=60).contains(&report.events_processed),
        "{}",
        report.events_processed
    );
}

/// The flip side: a *ready*, idle automaton whose only pending events are
/// timers is quiescent — the engine stops instead of chasing
/// retransmission timers forever.
#[test]
fn ready_idle_timers_are_quiescent() {
    struct ReadyTimer;
    impl Automaton for ReadyTimer {
        fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
            if matches!(input, Input::Start) {
                out.push(Action::SetTimer {
                    token: TimerToken(1),
                    after: Micros(1_000),
                });
            }
        }
        fn algorithm(&self) -> &'static str {
            "ready-timer"
        }

        fn active(&self, _reg: RegisterId) -> Option<OpId> {
            None
        }
    }
    struct F;
    impl AutomatonFactory for F {
        fn fresh(&self, _me: ProcessId, _n: usize) -> Box<dyn Automaton> {
            Box::new(ReadyTimer)
        }
        fn recover(
            &self,
            _me: ProcessId,
            _n: usize,
            _incarnation: u64,
            _stable: &dyn StableSnapshot,
        ) -> Box<dyn Automaton> {
            Box::new(ReadyTimer)
        }
        fn algorithm(&self) -> &'static str {
            "ready-timer"
        }
    }
    let mut sim = Simulation::new(ClusterConfig::new(2), Arc::new(F), 1);
    let report = sim.run();
    assert!(report.quiescent);
    // The quiescence check runs after each processed event, so exactly one
    // timer fires before the engine notices nothing meaningful remains.
    assert_eq!(
        report.events_processed, 1,
        "stop after the first idle timer"
    );
}

/// Timers set before a crash never fire in the next incarnation.
#[test]
fn timers_die_with_their_incarnation() {
    let config = ClusterConfig::new(1).with_max_time(VirtualTime(10_000));
    // Crash at 500 (timer armed at 0 for t=1000), recover at 600: the
    // recovered incarnation arms its own timer at 600 (fires 1600, 2600…).
    // If the stale timer fired, the recovered one would double-fire and
    // event counts would jump.
    let schedule = Schedule::new()
        .at(500, PlannedEvent::Crash(ProcessId(0)))
        .at(600, PlannedEvent::Recover(ProcessId(0)));
    let mut sim = Simulation::new(config, Arc::new(TimerLoopFactory), 1).with_schedule(schedule);
    let report = sim.run();
    // Events: crash + recover + the *discarded* pop of the stale pre-crash
    // timer (counted but not delivered) + timers at 1600, 2600, …, 9600
    // (9 of them) = 12. Had the stale timer actually fired, it would have
    // re-armed and added a 1000-spaced second train of firings.
    assert_eq!(
        report.events_processed,
        3 + 9,
        "stale timer fired (or one was lost)"
    );
}

/// An overlapping invocation on a busy register waits in the automaton:
/// it begins — and enters the history — the instant the operation ahead
/// of it ends, keeping histories well-formed.
#[test]
fn an_overlapping_invocation_waits_for_the_one_ahead() {
    use rmem_core::Persistent;
    use rmem_types::{Op, OpResult, Value};
    let schedule = Schedule::new()
        .at(
            1_000,
            PlannedEvent::Invoke(ProcessId(0), Op::Write(Value::from_u32(1))),
        )
        // 100µs later the first write is still running (it needs ≈800µs).
        .at(1_100, PlannedEvent::Invoke(ProcessId(0), Op::Read));
    let mut sim =
        Simulation::new(ClusterConfig::new(3), Persistent::factory(), 3).with_schedule(schedule);
    let report = sim.run();
    let [write, read] = report.trace.operations() else {
        panic!("both operations ran: {:#?}", report.trace.operations());
    };
    let written = write.completed_at.expect("the write completes");
    assert!(written > VirtualTime(1_100), "the read arrived mid-write");
    assert_eq!(read.invoked_at, written, "begun as the write ended");
    assert_eq!(read.result, Some(OpResult::ReadValue(Value::from_u32(1))));
    assert_eq!(report.trace.invokes_queued, 1);
    assert_eq!(report.trace.invokes_dropped, 0);
    assert!(report.trace.to_history().well_formed().is_ok());
}

/// The per-register operation table: overlapping invocations on
/// *distinct* registers of a shared memory run concurrently through one
/// process and all complete; each register's restriction of the history
/// stays well-formed and certifies.
#[test]
fn overlapping_invocations_on_distinct_registers_all_complete() {
    use rmem_core::{Persistent, SharedMemory};
    use rmem_types::{Op, RegisterId, Value};
    let mut schedule = Schedule::new();
    for r in 0..4u16 {
        // All four writes start within 40µs — far less than one
        // operation's two quorum round-trips — so they genuinely overlap.
        schedule = schedule.at(
            1_000 + r as u64 * 10,
            PlannedEvent::Invoke(
                ProcessId(0),
                Op::WriteAt(RegisterId(r), Value::from_u32(r as u32 + 1)),
            ),
        );
    }
    let mut sim = Simulation::new(
        ClusterConfig::new(3),
        SharedMemory::factory(Persistent::flavor()),
        5,
    )
    .with_schedule(schedule);
    let report = sim.run();
    assert_eq!(report.trace.invokes_dropped, 0, "no overlap was refused");
    let completed = report
        .trace
        .operations()
        .iter()
        .filter(|o| o.is_completed())
        .count();
    assert_eq!(completed, 4, "every concurrent register op completes");
    let history = report.trace.to_history();
    for (reg, outcome) in
        rmem_consistency::check_per_register(&history, rmem_consistency::Criterion::Persistent)
    {
        outcome.unwrap_or_else(|e| panic!("register {reg} not atomic: {e}"));
    }
}

/// Same-register overlap waits (per-register sequentiality): three
/// invocations on one register begin in arrival order, each the instant
/// the one ahead ends, while one on another register begins on arrival.
#[test]
fn overlapping_invocations_on_the_same_register_queue_in_order() {
    use rmem_core::{Persistent, SharedMemory};
    use rmem_types::{Op, RegisterId, Value};
    let (hot, other) = (RegisterId(3), RegisterId(4));
    let schedule = Schedule::new()
        .at(
            1_000,
            PlannedEvent::Invoke(ProcessId(0), Op::WriteAt(hot, Value::from_u32(1))),
        )
        .at(1_100, PlannedEvent::Invoke(ProcessId(0), Op::ReadAt(hot)))
        .at(
            1_150,
            PlannedEvent::Invoke(ProcessId(0), Op::WriteAt(other, Value::from_u32(5))),
        )
        .at(
            1_200,
            PlannedEvent::Invoke(ProcessId(0), Op::WriteAt(hot, Value::from_u32(2))),
        );
    let mut sim = Simulation::new(
        ClusterConfig::new(3),
        SharedMemory::factory(Persistent::flavor()),
        3,
    )
    .with_schedule(schedule);
    let report = sim.run();
    let ops = report.trace.operations();
    assert!(ops.iter().all(|o| o.is_completed()), "{ops:#?}");
    let on_hot: Vec<_> = ops
        .iter()
        .filter(|o| o.operation.register() == hot)
        .collect();
    let kinds: Vec<_> = on_hot.iter().map(|o| o.operation.clone()).collect();
    assert_eq!(
        kinds,
        [
            Op::WriteAt(hot, Value::from_u32(1)),
            Op::ReadAt(hot),
            Op::WriteAt(hot, Value::from_u32(2)),
        ],
        "arrival order"
    );
    for pair in on_hot.windows(2) {
        assert_eq!(
            pair[1].invoked_at,
            pair[0].completed_at.unwrap(),
            "{ops:#?}"
        );
    }
    let beside = ops.iter().find(|o| o.operation.register() == other);
    assert_eq!(beside.unwrap().invoked_at, VirtualTime(1_150));
    assert_eq!(
        (report.trace.invokes_queued, report.trace.invokes_dropped),
        (2, 0)
    );
    let history = report.trace.to_history();
    for (reg, outcome) in
        rmem_consistency::check_per_register(&history, rmem_consistency::Criterion::Persistent)
    {
        outcome.unwrap_or_else(|e| panic!("register {reg} not atomic: {e}"));
    }
}

/// An automaton probing the group-commit disk model: stores one record
/// on `Start`, then two more from a timer that fires while the first
/// commit is still in flight.
struct BurstStores;

impl Automaton for BurstStores {
    fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
        match input {
            Input::Start => {
                out.push(Action::Store {
                    token: StoreToken(1),
                    key: "a".to_string(),
                    bytes: Bytes::from_static(b"1"),
                });
                out.push(Action::SetTimer {
                    token: TimerToken(1),
                    after: Micros(100),
                });
            }
            Input::Timer(TimerToken(1)) => {
                for t in [2u64, 3] {
                    out.push(Action::Store {
                        token: StoreToken(t),
                        key: format!("k{t}"),
                        bytes: Bytes::from_static(b"x"),
                    });
                }
            }
            _ => {}
        }
    }

    fn algorithm(&self) -> &'static str {
        "burst-stores"
    }

    fn active(&self, _reg: RegisterId) -> Option<OpId> {
        None
    }
}

struct BurstStoresFactory;

impl AutomatonFactory for BurstStoresFactory {
    fn fresh(&self, _me: ProcessId, _n: usize) -> Box<dyn Automaton> {
        Box::new(BurstStores)
    }

    fn recover(
        &self,
        _me: ProcessId,
        _n: usize,
        _boots: u64,
        _snapshot: &dyn StableSnapshot,
    ) -> Box<dyn Automaton> {
        Box::new(BurstStores)
    }

    fn algorithm(&self) -> &'static str {
        "burst-stores"
    }
}

/// The coalescing disk model: a store issued while a commit is in flight
/// waits for the disk (next group), and stores issued together share one
/// commit. Exact timeline with λ = 200µs, timer at 100µs:
/// store 1 commits at 200; stores 2 and 3 arrive at 100 mid-commit, form
/// the next group starting at 200, and both complete at 400.
#[test]
fn coalescing_disk_groups_and_serializes_commits() {
    let disk = rmem_sim::DiskConfig {
        base_latency: Micros(200),
        jitter: Micros(0),
        ns_per_byte: 0,
        coalesce: true,
    };
    let mut sim = Simulation::new(
        ClusterConfig::new(1)
            .with_disk(disk)
            .with_max_time(VirtualTime(10_000)),
        Arc::new(BurstStoresFactory),
        1,
    );
    let report = sim.run();
    assert_eq!(report.trace.stores_applied, 3);
    assert_eq!(
        report.trace.stores_coalesced, 1,
        "store 3 joins store 2's pending group"
    );
    assert_eq!(
        report.final_time,
        VirtualTime(400),
        "the grouped commit completes one λ after the first frees the disk"
    );

    // The same run without coalescing: unlimited parallel stores, the
    // timer's stores each pay their own λ from t=100.
    let mut sim = Simulation::new(
        ClusterConfig::new(1).with_max_time(VirtualTime(10_000)),
        Arc::new(BurstStoresFactory),
        1,
    );
    let report = sim.run();
    assert_eq!(report.trace.stores_coalesced, 0);
    assert_eq!(report.final_time, VirtualTime(300));
}

/// Delayed-durability interleavings stay deterministic and correct: one
/// node runs a 25× slower group-committing disk, concurrent writes on
/// distinct registers all complete (acks race ahead of the laggard's
/// stores), certification holds, and the whole run replays identically.
#[test]
fn slow_coalescing_disk_on_one_node_keeps_runs_atomic_and_deterministic() {
    use rmem_core::{Persistent, SharedMemory};
    use rmem_types::{Op, RegisterId, Value};
    let run = || {
        let mut schedule = Schedule::new();
        for r in 0..4u16 {
            schedule = schedule.at(
                1_000 + r as u64 * 10,
                PlannedEvent::Invoke(
                    ProcessId(0),
                    Op::WriteAt(RegisterId(r), Value::from_u32(r as u32 + 1)),
                ),
            );
            schedule = schedule.at(
                9_000 + r as u64 * 10,
                PlannedEvent::Invoke(ProcessId(1), Op::ReadAt(RegisterId(r))),
            );
        }
        let mut sim = Simulation::new(
            ClusterConfig::new(3).with_disk_at(2, rmem_sim::DiskConfig::coalescing(Micros(5_000))),
            SharedMemory::factory(Persistent::flavor()),
            17,
        )
        .with_schedule(schedule);
        let report = sim.run();
        let completed = report
            .trace
            .operations()
            .iter()
            .filter(|o| o.is_completed())
            .count();
        assert_eq!(
            completed, 8,
            "a slow minority disk must not block quorum operations"
        );
        let history = report.trace.to_history();
        for (reg, outcome) in
            rmem_consistency::check_per_register(&history, rmem_consistency::Criterion::Persistent)
        {
            outcome.unwrap_or_else(|e| panic!("register {reg} not atomic: {e}"));
        }
        assert!(
            report.trace.stores_coalesced > 0,
            "the laggard's stores must have shared commits"
        );
        (
            report.events_processed,
            report.trace.stores_applied,
            report.trace.stores_coalesced,
            report.final_time,
        )
    };
    assert_eq!(run(), run(), "same seed, same interleaving, same trace");
}

/// Deterministic tie-breaking: two events at the same instant execute in
/// insertion order, and the whole run replays identically.
#[test]
fn simultaneous_events_replay_identically() {
    let run = || {
        let schedule = Schedule::new()
            .at(100, PlannedEvent::Crash(ProcessId(0)))
            .at(100, PlannedEvent::Crash(ProcessId(1)))
            .at(200, PlannedEvent::Recover(ProcessId(1)))
            .at(200, PlannedEvent::Recover(ProcessId(0)));
        let mut sim = Simulation::new(
            ClusterConfig::new(2).with_max_time(VirtualTime(5_000)),
            Arc::new(StoreThenSendFactory),
            9,
        )
        .with_schedule(schedule);
        let report = sim.run();
        (
            report.events_processed,
            report.trace.messages_sent,
            report.final_time,
        )
    };
    assert_eq!(run(), run());
}

/// Recovery durations are measured for ready-gated automatons and absent
/// for instant ones.
#[test]
fn recovery_durations_are_recorded() {
    use rmem_core::{CrashStop, Flavor, FlavorFactory, Transient, DEFAULT_RETRANSMIT};
    use rmem_types::{Op, Value};
    let figure_only: Arc<FlavorFactory> = Arc::new(FlavorFactory::new(
        Flavor::transient().with_read_fast_path(false),
        DEFAULT_RETRANSMIT,
    ));
    // λ = 200 µs logs, δ = 100 µs hops, ≈5 µs serialization per send.
    for (factory, expected) in [
        // Fig. 5 alone: one λ-latency log for the rec counter.
        (figure_only, 200..201),
        // With the catch-up's read round beside it: max(λ, 2δ) — an
        // up-to-date process recovers as fast as the figure's.
        (Transient::factory(), 200..230),
        (CrashStop::factory(), 0..1),
    ] {
        let name = factory.flavor().name;
        let schedule = Schedule::new()
            .at(1_000, PlannedEvent::Crash(ProcessId(0)))
            .at(2_000, PlannedEvent::Recover(ProcessId(0)));
        let mut sim = Simulation::new(ClusterConfig::new(3), factory, 11).with_schedule(schedule);
        let report = sim.run();
        assert_eq!(report.trace.recovery_durations.len(), 1);
        let d = report.trace.recovery_durations[0];
        assert!(expected.contains(&d), "{name}: recovery took {d} µs");
    }
    // One write behind: both peers logged it and vouch for it, so the
    // catch-up adopts it after the round without a log — 2δ. With p2 down
    // p1's word is not enough: the catch-up waits one retransmit period R
    // for a second voucher, then logs its adoption — 2δ + R + λ.
    let r = DEFAULT_RETRANSMIT.0;
    for (p2_down, expected) in [(false, 200..230), (true, r + 400..r + 430)] {
        let mut schedule = Schedule::new()
            .at(1_000, PlannedEvent::Crash(ProcessId(0)))
            .at(
                2_000,
                PlannedEvent::Invoke(ProcessId(1), Op::Write(Value::from_u32(1))),
            )
            .at(5_000, PlannedEvent::Recover(ProcessId(0)));
        if p2_down {
            schedule = schedule.at(4_000, PlannedEvent::Crash(ProcessId(2)));
        }
        let mut sim = Simulation::new(ClusterConfig::new(3), Transient::factory(), 11)
            .with_schedule(schedule);
        let d = sim.run().trace.recovery_durations[0];
        assert!(
            expected.contains(&d),
            "stale transient recovery, p2 down: {p2_down}: got {d} µs"
        );
    }
}

/// `run()` is exactly `start` + `step` to the end + `finish`: on a
/// closed-loop workload with a crash, both give the same counters and the
/// same trace, event for event.
#[test]
fn run_is_start_then_steps_then_finish() {
    use rmem_core::{Persistent, SharedMemory};
    use rmem_sim::workload::ClosedLoop;
    use rmem_types::Value;
    let build = || {
        let schedule = Schedule::new()
            .at(2_500, PlannedEvent::Crash(ProcessId(2)))
            .at(6_000, PlannedEvent::Recover(ProcessId(2)));
        let mut sim = Simulation::new(
            ClusterConfig::new(3),
            SharedMemory::factory(Persistent::flavor()),
            23,
        )
        .with_schedule(schedule);
        sim.add_closed_loop(ClosedLoop::writes(ProcessId(0), Value::from_u32(7), 12));
        sim.add_closed_loop(ClosedLoop::reads(ProcessId(1), 12));
        sim.add_closed_loop(ClosedLoop::reads(ProcessId(2), 12));
        sim
    };
    let whole = build().run();
    let mut sim = build();
    sim.start();
    let mut steps = 0;
    while sim.step() {
        steps += 1;
    }
    assert!(!sim.step(), "a finished run stays finished");
    let stepped = sim.finish();
    assert_eq!(steps, stepped.events_processed);
    let counters = |r: &rmem_sim::SimReport| {
        (
            r.events_processed,
            r.final_time,
            r.quiescent,
            r.messages_dropped,
            r.trace.messages_sent,
            r.trace.messages_delivered,
            r.trace.stores_applied,
            r.trace.invokes_dropped,
            r.trace.crashes,
        )
    };
    assert_eq!(counters(&whole), counters(&stepped));
    assert!(whole.quiescent && whole.trace.crashes == 1);
    assert_eq!(
        format!("{:?}", whole.trace.to_history()),
        format!("{:?}", stepped.trace.to_history()),
    );
    assert_eq!(
        format!("{:?}", whole.trace.operations()),
        format!("{:?}", stepped.trace.operations()),
    );
}

/// A closed loop whose first invocation is still planted when its process
/// crashes and recovers starts **once**: the planted invocation fires into
/// the recovered process, and the recovery does not start the loop a
/// second time.
#[test]
fn a_loop_planted_across_a_crash_and_recovery_starts_once() {
    use rmem_core::Persistent;
    use rmem_sim::workload::ClosedLoop;
    let schedule = Schedule::new()
        .at(1_000, PlannedEvent::Crash(ProcessId(0)))
        .at(2_000, PlannedEvent::Recover(ProcessId(0)));
    let mut sim =
        Simulation::new(ClusterConfig::new(3), Persistent::factory(), 3).with_schedule(schedule);
    sim.add_closed_loop(ClosedLoop::reads(ProcessId(0), 4).with_start_after(Micros(5_000)));
    let report = sim.run();
    let ops = report.trace.operations();
    assert_eq!(ops.len(), 4, "{ops:#?}");
    assert_eq!(report.trace.invokes_dropped, 0);
    // At its planted instant, then one at a time.
    assert_eq!(ops[0].invoked_at, VirtualTime(5_000));
    for pair in ops.windows(2) {
        assert!(
            pair[0].completed_at.unwrap() < pair[1].invoked_at,
            "{ops:#?}"
        );
    }
}

/// An invocation submitted to a process that is still recovering waits in
/// its register automaton and enters the history when that register is
/// ready — the paper's recovering process invokes nothing before then —
/// not when it was submitted.
#[test]
fn an_invocation_during_recovery_is_recorded_when_the_process_turns_ready() {
    use rmem_core::Persistent;
    use rmem_types::Op;
    let schedule = Schedule::new()
        .at(1_000, PlannedEvent::Crash(ProcessId(0)))
        .at(2_000, PlannedEvent::Recover(ProcessId(0)))
        .at(2_010, PlannedEvent::Invoke(ProcessId(0), Op::Read));
    let mut sim =
        Simulation::new(ClusterConfig::new(3), Persistent::factory(), 3).with_schedule(schedule);
    let report = sim.run();
    let recovered_at = 2_000 + report.trace.recovery_durations[0];
    assert!(recovered_at > 2_010, "the read arrived mid-recovery");
    let read = &report.trace.operations()[0];
    assert_eq!(read.invoked_at, VirtualTime(recovered_at));
    assert!(read.is_completed());
}

/// The port between steps: an invocation is accepted — behind the one a
/// register is already serving, it waits its turn — and refused `Down`
/// at a crashed process; an accepted operation's end is handed back with
/// its rounds, or as lost when its process crashes under it; a wake keeps
/// an idle run alive until its instant.
#[test]
fn the_port_invokes_hands_back_completions_and_wakes() {
    use rmem_core::{Persistent, SharedMemory};
    use rmem_sim::Invoked;
    use rmem_types::{Op, OpResult, RegisterId, Value};
    let schedule = Schedule::new().at(50_000, PlannedEvent::Crash(ProcessId(1)));
    let mut sim = Simulation::new(
        ClusterConfig::new(3),
        SharedMemory::factory(Persistent::flavor()),
        4,
    )
    .with_schedule(schedule);
    sim.start();
    let reg = RegisterId(3);
    let write = Op::WriteAt(reg, Value::from_u32(9));
    let Invoked::Accepted(first) = sim.invoke(ProcessId(0), write.clone()) else {
        panic!("an idle register accepts");
    };
    let Invoked::Accepted(behind) = sim.invoke(ProcessId(0), Op::ReadAt(reg)) else {
        panic!("a busy register accepts too");
    };
    assert!(matches!(
        sim.invoke(ProcessId(0), Op::ReadAt(RegisterId(4))),
        Invoked::Accepted(_)
    ));
    let mut done = Vec::new();
    while done.len() < 3 {
        assert!(sim.step(), "operations in flight keep the run alive");
        done.extend(sim.take_completions());
    }
    let (_, end) = done.iter().find(|(op, _)| *op == first).expect("the write");
    let (result, rounds) = end.clone().expect("nothing crashed");
    assert_eq!(result, OpResult::Written);
    assert!(rounds >= 1, "rounds ride the completion");
    let order: Vec<_> = done.iter().map(|(op, _)| *op).collect();
    let at = |op| order.iter().position(|&o| o == op).unwrap();
    assert!(
        at(first) < at(behind),
        "the queued read ends after the write"
    );
    let (_, end) = done.iter().find(|(op, _)| *op == behind).unwrap();
    let read = end.as_ref().map(|(result, _)| result);
    let nine = OpResult::ReadValue(Value::from_u32(9));
    assert_eq!(read, Some(&nine), "and reads what it waited for");

    // Idle now; a wake carries the clock to the crash and past it.
    sim.wake_at(VirtualTime(49_990));
    while sim.now() < VirtualTime(49_990) {
        assert!(sim.step());
    }
    let Invoked::Accepted(lost) = sim.invoke(ProcessId(1), write.clone()) else {
        panic!("process 1 is still up");
    };
    sim.wake_at(VirtualTime(60_000));
    while sim.step() {}
    assert_eq!(sim.take_completions(), [(lost, None)], "lost to the crash");
    assert_eq!(sim.invoke(ProcessId(1), write), Invoked::Down);
    let report = sim.finish();
    assert_eq!(report.final_time, VirtualTime(60_000));
    assert_eq!(report.trace.invokes_queued, 1);
    assert_eq!(report.trace.invokes_dropped, 1, "the one Down");
}

/// `(operation, causal logs, rounds)` of every operation of a persistent
/// run on 3 nodes, in invocation order, and how many invocations waited
/// on their register.
fn costs(schedule: Schedule) -> (Vec<(rmem_types::Op, u32, u32)>, u64) {
    let mut sim = Simulation::new(
        ClusterConfig::new(3),
        rmem_core::SharedMemory::factory(rmem_core::Persistent::flavor()),
        7,
    )
    .with_schedule(schedule);
    let report = sim.run();
    let ops = report.trace.operations();
    assert!(ops.iter().all(|o| o.is_completed()), "{ops:#?}");
    let costs = ops
        .iter()
        .map(|o| (o.operation.clone(), o.causal_logs, o.rounds))
        .collect();
    (costs, report.trace.invokes_queued)
}

/// Waiting costs no log: a write and a read queued behind writes on
/// their register pay the causal logs and rounds each pays alone — a
/// persistent write 2 logs (its pre-log, then the replicas') and 2
/// rounds, a read after it 0 logs and the fast path's 1 round — even
/// though a queued operation's first messages leave in the step that
/// completes the one ahead of it.
#[test]
fn a_queued_operation_costs_what_it_costs_alone() {
    use rmem_types::{Op, RegisterId, Value};
    let reg = RegisterId(2);
    let ops = [
        Op::WriteAt(reg, Value::from_u32(1)),
        Op::WriteAt(reg, Value::from_u32(2)),
        Op::ReadAt(reg),
    ];
    let plant = |gap: u64| {
        let planted = ops.iter().enumerate().map(|(i, op)| {
            let at = 1_000 + gap * i as u64;
            (at, PlannedEvent::Invoke(ProcessId(0), op.clone()))
        });
        planted.fold(Schedule::new(), |s, (at, ev)| s.at(at, ev))
    };
    let (alone, waited) = costs(plant(10_000));
    assert_eq!(waited, 0);
    let [w1, w2, read] = ops.clone();
    assert_eq!(alone, [(w1, 2, 2), (w2, 2, 2), (read, 0, 1)]);
    let (queued, waited) = costs(plant(0));
    assert_eq!(waited, 2, "both followers waited on the first write");
    assert_eq!(queued, alone);
}

/// Waiting for recovery costs no log either: a write and a read invoked
/// at a recovering process, while its recovery round runs, pay what the
/// same two pay invoked one at a time after it is through.
#[test]
fn an_invocation_during_recovery_costs_what_it_costs_after_it() {
    use rmem_types::{Op, RegisterId, Value};
    let reg = RegisterId(2);
    let run = |write_at: u64, read_at: u64| {
        costs(
            Schedule::new()
                .at(
                    500,
                    PlannedEvent::Invoke(ProcessId(1), Op::WriteAt(reg, Value::from_u32(1))),
                )
                .at(3_000, PlannedEvent::Crash(ProcessId(0)))
                .at(4_000, PlannedEvent::Recover(ProcessId(0)))
                .at(
                    write_at,
                    PlannedEvent::Invoke(ProcessId(0), Op::WriteAt(reg, Value::from_u32(2))),
                )
                .at(read_at, PlannedEvent::Invoke(ProcessId(0), Op::ReadAt(reg))),
        )
        .0
    };
    let after = run(20_000, 30_000);
    assert_eq!(
        after[1..],
        [
            (Op::WriteAt(reg, Value::from_u32(2)), 2, 2),
            (Op::ReadAt(reg), 0, 1),
        ]
    );
    // 10 and 20 µs into a recovery that takes longer than that.
    assert_eq!(run(4_010, 4_020), after);
}

/// A write that arrives while its register's lease renews itself — a
/// read round nobody waits for — waits for the round to mint and begins
/// under the new lease, one round. It enters the history then, not when
/// it was submitted: nothing of it ran before.
#[test]
fn a_write_behind_a_lease_renewal_begins_when_the_renewal_mints() {
    use rmem_core::{Flavor, FlavorFactory, DEFAULT_RETRANSMIT};
    use rmem_types::{Op, OpKind, Value};
    const TERM: u64 = 1_000;
    // The read at 10 µs mints a lease whose renew point, 7/8 of a term
    // after its broadcast, starts the renewal; the write arrives 50 µs
    // into it.
    let submitted = 10 + TERM - TERM / 8 + 50;
    let schedule = Schedule::new()
        .at(10, PlannedEvent::Invoke(ProcessId(0), Op::Read))
        .at(
            submitted,
            PlannedEvent::Invoke(ProcessId(0), Op::Write(Value::from_u32(1))),
        );
    let flavor = Flavor::transient().with_lease(TERM);
    let factory = Arc::new(FlavorFactory::new(flavor, DEFAULT_RETRANSMIT));
    let mut sim = Simulation::new(ClusterConfig::new(3), factory, 5).with_schedule(schedule);
    let report = sim.run();
    let ops = report.trace.operations();
    let write = ops.iter().find(|o| o.kind == OpKind::Write).unwrap();
    assert_eq!(write.rounds, 1, "begun under the minted lease: {ops:#?}");
    let round_trip = 2 * rmem_sim::NetConfig::default().base_delay.0;
    assert!(
        write.invoked_at.as_micros() >= submitted + round_trip - 50,
        "recorded before the renewal's quorum answered: {ops:#?}"
    );
    assert!(report.trace.to_history().well_formed().is_ok());
}
