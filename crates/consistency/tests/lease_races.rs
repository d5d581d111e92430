//! Freshness sweeps for tag leases: writers vs leased readers, through
//! the lease holder and around it.
//!
//! A lease turns a read into **zero** rounds: the coordinator that holds
//! it answers from memory without sending a datagram. That is exactly the
//! mechanism most likely to smuggle a stale value past a completed write —
//! and a holder's own write is let past its own grants at every replica
//! (see `rmem_core::replica`), which makes the holder's side of the fence
//! the part to distrust. So these tests race writers against leased
//! readers over seeded, jittered runs in four shapes — reader and writer
//! through the **same** coordinator, through different ones, a straggler
//! `Write` of the holder's previous incarnation landing under the new
//! incarnation's lease, the holder crashing mid-write — and adjudicate
//! each run twice: the full criterion checkers certify the history, and
//! the [`check_freshness`] oracle polices every zero-round read against
//! the committed version frontier — **a leased read must never return a
//! value older than any value returned after a completed write.**
//!
//! Writers write *distinct, increasing* values so each read's result
//! names the exact version it observed; `rounds == 0` marks the leased
//! reads. A sweep that never produced a zero-round read would be testing
//! nothing, so the tests also demand the lease demonstrably fired.

use std::sync::Arc;

use rmem_consistency::{
    check_freshness, check_persistent, check_transient, FreshnessKind, FreshnessOp, History,
};
use rmem_core::{Flavor, SharedMemory};
use rmem_sim::workload::{ClosedLoop, PlannedEvent, Schedule};
use rmem_sim::{ClusterConfig, NetConfig, SimReport, Simulation, Trace};
use rmem_types::{AutomatonFactory, Micros, Op, OpKind, ProcessId, Value};

/// Virtual-time lease horizon. Long enough that a reader's think time
/// (30–200µs) fits many reads inside one grant; short enough that the
/// replica write fence (horizon + horizon/4) doesn't serialize the run.
const LEASE_MICROS: u64 = 1_500;

const SEEDS: u64 = 12;

fn p(i: u16) -> ProcessId {
    ProcessId(i)
}

fn v(x: u32) -> Value {
    Value::from_u32(x)
}

/// Three processes on a LAN whose delays jitter, so that a run depends
/// on its seed.
fn jittery() -> ClusterConfig {
    ClusterConfig::new(3).with_net(NetConfig {
        jitter: Micros(60),
        ..NetConfig::default()
    })
}

/// A writer loop whose writes carry distinct increasing values `1..=n`,
/// so a value doubles as a version number for the freshness oracle.
fn versioned_writer(pid: ProcessId, n: u32, think: Micros) -> ClosedLoop {
    ClosedLoop {
        pid,
        ops: (1..=n).map(|i| Op::Write(v(i))).collect(),
        think,
        start_after: Micros(10),
    }
}

/// One process reading and writing: `n` times three reads — a mint and
/// two hits, left alone — and then the write of the next version, which
/// begins under the lease those reads were served from.
fn holder_that_also_writes(pid: ProcessId, n: u32) -> ClosedLoop {
    let group = |i| [Op::Read, Op::Read, Op::Read, Op::Write(v(i))];
    ClosedLoop {
        pid,
        ops: (1..=n).flat_map(group).collect(),
        think: Micros(30),
        start_after: Micros(10),
    }
}

fn dump_trace_timeline(trace: &Trace) {
    eprintln!("--- trace timeline (virtual µs) ---");
    for o in trace.operations() {
        let end = o
            .completed_at
            .map(|t| t.as_micros().to_string())
            .unwrap_or_else(|| "pending".into());
        eprintln!(
            "  [{:>7}..{:>7}] {:?} {:?} rounds={} result={:?}",
            o.invoked_at.as_micros(),
            end,
            o.op,
            o.kind,
            o.rounds,
            o.result.as_ref().map(|r| r.read_value().map(version_of)),
        );
    }
}

/// The version a value names: ⊥ is 0, a writer's `u32` is itself, and
/// anything else is a scenario's one oversized write — the newest version
/// of its run, labelled by its length.
fn version_of(value: &Value) -> u64 {
    value.as_u32().map_or(value.len() as u64, u64::from)
}

/// Lowers a completed trace into per-register freshness ops. The sweeps
/// run single-register workloads, so the whole trace is one oracle call;
/// a write's value *is* its version, a read's returned value names the
/// version it saw, and `rounds == 0` identifies the leased reads.
fn freshness_ops(trace: &Trace) -> Vec<(ProcessId, FreshnessOp)> {
    trace
        .operations()
        .iter()
        .filter(|o| o.is_completed())
        .map(|o| {
            let kind = match (&o.operation, o.kind) {
                (Op::Write(value), _) => FreshnessKind::Write {
                    version: version_of(value),
                },
                (Op::Read, OpKind::Read) => FreshnessKind::Read {
                    version: o
                        .result
                        .as_ref()
                        .and_then(|r| r.read_value())
                        .map_or(0, version_of),
                    leased: o.rounds == 0,
                },
                other => panic!("unexpected op/kind pair {other:?}"),
            };
            let op = FreshnessOp {
                invoked_at: o.invoked_at.as_micros(),
                completed_at: o.completed_at.expect("filtered to completed").as_micros(),
                kind,
            };
            (o.op.pid, op)
        })
        .collect()
}

type Check = fn(History) -> Result<(), String>;

/// Both crash-recovery flavors, leasing for `lease` µs, each with its
/// criterion's checker.
fn leased_flavors(lease: u64) -> [(Arc<dyn AutomatonFactory>, &'static str, Check); 2] {
    [
        (
            SharedMemory::factory(Flavor::persistent().with_lease(lease)),
            "persistent",
            |h| check_persistent(&h).map(|_| ()).map_err(|e| e.to_string()),
        ),
        (
            SharedMemory::factory(Flavor::transient().with_lease(lease)),
            "transient",
            |h| check_transient(&h).map(|_| ()).map_err(|e| e.to_string()),
        ),
    ]
}

/// How the reads of a sweep were served.
#[derive(Debug, Default)]
struct ReadRounds {
    leased: u32,
    fast: u32,
    fallback: u32,
}

/// Adjudicates one finished run: its history certifies under `check`,
/// every zero-round read is fresh. Tallies its reads into `rounds` and
/// returns its freshness ops, by process.
fn adjudicate(
    report: &SimReport,
    what: &str,
    check: Check,
    rounds: &mut ReadRounds,
) -> Vec<(ProcessId, FreshnessOp)> {
    check(report.trace.to_history()).unwrap_or_else(|e| {
        dump_trace_timeline(&report.trace);
        panic!("{what}: criterion violated: {e}")
    });
    let ops = freshness_ops(&report.trace);
    let just_ops: Vec<FreshnessOp> = ops.iter().map(|&(_, op)| op).collect();
    let fresh = check_freshness(&just_ops).unwrap_or_else(|violation| {
        dump_trace_timeline(&report.trace);
        panic!("{what}: {violation}")
    });
    let before = rounds.leased;
    for r in report.trace.rounds(OpKind::Read) {
        match r {
            0 => rounds.leased += 1,
            1 => rounds.fast += 1,
            2 => rounds.fallback += 1,
            other => panic!("{what}: impossible round count {other}"),
        }
    }
    assert_eq!(
        fresh.leased_reads as u32,
        rounds.leased - before,
        "{what}: every zero-round read must have been policed"
    );
    ops
}

fn completed(report: &SimReport) -> usize {
    let ops = report.trace.operations();
    ops.iter().filter(|o| o.is_completed()).count()
}

/// (b) Writer and readers through **different** coordinators, for both
/// crash-recovery flavors: every history certifies under its criterion,
/// every zero-round read is fresh, and the sweep demonstrably exercises
/// the lease (zero rounds), the fast path (one round) and the contended
/// fallback (two rounds). Nothing the writer sends reaches the first
/// reader, so its own replica never adopts a new tag under its lease:
/// only the fence at the third process keeps that lease fresh.
#[test]
fn leased_sweeps_certify_and_never_serve_stale_reads() {
    for (factory, name, check) in leased_flavors(LEASE_MICROS) {
        let mut rounds = ReadRounds::default();
        for seed in 0..SEEDS {
            let partition = Schedule::new().at(0, PlannedEvent::Block(p(0), p(1)));
            let mut sim =
                Simulation::new(jittery(), factory.clone(), seed).with_schedule(partition);
            // A writer installing versions 1..=12 races two readers. The
            // writer's think time leaves quiescent stretches where a read
            // earns a grant, and the next read lands inside the horizon —
            // while the write bursts force fallbacks, and every one of
            // them waits out the readers' grants.
            sim.add_closed_loop(versioned_writer(p(0), 12, Micros(60)));
            sim.add_closed_loop(ClosedLoop::reads(p(1), 24).with_think(Micros(40)));
            sim.add_closed_loop(ClosedLoop::reads(p(2), 24).with_think(Micros(90)));
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            assert_eq!(completed(&report), 60, "{what}: all ops complete");
            adjudicate(&report, &what, check, &mut rounds);
        }
        assert!(
            rounds.leased > 0,
            "{name}: the sweep must produce zero-round leased reads — otherwise \
             the freshness oracle polices nothing"
        );
        assert!(
            rounds.fast > 0,
            "{name}: quiescent reads must still earn (and re-earn) grants via \
             the one-round fast path"
        );
        assert!(
            rounds.fallback > 0,
            "{name}: contended reads must still fall back — if nothing ever \
             pays the write-back, the agreement gate is broken"
        );
    }
}

/// (a) Reader and writer through the **same** coordinator: every write
/// begins under a live lease of its own process, which must be gone
/// before the write's first message leaves — the replicas let the write
/// past that process's grants on nothing else — while another process's
/// reads fence it as ever. The holder never hears itself here, so its
/// own replica adopting the new tag cannot kill the lease for it. On its
/// own, the holder never waits for itself.
#[test]
fn a_holder_that_also_writes_never_serves_its_own_stale_lease() {
    let deaf_to_itself = || Schedule::new().at(0, PlannedEvent::Block(p(0), p(0)));
    for (factory, name, check) in leased_flavors(LEASE_MICROS) {
        let mut rounds = ReadRounds::default();
        for seed in 0..SEEDS {
            let mut sim =
                Simulation::new(jittery(), factory.clone(), seed).with_schedule(deaf_to_itself());
            sim.add_closed_loop(holder_that_also_writes(p(0), 12));
            sim.add_closed_loop(ClosedLoop::reads(p(1), 24).with_think(Micros(200)));
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            assert_eq!(completed(&report), 72, "{what}: all ops complete");
            let ops = adjudicate(&report, &what, check, &mut rounds);
            let by_holder = |&&(pid, op): &&(ProcessId, FreshnessOp)| {
                pid == p(0) && matches!(op.kind, FreshnessKind::Read { leased: true, .. })
            };
            assert!(
                ops.iter().filter(by_holder).count() >= 12,
                "{what}: the holder's reads between its writes are served under its lease"
            );
        }
        assert!(rounds.fallback > 0, "{name}: the other reader is fenced");

        // The holder alone: nobody else's grant is out, so no write of
        // its ever sits out a lease term.
        let mut sim =
            Simulation::new(jittery(), factory.clone(), 0).with_schedule(deaf_to_itself());
        sim.add_closed_loop(holder_that_also_writes(p(0), 12));
        let report = sim.run();
        adjudicate(&report, name, check, &mut ReadRounds::default());
        let slowest = report.trace.latencies(OpKind::Write).into_iter().max();
        assert!(
            slowest.is_some_and(|l| l < LEASE_MICROS),
            "{name}: a write waited out its own process's grants ({slowest:?} µs)"
        );
    }
}

/// (c) A straggler from the holder's **previous incarnation**. p0 sends
/// an oversized `Write` that is still on the wire when p0 crashes; the
/// new incarnation — which, under the transient criterion, knows nothing
/// of that write — mints a lease on the older tag and serves under it
/// when the straggler lands at p1 and p2. It carries p0's name, so it is
/// let past p0's grants there; what must hold is that nobody *else* is
/// shown the new tag while p0 still serves the old one. To leave that to
/// the fence alone, p0 hears nobody while its lease runs (no peer's
/// write-back can kill it early), p1 meets the new tag the moment it
/// lands, and p2 starts reading — p1 and itself, both holding the new tag
/// durably — only after that. (The persistent flavor pre-logs: its new
/// incarnation re-finishes the write before it serves, and the straggler
/// lands beside the re-finish.)
#[test]
fn a_straggler_of_the_holders_last_life_lands_under_its_new_lease() {
    // Long enough for the straggler (≈ 2.7 ms on the wire, then 1.3 ms to
    // the disk) to land well inside the new incarnation's lease.
    const LEASE: u64 = 10_000;
    // When p0 invokes the oversized write (its first is through by then).
    const SENT: u64 = 1_200;
    // When the straggler has reached p1 and p2, at the earliest.
    const LANDED: u64 = SENT + 200 + 2_700;
    let big = Value::new(vec![7u8; 32 * 1024]);
    let newest = version_of(&big);
    for (factory, name, check) in leased_flavors(LEASE) {
        let transient = name == "transient";
        let mut rounds = ReadRounds::default();
        for seed in 0..SEEDS {
            // The crash falls after the `Write` left: right behind the
            // query round for the transient flavor, behind the pre-log
            // of 32 KiB for the persistent one.
            let crash = if transient { 1_700 } else { 3_100 } + 10 * seed;
            // p0 invokes again once it has recovered (the persistent
            // flavor's re-finish sits out its peers' grants first; an
            // invocation queued meanwhile would be recorded as made while
            // the write it must follow was still landing). Planted reads,
            // not a loop: a loop yet to start is started by the recovery.
            let recovered = if transient { crash + 1_100 } else { 30_000 };
            // The first of them mints; for the rest of its term p0 is cut
            // off from p1 and p2, and p2 from p0.
            let (minted, expired) = (recovered + 600, recovered + LEASE + 500);
            let cut = [(p(1), p(0)), (p(2), p(0)), (p(0), p(2))];
            let schedule = Schedule::new()
                // p0 never hears itself either: its quorums are {p1, p2}.
                .at(0, PlannedEvent::Block(p(0), p(0)))
                .at(10, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
                .at(SENT, PlannedEvent::Invoke(p(0), Op::Write(big.clone())))
                .at(crash, PlannedEvent::Crash(p(0)))
                .at(crash + 200, PlannedEvent::Recover(p(0)));
            let schedule = cut.iter().fold(schedule, |schedule, &(from, to)| {
                schedule
                    .at(minted, PlannedEvent::Block(from, to))
                    .at(expired, PlannedEvent::Unblock(from, to))
            });
            let schedule = (0..90).fold(schedule, |schedule, k| {
                schedule.at(recovered + 100 * k, PlannedEvent::Invoke(p(0), Op::Read))
            });
            let mut sim = Simulation::new(jittery(), factory.clone(), seed).with_schedule(schedule);
            let reads = |pid, start| {
                ClosedLoop::reads(pid, 12)
                    .with_think(Micros(150))
                    .with_start_after(Micros(start))
            };
            sim.add_closed_loop(reads(p(1), 2_000));
            sim.add_closed_loop(reads(p(2), LANDED + 1_700));
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            let ops = adjudicate(&report, &what, check, &mut rounds);
            let fired = |what: &str, wanted: &dyn Fn(ProcessId, FreshnessOp) -> bool| {
                if !ops.iter().any(|&(pid, op)| wanted(pid, op)) {
                    dump_trace_timeline(&report.trace);
                    panic!("{name}/seed {seed}: {what}");
                }
            };
            fired(
                "the straggler must land and be read",
                &|_, op| matches!(op.kind, FreshnessKind::Read { version, .. } if version == newest),
            );
            if transient {
                let old_leased = FreshnessKind::Read {
                    version: 1,
                    leased: true,
                };
                fired(
                    "no zero-round read of the old tag long after the straggler landed",
                    &|pid, op| {
                        pid == p(0) && op.kind == old_leased && op.invoked_at > LANDED + 5_000
                    },
                );
                fired(
                    "p2 must have been kept off the new tag until p0's grants expired",
                    &|pid, op| {
                        pid == p(2)
                            && op.invoked_at < LANDED + 2_000
                            && op.completed_at > recovered + LEASE
                    },
                );
            }
        }
        assert!(rounds.leased > 0, "{name}: the oracle policed nothing");
    }
}

/// (d) The holder crashes **mid-write**: the crash instant sweeps one of
/// its writes from the query round to the last acknowledgement, the
/// write having begun under the holder's own lease. Its replicas may
/// hold the new tag acknowledged past the dead holder's grants; the
/// recovered holder re-learns the register before it serves, and the
/// other readers' leases stay fenced throughout.
#[test]
fn a_holder_crashing_mid_write_leaves_no_stale_lease_behind() {
    for (factory, name, check) in leased_flavors(LEASE_MICROS) {
        let mut rounds = ReadRounds::default();
        for seed in 0..SEEDS {
            // The first write begins ≈ 300 µs in (a mint and two hits
            // before it) and takes under a millisecond.
            let crash = 320 + 60 * seed;
            let schedule = Schedule::new()
                .at(crash, PlannedEvent::Crash(p(0)))
                .at(crash + 300, PlannedEvent::Recover(p(0)));
            let mut sim = Simulation::new(jittery(), factory.clone(), seed).with_schedule(schedule);
            sim.add_closed_loop(holder_that_also_writes(p(0), 12));
            sim.add_closed_loop(ClosedLoop::reads(p(1), 24).with_think(Micros(40)));
            sim.add_closed_loop(ClosedLoop::reads(p(2), 24).with_think(Micros(90)));
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            assert_eq!(report.trace.crashes, 1, "{what}");
            adjudicate(&report, &what, check, &mut rounds);
        }
        assert!(rounds.leased > 0, "{name}: the oracle policed nothing");
        assert!(rounds.fallback > 0, "{name}: nothing was ever fenced");
    }
}

/// The oracle itself must bite on this workload shape: corrupting one
/// leased read in a passing trace to an older version is caught with a
/// witness naming the lease. Guards against the sweep green-washing
/// because the conversion dropped the `leased` bit or the versions.
#[test]
fn the_oracle_catches_a_corrupted_leased_read() {
    // Scan seeds until a run yields a leased read invoked after version 3
    // committed — the raw material for the corruption.
    let factory = SharedMemory::factory(Flavor::persistent().with_lease(LEASE_MICROS));
    let (mut ops, victim) = (0..SEEDS)
        .find_map(|seed| {
            let mut sim = Simulation::new(jittery(), factory.clone(), seed);
            sim.add_closed_loop(versioned_writer(p(0), 12, Micros(60)));
            sim.add_closed_loop(ClosedLoop::reads(p(1), 24).with_think(Micros(40)));
            sim.add_closed_loop(ClosedLoop::reads(p(2), 24).with_think(Micros(90)));
            let ops = freshness_ops(&sim.run().trace);
            let ops: Vec<FreshnessOp> = ops.into_iter().map(|(_, op)| op).collect();
            check_freshness(&ops).expect("the unmodified trace is fresh");
            let committed_3 = ops
                .iter()
                .filter(|o| match o.kind {
                    FreshnessKind::Write { version } => version >= 3,
                    FreshnessKind::Read { version, .. } => version >= 3,
                })
                .map(|o| o.completed_at)
                .min()
                .expect("the writer installs 12 versions");
            let victim = ops.iter().position(|o| {
                o.invoked_at > committed_3
                    && matches!(o.kind, FreshnessKind::Read { leased: true, .. })
            })?;
            Some((ops, victim))
        })
        .expect("some seed must produce a late leased read");
    // Claim the victim saw version 1: the oracle must name it.
    ops[victim].kind = FreshnessKind::Read {
        version: 1,
        leased: true,
    };
    let violation = check_freshness(&ops).expect_err("the stale read must be caught");
    assert_eq!(violation.returned, 1);
    assert!(violation.frontier >= 3);
}
