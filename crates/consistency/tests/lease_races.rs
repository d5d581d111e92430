//! Freshness sweeps for tag leases: writers vs leased readers, through
//! the lease holder and around it.
//!
//! A lease turns a read into **zero** rounds: the coordinator that holds
//! it answers from memory without sending a datagram. That is exactly the
//! mechanism most likely to smuggle a stale value past a completed write —
//! and a holder's own write is let past its own grants at every replica
//! (see `rmem_core::replica`), which makes the holder's side of the fence
//! the part to distrust, its renewal — a `Read` sent while the lease
//! still serves — included. So these tests race writers against leased
//! readers over seeded, jittered runs in sixteen shapes — reader and
//! writer through the **same** coordinator (whose write *hands* its lease
//! *on* to the tag it wrote), through different ones, thrifty rounds on
//! both sides, a straggler `Write` of the holder's previous incarnation
//! landing under the new incarnation's lease (and the holder then writing
//! under it), the holder crashing mid-write, the lease's horizon firing
//! mid-write, a foreign writer against a holder that renews every term,
//! clients arriving during a renewal nobody waits for, a read waiting
//! behind a renewal whose replies are older than itself, a foreign write
//! landing between a mint and its renew point at one granting replica or
//! at the whole renewal quorum, a renewal whose replies come back late,
//! a renewal that must write back what the replica a thrifty put skipped
//! holds before it mints, one that skips a replier that cannot grant, and
//! a write whose lease ran out under it renewing for the read queued
//! behind it — and adjudicate each run twice: the full
//! criterion checkers certify the history, and
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
use rmem_sim::{ClusterConfig, NetConfig, SimReport, Simulation, Trace, VirtualTime};
use rmem_types::{AutomatonFactory, Micros, Op, OpKind, OpResult, ProcessId, Value};

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
    patient_leased_flavors(lease, rmem_core::DEFAULT_RETRANSMIT)
}

/// [`leased_flavors`] retransmitting an unanswered round after
/// `retransmit`.
fn patient_leased_flavors(
    lease: u64,
    retransmit: Micros,
) -> [(Arc<dyn AutomatonFactory>, &'static str, Check); 2] {
    [
        (
            SharedMemory::factory_with_retransmit(
                Flavor::persistent().with_lease(lease),
                retransmit,
            ),
            "persistent",
            |h| check_persistent(&h).map(|_| ()).map_err(|e| e.to_string()),
        ),
        (
            SharedMemory::factory_with_retransmit(
                Flavor::transient().with_lease(lease),
                retransmit,
            ),
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

/// Panics, with the run's timeline, unless some operation is `wanted`.
fn demand(
    report: &SimReport,
    ops: &[(ProcessId, FreshnessOp)],
    what: &str,
    wanted: &dyn Fn(ProcessId, FreshnessOp) -> bool,
) {
    if !ops.iter().any(|&(pid, op)| wanted(pid, op)) {
        dump_trace_timeline(&report.trace);
        panic!("{what}");
    }
}

/// The operation `pid` invoked at `invoked` µs — planted there by the
/// schedule.
fn planted(ops: &[(ProcessId, FreshnessOp)], pid: ProcessId, invoked: u64) -> FreshnessOp {
    let started = |&&(by, op): &&(ProcessId, FreshnessOp)| by == pid && op.invoked_at == invoked;
    ops.iter().find(started).expect("planted").1
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

/// How many of `holder`'s writes took one round, and how many of those
/// its very next operation — a read — saw in zero rounds.
fn handed_on(report: &SimReport, holder: ProcessId) -> [usize; 2] {
    let ops = report.trace.operations().iter();
    let own: Vec<_> = ops.filter(|o| o.op.pid == holder).collect();
    let one_round = |o: &rmem_sim::OpRecord| o.kind == OpKind::Write && o.rounds == 1;
    let then_zero = own.windows(2).filter(|pair| {
        let (write, next) = (pair[0], pair[1]);
        let Op::Write(value) = &write.operation else {
            return false;
        };
        let saw = next.result.as_ref().and_then(|r| r.read_value());
        one_round(write) && next.rounds == 0 && saw == Some(value)
    });
    [
        own.iter().filter(|o| one_round(o)).count(),
        then_zero.count(),
    ]
}

/// (a′) Reader and writer through the **same** coordinator: every write
/// begins under a live lease of its own process. It takes the lease
/// before its first message leaves — the replicas let the write past
/// that process's grants on nothing else — uses it as its query round,
/// and completed hands it on to the tag it wrote: one round, and the
/// holder's next read is zero rounds **of the new version**. Another
/// process's reads fence the write as ever. The holder never hears
/// itself here, so its own replica knows no tag at all: the new tag
/// outranks the old one on the strength of the leased tag alone, and
/// the replica adopting it cannot be what retires the old value. On
/// its own, the holder never waits for itself, and pays one round per
/// write. (Red without the hand-on at the write's completion in
/// `generic.rs`: no read of a new version is zero rounds.)
#[test]
fn a_holder_that_also_writes_hands_its_lease_on_to_what_it_wrote() {
    let deaf_to_itself = || Schedule::new().at(0, PlannedEvent::Block(p(0), p(0)));
    for (factory, name, check) in leased_flavors(LEASE_MICROS) {
        let mut rounds = ReadRounds::default();
        let mut tally = [0, 0];
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
            let [one_round, then_zero] = handed_on(&report, p(0));
            tally = [tally[0] + one_round, tally[1] + then_zero];
        }
        assert!(rounds.fallback > 0, "{name}: the other reader is fenced");
        // The other reader's grants hold most of these writes past the
        // horizon of the lease they took; the rest — those after its last
        // read — hand it on. (Its thrifty reads send one message less, so
        // it reads a little more often and its last read falls later: at
        // these seeds 8 transient and 24 persistent writes hand on, where
        // reads to all three gave 18 and 25.)
        let [one_round, then_zero] = tally;
        assert!(
            one_round == 12 * SEEDS as usize && then_zero >= SEEDS as usize / 2,
            "{name}: {one_round} one-round writes, {then_zero} handed on"
        );

        // The holder alone: nobody else's grant is out, so no write of
        // its ever sits out a lease term, every one of them is one round,
        // and only a horizon that fires mid-write costs the next read one.
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
        let [one_round, then_zero] = handed_on(&report, p(0));
        assert_eq!(
            one_round, 12,
            "{name}: a write under a live lease is one round"
        );
        assert!(then_zero >= 5, "{name}: only {then_zero} of 11 handed on");
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
            // p0 reads again once it has recovered (the persistent
            // flavor's re-finish sits out its peers' grants first), and
            // the cuts below are timed from there.
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
            let mut sim = Simulation::new(jittery(), factory.clone(), seed).with_schedule(schedule);
            let reads = |pid, n, think, start| {
                ClosedLoop::reads(pid, n)
                    .with_think(Micros(think))
                    .with_start_after(Micros(start))
            };
            sim.add_closed_loop(reads(p(0), 90, 100, recovered));
            sim.add_closed_loop(reads(p(1), 12, 150, 2_000));
            sim.add_closed_loop(reads(p(2), 12, 150, LANDED + 1_700));
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            let ops = adjudicate(&report, &what, check, &mut rounds);
            let fired = |that: &str, wanted: &dyn Fn(ProcessId, FreshnessOp) -> bool| {
                demand(&report, &ops, &format!("{what}: {that}"), wanted)
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

/// (c′) The same straggler, and then **the holder writes under the lease
/// it landed under**. The new incarnation's lease is on tag 1; the
/// straggler carries tag 2 and sits at p1 and p2 when p0 — which has not
/// seen it: it never hears itself, and nobody else is awake to write it
/// back — begins a write under that lease. The leased tag stands in for
/// the query round, so the new tag is Fig. 5 line 11 over it, `rec`
/// included: 1 + 1 + 1 outranks the straggler, and the transient
/// criterion's "an interrupted write takes effect before its process's
/// next write returns, or never" holds. (Red when the leased write's tag
/// leaves the `rec` component out: it *is* the straggler's tag, p1 and p2
/// acknowledge it without adopting, and the completed write is never
/// read. The persistent flavor pre-logs and re-finishes; its lease is
/// minted on the straggler's tag to begin with.)
#[test]
fn a_holder_writing_under_its_new_lease_outranks_its_last_lifes_straggler() {
    const LEASE: u64 = 10_000;
    const SENT: u64 = 1_200;
    const LANDED: u64 = SENT + 200 + 2_700;
    let big = Value::new(vec![7u8; 32 * 1024]);
    // Versions must order as the writes do: 1, the straggler, this.
    let last = version_of(&big) + 1;
    for (factory, name, check) in leased_flavors(LEASE) {
        let transient = name == "transient";
        let mut rounds = ReadRounds::default();
        for seed in 0..SEEDS {
            let crash = if transient { 1_700 } else { 3_100 } + 10 * seed;
            // Recovered, caught up and — the persistent flavor —
            // re-finished; the first read then mints.
            let recovered = crash + if transient { 1_100 } else { 7_000 };
            // The straggler is durable at p1 and p2 well before this, and
            // the minting read — 32 KiB on the wire for the persistent
            // flavor — is back.
            let writes = if transient { LANDED } else { recovered } + 4_000;
            let schedule = Schedule::new()
                .at(0, PlannedEvent::Block(p(0), p(0)))
                .at(10, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
                .at(SENT, PlannedEvent::Invoke(p(0), Op::Write(big.clone())))
                .at(crash, PlannedEvent::Crash(p(0)))
                .at(crash + 200, PlannedEvent::Recover(p(0)))
                .at(
                    writes,
                    PlannedEvent::Invoke(p(0), Op::Write(v(last as u32))),
                );
            let read_at =
                |schedule: Schedule, at| schedule.at(at, PlannedEvent::Invoke(p(0), Op::Read));
            let schedule = (0..36).fold(schedule, |schedule, k| {
                let before = read_at(schedule, recovered + 100 * k);
                read_at(before, writes + 1_000 + 100 * k)
            });
            let mut sim = Simulation::new(jittery(), factory.clone(), seed).with_schedule(schedule);
            // The others wake only once p0's lease has run out.
            for pid in [p(1), p(2)] {
                let late = ClosedLoop::reads(pid, 6).with_think(Micros(150));
                sim.add_closed_loop(late.with_start_after(Micros(recovered + LEASE + 2_000)));
            }
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            let ops = adjudicate(&report, &what, check, &mut rounds);
            let fired = |that: &str, wanted: &dyn Fn(ProcessId, FreshnessOp) -> bool| {
                demand(&report, &ops, &format!("{what}: {that}"), wanted)
            };
            if transient {
                let old_leased = FreshnessKind::Read {
                    version: 1,
                    leased: true,
                };
                fired(
                    "the straggler lands under a lease on the old tag",
                    &|pid, op| {
                        pid == p(0) && op.kind == old_leased && op.invoked_at > LANDED + 1_500
                    },
                );
            }
            let the_write = report
                .trace
                .operations()
                .iter()
                .find(|o| o.operation == Op::Write(v(last as u32)) && o.is_completed());
            assert_eq!(
                the_write.map(|o| o.rounds),
                Some(1),
                "{what}: the write begins under the lease"
            );
            let new_leased = FreshnessKind::Read {
                version: last,
                leased: true,
            };
            fired("the lease is handed on to the new tag", &|pid, op| {
                pid == p(0) && op.kind == new_leased
            });
            fired(
                "the others read the new value, not the straggler's",
                &|pid, op| {
                    let new = FreshnessKind::Read {
                        version: last,
                        leased: false,
                    };
                    pid != p(0) && op.kind == new
                },
            );
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

/// (e) The lease's horizon fires **mid-write**, while a foreign reader
/// waits. p0 mints at 10 µs, so its horizon is 1 510 µs on every seed,
/// and begins a write under that lease at 1 300 µs that cannot finish
/// before it: there is nothing left to hand on, so the write renews right
/// after it completes and p0's next read is served by what that renewal
/// minted, and p1 — whose read met the new tag behind p0's grants — is
/// served it only after they expired. Then p2 writes, unheard by p0 (so
/// p0's own replica cannot retire a lease for it), and p0 must see that
/// too. (Red when a write whose lease ran out under it does not renew:
/// p0's next read asks the quorum. Without the line in `on_timer` that
/// marks an armed lease's horizon as fired, the write would hand on a
/// lease whose horizon is spent; here the renewal that follows replaces
/// it before it serves anything — shape (m) is where that turns red.)
#[test]
fn a_horizon_that_fires_mid_write_leaves_nothing_to_hand_on() {
    const MINT: u64 = 10;
    const WRITE: u64 = 1_300;
    const HOLD: u64 = LEASE_MICROS + LEASE_MICROS / 4;
    for (factory, name, check) in leased_flavors(LEASE_MICROS) {
        let mut rounds = ReadRounds::default();
        for seed in 0..SEEDS {
            // The last two reads lie a retransmission period apart: p0's
            // thrifty read at 9 ms may ask p2, whom it no longer hears.
            let p0_reads = [MINT, 500, 900, 3_800, 4_200, 9_000, 12_000];
            let schedule = Schedule::new()
                .at(WRITE, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
                .at(WRITE + 400, PlannedEvent::Invoke(p(1), Op::Read))
                // Nothing p2 sends reaches p0: no replica of p0's own can
                // retire a lease for it.
                .at(5_000, PlannedEvent::Block(p(2), p(0)))
                .at(6_000, PlannedEvent::Invoke(p(2), Op::Write(v(2))));
            let schedule = p0_reads.iter().fold(schedule, |schedule, &at| {
                schedule.at(at, PlannedEvent::Invoke(p(0), Op::Read))
            });
            let mut sim = Simulation::new(jittery(), factory.clone(), seed).with_schedule(schedule);
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            assert_eq!(completed(&report), 10, "{what}: all ops complete");
            let ops = adjudicate(&report, &what, check, &mut rounds);
            let at = |pid, invoked| planted(&ops, pid, invoked);
            let write = at(p(0), WRITE);
            assert!(
                write.completed_at > MINT + LEASE_MICROS,
                "{what}: the write must straddle the horizon"
            );
            assert_eq!(
                at(p(0), 3_800).kind,
                FreshnessKind::Read {
                    version: 1,
                    leased: true
                },
                "{what}: the write whose lease ran out under it renews"
            );
            let foreign = at(p(1), WRITE + 400);
            assert_eq!(
                foreign.kind,
                FreshnessKind::Read {
                    version: 1,
                    leased: false
                },
                "{what}"
            );
            assert!(
                foreign.completed_at > MINT + HOLD,
                "{what}: p1 was shown the new tag at {} µs, under p0's grants",
                foreign.completed_at
            );
            let last = at(p(0), 12_000).kind;
            assert!(
                matches!(last, FreshnessKind::Read { version: 2, .. }),
                "{what}: {last:?}"
            );
        }
        assert!(rounds.leased > 0, "{name}: the oracle policed nothing");
    }
}

/// (e′) **Thrifty rounds on both sides.** p0 and p2 each learn a quorum
/// with p1 in it while p2 cannot reach p0; then every link is open. p0's
/// lease, minted at 10 µs, renews from rounds that go to p0 and p1 only —
/// p2's replica holds no grant after the first — and p2's write at 3.3 ms
/// goes to p2 and p1 only: it never reaches the holder, so p0's own
/// replica cannot retire the lease, and p2's replica acknowledges at once.
/// What keeps p0's zero-round reads fresh is p1 alone, the one replica
/// both majorities share, parking its acknowledgement until its grant to
/// p0 expires. (The renewal p0 sends at its renew point, ≈ 3.9 ms, meets
/// the new tag at p1 fenced behind p2's own grants there, so p1 does not
/// grant and the renewal waits for a replier that does: the lease serves
/// on to its horizon, ≈ 4.1 ms, and the read invoked at 4.4 ms queues
/// behind the renewal. Once p2's grants at p1 expired, a retransmission
/// hears the new tag granted, the renewal writes it back — no lease
/// serves by then — and the read is served by the lease it mints.) (Red
/// when the replica fence in `Replica::on_message` is removed: the write
/// completes inside the lease, and p0 goes on serving the old value.)
#[test]
fn a_foreign_writers_thrifty_round_that_misses_the_holder_is_still_fenced() {
    const MINT: u64 = 3_000;
    const WRITE: u64 = 3_300;
    const HOLD: u64 = LEASE_MICROS + LEASE_MICROS / 4;
    for (factory, name, check) in leased_flavors(LEASE_MICROS) {
        let mut rounds = ReadRounds::default();
        for seed in 0..SEEDS {
            let p0_reads = [10, MINT, 3_450, 3_600, 3_900, 4_400, 8_000];
            let schedule = Schedule::new()
                // While p2 cannot reach p0, both learn a quorum with p1.
                .at(0, PlannedEvent::Block(p(2), p(0)))
                .at(10, PlannedEvent::Invoke(p(2), Op::Read))
                .at(2_500, PlannedEvent::Unblock(p(2), p(0)))
                .at(WRITE, PlannedEvent::Invoke(p(2), Op::Write(v(1))));
            let schedule = p0_reads.iter().fold(schedule, |schedule, &at| {
                schedule.at(at, PlannedEvent::Invoke(p(0), Op::Read))
            });
            let mut sim = Simulation::new(jittery(), factory.clone(), seed).with_schedule(schedule);
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            assert_eq!(completed(&report), 9, "{what}: all ops complete");
            let ops = adjudicate(&report, &what, check, &mut rounds);
            let at = |pid, invoked| planted(&ops, pid, invoked);
            let write = at(p(2), WRITE);
            assert!(
                write.completed_at > MINT + HOLD,
                "{what}: the write completed at {} µs, under p0's grant at p1",
                write.completed_at
            );
            let reads = reads_of(&ops, p(0));
            let leased_during_write = reads.iter().filter(|&&(invoked, _, leased)| {
                (WRITE..write.completed_at).contains(&invoked) && leased
            });
            assert!(
                leased_during_write.count() >= 3,
                "{what}: p0 must serve under its lease while the write is out: {reads:?}"
            );
            // The read invoked at 4.4 ms begins when the renewal mints.
            let queued = reads.iter().find(|&&(invoked, ..)| invoked > 3_900);
            assert_eq!(
                queued.map(|&(_, version, leased)| (version, leased)),
                Some((1, true)),
                "{what}: the renewal's mint serves the read behind it: {reads:?}"
            );
            assert!(
                matches!(at(p(0), 8_000).kind, FreshnessKind::Read { version: 1, .. }),
                "{what}: the write is read once through"
            );
        }
        assert!(rounds.leased > 0, "{name}: the oracle policed nothing");
    }
}

/// (f) A foreign writer against a holder that **renews every term**: p0
/// reads without pause, so its lease is in use at every horizon and the
/// replicas are never without an open grant to it. A write through p1
/// must still finish within two holds — a parked acknowledgement waits
/// for the grants issued before it parked, not for the holder to go
/// quiet. (Red when `Replica::release_ready` compares a waiter's fence
/// against the grants issued *so far* instead of the count it parked
/// with: the writer starves for as long as p0 keeps reading.)
#[test]
fn a_holder_that_renews_every_term_does_not_starve_a_foreign_writer() {
    const HOLD: u64 = LEASE_MICROS + LEASE_MICROS / 4;
    for (factory, name, check) in leased_flavors(LEASE_MICROS) {
        let mut rounds = ReadRounds::default();
        for seed in 0..SEEDS {
            let mut sim = Simulation::new(jittery(), factory.clone(), seed);
            sim.add_closed_loop(ClosedLoop::reads(p(0), 100).with_think(Micros(150)));
            sim.add_closed_loop(versioned_writer(p(1), 5, Micros(300)));
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            assert_eq!(completed(&report), 105, "{what}: all ops complete");
            adjudicate(&report, &what, check, &mut rounds);
            let slowest = report.trace.latencies(OpKind::Write).into_iter().max();
            assert!(
                slowest.is_some_and(|l| l < 2 * HOLD + 1_000),
                "{what}: a foreign write waited {slowest:?} µs behind a renewing holder"
            );
        }
        assert!(rounds.leased > 0, "{name}: the oracle policed nothing");
    }
}

/// (g) Clients arriving **during a renewal**. p0's lease, in use, renews
/// at its renew points (1 322 µs, 2 634 µs, …, 7/8 into each term) with a
/// read round nobody waits for, and serves on while it is out. A read
/// invoked while the first is out is served by the lease, in zero rounds,
/// and a write invoked while the second is out is not refused: it waits
/// for the mint and begins under it, one round. Use earns idle periods:
/// the minting read leaves three, and each of the three reads served and
/// the write's hand-on adds one. So after the last invocation the lease
/// is renewed once for the write that handed it on and six times more
/// for the unused periods its allowance of seven covers, and lapses at
/// the seventh: six terms on it still renews, within seven the cluster
/// has sent its last message. (Red when a renewal mints a lease that
/// starts *used*: it renews for ever.)
#[test]
fn a_renewal_serves_who_arrives_meanwhile_and_an_idle_cluster_goes_quiet() {
    const RENEW: u64 = LEASE_MICROS - LEASE_MICROS / 8;
    const READ: u64 = RENEW + 10 + 140;
    const WRITE: u64 = 2 * RENEW + 10 + 90;
    for (factory, name, check) in leased_flavors(LEASE_MICROS) {
        let mut rounds = ReadRounds::default();
        for seed in 0..SEEDS {
            let run_until = |quiet_terms: u64| {
                let schedule = Schedule::new()
                    .at(10, PlannedEvent::Invoke(p(0), Op::Read))
                    .at(500, PlannedEvent::Invoke(p(0), Op::Read))
                    .at(READ, PlannedEvent::Invoke(p(0), Op::Read))
                    .at(2_200, PlannedEvent::Invoke(p(0), Op::Read))
                    .at(WRITE, PlannedEvent::Invoke(p(0), Op::Write(v(1))));
                let mut sim =
                    Simulation::new(jittery(), factory.clone(), seed).with_schedule(schedule);
                sim.wake_at(VirtualTime(WRITE + quiet_terms * LEASE_MICROS));
                sim.run()
            };
            let report = run_until(7);
            let what = format!("{name}/seed {seed}");
            assert_eq!(completed(&report), 5, "{what}: all ops complete");
            adjudicate(&report, &what, check, &mut rounds);
            let at = |invoked: u64| {
                let ops = report.trace.operations();
                let started = |o: &&rmem_sim::OpRecord| o.invoked_at.as_micros() == invoked;
                ops.iter().find(started).expect("planted").clone()
            };
            let meanwhile = at(READ);
            assert!(
                meanwhile.rounds == 0 && meanwhile.latency() == Some(Micros(0)),
                "{what}: the lease did not serve the read while it renewed: {meanwhile:?}"
            );
            let ops = report.trace.operations();
            let write = ops
                .iter()
                .find(|o| o.kind == OpKind::Write)
                .expect("planted");
            assert_eq!(write.result, Some(OpResult::Written), "{what}: refused");
            assert_eq!(write.rounds, 1, "{what}: it begins under the renewed lease");
            assert!(
                write.invoked_at.as_micros() > WRITE,
                "{what}: it began on arrival, not when the renewal minted"
            );
            assert_ne!(
                run_until(6).trace.messages_sent,
                report.trace.messages_sent,
                "{what}: the lease lapsed before its allowance was spent"
            );
            assert_eq!(
                run_until(20).trace.messages_sent,
                report.trace.messages_sent,
                "{what}: something still renews seven terms after the last invocation"
            );
        }
        assert!(rounds.leased > 0, "{name}: the oracle policed nothing");
    }
}

/// (h) A renewal's replies may be **older than a read that waits for
/// it**. p0 and p1 cannot hear each other; p2 hears both. p0's lease on ⊥
/// is in use, so at its renew point (8 ms) a renewal goes out — and p2
/// answers it with p1's first write, 48 KiB that have just landed there
/// and take 3.9 ms to come back. Meanwhile the lease reaches its horizon
/// (8.5 ms), that write completes, p1's second write completes, and only
/// then is a read invoked at p0: leaseless, it waits behind the round
/// still waiting, and the history has it begin when that round is
/// through. What p2 said is older than a write that completed before
/// this read was invoked, and it came without a grant: the renewal
/// counts it as not heard from. At its own horizon (12 ms) the renewal
/// goes again from a fresh stamp, to everyone; p0's replica (⊥) and p2
/// (the second write, granted) disagree, no lease serves any more, so it
/// writes the second write back and mints on it — and the read is served
/// that, in zero rounds. (Red when a lease whose renewal is out outlives
/// its horizon until the round returns: the read is served ⊥ after both
/// writes completed. A granted quorum is different — its grants fence
/// every foreign tag above what each replier reported from the moment it
/// was sent — and a read queued behind one is served by the lease it
/// mints.)
#[test]
fn a_read_behind_a_renewal_is_not_served_from_replies_older_than_itself() {
    const LEASE: u64 = 4_000;
    const MINT: u64 = 4_500;
    const RENEWAL: u64 = MINT + LEASE - LEASE / 8;
    const SECOND: u64 = 10_000;
    const WAITS: u64 = 11_000;
    let big = Value::new(vec![7u8; 48 * 1024]);
    let last = version_of(&big) + 1;
    // No retransmission within the run: the renewal waiting past p2's
    // late, grant-less first reply goes again only at its own horizon.
    for (factory, name, check) in patient_leased_flavors(LEASE, Micros(50_000)) {
        // The 48 KiB reach p2 in the 1.8 ms before the renewal does, so
        // they are not on its disk yet: it answers without a grant.
        let first = if name == "transient" { 2_800 } else { 1_000 };
        for seed in 0..SEEDS {
            let schedule = Schedule::new()
                .at(0, PlannedEvent::Block(p(0), p(1)))
                .at(0, PlannedEvent::Block(p(1), p(0)))
                .at(MINT, PlannedEvent::Invoke(p(0), Op::Read))
                .at(MINT + 400, PlannedEvent::Invoke(p(0), Op::Read))
                .at(first, PlannedEvent::Invoke(p(1), Op::Write(big.clone())))
                .at(
                    SECOND,
                    PlannedEvent::Invoke(p(1), Op::Write(v(last as u32))),
                )
                .at(WAITS, PlannedEvent::Invoke(p(0), Op::Read));
            let mut sim = Simulation::new(jittery(), factory.clone(), seed).with_schedule(schedule);
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            assert_eq!(completed(&report), 5, "{what}: all ops complete");
            let ops = adjudicate(&report, &what, check, &mut ReadRounds::default());
            let at = |pid, invoked| planted(&ops, pid, invoked);
            assert!(
                at(p(1), first).completed_at < SECOND && at(p(1), SECOND).completed_at < WAITS,
                "{what}: both writes must be through before the read is invoked"
            );
            let waited = ops
                .iter()
                .find(|&&(pid, op)| pid == p(0) && op.invoked_at >= WAITS);
            let (_, waited) = waited.expect("planted");
            assert!(
                waited.completed_at > RENEWAL + LEASE,
                "{what}: the read must have waited for the renewal to go again"
            );
            assert_eq!(
                waited.kind,
                FreshnessKind::Read {
                    version: last,
                    leased: true
                },
                "{what}: served by what the second renewal minted"
            );
        }
    }
}

/// The lease term of shapes (i), (j) and (j′): long enough that a
/// renewal's round trip fits between its renew point and the horizon it
/// renews, so the old lease visibly serves while the renewal is out.
const OVERLAP_LEASE: u64 = 4_000;

/// [`OVERLAP_LEASE`]'s renew point, 7/8 into its term.
const OVERLAP_RENEW: u64 = OVERLAP_LEASE - OVERLAP_LEASE / 8;

/// p0's reads in a run: `(invoked, version, leased)`, in invocation order.
fn reads_of(ops: &[(ProcessId, FreshnessOp)], pid: ProcessId) -> Vec<(u64, u64, bool)> {
    let mut reads: Vec<_> = ops
        .iter()
        .filter(|(by, _)| *by == pid)
        .filter_map(|(_, op)| match op.kind {
            FreshnessKind::Read { version, leased } => Some((op.invoked_at, version, leased)),
            FreshnessKind::Write { .. } => None,
        })
        .collect();
    reads.sort_unstable();
    reads
}

/// (i) A foreign write lands at **one granting replica between the mint
/// and the renew point**. p0 mints at 10 µs from itself and p1 — nothing
/// p2 sends reaches p0 — and reads on; p2's write at 1 ms goes to p2 and
/// p1 and parks at both behind p0's grants. At the renew point, 7/8 into
/// the term, p0's renewal hears ⊥ from its own replica and the new tag
/// from p1 — both granted, and they disagree — so it cannot mint. The
/// old lease serves on to its own horizon, while the write still waits
/// for its grants, and not past it: the next read asks the quorum and
/// writes the new tag back. (Red when a renewal whose repliers all
/// granted extends the lease it renews though they disagree: p0 serves ⊥
/// after the write completed.)
#[test]
fn a_foreign_write_at_one_granting_replica_leaves_the_old_lease_to_its_horizon() {
    const MINT: u64 = 10;
    const WRITE: u64 = 1_000;
    const HORIZON: u64 = MINT + OVERLAP_LEASE;
    const HOLD: u64 = OVERLAP_LEASE + OVERLAP_LEASE / 4;
    for (factory, name, check) in leased_flavors(OVERLAP_LEASE) {
        let mut rounds = ReadRounds::default();
        for seed in 0..SEEDS {
            let schedule = Schedule::new()
                .at(0, PlannedEvent::Block(p(2), p(0)))
                .at(WRITE, PlannedEvent::Invoke(p(2), Op::Write(v(1))));
            let mut sim = Simulation::new(jittery(), factory.clone(), seed).with_schedule(schedule);
            let reader = ClosedLoop::reads(p(0), 80).with_think(Micros(90));
            sim.add_closed_loop(reader.with_start_after(Micros(MINT)));
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            assert_eq!(completed(&report), 81, "{what}: all ops complete");
            let ops = adjudicate(&report, &what, check, &mut rounds);
            let write = planted(&ops, p(2), WRITE);
            assert!(
                write.completed_at > MINT + HOLD,
                "{what}: the write completed at {} µs, under p0's grants",
                write.completed_at
            );
            let reads = reads_of(&ops, p(0));
            let renewal_back = MINT + OVERLAP_RENEW + 400;
            assert!(
                (reads.iter()).any(|&(at, version, leased)| {
                    (renewal_back..HORIZON).contains(&at) && version == 0 && leased
                }),
                "{what}: the old lease must serve after its renewal failed: {reads:?}"
            );
            let past = reads
                .iter()
                .find(|&&(at, ..)| at >= HORIZON)
                .expect("read on");
            assert!(
                !past.2,
                "{what}: the first read past the horizon asks the quorum: {past:?}"
            );
            assert!(
                (reads.iter()).all(|&(at, version, _)| at < HORIZON || version == 1),
                "{what}: ⊥ served past the horizon: {reads:?}"
            );
        }
        assert!(rounds.leased > 0, "{name}: the oracle policed nothing");
    }
}

/// The setting of shapes (j) and (j′): p0 never hears itself, and p1
/// does not hear p0 while its first round — a write of `first` at 10 µs
/// — collects its quorum. So p1's rounds go to p1 and p2 only, and p0's
/// to p1 and p2 (p0's own replica never answers it). With no
/// retransmission within the run, nothing p1 writes after that first
/// round reaches p0's replica, which never retires p0's lease: only a
/// renewal can move it. (A read would teach p1 its quorum too, but leave
/// p1's own grants fencing its next write from p0 for a hold.)
fn deaf_holder_and_thrifty_writer(first: Value) -> Schedule {
    Schedule::new()
        .at(0, PlannedEvent::Block(p(0), p(0)))
        .at(0, PlannedEvent::Block(p(0), p(1)))
        .at(10, PlannedEvent::Invoke(p(1), Op::Write(first)))
        .at(900, PlannedEvent::Unblock(p(0), p(1)))
}

/// (j) The foreign write reaches **the whole renewal quorum**. p0 mints
/// version 1 at 1 ms from p1 and p2 and reads on; p1's write of version 2
/// at 2 ms lands at p1 and p2 and parks at both behind p0's grants. At the
/// renew point the renewal hears the new tag from both, granted: it mints
/// on the new tag, before the old lease's horizon, and the lease moves —
/// the old value is served while the renewal is out and never after. The
/// write completes once the grants it parked behind expire, under the
/// moved lease. (Red when a renewal's mint on a newer tag keeps the old
/// lease's value: p0 serves version 1 under the new tag after the write
/// of version 2 completed.)
#[test]
fn a_foreign_write_at_the_whole_renewal_quorum_moves_the_lease() {
    const MINT: u64 = 1_000;
    const WRITE: u64 = 2_000;
    const HORIZON: u64 = MINT + OVERLAP_LEASE;
    // p1's write parks for over a term: it must not retransmit to p0.
    for (factory, name, check) in patient_leased_flavors(OVERLAP_LEASE, Micros(50_000)) {
        let mut rounds = ReadRounds::default();
        for seed in 0..SEEDS {
            let schedule = deaf_holder_and_thrifty_writer(v(1))
                .at(WRITE, PlannedEvent::Invoke(p(1), Op::Write(v(2))));
            let mut sim = Simulation::new(jittery(), factory.clone(), seed).with_schedule(schedule);
            let reader = ClosedLoop::reads(p(0), 120).with_think(Micros(60));
            sim.add_closed_loop(reader.with_start_after(Micros(MINT)));
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            assert_eq!(completed(&report), 122, "{what}: all ops complete");
            let ops = adjudicate(&report, &what, check, &mut rounds);
            let reads = reads_of(&ops, p(0));
            let renew = MINT + OVERLAP_RENEW;
            assert!(
                (reads.iter()).any(|&(at, version, leased)| at > renew && version == 1 && leased),
                "{what}: the old lease must serve while its renewal is out: {reads:?}"
            );
            let moved = (reads.iter()).position(|&(_, version, leased)| version == 2 && leased);
            let moved = moved.unwrap_or_else(|| panic!("{what}: the lease never moved: {reads:?}"));
            assert!(
                reads[moved].0 < HORIZON,
                "{what}: the lease moved only after the old horizon: {reads:?}"
            );
            assert!(
                reads[moved..].iter().all(|&(_, version, _)| version == 2),
                "{what}: the old value served after the lease moved: {reads:?}"
            );
            let write = planted(&ops, p(1), WRITE);
            assert!(
                write.completed_at > reads[moved].0,
                "{what}: the write must still be parked when the lease moves"
            );
        }
        assert!(rounds.leased > 0, "{name}: the oracle policed nothing");
    }
}

/// (j′) **A renewed lease dies one term after its renewal left**, however
/// late the replies come back. In the setting of (j) the register holds
/// 36 KiB, which take 3 ms to come back in every reply. p0 mints at 6.5 ms
/// and reads in the first two renewal periods only: its lease renews at
/// 10 ms and 13.5 ms for that use and at 17 ms and 20.5 ms for the idle
/// allowance, and the renew point at 24 ms finds three idle periods. The
/// last lease serves on to its horizon, 24.5 ms, one term after its
/// renewal left — though that renewal's replies came back only at
/// ≈ 23.7 ms. p1's small write at 21 ms parks behind that renewal's
/// grants and completes when they expire, ≈ 26.7 ms; p0, reading again
/// from 24.05 ms, is served the 36 KiB from the lease and then must be
/// shown the small write. (Red when a renewal's lease is clocked from its
/// last ack instead: it serves the 36 KiB until ≈ 27.7 ms, past the small
/// write's completion.)
#[test]
fn a_renewed_lease_dies_one_term_after_its_renewal_left() {
    const MINT: u64 = 6_500;
    const SMALL: u64 = MINT + 4 * OVERLAP_RENEW + 500;
    const LAPSED: u64 = MINT + 5 * OVERLAP_RENEW;
    const HORIZON: u64 = MINT + 4 * OVERLAP_RENEW + OVERLAP_LEASE;
    let big = Value::new(vec![7u8; 36 * 1024]);
    let last = version_of(&big) + 1;
    for (factory, name, check) in patient_leased_flavors(OVERLAP_LEASE, Micros(50_000)) {
        let mut rounds = ReadRounds::default();
        for seed in 0..SEEDS {
            // p0 mints once the 36 KiB are through.
            let setting = deaf_holder_and_thrifty_writer(big.clone())
                .at(SMALL, PlannedEvent::Invoke(p(1), Op::Write(v(last as u32))));
            // One read in each of the first two renewal periods: the
            // minted lease's, and its first renewal's, while the lease it
            // renews still serves.
            let schedule = [MINT, MINT + 3_350, MINT + 3_700]
                .iter()
                .fold(setting, |schedule, &at| {
                    schedule.at(at, PlannedEvent::Invoke(p(0), Op::Read))
                });
            let mut sim = Simulation::new(jittery(), factory.clone(), seed).with_schedule(schedule);
            let reader = ClosedLoop::reads(p(0), 80).with_think(Micros(60));
            sim.add_closed_loop(reader.with_start_after(Micros(LAPSED + 50)));
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            assert_eq!(completed(&report), 85, "{what}: all ops complete");
            let ops = adjudicate(&report, &what, check, &mut rounds);
            let reads = reads_of(&ops, p(0));
            let after = reads
                .iter()
                .find(|&&(at, ..)| at > LAPSED)
                .expect("read on");
            assert_eq!(
                (after.1, after.2),
                (last - 1, true),
                "{what}: the lease must outlive its last renew point: {reads:?}"
            );
            let small = planted(&ops, p(1), SMALL);
            assert!(
                small.completed_at > HORIZON,
                "{what}: the small write must complete after the lease's horizon, at {}",
                small.completed_at
            );
            assert!(
                (reads.iter()).any(|&(_, version, _)| version == last),
                "{what}: p0 never read the small write: {reads:?}"
            );
        }
        assert!(rounds.leased > 0, "{name}: the oracle policed nothing");
    }
}

/// (k) A renewal whose quorum holds **the replica a thrifty put skipped**
/// writes back before it mints. p0 mints on ⊥ from itself and p2, so its
/// write of version 1 goes to p0 and p2 only: p1 never sees it. p1 then
/// writes version 2, and every message it sends after its query round is
/// lost, so version 2 sits at p1 alone (and stays there: no round
/// retransmits within the run). p0's lease renews from p0 and p2 until p2
/// goes silent; the renewal that meets the silence waits out its own
/// horizon — its lease ends meanwhile and p0's reads queue — and goes
/// again to everyone: p0 answers version 1 and p1 version 2, both
/// granted. The best tag is on no majority, so the renewal writes it back
/// and mints on it once that is through, and the queued reads are served
/// version 2. Then p2, hearing only itself and p0, reads: p0's replica
/// holds version 2 and the read must return it. (Red when a renewal whose
/// granting repliers disagree mints at once instead of writing back: p0
/// serves version 2 from a replica set that never held it, and p2's
/// quorum of p2 and p0 agrees on version 1 afterwards.)
#[test]
fn a_renewal_that_hears_the_replica_a_thrifty_put_skipped_writes_back_before_it_mints() {
    const PUT: u64 = 1_000;
    const FOREIGN: u64 = 5_000;
    const SILENT: u64 = 6_500;
    const RETRY: u64 = 3_510 + OVERLAP_RENEW + OVERLAP_LEASE;
    const READ: u64 = 12_000;
    let p1_out = [(p(1), p(0)), (p(1), p(2))];
    for (factory, name, check) in patient_leased_flavors(OVERLAP_LEASE, Micros(50_000)) {
        let mut rounds = ReadRounds::default();
        for seed in 0..SEEDS {
            let schedule = Schedule::new()
                // p0's first quorum is p0 and p2; its put goes there.
                .at(0, PlannedEvent::Block(p(1), p(0)))
                .at(10, PlannedEvent::Invoke(p(0), Op::Read))
                .at(500, PlannedEvent::Unblock(p(1), p(0)))
                .at(PUT, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
                // p1's query round gets through, its `Write` does not.
                .at(FOREIGN, PlannedEvent::Invoke(p(1), Op::Write(v(2))))
                .at(SILENT, PlannedEvent::Block(p(2), p(0)))
                .at(READ - 500, PlannedEvent::Unblock(p(2), p(0)))
                .at(READ, PlannedEvent::Invoke(p(2), Op::Read));
            let schedule = p1_out.iter().fold(schedule, |schedule, &(from, to)| {
                schedule.at(FOREIGN + 50, PlannedEvent::Block(from, to))
            });
            // p1 is heard again by p0 before the retry, never by p2.
            let schedule = schedule.at(SILENT, PlannedEvent::Unblock(p(1), p(0)));
            let mut sim = Simulation::new(jittery(), factory.clone(), seed).with_schedule(schedule);
            let reader = ClosedLoop::reads(p(0), 60).with_think(Micros(200));
            sim.add_closed_loop(reader.with_start_after(Micros(PUT + 500)));
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            assert_eq!(completed(&report), 64, "{what}: all ops complete");
            let ops = adjudicate(&report, &what, check, &mut rounds);
            let reads = reads_of(&ops, p(0));
            let queued = reads.iter().find(|&&(invoked, ..)| invoked > RETRY);
            assert_eq!(
                queued.map(|&(_, version, leased)| (version, leased)),
                Some((2, true)),
                "{what}: the retried renewal's mint serves version 2: {reads:?}"
            );
            assert!(
                (reads.iter()).all(|&(invoked, version, _)| invoked < RETRY || version == 2),
                "{what}: {reads:?}"
            );
            let theirs = planted(&ops, p(2), READ);
            assert!(
                matches!(theirs.kind, FreshnessKind::Read { version: 2, .. }),
                "{what}: p2 read {:?}",
                theirs.kind
            );
        }
        assert!(rounds.leased > 0, "{name}: the oracle policed nothing");
    }
}

/// (l) A renewal **skips a replier that cannot grant**, and the newer
/// foreign tag that replier holds stays fenced past the horizon of the
/// lease the renewal mints. p0 mints on ⊥ from itself and p1 at 10 µs
/// and reads on; p1 reads at 2 ms (so every replica holds a grant to p1)
/// and then writes version 1 under its own lease, its `Write` reaching
/// only its own replica. At p0's renew point (3.5 ms) the renewal asks p0
/// and p1: p1 reports version 1, fenced there behind its own grants, so
/// it does not grant — and the renewal counts it as not heard from. p1
/// goes silent towards p0, the old lease ends at its horizon (4 ms) with
/// reads queued behind the renewal, and the renewal's retransmission
/// (5.5 ms) hears p2, still on ⊥ and granting: it mints on ⊥ under its
/// 3.5 ms stamp and serves what waited. p1's `Write` reaches p2 only
/// after that, parks behind p2's new grant to p0 and completes after the
/// renewed lease's horizon (7.5 ms). (Red when a renewal counts a reply
/// without a grant towards its majority: it mints at once from p0's own
/// grant, no replica but p0 fences for it, and p1's write completes at
/// p1 and p2 while p0 still serves ⊥.)
#[test]
fn a_renewal_skips_a_replier_that_cannot_grant_and_its_newer_tag_stays_fenced() {
    const RENEW: u64 = 10 + OVERLAP_RENEW;
    const HORIZON: u64 = RENEW + OVERLAP_LEASE;
    const THEIRS: u64 = 2_600;
    for (factory, name, check) in leased_flavors(OVERLAP_LEASE) {
        let mut rounds = ReadRounds::default();
        for seed in 0..SEEDS {
            let schedule = Schedule::new()
                // p0's first quorum is p0 and p1.
                .at(0, PlannedEvent::Block(p(2), p(0)))
                .at(10, PlannedEvent::Invoke(p(0), Op::Read))
                .at(500, PlannedEvent::Unblock(p(2), p(0)))
                .at(2_000, PlannedEvent::Invoke(p(1), Op::Read))
                // p1's `Write` stays at p1; p0 hears p1 only around its
                // renew point, p2 only once the renewal minted.
                .at(THEIRS - 100, PlannedEvent::Block(p(1), p(0)))
                .at(THEIRS - 100, PlannedEvent::Block(p(1), p(2)))
                .at(THEIRS, PlannedEvent::Invoke(p(1), Op::Write(v(1))))
                .at(RENEW - 500, PlannedEvent::Unblock(p(1), p(0)))
                .at(RENEW + 500, PlannedEvent::Block(p(1), p(0)))
                .at(6_000, PlannedEvent::Unblock(p(1), p(2)))
                .at(20_000, PlannedEvent::Unblock(p(1), p(0)));
            let mut sim = Simulation::new(jittery(), factory.clone(), seed).with_schedule(schedule);
            let reader = ClosedLoop::reads(p(0), 80).with_think(Micros(200));
            sim.add_closed_loop(reader.with_start_after(Micros(600)));
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            assert_eq!(completed(&report), 83, "{what}: all ops complete");
            let ops = adjudicate(&report, &what, check, &mut rounds);
            let reads = reads_of(&ops, p(0));
            assert!(
                (reads.iter()).any(|&(invoked, version, leased)| {
                    (RENEW + OVERLAP_LEASE / 8..HORIZON).contains(&invoked)
                        && version == 0
                        && leased
                }),
                "{what}: the renewal must mint on ⊥ and serve past the old horizon: {reads:?}"
            );
            let theirs = planted(&ops, p(1), THEIRS);
            assert!(
                theirs.completed_at > HORIZON,
                "{what}: p1's write completed at {} µs, under the renewed lease",
                theirs.completed_at
            );
            assert!(
                (reads.iter()).any(|&(_, version, _)| version == 1),
                "{what}: p0 never read p1's write: {reads:?}"
            );
        }
        assert!(rounds.leased > 0, "{name}: the oracle policed nothing");
    }
}

/// (m) **A write whose lease ran out under it renews**, and the read
/// queued behind it is served by that renewal — never something older
/// than a write that completed first. p0 mints at 10 µs (horizon
/// 1 510 µs) and at 1 ms writes under that lease, but the first send of
/// its `Write` to p1 and p2 is lost: it completes only on the
/// retransmission, 2 ms on, with the horizon past. Meanwhile p2, which p0
/// does not hear, writes a newer tag through p1 and completes once p0's
/// grants expire, and then a read is invoked at p0: it queues behind p0's
/// write. That write completes with nothing to hand on and renews at
/// once; the renewal's quorum — p0 with its own tag and p1 with p2's
/// newer one — disagrees, no lease serves, so it writes p2's tag back and
/// mints on it, and the queued read is served that, in zero rounds. (Red
/// without the line in `on_timer` that marks an armed lease's horizon as
/// fired: the write hands on a lease whose horizon is spent, and the
/// queued read is served p0's version after p2's newer one completed.)
#[test]
fn a_write_whose_lease_ran_out_under_it_renews_and_serves_what_waited() {
    const WRITE: u64 = 1_000;
    const FOREIGN: u64 = 1_600;
    const WAITS: u64 = 2_900;
    for (factory, name, check) in leased_flavors(LEASE_MICROS) {
        for seed in 0..SEEDS {
            let lost = [(p(0), p(1)), (p(0), p(2))];
            let schedule = Schedule::new()
                .at(0, PlannedEvent::Block(p(2), p(0)))
                .at(10, PlannedEvent::Invoke(p(0), Op::Read))
                .at(500, PlannedEvent::Invoke(p(0), Op::Read))
                .at(WRITE, PlannedEvent::Invoke(p(0), Op::Write(v(1))))
                .at(FOREIGN, PlannedEvent::Invoke(p(2), Op::Write(v(2))))
                .at(WAITS, PlannedEvent::Invoke(p(0), Op::Read))
                .at(12_000, PlannedEvent::Invoke(p(0), Op::Read));
            let schedule = lost.iter().fold(schedule, |schedule, &(from, to)| {
                schedule
                    .at(WRITE - 50, PlannedEvent::Block(from, to))
                    .at(FOREIGN - 100, PlannedEvent::Unblock(from, to))
            });
            let mut sim = Simulation::new(jittery(), factory.clone(), seed).with_schedule(schedule);
            let report = sim.run();
            let what = format!("{name}/seed {seed}");
            assert_eq!(completed(&report), 6, "{what}: all ops complete");
            let ops = adjudicate(&report, &what, check, &mut ReadRounds::default());
            let at = |pid, invoked| planted(&ops, pid, invoked);
            let (mine, theirs) = (at(p(0), WRITE), at(p(2), FOREIGN));
            assert!(
                mine.completed_at > 10 + LEASE_MICROS && theirs.completed_at < WAITS,
                "{what}: p0's write must straddle its horizon, p2's be through first"
            );
            let waited = ops
                .iter()
                .find(|&&(pid, op)| pid == p(0) && (WAITS..12_000).contains(&op.invoked_at));
            let (_, waited) = waited.expect("planted");
            assert!(waited.invoked_at >= mine.completed_at, "{what}: it queued");
            assert_eq!(
                waited.kind,
                FreshnessKind::Read {
                    version: 2,
                    leased: true
                },
                "{what}: served by the renewal the write sent"
            );
        }
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
