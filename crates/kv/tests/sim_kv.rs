//! End to end in virtual time: **real** store clients hosted in the
//! simulator (`rmem_kv::host`) — skewed traffic, `multi_*` calls, node
//! crashes and recoveries, a live split — certified atomic per key from
//! the history the clients' own recorder kept. Everything here is a
//! function of its seed: a failure names the seed and replays.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_consistency::{check_freshness, Criterion, Event, FreshnessKind, FreshnessOp, History};
use rmem_core::{Flavor, Persistent, SharedMemory, Transient};
use rmem_kv::{
    certify_per_key_epoch_path, check_store_exactly_once, run_hosted, KvClient, KvError, KvOpStats,
    OpRecorder, Resolution, Script, ShardRouter, World,
};
use rmem_net::ClientError;
use rmem_sim::{ClusterConfig, KeyDistribution, PlannedEvent, Schedule, SimReport, Simulation};
use rmem_storage::{IntentJournal, MemStorage};
use rmem_types::{Op, OpKind, OpResult, ProcessId, RegisterId, Value};

const NODES: usize = 3;

/// Sleeps `micros` of virtual time: a wait on no ticket.
fn pause(world: &dyn World, micros: u64) {
    world.wait_any(&[], world.now() + Duration::from_micros(micros));
}

/// `at` µs: crash `node`; `down` µs later: recover it.
fn outage(at: u64, node: u16, down: u64) -> Schedule {
    Schedule::new()
        .at(at, PlannedEvent::Crash(ProcessId(node)))
        .at(at + down, PlannedEvent::Recover(ProcessId(node)))
}

fn sim(flavor: Flavor, seed: u64, schedule: Schedule) -> Simulation {
    Simulation::new(
        ClusterConfig::new(NODES),
        SharedMemory::factory(flavor),
        seed,
    )
    .with_schedule(schedule)
}

/// A value no other write of the run carries: what gives the atomicity
/// checkers discriminating power.
fn unique(client: u64, counter: u64) -> Bytes {
    Bytes::from(((client + 1) << 32 | counter).to_be_bytes().to_vec())
}

fn certify(history: &History, keys: &[String], path: &[u16], criterion: Criterion, what: &str) {
    let names = keys.iter().map(String::as_str);
    let cert = certify_per_key_epoch_path(history, names, path, criterion)
        .unwrap_or_else(|e| panic!("{what}: certification failed: {e}"));
    assert!(!cert.per_key.is_empty(), "{what}: traffic must touch keys");
}

/// A hosted traffic run: `clients` independent client families on
/// [`NODES`] simulated nodes, each making `calls` calls of `batch` store
/// operations (half puts; `batch` 1 is `get`/`put`, more is `multi_get` +
/// `multi_put`) over one key per shard, 200 µs of think time apart.
struct Load {
    flavor: Flavor,
    seed: u64,
    clients: u64,
    shards: u16,
    calls: usize,
    batch: usize,
    zipf: f64,
    schedule: Schedule,
}

struct Run {
    report: SimReport,
    history: History,
    stats: Vec<KvOpStats>,
    keys: Vec<String>,
}

impl Load {
    fn new(flavor: Flavor, seed: u64) -> Load {
        Load {
            flavor,
            seed,
            clients: 5,
            shards: 8,
            calls: 24,
            batch: 1,
            zipf: 0.99,
            schedule: Schedule::new(),
        }
    }

    fn run(&self) -> Run {
        let router = ShardRouter::new(self.shards);
        let keys = router.covering_keys("key-");
        let recorder = OpRecorder::new();
        let mut families = Vec::new();
        let sim = sim(self.flavor, self.seed, self.schedule.clone());
        let report = run_hosted(sim, |world| {
            for _ in 0..self.clients {
                let kv = KvClient::over(world.clone(), router);
                families.push(kv.with_recorder(recorder.clone()));
            }
            let script = |(client, kv): (u64, &KvClient)| {
                let (kv, world, keys) = (kv.clone(), world.clone(), &keys);
                Box::new(move || self.traffic(&kv, &*world, keys, client)) as Script
            };
            (0..).zip(&families).map(script).collect()
        });
        Run {
            report,
            history: recorder.history(),
            stats: families.iter().map(KvClient::stats).collect(),
            keys,
        }
    }

    fn traffic(&self, kv: &KvClient, world: &dyn World, keys: &[String], client: u64) {
        let mut rng = StdRng::seed_from_u64(self.seed * 31 + client);
        let dist = KeyDistribution::zipf(keys.len(), self.zipf);
        let mut counter = 0;
        for _ in 0..self.calls {
            let (mut gets, mut puts) = (Vec::new(), Vec::new());
            for _ in 0..self.batch {
                let key = keys[dist.sample(&mut rng)].as_str();
                if rng.gen_bool(0.5) {
                    counter += 1;
                    puts.push((key, unique(client, counter)));
                } else {
                    gets.push(key);
                }
            }
            let outcome = match (self.batch, &gets[..], &puts[..]) {
                (1, [key], _) => kv.get(key).map(|_| ()),
                (1, _, [(key, value)]) => kv.put(key, value.clone()),
                _ => (kv.multi_get(&gets).map(|_| ())).and_then(|()| kv.multi_put(&puts)),
            };
            // A minority outage never fails a call: it fails over.
            outcome.unwrap_or_else(|e| panic!("seed {}, client {client}: {e}", self.seed));
            pause(world, 200);
        }
    }
}

/// How many store operations `history` records as answered.
fn answered(history: &History) -> usize {
    let definite = |e: &&Event| matches!(e, Event::Reply { result, .. } if result.is_completed());
    history.events().iter().filter(definite).count()
}

/// The acceptance runs: ≥ 8 shards, 5 clients, `get`/`put` and `multi_*`
/// calls, crash-free and with a node crashing and recovering mid-traffic
/// at several points — certified atomic per key, each flavor under its own
/// criterion.
#[test]
fn store_runs_certify_per_key_with_and_without_a_crash() {
    for (flavor, criterion) in [
        (Persistent::flavor(), Criterion::Persistent),
        (Transient::flavor(), Criterion::Transient),
    ] {
        for (seed, crash) in [
            (5, None),
            (11, Some((8_000, 1, 4_000))),
            (1, Some((5_000, 1, 3_000))),
            (2, Some((9_000, 2, 3_000))),
            (3, Some((10_000, 0, 2_000))),
        ] {
            for (batch, calls) in [(1, 24), (8, 4)] {
                let what = format!("{} seed {seed} crash {crash:?} batch {batch}", flavor.name);
                let run = Load {
                    batch,
                    calls,
                    schedule: crash
                        .map_or_else(Schedule::new, |(at, node, down)| outage(at, node, down)),
                    ..Load::new(flavor, seed)
                }
                .run();
                if crash.is_some() {
                    assert_eq!(run.report.trace.crashes, 1, "{what}: the crash happened");
                    assert_eq!(run.report.trace.recoveries, 1, "{what}: and the recovery");
                }
                certify(&run.history, &run.keys, &[8], criterion, &what);
                if batch == 1 {
                    assert_eq!(answered(&run.history), 5 * 24, "{what}: one op per call");
                }
                assert!(run.history.pending_ops().is_empty(), "{what}");
                assert_eq!(
                    run.history.crash_count(),
                    0,
                    "{what}: failover, no crash record"
                );
            }
        }
    }
}

/// Uniform and Zipf traffic both complete every call of a crash-free run,
/// and not one operation is retried: clients racing a register through
/// one node wait their turn there.
#[test]
fn every_call_of_a_crash_free_run_completes() {
    for zipf in [0.0, 0.99] {
        let run = Load {
            clients: 4,
            shards: 12,
            calls: 15,
            zipf,
            ..Load::new(Persistent::flavor(), 3)
        }
        .run();
        assert_eq!(answered(&run.history), 4 * 15, "zipf {zipf}");
        // Four map syncs beside the sixty operations — and nothing else.
        let served = run.report.trace.operations();
        assert_eq!(served.iter().filter(|o| o.is_completed()).count(), 64);
        let retries: u64 = run.stats.iter().map(|s| s.retries).sum();
        assert_eq!(retries, 0, "zipf {zipf}");
        assert_eq!(run.report.trace.invokes_dropped, 0, "zipf {zipf}");
        assert!(
            run.report.trace.invokes_queued > 0,
            "zipf {zipf}: contended"
        );
    }
}

/// What `multi_*` costs, read off the simulator's own trace: a call is one
/// register operation per register it touches — its keys on one register
/// share one read round, its entries one composite write — however many
/// inputs it has. Sixteen inputs over four registers, written and read
/// back: 4 + 4 register operations, and the map sync.
#[test]
fn a_multi_key_call_is_one_register_operation_per_register() {
    let router = ShardRouter::new(4);
    let keys: Vec<String> = (0..16).map(|i| format!("k-{i}")).collect();
    let registers: std::collections::BTreeSet<u16> =
        keys.iter().map(|k| router.shard_of(k) + 1).collect();
    assert_eq!(registers.len(), 4, "sixteen keys cover four shards");
    let entries: Vec<(&str, Bytes)> = (0..)
        .zip(&keys)
        .map(|(i, k)| (&**k, unique(0, i)))
        .collect();
    let report = run_hosted(sim(Transient::flavor(), 9, Schedule::new()), |world| {
        let kv = KvClient::over(world, router);
        let (keys, entries) = (&keys, &entries);
        vec![Box::new(move || {
            kv.multi_put(entries).unwrap();
            let got = kv.multi_get(keys).unwrap();
            let wrote = entries.iter().map(|(_, v)| Some(v.clone()));
            assert_eq!(got, wrote.collect::<Vec<_>>());
            let stats = kv.stats();
            assert_eq!((stats.writes, stats.reads, stats.retries), (4, 4, 0));
        }) as Script]
    });
    let served = report.trace.operations();
    assert!(served.iter().all(|o| o.is_completed()));
    let on = |kind: OpKind| {
        let of_kind = served.iter().filter(move |o| o.kind == kind);
        of_kind
            .map(|o| o.operation.register().0)
            .collect::<Vec<_>>()
    };
    let data: Vec<u16> = registers.into_iter().collect();
    assert_eq!(on(OpKind::Write), data, "one composite write per register");
    assert_eq!(on(OpKind::Read)[0], 0, "the map sync");
    assert_eq!(on(OpKind::Read)[1..], data, "one read round per register");
    assert_eq!(served.len(), 9);
    let rounds = report.trace.rounds(OpKind::Read);
    assert_eq!(rounds, [1; 5], "each a single round on the fast path");
}

/// Seed-reproducible: the same seed twice gives the same recorded history
/// event for event, the same simulator counters and the same client
/// statistics — with five clients, `multi_*` calls and a node crash in the
/// run; another seed gives another run. A scheduling leak (two hosted
/// threads racing, a wall-clock read, an unseeded draw) shows here as a
/// flake long before it shows as a wrong verdict, so CI loops this test.
#[test]
fn a_hosted_run_is_a_function_of_its_seed() {
    let run = |seed| {
        let run = Load {
            batch: 4,
            calls: 6,
            schedule: outage(4_000, 1, 3_000),
            ..Load::new(Persistent::flavor(), seed)
        }
        .run();
        assert_eq!(run.report.trace.crashes, 1);
        certify(
            &run.history,
            &run.keys,
            &[8],
            Criterion::Persistent,
            "determinism",
        );
        (
            run.history,
            run.report.events_processed,
            run.report.final_time,
            run.stats,
            run.report.trace.invokes_queued,
        )
    };
    let (first, again, other) = (run(42), run(42), run(43));
    assert_eq!(first.1, again.1, "events processed");
    assert_eq!(first.2, again.2, "final time");
    assert_eq!(first.3, again.3, "client statistics");
    assert_eq!(
        first.4, again.4,
        "invocations that waited on their register"
    );
    assert!(first.4 > 0, "contention is part of it");
    assert!(first.0 == again.0, "the recorded histories differ");
    assert!(
        first.0 != other.0 && first.1 != other.1,
        "another seed, another run"
    );
}

/// A live 4 → 8 `grow` under traffic and a minority crash, hosted: three
/// clones of one client family (they share the grower's map cache — see
/// ROADMAP defect (f) for why not independent families) run Zipf `get`/
/// `put` traffic while the operator's clone preloads, then splits;
/// one node is down for a window overlapping the split. Certified across
/// epochs, the split committed, every barrier wait bounded.
fn grow_under_traffic(seed: u64) -> KvOpStats {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
    let victim = rng.gen_range(0..NODES as u16);
    let kill_at = rng.gen_range(5_000..35_000);
    let down_for = rng.gen_range(5_000..20_000);
    let grow_at = rng.gen_range(10_000..25_000);
    let keys = ShardRouter::new(4).covering_keys("rk-");
    let recorder = OpRecorder::new();
    let mut family = None;
    let sim = sim(Transient::flavor(), seed, outage(kill_at, victim, down_for));
    run_hosted(sim, |world| {
        let kv = KvClient::over(world.clone(), ShardRouter::new(4))
            .with_barrier_polls(4_096)
            .with_recorder(recorder.clone());
        let family = family.insert(kv);
        let keys = &keys;
        let operator = {
            let (kv, world) = (family.recorded_clone(), world.clone());
            Box::new(move || {
                for (i, key) in keys.iter().enumerate() {
                    kv.put(key, vec![0, i as u8]).unwrap();
                }
                pause(&*world, grow_at);
                let report = kv.grow(8).unwrap();
                assert_eq!((report.epoch, report.to_shards), (1, 8), "seed {seed}");
            }) as Script
        };
        let traffic = |t: u64| {
            let (kv, world) = (family.recorded_clone(), world.clone());
            let mut rng = StdRng::seed_from_u64(seed * 31 + t);
            Box::new(move || {
                let dist = KeyDistribution::zipf(keys.len(), 0.99);
                pause(&*world, 3_000);
                for counter in 0..50 {
                    let key = &keys[dist.sample(&mut rng)];
                    let outcome = match rng.gen_bool(0.5) {
                        true => kv.put(key, unique(t, counter)),
                        false => kv.get(key).map(|_| ()),
                    };
                    // The bounded-wait assertion: a barrier that never
                    // cleared would surface here — as would anything else;
                    // a minority outage fails no call.
                    if let Err(e) = outcome {
                        let stuck = matches!(e, KvError::Barrier { .. });
                        panic!("seed {seed}: {e} (barrier deadlock: {stuck})");
                    }
                    pause(&*world, rng.gen_range(0..300));
                }
            }) as Script
        };
        std::iter::once(operator)
            .chain((0..3).map(traffic))
            .collect()
    });
    let family = family.expect("set up");
    let map = family.shard_map();
    assert!(!map.is_migrating(), "seed {seed}: the split must commit");
    assert_eq!((map.shards, map.epoch), (8, 1), "seed {seed}");
    let what = format!("grow seed {seed}");
    certify(
        &recorder.history(),
        &keys,
        &[4, 8],
        Criterion::Transient,
        &what,
    );
    family.stats()
}

#[test]
fn a_live_split_under_hosted_traffic_and_a_crash_certifies_across_epochs() {
    let (mut waits, mut polls) = (0, 0);
    for seed in 1..=16 {
        let stats = grow_under_traffic(seed);
        waits += stats.barrier_waits;
        polls += stats.barrier_polls;
    }
    // Bounded wait, quantified: barriered writers clear in a handful of
    // polls, nowhere near the failure cap (which no run above hit).
    assert!(waits > 0, "some writer must have met the barrier");
    let mean = polls as f64 / waits as f64;
    assert!(
        mean < 64.0,
        "barriered writers poll a few times, got {mean:.1}"
    );
}

/// ROADMAP defect (f), as the host's first sweep over **independently
/// constructed** families found it: three traffic families and a grower
/// that share no map cache. A family that only ever *wrote* a moved key
/// since the split committed never reads a foreign stamp, keeps writing
/// the key's old home over the seal, and its acknowledged puts are lost to
/// everyone else. Asserts the correct behaviour; un-ignore with the fix
/// (and see `reshard_races` for the four-call real-runtime case).
#[test]
#[ignore = "ROADMAP defect (f)"]
fn independent_families_certify_across_another_familys_split() {
    // Of the first eight seeds, 2 and 7 lose an update on `key-1`.
    (1..=8).for_each(independent_families);
}

fn independent_families(seed: u64) {
    let keys = ShardRouter::new(4).covering_keys("key-");
    let recorder = OpRecorder::new();
    run_hosted(sim(Transient::flavor(), seed, Schedule::new()), |world| {
        let family =
            || KvClient::over(world.clone(), ShardRouter::new(4)).with_recorder(recorder.clone());
        let keys = &keys;
        let grower = {
            let (kv, world) = (family(), world.clone());
            Box::new(move || {
                pause(&*world, 4_000);
                kv.grow(8).unwrap();
            }) as Script
        };
        let traffic = |t: u64| {
            let (kv, world) = (family(), world.clone());
            let mut rng = StdRng::seed_from_u64(seed * 31 + t);
            Box::new(move || {
                let dist = KeyDistribution::zipf(keys.len(), 0.99);
                for counter in 0..30 {
                    let key = &keys[dist.sample(&mut rng)];
                    match rng.gen_bool(0.5) {
                        true => kv.put(key, unique(t, counter)).unwrap(),
                        false => drop(kv.get(key).unwrap()),
                    }
                    pause(&*world, rng.gen_range(0..300));
                }
            }) as Script
        };
        std::iter::once(grower).chain((0..3).map(traffic)).collect()
    });
    let what = format!("independent families, seed {seed}");
    certify(
        &recorder.history(),
        &keys,
        &[4, 8],
        Criterion::Transient,
        &what,
    );
}

/// A node crash in the middle of a `multi_put` fails the operations it
/// held over to the next node **under the invocations they already
/// carry**: the recorded history shows one invocation and one reply per
/// register, no crash record, nothing pending — while the simulator's
/// trace shows the two attempts the dead node took with it.
#[test]
fn a_node_crash_mid_multi_put_fails_over_under_the_same_invocation() {
    let router = ShardRouter::new(4);
    let keys = router.covering_keys("fo-");
    let recorder = OpRecorder::new();
    // The call goes out at 5 000 µs; a persistent write takes ≈ 800.
    let schedule = outage(5_100, 1, 4_000);
    let mut family = None;
    let report = run_hosted(sim(Persistent::flavor(), 6, schedule), |world| {
        let kv = KvClient::over(world.clone(), router).with_recorder(recorder.clone());
        let (kv, keys) = (family.insert(kv).clone(), &keys);
        vec![Box::new(move || {
            kv.sync_map().unwrap();
            pause(&*world, 5_000 - world.now().as_micros() as u64);
            let entries: Vec<(&str, Bytes)> = (0..)
                .zip(keys)
                .map(|(i, k)| (k.as_str(), unique(0, i)))
                .collect();
            kv.multi_put(&entries).unwrap();
            // Registers 1 and 4 are homed on the node that died.
            assert_eq!(kv.health_stats().marks, 2);
        }) as Script]
    });
    let history = recorder.history();
    assert_eq!(history.crash_count(), 0, "a failover is not a crash");
    assert!(history.pending_ops().is_empty());
    assert_eq!(
        history.events().len(),
        8,
        "one invocation, one reply per register"
    );
    assert_eq!(answered(&history), 4);
    assert_eq!(family.expect("set up").stats().retries, 2);
    let writes = report
        .trace
        .operations()
        .iter()
        .filter(|o| o.kind == OpKind::Write);
    let (done, lost): (Vec<_>, Vec<_>) = writes.partition(|o| o.is_completed());
    assert_eq!(
        (done.len(), lost.len()),
        (4, 2),
        "two attempts died with node 1"
    );
    assert!(lost.iter().all(|o| o.op.pid == ProcessId(1)));
    certify(&history, &keys, &[4], Criterion::Persistent, "failover");
}

/// An invocation queued behind another on its register is lost with its
/// node's crash: both tickets settle `ProcessDown` at the crash, and the
/// queued one never begins — not before the crash, not after the node
/// recovers.
#[test]
fn a_queued_invocation_is_lost_with_its_node() {
    let reg = RegisterId(5);
    // Both go out at 0 µs; a persistent write takes ≈ 800.
    let schedule = outage(300, 0, 2_000);
    let report = run_hosted(sim(Persistent::flavor(), 8, schedule), |world| {
        vec![Box::new(move || {
            let write = world.submit(0, Op::WriteAt(reg, Value::from_u32(1)));
            let read = world.submit(0, Op::ReadAt(reg));
            let patience = world.now() + Duration::from_secs(1);
            for ticket in [write.unwrap(), read.unwrap()] {
                let (_, settled) = world.wait_any(&[ticket], patience).unwrap();
                assert!(matches!(settled, Err(ClientError::ProcessDown)));
                assert_eq!(world.now(), Duration::from_micros(300), "at the crash");
            }
            pause(&*world, 5_000);
        }) as Script]
    });
    assert_eq!((report.trace.crashes, report.trace.recoveries), (1, 1));
    let ops = report.trace.operations();
    assert_eq!(ops.len(), 1, "only the write began: {ops:#?}");
    assert_eq!(ops[0].operation, Op::WriteAt(reg, Value::from_u32(1)));
    assert!(!ops[0].is_completed());
    assert_eq!(report.trace.invokes_queued, 1);
}

/// Defect (k), hosted: the virtual-time twin of `rmem-net`'s
/// `fastpath_kv::quiescent_read_rounds_drop_below_two`. Eight registers
/// written through node 0, one blocking call at a time, then three passes
/// of reads, each pass through the next node. Reads through the writer
/// take one round; a read through another node may meet the replica the
/// thrifty write left out and write back to it, at most once per
/// register. In virtual time the total is exact for the seed, so a
/// retransmission that widens a round cannot hide in it.
#[test]
fn quiescent_read_rounds_are_exact_in_virtual_time() {
    let report = run_hosted(sim(Transient::flavor(), 7, Schedule::new()), |world| {
        vec![Box::new(move || {
            let call = |node, op| {
                let ticket = world.submit(node, op).unwrap();
                let until = world.now() + Duration::from_secs(1);
                world.wait_any(&[ticket], until).unwrap().1.unwrap()
            };
            for reg in 0..8u16 {
                let value = Value::from_u32(u32::from(reg) + 1);
                call(0, Op::WriteAt(RegisterId(reg), value));
            }
            for pass in 0..3 {
                for reg in 0..8u16 {
                    let (read, rounds) = call(pass, Op::ReadAt(RegisterId(reg)));
                    let value = Value::from_u32(u32::from(reg) + 1);
                    assert_eq!(read, OpResult::ReadValue(value));
                    if pass == 0 {
                        assert_eq!(rounds, 1, "through the writer, register {reg}");
                    }
                }
            }
        }) as Script]
    });
    // Node 2 is the replica the writes left out: its pass writes back
    // every register, 24 + 8 — the real test's bound, with no slack.
    let rounds = report.trace.rounds(OpKind::Read);
    assert_eq!(rounds.len(), 24);
    assert_eq!(rounds.iter().sum::<u32>(), 32, "read rounds: {rounds:?}");
}

/// Thrifty rounds when a peer dies. Node 0 — home of registers 3 and 6 —
/// learns a quorum with p1 while p2 cannot reach it, and then p1 crashes
/// with every link open. The next operation through node 0 asks p0 and p1
/// first, and its retransmission reaches p2 one period later: it takes
/// exactly one retransmission period longer than the same operation did
/// before (and the send slot p2 holds behind p1 in a broadcast). The
/// node's one preference now holds p2, so the operations after it — on
/// the other register too — pay nothing: each takes, to the microsecond,
/// what it took before the crash.
#[test]
fn a_dead_preferred_peer_costs_its_coordinator_one_retransmission_period() {
    let retransmit = rmem_core::DEFAULT_RETRANSMIT.0;
    let router = ShardRouter::new(8);
    let keys = router.covering_keys("key-");
    let homed = |register: u16| {
        let shard = register - 1;
        keys.iter().find(|k| router.shard_of(k) == shard).unwrap()
    };
    let (a, b) = (homed(3).as_str(), homed(6).as_str());
    let schedule = Schedule::new()
        .at(0, PlannedEvent::Block(ProcessId(2), ProcessId(0)))
        .at(10_000, PlannedEvent::Unblock(ProcessId(2), ProcessId(0)))
        .at(10_000, PlannedEvent::Crash(ProcessId(1)));
    let report = run_hosted(sim(Persistent::flavor(), 4, schedule), |world| {
        let kv = KvClient::over(world.clone(), router);
        vec![Box::new(move || {
            let timed = |call: &dyn Fn()| {
                let start = world.now();
                call();
                (world.now() - start).as_micros() as u64
            };
            let kv = &kv;
            let put = |key, v| move || kv.put(key, unique(0, v)).unwrap();
            let get = |key| move || drop(kv.get(key).unwrap());
            // The map sync and a first put of each: node 0 asks everyone
            // once, and hears p1 first.
            put(a, 1)();
            put(b, 2)();
            let before = [timed(&put(a, 3)), timed(&put(b, 4)), timed(&get(b))];
            assert!(world.now() < Duration::from_micros(10_000));
            pause(&*world, 12_000 - world.now().as_micros() as u64);
            let first = timed(&put(a, 5));
            let after = [timed(&put(a, 6)), timed(&put(b, 7)), timed(&get(b))];
            assert_eq!(first, before[0] + retransmit + 5, "{before:?} → {first}");
            assert_eq!(after, before, "no period is paid twice");
            assert_eq!(kv.stats().retries, 0, "node 0 served them all");
        }) as Script]
    });
    assert_eq!(report.trace.crashes, 1);
}

/// With the read fast path off the figures run verbatim: every read the
/// clients make pays its write-back round — two rounds, every time — and
/// the run certifies all the same.
#[test]
fn without_the_fast_path_every_read_is_two_rounds() {
    let flavor = Persistent::flavor().with_read_fast_path(false);
    let run = Load::new(flavor, 8).run();
    certify(
        &run.history,
        &run.keys,
        &[8],
        Criterion::Persistent,
        "legacy reads",
    );
    let rounds = run.report.trace.rounds(OpKind::Read);
    assert!(
        rounds.len() > 40 && rounds.iter().all(|&r| r == 2),
        "{rounds:?}"
    );
    for stats in &run.stats {
        assert_eq!(stats.read_rounds, 2 * stats.reads);
        assert_eq!(stats.fast_reads, 0);
    }
}

/// Tag leases, hosted: a writer installing monotone versions races two
/// reader families whose hot keys are answered under their home nodes'
/// leases — zero rounds, so the reads most able to go stale, and the
/// writer's puts go through the very nodes that hold them. Every run
/// certifies per key, and every zero-round read (the family's
/// `lease_hits` moved across the `get`) is policed by the freshness oracle
/// on the one virtual clock: **a leased read never returns a value older
/// than any value returned after a completed write** — as
/// `rmem-consistency`'s `lease_races` polices the register-level lease.
#[test]
fn leased_reads_of_hosted_clients_are_never_stale() {
    const LEASE_MICROS: u64 = 1_500;
    let version =
        |bytes: Option<&[u8]>| bytes.map_or(0, |b| u64::from_be_bytes(b.try_into().unwrap()));
    let (mut leased, mut quorum) = (0, 0);
    let mut write_rounds = Vec::new();
    for seed in 1..=12u64 {
        let keys = ShardRouter::new(4).covering_keys("lk-");
        let recorder = OpRecorder::new();
        // (key index, op) from every client, on the run's one clock.
        let log = Mutex::new(Vec::<(usize, FreshnessOp)>::new());
        let flavor = Persistent::flavor().with_lease(LEASE_MICROS);
        let report = run_hosted(sim(flavor, seed, Schedule::new()), |world| {
            let client = || {
                KvClient::over(world.clone(), ShardRouter::new(4)).with_recorder(recorder.clone())
            };
            let (keys, log) = (&keys, &log);
            let now = |world: &Arc<dyn World>| world.now().as_micros() as u64;
            let writer = {
                let (kv, world) = (client(), world.clone());
                let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
                Box::new(move || {
                    let dist = KeyDistribution::zipf(keys.len(), 0.99);
                    let mut versions = vec![0u64; keys.len()];
                    for _ in 0..24 {
                        let k = dist.sample(&mut rng);
                        versions[k] += 1;
                        let invoked_at = now(&world);
                        kv.put(&keys[k], versions[k].to_be_bytes().to_vec())
                            .unwrap();
                        let kind = FreshnessKind::Write {
                            version: versions[k],
                        };
                        let op = FreshnessOp {
                            invoked_at,
                            completed_at: now(&world),
                            kind,
                        };
                        log.lock().unwrap().push((k, op));
                        pause(&*world, rng.gen_range(0..150));
                    }
                }) as Script
            };
            let reader = |family: u64| {
                let (kv, world) = (client(), world.clone());
                let mut rng = StdRng::seed_from_u64(seed * 31 + family);
                Box::new(move || {
                    let dist = KeyDistribution::zipf(keys.len(), 0.99);
                    for _ in 0..60 {
                        let k = dist.sample(&mut rng);
                        let hits = kv.stats().lease_hits;
                        let invoked_at = now(&world);
                        let got = kv.get(&keys[k]).unwrap();
                        let kind = FreshnessKind::Read {
                            version: version(got.as_deref()),
                            leased: kv.stats().lease_hits > hits,
                        };
                        let op = FreshnessOp {
                            invoked_at,
                            completed_at: now(&world),
                            kind,
                        };
                        log.lock().unwrap().push((k, op));
                        pause(&*world, rng.gen_range(0..150));
                    }
                }) as Script
            };
            std::iter::once(writer).chain((0..2).map(reader)).collect()
        });
        write_rounds.extend(report.trace.rounds(OpKind::Write));
        let what = format!("leases seed {seed}");
        certify(
            &recorder.history(),
            &keys,
            &[4],
            Criterion::Persistent,
            &what,
        );
        let log = log.into_inner().unwrap();
        for (k, key) in keys.iter().enumerate() {
            let of_key = log.iter().filter(|(logged, _)| *logged == k);
            let ops: Vec<FreshnessOp> = of_key.map(|&(_, op)| op).collect();
            let report = check_freshness(&ops)
                .unwrap_or_else(|violation| panic!("seed {seed}, key {key}: {violation}"));
            leased += report.leased_reads;
        }
        let unleased = |(_, op): &&(usize, FreshnessOp)| {
            matches!(op.kind, FreshnessKind::Read { leased: false, .. })
        };
        quorum += log.iter().filter(unleased).count();
    }
    assert!(
        leased > 0,
        "the sweep must serve reads in zero rounds ({quorum} quorum reads)"
    );
    assert!(
        quorum > 0,
        "cold starts and expiries keep some reads on the quorum path"
    );
    // The writer too: a put that meets a live lease at its key's home
    // takes it for its query round.
    let (writes, rounds) = (write_rounds.len() as u32, write_rounds.iter().sum::<u32>());
    assert!(
        rounds < 2 * writes,
        "no put began under a lease: {writes} writes, {rounds} rounds"
    );
}

/// The hosted, seed-exact twin of `client::tests::
/// multi_get_serves_hot_registers_in_zero_rounds`, with the write-back
/// that test once met forced. Four registers are put — register 3
/// through its home, node 0, and p1 only (node 0 cannot reach p2
/// meanwhile), so p2 misses its write; the other three are homed on p2.
/// During the first `multi_get` p1's replies to node 0 are lost: register
/// 3's read widens on its retransmission, hears p2, and pays the
/// write-back — five read rounds for four reads.
/// A leasing read is a full read: the write-back leaves a lease like the
/// fast path does, so the second batch is four hits in zero rounds.
#[test]
fn multi_get_serves_hot_registers_in_zero_rounds_after_a_write_back() {
    let router = ShardRouter::new(8);
    let keys = router.covering_keys("hot-");
    // Registers 2, 3, 5 and 8 (a key's register is its shard + 1), homed
    // on node `register mod 3`.
    let of_shard = |shard| keys.iter().find(|k| router.shard_of(k) == shard).unwrap();
    let keys: Vec<&str> = [1, 2, 4, 7].map(|shard| of_shard(shard).as_str()).to_vec();
    let flavor = Persistent::flavor().with_lease(1_000_000);
    let (p0, p1, p2) = (ProcessId(0), ProcessId(1), ProcessId(2));
    let schedule = Schedule::new()
        .at(0, PlannedEvent::Block(p0, p2))
        .at(5_000, PlannedEvent::Unblock(p0, p2))
        .at(5_000, PlannedEvent::Block(p1, p0))
        .at(10_000, PlannedEvent::Unblock(p1, p0));
    let stats = Mutex::new(Vec::new());
    run_hosted(sim(flavor, 11, schedule), |world| {
        let kv = KvClient::over(world.clone(), router);
        let stats = &stats;
        vec![Box::new(move || {
            for (n, key) in (0..).zip(&keys) {
                kv.put(key, unique(0, n)).unwrap();
            }
            assert!(world.now() < Duration::from_micros(5_000));
            pause(&*world, 6_000 - world.now().as_micros() as u64);
            let first = kv.multi_get(&keys).unwrap();
            let before = kv.stats();
            pause(&*world, 12_000 - world.now().as_micros() as u64);
            let second = kv.multi_get(&keys).unwrap();
            assert_eq!(first, second);
            stats.lock().unwrap().extend([before, kv.stats()]);
        }) as Script]
    });
    let [before, after] = stats.into_inner().unwrap()[..] else {
        panic!("the script ran")
    };
    assert_eq!(
        (before.reads, before.read_rounds),
        (4, 5),
        "forced: {before:?}"
    );
    assert_eq!(
        (after.lease_hits - before.lease_hits, after.read_rounds),
        (4, before.read_rounds),
        "batch hits missing: {before:?} -> {after:?}"
    );
}

/// A Zipf tail keeps its leases, hosted and seed-exact: two real clients,
/// Zipf(0.99) over `lease-zipf-r95`'s sixty-four keys, 95 % gets, on a
/// leased transient cluster with a 5 ms term. The hot keys are read many
/// times a term, the tail keys about once in one to a few terms: while one
/// idle term ended a lease, their next get often paid a round to re-mint
/// it (`ONE_IDLE_TERM`). A lease lapsing only after two idle terms, renewed
/// at its horizon, cut that to `AT_HORIZON`; its gets still paid for the
/// renewal gap — one round for a get that met a renewal in flight, one
/// for a put's hand-on the horizon beat. A lease renewing 7/8 into its
/// term while it still serves, with a fixed allowance of three idle
/// renewal periods, cut them to `MAKE_BEFORE_BREAK`; its tail keys still
/// lapsed, and a renewal whose quorum disagreed minted nothing. Now each
/// read a lease serves earns one more idle period (up to twelve), and a
/// renewal is a full read that writes back and mints, goes again when
/// its own horizon catches it and follows a write that outlived its
/// lease: read rounds fall to the pinned count below.
/// Every zero-round get is policed by the freshness oracle (the hot keys
/// see more operations than the atomicity checkers take). Puts of one key
/// go to its home node, which admits them in call order, so a per-key
/// counter drawn at the call is their order.
#[test]
fn a_zipf_tail_keeps_its_leases_across_one_idle_term() {
    /// `(read rounds, reads)` of this run while one idle term ended a
    /// lease.
    const ONE_IDLE_TERM: (u64, u64) = (800, 5_714);
    /// `(read rounds, reads)` of this run while a lease renewed at its
    /// horizon, leaseless until the renewal minted.
    const AT_HORIZON: (u64, u64) = (370, 5_714);
    /// `(read rounds, reads)` of this run while a lease renewed before its
    /// horizon but lapsed after three idle periods, whatever its use.
    const MAKE_BEFORE_BREAK: (u64, u64) = (114, 5_714);
    let keys = ShardRouter::new(64).covering_keys("zt-");
    let log = Mutex::new(Vec::<(usize, FreshnessOp)>::new());
    let versions = Mutex::new(vec![0u64; keys.len()]);
    let flavor = Transient::flavor().with_lease(5_000);
    let mut families = Vec::new();
    run_hosted(sim(flavor, 3, Schedule::new()), |world| {
        let (keys, log, versions) = (&keys, &log, &versions);
        let now = |world: &Arc<dyn World>| world.now().as_micros() as u64;
        for _ in 0..2 {
            families.push(KvClient::over(world.clone(), ShardRouter::new(64)));
        }
        let client = |(client, kv): (u64, &KvClient)| {
            let (kv, world) = (kv.clone(), world.clone());
            let mut rng = StdRng::seed_from_u64(0x5eed + client);
            Box::new(move || {
                let dist = KeyDistribution::zipf(keys.len(), 0.99);
                for _ in 0..3_000 {
                    let k = dist.sample(&mut rng);
                    let (invoked_at, hits) = (now(&world), kv.stats().lease_hits);
                    let kind = if rng.gen_bool(0.05) {
                        let version = {
                            let mut versions = versions.lock().unwrap();
                            versions[k] += 1;
                            versions[k]
                        };
                        kv.put(&keys[k], version.to_be_bytes().to_vec()).unwrap();
                        FreshnessKind::Write { version }
                    } else {
                        let got = kv.get(&keys[k]).unwrap();
                        let version =
                            got.map_or(0, |b| u64::from_be_bytes(b[..].try_into().unwrap()));
                        let leased = kv.stats().lease_hits > hits;
                        FreshnessKind::Read { version, leased }
                    };
                    let completed_at = now(&world);
                    let op = FreshnessOp {
                        invoked_at,
                        completed_at,
                        kind,
                    };
                    log.lock().unwrap().push((k, op));
                    pause(&*world, rng.gen_range(0..50));
                }
            }) as Script
        };
        (0..).zip(&families).map(client).collect()
    });
    let log = log.into_inner().unwrap();
    let mut leased = 0;
    for (k, key) in keys.iter().enumerate() {
        let ops: Vec<FreshnessOp> = log
            .iter()
            .filter(|(of, _)| *of == k)
            .map(|&(_, op)| op)
            .collect();
        let report =
            check_freshness(&ops).unwrap_or_else(|violation| panic!("key {key}: {violation}"));
        leased += report.leased_reads;
    }
    let stats = families.iter().map(KvClient::stats);
    let (rounds, reads) = stats.fold((0, 0), |(r, n), s| (r + s.read_rounds, n + s.reads));
    println!("zipf tail: {rounds} read rounds in {reads} reads, {leased} leased");
    assert!(leased > 0, "the oracle policed nothing");
    assert_eq!((rounds, reads), (77, 5_714), "read rounds, reads");
    let per_get = |(rounds, reads): (u64, u64)| rounds as f64 / reads as f64;
    assert!(per_get((rounds, reads)) < per_get(MAKE_BEFORE_BREAK));
    assert!(per_get(MAKE_BEFORE_BREAK) < per_get(AT_HORIZON));
    assert!(per_get(AT_HORIZON) < per_get(ONE_IDLE_TERM));
}

/// Detectable recovery, hosted: an exactly-once client's `put` loses its
/// home node — and for a while the majority — somewhere in its rounds
/// (the crash instant sweeps the whole write). Whatever the call returned,
/// `resolve_all` afterwards settles every journaled operation to a
/// definite verdict, the key then reads a definite value, and the history
/// passes the exactly-once criterion and certifies.
#[test]
fn an_exactly_once_put_whose_nodes_die_mid_round_resolves() {
    let router = ShardRouter::new(4);
    let keys = router.covering_keys("eo-");
    // The put goes out at 2 000 µs; a persistent write takes ≈ 800.
    for crash_at in (2_000..3_000).step_by(50) {
        let seed = crash_at;
        let recorder = OpRecorder::new();
        let (key, other) = (&keys[0], &keys[1]); // register 1: homed on node 1
        let schedule = Schedule::new()
            .at(crash_at, PlannedEvent::Crash(ProcessId(1)))
            .at(crash_at, PlannedEvent::Crash(ProcessId(2)))
            .at(crash_at + 6_000, PlannedEvent::Recover(ProcessId(1)))
            .at(crash_at + 6_000, PlannedEvent::Recover(ProcessId(2)));
        run_hosted(sim(Persistent::flavor(), seed, schedule), |world| {
            let journal = IntentJournal::with_storage(Box::new(MemStorage::new())).unwrap();
            let kv = KvClient::over(world.clone(), router)
                .with_op_timeout(Duration::from_millis(2))
                .with_recorder(recorder.clone())
                .with_exactly_once(7, journal);
            vec![Box::new(move || {
                kv.put(other, b"before".to_vec()).unwrap();
                pause(&*world, 2_000 - world.now().as_micros() as u64);
                let outcome = kv.put(key, b"v".to_vec());
                // Acknowledged ⇒ tombstoned; anything else stays journaled.
                assert_eq!(outcome.is_ok(), kv.pending_intents().is_empty());
                // The client "restarts" once the cluster is whole again.
                pause(&*world, 10_000);
                for (tag, verdict) in kv.resolve_all().unwrap() {
                    assert_eq!(verdict, Resolution::Landed { tag }, "a sent op lands");
                }
                assert!(kv.pending_intents().is_empty(), "crash at {crash_at}");
                assert_eq!(kv.get(key).unwrap().as_deref(), Some(b"v".as_ref()));
            }) as Script]
        });
        let history = recorder.history();
        let report = check_store_exactly_once(&history)
            .unwrap_or_else(|e| panic!("crash at {crash_at}: {e}"));
        assert!(report.logical_ops >= 2, "both puts are tagged");
        let what = format!("exactly-once, crash at {crash_at}");
        certify(&history, &keys, &[4], Criterion::Persistent, &what);
        let wrote = |e: &Event| {
            matches!(
                e,
                Event::Invoke {
                    operation: Op::WriteAt(..),
                    ..
                }
            )
        };
        let writes = history.events().iter().filter(|e| wrote(e)).count();
        let acked = |e: &Event| {
            matches!(
                e,
                Event::Reply {
                    result: OpResult::Written,
                    ..
                }
            )
        };
        assert!(writes >= history.events().iter().filter(|e| acked(e)).count());
    }
}
