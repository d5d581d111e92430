//! Every crash point of a hosted client: a run of a crasher script for
//! every `k` from 0 to its output count `K`, its host taking the first
//! `k` outputs (submissions, journal writes) and none after
//! (`rmem_kv::Crash`). Then a recovery incarnation reopens the journal's
//! storage and resolves what the crash left: every `Prepared` op
//! `NotLanded` and fenced, every `Sent` op `Landed` — Memento's
//! detectability property — and the whole history, steady writer
//! included, passes the exactly-once check and certifies per key.
//!
//! Runs are functions of their seed: `k = K` is the run without the
//! adapter, event for event, and a failure names its seed, flavor and
//! `k`.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use rmem_consistency::{Criterion, Event, History};
use rmem_core::{Flavor, Persistent, SharedMemory, Transient};
use rmem_kv::{
    certify_per_key_epoch_path, check_store_exactly_once, codec, run_hosted, Crash, KvClient,
    KvError, OpRecorder, Resolution, Script, ShardRouter, World,
};
use rmem_net::cluster::SharedStorage;
use rmem_sim::{ChaosPlan, ClusterConfig, MatrixSpec, PlannedEvent, Schedule, Simulation};
use rmem_storage::{
    CountingStorage, Intent, IntentJournal, IntentState, StableStorage, StoreCounters,
};
use rmem_types::{Micros, Op, OpResult, OpTag, ProcessId};

const CRASHER: u16 = 7;
const WRITER: u16 = 8;

/// Sleeps `micros` of virtual time: a wait on no ticket.
fn pause(world: &dyn World, micros: u64) {
    world.wait_any(&[], world.now() + Duration::from_micros(micros));
}

fn flavors() -> [(Flavor, Criterion); 2] {
    [
        (Persistent::flavor(), Criterion::Persistent),
        (Transient::flavor(), Criterion::Transient),
    ]
}

/// Half the seeds run under one node window of a chaos plan.
fn sim(flavor: Flavor, seed: u64) -> Simulation {
    let schedule = match seed % 2 {
        0 => ChaosPlan::generate(&MatrixSpec {
            seed,
            processes: 3,
            windows: 1,
            max_concurrent_down: 1,
            torn_fraction: 0.0,
            client_crashes: 0,
            clients: 1,
            horizon: Micros(6_000),
        })
        .schedule(),
        _ => Schedule::new(),
    };
    let memory = SharedMemory::factory(flavor);
    Simulation::new(ClusterConfig::new(3), memory, seed).with_schedule(schedule)
}

fn value(client: u16, n: u64) -> Bytes {
    Bytes::from((u64::from(client) << 32 | n).to_be_bytes().to_vec())
}

/// What one run of the crasher script left and proved.
#[derive(Debug, PartialEq)]
struct Run {
    history: History,
    /// Outputs the crasher's host took, and how many of them were journal
    /// writes.
    outputs: u64,
    journal_writes: u64,
    /// The crasher's journal after the crash, and what recovery made of
    /// it.
    left: Vec<Intent>,
    verdicts: Vec<(OpTag, Resolution)>,
}

/// One run of `seed` under `flavor`; the crasher's outputs spend `crash`
/// (`None`: no adapter at all).
fn run(seed: u64, flavor: Flavor, criterion: Criterion, crash: Option<&Crash>) -> Run {
    let what = format!("seed {seed}, {criterion:?}, crash {crash:?}");
    let router = ShardRouter::new(4);
    let keys = router.covering_keys("key-");
    let recorder = OpRecorder::new();
    let disk = SharedStorage::new();
    let counters = StoreCounters::new();
    let outcome = Arc::new(Mutex::new(None));
    run_hosted(sim(flavor, seed), |world| {
        let crasher = KvClient::over(world.clone(), router).with_recorder(recorder.clone());
        let journal = CountingStorage::new(disk.clone(), counters.clone());
        let (crasher, journal) = match crash {
            Some(crash) => (crasher.with_crash(crash), crash.storage(journal)),
            None => (crasher, Box::new(journal) as Box<dyn StableStorage>),
        };
        let crasher =
            crasher.with_exactly_once(CRASHER, IntentJournal::with_storage(journal).unwrap());
        let writer = KvClient::over(world.clone(), router)
            .with_recorder(recorder.clone())
            .with_exactly_once(
                WRITER,
                IntentJournal::with_storage(Box::new(SharedStorage::new())).unwrap(),
            );
        let (keys, recorder, disk, outcome, what) = (&keys, &recorder, &disk, &outcome, &what);
        let world2 = world.clone();
        vec![
            Box::new(move || {
                // Four exactly-once puts, two of them staged, and a get;
                // after the crash every step fails at its first output.
                let staged = |key: &str, v: Bytes| {
                    let tag = crasher.begin_put(key, v)?;
                    crasher.send_put(tag)
                };
                let _ = crasher.put(&keys[0], value(CRASHER, 1));
                pause(&*world, 100);
                let _ = staged(&keys[1], value(CRASHER, 2));
                let _ = crasher.get(&keys[2]);
                pause(&*world, 100);
                let _ = crasher.put(&keys[3], value(CRASHER, 3));
                let _ = staged(&keys[0], value(CRASHER, 4));
                // Recovery: a new incarnation over the same journal.
                let journal = IntentJournal::with_storage(Box::new(disk.clone())).unwrap();
                let recovered = KvClient::over(world.clone(), router)
                    .with_recorder(recorder.clone())
                    .with_exactly_once(CRASHER, journal);
                let left = recovered.pending_intents();
                let verdicts = recovered.resolve_all().unwrap();
                assert!(recovered.pending_intents().is_empty(), "{what}");
                for (intent, &(tag, verdict)) in left.iter().zip(&verdicts) {
                    assert_eq!(intent.tag, tag, "{what}");
                    match intent.state {
                        IntentState::Prepared => {
                            assert_eq!(verdict, Resolution::NotLanded, "{what}");
                            let sent = recovered.send_put(tag);
                            assert!(matches!(sent, Err(KvError::Fenced { .. })), "{what}");
                        }
                        _ => assert_eq!(verdict, Resolution::Landed { tag }, "{what}"),
                    }
                }
                *outcome.lock().unwrap() = Some((left, verdicts));
            }) as Script,
            Box::new(move || {
                for n in 0..8 {
                    let key = &keys[n as usize % keys.len()];
                    writer
                        .put(key, value(WRITER, n))
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    pause(&*world2, 150);
                }
            }),
        ]
    });
    let history = recorder.history();
    check_store_exactly_once(&history).unwrap_or_else(|e| panic!("{what}: {e}"));
    let names = keys.iter().map(String::as_str);
    certify_per_key_epoch_path(&history, names, &[4], criterion)
        .unwrap_or_else(|e| panic!("{what}: certification failed: {e}"));
    let (left, verdicts) = outcome
        .lock()
        .unwrap()
        .take()
        .expect("the crasher script ran");
    Run {
        history,
        outputs: crash.map_or(0, Crash::outputs),
        journal_writes: counters.stores(),
        left,
        verdicts,
    }
}

/// The acceptance sweep: 8 seeds × both flavors × every `k`.
#[test]
fn every_crash_point_of_a_hosted_client_resolves() {
    for (flavor, criterion) in flavors() {
        for seed in 1..=8 {
            let plain = run(seed, flavor, criterion, None);
            assert!(
                plain.left.is_empty(),
                "seed {seed}: an uncrashed run leaves nothing"
            );
            let full = run(seed, flavor, criterion, Some(&Crash::default()));
            let k_max = full.outputs;
            assert!(
                k_max >= 10,
                "seed {seed}: the crasher makes {k_max} outputs"
            );
            let runs: Vec<Run> = (0..=k_max)
                .map(|k| run(seed, flavor, criterion, Some(&Crash::after(k))))
                .collect();
            // A budget never spent changes nothing.
            assert_eq!(
                full.history, plain.history,
                "seed {seed}: the adapter moved a run"
            );
            assert_eq!(
                runs[k_max as usize].history, plain.history,
                "seed {seed}: k = K"
            );
            for (k, r) in runs.iter().enumerate() {
                assert_eq!(
                    r.outputs, k as u64,
                    "seed {seed}: run {k} took {}",
                    r.outputs
                );
            }
            // The k-th output is a journal write iff run k wrote one more
            // than run k − 1. A crash right after a write that marked an op
            // `Sent`, before the submission that would have followed it,
            // leaves that op with nothing submitted.
            let journal = |k: usize| runs[k].journal_writes > runs[k - 1].journal_writes;
            let unsent = (1..k_max as usize).filter(|&k| {
                let sent = runs[k].left.iter().any(|i| i.state == IntentState::Sent);
                journal(k) && !journal(k + 1) && sent
            });
            assert!(
                unsent.count() >= 1,
                "seed {seed}: no crash left a sent op unsubmitted"
            );
            assert!(
                runs.iter()
                    .any(|r| r.left.iter().any(|i| i.state == IntentState::Prepared)),
                "seed {seed}: no crash left a staged op"
            );
        }
    }
}

/// A run is a function of (seed, flavor, k): one seed under a node
/// window, both flavors, every `k` run twice — same verdicts, same
/// history. CI loops it.
#[test]
fn a_crash_point_run_is_a_function_of_its_seed() {
    for (flavor, criterion) in flavors() {
        let k_max = run(2, flavor, criterion, Some(&Crash::default())).outputs;
        for k in 0..=k_max {
            let twice = [0, 1].map(|_| run(2, flavor, criterion, Some(&Crash::after(k))));
            assert_eq!(twice[0], twice[1], "{criterion:?}, k {k}: runs differ");
        }
    }
}

/// How many writes of `tag` a node took.
fn landed_writes(history: &History, tag: OpTag) -> usize {
    let events = history.events();
    let tagged = |op: &Op| matches!(op, Op::WriteAt(_, v) if codec::payload_op_tag(v) == Some(tag));
    events
        .iter()
        .filter(|e| match e {
            Event::Invoke { operation, op: id } if tagged(operation) => events
                .iter()
                .any(|r| matches!(r, Event::Reply { op, result: OpResult::Written } if op == id)),
            _ => false,
        })
        .count()
}

/// A crasher on a fresh cluster — node 1, `key-`'s home, down from
/// `down_at` when that is `Some` — puts `key` after a warm-up put, its
/// host taking `budget` of the put's outputs; then a recovery incarnation
/// resolves. Returns the verdicts, the value the key then reads and the
/// history.
fn crash_one_put(
    budget: u64,
    down_at: Option<u64>,
) -> (Vec<(OpTag, Resolution)>, Option<Bytes>, History) {
    let router = ShardRouter::new(4);
    let key = router.covering_keys("key-")[0].clone(); // register 1: node 1
    let schedule = match down_at {
        Some(at) => Schedule::new().at(at, PlannedEvent::Crash(ProcessId(1))),
        None => Schedule::new(),
    };
    let memory = SharedMemory::factory(Persistent::flavor());
    let sim = Simulation::new(ClusterConfig::new(3), memory, 5).with_schedule(schedule);
    let recorder = OpRecorder::new();
    let outcome = Arc::new(Mutex::new(None));
    run_hosted(sim, |world| {
        let (disk, crash) = (SharedStorage::new(), Crash::default());
        let journal = IntentJournal::with_storage(crash.storage(disk.clone())).unwrap();
        let crasher = KvClient::over(world.clone(), router)
            .with_recorder(recorder.clone())
            .with_crash(&crash)
            .with_exactly_once(CRASHER, journal);
        let (recorder, key, outcome) = (&recorder, &key, &outcome);
        vec![Box::new(move || {
            crasher.put("warm-up", value(CRASHER, 0)).unwrap();
            pause(&*world, 2_000);
            crash.arm(budget);
            assert!(crasher.put(key, value(CRASHER, 1)).is_err());
            assert!(crash.crashed() && crash.outputs() >= budget);
            let journal = IntentJournal::with_storage(Box::new(disk)).unwrap();
            let recovered = KvClient::over(world.clone(), router)
                .with_recorder(recorder.clone())
                .with_exactly_once(CRASHER, journal);
            let left = recovered.pending_intents();
            assert_eq!(left.len(), 1);
            assert_eq!(left[0].state, IntentState::Sent);
            let verdicts = recovered.resolve_all().unwrap();
            *outcome.lock().unwrap() = Some((verdicts, recovered.get(key).unwrap()));
        }) as Script]
    });
    let (verdicts, read) = outcome.lock().unwrap().take().expect("the script ran");
    (verdicts, read, recorder.history())
}

/// A crash after the write that marks the op `Sent` and before its first
/// submission: nothing reached a node, yet the op may have — so it
/// resolves `Landed`, and the resolver's re-issue makes it true: the value
/// is visible, written exactly once.
#[test]
fn a_crash_after_the_sent_mark_before_any_submit_lands_exactly_once() {
    let (verdicts, read, history) = crash_one_put(1, None);
    let [(tag, verdict)] = verdicts[..] else {
        panic!("one op was left: {verdicts:?}")
    };
    assert_eq!(verdict, Resolution::Landed { tag });
    assert_eq!(read, Some(value(CRASHER, 1)));
    assert_eq!(landed_writes(&history, tag), 1, "the resolver's write only");
    let report = check_store_exactly_once(&history).unwrap();
    assert_eq!(report.logical_ops, 2, "the warm-up and the crashed put");
}

/// A crash between a submission its dead home node refused and the
/// failover that would have followed: the op is `Sent` with nothing
/// landed, resolves `Landed`, and its value is then visible exactly once.
#[test]
fn a_crash_between_a_refused_submit_and_its_failover_lands_exactly_once() {
    let (verdicts, read, history) = crash_one_put(2, Some(1_000));
    let [(tag, verdict)] = verdicts[..] else {
        panic!("one op was left: {verdicts:?}")
    };
    assert_eq!(verdict, Resolution::Landed { tag });
    assert_eq!(read, Some(value(CRASHER, 1)));
    assert_eq!(landed_writes(&history, tag), 1, "the resolver's write only");
    let refused = |e: &Event| {
        matches!(
            e,
            Event::Reply {
                result: OpResult::Rejected(_),
                ..
            }
        )
    };
    assert!(
        history.events().iter().any(refused),
        "the dead node refused it"
    );
    check_store_exactly_once(&history).unwrap();
}
