//! The **combined chaos matrix** over a real-threaded cluster: seeded
//! schedules mixing node kill/recover windows, torn-WAL-tail recoveries,
//! live shard-split chains and client crashes after a planned number of
//! outputs — with every surviving history certified and every crashed
//! client's ops resolved to a definite verdict.
//!
//! The plan comes from [`rmem_sim::matrix`] (pure data, majority-safe by
//! construction); this module lowers it onto a
//! [`LocalCluster`] — node windows become
//! [`FaultEvent::Kill`]/[`FaultEvent::Restart`] pairs with a
//! [`FaultEvent::TearTail`] in the middle of torn windows, client crashes
//! become [`FaultEvent::ClientCrash`] signals on which the crasher arms
//! its [`Crash`] budget between two puts: its host takes that many more
//! outputs and none after, so the next put is cut short. Meanwhile a
//! grower drives the shard-split chain (e.g. 4 → 8 → 16) live under the
//! traffic.
//!
//! [`run_chaos`] is the whole experiment: preload → traffic + faults +
//! splits → client recovery ([`KvClient::resolve_all`] over each reopened
//! intent journal, each verdict checked against the state the journal
//! left its op in) → certification
//! ([`certify_per_key_epoch_path`], which includes the
//! duplicate-application check). On a certification failure it returns
//! the flight-recorder dumps and the stitched causal trace as evidence.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_consistency::linearize::MAX_OPS;
use rmem_consistency::Criterion;
use rmem_core::{Persistent, SharedMemory};
use rmem_net::{FaultEvent, FaultSchedule, LocalCluster};
use rmem_sim::{ChaosPlan, MatrixSpec};
use rmem_storage::{IntentJournal, IntentState, WalStorage};
use rmem_types::{Micros, OpTag};

use crate::client::{KvClient, KvError};
use crate::crash::Crash;
use crate::exactly_once::Resolution;
use crate::history::certify_per_key_epoch_path;
use crate::recorder::OpRecorder;
use crate::router::ShardRouter;

/// Configuration of one chaos-matrix run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the fault plan and all traffic randomness.
    pub seed: u64,
    /// Cluster size (the matrix targets 50+).
    pub nodes: usize,
    /// Every `wal_every`-th node persists to a real write-ahead log (the
    /// torn-tail targets); the rest use in-memory crash-surviving disks.
    pub wal_every: usize,
    /// The live split chain, e.g. `[4, 8, 16]`: the run starts at the
    /// first count and grows through the rest under traffic.
    pub shard_path: Vec<u16>,
    /// Steady exactly-once writer threads.
    pub writers: u16,
    /// Puts per steady writer before it may stop (it keeps writing until
    /// the fault schedule has drained) — capped by the pacer: a writer
    /// stops once its share of the checker's per-key op limit is spent.
    pub ops_per_writer: usize,
    /// Crash-injected exactly-once clients, staging and sending their
    /// puts; on its crash signal each dies inside its next put, after
    /// the number of outputs its first planned crash names (one the plan
    /// never signals dies when the schedule drains).
    pub crashers: u16,
    /// Node kill/recover windows in the plan.
    pub windows: usize,
    /// Max nodes down at once (must leave a majority up).
    pub max_concurrent_down: usize,
    /// Fraction of windows whose recovery is from a torn WAL tail.
    pub torn_fraction: f64,
    /// Wall-clock length of the fault schedule.
    pub horizon: Duration,
    /// Scratch directory for WAL disks and intent journals (a per-seed
    /// subdirectory is created and cleaned).
    pub scratch: PathBuf,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            nodes: 50,
            wal_every: 5,
            shard_path: vec![4, 8, 16],
            writers: 3,
            ops_per_writer: 15,
            crashers: 3,
            windows: 4,
            max_concurrent_down: 3,
            torn_fraction: 0.5,
            horizon: Duration::from_millis(700),
            scratch: std::env::temp_dir().join(format!("rmem-chaos-{}", std::process::id())),
        }
    }
}

/// What one chaos run did and proved.
#[derive(Debug)]
pub struct ChaosReport {
    /// The run's seed.
    pub seed: u64,
    /// Store operations that completed normally.
    pub completed: u64,
    /// Operations that failed ambiguously (node died under them) — their
    /// intents were later resolved to definite verdicts.
    pub ambiguous: u64,
    /// Fault events actually applied by the schedule.
    pub faults_applied: usize,
    /// Torn-tail injections that actually hit a killed WAL node.
    pub torn_tails: usize,
    /// Every verdict from the recovery sweeps: `(client id, tag,
    /// resolution)`, covering both the crash-injected clients and any
    /// steady writer that finished with ambiguous ops in its journal.
    pub verdicts: Vec<(u16, OpTag, Resolution)>,
    /// Keys certified by the cross-epoch checker.
    pub certified_keys: usize,
    /// Failed node attempts that made operations retry (see
    /// `kv.retries`).
    pub retries: u64,
}

/// A chaos run that failed its oracle, with the postmortem evidence.
#[derive(Debug)]
pub struct ChaosFailure {
    /// The failing seed (rerun it to reproduce).
    pub seed: u64,
    /// What failed (certification verdict or recovery error).
    pub message: String,
    /// Flight-recorder dumps and the stitched causal trace.
    pub dumps: String,
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chaos seed {}: {}", self.seed, self.message)
    }
}

impl std::error::Error for ChaosFailure {}

/// Tag namespace offset separating crasher clients from steady writers.
const CRASHER_BASE: u16 = 1_000;

/// One traffic client's allowance: how many puts it may still issue per
/// key, and how long it rests between two. The linearizability checker
/// takes at most [`MAX_OPS`] operations per key, so the run's traffic is
/// sized by that count — spread over the fault horizon — and not by how
/// many operations fit the wall clock.
struct Pacer {
    left: Vec<usize>,
    pause: Duration,
}

impl Pacer {
    /// The allowance of each of `cfg`'s traffic clients over `keys` keys.
    /// Outside the traffic a key's history also holds its preload, per
    /// crasher the put it dies in plus its resolution (one read, one
    /// re-issue), and per split the migrator's read and verify (twice, if
    /// a straggler forces a redo); a third of the remainder is kept back
    /// for resolving puts that failed ambiguously (a read and a re-issue
    /// each).
    fn new(cfg: &ChaosConfig, keys: usize) -> Self {
        let crashers = usize::from(cfg.crashers);
        let reserved = 1 + 3 * crashers + 4 * (cfg.shard_path.len() - 1);
        let clients = usize::from(cfg.writers) + crashers;
        let per_key = MAX_OPS.saturating_sub(reserved) * 2 / 3 / clients.max(1);
        assert!(per_key > 0, "no room under the checker's op limit: {cfg:?}");
        let ops = u32::try_from(per_key * keys).expect("the op budget is small");
        Pacer {
            left: vec![per_key; keys],
            pause: cfg.horizon / ops,
        }
    }

    /// Rests, then draws the key of the next put: uniform over the keys
    /// with allowance left, `None` once the allowance is spent.
    fn next_key(&mut self, rng: &mut StdRng) -> Option<usize> {
        let open: Vec<usize> = (0..self.left.len()).filter(|&k| self.left[k] > 0).collect();
        if open.is_empty() {
            return None;
        }
        std::thread::sleep(self.pause.mul_f64(rng.gen_range(0.5..1.5)));
        let key = open[rng.gen_range(0..open.len())];
        self.left[key] -= 1;
        Some(key)
    }
}

/// Runs one seeded chaos-matrix experiment (see the [module
/// docs](self)).
///
/// # Errors
///
/// Returns [`ChaosFailure`] — with flight-recorder and stitched-trace
/// dumps attached — if the surviving history fails cross-epoch
/// certification (including the exactly-once duplicate check) or a
/// crashed client's op cannot be resolved to a definite verdict.
///
/// # Panics
///
/// Panics on harness-level failures that are bugs in the experiment
/// itself (cluster setup, preload, a split that cannot commit, a write
/// barrier deadlock).
#[allow(clippy::too_many_lines)]
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, Box<ChaosFailure>> {
    assert!(cfg.shard_path.len() >= 2, "the matrix grows at least once");
    let scratch = cfg.scratch.join(format!("s{}", cfg.seed));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("creating the chaos scratch directory");

    let mut cluster = LocalCluster::channel_mixed(
        cfg.nodes,
        SharedMemory::factory(Persistent::flavor()),
        scratch.join("disks"),
        cfg.wal_every,
    )
    .expect("assembling the chaos cluster");
    let recorder = OpRecorder::new();
    let first_shards = cfg.shard_path[0];
    let base = KvClient::new(cluster.clients(), ShardRouter::new(first_shards))
        .expect("building the base client")
        .with_op_timeout(Duration::from_millis(300))
        .with_health_cooldown(Duration::from_secs(2))
        .with_barrier_polls(4_096)
        .with_recorder(recorder.clone());

    // One key per first-epoch shard: linear hashing keeps them injective
    // under every count on the path, so per-register certificates read as
    // per-key ones across the whole chain.
    let keys = ShardRouter::new(first_shards).covering_keys("chaos-");
    for (i, key) in keys.iter().enumerate() {
        base.put(key, vec![0, i as u8]).expect("preload");
    }

    let plan = ChaosPlan::generate(&MatrixSpec {
        seed: cfg.seed,
        processes: cfg.nodes,
        windows: cfg.windows,
        max_concurrent_down: cfg.max_concurrent_down,
        torn_fraction: cfg.torn_fraction,
        client_crashes: cfg.crashers as usize,
        clients: cfg.crashers.max(1),
        horizon: Micros(u64::try_from(cfg.horizon.as_micros()).expect("horizon fits u64")),
    });
    let mut schedule = FaultSchedule::new();
    for w in &plan.windows {
        let start = Duration::from_micros(w.start.0);
        let down = Duration::from_micros(w.down_for.0);
        schedule = schedule
            .at(start, FaultEvent::Kill(w.pid))
            .at(start + down, FaultEvent::Restart(w.pid));
        if w.torn_tail {
            // Mid-outage, so the kill already happened and the restart
            // recovers from the torn log.
            schedule = schedule.at(start + down / 2, FaultEvent::TearTail(w.pid));
        }
    }
    for c in &plan.client_crashes {
        schedule = schedule.at(
            Duration::from_micros(c.at.0),
            FaultEvent::ClientCrash(u64::from(c.client)),
        );
    }

    let completed = AtomicU64::new(0);
    let ambiguous = AtomicU64::new(0);
    let faults_done = AtomicBool::new(false);
    let signals: Vec<AtomicBool> = (0..cfg.crashers).map(|_| AtomicBool::default()).collect();
    let mut applied = Vec::new();

    std::thread::scope(|scope| {
        // Exactly-once traffic: steady writers `put` for the whole fault
        // horizon (`ops_per_writer` puts at least); crashers stage and
        // send theirs until their crash signal comes. Either stops early
        // once its allowance is spent.
        let writers = (1..=cfg.writers).map(|id| (id, None));
        let crashers = (CRASHER_BASE..).zip(signals.iter().map(Some));
        for (id, signal) in writers.chain(crashers) {
            // A writer's journal spends a budget that is never armed:
            // every write is forwarded.
            let crash = Crash::default();
            let wal = WalStorage::open(journal_dir(&scratch, id)).expect("a journal log");
            let journal = IntentJournal::with_storage(crash.storage(wal)).expect("a journal");
            let client = match signal {
                None => base.recorded_clone(),
                Some(_) => base.recorded_clone().with_crash(&crash),
            };
            let client = client.with_exactly_once(id, journal);
            let (keys, completed, ambiguous) = (&keys, &completed, &ambiguous);
            let drained = || faults_done.load(Ordering::Relaxed);
            let plan = &plan;
            let mut rng = StdRng::seed_from_u64(cfg.seed * 131 + u64::from(id));
            let mut pacer = Pacer::new(cfg, keys.len());
            scope.spawn(move || {
                let put = |key: &str, n: u64| {
                    let value = (u64::from(id) << 32 | n).to_be_bytes().to_vec();
                    let outcome = match signal {
                        None => client.put(key, value),
                        Some(_) => client
                            .begin_put(key, value)
                            .and_then(|t| client.send_put(t)),
                    };
                    match outcome {
                        Ok(()) => completed.fetch_add(1, Ordering::Relaxed),
                        Err(KvError::Barrier { key, shard }) => {
                            panic!("write barrier deadlocked on {key:?} (shard {shard})")
                        }
                        Err(_) if crash.crashed() => 0,
                        Err(_) => ambiguous.fetch_add(1, Ordering::Relaxed),
                    };
                };
                let signaled = || signal.is_some_and(|s| s.load(Ordering::Relaxed));
                let mut counter = 0;
                while (counter < cfg.ops_per_writer || !drained()) && !signaled() {
                    let Some(key) = pacer.next_key(&mut rng) else {
                        break;
                    };
                    counter += 1;
                    put(&keys[key], counter as u64);
                }
                let Some(_) = signal else { return };
                while !signaled() {
                    std::thread::sleep(pacer.pause);
                }
                // Then its host takes as many more outputs as its first
                // planned crash names (or a crash of its index would),
                // armed between two puts: the budget (at most 3) runs out
                // inside the next, which stays `Prepared`, or `Sent` with
                // nothing or one submission out.
                let c = id - CRASHER_BASE;
                let first = plan.client_crashes.iter().find(|x| x.client == c);
                crash.arm(first.map_or(1 + u64::from(c) % 3, |x| x.after_outputs));
                put(&keys[rng.gen_range(0..keys.len())], counter as u64 + 1);
            });
        }
        // The grower: drive the split chain live, spread over the
        // horizon.
        let grower = base.recorded_clone();
        let path = &cfg.shard_path;
        let horizon = cfg.horizon;
        scope.spawn(move || {
            let steps = path.len() - 1;
            for (i, &target) in path[1..].iter().enumerate() {
                std::thread::sleep(horizon * (i as u32 + 1) / (steps as u32 + 1));
                let report = grower.grow(target).expect("the live split must commit");
                assert_eq!(report.to_shards, target);
            }
        });
        // The adversary: node windows, torn tails and client-crash
        // signals on the clock.
        let cluster = &mut cluster;
        let signals = &signals;
        let faults_done = &faults_done;
        let applied = &mut applied;
        scope.spawn(move || {
            let signal = |c: usize| signals[c].store(true, Ordering::Relaxed);
            *applied = schedule
                .run_with(cluster, |c| signal(usize::try_from(c).expect("a small id")))
                .expect("the fault schedule must apply cleanly");
            // A crasher the plan never signals dies now (a second signal
            // changes nothing).
            (0..signals.len()).for_each(signal);
            faults_done.store(true, Ordering::Relaxed);
        });
    });

    // The split chain committed despite everything.
    let map = base.shard_map();
    assert!(!map.is_migrating(), "the last split must have committed");
    assert_eq!(map.shards, *cfg.shard_path.last().unwrap());

    let fail = |message: String| {
        Box::new(ChaosFailure {
            seed: cfg.seed,
            message,
            dumps: format!(
                "{}\n{}",
                cluster.dump_flight_recorders(40),
                cluster.dump_stitched(Vec::new(), 5)
            ),
        })
    };

    // Client recovery: reopen every journal — crashed clients and steady
    // writers alike — with a fresh client under the same tag namespace,
    // and sweep every pending intent to a definite verdict. The verdict
    // follows from the state the journal left the op in: one that never
    // left its client (`Prepared`) resolves NotLanded and stays fenced,
    // one that may have (`Sent`) resolves Landed.
    let mut verdicts = Vec::new();
    let crashers = (0..cfg.crashers).map(|c| CRASHER_BASE + c);
    for id in (1..=cfg.writers).chain(crashers) {
        let journal = IntentJournal::open(journal_dir(&scratch, id));
        let recovered = (base.recorded_clone())
            .with_exactly_once(id, journal.expect("reopening a client's intent journal"));
        let left = recovered.pending_intents();
        let resolved = (recovered.resolve_all())
            .map_err(|e| fail(format!("client {id} recovery failed: {e}")))?;
        // Every crasher's crash cut an op short, and recovery settles all.
        let unresolved = recovered.pending_intents().len();
        if unresolved > 0 || (id >= CRASHER_BASE && left.is_empty()) {
            let n = left.len();
            return Err(fail(format!("client {id}: {n} ops, {unresolved} open")));
        }
        for (intent, &(tag, verdict)) in left.iter().zip(&resolved) {
            let expected = match intent.state {
                IntentState::Prepared => Resolution::NotLanded,
                _ => Resolution::Landed { tag },
            };
            // A NotLanded op stays fenced against its owner.
            let fenced = || matches!(recovered.send_put(tag), Err(KvError::Fenced { .. }));
            if verdict != expected || (verdict == Resolution::NotLanded && !fenced()) {
                let state = intent.state;
                return Err(fail(format!(
                    "client {id}'s {state:?} op {tag} resolved {verdict:?}, not a fenced {expected:?}"
                )));
            }
        }
        verdicts.extend(resolved.into_iter().map(|(tag, r)| (id, tag, r)));
    }

    // The correctness oracle: cross-epoch per-key certification over the
    // whole split chain, including the exactly-once duplicate check.
    let history = recorder.history();
    let cert = match certify_per_key_epoch_path(
        &history,
        keys.iter().map(String::as_str),
        &cfg.shard_path,
        Criterion::Persistent,
    ) {
        Ok(cert) => cert,
        Err(e) => return Err(fail(format!("certification failed: {e}"))),
    };

    // Post-run sanity: every key still serves and accepts new writes.
    for key in &keys {
        base.put(key, b"final".to_vec()).expect("post-run put");
        assert_eq!(
            base.get(key).expect("post-run get").as_deref(),
            Some(b"final".as_ref())
        );
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);

    let stats = base.stats();
    Ok(ChaosReport {
        seed: cfg.seed,
        completed: completed.load(Ordering::Relaxed),
        ambiguous: ambiguous.load(Ordering::Relaxed),
        faults_applied: applied.len(),
        torn_tails: applied
            .iter()
            .filter(|(_, e)| matches!(e, FaultEvent::TearTail(_)))
            .count(),
        verdicts,
        certified_keys: cert.per_key.len(),
        retries: stats.retries,
    })
}

fn journal_dir(scratch: &Path, id: u16) -> PathBuf {
    scratch.join(format!("journal/c{id}"))
}
