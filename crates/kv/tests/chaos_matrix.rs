//! The combined chaos matrix (see `rmem_kv::chaos`): seeded schedules
//! mixing node kill/recover windows, torn-WAL-tail recoveries, a live
//! 4 → 8 → 16 split chain and client crashes after a planned number of
//! outputs, on a 50-node cluster. Every surviving history must pass
//! cross-epoch certification (including the exactly-once duplicate
//! check), and every crashed client's ops must resolve to a definite
//! verdict.
//!
//! CI runs `single_seed_smoke` (and the dedicated chaos-smoke job runs a
//! few seeds via `rmem-bench --chaos`); the full ≥ 12-seed sweep is the
//! release-mode acceptance run.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_consistency::Criterion;
use rmem_core::{Persistent, SharedMemory};
use rmem_kv::{
    certify_per_key_epoch_path, run_chaos, run_hosted, ChaosConfig, ChaosReport, KvClient,
    OpRecorder, Resolution, Script, ShardRouter,
};
use rmem_sim::{ChaosPlan, ClusterConfig, MatrixSpec, Simulation};

fn run_seed(seed: u64) -> ChaosReport {
    let cfg = ChaosConfig {
        seed,
        ..ChaosConfig::default()
    };
    match run_chaos(&cfg) {
        Ok(report) => report,
        Err(failure) => {
            eprintln!("{}", failure.dumps);
            panic!("{failure}");
        }
    }
}

fn check_report(report: &ChaosReport) {
    assert_eq!(
        report.certified_keys, 4,
        "seed {}: every key must be certified across the whole path",
        report.seed
    );
    for (client, tag, resolution) in &report.verdicts {
        // Definite by type; spot-check the tags belong to their clients.
        assert_eq!(tag.client, *client, "seed {}: foreign tag", report.seed);
        match resolution {
            Resolution::Landed { tag: t } => assert_eq!(t, tag),
            Resolution::NotLanded => {}
        }
    }
}

/// The CI smoke: one full seeded chaos run on the 50-node cluster.
#[test]
fn single_seed_smoke() {
    let report = run_seed(0);
    check_report(&report);
    assert!(report.completed > 0, "traffic must have flowed");
    assert!(report.faults_applied > 0, "faults must have fired");
}

/// The acceptance sweep: ≥ 12 seeds of combined faults — node windows,
/// torn tails, split chains, client crashes — all certified, all
/// resolved. Release-mode runs finish in well under a minute; debug
/// builds should prefer `single_seed_smoke`.
#[test]
#[ignore = "full 12-seed sweep; run explicitly (release mode recommended)"]
fn sweep_chaos_matrix() {
    let mut total_completed = 0;
    let mut total_faults = 0;
    let mut total_torn = 0;
    let mut total_verdicts = 0;
    // A crasher's `Prepared` op resolves NotLanded and its `Sent` ops
    // resolve Landed (`run_chaos` checks each against its journal state).
    let (mut prepared, mut sent) = (false, false);
    for seed in 1..=12 {
        let report = run_seed(seed);
        check_report(&report);
        total_completed += report.completed;
        total_faults += report.faults_applied;
        total_torn += report.torn_tails;
        total_verdicts += report.verdicts.len();
        for (client, _, resolution) in &report.verdicts {
            let crasher = *client >= 1_000; // `run_chaos`'s crasher ids
            prepared |= crasher && *resolution == Resolution::NotLanded;
            sent |= crasher && *resolution != Resolution::NotLanded;
        }
    }
    assert!(total_completed > 0);
    assert!(
        prepared && sent,
        "the crashes must leave both Prepared and Sent ops across the sweep"
    );
    assert!(
        total_torn > 0,
        "across 12 seeds some torn-tail recoveries must have happened"
    );
    println!(
        "chaos sweep: {total_completed} completed, {total_faults} faults \
         ({total_torn} torn tails), {total_verdicts} recovery verdicts"
    );
}

/// The sim-scale arm of the matrix: the same seeded plan generator
/// drives the discrete-event simulator at 100 processes — far past what
/// real threads afford — under 100 **real clients**, hosted
/// (`rmem_kv::host`): routing, map sync and failover are the shipped code,
/// in virtual time, from a seed. Every call completes and the runs stay
/// certified per key. All 100 clients' first map syncs meet at register
/// 0's home and wait their turn there, so the whole run costs at most one
/// retry per client (seed 17 crashes that home under its waiters: each
/// fails over once, 99 in all).
#[test]
fn des_scale_hundred_processes_certified() {
    const SHARDS: u16 = 16;
    for seed in [3u64, 17] {
        let processes = 100usize;
        let plan = ChaosPlan::generate(&MatrixSpec {
            seed,
            processes,
            windows: 6,
            max_concurrent_down: 8,
            client_crashes: 0,
            horizon: rmem_types::Micros(40_000),
            ..MatrixSpec::default()
        });
        let router = ShardRouter::new(SHARDS);
        let keys = router.covering_keys("key-");
        let recorder = OpRecorder::new();
        let retries = AtomicU64::new(0);
        let sim = Simulation::new(
            ClusterConfig::new(processes),
            SharedMemory::factory(Persistent::flavor()),
            seed,
        )
        .with_schedule(plan.schedule());
        let report = run_hosted(sim, |world| {
            let client = |c: usize| {
                let kv = KvClient::over(world.clone(), router).with_recorder(recorder.clone());
                let (keys, retries) = (&keys, &retries);
                Box::new(move || {
                    let mut rng = StdRng::seed_from_u64(seed * 1_000 + c as u64);
                    for op in 0..2u64 {
                        // Uniform, not Zipf: certification cost grows with
                        // the number of concurrent ops piled on one
                        // register, and 100 clients on a Zipf-hot register
                        // push the checker's search past reason.
                        let key = &keys[rng.gen_range(0..keys.len())];
                        let outcome = match rng.gen_bool(0.6) {
                            true => kv.put(key, ((c as u64) << 32 | op).to_be_bytes().to_vec()),
                            false => kv.get(key).map(|_| ()),
                        };
                        // The plan is majority-safe: every call fails over
                        // to a live node and completes.
                        outcome.unwrap_or_else(|e| panic!("seed {seed}, client {c}: {e}"));
                    }
                    retries.fetch_add(kv.stats().retries, Ordering::Relaxed);
                }) as Script
            };
            (0..processes).map(client).collect()
        });
        assert!(report.trace.crashes >= 6, "the windows must have fired");
        let retries = retries.into_inner();
        assert!(retries <= 100, "seed {seed}: {retries} client retries");
        certify_per_key_epoch_path(
            &recorder.history(),
            keys.iter().map(String::as_str),
            &[SHARDS],
            Criterion::Persistent,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: 100-process run failed certification: {e}"));
    }
}
