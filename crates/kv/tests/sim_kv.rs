//! End-to-end: simulated store runs — skewed traffic, crashes and
//! recoveries — certified atomic per key.

use rmem_consistency::Criterion;
use rmem_core::{Persistent, SharedMemory, Transient};
use rmem_kv::history::certify_per_key;
use rmem_kv::workload::{generate, KeyDist, KvWorkloadSpec};
use rmem_sim::{ClusterConfig, SimReport, Simulation};

fn run(
    spec: &KvWorkloadSpec,
    flavor: rmem_core::Flavor,
    seed: u64,
) -> (SimReport, rmem_kv::KeyMap) {
    let kv_run = generate(spec);
    let mut sim = Simulation::new(
        ClusterConfig::new(spec.clients),
        SharedMemory::factory(flavor),
        seed,
    )
    .with_schedule(kv_run.schedule.clone());
    for lp in &kv_run.loops {
        sim.add_closed_loop(lp.clone());
    }
    (sim.run(), kv_run.key_map)
}

/// The acceptance run: ≥ 8 shards, ≥ 3 clients, a crash and a recovery
/// mid-traffic, certified atomic per key by the checker.
#[test]
fn crashy_store_run_is_certified_atomic_per_key() {
    let spec = KvWorkloadSpec {
        shards: 8,
        clients: 3,
        ops_per_client: 25,
        write_fraction: 0.5,
        distribution: KeyDist::Zipf(0.99),
        crashes: vec![(8_000, 1, 4_000)],
        ..KvWorkloadSpec::default()
    };
    let (report, key_map) = run(&spec, Persistent::flavor(), 11);
    assert!(report.trace.crashes >= 1, "the crash must have happened");
    assert!(
        report.trace.recoveries >= 1,
        "the recovery must have happened"
    );
    let h = report.trace.to_history();
    let cert = certify_per_key(&h, &key_map, Criterion::Persistent)
        .expect("persistent store run must certify per key");
    assert!(!cert.per_key.is_empty(), "traffic must have touched keys");
}

/// The transient flavor certifies under its own (weaker) criterion.
#[test]
fn transient_store_run_is_certified_transient_per_key() {
    let spec = KvWorkloadSpec {
        shards: 8,
        ..KvWorkloadSpec::default()
    };
    let (report, key_map) = run(&spec, Transient::flavor(), 5);
    let h = report.trace.to_history();
    certify_per_key(&h, &key_map, Criterion::Transient)
        .expect("transient store run must certify per key");
}

/// Uniform and Zipf workloads both complete all their operations under a
/// crash-free run (closed loops terminate).
#[test]
fn workload_operations_all_terminate() {
    for dist in [KeyDist::Uniform, KeyDist::Zipf(0.99)] {
        let spec = KvWorkloadSpec {
            shards: 12,
            clients: 4,
            ops_per_client: 15,
            distribution: dist,
            ..KvWorkloadSpec::default()
        };
        let (report, _) = run(&spec, Persistent::flavor(), 3);
        let completed = report
            .trace
            .operations()
            .iter()
            .filter(|o| o.is_completed())
            .count();
        assert_eq!(completed, 4 * 15, "{dist:?}: all operations must complete");
    }
}

/// Batched runs (per-shard coalesced rounds, the `KvClient::multi_*`
/// model) stay certified per key — the per-key checker is the
/// correctness oracle of coalescing — including through a crash.
#[test]
fn batched_store_run_is_certified_atomic_per_key() {
    let spec = KvWorkloadSpec {
        shards: 8,
        clients: 3,
        ops_per_client: 32,
        batch: 8,
        distribution: KeyDist::Zipf(0.99),
        crashes: vec![(8_000, 1, 4_000)],
        ..KvWorkloadSpec::default()
    };
    let kv_run = generate(&spec);
    assert!(
        kv_run.register_ops < kv_run.logical_ops,
        "the batched run must actually coalesce"
    );
    let (report, key_map) = run(&spec, Persistent::flavor(), 11);
    let h = report.trace.to_history();
    let cert = certify_per_key(&h, &key_map, Criterion::Persistent)
        .expect("batched persistent store run must certify per key");
    assert!(!cert.per_key.is_empty());
}

/// Several seeds, several crash points: the certificate holds across the
/// space (a cheap randomized sweep on top of the scripted acceptance run).
#[test]
fn certification_holds_across_seeds_and_crash_points() {
    for (seed, crash_at) in [(1u64, 5_000u64), (2, 9_000), (3, 14_000)] {
        let spec = KvWorkloadSpec {
            shards: 8,
            clients: 3,
            ops_per_client: 12,
            distribution: KeyDist::Zipf(0.8),
            crashes: vec![(crash_at, (seed % 3) as u16, 3_000)],
            seed,
            ..KvWorkloadSpec::default()
        };
        let (report, key_map) = run(&spec, Persistent::flavor(), seed);
        let h = report.trace.to_history();
        certify_per_key(&h, &key_map, Criterion::Persistent).unwrap_or_else(|e| {
            panic!("seed {seed}, crash at {crash_at}: {e}");
        });
    }
}
