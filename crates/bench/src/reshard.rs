//! The `--reshard` scenario: a **live 4 → 8 shard split under concurrent
//! Zipf traffic** on the real-threaded runtime, reporting the throughput
//! dip during migration, the recovery after it, and the migration cost —
//! with the whole run certified across epochs before any number is
//! reported.
//!
//! Unlike the virtual-time grid of [`crate::kv`], this scenario runs on
//! wall clocks: live migration is a *real-time* protocol (write barriers,
//! seal polls, map refreshes), so its cost only means something measured
//! against real concurrency. Three phases share one continuous workload:
//!
//! 1. **pre** — steady state at 4 shards;
//! 2. **during** — `KvClient::grow(8)` runs on a driver thread while the
//!    workload keeps going (barriered writers, old-home-then-new-home
//!    readers);
//! 3. **post** — steady state at 8 shards, epoch 1.
//!
//! The scenario runs **two** live splits: a full-speed unrecorded run for
//! the throughput numbers, and a bounded recorded run — same cluster
//! shape, same traffic mix — that must pass
//! [`rmem_kv::certify_per_key_epoch_path`] before anything is reported (a
//! throughput number for a migration protocol that breaks atomicity would
//! be meaningless). The split is because the decision-procedure checker
//! caps a register's history at 128 operations: a full-speed Zipf run
//! piles thousands of operations onto the hot key, so the certified
//! witness is volume-bounded while the measured run is not. The
//! exhaustive certification sweep (crash schedules included) lives in
//! `crates/kv/tests/reshard_races.rs`.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_consistency::Criterion;
use rmem_core::{SharedMemory, Transient};
use rmem_kv::{certify_per_key_epoch_path, KvClient, OpRecorder, ShardRouter};
use rmem_net::LocalCluster;
use rmem_sim::KeyDistribution;

/// Shard count before the split.
pub const FROM_SHARDS: u16 = 4;

/// Shard count after the split.
pub const TO_SHARDS: u16 = 8;

/// What the reshard scenario measured.
#[derive(Debug, Clone)]
pub struct ReshardReport {
    /// Shard count before the split.
    pub from_shards: u16,
    /// Shard count after the split.
    pub to_shards: u16,
    /// The committed epoch.
    pub epoch: u64,
    /// Steady-state throughput before the split (ops/s, wall clock).
    pub pre_ops_per_sec: f64,
    /// Throughput while the migration ran.
    pub during_ops_per_sec: f64,
    /// Steady-state throughput after the split.
    pub post_ops_per_sec: f64,
    /// Wall-clock duration of `grow` (publish → commit), in milliseconds.
    pub migration_ms: f64,
    /// Entries copied to a new home register.
    pub entries_moved: usize,
    /// Source shards sealed.
    pub sources_sealed: usize,
    /// Writes that actually waited on the migration barrier.
    pub barrier_waits: u64,
    /// Seal polls those waits performed in total.
    pub barrier_polls: u64,
    /// Store operations completed across all phases.
    pub completed_ops: u64,
    /// Whether the run passed cross-epoch per-key certification (the
    /// scenario panics otherwise, so a report in hand means `true`).
    pub certified: bool,
}

impl ReshardReport {
    /// Throughput retained during migration, relative to the pre-split
    /// steady state (1.0 = no dip).
    pub fn dip_ratio(&self) -> f64 {
        if self.pre_ops_per_sec == 0.0 {
            return 0.0;
        }
        self.during_ops_per_sec / self.pre_ops_per_sec
    }

    /// Post-split throughput relative to the pre-split steady state.
    pub fn recovery_ratio(&self) -> f64 {
        if self.pre_ops_per_sec == 0.0 {
            return 0.0;
        }
        self.post_ops_per_sec / self.pre_ops_per_sec
    }
}

const PHASE_PRE: u8 = 0;
const PHASE_DURING: u8 = 1;
const PHASE_POST: u8 = 2;
const PHASE_DONE: u8 = 3;

/// Runs the scenario: 3-node channel cluster, transient flavor, 4
/// workers of 50%-put Zipf(0.99) traffic, a live 4 → 8 split mid-run.
/// `smoke` shortens the steady-state windows for CI.
///
/// # Panics
///
/// Panics if the split fails, an operation errors terminally, or the run
/// fails cross-epoch certification.
pub fn reshard_scenario(smoke: bool) -> ReshardReport {
    // Certified witness first: a bounded recorded split of the same
    // shape must pass the cross-epoch oracle before any measurement is
    // taken, let alone reported.
    let certified = certified_witness_split();

    let window = if smoke {
        Duration::from_millis(120)
    } else {
        Duration::from_millis(600)
    };
    let cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(FROM_SHARDS)).unwrap();
    let keys = ShardRouter::new(FROM_SHARDS).covering_keys("bench-");
    for (i, key) in keys.iter().enumerate() {
        kv.put(key, vec![0, i as u8]).unwrap();
    }

    let phase = AtomicU8::new(PHASE_PRE);
    // Completed-op counters per phase.
    let counts = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
    let phase_ref = &phase;
    let counts_ref = &counts;
    let moved = AtomicUsize::new(0);
    let sealed = AtomicUsize::new(0);
    let epoch = AtomicU64::new(0);
    let migration_ns = AtomicU64::new(0);
    let mut durations = [Duration::ZERO; 3];
    let mut post_start = None;

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let client = kv.clone();
            let keys = &keys;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(7 + t);
                let dist = KeyDistribution::zipf(keys.len(), 0.99);
                let mut counter = 0u64;
                loop {
                    let p = phase_ref.load(Ordering::Relaxed);
                    if p == PHASE_DONE {
                        break;
                    }
                    let key = &keys[dist.sample(&mut rng)];
                    if rng.gen_bool(0.5) {
                        counter += 1;
                        let value = ((t + 1) << 32 | counter).to_be_bytes().to_vec();
                        client.put(key, value).unwrap();
                    } else {
                        client.get(key).unwrap();
                    }
                    counts_ref[p.min(2) as usize].fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // The conductor: pre window → grow (timed) → post window → stop.
        let grower = kv.clone();
        let pre_start = Instant::now();
        std::thread::sleep(window);
        durations[0] = pre_start.elapsed();

        phase.store(PHASE_DURING, Ordering::Relaxed);
        let grow_start = Instant::now();
        let report = grower.grow(TO_SHARDS).expect("the live split must commit");
        let grow_elapsed = grow_start.elapsed();
        // Keep the "during" label on the window the migration actually
        // occupied; a sub-millisecond migration still gets a measurable
        // window by padding with post-commit settle time.
        let settle = Duration::from_millis(if smoke { 10 } else { 40 });
        std::thread::sleep(settle);
        durations[1] = grow_start.elapsed();
        moved.store(report.entries_moved, Ordering::Relaxed);
        sealed.store(report.sources_sealed, Ordering::Relaxed);
        epoch.store(report.epoch, Ordering::Relaxed);
        migration_ns.store(grow_elapsed.as_nanos() as u64, Ordering::Relaxed);

        phase.store(PHASE_POST, Ordering::Relaxed);
        post_start = Some(Instant::now());
        std::thread::sleep(window);
        phase.store(PHASE_DONE, Ordering::Relaxed);
    });
    // The post window's divisor is measured *after* the workers join:
    // operations in flight when the stop flag went up still complete and
    // count, so clocking the phase at the flag (the nominal window) would
    // inflate its ops/s.
    durations[2] = post_start.expect("conductor ran").elapsed();

    let stats = kv.stats();
    let per_sec = |i: usize| counts[i].load(Ordering::Relaxed) as f64 / durations[i].as_secs_f64();
    ReshardReport {
        from_shards: FROM_SHARDS,
        to_shards: TO_SHARDS,
        epoch: epoch.load(Ordering::Relaxed),
        pre_ops_per_sec: per_sec(0),
        during_ops_per_sec: per_sec(1),
        post_ops_per_sec: per_sec(2),
        migration_ms: migration_ns.load(Ordering::Relaxed) as f64 / 1e6,
        entries_moved: moved.load(Ordering::Relaxed),
        sources_sealed: sealed.load(Ordering::Relaxed),
        barrier_waits: stats.barrier_waits,
        barrier_polls: stats.barrier_polls,
        completed_ops: counts.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
        certified,
    }
}

/// The bounded, recorded witness split: three concurrent Zipf clients
/// (small op budgets, so every per-key history fits the checker), a live
/// 4 → 8 grow mid-run, full cross-epoch per-key certification.
///
/// # Panics
///
/// Panics if the split or the certification fails.
fn certified_witness_split() -> bool {
    let cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let recorder = OpRecorder::new();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(FROM_SHARDS))
        .unwrap()
        .with_recorder(recorder.clone());
    let keys = ShardRouter::new(FROM_SHARDS).covering_keys("bench-");
    for (i, key) in keys.iter().enumerate() {
        kv.put(key, vec![0, i as u8]).unwrap();
    }
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let client = kv.recorded_clone();
            let keys = &keys;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + t);
                let dist = KeyDistribution::zipf(keys.len(), 0.99);
                let mut counter = 0u64;
                for _ in 0..40 {
                    let key = &keys[dist.sample(&mut rng)];
                    if rng.gen_bool(0.5) {
                        counter += 1;
                        let value = ((t + 1) << 32 | counter).to_be_bytes().to_vec();
                        client.put(key, value).unwrap();
                    } else {
                        client.get(key).unwrap();
                    }
                    std::thread::sleep(Duration::from_micros(rng.gen_range(0..200)));
                }
            });
        }
        let grower = kv.recorded_clone();
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(4));
            let report = grower.grow(TO_SHARDS).expect("witness split must commit");
            assert_eq!(report.epoch, 1);
        });
    });
    certify_per_key_epoch_path(
        &recorder.history(),
        keys.iter().map(String::as_str),
        &[FROM_SHARDS, TO_SHARDS],
        Criterion::Transient,
    )
    .expect("the resharding witness run must certify per key across epochs");
    true
}

/// Serializes the report as one JSON object (appended to the
/// `BENCH_kv.json` rows so the perf trajectory tracks migration cost).
pub fn reshard_to_json(r: &ReshardReport) -> String {
    format!(
        "  {{\"scenario\": \"reshard\", \"from_shards\": {}, \"to_shards\": {}, \
         \"epoch\": {}, \"pre_ops_per_sec\": {:.1}, \"during_ops_per_sec\": {:.1}, \
         \"post_ops_per_sec\": {:.1}, \"dip_ratio\": {:.3}, \"recovery_ratio\": {:.3}, \
         \"migration_ms\": {:.3}, \"entries_moved\": {}, \"sources_sealed\": {}, \
         \"barrier_waits\": {}, \"barrier_polls\": {}, \"completed_ops\": {}, \
         \"certified\": {}}}",
        r.from_shards,
        r.to_shards,
        r.epoch,
        r.pre_ops_per_sec,
        r.during_ops_per_sec,
        r.post_ops_per_sec,
        r.dip_ratio(),
        r.recovery_ratio(),
        r.migration_ms,
        r.entries_moved,
        r.sources_sealed,
        r.barrier_waits,
        r.barrier_polls,
        r.completed_ops,
        r.certified,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenario_splits_and_certifies() {
        let report = reshard_scenario(true);
        assert_eq!(report.epoch, 1);
        assert_eq!(report.from_shards, 4);
        assert_eq!(report.to_shards, 8);
        assert_eq!(report.sources_sealed, 4);
        assert!(report.certified);
        assert!(report.completed_ops > 0);
        assert!(report.pre_ops_per_sec > 0.0);
        assert!(report.post_ops_per_sec > 0.0);
        assert!(report.migration_ms > 0.0);
        let json = reshard_to_json(&report);
        assert!(json.contains("\"scenario\": \"reshard\""));
        assert!(json.contains("\"certified\": true"));
    }
}
