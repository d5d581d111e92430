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
//! 2. **during** — `KvClient::grow(8)` runs on the conductor thread while
//!    the workload keeps going (barriered writers, old-home-then-new-home
//!    readers);
//! 3. **post** — steady state at 8 shards, epoch 1.
//!
//! The scenario runs **two** live splits: a full-speed unrecorded run for
//! the throughput numbers, and a bounded recorded run — same cluster
//! shape, same traffic mix — that must pass
//! [`rmem_kv::certify_per_key_epoch_path`] before anything is reported (a
//! throughput number for a migration protocol that breaks atomicity would
//! be meaningless). Both are [`crate::load`] runs: a full-speed Zipf run
//! piles thousands of operations onto the hot key, past the checker's
//! 128 per register, so the certified witness is volume-bounded. The
//! exhaustive certification sweep (crash schedules included) lives in
//! `crates/kv/tests/reshard_races.rs`.

use std::time::{Duration, Instant};

use rmem_core::{SharedMemory, Transient};
use rmem_kv::{KvClient, ShardRouter};
use rmem_net::LocalCluster;

use crate::load::Load;

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

/// Runs the scenario: 3-node channel cluster, transient flavor, 4
/// workers of 50%-put Zipf(0.99) traffic, a live 4 → 8 split mid-run.
/// `smoke` shortens the steady-state windows for CI.
///
/// Each phase is credited with the operations that *completed* in it:
/// the conductor reads the one completed-ops counter at each phase
/// switch.
///
/// # Panics
///
/// Panics if the split fails, an operation errors terminally, or the run
/// fails cross-epoch certification.
pub fn reshard_scenario(smoke: bool) -> ReshardReport {
    let keys = ShardRouter::new(FROM_SHARDS).covering_keys("bench-");
    // Certified witness first: a bounded recorded split of the same
    // shape — three clients of 40 ops each, paced by a random think
    // time, a live grow mid-run — must pass the cross-epoch oracle
    // before any measurement is taken, let alone reported.
    let cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    Load {
        think_micros: 200,
        ..Load::new(&keys, 3, 100, 0.5)
    }
    .witness(cluster.clients(), &[FROM_SHARDS, TO_SHARDS], 40, |grower| {
        std::thread::sleep(Duration::from_millis(4));
        let report = grower.grow(TO_SHARDS).expect("witness split must commit");
        assert_eq!(report.epoch, 1);
    })
    .expect("the resharding witness run must certify per key across epochs");
    drop(cluster);

    let window = if smoke {
        Duration::from_millis(120)
    } else {
        Duration::from_millis(600)
    };
    let cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(FROM_SHARDS)).unwrap();
    let load = Load::new(&keys, 4, 7, 0.5);
    load.preload(&kv);

    // The conductor: pre window → grow (timed) → post window → stop.
    let mut ends = [0u64; 2];
    let mut durations = [Duration::ZERO; 3];
    let mut migration = Duration::ZERO;
    let mut post_start = Instant::now();
    let mut grown = None;
    let run = load.run(&kv, None, |progress| {
        let pre_start = Instant::now();
        std::thread::sleep(window);
        durations[0] = pre_start.elapsed();
        ends[0] = progress.completed();

        let grow_start = Instant::now();
        grown = Some(kv.grow(TO_SHARDS).expect("the live split must commit"));
        migration = grow_start.elapsed();
        // Keep the "during" label on the window the migration actually
        // occupied; a sub-millisecond migration still gets a measurable
        // window by padding with post-commit settle time.
        std::thread::sleep(Duration::from_millis(if smoke { 10 } else { 40 }));
        durations[1] = grow_start.elapsed();
        ends[1] = progress.completed();

        post_start = Instant::now();
        std::thread::sleep(window);
        progress.stop();
    });
    // The post window's divisor is measured *after* the workers join:
    // operations in flight when the stop flag went up still complete and
    // count, so clocking the phase at the flag (the nominal window) would
    // inflate its ops/s.
    durations[2] = post_start.elapsed();
    let counts = [ends[0], ends[1] - ends[0], run.completed - ends[1]];
    let grown = grown.expect("the conductor grew the store");

    let stats = kv.stats();
    let per_sec = |i: usize| counts[i] as f64 / durations[i].as_secs_f64();
    ReshardReport {
        from_shards: FROM_SHARDS,
        to_shards: TO_SHARDS,
        epoch: grown.epoch,
        pre_ops_per_sec: per_sec(0),
        during_ops_per_sec: per_sec(1),
        post_ops_per_sec: per_sec(2),
        migration_ms: migration.as_secs_f64() * 1e3,
        entries_moved: grown.entries_moved,
        sources_sealed: grown.sources_sealed,
        barrier_waits: stats.barrier_waits,
        barrier_polls: stats.barrier_polls,
        completed_ops: run.completed,
        certified: true,
    }
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
