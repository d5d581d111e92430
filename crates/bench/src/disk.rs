//! The `--disk` scenario: **write-heavy Zipf traffic over real disks**
//! on the real UDP runtime, `FileStorage` (the paper's fsync-per-store
//! slot files) vs `WalStorage` (the segmented group-commit write-ahead
//! log), with fsync-level accounting from the cluster's
//! [`StoreCounters`].
//!
//! Unlike the virtual-time grid of [`crate::kv`], the durability
//! pipeline's value only shows against a *real* disk: the same workload
//! runs twice — same cluster shape, same traffic mix, different
//! [`DiskMode`] — and the report carries ops/s, fsyncs per store
//! operation, the mean group-commit size and bytes per commit. The
//! expected shape: the WAL needs one fsync per *commit* (shared by every
//! store the syncer batched) where the slot files pay two per *store*,
//! so write-heavy throughput moves by multiples, not percents.
//!
//! Every backend's row is gated on a **certified witness run**: a
//! bounded, recorded run of the same shape on the same backend must pass
//! [`rmem_kv::certify_per_key_epoch_path`] (a one-epoch path — no
//! migration here, the oracle is per-key atomicity) before any number is
//! reported. The split between the witness and the measured run is the
//! same volume-bounding the reshard scenario uses: the decision-procedure
//! checker caps per-register history size, a full-speed run does not.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_consistency::Criterion;
use rmem_core::{SharedMemory, Transient};
use rmem_kv::{certify_per_key_epoch_path, KvClient, OpRecorder, ShardRouter};
use rmem_net::{DiskMode, LocalCluster};
use rmem_sim::KeyDistribution;

/// Shard count (and key universe) of the scenario.
pub const DISK_SHARDS: u16 = 16;

/// Put fraction of the write-heavy rows.
pub const DISK_WRITE_FRACTION: f64 = 0.9;

/// Closed-loop worker threads driving the cluster.
pub const DISK_WORKERS: u64 = 8;

/// One backend's measured row.
#[derive(Debug, Clone)]
pub struct DiskRow {
    /// Backend label (`file` / `wal`).
    pub backend: &'static str,
    /// Store operations completed in the measurement window.
    pub completed_ops: u64,
    /// Completed operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Put fraction of the workload.
    pub write_fraction: f64,
    /// Physical fsyncs per completed store operation (cluster-wide).
    pub fsyncs_per_op: f64,
    /// Mean stores per durability commit (the group-commit amortization;
    /// 1.0 = no coalescing, as with the slot files).
    pub mean_group_size: f64,
    /// Mean bytes made durable per commit.
    pub bytes_per_commit: f64,
    /// Stable-storage failures observed (must be 0).
    pub store_failures: u64,
    /// Whether the backend's witness run passed per-key certification
    /// (the scenario panics otherwise, so a row in hand means `true`).
    pub certified: bool,
}

/// The full `--disk` report: one row per backend plus the headline
/// ratio.
#[derive(Debug, Clone)]
pub struct DiskReport {
    /// Measured rows, `file` first.
    pub rows: Vec<DiskRow>,
}

impl DiskReport {
    /// The row for `backend`.
    ///
    /// # Panics
    ///
    /// Panics if the backend was not measured.
    pub fn row(&self, backend: &str) -> &DiskRow {
        self.rows
            .iter()
            .find(|r| r.backend == backend)
            .unwrap_or_else(|| panic!("no {backend} row"))
    }

    /// WAL ops/s over FileStorage ops/s on the write-heavy row.
    pub fn wal_speedup(&self) -> f64 {
        let file = self.row("file").ops_per_sec;
        if file == 0.0 {
            return 0.0;
        }
        self.row("wal").ops_per_sec / file
    }
}

fn mode_of(backend: &'static str) -> DiskMode {
    match backend {
        "file" => DiskMode::File,
        "wal" => DiskMode::Wal,
        other => panic!("unknown backend {other}"),
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rmem-diskbench-{tag}-{}", std::process::id()))
}

/// Runs the scenario: for each backend, a certified witness run then a
/// measured window of write-heavy Zipf traffic. `smoke` shortens the
/// window for CI.
///
/// # Panics
///
/// Panics if a witness run fails certification, an operation errors
/// terminally, or a node's log fails.
pub fn disk_scenario(smoke: bool) -> DiskReport {
    let window = if smoke {
        Duration::from_millis(250)
    } else {
        Duration::from_millis(1_000)
    };
    let rows = ["file", "wal"]
        .into_iter()
        .map(|backend| {
            let certified = certified_witness(backend);
            measure(backend, window, certified)
        })
        .collect();
    DiskReport { rows }
}

fn measure(backend: &'static str, window: Duration, certified: bool) -> DiskRow {
    let dir = scratch_dir(&format!("measure-{backend}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = LocalCluster::udp_with_disk(
        3,
        SharedMemory::factory(Transient::flavor()),
        &dir,
        mode_of(backend),
    )
    .expect("cluster");
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(DISK_SHARDS)).expect("kv client");
    let keys = ShardRouter::new(DISK_SHARDS).covering_keys("disk-");
    for (i, key) in keys.iter().enumerate() {
        kv.put(key, vec![0, i as u8]).expect("seed put");
    }
    // Count only steady-state traffic: reset what seeding logged.
    for pid in rmem_types::ProcessId::all(3) {
        cluster.storage_counters(pid).reset();
    }

    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    // Measure from first spawn to last join: workers finish their
    // in-flight operation after the stop flag flips, and those
    // completions count, so the divisor must be the real elapsed time —
    // dividing by the nominal window would credit the slower backend's
    // longer post-window tail as throughput.
    let start = Instant::now();
    std::thread::scope(|scope| {
        let stop = &stop;
        let completed = &completed;
        let keys = &keys;
        for t in 0..DISK_WORKERS {
            let client = kv.clone();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(31 + t);
                let dist = KeyDistribution::zipf(keys.len(), 0.99);
                let mut counter = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = &keys[dist.sample(&mut rng)];
                    if rng.gen_bool(DISK_WRITE_FRACTION) {
                        counter += 1;
                        let value = ((t + 1) << 32 | counter).to_be_bytes().to_vec();
                        client.put(key, value).expect("put");
                    } else {
                        client.get(key).expect("get");
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = start.elapsed();

    let completed_ops = completed.load(Ordering::Relaxed);
    let (mut stores, mut bytes, mut commits, mut fsyncs, mut failures) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for pid in rmem_types::ProcessId::all(3) {
        let c = cluster.storage_counters(pid);
        stores += c.stores();
        bytes += c.bytes();
        commits += c.commits();
        fsyncs += c.fsyncs();
        failures += cluster.store_failures(pid);
    }
    assert_eq!(failures, 0, "{backend}: the log must not fail mid-bench");
    assert!(stores > 0, "{backend}: a write-heavy run must log");
    drop(kv);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);

    DiskRow {
        backend,
        completed_ops,
        ops_per_sec: completed_ops as f64 / elapsed.as_secs_f64(),
        write_fraction: DISK_WRITE_FRACTION,
        fsyncs_per_op: fsyncs as f64 / completed_ops.max(1) as f64,
        mean_group_size: stores as f64 / commits.max(1) as f64,
        bytes_per_commit: bytes as f64 / commits.max(1) as f64,
        store_failures: failures,
        certified,
    }
}

/// The bounded recorded witness: three Zipf clients with small op
/// budgets on the same backend and cluster shape, certified per key
/// (identity epoch transition — the cross-epoch certifier doubles as the
/// plain per-key oracle when nothing moves).
///
/// # Panics
///
/// Panics if the run fails certification.
fn certified_witness(backend: &'static str) -> bool {
    let dir = scratch_dir(&format!("witness-{backend}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = LocalCluster::udp_with_disk(
        3,
        SharedMemory::factory(Transient::flavor()),
        &dir,
        mode_of(backend),
    )
    .expect("cluster");
    let recorder = OpRecorder::new();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(DISK_SHARDS))
        .expect("kv client")
        .with_recorder(recorder.clone());
    let keys = ShardRouter::new(DISK_SHARDS).covering_keys("disk-");
    for (i, key) in keys.iter().enumerate() {
        kv.put(key, vec![0, i as u8]).expect("seed put");
    }
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let client = kv.recorded_clone();
            let keys = &keys;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(300 + t);
                let dist = KeyDistribution::zipf(keys.len(), 0.99);
                let mut counter = 0u64;
                for _ in 0..30 {
                    let key = &keys[dist.sample(&mut rng)];
                    if rng.gen_bool(DISK_WRITE_FRACTION) {
                        counter += 1;
                        let value = ((t + 1) << 32 | counter).to_be_bytes().to_vec();
                        client.put(key, value).expect("put");
                    } else {
                        client.get(key).expect("get");
                    }
                }
            });
        }
    });
    certify_per_key_epoch_path(
        &recorder.history(),
        keys.iter().map(String::as_str),
        &[DISK_SHARDS],
        Criterion::Transient,
    )
    .unwrap_or_else(|e| panic!("{backend}: the disk witness run must certify per key: {e}"));
    drop(kv);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
    true
}

/// Serializes the rows as JSON objects (appended to the `BENCH_kv.json`
/// trajectory by `--json`).
pub fn disk_to_json(report: &DiskReport) -> String {
    report
        .rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"scenario\": \"disk\", \"backend\": \"{}\", \"write_fraction\": {:.2}, \
                 \"completed_ops\": {}, \"ops_per_sec\": {:.1}, \"fsyncs_per_op\": {:.3}, \
                 \"mean_group_size\": {:.2}, \"bytes_per_commit\": {:.1}, \
                 \"store_failures\": {}, \"certified\": {}}}",
                r.backend,
                r.write_fraction,
                r.completed_ops,
                r.ops_per_sec,
                r.fsyncs_per_op,
                r.mean_group_size,
                r.bytes_per_commit,
                r.store_failures,
                r.certified,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenario_measures_both_backends_and_certifies() {
        let report = disk_scenario(true);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert!(row.certified);
            assert_eq!(row.store_failures, 0);
            assert!(row.completed_ops > 0, "{}: no traffic", row.backend);
            assert!(row.ops_per_sec > 0.0);
            assert!(
                row.fsyncs_per_op > 0.0,
                "{}: fsyncs must be counted",
                row.backend
            );
        }
        // The mechanism, not the magnitude (asserted in the bin): slot
        // files cannot group, the WAL can.
        let file = report.row("file");
        let wal = report.row("wal");
        assert!(
            (file.mean_group_size - 1.0).abs() < f64::EPSILON,
            "slot files commit per store"
        );
        assert!(
            wal.mean_group_size >= 1.0,
            "the WAL's groups cannot be smaller than 1"
        );
        assert!(
            wal.fsyncs_per_op < file.fsyncs_per_op,
            "the WAL must spend fewer fsyncs per operation ({} vs {})",
            wal.fsyncs_per_op,
            file.fsyncs_per_op
        );
        let json = disk_to_json(&report);
        assert_eq!(json.matches("\"scenario\": \"disk\"").count(), 2);
    }
}
