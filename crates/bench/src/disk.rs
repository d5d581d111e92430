//! The `--disk` scenario: **write-heavy Zipf traffic over real disks**
//! on the real UDP runtime, `FileStorage` (the paper's fsync-per-store
//! slot files) vs `WalStorage` (the segmented group-commit write-ahead
//! log), with fsync-level accounting from the cluster's
//! [`StoreCounters`](rmem_storage::StoreCounters).
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
//! Every backend's row is gated on a **certified witness run**
//! ([`crate::load::Load::witness`]): a bounded, recorded run of the same
//! shape on the same backend must pass per-key certification before any
//! number is reported.

use std::time::Duration;

use rmem_core::{SharedMemory, Transient};
use rmem_kv::{KvClient, ShardRouter};
use rmem_net::{DiskMode, LocalCluster};

use crate::load::{scratch_dir, Load, ScratchDir};

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
    let keys = ShardRouter::new(DISK_SHARDS).covering_keys("disk-");
    let load = Load::new(&keys, DISK_WORKERS, 31, DISK_WRITE_FRACTION);
    let rows = [("file", DiskMode::File), ("wal", DiskMode::Wal)]
        .into_iter()
        .map(|(backend, mode)| {
            // The bounded recorded witness: three Zipf clients of 30 ops
            // each on the same backend and cluster shape, certified per
            // key.
            {
                let dir = scratch_dir(&format!("diskbench-witness-{backend}"));
                let cluster = cluster(&dir, mode);
                Load {
                    workers: 3,
                    seed: 300,
                    ..load
                }
                .witness(cluster.clients(), DISK_SHARDS, 30)
                .unwrap_or_else(|e| {
                    panic!("{backend}: the disk witness run must certify per key: {e}")
                });
            }
            measure(backend, mode, load, window)
        })
        .collect();
    DiskReport { rows }
}

fn cluster(dir: &ScratchDir, mode: DiskMode) -> LocalCluster {
    let factory = SharedMemory::factory(Transient::flavor());
    LocalCluster::udp_with_disk(3, factory, dir.path(), mode).expect("cluster")
}

fn measure(backend: &'static str, mode: DiskMode, load: Load, window: Duration) -> DiskRow {
    let dir = scratch_dir(&format!("diskbench-measure-{backend}"));
    let cluster = cluster(&dir, mode);
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(DISK_SHARDS)).expect("kv client");
    load.preload(&kv);
    // Count only steady-state traffic: reset what seeding logged.
    for pid in rmem_types::ProcessId::all(3) {
        cluster.storage_counters(pid).reset();
    }
    let run = load.run(&kv, None, |progress| {
        std::thread::sleep(window);
        progress.stop();
    });

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

    DiskRow {
        backend,
        completed_ops: run.completed,
        ops_per_sec: run.completed as f64 / run.elapsed.as_secs_f64(),
        write_fraction: DISK_WRITE_FRACTION,
        fsyncs_per_op: fsyncs as f64 / run.completed.max(1) as f64,
        mean_group_size: stores as f64 / commits.max(1) as f64,
        bytes_per_commit: bytes as f64 / commits.max(1) as f64,
        store_failures: failures,
        certified: true,
    }
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
