//! The `--pipeline-depth` scenario: **ops/s scaling with pipeline depth**
//! on the real-threaded runtime — one client thread keeping up to `depth`
//! operations in flight through the event-driven reactor, measured on
//! wall clocks against a 3-node channel cluster.
//!
//! Each row runs the same uniform write-heavy workload (batches of
//! `depth` distinct-shard keys rotating over a 64-shard covering set, 90%
//! puts) at one depth; the depth-1 row **is** the single-thread blocking
//! baseline — the pipelined driver degenerates to submit-then-wait — so
//! the column reads directly as "what pipelining buys one thread".
//! Throughput divides completed logical ops by the loop's **real elapsed
//! time** (first submit to last completion), never a nominal window.
//!
//! Like every [`crate::load`] section, the scenario splits measurement
//! from certification: a full-speed unrecorded run produces the numbers
//! (and, with no recorder attached, exercises the zero-copy submission
//! path), while a bounded recorded twin of the same shape must pass
//! per-key certification before the row is reported.
//!
//! Every measured run asserts its own hygiene: the `kv.inflight` gauge
//! must read zero after the loop (a leaked or wedged slot would hold it
//! up), and the `kv.pipeline_depth` histogram's sample count and mean are
//! reported so the row shows the depth the reactor actually sustained,
//! not just the one requested.

use std::time::Duration;

use rmem_core::{SharedMemory, Transient};
use rmem_kv::{KvClient, ShardRouter};
use rmem_net::LocalCluster;

use crate::load::Load;

/// Shard (and register) universe of the sweep: large enough that a
/// depth-64 batch occupies 64 distinct registers, so per-register
/// sequentiality never caps the requested depth.
pub const PIPELINE_SHARDS: u16 = 64;

/// Put fraction of the workload (the "uniform write-heavy row").
pub const PIPELINE_WRITE_FRACTION: f64 = 0.9;

/// The depth axis: powers of four, clipped to the requested maximum.
pub fn depth_axis(max_depth: usize) -> Vec<usize> {
    let mut depths: Vec<usize> = [1usize, 4, 16, 64]
        .into_iter()
        .filter(|&d| d <= max_depth)
        .collect();
    if *depths.last().expect("depth 1 always present") != max_depth {
        depths.push(max_depth);
    }
    depths
}

/// One depth's measurement.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// Requested pipeline depth (batch size; distinct shards per batch).
    pub depth: usize,
    /// Logical store operations completed.
    pub completed_ops: u64,
    /// Real elapsed seconds of the measured loop.
    pub elapsed_secs: f64,
    /// Completed logical operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Mean in-flight depth the reactor actually sustained, from the
    /// `kv.pipeline_depth` histogram (0.0 at depth 1: the depth-1 driver
    /// never has more than one op to report).
    pub observed_mean_depth: f64,
    /// Whether the bounded recorded twin of this shape passed per-key
    /// certification (the scenario panics otherwise, so a row in hand
    /// means `true`).
    pub certified: bool,
}

/// The full `--pipeline-depth` report.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// One row per depth, in sweep order (depth 1 first).
    pub rows: Vec<PipelineRow>,
}

impl PipelineReport {
    /// The row measured at `depth`.
    ///
    /// # Panics
    ///
    /// Panics if the sweep did not include `depth`.
    pub fn row(&self, depth: usize) -> &PipelineRow {
        self.rows
            .iter()
            .find(|r| r.depth == depth)
            .unwrap_or_else(|| panic!("no pipeline row at depth {depth}"))
    }

    /// Deepest row's ops/s over the depth-1 row's — the headline
    /// "what pipelining buys one thread" number.
    pub fn speedup(&self) -> f64 {
        let base = self.row(1).ops_per_sec;
        let deepest = self.rows.last().expect("sweep is non-empty");
        if base == 0.0 {
            return 0.0;
        }
        deepest.ops_per_sec / base
    }

    /// Serializes the sweep as one JSON object whose `rows` array labels
    /// every row with its depth (appended to the `BENCH_kv.json`
    /// trajectory next to the virtual-time grid).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"depth\": {}, \"completed_ops\": {}, \"elapsed_secs\": {:.6}, \
                     \"ops_per_sec\": {:.1}, \"observed_mean_depth\": {:.2}, \
                     \"certified\": {}}}",
                    r.depth,
                    r.completed_ops,
                    r.elapsed_secs,
                    r.ops_per_sec,
                    r.observed_mean_depth,
                    r.certified,
                )
            })
            .collect();
        format!(
            "  {{\"scenario\": \"pipeline\", \"time\": \"wall\", \"shards\": {}, \
             \"write_fraction\": {:.2}, \"speedup\": {:.2}, \"rows\": [\n{}\n  ]}}",
            PIPELINE_SHARDS,
            PIPELINE_WRITE_FRACTION,
            self.speedup(),
            rows.join(",\n"),
        )
    }
}

/// One measured row: a certified recorded twin, then a fresh cluster and
/// an instrumented unrecorded client (zero-copy submissions), one thread
/// driving batches of `depth` for `window` of real time.
///
/// # Panics
///
/// Panics if the twin fails certification or the in-flight gauge does
/// not settle to zero.
fn measure(depth: usize, window: Duration) -> PipelineRow {
    let keys = ShardRouter::new(PIPELINE_SHARDS).covering_keys("pl-");
    // One worker whose values are its bare write counter.
    let load = |seed| Load {
        writer_base: 0,
        depth: Some(depth),
        ..Load::new(&keys, 1, seed, PIPELINE_WRITE_FRACTION)
    };
    let mut cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    load(depth as u64)
        .witness(cluster.clients(), PIPELINE_SHARDS, 6)
        .unwrap_or_else(|e| {
            eprintln!("{}", cluster.dump_flight_recorders(120));
            panic!("pipeline witness at depth {depth} failed certification: {e}")
        });
    cluster.shutdown();

    let mut cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let load = load(42 + depth as u64);
    // Preload through a separate client family so the seeding puts don't
    // pollute the measured client's `kv.pipeline_depth` histogram (each
    // family has its own registry).
    load.preload(&KvClient::new(cluster.clients(), ShardRouter::new(PIPELINE_SHARDS)).unwrap());
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(PIPELINE_SHARDS)).unwrap();
    let run = load.run(&kv, None, |progress| {
        std::thread::sleep(window);
        progress.stop();
    });

    let metrics = kv.metrics();
    assert_eq!(
        metrics.gauge("kv.inflight"),
        0,
        "depth {depth}: the in-flight gauge must settle to zero — a leaked \
         or wedged op-table slot would hold it up"
    );
    let depth_hist = metrics.histogram("kv.pipeline_depth");
    cluster.shutdown();
    let elapsed_secs = run.elapsed.as_secs_f64();
    PipelineRow {
        depth,
        completed_ops: run.completed,
        elapsed_secs,
        ops_per_sec: run.completed as f64 / elapsed_secs,
        observed_mean_depth: if depth_hist.count > 0 {
            depth_hist.mean()
        } else {
            0.0
        },
        certified: true,
    }
}

/// Runs the sweep: one certified, measured row per depth on the axis up
/// to `max_depth`. `smoke` shortens the per-row window for CI.
///
/// # Panics
///
/// Panics if any witness run fails certification or a measured run
/// leaves the in-flight gauge nonzero.
pub fn pipeline_scenario(smoke: bool, max_depth: usize) -> PipelineReport {
    let window = if smoke {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(600)
    };
    let rows = depth_axis(max_depth)
        .into_iter()
        .map(|depth| measure(depth, window))
        .collect();
    PipelineReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_axis_clips_and_includes_the_maximum() {
        assert_eq!(depth_axis(64), vec![1, 4, 16, 64]);
        assert_eq!(depth_axis(16), vec![1, 4, 16]);
        assert_eq!(depth_axis(8), vec![1, 4, 8]);
        assert_eq!(depth_axis(1), vec![1]);
    }

    #[test]
    fn smoke_sweep_certifies_scales_and_serializes() {
        let report = pipeline_scenario(true, 4);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert!(row.certified);
            assert!(row.completed_ops > 0, "depth {} ran nothing", row.depth);
            assert!(row.ops_per_sec > 0.0);
        }
        // Depth 4 keeps more than one op in flight where depth 1 cannot.
        assert!(
            report.row(4).observed_mean_depth > 1.0,
            "the reactor must actually sustain depth (got {:.2})",
            report.row(4).observed_mean_depth
        );
        let json = report.to_json();
        assert!(json.contains("\"scenario\": \"pipeline\""));
        assert!(json.contains("\"depth\": 4"));
        assert!(json.contains("\"speedup\""));
    }
}
