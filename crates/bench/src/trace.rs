//! The `--trace` scenario: **cross-node causal tracing with per-op
//! critical-path attribution** on the real UDP runtime.
//!
//! A WAL-backed UDP cluster runs the closed-loop workload with tracing
//! on (deep flight-recorder rings on every node and on the client
//! family, trace context propagated in every datagram), then every ring
//! is dumped and stitched into one causal timeline per completed op —
//! every ring of the process reads one clock — and each op's latency is
//! decomposed into named segments — client queue, coordinator compute,
//! wire out, replica compute, store wait, wire back.
//!
//! The scenario's gates (asserted by the `kv_throughput` bin):
//!
//! * **coverage** — ≥99% of completed ops stitch into complete causal
//!   timelines;
//! * **causality** — zero effect-before-cause violations, with no
//!   slack;
//! * **attribution** — each op's segments sum to its client-observed
//!   wall clock within 5%;
//! * **overhead** — the PR 6 priced ≤3% instrumentation gate re-runs
//!   with tracing on (tracing is part of the instrumented side of
//!   [`crate::obs`] now, so `--trace` simply re-asserts that scenario).

use rmem_core::{SharedMemory, Transient};
use rmem_kv::{KvClient, ShardRouter};
use rmem_net::{DiskMode, LocalCluster};
use rmem_obs::trace::{TraceReport, SEGMENTS};
use rmem_obs::ObsHandle;
use rmem_types::ProcessId;

use crate::load::{scratch_dir, Load};

/// Nodes in the traced cluster.
pub const TRACE_NODES: u16 = 3;

/// Shard count (and key universe) of the scenario.
pub const TRACE_SHARDS: u16 = 16;

/// Put fraction of the workload.
pub const TRACE_WRITE_FRACTION: f64 = 0.5;

/// Closed-loop worker threads driving the cluster.
pub const TRACE_WORKERS: u64 = 2;

/// Flight-recorder ring capacity used on every node and on the client
/// family: 2^17 slots × 48 bytes = 6 MiB per ring (6.4 MiB with its
/// spill slots). Stitching needs every
/// event of the measured window still in its ring, so the rings are
/// sized to the op budget below with an order of magnitude of headroom.
pub const TRACE_RING_CAPACITY: usize = 1 << 17;

/// Ops per worker (full-size run; the smoke run quarters it). Bounded —
/// not a time window — so the event volume cannot outrun the rings.
pub const TRACE_OPS_PER_WORKER: u64 = 2_000;

/// The coverage gate: at least this fraction of completed ops must
/// stitch into full causal timelines.
pub const COVERAGE_FLOOR: f64 = 0.99;

/// The attribution gate: each stitched op's segment sum must land within
/// this relative distance of its client-observed wall clock.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.05;

/// How many slowest-op exemplar timelines the scenario renders/exports.
pub const TRACE_EXEMPLARS: usize = 5;

/// Per-segment attribution percentiles, microseconds.
#[derive(Debug, Clone)]
pub struct SegmentRow {
    /// Segment name (see [`rmem_obs::trace::SEGMENTS`]).
    pub name: &'static str,
    /// Median attribution across stitched ops.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// This segment's share of the total attributed time.
    pub share: f64,
}

/// The full `--trace` report.
#[derive(Debug, Clone)]
pub struct TraceBenchReport {
    /// Logical ops the workers completed.
    pub completed_ops: u64,
    /// Wall-clock throughput of the traced run.
    pub ops_per_sec: f64,
    /// The stitch itself: stitched ops, violation count.
    pub report: TraceReport,
    /// Per-segment p50/p99 attribution across every stitched op.
    pub segments: Vec<SegmentRow>,
    /// Total `runner.trace_evictions` across the nodes: how many
    /// request→op trace bindings the bounded per-runner map pushed out.
    /// In steady state this must be zero — an evicted binding leaves an
    /// ack unstamped and its op unstitchable, which would silently eat
    /// into the coverage gate.
    pub trace_evictions: u64,
}

impl TraceBenchReport {
    /// The scenario's JSON row for the benchmark output.
    pub fn to_json(&self) -> String {
        let segs: Vec<String> = self
            .segments
            .iter()
            .map(|s| {
                format!(
                    "\"{}\": {{\"p50_us\": {}, \"p99_us\": {}, \"share\": {:.4}}}",
                    s.name, s.p50_us, s.p99_us, s.share
                )
            })
            .collect();
        format!(
            "  {{\"scenario\": \"trace\", \"time\": \"wall\", \"write_fraction\": {:.2}, \
             \"completed_ops\": {}, \"ops_per_sec\": {:.1}, \
             \"stitched\": {}, \"incomplete\": {}, \"coverage\": {:.4}, \
             \"violations\": {}, \"max_attribution_error\": {:.4}, \
             \"trace_evictions\": {}, \"segments\": {{{}}}}}",
            TRACE_WRITE_FRACTION,
            self.completed_ops,
            self.ops_per_sec,
            self.report.stitched.len(),
            self.report.incomplete,
            self.report.coverage(),
            self.report.violations,
            self.report.max_attribution_error(),
            self.trace_evictions,
            segs.join(", "),
        )
    }

    /// The human-readable attribution table the bin prints.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "{:<16} {:>10} {:>10} {:>7}\n",
            "segment", "p50 (µs)", "p99 (µs)", "share"
        );
        for s in &self.segments {
            out.push_str(&format!(
                "{:<16} {:>10} {:>10} {:>6.1}%\n",
                s.name,
                s.p50_us,
                s.p99_us,
                s.share * 100.0
            ));
        }
        out
    }
}

/// Runs the scenario: a traced closed-loop workload on a WAL-backed UDP
/// cluster, then stitches every ring into the causal report. `smoke`
/// quarters the op budget for CI.
///
/// # Panics
///
/// Panics if an operation errors terminally or a node's log fails.
pub fn trace_scenario(smoke: bool) -> TraceBenchReport {
    let per_worker = if smoke {
        TRACE_OPS_PER_WORKER / 4
    } else {
        TRACE_OPS_PER_WORKER
    };
    let dir = scratch_dir("tracebench");
    let cluster = LocalCluster::udp_with_disk_obs_sized(
        usize::from(TRACE_NODES),
        SharedMemory::factory(Transient::flavor()),
        dir.path(),
        DiskMode::Wal,
        true,
        TRACE_RING_CAPACITY,
    )
    .expect("cluster");
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(TRACE_SHARDS))
        .expect("kv client")
        .with_obs(ObsHandle::with_capacity(TRACE_RING_CAPACITY));
    let keys = ShardRouter::new(TRACE_SHARDS).covering_keys("trace-");
    let load = Load::new(&keys, TRACE_WORKERS, 1009, TRACE_WRITE_FRACTION);
    load.preload(&kv);
    let run = load.run(&kv, Some(per_worker), |_| {});

    // Dump every ring — the nodes' and the client family's — and stitch.
    let mut rings = cluster.ring_dumps();
    rings.push(kv.trace_ring_dump().expect("tracing was on"));
    let report = rmem_obs::trace::stitch(&rings);

    // Segment histograms through the client family's registry, then the
    // percentile table off the snapshot.
    report.record_segments(kv.metrics_registry());
    let snapshot = kv.metrics();
    let total_attributed: f64 = report
        .stitched
        .iter()
        .map(|op| op.attributed_us())
        .sum::<f64>()
        .max(1.0);
    let segments = SEGMENTS
        .iter()
        .map(|name| {
            let hist = snapshot.histogram(&format!("trace.{name}_us"));
            let sum: f64 = report
                .stitched
                .iter()
                .map(|op| op.segments[SEGMENTS.iter().position(|s| s == name).expect("segment")])
                .sum();
            SegmentRow {
                name,
                p50_us: hist.percentile(0.50),
                p99_us: hist.percentile(0.99),
                share: sum / total_attributed,
            }
        })
        .collect();

    // The request-trace maps are bounded per runner; in steady state
    // nothing should ever be evicted (the gate in the bin asserts zero).
    let trace_evictions = (0..TRACE_NODES)
        .map(|i| {
            cluster
                .metrics(ProcessId(i))
                .counter("runner.trace_evictions")
        })
        .sum();

    TraceBenchReport {
        completed_ops: run.completed,
        ops_per_sec: run.completed as f64 / run.elapsed.as_secs_f64(),
        report,
        segments,
        trace_evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenario_stitches_with_coverage_and_exact_attribution() {
        let r = trace_scenario(true);
        assert!(r.completed_ops > 0);
        // The trace-level count also covers the seed puts, so it
        // dominates.
        assert!(
            r.report.completed as u64 >= r.completed_ops,
            "every worker op must appear as a completed trace ({} < {})",
            r.report.completed,
            r.completed_ops
        );
        assert!(
            r.report.coverage() >= COVERAGE_FLOOR,
            "stitched coverage {:.4} under the {COVERAGE_FLOOR} floor \
             ({} stitched / {} completed, {} incomplete)",
            r.report.coverage(),
            r.report.stitched.len(),
            r.report.completed,
            r.report.incomplete,
        );
        assert_eq!(
            r.report.violations,
            0,
            "effect-before-cause:\n{}",
            r.report.render_exemplars(3)
        );
        assert!(
            r.report.max_attribution_error() <= ATTRIBUTION_TOLERANCE,
            "attribution must telescope to wall clock (worst {:.4})",
            r.report.max_attribution_error()
        );
        // Steady state never overflows the bounded request-trace maps —
        // an eviction would mean a silently unstitchable op.
        assert_eq!(
            r.trace_evictions, 0,
            "the runners' request-trace maps must not evict in steady state"
        );
        // The attribution table is fully populated and shares sum to 1.
        assert_eq!(r.segments.len(), SEGMENTS.len());
        let share_sum: f64 = r.segments.iter().map(|s| s.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-6, "shares sum to {share_sum}");
        // Exemplars render and serialize.
        assert!(!r.report.render_exemplars(TRACE_EXEMPLARS).is_empty());
        let json = r.to_json();
        assert!(json.contains("\"scenario\": \"trace\""));
        assert!(json.contains("\"store_wait\""));
    }
}
