//! The `--obs` scenario: **wall-clock latency percentiles and the
//! instrumentation overhead gate** on the real UDP runtime.
//!
//! The virtual-time grid of [`crate::kv`] reports latencies in simulated
//! microseconds — exact, noise-free, and explicitly labeled `virtual`.
//! This scenario is its wall-clock counterpart: the same closed-loop Zipf
//! workload runs against a WAL-backed UDP cluster with the `rmem-obs`
//! stack live, and the row's p50/p90/p99/p999 come from the client's
//! `kv.get_micros` / `kv.put_micros` histograms — real time, measured by
//! the instruments the operator would read in production.
//!
//! The price of those instruments is the scenario's own acceptance gate.
//! Trials run **interleaved** — baseline (observability disabled: no
//! latency clocks, flight events dropped at the door) and instrumented
//! alternating, with the in-pair order itself alternating pair to pair —
//! so both slow drift of the host (thermal, cache, background load) and
//! positional effects (the second trial of a pair runs in the first's
//! teardown shadow) land on both sides equally.
//!
//! The gate itself is **deterministic**, because on a small multi-tenant
//! host the A/B difference is not: window-to-window wall-clock swings of
//! ±20% (steal time, scheduling) and a large fixed CPU component
//! (event-loop wakeups, amortized over however many ops the window
//! happened to complete) both dwarf a 3% budget, in either direction.
//! So the gate *prices* the instruments instead of differencing two
//! noisy runs:
//!
//! 1. the instrumented trials report exactly how often each primitive
//!    fired per completed op (flight events from the recorders' tickets,
//!    histogram samples and counter increments from the snapshot);
//! 2. tight in-process microbenchmarks price each primitive in CPU ns
//!    per call, measured with per-thread CPU time (`schedstat`) so host
//!    steal cannot distort them;
//! 3. priced overhead = Σ rate × unit cost — an *over*estimate, since
//!    counters and ungated histograms run on the baseline side too;
//! 4. the gate asserts priced overhead ≤ 3% of the **measured** baseline
//!    CPU per op (summed over every baseline trial's per-thread CPU).
//!
//! Wall-clock ops/s of both sides is still measured and reported (best
//! trial a side), and is the gate's fallback where `/proc` is
//! unavailable.
//!
//! The report also carries a full metrics-snapshot JSON — the client
//! registry (`kv.*`) merged per name with every node's registry
//! (`runner.*`, `syncer.*`, bridged `storage.*` gauges) — which CI
//! uploads as a build artifact.

use std::time::{Duration, Instant};

use rmem_core::{SharedMemory, Transient};
use rmem_kv::{KvClient, ShardRouter};
use rmem_net::{DiskMode, LocalCluster};
use rmem_obs::{MetricsSnapshot, ObsHandle};

use crate::load::{my_cpu_ns, scratch_dir, Load};

/// Shard count (and key universe) of the scenario.
pub const OBS_SHARDS: u16 = 16;

/// Put fraction of the workload (the mixed mix of the kv grid).
pub const OBS_WRITE_FRACTION: f64 = 0.5;

/// Closed-loop worker threads driving the cluster.
pub const OBS_WORKERS: u64 = 4;

/// Trials per side (baseline / instrumented), interleaved; each side
/// scores its best trial. Even, so the alternating in-pair order gives
/// both sides the same number of first-position runs.
pub const OBS_TRIALS: usize = 4;

/// The acceptance budget: the instrumented side must stay within this
/// fraction of the baseline (≤3% overhead, CPU per completed op).
pub const OVERHEAD_BUDGET: f64 = 0.03;

/// Wall-clock lease horizon of the leased gate re-run (`--lease`), in
/// µs. Short: at this scenario's 50% put mix a put that fails over past
/// a granted key's home node freezes its register for the fence term, so
/// the horizon is kept to a few round trips — enough for the lease path (zero-round `OpComplete`s on the
/// nodes' rings, `kv.lease_hits` on the client) to fire at real rates,
/// without the fences dominating the window.
pub const OBS_LEASE_MICROS: u64 = 500;

/// One trial's outcome.
#[derive(Debug, Clone)]
struct Trial {
    ops_per_sec: f64,
    completed_ops: u64,
    /// CPU nanoseconds the whole process (workers + node threads +
    /// syncers) spent inside the trial window; `None` off Linux.
    cpu_ns: Option<u64>,
    /// Flight events recorded across the client + every node (recorder
    /// tickets, so lapped events count too); 0 for baseline trials.
    flight_events: u64,
    /// Total histogram samples across the merged snapshot; 0 baseline.
    hist_samples: u64,
    /// Total counter increments across the merged snapshot; 0 baseline.
    counter_incs: u64,
    /// Client + per-node metrics, merged — instrumented trials only.
    metrics: Option<MetricsSnapshot>,
}

/// Deterministic unit costs of the observability primitives, in CPU ns
/// per call — the prices the gate multiplies the measured per-op rates
/// by. Measured with per-thread CPU time where available, so host steal
/// cannot distort them.
#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    /// One [`rmem_obs::FlightRecorder::record`] (timestamp included).
    pub flight_record_ns: f64,
    /// One counter increment.
    pub counter_inc_ns: f64,
    /// One histogram sample.
    pub histogram_record_ns: f64,
    /// One monotonic clock sample (`Instant::now`).
    pub clock_sample_ns: f64,
}

/// Prices each primitive with a tight in-process loop, timed by the
/// calling thread's own CPU clock (falling back to wall time off Linux).
pub fn measure_unit_costs() -> UnitCosts {
    fn priced<F: FnMut(u64)>(iters: u64, mut f: F) -> f64 {
        for i in 0..iters / 10 {
            f(i); // warm caches and the branch predictor
        }
        let cpu0 = my_cpu_ns();
        let t0 = Instant::now();
        for i in 0..iters {
            f(i);
        }
        let wall = t0.elapsed().as_nanos() as f64 / iters as f64;
        match (cpu0, my_cpu_ns()) {
            (Some(a), Some(b)) if b > a => (b - a) as f64 / iters as f64,
            _ => wall,
        }
    }
    let rec = rmem_obs::FlightRecorder::new(rmem_obs::FlightRecorder::DEFAULT_CAPACITY);
    let flight_record_ns = priced(1_000_000, |i| {
        rec.record(
            rmem_obs::FlightEvent::new(rmem_obs::EventKind::RoundSent)
                .with_op(0, i)
                .with_register((i % 16) as u16)
                .with_aux(i % 3),
        )
    });
    let reg = rmem_obs::Registry::new();
    let counter = reg.counter("price.counter");
    let counter_inc_ns = priced(2_000_000, |_| counter.inc());
    let histogram = reg.histogram("price.histogram");
    let histogram_record_ns = priced(2_000_000, |i| histogram.record(i));
    let clock_sample_ns = priced(1_000_000, |_| {
        std::hint::black_box(Instant::now());
    });
    UnitCosts {
        flight_record_ns,
        counter_inc_ns,
        histogram_record_ns,
        clock_sample_ns,
    }
}

/// Sum of CPU nanoseconds over every *live* thread of this process.
/// Threads that exit between the two samples of a window are not seen by
/// the second sample — callers have such threads report themselves (as
/// [`Load::run`]'s workers do).
fn live_threads_cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    // A thread may exit between readdir and read: skip it, its CPU is
    // accounted by its own exit-time self-report or not at all.
    for entry in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        if let Some(ns) = crate::load::thread_cpu_ns(&entry.path().join("schedstat")) {
            total += ns;
        }
    }
    Some(total)
}

/// The full `--obs` report.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Best uninstrumented ops/s across the interleaved trials.
    pub baseline_ops_per_sec: f64,
    /// Best instrumented ops/s across the interleaved trials.
    pub instrumented_ops_per_sec: f64,
    /// Uninstrumented CPU ns per completed op, summed over every
    /// baseline trial; `None` where `/proc` is unavailable.
    pub baseline_cpu_ns_per_op: Option<f64>,
    /// Instrumented CPU ns per completed op, summed over every
    /// instrumented trial.
    pub instrumented_cpu_ns_per_op: Option<f64>,
    /// Flight events recorded per completed op (instrumented trials).
    pub flight_events_per_op: f64,
    /// Histogram samples per completed op.
    pub hist_samples_per_op: f64,
    /// Counter increments per completed op.
    pub counter_incs_per_op: f64,
    /// The measured unit costs the gate priced those rates with.
    pub unit_costs: UnitCosts,
    /// Logical ops completed in the best instrumented trial.
    pub completed_ops: u64,
    /// Wall-clock get percentiles (µs) from `kv.get_micros`, best
    /// instrumented trial: `[p50, p90, p99, p999]`.
    pub get_percentiles_us: [u64; 4],
    /// Wall-clock put percentiles (µs) from `kv.put_micros`.
    pub put_percentiles_us: [u64; 4],
    /// The merged metrics snapshot of the best instrumented trial
    /// (client `kv.*`/`batch.*` + every node's `runner.*`/`syncer.*`/
    /// bridged `storage.*`).
    pub metrics: MetricsSnapshot,
}

impl ObsReport {
    /// The priced cost of the instruments, in CPU ns per completed op:
    /// every flight event, histogram sample (plus the two clock samples
    /// a gated latency histogram implies) and counter increment, at the
    /// measured unit prices. A deliberate overestimate — counters and
    /// ungated histograms run on the baseline side too.
    pub fn priced_overhead_ns_per_op(&self) -> f64 {
        self.flight_events_per_op * self.unit_costs.flight_record_ns
            + self.counter_incs_per_op * self.unit_costs.counter_inc_ns
            + self.hist_samples_per_op
                * (self.unit_costs.histogram_record_ns + 2.0 * self.unit_costs.clock_sample_ns)
    }

    /// Instrumented efficiency as a fraction of baseline (1.0 = free,
    /// 0.97 = the gate's floor). With a measured baseline CPU/op, this
    /// is `1 − priced overhead ÷ baseline CPU/op` — deterministic where
    /// an A/B wall-clock difference on a shared host is not; wall-clock
    /// throughput best-of-N is the fallback.
    pub fn overhead_ratio(&self) -> f64 {
        if let Some(base) = self.baseline_cpu_ns_per_op {
            if base > 0.0 {
                return 1.0 - self.priced_overhead_ns_per_op() / base;
            }
        }
        if self.baseline_ops_per_sec == 0.0 {
            return 0.0;
        }
        self.instrumented_ops_per_sec / self.baseline_ops_per_sec
    }

    /// The basis [`overhead_ratio`](ObsReport::overhead_ratio) used.
    pub fn gate_basis(&self) -> &'static str {
        match self.baseline_cpu_ns_per_op {
            Some(_) => "priced-cpu",
            None => "wall",
        }
    }

    /// Whether the instrumented side held the ≤3% overhead budget.
    pub fn within_budget(&self) -> bool {
        self.overhead_ratio() >= 1.0 - OVERHEAD_BUDGET
    }

    /// The scenario's JSON object: headline numbers, wall-clock
    /// percentiles (labeled `"time": "wall"` — the virtual-time grid
    /// labels its rows `"virtual"`), and the full metrics snapshot.
    pub fn to_json(&self) -> String {
        let cpu = |v: Option<f64>| match v {
            Some(ns) => format!("{ns:.0}"),
            None => "null".to_string(),
        };
        format!(
            "  {{\"scenario\": \"obs\", \"time\": \"wall\", \"write_fraction\": {:.2}, \
             \"baseline_ops_per_sec\": {:.1}, \"instrumented_ops_per_sec\": {:.1}, \
             \"baseline_cpu_ns_per_op\": {}, \"instrumented_cpu_ns_per_op\": {}, \
             \"gate_basis\": \"{}\", \"priced_overhead_ns_per_op\": {:.0}, \
             \"flight_events_per_op\": {:.2}, \"hist_samples_per_op\": {:.2}, \
             \"counter_incs_per_op\": {:.2}, \
             \"overhead_ratio\": {:.4}, \"completed_ops\": {}, \
             \"get_p50_us\": {}, \"get_p90_us\": {}, \"get_p99_us\": {}, \"get_p999_us\": {}, \
             \"put_p50_us\": {}, \"put_p90_us\": {}, \"put_p99_us\": {}, \"put_p999_us\": {}, \
             \"metrics\": {}}}",
            OBS_WRITE_FRACTION,
            self.baseline_ops_per_sec,
            self.instrumented_ops_per_sec,
            cpu(self.baseline_cpu_ns_per_op),
            cpu(self.instrumented_cpu_ns_per_op),
            self.gate_basis(),
            self.priced_overhead_ns_per_op(),
            self.flight_events_per_op,
            self.hist_samples_per_op,
            self.counter_incs_per_op,
            self.overhead_ratio(),
            self.completed_ops,
            self.get_percentiles_us[0],
            self.get_percentiles_us[1],
            self.get_percentiles_us[2],
            self.get_percentiles_us[3],
            self.put_percentiles_us[0],
            self.put_percentiles_us[1],
            self.put_percentiles_us[2],
            self.put_percentiles_us[3],
            self.metrics.to_json(),
        )
    }
}

/// Runs the scenario: `OBS_TRIALS` interleaved baseline/instrumented
/// pairs of the closed-loop workload on a WAL-backed UDP cluster; each
/// side keeps its best trial. `smoke` shortens the window for CI.
///
/// The workers issue single blocking `get`/`put`s of Zipf keys, or, with
/// `depth = Some(d)`, batches of `d` distinct-shard keys through the
/// pipelined `multi_get`/`multi_put` path, so the reactor's own
/// instruments (`kv.inflight` gauge, `kv.pipeline_depth` histogram) fire
/// and are priced by the same ≤3% gate. With `lease_micros > 0`, tag
/// leases of that horizon are armed on both sides, so the zero-round
/// path serves hot-key gets in baseline and instrumented trials alike
/// and the gate stays a fair A/B while the lease path is priced with
/// everything else.
///
/// # Panics
///
/// Panics if an operation errors terminally or a node's log fails.
pub fn obs_scenario(smoke: bool, depth: Option<usize>, lease_micros: u64) -> ObsReport {
    let window = if smoke {
        Duration::from_millis(250)
    } else {
        Duration::from_millis(1_000)
    };
    let keys = ShardRouter::new(OBS_SHARDS).covering_keys("obs-");
    let load = Load {
        depth: depth.map(|d| d.min(keys.len())),
        ..Load::new(&keys, OBS_WORKERS, 71, OBS_WRITE_FRACTION)
    };
    let mut baseline: Option<Trial> = None;
    let mut instrumented: Option<Trial> = None;
    // Per side: (total CPU ns, total completed ops) across every trial —
    // the gate's numerator and denominator. One failed `/proc` read
    // poisons the side to `None` (fall back to wall clock).
    let mut cpu_totals: [Option<(u64, u64)>; 2] = [Some((0, 0)), Some((0, 0))];
    // The instrument firing rates, totalled across every instrumented
    // trial: (ops, flight events, histogram samples, counter incs).
    let mut rates = (0u64, 0u64, 0u64, 0u64);
    for trial in 0..OBS_TRIALS {
        // The in-pair order alternates: the second trial of a pair runs
        // in the teardown shadow of the first (thread exits, WAL-dir
        // removal, socket close — real CPU on a small host), so a fixed
        // order would charge that shadow to one side systematically.
        // Alternating lands it on both sides equally, and the even trial
        // count gives each side the same number of first-position runs.
        let order = if trial % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for enabled in order {
            let t = run_trial(trial, enabled, window, load, lease_micros);
            let totals = &mut cpu_totals[enabled as usize];
            *totals = match (*totals, t.cpu_ns) {
                (Some((ns, ops)), Some(cpu)) => Some((ns + cpu, ops + t.completed_ops)),
                _ => None,
            };
            if enabled {
                rates.0 += t.completed_ops;
                rates.1 += t.flight_events;
                rates.2 += t.hist_samples;
                rates.3 += t.counter_incs;
            }
            let best = if enabled {
                &mut instrumented
            } else {
                &mut baseline
            };
            if best.as_ref().is_none_or(|b| t.ops_per_sec > b.ops_per_sec) {
                *best = Some(t);
            }
        }
    }
    let cpu_per_op = |side: usize| -> Option<f64> {
        let (ns, ops) = cpu_totals[side]?;
        (ops > 0).then(|| ns as f64 / ops as f64)
    };
    let per_op = |n: u64| n as f64 / rates.0.max(1) as f64;
    let baseline = baseline.expect("baseline trials ran");
    let instrumented = instrumented.expect("instrumented trials ran");
    let metrics = instrumented
        .metrics
        .expect("instrumented trials carry a snapshot");
    let percentiles = |name: &str| -> [u64; 4] {
        let h = metrics.histogram(name);
        [
            h.percentile(0.50),
            h.percentile(0.90),
            h.percentile(0.99),
            h.percentile(0.999),
        ]
    };
    ObsReport {
        baseline_ops_per_sec: baseline.ops_per_sec,
        instrumented_ops_per_sec: instrumented.ops_per_sec,
        baseline_cpu_ns_per_op: cpu_per_op(0),
        instrumented_cpu_ns_per_op: cpu_per_op(1),
        flight_events_per_op: per_op(rates.1),
        hist_samples_per_op: per_op(rates.2),
        counter_incs_per_op: per_op(rates.3),
        unit_costs: measure_unit_costs(),
        completed_ops: instrumented.completed_ops,
        get_percentiles_us: percentiles("kv.get_micros"),
        put_percentiles_us: percentiles("kv.put_micros"),
        metrics,
    }
}

/// One trial: fresh WAL-backed UDP cluster and client family, both with
/// observability `enabled` or disabled, driven by `load` for `window`.
fn run_trial(
    trial: usize,
    enabled: bool,
    window: Duration,
    load: Load,
    lease_micros: u64,
) -> Trial {
    // Let the previous trial's teardown drain before the clock starts:
    // its node threads, syncers and sockets release the CPU they still
    // hold, so their shutdown cost is not charged to this trial's window.
    std::thread::sleep(Duration::from_millis(100));
    let side = if enabled { "obs" } else { "base" };
    let dir = scratch_dir(&format!("obsbench-{trial}-{side}"));
    let cluster = LocalCluster::udp_with_disk_obs(
        3,
        SharedMemory::factory(Transient::flavor().with_lease(lease_micros)),
        dir.path(),
        DiskMode::Wal,
        enabled,
    )
    .expect("cluster");
    let handle = if enabled {
        ObsHandle::new()
    } else {
        ObsHandle::disabled()
    };
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(OBS_SHARDS))
        .expect("kv client")
        .with_obs(handle);
    load.preload(&kv);

    // The long-lived threads (main + the cluster's event loops and
    // syncers) are sampled before and after the window; the delta plus
    // the workers' self-reports is the trial's total CPU.
    let cpu_before = live_threads_cpu_ns();
    let run = load.run(&kv, None, |progress| {
        std::thread::sleep(window);
        progress.stop();
    });
    let cpu_ns = match (cpu_before, live_threads_cpu_ns(), run.worker_cpu_ns) {
        (Some(before), Some(after), Some(workers)) => Some(after.saturating_sub(before) + workers),
        _ => None,
    };

    let metrics = enabled.then(|| {
        // One snapshot covering the stack: the client family's registry
        // plus every node's, merged per name (counters/histograms add,
        // gauges keep the max).
        let mut merged = kv.metrics();
        for pid in rmem_types::ProcessId::all(3) {
            merged.merge(&cluster.metrics(pid));
        }
        merged
    });
    // How often each primitive fired, for the gate's pricing. Recorder
    // tickets count lapped events too; counter values and histogram
    // counts come straight off the snapshot.
    let flight_events = if enabled {
        kv.flight_recorder().total_recorded()
            + rmem_types::ProcessId::all(3)
                .map(|pid| cluster.flight_recorder(pid).total_recorded())
                .sum::<u64>()
    } else {
        0
    };
    let (hist_samples, counter_incs) = metrics
        .as_ref()
        .map(|m| {
            // The pipelined driver's `kv.inflight` gauge writes are not
            // visible in the snapshot (gauges store values, not counts),
            // but each `kv.pipeline_depth` sample is bracketed by at most
            // two of them (set + zero). A gauge set is the same primitive
            // as a counter increment (one relaxed store), so price them
            // as two extra increments per depth sample — the gate's usual
            // deliberate overestimate.
            let gauge_sets = 2 * m.histogram("kv.pipeline_depth").count;
            (
                m.histograms.values().map(|h| h.count).sum(),
                m.counters.values().sum::<u64>() + gauge_sets,
            )
        })
        .unwrap_or((0, 0));
    Trial {
        ops_per_sec: run.completed as f64 / run.elapsed.as_secs_f64(),
        completed_ops: run.completed,
        cpu_ns,
        flight_events,
        hist_samples,
        counter_incs,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenario_reports_wall_clock_percentiles_and_a_snapshot() {
        let report = obs_scenario(true, None, 0);
        assert!(report.baseline_ops_per_sec > 0.0);
        assert!(report.instrumented_ops_per_sec > 0.0);
        assert!(report.completed_ops > 0);
        // The instrumented trial's clocks ran: percentile floors are
        // monotone and non-degenerate.
        assert!(report.get_percentiles_us[0] > 0, "get p50 must be real");
        assert!(report.put_percentiles_us[0] > 0, "put p50 must be real");
        for w in report.get_percentiles_us.windows(2) {
            assert!(w[0] <= w[1], "percentiles must be monotone");
        }
        // The merged snapshot spans every layer.
        assert!(report.metrics.counter("kv.reads") > 0);
        assert!(report.metrics.counter("runner.ops_completed") > 0);
        assert!(report.metrics.counter("syncer.commits") > 0);
        assert!(report.metrics.gauge("storage.stores") > 0);
        assert_eq!(
            report.metrics.histogram("kv.get_micros").count
                + report.metrics.histogram("kv.put_micros").count,
            report.metrics.counter("kv.reads") + report.metrics.counter("kv.writes"),
            "every logical op must carry one wall-clock sample"
        );
        // The priced gate's inputs are real: every instrument fired, and
        // the microbenched unit costs are positive and sane (well under
        // a microsecond each).
        assert!(report.flight_events_per_op > 0.0);
        assert!(report.hist_samples_per_op > 0.0);
        assert!(report.counter_incs_per_op > 0.0);
        for cost in [
            report.unit_costs.flight_record_ns,
            report.unit_costs.counter_inc_ns,
            report.unit_costs.histogram_record_ns,
            report.unit_costs.clock_sample_ns,
        ] {
            assert!(
                cost > 0.0 && cost < 1_000.0,
                "unit cost {cost} ns out of range"
            );
        }
        assert!(report.priced_overhead_ns_per_op() > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"scenario\": \"obs\""));
        assert!(json.contains("\"time\": \"wall\""));
        assert!(json.contains("\"kv.get_micros\""));
        assert!(json.contains("\"gate_basis\""));
        // No throughput-gate assertion here: the bin applies the priced
        // gate (and CI runs the bin); this test only pins that its
        // inputs are populated.
    }
}
