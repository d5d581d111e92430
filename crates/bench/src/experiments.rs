//! The experiment implementations.

use std::sync::Arc;

use rmem_core::{CrashStop, FlavorFactory, Persistent, Regular, Transient};
use rmem_sim::workload::ClosedLoop;
use rmem_sim::{ClusterConfig, LatencyStats, PlannedEvent, Schedule, Simulation};
use rmem_types::{Micros, Op, OpKind, ProcessId, Value};

use crate::table::Table;

/// The algorithms compared by the paper's first experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoChoice {
    /// Crash-stop baseline (no logs).
    CrashStop,
    /// Transient atomic (1 causal log per write).
    Transient,
    /// Persistent atomic (2 causal logs per write).
    Persistent,
    /// Single-writer regular register (§VI extension).
    Regular,
}

impl AlgoChoice {
    /// The three algorithms of Fig. 6.
    pub const FIG6: [AlgoChoice; 3] = [
        AlgoChoice::CrashStop,
        AlgoChoice::Transient,
        AlgoChoice::Persistent,
    ];

    /// Factory for this choice.
    pub fn factory(self) -> Arc<FlavorFactory> {
        match self {
            AlgoChoice::CrashStop => CrashStop::factory(),
            AlgoChoice::Transient => Transient::factory(),
            AlgoChoice::Persistent => Persistent::factory(),
            AlgoChoice::Regular => Regular::factory(),
        }
    }

    /// Display name matching the paper's legend.
    pub fn name(self) -> &'static str {
        match self {
            AlgoChoice::CrashStop => "atomic crash-stop",
            AlgoChoice::Transient => "transient crash-recovery",
            AlgoChoice::Persistent => "persistent crash-recovery",
            AlgoChoice::Regular => "regular (SWMR)",
        }
    }
}

/// Runs `writes` back-to-back writes of `payload` bytes at one writer on a
/// cluster of `n` and returns the write-latency statistics — the paper's
/// measurement loop ("repeating the write fifty times and finally
/// averaging the write times", §V-B).
fn measure_writes(
    algo: AlgoChoice,
    n: usize,
    writes: usize,
    payload: usize,
    seed: u64,
) -> LatencyStats {
    let value = Value::new(vec![0xA5u8; payload]);
    let mut sim = Simulation::new(ClusterConfig::new(n), algo.factory(), seed);
    sim.add_closed_loop(ClosedLoop::writes(ProcessId(0), value, writes).with_think(Micros(50)));
    let report = sim.run();
    let lats = report.trace.latencies(OpKind::Write);
    assert_eq!(
        lats.len(),
        writes,
        "{}: every write must complete",
        algo.name()
    );
    LatencyStats::from_sample(lats).expect("non-empty sample")
}

/// One row of the Fig. 6 (top) reproduction.
#[derive(Debug, Clone)]
pub struct Fig6TopRow {
    /// Cluster size.
    pub n: usize,
    /// Algorithm.
    pub algo: AlgoChoice,
    /// Mean write latency in µs.
    pub mean_us: f64,
    /// The paper's reference value at N=5, when it quotes one.
    pub paper_us_at_5: Option<f64>,
}

/// Reproduces **Fig. 6 (top)**: average write time (4-byte value) vs.
/// number of workstations, for the three algorithms.
pub fn fig6_top() -> (Vec<Fig6TopRow>, Table) {
    let mut rows = Vec::new();
    let mut table = Table::new(
        "Fig. 6 (top): avg write latency [µs] vs cluster size (4-byte value, 50 writes)",
        &["algorithm", "N=3", "N=5", "N=7", "N=9"],
    );
    for algo in AlgoChoice::FIG6 {
        let mut cells = vec![algo.name().to_string()];
        for (i, n) in [3usize, 5, 7, 9].into_iter().enumerate() {
            let stats = measure_writes(algo, n, 50, 4, 0xF160 + i as u64);
            if n == 5 {
                rows.push(Fig6TopRow {
                    n,
                    algo,
                    mean_us: stats.mean,
                    paper_us_at_5: Some(match algo {
                        AlgoChoice::CrashStop => 500.0,
                        AlgoChoice::Transient => 700.0,
                        AlgoChoice::Persistent => 900.0,
                        AlgoChoice::Regular => unreachable!(),
                    }),
                });
            } else {
                rows.push(Fig6TopRow {
                    n,
                    algo,
                    mean_us: stats.mean,
                    paper_us_at_5: None,
                });
            }
            cells.push(format!("{:.0}", stats.mean));
        }
        table.row(&cells);
    }
    (rows, table)
}

/// One row of the Fig. 6 (bottom) reproduction.
#[derive(Debug, Clone)]
pub struct Fig6BottomRow {
    /// Payload size in bytes.
    pub size: usize,
    /// Algorithm.
    pub algo: AlgoChoice,
    /// Mean write latency in µs.
    pub mean_us: f64,
}

/// Reproduces **Fig. 6 (bottom)**: average write time vs. payload size at
/// N = 5 (sizes capped at the 64 KB UDP datagram limit, §V-B).
pub fn fig6_bottom() -> (Vec<Fig6BottomRow>, Table) {
    let sizes = [
        4usize,
        1 << 10,
        4 << 10,
        8 << 10,
        16 << 10,
        32 << 10,
        64 << 10,
    ];
    let mut rows = Vec::new();
    let mut table = Table::new(
        "Fig. 6 (bottom): avg write latency [µs] vs payload size (N=5, 50 writes)",
        &["size [B]", "atomic crash-stop", "transient", "persistent"],
    );
    for (i, size) in sizes.into_iter().enumerate() {
        let mut cells = vec![size.to_string()];
        for algo in AlgoChoice::FIG6 {
            let stats = measure_writes(algo, 5, 50, size, 0xB070 + i as u64);
            rows.push(Fig6BottomRow {
                size,
                algo,
                mean_us: stats.mean,
            });
            cells.push(format!("{:.0}", stats.mean));
        }
        table.row(&cells);
    }
    (rows, table)
}

/// One row of the log-complexity table.
#[derive(Debug, Clone)]
pub struct LogTableRow {
    /// Algorithm.
    pub algo: &'static str,
    /// Measured causal logs for an uncontended write.
    pub write_logs: u32,
    /// Measured causal logs for an uncontended read.
    pub read_logs_uncontended: u32,
    /// Measured causal logs for a read racing a write (worst case seen).
    pub read_logs_contended: u32,
    /// The paper's bound for writes (Theorem 1 / §IV-C).
    pub bound_write: u32,
    /// The paper's bound for reads (Theorem 2).
    pub bound_read: u32,
}

/// Measures **causal logs per operation** for every algorithm — the
/// paper's §IV complexity table turned into an experiment. Uncontended
/// operations run in isolation; the contended read races a concurrent
/// write.
pub fn log_table() -> (Vec<LogTableRow>, Table) {
    let algos = [
        (AlgoChoice::Persistent, 2u32, 1u32),
        (AlgoChoice::Transient, 1, 1),
        (AlgoChoice::CrashStop, 0, 0),
        (AlgoChoice::Regular, 1, 0),
    ];
    let mut rows = Vec::new();
    let mut table = Table::new(
        "Causal logs per operation: measured vs the paper's tight bounds (§IV)",
        &[
            "algorithm",
            "write",
            "read (idle)",
            "read (contended)",
            "bound W",
            "bound R",
        ],
    );
    for (algo, bound_w, bound_r) in algos {
        // Uncontended: spaced sequential ops.
        let mut sim = Simulation::new(ClusterConfig::new(5), algo.factory(), 0x10).with_schedule(
            Schedule::new()
                .at(
                    1_000,
                    PlannedEvent::Invoke(ProcessId(0), Op::Write(Value::from_u32(1))),
                )
                .at(20_000, PlannedEvent::Invoke(ProcessId(1), Op::Read))
                .at(
                    40_000,
                    PlannedEvent::Invoke(ProcessId(0), Op::Write(Value::from_u32(2))),
                )
                .at(60_000, PlannedEvent::Invoke(ProcessId(2), Op::Read)),
        );
        let report = sim.run();
        let write_logs = report.trace.max_causal_logs(OpKind::Write);
        let read_idle = report.trace.max_causal_logs(OpKind::Read);

        // Contended: a read racing a write's propagation phase.
        let mut sim = Simulation::new(ClusterConfig::new(5), algo.factory(), 0x11).with_schedule(
            Schedule::new()
                .at(
                    1_000,
                    PlannedEvent::Invoke(ProcessId(0), Op::Write(Value::from_u32(9))),
                )
                .at(1_450, PlannedEvent::Invoke(ProcessId(1), Op::Read))
                .at(
                    10_000,
                    PlannedEvent::Invoke(ProcessId(0), Op::Write(Value::from_u32(10))),
                )
                .at(10_250, PlannedEvent::Invoke(ProcessId(2), Op::Read)),
        );
        let report = sim.run();
        let read_contended = report.trace.max_causal_logs(OpKind::Read);

        let name = algo.factory().flavor().name;
        rows.push(LogTableRow {
            algo: name,
            write_logs,
            read_logs_uncontended: read_idle,
            read_logs_contended: read_contended,
            bound_write: bound_w,
            bound_read: bound_r,
        });
        table.row(&[
            name.to_string(),
            write_logs.to_string(),
            read_idle.to_string(),
            read_contended.to_string(),
            bound_w.to_string(),
            bound_r.to_string(),
        ]);
    }
    (rows, table)
}

/// One row of the recovery-cost table.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Algorithm.
    pub algo: &'static str,
    /// Mean Recover→ready duration in µs when the crash interrupted a
    /// write (the recovery has real work to do).
    pub busy_crash_us: f64,
    /// Mean duration when the crash hit an idle process.
    pub idle_crash_us: f64,
    /// Mean duration when a write completed on the surviving majority
    /// while the (idle) process was down: it recovers one write behind.
    pub stale_us: f64,
}

/// **Extension experiment**: the cost of each algorithm's recovery
/// procedure — the flip side of the per-operation log counts. Persistent
/// recovery re-runs a propagation round (≈ one round-trip, plus replica
/// logs if the interrupted write was not yet adopted); transient recovery
/// is one log (the `rec` counter, ≈ λ); the crash-stop baseline recovers
/// in zero time because it restores nothing — and loses everything.
///
/// The fast-path flavors also catch up: a read query round (2δ) run
/// *beside* the figure's procedure, so an up-to-date process recovers in
/// max(λ, 2δ) (transient) or 2δ (persistent) — what the figure alone
/// costs, give or take the second broadcast's serialization. A stale one
/// here recovers as fast: the write it missed is on every other process's
/// log, a majority of them vouches for it, and it is adopted without a
/// log of its own (one missing that majority would wait one retransmit
/// period for it and then log, 2δ + R + λ). The `fast path off` rows are
/// the figures verbatim: λ and 2δ whatever the process missed.
pub fn recovery_table() -> (Vec<RecoveryRow>, Table) {
    use rmem_core::Flavor;

    #[derive(Clone, Copy)]
    enum Crash {
        MidWrite,
        Idle,
        IdleMissingAWrite,
    }
    let legacy = |flavor: Flavor, name: &'static str| Flavor {
        name,
        ..flavor.with_read_fast_path(false)
    };
    let mut rows = Vec::new();
    let mut table = Table::new(
        "Recovery cost [µs]: Recover event → process ready (extension experiment)",
        &[
            "algorithm",
            "after mid-write crash",
            "after idle crash",
            "one write behind",
        ],
    );
    for flavor in [
        Flavor::persistent(),
        Flavor::transient(),
        legacy(Flavor::persistent(), "persistent, fast path off"),
        legacy(Flavor::transient(), "transient, fast path off"),
        Flavor::crash_stop(),
        Flavor::regular(),
    ] {
        let measure = |crash: Crash, seed: u64| -> f64 {
            let write = |pid: u16, v: u32| {
                PlannedEvent::Invoke(ProcessId(pid), Op::Write(Value::from_u32(v)))
            };
            let mut schedule = Schedule::new().at(1_000, write(0, 1));
            schedule = match crash {
                Crash::MidWrite => schedule.at(10_000, write(0, 2)),
                Crash::Idle => schedule,
                Crash::IdleMissingAWrite => schedule.at(12_000, write(1, 2)),
            };
            schedule = schedule
                .at(10_500, PlannedEvent::Crash(ProcessId(0)))
                .at(20_000, PlannedEvent::Recover(ProcessId(0)))
                .at(40_000, PlannedEvent::Invoke(ProcessId(0), Op::Read));
            let factory = Arc::new(FlavorFactory::new(flavor, rmem_core::DEFAULT_RETRANSMIT));
            let mut sim =
                Simulation::new(ClusterConfig::new(5), factory, seed).with_schedule(schedule);
            let report = sim.run();
            let d = &report.trace.recovery_durations;
            assert_eq!(d.len(), 1, "{}: one recovery expected", flavor.name);
            d[0] as f64
        };
        let row = RecoveryRow {
            algo: flavor.name,
            busy_crash_us: measure(Crash::MidWrite, 0x5EC),
            idle_crash_us: measure(Crash::Idle, 0x1D7E),
            stale_us: measure(Crash::IdleMissingAWrite, 0x57A1E),
        };
        table.row(&[
            row.algo.to_string(),
            format!("{:.0}", row.busy_crash_us),
            format!("{:.0}", row.idle_crash_us),
            format!("{:.0}", row.stale_us),
        ]);
        rows.push(row);
    }
    (rows, table)
}

/// One row of the ablation cost/benefit table.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant name.
    pub variant: &'static str,
    /// Mean uncontended write latency (µs).
    pub write_us: f64,
    /// Mean uncontended read latency (µs).
    pub read_us: f64,
    /// Causal logs per write (by construction).
    pub logs_w: u32,
    /// Causal logs per read, worst case (by construction).
    pub logs_r: u32,
    /// Which lower-bound proof run judges this variant.
    pub judged_by: &'static str,
    /// Whether the variant survives that run (checker verdict).
    pub survives: bool,
}

/// **Ablation cost/benefit**: each removed log buys real latency — and
/// loses the correctness criterion on the corresponding lower-bound run.
/// This is Theorems 1–2 expressed as an engineering trade-off table: the
/// savings are exactly the ones the paper proves unobtainable.
pub fn ablation_table() -> (Vec<AblationRow>, Table) {
    use rmem_core::{ablation, FlavorFactory, DEFAULT_RETRANSMIT};

    let measure = |flavor: rmem_core::Flavor| -> (f64, f64) {
        let factory = Arc::new(FlavorFactory::new(flavor, DEFAULT_RETRANSMIT));
        let mut sim = Simulation::new(ClusterConfig::new(5), factory.clone(), 0xAB7);
        sim.add_closed_loop(
            ClosedLoop::writes(ProcessId(0), Value::from_u32(1), 20).with_think(Micros(50)),
        );
        let report = sim.run();
        let w = report.trace.latencies(OpKind::Write);
        let w_mean = w.iter().sum::<u64>() as f64 / w.len() as f64;

        let mut sim = Simulation::new(ClusterConfig::new(5), factory, 0xAB8);
        sim.add_closed_loop(ClosedLoop::reads(ProcessId(1), 20).with_think(Micros(50)));
        let report = sim.run();
        let r = report.trace.latencies(OpKind::Read);
        let r_mean = r.iter().sum::<u64>() as f64 / r.len() as f64;
        (w_mean, r_mean)
    };

    let survives = |flavor: rmem_core::Flavor, rho1: bool| -> bool {
        let factory = Arc::new(FlavorFactory::new(flavor, DEFAULT_RETRANSMIT));
        let schedule = if rho1 {
            crate::scenarios::rho1()
        } else {
            crate::scenarios::rho4()
        };
        let mut sim = Simulation::new(ClusterConfig::new(3), factory, if rho1 { 1 } else { 2 })
            .with_schedule(schedule);
        let report = sim.run();
        let h = report.trace.to_history();
        if flavor.name.contains("transient") || flavor == rmem_core::Flavor::transient() {
            rmem_consistency::check_transient(&h).is_ok()
        } else {
            rmem_consistency::check_persistent(&h).is_ok()
        }
    };

    // The published rows measure the paper's unoptimised rounds (fast
    // path off), so "what does each log/round cost" reads exactly as in
    // §IV; the final row is the confirmed-timestamp fast path, which buys
    // the ablation's read latency *without* giving up the criterion.
    let fast_read = rmem_core::Flavor {
        name: "persistent+fastread",
        ..rmem_core::Flavor::persistent()
    };
    let variants: [(rmem_core::Flavor, &'static str, bool); 6] = [
        (
            rmem_core::Flavor::persistent().with_read_fast_path(false),
            "ρ1",
            true,
        ),
        (ablation::no_pre_log(), "ρ1", true),
        (
            rmem_core::Flavor::transient().with_read_fast_path(false),
            "ρ1",
            true,
        ),
        (ablation::no_rec_counter(), "ρ1", true),
        (ablation::no_read_write_back(), "ρ4", false),
        (fast_read, "ρ4", false),
    ];

    let mut rows = Vec::new();
    let mut table = Table::new(
        "Ablation cost/benefit: latency saved by removing a log vs the criterion lost",
        &[
            "variant",
            "write µs",
            "read µs",
            "logs W",
            "logs R",
            "run",
            "verdict",
        ],
    );
    for (flavor, run, rho1) in variants {
        let (w, r) = measure(flavor);
        let ok = survives(flavor, rho1);
        rows.push(AblationRow {
            variant: flavor.name,
            write_us: w,
            read_us: r,
            logs_w: flavor.causal_logs_per_write(),
            logs_r: flavor.causal_logs_per_read(),
            judged_by: run,
            survives: ok,
        });
        table.row(&[
            flavor.name.to_string(),
            format!("{w:.0}"),
            format!("{r:.0}"),
            flavor.causal_logs_per_write().to_string(),
            flavor.causal_logs_per_read().to_string(),
            run.to_string(),
            if ok {
                "SATISFIED".into()
            } else {
                "VIOLATED".into()
            },
        ]);
    }
    (rows, table)
}

/// Real-mode calibration (§V-A analogue): measures the loopback
/// round-trip of the UDP transport and the `fsync` latency of
/// [`FileStorage`](rmem_storage::FileStorage) on this machine, then runs a
/// short write loop on a real UDP cluster. Returns a rendered report.
pub fn real_mode(dir: &std::path::Path) -> Table {
    use rmem_net::LocalCluster;
    use rmem_storage::StableStorage;

    let mut table = Table::new(
        "Real mode: measured constants and write latency over loopback UDP + fsync",
        &["metric", "value"],
    );

    // fsync latency (the paper's λ).
    let mut fs = rmem_storage::FileStorage::open(dir.join("calib")).expect("calib dir");
    let payload = bytes::Bytes::from(vec![0u8; 64]);
    let t0 = std::time::Instant::now();
    let rounds = 50;
    for i in 0..rounds {
        fs.store(&format!("slot{}", i % 4), payload.clone())
            .expect("store");
    }
    let lambda = t0.elapsed().as_micros() as f64 / rounds as f64;
    table.row(&["fsync log latency λ [µs]".into(), format!("{lambda:.0}")]);

    // Write latency over a real 3-process UDP cluster with file logs.
    for (name, factory) in [
        ("crash-stop", CrashStop::factory()),
        ("transient", Transient::factory()),
        ("persistent", Persistent::factory()),
    ] {
        let mut cluster =
            LocalCluster::udp(3, factory, dir.join(format!("cluster-{name}"))).expect("cluster");
        let client = cluster.client(ProcessId(0));
        // Warm-up.
        client.write(Value::from_u32(0)).expect("warm-up write");
        let t0 = std::time::Instant::now();
        let count = 30;
        for i in 0..count {
            client.write(Value::from_u32(i)).expect("write");
        }
        let mean = t0.elapsed().as_micros() as f64 / count as f64;
        table.row(&[
            format!("UDP write latency, {name} [µs]"),
            format!("{mean:.0}"),
        ]);
        cluster.shutdown();
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_top_reproduces_the_paper_shape() {
        let (rows, table) = fig6_top();
        assert_eq!(rows.len(), 12);
        assert_eq!(table.len(), 3);
        // Ordering at every N: crash-stop < transient < persistent.
        for n in [3usize, 5, 7, 9] {
            let at = |a: AlgoChoice| {
                rows.iter()
                    .find(|r| r.n == n && r.algo == a)
                    .unwrap()
                    .mean_us
            };
            let (cs, tr, pe) = (
                at(AlgoChoice::CrashStop),
                at(AlgoChoice::Transient),
                at(AlgoChoice::Persistent),
            );
            assert!(cs < tr && tr < pe, "N={n}: {cs} {tr} {pe}");
            // The gaps are each ≈ λ = 200µs (within 25%).
            assert!(
                (tr - cs - 200.0).abs() < 50.0,
                "N={n}: transient gap {}",
                tr - cs
            );
            assert!(
                (pe - tr - 200.0).abs() < 50.0,
                "N={n}: persistent gap {}",
                pe - tr
            );
        }
        // Latency grows (mildly) with N for each algorithm.
        for algo in AlgoChoice::FIG6 {
            let series: Vec<f64> = [3usize, 5, 7, 9]
                .iter()
                .map(|&n| {
                    rows.iter()
                        .find(|r| r.n == n && r.algo == algo)
                        .unwrap()
                        .mean_us
                })
                .collect();
            assert!(
                series.windows(2).all(|w| w[1] >= w[0]),
                "{}: series must be non-decreasing: {series:?}",
                algo.name()
            );
        }
    }

    #[test]
    fn fig6_bottom_grows_linearly_in_payload() {
        let (rows, _) = fig6_bottom();
        for algo in AlgoChoice::FIG6 {
            let series: Vec<(usize, f64)> = rows
                .iter()
                .filter(|r| r.algo == algo)
                .map(|r| (r.size, r.mean_us))
                .collect();
            // Monotone growth.
            assert!(
                series.windows(2).all(|w| w[1].1 > w[0].1),
                "{}: {series:?}",
                algo.name()
            );
            // Roughly linear: latency(64K)-latency(32K) ≈ latency(32K)-latency(16K) × 2 … check
            // the ratio of increments against size increments.
            let base = series[0].1;
            let at = |s: usize| series.iter().find(|(sz, _)| *sz == s).unwrap().1;
            let inc_32_64 = at(64 << 10) - at(32 << 10);
            let inc_16_32 = at(32 << 10) - at(16 << 10);
            let ratio = inc_32_64 / inc_16_32;
            assert!(
                (1.6..2.4).contains(&ratio),
                "{}: doubling the size must roughly double the increment, got {ratio} (base {base})",
                algo.name()
            );
        }
    }

    #[test]
    fn ablation_table_shows_the_tradeoff() {
        let (rows, _) = ablation_table();
        let by_name = |n: &str| rows.iter().find(|r| r.variant == n).unwrap();
        let persistent = by_name("persistent");
        let no_prelog = by_name("ablation:no-pre-log");
        let no_wb = by_name("ablation:no-read-write-back");
        let fast = by_name("persistent+fastread");
        // The removed pre-log saves ≈ λ on writes…
        assert!((persistent.write_us - no_prelog.write_us - 200.0).abs() < 60.0);
        // …and the removed write-back halves read latency…
        assert!(no_wb.read_us < persistent.read_us * 0.6);
        // …which the fast path matches on these quiescent reads *without*
        // surrendering the criterion (its fallback keeps the write-back
        // exactly where it is needed).
        assert!(fast.read_us < persistent.read_us * 0.6);
        assert!((fast.read_us - no_wb.read_us).abs() < 30.0);
        assert!(fast.survives, "the fast path must keep the criterion");
        // …but every ablation loses its criterion, and every intact
        // algorithm keeps it.
        for row in &rows {
            assert_eq!(
                row.survives,
                !row.variant.starts_with("ablation:"),
                "{}",
                row.variant
            );
        }
    }

    #[test]
    fn recovery_table_matches_flavor_procedures() {
        let (rows, _) = recovery_table();
        let by_name = |n: &str| rows.iter().find(|r| r.algo == n).unwrap();
        let (crash_stop, regular) = (by_name("crash-stop"), by_name("regular"));
        assert_eq!(crash_stop.idle_crash_us, 0.0);
        assert_eq!(crash_stop.stale_us, 0.0);
        // The figures alone (fast path off): transient = λ, persistent ≈
        // 2δ (+serialization) — and they never ask what they missed.
        let legacy_t = by_name("transient, fast path off");
        let legacy_p = by_name("persistent, fast path off");
        assert_eq!(legacy_t.idle_crash_us, 200.0);
        assert!((200.0..230.0).contains(&legacy_p.idle_crash_us));
        assert_eq!(legacy_t.stale_us, legacy_t.idle_crash_us);
        assert_eq!(legacy_p.stale_us, legacy_p.idle_crash_us);
        // With the catch-up beside them an up-to-date process recovers
        // about as fast — max(λ, 2δ) and 2δ; the second broadcast's
        // serialization is the difference —
        let (transient, persistent) = (by_name("transient"), by_name("persistent"));
        assert!((200.0..230.0).contains(&transient.idle_crash_us));
        assert!((200.0..260.0).contains(&persistent.idle_crash_us));
        assert!(persistent.idle_crash_us - legacy_p.idle_crash_us <= 30.0);
        // — and so does one that missed a write every other process
        // holds: a majority of them vouches for it, and it adopts the
        // write without a log (its third voucher's ack, one serialization
        // later than the majority's, is all it adds).
        assert!((200.0..225.0).contains(&transient.stale_us));
        assert!((200.0..250.0).contains(&persistent.stale_us));
        assert!(transient.stale_us - transient.idle_crash_us <= 10.0);
        assert!(persistent.stale_us - persistent.idle_crash_us <= 10.0);
        // Regular ≈ λ+2δ, no fast path to catch up for.
        assert!((350.0..500.0).contains(&regular.idle_crash_us));
        assert_eq!(regular.stale_us, regular.idle_crash_us);
    }

    #[test]
    fn log_table_matches_bounds() {
        let (rows, _) = log_table();
        for row in rows {
            assert_eq!(row.write_logs, row.bound_write, "{}: writes", row.algo);
            assert!(
                row.read_logs_contended <= row.bound_read,
                "{}: contended reads exceed the bound",
                row.algo
            );
            assert_eq!(
                row.read_logs_uncontended, 0,
                "{}: idle reads must be log-free",
                row.algo
            );
        }
    }
}
