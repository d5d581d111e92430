//! One run of one workload: the end-to-end pass (span recorder off) or
//! the traced pass (per-layer numbers), and the result line.

use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use rmem_net::LocalCluster;

use crate::counts::{self, Metrics};
use crate::host;
use crate::json::Json;
use crate::ladder;
use crate::span::Spans;
use crate::spec::{Declared, Metric, Workload};
use crate::stats::{median, percentile_us};
use crate::workload::{
    build_cluster, certified_witness, drivers, hygiene, issued_counters, new_kv, read_back,
    recover_cycles, restart_cycles, run_loops, Driver, Inputs, RecoverOut, Tally, TmpDir, Until,
    STEADY_RESTART_CYCLES,
};

/// `setup_s` is what one run pays before its first measured operation:
/// the witness, building and preloading the cluster, the warm-up. The
/// middle part is repeated and enters as its median: one is a few
/// milliseconds of thread spawns, socket binds and preload puts, far too
/// jittery to report from a single sample. It repeats until this much time
/// has gone into it, so a workload whose set-up is cheap gets more samples
/// for the same run time.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 31;

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The pass's own section of `BENCHMARK.json`, in declared order, with
    /// the value measured — `None` when this run cannot support it (too
    /// few samples beyond a percentile, nothing stitched).
    pub metrics: Vec<(Metric, Option<f64>)>,
    /// Per-layer numbers the end-to-end pass measures besides: printed and
    /// recorded, but not part of its result line.
    pub extras: Vec<(Metric, f64)>,
    /// Lines for the reader (the ladder's reconciliation).
    pub notes: Vec<String>,
    pub violations: Vec<String>,
}

impl RunResult {
    fn object<'a>(&self, metrics: impl Iterator<Item = (&'a Metric, f64)>) -> Vec<(String, Json)> {
        let metrics = metrics
            .map(|(m, v)| {
                (
                    m.name.clone(),
                    Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(&*m.unit))]),
                )
            })
            .collect();
        vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`. The acceptance contract wants every declared metric of
    /// the pass in it as a number, so one this run cannot support reads 0
    /// here (and only here).
    pub fn line(&self) -> Json {
        Json::Obj(self.object(self.metrics.iter().map(|(m, v)| (m, v.unwrap_or(0.0)))))
    }

    /// The record `--out` appends and `compare` reads: what the run was a
    /// run *of*, and every number it really measured — unsupported ones
    /// are left out, so no median is ever taken over a made-up 0.
    pub fn record(&self, args: &RunArgs, host: Json) -> Json {
        let mut record = vec![
            ("workload".to_string(), Json::str(args.workload.name)),
            ("seed".to_string(), Json::Num(args.seed as f64)),
            ("seconds".to_string(), Json::Num(args.seconds)),
            ("trace".to_string(), Json::Bool(args.trace)),
            ("host".to_string(), host),
        ];
        let measured = self.metrics.iter().filter_map(|(m, v)| Some((m, (*v)?)));
        record.extend(self.object(measured.chain(self.extras.iter().map(|(m, v)| (m, *v)))));
        Json::Obj(record)
    }
}

/// Warm-up before any measured window: lets lazy set-up finish (first
/// shard-map sync, scratch buffers, lease cache fill).
fn warm_up(seconds: f64) -> Duration {
    Duration::from_secs_f64(if seconds >= 10.0 { 2.0 } else { seconds / 5.0 })
}

/// One set-up, as a deployment pays it before it serves: build the
/// cluster and preload every key.
fn set_up<'a>(
    w: &'a Workload,
    inputs: &'a Inputs,
    seed: u64,
    dir: &Path,
    issued: &'a [AtomicU64],
    spans: &Spans,
    parent: u32,
) -> (LocalCluster, Vec<Driver<'a>>) {
    let cluster = spans.within("setup.cluster", parent, |_| build_cluster(w, dir));
    let ds = spans.within("setup.preload", parent, |_| {
        drivers(w, inputs, seed, &cluster, issued)
    });
    (cluster, ds)
}

/// A measured window of the workload's traffic. Returns what the drivers
/// tallied (their tallies are reset) and, for the recovery workload, the
/// cycle loop's own numbers.
fn window(
    w: &Workload,
    cluster: &mut LocalCluster,
    ds: &mut [Driver<'_>],
    until: Until,
    spans: &Spans,
    name: &'static str,
    parent: u32,
) -> (Tally, RecoverOut) {
    let recovered = spans.within(name, parent, |span| {
        if w.recover {
            recover_cycles(cluster, &mut ds[0], until, spans, span)
        } else {
            run_loops(ds, until, spans, span);
            RecoverOut::default()
        }
    });
    let mut total = Tally::default();
    for d in ds.iter_mut() {
        total.absorb(std::mem::take(&mut d.tally));
    }
    (total, recovered)
}

/// Throughput as the **median over slices** of the window, so a stall
/// of a second (a noisy neighbour, a page-cache flush) moves one slice and
/// not the result. Steady workloads: key operations completed in each
/// whole second. Recovery workload: puts completed while a node is down ÷
/// the time it was down, per cycle.
fn ops_per_s(w: &Workload, tally: &Tally, recovered: &RecoverOut) -> f64 {
    let rates: Vec<f64> = if w.recover {
        recovered.down_rates.clone()
    } else if tally.elapsed().is_zero() {
        Vec::new()
    } else {
        let slice = tally.elapsed().min(Duration::from_secs(1));
        tally
            .slice_ops(slice)
            .into_iter()
            .map(|ops| ops as f64 / slice.as_secs_f64())
            .collect()
    };
    if rates.is_empty() {
        f64::NAN
    } else {
        median(&rates)
    }
}

/// The `q`-quantile of `ns` in `unit_ns`-sized units; NaN when fewer
/// than ten samples lie beyond it.
fn quantile(ns: &mut [u64], q: f64, unit_ns: f64) -> f64 {
    percentile_us(ns, q).map_or(f64::NAN, |us| us * 1_000.0 / unit_ns)
}

/// What one measured window of traffic showed on the wall clock and the
/// CPU clock: the `e2e.*` numbers both passes report without a bound.
struct WallClock {
    ops_per_s: f64,
    get_p50_us: f64,
    put_p50_us: f64,
    cpu_us_per_op: f64,
}

impl WallClock {
    fn metrics(&self) -> Metrics {
        vec![
            ("e2e.ops_per_s", self.ops_per_s),
            ("e2e.get_p50_us", self.get_p50_us),
            ("e2e.put_p50_us", self.put_p50_us),
            ("e2e.cpu_us_per_op", self.cpu_us_per_op),
        ]
    }
}

fn wall_clock(
    w: &Workload,
    tally: &mut Tally,
    recovered: &RecoverOut,
    cpu_seconds: f64,
) -> WallClock {
    WallClock {
        ops_per_s: ops_per_s(w, tally, recovered),
        get_p50_us: quantile(&mut tally.get_ns, 0.50, 1e3),
        put_p50_us: quantile(&mut tally.put_ns, 0.50, 1e3),
        cpu_us_per_op: cpu_seconds * 1e6 / tally.key_ops.max(1) as f64,
    }
}

/// What a pass hands to [`finish`] besides its numbers.
struct Outcome {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    notes: Vec<String>,
}

/// Sorts what a pass measured into what `BENCHMARK.json` declares for it.
/// The two must agree in both directions: a declared metric the pass
/// never measures and a measured number nothing declares are both errors.
/// NaN marks a number this run could not support.
fn finish(
    declared: &Declared,
    trace: bool,
    values: Metrics,
    outcome: Outcome,
) -> Result<RunResult, String> {
    let own = if trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    let pass = if trace { "traced" } else { "end-to-end" };
    let measured = |name: &str| values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let metrics = own
        .iter()
        .map(|m| {
            let v = measured(&m.name).ok_or_else(|| {
                format!(
                    "BENCHMARK.json declares `{}`, which the {pass} pass never measures",
                    m.name
                )
            })?;
            Ok((m.clone(), v.is_finite().then_some(v)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut extras = Vec::new();
    for (name, v) in &values {
        let m = declared.metric(name).ok_or_else(|| {
            format!("the {pass} pass measures `{name}`, which BENCHMARK.json does not declare")
        })?;
        if !own.contains(m) && v.is_finite() {
            extras.push((m.clone(), *v));
        }
    }
    Ok(RunResult {
        correct: outcome.violations.is_empty(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
        extras,
        notes: outcome.notes,
        violations: outcome.violations,
    })
}

pub fn run(args: &RunArgs, declared: &Declared, out_dir: &Path) -> Result<RunResult, String> {
    if args.trace {
        traced_pass(args, declared, out_dir)
    } else {
        end_to_end_pass(args, declared, out_dir)
    }
}

fn end_to_end_pass(
    args: &RunArgs,
    declared: &Declared,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let w = args.workload;
    let spans = Spans::new(false);
    let tmp = TmpDir::new(out_dir, w.name);
    let inputs = Inputs::new(w, args.seed);

    // The bounded recorded twin, certified before anything is measured.
    let started = Instant::now();
    certified_witness(w, &inputs, args.seed, &tmp.path().join("witness"))?;
    let witness_s = started.elapsed().as_secs_f64();

    let issued: Vec<Vec<AtomicU64>> = (0..MAX_SETUPS).map(|_| issued_counters(w)).collect();
    let mut setup_secs = Vec::with_capacity(MAX_SETUPS);
    let mut kept = None;
    let setups_started = Instant::now();
    for (i, issued) in issued.iter().enumerate() {
        if i >= MIN_SETUPS && setups_started.elapsed() >= SETUP_BUDGET {
            break;
        }
        // Each set-up is complete and independent; all but the last are
        // torn down again (outside the timed part).
        drop(kept.take());
        let started = Instant::now();
        let dir = tmp.path().join(format!("setup{i}"));
        kept = Some(set_up(w, &inputs, args.seed, &dir, issued, &spans, 0));
        setup_secs.push(started.elapsed().as_secs_f64());
    }
    let (mut cluster, mut ds) = kept.expect("at least one set-up");

    let started = Instant::now();
    let until = Until::Deadline(started + warm_up(args.seconds));
    let (warm_tally, _) = window(w, &mut cluster, &mut ds, until, &spans, "warmup", 0);
    let warm_s = started.elapsed().as_secs_f64();
    // What one run pays before its first measured operation.
    let build_s = median(&setup_secs);
    let setup_s = witness_s + build_s + warm_s;

    let before = counts::snapshot(&cluster, &ds);
    let cpu_before = host::cpu_seconds();
    let deadline = Until::Deadline(Instant::now() + Duration::from_secs_f64(args.seconds));
    let (mut tally, recovered) = window(w, &mut cluster, &mut ds, deadline, &spans, "window", 0);
    let cpu = host::cpu_seconds() - cpu_before;
    let after = counts::snapshot(&cluster, &ds);
    let delta = counts::Delta {
        before: &before,
        after: &after,
        key_ops: tally.key_ops,
    };
    let timed = wall_clock(w, &mut tally, &recovered, cpu);
    let mut values: Metrics = vec![
        ("setup_s", setup_s),
        ("e2e.rss_peak_mb", host::rss_peak_mb()),
        ("net.msgs_per_op", delta.msgs_per_op()),
    ];
    values.extend(delta.end_to_end());
    values.extend(timed.metrics());

    // Every key must still read as its last acked put.
    read_back(&ds[0].kv, &inputs, &ds, &mut tally, false);
    hygiene(&cluster, &ds, &mut tally);
    tally.violations.extend(warm_tally.violations);
    drop(ds);
    cluster.shutdown();

    finish(
        declared,
        false,
        values,
        Outcome {
            attempted: tally.calls,
            failed: tally.failed,
            violations: tally.violations,
            notes: vec![format!(
                "setup_s = witness {witness_s:.4} + build and preload {build_s:.4} \
                 (median of {}) + warm-up {warm_s:.4}",
                setup_secs.len()
            )],
        },
    )
}

fn traced_pass(args: &RunArgs, declared: &Declared, out_dir: &Path) -> Result<RunResult, String> {
    let w = args.workload;
    let (off, on) = (Spans::new(false), Spans::new(true));
    let tmp = TmpDir::new(out_dir, w.name);
    let inputs = Inputs::new(w, args.seed);
    let issued = issued_counters(w);
    let part = |share: f64| Duration::from_secs_f64(args.seconds * share);

    let mut run_span = on.buf();
    let root = run_span.open("run", 0, 0);
    let witness = on.within("witness", root.id(), |_| {
        certified_witness(w, &inputs, args.seed, &tmp.path().join("witness"))
    })?;
    let (mut cluster, mut ds) = on.within("setup", root.id(), |span| {
        set_up(
            w,
            &inputs,
            args.seed,
            &tmp.path().join("cluster"),
            &issued,
            &on,
            span,
        )
    });

    let until = Until::Deadline(Instant::now() + warm_up(args.seconds) / 2);
    let (warm_tally, _) = window(w, &mut cluster, &mut ds, until, &off, "warmup", 0);

    // The same traffic twice: recorder off, then on. The gap is what the
    // driver's own spans cost.
    let cpu_before = host::cpu_seconds();
    let deadline = Until::Deadline(Instant::now() + part(0.25));
    let (mut untraced, recovered) = window(w, &mut cluster, &mut ds, deadline, &off, "window", 0);
    let cpu = host::cpu_seconds() - cpu_before;
    let timed = wall_clock(w, &mut untraced, &recovered, cpu);
    let mut values = timed.metrics();
    let mut restart_ns = recovered.restart_ns;

    let before = counts::snapshot(&cluster, &ds);
    let deadline = Until::Deadline(Instant::now() + part(0.25));
    let (traced, recovered) = window(
        w,
        &mut cluster,
        &mut ds,
        deadline,
        &on,
        "window.traced",
        root.id(),
    );
    let after = counts::snapshot(&cluster, &ds);
    let traced_rate = ops_per_s(w, &traced, &recovered);
    restart_ns.extend(recovered.restart_ns);
    values.extend(
        counts::Delta {
            before: &before,
            after: &after,
            key_ops: traced.key_ops,
        }
        .per_layer(&cluster),
    );
    values.push((
        "bench.trace_overhead_share",
        1.0 - traced_rate / timed.ops_per_s,
    ));

    let live = on.within("ladder", root.id(), |span| {
        ladder::live_ladder(w, &cluster, &mut ds[0], &inputs, part(0.125), &on, span)
    });
    values.extend(on.within("stitch", root.id(), |_| {
        ladder::stitch_burst(w, &cluster, &mut ds[0])
    }));

    let mut tally = Tally::default();
    for d in ds.iter_mut() {
        tally.absorb(std::mem::take(&mut d.tally));
    }
    // Restart → first read served. The recovery workload measured it
    // under its own traffic; the steady ones measure it now, on the
    // cluster (and the log) their windows left behind.
    if !w.recover {
        restart_ns = on.within("restarts", root.id(), |_| {
            restart_cycles(w, &mut cluster, &inputs, STEADY_RESTART_CYCLES, &mut tally)
        });
        for d in ds.iter_mut() {
            d.swap_kv(new_kv(w, &cluster));
        }
    }
    // Every key must still read as its last acked put — after the
    // restarts above, so a write lost in recovery shows here.
    read_back(&ds[0].kv, &inputs, &ds, &mut tally, false);
    hygiene(&cluster, &ds, &mut tally);
    drop(ds);
    cluster.shutdown();

    let left_behind = tmp.path().join("cluster").join("p0");
    let probes = on.within("probes", root.id(), |span| {
        ladder::offline_probes(
            w,
            &inputs,
            tmp.path(),
            w.udp_wal.then_some(left_behind.as_path()),
            &on,
            span,
        )
    });
    let rungs = ladder::Rungs::new(w, &live, &probes);
    values.extend(rungs.metrics());
    let notes = rungs.reconcile(timed.get_p50_us, timed.put_p50_us);
    values.extend(probes);
    values.push((
        "consistency.certify_us_per_op",
        witness.certify.as_secs_f64() * 1e6 / witness.ops.max(1) as f64,
    ));

    let attempted = untraced.calls + traced.calls + tally.calls;
    let failed = untraced.failed + traced.failed + tally.failed;
    // Both windows feed the tails: a p99 needs a thousand samples, and
    // the recorder's cost is a percent or two of a call.
    untraced.get_ns.extend(&traced.get_ns);
    untraced.put_ns.extend(&traced.put_ns);
    values.push(("e2e.get_p99_us", quantile(&mut untraced.get_ns, 0.99, 1e3)));
    values.push(("e2e.put_p99_us", quantile(&mut untraced.put_ns, 0.99, 1e3)));
    values.push(("e2e.restart_p50_ms", quantile(&mut restart_ns, 0.50, 1e6)));
    values.push(("e2e.failed_share", failed as f64 / attempted.max(1) as f64));
    values.push(("e2e.rss_peak_mb", host::rss_peak_mb()));

    run_span.close(root);
    drop(run_span);
    on.dump(&out_dir.join(format!("trace-{}.json", w.name)), w.name)
        .map_err(|e| format!("writing the trace dump: {e}"))?;

    let mut violations = warm_tally.violations;
    violations.extend(untraced.violations);
    violations.extend(traced.violations);
    violations.extend(tally.violations);
    finish(
        declared,
        true,
        values,
        Outcome {
            attempted,
            failed,
            violations,
            notes,
        },
    )
}
