//! Runs the `kv_throughput` scenario: sharded-store throughput for the
//! persistent, transient and regular register flavors under uniform and
//! Zipf-skewed key popularity, `get`/`put` vs `multi_*` calls of 8 — real
//! `KvClient`s, hosted in the simulator — plus the read-heavy fast-path
//! section (confirmed-timestamp reads vs the legacy two-round path).
//!
//! ```text
//! cargo run --release -p rmem-bench --bin kv_throughput \
//!     [-- --csv] [-- --smoke] [-- --json PATH] [-- --no-fastpath] \
//!     [-- --lease] [-- --reshard] [-- --disk] [-- --obs] [-- --obs-json PATH] \
//!     [-- --trace] [-- --trace-json PATH] \
//!     [-- --chaos] [-- --chaos-dump PATH] [-- --pipeline-depth N]
//! ```
//!
//! `--smoke` runs the same grid on a reduced workload (CI-sized);
//! `--no-fastpath` forces every cell onto the legacy always-write-back
//! read path (CI runs both modes so the fallback cannot rot); `--reshard`
//! additionally runs the live 4→8 shard-split scenario on the real
//! runtime (ops/s dip during migration, recovery after, cross-epoch
//! certified) and appends its row to the JSON output; `--disk` runs the
//! write-heavy Zipf rows over real disks on the UDP runtime —
//! `FileStorage` vs the group-commit `WalStorage` — reporting fsyncs/op
//! and group sizes, certified per key, and asserts the WAL clears 3× the
//! slot files' ops/s; `--obs` runs the observability scenario on the UDP
//! runtime — wall-clock p50/p90/p99/p999 from the `rmem-obs` latency
//! histograms, interleaved baseline/instrumented trials, and the ≤3%
//! instrumentation-overhead gate asserted here (priced: per-op
//! instrument firing rates × microbenched unit costs vs baseline
//! CPU/op — see `rmem_bench::obs`) (`--obs-json PATH` also
//! writes the merged metrics-snapshot JSON for the CI artifact);
//! `--trace` runs the causal-tracing scenario on the WAL-backed UDP
//! runtime: every ring is stitched into per-op cross-node timelines
//! (all rings read the process's one clock), a per-segment p50/p99
//! attribution table prints, and three gates are asserted — ≥99%
//! stitched coverage, zero effect-before-cause violations (no slack),
//! and per-op segment sums within 5% of wall clock —
//! plus a re-run of the ≤3% priced instrumentation gate with tracing on
//! (`--trace-json PATH` also writes the slowest ops' stitched timelines
//! as JSON for the CI artifact);
//! `--chaos` runs the combined chaos matrix (`rmem_kv::run_chaos`) over
//! a seed sweep: seeded node kill/recover windows with torn-WAL-tail
//! recoveries, a live shard-split chain and client crashes after a
//! planned number of outputs, every surviving history certified
//! (exactly-once duplicate check included) and every crashed client's
//! ops resolved to a definite verdict — `--smoke` shrinks the cluster
//! for CI, and on a failed oracle the flight-recorder dumps + stitched
//! causal trace are written to the `--chaos-dump PATH` artifact before
//! exiting nonzero;
//! `--lease` runs the tag-lease section — the read-mostly Zipf(0.99)
//! workload with leases on vs off at otherwise identical settings, every
//! run certified per key — asserts the zero-round gates (full size: the
//! leased twin's mean read rounds ≤ 0.09 and ≥ 3.9× the off twin's
//! ops/s; the smoke run holds slightly looser guards), re-asserts the
//! ≤3% priced instrumentation gate with leases
//! armed on both sides, and rides its rows into `--json`;
//! `--pipeline-depth N` runs the pipeline depth sweep on the real
//! runtime — one client thread keeping up to N operations in flight
//! through the event-driven reactor, ops/s per depth on the uniform
//! write-heavy row, every row backed by a certified recorded twin, the
//! in-flight gauge asserted zero after every run — and asserts the
//! depth-scaling gate (≥3× the depth-1 single-thread baseline at depth
//! 64) plus a re-run of the ≤3% priced instrumentation gate with the
//! pipelined workload driving the trials (its rows ride into `--json`
//! labeled by depth);
//! `--json PATH` writes the rows as machine-readable JSON for perf
//! diffing (`BENCH_kv.json` is the committed baseline, and `--lease
//! --json BENCH_kv.json` regenerates it). The sim grid's
//! rows are virtual-time (labeled so); every reported run is certified
//! per key before its row prints.

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let csv = args.iter().any(|a| a == "--csv");
    let smoke = args.iter().any(|a| a == "--smoke");
    let reshard = args.iter().any(|a| a == "--reshard");
    let disk = args.iter().any(|a| a == "--disk");
    let obs = args.iter().any(|a| a == "--obs");
    let trace = args.iter().any(|a| a == "--trace");
    let chaos = args.iter().any(|a| a == "--chaos");
    let lease = args.iter().any(|a| a == "--lease");
    let fastpath = !args.iter().any(|a| a == "--no-fastpath");
    let path_operand = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .filter(|p| !p.starts_with("--"))
                .unwrap_or_else(|| {
                    eprintln!("{flag} requires a path operand (e.g. {flag} out.json)");
                    std::process::exit(2);
                })
                .clone()
        })
    };
    let json_path = path_operand("--json");
    let obs_json_path = path_operand("--obs-json");
    let trace_json_path = path_operand("--trace-json");
    let chaos_dump_path = path_operand("--chaos-dump");
    let pipeline_depth: Option<usize> =
        args.iter().position(|a| a == "--pipeline-depth").map(|i| {
            args.get(i + 1)
                .and_then(|d| d.parse().ok())
                .filter(|&d| d >= 1)
                .unwrap_or_else(|| {
                    eprintln!("--pipeline-depth requires a depth ≥ 1 (e.g. --pipeline-depth 64)");
                    std::process::exit(2);
                })
        });

    let (mut rows, table) = rmem_bench::kv::kv_throughput_with_mode(smoke, fastpath);
    println!("{}", table.to_text());
    println!("per-key certification: atomic flavors checked before reporting (batched included)");
    println!(
        "(log counts per put: persistent = 2, transient = 1, regular = 1; \
         virtual time, so differences are purely algorithmic)"
    );
    let fastest = rows
        .iter()
        .max_by(|a, b| a.ops_per_sec.partial_cmp(&b.ops_per_sec).expect("finite"))
        .expect("rows");
    println!(
        "fastest cell: {} / {} / {} at {:.0} ops/s",
        fastest.flavor, fastest.distribution, fastest.mode, fastest.ops_per_sec
    );
    for flavor in ["persistent", "transient"] {
        let pick = |mode: &str| {
            rows.iter()
                .find(|r| {
                    r.flavor == flavor
                        && r.distribution == "zipf(0.99)"
                        && r.mode.starts_with(mode)
                        && (r.write_fraction - rmem_bench::kv::MIXED_WRITE_FRACTION).abs() < 1e-9
                })
                .expect("cell")
        };
        let (un, ba) = (pick("unbatched"), pick("batched"));
        assert!(
            ba.ops_per_sec > un.ops_per_sec,
            "{flavor}/zipf: batched must beat unbatched"
        );
        println!(
            "{flavor}/zipf: batched {:.0} ops/s vs unbatched {:.0} ops/s ({:.2}× , {} vs {} register ops)",
            ba.ops_per_sec,
            un.ops_per_sec,
            ba.ops_per_sec / un.ops_per_sec,
            ba.register_ops,
            un.register_ops,
        );
    }
    if fastpath {
        // The fast-path headline: read-heavy Zipf, fast vs legacy at
        // otherwise identical settings. Asserted here so the CI smoke run
        // cannot let the win rot silently. Pinned at 0.9 × the worst cell
        // over eight seeds of the hosted grid (`probe_thresholds_across_seeds`:
        // full size ≥ 1.31×; the smoke workload, under half the size and
        // mostly cold start, ≥ 1.15×).
        let threshold = if smoke { 1.03 } else { 1.17 };
        for flavor in ["persistent", "transient"] {
            for mode in ["unbatched", "batched"] {
                let pick = |fast: bool| {
                    rows.iter()
                        .find(|r| {
                            r.flavor == flavor
                                && r.distribution == "zipf(0.99)"
                                && r.mode.starts_with(mode)
                                && (r.write_fraction - rmem_bench::kv::READ_HEAVY_WRITE_FRACTION)
                                    .abs()
                                    < 1e-9
                                && r.fastpath == fast
                        })
                        .expect("fast-path cell")
                };
                let (fast, legacy) = (pick(true), pick(false));
                let speedup = fast.ops_per_sec / legacy.ops_per_sec;
                assert!(
                    speedup >= threshold,
                    "{flavor}/{mode}: fast path regressed below {threshold}× ({speedup:.2}×)"
                );
                assert!(fast.read_rounds_mean < 2.0);
                println!(
                    "{flavor}/zipf read-heavy/{mode}: fast {:.0} ops/s vs legacy {:.0} ops/s \
                     ({speedup:.2}×; mean read rounds {:.2} vs {:.2})",
                    fast.ops_per_sec,
                    legacy.ops_per_sec,
                    fast.read_rounds_mean,
                    legacy.read_rounds_mean,
                );
            }
        }
    } else {
        println!("legacy mode (--no-fastpath): every read paid its write-back round");
    }
    if lease {
        let (lease_rows, lease_table) = rmem_bench::kv::kv_lease_section(smoke);
        println!("{}", lease_table.to_text());
        // The zero-round acceptance gates, pinned from eight seeds of the
        // hosted twins (`probe_thresholds_across_seeds`) at worst / 0.9
        // and 0.9 × worst while a write ended its holder's lease (mean
        // read rounds ≤ 0.080 full size, ≤ 0.085 smoke; speed-up ≥ 5.15×
        // / ≥ 5.32×), and kept: with leases handed on and renewed the
        // same probe reads ≤ 0.059 / ≤ 0.076 and ≥ 7.29× / ≥ 5.21×.
        let (mean_cap, speedup_floor) = if smoke { (0.10, 4.5) } else { (0.09, 3.9) };
        for flavor in ["persistent", "transient"] {
            let pick = |lease_on: bool| {
                lease_rows
                    .iter()
                    .find(|r| r.flavor == flavor && r.lease == lease_on)
                    .expect("lease cell")
            };
            let (on, off) = (pick(true), pick(false));
            let speedup = on.ops_per_sec / off.ops_per_sec;
            assert!(
                on.read_rounds_mean <= mean_cap,
                "{flavor}: leased mean read rounds must be ≤ {mean_cap}, got {:.3}",
                on.read_rounds_mean
            );
            assert!(
                speedup >= speedup_floor,
                "{flavor}: leases must clear {speedup_floor}× the lease-off twin, \
                 got {speedup:.2}×"
            );
            assert!(
                off.read_rounds_mean >= 1.0,
                "{flavor}: the off twin must pay quorum rounds, got {:.2}",
                off.read_rounds_mean
            );
            println!(
                "{flavor}/zipf read-mostly: leased {:.0} ops/s vs off {:.0} ops/s \
                 ({speedup:.2}×; mean read rounds {:.2} vs {:.2})",
                on.ops_per_sec, off.ops_per_sec, on.read_rounds_mean, off.read_rounds_mean,
            );
        }
        // The priced-overhead gate, re-asserted with leases armed on
        // both sides: zero-round serving changes what fires per op (the
        // zero-round counter joins; some quorum-path instruments drop
        // out), and the budget must still hold.
        let micros = rmem_bench::obs::OBS_LEASE_MICROS;
        let o = rmem_bench::obs::obs_scenario(smoke, None, micros);
        obs_gate(&format!(" with leases on ({micros} µs horizon)"), &o);
        rows.extend(lease_rows);
    }
    let reshard_report = if reshard {
        let r = rmem_bench::reshard::reshard_scenario(smoke);
        println!(
            "reshard 4→8 (live, certified across epochs): pre {:.0} ops/s, during {:.0} ops/s \
             ({:.0}% retained), post {:.0} ops/s ({:.0}% of pre); migration {:.2} ms, \
             {} entries moved, {} sources sealed, {} barrier waits ({} polls)",
            r.pre_ops_per_sec,
            r.during_ops_per_sec,
            r.dip_ratio() * 100.0,
            r.post_ops_per_sec,
            r.recovery_ratio() * 100.0,
            r.migration_ms,
            r.entries_moved,
            r.sources_sealed,
            r.barrier_waits,
            r.barrier_polls,
        );
        assert_eq!(r.epoch, 1, "the split must commit at epoch 1");
        assert!(
            r.recovery_ratio() > 0.5,
            "post-split throughput must recover (got {:.0}% of pre)",
            r.recovery_ratio() * 100.0
        );
        Some(r)
    } else {
        None
    };
    let disk_report = if disk {
        let r = rmem_bench::disk::disk_scenario(smoke);
        for row in &r.rows {
            println!(
                "disk/{} (udp, wf {:.1}, certified): {:.0} ops/s, {:.2} fsyncs/op, \
                 mean group {:.2}, {:.0} bytes/commit",
                row.backend,
                row.write_fraction,
                row.ops_per_sec,
                row.fsyncs_per_op,
                row.mean_group_size,
                row.bytes_per_commit,
            );
        }
        let speedup = r.wal_speedup();
        // The acceptance gate: group commit must move disk-backed
        // write-heavy throughput by multiples — the full run holds the
        // 3× line. The smoke gate is a regression tripwire, not the
        // claim: a 250 ms wall-clock window on an arbitrary CI host
        // (where the temp dir may sit on a write-back cache that makes
        // fsync nearly free) measures the syscall economy more than the
        // fsync economy, so it only asserts the direction with margin.
        // The mechanism itself is gated exactly in either mode by the
        // fsyncs/op comparison below.
        let threshold = if smoke { 1.5 } else { 3.0 };
        assert!(
            speedup >= threshold,
            "WAL must clear {threshold}× FileStorage on the write-heavy row, got {speedup:.2}×"
        );
        assert!(
            r.row("wal").fsyncs_per_op < r.row("file").fsyncs_per_op / 2.0,
            "the WAL must spend well under half the slot files' fsyncs per operation \
             ({:.2} vs {:.2})",
            r.row("wal").fsyncs_per_op,
            r.row("file").fsyncs_per_op,
        );
        println!(
            "disk: WAL {:.2}× FileStorage ops/s on the write-heavy zipf row \
             ({:.2} vs {:.2} fsyncs/op)",
            speedup,
            r.row("wal").fsyncs_per_op,
            r.row("file").fsyncs_per_op,
        );
        Some(r)
    } else {
        None
    };
    // `--trace` re-asserts the priced instrumentation-overhead gate with
    // tracing on: tracing IS part of the instrumented side of the obs
    // scenario (a KvClient with an enabled handle traces every op), so
    // running the obs scenario under --trace is exactly that re-check.
    let obs_report = if obs || trace || obs_json_path.is_some() {
        let r = rmem_bench::obs::obs_scenario(smoke, None, 0);
        println!(
            "obs (udp+wal, wall clock, wf {:.1}): instrumented {:.0} ops/s vs baseline {:.0} ops/s \
             (cpu/op {} vs {}); \
             get p50/p90/p99/p999 = {}/{}/{}/{} µs, \
             put p50/p90/p99/p999 = {}/{}/{}/{} µs",
            rmem_bench::obs::OBS_WRITE_FRACTION,
            r.instrumented_ops_per_sec,
            r.baseline_ops_per_sec,
            cpu_per_op(r.instrumented_cpu_ns_per_op),
            cpu_per_op(r.baseline_cpu_ns_per_op),
            r.get_percentiles_us[0],
            r.get_percentiles_us[1],
            r.get_percentiles_us[2],
            r.get_percentiles_us[3],
            r.put_percentiles_us[0],
            r.put_percentiles_us[1],
            r.put_percentiles_us[2],
            r.put_percentiles_us[3],
        );
        obs_gate("", &r);
        if let Some(path) = &obs_json_path {
            std::fs::write(path, format!("[\n{}\n]\n", r.to_json()))
                .expect("writing obs metrics snapshot");
            println!("wrote {path}");
        }
        Some(r)
    } else {
        None
    };
    let trace_report = if trace {
        use rmem_bench::trace::{ATTRIBUTION_TOLERANCE, COVERAGE_FLOOR, TRACE_EXEMPLARS};
        let r = rmem_bench::trace::trace_scenario(smoke);
        println!(
            "trace (udp+wal, wall clock, wf {:.1}): {} ops at {:.0} ops/s",
            rmem_bench::trace::TRACE_WRITE_FRACTION,
            r.completed_ops,
            r.ops_per_sec,
        );
        print!("{}", r.report.render_summary());
        print!("{}", r.render_table());
        // The acceptance gates: near-total stitched coverage, no effect
        // stamped before its cause, and an attribution that telescopes
        // back to the client's wall clock.
        assert!(
            r.report.coverage() >= COVERAGE_FLOOR,
            "stitched coverage {:.2}% under the {:.0}% floor ({} stitched / {} completed, {} incomplete)",
            r.report.coverage() * 100.0,
            COVERAGE_FLOOR * 100.0,
            r.report.stitched.len(),
            r.report.completed,
            r.report.incomplete,
        );
        assert_eq!(
            r.report.violations,
            0,
            "effect-before-cause violations:\n{}",
            r.report.render_exemplars(3),
        );
        assert!(
            r.report.max_attribution_error() <= ATTRIBUTION_TOLERANCE,
            "per-segment attribution must sum within {:.0}% of wall clock (worst {:.2}%)",
            ATTRIBUTION_TOLERANCE * 100.0,
            r.report.max_attribution_error() * 100.0,
        );
        assert_eq!(
            r.trace_evictions, 0,
            "the runners' bounded request-trace maps must not evict in steady state \
             (an eviction silently un-stitches an op)",
        );
        println!(
            "trace gates: coverage {:.2}% (floor {:.0}%), 0 causality violations, \
             worst attribution error {:.2}% (limit {:.0}%)",
            r.report.coverage() * 100.0,
            COVERAGE_FLOOR * 100.0,
            r.report.max_attribution_error() * 100.0,
            ATTRIBUTION_TOLERANCE * 100.0,
        );
        if let Some(path) = &trace_json_path {
            let payload = format!(
                "{{\"row\":\n{},\n\"exemplars\": {}\n}}\n",
                r.to_json(),
                r.report.exemplars_json(TRACE_EXEMPLARS),
            );
            std::fs::write(path, payload).expect("writing trace exemplars");
            println!("wrote {path}");
        }
        Some(r)
    } else {
        None
    };
    if chaos {
        // The chaos matrix as a gate: every seed's run must certify and
        // every crashed client's ops must resolve. On failure the
        // postmortem evidence (flight-recorder dumps + stitched causal
        // trace) lands at --chaos-dump for the CI artifact upload.
        match rmem_bench::chaos::chaos_scenario(smoke) {
            Ok(rows) => {
                for row in &rows {
                    let r = &row.report;
                    println!(
                        "chaos seed {} ({} nodes, splits {:?}): {} completed, {} ambiguous \
                         (all resolved), {} faults ({} torn tails), {} recovery verdicts, \
                         {} keys certified, {} retries",
                        r.seed,
                        row.nodes,
                        row.shard_path,
                        r.completed,
                        r.ambiguous,
                        r.faults_applied,
                        r.torn_tails,
                        r.verdicts.len(),
                        r.certified_keys,
                        r.retries,
                    );
                }
                let total_faults: usize = rows.iter().map(|r| r.report.faults_applied).sum();
                assert!(total_faults > 0, "the chaos sweep must inject faults");
                println!(
                    "chaos gates: {} seeds certified (exactly-once duplicate check included), \
                     every crashed client's ops resolved to a definite verdict",
                    rows.len(),
                );
                if let Some(path) = &chaos_dump_path {
                    let body: Vec<String> = rows.iter().map(|r| r.to_json()).collect();
                    std::fs::write(path, format!("[\n{}\n]\n", body.join(",\n")))
                        .expect("writing chaos rows");
                    println!("wrote {path}");
                }
            }
            Err(failure) => {
                if let Some(path) = &chaos_dump_path {
                    let payload = format!("{failure}\n\n{}", failure.dumps);
                    std::fs::write(path, payload).expect("writing chaos postmortem");
                    eprintln!("chaos postmortem written to {path}");
                }
                panic!("chaos scenario failed: {failure}");
            }
        }
    }
    let pipeline_report = pipeline_depth.map(|max_depth| {
        let r = rmem_bench::pipeline::pipeline_scenario(smoke, max_depth);
        for row in &r.rows {
            println!(
                "pipeline depth {:>3} (channel, wall clock, wf {:.1}, certified): \
                 {:.0} ops/s ({} ops in {:.3} s, observed mean depth {:.1})",
                row.depth,
                rmem_bench::pipeline::PIPELINE_WRITE_FRACTION,
                row.ops_per_sec,
                row.completed_ops,
                row.elapsed_secs,
                row.observed_mean_depth,
            );
            assert!(row.certified, "depth {}: row must be certified", row.depth);
        }
        // The depth-scaling gate: the full sweep must show pipelining
        // paying for itself by multiples at depth 64; shallower sweeps
        // (CI smoke) assert the direction with margin — a tripwire, not
        // the claim.
        let speedup = r.speedup();
        let threshold = if max_depth >= 64 { 3.0 } else { 1.2 };
        assert!(
            speedup >= threshold,
            "pipeline depth {max_depth} must clear {threshold}× the depth-1 \
             single-thread baseline, got {speedup:.2}×"
        );
        println!(
            "pipeline: depth {} clears {:.2}× the single-thread depth-1 baseline \
             (gate: ≥{threshold}×)",
            r.rows.last().expect("rows").depth,
            speedup,
        );
        // The priced-overhead gate, re-asserted with pipelining on: the
        // same interleaved trials, but every worker drives pipelined
        // batches, so `kv.inflight` / `kv.pipeline_depth` fire and are
        // priced with everything else.
        let depth = max_depth.min(rmem_bench::obs::OBS_SHARDS as usize);
        let o = rmem_bench::obs::obs_scenario(smoke, Some(depth), 0);
        obs_gate(&format!(" with pipelining on (depth {depth})"), &o);
        r
    });
    if let Some(path) = json_path {
        std::fs::write(
            &path,
            rmem_bench::kv::rows_to_json_with(
                &rows,
                reshard_report.as_ref(),
                disk_report.as_ref(),
                // The obs row rides into the JSON only when asked for
                // explicitly (--trace borrows the scenario for its gate
                // re-check without changing the row set).
                obs_report
                    .as_ref()
                    .filter(|_| obs || obs_json_path.is_some()),
                trace_report.as_ref(),
                pipeline_report.as_ref(),
            ),
        )
        .expect("writing JSON rows");
        println!("wrote {path}");
    }
    if csv {
        let path = table.write_csv("kv_throughput").expect("writing CSV");
        println!("wrote {}", path.display());
    }
}

fn cpu_per_op(ns: Option<f64>) -> String {
    match ns {
        Some(ns) => format!("{:.1} µs", ns / 1_000.0),
        None => "n/a".to_string(),
    }
}

/// The ≤3% priced instrumentation-overhead gate: the metrics registry
/// and flight recorder must ride along for ≤3% of the per-op budget —
/// their measured firing rates priced at measured unit costs, against
/// the baseline's measured CPU per completed op (wall-clock throughput
/// where /proc isn't readable). `with` names what the run had on. What
/// was priced — each instrument's per-op rate and unit cost — is printed
/// before the verdict, pass or fail, so a red run names what grew.
fn obs_gate(with: &str, o: &rmem_bench::obs::ObsReport) {
    let overhead = (1.0 - o.overhead_ratio()) * 100.0;
    let budget = rmem_bench::obs::OVERHEAD_BUDGET * 100.0;
    let unit = &o.unit_costs;
    println!(
        "obs gate{with}: {overhead:.2}% priced overhead ({} basis, budget {budget:.0}%): \
         {:.2} µs/op against baseline cpu/op {} (instrumented {:.0} vs baseline {:.0} ops/s); \
         per op {:.1} flight events × {:.0} ns, {:.1} histogram samples × ({:.0} + 2 × {:.0}) ns, \
         {:.1} counter incs × {:.1} ns",
        o.gate_basis(),
        o.priced_overhead_ns_per_op() / 1_000.0,
        cpu_per_op(o.baseline_cpu_ns_per_op),
        o.instrumented_ops_per_sec,
        o.baseline_ops_per_sec,
        o.flight_events_per_op,
        unit.flight_record_ns,
        o.hist_samples_per_op,
        unit.histogram_record_ns,
        unit.clock_sample_ns,
        o.counter_incs_per_op,
        unit.counter_inc_ns,
    );
    assert!(
        o.within_budget(),
        "instrumentation overhead gate{with}: {overhead:.2}% priced overhead exceeds the \
         {budget:.0}% budget (priced rates above)",
    );
}
