//! The `kv_throughput` scenario: store throughput per register flavor,
//! key-popularity shape, batching mode and read fast path, measured on
//! the simulated testbed.
//!
//! Each cell runs the same closed-loop store workload — five **real
//! `KvClient`s**, hosted in the simulator (`rmem_kv::host`) — against a
//! shared memory of one flavor, in deterministic virtual time, and reports
//! completed operations per virtual second plus latency percentiles and
//! **per-read quorum-round counts**. Because virtual time eliminates
//! measurement noise, differences between rows are purely algorithmic:
//! the persistent flavor pays 2 causal logs per put, the transient flavor
//! 1, and the regular flavor (single writer per key) skips the query
//! round entirely.
//!
//! The **mode** column compares the unbatched path (every store operation
//! a `get` or `put` of its own) against `multi_*` calls of 8 (each
//! client's stream grouped into rounds of 8: the round's gets are one
//! `multi_get`, its puts one `multi_put` — one read round per touched
//! register, one composite write per register chunk, all in flight at
//! once). Both modes report **logical** (store-level) throughput over the
//! same workload, so the batched gain is real amortization, not
//! bookkeeping — and, since the client is the real one, it includes what
//! contention costs it: an operation that finds its register busy at a
//! node waits there in order, and `retries/op` counts the failover hops
//! each store operation paid (none in these crash-free cells).
//!
//! The **fast** column is the read fast path (confirmed timestamps): the
//! read-heavy Zipf section runs every cell twice — fast path on vs the
//! legacy always-write-back configuration — at otherwise identical
//! settings, and the `rd rounds` columns show the mechanism: mean read
//! rounds collapse from 2.0 toward 1.0 on quiescent keys while contended
//! reads still pay their write-back.
//!
//! Every run is also certified per key before its row is reported — a
//! throughput number for a run that broke atomicity would be
//! meaningless. The regular flavor is exercised with single-writer key
//! ownership (its model) and skips certification: regularity, not
//! atomicity, is its criterion.

use rmem_consistency::Criterion;
use std::time::Duration;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_core::{Flavor, SharedMemory};
use rmem_kv::{certify_per_key_epoch_path, run_hosted, KvClient, OpRecorder, Script, ShardRouter};
use rmem_sim::{ClusterConfig, KeyDistribution, LatencyStats, Simulation};
use rmem_types::OpKind;

use crate::table::Table;

/// Round size of the batched mode: store operations per round of
/// `multi_*` calls.
pub const BATCH_ROUND: usize = 8;

/// Clients (and simulated nodes) of every cell.
const CLIENTS: usize = 5;

/// Key-popularity shape of a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipf-skewed with this exponent (YCSB-style skew at ≈ 0.99).
    Zipf(f64),
}

impl KeyDist {
    fn distribution(self, n: usize) -> KeyDistribution {
        match self {
            KeyDist::Uniform => KeyDistribution::uniform(n),
            KeyDist::Zipf(s) => KeyDistribution::zipf(n, s),
        }
    }

    /// Short label for reports.
    pub fn label(self) -> String {
        match self {
            KeyDist::Uniform => "uniform".to_string(),
            KeyDist::Zipf(s) => format!("zipf({s})"),
        }
    }
}

/// One store operation of a client's stream: a put of this value under
/// key `keys[index]`, or a get of it.
enum StoreOp {
    Put(usize, Bytes),
    Get(usize),
}

/// Write fraction of the mixed (default) section.
pub const MIXED_WRITE_FRACTION: f64 = 0.5;

/// Write fraction of the read-heavy fast-path section.
pub const READ_HEAVY_WRITE_FRACTION: f64 = 0.1;

/// Write fraction of the read-mostly lease section: hot keys are read
/// over and over with only the occasional put, which is the regime tag
/// leases exist for. A put through its key's home node — the lease
/// holder — passes that node's own fence and hands the lease on to what
/// it wrote; one that fails over to another node freezes the register
/// for the fence term (~1.25× the horizon) and costs the key its lease.
/// The section keeps puts rare enough that the reads' savings decide the
/// headline ratio.
pub const LEASE_WRITE_FRACTION: f64 = 0.007;

/// Key universe of the lease section: fewer, hotter keys than the main
/// grid — the regime leases target (Zipf-hot keys re-read many times per
/// grant term). Every key's inter-touch gap must fit inside the lease
/// horizon, or it re-earns a quorum round per touch.
pub const LEASE_SHARDS: u16 = 4;

/// Full-size ops per client of the lease section (see `Cell::full_ops`).
pub const LEASE_FULL_OPS: usize = 48;

/// Lease horizon of the leased cells (virtual µs). Long enough that
/// every key's inter-touch gap fits inside one grant term (a key's home
/// node pays one quorum re-earn per horizon; the rest are zero-round
/// hits for every client), short enough that the replica-side write
/// fence (horizon + ¼ slack, during which a register written through a
/// foreign node freezes) stays a bounded, not run-dominating, put cost.
pub const LEASE_SECTION_MICROS: u64 = 1_200;

/// Closed-loop think time of the lease section (both twins), in virtual
/// µs. The main grid's 200µs default hides the read-latency win — the
/// loop spends its life thinking, not waiting on quorums — so the lease
/// section runs fully latency-dominated loops (zero think), the regime a
/// zero-round read actually accelerates.
pub const LEASE_THINK_MICROS: u64 = 0;

/// Closed-loop think time of the main grid, in virtual µs.
pub const GRID_THINK_MICROS: u64 = 200;

/// Which flavors the scenario compares.
fn flavors() -> Vec<(Flavor, Option<Criterion>, bool)> {
    vec![
        (Flavor::persistent(), Some(Criterion::Persistent), false),
        (Flavor::transient(), Some(Criterion::Transient), false),
        // Single-writer regular registers: no atomicity certification
        // (regularity is the criterion), writes partitioned by ownership.
        (Flavor::regular(), None, true),
    ]
}

/// One measured cell of the scenario.
#[derive(Debug, Clone)]
pub struct KvThroughputRow {
    /// Register flavor under test.
    pub flavor: &'static str,
    /// Key distribution label.
    pub distribution: String,
    /// Batching mode label (`unbatched` / `batched(k)`).
    pub mode: String,
    /// Fraction of store operations that are puts.
    pub write_fraction: f64,
    /// Whether the read fast path was enabled for this cell.
    pub fastpath: bool,
    /// Whether tag leases were enabled for this cell (zero-round reads).
    pub lease: bool,
    /// Store-level (logical) operations completed.
    pub completed: usize,
    /// Register operations executed to serve them.
    pub register_ops: usize,
    /// Virtual duration of the run, in seconds.
    pub virtual_secs: f64,
    /// Completed logical operations per virtual second.
    pub ops_per_sec: f64,
    /// Mean quorum rounds per register read (2.0 = every read wrote back,
    /// 1.0 = every read took the fast path; 0.0 with no reads).
    pub read_rounds_mean: f64,
    /// 99th-percentile quorum rounds per register read.
    pub read_rounds_p99: u32,
    /// Failover hops per store operation (`kv.retries`).
    pub retries_per_op: f64,
    /// Get-latency statistics (µs, per register round).
    pub get_latency: Option<LatencyStats>,
    /// Put-latency statistics (µs, per register round).
    pub put_latency: Option<LatencyStats>,
}

struct Cell {
    flavor: Flavor,
    criterion: Option<Criterion>,
    single_writer: bool,
    dist: KeyDist,
    batch: usize,
    write_fraction: f64,
    fastpath: bool,
    /// Lease horizon in virtual µs; `0` disables leases for the cell.
    lease_micros: u64,
    /// Closed-loop think time in virtual µs.
    think_micros: u64,
    /// Key/shard universe (the main grid uses 16; the lease section a
    /// hotter 4 so grants are re-served, not constantly re-earned).
    shards: u16,
    /// Full-size ops per client (smoke always runs 24). The lease
    /// section caps this at 48: with 4 shards the Zipf(0.99) hot key
    /// draws ~48% of all operations onto one register, and the
    /// linearization certifier is exponential past ~128 ops/register.
    full_ops: usize,
}

/// Draws every client's stream of store operations for `cell`: Zipf or
/// uniform keys, unique `(client, counter)`-tagged values (what gives the
/// atomicity checkers discriminating power), and under single-writer
/// ownership foreign puts folded onto an owned key of similar rank.
fn streams(cell: &Cell, keys: usize, ops_per_client: usize, seed: u64) -> Vec<Vec<StoreOp>> {
    let dist = cell.dist.distribution(keys);
    let mut rng = StdRng::seed_from_u64(1234 + seed);
    let stream = |client: usize| {
        let owned: Vec<usize> = (0..keys).filter(|i| i % CLIENTS == client).collect();
        let mut counter = 0u64;
        let ops = (0..ops_per_client).map(|_| {
            let key = dist.sample(&mut rng);
            if !rng.gen_bool(cell.write_fraction) {
                return StoreOp::Get(key);
            }
            let key = match cell.single_writer {
                true => owned[key % owned.len()],
                false => key,
            };
            let mut value = vec![0u8; 64];
            value[..8].copy_from_slice(&((client as u64) << 32 | counter).to_be_bytes());
            counter += 1;
            StoreOp::Put(key, Bytes::from(value))
        });
        ops.collect()
    };
    (0..CLIENTS).map(stream).collect()
}

/// Runs one cell. `seed` moves the workload's draws and the simulator's
/// (the shipped grid is seed 0; the threshold probe sweeps it).
fn run_cell(cell: &Cell, smoke: bool, seed: u64) -> KvThroughputRow {
    let ops_per_client = if smoke { 24 } else { cell.full_ops };
    let flavor = cell
        .flavor
        .with_read_fast_path(
            // `fastpath: true` means "the flavor's own default"; forcing it on
            // for flavors that never had it (regular, crash-stop) would be a
            // different algorithm, not a knob.
            cell.fastpath && cell.flavor.read_fast_path,
        )
        // Leases ride on the fast path; `with_lease` on a non-fast-path
        // cell is inert by construction (`Flavor::leases` gates on it).
        .with_lease(cell.lease_micros);
    let name = format!(
        "{} / {} / batch={} / fastpath={}",
        flavor.name,
        cell.dist.label(),
        cell.batch,
        cell.fastpath
    );
    let router = ShardRouter::new(cell.shards);
    let keys = router.covering_keys("key-");
    let streams = streams(cell, keys.len(), ops_per_client, seed);
    let recorder = OpRecorder::new();
    let think = Duration::from_micros(cell.think_micros);
    let sim = Simulation::new(
        ClusterConfig::new(CLIENTS),
        SharedMemory::factory(flavor),
        99 + seed,
    );
    let mut clients = Vec::new();
    let report = run_hosted(sim, |world| {
        for _ in 0..CLIENTS {
            clients.push(KvClient::over(world.clone(), router).with_recorder(recorder.clone()));
        }
        let script = |(kv, stream): (&KvClient, Vec<StoreOp>)| {
            let (kv, world, keys, name) = (kv.clone(), world.clone(), &keys, &name);
            Box::new(move || {
                // A round's gets are one call, its puts another; a round
                // of one is a `get` or a `put`.
                for round in stream.chunks(cell.batch) {
                    let (mut gets, mut puts) = (Vec::new(), Vec::new());
                    for op in round {
                        match op {
                            StoreOp::Get(k) => gets.push(keys[*k].as_str()),
                            StoreOp::Put(k, v) => puts.push((keys[*k].as_str(), v.clone())),
                        }
                    }
                    let got = kv.multi_get(&gets).map(|_| ());
                    let outcome = got.and_then(|()| kv.multi_put(&puts));
                    outcome.unwrap_or_else(|e| panic!("{name}: a crash-free call failed: {e}"));
                    world.wait_any(&[], world.now() + think);
                }
            }) as Script
        };
        clients.iter().zip(streams).map(script).collect()
    });

    if let Some(criterion) = cell.criterion {
        let names = keys.iter().map(String::as_str);
        certify_per_key_epoch_path(&recorder.history(), names, &[cell.shards], criterion)
            .unwrap_or_else(|e| panic!("{name}: run failed certification: {e}"));
    }

    let stats: Vec<_> = clients.iter().map(KvClient::stats).collect();
    let sum = |f: fn(&rmem_kv::KvOpStats) -> u64| stats.iter().map(f).sum::<u64>();
    let logical_ops = CLIENTS * ops_per_client;
    let trace = &report.trace;
    // Round counts are just another sample (a read under the home
    // node's lease is one of zero rounds); the shared stats helper
    // supplies the same nearest-rank-p99 the latency columns use.
    let rounds = trace.rounds(OpKind::Read).into_iter().map(u64::from);
    let rounds = LatencyStats::from_sample(rounds.collect());
    let virtual_secs = report.final_time.as_micros() as f64 / 1e6;
    KvThroughputRow {
        flavor: cell.flavor.name,
        distribution: cell.dist.label(),
        mode: if cell.batch == 1 {
            "unbatched".to_string()
        } else {
            format!("batched({})", cell.batch)
        },
        write_fraction: cell.write_fraction,
        fastpath: flavor.read_fast_path,
        lease: flavor.leases(),
        completed: logical_ops,
        register_ops: trace
            .operations()
            .iter()
            .filter(|o| o.is_completed())
            .count(),
        virtual_secs,
        ops_per_sec: logical_ops as f64 / virtual_secs,
        read_rounds_mean: sum(|s| s.read_rounds) as f64 / sum(|s| s.reads).max(1) as f64,
        read_rounds_p99: rounds.map_or(0, |s| s.p99 as u32),
        retries_per_op: sum(|s| s.retries) as f64 / logical_ops as f64,
        get_latency: LatencyStats::from_sample(trace.latencies(OpKind::Read)),
        put_latency: LatencyStats::from_sample(trace.latencies(OpKind::Write)),
    }
}

/// Runs the full scenario. The mixed section: 3 flavors × {uniform,
/// zipf(0.99)} × {unbatched, batched} at 50% puts. The read-heavy
/// fast-path section: persistent/transient × zipf(0.99) × {unbatched,
/// batched} × {fast path, legacy} at 10% puts. `smoke` shrinks the
/// workload for CI (same grid, same certification); `fastpath_default =
/// false` forces *every* cell onto the legacy two-round read path, so CI
/// can exercise the fallback end to end.
///
/// # Panics
///
/// Panics if an atomic flavor's run fails its per-key certification, or
/// if a call of a crash-free run fails — either would make the throughput
/// numbers meaningless.
pub fn kv_throughput_with_mode(
    smoke: bool,
    fastpath_default: bool,
) -> (Vec<KvThroughputRow>, Table) {
    let cells = grid_cells(fastpath_default);
    let rows: Vec<KvThroughputRow> = cells.iter().map(|c| run_cell(c, smoke, 0)).collect();
    let table = build_table(
        "kv_throughput — sharded store, 5 real clients hosted in the \
         simulator, 16 shards; wf = put fraction, fast = read fast path, \
         lease = tag leases; ops/s is store-level work over the same \
         workload per mode; time = virtual: latencies are simulated µs, \
         not wall clock (wall-clock percentiles come from the --obs \
         scenario)",
        &rows,
    );
    (rows, table)
}

/// The cells of [`kv_throughput_with_mode`].
fn grid_cells(fastpath_default: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (flavor, criterion, single_writer) in flavors() {
        for dist in [KeyDist::Uniform, KeyDist::Zipf(0.99)] {
            for batch in [1usize, BATCH_ROUND] {
                cells.push(Cell {
                    flavor,
                    criterion,
                    single_writer,
                    dist,
                    batch,
                    write_fraction: MIXED_WRITE_FRACTION,
                    fastpath: fastpath_default,
                    lease_micros: 0,
                    think_micros: GRID_THINK_MICROS,
                    shards: 16,
                    full_ops: 60,
                });
            }
        }
    }
    // The fast-path section: the atomic flavors under a read-heavy Zipf
    // load, each cell twice — optimised vs legacy — at otherwise
    // identical settings.
    for (flavor, criterion, single_writer) in flavors() {
        if !flavor.read_fast_path {
            continue;
        }
        for batch in [1usize, BATCH_ROUND] {
            for fastpath in [fastpath_default, false] {
                cells.push(Cell {
                    flavor,
                    criterion,
                    single_writer,
                    dist: KeyDist::Zipf(0.99),
                    batch,
                    write_fraction: READ_HEAVY_WRITE_FRACTION,
                    fastpath,
                    lease_micros: 0,
                    think_micros: GRID_THINK_MICROS,
                    shards: 16,
                    full_ops: 60,
                });
            }
        }
    }
    // Forcing legacy everywhere makes the fast/legacy pairs identical;
    // drop the duplicates so every row stays a distinct cell.
    if !fastpath_default {
        let mut seen = std::collections::BTreeSet::new();
        cells.retain(|c| {
            seen.insert((
                c.flavor.name,
                c.dist.label(),
                c.batch,
                (c.write_fraction * 100.0) as u32,
            ))
        });
    }

    cells
}

/// Renders rows in the scenario's shared column layout.
fn build_table(title: &str, rows: &[KvThroughputRow]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "flavor",
            "key dist",
            "mode",
            "time",
            "wf",
            "fast",
            "lease",
            "ops",
            "reg ops",
            "virtual s",
            "ops/s",
            "rd rounds",
            "rd p99",
            "retries/op",
            "get p50µs",
            "put p50µs",
        ],
    );
    for r in rows {
        table.row(&[
            r.flavor.to_string(),
            r.distribution.clone(),
            r.mode.clone(),
            "virtual".to_string(),
            format!("{}", r.write_fraction),
            if r.fastpath { "on" } else { "off" }.to_string(),
            if r.lease { "on" } else { "off" }.to_string(),
            r.completed.to_string(),
            r.register_ops.to_string(),
            format!("{:.3}", r.virtual_secs),
            format!("{:.0}", r.ops_per_sec),
            format!("{:.2}", r.read_rounds_mean),
            r.read_rounds_p99.to_string(),
            format!("{:.2}", r.retries_per_op),
            r.get_latency
                .as_ref()
                .map(|s| s.p50.to_string())
                .unwrap_or_else(|| "-".into()),
            r.put_latency
                .as_ref()
                .map(|s| s.p50.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    table
}

/// The tag-lease section: the atomic flavors under the read-mostly
/// Zipf(0.99) load, each flavor twice — leases on vs off — at otherwise
/// identical settings (unbatched: leases serve interactive single gets;
/// batching amortises rounds by a different mechanism and would conflate
/// the two). The leased twin's reads collapse toward **zero** rounds on
/// the hot keys (the `rd rounds` column is the mechanism; the ops/s
/// ratio is the headline); its puts go through the lease holders and
/// pass their own fences. Every leased run is certified per key exactly
/// like every other cell.
pub fn kv_lease_section(smoke: bool) -> (Vec<KvThroughputRow>, Table) {
    let cells = lease_cells();
    let rows: Vec<KvThroughputRow> = cells.iter().map(|c| run_cell(c, smoke, 0)).collect();
    let table = build_table(
        "kv_throughput --lease — read-mostly Zipf(0.99) with tag leases \
         on vs off; a key's home node answers leased reads with zero \
         quorum rounds (rd rounds < 1), a put through it does not wait; \
         every run certified per key",
        &rows,
    );
    (rows, table)
}

/// The cells of [`kv_lease_section`].
fn lease_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (flavor, criterion, single_writer) in flavors() {
        if !flavor.read_fast_path {
            continue;
        }
        for lease in [true, false] {
            cells.push(Cell {
                flavor,
                criterion,
                single_writer,
                dist: KeyDist::Zipf(0.99),
                batch: 1,
                write_fraction: LEASE_WRITE_FRACTION,
                fastpath: true,
                lease_micros: if lease { LEASE_SECTION_MICROS } else { 0 },
                think_micros: LEASE_THINK_MICROS,
                shards: LEASE_SHARDS,
                full_ops: LEASE_FULL_OPS,
            });
        }
    }
    cells
}

/// [`kv_throughput_with_mode`] with the shipping fast-path defaults.
pub fn kv_throughput_with(smoke: bool) -> (Vec<KvThroughputRow>, Table) {
    kv_throughput_with_mode(smoke, true)
}

/// The full scenario at its default size (see [`kv_throughput_with`]).
pub fn kv_throughput() -> (Vec<KvThroughputRow>, Table) {
    kv_throughput_with(false)
}

/// Serializes rows as a JSON array (one object per cell) for the perf
/// trajectory file (`BENCH_kv.json`): machine-readable so future changes
/// can diff ops/s and read-round numbers against the committed baseline.
/// When a [`reshard`](crate::reshard) report rides along (`--reshard`),
/// a [`disk`](crate::disk) report (`--disk`), an [`obs`](crate::obs)
/// report (`--obs`) and/or a [`pipeline`](crate::pipeline) depth sweep
/// (`--pipeline-depth`), their objects are appended to the same array so
/// the trajectory also tracks migration cost, real-disk durability
/// throughput, wall-clock latency percentiles with the
/// instrumentation-overhead ratio, and depth-labeled pipeline scaling.
pub fn rows_to_json_with(
    rows: &[KvThroughputRow],
    reshard: Option<&crate::reshard::ReshardReport>,
    disk: Option<&crate::disk::DiskReport>,
    obs: Option<&crate::obs::ObsReport>,
    trace: Option<&crate::trace::TraceBenchReport>,
    pipeline: Option<&crate::pipeline::PipelineReport>,
) -> String {
    let mut out = rows_to_json(rows);
    let mut extras = Vec::new();
    if let Some(report) = reshard {
        extras.push(crate::reshard::reshard_to_json(report));
    }
    if let Some(report) = disk {
        extras.push(crate::disk::disk_to_json(report));
    }
    if let Some(report) = obs {
        extras.push(report.to_json());
    }
    if let Some(report) = trace {
        extras.push(report.to_json());
    }
    if let Some(report) = pipeline {
        extras.push(report.to_json());
    }
    for extra in extras {
        let closing = out.rfind("\n]").expect("rows array closes");
        out.replace_range(closing.., &format!(",\n{extra}\n]\n"));
    }
    out
}

/// [`rows_to_json_with`] without extra scenario reports.
pub fn rows_to_json(rows: &[KvThroughputRow]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  {{\"flavor\": \"{}\", \"distribution\": \"{}\", \"mode\": \"{}\", \
             \"time\": \"virtual\", \"client\": \"real KvClient, hosted in rmem-sim\", \
             \"write_fraction\": {:.2}, \"fastpath\": {}, \"lease\": {}, \"logical_ops\": {}, \
             \"register_ops\": {}, \"virtual_secs\": {:.6}, \"ops_per_sec\": {:.1}, \
             \"read_rounds_mean\": {:.4}, \"read_rounds_p99\": {}, \"retries_per_op\": {:.3}, \
             \"get_p50_us\": {}, \"put_p50_us\": {}}}",
            r.flavor,
            r.distribution,
            r.mode,
            r.write_fraction,
            r.fastpath,
            r.lease,
            r.completed,
            r.register_ops,
            r.virtual_secs,
            r.ops_per_sec,
            r.read_rounds_mean,
            r.read_rounds_p99,
            r.retries_per_op,
            r.get_latency
                .as_ref()
                .map(|s| s.p50.to_string())
                .unwrap_or_else(|| "null".into()),
            r.put_latency
                .as_ref()
                .map(|s| s.p50.to_string())
                .unwrap_or_else(|| "null".into()),
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell<'a>(
        rows: &'a [KvThroughputRow],
        flavor: &str,
        dist: &str,
        mode_prefix: &str,
        wf: f64,
        fastpath: bool,
    ) -> &'a KvThroughputRow {
        rows.iter()
            .find(|r| {
                r.flavor == flavor
                    && r.distribution == dist
                    && r.mode.starts_with(mode_prefix)
                    && (r.write_fraction - wf).abs() < 1e-9
                    && r.fastpath == fastpath
            })
            .unwrap_or_else(|| {
                panic!("missing cell {flavor}/{dist}/{mode_prefix}/wf={wf}/fast={fastpath}")
            })
    }

    #[test]
    fn scenario_produces_all_cells_and_certifies() {
        let (rows, table) = kv_throughput_with(true);
        // 12 mixed cells + 8 read-heavy fast/legacy cells.
        assert_eq!(rows.len(), 20, "3×2×2 mixed + 2×2×2 read-heavy");
        assert_eq!(table.len(), 20);
        for r in &rows {
            assert!(
                r.completed > 0,
                "{}/{}/{} completed nothing",
                r.flavor,
                r.distribution,
                r.mode
            );
            assert!(r.ops_per_sec > 0.0);
        }
        // The transient flavor logs less than the persistent one on puts;
        // in noise-free virtual time that must show as cheaper puts.
        let put_p50 = |flavor: &str, dist: &str| {
            cell(&rows, flavor, dist, "unbatched", MIXED_WRITE_FRACTION, true)
                .put_latency
                .as_ref()
                .map(|s| s.p50)
                .unwrap()
        };
        assert!(
            put_p50("transient", "uniform") <= put_p50("persistent", "uniform"),
            "transient puts must not be slower than persistent ones"
        );
    }

    #[test]
    fn batching_beats_the_unbatched_path_under_zipf() {
        let (rows, _) = kv_throughput_with(true);
        for flavor in ["persistent", "transient"] {
            let unbatched = cell(
                &rows,
                flavor,
                "zipf(0.99)",
                "unbatched",
                MIXED_WRITE_FRACTION,
                true,
            );
            let batched = cell(
                &rows,
                flavor,
                "zipf(0.99)",
                "batched",
                MIXED_WRITE_FRACTION,
                true,
            );
            assert!(
                batched.register_ops < unbatched.register_ops,
                "{flavor}: batching must coalesce register ops"
            );
            assert!(
                batched.ops_per_sec > unbatched.ops_per_sec,
                "{flavor}/zipf: batched {:.0} ops/s must beat unbatched {:.0} ops/s",
                batched.ops_per_sec,
                unbatched.ops_per_sec
            );
        }
    }

    #[test]
    fn fast_path_wins_the_read_heavy_zipf_rows() {
        let (rows, _) = kv_throughput_with(true);
        for flavor in ["persistent", "transient"] {
            for mode in ["unbatched", "batched"] {
                let fast = cell(
                    &rows,
                    flavor,
                    "zipf(0.99)",
                    mode,
                    READ_HEAVY_WRITE_FRACTION,
                    true,
                );
                let legacy = cell(
                    &rows,
                    flavor,
                    "zipf(0.99)",
                    mode,
                    READ_HEAVY_WRITE_FRACTION,
                    false,
                );
                let speedup = fast.ops_per_sec / legacy.ops_per_sec;
                // 0.9 × the worst smoke cell over eight seeds (the bin
                // asserts the full-size 1.17×).
                assert!(
                    speedup >= 1.03,
                    "{flavor}/{mode}: fast path must win on read-heavy zipf, got {speedup:.2}×"
                );
                assert!(
                    fast.read_rounds_mean < 2.0,
                    "{flavor}/{mode}: mean read rounds must drop below 2.0, got {:.2}",
                    fast.read_rounds_mean
                );
                assert!(
                    (legacy.read_rounds_mean - 2.0).abs() < f64::EPSILON,
                    "{flavor}/{mode}: the legacy path must pay 2 rounds per read, got {:.2}",
                    legacy.read_rounds_mean
                );
            }
        }
    }

    #[test]
    fn legacy_mode_runs_the_whole_grid_without_fast_reads() {
        let (rows, _) = kv_throughput_with_mode(true, false);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(!r.fastpath, "legacy mode must disable every cell");
            if r.flavor != "regular" && r.read_rounds_mean > 0.0 {
                assert!(
                    (r.read_rounds_mean - 2.0).abs() < f64::EPSILON,
                    "{}/{}: legacy reads must pay both rounds",
                    r.flavor,
                    r.distribution
                );
            }
        }
    }

    /// Hand-run parameter probe for the lease section: sweeps the lease
    /// horizon and write fraction around the shipped operating point and
    /// prints mean read rounds and the on/off throughput ratio for both
    /// flavors at both sizes. The shipped constants sit where full-size
    /// clears the acceptance gates (mean ≤ 0.09, ≥ 3.9×) with margin:
    /// pushing the horizon up lengthens every put's fence freeze; pushing
    /// the write fraction up multiplies the freezes.
    #[test]
    #[ignore = "parameter probe, run by hand"]
    fn probe_lease_parameters() {
        for (flavor, criterion) in [
            (Flavor::persistent(), Criterion::Persistent),
            (Flavor::transient(), Criterion::Transient),
        ] {
            for lease_micros in [1_000u64, 1_200, 1_500] {
                for wf in [0.005f64, 0.007, 0.01] {
                    let mk = |lease: bool| Cell {
                        flavor,
                        criterion: Some(criterion),
                        single_writer: false,
                        dist: KeyDist::Zipf(0.99),
                        batch: 1,
                        write_fraction: wf,
                        fastpath: true,
                        lease_micros: if lease { lease_micros } else { 0 },
                        think_micros: LEASE_THINK_MICROS,
                        shards: LEASE_SHARDS,
                        full_ops: LEASE_FULL_OPS,
                    };
                    for smoke in [true, false] {
                        let on = run_cell(&mk(true), smoke, 0);
                        let off = run_cell(&mk(false), smoke, 0);
                        println!(
                            "{} L={lease_micros} wf={wf} smoke={smoke}: mean {:.3} (off {:.3}), \
                             ops/s {:.0} vs {:.0} = {:.2}x",
                            flavor.name,
                            on.read_rounds_mean,
                            off.read_rounds_mean,
                            on.ops_per_sec,
                            off.ops_per_sec,
                            on.ops_per_sec / off.ops_per_sec,
                        );
                    }
                }
            }
        }
    }

    /// Hand-run probe behind every numeric threshold this module and the
    /// bin assert: the headline ratios of both sections, at both sizes,
    /// over eight seeds (workload draws and simulator). Thresholds are
    /// pinned at 0.9 × the worst reading (a cap at the worst / 0.9);
    /// CHANGES.md records the readings.
    #[test]
    #[ignore = "threshold probe, run by hand"]
    fn probe_thresholds_across_seeds() {
        let ops = |rows: &[KvThroughputRow], pick: &dyn Fn(&KvThroughputRow) -> bool| {
            let row = rows.iter().find(|r| pick(r)).expect("cell");
            (row.ops_per_sec, row.read_rounds_mean)
        };
        for smoke in [true, false] {
            for seed in 0..8 {
                let cells = grid_cells(true);
                let rows: Vec<_> = cells.iter().map(|c| run_cell(c, smoke, seed)).collect();
                let lease = lease_cells();
                let lease: Vec<_> = lease.iter().map(|c| run_cell(c, smoke, seed)).collect();
                for flavor in ["persistent", "transient"] {
                    let zipf = |r: &KvThroughputRow, mode: &str, wf: f64| {
                        r.flavor == flavor
                            && r.distribution == "zipf(0.99)"
                            && r.mode.starts_with(mode)
                            && (r.write_fraction - wf).abs() < 1e-9
                    };
                    let mixed = |mode| ops(&rows, &|r| zipf(r, mode, MIXED_WRITE_FRACTION)).0;
                    print!(
                        "smoke={smoke} seed={seed} {flavor}: batched/unbatched {:.2}x;",
                        mixed("batched") / mixed("unbatched")
                    );
                    for mode in ["unbatched", "batched"] {
                        let heavy = |fast| {
                            let wf = READ_HEAVY_WRITE_FRACTION;
                            ops(&rows, &|r| zipf(r, mode, wf) && r.fastpath == fast)
                        };
                        let (fast, legacy) = (heavy(true), heavy(false));
                        print!(
                            " fast/legacy {mode} {:.2}x ({:.2} vs {:.2} rounds);",
                            fast.0 / legacy.0,
                            fast.1,
                            legacy.1
                        );
                    }
                    let twin = |on| ops(&lease, &|r| r.flavor == flavor && r.lease == on);
                    let (on, off) = (twin(true), twin(false));
                    println!(
                        " lease on/off {:.2}x ({:.3} vs {:.2} rounds)",
                        on.0 / off.0,
                        on.1,
                        off.1
                    );
                }
            }
        }
    }

    #[test]
    fn lease_twins_hit_the_zero_round_gates() {
        let (rows, table) = kv_lease_section(true);
        assert_eq!(rows.len(), 4, "2 flavors × lease on/off");
        assert_eq!(table.len(), 4);
        for flavor in ["persistent", "transient"] {
            let pick = |lease: bool| {
                rows.iter()
                    .find(|r| r.flavor == flavor && r.lease == lease)
                    .unwrap_or_else(|| panic!("missing {flavor}/lease={lease}"))
            };
            let (on, off) = (pick(true), pick(false));
            // The full-size acceptance gates (mean read rounds ≤ 0.09,
            // ≥ 3.9× the off twin) are asserted by the bin and recorded
            // in BENCH_kv.json. The smoke run here is half the length, so
            // the cold-start grant-earning reads cover a larger share of
            // it; its guards come from the same eight-seed probe.
            assert!(
                on.read_rounds_mean <= 0.10,
                "{flavor}: leased mean read rounds must be ≤ 0.10, got {:.3}",
                on.read_rounds_mean
            );
            let speedup = on.ops_per_sec / off.ops_per_sec;
            assert!(
                speedup >= 4.5,
                "{flavor}: leases must clear 4.5× the lease-off twin even at \
                 smoke size, got {speedup:.2}×"
            );
            assert!(
                off.read_rounds_mean >= 1.0,
                "{flavor}: the off twin must pay quorum rounds"
            );
            assert!(
                on.lease && !off.lease && on.fastpath && off.fastpath,
                "{flavor}: the twins differ in leases and nothing else"
            );
        }
    }

    #[test]
    fn json_rows_are_parseable_shape() {
        let (rows, _) = kv_throughput_with(true);
        let json = rows_to_json(&rows);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"flavor\"").count(), rows.len());
        assert!(json.contains("\"read_rounds_mean\""));
    }
}
