//! Clusters, seeded inputs, the closed-loop drivers and the correctness
//! checks every run carries.
//!
//! All traffic is **closed loop**: each client thread issues its next
//! call only after the previous one returned, so a slower system receives
//! less load. The workload seed picks keys, values and the op sequence;
//! the program sees only those generated inputs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_consistency::{check_freshness, Criterion, FreshnessKind, FreshnessOp};
use rmem_core::{Flavor, SharedMemory};
use rmem_kv::{certify_per_key_epoch_path, KvClient, KvOpStats, OpRecorder, ShardRouter};
use rmem_net::{DiskMode, LocalCluster};
use rmem_sim::KeyDistribution;
use rmem_types::{ProcessId, RegisterId};

use crate::span::{SpanBuf, Spans};
use crate::spec::{Workload, NODES, RECOVER_PUTS_PER_CYCLE, SHARDS};

/// Keys read back per `multi_get` in the end-of-run and post-restart
/// checks.
const READ_BACK_BATCH: usize = 16;
/// Restart cycles the traced pass appends to every steady workload so
/// `e2e.restart_p50_ms` has a median (21 samples leave ten beyond the
/// 50th percentile).
pub const STEADY_RESTART_CYCLES: usize = 21;
/// How long a restarted node may take to serve its first read before the
/// run is declared incorrect.
const RESTART_PATIENCE: Duration = Duration::from_secs(20);

impl Workload {
    pub fn flavor(&self) -> Flavor {
        let base = if self.persistent {
            Flavor::persistent()
        } else {
            Flavor::transient()
        };
        base.with_lease(self.lease.map_or(0, |(micros, _)| micros))
    }

    pub fn criterion(&self) -> Criterion {
        if self.persistent {
            Criterion::Persistent
        } else {
            Criterion::Transient
        }
    }

    /// Each key has exactly one writing thread, so per-key versions are
    /// monotone and a read can be checked against what its writer acked.
    fn owner(&self, key_idx: usize) -> usize {
        key_idx % self.threads
    }
}

/// A directory under the benchmark's own `out/` that disappears with the
/// run (WAL segments, probe files).
pub struct TmpDir(PathBuf);

impl TmpDir {
    pub fn new(root: &Path, label: &str) -> Self {
        let dir = root.join(format!("tmp-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating the run's scratch directory");
        TmpDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The seeded inputs of one run: the key universe (one covering key per
/// shard), value filler and the popularity distribution.
pub struct Inputs {
    pub keys: Vec<String>,
    filler: Vec<u8>,
    dist: KeyDistribution,
}

const VALUE_HEADER: usize = 8;
const COUNTER_BITS: u32 = 48;

impl Inputs {
    pub fn new(w: &Workload, seed: u64) -> Self {
        assert!(w.value_len >= VALUE_HEADER, "values carry an 8-byte header");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_f111);
        Inputs {
            keys: ShardRouter::new(SHARDS).covering_keys(&format!("s{seed}-")),
            filler: (0..w.value_len - VALUE_HEADER).map(|_| rng.gen()).collect(),
            dist: if w.zipf {
                KeyDistribution::zipf(usize::from(SHARDS), 0.99)
            } else {
                KeyDistribution::uniform(usize::from(SHARDS))
            },
        }
    }

    /// The value a writer installs: the key's index and the writer's
    /// counter in the first eight bytes, seeded filler after.
    pub fn value(&self, key_idx: usize, counter: u64) -> Bytes {
        debug_assert!(counter < 1 << COUNTER_BITS);
        let mut v = Vec::with_capacity(VALUE_HEADER + self.filler.len());
        v.extend_from_slice(&(((key_idx as u64) << COUNTER_BITS) | counter).to_be_bytes());
        v.extend_from_slice(&self.filler);
        Bytes::from(v)
    }

    /// `(key index, counter)` of a value, if it is one of ours — header
    /// *and* filler intact.
    pub fn parse(&self, value: &[u8]) -> Option<(usize, u64)> {
        let (header, filler) = value.split_at_checked(VALUE_HEADER)?;
        if filler != self.filler {
            return None;
        }
        let packed = u64::from_be_bytes(header.try_into().ok()?);
        Some((
            (packed >> COUNTER_BITS) as usize,
            packed & ((1 << COUNTER_BITS) - 1),
        ))
    }

    /// The data register `kv` keeps `key_idx` in, under the live map.
    pub fn register(&self, kv: &KvClient, key_idx: usize) -> RegisterId {
        kv.shard_map().register_for(&self.keys[key_idx])
    }
}

pub fn build_cluster(w: &Workload, dir: &Path) -> LocalCluster {
    let factory = SharedMemory::factory(w.flavor());
    if w.udp_wal {
        // The WAL's shipped default flush policy, on both sides of any
        // comparison.
        LocalCluster::udp_with_disk(NODES, factory, dir, DiskMode::Wal)
    } else {
        LocalCluster::channel(NODES, factory)
    }
    .expect("building the cluster")
}

/// A client family over every node currently up.
pub fn new_kv(w: &Workload, cluster: &LocalCluster) -> KvClient {
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(SHARDS)).expect("nodes are up");
    match w.lease {
        Some((_, capacity)) => kv.with_lease_cache(capacity),
        None => kv,
    }
}

/// What one driver measured and found.
#[derive(Default)]
pub struct Tally {
    pub get_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
    /// Completed logical key operations.
    pub key_ops: u64,
    /// When each successful call completed, and how many key operations
    /// it carried: the window is cut into slices from these.
    pub completions: Vec<(Instant, u32)>,
    /// Client calls attempted / returned `Err` or were refused.
    pub calls: u64,
    pub failed: u64,
    pub first_submit: Option<Instant>,
    pub last_done: Option<Instant>,
    pub violations: Vec<String>,
}

impl Tally {
    fn violation(&mut self, what: String) {
        // The first few name the problem; a flood names nothing more.
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.get_ns.extend(other.get_ns);
        self.put_ns.extend(other.put_ns);
        self.completions.extend(other.completions);
        self.key_ops += other.key_ops;
        self.calls += other.calls;
        self.failed += other.failed;
        self.first_submit = match (self.first_submit, other.first_submit) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_done = match (self.last_done, other.last_done) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        for v in other.violations {
            self.violation(v);
        }
    }

    /// Key operations completed in each whole `slice` of the window
    /// (first submit → last completion; the ragged tail is dropped).
    pub fn slice_ops(&self, slice: Duration) -> Vec<u64> {
        let Some(start) = self.first_submit else {
            return Vec::new();
        };
        let whole = (self.elapsed().as_nanos() / slice.as_nanos()) as usize;
        let mut ops = vec![0u64; whole];
        for &(done, n) in &self.completions {
            let i = ((done - start).as_nanos() / slice.as_nanos()) as usize;
            if let Some(slot) = ops.get_mut(i) {
                *slot += u64::from(n);
            }
        }
        ops
    }

    /// First submit → last completion.
    pub fn elapsed(&self) -> Duration {
        match (self.first_submit, self.last_done) {
            (Some(a), Some(b)) => b.duration_since(a),
            _ => Duration::ZERO,
        }
    }
}

/// One closed-loop client thread: its own client family, its seeded op
/// stream, and what it knows must be true of every read.
pub struct Driver<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    thread: usize,
    pub kv: KvClient,
    /// Counters of client families this driver has already replaced.
    retired: KvOpStats,
    rng: StdRng,
    counter: u64,
    /// Per writer thread: the highest counter it has *issued* (bumped
    /// before the put is submitted) — no read may return a newer one.
    issued: &'a [AtomicU64],
    /// Keys this thread writes: the counter of the last acked put
    /// (`None` after a failed put, until the next ack).
    expected: Vec<Option<u64>>,
    /// Keys other threads write: the newest counter this thread has
    /// read — a later read may not go back.
    seen: Vec<u64>,
    picked: Vec<usize>,
    op_seq: u64,
    pub tally: Tally,
}

impl<'a> Driver<'a> {
    pub fn new(
        w: &'a Workload,
        inputs: &'a Inputs,
        thread: usize,
        seed: u64,
        kv: KvClient,
        issued: &'a [AtomicU64],
    ) -> Self {
        assert!(
            w.batch == 1 || w.threads == 1,
            "batched calls span keys of every owner; they need a single writer"
        );
        Driver {
            w,
            inputs,
            thread,
            kv,
            retired: KvOpStats::default(),
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ thread as u64),
            counter: 0,
            issued,
            expected: vec![None; inputs.keys.len()],
            seen: vec![0; inputs.keys.len()],
            picked: Vec::with_capacity(w.batch),
            op_seq: 0,
            tally: Tally::default(),
        }
    }

    /// Replaces the client family (handles to a restarted node's old
    /// runner stay dead), keeping the old family's counters.
    pub fn swap_kv(&mut self, kv: KvClient) {
        self.retired = self.stats();
        self.kv = kv;
    }

    /// The `kv.*` counters of every family this driver has used.
    pub fn stats(&self) -> KvOpStats {
        let (a, b) = (self.retired, self.kv.stats());
        KvOpStats {
            reads: a.reads + b.reads,
            read_rounds: a.read_rounds + b.read_rounds,
            fast_reads: a.fast_reads + b.fast_reads,
            writes: a.writes + b.writes,
            write_rounds: a.write_rounds + b.write_rounds,
            retries: a.retries + b.retries,
            lease_hits: a.lease_hits + b.lease_hits,
            lease_revocations: a.lease_revocations + b.lease_revocations,
            ..b
        }
    }

    /// The next counter of this writer, announced before it is used.
    pub fn issue(&mut self) -> u64 {
        self.counter += 1;
        // SeqCst: a reader that observes the value through the cluster
        // must also observe this bump.
        self.issued[self.thread].store(self.counter, Ordering::SeqCst);
        self.counter
    }

    /// Writes every key this thread owns once, so no measured read ever
    /// sees ⊥.
    pub fn preload(&mut self) {
        let owned: Vec<usize> = (0..self.inputs.keys.len())
            .filter(|&k| self.w.owner(k) == self.thread)
            .collect();
        for chunk in owned.chunks(READ_BACK_BATCH) {
            self.put_keys(chunk, &mut SpanBuf::off(), 0);
        }
        self.tally = Tally::default();
    }

    /// The seeded choice of the next call: put or get, and which keys.
    fn pick(&mut self) -> bool {
        let put = self.rng.gen_bool(self.w.put_share);
        self.picked.clear();
        if self.w.batch == 1 {
            let mut k = self.inputs.dist.sample(&mut self.rng);
            if put {
                // The nearest key of this thread's residue class: for
                // adjacent Zipf ranks the popularity is all but equal.
                k = k - k % self.w.threads + self.thread;
            }
            self.picked.push(k);
        } else {
            // A window of consecutive covering keys: distinct shards,
            // uniform over the key space.
            let n = self.inputs.keys.len();
            let start = self.rng.gen_range(0..n);
            self.picked
                .extend((0..self.w.batch).map(|j| (start + j) % n));
        }
        put
    }

    /// The seeded choice of the next call — put or get, and which keys —
    /// for a caller that issues it itself (the ladder's `rmem_net` rung).
    pub fn next_call(&mut self) -> (bool, Vec<usize>) {
        let put = self.pick();
        (put, self.picked.clone())
    }

    /// One client call of the workload's mix.
    pub fn call(&mut self, spans: &mut SpanBuf<'_>, parent: u32) {
        let put = self.pick();
        let picked = std::mem::take(&mut self.picked);
        if put {
            self.put_keys(&picked, spans, parent);
        } else {
            self.get_keys(&picked, spans, parent);
        }
        self.picked = picked;
    }

    pub fn put_keys(&mut self, keys: &[usize], spans: &mut SpanBuf<'_>, parent: u32) {
        let counters: Vec<u64> = keys.iter().map(|_| self.issue()).collect();
        let entries: Vec<(&str, Bytes)> = keys
            .iter()
            .zip(&counters)
            .map(|(&k, &c)| (self.inputs.keys[k].as_str(), self.inputs.value(k, c)))
            .collect();
        self.op_seq += 1;
        let span = spans.open("kv.put", parent, self.op_seq);
        let started = Instant::now();
        let outcome = if self.w.batch == 1 && entries.len() == 1 {
            let (key, value) = entries.into_iter().next().expect("one entry");
            self.kv.put(key, value)
        } else {
            self.kv.multi_put(&entries)
        };
        let done = Instant::now();
        spans.close(span);
        self.note_call(started, done);
        match outcome {
            Ok(()) => {
                self.tally.put_ns.push((done - started).as_nanos() as u64);
                self.tally.completions.push((done, keys.len() as u32));
                self.tally.key_ops += keys.len() as u64;
                for (&k, &c) in keys.iter().zip(&counters) {
                    self.expected[k] = Some(c);
                }
            }
            Err(e) => {
                self.tally.failed += 1;
                eprintln!("# put failed: {e}");
                for &k in keys {
                    self.expected[k] = None;
                }
            }
        }
    }

    pub fn get_keys(&mut self, keys: &[usize], spans: &mut SpanBuf<'_>, parent: u32) {
        self.op_seq += 1;
        let span = spans.open("kv.get", parent, self.op_seq);
        let started = Instant::now();
        let outcome = if self.w.batch == 1 && keys.len() == 1 {
            self.kv.get(&self.inputs.keys[keys[0]]).map(|v| vec![v])
        } else {
            let names: Vec<&str> = keys.iter().map(|&k| self.inputs.keys[k].as_str()).collect();
            self.kv.multi_get(&names)
        };
        let done = Instant::now();
        spans.close(span);
        self.note_call(started, done);
        match outcome {
            Ok(values) => {
                self.tally.get_ns.push((done - started).as_nanos() as u64);
                self.tally.completions.push((done, keys.len() as u32));
                self.tally.key_ops += keys.len() as u64;
                for (&k, value) in keys.iter().zip(&values) {
                    self.check_read(k, value.as_deref());
                }
            }
            Err(e) => {
                self.tally.failed += 1;
                eprintln!("# get failed: {e}");
            }
        }
    }

    fn note_call(&mut self, started: Instant, done: Instant) {
        self.tally.calls += 1;
        self.tally.first_submit.get_or_insert(started);
        self.tally.last_done = Some(done);
    }

    /// Every read must decode to its own key and to a counter its writer
    /// really issued; the writer itself must see exactly its last acked
    /// put, and nobody may see a key go backwards.
    fn check_read(&mut self, k: usize, value: Option<&[u8]>) {
        let key = &self.inputs.keys[k];
        let Some((got_key, counter)) = value.and_then(|v| self.inputs.parse(v)) else {
            self.tally
                .violation(format!("{key}: read {value:?}, not a value this run wrote"));
            return;
        };
        if got_key != k {
            self.tally.violation(format!(
                "{key}: read a value written for {}",
                self.inputs.keys.get(got_key).map_or("?", String::as_str)
            ));
            return;
        }
        let owner = self.w.owner(k);
        let issued = self.issued[owner].load(Ordering::SeqCst);
        if counter > issued {
            self.tally.violation(format!(
                "{key}: read counter {counter}, newer than the last issued ({issued})"
            ));
        }
        if owner == self.thread {
            if let Some(acked) = self.expected[k] {
                if counter != acked {
                    self.tally.violation(format!(
                        "{key}: read counter {counter}, but the last acked put was {acked}"
                    ));
                }
            }
        } else if counter < self.seen[k] {
            self.tally.violation(format!(
                "{key}: read counter {counter} after already reading {}",
                self.seen[k]
            ));
        } else {
            self.seen[k] = counter;
        }
    }

    /// Records the outcome of a write of `k` made beside `put_keys` (the
    /// ladder's net-level rung): `Some(counter)` acked, `None` unknown.
    pub fn acked(&mut self, k: usize, counter: Option<u64>) {
        self.expected[k] = counter;
    }

    /// What this thread's own keys must read as.
    pub fn owned_expectations(&self) -> impl Iterator<Item = (usize, Option<u64>)> + '_ {
        self.expected
            .iter()
            .enumerate()
            .filter(|(k, _)| self.w.owner(*k) == self.thread)
            .map(|(k, e)| (k, *e))
    }

    /// Test hook: pretend a different put was the last one acked.
    #[cfg(test)]
    pub fn forget_last_ack(&mut self, k: usize) {
        self.expected[k] = self.expected[k].map(|c| c + 1);
    }
}

/// One driver per client thread, each with its own client family, keys
/// preloaded.
pub fn drivers<'a>(
    w: &'a Workload,
    inputs: &'a Inputs,
    seed: u64,
    cluster: &LocalCluster,
    issued: &'a [AtomicU64],
) -> Vec<Driver<'a>> {
    (0..w.threads)
        .map(|t| {
            let mut d = Driver::new(w, inputs, t, seed, new_kv(w, cluster), issued);
            d.preload();
            d
        })
        .collect()
}

pub fn issued_counters(w: &Workload) -> Vec<AtomicU64> {
    (0..w.threads).map(|_| AtomicU64::new(0)).collect()
}

#[derive(Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    /// A number of calls (steady loops) or cycles (the recovery loop).
    Calls(usize),
}

impl Until {
    fn reached(self, calls_done: usize) -> bool {
        match self {
            Until::Deadline(t) => Instant::now() >= t,
            Until::Calls(n) => calls_done >= n,
        }
    }
}

/// Runs every driver's closed loop on its own thread until `until`,
/// starting them together.
pub fn run_loops(drivers: &mut [Driver<'_>], until: Until, spans: &Spans, parent: u32) {
    let barrier = Barrier::new(drivers.len());
    std::thread::scope(|scope| {
        for driver in drivers.iter_mut() {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut buf = spans.buf();
                barrier.wait();
                let mut calls = 0usize;
                while !until.reached(calls) {
                    driver.call(&mut buf, parent);
                    calls += 1;
                }
            });
        }
    });
}

/// Reads every key back through `kv` and compares with what the writers
/// were acked. Returns the read latencies and any violations.
pub fn read_back(
    kv: &KvClient,
    inputs: &Inputs,
    drivers: &[Driver<'_>],
    tally: &mut Tally,
    time_calls: bool,
) {
    let mut expected: Vec<Option<u64>> = vec![None; inputs.keys.len()];
    for d in drivers {
        for (k, e) in d.owned_expectations() {
            expected[k] = e;
        }
    }
    let all: Vec<usize> = (0..inputs.keys.len()).collect();
    for chunk in all.chunks(READ_BACK_BATCH) {
        let names: Vec<&str> = chunk.iter().map(|&k| inputs.keys[k].as_str()).collect();
        let started = Instant::now();
        let outcome = kv.multi_get(&names);
        let done = Instant::now();
        tally.calls += 1;
        match outcome {
            Err(e) => {
                tally.failed += 1;
                tally.violation(format!("read-back failed: {e}"));
            }
            Ok(values) => {
                if time_calls {
                    tally.get_ns.push((done - started).as_nanos() as u64);
                    tally.key_ops += chunk.len() as u64;
                }
                for (&k, value) in chunk.iter().zip(&values) {
                    let Some(acked) = expected[k] else { continue };
                    let got = value.as_deref().and_then(|v| inputs.parse(v));
                    if got != Some((k, acked)) {
                        tally.violation(format!(
                            "{}: read back {got:?}, but put {acked} was acked — an acked write was lost",
                            inputs.keys[k]
                        ));
                    }
                }
            }
        }
    }
}

/// Kills `victim`, optionally tears its WAL tail, restarts it and polls
/// its *own* client until a read is served. Returns restart call → first
/// read served, in ns, or `None` (with a violation) if it never served.
fn restart_and_wait(
    cluster: &mut LocalCluster,
    victim: ProcessId,
    probe: RegisterId,
    tally: &mut Tally,
) -> Option<u64> {
    let started = Instant::now();
    cluster.restart(victim).expect("rebinding the victim");
    let client = cluster
        .client(victim)
        .with_timeout(Duration::from_millis(500));
    loop {
        match client.read_at(probe) {
            Ok(_) => return Some(started.elapsed().as_nanos() as u64),
            Err(_) if started.elapsed() < RESTART_PATIENCE => {}
            Err(e) => {
                tally.violation(format!("{victim} served no read after restart: {e}"));
                return None;
            }
        }
    }
}

/// The restart phase every steady workload ends with: alternate-victim
/// kill/restart cycles on the now idle cluster.
pub fn restart_cycles(
    w: &Workload,
    cluster: &mut LocalCluster,
    inputs: &Inputs,
    cycles: usize,
    tally: &mut Tally,
) -> Vec<u64> {
    let probe_kv = new_kv(w, cluster);
    let mut restarts = Vec::with_capacity(cycles);
    for i in 0..cycles {
        let victim = ProcessId(1 + (i % 2) as u16);
        cluster.kill(victim);
        let probe = inputs.register(&probe_kv, i % inputs.keys.len());
        restarts.extend(restart_and_wait(cluster, victim, probe, tally));
    }
    restarts
}

/// What the recovery cycle loop measured beyond its [`Tally`].
#[derive(Default)]
pub struct RecoverOut {
    pub restart_ns: Vec<u64>,
    /// Per cycle: puts completed while a node was down ÷ the time that
    /// took, in 1/s.
    pub down_rates: Vec<f64>,
    pub cycles: usize,
}

/// `udp-wal-recover`: kill node 1 or 2 (alternating; every third cycle
/// also tear its WAL tail), complete 128 puts on the surviving majority,
/// restart, poll the restarted node until it serves, then read every key
/// back — no acked write may be lost, torn tails included.
pub fn recover_cycles(
    cluster: &mut LocalCluster,
    driver: &mut Driver<'_>,
    until: Until,
    spans: &Spans,
    parent: u32,
) -> RecoverOut {
    let (w, inputs) = (driver.w, driver.inputs);
    let mut out = RecoverOut::default();
    let mut buf = spans.buf();
    let n = inputs.keys.len();
    while !until.reached(out.cycles) {
        let i = out.cycles;
        let victim = ProcessId(1 + (i % 2) as u16);
        cluster.kill(victim);
        if i % 3 == 2 {
            cluster.tear_wal_tail(victim).expect("tearing the WAL tail");
        }
        // Handles to a dead runner stay dead, so each phase gets a
        // client family over the nodes that are up right now.
        driver.swap_kv(new_kv(w, cluster));
        let down_started = Instant::now();
        let puts_before = driver.tally.key_ops;
        for call in 0..RECOVER_PUTS_PER_CYCLE / w.batch {
            let keys: Vec<usize> = (0..w.batch).map(|j| (call * w.batch + j) % n).collect();
            driver.put_keys(&keys, &mut buf, parent);
        }
        out.down_rates.push(
            (driver.tally.key_ops - puts_before) as f64 / down_started.elapsed().as_secs_f64(),
        );

        let probe = inputs.register(&driver.kv, i % n);
        out.restart_ns
            .extend(restart_and_wait(cluster, victim, probe, &mut driver.tally));

        driver.swap_kv(new_kv(w, cluster));
        let mut tally = std::mem::take(&mut driver.tally);
        read_back(
            &driver.kv,
            inputs,
            std::slice::from_ref(driver),
            &mut tally,
            true,
        );
        driver.tally = tally;
        out.cycles += 1;
    }
    out
}

/// Hygiene every run asserts when it ends: no operation left in flight,
/// no storage commit failed.
pub fn hygiene(cluster: &LocalCluster, drivers: &[Driver<'_>], tally: &mut Tally) {
    for d in drivers {
        let inflight = d.kv.metrics().gauge("kv.inflight");
        if inflight != 0 {
            tally.violation(format!(
                "kv.inflight settled at {inflight}, not 0: a leaked or wedged op slot"
            ));
        }
    }
    for pid in ProcessId::all(cluster.len()) {
        let failures = cluster.store_failures(pid);
        if failures != 0 {
            tally.violation(format!("{pid}: {failures} storage commits failed"));
        }
    }
}

/// What the certified witness cost, for `consistency.certify_us_per_op`.
pub struct WitnessInfo {
    pub ops: usize,
    pub certify: Duration,
}

/// The bounded recorded twin: same cluster shape, same mix, a small op
/// budget, every register operation recorded and the history certified
/// per key (the checker caps a register's history, so the witness is
/// volume-bounded while the measured run is not). With leases on, every
/// zero-round read is also policed by the freshness oracle.
///
/// # Errors
///
/// Returns what failed: a certification error, a stale leased read, or a
/// violation of the run's own read checks.
pub fn certified_witness(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    dir: &Path,
) -> Result<WitnessInfo, String> {
    let mut cluster = build_cluster(w, dir);
    let recorder = OpRecorder::new();
    let issued = issued_counters(w);
    let mut drivers: Vec<Driver<'_>> = (0..w.threads)
        .map(|t| {
            let kv = new_kv(w, &cluster).with_recorder(recorder.clone());
            let mut d = Driver::new(w, inputs, t, seed ^ 0x7717, kv, &issued);
            d.preload();
            d
        })
        .collect();
    let off = Spans::new(false);
    let mut freshness_log = Vec::new();
    if w.recover {
        recover_cycles(&mut cluster, &mut drivers[0], Until::Calls(2), &off, 0);
    } else if w.lease.is_some() {
        freshness_log = leased_witness_loops(&mut drivers, 120);
    } else {
        let calls = if w.batch == 1 { 200 } else { 6 };
        run_loops(&mut drivers, Until::Calls(calls), &off, 0);
    }
    let mut tally = Tally::default();
    hygiene(&cluster, &drivers, &mut tally);
    for d in &mut drivers {
        tally.absorb(std::mem::take(&mut d.tally));
    }
    if let Some(v) = tally.violations.first() {
        return Err(format!("witness read check: {v}"));
    }
    let history = recorder.history();
    let started = Instant::now();
    certify_per_key_epoch_path(
        &history,
        inputs.keys.iter().map(String::as_str),
        &[SHARDS],
        w.criterion(),
    )
    .map_err(|e| {
        format!(
            "witness failed certification: {e}\n{}",
            cluster.dump_flight_recorders(60)
        )
    })?;
    for k in 0..inputs.keys.len() {
        let ops: Vec<FreshnessOp> = freshness_log
            .iter()
            .filter(|(key, _)| *key == k)
            .map(|&(_, op)| op)
            .collect();
        check_freshness(&ops).map_err(|v| format!("{}: {v}", inputs.keys[k]))?;
    }
    let certify = started.elapsed();
    cluster.shutdown();
    Ok(WitnessInfo {
        ops: history.len() / 2,
        certify,
    })
}

/// The witness loop of a leased workload: as [`run_loops`], but every
/// operation is also logged on one shared clock with whether it was
/// served from the lease cache (the family's own `lease_hits` moved — each
/// thread has its own family, so the delta is exact).
fn leased_witness_loops(drivers: &mut [Driver<'_>], calls: usize) -> Vec<(usize, FreshnessOp)> {
    let t_zero = Instant::now();
    let log = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for driver in drivers.iter_mut() {
            let log = &log;
            scope.spawn(move || {
                let mut local = Vec::with_capacity(calls);
                for _ in 0..calls {
                    let put = driver.pick();
                    let k = driver.picked[0];
                    let hits_before = driver.kv.stats().lease_hits;
                    let invoked_at = t_zero.elapsed().as_micros() as u64;
                    let kind = if put {
                        driver.put_keys(&[k], &mut SpanBuf::off(), 0);
                        FreshnessKind::Write {
                            version: driver.counter,
                        }
                    } else {
                        let value = driver.kv.get(&driver.inputs.keys[k]);
                        let version = match &value {
                            Ok(Some(v)) => driver.inputs.parse(v).map_or(0, |(_, c)| c),
                            _ => 0,
                        };
                        driver.tally.calls += 1;
                        match value {
                            Ok(v) => driver.check_read(k, v.as_deref()),
                            Err(_) => driver.tally.failed += 1,
                        }
                        FreshnessKind::Read {
                            version,
                            leased: driver.kv.stats().lease_hits > hits_before,
                        }
                    };
                    let completed_at = t_zero.elapsed().as_micros() as u64;
                    local.push((
                        k,
                        FreshnessOp {
                            invoked_at,
                            completed_at,
                            kind,
                        },
                    ));
                }
                log.lock().expect("freshness log lock").extend(local);
            });
        }
    });
    log.into_inner().expect("freshness log lock")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use rmem_kv::codec;

    #[test]
    fn values_round_trip_and_reject_strangers() {
        let w = spec::workload("udp-wal-w90").unwrap();
        let inputs = Inputs::new(w, 7);
        assert_eq!(inputs.keys.len(), usize::from(SHARDS));
        let v = inputs.value(63, 123_456);
        assert_eq!(v.len(), w.value_len);
        assert_eq!(inputs.parse(&v), Some((63, 123_456)));
        assert_eq!(inputs.parse(&v[..7]), None);
        let mut torn = v.to_vec();
        *torn.last_mut().unwrap() ^= 1;
        assert_eq!(inputs.parse(&torn), None);
        // Same seed, same inputs; another seed, other keys.
        assert_eq!(Inputs::new(w, 7).keys, inputs.keys);
        assert_ne!(Inputs::new(w, 8).keys, inputs.keys);
    }

    #[test]
    fn the_op_stream_repeats_for_a_seed() {
        let w = spec::workload("lease-zipf-r95").unwrap();
        let inputs = Inputs::new(w, 3);
        let cluster = build_cluster(w, Path::new("unused"));
        let issued = issued_counters(w);
        let stream = |seed| {
            let mut d = Driver::new(w, &inputs, 1, seed, new_kv(w, &cluster), &issued);
            (0..200)
                .map(|_| (d.pick(), d.picked[0]))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(3), stream(3));
        assert_ne!(stream(3), stream(4));
        // A put only ever picks a key its thread owns.
        assert!(stream(3).iter().all(|&(put, k)| !put || w.owner(k) == 1));
    }

    #[test]
    fn a_corrupted_read_back_trips_the_check() {
        let w = spec::workload("chan-d1").unwrap();
        let inputs = Inputs::new(w, 1);
        let cluster = build_cluster(w, Path::new("unused"));
        let issued = issued_counters(w);
        let mut ds = drivers(w, &inputs, 1, &cluster, &issued);
        run_loops(&mut ds, Until::Calls(50), &Spans::new(false), 0);
        let mut clean = Tally::default();
        read_back(&ds[0].kv, &inputs, &ds, &mut clean, false);
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);

        // Corrupt the store behind the client's back: a well-formed entry
        // for the right key whose counter no put ever acked.
        let kv = &ds[0].kv;
        let payload = codec::encode_entry(
            &inputs.keys[5],
            &inputs.value(5, 40_000),
            kv.shard_map().stamp(),
        );
        cluster
            .client(ProcessId(0))
            .write_at(inputs.register(kv, 5), payload)
            .unwrap();
        let mut tripped = Tally::default();
        read_back(kv, &inputs, &ds, &mut tripped, false);
        assert_eq!(tripped.violations.len(), 1, "{:?}", tripped.violations);
        assert!(tripped.violations[0].contains("acked write was lost"));

        // And a measured get of that key trips the in-loop check too.
        ds[0].get_keys(&[5], &mut SpanBuf::off(), 0);
        assert!(ds[0].tally.violations[0].contains("newer than the last issued"));
        ds[0].forget_last_ack(6);
        ds[0].get_keys(&[6], &mut SpanBuf::off(), 0);
        assert!(ds[0].tally.violations[1].contains("last acked put was"));
    }
}
