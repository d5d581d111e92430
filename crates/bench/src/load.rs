//! The one closed-loop load driver behind the wall-clock sections
//! ([`crate::disk`], [`crate::obs`], [`crate::trace`] and
//! [`crate::pipeline`]): the paper's §V measurement loop — worker
//! threads issuing operations back to back against a real cluster — and
//! its certified twin.
//!
//! Every section splits measurement from certification. A full-speed
//! unrecorded run produces the numbers, while a bounded recorded run of
//! the same shape ([`Load::witness`]) must pass per-key certification
//! before the section reports anything: the decision-procedure checker
//! caps a register's history, so the witness is volume-bounded and the
//! measured run is not.
//!
//! A section keeps only what differs — cluster shape, counters, report —
//! and describes its traffic as a [`Load`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_consistency::Criterion;
use rmem_kv::{
    certify_per_key_epoch_path, CertifyError, KvCertificate, KvClient, OpRecorder, ShardRouter,
};
use rmem_net::Client;
use rmem_sim::KeyDistribution;

/// One section's traffic over a covering key set (one key per shard).
#[derive(Debug, Clone, Copy)]
pub struct Load<'k> {
    /// The keys the workers address.
    pub keys: &'k [String],
    /// Worker threads, each on its own clone of the client.
    pub workers: u64,
    /// Worker `t` draws from `StdRng::seed_from_u64(seed + t)`.
    pub seed: u64,
    /// Worker `t` writes `(writer_base + t) << 32 | n` as its `n`-th
    /// value, so every value names its writer and the checkers can tell
    /// writes apart.
    pub writer_base: u64,
    /// Fraction of steps that write.
    pub write_fraction: f64,
    /// `None`: a step is one `get`/`put` of a Zipf(0.99)-drawn key.
    /// `Some(d)`: a step is one `multi_get`/`multi_put` of the `d` keys
    /// [`window`] picks.
    pub depth: Option<usize>,
    /// After each step a worker pauses for a uniform draw below this many
    /// µs (0: no pause).
    pub think_micros: u64,
}

/// What the conductor of a [`Load::run`] sees while the workers run.
#[derive(Debug, Default)]
pub struct Progress {
    stop: AtomicBool,
    completed: AtomicU64,
}

impl Progress {
    /// Operations completed so far (a batch counts each of its keys).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Has every worker exit after the step it is in.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// What one [`Load::run`] measured.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Operations completed (a batch counts each of its keys).
    pub completed: u64,
    /// First spawn to last join. Steps still in flight when the workers
    /// are stopped complete and count, so this, not a nominal window, is
    /// the divisor of a rate.
    pub elapsed: Duration,
    /// CPU the workers spent, each read by the worker itself as it exits
    /// (threads born and gone inside a window are invisible to a
    /// before/after sample of the live ones); `None` if a read failed.
    pub worker_cpu_ns: Option<u64>,
}

impl<'k> Load<'k> {
    /// Single-key Zipf traffic: writer ids from 1, no think time.
    pub fn new(keys: &'k [String], workers: u64, seed: u64, write_fraction: f64) -> Self {
        Load {
            keys,
            workers,
            seed,
            writer_base: 1,
            write_fraction,
            depth: None,
            think_micros: 0,
        }
    }

    /// Writes `[0, i]` under the `i`-th key, one `put` at a time.
    ///
    /// # Panics
    ///
    /// Panics if a put fails.
    pub fn preload(&self, kv: &KvClient) {
        for (i, key) in self.keys.iter().enumerate() {
            kv.put(key, vec![0, i as u8]).expect("preload put");
        }
    }

    /// Runs the workers on clones of `kv`, each for at most `budget`
    /// steps, while `conduct` runs on the calling thread; a worker also
    /// exits once `conduct` calls [`Progress::stop`].
    ///
    /// # Panics
    ///
    /// Panics if an operation fails.
    pub fn run(&self, kv: &KvClient, budget: Option<u64>, conduct: impl FnOnce(&Progress)) -> Run {
        let clients = (0..self.workers).map(|_| kv.clone()).collect();
        self.drive(clients, budget, conduct)
    }

    /// The certified twin: preloads a client recording on `nodes` over
    /// `shards` shards, runs every worker for `budget` steps on a
    /// recorded clone, and certifies the history per key.
    ///
    /// # Errors
    ///
    /// Returns the certifier's verdict if the history is not atomic.
    ///
    /// # Panics
    ///
    /// Panics if an operation fails.
    pub fn witness(
        &self,
        nodes: Vec<Client>,
        shards: u16,
        budget: u64,
    ) -> Result<KvCertificate, CertifyError> {
        let recorder = OpRecorder::new();
        let kv = KvClient::new(nodes, ShardRouter::new(shards))
            .expect("kv client")
            .with_recorder(recorder.clone());
        self.preload(&kv);
        let clients = (0..self.workers).map(|_| kv.recorded_clone()).collect();
        self.drive(clients, Some(budget), |_| {});
        certify_per_key_epoch_path(
            &recorder.history(),
            self.keys.iter().map(String::as_str),
            &[shards],
            Criterion::Transient,
        )
    }

    fn drive(
        &self,
        clients: Vec<KvClient>,
        budget: Option<u64>,
        conduct: impl FnOnce(&Progress),
    ) -> Run {
        let progress = Progress::default();
        let worker_cpu_ns = AtomicU64::new(0);
        let cpu_unread = AtomicBool::new(false);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for (t, kv) in (0u64..).zip(clients) {
                let (progress, worker_cpu_ns, cpu_unread) =
                    (&progress, &worker_cpu_ns, &cpu_unread);
                scope.spawn(move || {
                    self.work(&kv, t, budget, progress);
                    match my_cpu_ns() {
                        Some(ns) => {
                            worker_cpu_ns.fetch_add(ns, Ordering::Relaxed);
                        }
                        None => cpu_unread.store(true, Ordering::Relaxed),
                    }
                });
            }
            conduct(&progress);
        });
        Run {
            completed: progress.completed(),
            elapsed: start.elapsed(),
            worker_cpu_ns: (!cpu_unread.into_inner()).then(|| worker_cpu_ns.into_inner()),
        }
    }

    fn work(&self, kv: &KvClient, t: u64, budget: Option<u64>, progress: &Progress) {
        let mut rng = StdRng::seed_from_u64(self.seed + t);
        let dist = KeyDistribution::zipf(self.keys.len(), 0.99);
        let mut written = 0u64;
        let mut step = 0u64;
        while !progress.stop.load(Ordering::Relaxed) && budget.is_none_or(|b| step < b) {
            // `get`/`put` are `multi_get`/`multi_put` of one input.
            let keys = match self.depth {
                None => vec![self.keys[dist.sample(&mut rng)].as_str()],
                Some(depth) => window(self.keys, t, step, depth),
            };
            if rng.gen_bool(self.write_fraction) {
                let puts: Vec<(&str, Bytes)> = keys
                    .iter()
                    .map(|&key| {
                        written += 1;
                        let value = (self.writer_base + t) << 32 | written;
                        (key, Bytes::copy_from_slice(&value.to_be_bytes()))
                    })
                    .collect();
                kv.multi_put(&puts).expect("put");
            } else {
                kv.multi_get(&keys).expect("get");
            }
            progress
                .completed
                .fetch_add(keys.len() as u64, Ordering::Relaxed);
            if self.think_micros > 0 {
                let pause = rng.gen_range(0..self.think_micros);
                std::thread::sleep(Duration::from_micros(pause));
            }
            step += 1;
        }
    }
}

/// Worker `worker`'s `round`-th batch of `depth` keys: a window rotating
/// over `keys`, so the load is uniform across shards and, while `depth ≤
/// keys.len()`, every batch occupies `depth` distinct registers — the
/// depth the pipelined client is asked to sustain. Each worker's window
/// starts one key after the previous worker's.
pub fn window(keys: &[String], worker: u64, round: u64, depth: usize) -> Vec<&str> {
    let start = (worker as usize + round as usize * depth) % keys.len();
    (0..depth)
        .map(|j| keys[(start + j) % keys.len()].as_str())
        .collect()
}

/// A per-process scratch directory under the system temp dir, empty when
/// made and removed when dropped: declare it before the cluster that
/// writes into it, so the cluster is gone first.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `$TMPDIR/rmem-{tag}-{pid}`, cleared of anything a killed run left.
pub fn scratch_dir(tag: &str) -> ScratchDir {
    let dir = std::env::temp_dir().join(format!("rmem-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ScratchDir(dir)
}

/// CPU nanoseconds consumed so far by one thread, from its `schedstat`
/// (`running_ns wait_ns timeslices` — nanosecond resolution, unlike the
/// 10 ms clock ticks of `/proc/self/stat`).
pub fn thread_cpu_ns(path: &Path) -> Option<u64> {
    let s = std::fs::read_to_string(path).ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// CPU nanoseconds consumed so far by the calling thread.
pub fn my_cpu_ns() -> Option<u64> {
    thread_cpu_ns(Path::new("/proc/thread-self/schedstat"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_distinct_rotating_and_staggered_per_worker() {
        let router = ShardRouter::new(16);
        let keys = router.covering_keys("w-");
        let at = |key: &str| keys.iter().position(|k| k == key).expect("a covering key");
        for depth in [1, 4, 16] {
            for worker in 0..4u64 {
                let batches: Vec<Vec<&str>> =
                    (0..8).map(|r| window(&keys, worker, r, depth)).collect();
                for pair in batches.windows(2) {
                    // `depth` distinct covering keys: `depth` registers.
                    let mut shards: Vec<u16> = pair[0].iter().map(|k| router.shard_of(k)).collect();
                    shards.sort_unstable();
                    shards.dedup();
                    assert_eq!(shards.len(), depth, "worker {worker}: {:?}", pair[0]);
                    // Each batch starts where the previous one ended.
                    let last = at(pair[0][depth - 1]);
                    assert_eq!(at(pair[1][0]), (last + 1) % keys.len());
                }
                // Worker `w` starts `w` keys after worker 0 in every round.
                for (round, batch) in (0u64..).zip(&batches) {
                    let first = at(window(&keys, 0, round, depth)[0]);
                    assert_eq!(at(batch[0]), (first + worker as usize) % keys.len());
                }
            }
        }
    }
}
