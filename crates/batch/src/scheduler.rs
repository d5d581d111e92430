//! The per-shard quorum batching engine: [`BatchedKv`].
//!
//! # What gets amortized
//!
//! Every register operation costs two quorum round-trips (SnReq/SnAck,
//! then Write/WriteAck or Read/ReadAck) regardless of how much it carries.
//! The engine therefore coalesces the store operations of a batch that
//! land on one shard into a *single* register operation:
//!
//! * **puts** — one `SnReq` round amortized over the batch: the coalesced
//!   entries (last write wins per key, batch order) become one composite
//!   entry-map payload ([`rmem_kv::codec::encode_entries`]) written in one
//!   quorum round;
//! * **gets** — one `Read` round whose payload serves every queued get on
//!   the shard ([`rmem_kv::codec::value_for_key`]).
//!
//! Two batching paths share that machinery: `multi_put`/`multi_get`
//! batches are fully formed on arrival and flush immediately (chunked by
//! the policy's `max_batch` and the transport frame budget), while singles
//! (`put`/`get`) pass through the concurrent operation table
//! (`crate::table`), where the policy's `max_linger` lets concurrent
//! callers coalesce.
//!
//! # Why per-key certification still holds
//!
//! `rmem_kv::certify_per_key` stays the correctness oracle for batched
//! runs, with no weakening, because batching never changes *what a
//! register operation is* — only how many store-level operations one
//! register operation carries:
//!
//! * A flush is still one ordinary register write (or read) of the
//!   emulation, so the per-register history is exactly as atomic as the
//!   underlying flavor guarantees; nothing new to prove at that level.
//! * Coalescing k same-key puts into one write of the *last* value is a
//!   legal linearization of those k puts: they were concurrent (all
//!   in-flight in one batch), so some order was always permissible, and
//!   the batch serves them in arrival order with the last one visible —
//!   each earlier put's ack truthfully means "my write was applied and
//!   then superseded within the same atomic step".
//! * Under an injective key↔shard map (what certification requires even
//!   unbatched — colliding universes are refused up front) a coalesced
//!   payload carries exactly one key, so the certifier's decode step maps
//!   it to a plain register value and the per-register verdict reads as
//!   the per-key verdict, word for word.
//! * With colliding keys, a composite write replaces the whole cell —
//!   exactly the displacement semantics the unbatched store already has —
//!   so batching changes nothing the certifier would need to model.
//!
//! The engine's batches are therefore *transparent* to the oracle: every
//! batched run that completes is certified by the same checker, against
//! the same criterion, as its unbatched equivalent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::bounded;
use rmem_kv::{codec, KvClient, KvError, ShardMap};
use rmem_obs::{Counter, Histogram};
use rmem_types::{RegisterId, Value};

use crate::policy::FlushPolicy;
use crate::table::{Enqueued, OpTable, QueuedGet, QueuedPut};

/// Running totals of the engine's amortization (all clones share them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Store-level operations served (puts + gets).
    pub logical_ops: u64,
    /// Register operations (= quorum rounds × 2) actually executed.
    pub register_ops: u64,
}

impl BatchStats {
    /// Logical operations per register operation — the amortization
    /// factor (1.0 means batching never coalesced anything).
    pub fn amortization(&self) -> f64 {
        if self.register_ops == 0 {
            return 0.0;
        }
        self.logical_ops as f64 / self.register_ops as f64
    }
}

struct Shared {
    kv: KvClient,
    policy: FlushPolicy,
    table: OpTable,
    /// `batch.*` instruments, registered into the wrapped client's
    /// metrics registry so one snapshot ([`KvClient::metrics`]) covers
    /// the store stack: the amortization counters behind
    /// [`BatchedKv::stats`], plus the distinct-key size of every bundled
    /// write round.
    logical_ops: Arc<Counter>,
    register_ops: Arc<Counter>,
    bundle_size: Arc<Histogram>,
    /// The shard-map epoch the queues were last flushed under. A bundle
    /// carries exactly one epoch stamp by construction (each flush
    /// snapshots the map once); this additionally kicks every lingering
    /// queue the moment the epoch moves, so no operation waits out a
    /// linger window under routing that just changed.
    epoch: AtomicU64,
}

/// A batching store client over a [`KvClient`] (see module docs).
///
/// Cheap to clone; clones share the operation table, the health memory
/// and the stats, so concurrent callers coalesce.
#[derive(Clone)]
pub struct BatchedKv {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for BatchedKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedKv")
            .field("policy", &self.shared.policy)
            .field("shards", &self.shared.kv.router().shards())
            .finish()
    }
}

impl BatchedKv {
    /// Wraps `kv` with the given flush policy.
    pub fn new(kv: KvClient, policy: FlushPolicy) -> Self {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        let table = OpTable::new(kv.router().shards() as usize);
        let epoch = kv.epoch();
        let m = kv.metrics_registry().clone();
        BatchedKv {
            shared: Arc::new(Shared {
                logical_ops: m.counter("batch.logical_ops"),
                register_ops: m.counter("batch.register_ops"),
                bundle_size: m.histogram("batch.bundle_size"),
                kv,
                policy,
                table,
                epoch: AtomicU64::new(epoch),
            }),
        }
    }

    /// The coalescing bucket of `key` under `map`: the table's buckets
    /// are fixed at construction, later epochs fold onto them (bucket ≠
    /// register — every flush re-derives registers from the live map).
    fn bucket_of(&self, map: &ShardMap, key: &str) -> usize {
        map.shard_of(key) as usize % self.shared.table.len()
    }

    /// Epoch guard, run on every entry point: when the shard map's epoch
    /// has moved since the last flush, kick every leaderless non-empty
    /// queue so no operation lingers under superseded routing, and no
    /// forming bundle straddles the epochs.
    fn roll_epoch(&self, map: &ShardMap) {
        let seen = self.shared.epoch.load(Ordering::Relaxed);
        if map.epoch == seen {
            return;
        }
        if self
            .shared
            .epoch
            .compare_exchange(seen, map.epoch, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            for bucket in 0..self.shared.table.len() {
                if self.shared.table.try_adopt(bucket) {
                    // No linger: these batches are as formed as they will
                    // get, and this runs on some victim operation's
                    // thread — it must not serially pay every bucket's
                    // linger window.
                    let (puts, gets) = self.shared.table.collect_immediate(bucket);
                    self.run_flush(puts, gets);
                }
            }
        }
    }

    /// The wrapped client.
    pub fn kv(&self) -> &KvClient {
        &self.shared.kv
    }

    /// The flush policy in force.
    pub fn policy(&self) -> FlushPolicy {
        self.shared.policy
    }

    /// The linger window the next single-operation flush on `shard` would
    /// wait: the fixed policy value, or — under
    /// [`FlushPolicy::adaptive`] — the shard's current controller state
    /// (grows with sustained queue depth, collapses when traffic dries
    /// up). Observability hook for operators and tests.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not below the wrapped router's shard count
    /// (`self.kv().router().shards()`).
    pub fn effective_linger(&self, shard: usize) -> std::time::Duration {
        self.shared
            .table
            .effective_linger(shard, &self.shared.policy)
    }

    /// Amortization counters since construction.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            logical_ops: self.shared.logical_ops.get(),
            register_ops: self.shared.register_ops.get(),
        }
    }

    // -- Singles: through the concurrent operation table -----------------

    /// Stores `value` under `key`, riding a shared per-shard batch:
    /// concurrent puts and gets on the same shard coalesce into single
    /// quorum rounds (the policy bounds how long a lone operation waits
    /// for company).
    ///
    /// # Errors
    ///
    /// As [`KvClient::put`].
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds [`codec::MAX_KEY_LEN`] (as
    /// [`KvClient::put`] does) — checked *before* enqueueing, so an
    /// invalid operation fails on its caller's thread instead of
    /// panicking whichever thread leads the flush.
    pub fn put(&self, key: &str, value: impl Into<Bytes>) -> Result<(), KvError> {
        let value = value.into();
        self.check_put(key, value.len())?;
        self.shared.kv.sync_map()?;
        let map = self.shared.kv.shard_map();
        self.roll_epoch(&map);
        if map.is_barriered(key) {
            // Splitting shard: the write barrier is per key — run it on
            // the epoch-aware single-op path instead of a shared bundle.
            self.shared.logical_ops.inc();
            self.shared.register_ops.inc();
            return self.shared.kv.put(key, value);
        }
        let bucket = self.bucket_of(&map, key);
        let (tx, rx) = bounded(1);
        let queued = QueuedPut {
            key: key.to_string(),
            value,
            done: tx,
        };
        let role = self
            .shared
            .table
            .enqueue_put(bucket, queued, &self.shared.policy);
        if role == Enqueued::Leader {
            self.lead_flush(bucket);
        }
        rx.recv().unwrap_or(Err(KvError::Register {
            key: key.to_string(),
            source: rmem_net::ClientError::ProcessDown,
        }))
    }

    /// Reads `key`, riding a shared per-shard batch (see
    /// [`put`](Self::put)).
    ///
    /// # Errors
    ///
    /// As [`KvClient::get`].
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds [`codec::MAX_KEY_LEN`] (on the caller's
    /// thread; see [`put`](Self::put)).
    pub fn get(&self, key: &str) -> Result<Option<Bytes>, KvError> {
        assert!(
            key.len() <= codec::MAX_KEY_LEN,
            "key longer than {} bytes",
            codec::MAX_KEY_LEN
        );
        self.shared.kv.sync_map()?;
        let map = self.shared.kv.shard_map();
        self.roll_epoch(&map);
        if map.is_barriered(key) {
            // Splitting shard: reads need the old-home-then-new-home
            // fallback, which is per key — bypass the shared bundle.
            self.shared.logical_ops.inc();
            self.shared.register_ops.inc();
            return self.shared.kv.get(key);
        }
        let bucket = self.bucket_of(&map, key);
        let (tx, rx) = bounded(1);
        let queued = QueuedGet {
            key: key.to_string(),
            done: tx,
        };
        let role = self
            .shared
            .table
            .enqueue_get(bucket, queued, &self.shared.policy);
        if role == Enqueued::Leader {
            self.lead_flush(bucket);
        }
        rx.recv().unwrap_or(Err(KvError::Register {
            key: key.to_string(),
            source: rmem_net::ClientError::ProcessDown,
        }))
    }

    /// Validates a put before it enters the shared queue: an invalid key
    /// panics the offender (matching `KvClient::put`'s contract), an
    /// entry that alone cannot fit any frame is refused `TooLarge` here —
    /// either failing inside the flush would hit the leader's thread and
    /// poison the whole batch with misleading errors.
    fn check_put(&self, key: &str, value_len: usize) -> Result<(), KvError> {
        assert!(
            key.len() <= codec::MAX_KEY_LEN,
            "key longer than {} bytes",
            codec::MAX_KEY_LEN
        );
        if let Some(max_value) = self.shared.kv.max_value_len() {
            let entry_len = codec::ENTRY_OVERHEAD + key.len() + value_len;
            if entry_len > max_value {
                let overhead = rmem_types::codec::VALUE_MSG_OVERHEAD;
                return Err(KvError::TooLarge {
                    key: key.to_string(),
                    size: entry_len + overhead,
                    limit: max_value + overhead,
                });
            }
        }
        Ok(())
    }

    /// Collects the bucket's queue (lingering per policy) and executes it.
    fn lead_flush(&self, bucket: usize) {
        let (puts, gets) = self.shared.table.collect(bucket, &self.shared.policy);
        self.run_flush(puts, gets);
    }

    /// Executes collected operations: one map snapshot per flush,
    /// operations regrouped by their *live* register under that
    /// snapshot, every bundle stamped with that one epoch — a bundle can
    /// never straddle epochs.
    fn run_flush(&self, puts: Vec<QueuedPut>, gets: Vec<QueuedGet>) {
        let map = self.shared.kv.shard_map();
        // Gets first: they observe the pre-batch cell, the batch's writes
        // land after — any order is legal (everything in one flush is
        // concurrent), this one keeps reads one round behind writes at
        // most.
        let mut get_groups: std::collections::BTreeMap<RegisterId, Vec<QueuedGet>> =
            std::collections::BTreeMap::new();
        for get in gets {
            if map.is_barriered(&get.key) {
                // The epoch moved between enqueue and flush: serve the
                // now-barriered key through the per-key migration path.
                let reply = self.shared.kv.get(&get.key);
                self.shared.logical_ops.inc();
                self.shared.register_ops.inc();
                let _ = get.done.send(reply);
                continue;
            }
            get_groups
                .entry(map.register_for(&get.key))
                .or_default()
                .push(get);
        }
        for (reg, group) in get_groups {
            let outcome = self.read_round(reg);
            self.shared.logical_ops.add(group.len() as u64 - 1);
            for get in group {
                let reply = match &outcome {
                    // Key absent under a foreign stamp: our map may be
                    // stale (a split moved the key). The per-key path
                    // refreshes and re-routes.
                    Ok(payload) => match map.read_answer(payload, &get.key) {
                        Some(value) => Ok(value),
                        None => self.shared.kv.get(&get.key),
                    },
                    Err(e) => Err(e.clone()),
                };
                let _ = get.done.send(reply);
            }
        }
        let mut put_groups: std::collections::BTreeMap<RegisterId, Vec<QueuedPut>> =
            std::collections::BTreeMap::new();
        for put in puts {
            if map.is_barriered(&put.key) {
                let reply = self.shared.kv.put(&put.key, put.value.clone());
                self.shared.logical_ops.inc();
                self.shared.register_ops.inc();
                let _ = put.done.send(reply);
                continue;
            }
            put_groups
                .entry(map.register_for(&put.key))
                .or_default()
                .push(put);
        }
        for (reg, group) in put_groups {
            let coalesced = coalesce(group);
            for chunk in self.chunks(&coalesced) {
                let outcome = self.write_round(reg, chunk, &map);
                for entry in chunk {
                    for done in &entry.waiters {
                        let _ = done.send(outcome.clone());
                    }
                }
            }
        }
    }

    // -- One-shot batches: multi-key operations --------------------------

    /// Writes many entries, **one quorum round per shard chunk**: the
    /// entries landing on one shard coalesce (last write per key wins,
    /// in input order) into composite payloads, chunked by the policy's
    /// `max_batch` and the transport frame budget; per-node groups run
    /// concurrently, one thread per home node.
    ///
    /// # Errors
    ///
    /// Returns the first failing chunk's [`KvError`]; other chunks still
    /// ran to completion.
    pub fn multi_put<K: AsRef<str> + Sync>(&self, entries: &[(K, Bytes)]) -> Result<(), KvError> {
        self.shared.kv.sync_map()?;
        let map = self.shared.kv.shard_map();
        self.roll_epoch(&map);
        // Coalesce into per-register entry lists (order: first appearance
        // of each register / key, values last-wins). The index keeps the
        // pass linear under skew — a hot shard can absorb most of a large
        // batch. Keys behind the migration write barrier take the
        // per-key path instead (the barrier is per source shard).
        let mut per_reg: std::collections::BTreeMap<u16, Vec<CoalescedPut>> =
            std::collections::BTreeMap::new();
        let mut index: std::collections::HashMap<(u16, &str), usize> =
            std::collections::HashMap::new();
        let mut barriered: Vec<(&str, Bytes)> = Vec::new();
        for (key, value) in entries {
            let key = key.as_ref();
            if map.is_barriered(key) {
                barriered.push((key, value.clone()));
                continue;
            }
            let reg = map.register_for(key);
            let list = per_reg.entry(reg.0).or_default();
            match index.get(&(reg.0, key)) {
                Some(&i) => {
                    list[i].value = value.clone();
                    list[i].covered += 1;
                }
                None => {
                    index.insert((reg.0, key), list.len());
                    list.push(CoalescedPut {
                        key: key.to_string(),
                        value: value.clone(),
                        covered: 1,
                        waiters: Vec::new(),
                    });
                }
            }
        }
        let outcomes: Vec<Result<(), KvError>> = self.per_node(per_reg, |reg, list| {
            for chunk in self.chunks(&list) {
                self.write_round(reg, chunk, &map)?;
            }
            Ok(())
        });
        // Barriered keys go through the per-key path; errors are
        // deferred so every batch and every barriered key still runs
        // (the contract: first failing error, everything attempted).
        let mut first_err = None;
        for (key, value) in barriered {
            self.shared.logical_ops.inc();
            self.shared.register_ops.inc();
            if let Err(e) = self.shared.kv.put(key, value) {
                first_err.get_or_insert(e);
            }
        }
        for outcome in outcomes {
            if let Err(e) = outcome {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Reads many keys, **one quorum round per shard**: every key landing
    /// on one shard is served from a single `Read` round's payload;
    /// per-node groups run concurrently. Results align with the input
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the first failing shard's [`KvError`]; other shards still
    /// ran to completion.
    pub fn multi_get<K: AsRef<str> + Sync>(
        &self,
        keys: &[K],
    ) -> Result<Vec<Option<Bytes>>, KvError> {
        self.shared.kv.sync_map()?;
        let map = self.shared.kv.shard_map();
        self.roll_epoch(&map);
        let mut per_reg: std::collections::BTreeMap<u16, Vec<usize>> =
            std::collections::BTreeMap::new();
        let mut barriered: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if map.is_barriered(key.as_ref()) {
                barriered.push(i);
                continue;
            }
            let reg = map.register_for(key.as_ref());
            per_reg.entry(reg.0).or_default().push(i);
        }
        let mut results: Vec<Option<Option<Bytes>>> = vec![None; keys.len()];
        type Served = Vec<(usize, Option<Bytes>)>;
        let outcomes: Vec<Result<Served, KvError>> = self.per_node(per_reg, |reg, indices| {
            let payload = self.read_round(reg)?;
            self.shared.logical_ops.add(indices.len() as u64 - 1);
            indices
                .into_iter()
                .map(|i| {
                    let key = keys[i].as_ref();
                    // Absent under a foreign stamp: possibly a moved key
                    // behind a stale map — re-route per key.
                    match map.read_answer(&payload, key) {
                        Some(value) => Ok((i, value)),
                        None => self.shared.kv.get(key).map(|v| (i, v)),
                    }
                })
                .collect()
        });
        // Errors are deferred so every shard's round and every barriered
        // key still runs before the first failure is reported.
        let mut first_err = None;
        for outcome in outcomes {
            match outcome {
                Ok(served) => {
                    for (i, value) in served {
                        results[i] = Some(value);
                    }
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        for i in barriered {
            self.shared.logical_ops.inc();
            self.shared.register_ops.inc();
            match self.shared.kv.get(keys[i].as_ref()) {
                Ok(value) => results[i] = Some(value),
                Err(e) => {
                    results[i] = Some(None);
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(results
            .into_iter()
            .map(|slot| slot.expect("every index answered"))
            .collect())
    }

    // -- Quorum rounds ---------------------------------------------------

    /// Runs `work` for every register group, with groups sharing a home
    /// node serialized on one thread and distinct nodes' groups running
    /// concurrently (a blocking round per group — unlike `KvClient`'s
    /// multi-key driver, which pipelines every shard from one thread).
    fn per_node<V: Send, T: Send>(
        &self,
        per_reg: std::collections::BTreeMap<u16, V>,
        work: impl Fn(RegisterId, V) -> Result<T, KvError> + Sync,
    ) -> Vec<Result<T, KvError>> {
        let nodes = self.shared.kv.node_count();
        let mut by_node: std::collections::BTreeMap<usize, Vec<(u16, V)>> =
            std::collections::BTreeMap::new();
        for (reg, v) in per_reg {
            by_node
                .entry(reg as usize % nodes)
                .or_default()
                .push((reg, v));
        }
        std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = by_node
                .into_values()
                .map(|group| {
                    scope.spawn(move || {
                        group
                            .into_iter()
                            .map(|(reg, v)| work(RegisterId(reg), v))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("batch node thread panicked"))
                .collect()
        })
    }

    /// One read quorum round.
    fn read_round(&self, reg: RegisterId) -> Result<Value, KvError> {
        self.shared.register_ops.inc();
        self.shared.logical_ops.inc();
        let label = format!("shard:{}", reg.0);
        self.shared.kv.raw_read(reg, &label)
    }

    /// One write quorum round carrying a whole chunk, stamped with and
    /// guarded by the flush's epoch.
    fn write_round(
        &self,
        reg: RegisterId,
        chunk: &[CoalescedPut],
        map: &ShardMap,
    ) -> Result<(), KvError> {
        self.shared.register_ops.inc();
        self.shared.bundle_size.record(chunk.len() as u64);
        let logical: u64 = chunk.iter().map(|e| e.covered as u64).sum();
        self.shared.logical_ops.add(logical);
        let entries: Vec<(&str, Bytes)> = chunk
            .iter()
            .map(|e| (e.key.as_str(), e.value.clone()))
            .collect();
        let payload = codec::encode_entries(&entries, map.stamp());
        let label = if chunk.len() == 1 {
            chunk[0].key.clone()
        } else {
            format!("shard:{}×{}", reg.0, chunk.len())
        };
        // Epoch-guarded (mirrors `KvClient::put`): if a split publishes
        // while this round is in flight, the bundle aborts un-issued
        // rather than landing behind a migration seal; its entries then
        // re-route through the epoch-aware per-key path.
        if !self
            .shared
            .kv
            .raw_write_guarded(reg, payload, &label, map.epoch)?
        {
            for entry in chunk {
                self.shared.kv.put(&entry.key, entry.value.clone())?;
            }
        }
        Ok(())
    }

    /// Splits coalesced entries into chunks, each fitting `max_batch` and
    /// the transport frame budget. An entry that alone exceeds the budget
    /// ships alone — `raw_write_guarded` then refuses it fast with the exact
    /// numbers, and only its own waiters see the error.
    fn chunks<'a>(&self, entries: &'a [CoalescedPut]) -> impl Iterator<Item = &'a [CoalescedPut]> {
        let budget = self.shared.kv.max_value_len();
        // The chunk size may never exceed what one bundle can count, on
        // top of the caller's policy.
        let max_batch = self.shared.policy.max_batch.min(codec::MAX_BUNDLE_ENTRIES);
        let mut cuts = vec![0usize];
        let mut size = codec::BUNDLE_OVERHEAD;
        let mut count = 0usize;
        for (i, e) in entries.iter().enumerate() {
            // Sized as a bundle entry: an upper bound for every chunk
            // (a lone entry encodes as the smaller plain form).
            let cost = codec::BUNDLE_ENTRY_OVERHEAD + e.key.len() + e.value.len();
            let over_budget = budget.is_some_and(|b| size + cost > b);
            if count > 0 && (count >= max_batch || over_budget) {
                cuts.push(i);
                size = codec::BUNDLE_OVERHEAD;
                count = 0;
            }
            size += cost;
            count += 1;
        }
        cuts.push(entries.len());
        cuts.windows(2)
            .map(|w| &entries[w[0]..w[1]])
            .filter(|c| !c.is_empty())
            .collect::<Vec<_>>()
            .into_iter()
    }
}

/// One distinct key of a forming write round.
struct CoalescedPut {
    key: String,
    value: Bytes,
    /// How many store-level puts this entry covers (same-key coalescing).
    covered: u32,
    /// Reply channels of the covered table-queued puts (empty for
    /// one-shot batches, which report through the call's return value).
    waiters: Vec<crossbeam::channel::Sender<Result<(), KvError>>>,
}

/// Last-write-wins coalescing of a flush's queued puts, preserving first
/// arrival order per key (indexed, so hot-key floods coalesce in linear
/// time).
fn coalesce(puts: Vec<QueuedPut>) -> Vec<CoalescedPut> {
    let mut out: Vec<CoalescedPut> = Vec::new();
    let mut index: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for put in puts {
        match index.get(put.key.as_str()) {
            Some(&i) => {
                out[i].value = put.value;
                out[i].covered += 1;
                out[i].waiters.push(put.done);
            }
            None => {
                index.insert(put.key.clone(), out.len());
                out.push(CoalescedPut {
                    key: put.key,
                    value: put.value,
                    covered: 1,
                    waiters: vec![put.done],
                });
            }
        }
    }
    out
}
