//! The real-runtime store client: epoch-aware key routing over a cached
//! shard map, with pipelined per-shard operations across the cluster's
//! nodes and a live shard-split protocol.
//!
//! # Epochs
//!
//! The authoritative shard map lives in the store itself (register 0, see
//! [`crate::epoch`]); each client keeps a cached [`ShardMap`] snapshot
//! (shared by its clones) and refreshes it from the config register
//! whenever a data payload's epoch stamp signals staleness. Data shard
//! `i` lives at register `i + 1`.
//!
//! # Live shard splits
//!
//! [`KvClient::grow`] publishes epoch `e+1` (a *migrating* map), then for
//! every split-source shard: reads the old home, copies each moved entry
//! to its new home (**tag-monotonically** — the copy is the old home's
//! latest value, and the write barrier below guarantees it still is when
//! the seal lands), and finally **seals** the old home under the new
//! epoch's stamp. Once every source is sealed, the committed map is
//! published.
//!
//! **The barrier invariant: a writer whose key is owned by a splitting
//! shard must observe that shard's seal before writing the key's
//! new-epoch home.** Writers poll the old home (bounded; see
//! [`KvError::Barrier`]) until the seal appears — so during a source
//! shard's copy window the migrator is the only writer touching its
//! registers, which is what makes the copy lossless. Readers during
//! migration fall back *old-home-then-new-home*: an unsealed old home is
//! authoritative, a sealed one forwards to the new routing.
//!
//! # Multi-key calls
//!
//! `multi_get`/`multi_put` run on the calling thread through **one
//! pipelined driver**. The policy, named once: *a multi-key call costs
//! one register operation per (register, chunk), not one per input.* A
//! call's gets on one register are answered from **one** read round; its
//! puts on one register land as **one** composite write (a bundle, see
//! [`crate::codec`]; last write per key wins, in input order), cut into
//! chunks only where a bundle would outgrow the transport frame
//! ([`KvClient::max_value_len`]) or the bundle's entry count. A chunk of
//! one entry is the plain single-entry write. Chunks of one register run
//! one at a time in input order (the paper's §III-A well-formedness rule,
//! per register); every register's next chunk is in flight at once
//! through an event-driven fan. Whatever the pipeline cannot settle — a
//! node error, a `Busy` collision, a stale epoch stamp — goes to the
//! blocking `get`/`put` path, the one general slow path, key by key; a
//! register whose chunk fell back is *closed* for the rest of the call,
//! so its inputs keep their input order. Two kinds of input never enter
//! the pipeline, and so never coalesce: a key behind the migration
//! barrier (the blocking path owns the barrier and the
//! old-home-then-new-home read; every other key of a mid-split batch
//! stays pipelined) and every entry of an exactly-once client (each
//! settles through the journaled `put`, in input order).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rmem_net::pipeline::Settled;
use rmem_net::{Client, ClientError, PipelinedClient, Ticket, TraceCtx};
use rmem_obs::{
    Counter, EventKind, FlightEvent, FlightRecorder, Histogram, MetricsSnapshot, ObsHandle,
};
use rmem_types::{LeaseGrant, Op, OpResult, ProcessId, RegisterId, Value};

use rmem_storage::StorageError;
use rmem_types::OpTag;

use crate::codec;
use crate::epoch::{data_register, ShardMap, CONFIG_REGISTER};
use crate::exactly_once::ExactlyOnce;
use crate::health::{HealthMemory, NodeGate};
use crate::lease::{LeaseCache, Lookup};
use crate::recorder::OpRecorder;
use crate::router::ShardRouter;

/// How many times an operation re-routes after a shard-map refresh,
/// barrier re-route or epoch-guarded abort before giving up on chasing
/// epochs.
const MAP_RETRIES: usize = 6;

/// Shared per-client observability (all clones update one set): the
/// `rmem-obs` registry with every hot-path handle pre-resolved, plus the
/// client-side flight recorder. The former `OpStatsInner` counters live
/// in the registry now — [`KvClient::stats`] reads them back out, so the
/// [`KvOpStats`] surface is unchanged while `cluster`-style snapshots
/// ([`KvClient::metrics`]) see the same numbers.
#[derive(Debug)]
struct ClientObs {
    handle: ObsHandle,
    reads: Arc<Counter>,
    read_rounds: Arc<Counter>,
    fast_reads: Arc<Counter>,
    writes: Arc<Counter>,
    write_rounds: Arc<Counter>,
    barrier_waits: Arc<Counter>,
    barrier_polls: Arc<Counter>,
    map_refreshes: Arc<Counter>,
    retries: Arc<Counter>,
    backoff_micros: Arc<Counter>,
    lease_hits: Arc<Counter>,
    lease_misses: Arc<Counter>,
    lease_revocations: Arc<Counter>,
    lease_evictions: Arc<Counter>,
    inflight: Arc<rmem_obs::Gauge>,
    pipeline_depth: Arc<Histogram>,
    bundle_size: Arc<Histogram>,
    get_micros: Arc<Histogram>,
    put_micros: Arc<Histogram>,
}

impl ClientObs {
    fn new(handle: ObsHandle) -> Self {
        let m = &handle.metrics;
        ClientObs {
            reads: m.counter("kv.reads"),
            read_rounds: m.counter("kv.read_rounds"),
            fast_reads: m.counter("kv.fast_reads"),
            writes: m.counter("kv.writes"),
            write_rounds: m.counter("kv.write_rounds"),
            barrier_waits: m.counter("kv.barrier_waits"),
            barrier_polls: m.counter("kv.barrier_polls"),
            map_refreshes: m.counter("kv.map_refreshes"),
            retries: m.counter("kv.retries"),
            backoff_micros: m.counter("kv.backoff_micros"),
            lease_hits: m.counter("kv.lease_hits"),
            lease_misses: m.counter("kv.lease_misses"),
            lease_revocations: m.counter("kv.lease_revocations"),
            lease_evictions: m.counter("kv.lease_evictions"),
            inflight: m.gauge("kv.inflight"),
            pipeline_depth: m.histogram("kv.pipeline_depth"),
            bundle_size: m.histogram("kv.bundle_size"),
            get_micros: m.histogram("kv.get_micros"),
            put_micros: m.histogram("kv.put_micros"),
            handle,
        }
    }

    /// `Instant::now` for latency histograms, skipped when observability
    /// is disabled (the bench baseline).
    #[inline]
    fn op_clock(&self) -> Option<Instant> {
        self.handle.metrics.is_enabled().then(Instant::now)
    }

    /// Records the time since `started` (an [`op_clock`](Self::op_clock)
    /// reading) into latency histogram `hist`.
    fn lap(started: Option<Instant>, hist: &Histogram) {
        if let Some(started) = started {
            hist.record(started.elapsed().as_micros() as u64);
        }
    }
}

/// Bookkeeping for one in-flight chunk of a multi-key call.
struct InFlightOp {
    /// Index into [`Flight::cuts`]: the chunk this register operation
    /// carries. Its completion submits the register's next chunk.
    chunk: usize,
    /// The serving node (fan target order == `KvClient::nodes` order).
    node: usize,
    /// The recorded invocation: handed to the blocking path on fallback
    /// so a retried op never opens a second recorded operation.
    inv: Option<rmem_types::OpId>,
    /// Whether this op is the node's owed health probe (won via
    /// [`HealthMemory::try_begin_probe`]): an inconclusive outcome hands
    /// the debt back.
    probe: bool,
    /// Latency clock opened at submission (when metrics are on).
    started: Option<Instant>,
    /// Submission instant for the lease-horizon anchor (only stamped
    /// when the client's lease cache is armed): a grant riding this
    /// op's completion expires `grant.micros` after *this* moment.
    sent: Option<Instant>,
}

/// The inputs of a multi-key call — a `multi_get`'s keys with its answer
/// slots (one per key), or a `multi_put`'s entries. Its methods are all
/// the two kinds differ in: where one register's inputs are cut into
/// chunks, how one chunk is submitted, how its completion is read, and
/// which blocking call settles an input the pipeline could not.
/// [`Flight`], the shared driver, never asks which kind it is driving.
enum Batch<'a, K> {
    Gets(&'a [K], &'a mut [Option<Option<Bytes>>]),
    Puts(&'a [(K, Bytes)]),
}

/// One multi-key call in flight: the pipelined driver behind
/// [`KvClient::multi_get`] and [`KvClient::multi_put`] (see the
/// [module docs](self#multi-key-calls)) — one thread, one event-driven
/// [`PipelinedClient`] fan, no per-node threads.
struct Flight<'a> {
    kv: &'a KvClient,
    fan: PipelinedClient,
    /// The map the batch was routed under (checked before every send).
    map: ShardMap,
    /// The pipelined inputs as `(register, input index)`. [`run`]
    /// (Self::run) sorts them, so one register's inputs are contiguous
    /// and in input order.
    routed: Vec<(RegisterId, usize)>,
    /// Chunk `c` — one register operation — carries the inputs
    /// `routed[cuts[c]..cuts[c + 1]]`, all of one register. The runner
    /// admits ONE op per register at a time (§III-A per-register
    /// sequentiality), so a register's chunks run one after the other:
    /// chunk `c + 1` is submitted when `c` completes, if it is on the
    /// same register — queueing client-side instead of eating
    /// self-inflicted `Busy` rejections.
    cuts: Vec<usize>,
    /// The in-flight chunks: tickets, with their bookkeeping in a twin
    /// vector (so the ticket slice feeds `wait_any` directly).
    tickets: Vec<Ticket>,
    pending: Vec<InFlightOp>,
    /// What the pipeline does not settle, for the blocking path: input
    /// indices with the invocations they already recorded, in the order
    /// they will run.
    fallback: Vec<(usize, Option<rmem_types::OpId>)>,
    /// A coalesced op failed ambiguously: [`drain`](Self::drain) records
    /// that as this process's crash (see [`fail`](Self::fail)).
    crashed: bool,
    /// The call's first failure: a terminal refusal at submission (a
    /// client-side `TooLarge`), else the first blocking-path error.
    first_err: Option<KvError>,
}

/// Snapshot of a client's per-operation quorum-round statistics.
///
/// Rounds are reported by the register automaton with each completion, so
/// the numbers measure what the emulation actually did: a read costs 1
/// round when the confirmed-timestamp fast path fired (unanimous durable
/// tags in the read quorum) and 2 when it fell back to the write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvOpStats {
    /// Register reads completed through this client (and its clones),
    /// including barrier polls and shard-map reads.
    pub reads: u64,
    /// Total quorum round-trips those reads performed.
    pub read_rounds: u64,
    /// Reads that completed in a single round (fast path / single-round
    /// flavor).
    pub fast_reads: u64,
    /// Register writes completed.
    pub writes: u64,
    /// Total quorum round-trips those writes performed.
    pub write_rounds: u64,
    /// Writes that entered a migration write barrier and found the seal
    /// not yet in place (i.e. actually waited).
    pub barrier_waits: u64,
    /// Barrier polls (old-home seal checks) performed in total; one poll
    /// per barriered write is the protocol's floor.
    pub barrier_polls: u64,
    /// Shard-map refreshes from the config register.
    pub map_refreshes: u64,
    /// Failed node attempts that made an operation retry — `Busy`
    /// re-tries on one node plus failover hops to the next.
    pub retries: u64,
    /// Total microseconds slept in retry backoff (see `kv.backoff_micros`).
    pub backoff_micros: u64,
    /// Reads served from the client's tag-lease cache with **zero**
    /// datagrams (counted into `reads` with 0 rounds). Always 0 unless
    /// [`KvClient::with_lease_cache`] armed the cache.
    pub lease_hits: u64,
    /// Lease-cache lookups that found no live lease and fell through to
    /// the quorum read path.
    pub lease_misses: u64,
    /// Leases dropped before their horizon: the client's own write to
    /// the register, a newer tag observed, or a shard-map epoch change
    /// (which revokes the whole cache).
    pub lease_revocations: u64,
    /// Leases dropped by the cache itself: LRU capacity pressure or a
    /// lapsed horizon discovered at lookup.
    pub lease_evictions: u64,
}

impl KvOpStats {
    /// Mean rounds per read (2.0 = every read paid the write-back,
    /// 1.0 = every read took the fast path; 0.0 with no reads).
    pub fn mean_read_rounds(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.read_rounds as f64 / self.reads as f64
    }

    /// Fraction of reads served by the one-round fast path.
    pub fn fast_read_fraction(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.fast_reads as f64 / self.reads as f64
    }

    /// Fraction of reads served locally by a live tag lease (0 rounds,
    /// 0 datagrams). With leases on over a Zipf-hot read-mostly
    /// workload this dominates, which is what pushes
    /// [`mean_read_rounds`](Self::mean_read_rounds) below 1.0.
    pub fn lease_hit_fraction(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.lease_hits as f64 / self.reads as f64
    }

    /// Mean seal polls per barrier wait (how long barriered writers
    /// actually stalled; 0.0 if nothing ever waited).
    pub fn mean_barrier_polls(&self) -> f64 {
        if self.barrier_waits == 0 {
            return 0.0;
        }
        self.barrier_polls as f64 / self.barrier_waits as f64
    }
}

/// Snapshot of the shared cluster-health memory's operator counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthStats {
    /// Failures recorded (timeouts / downs) since construction.
    pub marks: u64,
    /// Probe operations started for decayed suspects since construction.
    pub probes: u64,
    /// Nodes currently inside their mark cooldown.
    pub suspects: Vec<usize>,
}

/// What a completed [`KvClient::grow`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrowReport {
    /// The committed epoch.
    pub epoch: u64,
    /// Shard count before the split.
    pub from_shards: u16,
    /// Shard count after the split.
    pub to_shards: u16,
    /// Split-source shards sealed by this driver (a resumed split may
    /// find some already sealed).
    pub sources_sealed: usize,
    /// Entries copied to a new home register.
    pub entries_moved: usize,
}

/// Why a store operation failed.
#[derive(Debug, Clone)]
pub enum KvError {
    /// The underlying register operation failed at the node serving the
    /// key's shard.
    Register {
        /// The key whose operation failed.
        key: String,
        /// The transport/runtime error.
        source: ClientError,
    },
    /// The encoded entry cannot fit the cluster's transport frame (e.g.
    /// the 64 KB UDP datagram ceiling). Surfaced *before* anything is
    /// sent — the fair-lossy runtime would otherwise retransmit the
    /// untransmittable message until the patience window expired.
    TooLarge {
        /// The key whose entry is oversized.
        key: String,
        /// The wire size the entry would produce.
        size: usize,
        /// The transport's frame limit.
        limit: usize,
    },
    /// A migration write barrier did not observe the source shard's seal
    /// within the bounded wait ([`KvClient::with_barrier_polls`]) — the
    /// migration driver is stalled or gone; run
    /// [`KvClient::finish_split`] to drive it to completion.
    Barrier {
        /// The key whose write was barriered.
        key: String,
        /// The splitting source shard the writer waited on.
        shard: u16,
    },
    /// A resharding request was invalid (e.g. shrinking the table).
    Reshard {
        /// What was wrong.
        message: String,
    },
    /// The client was constructed without any node handles.
    NoNodes,
    /// The staged operation was fenced: a resolver already returned
    /// `NotLanded` for this tag ([`KvClient::resolve`]), so issuing it now
    /// would make a resolved-NotLanded op visible.
    Fenced {
        /// The fenced operation's tag.
        tag: OpTag,
    },
    /// The intent journal has no record of this tag — it was never begun
    /// through this journal, or it was acknowledged and tombstoned.
    UnknownIntent {
        /// The unrecognized tag.
        tag: OpTag,
    },
    /// The client-side intent journal failed; the operation was not
    /// issued (journal writes come first).
    Journal {
        /// The storage failure.
        source: StorageError,
    },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Register { key, source } => write!(f, "operation on key {key:?}: {source}"),
            KvError::TooLarge { key, size, limit } => write!(
                f,
                "entry for key {key:?} needs a {size}-byte message, over the transport's {limit}-byte frame"
            ),
            KvError::Barrier { key, shard } => write!(
                f,
                "write barrier on key {key:?} never saw shard {shard}'s migration seal"
            ),
            KvError::Reshard { message } => write!(f, "invalid reshard: {message}"),
            KvError::NoNodes => write!(f, "KvClient needs at least one node handle"),
            KvError::Fenced { tag } => write!(
                f,
                "operation {tag} was resolved NotLanded and is fenced from ever issuing"
            ),
            KvError::UnknownIntent { tag } => {
                write!(f, "the intent journal has no record of operation {tag}")
            }
            KvError::Journal { source } => write!(f, "intent journal: {source}"),
        }
    }
}

impl std::error::Error for KvError {}

/// A sharded key-value client over an emulated shared memory.
///
/// Keys route deterministically to shard registers through the cached
/// epoch [`ShardMap`] (clones share the cache); each shard prefers one of
/// the cluster's node handles (`register % nodes`, so shard traffic
/// spreads across the cluster) and fails over to the remaining nodes when
/// its home node is down or unresponsive — any node can serve any
/// register.
/// [`multi_get`](KvClient::multi_get)/[`multi_put`](KvClient::multi_put)
/// share one pipelined driver that keeps every shard's operation in
/// flight **at once, from the calling thread** — operations on different
/// shards touch different registers and are independent by locality, so
/// the only serialization kept is the per-register input order.
///
/// Reads and writes inherit the register emulation's guarantees: with a
/// majority of nodes up, every operation terminates, and per-key histories
/// satisfy the configured flavor's atomicity criterion — across epochs,
/// certified by [`certify_per_key_epochs`](crate::certify_per_key_epochs).
#[derive(Debug, Clone)]
pub struct KvClient {
    nodes: Vec<Client>,
    map: Arc<Mutex<ShardMap>>,
    /// Whether this client family has read the config register at least
    /// once — until then the cache is only the constructor's guess, and
    /// a *write* issued under it could silently land behind another
    /// client's already-committed split (reads self-heal via stamp
    /// mismatches; writes are blind). The first operation syncs.
    synced: Arc<std::sync::atomic::AtomicBool>,
    busy_retries: u32,
    barrier_polls: u32,
    health: Arc<HealthMemory>,
    obs: Arc<ClientObs>,
    /// The client family's trace context, when the observability handle
    /// is enabled: node handles issue every operation under a fresh
    /// [`rmem_types::TraceId`] and the runtime propagates it across the
    /// wire, so the family's ring stitches into the nodes' rings.
    trace: Option<Arc<TraceCtx>>,
    pub(crate) recorder: Option<(OpRecorder, ProcessId)>,
    /// Exactly-once state (intent journal + tag allocator), attached by
    /// [`with_exactly_once`](KvClient::with_exactly_once); clones share
    /// it. `None` = classic at-least-once client, untagged writes.
    pub(crate) intents: Option<Arc<ExactlyOnce>>,
    /// The tag-lease cache, armed by
    /// [`with_lease_cache`](KvClient::with_lease_cache) and shared by
    /// clones. `None` = every read pays at least one quorum round.
    /// Serving hits additionally requires the cluster's flavor to grant
    /// leases ([`rmem_core::Flavor::leases`]) — against an unleased
    /// cluster the cache simply never fills.
    leases: Option<Arc<LeaseCache>>,
}

impl KvClient {
    /// A client over `nodes` (e.g. `LocalCluster::clients()`) with the
    /// given bootstrap router: `router.shards()` becomes the genesis
    /// shard count, superseded as soon as a published shard map is
    /// observed (a data payload's stamp mismatch, [`refresh_map`], or
    /// [`grow`]).
    ///
    /// [`refresh_map`]: KvClient::refresh_map
    /// [`grow`]: KvClient::grow
    ///
    /// # Errors
    ///
    /// Returns [`KvError::NoNodes`] if `nodes` is empty.
    pub fn new(nodes: Vec<Client>, router: ShardRouter) -> Result<Self, KvError> {
        if nodes.is_empty() {
            return Err(KvError::NoNodes);
        }
        let health = Arc::new(HealthMemory::new(nodes.len(), Duration::from_secs(5)));
        Ok(KvClient {
            nodes,
            map: Arc::new(Mutex::new(ShardMap::genesis(router.shards()))),
            synced: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            busy_retries: 32,
            barrier_polls: 512,
            health,
            obs: Arc::new(ClientObs::new(ObsHandle::new())),
            trace: None,
            recorder: None,
            intents: None,
            leases: None,
        }
        .rewire_trace())
    }

    /// Replaces the client family's observability handle (shared with
    /// clones made *after* this call). Benches pass
    /// [`ObsHandle::disabled`] to measure the uninstrumented baseline —
    /// counters still count (they are too cheap to gate), but latency
    /// clocks are skipped, flight-recorder events are dropped at the
    /// door, and operations are not traced.
    pub fn with_obs(mut self, handle: ObsHandle) -> Self {
        self.obs = Arc::new(ClientObs::new(handle));
        self.rewire_trace()
    }

    /// (Re)derives the trace context from the current observability
    /// handle and attaches it to every node handle: enabled handle →
    /// traced family recording into the handle's flight ring; disabled →
    /// untraced (zero wire or ring overhead).
    fn rewire_trace(mut self) -> Self {
        let flight = &self.obs.handle.flight;
        self.trace = flight
            .is_enabled()
            .then(|| Arc::new(TraceCtx::new(flight.clone())));
        self.nodes = self
            .nodes
            .into_iter()
            .map(|n| n.with_trace(self.trace.clone()))
            .collect();
        self
    }

    /// The family id this client's operations are traced under (the
    /// `pid` of its ring in a stitch), if tracing is on.
    pub fn trace_client_id(&self) -> Option<u16> {
        self.trace.as_ref().map(|t| t.client_id())
    }

    /// This family's client-side events as a stitcher input: combine with
    /// the cluster's node dumps (`LocalCluster::ring_dumps`) and hand to
    /// [`rmem_obs::trace::stitch`]. `None` when tracing is off.
    pub fn trace_ring_dump(&self) -> Option<rmem_obs::trace::RingDump> {
        self.trace
            .as_ref()
            .map(|t| rmem_obs::trace::RingDump::client(t.client_id(), t.ring().dump()))
    }

    /// Arms the client family's tag-lease cache: reads whose fast-path
    /// quorum attached a lease grant are cached, and repeated reads of
    /// the same register are served locally — zero datagrams, zero
    /// quorum rounds — until the lease's horizon passes, the client
    /// writes the register, a newer tag is observed, or the shard map
    /// changes epoch. At most `capacity` leases stay resident
    /// (least-recently-served eviction), so only the hot keys occupy
    /// client memory.
    ///
    /// Opt-in, and inert against a cluster whose flavor does not grant
    /// leases (`Flavor::with_lease`): the cache never fills, every read
    /// pays its normal rounds.
    ///
    /// **Freshness invariant**: a leased read never returns a value
    /// older than any value returned after a completed write — the
    /// granting replicas fence newer writes behind the granted horizon
    /// (quorum intersection does the rest), and the client's horizon
    /// clock starts at read *submission*, strictly undershooting every
    /// replica's fence.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_lease_cache(mut self, capacity: usize) -> Self {
        self.leases = Some(Arc::new(LeaseCache::new(capacity)));
        self
    }

    /// Replaces the number of retries on `Busy` rejections (another client
    /// racing an operation through the same node; default 32).
    pub fn with_busy_retries(mut self, busy_retries: u32) -> Self {
        self.busy_retries = busy_retries;
        self
    }

    /// Replaces the bounded-wait cap of the migration write barrier
    /// (default 512 seal polls with escalating backoff): a barriered
    /// write that exhausts the cap fails with [`KvError::Barrier`]
    /// instead of blocking forever.
    pub fn with_barrier_polls(mut self, barrier_polls: u32) -> Self {
        assert!(barrier_polls > 0, "the barrier needs at least one poll");
        self.barrier_polls = barrier_polls;
        self
    }

    /// Replaces each node handle's patience window (default 10 s): how
    /// long one node may sit on an operation before failover moves on.
    pub fn with_op_timeout(mut self, timeout: Duration) -> Self {
        self.nodes = self
            .nodes
            .into_iter()
            .map(|n| n.with_timeout(timeout))
            .collect();
        self
    }

    /// Replaces the cluster-health mark cooldown (default 5 s): how long a
    /// node that timed out is deprioritized before failover tries it first
    /// again. Resets the marks.
    pub fn with_health_cooldown(mut self, cooldown: Duration) -> Self {
        self.health = Arc::new(HealthMemory::new(self.nodes.len(), cooldown));
        self
    }

    /// Attaches a history recorder: every register operation this client
    /// performs is recorded under a fresh history process id. Use
    /// [`recorded_clone`](KvClient::recorded_clone) to hand each
    /// concurrent thread its own sequential process.
    pub fn with_recorder(mut self, recorder: OpRecorder) -> Self {
        let pid = recorder.assign_pid();
        self.recorder = Some((recorder, pid));
        self
    }

    /// A clone recording under its own fresh history process id (same
    /// shared history). Clones made with plain `clone()` share the
    /// original's id and must not race it on one register.
    ///
    /// # Panics
    ///
    /// Panics if no recorder is attached.
    pub fn recorded_clone(&self) -> Self {
        let (recorder, _) = self
            .recorder
            .as_ref()
            .expect("recorded_clone needs with_recorder first");
        let mut clone = self.clone();
        clone.recorder = Some((recorder.clone(), recorder.assign_pid()));
        clone
    }

    /// The shared cluster-health memory (clones of this client observe and
    /// update the same marks).
    pub fn health(&self) -> &HealthMemory {
        &self.health
    }

    /// Operator counters of the shared health memory: total marks, total
    /// probes issued for decayed suspects, and the current suspect set.
    pub fn health_stats(&self) -> HealthStats {
        HealthStats {
            marks: self.health.marks_total(),
            probes: self.health.probes_total(),
            suspects: self.health.suspects(),
        }
    }

    /// Per-operation quorum-round statistics (shared with clones). Reads
    /// the `kv.*` counters of this client family's metrics registry.
    pub fn stats(&self) -> KvOpStats {
        KvOpStats {
            reads: self.obs.reads.get(),
            read_rounds: self.obs.read_rounds.get(),
            fast_reads: self.obs.fast_reads.get(),
            writes: self.obs.writes.get(),
            write_rounds: self.obs.write_rounds.get(),
            barrier_waits: self.obs.barrier_waits.get(),
            barrier_polls: self.obs.barrier_polls.get(),
            map_refreshes: self.obs.map_refreshes.get(),
            retries: self.obs.retries.get(),
            backoff_micros: self.obs.backoff_micros.get(),
            lease_hits: self.obs.lease_hits.get(),
            lease_misses: self.obs.lease_misses.get(),
            lease_revocations: self.obs.lease_revocations.get(),
            lease_evictions: self.obs.lease_evictions.get(),
        }
    }

    /// A snapshot of the client family's metrics registry: the `kv.*`
    /// counters behind [`stats`](Self::stats) plus the wall-clock
    /// `kv.get_micros` / `kv.put_micros` latency histograms (empty when
    /// the handle is disabled or no wall-clock op has run).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.handle.metrics.snapshot()
    }

    /// The metrics registry shared by this client family (for layers
    /// stacked on top — e.g. the bench's trace report — to register their
    /// own instruments into the same snapshot).
    pub fn metrics_registry(&self) -> &rmem_obs::Registry {
        &self.obs.handle.metrics
    }

    /// The client-side flight recorder: epoch refreshes, barrier waits
    /// and observed migration seals, in event order.
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        self.obs.handle.flight.clone()
    }

    fn record_read(&self, rounds: u32) {
        self.obs.reads.inc();
        self.obs.read_rounds.add(u64::from(rounds));
        if rounds <= 1 {
            self.obs.fast_reads.inc();
        }
    }

    fn record_write(&self, rounds: u32) {
        self.obs.writes.inc();
        self.obs.write_rounds.add(u64::from(rounds));
    }

    /// Serves `reg` from the lease cache if a live lease covers it under
    /// `map`. A hit is a complete zero-round, zero-datagram read and is
    /// counted into the read stats; during a migration the cache is
    /// bypassed entirely (the split read protocol owns routing).
    fn lease_hit(&self, reg: RegisterId, map: &ShardMap) -> Option<Value> {
        let cache = self.leases.as_deref()?;
        if map.is_migrating() {
            return None;
        }
        match cache.lookup(reg, map.stamp(), Instant::now()) {
            Lookup::Hit(payload) => {
                self.obs.lease_hits.inc();
                self.record_read(0);
                self.obs.handle.flight.record(
                    FlightEvent::new(EventKind::LeaseHit)
                        .with_register(reg.0)
                        .with_epoch(map.epoch as u32),
                );
                Some(payload)
            }
            Lookup::Expired => {
                self.obs.lease_evictions.inc();
                self.obs.lease_misses.inc();
                None
            }
            Lookup::Miss => {
                self.obs.lease_misses.inc();
                None
            }
        }
    }

    /// Installs a granted lease, with the horizon clock anchored at `t0`
    /// — the instant the read was *submitted*, so the client-side expiry
    /// strictly undershoots every granting replica's write fence. Fills
    /// are skipped during migrations: a mid-split grant would be stamped
    /// by a map that is about to change.
    fn lease_fill(
        &self,
        reg: RegisterId,
        grant: LeaseGrant,
        payload: Value,
        map: &ShardMap,
        t0: Instant,
    ) {
        let Some(cache) = self.leases.as_deref() else {
            return;
        };
        if map.is_migrating() {
            return;
        }
        let horizon = t0 + Duration::from_micros(u64::from(grant.micros));
        let evicted = cache.fill(reg, grant.ts, payload, map.stamp(), horizon);
        self.obs.lease_evictions.add(evicted as u64);
    }

    /// Revokes `reg`'s lease, called **before** any write this client
    /// issues to the register — the cached value is about to be stale.
    fn lease_revoke(&self, reg: RegisterId) {
        let Some(cache) = self.leases.as_deref() else {
            return;
        };
        if cache.invalidate(reg) {
            self.obs.lease_revocations.inc();
            self.obs.handle.flight.record(
                FlightEvent::new(EventKind::LeaseRevoke)
                    .with_register(reg.0)
                    .with_aux(1),
            );
        }
    }

    /// Bounded exponential backoff with jitter before retry `attempt`
    /// (1-based): base 50 µs doubling to a 2 ms ceiling, the actual sleep
    /// drawn uniformly from `[cap/2, cap]`. The jitter is what prevents
    /// livelock under contention — two clients Busy-bouncing on one
    /// register with deterministic sleeps would stay phase-locked and
    /// collide on every retry.
    fn backoff(&self, attempt: u32) {
        use rand::{Rng, SeedableRng};
        // Each thread jitters from its own stream (seeded off a global
        // counter): contending threads decorrelate instead of sharing a
        // sequence.
        static NEXT_SEED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        thread_local! {
            static JITTER: std::cell::RefCell<rand::rngs::StdRng> =
                std::cell::RefCell::new(rand::rngs::StdRng::seed_from_u64(
                    NEXT_SEED
                        .fetch_add(1, Ordering::Relaxed)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ));
        }
        let cap = (50u64 << attempt.min(6).saturating_sub(1)).min(2_000);
        let sleep = JITTER.with(|rng| rng.borrow_mut().gen_range(cap / 2..=cap));
        self.obs.backoff_micros.add(sleep);
        std::thread::sleep(Duration::from_micros(sleep));
    }

    /// The current cached shard map (shared with clones).
    pub fn shard_map(&self) -> ShardMap {
        *self.map.lock().expect("shard map lock")
    }

    /// The current epoch (of the cached map).
    pub fn epoch(&self) -> u64 {
        self.shard_map().epoch
    }

    /// A pure router over the cached map's *current* shard count. Note
    /// that it routes in shard space (register = shard), not the epoch
    /// layer's register space — use it for shard counts and key
    /// derivation, not raw register addressing.
    pub fn router(&self) -> ShardRouter {
        ShardRouter::new(self.shard_map().shards)
    }

    /// The largest *register value* this client can write, if any node's
    /// transport is bounded (the minimum across nodes — a value must fit
    /// every replica's frame, not just the contacted node's, because the
    /// protocol forwards it to all of them).
    pub fn max_value_len(&self) -> Option<usize> {
        self.nodes.iter().filter_map(Client::max_value_len).min()
    }

    /// Adopts `new` into the shared cache if it advances the current map
    /// (newer epoch, or same epoch moving from migrating to committed).
    /// An adoption revokes **every** lease: no lease survives a
    /// shard-map change — the keys behind a register may differ under
    /// the new routing, and migration copies rewrite registers outside
    /// the leased read path.
    fn adopt(&self, new: &ShardMap) {
        let changed = {
            let mut cur = self.map.lock().expect("shard map lock");
            if new.epoch > cur.epoch
                || (new.epoch == cur.epoch && cur.is_migrating() && !new.is_migrating())
            {
                *cur = *new;
                true
            } else {
                false
            }
        };
        if changed {
            if let Some(cache) = &self.leases {
                let dropped = cache.clear() as u64;
                if dropped > 0 {
                    self.obs.lease_revocations.add(dropped);
                    self.obs
                        .handle
                        .flight
                        .record(FlightEvent::new(EventKind::LeaseRevoke).with_aux(dropped));
                }
            }
        }
    }

    /// Re-reads the authoritative shard map from the config register and
    /// adopts it if it advances the cache. Returns whether the cache
    /// changed. A ⊥ config register (no map ever published) leaves the
    /// bootstrap map in force.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Register`] if the config register cannot be
    /// read.
    pub fn refresh_map(&self) -> Result<bool, KvError> {
        self.obs.map_refreshes.inc();
        let payload = self.reg_read(CONFIG_REGISTER, "shard-map")?;
        self.synced.store(true, Ordering::Relaxed);
        let Some(published) = ShardMap::decode(&payload) else {
            return Ok(false);
        };
        let before = self.shard_map();
        self.adopt(&published);
        let changed = self.shard_map() != before;
        if changed {
            self.obs.handle.flight.record(
                FlightEvent::new(EventKind::EpochRefresh)
                    .with_epoch(published.epoch as u32)
                    .with_aux(u64::from(published.shards)),
            );
        }
        Ok(changed)
    }

    /// One-time bootstrap sync, run implicitly by the first operation of
    /// a client family (clones share it): reads the config register and
    /// adopts any published shard map, so a client joining a store that
    /// was resharded before it existed never writes under its
    /// constructor's guess. No-op once any config-register read has
    /// happened (including [`refresh_map`](KvClient::refresh_map) and
    /// [`grow`](KvClient::grow)).
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Register`] if the config register cannot be
    /// read.
    pub fn sync_map(&self) -> Result<(), KvError> {
        if self.synced.load(Ordering::Relaxed) {
            return Ok(());
        }
        let (payload, _) = self.with_failover("shard-map", CONFIG_REGISTER, |node| {
            node.read_at_counted(CONFIG_REGISTER)
        })?;
        if let Some(published) = ShardMap::decode(&payload) {
            self.adopt(&published);
        }
        self.synced.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Runs one register operation for `label`, preferring the register's
    /// home node but failing over to the other nodes when it is
    /// unreachable: every node can serve every register, so as long as a
    /// majority is up the operation terminates through *some* handle.
    /// `Busy` rejections (another client racing this node) retry with
    /// backoff on the same node first, then fail over like any other
    /// unavailability — register operations are idempotent, so a retry
    /// after an ambiguous timeout is safe.
    ///
    /// Nodes the shared [`HealthMemory`] marks as recently failed are
    /// tried *last* (never skipped), and a timeout/down outcome marks the
    /// node — the multi-key driver consults the same marks before every
    /// submission, so a wedged node costs a batch (and every clone's
    /// later operations) one patience window, not one per key. A node
    /// whose mark has decayed must first serve one **probe** operation
    /// before rejoining full rotation: exactly one caller wins the probe
    /// (and routes its operation through the node, first), everyone else
    /// keeps trying it last until the probe clears it.
    /// [`ClientError::TooLarge`] short-circuits without marking: the value
    /// cannot fit *any* node's frame, so failing over would only repeat
    /// the refusal.
    fn with_failover<T>(
        &self,
        key: &str,
        reg: RegisterId,
        op: impl FnMut(&Client) -> Result<T, ClientError>,
    ) -> Result<T, KvError> {
        self.with_failover_abortable(key, reg, op, None)
            .map(|v| v.expect("unabortable failover cannot abort"))
    }

    /// [`with_failover`](Self::with_failover) with an abort guard checked
    /// before every node attempt; `Ok(None)` means the guard fired and
    /// the operation was **not** issued to any further node.
    ///
    /// The epoch-aware write path uses this to keep a write from landing
    /// *late*: a node attempt's effect lands within moments of its start,
    /// so checking "did the shard map move?" right before each attempt
    /// bounds how stale a landed write can be — without it, a write
    /// stalled behind a dead node's patience window could surface on a
    /// source register long after the shard was sealed.
    fn with_failover_abortable<T>(
        &self,
        key: &str,
        reg: RegisterId,
        mut op: impl FnMut(&Client) -> Result<T, ClientError>,
        abort: Option<&dyn Fn() -> bool>,
    ) -> Result<Option<T>, KvError> {
        let home = reg.0 as usize % self.nodes.len();
        let rotation = (0..self.nodes.len()).map(|o| (home + o) % self.nodes.len());
        let mut fresh = Vec::new();
        let mut suspect = Vec::new();
        let mut probing: Option<usize> = None;
        for i in rotation {
            match self.health.gate(i) {
                NodeGate::Fresh => fresh.push(i),
                NodeGate::Suspect => suspect.push(i),
                NodeGate::NeedsProbe => {
                    if probing.is_none() && self.health.try_begin_probe(i) {
                        // The probe winner's operation *is* the probe: the
                        // node goes first so this operation definitely
                        // exercises it (success clears, failure re-marks).
                        probing = Some(i);
                    } else {
                        suspect.push(i);
                    }
                }
            }
        }
        let order = probing.into_iter().chain(fresh).chain(suspect);
        let mut last_err = None;
        for i in order {
            let node = &self.nodes[i];
            let mut attempts = 0;
            loop {
                // Checked before *every* attempt, busy retries included: a
                // Busy storm (e.g. barrier pollers hammering a splitting
                // register) must not delay an issue past the guard — the
                // guarded write's contract is that its effect lands within
                // one clean attempt of a passing check.
                if abort.is_some_and(|guard| guard()) {
                    return Ok(None);
                }
                match op(node) {
                    Err(ClientError::Busy) if attempts < self.busy_retries => {
                        attempts += 1;
                        self.obs.retries.inc();
                        self.backoff(attempts);
                    }
                    Err(ClientError::TooLarge { size, limit }) => {
                        if probing == Some(i) {
                            // The probe never reached the node (client-side
                            // refusal): hand the debt back.
                            self.health.reopen_probe(i);
                        }
                        return Err(KvError::TooLarge {
                            key: key.to_string(),
                            size,
                            limit,
                        });
                    }
                    // This node is gone, wedged, or permanently saturated
                    // (Busy retries exhausted); the next one serves the
                    // same register.
                    Err(source) => {
                        self.obs.retries.inc();
                        if matches!(source, ClientError::TimedOut | ClientError::ProcessDown) {
                            self.health.mark(i);
                        } else if probing == Some(i) {
                            // Inconclusive probe (e.g. Busy exhaustion):
                            // the node still owes one.
                            self.health.reopen_probe(i);
                        }
                        last_err = Some(source);
                        break;
                    }
                    Ok(v) => {
                        self.health.clear(i);
                        return Ok(Some(v));
                    }
                }
            }
        }
        Err(KvError::Register {
            key: key.to_string(),
            source: last_err.expect("at least one node was tried"),
        })
    }

    /// Records a store-operation invocation (one per `put`/`get`, however
    /// many register rounds serve it).
    fn rec_invoke(&self, op: Op) -> Option<rmem_types::OpId> {
        self.recorder.as_ref().map(|(r, pid)| r.invoke(*pid, op))
    }

    /// Records an outcome against the pending invocation `inv`: replies
    /// for definite outcomes, the crash/recovery idiom for ambiguous
    /// ones.
    pub(crate) fn rec_outcome(
        &self,
        inv: Option<rmem_types::OpId>,
        outcome: Result<OpResult, &KvError>,
    ) {
        let Some((recorder, pid)) = &self.recorder else {
            return;
        };
        let Some(inv) = inv else {
            return;
        };
        match outcome {
            Ok(result) => recorder.reply(inv, result),
            // Refused before/without taking effect: the checkers ignore
            // rejected invocations.
            Err(KvError::TooLarge { .. })
            | Err(KvError::Register {
                source: ClientError::Busy,
                ..
            }) => recorder.reply(inv, OpResult::Rejected(rmem_types::RejectReason::Busy)),
            // Ambiguous (may or may not have applied): leave the op
            // pending and record the model's crash/recovery idiom.
            Err(_) => recorder.abandon(*pid),
        }
    }

    /// One failover-protected register read. **Unrecorded** — recording
    /// happens at the store-operation level (see [`rec_invoke`]), so
    /// infrastructure reads (barrier polls, map refreshes) and the
    /// several rounds of one logical `get` never masquerade as distinct
    /// store operations.
    ///
    /// [`rec_invoke`]: KvClient::rec_invoke
    fn reg_read(&self, reg: RegisterId, label: &str) -> Result<Value, KvError> {
        let (payload, rounds) = self.with_failover(label, reg, |node| node.read_at_counted(reg))?;
        self.record_read(rounds);
        Ok(payload)
    }

    /// [`reg_read`](Self::reg_read) that additionally harvests a lease
    /// grant into the cache when one rides the read's completion. `t0`
    /// is stamped inside the per-attempt closure, so the horizon anchors
    /// at the *successful* attempt's submission instant — never at an
    /// earlier failed node's.
    fn reg_read_leasing(
        &self,
        reg: RegisterId,
        label: &str,
        map: &ShardMap,
    ) -> Result<Value, KvError> {
        if self.leases.is_none() {
            return self.reg_read(reg, label);
        }
        let (payload, rounds, grant, t0) = self.with_failover(label, reg, |node| {
            let t0 = Instant::now();
            node.read_at_leased(reg).map(|(v, r, g)| (v, r, g, t0))
        })?;
        self.record_read(rounds);
        // With no grant, whatever lease the cache holds for this
        // register is not refreshable — the quorum stopped attesting
        // it. Leave it to expire on its own horizon (still safe: the
        // fence outlives it), no forced revocation.
        if let Some(grant) = grant {
            self.lease_fill(reg, grant, payload.clone(), map, t0);
        }
        Ok(payload)
    }

    /// One failover-protected register write. **Unrecorded** (see
    /// [`reg_read`](KvClient::reg_read)); notably the migration *data*
    /// writes — the copy to the new home and the seal of the old one —
    /// must never be recorded: at the store level they relocate a value
    /// rather than write one, and recording them would let a buggy
    /// (non-tag-monotonic) copy read as a legitimate write, hiding
    /// exactly the lost updates the cross-epoch certifier exists to
    /// catch.
    fn reg_write(&self, reg: RegisterId, payload: Value, label: &str) -> Result<(), KvError> {
        self.lease_revoke(reg);
        let rounds = self.with_failover(label, reg, |node| {
            node.write_at_counted(reg, payload.clone())
        })?;
        self.record_write(rounds);
        Ok(())
    }

    /// One register write that aborts — returns `Ok(false)`, nothing
    /// issued to any further node — as soon as the shard map's epoch
    /// moves past `epoch`. The epoch-aware `put` uses this so a write
    /// stalled in failover cannot land on a source register long after
    /// the shard was sealed.
    fn reg_write_guarded(
        &self,
        reg: RegisterId,
        payload: Value,
        label: &str,
        epoch: u64,
    ) -> Result<bool, KvError> {
        self.lease_revoke(reg);
        let guard = || self.shard_map().epoch != epoch;
        match self.with_failover_abortable(
            label,
            reg,
            |node| node.write_at_counted(reg, payload.clone()),
            Some(&guard),
        )? {
            Some(rounds) => {
                self.record_write(rounds);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// One failover-protected register **read** returning the raw payload
    /// (⊥, a single entry, a bundle, or a migration seal), recorded as
    /// one operation; `label` names the operation in errors. The
    /// migration driver's handoff evidence, and how tests inspect a cell.
    ///
    /// # Errors
    ///
    /// As for [`get`](Self::get).
    pub fn raw_read(&self, reg: RegisterId, label: &str) -> Result<Value, KvError> {
        self.sync_map()?;
        let inv = self.rec_invoke(Op::ReadAt(reg));
        match self.reg_read(reg, label) {
            Ok(payload) => {
                self.rec_outcome(inv, Ok(OpResult::ReadValue(payload.clone())));
                Ok(payload)
            }
            Err(e) => {
                self.rec_outcome(inv, Err(&e));
                Err(e)
            }
        }
    }

    /// Waits for `old_shard`'s migration seal (bounded): the write
    /// barrier of a key owned by a splitting shard. Returns `Ok(true)`
    /// when the seal was observed under `map`'s epoch, `Ok(false)` when
    /// the shard map advanced past `map` mid-wait (the caller should
    /// re-route).
    fn barrier_wait(&self, key: &str, old_shard: u16, map: &ShardMap) -> Result<bool, KvError> {
        let reg = data_register(old_shard);
        let mut waited = false;
        for poll in 0..self.barrier_polls {
            // The shared cache moves the moment any clone observes a
            // newer map (e.g. the migration driver committing): always
            // re-route rather than poll for a seal that may already be
            // superseded.
            if self.shard_map() != *map {
                return Ok(false);
            }
            self.obs.barrier_polls.inc();
            let payload = self.reg_read(reg, key)?;
            if map.seals_source(&payload, old_shard) {
                if waited {
                    // How long the writer actually stalled, in seal polls.
                    self.obs.handle.flight.record(
                        FlightEvent::new(EventKind::BarrierWait)
                            .with_register(reg.0)
                            .with_epoch(map.epoch as u32)
                            .with_aux(u64::from(poll)),
                    );
                }
                self.obs.handle.flight.record(
                    FlightEvent::new(EventKind::SealObserved)
                        .with_register(reg.0)
                        .with_epoch(map.epoch as u32),
                );
                return Ok(true);
            }
            if !waited {
                waited = true;
                self.obs.barrier_waits.inc();
            }
            // Escalating backoff, capped: the migrator seals a shard in a
            // handful of register rounds, so the common case is one short
            // sleep. Every eighth poll re-reads the authoritative map in
            // case this client is the only one still watching.
            if poll % 8 == 7 {
                let _ = self.refresh_map()?;
            }
            let backoff = (100u64 << poll.min(5)).min(2_000);
            std::thread::sleep(Duration::from_micros(backoff));
        }
        // Exhausted without a seal: the stall itself is worth a trace.
        self.obs.handle.flight.record(
            FlightEvent::new(EventKind::BarrierWait)
                .with_register(reg.0)
                .with_epoch(map.epoch as u32)
                .with_aux(u64::from(self.barrier_polls)),
        );
        Err(KvError::Barrier {
            key: key.to_string(),
            shard: old_shard,
        })
    }

    /// Stores `value` under `key`, blocking until the write is durable at
    /// a majority. During a live split of the key's source shard, the
    /// write first waits on the migration **write barrier** (see the
    /// module docs; bounded by [`with_barrier_polls`]).
    ///
    /// The encoded entry (`3 + key + value` bytes plus protocol framing)
    /// must fit the cluster's transport frame: UDP transports cap
    /// datagrams at 64 KB, and an oversized entry fails fast with
    /// [`KvError::TooLarge`] before anything is sent — use a TCP-backed
    /// cluster for larger values.
    ///
    /// [`with_barrier_polls`]: KvClient::with_barrier_polls
    ///
    /// # Errors
    ///
    /// Returns [`KvError::TooLarge`] for an entry over the transport
    /// frame, [`KvError::Barrier`] if a migration barrier never cleared,
    /// [`KvError::Register`] if the register operation fails.
    pub fn put(&self, key: &str, value: impl Into<Bytes>) -> Result<(), KvError> {
        self.put_settled(key, value.into(), &mut None)
    }

    /// The blocking put path with an externally-owned invocation slot:
    /// brackets the wall-clock latency histogram around the engine. The
    /// pipelined multi-key driver routes a submission that errored (node
    /// down, `Busy`, epoch moved) through here so the operation keeps its
    /// already-recorded invocation. An exactly-once client never
    /// pipelines, so its slot is always empty: it journals the intent
    /// durably, writes under a client-assigned op tag and tombstones on
    /// ack.
    fn put_settled(
        &self,
        key: &str,
        value: Bytes,
        inv: &mut Option<rmem_types::OpId>,
    ) -> Result<(), KvError> {
        let clock = self.obs.op_clock();
        let outcome = if self.intents.is_some() {
            self.put_exactly_once(key, value)
        } else {
            self.put_inner(key, value, None, inv)
        };
        ClientObs::lap(clock, &self.obs.put_micros);
        outcome
    }

    /// [`put`](Self::put)'s engine (split out so the wall-clock latency
    /// histogram brackets the whole operation, retries included). With
    /// `Some(tag)` every landed payload carries the op-id frame — retries
    /// across epoch re-routes re-encode under the *same* tag, which is
    /// what lets the exactly-once certifier collapse them into one
    /// logical write. The invocation slot is caller-owned so the
    /// pipelined driver can hand over an operation it already invoked
    /// (and part-attempted) without opening a second recorded op.
    pub(crate) fn put_inner(
        &self,
        key: &str,
        value: Bytes,
        tag: Option<OpTag>,
        inv: &mut Option<rmem_types::OpId>,
    ) -> Result<(), KvError> {
        self.sync_map()?;
        // Recorded as ONE store operation however many rounds serve it:
        // the invocation opens just before the first write attempt, the
        // reply lands after the last — so an epoch-repair re-write (below)
        // stays inside the operation's interval.
        for _ in 0..MAP_RETRIES {
            let map = self.shard_map();
            if map.is_barriered(key) && !self.barrier_wait(key, map.old_shard_of(key), &map)? {
                continue; // the map advanced mid-wait; re-route
            }
            let reg = map.register_for(key);
            let payload = match tag {
                Some(tag) => codec::encode_entry_tagged(key, &value, map.stamp(), tag),
                None => codec::encode_entry(key, &value, map.stamp()),
            };
            if inv.is_none() {
                *inv = self.rec_invoke(Op::WriteAt(reg, payload.clone()));
            }
            // The guard makes this all-or-nothing: either the write
            // landed under `map`'s epoch (within one clean attempt of a
            // passing epoch check — it cannot surface late behind a
            // seal), or nothing was issued and we re-route under the
            // fresh map. Exactly one landing either way: a re-write
            // after a successful landing would let pre-seal observers
            // and post-seal observers bracket another client's write,
            // which no single store operation can explain.
            match self.reg_write_guarded(reg, payload, key, map.epoch) {
                Ok(true) => {
                    self.rec_outcome(inv.take(), Ok(OpResult::Written));
                    return Ok(());
                }
                Ok(false) => continue, // epoch moved before landing; re-route
                Err(e) => {
                    self.rec_outcome(inv.take(), Err(&e));
                    return Err(e);
                }
            }
        }
        // Epochs kept moving for every retry (pathological churn): stop
        // chasing and write unguarded under the freshest map we have.
        let map = self.shard_map();
        let payload = match tag {
            Some(tag) => codec::encode_entry_tagged(key, &value, map.stamp(), tag),
            None => codec::encode_entry(key, &value, map.stamp()),
        };
        let reg = map.register_for(key);
        if inv.is_none() {
            *inv = self.rec_invoke(Op::WriteAt(reg, payload.clone()));
        }
        match self.reg_write(reg, payload, key) {
            Ok(()) => {
                self.rec_outcome(inv.take(), Ok(OpResult::Written));
                Ok(())
            }
            Err(e) => {
                self.rec_outcome(inv.take(), Err(&e));
                Err(e)
            }
        }
    }

    /// Reads the value stored under `key` (`None` if absent — never
    /// written, or displaced by a shard-colliding key). During a live
    /// split of the key's source shard the read falls back
    /// **old-home-then-new-home**; a payload whose epoch stamp does not
    /// match the cached map triggers a map refresh and a re-routed retry.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Register`] if a register operation fails.
    pub fn get(&self, key: &str) -> Result<Option<Bytes>, KvError> {
        self.get_settled(key, &mut None)
    }

    /// The blocking get path with an externally-owned invocation slot
    /// (see [`put_settled`](Self::put_settled) for why the pipelined
    /// driver needs one): records ONE store operation — the invocation
    /// opens before the first data read, the reply carries the payload
    /// that actually answered (fallback hops and refresh-retries
    /// included).
    fn get_settled(
        &self,
        key: &str,
        inv: &mut Option<rmem_types::OpId>,
    ) -> Result<Option<Bytes>, KvError> {
        self.sync_map()?;
        let clock = self.obs.op_clock();
        let outcome = self.get_inner(key, inv);
        ClientObs::lap(clock, &self.obs.get_micros);
        match &outcome {
            Ok((payload, _)) => {
                self.rec_outcome(inv.take(), Ok(OpResult::ReadValue(payload.clone())));
            }
            Err(e) => self.rec_outcome(inv.take(), Err(e)),
        }
        outcome.map(|(_, value)| value)
    }

    /// [`get`](Self::get)'s engine: returns the answering payload (for
    /// the recorder) alongside the extracted value.
    pub(crate) fn get_inner(
        &self,
        key: &str,
        inv: &mut Option<rmem_types::OpId>,
    ) -> Result<(Value, Option<Bytes>), KvError> {
        let mut last = Value::bottom();
        for _ in 0..MAP_RETRIES {
            let map = self.shard_map();
            if map.is_barriered(key) {
                return self.get_during_split(key, &map, map.old_shard_of(key), inv);
            }
            let reg = map.register_for(key);
            if let Some(payload) = self.lease_hit(reg, &map) {
                // A live lease answers locally: zero datagrams. The
                // read is still a recorded store operation — the lease
                // fence is exactly what makes it certifiable.
                if inv.is_none() {
                    *inv = self.rec_invoke(Op::ReadAt(reg));
                }
                let value = codec::value_for_key(&payload, key);
                return Ok((payload, value));
            }
            if inv.is_none() {
                *inv = self.rec_invoke(Op::ReadAt(reg));
            }
            let payload = self.reg_read_leasing(reg, key, &map)?;
            if let Some(value) = map.read_answer(&payload, key) {
                return Ok((payload, value));
            }
            // Key absent under a foreign stamp — our map may be stale:
            // refresh and re-route.
            if !self.refresh_map()? {
                return Ok((payload, None));
            }
            last = payload;
        }
        Ok((last, None))
    }

    /// The migration read path for a key whose source shard is splitting:
    /// the unsealed old home is authoritative (writers are barriered);
    /// a sealed old home forwards to the new routing.
    fn get_during_split(
        &self,
        key: &str,
        map: &ShardMap,
        old_shard: u16,
        inv: &mut Option<rmem_types::OpId>,
    ) -> Result<(Value, Option<Bytes>), KvError> {
        let old_reg = data_register(old_shard);
        if inv.is_none() {
            *inv = self.rec_invoke(Op::ReadAt(old_reg));
        }
        let payload = self.reg_read(old_reg, key)?;
        if map.seals_source(&payload, old_shard) {
            // Sealed (or already rewritten post-seal): the new routing is
            // live for this shard.
            if let Some(value) = codec::value_for_key(&payload, key) {
                return Ok((payload, Some(value)));
            }
            let new_reg = map.register_for(key);
            if new_reg == old_reg {
                return Ok((payload, None));
            }
            let forwarded = self.reg_read(new_reg, key)?;
            let value = codec::value_for_key(&forwarded, key);
            return Ok((forwarded, value));
        }
        let value = codec::value_for_key(&payload, key);
        Ok((payload, value))
    }

    // -- Live shard splits -----------------------------------------------

    /// Publishes `map` to the config register and adopts it locally.
    fn publish_map(&self, map: &ShardMap) -> Result<(), KvError> {
        self.reg_write(CONFIG_REGISTER, map.encode(), "shard-map")?;
        self.adopt(map);
        Ok(())
    }

    /// Migrates one split-source shard: reads the old home, copies every
    /// moved entry to its new home (tag-monotonically — the barrier keeps
    /// the old home frozen under us), then seals the old home under the
    /// new epoch. Idempotent: an already-sealed source is skipped, and
    /// re-running the copy rewrites the same values.
    fn migrate_source(&self, source: u16, map: &ShardMap) -> Result<(usize, bool), KvError> {
        let old_reg = data_register(source);
        // The handoff's recorded evidence: whatever the final verify read
        // returns is what the (unrecorded) copy relocates — a
        // non-tag-monotonic copy shows up against this read in the
        // stitched history.
        let mut payload = self.raw_read(old_reg, "migrate")?;
        // Copy-verify loop: a straggler write issued under the old epoch
        // (before the split was published) may still land on the source
        // register while we are copying. Pre-seal readers can observe it,
        // so the copy must carry it: after writing the movers, re-read
        // the source and redo the copy if anything changed. The epoch
        // guard on the write path keeps new stragglers from forming, so
        // the loop settles; the cap is a backstop against pathological
        // churn.
        let mut moved;
        let mut stayers;
        for _ in 0..16 {
            if map.seals_source(&payload, source) {
                return Ok((0, false)); // a previous driver already sealed it
            }
            let entries = codec::decode_entries(&payload).unwrap_or_default();
            stayers = Vec::<(String, Bytes)>::new();
            let mut movers: BTreeMap<u16, Vec<(String, Bytes)>> = BTreeMap::new();
            for (key, value) in entries {
                let dest = map.shard_of(&key);
                if dest == source {
                    stayers.push((key, value));
                } else {
                    movers.entry(dest).or_default().push((key, value));
                }
            }
            moved = 0;
            for (dest, items) in &movers {
                let refs: Vec<(&str, Bytes)> =
                    items.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
                self.reg_write(
                    data_register(*dest),
                    codec::encode_entries(&refs, map.stamp()),
                    "migrate",
                )?;
                moved += items.len();
            }
            // Verify: did a straggler land since we read the source?
            let verify = self.raw_read(old_reg, "migrate")?;
            if verify != payload {
                payload = verify;
                continue;
            }
            // The seal: after this write the new routing is live for the
            // shard — barriered writers proceed, readers forward.
            let seal = if stayers.is_empty() {
                codec::encode_seal(map.epoch)
            } else {
                let refs: Vec<(&str, Bytes)> = stayers
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.clone()))
                    .collect();
                codec::encode_entries(&refs, map.stamp())
            };
            self.reg_write(old_reg, seal, "seal")?;
            return Ok((moved, true));
        }
        Err(KvError::Reshard {
            message: format!("source shard {source} would not quiesce for its seal"),
        })
    }

    /// Runs the copy/seal phase of a published split.
    fn run_migration(&self, map: &ShardMap) -> Result<(usize, usize), KvError> {
        let mut moved = 0;
        let mut sealed = 0;
        for source in map.split_sources() {
            let (m, s) = self.migrate_source(source, map)?;
            moved += m;
            sealed += usize::from(s);
        }
        Ok((moved, sealed))
    }

    /// Grows the store to `new_shards` shards with a **live split**:
    ///
    /// 1. publish the *migrating* map for epoch `e+1` to the config
    ///    register (every client that refreshes now routes through the
    ///    split protocol);
    /// 2. for each split-source shard, copy its moved entries to their
    ///    new home registers and seal the old home (writers to those
    ///    shards wait on the write barrier exactly until their shard's
    ///    seal; readers fall back old-home-then-new-home);
    /// 3. publish the *committed* map once every source is sealed.
    ///
    /// Runs synchronously on the calling thread; concurrent `get`/`put`
    /// traffic through this client, its clones, and any client that
    /// refreshes its map keeps flowing throughout. At most one grow may
    /// drive the store at a time (operator action); a driver that died
    /// mid-split is recovered by [`finish_split`](KvClient::finish_split)
    /// — or by the next `grow`, which finishes the abandoned split before
    /// starting its own.
    ///
    /// # Errors
    ///
    /// [`KvError::Reshard`] if `new_shards` does not grow the table;
    /// [`KvError::Register`] if a migration register operation fails
    /// (the split stays published; re-drive with `finish_split`).
    pub fn grow(&self, new_shards: u16) -> Result<GrowReport, KvError> {
        let _ = self.refresh_map()?;
        let mut current = self.shard_map();
        if current.is_migrating() {
            // Finish the abandoned split first (idempotent).
            let _ = self.run_migration(&current)?;
            let committed = current.committed();
            self.publish_map(&committed)?;
            current = committed;
        }
        if new_shards <= current.shards {
            return Err(KvError::Reshard {
                message: format!(
                    "cannot grow from {} to {new_shards} shards (tables only grow)",
                    current.shards
                ),
            });
        }
        let migrating = current.split_to(new_shards);
        self.publish_map(&migrating)?;
        let (moved, sealed) = self.run_migration(&migrating)?;
        self.publish_map(&migrating.committed())?;
        Ok(GrowReport {
            epoch: migrating.epoch,
            from_shards: current.shards,
            to_shards: new_shards,
            sources_sealed: sealed,
            entries_moved: moved,
        })
    }

    /// Drives a published-but-uncommitted split (whose driver died) to
    /// completion: re-runs the idempotent copy/seal phase for every
    /// unsealed source and publishes the committed map. Returns `true` if
    /// there was a split to finish.
    ///
    /// # Errors
    ///
    /// As the migration phase of [`grow`](KvClient::grow).
    pub fn finish_split(&self) -> Result<bool, KvError> {
        let _ = self.refresh_map()?;
        let map = self.shard_map();
        if !map.is_migrating() {
            return Ok(false);
        }
        let _ = self.run_migration(&map)?;
        self.publish_map(&map.committed())?;
        Ok(true)
    }

    // -- Multi-key operations ----------------------------------------------

    /// Reads many keys through the pipelined multi-key driver (see the
    /// [module docs](self#multi-key-calls)): the keys of one register
    /// share **one** read round, every register's read is in flight at
    /// once, submitted from this one thread, and settles as its
    /// completion arrives. Results align with the input order.
    ///
    /// A key under a live lease is answered before anything is sent. A
    /// key behind the migration barrier ([`ShardMap::is_barriered`]) goes
    /// straight to the blocking [`get`](Self::get) path, which owns the
    /// old-home-then-new-home protocol; the rest of a mid-split batch
    /// stays pipelined. A read the pipeline cannot settle cleanly (node
    /// down, timeout, `Busy` collision with another client) sends its
    /// keys to that same path — a lone key carrying the already-recorded
    /// invocation — where the full failover/backoff/refresh machinery
    /// applies; a key the round's payload cannot answer (absent under a
    /// foreign epoch stamp) falls back alone.
    ///
    /// Failover state is shared through the [`HealthMemory`]: the first
    /// read to time out on a wedged node marks it, and the batch's other
    /// keys then try that node last — one patience window per batch,
    /// not one per key.
    ///
    /// # Errors
    ///
    /// Returns the first failing key's [`KvError`]; other keys still
    /// ran to completion.
    pub fn multi_get<K: AsRef<str>>(&self, keys: &[K]) -> Result<Vec<Option<Bytes>>, KvError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        self.sync_map()?;
        let mut flight = Flight::new(self);
        let mut results = vec![None; keys.len()];
        let map = flight.map;
        for (i, key) in keys.iter().enumerate() {
            let key = key.as_ref();
            let reg = map.register_for(key);
            if map.is_barriered(key) {
                flight.fallback.push((i, None));
            } else if let Some(payload) = self.lease_hit(reg, &map) {
                // Live leases answer before anything is submitted: those
                // keys never enter the pipeline at all (zero datagrams).
                let inv = self.rec_invoke(Op::ReadAt(reg));
                results[i] = Some(codec::value_for_key(&payload, key));
                self.rec_outcome(inv, Ok(OpResult::ReadValue(payload)));
            } else {
                flight.routed.push((reg, i));
            }
        }
        flight.run(&mut Batch::Gets(keys, &mut results))?;
        Ok(results
            .into_iter()
            .map(|slot| slot.expect("every index answered"))
            .collect())
    }

    /// Writes many entries through the same driver as
    /// [`multi_get`](KvClient::multi_get): the entries of one register
    /// land as **one** composite write per chunk (last write per key
    /// wins, in input order — so two colliding keys of one call both
    /// resolve afterwards, where two `put`s would displace each other,
    /// as they still do when their chunk falls back to per-key puts).
    /// A lone entry is the plain single-entry write; when no recorder is
    /// attached it is encoded **zero-copy**, straight into the op slot's
    /// reusable scratch buffer. An entry over the transport frame fails
    /// alone with [`KvError::TooLarge`] and supersedes nothing.
    ///
    /// A key behind the migration barrier goes straight to the blocking
    /// [`put`](Self::put) path, which waits the barrier out; the rest of
    /// a mid-split batch stays pipelined. An exactly-once client's
    /// entries all settle through the journaled `put`, in input order:
    /// the intent journal's durable fsync per op is a per-write barrier
    /// the pipeline has nothing to overlap with. Both routes run one op
    /// at a time on the calling thread, so N such entries cost N
    /// blocking puts back to back (no benchmark workload issues either
    /// kind of batch; the cost is unmeasured).
    ///
    /// # Errors
    ///
    /// Returns the first failing key's [`KvError`]; other keys still
    /// ran to completion.
    pub fn multi_put<K: AsRef<str>>(&self, entries: &[(K, Bytes)]) -> Result<(), KvError> {
        if entries.is_empty() {
            return Ok(());
        }
        self.sync_map()?;
        let mut flight = Flight::new(self);
        for (i, (key, _)) in entries.iter().enumerate() {
            let key = key.as_ref();
            if self.intents.is_some() || flight.map.is_barriered(key) {
                flight.fallback.push((i, None));
            } else {
                flight.routed.push((flight.map.register_for(key), i));
            }
        }
        flight.run(&mut Batch::Puts(entries))
    }
}

impl<K: AsRef<str>> Batch<'_, K> {
    fn key(&self, idx: usize) -> &str {
        match self {
            Batch::Gets(keys, _) => keys[idx].as_ref(),
            Batch::Puts(entries) => entries[idx].0.as_ref(),
        }
    }

    /// Sorts `routed` by register (then input index) and cuts it into
    /// chunks, one register operation each; returns the cut positions
    /// ([`Flight::cuts`]). A register's gets are one chunk. Its puts
    /// first lose every entry a later one of the same key supersedes,
    /// then share a bundle until the next would push it past `budget`
    /// (the largest register value the transport carries) or the
    /// bundle's entry count — an entry that alone exceeds the budget
    /// ships alone, and is refused at submission with the exact numbers
    /// (so it supersedes nothing: the key keeps its last sendable value).
    fn cut(&self, routed: &mut Vec<(RegisterId, usize)>, budget: Option<usize>) -> Vec<usize> {
        routed.sort_unstable();
        // Sized as a bundle entry: an upper bound for every chunk (a
        // lone entry encodes as the smaller plain form).
        let cost = |i: usize| match self {
            Batch::Gets(..) => 0,
            Batch::Puts(entries) => {
                codec::BUNDLE_ENTRY_OVERHEAD + entries[i].0.as_ref().len() + entries[i].1.len()
            }
        };
        let fits = |size: usize| budget.is_none_or(|b| size <= b);
        if let Batch::Puts(entries) = self {
            if routed.windows(2).any(|w| w[0].0 == w[1].0) {
                let sendable = |i: usize| fits(codec::BUNDLE_OVERHEAD + cost(i));
                let mut last = HashMap::new();
                for &(_, i) in routed.iter().filter(|&&(_, i)| sendable(i)) {
                    last.insert(entries[i].0.as_ref(), i);
                }
                routed.retain(|&(_, i)| !sendable(i) || last[entries[i].0.as_ref()] == i);
            }
        }
        let mut cuts = Vec::new();
        let (mut size, mut count) = (0, 0);
        for (pos, &(reg, i)) in routed.iter().enumerate() {
            let joins = matches!(self, Batch::Gets(..))
                || (count < codec::MAX_BUNDLE_ENTRIES && fits(size + cost(i)));
            if !(count > 0 && routed[pos - 1].0 == reg && joins) {
                cuts.push(pos);
                (size, count) = (codec::BUNDLE_OVERHEAD, 0);
            }
            size += cost(i);
            count += 1;
        }
        cuts.push(routed.len());
        cuts
    }

    /// Submits chunk `inputs` at `node` as one register operation: the
    /// invocation recorded for it (when a recorder is attached) and its
    /// ticket, or why nothing was sent.
    fn submit(
        &self,
        flight: &Flight<'_>,
        inputs: &[(RegisterId, usize)],
        node: usize,
    ) -> (Option<rmem_types::OpId>, Result<Ticket, ClientError>) {
        let (kv, fan, reg) = (flight.kv, &flight.fan, inputs[0].0);
        let Batch::Puts(entries) = self else {
            return (kv.rec_invoke(Op::ReadAt(reg)), fan.submit_read(node, reg));
        };
        let stamp = flight.map.stamp();
        // The cached value for this register is about to go stale —
        // revoke before the write leaves.
        kv.lease_revoke(reg);
        if kv.obs.handle.metrics.is_enabled() {
            kv.obs.bundle_size.record(inputs.len() as u64);
        }
        if let ([(_, idx)], None) = (inputs, &kv.recorder) {
            let (key, value) = (entries[*idx].0.as_ref(), &entries[*idx].1);
            let fill = |buf: &mut _| codec::encode_entry_into(buf, key, value, stamp);
            return (None, fan.submit_write_with(node, reg, fill));
        }
        // A bundle, or a recorded run (the invocation needs the encoded
        // payload): encode once and send the same value.
        let refs: Vec<(&str, Bytes)> = inputs
            .iter()
            .map(|&(_, i)| (entries[i].0.as_ref(), entries[i].1.clone()))
            .collect();
        let payload = codec::encode_entries(&refs, stamp);
        let inv = kv.rec_invoke(Op::WriteAt(reg, payload.clone()));
        (inv, fan.submit_write(node, reg, payload))
    }

    /// Reads the completion of in-flight chunk `done` (`inputs`): times
    /// it, counts its rounds and replies to its invocation. Returns the
    /// inputs the completion settled the op for but could not answer,
    /// which take the blocking path alone — or `None` when it did not
    /// settle the op and a lone input takes it along.
    fn complete(
        &mut self,
        flight: &Flight<'_>,
        done: &InFlightOp,
        inputs: &[(RegisterId, usize)],
        completion: Settled,
    ) -> Option<Vec<usize>> {
        let kv = flight.kv;
        match (self, completion) {
            (Batch::Gets(keys, results), (OpResult::ReadValue(payload), rounds, lease)) => {
                ClientObs::lap(done.started, &kv.obs.get_micros);
                kv.record_read(rounds);
                if let (Some(grant), Some(t0)) = (lease, done.sent) {
                    kv.lease_fill(inputs[0].0, grant, payload.clone(), &flight.map, t0);
                }
                // A key absent under a foreign stamp — the map may be
                // stale; the blocking path refreshes and re-routes.
                let mut unanswered = Vec::new();
                for &(_, i) in inputs {
                    match flight.map.read_answer(&payload, keys[i].as_ref()) {
                        Some(value) => results[i] = Some(value),
                        None => unanswered.push(i),
                    }
                }
                if inputs.len() == 1 && !unanswered.is_empty() {
                    return None; // its blocking get completes this op
                }
                kv.rec_outcome(done.inv, Ok(OpResult::ReadValue(payload)));
                Some(unanswered)
            }
            (Batch::Puts(_), (OpResult::Written, rounds, _)) => {
                ClientObs::lap(done.started, &kv.obs.put_micros);
                kv.record_write(rounds);
                kv.rec_outcome(done.inv, Ok(OpResult::Written));
                Some(Vec::new())
            }
            _ => None,
        }
    }

    /// Settles input `idx` through the blocking path, under the
    /// invocation `inv` it already recorded.
    fn settle_blocking(
        &mut self,
        kv: &KvClient,
        idx: usize,
        mut inv: Option<rmem_types::OpId>,
    ) -> Result<(), KvError> {
        match self {
            Batch::Gets(keys, results) => {
                results[idx] = Some(kv.get_settled(keys[idx].as_ref(), &mut inv)?);
                Ok(())
            }
            Batch::Puts(entries) => {
                let (key, value) = &entries[idx];
                kv.put_settled(key.as_ref(), value.clone(), &mut inv)
            }
        }
    }
}

impl<'a> Flight<'a> {
    /// An empty flight over `kv`'s current shard map.
    fn new(kv: &'a KvClient) -> Self {
        Flight {
            kv,
            fan: PipelinedClient::fan(&kv.nodes),
            map: kv.shard_map(),
            routed: Vec::new(),
            cuts: Vec::new(),
            tickets: Vec::new(),
            pending: Vec::new(),
            fallback: Vec::new(),
            crashed: false,
            first_err: None,
        }
    }

    /// The inputs chunk `chunk` carries.
    fn inputs(&self, chunk: usize) -> &[(RegisterId, usize)] {
        &self.routed[self.cuts[chunk]..self.cuts[chunk + 1]]
    }

    /// The register chunk `chunk` operates on, `None` past the last.
    fn reg_of(&self, chunk: usize) -> Option<RegisterId> {
        let start = *self.cuts.get(chunk)?;
        self.routed.get(start).map(|&(reg, _)| reg)
    }

    /// Closes chunk `chunk`'s register for the rest of the call: the
    /// chunk's inputs go to the fallback list — the first under the
    /// invocation `inv`, if the chunk still carries one — and the
    /// register's later chunks follow *behind* them. A later chunk
    /// submitted now could land before the earlier one's blocking retry
    /// — closing is what keeps same-register inputs in input order
    /// across a fallback.
    fn close(&mut self, chunk: usize, mut inv: Option<rmem_types::OpId>) {
        let start = self.cuts[chunk];
        let reg = self.routed[start].0;
        let rest = self.routed[start..].iter().take_while(|&&(r, _)| r == reg);
        self.fallback.extend(rest.map(|&(_, i)| (i, inv.take())));
    }

    /// [`close`](Self::close) after node error `source` on the operation
    /// `inv` recorded for `chunk`. A lone input's blocking retry *is*
    /// that operation and completes it; a coalesced one is no single
    /// input's, so every input records its own blocking op and the
    /// operation is answered itself — refused, or left pending for the
    /// crash idiom [`drain`](Self::drain) records when it is ambiguous.
    fn fail(&mut self, chunk: usize, mut inv: Option<rmem_types::OpId>, source: ClientError) {
        if self.inputs(chunk).len() > 1 {
            if source == ClientError::Busy {
                let key = "bundle".to_string();
                let e = KvError::Register { key, source };
                self.kv.rec_outcome(inv.take(), Err(&e));
            }
            self.crashed |= inv.take().is_some();
        }
        self.close(chunk, inv)
    }

    /// Submits chunk `chunk`. The map-equality check right before the
    /// send is the pipelined analogue of the guarded write's per-attempt
    /// epoch check: the effect lands within one event-loop dispatch of a
    /// passing check, so a stale-routed op cannot surface long after a
    /// split moved the key (stale → blocking path, which re-syncs).
    fn submit<K: AsRef<str>>(&mut self, batch: &Batch<'_, K>, mut chunk: usize) {
        let kv = self.kv;
        let reg = self.reg_of(chunk).expect("a chunk to submit");
        let node = reg.0 as usize % kv.nodes.len();
        loop {
            if kv.shard_map() != self.map {
                return self.close(chunk, None);
            }
            // The pipeline has no failover rotation — an op goes to its
            // home or to the blocking path — so the health gate is a
            // three-way choice: submit normally, submit *as the node's
            // owed probe* (this caller won it), or leave a suspect node
            // to the blocking path, whose failover tries it last instead
            // of burning the pipeline's patience on it.
            let probe = match kv.health.gate(node) {
                NodeGate::Fresh => false,
                NodeGate::NeedsProbe if kv.health.try_begin_probe(node) => true,
                _ => return self.close(chunk, None),
            };
            let started = kv.obs.op_clock();
            let sent = kv.leases.is_some().then(Instant::now);
            let (inv, submitted) = batch.submit(self, self.inputs(chunk), node);
            match submitted {
                Ok(ticket) => {
                    self.tickets.push(ticket);
                    self.pending.push(InFlightOp {
                        chunk,
                        node,
                        inv,
                        probe,
                        started,
                        sent,
                    });
                    return;
                }
                Err(ClientError::TooLarge { size, limit }) => {
                    // Client-side refusal, terminal: the value fits no
                    // node's frame, so neither retry nor fallback can
                    // help — and a won probe never exercised the node.
                    // Only a lone entry can be refused (`cut` keeps
                    // bundles inside the frame); the register's next
                    // chunk takes its turn.
                    if probe {
                        kv.health.reopen_probe(node);
                    }
                    let key = batch.key(self.inputs(chunk)[0].1).to_string();
                    let e = KvError::TooLarge { key, size, limit };
                    kv.rec_outcome(inv, Err(&e));
                    self.first_err.get_or_insert(e);
                    chunk += 1;
                    if self.reg_of(chunk) != Some(reg) {
                        return;
                    }
                }
                Err(e) => {
                    // The only other submit error is `ProcessDown` (the
                    // node's event loop is gone): mark and settle
                    // blocking, like any other node failure.
                    kv.obs.retries.inc();
                    kv.health.mark(node);
                    return self.fail(chunk, inv, e);
                }
            }
        }
    }

    /// Settles the completion of in-flight op `pos`: a clean one is read
    /// and its register's next chunk submitted; anything else (node
    /// error, `Busy`, a completion that cannot answer the op) sends the
    /// chunk to the fallback list and closes its register.
    fn settle<K: AsRef<str>>(
        &mut self,
        batch: &mut Batch<'_, K>,
        pos: usize,
        outcome: Result<Settled, ClientError>,
    ) {
        let kv = self.kv;
        self.tickets.swap_remove(pos);
        let done = self.pending.swap_remove(pos);
        let unanswered = match outcome {
            Ok(completion) => {
                kv.health.clear(done.node);
                batch.complete(self, &done, self.inputs(done.chunk), completion)
            }
            Err(e) => {
                kv.obs.retries.inc();
                if matches!(e, ClientError::TimedOut | ClientError::ProcessDown) {
                    kv.health.mark(done.node);
                } else if done.probe {
                    // Inconclusive probe (`Busy`): the node still owes
                    // one.
                    kv.health.reopen_probe(done.node);
                }
                return self.fail(done.chunk, done.inv, e);
            }
        };
        let Some(unanswered) = unanswered else {
            return self.close(done.chunk, done.inv);
        };
        self.fallback
            .extend(unanswered.into_iter().map(|i| (i, None)));
        if self.reg_of(done.chunk + 1) == self.reg_of(done.chunk) {
            self.submit(batch, done.chunk + 1);
        }
    }

    /// Drives `batch` to the end.
    ///
    /// # Errors
    ///
    /// The first terminal refusal, else the first blocking-path failure;
    /// every op still ran to completion.
    fn run<K: AsRef<str>>(mut self, batch: &mut Batch<'_, K>) -> Result<(), KvError> {
        self.launch(batch);
        self.drain(batch)
    }

    /// Cuts the routed inputs into chunks and submits every register's
    /// first; the later ones follow as their predecessors complete.
    fn launch<K: AsRef<str>>(&mut self, batch: &Batch<'_, K>) {
        self.cuts = batch.cut(&mut self.routed, self.kv.max_value_len());
        for chunk in 0..self.cuts.len() - 1 {
            if chunk == 0 || self.reg_of(chunk) != self.reg_of(chunk - 1) {
                self.submit(batch, chunk);
            }
        }
    }

    /// Settles completions until nothing is in flight, then the fallback
    /// list through the blocking path.
    fn drain<K: AsRef<str>>(mut self, batch: &mut Batch<'_, K>) -> Result<(), KvError> {
        let kv = self.kv;
        let metered = kv.obs.handle.metrics.is_enabled();
        while !self.pending.is_empty() {
            if metered {
                kv.obs.inflight.set(self.pending.len() as u64);
                kv.obs.pipeline_depth.record(self.pending.len() as u64);
            }
            let Some((pos, outcome)) = self.fan.wait_any(&self.tickets) else {
                // The patience window passed with nothing settling:
                // abandon the whole flight (late acks are counted, never
                // misdelivered) and settle blocking.
                let tickets = std::mem::take(&mut self.tickets);
                for (ticket, p) in tickets.into_iter().zip(std::mem::take(&mut self.pending)) {
                    self.fan.cancel(ticket);
                    kv.obs.retries.inc();
                    kv.health.mark(p.node);
                    self.fail(p.chunk, p.inv, ClientError::TimedOut);
                }
                break;
            };
            self.settle(batch, pos, outcome);
        }
        if metered {
            kv.obs.inflight.set(0);
        }
        // Every chunk either settled (and handed its register on) or
        // closed it, so the fallback list is all that is left: the
        // blocking path settles it in order, each op under the
        // invocation it already recorded. A coalesced op pending for
        // good is this process's crash, recordable only now that nothing
        // else of it is in flight — and a crash loses the carried
        // invocations too: every input then records a fresh one.
        if let (true, Some((recorder, pid))) = (self.crashed, &kv.recorder) {
            recorder.abandon(*pid);
        }
        for (idx, inv) in self.fallback {
            let inv = inv.filter(|_| !self.crashed);
            if let Err(e) = batch.settle_blocking(kv, idx, inv) {
                self.first_err.get_or_insert(e);
            }
        }
        self.first_err.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_core::{Persistent, SharedMemory, Transient};
    use rmem_net::LocalCluster;

    fn cluster_client(shards: u16) -> (LocalCluster, KvClient) {
        let cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
        let client = KvClient::new(cluster.clients(), ShardRouter::new(shards)).unwrap();
        (cluster, client)
    }

    /// A write returns on a majority. The one-round read fast path — and
    /// with it a lease grant — needs the read's whole quorum to agree, so
    /// a test that asserts either first lets the last replica catch up.
    fn settle() {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    #[test]
    fn put_get_roundtrip() {
        let (mut cluster, kv) = cluster_client(8);
        kv.put("alpha", b"1".to_vec()).unwrap();
        assert_eq!(kv.get("alpha").unwrap().as_deref(), Some(b"1".as_ref()));
        assert_eq!(kv.get("never-written").unwrap(), None);
        cluster.shutdown();
    }

    #[test]
    fn multi_ops_roundtrip_across_shards() {
        let (mut cluster, kv) = cluster_client(8);
        let keys = kv.router().covering_keys("k-");
        let entries: Vec<(String, Bytes)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), Bytes::from(vec![i as u8])))
            .collect();
        kv.multi_put(&entries).unwrap();
        let got = kv.multi_get(&keys).unwrap();
        for (i, value) in got.iter().enumerate() {
            assert_eq!(
                value.as_deref(),
                Some([i as u8].as_ref()),
                "key {}",
                keys[i]
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn overwrite_returns_latest() {
        let (mut cluster, kv) = cluster_client(4);
        kv.put("k", b"old".to_vec()).unwrap();
        kv.put("k", b"new".to_vec()).unwrap();
        assert_eq!(kv.get("k").unwrap().as_deref(), Some(b"new".as_ref()));
        cluster.shutdown();
    }

    #[test]
    fn colliding_key_displaces_previous_tenant() {
        // One shard: every key collides by construction. The displaced
        // key's get must report absence, not foreign bytes.
        let (mut cluster, kv) = cluster_client(1);
        kv.put("first", b"1".to_vec()).unwrap();
        kv.put("second", b"2".to_vec()).unwrap();
        assert_eq!(kv.get("second").unwrap().as_deref(), Some(b"2".as_ref()));
        assert_eq!(kv.get("first").unwrap(), None);
        cluster.shutdown();
    }

    #[test]
    fn client_fails_over_when_a_node_dies() {
        // The same KvClient (handles to all 3 nodes) must keep serving
        // every key after one node is killed — shards homed on the dead
        // node fail over to the survivors.
        let (mut cluster, kv) = cluster_client(8);
        let keys = kv.router().covering_keys("f-");
        for (i, key) in keys.iter().enumerate() {
            kv.put(key, vec![i as u8]).unwrap();
        }
        cluster.kill(rmem_types::ProcessId(1));
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                kv.get(key).unwrap().as_deref(),
                Some([i as u8].as_ref()),
                "key {key} must survive the node death"
            );
            kv.put(key, vec![i as u8 + 100]).unwrap();
        }
        cluster.shutdown();
    }

    #[test]
    fn dead_node_is_marked_and_deprioritized() {
        let (mut cluster, kv) = cluster_client(8);
        let kv = kv.with_health_cooldown(std::time::Duration::from_secs(30));
        let keys = kv.router().covering_keys("h-");
        let entries: Vec<(String, Bytes)> = keys
            .iter()
            .map(|k| (k.clone(), Bytes::from(b"v".to_vec())))
            .collect();
        kv.multi_put(&entries).unwrap();
        cluster.kill(rmem_types::ProcessId(1));
        // Every key still resolves; the batch's failovers mark node 1.
        let got = kv.multi_get(&keys).unwrap();
        assert!(got.iter().all(Option::is_some));
        assert!(
            kv.health().is_suspect(1),
            "the killed node must be marked as recently failed"
        );
        assert!(!kv.health().is_suspect(0));
        // A clone shares the same marks.
        assert!(kv.clone().health().is_suspect(1));
        // Marks are hints, not bans: with *every* node marked the store
        // still serves (suspects are tried in home order), and the node
        // that answers clears its own mark.
        cluster.restart(rmem_types::ProcessId(1)).unwrap();
        for i in 0..3 {
            kv.health().mark(i);
        }
        assert_eq!(kv.health().suspects().len(), 3);
        let got = kv.multi_get(&keys).unwrap();
        assert!(got.iter().all(Option::is_some));
        assert!(
            kv.health().suspects().len() < 3,
            "successful operations must clear the serving nodes' marks"
        );
        cluster.shutdown();
    }

    #[test]
    fn oversized_entry_fails_fast_with_a_named_error() {
        // UDP transport: 64 KB datagram ceiling. The put must fail
        // immediately with TooLarge, not retransmit into a timeout.
        let dir = std::env::temp_dir().join(format!("rmem-kv-toolarge-{}", std::process::id()));
        let mut cluster =
            LocalCluster::udp(3, SharedMemory::factory(Transient::flavor()), &dir).unwrap();
        let kv = KvClient::new(cluster.clients(), ShardRouter::new(4)).unwrap();
        assert!(kv.max_value_len().is_some());
        let started = std::time::Instant::now();
        let err = kv.put("big", vec![0u8; 80_000]).unwrap_err();
        assert!(
            matches!(err, KvError::TooLarge { ref key, size, limit }
                if key == "big" && size > limit),
            "expected TooLarge, got {err}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "TooLarge must surface fast, not after a patience window"
        );
        // A value that fits still works on the same cluster.
        kv.put("small", b"ok".to_vec()).unwrap();
        assert_eq!(kv.get("small").unwrap().as_deref(), Some(b"ok".as_ref()));
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn op_stats_count_reads_writes_and_fast_paths() {
        let (mut cluster, kv) = cluster_client(8);
        assert_eq!(kv.stats(), KvOpStats::default());
        kv.put("s", b"1".to_vec()).unwrap();
        settle();
        // Quiescent key: the fast path answers the read in one round.
        assert_eq!(kv.get("s").unwrap().as_deref(), Some(b"1".as_ref()));
        let stats = kv.stats();
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.write_rounds, 2, "transient write = query + propagate");
        assert_eq!(stats.reads, 1);
        assert_eq!(
            stats.read_rounds, 1,
            "a quiescent read must take the fast path"
        );
        assert_eq!(stats.fast_reads, 1);
        assert!(stats.mean_read_rounds() < 2.0);
        assert_eq!(stats.fast_read_fraction(), 1.0);
        assert_eq!(stats.barrier_waits, 0, "no split, no barrier");
        // Clones share the counters.
        kv.clone().get("s").unwrap();
        assert_eq!(kv.stats().reads, 2);
        cluster.shutdown();
    }

    #[test]
    fn decayed_suspect_is_probed_before_full_rotation() {
        let (mut cluster, kv) = cluster_client(8);
        let kv = kv.with_health_cooldown(std::time::Duration::from_millis(40));
        let keys = kv.router().covering_keys("p-");
        for key in &keys {
            kv.put(key, b"v".to_vec()).unwrap();
        }
        // A healthy node that got (spuriously) marked: after the decay it
        // owes one probe, the first batch issues exactly one, and the
        // success restores full rotation.
        kv.health().mark(1);
        assert_eq!(kv.health_stats().marks, 1);
        assert_eq!(kv.health().gate(1), NodeGate::Suspect);
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert_eq!(kv.health().gate(1), NodeGate::NeedsProbe);
        let got = kv.multi_get(&keys).unwrap();
        assert!(got.iter().all(Option::is_some));
        let stats = kv.health_stats();
        assert_eq!(stats.probes, 1, "exactly one probe per owed debt");
        assert_eq!(
            kv.health().gate(1),
            NodeGate::Fresh,
            "the successful probe must restore full rotation"
        );
        assert!(stats.suspects.is_empty());
        cluster.shutdown();
    }

    #[test]
    fn failed_probe_remarks_instead_of_restoring() {
        let (mut cluster, kv) = cluster_client(8);
        let kv = kv
            .with_health_cooldown(std::time::Duration::from_millis(40))
            .with_busy_retries(0)
            // Shrink patience so the dead node costs milliseconds, not 10s.
            .with_op_timeout(std::time::Duration::from_millis(300));
        let keys = kv.router().covering_keys("f-");
        for key in &keys {
            kv.put(key, b"v".to_vec()).unwrap();
        }
        cluster.kill(rmem_types::ProcessId(1));
        // The batch marks the dead node (one timeout, shared marks).
        let got = kv.multi_get(&keys).unwrap();
        assert!(got.iter().all(Option::is_some));
        assert!(kv.health_stats().marks >= 1, "the dead node must be marked");
        assert_eq!(
            kv.health_stats().probes,
            0,
            "no probe while the mark is hot"
        );
        // Mark decays, node is still dead: the next batch spends exactly
        // one probe on it and re-marks it — the probe gate is what keeps
        // the cost at one operation instead of one per key.
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert_eq!(kv.health().gate(1), NodeGate::NeedsProbe);
        let marks_before = kv.health_stats().marks;
        let got = kv.multi_get(&keys).unwrap();
        assert!(got.iter().all(Option::is_some));
        let stats = kv.health_stats();
        assert_eq!(stats.probes, 1, "one probe, not one per key");
        assert!(
            stats.marks > marks_before,
            "the failed probe must re-mark the node"
        );
        assert_eq!(kv.health().gate(1), NodeGate::Suspect);
        cluster.shutdown();
    }

    #[test]
    fn empty_node_list_is_rejected() {
        assert!(matches!(
            KvClient::new(Vec::new(), ShardRouter::new(4)),
            Err(KvError::NoNodes)
        ));
    }

    #[test]
    fn contended_register_makes_progress_without_livelock() {
        // Eight writers hammering ONE key through one node family: the
        // jittered exponential backoff must decorrelate their Busy
        // retries so every writer completes a burst well inside the
        // test budget (phase-locked retries would starve some writer
        // past its busy_retries cap and fail the put).
        let (mut cluster, kv) = cluster_client(1);
        let done: Vec<Result<(), KvError>> = std::thread::scope(|scope| {
            (0..8u8)
                .map(|w| {
                    let kv = kv.clone();
                    scope.spawn(move || {
                        for i in 0..10u8 {
                            kv.put("hot", vec![w, i])?;
                        }
                        Ok(())
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("writer thread panicked"))
                .collect()
        });
        for outcome in done {
            outcome.expect("every contended writer must finish its burst");
        }
        let stats = kv.stats();
        assert_eq!(stats.writes, 80);
        // The backoff accounting is exported: every Busy retry slept and
        // was counted (a contention-free run legitimately reports 0/0).
        assert_eq!(
            stats.backoff_micros > 0,
            stats.retries > 0,
            "retries and backoff accounting must move together: {stats:?}"
        );
        assert!(kv.get("hot").unwrap().is_some());
        cluster.shutdown();
    }

    /// Where a call's inputs are cut into register operations: one chunk
    /// per register for gets; for puts, superseded same-key entries drop
    /// out first, then a register's entries share a bundle up to the frame
    /// budget, and an entry over any budget ships alone.
    #[test]
    fn cut_coalesces_per_register_within_the_frame_budget() {
        let (a, b) = (RegisterId(1), RegisterId(2));
        let keys = ["k0", "k1", "k2", "k1", "k4"];
        let entries: Vec<(&str, Bytes)> = keys
            .iter()
            .zip([10, 10, 10, 10, 500])
            .map(|(&k, len)| (k, Bytes::from(vec![0u8; len])))
            .collect();
        let routed = vec![(b, 0), (a, 1), (a, 2), (a, 3), (a, 4)];

        let mut gets = routed.clone();
        let cuts = Batch::Gets(&keys, &mut []).cut(&mut gets, Some(0));
        assert_eq!(gets, [(a, 1), (a, 2), (a, 3), (a, 4), (b, 0)]);
        assert_eq!(
            cuts,
            [0, 4, 5],
            "one read per register, whatever the budget"
        );

        let puts = Batch::Puts(&entries);
        let mut unbounded = routed.clone();
        assert_eq!(puts.cut(&mut unbounded, None), [0, 3, 4]);
        assert_eq!(
            unbounded,
            [(a, 2), (a, 3), (a, 4), (b, 0)],
            "input 1 is superseded by input 3 (same key, later)"
        );
        // Room for two 10-byte entries per bundle, not three; the 500-byte
        // entry fits no bundle and ships alone.
        let entry = codec::BUNDLE_ENTRY_OVERHEAD + 2 + 10;
        let mut tight = routed.clone();
        let budget = codec::BUNDLE_OVERHEAD + 2 * entry;
        assert_eq!(puts.cut(&mut tight, Some(budget)), [0, 2, 3, 4]);
        // An entry no frame carries supersedes nothing: it still ships
        // (to be refused), and its key keeps the earlier, sendable value.
        let twice = [("k", entries[0].1.clone()), ("k", entries[4].1.clone())];
        let mut both = vec![(a, 0), (a, 1)];
        assert_eq!(Batch::Puts(&twice).cut(&mut both, Some(budget)), [0, 1, 2]);
        assert_eq!(both, [(a, 0), (a, 1)]);
        let mut tiny = routed;
        assert_eq!(puts.cut(&mut tiny, Some(1)), [0, 1, 2, 3, 4, 5]);
        assert_eq!(Batch::Puts(&entries).cut(&mut Vec::new(), None), [0]);
    }

    /// The driver's closed-register rule, scripted over two chunks of
    /// one register: the first comes back `Busy` (another client held the
    /// register). The second must NOT be submitted ahead of the first's
    /// blocking retry — it would land first and the call would finish
    /// with an earlier chunk owning the cell.
    #[test]
    fn a_fallen_back_chunk_closes_its_register_so_later_chunks_keep_input_order() {
        let dir = std::env::temp_dir().join(format!("rmem-kv-chunks-{}", std::process::id()));
        let mut cluster =
            LocalCluster::udp(3, SharedMemory::factory(Transient::flavor()), &dir).unwrap();
        let recorder = OpRecorder::new();
        let kv = KvClient::new(cluster.clients(), ShardRouter::new(1))
            .unwrap()
            .with_recorder(recorder.clone());
        kv.sync_map().unwrap();
        // Any two 30 KB entries fit a 64 KB datagram, three do not.
        let entries: Vec<(String, Bytes)> = (0..3u8)
            .map(|i| (format!("big{i}"), Bytes::from(vec![i; 30_000])))
            .collect();
        let mut batch = Batch::Puts(&entries);
        let mut flight = Flight::new(&kv);
        let reg = flight.map.register_for("big0");
        flight.routed = (0..3).map(|i| (reg, i)).collect();
        flight.launch(&batch);
        assert_eq!(flight.cuts, [0, 2, 3]);
        assert_eq!(flight.pending.len(), 1, "one op in flight per register");
        // Let the real completion arrive, then script `Busy` in its place.
        let (pos, _) = flight
            .fan
            .wait_any(&flight.tickets)
            .expect("the write completes");
        flight.settle(&mut batch, pos, Err(ClientError::Busy));
        assert!(
            flight.pending.is_empty(),
            "a closed register must not submit its next chunk"
        );
        let order: Vec<usize> = flight.fallback.iter().map(|&(idx, _)| idx).collect();
        assert_eq!(order, [0, 1, 2], "both chunks demote, in input order");
        flight.drain(&mut batch).unwrap();
        // The refused bundle is no input's operation: it is answered as
        // refused itself, and each input recorded its own write.
        let replies: Vec<OpResult> = recorder
            .history()
            .restrict_to_register(reg)
            .events()
            .iter()
            .filter_map(|e| match e {
                rmem_consistency::Event::Reply { result, .. } => Some(result.clone()),
                _ => None,
            })
            .collect();
        let refused = OpResult::Rejected(rmem_types::RejectReason::Busy);
        let written = OpResult::Written;
        assert_eq!(
            replies,
            [refused, written.clone(), written.clone(), written]
        );
        assert_eq!(
            kv.get("big2").unwrap().as_deref(),
            Some([2u8; 30_000].as_ref()),
            "the last input owns the cell"
        );
        assert_eq!(kv.stats().retries, 1, "the scripted Busy is counted");
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A coalesced read that fails ambiguously is recorded as a crash of
    /// the client's history process, after the flight has drained. The
    /// crash loses what the process had pending — a lone key's carried
    /// invocation included — so every retry records a fresh operation
    /// and each register's history stays well-formed.
    #[test]
    fn an_ambiguous_coalesced_op_is_a_crash_that_loses_carried_invocations() {
        let recorder = OpRecorder::new();
        let (mut cluster, kv) = cluster_client(4);
        let kv = kv.with_recorder(recorder.clone());
        let covering = kv.router().covering_keys("a-");
        for key in &covering {
            kv.put(key, b"v".to_vec()).unwrap();
        }
        // One key alone on its register, another twice on its own.
        let keys = [&covering[0], &covering[1], &covering[1]];
        let mut results = vec![None; keys.len()];
        let mut batch = Batch::Gets(&keys, &mut results);
        let mut flight = Flight::new(&kv);
        flight.routed = (0..3)
            .map(|i| (flight.map.register_for(keys[i]), i))
            .collect();
        flight.launch(&batch);
        assert_eq!(flight.pending.len(), 2);
        // Let each real completion arrive, then script a timeout instead.
        while !flight.pending.is_empty() {
            let (pos, _) = flight.fan.wait_any(&flight.tickets).expect("completes");
            flight.settle(&mut batch, pos, Err(ClientError::TimedOut));
        }
        assert!(flight.crashed);
        let carried = flight.fallback.iter().filter(|(_, inv)| inv.is_some());
        assert_eq!(carried.count(), 1, "the lone key took its invocation along");
        flight.drain(&mut batch).unwrap();
        assert_eq!(results, vec![Some(Some(Bytes::from_static(b"v"))); 3]);

        let history = recorder.history();
        assert_eq!(history.crash_count(), 1);
        assert_eq!(history.pending_ops().len(), 2, "both timed-out reads");
        for reg in history.registers() {
            let per_reg = history.restrict_to_register(reg);
            per_reg
                .well_formed()
                .unwrap_or_else(|e| panic!("{reg:?}: {e}"));
        }
        cluster.shutdown();
    }

    // -- Epochs and live splits -------------------------------------------

    #[test]
    fn grow_moves_only_split_keys_and_serves_all() {
        let (mut cluster, kv) = cluster_client(4);
        let old_router = ShardRouter::new(4);
        let keys = old_router.covering_keys("g-");
        for (i, key) in keys.iter().enumerate() {
            kv.put(key, vec![i as u8]).unwrap();
        }
        assert_eq!(kv.epoch(), 0);
        let report = kv.grow(8).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.from_shards, 4);
        assert_eq!(report.to_shards, 8);
        assert_eq!(report.sources_sealed, 4, "4 → 8 splits every old shard");
        let map = kv.shard_map();
        assert!(!map.is_migrating());
        assert_eq!(map.shards, 8);
        // Every key still serves its value, wherever it landed.
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                kv.get(key).unwrap().as_deref(),
                Some([i as u8].as_ref()),
                "key {key} must survive the split"
            );
        }
        // Writes after the split land at the new homes and read back.
        for (i, key) in keys.iter().enumerate() {
            kv.put(key, vec![i as u8 + 50]).unwrap();
            assert_eq!(
                kv.get(key).unwrap().as_deref(),
                Some([i as u8 + 50].as_ref())
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn fresh_client_syncs_on_first_op_and_refreshes_on_stamp_mismatch() {
        let (mut cluster, kv) = cluster_client(4);
        let keys = ShardRouter::new(4).covering_keys("d-");
        for key in &keys {
            kv.put(key, b"v0".to_vec()).unwrap();
        }
        kv.grow(8).unwrap();
        // Write fresh epoch-1 values so moved keys live at new homes only.
        for key in &keys {
            kv.put(key, b"v1".to_vec()).unwrap();
        }
        // A brand-new client believes the genesis 4-shard map until its
        // first operation, which syncs from the config register — so it
        // can never *write* under its constructor's guess.
        let late = KvClient::new(cluster.clients(), ShardRouter::new(4)).unwrap();
        assert_eq!(late.epoch(), 0);
        for key in &keys {
            assert_eq!(
                late.get(key).unwrap().as_deref(),
                Some(b"v1".as_ref()),
                "late client must discover the split for {key}"
            );
        }
        assert_eq!(late.epoch(), 1, "the first-op sync must adopt the map");
        // A *second* split by the original client: the late client's
        // cache is now stale again (it already synced), and the sealed
        // old homes' stamp mismatches trigger refresh-and-re-route.
        kv.grow(16).unwrap();
        for key in &keys {
            kv.put(key, b"v2".to_vec()).unwrap();
        }
        for key in &keys {
            assert_eq!(
                late.get(key).unwrap().as_deref(),
                Some(b"v2".as_ref()),
                "stamp mismatch must re-route {key} after the second split"
            );
        }
        assert_eq!(late.epoch(), 2, "the mismatch refresh must adopt epoch 2");
        assert!(late.stats().map_refreshes >= 1);
        cluster.shutdown();
    }

    #[test]
    fn grow_rejects_non_growth() {
        let (mut cluster, kv) = cluster_client(4);
        assert!(matches!(kv.grow(4), Err(KvError::Reshard { .. })));
        assert!(matches!(kv.grow(2), Err(KvError::Reshard { .. })));
        cluster.shutdown();
    }

    #[test]
    fn abandoned_split_is_finished_by_finish_split() {
        let (mut cluster, kv) = cluster_client(4);
        let keys = ShardRouter::new(4).covering_keys("a-");
        for (i, key) in keys.iter().enumerate() {
            kv.put(key, vec![i as u8]).unwrap();
        }
        // Simulate a driver that published the split and died before
        // migrating anything.
        let current = kv.shard_map();
        let migrating = current.split_to(8);
        kv.reg_write(CONFIG_REGISTER, migrating.encode(), "shard-map")
            .unwrap();
        // A second client discovers the stranded split and finishes it.
        let rescuer = KvClient::new(cluster.clients(), ShardRouter::new(4)).unwrap();
        assert!(rescuer.finish_split().unwrap());
        assert!(!rescuer.shard_map().is_migrating());
        assert_eq!(rescuer.shard_map().shards, 8);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                rescuer.get(key).unwrap().as_deref(),
                Some([i as u8].as_ref())
            );
        }
        assert!(!rescuer.finish_split().unwrap(), "nothing left to finish");
        cluster.shutdown();
    }

    #[test]
    fn sequential_grows_stack_epochs() {
        let (mut cluster, kv) = cluster_client(2);
        let keys = ShardRouter::new(2).covering_keys("s-");
        for key in &keys {
            kv.put(key, b"x".to_vec()).unwrap();
        }
        kv.grow(4).unwrap();
        kv.grow(9).unwrap();
        assert_eq!(kv.epoch(), 2);
        assert_eq!(kv.shard_map().shards, 9);
        for key in &keys {
            assert_eq!(kv.get(key).unwrap().as_deref(), Some(b"x".as_ref()));
        }
        cluster.shutdown();
    }

    #[test]
    fn fresh_client_first_write_cannot_land_behind_a_foreign_split() {
        // Client B grows the store; a brand-new client A (separate
        // KvClient, never synced) writes a moved key. Without the
        // first-op sync the write would land on the sealed old home and
        // be lost to every up-to-date reader.
        let (mut cluster, kv) = cluster_client(4);
        let keys = ShardRouter::new(4).covering_keys("x-");
        for key in &keys {
            kv.put(key, b"old".to_vec()).unwrap();
        }
        kv.grow(8).unwrap();
        let fresh = KvClient::new(cluster.clients(), ShardRouter::new(4)).unwrap();
        assert_eq!(fresh.epoch(), 0, "constructor does not contact the cluster");
        for key in &keys {
            fresh.put(key, b"new".to_vec()).unwrap();
        }
        assert_eq!(fresh.epoch(), 1, "the first put must sync the map");
        // The up-to-date client observes every write.
        for key in &keys {
            assert_eq!(
                kv.get(key).unwrap().as_deref(),
                Some(b"new".as_ref()),
                "{key}: a fresh client's write must be visible at the new routing"
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn recorded_clone_assigns_distinct_pids() {
        let (mut cluster, kv) = cluster_client(4);
        let recorder = OpRecorder::new();
        let kv = kv.with_recorder(recorder.clone());
        let other = kv.recorded_clone();
        kv.put("r", b"1".to_vec()).unwrap();
        other.get("r").unwrap();
        let history = recorder.history();
        let pids: std::collections::BTreeSet<_> = history
            .events()
            .iter()
            .filter_map(|e| match e {
                rmem_consistency::Event::Invoke { op, .. } => Some(op.pid),
                _ => None,
            })
            .collect();
        assert_eq!(pids.len(), 2, "two recording clients, two processes");
        cluster.shutdown();
    }

    /// A cluster whose flavor grants tag leases, paired with a
    /// lease-caching client.
    fn leased_cluster_client(lease_micros: u64, shards: u16) -> (LocalCluster, KvClient) {
        let cluster = LocalCluster::channel(
            3,
            SharedMemory::factory(Persistent::flavor().with_lease(lease_micros)),
        )
        .unwrap();
        let client = KvClient::new(cluster.clients(), ShardRouter::new(shards))
            .unwrap()
            .with_lease_cache(16);
        (cluster, client)
    }

    #[test]
    fn hot_key_reads_are_served_by_the_lease_cache() {
        let (mut cluster, kv) = leased_cluster_client(2_000_000, 8);
        kv.put("hot", b"v1".to_vec()).unwrap();
        settle();
        // The first read pays its quorum round and harvests the grant…
        assert_eq!(kv.get("hot").unwrap().as_deref(), Some(b"v1".as_ref()));
        // …the rest are zero-round, zero-datagram hits.
        for _ in 0..8 {
            assert_eq!(kv.get("hot").unwrap().as_deref(), Some(b"v1".as_ref()));
        }
        let stats = kv.stats();
        assert!(stats.lease_hits >= 8, "hits missing: {stats:?}");
        assert!(
            stats.mean_read_rounds() < 1.0,
            "leased reads must push mean rounds below one: {stats:?}"
        );
        cluster.shutdown();
    }

    #[test]
    fn own_write_revokes_the_lease_and_the_next_read_is_fresh() {
        let (mut cluster, kv) = leased_cluster_client(500_000, 8);
        kv.put("k", b"v1".to_vec()).unwrap();
        settle();
        assert_eq!(kv.get("k").unwrap().as_deref(), Some(b"v1".as_ref()));
        assert_eq!(kv.get("k").unwrap().as_deref(), Some(b"v1".as_ref()));
        assert!(kv.stats().lease_hits >= 1);
        // The put revokes this client's lease before the write leaves
        // (the replicas additionally fence it behind every *other*
        // client's outstanding grant), so the next read returns v2.
        kv.put("k", b"v2".to_vec()).unwrap();
        assert_eq!(kv.get("k").unwrap().as_deref(), Some(b"v2".as_ref()));
        assert!(kv.stats().lease_revocations >= 1, "{:?}", kv.stats());
        cluster.shutdown();
    }

    #[test]
    fn multi_get_serves_hot_keys_from_leases() {
        let (mut cluster, kv) = leased_cluster_client(2_000_000, 8);
        let keys = ["a", "b", "c", "d"];
        for key in keys {
            kv.put(key, key.as_bytes().to_vec()).unwrap();
        }
        settle();
        // First batch fills the cache through the pipeline…
        let first = kv.multi_get(&keys).unwrap();
        // …second batch answers entirely from leases.
        let before = kv.stats();
        let second = kv.multi_get(&keys).unwrap();
        assert_eq!(first, second);
        for (key, value) in keys.iter().zip(&second) {
            assert_eq!(value.as_deref(), Some(key.as_bytes()));
        }
        let after = kv.stats();
        assert!(
            after.lease_hits >= before.lease_hits + keys.len() as u64,
            "batch hits missing: {before:?} -> {after:?}"
        );
        cluster.shutdown();
    }

    #[test]
    fn unleased_cluster_never_fills_the_cache() {
        let (mut cluster, kv) = cluster_client(8);
        let kv = kv.with_lease_cache(16);
        kv.put("k", b"v".to_vec()).unwrap();
        for _ in 0..4 {
            assert_eq!(kv.get("k").unwrap().as_deref(), Some(b"v".as_ref()));
        }
        let stats = kv.stats();
        assert_eq!(stats.lease_hits, 0, "no grants, no hits: {stats:?}");
        assert!(stats.lease_misses >= 4);
        assert!(stats.mean_read_rounds() >= 1.0);
        cluster.shutdown();
    }

    #[test]
    fn a_grow_revokes_every_lease() {
        let (mut cluster, kv) = leased_cluster_client(100_000, 4);
        kv.put("x", b"1".to_vec()).unwrap();
        kv.put("y", b"2".to_vec()).unwrap();
        settle();
        let _ = kv.get("x").unwrap();
        let _ = kv.get("y").unwrap();
        let before = kv.stats();
        kv.grow(8).unwrap();
        let after = kv.stats();
        assert!(
            after.lease_revocations > before.lease_revocations,
            "the epoch change must drop cached leases: {before:?} -> {after:?}"
        );
        // Post-split reads are correct (and refill under the new stamp).
        assert_eq!(kv.get("x").unwrap().as_deref(), Some(b"1".as_ref()));
        assert_eq!(kv.get("y").unwrap().as_deref(), Some(b"2".as_ref()));
        cluster.shutdown();
    }
}
