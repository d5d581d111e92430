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
//! # Operations
//!
//! Every register operation this client performs — a `get`, a `put`, the
//! chunks of a `multi_get`/`multi_put`, a shard-map read, a migration
//! copy — is driven by **one event loop on the calling thread**
//! ([`KvClient::get`] is `multi_get` of one key). The loop's world is the
//! seam ([`World`]): it submits, waits and reads the time there and
//! nowhere else, so the same loop runs on the real runtime and inside a
//! seeded simulation ([`crate::host`]). Its rules, stated once:
//!
//! * **One operation per (register, chunk), one in flight per register.**
//!   A call's gets on one register are answered from one read round; its
//!   puts land as one composite write (a bundle, see [`crate::codec`];
//!   last write per key wins, in input order), cut into chunks only where
//!   a bundle would outgrow the transport frame
//!   ([`KvClient::max_value_len`]) or the bundle's entry count. A
//!   register's chunks run one at a time in input order (the paper's
//!   §III-A well-formedness rule, per register); every register's current
//!   chunk is in flight at once.
//! * **Failover keeps the invocation.** Every node serves every register.
//!   A chunk tries its register's home node first and the others after it
//!   — nodes the shared [`HealthMemory`] holds suspect last, a node owing
//!   a probe first for the one operation that wins it — and a retry at
//!   the next node is the *same* operation: same payload, same recorded
//!   invocation, still the register's one chunk in flight.
//! * **Deadlines, not sleeps.** A barriered put polls for its seal on an
//!   escalating deadline of the one loop, so the call's other registers
//!   keep completing meanwhile. (Another client racing the register
//!   through the same node costs nothing here: the node queues the
//!   operation behind that client's.)
//! * **A moved map starts the next wave.** A write is checked against the
//!   shared shard map right before every send (so it cannot land long
//!   after a split moved its key); a read notices a foreign epoch stamp
//!   in its answer. Either way the affected inputs are routed and cut
//!   afresh under the new map in the call's next wave, at most
//!   `MAP_RETRIES` times; the last wave writes unguarded.
//! * **One crash record.** An operation whose every node failed, at least
//!   one of them after the request left, may or may not have taken
//!   effect: its invocation stays pending, whatever else its register had
//!   queued is not issued, and the call records the model's
//!   crash/recovery idiom **once**, after its last wave has drained and
//!   nothing of this process is in flight. An operation no node accepted
//!   is recorded as refused.
//!
//! A key behind the migration barrier is a chunk of its own, sequenced
//! under its *old* home: a put polls it for the seal and then writes the
//! new home; a get reads it and, when it is sealed without the key, the
//! new home. An exactly-once client's put is journal → one tagged input →
//! tombstone, and its `multi_put` a loop of those.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use rmem_net::pipeline::Settled;
use rmem_net::{Client, ClientError, Ticket, TraceCtx};
use rmem_obs::{
    Counter, EventKind, FlightEvent, FlightRecorder, Histogram, MetricsSnapshot, ObsHandle,
};
use rmem_types::{Op, OpId, OpResult, ProcessId, RegisterId, RejectReason, Value};

use rmem_storage::StorageError;
use rmem_types::OpTag;

use crate::codec;
use crate::crash::Crash;
use crate::epoch::{data_register, ShardMap, CONFIG_REGISTER};
use crate::exactly_once::ExactlyOnce;
use crate::health::{HealthMemory, NodeGate};
use crate::recorder::OpRecorder;
use crate::router::ShardRouter;
use crate::seam::{Wire, World};

/// How many times a call re-routes its inputs under a moved shard map
/// before it stops chasing epochs.
const MAP_RETRIES: usize = 6;

/// The recorded answer to an invocation nothing of which took effect (the
/// checkers ignore refused operations).
const REFUSED: OpResult = OpResult::Rejected(RejectReason::NotAccepted);

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
    lease_hits: Arc<Counter>,
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
            lease_hits: m.counter("kv.lease_hits"),
            inflight: m.gauge("kv.inflight"),
            pipeline_depth: m.histogram("kv.pipeline_depth"),
            bundle_size: m.histogram("kv.bundle_size"),
            get_micros: m.histogram("kv.get_micros"),
            put_micros: m.histogram("kv.put_micros"),
            handle,
        }
    }

    /// The time, for latency histograms; skipped when observability is
    /// disabled (the bench baseline).
    #[inline]
    fn op_clock(&self, world: &dyn World) -> Option<Duration> {
        self.handle.metrics.is_enabled().then(|| world.now())
    }

    /// Records the time since `started` (an [`op_clock`](Self::op_clock)
    /// reading) into latency histogram `hist`.
    fn lap(started: Option<Duration>, world: &dyn World, hist: &Histogram) {
        if let Some(started) = started {
            hist.record((world.now() - started).as_micros() as u64);
        }
    }
}

/// One chunk of a call being driven: the register operation it currently
/// has in flight at some node, or is parked on until a deadline.
struct Active {
    /// Index into [`Flight::cuts`]. When the chunk ends, its register's
    /// next chunk starts.
    chunk: usize,
    /// The nodes in the order this operation tries them
    /// ([`KvClient::rotation`]; empty until its first submission) and the
    /// position of the current attempt.
    order: Vec<usize>,
    at: usize,
    /// Whether `order[0]` is that node's owed health probe, won by this
    /// operation: an inconclusive attempt hands the debt back.
    probe: bool,
    /// The recorded invocation. It stays with the operation from node to
    /// node: a retry never opens a second recorded operation.
    inv: Option<OpId>,
    /// Whether an attempt left this client and ended without an answer
    /// (timeout, node death): the operation may have taken effect.
    ambiguous: bool,
    /// The latest node failure — the call's error if the rotation runs
    /// out.
    last_err: Option<ClientError>,
    /// Behind the migration barrier: a put's seal polls so far.
    polls: u32,
    /// Behind the migration barrier: the old home is done with — sealed
    /// (put) or forwarding (get) — and the operation addresses the new.
    forward: bool,
    /// Latency clock opened when the chunk started (when metrics are on).
    started: Option<Duration>,
}

/// The answer to one `get`: the payload that answered it (the resolver's
/// evidence) and the key's value in it.
type Answer = (Value, Option<Bytes>);

/// The inputs of a call — a `multi_get`'s keys with its answer slots (one
/// per key), a `multi_put`'s entries (under the op tag of an exactly-once
/// put, which is a call of one entry), or one raw register operation of
/// the config/migration traffic. Its methods are all the kinds differ in:
/// where one register's inputs are cut into chunks, how one chunk is
/// submitted and how its completion is read. [`Flight`], the shared
/// driver, asks which kind it is driving only to know whether sends are
/// guarded by the shard map.
enum Batch<'a, K> {
    Gets(&'a [K], &'a mut [Option<Answer>]),
    Puts(&'a [(K, Bytes)], Option<OpTag>),
    Raw {
        reg: RegisterId,
        /// Names the operation in errors.
        label: &'a str,
        /// The payload of a write; `None` reads.
        write: Option<Value>,
        /// Whether the operation is recorded (see [`KvClient::raw_read`]).
        recorded: bool,
        /// Where to leave the payload read (⊥ for a write) and the rounds
        /// the operation took.
        done: &'a mut Option<(Value, u32)>,
    },
}

/// What a completion leaves of its chunk.
enum Next {
    /// The chunk has ended.
    End(Result<(), KvError>),
    /// Its next register operation goes out now.
    Step,
    /// Its next register operation goes out after this long.
    Park(Duration),
}

/// One call in flight: the driver behind every register operation of
/// [`KvClient`] (see the [module docs](self#operations)) — one thread,
/// over the client family's one [`World`].
struct Flight<'a> {
    kv: &'a KvClient,
    /// The map the current wave was routed under (checked before every
    /// guarded send) and its split sources.
    map: ShardMap,
    sources: BTreeSet<u16>,
    /// Whether sends are checked against the shared map: the puts of
    /// every wave but the last.
    guarded: bool,
    /// The wave's inputs as `(register, input index)`, sorted, so one
    /// register's inputs are contiguous and in input order.
    routed: Vec<(RegisterId, usize)>,
    /// Chunk `c` — one register operation, or behind the barrier one
    /// key's few — carries the inputs `routed[cuts[c]..cuts[c + 1]]`, all
    /// of one register. A register's chunks run one after the other, in
    /// input order (§III-A per-register sequentiality): chunk `c + 1`
    /// starts when `c` ends, if it is on the same register — whichever
    /// node either of them ends up on.
    cuts: Vec<usize>,
    /// The chunks with an operation in flight: tickets, with their
    /// bookkeeping in a twin vector (so the ticket slice feeds `wait_any`
    /// directly).
    tickets: Vec<Ticket>,
    pending: Vec<Active>,
    /// The chunks waiting out a seal poll's deadline.
    parked: Vec<(Duration, Active)>,
    /// Inputs for the next wave: the map moved under them.
    next: Vec<usize>,
    /// Some operation ended pending: [`run`](Self::run) records the crash.
    ambiguous: bool,
    /// The call's first failure.
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
    /// Failed node attempts that made an operation retry: failover hops
    /// to the next node.
    pub retries: u64,
    /// Register reads answered in **zero rounds**: the node the read
    /// went to (its register's home, unless that is down) held a live tag
    /// lease and served its value without asking anyone — one hop from
    /// the client, no quorum round (counted into `reads` with 0 rounds).
    /// Always 0 unless the cluster's flavor leases
    /// (`Flavor::with_lease`); the client holds no lease of its own.
    pub lease_hits: u64,
    /// Always 0: there is no client-held lease left to revoke. The frozen
    /// `benchmark/` package reads the field by name; it goes with that
    /// package's next PR.
    pub lease_revocations: u64,
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
/// Every call runs through one driver that keeps every shard's operation
/// in flight **at once, from the calling thread** — operations on
/// different shards touch different registers and are independent by
/// locality, so the only serialization kept is the per-register input
/// order (see the [module docs](self#operations)).
///
/// Reads and writes inherit the register emulation's guarantees: with a
/// majority of nodes up, every operation terminates, and per-key histories
/// satisfy the configured flavor's atomicity criterion — across epochs,
/// certified by
/// [`certify_per_key_epoch_path`](crate::certify_per_key_epoch_path).
#[derive(Debug, Clone)]
pub struct KvClient {
    /// The real runtime's node handles, which carry the trace context;
    /// empty for a client over a world of its caller's
    /// ([`over`](KvClient::over)).
    nodes: Vec<Client>,
    /// Everything the driver asks of the outside (clones share it; over
    /// `nodes`, rebuilt whenever they are).
    world: Arc<dyn World>,
    /// How long a call waits with nothing settling before what it has in
    /// flight fails over.
    patience: Duration,
    map: Arc<Mutex<ShardMap>>,
    /// Whether this client family has read the config register at least
    /// once — until then the cache is only the constructor's guess, and
    /// a *write* issued under it could silently land behind another
    /// client's already-committed split (reads self-heal via stamp
    /// mismatches; writes are blind). The first operation syncs.
    synced: Arc<std::sync::atomic::AtomicBool>,
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
    /// The output budget its world spends, attached by
    /// [`with_crash`](KvClient::with_crash) and kept over every rebuild
    /// of the world.
    crash: Option<Crash>,
}

/// A health memory for `world`'s nodes, aging its marks on `world`'s clock.
fn health_over(world: &Arc<dyn World>, cooldown: Duration) -> Arc<HealthMemory> {
    let clock = world.clone();
    let health = HealthMemory::new(world.nodes(), cooldown, move || clock.now());
    Arc::new(health)
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
        let mut kv = KvClient::over(Arc::new(Wire::new(&nodes)), router);
        kv.nodes = nodes;
        Ok(kv.rewire_trace())
    }

    /// A client over `world` — every effect of every operation goes
    /// through it (see [`crate::seam`]). [`new`](KvClient::new) is this
    /// over the real runtime; [`crate::host`] hands out worlds that run
    /// the client inside a seeded simulation.
    pub fn over(world: Arc<dyn World>, router: ShardRouter) -> Self {
        KvClient {
            nodes: Vec::new(),
            map: Arc::new(Mutex::new(ShardMap::genesis(router.shards()))),
            synced: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            barrier_polls: 512,
            health: health_over(&world, Duration::from_secs(5)),
            world,
            patience: Duration::from_secs(10),
            obs: Arc::new(ClientObs::new(ObsHandle::new())),
            trace: None,
            recorder: None,
            intents: None,
            crash: None,
        }
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
    /// handle, attaches it to every node handle and rebuilds the world
    /// over them: enabled handle → traced family recording into the
    /// handle's flight ring; disabled → untraced (zero wire or ring
    /// overhead). Tracing is the wire's: a client with no node handles
    /// keeps its world. An attached [`Crash`] wraps the rebuilt world.
    fn rewire_trace(mut self) -> Self {
        if self.nodes.is_empty() {
            return self;
        }
        let flight = &self.obs.handle.flight;
        self.trace = flight
            .is_enabled()
            .then(|| Arc::new(TraceCtx::new(flight.clone())));
        let trace = &self.trace;
        self.nodes = (self.nodes.into_iter())
            .map(|n| n.with_trace(trace.clone()))
            .collect();
        self.world = Arc::new(Wire::new(&self.nodes));
        if let Some(crash) = &self.crash {
            self.world = crash.world(self.world.clone());
        }
        self
    }

    /// This family's client-side events as a stitcher input: combine with
    /// the cluster's node dumps (`LocalCluster::ring_dumps`) and hand to
    /// [`rmem_obs::trace::stitch`]. `None` when tracing is off.
    pub fn trace_ring_dump(&self) -> Option<rmem_obs::trace::RingDump> {
        self.trace
            .as_ref()
            .map(|t| rmem_obs::trace::RingDump::client(t.client_id(), t.ring().dump()))
    }

    /// Does nothing. It used to arm a client-side cache of tag-lease
    /// grants; leases now live at the coordinator only (a zero-round read
    /// is [`KvOpStats::lease_hits`]), because nothing could reach a
    /// client to revoke its grant and every put paid a lease term for
    /// that. Kept because the frozen `benchmark/` package calls it; it
    /// goes with that package's next PR.
    pub fn with_lease_cache(self, _capacity: usize) -> Self {
        self
    }

    /// Replaces the bounded-wait cap of the migration write barrier
    /// (default 512 seal polls on escalating deadlines): a barriered
    /// write that exhausts the cap fails with [`KvError::Barrier`]
    /// instead of waiting forever.
    pub fn with_barrier_polls(mut self, barrier_polls: u32) -> Self {
        assert!(barrier_polls > 0, "the barrier needs at least one poll");
        self.barrier_polls = barrier_polls;
        self
    }

    /// Replaces the patience window (default 10 s): how long a call waits
    /// with nothing settling before the operations it has in flight fail
    /// over to their next nodes — on the world's clock, so virtual
    /// patience for a hosted client.
    pub fn with_op_timeout(mut self, timeout: Duration) -> Self {
        self.patience = timeout;
        self
    }

    /// Replaces the cluster-health mark cooldown (default 5 s): how long a
    /// node that timed out is deprioritized before failover tries it first
    /// again. Resets the marks.
    pub fn with_health_cooldown(mut self, cooldown: Duration) -> Self {
        self.health = health_over(&self.world, cooldown);
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

    /// This client with every submission spending `crash`'s output budget
    /// (see [`crate::crash`]; its journal spends it through
    /// [`Crash::storage`]). It gets a health memory of its own, so what a
    /// dead client's refused submissions mark dies with it. The budget
    /// stays attached when [`with_obs`](KvClient::with_obs) rebuilds the
    /// world.
    ///
    /// # Panics
    ///
    /// Panics if a budget is already attached.
    pub fn with_crash(mut self, crash: &Crash) -> Self {
        assert!(self.crash.is_none(), "one crash budget per client");
        self.crash = Some(crash.clone());
        self.world = crash.world(self.world);
        self.health = health_over(&self.world, self.health.cooldown());
        self
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
            lease_hits: self.obs.lease_hits.get(),
            lease_revocations: 0,
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
        if rounds == 0 {
            self.obs.lease_hits.inc();
        }
    }

    fn record_write(&self, rounds: u32) {
        self.obs.writes.inc();
        self.obs.write_rounds.add(u64::from(rounds));
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
    /// transport is bounded.
    pub fn max_value_len(&self) -> Option<usize> {
        self.world.max_value_len()
    }

    /// Adopts `new` into the shared cache if it advances the current map
    /// (newer epoch, or same epoch moving from migrating to committed).
    fn adopt(&self, new: &ShardMap) {
        let mut cur = self.map.lock().expect("shard map lock");
        if new.epoch > cur.epoch
            || (new.epoch == cur.epoch && cur.is_migrating() && !new.is_migrating())
        {
            *cur = *new;
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
        let (payload, rounds) = self.raw(CONFIG_REGISTER, None, "shard-map", false)?;
        self.record_read(rounds);
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
        let (payload, _) = self.raw(CONFIG_REGISTER, None, "shard-map", false)?;
        if let Some(published) = ShardMap::decode(&payload) {
            self.adopt(&published);
        }
        self.synced.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// The order in which an operation on `reg` tries the nodes. Every
    /// node can serve every register, so as long as a majority is up the
    /// operation terminates through *some* handle: the register's home
    /// node first and the others after it — except that nodes the shared
    /// [`HealthMemory`] marks as recently failed go *last* (never
    /// skipped), so a wedged node costs a call (and every clone's later
    /// operations) one patience window, not one per key. A node whose
    /// mark has decayed must first serve one **probe** operation before
    /// rejoining full rotation: exactly one caller wins the probe (the
    /// returned flag) and routes its operation through that node, first;
    /// everyone else keeps trying it last until the probe clears it.
    fn rotation(&self, reg: RegisterId) -> (Vec<usize>, bool) {
        let n = self.world.nodes();
        let home = reg.0 as usize % n;
        let (mut order, mut suspect, mut probe) = (Vec::with_capacity(n), Vec::new(), false);
        for i in (0..n).map(|o| (home + o) % n) {
            match self.health.gate(i) {
                NodeGate::Fresh => order.push(i),
                // The probe winner's operation *is* the probe: the node
                // goes first so this operation definitely exercises it
                // (success clears, failure re-marks).
                NodeGate::NeedsProbe if !probe && self.health.try_begin_probe(i) => {
                    probe = true;
                    order.insert(0, i);
                }
                _ => suspect.push(i),
            }
        }
        order.extend(suspect);
        (order, probe)
    }

    /// Records a store-operation invocation (one per chunk, however many
    /// node attempts and register rounds serve it).
    fn rec_invoke(&self, op: Op) -> Option<OpId> {
        self.recorder.as_ref().map(|(r, pid)| r.invoke(*pid, op))
    }

    /// Records the definite answer to the pending invocation `inv`.
    fn rec_reply(&self, inv: Option<OpId>, result: OpResult) {
        if let (Some((recorder, _)), Some(inv)) = (&self.recorder, inv) {
            recorder.reply(inv, result);
        }
    }

    /// Drives `batch` to its end through a [`Flight`] of its own.
    fn fly<K: AsRef<str>>(&self, batch: &mut Batch<'_, K>) -> Result<(), KvError> {
        self.sync_map()?;
        Flight::new(self).run(batch)
    }

    /// One raw register operation on `reg` — a write of `write`, else a
    /// read — through the driver: unrouted, unguarded, and recorded only
    /// on request. Returns the payload read (⊥ for a write) and the
    /// quorum rounds the operation took.
    ///
    /// The config/migration traffic is **unrecorded**: recording happens
    /// at the store-operation level, so map refreshes never masquerade as
    /// store operations — and notably the migration *data* writes (the
    /// copy to the new home and the seal of the old one) must never be
    /// recorded: at the store level they relocate a value rather than
    /// write one, and recording them would let a buggy
    /// (non-tag-monotonic) copy read as a legitimate write, hiding
    /// exactly the lost updates the cross-epoch certifier exists to
    /// catch.
    fn raw(
        &self,
        reg: RegisterId,
        write: Option<Value>,
        label: &str,
        recorded: bool,
    ) -> Result<(Value, u32), KvError> {
        let mut done = None;
        let mut batch: Batch<'_, &str> = Batch::Raw {
            reg,
            label,
            write,
            recorded,
            done: &mut done,
        };
        Flight::new(self).run(&mut batch)?;
        Ok(done.expect("a raw flight that did not fail completed"))
    }

    /// One unrecorded register write (see [`raw`](Self::raw)).
    fn reg_write(&self, reg: RegisterId, payload: Value, label: &str) -> Result<(), KvError> {
        let (_, rounds) = self.raw(reg, Some(payload), label, false)?;
        self.record_write(rounds);
        Ok(())
    }

    /// One register **read** returning the raw payload (⊥, a single
    /// entry, a bundle, or a migration seal), recorded as one operation;
    /// `label` names the operation in errors. The migration driver's
    /// handoff evidence, and how tests inspect a cell.
    ///
    /// # Errors
    ///
    /// As for [`get`](Self::get).
    pub fn raw_read(&self, reg: RegisterId, label: &str) -> Result<Value, KvError> {
        self.sync_map()?;
        let (payload, rounds) = self.raw(reg, None, label, true)?;
        self.record_read(rounds);
        Ok(payload)
    }

    /// Stores `value` under `key`, returning once the write is durable at
    /// a majority: a call of one entry through the driver (see the
    /// [module docs](self#operations)) — [`multi_put`](Self::multi_put)
    /// of `[(key, value)]`. During a live split of the key's source
    /// shard, the write first waits on the migration **write barrier**
    /// (bounded by [`with_barrier_polls`]). An exactly-once client
    /// journals the intent durably first, writes under a client-assigned
    /// op tag and tombstones on ack.
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
    /// [`KvError::Register`] if every node failed the register operation.
    pub fn put(&self, key: &str, value: impl Into<Bytes>) -> Result<(), KvError> {
        if self.intents.is_some() {
            self.put_exactly_once(key, value.into())
        } else {
            self.put_inner(key, value.into(), None)
        }
    }

    /// A call of the one entry `key → value`. With `Some(tag)` every
    /// payload it lands carries the op-id frame — retries across nodes
    /// and epoch re-routes re-encode under the *same* tag, which is what
    /// lets the exactly-once certifier collapse them into one logical
    /// write.
    pub(crate) fn put_inner(
        &self,
        key: &str,
        value: Bytes,
        tag: Option<OpTag>,
    ) -> Result<(), KvError> {
        self.fly(&mut Batch::Puts(&[(key, value)], tag))
    }

    /// Reads the value stored under `key` (`None` if absent — never
    /// written, or displaced by a shard-colliding key): a call of one key
    /// through the driver — [`multi_get`](Self::multi_get) of `[key]`.
    /// During a live split of the key's source shard the read goes
    /// **old-home-then-new-home**; an answer whose epoch stamp does not
    /// match the cached map triggers a map refresh and a re-routed wave.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Register`] if every node failed a register
    /// operation.
    pub fn get(&self, key: &str) -> Result<Option<Bytes>, KvError> {
        self.get_inner(key).map(|(_, value)| value)
    }

    /// [`get`](Self::get) with the answering payload, the resolver's
    /// evidence.
    pub(crate) fn get_inner(&self, key: &str) -> Result<Answer, KvError> {
        let mut slot = [None];
        self.fly(&mut Batch::Gets(&[key], &mut slot))?;
        let [answer] = slot;
        Ok(answer.expect("a call that did not fail answered its key"))
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

    /// Reads many keys in one call through the driver (see the
    /// [module docs](self#operations)): the keys of one register share
    /// **one** read round, every register's read is in flight at once,
    /// submitted from this one thread, and settles as its completion
    /// arrives. Results align with the input order.
    ///
    /// A key behind the migration barrier ([`ShardMap::is_barriered`]) is a
    /// read of its own, old home then new home. A read whose node fails
    /// (down, timeout, a refusal) moves to the register's next node as
    /// the same operation; a key the round's payload cannot answer
    /// (absent under a foreign epoch stamp) is read again under the
    /// refreshed map.
    ///
    /// Failover state is shared through the [`HealthMemory`]: the first
    /// read to time out on a wedged node marks it, and the other reads
    /// then try that node last — one patience window per call, not one
    /// per key.
    ///
    /// # Errors
    ///
    /// Returns the first failing register's [`KvError`]; other keys still
    /// ran to completion.
    pub fn multi_get<K: AsRef<str>>(&self, keys: &[K]) -> Result<Vec<Option<Bytes>>, KvError> {
        let mut answers = vec![None; keys.len()];
        if !keys.is_empty() {
            self.fly(&mut Batch::Gets(keys, &mut answers))?;
        }
        Ok(answers
            .into_iter()
            .map(|slot| slot.expect("a call that did not fail answered every key").1)
            .collect())
    }

    /// Writes many entries in one call through the same driver as
    /// [`multi_get`](KvClient::multi_get): the entries of one register
    /// land as **one** composite write per chunk (last write per key
    /// wins, in input order — so two colliding keys of one call both
    /// resolve afterwards, where two `put`s would displace each other).
    /// A lone entry is the plain single-entry write; when no recorder is
    /// attached it is encoded **zero-copy**, straight into the op slot's
    /// reusable scratch buffer. An entry over the transport frame fails
    /// alone with [`KvError::TooLarge`] and supersedes nothing.
    ///
    /// A key behind the migration barrier is a write of its own, which
    /// polls for its shard's seal on deadlines of the same loop: the rest
    /// of a mid-split call completes meanwhile. An exactly-once client's
    /// entries are journaled `put`s, in input order: the intent journal's
    /// durable fsync per op is a per-write barrier the pipeline has
    /// nothing to overlap with.
    ///
    /// # Errors
    ///
    /// Returns the first failing register's [`KvError`]; other entries
    /// still ran to completion.
    pub fn multi_put<K: AsRef<str>>(&self, entries: &[(K, Bytes)]) -> Result<(), KvError> {
        if self.intents.is_none() {
            return match entries {
                [] => Ok(()),
                _ => self.fly(&mut Batch::Puts(entries, None)),
            };
        }
        let mut first = Ok(());
        for (key, value) in entries {
            first = first.and(self.put(key.as_ref(), value.clone()));
        }
        first
    }
}

impl<K: AsRef<str>> Batch<'_, K> {
    fn len(&self) -> usize {
        match self {
            Batch::Gets(keys, _) => keys.len(),
            Batch::Puts(entries, _) => entries.len(),
            Batch::Raw { .. } => 1,
        }
    }

    /// Input `idx`'s key, or what names a raw operation in errors.
    fn key(&self, idx: usize) -> &str {
        match self {
            Batch::Gets(keys, _) => keys[idx].as_ref(),
            Batch::Puts(entries, _) => entries[idx].0.as_ref(),
            Batch::Raw { label, .. } => label,
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
    /// On a register `lone` names (one behind the migration barrier)
    /// every input is a chunk of its own.
    fn cut(
        &self,
        routed: &mut Vec<(RegisterId, usize)>,
        budget: Option<usize>,
        lone: impl Fn(RegisterId) -> bool,
    ) -> Vec<usize> {
        routed.sort_unstable();
        // Sized as a bundle entry: an upper bound for every chunk (a
        // lone entry encodes as the smaller plain form).
        let cost = |i: usize| match self {
            Batch::Puts(entries, _) => {
                codec::BUNDLE_ENTRY_OVERHEAD + entries[i].0.as_ref().len() + entries[i].1.len()
            }
            _ => 0,
        };
        let fits = |size: usize| budget.is_none_or(|b| size <= b);
        if let Batch::Puts(entries, _) = self {
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
            let joins = !lone(reg)
                && (matches!(self, Batch::Gets(..))
                    || (count < codec::MAX_BUNDLE_ENTRIES && fits(size + cost(i))));
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

    /// Submits `op`'s current register operation at `node`, recording its
    /// invocation first if the chunk has none yet (a retry is the same
    /// operation); its ticket, or why nothing was sent.
    fn submit(
        &self,
        flight: &Flight<'_>,
        op: &mut Active,
        node: usize,
    ) -> Result<Ticket, ClientError> {
        let (kv, world, map) = (flight.kv, &flight.kv.world, &flight.map);
        let inputs = flight.inputs(op.chunk);
        let (home, idx) = inputs[0];
        // Behind the barrier the chunk is one key's: its old home first,
        // its new home once `forward` says so.
        let reg = match op.forward {
            true => map.register_for(self.key(idx)),
            false => home,
        };
        let read = |op: &mut Active, recorded: bool| {
            if recorded && op.inv.is_none() {
                op.inv = kv.rec_invoke(Op::ReadAt(reg));
            }
            world.submit(node, Op::ReadAt(reg))
        };
        let (entries, tag) = match self {
            Batch::Gets(..) => return read(op, true),
            Batch::Raw {
                write: None,
                recorded,
                ..
            } => return read(op, *recorded),
            // A barriered put polls its old home for the seal: an
            // infrastructure read, unrecorded.
            Batch::Puts(..) if flight.barriered(home) && !op.forward => return read(op, false),
            Batch::Raw {
                write: Some(payload),
                ..
            } => return world.submit(node, Op::WriteAt(reg, payload.clone())),
            Batch::Puts(entries, tag) => (entries, tag),
        };
        let payload = match (inputs, tag) {
            ([(_, idx)], None) if kv.recorder.is_none() => {
                let (key, value) = (entries[*idx].0.as_ref(), &entries[*idx].1);
                let mut fill = |buf: &mut _| codec::encode_entry_into(buf, key, value, map.stamp());
                return world.submit_write_with(node, reg, &mut fill);
            }
            ([(_, idx)], Some(tag)) => {
                let (key, value) = &entries[*idx];
                codec::encode_entry_tagged(key.as_ref(), value, map.stamp(), *tag)
            }
            // A bundle, or a recorded run (the invocation needs the
            // encoded payload): encode once and send the same value.
            _ => {
                let refs: Vec<(&str, Bytes)> = inputs
                    .iter()
                    .map(|&(_, i)| (entries[i].0.as_ref(), entries[i].1.clone()))
                    .collect();
                codec::encode_entries(&refs, map.stamp())
            }
        };
        if op.inv.is_none() {
            op.inv = kv.rec_invoke(Op::WriteAt(reg, payload.clone()));
        }
        world.submit(node, Op::WriteAt(reg, payload))
    }

    /// Reads the completion of `op`'s register operation: counts its
    /// rounds and says what is left of the chunk — which it answers,
    /// times and replies to when this ends it.
    fn complete(&mut self, flight: &mut Flight<'_>, op: &mut Active, done: Settled) -> Next {
        let kv = flight.kv;
        let (home, idx) = flight.inputs(op.chunk)[0];
        match (&mut *self, done) {
            (Batch::Raw { done, .. }, (result, rounds)) => {
                let payload = match result {
                    OpResult::ReadValue(payload) => payload,
                    _ => Value::bottom(),
                };
                kv.rec_reply(op.inv.take(), OpResult::ReadValue(payload.clone()));
                **done = Some((payload, rounds));
            }
            (Batch::Gets(keys, answers), (OpResult::ReadValue(payload), rounds)) => {
                kv.record_read(rounds);
                if flight.barriered(home) {
                    // The unsealed old home is authoritative (writers are
                    // barriered); a sealed one (or one rewritten
                    // post-seal) without the key forwards to the new
                    // routing.
                    let key = keys[idx].as_ref();
                    let value = codec::value_for_key(&payload, key);
                    if !op.forward
                        && value.is_none()
                        && flight.map.register_for(key) != home
                        && flight.map.seals_source(&payload, home.0 - 1)
                    {
                        op.forward = true;
                        return Next::Step;
                    }
                    answers[idx] = Some((payload.clone(), value));
                } else {
                    let mut stale = Vec::new();
                    for &(_, i) in flight.inputs(op.chunk) {
                        let key = keys[i].as_ref();
                        let answer = flight.map.read_answer(&payload, key);
                        // A key absent under a foreign stamp — the map
                        // may be stale: the next wave reads it again, and
                        // absence is its answer if there is none.
                        if answer.is_none() {
                            stale.push(i);
                        }
                        answers[i] = Some((payload.clone(), answer.flatten()));
                    }
                    flight.next.extend(stale);
                }
                ClientObs::lap(op.started, &*kv.world, &kv.obs.get_micros);
                kv.rec_reply(op.inv.take(), OpResult::ReadValue(payload));
            }
            // A barriered put's seal poll.
            (Batch::Puts(entries, _), (OpResult::ReadValue(payload), rounds)) => {
                kv.record_read(rounds);
                kv.obs.barrier_polls.inc();
                let flights = &kv.obs.handle.flight;
                let event = |kind| {
                    FlightEvent::new(kind)
                        .with_register(home.0)
                        .with_epoch(flight.map.epoch as u32)
                };
                if flight.map.seals_source(&payload, home.0 - 1) {
                    if op.polls > 0 {
                        // How long the writer actually stalled, in polls.
                        flights.record(event(EventKind::BarrierWait).with_aux(op.polls.into()));
                    }
                    flights.record(event(EventKind::SealObserved));
                    op.forward = true;
                    return Next::Step;
                }
                if op.polls == 0 {
                    kv.obs.barrier_waits.inc();
                }
                op.polls += 1;
                if op.polls >= kv.barrier_polls {
                    // Exhausted without a seal: the stall is worth a trace.
                    flights.record(event(EventKind::BarrierWait).with_aux(op.polls.into()));
                    let key = entries[idx].0.as_ref().to_string();
                    return Next::End(Err(KvError::Barrier {
                        key,
                        shard: home.0 - 1,
                    }));
                }
                // Every eighth poll re-reads the authoritative map in
                // case this client is the only one still watching (the
                // next send then finds the map moved and re-routes).
                if op.polls.is_multiple_of(8) {
                    if let Err(e) = kv.refresh_map() {
                        return Next::End(Err(e));
                    }
                }
                // Escalating, capped: the migrator seals a shard in a
                // handful of register rounds, so the common case is one
                // short wait.
                let wait = (100u64 << (op.polls - 1).min(5)).min(2_000);
                return Next::Park(Duration::from_micros(wait));
            }
            (Batch::Puts(..), (OpResult::Written, rounds)) => {
                kv.record_write(rounds);
                ClientObs::lap(op.started, &*kv.world, &kv.obs.put_micros);
                kv.rec_reply(op.inv.take(), OpResult::Written);
            }
            // A completion of the wrong kind cannot happen; treat the
            // node as down.
            _ => {
                return Next::End(Err(flight.node_error(
                    self,
                    op.chunk,
                    ClientError::ProcessDown,
                )))
            }
        }
        Next::End(Ok(()))
    }
}

impl<'a> Flight<'a> {
    /// An idle flight over `kv`.
    fn new(kv: &'a KvClient) -> Self {
        Flight {
            kv,
            map: kv.shard_map(),
            sources: BTreeSet::new(),
            guarded: false,
            routed: Vec::new(),
            cuts: Vec::new(),
            tickets: Vec::new(),
            pending: Vec::new(),
            parked: Vec::new(),
            next: Vec::new(),
            ambiguous: false,
            first_err: None,
        }
    }

    /// The inputs chunk `chunk` carries.
    fn inputs(&self, chunk: usize) -> &[(RegisterId, usize)] {
        &self.routed[self.cuts[chunk]..self.cuts[chunk + 1]]
    }

    /// The register chunk `chunk` is sequenced under, `None` past the
    /// last.
    fn reg_of(&self, chunk: usize) -> Option<RegisterId> {
        let start = *self.cuts.get(chunk)?;
        self.routed.get(start).map(|&(reg, _)| reg)
    }

    /// Whether `reg` is the old home of a splitting shard, whose keys sit
    /// behind the migration barrier.
    fn barriered(&self, reg: RegisterId) -> bool {
        let shard = reg.0.checked_sub(1);
        shard.is_some_and(|s| self.sources.contains(&s))
    }

    /// `source` as the error of chunk `chunk`, named after its first key.
    fn node_error<K: AsRef<str>>(
        &self,
        batch: &Batch<'_, K>,
        chunk: usize,
        source: ClientError,
    ) -> KvError {
        let key = batch.key(self.inputs(chunk)[0].1).to_string();
        KvError::Register { key, source }
    }

    /// Drives `batch` to its end, in waves: what a wave could not settle
    /// under its map is routed and cut afresh under the next one's.
    ///
    /// # Errors
    ///
    /// The call's first failure; every other input still ran to its end.
    fn run<K: AsRef<str>>(mut self, batch: &mut Batch<'_, K>) -> Result<(), KvError> {
        let kv = self.kv;
        let puts = matches!(batch, Batch::Puts(..));
        let mut todo: Vec<usize> = (0..batch.len()).collect();
        for wave in 0..=MAP_RETRIES {
            // Epochs kept moving for every wave (pathological churn): the
            // last one stops chasing and writes unguarded under the
            // freshest map there is.
            self.guarded = puts && wave < MAP_RETRIES;
            self.launch(batch, &todo);
            self.drain(batch);
            todo = std::mem::take(&mut self.next);
            if todo.is_empty() {
                break;
            }
            // Puts come back because the map moved under them. Gets come
            // back unanswered under a foreign stamp: this client's map
            // may be stale — and if it is not, absence was the answer.
            if !puts {
                match kv.refresh_map() {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(e) => {
                        self.first_err.get_or_insert(e);
                        break;
                    }
                }
            }
        }
        // An operation left pending is this process's crash, recorded
        // once and only now that nothing else of it is in flight (a crash
        // recorded mid-flight would turn every other pending reply of
        // this process into a reply after its crash).
        if let (true, Some((recorder, pid))) = (self.ambiguous, &kv.recorder) {
            recorder.abandon(*pid);
        }
        self.first_err.map_or(Ok(()), Err)
    }

    /// Starts a wave over the inputs `todo`: routes them under the
    /// current map, cuts them into chunks and starts every register's
    /// first; the later ones follow as their predecessors end.
    fn launch<K: AsRef<str>>(&mut self, batch: &mut Batch<'_, K>, todo: &[usize]) {
        let kv = self.kv;
        self.map = kv.shard_map();
        self.sources = self.map.split_sources();
        self.routed.clear();
        for &i in todo {
            let reg = match batch {
                Batch::Raw { reg, .. } => *reg,
                _ if self.sources.is_empty() => self.map.register_for(batch.key(i)),
                // Behind the barrier a key is sequenced under its old
                // home, which every operation on it touches first.
                _ => match self.map.old_shard_of(batch.key(i)) {
                    old if self.sources.contains(&old) => data_register(old),
                    _ => self.map.register_for(batch.key(i)),
                },
            };
            self.routed.push((reg, i));
        }
        let mut routed = std::mem::take(&mut self.routed);
        self.cuts = batch.cut(&mut routed, kv.max_value_len(), |reg| self.barriered(reg));
        self.routed = routed;
        for chunk in 0..self.cuts.len() - 1 {
            if chunk == 0 || self.reg_of(chunk) != self.reg_of(chunk - 1) {
                self.start(batch, chunk);
            }
        }
    }

    /// Starts chunk `chunk`: its register's turn has come.
    fn start<K: AsRef<str>>(&mut self, batch: &mut Batch<'_, K>, chunk: usize) {
        let obs = &self.kv.obs;
        if matches!(batch, Batch::Puts(..)) && obs.handle.metrics.is_enabled() {
            obs.bundle_size.record(self.inputs(chunk).len() as u64);
        }
        let op = Active {
            chunk,
            order: Vec::new(),
            at: 0,
            probe: false,
            inv: None,
            ambiguous: false,
            last_err: None,
            polls: 0,
            forward: false,
            started: obs.op_clock(&*self.kv.world),
        };
        self.submit(batch, op);
    }

    /// Sends `op`'s current register operation to the node its rotation
    /// stands at, moving on past nodes that are gone; with the rotation
    /// spent, the chunk ends in its last node failure.
    fn submit<K: AsRef<str>>(&mut self, batch: &mut Batch<'_, K>, mut op: Active) {
        let kv = self.kv;
        loop {
            // Checked before *every* send, failovers and seal polls
            // included: a send's effect lands within moments of it, so
            // the check bounds how stale a landed write can be — without
            // it, a write stalled behind a dead node's patience window
            // could surface on a source register long after the shard
            // was sealed.
            if self.guarded && kv.shard_map() != self.map {
                return self.reroute(batch, op);
            }
            if op.order.is_empty() {
                let home = self.inputs(op.chunk)[0].0;
                (op.order, op.probe) = kv.rotation(home);
            }
            let Some(&node) = op.order.get(op.at) else {
                let source = op.last_err.clone().expect("at least one node was tried");
                let e = self.node_error(batch, op.chunk, source);
                return self.end(batch, op, Err(e));
            };
            match batch.submit(self, &mut op, node) {
                Ok(ticket) => {
                    self.tickets.push(ticket);
                    self.pending.push(op);
                    return;
                }
                Err(ClientError::TooLarge { size, limit }) => {
                    // Client-side refusal, terminal: the value fits no
                    // node's frame, so no other node can help — and a won
                    // probe never exercised the node. Only a lone entry
                    // can be refused (`cut` keeps bundles inside the
                    // frame).
                    self.release_probe(&mut op);
                    let key = batch.key(self.inputs(op.chunk)[0].1).to_string();
                    return self.end(batch, op, Err(KvError::TooLarge { key, size, limit }));
                }
                // The only other submit error is `ProcessDown` (the
                // node's event loop is gone): nothing left this client.
                Err(e) => {
                    kv.health.mark(node);
                    self.next_node(&mut op, e);
                }
            }
        }
    }

    /// Hands back a won probe that `op`'s current attempt did not
    /// conclusively exercise: the node owes one again.
    fn release_probe(&self, op: &mut Active) {
        if std::mem::take(&mut op.probe) {
            self.kv.health.reopen_probe(op.order[0]);
        }
    }

    /// Moves `op` past its current node, which failed it with `e`.
    fn next_node(&self, op: &mut Active, e: ClientError) {
        self.kv.obs.retries.inc();
        op.last_err = Some(e);
        op.at += 1;
        op.probe = false;
    }

    /// The attempt of `op` at its current node failed with `e`: the same
    /// operation moves to the next node of its rotation.
    fn node_failed<K: AsRef<str>>(
        &mut self,
        batch: &mut Batch<'_, K>,
        mut op: Active,
        e: ClientError,
    ) {
        match e {
            ClientError::TimedOut | ClientError::ProcessDown => {
                self.kv.health.mark(op.order[op.at]);
                op.ambiguous = true;
            }
            // No node's fault (a frame too large ends its operation at
            // submission, before it gets here): an inconclusive probe, so
            // the node still owes one.
            _ => self.release_probe(&mut op),
        }
        self.next_node(&mut op, e);
        self.submit(batch, op);
    }

    /// The map moved before a send of `op`'s chunk: its inputs — and the
    /// register's later chunks behind them, in input order — are the next
    /// wave's, unless an earlier attempt may already have landed the
    /// operation under this map, which then ends it.
    fn reroute<K: AsRef<str>>(&mut self, batch: &mut Batch<'_, K>, mut op: Active) {
        self.release_probe(&mut op);
        if let (true, Some(source)) = (op.ambiguous, op.last_err.clone()) {
            let e = self.node_error(batch, op.chunk, source);
            return self.end(batch, op, Err(e));
        }
        // Nothing of the operation took effect.
        self.kv.rec_reply(op.inv.take(), REFUSED);
        let rest = &self.routed[self.cuts[op.chunk]..];
        let reg = rest[0].0;
        let rest = rest.iter().take_while(|&&(r, _)| r == reg);
        self.next.extend(rest.map(|&(_, i)| i));
    }

    /// Chunk `op.chunk` has ended: records a failure and gives the
    /// register's next chunk its turn — unless the operation is left
    /// pending, which nothing more of this process may follow on its
    /// register.
    fn end<K: AsRef<str>>(
        &mut self,
        batch: &mut Batch<'_, K>,
        op: Active,
        outcome: Result<(), KvError>,
    ) {
        let reg = self.reg_of(op.chunk);
        let mut next = op.chunk + 1;
        if let Err(e) = outcome {
            if op.ambiguous {
                self.ambiguous = true;
                while self.reg_of(next) == reg {
                    next += 1;
                }
            } else {
                self.kv.rec_reply(op.inv, REFUSED);
            }
            self.first_err.get_or_insert(e);
        }
        if self.reg_of(next) == reg {
            self.start(batch, next);
        }
    }

    /// Settles the completion of in-flight operation `pos`.
    fn settle<K: AsRef<str>>(
        &mut self,
        batch: &mut Batch<'_, K>,
        pos: usize,
        outcome: Result<Settled, ClientError>,
    ) {
        self.tickets.swap_remove(pos);
        let mut op = self.pending.swap_remove(pos);
        let done = match outcome {
            Ok(done) => done,
            Err(e) => return self.node_failed(batch, op, e),
        };
        self.kv.health.clear(op.order[op.at]);
        let next = batch.complete(self, &mut op, done);
        if let Next::End(outcome) = next {
            return self.end(batch, op, outcome);
        }
        // The chunk's next register operation is a new one: a fresh
        // rotation, and nothing of it has been attempted yet.
        (op.at, op.probe, op.ambiguous) = (0, false, false);
        op.order.clear();
        match next {
            Next::Park(wait) => self.parked.push((self.kv.world.now() + wait, op)),
            _ => self.submit(batch, op),
        }
    }

    /// Serves completions and deadlines until the wave has nothing in
    /// flight and nothing parked.
    fn drain<K: AsRef<str>>(&mut self, batch: &mut Batch<'_, K>) {
        let (kv, world) = (self.kv, &*self.kv.world);
        let metered = kv.obs.handle.metrics.is_enabled();
        while !(self.pending.is_empty() && self.parked.is_empty()) {
            let due = self.parked.iter().map(|&(due, _)| due).min();
            let patience = world.now() + kv.patience;
            let until = due.map_or(patience, |due| due.min(patience));
            if let Some((pos, outcome)) = world.wait_any(&self.tickets, until) {
                // One depth sample per completion: what was in flight
                // while it was awaited.
                if metered {
                    kv.obs.inflight.set(self.pending.len() as u64);
                    kv.obs.pipeline_depth.record(self.pending.len() as u64);
                }
                self.settle(batch, pos, outcome);
                continue;
            }
            let now = world.now();
            if due.is_some_and(|due| due <= now) {
                let (ripe, parked) = std::mem::take(&mut self.parked)
                    .into_iter()
                    .partition(|&(due, _)| due <= now);
                self.parked = parked;
                for (_, op) in ripe {
                    self.submit(batch, op);
                }
            } else {
                // The patience window passed with nothing settling:
                // every operation in flight has timed out on its node
                // (late acks are counted, never misdelivered).
                let tickets = std::mem::take(&mut self.tickets);
                for (ticket, op) in tickets.into_iter().zip(std::mem::take(&mut self.pending)) {
                    world.cancel(ticket);
                    self.node_failed(batch, op, ClientError::TimedOut);
                }
            }
        }
        if metered {
            kv.obs.inflight.set(0);
        }
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
    fn contended_register_makes_progress_without_retries() {
        // Eight writers hammering ONE key through one node family: the
        // node queues each put behind the one its register is serving, so
        // every writer completes its burst, none is ever refused and no
        // operation moves off its node.
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
        assert_eq!((stats.writes, stats.retries), (80, 0), "{stats:?}");
        let last = kv.get("hot").unwrap().expect("written");
        assert_eq!(last[1], 9, "some writer's last put owns the cell");
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
        let open = |_| false;
        let cuts = Batch::Gets(&keys, &mut []).cut(&mut gets, Some(0), open);
        assert_eq!(gets, [(a, 1), (a, 2), (a, 3), (a, 4), (b, 0)]);
        assert_eq!(
            cuts,
            [0, 4, 5],
            "one read per register, whatever the budget"
        );

        let puts = Batch::Puts(&entries, None);
        let mut unbounded = routed.clone();
        assert_eq!(puts.cut(&mut unbounded, None, open), [0, 3, 4]);
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
        assert_eq!(puts.cut(&mut tight, Some(budget), open), [0, 2, 3, 4]);
        // An entry no frame carries supersedes nothing: it still ships
        // (to be refused), and its key keeps the earlier, sendable value.
        let twice = [("k", entries[0].1.clone()), ("k", entries[4].1.clone())];
        let mut both = vec![(a, 0), (a, 1)];
        let twice = Batch::Puts(&twice, None);
        assert_eq!(twice.cut(&mut both, Some(budget), open), [0, 1, 2]);
        assert_eq!(both, [(a, 0), (a, 1)]);
        // Behind the migration barrier every input is a chunk of its own.
        let mut barriered = routed.clone();
        let cuts = puts.cut(&mut barriered, None, |reg| reg == a);
        assert_eq!(cuts, [0, 1, 2, 3, 4]);
        let mut tiny = routed;
        assert_eq!(puts.cut(&mut tiny, Some(1), open), [0, 1, 2, 3, 4, 5]);
        assert_eq!(puts.cut(&mut Vec::new(), None, open), [0]);
    }

    /// Failover keeps the invocation: a coalesced read (and a lone one)
    /// scripted to time out on its home node is resubmitted at the next
    /// node as the same recorded operation — no crash, no second
    /// invocation, every key answered.
    #[test]
    fn a_timed_out_coalesced_read_fails_over_under_the_same_invocation() {
        let recorder = OpRecorder::new();
        let (mut cluster, kv) = cluster_client(4);
        let kv = kv.with_recorder(recorder.clone());
        let covering = kv.router().covering_keys("a-");
        for key in &covering {
            kv.put(key, b"v".to_vec()).unwrap();
        }
        let recorded_before = recorder.history().events().len();
        // One key alone on its register, another twice on its own.
        let keys = [&covering[0], &covering[1], &covering[1]];
        let mut answers = vec![None; keys.len()];
        let mut batch = Batch::Gets(&keys, &mut answers);
        let mut flight = Flight::new(&kv);
        flight.launch(&mut batch, &[0, 1, 2]);
        assert_eq!(flight.pending.len(), 2);
        // Let each first attempt's real completion arrive, then script a
        // timeout in its place.
        while let Some(pos) = flight.pending.iter().position(|op| op.at == 0) {
            let home = flight.pending[pos].order[0];
            let soon = kv.world.now() + Duration::from_secs(10);
            let (_, real) = kv
                .world
                .wait_any(&flight.tickets[pos..=pos], soon)
                .expect("completes");
            real.expect("the home node is up");
            flight.settle(&mut batch, pos, Err(ClientError::TimedOut));
            let moved = flight.pending.last().expect("resubmitted at once");
            assert_eq!(moved.at, 1);
            assert_ne!(moved.order[1], home, "at the next node");
            assert!(moved.inv.is_some() && moved.ambiguous);
            assert!(kv.health().is_suspect(home), "the timeout marks the node");
        }
        flight.drain(&mut batch);
        assert!(flight.first_err.is_none() && !flight.ambiguous);
        let values: Vec<_> = answers.into_iter().map(|a| a.unwrap().1).collect();
        assert_eq!(values, vec![Some(Bytes::from_static(b"v")); 3]);

        let history = recorder.history();
        assert_eq!(history.crash_count(), 0);
        assert!(history.pending_ops().is_empty());
        assert_eq!(
            history.events().len() - recorded_before,
            4,
            "one invocation and one reply per chunk"
        );
        for reg in history.registers() {
            let per_reg = history.restrict_to_register(reg);
            per_reg
                .well_formed()
                .unwrap_or_else(|e| panic!("{reg:?}: {e}"));
        }
        assert_eq!(kv.stats().retries, 2);
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

    /// A client over a cluster whose flavor grants tag leases.
    fn leased_cluster_client(lease_micros: u64, shards: u16) -> (LocalCluster, KvClient) {
        let cluster = LocalCluster::channel(
            3,
            SharedMemory::factory(Persistent::flavor().with_lease(lease_micros)),
        )
        .unwrap();
        let client = KvClient::new(cluster.clients(), ShardRouter::new(shards)).unwrap();
        (cluster, client)
    }

    #[test]
    fn hot_key_reads_are_served_in_zero_rounds() {
        let (mut cluster, kv) = leased_cluster_client(2_000_000, 8);
        kv.put("hot", b"v1".to_vec()).unwrap();
        settle();
        // The first read pays its quorum round and the home node mints…
        assert_eq!(kv.get("hot").unwrap().as_deref(), Some(b"v1".as_ref()));
        // …the rest are one hop to it and zero rounds.
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
    fn a_put_through_the_holder_neither_waits_nor_ends_its_lease() {
        const TERM: Duration = Duration::from_millis(500);
        let (mut cluster, kv) = leased_cluster_client(TERM.as_micros() as u64, 8);
        kv.put("k", b"v1".to_vec()).unwrap();
        settle();
        assert_eq!(kv.get("k").unwrap().as_deref(), Some(b"v1".as_ref()));
        assert_eq!(kv.get("k").unwrap().as_deref(), Some(b"v1".as_ref()));
        assert!(kv.stats().lease_hits >= 1);
        // The put goes to the node holding the lease, which takes it as
        // the write's query round and passes its own fence at every
        // replica: no lease term is waited out, the put is one round, and
        // the lease — handed on to what it wrote — serves v2 next.
        let before = kv.stats();
        let started = std::time::Instant::now();
        kv.put("k", b"v2".to_vec()).unwrap();
        let took = started.elapsed();
        assert!(
            took < TERM / 2,
            "the put sat behind its own lease: {took:?}"
        );
        assert_eq!(kv.get("k").unwrap().as_deref(), Some(b"v2".as_ref()));
        let after = kv.stats();
        assert_eq!(after.write_rounds, before.write_rounds + 1);
        assert_eq!(after.lease_hits, before.lease_hits + 1, "handed on");
        cluster.shutdown();
    }

    #[test]
    fn multi_get_serves_hot_registers_in_zero_rounds() {
        let (mut cluster, kv) = leased_cluster_client(2_000_000, 8);
        let keys = ["a", "b", "c", "d"];
        for key in keys {
            kv.put(key, key.as_bytes().to_vec()).unwrap();
        }
        settle();
        // First batch mints at every register's home through the
        // pipeline…
        let first = kv.multi_get(&keys).unwrap();
        // …the second is answered entirely under those leases.
        let before = kv.stats();
        let second = kv.multi_get(&keys).unwrap();
        assert_eq!(first, second);
        for (key, value) in keys.iter().zip(&second) {
            assert_eq!(value.as_deref(), Some(key.as_bytes()));
        }
        let after = kv.stats();
        assert!(after.reads > before.reads);
        assert_eq!(
            (after.lease_hits - before.lease_hits, after.read_rounds),
            (after.reads - before.reads, before.read_rounds),
            "batch hits missing: {before:?} -> {after:?}"
        );
        cluster.shutdown();
    }

    #[test]
    fn unleased_cluster_never_reads_in_zero_rounds() {
        let (mut cluster, kv) = cluster_client(8);
        kv.put("k", b"v".to_vec()).unwrap();
        for _ in 0..4 {
            assert_eq!(kv.get("k").unwrap().as_deref(), Some(b"v".as_ref()));
        }
        let stats = kv.stats();
        assert_eq!(stats.lease_hits, 0, "no grants, no hits: {stats:?}");
        assert!(stats.mean_read_rounds() >= 1.0);
        cluster.shutdown();
    }
}
