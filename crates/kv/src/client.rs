//! The real-runtime store client: key routing over the store's fixed
//! shard map, with pipelined per-shard operations across the cluster's
//! nodes. Data shard `i` lives at register `i + 1` (see
//! [`ShardRouter::register_for`]).
//!
//! # Operations
//!
//! Every register operation this client performs — a `get`, a `put`, the
//! chunks of a `multi_get`/`multi_put`, a raw register read — is driven
//! by **one event loop on the calling thread** ([`KvClient::get`] is
//! `multi_get` of one key). The loop's world is the seam ([`World`]): it
//! submits, waits and reads the time there and nowhere else, so the same
//! loop runs on the real runtime and inside a seeded simulation
//! ([`crate::host`]). Its rules, stated once:
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
//!   invocation, still the register's one chunk in flight. (Another
//!   client racing the register through the same node costs nothing
//!   here: the node queues the operation behind that client's.)
//! * **One crash record.** An operation whose every node failed, at least
//!   one of them after the request left, may or may not have taken
//!   effect: its invocation stays pending, whatever else its register had
//!   queued is not issued, and the call records the model's
//!   crash/recovery idiom **once**, after everything has drained and
//!   nothing of this process is in flight. An operation no node accepted
//!   is recorded as refused.
//!
//! An exactly-once client's put is journal → one tagged input →
//! tombstone, and its `multi_put` a loop of those.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rmem_net::pipeline::Settled;
use rmem_net::{Client, ClientError, Ticket, TraceCtx};
use rmem_obs::{Counter, FlightRecorder, Histogram, MetricsSnapshot, ObsHandle};
use rmem_types::{Op, OpId, OpResult, ProcessId, RegisterId, RejectReason, Value};

use rmem_storage::StorageError;
use rmem_types::OpTag;

use crate::codec;
use crate::crash::Crash;
use crate::exactly_once::ExactlyOnce;
use crate::health::{HealthMemory, NodeGate};
use crate::recorder::OpRecorder;
use crate::router::{ShardMap, ShardRouter};
use crate::seam::{Wire, World};

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
/// has in flight at some node.
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
    /// Latency clock opened when the chunk started (when metrics are on).
    started: Option<Duration>,
}

/// The answer to one `get`: the payload that answered it (the resolver's
/// evidence) and the key's value in it.
type Answer = (Value, Option<Bytes>);

/// The inputs of a call — a `multi_get`'s keys with its answer slots (one
/// per key), a `multi_put`'s entries (under the op tag of an exactly-once
/// put, which is a call of one entry), or one raw register read
/// ([`KvClient::raw_read`]). Its methods are all the kinds differ in:
/// where one register's inputs are cut into chunks, how one chunk is
/// submitted and how its completion is read by [`Flight`], the shared
/// driver.
enum Batch<'a, K> {
    Gets(&'a [K], &'a mut [Option<Answer>]),
    Puts(&'a [(K, Bytes)], Option<OpTag>),
    Raw {
        reg: RegisterId,
        /// Names the operation in errors.
        label: &'a str,
        /// Where to leave the payload read.
        done: &'a mut Option<Value>,
    },
}

/// One call in flight: the driver behind every register operation of
/// [`KvClient`] (see the [module docs](self#operations)) — one thread,
/// over the client family's one [`World`].
struct Flight<'a> {
    kv: &'a KvClient,
    /// The call's inputs as `(register, input index)`, sorted, so one
    /// register's inputs are contiguous and in input order.
    routed: Vec<(RegisterId, usize)>,
    /// Chunk `c` — one register operation — carries the inputs
    /// `routed[cuts[c]..cuts[c + 1]]`, all of one register. A register's
    /// chunks run one after the other, in input order (§III-A
    /// per-register sequentiality): chunk `c + 1` starts when `c` ends, if
    /// it is on the same register — whichever node either of them ends up
    /// on.
    cuts: Vec<usize>,
    /// The chunks with an operation in flight: tickets, with their
    /// bookkeeping in a twin vector (so the ticket slice feeds `wait_any`
    /// directly).
    tickets: Vec<Ticket>,
    pending: Vec<Active>,
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
    /// Register reads completed through this client (and its clones).
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
/// Keys route deterministically to shard registers through the store's
/// [`ShardRouter`], fixed when the client is built; each shard prefers
/// one of the cluster's node handles (`register % nodes`, so shard traffic
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
/// satisfy the configured flavor's atomicity criterion, certified by
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
    router: ShardRouter,
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
    /// A client over `nodes` (e.g. `LocalCluster::clients()`) routing
    /// keys with `router`: every client of one store must be built with
    /// the same shard count.
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
            router,
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

    /// The client-side flight recorder: the family's `ClientSend` /
    /// `ClientRecv` events while it is traced, in event order.
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

    /// The store's shard map: the router this client was built with.
    pub fn shard_map(&self) -> ShardMap {
        self.router
    }

    /// The largest *register value* this client can write, if any node's
    /// transport is bounded.
    pub fn max_value_len(&self) -> Option<usize> {
        self.world.max_value_len()
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
        Flight::new(self).run(batch)
    }

    /// One register **read** returning the raw payload (⊥, a single
    /// entry or a bundle), recorded as one operation; `label` names the
    /// operation in errors. How tests inspect a cell.
    ///
    /// # Errors
    ///
    /// As for [`get`](Self::get).
    pub fn raw_read(&self, reg: RegisterId, label: &str) -> Result<Value, KvError> {
        let mut done = None;
        self.fly(&mut Batch::Raw::<&str> {
            reg,
            label,
            done: &mut done,
        })?;
        Ok(done.expect("a raw read that did not fail completed"))
    }

    /// Stores `value` under `key`, returning once the write is durable at
    /// a majority: a call of one entry through the driver (see the
    /// [module docs](self#operations)) — [`multi_put`](Self::multi_put)
    /// of `[(key, value)]`. An exactly-once client journals the intent
    /// durably first, writes under a client-assigned op tag and
    /// tombstones on ack.
    ///
    /// The encoded entry (`3 + key + value` bytes plus protocol framing)
    /// must fit the cluster's transport frame: UDP transports cap
    /// datagrams at 64 KB, and an oversized entry fails fast with
    /// [`KvError::TooLarge`] before anything is sent — use a TCP-backed
    /// cluster for larger values.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::TooLarge`] for an entry over the transport
    /// frame, [`KvError::Register`] if every node failed the register
    /// operation.
    pub fn put(&self, key: &str, value: impl Into<Bytes>) -> Result<(), KvError> {
        if self.intents.is_some() {
            self.put_exactly_once(key, value.into())
        } else {
            self.put_inner(key, value.into(), None)
        }
    }

    /// A call of the one entry `key → value`. With `Some(tag)` every
    /// payload it lands carries the op-id frame — retries across nodes
    /// re-encode under the *same* tag, which is what lets the exactly-once
    /// certifier collapse them into one logical write.
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

    // -- Multi-key operations ----------------------------------------------

    /// Reads many keys in one call through the driver (see the
    /// [module docs](self#operations)): the keys of one register share
    /// **one** read round, every register's read is in flight at once,
    /// submitted from this one thread, and settles as its completion
    /// arrives. Results align with the input order.
    ///
    /// A read whose node fails (down, timeout, a refusal) moves to the
    /// register's next node as the same operation.
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
    /// An exactly-once client's entries are journaled `put`s, in input
    /// order: the intent journal's durable fsync per op is a per-write
    /// barrier the pipeline has nothing to overlap with.
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

    /// Input `idx`'s key, or what names a raw read in errors.
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
    fn cut(&self, routed: &mut Vec<(RegisterId, usize)>, budget: Option<usize>) -> Vec<usize> {
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

    /// Submits `op`'s register operation at `node`, recording its
    /// invocation first if the chunk has none yet (a retry is the same
    /// operation); its ticket, or why nothing was sent.
    fn submit(
        &self,
        flight: &Flight<'_>,
        op: &mut Active,
        node: usize,
    ) -> Result<Ticket, ClientError> {
        let (kv, world) = (flight.kv, &flight.kv.world);
        let inputs = flight.inputs(op.chunk);
        let reg = inputs[0].0;
        let Batch::Puts(entries, tag) = self else {
            if op.inv.is_none() {
                op.inv = kv.rec_invoke(Op::ReadAt(reg));
            }
            return world.submit(node, Op::ReadAt(reg));
        };
        let payload = match (inputs, tag) {
            ([(_, idx)], None) if kv.recorder.is_none() => {
                let (key, value) = (entries[*idx].0.as_ref(), &entries[*idx].1);
                let mut fill = |buf: &mut _| codec::encode_entry_into(buf, key, value, 0);
                return world.submit_write_with(node, reg, &mut fill);
            }
            ([(_, idx)], Some(tag)) => {
                let (key, value) = &entries[*idx];
                codec::encode_entry_tagged(key.as_ref(), value, *tag)
            }
            // A bundle, or a recorded run (the invocation needs the
            // encoded payload): encode once and send the same value.
            _ => {
                let refs: Vec<(&str, Bytes)> = inputs
                    .iter()
                    .map(|&(_, i)| (entries[i].0.as_ref(), entries[i].1.clone()))
                    .collect();
                codec::encode_entries(&refs)
            }
        };
        if op.inv.is_none() {
            op.inv = kv.rec_invoke(Op::WriteAt(reg, payload.clone()));
        }
        world.submit(node, Op::WriteAt(reg, payload))
    }

    /// Reads the completion of `op`'s register operation, which ends its
    /// chunk: counts its rounds, answers, times and replies to it.
    fn complete(
        &mut self,
        flight: &Flight<'_>,
        op: &mut Active,
        done: Settled,
    ) -> Result<(), KvError> {
        let kv = flight.kv;
        match (&mut *self, done) {
            (Batch::Raw { done, .. }, (OpResult::ReadValue(payload), rounds)) => {
                kv.record_read(rounds);
                kv.rec_reply(op.inv.take(), OpResult::ReadValue(payload.clone()));
                **done = Some(payload);
            }
            (Batch::Gets(keys, answers), (OpResult::ReadValue(payload), rounds)) => {
                kv.record_read(rounds);
                for &(_, i) in flight.inputs(op.chunk) {
                    let value = codec::value_for_key(&payload, keys[i].as_ref());
                    answers[i] = Some((payload.clone(), value));
                }
                ClientObs::lap(op.started, &*kv.world, &kv.obs.get_micros);
                kv.rec_reply(op.inv.take(), OpResult::ReadValue(payload));
            }
            (Batch::Puts(..), (OpResult::Written, rounds)) => {
                kv.record_write(rounds);
                ClientObs::lap(op.started, &*kv.world, &kv.obs.put_micros);
                kv.rec_reply(op.inv.take(), OpResult::Written);
            }
            // A completion of the wrong kind cannot happen; treat the
            // node as down.
            _ => return Err(flight.node_error(self, op.chunk, ClientError::ProcessDown)),
        }
        Ok(())
    }
}

impl<'a> Flight<'a> {
    /// An idle flight over `kv`.
    fn new(kv: &'a KvClient) -> Self {
        Flight {
            kv,
            routed: Vec::new(),
            cuts: Vec::new(),
            tickets: Vec::new(),
            pending: Vec::new(),
            ambiguous: false,
            first_err: None,
        }
    }

    /// The inputs chunk `chunk` carries.
    fn inputs(&self, chunk: usize) -> &[(RegisterId, usize)] {
        &self.routed[self.cuts[chunk]..self.cuts[chunk + 1]]
    }

    /// The register chunk `chunk` runs on, `None` past the last.
    fn reg_of(&self, chunk: usize) -> Option<RegisterId> {
        let start = *self.cuts.get(chunk)?;
        self.routed.get(start).map(|&(reg, _)| reg)
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

    /// Drives `batch` to its end.
    ///
    /// # Errors
    ///
    /// The call's first failure; every other input still ran to its end.
    fn run<K: AsRef<str>>(mut self, batch: &mut Batch<'_, K>) -> Result<(), KvError> {
        let kv = self.kv;
        self.launch(batch);
        self.drain(batch);
        // An operation left pending is this process's crash, recorded
        // once and only now that nothing else of it is in flight (a crash
        // recorded mid-flight would turn every other pending reply of
        // this process into a reply after its crash).
        if let (true, Some((recorder, pid))) = (self.ambiguous, &kv.recorder) {
            recorder.abandon(*pid);
        }
        self.first_err.map_or(Ok(()), Err)
    }

    /// Routes the call's inputs, cuts them into chunks and starts every
    /// register's first; the later ones follow as their predecessors end.
    fn launch<K: AsRef<str>>(&mut self, batch: &mut Batch<'_, K>) {
        let router = self.kv.router;
        let mut routed: Vec<_> = (0..batch.len())
            .map(|i| match batch {
                Batch::Raw { reg, .. } => (*reg, i),
                _ => (router.register_for(batch.key(i)), i),
            })
            .collect();
        self.cuts = batch.cut(&mut routed, self.kv.max_value_len());
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
        let home = self.inputs(chunk)[0].0;
        let (order, probe) = self.kv.rotation(home);
        let op = Active {
            chunk,
            order,
            at: 0,
            probe,
            inv: None,
            ambiguous: false,
            last_err: None,
            started: obs.op_clock(&*self.kv.world),
        };
        self.submit(batch, op);
    }

    /// Sends `op`'s register operation to the node its rotation stands
    /// at, moving on past nodes that are gone; with the rotation spent,
    /// the chunk ends in its last node failure.
    fn submit<K: AsRef<str>>(&mut self, batch: &mut Batch<'_, K>, mut op: Active) {
        loop {
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
                    self.kv.health.mark(node);
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
        let outcome = batch.complete(self, &mut op, done);
        self.end(batch, op, outcome);
    }

    /// Serves completions until the call has nothing in flight.
    fn drain<K: AsRef<str>>(&mut self, batch: &mut Batch<'_, K>) {
        let (kv, world) = (self.kv, &*self.kv.world);
        let metered = kv.obs.handle.metrics.is_enabled();
        while !self.pending.is_empty() {
            let until = world.now() + kv.patience;
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
            // The patience window passed with nothing settling: every
            // operation in flight has timed out on its node (late acks
            // are counted, never misdelivered).
            let tickets = std::mem::take(&mut self.tickets);
            for (ticket, op) in tickets.into_iter().zip(std::mem::take(&mut self.pending)) {
                world.cancel(ticket);
                self.node_failed(batch, op, ClientError::TimedOut);
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
        let keys = kv.shard_map().covering_keys("k-");
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
        let keys = kv.shard_map().covering_keys("f-");
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
        let keys = kv.shard_map().covering_keys("h-");
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
        // Clones share the counters.
        kv.clone().get("s").unwrap();
        assert_eq!(kv.stats().reads, 2);
        cluster.shutdown();
    }

    #[test]
    fn decayed_suspect_is_probed_before_full_rotation() {
        let (mut cluster, kv) = cluster_client(8);
        let kv = kv.with_health_cooldown(std::time::Duration::from_millis(40));
        let keys = kv.shard_map().covering_keys("p-");
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
        let keys = kv.shard_map().covering_keys("f-");
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
        let cuts = Batch::Gets(&keys, &mut []).cut(&mut gets, Some(0));
        assert_eq!(gets, [(a, 1), (a, 2), (a, 3), (a, 4), (b, 0)]);
        assert_eq!(
            cuts,
            [0, 4, 5],
            "one read per register, whatever the budget"
        );

        let puts = Batch::Puts(&entries, None);
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
        let twice = Batch::Puts(&twice, None);
        assert_eq!(twice.cut(&mut both, Some(budget)), [0, 1, 2]);
        assert_eq!(both, [(a, 0), (a, 1)]);
        let mut tiny = routed;
        assert_eq!(puts.cut(&mut tiny, Some(1)), [0, 1, 2, 3, 4, 5]);
        assert_eq!(puts.cut(&mut Vec::new(), None), [0]);
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
        let covering = kv.shard_map().covering_keys("a-");
        for key in &covering {
            kv.put(key, b"v".to_vec()).unwrap();
        }
        let recorded_before = recorder.history().events().len();
        // One key alone on its register, another twice on its own.
        let keys = [&covering[0], &covering[1], &covering[1]];
        let mut answers = vec![None; keys.len()];
        let mut batch = Batch::Gets(&keys, &mut answers);
        let mut flight = Flight::new(&kv);
        flight.launch(&mut batch);
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
