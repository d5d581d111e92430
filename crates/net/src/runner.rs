//! Hosting one automaton on real threads, sockets, timers and disk.
//!
//! The automaton and the operations invoked at it live in a
//! [`NodeCore`], the node core the simulator hosts too; the event loop
//! is its [`Host`], with a transport, a syncer, the wall clock, flight
//! events and `runner.*` metrics. A client operation goes to the
//! automaton the moment it arrives, busy register or not: the automaton
//! serializes each register's operations, and an operation starts —
//! `OpStart`, the trace its rounds carry — when the automaton begins it.
//!
//! Every node has **one event queue**: its transport, its syncer and its
//! clients all push `RunnerEvent`s onto it, and the event loop blocks
//! on that queue alone (until the next timer is due), so whoever has
//! work for the node wakes it by sending — nothing is polled.
//!
//! Durability runs on its own pipeline: the event loop forwards
//! [`Action::Store`](rmem_types::Action::Store) to the node's
//! `syncer` thread and keeps serving network messages,
//! timers and other registers' operations while the fsync is in flight;
//! the syncer group-commits whatever queued and posts the group's tokens
//! back onto the queue only after the covering fsync returned
//! (*ack-after-durable*, the real form of the paper's §V-A invariant). A
//! log failure halts the node — the crash-recovery model's prescription
//! for a process that can no longer trust its stable storage —
//! observable via [`ProcessRunner::store_failures`] /
//! [`ProcessRunner::is_halted`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use rmem_obs::{pack_wire_aux, EventKind, FlightEvent, FlightRecorder, ObsHandle};
use rmem_storage::records::KEY_WRITTEN;
use rmem_storage::{SnapshotView, StableStorage, StorageError};
use rmem_types::{
    Automaton, AutomatonFactory, Host, Input, Message, NodeCore, Op, OpId, OpResult, ProcessId,
    RegisterId, RejectReason, RequestId, StoreToken, TimerToken, TraceId,
};

use crate::error::ClientError;
use crate::pipeline::{Pipeline, PipelinedClient, Target};
use crate::syncer::{StoreRequest, Syncer};
use crate::transport::{Inbound, InboxSink, Transport};

/// Infrastructure slot counting process boots. Not one of the algorithm's
/// logs: it exists so a recovered incarnation gets a fresh request-nonce
/// space (see [`AutomatonFactory::recover`]), the moral equivalent of an
/// OS-assigned ephemeral port.
pub const KEY_BOOT_COUNT: &str = "_boot_count";

/// How many trailing flight-recorder events a halting node dumps to
/// stderr alongside its halt reason.
pub const HALT_DUMP_EVENTS: usize = 64;

/// How many queued events the loop handles before it looks at the timer
/// heap again. A handled event costs a few microseconds, so a retransmit
/// that comes due behind a flood fires about a millisecond late at
/// worst, while a burst still pays one heap check per batch, not per
/// event.
const DRAIN_BATCH: usize = 256;

/// Everything that can wake a node's event loop. All of it travels on
/// the node's one queue, in arrival order.
pub(crate) enum RunnerEvent {
    /// A protocol message, from the transport or from this node itself.
    Net(Inbound),
    /// One group commit returned: these stores are durable.
    StoresDurable(Vec<StoreToken>),
    /// The log failed; the node must halt (crash-recovery semantics).
    StoreFailed(StorageError),
    /// A client operation, and the call it completes.
    Invoke(Op, Call),
    Shutdown,
}

/// The [`InboxSink`] a node's transport is built with: what arrives goes
/// straight onto the node's event queue. From [`ProcessRunner::queue`].
#[derive(Debug)]
pub struct RunnerInbox(Sender<RunnerEvent>);

impl InboxSink for RunnerInbox {
    fn deliver(&self, inbound: Inbound) -> bool {
        self.0.send(RunnerEvent::Net(inbound)).is_ok()
    }
}

/// A node's event queue, made before the node exists so that its
/// transport can be built first. From [`ProcessRunner::queue`]; consumed
/// by [`ProcessRunner::start`].
#[derive(Debug)]
pub struct RunnerQueue {
    pub(crate) tx: Sender<RunnerEvent>,
    pub(crate) rx: Receiver<RunnerEvent>,
}

/// Stamps a flight event with a trace op id when one is known.
fn stamp(ev: FlightEvent, trace: Option<TraceId>) -> FlightEvent {
    match trace {
        Some(t) => ev.with_op(t.client, t.op),
        None => ev,
    }
}

/// A client family's **trace context**: the shared identity under which a
/// [`Client`] (and every clone created from the same context) stamps its
/// operations. Holds the family id, the per-op counter, and the client
/// ring that `ClientSend`/`ClientRecv` events land in.
pub struct TraceCtx {
    client: u16,
    counter: AtomicU64,
    ring: Arc<FlightRecorder>,
}

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCtx")
            .field("client", &(self.client & !TraceId::CLIENT_BIT))
            .finish()
    }
}

impl TraceCtx {
    /// A fresh family recording into `ring` (typically the kv client's
    /// own flight recorder).
    pub fn new(ring: Arc<FlightRecorder>) -> Self {
        TraceCtx {
            client: TraceId::fresh_client(),
            counter: AtomicU64::new(0),
            ring,
        }
    }

    /// The family id (client bit set) — the `pid` of this family's ring
    /// in a stitch.
    pub fn client_id(&self) -> u16 {
        self.client
    }

    /// The ring the family's client-side events land in.
    pub fn ring(&self) -> &Arc<FlightRecorder> {
        &self.ring
    }

    /// Allocates the next op id and records its `ClientSend`.
    pub(crate) fn begin(&self, reg: RegisterId, node: ProcessId) -> TraceId {
        let id = TraceId {
            client: self.client,
            op: self.counter.fetch_add(1, Ordering::Relaxed),
        };
        self.ring.record(
            FlightEvent::new(EventKind::ClientSend)
                .with_op(id.client, id.op)
                .with_register(reg.0)
                .with_aux(u64::from(node.0)),
        );
        id
    }

    /// Records the op's `ClientRecv` (only called for completions — a
    /// timed-out or rejected attempt leaves an unpaired `ClientSend`,
    /// which the stitcher ignores).
    pub(crate) fn finish(&self, id: TraceId, reg: RegisterId, node: ProcessId) {
        self.ring.record(
            FlightEvent::new(EventKind::ClientRecv)
                .with_op(id.client, id.op)
                .with_register(reg.0)
                .with_aux(u64::from(node.0)),
        );
    }
}

/// Remembers which trace op each in-flight replica request belongs to, so
/// the ack (sent later, possibly from the durability pipeline) can be
/// stamped and wire-propagated too. Bounded: oldest entries are evicted
/// first — a replica only ever has a handful of requests between arrival
/// and ack.
struct ReqTraces {
    map: HashMap<RequestId, TraceId>,
    order: std::collections::VecDeque<RequestId>,
    cap: usize,
}

impl ReqTraces {
    fn new(cap: usize) -> Self {
        ReqTraces {
            map: HashMap::new(),
            order: std::collections::VecDeque::new(),
            cap,
        }
    }

    /// Remembers `req → trace`. Returns `true` when the bound forced the
    /// oldest remembered request out (its ack, if it ever comes, will go
    /// unstamped) — callers surface that in `runner.trace_evictions`
    /// rather than letting the drop happen silently.
    fn insert(&mut self, req: RequestId, trace: TraceId) -> bool {
        if self.map.insert(req, trace).is_none() {
            self.order.push_back(req);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                    return true;
                }
            }
        }
        false
    }

    fn get(&self, req: &RequestId) -> Option<TraceId> {
        self.map.get(req).copied()
    }
}

/// What the runner keeps per invoked operation: its caller's family
/// (held weakly — a family whose every handle is gone is not kept alive
/// by its queued operations) and slot token there, the trace context it
/// arrived under (stamps every flight event it triggers).
pub(crate) struct Call {
    pub(crate) reply: Weak<Pipeline>,
    pub(crate) token: u64,
    pub(crate) trace: Option<TraceId>,
}

impl Call {
    /// Settles the call in its family's in-flight table and wakes the
    /// family. A family that is gone is not answered: nobody is left to
    /// wait.
    fn complete(&self, result: OpResult, rounds: u32) {
        if let Some(pipe) = self.reply.upgrade() {
            pipe.complete(self.token, result, rounds);
        }
    }
}

/// A handle for issuing operations to a running process.
///
/// Cheap to clone; operations block until the emulation completes them (or
/// the configured patience runs out — emulations cannot terminate without
/// a live majority, so patience is a liveness hedge, not a correctness
/// knob).
#[derive(Clone)]
pub struct Client {
    pipe: Arc<Pipeline>,
    timeout: Duration,
    trace: Option<Arc<TraceCtx>>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("me", &self.pipe.target(0).me)
            .field("timeout", &self.timeout)
            .field("max_payload", &self.pipe.target(0).max_payload)
            .field("traced", &self.trace.is_some())
            .finish()
    }
}

impl Client {
    /// Replaces the patience window (default 10 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Attaches (or with `None`, detaches) a trace context: every
    /// operation through this client is issued under a fresh [`TraceId`]
    /// from the context, bracketed by `ClientSend`/`ClientRecv` events in
    /// the context's ring, and the runner stamps and wire-propagates the
    /// id through every hop the operation touches.
    pub fn with_trace(mut self, ctx: Option<Arc<TraceCtx>>) -> Self {
        self.trace = ctx;
        self
    }

    /// The transport's frame ceiling for encoded messages, if any (e.g.
    /// `Some(64 998)` for UDP). `None` means unbounded.
    pub fn max_payload(&self) -> Option<usize> {
        self.pipe.target(0).max_payload
    }

    /// The largest value a write through this client can carry, if the
    /// transport is bounded: the frame ceiling minus the fixed wire
    /// overhead of a value-carrying protocol message.
    pub fn max_value_len(&self) -> Option<usize> {
        self.max_payload()
            .map(|limit| limit.saturating_sub(rmem_types::codec::VALUE_MSG_OVERHEAD))
    }

    /// A pipelined handle sharing this client's reactor (same node, same
    /// patience, same trace context): `submit` returns immediately, so
    /// one thread can keep many operations in flight. The blocking calls
    /// on this `Client` are exactly the depth-1 shim over the same
    /// machinery.
    pub fn pipelined(&self) -> PipelinedClient {
        PipelinedClient::from_parts(self.pipe.clone(), self.timeout, self.trace.clone())
    }

    /// The shared reactor behind this client.
    pub(crate) fn pipe(&self) -> &Arc<Pipeline> {
        &self.pipe
    }

    /// The configured patience window.
    pub(crate) fn patience(&self) -> Duration {
        self.timeout
    }

    /// The attached trace context, if any.
    pub(crate) fn trace_ctx(&self) -> Option<Arc<TraceCtx>> {
        self.trace.clone()
    }

    fn invoke(&self, operation: Op) -> Result<(OpResult, u32), ClientError> {
        let ticket = self.pipe.submit(0, operation, self.trace.as_deref())?;
        self.pipe.wait(ticket, self.timeout, self.trace.as_deref())
    }

    /// Writes `value` to the emulated register, blocking until the write
    /// terminates.
    ///
    /// It waits behind an operation in flight on the same register.
    ///
    /// # Errors
    ///
    /// [`ClientError::TooLarge`] if the value cannot fit the transport
    /// frame, [`ClientError::ProcessDown`] / [`ClientError::TimedOut`] as
    /// their names say.
    pub fn write(&self, value: rmem_types::Value) -> Result<(), ClientError> {
        self.invoke(Op::Write(value)).map(|_| ())
    }

    /// Reads the emulated register, blocking until the read terminates.
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write).
    pub fn read(&self) -> Result<rmem_types::Value, ClientError> {
        match self.invoke(Op::Read)? {
            (OpResult::ReadValue(v), _) => Ok(v),
            // A Written result for a read cannot happen; treat as down.
            _ => Err(ClientError::ProcessDown),
        }
    }

    /// Writes `value` to register `reg` of a shared memory (the hosted
    /// automaton must be a `SharedMemory`; a single-register automaton
    /// serves only [`RegisterId::ZERO`](rmem_types::RegisterId::ZERO)).
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write).
    pub fn write_at(
        &self,
        reg: rmem_types::RegisterId,
        value: rmem_types::Value,
    ) -> Result<(), ClientError> {
        self.invoke(Op::WriteAt(reg, value)).map(|_| ())
    }

    /// Reads register `reg` of a shared memory.
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write).
    pub fn read_at(&self, reg: rmem_types::RegisterId) -> Result<rmem_types::Value, ClientError> {
        self.read_at_counted(reg).map(|(v, _)| v)
    }

    /// As [`read_at`](Self::read_at), additionally reporting how many
    /// quorum round-trips the read performed: 1 when the register
    /// emulation's fast path (or single-round flavor) answered from the
    /// query round alone, 2 when it paid the write-back round. The store
    /// layers aggregate these into their per-operation round statistics.
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write).
    pub fn read_at_counted(
        &self,
        reg: rmem_types::RegisterId,
    ) -> Result<(rmem_types::Value, u32), ClientError> {
        match self.invoke(Op::ReadAt(reg))? {
            (OpResult::ReadValue(v), rounds) => Ok((v, rounds)),
            _ => Err(ClientError::ProcessDown),
        }
    }

    /// As [`write_at`](Self::write_at), additionally reporting the quorum
    /// round-trips the write performed (2 with the query round, 1 for the
    /// single-writer regular flavor).
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write).
    pub fn write_at_counted(
        &self,
        reg: rmem_types::RegisterId,
        value: rmem_types::Value,
    ) -> Result<u32, ClientError> {
        self.invoke(Op::WriteAt(reg, value))
            .map(|(_, rounds)| rounds)
    }
}

/// One hosted process: an automaton, a transport, a timer heap, an
/// event-loop thread and a syncer thread owning the stable storage.
pub struct ProcessRunner {
    me: ProcessId,
    tx: Sender<RunnerEvent>,
    handle: Option<std::thread::JoinHandle<Box<dyn StableStorage>>>,
    transport: Arc<dyn Transport>,
    store_failures: Arc<AtomicU64>,
    obs: ObsHandle,
}

impl std::fmt::Debug for ProcessRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessRunner")
            .field("me", &self.me)
            .finish()
    }
}

impl ProcessRunner {
    /// A fresh event queue and the inbox feeding it: build the node's
    /// transport with the inbox, then hand the queue to
    /// [`start`](Self::start).
    pub fn queue() -> (RunnerInbox, RunnerQueue) {
        let (tx, rx) = unbounded();
        (RunnerInbox(tx.clone()), RunnerQueue { tx, rx })
    }

    /// Starts a process: decides fresh-boot vs recovery from the
    /// `_boot_count` slot in `storage`, builds the automaton accordingly
    /// and spins up the event loop.
    ///
    /// `queue` must come from the same [`queue`](Self::queue) call as the
    /// inbox `transport` was built with, or the node never hears its
    /// peers.
    pub fn start(
        factory: &dyn AutomatonFactory,
        storage: Box<dyn StableStorage>,
        transport: Arc<dyn Transport>,
        queue: RunnerQueue,
    ) -> Self {
        Self::start_with_obs(factory, storage, transport, queue, ObsHandle::new())
    }

    /// As [`start`](Self::start), with an explicit observability handle —
    /// how [`LocalCluster`](crate::LocalCluster) gives each node a
    /// registry and flight recorder that survive kill/restart (the handle
    /// outlives the incarnation, so an experiment's metrics accumulate).
    pub fn start_with_obs(
        factory: &dyn AutomatonFactory,
        mut storage: Box<dyn StableStorage>,
        transport: Arc<dyn Transport>,
        queue: RunnerQueue,
        obs: ObsHandle,
    ) -> Self {
        let me = transport.local();
        let n = transport.cluster_size();

        let boot_count = storage
            .retrieve(KEY_BOOT_COUNT)
            .ok()
            .flatten()
            .and_then(|b| b.as_ref().try_into().ok().map(u64::from_be_bytes))
            .unwrap_or(0);
        // A process that has durably adopted anything before has run
        // before: treat it as recovering even if the boot counter is
        // missing (e.g. pre-upgrade data).
        let has_history = boot_count > 0 || storage.retrieve(KEY_WRITTEN).ok().flatten().is_some();
        let automaton = if has_history {
            factory.recover(me, n, boot_count, &SnapshotView::new(storage.as_ref()))
        } else {
            factory.fresh(me, n)
        };
        let _ = storage.store(
            KEY_BOOT_COUNT,
            bytes::Bytes::from((boot_count + 1).to_be_bytes().to_vec()),
        );

        let tx = queue.tx.clone();
        let loop_transport = transport.clone();
        let store_failures = Arc::new(AtomicU64::new(0));
        let loop_failures = store_failures.clone();
        let loop_obs = obs.clone();
        let handle = std::thread::Builder::new()
            .name(format!("rmem-proc-{me}"))
            .spawn(move || {
                run_loop(
                    automaton,
                    storage,
                    loop_transport,
                    queue,
                    me,
                    boot_count,
                    has_history,
                    loop_failures,
                    loop_obs,
                )
            })
            .expect("spawning the process event loop");

        ProcessRunner {
            me,
            tx,
            handle: Some(handle),
            transport,
            store_failures,
            obs,
        }
    }

    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// How many stable-storage commits have failed on this node. Per the
    /// crash-recovery model the first failure halts the node, so this is
    /// effectively a halted-because-of-disk flag that health checks and
    /// tests can poll without joining the thread.
    pub fn store_failures(&self) -> u64 {
        self.store_failures.load(Ordering::Relaxed)
    }

    /// Whether the event loop has exited — either an orderly shutdown or
    /// the clean halt a log failure forces.
    pub fn is_halted(&self) -> bool {
        self.handle.as_ref().is_none_or(|h| h.is_finished())
    }

    /// This node's observability handle (registry + flight recorder).
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// This node's flight recorder — dump it after a failure to see the
    /// event trail that led there.
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        self.obs.flight.clone()
    }

    /// A point-in-time copy of this node's metrics.
    pub fn metrics(&self) -> rmem_obs::MetricsSnapshot {
        self.obs.metrics.snapshot()
    }

    /// A client handle for this process. Each call builds a fresh
    /// reactor (the in-flight table this node completes into); clones of
    /// the returned client — and pipelined handles derived from it —
    /// share it.
    pub fn client(&self) -> Client {
        Client {
            pipe: Arc::new(Pipeline::new(vec![Target {
                tx: self.tx.clone(),
                me: self.me,
                max_payload: self.transport.max_payload(),
            }])),
            timeout: Duration::from_secs(10),
            trace: None,
        }
    }

    /// Stops the process (gracefully for the thread; abruptly from the
    /// protocol's point of view — like a crash, nothing is flushed beyond
    /// what was already stored). Returns the storage so a later incarnation
    /// can recover from it.
    pub fn stop(mut self) -> Box<dyn StableStorage> {
        let _ = self.tx.send(RunnerEvent::Shutdown);
        self.transport.shutdown();
        let handle = self.handle.take().expect("stop called once");
        handle.join().expect("process loop panicked")
    }
}

impl Drop for ProcessRunner {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.tx.send(RunnerEvent::Shutdown);
            self.transport.shutdown();
            let _ = handle.join();
        }
    }
}

/// The runner-side metric handles, resolved once per incarnation.
struct LoopMetrics {
    ops_started: Arc<rmem_obs::Counter>,
    ops_completed: Arc<rmem_obs::Counter>,
    msgs_in: Arc<rmem_obs::Counter>,
    msgs_out: Arc<rmem_obs::Counter>,
    stores_queued: Arc<rmem_obs::Counter>,
    stores_durable: Arc<rmem_obs::Counter>,
    timer_fires: Arc<rmem_obs::Counter>,
    trace_evictions: Arc<rmem_obs::Counter>,
    queued: Arc<rmem_obs::Gauge>,
    recovery_micros: Arc<rmem_obs::Histogram>,
}

impl LoopMetrics {
    fn resolve(obs: &ObsHandle) -> Self {
        LoopMetrics {
            ops_started: obs.metrics.counter("runner.ops_started"),
            ops_completed: obs.metrics.counter("runner.ops_completed"),
            msgs_in: obs.metrics.counter("runner.msgs_in"),
            msgs_out: obs.metrics.counter("runner.msgs_out"),
            stores_queued: obs.metrics.counter("runner.stores_queued"),
            stores_durable: obs.metrics.counter("runner.stores_durable"),
            timer_fires: obs.metrics.counter("runner.timer_fires"),
            trace_evictions: obs.metrics.counter("runner.trace_evictions"),
            queued: obs.metrics.gauge("runner.queued"),
            recovery_micros: obs.metrics.histogram("runner.recovery_micros"),
        }
    }
}

/// The `durable` attestation an ack carries: it matters for the read
/// fast path, so it rides along in the flight events.
fn ack_durable(msg: &Message) -> bool {
    match msg {
        Message::ReadAck { durable, .. } => *durable,
        _ => true,
    }
}

/// The event loop's state beside its [`NodeCore`]: everything the
/// runtime keeps on the automaton's behalf — the core's [`Host`].
struct Node {
    me: ProcessId,
    transport: Arc<dyn Transport>,
    /// The durability pipeline: stores leave the loop through the
    /// syncer's queue and come back as `StoresDurable` only after their
    /// group's fsync, so an fsync in flight on one register never stalls
    /// another register's round.
    syncer: Syncer,
    /// This node's own queue: where messages it addresses to itself go.
    own: Sender<RunnerEvent>,
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    timer_tokens: HashMap<u64, TimerToken>,
    timer_seq: u64,
    /// When this recovered incarnation was handed `Start`, until its
    /// automaton first reports ready (feeds `runner.recovery_micros`,
    /// one sample per incarnation; `None` on a fresh boot).
    recovering_since: Option<Instant>,
    /// The trace context of what the step at hand does: the input's,
    /// until an operation begins in it (stamps its stores).
    ctx: Option<TraceId>,
    // Trace plumbing: which client op each in-flight replica request and
    // each queued store belongs to (both maps are drained as requests are
    // acked and stores commit; ReqTraces additionally evicts by age).
    req_traces: ReqTraces,
    token_traces: HashMap<u64, TraceId>,
    mx: LoopMetrics,
    obs: ObsHandle,
}

impl Host<Call> for Node {
    /// Requests belong to the operation begun on their register (robust
    /// across retransmits from timers; a lease renewal is nobody's); acks
    /// to the request that asked for them.
    fn send(&mut self, to: ProcessId, msg: Message, op: Option<&Call>) {
        self.mx.msgs_out.inc();
        let req = msg.request_id();
        let (kind, trace, durable) = if msg.is_request() {
            (EventKind::RoundSent, op.and_then(|c| c.trace), false)
        } else {
            (
                EventKind::AckSent,
                self.req_traces.get(&req),
                ack_durable(&msg),
            )
        };
        self.obs.flight.record(stamp(
            FlightEvent::new(kind)
                .with_register(req.reg.0)
                .with_aux(pack_wire_aux(to.0, req.nonce, durable)),
            trace,
        ));
        if to == self.me {
            // To our own replica: straight onto our queue, behind what is
            // already there — no codec, no socket, no receiver thread.
            let from = self.me;
            let looped = RunnerEvent::Net(Inbound { from, msg, trace });
            let _ = self.own.send(looped);
        } else {
            // Fair-lossy: a failed send is a lost message.
            let _ = self.transport.send_traced(to, &msg, trace);
        }
    }

    /// Stores are asynchronous (the automaton contract): queued for the
    /// syncer, and the loop moves on.
    fn store(&mut self, token: StoreToken, key: String, bytes: bytes::Bytes) {
        self.mx.stores_queued.inc();
        self.obs.flight.record(stamp(
            FlightEvent::new(EventKind::StoreQueued).with_aux(token.0),
            self.ctx,
        ));
        if let Some(trace) = self.ctx {
            self.token_traces.insert(token.0, trace);
        }
        if !self.syncer.submit(StoreRequest { token, key, bytes }) {
            // The syncer is gone. If it failed, its verdict is ahead of
            // this one on the queue; if it died without one, this halts
            // the node all the same.
            let _ = self.own.send(RunnerEvent::StoreFailed(StorageError::io(
                "syncer",
                std::io::Error::other("syncer exited without a verdict"),
            )));
        }
    }

    fn arm_timer(&mut self, token: TimerToken, after: rmem_types::Micros) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timer_tokens.insert(seq, token);
        self.timers
            .push(Reverse((Instant::now() + Duration::from(after), seq)));
    }

    fn began(&mut self, op: OpId, reg: RegisterId, call: &mut Call) {
        self.mx.ops_started.inc();
        let ev = FlightEvent::new(EventKind::OpStart).with_register(reg.0);
        let ev = ev.with_op(op.pid.0, op.counter);
        self.obs.flight.record(stamp(ev, call.trace));
        self.ctx = call.trace;
    }

    fn completed(&mut self, op: OpId, call: Call, result: OpResult, rounds: u32) {
        self.mx.ops_completed.inc();
        let ev = FlightEvent::new(EventKind::OpComplete).with_aux(u64::from(rounds));
        let ev = ev.with_op(op.pid.0, op.counter);
        self.obs.flight.record(stamp(ev, call.trace));
        call.complete(result, rounds);
    }

    fn ready(&mut self) {
        if let Some(since) = self.recovering_since.take() {
            self.mx
                .recovery_micros
                .record(since.elapsed().as_micros() as u64);
        }
    }
}

impl Node {
    /// Feeds one input to `core` under trace context `ctx`.
    fn step(&mut self, core: &mut NodeCore<Call>, ctx: Option<TraceId>, input: Input) {
        self.ctx = ctx;
        core.feed(self, input);
        self.mx.queued.set(core.queued() as u64);
    }

    fn fire_due_timers(&mut self, core: &mut NodeCore<Call>) {
        let now = Instant::now();
        while let Some(Reverse((deadline, seq))) = self.timers.peek().copied() {
            if deadline > now {
                break;
            }
            self.timers.pop();
            if let Some(token) = self.timer_tokens.remove(&seq) {
                self.mx.timer_fires.inc();
                self.step(core, None, Input::Timer(token));
            }
        }
    }

    fn on_net(&mut self, core: &mut NodeCore<Call>, Inbound { from, msg, trace }: Inbound) {
        self.mx.msgs_in.inc();
        let req = msg.request_id();
        let (kind, durable) = if msg.is_request() {
            if let Some(trace) = trace {
                // Remember the op so the ack (possibly sent later, from
                // the durability pipeline) carries it too.
                if self.req_traces.insert(req, trace) {
                    self.mx.trace_evictions.inc();
                }
            }
            (EventKind::ReqRecv, false)
        } else {
            // An ack round-trip closing.
            (EventKind::AckRecv, ack_durable(&msg))
        };
        self.obs.flight.record(stamp(
            FlightEvent::new(kind)
                .with_register(req.reg.0)
                .with_aux(pack_wire_aux(from.0, req.nonce, durable)),
            trace,
        ));
        self.step(core, trace, Input::Message { from, msg });
    }

    fn on_store_durable(&mut self, core: &mut NodeCore<Call>, token: StoreToken) {
        self.mx.stores_durable.inc();
        let trace = self.token_traces.remove(&token.0);
        self.obs.flight.record(stamp(
            FlightEvent::new(EventKind::StoreDurable).with_aux(token.0),
            trace,
        ));
        self.step(core, trace, Input::StoreDone(token));
    }
}

#[allow(clippy::too_many_arguments)]
fn run_loop(
    automaton: Box<dyn Automaton>,
    storage: Box<dyn StableStorage>,
    transport: Arc<dyn Transport>,
    queue: RunnerQueue,
    me: ProcessId,
    boot_count: u64,
    recovered: bool,
    store_failures: Arc<AtomicU64>,
    obs: ObsHandle,
) -> Box<dyn StableStorage> {
    let RunnerQueue { tx: own, rx } = queue;
    let mut core = NodeCore::new(automaton);
    let mut node = Node {
        me,
        transport,
        syncer: Syncer::spawn_with_obs(me, storage, own.clone(), store_failures, obs.clone()),
        own,
        timers: BinaryHeap::new(),
        timer_tokens: HashMap::new(),
        timer_seq: 0,
        recovering_since: recovered.then(Instant::now),
        ctx: None,
        req_traces: ReqTraces::new(4096),
        token_traces: HashMap::new(),
        mx: LoopMetrics::resolve(&obs),
        obs,
    };
    let mut op_counter = boot_count << 32;
    node.step(&mut core, None, Input::Start);

    'run: loop {
        node.fire_due_timers(&mut core);
        let patience = node
            .timers
            .peek()
            .map(|Reverse((deadline, _))| deadline.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(100));

        // The loop's one blocking point: sleep until the next timer is
        // due or until anyone — transport, syncer, a client, this node
        // itself — queues an event; the sender's `send` is the wake-up.
        // Then handle what is queued, in arrival order, and go back to
        // the timers after a bounded batch.
        let first = match rx.recv_timeout(patience) {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => continue,
            // Unreachable while `node.own` lives; never spin on it.
            Err(RecvTimeoutError::Disconnected) => break,
        };
        for event in std::iter::once(first)
            .chain(rx.try_iter())
            .take(DRAIN_BATCH)
        {
            match event {
                RunnerEvent::Net(inbound) => node.on_net(&mut core, inbound),
                RunnerEvent::StoresDurable(tokens) => {
                    for token in tokens {
                        node.on_store_durable(&mut core, token);
                    }
                }
                RunnerEvent::StoreFailed(e) => {
                    // The log failed: per the crash-recovery model the
                    // process crashes rather than run ahead of its stable
                    // storage. Halt cleanly — in-flight operations see
                    // ProcessDown, the disk survives for a restart — and
                    // leave a postmortem: the structured Halt event plus
                    // the tail of the flight recorder.
                    let reason = format!("stable storage failed: {e}");
                    node.obs.flight.halt(&reason);
                    eprintln!(
                        "rmem[{me}]: {reason}; halting the node\n\
                         rmem[{me}]: last events before the halt:\n{}",
                        node.obs.flight.dump_timeline(HALT_DUMP_EVENTS)
                    );
                    break 'run;
                }
                // A client operation arrived: the automaton has it at
                // once, and begins it now or once its register is free.
                RunnerEvent::Invoke(operation, call) => {
                    let op = OpId::new(me, op_counter);
                    op_counter += 1;
                    node.ctx = None;
                    core.invoke(&mut node, op, operation, call);
                    node.mx.queued.set(core.queued() as u64);
                }
                RunnerEvent::Shutdown => break 'run,
            }
        }
    }
    // Every exit path lands here. Fail what will never complete: first
    // the invocations still queued (or racing in as the loop exits), then
    // every operation invoked at the automaton, begun or waiting — without
    // this, a pipelined waiter would burn its full patience window on an
    // operation whose emulation is gone (the crash-recovery model's
    // "crashed with the operation pending").
    let shutdown = || OpResult::Rejected(RejectReason::Shutdown);
    for event in rx.try_iter() {
        if let RunnerEvent::Invoke(_, call) = event {
            call.complete(shutdown(), 0);
        }
    }
    for (_, call) in core.lose() {
        call.complete(shutdown(), 0);
    }
    node.mx.queued.set(0);
    node.syncer.stop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelTransport, Switchboard};
    use crate::pipeline::Ticket;
    use rmem_core::Transient;
    use rmem_storage::MemStorage;
    use rmem_types::{Action, Value};

    fn spin_cluster(n: usize, factory: Arc<dyn AutomatonFactory>) -> Vec<ProcessRunner> {
        let board = Switchboard::new(n);
        (0..n as u16)
            .map(|i| {
                let (inbox, queue) = ProcessRunner::queue();
                let transport =
                    Arc::new(ChannelTransport::new(ProcessId(i), n, board.clone(), inbox));
                ProcessRunner::start(
                    factory.as_ref(),
                    Box::new(MemStorage::new()),
                    transport,
                    queue,
                )
            })
            .collect()
    }

    #[test]
    fn req_traces_evict_oldest_first_and_report_it() {
        let mut traces = ReqTraces::new(2);
        let req = |nonce| RequestId::new(ProcessId(0), nonce);
        let trace = |op| TraceId { client: 1, op };
        assert!(!traces.insert(req(0), trace(0)));
        assert!(!traces.insert(req(1), trace(1)));
        // Re-inserting a known request neither grows nor evicts.
        assert!(!traces.insert(req(1), trace(1)));
        // The third distinct request pushes out the oldest (req 0), and
        // the caller is told so it can count the eviction.
        assert!(traces.insert(req(2), trace(2)));
        assert_eq!(traces.get(&req(0)), None);
        assert_eq!(traces.get(&req(1)), Some(trace(1)));
        assert_eq!(traces.get(&req(2)), Some(trace(2)));
    }

    #[test]
    fn write_then_read_through_real_threads() {
        let runners = spin_cluster(3, Transient::factory());
        runners[0]
            .client()
            .write(Value::from_u32(7))
            .expect("write");
        let v = runners[1].client().read().expect("read");
        assert_eq!(v.as_u32(), Some(7));
        for r in runners {
            r.stop();
        }
    }

    #[test]
    fn a_second_invocation_waits_for_the_first() {
        let runners = spin_cluster(3, Transient::factory());
        let client = runners[0].client().pipelined();
        // One queue, in order: the read arrives while the write is in
        // flight or after it, and either way begins after it completes.
        let write = client.submit(0, Op::Write(Value::from_u32(1))).unwrap();
        let read = client.submit(0, Op::Read).unwrap();
        let (read, _) = client.wait(read).expect("the read waits, then completes");
        assert_eq!(read, OpResult::ReadValue(Value::from_u32(1)));
        assert_eq!(client.wait(write).unwrap().0, OpResult::Written);
        let metrics = runners[0].metrics();
        assert_eq!(metrics.counter("runner.ops_started"), 2);
        assert_eq!(metrics.gauge("runner.queued"), 0, "nothing left waiting");
        for r in runners {
            r.stop();
        }
    }

    /// A client family submitting to `queue`'s node, usable before the
    /// node starts (so what it submits is queued in a known order).
    fn family(queue: &RunnerQueue) -> Arc<Pipeline> {
        Arc::new(Pipeline::new(vec![Target {
            tx: queue.tx.clone(),
            me: ProcessId(0),
            max_payload: None,
        }]))
    }

    /// Waits out `ticket` and asserts it failed with its node.
    fn settles_down(pipe: &Pipeline, ticket: Ticket) {
        let settled = pipe.wait(ticket, Duration::from_secs(5), None);
        assert_eq!(settled, Err(ClientError::ProcessDown));
    }

    #[test]
    fn waiters_queue_per_register_and_fail_with_the_node() {
        let (inbox, queue) = ProcessRunner::queue();
        let pipe = family(&queue);
        // Reads that can never finish (the two peers do not exist): the
        // first on register 0 is admitted, the other two wait behind it;
        // register 1's is admitted beside them.
        let tickets: Vec<Ticket> = [0, 0, 1, 0]
            .map(|reg| pipe.submit(0, Op::ReadAt(RegisterId(reg)), None).unwrap())
            .into();
        let transport = Arc::new(ChannelTransport::new(
            ProcessId(0),
            3,
            Switchboard::new(3),
            inbox,
        ));
        let runner = ProcessRunner::start(
            rmem_core::SharedMemory::factory(Transient::flavor()).as_ref(),
            Box::new(MemStorage::new()),
            transport,
            queue,
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while runner.metrics().counter("runner.ops_started") < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let metrics = runner.metrics();
        assert_eq!(metrics.counter("runner.ops_started"), 2, "one per register");
        assert_eq!(metrics.gauge("runner.queued"), 2);
        runner.stop();
        for ticket in tickets {
            settles_down(&pipe, ticket);
        }
        assert_eq!(pipe.in_flight(), 0, "waiters fail with the node");
    }

    /// A family dropped while its operations are queued is not answered —
    /// the queue holds it weakly — and the register it left busy serves
    /// the next family in arrival order.
    #[test]
    fn a_dropped_familys_queue_hands_the_register_on() {
        // One node is its own majority: every round is a loop through
        // its own queue, so A's first write is in flight while the rest
        // wait behind it.
        let (inbox, queue) = ProcessRunner::queue();
        let a = family(&queue);
        let reg = RegisterId(3);
        a.submit(0, Op::WriteAt(reg, Value::from_u32(1)), None)
            .unwrap();
        a.submit(0, Op::WriteAt(reg, Value::from_u32(2)), None)
            .unwrap();
        let gone = Arc::downgrade(&a);
        drop(a);
        assert!(gone.upgrade().is_none(), "queued ops keep no family alive");
        let b = family(&queue);
        let read = b.submit(0, Op::ReadAt(reg), None).unwrap();
        let transport = Arc::new(ChannelTransport::new(
            ProcessId(0),
            1,
            Switchboard::new(1),
            inbox,
        ));
        let runner = ProcessRunner::start(
            rmem_core::SharedMemory::factory(Transient::flavor()).as_ref(),
            Box::new(MemStorage::new()),
            transport,
            queue,
        );
        let (result, _) = b.wait(read, Duration::from_secs(5), None).unwrap();
        assert_eq!(result, OpResult::ReadValue(Value::from_u32(2)), "FIFO");
        let metrics = runner.metrics();
        assert_eq!(metrics.counter("runner.ops_completed"), 3);
        assert_eq!(metrics.gauge("runner.queued"), 0);
        assert_eq!((b.in_flight(), b.late_acks()), (0, 0));
        runner.stop();
    }

    #[test]
    fn distinct_registers_run_concurrently_through_one_runner() {
        let runners = spin_cluster(3, rmem_core::SharedMemory::factory(Transient::flavor()));
        let client = runners[0].client();
        // Many threads, one register each: every operation must succeed.
        // (That none waits on another register's is pinned by
        // `waiters_queue_per_register_and_fail_with_the_node`.)
        let handles: Vec<_> = (0..8u16)
            .map(|r| {
                let c = client.clone();
                std::thread::spawn(move || {
                    c.write_at(rmem_types::RegisterId(r), Value::from_u32(r as u32 + 1))?;
                    c.read_at(rmem_types::RegisterId(r))
                })
            })
            .collect();
        for (r, h) in handles.into_iter().enumerate() {
            let v = h.join().unwrap().expect("concurrent op must complete");
            assert_eq!(v.as_u32(), Some(r as u32 + 1));
        }
        for r in runners {
            r.stop();
        }
    }

    /// A scripted automaton for the queue-discipline tests: logs every
    /// input with its time, arms one 2 ms timer at start, takes 2 µs per
    /// message, completes an invocation at once.
    struct Scripted(Arc<parking_lot::Mutex<Vec<(Instant, &'static str)>>>);

    impl Automaton for Scripted {
        fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
            let at = Instant::now();
            let what = match input {
                Input::Start => {
                    out.push(Action::SetTimer {
                        token: TimerToken(0),
                        after: rmem_types::Micros(2_000),
                    });
                    "start"
                }
                Input::Message { .. } => {
                    while at.elapsed() < Duration::from_micros(2) {}
                    "msg"
                }
                Input::Timer(_) => "timer",
                Input::Invoke { op, .. } => {
                    out.push(Action::Complete {
                        op,
                        result: OpResult::Written,
                        rounds: 0,
                    });
                    "invoke"
                }
                _ => "other",
            };
            self.0.lock().push((at, what));
        }

        /// Completes every invocation in its own step: none is ever
        /// active after it.
        fn active(&self, _reg: RegisterId) -> Option<OpId> {
            None
        }

        fn algorithm(&self) -> &'static str {
            "scripted"
        }
    }

    impl AutomatonFactory for Scripted {
        fn fresh(&self, _me: ProcessId, _n: usize) -> Box<dyn Automaton> {
            Box::new(Scripted(self.0.clone()))
        }

        fn recover(
            &self,
            me: ProcessId,
            n: usize,
            _incarnation: u64,
            _stable: &dyn rmem_types::StableSnapshot,
        ) -> Box<dyn Automaton> {
            self.fresh(me, n)
        }

        fn algorithm(&self) -> &'static str {
            "scripted"
        }
    }

    fn read_at(pipe: &Arc<Pipeline>, reg: u16) -> Ticket {
        pipe.submit(0, Op::ReadAt(RegisterId(reg)), None).unwrap()
    }

    #[test]
    fn the_queue_is_fifo_and_a_flood_cannot_starve_a_timer() {
        const FLOOD: usize = 10_000;
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (inbox, queue) = ProcessRunner::queue();
        // Queued before the loop exists, so the order is exact: the
        // flood, then the invocation.
        for nonce in 0..FLOOD as u64 {
            let req = RequestId::new(ProcessId(1), nonce);
            inbox.deliver(Inbound {
                from: ProcessId(1),
                msg: Message::SnReq { req },
                trace: None,
            });
        }
        let pipe = family(&queue);
        let ticket = read_at(&pipe, 7);
        let transport = Arc::new(ChannelTransport::new(
            ProcessId(0),
            1,
            Switchboard::new(1),
            inbox,
        ));
        let runner = ProcessRunner::start(
            &Scripted(log.clone()),
            Box::new(MemStorage::new()),
            transport,
            queue,
        );
        let settled = pipe.wait(ticket, Duration::from_secs(10), None);
        assert_eq!(settled, Ok((OpResult::Written, 0)));
        runner.stop();

        let log = log.lock();
        assert_eq!(log[0].1, "start");
        assert_eq!(log.last().unwrap().1, "invoke", "admitted behind the flood");
        assert_eq!(log.iter().filter(|(_, what)| *what == "msg").count(), FLOOD);
        // The timer came due 2 ms in — mid-flood, which takes ≥ 20 ms —
        // and must have fired within one batch of that moment, not after
        // the queue ran dry.
        let due = log[0].0 + Duration::from_millis(2);
        let msgs_before = |t: Instant| {
            log.iter()
                .filter(|(at, what)| *what == "msg" && *at < t)
                .count()
        };
        let fired = log
            .iter()
            .find(|(_, what)| *what == "timer")
            .expect("fired")
            .0;
        assert!(fired >= due, "a timer never fires early");
        // (The runner arms the timer a moment after the automaton logged
        // its start; 200 µs covers that and a preemption in between.)
        let slack = Duration::from_micros(200);
        assert!(
            msgs_before(fired) <= msgs_before(due + slack) + DRAIN_BATCH,
            "timer due after {} messages fired after {}",
            msgs_before(due),
            msgs_before(fired)
        );
        assert!(msgs_before(fired) < FLOOD, "the flood starved the timer");
    }

    #[test]
    fn shutdown_behind_a_backlog_answers_every_queued_invoke() {
        let (inbox, queue) = ProcessRunner::queue();
        let pipe = family(&queue);
        // 100 reads that can never finish (the two peers do not exist),
        // the shutdown behind them, and 50 more invocations behind that.
        let mut tickets: Vec<Ticket> = (0..100).map(|reg| read_at(&pipe, reg)).collect();
        assert!(queue.tx.send(RunnerEvent::Shutdown).is_ok());
        tickets.extend((100..150).map(|reg| read_at(&pipe, reg)));
        let transport = Arc::new(ChannelTransport::new(
            ProcessId(0),
            3,
            Switchboard::new(3),
            inbox,
        ));
        let runner = ProcessRunner::start(
            rmem_core::SharedMemory::factory(Transient::flavor()).as_ref(),
            Box::new(MemStorage::new()),
            transport,
            queue,
        );
        // Every queued invocation is answered.
        for ticket in tickets {
            settles_down(&pipe, ticket);
        }
        assert_eq!(pipe.in_flight(), 0);
        runner.stop();
    }

    /// An automaton that takes its one invocation over only at a later
    /// input. The invocation sends a request on its register and arms a
    /// 20 ms timer; that timer names the operation active, sends again
    /// and arms a 5 ms one, which completes it.
    #[derive(Default)]
    struct Later {
        invoked: Option<OpId>,
        active: Option<OpId>,
    }

    impl Automaton for Later {
        fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
            let probe = |nonce| Action::Send {
                to: ProcessId(0),
                msg: Message::SnReq {
                    req: RequestId::new(ProcessId(0), nonce),
                },
            };
            let timer = |token, micros| Action::SetTimer {
                token: TimerToken(token),
                after: rmem_types::Micros(micros),
            };
            match input {
                Input::Invoke { op, .. } => {
                    self.invoked = Some(op);
                    out.extend([probe(0), timer(1, 20_000)]);
                }
                Input::Timer(TimerToken(1)) => {
                    self.active = self.invoked;
                    out.extend([probe(1), timer(2, 5_000)]);
                }
                Input::Timer(TimerToken(2)) => {
                    out.extend(self.active.take().map(|op| Action::Complete {
                        op,
                        result: OpResult::Written,
                        rounds: 1,
                    }))
                }
                _ => {}
            }
        }

        fn active(&self, _reg: RegisterId) -> Option<OpId> {
            self.active
        }

        fn algorithm(&self) -> &'static str {
            "later"
        }
    }

    impl AutomatonFactory for Later {
        fn fresh(&self, _me: ProcessId, _n: usize) -> Box<dyn Automaton> {
            Box::new(Later::default())
        }

        fn recover(
            &self,
            me: ProcessId,
            n: usize,
            _incarnation: u64,
            _stable: &dyn rmem_types::StableSnapshot,
        ) -> Box<dyn Automaton> {
            self.fresh(me, n)
        }

        fn algorithm(&self) -> &'static str {
            "later"
        }
    }

    /// An operation starts when the automaton names it active, not when
    /// it arrives: its `OpStart` is stamped there, and a request sent on
    /// its register before then is nobody's — it carries no trace id.
    #[test]
    fn an_operation_starts_when_the_automaton_names_it() {
        let (inbox, queue) = ProcessRunner::queue();
        let transport = Arc::new(ChannelTransport::new(
            ProcessId(0),
            1,
            Switchboard::new(1),
            inbox,
        ));
        let runner = ProcessRunner::start(
            &Later::default(),
            Box::new(MemStorage::new()),
            transport,
            queue,
        );
        let ctx = Arc::new(TraceCtx::new(Arc::new(FlightRecorder::new(64))));
        let traced = Some((ctx.client_id(), 0));
        let client = runner.client().with_trace(Some(ctx));
        client.write(Value::from_u32(1)).unwrap();
        let events = runner.flight_recorder().dump();
        let of = |kind| events.iter().filter(move |e| e.kind == kind);
        let sent: Vec<_> = of(EventKind::RoundSent).collect();
        let [nobodys, its] = sent[..] else {
            panic!("two requests: {sent:?}")
        };
        assert_eq!((nobodys.op, its.op), (None, traced));
        let start = of(EventKind::OpStart).next().expect("started");
        assert_eq!(start.op, traced);
        assert!(start.at_micros >= nobodys.at_micros + 20_000, "{start:?}");
        // Counted from its arrival it would be ≥ 25 ms: timers never fire
        // early.
        let done = of(EventKind::OpComplete).next().expect("completed");
        let took = done.at_micros - start.at_micros;
        assert!((5_000..25_000).contains(&took), "{took} µs");
        runner.stop();
    }

    #[test]
    fn storage_comes_back_from_stop() {
        let runners = spin_cluster(3, Transient::factory());
        runners[0].client().write(Value::from_u32(5)).unwrap();
        let mut storages: Vec<_> = runners.into_iter().map(|r| r.stop()).collect();
        // At least a majority logged the value.
        let holders = storages
            .iter_mut()
            .filter(|s| {
                s.retrieve(rmem_storage::records::KEY_WRITTEN)
                    .ok()
                    .flatten()
                    .and_then(|b| rmem_storage::records::WrittenRecord::decode(&b).ok())
                    .is_some_and(|r| r.value.as_u32() == Some(5))
            })
            .count();
        assert!(holders >= 2, "majority must hold the value, got {holders}");
    }
}
