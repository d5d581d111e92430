//! The discrete-event simulation engine.
//!
//! Each simulated process is a [`NodeCore`] — the same node core the
//! socket runtime hosts — and the engine is its [`Host`]: the network
//! model decides each message's fate, the disk model each store's
//! latency, virtual time each timer's instant, and the causal-chain
//! accounting ([`crate::trace`]) follows every effect. Invocations go to
//! the automaton the moment they arrive; it serializes each register's
//! operations, and an operation enters the history when it begins.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_storage::{FaultPlan, FaultyStorage, MemStorage, SnapshotView, StableStorage};
use rmem_types::{
    AutomatonFactory, Host, Input, Message, Micros, NodeCore, Op, OpId, OpResult, ProcessId,
    RegisterId, RequestId, StoreToken, TimerToken,
};

use crate::config::ClusterConfig;
use crate::event::{EventKind, EventQueue};
use crate::network::{Fate, NetworkModel};
use crate::time::VirtualTime;
use crate::trace::Trace;
use crate::workload::{ClosedLoop, PlannedEvent, Schedule};

/// What the engine keeps per invoked operation: the operation as
/// invoked (recorded in the history when it begins) and whether it came
/// through the port ([`Simulation::invoke`]).
type Call = (Op, bool);

/// One simulated process: its node core (volatile — destroyed by
/// crashes) and its stable storage (owned by the engine — survives
/// crashes).
struct ProcSlot {
    core: Option<NodeCore<Call>>,
    /// Pass-through unless the run planted store faults at this process
    /// ([`Simulation::with_store_faults`]).
    storage: FaultyStorage<MemStorage>,
    /// Bumped at every crash; store completions and timers from older
    /// incarnations are discarded.
    incarnation: u32,
    next_op_counter: u64,
    /// Set while the process runs its recovery procedure (between the
    /// Recover event and the automaton reporting ready); drives the
    /// recovery-duration measurement.
    recovering_since: Option<VirtualTime>,
    /// Group-commit disk state (`DiskConfig::coalesce`): when the fsync
    /// currently scheduled last will complete, and the start/completion
    /// of the commit currently accepting joiners. The disk outlives
    /// crashes (hardware keeps spinning); only the StoreDone deliveries
    /// die with the incarnation.
    disk_busy_until: VirtualTime,
    disk_group_start: VirtualTime,
    disk_group_done: VirtualTime,
}

struct LoopState {
    pid: ProcessId,
    remaining: std::collections::VecDeque<Op>,
    think: Micros,
    op: LoopOp,
}

/// Where a closed loop's one invocation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopOp {
    /// None: the loop is done, or waits for its process to recover.
    Idle,
    /// Planted as an `Invoke` event that has not fired yet. A crash before
    /// it fires does not lose it: it fires anyway, and finds the process
    /// down or recovered.
    Planted(OpId),
    /// Handed to its process: a crash loses it.
    Submitted,
}

/// What [`Simulation::invoke`] answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invoked {
    /// The operation is in flight under this id — or waits until its
    /// process serves it: behind the one ahead on its register (§III-A
    /// sequentiality, per register), or until that register has
    /// recovered; its end arrives through
    /// [`Simulation::take_completions`].
    Accepted(OpId),
    /// The process is crashed.
    Down,
}

/// How an operation invoked through [`Simulation::invoke`] ended: its
/// result and quorum rounds — or `None`, lost to its process's crash.
pub type PortCompletion = (OpId, Option<(OpResult, u32)>);

/// Outcome summary of a run.
#[derive(Debug)]
pub struct SimReport {
    /// The full execution trace (operations, history, counters).
    pub trace: Trace,
    /// Virtual time at which the run stopped.
    pub final_time: VirtualTime,
    /// Total events processed.
    pub events_processed: u64,
    /// Messages dropped by the network (loss + partitions).
    pub messages_dropped: u64,
    /// Messages duplicated by the network.
    pub messages_duplicated: u64,
    /// Whether the run ended by quiescence (`true`) or by hitting the
    /// time/event limit (`false`).
    pub quiescent: bool,
}

/// A deterministic simulation of a cluster running one automaton per
/// process.
///
/// Construct with [`Simulation::new`], attach workloads
/// ([`with_schedule`](Simulation::with_schedule),
/// [`add_closed_loop`](Simulation::add_closed_loop)) and call
/// [`run`](Simulation::run). The same seed and workload always produce the
/// identical run.
///
/// `run` is [`start`](Simulation::start), [`step`](Simulation::step) until
/// nothing is left, [`finish`](Simulation::finish). A host that drives the
/// run itself — code that invokes operations as it goes instead of listing
/// them up front — calls the three directly and talks to the processes
/// through the **port** between steps: [`invoke`](Simulation::invoke),
/// [`take_completions`](Simulation::take_completions),
/// [`wake_at`](Simulation::wake_at).
pub struct Simulation {
    config: ClusterConfig,
    factory: Arc<dyn AutomatonFactory>,
    now: VirtualTime,
    queue: EventQueue,
    net: NetworkModel,
    rng: StdRng,
    procs: Vec<ProcSlot>,
    trace: Trace,
    loops: Vec<LoopState>,
    schedule: Vec<(VirtualTime, PlannedEvent)>,
    events_processed: u64,
    /// Requester-relative causal chains for acknowledgements a replica
    /// parked behind a store: when a request is delivered and not
    /// immediately acknowledged, the ack it eventually triggers must carry
    /// `request chain + 1` (one store on the requester's path), not the
    /// chain of whatever store completion happened to release it — that
    /// store may belong to a different operation's lineage.
    deferred_acks: std::collections::HashMap<(ProcessId, rmem_types::RequestId), u32>,
    /// Messages sent while handling the current event (drives the
    /// sender-side serialization model, `NetConfig::serialize_per_msg`).
    sends_this_event: u32,
    ran: bool,
    /// The last event left every process idle with only timers queued.
    quiescent: bool,
    hit_limit: bool,
    /// The ends of operations invoked through the port, not yet handed
    /// back.
    completions: Vec<PortCompletion>,
}

impl Simulation {
    /// Creates a simulation of `config.n` processes built by `factory`,
    /// with all randomness derived from `seed`.
    pub fn new(config: ClusterConfig, factory: Arc<dyn AutomatonFactory>, seed: u64) -> Self {
        let n = config.n;
        let procs = (0..n)
            .map(|_| ProcSlot {
                core: None,
                storage: FaultyStorage::new(MemStorage::new(), FaultPlan::None),
                incarnation: 0,
                next_op_counter: 0,
                recovering_since: None,
                disk_busy_until: VirtualTime::ZERO,
                disk_group_start: VirtualTime::ZERO,
                disk_group_done: VirtualTime::ZERO,
            })
            .collect();
        Simulation {
            net: NetworkModel::new(config.net.clone()),
            rng: StdRng::seed_from_u64(seed),
            config,
            factory,
            now: VirtualTime::ZERO,
            queue: EventQueue::new(),
            procs,
            trace: Trace::new(),
            loops: Vec::new(),
            schedule: Vec::new(),
            events_processed: 0,
            deferred_acks: std::collections::HashMap::new(),
            sends_this_event: 0,
            ran: false,
            quiescent: false,
            hit_limit: false,
            completions: Vec::new(),
        }
    }

    /// Attaches a scripted schedule (crashes, recoveries, scripted
    /// invocations, partitions).
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule.extend(schedule.entries().iter().cloned());
        self
    }

    /// Plants store failures at `pid`: a store the plan fails leaves the
    /// slot's previous record in place and crashes the process on the
    /// spot — a torn log tail, and what the real runner does when its
    /// disk refuses a record (halt rather than acknowledge). Positions
    /// count every store the process completes, boot records included.
    pub fn with_store_faults(mut self, pid: ProcessId, plan: FaultPlan) -> Self {
        self.procs[pid.index()].storage = FaultyStorage::new(MemStorage::new(), plan);
        self
    }

    /// Attaches a closed-loop client.
    pub fn add_closed_loop(&mut self, cl: ClosedLoop) {
        assert!(
            cl.pid.index() < self.config.n,
            "closed loop bound to unknown process {}",
            cl.pid
        );
        self.loops.push(LoopState {
            pid: cl.pid,
            remaining: cl.ops.clone().into(),
            think: cl.think,
            op: LoopOp::Idle,
        });
        // The first invocation is planted here, honouring start_after.
        self.loop_plant(
            self.loops.len() - 1,
            VirtualTime::ZERO.after(cl.start_after),
        );
    }

    fn fresh_op_id(&mut self, pid: ProcessId) -> OpId {
        let slot = &mut self.procs[pid.index()];
        let id = OpId::new(pid, slot.next_op_counter);
        slot.next_op_counter += 1;
        id
    }

    /// Read-only view of a process's stable storage (inspect after `run`).
    pub fn storage(&self, pid: ProcessId) -> &MemStorage {
        self.procs[pid.index()].storage.get_ref()
    }

    /// Runs the simulation to quiescence or its limits, returning the
    /// report. May be called once.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn run(&mut self) -> SimReport {
        self.start();
        while self.step() {}
        self.finish()
    }

    /// Plants the scripted schedule and boots every process.
    ///
    /// # Panics
    ///
    /// Panics if the simulation was already started.
    pub fn start(&mut self) {
        assert!(!self.ran, "Simulation::run may only be called once");
        self.ran = true;

        let schedule = std::mem::take(&mut self.schedule);
        for (at, ev) in schedule {
            let kind = match ev {
                PlannedEvent::Invoke(pid, op) => {
                    let op_id = self.fresh_op_id(pid);
                    EventKind::Invoke {
                        pid,
                        op: op_id,
                        operation: op,
                    }
                }
                PlannedEvent::Crash(pid) => EventKind::Crash { pid },
                PlannedEvent::Recover(pid) => EventKind::Recover { pid },
                PlannedEvent::Block(from, to) => EventKind::SetLink {
                    from,
                    to,
                    blocked: true,
                },
                PlannedEvent::Unblock(from, to) => EventKind::SetLink {
                    from,
                    to,
                    blocked: false,
                },
            };
            self.queue.push(at, kind);
        }

        for pid in ProcessId::all(self.config.n) {
            let automaton = self.factory.fresh(pid, self.config.n);
            self.procs[pid.index()].core = Some(NodeCore::new(automaton));
        }
        for pid in ProcessId::all(self.config.n) {
            self.feed(pid, Input::Start, 0, None);
        }
    }

    /// Processes the next event. `false` once nothing is left to do: the
    /// queue is drained, the last event left the run quiescent (every
    /// process idle, only timers queued), or a limit was hit.
    pub fn step(&mut self) -> bool {
        if self.quiescent || self.hit_limit {
            return false;
        }
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        if ev.at > self.config.max_time || self.events_processed >= self.config.max_events {
            self.hit_limit = true;
            return false;
        }
        debug_assert!(ev.at >= self.now, "event queue delivered out of order");
        self.now = ev.at;
        self.events_processed += 1;
        self.sends_this_event = 0;
        self.dispatch(ev.kind);
        self.quiescent = self.queue.len() < 256 && self.is_idle() && self.queue_iter_all_timers();
        true
    }

    /// The report of the run so far (the trace moves into it).
    pub fn finish(&mut self) -> SimReport {
        SimReport {
            trace: std::mem::take(&mut self.trace),
            final_time: self.now,
            events_processed: self.events_processed,
            messages_dropped: self.net.dropped,
            messages_duplicated: self.net.duplicated,
            quiescent: self.quiescent || (!self.hit_limit && self.queue.is_empty()),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// How many processes the cluster has.
    pub fn processes(&self) -> usize {
        self.config.n
    }

    /// Invokes `operation` at `pid` now, between two steps — what a real
    /// client does to a node's runner. An accepted operation's end is
    /// handed back by [`take_completions`](Self::take_completions).
    pub fn invoke(&mut self, pid: ProcessId, operation: Op) -> Invoked {
        let op = self.fresh_op_id(pid);
        self.quiescent = false;
        self.sends_this_event = 0;
        self.hand_over(pid, op, operation, true)
    }

    /// The ends of operations invoked through [`invoke`](Self::invoke)
    /// since the last call, in the order they happened.
    pub fn take_completions(&mut self) -> Vec<PortCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Keeps the run alive until virtual time `at`: a later
    /// [`step`](Self::step) brings the clock there even if no process has
    /// anything to do.
    pub fn wake_at(&mut self, at: VirtualTime) {
        self.quiescent = false;
        self.queue.push(at.max(self.now), EventKind::Wake);
    }

    /// Hands invocation `op` to `pid`'s automaton at once, unless the
    /// process is down.
    fn hand_over(&mut self, pid: ProcessId, op: OpId, operation: Op, ported: bool) -> Invoked {
        let Some(core) = &self.procs[pid.index()].core else {
            self.trace.invokes_dropped += 1;
            return Invoked::Down;
        };
        self.trace.invokes_queued += u64::from(core.busy(operation.register()));
        let call = (operation.clone(), ported);
        self.drive(pid, 0, None, None, |core, host| {
            core.invoke(host, op, operation, call)
        });
        Invoked::Accepted(op)
    }

    fn is_idle(&self) -> bool {
        let procs_idle = (self.procs.iter()).all(|s| s.core.as_ref().is_none_or(|c| c.is_idle()));
        let loops_done = self
            .loops
            .iter()
            .all(|l| l.remaining.is_empty() && l.op == LoopOp::Idle);
        procs_idle && loops_done
    }

    /// Whether only timers are queued: a linear scan over the heap, which
    /// the caller's `len()` guard keeps small.
    fn queue_iter_all_timers(&self) -> bool {
        self.queue
            .iter()
            .all(|s| matches!(s.kind, EventKind::TimerFire { .. }))
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver {
                to,
                from,
                msg,
                chain,
            } => {
                let Some(core) = &self.procs[to.index()].core else {
                    return; // crashed receivers hear nothing
                };
                self.trace.messages_delivered += 1;
                // A message belongs to the receiver's own operation on the
                // register its request id names (request ids carry the
                // register, so concurrent operations on distinct registers
                // attribute independently).
                let req = msg.request_id();
                let attributed = (req.origin == to).then(|| core.active(req.reg)).flatten();
                self.feed(to, Input::Message { from, msg }, chain, attributed);
            }
            EventKind::StoreDone {
                pid,
                token,
                key,
                bytes,
                incarnation,
                chain,
                attributed_op,
            } => {
                let slot = &mut self.procs[pid.index()];
                if slot.incarnation != incarnation {
                    return; // the store was in flight when the process crashed: lost
                }
                if slot.storage.store(&key, bytes).is_err() {
                    // Only a planted fault fails a `MemStorage` store.
                    self.crash(pid);
                    return;
                }
                self.trace.stores_applied += 1;
                let idle = slot.core.as_ref().is_some_and(|c| c.in_flight() == 0);
                self.trace.background_stores += u64::from(idle);
                self.feed(pid, Input::StoreDone(token), chain, attributed_op);
            }
            EventKind::TimerFire {
                pid,
                token,
                incarnation,
                chain,
            } => {
                if self.procs[pid.index()].incarnation == incarnation {
                    self.feed(pid, Input::Timer(token), chain, None);
                }
            }
            EventKind::Invoke { pid, op, operation } => {
                if let Some(l) = self.loops.iter_mut().find(|l| l.op == LoopOp::Planted(op)) {
                    l.op = LoopOp::Submitted;
                }
                if self.hand_over(pid, op, operation, false) == Invoked::Down {
                    self.loop_op_lost(pid);
                }
            }
            EventKind::Crash { pid } => self.crash(pid),
            EventKind::Recover { pid } => {
                let slot = &mut self.procs[pid.index()];
                if slot.core.is_some() {
                    return;
                }
                let snapshot = SnapshotView::new(&slot.storage);
                let automaton =
                    (self.factory).recover(pid, self.config.n, slot.incarnation as u64, &snapshot);
                slot.core = Some(NodeCore::new(automaton));
                slot.recovering_since = Some(self.now);
                self.trace.record_recover(self.now, pid);
                self.feed(pid, Input::Start, 0, None);
                self.loop_resume(pid);
            }
            EventKind::SetLink { from, to, blocked } => {
                self.net.set_link(from, to, blocked);
            }
            EventKind::Wake => {}
        }
    }

    /// Crashes `pid`: its automaton and invoked operations are lost, its
    /// stable storage stays. A no-op if it is already down.
    fn crash(&mut self, pid: ProcessId) {
        let slot = &mut self.procs[pid.index()];
        let Some(core) = slot.core.take() else {
            return;
        };
        slot.incarnation += 1;
        slot.recovering_since = None;
        // The ops are lost; the records of those begun stay pending.
        for (op, (_, ported)) in core.lose() {
            if ported {
                self.completions.push((op, None));
            }
        }
        self.deferred_acks.retain(|(p, _), _| *p != pid);
        self.trace.record_crash(self.now, pid);
        self.loop_op_lost(pid);
    }

    /// Delivers `input` to `pid`'s automaton and executes the resulting
    /// actions. `chain` is the causal-log count carried by the input;
    /// `attributed` names the in-flight operation the input belongs to,
    /// if any (several operations can be in flight, one per register —
    /// attribution is per register, not per process).
    fn feed(&mut self, pid: ProcessId, input: Input, chain: u32, attributed: Option<OpId>) {
        // If the input is a protocol request, note it so a deferred ack
        // can be assigned its requester-relative chain (see field docs).
        let request = match &input {
            Input::Message { msg, .. } if msg.is_request() => Some(msg.request_id()),
            _ => None,
        };
        self.drive(pid, chain, attributed, request, |core, host| {
            core.feed(host, input)
        });
    }

    /// Runs one step of `pid`'s node core, the engine its host.
    fn drive(
        &mut self,
        pid: ProcessId,
        chain: u32,
        attributed: Option<OpId>,
        request: Option<RequestId>,
        step: impl FnOnce(&mut NodeCore<Call>, &mut Step<'_>),
    ) {
        if let Some(op) = attributed {
            self.trace.bump_chain(op, chain);
        }
        let Some(mut core) = self.procs[pid.index()].core.take() else {
            return;
        };
        let mut host = Step {
            sim: self,
            pid,
            chain,
            attributed,
            request,
            acked: false,
        };
        step(&mut core, &mut host);
        if let (Some(req), false) = (request, host.acked) {
            self.deferred_acks.insert((pid, req), chain + 1);
        }
        self.procs[pid.index()].core = Some(core);
    }

    // -- Closed-loop bookkeeping ----------------------------------------

    /// The loop at `pid` whose invocation is in state `op`.
    fn loop_at(&self, pid: ProcessId, op: LoopOp) -> Option<usize> {
        self.loops.iter().position(|l| l.pid == pid && l.op == op)
    }

    /// Plants loop `idx`'s next invocation at `at`, if it has one.
    fn loop_plant(&mut self, idx: usize, at: VirtualTime) {
        let pid = self.loops[idx].pid;
        let Some(operation) = self.loops[idx].remaining.pop_front() else {
            self.loops[idx].op = LoopOp::Idle;
            return;
        };
        let op = self.fresh_op_id(pid);
        self.loops[idx].op = LoopOp::Planted(op);
        self.queue
            .push(at, EventKind::Invoke { pid, op, operation });
    }

    fn loop_advance(&mut self, pid: ProcessId) {
        if let Some(idx) = self.loop_at(pid, LoopOp::Submitted) {
            self.loop_plant(idx, self.now.after(self.loops[idx].think));
        }
    }

    fn loop_op_lost(&mut self, pid: ProcessId) {
        if let Some(idx) = self.loop_at(pid, LoopOp::Submitted) {
            self.loops[idx].op = LoopOp::Idle;
        }
    }

    fn loop_resume(&mut self, pid: ProcessId) {
        if let Some(idx) = self.loop_at(pid, LoopOp::Idle) {
            self.loop_plant(idx, self.now.after(self.loops[idx].think));
        }
    }
}

/// One step of one process: the engine as its node core's [`Host`].
///
/// Every effect inherits the step's causal chain and attribution —
/// those of the input, until an operation begins in the step: what
/// follows is that operation's, at chain 0, as if its invocation had been
/// the input.
struct Step<'a> {
    sim: &'a mut Simulation,
    pid: ProcessId,
    chain: u32,
    attributed: Option<OpId>,
    /// The request the step's input is, if it is one, and whether the step
    /// acknowledged it.
    request: Option<RequestId>,
    acked: bool,
}

impl Host<Call> for Step<'_> {
    fn send(&mut self, to: ProcessId, msg: Message, _op: Option<&Call>) {
        let (sim, pid) = (&mut *self.sim, self.pid);
        assert!(to.index() < sim.config.n, "send to unknown process {to}");
        sim.trace.messages_sent += 1;
        // Duplicated requests can make one round send several acks, so
        // the recorded chain must outlive the first ack: look up without
        // consuming (entries die with a crash of the process, and request
        // ids are never reused).
        let chain = if msg.is_request() {
            self.chain
        } else {
            self.acked |= self.request == Some(msg.request_id());
            (sim.deferred_acks.get(&(pid, msg.request_id())))
                .copied()
                .unwrap_or(self.chain)
        };
        let serialization =
            Micros(sim.sends_this_event as u64 * sim.config.net.serialize_per_msg.0);
        sim.sends_this_event += 1;
        let deliver = |sim: &mut Simulation, d: Micros, msg: Message| {
            let kind = EventKind::Deliver {
                to,
                from: pid,
                msg,
                chain,
            };
            sim.queue.push(sim.now.after(serialization + d), kind);
        };
        match sim.net.fate(pid, to, msg.payload_len(), &mut sim.rng) {
            Fate::Drop => {}
            Fate::Deliver(d) => deliver(sim, d, msg),
            Fate::Duplicate(d1, d2) => {
                deliver(sim, d1, msg.clone());
                deliver(sim, d2, msg);
            }
        }
    }

    fn store(&mut self, token: StoreToken, key: String, bytes: bytes::Bytes) {
        let (sim, pid) = (&mut *self.sim, self.pid);
        let disk = sim.config.disk_of(pid.index()).clone();
        let jitter = if disk.jitter.0 > 0 {
            Micros(sim.rng.gen_range(0..=disk.jitter.0))
        } else {
            Micros(0)
        };
        let latency =
            disk.base_latency + jitter + Micros((bytes.len() as u64 * disk.ns_per_byte) / 1_000);
        let now = sim.now;
        let slot = &mut sim.procs[pid.index()];
        let done_at = if !disk.coalesce {
            // Unlimited parallel stores: each pays its own latency.
            now.after(latency)
        } else if now >= slot.disk_busy_until {
            // Idle disk: this store's commit starts immediately.
            slot.disk_group_start = now;
            slot.disk_group_done = now.after(latency);
            slot.disk_busy_until = slot.disk_group_done;
            slot.disk_group_done
        } else if now <= slot.disk_group_start {
            // A commit is queued but its fsync has not started: join the
            // group — same fsync, same completion.
            sim.trace.stores_coalesced += 1;
            slot.disk_group_done
        } else {
            // The accepting commit's fsync is already running: open the
            // next group, starting when the disk frees.
            slot.disk_group_start = slot.disk_busy_until;
            slot.disk_group_done = slot.disk_busy_until.after(latency);
            slot.disk_busy_until = slot.disk_group_done;
            slot.disk_group_done
        };
        let kind = EventKind::StoreDone {
            pid,
            token,
            key,
            bytes,
            incarnation: slot.incarnation,
            chain: self.chain + 1,
            attributed_op: self.attributed,
        };
        sim.queue.push(done_at, kind);
    }

    fn arm_timer(&mut self, token: TimerToken, after: Micros) {
        let sim = &mut *self.sim;
        let kind = EventKind::TimerFire {
            pid: self.pid,
            token,
            incarnation: sim.procs[self.pid.index()].incarnation,
            chain: self.chain,
        };
        sim.queue.push(sim.now.after(after), kind);
    }

    fn began(&mut self, op: OpId, _reg: RegisterId, (operation, _): &mut Call) {
        self.sim
            .trace
            .record_invoke(self.sim.now, op, operation.clone());
        self.chain = 0;
        self.attributed = Some(op);
    }

    fn completed(&mut self, op: OpId, (_, ported): Call, result: OpResult, rounds: u32) {
        let sim = &mut *self.sim;
        if ported {
            sim.completions.push((op, Some((result.clone(), rounds))));
        }
        sim.trace.bump_chain(op, self.chain);
        sim.trace.record_rounds(op, rounds);
        sim.trace.record_complete(sim.now, op, result);
        sim.loop_advance(self.pid);
    }

    fn ready(&mut self) {
        let sim = &mut *self.sim;
        if let Some(since) = sim.procs[self.pid.index()].recovering_since.take() {
            sim.trace.record_recovery_duration(sim.now.since(since));
        }
    }
}
