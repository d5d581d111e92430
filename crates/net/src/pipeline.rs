//! The client-side reactor: many operations in flight per process.
//!
//! A plain [`Client`] op occupies its calling thread for
//! the full quorum round-trip, so closed-loop throughput scales with
//! thread count, not with what the wire can carry. This module mirrors
//! the runner's per-register op-table design (PR 2) on the client side:
//!
//! * an [`InFlightTable`] of **completion slots**, keyed by a
//!   generation-tagged token (`generation << 32 | slot`) so a late ack
//!   for a reclaimed slot is *counted* — never delivered to the slot's
//!   next tenant;
//! * the runner routes into the slot and wakes the family: it settles a
//!   completion under its submission's token straight into the
//!   `Pipeline`'s table and notifies the family's condvar, and every
//!   waiter claims from its own slot — no completion channel, no
//!   dedicated reactor thread, no waiter relaying for another;
//! * reusable encode scratch per slot: payloads are built in the slot's
//!   [`BytesMut`] and handed to the wire as a zero-copy [`Bytes`] split;
//!   `reserve` reclaims the backing allocation once the wire has dropped
//!   its handle, so steady-state submission does not allocate.
//!
//! [`PipelinedClient`] is the public face: `submit*`/`wait*` over
//! one node (via [`Client::pipelined`](crate::Client::pipelined)) or a
//! whole cluster (via [`PipelinedClient::fan`]). The blocking `Client`
//! API is exactly the depth-1 shim: `invoke = submit + wait`.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use crossbeam::channel::Sender;
use rmem_types::{Op, OpResult, ProcessId, RegisterId, TraceId, Value};

use crate::error::ClientError;
use crate::runner::{Call, Client, RunnerEvent, TraceCtx};

/// A completion settled by [`wait_any`](PipelinedClient::wait_any): the
/// ticket's index in the caller's list plus its settled result.
pub type AnyCompletion = (usize, Result<Settled, ClientError>);

/// A settled completion: the op outcome and how many quorum round-trips
/// it took (0 = served from a live coordinator lease).
pub type Settled = (OpResult, u32);

/// A claim check for one submitted operation: the slot index plus the
/// slot's generation at submission time.
///
/// The wire token a completion carries back is [`token`](Ticket::token)
/// (`generation << 32 | slot`); once the slot is reclaimed its
/// generation is bumped, so a straggler ack fails the generation check
/// instead of landing in a stranger's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    slot: u32,
    generation: u32,
}

impl Ticket {
    /// The token completions for this submission carry.
    pub fn token(self) -> u64 {
        (u64::from(self.generation) << 32) | u64::from(self.slot)
    }

    /// The slot index (diagnostic — lets tests observe slot reuse).
    pub fn slot(self) -> u32 {
        self.slot
    }
}

/// Where [`InFlightTable::route`] delivered a completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routed {
    /// The completion landed in its own, still-waiting slot.
    Delivered,
    /// The slot already held a completion (a duplicated ack): the first
    /// delivery wins; the duplicate is counted and dropped.
    Duplicate,
    /// The slot was reclaimed or never existed (generation or index
    /// mismatch): a late ack, counted and dropped — never delivered to
    /// the slot's current tenant.
    Late,
}

/// What [`InFlightTable::claim`] found in the ticket's slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Claimed {
    /// The operation completed with this result after this many quorum
    /// round-trips; the slot has been reclaimed.
    Ready(OpResult, u32),
    /// Still awaiting its completion.
    Pending,
    /// The ticket was already claimed or cancelled.
    Gone,
}

enum SlotState {
    Free,
    InFlight,
    Done { result: OpResult, rounds: u32 },
}

struct Slot {
    generation: u32,
    state: SlotState,
    target: usize,
    reg: RegisterId,
    trace: Option<TraceId>,
    scratch: BytesMut,
}

/// The reactor's completion-slot table: every operation submitted and
/// not yet claimed, keyed by generation-tagged slot token.
///
/// Slots are recycled through a free list, reclaiming a slot bumps its
/// generation (so tokens are never ambiguous), and acks that miss — late
/// arrivals for reclaimed slots, duplicates for already-completed ones —
/// are counted in [`late_acks`](InFlightTable::late_acks) in the style
/// of `runner.trace_evictions` rather than dropped silently.
#[derive(Default)]
pub struct InFlightTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
    in_flight: usize,
    late_acks: u64,
}

impl InFlightTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a slot for an operation on `reg` bound for `target`,
    /// reusing a reclaimed slot (and its scratch buffer) when one is
    /// free.
    pub fn begin(&mut self, target: usize, reg: RegisterId, trace: Option<TraceId>) -> Ticket {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    state: SlotState::Free,
                    target: 0,
                    reg: RegisterId::ZERO,
                    trace: None,
                    scratch: BytesMut::new(),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[idx as usize];
        debug_assert!(matches!(slot.state, SlotState::Free));
        slot.state = SlotState::InFlight;
        slot.target = target;
        slot.reg = reg;
        slot.trace = trace;
        self.in_flight += 1;
        Ticket {
            slot: idx,
            generation: slot.generation,
        }
    }

    /// Builds a payload in the ticket's slot scratch and returns it as a
    /// zero-copy [`Bytes`] handle. The scratch keeps its backing
    /// allocation across submissions: `split().freeze()` hands the
    /// filled prefix to the wire, and the next `fill`'s reserve reclaims
    /// the buffer once that handle is dropped.
    ///
    /// # Panics
    ///
    /// If the ticket's slot was reclaimed (caller bug: encoding must
    /// happen between [`begin`](Self::begin) and the op's claim).
    pub fn encode_with(&mut self, ticket: Ticket, fill: impl FnOnce(&mut BytesMut)) -> Bytes {
        let slot = self
            .slot_mut(ticket)
            .expect("encoding into a reclaimed slot");
        slot.scratch.clear();
        fill(&mut slot.scratch);
        slot.scratch.split().freeze()
    }

    /// Routes a tagged completion to its slot. Late and duplicated acks
    /// are counted and dropped — a completion is **never** delivered to
    /// a slot whose generation moved on.
    ///
    /// The fourth parameter is inert: it was the tag-lease grant a
    /// completion carried out to the client, the frozen `benchmark/`
    /// package still passes its `None`, and it goes with that package's
    /// next PR (`Infallible` keeps anything else from being passed).
    pub fn route(
        &mut self,
        token: u64,
        result: OpResult,
        rounds: u32,
        _no_grant: Option<std::convert::Infallible>,
    ) -> Routed {
        let idx = (token & u64::from(u32::MAX)) as usize;
        let generation = (token >> 32) as u32;
        let Some(slot) = self.slots.get_mut(idx) else {
            self.late_acks += 1;
            return Routed::Late;
        };
        if slot.generation != generation {
            self.late_acks += 1;
            return Routed::Late;
        }
        match slot.state {
            SlotState::InFlight => {
                slot.state = SlotState::Done { result, rounds };
                Routed::Delivered
            }
            SlotState::Done { .. } => {
                self.late_acks += 1;
                Routed::Duplicate
            }
            // Unreachable while generations are bumped on reclaim, but a
            // free slot must never accept a completion.
            SlotState::Free => {
                self.late_acks += 1;
                Routed::Late
            }
        }
    }

    /// Claims the ticket's completion if it arrived, reclaiming the
    /// slot. A `Pending` claim leaves the slot untouched; a `Gone` claim
    /// means the ticket was already claimed or cancelled.
    pub fn claim(&mut self, ticket: Ticket) -> Claimed {
        match self.slot_mut(ticket) {
            None => Claimed::Gone,
            Some(slot) => match std::mem::replace(&mut slot.state, SlotState::Free) {
                SlotState::InFlight => {
                    slot.state = SlotState::InFlight;
                    Claimed::Pending
                }
                SlotState::Free => Claimed::Gone,
                SlotState::Done { result, rounds } => {
                    self.reclaim(ticket.slot);
                    Claimed::Ready(result, rounds)
                }
            },
        }
    }

    /// Abandons the ticket's operation, reclaiming its slot (and scratch
    /// buffer) whether or not the completion arrived. Returns `false` if
    /// the ticket was already claimed or cancelled. The ack, if it comes
    /// later, fails the generation check and is counted late.
    pub fn cancel(&mut self, ticket: Ticket) -> bool {
        match self.slot_mut(ticket) {
            None => false,
            Some(slot) => {
                if matches!(slot.state, SlotState::Free) {
                    return false;
                }
                slot.state = SlotState::Free;
                self.reclaim(ticket.slot);
                true
            }
        }
    }

    /// The submission metadata a completion should be settled under:
    /// (target index, register, trace id). `None` once the slot was
    /// reclaimed.
    pub(crate) fn meta(&self, ticket: Ticket) -> Option<(usize, RegisterId, Option<TraceId>)> {
        let slot = self.slots.get(ticket.slot as usize)?;
        if slot.generation != ticket.generation || matches!(slot.state, SlotState::Free) {
            return None;
        }
        Some((slot.target, slot.reg, slot.trace))
    }

    /// How many submitted operations have not been claimed or cancelled.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// How many acks missed their slot (late after reclaim, duplicated,
    /// or malformed) — the client-side analogue of the runner's
    /// `trace_evictions` counter. They are counted precisely because
    /// they are *dropped*: a nonzero value with a quiescent table is
    /// bookkeeping, a misdelivery would be a correctness bug.
    pub fn late_acks(&self) -> u64 {
        self.late_acks
    }

    /// How many slots the table has ever grown to (diagnostic: a leak
    /// shows up as `capacity() - free list length` exceeding
    /// [`in_flight`](Self::in_flight)).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn slot_mut(&mut self, ticket: Ticket) -> Option<&mut Slot> {
        let slot = self.slots.get_mut(ticket.slot as usize)?;
        (slot.generation == ticket.generation).then_some(slot)
    }

    fn reclaim(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slot.trace = None;
        slot.scratch.clear();
        self.free.push(idx);
        self.in_flight -= 1;
    }
}

/// One submission target: a runner's event queue plus the identity and
/// frame ceiling the old blocking `Client` carried.
#[derive(Clone)]
pub(crate) struct Target {
    pub(crate) tx: Sender<RunnerEvent>,
    pub(crate) me: ProcessId,
    pub(crate) max_payload: Option<usize>,
}

/// The shared reactor state behind every [`Client`] clone and
/// [`PipelinedClient`] of one family: targets, the slot table the runners
/// complete into, and the condvar its waiters sleep on.
pub(crate) struct Pipeline {
    targets: Vec<Target>,
    table: Mutex<InFlightTable>,
    /// Notified whenever a completion lands in `table`.
    done: Condvar,
}

impl Pipeline {
    pub(crate) fn new(targets: Vec<Target>) -> Self {
        Pipeline {
            targets,
            table: Mutex::new(InFlightTable::new()),
            done: Condvar::new(),
        }
    }

    pub(crate) fn target(&self, i: usize) -> &Target {
        &self.targets[i]
    }

    pub(crate) fn targets(&self) -> usize {
        self.targets.len()
    }

    /// Rejects a value the target's transport could never deliver —
    /// without this, the fair-lossy runtime retransmits the
    /// untransmittable message until the patience window expires.
    fn check_frame(&self, target: usize, value: &Value) -> Result<(), ClientError> {
        if let Some(limit) = self.targets[target].max_payload {
            let size = value.bytes().len() + rmem_types::codec::VALUE_MSG_OVERHEAD;
            if size > limit {
                return Err(ClientError::TooLarge { size, limit });
            }
        }
        Ok(())
    }

    /// Submits `operation` to `target`, returning immediately with the
    /// claim ticket.
    pub(crate) fn submit(
        self: &Arc<Self>,
        target: usize,
        operation: Op,
        trace: Option<&TraceCtx>,
    ) -> Result<Ticket, ClientError> {
        if let Some(value) = operation.write_value() {
            self.check_frame(target, value)?;
        }
        let reg = operation.register();
        let trace_id = trace.map(|ctx| ctx.begin(reg, self.targets[target].me));
        let ticket = self.lock().begin(target, reg, trace_id);
        self.dispatch(target, operation, ticket, trace_id)
    }

    /// Submits a write whose payload is built directly in the ticket's
    /// reusable scratch buffer (zero-copy into the wire value).
    pub(crate) fn submit_write_with(
        self: &Arc<Self>,
        target: usize,
        reg: RegisterId,
        trace: Option<&TraceCtx>,
        fill: impl FnOnce(&mut BytesMut),
    ) -> Result<Ticket, ClientError> {
        let trace_id = trace.map(|ctx| ctx.begin(reg, self.targets[target].me));
        let (ticket, value) = {
            let mut table = self.lock();
            let ticket = table.begin(target, reg, trace_id);
            (ticket, Value::new(table.encode_with(ticket, fill)))
        };
        if let Err(e) = self.check_frame(target, &value) {
            self.cancel(ticket);
            return Err(e);
        }
        self.dispatch(target, Op::WriteAt(reg, value), ticket, trace_id)
    }

    /// Posts the invocation with a weak handle to this family: the runner
    /// [`complete`](Self::complete)s through it, and a family dropped
    /// meanwhile is simply not answered.
    fn dispatch(
        self: &Arc<Self>,
        target: usize,
        operation: Op,
        ticket: Ticket,
        trace: Option<TraceId>,
    ) -> Result<Ticket, ClientError> {
        let call = Call {
            reply: Arc::downgrade(self),
            token: ticket.token(),
            trace,
        };
        let sent = self.targets[target]
            .tx
            .send(RunnerEvent::Invoke(operation, call));
        if sent.is_err() {
            // The runner is gone; nothing will ever complete this slot.
            self.cancel(ticket);
            return Err(ClientError::ProcessDown);
        }
        Ok(ticket)
    }

    /// Settles the completion tagged `token` in its slot and wakes the
    /// family's waiters, each of which looks at its own slot. Called by
    /// the runner; the lock is held for the slot update alone. A late or
    /// duplicated ack is counted and wakes no one.
    pub(crate) fn complete(&self, token: u64, result: OpResult, rounds: u32) {
        let routed = self.lock().route(token, result, rounds, None);
        if routed == Routed::Delivered {
            self.done.notify_all();
        }
    }

    /// Maps a claimed completion to the client-facing result, recording
    /// the trace `ClientRecv` for completions (rejections leave an
    /// unpaired `ClientSend`, which the stitcher ignores).
    fn settle(
        &self,
        result: OpResult,
        rounds: u32,
        meta: Option<(usize, RegisterId, Option<TraceId>)>,
        trace: Option<&TraceCtx>,
    ) -> Result<Settled, ClientError> {
        match result {
            OpResult::Rejected(_) => Err(ClientError::ProcessDown),
            result => {
                if let (Some(ctx), Some((target, reg, Some(id)))) = (trace, meta) {
                    ctx.finish(id, reg, self.targets[target].me);
                }
                Ok((result, rounds))
            }
        }
    }

    /// Blocks until the ticket completes or `timeout` passes (the slot
    /// is cancelled on timeout — its late ack will be counted, not
    /// misdelivered).
    pub(crate) fn wait(
        &self,
        ticket: Ticket,
        timeout: Duration,
        trace: Option<&TraceCtx>,
    ) -> Result<Settled, ClientError> {
        match self.wait_any(&[ticket], timeout, None, trace) {
            Some((_, settled)) => settled,
            None => {
                self.cancel(ticket);
                Err(ClientError::TimedOut)
            }
        }
    }

    /// Blocks until *some* ticket in `tickets` completes, returning its
    /// index and settled result (the others stay in flight). `None` if
    /// `timeout` passes or `until` arrives first — unlike
    /// [`wait`](Self::wait) nothing is cancelled; the caller decides what
    /// to abandon. Any number of threads may wait at once: every
    /// completion wakes them all, and each claims only its own tickets.
    pub(crate) fn wait_any(
        &self,
        tickets: &[Ticket],
        timeout: Duration,
        until: Option<Instant>,
        trace: Option<&TraceCtx>,
    ) -> Option<AnyCompletion> {
        let patience = Instant::now() + timeout;
        let deadline = until.map_or(patience, |until| until.min(patience));
        let mut table = self.lock();
        loop {
            for (i, &ticket) in tickets.iter().enumerate() {
                let meta = table.meta(ticket);
                if let Claimed::Ready(result, rounds) = table.claim(ticket) {
                    drop(table);
                    return Some((i, self.settle(result, rounds, meta, trace)));
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            (table, _) = (self.done)
                .wait_timeout(table, deadline - now)
                .expect("pipeline lock");
        }
    }

    pub(crate) fn cancel(&self, ticket: Ticket) -> bool {
        self.lock().cancel(ticket)
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.lock().in_flight()
    }

    pub(crate) fn late_acks(&self) -> u64 {
        self.lock().late_acks()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, InFlightTable> {
        self.table.lock().expect("pipeline lock")
    }
}

/// A pipelined handle over one node or a whole cluster: `submit` returns
/// a [`Ticket`] immediately, `wait`/`wait_any`/`wait_all` settle
/// them in any order — one thread can keep an arbitrary pipeline depth
/// in flight.
///
/// Obtain one from [`Client::pipelined`](crate::Client::pipelined) (one
/// node, sharing the blocking client's reactor) or
/// [`PipelinedClient::fan`] (one reactor spanning several nodes' control
/// channels, each addressed by its index).
///
/// Per-register sequentiality still holds at the *runner*: of two
/// in-flight operations on the same register of the same node, the later
/// waits there until the earlier completes, in submission order (exactly
/// as two blocking clients racing would). Pipelining buys concurrency
/// across registers and nodes, which is how the kv layer uses it — one
/// submission per shard queue at a time.
pub struct PipelinedClient {
    pipe: Arc<Pipeline>,
    timeout: Duration,
    trace: Option<Arc<TraceCtx>>,
}

impl std::fmt::Debug for PipelinedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedClient")
            .field("nodes", &self.pipe.targets())
            .field("timeout", &self.timeout)
            .field("in_flight", &self.pipe.in_flight())
            .finish()
    }
}

impl PipelinedClient {
    pub(crate) fn from_parts(
        pipe: Arc<Pipeline>,
        timeout: Duration,
        trace: Option<Arc<TraceCtx>>,
    ) -> Self {
        PipelinedClient {
            pipe,
            timeout,
            trace,
        }
    }

    /// One reactor spanning several nodes: submissions name the node by
    /// its index in `clients`. Patience and trace context are inherited
    /// from the first client (the kv layer configures its per-node
    /// clients uniformly). The fan gets its own in-flight table, which
    /// the runners complete into, isolated from the blocking clients'
    /// traffic.
    ///
    /// # Panics
    ///
    /// If `clients` is empty.
    pub fn fan(clients: &[Client]) -> Self {
        assert!(!clients.is_empty(), "a fan needs at least one node");
        let targets = clients.iter().map(|c| c.pipe().target(0).clone()).collect();
        PipelinedClient {
            pipe: Arc::new(Pipeline::new(targets)),
            timeout: clients[0].patience(),
            trace: clients[0].trace_ctx(),
        }
    }

    /// How many nodes this handle can submit to.
    pub fn nodes(&self) -> usize {
        self.pipe.targets()
    }

    /// Replaces the patience window used by the `wait*` calls.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Submits `operation` to node `node`, returning its claim ticket
    /// immediately.
    ///
    /// # Errors
    ///
    /// [`ClientError::TooLarge`] if a written value cannot fit the
    /// transport frame, [`ClientError::ProcessDown`] if the node's event
    /// loop is gone.
    pub fn submit(&self, node: usize, operation: Op) -> Result<Ticket, ClientError> {
        self.pipe.submit(node, operation, self.trace.as_deref())
    }

    /// Submits a read of register `reg` at node `node`.
    ///
    /// # Errors
    ///
    /// As for [`submit`](Self::submit).
    pub fn submit_read(&self, node: usize, reg: RegisterId) -> Result<Ticket, ClientError> {
        self.submit(node, Op::ReadAt(reg))
    }

    /// Submits a write of `value` to register `reg` at node `node`.
    ///
    /// # Errors
    ///
    /// As for [`submit`](Self::submit).
    pub fn submit_write(
        &self,
        node: usize,
        reg: RegisterId,
        value: Value,
    ) -> Result<Ticket, ClientError> {
        self.submit(node, Op::WriteAt(reg, value))
    }

    /// Submits a write whose payload `fill` builds directly in the
    /// slot's reusable scratch buffer — the zero-copy submission path.
    ///
    /// # Errors
    ///
    /// As for [`submit`](Self::submit).
    pub fn submit_write_with(
        &self,
        node: usize,
        reg: RegisterId,
        fill: impl FnOnce(&mut BytesMut),
    ) -> Result<Ticket, ClientError> {
        self.pipe
            .submit_write_with(node, reg, self.trace.as_deref(), fill)
    }

    /// Blocks until the ticket completes or the patience window passes
    /// (the op is cancelled and [`ClientError::TimedOut`] returned).
    ///
    /// # Errors
    ///
    /// [`ClientError::ProcessDown`] if the node halted with the op
    /// pending (in flight, or waiting its turn on its register),
    /// and [`ClientError::TimedOut`] as its name says.
    pub fn wait(&self, ticket: Ticket) -> Result<Settled, ClientError> {
        self.pipe.wait(ticket, self.timeout, self.trace.as_deref())
    }

    /// Blocks until *some* listed ticket completes, returning its index
    /// in `tickets` and its settled result; the others stay in flight.
    /// `None` if the patience window passes first, or the caller's own
    /// deadline `until` arrives (a timer of its event loop: `tickets` may
    /// then be empty) — nothing is cancelled then, the caller decides
    /// what to abandon.
    pub fn wait_any(&self, tickets: &[Ticket], until: Option<Instant>) -> Option<AnyCompletion> {
        self.pipe
            .wait_any(tickets, self.timeout, until, self.trace.as_deref())
    }

    /// Settles every listed ticket (in order), waiting where necessary:
    /// completions are claimed, timeouts cancelled. After `wait_all`
    /// returns, none of the listed tickets occupies a slot.
    pub fn wait_all(&self, tickets: &[Ticket]) -> Vec<Result<Settled, ClientError>> {
        tickets.iter().map(|&t| self.wait(t)).collect()
    }

    /// Abandons an in-flight op: its slot and scratch buffer are
    /// reclaimed now, its ack (if it ever comes) is counted late.
    /// Returns `false` if the ticket was already claimed or cancelled.
    pub fn cancel(&self, ticket: Ticket) -> bool {
        self.pipe.cancel(ticket)
    }

    /// How many submitted operations are currently unclaimed.
    pub fn in_flight(&self) -> usize {
        self.pipe.in_flight()
    }

    /// How many acks missed their slot (see
    /// [`InFlightTable::late_acks`]).
    pub fn late_acks(&self) -> u64 {
        self.pipe.late_acks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_types::Value;

    fn done(v: u32) -> OpResult {
        OpResult::ReadValue(Value::from_u32(v))
    }

    #[test]
    fn tokens_round_trip_and_route_to_their_own_slot() {
        let mut table = InFlightTable::new();
        let a = table.begin(0, RegisterId(1), None);
        let b = table.begin(0, RegisterId(2), None);
        assert_ne!(a.token(), b.token());
        assert_eq!(table.route(b.token(), done(2), 1, None), Routed::Delivered);
        assert_eq!(table.claim(a), Claimed::Pending);
        assert_eq!(table.claim(b), Claimed::Ready(done(2), 1));
        assert_eq!(table.route(a.token(), done(1), 2, None), Routed::Delivered);
        assert_eq!(table.claim(a), Claimed::Ready(done(1), 2));
        assert_eq!(table.in_flight(), 0);
        assert_eq!(table.late_acks(), 0);
    }

    #[test]
    fn late_and_duplicate_acks_are_counted_never_misdelivered() {
        let mut table = InFlightTable::new();
        let a = table.begin(0, RegisterId(1), None);
        assert!(table.cancel(a));
        // The slot is reclaimed; the straggler ack must not land.
        assert_eq!(table.route(a.token(), done(9), 1, None), Routed::Late);
        assert_eq!(table.late_acks(), 1);
        // The slot's next tenant is unaffected.
        let b = table.begin(0, RegisterId(7), None);
        assert_eq!(b.slot(), a.slot(), "slot is recycled");
        assert_eq!(table.claim(b), Claimed::Pending);
        assert_eq!(table.route(a.token(), done(9), 1, None), Routed::Late);
        assert_eq!(table.route(b.token(), done(3), 1, None), Routed::Delivered);
        assert_eq!(table.route(b.token(), done(4), 1, None), Routed::Duplicate);
        assert_eq!(table.claim(b), Claimed::Ready(done(3), 1));
        assert_eq!(table.late_acks(), 3);
        // An ack for a slot index that never existed is late too.
        assert_eq!(
            table.route(u64::from(u32::MAX), done(0), 0, None),
            Routed::Late
        );
        assert_eq!(table.late_acks(), 4);
    }

    /// The runner completes straight into the slot and wakes the family:
    /// 1, 2 and 8 threads wait (`wait` and `wait_any` alike) while another
    /// thread completes their tickets in shuffled order, with a completion
    /// for a cancelled ticket among them. Every waiter must get its own
    /// result within 5 ms of its own completion (median under 1 ms); the
    /// cancelled ticket's completion is counted late and reaches no one;
    /// a completion that landed before its waiter came is claimed by a
    /// wait with no patience at all.
    #[test]
    fn every_waiter_wakes_on_its_own_completion() {
        let pipe = Arc::new(Pipeline::new(Vec::new()));
        let patience = Duration::from_secs(5);
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut lags = Vec::new();
        for (round, waiters) in [1, 2, 8].repeat(8).into_iter().enumerate() {
            let tickets: Vec<Ticket> = (0..waiters)
                .map(|_| pipe.lock().begin(0, RegisterId(0), None))
                .collect();
            let abandoned = pipe.lock().begin(0, RegisterId(0), None);
            assert!(pipe.cancel(abandoned));
            let handles: Vec<_> = tickets
                .iter()
                .enumerate()
                .map(|(i, &ticket)| {
                    let pipe = pipe.clone();
                    std::thread::spawn(move || {
                        let settled = if i % 2 == 0 {
                            pipe.wait(ticket, patience, None)
                        } else {
                            pipe.wait_any(&[ticket], patience, None, None)
                                .expect("completes before its patience")
                                .1
                        };
                        (settled.expect("completes"), Instant::now())
                    })
                })
                .collect();
            // Only steers the waiters to sleep before anything lands; the
            // gates below hold either way.
            std::thread::sleep(Duration::from_millis(2));
            // Fisher–Yates over the waiters, with the abandoned ticket
            // (index `waiters`) dealt in among them.
            let mut order: Vec<usize> = (0..=waiters).collect();
            for i in (1..order.len()).rev() {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                order.swap(i, (rng % (i as u64 + 1)) as usize);
            }
            let completer = {
                let pipe = pipe.clone();
                let mut tokens: Vec<u64> = tickets.iter().map(|t| t.token()).collect();
                tokens.push(abandoned.token());
                std::thread::spawn(move || {
                    let mut landed = vec![Instant::now(); tokens.len()];
                    for i in order {
                        landed[i] = Instant::now();
                        pipe.complete(tokens[i], done(i as u32), round as u32);
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    landed
                })
            };
            let landed = completer.join().unwrap();
            for (i, handle) in handles.into_iter().enumerate() {
                let ((result, rounds), woke) = handle.join().unwrap();
                assert_eq!((result, rounds), (done(i as u32), round as u32));
                lags.push(woke.duration_since(landed[i]));
            }
        }
        assert_eq!(pipe.late_acks(), 24, "one abandoned completion a round");

        let early = pipe.lock().begin(0, RegisterId(0), None);
        pipe.complete(early.token(), done(7), 1);
        let claimed = pipe.wait(early, Duration::ZERO, None);
        assert_eq!(claimed.expect("claimed without sleeping"), (done(7), 1));
        assert_eq!(pipe.in_flight(), 0);

        lags.sort();
        let (median, worst) = (lags[lags.len() / 2], lags[lags.len() - 1]);
        assert!(worst < Duration::from_millis(5), "a waiter slept {worst:?}");
        assert!(median < Duration::from_millis(1), "median wake {median:?}");
    }

    #[test]
    fn cancel_reclaims_the_slot_and_scratch() {
        let mut table = InFlightTable::new();
        let a = table.begin(0, RegisterId(0), None);
        let payload = table.encode_with(a, |buf| buf.extend_from_slice(b"hello"));
        assert_eq!(&payload[..], b"hello");
        assert_eq!(table.in_flight(), 1);
        assert!(table.cancel(a));
        assert!(!table.cancel(a), "double cancel is a no-op");
        assert_eq!(table.in_flight(), 0);
        assert_eq!(table.capacity(), 1);
        // The freed slot (and its scratch) is reused, not regrown.
        let b = table.begin(0, RegisterId(0), None);
        assert_eq!(b.slot(), a.slot());
        assert_eq!(table.capacity(), 1);
        assert_eq!(table.claim(b), Claimed::Pending);
    }
}
