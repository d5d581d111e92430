//! The shared register machinery, configured by a [`Flavor`].
//!
//! One automaton implements every register in the family; the flavor
//! flags select which logs and rounds exist, mirroring how the paper
//! derives Fig. 5 from Fig. 4 "with a few minor changes". The code
//! comments cite pseudocode line numbers from the paper throughout.
//!
//! # Recovery catch-up
//!
//! The paper's recovery procedures (Fig. 4 lines 40–47, Fig. 5 lines
//! 16–22) restore a process from *its own* log and never ask what it
//! missed while down. That is all atomicity needs, but it leaves the
//! recovered replica the odd one out in every read quorum it joins, and
//! the confirmed-timestamp fast path ([`Flavor::read_fast_path`]) wants
//! quorums unanimous. So a flavor with the fast path on runs one more
//! step, overlapped with the paper's own (the recovered counter's store,
//! then the figure's round in the operation slot) and finished before
//! the process serves: a read query round (Fig. 4 lines
//! 32–35, the ordinary `Read` message) and, if the quorum's best tag is
//! not **durable here** yet, its adoption by the own replica (`CatchUp`).
//! Durable here means what it means to the replica role
//! ([`crate::replica`]): covered by `written`, by `writing`, **or vouched
//! by a majority at recovery**. The round goes to all `n`, and besides
//! its majority it counts *vouchers* — other processes whose ack carried
//! exactly the best tag, attested durable (a newer best starts the count
//! over). A majority of vouchers puts the tag on a majority of logs
//! already, so the replica adopts it as durable with no store of its own
//! ([`Replica::vouch`]). Once a majority has answered and vouching can no
//! longer succeed — everyone answered, too few are left to answer, or
//! the replica holds the tag already or it is the initial one — the
//! replica adopts the pair exactly as a delayed `Write` would have been
//! adopted, logging it; otherwise the catch-up waits for more vouchers
//! one retransmit period from the majority's arrival (the round's timer,
//! re-armed then) and adopts and logs when it fires, without re-sending.
//! A behind replica whose vouchers do not all answer thus pays one
//! period and one log. A majority read sees every write that completed
//! before recovery began, so a recovered process serves its first
//! operation only after holding all of them, durably or on a majority's
//! attestation. With the fast path off the step does not exist and
//! recovery is the figures', verbatim.
//!
//! # Thrifty rounds
//!
//! The figures send every round to all `n` processes and wait for a
//! majority. With the fast path on, an operation's round is **thrifty**:
//! its first send goes to this process and the `majority − 1` peers that
//! completed the node's most recent quorum ([`Preferred`]), and only its
//! retransmission widens to all `n`. A write is then logged on a majority,
//! not on every replica — the causal logs Theorem 1 counts are the same.
//! The store's home node coordinates both the reads and the writes of its
//! registers, so a read asks the replicas the last write reached and
//! finds them unanimous. Recovery rounds (the figure's re-finish and
//! frontier query, the catch-up) have no history to go on and still ask
//! everyone; with the fast path off every round does, first send included.
//!
//! # Rounds
//!
//! Every step of the figures has one shape: send a request, wait until
//! ⌈(n+1)/2⌉ processes answer, retransmit over the fair-lossy link until
//! they do. A `Round` ([`crate::quorum`]) is that shape — the request to
//! (re)send, the distinct responders, the retransmission timer — and one
//! of two owners holds it: the catch-up (`CatchUp`) or the operation slot
//! (`OpPhase`), whose `Waiter` says whom the round is for — a client's
//! operation, a lease's renewal, or, before the process is ready, the
//! figure's recovery step (Fig. 4 lines 43–46 re-finish the logged write
//! as the write round it is; the regular flavor re-learns its write
//! frontier as a write's query round). The slot holds one round at a
//! time, so an invocation begins at once only if the process is ready and
//! the slot free; otherwise it waits in FIFO order (`queued`) and begins
//! as the slot frees up — save a read that a live lease serves while its
//! renewal holds the slot. Nothing is refused. One method opens
//! every round (`open`: request id, first send, timer), and every ack
//! takes one step (`ack`: is it this round's? recorded through
//! [`Preferred`], did it reach the majority just now? — a renewal skips
//! an ack that carries no grant). A timer is, in this order: a lease's
//! horizon or renew point; the same two of a lease a write took or a read
//! armed (a renewal caught by its own horizon goes again from a fresh
//! stamp); the replica's fence; a catch-up past its majority, settled
//! without a resend; or else the live round it belongs to, rebroadcast
//! and re-armed.

use std::collections::VecDeque;

use rmem_storage::records::{
    RecoveredRecord, WritingRecord, WrittenRecord, KEY_RECOVERED, KEY_WRITING, KEY_WRITTEN,
};
use rmem_types::{
    Action, Automaton, AutomatonFactory, Input, Message, Micros, Op, OpId, OpResult, ProcessId,
    RegisterId, RequestId, Seq, StableSnapshot, StoreToken, TimerToken, Timestamp, Value,
};

use crate::flavor::{Flavor, RecoveryPolicy};
use crate::quorum::{Preferred, Round};
use crate::replica::Replica;

/// The phase in the operation slot, and in `waiter` whom it is for: a
/// client's operation, a lease's renewal ([`ReadQuery`] only), or the
/// figure's recovery step ([`WritePropagate`] re-finishing the logged
/// write; the regular flavor's [`WriteQuery`], re-learning the frontier).
///
/// [`ReadQuery`]: OpPhase::ReadQuery
/// [`WritePropagate`]: OpPhase::WritePropagate
/// [`WriteQuery`]: OpPhase::WriteQuery
#[derive(Debug)]
enum OpPhase {
    /// Write, round 1: collecting sequence numbers (Fig. 4 lines 7–10).
    /// A write that begins under a live lease skips it.
    WriteQuery {
        waiter: Waiter,
        value: Value,
        round: Round,
        max_seq: Seq,
    },
    /// Persistent write, between rounds: waiting for the `writing` pre-log
    /// (Fig. 4 line 12).
    WritePreLog {
        waiter: Waiter,
        ts: Timestamp,
        value: Value,
        token: StoreToken,
        taken: Option<Armed>,
    },
    /// Write, round 2: propagating the tagged value (Fig. 4 lines 13–15).
    WritePropagate {
        waiter: Waiter,
        ts: Timestamp,
        value: Value,
        round: Round,
        /// The lease this write began under, to be handed on to `ts`.
        taken: Option<Armed>,
    },
    /// Read, round 1: collecting tagged values (Fig. 4 lines 32–35).
    ReadQuery {
        waiter: Waiter,
        round: Round,
        best: Best,
        /// Tag reported by the first ack, for the confirmed-timestamp
        /// fast path: the write-back may be skipped only if every later
        /// ack matches it (`None` until the first ack arrives).
        agreed: Option<Timestamp>,
        /// Whether every ack so far reported the agreed tag *and*
        /// attested it durable. Conservative across duplicates: a replica
        /// whose retransmitted ack carries a newer tag clears the flag
        /// even though the quorum might still be unanimous.
        all_agree: bool,
        /// Whether every ack so far carried a tag-lease grant. A lease
        /// may only be minted from a quorum that *unanimously* granted:
        /// a grant-less ack means that replica will not fence newer
        /// writes for us. (A renewal counts granting acks only.)
        all_granted: bool,
        /// The lease timers armed when the read was broadcast — the
        /// conservative pre-send clock stamp the minted lease expires
        /// against. `None` when the flavor does not lease.
        armed: Option<Armed>,
    },
    /// Read, round 2: writing back the freshest value (Fig. 4 lines
    /// 36–38) — and, when the query round's repliers all granted, minting
    /// the lease on it under the query's pre-send timers once through.
    ReadWriteBack {
        waiter: Waiter,
        ts: Timestamp,
        value: Value,
        round: Round,
        /// The query round's timers; `None` if not every replier granted.
        armed: Option<Armed>,
    },
}

/// Whom the round in the operation slot is run for.
#[derive(Debug, Clone, Copy)]
enum Waiter {
    /// The client operation that started it.
    Client(OpId),
    /// Nobody: a lease renewing itself at its renew point, while it
    /// still serves — or a chain going on without one: after a write
    /// whose taken lease ran out under it, or a renewal caught by its own
    /// horizon. The round is a full read that completes nobody's: it
    /// mints, writing back first where its repliers disagree; an
    /// invocation that finds it in the slot is served by the live lease
    /// (a read at the head of the queue) or by whatever the round leaves
    /// behind.
    Renewal,
    /// The process itself, not ready yet: the figure's recovery step,
    /// which completes nobody's operation.
    Recovery,
}

/// The highest-tagged pair a query round has collected (Fig. 4 line 35).
#[derive(Debug)]
struct Best {
    ts: Timestamp,
    value: Value,
}

impl Best {
    /// Nothing collected yet.
    fn initial(me: ProcessId) -> Self {
        Best {
            ts: Timestamp::new(0, me),
            value: Value::bottom(),
        }
    }

    /// Keeps `(ts, value)` if its tag is the highest yet; whether it did.
    fn offer(&mut self, ts: Timestamp, value: Value) -> bool {
        let higher = ts > self.ts;
        if higher {
            *self = Best { ts, value };
        }
        higher
    }
}

/// A lease's two timers as a round in flight sees them: armed at a
/// leasing read's pre-send stamp for the lease it may mint, or taken by a
/// write from the lease it began under, to hand on. Which of them fired
/// while the round was out decides what its completion does: a renew
/// point that passed makes the lease it leaves renew at once, a horizon
/// that passed leaves no lease (a write then renews instead).
#[derive(Debug, Clone, Copy)]
struct Armed {
    timers: LeaseTimers,
    due: bool,
    fired: bool,
}

impl Armed {
    fn new(timers: LeaseTimers) -> Self {
        Armed {
            timers,
            due: false,
            fired: false,
        }
    }
}

/// The two timers a leasing read arms at its pre-send stamp: the horizon
/// the lease it mints dies at, one term on, and its renew point,
/// [`renew_after`] on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LeaseTimers {
    horizon: TimerToken,
    renew: TimerToken,
}

/// How far into its term a lease renews: 7/8 of it, so the renewal's
/// round trip fits before the horizon and the lease serves on meanwhile.
fn renew_after(term: u64) -> u64 {
    term - term / 8
}

/// The idle allowance a client's minting read gives a chain: three
/// renewal periods of 7/8 term that serve nothing, so a register read at
/// least once every two terms keeps its lease.
const MINT_ALLOWANCE: u8 = 3;

/// The most idle renewal periods a chain may have earned: each read the
/// lease serves adds one, up to this, so an idle register costs at most
/// this many renewals after its last read.
const ALLOWANCE_CAP: u8 = 12;

/// The recovery catch-up (see the module docs): started with the
/// flavor's own recovery procedure — right after the replica is restored,
/// Fig. 4 line 42 / Fig. 5 line 18 — and run beside it; readiness waits
/// for both.
#[derive(Debug)]
enum CatchUp {
    /// Collecting a majority's tagged values, as a read's first round
    /// does (Fig. 4 lines 32–35) — and past the majority, vouchers.
    Query {
        round: Round,
        best: Best,
        /// The other processes whose ack carried exactly `best.ts`,
        /// attested durable.
        vouchers: Vec<ProcessId>,
    },
    /// The own replica adopted the quorum's best tag; waiting for the
    /// store that makes it durable here (Fig. 4 line 24).
    Store { ts: Timestamp },
}

/// Which path constructed the automaton (drives `Start` handling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StartMode {
    Fresh,
    Recovered,
}

/// A live coordinator-held tag lease: while it lives, reads of this
/// register are served locally in zero rounds. Minted from a read quorum
/// whose acks unanimously carried grants — at once when they agree, on
/// the fast path, or once the round's write-back is through when they do
/// not; it ends at its horizon timer (armed at read *broadcast* time, so
/// it expires before any granting replica releases a fenced newer write),
/// on any locally observed newer tag, when a renewal's mint replaces it,
/// or with the process. It lives here and nowhere else — no grant rides a
/// completion out to a client — which is what lets the replicas exempt
/// this process from its own grants (see [`crate::replica`]): **this
/// process sends a `Write` newer than its leased tag only while this is
/// `None`, and a `Read` only while it is `None` or as this lease's own
/// renewal**.
///
/// A write of this process does not end the lease, it *hands it on*: the
/// write takes it out of here before its first message leaves (so the
/// sentence above holds while they are out) and, completed, puts it back
/// on the tag it wrote under the **same** timers. The grants behind the
/// lease fence every foreign tag above the old one — the new tag and
/// reads of it included — until past that horizon, a live lease at
/// invocation proves no newer write or read has completed (all the
/// write's query round would establish), and nothing is served between
/// the take and the hand-on because the automaton runs one operation at
/// a time.
///
/// And use *renews* it, make-before-break: at its renew point, 7/8 into
/// the term ([`renew_after`]), a lease that earned it sends a read round
/// nobody waits for ([`Waiter::Renewal`]) and **serves on** meanwhile —
/// reads at zero rounds, writes queue behind the round. The replicas let
/// the renewal's `Read` past this process's grants, and the old grants
/// still fence every foreign tag above the leased one: a tag the
/// renewal's quorum unanimously reports, durable and granted, is one no
/// foreign write above has completed past and no later majority can
/// miss. So the mint replaces the lease, newer tag or not. A renewal is a
/// full read: one whose granting repliers disagree writes the leased tag
/// back — never a newer one while the lease serves, so the sentence above
/// holds — and mints from the write-back; it counts granting acks only,
/// so a replier that cannot grant yet is one not heard from, asked again
/// by the round's retransmission. A renewal caught by its own horizon goes
/// again at once from a fresh stamp, and a write whose taken lease ran out
/// under it renews right after it completes, as does a mint whose renew
/// point passed while its round was out. So a chain ends only when its
/// register goes unread — it lapses once its idle allowance
/// ([`RegisterAutomaton::allowance`]) is spent — or a newer tag appears.
#[derive(Debug)]
struct Lease {
    ts: Timestamp,
    value: Value,
    timers: LeaseTimers,
}

/// The lease term the replica role fences with: the flavor's term when
/// it actually leases, else 0 (inert).
fn replica_lease(flavor: &Flavor) -> u64 {
    if flavor.leases() {
        flavor.lease_micros
    } else {
        0
    }
}

/// The token source handed to the replica role: draws from the
/// automaton's one counter, so store and timer tokens never collide.
fn token_gen(counter: &mut u64) -> impl FnMut() -> u64 + '_ {
    move || {
        let t = *counter;
        *counter += 1;
        t
    }
}

/// The step every ack takes: `None` if `req` is not `round`'s; else
/// whether the ack from `from`, recorded through the node's preference,
/// reached the round's majority just now.
fn ack(pref: &mut Preferred, round: &mut Round, req: RequestId, from: ProcessId) -> Option<bool> {
    round.matches(req).then(|| pref.record(round, from))
}

/// The register automaton (see [`crate`] docs for the family table).
pub struct RegisterAutomaton {
    me: ProcessId,
    n: usize,
    majority: usize,
    flavor: Flavor,
    retransmit: Micros,
    start_mode: StartMode,
    replica: Replica,
    /// Stable recovery count (transient/regular flavors).
    rec: u64,
    /// Writer-local next sequence number (regular flavor only).
    next_wsn: Seq,
    /// The `writing` record a recovered automaton re-finishes before
    /// serving (persistent flavor); `None` on a fresh boot.
    writing: Option<WritingRecord>,
    /// The operation slot: the round in flight and whom it is for. A live
    /// lease implies `None`: whatever begins under a lease is served by it
    /// or takes it.
    op: Option<OpPhase>,
    /// The `recovered` counter's store a recovering automaton waits for
    /// before anything else of the figure's recovery (Fig. 5 lines 19–21).
    rec_store: Option<StoreToken>,
    catch_up: Option<CatchUp>,
    /// Live tag lease (leasing flavors only).
    lease: Option<Lease>,
    /// Renewal periods that may still serve nothing before the chain
    /// lapses: a client's minting read sets it to [`MINT_ALLOWANCE`], each
    /// read the lease serves and each hand-on adds one, up to
    /// [`ALLOWANCE_CAP`], and each renew point of a period that served
    /// nothing spends one. A renewal leaves while some is left.
    allowance: u8,
    /// Whether the current renewal period — since the last renew point,
    /// or the client's mint that started the chain — served a zero-round
    /// read or a write's hand-on: whether its renew point spends. A read
    /// served while a renewal is out counts for the period that renewal
    /// starts.
    served: bool,
    /// A renewal waits for the slot: `drain_queue` sends it before
    /// anything queued begins.
    renewal_due: bool,
    /// Where a thrifty round goes first. A shared memory keeps one per
    /// node and hands it to the register it feeds.
    preferred: Preferred,
    ready: bool,
    /// Invocations waiting for the process to be ready or the operation
    /// slot to free up, in arrival order.
    queued: VecDeque<(OpId, Op)>,
    token_counter: u64,
    nonce_counter: u64,
}

impl std::fmt::Debug for RegisterAutomaton {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegisterAutomaton")
            .field("me", &self.me)
            .field("flavor", &self.flavor.name)
            .field("ready", &self.ready)
            .field("busy", &self.op.is_some())
            .finish()
    }
}

impl RegisterAutomaton {
    /// Builds a fresh automaton (first boot, empty stable storage).
    pub fn fresh(me: ProcessId, n: usize, flavor: Flavor, retransmit: Micros) -> Self {
        RegisterAutomaton {
            me,
            n,
            majority: rmem_types::process::majority(n),
            flavor,
            retransmit,
            start_mode: StartMode::Fresh,
            replica: Replica::new(me, flavor.replica_logs).with_lease(replica_lease(&flavor)),
            rec: 0,
            next_wsn: 1,
            writing: None,
            op: None,
            rec_store: None,
            catch_up: None,
            lease: None,
            allowance: 0,
            served: false,
            renewal_due: false,
            preferred: Preferred::new(me),
            ready: false,
            queued: VecDeque::new(),
            token_counter: 0,
            nonce_counter: 0,
        }
    }

    /// Rebuilds an automaton from its stable snapshot after a crash.
    ///
    /// `incarnation` feeds the request-nonce space (see
    /// [`AutomatonFactory::recover`]).
    pub fn recovered(
        me: ProcessId,
        n: usize,
        flavor: Flavor,
        retransmit: Micros,
        incarnation: u64,
        stable: &dyn StableSnapshot,
    ) -> Self {
        let written = stable
            .get(KEY_WRITTEN)
            .and_then(|b| WrittenRecord::decode(&b).ok());
        let writing = stable
            .get(KEY_WRITING)
            .and_then(|b| WritingRecord::decode(&b).ok());
        // Fig. 4 lines 41–42 / Fig. 5 lines 17–18: restore the replica —
        // from the newer of `written` and `writing`, because a write this
        // node coordinated is durable here under its pre-log alone. A torn
        // `writing` tail decodes to nothing and leaves `written` in charge:
        // that write's propagation never started.
        let held = written
            .map(|r| (r.ts, r.value))
            .into_iter()
            .chain(writing.iter().map(|r| (r.ts, r.value.clone())))
            .max_by_key(|(ts, _)| *ts);
        let replica = match held {
            Some((ts, value)) => Replica::restored(me, flavor.replica_logs, ts, value),
            None => Replica::new(me, flavor.replica_logs),
        }
        .with_lease(replica_lease(&flavor));
        let rec = stable
            .get(KEY_RECOVERED)
            .and_then(|b| RecoveredRecord::decode(&b).ok())
            .map(|r| r.count)
            .unwrap_or(0);
        RegisterAutomaton {
            start_mode: StartMode::Recovered,
            next_wsn: replica.timestamp().seq + 1,
            replica,
            rec,
            writing,
            // Nonces from different incarnations must never collide; acks
            // can straddle a crash/recovery.
            nonce_counter: (incarnation + 1) << 32,
            ..Self::fresh(me, n, flavor, retransmit)
        }
    }

    /// The replica-held tag (exposed for tests and diagnostics).
    pub fn replica_timestamp(&self) -> Timestamp {
        self.replica.timestamp()
    }

    /// The replica-held value (exposed for tests and diagnostics).
    pub fn replica_value(&self) -> &Value {
        self.replica.value()
    }

    fn next_token(&mut self) -> StoreToken {
        let t = StoreToken(self.token_counter);
        self.token_counter += 1;
        t
    }

    fn arm(&mut self, after: Micros, out: &mut Vec<Action>) -> TimerToken {
        let token = TimerToken(self.token_counter);
        self.token_counter += 1;
        out.push(Action::SetTimer { token, after });
        token
    }

    /// The node-wide preference a shared memory lends this register while
    /// feeding it (see [`Preferred`]).
    pub(crate) fn preferred_mut(&mut self) -> &mut Preferred {
        &mut self.preferred
    }

    /// Opens a quorum round for `msg(req)` under a fresh request id — the
    /// one way every round starts. An operation round's first send is
    /// thrifty when the fast path is on (module docs), unless `widen` asks
    /// for all `n` at once, as a retransmission would; a round opened
    /// before the process is ready is a recovery round, with no history to
    /// go on, and like every round with the fast path off asks all `n`.
    /// A leasing flavor's operation `Read` then stamps its lease horizon
    /// and renew point, returned beside the round, *before* any replica
    /// can have seen the query: the minted lease then provably dies before
    /// a granting replica releases a fenced newer write. Last, the round's
    /// timer.
    fn open(
        &mut self,
        msg: impl FnOnce(RequestId) -> Message,
        widen: bool,
        out: &mut Vec<Action>,
    ) -> (Round, Option<LeaseTimers>) {
        let msg = msg(RequestId::new(self.me, self.nonce_counter));
        self.nonce_counter += 1;
        if self.ready && self.flavor.read_fast_path && !widen {
            let first = self.preferred.first_send(self.n);
            out.extend(first.map(|to| Action::Send {
                to,
                msg: msg.clone(),
            }));
        } else {
            out.extend(Action::broadcast(self.n, &msg));
        }
        let leased = self.ready && self.flavor.leases() && matches!(msg, Message::Read { .. });
        let term = self.flavor.lease_micros;
        let timers = leased.then(|| LeaseTimers {
            horizon: self.arm(Micros(term), out),
            renew: self.arm(Micros(renew_after(term)), out),
        });
        let timer = self.arm(self.retransmit, out);
        (Round::new(msg, self.majority, timer), timers)
    }

    /// The live round whose retransmission timer is `timer`: the
    /// catch-up's or the operation slot's.
    fn round_on(&mut self, timer: TimerToken) -> Option<&mut Round> {
        let catch_up = match &mut self.catch_up {
            Some(CatchUp::Query { round, .. }) => Some(round),
            _ => None,
        };
        let op = match &mut self.op {
            Some(
                OpPhase::WriteQuery { round, .. }
                | OpPhase::WritePropagate { round, .. }
                | OpPhase::ReadQuery { round, .. }
                | OpPhase::ReadWriteBack { round, .. },
            ) => Some(round),
            _ => None,
        };
        catch_up
            .into_iter()
            .chain(op)
            .find(|round| round.timer == timer)
    }

    /// Moves the live round on `timer` to a fresh retransmission timer.
    fn rearm(&mut self, timer: TimerToken, out: &mut Vec<Action>) {
        let fresh = self.arm(self.retransmit, out);
        self.round_on(timer).expect("a live round").timer = fresh;
    }

    // -- Start / recovery -------------------------------------------------

    fn on_start(&mut self, out: &mut Vec<Action>) {
        match self.start_mode {
            StartMode::Fresh => {
                // Fig. 4 lines 1–5 / Fig. 5 lines 1–5: initial records.
                // Not ack-gated; the automaton is immediately ready.
                self.replica
                    .initial_store(&mut token_gen(&mut self.token_counter), out);
                // No initial `writing` record: recovery reads an absent
                // slot as "no write to finish", which is all `(0, ⊥)` said.
                if self.flavor.rec_in_timestamp {
                    self.store_rec(out);
                }
                self.ready = true;
            }
            StartMode::Recovered => {
                // A recovered leasing replica cannot know which grants its
                // previous incarnation issued: fence every write ack for
                // one full hold term before trusting quiescence.
                self.replica
                    .boot_hold(&mut token_gen(&mut self.token_counter), out);
                self.start_recovery(out)
            }
        }
    }

    fn start_recovery(&mut self, out: &mut Vec<Action>) {
        match self.flavor.recovery {
            RecoveryPolicy::Nothing => {}
            RecoveryPolicy::FinishWrite => {
                // Fig. 4 lines 43–46: re-run the propagation round for the
                // logged writing record (harmless if that write in fact
                // completed — older tags are rejected everywhere). No
                // record: crashed before Initialize finished, nothing to
                // re-finish.
                if let Some(WritingRecord { ts, value }) = self.writing.take() {
                    self.start_propagate(Waiter::Recovery, ts, value, None, out);
                }
            }
            RecoveryPolicy::RecCounter | RecoveryPolicy::RecCounterAndQuery => {
                // Fig. 5 lines 19–21: bump and store the recovery counter
                // before serving anything.
                self.rec += 1;
                self.rec_store = Some(self.store_rec(out));
            }
        }
        // Beside what the figure prescribes, the catch-up (module docs):
        // it exists to keep read quorums unanimous, so it exists exactly
        // when the fast path does.
        if self.flavor.read_fast_path {
            let round = self.open(|req| Message::Read { req }, false, out).0;
            self.catch_up = Some(CatchUp::Query {
                round,
                best: Best::initial(self.me),
                vouchers: Vec::new(),
            });
        }
        self.drain_queue(out);
    }

    /// Logs the recovery counter `rec` (Fig. 5 lines 1–5 and 19–21).
    fn store_rec(&mut self, out: &mut Vec<Action>) -> StoreToken {
        let token = self.next_token();
        let record = RecoveredRecord { count: self.rec };
        out.push(Action::Store {
            token,
            key: KEY_RECOVERED.to_string(),
            bytes: record.encode(),
        });
        token
    }

    /// Ends the catch-up query if it can end (module docs): not before a
    /// majority answered; then vouched by a majority of others — no
    /// store —, or adopted and logged once vouching can no longer succeed
    /// or, `timer_fired`, has been waited for long enough. Returns whether
    /// the query ended.
    fn settle_catch_up(&mut self, timer_fired: bool, out: &mut Vec<Action>) -> bool {
        let (me, majority) = (self.me, self.majority);
        let Some(CatchUp::Query {
            round,
            best,
            vouchers,
        }) = &mut self.catch_up
        else {
            return false;
        };
        if !round.is_reached() {
            return false;
        }
        let ts = best.ts;
        let vouched = ts.seq > 0 && vouchers.len() >= majority;
        let silent_peers = ProcessId::all(self.n)
            .filter(|&p| p != me && !round.has_acked(p))
            .count();
        let stop_waiting = timer_fired
            || ts.seq == 0
            || self.replica.holds_durably(ts)
            || vouchers.len() + silent_peers < majority;
        if !vouched && !stop_waiting {
            return false;
        }
        let value = std::mem::take(&mut best.value);
        if vouched {
            self.replica.vouch(ts, &value, out);
            self.catch_up = None;
            self.drain_queue(out);
        } else {
            self.catch_up_to(ts, &value, out);
        }
        true
    }

    /// The catch-up quorum answered with `(ts, value)` as its best pair
    /// and nobody vouched for it: the own replica adopts it as it would a
    /// delayed `Write`, and the catch-up is through once the tag is
    /// durable here.
    fn catch_up_to(&mut self, ts: Timestamp, value: &Value, out: &mut Vec<Action>) {
        // A quorum that has seen no write has nothing to teach: initial
        // tags differ in their pid half only, and ⊥ is ⊥.
        let durable = ts.seq == 0
            || self
                .replica
                .adopt(ts, value, &mut token_gen(&mut self.token_counter), out);
        self.catch_up = (!durable).then_some(CatchUp::Store { ts });
        self.drain_queue(out);
    }

    /// The round in the operation slot is through: a client waiting for it
    /// learns `result`, and what waits begins.
    fn complete(&mut self, waiter: Waiter, result: OpResult, rounds: u32, out: &mut Vec<Action>) {
        if let Waiter::Client(op) = waiter {
            out.push(Action::Complete { op, result, rounds });
        }
        self.drain_queue(out);
    }

    /// Once the operation slot is free: turns ready if recovery is through
    /// — the counter's store, the figure's round and the catch-up —, sends
    /// a renewal that is due, and begins the invocation that has waited
    /// longest. While a renewal holds the slot, a live lease still serves
    /// the reads at the head of the queue.
    fn drain_queue(&mut self, out: &mut Vec<Action>) {
        if self.op.is_none() {
            self.ready |= self.rec_store.is_none() && self.catch_up.is_none();
            if std::mem::take(&mut self.renewal_due) {
                self.renew(false, out);
            }
        }
        let leased_read =
            self.lease.is_some() && matches!(self.queued.front(), Some((_, Op::Read)));
        if self.ready && (self.op.is_none() || leased_read) {
            if let Some((op, operation)) = self.queued.pop_front() {
                self.begin_op(op, operation, out);
            }
        }
    }

    /// A renewal is due and the slot is free: the period it closes spends
    /// one of the allowance unless it served, and the chain renews while
    /// some is left — to all `n` at once if `widen`.
    fn renew(&mut self, widen: bool, out: &mut Vec<Action>) {
        if !std::mem::take(&mut self.served) {
            self.allowance = self.allowance.saturating_sub(1);
        }
        if self.allowance > 0 {
            self.start_read(Waiter::Renewal, widen, out);
        }
    }

    /// The lease served a read or was handed on: the period counts as
    /// used, and the chain earns one more idle period.
    fn note_use(&mut self) {
        self.served = true;
        self.allowance = (self.allowance + 1).min(ALLOWANCE_CAP);
    }

    // -- Client operations ------------------------------------------------

    /// One operation at a time (§III-A's sequential processes): an
    /// invocation joins the queue and begins now if the process is ready
    /// and the operation slot free, or it is a read with nothing ahead of
    /// it that a live lease serves while its renewal is out; otherwise it
    /// waits its turn. A write waits for a renewal and so begins under
    /// the lease it leaves; a read behind the write waits for it, so
    /// operations on a register end in the order they arrived.
    fn on_invoke(&mut self, op: OpId, operation: Op, out: &mut Vec<Action>) {
        self.queued.push_back((op, operation.normalized()));
        if self.ready {
            self.drain_queue(out);
        }
    }

    fn begin_op(&mut self, op: OpId, operation: Op, out: &mut Vec<Action>) {
        let waiter = Waiter::Client(op);
        // A bare register automaton serves the default register only; the
        // shared-memory layer (`crate::memory`) strips addresses before
        // they get here.
        match operation.normalized() {
            Op::Write(value) => {
                // The lease leaves `self.lease` before the write's first
                // message does: the replicas let this process's write past
                // its own grants on the strength of nobody serving under
                // them.
                let taken = self.lease.take();
                if !self.flavor.write_query_round {
                    // Regular register: the single writer numbers writes
                    // locally.
                    let ts = Timestamp::new(self.next_wsn, self.me);
                    self.next_wsn += 1;
                    self.start_propagate(waiter, ts, value, None, out);
                } else if let Some(lease) = taken {
                    // A live lease is the query round already run: nothing
                    // newer than its tag has completed anywhere. Enter the
                    // figure at line 11 with it.
                    let taken = Some(Armed::new(lease.timers));
                    self.query_majority_reached(waiter, value, lease.ts.seq, taken, out);
                } else {
                    self.start_query(waiter, value, out);
                }
            }
            Op::Read => {
                // Zero-round path: a live lease proves no write newer than
                // the leased tag can have completed yet (every granting
                // replica still fences its ack), so serving the leased
                // value locally linearizes before any such write.
                if let Some(l) = &self.lease {
                    let result = OpResult::ReadValue(l.value.clone());
                    self.note_use();
                    self.complete(waiter, result, 0, out);
                } else {
                    self.start_read(waiter, false, out);
                }
            }
            // `normalized()` maps the addressed forms onto the two above.
            Op::ReadAt(_) | Op::WriteAt(..) => unreachable!("normalized() strips addresses"),
        }
    }

    /// Sends a read query round (Fig. 4 lines 32–35) for `waiter`.
    fn start_read(&mut self, waiter: Waiter, widen: bool, out: &mut Vec<Action>) {
        debug_assert!(
            self.lease.is_none() || matches!(waiter, Waiter::Renewal),
            "a Read leaves while leased only as the lease's renewal"
        );
        let (round, timers) = self.open(|req| Message::Read { req }, widen, out);
        self.op = Some(OpPhase::ReadQuery {
            waiter,
            round,
            best: Best::initial(self.me),
            agreed: None,
            all_agree: true,
            all_granted: true,
            armed: timers.map(Armed::new),
        });
    }

    /// Sends a write's query round for `waiter` (Fig. 4 lines 7–10):
    /// sequence numbers from a majority.
    fn start_query(&mut self, waiter: Waiter, value: Value, out: &mut Vec<Action>) {
        let round = self.open(|req| Message::SnReq { req }, false, out).0;
        self.op = Some(OpPhase::WriteQuery {
            waiter,
            value,
            round,
            max_seq: 0,
        });
    }

    fn start_propagate(
        &mut self,
        waiter: Waiter,
        ts: Timestamp,
        value: Value,
        taken: Option<Armed>,
        out: &mut Vec<Action>,
    ) {
        // Fig. 4 lines 13–15 (and Fig. 5 lines 12–14).
        let round = {
            let value = value.clone();
            self.open(|req| Message::Write { req, ts, value }, false, out)
                .0
        };
        self.op = Some(OpPhase::WritePropagate {
            waiter,
            ts,
            value,
            round,
            taken,
        });
    }

    /// Fig. 4 line 11 onwards, with `max_seq` the highest sequence number
    /// the query round — or, for a write that `taken` a live lease
    /// instead of running one, the leased tag — vouches for.
    fn query_majority_reached(
        &mut self,
        waiter: Waiter,
        value: Value,
        max_seq: Seq,
        taken: Option<Armed>,
        out: &mut Vec<Action>,
    ) {
        // Fig. 4 line 11: sn := sn + 1 — Fig. 5 line 11: sn := sn + rec + 1.
        // The own replica's tag joins the maximum: the quorum need not
        // include this node, and after an abandoned write the replica may
        // be ahead of it. The `writing` slot doubles as this node's replica
        // record, so a new pre-log must never carry a tag below one the
        // replica has already attested.
        let rec_component = if self.flavor.rec_in_timestamp {
            self.rec
        } else {
            0
        };
        let base = max_seq.max(self.replica.timestamp().seq);
        let ts = Timestamp::new(base + rec_component + 1, self.me);
        if self.flavor.write_pre_log {
            // Fig. 4 line 12: the pre-log — the first causal log of a
            // persistent write. The propagation round waits for it, and
            // the replica role tracks it as this node's store of `ts`.
            let token = self.next_token();
            let record = WritingRecord {
                ts,
                value: value.clone(),
            };
            self.replica.pre_log_issued(token, ts);
            out.push(Action::Store {
                token,
                key: KEY_WRITING.to_string(),
                bytes: record.encode(),
            });
            self.op = Some(OpPhase::WritePreLog {
                waiter,
                ts,
                value,
                token,
                taken,
            });
        } else {
            self.start_propagate(waiter, ts, value, taken, out);
        }
    }

    // -- Input dispatch ----------------------------------------------------

    fn on_message(&mut self, from: ProcessId, msg: Message, out: &mut Vec<Action>) {
        // Replica role first: requests are fully handled there.
        if self
            .replica
            .on_message(from, &msg, &mut token_gen(&mut self.token_counter), out)
        {
            // Any locally adopted newer tag kills the lease on the
            // spot: the leased value is provably no longer freshest (the
            // grant fence only covers writes *newer* than the minimum
            // granted tag, so equality keeps it).
            let held = self.replica.timestamp();
            if self.lease.as_ref().is_some_and(|l| held > l.ts) {
                self.lease = None;
            }
            return;
        }

        // Acks: route to the catch-up or the operation slot.
        match msg {
            Message::SnAck { req, seq } => self.on_sn_ack(from, req, seq, out),
            Message::WriteAck { req } => self.on_write_ack(from, req, out),
            ack @ Message::ReadAck { .. } => self.on_read_ack(from, ack, out),
            _ => {}
        }
    }

    fn on_sn_ack(&mut self, from: ProcessId, req: RequestId, seq: Seq, out: &mut Vec<Action>) {
        let Some(OpPhase::WriteQuery { round, max_seq, .. }) = &mut self.op else {
            return;
        };
        let Some(reached) = ack(&mut self.preferred, round, req, from) else {
            return;
        };
        *max_seq = (*max_seq).max(seq);
        if !reached {
            return;
        }
        let Some(OpPhase::WriteQuery {
            waiter,
            value,
            max_seq,
            ..
        }) = self.op.take()
        else {
            unreachable!("matched just above")
        };
        if let Waiter::Recovery = waiter {
            // The regular flavor's recovery: re-seed the writer-local
            // counter beyond anything a majority has seen, plus one slot
            // per past crash for in-flight writes nobody logged.
            self.next_wsn = self.next_wsn.max(max_seq + self.rec + 1);
            self.drain_queue(out);
        } else {
            self.query_majority_reached(waiter, value, max_seq, None, out);
        }
    }

    fn on_write_ack(&mut self, from: ProcessId, req: RequestId, out: &mut Vec<Action>) {
        let Some(OpPhase::WritePropagate { round, .. } | OpPhase::ReadWriteBack { round, .. }) =
            &mut self.op
        else {
            return;
        };
        if ack(&mut self.preferred, round, req, from) != Some(true) {
            return;
        }
        match self.op.take() {
            Some(OpPhase::WritePropagate {
                waiter,
                ts,
                value,
                taken,
                ..
            }) => {
                // Fig. 4 line 16: the write returns — after its query and
                // propagation rounds; the regular writer skips the query,
                // and so did a write that took a lease for it.
                let rounds = if self.flavor.write_query_round && taken.is_none() {
                    2
                } else {
                    1
                };
                // The hand-on: the taken lease's grants are still open at
                // every replica that issued them, and they fence the tag
                // just written from everyone else — so it serves on, under
                // the timers it was minted with, unless its horizon fired
                // meanwhile or the own replica met something newer (the
                // mint's own guard). A renew point that passed under the
                // write is due, and so is a horizon: the chain goes on
                // from a renewal, which a read queued behind it waits for.
                // `complete` renews before anything queued begins.
                if let Some(taken) = taken.filter(|_| !self.replica_newer_than(ts)) {
                    self.note_use();
                    self.renewal_due = taken.due || taken.fired;
                    if !taken.fired {
                        let timers = taken.timers;
                        self.lease = Some(Lease { ts, value, timers });
                    }
                }
                self.complete(waiter, OpResult::Written, rounds, out);
            }
            Some(OpPhase::ReadWriteBack {
                waiter,
                ts,
                value,
                armed,
                ..
            }) => {
                // Fig. 4 line 39: the read returns the written-back value,
                // now on a majority — and leaves the lease its granting
                // quorum earned on it.
                self.mint(waiter, ts, &value, armed);
                self.complete(waiter, OpResult::ReadValue(value), 2, out);
            }
            _ => unreachable!("matched just above"),
        }
    }

    fn on_read_ack(&mut self, from: ProcessId, msg: Message, out: &mut Vec<Action>) {
        let Message::ReadAck {
            req,
            ts,
            value,
            durable,
            grant,
        } = msg
        else {
            return;
        };
        // Recovery catch-up round: Fig. 4 line 35 and the vouchers for
        // its best tag, nothing else — no fast-path or lease bookkeeping,
        // the quorum is only asked what it holds.
        if let Some(CatchUp::Query {
            round,
            best,
            vouchers,
        }) = &mut self.catch_up
        {
            if let Some(reached) = ack(&mut self.preferred, round, req, from) {
                let timer = round.timer;
                if best.offer(ts, value) {
                    vouchers.clear();
                }
                if ts == best.ts && durable && from != self.me && !vouchers.contains(&from) {
                    vouchers.push(from);
                }
                if !self.settle_catch_up(false, out) && reached {
                    // Vouchers get one retransmit period from here.
                    self.rearm(timer, out);
                }
                return;
            }
        }

        let Some(OpPhase::ReadQuery {
            waiter,
            round,
            best,
            agreed,
            all_agree,
            all_granted,
            ..
        }) = &mut self.op
        else {
            return;
        };
        // A renewal counts only the repliers that fence for it: one that
        // cannot grant yet is treated as one not heard from, and the
        // round's retransmission asks it again. Any majority of granting
        // repliers will do, as for a thrifty round's first send.
        if matches!(waiter, Waiter::Renewal) && grant == 0 {
            return;
        }
        let Some(reached) = ack(&mut self.preferred, round, req, from) else {
            return;
        };
        // Confirmed-timestamp bookkeeping: unanimity requires every ack to
        // carry the agreed tag and attest it durable. Two never-written
        // replicas "agree" even though their initial tags differ in the
        // pid component — both report seq 0 and ⊥, and ⊥ cannot be
        // new-old inverted.
        match agreed {
            None => *agreed = Some(ts),
            Some(first) => {
                let both_initial = ts.seq == 0 && first.seq == 0;
                if ts != *first && !both_initial {
                    *all_agree = false;
                }
            }
        }
        if !durable {
            *all_agree = false;
        }
        // A lease needs every replier fencing for us.
        if grant == 0 {
            *all_granted = false;
        }
        // Fig. 4 line 35: select the value with the highest tag.
        best.offer(ts, value);
        if !reached {
            return;
        }
        let Some(OpPhase::ReadQuery {
            waiter,
            best: Best { ts, value },
            all_agree,
            all_granted,
            armed,
            ..
        }) = self.op.take()
        else {
            unreachable!("matched just above")
        };
        // The fast path: a unanimous quorum of durable tags proves a
        // majority already stably holds `ts` — this quorum, or the one that
        // vouched for a replica in it at its recovery — so the write-back
        // (Fig. 4 lines 36–38) would be redundant: every later quorum
        // intersects that majority in a replica that can never again
        // report less than `ts`.
        let fast = self.flavor.read_fast_path && all_agree;
        // Every replier granted: the whole quorum has promised to fence
        // any foreign write above the tag it reported — at most `ts` —
        // until past a horizon armed before any of them saw the query. So
        // once a majority holds `ts`, until then it *is* the register.
        let armed = armed.filter(|_| all_granted);
        let write_back = !fast
            && self.flavor.read_write_back
            && match waiter {
                Waiter::Client(_) => true,
                // A renewal writes back only what it could have minted,
                // and never a tag newer than the lease that serves.
                Waiter::Renewal => {
                    armed.is_some() && self.lease.as_ref().is_none_or(|l| ts <= l.ts)
                }
                Waiter::Recovery => false,
            };
        if write_back {
            // Fig. 4 lines 36–38: write back before returning.
            let round = {
                let value = value.clone();
                self.open(|req| Message::Write { req, ts, value }, false, out)
                    .0
            };
            self.op = Some(OpPhase::ReadWriteBack {
                waiter,
                ts,
                value,
                round,
                armed,
            });
            return;
        }
        // Single-round read: the regular register always, the atomic
        // flavors when the fast path fired. A renewal, minted or not,
        // completes nobody's: a lease it could not replace serves on to
        // its own horizon.
        if fast {
            self.mint(waiter, ts, &value, armed);
        }
        self.complete(waiter, OpResult::ReadValue(value), 1, out);
    }

    /// A leasing read round through — on the fast path, or its write-back
    /// — on `(ts, value)`, with `armed` its timers if every replier
    /// granted: mints the lease unless the horizon fired while the round
    /// was out or the own replica holds something newer. A renewal's mint
    /// replaces the lease it renews, on a newer tag too: the old grants
    /// kept every foreign tag above the old one from completing, and this
    /// quorum holds the new one. A client's mint starts a chain with
    /// [`MINT_ALLOWANCE`]; the read it serves counts for the period before
    /// the lease's, like a renewal's used period. A renew point that passed
    /// while the round was out is due at once.
    fn mint(&mut self, waiter: Waiter, ts: Timestamp, value: &Value, armed: Option<Armed>) {
        let Some(armed) = armed.filter(|a| !a.fired) else {
            return;
        };
        if self.replica_newer_than(ts) {
            return;
        }
        self.lease = Some(Lease {
            ts,
            value: value.clone(),
            timers: armed.timers,
        });
        if let Waiter::Client(_) = waiter {
            self.allowance = MINT_ALLOWANCE;
            self.served = false;
        }
        self.renewal_due = armed.due;
    }

    /// Whether the local replica already holds a tag strictly newer than
    /// `ts` — minting a lease on an older tag would serve stale reads.
    fn replica_newer_than(&self, ts: Timestamp) -> bool {
        self.replica.timestamp() > ts
    }

    fn on_store_done(&mut self, token: StoreToken, out: &mut Vec<Action>) {
        match self.op.take() {
            Some(OpPhase::WritePreLog {
                waiter,
                ts,
                value,
                token: t,
                taken,
            }) if t == token => {
                // Pre-log durable: this node now stably holds `(ts, value)`,
                // so its replica adopts the pair as durable and will answer
                // the self-addressed `Write` below without a `written` store.
                self.replica.on_pre_log_done(token, &value, out);
                // The second round may begin.
                self.start_propagate(waiter, ts, value, taken, out);
                return;
            }
            other => self.op = other,
        }
        if self.replica.on_store_done(token, out) {
            if let Some(CatchUp::Store { ts }) = self.catch_up {
                if self.replica.holds_durably(ts) {
                    self.catch_up = None;
                    self.drain_queue(out);
                }
            }
            return;
        }
        if self.rec_store == Some(token) {
            self.rec_store = None;
            // The regular register then re-learns its write frontier from
            // a majority (see `on_sn_ack`).
            if self.flavor.recovery == RecoveryPolicy::RecCounterAndQuery {
                self.start_query(Waiter::Recovery, Value::bottom(), out);
            }
            self.drain_queue(out);
        }
    }

    fn on_timer(&mut self, token: TimerToken, out: &mut Vec<Action>) {
        // A lease's horizon: the lease ends, and the next read asks the
        // quorum — or waits for the renewal still out, and is served by
        // what it mints. Its renew point: the renewal is due, and leaves
        // now (the slot is free while a lease lives, save for that lease's
        // own renewal) if the allowance lasts.
        if let Some(lease) = &self.lease {
            if lease.timers.horizon == token {
                self.lease = None;
                return;
            }
            if lease.timers.renew == token {
                self.renewal_due = true;
                self.drain_queue(out);
                return;
            }
        }
        // The timers a round in flight armed or a write took: a renew point
        // is noted for the round's completion to renew at once; a horizon
        // leaves the round nothing to mint or hand on — the replicas'
        // fences may open before a lease clocked from that stamp would
        // expire. A renewal caught by its own horizon has nothing else to
        // do: it goes again at once from a fresh stamp, one round a term
        // at most, while the allowance lasts — and to everyone, as a
        // retransmission would go: its first send went unanswered.
        if let Some(
            OpPhase::WritePreLog {
                waiter,
                taken: Some(armed),
                ..
            }
            | OpPhase::WritePropagate {
                waiter,
                taken: Some(armed),
                ..
            }
            | OpPhase::ReadQuery {
                waiter,
                armed: Some(armed),
                ..
            }
            | OpPhase::ReadWriteBack {
                waiter,
                armed: Some(armed),
                ..
            },
        ) = &mut self.op
        {
            if armed.timers.renew == token {
                armed.due = true;
                return;
            }
            if armed.timers.horizon == token {
                armed.fired = true;
                if matches!(waiter, Waiter::Renewal) {
                    self.op = None;
                    self.renew(true, out);
                    self.drain_queue(out);
                }
                return;
            }
        }
        // The replica role's grant-fence horizon.
        if self
            .replica
            .on_timer(token, &mut token_gen(&mut self.token_counter), out)
        {
            return;
        }
        // A catch-up whose majority answered waits on its timer for
        // vouchers only: it stops waiting, and re-sends nothing.
        if let Some(CatchUp::Query { round, .. }) = &self.catch_up {
            if round.timer == token && round.is_reached() {
                self.settle_catch_up(true, out);
                return;
            }
        }
        // Otherwise the live round on this timer is still waiting for
        // acks: its request goes to all `n` again, and it re-arms. Stale
        // timers (from completed rounds) match nothing and die silently.
        let n = self.n;
        let Some(round) = self.round_on(token) else {
            return;
        };
        out.extend(Action::broadcast(n, &round.msg));
        self.rearm(token, out);
    }
}

impl Automaton for RegisterAutomaton {
    fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
        match input {
            Input::Start => self.on_start(out),
            Input::Invoke { op, operation } => self.on_invoke(op, operation, out),
            Input::Message { from, msg } => self.on_message(from, msg, out),
            Input::StoreDone(token) => self.on_store_done(token, out),
            Input::Timer(token) => self.on_timer(token, out),
        }
    }

    fn is_ready(&self) -> bool {
        self.ready
    }

    /// The client operation in the slot. A bare register is one register,
    /// whatever `reg` says.
    fn active(&self, _reg: RegisterId) -> Option<OpId> {
        let (OpPhase::WriteQuery { waiter, .. }
        | OpPhase::WritePreLog { waiter, .. }
        | OpPhase::WritePropagate { waiter, .. }
        | OpPhase::ReadQuery { waiter, .. }
        | OpPhase::ReadWriteBack { waiter, .. }) = self.op.as_ref()?;
        match waiter {
            Waiter::Client(op) => Some(*op),
            Waiter::Renewal | Waiter::Recovery => None,
        }
    }

    fn algorithm(&self) -> &'static str {
        self.flavor.name
    }
}

/// Factory producing [`RegisterAutomaton`]s of one flavor.
#[derive(Debug, Clone)]
pub struct FlavorFactory {
    flavor: Flavor,
    retransmit: Micros,
}

impl FlavorFactory {
    /// Creates a factory for `flavor` with the given retransmission
    /// period.
    pub fn new(flavor: Flavor, retransmit: Micros) -> Self {
        FlavorFactory { flavor, retransmit }
    }

    /// The flavor this factory builds.
    pub fn flavor(&self) -> Flavor {
        self.flavor
    }
}

impl AutomatonFactory for FlavorFactory {
    fn fresh(&self, me: ProcessId, n: usize) -> Box<dyn Automaton> {
        Box::new(RegisterAutomaton::fresh(
            me,
            n,
            self.flavor,
            self.retransmit,
        ))
    }

    fn recover(
        &self,
        me: ProcessId,
        n: usize,
        incarnation: u64,
        stable: &dyn StableSnapshot,
    ) -> Box<dyn Automaton> {
        Box::new(RegisterAutomaton::recovered(
            me,
            n,
            self.flavor,
            self.retransmit,
            incarnation,
            stable,
        ))
    }

    fn algorithm(&self) -> &'static str {
        self.flavor.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_types::EmptySnapshot;

    fn fresh(flavor: Flavor) -> RegisterAutomaton {
        let mut a = RegisterAutomaton::fresh(ProcessId(0), 3, flavor, Micros(1_000));
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        a
    }

    fn sends_of(out: &[Action]) -> Vec<&Message> {
        out.iter()
            .filter_map(|a| match a {
                Action::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .collect()
    }

    /// Where the sends in `out` go, in order.
    fn targets(out: &[Action]) -> Vec<u16> {
        out.iter()
            .filter_map(|a| match a {
                Action::Send { to, .. } => Some(to.0),
                _ => None,
            })
            .collect()
    }

    /// The request id of the `Read` round broadcast in `out` — a
    /// recovering automaton's catch-up.
    fn read_req(out: &[Action]) -> RequestId {
        sends_of(out)
            .iter()
            .find_map(|m| match m {
                Message::Read { req } => Some(*req),
                _ => None,
            })
            .expect("a Read broadcast")
    }

    /// A durable `ReadAck` of round `req` reporting `[seq, pid]` (⊥ for
    /// `seq` 0, else `v`).
    fn read_ack(seq: Seq, pid: u16, v: u32, req: RequestId) -> Message {
        Message::ReadAck {
            req,
            ts: Timestamp::new(seq, ProcessId(pid)),
            value: if seq == 0 {
                Value::bottom()
            } else {
                Value::from_u32(v)
            },
            durable: true,
            grant: 0,
        }
    }

    /// `ack` attesting its tag non-durable — still in flight at its
    /// replica, or fenced there behind someone's lease.
    fn volatile(mut ack: Message) -> Message {
        if let Message::ReadAck { durable, .. } = &mut ack {
            *durable = false;
        }
        ack
    }

    /// Answers the read round `req` with `(from, seq, pid, v)` acks.
    fn read_acks_from(
        a: &mut RegisterAutomaton,
        req: RequestId,
        acks: [(u16, Seq, u16, u32); 2],
        out: &mut Vec<Action>,
    ) {
        for (from, seq, pid, v) in acks {
            a.on_input(
                Input::Message {
                    from: ProcessId(from),
                    msg: read_ack(seq, pid, v, req),
                },
                out,
            );
        }
    }

    /// Answers the read round `req` from p1 and p2, both reporting
    /// `[seq, p1]` / `v`.
    fn read_acks(
        a: &mut RegisterAutomaton,
        req: RequestId,
        seq: Seq,
        v: u32,
        out: &mut Vec<Action>,
    ) {
        read_acks_from(a, req, [(1, seq, 1, v), (2, seq, 1, v)], out);
    }

    #[test]
    fn fresh_boot_initialises_and_is_ready() {
        let mut a = RegisterAutomaton::fresh(ProcessId(0), 3, Flavor::persistent(), Micros(1_000));
        assert!(!a.is_ready());
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        assert!(a.is_ready());
        // The initial `written` record only: an absent `writing` slot
        // already says "no write to finish".
        let keys: Vec<&str> = out
            .iter()
            .filter_map(|a| match a {
                Action::Store { key, .. } => Some(key.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(keys, [KEY_WRITTEN]);
    }

    #[test]
    fn crash_stop_boot_stores_nothing() {
        let mut a = RegisterAutomaton::fresh(ProcessId(0), 3, Flavor::crash_stop(), Micros(1_000));
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        assert!(out.iter().all(|a| !matches!(a, Action::Store { .. })));
        assert!(a.is_ready());
    }

    #[test]
    fn write_starts_with_sn_query_broadcast() {
        let mut a = fresh(Flavor::persistent());
        let mut out = Vec::new();
        a.on_input(
            Input::Invoke {
                op: OpId::new(ProcessId(0), 0),
                operation: Op::Write(Value::from_u32(1)),
            },
            &mut out,
        );
        let sends = sends_of(&out);
        assert_eq!(sends.len(), 3, "broadcast to all 3 processes");
        assert!(sends.iter().all(|m| matches!(m, Message::SnReq { .. })));
        assert!(out.iter().any(|a| matches!(a, Action::SetTimer { .. })));
    }

    #[test]
    fn regular_write_skips_query_round() {
        let mut a = fresh(Flavor::regular());
        let mut out = Vec::new();
        a.on_input(
            Input::Invoke {
                op: OpId::new(ProcessId(0), 0),
                operation: Op::Write(Value::from_u32(1)),
            },
            &mut out,
        );
        let sends = sends_of(&out);
        assert!(sends.iter().all(|m| matches!(m, Message::Write { .. })));
        // First write is numbered 1 by the local counter.
        if let Message::Write { ts, .. } = sends[0] {
            assert_eq!(*ts, Timestamp::new(1, ProcessId(0)));
        }
    }

    /// Every completion in `out`, in order: its op's number, result and
    /// rounds.
    fn completions(out: &[Action]) -> Vec<(u64, OpResult, u32)> {
        out.iter()
            .filter_map(|x| match x {
                Action::Complete { op, result, rounds } => {
                    Some((op.counter, result.clone(), *rounds))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_busy_register_queues_invocations_in_fifo_order() {
        let mut a = fresh(Flavor::transient());
        let first = invoke(&mut a, 0, Op::Read);
        // Two more wait their turn, emitting nothing.
        assert!(invoke(&mut a, 1, Op::Read).is_empty());
        assert!(invoke(&mut a, 2, Op::Write(Value::from_u32(7))).is_empty());
        // The first read's quorum completes it, and the second read begins
        // right then, with a round of its own.
        let mut out = Vec::new();
        read_acks(&mut a, read_req(&first), 4, 40, &mut out);
        let mut done = completions(&out);
        let second = read_req(&out);
        assert_ne!(second, read_req(&first));
        let mut out = Vec::new();
        read_acks(&mut a, second, 4, 40, &mut out);
        done.extend(completions(&out));
        // Then the write, with its query round.
        let Message::SnReq { req } = *sends_of(&out)[0] else {
            panic!("the queued write begins: {out:?}")
        };
        let mut out = Vec::new();
        for from in [1, 2] {
            out.extend(deliver(&mut a, from, Message::SnAck { req, seq: 4 }));
        }
        done.extend(completions(&write_acks(&mut a, &out)));
        assert_eq!(
            done,
            [
                (0, read_value(40), 1),
                (1, read_value(40), 1),
                (2, OpResult::Written, 2)
            ]
        );
    }

    #[test]
    fn invocation_during_recovery_is_queued() {
        // A recovered transient automaton is not ready until its rec
        // counter is durable and its catch-up round has answered.
        let mut a = RegisterAutomaton::recovered(
            ProcessId(0),
            3,
            Flavor::transient(),
            Micros(1_000),
            1,
            &EmptySnapshot,
        );
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        assert!(!a.is_ready());
        let store_token = out
            .iter()
            .find_map(|a| match a {
                Action::Store { token, key, .. } if *key == KEY_RECOVERED => Some(*token),
                _ => None,
            })
            .expect("recovery must store the rec counter");
        let catch_up = read_req(&out);
        out.clear();
        a.on_input(
            Input::Invoke {
                op: OpId::new(ProcessId(0), 0),
                operation: Op::Read,
            },
            &mut out,
        );
        assert!(out.is_empty(), "queued, not started: {out:?}");
        // The store alone is half of it: the catch-up is still asking.
        a.on_input(Input::StoreDone(store_token), &mut out);
        assert!(!a.is_ready());
        assert!(out.is_empty(), "still queued: {out:?}");
        // The quorum's answer makes it ready and starts the queued read.
        read_acks(&mut a, catch_up, 0, 0, &mut out);
        assert!(a.is_ready());
        assert!(
            out.iter().any(|x| matches!(
                x,
                Action::Send {
                    msg: Message::Read { .. },
                    ..
                }
            )),
            "queued read must start: {out:?}"
        );
    }

    #[test]
    fn transient_recovery_bumps_rec_counter() {
        let mut a = RegisterAutomaton::recovered(
            ProcessId(0),
            3,
            Flavor::transient(),
            Micros(1_000),
            3,
            &EmptySnapshot,
        );
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        let rec_bytes = out
            .iter()
            .find_map(|a| match a {
                Action::Store { key, bytes, .. } if *key == KEY_RECOVERED => Some(bytes.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(RecoveredRecord::decode(&rec_bytes).unwrap().count, 1);
    }

    #[test]
    fn persistent_recovery_rebroadcasts_writing_record() {
        let (mut a, out) = recover_persistent(&snapshot(None, Some((7, 0, 42))));
        assert!(!a.is_ready());
        // The re-propagation first, then the catch-up's Read round.
        let sends = sends_of(&out);
        assert_eq!(sends.len(), 3 + 3);
        for m in &sends[..3] {
            let Message::Write { ts, value, .. } = m else {
                panic!("expected W, got {m}")
            };
            assert_eq!(*ts, Timestamp::new(7, ProcessId(0)));
            assert_eq!(value.as_u32(), Some(42));
        }
        assert!(sends[3..].iter().all(|m| matches!(m, Message::Read { .. })));
        let catch_up = read_req(&out);
        // A majority of acks completes the figure's part of recovery …
        let req = match &out[0] {
            Action::Send { msg, .. } => msg.request_id(),
            _ => panic!(),
        };
        let mut out2 = Vec::new();
        a.on_input(
            Input::Message {
                from: ProcessId(1),
                msg: Message::WriteAck { req },
            },
            &mut out2,
        );
        assert!(!a.is_ready());
        a.on_input(
            Input::Message {
                from: ProcessId(2),
                msg: Message::WriteAck { req },
            },
            &mut out2,
        );
        assert!(!a.is_ready());
        // … and a quorum that knows nothing newer completes the rest.
        read_acks(&mut a, catch_up, 6, 36, &mut out2);
        assert!(a.is_ready());
        assert_eq!(stores_in(&out2), 0);
    }

    #[test]
    fn an_invocation_during_the_refinish_round_waits_until_ready() {
        let (mut a, out) = recover_persistent(&snapshot(None, Some((7, 0, 42))));
        let refinish = sends_of(&out)[0].request_id();
        let catch_up = read_req(&out);
        // The re-finish round holds the operation slot: a read invoked now
        // waits.
        assert!(invoke(&mut a, 0, Op::Read).is_empty());
        // The catch-up's quorum holds the tag the own pre-log does: it is
        // through, but the re-finish round is still out.
        let mut out = Vec::new();
        read_acks_from(&mut a, catch_up, [(1, 7, 0, 42), (2, 7, 0, 42)], &mut out);
        assert!(!a.is_ready());
        assert!(out.is_empty(), "{out:?}");
        // Its majority of acks makes the process ready, and the read
        // begins: a round of its own, to the quorum that answered.
        let mut out = deliver(&mut a, 1, Message::WriteAck { req: refinish });
        assert!(out.is_empty() && !a.is_ready());
        out = deliver(&mut a, 2, Message::WriteAck { req: refinish });
        assert!(a.is_ready());
        assert_eq!(targets(&out), [0, 1, 2], "{out:?}");
        let read = read_req(&out);
        assert_ne!(read, catch_up);
        let mut out = Vec::new();
        read_acks_from(&mut a, read, [(1, 7, 0, 42), (2, 7, 0, 42)], &mut out);
        assert_eq!(completions(&out), [(0, read_value(42), 1)]);
    }

    // ---------------------------------------------------------------
    // The pre-log doubles as the coordinator's replica record
    // ---------------------------------------------------------------

    fn stores_in(out: &[Action]) -> usize {
        out.iter()
            .filter(|a| matches!(a, Action::Store { .. }))
            .count()
    }

    fn write_acks_of(out: &[Action]) -> usize {
        sends_of(out)
            .iter()
            .filter(|m| matches!(m, Message::WriteAck { .. }))
            .count()
    }

    /// Invokes `Write(value)` at `a` and answers its query round from p1
    /// and p2 with `seqs`; returns the pre-log's token and decoded record.
    fn write_up_to_pre_log(
        a: &mut RegisterAutomaton,
        value: u32,
        seqs: [Seq; 2],
    ) -> (StoreToken, WritingRecord) {
        let mut out = Vec::new();
        a.on_input(
            Input::Invoke {
                op: OpId::new(ProcessId(0), 0),
                operation: Op::Write(Value::from_u32(value)),
            },
            &mut out,
        );
        let req = sends_of(&out)[0].request_id();
        out.clear();
        for (pid, seq) in [(1, seqs[0]), (2, seqs[1])] {
            a.on_input(
                Input::Message {
                    from: ProcessId(pid),
                    msg: Message::SnAck { req, seq },
                },
                &mut out,
            );
        }
        assert!(sends_of(&out).is_empty(), "propagation waits for the log");
        let [Action::Store { token, key, bytes }] = out.as_slice() else {
            panic!("expected exactly the pre-log store, got {out:?}")
        };
        assert_eq!(key, KEY_WRITING);
        (*token, WritingRecord::decode(bytes).unwrap())
    }

    #[test]
    fn self_write_after_pre_log_acks_without_a_store() {
        let mut a = fresh(Flavor::persistent());
        let (token, record) = write_up_to_pre_log(&mut a, 9, [4, 6]);
        assert_eq!(record.ts, Timestamp::new(7, ProcessId(0)));
        let mut out = Vec::new();
        a.on_input(Input::StoreDone(token), &mut out);
        // The pre-log is the replica's record of the tag.
        assert_eq!(a.replica_timestamp(), record.ts);
        assert_eq!(a.replica_value().as_u32(), Some(9));
        let writes: Vec<&Message> = sends_of(&out);
        // p1 and p2 completed the query: thrifty, the round goes to them
        // and this process — everyone.
        assert_eq!(targets(&out), [0, 1, 2], "propagation round: {out:?}");
        let own = (*writes[0]).clone();
        assert!(matches!(own, Message::Write { ts, .. } if ts == record.ts));
        assert_eq!(stores_in(&out), 0);
        // The self-addressed Write finds the tag durable: ack, no store.
        out.clear();
        a.on_input(
            Input::Message {
                from: ProcessId(0),
                msg: own,
            },
            &mut out,
        );
        assert_eq!(write_acks_of(&out), 1, "{out:?}");
        assert_eq!(stores_in(&out), 0, "redundant store: {out:?}");
    }

    #[test]
    fn self_write_before_pre_log_completes_is_parked() {
        let mut a = fresh(Flavor::persistent());
        let (token, record) = write_up_to_pre_log(&mut a, 9, [4, 6]);
        // A Write carrying the pre-logged tag reaches the own replica while
        // the pre-log is still in flight: neither acked nor stored again.
        let mut out = Vec::new();
        a.on_input(
            Input::Message {
                from: ProcessId(0),
                msg: Message::Write {
                    req: RequestId::new(ProcessId(0), 99),
                    ts: record.ts,
                    value: record.value.clone(),
                },
            },
            &mut out,
        );
        assert!(out.is_empty(), "early ack or second store: {out:?}");
        // The pre-log completing releases the parked ack and starts the
        // propagation round.
        a.on_input(Input::StoreDone(token), &mut out);
        assert_eq!(write_acks_of(&out), 1);
        // The released ack, then the round to the query's quorum (p1 and
        // p2) and this process.
        assert_eq!(targets(&out), [0, 0, 1, 2]);
        assert_eq!(stores_in(&out), 0);
    }

    fn snapshot(
        written: Option<(Seq, u16, u32)>,
        writing: Option<(Seq, u16, u32)>,
    ) -> std::collections::HashMap<String, bytes::Bytes> {
        let mut stable = std::collections::HashMap::new();
        if let Some((seq, pid, v)) = written {
            let record = WrittenRecord {
                ts: Timestamp::new(seq, ProcessId(pid)),
                value: Value::from_u32(v),
            };
            stable.insert(KEY_WRITTEN.to_string(), record.encode());
        }
        if let Some((seq, pid, v)) = writing {
            let record = WritingRecord {
                ts: Timestamp::new(seq, ProcessId(pid)),
                value: Value::from_u32(v),
            };
            stable.insert(KEY_WRITING.to_string(), record.encode());
        }
        stable
    }

    fn recover_persistent(
        stable: &std::collections::HashMap<String, bytes::Bytes>,
    ) -> (RegisterAutomaton, Vec<Action>) {
        let mut a = RegisterAutomaton::recovered(
            ProcessId(0),
            3,
            Flavor::persistent(),
            Micros(1_000),
            1,
            stable,
        );
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        (a, out)
    }

    #[test]
    fn recovery_attests_a_newer_writing_record_and_refinishes_it() {
        // The node coordinated [7,0] and crashed: only its pre-log holds
        // the tag, `written` is still at an older adoption.
        let stable = snapshot(Some((3, 1, 30)), Some((7, 0, 42)));
        let (mut a, out) = recover_persistent(&stable);
        assert_eq!(a.replica_timestamp(), Timestamp::new(7, ProcessId(0)));
        assert_eq!(a.replica_value().as_u32(), Some(42));
        assert!(!a.is_ready(), "the write is re-finished before serving");
        let own = (*sends_of(&out)[0]).clone();
        assert!(matches!(own, Message::Write { ts, .. } if ts.seq == 7));
        // The restored tag is attested durable to readers …
        let mut out = Vec::new();
        a.on_input(
            Input::Message {
                from: ProcessId(1),
                msg: Message::Read {
                    req: RequestId::new(ProcessId(1), 5),
                },
            },
            &mut out,
        );
        assert!(matches!(
            sends_of(&out)[0],
            Message::ReadAck { ts, durable: true, .. } if ts.seq == 7
        ));
        // … and the re-finish round's self-addressed Write needs no store.
        out.clear();
        a.on_input(
            Input::Message {
                from: ProcessId(0),
                msg: own,
            },
            &mut out,
        );
        assert_eq!(write_acks_of(&out), 1);
        assert_eq!(stores_in(&out), 0, "{out:?}");
    }

    #[test]
    fn recovery_keeps_written_when_it_is_newer_or_writing_is_torn() {
        let stable = snapshot(Some((9, 1, 90)), Some((7, 0, 42)));
        let (a, _) = recover_persistent(&stable);
        assert_eq!(a.replica_timestamp(), Timestamp::new(9, ProcessId(1)));
        // A torn `writing` tail: that write's propagation never started,
        // so there is nothing to attest and nothing to finish.
        let mut stable = snapshot(Some((3, 1, 30)), None);
        stable.insert(
            KEY_WRITING.to_string(),
            bytes::Bytes::from_static(b"\x01torn"),
        );
        let (mut a, mut out) = recover_persistent(&stable);
        assert_eq!(a.replica_timestamp(), Timestamp::new(3, ProcessId(1)));
        // Only the catch-up stands between this recovery and readiness.
        let sends = sends_of(&out);
        assert!(sends.iter().all(|m| matches!(m, Message::Read { .. })));
        let catch_up = read_req(&out);
        read_acks(&mut a, catch_up, 3, 30, &mut out);
        assert!(a.is_ready());
        assert_eq!(stores_in(&out), 0);
    }

    #[test]
    fn new_tag_exceeds_the_own_replica_after_an_abandoned_write() {
        // An abandoned write left [5,0] in `writing` — attested by this
        // replica, seen by no one in the next query quorum.
        let stable = snapshot(None, Some((5, 0, 50)));
        let (mut a, out) = recover_persistent(&stable);
        let req = sends_of(&out)[0].request_id();
        for pid in [1, 2] {
            a.on_input(
                Input::Message {
                    from: ProcessId(pid),
                    msg: Message::WriteAck { req },
                },
                &mut Vec::new(),
            );
        }
        // The catch-up quorum answers from behind too and teaches nothing.
        read_acks(&mut a, read_req(&out), 3, 30, &mut Vec::new());
        assert!(a.is_ready());
        assert_eq!(a.replica_timestamp(), Timestamp::new(5, ProcessId(0)));
        // The quorum answers from behind; the next pre-log overwrites the
        // `writing` slot and so must still carry a higher tag.
        let (_, record) = write_up_to_pre_log(&mut a, 60, [2, 3]);
        assert_eq!(record.ts, Timestamp::new(6, ProcessId(0)));
    }

    // ---------------------------------------------------------------
    // Recovery catch-up
    // ---------------------------------------------------------------

    #[test]
    fn stale_recovered_replica_adopts_the_quorums_best_pair_with_one_store() {
        // Down while [9,2] was written over its [3,1].
        for flavor in [Flavor::persistent(), Flavor::transient()] {
            let stable = snapshot(Some((3, 1, 30)), None);
            let mut a =
                RegisterAutomaton::recovered(ProcessId(0), 3, flavor, Micros(1_000), 1, &stable);
            let mut out = Vec::new();
            a.on_input(Input::Start, &mut out);
            // One Read broadcast: the same request to all three.
            let reads: Vec<RequestId> = sends_of(&out)
                .iter()
                .filter_map(|m| match m {
                    Message::Read { req } => Some(*req),
                    _ => None,
                })
                .collect();
            assert_eq!(reads.len(), 3, "{}: {out:?}", flavor.name);
            let req = reads[0];
            assert!(reads.iter().all(|r| *r == req));
            // The flavor's own phase, if any, finishes meanwhile.
            for action in out.clone() {
                if let Action::Store { token, .. } = action {
                    a.on_input(Input::StoreDone(token), &mut Vec::new());
                }
            }
            out.clear();
            // Its own ack counts toward the majority; p2's carries news
            // and vouches for it — one voucher, not a majority of them.
            for (from, msg) in [(0, read_ack(3, 1, 30, req)), (2, read_ack(9, 2, 90, req))] {
                assert!(out.is_empty());
                a.on_input(
                    Input::Message {
                        from: ProcessId(from),
                        msg,
                    },
                    &mut out,
                );
            }
            // p1 may vouch yet: it gets one retransmit period, and
            // nothing is stored meanwhile.
            let [Action::SetTimer { token: wait, after }] = out[..] else {
                panic!("expected the wait for vouchers, got {out:?}")
            };
            assert_eq!(after, Micros(1_000));
            // It stays silent: the timer adopts — exactly one store, no
            // re-send.
            let mut out = fire(&mut a, wait);
            let [Action::Store { token, key, bytes }] = out.as_slice() else {
                panic!("expected exactly the adoption store, got {out:?}")
            };
            assert_eq!(key, KEY_WRITTEN);
            let record = WrittenRecord::decode(bytes).unwrap();
            assert_eq!(record.ts, Timestamp::new(9, ProcessId(2)));
            assert_eq!(record.value.as_u32(), Some(90));
            assert_eq!(a.replica_timestamp(), record.ts);
            let token = *token;
            // Not ready until the pair is durable here: an invocation
            // queues, a late ack of the finished round changes nothing.
            out.clear();
            assert!(!a.is_ready());
            a.on_input(
                Input::Invoke {
                    op: OpId::new(ProcessId(0), 0),
                    operation: Op::Read,
                },
                &mut out,
            );
            a.on_input(
                Input::Message {
                    from: ProcessId(1),
                    msg: read_ack(9, 2, 90, req),
                },
                &mut out,
            );
            assert!(out.is_empty(), "{out:?}");
            a.on_input(Input::StoreDone(token), &mut out);
            assert!(a.is_ready());
            assert_ne!(read_req(&out), req, "the queued read starts its own round");
            // From here on the replica attests the tag durable.
            out.clear();
            a.on_input(
                Input::Message {
                    from: ProcessId(1),
                    msg: Message::Read {
                        req: RequestId::new(ProcessId(1), 5),
                    },
                },
                &mut out,
            );
            assert!(matches!(
                sends_of(&out)[0],
                Message::ReadAck { ts, durable: true, .. } if ts.seq == 9
            ));
        }
    }

    #[test]
    fn up_to_date_recovered_replica_is_ready_after_the_round_with_no_store() {
        let stable = snapshot(Some((9, 2, 90)), None);
        let (mut a, mut out) = recover_persistent(&stable);
        let req = read_req(&out);
        out.clear();
        // One peer is behind, the other level: nothing to learn.
        for (from, msg) in [(1, read_ack(3, 1, 30, req)), (2, read_ack(9, 2, 90, req))] {
            assert!(!a.is_ready());
            a.on_input(
                Input::Message {
                    from: ProcessId(from),
                    msg,
                },
                &mut out,
            );
        }
        assert!(a.is_ready());
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn catch_up_waits_for_an_adoption_store_already_in_flight() {
        let stable = snapshot(Some((3, 1, 30)), None);
        let (mut a, mut out) = recover_persistent(&stable);
        let req = read_req(&out);
        out.clear();
        // A peer's Write lands mid-recovery: adopted, its store in flight.
        a.on_input(
            Input::Message {
                from: ProcessId(2),
                msg: Message::Write {
                    req: RequestId::new(ProcessId(2), 8),
                    ts: Timestamp::new(9, ProcessId(2)),
                    value: Value::from_u32(90),
                },
            },
            &mut out,
        );
        let [Action::Store { token, .. }] = out.as_slice() else {
            panic!("expected the adoption store, got {out:?}")
        };
        let token = *token;
        out.clear();
        // The quorum reports the tag the replica already holds, volatile
        // here, and p1 vouches for it; p2 could vouch too but stays
        // silent for the period it is given.
        out.extend(deliver(&mut a, 0, volatile(read_ack(9, 2, 90, req))));
        out.extend(deliver(&mut a, 1, read_ack(9, 2, 90, req)));
        let wait = timer_of(&out, 1_000);
        assert_eq!(out.len(), 1, "{out:?}");
        // No second store, but no readiness either until the first lands.
        let mut out = fire(&mut a, wait);
        assert!(out.is_empty(), "{out:?}");
        assert!(!a.is_ready());
        a.on_input(Input::StoreDone(token), &mut out);
        assert!(a.is_ready());
        assert_eq!(write_acks_of(&out), 1, "the peer's parked ack releases");
    }

    /// An automaton of `flavor` among `n`, recovered at `[3, p1]` / 30
    /// with the flavor's own recovery phase through; its catch-up round.
    fn recovered_behind(flavor: Flavor, n: usize) -> (RegisterAutomaton, RequestId) {
        let stable = snapshot(Some((3, 1, 30)), None);
        let mut a =
            RegisterAutomaton::recovered(ProcessId(0), n, flavor, Micros(1_000), 1, &stable);
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        for action in &out {
            if let Action::Store { token, key, .. } = action {
                assert_eq!(key, KEY_RECOVERED, "the flavor's own store only");
                a.on_input(Input::StoreDone(*token), &mut Vec::new());
            }
        }
        (a, read_req(&out))
    }

    /// The one `written` record `out` stores.
    fn adoption_in(out: &[Action]) -> WrittenRecord {
        let [Action::Store { key, bytes, .. }] = out else {
            panic!("expected exactly the adoption store, got {out:?}")
        };
        assert_eq!(key, KEY_WRITTEN);
        WrittenRecord::decode(bytes).unwrap()
    }

    #[test]
    fn a_majority_of_vouchers_adopts_the_tag_without_a_store() {
        for flavor in [Flavor::persistent(), Flavor::transient()] {
            let name = flavor.name;
            let (mut a, req) = recovered_behind(flavor, 3);
            // Its own ack and p1's make the majority; p1 vouches for
            // [9,2]. One voucher: wait, store nothing.
            let mut out = deliver(&mut a, 0, read_ack(3, 1, 30, req));
            out.extend(deliver(&mut a, 1, read_ack(9, 2, 90, req)));
            let wait = timer_of(&out, 1_000);
            assert_eq!(stores_in(&out), 0, "{name}: {out:?}");
            // A duplicate of p1's ack is not a second voucher.
            assert!(deliver(&mut a, 1, read_ack(9, 2, 90, req)).is_empty());
            assert!(!a.is_ready());
            // p2 vouches too: a majority of others holds [9,2] on disk.
            // Ready, and not one store.
            let out = deliver(&mut a, 2, read_ack(9, 2, 90, req));
            assert!(out.is_empty(), "{name}: {out:?}");
            assert!(a.is_ready(), "{name}");
            assert_eq!(a.replica_timestamp(), Timestamp::new(9, ProcessId(2)));
            assert_eq!(a.replica_value().as_u32(), Some(90));
            // The vouched tag is durable here: attested to readers, and
            // an older Write is acknowledged without a store.
            let read = Message::Read {
                req: RequestId::new(ProcessId(1), 5),
            };
            let out = deliver(&mut a, 1, read);
            assert!(matches!(
                sends_of(&out)[0],
                Message::ReadAck { ts, durable: true, .. } if ts.seq == 9
            ));
            let older = Message::Write {
                req: RequestId::new(ProcessId(1), 6),
                ts: Timestamp::new(7, ProcessId(1)),
                value: Value::from_u32(70),
            };
            let out = deliver(&mut a, 1, older);
            assert_eq!((write_acks_of(&out), stores_in(&out)), (1, 0), "{name}");
            // The wait's timer died with the query.
            assert!(fire(&mut a, wait).is_empty(), "{name}");
        }
    }

    #[test]
    fn without_enough_vouchers_the_timer_adopts_with_one_store_and_no_resend() {
        let (mut a, req) = recovered_behind(Flavor::persistent(), 3);
        let mut out = deliver(&mut a, 0, read_ack(3, 1, 30, req));
        out.extend(deliver(&mut a, 1, read_ack(9, 2, 90, req)));
        let wait = timer_of(&out, 1_000);
        let out = fire(&mut a, wait);
        // Exactly the adoption store: no Read re-sent, no timer re-armed.
        assert_eq!(adoption_in(&out).ts, Timestamp::new(9, ProcessId(2)));
        let [Action::Store { token, .. }] = out[..] else {
            unreachable!()
        };
        assert!(!a.is_ready());
        // p2's voucher, late: the query is over.
        assert!(deliver(&mut a, 2, read_ack(9, 2, 90, req)).is_empty());
        a.on_input(Input::StoreDone(token), &mut Vec::new());
        assert!(a.is_ready());
    }

    #[test]
    fn a_best_tag_attested_non_durable_never_vouches() {
        // Both peers report [9,2]; p2 attests it non-durable (fenced
        // behind a lease, say). Everyone but this process has answered and
        // one voucher is all there is: the adoption store goes out at
        // once, without waiting.
        let (mut a, req) = recovered_behind(Flavor::persistent(), 3);
        let mut out = deliver(&mut a, 1, read_ack(9, 2, 90, req));
        out.extend(deliver(&mut a, 2, volatile(read_ack(9, 2, 90, req))));
        assert_eq!(adoption_in(&out).ts, Timestamp::new(9, ProcessId(2)));
    }

    #[test]
    fn a_newer_best_tag_starts_the_vouchers_over() {
        // Five processes: three vouchers needed. p1 and p2 vouch for
        // [9,2]; p3 reports [11,3], and only p3 vouches for that. With p4
        // the one peer left to answer, two vouchers are out of reach: the
        // newer pair is adopted and logged at once.
        let (mut a, req) = recovered_behind(Flavor::persistent(), 5);
        let mut out = deliver(&mut a, 1, read_ack(9, 2, 90, req));
        out.extend(deliver(&mut a, 2, read_ack(9, 2, 90, req)));
        assert!(out.is_empty(), "no majority yet: {out:?}");
        let out = deliver(&mut a, 3, read_ack(11, 3, 110, req));
        let record = adoption_in(&out);
        assert_eq!(record.ts, Timestamp::new(11, ProcessId(3)));
        assert_eq!(record.value.as_u32(), Some(110));
    }

    #[test]
    fn recovery_without_the_fast_path_is_the_figures_verbatim() {
        // Fig. 5 lines 19–21: the rec counter, nothing else.
        let mut a = RegisterAutomaton::recovered(
            ProcessId(0),
            3,
            Flavor::transient().with_read_fast_path(false),
            Micros(1_000),
            1,
            &snapshot(Some((3, 1, 30)), None),
        );
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        let rec_store = Action::Store {
            token: StoreToken(0),
            key: KEY_RECOVERED.to_string(),
            bytes: RecoveredRecord { count: 1 }.encode(),
        };
        assert_eq!(out, [rec_store]);
        a.on_input(Input::StoreDone(StoreToken(0)), &mut out);
        assert!(a.is_ready());

        // Fig. 4 lines 43–46: the re-propagation round, nothing else.
        let mut a = RegisterAutomaton::recovered(
            ProcessId(0),
            3,
            Flavor::persistent().with_read_fast_path(false),
            Micros(1_000),
            1,
            &snapshot(Some((3, 1, 30)), Some((7, 0, 42))),
        );
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        let req = RequestId::new(ProcessId(0), 2 << 32);
        let write = Message::Write {
            req,
            ts: Timestamp::new(7, ProcessId(0)),
            value: Value::from_u32(42),
        };
        let mut expected: Vec<Action> = Action::broadcast(3, &write).collect();
        expected.push(Action::SetTimer {
            token: TimerToken(0),
            after: Micros(1_000),
        });
        assert_eq!(out, expected);
        for pid in [1, 2] {
            a.on_input(
                Input::Message {
                    from: ProcessId(pid),
                    msg: Message::WriteAck { req },
                },
                &mut out,
            );
        }
        assert!(a.is_ready());
        // And a crash-stop process still recovers in no time at all.
        let mut a = RegisterAutomaton::recovered(
            ProcessId(0),
            3,
            Flavor::crash_stop(),
            Micros(1_000),
            1,
            &EmptySnapshot,
        );
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        assert!(a.is_ready() && out.is_empty());
    }

    #[test]
    fn catch_up_round_retransmits_on_its_timer() {
        let (mut a, out) = recover_persistent(&snapshot(Some((3, 1, 30)), None));
        let req = read_req(&out);
        let [Action::SetTimer { token: timer, .. }] = out[3..] else {
            panic!("expected the round's timer after its broadcast: {out:?}")
        };
        let mut out = Vec::new();
        a.on_input(Input::Timer(timer), &mut out);
        let resent = sends_of(&out);
        assert_eq!(resent.len(), 3);
        assert!(resent
            .iter()
            .all(|m| matches!(m, Message::Read { req: r } if *r == req)));
        let [.., Action::SetTimer { token: rearmed, .. }] = out[..] else {
            panic!("expected a fresh timer: {out:?}")
        };
        assert_ne!(rearmed, timer);
        // The old timer is stale now; the new one dies with the round.
        out.clear();
        a.on_input(Input::Timer(timer), &mut out);
        assert!(out.is_empty());
        read_acks(&mut a, req, 3, 30, &mut out);
        assert!(a.is_ready());
        out.clear();
        a.on_input(Input::Timer(rearmed), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn recovered_nonces_do_not_collide_with_fresh_ones() {
        let mut fresh_a = fresh(Flavor::transient());
        let mut out = Vec::new();
        fresh_a.on_input(
            Input::Invoke {
                op: OpId::new(ProcessId(0), 0),
                operation: Op::Read,
            },
            &mut out,
        );
        let fresh_req = match sends_of(&out)[0] {
            Message::Read { req } => *req,
            m => panic!("{m}"),
        };

        let mut rec_a = RegisterAutomaton::recovered(
            ProcessId(0),
            3,
            Flavor::transient(),
            Micros(1_000),
            0,
            &EmptySnapshot,
        );
        let mut out2 = Vec::new();
        rec_a.on_input(Input::Start, &mut out2);
        let Some(Action::Store { token, .. }) = out2.first().cloned() else {
            panic!()
        };
        let catch_up = read_req(&out2);
        rec_a.on_input(Input::StoreDone(token), &mut out2);
        read_acks(&mut rec_a, catch_up, 0, 0, &mut out2);
        out2.clear();
        rec_a.on_input(
            Input::Invoke {
                op: OpId::new(ProcessId(0), 1),
                operation: Op::Read,
            },
            &mut out2,
        );
        let rec_req = match sends_of(&out2)[0] {
            Message::Read { req } => *req,
            m => panic!("{m}"),
        };
        assert_ne!(
            fresh_req, rec_req,
            "nonce spaces of incarnations must be disjoint"
        );
    }

    #[test]
    fn timer_retransmits_current_round_only() {
        let mut a = fresh(Flavor::persistent());
        let mut out = Vec::new();
        a.on_input(
            Input::Invoke {
                op: OpId::new(ProcessId(0), 0),
                operation: Op::Read,
            },
            &mut out,
        );
        let timer = out
            .iter()
            .find_map(|x| match x {
                Action::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        out.clear();
        a.on_input(Input::Timer(timer), &mut out);
        // Rebroadcast of the read + a fresh timer.
        assert_eq!(sends_of(&out).len(), 3);
        assert!(out.iter().any(|x| matches!(x, Action::SetTimer { .. })));
        // A stale timer does nothing.
        out.clear();
        a.on_input(Input::Timer(timer), &mut out);
        assert!(out.is_empty());
    }

    // ---------------------------------------------------------------
    // Thrifty rounds
    // ---------------------------------------------------------------

    /// Invokes `operation` at `a` and acknowledges its first round from
    /// `quorum`, in that order; what the acks emitted.
    fn complete_first_round(a: &mut RegisterAutomaton, quorum: &[u16]) -> Vec<Action> {
        let out = invoke(a, 0, Op::Write(Value::from_u32(1)));
        let req = sends_of(&out)[0].request_id();
        let mut acks = Vec::new();
        for &from in quorum {
            acks.extend(deliver(a, from, Message::SnAck { req, seq: 0 }));
        }
        acks
    }

    #[test]
    fn after_a_completed_round_the_next_first_asks_that_majority_and_a_retransmit_all() {
        let mut a = fresh(Flavor::transient());
        // No history yet: everyone, as in the figures.
        assert_eq!(targets(&invoke(&mut a, 9, Op::Read)), [0, 1, 2]);
        let mut a = fresh(Flavor::transient());
        // p2 and this process complete the query round: the propagation
        // round asks exactly them — a majority, self included.
        let out = complete_first_round(&mut a, &[2, 0]);
        assert_eq!(targets(&out), [0, 2]);
        // Its retransmission widens to all three, and so does every later
        // one.
        let timer = timer_of(&out, 1_000);
        let resent = fire(&mut a, timer);
        assert_eq!(targets(&resent), [0, 1, 2]);
        assert_eq!(targets(&fire(&mut a, timer_of(&resent, 1_000))), [0, 1, 2]);
        // p1 answers the widened round before p2 does: the next round
        // goes to p1 instead.
        let req = sends_of(&out)[0].request_id();
        for from in [1, 0] {
            deliver(&mut a, from, Message::WriteAck { req });
        }
        assert_eq!(targets(&invoke(&mut a, 1, Op::Read)), [0, 1]);

        // Five processes, a quorum of three with this one in it: those
        // three.
        let mut a = RegisterAutomaton::fresh(ProcessId(0), 5, Flavor::persistent(), Micros(1_000));
        a.on_input(Input::Start, &mut Vec::new());
        let out = complete_first_round(&mut a, &[3, 0, 1]);
        let [Action::Store { token, .. }] = out[..] else {
            panic!("the pre-log: {out:?}")
        };
        let mut out = Vec::new();
        a.on_input(Input::StoreDone(token), &mut out);
        assert_eq!(targets(&out), [0, 1, 3]);
    }

    #[test]
    fn without_the_fast_path_every_round_asks_everyone() {
        for flavor in [
            Flavor::persistent().with_read_fast_path(false),
            Flavor::transient().with_read_fast_path(false),
            Flavor::crash_stop(),
            Flavor::regular(),
        ] {
            let name = flavor.name;
            let mut a = fresh(flavor);
            let out = invoke(&mut a, 0, Op::Read);
            let req = sends_of(&out)[0].request_id();
            let mut acks = Vec::new();
            for from in [2, 0] {
                acks.extend(deliver(&mut a, from, read_ack(0, 0, 0, req)));
            }
            // After p2 and this process answered, the write-back (where
            // the flavor has one) still asks all three …
            if flavor.read_write_back {
                assert_eq!(targets(&acks), [0, 1, 2], "{name}");
                let req = sends_of(&acks)[0].request_id();
                acks = deliver(&mut a, 2, Message::WriteAck { req });
                acks.extend(deliver(&mut a, 0, Message::WriteAck { req }));
            }
            assert!(completion(&acks).is_some(), "{name}");
            // … and so does the next operation's first send.
            let next = invoke(&mut a, 1, Op::Write(Value::from_u32(1)));
            assert_eq!(targets(&next), [0, 1, 2], "{name}");
        }
    }

    // ---------------------------------------------------------------
    // Tag leases: handed on by a write, renewed by use
    // ---------------------------------------------------------------

    /// The lease term of these tests — not the retransmission period, so
    /// a horizon timer is told from a round's by its delay.
    const TERM: u64 = 2_500;

    /// The renew point of a [`TERM`] lease: 7/8 of it.
    const RENEW: u64 = TERM - TERM / 8;

    /// Invokes `operation` as op `n`; everything it emitted.
    fn invoke(a: &mut RegisterAutomaton, n: u64, operation: Op) -> Vec<Action> {
        let mut out = Vec::new();
        let op = OpId::new(ProcessId(0), n);
        a.on_input(Input::Invoke { op, operation }, &mut out);
        out
    }

    fn deliver(a: &mut RegisterAutomaton, from: u16, msg: Message) -> Vec<Action> {
        let mut out = Vec::new();
        let from = ProcessId(from);
        a.on_input(Input::Message { from, msg }, &mut out);
        out
    }

    fn fire(a: &mut RegisterAutomaton, token: TimerToken) -> Vec<Action> {
        let mut out = Vec::new();
        a.on_input(Input::Timer(token), &mut out);
        out
    }

    /// The one completion in `out`: its result and rounds.
    fn completion(out: &[Action]) -> Option<(OpResult, u32)> {
        out.iter().find_map(|x| match x {
            Action::Complete { result, rounds, .. } => Some((result.clone(), *rounds)),
            _ => None,
        })
    }

    fn read_value(v: u32) -> OpResult {
        OpResult::ReadValue(Value::from_u32(v))
    }

    /// The timer `out` armed for `after` µs.
    fn timer_of(out: &[Action], after: u64) -> TimerToken {
        out.iter()
            .find_map(|x| match x {
                Action::SetTimer { token, after: a } if a.0 == after => Some(*token),
                _ => None,
            })
            .expect("the timer")
    }

    /// `ack` carrying a [`TERM`] grant.
    fn granted(mut ack: Message) -> Message {
        if let Message::ReadAck { grant, .. } = &mut ack {
            *grant = TERM as u32;
        }
        ack
    }

    /// p1 and p2 answer the read round `req` unanimously — `[seq, p1]` /
    /// `v`, durable, granted.
    fn grant_acks(a: &mut RegisterAutomaton, req: RequestId, seq: Seq, v: u32) -> Vec<Action> {
        let mut out = Vec::new();
        for from in [1, 2] {
            out.extend(deliver(a, from, granted(read_ack(seq, 1, v, req))));
        }
        out
    }

    /// The lease timers a leasing read round armed in `out`.
    fn lease_timers(out: &[Action]) -> LeaseTimers {
        LeaseTimers {
            horizon: timer_of(out, TERM),
            renew: timer_of(out, RENEW),
        }
    }

    /// p1 and p2 acknowledge the `Write` round broadcast in `out`.
    fn write_acks(a: &mut RegisterAutomaton, out: &[Action]) -> Vec<Action> {
        let req = sends_of(out)[0].request_id();
        let mut acks = Vec::new();
        for from in [1, 2] {
            acks.extend(deliver(a, from, Message::WriteAck { req }));
        }
        acks
    }

    /// A ready automaton of `flavor` — in its second incarnation (`rec`
    /// = 1 where the flavor counts) if `recovered` — whose read (op 0)
    /// just minted a lease on `[4, p1]` / 40; and that lease's timers.
    fn holding_a_lease(flavor: Flavor, recovered: bool) -> (RegisterAutomaton, LeaseTimers) {
        let mut a = if recovered {
            let mut a = RegisterAutomaton::recovered(
                ProcessId(0),
                3,
                flavor,
                Micros(1_000),
                1,
                &EmptySnapshot,
            );
            // The rec counter's store, then the catch-up's adoption.
            let mut out = Vec::new();
            a.on_input(Input::Start, &mut out);
            read_acks(&mut a, read_req(&out), 4, 40, &mut out);
            for action in out {
                if let Action::Store { token, .. } = action {
                    a.on_input(Input::StoreDone(token), &mut Vec::new());
                }
            }
            a
        } else {
            fresh(flavor)
        };
        assert!(a.is_ready());
        let out = invoke(&mut a, 0, Op::Read);
        let timers = lease_timers(&out);
        let acks = grant_acks(&mut a, read_req(&out), 4, 40);
        assert_eq!(completion(&acks), Some((read_value(40), 1)));
        assert!(a.lease.is_some(), "minted");
        (a, timers)
    }

    #[test]
    fn a_write_under_a_live_lease_is_one_round_and_hands_the_lease_on() {
        for (flavor, recovered, rec) in [
            (Flavor::transient(), false, 0),
            (Flavor::transient(), true, 1),
            (Flavor::persistent(), false, 0),
        ] {
            let (mut a, timers) = holding_a_lease(flavor.with_lease(TERM), recovered);
            let mut out = invoke(&mut a, 1, Op::Write(Value::from_u32(7)));
            // The lease is out of `self.lease` before anything leaves …
            assert!(a.lease.is_none(), "taken when the write begins");
            if flavor.write_pre_log {
                let [Action::Store { token, .. }] = out[..] else {
                    panic!("the pre-log and nothing else: {out:?}")
                };
                out = Vec::new();
                a.on_input(Input::StoreDone(token), &mut out);
            }
            // … and what leaves is the propagation round: the lease was
            // the query round. The tag is the figure's line 11 over the
            // leased one, `rec` included.
            let sends = sends_of(&out);
            // To the quorum that answered the minting read (p1 and p2)
            // and this process.
            assert_eq!(targets(&out), [0, 1, 2], "{out:?}");
            let written = Timestamp::new(4 + rec + 1, ProcessId(0));
            assert!(sends
                .iter()
                .all(|m| matches!(m, Message::Write { ts, .. } if *ts == written)));
            let acks = write_acks(&mut a, &out);
            assert_eq!(completion(&acks), Some((OpResult::Written, 1)));
            // Handed on: the tag just written, the horizon it had.
            let lease = a.lease.as_ref().expect("handed on");
            assert_eq!((lease.ts, lease.timers.horizon), (written, timers.horizon));
            let out = invoke(&mut a, 2, Op::Read);
            assert_eq!(completion(&out), Some((read_value(7), 0)));
            assert!(sends_of(&out).is_empty());
            // It still ends when the old one would have.
            fire(&mut a, timers.horizon);
            assert!(a.lease.is_none());
        }
    }

    #[test]
    fn a_write_whose_lease_ran_out_under_it_renews_and_a_newer_local_tag_ends_the_chain() {
        // The horizon fires between the write's first message and its last
        // ack: nothing is left to hand on, but the chain goes on — a
        // renewal leaves right after the write completes, to its quorum
        // (p1 and p2) and this process, and a read invoked meanwhile
        // waits for it and is served by what it mints.
        let (mut a, timers) = holding_a_lease(Flavor::transient().with_lease(TERM), false);
        let out = invoke(&mut a, 1, Op::Write(Value::from_u32(7)));
        assert!(fire(&mut a, timers.renew).is_empty(), "the write holds it");
        assert!(fire(&mut a, timers.horizon).is_empty());
        let acks = write_acks(&mut a, &out);
        assert_eq!(completions(&acks), [(1, OpResult::Written, 1)]);
        assert!(a.lease.is_none(), "nothing left to hand on");
        assert_eq!(targets(&acks), [0, 1, 2], "{acks:?}");
        assert!(invoke(&mut a, 2, Op::Read).is_empty(), "queued");
        let req = read_req(&acks);
        let mut minted = Vec::new();
        for from in [1, 2] {
            minted.extend(deliver(&mut a, from, granted(read_ack(5, 0, 7, req))));
        }
        assert_eq!(completions(&minted), [(2, read_value(7), 0)]);
        assert!(sends_of(&minted).is_empty());
        let written = Timestamp::new(5, ProcessId(0));
        assert_eq!(a.lease.as_ref().map(|l| l.ts), Some(written));

        // The own replica meets a newer tag meanwhile: the chain ends
        // there, and the next read asks the quorum (p1 and p2) and this
        // process.
        let newer = Message::Write {
            req: RequestId::new(ProcessId(2), 8),
            ts: Timestamp::new(9, ProcessId(2)),
            value: Value::from_u32(90),
        };
        let (mut a, _) = holding_a_lease(Flavor::transient().with_lease(TERM), false);
        let out = invoke(&mut a, 1, Op::Write(Value::from_u32(7)));
        deliver(&mut a, 2, newer);
        let acks = write_acks(&mut a, &out);
        assert_eq!(completions(&acks), [(1, OpResult::Written, 1)]);
        assert!(a.lease.is_none() && sends_of(&acks).is_empty(), "{acks:?}");
        let out = invoke(&mut a, 2, Op::Read);
        assert_eq!(completion(&out), None);
        assert_eq!(targets(&out), [0, 1, 2], "the read asks the quorum");
    }

    #[test]
    fn a_write_without_a_lease_is_the_figures_two_rounds() {
        // No lease yet; leasing off; the fast path (and so leasing) off:
        // granted acks or not, the write runs its query round.
        for flavor in [
            Flavor::transient().with_lease(TERM),
            Flavor::transient(),
            Flavor::transient()
                .with_lease(TERM)
                .with_read_fast_path(false),
        ] {
            let mut a = fresh(flavor);
            if flavor.lease_micros == 0 || !flavor.read_fast_path {
                let out = invoke(&mut a, 0, Op::Read);
                let mut acks = grant_acks(&mut a, read_req(&out), 4, 40);
                if !flavor.read_fast_path {
                    acks = write_acks(&mut a, &acks);
                }
                assert!(completion(&acks).is_some());
                assert!(a.lease.is_none());
            }
            let out = invoke(&mut a, 1, Op::Write(Value::from_u32(7)));
            let Message::SnReq { req } = *sends_of(&out)[0] else {
                panic!("a write begins with its query round");
            };
            let mut out = Vec::new();
            for from in [1, 2] {
                out.extend(deliver(&mut a, from, Message::SnAck { req, seq: 4 }));
            }
            let acks = write_acks(&mut a, &out);
            assert_eq!(completion(&acks), Some((OpResult::Written, 2)));
            assert!(a.lease.is_none());
        }
    }

    /// What a renewal period saw before its renew point fired.
    #[derive(Debug, Clone, Copy)]
    enum Period {
        /// Nothing.
        Idle,
        /// This many zero-round reads.
        Reads(u64),
        /// A write that took the lease and handed it on.
        Write,
    }

    #[test]
    fn a_lease_lapses_once_its_idle_allowance_is_spent() {
        use Period::{Idle, Reads, Write};
        let then_idle = |used: &[Period], idle: usize| {
            let mut periods = used.to_vec();
            periods.extend(std::iter::repeat_n(Idle, idle));
            periods
        };
        // The renewal periods of one lease chain, from a client read's
        // mint: every renew point but the last sends a renewal, and every
        // renewal mints; the last finds the allowance spent.
        let table = [
            (
                "the minting read leaves three idle periods",
                then_idle(&[], 3),
            ),
            ("a read earns one more", then_idle(&[Reads(1)], 4)),
            ("two reads earn two", then_idle(&[Reads(2)], 5)),
            ("a write's hand-on earns one", then_idle(&[Write], 4)),
            (
                "a used period spends nothing",
                then_idle(&[Reads(1), Idle, Idle, Reads(1)], 3),
            ),
            (
                "the allowance stops at the cap",
                then_idle(&[Reads(50)], usize::from(ALLOWANCE_CAP)),
            ),
        ];
        for (name, periods) in table {
            let (mut a, mut timers) = holding_a_lease(Flavor::transient().with_lease(TERM), false);
            let mut op = 0;
            for (n, &period) in (1..).zip(&periods) {
                match period {
                    Idle => {}
                    Reads(reads) => {
                        for _ in 0..reads {
                            op += 1;
                            let served = completion(&invoke(&mut a, op, Op::Read));
                            assert_eq!(served.unwrap().1, 0, "{name}");
                        }
                    }
                    Write => {
                        op += 1;
                        let out = invoke(&mut a, op, Op::Write(Value::from_u32(7)));
                        let acks = write_acks(&mut a, &out);
                        assert_eq!(completion(&acks), Some((OpResult::Written, 1)), "{name}");
                    }
                }
                let out = fire(&mut a, timers.renew);
                assert!(
                    a.lease.is_some(),
                    "{name}: period {n}: it serves on past its renew point"
                );
                if n == periods.len() {
                    assert!(out.is_empty(), "{name}: period {n} sends nothing: {out:?}");
                    assert_eq!(a.allowance, 0, "{name}");
                    // Lapsed: it serves to its horizon, and ends there in
                    // silence.
                    assert_eq!(completion(&invoke(&mut a, 99, Op::Read)).unwrap().1, 0);
                    assert!(fire(&mut a, timers.horizon).is_empty());
                    assert!(a.lease.is_none(), "{name}");
                    break;
                }
                // A read round that nobody waits for, to the quorum that
                // answered the last one (p1 and p2) and this process.
                assert_eq!(targets(&out), [0, 1, 2], "{name}: period {n}: {out:?}");
                assert!(sends_of(&out)
                    .iter()
                    .all(|m| matches!(m, Message::Read { .. })));
                let renewed = lease_timers(&out);
                // The quorum's answer mints and does nothing else, in a
                // period that has served nothing yet; the old horizon is
                // spent.
                let acks = leased_acks(&mut a, read_req(&out));
                assert!(acks.is_empty(), "{name}: period {n}: {acks:?}");
                assert!(a
                    .lease
                    .as_ref()
                    .is_some_and(|l| l.timers.horizon == renewed.horizon));
                assert!(!a.served, "{name}: period {n}");
                assert!(fire(&mut a, timers.horizon).is_empty() && a.lease.is_some());
                timers = renewed;
            }
        }
    }

    /// p1 and p2 answer the read round `req` with the live lease's own
    /// tag and value, durable and granted.
    fn leased_acks(a: &mut RegisterAutomaton, req: RequestId) -> Vec<Action> {
        let lease = a.lease.as_ref().expect("a live lease");
        let ack = granted(Message::ReadAck {
            req,
            ts: lease.ts,
            value: lease.value.clone(),
            durable: true,
            grant: 0,
        });
        let mut out = Vec::new();
        for from in [1, 2] {
            out.extend(deliver(a, from, ack.clone()));
        }
        out
    }

    /// Answers the read round `req` with granted `(from, seq, pid, v)`
    /// acks.
    fn granted_from(
        a: &mut RegisterAutomaton,
        req: RequestId,
        acks: [(u16, Seq, u16, u32); 2],
    ) -> Vec<Action> {
        let mut out = Vec::new();
        for (from, seq, pid, v) in acks {
            out.extend(deliver(a, from, granted(read_ack(seq, pid, v, req))));
        }
        out
    }

    #[test]
    fn a_renewal_leaves_before_the_horizon_and_reads_meanwhile_are_zero_round() {
        // The renewal leaves at the renew point, while the lease serves:
        // the reads invoked meanwhile are served from it, nothing sent.
        let (mut a, timers, out) = renewing();
        assert_eq!(targets(&out), [0, 1, 2], "{out:?}");
        for n in 2..4 {
            let served = invoke(&mut a, n, Op::Read);
            assert_eq!(completion(&served), Some((read_value(40), 0)));
            assert!(sends_of(&served).is_empty());
        }
        // The mint replaces the lease — on the newer tag the quorum
        // reports — and the reads served meanwhile count for its period.
        assert!(grant_acks(&mut a, read_req(&out), 5, 50).is_empty());
        let lease = a.lease.as_ref().expect("minted");
        assert_eq!(lease.timers.horizon, lease_timers(&out).horizon);
        assert!(a.served);
        assert_eq!(
            completion(&invoke(&mut a, 4, Op::Read)),
            Some((read_value(50), 0))
        );
        assert!(fire(&mut a, timers.horizon).is_empty() && a.lease.is_some());

        // A renewal whose granting repliers disagree, one of them on a tag
        // newer than the lease's, cannot write that back while the lease
        // serves: it mints nothing and leaves the lease serving to its own
        // horizon, and the next read after it asks the quorum.
        let (mut a, timers, out) = renewing();
        let acks = granted_from(&mut a, read_req(&out), [(1, 4, 1, 40), (2, 5, 2, 50)]);
        assert!(acks.is_empty(), "no write-back: {acks:?}");
        assert_eq!(
            completion(&invoke(&mut a, 2, Op::Read)),
            Some((read_value(40), 0))
        );
        assert!(fire(&mut a, timers.horizon).is_empty() && a.lease.is_none());
        let out = invoke(&mut a, 3, Op::Read);
        assert_eq!(completion(&out), None);
        assert_eq!(targets(&out), [0, 1, 2], "{out:?}");
        assert!(sends_of(&out)
            .iter()
            .all(|m| matches!(m, Message::Read { .. })));
    }

    #[test]
    fn a_read_that_meets_a_leaseless_renewal_is_served_by_what_it_leaves() {
        // The lease's horizon passes while its renewal is out: a read
        // invoked then queues like any invocation …
        let leaseless = || {
            let (mut a, timers, out) = renewing();
            assert!(fire(&mut a, timers.horizon).is_empty() && a.lease.is_none());
            assert!(invoke(&mut a, 2, Op::Read).is_empty(), "queued");
            (a, read_req(&out))
        };
        // … and is served by the lease the round mints, in zero rounds.
        let (mut a, req) = leaseless();
        let acks = grant_acks(&mut a, req, 4, 40);
        assert_eq!(completions(&acks), [(2, read_value(40), 0)]);
        assert!(sends_of(&acks).is_empty());
        // Repliers that disagree: with no lease serving, the round writes
        // the newest tag back, to the quorum that answered it (p1 and p2)
        // and this process, and mints from the write-back — the read is
        // served by that.
        let (mut a, req) = leaseless();
        let acks = granted_from(&mut a, req, [(1, 4, 1, 40), (2, 5, 2, 50)]);
        assert_eq!(completion(&acks), None);
        assert_eq!(targets(&acks), [0, 1, 2], "{acks:?}");
        let newest = Timestamp::new(5, ProcessId(2));
        assert!(sends_of(&acks)
            .iter()
            .all(|m| matches!(m, Message::Write { ts, .. } if *ts == newest)));
        let back = write_acks(&mut a, &acks);
        assert_eq!(completions(&back), [(2, read_value(50), 0)]);
        assert_eq!(a.lease.as_ref().map(|l| l.ts), Some(newest));
    }

    #[test]
    fn a_write_across_the_renew_point_renews_after_its_hand_on() {
        let (mut a, timers) = holding_a_lease(Flavor::transient().with_lease(TERM), false);
        let out = invoke(&mut a, 1, Op::Write(Value::from_u32(7)));
        // The write holds the lease: nothing leaves at the renew point, and
        // a read invoked meanwhile waits behind the write.
        assert!(fire(&mut a, timers.renew).is_empty());
        assert!(invoke(&mut a, 2, Op::Read).is_empty(), "queued");
        // The write completes and hands the lease on; the renewal leaves
        // right after, and the queued read is served from the handed-on
        // lease while it is out.
        let acks = write_acks(&mut a, &out);
        assert_eq!(
            completions(&acks),
            [(1, OpResult::Written, 1), (2, read_value(7), 0)]
        );
        // The renewal's `Read`s, to the write's quorum (p1 and p2) and this
        // process, leave between the two completions.
        assert_eq!(targets(&acks), [0, 1, 2], "{acks:?}");
        let order: Vec<&str> = (acks.iter())
            .filter_map(|x| match x {
                Action::Complete { .. } => Some("complete"),
                Action::Send {
                    msg: Message::Read { .. },
                    ..
                } => Some("read"),
                _ => None,
            })
            .collect();
        assert_eq!(order, ["complete", "read", "read", "read", "complete"]);
        // The quorum holds what the write wrote: the renewal mints on it.
        let written = Timestamp::new(5, ProcessId(0));
        let req = read_req(&acks);
        for from in [1, 2] {
            deliver(&mut a, from, granted(read_ack(5, 0, 7, req)));
        }
        let lease = a.lease.as_ref().expect("renewed");
        assert_eq!(lease.ts, written);
        assert_eq!(lease.timers.horizon, lease_timers(&acks).horizon);
        assert!(fire(&mut a, timers.horizon).is_empty() && a.lease.is_some());
    }

    /// An automaton whose used lease just sent its renewal; the lease's
    /// timers and what the renew point emitted.
    fn renewing() -> (RegisterAutomaton, LeaseTimers, Vec<Action>) {
        let (mut a, timers) = holding_a_lease(Flavor::transient().with_lease(TERM), false);
        invoke(&mut a, 1, Op::Read);
        let out = fire(&mut a, timers.renew);
        (a, timers, out)
    }

    #[test]
    fn a_write_waits_for_a_renewal_and_begins_under_what_it_minted() {
        let (mut a, _, out) = renewing();
        assert!(invoke(&mut a, 2, Op::Write(Value::from_u32(7))).is_empty());
        let acks = grant_acks(&mut a, read_req(&out), 4, 40);
        // Drained right after the mint: a leased write.
        assert_eq!(completion(&acks), None);
        let sends = sends_of(&acks);
        // The quorum that answered the renewal (p1 and p2), and this
        // process.
        assert_eq!(targets(&acks), [0, 1, 2], "{acks:?}");
        assert!(sends.iter().all(|m| matches!(m, Message::Write { .. })));
        let acks = write_acks(&mut a, &acks);
        assert_eq!(completion(&acks), Some((OpResult::Written, 1)));
    }

    #[test]
    fn a_renewal_counts_only_granting_acks_and_asks_again() {
        let (mut a, timers, out) = renewing();
        let (req, retransmit) = (read_req(&out), timer_of(&out, 1_000));
        // p1 cannot grant yet (its tag still in flight to its disk, or
        // fenced behind someone's lease): it is not heard from, and p2's
        // grant alone is no majority.
        let p1 = volatile(read_ack(5, 2, 50, req));
        assert!(deliver(&mut a, 1, p1).is_empty());
        assert!(deliver(&mut a, 2, granted(read_ack(4, 1, 40, req))).is_empty());
        assert!(a.lease.as_ref().is_some_and(|l| l.timers == timers));
        // The round's retransmission asks everyone again, and p1's grant
        // completes it: the mint, on the lease's tag.
        assert_eq!(targets(&fire(&mut a, retransmit)), [0, 1, 2]);
        assert!(deliver(&mut a, 1, granted(read_ack(4, 1, 40, req))).is_empty());
        let lease = a.lease.as_ref().expect("renewed");
        assert_eq!(lease.timers, lease_timers(&out));
        assert_eq!(lease.ts, Timestamp::new(4, ProcessId(1)));
    }

    #[test]
    fn a_renewal_whose_repliers_disagree_writes_the_leased_tag_back_and_mints() {
        // p2 missed the write the lease is on — a thrifty write left it
        // out — and answers with the tag before it, granted.
        let (mut a, timers, out) = renewing();
        let acks = granted_from(&mut a, read_req(&out), [(1, 4, 1, 40), (2, 3, 2, 30)]);
        assert_eq!(completion(&acks), None);
        // The leased tag goes back to the quorum that answered (p1 and p2)
        // and this process; the lease serves on meanwhile.
        assert_eq!(targets(&acks), [0, 1, 2], "{acks:?}");
        let leased = Timestamp::new(4, ProcessId(1));
        assert!(sends_of(&acks)
            .iter()
            .all(|m| matches!(m, Message::Write { ts, .. } if *ts == leased)));
        assert_eq!(
            completion(&invoke(&mut a, 2, Op::Read)),
            Some((read_value(40), 0))
        );
        // Through, it mints under the renewal's own timers, and the lease
        // outlives the old horizon.
        assert!(write_acks(&mut a, &acks).is_empty());
        let lease = a.lease.as_ref().expect("renewed");
        assert_eq!((lease.ts, lease.timers), (leased, lease_timers(&out)));
        assert!(fire(&mut a, timers.horizon).is_empty() && a.lease.is_some());
    }

    #[test]
    fn a_client_read_that_writes_back_leaves_a_lease() {
        for spoil in [None, Some("horizon"), Some("grant")] {
            let mut a = fresh(Flavor::transient().with_lease(TERM));
            let out = invoke(&mut a, 0, Op::Read);
            let req = read_req(&out);
            let mut acks = deliver(&mut a, 1, granted(read_ack(4, 1, 40, req)));
            let behind = read_ack(3, 2, 30, req);
            let behind = if spoil == Some("grant") {
                behind
            } else {
                granted(behind)
            };
            acks.extend(deliver(&mut a, 2, behind));
            // Not unanimous: the figure's write-back.
            assert!(sends_of(&acks)
                .iter()
                .all(|m| matches!(m, Message::Write { .. })));
            if spoil == Some("horizon") {
                fire(&mut a, lease_timers(&out).horizon);
            }
            let back = write_acks(&mut a, &acks);
            assert_eq!(completion(&back), Some((read_value(40), 2)), "{spoil:?}");
            // Every replier granted and the horizon has not passed: the
            // write-back leaves a lease, and the next read is a hit.
            let minted = spoil.is_none();
            assert_eq!(a.lease.is_some(), minted, "{spoil:?}");
            let next = completion(&invoke(&mut a, 1, Op::Read));
            assert_eq!(next.is_some(), minted, "{spoil:?}");
            if minted {
                assert_eq!(a.allowance, MINT_ALLOWANCE + 1);
            }
        }
    }

    #[test]
    fn a_mint_whose_renew_point_passed_mid_round_renews_at_once() {
        let mut a = fresh(Flavor::transient().with_lease(TERM));
        let out = invoke(&mut a, 0, Op::Read);
        assert!(fire(&mut a, lease_timers(&out).renew).is_empty());
        let acks = grant_acks(&mut a, read_req(&out), 4, 40);
        assert_eq!(completion(&acks), Some((read_value(40), 1)));
        assert!(a.lease.is_some(), "minted");
        // The renewal leaves right after the completion, to the quorum
        // that answered (p1 and p2) and this process, and spends one of
        // the mint's allowance: its period served nothing.
        assert_eq!(targets(&acks), [0, 1, 2], "{acks:?}");
        assert!(matches!(acks[0], Action::Complete { .. }));
        assert_eq!(a.allowance, MINT_ALLOWANCE - 1);
    }

    #[test]
    fn a_renewal_caught_by_its_own_horizon_goes_again_while_the_allowance_lasts() {
        // The renewing lease served one read: an allowance of four.
        let (mut a, timers, out) = renewing();
        assert_eq!(a.allowance, MINT_ALLOWANCE + 1);
        let (mut req, mut renewed) = (read_req(&out), lease_timers(&out));
        let first_timer = timer_of(&out, 1_000);
        assert!(fire(&mut a, timers.horizon).is_empty() && a.lease.is_none());
        invoke(&mut a, 2, Op::Write(Value::from_u32(7)));
        // Too slow to mint: the round is dropped and goes again from a
        // fresh stamp, spending one of the allowance a time — the write
        // waits on — until none is left; then what waited begins as it
        // would have without it.
        for left in (0..MINT_ALLOWANCE + 1).rev() {
            let out = fire(&mut a, renewed.horizon);
            assert_eq!(a.allowance, left);
            if left == 0 {
                assert!(matches!(sends_of(&out)[0], Message::SnReq { .. }));
                break;
            }
            assert_eq!(targets(&out), [0, 1, 2], "{out:?}");
            assert_ne!(read_req(&out), req, "a fresh round");
            assert!(grant_acks(&mut a, req, 4, 40).is_empty(), "late acks");
            (req, renewed) = (read_req(&out), lease_timers(&out));
        }
        assert!(a.lease.is_none());
        assert!(fire(&mut a, first_timer).is_empty(), "no retransmission");

        // A retry that mints serves the write that waited: it begins under
        // the lease, one round.
        let (mut a, timers, out) = renewing();
        fire(&mut a, timers.horizon);
        invoke(&mut a, 2, Op::Write(Value::from_u32(7)));
        let again = fire(&mut a, lease_timers(&out).horizon);
        let acks = grant_acks(&mut a, read_req(&again), 4, 40);
        assert!(sends_of(&acks)
            .iter()
            .all(|m| matches!(m, Message::Write { .. })));
        assert_eq!(
            completion(&write_acks(&mut a, &acks)),
            Some((OpResult::Written, 1))
        );
    }
}
