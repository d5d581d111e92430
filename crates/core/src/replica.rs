//! The replica (listener) role every process plays, independent of any
//! operation it may itself be running.
//!
//! Mirrors the message listeners of Fig. 4 lines 17–30: answer
//! sequence-number queries, answer read queries, and adopt propagated
//! values — logging them *before* acknowledging when the flavor logs.
//!
//! # The durable-ack discipline
//!
//! A logging replica may only acknowledge a `Write` once a record with a
//! tag ≥ the message's tag is **durably stored** (Fig. 4 line 24–26: store,
//! *then* ack). Volatile adoption happens immediately, but the ack is
//! parked in a waiter list keyed by tag until the covering store
//! completes. This matters under retransmission: a duplicate `Write`
//! arriving while the original's store is still in flight must *not* be
//! acknowledged early, or the writer could assemble a majority of acks
//! none of which is actually durable — exactly the forgotten-value anomaly
//! the log exists to prevent.
//!
//! "Durably stored" — **durable here** — means covered by the node's
//! `written` record, **or** by its `writing` record, **or vouched by a
//! majority at recovery**. A persistent coordinator's pre-log (Fig. 4
//! line 12) already puts `(ts, v)` on this node's disk before the
//! propagation round starts, and recovery restores the replica from
//! `max(written, writing)`, so logging the same pair again under `written`
//! would buy no durability: the pre-log's store token is tracked here like
//! any adoption store ([`Replica::pre_log_issued`] /
//! [`Replica::on_pre_log_done`]), and the coordinator's self-addressed
//! `Write` finds its tag durable and is acknowledged without a store. A
//! persistent write therefore costs one durable record per process its
//! propagation reaches — a majority, when the round is thrifty — not one
//! more, while its causal-log depth stays 2.
//!
//! A recovering process's catch-up (see [`crate::generic`]) may instead
//! hear a majority of *other* processes attest one tag durable: that tag
//! is then on a majority of logs, and logs never regress, so a record of
//! it here would add nothing either ([`Replica::vouch`]). The replica
//! attests it durable and acknowledges older `Write`s without a store
//! exactly as if it had logged it — all either promise is that a
//! majority's logs hold the tag, and every later quorum meets one of
//! them. A crash forgets the vouch, not the majority. What a vouched
//! replica attests may in turn vouch for the next recovering process: by
//! induction on the vouches, an attestation of a tag always means the
//! attester logged it or a majority did.
//!
//! # The lease-fence discipline
//!
//! Under a leasing flavor ([`Flavor::with_lease`](crate::Flavor::with_lease))
//! the replica extends the same parking idea to **tag leases**: every
//! durable read ack carries a grant of `lease_micros` µs to the process
//! that sent the `Read` — the **grantee** — and while a grant's horizon
//! is still open the replica *withholds* the acknowledgement of any
//! write **from another process** whose tag is newer than the minimum
//! tag granted to that grantee — even if that write is already durable
//! here. A foreign write can therefore only assemble its quorum after
//! every lease its new value could invalidate has provably expired (the
//! write quorum intersects the lease's read quorum, and the intersection
//! replica holds its ack for at least the full grant term measured from
//! *after* it saw the read request, while the coordinator's lease dies
//! at its *pre-send* stamp plus the grant). The same fence gates the
//! read side: a tag newer than the minimum tag granted to someone else
//! is reported non-durable, so no fast-path read can return the new
//! value while an older lease may still be serving — the write-back
//! those reads fall back to parks behind the same barrier.
//!
//! **A process is exempt from its own grants, and only those.** A lease
//! lives in exactly one place — the coordinator that minted it; nothing
//! hands it on to a client — and a coordinator sends a `Write` newer than
//! its leased tag only while it holds no lease (a write takes the lease
//! out of service before its first message leaves, to put it back on the
//! tag it wrote only once it completed; a crash takes the lease with
//! it). So when such a `Write` from X arrives, nobody is serving under
//! X's grants and there is nothing for them to protect *from X*: it is
//! acknowledged as soon as it is durable. X sends a `Read` while leaseless
//! or as its live lease's own renewal, 7/8 into the term, and a `Read` is
//! attested past X's grants too: all X does with the answer is mint, and
//! a mint needs every replier to have granted. A foreign tag above the
//! leased one that such a quorum unanimously reports cannot have
//! completed — the old grants still fence it at every replica that
//! issued them — and the quorum holds it, so the lease may move to it
//! (replacing the old one) while no later majority can miss it. A
//! renewal whose repliers disagree is a full read: while the lease
//! serves it writes back the leased tag — a `Write` that is not newer
//! than the leased tag, so the sentence above holds — and mints once that
//! is through; a quorum that reports a newer tag and disagrees mints
//! nothing and leaves the old lease serving under the grants it was
//! minted from. A renewal counts only the acks that carry a grant: a
//! replica that reports a tag non-durable — in flight to its disk, or
//! fenced behind someone else's grants — is one X has not heard from,
//! as in a thrifty round. The lease X's completed write hands on
//! to its new tag leans on the same grants: they fence every *foreign*
//! tag above the minimum granted one — the new tag and reads of it
//! included — until past the horizon the lease keeps.
//! Against everybody else X's grants stand until their horizon, because
//! a straggler of X's (a duplicate from an abandoned write or a previous
//! incarnation) may arrive after X minted afresh on an older tag — it is
//! adopted and acknowledged to X, who ignores it, and stays fenced from
//! every other reader. Grants to Y ≠ X fence X as they fence anyone.
//!
//! Grant bookkeeping is O(1) per grantee, at most *n* of them: a
//! monotone issue counter, an expiry counter advanced by at most one
//! outstanding horizon timer, and the minimum granted tag (reset when
//! every grant to that grantee has expired — one grantee going quiet
//! does not wait for another that never does). The fence is therefore
//! conservative — it may hold a foreign write up to ~2 lease terms — but
//! it never blocks forever: expiry is timer-driven, and a parked ack
//! waits only for the grants issued before it parked.

use std::collections::HashMap;

use rmem_storage::records::{WrittenRecord, KEY_WRITTEN};
use rmem_types::{
    Action, Message, Micros, ProcessId, RequestId, StoreToken, TimerToken, Timestamp, Value,
};

/// A write acknowledgement parked until its release conditions hold.
#[derive(Debug)]
struct Waiter {
    to: ProcessId,
    req: RequestId,
    /// Durability condition: ack only once a stable record covers this
    /// tag (`None` = already satisfied when parked).
    need: Option<Timestamp>,
    /// Lease condition: per fencing grantee (an index into
    /// [`Replica::grants`]), how many of its grants must have expired —
    /// the ones issued before the ack parked. Empty = no lease fence.
    fence: Vec<(usize, u64)>,
}

/// The outstanding grants to one grantee.
#[derive(Debug)]
struct Grants {
    /// Whose `Read`s these grants answered, and so who is exempt from
    /// them. `None` is the boot hold: a grant to nobody, exempting
    /// nobody.
    to: Option<ProcessId>,
    /// Grants issued so far (monotone across the incarnation).
    issued: u64,
    /// Grants whose hold horizon has passed.
    expired: u64,
    /// The single outstanding horizon timer, with the issue count it
    /// covers when it fires.
    timer: Option<(TimerToken, u64)>,
    /// Minimum tag among grants issued since this grantee's last full
    /// quiescence (`None` once every grant expired). From anyone else,
    /// writes strictly above it are fenced and reads strictly above it
    /// are reported non-durable.
    min_ts: Option<Timestamp>,
}

/// Replica state and behaviour.
#[derive(Debug)]
pub struct Replica {
    me: ProcessId,
    /// Current (volatile) tag.
    ts: Timestamp,
    /// Current (volatile) value.
    value: Value,
    /// Whether adoptions are logged before acknowledging.
    logging: bool,
    /// Tag-lease term granted on durable read acks (0 = no leasing).
    lease_micros: u64,
    /// Highest tag known durable here: covered by the `written` slot, by
    /// the `writing` slot for a tag this node coordinated, or vouched for
    /// by a majority at recovery.
    durable_ts: Timestamp,
    /// Stores in flight (adoption stores and the coordinator's pre-log):
    /// token → the tag that becomes durable when it completes.
    pending_stores: HashMap<StoreToken, Timestamp>,
    /// Acks parked until a covering tag is durable and/or the lease
    /// fence opens.
    waiters: Vec<Waiter>,
    /// Grant bookkeeping, one entry per grantee ever granted to (at most
    /// `n`, plus the boot hold); entries are never removed, so a parked
    /// ack may name them by index.
    grants: Vec<Grants>,
}

impl Replica {
    /// A fresh replica holding `[0, me] / ⊥`.
    pub fn new(me: ProcessId, logging: bool) -> Self {
        Replica {
            me,
            ts: Timestamp::new(0, me),
            value: Value::bottom(),
            logging,
            lease_micros: 0,
            durable_ts: Timestamp::new(0, me),
            pending_stores: HashMap::new(),
            waiters: Vec::new(),
            grants: Vec::new(),
        }
    }

    /// This replica granting tag leases of `micros` µs on durable read
    /// acks (0 leaves leasing off).
    pub fn with_lease(mut self, micros: u64) -> Self {
        self.lease_micros = micros;
        self
    }

    /// A replica restored from the newest tag/value its stable records
    /// hold (recovery, Fig. 4 lines 41–42): the `written` record or, when
    /// this node coordinated a newer write, its `writing` pre-log.
    pub fn restored(me: ProcessId, logging: bool, ts: Timestamp, value: Value) -> Self {
        Replica {
            ts,
            value,
            durable_ts: ts,
            ..Replica::new(me, logging)
        }
    }

    /// Current tag (volatile).
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }

    /// Current value (volatile).
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// How long the replica holds fenced write acks per grant: the full
    /// advertised term plus 25% slack, so the coordinator's lease
    /// (clocked from its pre-send stamp) dies comfortably before any
    /// fenced ack is released, even across modest clock-rate or delivery
    /// jitter.
    fn hold_micros(&self) -> u64 {
        self.lease_micros + self.lease_micros / 4
    }

    /// The grantees whose outstanding grants fence `ts` from `from` —
    /// everyone but `from` itself (see the module docs) granted an older
    /// tag — each with the issue count that must expire first.
    fn fences(&self, from: ProcessId, ts: Timestamp) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.grants
            .iter()
            .enumerate()
            .filter(move |(_, g)| g.to != Some(from) && g.min_ts.is_some_and(|min| ts > min))
            .map(|(i, g)| (i, g.issued))
    }

    /// Issues one grant on `ts` to `to`, arming that grantee's horizon
    /// timer if none is pending. Returns the grant to advertise, in µs.
    fn issue_grant(
        &mut self,
        to: Option<ProcessId>,
        ts: Timestamp,
        next_token: &mut impl FnMut() -> u64,
        out: &mut Vec<Action>,
    ) -> u32 {
        let hold = Micros(self.hold_micros());
        let known = self.grants.iter().position(|g| g.to == to);
        let idx = known.unwrap_or_else(|| {
            self.grants.push(Grants {
                to,
                issued: 0,
                expired: 0,
                timer: None,
                min_ts: None,
            });
            self.grants.len() - 1
        });
        let g = &mut self.grants[idx];
        g.issued += 1;
        g.min_ts = Some(g.min_ts.map_or(ts, |min| min.min(ts)));
        if g.timer.is_none() {
            let token = TimerToken(next_token());
            g.timer = Some((token, g.issued));
            out.push(Action::SetTimer { token, after: hold });
        }
        u32::try_from(self.lease_micros).unwrap_or(u32::MAX)
    }

    /// Releases every parked ack whose durability and lease conditions
    /// both hold.
    fn release_ready(&mut self, out: &mut Vec<Action>) {
        let durable = self.durable_ts;
        let logging = self.logging;
        let grants = &self.grants;
        let (ready, parked): (Vec<_>, Vec<_>) = self.waiters.drain(..).partition(|w| {
            w.need.is_none_or(|need| !logging || need <= durable)
                && w.fence.iter().all(|&(g, count)| count <= grants[g].expired)
        });
        self.waiters = parked;
        for w in ready {
            out.push(Action::Send {
                to: w.to,
                msg: Message::WriteAck { req: w.req },
            });
        }
    }

    /// Handles a protocol *request* aimed at the replica role. Returns
    /// `true` if the message was consumed (acks return `false` — they
    /// belong to whatever operation the process is running).
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Message,
        next_token: &mut impl FnMut() -> u64,
        out: &mut Vec<Action>,
    ) -> bool {
        match msg {
            Message::SnReq { req } => {
                // Fig. 4 lines 18–20.
                out.push(Action::Send {
                    to: from,
                    msg: Message::SnAck {
                        req: *req,
                        seq: self.ts.seq,
                    },
                });
                true
            }
            Message::Read { req } => {
                // Fig. 4 lines 28–30, plus the durability attestation the
                // reader's fast path gates on: the reported tag is durable
                // here (`written`, this node's own `writing` pre-log, or a
                // majority's vouch — module docs). A non-logging replica's
                // volatile state is as stable as its (crash-stop) model
                // gets, so it always attests. A tag still fenced behind
                // someone else's lease grants is reported non-durable even
                // when stored: returning it through the fast path while an
                // older lease may serve would invert the read order.
                let durable =
                    self.holds_durably(self.ts) && self.fences(from, self.ts).next().is_none();
                let grant = if durable && self.lease_micros > 0 {
                    self.issue_grant(Some(from), self.ts, next_token, out)
                } else {
                    0
                };
                out.push(Action::Send {
                    to: from,
                    msg: Message::ReadAck {
                        req: *req,
                        ts: self.ts,
                        value: self.value.clone(),
                        durable,
                        grant,
                    },
                });
                true
            }
            Message::Write { req, ts, value } => {
                // Fig. 4 lines 21–27.
                let durability_ok = self.adopt(*ts, value, next_token, out);
                // The lease fence: a write newer than the minimum tag
                // granted to someone else may not be acknowledged until
                // every grant issued to them so far has expired (writes
                // at or below the minimum granted tag cannot invalidate
                // any lease — the leased value is at least as new).
                let fence: Vec<_> = self.fences(from, *ts).collect();
                if durability_ok && fence.is_empty() {
                    out.push(Action::Send {
                        to: from,
                        msg: Message::WriteAck { req: *req },
                    });
                    return true;
                }
                self.waiters.push(Waiter {
                    to: from,
                    req: *req,
                    need: (!durability_ok).then_some(*ts),
                    fence,
                });
                true
            }
            _ => false,
        }
    }

    /// Whether `ts` is durable here — a stable record on this node covers
    /// it, or a majority vouched for it (module docs); always, for a
    /// non-logging replica: volatile is as stable as its model gets.
    pub fn holds_durably(&self, ts: Timestamp) -> bool {
        !self.logging || ts <= self.durable_ts
    }

    /// Adopts `(ts, value)` if it is newer than what the replica holds
    /// (Fig. 4 lines 22–23) and, unless `ts` is durable here already,
    /// sees to it that a store covering the held tag is in flight (line
    /// 24). Returns whether `ts` is durable now. This is the `Write`
    /// handler minus its acknowledgement — all the recovery catch-up
    /// needs, since the lease fence withholds acks, never adoptions.
    pub fn adopt(
        &mut self,
        ts: Timestamp,
        value: &Value,
        next_token: &mut impl FnMut() -> u64,
        out: &mut Vec<Action>,
    ) -> bool {
        if ts > self.ts {
            self.ts = ts;
            self.value = value.clone();
        }
        if self.holds_durably(ts) {
            return true;
        }
        // Issue a store for the *current* volatile state if none in
        // flight covers it.
        let covered_by_pending = self
            .pending_stores
            .values()
            .any(|pending| *pending >= self.ts);
        if !covered_by_pending {
            let token = StoreToken(next_token());
            let record = WrittenRecord {
                ts: self.ts,
                value: self.value.clone(),
            };
            self.pending_stores.insert(token, self.ts);
            out.push(Action::Store {
                token,
                key: KEY_WRITTEN.to_string(),
                bytes: record.encode(),
            });
        }
        false
    }

    /// Adopts `(ts, value)` as durable without a store of its own: a
    /// majority of other processes attested `ts` durable to the recovery
    /// catch-up, so a majority of logs holds it (see the module docs).
    /// Raises the volatile state if `ts` is newer and releases the acks
    /// that waited for a tag at or below it.
    pub fn vouch(&mut self, ts: Timestamp, value: &Value, out: &mut Vec<Action>) {
        if ts > self.ts {
            self.ts = ts;
            self.value = value.clone();
        }
        self.durable_ts = self.durable_ts.max(ts);
        self.release_ready(out);
    }

    /// Tracks the coordinator's `writing` pre-log of `ts` as a store in
    /// flight: once it completes, this node durably holds `ts` without a
    /// `written` record of its own (see the module docs). Until then a
    /// `Write` it covers is parked like any other, never acknowledged
    /// early.
    pub fn pre_log_issued(&mut self, token: StoreToken, ts: Timestamp) {
        self.pending_stores.insert(token, ts);
    }

    /// The pre-log tracked under `token` completed: adopts its value if
    /// the tag is still the newest seen, then proceeds as for any store
    /// completion — the tag is durable and the acks it covers release.
    pub fn on_pre_log_done(&mut self, token: StoreToken, value: &Value, out: &mut Vec<Action>) {
        if let Some(&ts) = self.pending_stores.get(&token) {
            if ts > self.ts {
                self.ts = ts;
                self.value = value.clone();
            }
        }
        self.on_store_done(token, out);
    }

    /// Handles a store completion. Returns `true` if the token belonged to
    /// the replica role (parked acks may be released).
    pub fn on_store_done(&mut self, token: StoreToken, out: &mut Vec<Action>) -> bool {
        let Some(stored_ts) = self.pending_stores.remove(&token) else {
            return false;
        };
        if stored_ts > self.durable_ts {
            self.durable_ts = stored_ts;
        }
        self.release_ready(out);
        true
    }

    /// Handles a timer firing. Returns `true` if the token was a
    /// grantee's lease-horizon timer (grants expired, fenced acks may be
    /// released).
    pub fn on_timer(
        &mut self,
        token: TimerToken,
        next_token: &mut impl FnMut() -> u64,
        out: &mut Vec<Action>,
    ) -> bool {
        let hold = Micros(self.hold_micros());
        let Some((g, covers)) = self.grants.iter_mut().find_map(|g| match g.timer {
            Some((pending, covers)) if pending == token => Some((g, covers)),
            _ => None,
        }) else {
            return false;
        };
        g.expired = covers;
        if g.issued > g.expired {
            // Grants arrived while the horizon ran: cover them with one
            // more full hold (conservative — a grant never expires early).
            let fresh = TimerToken(next_token());
            g.timer = Some((fresh, g.issued));
            out.push(Action::SetTimer {
                token: fresh,
                after: hold,
            });
        } else {
            g.timer = None;
            g.min_ts = None;
        }
        self.release_ready(out);
        true
    }

    /// Arms the post-recovery boot hold: a recovered replica cannot know
    /// which grants its previous incarnation issued, or to whom, so for
    /// one full hold term it fences *every* write ack — its own
    /// coordinator's included — as if a grant to nobody on the lowest
    /// possible tag were outstanding. Call once on recovery of a leasing
    /// flavor, before serving.
    pub fn boot_hold(&mut self, next_token: &mut impl FnMut() -> u64, out: &mut Vec<Action>) {
        if self.lease_micros > 0 {
            self.issue_grant(None, Timestamp::ZERO, next_token, out);
        }
    }

    /// The initialisation stores of a fresh boot (Fig. 4 line 4): the
    /// initial `written` record. Not ack-gated.
    pub fn initial_store(&mut self, next_token: &mut impl FnMut() -> u64, out: &mut Vec<Action>) {
        if self.logging {
            let token = StoreToken(next_token());
            let record = WrittenRecord::initial(self.me);
            self.pending_stores.insert(token, record.ts);
            out.push(Action::Store {
                token,
                key: KEY_WRITTEN.to_string(),
                bytes: record.encode(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token_gen() -> (impl FnMut() -> u64, std::rc::Rc<std::cell::Cell<u64>>) {
        let counter = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let c2 = counter.clone();
        (
            move || {
                let t = c2.get();
                c2.set(t + 1);
                t
            },
            counter,
        )
    }

    fn write_msg(seq: u64, pid: u16, v: u32, nonce: u64) -> Message {
        Message::Write {
            req: RequestId::new(ProcessId(pid), nonce),
            ts: Timestamp::new(seq, ProcessId(pid)),
            value: Value::from_u32(v),
        }
    }

    #[test]
    fn sn_and_read_queries_answer_immediately() {
        let mut r = Replica::new(ProcessId(1), true);
        let (mut gen, _) = token_gen();
        let mut out = Vec::new();
        let req = RequestId::new(ProcessId(0), 5);
        assert!(r.on_message(ProcessId(0), &Message::SnReq { req }, &mut gen, &mut out));
        assert!(r.on_message(ProcessId(0), &Message::Read { req }, &mut gen, &mut out));
        assert_eq!(out.len(), 2);
        assert!(matches!(
            out[0],
            Action::Send {
                msg: Message::SnAck { seq: 0, .. },
                ..
            }
        ));
        assert!(matches!(
            out[1],
            Action::Send {
                msg: Message::ReadAck { .. },
                ..
            }
        ));
    }

    #[test]
    fn non_logging_replica_acks_immediately() {
        let mut r = Replica::new(ProcessId(1), false);
        let (mut gen, _) = token_gen();
        let mut out = Vec::new();
        r.on_message(ProcessId(0), &write_msg(1, 0, 7, 1), &mut gen, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            Action::Send {
                msg: Message::WriteAck { .. },
                ..
            }
        ));
        assert_eq!(r.timestamp().seq, 1);
        assert_eq!(r.value().as_u32(), Some(7));
    }

    #[test]
    fn logging_replica_defers_ack_until_store_done() {
        let mut r = Replica::new(ProcessId(1), true);
        let (mut gen, _) = token_gen();
        let mut out = Vec::new();
        r.on_message(ProcessId(0), &write_msg(1, 0, 7, 1), &mut gen, &mut out);
        // A store, but no ack yet.
        assert_eq!(out.len(), 1);
        let Action::Store { token, key, .. } = out[0].clone() else {
            panic!("expected a store, got {:?}", out[0])
        };
        assert_eq!(key, KEY_WRITTEN);
        out.clear();
        assert!(r.on_store_done(token, &mut out));
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            Action::Send {
                msg: Message::WriteAck { .. },
                ..
            }
        ));
    }

    #[test]
    fn read_acks_attest_durability_truthfully() {
        let mut r = Replica::new(ProcessId(1), true);
        let (mut gen, _) = token_gen();
        let mut out = Vec::new();
        let req = RequestId::new(ProcessId(0), 5);
        // Fresh replica: the initial tag counts as durable (covered by
        // the initial `written` record's tag).
        r.on_message(ProcessId(0), &Message::Read { req }, &mut gen, &mut out);
        assert!(matches!(
            out[0],
            Action::Send {
                msg: Message::ReadAck { durable: true, .. },
                ..
            }
        ));
        out.clear();
        // A newly adopted value is volatile until its store completes:
        // the ack must say so, or the reader's fast path would trust a
        // tag a total crash could forget.
        r.on_message(ProcessId(0), &write_msg(3, 0, 9, 7), &mut gen, &mut out);
        let Action::Store { token, .. } = out[0].clone() else {
            panic!("expected the adoption store, got {:?}", out[0]);
        };
        out.clear();
        r.on_message(ProcessId(0), &Message::Read { req }, &mut gen, &mut out);
        assert!(matches!(
            out[0],
            Action::Send {
                msg: Message::ReadAck { durable: false, .. },
                ..
            }
        ));
        out.clear();
        r.on_store_done(token, &mut out);
        out.clear();
        r.on_message(ProcessId(0), &Message::Read { req }, &mut gen, &mut out);
        assert!(matches!(
            out[0],
            Action::Send {
                msg: Message::ReadAck { durable: true, .. },
                ..
            }
        ));
        // Non-logging replicas always attest: volatile is as stable as
        // the crash-stop model gets.
        let mut cs = Replica::new(ProcessId(2), false);
        let mut out2 = Vec::new();
        cs.on_message(ProcessId(0), &write_msg(3, 0, 9, 8), &mut gen, &mut out2);
        out2.clear();
        cs.on_message(ProcessId(0), &Message::Read { req }, &mut gen, &mut out2);
        assert!(matches!(
            out2[0],
            Action::Send {
                msg: Message::ReadAck { durable: true, .. },
                ..
            }
        ));
    }

    #[test]
    fn duplicate_write_is_not_acked_before_durability() {
        let mut r = Replica::new(ProcessId(1), true);
        let (mut gen, _) = token_gen();
        let mut out = Vec::new();
        r.on_message(ProcessId(0), &write_msg(1, 0, 7, 1), &mut gen, &mut out);
        let Action::Store { token, .. } = out[0].clone() else {
            panic!()
        };
        out.clear();
        // Retransmission of the same write arrives before the store
        // completes: no ack, and no second store either.
        r.on_message(ProcessId(0), &write_msg(1, 0, 7, 1), &mut gen, &mut out);
        assert!(out.is_empty(), "early ack or duplicate store: {out:?}");
        // Store completes: *both* parked acks are released.
        r.on_store_done(token, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn stale_write_after_durability_acks_immediately() {
        let mut r = Replica::new(ProcessId(1), true);
        let (mut gen, _) = token_gen();
        let mut out = Vec::new();
        r.on_message(ProcessId(0), &write_msg(5, 0, 7, 1), &mut gen, &mut out);
        let Action::Store { token, .. } = out[0].clone() else {
            panic!()
        };
        out.clear();
        r.on_store_done(token, &mut out);
        out.clear();
        // An older write arrives: nothing to adopt, already durable at a
        // covering tag → immediate ack.
        r.on_message(ProcessId(2), &write_msg(3, 2, 9, 4), &mut gen, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            Action::Send {
                msg: Message::WriteAck { .. },
                ..
            }
        ));
        // And the replica still holds the newer value.
        assert_eq!(r.value().as_u32(), Some(7));
    }

    #[test]
    fn overlapping_adoptions_share_the_covering_store() {
        let mut r = Replica::new(ProcessId(1), true);
        let (mut gen, _) = token_gen();
        let mut out = Vec::new();
        r.on_message(ProcessId(0), &write_msg(1, 0, 7, 1), &mut gen, &mut out);
        let Action::Store { token: t1, .. } = out[0].clone() else {
            panic!()
        };
        out.clear();
        // A newer write arrives while the first store is in flight: it
        // needs its own store (higher tag).
        r.on_message(ProcessId(2), &write_msg(2, 2, 8, 9), &mut gen, &mut out);
        assert_eq!(out.len(), 1, "newer tag needs a new store");
        let Action::Store { token: t2, .. } = out[0].clone() else {
            panic!()
        };
        out.clear();
        // First store completes: only the first waiter is released.
        r.on_store_done(t1, &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        // Second store completes: second waiter released.
        r.on_store_done(t2, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(r.value().as_u32(), Some(8));
    }

    #[test]
    fn completed_pre_log_covers_the_self_write() {
        let mut r = Replica::new(ProcessId(0), true);
        let (mut gen, _) = token_gen();
        let mut out = Vec::new();
        let ts = Timestamp::new(4, ProcessId(0));
        r.pre_log_issued(StoreToken(77), ts);
        assert_eq!(r.timestamp().seq, 0, "adoption waits for the log");
        r.on_pre_log_done(StoreToken(77), &Value::from_u32(7), &mut out);
        assert!(out.is_empty());
        assert_eq!(r.timestamp(), ts);
        assert_eq!(r.value().as_u32(), Some(7));
        // The coordinator's own Write: durable under `writing` → ack, and
        // no second record under `written`.
        r.on_message(ProcessId(0), &write_msg(4, 0, 7, 1), &mut gen, &mut out);
        assert!(matches!(
            out.as_slice(),
            [Action::Send {
                msg: Message::WriteAck { .. },
                ..
            }]
        ));
        // Readers see the tag attested.
        out.clear();
        let req = RequestId::new(ProcessId(1), 5);
        r.on_message(ProcessId(1), &Message::Read { req }, &mut gen, &mut out);
        assert!(read_ack_of(&out).0);
    }

    #[test]
    fn write_covered_by_an_in_flight_pre_log_is_parked_not_acked() {
        let mut r = Replica::new(ProcessId(0), true);
        let (mut gen, _) = token_gen();
        let mut out = Vec::new();
        r.pre_log_issued(StoreToken(77), Timestamp::new(4, ProcessId(0)));
        // The tag itself, and an older tag from another writer: both ride
        // the pre-log instead of issuing a store, and neither is acked
        // before it completes.
        r.on_message(ProcessId(0), &write_msg(4, 0, 7, 1), &mut gen, &mut out);
        r.on_message(ProcessId(2), &write_msg(3, 2, 9, 2), &mut gen, &mut out);
        assert!(out.is_empty(), "early ack or duplicate store: {out:?}");
        let req = RequestId::new(ProcessId(1), 5);
        r.on_message(ProcessId(1), &Message::Read { req }, &mut gen, &mut out);
        assert!(!read_ack_of(&out).0, "volatile until the log lands");
        out.clear();
        r.on_pre_log_done(StoreToken(77), &Value::from_u32(7), &mut out);
        assert_eq!(out.len(), 2, "both parked acks release: {out:?}");
        // A newer tag adopted meanwhile keeps the volatile state; the
        // pre-logged one is merely durable below it.
        let mut r = Replica::new(ProcessId(0), true);
        r.pre_log_issued(StoreToken(1), Timestamp::new(4, ProcessId(0)));
        out.clear();
        r.on_message(ProcessId(2), &write_msg(6, 2, 9, 3), &mut gen, &mut out);
        assert!(matches!(out.as_slice(), [Action::Store { .. }]));
        r.on_pre_log_done(StoreToken(1), &Value::from_u32(7), &mut out);
        assert_eq!(r.timestamp(), Timestamp::new(6, ProcessId(2)));
        assert_eq!(r.value().as_u32(), Some(9));
    }

    #[test]
    fn a_vouched_tag_is_durable_here_without_a_store() {
        let (mut gen, _) = token_gen();
        let mut r = Replica::restored(
            ProcessId(0),
            true,
            Timestamp::new(3, ProcessId(1)),
            Value::from_u32(30),
        );
        // A peer's Write of [5,2] parks, its store in flight.
        let mut out = Vec::new();
        r.on_message(ProcessId(2), &write_msg(5, 2, 50, 1), &mut gen, &mut out);
        assert!(matches!(out.as_slice(), [Action::Store { .. }]));
        out.clear();
        // The catch-up hears a majority vouch for [9,2]: adopted, durable,
        // and the parked ack it covers leaves — all without a store.
        let vouched = Timestamp::new(9, ProcessId(2));
        r.vouch(vouched, &Value::from_u32(90), &mut out);
        assert_eq!(write_acks_to(&out), [2]);
        assert_eq!((r.timestamp(), r.value().as_u32()), (vouched, Some(90)));
        // Readers are told it is durable …
        out.clear();
        let req = RequestId::new(ProcessId(1), 5);
        r.on_message(ProcessId(1), &Message::Read { req }, &mut gen, &mut out);
        assert!(read_ack_of(&out).0);
        // … an older Write is acknowledged at once, with no store …
        out.clear();
        r.on_message(ProcessId(1), &write_msg(7, 1, 70, 2), &mut gen, &mut out);
        assert_eq!(write_acks_to(&out), [1]);
        assert_eq!(out.len(), 1, "no store: {out:?}");
        // … and a newer one is still logged before it is acknowledged.
        out.clear();
        r.on_message(ProcessId(1), &write_msg(11, 1, 110, 3), &mut gen, &mut out);
        let [Action::Store { token, .. }] = out[..] else {
            panic!("a newer tag needs its own store: {out:?}")
        };
        out.clear();
        r.on_store_done(token, &mut out);
        assert_eq!(write_acks_to(&out), [1]);
    }

    #[test]
    fn restored_replica_resumes_from_record() {
        let r = Replica::restored(
            ProcessId(1),
            true,
            Timestamp::new(9, ProcessId(3)),
            Value::from_u32(4),
        );
        assert_eq!(r.timestamp(), Timestamp::new(9, ProcessId(3)));
        assert_eq!(r.value().as_u32(), Some(4));
    }

    #[test]
    fn acks_are_not_consumed() {
        let mut r = Replica::new(ProcessId(1), true);
        let (mut gen, _) = token_gen();
        let mut out = Vec::new();
        let req = RequestId::new(ProcessId(1), 0);
        assert!(!r.on_message(ProcessId(0), &Message::WriteAck { req }, &mut gen, &mut out));
        assert!(!r.on_message(
            ProcessId(0),
            &Message::SnAck { req, seq: 0 },
            &mut gen,
            &mut out
        ));
        assert!(out.is_empty());
    }

    // ---------------------------------------------------------------
    // Lease-fence behaviour
    // ---------------------------------------------------------------

    const LEASE: u64 = 2_000;

    /// Drives a fresh leasing replica durable at tag [1,0]/7, returning
    /// it ready to grant.
    fn leased_replica(gen: &mut impl FnMut() -> u64) -> Replica {
        let mut r = Replica::new(ProcessId(1), true).with_lease(LEASE);
        let mut out = Vec::new();
        r.on_message(ProcessId(0), &write_msg(1, 0, 7, 1), gen, &mut out);
        let Action::Store { token, .. } = out[0].clone() else {
            panic!()
        };
        out.clear();
        r.on_store_done(token, &mut out);
        r
    }

    fn read_ack_of(out: &[Action]) -> (bool, u32) {
        out.iter()
            .find_map(|a| match a {
                Action::Send {
                    msg: Message::ReadAck { durable, grant, .. },
                    ..
                } => Some((*durable, *grant)),
                _ => None,
            })
            .expect("a read ack")
    }

    /// The `WriteAck`s in `out`, by destination.
    fn write_acks_to(out: &[Action]) -> Vec<u16> {
        out.iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: Message::WriteAck { .. },
                } => Some(to.0),
                _ => None,
            })
            .collect()
    }

    /// Delivers a `Read` from `from`: its attestation and grant, plus the
    /// horizon timer it armed, if any.
    fn read_from(
        r: &mut Replica,
        from: u16,
        gen: &mut impl FnMut() -> u64,
    ) -> (bool, u32, Option<TimerToken>) {
        let mut out = Vec::new();
        let req = RequestId::new(ProcessId(from), 5);
        r.on_message(ProcessId(from), &Message::Read { req }, gen, &mut out);
        let (durable, grant) = read_ack_of(&out);
        let armed = out.iter().find_map(|a| match a {
            Action::SetTimer { token, .. } => Some(*token),
            _ => None,
        });
        (durable, grant, armed)
    }

    /// Delivers `from`'s `Write` of `[seq, from]` and completes the store
    /// it issues, if any: who was acknowledged.
    fn durable_write_from(
        r: &mut Replica,
        from: u16,
        seq: u64,
        gen: &mut impl FnMut() -> u64,
    ) -> Vec<u16> {
        let mut out = Vec::new();
        r.on_message(
            ProcessId(from),
            &write_msg(seq, from, 9, seq),
            gen,
            &mut out,
        );
        let stores: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Store { token, .. } => Some(*token),
                _ => None,
            })
            .collect();
        for token in stores {
            r.on_store_done(token, &mut out);
        }
        write_acks_to(&out)
    }

    /// Fires `horizon`: who was acknowledged, and the timer re-armed.
    fn fire(
        r: &mut Replica,
        horizon: TimerToken,
        gen: &mut impl FnMut() -> u64,
    ) -> (Vec<u16>, Option<TimerToken>) {
        let mut out = Vec::new();
        assert!(r.on_timer(horizon, gen, &mut out), "a lease horizon");
        let rearmed = out.iter().find_map(|a| match a {
            Action::SetTimer { token, .. } => Some(*token),
            _ => None,
        });
        (write_acks_to(&out), rearmed)
    }

    #[test]
    fn durable_reads_grant_and_arm_one_horizon_timer_per_grantee() {
        let (mut gen, _) = token_gen();
        let mut r = leased_replica(&mut gen);
        let (durable, grant, armed) = read_from(&mut r, 0, &mut gen);
        assert!(durable);
        assert_eq!(grant, LEASE as u32);
        assert!(armed.is_some(), "first grant arms the horizon timer");
        // A second grant to the same grantee rides the pending timer.
        let (_, grant, armed) = read_from(&mut r, 0, &mut gen);
        assert_eq!(grant, LEASE as u32);
        assert!(armed.is_none(), "one horizon timer at a time per grantee");
        // Another grantee's grants expire on their own clock.
        let (_, grant, armed) = read_from(&mut r, 2, &mut gen);
        assert_eq!(grant, LEASE as u32);
        assert!(armed.is_some());
    }

    #[test]
    fn lease_disabled_replica_never_grants_or_arms_timers() {
        let (mut gen, _) = token_gen();
        let mut r = Replica::new(ProcessId(1), true);
        let (durable, grant, armed) = read_from(&mut r, 0, &mut gen);
        assert!(durable);
        assert_eq!(grant, 0);
        assert!(armed.is_none());
    }

    #[test]
    fn the_grantee_passes_its_own_fence() {
        let (mut gen, _) = token_gen();
        let mut r = leased_replica(&mut gen);
        read_from(&mut r, 0, &mut gen);
        // The grantee's own newer write: nobody serves under its grants
        // any more (it dropped its lease before sending), so the ack
        // leaves as soon as the tag is durable.
        assert_eq!(durable_write_from(&mut r, 0, 2, &mut gen), [0]);
        // And its next read is attested and granted afresh — while a
        // third reader still sees the tag fenced behind the old grant.
        assert!(
            !read_from(&mut r, 2, &mut gen).0,
            "fenced for a third reader"
        );
        let (durable, grant, _) = read_from(&mut r, 0, &mut gen);
        assert!(durable, "own grants do not fence the grantee's reads");
        assert_eq!(grant, LEASE as u32);
    }

    #[test]
    fn a_foreign_newer_write_is_fenced_until_the_grantees_horizon() {
        let (mut gen, _) = token_gen();
        let mut r = leased_replica(&mut gen);
        let (_, _, horizon) = read_from(&mut r, 0, &mut gen);
        // Another process's newer write: adopted and stored, but the ack
        // must wait for the grant horizon even after the store completes.
        assert!(
            durable_write_from(&mut r, 2, 2, &mut gen).is_empty(),
            "durable but fenced: the ack must stay parked"
        );
        assert_eq!(r.timestamp(), Timestamp::new(2, ProcessId(2)));
        // Reads of the fenced tag must not attest durability to anyone
        // but the grantee (the fast path would return the new value
        // while the lease still serves) — the writer included.
        for reader in [2, 3] {
            let (durable, grant, _) = read_from(&mut r, reader, &mut gen);
            assert!(!durable, "fenced tag reported non-durable to p{reader}");
            assert_eq!(grant, 0);
        }
        // Horizon fires: grants expired, the fenced ack releases, and
        // reads attest again.
        let (acked, _) = fire(&mut r, horizon.expect("armed"), &mut gen);
        assert_eq!(acked, [2]);
        let (durable, grant, _) = read_from(&mut r, 3, &mut gen);
        assert!(durable);
        assert_eq!(grant, LEASE as u32);
    }

    #[test]
    fn each_grantee_is_exempt_from_its_own_grants_only() {
        let (mut gen, _) = token_gen();
        let mut r = leased_replica(&mut gen);
        let (_, _, horizon_0) = read_from(&mut r, 0, &mut gen);
        let (_, _, horizon_2) = read_from(&mut r, 2, &mut gen);
        // Each holder's newer write waits out the *other* holder's
        // grants, not its own.
        assert!(durable_write_from(&mut r, 0, 2, &mut gen).is_empty());
        assert!(durable_write_from(&mut r, 2, 3, &mut gen).is_empty());
        let (acked, _) = fire(&mut r, horizon_0.expect("armed"), &mut gen);
        assert_eq!(acked, [2], "p0's grants were all that held p2's write");
        let (acked, _) = fire(&mut r, horizon_2.expect("armed"), &mut gen);
        assert_eq!(acked, [0]);
    }

    #[test]
    fn a_foreign_grantee_going_quiet_frees_a_home_that_never_does() {
        let (mut gen, _) = token_gen();
        let mut r = leased_replica(&mut gen);
        // The home coordinator p0 re-mints every term, so its grants
        // never all expire; p2 probes the register once.
        let (_, _, home) = read_from(&mut r, 0, &mut gen);
        let (_, _, stray) = read_from(&mut r, 2, &mut gen);
        assert_eq!(read_from(&mut r, 0, &mut gen).1, LEASE as u32);
        assert!(
            durable_write_from(&mut r, 0, 2, &mut gen).is_empty(),
            "p2's grant fences the home's write"
        );
        let (acked, rearmed) = fire(&mut r, home.expect("armed"), &mut gen);
        assert!(acked.is_empty());
        assert!(rearmed.is_some(), "the home's grants are still live");
        // p2's horizon passes with no new grant to it: p2's entry is
        // quiescent although the register never was, and the home is
        // exempt again.
        let (acked, rearmed) = fire(&mut r, stray.expect("armed"), &mut gen);
        assert_eq!(acked, [0]);
        assert!(rearmed.is_none());
        assert_eq!(durable_write_from(&mut r, 0, 3, &mut gen), [0]);
    }

    #[test]
    fn an_exempt_write_still_waits_for_its_store() {
        let (mut gen, _) = token_gen();
        let mut r = leased_replica(&mut gen);
        read_from(&mut r, 0, &mut gen);
        let mut out = Vec::new();
        r.on_message(ProcessId(0), &write_msg(2, 0, 9, 2), &mut gen, &mut out);
        let Action::Store { token, .. } = out[0].clone() else {
            panic!("adoption store expected, got {:?}", out[0]);
        };
        // A duplicate before the store completes: no early ack, no second
        // store — the exemption lifts the lease fence, never the
        // durable-ack discipline.
        r.on_message(ProcessId(0), &write_msg(2, 0, 9, 2), &mut gen, &mut out);
        assert_eq!(out.len(), 1, "early ack or duplicate store: {out:?}");
        out.clear();
        r.on_store_done(token, &mut out);
        assert_eq!(write_acks_to(&out), [0, 0]);
    }

    #[test]
    fn write_at_or_below_min_granted_tag_is_not_fenced() {
        let (mut gen, _) = token_gen();
        let mut r = leased_replica(&mut gen);
        read_from(&mut r, 0, &mut gen);
        // A write at the granted tag itself (a read write-back of the
        // leased value): already durable, no newer value — acks freely.
        let mut out = Vec::new();
        r.on_message(ProcessId(2), &write_msg(1, 0, 7, 3), &mut gen, &mut out);
        assert_eq!(write_acks_to(&out), [2]);
    }

    #[test]
    fn grants_during_horizon_rearm_once_and_then_quiesce() {
        let (mut gen, _) = token_gen();
        let mut r = leased_replica(&mut gen);
        let (_, _, t1) = read_from(&mut r, 0, &mut gen);
        // Another grant to the same grantee while the first horizon runs.
        read_from(&mut r, 0, &mut gen);
        // First horizon fires: the straggler grant is still open, so a
        // second full hold is armed.
        let (_, t2) = fire(&mut r, t1.expect("armed"), &mut gen);
        // Second horizon fires with no new grants: fully quiescent.
        let (_, t3) = fire(&mut r, t2.expect("re-arm expected"), &mut gen);
        assert!(t3.is_none());
        // Quiescent again: a foreign newer write acks as soon as it is
        // durable.
        assert_eq!(durable_write_from(&mut r, 2, 4, &mut gen), [2]);
    }

    #[test]
    fn a_parked_ack_waits_only_for_grants_issued_before_it() {
        let (mut gen, _) = token_gen();
        let mut r = leased_replica(&mut gen);
        let (_, _, t1) = read_from(&mut r, 0, &mut gen);
        assert!(durable_write_from(&mut r, 2, 2, &mut gen).is_empty());
        // The grantee reads again (exempt, so granted on the new tag):
        // that grant cannot be invalidated by the parked write and must
        // not extend its wait.
        assert_eq!(read_from(&mut r, 0, &mut gen).1, LEASE as u32);
        let (acked, rearmed) = fire(&mut r, t1.expect("armed"), &mut gen);
        assert_eq!(acked, [2]);
        assert!(rearmed.is_some(), "the later grant keeps its own hold");
    }

    #[test]
    fn boot_hold_fences_every_write_for_one_hold_term() {
        let (mut gen, _) = token_gen();
        let mut r = Replica::restored(
            ProcessId(1),
            true,
            Timestamp::new(3, ProcessId(0)),
            Value::from_u32(7),
        )
        .with_lease(LEASE);
        let mut out = Vec::new();
        r.boot_hold(&mut gen, &mut out);
        let Some(Action::SetTimer { token: horizon, .. }) = out.first().cloned() else {
            panic!("boot hold arms the horizon timer");
        };
        // Any write — even one already covered by the restored durable
        // tag, even the recovered node's own coordinator's — is fenced:
        // the pre-crash incarnation may have granted leases this
        // incarnation cannot see, to anyone. The hold is a grant to
        // nobody, so nobody is exempt from it.
        assert!(durable_write_from(&mut r, 2, 2, &mut gen).is_empty());
        assert!(durable_write_from(&mut r, 1, 4, &mut gen).is_empty());
        assert!(
            !read_from(&mut r, 1, &mut gen).0,
            "nor are its reads attested"
        );
        let (acked, rearmed) = fire(&mut r, horizon, &mut gen);
        assert_eq!(acked, [2, 1]);
        assert!(rearmed.is_none());
    }
}
