//! **Detectable client recovery**: exactly-once writes through a durable
//! intent journal and an idempotent [`KvClient::resolve`].
//!
//! A classic store client that crashes mid-`put` leaves the outcome
//! ambiguous forever — the write may have landed at a quorum, may still
//! be in flight inside a coordinator node, or may never have left. This
//! module closes the gap with three pieces:
//!
//! 1. every write of an exactly-once client carries a client-assigned
//!    **operation id** ([`rmem_types::OpTag`]), recorded with the value
//!    in the payload's op-id frame ([`crate::codec::encode_entry_tagged`]);
//! 2. the op is journaled in a durable [`IntentJournal`] **before the
//!    first datagram leaves**;
//! 3. after a crash, [`KvClient::resolve`] settles each journaled op to a
//!    definite verdict by re-reading the key's quorum state.
//!
//! The write itself is an ordinary call of one tagged entry through the
//! client's one driver (see [`crate::client`]): every node retry and
//! every re-route under a moved shard map re-encodes under the *same*
//! tag, and a write that ends ambiguously (every node failed, or the map
//! moved after an attempt was lost) simply stays `Sent` in the journal —
//! step 3 is its recovery, whether or not the client crashed.
//!
//! **The resolve invariant: a resolved-`NotLanded` op may never later
//! become visible, and retrying a `Landed` op is a no-op.** The first
//! half is discharged *in the journal*, not at the registers: `NotLanded`
//! is returned only for ops still in [`IntentState::Prepared`] — nothing
//! ever left the client — and resolving one atomically fences it
//! ([`IntentState::Aborted`]), so a resurrected owner's
//! [`send_put`](KvClient::send_put) refuses with [`KvError::Fenced`]. An
//! op that reached [`IntentState::Sent`] always resolves `Landed`: a
//! quorum read either observes the tag (it landed), observes ⊥ and
//! **re-issues under the same tag** (completing it definitively — the
//! register layer may still be driving the original, but duplicate
//! writes of one tag carry one effect, so both landings are the same
//! logical write), or observes a foreign value — in which case the op is
//! conservatively `Landed` (landed-then-overwritten is indistinguishable
//! from never-landed, and re-issuing here could *resurrect* an
//! overwritten value between two reads of the overwriter, which no
//! atomic register may do). Verdicts are stored durably, so repeated
//! resolves — even across a resolver crash — always agree.
//!
//! **The crash model.** A client can crash after any of its outputs: its
//! host takes the first k submissions and journal writes and none after
//! ([`crate::crash`]). So a crash leaves each op it interrupted in one of
//! the journal's two pending states, whatever step it fell on: `Prepared`
//! (staged by [`begin_put`](KvClient::begin_put), nothing sent), or `Sent`
//! — with nothing submitted yet, with submissions landed, in flight or
//! refused, or acknowledged at a quorum with only the tombstone lost.
//! Recovery is a new incarnation over the same journal storage running
//! [`resolve_all`](KvClient::resolve_all): every `Prepared` op resolves
//! `NotLanded` and is fenced, every `Sent` op resolves `Landed`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use bytes::Bytes;
use rmem_storage::{Intent, IntentJournal, IntentState};
use rmem_types::OpTag;

use crate::client::{KvClient, KvError};
use crate::codec;

/// The definite verdict [`KvClient::resolve`] assigns a journaled op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// The write is durably applied (observed at a quorum, completed by
    /// the resolver's re-issue, or already overwritten by a later write).
    Landed {
        /// The resolved operation's tag.
        tag: OpTag,
    },
    /// The write provably never left the client — and never will: the op
    /// is fenced, so this verdict can never be invalidated later.
    NotLanded,
}

/// Shared exactly-once state of a client family: the durable intent
/// journal plus the tag allocator. Clones share one instance, so every
/// clone's writes draw from one monotone sequence.
#[derive(Debug)]
pub(crate) struct ExactlyOnce {
    client_id: u16,
    journal: Mutex<IntentJournal>,
    next_seq: AtomicU64,
}

impl ExactlyOnce {
    fn alloc(&self) -> OpTag {
        OpTag::new(
            self.client_id,
            self.next_seq.fetch_add(1, Ordering::Relaxed),
        )
    }

    fn lock(&self) -> MutexGuard<'_, IntentJournal> {
        self.journal.lock().expect("intent journal lock")
    }
}

fn journal_err(source: rmem_storage::StorageError) -> KvError {
    KvError::Journal { source }
}

impl KvClient {
    /// Turns this client family into an **exactly-once** client:
    /// `client_id` becomes the op-tag namespace (unique per logical
    /// client — reuse it across restarts of the *same* client, never
    /// across distinct ones), and `journal` records every write's intent
    /// durably before it is issued. Sequence numbers continue from the
    /// journal's high-water mark, so a reopened journal cannot reuse a
    /// crashed op's identity.
    pub fn with_exactly_once(mut self, client_id: u16, journal: IntentJournal) -> Self {
        let next_seq = AtomicU64::new(journal.next_seq());
        self.intents = Some(Arc::new(ExactlyOnce {
            client_id,
            journal: Mutex::new(journal),
            next_seq,
        }));
        self
    }

    fn ctx(&self) -> &ExactlyOnce {
        self.intents
            .as_deref()
            .expect("this operation needs with_exactly_once")
    }

    /// Every journaled op still awaiting a verdict, in tag order — the
    /// recovery work list for [`resolve`](KvClient::resolve). Empty when
    /// no exactly-once state is attached.
    pub fn pending_intents(&self) -> Vec<Intent> {
        self.intents
            .as_ref()
            .map_or_else(Vec::new, |c| c.lock().pending())
    }

    /// The exactly-once `put`: journal (durably, state `Sent`) → tagged
    /// write → tombstone.
    pub(crate) fn put_exactly_once(&self, key: &str, value: Bytes) -> Result<(), KvError> {
        let ctx = self.ctx();
        let tag = ctx.alloc();
        ctx.lock()
            .begin(Intent {
                tag,
                key: key.to_string(),
                value: value.clone(),
                state: IntentState::Sent,
            })
            .map_err(journal_err)?;
        let outcome = self.put_inner(key, value, Some(tag));
        match &outcome {
            Ok(()) => ctx.lock().acknowledge(tag).map_err(journal_err)?,
            // Refused before anything was sent: settle the op now rather
            // than leaving a resolve to re-issue an untransmittable write.
            Err(KvError::TooLarge { .. }) => ctx
                .lock()
                .transition(tag, IntentState::Aborted)
                .map_err(journal_err)?,
            // Ambiguous (some node attempt may have taken effect): the op
            // stays `Sent` for resolve.
            Err(_) => {}
        }
        outcome
    }

    /// Stage an exactly-once write without sending anything: the intent
    /// is journaled durably in [`IntentState::Prepared`] and its tag
    /// returned. Issue it with [`send_put`](KvClient::send_put); until
    /// then a resolver may still fence it to `NotLanded`.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Journal`] if the intent could not be made
    /// durable.
    ///
    /// # Panics
    ///
    /// Panics if no exactly-once state is attached
    /// ([`with_exactly_once`](KvClient::with_exactly_once)).
    pub fn begin_put(&self, key: &str, value: impl Into<Bytes>) -> Result<OpTag, KvError> {
        let ctx = self.ctx();
        let tag = ctx.alloc();
        ctx.lock()
            .begin(Intent {
                tag,
                key: key.to_string(),
                value: value.into(),
                state: IntentState::Prepared,
            })
            .map_err(journal_err)?;
        Ok(tag)
    }

    /// Issues (or re-issues) a staged write. The `Prepared → Sent`
    /// transition is durable and checked under the journal lock — the
    /// fence handshake with [`resolve`](KvClient::resolve): whichever of
    /// the two takes the lock first wins, so a fenced op provably never
    /// reaches the wire. Re-sending a `Sent` op retries under the same
    /// tag; re-sending a `Landed` op is a no-op.
    ///
    /// # Errors
    ///
    /// [`KvError::Fenced`] if a resolver already returned `NotLanded` for
    /// `tag`; [`KvError::UnknownIntent`] if the journal has no live
    /// record of it; otherwise as [`put`](KvClient::put).
    ///
    /// # Panics
    ///
    /// Panics if no exactly-once state is attached.
    pub fn send_put(&self, tag: OpTag) -> Result<(), KvError> {
        let ctx = self.ctx();
        let intent = {
            let mut journal = ctx.lock();
            let intent = journal
                .get(tag)
                .cloned()
                .ok_or(KvError::UnknownIntent { tag })?;
            match intent.state {
                IntentState::Aborted => return Err(KvError::Fenced { tag }),
                IntentState::Landed => return Ok(()),
                IntentState::Prepared => journal
                    .transition(tag, IntentState::Sent)
                    .map_err(journal_err)?,
                IntentState::Sent => {}
            }
            intent
        };
        let outcome = self.put_inner(&intent.key, intent.value, Some(tag));
        if outcome.is_ok() {
            ctx.lock().acknowledge(tag).map_err(journal_err)?;
        }
        outcome
    }

    /// Settles a journaled op to a definite, durable, idempotent verdict
    /// (see the [module docs](self) for the invariant and the case
    /// analysis). Safe to call from a recovered client while the crashed
    /// incarnation's write is still in flight.
    ///
    /// # Errors
    ///
    /// [`KvError::UnknownIntent`] for tags the journal has no live record
    /// of (never begun here, or acknowledged — an acknowledged op landed,
    /// but this journal can no longer prove which); [`KvError::Journal`]
    /// or [`KvError::Register`] if the verdict could not be established.
    ///
    /// # Panics
    ///
    /// Panics if no exactly-once state is attached.
    pub fn resolve(&self, tag: OpTag) -> Result<Resolution, KvError> {
        let ctx = self.ctx();
        let intent = {
            let mut journal = ctx.lock();
            match journal.state(tag) {
                None => return Err(KvError::UnknownIntent { tag }),
                Some(IntentState::Landed) => return Ok(Resolution::Landed { tag }),
                Some(IntentState::Aborted) => return Ok(Resolution::NotLanded),
                // Nothing ever left the client. Fence it under the lock —
                // the owner's send_put checks under the same lock — and
                // the NotLanded verdict is unconditionally safe.
                Some(IntentState::Prepared) => {
                    journal
                        .transition(tag, IntentState::Aborted)
                        .map_err(journal_err)?;
                    return Ok(Resolution::NotLanded);
                }
                Some(IntentState::Sent) => journal
                    .get(tag)
                    .cloned()
                    .expect("a tag with a state has an intent"),
            }
        };
        // `Sent`: the write is anywhere between "never reached a node"
        // and "landed long ago" — and the register layer may *still* be
        // driving it, so NotLanded is out of reach. Make Landed true.
        // One recorded read of the key's quorum state (epoch-aware,
        // split-aware): the payload that answered is the evidence.
        let (payload, _) = self.get_inner(&intent.key)?;
        if codec::payload_op_tag(&payload) != Some(tag) && payload.is_bottom() {
            // Nothing landed yet (at read time). Completing the op
            // ourselves under the same tag makes the verdict definitive;
            // if the original landing races us, both carry one effect.
            self.put_inner(&intent.key, intent.value, Some(tag))?;
        }
        // A foreign value (or our own tag) means the register moved past
        // ⊥: either our write landed (possibly since overwritten) or it
        // never will surface *visibly fresh* — but re-issuing under a
        // foreign value could resurrect an overwritten value between two
        // observations of the overwriter, so the conservative verdict is
        // Landed without touching the register.
        ctx.lock()
            .transition(tag, IntentState::Landed)
            .map_err(journal_err)?;
        Ok(Resolution::Landed { tag })
    }

    /// Resolves every pending intent ([`pending_intents`]
    /// (KvClient::pending_intents)) in tag order — the whole-journal
    /// recovery sweep. Returns each op's verdict.
    ///
    /// # Errors
    ///
    /// As [`resolve`](KvClient::resolve); the sweep stops at the first
    /// failure (already-settled verdicts stay durable).
    pub fn resolve_all(&self) -> Result<Vec<(OpTag, Resolution)>, KvError> {
        self.pending_intents()
            .into_iter()
            .map(|intent| self.resolve(intent.tag).map(|r| (intent.tag, r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::Crash;
    use crate::router::ShardRouter;
    use rmem_core::{SharedMemory, Transient};
    use rmem_net::cluster::SharedStorage;
    use rmem_net::LocalCluster;
    use rmem_storage::MemStorage;

    fn mem_journal() -> IntentJournal {
        IntentJournal::with_storage(Box::new(MemStorage::new())).unwrap()
    }

    fn eo_client(cluster: &LocalCluster, id: u16) -> KvClient {
        KvClient::new(cluster.clients(), ShardRouter::new(4))
            .unwrap()
            .with_exactly_once(id, mem_journal())
    }

    /// Client `id` over the journal on `disk`, its outputs spending
    /// `crash` — or, with `None`, its recovered incarnation.
    fn incarnation(
        cluster: &LocalCluster,
        id: u16,
        disk: &SharedStorage,
        crash: Option<&Crash>,
    ) -> KvClient {
        let kv = KvClient::new(cluster.clients(), ShardRouter::new(4)).unwrap();
        let (kv, storage) = match crash {
            Some(crash) => (kv.with_crash(crash), crash.storage(disk.clone())),
            None => (
                kv,
                Box::new(disk.clone()) as Box<dyn rmem_storage::StableStorage>,
            ),
        };
        kv.with_exactly_once(id, IntentJournal::with_storage(storage).unwrap())
    }

    /// Client `id` puts `key → value` after one warm-up put (which syncs
    /// its map) and crashes after the put's journal entry and its write:
    /// the tombstone is refused. Returns the recovered incarnation.
    fn crash_before_the_tombstone(cluster: &LocalCluster, id: u16, key: &str) -> KvClient {
        let (disk, crash) = (SharedStorage::new(), Crash::default());
        let kv = incarnation(cluster, id, &disk, Some(&crash));
        kv.put("warm-up", b"w".to_vec()).unwrap();
        crash.arm(2);
        assert!(matches!(
            kv.put(key, b"v".to_vec()),
            Err(KvError::Journal { .. })
        ));
        incarnation(cluster, id, &disk, None)
    }

    fn cluster() -> LocalCluster {
        LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap()
    }

    #[test]
    fn exactly_once_put_tags_the_payload_and_clears_the_journal() {
        let mut cluster = cluster();
        let kv = eo_client(&cluster, 9);
        kv.put("alpha", b"v".to_vec()).unwrap();
        assert_eq!(kv.get("alpha").unwrap().as_deref(), Some(b"v".as_ref()));
        let reg = kv.shard_map().register_for("alpha");
        let payload = kv.raw_read(reg, "inspect").unwrap();
        assert_eq!(
            codec::payload_op_tag(&payload),
            Some(OpTag::new(9, 0)),
            "the landed payload must carry the client-assigned op id"
        );
        assert!(kv.pending_intents().is_empty(), "acked ops are tombstoned");
        kv.put("alpha", b"w".to_vec()).unwrap();
        let payload = kv.raw_read(reg, "inspect").unwrap();
        assert_eq!(codec::payload_op_tag(&payload), Some(OpTag::new(9, 1)));
        cluster.shutdown();
    }

    #[test]
    fn resolved_not_landed_is_fenced_forever() {
        let mut cluster = cluster();
        let kv = eo_client(&cluster, 3);
        let tag = kv.begin_put("ghost", b"never".to_vec()).unwrap();
        assert_eq!(kv.pending_intents().len(), 1);
        assert_eq!(kv.resolve(tag).unwrap(), Resolution::NotLanded);
        // The verdict is memoized and the op fenced: a resurrected owner
        // cannot make a resolved-NotLanded op visible.
        assert_eq!(kv.resolve(tag).unwrap(), Resolution::NotLanded);
        assert!(matches!(kv.send_put(tag), Err(KvError::Fenced { .. })));
        assert_eq!(kv.get("ghost").unwrap(), None);
        cluster.shutdown();
    }

    #[test]
    fn staged_put_issues_and_acknowledges() {
        let mut cluster = cluster();
        let kv = eo_client(&cluster, 4);
        let tag = kv.begin_put("staged", b"v".to_vec()).unwrap();
        kv.send_put(tag).unwrap();
        assert_eq!(kv.get("staged").unwrap().as_deref(), Some(b"v".as_ref()));
        assert!(kv.pending_intents().is_empty());
        assert!(matches!(
            kv.send_put(tag),
            Err(KvError::UnknownIntent { .. })
        ));
        cluster.shutdown();
    }

    #[test]
    fn post_quorum_crash_resolves_landed() {
        let mut cluster = cluster();
        let kv = crash_before_the_tombstone(&cluster, 5, "acked");
        let tag = kv.pending_intents()[0].tag;
        // Crashed after the quorum ack: still pending in the journal, but
        // fully visible — resolve must say Landed, repeatedly.
        assert_eq!(kv.pending_intents().len(), 1);
        assert_eq!(kv.resolve(tag).unwrap(), Resolution::Landed { tag });
        assert_eq!(kv.resolve(tag).unwrap(), Resolution::Landed { tag });
        assert_eq!(kv.get("acked").unwrap().as_deref(), Some(b"v".as_ref()));
        cluster.shutdown();
    }

    #[test]
    fn mid_round_crash_resolves_landed_and_value_lands() {
        let mut cluster = cluster();
        let (disk, crash) = (SharedStorage::new(), Crash::default());
        let crashed = incarnation(&cluster, 6, &disk, Some(&crash));
        crashed.put("warm-up", b"w".to_vec()).unwrap();
        let sent = crash.outputs() + 2;
        crash.arm(2);
        std::thread::scope(|scope| {
            // The crashed client journals and sends the write; its
            // tombstone will be refused.
            scope.spawn(|| crashed.put("inflight", b"v".to_vec()));
            while crash.outputs() < sent {
                std::thread::yield_now();
            }
            // The write in flight races this resolve; either way the
            // verdict is definite and the value must end up visible.
            let kv = incarnation(&cluster, 6, &disk, None);
            let tag = kv.pending_intents()[0].tag;
            let verdict = kv.resolve(tag).unwrap();
            assert_eq!(verdict, Resolution::Landed { tag });
            assert_eq!(kv.get("inflight").unwrap().as_deref(), Some(b"v".as_ref()));
        });
        cluster.shutdown();
    }

    #[test]
    fn sent_but_never_issued_is_completed_by_resolve() {
        // A journal that already holds a Sent intent whose datagrams were
        // all lost: resolve observes ⊥ and re-issues under the same tag.
        let mut journal = mem_journal();
        let tag = OpTag::new(7, 0);
        journal
            .begin(Intent {
                tag,
                key: "lost".into(),
                value: Bytes::from_static(b"v"),
                state: IntentState::Sent,
            })
            .unwrap();
        let mut cluster = cluster();
        let kv = KvClient::new(cluster.clients(), ShardRouter::new(4))
            .unwrap()
            .with_exactly_once(7, journal);
        // Sequence allocation continues above the crashed op.
        assert_eq!(kv.resolve(tag).unwrap(), Resolution::Landed { tag });
        assert_eq!(kv.get("lost").unwrap().as_deref(), Some(b"v".as_ref()));
        kv.put("next", b"n".to_vec()).unwrap();
        let reg = kv.shard_map().register_for("next");
        let payload = kv.raw_read(reg, "inspect").unwrap();
        assert_eq!(codec::payload_op_tag(&payload), Some(OpTag::new(7, 1)));
        cluster.shutdown();
    }

    #[test]
    fn foreign_value_resolves_landed_without_reissue() {
        // The key was overwritten by another client after our op: resolve
        // must NOT re-issue (resurrection), and conservatively says
        // Landed.
        let mut cluster = cluster();
        let kv = crash_before_the_tombstone(&cluster, 8, "shared");
        let tag = kv.pending_intents()[0].tag;
        let other = eo_client(&cluster, 99);
        other.put("shared", b"theirs".to_vec()).unwrap();
        assert_eq!(kv.resolve(tag).unwrap(), Resolution::Landed { tag });
        assert_eq!(
            kv.get("shared").unwrap().as_deref(),
            Some(b"theirs".as_ref()),
            "resolve must never resurrect an overwritten value"
        );
        cluster.shutdown();
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let mut cluster = cluster();
        let kv = eo_client(&cluster, 2);
        assert!(matches!(
            kv.resolve(OpTag::new(2, 77)),
            Err(KvError::UnknownIntent { .. })
        ));
        cluster.shutdown();
    }
}
