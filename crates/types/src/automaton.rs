//! The event-driven automaton model.
//!
//! Each emulation algorithm is implemented as a deterministic automaton in
//! the I/O-automata style of Lynch's *Distributed Algorithms* (the
//! formalism the paper's correctness argument leans on via Lemma 13.16):
//! the runtime feeds the automaton [`Input`] events, and the automaton
//! responds by appending [`Action`]s to an output buffer. The automaton
//! itself performs **no I/O and keeps no wall-clock state**, which is what
//! lets the very same implementation run under
//!
//! * the deterministic discrete-event simulator (`rmem-sim`), where crashes
//!   can be injected between any two events and every run is reproducible
//!   from a seed, and
//! * the real socket runtime (`rmem-net`), where inputs arrive from UDP/TCP
//!   sockets and stores hit an fsync-backed file.
//!
//! # Crash/recovery contract
//!
//! A crash destroys the automaton object (its volatile state). On recovery
//! the runtime rebuilds one via [`AutomatonFactory::recover`], handing it a
//! read-only [`StableSnapshot`] of everything it ever stored; the recovered
//! automaton then receives [`Input::Start`] and may run a recovery round
//! (e.g. Fig. 4's re-finish-the-write) before serving clients.
//!
//! # Stable-store contract (the causal-log discipline)
//!
//! [`Action::Store`] is asynchronous: the runtime performs the write to
//! stable storage (taking λ in virtual or real time) and then delivers
//! [`Input::StoreDone`]. An automaton that must *log before sending* —
//! the essence of a causal log (§I-B) — simply withholds the send until
//! the matching `StoreDone` arrives. The causal-log instrumentation in
//! `rmem-sim` counts exactly these store→send dependencies.

use bytes::Bytes;

use crate::message::Message;
use crate::op::{Op, OpId, OpResult, RegisterId};
use crate::process::ProcessId;
use crate::Micros;

/// Token correlating an [`Action::Store`] with its [`Input::StoreDone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreToken(pub u64);

/// Token correlating an [`Action::SetTimer`] with its [`Input::Timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// Read-only view of a process's stable storage, offered to
/// [`AutomatonFactory::recover`].
///
/// Keys are the record names of the paper's pseudocode (`"writing"`,
/// `"written"`, `"recovered"`); values are the encoded records exactly as
/// previously passed to [`Action::Store`].
pub trait StableSnapshot {
    /// Returns the most recently stored bytes under `key`, if any.
    fn get(&self, key: &str) -> Option<Bytes>;

    /// Lists the occupied slots. Used by multi-register recovery to
    /// discover which registers have stable state; single-register
    /// automata never call it, so the default suffices for ad-hoc
    /// snapshots.
    fn keys(&self) -> Vec<String> {
        Vec::new()
    }
}

impl StableSnapshot for std::collections::HashMap<String, Bytes> {
    fn get(&self, key: &str) -> Option<Bytes> {
        std::collections::HashMap::get(self, key).cloned()
    }

    fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = std::collections::HashMap::keys(self).cloned().collect();
        keys.sort();
        keys
    }
}

/// An empty stable snapshot (a process booting for the first time).
#[derive(Debug, Clone, Copy, Default)]
pub struct EmptySnapshot;

impl StableSnapshot for EmptySnapshot {
    fn get(&self, _key: &str) -> Option<Bytes> {
        None
    }
}

/// Events delivered *to* an automaton by its runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// The process (re)starts. Delivered exactly once per incarnation,
    /// before any other input. A fresh incarnation initialises its stable
    /// records here (Fig. 4 lines 1–5); a recovered incarnation starts its
    /// recovery round here (Fig. 4 lines 40–47).
    Start,
    /// A client invokes an operation. The runtime guarantees ids are unique
    /// per process; the automaton replies eventually with
    /// [`Action::Complete`] unless a crash intervenes, and names it
    /// [`Automaton::active`] while it serves it.
    Invoke {
        /// Unique id for this invocation.
        op: OpId,
        /// The operation to perform.
        operation: Op,
    },
    /// A protocol message arrived on the (fair-lossy) network.
    Message {
        /// The sending process.
        from: ProcessId,
        /// The message.
        msg: Message,
    },
    /// A previously requested [`Action::Store`] reached stable storage.
    StoreDone(StoreToken),
    /// A previously requested [`Action::SetTimer`] fired.
    Timer(TimerToken),
}

/// Effects requested *by* an automaton from its runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send `msg` to `to` over the fair-lossy network. Sending to oneself
    /// is allowed and is delivered like any other message, as a later
    /// input (the paper's processes answer their own broadcasts through
    /// their listener thread, §V-A; the socket runtime loops such a
    /// message back on the node's own event queue).
    Send {
        /// Destination process.
        to: ProcessId,
        /// The message.
        msg: Message,
    },
    /// Durably store `bytes` under `key`; the runtime will deliver
    /// [`Input::StoreDone`] with `token` once the data is stable. A later
    /// store to the same key replaces the record (the pseudocode's `store`
    /// overwrites its slot).
    Store {
        /// Completion correlation token.
        token: StoreToken,
        /// Record name (e.g. `"writing"`, or `"writing@r3"` for register 3
        /// of a shared memory).
        key: String,
        /// Encoded record.
        bytes: Bytes,
    },
    /// Ask for an [`Input::Timer`] callback after `after` elapses
    /// (virtual time in the simulator, wall-clock in the real runtime).
    /// Automata use this for retransmission of unacknowledged rounds.
    SetTimer {
        /// Completion correlation token.
        token: TimerToken,
        /// Delay until the timer fires.
        after: Micros,
    },
    /// Report the outcome of a client invocation.
    Complete {
        /// The invocation being answered.
        op: OpId,
        /// Its result.
        result: OpResult,
        /// Quorum round-trips the operation performed (0 for rejected
        /// invocations). Lets runtimes surface per-operation costs — in
        /// particular whether a read completed through the one-round fast
        /// path (1), paid the write-back round (2), or was served from the
        /// coordinator's held tag lease without touching the network at
        /// all (0); and whether a write ran the figure's query and
        /// propagation rounds (2) or began under the coordinator's live
        /// lease, which stands in for the query (1). An operation that
        /// waited for a lease renewal counts only its own rounds, like
        /// one that waited behind another operation: a read the renewal's
        /// lease then served counts 0, and one that ran a round of its
        /// own because the renewal could not mint counts that round. The
        /// lease itself never leaves the automaton: a completion carries
        /// a value, not a right to serve it again.
        rounds: u32,
    },
}

impl Action {
    /// Convenience constructor for a broadcast: one [`Action::Send`] per
    /// destination in `0..n`, **including the sender itself** (see
    /// [`Action::Send`]).
    pub fn broadcast(n: usize, msg: &Message) -> impl Iterator<Item = Action> + '_ {
        ProcessId::all(n).map(move |to| Action::Send {
            to,
            msg: msg.clone(),
        })
    }
}

/// A deterministic process automaton.
///
/// Implementations must be pure state machines: all effects flow through
/// `out`, and identical input sequences must produce identical action
/// sequences (the simulator's reproducibility and the checkers depend on
/// it).
pub trait Automaton: Send {
    /// Handle one input event, appending resulting actions to `out` in
    /// order.
    fn on_input(&mut self, input: Input, out: &mut Vec<Action>);

    /// Whether the automaton is past its boot/recovery phase (hosts
    /// measure recovery by it). It does not gate invocations: see
    /// [`active`](Self::active).
    fn is_ready(&self) -> bool {
        true
    }

    /// The operation the automaton serves on register `reg` right now, if
    /// any. Hosts feed every invocation the moment it arrives, ready or
    /// not and busy or not; the automaton serializes the operations of
    /// each register — one at a time, the rest waiting in arrival order —
    /// and a host learns that an operation **began** when this first
    /// names it ([`crate::node::NodeCore`]). A wrapper must forward it:
    /// an automaton that names nothing has every operation begin at its
    /// completion.
    fn active(&self, reg: RegisterId) -> Option<OpId>;

    /// A short algorithm name for traces and experiment labels.
    fn algorithm(&self) -> &'static str;
}

/// Builds automata for fresh boots and for recoveries.
///
/// The runtime owns stable storage; the factory only ever sees it through
/// the [`StableSnapshot`] view, mirroring the model's rule that recovery is
/// the *only* moment volatile state can be reconstructed from stable state.
pub trait AutomatonFactory: Send + Sync {
    /// Creates the automaton for process `me` of a cluster of `n`, booting
    /// for the first time (empty stable storage).
    fn fresh(&self, me: ProcessId, n: usize) -> Box<dyn Automaton>;

    /// Creates the automaton for process `me` recovering from a crash,
    /// given everything it previously stored.
    ///
    /// `incarnation` is a runtime-supplied counter distinguishing this
    /// incarnation from all earlier ones of the same process (the
    /// simulator counts crashes; the socket runtime persists a boot
    /// counter). Automata fold it into their request nonces so that
    /// acknowledgements from a pre-crash round can never be mistaken for
    /// acknowledgements of a post-recovery round. This is transport-level
    /// plumbing, not algorithm state — it is deliberately *not* one of the
    /// algorithm's logs.
    fn recover(
        &self,
        me: ProcessId,
        n: usize,
        incarnation: u64,
        stable: &dyn StableSnapshot,
    ) -> Box<dyn Automaton>;

    /// A short algorithm name for traces and experiment labels.
    fn algorithm(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RequestId;

    #[test]
    fn broadcast_targets_every_process_including_self() {
        let msg = Message::SnReq {
            req: RequestId::new(ProcessId(1), 4),
        };
        let actions: Vec<_> = Action::broadcast(3, &msg).collect();
        assert_eq!(actions.len(), 3);
        let targets: Vec<_> = actions
            .iter()
            .map(|a| match a {
                Action::Send { to, .. } => *to,
                other => panic!("unexpected action {other:?}"),
            })
            .collect();
        assert_eq!(targets, vec![ProcessId(0), ProcessId(1), ProcessId(2)]);
    }

    #[test]
    fn hashmap_snapshot_returns_stored_bytes() {
        let mut map = std::collections::HashMap::new();
        map.insert("written".to_string(), Bytes::from_static(b"abc"));
        let snap: &dyn StableSnapshot = &map;
        assert_eq!(snap.get("written"), Some(Bytes::from_static(b"abc")));
        assert_eq!(snap.get("writing"), None);
    }

    #[test]
    fn empty_snapshot_is_empty() {
        assert_eq!(EmptySnapshot.get("anything"), None);
    }
}
