//! Multi-register shared memory: the paper's title abstraction.
//!
//! The algorithms of Figs. 4–5 emulate one register. A *shared memory* is
//! an addressable array of them, and the emulations compose perfectly:
//! each register runs its own independent instance of the algorithm
//! (quorums, timestamps and logs per register), and by the **locality** of
//! linearizability the composed memory satisfies the criterion iff every
//! register does — which is exactly how the checkers certify it
//! (`rmem_consistency` partitions multi-register histories).
//!
//! [`SharedMemoryAutomaton`] hosts one [`RegisterAutomaton`] per
//! [`RegisterId`], created lazily on first use, and routes by:
//!
//! * the register address of invocations ([`rmem_types::Op::ReadAt`]/[`rmem_types::Op::WriteAt`]);
//! * the `reg` component of [`rmem_types::RequestId`]s on the wire;
//! * a namespace bit-field in store/timer tokens;
//! * a `@r<id>` suffix on stable-storage slot names.
//!
//! The inner automatons are entirely unaware of each other — the wrapper
//! rewrites these four coordinates at the boundary, so the single-register
//! implementation stays exactly the paper's algorithm. The one thing they
//! share is where a thrifty round goes first ([`crate::generic`] module
//! docs): the node keeps one [`Preferred`] and lends it to each register
//! it feeds, so every register learns from the node's latest quorum.

use std::collections::BTreeMap;

use bytes::Bytes;
use rmem_types::{
    Action, Automaton, AutomatonFactory, Input, Message, Micros, OpId, ProcessId, RegisterId,
    StableSnapshot, StoreToken, TimerToken,
};

use crate::flavor::Flavor;
use crate::generic::RegisterAutomaton;
use crate::quorum::Preferred;

/// Bits reserved for the per-register token counter; the register id
/// lives above them.
const TOKEN_BITS: u32 = 40;
const TOKEN_MASK: u64 = (1 << TOKEN_BITS) - 1;

fn scope_token(reg: RegisterId, token: u64) -> u64 {
    debug_assert!(token <= TOKEN_MASK, "inner token overflow");
    ((reg.0 as u64) << TOKEN_BITS) | token
}

fn unscope_token(token: u64) -> (RegisterId, u64) {
    (RegisterId((token >> TOKEN_BITS) as u16), token & TOKEN_MASK)
}

/// Scopes a stable-slot name to a register. Register 0 keeps the bare
/// paper names, so a single-register deployment's storage is readable by
/// both the plain and the memory automaton.
fn scope_key(reg: RegisterId, key: &str) -> String {
    if reg == RegisterId::ZERO {
        key.to_string()
    } else {
        format!("{key}@r{}", reg.0)
    }
}

/// Extracts the register a scoped slot name belongs to.
fn key_register(key: &str) -> RegisterId {
    match key.rsplit_once("@r") {
        Some((_, reg)) => reg.parse().map(RegisterId).unwrap_or(RegisterId::ZERO),
        None => RegisterId::ZERO,
    }
}

/// A read-only view of one register's slice of a stable snapshot,
/// presenting scoped slot names under their bare paper names.
struct ScopedSnapshot<'a> {
    reg: RegisterId,
    inner: &'a dyn StableSnapshot,
}

impl StableSnapshot for ScopedSnapshot<'_> {
    fn get(&self, key: &str) -> Option<Bytes> {
        self.inner.get(&scope_key(self.reg, key))
    }
}

/// The multi-register shared-memory automaton (see module docs).
pub struct SharedMemoryAutomaton {
    me: ProcessId,
    n: usize,
    flavor: Flavor,
    retransmit: Micros,
    /// `None` for a fresh boot; `Some(incarnation)` for a recovered one —
    /// registers created lazily after recovery also get crash-safe
    /// construction (disjoint nonces, recovery bookkeeping).
    incarnation: Option<u64>,
    registers: BTreeMap<RegisterId, RegisterAutomaton>,
    /// The node's one thrifty-round preference, lent to whichever register
    /// is being fed: a peer that stops answering costs this node one
    /// retransmission period, not one per register.
    preferred: Preferred,
    started: bool,
}

impl std::fmt::Debug for SharedMemoryAutomaton {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMemoryAutomaton")
            .field("me", &self.me)
            .field("flavor", &self.flavor.name)
            .field("registers", &self.registers.len())
            .finish()
    }
}

impl SharedMemoryAutomaton {
    /// Builds a fresh shared memory (no registers yet; they appear on
    /// first use).
    pub fn fresh(me: ProcessId, n: usize, flavor: Flavor, retransmit: Micros) -> Self {
        SharedMemoryAutomaton {
            me,
            n,
            flavor,
            retransmit,
            incarnation: None,
            registers: BTreeMap::new(),
            preferred: Preferred::new(me),
            started: false,
        }
    }

    /// Rebuilds a shared memory from a stable snapshot: every register
    /// with stable state is recovered eagerly (it must re-run its
    /// recovery procedure before serving).
    pub fn recovered(
        me: ProcessId,
        n: usize,
        flavor: Flavor,
        retransmit: Micros,
        incarnation: u64,
        stable: &dyn StableSnapshot,
    ) -> Self {
        let mut regs: std::collections::BTreeSet<RegisterId> = std::collections::BTreeSet::new();
        for key in stable.keys() {
            if !key.starts_with('_') {
                regs.insert(key_register(&key));
            }
        }
        let registers = regs
            .into_iter()
            .map(|reg| {
                let scoped = ScopedSnapshot { reg, inner: stable };
                let inner =
                    RegisterAutomaton::recovered(me, n, flavor, retransmit, incarnation, &scoped);
                (reg, inner)
            })
            .collect();
        SharedMemoryAutomaton {
            me,
            n,
            flavor,
            retransmit,
            incarnation: Some(incarnation),
            registers,
            preferred: Preferred::new(me),
            started: false,
        }
    }

    /// Number of instantiated registers.
    pub fn register_count(&self) -> usize {
        self.registers.len()
    }

    /// Translates one inner action into the outer coordinate space.
    fn translate_out(reg: RegisterId, action: Action) -> Action {
        match action {
            Action::Send { to, msg } => Action::Send {
                to,
                msg: readdress(msg, reg),
            },
            Action::Store { token, key, bytes } => Action::Store {
                token: StoreToken(scope_token(reg, token.0)),
                key: scope_key(reg, &key),
                bytes,
            },
            Action::SetTimer { token, after } => Action::SetTimer {
                token: TimerToken(scope_token(reg, token.0)),
                after,
            },
            complete @ Action::Complete { .. } => complete,
        }
    }

    /// Feeds `input` to the register automaton for `reg`, creating it if
    /// this is the register's first appearance, and translates the
    /// resulting actions.
    fn feed(&mut self, reg: RegisterId, input: Input, out: &mut Vec<Action>) {
        if !self.registers.contains_key(&reg) {
            let inner = match self.incarnation {
                None => RegisterAutomaton::fresh(self.me, self.n, self.flavor, self.retransmit),
                // A register first seen after a crash may have had
                // volatile-only state before it; crash-safe construction
                // (recovery procedure against an empty snapshot) covers
                // the transient algorithm's rec counter and keeps nonce
                // ranges disjoint. It may also have been created and
                // written while this node was down: the recovery path's
                // catch-up re-learns it from a majority now that
                // something has named it.
                Some(inc) => RegisterAutomaton::recovered(
                    self.me,
                    self.n,
                    self.flavor,
                    self.retransmit,
                    inc,
                    &rmem_types::EmptySnapshot,
                ),
            };
            self.registers.insert(reg, inner);
            if self.started {
                self.feed_known(reg, Input::Start, out);
            }
        }
        self.feed_known(reg, input, out);
    }

    /// Feeds `input` to the existing register `reg`, lending it the
    /// node's preference for the duration.
    fn feed_known(&mut self, reg: RegisterId, input: Input, out: &mut Vec<Action>) {
        let inner = self.registers.get_mut(&reg).expect("an existing register");
        std::mem::swap(inner.preferred_mut(), &mut self.preferred);
        let mut actions = Vec::new();
        inner.on_input(input, &mut actions);
        std::mem::swap(inner.preferred_mut(), &mut self.preferred);
        out.extend(actions.into_iter().map(|a| Self::translate_out(reg, a)));
    }
}

/// Rewrites the request id's register component of a message.
fn readdress(mut msg: Message, reg: RegisterId) -> Message {
    msg.request_id_mut().reg = reg;
    msg
}

impl Automaton for SharedMemoryAutomaton {
    fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
        match input {
            Input::Start => {
                self.started = true;
                let regs: Vec<RegisterId> = self.registers.keys().copied().collect();
                for reg in regs {
                    self.feed(reg, Input::Start, out);
                }
            }
            Input::Invoke { op, operation } => {
                let reg = operation.register();
                let normalized = operation.normalized();
                self.feed(
                    reg,
                    Input::Invoke {
                        op,
                        operation: normalized,
                    },
                    out,
                );
            }
            Input::Message { from, msg } => {
                let reg = msg.request_id().reg;
                let inner_msg = readdress(msg, RegisterId::ZERO);
                self.feed(
                    reg,
                    Input::Message {
                        from,
                        msg: inner_msg,
                    },
                    out,
                );
            }
            Input::StoreDone(token) => {
                let (reg, inner) = unscope_token(token.0);
                if self.registers.contains_key(&reg) {
                    self.feed(reg, Input::StoreDone(StoreToken(inner)), out);
                }
            }
            Input::Timer(token) => {
                let (reg, inner) = unscope_token(token.0);
                if self.registers.contains_key(&reg) {
                    self.feed(reg, Input::Timer(TimerToken(inner)), out);
                }
            }
        }
    }

    fn is_ready(&self) -> bool {
        self.registers.values().all(|r| r.is_ready())
    }

    fn active(&self, reg: RegisterId) -> Option<OpId> {
        self.registers.get(&reg)?.active(RegisterId::ZERO)
    }

    fn algorithm(&self) -> &'static str {
        memory_name(self.flavor)
    }
}

fn memory_name(flavor: Flavor) -> &'static str {
    match flavor.name {
        "persistent" => "persistent-memory",
        "transient" => "transient-memory",
        "crash-stop" => "crash-stop-memory",
        "regular" => "regular-memory",
        _ => "memory",
    }
}

/// Factory for shared-memory automata of one flavor.
///
/// # Example
///
/// ```
/// use rmem_core::{SharedMemory, Transient};
/// use rmem_types::AutomatonFactory;
///
/// let factory = SharedMemory::factory(Transient::flavor());
/// let memory = factory.fresh(rmem_types::ProcessId(0), 3);
/// assert_eq!(memory.algorithm(), "transient-memory");
/// ```
#[derive(Debug, Clone)]
pub struct SharedMemory {
    flavor: Flavor,
    retransmit: Micros,
}

impl SharedMemory {
    /// A factory producing shared memories running `flavor` per register,
    /// with the default retransmission period.
    pub fn factory(flavor: Flavor) -> std::sync::Arc<SharedMemory> {
        std::sync::Arc::new(SharedMemory {
            flavor,
            retransmit: crate::DEFAULT_RETRANSMIT,
        })
    }

    /// As [`factory`](Self::factory) with a custom retransmission period.
    pub fn factory_with_retransmit(
        flavor: Flavor,
        retransmit: Micros,
    ) -> std::sync::Arc<SharedMemory> {
        std::sync::Arc::new(SharedMemory { flavor, retransmit })
    }

    /// The per-register flavor.
    pub fn flavor(&self) -> Flavor {
        self.flavor
    }
}

impl AutomatonFactory for SharedMemory {
    fn fresh(&self, me: ProcessId, n: usize) -> Box<dyn Automaton> {
        Box::new(SharedMemoryAutomaton::fresh(
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
        Box::new(SharedMemoryAutomaton::recovered(
            me,
            n,
            self.flavor,
            self.retransmit,
            incarnation,
            stable,
        ))
    }

    fn algorithm(&self) -> &'static str {
        memory_name(self.flavor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_types::{Op, OpId, OpResult, Value};

    fn p(i: u16) -> ProcessId {
        ProcessId(i)
    }

    fn r(i: u16) -> RegisterId {
        RegisterId(i)
    }

    #[test]
    fn token_scoping_roundtrips() {
        for reg in [0u16, 1, 7, 65535] {
            for token in [0u64, 1, TOKEN_MASK] {
                let scoped = scope_token(r(reg), token);
                assert_eq!(unscope_token(scoped), (r(reg), token));
            }
        }
    }

    #[test]
    fn key_scoping_roundtrips_and_register_zero_is_bare() {
        assert_eq!(scope_key(r(0), "written"), "written");
        assert_eq!(scope_key(r(3), "written"), "written@r3");
        assert_eq!(key_register("written"), r(0));
        assert_eq!(key_register("written@r3"), r(3));
        assert_eq!(key_register("recovered@r12"), r(12));
    }

    #[test]
    fn invocations_create_registers_lazily() {
        let mut mem = SharedMemoryAutomaton::fresh(p(0), 3, Flavor::transient(), Micros(1_000));
        let mut out = Vec::new();
        mem.on_input(Input::Start, &mut out);
        assert_eq!(mem.register_count(), 0);
        mem.on_input(
            Input::Invoke {
                op: OpId::new(p(0), 0),
                operation: Op::WriteAt(r(5), Value::from_u32(1)),
            },
            &mut out,
        );
        assert_eq!(mem.register_count(), 1);
        // The broadcast carries the register in its request ids.
        let send_regs: Vec<RegisterId> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send { msg, .. } => Some(msg.request_id().reg),
                _ => None,
            })
            .collect();
        assert!(!send_regs.is_empty());
        assert!(send_regs.iter().all(|reg| *reg == r(5)), "{send_regs:?}");
    }

    #[test]
    fn stores_are_scoped_per_register() {
        let mut mem = SharedMemoryAutomaton::fresh(p(0), 1, Flavor::transient(), Micros(1_000));
        let mut out = Vec::new();
        mem.on_input(Input::Start, &mut out);
        out.clear();
        // n=1: the write self-completes; drive the whole exchange by
        // feeding back our own sends and store completions.
        mem.on_input(
            Input::Invoke {
                op: OpId::new(p(0), 0),
                operation: Op::WriteAt(r(2), Value::from_u32(9)),
            },
            &mut out,
        );
        let mut store_keys = Vec::new();
        let mut i = 0;
        // Run the action loop to quiescence (self-delivery).
        while i < out.len() {
            let action = out[i].clone();
            i += 1;
            match action {
                Action::Send { to, msg } if to == p(0) => {
                    let mut more = Vec::new();
                    mem.on_input(Input::Message { from: p(0), msg }, &mut more);
                    out.extend(more);
                }
                Action::Store { token, key, .. } => {
                    store_keys.push(key.clone());
                    let mut more = Vec::new();
                    mem.on_input(Input::StoreDone(token), &mut more);
                    out.extend(more);
                }
                _ => {}
            }
        }
        assert!(
            store_keys.iter().any(|k| k.ends_with("@r2")),
            "stores must be scoped: {store_keys:?}"
        );
        assert!(
            out.iter().any(|a| matches!(
                a,
                Action::Complete {
                    result: OpResult::Written,
                    ..
                }
            )),
            "the single-process write must complete: {out:?}"
        );
    }

    #[test]
    fn recovery_rediscovers_registers_from_scoped_keys() {
        let mut stable = std::collections::HashMap::new();
        let record = rmem_storage::records::WrittenRecord {
            ts: rmem_types::Timestamp::new(4, p(0)),
            value: Value::from_u32(44),
        };
        stable.insert("written".to_string(), record.encode()); // register 0
        stable.insert("written@r9".to_string(), record.encode()); // register 9
        stable.insert("_boot_count".to_string(), Bytes::from_static(b"x")); // infra: ignored
        let mem = SharedMemoryAutomaton::recovered(
            p(0),
            3,
            Flavor::transient(),
            Micros(1_000),
            1,
            &stable,
        );
        assert_eq!(mem.register_count(), 2);
    }

    #[test]
    fn ready_only_when_all_registers_recovered() {
        let mut stable = std::collections::HashMap::new();
        let record = rmem_storage::records::WrittenRecord {
            ts: rmem_types::Timestamp::new(4, p(0)),
            value: Value::from_u32(44),
        };
        stable.insert("written@r1".to_string(), record.encode());
        let mut mem = SharedMemoryAutomaton::recovered(
            p(0),
            3,
            Flavor::transient(),
            Micros(1_000),
            1,
            &stable,
        );
        let mut out = Vec::new();
        mem.on_input(Input::Start, &mut out);
        // Transient recovery stores its rec counter before readiness …
        assert!(!mem.is_ready());
        let token = out
            .iter()
            .find_map(|a| match a {
                Action::Store { token, key, .. } if key.starts_with("recovered") => Some(*token),
                _ => None,
            })
            .expect("rec-counter store");
        let catch_up = catch_up_req(&out);
        assert_eq!(catch_up.reg, r(1));
        out.clear();
        mem.on_input(Input::StoreDone(token), &mut out);
        // … and re-learns the register from a majority.
        assert!(!mem.is_ready());
        read_acks(&mut mem, catch_up, record.ts, [true; 2], &mut out);
        assert!(mem.is_ready());
    }

    /// The `Read` round a recovering register broadcast in `out`.
    fn catch_up_req(out: &[Action]) -> rmem_types::RequestId {
        out.iter()
            .find_map(|a| match a {
                Action::Send {
                    msg: Message::Read { req },
                    ..
                } => Some(*req),
                _ => None,
            })
            .expect("a catch-up Read broadcast")
    }

    /// Answers the read round `req` from p1 and p2 with `ts`, attested
    /// durable as `durable` says.
    fn read_acks(
        mem: &mut SharedMemoryAutomaton,
        req: rmem_types::RequestId,
        ts: rmem_types::Timestamp,
        durable: [bool; 2],
        out: &mut Vec<Action>,
    ) {
        for (pid, durable) in [1, 2].into_iter().zip(durable) {
            mem.on_input(
                Input::Message {
                    from: p(pid),
                    msg: Message::ReadAck {
                        req,
                        ts,
                        value: Value::from_u32(44),
                        durable,
                        grant: 0,
                    },
                },
                out,
            );
        }
    }

    /// The decision the catch-up left open, pinned: a register first seen
    /// *after* a recovery — created while this node was down, or brand
    /// new — is built by the recovery path and so runs the catch-up like
    /// any other. The node cannot know it missed the register until
    /// something names it; from then on it is repaired, not left to
    /// whichever read happens to write back.
    #[test]
    fn a_register_first_seen_after_recovery_catches_up_too() {
        let peer_req = rmem_types::RequestId::for_register(p(1), 5, r(7));
        // p2 attests the tag it reports volatile, then durable.
        for p2_durable in [false, true] {
            let mut mem = SharedMemoryAutomaton::recovered(
                p(0),
                3,
                Flavor::persistent(),
                Micros(1_000),
                1,
                &rmem_types::EmptySnapshot,
            );
            let mut out = Vec::new();
            mem.on_input(Input::Start, &mut out);
            assert!(mem.is_ready() && out.is_empty(), "no registers yet");
            // A peer's read query names register 7 for the first time.
            mem.on_input(
                Input::Message {
                    from: p(1),
                    msg: Message::Read { req: peer_req },
                },
                &mut out,
            );
            assert_eq!(mem.register_count(), 1);
            assert!(!mem.is_ready());
            // The replica role answers the peer at once, with what it has …
            assert!(out.iter().any(|a| matches!(
                a,
                Action::Send { to, msg: Message::ReadAck { req, ts, .. } }
                    if *to == p(1) && *req == peer_req && ts.seq == 0
            )));
            // … and the register asks a majority what it missed.
            let catch_up = catch_up_req(&out);
            assert_eq!(catch_up.reg, r(7));
            out.clear();
            read_acks(
                &mut mem,
                catch_up,
                rmem_types::Timestamp::new(4, p(2)),
                [true, p2_durable],
                &mut out,
            );
            if p2_durable {
                // Two vouchers, a majority of others: adopted as durable,
                // no store.
                assert!(out.is_empty(), "{out:?}");
                assert!(mem.is_ready());
                continue;
            }
            // One voucher, and nobody else left to ask: logged at once.
            let [Action::Store { token, key, .. }] = out.as_slice() else {
                panic!("expected exactly the adoption store, got {out:?}")
            };
            assert_eq!(key, "written@r7");
            assert!(!mem.is_ready());
            mem.on_input(Input::StoreDone(*token), &mut Vec::new());
            assert!(mem.is_ready());
        }

        // A fresh boot has nothing to catch up on, lazily or otherwise.
        let mut mem = SharedMemoryAutomaton::fresh(p(0), 3, Flavor::persistent(), Micros(1_000));
        let mut out = Vec::new();
        mem.on_input(Input::Start, &mut out);
        mem.on_input(
            Input::Message {
                from: p(1),
                msg: Message::Read { req: peer_req },
            },
            &mut out,
        );
        assert!(mem.is_ready());
        assert!(!out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Message::Read { .. },
                ..
            }
        )));
    }
}
