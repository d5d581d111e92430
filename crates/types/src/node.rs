//! The host-independent half of a node: one automaton, the operations
//! invoked at it, and when each of them begins.
//!
//! Both runtimes host an [`Automaton`] the same way — the simulator
//! (`rmem-sim`) in virtual time, the socket runtime (`rmem-net`) on real
//! threads — and a [`NodeCore`] is what they share. It feeds the
//! automaton every input, **every invocation included, the moment it
//! arrives**: the automaton itself serializes the operations of each
//! register and names the one it serves ([`Automaton::active`]). The
//! core keeps one table of the operations invoked here, begun or not,
//! each with the host's payload `P`, and hands every effect to its
//! [`Host`] as it walks the automaton's output.
//!
//! # When an operation begins
//!
//! An operation begins when the automaton first names it active, and
//! [`Host::began`] announces it at the place in the output where its own
//! actions start:
//!
//! * an operation that begins as the one ahead of it on its register
//!   completes is announced right after that one's [`Action::Complete`] —
//!   its first messages ride in its predecessor's step;
//! * any other begin — the invocation itself, or a recovery or lease
//!   renewal that freed its register — is announced before the step's
//!   first action;
//! * an operation that begins and completes within one step, or that the
//!   automaton never names, is announced at its `Complete`.
//!
//! So a host may treat `began` as "what follows is this operation's", as
//! the simulator's causal-log accounting and the runner's trace stamps
//! do, and every operation is announced before it completes.

use bytes::Bytes;

use crate::automaton::{Action, Automaton, Input, StoreToken, TimerToken};
use crate::message::Message;
use crate::op::{Op, OpId, OpResult, RegisterId};
use crate::process::ProcessId;
use crate::Micros;

/// The effects a [`NodeCore`] asks of its runtime, in output order.
pub trait Host<P> {
    /// Send `msg` to `to`. For a request, `op` is the payload of the
    /// operation this node runs on the request's register, if one has
    /// begun there.
    fn send(&mut self, to: ProcessId, msg: Message, op: Option<&P>);

    /// Store `bytes` under `key`, then feed back [`Input::StoreDone`].
    fn store(&mut self, token: StoreToken, key: String, bytes: Bytes);

    /// Feed back [`Input::Timer`] once `after` elapsed.
    fn arm_timer(&mut self, token: TimerToken, after: Micros);

    /// Operation `op` on `reg` begins: what follows in this step is its.
    fn began(&mut self, op: OpId, reg: RegisterId, payload: &mut P);

    /// Operation `op` completed with `result` after `rounds` quorum
    /// round-trips; the core forgets it.
    fn completed(&mut self, op: OpId, payload: P, result: OpResult, rounds: u32);

    /// The automaton reports ready for the first time in this
    /// incarnation.
    fn ready(&mut self);
}

/// An operation invoked at this node and not completed yet.
struct Invoked<P> {
    op: OpId,
    reg: RegisterId,
    begun: bool,
    payload: P,
}

/// One incarnation of a node's automaton and the operations invoked at
/// it (see the [module docs](self)).
pub struct NodeCore<P> {
    automaton: Box<dyn Automaton>,
    /// Every invoked operation not completed yet, in arrival order.
    ops: Vec<Invoked<P>>,
    ready: bool,
}

impl<P> NodeCore<P> {
    /// Hosts `automaton`, which is yet to be fed [`Input::Start`].
    pub fn new(automaton: Box<dyn Automaton>) -> Self {
        NodeCore {
            automaton,
            ops: Vec::new(),
            ready: false,
        }
    }

    /// Invokes `operation` as `op`, carrying `payload` until it
    /// completes. It is fed at once; whether it begins now is the
    /// automaton's call.
    pub fn invoke(&mut self, host: &mut impl Host<P>, op: OpId, operation: Op, payload: P) {
        self.ops.push(Invoked {
            op,
            reg: operation.register(),
            begun: false,
            payload,
        });
        self.feed(host, Input::Invoke { op, operation });
    }

    /// Feeds one input other than an invocation (see
    /// [`invoke`](Self::invoke)) and hands its effects to `host`.
    pub fn feed(&mut self, host: &mut impl Host<P>, input: Input) {
        let mut out = Vec::new();
        self.automaton.on_input(input, &mut out);
        // What this step began and the automaton still serves, placed
        // after the last `Complete` on its register — the one it waited
        // for — or, if the step has none, before everything.
        let reg_of = |op| self.ops.iter().find(|e| e.op == op).map(|e| e.reg);
        let after = |reg| {
            let on_reg =
                |a: &Action| matches!(a, Action::Complete { op, .. } if reg_of(*op) == Some(reg));
            out.iter().rposition(on_reg)
        };
        let begun: Vec<_> = (self.ops.iter())
            .filter(|e| !e.begun && self.automaton.active(e.reg) == Some(e.op))
            .map(|e| (after(e.reg), e.op))
            .collect();
        self.announce(host, &begun, None);
        for (i, action) in out.into_iter().enumerate() {
            match action {
                Action::Send { to, msg } => {
                    let reg = msg.request_id().reg;
                    let op = (msg.is_request())
                        .then(|| self.ops.iter().find(|e| e.begun && e.reg == reg))
                        .flatten();
                    host.send(to, msg, op.map(|e| &e.payload));
                }
                Action::Store { token, key, bytes } => host.store(token, key, bytes),
                Action::SetTimer { token, after } => host.arm_timer(token, after),
                Action::Complete { op, result, rounds } => {
                    if let Some(at) = self.ops.iter().position(|e| e.op == op) {
                        let mut done = self.ops.remove(at);
                        if !done.begun {
                            host.began(op, done.reg, &mut done.payload);
                        }
                        host.completed(op, done.payload, result, rounds);
                    }
                    self.announce(host, &begun, Some(i));
                }
            }
        }
        if !self.ready && self.automaton.is_ready() {
            self.ready = true;
            host.ready();
        }
    }

    /// Announces the begins placed `at` an action of the step.
    fn announce(
        &mut self,
        host: &mut impl Host<P>,
        begun: &[(Option<usize>, OpId)],
        at: Option<usize>,
    ) {
        for &(_, op) in begun.iter().filter(|(after, _)| *after == at) {
            if let Some(e) = self.ops.iter_mut().find(|e| e.op == op) {
                e.begun = true;
                host.began(op, e.reg, &mut e.payload);
            }
        }
    }

    /// The operation begun on `reg`, if one is.
    pub fn active(&self, reg: RegisterId) -> Option<OpId> {
        (self.ops.iter())
            .find(|e| e.begun && e.reg == reg)
            .map(|e| e.op)
    }

    /// Whether an operation on `reg` is invoked here, begun or not.
    pub fn busy(&self, reg: RegisterId) -> bool {
        self.ops.iter().any(|e| e.reg == reg)
    }

    /// How many operations have begun and not completed.
    pub fn in_flight(&self) -> usize {
        self.ops.iter().filter(|e| e.begun).count()
    }

    /// How many invoked operations have not begun: invoked minus begun.
    pub fn queued(&self) -> usize {
        self.ops.iter().filter(|e| !e.begun).count()
    }

    /// Whether nothing is invoked here and the automaton is ready.
    pub fn is_idle(&self) -> bool {
        self.ops.is_empty() && self.automaton.is_ready()
    }

    /// Ends the incarnation — a crash or a shutdown — handing back every
    /// operation it leaves unanswered: those begun, by register, then
    /// those queued, in arrival order.
    pub fn lose(self) -> Vec<(OpId, P)> {
        let (mut begun, queued): (Vec<_>, Vec<_>) = self.ops.into_iter().partition(|e| e.begun);
        begun.sort_by_key(|e| e.reg);
        (begun.into_iter().chain(queued))
            .map(|e| (e.op, e.payload))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RequestId;
    use crate::op::OpKind;
    use crate::value::Value;
    use std::collections::{BTreeMap, VecDeque};

    /// A scripted memory: per register one operation at a time, the rest
    /// waiting in arrival order, and nothing served until it is ready. A
    /// write sends one request and completes when any message on its
    /// register comes in; a read completes the moment it begins. The
    /// first timer makes it ready, after a store. `named` says whether
    /// `active` names what it serves.
    struct Fifo {
        ready: bool,
        named: bool,
        waiting: BTreeMap<RegisterId, VecDeque<(OpId, Op)>>,
        serving: BTreeMap<RegisterId, OpId>,
    }

    impl Fifo {
        fn serve(&mut self, reg: RegisterId, out: &mut Vec<Action>) {
            while self.ready && !self.serving.contains_key(&reg) {
                let Some((op, operation)) =
                    self.waiting.get_mut(&reg).and_then(VecDeque::pop_front)
                else {
                    return;
                };
                if operation.kind() == OpKind::Read {
                    let result = OpResult::ReadValue(Value::bottom());
                    out.push(Action::Complete {
                        op,
                        result,
                        rounds: 0,
                    });
                } else {
                    let mut req = RequestId::new(ProcessId(0), op.counter);
                    req.reg = reg;
                    let msg = Message::SnReq { req };
                    out.push(Action::Send {
                        to: ProcessId(1),
                        msg,
                    });
                    self.serving.insert(reg, op);
                }
            }
        }
    }

    impl Automaton for Fifo {
        fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
            match input {
                Input::Invoke { op, operation } => {
                    let reg = operation.register();
                    let queue = self.waiting.entry(reg).or_default();
                    queue.push_back((op, operation));
                    self.serve(reg, out);
                }
                Input::Message { msg, .. } => {
                    let reg = msg.request_id().reg;
                    if let Some(op) = self.serving.remove(&reg) {
                        let result = OpResult::Written;
                        out.push(Action::Complete {
                            op,
                            result,
                            rounds: 1,
                        });
                    }
                    self.serve(reg, out);
                }
                Input::Timer(_) => {
                    out.push(Action::Store {
                        token: StoreToken(0),
                        key: "ready".into(),
                        bytes: Bytes::new(),
                    });
                    self.ready = true;
                    let regs: Vec<_> = self.waiting.keys().copied().collect();
                    for reg in regs {
                        self.serve(reg, out);
                    }
                }
                Input::Start | Input::StoreDone(_) => {}
            }
        }

        fn is_ready(&self) -> bool {
            self.ready
        }

        fn active(&self, reg: RegisterId) -> Option<OpId> {
            self.serving.get(&reg).copied().filter(|_| self.named)
        }

        fn algorithm(&self) -> &'static str {
            "fifo"
        }
    }

    /// Every effect, in the order the core handed it over.
    #[derive(Default)]
    struct Log(Vec<String>);

    impl Host<&'static str> for Log {
        fn send(&mut self, _to: ProcessId, msg: Message, op: Option<&&'static str>) {
            let reg = msg.request_id().reg.0;
            self.0
                .push(format!("send r{reg} for {}", op.unwrap_or(&"-")));
        }

        fn store(&mut self, _token: StoreToken, key: String, _bytes: Bytes) {
            self.0.push(format!("store {key}"));
        }

        fn arm_timer(&mut self, _token: TimerToken, _after: Micros) {
            self.0.push("timer".into());
        }

        fn began(&mut self, _op: OpId, reg: RegisterId, label: &mut &'static str) {
            self.0.push(format!("began {label} on r{}", reg.0));
        }

        fn completed(&mut self, _op: OpId, label: &'static str, _: OpResult, _: u32) {
            self.0.push(format!("completed {label}"));
        }

        fn ready(&mut self) {
            self.0.push("ready".into());
        }
    }

    /// A started core over a [`Fifo`], and the log of what it did since.
    fn started(ready: bool, named: bool) -> (NodeCore<&'static str>, Log) {
        let fifo = Fifo {
            ready,
            named,
            waiting: BTreeMap::new(),
            serving: BTreeMap::new(),
        };
        let mut core = NodeCore::new(Box::new(fifo));
        let mut log = Log::default();
        core.feed(&mut log, Input::Start);
        log.0.clear();
        (core, log)
    }

    fn op(n: u64) -> OpId {
        OpId::new(ProcessId(0), n)
    }

    fn write(reg: u16) -> Op {
        Op::WriteAt(RegisterId(reg), Value::from_u32(1))
    }

    /// The answer to the request on `reg`.
    fn answer(reg: u16) -> Input {
        let mut req = RequestId::new(ProcessId(0), 0);
        req.reg = RegisterId(reg);
        let msg = Message::SnReq { req };
        Input::Message {
            from: ProcessId(1),
            msg,
        }
    }

    #[test]
    fn a_successor_is_announced_right_after_its_predecessors_complete() {
        let (mut core, mut log) = started(true, true);
        core.invoke(&mut log, op(0), write(3), "w0");
        core.invoke(&mut log, op(1), write(3), "w1");
        assert_eq!((core.in_flight(), core.queued()), (1, 1));
        assert_eq!(core.active(RegisterId(3)), Some(op(0)));
        core.feed(&mut log, answer(3));
        let expected = [
            "began w0 on r3",
            "send r3 for w0",
            "completed w0",
            "began w1 on r3",
            "send r3 for w1",
        ];
        assert_eq!(log.0, expected);
        assert_eq!((core.in_flight(), core.queued()), (1, 0));
    }

    #[test]
    fn a_begin_that_completes_nothing_is_announced_before_the_first_action() {
        let (mut core, mut log) = started(false, true);
        core.invoke(&mut log, op(0), write(3), "w0");
        assert!(log.0.is_empty(), "waits for readiness: {:?}", log.0);
        assert_eq!(core.queued(), 1);
        assert!(core.busy(RegisterId(3)) && !core.is_idle());
        core.feed(&mut log, Input::Timer(TimerToken(0)));
        let expected = ["began w0 on r3", "store ready", "send r3 for w0", "ready"];
        assert_eq!(log.0, expected);
    }

    #[test]
    fn an_operation_begun_and_completed_in_one_step_is_announced_at_its_complete() {
        let (mut core, mut log) = started(true, true);
        core.invoke(&mut log, op(0), write(3), "w0");
        core.invoke(&mut log, op(1), Op::ReadAt(RegisterId(3)), "r1");
        core.invoke(&mut log, op(2), write(3), "w2");
        log.0.clear();
        core.feed(&mut log, answer(3));
        let expected = [
            "completed w0",
            "began r1 on r3",
            "completed r1",
            "began w2 on r3",
            "send r3 for w2",
        ];
        assert_eq!(log.0, expected);
        // A read that begins on arrival ends in the same step.
        log.0.clear();
        core.invoke(&mut log, op(3), Op::ReadAt(RegisterId(4)), "r3");
        assert_eq!(log.0, ["began r3 on r4", "completed r3"]);
    }

    #[test]
    fn an_operation_never_named_active_still_completes() {
        let (mut core, mut log) = started(true, false);
        core.invoke(&mut log, op(0), write(3), "w0");
        assert_eq!(core.queued(), 1, "not begun as far as the host knows");
        core.feed(&mut log, answer(3));
        let expected = ["send r3 for -", "began w0 on r3", "completed w0"];
        assert_eq!(log.0, expected);
        assert!(core.is_idle());
    }

    #[test]
    fn losing_the_node_hands_back_the_begun_by_register_then_the_queued_in_arrival_order() {
        let (mut core, mut log) = started(true, true);
        let invoked = [(5, "w0"), (5, "w1"), (2, "w2"), (5, "w3"), (2, "w4")];
        for (n, (reg, label)) in invoked.into_iter().enumerate() {
            core.invoke(&mut log, op(n as u64), write(reg), label);
        }
        let lost: Vec<_> = core.lose().into_iter().map(|(_, label)| label).collect();
        assert_eq!(lost, ["w2", "w0", "w1", "w3", "w4"]);
    }
}
