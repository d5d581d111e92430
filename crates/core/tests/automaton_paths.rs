//! Hand-driven state-machine tests of the register automaton: each test
//! plays both sides of the protocol against a single automaton instance,
//! checking phase transitions, idempotence and stale-message filtering
//! without any runtime in between.

use rmem_core::{Flavor, RegisterAutomaton};
use rmem_types::{
    Action, Automaton, EmptySnapshot, Input, Message, Micros, Op, OpId, OpResult, ProcessId,
    RequestId, TimerToken, Timestamp, Value,
};

fn p(i: u16) -> ProcessId {
    ProcessId(i)
}

fn started(flavor: Flavor) -> RegisterAutomaton {
    let mut a = RegisterAutomaton::fresh(p(0), 3, flavor, Micros(1_000));
    let mut out = Vec::new();
    a.on_input(Input::Start, &mut out);
    // Complete any initialisation stores so the replica is durable.
    for action in out.clone() {
        if let Action::Store { token, .. } = action {
            a.on_input(Input::StoreDone(token), &mut Vec::new());
        }
    }
    a
}

fn sends(out: &[Action]) -> Vec<&Message> {
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

fn first_req(out: &[Action]) -> RequestId {
    sends(out)[0].request_id()
}

fn completion(out: &[Action]) -> Option<&OpResult> {
    out.iter().find_map(|a| match a {
        Action::Complete { result, .. } => Some(result),
        _ => None,
    })
}

/// Drives a full transient write by hand: query round, then propagation,
/// checking the message sequence and the final completion.
#[test]
fn transient_write_full_exchange() {
    let mut a = started(Flavor::transient());
    let mut out = Vec::new();
    a.on_input(
        Input::Invoke {
            op: OpId::new(p(0), 0),
            operation: Op::Write(Value::from_u32(9)),
        },
        &mut out,
    );
    let query_req = first_req(&out);
    out.clear();

    // Majority of SN acks (p1 and p2; dedup tested by repeating p1).
    a.on_input(
        Input::Message {
            from: p(1),
            msg: Message::SnAck {
                req: query_req,
                seq: 4,
            },
        },
        &mut out,
    );
    assert!(out.is_empty(), "one ack is not a majority of 3");
    a.on_input(
        Input::Message {
            from: p(1),
            msg: Message::SnAck {
                req: query_req,
                seq: 4,
            },
        },
        &mut out,
    );
    assert!(out.is_empty(), "duplicate acks must not count");
    a.on_input(
        Input::Message {
            from: p(2),
            msg: Message::SnAck {
                req: query_req,
                seq: 6,
            },
        },
        &mut out,
    );
    // Propagation begins: W with seq = max(4,6) + rec(0) + 1 = 7.
    let w_sends = sends(&out);
    // Thrifty: the quorum that answered (p1 and p2) and this process.
    assert_eq!(targets(&out), [0, 1, 2]);
    let Message::Write {
        req: prop_req,
        ts,
        value,
    } = w_sends[0]
    else {
        panic!("expected W, got {}", w_sends[0])
    };
    assert_eq!(*ts, Timestamp::new(7, p(0)));
    assert_eq!(value.as_u32(), Some(9));
    assert_ne!(*prop_req, query_req, "each round gets a fresh request id");
    let prop_req = *prop_req;
    out.clear();

    // A stale SN ack from the finished round must be ignored now.
    a.on_input(
        Input::Message {
            from: p(1),
            msg: Message::SnAck {
                req: query_req,
                seq: 99,
            },
        },
        &mut out,
    );
    assert!(out.is_empty(), "stale SN ack changed state: {out:?}");

    // Majority of write acks completes the operation exactly once.
    a.on_input(
        Input::Message {
            from: p(1),
            msg: Message::WriteAck { req: prop_req },
        },
        &mut out,
    );
    assert!(completion(&out).is_none());
    a.on_input(
        Input::Message {
            from: p(2),
            msg: Message::WriteAck { req: prop_req },
        },
        &mut out,
    );
    assert_eq!(completion(&out), Some(&OpResult::Written));
    out.clear();
    a.on_input(
        Input::Message {
            from: p(0),
            msg: Message::WriteAck { req: prop_req },
        },
        &mut out,
    );
    assert!(
        completion(&out).is_none(),
        "late acks must not double-complete"
    );
}

/// A read picks the maximum-timestamp value among its quorum and writes
/// it back under a fresh request id before returning it.
#[test]
fn read_selects_max_and_writes_back() {
    let mut a = started(Flavor::persistent());
    let mut out = Vec::new();
    a.on_input(
        Input::Invoke {
            op: OpId::new(p(0), 0),
            operation: Op::Read,
        },
        &mut out,
    );
    let read_req = first_req(&out);
    out.clear();

    let old = (Timestamp::new(3, p(1)), Value::from_u32(30));
    let new = (Timestamp::new(5, p(2)), Value::from_u32(50));
    a.on_input(
        Input::Message {
            from: p(1),
            msg: Message::ReadAck {
                req: read_req,
                ts: old.0,
                value: old.1,
                durable: true,
                grant: 0,
            },
        },
        &mut out,
    );
    assert!(out.is_empty());
    a.on_input(
        Input::Message {
            from: p(2),
            msg: Message::ReadAck {
                req: read_req,
                ts: new.0,
                value: new.1.clone(),
                durable: true,
                grant: 0,
            },
        },
        &mut out,
    );
    // Write-back of the *newest* value.
    let wb = sends(&out);
    // Thrifty: the read's quorum (p1 and p2) and this process.
    assert_eq!(targets(&out), [0, 1, 2]);
    let Message::Write {
        req: wb_req,
        ts,
        value,
    } = wb[0]
    else {
        panic!("{}", wb[0])
    };
    assert_eq!(*ts, new.0);
    assert_eq!(value.as_u32(), Some(50));
    assert_ne!(*wb_req, read_req);
    let wb_req = *wb_req;
    out.clear();

    // Majority of write-back acks returns the value.
    a.on_input(
        Input::Message {
            from: p(1),
            msg: Message::WriteAck { req: wb_req },
        },
        &mut out,
    );
    a.on_input(
        Input::Message {
            from: p(2),
            msg: Message::WriteAck { req: wb_req },
        },
        &mut out,
    );
    let Some(OpResult::ReadValue(v)) = completion(&out) else {
        panic!("read must complete: {out:?}")
    };
    assert_eq!(v.as_u32(), Some(50));
}

/// The fast path: a read quorum unanimous on one durable tag completes in
/// a single round — no write-back round is broadcast, and the completion
/// reports 1 round.
#[test]
fn unanimous_durable_read_completes_in_one_round() {
    let mut a = started(Flavor::persistent());
    let mut out = Vec::new();
    a.on_input(
        Input::Invoke {
            op: OpId::new(p(0), 0),
            operation: Op::Read,
        },
        &mut out,
    );
    let read_req = first_req(&out);
    out.clear();
    for replier in [1u16, 2] {
        a.on_input(
            Input::Message {
                from: p(replier),
                msg: Message::ReadAck {
                    req: read_req,
                    ts: Timestamp::new(4, p(1)),
                    value: Value::from_u32(44),
                    durable: true,
                    grant: 0,
                },
            },
            &mut out,
        );
    }
    let Some(OpResult::ReadValue(v)) = completion(&out) else {
        panic!("fast-path read must complete: {out:?}")
    };
    assert_eq!(v.as_u32(), Some(44));
    assert!(
        sends(&out).is_empty(),
        "the write-back round must be suppressed: {out:?}"
    );
    let rounds = out
        .iter()
        .find_map(|x| match x {
            Action::Complete { rounds, .. } => Some(*rounds),
            _ => None,
        })
        .unwrap();
    assert_eq!(rounds, 1, "the completion must report the single round");
}

/// The race guard: unanimous tags that are **not** durable everywhere
/// must not trigger the fast path — a volatile tag could be forgotten by
/// a total crash, re-enabling the new-old inversion. The read falls back
/// to the full write-back.
#[test]
fn contended_volatile_tags_fall_back_to_the_write_back() {
    let mut a = started(Flavor::persistent());
    let mut out = Vec::new();
    a.on_input(
        Input::Invoke {
            op: OpId::new(p(0), 0),
            operation: Op::Read,
        },
        &mut out,
    );
    let read_req = first_req(&out);
    out.clear();
    // Both repliers agree on the tag, but one is still logging it (a
    // write races this read): no fast path.
    a.on_input(
        Input::Message {
            from: p(1),
            msg: Message::ReadAck {
                req: read_req,
                ts: Timestamp::new(4, p(1)),
                value: Value::from_u32(44),
                durable: true,
                grant: 0,
            },
        },
        &mut out,
    );
    a.on_input(
        Input::Message {
            from: p(2),
            msg: Message::ReadAck {
                req: read_req,
                ts: Timestamp::new(4, p(1)),
                value: Value::from_u32(44),
                durable: false,
                grant: 0,
            },
        },
        &mut out,
    );
    assert!(completion(&out).is_none(), "must not complete in one round");
    let wb = sends(&out);
    // Thrifty: the write-back goes to the read's quorum (p1 and p2) and
    // this process.
    assert_eq!(targets(&out), [0, 1, 2], "the write-back must be sent");
    assert!(matches!(wb[0], Message::Write { .. }));
    // The write-back quorum then completes the read with 2 rounds.
    let wb_req = wb[0].request_id();
    out.clear();
    for replier in [1u16, 2] {
        a.on_input(
            Input::Message {
                from: p(replier),
                msg: Message::WriteAck { req: wb_req },
            },
            &mut out,
        );
    }
    let Some(OpResult::ReadValue(v)) = completion(&out) else {
        panic!("fallback read must complete: {out:?}")
    };
    assert_eq!(v.as_u32(), Some(44));
    let rounds = out
        .iter()
        .find_map(|x| match x {
            Action::Complete { rounds, .. } => Some(*rounds),
            _ => None,
        })
        .unwrap();
    assert_eq!(rounds, 2);
}

/// With the fast path disabled (legacy mode / crash-stop baseline), even
/// a unanimous durable quorum pays the write-back.
#[test]
fn legacy_mode_always_writes_back() {
    for flavor in [
        Flavor::persistent().with_read_fast_path(false),
        Flavor::crash_stop(),
    ] {
        let mut a = started(flavor);
        let mut out = Vec::new();
        a.on_input(
            Input::Invoke {
                op: OpId::new(p(0), 0),
                operation: Op::Read,
            },
            &mut out,
        );
        let read_req = first_req(&out);
        out.clear();
        for replier in [1u16, 2] {
            a.on_input(
                Input::Message {
                    from: p(replier),
                    msg: Message::ReadAck {
                        req: read_req,
                        ts: Timestamp::new(4, p(1)),
                        value: Value::from_u32(44),
                        durable: true,
                        grant: 0,
                    },
                },
                &mut out,
            );
        }
        assert!(
            completion(&out).is_none(),
            "{}: legacy read must not fast-complete",
            flavor.name
        );
        assert!(
            sends(&out)
                .iter()
                .all(|m| matches!(m, Message::Write { .. })),
            "{}: the write-back must run",
            flavor.name
        );
    }
}

/// Never-written registers agree by seq: the initial tags differ in the
/// pid component across replicas, but a unanimous seq-0/⊥ quorum is just
/// as safe (⊥ cannot be new-old inverted) and completes in one round.
#[test]
fn unanimous_bottom_read_takes_the_fast_path() {
    let mut a = started(Flavor::transient());
    let mut out = Vec::new();
    a.on_input(
        Input::Invoke {
            op: OpId::new(p(0), 0),
            operation: Op::Read,
        },
        &mut out,
    );
    let read_req = first_req(&out);
    out.clear();
    for replier in [1u16, 2] {
        a.on_input(
            Input::Message {
                from: p(replier),
                msg: Message::ReadAck {
                    req: read_req,
                    // Initial tags: same seq 0, different pids.
                    ts: Timestamp::new(0, p(replier)),
                    value: Value::bottom(),
                    durable: true,
                    grant: 0,
                },
            },
            &mut out,
        );
    }
    let Some(OpResult::ReadValue(v)) = completion(&out) else {
        panic!("⊥ fast-path read must complete: {out:?}")
    };
    assert!(v.is_bottom());
    assert!(sends(&out).is_empty(), "no write-back for unanimous ⊥");
}

/// The regular register's single-round read returns straight from the
/// query quorum, with no write-back and no logging anywhere.
#[test]
fn regular_read_is_single_round() {
    let mut a = started(Flavor::regular());
    let mut out = Vec::new();
    a.on_input(
        Input::Invoke {
            op: OpId::new(p(0), 0),
            operation: Op::Read,
        },
        &mut out,
    );
    let read_req = first_req(&out);
    out.clear();
    a.on_input(
        Input::Message {
            from: p(1),
            msg: Message::ReadAck {
                req: read_req,
                ts: Timestamp::new(2, p(1)),
                value: Value::from_u32(7),
                durable: true,
                grant: 0,
            },
        },
        &mut out,
    );
    a.on_input(
        Input::Message {
            from: p(2),
            msg: Message::ReadAck {
                req: read_req,
                ts: Timestamp::new(1, p(2)),
                value: Value::from_u32(6),
                durable: true,
                grant: 0,
            },
        },
        &mut out,
    );
    let Some(OpResult::ReadValue(v)) = completion(&out) else {
        panic!("single-round read must complete: {out:?}")
    };
    assert_eq!(v.as_u32(), Some(7));
    assert!(
        !out.iter().any(|a| matches!(a, Action::Store { .. })),
        "regular reads never log"
    );
    assert!(sends(&out).is_empty(), "no write-back round");
}

/// The regular register's recovery queries a majority and re-seeds its
/// local write counter above everything seen plus the crash allowance.
#[test]
fn regular_recovery_reseeds_the_write_counter() {
    let mut a = RegisterAutomaton::recovered(
        p(0),
        3,
        Flavor::regular(),
        Micros(1_000),
        2, // third incarnation
        &EmptySnapshot,
    );
    let mut out = Vec::new();
    a.on_input(Input::Start, &mut out);
    // Phase 1: store the bumped rec counter.
    let rec_token = out
        .iter()
        .find_map(|x| match x {
            Action::Store { token, key, .. } if key == "recovered" => Some(*token),
            _ => None,
        })
        .expect("rec store");
    out.clear();
    a.on_input(Input::StoreDone(rec_token), &mut out);
    // Phase 2: SN query round.
    let q = sends(&out);
    assert_eq!(q.len(), 3);
    assert!(matches!(q[0], Message::SnReq { .. }));
    let req = q[0].request_id();
    out.clear();
    assert!(!a.is_ready());
    a.on_input(
        Input::Message {
            from: p(1),
            msg: Message::SnAck { req, seq: 10 },
        },
        &mut out,
    );
    a.on_input(
        Input::Message {
            from: p(2),
            msg: Message::SnAck { req, seq: 41 },
        },
        &mut out,
    );
    assert!(a.is_ready(), "majority of SN acks completes recovery");

    // The next write must start above 41 + rec(1) → seq ≥ 43.
    out.clear();
    a.on_input(
        Input::Invoke {
            op: OpId::new(p(0), 0),
            operation: Op::Write(Value::from_u32(1)),
        },
        &mut out,
    );
    let Message::Write { ts, .. } = sends(&out)[0] else {
        panic!()
    };
    assert!(
        ts.seq >= 43,
        "write counter must clear the observed frontier, got {}",
        ts.seq
    );
}

/// Acks addressed to someone else's rounds are ignored even when phases
/// line up — request-id origins must match.
#[test]
fn foreign_acks_are_ignored() {
    let mut a = started(Flavor::transient());
    let mut out = Vec::new();
    a.on_input(
        Input::Invoke {
            op: OpId::new(p(0), 0),
            operation: Op::Write(Value::from_u32(1)),
        },
        &mut out,
    );
    out.clear();
    // Acks with a different origin/nonce: nothing may happen.
    let foreign = RequestId::new(p(1), 12345);
    a.on_input(
        Input::Message {
            from: p(1),
            msg: Message::SnAck {
                req: foreign,
                seq: 9,
            },
        },
        &mut out,
    );
    a.on_input(
        Input::Message {
            from: p(2),
            msg: Message::SnAck {
                req: foreign,
                seq: 9,
            },
        },
        &mut out,
    );
    assert!(
        out.is_empty(),
        "foreign acks advanced the state machine: {out:?}"
    );
}

/// While an operation runs, the automaton keeps serving its replica role:
/// queries from peers get answered mid-operation.
#[test]
fn replica_role_keeps_serving_mid_operation() {
    let mut a = started(Flavor::persistent());
    let mut out = Vec::new();
    a.on_input(
        Input::Invoke {
            op: OpId::new(p(0), 0),
            operation: Op::Read,
        },
        &mut out,
    );
    out.clear();
    // A peer's own query arrives while our read is in flight.
    let peer_req = RequestId::new(p(2), 7);
    a.on_input(
        Input::Message {
            from: p(2),
            msg: Message::SnReq { req: peer_req },
        },
        &mut out,
    );
    let replies = sends(&out);
    assert_eq!(replies.len(), 1);
    assert!(matches!(replies[0], Message::SnAck { .. }));
}

/// The retransmission timer of an in-flight round rebroadcasts the same
/// request id (idempotent at replicas) and re-arms; after the round
/// completes, the stale timer does nothing.
#[test]
fn retransmission_reuses_the_request_id() {
    let mut a = started(Flavor::transient());
    let mut out = Vec::new();
    a.on_input(
        Input::Invoke {
            op: OpId::new(p(0), 0),
            operation: Op::Write(Value::from_u32(1)),
        },
        &mut out,
    );
    let req = first_req(&out);
    let timer = out
        .iter()
        .find_map(|x| match x {
            Action::SetTimer { token, .. } => Some(*token),
            _ => None,
        })
        .unwrap();
    out.clear();
    a.on_input(Input::Timer(timer), &mut out);
    let re = sends(&out);
    assert_eq!(re.len(), 3);
    assert_eq!(
        re[0].request_id(),
        req,
        "retransmission must reuse the round id"
    );
    assert!(
        out.iter().any(|x| matches!(x, Action::SetTimer { .. })),
        "must re-arm"
    );
    // An unknown/stale timer is silent.
    out.clear();
    a.on_input(Input::Timer(TimerToken(999_999)), &mut out);
    assert!(out.is_empty());
}

// -------------------------------------------------------------------
// Recovery catch-up, played by hand from both sides
// -------------------------------------------------------------------

/// The `Read` round a recovering automaton broadcast in `out`.
fn catch_up_req(out: &[Action]) -> RequestId {
    sends(out)
        .iter()
        .find_map(|m| match m {
            Message::Read { req } => Some(*req),
            _ => None,
        })
        .expect("a catch-up Read broadcast")
}

fn read_ack(req: RequestId, seq: u64, v: u32) -> Message {
    attested_ack(req, seq, v, true)
}

fn attested_ack(req: RequestId, seq: u64, v: u32, durable: bool) -> Message {
    Message::ReadAck {
        req,
        ts: Timestamp::new(seq, p(1)),
        value: Value::from_u32(v),
        durable,
        grant: 0,
    }
}

/// Feeds `msg` to `a` as coming from each of `from`.
fn deliver(a: &mut RegisterAutomaton, from: &[u16], msg: &Message, out: &mut Vec<Action>) {
    for pid in from {
        a.on_input(
            Input::Message {
                from: p(*pid),
                msg: msg.clone(),
            },
            out,
        );
    }
}

/// Lets `a`'s own replica answer `a`'s read round `req`, as the
/// runtime's self-delivery would.
fn answer_self(a: &mut RegisterAutomaton, req: RequestId, out: &mut Vec<Action>) {
    let mut answer = Vec::new();
    deliver(a, &[0], &Message::Read { req }, &mut answer);
    let [Action::Send { msg: ack, .. }] = answer.as_slice() else {
        panic!("expected the own replica's ack, got {answer:?}")
    };
    deliver(a, &[0], ack, out);
}

/// The one timer `out` armed.
fn timer_in(out: &[Action]) -> TimerToken {
    let [Action::SetTimer { token, .. }] = out[..] else {
        panic!("expected one timer, got {out:?}")
    };
    token
}

/// Completes every store `out` asked for and returns how many that was.
fn complete_stores(a: &mut RegisterAutomaton, out: &mut Vec<Action>) -> usize {
    let tokens: Vec<_> = out
        .iter()
        .filter_map(|x| match x {
            Action::Store { token, .. } => Some(*token),
            _ => None,
        })
        .collect();
    out.clear();
    for token in &tokens {
        a.on_input(Input::StoreDone(*token), out);
    }
    tokens.len()
}

/// A process whose stable records are absent (it crashed before logging
/// anything) or torn (every slot undecodable) restores the initial state
/// — and still re-learns the register from the majority that has moved
/// on, before it serves the read that was waiting: on both peers' word
/// when both vouch, else by logging it.
#[test]
fn torn_or_absent_records_still_recover_and_catch_up() {
    struct Torn;
    impl rmem_types::StableSnapshot for Torn {
        fn get(&self, _key: &str) -> Option<bytes::Bytes> {
            Some(bytes::Bytes::from_static(b"\x01torn"))
        }
    }
    let snapshots: [&dyn rmem_types::StableSnapshot; 2] = [&EmptySnapshot, &Torn];
    for flavor in [Flavor::persistent(), Flavor::transient()] {
        for (stable, vouched) in snapshots.into_iter().flat_map(|s| [(s, true), (s, false)]) {
            let ctx = format!("{} vouched={vouched}", flavor.name);
            let mut a = RegisterAutomaton::recovered(p(0), 3, flavor, Micros(1_000), 1, stable);
            let mut out = Vec::new();
            a.on_input(Input::Start, &mut out);
            assert_eq!(a.replica_timestamp().seq, 0, "{ctx}");
            let req = catch_up_req(&out);
            // The flavor's own phase (the rec counter, if any) completes.
            complete_stores(&mut a, &mut out);
            assert!(!a.is_ready());
            a.on_input(
                Input::Invoke {
                    op: OpId::new(p(0), 0),
                    operation: Op::Read,
                },
                &mut out,
            );
            assert!(out.is_empty(), "queued: {out:?}");
            // The majority is at [6,1] / 60.
            if vouched {
                // Both peers attest it durable: it is on a majority of
                // logs already, and the replica adopts it without a store.
                deliver(&mut a, &[1, 2], &read_ack(req, 6, 60), &mut out);
                assert!(a.is_ready(), "{ctx}");
                assert!(
                    !out.iter().any(|x| matches!(x, Action::Store { .. })),
                    "{ctx}: {out:?}"
                );
            } else {
                // Its own replica and p1 answer; p2, the second voucher it
                // needs, stays silent for the retransmit period it gets.
                answer_self(&mut a, req, &mut out);
                deliver(&mut a, &[1], &read_ack(req, 6, 60), &mut out);
                let wait = timer_in(&out);
                out.clear();
                a.on_input(Input::Timer(wait), &mut out);
                assert!(sends(&out).is_empty(), "{ctx}: re-sent {out:?}");
                assert!(!a.is_ready(), "{ctx}: adopted, not yet durable");
                assert_eq!(complete_stores(&mut a, &mut out), 1, "{ctx}");
                assert!(a.is_ready());
            }
            assert_eq!(a.replica_value().as_u32(), Some(60));
            // The queued read runs now and — the whole point — finds its
            // quorum unanimous: one round, no write-back.
            let read = catch_up_req(&out);
            assert_ne!(read, req);
            out.clear();
            deliver(&mut a, &[1, 2], &read_ack(read, 6, 60), &mut out);
            assert_eq!(
                completion(&out).and_then(|r| r.read_value()?.as_u32()),
                Some(60)
            );
            assert!(sends(&out).is_empty(), "no write-back: {out:?}");
        }
    }
}

/// A quorum that has never seen a write has nothing to teach, whatever
/// the pid halves of its initial tags: no store, ready after the round.
#[test]
fn catch_up_from_a_never_written_quorum_stores_nothing() {
    let mut a = RegisterAutomaton::recovered(
        p(0),
        3,
        Flavor::persistent(),
        Micros(1_000),
        1,
        &EmptySnapshot,
    );
    let mut out = Vec::new();
    a.on_input(Input::Start, &mut out);
    let req = catch_up_req(&out);
    out.clear();
    for pid in [1, 2] {
        let bottom = Message::ReadAck {
            req,
            ts: Timestamp::new(0, p(pid)),
            value: Value::bottom(),
            durable: true,
            grant: 0,
        };
        deliver(&mut a, &[pid], &bottom, &mut out);
    }
    assert!(a.is_ready());
    assert!(out.is_empty(), "{out:?}");
}

/// Under a leasing flavor a recovered replica boot-holds: for one hold
/// term it withholds every write ack and attests nothing durable. The
/// catch-up asks for no ack, so it does not wait the hold out — an idle
/// restart is ready after the round, a stale one too when both peers
/// vouch for what it missed, and after its one store when only one does
/// — while the fence keeps doing its job for everyone else's writes.
#[test]
fn catch_up_does_not_wait_out_the_lease_boot_hold() {
    let leased = Flavor::persistent().with_lease(2_000);
    let mut stable = std::collections::HashMap::new();
    let held = rmem_storage::records::WrittenRecord {
        ts: Timestamp::new(4, p(1)),
        value: Value::from_u32(40),
    };
    stable.insert("written".to_string(), held.encode());
    for (quorum_seq, p2_durable, stores) in [(4, true, 0), (6, true, 0), (6, false, 1)] {
        let ctx = format!("quorum at {quorum_seq}, p2 durable: {p2_durable}");
        let mut a = RegisterAutomaton::recovered(p(0), 3, leased, Micros(1_000), 1, &stable);
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        // The boot hold's timer, then the catch-up's broadcast and timer.
        let Some(Action::SetTimer { token: hold, after }) = out.first().cloned() else {
            panic!("expected the boot hold first: {out:?}")
        };
        assert_eq!(after, Micros(2_500));
        let req = catch_up_req(&out);
        out.clear();
        let v = 10 * quorum_seq as u32;
        deliver(&mut a, &[1], &read_ack(req, quorum_seq, v), &mut out);
        let p2_ack = attested_ack(req, quorum_seq, v, p2_durable);
        deliver(&mut a, &[2], &p2_ack, &mut out);
        assert_eq!(complete_stores(&mut a, &mut out), stores, "{ctx}");
        assert!(a.is_ready(), "{ctx}: held up by the fence");
        // The hold is still on: a peer's newer write is adopted, logged —
        // and acknowledged only once the hold timer fires.
        out.clear();
        let write = Message::Write {
            req: RequestId::new(p(1), 77),
            ts: Timestamp::new(9, p(1)),
            value: Value::from_u32(90),
        };
        deliver(&mut a, &[1], &write, &mut out);
        assert_eq!(complete_stores(&mut a, &mut out), 1);
        assert!(sends(&out).is_empty(), "fenced ack escaped: {out:?}");
        a.on_input(Input::Timer(hold), &mut out);
        assert!(matches!(sends(&out)[..], [Message::WriteAck { .. }]));
    }
}
