//! Real-runtime fast-path coverage: mixed readers and writers on real
//! threads through `LocalCluster`, with per-register atomicity checked by
//! `rmem_consistency::check_per_register` and the observed read-round
//! counts proving the one-round fast path fires on quiescent registers
//! while contended reads still fall back.

use std::sync::Mutex;

use proptest::prelude::*;
use rmem_core::{SharedMemory, Transient};
use rmem_net::LocalCluster;
use rmem_types::{Op, OpResult, ProcessId, RegisterId, Value};

/// One generated client stream: which register each operation touches and
/// whether it writes.
#[derive(Debug, Clone)]
struct ClientPlan {
    node: u16,
    ops: Vec<(u16, bool)>,
}

fn arb_plans() -> impl Strategy<Value = Vec<ClientPlan>> {
    // 3 clients × up to 8 ops over 3 registers; bias toward reads so the
    // fast path gets real traffic.
    proptest::collection::vec(
        (
            0u16..3,
            // ~30% writes (the weight draw < 3 of 10 means write).
            proptest::collection::vec((0u16..3, 0u32..10), 3..8),
        ),
        2..4,
    )
    .prop_map(|clients| {
        clients
            .into_iter()
            .map(|(node, ops)| ClientPlan {
                node,
                ops: ops.into_iter().map(|(reg, w)| (reg, w < 3)).collect(),
            })
            .collect()
    })
}

proptest! {
    // Real threads and sockets: keep the sweep small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the interleaving, every operation completes, the
    /// per-register histories stay atomic and the read-round accounting
    /// stays sane (every read is 1 or 2 rounds).
    #[test]
    fn mixed_threads_stay_atomic_with_the_fast_path(plans in arb_plans(), seed in 0u32..1000) {
        let cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor()))
            .expect("cluster");
        let history = Mutex::new(rmem_consistency::History::new());
        let rounds: Mutex<Vec<u32>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for (ci, plan) in plans.iter().enumerate() {
                let client = cluster.client(ProcessId(plan.node));
                let history = &history;
                let rounds = &rounds;
                // Each thread is its own logical client process in the
                // history: operations through one *node* may be recorded
                // slightly out of order across threads (the history lock
                // is not atomic with the runner), but each thread itself
                // is strictly sequential.
                let hpid = ProcessId(100 + ci as u16);
                scope.spawn(move || {
                    for (oi, &(reg, is_write)) in plan.ops.iter().enumerate() {
                        let reg = RegisterId(reg);
                        // Values are unique per (client, op) so the checker
                        // has discriminating power.
                        let val = Value::from_u32((seed + ci as u32) << 8 | oi as u32);
                        if is_write {
                            let op = history
                                .lock()
                                .unwrap()
                                .invoke(hpid, Op::WriteAt(reg, val.clone()));
                            // A same-register overlap through one node
                            // waits its turn there: it fails the test only
                            // if the node refuses it.
                            client.write_at(reg, val).unwrap_or_else(|e| panic!("write failed: {e}"));
                            history.lock().unwrap().reply(op, OpResult::Written);
                        } else {
                            let op = history
                                .lock()
                                .unwrap()
                                .invoke(hpid, Op::ReadAt(reg));
                            let (v, r) = client
                                .read_at_counted(reg)
                                .unwrap_or_else(|e| panic!("read failed: {e}"));
                            history.lock().unwrap().reply(op, OpResult::ReadValue(v));
                            rounds.lock().unwrap().push(r);
                        }
                    }
                });
            }
        });
        let h = history.lock().unwrap().clone();
        for (reg, outcome) in
            rmem_consistency::check_per_register(&h, rmem_consistency::Criterion::Transient)
        {
            outcome.unwrap_or_else(|e| panic!("register {reg} not atomic: {e}\n{h:?}"));
        }
        let rounds = rounds.lock().unwrap();
        prop_assert!(
            rounds.iter().all(|&r| r == 1 || r == 2),
            "impossible round counts: {rounds:?}"
        );
        drop(cluster);
    }
}

/// Quiescent keys read in one round: after the writes settle, a pure read
/// phase must observe a mean round count well below the legacy 2.0 — the
/// end-to-end probe of the fast path on the real runtime. Reads through
/// the coordinator that wrote are all one round: its thrifty rounds ask
/// the majority its writes reached. Reads through the other two nodes may
/// meet the replica those writes left out, and then write back — to it,
/// so each register pays that round once at most.
#[test]
fn quiescent_read_rounds_drop_below_two() {
    let mut cluster =
        LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).expect("cluster");
    let client = cluster.client(ProcessId(0));
    for reg in 0..8u16 {
        client
            .write_at(RegisterId(reg), Value::from_u32(reg as u32 + 1))
            .expect("seed write");
    }
    let mut total = 0u32;
    let mut count = 0u32;
    for pass in 0..3 {
        for reg in 0..8u16 {
            let (v, rounds) = cluster
                .client(ProcessId((pass % 3) as u16))
                .read_at_counted(RegisterId(reg))
                .expect("read");
            assert_eq!(v.as_u32(), Some(reg as u32 + 1));
            if pass == 0 {
                assert_eq!(
                    rounds, 1,
                    "a read through the writer's node, register {reg}"
                );
            }
            total += rounds;
            count += 1;
        }
    }
    let mean = f64::from(total) / f64::from(count);
    assert!(
        mean < 2.0,
        "quiescent reads must beat the legacy 2 rounds, observed mean {mean:.2}"
    );
    assert!(
        total <= count + 8,
        "a register wrote back twice: {total} rounds for {count} reads"
    );
    cluster.shutdown();
}
