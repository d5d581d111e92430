//! Property tests of the runner's per-register operation table.
//!
//! Two properties, over randomized shapes of concurrency through **one**
//! runner's client:
//!
//! 1. operations on *distinct* registers all complete — none waits on
//!    another, none hangs — and the recorded history certifies atomic per
//!    register (each concurrent thread is one logical client process, so
//!    every register's restriction is a well-formed sequential history);
//! 2. operations racing on the *same* register all complete — the runner
//!    queues each behind the one in flight, never refuses it — in arrival
//!    order, and certify.
//!
//! And one fault: a node killed with operations waiting on a register
//! fails them all at once.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rmem_consistency::{check_per_register, Criterion, History};
use rmem_core::{SharedMemory, Transient};
use rmem_net::{ClientError, LocalCluster};
use rmem_types::{Op, OpResult, ProcessId, RegisterId, Value};

fn cluster() -> LocalCluster {
    LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap()
}

proptest! {
    // Each case spins a real-threaded 3-process cluster; keep the case
    // count modest so the sweep stays CI-sized.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent operations on distinct registers through one runner all
    /// complete and the run certifies atomic per register.
    #[test]
    fn distinct_register_ops_all_complete_and_certify(
        // How many ops (1..=3) each of 2..=6 registers issues.
        per_register in proptest::collection::vec(1usize..=3, 2..=6),
    ) {
        let mut cluster = cluster();
        let client = cluster.client(ProcessId(0));
        let history = Arc::new(Mutex::new(History::new()));
        std::thread::scope(|scope| {
            for (r, &ops) in per_register.iter().enumerate() {
                let client = client.clone();
                let history = history.clone();
                // One logical client process per register thread.
                let pid = ProcessId(r as u16);
                let reg = RegisterId(r as u16);
                scope.spawn(move || {
                    for i in 0..ops {
                        let value = Value::from_u32((r * 100 + i) as u32);
                        let op = history
                            .lock()
                            .unwrap()
                            .invoke(pid, Op::WriteAt(reg, value.clone()));
                        client.write_at(reg, value).expect("write must complete");
                        history.lock().unwrap().reply(op, OpResult::Written);
                    }
                    let op = history.lock().unwrap().invoke(pid, Op::ReadAt(reg));
                    let v = client.read_at(reg).expect("read must complete");
                    // A panicking assert: scope propagates panics, while a
                    // returned Err would be silently dropped.
                    assert_eq!(
                        v.as_u32(),
                        Some((r * 100 + ops - 1) as u32),
                        "the read must return the thread's last write"
                    );
                    history
                        .lock()
                        .unwrap()
                        .reply(op, OpResult::ReadValue(v));
                });
            }
        });
        let history = Arc::try_unwrap(history).unwrap().into_inner().unwrap();
        prop_assert_eq!(
            history.pending_ops().len(),
            0,
            "every operation got its reply"
        );
        for (reg, outcome) in check_per_register(&history, Criterion::Transient) {
            prop_assert!(
                outcome.is_ok(),
                "register {} not atomic: {:?}",
                reg,
                outcome.err()
            );
        }
        cluster.shutdown();
    }

    /// Racers on one register all complete — none refused, none hung —
    /// and certify (each thread its own client process); submitted from
    /// one pipelined handle they run in arrival order, so each read
    /// returns the write submitted just before it.
    #[test]
    fn same_register_racers_complete_in_arrival_order(
        threads in 2usize..=5,
        reg in 0u16..4,
    ) {
        let mut cluster = cluster();
        let client = cluster.client(ProcessId(0));
        let reg = RegisterId(reg);
        let history = Mutex::new(History::new());
        std::thread::scope(|scope| {
            for i in 0..threads {
                let (client, history) = (client.clone(), &history);
                scope.spawn(move || {
                    let pid = ProcessId(i as u16);
                    let value = Value::from_u32(i as u32);
                    let write = Op::WriteAt(reg, value.clone());
                    let op = history.lock().unwrap().invoke(pid, write);
                    client.write_at(reg, value).expect("a racer waits, then completes");
                    history.lock().unwrap().reply(op, OpResult::Written);
                    let op = history.lock().unwrap().invoke(pid, Op::ReadAt(reg));
                    let v = client.read_at(reg).expect("so does its read");
                    history.lock().unwrap().reply(op, OpResult::ReadValue(v));
                });
            }
        });
        let history = history.into_inner().unwrap();
        prop_assert_eq!(history.pending_ops().len(), 0);
        for (reg, outcome) in check_per_register(&history, Criterion::Transient) {
            prop_assert!(outcome.is_ok(), "register {} not atomic: {:?}", reg, outcome.err());
        }

        let pipe = client.pipelined();
        let value = |i: usize| Value::from_u32(100 + i as u32);
        let tickets: Vec<_> = (0..threads)
            .flat_map(|i| {
                let write = pipe.submit_write(0, reg, value(i)).unwrap();
                [write, pipe.submit_read(0, reg).unwrap()]
            })
            .collect();
        for (i, pair) in tickets.chunks(2).enumerate() {
            prop_assert_eq!(pipe.wait(pair[0]).unwrap().0, OpResult::Written);
            prop_assert_eq!(pipe.wait(pair[1]).unwrap().0, OpResult::ReadValue(value(i)));
        }
        prop_assert_eq!(cluster.metrics(ProcessId(0)).gauge("runner.queued"), 0);
        cluster.shutdown();
    }
}

/// A node killed with invocations waiting on one of its registers fails
/// every one of them at once — `ProcessDown` — not when the callers'
/// 10 s patience runs out.
#[test]
fn killing_a_node_fails_its_waiters_promptly() {
    let mut cluster = cluster();
    // Without a majority nothing completes: the first write holds
    // register 2 at node 0 and the other four wait behind it.
    cluster.kill(ProcessId(1));
    cluster.kill(ProcessId(2));
    let pipe = cluster.client(ProcessId(0)).pipelined();
    let tickets: Vec<_> = (0..5)
        .map(|i| {
            pipe.submit_write(0, RegisterId(2), Value::from_u32(i))
                .unwrap()
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.metrics(ProcessId(0)).gauge("runner.queued") < 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(cluster.metrics(ProcessId(0)).gauge("runner.queued"), 4);
    let killed = Instant::now();
    cluster.kill(ProcessId(0));
    for ticket in tickets {
        assert!(matches!(pipe.wait(ticket), Err(ClientError::ProcessDown)));
    }
    let took = killed.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "the waiters hung on for {took:?}"
    );
}
