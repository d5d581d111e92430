//! End-to-end coverage of the asynchronous durability pipeline:
//!
//! * **no-stall** — a slow fsync on one register must not delay a round
//!   on another register hosted by the same node (the ISSUE's acceptance
//!   probe, pinned with a `FaultyStorage` commit delay);
//! * **halt-on-failure** — a node whose log fails crashes cleanly
//!   (observable `store_failures`, client sees `ProcessDown`, restart
//!   recovers);
//! * **WAL-backed cluster** — kill/recover on `DiskMode::Wal` over real
//!   UDP sockets, certified per register, with group-commit fsync
//!   accounting visible in the cluster's counters.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rmem_core::{SharedMemory, Transient};
use rmem_net::{ChannelTransport, DiskMode, LocalCluster};
use rmem_net::{ClientError, ProcessRunner};
use rmem_storage::{FaultPlan, FaultyStorage, MemStorage, StableStorage};
use rmem_types::{Op, OpResult, ProcessId, RegisterId, Value};

/// A store in flight on register i must not delay a read round on
/// register j: node 0's disk commits take 150 ms, yet reads of other
/// registers through node 0 stay fast while a write's store is pending.
#[test]
fn slow_fsync_on_one_register_does_not_stall_another() {
    let delay = Duration::from_millis(150);
    let board = rmem_net::channel::Switchboard::new(3);
    let factory = SharedMemory::factory(Transient::flavor());
    let runners: Vec<ProcessRunner> = (0..3u16)
        .map(|i| {
            let (inbox, queue) = ProcessRunner::queue();
            let transport = Arc::new(ChannelTransport::new(ProcessId(i), 3, board.clone(), inbox));
            let storage: Box<dyn StableStorage> = if i == 0 {
                Box::new(
                    FaultyStorage::new(MemStorage::new(), FaultPlan::None).with_commit_delay(delay),
                )
            } else {
                Box::new(MemStorage::new())
            };
            ProcessRunner::start(factory.as_ref(), storage, transport, queue)
        })
        .collect();

    let client = runners[0].client();
    // Warm register 1 so the read below has a value (and the write's
    // slow adoption at node 0 is already behind us).
    let c_warm = runners[1].client();
    c_warm
        .write_at(RegisterId(1), Value::from_u32(7))
        .expect("warm write");
    std::thread::sleep(Duration::from_millis(300));

    // Kick off a write on register 0 through node 0: its replica store
    // at node 0 stalls 150 ms on the syncer thread.
    let writer = {
        let c = client.clone();
        std::thread::spawn(move || c.write_at(RegisterId(0), Value::from_u32(1)))
    };
    // Give the write time to reach node 0's replica and start its slow
    // commit — but less than the commit itself takes.
    std::thread::sleep(Duration::from_millis(20));

    // The probe: a read of register 1 through the same node. With the
    // store inline in the event loop this would wait out the 150 ms
    // commit; with the durability pipeline it must not.
    let t0 = Instant::now();
    let v = client
        .read_at(RegisterId(1))
        .expect("read during slow store");
    let read_latency = t0.elapsed();
    assert_eq!(v.as_u32(), Some(7));
    assert!(
        read_latency < delay / 2,
        "a read on register 1 stalled {}ms behind register 0's fsync \
         (the event loop is blocking on the disk)",
        read_latency.as_millis()
    );
    writer.join().expect("writer thread").expect("write");
    for r in runners {
        r.stop();
    }
}

/// A node whose log fails halts cleanly: the failure is counted, clients
/// get `ProcessDown` (not a hang, not a lying ack), the rest of the
/// cluster keeps serving, and a restart with a healthy disk recovers.
#[test]
fn log_failure_halts_the_node_cleanly() {
    let board = rmem_net::channel::Switchboard::new(3);
    let factory = SharedMemory::factory(Transient::flavor());
    let shared_disk = rmem_net::cluster::SharedStorage::new();
    let runners: Vec<ProcessRunner> = (0..3u16)
        .map(|i| {
            let (inbox, queue) = ProcessRunner::queue();
            let transport = Arc::new(ChannelTransport::new(ProcessId(i), 3, board.clone(), inbox));
            let storage: Box<dyn StableStorage> = if i == 0 {
                // Node 0's disk dies on its 3rd store.
                Box::new(FaultyStorage::new(
                    shared_disk.clone(),
                    FaultPlan::fail_at(vec![3]),
                ))
            } else {
                Box::new(MemStorage::new())
            };
            ProcessRunner::start(factory.as_ref(), storage, transport, queue)
        })
        .collect();

    let client = runners[1].client().with_timeout(Duration::from_secs(2));
    // Each write stores at every replica; by the second or third write
    // node 0's log has failed and the node halted.
    let mut failures_seen = false;
    for i in 0..6u32 {
        let _ = client.write_at(RegisterId(0), Value::from_u32(i));
        if runners[0].store_failures() > 0 {
            failures_seen = true;
            break;
        }
    }
    assert!(failures_seen, "the injected log failure must be counted");
    // The halt is observable and clean.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !runners[0].is_halted() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(runners[0].is_halted(), "a failed log must halt the node");
    match runners[0]
        .client()
        .with_timeout(Duration::from_millis(500))
        .read_at(RegisterId(0))
    {
        Err(ClientError::ProcessDown) | Err(ClientError::TimedOut) => {}
        other => panic!("a halted node must refuse operations, got {other:?}"),
    }
    // A majority survives: the cluster still serves.
    let v = client
        .read_at(RegisterId(0))
        .expect("majority still serves");
    assert!(v.as_u32().is_some() || v.is_bottom());
    for r in runners {
        r.stop();
    }
}

/// Kill/recover over the WAL on real UDP sockets, certified per
/// register; the counters prove the WAL's fsync economy (commits ≤
/// stores, ≥1 real group) while every ack stayed behind its fsync.
#[test]
fn wal_backed_cluster_survives_kill_recover_certified() {
    let dir = std::env::temp_dir().join(format!(
        "rmem-walcluster-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cluster = LocalCluster::udp_with_disk(
        3,
        SharedMemory::factory(Transient::flavor()),
        &dir,
        DiskMode::Wal,
    )
    .expect("cluster");

    let history = Mutex::new(rmem_consistency::History::new());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let history = &history;
        let stop = &stop;
        let clients: Vec<_> = (0..2u16)
            .map(|i| {
                cluster
                    .client(ProcessId(i))
                    .with_timeout(Duration::from_secs(5))
            })
            .collect();
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, client)| {
                scope.spawn(move || {
                    let hpid = ProcessId(100 + t as u16);
                    for i in 0..40u32 {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let reg = RegisterId((i % 4) as u16);
                        if i % 3 == 0 {
                            let op = history.lock().unwrap().invoke(hpid, Op::ReadAt(reg));
                            let v = client.read_at(reg).expect("read");
                            history.lock().unwrap().reply(op, OpResult::ReadValue(v));
                        } else {
                            let val = Value::from_u32((t as u32 + 1) << 16 | i);
                            let op = history
                                .lock()
                                .unwrap()
                                .invoke(hpid, Op::WriteAt(reg, val.clone()));
                            client.write_at(reg, val).expect("write");
                            history.lock().unwrap().reply(op, OpResult::Written);
                        }
                    }
                })
            })
            .collect();

        // Mid-run: kill node 2 (its WAL survives), let traffic continue
        // on the majority, then recover it from its log.
        std::thread::sleep(Duration::from_millis(60));
        cluster.kill(ProcessId(2));
        std::thread::sleep(Duration::from_millis(60));
        cluster.restart(ProcessId(2)).expect("restart from the WAL");
        for w in workers {
            w.join().expect("worker");
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Certification: whatever the interleaving and the crash, every
    // register's history is transient-atomic.
    let h = history.lock().unwrap().clone();
    for (reg, outcome) in
        rmem_consistency::check_per_register(&h, rmem_consistency::Criterion::Transient)
    {
        outcome.unwrap_or_else(|e| {
            // Dump every node's flight recorder before dying: the event
            // timelines (rounds, queued stores, group commits) around the
            // violation are the evidence a rerun cannot reproduce.
            eprintln!("{}", cluster.dump_flight_recorders(120));
            // Plus the stitched view: the per-node rings on the process's
            // one clock, so the interleaving around the violation reads
            // in causal order.
            eprintln!("{}", cluster.dump_stitched(Vec::new(), 5));
            panic!("register {reg} not atomic: {e}\n{h:?}")
        });
    }

    // The recovered node actually replayed its log.
    let v = cluster
        .client(ProcessId(2))
        .read_at(RegisterId(1))
        .expect("recovered node serves");
    assert!(v.as_u32().is_some() || v.is_bottom());

    // Fsync accounting: the WAL commits once per group, so commits never
    // exceed stores and the fsync count equals the commit count.
    for pid in ProcessId::all(3) {
        let c = cluster.storage_counters(pid);
        assert!(c.stores() > 0, "{pid}: traffic must have logged");
        assert!(
            c.commits() <= c.stores(),
            "{pid}: group commit cannot commit more often than it stores"
        );
        assert_eq!(
            c.fsyncs(),
            c.commits(),
            "{pid}: the WAL costs exactly one fsync per commit"
        );
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
