//! The observability acceptance pins:
//!
//! * an injected log failure halts the node **and** the flight recorder
//!   dump contains the guilty operation's full event timeline (OpStart,
//!   its rounds and queued store, no OpComplete, the Halt marker);
//! * `LocalCluster` exposes per-node registries and recorders whose
//!   contents cover the whole op path (admission → rounds → durability).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rmem_core::{SharedMemory, Transient};
use rmem_net::channel::{ChannelTransport, Switchboard};
use rmem_net::{LocalCluster, ProcessRunner};
use rmem_obs::EventKind;
use rmem_storage::{FaultPlan, FaultyStorage, MemStorage, StableStorage};
use rmem_types::{ProcessId, RegisterId, Value};

/// One process, quorum of one: every ack waits on the node's own log, so
/// the write in flight when the log dies is — deterministically — the
/// guilty operation. Its timeline must survive into the dump.
#[test]
fn halt_dump_contains_the_guilty_ops_timeline() {
    let board = Switchboard::new(1);
    let factory = SharedMemory::factory(Transient::flavor());
    let (inbox, queue) = ProcessRunner::queue();
    let transport = Arc::new(ChannelTransport::new(ProcessId(0), 1, board, inbox));
    let storage: Box<dyn StableStorage> = Box::new(FaultyStorage::new(
        MemStorage::new(),
        FaultPlan::fail_at(vec![4]),
    ));
    let runner = ProcessRunner::start(factory.as_ref(), storage, transport, queue);
    let client = runner.client().with_timeout(Duration::from_secs(2));

    // Write until the injected failure bites. Completed writes were
    // fully durable (quorum of one); the first failing write is the op
    // the halt caught in flight.
    let mut guilty = None;
    for i in 0..20u64 {
        match client.write_at(RegisterId(0), Value::from_u32(i as u32)) {
            Ok(()) => {}
            Err(_) => {
                guilty = Some(i);
                break;
            }
        }
    }
    let guilty = guilty.expect("the injected log failure must fail a write");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !runner.is_halted() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(runner.is_halted(), "a failed log must halt the node");

    let recorder = runner.flight_recorder();
    assert!(
        recorder
            .halt_reason()
            .is_some_and(|r| r.contains("stable storage failed")),
        "the halt must be recorded structurally, got {:?}",
        recorder.halt_reason()
    );
    let dump = recorder.dump();
    assert_eq!(
        dump.last().map(|e| e.kind),
        Some(EventKind::Halt),
        "the dump must end with the Halt event"
    );
    // The guilty op's timeline: admitted, its round went out, its store
    // was queued — and it never completed.
    let guilty_op = Some((0u16, guilty));
    assert!(
        dump.iter()
            .any(|e| e.kind == EventKind::OpStart && e.op == guilty_op),
        "dump must contain OpStart for the guilty op p0#{guilty}"
    );
    assert!(
        !dump
            .iter()
            .any(|e| e.kind == EventKind::OpComplete && e.op == guilty_op),
        "the guilty op p0#{guilty} must not have completed"
    );
    let started_at = dump
        .iter()
        .find(|e| e.kind == EventKind::OpStart && e.op == guilty_op)
        .map(|e| e.at_micros)
        .unwrap();
    assert!(
        dump.iter()
            .any(|e| e.kind == EventKind::RoundSent && e.at_micros >= started_at),
        "the guilty op's query round must be in the dump"
    );
    assert!(
        dump.iter()
            .any(|e| e.kind == EventKind::StoreQueued && e.at_micros >= started_at),
        "the store the log failed on must be in the dump"
    );
    // The rendered timeline names the guilty op — what lands on stderr.
    let text = recorder.dump_timeline(rmem_net::runner::HALT_DUMP_EVENTS);
    assert!(
        text.contains(&format!("op=p0#{guilty}")),
        "timeline:\n{text}"
    );
    assert!(text.contains("Halt"), "timeline:\n{text}");
    assert!(text.contains("halted: stable storage failed"));
}

/// The cluster surface: per-node metrics cover the op path, the storage
/// counters are bridged into the same snapshot, and every node's flight
/// recorder renders into one labelled dump.
#[test]
fn cluster_metrics_and_recorders_cover_the_op_path() {
    let mut cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let client = cluster.client(ProcessId(0));
    for i in 0..5u32 {
        client
            .write_at(RegisterId(1), Value::from_u32(i))
            .expect("write");
        client.read_at(RegisterId(1)).expect("read");
    }

    let m = cluster.metrics(ProcessId(0));
    assert_eq!(m.counter("runner.ops_started"), 10);
    assert_eq!(m.counter("runner.ops_completed"), 10);
    assert!(m.counter("runner.msgs_out") > 0);
    assert!(m.counter("runner.msgs_in") > 0);
    assert!(m.counter("runner.stores_queued") > 0);
    assert_eq!(
        m.counter("runner.stores_queued"),
        m.counter("runner.stores_durable"),
        "every queued store must have become durable"
    );
    assert!(m.counter("syncer.commits") > 0);
    // The storage layer's counters ride along as bridged gauges.
    assert!(m.gauge("storage.stores") > 0);
    assert_eq!(
        m.gauge("storage.stores"),
        cluster.storage_counters(ProcessId(0)).stores()
    );

    // The flight recorder saw the whole life of the ops.
    let dump = cluster.flight_recorder(ProcessId(0)).dump();
    for kind in [
        EventKind::OpStart,
        EventKind::RoundSent,
        EventKind::AckRecv,
        EventKind::StoreQueued,
        EventKind::GroupCommit,
        EventKind::StoreDurable,
        EventKind::OpComplete,
    ] {
        assert!(
            dump.iter().any(|e| e.kind == kind),
            "node 0's recorder must contain {kind:?}"
        );
    }
    let all = cluster.dump_flight_recorders(32);
    for pid in 0..3 {
        assert!(all.contains(&format!("--- flight recorder p{pid} ---")));
    }
    // The snapshot serializes (the bench artifact path).
    let json = m.to_json();
    assert!(json.contains("\"runner.ops_started\":10"));
    cluster.shutdown();

    // Histogram samples: the syncer's two per group commit
    // (`syncer.group_size`, `syncer.commit_micros`) and nothing else —
    // none per dequeued event, none per op; the flight ring holds those
    // spans. Read after shutdown, so no commit is half-recorded.
    let m = cluster.metrics(ProcessId(0));
    let samples: u64 = m.histograms.values().map(|h| h.count).sum();
    assert_eq!(
        samples,
        2 * m.counter("syncer.commits"),
        "histograms: {:?}",
        m.histograms
            .iter()
            .map(|(name, h)| (name, h.count))
            .collect::<Vec<_>>()
    );
}
