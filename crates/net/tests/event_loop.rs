//! The event loop's wake-up discipline, from outside the crate: every
//! producer's send wakes the node (no polling floor under an idle
//! cluster's op latency), a finished commit is noticed with no network
//! traffic at all, and a node's messages to itself stay off the
//! transport. (Queue order, the batch bound and shutdown behind a
//! backlog are pinned by `runner.rs`'s unit tests; the halt postmortem by
//! `obs_dump.rs`.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rmem_core::{SharedMemory, Transient};
use rmem_net::channel::Switchboard;
use rmem_net::{ChannelTransport, LocalCluster, NetError, ProcessRunner, Transport};
use rmem_obs::ObsHandle;
use rmem_storage::{FaultPlan, FaultyStorage, MemStorage};
use rmem_types::{Message, ProcessId, RegisterId, TraceId, Value};

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn timed<T>(op: impl FnOnce() -> T) -> Duration {
    let t0 = Instant::now();
    op();
    t0.elapsed()
}

/// 200 blocking reads then 200 writes on an idle 3-node channel cluster.
/// With the polled loop every op sat out at least one 500 µs nap; now
/// the median op latency must sit well under that.
#[test]
fn an_idle_cluster_has_no_polling_floor() {
    // Wall-clock medians on a shared box: a noisy neighbour can spoil one
    // attempt, but the polled loop could not pass any.
    let mut last = String::new();
    for _attempt in 0..3 {
        let mut cluster =
            LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
        let client = cluster.client(ProcessId(0));
        let reg = RegisterId(1);
        client.write_at(reg, Value::from_u32(0)).expect("warm-up");
        let mut ops = Vec::with_capacity(400);
        for _ in 0..200 {
            ops.push(timed(|| client.read_at(reg).expect("read")));
        }
        for i in 0..200 {
            ops.push(timed(|| {
                client.write_at(reg, Value::from_u32(i)).expect("write")
            }));
        }
        let op_median = median(ops);
        cluster.shutdown();
        if op_median < Duration::from_micros(300) {
            return;
        }
        last = format!("median op {op_median:?}");
    }
    panic!("an idle cluster still pays a polling floor: {last}");
}

/// One node, quorum of one, a disk that takes 2 ms per commit: nothing
/// ever crosses the transport, so the only thing that can wake the loop
/// for the finished commit is the syncer's own post.
#[test]
fn a_finished_commit_wakes_the_loop_without_network_traffic() {
    let delay = Duration::from_millis(2);
    let (inbox, queue) = ProcessRunner::queue();
    let transport = Arc::new(ChannelTransport::new(
        ProcessId(0),
        1,
        Switchboard::new(1),
        inbox,
    ));
    let storage = FaultyStorage::new(MemStorage::new(), FaultPlan::None).with_commit_delay(delay);
    let runner = ProcessRunner::start(
        SharedMemory::factory(Transient::flavor()).as_ref(),
        Box::new(storage),
        transport,
        queue,
    );
    let client = runner.client();
    let writes = (0..21)
        .map(|i| {
            timed(|| {
                client
                    .write_at(RegisterId(0), Value::from_u32(i))
                    .expect("write")
            })
        })
        .collect();
    runner.stop();
    let latency = median(writes);
    assert!(latency >= delay, "a write waits for its commit");
    assert!(
        latency < delay + Duration::from_millis(1),
        "the finished commit waited {:?} to be noticed",
        latency - delay
    );
}

/// A [`ChannelTransport`] that counts what it is asked to send.
#[derive(Debug)]
struct Counting {
    inner: ChannelTransport,
    sent: AtomicU64,
    to_self: AtomicU64,
}

impl Transport for Counting {
    fn local(&self) -> ProcessId {
        self.inner.local()
    }

    fn cluster_size(&self) -> usize {
        self.inner.cluster_size()
    }

    fn send(&self, to: ProcessId, msg: &Message) -> Result<(), NetError> {
        self.send_traced(to, msg, None)
    }

    fn send_traced(
        &self,
        to: ProcessId,
        msg: &Message,
        trace: Option<TraceId>,
    ) -> Result<(), NetError> {
        self.sent.fetch_add(1, Ordering::Relaxed);
        if to == self.local() {
            self.to_self.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.send_traced(to, msg, trace)
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

/// A node's `Read`/`Write`/acks to itself go straight onto its own queue:
/// the transport never sees them, while the message counters still count
/// them on both sides, so cluster-wide `msgs_in` and `msgs_out` balance.
#[test]
fn self_addressed_messages_never_reach_the_transport() {
    let n = 3;
    let board = Switchboard::new(n);
    let factory = SharedMemory::factory(Transient::flavor());
    let nodes: Vec<_> = ProcessId::all(n)
        .map(|pid| {
            let (inbox, queue) = ProcessRunner::queue();
            let transport = Arc::new(Counting {
                inner: ChannelTransport::new(pid, n, board.clone(), inbox),
                sent: AtomicU64::new(0),
                to_self: AtomicU64::new(0),
            });
            let runner = ProcessRunner::start_with_obs(
                factory.as_ref(),
                Box::new(MemStorage::new()),
                transport.clone(),
                queue,
                ObsHandle::new(),
            );
            (runner, transport)
        })
        .collect();
    for (i, (runner, _)) in nodes.iter().enumerate() {
        let client = runner.client();
        for v in 0..20 {
            client
                .write_at(RegisterId(i as u16), Value::from_u32(v))
                .expect("write");
            client.read_at(RegisterId(i as u16)).expect("read");
        }
    }
    // Acks to rounds that already had their quorum are still in flight;
    // the channel transport loses nothing, so the counters must meet.
    let counter =
        |name: &str| -> u64 { nodes.iter().map(|(r, _)| r.metrics().counter(name)).sum() };
    let deadline = Instant::now() + Duration::from_secs(5);
    while counter("runner.msgs_in") != counter("runner.msgs_out") && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let (msgs_in, msgs_out) = (counter("runner.msgs_in"), counter("runner.msgs_out"));
    assert_eq!(
        msgs_in, msgs_out,
        "every message sent is a message received"
    );
    let sent: u64 = nodes
        .iter()
        .map(|(_, t)| t.sent.load(Ordering::Relaxed))
        .sum();
    let to_self: u64 = nodes
        .iter()
        .map(|(_, t)| t.to_self.load(Ordering::Relaxed))
        .sum();
    assert_eq!(to_self, 0, "a self-addressed message crossed the transport");
    // Every round addresses all three nodes, one of them the sender.
    assert!(sent < msgs_out, "the self-addressed share stays home");
    for (runner, _) in nodes {
        runner.stop();
    }
}
