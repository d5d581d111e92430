//! The per-layer numbers of the traced pass.
//!
//! *Ladder*: the same live cluster is driven through `KvClient` and, in
//! alternating blocks of the same call stream, through `rmem_net`'s own
//! client one layer down; the pieces below that are timed offline with the workload's own
//! message and payload shapes. *Counts* are read through accessors the
//! program already exports. *Stitched segments* come from the program's
//! own causal trace. Nothing here adds an instrument to the program.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::unbounded;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_core::replica::Replica;
use rmem_core::{SharedMemory, DEFAULT_RETRANSMIT};
use rmem_kv::{codec, ShardMap};
use rmem_net::channel::Switchboard;
use rmem_net::{
    ChannelTransport, Client, InFlightTable, Inbound, LocalCluster, PipelinedClient, TraceCtx,
    Transport, UdpTransport,
};
use rmem_obs::trace::{stitch, SEGMENTS};
use rmem_obs::{Counter, EventKind, FlightEvent, FlightRecorder, ObsHandle};
use rmem_sim::{ClusterConfig, KeyDistribution, Simulation};
use rmem_storage::{FileStorage, MemStorage, StableStorage, WalStorage};
use rmem_types::codec::{decode_message, encode_message};
use rmem_types::{
    Action, Automaton, AutomatonFactory, Input, Message, Micros, Op, OpId, OpKind, OpResult,
    ProcessId, RegisterId, RequestId, TimerToken, Timestamp, Value,
};

use crate::span::{SpanBuf, Spans};
use crate::spec::{Workload, NODES, SHARDS};
use crate::stats::{median, percentile_us};
use crate::workload::{new_kv, Driver, Inputs};

/// Register operations in the burst whose causal trace is stitched: few
/// enough that every event of every op is still in the nodes' default
/// 4096-slot flight rings when they are dumped.
const STITCH_BURST_OPS: usize = 128;

use crate::counts::Metrics;

/// Median over `rounds` rounds of the mean ns per call of `f`.
fn ns_per_call(rounds: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_round: Vec<f64> = (0..rounds)
        .map(|r| {
            let started = Instant::now();
            for i in 0..calls {
                f(r * calls + i);
            }
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_round)
}

fn median_ns(mut samples: Vec<u64>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// The register payload `KvClient` writes for key 0 of this workload: the
/// shape every codec, automaton and storage probe works on.
fn payload(inputs: &Inputs) -> Value {
    codec::encode_entry(&inputs.keys[0], &inputs.value(0, 1), 0)
}

// ---------------------------------------------------------------- live --

/// What the ladder's two rungs saw, per call of the workload's shape.
pub struct LiveLadder {
    pub kv_get_us: f64,
    pub kv_put_us: f64,
    pub net_read_us: f64,
    pub net_write_us: f64,
    pub read_rounds: f64,
    pub write_rounds: f64,
    pub late_acks: u64,
}

/// `rmem_net` handles one layer under `KvClient`: one blocking client per
/// node plus a fan for batched calls, traced as the kv family's handles
/// are so both rungs pay the same per-op recording.
struct NetRung {
    clients: Vec<Client>,
    fan: PipelinedClient,
}

impl NetRung {
    fn new(cluster: &LocalCluster) -> Self {
        let ctx = Arc::new(TraceCtx::new(Arc::new(FlightRecorder::default())));
        let clients: Vec<Client> = cluster
            .clients()
            .into_iter()
            .map(|c| c.with_trace(Some(ctx.clone())))
            .collect();
        let fan = PipelinedClient::fan(&clients);
        NetRung { clients, fan }
    }

    /// `KvClient`'s own placement: a register's home node.
    fn home(&self, reg: RegisterId) -> usize {
        usize::from(reg.0) % self.clients.len()
    }

    /// Reads `regs` as one call; returns total quorum rounds.
    fn read(&self, regs: &[RegisterId]) -> Result<u32, String> {
        if let [reg] = regs {
            return self.clients[self.home(*reg)]
                .read_at_counted(*reg)
                .map(|(_, rounds)| rounds)
                .map_err(|e| e.to_string());
        }
        let tickets: Vec<_> = regs
            .iter()
            .map(|&reg| self.fan.submit_read(self.home(reg), reg))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        self.settle(&tickets)
    }

    fn write(&self, writes: Vec<(RegisterId, Value)>) -> Result<u32, String> {
        if writes.len() == 1 {
            let (reg, value) = writes.into_iter().next().expect("one write");
            return self.clients[self.home(reg)]
                .write_at_counted(reg, value)
                .map_err(|e| e.to_string());
        }
        let tickets: Vec<_> = writes
            .into_iter()
            .map(|(reg, value)| self.fan.submit_write(self.home(reg), reg, value))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        self.settle(&tickets)
    }

    fn settle(&self, tickets: &[rmem_net::Ticket]) -> Result<u32, String> {
        let mut rounds = 0;
        for outcome in self.fan.wait_all(tickets) {
            let (result, r) = outcome.map_err(|e| e.to_string())?;
            if !result.is_completed() {
                return Err(format!("refused: {result:?}"));
            }
            rounds += r;
        }
        Ok(rounds)
    }

    fn late_acks(&self) -> u64 {
        self.fan.late_acks()
            + self
                .clients
                .iter()
                .map(|c| c.pipelined().late_acks())
                .sum::<u64>()
    }
}

/// Calls per block of one rung before the other takes its turn.
const LADDER_BLOCK: usize = 32;

/// Drives the live cluster with the workload's own seeded call stream,
/// in alternating blocks: a block through `KvClient`, then a block of the
/// same stream through `rmem_net` one layer down. Every timed call of
/// either rung therefore starts from the state the end-to-end loop leaves
/// between calls — the previous call of the same closed loop, on a key of
/// the workload's own distribution, has just completed — so both rungs pay
/// the same idle-runner wake-up and their difference is the kv layer alone.
/// (Timing the rungs back to back on one key does not do that: the second
/// call finds the home runner still awake from the first.)
///
/// One thread climbs the ladder, whatever the workload's thread count:
/// `rmem_net`'s own client does not retry a register another client holds
/// busy, as `KvClient` does. A mix with one direction only (the recovery
/// workload's puts) is replaced by strict alternation.
pub fn live_ladder(
    w: &Workload,
    cluster: &LocalCluster,
    driver: &mut Driver<'_>,
    inputs: &Inputs,
    budget: Duration,
    spans: &Spans,
    parent: u32,
) -> LiveLadder {
    let both_ways = w.put_share > 0.0 && w.put_share < 1.0;
    let net = NetRung::new(cluster);
    let mut buf = spans.buf();
    let (mut net_read, mut net_write) = (Vec::new(), Vec::new());
    let (mut read_rounds, mut write_rounds, mut reg_reads, mut reg_writes) =
        (0u64, 0u64, 0u64, 0u64);
    let deadline = Instant::now() + budget;
    let mut blocks = 0usize;
    while Instant::now() < deadline || blocks < 2 {
        for i in 0..2 * LADDER_BLOCK {
            let op = (blocks * 2 * LADDER_BLOCK + i) as u64;
            let (put, keys) = driver.next_call();
            let put = if both_ways { put } else { i % 2 == 0 };
            if i < LADDER_BLOCK {
                if put {
                    driver.put_keys(&keys, &mut buf, parent);
                } else {
                    driver.get_keys(&keys, &mut buf, parent);
                }
                continue;
            }
            let regs: Vec<RegisterId> = keys
                .iter()
                .map(|&k| inputs.register(&driver.kv, k))
                .collect();
            if !put {
                let span = buf.open("net.read", parent, op);
                let started = Instant::now();
                let outcome = net.read(&regs);
                let took = started.elapsed();
                buf.close(span);
                match outcome {
                    Ok(r) => {
                        net_read.push(took.as_nanos() as u64);
                        read_rounds += u64::from(r);
                        reg_reads += regs.len() as u64;
                    }
                    Err(e) => driver.tally.violations.push(format!("ladder read: {e}")),
                }
                continue;
            }
            // The rung below writes the very entry `KvClient` would, so
            // the register stays a well-formed store register and the
            // driver's expectations move with it.
            let stamp = driver.kv.shard_map().stamp();
            let counters: Vec<u64> = keys.iter().map(|_| driver.issue()).collect();
            let writes: Vec<(RegisterId, Value)> = keys
                .iter()
                .zip(&counters)
                .zip(&regs)
                .map(|((&k, &c), &reg)| {
                    (
                        reg,
                        codec::encode_entry(&inputs.keys[k], &inputs.value(k, c), stamp),
                    )
                })
                .collect();
            let span = buf.open("net.write", parent, op);
            let started = Instant::now();
            let outcome = net.write(writes);
            let took = started.elapsed();
            buf.close(span);
            match outcome {
                Ok(r) => {
                    net_write.push(took.as_nanos() as u64);
                    write_rounds += u64::from(r);
                    reg_writes += regs.len() as u64;
                    for (&k, &c) in keys.iter().zip(&counters) {
                        driver.acked(k, Some(c));
                    }
                }
                Err(e) => {
                    driver.tally.violations.push(format!("ladder write: {e}"));
                    for &k in &keys {
                        driver.acked(k, None);
                    }
                }
            }
        }
        blocks += 1;
    }
    let us = |ns: &mut Vec<u64>| percentile_us(ns, 0.5).unwrap_or(f64::NAN);
    LiveLadder {
        kv_get_us: us(&mut driver.tally.get_ns),
        kv_put_us: us(&mut driver.tally.put_ns),
        net_read_us: us(&mut net_read),
        net_write_us: us(&mut net_write),
        read_rounds: read_rounds as f64 / reg_reads.max(1) as f64,
        write_rounds: write_rounds as f64 / reg_writes.max(1) as f64,
        late_acks: net.late_acks(),
    }
}

/// Runs a short burst of the workload's calls through a client family
/// with a ring of its own, then stitches that ring with the nodes' rings:
/// coverage, and the median of each causal segment over the stitched ops.
pub fn stitch_burst(w: &Workload, cluster: &LocalCluster, driver: &mut Driver<'_>) -> Metrics {
    let traced = new_kv(w, cluster).with_obs(ObsHandle::with_capacity(4 * STITCH_BURST_OPS));
    let usual = std::mem::replace(&mut driver.kv, traced);
    for _ in 0..STITCH_BURST_OPS.div_ceil(w.batch) {
        driver.call(&mut SpanBuf::off(), 0);
    }
    let traced = std::mem::replace(&mut driver.kv, usual);
    let mut rings = cluster.ring_dumps();
    rings.push(traced.trace_ring_dump().expect("the family is traced"));
    let report = stitch(&rings);
    let mut out: Metrics = vec![("trace.coverage", report.coverage())];
    const NAMES: [&str; SEGMENTS.len()] = [
        "trace.client_queue_us",
        "trace.coord_compute_us",
        "trace.wire_out_us",
        "trace.replica_compute_us",
        "trace.store_wait_us",
        "trace.wire_back_us",
    ];
    for (i, name) in NAMES.into_iter().enumerate() {
        let segment: Vec<f64> = report.stitched.iter().map(|op| op.segments[i]).collect();
        out.push((
            name,
            if segment.is_empty() {
                f64::NAN
            } else {
                median(&segment)
            },
        ));
    }
    out
}

// ------------------------------------------------------------- offline --

/// Three shared-memory automata wired by the driver: zero-delay delivery,
/// immediate `StoreDone`, timers fired only when nothing else can make
/// progress. One full operation through it is the algorithm's CPU cost
/// with every wait removed.
struct Trio {
    autos: Vec<Box<dyn Automaton>>,
    queue: VecDeque<(usize, Input)>,
    /// Pending timers with their deadline on the trio's virtual clock.
    timers: Vec<(usize, TimerToken, u64)>,
    /// Virtual µs: advances only when a timer has to fire.
    now: u64,
    out: Vec<Action>,
    next_op: u64,
}

impl Trio {
    fn new(w: &Workload) -> Self {
        let factory = SharedMemory::factory(w.flavor());
        let mut trio = Trio {
            autos: ProcessId::all(NODES)
                .map(|pid| factory.fresh(pid, NODES))
                .collect(),
            queue: (0..NODES).map(|i| (i, Input::Start)).collect(),
            timers: Vec::new(),
            now: 0,
            out: Vec::new(),
            next_op: 0,
        };
        trio.drain();
        trio
    }

    /// Runs `operation` at node 0 to completion and quiescence.
    fn run(&mut self, operation: Op) {
        // Retransmission timers of rounds that already completed are
        // moot; lease-horizon timers (longer) must survive, or a fenced
        // write would wait forever.
        let retransmit_by = self.now + DEFAULT_RETRANSMIT.as_u64();
        self.timers.retain(|(_, _, due)| *due > retransmit_by);
        self.next_op += 1;
        self.queue.push_back((
            0,
            Input::Invoke {
                op: OpId::new(ProcessId(0), self.next_op),
                operation,
            },
        ));
        let mut completed = self.drain();
        while !completed {
            let earliest = (0..self.timers.len())
                .min_by_key(|&i| self.timers[i].2)
                .expect("an incomplete operation is waiting on a timer");
            let (at, token, due) = self.timers.swap_remove(earliest);
            self.now = due;
            self.queue.push_back((at, Input::Timer(token)));
            completed = self.drain();
        }
    }

    fn drain(&mut self) -> bool {
        let mut completed = false;
        while let Some((at, input)) = self.queue.pop_front() {
            self.autos[at].on_input(input, &mut self.out);
            for action in self.out.drain(..) {
                match action {
                    Action::Send { to, msg } => self.queue.push_back((
                        to.index(),
                        Input::Message {
                            from: ProcessId(at as u16),
                            msg,
                        },
                    )),
                    Action::Store { token, .. } => {
                        self.queue.push_back((at, Input::StoreDone(token)));
                    }
                    Action::SetTimer { token, after } => {
                        self.timers.push((at, token, self.now + after.as_u64()));
                    }
                    Action::Complete { .. } => completed = true,
                }
            }
        }
        completed
    }
}

fn core_probes(w: &Workload, value: &Value) -> Metrics {
    let mut trio = Trio::new(w);
    let reg = |i: usize| RegisterId(1 + (i % usize::from(SHARDS)) as u16);
    for i in 0..usize::from(SHARDS) {
        trio.run(Op::WriteAt(reg(i), value.clone()));
    }
    const OPS: usize = 2_000;
    let mut time = |op: &dyn Fn(usize) -> Op| {
        let samples: Vec<u64> = (0..OPS)
            .map(|i| {
                let operation = op(i);
                let started = Instant::now();
                trio.run(operation);
                started.elapsed().as_nanos() as u64
            })
            .collect();
        median_ns(samples) / 1_000.0
    };
    let read_us = time(&|i| Op::ReadAt(reg(i)));
    let write_us = time(&|i| Op::WriteAt(reg(i), value.clone()));

    // One replica step: a read request answered from volatile state.
    let mut replica = Replica::new(ProcessId(1), w.flavor().replica_logs);
    let mut token = 0u64;
    let mut next_token = || {
        token += 1;
        token
    };
    let mut out = Vec::new();
    let install = Message::Write {
        req: RequestId::new(ProcessId(0), 1),
        ts: Timestamp::new(1, ProcessId(0)),
        value: value.clone(),
    };
    replica.on_message(ProcessId(0), &install, &mut next_token, &mut out);
    for action in std::mem::take(&mut out) {
        if let Action::Store { token, .. } = action {
            replica.on_store_done(token, &mut out);
        }
    }
    let step_ns = ns_per_call(5, 20_000, |i| {
        out.clear();
        let read = Message::Read {
            req: RequestId::new(ProcessId(0), 2 + i as u64),
        };
        black_box(replica.on_message(ProcessId(0), &read, &mut next_token, &mut out));
    });
    vec![
        ("core.read_cpu_us", read_us),
        ("core.write_cpu_us", write_us),
        ("core.replica_step_ns", step_ns),
    ]
}

fn codec_probes(inputs: &Inputs, value: &Value) -> Metrics {
    let msg = Message::Write {
        req: RequestId::for_register(ProcessId(0), 7, RegisterId(3)),
        ts: Timestamp::new(9, ProcessId(1)),
        value: value.clone(),
    };
    let wire = encode_message(&msg);
    let user_value = inputs.value(0, 1);
    let key = inputs.keys[0].as_str();
    let map = ShardMap::genesis(SHARDS);
    let mut table = InFlightTable::new();
    vec![
        (
            "types.encode_ns",
            ns_per_call(5, 20_000, |_| {
                black_box(encode_message(black_box(&msg)));
            }),
        ),
        (
            "types.decode_ns",
            ns_per_call(5, 20_000, |_| {
                black_box(decode_message(black_box(&wire)).expect("our own encoding"));
            }),
        ),
        (
            "kv.codec_ns",
            ns_per_call(5, 20_000, |_| {
                let entry = codec::encode_entry(black_box(key), &user_value, 0);
                black_box(codec::decode_entry(&entry));
            }),
        ),
        (
            "kv.route_ns",
            ns_per_call(5, 20_000, |_| {
                black_box(map.register_for(black_box(key)));
            }),
        ),
        (
            "net.table_cycle_ns",
            ns_per_call(5, 20_000, |_| {
                let ticket = table.begin(0, RegisterId(3), None);
                black_box(table.encode_with(ticket, |buf| {
                    codec::encode_entry_into(buf, key, &user_value, 0);
                }));
                table.route(ticket.token(), OpResult::Written, 2, None);
                black_box(table.claim(ticket));
            }),
        ),
    ]
}

/// The slot names and record bytes a replica logs for this workload.
fn store_records(value: &Value) -> (Vec<String>, Bytes) {
    let slots = (1..=SHARDS).map(|r| format!("written@r{r}")).collect();
    // A `written` record is the value plus its tag.
    let mut record = vec![0u8; 16];
    record.extend_from_slice(value.bytes());
    (slots, Bytes::from(record))
}

fn storage_probes(value: &Value, tmp: &Path, wal_to_reopen: Option<&Path>) -> Metrics {
    let (slots, record) = store_records(value);
    let slot = |i: usize| slots[i % slots.len()].as_str();
    let store_us = |storage: &mut dyn StableStorage, stores: usize| {
        let samples: Vec<u64> = (0..stores)
            .map(|i| {
                let started = Instant::now();
                storage.store(slot(i), record.clone()).expect("probe store");
                started.elapsed().as_nanos() as u64
            })
            .collect();
        median_ns(samples) / 1_000.0
    };

    let mut mem = MemStorage::new();
    let mem_ns = ns_per_call(5, 20_000, |i| {
        mem.store(slot(i), record.clone()).expect("memory store");
    });
    let wal_dir = tmp.join("probe-wal");
    let mut wal = WalStorage::open(&wal_dir).expect("opening the probe WAL");
    let wal_us = store_us(&mut wal, 300);
    drop(wal);
    let file_us = store_us(
        &mut FileStorage::open(tmp.join("probe-file")).expect("opening the probe file store"),
        100,
    );
    // Replay cost: the log the workload's own node 0 left behind when it
    // has one, the probe's log otherwise.
    let reopen = wal_to_reopen.unwrap_or(&wal_dir);
    let opens: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            black_box(WalStorage::open(reopen).expect("reopening the WAL"));
            started.elapsed().as_secs_f64() * 1_000.0
        })
        .collect();
    vec![
        ("storage.mem_store_ns", mem_ns),
        ("storage.wal_store_us", wal_us),
        ("storage.file_store_us", file_us),
        ("storage.wal_open_ms", median(&opens)),
    ]
}

fn obs_probes() -> Metrics {
    let counter = Counter::new();
    let ring = FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY);
    vec![
        (
            "obs.counter_inc_ns",
            ns_per_call(5, 200_000, |_| black_box(&counter).inc()),
        ),
        (
            "obs.flight_record_ns",
            ns_per_call(5, 50_000, |i| {
                ring.record(
                    FlightEvent::new(EventKind::RoundSent)
                        .with_register(3)
                        .with_op(1, i as u64),
                );
            }),
        ),
    ]
}

/// Half the median round trip of `msg` between two endpoints of a
/// transport: endpoint 1 echoes whatever arrives.
fn hop_us(
    bind: impl Fn(ProcessId, crossbeam::channel::Sender<Inbound>) -> Arc<dyn Transport>,
    msg: &Message,
) -> f64 {
    let (tx0, rx0) = unbounded();
    let (tx1, rx1) = unbounded::<Inbound>();
    let (a, b) = (bind(ProcessId(0), tx0), bind(ProcessId(1), tx1));
    const TRIPS: usize = 2_000;
    let samples = std::thread::scope(|scope| {
        let echo = scope.spawn(|| {
            for _ in 0..TRIPS {
                let Ok(inbound) = rx1.recv_timeout(Duration::from_secs(5)) else {
                    return;
                };
                b.send(ProcessId(0), &inbound.msg).expect("echo");
            }
        });
        let mut samples = Vec::with_capacity(TRIPS);
        for _ in 0..TRIPS {
            let started = Instant::now();
            a.send(ProcessId(1), msg).expect("ping");
            // Loopback UDP may still drop under pressure: a lost trip is
            // skipped, not waited on forever.
            if rx0.recv_timeout(Duration::from_millis(200)).is_ok() {
                samples.push(started.elapsed().as_nanos() as u64);
            }
        }
        drop(echo);
        samples
    });
    a.shutdown();
    b.shutdown();
    if samples.is_empty() {
        return f64::NAN;
    }
    median_ns(samples) / 2.0 / 1_000.0
}

fn hop_probes(value: &Value) -> Metrics {
    let msg = Message::Write {
        req: RequestId::for_register(ProcessId(0), 7, RegisterId(3)),
        ts: Timestamp::new(9, ProcessId(1)),
        value: value.clone(),
    };
    let board = Switchboard::new(2);
    let chan = hop_us(
        |pid, inbox| Arc::new(ChannelTransport::new(pid, 2, board.clone(), inbox)),
        &msg,
    );
    // Two free loopback ports, found the way `LocalCluster` finds them.
    let base = std::net::UdpSocket::bind("127.0.0.1:0")
        .and_then(|s| s.local_addr())
        .expect("probing a free UDP port")
        .port();
    let peers = UdpTransport::loopback_peers(2, base);
    let udp = hop_us(
        |pid, inbox| Arc::new(UdpTransport::bind(pid, peers.clone(), inbox).expect("binding")),
        &msg,
    );
    vec![("net.chan_hop_us", chan), ("net.udp_hop_us", udp)]
}

/// A fixed-seed `rmem-sim` run of the workload's op mix. Virtual time
/// repeats exactly, so the three counts are exact; only `events_per_s`
/// is a wall-clock number.
fn sim_probes(w: &Workload, value: &Value) -> Metrics {
    const OPS_PER_LOOP: usize = 600;
    let mut rng = StdRng::seed_from_u64(42);
    let dist = if w.zipf {
        KeyDistribution::zipf(usize::from(SHARDS), 0.99)
    } else {
        KeyDistribution::uniform(usize::from(SHARDS))
    };
    let mut sim = Simulation::new(
        ClusterConfig::new(NODES),
        SharedMemory::factory(w.flavor()),
        42,
    );
    for t in 0..w.threads {
        let ops = (0..OPS_PER_LOOP)
            .map(|_| {
                let reg = RegisterId(1 + dist.sample(&mut rng) as u16);
                if rng.gen_bool(w.put_share) {
                    Op::WriteAt(reg, value.clone())
                } else {
                    Op::ReadAt(reg)
                }
            })
            .collect();
        sim.add_closed_loop(rmem_sim::workload::ClosedLoop {
            pid: ProcessId(t as u16),
            ops,
            think: Micros(10),
            start_after: Micros(10),
        });
    }
    let started = Instant::now();
    let report = sim.run();
    let wall = started.elapsed().as_secs_f64();
    let completed = report
        .trace
        .operations()
        .iter()
        .filter(|op| op.is_completed())
        .count();
    let read_rounds = report.trace.rounds(OpKind::Read);
    vec![
        (
            "sim.read_rounds_mean",
            if read_rounds.is_empty() {
                0.0
            } else {
                read_rounds.iter().map(|&r| f64::from(r)).sum::<f64>() / read_rounds.len() as f64
            },
        ),
        (
            "sim.write_causal_logs",
            f64::from(report.trace.max_causal_logs(OpKind::Write)),
        ),
        (
            "sim.events_per_op",
            report.events_processed as f64 / completed.max(1) as f64,
        ),
        ("sim.events_per_s", report.events_processed as f64 / wall),
    ]
}

/// Every offline probe, each inside its own span.
pub fn offline_probes(
    w: &Workload,
    inputs: &Inputs,
    tmp: &Path,
    wal_to_reopen: Option<&Path>,
    spans: &Spans,
    parent: u32,
) -> Metrics {
    let value = payload(inputs);
    let mut out = Metrics::new();
    out.extend(spans.within("probe.codec", parent, |_| codec_probes(inputs, &value)));
    out.extend(spans.within("probe.core", parent, |_| core_probes(w, &value)));
    out.extend(spans.within("probe.storage", parent, |_| {
        storage_probes(&value, tmp, wal_to_reopen)
    }));
    out.extend(spans.within("probe.obs", parent, |_| obs_probes()));
    out.extend(spans.within("probe.hop", parent, |_| hop_probes(&value)));
    out.extend(spans.within("probe.sim", parent, |_| sim_probes(w, &value)));
    out
}

/// One direction (read or write) of the ladder, in µs per call: the
/// kv call's median split into what each layer costs *itself*.
struct Rung {
    kv_us: f64,
    net_us: f64,
    rounds: f64,
    hop_us: f64,
    /// The automata's CPU for every register of the call.
    core_us: f64,
    /// The causal logs of the call (0 for a read).
    store_us: f64,
}

impl Rung {
    /// The kv call minus the `rmem_net` call under it.
    fn kv_self(&self) -> f64 {
        self.kv_us - self.net_us
    }

    fn hops_us(&self) -> f64 {
        self.rounds * 2.0 * self.hop_us
    }

    /// The `rmem_net` call minus everything timed offline beneath it:
    /// what is left is the runner loop and the client drain, wake-up
    /// waits included.
    fn net_self(&self) -> f64 {
        self.net_us - self.hops_us() - self.core_us - self.store_us
    }

    /// The terms add up to the ladder's own kv median by construction;
    /// the check is against the *end-to-end* median of the same call,
    /// measured in another window by the workload's plain loop.
    fn reconcile(&self, what: &str, e2e_us: f64) -> String {
        format!(
            "ladder {what}: kv.self {:.1} + net.self {:.1} + {:.2} rounds x 2 x hop {:.2} \
             + core {:.1} + store {:.1} = {:.1} us; e2e.{what}_p50_us {:.1} us ({:+.1}%)",
            self.kv_self(),
            self.net_self(),
            self.rounds,
            self.hop_us,
            self.core_us,
            self.store_us,
            self.kv_us,
            e2e_us,
            (self.kv_us / e2e_us - 1.0) * 100.0
        )
    }
}

/// The derived rungs of both directions.
pub struct Rungs {
    read: Rung,
    write: Rung,
    late_acks: u64,
}

impl Rungs {
    pub fn new(w: &Workload, live: &LiveLadder, probes: &Metrics) -> Self {
        let probe = |name: &str| {
            probes
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, v)| *v)
        };
        // The hop as measured through the `Transport` already carries the
        // wire codec (UDP) or the message clone (channel).
        let hop_us = probe(if w.udp_wal {
            "net.udp_hop_us"
        } else {
            "net.chan_hop_us"
        });
        let store_us = if w.udp_wal {
            probe("storage.wal_store_us")
        } else {
            probe("storage.mem_store_ns") / 1_000.0
        };
        // A batched call's registers run their rounds side by side and
        // share one group commit per causal-log step, so hops and stores
        // are paid once per call; the automaton's CPU is paid per register.
        let batch = w.batch as f64;
        Rungs {
            read: Rung {
                kv_us: live.kv_get_us,
                net_us: live.net_read_us,
                rounds: live.read_rounds,
                hop_us,
                core_us: batch * probe("core.read_cpu_us"),
                store_us: 0.0,
            },
            write: Rung {
                kv_us: live.kv_put_us,
                net_us: live.net_write_us,
                rounds: live.write_rounds,
                hop_us,
                core_us: batch * probe("core.write_cpu_us"),
                store_us: f64::from(w.flavor().causal_logs_per_write()) * store_us,
            },
            late_acks: live.late_acks,
        }
    }

    pub fn metrics(&self) -> Metrics {
        vec![
            ("kv.self_get_us", self.read.kv_self()),
            ("kv.self_put_us", self.write.kv_self()),
            ("net.read_us", self.read.net_us),
            ("net.write_us", self.write.net_us),
            ("net.self_read_us", self.read.net_self()),
            ("net.self_write_us", self.write.net_self()),
            ("net.late_acks", self.late_acks as f64),
        ]
    }

    /// One line per direction for the reader.
    pub fn reconcile(&self, e2e_get_us: f64, e2e_put_us: f64) -> Vec<String> {
        vec![
            self.read.reconcile("get", e2e_get_us),
            self.write.reconcile("put", e2e_put_us),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn the_trio_completes_reads_and_writes_of_every_flavor() {
        for w in &spec::WORKLOADS {
            let inputs = Inputs::new(w, 1);
            let value = payload(&inputs);
            let mut trio = Trio::new(w);
            trio.run(Op::WriteAt(RegisterId(5), value.clone()));
            trio.run(Op::ReadAt(RegisterId(5)));
            // A leased flavor fences this write behind the read's grant:
            // it completes only because the trio fires the horizon timer.
            trio.run(Op::WriteAt(RegisterId(5), value));
            assert!(trio.queue.is_empty());
        }
    }

    #[test]
    fn sim_counts_repeat_exactly() {
        let w = spec::workload("udp-wal-w90").unwrap();
        let value = payload(&Inputs::new(w, 1));
        let (a, b) = (sim_probes(w, &value), sim_probes(w, &value));
        for ((name, x), (_, y)) in a.iter().zip(&b).take(3) {
            assert_eq!(x, y, "{name} must repeat exactly");
        }
        // The persistent flavor's headline: two causal logs per write.
        assert_eq!(a[1], ("sim.write_causal_logs", 2.0));
    }
}
