//! The register automaton's emitted action stream, pinned.
//!
//! Every step of a seeded simulation — the process, the [`Input`] it was
//! fed and the [`Action`]s it emitted — is folded, as `Debug` text, into
//! one FNV-1a digest per scenario. The scenarios cover every flavor with
//! the read fast path on and off plus two leased ones, on 3 and 5 nodes,
//! three registers through [`SharedMemory`], over a lossy and duplicating
//! network (so retransmissions fire), with a coordinator crash mid-write
//! and its recovery and a torn `writing` tail. The simulator is a function
//! of its seed, so a digest stands for the run: code that keeps every
//! digest emits the same actions, in the same order, with the same
//! store/timer tokens and request nonces, for every input.
//!
//! A change that alters behaviour on purpose updates [`PINNED`] (a failure
//! prints the whole new table) and says why in CHANGES.md.

use std::sync::{Arc, Mutex};

use rmem_core::{Flavor, SharedMemory};
use rmem_sim::workload::ClosedLoop;
use rmem_sim::{ClusterConfig, NetConfig, PlannedEvent, Schedule, Simulation};
use rmem_storage::FaultPlan;
use rmem_types::{
    Action, Automaton, AutomatonFactory, Input, Micros, Op, OpId, ProcessId, RegisterId,
    StableSnapshot, Value,
};

/// The digest of every scenario: `(flavor label, n, digest)`.
const PINNED: &[(&str, usize, u64)] = &[
    ("persistent", 3, 0xba8629f5ed6e077c),
    ("persistent", 5, 0xc1c62f66eb1911eb),
    ("persistent/verbatim", 3, 0xcba8b696b17d2f45),
    ("persistent/verbatim", 5, 0xef8633d1ac827a67),
    ("transient", 3, 0xf35dc1be41163caf),
    ("transient", 5, 0xcc1445b3d64a13e4),
    ("transient/verbatim", 3, 0x422e79dd46561f05),
    ("transient/verbatim", 5, 0xf7c36b4747b79324),
    ("regular/fast", 3, 0x3288a627d8d026b6),
    ("regular/fast", 5, 0x400c9175e0b11a54),
    ("regular", 3, 0xa8760309332703ae),
    ("regular", 5, 0x512000b1151865f2),
    ("crash-stop/fast", 3, 0xcbbde70a93557099),
    ("crash-stop/fast", 5, 0x79f758f087c11495),
    ("crash-stop", 3, 0xb9a5d885e0f8d3eb),
    ("crash-stop", 5, 0x41059e17aea7fbb9),
    ("persistent/lease", 3, 0xb71546f549069c08),
    ("persistent/lease", 5, 0xd38bf9583728b513),
    ("transient/lease", 3, 0x4090a3b53b1a23e2),
    ("transient/lease", 5, 0x1bfdb237370b6484),
];

/// FNV-1a, 64 bit: no dependency, and stable across toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One process's automaton, folding each of its steps into the run's
/// digest.
struct Recorded {
    me: ProcessId,
    inner: Box<dyn Automaton>,
    digest: Arc<Mutex<Fnv>>,
}

impl Automaton for Recorded {
    fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
        let fed = format!("{:?} {input:?}", self.me);
        let first = out.len();
        self.inner.on_input(input, out);
        let step = format!("{fed} -> {:?}\n", &out[first..]);
        self.digest.lock().unwrap().fold(step.as_bytes());
    }

    fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }

    fn active(&self, reg: RegisterId) -> Option<OpId> {
        self.inner.active(reg)
    }

    fn algorithm(&self) -> &'static str {
        self.inner.algorithm()
    }
}

/// A shared-memory factory whose automata record into one digest.
struct Recorder {
    inner: Arc<SharedMemory>,
    digest: Arc<Mutex<Fnv>>,
}

impl Recorder {
    fn wrap(&self, me: ProcessId, inner: Box<dyn Automaton>) -> Box<dyn Automaton> {
        Box::new(Recorded {
            me,
            inner,
            digest: self.digest.clone(),
        })
    }
}

impl AutomatonFactory for Recorder {
    fn fresh(&self, me: ProcessId, n: usize) -> Box<dyn Automaton> {
        self.wrap(me, self.inner.fresh(me, n))
    }

    fn recover(
        &self,
        me: ProcessId,
        n: usize,
        incarnation: u64,
        stable: &dyn StableSnapshot,
    ) -> Box<dyn Automaton> {
        self.wrap(me, self.inner.recover(me, n, incarnation, stable))
    }

    fn algorithm(&self) -> &'static str {
        self.inner.algorithm()
    }
}

/// The flavors pinned, by label.
fn flavors() -> Vec<(&'static str, Flavor)> {
    let mut all = Vec::new();
    for base in [
        Flavor::persistent(),
        Flavor::transient(),
        Flavor::regular(),
        Flavor::crash_stop(),
    ] {
        for fast in [true, false] {
            let label = match (base.name, fast) {
                ("persistent", true) => "persistent",
                ("persistent", false) => "persistent/verbatim",
                ("transient", true) => "transient",
                ("transient", false) => "transient/verbatim",
                ("regular", true) => "regular/fast",
                ("regular", false) => "regular",
                ("crash-stop", true) => "crash-stop/fast",
                _ => "crash-stop",
            };
            all.push((label, base.with_read_fast_path(fast)));
        }
    }
    all.push(("persistent/lease", Flavor::persistent().with_lease(5_000)));
    all.push(("transient/lease", Flavor::transient().with_lease(5_000)));
    all
}

/// Process `pid`'s closed loop. p0 only writes, walking the three
/// registers (so its crash lands mid-write); the others mostly read their
/// own register (so leases mint, serve and renew) and write every fourth
/// op (so leases are fenced, taken and handed on).
fn ops(pid: u16) -> Vec<Op> {
    (0..24u32)
        .map(|i| {
            if pid == 0 || i % 4 == 0 {
                let reg = RegisterId(((u32::from(pid) + i / 4) % 3) as u16);
                Op::WriteAt(reg, Value::from_u32(u32::from(pid) * 1_000 + i))
            } else {
                Op::ReadAt(RegisterId(pid % 3))
            }
        })
        .collect()
}

/// Runs one scenario and returns its digest.
fn digest(flavor: Flavor, n: usize) -> u64 {
    let digest = Arc::new(Mutex::new(Fnv::new()));
    let factory = Arc::new(Recorder {
        inner: SharedMemory::factory(flavor),
        digest: digest.clone(),
    });
    // p0 dies mid-write and comes back; p1's second pre-log of register 1
    // tears (a persistent flavor's), and p1 comes back whenever that was.
    let mut schedule = Schedule::new()
        .at(4_130, PlannedEvent::Crash(ProcessId(0)))
        .at(9_000, PlannedEvent::Recover(ProcessId(0)));
    for at in (10_000..=80_000).step_by(10_000) {
        schedule = schedule.at(at, PlannedEvent::Recover(ProcessId(1)));
    }
    let config = ClusterConfig::new(n).with_net(NetConfig::lossy(0.1, 0.1));
    let mut sim = Simulation::new(config, factory, 7)
        .with_schedule(schedule)
        .with_store_faults(ProcessId(1), FaultPlan::fail_nth_on_key("writing@r1", 2));
    for pid in 0..3 {
        sim.add_closed_loop(ClosedLoop {
            pid: ProcessId(pid),
            ops: ops(pid),
            think: Micros(300),
            start_after: Micros(100 + 37 * u64::from(pid)),
        });
    }
    let report = sim.run();
    assert!(
        report.trace.recoveries >= 1,
        "{}: nobody recovered",
        flavor.name
    );
    assert!(report.messages_dropped > 0 && report.messages_duplicated > 0);
    let folded = digest.lock().unwrap().0;
    folded
}

#[test]
fn every_scenario_emits_the_pinned_action_stream() {
    let mut actual = Vec::new();
    for (label, flavor) in flavors() {
        for n in [3, 5] {
            actual.push((label, n, digest(flavor, n)));
        }
    }
    let table: String = actual
        .iter()
        .map(|(label, n, d)| format!("    ({label:?}, {n}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        actual, PINNED,
        "the action stream changed; if on purpose, pin:\n{table}"
    );
}
