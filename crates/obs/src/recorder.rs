//! The per-node **flight recorder**: a bounded lock-free ring of
//! structured events, written on the hot path and dumped on demand —
//! the postmortem substrate for "which node, round, seal poll or fsync
//! produced this interleaving".
//!
//! ## Lock-freedom without `unsafe`
//!
//! Writers take a ticket with one `fetch_add` on the head and publish
//! through a per-slot sequence word (a seqlock made of plain atomics, so
//! the crate stays `forbid(unsafe_code)`):
//!
//! 1. `seq ← 2·ticket + 1` (odd: write in progress) by compare-exchange
//!    from an even, older sequence, so a slot has one writer at a time
//!    and its sequence never moves backwards: a writer that finds its
//!    slot newer than its ticket was lapped while descheduled and skips
//!    its store; one that finds it mid-write (an *older* writer was
//!    descheduled between steps 1 and 3 for a whole lap) writes to its
//!    ticket's slot of a small **spill ring** instead, under the same
//!    rule,
//! 2. the five payload words are stored relaxed,
//! 3. `seq ← 2·ticket + 2` (even: published; encodes the ticket, so a
//!    slot overwritten by a later lap is detectable).
//!
//! Readers ([`FlightRecorder::dump`]) load the expected sequence, copy
//! the words, and re-check the sequence: any concurrent overwrite makes
//! the check fail and the entry is discarded rather than surfaced torn.
//! The ring never blocks a writer — old events are overwritten, and
//! [`dropped`](FlightRecorder::dropped) reports how many fell off.
//!
//! Timestamps are monotonic (`Instant`-based) microseconds since one
//! origin per process, set when the process's first event is recorded:
//! every recorder in the process reads the same clock, so one node's dump
//! is internally ordered even across its threads (event loop + syncer),
//! and the rings of all nodes and clients of one process stitch into one
//! timeline by plain differences (see [`crate::trace`]).

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What happened. The variants mirror the life of an operation through
/// the stack: client admission, quorum rounds, the durability pipeline,
/// the kv layer's epoch machinery, and the terminal halt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// An operation began at its coordinator: the automaton named it
    /// active (a queued operation begins when its register frees up).
    OpStart = 1,
    /// The operation replied to its client (`aux` = quorum round-trips).
    OpComplete = 2,
    /// A protocol request left for a peer (`aux` = wire-packed
    /// destination pid + round nonce, see [`pack_wire_aux`]; durable bit
    /// clear).
    RoundSent = 3,
    /// An acknowledgement arrived (`aux` = wire-packed sender pid + round
    /// nonce + the ack's durable bit).
    AckRecv = 4,
    /// A store left the event loop for the syncer (`aux` = store token).
    StoreQueued = 5,
    /// The fsync covering a store returned (`aux` = store token).
    StoreDurable = 6,
    /// The syncer committed a batch (`aux` = group size).
    GroupCommit = 7,
    /// A client observed a shard seal during a split (`aux` = shard).
    SealObserved = 8,
    /// A client adopted a newer shard map (`aux` = shard count).
    EpochRefresh = 9,
    /// A client entered the split write barrier (`aux` = polls so far).
    BarrierWait = 10,
    /// The node halted (see [`FlightRecorder::halt_reason`]).
    Halt = 11,
    /// A protocol request arrived at a replica (`aux` = wire-packed
    /// sender pid + round nonce; durable bit clear).
    ReqRecv = 12,
    /// A replica sent an acknowledgement (`aux` = wire-packed destination
    /// pid + round nonce + the ack's durable bit).
    AckSent = 13,
    /// A client handed an operation to a node (`aux` = contacted pid).
    ClientSend = 14,
    /// A client received its operation's result (`aux` = contacted pid).
    ClientRecv = 15,
}

impl EventKind {
    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::OpStart,
            2 => EventKind::OpComplete,
            3 => EventKind::RoundSent,
            4 => EventKind::AckRecv,
            5 => EventKind::StoreQueued,
            6 => EventKind::StoreDurable,
            7 => EventKind::GroupCommit,
            8 => EventKind::SealObserved,
            9 => EventKind::EpochRefresh,
            10 => EventKind::BarrierWait,
            11 => EventKind::Halt,
            12 => EventKind::ReqRecv,
            13 => EventKind::AckSent,
            14 => EventKind::ClientSend,
            15 => EventKind::ClientRecv,
            _ => return None,
        })
    }

    /// Stable label used in timelines and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::OpStart => "OpStart",
            EventKind::OpComplete => "OpComplete",
            EventKind::RoundSent => "RoundSent",
            EventKind::AckRecv => "AckRecv",
            EventKind::StoreQueued => "StoreQueued",
            EventKind::StoreDurable => "StoreDurable",
            EventKind::GroupCommit => "GroupCommit",
            EventKind::SealObserved => "SealObserved",
            EventKind::EpochRefresh => "EpochRefresh",
            EventKind::BarrierWait => "BarrierWait",
            EventKind::Halt => "Halt",
            EventKind::ReqRecv => "ReqRecv",
            EventKind::AckSent => "AckSent",
            EventKind::ClientSend => "ClientSend",
            EventKind::ClientRecv => "ClientRecv",
        }
    }
}

/// High bit of a [`FlightEvent::op`] pid marking a *client-family* id
/// rather than a node process id (mirrors `TraceId::CLIENT_BIT` in
/// `rmem-types`; duplicated so this crate stays dependency-free).
pub const CLIENT_OP_BIT: u16 = 0x8000;

/// Packs a wire event's `aux`: the peer pid, the round nonce (low 47 bits
/// — matching-only, both sides truncate identically) and, for acks, the
/// durability attestation bit.
pub fn pack_wire_aux(peer: u16, nonce: u64, durable: bool) -> u64 {
    (nonce << 17) | u64::from(peer) << 1 | u64::from(durable)
}

/// Unpacks [`pack_wire_aux`] into `(peer, nonce, durable)`.
pub fn unpack_wire_aux(aux: u64) -> (u16, u64, bool) {
    ((aux >> 1) as u16, aux >> 17, aux & 1 == 1)
}

fn fmt_op(pid: u16, counter: u64) -> String {
    if pid & CLIENT_OP_BIT != 0 {
        format!("c{}#{}", pid & !CLIENT_OP_BIT, counter)
    } else {
        format!("p{pid}#{counter}")
    }
}

/// One structured event. Built with the `with_*` helpers; the recorder
/// stamps the timestamp at [`FlightRecorder::record`] time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since the process's clock origin (module docs).
    pub at_micros: u64,
    /// What happened.
    pub kind: EventKind,
    /// The register (= shard slot) involved, 0 when not applicable.
    pub register: u16,
    /// The shard-map epoch in force, 0 when not applicable.
    pub epoch: u32,
    /// The operation involved: `(origin pid, per-process counter)` for
    /// node-local ops, or `(client-family id | CLIENT_OP_BIT, trace op)`
    /// for traced operations.
    pub op: Option<(u16, u64)>,
    /// Kind-specific payload (see [`EventKind`]).
    pub aux: u64,
    /// The ring ticket this event was dumped from — a per-recorder
    /// insertion sequence, used as the final tie-breaker when sorting.
    /// Zero until the event has been through [`FlightRecorder::dump`].
    pub seq: u64,
}

impl FlightEvent {
    /// An event of `kind` with every field defaulted.
    pub fn new(kind: EventKind) -> Self {
        FlightEvent {
            at_micros: 0,
            kind,
            register: 0,
            epoch: 0,
            op: None,
            aux: 0,
            seq: 0,
        }
    }

    /// Sets the register.
    pub fn with_register(mut self, reg: u16) -> Self {
        self.register = reg;
        self
    }

    /// Sets the epoch.
    pub fn with_epoch(mut self, epoch: u32) -> Self {
        self.epoch = epoch;
        self
    }

    /// Sets the operation id.
    pub fn with_op(mut self, pid: u16, counter: u64) -> Self {
        self.op = Some((pid, counter));
        self
    }

    /// Sets the kind-specific payload.
    pub fn with_aux(mut self, aux: u64) -> Self {
        self.aux = aux;
        self
    }

    /// The event as one JSON object.
    pub fn to_json(&self) -> String {
        let op = match self.op {
            Some((pid, c)) => format!("\"{}\"", fmt_op(pid, c)),
            None => "null".to_string(),
        };
        format!(
            "{{\"t_us\":{},\"kind\":\"{}\",\"op\":{},\"reg\":{},\"epoch\":{},\"aux\":{}}}",
            self.at_micros,
            self.kind.label(),
            op,
            self.register,
            self.epoch,
            self.aux
        )
    }
}

impl std::fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>12.6}s] {:<12}",
            self.at_micros as f64 / 1e6,
            self.kind.label()
        )?;
        if let Some((pid, c)) = self.op {
            write!(f, " op={}", fmt_op(pid, c))?;
        }
        write!(f, " r{}", self.register)?;
        if self.epoch != 0 {
            write!(f, " e{}", self.epoch)?;
        }
        match self.kind {
            EventKind::RoundSent | EventKind::AckSent => {
                let (peer, nonce, _) = unpack_wire_aux(self.aux);
                write!(f, " to=p{peer} nonce={nonce}")
            }
            EventKind::ReqRecv => {
                let (peer, nonce, _) = unpack_wire_aux(self.aux);
                write!(f, " from=p{peer} nonce={nonce}")
            }
            EventKind::AckRecv => {
                let (peer, nonce, durable) = unpack_wire_aux(self.aux);
                write!(
                    f,
                    " from=p{peer} nonce={nonce} {}",
                    if durable { "durable" } else { "volatile" }
                )
            }
            EventKind::ClientSend | EventKind::ClientRecv => write!(f, " node=p{}", self.aux),
            EventKind::OpComplete => write!(f, " rounds={}", self.aux),
            EventKind::StoreQueued | EventKind::StoreDurable => write!(f, " token={}", self.aux),
            EventKind::GroupCommit => write!(f, " size={}", self.aux),
            EventKind::EpochRefresh => write!(f, " shards={}", self.aux),
            EventKind::BarrierWait => write!(f, " polls={}", self.aux),
            _ if self.aux != 0 => write!(f, " aux={}", self.aux),
            _ => Ok(()),
        }
    }
}

/// Payload words per slot (timestamp, packed kind/register/epoch, op
/// pid, op counter, aux).
const SLOT_WORDS: usize = 5;
/// Sentinel for "no operation id".
const NO_OP: u64 = u64::MAX;

struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The bounded lock-free event ring (see the module docs).
pub struct FlightRecorder {
    enabled: bool,
    head: AtomicU64,
    slots: Box<[Slot]>,
    /// Where an event goes whose ring slot a stalled writer holds: one
    /// sixteenth of the ring, indexed by ticket like it.
    spill: Box<[Slot]>,
    halt: Mutex<Option<String>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Default ring capacity: enough to hold the full event trail of a
    /// few hundred operations.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Memory cost per ring slot in bytes: six `AtomicU64`s (one sequence
    /// word + five payload words). A capacity-`c` ring costs
    /// `c × 48` bytes (capacity rounds up to a power of two) plus a
    /// sixteenth of that for its spill ring, e.g. the default 4096-slot
    /// ring is 204 KiB and a trace-bench 2^17 ring is 6.4 MiB.
    pub const SLOT_BYTES: usize = (SLOT_WORDS + 1) * 8;

    /// A recorder holding the last `capacity` events (rounded up to a
    /// power of two, minimum 8). Memory cost is
    /// [`SLOT_BYTES`](FlightRecorder::SLOT_BYTES) per slot.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(8);
        FlightRecorder {
            enabled: true,
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::empty()).collect(),
            spill: (0..(cap / 16).max(1)).map(|_| Slot::empty()).collect(),
            halt: Mutex::new(None),
        }
    }

    /// A recorder that drops every event at the door — the bench
    /// harness's uninstrumented baseline.
    pub fn disabled() -> Self {
        FlightRecorder {
            enabled: false,
            ..FlightRecorder::new(8)
        }
    }

    /// Whether this recorder keeps events.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded over the recorder's lifetime (including ones the
    /// ring has since overwritten).
    pub fn total_recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events that have fallen off the ring.
    pub fn dropped(&self) -> u64 {
        self.total_recorded()
            .saturating_sub(self.slots.len() as u64)
    }

    /// Records `ev`, stamping it with the process clock's current reading.
    /// Lock-free: one ticket `fetch_add`, the slot's claim and its
    /// seqlock stores.
    #[inline]
    pub fn record(&self, ev: FlightEvent) {
        if !self.enabled {
            return;
        }
        let at = origin().elapsed().as_micros() as u64;
        let packed = ev.kind as u64 | (ev.register as u64) << 16 | (ev.epoch as u64) << 32;
        let (op_pid, op_ctr) = match ev.op {
            Some((pid, c)) => (pid as u64, c),
            None => (NO_OP, 0),
        };
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        // Odd sequence: write in progress. A slot is claimed only from a
        // published (even) sequence older than this ticket's; the RMW
        // with AcqRel keeps the payload stores below from being hoisted
        // above the claim.
        let claim = |seq: u64| (seq & 1 == 0 && seq <= 2 * ticket).then_some(2 * ticket + 1);
        for slot in self.homes(ticket) {
            match slot
                .seq
                .fetch_update(Ordering::AcqRel, Ordering::Relaxed, claim)
            {
                Ok(_) => {
                    slot.words[0].store(at, Ordering::Relaxed);
                    slot.words[1].store(packed, Ordering::Relaxed);
                    slot.words[2].store(op_pid, Ordering::Relaxed);
                    slot.words[3].store(op_ctr, Ordering::Relaxed);
                    slot.words[4].store(ev.aux, Ordering::Relaxed);
                    // Even sequence encoding the ticket: published.
                    return slot.seq.store(2 * ticket + 2, Ordering::Release);
                }
                // A newer event is published here: this thread sat on its
                // ticket while the ring lapped it. Storing now would stamp
                // the older sequence over the newer event; the event is a
                // full lap old and `dropped` (recorded − capacity) already
                // counts it.
                Err(seq) if seq & 1 == 0 => return,
                // Another writer is mid-way through the slot — descheduled
                // there, if it is a lap behind. Two writers' payload words
                // must never share a published sequence, so this event
                // goes to its spill slot (and is lost if that is taken
                // too).
                Err(_) => {}
            }
        }
    }

    /// Where `ticket`'s event may live: its ring slot, else its spill
    /// slot.
    fn homes(&self, ticket: u64) -> [&Slot; 2] {
        let at = |slots: &'_ [Slot]| (ticket & (slots.len() as u64 - 1)) as usize;
        [&self.slots[at(&self.slots)], &self.spill[at(&self.spill)]]
    }

    /// Marks the node halted: stores the human-readable reason and
    /// records a [`EventKind::Halt`] event.
    pub fn halt(&self, reason: &str) {
        *self.halt.lock().expect("halt reason") = Some(reason.to_string());
        self.record(FlightEvent::new(EventKind::Halt));
    }

    /// The halt reason, if [`halt`](FlightRecorder::halt) was called.
    pub fn halt_reason(&self) -> Option<String> {
        self.halt.lock().expect("halt reason").clone()
    }

    /// Copies out the ring's events, oldest first. Entries a concurrent
    /// writer is mid-way through (or has lapped) fail their sequence
    /// check and are skipped — a dump never contains a torn event.
    pub fn dump(&self) -> Vec<FlightEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let mut out = Vec::with_capacity(head.min(cap) as usize);
        for ticket in head.saturating_sub(cap)..head {
            let expect = 2 * ticket + 2;
            let copy = |slot: &Slot| {
                if slot.seq.load(Ordering::Acquire) != expect {
                    return None; // in progress, or overwritten by a later lap
                }
                let words: [u64; SLOT_WORDS] =
                    std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
                fence(Ordering::Acquire);
                // Overwritten while we copied: discard.
                (slot.seq.load(Ordering::Relaxed) == expect).then_some(words)
            };
            let Some(words) = self.homes(ticket).into_iter().find_map(copy) else {
                continue;
            };
            let Some(kind) = EventKind::from_u8((words[1] & 0xff) as u8) else {
                continue;
            };
            out.push(FlightEvent {
                at_micros: words[0],
                kind,
                register: (words[1] >> 16) as u16,
                epoch: (words[1] >> 32) as u32,
                op: if words[2] == NO_OP {
                    None
                } else {
                    Some((words[2] as u16, words[3]))
                },
                aux: words[4],
                seq: ticket,
            });
        }
        out
    }

    /// The last `n` events rendered as a human-readable timeline,
    /// prefixed with the halt reason (if any) and the drop count.
    /// Ordering is deterministic: see [`sort_events`].
    pub fn dump_timeline(&self, n: usize) -> String {
        let mut events = self.dump();
        sort_events(&mut events);
        let shown = &events[events.len().saturating_sub(n)..];
        let mut out = String::new();
        if let Some(reason) = self.halt_reason() {
            out.push_str(&format!("  halted: {reason}\n"));
        }
        let dropped = self.dropped();
        if dropped > 0 {
            out.push_str(&format!("  ({dropped} earlier events overwritten)\n"));
        }
        for ev in shown {
            out.push_str(&format!("  {ev}\n"));
        }
        out
    }

    /// The last `n` events as a JSON array, in [`sort_events`] order.
    pub fn dump_json(&self, n: usize) -> String {
        let mut events = self.dump();
        sort_events(&mut events);
        let shown = &events[events.len().saturating_sub(n)..];
        let body: Vec<String> = shown.iter().map(FlightEvent::to_json).collect();
        format!("[{}]", body.join(","))
    }
}

/// The one instant every recorder in the process counts from.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Sorts events into the canonical dump order: timestamp first, then —
/// for equal-microsecond timestamps — operation id (node ops before
/// client-family ops of the same numeric pid, `None` last), then the ring
/// insertion sequence. Total and deterministic, so repeated dumps of a
/// quiescent ring (and the stitched traces built from them) render
/// identically even when several events share a microsecond.
pub fn sort_events(events: &mut [FlightEvent]) {
    events.sort_by_key(|e| {
        (
            e.at_micros,
            e.op.map_or((u16::MAX, u64::MAX), |(pid, c)| (pid, c)),
            e.seq,
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_the_ring() {
        let rec = FlightRecorder::new(64);
        rec.record(
            FlightEvent::new(EventKind::OpStart)
                .with_op(3, 41)
                .with_register(7)
                .with_epoch(2),
        );
        rec.record(FlightEvent::new(EventKind::GroupCommit).with_aux(5));
        let dump = rec.dump();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0].kind, EventKind::OpStart);
        assert_eq!(dump[0].op, Some((3, 41)));
        assert_eq!(dump[0].register, 7);
        assert_eq!(dump[0].epoch, 2);
        assert_eq!(dump[1].kind, EventKind::GroupCommit);
        assert_eq!(dump[1].aux, 5);
        assert!(dump[1].at_micros >= dump[0].at_micros);
        let text = rec.dump_timeline(10);
        assert!(text.contains("OpStart") && text.contains("op=p3#41"));
        assert!(text.contains("size=5"));
        let json = rec.dump_json(10);
        assert!(json.contains("\"GroupCommit\"") && json.contains("\"p3#41\""));
    }

    #[test]
    fn recorders_of_one_process_read_one_clock() {
        let older = FlightRecorder::new(8);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let newer = FlightRecorder::new(8);
        older.record(FlightEvent::new(EventKind::RoundSent));
        newer.record(FlightEvent::new(EventKind::ReqRecv));
        let (sent, recv) = (older.dump()[0].at_micros, newer.dump()[0].at_micros);
        assert!(
            sent <= recv,
            "recorded first at {sent}us, second at {recv}us"
        );
    }

    #[test]
    fn wraparound_keeps_the_newest_events_in_order() {
        let rec = FlightRecorder::new(8); // capacity 8
        for i in 0..20u64 {
            rec.record(FlightEvent::new(EventKind::OpStart).with_op(0, i));
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 8);
        let counters: Vec<u64> = dump.iter().filter_map(|e| e.op.map(|(_, c)| c)).collect();
        assert_eq!(counters, (12..20).collect::<Vec<_>>());
        assert_eq!(rec.dropped(), 12);
        assert_eq!(rec.total_recorded(), 20);
    }

    #[test]
    fn halt_is_recorded_and_rendered() {
        let rec = FlightRecorder::new(16);
        rec.record(FlightEvent::new(EventKind::StoreQueued).with_aux(9));
        rec.halt("disk on fire");
        assert_eq!(rec.halt_reason().as_deref(), Some("disk on fire"));
        let dump = rec.dump();
        assert_eq!(dump.last().map(|e| e.kind), Some(EventKind::Halt));
        let text = rec.dump_timeline(16);
        assert!(text.contains("halted: disk on fire"));
        assert!(text.contains("Halt"));
    }

    #[test]
    fn sort_is_stable_for_equal_microsecond_timestamps() {
        let mk = |op: Option<(u16, u64)>, seq: u64| FlightEvent {
            at_micros: 1000,
            op,
            seq,
            ..FlightEvent::new(EventKind::OpStart)
        };
        let mut events = vec![
            mk(None, 9),
            mk(Some((CLIENT_OP_BIT, 3)), 2),
            mk(Some((1, 5)), 7),
            mk(Some((1, 4)), 8),
            mk(Some((1, 4)), 1),
        ];
        sort_events(&mut events);
        let keys: Vec<_> = events.iter().map(|e| (e.op, e.seq)).collect();
        assert_eq!(
            keys,
            vec![
                (Some((1, 4)), 1), // op ascending, then seq
                (Some((1, 4)), 8),
                (Some((1, 5)), 7),
                (Some((CLIENT_OP_BIT, 3)), 2), // client ops after node ops
                (None, 9),                     // no-op events last
            ]
        );
        // Sorting again is a no-op: the order is canonical.
        let before = events.clone();
        sort_events(&mut events);
        assert_eq!(events, before);
    }

    #[test]
    fn wire_aux_packing_round_trips() {
        let aux = pack_wire_aux(513, 0xABCD_1234, true);
        assert_eq!(unpack_wire_aux(aux), (513, 0xABCD_1234, true));
        let aux = pack_wire_aux(0, u64::MAX, false);
        // Nonces keep their low 47 bits — enough to match rounds, which
        // only ever need uniqueness within a ring's retention window.
        assert_eq!(unpack_wire_aux(aux), (0, u64::MAX >> 17, false));
    }

    #[test]
    fn client_ops_render_with_family_prefix() {
        let ev = FlightEvent::new(EventKind::ClientSend)
            .with_op(CLIENT_OP_BIT | 4, 17)
            .with_aux(2);
        assert!(format!("{ev}").contains("op=c4#17"));
        assert!(format!("{ev}").contains("node=p2"));
        assert!(ev.to_json().contains("\"c4#17\""));
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let rec = FlightRecorder::disabled();
        rec.record(FlightEvent::new(EventKind::OpStart));
        assert!(rec.dump().is_empty());
        assert!(!rec.is_enabled());
    }
}
