//! Cross-node **causal trace stitching**: merges the per-node flight
//! recorder rings plus the client ring into one global timeline per
//! operation.
//!
//! ## One clock
//!
//! Every [`FlightRecorder`](crate::FlightRecorder) in a process stamps
//! its events against one origin, so the rings of one process — the
//! nodes of a local cluster and its client families — read one
//! monotonic clock, and a span between events of two rings is a plain
//! timestamp difference. Stitching therefore covers the rings of one
//! process: a ring dumped by another process counts from another origin.
//!
//! ## The causal-ordering invariant
//!
//! Every traced hand-off is recorded before it happens (a request or ack
//! before it leaves, a store before the syncer gets it, a completion
//! before the client is woken), so **no effect may carry an earlier
//! timestamp than its cause** — with no slack. Any stitch that violates
//! this is counted — the trace bench gates on zero violations, so a bug
//! in event pairing (or a record placed after its hand-off) fails loudly
//! instead of producing quietly nonsensical attributions.
//!
//! ## Attribution
//!
//! Each completed op decomposes into six named segments (see
//! [`SEGMENTS`]) that telescope: the segment sum equals the
//! client-observed wall clock exactly, up to clamping of negative
//! artifacts. A large attribution error therefore *means* a mis-stitched
//! op, which is why the bench asserts the per-op sum stays within 5% of
//! wall clock. An op its coordinator answered in **zero rounds** (a read
//! under a tag lease: `OpComplete` carries the round count) is whole
//! with the first two.

use std::collections::HashMap;

use crate::recorder::{unpack_wire_aux, EventKind, FlightEvent, CLIENT_OP_BIT};
use crate::Registry;

/// The named attribution segments, in timeline order. All six are
/// reported in microseconds and sum (telescopically) to the op's
/// client-observed wall clock:
///
/// * `client_queue` — time outside the coordinator's `OpStart..OpComplete`
///   bracket: the client-side invoke queue plus the reply channel;
/// * `coord_compute` — coordinator event-loop time not covered by an
///   in-flight quorum round;
/// * `wire_out` — request propagation to the round's critical replica;
/// * `replica_compute` — critical-replica processing minus store waits;
/// * `store_wait` — time the critical replica's ack waited on the
///   durability pipeline (store queue + group-commit fsync);
/// * `wire_back` — the critical ack's trip home.
///
/// The *critical replica* of a round is the sender of the ack that
/// closed the round (the last ack the coordinator consumed before moving
/// to the next round or completing) — the replica actually on the op's
/// critical path.
pub const SEGMENTS: [&str; 6] = [
    "client_queue",
    "coord_compute",
    "wire_out",
    "replica_compute",
    "store_wait",
    "wire_back",
];

/// One recorder's dump, labeled with its identity.
#[derive(Debug, Clone)]
pub struct RingDump {
    /// Human-readable ring label (`p3`, `c1`).
    pub label: String,
    /// The ring's identity: a node `ProcessId` value, or a
    /// client-family id with [`CLIENT_OP_BIT`] set.
    pub pid: u16,
    /// The ring's events (any order; the stitcher indexes them itself).
    pub events: Vec<FlightEvent>,
}

impl RingDump {
    /// A node ring.
    pub fn node(pid: u16, events: Vec<FlightEvent>) -> Self {
        RingDump {
            label: format!("p{pid}"),
            pid,
            events,
        }
    }

    /// A client-family ring (`family` may or may not carry the client
    /// bit; it is forced on).
    pub fn client(family: u16, events: Vec<FlightEvent>) -> Self {
        RingDump {
            label: format!("c{}", family & !CLIENT_OP_BIT),
            pid: family | CLIENT_OP_BIT,
            events,
        }
    }
}

/// One event placed on an op's stitched timeline.
#[derive(Debug, Clone)]
pub struct TimelineEntry {
    /// Which ring recorded it.
    pub ring: String,
    /// The raw event; its time is on the process's one clock.
    pub event: FlightEvent,
}

/// A completed op whose events stitched into a full causal timeline.
#[derive(Debug, Clone)]
pub struct StitchedOp {
    /// The trace id `(client-family, op counter)`.
    pub op: (u16, u64),
    /// The coordinator node contacted.
    pub node: u16,
    /// The register operated on.
    pub register: u16,
    /// Quorum rounds observed.
    pub rounds: usize,
    /// Client-observed wall clock, microseconds.
    pub wall_us: f64,
    /// Per-segment attribution, microseconds, indexed like [`SEGMENTS`].
    pub segments: [f64; SEGMENTS.len()],
    /// Effect-before-cause violations detected in this op's stitch.
    pub violations: u64,
    /// The merged cross-ring timeline, in time order.
    pub timeline: Vec<TimelineEntry>,
}

impl StitchedOp {
    /// Sum of the six segments, microseconds.
    pub fn attributed_us(&self) -> f64 {
        self.segments.iter().sum()
    }

    /// Relative attribution error: `|Σ segments − wall| / wall`.
    pub fn attribution_error(&self) -> f64 {
        if self.wall_us <= 0.0 {
            return 0.0;
        }
        (self.attributed_us() - self.wall_us).abs() / self.wall_us
    }

    fn render(&self) -> String {
        let mut out = format!(
            "op c{}#{} via p{} r{}: wall {:.0}us over {} round(s)\n",
            self.op.0 & !CLIENT_OP_BIT,
            self.op.1,
            self.node,
            self.register,
            self.wall_us,
            self.rounds,
        );
        for (name, us) in SEGMENTS.iter().zip(self.segments) {
            out.push_str(&format!("    {name:<16} {us:>10.1}us\n"));
        }
        out.push_str("  timeline:\n");
        let t0 = self.timeline.first().map_or(0, |e| e.event.at_micros);
        for entry in &self.timeline {
            out.push_str(&format!(
                "    [+{:>9.1}us] {:<3} {}\n",
                (entry.event.at_micros - t0) as f64,
                entry.ring,
                entry.event
            ));
        }
        out
    }

    fn to_json(&self) -> String {
        let segs: Vec<String> = SEGMENTS
            .iter()
            .zip(self.segments)
            .map(|(name, us)| format!("\"{name}\":{us:.1}"))
            .collect();
        let timeline: Vec<String> = self
            .timeline
            .iter()
            .map(|e| {
                format!(
                    "{{\"ring\":\"{}\",\"t_us\":{:.1},\"event\":{}}}",
                    e.ring,
                    e.event.at_micros as f64,
                    e.event.to_json()
                )
            })
            .collect();
        format!(
            "{{\"op\":\"c{}#{}\",\"node\":{},\"reg\":{},\"rounds\":{},\"wall_us\":{:.1},\"segments\":{{{}}},\"timeline\":[{}]}}",
            self.op.0 & !CLIENT_OP_BIT,
            self.op.1,
            self.node,
            self.register,
            self.rounds,
            self.wall_us,
            segs.join(","),
            timeline.join(",")
        )
    }
}

/// The result of stitching a set of ring dumps.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Operations the client saw complete (a `ClientSend`/`ClientRecv`
    /// pair in some client ring).
    pub completed: usize,
    /// Completed ops that stitched into a full causal timeline.
    pub stitched: Vec<StitchedOp>,
    /// Completed ops that could not be stitched (events overwritten by
    /// the ring).
    pub incomplete: usize,
    /// Total effect-before-cause violations across all stitched ops.
    pub violations: u64,
}

impl TraceReport {
    /// Fraction of completed ops that stitched fully.
    pub fn coverage(&self) -> f64 {
        if self.completed == 0 {
            return 1.0;
        }
        self.stitched.len() as f64 / self.completed as f64
    }

    /// The worst per-op attribution error among stitched ops.
    pub fn max_attribution_error(&self) -> f64 {
        self.stitched
            .iter()
            .map(StitchedOp::attribution_error)
            .fold(0.0, f64::max)
    }

    /// Records every stitched op's segments into `trace.<segment>_us`
    /// histograms on `registry`.
    pub fn record_segments(&self, registry: &Registry) {
        let hists: Vec<_> = SEGMENTS
            .iter()
            .map(|name| registry.histogram(&format!("trace.{name}_us")))
            .collect();
        for op in &self.stitched {
            for (hist, us) in hists.iter().zip(op.segments) {
                hist.record(us.round() as u64);
            }
        }
    }

    /// The `n` slowest stitched ops by wall clock, slowest first.
    pub fn slowest(&self, n: usize) -> Vec<&StitchedOp> {
        let mut ops: Vec<&StitchedOp> = self.stitched.iter().collect();
        ops.sort_by(|a, b| b.wall_us.total_cmp(&a.wall_us).then(a.op.cmp(&b.op)));
        ops.truncate(n);
        ops
    }

    /// Human-readable coverage header.
    pub fn render_summary(&self) -> String {
        format!(
            "stitched {}/{} completed ops ({:.2}% coverage), {} incomplete, {} causality violation(s)\n",
            self.stitched.len(),
            self.completed,
            self.coverage() * 100.0,
            self.incomplete,
            self.violations,
        )
    }

    /// The `n` slowest ops' stitched timelines, rendered for humans.
    pub fn render_exemplars(&self, n: usize) -> String {
        let mut out = String::new();
        for op in self.slowest(n) {
            out.push_str(&op.render());
        }
        out
    }

    /// The `n` slowest ops as a JSON array (the CI artifact payload).
    pub fn exemplars_json(&self, n: usize) -> String {
        let body: Vec<String> = self.slowest(n).iter().map(|op| op.to_json()).collect();
        format!("[{}]", body.join(","))
    }
}

/// Per-op accumulator gathered from every ring in one pass.
#[derive(Default)]
struct OpAcc {
    send: Option<(u64, u16)>,
    recv: Option<(u64, u16)>,
    start: Option<u64>,
    /// The coordinator's `OpComplete`: `(t, rounds the automaton ran)`.
    complete: Option<(u64, u64)>,
    register: u16,
    /// Coordinator `RoundSent`s: `(t, peer, nonce)`.
    sends: Vec<(u64, u16, u64)>,
    /// Coordinator `AckRecv`s: `(t, peer, nonce)`.
    acks: Vec<(u64, u16, u64)>,
    /// Replica `ReqRecv`s: `(ring, t, nonce)`.
    req_recvs: Vec<(usize, u64, u64)>,
    /// Replica `AckSent`s: `(ring, t, nonce)`.
    ack_sents: Vec<(usize, u64, u64)>,
    /// `StoreQueued`/`StoreDurable`: `(ring, t, durable?, token)`.
    stores: Vec<(usize, u64, bool, u64)>,
    /// Everything, for the rendered timeline: `(ring, event)`.
    all: Vec<(usize, FlightEvent)>,
}

/// Counts effects stamped before their causes: one clock, no slack.
#[derive(Default)]
struct CausalityCheck {
    violations: u64,
}

impl CausalityCheck {
    /// Asserts the event at `cause` did not come after the one at
    /// `effect`.
    fn check(&mut self, cause: u64, effect: u64) {
        if effect < cause {
            self.violations += 1;
        }
    }
}

/// Stitches labeled ring dumps into per-op causal timelines. See the
/// module docs for the clock and the attribution scheme.
pub fn stitch(rings: &[RingDump]) -> TraceReport {
    let mut ops: HashMap<(u16, u64), OpAcc> = HashMap::new();
    for (ri, ring) in rings.iter().enumerate() {
        for ev in &ring.events {
            // Traced ops accumulate across rings.
            let Some(op) = ev.op else { continue };
            if op.0 & CLIENT_OP_BIT == 0 {
                continue;
            }
            let acc = ops.entry(op).or_default();
            acc.all.push((ri, *ev));
            match ev.kind {
                EventKind::ClientSend => {
                    acc.send = Some((ev.at_micros, ev.aux as u16));
                }
                EventKind::ClientRecv => {
                    acc.recv = Some((ev.at_micros, ev.aux as u16));
                }
                EventKind::OpStart => {
                    acc.start = Some(ev.at_micros);
                    acc.register = ev.register;
                }
                EventKind::OpComplete => {
                    acc.complete = Some((ev.at_micros, ev.aux));
                }
                EventKind::RoundSent => {
                    let (peer, nonce, _) = unpack_wire_aux(ev.aux);
                    acc.sends.push((ev.at_micros, peer, nonce));
                }
                EventKind::AckRecv => {
                    let (peer, nonce, _) = unpack_wire_aux(ev.aux);
                    acc.acks.push((ev.at_micros, peer, nonce));
                }
                EventKind::ReqRecv => {
                    let (_, nonce, _) = unpack_wire_aux(ev.aux);
                    acc.req_recvs.push((ri, ev.at_micros, nonce));
                }
                EventKind::AckSent => {
                    let (_, nonce, _) = unpack_wire_aux(ev.aux);
                    acc.ack_sents.push((ri, ev.at_micros, nonce));
                }
                EventKind::StoreQueued => {
                    acc.stores.push((ri, ev.at_micros, false, ev.aux));
                }
                EventKind::StoreDurable => {
                    acc.stores.push((ri, ev.at_micros, true, ev.aux));
                }
                _ => {}
            }
        }
    }

    let mut report = TraceReport::default();
    let mut op_keys: Vec<(u16, u64)> = ops
        .iter()
        .filter(|(_, acc)| acc.send.is_some() && acc.recv.is_some())
        .map(|(k, _)| *k)
        .collect();
    op_keys.sort_unstable();
    report.completed = op_keys.len();

    for key in op_keys {
        match stitch_op(key, &ops[&key], rings) {
            Some(op) => {
                report.violations += op.violations;
                report.stitched.push(op);
            }
            None => report.incomplete += 1,
        }
    }
    report
}

/// Stitches one completed op, or `None` when its timeline has holes.
fn stitch_op(key: (u16, u64), acc: &OpAcc, rings: &[RingDump]) -> Option<StitchedOp> {
    let (t_send, node) = acc.send?;
    let (t_recv, _) = acc.recv?;
    let t_start = acc.start?;
    let (t_complete, rounds_run) = acc.complete?;

    let mut check = CausalityCheck::default();
    check.check(t_send, t_start);
    check.check(t_start, t_complete);
    check.check(t_complete, t_recv);

    // Group the coordinator's rounds by nonce, ordered by first send.
    let mut rounds: Vec<(u64, u64)> = Vec::new(); // (first_send, nonce)
    let mut first_send_to: HashMap<(u64, u16), u64> = HashMap::new();
    for &(t, peer, nonce) in &acc.sends {
        match rounds.iter_mut().find(|(_, n)| *n == nonce) {
            Some(r) => r.0 = r.0.min(t),
            None => rounds.push((t, nonce)),
        }
        let slot = first_send_to.entry((nonce, peer)).or_insert(u64::MAX);
        *slot = (*slot).min(t);
    }
    rounds.sort_unstable();
    // An operation answered under the coordinator's tag lease ran no
    // round, and its client and coordinator segments are all of it; one
    // that ran some and shows none has holes.
    if rounds.is_empty() && rounds_run != 0 {
        return None;
    }

    let wall_us = t_recv.saturating_sub(t_send) as f64;
    let coord_busy = t_complete.saturating_sub(t_start) as f64;
    let mut segments = [0.0f64; SEGMENTS.len()];
    segments[0] = (wall_us - coord_busy).max(0.0); // client_queue
    let mut rounds_local = 0.0f64;

    for (i, &(first_send, nonce)) in rounds.iter().enumerate() {
        // The round's phase boundary: the next round's first send, or
        // completion. The last ack at or before it closed the round.
        let boundary = rounds.get(i + 1).map_or(t_complete, |r| r.0);
        let (t_close, critical) = acc
            .acks
            .iter()
            .filter(|&&(t, _, n)| n == nonce && t <= boundary)
            .map(|&(t, peer, _)| (t, peer))
            .max()?;
        let crit_ring = rings.iter().position(|r| r.pid == critical)?;
        let t_req = acc
            .req_recvs
            .iter()
            .filter(|&&(r, _, n)| r == crit_ring && n == nonce)
            .map(|&(_, t, _)| t)
            .min()?;
        let t_ack = acc
            .ack_sents
            .iter()
            .filter(|&&(r, t, n)| r == crit_ring && n == nonce && t >= t_req)
            .map(|&(_, t, _)| t)
            .min()?;
        let t_send_crit = first_send_to
            .get(&(nonce, critical))
            .copied()
            .unwrap_or(first_send);

        check.check(t_send_crit, t_req);
        check.check(t_req, t_ack);
        check.check(t_ack, t_close);
        check.check(t_close, t_complete);

        // Store waits on the critical replica inside this round.
        let mut store_us = 0.0f64;
        for &(r, tq, durable, token) in &acc.stores {
            if r != crit_ring || durable || tq < t_req || tq > t_ack {
                continue;
            }
            if let Some(&(_, td, _, _)) = acc
                .stores
                .iter()
                .find(|&&(r2, _, d2, tok2)| r2 == r && d2 && tok2 == token)
            {
                check.check(tq, td);
                store_us += td.saturating_sub(tq).min(t_ack.saturating_sub(tq)) as f64;
            }
        }

        // Telescoping split (module docs): round-trip minus the critical
        // replica's busy time is pure wire time, apportioned out/back by
        // the one clock; clamping keeps the sum exact.
        let round_local = t_close.saturating_sub(first_send) as f64;
        let replica_busy = t_ack.saturating_sub(t_req) as f64;
        let wire_total = (round_local - replica_busy).max(0.0);
        let wire_out = (t_req as f64 - t_send_crit as f64).clamp(0.0, wire_total);
        let store_us = store_us.min(replica_busy);
        segments[2] += wire_out; // wire_out
        segments[3] += replica_busy - store_us; // replica_compute
        segments[4] += store_us; // store_wait
        segments[5] += wire_total - wire_out; // wire_back
        rounds_local += round_local;
    }
    segments[1] = (coord_busy - rounds_local).max(0.0); // coord_compute

    // The merged timeline, in time order.
    let mut timeline: Vec<TimelineEntry> = acc
        .all
        .iter()
        .map(|&(r, event)| TimelineEntry {
            ring: rings[r].label.clone(),
            event,
        })
        .collect();
    timeline.sort_by(|x, y| {
        x.event
            .at_micros
            .cmp(&y.event.at_micros)
            .then_with(|| x.ring.cmp(&y.ring))
            .then(x.event.seq.cmp(&y.event.seq))
    });

    Some(StitchedOp {
        op: key,
        node,
        register: acc.register,
        rounds: rounds.len(),
        wall_us,
        segments,
        violations: check.violations,
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::pack_wire_aux;

    /// Builds a synthetic two-round write: client c0 → coordinator p0,
    /// one SnReq-style round and one Write-style round, replica p1 on
    /// the critical path both times, with a store wait in round 2.
    fn synthetic() -> Vec<RingDump> {
        let op = (CLIENT_OP_BIT, 7u64);
        let ev = |kind, at_micros: u64, aux: u64| {
            FlightEvent {
                at_micros,
                aux,
                ..FlightEvent::new(kind)
            }
            .with_op(op.0, op.1)
        };
        // Client: send 100, recv 1000.
        let client = vec![
            ev(EventKind::ClientSend, 100, 0),
            ev(EventKind::ClientRecv, 1000, 0),
        ];
        // Coordinator p0: start 150, round1 200..400, round2 450..900,
        // complete 950.
        let coord = vec![
            ev(EventKind::OpStart, 150, 0),
            ev(EventKind::RoundSent, 200, pack_wire_aux(1, 11, false)),
            ev(EventKind::AckRecv, 400, pack_wire_aux(1, 11, false)),
            ev(EventKind::RoundSent, 450, pack_wire_aux(1, 12, false)),
            ev(EventKind::AckRecv, 900, pack_wire_aux(1, 12, true)),
            ev(EventKind::OpComplete, 950, 2),
        ];
        // Replica p1: round1 recv 280, ack 320 (wire 80+80); round2 recv
        // 530, ack 820 with a 200us store wait (560..760), wire 80+80.
        let replica = vec![
            ev(EventKind::ReqRecv, 280, pack_wire_aux(0, 11, false)),
            ev(EventKind::AckSent, 320, pack_wire_aux(0, 11, false)),
            ev(EventKind::ReqRecv, 530, pack_wire_aux(0, 12, false)),
            ev(EventKind::StoreQueued, 560, 42),
            ev(EventKind::StoreDurable, 760, 42),
            ev(EventKind::AckSent, 820, pack_wire_aux(0, 12, false)),
        ];
        vec![
            RingDump::client(0, client),
            RingDump::node(0, coord),
            RingDump::node(1, replica),
        ]
    }

    #[test]
    fn stitches_a_synthetic_op_exactly() {
        let report = stitch(&synthetic());
        assert_eq!(report.completed, 1);
        assert_eq!(report.stitched.len(), 1);
        assert_eq!(report.incomplete, 0);
        assert_eq!(report.violations, 0);
        let op = &report.stitched[0];
        assert_eq!(op.rounds, 2);
        assert_eq!(op.wall_us, 900.0);
        // client_queue = 900 - 800 = 100; coord = 800 - (200 + 450) = 150;
        // wire totals = 200 - 40 + 450 - 290 = 320 split evenly out/back;
        // replica = 40 + 90; store = 200.
        let [cq, coord, wout, replica, store, wback] = op.segments;
        assert_eq!(cq, 100.0);
        assert_eq!(coord, 150.0);
        assert_eq!(store, 200.0);
        assert_eq!(replica, 130.0);
        assert_eq!(wout + wback, 320.0);
        assert!(op.attribution_error() < 1e-9, "sum telescopes exactly");
        assert_eq!(op.timeline.len(), 14);
    }

    #[test]
    fn missing_replica_events_mean_incomplete_not_garbage() {
        let mut rings = synthetic();
        rings[2].events.clear(); // replica ring overwritten
        let report = stitch(&rings);
        assert_eq!(report.completed, 1);
        assert_eq!(report.stitched.len(), 0);
        assert_eq!(report.incomplete, 1);
        assert!(report.coverage() < 1.0);
    }

    #[test]
    fn an_operation_of_zero_rounds_is_stitched_from_its_two_segments() {
        // A lease hit: the coordinator answers on the spot.
        let op = (CLIENT_OP_BIT, 7u64);
        let ev = |kind, at_micros: u64, aux: u64| {
            FlightEvent {
                at_micros,
                aux,
                ..FlightEvent::new(kind)
            }
            .with_op(op.0, op.1)
        };
        let rings = |rounds_run| {
            let client = vec![
                ev(EventKind::ClientSend, 100, 0),
                ev(EventKind::ClientRecv, 160, 0),
            ];
            let coord = vec![
                ev(EventKind::OpStart, 120, 0),
                ev(EventKind::OpComplete, 130, rounds_run),
            ];
            vec![RingDump::client(0, client), RingDump::node(0, coord)]
        };
        let report = stitch(&rings(0));
        assert_eq!((report.completed, report.incomplete), (1, 0));
        assert_eq!(report.coverage(), 1.0);
        let op = &report.stitched[0];
        assert_eq!((op.rounds, op.wall_us, op.violations), (0, 60.0, 0));
        assert_eq!(op.segments, [50.0, 10.0, 0.0, 0.0, 0.0, 0.0]);
        assert!(op.attribution_error() < 1e-9);
        // The same events from an operation that did run a round are a
        // timeline with holes, as ever.
        let report = stitch(&rings(1));
        assert_eq!((report.stitched.len(), report.incomplete), (0, 1));
    }

    #[test]
    fn mispaired_events_trip_the_causality_gate() {
        // Each input moves replica events so that an effect precedes its
        // cause — impossible causally — and must be counted: round 1's
        // whole bracket to *after* the coordinator consumed its ack (recv
        // 280→600, ack 320→640, close was 400), or round 2's request
        // arrival to 1us before it was sent (recv 530→449, sent at 450).
        let late_round_1 = |ev: &mut FlightEvent| {
            if unpack_wire_aux(ev.aux).1 == 11 {
                ev.at_micros += 320;
            }
        };
        let early_round_2 = |ev: &mut FlightEvent| {
            if ev.kind == EventKind::ReqRecv && unpack_wire_aux(ev.aux).1 == 12 {
                ev.at_micros = 449;
            }
        };
        for mispair in [late_round_1 as fn(&mut FlightEvent), early_round_2] {
            let mut rings = synthetic();
            rings[2].events.iter_mut().for_each(mispair);
            let report = stitch(&rings);
            assert!(
                report.violations > 0,
                "effect-before-cause must be counted: {}",
                report.render_summary()
            );
        }
    }

    #[test]
    fn exemplars_render_and_serialize() {
        let report = stitch(&synthetic());
        let text = report.render_exemplars(3);
        assert!(text.contains("client_queue"), "{text}");
        assert!(text.contains("timeline:"));
        let json = report.exemplars_json(3);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"segments\""));
        let summary = report.render_summary();
        assert!(summary.contains("coverage"));
    }

    #[test]
    fn segments_flow_into_registry_histograms() {
        let report = stitch(&synthetic());
        let reg = Registry::new();
        report.record_segments(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("trace.store_wait_us").count, 1);
        assert!(snap.histogram("trace.client_queue_us").percentile(0.5) >= 100);
    }
}
