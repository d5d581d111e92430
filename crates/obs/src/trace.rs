//! Cross-node **causal trace stitching**: merges the per-node flight
//! recorder rings plus the client ring into one global timeline per
//! operation, aligning the rings' independent clocks along the way.
//!
//! ## Clock alignment
//!
//! Every [`FlightRecorder`](crate::FlightRecorder) timestamps events
//! against its own creation instant, so two rings disagree by an unknown
//! constant offset. Matched send/receive event pairs give us NTP-style
//! round-trip quadruples `(t1, t2, t3, t4)` — request leaves A, arrives
//! at B, reply leaves B, arrives at A — from which the offset of B's
//! clock relative to A's is estimated as the round-trip midpoint
//! `θ = ((t2 − t1) + (t3 − t4)) / 2`, with error bounded by half the
//! round trip: `|θ − θ_true| ≤ rtt / 2` where
//! `rtt = (t4 − t1) − (t3 − t2)`. The best (smallest-bound) sample per
//! ring pair seeds a spanning tree rooted at the client ring; offsets
//! and error bounds accumulate along tree paths.
//!
//! Wire quadruples come from `RoundSent → ReqRecv → AckSent → AckRecv`
//! matched by peer and round nonce; client/coordinator quadruples from
//! `ClientSend → OpStart → OpComplete → ClientRecv` matched by trace op.
//!
//! ## The causal-ordering invariant
//!
//! After correction, **no effect may precede its cause by more than the
//! accumulated error bound** of the two rings involved. Any stitch that
//! violates this is rejected and counted — the trace bench gates on zero
//! violations, so a bug in event pairing (or a broken clock model) fails
//! loudly instead of producing quietly nonsensical attributions.
//!
//! ## Attribution
//!
//! Each completed op decomposes into six named segments (see
//! [`SEGMENTS`]) that telescope: cross-clock offsets cancel within every
//! bracket, so the segment sum equals the client-observed wall clock
//! exactly, up to clamping of negative sub-microsecond artifacts. A large
//! attribution error therefore *means* a mis-stitched op, which is why
//! the bench asserts the per-op sum stays within 5% of wall clock. An op
//! its coordinator answered in **zero rounds** (a read under a tag lease:
//! `OpComplete` carries the round count) is whole with the first two.

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

/// Slack added to every cross-ring causality comparison on top of the
/// accumulated offset error bounds, absorbing microsecond truncation of
/// the raw timestamps.
const QUANTIZATION_SLACK_US: f64 = 2.0;

/// One recorder's dump, labeled with its identity.
#[derive(Debug, Clone)]
pub struct RingDump {
    /// Human-readable ring label (`p3`, `c1`).
    pub label: String,
    /// The ring's identity: a node [`ProcessId`] value, or a
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

    fn is_client(&self) -> bool {
        self.pid & CLIENT_OP_BIT != 0
    }
}

/// A ring's place in the aligned clock model.
#[derive(Debug, Clone)]
pub struct RingOffset {
    /// The ring's label.
    pub label: String,
    /// Microseconds to add to the ring's local timestamps to express
    /// them in the reference ring's frame.
    pub offset_us: f64,
    /// Accumulated error bound of that offset (sum of `rtt/2` along the
    /// spanning-tree path to the reference).
    pub err_us: f64,
    /// Whether the ring was reachable from the reference at all. An
    /// unreachable ring keeps offset 0 and its ops count as unstitched.
    pub reachable: bool,
}

/// One event placed on an op's stitched timeline.
#[derive(Debug, Clone)]
pub struct TimelineEntry {
    /// Which ring recorded it.
    pub ring: String,
    /// The event's corrected time in the reference frame.
    pub corrected_us: f64,
    /// The raw event.
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
    /// Effect-before-cause violations detected in this op's stitch
    /// (beyond the accumulated error bounds).
    pub violations: u64,
    /// The merged cross-ring timeline, corrected and ordered.
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
        let t0 = self.timeline.first().map(|e| e.corrected_us).unwrap_or(0.0);
        for entry in &self.timeline {
            out.push_str(&format!(
                "    [+{:>9.1}us] {:<3} {}\n",
                entry.corrected_us - t0,
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
                    e.corrected_us,
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
    /// Per-ring clock model.
    pub offsets: Vec<RingOffset>,
    /// Operations the client saw complete (a `ClientSend`/`ClientRecv`
    /// pair in some client ring).
    pub completed: usize,
    /// Completed ops that stitched into a full causal timeline.
    pub stitched: Vec<StitchedOp>,
    /// Completed ops that could not be stitched (events overwritten by
    /// the ring, or their ring unreachable in the clock graph).
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

    /// The largest accumulated clock error bound of any reachable ring.
    pub fn max_clock_err_us(&self) -> f64 {
        self.offsets
            .iter()
            .filter(|o| o.reachable)
            .map(|o| o.err_us)
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

    /// Human-readable clock model + coverage header.
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "stitched {}/{} completed ops ({:.2}% coverage), {} incomplete, {} causality violation(s)\n",
            self.stitched.len(),
            self.completed,
            self.coverage() * 100.0,
            self.incomplete,
            self.violations,
        );
        for o in &self.offsets {
            if o.reachable {
                out.push_str(&format!(
                    "  ring {:<4} offset {:>+9.1}us (±{:.1}us)\n",
                    o.label, o.offset_us, o.err_us
                ));
            } else {
                out.push_str(&format!("  ring {:<4} unreachable\n", o.label));
            }
        }
        out
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

/// An offset sample between two rings, from one RTT quadruple.
struct Sample {
    a: usize,
    b: usize,
    /// Estimated offset of ring `b`'s clock relative to ring `a`'s:
    /// `t_in_a_frame ≈ t_b_local − theta`.
    theta: f64,
    err: f64,
}

fn quadruple(t1: u64, t2: u64, t3: u64, t4: u64) -> Option<(f64, f64)> {
    if t4 < t1 || t3 < t2 {
        return None;
    }
    let rtt = (t4 - t1) as f64 - (t3 - t2) as f64;
    if rtt < 0.0 {
        return None;
    }
    let theta = ((t2 as f64 - t1 as f64) + (t3 as f64 - t4 as f64)) / 2.0;
    Some((theta, rtt / 2.0))
}

/// Per-op accumulator gathered from every ring in one pass.
#[derive(Default)]
struct OpAcc {
    client_ring: Option<usize>,
    send: Option<(u64, u16)>,
    recv: Option<(u64, u16)>,
    coord_ring: Option<usize>,
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

struct CausalityCheck {
    violations: u64,
    slack: Vec<f64>,
    corr: Vec<f64>,
}

impl CausalityCheck {
    /// Asserts `cause` (on ring `ra`, local time `ta`) precedes `effect`
    /// (ring `rb`, time `tb`) up to the rings' accumulated error bounds.
    fn check(&mut self, ra: usize, ta: u64, rb: usize, tb: u64) {
        let cause = ta as f64 + self.corr[ra];
        let effect = tb as f64 + self.corr[rb];
        let slack = if ra == rb {
            0.0
        } else {
            self.slack[ra] + self.slack[rb] + QUANTIZATION_SLACK_US
        };
        if effect + slack < cause {
            self.violations += 1;
        }
    }
}

/// Stitches labeled ring dumps into per-op causal timelines. See the
/// module docs for the clock model and the attribution scheme.
pub fn stitch(rings: &[RingDump]) -> TraceReport {
    let ring_of: HashMap<u16, usize> = rings.iter().enumerate().map(|(i, r)| (r.pid, i)).collect();

    // ---- index wire events per ring for clock samples --------------
    // Keyed by (peer pid, nonce) → earliest local time. Earliest wins:
    // retransmits reuse the nonce, and the earliest matched pair is the
    // tightest bound.
    let mut round_sent: Vec<HashMap<(u16, u64), u64>> = vec![HashMap::new(); rings.len()];
    let mut ack_recv: Vec<HashMap<(u16, u64), u64>> = vec![HashMap::new(); rings.len()];
    let mut req_recv: Vec<HashMap<(u16, u64), u64>> = vec![HashMap::new(); rings.len()];
    let mut ack_sent: Vec<HashMap<(u16, u64), u64>> = vec![HashMap::new(); rings.len()];
    let mut ops: HashMap<(u16, u64), OpAcc> = HashMap::new();

    for (ri, ring) in rings.iter().enumerate() {
        for ev in &ring.events {
            let table = match ev.kind {
                EventKind::RoundSent => Some(&mut round_sent),
                EventKind::AckRecv => Some(&mut ack_recv),
                EventKind::ReqRecv => Some(&mut req_recv),
                EventKind::AckSent => Some(&mut ack_sent),
                _ => None,
            };
            if let Some(table) = table {
                let (peer, nonce, _) = unpack_wire_aux(ev.aux);
                let slot = table[ri].entry((peer, nonce)).or_insert(u64::MAX);
                *slot = (*slot).min(ev.at_micros);
            }

            // Traced ops accumulate across rings.
            let Some(op) = ev.op else { continue };
            if op.0 & CLIENT_OP_BIT == 0 {
                continue;
            }
            let acc = ops.entry(op).or_default();
            acc.all.push((ri, *ev));
            match ev.kind {
                EventKind::ClientSend => {
                    acc.client_ring = Some(ri);
                    acc.send = Some((ev.at_micros, ev.aux as u16));
                }
                EventKind::ClientRecv => {
                    acc.recv = Some((ev.at_micros, ev.aux as u16));
                }
                EventKind::OpStart => {
                    acc.coord_ring = Some(ri);
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

    // ---- clock samples ---------------------------------------------
    let mut samples: Vec<Sample> = Vec::new();
    for (a, sent) in round_sent.iter().enumerate() {
        for (&(peer, nonce), &t1) in sent {
            let Some(&b) = ring_of.get(&peer) else {
                continue;
            };
            if a == b {
                continue;
            }
            let (Some(&t2), Some(&t3), Some(&t4)) = (
                req_recv[b].get(&(rings[a].pid, nonce)),
                ack_sent[b].get(&(rings[a].pid, nonce)),
                ack_recv[a].get(&(peer, nonce)),
            ) else {
                continue;
            };
            if let Some((theta, err)) = quadruple(t1, t2, t3, t4) {
                samples.push(Sample { a, b, theta, err });
            }
        }
    }
    for acc in ops.values() {
        let (Some(ca), Some((t1, _)), Some((t4, _)), Some(cb), Some(t2), Some(t3)) = (
            acc.client_ring,
            acc.send,
            acc.recv,
            acc.coord_ring,
            acc.start,
            acc.complete.map(|(t, _)| t),
        ) else {
            continue;
        };
        if ca == cb {
            continue;
        }
        if let Some((theta, err)) = quadruple(t1, t2, t3, t4) {
            samples.push(Sample {
                a: ca,
                b: cb,
                theta,
                err,
            });
        }
    }

    // Best sample per unordered ring pair, then a BFS spanning tree from
    // the reference ring (the first client ring, else ring 0). A BTreeMap
    // keeps tie-breaking (equal error bounds) deterministic.
    let mut best: std::collections::BTreeMap<(usize, usize), (f64, f64)> =
        std::collections::BTreeMap::new();
    for s in &samples {
        let (key, theta) = if s.a < s.b {
            ((s.a, s.b), s.theta)
        } else {
            ((s.b, s.a), -s.theta)
        };
        let entry = best.entry(key).or_insert((theta, f64::INFINITY));
        if s.err < entry.1 {
            *entry = (theta, s.err);
        }
    }
    let reference = rings.iter().position(RingDump::is_client).unwrap_or(0);
    let mut corr = vec![0.0f64; rings.len()];
    let mut slack = vec![0.0f64; rings.len()];
    let mut reachable = vec![false; rings.len()];
    if !rings.is_empty() {
        reachable[reference] = true;
        let mut queue = std::collections::VecDeque::from([reference]);
        while let Some(cur) = queue.pop_front() {
            for (&(a, b), &(theta, err)) in &best {
                let (next, signed_theta) = if a == cur {
                    (b, theta)
                } else if b == cur {
                    (a, -theta)
                } else {
                    continue;
                };
                if reachable[next] {
                    continue;
                }
                // theta estimates next's clock minus cur's: converting a
                // `next`-local time into the reference frame subtracts it
                // on top of cur's own correction.
                corr[next] = corr[cur] - signed_theta;
                slack[next] = slack[cur] + err;
                reachable[next] = true;
                queue.push_back(next);
            }
        }
    }

    let offsets = rings
        .iter()
        .enumerate()
        .map(|(i, r)| RingOffset {
            label: r.label.clone(),
            offset_us: corr[i],
            err_us: slack[i],
            reachable: reachable[i],
        })
        .collect();

    // ---- per-op stitching ------------------------------------------
    let mut report = TraceReport {
        offsets,
        ..TraceReport::default()
    };
    let mut op_keys: Vec<(u16, u64)> = ops
        .iter()
        .filter(|(_, acc)| acc.send.is_some() && acc.recv.is_some())
        .map(|(k, _)| *k)
        .collect();
    op_keys.sort_unstable();
    report.completed = op_keys.len();

    for key in op_keys {
        let acc = &ops[&key];
        match stitch_op(key, acc, rings, &corr, &slack, &reachable) {
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
fn stitch_op(
    key: (u16, u64),
    acc: &OpAcc,
    rings: &[RingDump],
    corr: &[f64],
    slack: &[f64],
    reachable: &[bool],
) -> Option<StitchedOp> {
    let client_ring = acc.client_ring?;
    let coord_ring = acc.coord_ring?;
    let (t_send, node) = acc.send?;
    let (t_recv, _) = acc.recv?;
    let t_start = acc.start?;
    let (t_complete, rounds_run) = acc.complete?;
    if !reachable[client_ring] || !reachable[coord_ring] {
        return None;
    }

    let mut check = CausalityCheck {
        violations: 0,
        slack: slack.to_vec(),
        corr: corr.to_vec(),
    };
    check.check(client_ring, t_send, coord_ring, t_start);
    check.check(coord_ring, t_start, coord_ring, t_complete);
    check.check(coord_ring, t_complete, client_ring, t_recv);

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
        if !reachable[crit_ring] {
            return None;
        }
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

        check.check(coord_ring, t_send_crit, crit_ring, t_req);
        check.check(crit_ring, t_req, crit_ring, t_ack);
        check.check(crit_ring, t_ack, coord_ring, t_close);
        check.check(coord_ring, t_close, coord_ring, t_complete);

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
                check.check(crit_ring, tq, crit_ring, td);
                store_us += td.saturating_sub(tq).min(t_ack.saturating_sub(tq)) as f64;
            }
        }

        // Telescoping split (module docs): round-trip minus the critical
        // replica's busy time is pure wire time, apportioned out/back by
        // the corrected clocks; clamping keeps the sum exact.
        let round_local = t_close.saturating_sub(first_send) as f64;
        let replica_busy = t_ack.saturating_sub(t_req) as f64;
        let wire_total = (round_local - replica_busy).max(0.0);
        let wire_out_raw =
            (t_req as f64 + corr[crit_ring]) - (t_send_crit as f64 + corr[coord_ring]);
        let wire_out = wire_out_raw.clamp(0.0, wire_total);
        let store_us = store_us.min(replica_busy);
        segments[2] += wire_out; // wire_out
        segments[3] += replica_busy - store_us; // replica_compute
        segments[4] += store_us; // store_wait
        segments[5] += wire_total - wire_out; // wire_back
        rounds_local += round_local;
    }
    segments[1] = (coord_busy - rounds_local).max(0.0); // coord_compute

    // The merged timeline, corrected into the reference frame.
    let mut timeline: Vec<TimelineEntry> = acc
        .all
        .iter()
        .filter(|(r, _)| reachable[*r])
        .map(|&(r, event)| TimelineEntry {
            ring: rings[r].label.clone(),
            corrected_us: event.at_micros as f64 + corr[r],
            event,
        })
        .collect();
    timeline.sort_by(|x, y| {
        x.corrected_us
            .total_cmp(&y.corrected_us)
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

    /// A base far from zero so negative skews keep timestamps in range.
    const BASE: i64 = 10_000_000;

    /// Builds a synthetic two-round write: client c0 → coordinator p0,
    /// one SnReq-style round and one Write-style round, replica p1 on
    /// the critical path both times, with a store wait in round 2.
    /// `skew` is p1's clock offset and `cskew` the client's, to prove
    /// alignment undoes them.
    fn synthetic(skew: i64, cskew: i64) -> Vec<RingDump> {
        let op = (CLIENT_OP_BIT, 7u64);
        let ev = |kind, t: i64, aux: u64| {
            FlightEvent {
                at_micros: (BASE + t) as u64,
                aux,
                ..FlightEvent::new(kind)
            }
            .with_op(op.0, op.1)
        };
        // Client frame: send 100, recv 1000. Coordinator frame = truth.
        let client = vec![
            ev(EventKind::ClientSend, 100 + cskew, 0),
            ev(EventKind::ClientRecv, 1000 + cskew, 0),
        ];
        // Coordinator p0, true clock: start 150, round1 200..400,
        // round2 450..900, complete 950.
        let coord = vec![
            ev(EventKind::OpStart, 150, 0),
            ev(EventKind::RoundSent, 200, pack_wire_aux(1, 11, false)),
            ev(EventKind::AckRecv, 400, pack_wire_aux(1, 11, false)),
            ev(EventKind::RoundSent, 450, pack_wire_aux(1, 12, false)),
            ev(EventKind::AckRecv, 900, pack_wire_aux(1, 12, true)),
            ev(EventKind::OpComplete, 950, 2),
        ];
        // Replica p1, skewed clock: round1 recv 280, ack 320 (wire
        // 80+80); round2 recv 530, ack 820 with a 200us store wait
        // (560..760), wire 80+80.
        let replica = vec![
            ev(EventKind::ReqRecv, 280 + skew, pack_wire_aux(0, 11, false)),
            ev(EventKind::AckSent, 320 + skew, pack_wire_aux(0, 11, false)),
            ev(EventKind::ReqRecv, 530 + skew, pack_wire_aux(0, 12, false)),
            ev(EventKind::StoreQueued, 560 + skew, 42),
            ev(EventKind::StoreDurable, 760 + skew, 42),
            ev(EventKind::AckSent, 820 + skew, pack_wire_aux(0, 12, false)),
        ];
        vec![
            RingDump::client(0, client),
            RingDump::node(0, coord),
            RingDump::node(1, replica),
        ]
    }

    #[test]
    fn stitches_a_synthetic_op_exactly() {
        let report = stitch(&synthetic(0, 0));
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
    fn clock_skew_is_undone_by_alignment() {
        // Symmetric wire delays mean the midpoint estimate is exact:
        // segment attribution must not change under arbitrary skews.
        for (skew, cskew) in [(100_000i64, -50_000i64), (-3_000, 70_000), (1 << 40, 900)] {
            let report = stitch(&synthetic(skew, cskew));
            assert_eq!(report.stitched.len(), 1, "skew {skew}/{cskew}");
            assert_eq!(report.violations, 0);
            let op = &report.stitched[0];
            assert_eq!(op.segments[0], 100.0);
            assert_eq!(op.segments[4], 200.0);
            assert!(op.attribution_error() < 1e-9);
            // The correction recovers p1's offset relative to the client
            // frame (cskew − skew) within the reported error bound.
            let p1 = report.offsets.iter().find(|o| o.label == "p1").unwrap();
            let truth = (cskew - skew) as f64;
            assert!(
                (p1.offset_us - truth).abs() <= p1.err_us + 1.0,
                "offset {} vs truth {truth} (±{})",
                p1.offset_us,
                p1.err_us
            );
        }
    }

    #[test]
    fn missing_replica_events_mean_incomplete_not_garbage() {
        let mut rings = synthetic(0, 0);
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
        let ev = |kind, t: i64, aux: u64| {
            FlightEvent {
                at_micros: (BASE + t) as u64,
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
        // Shift the replica's whole round-1 bracket to *after* the
        // coordinator consumed its ack — impossible causally. Whichever
        // round anchors the clock edge, the other one's cross-ring pairs
        // now invert beyond the error bounds and must be counted.
        let mut rings = synthetic(0, 0);
        for ev in rings[2].events.iter_mut() {
            if unpack_wire_aux(ev.aux).1 == 11 {
                ev.at_micros += 320; // recv 280→600, ack 320→640, close was 400
            }
        }
        let report = stitch(&rings);
        assert!(
            report.violations > 0,
            "effect-before-cause must be counted: {}",
            report.render_summary()
        );
    }

    #[test]
    fn exemplars_render_and_serialize() {
        let report = stitch(&synthetic(500, -500));
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
        let report = stitch(&synthetic(0, 0));
        let reg = Registry::new();
        report.record_segments(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("trace.store_wait_us").count, 1);
        assert!(snap.histogram("trace.client_queue_us").percentile(0.5) >= 100);
    }
}
