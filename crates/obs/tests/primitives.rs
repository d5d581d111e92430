//! Property and contention coverage for the observability primitives:
//! histogram bucket boundaries and merges, ring-buffer wraparound and
//! ordering, and multi-threaded runs asserting no lost counter
//! increments and no torn events.

use proptest::prelude::*;
use rmem_obs::trace::{stitch, RingDump};
use rmem_obs::{
    bucket_of, bucket_upper_bound, pack_wire_aux, Counter, EventKind, FlightEvent, FlightRecorder,
    Histogram, MetricsSnapshot, Registry, BUCKETS, CLIENT_OP_BIT,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

proptest! {
    /// Every value lands in exactly the bucket whose bounds contain it.
    #[test]
    fn bucket_bounds_contain_their_values(v in any::<u64>()) {
        let b = bucket_of(v);
        prop_assert!(b < BUCKETS);
        prop_assert!(v <= bucket_upper_bound(b));
        if b > 0 && b < BUCKETS - 1 {
            prop_assert!(v > bucket_upper_bound(b - 1));
        }
    }

    /// Bucketing is monotone: a larger value never lands in a smaller
    /// bucket.
    #[test]
    fn bucketing_is_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(bucket_of(lo) <= bucket_of(hi));
    }

    /// Merging two histograms is exactly recording both value sets into
    /// one, and percentiles bound the true quantiles from above.
    #[test]
    fn merge_equals_combined_recording(
        xs in prop::collection::vec(0u64..1_000_000, 1..200),
        ys in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let (ha, hb, hc) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &x in &xs { ha.record(x); hc.record(x); }
        for &y in &ys { hb.record(y); hc.record(y); }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        prop_assert_eq!(&merged, &hc.snapshot());
        prop_assert_eq!(merged.count, (xs.len() + ys.len()) as u64);

        // Nearest-rank sanity against the sorted data: the reported
        // bucket bound is ≥ the true quantile and < 2× above it.
        let mut all: Vec<u64> = xs.iter().chain(ys.iter()).copied().collect();
        all.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
            let truth = all[rank - 1];
            let reported = merged.percentile(q);
            prop_assert!(reported >= truth, "p{q}: reported {reported} < true {truth}");
            prop_assert!(reported <= truth.saturating_mul(2).max(1),
                "p{q}: reported {reported} > 2x true {truth}");
        }
    }

    /// Percentiles are monotone in the quantile.
    #[test]
    fn percentiles_are_monotone(xs in prop::collection::vec(any::<u64>(), 1..100)) {
        let h = Histogram::new();
        for &x in &xs { h.record(x); }
        let s = h.snapshot();
        let mut prev = 0u64;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let p = s.percentile(q);
            prop_assert!(p >= prev);
            prev = p;
        }
    }

    /// The ring keeps exactly the newest `capacity` events, in recording
    /// order, whatever the overflow factor.
    #[test]
    fn wraparound_keeps_newest_in_order(cap_pow in 3u32..8, total in 1usize..600) {
        let cap = 1usize << cap_pow;
        let rec = FlightRecorder::new(cap);
        for i in 0..total as u64 {
            rec.record(FlightEvent::new(EventKind::OpStart).with_op(1, i).with_aux(i ^ 0xabcd));
        }
        let dump = rec.dump();
        prop_assert_eq!(dump.len(), total.min(cap));
        let first = total.saturating_sub(cap) as u64;
        for (k, ev) in dump.iter().enumerate() {
            let expect = first + k as u64;
            prop_assert_eq!(ev.op, Some((1, expect)));
            prop_assert_eq!(ev.aux, expect ^ 0xabcd);
        }
        prop_assert_eq!(rec.dropped(), total.saturating_sub(cap) as u64);
    }
}

/// Hammer one counter and one histogram from many threads: relaxed RMW
/// increments must not lose a single update.
#[test]
fn contended_counters_lose_nothing() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;
    let reg = Registry::new();
    let counter: Arc<Counter> = reg.counter("hits");
    let hist = reg.histogram("vals");
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let counter = counter.clone();
            let hist = hist.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    hist.record((t as u64) << 32 | i);
                }
            });
        }
    });
    let expect = THREADS as u64 * PER_THREAD;
    assert_eq!(counter.get(), expect);
    let snap = reg.snapshot();
    assert_eq!(snap.counter("hits"), expect);
    assert_eq!(snap.histogram("vals").count, expect);
    let bucket_total: u64 = snap.histogram("vals").buckets.iter().sum();
    assert_eq!(bucket_total, expect, "bucket counts must add up exactly");
}

/// Merge semantics per metric class: counters *add*, gauges take the
/// *max*, histograms add *bucket-wise* (count, sum, and every bucket).
#[test]
fn snapshot_merge_adds_counters_maxes_gauges_adds_histograms() {
    let (ra, rb) = (Registry::new(), Registry::new());
    ra.counter("ops").add(7);
    rb.counter("ops").add(5);
    ra.gauge("depth").set(3);
    rb.gauge("depth").set(9);
    for v in [10, 20] {
        ra.histogram("lat").record(v);
    }
    for v in [20, 1_000] {
        rb.histogram("lat").record(v);
    }

    let mut merged = ra.snapshot();
    merged.merge(&rb.snapshot());
    assert_eq!(merged.counter("ops"), 12, "counters add");
    assert_eq!(merged.gauge("depth"), 9, "gauges take the max");
    let h = merged.histogram("lat");
    assert_eq!(h.count, 4);
    assert_eq!(h.sum, 1_050);
    assert_eq!(h.buckets[bucket_of(20)], 2, "shared bucket adds");
    assert_eq!(h.buckets[bucket_of(1_000)], 1);
    // Max, not sum: merging the other way yields the same gauge.
    let mut rev = rb.snapshot();
    rev.merge(&ra.snapshot());
    assert_eq!(rev.gauge("depth"), 9);
    assert_eq!(rev, merged, "add/max/bucket-add are all commutative here");
}

/// Disjoint names union: nothing in one snapshot perturbs the other's
/// entries, and absent names read as zero/empty rather than erroring.
#[test]
fn snapshot_merge_disjoint_names_is_a_union() {
    let (ra, rb) = (Registry::new(), Registry::new());
    ra.counter("a.only").add(1);
    ra.histogram("a.lat").record(5);
    rb.counter("b.only").add(2);
    rb.gauge("b.depth").set(4);

    let mut merged = ra.snapshot();
    merged.merge(&rb.snapshot());
    assert_eq!(merged.counter("a.only"), 1);
    assert_eq!(merged.counter("b.only"), 2);
    assert_eq!(merged.gauge("b.depth"), 4);
    assert_eq!(merged.histogram("a.lat").count, 1);
    assert_eq!(merged.counters.len(), 2);
    // Absent names are zero/empty, not panics.
    assert_eq!(merged.counter("nope"), 0);
    assert_eq!(merged.gauge("nope"), 0);
    assert!(merged.histogram("nope").is_empty());
}

/// Empty snapshots are the identity of `merge`, on both sides.
#[test]
fn snapshot_merge_empty_is_identity() {
    let reg = Registry::new();
    reg.counter("ops").add(3);
    reg.gauge("depth").set(2);
    reg.histogram("lat").record(42);
    let base = reg.snapshot();

    let mut left = base.clone();
    left.merge(&MetricsSnapshot::default());
    assert_eq!(left, base, "merging an empty snapshot changes nothing");

    let mut right = MetricsSnapshot::default();
    right.merge(&base);
    assert_eq!(right, base, "merging into an empty snapshot copies it");

    let mut both = MetricsSnapshot::default();
    both.merge(&MetricsSnapshot::default());
    assert_eq!(both, MetricsSnapshot::default());
}

/// Hammer the ring from many threads while a reader dumps concurrently:
/// every event that survives into a dump must be internally consistent
/// (no torn mixes of two writers' payloads), and a quiesced dump holds
/// exactly the last `capacity` events.
#[test]
fn contended_ring_yields_no_torn_events() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 20_000;
    // Writers tag each event so consistency is checkable per event:
    // op = (thread, i), aux must equal thread * 1e9 + i.
    let check = |ev: &FlightEvent| {
        let (t, i) = ev.op.expect("writer always sets an op");
        assert!(
            u64::from(t) < THREADS && i < PER_THREAD,
            "bogus fields: {ev:?}"
        );
        assert_eq!(
            ev.aux,
            u64::from(t) * 1_000_000_000 + i,
            "torn event: payload words from different writers: {ev:?}"
        );
    };
    let rec = Arc::new(FlightRecorder::new(1024));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let rec = rec.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    rec.record(
                        FlightEvent::new(EventKind::RoundSent)
                            .with_op(t as u16, i)
                            .with_aux(t * 1_000_000_000 + i),
                    );
                }
            });
        }
        // Concurrent reader: whatever it sees must be well-formed.
        let rec2 = rec.clone();
        scope.spawn(move || {
            for _ in 0..50 {
                for ev in rec2.dump() {
                    check(&ev);
                }
                std::thread::yield_now();
            }
        });
    });
    // Quiesced: the ring holds its full capacity of valid events and
    // accounts for every recording.
    assert_eq!(rec.total_recorded(), THREADS * PER_THREAD);
    let dump = rec.dump();
    assert_eq!(dump.len(), rec.capacity());
    for ev in &dump {
        check(ev);
    }
}

/// Lap two undersized rings from concurrent writers while a stitcher
/// repeatedly dumps and stitches them live: wraparound tears whole ops
/// out of the window mid-read, and the stitcher must degrade those to
/// `incomplete` — never panic, never emit a malformed stitched op. The
/// 64-slot rings wrap hundreds of times during the run, so most dumps
/// catch the writers mid-lap.
#[test]
fn stitcher_rejects_torn_windows_under_wraparound() {
    const OPS: u64 = 20_000;
    let family: u16 = 1 | CLIENT_OP_BIT;
    let client_ring = Arc::new(FlightRecorder::new(64));
    let node_ring = Arc::new(FlightRecorder::new(64));
    let done = Arc::new(AtomicBool::new(false));

    let well_formed = |report: &rmem_obs::trace::TraceReport| {
        assert!(
            (0.0..=1.0).contains(&report.coverage()),
            "coverage out of range: {}",
            report.coverage()
        );
        assert_eq!(
            report.stitched.len() + report.incomplete,
            report.completed,
            "every completed op is either stitched or incomplete"
        );
        for op in &report.stitched {
            assert!(
                op.wall_us.is_finite() && op.wall_us >= 0.0,
                "bogus wall clock"
            );
            for (name, us) in rmem_obs::trace::SEGMENTS.iter().zip(op.segments) {
                assert!(us.is_finite() && us >= 0.0, "segment {name} = {us}");
            }
            assert!(op.attributed_us().is_finite());
            // Timelines stay sorted even when the window was torn.
            for w in op.timeline.windows(2) {
                assert!(
                    w[0].event.at_micros <= w[1].event.at_micros,
                    "timeline out of order"
                );
            }
        }
        // Rendering a torn window must not panic either.
        let _ = report.render_summary();
        let _ = report.render_exemplars(3);
    };

    std::thread::scope(|scope| {
        // The "client": a send/recv bracket per op.
        let cring = client_ring.clone();
        let cdone = done.clone();
        scope.spawn(move || {
            for i in 0..OPS {
                cring.record(
                    FlightEvent::new(EventKind::ClientSend)
                        .with_op(family, i)
                        .with_aux(0),
                );
                cring.record(FlightEvent::new(EventKind::ClientRecv).with_op(family, i));
            }
            cdone.store(true, Ordering::Relaxed);
        });
        // The "coordinator": the matching op bracket plus one wire round,
        // racing the client writer into a different ring.
        let nring = node_ring.clone();
        scope.spawn(move || {
            for i in 0..OPS {
                nring.record(FlightEvent::new(EventKind::OpStart).with_op(family, i));
                nring.record(
                    FlightEvent::new(EventKind::RoundSent)
                        .with_op(family, i)
                        .with_aux(pack_wire_aux(1, i, false)),
                );
                nring.record(
                    FlightEvent::new(EventKind::AckRecv)
                        .with_op(family, i)
                        .with_aux(pack_wire_aux(1, i, true)),
                );
                nring.record(FlightEvent::new(EventKind::OpComplete).with_op(family, i));
            }
        });
        // The stitcher, live against both wrapping rings.
        let (cring, nring) = (client_ring.clone(), node_ring.clone());
        let sdone = done.clone();
        scope.spawn(move || {
            let mut passes = 0u32;
            while !sdone.load(Ordering::Relaxed) || passes < 10 {
                let rings = vec![
                    RingDump::client(family, cring.dump()),
                    RingDump::node(0, nring.dump()),
                ];
                well_formed(&stitch(&rings));
                passes += 1;
                std::thread::yield_now();
            }
        });
    });

    // Quiesced: the surviving window still stitches into a well-formed
    // report, and the laps are visible in the drop counter.
    assert!(
        client_ring.dropped() > 0,
        "the ring must actually have lapped"
    );
    let rings = vec![
        RingDump::client(family, client_ring.dump()),
        RingDump::node(0, node_ring.dump()),
    ];
    well_formed(&stitch(&rings));
}
