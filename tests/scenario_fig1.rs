//! The paper's Fig. 1 as an executable scenario: the same adversary
//! schedule run against the transient and persistent algorithms
//! reproduces the two depicted behaviours, and the checkers assign
//! exactly the verdicts the figure illustrates.

use std::sync::Arc;

use rmem_bench::scenarios;
use rmem_consistency::{check_persistent, check_transient};
use rmem_core::{Flavor, FlavorFactory, DEFAULT_RETRANSMIT};
use rmem_types::OpKind;

mod common;
use common::{read_values, run_scheduled};

/// The figure's message pattern is the figures' broadcasts: `flavor` with
/// the fast path — and so thrifty rounds — off.
fn verbatim(flavor: Flavor) -> Arc<FlavorFactory> {
    Arc::new(FlavorFactory::new(
        flavor.with_read_fast_path(false),
        DEFAULT_RETRANSMIT,
    ))
}

/// Fig. 1 (left): under the transient algorithm the two reads during
/// W(v3) return v1 then v2 — the overlapping-write anomaly. Transient
/// atomicity accepts the history (W(v2)'s reply is weakly completed into
/// W(v3)'s window); persistent atomicity rejects it.
#[test]
fn fig1_transient_run_shows_the_overlapping_write() {
    let report = run_scheduled(3, verbatim(Flavor::transient()), scenarios::fig1(), 7);
    assert_eq!(
        read_values(&report),
        vec![Some(1), Some(2)],
        "the figure's read pattern: v1 then v2 during W(v3)"
    );
    let h = report.trace.to_history();
    check_transient(&h).expect("Fig. 1 left is transient-atomic");
    assert!(
        check_persistent(&h).is_err(),
        "Fig. 1 left violates persistent atomicity by definition"
    );
}

/// Fig. 1 (right): under the persistent algorithm the same schedule shows
/// no overlap. Here the crash lands before the writer's pre-log, so v2
/// simply never happened; both reads return v1, and the history is
/// persistent-atomic.
#[test]
fn fig1_persistent_run_is_clean() {
    let report = run_scheduled(3, verbatim(Flavor::persistent()), scenarios::fig1(), 7);
    let h = report.trace.to_history();
    check_persistent(&h).expect("the persistent algorithm satisfies its criterion on Fig. 1");
    let reads = read_values(&report);
    assert_eq!(reads.len(), 2);
    assert!(
        reads.iter().all(|r| *r == Some(1)) || reads.iter().all(|r| *r == Some(3)),
        "no overlap: both reads agree on a completed write, got {reads:?}"
    );
}

/// The W(v3) write completes in both runs (the figure draws it finishing
/// after the reads), and the unfinished W(v2) stays pending in the
/// history.
#[test]
fn fig1_run_shape_matches_the_figure() {
    let report = run_scheduled(3, verbatim(Flavor::transient()), scenarios::fig1(), 7);
    let ops = report.trace.operations();
    let writes: Vec<_> = ops.iter().filter(|o| o.kind == OpKind::Write).collect();
    assert_eq!(writes.len(), 3);
    assert!(writes[0].is_completed(), "W(v1) completes");
    assert!(!writes[1].is_completed(), "W(v2) is cut off by the crash");
    assert!(writes[2].is_completed(), "W(v3) completes");
    // W(v3) replies after both reads, as drawn.
    let w3_done = writes[2].completed_at.unwrap();
    for read in ops.iter().filter(|o| o.kind == OpKind::Read) {
        assert!(
            read.completed_at.unwrap() < w3_done,
            "reads finish inside W(v3)'s window"
        );
    }
    assert_eq!(report.trace.crashes, 1);
    assert_eq!(report.trace.recoveries, 1);
}
