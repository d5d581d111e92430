//! The paper's lower bounds (§IV-A), demonstrated executably: running an
//! algorithm that *skips* one of the required causal logs through the
//! proof runs ρ1 (Fig. 2, Theorem 1) and ρ4 (Fig. 3, Theorem 2) produces
//! checker-certified atomicity violations — while the intact algorithms
//! sail through the very same adversary schedules.

use std::sync::Arc;

mod common;
use common::{read_values, run_scheduled};

use rmem_bench::scenarios;
use rmem_consistency::{check_persistent, check_transient};
use rmem_core::{ablation, FlavorFactory, Persistent, Transient, DEFAULT_RETRANSMIT};

fn ablated(flavor: rmem_core::Flavor) -> Arc<FlavorFactory> {
    Arc::new(FlavorFactory::new(flavor, DEFAULT_RETRANSMIT))
}

/// Theorem 1 (ρ1): with only one causal log per write — no writer pre-log,
/// no recovery completion, no `rec` counter — the recovered writer reuses
/// sequence number 2 for a different value, and reads observe the
/// confused values `v2, v3, v2`.
#[test]
fn rho1_without_pre_log_violates_both_criteria() {
    let report = run_scheduled(3, ablated(ablation::no_pre_log()), scenarios::rho1(), 1);
    let reads = read_values(&report);
    assert_eq!(
        reads,
        vec![Some(2), Some(3), Some(2)],
        "the confused-values read pattern"
    );
    let h = report.trace.to_history();
    assert!(
        check_persistent(&h).is_err(),
        "Theorem 1: persistent atomicity must fail"
    );
    assert!(
        check_transient(&h).is_err(),
        "the orphan tag breaks even transient atomicity"
    );
}

/// The same run under the intact persistent algorithm: the pre-log +
/// recovery completion close the hole.
#[test]
fn rho1_with_persistent_algorithm_is_atomic() {
    let report = run_scheduled(3, Persistent::factory(), scenarios::rho1(), 1);
    let h = report.trace.to_history();
    check_persistent(&h).expect("the intact persistent algorithm survives ρ1");
}

/// And under the intact transient algorithm: the `rec` counter (Fig. 5
/// line 11) keeps the recovered writer's tags unique, exactly as §IV-C
/// argues.
#[test]
fn rho1_with_transient_algorithm_is_atomic() {
    let report = run_scheduled(3, Transient::factory(), scenarios::rho1(), 1);
    let h = report.trace.to_history();
    check_transient(&h).expect("the rec counter protects the transient algorithm on ρ1");
}

/// Removing only the `rec` counter from the transient algorithm re-opens
/// the ρ1 hole — the counter is load-bearing, not belt-and-braces.
#[test]
fn rho1_without_rec_counter_violates_transient_atomicity() {
    let report = run_scheduled(3, ablated(ablation::no_rec_counter()), scenarios::rho1(), 1);
    let h = report.trace.to_history();
    assert!(
        check_transient(&h).is_err(),
        "without rec the tag collision returns"
    );
}

/// Theorem 2 (ρ4): with log-free reads (no write-back round), the reader
/// returns `v2`, crashes, recovers, and returns `v1` — a new-old
/// inversion across its crash.
#[test]
fn rho4_without_read_write_back_violates_both_criteria() {
    let report = run_scheduled(
        3,
        ablated(ablation::no_read_write_back()),
        scenarios::rho4(),
        2,
    );
    let reads = read_values(&report);
    assert_eq!(
        reads,
        vec![Some(2), Some(1)],
        "the ρ4 inversion: v2 then v1"
    );
    let h = report.trace.to_history();
    assert!(
        check_persistent(&h).is_err(),
        "Theorem 2: persistent atomicity must fail"
    );
    assert!(check_transient(&h).is_err(), "and transient atomicity too");
}

/// The same run with the real read (1 causal log in its write-back): the
/// first read pushes `v2` into a majority before returning, so the second
/// read cannot miss it.
#[test]
fn rho4_with_persistent_algorithm_is_atomic() {
    // ρ4's message pattern is the figures' broadcasts: pinned to them.
    let verbatim = ablated(Persistent::flavor().with_read_fast_path(false));
    let report = run_scheduled(3, verbatim, scenarios::rho4(), 2);
    let h = report.trace.to_history();
    check_persistent(&h).expect("the read write-back protects the intact algorithm on ρ4");
    let reads = read_values(&report);
    // Both reads return v2 — the write-back made it stick.
    assert_eq!(reads, vec![Some(2), Some(2)]);
    // The shipped flavor's thrifty reads ask another majority than ρ4's
    // reader does: they miss the partial write of v2, and stay atomic.
    let report = run_scheduled(3, Persistent::factory(), scenarios::rho4(), 2);
    let h = report.trace.to_history();
    check_persistent(&h).expect("thrifty rounds keep ρ4 atomic");
    assert_eq!(read_values(&report), vec![Some(1), Some(1)]);
}

/// Sanity check on the flavor arithmetic backing the bounds table.
#[test]
fn ablations_save_exactly_the_forbidden_log() {
    assert_eq!(rmem_core::Flavor::persistent().causal_logs_per_write(), 2);
    assert_eq!(ablation::no_pre_log().causal_logs_per_write(), 1);
    assert_eq!(rmem_core::Flavor::persistent().causal_logs_per_read(), 1);
    assert_eq!(ablation::no_read_write_back().causal_logs_per_read(), 0);
}
