//! Shared helpers for the cross-crate integration tests in this
//! directory (each test binary compiles its own copy and uses a subset).

#![allow(dead_code)]

use std::sync::Arc;

use rmem_sim::{ClusterConfig, Schedule, SimReport, Simulation};
use rmem_types::AutomatonFactory;

/// Runs `factory`'s algorithm on a default `n`-process cluster under
/// `schedule` with the given seed and returns the report.
pub fn run_scheduled(
    n: usize,
    factory: Arc<dyn AutomatonFactory>,
    schedule: Schedule,
    seed: u64,
) -> SimReport {
    Simulation::new(ClusterConfig::new(n), factory, seed)
        .with_schedule(schedule)
        .run()
}

/// Read values (as `u32`s, `None` for ⊥) of completed reads, in
/// invocation order.
pub fn read_values(report: &SimReport) -> Vec<Option<u32>> {
    report
        .trace
        .operations()
        .iter()
        .filter(|o| o.kind == rmem_types::OpKind::Read && o.is_completed())
        .map(|o| o.result.as_ref().unwrap().read_value().unwrap().as_u32())
        .collect()
}
