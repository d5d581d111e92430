//! # rmem-obs — observability for the rmem stack
//!
//! A dependency-free (std-only) observability layer with two lock-free
//! primitives, threaded through every runtime crate:
//!
//! * the **metrics registry** ([`Registry`]) — atomic [`Counter`]s,
//!   [`Gauge`]s and power-of-two log-bucketed [`Histogram`]s, resolved
//!   by name once at setup and updated with relaxed atomics on the hot
//!   path; snapshots ([`MetricsSnapshot`]) are mergeable and serialize
//!   to JSON;
//! * the **flight recorder** ([`FlightRecorder`]) — a bounded lock-free
//!   ring of structured [`FlightEvent`]s (`OpStart`, `RoundSent`,
//!   `AckRecv`, `GroupCommit`, `Halt`, …) with monotonic timestamps on
//!   one clock per process, dumpable as human-readable timelines or JSON
//!   when something goes wrong, and stitched across the rings of one
//!   process into per-operation causal timelines ([`trace`]).
//!
//! An [`ObsHandle`] bundles one of each — the unit of instrumentation a
//! node or client carries. [`ObsHandle::disabled`] is the uninstrumented
//! baseline the bench harness compares against to enforce the ≤3%
//! overhead invariant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod recorder;
pub mod trace;

pub use metrics::{
    bucket_of, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot,
    Registry, BUCKETS,
};
pub use recorder::{
    pack_wire_aux, sort_events, unpack_wire_aux, EventKind, FlightEvent, FlightRecorder,
    CLIENT_OP_BIT,
};

use std::sync::Arc;

/// One component's observability: a metrics registry plus a flight
/// recorder. Cheap to clone (both sides are `Arc`-backed); clones share
/// the same metrics and ring.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    /// The metrics registry.
    pub metrics: Registry,
    /// The flight recorder.
    pub flight: Arc<FlightRecorder>,
}

impl ObsHandle {
    /// A fresh, enabled handle with the default ring capacity.
    pub fn new() -> Self {
        ObsHandle {
            metrics: Registry::new(),
            flight: Arc::new(FlightRecorder::default()),
        }
    }

    /// A fresh handle with an explicit ring capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        ObsHandle {
            metrics: Registry::new(),
            flight: Arc::new(FlightRecorder::new(capacity)),
        }
    }

    /// The uninstrumented baseline: the registry reports disabled (so
    /// latency timing is skipped) and the recorder drops every event.
    pub fn disabled() -> Self {
        ObsHandle {
            metrics: Registry::disabled(),
            flight: Arc::new(FlightRecorder::disabled()),
        }
    }

    /// Whether this handle observes anything expensive.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled()
    }
}
