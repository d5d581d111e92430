//! Client-side cluster-health memory.
//!
//! `KvClient` failover is per operation: without shared state, a *wedged*
//! node (alive but unresponsive — the worst case, because only the client
//! timeout detects it) costs every key homed on it a full patience window
//! before failing over, even within one `multi_get`. [`HealthMemory`] is
//! the shared fix: a per-node "recently failed" mark with decay. The first
//! operation to time out on a node marks it; every subsequent operation
//! tries the marked node *last* instead of first — so a wedged node costs
//! one timeout per call rather than one per key. The gate has one
//! consumer: the node rotation every register operation of the client's
//! one driver is given before its first send (`KvClient::rotation`).
//!
//! # Probe gating
//!
//! A decayed mark does not restore the node to full rotation outright: the
//! node first owes one **probe** — a single ordinary operation that one
//! caller (the probe winner, elected by compare-and-swap) routes through
//! it. Everyone else keeps treating the node as suspect until the probe
//! clears it, so a node that is *still* wedged after its cooldown costs
//! the cluster one more patience window, not a whole batch's worth. A
//! successful operation through the node (probe or not) clears all state.
//!
//! Marks are hints, never bans: a fully marked cluster is still tried in
//! home order, and correctness is untouched — the register emulations
//! tolerate operations landing on any node; only tail latency changes.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

/// What the failover rotation should do with a node right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeGate {
    /// Healthy (or already probed back): full rotation.
    Fresh,
    /// Recently failed, cooldown still running: try last.
    Suspect,
    /// Cooldown expired but the node has not served a probe yet: one
    /// caller should win [`HealthMemory::try_begin_probe`] and route a
    /// single operation through it; everyone else treats it as suspect.
    NeedsProbe,
}

const PROBE_NONE: u8 = 0;
const PROBE_OWED: u8 = 1;
const PROBE_IN_FLIGHT: u8 = 2;

/// Shared per-node failure marks with decay and probe gating (see module
/// docs).
///
/// Clones of a `KvClient` share one `HealthMemory` through an `Arc`; all
/// operations, from any thread, read and write the same marks.
pub struct HealthMemory {
    /// The clock marks age on — the client's
    /// ([`World::now`](crate::World::now)), so a hosted client's marks
    /// decay in virtual time. Marks are stored as its micros, offset by 1
    /// so that 0 means "never failed".
    clock: Box<dyn Fn() -> Duration + Send + Sync>,
    cooldown: Duration,
    marks: Vec<AtomicU64>,
    /// Per-node probe state (`PROBE_*`).
    probe: Vec<AtomicU8>,
    /// Failures recorded since construction.
    marks_total: AtomicU64,
    /// Probe operations started since construction.
    probes_total: AtomicU64,
}

impl std::fmt::Debug for HealthMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMemory")
            .field("cooldown", &self.cooldown)
            .field("marks_total", &self.marks_total())
            .finish_non_exhaustive()
    }
}

impl HealthMemory {
    /// Fresh memory for `nodes` nodes with the given mark cooldown, aging
    /// its marks on `clock` (any monotone time since a fixed origin).
    pub fn new(
        nodes: usize,
        cooldown: Duration,
        clock: impl Fn() -> Duration + Send + Sync + 'static,
    ) -> Self {
        HealthMemory {
            clock: Box::new(clock),
            cooldown,
            marks: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            probe: (0..nodes).map(|_| AtomicU8::new(PROBE_NONE)).collect(),
            marks_total: AtomicU64::new(0),
            probes_total: AtomicU64::new(0),
        }
    }

    fn now_micros(&self) -> u64 {
        (self.clock)().as_micros() as u64
    }

    /// Records a failure (timeout / down) of `node`. The node re-owes a
    /// probe even if one was in flight — that probe evidently failed.
    pub fn mark(&self, node: usize) {
        self.marks[node].store(self.now_micros() + 1, Ordering::Relaxed);
        self.probe[node].store(PROBE_OWED, Ordering::Relaxed);
        self.marks_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Clears `node`'s mark and probe debt (a successful operation went
    /// through it).
    pub fn clear(&self, node: usize) {
        self.marks[node].store(0, Ordering::Relaxed);
        self.probe[node].store(PROBE_NONE, Ordering::Relaxed);
    }

    /// Whether `node` failed within the cooldown window.
    pub fn is_suspect(&self, node: usize) -> bool {
        match self.marks[node].load(Ordering::Relaxed) {
            0 => false,
            stamp => {
                let age = self.now_micros().saturating_sub(stamp - 1);
                age < self.cooldown.as_micros() as u64
            }
        }
    }

    /// The failover gate for `node` (see [`NodeGate`]).
    pub fn gate(&self, node: usize) -> NodeGate {
        if self.is_suspect(node) {
            return NodeGate::Suspect;
        }
        match self.probe[node].load(Ordering::Relaxed) {
            PROBE_NONE => NodeGate::Fresh,
            // A decayed mark still owing a probe — and a probe already in
            // flight means this caller is not the winner: stay cautious.
            _ => NodeGate::NeedsProbe,
        }
    }

    /// Tries to become the one caller that routes a probe operation
    /// through a [`NodeGate::NeedsProbe`] node. Returns `true` for exactly
    /// one caller per owed probe; losers keep treating the node as
    /// suspect. The winner's operation clears the node on success
    /// ([`clear`](Self::clear)) or re-marks it on failure
    /// ([`mark`](Self::mark)).
    pub fn try_begin_probe(&self, node: usize) -> bool {
        let won = self.probe[node]
            .compare_exchange(
                PROBE_OWED,
                PROBE_IN_FLIGHT,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok();
        if won {
            self.probes_total.fetch_add(1, Ordering::Relaxed);
        }
        won
    }

    /// Hands a won probe back (the probe operation never conclusively
    /// exercised the node — e.g. a client-side or automaton refusal): the
    /// node owes a probe again and another caller may win it.
    pub fn reopen_probe(&self, node: usize) {
        let _ = self.probe[node].compare_exchange(
            PROBE_IN_FLIGHT,
            PROBE_OWED,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Indices of currently suspect nodes.
    pub fn suspects(&self) -> Vec<usize> {
        (0..self.marks.len())
            .filter(|&i| self.is_suspect(i))
            .collect()
    }

    /// Total failures recorded since construction.
    pub fn marks_total(&self) -> u64 {
        self.marks_total.load(Ordering::Relaxed)
    }

    /// Total probe operations started since construction.
    pub fn probes_total(&self) -> u64 {
        self.probes_total.load(Ordering::Relaxed)
    }

    /// The configured mark cooldown.
    pub fn cooldown(&self) -> Duration {
        self.cooldown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A memory on a clock the test advances by hand (milliseconds).
    fn memory(nodes: usize, cooldown_ms: u64) -> (HealthMemory, impl Fn(u64)) {
        let now = Arc::new(AtomicU64::new(0));
        let clock = now.clone();
        let h = HealthMemory::new(nodes, Duration::from_millis(cooldown_ms), move || {
            Duration::from_millis(clock.load(Ordering::Relaxed))
        });
        (h, move |ms| {
            now.fetch_add(ms, Ordering::Relaxed);
        })
    }

    #[test]
    fn marks_decay_and_clear() {
        let (h, sleep) = memory(3, 20);
        assert!(h.suspects().is_empty());
        h.mark(1);
        assert!(h.is_suspect(1));
        assert!(!h.is_suspect(0));
        assert_eq!(h.suspects(), vec![1]);
        h.clear(1);
        assert!(!h.is_suspect(1));
        h.mark(2);
        sleep(25);
        assert!(!h.is_suspect(2), "marks must decay after the cooldown");
    }

    #[test]
    fn remarking_refreshes_the_window() {
        let (h, sleep) = memory(1, 30);
        h.mark(0);
        sleep(20);
        h.mark(0);
        sleep(15);
        // 35ms after the first mark but only 15ms after the second.
        assert!(h.is_suspect(0));
    }

    #[test]
    fn decayed_mark_owes_exactly_one_probe() {
        let (h, sleep) = memory(2, 5);
        h.mark(0);
        assert_eq!(h.gate(0), NodeGate::Suspect);
        assert_eq!(h.gate(1), NodeGate::Fresh);
        sleep(8);
        // Cooldown decayed: the node is no longer suspect but owes a
        // probe before full rotation.
        assert!(!h.is_suspect(0));
        assert_eq!(h.gate(0), NodeGate::NeedsProbe);
        // Exactly one winner; the loser stays cautious.
        assert!(h.try_begin_probe(0));
        assert!(!h.try_begin_probe(0));
        assert_eq!(h.gate(0), NodeGate::NeedsProbe);
        // Probe success restores full rotation.
        h.clear(0);
        assert_eq!(h.gate(0), NodeGate::Fresh);
        assert_eq!(h.marks_total(), 1);
        assert_eq!(h.probes_total(), 1);
    }

    #[test]
    fn failed_probe_remarks_and_reowes() {
        let (h, sleep) = memory(1, 5);
        h.mark(0);
        sleep(8);
        assert!(h.try_begin_probe(0));
        // The probe operation failed: back to suspect, owing a new probe
        // after the next decay.
        h.mark(0);
        assert_eq!(h.gate(0), NodeGate::Suspect);
        sleep(8);
        assert_eq!(h.gate(0), NodeGate::NeedsProbe);
        assert!(h.try_begin_probe(0));
        assert_eq!(h.marks_total(), 2);
        assert_eq!(h.probes_total(), 2);
    }
}
