//! Flavor: the configuration space of the shared register machinery.

/// What a process does on recovery, beyond restoring its replica state
/// from the newer of its `written` and `writing` records.
///
/// This is the paper's part of recovery: what the process owes its *own*
/// past. It is not all of it — a flavor with
/// [`read_fast_path`](Flavor::read_fast_path) on also catches up on what
/// the majority did meanwhile, beside whichever policy is chosen here and
/// before the process serves; see that field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Restore volatile state only (crash-stop baseline and ablations).
    Nothing,
    /// Re-run the propagation round for the logged `writing` record before
    /// serving (persistent, Fig. 4 lines 40–47).
    FinishWrite,
    /// Increment and log the stable recovery counter before serving
    /// (transient, Fig. 5 lines 16–22).
    RecCounter,
    /// As [`RecCounter`](RecoveryPolicy::RecCounter), then query a majority
    /// for the highest sequence number to re-seed the writer-local counter
    /// (regular register: its writes skip the query round, so recovery
    /// must re-learn the write frontier).
    RecCounterAndQuery,
}

/// Configuration of one register algorithm over the shared machinery.
///
/// The four published flavors are [`persistent`](Flavor::persistent),
/// [`transient`](Flavor::transient), [`crash_stop`](Flavor::crash_stop)
/// and [`regular`](Flavor::regular); the [`crate::ablation`] module adds
/// deliberately broken ones for the lower-bound demonstrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flavor {
    /// Algorithm name used in traces and experiment labels.
    pub name: &'static str,
    /// Replicas log adopted values (`written` record) before
    /// acknowledging. `false` only for the crash-stop baseline.
    pub replica_logs: bool,
    /// Writes start with a sequence-number query round (Fig. 4 lines
    /// 7–10). `false` for the single-writer regular register, whose writer
    /// numbers writes locally.
    pub write_query_round: bool,
    /// The writer logs the `writing` record before propagating (Fig. 4
    /// line 12) — the second causal log that buys persistent atomicity.
    /// The record also serves as the writer's own replica record.
    pub write_pre_log: bool,
    /// Fold the stable recovery counter into new sequence numbers (Fig. 5
    /// line 11).
    pub rec_in_timestamp: bool,
    /// Reads run a second, write-back round before returning (Fig. 4
    /// lines 36–38). `false` for the regular register (and the no-read-log
    /// ablation), which returns straight after the query round.
    pub read_write_back: bool,
    /// The confirmed-timestamp read optimisation: when every replier in
    /// the read quorum reports the *same* tag **and** attests it durable,
    /// the write-back round is provably redundant (a majority already
    /// holds the tag on stable storage, so no later quorum can miss it)
    /// and the read completes after one round. Repliers that disagree —
    /// or report a volatile tag — fall back to the unmodified two-round
    /// path. Inert when [`read_write_back`](Flavor::read_write_back) is
    /// already `false`.
    ///
    /// Unanimity is fragile under crash-recovery: the paper's recovery
    /// (Fig. 4 lines 40–47, Fig. 5 lines 16–22) restores a process from
    /// its own log and never asks what it missed, so one recovered, stale
    /// replica disagrees in every quorum it joins and the cluster is back
    /// on two-round reads until write-backs repair it register by
    /// register. The fast path therefore comes with a **recovery
    /// catch-up**: beside its [`RecoveryPolicy`] phase, a recovering
    /// process runs one read query round (the ordinary `Read` message)
    /// and, if the quorum's best tag is not durable here yet, its replica
    /// adopts the pair. When a majority of the *other* processes attested
    /// that very tag durable, it is on a majority of logs already and the
    /// replica takes their word for it — durable here, no store;
    /// otherwise, once that can no longer happen or one retransmit period
    /// after the majority answered, the replica adopts it as it would a
    /// delayed `Write`, logging it. The process turns ready — and starts
    /// what was invoked meanwhile — only once that is done. So a recovered
    /// replica serves its first operation on a register only after
    /// holding, durably or on a majority's attestation, every write to it
    /// that completed before its recovery began. One round per register;
    /// one log only when it was behind and no majority vouched; no extra
    /// message type, no separate switch. With this field `false` there is
    /// no unanimity to restore
    /// and recovery is exactly the figures'. (A register first created
    /// while the process was down catches up when something first names
    /// it, not when the restart ends: the process cannot know it exists.)
    ///
    /// The fast path also makes every operation round **thrifty**: its
    /// first send goes to this process and the `majority − 1` peers that
    /// completed the node's last quorum, and only a retransmission widens
    /// it to all `n` — so a write is logged on a majority, not on every
    /// replica, and a read through the coordinator that wrote asks the
    /// replicas the write reached (see [`crate::generic`]). With this
    /// field `false` every round goes to all `n`, as in the figures.
    pub read_fast_path: bool,
    /// Tag-lease duration in microseconds (0 = leasing disabled, the
    /// default for every published flavor). When non-zero — and the
    /// [`read_fast_path`](Flavor::read_fast_path) is on — replicas
    /// attach a lease grant of this length to durable read acks,
    /// addressed to the process that read, and withhold acknowledgements
    /// of newer writes *from every other process* until the horizons
    /// they granted pass; a coordinator whose fast-path read collected a
    /// unanimous granted quorum serves repeated reads of that register
    /// locally (zero rounds) until the lease expires or a newer tag is
    /// observed. A write it begins itself takes the lease out of service
    /// before the write's first message leaves — which is what entitles
    /// that write to pass its own grants without waiting — uses it in
    /// place of the query round (one round, not two) and hands it on to
    /// the tag it wrote, under the horizon it had; and a lease that was
    /// in use renews itself 7/8 into its term, while it still serves,
    /// with a read round no client waits for, so what renews is decided
    /// by observed use, not by a knob. The lease lives at that coordinator and nowhere else: no
    /// grant rides a completion out to a client. See `with_lease`,
    /// [`crate::replica`] and [`crate::generic`].
    pub lease_micros: u64,
    /// Recovery behaviour.
    pub recovery: RecoveryPolicy,
}

impl Flavor {
    /// Paper Fig. 4: persistent atomicity, 2 causal logs per write, 1 per
    /// read. A write spends a majority of durable records — the
    /// coordinator's `writing` pre-log plus one `written` record at each
    /// *other* replica its thrifty propagation round reaches (see
    /// [`read_fast_path`](Flavor::read_fast_path); `n` with the fast path
    /// off, when every round goes to all); the pre-log doubles as the
    /// coordinator's own replica record.
    pub const fn persistent() -> Flavor {
        Flavor {
            name: "persistent",
            replica_logs: true,
            write_query_round: true,
            write_pre_log: true,
            rec_in_timestamp: false,
            read_write_back: true,
            read_fast_path: true,
            lease_micros: 0,
            recovery: RecoveryPolicy::FinishWrite,
        }
    }

    /// Paper Fig. 5: transient atomicity, 1 causal log per write, 1 per
    /// read.
    pub const fn transient() -> Flavor {
        Flavor {
            name: "transient",
            replica_logs: true,
            write_query_round: true,
            write_pre_log: false,
            rec_in_timestamp: true,
            read_write_back: true,
            read_fast_path: true,
            lease_micros: 0,
            recovery: RecoveryPolicy::RecCounter,
        }
    }

    /// The log-free crash-stop baseline.
    pub const fn crash_stop() -> Flavor {
        Flavor {
            name: "crash-stop",
            replica_logs: false,
            write_query_round: true,
            write_pre_log: false,
            rec_in_timestamp: false,
            read_write_back: true,
            // The baseline keeps the paper's fixed 4-step reads so the
            // logging-cost comparisons measure logs, not round counts.
            read_fast_path: false,
            lease_micros: 0,
            recovery: RecoveryPolicy::Nothing,
        }
    }

    /// The §VI single-writer regular register: 1 causal log per write,
    /// log-free single-round reads.
    pub const fn regular() -> Flavor {
        Flavor {
            name: "regular",
            replica_logs: true,
            write_query_round: false,
            write_pre_log: false,
            rec_in_timestamp: true,
            read_write_back: false,
            // Already single-round; the knob is inert.
            read_fast_path: false,
            lease_micros: 0,
            recovery: RecoveryPolicy::RecCounterAndQuery,
        }
    }

    /// Communication steps per write (each quorum round is one round-trip
    /// = 2 steps).
    pub fn write_comm_steps(&self) -> u32 {
        if self.write_query_round {
            4
        } else {
            2
        }
    }

    /// Communication steps per read — the worst case. With the fast path
    /// this is still the bound: disagreement or volatile tags fall back to
    /// the full write-back.
    pub fn read_comm_steps(&self) -> u32 {
        if self.read_write_back {
            4
        } else {
            2
        }
    }

    /// Communication steps of a *fast-path* read (quiescent register,
    /// unanimous durable tags): 2 whenever single-round completion is
    /// possible — either the flavor never writes back, or the fast path
    /// may suppress the write-back.
    pub fn fast_read_comm_steps(&self) -> u32 {
        if self.read_write_back && !self.read_fast_path {
            4
        } else {
            2
        }
    }

    /// This flavor with the read fast path switched on/off — the legacy
    /// (always-write-back) configuration used as the benchmark baseline
    /// and exercised by CI so the fallback path cannot rot.
    pub const fn with_read_fast_path(self, enabled: bool) -> Flavor {
        Flavor {
            read_fast_path: enabled,
            ..self
        }
    }

    /// This flavor with hot-key tag leasing enabled: durable read acks
    /// carry a grant of `micros` µs, and replicas fence newer writes
    /// behind the grants outstanding to anyone but the writer. `0`
    /// disables leasing (the default).
    ///
    /// Leasing piggybacks on the fast path's durability attestation, so
    /// it is inert unless [`read_fast_path`](Flavor::read_fast_path) is
    /// also on — see [`leases`](Flavor::leases).
    pub const fn with_lease(self, micros: u64) -> Flavor {
        Flavor {
            lease_micros: micros,
            ..self
        }
    }

    /// Whether this flavor actually grants/honors tag leases: a non-zero
    /// term on a fast-path-capable flavor.
    pub const fn leases(&self) -> bool {
        self.lease_micros > 0 && self.read_fast_path && self.read_write_back
    }

    /// The worst-case causal logs per write this flavor performs — the
    /// quantity the paper's Theorem 1 bounds.
    pub fn causal_logs_per_write(&self) -> u32 {
        let mut logs = 0;
        if self.write_pre_log {
            logs += 1;
        }
        if self.replica_logs {
            logs += 1;
        }
        logs
    }

    /// The worst-case causal logs per read (Theorem 2's bound): the
    /// write-back's replica logs, when it adopts.
    pub fn causal_logs_per_read(&self) -> u32 {
        u32::from(self.read_write_back && self.replica_logs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_flavors_match_paper_log_counts() {
        assert_eq!(Flavor::persistent().causal_logs_per_write(), 2);
        assert_eq!(Flavor::persistent().causal_logs_per_read(), 1);
        assert_eq!(Flavor::transient().causal_logs_per_write(), 1);
        assert_eq!(Flavor::transient().causal_logs_per_read(), 1);
        assert_eq!(Flavor::crash_stop().causal_logs_per_write(), 0);
        assert_eq!(Flavor::crash_stop().causal_logs_per_read(), 0);
        assert_eq!(Flavor::regular().causal_logs_per_write(), 1);
        assert_eq!(Flavor::regular().causal_logs_per_read(), 0);
    }

    #[test]
    fn comm_steps_match_paper() {
        // "Our algorithms use the same number of communication steps as
        // [2], namely 4 for any operation."
        for f in [
            Flavor::persistent(),
            Flavor::transient(),
            Flavor::crash_stop(),
        ] {
            assert_eq!(f.write_comm_steps(), 4, "{}", f.name);
            assert_eq!(f.read_comm_steps(), 4, "{}", f.name);
        }
        // The regular register halves both.
        assert_eq!(Flavor::regular().write_comm_steps(), 2);
        assert_eq!(Flavor::regular().read_comm_steps(), 2);
    }

    #[test]
    fn fast_path_defaults_and_step_counts() {
        // On for the crash-recovery atomic flavors, inert/off elsewhere.
        assert!(Flavor::persistent().read_fast_path);
        assert!(Flavor::transient().read_fast_path);
        assert!(!Flavor::crash_stop().read_fast_path);
        assert!(!Flavor::regular().read_fast_path);
        // The fast path halves the best-case read without moving the
        // worst-case bound.
        for f in [Flavor::persistent(), Flavor::transient()] {
            assert_eq!(f.read_comm_steps(), 4, "{}", f.name);
            assert_eq!(f.fast_read_comm_steps(), 2, "{}", f.name);
            let legacy = f.with_read_fast_path(false);
            assert_eq!(legacy.fast_read_comm_steps(), 4, "{}", f.name);
            assert_eq!(legacy.with_read_fast_path(true), f);
        }
        assert_eq!(Flavor::regular().fast_read_comm_steps(), 2);
        assert_eq!(Flavor::crash_stop().fast_read_comm_steps(), 4);
    }

    #[test]
    fn leasing_is_off_by_default_and_gated_on_the_fast_path() {
        for f in [
            Flavor::persistent(),
            Flavor::transient(),
            Flavor::crash_stop(),
            Flavor::regular(),
        ] {
            assert_eq!(f.lease_micros, 0, "{}", f.name);
            assert!(!f.leases(), "{}", f.name);
        }
        let leased = Flavor::persistent().with_lease(2_000);
        assert!(leased.leases());
        assert_eq!(leased.with_lease(0), Flavor::persistent());
        // A lease term on a flavor without the fast path (or without a
        // write-back to suppress) is inert, not a different algorithm.
        assert!(!Flavor::crash_stop().with_lease(2_000).leases());
        assert!(!Flavor::regular().with_lease(2_000).leases());
        assert!(!leased.with_read_fast_path(false).leases());
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Flavor::persistent().name,
            Flavor::transient().name,
            Flavor::crash_stop().name,
            Flavor::regular().name,
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
