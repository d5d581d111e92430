//! Counts read through accessors the program already exports
//! (`LocalCluster::metrics` / `storage_counters`, `KvClient::stats` /
//! `metrics`), as deltas over a window and per completed key operation.
//!
//! Three of them are the benchmark's bounded end-to-end metrics: the
//! paper prices its emulations in communication steps and causal logs per
//! operation, and on a two-core sandbox whose wall clock swings by tens of
//! percent from minute to minute these are the costs of an operation that
//! repeat.

use rmem_kv::KvOpStats;
use rmem_net::LocalCluster;
use rmem_obs::HistogramSnapshot;
use rmem_types::ProcessId;

use crate::workload::Driver;

pub type Metrics = Vec<(&'static str, f64)>;

/// The program's own counters, summed over nodes and client families.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    msgs_out: u64,
    stores_durable: u64,
    stores: u64,
    bytes: u64,
    commits: u64,
    fsyncs: u64,
    kv: KvOpStats,
    /// Samples and sum of the families' `kv.pipeline_depth` histograms.
    depth_count: u64,
    depth_sum: u64,
}

pub fn snapshot(cluster: &LocalCluster, drivers: &[Driver<'_>]) -> Counters {
    let mut c = Counters::default();
    for pid in ProcessId::all(cluster.len()) {
        let m = cluster.metrics(pid);
        c.msgs_out += m.counter("runner.msgs_out");
        c.stores_durable += m.counter("runner.stores_durable");
        let s = cluster.storage_counters(pid);
        c.stores += s.stores();
        c.bytes += s.bytes();
        c.commits += s.commits();
        c.fsyncs += s.fsyncs();
    }
    for d in drivers {
        let s = d.stats();
        c.kv.reads += s.reads;
        c.kv.read_rounds += s.read_rounds;
        c.kv.fast_reads += s.fast_reads;
        c.kv.writes += s.writes;
        c.kv.write_rounds += s.write_rounds;
        c.kv.retries += s.retries;
        c.kv.lease_hits += s.lease_hits;
        c.kv.lease_revocations += s.lease_revocations;
        let depth = d.kv.metrics().histogram("kv.pipeline_depth");
        c.depth_count += depth.count;
        c.depth_sum += depth.sum;
    }
    c
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The window between two snapshots.
pub struct Delta<'a> {
    pub before: &'a Counters,
    pub after: &'a Counters,
    /// Key operations the drivers completed in the window.
    pub key_ops: u64,
}

impl Delta<'_> {
    fn kv(&self, field: fn(&KvOpStats) -> u64) -> u64 {
        field(&self.after.kv) - field(&self.before.kv)
    }

    fn per_op(&self, field: fn(&Counters) -> u64) -> f64 {
        ratio(field(self.after) - field(self.before), self.key_ops)
    }

    /// The bounded end-to-end costs of an operation, in the paper's own
    /// currency: quorum round trips per register read, and per register
    /// operation of either kind, as the client counted them (a lease hit
    /// is a read of 0 rounds); and records logged durably per key
    /// operation (the causal logs, at every replica).
    pub fn end_to_end(&self) -> Metrics {
        let (reads, writes) = (self.kv(|s| s.reads), self.kv(|s| s.writes));
        let (read_rounds, write_rounds) = (self.kv(|s| s.read_rounds), self.kv(|s| s.write_rounds));
        vec![
            ("rounds_per_get", ratio(read_rounds, reads)),
            (
                "rounds_per_op",
                ratio(read_rounds + write_rounds, reads + writes),
            ),
            ("stores_per_op", self.per_op(|c| c.stores_durable)),
        ]
    }

    /// Protocol messages the runners sent per key operation,
    /// retransmissions included — which is why it is not bounded: an
    /// operation that outlives the 2 ms retransmit timer sends more, so on
    /// the UDP+WAL rows the count follows the host's latency phases.
    pub fn msgs_per_op(&self) -> f64 {
        self.per_op(|c| c.msgs_out)
    }

    pub fn per_layer(&self, cluster: &LocalCluster) -> Metrics {
        let reads = self.kv(|s| s.reads);
        let mut commit = HistogramSnapshot::default();
        for pid in ProcessId::all(cluster.len()) {
            commit.merge(&cluster.metrics(pid).histogram("syncer.commit_micros"));
        }
        let (before, after) = (self.before, self.after);
        vec![
            ("net.msgs_per_op", self.msgs_per_op()),
            (
                "net.commit_p50_us",
                if commit.is_empty() {
                    0.0
                } else {
                    commit.percentile(0.5) as f64
                },
            ),
            ("storage.fsyncs_per_op", self.per_op(|c| c.fsyncs)),
            ("storage.bytes_per_op", self.per_op(|c| c.bytes)),
            (
                "storage.stores_per_commit",
                ratio(after.stores - before.stores, after.commits - before.commits),
            ),
            (
                "kv.fast_read_share",
                ratio(self.kv(|s| s.fast_reads), reads),
            ),
            (
                "kv.lease_hit_share",
                ratio(self.kv(|s| s.lease_hits), reads),
            ),
            (
                "kv.lease_revocations_per_put",
                ratio(self.kv(|s| s.lease_revocations), self.kv(|s| s.writes)),
            ),
            (
                "kv.retries_per_op",
                ratio(self.kv(|s| s.retries), self.key_ops),
            ),
            (
                "kv.depth_mean",
                // A restarted family starts its histogram over; a window
                // that spans one reads as no samples, not a negative count.
                ratio(
                    after.depth_sum.saturating_sub(before.depth_sum),
                    after.depth_count.saturating_sub(before.depth_count),
                ),
            ),
        ]
    }
}
