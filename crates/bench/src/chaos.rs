//! The `--chaos` scenario: the combined chaos matrix
//! ([`rmem_kv::run_chaos`]) as a benchmark/CI gate.
//!
//! Each seed runs the full experiment — seeded node kill/recover windows
//! with torn-WAL-tail recoveries, client crashes after a planned number
//! of outputs — on a real-threaded
//! cluster, then certifies every surviving history (including the
//! exactly-once duplicate-application check) and resolves every crashed
//! client's ops to a definite verdict. The smoke variant shrinks the
//! cluster and the horizon for CI; the full variant runs the 50-node
//! default config.
//!
//! On a failed oracle the scenario surfaces the seed plus the
//! flight-recorder dumps and stitched causal trace carried by
//! [`rmem_kv::ChaosFailure`] — the bin writes them to the artifact path
//! so CI can upload the postmortem.

use std::time::Duration;

use rmem_kv::{run_chaos, ChaosConfig, ChaosFailure, ChaosReport};

/// Seeds the scenario sweeps (both variants).
pub const CHAOS_SEEDS: std::ops::Range<u64> = 0..3;

/// The per-variant chaos configuration for `seed`.
///
/// The smoke variant: a 12-node cluster and a 350 ms fault horizon —
/// sized for a CI runner. The full variant is the matrix's 50-node
/// default.
pub fn chaos_config(seed: u64, smoke: bool) -> ChaosConfig {
    let scratch = std::env::temp_dir().join(format!("rmem-chaosbench-{}", std::process::id()));
    if smoke {
        ChaosConfig {
            seed,
            nodes: 12,
            wal_every: 3,
            writers: 2,
            ops_per_writer: 8,
            crashers: 3,
            windows: 3,
            max_concurrent_down: 2,
            horizon: Duration::from_millis(350),
            scratch,
            ..ChaosConfig::default()
        }
    } else {
        ChaosConfig {
            seed,
            scratch,
            ..ChaosConfig::default()
        }
    }
}

/// One seed's row of the scenario output.
#[derive(Debug)]
pub struct ChaosRow {
    /// The underlying run report.
    pub report: ChaosReport,
    /// Nodes in the run's cluster (from the config, for the row).
    pub nodes: usize,
    /// The store's shard count.
    pub shards: u16,
}

impl ChaosRow {
    /// The row's JSON object for the benchmark output.
    pub fn to_json(&self) -> String {
        format!(
            "  {{\"scenario\": \"chaos\", \"time\": \"wall\", \"seed\": {}, \"nodes\": {}, \
             \"shards\": {}, \"completed\": {}, \"ambiguous\": {}, \"faults\": {}, \
             \"torn_tails\": {}, \"verdicts\": {}, \"certified_keys\": {}, \"retries\": {}}}",
            self.report.seed,
            self.nodes,
            self.shards,
            self.report.completed,
            self.report.ambiguous,
            self.report.faults_applied,
            self.report.torn_tails,
            self.report.verdicts.len(),
            self.report.certified_keys,
            self.report.retries,
        )
    }
}

/// Runs the scenario's seed sweep. Every seed must pass its oracle; the
/// first failure aborts the sweep and carries the postmortem evidence.
///
/// # Errors
///
/// The failing seed's [`ChaosFailure`] (message + flight-recorder dumps
/// + stitched trace).
pub fn chaos_scenario(smoke: bool) -> Result<Vec<ChaosRow>, Box<ChaosFailure>> {
    CHAOS_SEEDS
        .map(|seed| {
            let cfg = chaos_config(seed, smoke);
            run_chaos(&cfg).map(|report| ChaosRow {
                report,
                nodes: cfg.nodes,
                shards: cfg.shards,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_chaos_seed_certifies_and_serializes() {
        let cfg = chaos_config(1, true);
        let report = run_chaos(&cfg).unwrap_or_else(|f| panic!("{f}\n{}", f.dumps));
        assert!(report.completed > 0);
        assert_eq!(report.certified_keys, 4);
        let row = ChaosRow {
            report,
            nodes: cfg.nodes,
            shards: cfg.shards,
        };
        let json = row.to_json();
        assert!(json.contains("\"scenario\": \"chaos\""));
        assert!(json.contains("\"shards\": 4"));
    }
}
