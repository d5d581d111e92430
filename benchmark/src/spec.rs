//! The workload shapes the benchmark runs, and the reader of what it
//! declares. Metric names, units, directions, bounds, the workloads'
//! reasons and `run_seconds` live in one place, the repo-root
//! `BENCHMARK.json`; the code loads them from there at run time.

use crate::json::Json;

/// One workload: a 3-node in-process cluster shape plus a closed-loop
/// traffic mix. Every field is an input property the system's behaviour
/// depends on; nothing here names a code path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// UDP loopback sockets + group-commit WAL on disk; otherwise
    /// in-memory channels + memory storage.
    pub udp_wal: bool,
    /// The persistent flavor (two causal logs per write, Fig. 4);
    /// otherwise transient (one, Fig. 5).
    pub persistent: bool,
    /// Replica tag-lease term in µs and client lease-cache capacity;
    /// `None` = no leasing.
    pub lease: Option<(u64, usize)>,
    /// Closed-loop client threads (never more than the 2 cores).
    pub threads: usize,
    /// Distinct-shard keys per client call: 1 = blocking `get`/`put`,
    /// more = `multi_get`/`multi_put`.
    pub batch: usize,
    pub put_share: f64,
    pub value_len: usize,
    /// Zipf(0.99) key popularity; otherwise uniform.
    pub zipf: bool,
    /// The crash-recovery cycle loop instead of a steady mix.
    pub recover: bool,
}

/// Shards (and keys: one covering key per shard) in every workload.
pub const SHARDS: u16 = 64;
/// Nodes in every cluster.
pub const NODES: usize = 3;
/// Puts completed on the surviving majority in each recovery cycle.
pub const RECOVER_PUTS_PER_CYCLE: usize = 128;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "chan-d1",
        udp_wal: false,
        persistent: false,
        lease: None,
        threads: 1,
        batch: 1,
        put_share: 0.5,
        value_len: 8,
        zipf: false,
        recover: false,
    },
    Workload {
        name: "chan-d64",
        udp_wal: false,
        persistent: false,
        lease: None,
        threads: 1,
        batch: 64,
        put_share: 0.5,
        value_len: 8,
        zipf: false,
        recover: false,
    },
    Workload {
        name: "udp-wal-w90",
        udp_wal: true,
        persistent: true,
        lease: None,
        threads: 1,
        batch: 16,
        put_share: 0.9,
        value_len: 64,
        zipf: false,
        recover: false,
    },
    Workload {
        name: "lease-zipf-r95",
        udp_wal: false,
        persistent: false,
        lease: Some((5_000, 16)),
        threads: 2,
        batch: 1,
        put_share: 0.05,
        value_len: 8,
        zipf: true,
        recover: false,
    },
    Workload {
        name: "udp-wal-recover",
        udp_wal: true,
        persistent: true,
        lease: None,
        threads: 1,
        batch: 16,
        put_share: 1.0,
        value_len: 64,
        zipf: false,
        recover: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric. `bound` is present on end-to-end metrics only.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: Option<f64>,
}

/// The contract's name rule: starts with a letter or digit, at most 64 of
/// letters, digits, `_`, `.` and `-`.
pub fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `BENCHMARK.json`, checked as it is read.
#[derive(Debug, Clone)]
pub struct Declared {
    /// The measured window when `--seconds` is absent.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    /// The result line of `--trace 0`; every one carries a bound.
    pub end_to_end: Vec<Metric>,
    /// The result line of `--trace 1`; none carries a bound.
    pub per_layer: Vec<Metric>,
}

impl Declared {
    pub fn parse(benchmark: &Json) -> Result<Declared, String> {
        let list = |key: &str| {
            benchmark
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
        };
        let name_of = |item: &Json| {
            item.get("name")
                .and_then(Json::as_str)
                .filter(|name| well_formed(name))
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: {} has no well-formed name", item.render()))
        };
        let metrics = |section: &str| -> Result<Vec<Metric>, String> {
            list(section)?
                .iter()
                .map(|item| {
                    let name = name_of(item)?;
                    let unit = item
                        .get("unit")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("{name}: no unit"))?
                        .to_string();
                    let better = match item.get("better").and_then(Json::as_str) {
                        Some("lower") => Better::Lower,
                        Some("higher") => Better::Higher,
                        other => return Err(format!("{name}: `better` is {other:?}")),
                    };
                    let bound = item.get("bound").and_then(Json::as_f64);
                    match (section, bound) {
                        ("end_to_end", Some(b)) if b > 0.0 && b <= 0.25 => {}
                        ("per_layer", None) => {}
                        _ => return Err(format!("{name}: bound {bound:?} in `{section}`")),
                    }
                    Ok(Metric {
                        name,
                        unit,
                        better,
                        bound,
                    })
                })
                .collect()
        };
        let declared = Declared {
            run_seconds: benchmark
                .get("run_seconds")
                .and_then(Json::as_f64)
                .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
                .ok_or("BENCHMARK.json: `run_seconds` is not a whole number in 1..=60")?,
            workloads: list("workloads")?
                .iter()
                .map(name_of)
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        };
        let mut names: Vec<&str> = declared.metrics().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        if let Some(twice) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("BENCHMARK.json declares `{}` twice", twice[0]));
        }
        Ok(declared)
    }

    pub fn metrics(&self) -> impl Iterator<Item = &Metric> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics().find(|m| m.name == name)
    }
}
