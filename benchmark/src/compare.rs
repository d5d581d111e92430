//! `compare A.json B.json`: one row per workload × metric, judged by the
//! bound `BENCHMARK.json` fixes for it.
//!
//! Each input holds one result record per line, as `run --out` appends
//! them; several runs of one workload on a side give that side a median
//! and a run-to-run spread. Every ratio is printed with its base.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::spec::{Better, Declared, Metric};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The two sides' own run-to-run spread exceeds the bound: the data
    /// cannot tell "same" from "moved".
    Unresolved,
    /// A single-layer metric: it has no bound, so it gets no verdict.
    Info,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// One side of a comparison: per workload, per metric, the values of its
/// runs; plus calls attempted and failed.
#[derive(Debug, Default)]
pub struct Side {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub calls: BTreeMap<String, (f64, f64)>,
}

impl Side {
    /// Parses result records, one JSON object per line (`#` lines and
    /// blank lines are skipped).
    pub fn parse(text: &str) -> Result<Side, String> {
        let mut side = Side::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let record = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let workload = record
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: no `workload`", n + 1))?;
            side.push(workload, &record)
                .map_err(|e| format!("line {}: {e}", n + 1))?;
        }
        Ok(side)
    }

    /// Adds one run of `workload`: a result line or a `--out` record.
    pub fn push(&mut self, workload: &str, result: &Json) -> Result<(), String> {
        let (attempted, failed) = self.calls.entry(workload.to_string()).or_default();
        *attempted += result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        *failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("no `metrics`")?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name} has no value"))?;
            self.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
        Ok(())
    }

    fn failed_share(&self, workload: &str) -> f64 {
        self.calls
            .get(workload)
            .map_or(0.0, |(attempted, failed)| failed / attempted.max(1.0))
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let base = a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => (b - a) / base,
        Better::Higher => (a - b) / base,
    }
}

/// What `compare` holds the `e2e.*` numbers to: the largest bound the
/// acceptance contract allows. They carry none in `BENCHMARK.json` only
/// because the contract refuses a benchmark whose bounded metric does not
/// repeat within its bound on every workload, which on the authoring host
/// the wall clock does not; a change that doubles a latency must still
/// fail a comparison.
const E2E_BOUND: f64 = 0.25;

/// The bound a row is judged by: its own, or [`E2E_BOUND`] for the
/// unbounded end-to-end numbers; `None` for single-layer metrics.
fn judged_bound(m: &Metric) -> Option<f64> {
    m.bound
        .or_else(|| m.name.starts_with("e2e.").then_some(E2E_BOUND))
}

pub fn judge(better: Better, bound: Option<f64>, a: &[f64], b: &[f64]) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    let noise = spread(a).max(spread(b));
    let moved = worse_by(better, median(a), median(b));
    // A move only counts once it clears both the bound and what the same
    // commit does to itself from run to run.
    if moved.abs() <= bound.max(noise) {
        if noise > bound {
            Verdict::Unresolved
        } else {
            Verdict::Same
        }
    } else if moved > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose failed share rose from A to B: `(workload, a, b)`.
    pub more_failures: Vec<(String, f64, f64)>,
    /// `(workload, metric, side)` of every number only one side holds (a
    /// percentile one side's runs could not support, a renamed metric):
    /// listed, so a missing row is never mistaken for an unchanged one.
    pub one_sided: Vec<(String, String, char)>,
}

impl Comparison {
    pub fn regressed(&self) -> bool {
        !self.more_failures.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Worse)
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<16} {:<30} {:>14} {:>14} {:>18} {:>8} {:>8} {:>6}  verdict\n",
            "workload",
            "metric",
            "A median",
            "B median",
            "B/A (base A)",
            "spreadA",
            "spreadB",
            "bound"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<16} {:<30} {:>14.4} {:>14.4} {:>8.3}x of {:<8.4} {:>7.1}% {:>7.1}% {:>6}  {}\n",
                r.workload,
                format!("{} [{}]", r.metric, r.unit),
                r.a,
                r.b,
                r.b / r.a,
                r.a,
                r.spread_a * 100.0,
                r.spread_b * 100.0,
                r.bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
                r.verdict.label(),
            ));
        }
        for (workload, a, b) in &self.more_failures {
            out.push_str(&format!(
                "{workload}: failed share rose from {a:.6} to {b:.6} — worse\n"
            ));
        }
        for (workload, metric, side) in &self.one_sided {
            out.push_str(&format!(
                "{workload} {metric}: only in {side} — not compared\n"
            ));
        }
        out
    }
}

pub fn compare(a: &Side, b: &Side, declared: &Declared) -> Comparison {
    let mut rows = Vec::new();
    let mut one_sided = Vec::new();
    for (key @ (workload, metric), a_values) in &a.values {
        let Some(b_values) = b.values.get(key) else {
            one_sided.push((workload.clone(), metric.clone(), 'A'));
            continue;
        };
        // A number `BENCHMARK.json` no longer declares has no direction.
        let Some(m) = declared.metric(metric) else {
            continue;
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            unit: m.unit.clone(),
            a: median(a_values),
            b: median(b_values),
            spread_a: spread(a_values),
            spread_b: spread(b_values),
            bound: judged_bound(m),
            verdict: judge(m.better, judged_bound(m), a_values, b_values),
        });
    }
    for (workload, metric) in b.values.keys() {
        if !a.values.contains_key(&(workload.clone(), metric.clone())) {
            one_sided.push((workload.clone(), metric.clone(), 'B'));
        }
    }
    let more_failures = a
        .calls
        .keys()
        .filter(|w| b.calls.contains_key(*w))
        .map(|w| (w.clone(), a.failed_share(w), b.failed_share(w)))
        .filter(|(_, fa, fb)| fb > fa)
        .collect();
    Comparison {
        rows,
        more_failures,
        one_sided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let lower = |a: &[f64], b: &[f64]| judge(Better::Lower, Some(0.10), a, b);
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(lower(&steady, &[104.0, 105.0, 103.0]), Verdict::Same);
        assert_eq!(lower(&steady, &[120.0, 121.0, 119.0]), Verdict::Worse);
        assert_eq!(lower(&steady, &[50.0, 51.0, 49.0]), Verdict::Better);
        // Higher-is-better flips the direction.
        let higher = |a: &[f64], b: &[f64]| judge(Better::Higher, Some(0.10), a, b);
        assert_eq!(higher(&steady, &[120.0, 121.0, 119.0]), Verdict::Better);
        assert_eq!(higher(&steady, &[80.0, 81.0, 79.0]), Verdict::Worse);
        // A side whose own runs scatter by more than the bound cannot
        // certify "same" — nor a move smaller than its scatter.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(lower(&noisy, &[104.0, 105.0, 103.0]), Verdict::Unresolved);
        assert_eq!(lower(&noisy, &[125.0, 126.0, 124.0]), Verdict::Unresolved);
        assert_eq!(lower(&noisy, &[300.0, 301.0, 299.0]), Verdict::Worse);
        // No bound, no verdict.
        assert_eq!(judge(Better::Lower, None, &steady, &[500.0]), Verdict::Info);
    }

    fn record(workload: &str, value: f64, failed: u64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"attempted\": 1000, \"failed\": {failed}, \
             \"metrics\": {{\"get_p50_us\": {{\"value\": {value}, \"unit\": \"us\"}}}}}}"
        )
    }

    #[test]
    fn compare_joins_sides_and_flags_regressions() {
        let benchmark = Json::parse(
            r#"{"run_seconds": 20, "workloads": [{"name": "chan-d1", "why": "test"}],
                "end_to_end": [{"name": "get_p50_us", "unit": "us", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "net.read_us", "unit": "us", "better": "lower"},
                              {"name": "e2e.get_p50_us", "unit": "us", "better": "lower"}]}"#,
        )
        .unwrap();
        let rules = Declared::parse(&benchmark).unwrap();
        assert!(rules.metric("net.read_us").unwrap().bound.is_none());

        let a = Side::parse(&format!(
            "# a comment\n{}\n{}\n{}\n",
            record("chan-d1", 580.0, 0),
            record("chan-d1", 583.0, 0),
            record("chan-d1", 586.0, 0)
        ))
        .unwrap();
        let same = Side::parse(&record("chan-d1", 590.0, 0)).unwrap();
        let cmp = compare(&a, &same, &rules);
        assert_eq!(cmp.rows.len(), 1);
        assert_eq!(cmp.rows[0].verdict, Verdict::Same);
        assert!(!cmp.regressed());
        assert!(cmp.render().contains("of 583"), "{}", cmp.render());

        let slower = Side::parse(&record("chan-d1", 700.0, 0)).unwrap();
        assert!(compare(&a, &slower, &rules).regressed());

        // Same latency, but calls started failing: a regression too.
        let failing = Side::parse(&record("chan-d1", 583.0, 3)).unwrap();
        let cmp = compare(&a, &failing, &rules);
        assert_eq!(cmp.rows[0].verdict, Verdict::Same);
        assert!(cmp.regressed());
        assert!(cmp.render().contains("failed share rose"));

        // An unbounded end-to-end number is held to 25 %: a doubled
        // latency fails the comparison, a single-layer metric never does.
        let unbounded = |name: &str, value: f64| {
            Side::parse(&record("chan-d1", value, 0).replace("get_p50_us", name)).unwrap()
        };
        let cmp = compare(
            &unbounded("e2e.get_p50_us", 580.0),
            &unbounded("e2e.get_p50_us", 1160.0),
            &rules,
        );
        assert_eq!(cmp.rows[0].verdict, Verdict::Worse);
        let cmp = compare(
            &unbounded("net.read_us", 580.0),
            &unbounded("net.read_us", 1160.0),
            &rules,
        );
        assert_eq!(cmp.rows[0].verdict, Verdict::Info);
        assert!(!cmp.regressed());

        // A number only one side holds is listed, not dropped.
        let renamed =
            Side::parse(&record("chan-d1", 583.0, 0).replace("get_p50", "get_p51")).unwrap();
        let cmp = compare(&a, &renamed, &rules);
        assert!(cmp.rows.is_empty());
        assert_eq!(cmp.one_sided.len(), 2);
        assert!(cmp.render().contains("get_p51_us: only in B"));
    }
}
