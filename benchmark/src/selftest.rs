//! `selftest`: the benchmark checking itself — the declaration file
//! against the code in both directions, every workload once in both
//! passes with 1 s windows, and `compare` on synthetic inputs.

use crate::compare::{self, Side, Verdict};
use crate::run::{self, RunArgs};
use crate::spec::{Declared, WORKLOADS};

/// The file's workloads are the code's, in order. (Everything else the
/// file declares is checked as it is read, by `Declared::parse`, and every
/// pass checks its own numbers against it in both directions.)
fn check_workloads(declared: &Declared) -> Result<(), String> {
    let in_code: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if declared.workloads != in_code {
        return Err(format!(
            "workloads: BENCHMARK.json lists {:?}, the code runs {in_code:?}",
            declared.workloads
        ));
    }
    Ok(())
}

/// Runs one pass with a 1 s window. `run` itself fails when what the pass
/// measures and what `BENCHMARK.json` declares for it differ in either
/// direction; what is left to check is that the outputs are correct and
/// every supported number is a real one.
fn check_pass(args: &RunArgs, declared: &Declared) -> Result<(), String> {
    let result = run::run(args, declared, &crate::out_dir())?;
    let label = format!(
        "{} ({})",
        args.workload.name,
        if args.trace { "traced" } else { "end to end" }
    );
    if !result.correct {
        return Err(format!(
            "{label}: incorrect outputs: {:?}",
            result.violations
        ));
    }
    if result.failed != 0 || result.attempted == 0 {
        return Err(format!(
            "{label}: {} of {} calls failed",
            result.failed, result.attempted
        ));
    }
    // A 1 s window cannot support every percentile; those are `None`.
    let supported = result.metrics.iter().filter_map(|(m, v)| Some((m, (*v)?)));
    for (m, v) in supported.clone() {
        if !args.trace && v <= 0.0 {
            return Err(format!("{label}: {} = {v}", m.name));
        }
    }
    println!(
        "ok  {label}: {} of {} declared metrics supported by a 1 s window",
        supported.count(),
        result.metrics.len()
    );
    Ok(())
}

fn check_compare() -> Result<(), String> {
    let record = |value: f64| {
        format!(
            "{{\"workload\": \"w\", \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {{\"stores_per_op\": {{\"value\": {value}, \"unit\": \"count\"}}}}}}\n"
        )
    };
    let rules = crate::declared()?;
    let side = |values: &[f64]| Side::parse(&values.iter().map(|v| record(*v)).collect::<String>());
    let base = side(&[3.0, 3.01, 2.99])?;
    for (values, want) in [
        ([3.005, 3.0, 2.995], Verdict::Same),
        ([4.0, 4.01, 3.99], Verdict::Worse),
        ([2.0, 2.01, 1.99], Verdict::Better),
    ] {
        let got = compare::compare(&base, &side(&values)?, &rules).rows[0].verdict;
        if got != want {
            return Err(format!(
                "compare: {values:?} judged {got:?}, expected {want:?}"
            ));
        }
    }
    println!("ok  compare: same / worse / better on synthetic inputs");
    Ok(())
}

pub fn selftest() -> Result<(), String> {
    let declared = crate::declared()?;
    check_workloads(&declared)?;
    println!("ok  BENCHMARK.json is well formed and lists the workloads the code runs");
    check_compare()?;
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let args = RunArgs {
                workload,
                seed: 1,
                seconds: 1.0,
                trace,
            };
            check_pass(&args, &declared)?;
        }
    }
    println!("selftest passed");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn the_declaration_is_checked_as_it_is_read() {
        let declared = crate::declared().unwrap();
        check_workloads(&declared).unwrap();
        assert!(declared.metric("setup_s").is_some_and(|m| m.unit == "s"));

        let parse = |text: &str| Declared::parse(&Json::parse(text).unwrap());
        let with = |end_to_end: &str| {
            format!(
                r#"{{"run_seconds": 20, "workloads": [{{"name": "w", "why": "x"}}],
                    "end_to_end": [{end_to_end}], "per_layer": []}}"#
            )
        };
        let ok = r#"{"name": "a", "unit": "s", "better": "lower", "bound": 0.1}"#;
        parse(&with(ok)).unwrap();
        for bad in [
            r#"{"name": "a", "unit": "s", "better": "lower"}"#,
            r#"{"name": "a", "unit": "s", "better": "lower", "bound": 0.3}"#,
            r#"{"name": "a b", "unit": "s", "better": "lower", "bound": 0.1}"#,
            r#"{"name": "a", "unit": "s", "better": "faster", "bound": 0.1}"#,
        ] {
            parse(&with(bad)).unwrap_err();
        }
        let err = parse(&with(&format!("{ok}, {ok}"))).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn a_pass_and_the_declaration_must_agree_in_both_directions() {
        let workload = crate::spec::workload("chan-d1").unwrap();
        let args = RunArgs {
            workload,
            seed: 2,
            seconds: 1.0,
            trace: false,
        };
        let declared = crate::declared().unwrap();
        check_pass(&args, &declared).unwrap();
        check_pass(
            &RunArgs {
                trace: true,
                ..args
            },
            &declared,
        )
        .unwrap();

        // A name only the file knows, and a name only the code knows.
        let mut more = declared.clone();
        let mut made_up = more.end_to_end[0].clone();
        made_up.name = "made.up".into();
        more.end_to_end.push(made_up);
        let err = run::run(&args, &more, &crate::out_dir()).err().unwrap();
        assert!(err.contains("never measures"), "{err}");
        let mut fewer = declared;
        fewer.end_to_end.pop();
        let err = run::run(&args, &fewer, &crate::out_dir()).err().unwrap();
        assert!(err.contains("does not declare"), "{err}");
    }

    #[test]
    fn name_rule() {
        use crate::spec::well_formed;
        assert!(well_formed("kv.self_get_us"));
        assert!(well_formed("chan-d1"));
        assert!(!well_formed(".hidden"));
        assert!(!well_formed("has space"));
        assert!(!well_formed(&"x".repeat(65)));
    }

    #[test]
    fn compare_judges_synthetic_inputs() {
        check_compare().unwrap();
    }
}
