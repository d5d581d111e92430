//! The repo's one measuring stick: wall-clock workloads against
//! in-process 3-node clusters, end-to-end metrics with the span recorder
//! off, and a traced pass that yields the per-layer ladder.
//!
//! ```text
//! rmem-benchmark run      [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! rmem-benchmark trace    [--workload W] [--seed N] [--seconds S] [--out FILE]
//! rmem-benchmark compare  A.json B.json
//! rmem-benchmark calibrate [--runs N] [--seconds S]
//! rmem-benchmark selftest
//! ```
//!
//! With `--workload` the run happens in this process and the last line of
//! standard output is the result object. Without it, every workload runs
//! in a child process of its own, so memory, threads and ports never leak
//! from one workload into the next.

mod compare;
mod counts;
mod host;
mod json;
mod ladder;
mod run;
mod selftest;
mod span;
mod spec;
mod stats;
mod workload;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use run::{RunArgs, RunResult};
use spec::Declared;

/// The benchmark's own directory. `cargo run` exports it at run time; a
/// binary started by hand falls back to where it was built.
fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Everything the benchmark writes goes under here.
pub fn out_dir() -> PathBuf {
    manifest_dir().join("out")
}

fn repo_root() -> PathBuf {
    manifest_dir().join("..")
}

/// The declaration the acceptance driver reads, and the only place the
/// metrics, their bounds and `run_seconds` are written down.
pub fn declared() -> Result<Declared, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Declared::parse(&json)
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    /// `calibrate` only: runs per workload.
    runs: u64,
}

fn parse_cli(args: &[String], trace_default: bool) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: trace_default,
        out: None,
        runs: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--runs" => {
                cli.runs = value()?
                    .parse()
                    .map_err(|_| "--runs takes a whole number")?
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn print_result(args: &RunArgs, result: &RunResult) {
    let measured = result.metrics.iter().filter_map(|(m, v)| Some((m, (*v)?)));
    for (m, v) in measured.chain(result.extras.iter().map(|(m, v)| (m, *v))) {
        println!("{:<32} {:>16.4} {}", m.name, v, m.unit);
    }
    for (m, _) in result.metrics.iter().filter(|(_, v)| v.is_none()) {
        println!(
            "# omitted {}: this run cannot support it (too few samples); \
             0 in the result line, absent from --out records",
            m.name
        );
    }
    for note in &result.notes {
        println!("# {note}");
    }
    for v in &result.violations {
        println!("# VIOLATION {v}");
    }
    println!(
        "# {}: {} calls attempted, {} failed, outputs {}",
        args.workload.name,
        result.attempted,
        result.failed,
        if result.correct {
            "correct"
        } else {
            "INCORRECT"
        }
    );
}

fn append_record(path: &Path, record: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    writeln!(file, "{}", record.render()).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One workload, in this process. The result object is the last line of
/// standard output.
fn run_one(cli: &Cli, declared: &Declared, name: &str, seconds: f64) -> Result<ExitCode, String> {
    let workload = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })?;
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds,
        trace: cli.trace,
    };
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let host = host::facts(&repo_root(), &out, cli.seed);
    println!(
        "# rmem-benchmark {name}: seed {} · {seconds} s window · {}",
        cli.seed,
        if cli.trace {
            "traced pass (per-layer metrics)"
        } else {
            "span recorder off (end-to-end metrics)"
        }
    );
    println!("# host: {}", host.render());
    let result = run::run(&args, declared, &out)?;
    print_result(&args, &result);
    if let Some(path) = &cli.out {
        append_record(path, &result.record(&args, host))?;
    }
    println!("{}", result.line().render());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// This program again, as a child running one workload.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut child = Command::new(exe);
    child
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("CARGO_MANIFEST_DIR", manifest_dir())
        .stdin(Stdio::null());
    Ok(child)
}

/// Every workload, each in a child process of its own.
fn run_all(cli: &Cli, seconds: f64) -> Result<ExitCode, String> {
    let mut all_ok = true;
    for w in &spec::WORKLOADS {
        let mut child = child_run(w.name, cli.seed, seconds, cli.trace)?;
        if let Some(out) = &cli.out {
            child.arg("--out").arg(out);
        }
        // Output passes straight through; waiting on the status reaps
        // the child before the next workload starts.
        let status = child
            .status()
            .map_err(|e| format!("starting the {} run: {e}", w.name))?;
        all_ok &= status.success();
        println!();
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The calibration table of the README: `runs` end-to-end runs per
/// workload, each with another seed, and per metric the median, the
/// quartiles and the spread (interquartile distance ÷ median) against the
/// bound — computed exactly as the acceptance driver computes it.
fn calibrate(cli: &Cli, declared: &Declared, seconds: f64) -> Result<ExitCode, String> {
    // The children append their records here: the result line alone does
    // not carry the unbounded wall-clock numbers.
    let records = out_dir().join(format!("calibrate-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&records);
    for w in &spec::WORKLOADS {
        for seed in 1..=cli.runs {
            let status = child_run(w.name, seed, seconds, false)?
                .arg("--out")
                .arg(&records)
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("starting the {} run: {e}", w.name))?;
            if !status.success() {
                return Err(format!("{} seed {seed} failed", w.name));
            }
        }
    }
    let text = std::fs::read_to_string(&records)
        .map_err(|e| format!("reading {}: {e}", records.display()))?;
    let _ = std::fs::remove_file(&records);
    let side = compare::Side::parse(&text)?;

    println!("| workload | metric | median | q1 | q3 | spread | bound | |\n|---|---|---|---|---|---|---|---|");
    let mut steady = true;
    for ((workload, metric), values) in &side.values {
        let (q1, q3) = stats::quartiles(values).unwrap_or((values[0], values[0]));
        let m = declared.metric(metric);
        let bound = m.and_then(|m| m.bound);
        // The contract refuses a spread over the bound; the target while
        // authoring is a third of it.
        let spread = stats::spread(values);
        steady &= bound.is_none_or(|b| spread <= b);
        let remark = match bound {
            Some(b) if spread > b => "OVER THE BOUND",
            Some(b) if spread > b / 3.0 => "over a third of the bound",
            _ => "",
        };
        println!(
            "| {workload} | {metric} [{}] | {:.4} | {:.4} | {:.4} | {:.1}% | {} | {} |",
            m.map_or("", |m| m.unit.as_str()),
            stats::median(values),
            q1,
            q3,
            spread * 100.0,
            bound.map_or("none".into(), |b| format!("{:.0}%", b * 100.0)),
            remark
        );
    }
    Ok(if steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: compare A.json B.json".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| compare::Side::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let comparison = compare::compare(&load(a)?, &load(b)?, &declared()?);
    println!("# A = {a}\n# B = {b}\n{}", comparison.render());
    Ok(if comparison.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = args
        .split_first()
        .ok_or("usage: rmem-benchmark <run|trace|compare|calibrate|selftest> [options]")?;
    match command.as_str() {
        "run" | "trace" | "calibrate" => {
            let cli = parse_cli(rest, command == "trace")?;
            let declared = declared()?;
            let seconds = cli.seconds.unwrap_or(declared.run_seconds);
            match (command.as_str(), &cli.workload) {
                ("calibrate", _) => calibrate(&cli, &declared, seconds),
                (_, Some(name)) => run_one(&cli, &declared, name, seconds),
                (_, None) => run_all(&cli, seconds),
            }
        }
        "compare" => compare_files(rest),
        "selftest" => selftest::selftest().map(|()| ExitCode::SUCCESS),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rmem-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
