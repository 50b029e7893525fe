//! `qgtcbench`: end-to-end and per-layer benchmark of the QGTC reproduction.
//!
//! ```text
//! qgtcbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE]
//!           [--repeat N] [--out FILE] [--quick]
//! qgtcbench --compare A.json B.json
//! ```
//!
//! With `--workload`, runs that workload in this process and prints one
//! `workload metric value unit` line per metric, then a JSON result line
//! (`correct`, `attempted`, `failed`, `metrics`) as the last line of
//! standard output. Without it (or with `--repeat`), runs every workload in
//! a child process of its own, alternating the order on each repetition,
//! and prints the median and quartile spread of each end-to-end metric
//! against the bounds in `BENCHMARK.json`. `--trace 1` (or a file name)
//! makes the separate, shorter traced pass that reports the per-layer
//! metrics and writes its spans as Chrome trace-event JSON. `--out` writes
//! every run as a report file; `--compare` reads two and gives a verdict
//! per workload and metric. See README.md for the workloads and metrics.

mod host;
mod json;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::{BenchSpec, RunRecord};
use run::Outcome;
use workload::{Workload, NAMES};

/// Defaults for interactive use; `BENCHMARK.json` passes its own.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;
/// `--quick` measures for this long per phase instead.
const QUICK_SECONDS: f64 = 0.05;

#[derive(Debug, Clone, PartialEq)]
enum Trace {
    Off,
    /// Traced pass; spans go to the given file, or a default one.
    On(Option<PathBuf>),
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Trace,
    repeat: Option<usize>,
    out: Option<PathBuf>,
    quick: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: Trace::Off,
        repeat: None,
        out: None,
        quick: false,
        compare: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; one of {}",
                        NAMES.join(", ")
                    ));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On(None),
                    file => Trace::On(Some(PathBuf::from(file))),
                }
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
                args.repeat = Some(n);
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--quick" => args.quick = true,
            "--compare" => {
                let a = PathBuf::from(value()?);
                args.compare = Some((a, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qgtcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.compare, &args.workload, args.repeat) {
        (Some((a, b)), _, _) => compare_files(a, b),
        (None, Some(name), None) => single(&args, name),
        _ => orchestrate(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("qgtcbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn workload(args: &Args, name: &str) -> Workload {
    let w = Workload::by_name(name).expect("names are validated when parsed");
    if args.quick {
        w.quick()
    } else {
        w
    }
}

/// Where a traced run's spans go by default: under the build directory.
fn default_trace_path(name: &str, seed: u64) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target
        .join("qgtcbench")
        .join(format!("trace-{name}-seed{seed}.json"))
}

/// The JSON result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&m.name),
                json::num(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn record(name: &str, seed: u64, traced: bool, outcome: &Outcome) -> RunRecord {
    let triple = |m: &run::Metric| (m.name.clone(), m.value, m.unit.to_string());
    RunRecord {
        workload: name.to_string(),
        seed,
        traced,
        correct: outcome.failed == 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: outcome.metrics.iter().map(triple).collect(),
        extras: outcome.extras.iter().map(triple).collect(),
    }
}

/// Run one workload in this process.
fn single(args: &Args, name: &str) -> Result<bool, String> {
    let w = workload(args, name);
    let seconds = if args.quick {
        QUICK_SECONDS
    } else {
        args.seconds
    };
    let traced = args.trace != Trace::Off;
    let host = host::Fingerprint::detect();
    let fields: Vec<String> = host
        .fields()
        .iter()
        .map(|(k, v)| format!("host.{k}={v}"))
        .collect();
    println!(
        "# {name} seed={} seconds={seconds} traced={traced} {}",
        args.seed,
        fields.join(" ")
    );
    let outcome = run::run(&w, args.seed, seconds, traced)?;
    let spec = BenchSpec::load()?;
    let declared = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let reported = outcome.metrics.iter().map(|m| (m.name.as_str(), m.unit));
    if !reported.eq(declared.iter().map(|d| (d.name.as_str(), d.unit.as_str()))) {
        return Err("reported metrics differ from those BENCHMARK.json declares".to_string());
    }
    for m in outcome.metrics.iter().chain(&outcome.extras) {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    if let (Trace::On(path), Some(spans)) = (&args.trace, &outcome.trace_json) {
        let path = path
            .clone()
            .unwrap_or_else(|| default_trace_path(name, args.seed));
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# trace written to {}", path.display());
    }
    if let Some(out) = &args.out {
        let text = report::to_json(&host, &[record(name, args.seed, traced, &outcome)]);
        std::fs::write(out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!("{}", result_line(&outcome));
    Ok(outcome.failed == 0)
}

/// Run one workload in a child process and read its result back from the
/// printed metric lines and the final JSON line.
fn child(args: &Args, name: &str, seed: u64) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string()]);
    match &args.trace {
        Trace::Off => cmd.args(["--trace", "0"]),
        Trace::On(None) => cmd.args(["--trace", "1"]),
        Trace::On(Some(path)) => {
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
            cmd.arg("--trace")
                .arg(path.with_file_name(format!("{stem}-{name}-seed{seed}.json")))
        }
    };
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let result = json::parse(last)
        .map_err(|e| format!("{name}: no result line ({e}), {}", output.status))?;
    let declared = result
        .get("metrics")
        .and_then(json::Value::as_object)
        .ok_or("result without metrics")?;
    let mut rec = RunRecord {
        workload: name.to_string(),
        seed,
        traced: args.trace != Trace::Off,
        correct: result.get("correct").and_then(json::Value::as_bool) == Some(true),
        attempted: result
            .get("attempted")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0) as u64,
        failed: result
            .get("failed")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0) as u64,
        metrics: Vec::new(),
        extras: Vec::new(),
    };
    for line in stdout.lines() {
        let parts: Vec<&str> = line.split(' ').collect();
        if let [w, metric, value, unit] = parts[..] {
            if let (true, Ok(value)) = (w == name, value.parse::<f64>()) {
                let entry = (metric.to_string(), value, unit.to_string());
                if declared.contains_key(metric) {
                    rec.metrics.push(entry);
                } else {
                    rec.extras.push(entry);
                }
            }
        }
    }
    Ok(rec)
}

/// Every workload (or the one named), each in its own process, `--repeat`
/// times with the order reversed on every other repetition and the seed
/// advanced by one per repetition.
fn orchestrate(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => NAMES.to_vec(),
    };
    let mut runs = Vec::new();
    for rep in 0..args.repeat.unwrap_or(1) {
        let mut order = names.clone();
        if rep % 2 == 1 {
            order.reverse();
        }
        for name in order {
            runs.push(child(args, name, args.seed + rep as u64)?);
        }
    }
    let host = host::Fingerprint::detect();
    for (k, v) in host.fields() {
        println!("# host.{k} {v}");
    }
    if args.trace == Trace::Off {
        print!("{}", report::summary(&BenchSpec::load()?, &runs));
    }
    if let Some(out) = &args.out {
        std::fs::write(out, report::to_json(&host, &runs))
            .map_err(|e| format!("{}: {e}", out.display()))?;
        println!("# report written to {}", out.display());
    }
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let all_correct = runs.iter().all(|r| r.correct);
    println!("# {} runs, {failed} failed checks", runs.len());
    Ok(all_correct)
}

fn compare_files(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|text| report::from_json(&text))
    };
    print!(
        "{}",
        report::compare(&BenchSpec::load()?, &read(a)?, &read(b)?)
    );
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve-scatter-cold",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("serve-scatter-cold"));
        assert_eq!((args.seed, args.seconds), (7, 10.0));
        assert_eq!(args.trace, Trace::On(None));
        let file = parse_args(&strings(&["--trace", "spans.json"])).unwrap();
        assert_eq!(file.trace, Trace::On(Some(PathBuf::from("spans.json"))));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seconds", "0"],
            &["--repeat", "0"],
            &["--bogus"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// Every workload at smoke-test size, untraced and traced: correct, and
    /// reporting exactly the metrics `BENCHMARK.json` declares.
    #[test]
    fn quick_smoke_of_every_workload_reports_the_declared_metrics() {
        let spec = BenchSpec::load().unwrap();
        let declared = |list: &[report::Declared]| -> Vec<(String, String)> {
            list.iter()
                .map(|d| (d.name.clone(), d.unit.clone()))
                .collect()
        };
        let (e2e, layers) = (declared(&spec.end_to_end), declared(&spec.per_layer));
        for name in NAMES {
            let w = Workload::by_name(name).unwrap().quick();
            for traced in [false, true] {
                let outcome = run::run(&w, 5, QUICK_SECONDS, traced).unwrap();
                assert_eq!(outcome.failed, 0, "{name} traced={traced}");
                assert!(outcome.attempted > 0);
                let reported: Vec<(String, String)> = outcome
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                let expected = if traced { &layers } else { &e2e };
                assert_eq!(&reported, expected, "{name} traced={traced}");
                let line = json::parse(&result_line(&outcome)).unwrap();
                let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                if !traced {
                    assert!(outcome
                        .metrics
                        .iter()
                        .all(|m| m.value.is_finite() && m.value > 0.0));
                } else {
                    assert!(outcome.trace_json.is_some());
                }
            }
        }
    }
}
