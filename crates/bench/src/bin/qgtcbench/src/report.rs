//! Report files, the `--repeat` summary and the `--compare` verdicts, all
//! judged against the bounds declared in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::host::{Fingerprint, REPO_ROOT};
use crate::json::{self, num, quote, Value};
use crate::stats::{iqr_share, median, quartiles};

/// One metric as `BENCHMARK.json` declares it (per-layer metrics have no
/// bound).
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

/// The declared end-to-end and per-layer metrics of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl BenchSpec {
    pub fn load() -> Result<Self, String> {
        let path = format!("{REPO_ROOT}/BENCHMARK.json");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        Self::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| -> Result<&[Value], String> {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
        };
        let field = |m: &Value, key: &str| -> Result<String, String> {
            m.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: metric without {key}"))
        };
        let declared = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Declared {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        lower_is_better: field(m, "better")? == "lower",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        let spec = Self {
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
        };
        if spec.end_to_end.iter().any(|d| d.bound.is_none()) {
            return Err("BENCHMARK.json: end_to_end metric without bound".to_string());
        }
        Ok(spec)
    }
}

/// One run of one workload as a report file stores it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Declared metrics then extras, each `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    pub extras: Vec<(String, f64, String)>,
}

/// The report file: host fingerprint plus every run.
pub fn to_json(host: &Fingerprint, runs: &[RunRecord]) -> String {
    let mut out = String::from("{\n  \"host\": {");
    let fields: Vec<String> = host
        .fields()
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    out.push_str(&fields.join(", "));
    out.push_str("},\n  \"runs\": [\n");
    let metrics = |list: &[(String, f64, String)]| {
        list.iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(n),
                    num(*v),
                    quote(u)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {},\n     \"metrics\": {{{}}},\n     \"extras\": {{{}}}}}{}\n",
            quote(&r.workload),
            r.seed,
            r.traced,
            r.correct,
            r.attempted,
            r.failed,
            metrics(&r.metrics),
            metrics(&r.extras),
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Read the runs back out of a report file.
pub fn from_json(text: &str) -> Result<Vec<RunRecord>, String> {
    let doc = json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("report without runs")?;
    let metrics = |v: Option<&Value>| -> Vec<(String, f64, String)> {
        v.and_then(Value::as_object)
            .map(|map| {
                map.iter()
                    .map(|(name, m)| {
                        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                        let unit = m
                            .get("unit")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string();
                        (name.clone(), value, unit)
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    runs.iter()
        .map(|r| {
            Ok(RunRecord {
                workload: r
                    .get("workload")
                    .and_then(Value::as_str)
                    .ok_or("run without workload")?
                    .to_string(),
                seed: r.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                traced: r.get("traced").and_then(Value::as_bool).unwrap_or(false),
                correct: r.get("correct").and_then(Value::as_bool).unwrap_or(false),
                attempted: r.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                failed: r.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                metrics: metrics(r.get("metrics")),
                extras: metrics(r.get("extras")),
            })
        })
        .collect()
}

/// Values of each (workload, metric) over the untraced runs, in run order.
fn series(runs: &[RunRecord]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in runs.iter().filter(|r| !r.traced) {
        for (name, value, _) in &r.metrics {
            out.entry((r.workload.clone(), name.clone()))
                .or_default()
                .push(*value);
        }
    }
    out
}

fn bound_of(spec: &BenchSpec, name: &str) -> Option<f64> {
    spec.end_to_end
        .iter()
        .find(|d| d.name == name)
        .and_then(|d| d.bound)
}

/// Median and quartile spread of every end-to-end metric per workload,
/// against the declared bound. A spread above a third of the bound is
/// flagged: the benchmark is meant to stay well inside its own bounds.
pub fn summary(spec: &BenchSpec, runs: &[RunRecord]) -> String {
    let mut out = format!(
        "{:<22} {:<16} {:>12} {:>12} {:>12} {:>8} {:>7}  {}\n",
        "workload", "metric", "median", "q1", "q3", "iqr%", "bound%", "spread"
    );
    for ((workload, name), values) in series(runs) {
        let Some(bound) = bound_of(spec, &name) else {
            continue;
        };
        let (m, (q1, q3)) = (median(&values), quartiles(&values));
        let share = iqr_share(&values);
        let verdict = if share <= bound / 3.0 { "ok" } else { "wide" };
        let _ = writeln!(
            out,
            "{workload:<22} {name:<16} {m:>12.4} {q1:>12.4} {q3:>12.4} {:>8.2} {:>7.1}  {verdict} (n={})",
            share * 100.0,
            bound * 100.0,
            values.len()
        );
    }
    out
}

/// Verdict of `b` against `a` for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

/// Judge `b` against `a`. Worse: `b`'s median is worse than `a`'s by more
/// than the bound. Better: `b` wins at least nine tenths of the paired runs
/// and the medians differ by more than `a`'s own quartile spread. When
/// either side's spread exceeds the bound the comparison is unresolved,
/// unless every run of one side beats every run of the other.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (ma, mb) = (median(a), median(b));
    let (qa1, qa3) = quartiles(a);
    let spread = iqr_share(a).max(iqr_share(b));
    let b_dominates = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let a_dominates = a.iter().all(|&x| b.iter().all(|&y| better(x, y)));
    let worse_by = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    if spread > bound && !b_dominates && !a_dominates {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && (ma - mb).abs() > qa3 - qa1 && better(mb, ma) {
        return Verdict::Better;
    }
    Verdict::Unchanged
}

/// One row per workload and end-to-end metric: both medians, the change,
/// and the verdict under the declared bound.
pub fn compare(spec: &BenchSpec, a: &[RunRecord], b: &[RunRecord]) -> String {
    let (sa, sb) = (series(a), series(b));
    let mut out = format!(
        "{:<22} {:<16} {:>12} {:>12} {:>8} {:>7}  {}\n",
        "workload", "metric", "a median", "b median", "change%", "bound%", "verdict"
    );
    for ((workload, name), va) in &sa {
        let (Some(vb), Some(d)) = (
            sb.get(&(workload.clone(), name.clone())),
            spec.end_to_end.iter().find(|d| &d.name == name),
        ) else {
            continue;
        };
        let bound = d.bound.expect("end-to-end bounds are checked at load");
        let (ma, mb) = (median(va), median(vb));
        let v = verdict(va, vb, d.lower_is_better, bound);
        let _ = writeln!(
            out,
            "{workload:<22} {name:<16} {ma:>12.4} {mb:>12.4} {:>8.2} {:>7.1}  {}",
            (mb - ma) / ma.abs() * 100.0,
            bound * 100.0,
            format!("{v:?}").to_lowercase()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, traced: bool, value: f64) -> RunRecord {
        RunRecord {
            workload: workload.to_string(),
            seed: 3,
            traced,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("p50_ms".to_string(), value, "ms".to_string())],
            extras: vec![("samples".to_string(), 12.0, "count".to_string())],
        }
    }

    #[test]
    fn report_files_round_trip() {
        let runs = vec![record("a", false, 1.25), record("b", true, 2.5)];
        let host = Fingerprint::detect();
        assert_eq!(from_json(&to_json(&host, &runs)).unwrap(), runs);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let slower: Vec<f64> = a.iter().map(|v| v * 1.3).collect();
        let faster: Vec<f64> = a.iter().map(|v| v * 0.8).collect();
        let same: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(verdict(&a, &slower, true, 0.1), Verdict::Worse);
        assert_eq!(verdict(&a, &faster, true, 0.1), Verdict::Better);
        assert_eq!(verdict(&a, &same, true, 0.1), Verdict::Unchanged);
        // Higher-is-better flips the reading.
        assert_eq!(verdict(&a, &slower, false, 0.1), Verdict::Better);
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 20.0, 4.0, 10.0, 9.0, 11.0];
        assert_eq!(verdict(&a, &noisy, true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn spec_parses_the_committed_benchmark_file() {
        let spec = BenchSpec::load().unwrap();
        let setup = spec
            .end_to_end
            .iter()
            .find(|d| d.name == "setup_s")
            .unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        for d in &spec.end_to_end {
            let bound = d.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(spec.per_layer.iter().all(|d| d.bound.is_none()));
        assert!(BenchSpec::parse(
            r#"{"end_to_end": [{"name": "x", "unit": "s", "better": "lower"}], "per_layer": []}"#
        )
        .is_err());
    }
}
