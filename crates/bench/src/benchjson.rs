//! Validation of the committed `BENCH_*.json` perf-trajectory files.
//!
//! The perf reports at the repo root are written by `perfsmoke` and *committed*,
//! so CI must catch a stale, truncated or hand-mangled file before it silently
//! rots: the `benchcheck` binary parses each file with the minimal JSON reader
//! here (the offline serde shim has no JSON support, and the reports are written
//! by string formatting anyway) and checks it against a [`BenchSpec`] — required
//! top-level keys and no unnamed ones, required per-row keys, a non-empty row
//! array, and every recorded speedup clearing the bar recorded next to it.
//! The committed tune table gets the same strictness: its condensation
//! threshold and metadata.

use std::iter::Peekable;
use std::str::Chars;

/// A parsed JSON value (the subset the BENCH reports use; no escape sequences
/// beyond `\"` and `\\` are interpreted).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a JSON document (rejecting trailing garbage).
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut chars = text.chars().peekable();
    let value = parse_value(&mut chars)?;
    skip_ws(&mut chars);
    match chars.next() {
        None => Ok(value),
        Some(c) => Err(format!("trailing content starting at {c:?}")),
    }
}

fn skip_ws(chars: &mut Peekable<Chars<'_>>) {
    while matches!(chars.peek(), Some(' ' | '\t' | '\n' | '\r')) {
        chars.next();
    }
}

fn expect(chars: &mut Peekable<Chars<'_>>, want: char) -> Result<(), String> {
    match chars.next() {
        Some(c) if c == want => Ok(()),
        other => Err(format!("expected {want:?}, found {other:?}")),
    }
}

fn parse_value(chars: &mut Peekable<Chars<'_>>) -> Result<JsonValue, String> {
    skip_ws(chars);
    match chars.peek() {
        Some('{') => parse_object(chars),
        Some('[') => parse_array(chars),
        Some('"') => Ok(JsonValue::Str(parse_string(chars)?)),
        Some('t') => parse_literal(chars, "true", JsonValue::Bool(true)),
        Some('f') => parse_literal(chars, "false", JsonValue::Bool(false)),
        Some('n') => parse_literal(chars, "null", JsonValue::Null),
        Some(c) if *c == '-' || c.is_ascii_digit() => parse_number(chars),
        other => Err(format!("unexpected start of value: {other:?}")),
    }
}

fn parse_literal(
    chars: &mut Peekable<Chars<'_>>,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    for want in word.chars() {
        expect(chars, want)?;
    }
    Ok(value)
}

fn parse_number(chars: &mut Peekable<Chars<'_>>) -> Result<JsonValue, String> {
    let mut literal = String::new();
    while let Some(&c) = chars.peek() {
        if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
            literal.push(c);
            chars.next();
        } else {
            break;
        }
    }
    literal
        .parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("malformed number {literal:?}"))
}

fn parse_string(chars: &mut Peekable<Chars<'_>>) -> Result<String, String> {
    expect(chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(c) => {
                    out.push('\\');
                    out.push(c);
                }
                None => return Err("unterminated escape in string".to_string()),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_array(chars: &mut Peekable<Chars<'_>>) -> Result<JsonValue, String> {
    expect(chars, '[')?;
    let mut items = Vec::new();
    skip_ws(chars);
    if chars.peek() == Some(&']') {
        chars.next();
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(chars)?);
        skip_ws(chars);
        match chars.next() {
            Some(',') => continue,
            Some(']') => return Ok(JsonValue::Arr(items)),
            other => return Err(format!("expected ',' or ']' in array, found {other:?}")),
        }
    }
}

fn parse_object(chars: &mut Peekable<Chars<'_>>) -> Result<JsonValue, String> {
    expect(chars, '{')?;
    let mut fields = Vec::new();
    skip_ws(chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(chars);
        let key = parse_string(chars)?;
        skip_ws(chars);
        expect(chars, ':')?;
        fields.push((key, parse_value(chars)?));
        skip_ws(chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => return Ok(JsonValue::Obj(fields)),
            other => return Err(format!("expected ',' or '}}' in object, found {other:?}")),
        }
    }
}

/// Top-level keys any report may carry beside the ones its [`BenchSpec`]
/// names: provenance and description that no gate reads.
pub const INFORMATIONAL_KEYS: [&str; 4] = ["generated_by", "note", "workload", "interarrival_ms"];

/// What a committed BENCH report must contain to be considered healthy.
/// A report may carry no other top-level key than `bench`, these and the
/// [`INFORMATIONAL_KEYS`], so a file written by an older perfsmoke fails.
pub struct BenchSpec {
    /// File name at the repo root.
    pub file: &'static str,
    /// Expected `"bench"` identifier.
    pub bench: &'static str,
    /// Top-level keys that must be present.
    pub required_keys: &'static [&'static str],
    /// Key of the per-row array.
    pub rows_key: &'static str,
    /// Keys every row must carry.
    pub row_keys: &'static [&'static str],
    /// `(speedup_key, bar_key)` pairs: each recorded speedup must clear the bar
    /// recorded beside it, so a regressed full-scale run cannot be committed.
    pub gates: &'static [(&'static str, &'static str)],
}

/// The six committed perf reports and their contracts.
pub fn committed_bench_specs() -> Vec<BenchSpec> {
    vec![
        BenchSpec {
            file: "BENCH_gemm.json",
            bench: "gemm_sparse_skip",
            required_keys: &[
                "scale",
                "reps",
                "sparse_skip_speedup",
                "sparse_skip_bar",
                "sparse_skip_ratio",
                "sparse_skip_min_ratio",
            ],
            rows_key: "probes",
            row_keys: &[
                "name",
                "m",
                "k",
                "n",
                "block",
                "skip_ratio",
                "noskip_ns_per_op",
                "skip_ns_per_op",
                "speedup",
            ],
            gates: &[
                ("sparse_skip_speedup", "sparse_skip_bar"),
                ("sparse_skip_ratio", "sparse_skip_min_ratio"),
            ],
        },
        BenchSpec {
            file: "BENCH_pipeline.json",
            bench: "pipeline_modeled_overlap",
            required_keys: &["scale", "modeled_overlap_speedup", "modeled_overlap_bar"],
            rows_key: "datasets",
            row_keys: &[
                "dataset",
                "num_batches",
                "modeled_serial_ms",
                "modeled_overlapped_ms",
            ],
            gates: &[("modeled_overlap_speedup", "modeled_overlap_bar")],
        },
        BenchSpec {
            file: "BENCH_partition.json",
            bench: "partition_serial_vs_sharded",
            required_keys: &[
                "scale",
                "reps",
                "shards",
                "wall_speedup",
                "wall_not_slower_bar",
            ],
            rows_key: "datasets",
            row_keys: &[
                "dataset",
                "nodes",
                "edges",
                "num_parts",
                "serial_wall_ms",
                "sharded_wall_ms",
            ],
            gates: &[("wall_speedup", "wall_not_slower_bar")],
        },
        BenchSpec {
            file: "BENCH_backend.json",
            bench: "backend_race",
            required_keys: &[
                "scale",
                "reps",
                "host_backends",
                "headline_winner",
                "winner_speedup_vs_portable",
                "winner_not_slower_bar",
            ],
            rows_key: "shapes",
            row_keys: &[
                "name",
                "m",
                "k",
                "n",
                "winner",
                "portable_ns_per_op",
                "winner_ns_per_op",
                "speedup_vs_portable",
            ],
            gates: &[("winner_speedup_vs_portable", "winner_not_slower_bar")],
        },
        BenchSpec {
            file: "BENCH_serving.json",
            bench: "serving_session",
            required_keys: &[
                "scale",
                "reps",
                "requests_per_dataset",
                "nodes_per_request",
                "p50_ms",
                "p99_ms",
                "throughput_rps",
                "throughput_bar",
                "cache_hit_rate",
                "cache_hit_bar",
                "prepares_skipped",
                "steady_state_fresh_allocations",
                "pool_steady_state_ok",
                "pool_steady_state_bar",
                "weights_quantized_once_ok",
                "weights_quantized_once_bar",
                "oracle_match_ok",
                "oracle_match_bar",
            ],
            rows_key: "datasets",
            row_keys: &[
                "dataset",
                "num_batches",
                "requests",
                "p50_ms",
                "p99_ms",
                "throughput_rps",
                "cache_hits",
                "cache_misses",
                "prepares_skipped",
                "steady_state_fresh_allocations",
                "weight_quantizations",
            ],
            gates: &[
                ("throughput_rps", "throughput_bar"),
                ("cache_hit_rate", "cache_hit_bar"),
                ("pool_steady_state_ok", "pool_steady_state_bar"),
                ("weights_quantized_once_ok", "weights_quantized_once_bar"),
                ("oracle_match_ok", "oracle_match_bar"),
            ],
        },
        BenchSpec {
            file: "BENCH_condense.json",
            bench: "adjacency_condense_vs_skip",
            required_keys: &[
                "scale",
                "reps",
                "body",
                "condense_threshold",
                "fragmented_speedup",
                "fragmented_probe",
                "fragmented_bar",
                "auto_worst_efficiency",
                "auto_efficiency_bar",
                "note",
            ],
            rows_key: "shapes",
            row_keys: &[
                "name",
                "m",
                "n",
                "plain_ns",
                "skip_ns",
                "condensed_ns",
                "auto_ns",
                "auto_path",
                "condensed_vs_skip",
                "auto_efficiency",
                "condensation_ratio",
                "nonzero_word_ratio",
                "fragmentation",
            ],
            gates: &[
                ("fragmented_speedup", "fragmented_bar"),
                ("auto_worst_efficiency", "auto_efficiency_bar"),
            ],
        },
    ]
}

/// Strict validation of the committed `TUNE_gemm.json` tune table.
///
/// The runtime loader (`qgtc_kernels::TuneTable::parse`) is deliberately
/// forgiving — kernel dispatch must never fail on a stale file — so the
/// strictness lives here, where `benchcheck` runs it in CI: the `"file"`
/// identifier, the `scale`, `reps` and `generated_by` metadata, a
/// `condense_threshold` string that parses to a finite positive number, and
/// no `entries` array.  Those were tiling-scheme rows that no kernel reads any
/// more, so a table carrying them was written by an older tuner.
pub fn validate_tune_table(text: &str) -> Result<String, String> {
    let file = "TUNE_gemm.json";
    let doc = parse_json(text).map_err(|err| format!("{file}: invalid JSON: {err}"))?;
    let id = doc
        .get("file")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{file}: missing \"file\" identifier"))?;
    if id != file {
        return Err(format!(
            "{file}: file identifier is {id:?}, expected {file:?}"
        ));
    }
    for key in ["scale", "reps", "generated_by"] {
        if doc.get(key).is_none() {
            return Err(format!("{file}: missing metadata key {key:?}"));
        }
    }
    let raw = doc
        .get("condense_threshold")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{file}: missing string key \"condense_threshold\""))?;
    let threshold = raw
        .parse::<f64>()
        .ok()
        .filter(|t| t.is_finite() && *t > 0.0)
        .ok_or_else(|| {
            format!("{file}: condense_threshold {raw:?} is not a finite positive number")
        })?;
    if doc.get("entries").is_some() {
        return Err(format!(
            "{file}: carries tiling-scheme \"entries\" that no kernel reads; regenerate it with tilingtune"
        ));
    }
    Ok(format!("{file}: condense_threshold {threshold}"))
}

/// Validate one report against its spec. Returns a human-readable summary line
/// on success, the failure reason otherwise.
pub fn validate_bench_report(spec: &BenchSpec, text: &str) -> Result<String, String> {
    let doc = parse_json(text).map_err(|err| format!("{}: invalid JSON: {err}", spec.file))?;
    let bench = doc
        .get("bench")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{}: missing \"bench\" identifier", spec.file))?;
    if bench != spec.bench {
        return Err(format!(
            "{}: bench identifier is {bench:?}, expected {:?}",
            spec.file, spec.bench
        ));
    }
    for key in spec.required_keys {
        if doc.get(key).is_none() {
            return Err(format!("{}: missing required key {key:?}", spec.file));
        }
    }
    if let JsonValue::Obj(fields) = &doc {
        let named = |key: &str| {
            key == "bench"
                || key == spec.rows_key
                || spec.required_keys.contains(&key)
                || INFORMATIONAL_KEYS.contains(&key)
        };
        if let Some((key, _)) = fields.iter().find(|(key, _)| !named(key)) {
            return Err(format!(
                "{}: carries top-level key {key:?}, which its spec does not name; regenerate it",
                spec.file
            ));
        }
    }
    let rows = doc
        .get(spec.rows_key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{}: {:?} must be an array", spec.file, spec.rows_key))?;
    if rows.is_empty() {
        return Err(format!("{}: {:?} is empty", spec.file, spec.rows_key));
    }
    for (index, row) in rows.iter().enumerate() {
        for key in spec.row_keys {
            if row.get(key).is_none() {
                return Err(format!(
                    "{}: {}[{index}] is missing key {key:?}",
                    spec.file, spec.rows_key
                ));
            }
        }
    }
    let mut gate_notes = Vec::new();
    for (speedup_key, bar_key) in spec.gates {
        let speedup = doc
            .get(speedup_key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{}: {speedup_key:?} must be a number", spec.file))?;
        let bar = doc
            .get(bar_key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{}: {bar_key:?} must be a number", spec.file))?;
        if speedup < bar {
            return Err(format!(
                "{}: recorded {speedup_key} {speedup:.3} is below its committed bar {bar:.3}",
                spec.file
            ));
        }
        gate_notes.push(format!("{speedup_key} {speedup:.3} >= {bar:.3}"));
    }
    Ok(format!(
        "{}: {} rows, {}",
        spec.file,
        rows.len(),
        gate_notes.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_objects() {
        let doc = parse_json(r#"{"a": 1.5, "b": [true, null, "x"], "c": {"d": -2e3}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_f64(), Some(1.5));
        let arr = doc.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0], JsonValue::Bool(true));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(doc.get("c").unwrap().get("d").unwrap().as_f64(), Some(-2e3));
    }

    #[test]
    fn rejects_truncated_documents() {
        assert!(parse_json(r#"{"a": [1, 2"#).is_err());
        assert!(parse_json(r#"{"a": 1} trailing"#).is_err());
        assert!(parse_json("").is_err());
    }

    fn minimal_partition_report(speedup: f64) -> String {
        format!(
            concat!(
                "{{\"bench\": \"partition_serial_vs_sharded\", \"scale\": \"fast\", ",
                "\"reps\": 3, \"shards\": 8, \"generated_by\": \"perfsmoke\", ",
                "\"wall_speedup\": {speedup}, \"wall_not_slower_bar\": 0.95, ",
                "\"datasets\": [{{\"dataset\": \"ogbn-products\", \"nodes\": 1, \"edges\": 1, ",
                "\"num_parts\": 4, \"serial_wall_ms\": 1.0, \"sharded_wall_ms\": 1.0}}]}}"
            ),
            speedup = speedup
        )
    }

    fn partition_spec() -> BenchSpec {
        committed_bench_specs()
            .into_iter()
            .find(|s| s.file == "BENCH_partition.json")
            .unwrap()
    }

    fn minimal_gemm_report(sparse_speedup: f64, sparse_ratio: f64) -> String {
        format!(
            concat!(
                "{{\"bench\": \"gemm_sparse_skip\", \"scale\": \"fast\", \"reps\": 3, ",
                "\"sparse_skip_speedup\": {speedup}, \"sparse_skip_bar\": 1.5, ",
                "\"sparse_skip_ratio\": {ratio}, \"sparse_skip_min_ratio\": 0.9, ",
                "\"probes\": [{{\"name\": \"block-diagonal-4096x128\", \"m\": 4096, ",
                "\"k\": 4096, \"n\": 128, \"block\": 128, \"skip_ratio\": {ratio}, ",
                "\"noskip_ns_per_op\": 2, \"skip_ns_per_op\": 1, \"speedup\": {speedup}}}]}}"
            ),
            speedup = sparse_speedup,
            ratio = sparse_ratio
        )
    }

    fn gemm_spec() -> BenchSpec {
        committed_bench_specs()
            .into_iter()
            .find(|s| s.file == "BENCH_gemm.json")
            .unwrap()
    }

    fn minimal_backend_report(speedup: f64) -> String {
        format!(
            concat!(
                "{{\"bench\": \"backend_race\", \"scale\": \"fast\", \"reps\": 3, ",
                "\"host_backends\": [\"portable\", \"avx512\"], ",
                "\"headline_winner\": \"portable\", ",
                "\"winner_speedup_vs_portable\": {speedup}, ",
                "\"winner_not_slower_bar\": 1.0, ",
                "\"shapes\": [{{\"name\": \"headline\", \"m\": 1024, \"k\": 1024, \"n\": 1024, ",
                "\"winner\": \"portable\", \"portable_ns_per_op\": 2.0, ",
                "\"winner_ns_per_op\": 2.0, \"speedup_vs_portable\": {speedup}}}]}}"
            ),
            speedup = speedup
        )
    }

    fn backend_spec() -> BenchSpec {
        committed_bench_specs()
            .into_iter()
            .find(|s| s.file == "BENCH_backend.json")
            .unwrap()
    }

    #[test]
    fn validates_a_healthy_backend_race_report() {
        let summary = validate_bench_report(&backend_spec(), &minimal_backend_report(1.0)).unwrap();
        assert!(
            summary.contains("winner_speedup_vs_portable 1.000 >= 1.000"),
            "{summary}"
        );
    }

    #[test]
    fn rejects_a_malformed_backend_report_as_invalid_json() {
        let truncated = &minimal_backend_report(1.0)[..40];
        let err = validate_bench_report(&backend_spec(), truncated).unwrap_err();
        assert!(err.contains("invalid JSON"), "{err}");
    }

    #[test]
    fn rejects_a_backend_report_missing_its_speedup_key_by_name() {
        let missing = minimal_backend_report(1.0)
            .replace("\"winner_speedup_vs_portable\": 1, ", "")
            .replace("\"winner_speedup_vs_portable\": 1.0, ", "");
        let err = validate_bench_report(&backend_spec(), &missing).unwrap_err();
        assert!(err.contains("winner_speedup_vs_portable"), "{err}");
    }

    #[test]
    fn rejects_a_non_numeric_speedup_by_name() {
        let stringly = minimal_backend_report(1.0).replace(
            "\"winner_speedup_vs_portable\": 1,",
            "\"winner_speedup_vs_portable\": \"fast\",",
        );
        let err = validate_bench_report(&backend_spec(), &stringly).unwrap_err();
        assert!(
            err.contains("\"winner_speedup_vs_portable\" must be a number"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_backend_race_won_below_the_bar() {
        let err = validate_bench_report(&backend_spec(), &minimal_backend_report(0.8)).unwrap_err();
        assert!(err.contains("below its committed bar"), "{err}");
    }

    #[test]
    fn validates_a_healthy_gemm_report_with_sparse_probe() {
        let summary = validate_bench_report(&gemm_spec(), &minimal_gemm_report(2.0, 0.95)).unwrap();
        assert!(
            summary.contains("sparse_skip_speedup 2.000 >= 1.500"),
            "{summary}"
        );
        assert!(
            summary.contains("sparse_skip_ratio 0.950 >= 0.900"),
            "{summary}"
        );
    }

    #[test]
    fn rejects_sparse_probe_regressions() {
        let spec = gemm_spec();
        let slow = validate_bench_report(&spec, &minimal_gemm_report(1.2, 0.95)).unwrap_err();
        assert!(slow.contains("sparse_skip_speedup"), "{slow}");
        let dense = validate_bench_report(&spec, &minimal_gemm_report(2.0, 0.5)).unwrap_err();
        assert!(dense.contains("sparse_skip_ratio"), "{dense}");
        let missing = minimal_gemm_report(2.0, 0.95).replace("\"sparse_skip_ratio\": 0.95, ", "");
        let err = validate_bench_report(&spec, &missing).unwrap_err();
        assert!(err.contains("sparse_skip_ratio"), "{err}");
        let untimed = minimal_gemm_report(2.0, 0.95).replace("\"skip_ns_per_op\": 1, ", "");
        let err = validate_bench_report(&spec, &untimed).unwrap_err();
        assert!(
            err.contains("probes[0] is missing key \"skip_ns_per_op\""),
            "{err}"
        );
        let stale =
            minimal_gemm_report(2.0, 0.95).replace("gemm_sparse_skip", "gemm_fused_vs_planewise");
        let err = validate_bench_report(&spec, &stale).unwrap_err();
        assert!(err.contains("expected \"gemm_sparse_skip\""), "{err}");
    }

    fn minimal_pipeline_report(speedup: f64) -> String {
        format!(
            concat!(
                "{{\"bench\": \"pipeline_modeled_overlap\", \"scale\": \"fast\", ",
                "\"modeled_overlap_speedup\": {speedup}, \"modeled_overlap_bar\": 1.3, ",
                "\"datasets\": [{{\"dataset\": \"Proteins\", \"num_batches\": 16, ",
                "\"prefetch\": 4, \"modeled_serial_ms\": 0.649, ",
                "\"modeled_overlapped_ms\": 0.495, \"modeled_overlap_speedup\": {speedup}}}]}}"
            ),
            speedup = speedup
        )
    }

    #[test]
    fn gates_a_pipeline_report_on_its_modeled_overlap() {
        let spec = committed_bench_specs()
            .into_iter()
            .find(|s| s.file == "BENCH_pipeline.json")
            .unwrap();
        let summary = validate_bench_report(&spec, &minimal_pipeline_report(1.316)).unwrap();
        assert!(
            summary.contains("modeled_overlap_speedup 1.316 >= 1.300"),
            "{summary}"
        );
        let err = validate_bench_report(&spec, &minimal_pipeline_report(1.1)).unwrap_err();
        assert!(err.contains("below its committed bar"), "{err}");
        let stale = minimal_pipeline_report(1.316)
            .replace("pipeline_modeled_overlap", "pipeline_streamed_vs_serial");
        let err = validate_bench_report(&spec, &stale).unwrap_err();
        assert!(
            err.contains("expected \"pipeline_modeled_overlap\""),
            "{err}"
        );
    }

    #[test]
    fn validates_a_healthy_partition_report() {
        let summary =
            validate_bench_report(&partition_spec(), &minimal_partition_report(1.2)).unwrap();
        assert!(summary.contains("1 rows"), "{summary}");
        assert!(summary.contains("wall_speedup 1.200 >= 0.950"), "{summary}");
    }

    #[test]
    fn rejects_speedup_below_committed_bar() {
        let err =
            validate_bench_report(&partition_spec(), &minimal_partition_report(0.9)).unwrap_err();
        assert!(
            err.contains("recorded wall_speedup 0.900 is below its committed bar 0.950"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_partition_report_still_carrying_the_retired_modeled_keys() {
        let stale = minimal_partition_report(1.2).replace(
            "\"wall_not_slower_bar\": 0.95, ",
            "\"wall_not_slower_bar\": 0.95, \"modeled_shard_speedup_largest\": 4.2, \
             \"modeled_shard_bar\": 1.5, \"largest_profile\": \"ogbn-products\", ",
        );
        let err = validate_bench_report(&partition_spec(), &stale).unwrap_err();
        assert!(
            err.contains("top-level key \"modeled_shard_speedup_largest\""),
            "{err}"
        );
    }

    fn minimal_serving_report(throughput: f64, hit_rate: f64, pool_ok: u64) -> String {
        format!(
            concat!(
                "{{\"bench\": \"serving_session\", \"scale\": \"fast\", \"reps\": 3, ",
                "\"requests_per_dataset\": 200, \"nodes_per_request\": 16, ",
                "\"p50_ms\": 0.4, \"p99_ms\": 2.1, ",
                "\"throughput_rps\": {throughput}, \"throughput_bar\": 20, ",
                "\"cache_hit_rate\": {hit_rate}, \"cache_hit_bar\": 0.5, ",
                "\"prepares_skipped\": 180, \"steady_state_fresh_allocations\": 0, ",
                "\"pool_steady_state_ok\": {pool_ok}, \"pool_steady_state_bar\": 1, ",
                "\"weights_quantized_once_ok\": 1, \"weights_quantized_once_bar\": 1, ",
                "\"oracle_match_ok\": 1, \"oracle_match_bar\": 1, ",
                "\"datasets\": [{{\"dataset\": \"PROTEINS\", \"num_batches\": 16, ",
                "\"requests\": 200, \"p50_ms\": 0.4, \"p99_ms\": 2.1, ",
                "\"throughput_rps\": {throughput}, \"cache_hits\": 180, ",
                "\"cache_misses\": 16, \"cache_hit_rate\": {hit_rate}, ",
                "\"prepares_skipped\": 180, \"steady_state_fresh_allocations\": 0, ",
                "\"weight_quantizations\": 3}}]}}"
            ),
            throughput = throughput,
            hit_rate = hit_rate,
            pool_ok = pool_ok
        )
    }

    fn serving_spec() -> BenchSpec {
        committed_bench_specs()
            .into_iter()
            .find(|s| s.file == "BENCH_serving.json")
            .unwrap()
    }

    #[test]
    fn validates_a_healthy_serving_report() {
        let summary =
            validate_bench_report(&serving_spec(), &minimal_serving_report(450.0, 0.9, 1)).unwrap();
        assert!(
            summary.contains("throughput_rps 450.000 >= 20.000"),
            "{summary}"
        );
        assert!(
            summary.contains("cache_hit_rate 0.900 >= 0.500"),
            "{summary}"
        );
        assert!(
            summary.contains("pool_steady_state_ok 1.000 >= 1.000"),
            "{summary}"
        );
    }

    #[test]
    fn rejects_a_serving_report_below_its_bars() {
        let slow = validate_bench_report(&serving_spec(), &minimal_serving_report(5.0, 0.9, 1));
        assert!(slow.unwrap_err().contains("throughput_rps"));
        let cold = validate_bench_report(&serving_spec(), &minimal_serving_report(450.0, 0.2, 1));
        assert!(cold.unwrap_err().contains("cache_hit_rate"));
        let leaky = validate_bench_report(&serving_spec(), &minimal_serving_report(450.0, 0.9, 0));
        assert!(leaky.unwrap_err().contains("pool_steady_state_ok"));
    }

    #[test]
    fn rejects_a_serving_report_missing_its_counters() {
        let missing = minimal_serving_report(450.0, 0.9, 1)
            .replace("\"prepares_skipped\": 180, \"steady_state_fresh_allocations\": 0, \"pool_steady_state_ok\": 1", "\"pool_steady_state_ok\": 1");
        let err = validate_bench_report(&serving_spec(), &missing).unwrap_err();
        assert!(err.contains("prepares_skipped"), "{err}");
        let truncated = &minimal_serving_report(450.0, 0.9, 1)[..50];
        let err = validate_bench_report(&serving_spec(), truncated).unwrap_err();
        assert!(err.contains("invalid JSON"), "{err}");
    }

    fn minimal_condense_report(fragmented: f64, auto_eff: f64) -> String {
        format!(
            concat!(
                "{{\"bench\": \"adjacency_condense_vs_skip\", \"scale\": \"fast\", ",
                "\"reps\": 3, \"body\": \"avx512\", \"condense_threshold\": 0.75, ",
                "\"fragmented_speedup\": {fragmented}, ",
                "\"fragmented_probe\": \"fragmented-50\", \"fragmented_bar\": 1.3, ",
                "\"auto_worst_efficiency\": {auto_eff}, \"auto_efficiency_bar\": 0.95, ",
                "\"note\": \"test\", ",
                "\"shapes\": [{{\"name\": \"fragmented-50\", \"m\": 4096, \"n\": 128, ",
                "\"plain_ns\": 3, \"skip_ns\": 10, \"condensed_ns\": 2, \"auto_ns\": 2, ",
                "\"auto_path\": \"condensed\", \"condensed_vs_skip\": {fragmented}, ",
                "\"auto_efficiency\": {auto_eff}, \"condensation_ratio\": 0.02, ",
                "\"nonzero_word_ratio\": 1.0, \"fragmentation\": 1.0}}]}}"
            ),
            fragmented = fragmented,
            auto_eff = auto_eff
        )
    }

    fn condense_spec() -> BenchSpec {
        committed_bench_specs()
            .into_iter()
            .find(|s| s.file == "BENCH_condense.json")
            .unwrap()
    }

    #[test]
    fn validates_a_healthy_condense_report() {
        let summary =
            validate_bench_report(&condense_spec(), &minimal_condense_report(5.0, 1.0)).unwrap();
        assert!(
            summary.contains("fragmented_speedup 5.000 >= 1.300"),
            "{summary}"
        );
        assert!(
            summary.contains("auto_worst_efficiency 1.000 >= 0.950"),
            "{summary}"
        );
    }

    #[test]
    fn rejects_a_condense_report_below_its_bars() {
        // Condensed kernel regressed below the fragmented headline bar.
        let slow = validate_bench_report(&condense_spec(), &minimal_condense_report(1.1, 1.0));
        assert!(slow.unwrap_err().contains("fragmented_speedup"));
        // The Auto heuristic mispredicted outside the 5% tolerance.
        let mispredicted =
            validate_bench_report(&condense_spec(), &minimal_condense_report(5.0, 0.4));
        assert!(mispredicted.unwrap_err().contains("auto_worst_efficiency"));
    }

    #[test]
    fn rejects_a_condense_report_missing_its_keys() {
        let missing_top = minimal_condense_report(5.0, 1.0)
            .replace("\"fragmented_probe\": \"fragmented-50\", ", "");
        let err = validate_bench_report(&condense_spec(), &missing_top).unwrap_err();
        assert!(err.contains("fragmented_probe"), "{err}");
        let missing_row =
            minimal_condense_report(5.0, 1.0).replace("\"auto_path\": \"condensed\", ", "");
        let err = validate_bench_report(&condense_spec(), &missing_row).unwrap_err();
        assert!(err.contains("missing key \"auto_path\""), "{err}");
    }

    #[test]
    fn rejects_a_condense_report_with_a_malformed_auto_tolerance_row() {
        // A hand-mangled report where the Auto tolerance is not numeric must
        // fail by name, not silently pass the gate.
        let stringly = minimal_condense_report(5.0, 1.0).replace(
            "\"auto_worst_efficiency\": 1,",
            "\"auto_worst_efficiency\": \"fine\",",
        );
        let err = validate_bench_report(&condense_spec(), &stringly).unwrap_err();
        assert!(
            err.contains("\"auto_worst_efficiency\" must be a number"),
            "{err}"
        );
        let truncated = &minimal_condense_report(5.0, 1.0)[..60];
        let err = validate_bench_report(&condense_spec(), truncated).unwrap_err();
        assert!(err.contains("invalid JSON"), "{err}");
    }

    fn minimal_tune_table(threshold: &str) -> String {
        format!(
            concat!(
                "{{\"file\": \"TUNE_gemm.json\", \"scale\": \"fast\", \"reps\": 2, ",
                "\"generated_by\": \"tilingtune\", \"condense_threshold\": \"{threshold}\"}}"
            ),
            threshold = threshold
        )
    }

    #[test]
    fn validates_a_healthy_tune_table() {
        let summary = validate_tune_table(&minimal_tune_table("0.921")).unwrap();
        assert!(summary.contains("condense_threshold 0.921"), "{summary}");
    }

    #[test]
    fn rejects_a_missing_or_malformed_condense_threshold() {
        for bad in ["zero", "-1.0", "0", "inf", ""] {
            let err = validate_tune_table(&minimal_tune_table(bad)).unwrap_err();
            assert!(err.contains("not a finite positive number"), "{bad}: {err}");
        }
        let missing = minimal_tune_table("0.9").replace(", \"condense_threshold\": \"0.9\"", "");
        let err = validate_tune_table(&missing).unwrap_err();
        assert!(err.contains("condense_threshold"), "{err}");
    }

    #[test]
    fn rejects_a_tune_table_missing_metadata_or_carrying_scheme_entries() {
        for key in ["scale", "generated_by"] {
            let missing = minimal_tune_table("0.9").replace(&format!("\"{key}\""), "\"other\"");
            let err = validate_tune_table(&missing).unwrap_err();
            assert!(err.contains(&format!("metadata key \"{key}\"")), "{err}");
        }
        let stale = minimal_tune_table("0.9").replace(
            "\"reps\": 2, ",
            "\"reps\": 2, \"entries\": [{\"body\": \"avx512\", \"scheme\": \"16x8x8\"}], ",
        );
        let err = validate_tune_table(&stale).unwrap_err();
        assert!(err.contains("entries"), "{err}");
    }

    #[test]
    fn rejects_misidentified_or_truncated_tune_tables() {
        let err = validate_tune_table("{\"file\": \"nope.json\"}").unwrap_err();
        assert!(err.contains("file identifier"), "{err}");
        let err = validate_tune_table("{\"condense_threshold\": \"0.9\"}").unwrap_err();
        assert!(err.contains("missing \"file\""), "{err}");
        let err = validate_tune_table(&minimal_tune_table("0.9")[..30]).unwrap_err();
        assert!(err.contains("invalid JSON"), "{err}");
    }

    #[test]
    fn rejects_missing_row_keys() {
        let broken = minimal_partition_report(2.0).replace("\"edges\": 1, ", "");
        let err = validate_bench_report(&partition_spec(), &broken).unwrap_err();
        assert!(err.contains("missing key \"edges\""), "{err}");
    }
}
