//! The committed `BENCH_*.json` perf reports: one declaration each, one
//! writer, one validator.
//!
//! Each report is declared once, as a [`BenchSpec`] in [`BENCH_SPECS`]: its
//! file name and `bench` id, every top-level key and every row key it
//! carries, and each [`Gate`] with its bar at `tiny` scale and at every other
//! scale.  `perfsmoke` measures a report's fields, completes them with
//! [`BenchSpec::report`] (the id, the scale and each gate's bar), writes the
//! result with [`JsonValue::to_json`] and runs [`validate_bench_report`] on
//! the text it wrote.  `benchcheck` runs the same check on the committed
//! files, so a stale, truncated or hand-mangled report fails CI: the
//! validator rejects a missing key, a key the spec does not name (top-level or
//! in a row), a recorded bar other than the spec's bar for the report's
//! `scale`, and a gated value below that bar.  The committed tune table gets
//! the same strictness ([`validate_tune_table`]).  The reader and writer are
//! minimal because the build is offline, with no JSON crate to depend on.

use crate::experiments::BenchScale;
use std::iter::Peekable;
use std::str::Chars;

/// A JSON value.  Numbers are finite `f64`s: the reader rejects literals
/// that overflow and the writer refuses NaN and infinities.
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

/// Build a [`JsonValue::Obj`] from `key => value` pairs, in order, converting
/// each value with `JsonValue::from`.
#[macro_export]
macro_rules! json_obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::benchjson::JsonValue::Obj(vec![
            $(($key.to_string(), $crate::benchjson::JsonValue::from($value))),*
        ])
    };
}

impl From<f64> for JsonValue {
    fn from(value: f64) -> Self {
        JsonValue::Num(value)
    }
}

macro_rules! integer_into_json {
    ($($int:ty),*) => {
        $(impl From<$int> for JsonValue {
            /// Exact below 2^53, which covers every count and nanosecond time
            /// a report records.
            fn from(value: $int) -> Self {
                JsonValue::Num(value as f64)
            }
        })*
    };
}
integer_into_json!(u32, u64, usize, u128);

impl From<&str> for JsonValue {
    fn from(value: &str) -> Self {
        JsonValue::Str(value.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(value: String) -> Self {
        JsonValue::Str(value)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Arr(items.into_iter().map(Into::into).collect())
    }
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

    /// The one serializer: a report object and its row arrays hold one item
    /// per line, everything inside a row stays on one line, and the text ends
    /// in a newline.  [`parse_json`] reads it back equal.  Fails on a NaN or
    /// infinite number, naming its key.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = String::new();
        self.write(&mut out, 0, "")?;
        out.push('\n');
        Ok(out)
    }

    fn write(&self, out: &mut String, depth: usize, path: &str) -> Result<(), String> {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) if v.is_finite() => out.push_str(&v.to_string()),
            JsonValue::Num(v) => return Err(format!("{path:?} is {v}, which JSON cannot hold")),
            JsonValue::Str(s) => write_string(out, s),
            JsonValue::Arr(items) => {
                let items = items.iter().map(|v| (None, v)).collect();
                write_items(out, ['[', ']'], items, depth, path)?;
            }
            JsonValue::Obj(fields) => {
                let items = fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect();
                write_items(out, ['{', '}'], items, depth, path)?;
            }
        }
        Ok(())
    }
}

/// An array's or object's items: one per line when the container is the
/// report or one of its arrays and holds a container, else on one line.
fn write_items(
    out: &mut String,
    brackets: [char; 2],
    items: Vec<(Option<&str>, &JsonValue)>,
    depth: usize,
    path: &str,
) -> Result<(), String> {
    let nested = |v: &JsonValue| matches!(v, JsonValue::Arr(_) | JsonValue::Obj(_));
    let broken = depth < 2 && items.iter().any(|(_, v)| nested(v));
    let (separator, indent) = if broken {
        (",\n", "  ".repeat(depth + 1))
    } else {
        (", ", String::new())
    };
    out.push(brackets[0]);
    for (index, (key, value)) in items.into_iter().enumerate() {
        match index {
            0 if broken => out.push('\n'),
            0 => {}
            _ => out.push_str(separator),
        }
        out.push_str(&indent);
        let child = match key {
            Some(key) => {
                write_string(out, key);
                out.push_str(": ");
                match path {
                    "" => key.to_string(),
                    _ => format!("{path}.{key}"),
                }
            }
            None => format!("{path}[{index}]"),
        };
        value.write(out, depth + 1, &child)?;
    }
    if broken {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(brackets[1]);
    Ok(())
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting [`parse_json`] accepts: far beyond any report, shallow
/// enough that hostile input cannot exhaust the stack.
const MAX_DEPTH: usize = 64;

/// Parse a JSON document (rejecting trailing garbage).
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut chars = text.chars().peekable();
    let value = parse_value(&mut chars, 0)?;
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

fn parse_value(chars: &mut Peekable<Chars<'_>>, depth: usize) -> Result<JsonValue, String> {
    skip_ws(chars);
    if depth > MAX_DEPTH {
        return Err(format!("nested deeper than {MAX_DEPTH} levels"));
    }
    match chars.peek() {
        Some('{') => parse_object(chars, depth),
        Some('[') => parse_array(chars, depth),
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
        .ok()
        .filter(|v| v.is_finite())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("malformed number {literal:?}"))
}

fn parse_string(chars: &mut Peekable<Chars<'_>>) -> Result<String, String> {
    expect(chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => out.push(match chars.next() {
                Some('"') => '"',
                Some('\\') => '\\',
                Some('/') => '/',
                Some('n') => '\n',
                Some('t') => '\t',
                Some('r') => '\r',
                Some('b') => '\u{8}',
                Some('f') => '\u{c}',
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    Some(&hex)
                        .filter(|hex| hex.len() == 4 && hex.chars().all(|c| c.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| format!("invalid escape \\u{hex}"))?
                }
                other => return Err(format!("invalid escape {other:?} in string")),
            }),
            Some(c) => out.push(c),
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_array(chars: &mut Peekable<Chars<'_>>, depth: usize) -> Result<JsonValue, String> {
    expect(chars, '[')?;
    let mut items = Vec::new();
    skip_ws(chars);
    if chars.peek() == Some(&']') {
        chars.next();
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(chars, depth + 1)?);
        skip_ws(chars);
        match chars.next() {
            Some(',') => continue,
            Some(']') => return Ok(JsonValue::Arr(items)),
            other => return Err(format!("expected ',' or ']' in array, found {other:?}")),
        }
    }
}

fn parse_object(chars: &mut Peekable<Chars<'_>>, depth: usize) -> Result<JsonValue, String> {
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
        fields.push((key, parse_value(chars, depth + 1)?));
        skip_ws(chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => return Ok(JsonValue::Obj(fields)),
            other => return Err(format!("expected ',' or '}}' in object, found {other:?}")),
        }
    }
}

/// The `generated_by` every report records.
const GENERATED_BY: &str = "cargo run --release -p qgtc-bench --bin perfsmoke";

/// One gate of a report: the top-level number `key` must reach the bar of
/// the report's scale, and the report records that bar under `bar_key`.
#[derive(Debug)]
pub struct Gate {
    /// The gated top-level key.
    pub key: &'static str,
    /// The top-level key the bar is recorded under.
    pub bar_key: &'static str,
    /// The bar at `tiny` scale (the CI setting).
    pub tiny: f64,
    /// The bar at every other scale (the committed reports are `fast` runs).
    pub full: f64,
}

impl Gate {
    /// The bar at `scale`.
    pub fn bar(&self, scale: BenchScale) -> f64 {
        if scale == BenchScale::Tiny {
            self.tiny
        } else {
            self.full
        }
    }
}

const fn gate(key: &'static str, bar_key: &'static str, tiny: f64, full: f64) -> Gate {
    Gate {
        key,
        bar_key,
        tiny,
        full,
    }
}

/// Everything a report carries.  Every key listed here is required, and a
/// report may carry no other: not at the top level, whose keys are `bench`,
/// `scale`, `generated_by`, [`BenchSpec::keys`], the rows and each gate's key
/// and bar, and not in a row.
#[derive(Debug)]
pub struct BenchSpec {
    /// File name, at the repo root for the committed copy.
    pub file: &'static str,
    /// The `"bench"` identifier.
    pub bench: &'static str,
    /// The ungated top-level keys.
    pub keys: &'static [&'static str],
    /// Key of the row array, which must not be empty.
    pub rows_key: &'static str,
    /// The keys of every row.
    pub row_keys: &'static [&'static str],
    /// The gates, each with its bars.
    pub gates: &'static [Gate],
}

/// The six committed perf reports.
pub static BENCH_SPECS: [BenchSpec; 6] = [
    BenchSpec {
        file: "BENCH_gemm.json",
        bench: "gemm_sparse_skip",
        keys: &["reps"],
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
            gate("sparse_skip_speedup", "sparse_skip_bar", 1.0, 1.5),
            gate("sparse_skip_ratio", "sparse_skip_min_ratio", 0.9, 0.9),
        ],
    },
    BenchSpec {
        file: "BENCH_pipeline.json",
        bench: "pipeline_modeled_overlap",
        keys: &["workload", "note"],
        rows_key: "datasets",
        row_keys: &[
            "dataset",
            "num_batches",
            "prefetch",
            "modeled_serial_ms",
            "modeled_overlapped_ms",
            "modeled_overlap_speedup",
        ],
        gates: &[gate(
            "modeled_overlap_speedup",
            "modeled_overlap_bar",
            1.0,
            1.3,
        )],
    },
    BenchSpec {
        file: "BENCH_partition.json",
        bench: "partition_serial_vs_sharded",
        keys: &["workload", "reps", "shards", "note"],
        rows_key: "datasets",
        row_keys: &[
            "dataset",
            "nodes",
            "edges",
            "num_parts",
            "shards",
            "serial_wall_ms",
            "sharded_wall_ms",
            "wall_speedup",
            "edge_cut",
        ],
        gates: &[gate("wall_speedup", "wall_not_slower_bar", 0.95, 0.95)],
    },
    BenchSpec {
        file: "BENCH_backend.json",
        bench: "backend_race",
        keys: &["reps", "host_backends", "headline_winner", "note"],
        rows_key: "shapes",
        row_keys: &[
            "name",
            "m",
            "k",
            "n",
            "a_bits",
            "b_bits",
            "winner",
            "portable_ns_per_op",
            "winner_ns_per_op",
            "speedup_vs_portable",
            "backend_ns_per_op",
        ],
        gates: &[gate(
            "winner_speedup_vs_portable",
            "winner_not_slower_bar",
            1.0,
            1.0,
        )],
    },
    BenchSpec {
        file: "BENCH_serving.json",
        bench: "serving_session",
        keys: &[
            "workload",
            "reps",
            "requests_per_dataset",
            "nodes_per_request",
            "interarrival_ms",
            "p50_ms",
            "p99_ms",
            "cache_hits",
            "steady_state_fresh_allocations",
            "note",
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
            "cache_hit_rate",
            "steady_state_fresh_allocations",
            "weight_quantizations",
        ],
        gates: &[
            gate("throughput_rps", "throughput_bar", 20.0, 20.0),
            gate("cache_hit_rate", "cache_hit_bar", 0.5, 0.5),
            gate("pool_steady_state_ok", "pool_steady_state_bar", 1.0, 1.0),
            gate(
                "weights_quantized_once_ok",
                "weights_quantized_once_bar",
                1.0,
                1.0,
            ),
            gate("oracle_match_ok", "oracle_match_bar", 1.0, 1.0),
        ],
    },
    BenchSpec {
        file: "BENCH_condense.json",
        bench: "adjacency_condense_vs_skip",
        keys: &[
            "reps",
            "body",
            "condense_threshold",
            "fragmented_probe",
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
            gate("fragmented_speedup", "fragmented_bar", 1.0, 1.3),
            gate("auto_worst_efficiency", "auto_efficiency_bar", 0.8, 0.95),
        ],
    },
];

impl BenchSpec {
    /// Every top-level key the report carries.
    fn top_keys(&self) -> impl Iterator<Item = &'static str> + Clone + '_ {
        ["bench", "scale", "generated_by", self.rows_key]
            .into_iter()
            .chain(self.keys.iter().copied())
            .chain(self.gates.iter().flat_map(|gate| [gate.key, gate.bar_key]))
    }

    /// The report from a probe's measured fields (an object): `bench`,
    /// `scale` and `generated_by` first, then the measured fields in order,
    /// each gated one followed by its bar at `scale`.
    pub fn report(&self, scale: BenchScale, measured: JsonValue) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = vec![
            ("bench".to_string(), self.bench.into()),
            ("scale".to_string(), scale.name().into()),
            ("generated_by".to_string(), GENERATED_BY.into()),
        ];
        let JsonValue::Obj(measured) = measured else {
            panic!("{}: a probe measures an object", self.file);
        };
        for (key, value) in measured {
            let gate = self.gates.iter().find(|gate| gate.key == key);
            fields.push((key, value));
            if let Some(gate) = gate {
                fields.push((gate.bar_key.to_string(), gate.bar(scale).into()));
            }
        }
        JsonValue::Obj(fields)
    }
}

/// `value` must be an object carrying every one of `keys`, once, and no other.
fn check_keys<'k>(
    value: &JsonValue,
    keys: impl Iterator<Item = &'k str> + Clone,
    place: &str,
) -> Result<(), String> {
    let JsonValue::Obj(fields) = value else {
        return Err(format!("{place} is not an object"));
    };
    if let Some(key) = keys.clone().find(|key| value.get(key).is_none()) {
        return Err(format!("{place} is missing key {key:?}"));
    }
    for (index, (key, _)) in fields.iter().enumerate() {
        if !keys.clone().any(|named| named == key) {
            return Err(format!(
                "{place} carries key {key:?}, which its spec does not name; regenerate it"
            ));
        }
        if fields[..index].iter().any(|(earlier, _)| earlier == key) {
            return Err(format!("{place} carries key {key:?} twice"));
        }
    }
    Ok(())
}

/// Validate one report against its spec. Returns a human-readable summary line
/// on success, the failure reason otherwise.
pub fn validate_bench_report(spec: &BenchSpec, text: &str) -> Result<String, String> {
    let file = spec.file;
    let doc = parse_json(text).map_err(|err| format!("{file}: invalid JSON: {err}"))?;
    check_keys(&doc, spec.top_keys(), file)?;
    let bench = doc.get("bench").and_then(JsonValue::as_str).unwrap_or("");
    if bench != spec.bench {
        return Err(format!(
            "{file}: bench identifier is {bench:?}, expected {:?}",
            spec.bench
        ));
    }
    let raw_scale = doc.get("scale").and_then(JsonValue::as_str).unwrap_or("");
    let scale = BenchScale::parse(Some(raw_scale))
        .map_err(|_| format!("{file}: scale {raw_scale:?} is not tiny, fast or paper"))?;
    let rows = doc
        .get(spec.rows_key)
        .and_then(JsonValue::as_array)
        .filter(|rows| !rows.is_empty())
        .ok_or_else(|| format!("{file}: {:?} must be a non-empty array", spec.rows_key))?;
    for (index, row) in rows.iter().enumerate() {
        let place = format!("{file}: {}[{index}]", spec.rows_key);
        check_keys(row, spec.row_keys.iter().copied(), &place)?;
    }
    let number = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{file}: {key:?} must be a number"))
    };
    let mut gate_notes = Vec::new();
    for gate in spec.gates {
        let (value, recorded, bar) = (number(gate.key)?, number(gate.bar_key)?, gate.bar(scale));
        if recorded != bar {
            return Err(format!(
                "{file}: records {} {recorded}, but the bar at scale {} is {bar}",
                gate.bar_key,
                scale.name()
            ));
        }
        if value < bar {
            return Err(format!(
                "{file}: recorded {} {value:.3} is below its bar {bar:.3}",
                gate.key
            ));
        }
        gate_notes.push(format!("{} {value:.3} >= {bar:.3}", gate.key));
    }
    Ok(format!(
        "{file}: {} rows, {}",
        rows.len(),
        gate_notes.join(", ")
    ))
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    const SCALES: [BenchScale; 3] = [BenchScale::Tiny, BenchScale::Fast, BenchScale::Paper];

    /// A report that meets `spec` at `scale`: every ungated key and row key
    /// holds 1, every gated key sits exactly at its bar.
    fn fixture(spec: &BenchSpec, scale: BenchScale) -> JsonValue {
        let ones = |keys: &[&str]| -> Vec<(String, JsonValue)> {
            keys.iter()
                .map(|key| (key.to_string(), 1.0.into()))
                .collect()
        };
        let mut measured = ones(spec.keys);
        let row = JsonValue::Obj(ones(spec.row_keys));
        measured.push((spec.rows_key.to_string(), vec![row.clone(), row].into()));
        for gate in spec.gates {
            measured.push((gate.key.to_string(), gate.bar(scale).into()));
        }
        spec.report(scale, JsonValue::Obj(measured))
    }

    fn fields(value: &mut JsonValue) -> &mut Vec<(String, JsonValue)> {
        match value {
            JsonValue::Obj(fields) => fields,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn set(report: &mut JsonValue, key: &str, value: JsonValue) {
        let field = fields(report).iter_mut().find(|(k, _)| k == key);
        field.expect("key present").1 = value;
    }

    fn first_row<'a>(report: &'a mut JsonValue, spec: &BenchSpec) -> &'a mut JsonValue {
        let rows = fields(report).iter_mut().find(|(k, _)| k == spec.rows_key);
        match &mut rows.expect("rows present").1 {
            JsonValue::Arr(rows) => &mut rows[0],
            other => panic!("rows are not an array: {other:?}"),
        }
    }

    fn check(spec: &BenchSpec, report: &JsonValue) -> Result<String, String> {
        validate_bench_report(spec, &report.to_json().expect("finite report"))
    }

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
    fn rejects_truncated_overflowing_and_overnested_documents() {
        assert!(parse_json(r#"{"a": [1, 2"#).is_err());
        assert!(parse_json(r#"{"a": 1} trailing"#).is_err());
        assert!(parse_json("").is_err());
        assert!(parse_json("1e999").is_err());
        assert!(parse_json(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn writes_reports_one_field_and_one_row_per_line() {
        let report = json_obj! {
            "bench" => "demo",
            "names" => vec!["a", "b"],
            "rows" => vec![json_obj! { "x" => 1u32, "y" => json_obj! { "z" => 0.5 } }],
        };
        assert_eq!(
            report.to_json().unwrap(),
            "{\n  \"bench\": \"demo\",\n  \"names\": [\"a\", \"b\"],\n  \"rows\": [\n    \
             {\"x\": 1, \"y\": {\"z\": 0.5}}\n  ]\n}\n"
        );
    }

    #[test]
    fn every_spec_accepts_its_fixture_at_every_scale() {
        for spec in &BENCH_SPECS {
            for scale in SCALES {
                let summary = check(spec, &fixture(spec, scale)).unwrap();
                assert!(summary.contains("2 rows"), "{summary}");
                for gate in spec.gates {
                    let bar = gate.bar(scale);
                    let note = format!("{} {bar:.3} >= {bar:.3}", gate.key);
                    assert!(summary.contains(&note), "{summary}");
                }
            }
        }
    }

    #[test]
    fn the_gates_keep_their_bars() {
        let bars: Vec<(&str, f64, f64)> = BENCH_SPECS
            .iter()
            .flat_map(|spec| spec.gates)
            .map(|gate| (gate.key, gate.tiny, gate.full))
            .collect();
        assert_eq!(
            bars,
            [
                ("sparse_skip_speedup", 1.0, 1.5),
                ("sparse_skip_ratio", 0.9, 0.9),
                ("modeled_overlap_speedup", 1.0, 1.3),
                ("wall_speedup", 0.95, 0.95),
                ("winner_speedup_vs_portable", 1.0, 1.0),
                ("throughput_rps", 20.0, 20.0),
                ("cache_hit_rate", 0.5, 0.5),
                ("pool_steady_state_ok", 1.0, 1.0),
                ("weights_quantized_once_ok", 1.0, 1.0),
                ("oracle_match_ok", 1.0, 1.0),
                ("fragmented_speedup", 1.0, 1.3),
                ("auto_worst_efficiency", 0.8, 0.95),
            ]
        );
    }

    #[test]
    fn rejects_a_gated_value_below_its_bar_by_name() {
        for spec in &BENCH_SPECS {
            for gate in spec.gates {
                let mut report = fixture(spec, BenchScale::Fast);
                set(&mut report, gate.key, (gate.full - 0.01).into());
                let err = check(spec, &report).unwrap_err();
                assert!(err.contains(&format!("recorded {} ", gate.key)), "{err}");
                assert!(err.contains("below its bar"), "{err}");
                set(&mut report, gate.key, "fast".into());
                let err = check(spec, &report).unwrap_err();
                assert!(
                    err.contains(&format!("{:?} must be a number", gate.key)),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn rejects_a_bar_lowered_by_hand() {
        for spec in &BENCH_SPECS {
            for gate in spec.gates {
                let mut report = fixture(spec, BenchScale::Fast);
                set(&mut report, gate.bar_key, (gate.full - 0.5).into());
                let err = check(spec, &report).unwrap_err();
                assert!(err.contains(&format!("records {} ", gate.bar_key)), "{err}");
            }
        }
        // A full-scale report carrying the tiny bars fails wherever they differ.
        let gemm = &BENCH_SPECS[0];
        let mut report = fixture(gemm, BenchScale::Tiny);
        set(&mut report, "scale", "fast".into());
        set(&mut report, "sparse_skip_speedup", 2.0.into());
        let err = check(gemm, &report).unwrap_err();
        assert!(err.contains("records sparse_skip_bar 1,"), "{err}");
    }

    #[test]
    fn rejects_missing_unnamed_and_repeated_keys() {
        for spec in &BENCH_SPECS {
            let healthy = fixture(spec, BenchScale::Fast);
            for key in spec.top_keys() {
                let mut report = healthy.clone();
                fields(&mut report).retain(|(k, _)| k != key);
                let err = check(spec, &report).unwrap_err();
                assert!(err.contains(&format!("missing key {key:?}")), "{err}");
            }
            let mut report = healthy.clone();
            fields(&mut report).push(("modeled_shard_bar".to_string(), 1.5.into()));
            let err = check(spec, &report).unwrap_err();
            assert!(err.contains("carries key \"modeled_shard_bar\""), "{err}");
            let mut report = healthy.clone();
            let repeated = fields(&mut report)[0].clone();
            fields(&mut report).push(repeated);
            let err = check(spec, &report).unwrap_err();
            assert!(err.contains("carries key \"bench\" twice"), "{err}");
            for key in spec.row_keys {
                let mut report = healthy.clone();
                fields(first_row(&mut report, spec)).retain(|(k, _)| k != key);
                let err = check(spec, &report).unwrap_err();
                let want = format!("{}[0] is missing key {key:?}", spec.rows_key);
                assert!(err.contains(&want), "{err}");
            }
        }
    }

    #[test]
    fn rejects_a_partition_row_carrying_a_retired_column() {
        let spec = &BENCH_SPECS[2];
        assert_eq!(spec.file, "BENCH_partition.json");
        let mut report = fixture(spec, BenchScale::Fast);
        fields(first_row(&mut report, spec))
            .push(("modeled_shard_speedup".to_string(), 4.2.into()));
        let err = check(spec, &report).unwrap_err();
        assert!(
            err.contains("datasets[0] carries key \"modeled_shard_speedup\""),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_stale_id_an_unknown_scale_empty_rows_and_truncation() {
        for spec in &BENCH_SPECS {
            let healthy = fixture(spec, BenchScale::Fast);
            let mut report = healthy.clone();
            set(&mut report, "bench", "pipeline_streamed_vs_serial".into());
            let err = check(spec, &report).unwrap_err();
            assert!(err.contains(&format!("expected {:?}", spec.bench)), "{err}");
            let mut report = healthy.clone();
            set(&mut report, "scale", "huge".into());
            let err = check(spec, &report).unwrap_err();
            assert!(err.contains("scale \"huge\" is not tiny"), "{err}");
            let mut report = healthy.clone();
            set(&mut report, spec.rows_key, JsonValue::Arr(Vec::new()));
            let err = check(spec, &report).unwrap_err();
            assert!(err.contains("must be a non-empty array"), "{err}");
            let text = healthy.to_json().unwrap();
            let err = validate_bench_report(spec, &text[..text.len() / 2]).unwrap_err();
            assert!(err.contains("invalid JSON"), "{err}");
        }
    }

    /// A random tree of depth at most `depth`: finite numbers of every
    /// magnitude, and strings full of quotes, backslashes and control
    /// characters.
    fn random_tree(rng: &mut TestRng, depth: u32) -> JsonValue {
        let text = |rng: &mut TestRng| -> String {
            const ALPHABET: [char; 9] = ['"', '\\', 'a', ' ', '\n', '\u{1}', '/', 'é', '𝄞'];
            let len = rng.next_bounded(8);
            (0..len)
                .map(|_| ALPHABET[rng.next_bounded(9) as usize])
                .collect()
        };
        match rng.next_bounded(if depth == 0 { 4 } else { 6 }) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(rng.next_u64().is_multiple_of(2)),
            2 => {
                let bits = f64::from_bits(rng.next_u64());
                JsonValue::Num(if bits.is_finite() {
                    bits
                } else {
                    rng.next_f64()
                })
            }
            3 => JsonValue::Str(text(rng)),
            4 => JsonValue::Arr(
                (0..rng.next_bounded(4))
                    .map(|_| random_tree(rng, depth - 1))
                    .collect(),
            ),
            _ => JsonValue::Obj(
                (0..rng.next_bounded(4))
                    .map(|_| (text(rng), random_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_json_never_panics_on_random_or_mutated_text(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            const ALPHABET: &[u8] = b"{}[]\":,.-+eE0123456789 \\utrfalsn";
            let random: String = (0..rng.next_bounded(64))
                .map(|_| ALPHABET[rng.next_bounded(ALPHABET.len() as u64) as usize] as char)
                .collect();
            let _ = parse_json(&random);
            let spec = &BENCH_SPECS[rng.next_bounded(6) as usize];
            let mut text: Vec<char> = fixture(spec, BenchScale::Tiny).to_json().unwrap().chars().collect();
            for _ in 0..1 + rng.next_bounded(4) {
                let at = rng.next_bounded(text.len() as u64) as usize;
                let c = ALPHABET[rng.next_bounded(ALPHABET.len() as u64) as usize] as char;
                match rng.next_bounded(3) {
                    0 => { text.remove(at); }
                    1 => text.insert(at, c),
                    _ => text[at] = c,
                }
            }
            let mutated: String = text.into_iter().collect();
            let _ = validate_bench_report(spec, &mutated);
        }

        #[test]
        fn finite_trees_round_trip_through_the_writer(seed in any::<u64>()) {
            let tree = random_tree(&mut TestRng::new(seed), 3);
            let text = tree.to_json().unwrap();
            prop_assert_eq!(parse_json(&text), Ok(tree));
        }

        #[test]
        fn the_writer_refuses_non_finite_numbers_by_key(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.next_bounded(3) as usize];
            let report = json_obj! {
                "bench" => random_tree(&mut rng, 2),
                "datasets" => vec![json_obj! { "dataset" => "PPI", "wall_speedup" => bad }],
            };
            let err = report.to_json().unwrap_err();
            prop_assert!(err.contains("datasets[0].wall_speedup"), "{}", err);
        }
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
}
