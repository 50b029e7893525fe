//! Tiling-scheme selection for the fused GEMM.
//!
//! The panel-staged kernel of `qgtc_bitmat::fused` is parameterised by a
//! [`TilingScheme`] (output-row block × output-column block × K-panel words).
//! This module decides which scheme a kernel call runs under:
//!
//! 1. the `QGTC_TILING=RxCxK` environment override, when set (a malformed
//!    value is `QgtcError::InvalidConfig` from `QgtcConfig::validate`, and a
//!    panic naming the parser's error for code that dispatches kernels
//!    directly — a silent fallback would invalidate benchmark runs);
//! 2. an explicit [`TilingChoice::Fixed`] scheme on the [`KernelConfig`];
//! 3. with [`TilingChoice::Auto`] (the default), the committed autotuner
//!    table `TUNE_gemm.json`, keyed by `(popcount body, shape class)`;
//! 4. the hardwired baseline constants when no table entry matches —
//!    bitwise-identical behaviour to the pre-tiling kernel.
//!
//! The table is produced by the `tilingtune` binary in `qgtc-bench` (see the
//! README's "Tuning" section) and validated structurally by `benchcheck`; the
//! loader here is deliberately forgiving — entries whose scheme string does
//! not parse are skipped, and a missing or unreadable file resolves to the
//! baseline — because kernel dispatch must never fail on a stale tune file.
//!
//! [`KernelConfig`]: crate::bmm::KernelConfig

use qgtc_bitmat::fused::TilingScheme;
use std::sync::OnceLock;

/// How a kernel call picks its [`TilingScheme`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TilingChoice {
    /// Resolve per call: `QGTC_TILING` override, else the `TUNE_gemm.json`
    /// entry for this body and shape class, else the baseline constants.
    #[default]
    Auto,
    /// Always run this scheme (still trumped by `QGTC_TILING`).
    Fixed(TilingScheme),
}

/// Shape classes the autotuner table is keyed by, split on GEMM volume
/// `m·k·n`: `large` ≥ 2²⁷ (the 1024³-headline territory, ≳128 MMAC),
/// `medium` ≥ 2²¹ (dataset-profile batch shapes, ≳2 MMAC), `small` below
/// that (where staging overhead dominates and the baseline usually wins).
pub fn shape_class(m: usize, k: usize, n: usize) -> &'static str {
    let volume = (m as u128) * (k as u128) * (n as u128);
    if volume >= 1 << 27 {
        "large"
    } else if volume >= 1 << 21 {
        "medium"
    } else {
        "small"
    }
}

/// One `(body, shape class) → scheme` row of the autotuner table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneEntry {
    /// Popcount-body name the entry was tuned for (`portable` or `avx512`
    /// — see `PopcountBody::name`).
    pub body: String,
    /// Shape class (see [`shape_class`]).
    pub shape_class: String,
    /// The winning scheme.
    pub scheme: TilingScheme,
}

/// Condensation threshold used when the tune file does not carry one: the
/// condensed path must shrink the K loop to at most this fraction of what
/// the span index already visits before `AdjacencyPath::Auto` picks it —
/// headroom for the gather the condensed kernel pays per window.
pub const DEFAULT_CONDENSE_THRESHOLD: f64 = 0.75;

/// The parsed autotuner table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuneTable {
    entries: Vec<TuneEntry>,
    condense_threshold: Option<f64>,
}

impl TuneTable {
    /// Parse a `TUNE_gemm.json` document.  The format is the flat object
    /// list written by `tilingtune`:
    ///
    /// ```json
    /// { "file": "TUNE_gemm.json",
    ///   "entries": [
    ///     { "body": "avx512", "shape_class": "large", "scheme": "16x8x8" } ] }
    /// ```
    ///
    /// The scanner is key-directed and order-insensitive within each entry
    /// object; entries missing a field or carrying an unparsable scheme are
    /// skipped (the strict validation lives in `qgtc-bench`'s `benchcheck`).
    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        for object in scan_objects(text) {
            let (Some(body), Some(class), Some(scheme)) = (
                extract_string(object, "body"),
                extract_string(object, "shape_class"),
                extract_string(object, "scheme"),
            ) else {
                continue;
            };
            let Ok(scheme) = TilingScheme::parse(scheme) else {
                continue;
            };
            entries.push(TuneEntry {
                body: body.to_string(),
                shape_class: class.to_string(),
                scheme,
            });
        }
        // The condensation threshold is a flat top-level string key (never an
        // entry object, so the scanner above cannot mistake it for a row);
        // an unparsable value is ignored like a malformed entry would be.
        let condense_threshold = extract_string(text, "condense_threshold")
            .and_then(|raw| raw.parse::<f64>().ok())
            .filter(|t| t.is_finite() && *t > 0.0);
        Self {
            entries,
            condense_threshold,
        }
    }

    /// All rows, in file order.
    pub fn entries(&self) -> &[TuneEntry] {
        &self.entries
    }

    /// The scheme tuned for `(body, shape class)`, if any (first match wins).
    pub fn lookup(&self, body: &str, class: &str) -> Option<TilingScheme> {
        self.entries
            .iter()
            .find(|e| e.body == body && e.shape_class == class)
            .map(|e| e.scheme)
    }

    /// The tuned condensation threshold carried by the file, if any.
    pub fn tuned_condense_threshold(&self) -> Option<f64> {
        self.condense_threshold
    }
}

/// The condensation threshold `AdjacencyPath::Auto` compares against: the
/// tune table's `condense_threshold` key when present, else
/// [`DEFAULT_CONDENSE_THRESHOLD`].  Tuned by `tilingtune`'s condense stage
/// from a measured fragmentation sweep.
pub fn condense_threshold() -> f64 {
    tune_table()
        .tuned_condense_threshold()
        .unwrap_or(DEFAULT_CONDENSE_THRESHOLD)
}

/// Inner `{...}` objects of a flat JSON document (no nested-object support —
/// the tune table is one level deep by construction).
fn scan_objects(text: &str) -> Vec<&str> {
    let mut objects = Vec::new();
    let outer = match text.find('{') {
        Some(open) => &text[open + 1..],
        None => return objects,
    };
    let mut start = None;
    for (i, ch) in outer.char_indices() {
        match (ch, start) {
            ('{', None) => start = Some(i + 1),
            ('}', Some(s)) => {
                objects.push(&outer[s..i]);
                start = None;
            }
            _ => {}
        }
    }
    objects
}

/// The string value of `"key": "value"` inside one flat object body.
fn extract_string<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let after_key = &object[object.find(&needle)? + needle.len()..];
    let after_colon = after_key.trim_start().strip_prefix(':')?;
    let value = after_colon.trim_start().strip_prefix('"')?;
    value.split('"').next()
}

/// Where the committed tune table lives: the `QGTC_TUNE_FILE` override, else
/// `TUNE_gemm.json` at the workspace root.
pub fn tune_file_path() -> String {
    std::env::var("QGTC_TUNE_FILE").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../TUNE_gemm.json").to_string()
    })
}

/// The process-wide tune table, loaded once from [`tune_file_path`].  A
/// missing or unreadable file is an empty table (baseline behaviour).
pub fn tune_table() -> &'static TuneTable {
    static TABLE: OnceLock<TuneTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        std::fs::read_to_string(tune_file_path())
            .map(|text| TuneTable::parse(&text))
            .unwrap_or_default()
    })
}

/// Parse a `QGTC_TILING` value (`None` when the variable is unset).  A
/// malformed scheme is an error naming the expected `RxCxK` form.
fn parse_tiling_env(raw: Option<&str>) -> Result<Option<TilingScheme>, String> {
    raw.map(|raw| TilingScheme::parse(raw).map_err(|err| format!("QGTC_TILING rejected: {err}")))
        .transpose()
}

/// The `QGTC_TILING` environment override, read and parsed once per process.
pub fn env_tiling() -> &'static Result<Option<TilingScheme>, String> {
    static OVERRIDE: OnceLock<Result<Option<TilingScheme>, String>> = OnceLock::new();
    OVERRIDE.get_or_init(|| parse_tiling_env(std::env::var("QGTC_TILING").ok().as_deref()))
}

/// The scheme a kernel call with the given choice runs under, for a GEMM of
/// shape `m × k × n` executing on the named popcount body.  Resolution
/// order: `QGTC_TILING` > `Fixed` > tune-table lookup > baseline.
///
/// # Panics
///
/// Panics when `QGTC_TILING` holds a malformed scheme — an override that
/// silently fell back to the baseline would corrupt every measurement made
/// under it.  The pipeline entry points reject it earlier with a typed error
/// (`QgtcConfig::validate`).
pub fn resolve_tiling(
    choice: TilingChoice,
    body: &str,
    m: usize,
    k: usize,
    n: usize,
) -> TilingScheme {
    let forced = env_tiling().as_ref().unwrap_or_else(|err| panic!("{err}"));
    if let Some(scheme) = forced {
        return *scheme;
    }
    match choice {
        TilingChoice::Fixed(scheme) => scheme,
        TilingChoice::Auto => tune_table()
            .lookup(body, shape_class(m, k, n))
            .unwrap_or_else(TilingScheme::baseline),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
      "file": "TUNE_gemm.json",
      "entries": [
        { "body": "portable", "shape_class": "large", "scheme": "16x8x8" },
        { "scheme": "4x4x4", "shape_class": "medium", "body": "avx512" },
        { "body": "avx512", "shape_class": "large", "scheme": "0x8x8" },
        { "body": "avx512", "shape_class": "small" }
      ]
    }"#;

    #[test]
    fn tiling_env_parser_names_the_expected_form_on_a_typo() {
        assert_eq!(parse_tiling_env(None), Ok(None));
        assert_eq!(
            parse_tiling_env(Some("16x8x8")),
            Ok(Some(TilingScheme::parse("16x8x8").unwrap()))
        );
        for typo in ["16x8", "16*8*8", "", "0x8x8", "16x8x8x1"] {
            let err = parse_tiling_env(Some(typo)).unwrap_err();
            assert!(err.starts_with("QGTC_TILING rejected"), "{err}");
            assert!(err.contains(&format!("{typo:?}")), "{err}");
            assert!(err.contains("RxCxK") && err.contains("16x8x8"), "{err}");
        }
    }

    #[test]
    fn shape_classes_split_on_volume() {
        assert_eq!(shape_class(1024, 1024, 1024), "large");
        assert_eq!(shape_class(512, 512, 512), "large"); // 2^27 exactly
        assert_eq!(shape_class(512, 512, 511), "medium");
        assert_eq!(shape_class(128, 128, 128), "medium"); // 2^21 exactly
        assert_eq!(shape_class(128, 128, 127), "small");
        assert_eq!(shape_class(1, 1, 1), "small");
        assert_eq!(shape_class(0, 1024, 1024), "small");
    }

    #[test]
    fn tune_table_parses_entries_and_skips_malformed_rows() {
        let table = TuneTable::parse(SAMPLE);
        // The unparsable "0x8x8" scheme and the field-less entry are skipped.
        assert_eq!(table.entries().len(), 2);
        assert_eq!(
            table.lookup("portable", "large"),
            Some(TilingScheme::parse("16x8x8").unwrap())
        );
        // Key order inside the object does not matter.
        assert_eq!(
            table.lookup("avx512", "medium"),
            Some(TilingScheme::parse("4x4x4").unwrap())
        );
        assert_eq!(table.lookup("avx512", "large"), None);
        assert_eq!(table.lookup("portable", "small"), None);
        assert_eq!(TuneTable::parse(""), TuneTable::default());
        assert_eq!(TuneTable::parse("not json at all"), TuneTable::default());
    }

    #[test]
    fn condense_threshold_parses_from_the_root_and_defaults_otherwise() {
        let with = TuneTable::parse(
            r#"{ "file": "TUNE_gemm.json", "condense_threshold": "0.6",
                 "entries": [ { "body": "avx512", "shape_class": "large", "scheme": "16x8x8" } ] }"#,
        );
        assert_eq!(with.tuned_condense_threshold(), Some(0.6));
        assert_eq!(with.entries().len(), 1, "the flat key is not an entry");
        assert_eq!(TuneTable::parse(SAMPLE).tuned_condense_threshold(), None);
        // Malformed or non-positive values are ignored, like bad entries.
        let bad = TuneTable::parse(r#"{ "condense_threshold": "zero", "entries": [] }"#);
        assert_eq!(bad.tuned_condense_threshold(), None);
        let neg = TuneTable::parse(r#"{ "condense_threshold": "-1.0", "entries": [] }"#);
        assert_eq!(neg.tuned_condense_threshold(), None);
        assert!(condense_threshold() > 0.0);
    }

    #[test]
    fn fixed_choice_resolves_to_its_scheme_unless_env_overrides() {
        if std::env::var("QGTC_TILING").is_ok() {
            return; // resolution order is exercised by the CI tiling stage
        }
        let fixed = TilingScheme::parse("4x8x4").unwrap();
        assert_eq!(
            resolve_tiling(TilingChoice::Fixed(fixed), "portable", 64, 64, 64),
            fixed
        );
        assert_eq!(TilingChoice::default(), TilingChoice::Auto);
    }

    #[test]
    fn auto_choice_without_a_table_entry_is_the_baseline() {
        if std::env::var("QGTC_TILING").is_ok() {
            return;
        }
        // The committed table only carries large/medium entries; a tiny GEMM
        // must fall back to the baseline constants regardless of its content.
        let scheme = resolve_tiling(TilingChoice::Auto, "portable", 2, 2, 2);
        let expected = tune_table()
            .lookup("portable", "small")
            .unwrap_or_else(TilingScheme::baseline);
        assert_eq!(scheme, expected);
        // An unknown body never matches any entry.
        assert_eq!(
            resolve_tiling(TilingChoice::Auto, "no-such-body", 2, 2, 2),
            TilingScheme::baseline()
        );
    }
}
