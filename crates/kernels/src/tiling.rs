//! The committed tune table: the condensation threshold of the adjacency-path
//! dispatcher.
//!
//! `TUNE_gemm.json` carries one tuned value, the `condense_threshold` that
//! `AdjacencyPath::Auto` compares its cost ratio against (see
//! [`condense_threshold`]).  The fused GEMM itself takes no tuning: each
//! popcount body runs one kernel (the broadcast kernel on AVX-512, the legacy
//! kernel on the portable body — see `qgtc_bitmat::fused`), whose shape is
//! fixed.
//!
//! The table is produced by the `tilingtune` binary in `qgtc-bench` (its
//! condense stage) and validated strictly by `benchcheck`; the loader here is
//! deliberately forgiving — an unparsable threshold is ignored and a missing
//! or unreadable file resolves to [`DEFAULT_CONDENSE_THRESHOLD`] — because
//! kernel dispatch must never fail on a stale tune file.

use std::sync::OnceLock;

/// Condensation threshold used when the tune file does not carry one: the
/// condensed path must shrink the K loop to at most this fraction of what
/// the span index already visits before `AdjacencyPath::Auto` picks it —
/// headroom for the gather the condensed kernel pays per window.
pub const DEFAULT_CONDENSE_THRESHOLD: f64 = 0.75;

/// The parsed tune table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuneTable {
    condense_threshold: Option<f64>,
}

impl TuneTable {
    /// Parse a `TUNE_gemm.json` document, the flat object `tilingtune`
    /// writes:
    ///
    /// ```json
    /// { "file": "TUNE_gemm.json", "condense_threshold": "0.921" }
    /// ```
    ///
    /// The threshold is a top-level string key; a malformed or non-positive
    /// value is ignored (the strict validation lives in `qgtc-bench`'s
    /// `benchcheck`).
    pub fn parse(text: &str) -> Self {
        let condense_threshold = extract_string(text, "condense_threshold")
            .and_then(|raw| raw.parse::<f64>().ok())
            .filter(|t| t.is_finite() && *t > 0.0);
        Self { condense_threshold }
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

/// The string value of `"key": "value"` inside a flat JSON document.
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
/// missing or unreadable file is an empty table (default threshold).
pub fn tune_table() -> &'static TuneTable {
    static TABLE: OnceLock<TuneTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        std::fs::read_to_string(tune_file_path())
            .map(|text| TuneTable::parse(&text))
            .unwrap_or_default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condense_threshold_parses_from_the_root_and_defaults_otherwise() {
        let with = TuneTable::parse(r#"{ "file": "TUNE_gemm.json", "condense_threshold": "0.6" }"#);
        assert_eq!(with.tuned_condense_threshold(), Some(0.6));
        let without = TuneTable::parse(r#"{ "file": "TUNE_gemm.json" }"#);
        assert_eq!(without.tuned_condense_threshold(), None);
        // Malformed or non-positive values are ignored.
        let bad = TuneTable::parse(r#"{ "condense_threshold": "zero" }"#);
        assert_eq!(bad.tuned_condense_threshold(), None);
        let neg = TuneTable::parse(r#"{ "condense_threshold": "-1.0" }"#);
        assert_eq!(neg.tuned_condense_threshold(), None);
        assert_eq!(TuneTable::parse(""), TuneTable::default());
        assert_eq!(TuneTable::parse("not json at all"), TuneTable::default());
        assert!(condense_threshold() > 0.0);
    }
}
