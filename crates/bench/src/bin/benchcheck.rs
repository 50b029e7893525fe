//! benchcheck: CI gate over the committed `BENCH_*.json` perf reports and the
//! `TUNE_gemm.json` tune table.
//!
//! Each report is checked against its spec in
//! `qgtc_bench::benchjson::BENCH_SPECS` by `validate_bench_report`, the check
//! `perfsmoke` runs on every report it writes: the `bench` id, every key the
//! spec names and no other (top-level or in a row), a non-empty row array,
//! each recorded bar equal to the spec's bar for the report's `scale`, and
//! each gated value clearing that bar.  A stale, truncated, regressed or
//! hand-lowered report therefore fails CI instead of silently rotting at the
//! repo root.  The tune table gets the strict validation the forgiving runtime
//! loader deliberately omits: a missing or malformed condensation threshold,
//! missing metadata, or leftover tiling-scheme entries all fail CI.
//!
//! Usage: `cargo run -p qgtc-bench --bin benchcheck [root_dir]`
//! (`root_dir` defaults to the current directory, which is where `ci.sh` runs).

use qgtc_bench::benchjson::{validate_bench_report, validate_tune_table, BENCH_SPECS};

fn main() {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let root = std::path::Path::new(&root);
    let mut failed = false;
    let mut check = |result: Result<String, String>| match result {
        Ok(summary) => eprintln!("benchcheck OK: {summary}"),
        Err(reason) => {
            eprintln!("benchcheck FAIL: {reason}");
            failed = true;
        }
    };
    let read = |file: &str| {
        let path = root.join(file);
        std::fs::read_to_string(&path)
            .map_err(|err| format!("cannot read {}: {err}", path.display()))
    };
    for spec in &BENCH_SPECS {
        check(read(spec.file).and_then(|text| validate_bench_report(spec, &text)));
    }
    check(read("TUNE_gemm.json").and_then(|tune| validate_tune_table(&tune)));
    if failed {
        std::process::exit(1);
    }
}
