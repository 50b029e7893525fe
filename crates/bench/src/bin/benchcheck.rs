//! benchcheck: CI gate over the committed `BENCH_*.json` perf reports and the
//! `TUNE_gemm.json` tune table.
//!
//! Each committed report is parsed and checked against its contract (see
//! [`qgtc_bench::benchjson`]): the `bench` identifier, the required top-level
//! keys, a non-empty row array with the expected per-row keys, and every
//! recorded speedup clearing the bar committed beside it. A stale, truncated or
//! regressed report therefore fails CI instead of silently rotting at the repo
//! root.  The tune table gets the strict validation the forgiving runtime
//! loader deliberately omits: a missing or malformed condensation threshold,
//! missing metadata, or leftover tiling-scheme entries all fail CI.
//!
//! Usage: `cargo run -p qgtc-bench --bin benchcheck [root_dir]`
//! (`root_dir` defaults to the current directory, which is where `ci.sh` runs).

use qgtc_bench::benchjson::{committed_bench_specs, validate_bench_report, validate_tune_table};

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
    for spec in committed_bench_specs() {
        check(read(spec.file).and_then(|text| validate_bench_report(&spec, &text)));
    }
    // The committed tune table is validated strictly here (the runtime loader
    // is deliberately forgiving): a malformed threshold must fail CI, not fall
    // back to the default at dispatch time.
    check(read("TUNE_gemm.json").and_then(|tune| validate_tune_table(&tune)));
    if failed {
        std::process::exit(1);
    }
}
