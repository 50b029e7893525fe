//! benchcheck: CI gate over the committed `BENCH_*.json` perf reports and the
//! `TUNE_gemm.json` autotuner table.
//!
//! Each committed report is parsed and checked against its contract (see
//! [`qgtc_bench::benchjson`]): the `bench` identifier, the required top-level
//! keys, a non-empty row array with the expected per-row keys, and every
//! recorded speedup clearing the bar committed beside it. A stale, truncated or
//! regressed report therefore fails CI instead of silently rotting at the repo
//! root.  The tune table gets the strict validation the forgiving runtime
//! loader deliberately omits — unknown bodies or shape classes, duplicate
//! keys, and malformed scheme strings (surfaced with the scheme parser's
//! typed error) all fail CI.  Finally every row of `BENCH_tiling.json` must
//! record the scheme the committed table resolves for it, so a tiling report
//! measured against an older table fails too.
//!
//! Usage: `cargo run -p qgtc-bench --bin benchcheck [root_dir]`
//! (`root_dir` defaults to the current directory, which is where `ci.sh` runs).

use qgtc_bench::benchjson::{
    committed_bench_specs, validate_bench_report, validate_tiling_against_tune, validate_tune_table,
};

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
    // The committed autotuner table is validated strictly here (the runtime
    // loader is deliberately forgiving): a malformed scheme string must fail
    // CI with the scheme parser's typed error, not fall back to the baseline.
    match read("TUNE_gemm.json") {
        Ok(tune) => {
            check(validate_tune_table(&tune));
            if let Ok(tiling) = read("BENCH_tiling.json") {
                check(validate_tiling_against_tune(&tiling, &tune));
            }
        }
        Err(reason) => check(Err(reason)),
    }
    if failed {
        std::process::exit(1);
    }
}
