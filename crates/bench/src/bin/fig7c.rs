//! Figure 7(c): aggregation-kernel throughput (TFLOPs), QGTC 2–7 bit versus the
//! cuBLAS `gemmEX` int8 Tensor Core baseline, over N ∈ {1024, 2048, 4096} and
//! D ∈ {16, 32, 64}.
//!
//! Usage: `cargo run -p qgtc-bench --release --bin fig7c`

use qgtc_bench::report::{fmt1, Table};
use qgtc_bench::{fig7c_throughput, scale_from_env};

fn main() {
    let scale = scale_from_env().experiment();
    eprintln!("Figure 7(c): aggregation kernel throughput vs cuBLAS int8");

    let rows = fig7c_throughput(&scale, 13);
    let mut headers = vec![
        "Dim".to_string(),
        "N".to_string(),
        "cuBLAS int8".to_string(),
    ];
    for bits in 2u32..=7 {
        headers.push(format!("QGTC_{bits}"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new("Figure 7(c): throughput in TFLOPs", &header_refs);
    for row in &rows {
        let mut cells = vec![
            row.dim.to_string(),
            row.n.to_string(),
            fmt1(row.baseline_tflops),
        ];
        for (_, tflops) in &row.qgtc_tflops {
            cells.push(fmt1(*tflops));
        }
        table.add_row(cells);
    }
    table.print();
    println!(
        "Expected shape: QGTC with 2-4 bits beats cuBLAS int8; the gap narrows as the bit count approaches 8."
    );
}
