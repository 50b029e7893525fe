//! Table 3: aggregation-kernel throughput (TFLOPs), QGTC 1–4 bit versus the CUTLASS
//! int4 Tensor Core baseline.
//!
//! Usage: `cargo run -p qgtc-bench --release --bin table3`

use qgtc_bench::report::{fmt1, Table};
use qgtc_bench::{scale_from_env, table3_throughput};

fn main() {
    let scale = scale_from_env().experiment();
    eprintln!("Table 3: QGTC vs CUTLASS int4 (TFLOPs)");

    let rows = table3_throughput(&scale, 31);
    let mut table = Table::new(
        "Table 3: throughput vs CUTLASS int4",
        &[
            "N",
            "Dim",
            "CUTLASS (int4)",
            "QGTC (1-bit)",
            "QGTC (2-bit)",
            "QGTC (3-bit)",
            "QGTC (4-bit)",
        ],
    );
    for row in &rows {
        let mut cells = vec![
            row.n.to_string(),
            row.dim.to_string(),
            fmt1(row.baseline_tflops),
        ];
        for (_, tflops) in &row.qgtc_tflops {
            cells.push(fmt1(*tflops));
        }
        table.add_row(cells);
    }
    table.print();
    println!(
        "Expected shape: QGTC 1-bit is several times faster than CUTLASS int4; the advantage shrinks as bits approach 4."
    );
}
