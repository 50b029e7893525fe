//! Figure 9: adjacency-matrix-size impact — 1-bit aggregation throughput as a
//! function of the subgraph size N and the embedding dimension D.
//!
//! Usage: `cargo run -p qgtc-bench --release --bin fig9`

use qgtc_bench::report::{fmt1, Table};
use qgtc_bench::{fig9_adj_size, scale_from_env};

fn main() {
    let scale = scale_from_env().experiment();
    eprintln!("Figure 9: adjacency matrix size impact on 1-bit aggregation throughput");

    let rows = fig9_adj_size(&scale, 19);
    let mut table = Table::new(
        "Figure 9: 1-bit aggregation throughput (TFLOPs)",
        &["D", "N", "TFLOPs"],
    );
    for row in &rows {
        table.add_row(vec![
            row.dim.to_string(),
            row.n.to_string(),
            fmt1(row.tflops),
        ]);
    }
    table.print();
    println!(
        "Expected shape: throughput ramps with N (more thread blocks -> better occupancy), saturates for large N, and larger D reaches higher throughput."
    );
}
