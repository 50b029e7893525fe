//! Figure 10: non-zero tile reuse effectiveness — speedup of the cross-tile
//! reduction (tile reuse) over the cross-bit reduction on an all-ones adjacency.
//!
//! Usage: `cargo run -p qgtc-bench --release --bin fig10`

use qgtc_bench::report::{fmt3, Table};
use qgtc_bench::{fig10_tile_reuse, scale_from_env};

fn main() {
    let scale = scale_from_env().experiment();
    eprintln!(
        "Figure 10: non-zero tile reuse speedup (all-ones adjacency, D = {})",
        scale.fig10_dim
    );

    let rows = fig10_tile_reuse(&scale, 23);
    let mut table = Table::new(
        "Figure 10: speedup of tile reuse vs no reuse",
        &[
            "A bits",
            "X bits",
            "N",
            "no-reuse (ms)",
            "reuse (ms)",
            "speedup",
            "DRAM saved (MB)",
        ],
    );
    for row in &rows {
        let saved_mb = (row.bytes_without_reuse - row.bytes_with_reuse) as f64 / (1024.0 * 1024.0);
        table.add_row(vec![
            "1".to_string(),
            row.bits.to_string(),
            row.n.to_string(),
            fmt3(row.time_without_reuse_s * 1e3),
            fmt3(row.time_with_reuse_s * 1e3),
            format!("{:.3}x", row.speedup()),
            fmt3(saved_mb),
        ]);
    }
    table.print();
    println!(
        "Expected shape: the benefit grows with the matrix size and the feature bitwidth (more adjacency-tile reloads avoided)."
    );
}
