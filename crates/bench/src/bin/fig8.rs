//! Figure 8: zero-tile jumping efficiency — the fraction of 8×128 Tensor Core tiles
//! of the batched adjacency that actually contain edges, per dataset.
//!
//! Usage: `cargo run -p qgtc-bench --release --bin fig8`

use qgtc_bench::report::Table;
use qgtc_bench::{fig8_zero_tile, scale_from_env};

fn main() {
    let bench_scale = scale_from_env();
    let (scale, datasets) = (bench_scale.experiment(), bench_scale.datasets());
    eprintln!("Figure 8: zero-tile jumping efficiency");

    let rows = fig8_zero_tile(&datasets, &scale, 17);
    let mut table = Table::new(
        "Figure 8: fraction of TC tiles processed with zero-tile jumping",
        &[
            "dataset",
            "total tiles",
            "non-zero tiles",
            "processed (%)",
            "epoch serial (ms)",
            "epoch overlapped (ms)",
            "overlap",
        ],
    );
    for row in &rows {
        table.add_row(vec![
            row.dataset.clone(),
            row.total_tiles.to_string(),
            row.nonzero_tiles.to_string(),
            format!("{:.2}", row.processed_ratio * 100.0),
            format!("{:.3}", row.pipeline.serial_ms()),
            format!("{:.3}", row.pipeline.overlapped_ms()),
            format!("{:.2}x", row.pipeline.overlap_speedup()),
        ]);
    }
    table.print();
    println!(
        "Paper reference (full-size datasets): Proteins 33.3%, artist 43.1%, BlogCatalog 36.2%, PPI 34.7%, ogbn-arxiv 6.3%, ogbn-products 16.5%."
    );
}
