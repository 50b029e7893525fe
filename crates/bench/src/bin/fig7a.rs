//! Figure 7(a): end-to-end Cluster-GCN inference latency, DGL fp32 vs QGTC at
//! {2, 4, 8, 16, 32} bits, across the evaluation datasets.
//!
//! Usage: `cargo run -p qgtc-bench --release --bin fig7a`
//! Set `QGTC_SCALE=tiny|fast|paper` to control the experiment size (default: fast;
//! any other value exits with status 2).

use qgtc_bench::report::{fmt3, Table};
use qgtc_bench::{fig7_end_to_end, scale_from_env, FIG7_BITS};
use qgtc_core::ModelKind;

fn main() {
    let bench_scale = scale_from_env();
    let (scale, datasets) = (bench_scale.experiment(), bench_scale.datasets());
    eprintln!(
        "Figure 7(a): Cluster GCN end-to-end latency (dataset scale {}, {} partitions, batch {})",
        scale.dataset_scale, scale.num_partitions, scale.batch_size
    );

    let rows = fig7_end_to_end(ModelKind::ClusterGcn, &datasets, &scale, 7);

    let mut headers = vec!["dataset".to_string(), "DGL fp32 (ms)".to_string()];
    for bits in FIG7_BITS {
        headers.push(format!("QGTC {bits}-bit (ms)"));
    }
    headers.push("speedup @2-bit".to_string());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new("Figure 7(a): Cluster GCN end-to-end latency", &header_refs);
    for row in &rows {
        let mut cells = vec![row.dataset.clone(), fmt3(row.dgl_ms)];
        for (_, ms) in &row.qgtc_ms {
            cells.push(fmt3(*ms));
        }
        cells.push(format!("{:.2}x", row.speedup(2)));
        table.add_row(cells);
    }
    table.print();

    let geo_mean: f64 = rows
        .iter()
        .map(|r| r.speedup(2).ln())
        .sum::<f64>()
        .exp()
        .powf(1.0 / rows.len().max(1) as f64);
    println!("Geometric-mean speedup of QGTC 2-bit over DGL: {geo_mean:.2}x (paper reports ~2.6x average across bitwidths)");

    qgtc_bench::overlap_table(&rows, 2).print();
    qgtc_bench::partition_table(&rows).print();
    qgtc_bench::sparsity_table(&rows).print();
}
