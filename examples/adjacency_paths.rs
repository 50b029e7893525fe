//! Adjacency-path dispatch: zero-word skip vs TC-GNN-style condensed tiles.
//!
//! Builds the fragmented scattered-column adjacency the condensed path was
//! designed for, shows the cost-model ratio that drives the `Auto` decision,
//! then runs one epoch per [`AdjacencyPath`] on a Table-1 dataset profile and
//! prints the per-batch sparsity census, the dispatch counters and the
//! condensation ratio from the epoch report.
//!
//! Run with: `cargo run --release --example adjacency_paths`

use qgtc_repro::bitmat::{BitMatrixLayout, CondensedAdjacency, StackedBitMatrix};
use qgtc_repro::core::{run_epoch, ModelKind, QgtcConfig};
use qgtc_repro::graph::DatasetProfile;
use qgtc_repro::kernels::{
    adjacency_cost_ratio, condense_threshold, resolve_adjacency_path, AdjacencyPath,
};
use qgtc_repro::tensor::Matrix;

/// Scattered isolated columns — one per 64-column word region, shared within
/// each 16-row condensation window but staggered across windows, so no two
/// nonzero words fuse into a span.  The zero-word-skip kernel pays its
/// per-span setup on every word here; the condensed grid packs each window's
/// few shared columns into a narrow dense tile (the same generator as
/// perfsmoke's `fragmented` sweep).
fn fragmented_adjacency(nodes: usize) -> StackedBitMatrix {
    let mut adjacency = Matrix::zeros(nodes, nodes);
    for r in 0..nodes {
        let w = r / 16;
        for region in 0..nodes.div_ceil(64) {
            let c = region * 64 + (w * 11 + region * 7) % 64;
            if c < nodes {
                adjacency[(r, c)] = 1.0;
            }
        }
    }
    StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked)
}

fn main() {
    // 1. The kernel-level decision: the Auto heuristic compares each kernel's
    // modeled word cost (skip pays per visited word + per span; condensed
    // pays per condensed word + per gathered union column) and picks
    // Condensed when the ratio clears the tuned threshold.
    let threshold = condense_threshold();
    println!("condense threshold (TUNE_gemm.json or default): {threshold:.3}");
    let fragmented = fragmented_adjacency(512);
    let cond = CondensedAdjacency::from_stack(&fragmented);
    println!(
        "fragmented 512x512: cost ratio {:.3} -> {:?} (condensed keeps {:.3} of the K extent)",
        adjacency_cost_ratio(&fragmented),
        resolve_adjacency_path(AdjacencyPath::Auto, &fragmented),
        cond.condensation_ratio(),
    );

    // 2. The pipeline-level decision: one epoch per configured path on a
    // block-diagonal batched profile — contiguous nonzero words, so skip's
    // span index wins and Auto follows it.
    let dataset = DatasetProfile::PPI.materialize_tiny(7);
    println!(
        "\ndataset {} ({} nodes)",
        dataset.profile.name,
        dataset.graph.num_nodes()
    );
    for path in [
        AdjacencyPath::Skip,
        AdjacencyPath::Condensed,
        AdjacencyPath::Auto,
    ] {
        let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)
            .with_partitions(12, 2)
            .with_adjacency_path(path);
        let report = run_epoch(&dataset, &config);
        let (skip_n, cond_n) = report.adjacency_dispatches();
        println!(
            "\npath {:?}: {} batches, dispatches skip/condensed {}/{}, condensation ratio {:.3}",
            path,
            report.num_batches,
            skip_n,
            cond_n,
            report.condensation_ratio(),
        );
        println!("  batch  K words  nonzero  ratio  fragmentation");
        for (index, stats) in report.batch_sparsity.iter().enumerate() {
            println!(
                "  {index:>5}  {:>7}  {:>7}  {:.3}  {:>13.3}",
                stats.total_words,
                stats.nonzero_words,
                stats.nonzero_word_ratio(),
                stats.fragmentation(),
            );
        }
    }
    println!("\nSelect a path with QgtcConfig::with_adjacency_path(AdjacencyPath::{{Skip, Condensed, Auto}}).");
}
