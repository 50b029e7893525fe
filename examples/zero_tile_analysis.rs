//! Zero-tile analysis of a batched subgraph adjacency (the paper's §4.3 / Figure 8).
//!
//! Partitions a clustered synthetic graph, builds one cluster-GCN batch, censuses its
//! 8×128 Tensor Core tiles, and shows how much work zero-tile jumping removes from
//! the aggregation kernel — both in tile counts and in modeled kernel time.  It
//! asserts that the modeled MMA counts are the census's tile counts times the
//! feature operand's output tile columns and bit planes.
//!
//! Run with: `cargo run --release --example zero_tile_analysis`

use qgtc_repro::bitmat::pack::TILE_MN;
use qgtc_repro::bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_repro::graph::generate::{stochastic_block_model, SbmParams};
use qgtc_repro::graph::CsrGraph;
use qgtc_repro::kernels::bmm::{qgtc_aggregate, KernelConfig};
use qgtc_repro::kernels::tile_reuse::random_feature_codes;
use qgtc_repro::kernels::zero_tile::census_adjacency;
use qgtc_repro::partition::{partition_kway, PartitionBatcher, PartitionConfig};
use qgtc_repro::tcsim::cost::CostTracker;
use qgtc_repro::tcsim::DeviceModel;

fn main() {
    // A clustered graph of 4,000 nodes, partitioned 16 ways, batched 8 partitions at
    // a time — the batch adjacency is block diagonal, so most tiles are empty.
    let (coo, _) = stochastic_block_model(
        SbmParams {
            num_nodes: 4_000,
            num_blocks: 16,
            intra_degree: 10.0,
            inter_degree: 0.8,
        },
        7,
    );
    let graph = CsrGraph::from_coo(&coo);
    let partitioning = partition_kway(&graph, &PartitionConfig::with_parts(16));
    println!(
        "partitioned {} nodes into {} parts (edge cut {})",
        graph.num_nodes(),
        partitioning.num_parts,
        partitioning.edge_cut
    );

    let batcher = PartitionBatcher::new(&partitioning, 8);
    let batch = batcher.batches().next().expect("at least one batch");
    let subgraph = batch.to_dense_block_diagonal(&graph);
    println!(
        "batch 0: {} nodes, {} edges, density {:.4}",
        subgraph.num_nodes(),
        subgraph.num_edges,
        subgraph.density()
    );

    // Census the Tensor Core tiles of the packed adjacency (materialisation
    // already wrote it as a 1-bit row-packed stack).
    let adjacency = &subgraph.adjacency;
    let census = census_adjacency(adjacency);
    println!(
        "tile census: {} of {} 8x128 tiles contain edges ({:.1}% processed, {:.1}% jumped)",
        census.nonzero_tiles,
        census.total_tiles,
        census.processed_ratio() * 100.0,
        (1.0 - census.processed_ratio()) * 100.0
    );

    // Run the 2-bit aggregation with and without jumping and compare modeled time.
    let features = random_feature_codes(subgraph.num_nodes(), 64, 2, 9);
    let feature_stack = StackedBitMatrix::from_codes(&features, 2, BitMatrixLayout::ColPacked);
    let device = DeviceModel::rtx3090();

    let run = |jump: bool| {
        let tracker = CostTracker::new();
        let config = KernelConfig {
            zero_tile_jumping: jump,
            ..KernelConfig::default()
        };
        let _ = qgtc_aggregate(adjacency, &feature_stack, &config, &tracker);
        let snapshot = tracker.snapshot();
        (device.estimate(&snapshot).total_ms(), snapshot)
    };
    let (with_ms, with_cost) = run(true);
    let (without_ms, without_cost) = run(false);

    // Each adjacency tile meets every output tile column and feature bit
    // plane of the feature operand: one MMA per meeting, unless jumping skips
    // a zero tile's.
    let n_tiles = feature_stack.cols().div_ceil(TILE_MN) as u64;
    let pairs = n_tiles * u64::from(feature_stack.bits());
    assert_eq!(with_cost.tc_b1_tiles, census.nonzero_tiles as u64 * pairs);
    assert_eq!(
        with_cost.tc_b1_tiles_skipped,
        census.zero_tiles() as u64 * pairs
    );
    assert_eq!(without_cost.tc_b1_tiles, census.total_tiles as u64 * pairs);
    println!(
        "aggregation kernel: {:.3} ms with jumping ({} MMAs) vs {:.3} ms without ({} MMAs) -> {:.2}x",
        with_ms,
        with_cost.tc_b1_tiles,
        without_ms,
        without_cost.tc_b1_tiles,
        without_ms / with_ms
    );
}
