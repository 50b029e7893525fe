//! The end-to-end quantized data path, batch by batch.
//!
//! Demonstrates the `StackedBitMatrix` currency of the forward pass: a
//! [`PreparedBatch`] packs the adjacency (1 bit) and the features (`bits`) once
//! on the host, `GnnModel::forward_prepared_quantized` consumes the packed
//! payload directly — no feature is ever re-quantized from dense floats — and
//! the fused kernel's zero-word skip statistics show how much of the
//! block-diagonal batch adjacency the span index jumped.
//!
//! Run with: `cargo run --release --example quantized_path`

use qgtc_repro::gnn::models::{GnnModel, QuantizationSetting};
use qgtc_repro::gnn::ClusterGcnModel;
use qgtc_repro::graph::DatasetProfile;
use qgtc_repro::kernels::bmm::KernelConfig;
use qgtc_repro::kernels::packing::{PreparedBatch, TransferStrategy};
use qgtc_repro::partition::{partition_kway, PartitionBatcher, PartitionConfig};
use qgtc_repro::tcsim::cost::CostTracker;

fn main() {
    let bits = 2u32;
    let dataset = DatasetProfile::BLOGCATALOG.materialize(0.05, 7);
    println!(
        "dataset: {} ({} nodes, {} directed edges, {} features)",
        dataset.profile.name,
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        dataset.profile.feature_dim,
    );

    let partitioning = partition_kway(&dataset.graph, &PartitionConfig::with_parts(32));
    let batcher = PartitionBatcher::new(&partitioning, 4);
    let model = GnnModel::ClusterGcn(ClusterGcnModel::new(dataset.profile.feature_dim, 39, 42));
    let setting = QuantizationSetting::from_bits(bits);
    let kernel = KernelConfig::default();

    println!(
        "\n{} batches, {bits}-bit features; per batch: host-pack -> first layer \
         consumes the packed stack -> FusedEpilogue re-quantizes at each transition\n",
        batcher.num_batches()
    );
    println!(
        "{:<7} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "batch", "nodes", "packed KB", "compress", "skip ratio", "tile ratio"
    );

    // Weights are constant across the epoch: quantize once per layer up front
    // and share the packed stacks across every batch below.
    let weights = model.prepare_weights(bits);

    let epoch = CostTracker::new();
    for index in 0..batcher.num_batches() {
        let batch = batcher.batch(index).expect("index < num_batches");
        let subgraph = batch.to_dense_block_diagonal(&dataset.graph);
        let features = subgraph.gather_features(&dataset.features);
        // Host-side packing: the single quantize site before the first layer.
        let prepared = PreparedBatch::pack_quantized(index, subgraph, features, bits);
        let Some(payload) = prepared.payload.as_ref() else {
            continue;
        };

        let tracker = CostTracker::new();
        prepared.record_transfer(&tracker);
        let out =
            model.forward_prepared_quantized(&prepared, setting, Some(&weights), &kernel, &tracker);
        assert_eq!(out.logits.rows(), prepared.num_nodes());

        let cost = tracker.snapshot();
        println!(
            "{:<7} {:>6} {:>12.1} {:>11.1}x {:>11.1}% {:>11.1}%",
            index,
            prepared.num_nodes(),
            payload.transfer_bytes(TransferStrategy::PackedCompound) as f64 / 1024.0,
            payload.compression_vs_dense(),
            cost.fused_word_skip_ratio() * 100.0,
            cost.tile_processing_ratio() * 100.0,
        );
        epoch.merge_snapshot(&cost);
    }

    let total = epoch.snapshot();
    println!(
        "\nepoch totals: {} fused K-loop words, {} skipped ({:.1}%), {} MMA tiles \
         executed, {} jumped analytically",
        total.fused_words_total,
        total.fused_words_skipped,
        total.fused_word_skip_ratio() * 100.0,
        total.tc_b1_tiles,
        total.tc_b1_tiles_skipped,
    );
    println!(
        "The measured word-level skip and the analytic tile-level jump are driven by \
         the same zero structure: block-diagonal batch adjacencies are mostly empty."
    );
}
