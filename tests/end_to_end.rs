//! Cross-crate integration tests: the full partition → batch → pack → kernel →
//! model pipeline, exercised the way the evaluation binaries use it.

use qgtc_repro::core::{run_epoch, run_epoch_with_plan, try_build_plan, ModelKind, QgtcConfig};
use qgtc_repro::gnn::models::QuantizationSetting;
use qgtc_repro::gnn::{BatchedGinModel, ClusterGcnModel};
use qgtc_repro::graph::{DatasetProfile, DenseSubgraph};
use qgtc_repro::kernels::bmm::KernelConfig;
use qgtc_repro::kernels::packing::{
    SubgraphPayload, TransferStrategy, PER_TRANSFER_OVERHEAD_BYTES,
};
use qgtc_repro::partition::{partition_kway, PartitionBatcher, PartitionConfig};
use qgtc_repro::tcsim::cost::CostTracker;
use qgtc_repro::tensor::ops::argmax_rows;

fn tiny_dataset() -> qgtc_repro::graph::LoadedDataset {
    DatasetProfile::PROTEINS.materialize(0.02, 3)
}

#[test]
fn qgtc_and_dgl_paths_predict_similar_classes_at_8_bits() {
    // Functional agreement end to end: on the same batch and the same weights, the
    // 8-bit QGTC forward pass and the fp32 baseline should mostly agree on argmax.
    let dataset = tiny_dataset();
    let partitioning = partition_kway(&dataset.graph, &PartitionConfig::with_parts(8));
    let batcher = PartitionBatcher::new(&partitioning, 4);
    let batch = batcher.batches().next().expect("at least one batch");
    let subgraph = batch.to_dense_block_diagonal(&dataset.graph);
    let features = subgraph.gather_features(&dataset.features);

    let model = ClusterGcnModel::new(dataset.features.cols(), 2, 99);
    let fp32 = model.forward_fp32_batch(&subgraph, &features, &CostTracker::new());
    let quant = model.forward_quantized_batch(
        &subgraph,
        &features,
        QuantizationSetting::from_bits(8),
        &KernelConfig::default(),
        &CostTracker::new(),
    );
    let a = argmax_rows(&fp32.logits);
    let b = argmax_rows(&quant.logits);
    let agree = a.iter().zip(b.iter()).filter(|(x, y)| x == y).count();
    let ratio = agree as f64 / a.len() as f64;
    assert!(
        ratio > 0.9,
        "8-bit and fp32 predictions should agree on most nodes (agreement {ratio:.2})"
    );
}

#[test]
fn epoch_report_speedup_ordering_matches_paper() {
    // The paper's headline ordering: DGL slowest, then QGTC 32 > 16 > 8 >= 2 bit.
    let dataset = tiny_dataset();
    let scaled = |config: QgtcConfig| config.with_partitions(8, 4);
    let ms_of = |config: QgtcConfig| run_epoch(&dataset, &scaled(config)).modeled_ms;

    let dgl = ms_of(QgtcConfig::dgl_baseline(ModelKind::ClusterGcn));
    let b32 = ms_of(QgtcConfig::qgtc(ModelKind::ClusterGcn, 32));
    let b16 = ms_of(QgtcConfig::qgtc(ModelKind::ClusterGcn, 16));
    let b2 = ms_of(QgtcConfig::qgtc(ModelKind::ClusterGcn, 2));

    assert!(b2 < dgl, "2-bit ({b2:.3}) must beat DGL ({dgl:.3})");
    assert!(
        b16 <= b32 * 1.05,
        "16-bit ({b16:.3}) should not lose to 32-bit ({b32:.3})"
    );
    assert!(
        b2 <= b16,
        "2-bit ({b2:.3}) should not lose to 16-bit ({b16:.3})"
    );
}

#[test]
fn gin_speedup_over_dgl_is_at_least_gcn_like() {
    // The paper observes larger QGTC gains on batched GIN than on Cluster GCN.
    let dataset = tiny_dataset();
    let speedup = |model: ModelKind| {
        let dgl = run_epoch(
            &dataset,
            &QgtcConfig::dgl_baseline(model).with_partitions(8, 4),
        )
        .modeled_ms;
        let qgtc =
            run_epoch(&dataset, &QgtcConfig::qgtc(model, 4).with_partitions(8, 4)).modeled_ms;
        dgl / qgtc
    };
    let gcn = speedup(ModelKind::ClusterGcn);
    let gin = speedup(ModelKind::BatchedGin);
    assert!(
        gcn > 1.0 && gin > 1.0,
        "both models must show a QGTC win (gcn {gcn:.2}, gin {gin:.2})"
    );
}

#[test]
fn kernel_optimisations_never_change_results() {
    // Zero-tile jumping and tile reuse are pure performance optimisations: logits
    // must be bit-identical with and without them.
    let dataset = tiny_dataset();
    let partitioning = partition_kway(&dataset.graph, &PartitionConfig::with_parts(6));
    let batcher = PartitionBatcher::new(&partitioning, 6);
    let batch = batcher.batches().next().unwrap();
    let subgraph = batch.to_dense_block_diagonal(&dataset.graph);
    let features = subgraph.gather_features(&dataset.features);
    let model = BatchedGinModel::new(dataset.features.cols(), 2, 5);

    let run = |config: KernelConfig| {
        model
            .forward_quantized_batch(
                &subgraph,
                &features,
                QuantizationSetting::from_bits(3),
                &config,
                &CostTracker::new(),
            )
            .logits
    };
    let optimised = run(KernelConfig::default());
    let unoptimised = run(KernelConfig::unoptimized());
    assert_eq!(
        optimised, unoptimised,
        "kernel optimisations must be numerically transparent"
    );
}

#[test]
fn packed_transfer_moves_far_fewer_bytes_than_dense() {
    let dataset = tiny_dataset();
    let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2).with_partitions(8, 4);
    let report = run_epoch(&dataset, &config);
    // The epoch's own batches: the plan is deterministic in the config.
    let (batcher, _) = try_build_plan(&dataset, &config).expect("valid config");
    let (mut packed, mut dense) = (0, 0);
    for batch in batcher.batches() {
        let subgraph = batch.to_dense_block_diagonal(&dataset.graph);
        let features = subgraph.gather_features(&dataset.features);
        let payload = SubgraphPayload::new(&subgraph, &features, config.bits);
        packed +=
            payload.transfer_bytes(TransferStrategy::PackedCompound) + PER_TRANSFER_OVERHEAD_BYTES;
        dense += payload.transfer_bytes(TransferStrategy::DenseFloat)
            + payload.transfer_count(TransferStrategy::DenseFloat) * PER_TRANSFER_OVERHEAD_BYTES;
    }
    assert_eq!(
        report.cost.pcie_h2d_bytes, packed,
        "one packed compound transfer per batch"
    );
    assert!(packed * 4 < dense, "packed {packed} vs dense {dense}");
}

#[test]
fn every_batch_node_appears_exactly_once_per_epoch() {
    let dataset = tiny_dataset();
    let partitioning = partition_kway(&dataset.graph, &PartitionConfig::with_parts(10));
    let batcher = PartitionBatcher::new(&partitioning, 3);
    let mut seen = vec![0usize; dataset.graph.num_nodes()];
    for batch in batcher.batches() {
        let subgraph = DenseSubgraph::batch_block_diagonal(&dataset.graph, &batch.partitions);
        for &node in &subgraph.nodes {
            seen[node] += 1;
        }
    }
    assert!(
        seen.iter().all(|&c| c == 1),
        "every node must be processed exactly once"
    );
}

#[test]
fn partitioning_is_excluded_from_epoch_wall_and_reported_separately() {
    let dataset = DatasetProfile::PROTEINS.materialize_tiny(34);
    let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2).with_partitions(12, 2);
    let report = run_epoch(&dataset, &config);
    assert!(
        report.partition_ms > 0.0,
        "partitioning time must be reported"
    );
    assert!(report.host_wall_ms > 0.0);

    // Over a plan built beforehand the epoch partitions nothing, reports no
    // partitioning time, and does the same work.
    let (plan, _shards) = try_build_plan(&dataset, &config).expect("plan");
    let over_plan = run_epoch_with_plan(&dataset, &config, &plan);
    assert_eq!(over_plan.partition_ms, 0.0);
    assert!(over_plan.host_wall_ms > 0.0);
    assert_eq!(over_plan.cost, report.cost, "epoch totals");
    assert_eq!(over_plan.batch_costs, report.batch_costs, "batch costs");
    assert_eq!(over_plan.batch_sparsity, report.batch_sparsity, "sparsity");
    assert_eq!(over_plan.num_batches, report.num_batches);
    assert_eq!(over_plan.num_nodes, report.num_nodes);
    assert_eq!(over_plan.fault_stats, report.fault_stats);
    assert_eq!(over_plan.modeled_ms, report.modeled_ms);
    assert_eq!(over_plan.pipeline, report.pipeline);
}
