//! The streamed batch pipeline as this repository models it: each batch's
//! transfer overlaps compute across `QgtcConfig::prefetch_batches` device
//! staging buffers (`EpochReport::pipeline`).  Streaming is a model of the
//! device, not a host schedule, so on every Table-1 profile an epoch records
//! exactly the serial epoch's work — cost counters in total and batch for
//! batch, sparsity census and fault tallies — at depth 1 (serial), at the
//! default depth and at an unbounded depth.  Only the modeled overlapped
//! latency differs, and a depth of 1 degenerates to the serial latency.

use qgtc_repro::core::{
    run_epoch, run_epoch_with_plan, try_build_plan, EpochReport, FaultPlan, ModelKind, QgtcConfig,
};
use qgtc_repro::graph::{DatasetProfile, LoadedDataset};

fn tiny_config(model: ModelKind, bits: u32) -> QgtcConfig {
    QgtcConfig::qgtc(model, bits).with_partitions(12, 2)
}

/// One recoverable plan that corrupts a sealed payload and fails a prepare,
/// so the fault tallies compared across depths are not all zero.
fn recoverable_faults() -> FaultPlan {
    FaultPlan::parse("prepare:corrupt:1:1,prepare:transient:0:1").expect("valid")
}

fn assert_same_work(case: &str, serial: &EpochReport, streamed: &EpochReport) {
    assert_eq!(streamed.cost, serial.cost, "{case}: epoch totals");
    assert_eq!(
        streamed.batch_costs.len(),
        serial.batch_costs.len(),
        "{case}: batch count"
    );
    for (index, (s, t)) in serial
        .batch_costs
        .iter()
        .zip(streamed.batch_costs.iter())
        .enumerate()
    {
        assert_eq!(s, t, "{case}: batch {index} cost delta");
    }
    assert_eq!(
        streamed.batch_sparsity, serial.batch_sparsity,
        "{case}: sparsity"
    );
    assert_eq!(streamed.num_batches, serial.num_batches, "{case}");
    assert_eq!(streamed.num_nodes, serial.num_nodes, "{case}");
    assert_eq!(
        streamed.fault_stats, serial.fault_stats,
        "{case}: fault stats"
    );
    assert_eq!(streamed.modeled_ms, serial.modeled_ms, "{case}");
    // The serial composition sums the same per-batch lanes at every depth.
    assert_eq!(
        streamed.pipeline.serial_s, serial.pipeline.serial_s,
        "{case}"
    );
}

/// Runs `config` at depth 1, at the default depth and unbounded; every depth
/// records the serial work, and each added buffer may only shorten the
/// modeled overlapped latency.  Returns the depth-1 report.
fn assert_streaming_changes_only_the_model(
    case: &str,
    dataset: &LoadedDataset,
    config: &QgtcConfig,
) -> EpochReport {
    let serial = run_epoch(dataset, &config.clone().with_prefetch(1));
    let default = run_epoch(dataset, config);
    assert_eq!(default.pipeline.staging_buffers, 2, "{case}");
    assert_same_work(&format!("{case} at the default depth"), &serial, &default);
    assert!(
        default.pipeline.overlapped_s <= default.pipeline.serial_s,
        "{case}: overlap must not lose to serial"
    );

    let unbounded = run_epoch(dataset, &config.clone().with_prefetch(usize::MAX));
    assert_eq!(unbounded.pipeline.staging_buffers, usize::MAX, "{case}");
    assert_same_work(&format!("{case} at depth MAX"), &serial, &unbounded);
    assert!(
        unbounded.pipeline.overlapped_s <= default.pipeline.overlapped_s,
        "{case}: more staging buffers must not lengthen the overlap"
    );
    serial
}

#[test]
fn streamed_cost_equals_serial_batch_for_batch_on_all_six_profiles() {
    for profile in DatasetProfile::all() {
        let dataset = profile.materialize_tiny(31);
        let case = format!("{} GCN 2-bit", profile.name);
        assert_streaming_changes_only_the_model(
            &case,
            &dataset,
            &tiny_config(ModelKind::ClusterGcn, 2),
        );
    }
}

#[test]
fn streamed_matches_serial_for_gin_and_the_dense_baseline() {
    for profile in DatasetProfile::all() {
        let dataset = profile.materialize_tiny(31);
        let case = format!("{} GIN 4-bit under faults", profile.name);
        let config = tiny_config(ModelKind::BatchedGin, 4).with_fault_plan(recoverable_faults());
        let serial = assert_streaming_changes_only_the_model(&case, &dataset, &config);
        assert!(serial.fault_stats.injected > 0, "{case}: the plan fired");
        assert_eq!(
            serial.fault_stats.recovered, serial.fault_stats.injected,
            "{case}: every fault recovered"
        );
    }
    let dataset = DatasetProfile::PPI.materialize_tiny(33);
    let dense = QgtcConfig::dgl_baseline(ModelKind::ClusterGcn).with_partitions(12, 2);
    assert_streaming_changes_only_the_model("PPI DGL fp32", &dataset, &dense);
}

#[test]
fn prefetch_depth_one_degenerates_to_serial_latency() {
    for profile in DatasetProfile::all() {
        let dataset = profile.materialize_tiny(32);
        for (label, config) in [
            ("GCN 2-bit", tiny_config(ModelKind::ClusterGcn, 2)),
            ("GIN 4-bit", tiny_config(ModelKind::BatchedGin, 4)),
            (
                "DGL fp32",
                QgtcConfig::dgl_baseline(ModelKind::ClusterGcn).with_partitions(12, 2),
            ),
        ] {
            let report = run_epoch(&dataset, &config.with_prefetch(1));
            let case = format!("{} {label}", profile.name);
            assert_eq!(report.pipeline.staging_buffers, 1, "{case}");
            // With one staging buffer the documented recurrence performs the
            // serial additions verbatim, so the degeneration is exact, not
            // approximate.
            assert_eq!(
                report.pipeline.overlapped_s, report.pipeline.serial_s,
                "{case}"
            );
        }
    }
}

#[test]
fn partitioning_is_excluded_from_epoch_wall_and_reported_separately() {
    let dataset = DatasetProfile::PROTEINS.materialize_tiny(34);
    let config = tiny_config(ModelKind::ClusterGcn, 2);
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
    assert_same_work("PROTEINS over a given plan", &report, &over_plan);
}
