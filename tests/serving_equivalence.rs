//! Serving-layer equivalence: a `QgtcSession` must answer exactly what the
//! one-shot epoch pipeline computes — bitwise — on every dataset profile, no
//! matter how the traffic arrives (one sweep, repeated hits, or an arbitrary
//! request history over recycled pool buffers), and on whichever popcount
//! body the host runs.

use proptest::prelude::*;

use qgtc_repro::bitmat::fused::PopcountBody;
use qgtc_repro::core::serve::{LoadGenerator, QgtcSession, ServeOptions};
use qgtc_repro::core::{run_epoch, try_build_plan, BackendChoice, ModelKind, QgtcConfig};
use qgtc_repro::gnn::models::QuantizationSetting;
use qgtc_repro::gnn::{BatchedGinModel, ClusterGcnModel, GnnModel};
use qgtc_repro::graph::{DatasetProfile, LoadedDataset};
use qgtc_repro::kernels::packing::PreparedBatch;
use qgtc_repro::tcsim::cost::CostTracker;

/// Recompute every batch's logits through the public one-shot APIs — the same
/// plan, model seed, and quantized weights a session builds, but with none of
/// the serving machinery (no pool, no cache, no coalescing). Returns, per
/// global node, the oracle logit row (empty for nodes outside the plan).
fn oracle_rows(dataset: &LoadedDataset, config: &QgtcConfig) -> Vec<Vec<f32>> {
    let (batcher, _shards) = try_build_plan(dataset, config).expect("plan builds");
    let num_classes = dataset.profile.num_classes.max(2);
    let model = match config.model {
        ModelKind::ClusterGcn => GnnModel::ClusterGcn(ClusterGcnModel::new(
            dataset.features.cols(),
            num_classes,
            config.seed,
        )),
        ModelKind::BatchedGin => GnnModel::BatchedGin(BatchedGinModel::new(
            dataset.features.cols(),
            num_classes,
            config.seed,
        )),
    };
    let setting = QuantizationSetting::from_bits(config.bits);
    let weights = match setting {
        QuantizationSetting::Quantized { bits } => Some(model.prepare_weights(bits)),
        _ => None,
    };
    let tracker = CostTracker::new();
    let mut rows = vec![Vec::new(); dataset.graph.num_nodes()];
    for batch in batcher.batches() {
        let nodes: Vec<usize> = batch.partitions.iter().flatten().copied().collect();
        let subgraph = batch.to_dense_block_diagonal(&dataset.graph);
        let features = subgraph.gather_features(&dataset.features);
        let prepared = PreparedBatch::pack_quantized(
            batch.batch_index,
            subgraph,
            features,
            config.bits.min(8),
        );
        let output = model.forward_prepared_quantized(
            &prepared,
            setting,
            weights.as_ref(),
            &config.kernel,
            &tracker,
        );
        for (row, &node) in nodes.iter().enumerate() {
            rows[node] = output.logits.row(row).to_vec();
        }
    }
    rows
}

fn profile_config(index: usize) -> QgtcConfig {
    // Alternate model kinds and bitwidths so every profile exercises a
    // different (model, bits) cell of the matrix.
    let model = if index.is_multiple_of(2) {
        ModelKind::ClusterGcn
    } else {
        ModelKind::BatchedGin
    };
    let bits = [1, 2, 4][index % 3];
    QgtcConfig::qgtc(model, bits).with_partitions(12, 3)
}

#[test]
fn served_logits_match_the_epoch_oracle_bitwise_on_every_profile() {
    for (index, profile) in DatasetProfile::all().iter().enumerate() {
        let dataset = profile.materialize_tiny(23);
        let config = profile_config(index);
        let oracle = oracle_rows(&dataset, &config);

        let mut session = QgtcSession::new(&dataset, &config).expect("session builds");
        let nodes: Vec<usize> = (0..dataset.graph.num_nodes()).collect();
        let response = session.infer(&nodes).expect("healthy serve");
        assert!(
            response.degraded.is_empty(),
            "{}: no faults injected",
            profile.name
        );
        for (row, &node) in response.node_ids.iter().enumerate() {
            assert_eq!(
                response.logits.row(row),
                oracle[node].as_slice(),
                "{}: node {node} must match the one-shot oracle bitwise",
                profile.name
            );
        }
    }
}

/// The two popcount bodies compute the whole pipeline bitwise alike: per
/// profile, the epoch's `cost` and `batch_costs` and a full-sweep session's
/// logits under `Avx512` equal those under `Portable`.  A host without
/// AVX-512 runs only the portable body, so it has nothing to compare.
#[test]
fn the_avx512_body_matches_the_portable_body_end_to_end() {
    if !PopcountBody::Avx512.is_available() {
        return;
    }
    for (index, profile) in DatasetProfile::all().iter().enumerate() {
        let dataset = profile.materialize_tiny(23);
        let nodes: Vec<usize> = (0..dataset.graph.num_nodes()).collect();
        let run = |choice: BackendChoice| {
            let config = profile_config(index).with_backend(choice);
            let report = run_epoch(&dataset, &config);
            let mut session = QgtcSession::new(&dataset, &config).expect("session builds");
            let logits = session.infer(&nodes).expect("healthy serve").logits;
            let bits: Vec<u32> = logits.data().iter().map(|v| v.to_bits()).collect();
            (report.cost, report.batch_costs, bits)
        };
        assert_eq!(
            run(BackendChoice::Avx512),
            run(BackendChoice::Portable),
            "{}",
            profile.name
        );
    }
}

#[test]
fn full_sweep_serving_matches_the_epoch_report_counters() {
    let dataset = DatasetProfile::BLOGCATALOG.materialize_tiny(23);
    let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2).with_partitions(12, 3);
    let mut session = QgtcSession::new(&dataset, &config).expect("session builds");
    let nodes: Vec<usize> = (0..dataset.graph.num_nodes()).collect();
    let response = session.infer(&nodes).expect("healthy serve");
    session.recycle_response(response);

    let report = run_epoch(&dataset, &config);
    assert_eq!(
        session.cost_snapshot(),
        report.cost,
        "one full-sweep request records exactly one epoch of modeled work"
    );
    let stats = session.stats();
    assert_eq!(stats.batches_executed as usize, report.num_batches);
    assert_eq!(stats.weight_quantizations, report.weight_quantizations);
}

#[test]
fn cache_hits_serve_bitwise_identical_answers_and_skip_prepares() {
    let dataset = DatasetProfile::PPI.materialize_tiny(23);
    let config = QgtcConfig::qgtc(ModelKind::BatchedGin, 4).with_partitions(12, 3);
    let mut session = QgtcSession::new(&dataset, &config).expect("session builds");
    let nodes: Vec<usize> = (0..dataset.graph.num_nodes()).step_by(3).collect();

    let miss = session.infer(&nodes).expect("cold serve");
    let cold = session.stats();
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.cache_misses, cold.batches_executed);

    let hit = session.infer(&nodes).expect("warm serve");
    let warm = session.stats();
    assert_eq!(
        warm.cache_hits, cold.batches_executed,
        "every batch of the replay must come from the cache"
    );
    assert_eq!(warm.cache_misses, cold.cache_misses, "no new prepares");
    assert_eq!(miss.logits, hit.logits, "hit == miss, bitwise");

    // Steady state: further replays draw every buffer from the pool.
    session.recycle_response(miss);
    session.recycle_response(hit);
    let replay = session.infer(&nodes).expect("warm serve");
    session.recycle_response(replay);
    let baseline = session.stats().pool.fresh_allocations;
    for _ in 0..3 {
        let response = session.infer(&nodes).expect("steady serve");
        session.recycle_response(response);
    }
    assert_eq!(
        session.stats().pool.fresh_allocations,
        baseline,
        "steady-state serving performs zero fresh pool-managed allocations"
    );
}

/// Regression: drains used to park every batch's forward-pass logits in the
/// pool's float free list although the pool never handed them out, so the
/// free list grew by one buffer per executed batch.  After warm-up the spare
/// count must stay exactly flat across a long scattered trace, whatever the
/// cache capacity.
#[test]
fn pool_spares_stay_flat_across_a_long_scattered_trace() {
    let dataset = DatasetProfile::PROTEINS.materialize_tiny(23);
    let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2).with_partitions(12, 2);
    let num_nodes = dataset.graph.num_nodes();
    let traffic = LoadGenerator {
        seed: 17,
        requests: 60,
        nodes_per_request: 3,
        interarrival_ms: 1.0,
    };
    for capacity in [0usize, 1, 64] {
        let options = ServeOptions::default().with_cache_capacity(capacity);
        let mut session =
            QgtcSession::with_options(&dataset, &config, options).expect("session builds");
        let all: Vec<usize> = (0..num_nodes).collect();
        for _ in 0..2 {
            let response = session.infer(&all).expect("warm-up sweep");
            session.recycle_response(response);
        }
        let warm = session.pool_spare_buffers();
        let executed_before = session.stats().batches_executed;
        let mut request = Vec::new();
        for index in 0..traffic.requests {
            traffic.fill_request(index, num_nodes, &mut request);
            let response = session.infer(&request).expect("healthy serve");
            session.recycle_response(response);
            assert_eq!(
                session.pool_spare_buffers(),
                warm,
                "capacity {capacity}: request {index} changed the pool's spare count"
            );
        }
        assert!(
            session.stats().batches_executed > executed_before + traffic.requests as u64,
            "capacity {capacity}: the trace must execute many batches"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Stale-buffer property: after an *arbitrary* request history — which
    // churns the payload cache, the LRU evictor, and every recycled pool
    // buffer — a canonical request must still answer exactly what a fresh
    // session answers. Any stale word leaking out of a recycled buffer
    // breaks this bitwise equality.
    #[test]
    fn arbitrary_request_history_never_leaks_stale_buffer_state(
        history in proptest::collection::vec(
            proptest::collection::vec(0usize..400, 1..12),
            1..8,
        ),
        capacity in 0usize..4,
    ) {
        let dataset = DatasetProfile::PROTEINS.materialize_tiny(23);
        let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2).with_partitions(12, 3);
        let num_nodes = dataset.graph.num_nodes();
        let canonical: Vec<usize> = (0..num_nodes).step_by(7).collect();

        let options = ServeOptions::default().with_cache_capacity(capacity);
        let mut churned = QgtcSession::with_options(&dataset, &config, options)
            .expect("session builds");
        for request in &history {
            let nodes: Vec<usize> = request.iter().map(|&n| n % num_nodes).collect();
            let response = churned.infer(&nodes).expect("healthy serve");
            churned.recycle_response(response);
        }
        let after_history = churned.infer(&canonical).expect("healthy serve");

        let mut fresh = QgtcSession::new(&dataset, &config).expect("session builds");
        let pristine = fresh.infer(&canonical).expect("healthy serve");

        prop_assert_eq!(after_history.node_ids, pristine.node_ids);
        // Recycled buffers must be bitwise indistinguishable from fresh ones.
        prop_assert_eq!(after_history.logits, pristine.logits);
    }
}
