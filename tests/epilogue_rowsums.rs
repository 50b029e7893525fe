//! Regression tests for the per-layer rowsum hand-over.
//!
//! The affine correction between two quantized layers needs the code rowsums
//! of the left operand.  Before the epilogue returned them, every layer
//! transition re-unpacked the freshly packed stack (`to_codes`) just to sum
//! codes it had already materialised while quantizing — an O(rows·cols·bits)
//! round trip per layer.  Now [`FusedEpilogue`] returns the rowsums alongside
//! the stack, and the entry repack that converts the payload layout
//! transposes bit planes and counts rowsums by popcount, so both a
//! Cluster-GCN and a batched-GIN forward perform **zero** unpacks,
//! independent of depth.  These tests pin that with the process-global
//! unpack counter in `qgtc_bitmat::stacked`.

use std::sync::Mutex;

use qgtc_repro::bitmat::stacked::unpack_ops;
use qgtc_repro::bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_repro::gnn::models::QuantizationSetting;
use qgtc_repro::gnn::{BatchedGinModel, ClusterGcnModel, GnnModelParams};
use qgtc_repro::graph::generate::{stochastic_block_model, SbmParams};
use qgtc_repro::graph::{CsrGraph, DenseSubgraph};
use qgtc_repro::kernels::bmm::KernelConfig;
use qgtc_repro::kernels::fusion::FusedEpilogue;
use qgtc_repro::tcsim::CostTracker;
use qgtc_repro::tensor::rng::random_uniform_matrix;
use qgtc_repro::tensor::Matrix;

/// The unpack counter is process-global; serialize the tests that read it so
/// the default multi-threaded test runner cannot interleave deltas.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn batch(nodes: usize, feature_dim: usize, seed: u64) -> (DenseSubgraph, Matrix<f32>) {
    let (coo, _) = stochastic_block_model(
        SbmParams {
            num_nodes: nodes,
            num_blocks: 4,
            intra_degree: 8.0,
            inter_degree: 0.5,
        },
        seed,
    );
    let graph = CsrGraph::from_coo(&coo);
    let all: Vec<usize> = (0..nodes).collect();
    let sub = DenseSubgraph::extract(&graph, &all);
    let features = random_uniform_matrix(nodes, feature_dim, 0.0, 1.0, seed + 1);
    (sub, features)
}

#[test]
fn cluster_gcn_forward_performs_zero_unpacks_at_any_depth() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let (sub, features) = batch(96, 24, 3);
    for num_layers in [2usize, 3, 5] {
        let model = ClusterGcnModel::with_params(GnnModelParams::new(24, 16, 4, num_layers, 7));
        let before = unpack_ops();
        let _ = model.forward_quantized_batch(
            &sub,
            &features,
            QuantizationSetting::Quantized { bits: 3 },
            &KernelConfig::default(),
            &CostTracker::new(),
        );
        assert_eq!(
            unpack_ops() - before,
            0,
            "GCN forward with {num_layers} layers must not unpack any stack"
        );
    }
}

#[test]
fn batched_gin_forward_performs_zero_unpacks_at_any_depth() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let (sub, features) = batch(96, 24, 5);
    for num_layers in [2usize, 3, 5] {
        let model =
            BatchedGinModel::with_params(GnnModelParams::new(24, 16, 4, num_layers, 9), 0.1);
        let before = unpack_ops();
        let _ = model.forward_quantized_batch(
            &sub,
            &features,
            QuantizationSetting::Quantized { bits: 3 },
            &KernelConfig::default(),
            &CostTracker::new(),
        );
        assert_eq!(
            unpack_ops() - before,
            0,
            "GIN forward with {num_layers} layers must not unpack any stack"
        );
    }
}

/// The rowsums the epilogue hands over are exactly what re-unpacking the
/// stack and summing its codes would have produced — the hand-over changes
/// the cost, not the arithmetic.
#[test]
fn epilogue_rowsums_equal_recomputation_from_the_unpacked_codes() {
    // Its `to_codes` calls move the counter the other tests read.
    let _guard = COUNTER_LOCK.lock().unwrap();
    let acc_f = random_uniform_matrix(13, 9, -40.0, 40.0, 21);
    let acc: Matrix<i64> = acc_f.map(|&v| v as i64);
    for bits in [1u32, 3, 8] {
        let epilogue = FusedEpilogue::hidden_layer(0.25, bits);
        let (stack, _params, rowsums) = epilogue
            .apply(&acc, &CostTracker::new())
            .unwrap()
            .into_quantized_with_rowsums()
            .expect("requantizing epilogue");
        let codes = stack.to_codes();
        let recomputed: Vec<i64> = (0..codes.rows())
            .map(|i| codes.row(i).iter().map(|&c| c as i64).sum())
            .collect();
        assert_eq!(rowsums, recomputed, "{bits}-bit rowsums");
    }
}

/// Same pinning for the packed-domain helper: `repack_with_rowsums` performs
/// no unpack and returns the same sums as the two-step path.
#[test]
fn repack_with_rowsums_costs_zero_unpacks() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let codes = random_uniform_matrix(11, 17, 0.0, 8.0, 13).map(|&v| (v as u32).min(7));
    let stack = StackedBitMatrix::from_codes(&codes, 3, BitMatrixLayout::ColPacked);
    let before = unpack_ops();
    let (repacked, rowsums) = stack.repack_with_rowsums(BitMatrixLayout::RowPacked);
    assert_eq!(unpack_ops() - before, 0, "no unpack for stack or sums");
    assert_eq!(repacked.to_codes(), codes);
    let expected: Vec<i64> = (0..codes.rows())
        .map(|i| codes.row(i).iter().map(|&c| c as i64).sum())
        .collect();
    assert_eq!(rowsums, expected);
}
