//! Cluster GCN (3 layers, 16 hidden dimensions in the paper's evaluation).
//!
//! Per layer: mean neighbour aggregation over the batch's dense adjacency, then a
//! linear node update, then ReLU (except after the output layer).  The QGTC path
//! keeps the adjacency as a 1-bit stack, performs the aggregation as a binary MMA
//! and folds the mean normalisation, re-quantization and activation into the
//! epilogue-equivalent steps between kernels.

use qgtc_baselines::dgl::{DglEngine, DglLayerKind};
use qgtc_bitmat::condense::CondensedAdjacency;
use qgtc_bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_graph::{adjacency_degrees, DenseSubgraph};
use qgtc_kernels::bmm::{qgtc_aggregate_with_epilogue, qgtc_bmm_with_epilogue, KernelConfig};
use qgtc_kernels::fusion::{EpilogueOutput, FusedEpilogue};
use qgtc_kernels::packing::pack_feature_matrix;
use qgtc_tcsim::cost::CostTracker;
use qgtc_tensor::{Matrix, TensorError};

use crate::layers::{affine_update_offsets, forward_layers, DenseTcScaffold, GnnModelParams};
use crate::models::{row_normalize, BatchForwardOutput, QuantizationSetting, QuantizedWeightSet};

/// The Cluster-GCN model: shared parameters plus both execution paths.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterGcnModel {
    /// The linear-layer parameters shared by every execution path.
    pub params: GnnModelParams,
}

/// The paper's Cluster-GCN hidden dimension.
pub const CLUSTER_GCN_HIDDEN: usize = 16;
/// The paper's layer count for both evaluated models.
pub const CLUSTER_GCN_LAYERS: usize = 3;

impl ClusterGcnModel {
    /// Build the paper's configuration: 3 layers, 16 hidden dimensions.
    pub fn new(feature_dim: usize, num_classes: usize, seed: u64) -> Self {
        Self {
            params: GnnModelParams::new(
                feature_dim,
                CLUSTER_GCN_HIDDEN,
                num_classes,
                CLUSTER_GCN_LAYERS,
                seed,
            ),
        }
    }

    /// Wrap existing parameters (used by tests and the QAT experiment).
    pub fn with_params(params: GnnModelParams) -> Self {
        Self { params }
    }

    /// Baseline (DGL-like) fp32 forward pass over one batch.
    pub fn forward_fp32_batch(
        &self,
        subgraph: &DenseSubgraph,
        features: &Matrix<f32>,
        tracker: &CostTracker,
    ) -> BatchForwardOutput {
        assert_eq!(
            subgraph.num_nodes(),
            features.rows(),
            "feature rows mismatch"
        );
        let engine = DglEngine::new(tracker);
        let num_layers = self.params.num_layers();
        let mut x = features.clone();
        for (l, layer) in self.params.layers.iter().enumerate() {
            let aggregated = engine.aggregate_dense(subgraph, &x, DglLayerKind::GcnMean);
            let updated = engine.update(&aggregated, &layer.weight, Some(&layer.bias));
            x = if l + 1 < num_layers {
                engine.relu(&updated)
            } else {
                updated
            };
        }
        BatchForwardOutput { logits: x }
    }

    /// QGTC forward pass over one batch.
    pub fn forward_quantized_batch(
        &self,
        subgraph: &DenseSubgraph,
        features: &Matrix<f32>,
        setting: QuantizationSetting,
        kernel_config: &KernelConfig,
        tracker: &CostTracker,
    ) -> BatchForwardOutput {
        assert_eq!(
            subgraph.num_nodes(),
            features.rows(),
            "feature rows mismatch"
        );
        match setting {
            QuantizationSetting::Quantized { bits } => {
                // The single host-side quantize site: pack exactly as the
                // transfer payload does, then stay in the quantized domain.
                let packed_features =
                    pack_feature_matrix(features, bits, BitMatrixLayout::ColPacked);
                // Dense-entry callers quantize the weights on the spot; epoch
                // drivers reuse a per-epoch set via the prepared-batch path.
                let weights = QuantizedWeightSet::prepare(&self.params, bits);
                self.forward_low_bit(
                    &subgraph.adjacency,
                    None,
                    &packed_features,
                    bits,
                    &weights,
                    kernel_config,
                    tracker,
                )
                .unwrap_or_else(|err| panic!("cannot re-quantize the activations: {err}"))
            }
            QuantizationSetting::Half | QuantizationSetting::Full => {
                self.forward_dense_tc(subgraph, features, setting, tracker)
            }
        }
    }

    /// Bit-decomposed Tensor Core path (1–8 bits) over a pre-packed adjacency
    /// and pre-packed features — the whole pass stays in the quantized domain.
    ///
    /// `packed_features` is the payload's column-packed stack (it must carry
    /// its [`qgtc_tensor::QuantParams`]); no dense feature matrix enters this
    /// function, so zero feature re-quantization can happen here *by
    /// construction*.  Each layer runs aggregation → epilogue 1 (affine
    /// dequantize + mean fold + re-quantize as the update's left operand) →
    /// update GEMM → epilogue 2 (affine dequantize + bias, then ReLU +
    /// re-quantize for hidden layers), with both epilogues — the only quantize
    /// sites — inside [`FusedEpilogue`], whose row pass runs inside each
    /// GEMM's row blocks: no `i64` accumulator matrix is materialised.
    /// Crate-visible so [`crate::models::GnnModel`] can route a
    /// [`qgtc_kernels::packing::PreparedBatch`]'s payload here without each
    /// model duplicating the dispatch.  Fails when an epilogue cannot
    /// re-quantize activations that overflowed `f32`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_low_bit(
        &self,
        adjacency_stack: &StackedBitMatrix,
        condensed_adjacency: Option<&CondensedAdjacency>,
        packed_features: &StackedBitMatrix,
        bits: u32,
        weights: &QuantizedWeightSet,
        kernel_config: &KernelConfig,
        tracker: &CostTracker,
    ) -> Result<BatchForwardOutput, TensorError> {
        assert_eq!(
            packed_features.layout(),
            BitMatrixLayout::ColPacked,
            "packed features are the aggregation's right operand"
        );
        assert_eq!(weights.bits(), bits, "weight set bitwidth");
        assert_eq!(weights.num_layers(), self.params.num_layers());
        let degrees = adjacency_degrees(adjacency_stack);
        let num_layers = self.params.num_layers();
        let mut x = packed_features.clone();

        for (l, layer) in self.params.layers.iter().enumerate() {
            let last = l + 1 == num_layers;
            let x_params = x
                .quant_params()
                .expect("the quantized currency always carries its parameters");

            // Neighbour aggregation on the binary adjacency, routed through the
            // adjacency-path dispatcher with the payload's cached condensed
            // translation (the adjacency is layer-invariant, so one translation
            // serves every layer), with epilogue 1 run inside the kernel:
            // affine dequantize (A·x ≈ s·acc + min·deg), fold the mean
            // normalisation, and re-quantize as the update's left operand.
            // The epilogue hands back the code rowsums the update's affine
            // correction needs, so the freshly packed stack is never unpacked
            // again.
            let aggregation_epilogue = FusedEpilogue::requantize_left_operand(x_params.scale, bits)
                .with_row_offset(degrees.iter().map(|&d| x_params.min * d).collect())
                .with_row_scale(degrees.iter().map(|&d| 1.0 / d.max(1.0)).collect())
                .with_fused(kernel_config.fused_epilogue);
            let (h_stack, h_params, h_rowsums) = qgtc_aggregate_with_epilogue(
                adjacency_stack,
                condensed_adjacency,
                &x,
                &aggregation_epilogue,
                kernel_config,
                tracker,
            )?
            .0
            .into_quantized_with_rowsums()
            .expect("requantizing epilogue");

            // The per-epoch weight cache: quantized once, shared by batches.
            let w = weights.layer(l);
            let (w_stack, w_params, w_colsums) = (&w.stack, w.params, &w.colsums);

            // Node update GEMM with epilogue 2 inside the kernel: affine×affine
            // dequantization plus bias; hidden layers additionally ReLU and
            // re-quantize for the next aggregation — the transition's single
            // quantize site.
            let (row_off, col_off) = affine_update_offsets(
                h_params,
                w_params,
                &h_rowsums,
                w_colsums,
                h_stack.cols(),
                &layer.bias,
            );
            let scale = h_params.scale * w_params.scale;
            let epilogue = if last {
                FusedEpilogue::dequantize_only(scale)
            } else {
                FusedEpilogue::hidden_layer(scale, bits)
            }
            .with_row_offset(row_off)
            .with_col_offset(col_off)
            .with_fused(kernel_config.fused_epilogue);
            match qgtc_bmm_with_epilogue(&h_stack, w_stack, &epilogue, kernel_config, tracker)?.0 {
                EpilogueOutput::Dense(logits) => return Ok(BatchForwardOutput { logits }),
                EpilogueOutput::Quantized { stack, .. } => x = stack,
            }
        }
        unreachable!("models have at least one layer, and the last layer returns")
    }

    /// Dense fp16/TF32 Tensor Core path (the 16- and 32-bit configurations):
    /// aggregate on the row-normalised adjacency, then the linear update, on the
    /// shared dense-TC layer scaffold.
    fn forward_dense_tc(
        &self,
        subgraph: &DenseSubgraph,
        features: &Matrix<f32>,
        setting: QuantizationSetting,
        tracker: &CostTracker,
    ) -> BatchForwardOutput {
        let normalized = row_normalize(&subgraph.dense_adjacency());
        let tc = DenseTcScaffold::new(setting, tracker);
        forward_layers(&self.params, features, tracker, |layer, x| {
            let aggregated = tc.gemm(&normalized, x);
            tc.linear(&aggregated, layer)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_graph::generate::{stochastic_block_model, SbmParams};
    use qgtc_graph::CsrGraph;
    use qgtc_tcsim::DeviceModel;
    use qgtc_tensor::rng::random_uniform_matrix;

    fn batch(nodes: usize, seed: u64) -> (DenseSubgraph, Matrix<f32>) {
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
        let features = random_uniform_matrix(nodes, 29, 0.0, 1.0, seed + 1);
        (sub, features)
    }

    fn model() -> ClusterGcnModel {
        ClusterGcnModel::new(29, 2, 42)
    }

    #[test]
    fn constructor_matches_paper_configuration() {
        let m = model();
        assert_eq!(m.params.num_layers(), 3);
        assert_eq!(m.params.layers[0].out_dim(), 16);
        assert_eq!(m.params.output_dim(), 2);
    }

    #[test]
    fn fp32_and_dense_tc_paths_agree() {
        let (sub, features) = batch(96, 1);
        let m = model();
        let baseline = m.forward_fp32_batch(&sub, &features, &CostTracker::new());
        let full = m.forward_quantized_batch(
            &sub,
            &features,
            QuantizationSetting::Full,
            &KernelConfig::default(),
            &CostTracker::new(),
        );
        assert!(
            baseline.logits.max_abs_diff(&full.logits).unwrap() < 1e-3,
            "the 32-bit TC path must match the fp32 baseline numerically"
        );
    }

    #[test]
    fn eight_bit_path_tracks_fp32_closely() {
        let (sub, features) = batch(96, 2);
        let m = model();
        let baseline = m.forward_fp32_batch(&sub, &features, &CostTracker::new());
        let quant = m.forward_quantized_batch(
            &sub,
            &features,
            QuantizationSetting::from_bits(8),
            &KernelConfig::default(),
            &CostTracker::new(),
        );
        let err = baseline.logits.max_abs_diff(&quant.logits).unwrap();
        let magnitude = baseline
            .logits
            .data()
            .iter()
            .fold(0.0f32, |a, &v| a.max(v.abs()))
            .max(1e-3);
        assert!(
            err < 0.25 * magnitude + 0.05,
            "8-bit error {err} too large vs magnitude {magnitude}"
        );
    }

    #[test]
    fn lower_bitwidth_increases_error() {
        let (sub, features) = batch(96, 3);
        let m = model();
        let baseline = m.forward_fp32_batch(&sub, &features, &CostTracker::new());
        let err_at = |bits: u32| {
            let out = m.forward_quantized_batch(
                &sub,
                &features,
                QuantizationSetting::from_bits(bits),
                &KernelConfig::default(),
                &CostTracker::new(),
            );
            baseline.logits.max_abs_diff(&out.logits).unwrap()
        };
        let e8 = err_at(8);
        let e2 = err_at(2);
        assert!(
            e2 > e8,
            "2-bit error ({e2}) should exceed 8-bit error ({e8})"
        );
    }

    #[test]
    fn quantized_path_uses_tensor_cores_and_baseline_does_not() {
        let (sub, features) = batch(80, 4);
        let m = model();
        let q_tracker = CostTracker::new();
        let _ = m.forward_quantized_batch(
            &sub,
            &features,
            QuantizationSetting::from_bits(4),
            &KernelConfig::default(),
            &q_tracker,
        );
        let b_tracker = CostTracker::new();
        let _ = m.forward_fp32_batch(&sub, &features, &b_tracker);
        let q = q_tracker.snapshot();
        let b = b_tracker.snapshot();
        assert!(q.tc_b1_tiles > 0);
        assert_eq!(q.cuda_sparse_flops, 0);
        assert_eq!(b.tc_b1_tiles, 0);
        assert!(b.cuda_sparse_flops > 0);
    }

    #[test]
    fn modeled_low_bit_inference_beats_dgl_baseline() {
        let (sub, features) = batch(512, 5);
        let m = ClusterGcnModel::new(29, 2, 7);
        let model_dev = DeviceModel::rtx3090();

        let q_tracker = CostTracker::new();
        let _ = m.forward_quantized_batch(
            &sub,
            &features,
            QuantizationSetting::from_bits(2),
            &KernelConfig::default(),
            &q_tracker,
        );
        let b_tracker = CostTracker::new();
        let _ = m.forward_fp32_batch(&sub, &features, &b_tracker);

        let q_time = model_dev.estimate(&q_tracker.snapshot()).total_s;
        let b_time = model_dev.estimate(&b_tracker.snapshot()).total_s;
        assert!(
            q_time < b_time,
            "2-bit QGTC ({q_time:.6}s) should be modeled faster than DGL ({b_time:.6}s)"
        );
    }

    #[test]
    fn logits_shape_matches_batch() {
        let (sub, features) = batch(50, 6);
        let m = model();
        let out = m.forward_quantized_batch(
            &sub,
            &features,
            QuantizationSetting::from_bits(3),
            &KernelConfig::default(),
            &CostTracker::new(),
        );
        assert_eq!(out.logits.shape(), (50, 2));
    }
}
