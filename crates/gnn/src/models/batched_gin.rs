//! Batched GIN (3 layers, 64 hidden dimensions in the paper's evaluation).
//!
//! GIN differs from GCN in its aggregation: a *sum* over neighbours plus a weighted
//! self term `(1 + ε)·h_v`, and in the evaluated batched variant the linear node
//! update runs *before* the aggregation, which raises the compute-to-communication
//! ratio (the paper credits this for QGTC's larger speedups on GIN).  Both execution
//! paths below follow that order: update → aggregate (+ self term) → activation.

use qgtc_baselines::dgl::{DglEngine, DglLayerKind};
use qgtc_bitmat::condense::CondensedAdjacency;
use qgtc_bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_graph::{adjacency_degrees, DenseSubgraph};
use qgtc_kernels::bmm::{qgtc_aggregate_with_epilogue, qgtc_bmm_with_epilogue, KernelConfig};
use qgtc_kernels::fusion::{Activation, FusedEpilogue};
use qgtc_kernels::packing::pack_feature_matrix;
use qgtc_tcsim::cost::CostTracker;
use qgtc_tensor::{ops, Matrix, TensorError};

use crate::layers::{affine_update_offsets, DenseTcScaffold, GnnModelParams};
use crate::models::{BatchForwardOutput, QuantizationSetting, QuantizedWeightSet};

/// The batched GIN model.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedGinModel {
    /// The linear-layer parameters shared by every execution path.
    pub params: GnnModelParams,
    /// The GIN self-loop weight ε.
    pub epsilon: f32,
}

/// The paper's batched-GIN hidden dimension.
pub const BATCHED_GIN_HIDDEN: usize = 64;
/// The paper's layer count.
pub const BATCHED_GIN_LAYERS: usize = 3;

impl BatchedGinModel {
    /// Build the paper's configuration: 3 layers, 64 hidden dimensions, ε = 0.
    pub fn new(feature_dim: usize, num_classes: usize, seed: u64) -> Self {
        Self {
            params: GnnModelParams::new(
                feature_dim,
                BATCHED_GIN_HIDDEN,
                num_classes,
                BATCHED_GIN_LAYERS,
                seed,
            ),
            epsilon: 0.0,
        }
    }

    /// Wrap existing parameters.
    pub fn with_params(params: GnnModelParams, epsilon: f32) -> Self {
        Self { params, epsilon }
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
            let last = l + 1 == num_layers;
            // Update first (the batched-GIN order).
            let updated = engine.update(&x, &layer.weight, Some(&layer.bias));
            // Sum aggregation plus the (1 + ε) self term.
            let aggregated = engine.aggregate_dense(subgraph, &updated, DglLayerKind::GinSum);
            let self_term = ops::scale(&updated, 1.0 + self.epsilon);
            let mut combined = ops::add(&aggregated, &self_term).expect("shapes match");
            tracker.record_fp32_flops(2 * combined.len() as u64);
            if !last {
                combined = engine.relu(&combined);
            }
            x = combined;
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
                // The single host-side quantize site: same codes and params
                // as the transfer payload, packed directly in the row-wise
                // layout GIN's update-first order consumes (the payload path
                // reaches the same stack via `repack`).
                let packed_features =
                    pack_feature_matrix(features, bits, BitMatrixLayout::RowPacked);
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
    /// `packed_features` is the payload's column-packed stack; GIN's
    /// update-first order wants a row-packed *left* operand, so the first layer
    /// re-packs the stack in the quantized domain (a pure bit shuffle — no
    /// dense features enter this function and no quantize call happens outside
    /// [`FusedEpilogue`]).  Each layer runs update GEMM → epilogue (affine
    /// dequantize + bias) → intra-layer re-quantize as the aggregation's right
    /// operand → aggregation → epilogue (affine dequantize with the
    /// `+ (1+ε)·self` term folded in as a scaled addend — no standalone dense
    /// combine pass — then the ReLU on hidden layers) → transition
    /// (re-quantize as the next update's left operand).  Both epilogues run
    /// inside their GEMM's row blocks, and both re-quantizations calibrate
    /// from the range those epilogues produced, so no range scan runs here.
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
        assert_eq!(weights.bits(), bits, "weight set bitwidth");
        assert_eq!(weights.num_layers(), self.params.num_layers());
        let degrees = adjacency_degrees(adjacency_stack);
        let num_layers = self.params.num_layers();
        // Quantized-domain re-layout for the update-first order (no quantize):
        // the repack transposes the planes and counts the code rowsums the
        // first update's affine correction needs by popcount; later layers
        // get theirs from the transition epilogue, so no stack is unpacked.
        let (mut x, mut x_rowsums) =
            packed_features.repack_with_rowsums(BitMatrixLayout::RowPacked);
        let fused = kernel_config.fused_epilogue;

        for (l, layer) in self.params.layers.iter().enumerate() {
            let last = l + 1 == num_layers;
            let x_params = x
                .quant_params()
                .expect("the quantized currency always carries its parameters");

            // Node update first, on the packed left operand, against the
            // per-epoch weight cache (quantized once, shared by batches), with
            // the affine dequantize + bias epilogue inside the kernel.
            let w = weights.layer(l);
            let (w_stack, w_params, w_colsums) = (&w.stack, w.params, &w.colsums);
            let (row_off, col_off) = affine_update_offsets(
                x_params,
                w_params,
                &x_rowsums,
                w_colsums,
                x.cols(),
                &layer.bias,
            );
            let update_epilogue = FusedEpilogue::dequantize_only(x_params.scale * w_params.scale)
                .with_row_offset(row_off)
                .with_col_offset(col_off)
                .with_fused(fused);
            let (updated, updated_range) =
                qgtc_bmm_with_epilogue(&x, w_stack, &update_epilogue, kernel_config, tracker)?;
            let updated = updated.into_dense().expect("dense epilogue");

            // Intra-layer re-quantization of the (possibly negative) update
            // result as the aggregation's right operand, calibrated from the
            // range the update epilogue already produced.
            let (u_stack, u_params) = FusedEpilogue::requantize_right_operand(1.0, bits)
                .with_fused(fused)
                .pack(&updated, &updated_range, tracker)?
                .into_quantized()
                .expect("requantizing epilogue");
            // Neighbour sum through the adjacency-path dispatcher (the cached
            // condensed translation, if any, is adjacency-derived and so valid
            // for every layer), with the epilogue inside the kernel: affine
            // dequantize (A·u ≈ scale · (A·uc) + min · deg) plus the GIN self
            // term `(1 + ε)·updated` as a scaled addend, and on hidden layers
            // the ReLU after it.
            let mut aggregation_epilogue = FusedEpilogue::dequantize_only(u_params.scale)
                .with_row_offset(degrees.iter().map(|&d| u_params.min * d).collect())
                .with_scaled_addend(updated, 1.0 + self.epsilon)
                .with_fused(fused);
            if !last {
                aggregation_epilogue.activation = Activation::Relu;
            }
            let (combined, combined_range) = qgtc_aggregate_with_epilogue(
                adjacency_stack,
                condensed_adjacency,
                &u_stack,
                &aggregation_epilogue,
                kernel_config,
                tracker,
            )?;
            let combined = combined.into_dense().expect("dense epilogue");
            if last {
                return Ok(BatchForwardOutput { logits: combined });
            }
            // Layer transition: re-quantize as the next update's left operand
            // from the range the aggregation epilogue produced — the
            // transition's single quantize site, which also hands over the
            // rowsums for the next layer's affine correction.
            let (stack, _, rowsums) = FusedEpilogue::requantize_left_operand(1.0, bits)
                .with_fused(fused)
                .pack(&combined, &combined_range, tracker)?
                .into_quantized_with_rowsums()
                .expect("requantizing epilogue");
            x = stack;
            x_rowsums = rowsums;
        }
        unreachable!("models have at least one layer, and the last layer returns")
    }

    /// Dense fp16/TF32 Tensor Core path (the 16- and 32-bit configurations):
    /// linear update first, then sum aggregation with the `(1 + ε)` self term
    /// and the inter-layer ReLU both folded into the aggregation's
    /// [`FusedEpilogue`] (§4.5) — no standalone scale/add/activation kernels
    /// over the dense activations, mirroring the low-bit path's fusion.
    fn forward_dense_tc(
        &self,
        subgraph: &DenseSubgraph,
        features: &Matrix<f32>,
        setting: QuantizationSetting,
        tracker: &CostTracker,
    ) -> BatchForwardOutput {
        let tc = DenseTcScaffold::new(setting, tracker);
        let num_layers = self.params.num_layers();
        let adjacency = subgraph.dense_adjacency();
        let mut x = features.clone();
        for (l, layer) in self.params.layers.iter().enumerate() {
            let updated = tc.linear(&x, layer);
            let aggregated = tc.gemm(&adjacency, &updated);
            let mut epilogue =
                FusedEpilogue::dequantize_only(1.0).with_scaled_addend(updated, 1.0 + self.epsilon);
            if l + 1 < num_layers {
                epilogue.activation = Activation::Relu;
            }
            x = epilogue
                .apply_dense(aggregated, tracker)
                .expect("a dense epilogue does not re-quantize")
                .into_dense()
                .expect("dense epilogue");
        }
        BatchForwardOutput { logits: x }
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
                intra_degree: 6.0,
                inter_degree: 0.5,
            },
            seed,
        );
        let graph = CsrGraph::from_coo(&coo);
        let all: Vec<usize> = (0..nodes).collect();
        let sub = DenseSubgraph::extract(&graph, &all);
        let features = random_uniform_matrix(nodes, 50, 0.0, 1.0, seed + 1);
        (sub, features)
    }

    fn model() -> BatchedGinModel {
        BatchedGinModel::new(50, 121, 11)
    }

    #[test]
    fn constructor_matches_paper_configuration() {
        let m = model();
        assert_eq!(m.params.num_layers(), 3);
        assert_eq!(m.params.layers[0].out_dim(), 64);
        assert_eq!(m.params.output_dim(), 121);
        assert_eq!(m.epsilon, 0.0);
    }

    #[test]
    fn fp32_and_dense_tc_paths_agree() {
        let (sub, features) = batch(72, 1);
        let m = model();
        let baseline = m.forward_fp32_batch(&sub, &features, &CostTracker::new());
        let full = m.forward_quantized_batch(
            &sub,
            &features,
            QuantizationSetting::Full,
            &KernelConfig::default(),
            &CostTracker::new(),
        );
        assert!(baseline.logits.max_abs_diff(&full.logits).unwrap() < 1e-2);
    }

    #[test]
    fn eight_bit_path_is_a_reasonable_approximation() {
        let (sub, features) = batch(72, 2);
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
            err < 0.35 * magnitude + 0.1,
            "8-bit GIN error {err} too large vs magnitude {magnitude}"
        );
    }

    #[test]
    fn self_term_influences_output() {
        let (sub, features) = batch(40, 3);
        let a = BatchedGinModel::with_params(model().params, 0.0);
        let b = BatchedGinModel::with_params(model().params, 1.0);
        let out_a = a.forward_fp32_batch(&sub, &features, &CostTracker::new());
        let out_b = b.forward_fp32_batch(&sub, &features, &CostTracker::new());
        assert!(out_a.logits.max_abs_diff(&out_b.logits).unwrap() > 1e-3);
    }

    #[test]
    fn gin_has_higher_compute_density_than_gcn() {
        // The paper argues batched GIN's update-first order yields a higher
        // compute-to-communication ratio; with hidden 64 vs 16 its modeled per-batch
        // Tensor Core work must exceed Cluster GCN's on the same batch.
        use crate::models::cluster_gcn::ClusterGcnModel;
        let (sub, features) = batch(128, 4);
        let gin = BatchedGinModel::new(50, 10, 5);
        let gcn = ClusterGcnModel::new(50, 10, 5);
        let t_gin = CostTracker::new();
        let t_gcn = CostTracker::new();
        let _ = gin.forward_quantized_batch(
            &sub,
            &features,
            QuantizationSetting::from_bits(4),
            &KernelConfig::default(),
            &t_gin,
        );
        let _ = gcn.forward_quantized_batch(
            &sub,
            &features,
            QuantizationSetting::from_bits(4),
            &KernelConfig::default(),
            &t_gcn,
        );
        assert!(t_gin.snapshot().tc_b1_tiles > t_gcn.snapshot().tc_b1_tiles);
    }

    #[test]
    fn modeled_low_bit_gin_beats_dgl() {
        let (sub, features) = batch(384, 6);
        let m = model();
        let device = DeviceModel::rtx3090();
        let q = CostTracker::new();
        let b = CostTracker::new();
        let _ = m.forward_quantized_batch(
            &sub,
            &features,
            QuantizationSetting::from_bits(2),
            &KernelConfig::default(),
            &q,
        );
        let _ = m.forward_fp32_batch(&sub, &features, &b);
        let q_time = device.estimate(&q.snapshot()).total_s;
        let b_time = device.estimate(&b.snapshot()).total_s;
        assert!(q_time < b_time, "2-bit {q_time} vs DGL {b_time}");
    }

    #[test]
    fn logits_shape_matches_batch() {
        let (sub, features) = batch(33, 7);
        let out = model().forward_quantized_batch(
            &sub,
            &features,
            QuantizationSetting::from_bits(2),
            &KernelConfig::default(),
            &CostTracker::new(),
        );
        assert_eq!(out.logits.shape(), (33, 121));
    }
}
