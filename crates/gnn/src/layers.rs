//! Layer parameters shared by the fp32 and quantized execution paths, plus the
//! per-batch layer scaffolding both models' dense Tensor-Core paths run on.
//!
//! A GNN layer in both evaluated models is a linear transform (weight + bias) wrapped
//! around an aggregation; the aggregation has no parameters.  Keeping the parameters
//! in one place guarantees the baseline and QGTC paths run the *same* model, so their
//! outputs can be compared numerically in tests.
//!
//! `DenseTcScaffold` factors out the per-layer dense TC GEMMs (with cost
//! recording) both models' 16/32-bit paths share. `forward_layers` adds the
//! ReLU-between-hidden-layers driver loop for models whose layer body is a plain
//! closure (Cluster-GCN); batched GIN runs its own loop so the self-term addend
//! and the inter-layer ReLU can ride the aggregation's fused epilogue.

#[cfg(test)]
use qgtc_bitmat::StackedBitMatrix;
use qgtc_tcsim::cost::CostTracker;
use qgtc_tensor::gemm::gemm_f32;
use qgtc_tensor::rng::xavier_init;
use qgtc_tensor::{ops, Matrix, QuantParams};

use crate::models::{record_dense_tc_gemm, BatchForwardOutput, QuantizationSetting};

/// Parameters of one linear update layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerParams {
    /// Weight matrix, `in_dim × out_dim`.
    pub weight: Matrix<f32>,
    /// Bias vector, `out_dim` long.
    pub bias: Vec<f32>,
}

impl LayerParams {
    /// Xavier-initialised layer.
    pub fn new_xavier(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Self {
            weight: xavier_init(in_dim, out_dim, seed),
            bias: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }
}

/// Parameters of a full multi-layer GNN model.
#[derive(Debug, Clone, PartialEq)]
pub struct GnnModelParams {
    /// The per-layer linear transforms, input to output order.
    pub layers: Vec<LayerParams>,
}

impl GnnModelParams {
    /// Build a model `feature_dim → hidden → … → hidden → num_classes` with
    /// `num_layers` layers (the paper uses 3 for both models).
    pub fn new(
        feature_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        num_layers: usize,
        seed: u64,
    ) -> Self {
        assert!(num_layers >= 1, "a model needs at least one layer");
        let mut layers = Vec::with_capacity(num_layers);
        for l in 0..num_layers {
            let in_dim = if l == 0 { feature_dim } else { hidden_dim };
            let out_dim = if l + 1 == num_layers {
                num_classes
            } else {
                hidden_dim
            };
            layers.push(LayerParams::new_xavier(in_dim, out_dim, seed + l as u64));
        }
        Self { layers }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of output classes.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("at least one layer").out_dim()
    }
}

/// Row sums of a code stack's logical values — the test-side reference for
/// the affine correction inputs.  The forward passes no longer call this:
/// they receive rowsums from [`qgtc_kernels::fusion::EpilogueOutput`] (or the
/// entry `repack_with_rowsums`) without unpacking the stack, and the
/// regression suite asserts both paths agree.
#[cfg(test)]
pub(crate) fn code_row_sums(stack: &StackedBitMatrix) -> Vec<i64> {
    let codes = stack.to_codes();
    (0..codes.rows())
        .map(|r| codes.row(r).iter().map(|&c| c as i64).sum())
        .collect()
}

/// The affine×affine correction offsets of a node-update GEMM, for the fused
/// epilogue.  With `H ≈ s_h·Hc + m_h` and `W ≈ s_w·Wc + m_w`,
///
/// ```text
/// (H·W)[i,j] ≈ s_h s_w (Hc·Wc)[i,j]
///            + s_h m_w rowsum(Hc)[i]                       // row offset
///            + m_h s_w colsum(Wc)[j] + K m_h m_w + bias[j] // col offset
/// ```
///
/// so the epilogue's accumulator scale is `s_h·s_w` and the two returned
/// vectors are its row and column offsets.  With zero-anchored activations
/// (`m_h = 0`) this degenerates to the classic affine-weight correction.
/// `w_colsums` comes from the quantize site (the models' `quantize_weights`
/// computes it from the dense codes, avoiding a stack unpack).
pub(crate) fn affine_update_offsets(
    h_params: QuantParams,
    w_params: QuantParams,
    h_rowsums: &[i64],
    w_colsums: &[i64],
    inner_dim: usize,
    bias: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    assert_eq!(w_colsums.len(), bias.len(), "bias/colsum length mismatch");
    let row_offsets = h_rowsums
        .iter()
        .map(|&rowsum| w_params.min * h_params.scale * rowsum as f32)
        .collect();
    let cross_term = inner_dim as f32 * h_params.min * w_params.min;
    let col_offsets = w_colsums
        .iter()
        .zip(bias.iter())
        .map(|(&colsum, &b)| h_params.min * w_params.scale * colsum as f32 + cross_term + b)
        .collect();
    (row_offsets, col_offsets)
}

/// The shared building blocks of the dense fp16/TF32 Tensor-Core execution path.
///
/// Every GEMM issued through the scaffold is charged to the tracker with
/// [`record_dense_tc_gemm`] at the scaffold's quantization setting, so a model's
/// dense-TC forward cannot forget to account for a product.
pub(crate) struct DenseTcScaffold<'a> {
    setting: QuantizationSetting,
    tracker: &'a CostTracker,
}

impl<'a> DenseTcScaffold<'a> {
    /// A scaffold recording into `tracker` at `setting` (must be `Half` or `Full`).
    pub(crate) fn new(setting: QuantizationSetting, tracker: &'a CostTracker) -> Self {
        Self { setting, tracker }
    }

    /// One dense Tensor-Core GEMM `a · b`, cost-recorded.
    pub(crate) fn gemm(&self, a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
        let out = gemm_f32(a, b);
        record_dense_tc_gemm(a.rows(), b.cols(), a.cols(), self.setting, self.tracker);
        out
    }

    /// The linear node update `x · W + b`, cost-recorded.
    pub(crate) fn linear(&self, x: &Matrix<f32>, layer: &LayerParams) -> Matrix<f32> {
        ops::add_bias(&self.gemm(x, &layer.weight), &layer.bias)
    }
}

/// Drive a multi-layer forward pass: apply `layer_fn` per layer and the shared
/// ReLU-between-hidden-layers convention (recorded as one fp32 op per element),
/// returning the final activations as logits.
///
/// Cluster-GCN's dense-TC path (and nothing else — the low-bit paths interleave
/// quantization steps, and batched GIN fuses its activation into the epilogue)
/// runs through this driver.
pub(crate) fn forward_layers(
    params: &GnnModelParams,
    features: &Matrix<f32>,
    tracker: &CostTracker,
    mut layer_fn: impl FnMut(&LayerParams, &Matrix<f32>) -> Matrix<f32>,
) -> BatchForwardOutput {
    let num_layers = params.num_layers();
    let mut x = features.clone();
    for (l, layer) in params.layers.iter().enumerate() {
        let mut updated = layer_fn(layer, &x);
        if l + 1 < num_layers {
            ops::relu_inplace(&mut updated);
            tracker.record_fp32_flops(updated.len() as u64);
        }
        x = updated;
    }
    BatchForwardOutput { logits: x }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_tc_scaffold_records_every_gemm() {
        let tracker = CostTracker::new();
        let scaffold = DenseTcScaffold::new(QuantizationSetting::Half, &tracker);
        let a = Matrix::filled(8, 8, 1.0f32);
        let layer = LayerParams::new_xavier(8, 4, 1);
        let out = scaffold.linear(&a, &layer);
        assert_eq!(out.shape(), (8, 4));
        let s = tracker.snapshot();
        assert_eq!(s.tc_fp16_flops, 2 * 8 * 4 * 8);
        assert_eq!(s.kernel_launches, 1);
    }

    #[test]
    fn forward_layers_relu_between_hidden_layers_only() {
        let params = GnnModelParams::new(4, 4, 2, 3, 9);
        let tracker = CostTracker::new();
        let features = Matrix::filled(5, 4, -1.0f32);
        let mut calls = 0usize;
        let out = forward_layers(&params, &features, &tracker, |layer, x| {
            calls += 1;
            assert_eq!(x.cols(), layer.in_dim());
            // Negative constant output: hidden layers get ReLU'd to zero, the output
            // layer keeps its sign.
            Matrix::filled(x.rows(), layer.out_dim(), -2.0f32)
        });
        assert_eq!(calls, 3);
        assert!(out.logits.data().iter().all(|&v| v == -2.0));
        // Two hidden ReLUs, 5×4 elements each.
        assert_eq!(tracker.snapshot().cuda_fp32_flops, 2 * 5 * 4);
    }

    #[test]
    fn code_sums_match_dense_codes() {
        use qgtc_bitmat::BitMatrixLayout;
        let codes = Matrix::from_vec(2, 3, vec![1u32, 2, 3, 4, 5, 6]).unwrap();
        let stack = StackedBitMatrix::from_codes(&codes, 3, BitMatrixLayout::RowPacked);
        assert_eq!(code_row_sums(&stack), vec![6, 15]);
    }

    #[test]
    fn affine_offsets_reconstruct_the_affine_product() {
        use qgtc_bitmat::BitMatrixLayout;
        use qgtc_tensor::gemm::gemm_i64;
        use qgtc_tensor::rng::random_uniform_matrix;
        use qgtc_tensor::Quantizer;

        // Quantize h (signed!) and w with the affine scheme, run the exact code
        // GEMM, dequantize through the offsets, and compare against the product
        // of the *decoded* operands — which the correction must match exactly.
        let h = random_uniform_matrix(7, 12, -1.5, 2.0, 1);
        let w = random_uniform_matrix(12, 5, -0.5, 0.5, 2);
        let bias = vec![0.25f32; 5];
        let hq = Quantizer::calibrate(4, &h).unwrap();
        let wq = Quantizer::calibrate(4, &w).unwrap();
        let h_codes = hq.quantize_matrix_u32(&h);
        let w_codes = wq.quantize_matrix_u32(&w);
        let h_stack = StackedBitMatrix::from_codes(&h_codes, 4, BitMatrixLayout::RowPacked);
        let acc = gemm_i64(&h_codes.map(|&v| v as i64), &w_codes.map(|&v| v as i64));
        let mut w_colsums = vec![0i64; 5];
        for r in 0..12 {
            for (sum, &c) in w_colsums.iter_mut().zip(w_codes.row(r)) {
                *sum += c as i64;
            }
        }
        let (row_off, col_off) = affine_update_offsets(
            hq.params(),
            wq.params(),
            &code_row_sums(&h_stack),
            &w_colsums,
            12,
            &bias,
        );
        let scale = hq.params().scale * wq.params().scale;
        // Decoded operands under the floor convention: value = min + code·scale.
        let h_dec = h_codes.map(|&c| hq.params().min + c as f32 * hq.params().scale);
        let w_dec = w_codes.map(|&c| wq.params().min + c as f32 * wq.params().scale);
        let exact = qgtc_tensor::gemm::gemm_f32(&h_dec, &w_dec);
        for i in 0..7 {
            for j in 0..5 {
                let corrected = acc[(i, j)] as f32 * scale + row_off[i] + col_off[j];
                let expected = exact[(i, j)] + bias[j];
                assert!(
                    (corrected - expected).abs() < 1e-3,
                    "({i},{j}): {corrected} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn a_signed_zero_min_reaches_no_code_offset_or_logit() {
        // The epilogue's lane range scan may settle a +0.0/-0.0 tie for a
        // calibrated `min` on the other sign than the scalar fold did.  Every
        // place a `min` enters the next layer adds a ±0 to a sum that is never
        // -0 (non-negative code accumulators times a positive scale), so both
        // signs must give the same codes, offsets and outputs, bit for bit.
        use qgtc_kernels::fusion::{EpilogueOutput, FusedEpilogue};
        use qgtc_tensor::rng::random_uniform_matrix;

        let bits_of = |m: &Matrix<f32>| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let outputs = |epilogue: FusedEpilogue, acc: &Matrix<i64>| {
            let dense = epilogue.clone().apply(acc, &CostTracker::new()).unwrap();
            let mut hidden = epilogue;
            hidden.requantize_bits = Some(3);
            hidden.activation = qgtc_kernels::fusion::Activation::Relu;
            let quantized = hidden.apply(acc, &CostTracker::new()).unwrap();
            match (dense, quantized) {
                (
                    EpilogueOutput::Dense(logits),
                    EpilogueOutput::Quantized {
                        stack,
                        params,
                        code_rowsums,
                    },
                ) => (
                    bits_of(&logits),
                    stack.planes().to_vec(),
                    params.scale.to_bits(),
                    code_rowsums,
                ),
                _ => unreachable!("one dense and one requantizing epilogue"),
            }
        };
        // Code accumulators, rowsums and colsums are non-negative; zeros too.
        let acc = random_uniform_matrix(6, 5, 0.0, 40.0, 3).map(|&v| (v as i64) & !3);
        let h_rowsums = [0i64, 3, 17, 0, 8, 1];
        let w_colsums = [0i64, 9, 2, 30, 5];
        let bias = [0.0f32, -0.0, 0.3, -1.25, 0.0];
        let degrees = [0.0f32, 1.0, 3.0, 0.0, 7.0, 2.0];

        for other_min in [0.0f32, -0.0, -0.37, 0.25] {
            for (h_scale, w_scale) in [(0.125f32, 0.05f32), (1.0, 1.0)] {
                let [positive, negative] = [0.0f32, -0.0].map(|zero| {
                    let mut results = Vec::new();
                    // A zero activation min, then a zero weight min.
                    for (h_min, w_min) in [(zero, other_min), (other_min, zero)] {
                        let h = QuantParams {
                            bits: 3,
                            min: h_min,
                            scale: h_scale,
                        };
                        let w = QuantParams {
                            bits: 3,
                            min: w_min,
                            scale: w_scale,
                        };
                        let (row_off, col_off) =
                            affine_update_offsets(h, w, &h_rowsums, &w_colsums, 12, &bias);
                        let update = FusedEpilogue::dequantize_only(h.scale * w.scale)
                            .with_row_offset(row_off)
                            .with_col_offset(col_off);
                        results.push(outputs(update, &acc));
                    }
                    // The aggregation epilogue's `min · degree` row offset,
                    // with and without the mean normalisation.
                    let row_offset: Vec<f32> = degrees.iter().map(|&d| zero * d).collect();
                    let aggregation =
                        FusedEpilogue::dequantize_only(h_scale).with_row_offset(row_offset);
                    results.push(outputs(aggregation.clone(), &acc));
                    let mean = degrees.iter().map(|&d| 1.0 / d.max(1.0)).collect();
                    results.push(outputs(aggregation.with_row_scale(mean), &acc));
                    results
                });
                assert_eq!(positive, negative, "other min {other_min}, scale {h_scale}");
            }
        }
        // The quantizer itself: `v - (+0)` and `v - (-0)` give the same code.
        for bits in [1, 2, 3, 8, 24, 32] {
            let [pos, neg] = [0.0f32, -0.0].map(|min| QuantParams {
                bits,
                min,
                scale: 0.5,
            });
            for v in [0.0f32, -0.0, 1e-45, -1e-45, 0.4, 0.5, 3.0, -2.0, 1e30] {
                assert_eq!(pos.quantize(v), neg.quantize(v), "{bits} bits, value {v}");
            }
        }
    }

    #[test]
    fn xavier_layer_has_right_shape() {
        let l = LayerParams::new_xavier(29, 16, 1);
        assert_eq!(l.in_dim(), 29);
        assert_eq!(l.out_dim(), 16);
        assert_eq!(l.bias.len(), 16);
        assert!(l.weight.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn model_params_chain_dimensions() {
        let m = GnnModelParams::new(128, 16, 40, 3, 7);
        assert_eq!(m.num_layers(), 3);
        assert_eq!(m.layers[0].in_dim(), 128);
        assert_eq!(m.output_dim(), 40);
        assert_eq!(m.layers[0].out_dim(), 16);
        assert_eq!(m.layers[1].in_dim(), 16);
        assert_eq!(m.layers[1].out_dim(), 16);
        assert_eq!(m.layers[2].in_dim(), 16);
    }

    #[test]
    fn single_layer_model_maps_input_to_classes() {
        let m = GnnModelParams::new(50, 64, 121, 1, 2);
        assert_eq!(m.layers[0].in_dim(), 50);
        assert_eq!(m.layers[0].out_dim(), 121);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layer_model_rejected() {
        let _ = GnnModelParams::new(10, 10, 2, 0, 0);
    }

    #[test]
    fn seeds_differentiate_models() {
        let a = GnnModelParams::new(8, 8, 2, 2, 1);
        let b = GnnModelParams::new(8, 8, 2, 2, 1);
        let c = GnnModelParams::new(8, 8, 2, 2, 99);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
