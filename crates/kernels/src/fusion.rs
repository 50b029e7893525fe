//! Inter-layer kernel fusion (paper §4.5).
//!
//! Between GNN layers, QGTC keeps data in the quantized domain: the GEMM epilogue
//! dequantizes the integer accumulator, applies the activation and (optionally) batch
//! normalization, then re-quantizes and bit-decomposes the result so the next layer
//! can consume it directly — all inside the same kernel, avoiding extra global-memory
//! round trips and kernel launches.  For the *output* layer the epilogue instead
//! produces full-precision values for the softmax head.
//!
//! On the host the epilogue is one row pass inside the GEMM and one pack.
//! [`crate::bmm::qgtc_bmm_with_epilogue`] hands the GEMM a row sink: the
//! kernel computes each block of finished rows into a per-thread scratch
//! block, and [`FusedEpilogue::row_block`] turns it, still in cache, into
//! `f32` rows — dequantize with the affine corrections, add the scaled addend,
//! apply the activation (and batch norm) — and folds the block into a
//! lane-wise [`ValueRange`].  Only the `f32` rows are written; the blocks'
//! ranges merge into the batch range that calibrates the re-quantization, and
//! one quantize-pack pass writes the planes and the code rowsums.  A
//! [`FusedEpilogue::pack`] re-quantizes values whose range a row pass already
//! produced, so no range scan runs twice over the same values.
//!
//! [`FusedEpilogue::apply`] runs the same row pass on a materialised accumulator
//! (the condensed aggregation and the tests), and [`FusedEpilogue::apply_dense`]
//! on values already dense (the dense-TC paths).  Each records the cost
//! difference between the fused and unfused execution (the unfused path pays
//! one extra kernel launch and a DRAM round trip per stage).

use qgtc_bitmat::fused::{PopcountBody, RowSink};
use qgtc_bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_tcsim::cost::CostTracker;
use qgtc_tensor::ops::BatchNormParams;
use qgtc_tensor::{Matrix, QuantParams, TensorError, ValueRange};
use std::cell::RefCell;
use std::mem::MaybeUninit;

/// Activation functions QGTC can fuse into the epilogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// No activation.
    #[default]
    None,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Apply the activation to every value of `row`, in place.
    #[inline(always)]
    fn apply_row(self, row: &mut [f32]) {
        match self {
            Activation::None => {}
            Activation::Relu => row.iter_mut().for_each(|v| *v = v.max(0.0)),
            Activation::Tanh => row.iter_mut().for_each(|v| *v = v.tanh()),
        }
    }
}

/// What the epilogue produces.
#[derive(Debug, Clone)]
pub enum EpilogueOutput {
    /// Full-precision activations (used by the final layer before softmax).
    Dense(Matrix<f32>),
    /// Re-quantized activations, bit-decomposed and packed for the next layer, plus
    /// the quantization parameters used.
    Quantized {
        /// The packed bit planes (column-packed: they become the next layer's `X`).
        stack: StackedBitMatrix,
        /// Quantization parameters of the re-quantized activations.
        params: QuantParams,
        /// Per-row sums of the re-quantized codes, computed during the
        /// quantize pass itself.  The next layer's affine corrections need
        /// exactly these sums, so returning them here keeps the forward pass
        /// from unpacking the stack it just packed.
        code_rowsums: Vec<i64>,
    },
}

impl EpilogueOutput {
    /// The quantized stack, if this output is quantized.
    pub fn as_quantized(&self) -> Option<&StackedBitMatrix> {
        match self {
            EpilogueOutput::Quantized { stack, .. } => Some(stack),
            EpilogueOutput::Dense(_) => None,
        }
    }

    /// The dense matrix, if this output is full precision.
    pub fn as_dense(&self) -> Option<&Matrix<f32>> {
        match self {
            EpilogueOutput::Dense(m) => Some(m),
            EpilogueOutput::Quantized { .. } => None,
        }
    }

    /// Consume the output as a dense matrix, if it is one.
    pub fn into_dense(self) -> Option<Matrix<f32>> {
        match self {
            EpilogueOutput::Dense(m) => Some(m),
            EpilogueOutput::Quantized { .. } => None,
        }
    }

    /// Consume the output as a quantized stack plus its parameters, if it is one.
    pub fn into_quantized(self) -> Option<(StackedBitMatrix, QuantParams)> {
        self.into_quantized_with_rowsums()
            .map(|(stack, params, _)| (stack, params))
    }

    /// Consume the output as a quantized stack, its parameters and the
    /// per-row code sums — the affine-correction inputs of the next layer,
    /// obtained without unpacking the stack.
    pub fn into_quantized_with_rowsums(self) -> Option<(StackedBitMatrix, QuantParams, Vec<i64>)> {
        match self {
            EpilogueOutput::Quantized {
                stack,
                params,
                code_rowsums,
            } => Some((stack, params, code_rowsums)),
            EpilogueOutput::Dense(_) => None,
        }
    }
}

/// Configuration of a fused GEMM epilogue.
#[derive(Debug, Clone)]
pub struct FusedEpilogue {
    /// Scale that maps integer accumulator values back to real activations
    /// (the product of the operand quantization scales).
    pub accumulator_scale: f32,
    /// Activation applied after dequantization.
    pub activation: Activation,
    /// Optional fused batch normalization (applied after the activation, as in the
    /// paper's Equation 8 folding).
    pub batch_norm: Option<BatchNormParams>,
    /// If `Some(bits)`, re-quantize to `bits` and bit-decompose for the next layer;
    /// if `None`, emit full-precision output (final layer).
    pub requantize_bits: Option<u32>,
    /// Packing layout of the re-quantized output: column-packed when the result is
    /// the next GEMM's right operand (e.g. features entering an aggregation),
    /// row-packed when it is the next GEMM's left operand (e.g. aggregated features
    /// entering the node update).
    pub output_layout: BitMatrixLayout,
    /// Whether the epilogue runs fused inside the GEMM kernel (`true`) or as
    /// standalone kernels (`false`); affects only cost accounting.  The models
    /// set it from `KernelConfig::fused_epilogue`.
    pub fused: bool,
    /// Optional per-row additive correction, applied to the dequantized value
    /// before `row_scale`: the home of the affine quantization corrections
    /// (`min_x · degree` after an aggregation, `min_w · s_h · rowsum(Hc)` after
    /// a node update).
    pub row_offset: Option<Vec<f32>>,
    /// Optional per-column additive correction, applied alongside `row_offset`:
    /// the layer bias plus the affine column-sum terms.
    pub col_offset: Option<Vec<f32>>,
    /// Optional per-row multiplier, applied after the offsets (e.g. the `1/deg`
    /// of a mean aggregation), before the activation.
    pub row_scale: Option<Vec<f32>>,
    /// Optional elementwise addend folded in after the affine stage and before
    /// the activation: `value += addend_scale · addend[i][j]`.  The home of
    /// GIN's `+ (1 + ε)·h` self term, which would otherwise need a standalone
    /// scale + add pass over the dense activations.
    pub addend: Option<Matrix<f32>>,
    /// Scale applied to `addend` (multiply-then-add per element, so the fused
    /// form is bitwise identical to a standalone `scale` followed by `add`).
    pub addend_scale: f32,
}

impl FusedEpilogue {
    /// An epilogue that only dequantizes (identity activation, full-precision output).
    pub fn dequantize_only(accumulator_scale: f32) -> Self {
        Self {
            accumulator_scale,
            activation: Activation::None,
            batch_norm: None,
            requantize_bits: None,
            output_layout: BitMatrixLayout::ColPacked,
            fused: true,
            row_offset: None,
            col_offset: None,
            row_scale: None,
            addend: None,
            addend_scale: 1.0,
        }
    }

    /// The hidden-layer epilogue used by the QGTC models: ReLU then re-quantize.
    pub fn hidden_layer(accumulator_scale: f32, bits: u32) -> Self {
        Self {
            activation: Activation::Relu,
            requantize_bits: Some(bits),
            ..Self::dequantize_only(accumulator_scale)
        }
    }

    /// A re-quantizing epilogue with no activation, packing its output for use as the
    /// *left* operand of the following GEMM (the aggregate → update hand-off).
    pub fn requantize_left_operand(accumulator_scale: f32, bits: u32) -> Self {
        Self {
            requantize_bits: Some(bits),
            output_layout: BitMatrixLayout::RowPacked,
            ..Self::dequantize_only(accumulator_scale)
        }
    }

    /// A re-quantizing epilogue with no activation, packing its output for use as
    /// the *right* operand of the following GEMM (the update → aggregate hand-off
    /// of the update-first models).
    pub fn requantize_right_operand(accumulator_scale: f32, bits: u32) -> Self {
        Self {
            requantize_bits: Some(bits),
            ..Self::dequantize_only(accumulator_scale)
        }
    }

    /// Set the per-row additive correction.
    pub fn with_row_offset(mut self, offsets: Vec<f32>) -> Self {
        self.row_offset = Some(offsets);
        self
    }

    /// Set the per-column additive correction.
    pub fn with_col_offset(mut self, offsets: Vec<f32>) -> Self {
        self.col_offset = Some(offsets);
        self
    }

    /// Set the per-row multiplier (applied after the offsets).
    pub fn with_row_scale(mut self, scales: Vec<f32>) -> Self {
        self.row_scale = Some(scales);
        self
    }

    /// Fold an elementwise scaled addend into the epilogue: after the affine
    /// stage, `value += scale · addend[i][j]` — multiply-then-add per element,
    /// bitwise identical to a standalone scale pass followed by an add pass.
    pub fn with_scaled_addend(mut self, addend: Matrix<f32>, scale: f32) -> Self {
        self.addend = Some(addend);
        self.addend_scale = scale;
        self
    }

    /// Set the packing layout of the re-quantized output.
    pub fn with_output_layout(mut self, layout: BitMatrixLayout) -> Self {
        self.output_layout = layout;
        self
    }

    /// Set whether the epilogue is charged as fused into the GEMM kernel or
    /// as standalone kernels.
    pub fn with_fused(mut self, fused: bool) -> Self {
        self.fused = fused;
        self
    }

    /// Check this epilogue against a `rows × cols` accumulator before any row
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics when a correction's length or the addend's shape does not match.
    ///
    /// # Errors
    ///
    /// A batch norm of another width is a `ShapeMismatch`.
    pub fn check(&self, rows: usize, cols: usize) -> Result<(), TensorError> {
        if let Some(offsets) = &self.row_offset {
            assert_eq!(offsets.len(), rows, "row-offset length");
        }
        if let Some(offsets) = &self.col_offset {
            assert_eq!(offsets.len(), cols, "col-offset length");
        }
        if let Some(scales) = &self.row_scale {
            assert_eq!(scales.len(), rows, "row-scale length");
        }
        self.check_dense(rows, cols)
    }

    /// The part of [`FusedEpilogue::check`] the dense entry needs: the addend
    /// shape and the batch-norm width.
    fn check_dense(&self, rows: usize, cols: usize) -> Result<(), TensorError> {
        if let Some(addend) = &self.addend {
            assert_eq!(addend.shape(), (rows, cols), "addend shape");
        }
        match &self.batch_norm {
            Some(bn) => bn.check((rows, cols)),
            None => Ok(()),
        }
    }

    /// Apply the epilogue to an integer accumulator matrix: dequantize with the
    /// affine corrections, then activation / batch norm / re-quantization.
    ///
    /// Cost model: the arithmetic itself is `O(rows × cols)` CUDA-core work in both
    /// modes; the unfused mode additionally writes the intermediate to DRAM, reads it
    /// back and launches one extra kernel per stage (activation / BN / quantize).
    ///
    /// Fails when a batch norm has the wrong width, and when re-quantizing
    /// activations that overflowed to ±inf (or whose range is wider than
    /// `f32`): those cannot be calibrated, and the error reports that instead
    /// of packing meaningless codes.
    pub fn apply(
        &self,
        accumulator: &Matrix<i64>,
        tracker: &CostTracker,
    ) -> Result<EpilogueOutput, TensorError> {
        Ok(self.apply_ranged(accumulator, tracker)?.0)
    }

    /// [`FusedEpilogue::apply`], also handing back the range of the values
    /// the row pass produced.
    pub(crate) fn apply_ranged(
        &self,
        accumulator: &Matrix<i64>,
        tracker: &CostTracker,
    ) -> Result<(EpilogueOutput, ValueRange), TensorError> {
        let (rows, cols) = accumulator.shape();
        self.check(rows, cols)?;
        let mut dense = Matrix::zeros(rows, cols);
        let range = self.row_block(0, cols, accumulator.data(), dense.data_mut());
        let output = self.finish(dense, &range, self.accumulator_flops(rows * cols), tracker)?;
        Ok((output, range))
    }

    /// Apply the epilogue's addend / activation / batch-norm / re-quantization
    /// stages to an already-dense activation matrix.
    ///
    /// This is the layer-transition entry for values that leave the accumulator
    /// domain before the epilogue (the dense-TC paths): the accumulator scale
    /// and the affine offsets do not apply, but the scaled addend (batched
    /// GIN's `+ (1+ε)·self` combine), the activation and the re-quantization
    /// run in the same row stages as [`FusedEpilogue::row_block`].  Takes the
    /// matrix by value — callers that still need the dense activations
    /// afterwards clone at the call site.  Fails exactly as
    /// [`FusedEpilogue::apply`] does.
    pub fn apply_dense(
        &self,
        mut dense: Matrix<f32>,
        tracker: &CostTracker,
    ) -> Result<EpilogueOutput, TensorError> {
        self.check_dense(dense.rows(), dense.cols())?;
        for i in 0..dense.rows() {
            self.activate_row(i, dense.row_mut(i));
        }
        let range = fold_range(dense.data(), PopcountBody::Avx512.is_available());
        let entry_flops = if self.addend.is_some() {
            2 * dense.len() as u64
        } else {
            0
        };
        self.finish(dense, &range, entry_flops, tracker)
    }

    /// Re-quantize `dense`, the output of a row pass that already produced
    /// its `range`: what [`FusedEpilogue::apply_dense`] returns and charges for
    /// values its row stages leave unchanged, without running them or
    /// scanning the range again.  The hand-off after a dense-output epilogue
    /// whose values the next GEMM needs packed (GIN's intra-layer and
    /// layer-transition re-quantizations).
    ///
    /// # Panics
    ///
    /// Panics unless the epilogue re-quantizes with no addend, activation or
    /// batch norm.
    pub fn pack(
        &self,
        dense: &Matrix<f32>,
        range: &ValueRange,
        tracker: &CostTracker,
    ) -> Result<EpilogueOutput, TensorError> {
        assert!(
            self.requantize_bits.is_some()
                && self.addend.is_none()
                && self.activation == Activation::None
                && self.batch_norm.is_none(),
            "pack re-quantizes values as they are"
        );
        Ok(self
            .charge_and_pack(dense, range, 0, tracker)?
            .expect("a re-quantizing epilogue packs"))
    }

    /// The row pass over one block of accumulator rows, `cols` wide, starting
    /// at output row `first_row`: each row of `acc` is dequantized with the
    /// affine corrections,
    /// `(acc · scale + row_offset[i] + col_offset[j]) · row_scale[i]`, takes
    /// the scaled addend, the activation and the batch norm, and is written to
    /// the same row of `out`.  Returns the range of the written values.
    ///
    /// The in-kernel epilogue runs this on every block of rows a GEMM
    /// finishes, and [`FusedEpilogue::apply`] on a whole materialised
    /// accumulator; the blocks' ranges merge into the whole output's.  On
    /// hosts that can run the AVX-512 body, the `i64`→`f32` conversion and the
    /// range fold use AVX-512; neither does float arithmetic, so the bits are
    /// the same either way.
    ///
    /// # Panics
    ///
    /// Panics when the corrections or the addend do not cover the block's rows
    /// and columns (see [`FusedEpilogue::check`]) or `out` and `acc` differ in
    /// length.
    pub fn row_block(
        &self,
        first_row: usize,
        cols: usize,
        acc: &[i64],
        out: &mut [f32],
    ) -> ValueRange {
        assert_eq!(out.len(), acc.len(), "row pass output length");
        if cols == 0 {
            return ValueRange::default();
        }
        let packed = PopcountBody::Avx512.is_available();
        let scale = self.accumulator_scale;
        for (local, (acc_row, row)) in acc
            .chunks_exact(cols)
            .zip(out.chunks_exact_mut(cols))
            .enumerate()
        {
            let i = first_row + local;
            let row_offset = self.row_offset.as_ref().map_or(0.0, |o| o[i]);
            let row_scale = self.row_scale.as_ref().map_or(1.0, |s| s[i]);
            convert_row(acc_row, row, packed);
            // An absent correction still adds 0.0 (or multiplies by 1.0), so
            // the expression is the same whichever corrections are present.
            match &self.col_offset {
                Some(col_offset) => {
                    for (slot, &col_offset) in row.iter_mut().zip(col_offset) {
                        *slot = (*slot * scale + row_offset + col_offset) * row_scale;
                    }
                }
                None => {
                    for slot in row.iter_mut() {
                        *slot = (*slot * scale + row_offset + 0.0) * row_scale;
                    }
                }
            }
            self.activate_row(i, row);
        }
        fold_range(out, packed)
    }

    /// The row stages after the dequantize, shared by both entries: the
    /// scaled addend (multiply-then-add per element), the activation and the
    /// batch norm, in that order.
    #[inline(always)]
    fn activate_row(&self, i: usize, row: &mut [f32]) {
        if let Some(addend) = &self.addend {
            for (slot, &a) in row.iter_mut().zip(addend.row(i)) {
                *slot += self.addend_scale * a;
            }
        }
        self.activation.apply_row(row);
        if let Some(bn) = &self.batch_norm {
            bn.apply_row(row);
        }
    }

    /// The flops the accumulator entry charges before the row stages: the
    /// dequantize, one pass per present correction and the addend's multiply
    /// and add.
    pub(crate) fn accumulator_flops(&self, elems: usize) -> u64 {
        let elems = elems as u64;
        let mut flops = elems;
        for present in [&self.row_offset, &self.col_offset, &self.row_scale] {
            if present.is_some() {
                flops += elems;
            }
        }
        if self.addend.is_some() {
            flops += 2 * elems; // one multiply and one add per element
        }
        flops
    }

    /// Finish a row pass over `dense` whose range is `range`: charge it
    /// (`entry_flops` is what its entry charged before the row stages), then
    /// re-quantize or hand the dense values back.
    pub(crate) fn finish(
        &self,
        dense: Matrix<f32>,
        range: &ValueRange,
        entry_flops: u64,
        tracker: &CostTracker,
    ) -> Result<EpilogueOutput, TensorError> {
        Ok(self
            .charge_and_pack(&dense, range, entry_flops, tracker)?
            .unwrap_or(EpilogueOutput::Dense(dense)))
    }

    /// Charge a row pass over `dense` and, for a re-quantizing epilogue,
    /// calibrate from `range` and run the one quantize-pack pass that writes
    /// the planes and the code rowsums.  `None` for a dense-output epilogue.
    /// Also charges the unfused execution's extra launches and DRAM traffic.
    fn charge_and_pack(
        &self,
        dense: &Matrix<f32>,
        range: &ValueRange,
        entry_flops: u64,
        tracker: &CostTracker,
    ) -> Result<Option<EpilogueOutput>, TensorError> {
        let elems = dense.len() as u64;
        let mut stages = 1u64; // dequantize (or combine) + activation is one stage
        tracker.record_fp32_flops(entry_flops + elems);
        if self.batch_norm.is_some() {
            tracker.record_fp32_flops(4 * elems);
            stages += 1;
        }

        let output = match self.requantize_bits {
            None => None,
            Some(bits) => {
                // One pass: quantize, pack and sum the codes per row — the
                // rowsums feed the next GEMM's affine correction.
                let (min, max) = range.bounds();
                let params = QuantParams::from_range(bits, min, max)?;
                let (stack, code_rowsums) = StackedBitMatrix::quantize_pack_in(
                    dense,
                    params,
                    self.output_layout,
                    &mut Vec::new(),
                );
                tracker.record_int_ops(elems * bits as u64);
                stages += 1;
                Some(EpilogueOutput::Quantized {
                    stack,
                    params,
                    code_rowsums,
                })
            }
        };

        if !self.fused {
            // Unfused execution: each stage is a standalone kernel with a DRAM
            // round trip of the intermediate activations.
            let bytes = elems * 4;
            for _ in 0..stages {
                tracker.record_kernel_launch((dense.rows() as u64).div_ceil(4).max(1));
                tracker.record_dram_write(bytes);
                tracker.record_dram_read(bytes);
            }
        }
        Ok(output)
    }
}

/// `row[j] = acc[j] as f32`, with AVX-512DQ's packed conversion when `packed`
/// (which rounds as the scalar conversion does).
#[inline]
fn convert_row(acc: &[i64], row: &mut [f32], packed: bool) {
    #[cfg(target_arch = "x86_64")]
    if packed {
        // SAFETY: `packed` is the AVX-512 body's availability, which covers
        // `avx512f` and `avx512dq`.
        unsafe { convert_row_avx512(acc, row) };
        return;
    }
    let _ = packed;
    for (slot, &a) in row.iter_mut().zip(acc) {
        *slot = a as f32;
    }
}

/// [`convert_row`] compiled for AVX-512.
///
/// # Safety
///
/// The host must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn convert_row_avx512(acc: &[i64], row: &mut [f32]) {
    for (slot, &a) in row.iter_mut().zip(acc) {
        *slot = a as f32;
    }
}

/// The [`ValueRange`] of `values`, compiled for AVX-512 when `packed`.  Its
/// compare-and-select has one result whatever instructions run it, so both
/// builds return the same range.
#[inline]
pub(crate) fn fold_range(values: &[f32], packed: bool) -> ValueRange {
    #[cfg(target_arch = "x86_64")]
    if packed {
        // SAFETY: as in `convert_row`.
        return unsafe { fold_range_avx512(values) };
    }
    let _ = packed;
    ValueRange::of(values)
}

/// [`fold_range`] compiled for AVX-512.
///
/// # Safety
///
/// The host must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn fold_range_avx512(values: &[f32]) -> ValueRange {
    ValueRange::of(values)
}

thread_local! {
    /// The per-thread blocks the in-kernel epilogue works in, reused across
    /// blocks and calls: the accumulators the GEMM computes and the `f32`
    /// rows the row pass makes of them.
    static SCRATCH: RefCell<(Vec<MaybeUninit<i64>>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The in-kernel epilogue: the GEMM computes each block of finished rows into
/// this thread's scratch block, [`FusedEpilogue::row_block`] turns it into
/// the block's `f32` rows and value range in a second scratch block (its
/// stages read what the earlier ones wrote, so they run on initialised
/// memory), and the rows are written once into the output, which therefore
/// need not be initialised.  No `m × n` accumulator matrix exists.
pub(crate) struct RowPassSink<'a> {
    /// The epilogue to run.
    pub epilogue: &'a FusedEpilogue,
    /// Output columns.
    pub cols: usize,
}

impl RowSink for RowPassSink<'_> {
    type Elem = MaybeUninit<f32>;
    type Block = ValueRange;

    /// Writes every element of `out`.
    fn block<F: FnOnce(&mut [MaybeUninit<i64>])>(
        &self,
        first_row: usize,
        out: &mut [MaybeUninit<f32>],
        compute: F,
    ) -> ValueRange {
        SCRATCH.with_borrow_mut(|(acc_block, row_block)| {
            if acc_block.len() < out.len() {
                acc_block.resize(out.len(), MaybeUninit::uninit());
                row_block.resize(out.len(), 0.0);
            }
            let acc = &mut acc_block[..out.len()];
            compute(acc);
            // SAFETY: `compute` wrote every element of `acc` (`RowSink::block`'s
            // contract), and `MaybeUninit<i64>` has the layout of `i64`.
            let acc = unsafe { &*(acc as *const [MaybeUninit<i64>] as *const [i64]) };
            let rows = &mut row_block[..out.len()];
            let range = self.epilogue.row_block(first_row, self.cols, acc, rows);
            for (slot, &value) in out.iter_mut().zip(rows.iter()) {
                slot.write(value);
            }
            range
        })
    }

    fn merge(earlier: &mut ValueRange, later: ValueRange) {
        earlier.merge(&later);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_tensor::ops::relu;

    fn accumulator() -> Matrix<i64> {
        Matrix::from_vec(2, 3, vec![-4, 0, 2, 10, -1, 6]).unwrap()
    }

    #[test]
    fn dequantize_only_scales_values() {
        let tracker = CostTracker::new();
        let out = FusedEpilogue::dequantize_only(0.5)
            .apply(&accumulator(), &tracker)
            .unwrap();
        let dense = out.as_dense().unwrap();
        assert_eq!(dense[(0, 0)], -2.0);
        assert_eq!(dense[(1, 0)], 5.0);
        assert!(out.as_quantized().is_none());
    }

    #[test]
    fn relu_epilogue_matches_standalone_relu() {
        let tracker = CostTracker::new();
        let mut ep = FusedEpilogue::dequantize_only(1.0);
        ep.activation = Activation::Relu;
        let out = ep.apply(&accumulator(), &tracker).unwrap();
        let expected = relu(&accumulator().to_f32());
        assert_eq!(out.as_dense().unwrap(), &expected);
    }

    #[test]
    fn tanh_epilogue_is_bounded() {
        let tracker = CostTracker::new();
        let mut ep = FusedEpilogue::dequantize_only(1.0);
        ep.activation = Activation::Tanh;
        let out = ep.apply(&accumulator(), &tracker).unwrap();
        assert!(out
            .as_dense()
            .unwrap()
            .data()
            .iter()
            .all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn hidden_layer_epilogue_requantizes_and_decomposes() {
        let tracker = CostTracker::new();
        let ep = FusedEpilogue::hidden_layer(0.1, 4);
        let out = ep.apply(&accumulator(), &tracker).unwrap();
        let stack = out
            .as_quantized()
            .expect("hidden layer output is quantized");
        assert_eq!(stack.bits(), 4);
        assert_eq!(stack.rows(), 2);
        assert_eq!(stack.cols(), 3);
        assert_eq!(stack.layout(), BitMatrixLayout::ColPacked);
        // Codes must decode to something within one quantization bucket of the ReLU'd values.
        let params = match out {
            EpilogueOutput::Quantized { params, .. } => params,
            _ => unreachable!(),
        };
        let codes = stack.to_codes();
        for r in 0..2 {
            for c in 0..3 {
                let original = (accumulator()[(r, c)] as f32 * 0.1).max(0.0);
                let decoded = params.dequantize(codes[(r, c)]);
                assert!(
                    (original - decoded).abs() <= params.scale,
                    "({r},{c}): {original} vs {decoded}"
                );
            }
        }
    }

    #[test]
    fn affine_corrections_follow_the_documented_formula() {
        let tracker = CostTracker::new();
        let ep = FusedEpilogue::dequantize_only(0.5)
            .with_row_offset(vec![10.0, 20.0])
            .with_col_offset(vec![1.0, 2.0, 3.0])
            .with_row_scale(vec![0.1, 10.0]);
        let out = ep.apply(&accumulator(), &tracker).unwrap();
        let dense = out.as_dense().unwrap();
        // dense[i][j] = (acc * 0.5 + row_offset[i] + col_offset[j]) * row_scale[i]
        assert_eq!(dense[(0, 0)], (-4.0 * 0.5 + 10.0 + 1.0) * 0.1);
        assert_eq!(dense[(0, 2)], (2.0 * 0.5 + 10.0 + 3.0) * 0.1);
        assert_eq!(dense[(1, 1)], (-0.5 + 20.0 + 2.0) * 10.0);
        // Base dequantize + activation (2 passes) plus one pass per correction.
        assert_eq!(tracker.snapshot().cuda_fp32_flops, 5 * 6);
    }

    #[test]
    fn apply_dense_requantizes_without_rescaling() {
        let tracker = CostTracker::new();
        let dense = Matrix::from_vec(2, 2, vec![-1.0f32, 0.5, 2.0, 4.0]).unwrap();
        let ep = FusedEpilogue::hidden_layer(123.0, 4); // scale must be ignored
        let (stack, params) = ep
            .apply_dense(dense.clone(), &tracker)
            .unwrap()
            .into_quantized()
            .expect("requantizing epilogue");
        assert_eq!(stack.bits(), 4);
        let codes = stack.to_codes();
        for r in 0..2 {
            for c in 0..2 {
                let relu = dense[(r, c)].max(0.0);
                let decoded = params.min + codes[(r, c)] as f32 * params.scale;
                assert!(
                    (relu - decoded).abs() <= params.scale,
                    "({r},{c}): {relu} vs {decoded}"
                );
            }
        }
    }

    #[test]
    fn mismatched_correction_lengths_are_rejected() {
        let ep = FusedEpilogue::dequantize_only(1.0).with_row_offset(vec![0.0; 5]);
        let result = std::panic::catch_unwind(|| ep.apply(&accumulator(), &CostTracker::new()));
        assert!(result.is_err(), "2-row accumulator, 5 row offsets");
    }

    #[test]
    fn dead_relu_batch_requantizes_to_a_valid_zero_stack() {
        // Regression: an all-zero hidden activation matrix (every ReLU dead, or
        // an all-negative accumulator) must calibrate to the degenerate range
        // and produce an all-zero stack — not panic in `Quantizer::calibrate`.
        let tracker = CostTracker::new();
        let all_negative = Matrix::from_vec(2, 3, vec![-5i64, -4, -3, -2, -1, -6]).unwrap();
        let ep = FusedEpilogue::hidden_layer(1.0, 3);
        let (stack, params) = ep
            .apply(&all_negative, &tracker)
            .unwrap()
            .into_quantized()
            .expect("requantizing epilogue");
        assert_eq!(stack.bits(), 3);
        assert!(stack.to_codes().data().iter().all(|&c| c == 0));
        assert!(params.scale.is_finite() && params.scale > 0.0);
        assert_eq!(params.min, 0.0);

        // The dense-entry path (the GIN layer transition) hits the same edge.
        let zeros: Matrix<f32> = Matrix::zeros(4, 4);
        let (stack, params) = FusedEpilogue::requantize_right_operand(1.0, 2)
            .apply_dense(zeros, &tracker)
            .unwrap()
            .into_quantized()
            .expect("requantizing epilogue");
        assert!(stack.to_codes().data().iter().all(|&c| c == 0));
        assert!(params.scale.is_finite());
    }

    #[test]
    fn quantized_output_carries_the_code_rowsums() {
        let tracker = CostTracker::new();
        let ep = FusedEpilogue::hidden_layer(0.1, 4);
        let (stack, _, rowsums) = ep
            .apply(&accumulator(), &tracker)
            .unwrap()
            .into_quantized_with_rowsums()
            .expect("requantizing epilogue");
        let codes = stack.to_codes();
        let expected: Vec<i64> = (0..codes.rows())
            .map(|i| codes.row(i).iter().map(|&c| c as i64).sum())
            .collect();
        assert_eq!(rowsums, expected);
        assert_eq!(rowsums.len(), 2);
    }

    #[test]
    fn zero_row_scale_zeroes_the_row_exactly() {
        // Boundary pin: a 0.0 row multiplier wipes the row to exact zeros —
        // offsets included — rather than leaving tiny residuals behind.
        let tracker = CostTracker::new();
        let ep = FusedEpilogue::dequantize_only(1.0)
            .with_row_offset(vec![3.0, 3.0])
            .with_row_scale(vec![0.0, 1.0]);
        let out = ep.apply(&accumulator(), &tracker).unwrap();
        let dense = out.as_dense().unwrap();
        assert!(dense.row(0).iter().all(|&v| v == 0.0));
        assert_eq!(dense[(1, 0)], 13.0); // (10 + 3) * 1
    }

    #[test]
    fn all_zero_row_scales_requantize_to_the_degenerate_range() {
        // Boundary pin: every row scaled by 0.0 leaves an all-zero matrix,
        // which must calibrate to the degenerate range (scale 1.0, min 0.0)
        // and produce all-zero codes and rowsums — not panic or emit NaNs.
        let tracker = CostTracker::new();
        let ep = FusedEpilogue::requantize_right_operand(1.0, 3).with_row_scale(vec![0.0, 0.0]);
        let (stack, params, rowsums) = ep
            .apply(&accumulator(), &tracker)
            .unwrap()
            .into_quantized_with_rowsums()
            .expect("requantizing epilogue");
        assert_eq!(params.scale, 1.0);
        assert_eq!(params.min, 0.0);
        assert!(stack.to_codes().data().iter().all(|&c| c == 0));
        assert_eq!(rowsums, vec![0, 0]);
    }

    #[test]
    fn saturating_row_offset_pins_the_row_to_the_top_code() {
        // Boundary pin: an f32::MAX row offset saturates the row's dense
        // values to f32::MAX (float rounding absorbs the accumulator), so the
        // calibrated range spans up to f32::MAX, the saturated row lands on
        // the top code, and the un-offset row collapses to code 0.
        let tracker = CostTracker::new();
        let ep =
            FusedEpilogue::requantize_right_operand(1.0, 3).with_row_offset(vec![f32::MAX, 0.0]);
        let (stack, params, _) = ep
            .apply(&accumulator(), &tracker)
            .unwrap()
            .into_quantized_with_rowsums()
            .expect("requantizing epilogue");
        assert!(params.scale.is_finite() && params.scale > 0.0);
        let codes = stack.to_codes();
        assert!(codes.row(0).iter().all(|&c| c == 7), "row 0: {codes:?}");
        assert!(codes.row(1).iter().all(|&c| c == 0), "row 1: {codes:?}");
    }

    #[test]
    fn uniformly_saturated_input_requantizes_to_code_zero() {
        // Boundary pin: when every entry saturates to the same f32::MAX, the
        // range degenerates (scale 1.0) and all codes are 0 with min = MAX.
        let tracker = CostTracker::new();
        let ep = FusedEpilogue::requantize_right_operand(1.0, 2)
            .with_row_offset(vec![f32::MAX, f32::MAX]);
        let (stack, params, rowsums) = ep
            .apply(&accumulator(), &tracker)
            .unwrap()
            .into_quantized_with_rowsums()
            .expect("requantizing epilogue");
        assert_eq!(params.scale, 1.0);
        assert_eq!(params.min, f32::MAX);
        assert!(stack.to_codes().data().iter().all(|&c| c == 0));
        assert_eq!(rowsums, vec![0, 0]);
    }

    #[test]
    fn overflowing_offset_sum_saturates_to_infinity_without_panicking() {
        // Boundary pin: f32::MAX row and column offsets overflow to +inf in
        // the dense (non-requantizing) output — documented saturation, no
        // panic.
        let tracker = CostTracker::new();
        let ep = FusedEpilogue::dequantize_only(1.0)
            .with_row_offset(vec![f32::MAX, f32::MAX])
            .with_col_offset(vec![f32::MAX, f32::MAX, f32::MAX]);
        let out = ep.apply(&accumulator(), &tracker).unwrap();
        let dense = out.as_dense().unwrap();
        assert!(dense.data().iter().all(|&v| v == f32::INFINITY));
    }

    #[test]
    fn overflowed_activations_fail_to_requantize_with_a_typed_error() {
        // The same overflow on a re-quantizing epilogue has no valid range:
        // a typed error, never a panic or a stack of meaningless codes.
        let tracker = CostTracker::new();
        let ep = FusedEpilogue::requantize_right_operand(1.0, 2)
            .with_row_offset(vec![f32::MAX, f32::MAX])
            .with_col_offset(vec![f32::MAX, f32::MAX, f32::MAX]);
        let err = ep.apply(&accumulator(), &tracker).unwrap_err();
        assert!(matches!(err, TensorError::NonFiniteRange { .. }), "{err}");
        // Finite activations whose range is wider than f32 fail alike.
        let wide = Matrix::from_vec(1, 2, vec![-2e38f32, 2e38]).unwrap();
        let err = FusedEpilogue::requantize_right_operand(1.0, 2)
            .apply_dense(wide, &tracker)
            .unwrap_err();
        assert!(matches!(err, TensorError::NonFiniteRange { .. }), "{err}");
    }

    #[test]
    fn nan_activations_fail_to_requantize_with_a_typed_error() {
        // NaN with no infinity beside it (an `inf - inf` upstream) has no
        // range either: calibrating past it would turn every NaN into code 0.
        let tracker = CostTracker::new();
        let dense = Matrix::from_vec(2, 2, vec![0.5f32, f32::NAN, -1.0, 2.0]).unwrap();
        let err = FusedEpilogue::requantize_right_operand(1.0, 2)
            .apply_dense(dense, &tracker)
            .unwrap_err();
        assert!(matches!(err, TensorError::NonFiniteRange { .. }), "{err}");
    }

    #[test]
    fn scaled_addend_matches_the_standalone_scale_add_composition() {
        // The fused `+ s·addend` must be bitwise identical to the unfused
        // ops::scale + ops::add composition it replaces (GIN's self term).
        use qgtc_tensor::ops;
        let addend = Matrix::from_vec(2, 3, vec![0.3f32, -1.7, 2.5, 0.0, 4.2, -0.01]).unwrap();
        let eps_scale = 1.0 + 0.37f32;

        let fused_tracker = CostTracker::new();
        let fused = FusedEpilogue::dequantize_only(0.25)
            .with_row_offset(vec![1.5, -2.0])
            .with_scaled_addend(addend.clone(), eps_scale)
            .apply(&accumulator(), &fused_tracker)
            .unwrap()
            .into_dense()
            .unwrap();

        let unfused_tracker = CostTracker::new();
        let base = FusedEpilogue::dequantize_only(0.25)
            .with_row_offset(vec![1.5, -2.0])
            .apply(&accumulator(), &unfused_tracker)
            .unwrap()
            .into_dense()
            .unwrap();
        let unfused = ops::add(&base, &ops::scale(&addend, eps_scale)).unwrap();
        unfused_tracker.record_fp32_flops(2 * unfused.len() as u64);

        assert_eq!(fused, unfused, "fused addend must be bitwise identical");
        assert_eq!(
            fused_tracker.snapshot().cuda_fp32_flops,
            unfused_tracker.snapshot().cuda_fp32_flops,
            "the fused form charges the same arithmetic"
        );
    }

    #[test]
    fn mismatched_addend_shape_is_rejected() {
        let ep = FusedEpilogue::dequantize_only(1.0).with_scaled_addend(Matrix::zeros(3, 3), 1.0);
        let result = std::panic::catch_unwind(|| ep.apply(&accumulator(), &CostTracker::new()));
        assert!(result.is_err(), "2x3 accumulator, 3x3 addend");
    }

    #[test]
    fn dense_entry_applies_the_scaled_addend_bitwise() {
        // The dense entry's fused `+ s·addend` (GIN's self term on the
        // dense-TC path) must be bitwise identical to the unfused
        // ops::scale + ops::add + relu composition it replaces.
        use qgtc_tensor::ops;
        let aggregated = Matrix::from_vec(2, 3, vec![0.5f32, -2.0, 1.25, 3.0, -0.75, 0.0]).unwrap();
        let updated = Matrix::from_vec(2, 3, vec![0.3f32, -1.7, 2.5, 0.0, 4.2, -0.01]).unwrap();
        let eps_scale = 1.0 + 0.37f32;

        let fused_tracker = CostTracker::new();
        let mut ep =
            FusedEpilogue::dequantize_only(1.0).with_scaled_addend(updated.clone(), eps_scale);
        ep.activation = Activation::Relu;
        let fused = ep
            .apply_dense(aggregated.clone(), &fused_tracker)
            .unwrap()
            .into_dense()
            .unwrap();

        let unfused = relu(&ops::add(&aggregated, &ops::scale(&updated, eps_scale)).unwrap());
        assert_eq!(
            fused, unfused,
            "fused dense addend must be bitwise identical"
        );
        // One multiply + one add per element for the combine, one for the ReLU.
        assert_eq!(
            fused_tracker.snapshot().cuda_fp32_flops,
            3 * fused.len() as u64
        );
    }

    #[test]
    fn dense_entry_rejects_a_mismatched_addend() {
        let ep = FusedEpilogue::requantize_right_operand(1.0, 2)
            .with_scaled_addend(Matrix::zeros(3, 3), 1.0);
        let result =
            std::panic::catch_unwind(|| ep.apply_dense(Matrix::zeros(2, 2), &CostTracker::new()));
        assert!(result.is_err(), "2x2 dense input, 3x3 addend");
    }

    #[test]
    fn batch_norm_fusion_applies_normalisation() {
        let tracker = CostTracker::new();
        let mut ep = FusedEpilogue::dequantize_only(1.0);
        ep.batch_norm = Some(BatchNormParams {
            gamma: vec![2.0, 2.0, 2.0],
            beta: vec![1.0, 1.0, 1.0],
            mean: vec![0.0, 0.0, 0.0],
            var: vec![1.0, 1.0, 1.0],
            eps: 0.0,
        });
        let out = ep.apply(&accumulator(), &tracker).unwrap();
        let dense = out.as_dense().unwrap();
        // value * 2 + 1 for each accumulator entry.
        assert_eq!(dense[(0, 2)], 5.0);
        assert_eq!(dense[(1, 1)], -1.0);
    }

    #[test]
    fn batch_norm_of_the_wrong_width_is_a_typed_error() {
        let mut ep = FusedEpilogue::hidden_layer(1.0, 2);
        ep.batch_norm = Some(BatchNormParams::identity(2));
        let expected = TensorError::ShapeMismatch {
            op: "batch_norm".into(),
            lhs: (2, 3),
            rhs: (1, 2),
        };
        assert_eq!(ep.check(2, 3), Err(expected.clone()));
        let err = ep.apply(&accumulator(), &CostTracker::new()).unwrap_err();
        assert_eq!(err, expected);
        let err = ep
            .apply_dense(Matrix::zeros(2, 3), &CostTracker::new())
            .unwrap_err();
        assert_eq!(err, expected);
    }

    #[test]
    fn row_blocks_merge_into_the_whole_accumulators_pass() {
        // The in-kernel epilogue runs the row pass block by block; the rows
        // and the merged range must equal one pass over the whole matrix.
        let acc = Matrix::from_vec(5, 3, (0..15).map(|v| v * 7 - 40).collect()).unwrap();
        let mut ep = FusedEpilogue::dequantize_only(0.5)
            .with_row_offset(vec![1.0, -2.0, 3.0, 0.5, -0.25])
            .with_col_offset(vec![0.1, 0.2, -0.3])
            .with_scaled_addend(Matrix::filled(5, 3, 0.75), 2.0);
        ep.activation = Activation::Tanh;
        let mut whole = vec![0.0; 15];
        let whole_range = ep.row_block(0, 3, acc.data(), &mut whole);
        let mut blocks = vec![0.0; 15];
        let (top, bottom) = blocks.split_at_mut(6);
        let mut range = ep.row_block(0, 3, &acc.data()[..6], top);
        range.merge(&ep.row_block(2, 3, &acc.data()[6..], bottom));
        assert_eq!(blocks, whole);
        assert_eq!(range.bounds(), whole_range.bounds());
        assert_eq!(
            whole_range.bounds(),
            Matrix::from_vec(5, 3, whole).unwrap().min_max()
        );
    }

    #[test]
    fn pack_reuses_the_row_pass_range() {
        let tracker = CostTracker::new();
        let dense = Matrix::from_vec(2, 2, vec![-1.0f32, 0.5, 2.0, 4.0]).unwrap();
        let ep = FusedEpilogue::requantize_left_operand(1.0, 3);
        let packed = ep
            .pack(&dense, &ValueRange::of(dense.data()), &tracker)
            .unwrap();
        let dense_tracker = CostTracker::new();
        let applied = ep.apply_dense(dense, &dense_tracker).unwrap();
        let (packed, applied) = (
            packed.into_quantized_with_rowsums().unwrap(),
            applied.into_quantized_with_rowsums().unwrap(),
        );
        assert_eq!(packed, applied);
        assert_eq!(tracker.snapshot(), dense_tracker.snapshot());
    }

    #[test]
    #[should_panic(expected = "pack re-quantizes values as they are")]
    fn pack_refuses_an_epilogue_with_row_stages() {
        let dense = Matrix::zeros(2, 2);
        let _ = FusedEpilogue::hidden_layer(1.0, 2).pack(
            &dense,
            &ValueRange::default(),
            &CostTracker::new(),
        );
    }

    #[test]
    fn unfused_execution_costs_extra_launches_and_traffic() {
        let fused_tracker = CostTracker::new();
        let unfused_tracker = CostTracker::new();
        let mut fused = FusedEpilogue::hidden_layer(1.0, 2);
        fused.fused = true;
        let mut unfused = fused.clone();
        unfused.fused = false;

        let _ = fused.apply(&accumulator(), &fused_tracker).unwrap();
        let _ = unfused.apply(&accumulator(), &unfused_tracker).unwrap();
        let f = fused_tracker.snapshot();
        let u = unfused_tracker.snapshot();
        assert_eq!(f.kernel_launches, 0, "fused epilogue rides the GEMM launch");
        assert!(u.kernel_launches >= 2);
        assert!(u.dram_bytes() > f.dram_bytes());
        // The arithmetic is identical.
        assert_eq!(f.cuda_fp32_flops, u.cuda_fp32_flops);
    }
}
