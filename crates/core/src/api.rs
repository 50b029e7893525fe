//! Bit-Tensor computation entry points (paper §5).
//!
//! The PyTorch extension exposes two GEMM APIs over bit tensors:
//!
//! * `bitMM2Int(C, A, B, bit_A, bit_B)` — any-bitwidth matrix multiplication whose
//!   output is an ordinary `int32` tensor ([`bit_mm_to_int`]);
//! * `bitMM2Bit(C, A, B, bit_A, bit_B, bit_C)` — the same product re-quantized to
//!   `bit_C` bits and returned as another bit tensor ([`bit_mm_to_bit`]), the form
//!   used between hidden layers.
//!
//! Both run the QGTC kernels, so they exercise zero-tile jumping and tile reuse, and
//! both record their work when handed a [`CostTracker`].  Bit tensors carry
//! 1 to 32 bits, but the kernel accumulates in `i64`: a product whose
//! `a_bits + b_bits + ⌈log2 K⌉` exceeds 63 could wrap, so both return
//! [`QgtcError::AccumulatorOverflow`] for it instead of a wrong answer.

use crate::bit_tensor::BitTensor;
use crate::fault::QgtcError;
use qgtc_kernels::bmm::{accumulator_fits, qgtc_bitmm2int, KernelConfig};
use qgtc_kernels::fusion::FusedEpilogue;
use qgtc_tcsim::cost::CostTracker;
use qgtc_tensor::{Matrix, QuantParams};

/// `bitMM2Int`: multiply two bit tensors and return the integer accumulator matrix.
///
/// The left operand must be row-packed and the right operand column-packed (the
/// layouts `to_bit` produces for left/right operands respectively).  Fails with
/// [`QgtcError::AccumulatorOverflow`] when the product could overflow `i64`.
pub fn bit_mm_to_int(
    a: &BitTensor,
    b: &BitTensor,
    config: &KernelConfig,
    tracker: &CostTracker,
) -> Result<Matrix<i64>, QgtcError> {
    let k = a.stack().cols();
    if !accumulator_fits(a.bits(), b.bits(), k) {
        return Err(QgtcError::AccumulatorOverflow {
            a_bits: a.bits(),
            b_bits: b.bits(),
            k,
        });
    }
    Ok(qgtc_bitmm2int(a.stack(), b.stack(), config, tracker))
}

/// `bitMM2Bit`: multiply two bit tensors and re-quantize the result to `out_bits`,
/// returning a new (column-packed) bit tensor plus its quantization parameters.
///
/// The re-quantization runs through the same [`FusedEpilogue`] the models use
/// between layers, so this API has no quantize site of its own — the
/// one-quantize-site-per-transition invariant of the quantized data path holds
/// for the framework-facing entry points too.  Fails like [`bit_mm_to_int`].
pub fn bit_mm_to_bit(
    a: &BitTensor,
    b: &BitTensor,
    out_bits: u32,
    config: &KernelConfig,
    tracker: &CostTracker,
) -> Result<(BitTensor, QuantParams), QgtcError> {
    let accumulator = bit_mm_to_int(a, b, config, tracker)?;
    let epilogue = FusedEpilogue::requantize_right_operand(1.0, out_bits);
    let (stack, params) = epilogue
        .apply(&accumulator, tracker)
        .expect("an i64 accumulator at scale 1 always has a finite range")
        .into_quantized()
        .expect("requantizing epilogue");
    Ok((BitTensor::from_stack(stack), params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_bitmat::BitMatrixLayout;
    use qgtc_tensor::gemm::gemm_i64;
    use qgtc_tensor::rng::random_uniform_matrix;

    fn codes(rows: usize, cols: usize, bits: u32, seed: u64) -> Matrix<u32> {
        let max = (1u64 << bits) as f32;
        random_uniform_matrix(rows, cols, 0.0, max, seed)
            .map(|&v| (v as u32).min((1u32 << bits) - 1))
    }

    #[test]
    fn bit_mm_to_int_matches_integer_gemm() {
        let a_codes = codes(10, 130, 3, 1);
        let b_codes = codes(130, 7, 2, 2);
        let a = BitTensor::from_codes(&a_codes, 3, BitMatrixLayout::RowPacked);
        let b = BitTensor::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked);
        let out = bit_mm_to_int(&a, &b, &KernelConfig::default(), &CostTracker::new()).unwrap();
        let reference = gemm_i64(&a_codes.map(|&v| v as i64), &b_codes.map(|&v| v as i64));
        assert_eq!(out, reference);
    }

    #[test]
    fn overflowing_bitwidths_are_a_typed_error() {
        let max = |rows, cols| Matrix::from_vec(rows, cols, vec![u32::MAX; rows * cols]).unwrap();
        let a = BitTensor::from_codes(&max(4, 128), 32, BitMatrixLayout::RowPacked);
        let b = BitTensor::from_codes(&max(128, 4), 32, BitMatrixLayout::ColPacked);
        let config = KernelConfig::default();
        let tracker = CostTracker::new();
        let expected = QgtcError::AccumulatorOverflow {
            a_bits: 32,
            b_bits: 32,
            k: 128,
        };
        assert_eq!(
            bit_mm_to_int(&a, &b, &config, &tracker),
            Err(expected.clone())
        );
        assert_eq!(
            bit_mm_to_bit(&a, &b, 4, &config, &tracker).map(|_| ()),
            Err(expected)
        );
        assert_eq!(tracker.snapshot().tc_b1_tiles, 0, "nothing ran");
    }

    #[test]
    fn the_widest_fitting_product_is_still_exact() {
        // 30 + 30 + log2(8) = 63 bits: the largest product the bound admits.
        let a_codes = Matrix::from_vec(3, 8, vec![(1u32 << 30) - 1; 24]).unwrap();
        let b_codes = codes(8, 5, 30, 9);
        let a = BitTensor::from_codes(&a_codes, 30, BitMatrixLayout::RowPacked);
        let b = BitTensor::from_codes(&b_codes, 30, BitMatrixLayout::ColPacked);
        let out = bit_mm_to_int(&a, &b, &KernelConfig::default(), &CostTracker::new()).unwrap();
        let reference = gemm_i64(&a_codes.map(|&v| v as i64), &b_codes.map(|&v| v as i64));
        assert_eq!(out, reference);
    }

    #[test]
    fn bit_mm_to_bit_produces_consumable_bit_tensor() {
        let a_codes = codes(16, 128, 2, 3);
        let b_codes = codes(128, 16, 2, 4);
        let a = BitTensor::from_codes(&a_codes, 2, BitMatrixLayout::RowPacked);
        let b = BitTensor::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked);
        let tracker = CostTracker::new();
        let (c, params) = bit_mm_to_bit(&a, &b, 4, &KernelConfig::default(), &tracker).unwrap();
        assert_eq!(c.bits(), 4);
        assert_eq!(c.shape(), (16, 16));
        assert_eq!(c.layout(), BitMatrixLayout::ColPacked);
        // The re-quantized values approximate the exact accumulator within one bucket.
        let exact = gemm_i64(&a_codes.map(|&v| v as i64), &b_codes.map(|&v| v as i64));
        let decoded = c.to_f32().expect("carries params");
        for i in 0..16 {
            for j in 0..16 {
                assert!(
                    (decoded[(i, j)] - exact[(i, j)] as f32).abs() <= params.scale,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn chained_bit_mm_calls_compose() {
        // (A·B) re-quantized, then multiplied by another bit tensor — the hidden-layer
        // hand-off pattern.
        let a = BitTensor::from_codes(&codes(8, 128, 1, 5), 1, BitMatrixLayout::RowPacked);
        let b = BitTensor::from_codes(&codes(128, 8, 2, 6), 2, BitMatrixLayout::ColPacked);
        let tracker = CostTracker::new();
        let (c, _) = bit_mm_to_bit(&a, &b, 3, &KernelConfig::default(), &tracker).unwrap();
        // Re-pack C as a left operand and multiply again.
        let c_left = BitTensor::from_codes(
            &c.to_val().map(|&v| v as u32),
            c.bits(),
            BitMatrixLayout::RowPacked,
        );
        let d = BitTensor::from_codes(&codes(8, 8, 2, 7), 2, BitMatrixLayout::ColPacked);
        let out = bit_mm_to_int(&c_left, &d, &KernelConfig::default(), &tracker).unwrap();
        assert_eq!(out.shape(), (8, 8));
        assert!(tracker.snapshot().tc_b1_tiles > 0);
    }
}
