//! The bit-Tensor data type (paper §5).
//!
//! PyTorch has no sub-byte dtype, so QGTC stores packed low-bit data inside ordinary
//! `int32` tensors ("the vehicle") and converts at the boundary:
//!
//! * `Tensor.to_bit(nbits)` — quantize + 3D-stacked bit-compress an ordinary tensor;
//! * `Tensor.to_val(nbits)` — decode a bit tensor back into an `int32` tensor so
//!   existing framework operations (printing, fp32 ops) can consume it.
//!
//! [`BitTensor`] is the Rust analogue.  Its packed storage is exactly the `u32`
//! words that would live inside the host `IntTensor`, so the byte counts used by the
//! transfer experiments are faithful.

use qgtc_bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_tensor::{Matrix, QuantParams};

/// A packed any-bitwidth tensor riding in 32-bit storage.
#[derive(Debug, Clone, PartialEq)]
pub struct BitTensor {
    stack: StackedBitMatrix,
}

impl BitTensor {
    /// `Tensor.to_bit(nbits)`: quantize an fp32 matrix to `bits` and pack it.
    ///
    /// `layout` selects the packing for the operand position the tensor will take in
    /// a subsequent bit-matrix multiplication (left operand → row-packed, right
    /// operand → column-packed).
    ///
    /// Panics if `bits` is outside `1..=32` or `x` holds an infinite value.
    pub fn from_f32(x: &Matrix<f32>, bits: u32, layout: BitMatrixLayout) -> Self {
        let params = QuantParams::calibrate(bits, x).unwrap_or_else(|err| panic!("{err}"));
        Self {
            stack: StackedBitMatrix::quantize_pack_in(x, params, layout, &mut Vec::new()).0,
        }
    }

    /// Build a 1-bit bit tensor from a dense 0/1 adjacency matrix.
    pub fn from_binary_adjacency(adjacency: &Matrix<f32>, layout: BitMatrixLayout) -> Self {
        Self {
            stack: StackedBitMatrix::from_binary_adjacency(adjacency, layout),
        }
    }

    /// Build directly from unsigned integer codes that already fit in `bits`.
    pub fn from_codes(codes: &Matrix<u32>, bits: u32, layout: BitMatrixLayout) -> Self {
        Self {
            stack: StackedBitMatrix::from_codes(codes, bits, layout),
        }
    }

    /// Wrap an existing packed stack.
    pub fn from_stack(stack: StackedBitMatrix) -> Self {
        Self { stack }
    }

    /// `Tensor.to_val(nbits)`: decode the packed codes into an `i32` matrix.
    pub fn to_val(&self) -> Matrix<i32> {
        self.stack.to_codes().map(|&c| c as i32)
    }

    /// Dequantize back to fp32 (requires the tensor to carry quantization parameters).
    pub fn to_f32(&self) -> Option<Matrix<f32>> {
        let params = self.stack.quant_params()?;
        Some(self.stack.to_codes().map(|&c| params.dequantize(c)))
    }

    /// Logical shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.stack.rows(), self.stack.cols())
    }

    /// Bitwidth of the packed representation.
    pub fn bits(&self) -> u32 {
        self.stack.bits()
    }

    /// Quantization parameters, when the tensor came from an fp32 source.
    pub fn quant_params(&self) -> Option<QuantParams> {
        self.stack.quant_params()
    }

    /// The packed bit planes (for kernel consumption).
    pub fn stack(&self) -> &StackedBitMatrix {
        &self.stack
    }

    /// Number of 32-bit words of the host-side storage "vehicle".
    pub fn storage_words(&self) -> usize {
        self.stack.packed_bytes() / 4
    }

    /// Packing layout.
    pub fn layout(&self) -> BitMatrixLayout {
        self.stack.layout()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_tensor::rng::random_uniform_matrix;

    #[test]
    fn to_bit_to_val_round_trip_codes() {
        let x = random_uniform_matrix(9, 17, -1.0, 1.0, 1);
        let t = BitTensor::from_f32(&x, 5, BitMatrixLayout::RowPacked);
        assert_eq!(t.bits(), 5);
        assert_eq!(t.shape(), (9, 17));
        let vals = t.to_val();
        assert!(vals.data().iter().all(|&v| (0..32).contains(&v)));
    }

    #[test]
    fn to_f32_round_trip_error_is_bounded() {
        let x = random_uniform_matrix(12, 12, -2.0, 2.0, 2);
        let t = BitTensor::from_f32(&x, 8, BitMatrixLayout::ColPacked);
        let back = t.to_f32().expect("quantized tensor carries parameters");
        let scale = t.quant_params().unwrap().scale;
        assert!(x.max_abs_diff(&back).unwrap() <= scale);
    }

    #[test]
    fn adjacency_tensor_is_one_bit_and_exact() {
        let mut adj = Matrix::zeros(6, 6);
        adj[(1, 2)] = 1.0;
        adj[(5, 0)] = 1.0;
        let t = BitTensor::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        assert_eq!(t.bits(), 1);
        let vals = t.to_val();
        assert_eq!(vals[(1, 2)], 1);
        assert_eq!(vals[(5, 0)], 1);
        assert_eq!(vals[(0, 0)], 0);
        assert!(
            t.to_f32().is_none(),
            "raw adjacency carries no quant params"
        );
    }

    #[test]
    fn storage_words_shrink_with_bitwidth() {
        let x = random_uniform_matrix(64, 256, 0.0, 1.0, 3);
        let t2 = BitTensor::from_f32(&x, 2, BitMatrixLayout::RowPacked);
        let t8 = BitTensor::from_f32(&x, 8, BitMatrixLayout::RowPacked);
        assert!(t2.storage_words() < t8.storage_words());
        assert_eq!(t8.storage_words(), 4 * t2.storage_words());
        // And both are far smaller than the fp32 original (64*256 words).
        assert!(t8.storage_words() * 3 < 64 * 256);
    }

    #[test]
    fn from_codes_preserves_exact_values() {
        let codes = Matrix::from_vec(2, 3, vec![0u32, 1, 2, 3, 4, 7]).unwrap();
        let t = BitTensor::from_codes(&codes, 3, BitMatrixLayout::ColPacked);
        assert_eq!(t.to_val().map(|&v| v as u32), codes);
        assert_eq!(t.layout(), BitMatrixLayout::ColPacked);
    }
}
