//! Bit decomposition and recomposition of quantized integer matrices — the
//! per-bit reference path.  Production packing assembles plane words directly
//! (see [`crate::stacked::StackedBitMatrix::from_codes`]); these functions
//! back its test oracle.
//!
//! `bitDecompose` (Algorithm 1, lines 1–3) takes a matrix of `q`-bit unsigned codes
//! (stored in `u32`/`i64` containers) and splits it into `q` bit planes; plane `i`
//! holds bit `i` of every element.  Recomposition shifts each plane back into place
//! and sums.  Together with [`crate::gemm`] this realises the paper's 1-bit
//! composition of any-bitwidth arithmetic.

use qgtc_tensor::Matrix;

/// Decompose a matrix of unsigned `q`-bit codes into `q` bit planes (plane 0 = LSB).
///
/// Panics if `bits == 0 || bits > 32` or any element does not fit in `bits` bits.
pub fn bit_decompose(codes: &Matrix<u32>, bits: u32) -> Vec<Matrix<u8>> {
    assert!(
        (1..=32).contains(&bits),
        "bits must be in 1..=32, got {bits}"
    );
    let max = if bits == 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    };
    for &v in codes.data() {
        assert!(v <= max, "value {v} does not fit in {bits} bits");
    }
    (0..bits)
        .map(|b| codes.map(|&v| ((v >> b) & 1) as u8))
        .collect()
}

/// Recompose bit planes into the original code matrix: `Σ_i plane_i << i`.
pub fn bit_recompose(planes: &[Matrix<u8>]) -> Matrix<u32> {
    assert!(!planes.is_empty(), "cannot recompose zero planes");
    let (rows, cols) = planes[0].shape();
    for p in planes {
        assert_eq!(p.shape(), (rows, cols), "plane shapes disagree");
    }
    let mut out: Matrix<u32> = Matrix::zeros(rows, cols);
    for (i, plane) in planes.iter().enumerate() {
        for (o, &b) in out.data_mut().iter_mut().zip(plane.data().iter()) {
            *o |= (b as u32) << i;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_codes() -> Matrix<u32> {
        Matrix::from_vec(2, 3, vec![0, 1, 2, 3, 5, 7]).unwrap()
    }

    #[test]
    fn decompose_produces_one_plane_per_bit() {
        let planes = bit_decompose(&sample_codes(), 3);
        assert_eq!(planes.len(), 3);
        // Element (1, 2) = 7 = 0b111: set in every plane.
        assert_eq!(planes[0][(1, 2)], 1);
        assert_eq!(planes[1][(1, 2)], 1);
        assert_eq!(planes[2][(1, 2)], 1);
        // Element (0, 2) = 2 = 0b010.
        assert_eq!(planes[0][(0, 2)], 0);
        assert_eq!(planes[1][(0, 2)], 1);
        assert_eq!(planes[2][(0, 2)], 0);
    }

    #[test]
    fn decompose_recompose_round_trip() {
        let codes = sample_codes();
        for bits in 3..=8 {
            let planes = bit_decompose(&codes, bits);
            assert_eq!(bit_recompose(&planes), codes, "bits = {bits}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn decompose_rejects_overflow() {
        let codes = Matrix::from_vec(1, 1, vec![4u32]).unwrap();
        let _ = bit_decompose(&codes, 2);
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=32")]
    fn decompose_rejects_zero_bits() {
        let _ = bit_decompose(&sample_codes(), 0);
    }

    #[test]
    fn recompose_rejects_mismatched_shapes() {
        let p1: Matrix<u8> = Matrix::zeros(2, 2);
        let p2: Matrix<u8> = Matrix::zeros(2, 3);
        let result = std::panic::catch_unwind(|| bit_recompose(&[p1, p2]));
        assert!(result.is_err());
    }

    #[test]
    fn full_32_bit_decomposition() {
        let codes = Matrix::from_vec(1, 2, vec![u32::MAX, 0x8000_0001]).unwrap();
        let planes = bit_decompose(&codes, 32);
        assert_eq!(planes.len(), 32);
        assert_eq!(bit_recompose(&planes), codes);
    }
}
