//! Any-bitwidth GEMM by 1-bit composition (paper §3.1 and Algorithm 1).
//!
//! Given an `s`-bit left operand and a `t`-bit right operand, each decomposed into
//! bit planes, the full-precision product of the codes is
//!
//! ```text
//! C = Σ_{i < s} Σ_{j < t}  BMM(A_plane_i, B_plane_j) << (i + j)
//! ```
//!
//! where `BMM` is the binary (AND + popcount) matrix product of
//! [`crate::ops::bmm_plane`].  [`any_bit_gemm_serial`] implements that
//! composition literally over [`StackedBitMatrix`] operands, **one plane pair
//! at a time**: each pair materialises a `u32` partial product and re-walks the
//! output to accumulate it.  It is the workspace's one GEMM oracle: the
//! kernels in [`crate::fused`] are tested against it, and it is itself
//! verified against a 64-bit integer GEMM on the codes.
//!
//! Production callers use [`crate::fused::any_bit_gemm_fused_with_body`],
//! which performs the identical composition in a single pass over the output.

use crate::fused::assert_accumulator_fits;
use crate::ops::bmm_plane;
use crate::stacked::StackedBitMatrix;
use qgtc_tensor::Matrix;

/// Any-bitwidth GEMM `C = A · B` between an `s`-bit row-packed stack and a
/// `t`-bit column-packed stack (Algorithm 1, lines 8–19), serially and one
/// plane pair at a time.  Returns `i64` accumulators over the codes.
///
/// # Panics
///
/// Panics on a layout or shape mismatch, and when the bitwidths and K could
/// overflow the accumulators ([`crate::fused::accumulator_fits`]).
pub fn any_bit_gemm_serial(a: &StackedBitMatrix, b: &StackedBitMatrix) -> Matrix<i64> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "any_bit_gemm_serial inner dimensions differ: {} vs {}",
        a.cols(),
        b.rows()
    );
    assert_accumulator_fits(a, b);
    let mut out: Matrix<i64> = Matrix::zeros(a.rows(), b.cols());
    for (i, a_plane) in a.planes().iter().enumerate() {
        for (j, b_plane) in b.planes().iter().enumerate() {
            let partial = bmm_plane(a_plane, b_plane);
            accumulate_shifted(&mut out, &partial, (i + j) as u32);
        }
    }
    out
}

/// `out += partial << shift`, elementwise.
fn accumulate_shifted(out: &mut Matrix<i64>, partial: &Matrix<u32>, shift: u32) {
    debug_assert_eq!(out.shape(), partial.shape());
    for (o, &p) in out.data_mut().iter_mut().zip(partial.data().iter()) {
        *o += (p as i64) << shift;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmatrix::BitMatrixLayout;
    use qgtc_tensor::gemm::gemm_i64;
    use qgtc_tensor::rng::random_uniform_matrix;

    fn random_codes(rows: usize, cols: usize, bits: u32, seed: u64) -> Matrix<u32> {
        let max = (1u64 << bits) as f32;
        random_uniform_matrix(rows, cols, 0.0, max, seed)
            .map(|&v| (v as u32).min((1u32 << bits) - 1))
    }

    fn codes_to_i64(codes: &Matrix<u32>) -> Matrix<i64> {
        codes.map(|&v| v as i64)
    }

    #[test]
    fn any_bit_gemm_matches_integer_gemm() {
        // Every bitwidth pair up to 8 x 8, at K one short of, at and one past
        // each 64-bit word and 128-bit tile boundary.
        for s in 1..=8u32 {
            for t in 1..=8u32 {
                for k in [1usize, 63, 64, 65, 127, 128, 129] {
                    let seed = u64::from(s * 10 + t) * 1000 + k as u64;
                    let a_codes = random_codes(11, k, s, seed);
                    let b_codes = random_codes(k, 9, t, seed + 1);
                    let a = StackedBitMatrix::from_codes(&a_codes, s, BitMatrixLayout::RowPacked);
                    let b = StackedBitMatrix::from_codes(&b_codes, t, BitMatrixLayout::ColPacked);
                    let reference = gemm_i64(&codes_to_i64(&a_codes), &codes_to_i64(&b_codes));
                    assert_eq!(
                        any_bit_gemm_serial(&a, &b),
                        reference,
                        "bit widths ({s}, {t}), K = {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn aggregation_matches_integer_gemm() {
        // 1-bit adjacency times 4-bit features.
        let adj_dense =
            random_uniform_matrix(30, 30, 0.0, 1.0, 3).map(|&v| (v > 0.7) as u32 as f32);
        let x_codes = random_codes(30, 16, 4, 4);
        let adj = StackedBitMatrix::from_binary_adjacency(&adj_dense, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&x_codes, 4, BitMatrixLayout::ColPacked);
        let out = any_bit_gemm_serial(&adj, &x);
        let adj_i64 = adj_dense.map(|&v| v as i64);
        let reference = gemm_i64(&adj_i64, &codes_to_i64(&x_codes));
        assert_eq!(out, reference);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn any_bit_gemm_rejects_shape_mismatch() {
        let a =
            StackedBitMatrix::from_codes(&random_codes(4, 10, 2, 7), 2, BitMatrixLayout::RowPacked);
        let b =
            StackedBitMatrix::from_codes(&random_codes(11, 4, 2, 8), 2, BitMatrixLayout::ColPacked);
        let _ = any_bit_gemm_serial(&a, &b);
    }

    /// 32-bit all-ones codes on both sides at K = 128: each output would be
    /// 128 · (2³² − 1)² ≈ 2.4·10²¹, far past `i64`.  Without the bound the
    /// shift-accumulate wraps in release builds and overflows in debug ones.
    #[test]
    #[should_panic(expected = "can overflow the i64 accumulators")]
    fn any_bit_gemm_rejects_overflowing_bitwidths() {
        let ones = |rows, cols| Matrix::from_vec(rows, cols, vec![u32::MAX; rows * cols]).unwrap();
        let a = StackedBitMatrix::from_codes(&ones(4, 128), 32, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&ones(128, 4), 32, BitMatrixLayout::ColPacked);
        let _ = any_bit_gemm_serial(&a, &b);
    }

    #[test]
    fn one_bit_times_one_bit_is_and_count() {
        let a_codes = random_codes(6, 64, 1, 9);
        let b_codes = random_codes(64, 6, 1, 10);
        let a = StackedBitMatrix::from_codes(&a_codes, 1, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, 1, BitMatrixLayout::ColPacked);
        let out = any_bit_gemm_serial(&a, &b);
        let reference = gemm_i64(&codes_to_i64(&a_codes), &codes_to_i64(&b_codes));
        assert_eq!(out, reference);
    }
}
