//! Single-plane binary matrix multiplication (BMM), the building block of the
//! GEMM oracle [`crate::gemm::any_bit_gemm_serial`].
//!
//! Equation 7 of the paper: the product of two 1-bit vectors is
//! `popcnt(a & b)`.  A single-plane BMM applies that dot product between every
//! row-packed lane of the left operand and every column-packed lane of the right
//! operand, accumulating into `u32` — exactly what one Tensor Core `bmma_sync`
//! computes per 8×8×128 tile, here expressed over whole matrices.

use crate::bitmatrix::{BitMatrix, BitMatrixLayout};
use crate::pack::and_popcount;
use qgtc_tensor::Matrix;

/// Binary matrix multiplication between one row-packed plane `a` (shape M×K) and one
/// column-packed plane `b` (shape K×N), producing `u32` counts of shape M×N.
///
/// Panics if the layouts are not (RowPacked, ColPacked) or the inner dimensions
/// disagree.
pub fn bmm_plane(a: &BitMatrix, b: &BitMatrix) -> Matrix<u32> {
    validate_bmm_operands(a, b);
    let m = a.rows();
    let n = b.cols();
    let b_lanes = trimmed_lanes(b, n, a.words_per_lane());
    let mut out: Matrix<u32> = Matrix::zeros(m, n);
    for i in 0..m {
        let a_lane = a.lane(i);
        for (slot, b_lane) in out.row_mut(i).iter_mut().zip(&b_lanes) {
            *slot = and_popcount(a_lane, b_lane);
        }
    }
    out
}

/// Slice the first `count` lanes of `b`, trimmed to `words` packed words each —
/// computed once per BMM call so the inner loops avoid re-slicing per element.
fn trimmed_lanes(b: &BitMatrix, count: usize, words: usize) -> Vec<&[u32]> {
    (0..count).map(|j| &b.lane(j)[..words]).collect()
}

/// Check layouts and inner dimensions of a BMM operand pair.
fn validate_bmm_operands(a: &BitMatrix, b: &BitMatrix) {
    assert_eq!(
        a.layout(),
        BitMatrixLayout::RowPacked,
        "left BMM operand must be row-packed (column-wise compression)"
    );
    assert_eq!(
        b.layout(),
        BitMatrixLayout::ColPacked,
        "right BMM operand must be column-packed (row-wise compression)"
    );
    assert_eq!(
        a.cols(),
        b.rows(),
        "BMM inner dimensions differ: {} vs {}",
        a.cols(),
        b.rows()
    );
    debug_assert_eq!(
        a.words_per_lane(),
        b.words_per_lane(),
        "padded word counts must agree for equal K"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_tensor::gemm::gemm_i64;
    use qgtc_tensor::rng::random_uniform_matrix;

    fn random_bits(rows: usize, cols: usize, seed: u64) -> Matrix<u8> {
        random_uniform_matrix(rows, cols, 0.0, 1.0, seed).map(|&v| (v > 0.5) as u8)
    }

    fn to_i64(m: &Matrix<u8>) -> Matrix<i64> {
        m.map(|&v| v as i64)
    }

    #[test]
    fn bmm_matches_integer_gemm() {
        let a_bits = random_bits(17, 200, 1);
        let b_bits = random_bits(200, 13, 2);
        let a = BitMatrix::from_bits(&a_bits, BitMatrixLayout::RowPacked);
        let b = BitMatrix::from_bits(&b_bits, BitMatrixLayout::ColPacked);
        let fast = bmm_plane(&a, &b);
        let reference = gemm_i64(&to_i64(&a_bits), &to_i64(&b_bits));
        assert_eq!(fast.shape(), (17, 13));
        for i in 0..17 {
            for j in 0..13 {
                assert_eq!(
                    fast[(i, j)] as i64,
                    reference[(i, j)],
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be row-packed")]
    fn bmm_rejects_wrong_left_layout() {
        let bits = random_bits(8, 8, 7);
        let a = BitMatrix::from_bits(&bits, BitMatrixLayout::ColPacked);
        let b = BitMatrix::from_bits(&bits, BitMatrixLayout::ColPacked);
        let _ = bmm_plane(&a, &b);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn bmm_rejects_dimension_mismatch() {
        let a = BitMatrix::from_bits(&random_bits(4, 100, 8), BitMatrixLayout::RowPacked);
        let b = BitMatrix::from_bits(&random_bits(90, 4, 9), BitMatrixLayout::ColPacked);
        let _ = bmm_plane(&a, &b);
    }

    #[test]
    fn identity_adjacency_returns_counts_of_b_rows() {
        // A = identity: output row i equals row i of B (as 0/1 counts).
        let n = 12;
        let mut ident: Matrix<u8> = Matrix::zeros(n, n);
        for i in 0..n {
            ident[(i, i)] = 1;
        }
        let b_bits = random_bits(n, 9, 10);
        let a = BitMatrix::from_bits(&ident, BitMatrixLayout::RowPacked);
        let b = BitMatrix::from_bits(&b_bits, BitMatrixLayout::ColPacked);
        let out = bmm_plane(&a, &b);
        for i in 0..n {
            for j in 0..9 {
                assert_eq!(out[(i, j)] as u8, b_bits[(i, j)]);
            }
        }
    }
}
