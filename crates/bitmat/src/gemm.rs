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
//! [`crate::ops::bmm_plane`].  The functions here implement that composition directly
//! over [`StackedBitMatrix`] operands, **one plane pair at a time**: each pair
//! materialises a `u32` partial product and re-walks the output to accumulate it.
//! They are the semantic reference for the kernels in `qgtc-kernels` and are
//! themselves verified against a 64-bit integer GEMM on the codes.
//!
//! Production callers should use [`crate::fused::any_bit_gemm_fused_with_body`] instead,
//! which performs the identical composition in a single pass over the output;
//! the plane-by-plane forms are kept as the measurable baseline (`perfsmoke`
//! and the criterion benches time fused against them) and as the oracle
//! ([`any_bit_gemm_serial`]) for the property suite.
//!
//! The module also exposes the scalar and vector forms of the decomposition
//! (Equations 3–7 of the paper), mostly as executable documentation.

use crate::ops::{bmm_plane, bmm_plane_parallel};
use crate::stacked::StackedBitMatrix;
use qgtc_tensor::Matrix;

/// Neighbor aggregation `X_new = A · X` where `A` is a 1-bit adjacency stack and `X`
/// an `s`-bit feature stack (Algorithm 1, lines 5–7 plus the final reduction).
///
/// Returns full-precision `i64` accumulators.
pub fn aggregate_adj_features(adj: &StackedBitMatrix, x: &StackedBitMatrix) -> Matrix<i64> {
    assert_eq!(adj.bits(), 1, "adjacency stack must be 1-bit");
    assert_eq!(
        adj.cols(),
        x.rows(),
        "aggregation inner dimensions differ: {} vs {}",
        adj.cols(),
        x.rows()
    );
    let mut out: Matrix<i64> = Matrix::zeros(adj.rows(), x.cols());
    for (i, plane) in x.planes().iter().enumerate() {
        let partial = bmm_plane_parallel(adj.plane(0), plane);
        accumulate_shifted(&mut out, &partial, i as u32);
    }
    out
}

/// Full any-bitwidth GEMM `C = A · B` between an `s`-bit stack and a `t`-bit stack
/// (Algorithm 1, lines 8–19).  Returns `i64` accumulators over the codes.
pub fn any_bit_gemm(a: &StackedBitMatrix, b: &StackedBitMatrix) -> Matrix<i64> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "any_bit_gemm inner dimensions differ: {} vs {}",
        a.cols(),
        b.rows()
    );
    let mut out: Matrix<i64> = Matrix::zeros(a.rows(), b.cols());
    for (i, a_plane) in a.planes().iter().enumerate() {
        for (j, b_plane) in b.planes().iter().enumerate() {
            let partial = bmm_plane_parallel(a_plane, b_plane);
            accumulate_shifted(&mut out, &partial, (i + j) as u32);
        }
    }
    out
}

/// Serial variant of [`any_bit_gemm`] (used by tests and by the cost model to count
/// work without rayon nondeterminism in timings).
pub fn any_bit_gemm_serial(a: &StackedBitMatrix, b: &StackedBitMatrix) -> Matrix<i64> {
    assert_eq!(a.cols(), b.rows(), "any_bit_gemm inner dimensions differ");
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

/// Any-bitwidth scalar multiplication by bit decomposition (Equations 3–5).
///
/// Splits both operands into bits, multiplies every bit pair, shifts by the sum of
/// the bit positions and accumulates.  Provided as executable documentation of the
/// scheme; the matrix routines above never call it.
pub fn scalar_mul_decomposed(a: u32, a_bits: u32, b: u32, b_bits: u32) -> u64 {
    assert!((1..=32).contains(&a_bits) && (1..=32).contains(&b_bits));
    debug_assert!(a_bits == 32 || a < (1u32 << a_bits));
    debug_assert!(b_bits == 32 || b < (1u32 << b_bits));
    let mut acc = 0u64;
    for i in 0..a_bits {
        for j in 0..b_bits {
            let bit_a = (a >> i) & 1;
            let bit_b = (b >> j) & 1;
            acc += ((bit_a & bit_b) as u64) << (i + j);
        }
    }
    acc
}

/// Any-bitwidth vector dot product by bit decomposition (Equations 6–7): for each bit
/// pair `(i, j)` the partial result is a binary dot product `popcnt(a_i & b_j)`
/// shifted by `i + j`.
pub fn vector_dot_decomposed(a: &[u32], a_bits: u32, b: &[u32], b_bits: u32) -> u64 {
    assert_eq!(a.len(), b.len(), "vector lengths differ");
    let mut acc = 0u64;
    for i in 0..a_bits {
        for j in 0..b_bits {
            let mut popcnt = 0u64;
            for (&x, &y) in a.iter().zip(b.iter()) {
                popcnt += (((x >> i) & 1) & ((y >> j) & 1)) as u64;
            }
            acc += popcnt << (i + j);
        }
    }
    acc
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
        for (s, t) in [(1u32, 1u32), (2, 3), (3, 2), (4, 4), (5, 2)] {
            let a_codes = random_codes(11, 140, s, 100 + s as u64);
            let b_codes = random_codes(140, 9, t, 200 + t as u64);
            let a = StackedBitMatrix::from_codes(&a_codes, s, BitMatrixLayout::RowPacked);
            let b = StackedBitMatrix::from_codes(&b_codes, t, BitMatrixLayout::ColPacked);
            let composed = any_bit_gemm(&a, &b);
            let reference = gemm_i64(&codes_to_i64(&a_codes), &codes_to_i64(&b_codes));
            assert_eq!(composed, reference, "bit widths ({s}, {t})");
        }
    }

    #[test]
    fn serial_and_parallel_compositions_agree() {
        let a_codes = random_codes(20, 256, 3, 1);
        let b_codes = random_codes(256, 16, 2, 2);
        let a = StackedBitMatrix::from_codes(&a_codes, 3, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked);
        assert_eq!(any_bit_gemm(&a, &b), any_bit_gemm_serial(&a, &b));
    }

    #[test]
    fn aggregation_matches_integer_gemm() {
        // 1-bit adjacency times 4-bit features.
        let adj_dense =
            random_uniform_matrix(30, 30, 0.0, 1.0, 3).map(|&v| (v > 0.7) as u32 as f32);
        let x_codes = random_codes(30, 16, 4, 4);
        let adj = StackedBitMatrix::from_binary_adjacency(&adj_dense, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&x_codes, 4, BitMatrixLayout::ColPacked);
        let out = aggregate_adj_features(&adj, &x);
        let adj_i64 = adj_dense.map(|&v| v as i64);
        let reference = gemm_i64(&adj_i64, &codes_to_i64(&x_codes));
        assert_eq!(out, reference);
    }

    #[test]
    #[should_panic(expected = "adjacency stack must be 1-bit")]
    fn aggregation_rejects_multi_bit_adjacency() {
        let a_codes = random_codes(8, 8, 2, 5);
        let x_codes = random_codes(8, 4, 2, 6);
        let a = StackedBitMatrix::from_codes(&a_codes, 2, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&x_codes, 2, BitMatrixLayout::ColPacked);
        let _ = aggregate_adj_features(&a, &x);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn any_bit_gemm_rejects_shape_mismatch() {
        let a =
            StackedBitMatrix::from_codes(&random_codes(4, 10, 2, 7), 2, BitMatrixLayout::RowPacked);
        let b =
            StackedBitMatrix::from_codes(&random_codes(11, 4, 2, 8), 2, BitMatrixLayout::ColPacked);
        let _ = any_bit_gemm(&a, &b);
    }

    #[test]
    fn scalar_decomposition_matches_direct_product() {
        // The paper's 3-bit x 2-bit example plus a sweep.
        assert_eq!(scalar_mul_decomposed(0b101, 3, 0b11, 2), 5 * 3);
        for a in 0..8u32 {
            for b in 0..4u32 {
                assert_eq!(scalar_mul_decomposed(a, 3, b, 2), (a * b) as u64);
            }
        }
        assert_eq!(scalar_mul_decomposed(255, 8, 255, 8), 255 * 255);
    }

    #[test]
    fn vector_decomposition_matches_direct_dot() {
        let a = vec![5u32, 3, 7, 0, 2];
        let b = vec![1u32, 3, 2, 3, 1];
        let expected: u64 = a.iter().zip(b.iter()).map(|(&x, &y)| (x * y) as u64).sum();
        assert_eq!(vector_dot_decomposed(&a, 3, &b, 2), expected);
    }

    #[test]
    fn one_bit_times_one_bit_is_and_count() {
        let a_codes = random_codes(6, 64, 1, 9);
        let b_codes = random_codes(64, 6, 1, 10);
        let a = StackedBitMatrix::from_codes(&a_codes, 1, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, 1, BitMatrixLayout::ColPacked);
        let out = any_bit_gemm(&a, &b);
        let reference = gemm_i64(&codes_to_i64(&a_codes), &codes_to_i64(&b_codes));
        assert_eq!(out, reference);
    }
}
