//! Dense GEMM kernels and the CSR SpMM.
//!
//! These are the full-precision (and wide-integer) matrix products used by
//!
//! * the DGL-like fp32 baseline (`qgtc-baselines`), which performs the node-update
//!   step `X_new · W` in fp32, and the int8/int4 tensor-core analogues, and
//! * the check on the bit-plane GEMM oracle (`qgtc_bitmat::gemm`): composed from
//!   1-bit products, it must reproduce [`gemm_i64`] on the quantized codes.
//!
//! The parallel kernels split the output into row blocks on the rayon pool,
//! mirroring how the CUDA-core baseline distributes thread blocks over output tiles.

use crate::matrix::Matrix;
use rayon::prelude::*;

/// Row-block size used by the blocked GEMM kernels.
///
/// 64 rows keeps a block of the output plus the corresponding A rows well inside L2
/// for the matrix sizes that appear in the evaluation (N ≤ 32768, D ≤ 1024).
const ROW_BLOCK: usize = 64;

/// Threshold (in output elements) below which the parallel kernels fall back to the
/// serial implementation to avoid rayon overhead on tiny matrices.
const PARALLEL_THRESHOLD: usize = 64 * 64;

/// `C = A · B` for `f32` matrices (serial, no blocking) — [`gemm_f32`]'s path
/// for small outputs.
fn gemm_f32_serial(a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "gemm_f32_serial: inner dimensions differ ({} vs {})",
        a.cols(),
        b.rows()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (p, &a_ip) in a_row.iter().enumerate().take(k) {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = b.row(p);
            for (j, &b_pj) in b_row.iter().enumerate() {
                c_row[j] += a_ip * b_pj;
            }
        }
    }
    c
}

/// `C = A · B` for `f32` matrices, parallelised over row blocks.
pub fn gemm_f32(a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "gemm_f32: inner dimensions differ ({} vs {})",
        a.cols(),
        b.rows()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    if m * n <= PARALLEL_THRESHOLD {
        return gemm_f32_serial(a, b);
    }
    let mut c = Matrix::zeros(m, n);
    // Split the output into independent row blocks; each block only reads A and B.
    c.data_mut()
        .par_chunks_mut(ROW_BLOCK * n)
        .enumerate()
        .for_each(|(block_idx, c_block)| {
            let row_start = block_idx * ROW_BLOCK;
            let rows_here = c_block.len() / n;
            for local_i in 0..rows_here {
                let i = row_start + local_i;
                let a_row = a.row(i);
                let c_row = &mut c_block[local_i * n..(local_i + 1) * n];
                for (p, &a_ip) in a_row.iter().enumerate().take(k) {
                    if a_ip == 0.0 {
                        continue;
                    }
                    let b_row = b.row(p);
                    for j in 0..n {
                        c_row[j] += a_ip * b_row[j];
                    }
                }
            }
        });
    c
}

/// `C = A · B` with `i64` accumulation over `i64` operands (serial).
///
/// This is the oracle for every quantized kernel: bit-decomposed computation on
/// quantized codes must reproduce these integer results exactly.
pub fn gemm_i64(a: &Matrix<i64>, b: &Matrix<i64>) -> Matrix<i64> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "gemm_i64: inner dimensions differ ({} vs {})",
        a.cols(),
        b.rows()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (p, &a_ip) in a_row.iter().enumerate().take(k) {
            if a_ip == 0 {
                continue;
            }
            let b_row = b.row(p);
            for (j, &b_pj) in b_row.iter().enumerate() {
                c_row[j] += a_ip * b_pj;
            }
        }
    }
    c
}

/// `C = A · B` with `i64` accumulation, parallelised over rows.
pub fn gemm_i64_parallel(a: &Matrix<i64>, b: &Matrix<i64>) -> Matrix<i64> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "gemm_i64_parallel: inner dimensions differ"
    );
    let (m, k) = a.shape();
    let n = b.cols();
    if m * n <= PARALLEL_THRESHOLD {
        return gemm_i64(a, b);
    }
    let mut c = Matrix::zeros(m, n);
    c.data_mut()
        .par_chunks_mut(n)
        .enumerate()
        .for_each(|(i, c_row)| {
            let a_row = a.row(i);
            for (p, &a_ip) in a_row.iter().enumerate().take(k) {
                if a_ip == 0 {
                    continue;
                }
                let b_row = b.row(p);
                for j in 0..n {
                    c_row[j] += a_ip * b_row[j];
                }
            }
        });
    c
}

/// Sparse-times-dense product where the sparse left operand is given as CSR arrays.
///
/// `C[i, :] = Σ_{p ∈ row i} values[p] * B[col_indices[p], :]`
///
/// This is the aggregation primitive of the DGL baseline (CSR SpMM); it lives here so
/// both the baseline crate and tests can share a single, well-tested implementation.
pub fn csr_spmm_f32(
    row_ptr: &[usize],
    col_indices: &[usize],
    values: &[f32],
    b: &Matrix<f32>,
) -> Matrix<f32> {
    let m = row_ptr.len() - 1;
    let n = b.cols();
    assert_eq!(
        col_indices.len(),
        values.len(),
        "csr_spmm_f32: CSR arrays disagree"
    );
    let mut c = Matrix::zeros(m, n);
    c.data_mut()
        .par_chunks_mut(n)
        .enumerate()
        .for_each(|(i, c_row)| {
            for p in row_ptr[i]..row_ptr[i + 1] {
                let col = col_indices[p];
                let v = values[p];
                let b_row = b.row(col);
                for j in 0..n {
                    c_row[j] += v * b_row[j];
                }
            }
        });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_matrix_f32(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
        let mut rng = SplitMix64::new(seed);
        let data = (0..rows * cols)
            .map(|_| (rng.next_u64() % 200) as f32 / 10.0 - 10.0)
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    fn random_matrix_i64(rows: usize, cols: usize, seed: u64, modulus: i64) -> Matrix<i64> {
        let mut rng = SplitMix64::new(seed);
        let data = (0..rows * cols)
            .map(|_| (rng.next_u64() % modulus as u64) as i64)
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn identity_times_matrix_is_matrix() {
        let a = Matrix::identity(5);
        let b = random_matrix_f32(5, 7, 1);
        let c = gemm_f32(&a, &b);
        assert!(c.max_abs_diff(&b).unwrap() < 1e-6);
    }

    #[test]
    fn serial_and_parallel_agree_f32() {
        let a = random_matrix_f32(130, 70, 2);
        let b = random_matrix_f32(70, 90, 3);
        let c1 = gemm_f32_serial(&a, &b);
        let c2 = gemm_f32(&a, &b);
        assert!(c1.max_abs_diff(&c2).unwrap() < 1e-3);
    }

    #[test]
    fn serial_and_parallel_agree_i64() {
        let a = random_matrix_i64(140, 64, 4, 8);
        let b = random_matrix_i64(64, 80, 5, 8);
        assert_eq!(gemm_i64(&a, &b), gemm_i64_parallel(&a, &b));
    }

    #[test]
    fn gemm_small_known_result() {
        let a = Matrix::from_vec(2, 2, vec![1.0f32, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![5.0f32, 6.0, 7.0, 8.0]).unwrap();
        let c = gemm_f32(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn gemm_rejects_mismatched_shapes() {
        let a: Matrix<f32> = Matrix::zeros(2, 3);
        let b: Matrix<f32> = Matrix::zeros(4, 2);
        let _ = gemm_f32(&a, &b);
    }

    #[test]
    fn csr_spmm_matches_dense() {
        // Dense A:
        // [0 2 0]
        // [1 0 3]
        let row_ptr = vec![0usize, 1, 3];
        let col_indices = vec![1usize, 0, 2];
        let values = vec![2.0f32, 1.0, 3.0];
        let a_dense = Matrix::from_vec(2, 3, vec![0.0, 2.0, 0.0, 1.0, 0.0, 3.0]).unwrap();
        let b = random_matrix_f32(3, 5, 11);
        let sparse = csr_spmm_f32(&row_ptr, &col_indices, &values, &b);
        let dense = gemm_f32(&a_dense, &b);
        assert!(sparse.max_abs_diff(&dense).unwrap() < 1e-5);
    }

    #[test]
    fn gemm_with_zero_dimension() {
        let a: Matrix<f32> = Matrix::zeros(0, 3);
        let b: Matrix<f32> = Matrix::zeros(3, 4);
        let c = gemm_f32(&a, &b);
        assert_eq!(c.shape(), (0, 4));
    }
}
