//! CUTLASS int4 Tensor Core GEMM analogue (the Table 3 baseline).
//!
//! CUTLASS 2.7 exposes an int4×int4 Tensor Core GEMM.  Because int4 is its minimum
//! operand width, QGTC's comparison (Table 3) must feed it a 4-bit adjacency even
//! though one bit suffices, and a 4-bit embedding matrix regardless of the desired
//! bitwidth — which is exactly where QGTC's advantage comes from.  The analogue
//! quantizes both operands to 4 bits, computes the exact integer product and charges
//! int4 Tensor Core ops plus 4-bit operand traffic.

use crate::int8_tc::symmetric_quantize;
use qgtc_tcsim::cost::CostTracker;
use qgtc_tensor::gemm::gemm_i64_parallel;
use qgtc_tensor::Matrix;

/// Result of an int4 Tensor Core GEMM.
#[derive(Debug, Clone)]
pub struct Int4GemmResult {
    /// Integer accumulator output (exact over the 4-bit codes).
    pub accumulator: Matrix<i64>,
    /// Dequantized fp32 output.
    pub output: Matrix<f32>,
}

/// `C = A · B` through the int4 Tensor Core path (both operands quantized to 4 bits).
pub fn int4_tc_gemm(a: &Matrix<f32>, b: &Matrix<f32>, tracker: &CostTracker) -> Int4GemmResult {
    assert_eq!(a.cols(), b.rows(), "int4_tc_gemm: inner dimensions differ");
    let (m, k) = a.shape();
    let n = b.cols();

    let (a_codes, sa) = symmetric_quantize(a, 4);
    let (b_codes, sb) = symmetric_quantize(b, 4);
    let accumulator = gemm_i64_parallel(&a_codes, &b_codes);
    let scale = sa * sb;
    let output = accumulator.map(|&v| v as f32 * scale);

    tracker.record_int4_ops(2 * m as u64 * n as u64 * k as u64);
    // Half a byte per int4 element.
    tracker.record_dram_read(((m * k + k * n) / 2).max(1) as u64);
    tracker.record_dram_write((m * n * 4) as u64);
    tracker.record_kernel_launch((m.div_ceil(128) * n.div_ceil(128)).max(1) as u64);

    Int4GemmResult {
        accumulator,
        output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_tensor::gemm::gemm_f32;
    use qgtc_tensor::rng::random_uniform_matrix;

    #[test]
    fn int4_gemm_tracks_fp32_loosely() {
        let a = random_uniform_matrix(24, 48, 0.0, 1.0, 1);
        let b = random_uniform_matrix(48, 12, 0.0, 1.0, 2);
        let tracker = CostTracker::new();
        let result = int4_tc_gemm(&a, &b, &tracker);
        let exact = gemm_f32(&a, &b);
        // 4-bit codes are coarse; just require the right order of magnitude per element.
        let err = result.output.max_abs_diff(&exact).unwrap();
        let norm = exact.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(
            err < 0.35 * norm + 1.0,
            "int4 error {err} vs magnitude {norm}"
        );
    }

    #[test]
    fn binary_adjacency_is_representable_exactly() {
        // 0/1 adjacency survives symmetric 4-bit quantization exactly, so aggregation
        // differs from fp32 only through the embedding quantization.
        let adj = random_uniform_matrix(20, 20, 0.0, 1.0, 3).map(|&v| (v > 0.6) as u32 as f32);
        let (codes, scale) = symmetric_quantize(&adj, 4);
        for (orig, code) in adj.data().iter().zip(codes.data().iter()) {
            assert!((orig - *code as f32 * scale).abs() < 1e-6);
        }
    }

    #[test]
    fn cost_profile_charges_int4_tensor_cores() {
        let a = random_uniform_matrix(128, 128, 0.0, 1.0, 5);
        let b = random_uniform_matrix(128, 32, 0.0, 1.0, 6);
        let tracker = CostTracker::new();
        let _ = int4_tc_gemm(&a, &b, &tracker);
        let s = tracker.snapshot();
        assert_eq!(s.tc_int4_ops, 2 * 128 * 128 * 32);
        assert_eq!(s.tc_int8_ops, 0);
        assert_eq!(s.dram_read_bytes, (128 * 128 + 128 * 32) / 2);
    }

    #[test]
    fn int4_moves_less_data_than_int8_for_same_shape() {
        use crate::int8_tc::int8_tc_gemm;
        let a = random_uniform_matrix(64, 64, 0.0, 1.0, 7);
        let b = random_uniform_matrix(64, 16, 0.0, 1.0, 8);
        let t4 = CostTracker::new();
        let t8 = CostTracker::new();
        let _ = int4_tc_gemm(&a, &b, &t4);
        let _ = int8_tc_gemm(&a, &b, &t8);
        assert!(t4.snapshot().dram_read_bytes < t8.snapshot().dram_read_bytes);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn rejects_shape_mismatch() {
        let a = Matrix::zeros(4, 5);
        let b = Matrix::zeros(4, 5);
        let _ = int4_tc_gemm(&a, &b, &CostTracker::new());
    }
}
