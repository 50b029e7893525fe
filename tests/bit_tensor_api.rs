//! Integration tests of the framework-boundary API (the paper's §5): BitTensor
//! conversions and the bitMM entry points, used the way a PyTorch extension user
//! would chain them.

use qgtc_repro::bitmat::BitMatrixLayout;
use qgtc_repro::core::{bit_mm_to_bit, bit_mm_to_int, BitTensor};
use qgtc_repro::kernels::bmm::KernelConfig;
use qgtc_repro::tcsim::cost::CostTracker;
use qgtc_repro::tcsim::DeviceModel;
use qgtc_repro::tensor::gemm::gemm_f32;
use qgtc_repro::tensor::rng::random_uniform_matrix;

#[test]
fn quantize_multiply_dequantize_approximates_fp32() {
    // to_bit -> bitMM2Int -> rescale must track an fp32 GEMM within the quantization
    // error budget, for non-negative operands (the zero-anchored case the GNN uses).
    let a = random_uniform_matrix(64, 96, 0.0, 1.0, 1);
    let b = random_uniform_matrix(96, 32, 0.0, 1.0, 2);
    let a_q = BitTensor::from_f32(&a, 8, BitMatrixLayout::RowPacked);
    let b_q = BitTensor::from_f32(&b, 8, BitMatrixLayout::ColPacked);
    let tracker = CostTracker::new();
    let acc = bit_mm_to_int(&a_q, &b_q, &KernelConfig::default(), &tracker).unwrap();

    let pa = a_q.quant_params().unwrap();
    let pb = b_q.quant_params().unwrap();
    // Dequantize with the bucket-centre convention both quantizers use.
    let approx = acc.map(|&v| v as f32 * pa.scale * pb.scale);
    let exact = gemm_f32(&a, &b);
    // Allow the affine/bucket-centre bias of K accumulated terms.
    let k = 96.0;
    let budget = k * (pa.scale + pb.scale) + 1.0;
    let err = approx.max_abs_diff(&exact).unwrap();
    assert!(err < budget, "error {err} exceeds budget {budget}");
}

#[test]
fn bit_mm_to_bit_output_feeds_another_multiplication() {
    let a = BitTensor::from_f32(
        &random_uniform_matrix(32, 128, 0.0, 1.0, 3),
        2,
        BitMatrixLayout::RowPacked,
    );
    let b = BitTensor::from_f32(
        &random_uniform_matrix(128, 32, 0.0, 1.0, 4),
        2,
        BitMatrixLayout::ColPacked,
    );
    let tracker = CostTracker::new();
    let (c, params) = bit_mm_to_bit(&a, &b, 4, &KernelConfig::default(), &tracker).unwrap();
    assert_eq!(c.bits(), 4);
    assert!(params.scale > 0.0);

    // Chain: repack C as a left operand and multiply by another weight tensor.
    let c_left = BitTensor::from_codes(
        &c.to_val().map(|&v| v as u32),
        4,
        BitMatrixLayout::RowPacked,
    );
    let w = BitTensor::from_f32(
        &random_uniform_matrix(32, 8, 0.0, 1.0, 5),
        3,
        BitMatrixLayout::ColPacked,
    );
    let out = bit_mm_to_int(&c_left, &w, &KernelConfig::default(), &tracker).unwrap();
    assert_eq!(out.shape(), (32, 8));
    assert!(tracker.snapshot().tc_b1_tiles > 0);
}

#[test]
fn modeled_kernel_time_scales_with_bitwidth() {
    // The same logical GEMM at 2 vs 8 bits: four times the bit planes means roughly
    // four times the Tensor Core work and a correspondingly slower modeled kernel.
    let x = random_uniform_matrix(256, 256, 0.0, 1.0, 6);
    let w = random_uniform_matrix(256, 64, 0.0, 1.0, 7);
    let device = DeviceModel::rtx3090();
    let time_at = |bits: u32| {
        let a = BitTensor::from_f32(&x, bits, BitMatrixLayout::RowPacked);
        let b = BitTensor::from_f32(&w, bits, BitMatrixLayout::ColPacked);
        let tracker = CostTracker::new();
        bit_mm_to_int(&a, &b, &KernelConfig::default(), &tracker).unwrap();
        device.estimate(&tracker.snapshot()).compute_s
    };
    let t2 = time_at(2);
    let t8 = time_at(8);
    assert!(
        t8 > 2.0 * t2,
        "8-bit compute time ({t8:.2e}s) should be several times the 2-bit time ({t2:.2e}s)"
    );
}

#[test]
fn storage_vehicle_matches_paper_compression_claims() {
    // A 2-bit tensor must be ~16x smaller than its fp32 source (modulo tile padding).
    let x = random_uniform_matrix(512, 512, 0.0, 1.0, 8);
    let t = BitTensor::from_f32(&x, 2, BitMatrixLayout::RowPacked);
    let fp32_words = x.len();
    let ratio = fp32_words as f64 / t.storage_words() as f64;
    assert!(ratio > 12.0, "compression ratio {ratio:.1} too low");
}
