//! Quickstart: any-bitwidth matrix multiplication with a modeled Tensor Core cost.
//!
//! Builds two random matrices, quantizes them to 3 and 2 bits, multiplies them with
//! the QGTC kernel (`bitMM2Int`), checks the result against a 64-bit integer GEMM on
//! the codes, and prints the modeled GPU time and the memory saving of the packed
//! representation.
//!
//! Run with: `cargo run --release --example quickstart`

use qgtc_repro::bitmat::BitMatrixLayout;
use qgtc_repro::core::{bit_mm_to_int, BitTensor};
use qgtc_repro::kernels::bmm::KernelConfig;
use qgtc_repro::tcsim::cost::CostTracker;
use qgtc_repro::tcsim::DeviceModel;
use qgtc_repro::tensor::gemm::gemm_i64;
use qgtc_repro::tensor::rng::random_uniform_matrix;

fn main() {
    // 1. Two random fp32 matrices: a 512x512 "activation" and a 512x64 "weight".
    let a = random_uniform_matrix(512, 512, 0.0, 1.0, 1);
    let b = random_uniform_matrix(512, 64, -1.0, 1.0, 2);

    // 2. Quantize and pack them as bit tensors (`Tensor.to_bit(nbits)` in the paper's
    //    PyTorch API). The left operand of a GEMM is row-packed, the right operand
    //    column-packed.
    let a_bits = 3;
    let b_bits = 2;
    let a_q = BitTensor::from_f32(&a, a_bits, BitMatrixLayout::RowPacked);
    let b_q = BitTensor::from_f32(&b, b_bits, BitMatrixLayout::ColPacked);
    println!(
        "packed A: {} bits, {} u32 words (fp32 would need {} words)",
        a_q.bits(),
        a_q.storage_words(),
        a.len()
    );
    println!(
        "packed B: {} bits, {} u32 words (fp32 would need {} words)",
        b_q.bits(),
        b_q.storage_words(),
        b.len()
    );

    // 3. Multiply with the QGTC kernel (zero-tile jumping + tile reuse enabled).
    let tracker = CostTracker::new();
    let product = bit_mm_to_int(&a_q, &b_q, &KernelConfig::default(), &tracker)
        .expect("3 + 2 bits over K = 512 fits the i64 accumulators");

    // 4. Verify against a plain 64-bit integer GEMM over the same quantized codes.
    let reference = gemm_i64(
        &a_q.to_val().map(|&v| v as i64),
        &b_q.to_val().map(|&v| v as i64),
    );
    assert_eq!(product, reference, "bit-composed GEMM must be exact");
    println!(
        "result verified: {}x{} integer outputs match the reference GEMM",
        product.rows(),
        product.cols()
    );

    // 5. Ask the device model what this kernel would cost on an RTX 3090.
    let device = DeviceModel::rtx3090();
    let snapshot = tracker.snapshot();
    let estimate = device.estimate(&snapshot);
    println!(
        "modeled RTX 3090 time: {:.3} ms ({} 1-bit MMA tiles, {} skipped, {:.1} KB DRAM traffic)",
        estimate.total_ms(),
        snapshot.tc_b1_tiles,
        snapshot.tc_b1_tiles_skipped,
        snapshot.dram_bytes() as f64 / 1024.0
    );
    println!(
        "effective throughput: {:.1} TFLOPs",
        device.effective_tflops(DeviceModel::gemm_ops(512, 64, 512), &estimate)
    );
}
