//! Criterion bench behind Figure 7(c) and Table 3: the QGTC aggregation kernel at
//! several bitwidths against the int8/int4 Tensor Core baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qgtc_baselines::{int4_tc_gemm, int8_tc_gemm};
use qgtc_bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_kernels::bmm::{qgtc_aggregate, KernelConfig};
use qgtc_kernels::tile_reuse::random_feature_codes;
use qgtc_tcsim::cost::CostTracker;
use qgtc_tensor::rng::random_uniform_matrix;

const N: usize = 1024;
const DIM: usize = 64;
const DENSITY: f32 = 0.3;

fn operands(bits: u32) -> (StackedBitMatrix, StackedBitMatrix) {
    let adjacency = random_uniform_matrix(N, N, 0.0, 1.0, 1).map(|&v| (v < DENSITY) as u32 as f32);
    let adj = StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked);
    let codes = random_feature_codes(N, DIM, bits, 2);
    let feats = StackedBitMatrix::from_codes(&codes, bits, BitMatrixLayout::ColPacked);
    (adj, feats)
}

fn bench_qgtc_bits(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregation_kernel");
    group.sample_size(10);
    for bits in [1u32, 2, 4, 8] {
        let (adj, feats) = operands(bits);
        group.bench_with_input(BenchmarkId::new("qgtc_bits", bits), &bits, |b, _| {
            b.iter(|| {
                let tracker = CostTracker::new();
                qgtc_aggregate(&adj, &feats, &KernelConfig::default(), &tracker)
            })
        });
    }
    group.finish();
}

fn bench_int_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("int_tc_baselines");
    group.sample_size(10);
    let adjacency = random_uniform_matrix(N, N, 0.0, 1.0, 3).map(|&v| (v < DENSITY) as u32 as f32);
    let embeddings = random_uniform_matrix(N, DIM, 0.0, 1.0, 4);
    group.bench_function("cublas_int8_analogue", |b| {
        b.iter(|| int8_tc_gemm(&adjacency, &embeddings, &CostTracker::new()))
    });
    group.bench_function("cutlass_int4_analogue", |b| {
        b.iter(|| int4_tc_gemm(&adjacency, &embeddings, &CostTracker::new()))
    });
    group.finish();
}

criterion_group!(benches, bench_qgtc_bits, bench_int_baselines);
criterion_main!(benches);
