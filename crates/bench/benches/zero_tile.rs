//! Criterion bench behind Figure 8 / §4.3: the aggregation kernel with and without
//! zero-tile jumping on a block-diagonal (batched-subgraph shaped) adjacency.
//!
//! The flag drives both sides of the kernel.  The `with_jumping` wall-clock
//! row times the fused kernel's zero-word-skipping execution (bitwise
//! identical output), which jumps this adjacency's all-zero words;
//! `without_jumping` times the full reduction over every K-loop word.  The
//! *modeled* GPU times printed before the group come from the analytically
//! charged tile walk: the §4.3 effect as the paper measures it.

use criterion::{criterion_group, criterion_main, Criterion};
use qgtc_bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_kernels::bmm::{qgtc_aggregate, KernelConfig};
use qgtc_kernels::tile_reuse::random_feature_codes;
use qgtc_kernels::zero_tile::census_adjacency;
use qgtc_tcsim::cost::CostTracker;
use qgtc_tcsim::DeviceModel;
use qgtc_tensor::rng::random_uniform_matrix;
use qgtc_tensor::Matrix;

const N: usize = 1024;
const BLOCK: usize = 64;
const DIM: usize = 64;
const BITS: u32 = 2;

/// Block-diagonal adjacency with dense 64-node blocks — the shape cluster-GCN
/// batching produces, where most Tensor Core tiles are all-zero.
fn block_diagonal_adjacency() -> Matrix<f32> {
    let mut adjacency = Matrix::zeros(N, N);
    let pattern = random_uniform_matrix(BLOCK, BLOCK, 0.0, 1.0, 9);
    for block in 0..(N / BLOCK) {
        let start = block * BLOCK;
        for i in 0..BLOCK {
            for j in 0..BLOCK {
                if i != j && pattern[(i, j)] < 0.4 {
                    adjacency[(start + i, start + j)] = 1.0;
                }
            }
        }
    }
    adjacency
}

fn bench_zero_tile(c: &mut Criterion) {
    let adjacency = block_diagonal_adjacency();
    let adj = StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked);
    let census = census_adjacency(&adj);
    eprintln!(
        "block-diagonal adjacency: {}/{} non-zero tiles ({:.1}%)",
        census.nonzero_tiles,
        census.total_tiles,
        census.processed_ratio() * 100.0
    );
    let codes = random_feature_codes(N, DIM, BITS, 11);
    let feats = StackedBitMatrix::from_codes(&codes, BITS, BitMatrixLayout::ColPacked);

    // Modeled GPU times: the tile walk charges only the non-zero tiles when
    // jumping is on.
    let device = DeviceModel::rtx3090();
    let modeled = |jumping: bool| {
        let tracker = CostTracker::new();
        let config = KernelConfig {
            zero_tile_jumping: jumping,
            ..KernelConfig::default()
        };
        let _ = qgtc_aggregate(&adj, &feats, &config, &tracker);
        device.estimate(&tracker.snapshot()).total_s
    };
    let (with_s, without_s) = (modeled(true), modeled(false));
    eprintln!(
        "modeled kernel time: with jumping {:.3e} s, without {:.3e} s ({:.2}x)",
        with_s,
        without_s,
        without_s / with_s.max(f64::MIN_POSITIVE)
    );

    let mut group = c.benchmark_group("fig8_zero_tile_jumping");
    group.sample_size(10);
    group.bench_function("with_jumping", |b| {
        let config = KernelConfig::default();
        b.iter(|| qgtc_aggregate(&adj, &feats, &config, &CostTracker::new()))
    });
    group.bench_function("without_jumping", |b| {
        let config = KernelConfig {
            zero_tile_jumping: false,
            ..KernelConfig::default()
        };
        b.iter(|| qgtc_aggregate(&adj, &feats, &config, &CostTracker::new()))
    });
    group.finish();
}

criterion_group!(benches, bench_zero_tile);
criterion_main!(benches);
