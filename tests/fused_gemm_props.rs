//! Property suite for the fused GEMM hot path: across random shapes, bit widths
//! 1–8 and odd/exactly-padded K values, the fused kernels must agree
//! bit-for-bit with the plane-by-plane serial oracle of `qgtc_bitmat::gemm`.
//!
//! The production-kernel properties extend the contract to
//! `any_bit_gemm_fused_with_body`, where the AVX-512 body runs the broadcast
//! kernel: on random sparsity, on operands whose bit planes are all zero or
//! all ones, and on block-diagonal adjacencies, every available body must
//! reproduce the serial oracle bitwise and the legacy portable kernel's word
//! statistics, skip off and on.  The broadcast-only properties pass trivially
//! on hosts without AVX-512 VPOPCNTDQ.  ci.sh re-runs this file under
//! `RAYON_NUM_THREADS` 1/2/8 in the `backend` stage, so the kernels are also
//! held deterministic across pool widths.

use proptest::prelude::*;
use qgtc_repro::bitmat::fused::{
    aggregate_adj_features_fused, any_bit_gemm_fused, any_bit_gemm_fused_with_body,
    avx512_popcount_available, PopcountBody, BROADCAST_INLINE_ROWS, BROADCAST_ROW_BLOCK,
};
use qgtc_repro::bitmat::gemm::{aggregate_adj_features, any_bit_gemm_serial};
use qgtc_repro::bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_repro::tensor::rng::random_uniform_matrix;
use qgtc_repro::tensor::Matrix;

/// K values that exercise the padding edge cases: odd widths, one short of /
/// exactly at / one past the 128-bit tile boundary, and multi-tile widths.
const AWKWARD_K: [usize; 8] = [1, 31, 127, 128, 129, 200, 255, 256];

fn random_codes(rows: usize, cols: usize, bits: u32, seed: u64) -> Matrix<u32> {
    let max = (1u64 << bits) as f32;
    random_uniform_matrix(rows, cols, 0.0, max, seed).map(|&v| (v as u32).min((1u32 << bits) - 1))
}

fn stacks(
    m: usize,
    k: usize,
    n: usize,
    s: u32,
    t: u32,
    seed: u64,
) -> (StackedBitMatrix, StackedBitMatrix) {
    let a_codes = random_codes(m, k, s, seed);
    let b_codes = random_codes(k, n, t, seed ^ 0x5DEE_CE66);
    (
        StackedBitMatrix::from_codes(&a_codes, s, BitMatrixLayout::RowPacked),
        StackedBitMatrix::from_codes(&b_codes, t, BitMatrixLayout::ColPacked),
    )
}

/// Assert every available body's production kernel matches the serial
/// oracle and the legacy portable kernel's word statistics, skip off and on.
fn assert_production_kernels(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
) -> Result<(), TestCaseError> {
    let want = any_bit_gemm_serial(a, b);
    for skip in [false, true] {
        let (legacy, legacy_stats) =
            any_bit_gemm_fused_with_body(a, b, skip, PopcountBody::Portable);
        prop_assert_eq!(&legacy, &want);
        for body in PopcountBody::available() {
            let (got, got_stats) = any_bit_gemm_fused_with_body(a, b, skip, body);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got_stats, legacy_stats);
        }
    }
    Ok(())
}

/// Codes whose bit plane `p` is all zero (`kinds[p] == 0`), all ones
/// (`kinds[p] == 1`) or random (otherwise).
fn plane_codes(rows: usize, cols: usize, kinds: &[u8], seed: u64) -> Matrix<u32> {
    let random = random_codes(rows, cols, kinds.len() as u32, seed);
    random.map(|&code| {
        kinds
            .iter()
            .enumerate()
            .map(|(p, &kind)| match kind {
                0 => 0,
                1 => 1 << p,
                _ => code & (1 << p),
            })
            .sum()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_gemm_matches_serial_oracle(
        dims in (1usize..24, 1usize..200, 1usize..24),
        bits in (1u32..=8, 1u32..=8),
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = dims;
        let (s, t) = bits;
        let (a, b) = stacks(m, k, n, s, t, seed);
        prop_assert_eq!(any_bit_gemm_fused(&a, &b), any_bit_gemm_serial(&a, &b));
    }

    #[test]
    fn fused_gemm_matches_oracle_at_padding_boundaries(
        k_index in 0usize..8,
        dims in (1usize..20, 1usize..20),
        bits in (1u32..=8, 1u32..=8),
        seed in 0u64..1_000_000,
    ) {
        let k = AWKWARD_K[k_index];
        let (m, n) = dims;
        let (s, t) = bits;
        let (a, b) = stacks(m, k, n, s, t, seed);
        prop_assert_eq!(any_bit_gemm_fused(&a, &b), any_bit_gemm_serial(&a, &b));
    }

    #[test]
    fn production_kernels_match_the_oracle_on_random_sparsity(
        dims in (1usize..40, 1usize..300, 1usize..80),
        bits in (1u32..=8, 1u32..=8),
        density in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = dims;
        let (s, t) = bits;
        // Element-level sparsity so the skip path sees zero words.
        let mask = random_uniform_matrix(m, k, 0.0, 1.0, seed ^ 0x517A_11CE);
        let mut a_codes = random_codes(m, k, s, seed);
        for r in 0..m {
            for c in 0..k {
                if f64::from(mask[(r, c)]) >= density {
                    a_codes[(r, c)] = 0;
                }
            }
        }
        let b_codes = random_codes(k, n, t, seed ^ 0xBEE5);
        let a = StackedBitMatrix::from_codes(&a_codes, s, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, t, BitMatrixLayout::ColPacked);
        assert_production_kernels(&a, &b)?;
    }

    #[test]
    fn production_kernels_match_the_oracle_on_all_zero_and_all_ones_planes(
        dims in (1usize..40, 1usize..300, 1usize..80),
        a_kinds in proptest::collection::vec(0u8..3, 1..=8),
        b_kinds in proptest::collection::vec(0u8..3, 1..=8),
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = dims;
        let a_codes = plane_codes(m, k, &a_kinds, seed);
        let b_codes = plane_codes(k, n, &b_kinds, seed ^ 0xBEE5);
        let a = StackedBitMatrix::from_codes(
            &a_codes, a_kinds.len() as u32, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(
            &b_codes, b_kinds.len() as u32, BitMatrixLayout::ColPacked);
        assert_production_kernels(&a, &b)?;
    }

    #[test]
    fn production_kernels_match_the_oracle_on_block_diagonal_adjacencies(
        blocks in proptest::collection::vec(1usize..80, 1..6),
        dim in 1usize..80,
        bits in 1u32..=8,
        density in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        // The batched-subgraph shape: dense-ish diagonal blocks, zeros
        // elsewhere, so whole K words of each row are zero.
        let nodes: usize = blocks.iter().sum();
        let noise = random_uniform_matrix(nodes, nodes, 0.0, 1.0, seed);
        let mut adjacency: Matrix<f32> = Matrix::zeros(nodes, nodes);
        let mut start = 0;
        for &size in &blocks {
            for i in start..start + size {
                for j in start..start + size {
                    adjacency[(i, j)] = f32::from(f64::from(noise[(i, j)]) < density);
                }
            }
            start += size;
        }
        let features = random_codes(nodes, dim, bits, seed ^ 0xA5A5);
        let adj = StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&features, bits, BitMatrixLayout::ColPacked);
        assert_production_kernels(&adj, &x)?;
    }

    #[test]
    fn fused_aggregation_matches_plane_composition(
        dims in (1usize..48, 1usize..24),
        bits in 1u32..=8,
        density in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let (nodes, dim) = dims;
        let adjacency = random_uniform_matrix(nodes, nodes, 0.0, 1.0, seed)
            .map(|&v| (f64::from(v) < density) as u32 as f32);
        let features = random_codes(nodes, dim, bits, seed ^ 0xA5A5);
        let adj = StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&features, bits, BitMatrixLayout::ColPacked);
        prop_assert_eq!(
            aggregate_adj_features_fused(&adj, &x),
            aggregate_adj_features(&adj, &x)
        );
    }
}

/// Row counts on both sides of the broadcast kernel's row block and inline
/// cut, over a sparse striped left operand: the pooled and inline paths must
/// both match the oracle and the legacy statistics.
#[test]
fn broadcast_kernel_matches_the_oracle_around_its_row_cuts() {
    if !avx512_popcount_available() {
        eprintln!("skipped: the broadcast kernel needs AVX-512 VPOPCNTDQ");
        return;
    }
    for m in [
        BROADCAST_ROW_BLOCK - 1,
        BROADCAST_ROW_BLOCK,
        BROADCAST_ROW_BLOCK + 1,
        BROADCAST_INLINE_ROWS - 1,
        BROADCAST_INLINE_ROWS,
        BROADCAST_INLINE_ROWS + BROADCAST_ROW_BLOCK + 1,
    ] {
        let mut a_codes = random_codes(m, 300, 2, m as u64);
        for i in 0..m {
            for j in 0..300 {
                if (j / 64 + i) % 3 != 0 {
                    a_codes[(i, j)] = 0;
                }
            }
        }
        let b_codes = random_codes(300, 40, 3, 7 + m as u64);
        let a = StackedBitMatrix::from_codes(&a_codes, 2, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, 3, BitMatrixLayout::ColPacked);
        if let Err(err) = assert_production_kernels(&a, &b) {
            panic!("m = {m}: {err}");
        }
    }
}
