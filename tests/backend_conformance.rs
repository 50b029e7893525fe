//! Differential conformance suite for the kernel backends.
//!
//! Every backend registered in `qgtc_kernels::backend` must be **bitwise**
//! equal to the portable oracle on the whole trait surface — fused GEMM, the
//! zero-word-skip path (results *and* word statistics), the panel-staged
//! tiled entry point under arbitrary [`TilingScheme`]s, neighbour aggregation
//! and epilogue requantization — across random shapes, bit widths 1–8, odd
//! and exactly-padded K values and sparsity patterns.  This is the safety net
//! the backend seam ships with: a new backend (a real GPU, wider SIMD, a
//! tile-translation body à la TC-GNN) is "implement `GemmBackend`, pass this
//! suite, register it in the perfsmoke race".
//!
//! ci.sh re-runs the suite under `RAYON_NUM_THREADS` 1/2/8, so backends are
//! also held deterministic across pool widths.

use proptest::prelude::*;
use qgtc_repro::bitmat::fused::TilingScheme;
use qgtc_repro::bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_repro::graph::DatasetProfile;
use qgtc_repro::kernels::backend::{available_backends, registered_backends, PortableBackend};
use qgtc_repro::kernels::fusion::FusedEpilogue;
use qgtc_repro::kernels::GemmBackend;
use qgtc_repro::tcsim::CostTracker;
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

fn sparse_adjacency(nodes: usize, density: f64, seed: u64) -> StackedBitMatrix {
    let dense = random_uniform_matrix(nodes, nodes, 0.0, 1.0, seed)
        .map(|&v| (f64::from(v) < density) as u32 as f32);
    StackedBitMatrix::from_binary_adjacency(&dense, BitMatrixLayout::RowPacked)
}

/// Assert one backend matches the portable oracle bitwise on a GEMM, with
/// skipping both off and on (results and word statistics).
fn assert_gemm_conformance(
    backend: &dyn GemmBackend,
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
) -> Result<(), TestCaseError> {
    let oracle = PortableBackend;
    for skip in [false, true] {
        let (want, want_stats) = oracle.any_bit_gemm_with_stats(a, b, skip);
        let (got, got_stats) = backend.any_bit_gemm_with_stats(a, b, skip);
        prop_assert!(
            got == want,
            "{} result differs, skip={}",
            backend.name(),
            skip
        );
        prop_assert!(
            got_stats == want_stats,
            "{} stats differ, skip={}: {:?} vs {:?}",
            backend.name(),
            skip,
            got_stats,
            want_stats
        );
    }
    prop_assert!(
        backend.any_bit_gemm(a, b) == oracle.any_bit_gemm(a, b),
        "{} plain entry point differs",
        backend.name()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn backends_match_the_oracle_on_random_shapes(
        dims in (1usize..24, 1usize..200, 1usize..24),
        bits in (1u32..=8, 1u32..=8),
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = dims;
        let (s, t) = bits;
        let (a, b) = stacks(m, k, n, s, t, seed);
        for backend in available_backends() {
            assert_gemm_conformance(backend, &a, &b)?;
        }
    }

    #[test]
    fn backends_match_the_oracle_at_padding_boundaries(
        k_index in 0usize..8,
        dims in (1usize..20, 1usize..20),
        bits in (1u32..=8, 1u32..=8),
        seed in 0u64..1_000_000,
    ) {
        let k = AWKWARD_K[k_index];
        let (m, n) = dims;
        let (s, t) = bits;
        let (a, b) = stacks(m, k, n, s, t, seed);
        for backend in available_backends() {
            assert_gemm_conformance(backend, &a, &b)?;
        }
    }

    #[test]
    fn backends_match_the_oracle_under_random_tiling_schemes(
        dims in (1usize..24, 1usize..200, 1usize..20),
        bits in (1u32..=8, 1u32..=8),
        scheme in (1usize..40, 1usize..12, 0usize..40),
        density in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = dims;
        let (s, t) = bits;
        let (row_block, col_block, k_panel_words) = scheme;
        let scheme = TilingScheme { row_block, col_block, k_panel_words };
        // Element-level sparsity so the skip path sees zero words under
        // staging too.
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
        for skip in [false, true] {
            let (want, want_stats) = PortableBackend.any_bit_gemm_with_stats(&a, &b, skip);
            for backend in available_backends() {
                let (got, got_stats) = backend.any_bit_gemm_tiled(&a, &b, skip, scheme);
                prop_assert!(
                    got == want,
                    "{} tiled result differs under {}, skip={}",
                    backend.name(),
                    scheme,
                    skip
                );
                prop_assert!(
                    got_stats == want_stats,
                    "{} tiled stats differ under {}, skip={}: {:?} vs {:?}",
                    backend.name(),
                    scheme,
                    skip,
                    got_stats,
                    want_stats
                );
            }
        }
    }

    #[test]
    fn backends_match_the_oracle_on_sparse_aggregations(
        dims in (1usize..48, 1usize..24),
        bits in 1u32..=8,
        density in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let (nodes, dim) = dims;
        let adj = sparse_adjacency(nodes, density, seed);
        let x_codes = random_codes(nodes, dim, bits, seed ^ 0xA5A5);
        let x = StackedBitMatrix::from_codes(&x_codes, bits, BitMatrixLayout::ColPacked);
        let oracle = PortableBackend;
        let want = oracle.aggregate_adj_features(&adj, &x);
        let (want_skip, want_stats) = oracle.aggregate_adj_features_skip(&adj, &x);
        prop_assert!(want == want_skip, "oracle skip path disagrees with itself");
        for backend in available_backends() {
            prop_assert!(
                backend.aggregate_adj_features(&adj, &x) == want,
                "{} aggregate differs",
                backend.name()
            );
            let (got, got_stats) = backend.aggregate_adj_features_skip(&adj, &x);
            prop_assert!(got == want, "{} aggregate skip differs", backend.name());
            prop_assert!(
                got_stats == want_stats,
                "{} aggregate stats differ: {:?} vs {:?}",
                backend.name(),
                got_stats,
                want_stats
            );
        }
    }

    #[test]
    fn backends_match_the_oracle_through_the_requantizing_epilogue(
        dims in (1usize..16, 1usize..96, 1usize..16),
        bits in (1u32..=8, 1u32..=8, 1u32..=8),
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = dims;
        let (s, t, out_bits) = bits;
        let (a, b) = stacks(m, k, n, s, t, seed);
        let oracle = PortableBackend;
        let acc = oracle.any_bit_gemm(&a, &b);
        let epilogue = FusedEpilogue::hidden_layer(0.125, out_bits);
        let (want_stack, want_params, want_rowsums) = oracle
            .apply_epilogue(&epilogue, &acc, &CostTracker::new())
            .unwrap()
            .into_quantized_with_rowsums()
            .expect("requantizing epilogue");
        for backend in available_backends() {
            let acc_b = backend.any_bit_gemm(&a, &b);
            let (stack, params, rowsums) = backend
                .apply_epilogue(&epilogue, &acc_b, &CostTracker::new())
                .unwrap()
                .into_quantized_with_rowsums()
                .expect("requantizing epilogue");
            prop_assert!(stack == want_stack, "{} epilogue stack differs", backend.name());
            prop_assert!(params == want_params, "{} epilogue params differ", backend.name());
            prop_assert!(rowsums == want_rowsums, "{} epilogue rowsums differ", backend.name());
        }
    }
}

/// Deterministic sweep over all six dataset profiles: the aggregation shape
/// each profile induces (batch adjacency × features at the profile's feature
/// dimension) must be bitwise identical across every available backend.
#[test]
fn backends_agree_on_every_dataset_profile_aggregation() {
    let profiles = DatasetProfile::all();
    assert_eq!(profiles.len(), 6, "the paper evaluates six datasets");
    for (idx, profile) in profiles.iter().enumerate() {
        let nodes = 72 + 8 * idx; // small batch, distinct per profile
        let dim = profile.feature_dim.clamp(1, 96);
        let density = (profile.avg_degree() / nodes as f64).clamp(0.01, 0.9);
        let seed = 0xD15C0 + idx as u64;
        let adj = sparse_adjacency(nodes, density, seed);
        let x_codes = random_codes(nodes, dim, 3, seed ^ 0xFEED);
        let x = StackedBitMatrix::from_codes(&x_codes, 3, BitMatrixLayout::ColPacked);
        let (want, want_stats) = PortableBackend.aggregate_adj_features_skip(&adj, &x);
        for backend in available_backends() {
            let (got, got_stats) = backend.aggregate_adj_features_skip(&adj, &x);
            assert_eq!(got, want, "{} on {}", backend.name(), profile.name);
            assert_eq!(
                got_stats,
                want_stats,
                "{} stats on {}",
                backend.name(),
                profile.name
            );
        }
    }
}

/// The registry itself: three named backends, portable always available, and
/// unavailable backends are exactly the registered-minus-available set.
#[test]
fn registry_exposes_all_backends_and_filters_by_availability() {
    let registered: Vec<&str> = registered_backends().iter().map(|b| b.name()).collect();
    assert_eq!(registered, vec!["portable", "avx512", "modeled-tc"]);
    let available: Vec<&str> = available_backends().iter().map(|b| b.name()).collect();
    assert!(available.contains(&"portable"));
    assert!(available.contains(&"modeled-tc"));
    for backend in registered_backends() {
        assert_eq!(
            available.contains(&backend.name()),
            backend.is_available(),
            "{}",
            backend.name()
        );
    }
}
