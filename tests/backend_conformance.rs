//! Conformance suite for the popcount bodies a `BackendChoice` resolves to.
//!
//! Every available [`PopcountBody`], under the baseline `8x4x0` scheme and
//! every staged [`TilingScheme`] below, must be **bitwise** equal to two
//! oracles that share no code with any body:
//!
//! * the product must equal `any_bit_gemm_serial`, the plane-by-plane
//!   composition of single-plane AND+popcount products;
//! * the word statistics must equal the zero-word census of A's planes
//!   (`census_plane_words`, summed): skip on visits exactly the nonzero
//!   widened words, skip off visits every word.
//!
//! The sweep covers random shapes, bit widths 1–8, odd and exactly-padded K
//! values, sparse adjacencies, the requantizing epilogue and all six dataset
//! profiles.  ci.sh's `backend` stage re-runs it under `RAYON_NUM_THREADS`
//! 1/2/8, so the bodies are also held deterministic across pool widths.

use proptest::prelude::*;
use qgtc_repro::bitmat::fused::{
    any_bit_gemm_fused_with_scheme, avx512_popcount_available, FusedGemmStats, PopcountBody,
    TilingScheme,
};
use qgtc_repro::bitmat::gemm::any_bit_gemm_serial;
use qgtc_repro::bitmat::{
    aggregate_adj_features_condensed, BitMatrixLayout, CondensedAdjacency, StackedBitMatrix,
};
use qgtc_repro::graph::DatasetProfile;
use qgtc_repro::kernels::backend::{resolve_auto, BackendChoice};
use qgtc_repro::kernels::bmm::{qgtc_bmm, KernelConfig};
use qgtc_repro::kernels::fusion::FusedEpilogue;
use qgtc_repro::kernels::zero_tile::census_plane_words;
use qgtc_repro::tcsim::CostTracker;
use qgtc_repro::tensor::rng::random_uniform_matrix;
use qgtc_repro::tensor::Matrix;

/// K values that exercise the padding edge cases: odd widths, one short of /
/// exactly at / one past the 128-bit tile boundary, and multi-tile widths —
/// up to several 512-bit vector steps, so the AVX-512 loops run, not just
/// their tails.
const AWKWARD_K: [usize; 14] = [
    1, 31, 127, 128, 129, 200, 255, 256, 511, 512, 513, 1024, 1025, 1600,
];

/// The baseline, the staged schemes the committed tune table dispatches, and
/// edge cases: one-row blocks, odd blocks, a K panel wider than any K here.
const SCHEMES: [&str; 7] = [
    "8x4x0",
    "16x8x0",
    "8x8x8",
    "32x8x16",
    "1x1x1",
    "5x7x3",
    "32x4x1024",
];

fn schemes() -> Vec<TilingScheme> {
    SCHEMES
        .iter()
        .map(|s| TilingScheme::parse(s).expect("valid scheme"))
        .collect()
}

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

/// The word statistics a GEMM with left operand `a` must report, from the
/// census of A's planes.
fn census_stats(a: &StackedBitMatrix, skip: bool) -> FusedGemmStats {
    let (total, nonzero) = a
        .planes()
        .iter()
        .map(census_plane_words)
        .fold((0, 0), |(total, nonzero), census| {
            (total + census.total_words, nonzero + census.visited_words)
        });
    FusedGemmStats {
        total_words: total,
        visited_words: if skip { nonzero } else { total },
    }
}

/// Assert every available body under every scheme in `schemes` matches the
/// serial oracle's product and the census word statistics, skip off and on.
fn assert_conformance(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    schemes: &[TilingScheme],
) -> Result<(), TestCaseError> {
    let want = any_bit_gemm_serial(a, b);
    for skip in [false, true] {
        let want_stats = census_stats(a, skip);
        for body in PopcountBody::available() {
            for &scheme in schemes {
                let (got, got_stats) = any_bit_gemm_fused_with_scheme(a, b, skip, body, scheme);
                prop_assert!(
                    got == want,
                    "{} under {} differs from the serial oracle, skip={}",
                    body.name(),
                    scheme,
                    skip
                );
                prop_assert!(
                    got_stats == want_stats,
                    "{} under {} stats differ from the census, skip={}: {:?} vs {:?}",
                    body.name(),
                    scheme,
                    skip,
                    got_stats,
                    want_stats
                );
            }
        }
    }
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
        assert_conformance(&a, &b, &schemes())?;
    }

    #[test]
    fn backends_match_the_oracle_at_padding_boundaries(
        k_index in 0usize..AWKWARD_K.len(),
        dims in (1usize..20, 1usize..20),
        bits in (1u32..=8, 1u32..=8),
        seed in 0u64..1_000_000,
    ) {
        let k = AWKWARD_K[k_index];
        let (m, n) = dims;
        let (s, t) = bits;
        let (a, b) = stacks(m, k, n, s, t, seed);
        assert_conformance(&a, &b, &schemes())?;
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
        assert_conformance(&a, &b, &[scheme])?;
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
        assert_conformance(&adj, &x, &schemes())?;
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
        let epilogue = FusedEpilogue::hidden_layer(0.125, out_bits);
        let requantize = |acc: &Matrix<i64>| {
            epilogue
                .apply(acc, &CostTracker::new())
                .unwrap()
                .into_quantized_with_rowsums()
                .expect("requantizing epilogue")
        };
        let want = requantize(&any_bit_gemm_serial(&a, &b));
        for body in PopcountBody::available() {
            for scheme in schemes() {
                let (acc, _) = any_bit_gemm_fused_with_scheme(&a, &b, true, body, scheme);
                prop_assert!(
                    requantize(&acc) == want,
                    "{} under {} differs through the epilogue",
                    body.name(),
                    scheme
                );
            }
        }
    }
}

/// Deterministic sweep over all six dataset profiles: the aggregation shape
/// each profile induces (batch adjacency × features at the profile's feature
/// dimension) must match both oracles on every body and scheme.
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
        if let Err(err) = assert_conformance(&adj, &x, &schemes()) {
            panic!("{}: {err}", profile.name);
        }
    }
}

/// The body registry: two named bodies, portable always available, and every
/// `BackendChoice` resolving to the body of the same name.
#[test]
fn registry_exposes_all_backends_and_filters_by_availability() {
    let names: Vec<&str> = PopcountBody::ALL.iter().map(|b| b.name()).collect();
    assert_eq!(names, ["portable", "avx512"]);
    assert!(PopcountBody::Portable.is_available());
    assert_eq!(PopcountBody::available()[0], PopcountBody::Portable);
    for body in PopcountBody::ALL {
        let choice = BackendChoice::from_name(body.name()).expect("every body is a choice");
        assert_eq!(choice.body(), body);
    }
    let auto = resolve_auto();
    assert_ne!(auto, BackendChoice::Auto);
    assert!(BackendChoice::Auto.body().is_available());
    assert_eq!(BackendChoice::Auto.body(), auto.body());
}

/// An explicit `BackendChoice::Avx512` never runs AVX-512 intrinsics on a
/// host that lacks them: both entries that take a body — `qgtc_bmm` and the
/// condensed aggregation — panic naming the body.  Where the host has
/// AVX-512, both run and match the serial oracle.
#[test]
fn explicitly_selecting_unavailable_avx512_panics_on_use() {
    let (a, b) = stacks(9, 200, 7, 3, 2, 1);
    let config = KernelConfig {
        backend: BackendChoice::Avx512,
        ..Default::default()
    };
    let gemm = std::panic::catch_unwind(|| qgtc_bmm(&a, &b, &config, &CostTracker::new()));

    let adj = sparse_adjacency(40, 0.2, 2);
    let x_codes = random_codes(40, 5, 2, 3);
    let x = StackedBitMatrix::from_codes(&x_codes, 2, BitMatrixLayout::ColPacked);
    let cond = CondensedAdjacency::from_stack(&adj);
    let condensed = std::panic::catch_unwind(|| {
        aggregate_adj_features_condensed(&cond, &x, PopcountBody::Avx512).0
    });

    if avx512_popcount_available() {
        assert_eq!(
            gemm.expect("AVX-512 runs here"),
            any_bit_gemm_serial(&a, &b)
        );
        assert_eq!(
            condensed.expect("AVX-512 runs here"),
            any_bit_gemm_serial(&adj, &x)
        );
        return;
    }
    for (entry, result) in [("qgtc_bmm", gemm), ("condensed", condensed)] {
        let payload = result.expect_err("an unavailable body must refuse to run");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(
            msg.contains("Avx512") && msg.contains("not available"),
            "{entry}: {msg:?}"
        );
    }
}
