//! Property tests of the in-kernel epilogue against the epilogue applied to a
//! materialised accumulator.
//!
//! [`qgtc_bmm_with_epilogue`] and [`qgtc_aggregate_with_epilogue`] run
//! [`FusedEpilogue`]'s row pass on every block of rows the GEMM finishes,
//! inside the kernel's pool work items, and merge the blocks' value ranges
//! into the range that calibrates the re-quantization.  The oracle here is
//! [`FusedEpilogue::apply`] on [`any_bit_gemm_serial`]'s accumulator.  Dense
//! values, planes, rowsums and `scale` must be equal bit for bit and `min`
//! equal under `==` (a `+0.0`/`-0.0` tie may settle either way, as in
//! `transition_props`); NaN and ±inf activations must give the same
//! `NonFiniteRange` error.  The in-kernel call must also record exactly what
//! the plain product followed by `apply` records.
//!
//! The inputs cover both popcount bodies, zero-word skipping on and off, row
//! counts around the broadcast kernel's 32-row blocks and its 384-row inline
//! cut, every activation, the scaled addend, every combination of offsets,
//! both output layouts, NaN and ±inf in the corrections, and re-quantization
//! to 1–8, 12 and 32 bits.  The GEMM splits its rows over the pool, so ci.sh
//! runs this file at several pool widths.

use proptest::prelude::*;
use qgtc_repro::bitmat::fused::PopcountBody;
use qgtc_repro::bitmat::gemm::any_bit_gemm_serial;
use qgtc_repro::bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_repro::kernels::backend::BackendChoice;
use qgtc_repro::kernels::bmm::{
    qgtc_aggregate_with_epilogue, qgtc_bmm, qgtc_bmm_with_epilogue, AdjacencyPath, KernelConfig,
};
use qgtc_repro::kernels::fusion::{Activation, EpilogueOutput, FusedEpilogue};
use qgtc_repro::tcsim::cost::CostTracker;
use qgtc_repro::tensor::{Matrix, TensorError, ValueRange};

const ROWS: [usize; 9] = [0, 1, 31, 32, 33, 383, 384, 385, 417];
const OUT_BITS: [u32; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 12, 32];
const ACTIVATIONS: [Activation; 3] = [Activation::None, Activation::Relu, Activation::Tanh];
const SPECIALS: [f32; 7] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    f32::MAX,
    f32::MIN,
];

/// SplitMix64 stream for building test inputs from one seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A float in `[lo, hi)`.
fn uniform(state: &mut u64, lo: f32, hi: f32) -> f32 {
    lo + (splitmix(state) >> 40) as f32 / (1u64 << 24) as f32 * (hi - lo)
}

/// `n` floats in `[-4, 4)`; with `specials`, about one in eight is a NaN, an
/// infinity, a signed zero or an extreme finite value.
fn floats(n: usize, state: &mut u64, specials: bool) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let pick = splitmix(state);
            if specials && pick.is_multiple_of(8) {
                SPECIALS[(pick >> 8) as usize % SPECIALS.len()]
            } else {
                uniform(state, -4.0, 4.0)
            }
        })
        .collect()
}

/// `rows × cols` codes of `bits` bits, about a third of each row's 64-column
/// words zeroed so that skipping has whole words to jump.
fn codes(rows: usize, cols: usize, bits: u32, state: &mut u64) -> Matrix<u32> {
    let mask = if bits == 32 {
        u32::MAX
    } else {
        (1 << bits) - 1
    };
    let mut data: Vec<u32> = (0..rows * cols)
        .map(|_| splitmix(state) as u32 & mask)
        .collect();
    for (i, row) in data.chunks_mut(cols.max(1)).enumerate() {
        for (j, code) in row.iter_mut().enumerate() {
            if (i + j / 64) % 3 == 0 {
                *code = 0;
            }
        }
    }
    Matrix::from_vec(rows, cols, data).unwrap()
}

/// The bodies this host runs, as kernel configurations.
fn backends() -> Vec<BackendChoice> {
    PopcountBody::available()
        .into_iter()
        .map(|body| match body {
            PopcountBody::Portable => BackendChoice::Portable,
            PopcountBody::Avx512 => BackendChoice::Avx512,
        })
        .collect()
}

/// Floats equal under `==`, or both NaN.
fn same_float(a: f32, b: f32) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

/// The in-kernel result equals the oracle's: bits for everything but `min`,
/// which must be equal under `==`, and the same error for a range that cannot
/// be calibrated.
fn assert_same_output(
    fast: Result<EpilogueOutput, TensorError>,
    oracle: Result<EpilogueOutput, TensorError>,
    context: &str,
) {
    match (fast, oracle) {
        (Ok(EpilogueOutput::Dense(fast)), Ok(EpilogueOutput::Dense(oracle))) => {
            assert_eq!(fast.shape(), oracle.shape(), "{context}");
            let bits = |m: &Matrix<f32>| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&oracle), "{context}: dense output");
        }
        (
            Ok(EpilogueOutput::Quantized {
                stack,
                params,
                code_rowsums,
            }),
            Ok(EpilogueOutput::Quantized {
                stack: oracle_stack,
                params: oracle_params,
                code_rowsums: oracle_rowsums,
            }),
        ) => {
            assert_eq!(stack.layout(), oracle_stack.layout(), "{context}");
            assert_eq!(stack.planes(), oracle_stack.planes(), "{context}: planes");
            assert_eq!(code_rowsums, oracle_rowsums, "{context}: rowsums");
            assert_eq!(params.bits, oracle_params.bits, "{context}");
            assert_eq!(
                params.scale.to_bits(),
                oracle_params.scale.to_bits(),
                "{context}: scale"
            );
            assert!(
                params.min == oracle_params.min,
                "{context}: min {} vs {}",
                params.min,
                oracle_params.min
            );
        }
        (
            Err(TensorError::NonFiniteRange { min, max }),
            Err(TensorError::NonFiniteRange {
                min: oracle_min,
                max: oracle_max,
            }),
        ) => {
            assert!(
                same_float(min, oracle_min) && same_float(max, oracle_max),
                "{context}: NonFiniteRange {{ {min}, {max} }} vs {{ {oracle_min}, {oracle_max} }}"
            );
        }
        (fast, oracle) => panic!(
            "{context}: in-kernel {:?} vs applied {:?}",
            fast.map(|_| "output"),
            oracle.map(|_| "output")
        ),
    }
}

/// The range the in-kernel call hands back is the range of the dense values
/// its row pass produced.
fn assert_range_matches(range: &ValueRange, output: &EpilogueOutput, context: &str) {
    if let EpilogueOutput::Dense(dense) = output {
        let (min, max) = range.bounds();
        let (want_min, want_max) = dense.min_max();
        assert!(
            same_float(min, want_min) && same_float(max, want_max),
            "{context}: range ({min}, {max}) vs ({want_min}, {want_max})"
        );
    }
}

/// The epilogue of one case, its optional parts chosen by the bits of
/// `flags`: 1 row offset, 2 col offset, 4 row scale, 8 addend, 16 row-packed
/// output, 32 special values, 64 dense output instead of re-quantizing.
fn epilogue(
    rows: usize,
    cols: usize,
    out_bits: u32,
    activation: Activation,
    flags: u32,
    state: &mut u64,
) -> FusedEpilogue {
    let specials = flags & 32 != 0;
    let mut ep = FusedEpilogue::dequantize_only(uniform(state, 0.001, 0.1));
    ep.activation = activation;
    ep.requantize_bits = (flags & 64 == 0).then_some(out_bits);
    if flags & 16 != 0 {
        ep = ep.with_output_layout(BitMatrixLayout::RowPacked);
    }
    if flags & 1 != 0 {
        ep = ep.with_row_offset(floats(rows, state, specials));
    }
    if flags & 2 != 0 {
        ep = ep.with_col_offset(floats(cols, state, specials));
    }
    if flags & 4 != 0 {
        let mut scales = floats(rows, state, specials);
        if let Some(first) = scales.first_mut() {
            *first = 0.0; // a zeroed row, as a mean over no neighbours
        }
        ep = ep.with_row_scale(scales);
    }
    if flags & 8 != 0 {
        let addend = Matrix::from_vec(rows, cols, floats(rows * cols, state, specials)).unwrap();
        ep = ep.with_scaled_addend(addend, 1.0 + uniform(state, 0.0, 1.0));
    }
    ep
}

/// One case: an `m × k` `s`-bit left operand times a `k × n` `t`-bit right
/// operand, through the in-kernel epilogue on every body with skipping on and
/// off, against `apply` on the serial oracle's accumulator.  A 1-bit left
/// operand also runs the aggregation entry.
#[allow(clippy::too_many_arguments)]
fn check_case(
    (m, k, n): (usize, usize, usize),
    (s, t): (u32, u32),
    out_bits: u32,
    activation: Activation,
    flags: u32,
    seed: u64,
) {
    let mut state = seed;
    let a_codes = codes(m, k, s, &mut state);
    let b_codes = codes(k, n, t, &mut state);
    let a = StackedBitMatrix::from_codes(&a_codes, s, BitMatrixLayout::RowPacked);
    let b = StackedBitMatrix::from_codes(&b_codes, t, BitMatrixLayout::ColPacked);
    let ep = epilogue(m, n, out_bits, activation, flags, &mut state);
    let serial = any_bit_gemm_serial(&a, &b);
    let context = format!(
        "{m}x{k}x{n} bits ({s},{t}) -> {out_bits} {activation:?} flags {flags:#b} seed {seed}"
    );
    for backend in backends() {
        for jumping in [false, true] {
            let config = KernelConfig {
                zero_tile_jumping: jumping,
                backend,
                ..KernelConfig::default()
            };
            let context = format!("{context} {backend:?} jumping {jumping}");
            let oracle_tracker = CostTracker::new();
            assert_eq!(qgtc_bmm(&a, &b, &config, &oracle_tracker), serial);
            let oracle = ep.apply(&serial, &oracle_tracker);
            let oracle_cost = oracle_tracker.snapshot();

            let tracker = CostTracker::new();
            let fast = qgtc_bmm_with_epilogue(&a, &b, &ep, &config, &tracker);
            if let Ok((output, range)) = &fast {
                assert_range_matches(range, output, &context);
            }
            assert_eq!(tracker.snapshot(), oracle_cost, "{context}: costs");
            if s == 1 {
                let fast =
                    qgtc_aggregate_with_epilogue(&a, None, &b, &ep, &config, &CostTracker::new())
                        .map(|(output, _)| output);
                assert_same_output(fast, oracle.clone(), &format!("{context} aggregate"));
            }
            assert_same_output(fast.map(|(output, _)| output), oracle, &context);
        }
    }
}

#[test]
fn every_row_count_bitwidth_and_option_matches_apply() {
    // A deterministic sweep: each row count meets every output bitwidth, and
    // the flags walk through every combination of the optional parts.
    let mut case = 0u32;
    for &m in &ROWS {
        for out_bits in OUT_BITS {
            let activation = ACTIVATIONS[case as usize % ACTIVATIONS.len()];
            let flags = (case * 37 + 11) % 128;
            let s = 1 + case % 3;
            let k = [1, 64, 129, 200][case as usize % 4];
            let n = [1, 8, 17, 40][(case as usize / 4) % 4];
            check_case(
                (m, k, n),
                (s, 2),
                out_bits,
                activation,
                flags,
                u64::from(case),
            );
            case += 1;
        }
    }
    // Every flag combination at least once, on a pooled shape.
    for flags in 0..128 {
        let activation = ACTIVATIONS[flags as usize % ACTIVATIONS.len()];
        let out_bits = OUT_BITS[flags as usize % OUT_BITS.len()];
        check_case(
            (417, 70, 9),
            (1, 3),
            out_bits,
            activation,
            flags,
            1000 + u64::from(flags),
        );
    }
}

#[test]
fn non_finite_activations_fail_alike_in_the_kernel() {
    // Saturating offsets turn whole rows to ±inf (and `inf - inf` to NaN),
    // both in the first block and past the inline cut.
    for m in [3, 400] {
        for (row, col) in [
            (f32::MAX, f32::MAX),
            (f32::INFINITY, f32::NEG_INFINITY),
            (f32::NAN, 0.0),
            (f32::NEG_INFINITY, 1.0),
        ] {
            let mut state = m as u64;
            let a = StackedBitMatrix::from_codes(
                &codes(m, 96, 2, &mut state),
                2,
                BitMatrixLayout::RowPacked,
            );
            let b = StackedBitMatrix::from_codes(
                &codes(96, 5, 2, &mut state),
                2,
                BitMatrixLayout::ColPacked,
            );
            let mut row_offset = vec![0.5; m];
            row_offset[m - 1] = row;
            let ep = FusedEpilogue::requantize_right_operand(1.0, 4)
                .with_row_offset(row_offset)
                .with_col_offset(vec![col; 5]);
            let oracle = ep.apply(&any_bit_gemm_serial(&a, &b), &CostTracker::new());
            assert!(
                matches!(oracle, Err(TensorError::NonFiniteRange { .. })),
                "({row}, {col})"
            );
            for backend in backends() {
                let config = KernelConfig {
                    backend,
                    ..KernelConfig::default()
                };
                let fast = qgtc_bmm_with_epilogue(&a, &b, &ep, &config, &CostTracker::new());
                let oracle = ep.apply(&any_bit_gemm_serial(&a, &b), &CostTracker::new());
                assert_same_output(
                    fast.map(|(output, _)| output),
                    oracle,
                    &format!("m {m} ({row}, {col}) {backend:?}"),
                );
            }
        }
    }
}

#[test]
fn the_condensed_aggregation_runs_the_same_row_pass() {
    // The condensed arm materialises its accumulator and applies the
    // epilogue to it; output and costs match the skip arm's in-kernel run
    // apart from the arm's own dispatch accounting.
    let mut state = 7;
    let adjacency = codes(200, 200, 1, &mut state);
    let a = StackedBitMatrix::from_codes(&adjacency, 1, BitMatrixLayout::RowPacked);
    let b = StackedBitMatrix::from_codes(
        &codes(200, 24, 3, &mut state),
        3,
        BitMatrixLayout::ColPacked,
    );
    let ep = FusedEpilogue::hidden_layer(0.05, 3).with_row_offset(floats(200, &mut state, false));
    let oracle = ep.apply(&any_bit_gemm_serial(&a, &b), &CostTracker::new());
    for path in [AdjacencyPath::Skip, AdjacencyPath::Condensed] {
        let config = KernelConfig {
            adjacency_path: path,
            ..KernelConfig::default()
        };
        let fast = qgtc_aggregate_with_epilogue(&a, None, &b, &ep, &config, &CostTracker::new())
            .map(|(output, _)| output);
        let oracle = oracle.clone();
        assert_same_output(fast, oracle, &format!("{path:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn in_kernel_epilogue_matches_apply_on_random_cases(
        rows_index in 0usize..ROWS.len(),
        k in 1usize..260,
        n in 1usize..70,
        bits in (1u32..=4, 1u32..=4),
        out_bits_index in 0usize..OUT_BITS.len(),
        activation_index in 0usize..3,
        flags in 0u32..128,
        seed in any::<u64>(),
    ) {
        check_case(
            (ROWS[rows_index], k, n),
            bits,
            OUT_BITS[out_bits_index],
            ACTIVATIONS[activation_index],
            flags,
            seed,
        );
    }
}
