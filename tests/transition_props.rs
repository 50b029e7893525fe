//! Property tests of the one-pass layer transition against the four-pass
//! composition it replaced.
//!
//! [`FusedEpilogue`] runs one row pass (dequantize, scaled addend and
//! activation), a lane-wise range scan ([`Matrix::min_max`]) and one
//! quantize-pack pass.  The oracle here rebuilds the older composition from
//! public pieces: the dense dequantize loop, a separate activation pass, a
//! scalar `f32::min`/`max` fold for the range, per-value
//! [`QuantParams::quantize`] and [`StackedBitMatrix::from_quantized`].
//! Planes, rowsums, `scale` and dense outputs must be equal bit for bit, and
//! `min` equal under `==` (the lane scan may settle a `+0.0`/`-0.0` tie on
//! the other sign).  Non-finite and overflowing activations must give the
//! same `NonFiniteRange` error.
//!
//! The inputs cover accumulators beyond ±2^31, empty, single and odd row
//! counts, every combination of the optional corrections, all three
//! activations, both output layouts, both sides of the 8-bit split between
//! the byte-code and the scalar quantize, values at and just below
//! `max_code`, ±inf and NaN.  One property feeds the epilogue from the
//! pool-parallel GEMM, so ci.sh runs this file at several pool widths.

use proptest::prelude::*;
use qgtc_repro::bitmat::fused::any_bit_gemm_fused_with_stats;
use qgtc_repro::bitmat::gemm::any_bit_gemm_serial;
use qgtc_repro::bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_repro::kernels::fusion::{Activation, EpilogueOutput, FusedEpilogue};
use qgtc_repro::tcsim::cost::CostTracker;
use qgtc_repro::tensor::{Matrix, QuantParams, TensorError};

const BITS: [u32; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 12, 24, 25, 31, 32];
const ROWS: [usize; 8] = [0, 1, 2, 3, 5, 17, 33, 47];
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

/// SplitMix64 stream for building test inputs from one drawn seed.
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

/// `n` floats in `[-8, 8)`; with `specials`, about one in eight is a NaN,
/// an infinity, a signed zero or an extreme finite value.
fn floats(n: usize, state: &mut u64, specials: bool) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let pick = splitmix(state);
            if specials && pick.is_multiple_of(8) {
                SPECIALS[(pick >> 8) as usize % SPECIALS.len()]
            } else {
                uniform(state, -8.0, 8.0)
            }
        })
        .collect()
}

/// Accumulators mixing zeros, small values and magnitudes beyond ±2^31.
fn accumulator(rows: usize, cols: usize, state: &mut u64) -> Matrix<i64> {
    let data = (0..rows * cols)
        .map(|_| {
            let pick = splitmix(state);
            let magnitude = match pick % 8 {
                0 => 0,
                1..=5 => (pick >> 8) as i64 % 64,
                6 => (1i64 << 31) + (pick >> 24) as i64,
                _ => (pick >> 2) as i64,
            };
            if (pick >> 3) & 1 == 0 {
                magnitude
            } else {
                -magnitude
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

/// Dense values probing the quantizer's top edge: with `min = 0` and
/// `max = 2^bits` the scale is exactly 1, so `max_code` and its float
/// neighbours land exactly on and just below the clamp.
fn top_edge_values(rows: usize, cols: usize, bits: u32, state: &mut u64) -> Matrix<f32> {
    let levels = 2f64.powi(bits as i32) as f32;
    let top = ((1u64 << bits) - 1) as f32;
    let mut data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            let k = uniform(state, 0.0, top).floor();
            match splitmix(state) % 6 {
                0 => top,
                1 => top.next_down(),
                2 => k,
                3 => k.next_down().max(0.0),
                4 => k + 0.5,
                _ => levels,
            }
        })
        .collect();
    if data.len() >= 2 {
        data[0] = 0.0;
        data[1] = levels;
    }
    Matrix::from_vec(rows, cols, data).unwrap()
}

/// The scalar `f32::min`/`max` fold `Matrix::min_max` used before the lane
/// scan: `(0, 0)` when empty, `(NaN, NaN)` when any value is NaN.
fn scalar_min_max(values: &[f32]) -> (f32, f32) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let (mut mn, mut mx, mut nan) = (f32::INFINITY, f32::NEG_INFINITY, false);
    for &v in values {
        mn = mn.min(v);
        mx = mx.max(v);
        nan |= v.is_nan();
    }
    if nan {
        (f32::NAN, f32::NAN)
    } else {
        (mn, mx)
    }
}

/// Where the epilogue's input comes from.
enum Entry<'a> {
    Accumulator(&'a Matrix<i64>),
    Dense(Matrix<f32>),
}

/// The four-pass composition: dequantize, addend, activation, then calibrate
/// with the scalar fold, quantize value by value and pack.
fn four_pass(ep: &FusedEpilogue, entry: Entry) -> Result<EpilogueOutput, TensorError> {
    let mut dense = match entry {
        Entry::Accumulator(acc) => {
            let mut dense = Matrix::zeros(acc.rows(), acc.cols());
            for i in 0..acc.rows() {
                let row_offset = ep.row_offset.as_ref().map_or(0.0, |o| o[i]);
                let row_scale = ep.row_scale.as_ref().map_or(1.0, |s| s[i]);
                for j in 0..acc.cols() {
                    let col_offset = ep.col_offset.as_ref().map_or(0.0, |o| o[j]);
                    dense[(i, j)] =
                        (acc[(i, j)] as f32 * ep.accumulator_scale + row_offset + col_offset)
                            * row_scale;
                }
            }
            dense
        }
        Entry::Dense(dense) => dense,
    };
    if let Some(addend) = &ep.addend {
        for (slot, &a) in dense.data_mut().iter_mut().zip(addend.data()) {
            *slot += ep.addend_scale * a;
        }
    }
    for v in dense.data_mut() {
        *v = match ep.activation {
            Activation::None => *v,
            Activation::Relu => v.max(0.0),
            Activation::Tanh => v.tanh(),
        };
    }
    let Some(bits) = ep.requantize_bits else {
        return Ok(EpilogueOutput::Dense(dense));
    };
    let (min, max) = scalar_min_max(dense.data());
    let params = QuantParams::from_range(bits, min, max)?;
    let codes = dense.map(|&v| params.quantize(v));
    let code_rowsums = (0..codes.rows())
        .map(|r| codes.row(r).iter().map(|&c| i64::from(c)).sum())
        .collect();
    Ok(EpilogueOutput::Quantized {
        stack: StackedBitMatrix::from_quantized(&codes, params, ep.output_layout),
        params,
        code_rowsums,
    })
}

/// Floats equal under `==`, or both NaN.
fn same_float(a: f32, b: f32) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

/// The one-pass result equals the oracle's: bits for everything but `min`,
/// which must be equal under `==`.
fn assert_same_transition(
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
            assert_eq!(stack.quant_params(), Some(params), "{context}");
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
            "{context}: one-pass {:?} vs four-pass {:?}",
            fast.map(|_| "output"),
            oracle.map(|_| "output")
        ),
    }
}

/// One transition case, its optional parts chosen by the bits of `flags`:
/// 1 row offset, 2 col offset, 4 row scale, 8 addend, 16 dense entry,
/// 32 row-packed output, 64 special values, 128 top-edge values (dense entry
/// only), 256 dense output instead of re-quantizing.
fn check_transition(
    rows: usize,
    cols: usize,
    bits: u32,
    activation: Activation,
    flags: u32,
    seed: u64,
) {
    let mut state = seed;
    let specials = flags & 64 != 0;
    let mut ep = FusedEpilogue::dequantize_only(uniform(&mut state, 0.001, 2.0));
    ep.activation = activation;
    ep.requantize_bits = (flags & 256 == 0).then_some(bits);
    if flags & 32 != 0 {
        ep = ep.with_output_layout(BitMatrixLayout::RowPacked);
    }
    if flags & 1 != 0 {
        ep = ep.with_row_offset(floats(rows, &mut state, specials));
    }
    if flags & 2 != 0 {
        ep = ep.with_col_offset(floats(cols, &mut state, specials));
    }
    if flags & 4 != 0 {
        let mut scales = floats(rows, &mut state, specials);
        if let Some(first) = scales.first_mut() {
            *first = 0.0; // a zeroed row, as a mean over no neighbours
        }
        ep = ep.with_row_scale(scales);
    }
    if flags & 8 != 0 {
        let addend = Matrix::from_vec(rows, cols, floats(rows * cols, &mut state, specials));
        ep = ep.with_scaled_addend(addend.unwrap(), 1.0 + uniform(&mut state, 0.0, 1.0));
    }
    let context = format!("{rows}x{cols} bits {bits} {activation:?} flags {flags:#b} seed {seed}");
    let tracker = CostTracker::new();
    if flags & 16 == 0 {
        let acc = accumulator(rows, cols, &mut state);
        let fast = ep.apply(&acc, &tracker);
        assert_same_transition(fast, four_pass(&ep, Entry::Accumulator(&acc)), &context);
    } else {
        let dense = if flags & 128 != 0 {
            top_edge_values(rows, cols, bits, &mut state)
        } else {
            Matrix::from_vec(rows, cols, floats(rows * cols, &mut state, specials)).unwrap()
        };
        let fast = ep.apply_dense(dense.clone(), &tracker);
        assert_same_transition(fast, four_pass(&ep, Entry::Dense(dense)), &context);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_transition_matches_the_four_pass_composition(
        rows_index in 0usize..ROWS.len(),
        cols in 1usize..=70,
        bits_index in 0usize..BITS.len(),
        activation_index in 0usize..3,
        flags in 0u32..512,
        seed in any::<u64>(),
    ) {
        check_transition(
            ROWS[rows_index],
            cols,
            BITS[bits_index],
            ACTIVATIONS[activation_index],
            flags,
            seed,
        );
    }

    #[test]
    fn transition_fed_by_the_pooled_gemm_matches_the_serial_composition(
        dims in (1usize..70, 1usize..300, 1usize..40),
        bits in (1u32..=8, 1u32..=8),
        out_bits_index in 0usize..BITS.len(),
        layout_index in 0usize..2,
        seed in any::<u64>(),
    ) {
        // The accumulator comes from the fused GEMM, which splits its rows
        // over the pool; the oracle runs the serial plane composition.
        let ((m, k, n), (s, t)) = (dims, bits);
        let mut state = seed;
        let mut codes = |rows: usize, cols: usize, bits: u32| {
            let data = (0..rows * cols)
                .map(|_| splitmix(&mut state) as u32 & ((1 << bits) - 1))
                .collect();
            Matrix::from_vec(rows, cols, data).unwrap()
        };
        let a = StackedBitMatrix::from_codes(&codes(m, k, s), s, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&codes(k, n, t), t, BitMatrixLayout::ColPacked);
        let layout = [BitMatrixLayout::RowPacked, BitMatrixLayout::ColPacked][layout_index];
        let ep = FusedEpilogue::hidden_layer(0.01, BITS[out_bits_index])
            .with_output_layout(layout)
            .with_row_offset(floats(m, &mut state, false));
        let fast = ep.apply(&any_bit_gemm_fused_with_stats(&a, &b, false).0, &CostTracker::new());
        let serial = any_bit_gemm_serial(&a, &b);
        assert_same_transition(fast, four_pass(&ep, Entry::Accumulator(&serial)), "pooled GEMM");
    }

    #[test]
    fn lane_range_scan_matches_the_scalar_fold_at_any_length(
        len in 0usize..3000,
        specials in 0u32..2,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let values = floats(len, &mut state, specials == 1);
        assert_same_range(&values, &format!("length {len}"));
    }
}

/// The lane scan of `Matrix::min_max` equals the scalar fold: NaN when the
/// fold is, otherwise equal under `==` and bitwise unless the value is zero.
fn assert_same_range(values: &[f32], context: &str) {
    let (min, max) = scalar_min_max(values);
    let matrix = Matrix::from_vec(1, values.len(), values.to_vec()).unwrap();
    let (lane_min, lane_max) = matrix.min_max();
    for (lane, fold) in [(lane_min, min), (lane_max, max)] {
        assert!(same_float(lane, fold), "{context}: {lane} vs {fold}");
        if fold != 0.0 && !fold.is_nan() {
            assert_eq!(lane.to_bits(), fold.to_bits(), "{context}");
        }
    }
}

#[test]
fn lane_range_scan_matches_the_scalar_fold_for_short_runs() {
    // Every length through the 16-lane tail, with NaN, ±inf and ±0 at
    // random positions.
    for len in 0..=40 {
        for seed in 0..25u64 {
            let mut state = seed * 1000 + len as u64;
            let values = floats(len, &mut state, seed % 5 != 0);
            assert_same_range(&values, &format!("length {len} seed {seed}"));
        }
    }
    for values in [
        vec![0.0, -0.0],
        vec![-0.0, 0.0],
        vec![f32::INFINITY; 3],
        vec![f32::NEG_INFINITY; 17],
        vec![f32::NAN],
        vec![1.0, f32::NAN, f32::INFINITY],
    ] {
        assert_same_range(&values, &format!("{values:?}"));
    }
}

#[test]
fn every_bitwidth_and_option_matches_the_four_pass_composition() {
    // A deterministic sweep so each bitwidth, activation and layout meets
    // every optional part, whatever the random cases above drew.
    let shapes = [(0, 5), (1, 1), (1, 70), (3, 16), (7, 33), (17, 47)];
    let mut case = 0u32;
    for bits in BITS {
        for activation in ACTIVATIONS {
            for &(rows, cols) in &shapes {
                for flags in [case % 512, (case * 37 + 11) % 512, 16 | 128 | (case % 64)] {
                    check_transition(rows, cols, bits, activation, flags, u64::from(case));
                    case += 1;
                }
            }
        }
    }
}

#[test]
fn overflowing_and_nan_activations_fail_alike() {
    let tracker = CostTracker::new();
    for bits in [2, 8, 24, 32] {
        for values in [
            vec![0.5, f32::NAN, -1.0, 2.0],
            vec![f32::INFINITY, 0.0, 1.0, 2.0],
            vec![-2e38, 2e38, 0.0, 1.0],
            vec![f32::MIN, f32::MAX, 0.0, 0.0],
        ] {
            let ep = FusedEpilogue::requantize_right_operand(1.0, bits);
            let dense = Matrix::from_vec(2, 2, values.clone()).unwrap();
            let fast = ep.apply_dense(dense.clone(), &tracker);
            assert!(
                matches!(fast, Err(TensorError::NonFiniteRange { .. })),
                "{values:?}"
            );
            assert_same_transition(fast, four_pass(&ep, Entry::Dense(dense)), "overflow");
        }
    }
}
