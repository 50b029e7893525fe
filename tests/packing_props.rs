//! Property tests of the word-at-a-time quantize-and-pack path and the
//! CSR-direct 1-bit adjacency against their per-bit and dense oracles.
//!
//! * the word packer (`StackedBitMatrix::from_codes_in`) builds the same
//!   planes as the per-bit oracle (`from_codes_per_bit`), in both layouts, for
//!   shapes that are not multiples of 8, 32 or 128, with poisoned recycled
//!   storage;
//! * the word unpack (`to_codes`) equals the per-bit unpack;
//! * the floor-free `QuantParams::quantize` equals the `floor` definition;
//! * the fused quantize-pack returns the same stack as quantize-then-pack and
//!   the same rowsums as summing the codes;
//! * every quantize-pack body this host can run (the byte-code path, and the
//!   AVX-512 pass where available) returns that stack and those rowsums, and
//!   the same as every other body, for 1–8 bits in both layouts: on shapes
//!   that are not multiples of 32 rows or 16 columns, on values outside the
//!   calibrated range, NaN, ±inf, ±0, subnormals, bucket edges and random
//!   bit patterns, and into poisoned recycled storage;
//! * the transposing `repack` / `repack_with_rowsums` return the same stack
//!   as unpacking and packing again (`from_codes(&to_codes())`), and the
//!   same rowsums as summing the codes, in both directions and in place;
//! * the adjacency materialised straight from CSR equals a dense `f32` oracle
//!   built the old way — on all six dataset profiles and on CSR input with
//!   duplicate entries and self loops — and its popcount degrees equal the
//!   oracle's `f32` row sums bitwise.

use proptest::prelude::*;
use qgtc_repro::bitmat::fused::PopcountBody;
use qgtc_repro::bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_repro::core::{try_build_plan, ModelKind, QgtcConfig};
use qgtc_repro::graph::{adjacency_degrees, CsrGraph, DatasetProfile, DenseSubgraph};
use qgtc_repro::tensor::{Matrix, QuantParams, Quantizer};

const BITS: [u32; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 16, 32];
const LAYOUTS: [BitMatrixLayout; 2] = [BitMatrixLayout::RowPacked, BitMatrixLayout::ColPacked];

/// SplitMix64 stream for building test inputs from one drawn seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn max_code(bits: u32) -> u32 {
    if bits == 32 {
        u32::MAX
    } else {
        (1 << bits) - 1
    }
}

fn random_codes(rows: usize, cols: usize, bits: u32, seed: u64) -> Matrix<u32> {
    let mut state = seed;
    let data = (0..rows * cols)
        .map(|_| splitmix(&mut state) as u32 & max_code(bits))
        .collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

/// Calibration ranges for the pack-body property: ordinary, degenerate,
/// subnormal-scaled and nearly as wide as `f32`.
const RANGES: [(f32, f32); 8] = [
    (0.0, 1.0),
    (-3.0, 5.0),
    (-7.25, 13.5),
    (2.5, 2.5),
    (-1e-30, 1e-30),
    (-1e-38, 1e-38),
    (0.0, f32::MAX),
    (-1.7e38, 1.7e38),
];

/// One value for the pack-body property under `params`: inside or outside
/// the calibrated range, on or beside a bucket edge, a special value or a
/// random bit pattern.
fn adversarial_value(params: &QuantParams, state: &mut u64) -> f32 {
    const SPECIALS: [f32; 12] = [
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::EPSILON,
        1.0,
        -1.0,
    ];
    let draw = splitmix(state);
    let unit = (draw >> 40) as f32 / (1u64 << 24) as f32;
    let top = params.max_code() as f32 + 1.0;
    match draw % 8 {
        // Anywhere from one range width below the range to one above.
        0..=2 => params.min + (3.0 * unit - 1.0) * top * params.scale,
        3 => {
            let edge = params.min + (unit * top).floor() * params.scale;
            [edge, edge.next_up(), edge.next_down()][(draw >> 8) as usize % 3]
        }
        4 => SPECIALS[(draw >> 8) as usize % SPECIALS.len()],
        // Subnormals of either sign.
        5 => f32::from_bits((draw >> 8) as u32 & 0x807f_ffff),
        _ => f32::from_bits((draw >> 16) as u32),
    }
}

/// Every available quantize-pack body against the two-pass oracle
/// (`quantize_matrix_u32` then `from_quantized`) and against each other, in
/// both layouts, each packing into poisoned recycled storage.
fn assert_pack_bodies_match(values: &Matrix<f32>, params: QuantParams, seed: u64) {
    let codes = Quantizer::new(params).quantize_matrix_u32(values);
    let code_rowsums: Vec<i64> = (0..codes.rows())
        .map(|r| codes.row(r).iter().map(|&c| i64::from(c)).sum())
        .collect();
    let (rows, cols) = values.shape();
    for layout in LAYOUTS {
        let oracle = StackedBitMatrix::from_quantized(&codes, params, layout);
        let mut first: Option<(PopcountBody, StackedBitMatrix, Vec<i64>)> = None;
        for body in PopcountBody::available() {
            let context = format!("{rows}x{cols} at {params:?}, {layout:?}, {body:?}");
            let mut spares: Vec<Vec<u32>> = (0..=params.bits as usize)
                .map(|i| vec![0xDEAD_BEEF; (seed as usize >> (3 * i)) % 700])
                .collect();
            let (packed, rowsums) = StackedBitMatrix::quantize_pack_with_body(
                values,
                params,
                layout,
                &mut spares,
                body,
            );
            assert_eq!(spares.len(), 1, "{context}: one spare per plane");
            assert_eq!(packed, oracle, "{context}");
            assert_eq!(rowsums, code_rowsums, "{context}: rowsums");
            match &first {
                Some((other, stack, sums)) => {
                    assert_eq!(&packed, stack, "{context} vs {other:?}");
                    assert_eq!(&rowsums, sums, "{context} vs {other:?}: rowsums");
                }
                None => first = Some((body, packed, rowsums)),
            }
        }
    }
}

/// The `floor`-based quantize the floor-free form replaced.
fn floor_quantize(p: &QuantParams, v: f32) -> u32 {
    let code = ((v - p.min) / p.scale).floor();
    if code <= 0.0 {
        0
    } else if code >= p.max_code() as f32 {
        p.max_code()
    } else {
        code as u32
    }
}

/// The dense `f32` materialisation the CSR-direct plane replaced: a zeroed
/// total² matrix with a 1.0 per intra-block edge, counting distinct cells.
fn dense_block_diagonal_oracle(
    graph: &CsrGraph,
    partitions: &[Vec<usize>],
) -> (Matrix<f32>, usize) {
    let total: usize = partitions.iter().map(Vec::len).sum();
    let mut local_of = vec![usize::MAX; graph.num_nodes()];
    let mut offset = 0;
    for part in partitions {
        for (i, &global) in part.iter().enumerate() {
            local_of[global] = offset + i;
        }
        offset += part.len();
    }
    let mut dense = Matrix::zeros(total, total);
    let mut edges = 0;
    offset = 0;
    for part in partitions {
        let block = offset..offset + part.len();
        for &u in part {
            for &v in graph.neighbors(u) {
                let lv = local_of[v];
                if lv != usize::MAX && block.contains(&lv) {
                    if dense[(local_of[u], lv)] == 0.0 {
                        edges += 1;
                    }
                    dense[(local_of[u], lv)] = 1.0;
                }
            }
        }
        offset += part.len();
    }
    (dense, edges)
}

/// The plane, its dense expansion and its degrees all agree with `oracle`.
fn assert_matches_dense(sub: &DenseSubgraph, oracle: &Matrix<f32>, context: &str) {
    assert_eq!(sub.adjacency.bits(), 1, "{context}");
    assert_eq!(
        sub.adjacency.layout(),
        BitMatrixLayout::RowPacked,
        "{context}"
    );
    assert_eq!(&sub.dense_adjacency(), oracle, "{context}: dense expansion");
    assert_eq!(
        *sub.adjacency,
        StackedBitMatrix::from_binary_adjacency(oracle, BitMatrixLayout::RowPacked),
        "{context}: packed plane"
    );
    let row_sums: Vec<u32> = (0..oracle.rows())
        .map(|r| oracle.row(r).iter().sum::<f32>().to_bits())
        .collect();
    let degrees: Vec<u32> = adjacency_degrees(&sub.adjacency)
        .iter()
        .map(|d| d.to_bits())
        .collect();
    assert_eq!(degrees, row_sums, "{context}: popcount degrees");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn word_packer_matches_the_per_bit_oracle(
        rows in 1usize..140,
        cols in 1usize..300,
        bits_index in 0usize..10,
        seed in any::<u64>(),
    ) {
        let bits = BITS[bits_index];
        let codes = random_codes(rows, cols, bits, seed);
        for layout in LAYOUTS {
            let oracle = StackedBitMatrix::from_codes_per_bit(&codes, bits, layout);
            // Recycled storage of every size, poisoned: the packer must
            // zero it, padding included.
            let mut spares: Vec<Vec<u32>> = (0..bits as usize)
                .map(|i| vec![0xDEAD_BEEF; (seed as usize >> i) % 2000])
                .collect();
            let packed = StackedBitMatrix::from_codes_in(&codes, bits, layout, &mut spares);
            prop_assert!(spares.is_empty(), "one spare per plane");
            prop_assert_eq!(&packed, &oracle);
            prop_assert_eq!(packed.checksum(), oracle.checksum());
            prop_assert_eq!(packed.to_codes(), codes.clone());
            prop_assert_eq!(packed.to_codes(), oracle.to_codes_per_bit());
        }
    }

    #[test]
    fn fused_quantize_pack_matches_quantize_then_pack(
        rows in 1usize..100,
        cols in 1usize..200,
        bits_index in 0usize..10,
        seed in any::<u64>(),
    ) {
        let bits = BITS[bits_index];
        let mut state = seed;
        let data = (0..rows * cols)
            .map(|_| (splitmix(&mut state) % 20_000) as f32 / 1000.0 - 7.0)
            .collect();
        let values = Matrix::from_vec(rows, cols, data).unwrap();
        let quantizer = Quantizer::calibrate(bits, &values).unwrap();
        let codes = quantizer.quantize_matrix_u32(&values);
        let code_rowsums: Vec<i64> = (0..rows)
            .map(|r| codes.row(r).iter().map(|&c| i64::from(c)).sum())
            .collect();
        for layout in LAYOUTS {
            let two_pass = StackedBitMatrix::from_quantized(&codes, quantizer.params(), layout);
            let mut spares = vec![vec![u32::MAX; 3]; bits as usize + 1];
            let (fused, rowsums) =
                StackedBitMatrix::quantize_pack_in(&values, quantizer.params(), layout, &mut spares);
            prop_assert_eq!(spares.len(), 1);
            prop_assert_eq!(&fused, &two_pass);
            prop_assert_eq!(fused.quant_params(), Some(quantizer.params()));
            prop_assert_eq!(&rowsums, &code_rowsums);
        }
    }

    #[test]
    fn every_pack_body_matches_the_two_pass_oracle_on_any_float(
        rows in 1usize..100,
        cols in 1usize..90,
        bits in 1u32..9,
        range_index in 0usize..RANGES.len(),
        seed in any::<u64>(),
    ) {
        let (min, max) = RANGES[range_index];
        let params = QuantParams::from_range(bits, min, max).unwrap();
        let mut state = seed;
        let data = (0..rows * cols)
            .map(|_| adversarial_value(&params, &mut state))
            .collect();
        let values = Matrix::from_vec(rows, cols, data).unwrap();
        assert_pack_bodies_match(&values, params, seed);
    }

    #[test]
    fn floor_free_quantize_matches_floor_on_any_float(
        raw in any::<u32>(),
        min_raw in -1000.0f32..1000.0,
        width in 0.0f32..500.0,
        bits_index in 0usize..10,
    ) {
        let bits = BITS[bits_index];
        let p = QuantParams::from_range(bits, min_raw, min_raw + width).unwrap();
        let value = f32::from_bits(raw);
        prop_assert_eq!(p.quantize(value), floor_quantize(&p, value));
        // The bucket boundary nearest the value, and its float neighbours.
        let edge = p.min + ((value - p.min) / p.scale).round() * p.scale;
        for probe in [edge, edge.next_up(), edge.next_down()] {
            prop_assert_eq!(p.quantize(probe), floor_quantize(&p, probe));
        }
    }

    #[test]
    fn csr_direct_adjacency_matches_the_dense_oracle_with_duplicates_and_self_loops(
        nodes in 1usize..90,
        edges in 0usize..500,
        parts in 1usize..5,
        seed in any::<u64>(),
    ) {
        // Raw CSR with repeated entries and self loops (from_parts keeps both).
        let mut state = seed;
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); nodes];
        for _ in 0..edges {
            let u = (splitmix(&mut state) % nodes as u64) as usize;
            let v = if splitmix(&mut state).is_multiple_of(8) {
                u
            } else {
                (splitmix(&mut state) % nodes as u64) as usize
            };
            adjacency[u].push(v);
            if splitmix(&mut state).is_multiple_of(4) {
                adjacency[u].push(v);
            }
        }
        let mut row_ptr = vec![0];
        let mut col_indices = Vec::new();
        for list in &mut adjacency {
            list.sort_unstable();
            col_indices.extend_from_slice(list);
            row_ptr.push(col_indices.len());
        }
        let graph = CsrGraph::from_parts(row_ptr, col_indices);

        // A shuffled node order split into `parts` blocks.
        let mut order: Vec<usize> = (0..nodes).collect();
        for i in (1..nodes).rev() {
            order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
        let partitions: Vec<Vec<usize>> = order
            .chunks(nodes.div_ceil(parts))
            .map(<[usize]>::to_vec)
            .collect();
        let sub = DenseSubgraph::batch_block_diagonal(&graph, &partitions);
        let (oracle, oracle_edges) = dense_block_diagonal_oracle(&graph, &partitions);
        prop_assert_eq!(sub.num_edges, oracle_edges);
        assert_matches_dense(&sub, &oracle, "block diagonal");

        // Induced extraction of the whole order: every CSR hit counts.
        let induced = DenseSubgraph::extract(&graph, &order);
        let (induced_oracle, _) = dense_block_diagonal_oracle(&graph, &[order.clone()]);
        let hits: usize = order.iter().map(|&u| graph.neighbors(u).len()).sum();
        prop_assert_eq!(induced.num_edges, hits);
        assert_matches_dense(&induced, &induced_oracle, "induced");
    }
}

#[test]
fn csr_direct_adjacency_matches_the_dense_oracle_on_every_profile() {
    for profile in DatasetProfile::all() {
        let dataset = profile.materialize_tiny(5);
        let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2).with_partitions(12, 3);
        let (plan, _) = try_build_plan(&dataset, &config).expect("plan builds");
        for batch in plan.batches() {
            let sub = batch.to_dense_block_diagonal(&dataset.graph);
            let (oracle, edges) = dense_block_diagonal_oracle(&dataset.graph, &batch.partitions);
            let context = format!("{} batch {}", profile.name, batch.batch_index);
            assert_eq!(sub.num_edges, edges, "{context}");
            assert_matches_dense(&sub, &oracle, &context);
        }
    }
}

#[test]
fn word_packer_handles_empty_and_single_lane_shapes() {
    for (rows, cols) in [(0, 0), (0, 5), (5, 0), (1, 1), (1, 129), (129, 1)] {
        for bits in [1, 3, 32] {
            let codes = random_codes(rows, cols, bits, 9);
            for layout in LAYOUTS {
                let packed = StackedBitMatrix::from_codes(&codes, bits, layout);
                assert_eq!(
                    packed,
                    StackedBitMatrix::from_codes_per_bit(&codes, bits, layout),
                    "{rows}x{cols} at {bits} bits, {layout:?}"
                );
                assert_eq!(packed.to_codes(), codes);
            }
        }
    }
}

#[test]
fn pack_bodies_agree_on_every_vector_and_strip_edge() {
    // Rows around the 32-row column-packed strip, columns around one
    // 16-value vector and one 32-column word, and the empty shapes.
    const ROWS: [usize; 7] = [0, 1, 31, 32, 33, 64, 65];
    const COLS: [usize; 11] = [0, 1, 15, 16, 17, 31, 32, 33, 48, 100, 129];
    for bits in 1..=8 {
        for (index, &(min, max)) in RANGES.iter().enumerate() {
            let params = QuantParams::from_range(bits, min, max).unwrap();
            for rows in ROWS {
                for cols in COLS {
                    let mut state = (bits as usize * 1000 + index * 100 + rows * 7 + cols) as u64;
                    let data = (0..rows * cols)
                        .map(|_| adversarial_value(&params, &mut state))
                        .collect();
                    let values = Matrix::from_vec(rows, cols, data).unwrap();
                    assert_pack_bodies_match(&values, params, state);
                }
            }
        }
    }
}

#[test]
fn transposing_repack_matches_the_unpack_oracle() {
    // Sizes on both sides of the 32-bit transpose block and the PAD128 edge.
    const SIZES: [usize; 6] = [1, 31, 32, 33, 100, 129];
    for bits in (1..=8).chain([16]) {
        let params = QuantParams::from_range(bits, -1.0, 3.0).unwrap();
        for rows in SIZES {
            for cols in SIZES {
                let codes = random_codes(rows, cols, bits, (rows * 1000 + cols) as u64 + 7);
                let rowsums: Vec<i64> = (0..rows)
                    .map(|r| codes.row(r).iter().map(|&c| i64::from(c)).sum())
                    .collect();
                for from in LAYOUTS {
                    let stack = StackedBitMatrix::from_quantized(&codes, params, from);
                    for to in LAYOUTS {
                        let context = format!("{rows}x{cols} at {bits} bits, {from:?} -> {to:?}");
                        let oracle =
                            StackedBitMatrix::from_quantized(&stack.to_codes(), params, to);
                        assert_eq!(stack.repack(to), oracle, "{context}");
                        let (repacked, sums) = stack.repack_with_rowsums(to);
                        assert_eq!(repacked, oracle, "{context}");
                        assert_eq!(sums, rowsums, "{context}: rowsums");
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "does not fit in 3 bits")]
fn word_packer_keeps_the_fits_in_bits_check() {
    let codes = Matrix::from_vec(1, 3, vec![1u32, 8, 2]).unwrap();
    let _ = StackedBitMatrix::from_codes(&codes, 3, BitMatrixLayout::ColPacked);
}
