//! Conformance suite for the condensed adjacency path: across random shapes,
//! bit widths and sparsity patterns — including the adversarial scattered
//! single-word spans the path was built for and fully empty row windows —
//! `aggregate_adj_features_condensed` must agree **bitwise** with the
//! zero-word-skip kernel and the plane-by-plane serial oracle, on every
//! available popcount body.
//!
//! The pipeline properties extend the contract end to end: on all six Table-1
//! dataset profiles, the serving session must answer bitwise identically no
//! matter which [`AdjacencyPath`] is configured, and the epoch's per-batch
//! sparsity census must cover every batch, the same under every path.  ci.sh's
//! `condense` stage re-runs this file under `RAYON_NUM_THREADS` ∈ {1, 2, 8};
//! `QGTC_CI_FAST=1` shrinks the proptest case counts for the timed CI gate.

use proptest::prelude::*;
use qgtc_repro::bitmat::fused::{any_bit_gemm_fused_with_stats, PopcountBody};
use qgtc_repro::bitmat::gemm::any_bit_gemm_serial;
use qgtc_repro::bitmat::{
    aggregate_adj_features_condensed, BitMatrixLayout, CondensedAdjacency, StackedBitMatrix,
};
use qgtc_repro::core::serve::QgtcSession;
use qgtc_repro::core::{run_epoch, ModelKind, QgtcConfig};
use qgtc_repro::graph::DatasetProfile;
use qgtc_repro::kernels::AdjacencyPath;
use qgtc_repro::tensor::rng::random_uniform_matrix;
use qgtc_repro::tensor::Matrix;

fn condense_cases() -> ProptestConfig {
    let fast = std::env::var("QGTC_CI_FAST").is_ok_and(|v| v == "1");
    ProptestConfig::with_cases(if fast { 6 } else { 24 })
}

/// The pipeline property runs three whole epochs plus a serving sweep per
/// case, so it gets a smaller budget than the kernel-level property (the
/// deterministic `forced_paths_…` test already covers all six profiles).
fn pipeline_cases() -> ProptestConfig {
    let fast = std::env::var("QGTC_CI_FAST").is_ok_and(|v| v == "1");
    ProptestConfig::with_cases(if fast { 2 } else { 6 })
}

/// Binary adjacency in one of three sparsity regimes:
///
/// * `0` — uniform random at `density` (the generic case);
/// * `1` — fragmented: scattered isolated columns, one per 64-column region,
///   staggered per row so no two spans fuse (the skip kernel's worst case and
///   the condensed path's best);
/// * `2` — windowed: uniform random but with every second 16-row window
///   zeroed out entirely, so the condensed grid must skip empty windows.
fn adjacency_matrix(nodes: usize, pattern: usize, density: f64, seed: u64) -> Matrix<f32> {
    let mut adjacency = random_uniform_matrix(nodes, nodes, 0.0, 1.0, seed)
        .map(|&v| (f64::from(v) < density) as u32 as f32);
    match pattern {
        1 => {
            let regions = nodes.div_ceil(64);
            let mut fragmented = Matrix::zeros(nodes, nodes);
            for r in 0..nodes {
                for region in 0..regions {
                    let c = region * 64 + (r * 11 + region * 7) % 64;
                    if c < nodes {
                        fragmented[(r, c)] = 1.0;
                    }
                }
            }
            adjacency = fragmented;
        }
        2 => {
            for r in 0..nodes {
                if (r / 16) % 2 == 1 {
                    for c in 0..nodes {
                        adjacency[(r, c)] = 0.0;
                    }
                }
            }
        }
        _ => {}
    }
    adjacency
}

fn feature_stack(nodes: usize, dim: usize, bits: u32, seed: u64) -> StackedBitMatrix {
    let max = (1u64 << bits) as f32;
    let codes = random_uniform_matrix(nodes, dim, 0.0, max, seed)
        .map(|&v| (v as u32).min((1u32 << bits) - 1));
    StackedBitMatrix::from_codes(&codes, bits, BitMatrixLayout::ColPacked)
}

fn path_config(index: usize, path: AdjacencyPath) -> QgtcConfig {
    let model = if index.is_multiple_of(2) {
        ModelKind::ClusterGcn
    } else {
        ModelKind::BatchedGin
    };
    let bits = [2, 4][index % 2];
    QgtcConfig::qgtc(model, bits)
        .with_partitions(12, 2)
        .with_adjacency_path(path)
}

proptest! {
    #![proptest_config(condense_cases())]

    // The kernel-level contract: condensed == skip == serial oracle, bitwise,
    // for every sparsity regime, bit width and available popcount body.
    #[test]
    fn condensed_matches_skip_and_the_serial_oracle_bitwise(
        dims in (1usize..72, 1usize..24),
        bits in 1u32..=8,
        pattern in 0usize..3,
        density in 0.0f64..0.6,
        seed in 0u64..1_000_000,
    ) {
        let (nodes, dim) = dims;
        let adjacency = adjacency_matrix(nodes, pattern, density, seed);
        let adj = StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked);
        let x = feature_stack(nodes, dim, bits, seed ^ 0xC0DE);

        let oracle = any_bit_gemm_serial(&adj, &x);
        let (skip, _) = any_bit_gemm_fused_with_stats(&adj, &x, true);
        prop_assert_eq!(&skip, &oracle);

        let cond = CondensedAdjacency::from_stack(&adj);
        for body in PopcountBody::available() {
            let (condensed, _) = aggregate_adj_features_condensed(&cond, &x, body);
            prop_assert_eq!(&condensed, &oracle);
        }
    }
}

proptest! {
    #![proptest_config(pipeline_cases())]

    // End to end: on a random dataset profile and (model, bits) cell, every
    // adjacency path sees the same per-batch sparsity census, and the serving
    // session answers bitwise the same under Skip, Condensed and Auto.
    #[test]
    fn every_adjacency_path_is_bitwise_equivalent_through_the_pipeline(
        profile_idx in 0usize..6,
        cell in 0usize..4,
    ) {
        let profiles = DatasetProfile::all();
        let profile = profiles[profile_idx % profiles.len()].clone();
        let dataset = profile.materialize_tiny(29);

        let mut baseline_logits: Option<Vec<Vec<f32>>> = None;
        let mut baseline_sparsity = None;
        for path in [AdjacencyPath::Skip, AdjacencyPath::Condensed, AdjacencyPath::Auto] {
            let config = path_config(cell, path);

            let report = run_epoch(&dataset, &config);
            // The sparsity census covers every batch and reads only the
            // adjacency, never the path that consumed it.
            prop_assert_eq!(report.batch_sparsity.len(), report.num_batches);
            prop_assert_eq!(report.batch_costs.len(), report.num_batches);
            match &baseline_sparsity {
                None => baseline_sparsity = Some(report.batch_sparsity),
                Some(want) => prop_assert_eq!(&report.batch_sparsity, want),
            }

            let mut session = QgtcSession::new(&dataset, &config).expect("session builds");
            let nodes: Vec<usize> = (0..dataset.graph.num_nodes()).collect();
            let response = session.infer(&nodes).expect("healthy serve");
            let logits: Vec<Vec<f32>> = (0..response.node_ids.len())
                .map(|row| response.logits.row(row).to_vec())
                .collect();
            match &baseline_logits {
                None => baseline_logits = Some(logits),
                // Served logits must not depend on the adjacency path.
                Some(want) => prop_assert_eq!(&logits, want),
            }
        }
    }
}

/// The dispatch counters must agree with the configured path: a forced
/// `Condensed` epoch records only condensed dispatches (and a real
/// condensation ratio), a forced `Skip` epoch only skip dispatches.
#[test]
fn forced_paths_record_their_own_dispatch_counters_on_every_profile() {
    for (index, profile) in DatasetProfile::all().iter().enumerate() {
        let dataset = profile.materialize_tiny(29);

        let condensed = run_epoch(&dataset, &path_config(index, AdjacencyPath::Condensed));
        let (skip_n, cond_n) = condensed.adjacency_dispatches();
        assert_eq!(
            skip_n, 0,
            "{}: forced condensed must never skip-dispatch",
            profile.name
        );
        assert!(
            cond_n > 0,
            "{}: condensed dispatches recorded",
            profile.name
        );
        let ratio = condensed.condensation_ratio();
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "{}: condensation ratio {ratio} in (0, 1]",
            profile.name
        );

        let skip = run_epoch(&dataset, &path_config(index, AdjacencyPath::Skip));
        let (skip_n, cond_n) = skip.adjacency_dispatches();
        assert!(skip_n > 0, "{}: skip dispatches recorded", profile.name);
        assert_eq!(
            cond_n, 0,
            "{}: forced skip must never condense",
            profile.name
        );
    }
}
