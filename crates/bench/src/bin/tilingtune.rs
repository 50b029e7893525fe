//! tilingtune: the tuner behind the committed `TUNE_gemm.json`.
//!
//! It races the zero-word-skip kernel against the condensed adjacency kernel
//! across a fragmentation sweep plus one aggregation shape per Table-1
//! dataset profile, and tunes the `condense_threshold` the
//! `AdjacencyPath::Auto` dispatcher compares its cost ratio against — the
//! table's one tuned value.  Every race asserts the two lanes bitwise equal
//! before it is timed.
//!
//! Usage: `cargo run --release -p qgtc-bench --bin tilingtune`
//!
//! * `QGTC_SCALE=tiny|fast|paper` — problem sizes (default `fast`; any other
//!   value exits with status 2).  `tiny` is the CI setting (a 512-node
//!   fragmented sweep, 128-node batches); every other scale sweeps 2048 nodes
//!   and 512-node batches.
//! * `QGTC_TUNE_OUT` — output path (default `TUNE_gemm.json`; the committed
//!   copy at the repo root is a full-scale run).

use qgtc_bench::report::fmt3;
use qgtc_bench::scale_from_env;
use qgtc_bitmat::condense::{aggregate_adj_features_condensed, CondensedAdjacency};
use qgtc_bitmat::fused::{aggregate_adj_features_fused_skip, PopcountBody};
use qgtc_bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_graph::DatasetProfile;
use qgtc_kernels::adjacency_cost_ratio;
use qgtc_kernels::tile_reuse::random_feature_codes;
use qgtc_tensor::rng::random_uniform_matrix;
use qgtc_tensor::Matrix;
use std::time::Instant;

/// Feature bitwidth for the aggregation shapes.
const AGG_BITS: u32 = 2;
/// Timed repetitions per lane; the bitwise assertion run doubles as the
/// warm-up.
const TUNE_REPS: u32 = 2;

/// The fragmented-sparsity generator of the condense stage (the same family
/// `perfsmoke`'s condense probe races): every 16-row window shares `spread`
/// columns, one per contiguous 64-column region, so partial spread scatters
/// one-word spans (condensation wins) while full spread fuses them into one
/// contiguous run per row (the skip kernel wins).
fn fragmented_sweep_adjacency(n: usize, spread: usize) -> StackedBitMatrix {
    let regions = (n / 64).max(1);
    let spread = spread.clamp(1, regions);
    let mut adjacency: Matrix<f32> = Matrix::zeros(n, n);
    for w in 0..n.div_ceil(16) {
        for s in 0..spread {
            let region = (s * regions) / spread;
            let col = region * 64 + (w * 11 + s * 7) % 64;
            for r in w * 16..((w + 1) * 16).min(n) {
                adjacency.row_mut(r)[col] = 1.0;
            }
        }
    }
    StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked)
}

/// Tune the condensation threshold `AdjacencyPath::Auto` compares
/// [`adjacency_cost_ratio`] against: race the zero-word-skip kernel against
/// the condensed kernel across the fragmentation sweep plus the Table-1
/// profile shapes, then place the threshold at the midpoint of the widest
/// gap separating the cost ratios of condensed-winning batches (below) from
/// skip-winning ones (above).  Falls back to the shipped default when the
/// measured winners are not separable by the ratio (clamped to a sane band
/// either way — the threshold is a tie-breaker, not a free parameter).
fn tune_condense_threshold(frag_nodes: usize, frag_dim: usize, batch: usize) -> f64 {
    const DEFAULT: f64 = 0.75;
    let body = PopcountBody::detect();
    let mut points: Vec<(String, f64, bool)> = Vec::new();

    let regions = frag_nodes / 64;
    let mut shapes: Vec<(String, StackedBitMatrix, StackedBitMatrix)> = Vec::new();
    for (label, spread) in [
        ("fragmented-25", regions / 4),
        ("fragmented-50", regions / 2),
        ("fragmented-100", regions),
    ] {
        let adj = fragmented_sweep_adjacency(frag_nodes, spread.max(1));
        let features = random_feature_codes(frag_nodes, frag_dim, AGG_BITS, 300 + spread as u64);
        let x = StackedBitMatrix::from_codes(&features, AGG_BITS, BitMatrixLayout::ColPacked);
        shapes.push((label.to_string(), adj, x));
    }
    let mut seed = 340u64;
    for profile in DatasetProfile::all() {
        let density = (profile.avg_degree() / batch as f64).clamp(0.005, 0.5) as f32;
        let adjacency = random_uniform_matrix(batch, batch, 0.0, 1.0, seed)
            .map(|&v| (v < density) as u32 as f32);
        let features = random_feature_codes(batch, profile.feature_dim, AGG_BITS, seed + 1);
        seed += 2;
        shapes.push((
            profile.name.to_string(),
            StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked),
            StackedBitMatrix::from_codes(&features, AGG_BITS, BitMatrixLayout::ColPacked),
        ));
    }

    for (name, adj, x) in &shapes {
        let cond = CondensedAdjacency::from_stack(adj);
        // Bitwise agreement first, per the tuner's convention: a lane that
        // disagrees must never be timed, let alone tuned toward.
        let (skip_out, _) = aggregate_adj_features_fused_skip(adj, x);
        let (cond_out, _) = aggregate_adj_features_condensed(&cond, x, body);
        assert_eq!(
            skip_out, cond_out,
            "skip and condensed lanes diverged on {name} during threshold tuning"
        );
        let time = |f: &dyn Fn()| {
            (0..TUNE_REPS)
                .map(|_| {
                    let start = Instant::now();
                    f();
                    start.elapsed().as_nanos()
                })
                .min()
                .unwrap_or(0)
        };
        let skip_ns = time(&|| {
            let _ = aggregate_adj_features_fused_skip(adj, x);
        });
        let cond_ns = time(&|| {
            let _ = aggregate_adj_features_condensed(&cond, x, body);
        });
        let ratio = adjacency_cost_ratio(adj);
        let condensed_wins = cond_ns < skip_ns;
        eprintln!(
            "  condense {:<16} cost ratio {:>7}  skip {:>12} ns  condensed {:>12} ns  -> {}",
            name,
            fmt3(ratio),
            skip_ns,
            cond_ns,
            if condensed_wins { "condensed" } else { "skip" },
        );
        points.push((name.clone(), ratio, condensed_wins));
    }

    // The widest-margin separator: every condensed winner's ratio must sit at
    // or below the threshold, every skip winner's above it.
    let lo = points
        .iter()
        .filter(|(_, _, wins)| *wins)
        .map(|&(_, r, _)| r)
        .fold(f64::NEG_INFINITY, f64::max);
    let hi = points
        .iter()
        .filter(|(_, _, wins)| !*wins)
        .map(|&(_, r, _)| r)
        .fold(f64::INFINITY, f64::min);
    let threshold = if lo.is_finite() && hi.is_finite() && lo < hi {
        ((lo + hi) / 2.0).clamp(0.25, 1.25)
    } else {
        DEFAULT
    };
    eprintln!(
        "  condense threshold: winners separate at ({}, {}) -> {}",
        fmt3(lo),
        fmt3(hi),
        fmt3(threshold),
    );
    threshold
}

fn main() {
    let scale = scale_from_env().name();
    let (frag_nodes, frag_dim, batch) = match scale {
        "tiny" => (512usize, 64usize, 128usize),
        _ => (2048, 128, 512),
    };
    let out_path = std::env::var("QGTC_TUNE_OUT").unwrap_or_else(|_| "TUNE_gemm.json".to_string());
    eprintln!(
        "tilingtune: scale {scale}, condense-threshold sweep (fragmented {frag_nodes}x{frag_dim}, batch {batch})"
    );
    let condense_threshold = tune_condense_threshold(frag_nodes, frag_dim, batch);
    let json = format!(
        concat!(
            "{{\n",
            "  \"file\": \"TUNE_gemm.json\",\n",
            "  \"scale\": \"{}\",\n",
            "  \"reps\": {},\n",
            "  \"generated_by\": \"cargo run --release -p qgtc-bench --bin tilingtune\",\n",
            "  \"note\": \"condense_threshold is the adjacency-path dispatch threshold: the widest-margin separator of the measured skip/condensed winners on the fragmentation sweep, each race asserted bitwise equal before timing\",\n",
            "  \"condense_threshold\": \"{}\"\n",
            "}}\n"
        ),
        scale,
        TUNE_REPS,
        fmt3(condense_threshold),
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|err| {
        eprintln!("tilingtune: cannot write {out_path}: {err}");
        std::process::exit(1);
    });
    eprintln!("tilingtune: wrote {out_path}");
}
