//! tilingtune: bounded grid-search autotuner for the panel-staged fused GEMM.
//!
//! For every popcount body available on this host and every shape class with a
//! representative workload (the headline 3-bit × 2-bit square GEMM, one
//! aggregation shape per Table-1 dataset profile, and one deliberately small
//! GEMM where staging overhead should lose), the tuner times every
//! [`TilingScheme`] of a bounded grid — row block × column block × K-panel
//! words — and writes the winner per `(body, shape class)` to the autotuner
//! table `TUNE_gemm.json` that `resolve_tiling` consults at kernel dispatch.
//! A final *condense stage* races the zero-word-skip kernel against the
//! condensed adjacency kernel across a fragmentation sweep and tunes the
//! `condense_threshold` the `AdjacencyPath::Auto` dispatcher compares its
//! cost ratio against, written as a flat top-level key of the same table.
//!
//! Every `(scheme, body)` candidate is asserted **bitwise identical** to the
//! portable baseline oracle (result *and* word statistics) before it is timed:
//! a scheme may only change traversal order and cache residency, never a
//! popcount.  The baseline scheme itself is part of the grid, so a class where
//! staging does not pay simply keeps the baseline constants.
//!
//! Usage: `cargo run --release -p qgtc-bench --bin tilingtune`
//!
//! * `QGTC_SCALE=tiny|fast|paper` — problem sizes (default `fast`).  `tiny`
//!   is the CI setting (a 256³ headline, 128-node batches); every other scale
//!   tunes the full 1024³ headline and 512-node batches.
//! * `QGTC_TUNE_OUT` — output path (default `TUNE_gemm.json`; the committed
//!   copy at the repo root is a full-scale run).

use qgtc_bench::report::fmt3;
use qgtc_bitmat::condense::{aggregate_adj_features_condensed, CondensedAdjacency};
use qgtc_bitmat::fused::{
    aggregate_adj_features_fused_skip, any_bit_gemm_fused_with_scheme, FusedGemmStats,
    PopcountBody, TilingScheme,
};
use qgtc_bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_graph::DatasetProfile;
use qgtc_kernels::tile_reuse::random_feature_codes;
use qgtc_kernels::{adjacency_cost_ratio, shape_class};
use qgtc_tensor::rng::random_uniform_matrix;
use qgtc_tensor::Matrix;
use std::time::Instant;

/// The headline bit combination of the paper's running example (3-bit × 2-bit).
const HEADLINE_A_BITS: u32 = 3;
const HEADLINE_B_BITS: u32 = 2;
/// Feature bitwidth for the Table-1 aggregation shapes.
const AGG_BITS: u32 = 2;
/// Timed repetitions per `(shape, scheme, body)` candidate; the bitwise
/// assertion run doubles as the warm-up.
const TUNE_REPS: u32 = 2;

/// The bounded scheme grid.  Row and column blocks bracket the baseline
/// constants (8×4); K panels of 8/16 widened words keep a panel inside L1
/// for the bitwidths the models run, and `0` stages the full K extent.
/// The baseline `8x4x0` is a grid point, so "staging loses" is representable.
fn scheme_grid() -> Vec<TilingScheme> {
    let mut grid = vec![TilingScheme::baseline()];
    for row_block in [8usize, 16, 32] {
        for col_block in [4usize, 8] {
            for k_panel_words in [0usize, 8, 16] {
                let scheme = TilingScheme {
                    row_block,
                    col_block,
                    k_panel_words,
                };
                if !scheme.is_baseline() {
                    grid.push(scheme);
                }
            }
        }
    }
    grid
}

/// One tuning workload: a fixed operand pair plus its oracle result.
struct TuneShape {
    name: String,
    class: &'static str,
    a: StackedBitMatrix,
    b: StackedBitMatrix,
    skip_zero_words: bool,
    oracle: (Matrix<i64>, FusedGemmStats),
}

impl TuneShape {
    fn new(name: String, a: StackedBitMatrix, b: StackedBitMatrix, skip_zero_words: bool) -> Self {
        let class = shape_class(a.rows(), a.cols(), b.cols());
        // The oracle every candidate must reproduce bitwise: the portable
        // body under the baseline scheme (the legacy unstaged kernel).
        let oracle = any_bit_gemm_fused_with_scheme(
            &a,
            &b,
            skip_zero_words,
            PopcountBody::Portable,
            TilingScheme::baseline(),
        );
        Self {
            name,
            class,
            a,
            b,
            skip_zero_words,
            oracle,
        }
    }

    /// Assert `(body, scheme)` reproduces the oracle bitwise, then return the
    /// minimum wall time of `TUNE_REPS` calls (the assertion run warms up).
    fn time_candidate(&self, body: PopcountBody, scheme: TilingScheme) -> u128 {
        let (out, stats) =
            any_bit_gemm_fused_with_scheme(&self.a, &self.b, self.skip_zero_words, body, scheme);
        assert_eq!(
            out,
            self.oracle.0,
            "scheme {scheme} on body {} diverges from the portable oracle on {}",
            body.name(),
            self.name
        );
        assert_eq!(
            stats,
            self.oracle.1,
            "scheme {scheme} on body {} changes the word statistics on {}",
            body.name(),
            self.name
        );
        (0..TUNE_REPS)
            .map(|_| {
                let start = Instant::now();
                let _ = any_bit_gemm_fused_with_scheme(
                    &self.a,
                    &self.b,
                    self.skip_zero_words,
                    body,
                    scheme,
                );
                start.elapsed().as_nanos()
            })
            .min()
            .unwrap_or(0)
    }
}

/// The tuning workload set: headline GEMM, one aggregation shape per Table-1
/// profile (zero-word skipping on — the form the models run), and a small
/// dense GEMM where staging overhead should dominate.
fn build_shapes(headline_size: usize, batch: usize) -> Vec<TuneShape> {
    let mut shapes = Vec::new();
    let a_codes = random_feature_codes(headline_size, headline_size, HEADLINE_A_BITS, 11);
    let b_codes = random_feature_codes(headline_size, headline_size, HEADLINE_B_BITS, 12);
    shapes.push(TuneShape::new(
        format!("headline-{HEADLINE_A_BITS}x{HEADLINE_B_BITS}-{headline_size}"),
        StackedBitMatrix::from_codes(&a_codes, HEADLINE_A_BITS, BitMatrixLayout::RowPacked),
        StackedBitMatrix::from_codes(&b_codes, HEADLINE_B_BITS, BitMatrixLayout::ColPacked),
        false,
    ));
    let mut seed = 20u64;
    for profile in DatasetProfile::all() {
        let density = (profile.avg_degree() / batch as f64).clamp(0.005, 0.5) as f32;
        let adjacency = random_uniform_matrix(batch, batch, 0.0, 1.0, seed)
            .map(|&v| (v < density) as u32 as f32);
        let features = random_feature_codes(batch, profile.feature_dim, AGG_BITS, seed + 1);
        seed += 2;
        shapes.push(TuneShape::new(
            profile.name.to_string(),
            StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked),
            StackedBitMatrix::from_codes(&features, AGG_BITS, BitMatrixLayout::ColPacked),
            true,
        ));
    }
    let small_codes_a = random_feature_codes(48, 256, HEADLINE_A_BITS, 70);
    let small_codes_b = random_feature_codes(256, 48, HEADLINE_B_BITS, 71);
    shapes.push(TuneShape::new(
        "small-dense-48x256x48".to_string(),
        StackedBitMatrix::from_codes(&small_codes_a, HEADLINE_A_BITS, BitMatrixLayout::RowPacked),
        StackedBitMatrix::from_codes(&small_codes_b, HEADLINE_B_BITS, BitMatrixLayout::ColPacked),
        false,
    ));
    shapes
}

/// One winning row of the tune table.
struct TuneResult {
    body: &'static str,
    class: &'static str,
    scheme: TilingScheme,
    speedup_vs_baseline: f64,
}

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
    let scale = std::env::var("QGTC_SCALE").unwrap_or_else(|_| "fast".to_string());
    let (headline_size, batch) = match scale.as_str() {
        "tiny" => (256usize, 128usize),
        _ => (1024, 512),
    };
    let out_path = std::env::var("QGTC_TUNE_OUT").unwrap_or_else(|_| "TUNE_gemm.json".to_string());

    let bodies = PopcountBody::available();
    let grid = scheme_grid();
    eprintln!(
        "tilingtune: scale {scale}, headline {headline_size}^3, batch {batch}, {} schemes, bodies [{}]",
        grid.len(),
        bodies
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let shapes = build_shapes(headline_size, batch);
    let mut classes: Vec<&'static str> = Vec::new();
    for shape in &shapes {
        if !classes.contains(&shape.class) {
            classes.push(shape.class);
        }
    }

    let mut results: Vec<TuneResult> = Vec::new();
    for &body in &bodies {
        for &class in &classes {
            let members: Vec<&TuneShape> = shapes.iter().filter(|s| s.class == class).collect();
            let mut baseline_ns = 0u128;
            let mut best: Option<(TilingScheme, u128)> = None;
            for &scheme in &grid {
                let total_ns: u128 = members
                    .iter()
                    .map(|shape| shape.time_candidate(body, scheme))
                    .sum();
                if scheme.is_baseline() {
                    baseline_ns = total_ns;
                }
                if best.is_none_or(|(_, ns)| total_ns < ns) {
                    best = Some((scheme, total_ns));
                }
            }
            let (scheme, best_ns) = best.expect("non-empty grid");
            let speedup_vs_baseline = if best_ns == 0 {
                1.0
            } else {
                baseline_ns as f64 / best_ns as f64
            };
            eprintln!(
                "  body {:<9} class {:<7} ({} shapes): winner {:<9} {:>12} ns  ({}x vs baseline)",
                body.name(),
                class,
                members.len(),
                scheme.to_string(),
                best_ns,
                fmt3(speedup_vs_baseline),
            );
            results.push(TuneResult {
                body: body.name(),
                class,
                scheme,
                speedup_vs_baseline,
            });
        }
    }

    // The condense stage: tune the adjacency-path dispatch threshold on the
    // same host the scheme winners were measured on.
    let (frag_nodes, frag_dim) = match scale.as_str() {
        "tiny" => (512usize, 64usize),
        _ => (2048, 128),
    };
    eprintln!(
        "tilingtune: condense-threshold sweep (fragmented {frag_nodes}x{frag_dim}, batch {batch})"
    );
    let condense_threshold = tune_condense_threshold(frag_nodes, frag_dim, batch);

    let entry_lines: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"body\": \"{}\", \"shape_class\": \"{}\", ",
                    "\"scheme\": \"{}\", \"speedup_vs_baseline\": {}}}"
                ),
                r.body,
                r.class,
                r.scheme,
                fmt3(r.speedup_vs_baseline),
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"file\": \"TUNE_gemm.json\",\n",
            "  \"scale\": \"{}\",\n",
            "  \"reps\": {},\n",
            "  \"generated_by\": \"cargo run --release -p qgtc-bench --bin tilingtune\",\n",
            "  \"note\": \"winner per (popcount body, shape class) of the bounded scheme grid; every candidate is asserted bitwise identical to the portable baseline oracle (result and word statistics) before timing; condense_threshold is the adjacency-path dispatch threshold tuned by the condense stage (widest-margin separator of measured skip/condensed winners on the fragmentation sweep)\",\n",
            "  \"condense_threshold\": \"{}\",\n",
            "  \"entries\": [\n{}\n  ]\n",
            "}}\n"
        ),
        scale,
        TUNE_REPS,
        fmt3(condense_threshold),
        entry_lines.join(",\n"),
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|err| {
        eprintln!("tilingtune: cannot write {out_path}: {err}");
        std::process::exit(1);
    });
    eprintln!("tilingtune: wrote {out_path} ({} entries)", results.len());
}
