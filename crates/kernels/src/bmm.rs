//! The QGTC any-bitwidth bit-matrix-multiplication kernel.
//!
//! `C = A · B` where `A` is an `s`-bit and `B` a `t`-bit 3D-stacked bit-compressed
//! matrix.  The kernel *executes* through
//! [`qgtc_bitmat::fused::any_bit_gemm_fused_with_body`] — one pass over the
//! output with no intermediate plane products, on the broadcast kernel where
//! AVX-512 runs and the legacy kernel on the portable body — while *charging* the
//! tile-level cost model of the paper's GPU kernel: an 8×8 output-tile grid
//! whose inner loop walks the 128-bit K tiles of each operand plane, issues one
//! `bmma_sync` per surviving plane-tile pair and shift-accumulates the partial
//! products.  That walk is not executed: its traffic and MMA counts are derived
//! analytically from the zero-tile census of the A planes
//! ([`crate::zero_tile::census_plane`]), so the tracker records the GPU
//! kernel's work while the arithmetic runs at fused-host speed.
//!
//! Two optimisations of the paper are toggled by [`KernelConfig`] and affect the
//! recorded cost as they affect the GPU kernel's walk:
//!
//! * **zero-tile jumping** — an all-zero 8×128 A tile (detected with the OR +
//!   ballot sequence of §4.3) skips its MMAs and B-operand loads;
//! * **non-zero tile reuse** — [`ReductionOrder::CrossTile`] loads each surviving A
//!   tile once and reuses it across every bit plane of B (§4.4), while
//!   [`ReductionOrder::CrossBit`] reloads it per plane (the naive order).
//!
//! The special case `A` = 1-bit adjacency, `B` = `s`-bit features is the neighbour
//! aggregation kernel ([`qgtc_aggregate`]); the general case is the node-update
//! GEMM [`qgtc_bmm`], the paper's `bitMM2Int` (the API layer's `bit_mm_to_int`).
//!
//! Each entry comes in two forms over the same kernel loop.  The plain product
//! ([`qgtc_bmm`], [`qgtc_aggregate_prepared`]) returns the `i64` accumulator
//! matrix, which the kernel computes into directly.  The epilogue form
//! ([`qgtc_bmm_with_epilogue`], [`qgtc_aggregate_with_epilogue`]) runs a
//! [`FusedEpilogue`]'s row pass on each block of rows the kernel finishes,
//! inside the kernel's own pool work items (§4.5): only `f32` rows leave the
//! kernel, and the blocks' value ranges merge into the range that calibrates
//! the re-quantization.  The models' forward passes use only the epilogue
//! form, so no `m × n` accumulator matrix is allocated on their path.

use crate::backend::BackendChoice;
use crate::fusion::{EpilogueOutput, FusedEpilogue, RowPassSink};
use crate::tiling::condense_threshold;
use crate::zero_tile::{census_plane, census_plane_words};
use qgtc_bitmat::condense::{
    aggregate_adj_features_condensed, condensed_union_estimate, condensed_word_estimate,
    skip_span_estimate, CondensedAdjacency,
};
pub use qgtc_bitmat::fused::accumulator_fits;
use qgtc_bitmat::fused::{
    any_bit_gemm_fused_into, any_bit_gemm_fused_with_body, FusedGemmStats, PopcountBody,
};
use qgtc_bitmat::pack::{TILE_K, TILE_MN};
use qgtc_bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_tcsim::cost::CostTracker;
use qgtc_tensor::{Matrix, TensorError, ValueRange};

/// Order in which bit planes and K tiles are reduced (paper Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReductionOrder {
    /// Cross-bit reduction: finish each bit plane over all tiles before the next
    /// plane.  Every non-zero A tile is re-loaded once per B bit plane.
    CrossBit,
    /// Cross-tile reduction (non-zero tile reuse): for each A tile, produce the
    /// partial outputs of *all* B bit planes before moving on, so the A tile is
    /// loaded exactly once.
    #[default]
    CrossTile,
}

/// How the neighbour aggregation represents adjacency sparsity.
///
/// The two fixed choices are the two classic sparse-GNN answers: keep the
/// natural width and *skip* zero words via the span index (PR 5/8), or
/// *condense* each row window's nonzero columns into dense TC tiles the way
/// TC-GNN's sparse graph translation does
/// ([`qgtc_bitmat::condense::CondensedAdjacency`]).  Every choice is bitwise
/// identical — the dispatcher only races representations, never semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdjacencyPath {
    /// Decide per batch from the zero-word census: condense when the window
    /// unions shrink the K loop below the fraction of it the span index
    /// already visits (threshold tuned into `TUNE_gemm.json`, see
    /// [`crate::tiling::condense_threshold`]).
    Auto,
    /// Always run the zero-word-skip fused kernel at the source width.
    #[default]
    Skip,
    /// Always run the condensed (sparse-to-dense translated) kernel.
    Condensed,
}

impl AdjacencyPath {
    /// Stable lower-case name, as the perf reports record it.
    pub fn name(self) -> &'static str {
        match self {
            AdjacencyPath::Auto => "auto",
            AdjacencyPath::Skip => "skip",
            AdjacencyPath::Condensed => "condensed",
        }
    }
}

/// Word-equivalent cost the Auto heuristic charges per union column: the
/// condensed kernel's staging gather extracts and re-inserts one bit per union
/// column per feature plane per output column, which empirically costs about
/// this many skip-kernel word operations (each of which covers 64 columns in
/// one vectorised AND+popcount).  Without this term the heuristic condenses
/// wide-union batches whose gather dwarfs the K-loop saving.
const CONDENSE_GATHER_WORD_COST: f64 = 40.0;

/// Word-equivalent cost the Auto heuristic charges per nonzero-word *span* of
/// the skip kernel's index: each span pays a fixed setup (bounds, indexing,
/// loop restart) per output column, so scattered one-word spans cost many
/// times their word count — fragmented rows make the skip kernel measurably
/// slower than the plain fused kernel.  Without this term the heuristic keeps
/// fragmented batches on the skip path even when condensation wins handily.
const SKIP_SPAN_WORD_COST: f64 = 16.0;

/// The adjacency path an aggregation over `adjacency` will actually run:
/// the configured path, with `Auto` resolved from the zero-word census.
/// Always returns `Skip` or `Condensed`.
///
/// The heuristic reads *only* the adjacency (the census the skip kernel
/// derives its span index from, plus the exact condensed-word, union-column
/// and span-count predictions of [`condensed_word_estimate`] /
/// [`condensed_union_estimate`] / [`skip_span_estimate`]), so prepared,
/// direct and serving callers make identical decisions — and identical
/// tracker entries — for the same batch.  Both sides of the comparison scale
/// identically with the feature operand (`planes × output columns`), so
/// dividing it out leaves a pure adjacency-shape race: condensed K words plus
/// the per-union-column gather charge versus the skip kernel's nonzero-word
/// walk plus its per-span setup charge.
pub fn resolve_adjacency_path(
    configured: AdjacencyPath,
    adjacency: &StackedBitMatrix,
) -> AdjacencyPath {
    match configured {
        AdjacencyPath::Skip => AdjacencyPath::Skip,
        AdjacencyPath::Condensed => AdjacencyPath::Condensed,
        AdjacencyPath::Auto => {
            if adjacency_cost_ratio(adjacency) <= condense_threshold() {
                AdjacencyPath::Condensed
            } else {
                AdjacencyPath::Skip
            }
        }
    }
}

/// The Auto heuristic's cost ratio for `adjacency`: the condensed-path
/// estimate (K words plus the per-union-column gather charge) over the skip
/// path's (nonzero words plus the per-span setup charge).  `Auto` condenses
/// when the ratio is at most [`condense_threshold`].  Exposed so the
/// `tilingtune` condense stage can tune that threshold against measured lane
/// times using the exact quantity the dispatcher compares.  An empty
/// adjacency returns `+inf` (resolving to the skip path, which has nothing to
/// walk and no translation to build).
pub fn adjacency_cost_ratio(adjacency: &StackedBitMatrix) -> f64 {
    let plane = adjacency.plane(0);
    let census = census_plane_words(plane);
    let skip = census.visited_words as f64 + SKIP_SPAN_WORD_COST * skip_span_estimate(plane) as f64;
    let condensed = condensed_word_estimate(plane) as f64
        + CONDENSE_GATHER_WORD_COST * condensed_union_estimate(plane) as f64;
    if skip <= 0.0 {
        f64::INFINITY
    } else {
        condensed / skip
    }
}

/// Tunable behaviour of the QGTC kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelConfig {
    /// Skip all-zero 8×128 tiles of the left operand (§4.3).  This toggle
    /// drives both sides of the kernel: the analytic tile walk discounts the
    /// zero tiles of the census, and the fused host execution runs its
    /// word-granular zero-skip index (bitwise identical output, measured word
    /// counts recorded as `fused_words_*` in the tracker).
    pub zero_tile_jumping: bool,
    /// Bit-plane/tile reduction order (§4.4).
    pub reduction_order: ReductionOrder,
    /// Whether epilogues (activation / BN / re-quantization) are fused into the
    /// GEMM kernel rather than launched separately (§4.5).  The flag only affects
    /// cost accounting here; the epilogue math itself lives in [`crate::fusion`].
    pub fused_epilogue: bool,
    /// Which popcount body executes the arithmetic.  `Auto` resolves to the
    /// fastest available body (see [`crate::backend::resolve_auto`]).  The
    /// AVX-512 body runs the broadcast kernel and the portable body the
    /// legacy kernel; every choice is bitwise identical, so this only affects
    /// speed.
    pub backend: BackendChoice,
    /// How [`qgtc_aggregate`] represents adjacency sparsity: zero-word
    /// skipping at the source width, TC-GNN-style condensed tiles, or a
    /// per-batch census-driven race between the two.  Every path is bitwise
    /// identical.
    pub adjacency_path: AdjacencyPath,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            zero_tile_jumping: true,
            reduction_order: ReductionOrder::CrossTile,
            fused_epilogue: true,
            backend: BackendChoice::Auto,
            adjacency_path: AdjacencyPath::Skip,
        }
    }
}

impl KernelConfig {
    /// A configuration with every QGTC optimisation disabled (the ablation baseline).
    pub fn unoptimized() -> Self {
        Self {
            zero_tile_jumping: false,
            reduction_order: ReductionOrder::CrossBit,
            fused_epilogue: false,
            backend: BackendChoice::Auto,
            adjacency_path: AdjacencyPath::Skip,
        }
    }
}

/// Bytes of one 8×128-bit operand tile in packed form.
const TILE_BYTES: u64 = (TILE_MN * TILE_K / 8) as u64;
/// Bytes of one 8×8 `u32` accumulator tile.
const ACC_TILE_BYTES: u64 = (TILE_MN * TILE_MN * 4) as u64;
/// Integer ops charged per A-tile zero check (the OR-reduce of §4.3).
const ZERO_CHECK_OPS: u64 = 8;

/// Number of 8×8×128 tiles along each GEMM dimension of an `m × k` by
/// `k × n` 1-bit product: `(m_tiles, n_tiles, k_tiles)`.
fn tile_counts(m: usize, n: usize, k: usize) -> (usize, usize, usize) {
    (m.div_ceil(TILE_MN), n.div_ceil(TILE_MN), k.div_ceil(TILE_K))
}

/// General any-bitwidth GEMM kernel: `C = A · B` over stacked bit matrices.
///
/// `a` must be row-packed ("column-wise compression"), `b` column-packed.  Returns
/// exact `i64` accumulators over the codes; work is recorded into `tracker`.
/// The plain product: the kernel computes each block of rows straight into
/// the returned matrix ([`qgtc_bitmat::fused::StoreAccumulators`]).
///
/// # Panics
///
/// Panics on a layout or shape mismatch, and when the operands' bitwidths and
/// inner dimension could overflow the accumulators ([`accumulator_fits`]):
/// the fused kernel's shift-accumulate would otherwise wrap silently in
/// release builds.
pub fn qgtc_bmm(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    config: &KernelConfig,
    tracker: &CostTracker,
) -> Matrix<i64> {
    charged_gemm(a, b, config, tracker, |skip, body| {
        any_bit_gemm_fused_with_body(a, b, skip, body)
    })
}

/// [`qgtc_bmm`] with `epilogue` run inside the kernel (paper §4.5): the
/// kernel hands every block of finished rows to the epilogue's row pass while
/// the block's accumulators are still in cache, so only `f32` rows are
/// written and no `m × n` `i64` matrix exists.  The blocks' value ranges merge
/// into the range that calibrates a re-quantizing epilogue.
///
/// Returns the epilogue's output and that range — the range of the values
/// the row pass produced, which [`FusedEpilogue::pack`] reuses to re-quantize
/// a dense output without scanning it again.  Output, range and every tracker
/// number equal [`qgtc_bmm`] followed by [`FusedEpilogue::apply`].
///
/// # Errors
///
/// Fails as [`FusedEpilogue::apply`] does; a batch norm of the wrong width
/// fails before the kernel runs.
///
/// # Panics
///
/// As [`qgtc_bmm`], and as [`FusedEpilogue::check`] — on the calling thread,
/// before the kernel dispatches.
pub fn qgtc_bmm_with_epilogue(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    epilogue: &FusedEpilogue,
    config: &KernelConfig,
    tracker: &CostTracker,
) -> Result<(EpilogueOutput, ValueRange), TensorError> {
    let (m, n) = (a.rows(), b.cols());
    epilogue.check(m, n)?;
    let (dense, range) = charged_gemm(a, b, config, tracker, |skip, body| {
        let mut data = Vec::with_capacity(m * n);
        let sink = RowPassSink { epilogue, cols: n };
        let out = &mut data.spare_capacity_mut()[..m * n];
        let (stats, range) = any_bit_gemm_fused_into(a, b, skip, body, &sink, out);
        // SAFETY: the kernel handed every block of rows of `out` to the sink,
        // and `RowPassSink::block` writes every element of its block; a panic
        // before this line drops `data` empty.
        unsafe { data.set_len(m * n) };
        let dense = Matrix::from_vec(m, n, data).expect("m × n epilogue rows");
        ((dense, range), stats)
    });
    let flops = epilogue.accumulator_flops(m * n);
    Ok((epilogue.finish(dense, &range, flops, tracker)?, range))
}

/// The GEMM behind both entries: check the operands, charge the modeled tile
/// walk, run `kernel(skip, body)` — the configured body's fused kernel with
/// the entry's row sink — and charge its word counts and output traffic.
fn charged_gemm<T>(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    config: &KernelConfig,
    tracker: &CostTracker,
    kernel: impl FnOnce(bool, PopcountBody) -> (T, FusedGemmStats),
) -> T {
    assert_eq!(
        a.layout(),
        BitMatrixLayout::RowPacked,
        "left operand must use column-wise compression (row-packed planes)"
    );
    assert_eq!(
        b.layout(),
        BitMatrixLayout::ColPacked,
        "right operand must use row-wise compression (column-packed planes)"
    );
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimensions differ: {} vs {}",
        a.cols(),
        b.rows()
    );
    assert!(
        accumulator_fits(a.bits(), b.bits(), a.cols()),
        "a {}-bit by {}-bit product over K = {} can overflow the i64 accumulators",
        a.bits(),
        b.bits(),
        a.cols()
    );

    let (m_tiles, n_tiles, _) = tile_counts(a.rows(), b.cols(), a.cols());

    // One kernel launch; the thread-block grid is the output tile grid.
    tracker.record_kernel_launch((m_tiles * n_tiles) as u64);
    record_tile_walk(a, b, config, tracker, n_tiles as u64);
    // The same toggle drives the analytic zero-tile accounting above and the
    // actual execution: with jumping on, the fused kernel skips all-zero A
    // words (bitwise identical output); either way the kernel's own word
    // counts land in the tracker (every word visited, zero skipped, when
    // jumping is off).  The arithmetic runs on the configured popcount body's
    // kernel — every body is bitwise identical with identical word counts, so
    // the tracker numbers don't depend on the selection.
    let (out, stats) = kernel(config.zero_tile_jumping, config.backend.body());
    tracker.record_fused_words(stats.total_words, stats.skipped_words());
    // Output write traffic: one accumulator tile per output tile.
    tracker.record_dram_write((m_tiles * n_tiles) as u64 * ACC_TILE_BYTES);
    out
}

/// Neighbour aggregation kernel `X_new = A · X` with a 1-bit adjacency.
///
/// This is [`qgtc_bmm`] specialised to a 1-bit left operand — the shape for
/// which zero-tile jumping, tile reuse and sparse-to-dense condensation were
/// designed.  Routes through the [`AdjacencyPath`] dispatcher with no cached
/// condensed form (the condensed arm translates on the fly); epoch drivers
/// pass their payload-cached translation via [`qgtc_aggregate_prepared`].
pub fn qgtc_aggregate(
    adjacency: &StackedBitMatrix,
    features: &StackedBitMatrix,
    config: &KernelConfig,
    tracker: &CostTracker,
) -> Matrix<i64> {
    qgtc_aggregate_prepared(adjacency, None, features, config, tracker)
}

/// [`qgtc_aggregate`] with an optional prepare-time condensed translation.
///
/// The dispatcher resolves [`KernelConfig::adjacency_path`] (a fixed path as
/// configured, `Auto` by the census heuristic of [`resolve_adjacency_path`])
/// and records the decision in the tracker's `adj_*_dispatches` counters.
/// When the condensed path runs, a cached `condensed` (built once by the
/// transfer payload and amortized by the serving payload cache) is used
/// as-is; otherwise the translation is built here — host-side work,
/// deterministic, and identical to the cached form, so tracker numbers never
/// depend on who built it.
pub fn qgtc_aggregate_prepared(
    adjacency: &StackedBitMatrix,
    condensed: Option<&CondensedAdjacency>,
    features: &StackedBitMatrix,
    config: &KernelConfig,
    tracker: &CostTracker,
) -> Matrix<i64> {
    dispatch_aggregation(
        adjacency,
        condensed,
        features,
        config,
        tracker,
        |accumulator| accumulator,
        || qgtc_bmm(adjacency, features, config, tracker),
    )
}

/// [`qgtc_aggregate_prepared`] with `epilogue` run inside the kernel, as
/// [`qgtc_bmm_with_epilogue`] runs it.  The condensed arm, which no default
/// configuration takes, materialises its accumulator and runs the same row
/// pass over it ([`FusedEpilogue::apply`]); output, range and tracker numbers
/// are the same either way.
///
/// # Errors and panics
///
/// As [`qgtc_bmm_with_epilogue`] and [`qgtc_aggregate_prepared`].
pub fn qgtc_aggregate_with_epilogue(
    adjacency: &StackedBitMatrix,
    condensed: Option<&CondensedAdjacency>,
    features: &StackedBitMatrix,
    epilogue: &FusedEpilogue,
    config: &KernelConfig,
    tracker: &CostTracker,
) -> Result<(EpilogueOutput, ValueRange), TensorError> {
    epilogue.check(adjacency.rows(), features.cols())?;
    dispatch_aggregation(
        adjacency,
        condensed,
        features,
        config,
        tracker,
        |accumulator| epilogue.apply_ranged(&accumulator, tracker),
        || qgtc_bmm_with_epilogue(adjacency, features, epilogue, config, tracker),
    )
}

/// The adjacency-path dispatch shared by both aggregation entries: the
/// condensed arm hands its materialised accumulator to `condensed_arm`, the
/// skip arm runs `skip_arm`.
fn dispatch_aggregation<T>(
    adjacency: &StackedBitMatrix,
    condensed: Option<&CondensedAdjacency>,
    features: &StackedBitMatrix,
    config: &KernelConfig,
    tracker: &CostTracker,
    condensed_arm: impl FnOnce(Matrix<i64>) -> T,
    skip_arm: impl FnOnce() -> T,
) -> T {
    assert_eq!(adjacency.bits(), 1, "adjacency must be 1-bit");
    match resolve_adjacency_path(config.adjacency_path, adjacency) {
        AdjacencyPath::Condensed => {
            let built;
            let cond = match condensed {
                Some(cached) => cached,
                None => {
                    built = CondensedAdjacency::from_stack(adjacency);
                    &built
                }
            };
            assert_eq!(cond.rows(), adjacency.rows(), "stale condensed cache");
            assert_eq!(cond.cols(), adjacency.cols(), "stale condensed cache");
            condensed_arm(qgtc_aggregate_condensed_impl(
                cond, features, config, tracker,
            ))
        }
        _ => {
            tracker.record_adj_skip_dispatch();
            skip_arm()
        }
    }
}

/// The condensed arm: charge the condensed-tile walk, run the condensed
/// kernel on the configured popcount body, and record the output and dispatch
/// accounting.
fn qgtc_aggregate_condensed_impl(
    cond: &CondensedAdjacency,
    features: &StackedBitMatrix,
    config: &KernelConfig,
    tracker: &CostTracker,
) -> Matrix<i64> {
    let (m_tiles, n_tiles, _) = tile_counts(cond.rows(), features.cols(), cond.cols());
    // One kernel launch; the thread-block grid is (condensed row windows ×
    // output tile columns) — each block owns one window's gather panel.
    tracker.record_kernel_launch((cond.windows().len() * n_tiles) as u64);
    record_condensed_walk(cond, features.bits() as u64, tracker, n_tiles as u64);
    let (out, stats) = aggregate_adj_features_condensed(cond, features, config.backend.body());
    // Same accounting frame as the skip path: total is the source K loop,
    // "skipped" the words condensation removed from it — so the tracker's
    // fused-word ratio reads as "K-loop work avoided" on either path.
    tracker.record_fused_words(stats.total_words, stats.skipped_words());
    tracker.record_dram_write((m_tiles * n_tiles) as u64 * ACC_TILE_BYTES);
    tracker.record_adj_condensed_dispatch(cond.condensed_words(), cond.source_words());
    out
}

/// Charge the tracker with the condensed kernel's analytic tile walk.
///
/// The condensed grid is dense by construction, so there are no zero checks
/// and no skipped tiles: per output tile column the walk reads each window's
/// condensed A tile once (cross-tile reuse), gathers one staged B tile per
/// feature plane (the remap lookup is one integer op per union column per
/// plane), and issues one MMA plus the 64 shift-accumulate ops per surviving
/// plane-tile pair.
fn record_condensed_walk(
    cond: &CondensedAdjacency,
    t_bits: u64,
    tracker: &CostTracker,
    n_tiles: u64,
) {
    if n_tiles == 0 {
        return;
    }
    let mut a_tiles: u64 = 0;
    let mut union_cols: u64 = 0;
    for w in cond.windows() {
        let row_tiles = w.rows.div_ceil(TILE_MN) as u64;
        let k_tiles = w.words_per_row.div_ceil(2) as u64; // 128-bit K tiles
        a_tiles += row_tiles * k_tiles;
        union_cols += w.col_ids.len() as u64;
    }
    let executed = a_tiles * t_bits;
    tracker.record_dram_read((a_tiles + executed) * n_tiles * TILE_BYTES);
    tracker.record_int_ops((union_cols * t_bits + executed * (TILE_MN * TILE_MN) as u64) * n_tiles);
    tracker.record_b1_tiles(executed * n_tiles);
}

/// Charge the tracker with the traffic and MMA counts of the GPU kernel's
/// per-tile walk, derived from a zero-tile census of the A planes.
///
/// For every output tile column the walk visits each `(A plane, row tile, K
/// tile)` triple: it reads the A tile (once per triple under
/// [`ReductionOrder::CrossTile`], once per B plane under
/// [`ReductionOrder::CrossBit`]), spends [`ZERO_CHECK_OPS`] on the OR-reduce
/// zero check, and — unless the tile is zero and jumping is on — reads one B
/// tile and issues one MMA (plus the 64 shift-accumulate ops) per B plane.
fn record_tile_walk(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    config: &KernelConfig,
    tracker: &CostTracker,
    n_tiles: u64,
) {
    if n_tiles == 0 {
        return;
    }
    let mut total: u64 = 0;
    let mut nonzero: u64 = 0;
    for plane in a.planes() {
        let census = census_plane(plane);
        total += census.total_tiles as u64;
        nonzero += census.nonzero_tiles as u64;
    }
    let t_bits = b.bits() as u64;
    let surviving = if config.zero_tile_jumping {
        nonzero
    } else {
        total
    };
    let a_loads = match config.reduction_order {
        ReductionOrder::CrossTile => total,
        ReductionOrder::CrossBit => total * t_bits,
    };
    let executed = surviving * t_bits;
    let skipped = (total - surviving) * t_bits;

    tracker.record_dram_read((a_loads + executed) * n_tiles * TILE_BYTES);
    tracker.record_int_ops(
        (a_loads * ZERO_CHECK_OPS + executed * (TILE_MN * TILE_MN) as u64) * n_tiles,
    );
    tracker.record_b1_tiles(executed * n_tiles);
    if skipped > 0 {
        tracker.record_b1_tiles_skipped(skipped * n_tiles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_tensor::gemm::gemm_i64;
    use qgtc_tensor::rng::random_uniform_matrix;

    #[test]
    #[should_panic(expected = "can overflow the i64 accumulators")]
    fn overflowing_bitwidths_panic_instead_of_wrapping() {
        let ones = |rows, cols| Matrix::from_vec(rows, cols, vec![u32::MAX; rows * cols]).unwrap();
        let a = StackedBitMatrix::from_codes(&ones(4, 128), 32, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&ones(128, 4), 32, BitMatrixLayout::ColPacked);
        qgtc_bmm(&a, &b, &KernelConfig::default(), &CostTracker::new());
    }

    fn random_codes(rows: usize, cols: usize, bits: u32, seed: u64) -> Matrix<u32> {
        let max = (1u64 << bits) as f32;
        random_uniform_matrix(rows, cols, 0.0, max, seed)
            .map(|&v| (v as u32).min((1u32 << bits) - 1))
    }

    fn sparse_adjacency(n: usize, density: f64, seed: u64) -> Matrix<f32> {
        random_uniform_matrix(n, n, 0.0, 1.0, seed).map(|&v| (v < density as f32) as u32 as f32)
    }

    #[test]
    fn kernel_matches_reference_for_all_orders_and_bits() {
        for &(s, t) in &[(1u32, 2u32), (2, 2), (3, 4), (4, 1)] {
            let a_codes = random_codes(20, 260, s, s as u64);
            let b_codes = random_codes(260, 12, t, 100 + t as u64);
            let a = StackedBitMatrix::from_codes(&a_codes, s, BitMatrixLayout::RowPacked);
            let b = StackedBitMatrix::from_codes(&b_codes, t, BitMatrixLayout::ColPacked);
            let reference = gemm_i64(&a_codes.map(|&v| v as i64), &b_codes.map(|&v| v as i64));
            for order in [ReductionOrder::CrossBit, ReductionOrder::CrossTile] {
                for jumping in [false, true] {
                    let cfg = KernelConfig {
                        zero_tile_jumping: jumping,
                        reduction_order: order,
                        ..KernelConfig::default()
                    };
                    let tracker = CostTracker::new();
                    let out = qgtc_bmm(&a, &b, &cfg, &tracker);
                    assert_eq!(
                        out, reference,
                        "bits ({s},{t}), order {order:?}, jump {jumping}"
                    );
                }
            }
        }
    }

    #[test]
    fn aggregation_matches_reference_on_sparse_adjacency() {
        let adj = sparse_adjacency(64, 0.05, 7);
        let x_codes = random_codes(64, 16, 4, 8);
        let a = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&x_codes, 4, BitMatrixLayout::ColPacked);
        let tracker = CostTracker::new();
        let out = qgtc_aggregate(&a, &x, &KernelConfig::default(), &tracker);
        let reference = gemm_i64(&adj.map(|&v| v as i64), &x_codes.map(|&v| v as i64));
        assert_eq!(out, reference);
    }

    #[test]
    fn zero_tile_jumping_skips_tiles_on_sparse_input() {
        // Block-diagonal adjacency (the batched-subgraph shape): two dense 48-node
        // communities inside a 256-node batch, everything else zero.
        let mut adj: Matrix<f32> = Matrix::zeros(256, 256);
        let dense_block = sparse_adjacency(48, 0.4, 3);
        for &start in &[0usize, 128] {
            for i in 0..48 {
                for j in 0..48 {
                    if dense_block[(i, j)] != 0.0 {
                        adj[(start + i, start + j)] = 1.0;
                    }
                }
            }
        }
        let x_codes = random_codes(256, 32, 2, 4);
        let a = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&x_codes, 2, BitMatrixLayout::ColPacked);

        let with = CostTracker::new();
        let _ = qgtc_aggregate(&a, &x, &KernelConfig::default(), &with);
        let without = CostTracker::new();
        let cfg_off = KernelConfig {
            zero_tile_jumping: false,
            ..KernelConfig::default()
        };
        let _ = qgtc_aggregate(&a, &x, &cfg_off, &without);

        let sw = with.snapshot();
        let so = without.snapshot();
        assert!(
            sw.tc_b1_tiles_skipped > 0,
            "sparse input must produce skipped tiles"
        );
        assert!(
            sw.tc_b1_tiles < so.tc_b1_tiles,
            "jumping must reduce executed MMAs"
        );
        assert_eq!(so.tc_b1_tiles_skipped, 0);
    }

    #[test]
    fn cross_tile_reuse_reduces_adjacency_reloads() {
        // Dense adjacency (all ones) so zero-tile jumping never triggers; the only
        // difference between the orders is how often A tiles are re-read.
        let adj = Matrix::filled(128, 128, 1.0f32);
        let x_codes = random_codes(128, 64, 8, 5);
        let a = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&x_codes, 8, BitMatrixLayout::ColPacked);

        let reuse = CostTracker::new();
        let cfg_reuse = KernelConfig {
            reduction_order: ReductionOrder::CrossTile,
            ..KernelConfig::default()
        };
        let out_reuse = qgtc_aggregate(&a, &x, &cfg_reuse, &reuse);

        let naive = CostTracker::new();
        let cfg_naive = KernelConfig {
            reduction_order: ReductionOrder::CrossBit,
            ..KernelConfig::default()
        };
        let out_naive = qgtc_aggregate(&a, &x, &cfg_naive, &naive);

        assert_eq!(out_reuse, out_naive);
        let sr = reuse.snapshot();
        let sn = naive.snapshot();
        assert_eq!(sr.tc_b1_tiles, sn.tc_b1_tiles, "same MMA count either way");
        assert!(
            sr.dram_read_bytes < sn.dram_read_bytes,
            "tile reuse must reduce global reads (reuse {} vs naive {})",
            sr.dram_read_bytes,
            sn.dram_read_bytes
        );
    }

    #[test]
    fn launch_and_block_accounting() {
        let a_codes = random_codes(16, 128, 1, 1);
        let b_codes = random_codes(128, 16, 1, 2);
        let a = StackedBitMatrix::from_codes(&a_codes, 1, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, 1, BitMatrixLayout::ColPacked);
        let tracker = CostTracker::new();
        let _ = qgtc_bmm(&a, &b, &KernelConfig::default(), &tracker);
        let s = tracker.snapshot();
        assert_eq!(s.kernel_launches, 1);
        assert_eq!(s.thread_blocks, 2 * 2); // 16/8 x 16/8 output tiles
        assert!(s.dram_write_bytes > 0);
    }

    #[test]
    fn analytic_walk_matches_hand_count_on_dense_input() {
        // 16x128 1-bit A (2 row tiles x 1 K tile, all ones) times 3-bit B with 16
        // columns (2 output tile columns): every count is small enough to check
        // by hand against the per-tile walk's bookkeeping.
        let a = StackedBitMatrix::from_binary_adjacency(
            &Matrix::filled(16, 128, 1.0f32),
            BitMatrixLayout::RowPacked,
        );
        let b_codes = random_codes(128, 16, 3, 6);
        let b = StackedBitMatrix::from_codes(&b_codes, 3, BitMatrixLayout::ColPacked);
        let tracker = CostTracker::new();
        let _ = qgtc_bmm(&a, &b, &KernelConfig::default(), &tracker);
        let s = tracker.snapshot();
        // 2 A tiles, none zero; per output tile column: 2 A loads + 2*3 B loads.
        assert_eq!(s.tc_b1_tiles, 2 * 3 * 2);
        assert_eq!(s.tc_b1_tiles_skipped, 0);
        assert_eq!(s.dram_read_bytes, (2 + 6) * 2 * 128);
        assert_eq!(s.cuda_int_ops, (2 * 8 + 6 * 64) * 2);
    }

    #[test]
    fn analytic_walk_matches_hand_count_on_sparse_input() {
        // Independent quantitative check of every config arm, with numbers
        // derived by hand from the per-tile walk's semantics (not from
        // census_plane): a 16x256 1-bit A holding a single edge at (0, 0), so
        // of its 2x2 tile grid exactly one tile — (row tile 0, K tile 0) — is
        // non-zero.  B is 2-bit with 16 columns: 2 output tile columns, t = 2.
        let mut adjacency: Matrix<f32> = Matrix::zeros(16, 256);
        adjacency[(0, 0)] = 1.0;
        let a = StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked);
        let b_codes = random_codes(256, 16, 2, 7);
        let b = StackedBitMatrix::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked);
        // total A tiles = 4, non-zero = 1, zero = 3; n_tiles = 2.
        let run = |order: ReductionOrder, jumping: bool| {
            let tracker = CostTracker::new();
            let cfg = KernelConfig {
                zero_tile_jumping: jumping,
                reduction_order: order,
                ..KernelConfig::default()
            };
            let _ = qgtc_bmm(&a, &b, &cfg, &tracker);
            tracker.snapshot()
        };

        // CrossTile + jumping: 4 A loads, 1*2 MMAs, 3*2 skips per tile column.
        let s = run(ReductionOrder::CrossTile, true);
        assert_eq!(s.tc_b1_tiles, 2 * 2);
        assert_eq!(s.tc_b1_tiles_skipped, 6 * 2);
        assert_eq!(s.dram_read_bytes, (4 + 2) * 2 * 128);
        assert_eq!(s.cuda_int_ops, (4 * 8 + 2 * 64) * 2);

        // CrossBit + jumping: the A tile is re-loaded once per B plane (8
        // loads), same MMAs and skips.
        let s = run(ReductionOrder::CrossBit, true);
        assert_eq!(s.tc_b1_tiles, 2 * 2);
        assert_eq!(s.tc_b1_tiles_skipped, 6 * 2);
        assert_eq!(s.dram_read_bytes, (8 + 2) * 2 * 128);
        assert_eq!(s.cuda_int_ops, (8 * 8 + 2 * 64) * 2);

        // CrossTile without jumping: all 4*2 MMAs execute, nothing skipped.
        let s = run(ReductionOrder::CrossTile, false);
        assert_eq!(s.tc_b1_tiles, 8 * 2);
        assert_eq!(s.tc_b1_tiles_skipped, 0);
        assert_eq!(s.dram_read_bytes, (4 + 8) * 2 * 128);
        assert_eq!(s.cuda_int_ops, (4 * 8 + 8 * 64) * 2);
    }

    #[test]
    fn analytic_walk_matches_hand_count_on_a_multibit_left_operand() {
        // The update GEMM's shape: a 2-bit 16x256 A holding code 1 at (0, 0)
        // only, so plane 0 has one nonzero tile of its 2x2 tile grid and
        // plane 1 none: 8 A tiles, 1 nonzero.  B is 3-bit with 16 columns:
        // 2 output tile columns, t = 3.  Per tile column the walk loads 8 A
        // tiles (CrossTile) or 8 * 3 (CrossBit) at 8 zero-check ops each, and
        // issues 1 * 3 MMAs with jumping or 8 * 3 without, each reading one
        // 128-byte B tile and costing 64 shift-accumulate ops.
        let mut a_codes: Matrix<u32> = Matrix::zeros(16, 256);
        a_codes[(0, 0)] = 1;
        let a = StackedBitMatrix::from_codes(&a_codes, 2, BitMatrixLayout::RowPacked);
        let b_codes = random_codes(256, 16, 3, 8);
        let b = StackedBitMatrix::from_codes(&b_codes, 3, BitMatrixLayout::ColPacked);
        // (order, jumping) -> (MMAs, skipped MMAs, DRAM read bytes, integer ops)
        for (order, jumping, want) in [
            (ReductionOrder::CrossTile, true, (6, 42, 2_816, 512)),
            (ReductionOrder::CrossBit, true, (6, 42, 6_912, 768)),
            (ReductionOrder::CrossTile, false, (48, 0, 8_192, 3_200)),
            (ReductionOrder::CrossBit, false, (48, 0, 12_288, 3_456)),
        ] {
            let tracker = CostTracker::new();
            let cfg = KernelConfig {
                zero_tile_jumping: jumping,
                reduction_order: order,
                ..KernelConfig::default()
            };
            let _ = qgtc_bmm(&a, &b, &cfg, &tracker);
            let s = tracker.snapshot();
            let got = (
                s.tc_b1_tiles,
                s.tc_b1_tiles_skipped,
                s.dram_read_bytes,
                s.cuda_int_ops,
            );
            assert_eq!(got, want, "order {order:?}, jump {jumping}");
            // One launch over the 2x2 output tile grid, one 256-byte
            // accumulator tile written per block.
            assert_eq!(s.kernel_launches, 1);
            assert_eq!(s.thread_blocks, 4);
            assert_eq!(s.dram_write_bytes, 1_024);
        }
    }

    #[test]
    fn condensed_walk_matches_hand_count() {
        // A 32x256 adjacency in two 16-row windows: row i < 16 sets column
        // i mod 3 (a 3-column union), row 16 + i sets column 100 + c for each
        // c < 70 with c mod 16 = i (a 70-column union).  Each union fits one
        // 128-bit K tile, so each window is 2 row tiles x 1 K tile: 4
        // condensed A tiles and 73 union columns.  The features are 2-bit with
        // 16 columns: 2 output tile columns, t = 2.  Per tile column the walk
        // reads 4 A tiles and 4 * 2 B tiles, issues 4 * 2 MMAs at 64 ops each
        // and charges 73 * 2 remap lookups.
        let mut adjacency: Matrix<f32> = Matrix::zeros(32, 256);
        for i in 0..16 {
            adjacency[(i, i % 3)] = 1.0;
            for c in (i..70).step_by(16) {
                adjacency[(16 + i, 100 + c)] = 1.0;
            }
        }
        let a = StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked);
        let x_codes = random_codes(256, 16, 2, 9);
        let x = StackedBitMatrix::from_codes(&x_codes, 2, BitMatrixLayout::ColPacked);
        let tracker = CostTracker::new();
        let _ = qgtc_aggregate(&a, &x, &path_config(AdjacencyPath::Condensed), &tracker);
        let s = tracker.snapshot();
        assert_eq!(s.adj_condensed_dispatches, 1);
        assert_eq!(s.tc_b1_tiles, 16);
        assert_eq!(s.tc_b1_tiles_skipped, 0);
        assert_eq!(s.dram_read_bytes, 3_072);
        assert_eq!(s.cuda_int_ops, 1_316);
        // One launch over 2 windows x 2 tile columns; the output is 4 x 2
        // accumulator tiles of 256 bytes.
        assert_eq!(s.kernel_launches, 1);
        assert_eq!(s.thread_blocks, 4);
        assert_eq!(s.dram_write_bytes, 2_048);
    }

    #[test]
    fn tile_counts_round_up() {
        assert_eq!(tile_counts(8, 8, 128), (1, 1, 1));
        assert_eq!(tile_counts(9, 17, 129), (2, 3, 2));
        assert_eq!(tile_counts(1, 1, 1), (1, 1, 1));
    }

    #[test]
    fn every_body_records_identical_cost_snapshots() {
        use qgtc_bitmat::fused::PopcountBody;
        // A striped left operand (alternate rows zero every other K word) so
        // the skipping arms have zero words to jump.
        let mut a_codes = random_codes(20, 260, 3, 77);
        for i in 0..20 {
            for j in 0..260 {
                if (j / 64) % 2 == i % 2 {
                    a_codes[(i, j)] = 0;
                }
            }
        }
        let b_codes = random_codes(260, 12, 2, 78);
        let a = StackedBitMatrix::from_codes(&a_codes, 3, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked);
        let reference = gemm_i64(&a_codes.map(|&v| v as i64), &b_codes.map(|&v| v as i64));
        for jumping in [false, true] {
            let run = |backend| {
                let cfg = KernelConfig {
                    zero_tile_jumping: jumping,
                    backend,
                    ..KernelConfig::default()
                };
                let tracker = CostTracker::new();
                let out = qgtc_bmm(&a, &b, &cfg, &tracker);
                (out, tracker.snapshot())
            };
            let (portable, portable_cost) = run(BackendChoice::Portable);
            assert_eq!(portable, reference, "jump {jumping}");
            assert_eq!(portable_cost.fused_words_skipped > 0, jumping);
            if PopcountBody::Avx512.is_available() {
                // The broadcast kernel's word counts feed the tracker, so the
                // whole snapshot must match the legacy kernel's.
                let (avx512, avx512_cost) = run(BackendChoice::Avx512);
                assert_eq!(avx512, reference, "jump {jumping}");
                assert_eq!(avx512_cost, portable_cost, "jump {jumping}");
            }
        }
    }

    #[test]
    fn in_kernel_epilogue_equals_the_plain_product_then_apply() {
        use crate::fusion::Activation;
        // Row counts on both sides of the broadcast kernel's inline cut and
        // its row blocks; every body, skipping on and off.
        for (m, k, n) in [(5, 130, 7), (40, 64, 33), (400, 96, 12)] {
            let a_codes = random_codes(m, k, 2, m as u64);
            let b_codes = random_codes(k, n, 3, n as u64);
            let a = StackedBitMatrix::from_codes(&a_codes, 2, BitMatrixLayout::RowPacked);
            let b = StackedBitMatrix::from_codes(&b_codes, 3, BitMatrixLayout::ColPacked);
            let mut ep = FusedEpilogue::hidden_layer(0.01, 4)
                .with_row_offset((0..m).map(|i| i as f32 * 0.1 - 3.0).collect());
            ep.activation = Activation::Tanh;
            for backend in [BackendChoice::Portable, BackendChoice::Auto] {
                for jumping in [false, true] {
                    let cfg = KernelConfig {
                        zero_tile_jumping: jumping,
                        backend,
                        ..KernelConfig::default()
                    };
                    let plain = CostTracker::new();
                    let acc = qgtc_bmm(&a, &b, &cfg, &plain);
                    let want = ep.apply(&acc, &plain).unwrap();
                    let fused = CostTracker::new();
                    let (got, range) = qgtc_bmm_with_epilogue(&a, &b, &ep, &cfg, &fused).unwrap();
                    let got = got.into_quantized_with_rowsums().unwrap();
                    assert_eq!(got, want.into_quantized_with_rowsums().unwrap());
                    assert_eq!(fused.snapshot(), plain.snapshot());
                    let (lo, _) = range.bounds();
                    assert_eq!(got.1.min, lo);
                }
            }
        }
    }

    #[test]
    fn a_mismatched_batch_norm_fails_before_the_kernel_runs() {
        let a =
            StackedBitMatrix::from_codes(&random_codes(4, 64, 2, 1), 2, BitMatrixLayout::RowPacked);
        let b =
            StackedBitMatrix::from_codes(&random_codes(64, 3, 2, 2), 2, BitMatrixLayout::ColPacked);
        let mut ep = FusedEpilogue::dequantize_only(1.0);
        ep.batch_norm = Some(qgtc_tensor::ops::BatchNormParams::identity(5));
        let tracker = CostTracker::new();
        let err = qgtc_bmm_with_epilogue(&a, &b, &ep, &KernelConfig::default(), &tracker);
        assert!(
            matches!(err, Err(TensorError::ShapeMismatch { .. })),
            "{err:?}"
        );
        assert_eq!(tracker.snapshot().kernel_launches, 0, "nothing ran");
    }

    #[test]
    #[should_panic(expected = "row-offset length")]
    fn correction_lengths_are_checked_on_the_calling_thread() {
        let a = StackedBitMatrix::from_codes(
            &random_codes(500, 64, 1, 3),
            1,
            BitMatrixLayout::RowPacked,
        );
        let b =
            StackedBitMatrix::from_codes(&random_codes(64, 4, 2, 4), 2, BitMatrixLayout::ColPacked);
        let ep = FusedEpilogue::dequantize_only(1.0).with_row_offset(vec![0.0; 499]);
        let _ = qgtc_bmm_with_epilogue(&a, &b, &ep, &KernelConfig::default(), &CostTracker::new());
    }

    #[test]
    #[should_panic(expected = "column-wise compression")]
    fn rejects_wrong_left_layout() {
        let codes = random_codes(8, 8, 1, 11);
        let a = StackedBitMatrix::from_codes(&codes, 1, BitMatrixLayout::ColPacked);
        let b = StackedBitMatrix::from_codes(&codes, 1, BitMatrixLayout::ColPacked);
        let _ = qgtc_bmm(&a, &b, &KernelConfig::default(), &CostTracker::new());
    }

    #[test]
    #[should_panic(expected = "adjacency must be 1-bit")]
    fn aggregate_rejects_multibit_adjacency() {
        let codes = random_codes(8, 8, 2, 12);
        let a = StackedBitMatrix::from_codes(&codes, 2, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&codes, 2, BitMatrixLayout::ColPacked);
        let _ = qgtc_aggregate(&a, &b, &KernelConfig::default(), &CostTracker::new());
    }

    /// Fragmented adjacency: every 16-row window shares four columns, one per
    /// 64-bit word region — every K word is nonzero (the word-skip kernel can
    /// skip nothing) yet each window's union condenses to a single word.
    fn fragmented_adjacency(n: usize) -> Matrix<f32> {
        let mut adj: Matrix<f32> = Matrix::zeros(n, n);
        for w in 0..n.div_ceil(16) {
            let c0 = (w * 7) % 64;
            for r in w * 16..((w + 1) * 16).min(n) {
                for region in 0..n / 64 {
                    adj.row_mut(r)[region * 64 + c0] = 1.0;
                }
            }
        }
        adj
    }

    fn path_config(path: AdjacencyPath) -> KernelConfig {
        KernelConfig {
            adjacency_path: path,
            ..KernelConfig::default()
        }
    }

    #[test]
    fn condensed_path_is_bitwise_identical_to_skip_path() {
        for (adj, x_bits, seed) in [
            (fragmented_adjacency(256), 2u32, 31u64),
            (sparse_adjacency(96, 0.07, 32), 3, 33),
            (sparse_adjacency(130, 0.5, 34), 4, 35),
        ] {
            let a = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
            let x_codes = random_codes(adj.rows(), 24, x_bits, seed);
            let x = StackedBitMatrix::from_codes(&x_codes, x_bits, BitMatrixLayout::ColPacked);
            let reference = gemm_i64(&adj.map(|&v| v as i64), &x_codes.map(|&v| v as i64));
            let skip = qgtc_aggregate(
                &a,
                &x,
                &path_config(AdjacencyPath::Skip),
                &CostTracker::new(),
            );
            let cond = qgtc_aggregate(
                &a,
                &x,
                &path_config(AdjacencyPath::Condensed),
                &CostTracker::new(),
            );
            assert_eq!(skip, reference, "skip path diverged from the oracle");
            assert_eq!(cond, reference, "condensed path diverged from the oracle");
        }
    }

    #[test]
    fn cached_condensed_translation_is_equivalent_to_on_the_fly() {
        let adj = fragmented_adjacency(192);
        let a = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        let x_codes = random_codes(192, 16, 2, 41);
        let x = StackedBitMatrix::from_codes(&x_codes, 2, BitMatrixLayout::ColPacked);
        let cfg = path_config(AdjacencyPath::Condensed);
        let cached = CondensedAdjacency::from_stack(&a);
        let t_fly = CostTracker::new();
        let t_cached = CostTracker::new();
        let fly = qgtc_aggregate_prepared(&a, None, &x, &cfg, &t_fly);
        let reused = qgtc_aggregate_prepared(&a, Some(&cached), &x, &cfg, &t_cached);
        assert_eq!(fly, reused);
        assert_eq!(
            t_fly.snapshot(),
            t_cached.snapshot(),
            "tracker numbers must not depend on who built the translation"
        );
    }

    #[test]
    fn dispatch_counters_record_the_resolved_path() {
        let adj = fragmented_adjacency(128);
        let a = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        let x_codes = random_codes(128, 8, 2, 51);
        let x = StackedBitMatrix::from_codes(&x_codes, 2, BitMatrixLayout::ColPacked);

        let t_skip = CostTracker::new();
        let _ = qgtc_aggregate(&a, &x, &path_config(AdjacencyPath::Skip), &t_skip);
        let s = t_skip.snapshot();
        assert_eq!(s.adj_skip_dispatches, 1);
        assert_eq!(s.adj_condensed_dispatches, 0);
        assert_eq!(s.condensed_words, 0);
        assert_eq!(s.condensation_ratio(), 0.0);

        let t_cond = CostTracker::new();
        let _ = qgtc_aggregate(&a, &x, &path_config(AdjacencyPath::Condensed), &t_cond);
        let c = t_cond.snapshot();
        assert_eq!(c.adj_skip_dispatches, 0);
        assert_eq!(c.adj_condensed_dispatches, 1);
        assert!(c.condensed_words > 0 && c.condensed_words < c.condensed_source_words);
        assert!(c.condensation_ratio() > 0.0 && c.condensation_ratio() < 1.0);
        assert!(
            c.fused_word_skip_ratio() > 0.0,
            "condensation must register as avoided K-loop work"
        );
    }

    #[test]
    fn auto_heuristic_splits_fragmented_from_blocky_inputs() {
        // Fragmented: every source word nonzero, windows condense 4:1.
        let frag = StackedBitMatrix::from_binary_adjacency(
            &fragmented_adjacency(256),
            BitMatrixLayout::RowPacked,
        );
        assert_eq!(
            resolve_adjacency_path(AdjacencyPath::Auto, &frag),
            AdjacencyPath::Condensed
        );
        // Half-dense random: window unions cover essentially every column, so
        // condensation saves nothing over the word-skip walk.
        let blocky = StackedBitMatrix::from_binary_adjacency(
            &sparse_adjacency(256, 0.5, 61),
            BitMatrixLayout::RowPacked,
        );
        assert_eq!(
            resolve_adjacency_path(AdjacencyPath::Auto, &blocky),
            AdjacencyPath::Skip
        );
        // Fixed choices resolve to themselves regardless of the input.
        assert_eq!(
            resolve_adjacency_path(AdjacencyPath::Skip, &frag),
            AdjacencyPath::Skip
        );
        assert_eq!(
            resolve_adjacency_path(AdjacencyPath::Condensed, &blocky),
            AdjacencyPath::Condensed
        );
    }
}
