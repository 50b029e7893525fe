//! Sparse-to-dense tile condensation of a packed 1-bit adjacency — the
//! TC-GNN-style *sparse graph translation* counterpart to the zero-word-skip
//! path in [`crate::fused`].
//!
//! The skip kernel keeps the adjacency at its natural width and jumps the
//! all-zero `u64` words of each row via a span index.  That wins when zeros
//! cluster into long runs, and loses when they do not: a *fragmented* row —
//! one nonzero scattered into each of many mostly-zero words — defeats the
//! span index entirely (every word is "nonzero", nothing is skipped) while
//! still paying the full K-loop width.  Condensation is the other classic
//! answer: for each window of [`CONDENSE_ROW_WINDOW`] adjacency rows, collect
//! the union of nonzero column ids, remap them onto a contiguous dense index
//! space, and repack the window's bits at the condensed width.  The kernel
//! then gathers the feature rows named by the remap into a dense panel and
//! runs fully dense over it — `ceil(|union| / 64)` words per row instead of
//! `pad128(cols) / 64`, with zero per-word branch overhead.
//!
//! Both paths are exact: columns outside a window's union carry no adjacency
//! bits in that window, so dropping them never changes the shift-accumulated
//! popcount sums.  [`aggregate_adj_features_condensed`] is therefore bitwise
//! identical to [`crate::gemm::any_bit_gemm_serial`] and to the fused skip
//! kernel by construction, which the dispatcher exploits to race the two
//! representations per batch.

use crate::bitmatrix::{BitMatrix, BitMatrixLayout};
use crate::fused::{panel_accum2, FusedGemmStats, PopcountBody};
use crate::stacked::StackedBitMatrix;
use qgtc_tensor::Matrix;
use rayon::prelude::*;

/// Rows condensed together per window.
///
/// 16 matches the Tensor Core MMA tile height TC-GNN condenses for; it is
/// also two [`crate::fused`] row blocks, so one window's gather panel is
/// reused across 16 output rows — the amortization that pays for the gather.
pub const CONDENSE_ROW_WINDOW: usize = 16;

/// One condensed row window: the union of its rows' nonzero columns remapped
/// onto a dense `u64`-word grid.
///
/// Condensed index `u` stands for source column `col_ids[u]`; bit `u` of row
/// `r`'s condensed lane is source adjacency bit `(row_start + r, col_ids[u])`.
/// The condensed width is `words_per_row` 64-bit words — naturally aligned to
/// the 8/16-wide Tensor Core tile grid the modeled tile walk charges for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondensedWindow {
    /// First source adjacency row covered by this window.
    pub row_start: usize,
    /// Rows in this window (always [`CONDENSE_ROW_WINDOW`] except a short tail).
    pub rows: usize,
    /// Sorted, deduplicated union of the window rows' nonzero column ids.
    pub col_ids: Vec<u32>,
    /// Condensed lane width: `col_ids.len().div_ceil(64)`.
    pub words_per_row: usize,
    /// Condensed bits, row-major: `rows × words_per_row` words.
    pub bits: Vec<u64>,
}

/// A 1-bit adjacency translated into condensed dense tiles, window by window.
///
/// Built once at prepare time (and cached in the transfer payload, so the
/// serving payload cache amortizes the translation), then consumed by
/// [`aggregate_adj_features_condensed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondensedAdjacency {
    rows: usize,
    cols: usize,
    /// Widened K-loop width of the *source* lanes (`pad128(cols) / 64`) — the
    /// denominator that makes condensed stats comparable with the skip path's
    /// [`FusedGemmStats`].
    source_pairs: usize,
    windows: Vec<CondensedWindow>,
}

impl CondensedAdjacency {
    /// Condense a 1-bit row-packed adjacency stack.
    ///
    /// # Panics
    ///
    /// Panics unless the stack is 1-bit and row-packed (the aggregation's
    /// left-operand layout).
    pub fn from_stack(adjacency: &StackedBitMatrix) -> Self {
        assert_eq!(adjacency.bits(), 1, "adjacency stack must be 1-bit");
        assert_eq!(
            adjacency.layout(),
            BitMatrixLayout::RowPacked,
            "adjacency is the aggregation's left operand"
        );
        Self::from_plane(adjacency.plane(0))
    }

    /// Condense one row-packed bit plane.
    pub fn from_plane(plane: &BitMatrix) -> Self {
        assert_eq!(plane.layout(), BitMatrixLayout::RowPacked);
        let rows = plane.rows();
        let cols = plane.cols();
        let words = plane.words_per_lane();
        debug_assert_eq!(words % 2, 0, "PAD128 guarantees an even word count");
        let mut windows = Vec::with_capacity(rows.div_ceil(CONDENSE_ROW_WINDOW));
        let mut union = vec![0u32; words];
        for row_start in (0..rows).step_by(CONDENSE_ROW_WINDOW) {
            let window_rows = CONDENSE_ROW_WINDOW.min(rows - row_start);
            // Union of the window rows' nonzero columns (padding bits are
            // guaranteed zero, so the word OR never invents a column).
            union.iter_mut().for_each(|w| *w = 0);
            for r in 0..window_rows {
                for (acc, &w) in union.iter_mut().zip(plane.lane(row_start + r)) {
                    *acc |= w;
                }
            }
            let mut col_ids = Vec::new();
            for (word_idx, &w) in union.iter().enumerate() {
                let mut bits = w;
                while bits != 0 {
                    let bit = bits.trailing_zeros();
                    col_ids.push((word_idx * 32) as u32 + bit);
                    bits &= bits - 1;
                }
            }
            let words_per_row = col_ids.len().div_ceil(64);
            let mut bits = vec![0u64; window_rows * words_per_row];
            for r in 0..window_rows {
                let lane = plane.lane(row_start + r);
                let row_bits = &mut bits[r * words_per_row..(r + 1) * words_per_row];
                for (u, &cid) in col_ids.iter().enumerate() {
                    let cid = cid as usize;
                    if lane[cid / 32] >> (cid % 32) & 1 != 0 {
                        row_bits[u / 64] |= 1u64 << (u % 64);
                    }
                }
            }
            windows.push(CondensedWindow {
                row_start,
                rows: window_rows,
                col_ids,
                words_per_row,
                bits,
            });
        }
        Self {
            rows,
            cols,
            source_pairs: words / 2,
            windows,
        }
    }

    /// Source adjacency rows (the aggregation's output row count).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Source adjacency columns (must equal the feature stack's row count).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The condensed row windows, in row order.
    pub fn windows(&self) -> &[CondensedWindow] {
        &self.windows
    }

    /// Condensed K-loop words actually consumed: `Σ rows × words_per_row`.
    pub fn condensed_words(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| (w.rows * w.words_per_row) as u64)
            .sum()
    }

    /// K-loop words the uncondensed kernel would be offered: `rows × pairs`,
    /// the same denominator as [`FusedGemmStats::total_words`] for a 1-bit
    /// left operand.
    pub fn source_words(&self) -> u64 {
        (self.rows * self.source_pairs) as u64
    }

    /// `condensed_words / source_words` — the fraction of the source K-loop
    /// the condensed representation keeps (0.0 for an empty adjacency).
    pub fn condensation_ratio(&self) -> f64 {
        if self.source_words() == 0 {
            0.0
        } else {
            self.condensed_words() as f64 / self.source_words() as f64
        }
    }
}

/// Predict [`CondensedAdjacency::condensed_words`] without building the
/// condensed bits: one union-OR pass per window, popcounted.
///
/// This is the Auto dispatcher's cheap side of the race — combined with the
/// word census it decides per batch whether condensation is worth packing,
/// and it is exact (`words_per_row` depends only on the union's popcount), so
/// the decision never drifts from what the built structure would report.
pub fn condensed_word_estimate(plane: &BitMatrix) -> u64 {
    assert_eq!(plane.layout(), BitMatrixLayout::RowPacked);
    let rows = plane.rows();
    let words = plane.words_per_lane();
    let mut union = vec![0u32; words];
    let mut total = 0u64;
    for row_start in (0..rows).step_by(CONDENSE_ROW_WINDOW) {
        let window_rows = CONDENSE_ROW_WINDOW.min(rows - row_start);
        union.iter_mut().for_each(|w| *w = 0);
        for r in 0..window_rows {
            for (acc, &w) in union.iter_mut().zip(plane.lane(row_start + r)) {
                *acc |= w;
            }
        }
        let nonzero_cols: u32 = union.iter().map(|w| w.count_ones()).sum();
        total += (window_rows * (nonzero_cols as usize).div_ceil(64)) as u64;
    }
    total
}

/// Predict the total union-column count of the would-be condensed structure
/// (the sum of `col_ids.len()` over all windows) without building it.
///
/// This is the *gather* side of the Auto dispatcher's cost model: the
/// condensed kernel pays one bit-gather per union column per feature plane per
/// output column, so a batch whose windows union to most of the source width
/// loses to the zero-word-skip kernel even when its condensed K loop looks
/// narrow. Exact for the same reason as [`condensed_word_estimate`].
pub fn condensed_union_estimate(plane: &BitMatrix) -> u64 {
    assert_eq!(plane.layout(), BitMatrixLayout::RowPacked);
    let rows = plane.rows();
    let words = plane.words_per_lane();
    let mut union = vec![0u32; words];
    let mut total = 0u64;
    for row_start in (0..rows).step_by(CONDENSE_ROW_WINDOW) {
        let window_rows = CONDENSE_ROW_WINDOW.min(rows - row_start);
        union.iter_mut().for_each(|w| *w = 0);
        for r in 0..window_rows {
            for (acc, &w) in union.iter_mut().zip(plane.lane(row_start + r)) {
                *acc |= w;
            }
        }
        total += union.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
    }
    total
}

/// Predict how many nonzero-word *spans* the zero-word-skip kernel's index
/// will hold for this plane: per logical row, the number of maximal runs of
/// nonzero widened 64-bit K words.
///
/// This is the skip side of the Auto dispatcher's cost model.  The span walk
/// pays a fixed setup (bounds, indexing, loop restart) per span per output
/// column, so a row whose nonzero words are scattered (many one-word spans)
/// costs far more than the same number of nonzero words in one contiguous
/// run — scattered rows make the skip kernel measurably *slower* than the
/// plain fused kernel.  Counting runs at the kernel's own u64 granularity
/// keeps the prediction exact.
pub fn skip_span_estimate(plane: &BitMatrix) -> u64 {
    assert_eq!(plane.layout(), BitMatrixLayout::RowPacked);
    let mut spans = 0u64;
    for r in 0..plane.rows() {
        let mut in_span = false;
        for pair in plane.lane(r).chunks_exact(2) {
            let nonzero = (pair[0] | pair[1]) != 0;
            if nonzero && !in_span {
                spans += 1;
            }
            in_span = nonzero;
        }
    }
    spans
}

/// Condensed neighbour aggregation `X_new = A · X`: gather the feature-stack
/// rows named by each window's column remap into a dense panel, then run the
/// fused shift-accumulate micro-kernel fully dense over the condensed width.
///
/// Bitwise identical to the zero-word-skip kernel
/// ([`crate::fused::any_bit_gemm_fused_with_stats`]) and the serial oracle:
/// integer shift-add is exact in any order, and columns outside a window's
/// union contribute no adjacency bits there.  The
/// returned stats reuse the skip path's accounting frame — `total_words` is
/// the *source* K-loop trip count and `visited_words` the condensed words
/// consumed — so skip ratios and condensation ratios are directly comparable.
///
/// # Panics
///
/// Panics unless the feature stack is column-packed with `cond.cols()` rows,
/// and `body` is available on this host.
pub fn aggregate_adj_features_condensed(
    cond: &CondensedAdjacency,
    x: &StackedBitMatrix,
    body: PopcountBody,
) -> (Matrix<i64>, FusedGemmStats) {
    assert!(
        body.is_available(),
        "popcount body {body:?} is not available on this host"
    );
    assert_eq!(
        x.layout(),
        BitMatrixLayout::ColPacked,
        "features are the aggregation's right operand"
    );
    assert_eq!(
        cond.cols(),
        x.rows(),
        "inner dimensions must match: adjacency is {}x{}, features are {}x{}",
        cond.rows(),
        cond.cols(),
        x.rows(),
        x.cols()
    );
    let m = cond.rows();
    let n = x.cols();
    let t = x.planes().len();
    let mut out = crate::fused::accumulator_matrix(m, n);
    let stats = FusedGemmStats {
        total_words: cond.source_words(),
        visited_words: cond.condensed_words(),
    };
    if m == 0 || n == 0 {
        return (out, stats);
    }
    let x_planes = x.planes();
    // One parallel task per window: par_chunks_mut(window × n) yields exactly
    // the rows of windows[block] (all windows are full-height except the tail).
    out.data_mut()
        .par_chunks_mut(CONDENSE_ROW_WINDOW * n)
        .enumerate()
        .for_each(|(block, rows)| {
            let window = &cond.windows()[block];
            let wpr = window.words_per_row;
            if wpr == 0 {
                // An all-zero window: no adjacency bits, so the (already
                // zeroed) output rows are exact without running the kernel.
                return;
            }
            // Gather the window's feature panel through the column remap:
            // layout [plane][column][word], condensed bit `u` of column `c`
            // plane `p` = source feature bit `(col_ids[u], c)` of plane `p`.
            let mut panel = vec![0u64; t * n * wpr];
            for (plane_idx, plane) in x_planes.iter().enumerate() {
                for col in 0..n {
                    let lane = plane.lane(col);
                    let dst = &mut panel[(plane_idx * n + col) * wpr..][..wpr];
                    for (u, &cid) in window.col_ids.iter().enumerate() {
                        let cid = cid as usize;
                        if lane[cid / 32] >> (cid % 32) & 1 != 0 {
                            dst[u / 64] |= 1u64 << (u % 64);
                        }
                    }
                }
            }
            // Consume the panel fully dense, two output rows per micro-kernel
            // call (s = 1: the adjacency is a single plane, so the A lane
            // stride and panel window cover the whole condensed width).
            let mut r = 0;
            while r < window.rows {
                let a0 = &window.bits[r * wpr..][..wpr];
                let paired = r + 1 < window.rows;
                let a1 = if paired {
                    &window.bits[(r + 1) * wpr..][..wpr]
                } else {
                    a0
                };
                for col in 0..n {
                    let (v0, v1) = panel_accum2(
                        body,
                        a0,
                        a1,
                        1,
                        wpr,
                        0,
                        &panel[col * wpr..],
                        t,
                        n * wpr,
                        wpr,
                    );
                    rows[r * n + col] = v0;
                    if paired {
                        rows[(r + 1) * n + col] = v1;
                    }
                }
                r += 2;
            }
        });
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::any_bit_gemm_fused_with_stats;
    use crate::gemm::any_bit_gemm_serial;
    use qgtc_tensor::rng::random_uniform_matrix;

    fn random_adjacency(rows: usize, cols: usize, density: f32, seed: u64) -> Matrix<f32> {
        random_uniform_matrix(rows, cols, 0.0, 1.0, seed).map(|&v| f32::from(v < density))
    }

    /// One nonzero scattered into each 64-bit word: the span index skips
    /// nothing while condensation collapses the row to a handful of words.
    fn fragmented_adjacency(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut k = 0;
            while k < cols {
                // Window-correlated scatter: nearby rows hit the same column,
                // keeping the window union small like a clustered subgraph.
                let col = (k + ((seed as usize + r / 4) * 7) % 64.min(cols - k)) % cols;
                m.row_mut(r)[col] = 1.0;
                k += 64;
            }
        }
        m
    }

    fn random_codes(rows: usize, cols: usize, bits: u32, seed: u64) -> Matrix<u32> {
        let max = (1u32 << bits) as f32;
        random_uniform_matrix(rows, cols, 0.0, max, seed).map(|&v| (v as u32).min((1 << bits) - 1))
    }

    fn check_all_bodies(adj: &Matrix<f32>, x_codes: &Matrix<u32>, bits: u32) {
        let a = StackedBitMatrix::from_binary_adjacency(adj, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(x_codes, bits, BitMatrixLayout::ColPacked);
        let oracle = any_bit_gemm_serial(&a, &x);
        let (skip, skip_stats) = any_bit_gemm_fused_with_stats(&a, &x, true);
        assert_eq!(oracle, skip, "skip path must match the oracle");
        let cond = CondensedAdjacency::from_stack(&a);
        for body in [PopcountBody::Portable, PopcountBody::detect()] {
            let (got, stats) = aggregate_adj_features_condensed(&cond, &x, body);
            assert_eq!(
                oracle, got,
                "condensed path ({body:?}) must be bitwise identical to the oracle"
            );
            assert_eq!(stats.total_words, skip_stats.total_words);
            assert_eq!(stats.visited_words, cond.condensed_words());
        }
    }

    #[test]
    fn condensed_matches_oracle_on_random_sparsity() {
        for (rows, cols, n, bits, density, seed) in [
            (16, 64, 8, 2, 0.1, 1),
            (33, 200, 13, 3, 0.05, 2),
            (48, 130, 16, 1, 0.3, 3),
            (7, 50, 5, 4, 0.5, 4),
            (64, 256, 10, 2, 0.02, 5),
        ] {
            let adj = random_adjacency(rows, cols, density, seed);
            let x = random_codes(cols, n, bits, seed + 100);
            check_all_bodies(&adj, &x, bits);
        }
    }

    #[test]
    fn condensed_matches_oracle_on_fragmented_rows() {
        let adj = fragmented_adjacency(40, 512, 9);
        let x = random_codes(512, 12, 2, 10);
        check_all_bodies(&adj, &x, 2);

        let a = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        let cond = CondensedAdjacency::from_stack(&a);
        // Fragmentation is the condensed path's home turf: far fewer words.
        assert!(cond.condensed_words() * 2 < cond.source_words());
    }

    #[test]
    fn empty_windows_and_empty_matrices_are_handled() {
        // Rows 16..32 are all-zero: a whole window condenses to zero width.
        let mut adj = Matrix::zeros(40, 100);
        for r in (0..40).filter(|r| !(16..32).contains(r)) {
            adj.row_mut(r)[(r * 13) % 100] = 1.0;
        }
        let x = random_codes(100, 6, 3, 11);
        check_all_bodies(&adj, &x, 3);

        let a = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        let cond = CondensedAdjacency::from_stack(&a);
        assert_eq!(cond.windows()[1].words_per_row, 0);
        assert!(cond.windows()[1].col_ids.is_empty());

        // Fully empty adjacency.
        let empty = Matrix::zeros(20, 80);
        let x2 = random_codes(80, 4, 2, 12);
        check_all_bodies(&empty, &x2, 2);
    }

    #[test]
    fn estimate_matches_built_structure_exactly() {
        for (rows, cols, density, seed) in [
            (16, 64, 0.1),
            (50, 300, 0.04),
            (33, 128, 0.5),
            (8, 100, 0.0),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(r, c, d))| (r, c, d, i as u64 + 20))
        {
            let adj = random_adjacency(rows, cols, density, seed);
            let a = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
            let cond = CondensedAdjacency::from_stack(&a);
            assert_eq!(condensed_word_estimate(a.plane(0)), cond.condensed_words());
            let union_total: u64 = cond.windows().iter().map(|w| w.col_ids.len() as u64).sum();
            assert_eq!(condensed_union_estimate(a.plane(0)), union_total);
        }
    }

    #[test]
    fn span_estimate_counts_nonzero_word_runs_per_row() {
        // Row 0: bits in words 0 and 2 (two isolated spans); row 1: bits in
        // words 0 and 1 (one contiguous span); row 2: empty (zero spans).
        let mut m: Matrix<f32> = Matrix::zeros(3, 256);
        m.row_mut(0)[3] = 1.0;
        m.row_mut(0)[130] = 1.0;
        m.row_mut(1)[3] = 1.0;
        m.row_mut(1)[70] = 1.0;
        let a = StackedBitMatrix::from_binary_adjacency(&m, BitMatrixLayout::RowPacked);
        assert_eq!(skip_span_estimate(a.plane(0)), 3);

        // Fully dense rows collapse to one span each.
        let dense = random_adjacency(8, 256, 1.0, 70);
        let a = StackedBitMatrix::from_binary_adjacency(&dense, BitMatrixLayout::RowPacked);
        assert_eq!(skip_span_estimate(a.plane(0)), 8);
    }

    #[test]
    fn condensation_ratio_reflects_window_unions() {
        // Dense adjacency: the union is every column, so condensation keeps
        // roughly the full width (can exceed 1.0 only via ceil rounding).
        let dense = random_adjacency(32, 128, 0.9, 30);
        let a = StackedBitMatrix::from_binary_adjacency(&dense, BitMatrixLayout::RowPacked);
        let cond = CondensedAdjacency::from_stack(&a);
        assert!(cond.condensation_ratio() > 0.9);

        // One shared column per window: near-total condensation.
        let mut narrow = Matrix::zeros(32, 1024);
        for r in 0..32 {
            narrow.row_mut(r)[(r / CONDENSE_ROW_WINDOW) * 700] = 1.0;
        }
        let a = StackedBitMatrix::from_binary_adjacency(&narrow, BitMatrixLayout::RowPacked);
        let cond = CondensedAdjacency::from_stack(&a);
        assert!(cond.condensation_ratio() < 0.1);
        assert_eq!(cond.condensed_words(), 32);
    }

    #[test]
    fn window_geometry_is_deterministic() {
        let adj = random_adjacency(37, 90, 0.2, 40);
        let a = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        let c1 = CondensedAdjacency::from_stack(&a);
        let c2 = CondensedAdjacency::from_stack(&a);
        assert_eq!(c1, c2, "condensation must be deterministic");
        assert_eq!(c1.windows().len(), 3);
        assert_eq!(c1.windows()[2].rows, 5);
        assert_eq!(c1.windows()[2].row_start, 32);
        for w in c1.windows() {
            assert!(w.col_ids.windows(2).all(|p| p[0] < p[1]), "sorted unique");
        }
    }
}
