//! Zero-tile analysis (paper §4.3 and Figure 8).
//!
//! A census of a packed adjacency: how many of its 8×128 Tensor Core tiles
//! contain at least one edge, and therefore what fraction of the naive kernel's
//! work zero-tile jumping removes.  The BMM kernel charges its modeled tile walk
//! from this census ([`crate::bmm`]), and Figure 8 reports its ratio per dataset.

use qgtc_bitmat::fused::FusedGemmStats;
use qgtc_bitmat::pack::{pad128, pad8, TILE_K, TILE_K_WORDS, TILE_MN};
use qgtc_bitmat::{BitMatrix, BitMatrixLayout, StackedBitMatrix};

/// Census of the 8×128 tiles of one packed bit plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileCensus {
    /// Total number of 8×128 tiles in the padded plane.
    pub total_tiles: usize,
    /// Tiles containing at least one set bit.
    pub nonzero_tiles: usize,
}

impl TileCensus {
    /// Tiles containing no set bit.
    pub fn zero_tiles(&self) -> usize {
        self.total_tiles - self.nonzero_tiles
    }

    /// Fraction of tiles that must still be processed with zero-tile jumping enabled
    /// (the percentages printed on Figure 8's bars).
    pub fn processed_ratio(&self) -> f64 {
        if self.total_tiles == 0 {
            return 1.0;
        }
        self.nonzero_tiles as f64 / self.total_tiles as f64
    }
}

/// Census the 8×128 tiles of a row-packed bit plane: a tile is nonzero when
/// the OR of its eight lanes' four-word K chunks is, which is what the GPU
/// kernel's OR + `__ballot_sync` check decides (§4.3).  A per-bit scan of each
/// tile's logical cells is the test oracle.
pub fn census_plane(plane: &BitMatrix) -> TileCensus {
    assert_eq!(
        plane.layout(),
        BitMatrixLayout::RowPacked,
        "tile census operates on the row-packed (adjacency) layout"
    );
    let row_tiles = pad8(plane.rows()) / TILE_MN;
    let k_tiles = pad128(plane.cols()) / TILE_K;
    // PAD8 and PAD128 make each row tile eight whole lanes, and each lane
    // `k_tiles` chunks of four words.
    let mut merged = vec![0u32; plane.words_per_lane()];
    let mut nonzero = 0usize;
    for tr in 0..row_tiles {
        merged.fill(0);
        for lane in tr * TILE_MN..(tr + 1) * TILE_MN {
            for (acc, &word) in merged.iter_mut().zip(plane.lane(lane)) {
                *acc |= word;
            }
        }
        nonzero += merged
            .chunks_exact(TILE_K_WORDS)
            .filter(|chunk| chunk.iter().any(|&word| word != 0))
            .count();
    }
    TileCensus {
        total_tiles: row_tiles * k_tiles,
        nonzero_tiles: nonzero,
    }
}

/// Census the widened 64-bit words of one packed plane: [`census_plane`] at
/// word granularity.  Returns the same [`FusedGemmStats`] shape the fused
/// kernel reports from an actual execution, and predicts those counts exactly
/// — the kernel widens lane word pairs the same way before building its span
/// index (non-zero words are the kernel's "visited" words).
pub fn census_plane_words(plane: &BitMatrix) -> FusedGemmStats {
    let words = plane.words_per_lane();
    debug_assert_eq!(words % 2, 0, "PAD128 guarantees an even u32 word count");
    // Only logical lanes: the kernel's row loop never visits the PAD8 padding
    // lanes, so they must not inflate the census either.
    let logical_lanes = match plane.layout() {
        BitMatrixLayout::RowPacked => plane.rows(),
        BitMatrixLayout::ColPacked => plane.cols(),
    };
    let mut nonzero = 0u64;
    let mut total = 0u64;
    for lane in 0..logical_lanes {
        for pair in plane.lane(lane).chunks_exact(2) {
            total += 1;
            if pair[0] != 0 || pair[1] != 0 {
                nonzero += 1;
            }
        }
    }
    FusedGemmStats {
        total_words: total,
        visited_words: nonzero,
    }
}

/// Word-level sparsity profile of a 1-bit adjacency — the numbers the
/// adjacency-path dispatcher reasons from, surfaced per batch in the epoch
/// report so Auto decisions are explainable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdjacencySparsityStats {
    /// Widened 64-bit K-loop words over the logical rows.
    pub total_words: u64,
    /// Words containing at least one edge (what the skip kernel visits).
    pub nonzero_words: u64,
    /// Set bits (edges) in the plane.
    pub nonzeros: u64,
}

impl AdjacencySparsityStats {
    /// Fraction of K-loop words the skip kernel cannot avoid (0.0 when empty).
    pub fn nonzero_word_ratio(&self) -> f64 {
        if self.total_words == 0 {
            0.0
        } else {
            self.nonzero_words as f64 / self.total_words as f64
        }
    }

    /// Edges per nonzero word — the fragmentation measure.  Near 1.0 means
    /// one scattered edge per visited word (condensation territory); high
    /// values mean dense words the skip kernel already handles well.  0.0
    /// when the adjacency has no edges.
    pub fn fragmentation(&self) -> f64 {
        if self.nonzero_words == 0 {
            0.0
        } else {
            self.nonzeros as f64 / self.nonzero_words as f64
        }
    }
}

/// Profile a 1-bit adjacency stack's word-level sparsity (logical rows only,
/// same frame as [`census_plane_words`]).
pub fn adjacency_sparsity_stats(adjacency: &StackedBitMatrix) -> AdjacencySparsityStats {
    assert_eq!(adjacency.bits(), 1, "adjacency stats expect a 1-bit stack");
    let plane = adjacency.plane(0);
    assert_eq!(plane.layout(), BitMatrixLayout::RowPacked);
    let mut stats = AdjacencySparsityStats::default();
    for lane in 0..plane.rows() {
        for pair in plane.lane(lane).chunks_exact(2) {
            stats.total_words += 1;
            let ones = u64::from(pair[0].count_ones() + pair[1].count_ones());
            if ones > 0 {
                stats.nonzero_words += 1;
                stats.nonzeros += ones;
            }
        }
    }
    stats
}

/// Census a 1-bit adjacency stack (convenience wrapper over [`census_plane`]).
pub fn census_adjacency(adjacency: &StackedBitMatrix) -> TileCensus {
    assert_eq!(
        adjacency.bits(),
        1,
        "adjacency census expects a 1-bit stack"
    );
    census_plane(adjacency.plane(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_tensor::rng::random_uniform_matrix;
    use qgtc_tensor::Matrix;

    /// The census read bit by bit: a hardware tile spans 8 rows and 128
    /// columns, and it is nonzero when any of its logical cells is set.
    fn census_by_bits(plane: &BitMatrix) -> TileCensus {
        let (rows, cols) = (plane.rows(), plane.cols());
        let (row_tiles, k_tiles) = (rows.div_ceil(8), cols.div_ceil(128));
        let tile_has_a_bit = |tr: usize, tk: usize| {
            (tr * 8..(tr * 8 + 8).min(rows))
                .any(|r| (tk * 128..(tk * 128 + 128).min(cols)).any(|c| plane.get(r, c) == 1))
        };
        let nonzero = (0..row_tiles)
            .flat_map(|tr| (0..k_tiles).map(move |tk| (tr, tk)))
            .filter(|&(tr, tk)| tile_has_a_bit(tr, tk))
            .count();
        TileCensus {
            total_tiles: row_tiles * k_tiles,
            nonzero_tiles: nonzero,
        }
    }

    #[test]
    fn word_or_census_matches_a_per_bit_scan() {
        let mut planes = Vec::new();
        // Random planes at several densities, with rows and cols that are not
        // multiples of 8 or 128.
        for (i, &(rows, cols)) in [(1, 1), (7, 129), (13, 300), (64, 512), (95, 131)]
            .iter()
            .enumerate()
        {
            for density in [0.0005f32, 0.01, 0.2] {
                let m = random_uniform_matrix(rows, cols, 0.0, 1.0, 40 + i as u64)
                    .map(|&v| u8::from(v < density));
                planes.push(BitMatrix::from_bits(&m, BitMatrixLayout::RowPacked));
            }
        }
        // Empty shapes and an all-zero plane.
        for (rows, cols) in [(0, 0), (0, 40), (9, 0), (33, 257)] {
            let m: Matrix<u8> = Matrix::zeros(rows, cols);
            planes.push(BitMatrix::from_bits(&m, BitMatrixLayout::RowPacked));
        }
        // A single edge in the last logical row and column of an odd shape.
        let mut single: Matrix<u8> = Matrix::zeros(21, 300);
        single[(20, 299)] = 1;
        planes.push(BitMatrix::from_bits(&single, BitMatrixLayout::RowPacked));
        // Block diagonal: dense 24-node blocks on a 200-node diagonal.
        let mut blocks: Matrix<f32> = Matrix::zeros(200, 200);
        for start in [0usize, 60, 130] {
            for i in 0..24 {
                for j in 0..24 {
                    blocks[(start + i, start + j)] = 1.0;
                }
            }
        }
        planes.push(BitMatrix::from_dense_f32(
            &blocks,
            BitMatrixLayout::RowPacked,
        ));

        for plane in &planes {
            assert_eq!(
                census_plane(plane),
                census_by_bits(plane),
                "{}x{} plane with {} edges",
                plane.rows(),
                plane.cols(),
                plane.count_ones()
            );
        }
    }

    #[test]
    fn all_zero_plane_has_no_nonzero_tiles() {
        let m: Matrix<u8> = Matrix::zeros(64, 512);
        let plane = BitMatrix::from_bits(&m, BitMatrixLayout::RowPacked);
        let census = census_plane(&plane);
        assert_eq!(census.total_tiles, 8 * 4);
        assert_eq!(census.nonzero_tiles, 0);
        assert_eq!(census.zero_tiles(), 32);
        assert_eq!(census.processed_ratio(), 0.0);
    }

    #[test]
    fn all_ones_plane_is_fully_nonzero() {
        let m: Matrix<u8> = Matrix::filled(16, 256, 1);
        let plane = BitMatrix::from_bits(&m, BitMatrixLayout::RowPacked);
        let census = census_plane(&plane);
        assert_eq!(census.nonzero_tiles, census.total_tiles);
        assert_eq!(census.processed_ratio(), 1.0);
    }

    #[test]
    fn single_edge_marks_exactly_one_tile() {
        let mut m: Matrix<u8> = Matrix::zeros(64, 512);
        m[(20, 300)] = 1;
        let plane = BitMatrix::from_bits(&m, BitMatrixLayout::RowPacked);
        let census = census_plane(&plane);
        assert_eq!(census.nonzero_tiles, 1);
    }

    #[test]
    fn block_diagonal_adjacency_mostly_zero_tiles() {
        // Two dense 64-node blocks inside a 512-node matrix: the off-diagonal area is
        // empty, so most tiles are zero — the Figure 8 situation.
        let n = 512;
        let mut adj: Matrix<f32> = Matrix::zeros(n, n);
        for block_start in [0usize, 256] {
            for i in 0..64 {
                for j in 0..64 {
                    if i != j {
                        adj[(block_start + i, block_start + j)] = 1.0;
                    }
                }
            }
        }
        let stack = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        let census = census_adjacency(&stack);
        assert!(
            census.processed_ratio() < 0.2,
            "ratio {}",
            census.processed_ratio()
        );
        assert!(census.nonzero_tiles > 0);
    }

    #[test]
    fn census_matches_kernel_skip_accounting() {
        use crate::bmm::{qgtc_aggregate, KernelConfig};
        use qgtc_tcsim::cost::CostTracker;

        let adj = random_uniform_matrix(128, 128, 0.0, 1.0, 5).map(|&v| (v < 0.03) as u32 as f32);
        let x_codes = random_uniform_matrix(128, 16, 0.0, 3.99, 6).map(|&v| v as u32);
        let a = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&x_codes, 2, BitMatrixLayout::ColPacked);
        let census = census_adjacency(&a);

        let tracker = CostTracker::new();
        let _ = qgtc_aggregate(&a, &x, &KernelConfig::default(), &tracker);
        let s = tracker.snapshot();
        // The kernel walks each adjacency K-tile once per output tile column
        // (16 columns of 8) and skips exactly the zero tiles the census found,
        // each skip covering the feature stack's 2 bit planes.
        let n_tiles = 16 / 8;
        let expected_skipped = census.zero_tiles() as u64 * n_tiles as u64 * 2;
        assert_eq!(s.tc_b1_tiles_skipped, expected_skipped);
    }

    #[test]
    fn word_census_counts_logical_words() {
        // 10 rows x 200 cols: PAD128(200) = 256 bits = 4 widened words per row.
        let mut m: Matrix<u8> = Matrix::zeros(10, 200);
        m[(3, 70)] = 1; // word 1 of row 3
        m[(3, 130)] = 1; // word 2 of row 3
        m[(7, 0)] = 1; // word 0 of row 7
        let plane = BitMatrix::from_bits(&m, BitMatrixLayout::RowPacked);
        let census = census_plane_words(&plane);
        assert_eq!(census.total_words, 10 * 4);
        assert_eq!(census.visited_words, 3);
        assert_eq!(census.skipped_words(), 37);
        assert!((census.skip_ratio() - 37.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn word_census_predicts_kernel_skip_stats() {
        use crate::bmm::{qgtc_aggregate, KernelConfig};
        use qgtc_tcsim::cost::CostTracker;

        let adj = random_uniform_matrix(96, 96, 0.0, 1.0, 17).map(|&v| (v < 0.02) as u32 as f32);
        let x_codes = random_uniform_matrix(96, 12, 0.0, 3.99, 18).map(|&v| v as u32);
        let a = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&x_codes, 2, BitMatrixLayout::ColPacked);
        let census = census_plane_words(a.plane(0));

        let tracker = CostTracker::new();
        let _ = qgtc_aggregate(&a, &x, &KernelConfig::default(), &tracker);
        let s = tracker.snapshot();
        assert_eq!(s.fused_words_total, census.total_words);
        assert_eq!(s.fused_words_skipped, census.skipped_words());
        assert!((s.fused_word_skip_ratio() - census.skip_ratio()).abs() < 1e-12);
    }

    #[test]
    fn sparsity_stats_measure_fragmentation() {
        // 8 rows x 256 cols (4 widened words/row).  Rows 0..4: one edge per
        // word (fragmentation 1.0 over those words); rows 4..8 empty.
        let mut adj: Matrix<f32> = Matrix::zeros(8, 256);
        for r in 0..4 {
            for w in 0..4 {
                adj[(r, w * 64 + r)] = 1.0;
            }
        }
        let stack = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        let stats = adjacency_sparsity_stats(&stack);
        assert_eq!(stats.total_words, 8 * 4);
        assert_eq!(stats.nonzero_words, 16);
        assert_eq!(stats.nonzeros, 16);
        assert!((stats.nonzero_word_ratio() - 0.5).abs() < 1e-12);
        assert!((stats.fragmentation() - 1.0).abs() < 1e-12);
        // The word census and the profile agree on what the kernel visits.
        let census = census_plane_words(stack.plane(0));
        assert_eq!(census.visited_words, stats.nonzero_words);
        assert_eq!(census.total_words, stats.total_words);
        // Empty adjacency: well-defined zeros.
        let empty = StackedBitMatrix::from_binary_adjacency(
            &Matrix::zeros(4, 64),
            BitMatrixLayout::RowPacked,
        );
        let s = adjacency_sparsity_stats(&empty);
        assert_eq!(s.fragmentation(), 0.0);
        assert_eq!(s.nonzero_word_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "row-packed")]
    fn census_rejects_col_packed_plane() {
        let m: Matrix<u8> = Matrix::zeros(8, 8);
        let plane = BitMatrix::from_bits(&m, BitMatrixLayout::ColPacked);
        let _ = census_plane(&plane);
    }
}
