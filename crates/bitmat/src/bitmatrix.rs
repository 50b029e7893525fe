//! A single packed bit plane with the two layouts used by QGTC's GEMM.
//!
//! The paper's Figure 4 describes two compressions of a bit plane:
//!
//! * **Column-wise compression** (our [`BitMatrixLayout::RowPacked`]): used for the
//!   left operand `A` of `C = A·B`.  Each *row* of A stores its K bits packed into
//!   `PAD128(K)/32` little-endian words, so a GEMM walks each row with coalesced,
//!   word-aligned reads.
//! * **Row-wise compression** (our [`BitMatrixLayout::ColPacked`]): used for the right
//!   operand `B`.  Each *column* of B stores its K bits packed the same way, so the
//!   GEMM's inner loop reads a column of B contiguously.
//!
//! Both layouts pad the packed dimension to 128 bits (`PAD128`) and the other
//! dimension to 8 (`PAD8`) so every Tensor Core tile access is in bounds.  Padding
//! bits are zero, which is semantically neutral for AND+popcount accumulation.

use crate::pack::{pad128, pad8, popcount_words, WORD_BITS};
use qgtc_tensor::Matrix;

/// Which dimension of the logical matrix is packed into words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitMatrixLayout {
    /// Bits of each row are packed along the column (K) dimension.
    /// Paper terminology: column-wise compression; used for operand A.
    RowPacked,
    /// Bits of each column are packed along the row (K) dimension.
    /// Paper terminology: row-wise compression; used for operand B.
    ColPacked,
}

/// One bit plane of a matrix, packed into `u32` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    /// Logical (unpadded) number of rows.
    rows: usize,
    /// Logical (unpadded) number of columns.
    cols: usize,
    /// Packing layout.
    layout: BitMatrixLayout,
    /// Number of "lanes": padded rows for `RowPacked`, padded cols for `ColPacked`.
    lanes: usize,
    /// Number of words per lane (packed dimension / 32 after PAD128).
    words_per_lane: usize,
    /// Packed storage, `lanes * words_per_lane` words, lane-major.
    words: Vec<u32>,
}

impl BitMatrix {
    /// Pack a 0/1 `f32` matrix (e.g. a dense adjacency) as a bit plane.
    ///
    /// Any nonzero entry is treated as 1.
    pub fn from_dense_f32(dense: &Matrix<f32>, layout: BitMatrixLayout) -> Self {
        Self::from_nonzero(dense, layout)
    }

    /// An all-zero `rows × cols` plane in recycled `storage` (cleared and
    /// zero-filled to the padded length), ready for [`BitMatrix::set`].
    pub fn zeros_in(rows: usize, cols: usize, layout: BitMatrixLayout, storage: Vec<u32>) -> Self {
        let (lanes, words_per_lane) = match layout {
            BitMatrixLayout::RowPacked => (pad8(rows), pad128(cols) / WORD_BITS),
            BitMatrixLayout::ColPacked => (pad8(cols), pad128(rows) / WORD_BITS),
        };
        let mut words = storage;
        words.clear();
        words.resize(lanes * words_per_lane, 0);
        Self {
            rows,
            cols,
            layout,
            lanes,
            words_per_lane,
            words,
        }
    }

    /// Set logical bit `(r, c)`; returns whether it was clear before.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows && c < self.cols, "bit index out of range");
        let (lane, offset) = match self.layout {
            BitMatrixLayout::RowPacked => (r, c),
            BitMatrixLayout::ColPacked => (c, r),
        };
        let word = &mut self.words[lane * self.words_per_lane + offset / WORD_BITS];
        let mask = 1u32 << (offset % WORD_BITS);
        let was_clear = *word & mask == 0;
        *word |= mask;
        was_clear
    }

    /// Mutable packed storage (lane-major).  Callers must keep the padding
    /// bits zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u32] {
        &mut self.words
    }

    /// Set bits in each logical row of a row-packed plane: the row degrees
    /// when the plane is an adjacency.
    pub fn row_popcounts(&self) -> impl Iterator<Item = u32> + '_ {
        assert_eq!(
            self.layout,
            BitMatrixLayout::RowPacked,
            "row popcounts need a row-packed plane"
        );
        (0..self.rows).map(|r| popcount_words(self.lane(r)))
    }

    /// Pack a 0/1 `u8` matrix as a bit plane (any nonzero entry is a 1).
    pub fn from_bits(bits: &Matrix<u8>, layout: BitMatrixLayout) -> Self {
        debug_assert!(
            bits.data().iter().all(|&b| b <= 1),
            "from_bits expects 0/1 values"
        );
        Self::from_nonzero(bits, layout)
    }

    /// A plane with a 1 wherever `values` is nonzero, walked row-major.
    fn from_nonzero<T: Copy + PartialEq + Default>(
        values: &Matrix<T>,
        layout: BitMatrixLayout,
    ) -> Self {
        let (rows, cols) = values.shape();
        let mut plane = Self::zeros_in(rows, cols, layout, Vec::new());
        for r in 0..rows {
            for (c, &v) in values.row(r).iter().enumerate() {
                if v != T::default() {
                    plane.set(r, c);
                }
            }
        }
        plane
    }

    /// The same logical bits packed under `layout`: a clone when the layout
    /// matches, otherwise the packed words transposed in 32×32 bit blocks
    /// (each source lane's word becomes one bit of 32 output lanes).
    pub(crate) fn relayout(&self, layout: BitMatrixLayout) -> Self {
        if layout == self.layout {
            return self.clone();
        }
        let mut out = Self::zeros_in(self.rows, self.cols, layout, Vec::new());
        let (src_lanes, out_lanes) = match self.layout {
            BitMatrixLayout::RowPacked => (self.rows, self.cols),
            BitMatrixLayout::ColPacked => (self.cols, self.rows),
        };
        let mut block = [0u32; WORD_BITS];
        for lane_block in 0..src_lanes.div_ceil(WORD_BITS) {
            for word in 0..out_lanes.div_ceil(WORD_BITS) {
                for (j, slot) in block.iter_mut().enumerate() {
                    let lane = lane_block * WORD_BITS + j;
                    *slot = if lane < src_lanes {
                        self.words[lane * self.words_per_lane + word]
                    } else {
                        0
                    };
                }
                transpose32(&mut block);
                for (i, &bits) in block.iter().enumerate() {
                    let lane = word * WORD_BITS + i;
                    if lane < out_lanes {
                        out.words[lane * out.words_per_lane + lane_block] = bits;
                    }
                }
            }
        }
        out
    }

    /// Consume the plane and recover its packed storage for recycling through
    /// [`BitMatrix::zeros_in`] — the packed-buffer pool's seam.
    pub fn into_words(self) -> Vec<u32> {
        self.words
    }

    /// Logical number of rows (before padding).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical number of columns (before padding).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Packing layout of this plane.
    pub fn layout(&self) -> BitMatrixLayout {
        self.layout
    }

    /// Number of padded lanes (rows for RowPacked, columns for ColPacked).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of packed words per lane.
    pub fn words_per_lane(&self) -> usize {
        self.words_per_lane
    }

    /// Raw packed storage (lane-major).
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Size of the packed representation in bytes (the quantity that travels over
    /// PCIe in the bandwidth-optimized subgraph packing experiment).
    pub fn packed_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u32>()
    }

    /// The packed words of one lane (row for RowPacked, column for ColPacked).
    #[inline]
    pub fn lane(&self, lane: usize) -> &[u32] {
        debug_assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        &self.words[lane * self.words_per_lane..(lane + 1) * self.words_per_lane]
    }

    /// Read back logical bit `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> u8 {
        assert!(r < self.rows && c < self.cols, "bit index out of range");
        let (lane, offset) = match self.layout {
            BitMatrixLayout::RowPacked => (r, c),
            BitMatrixLayout::ColPacked => (c, r),
        };
        let word = self.lane(lane)[offset / WORD_BITS];
        ((word >> (offset % WORD_BITS)) & 1) as u8
    }

    /// Unpack into a dense 0/1 `u8` matrix of the logical shape.
    pub fn to_dense(&self) -> Matrix<u8> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(r, c)] = self.get(r, c);
            }
        }
        out
    }

    /// Number of set bits in the plane (edge count when the plane is an adjacency).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Order-sensitive FNV-1a fold over the packed words and logical shape.
    ///
    /// This is the integrity primitive behind the epoch pipeline's payload
    /// checksums: cheap (one multiply per word), deterministic, and sensitive to
    /// any single-bit flip in the packed storage.
    pub fn checksum(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut hash = FNV_OFFSET;
        for value in [self.rows as u64, self.cols as u64, self.layout as u64] {
            hash = (hash ^ value).wrapping_mul(FNV_PRIME);
        }
        for &word in &self.words {
            hash = (hash ^ u64::from(word)).wrapping_mul(FNV_PRIME);
        }
        hash
    }

    /// XOR `mask` into packed word `word_index` (lane-major indexing, as
    /// [`BitMatrix::words`]).
    ///
    /// This is a corruption hook for the fault-injection harness: it damages the
    /// packed storage *without* going through any constructor, exactly like an
    /// in-flight bit flip would, so checksum validation has something real to
    /// catch. It has no legitimate use in the data path.
    pub fn flip_word_bits(&mut self, word_index: usize, mask: u32) {
        self.words[word_index] ^= mask;
    }
}

/// Transpose a 32×32 bit block in place: bit `j` of word `i` trades places
/// with bit `i` of word `j`.  Each round swaps the off-diagonal quadrants of
/// every `2w × 2w` sub-block, for `w` = 16, 8, 4, 2, 1.
fn transpose32(block: &mut [u32; WORD_BITS]) {
    let mut width = WORD_BITS / 2;
    let mut mask = 0x0000_FFFFu32;
    while width != 0 {
        for base in (0..WORD_BITS).step_by(2 * width) {
            for k in base..base + width {
                let t = ((block[k] >> width) ^ block[k + width]) & mask;
                block[k] ^= t << width;
                block[k + width] ^= t;
            }
        }
        width /= 2;
        mask ^= mask << width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose32_matches_the_bitwise_definition() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut block = [0u32; WORD_BITS];
        for word in &mut block {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *word = (state >> 32) as u32;
        }
        let original = block;
        transpose32(&mut block);
        for (i, &word) in block.iter().enumerate() {
            for (j, &source) in original.iter().enumerate() {
                assert_eq!((word >> j) & 1, (source >> i) & 1, "({i}, {j})");
            }
        }
    }

    fn checkerboard(rows: usize, cols: usize) -> Matrix<u8> {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = ((r + c) % 2) as u8;
            }
        }
        m
    }

    #[test]
    fn row_packed_round_trip() {
        let m = checkerboard(5, 70);
        let b = BitMatrix::from_bits(&m, BitMatrixLayout::RowPacked);
        assert_eq!(b.rows(), 5);
        assert_eq!(b.cols(), 70);
        assert_eq!(b.lanes(), 8);
        assert_eq!(b.words_per_lane(), 4); // PAD128(70)/32
        assert_eq!(b.to_dense(), m);
    }

    #[test]
    fn col_packed_round_trip() {
        let m = checkerboard(70, 5);
        let b = BitMatrix::from_bits(&m, BitMatrixLayout::ColPacked);
        assert_eq!(b.lanes(), 8);
        assert_eq!(b.words_per_lane(), 4);
        assert_eq!(b.to_dense(), m);
    }

    #[test]
    fn padding_is_zero() {
        let m = Matrix::filled(3, 3, 1u8);
        let b = BitMatrix::from_bits(&m, BitMatrixLayout::RowPacked);
        // 3 rows of 3 ones = 9 set bits; padding contributes none.
        assert_eq!(b.count_ones(), 9);
        let bc = BitMatrix::from_bits(&m, BitMatrixLayout::ColPacked);
        assert_eq!(bc.count_ones(), 9);
    }

    #[test]
    fn from_dense_f32_thresholds_nonzero() {
        let mut d = Matrix::zeros(2, 3);
        d[(0, 0)] = 1.0;
        d[(1, 2)] = 0.5;
        let b = BitMatrix::from_dense_f32(&d, BitMatrixLayout::RowPacked);
        assert_eq!(b.get(0, 0), 1);
        assert_eq!(b.get(1, 2), 1);
        assert_eq!(b.get(0, 1), 0);
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn get_matches_source_for_both_layouts() {
        let m = checkerboard(13, 37);
        for layout in [BitMatrixLayout::RowPacked, BitMatrixLayout::ColPacked] {
            let b = BitMatrix::from_bits(&m, layout);
            for r in 0..13 {
                for c in 0..37 {
                    assert_eq!(b.get(r, c), m[(r, c)], "layout {layout:?} at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn packed_bytes_reflects_padding() {
        let m = Matrix::zeros(10, 130);
        let b = BitMatrix::from_bits(&m, BitMatrixLayout::RowPacked);
        // PAD8(10)=16 lanes, PAD128(130)=256 bits = 8 words per lane.
        assert_eq!(b.packed_bytes(), 16 * 8 * 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let m = Matrix::zeros(2, 2);
        let b = BitMatrix::from_bits(&m, BitMatrixLayout::RowPacked);
        let _ = b.get(2, 0);
    }

    #[test]
    fn empty_matrix_is_legal() {
        let m: Matrix<u8> = Matrix::zeros(0, 0);
        let b = BitMatrix::from_bits(&m, BitMatrixLayout::RowPacked);
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.packed_bytes(), 0);
    }

    #[test]
    fn checksum_detects_any_word_flip() {
        let mut m = Matrix::zeros(5, 70);
        for c in 0..70 {
            m[(0, c)] = (c % 2) as u8;
            m[(3, c)] = 1;
        }
        let clean = BitMatrix::from_bits(&m, BitMatrixLayout::RowPacked);
        let reference = clean.checksum();
        assert_eq!(clean.checksum(), reference, "checksum is deterministic");
        for word_index in 0..clean.words().len() {
            let mut damaged = clean.clone();
            damaged.flip_word_bits(word_index, 1 << (word_index % 32));
            assert_ne!(damaged.checksum(), reference, "flip in word {word_index}");
            damaged.flip_word_bits(word_index, 1 << (word_index % 32));
            assert_eq!(damaged.checksum(), reference, "double flip restores");
        }
    }

    #[test]
    fn checksum_distinguishes_shape_and_layout() {
        let m = Matrix::zeros(4, 8);
        let row = BitMatrix::from_bits(&m, BitMatrixLayout::RowPacked);
        let col = BitMatrix::from_bits(&m, BitMatrixLayout::ColPacked);
        assert_ne!(row.checksum(), col.checksum());
        let wider = BitMatrix::from_bits(&Matrix::zeros(4, 9), BitMatrixLayout::RowPacked);
        assert_ne!(row.checksum(), wider.checksum());
    }
}
