//! 3D-stacked bit compression (paper §4.2, Figure 4).
//!
//! A `q`-bit quantized matrix is stored as `q` packed bit planes stacked along a
//! third ("z") axis.  The plane layout depends on the operand position the matrix
//! will take in a GEMM:
//!
//! * left operand (`A` in `C = A·B`): each plane uses row-packed storage
//!   ("column-wise compression" — coalesced reads along each row);
//! * right operand (`B`): each plane uses column-packed storage
//!   ("row-wise compression" — coalesced reads along each column).
//!
//! The stack also records the quantization parameters used to produce the codes so
//! that downstream layers can dequantize or re-quantize fused with the GEMM epilogue.

use crate::bitmatrix::{BitMatrix, BitMatrixLayout};
use crate::decompose::{bit_decompose, bit_recompose};
use crate::fused::PopcountBody;
use crate::pack::{pad128, pad8, popcount_words, WORD_BITS};
use qgtc_tensor::{Matrix, QuantParams};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of stack unpacks ([`StackedBitMatrix::to_codes`] calls).
static UNPACK_OPS: AtomicU64 = AtomicU64::new(0);

/// Number of stack unpacks (`to_codes` calls) this process has performed so
/// far; `repack` transposes planes instead.  Unpacking is the expensive escape
/// hatch out of the packed quantized domain, so the GNN regression suite
/// asserts on deltas of this counter to pin how many unpacks a forward pass is
/// allowed.
pub fn unpack_ops() -> u64 {
    UNPACK_OPS.load(Ordering::Relaxed)
}

/// A quantized matrix stored as stacked packed bit planes.
#[derive(Debug, Clone, PartialEq)]
pub struct StackedBitMatrix {
    /// Logical number of rows.
    rows: usize,
    /// Logical number of columns.
    cols: usize,
    /// Bitwidth (number of planes).
    bits: u32,
    /// Layout shared by all planes.
    layout: BitMatrixLayout,
    /// The bit planes, LSB first.
    planes: Vec<BitMatrix>,
    /// Quantization parameters used to produce the codes, if any.
    quant: Option<QuantParams>,
}

impl StackedBitMatrix {
    /// Build a stack from a matrix of unsigned codes.
    pub fn from_codes(codes: &Matrix<u32>, bits: u32, layout: BitMatrixLayout) -> Self {
        Self::from_codes_in(codes, bits, layout, &mut Vec::new())
    }

    /// [`StackedBitMatrix::from_codes`] drawing per-plane word storage from
    /// `spares` (buffers recovered via [`StackedBitMatrix::recycle`]); one
    /// spare is popped per plane, falling back to a fresh allocation when the
    /// spare list runs dry.  Recycled storage is zeroed before packing, so the
    /// result is bitwise identical to the freshly-allocated constructor.
    ///
    /// Panics if `bits` is outside `1..=32` or a code does not fit in `bits`.
    pub fn from_codes_in(
        codes: &Matrix<u32>,
        bits: u32,
        layout: BitMatrixLayout,
        spares: &mut Vec<Vec<u32>>,
    ) -> Self {
        let mut packer = WordPacker::new(codes.rows(), codes.cols(), bits, layout, spares);
        let max = u32::MAX >> (32 - bits);
        for r in 0..codes.rows() {
            let row = codes.row(r);
            if let Some(&v) = row.iter().find(|&&v| v > max) {
                panic!("value {v} does not fit in {bits} bits");
            }
            packer.push_row(row);
        }
        packer.finish(None)
    }

    /// Quantize `values` under `params` and pack the codes in one pass,
    /// returning the stack (which remembers `params`) and the per-row code
    /// sums.  No code matrix is staged: each row is quantized and packed
    /// straight into the planes.  Bitwise identical to quantizing with
    /// [`qgtc_tensor::Quantizer::quantize_matrix_u32`] and packing with
    /// [`StackedBitMatrix::from_quantized`].
    ///
    /// The body follows the host, as the GEMM's does
    /// ([`PopcountBody::detect`]): up to 8 bits, AVX-512 hosts quantize and
    /// pack 16 values per vector, and other hosts run the byte-code path
    /// ([`QuantParams::quantize_bytes_into`], byte codes the packer gathers
    /// eight at a time); wider codes take [`QuantParams::quantize`] per value.
    /// [`StackedBitMatrix::quantize_pack_with_body`] picks the body.
    pub fn quantize_pack_in(
        values: &Matrix<f32>,
        params: QuantParams,
        layout: BitMatrixLayout,
        spares: &mut Vec<Vec<u32>>,
    ) -> (Self, Vec<i64>) {
        Self::quantize_pack_with_body(values, params, layout, spares, PopcountBody::detect())
    }

    /// [`StackedBitMatrix::quantize_pack_in`] on an explicitly selected
    /// body: [`PopcountBody::Avx512`] runs the vector pass for widths of at
    /// most 8 bits, [`PopcountBody::Portable`] the byte-code path, and both
    /// return bitwise identical stacks and rowsums.
    ///
    /// # Panics
    ///
    /// Panics if `body` is not available on this host or `params.bits` is
    /// outside `1..=32`.
    pub fn quantize_pack_with_body(
        values: &Matrix<f32>,
        params: QuantParams,
        layout: BitMatrixLayout,
        spares: &mut Vec<Vec<u32>>,
        body: PopcountBody,
    ) -> (Self, Vec<i64>) {
        assert!(
            body.is_available(),
            "popcount body {body:?} is not available on this host"
        );
        let (rows, cols) = values.shape();
        let mut packer = WordPacker::new(rows, cols, params.bits, layout, spares);
        let rowsums = match body {
            #[cfg(target_arch = "x86_64")]
            PopcountBody::Avx512 if params.bits <= 8 && cols <= VECTOR_PACK_MAX_COLS => {
                // SAFETY: the AVX-512 body's availability covers `avx512f`;
                // the packer is fresh and sized for `values` and
                // `params.bits`, and `cols` is in the vector pass's range.
                unsafe { packer.quantize_rows_avx512(values, params) }
            }
            _ => packer.quantize_rows(values, params),
        };
        (packer.finish(Some(params)), rowsums)
    }

    /// The per-bit reference packer: [`bit_decompose`] into one `u8` matrix
    /// per plane, then [`BitMatrix::from_bits`] per plane.  Kept only as the
    /// test oracle of the word packer behind [`StackedBitMatrix::from_codes`];
    /// no production path calls it.
    pub fn from_codes_per_bit(codes: &Matrix<u32>, bits: u32, layout: BitMatrixLayout) -> Self {
        let planes = bit_decompose(codes, bits)
            .iter()
            .map(|p| BitMatrix::from_bits(p, layout))
            .collect();
        Self {
            rows: codes.rows(),
            cols: codes.cols(),
            bits,
            layout,
            planes,
            quant: None,
        }
    }

    /// Wrap one packed plane as a 1-bit stack (e.g. an adjacency written
    /// straight from CSR).
    pub fn from_plane(plane: BitMatrix) -> Self {
        Self {
            rows: plane.rows(),
            cols: plane.cols(),
            bits: 1,
            layout: plane.layout(),
            planes: vec![plane],
            quant: None,
        }
    }

    /// Build a stack from codes produced by a quantizer, remembering its parameters.
    pub fn from_quantized(
        codes: &Matrix<u32>,
        params: QuantParams,
        layout: BitMatrixLayout,
    ) -> Self {
        let mut s = Self::from_codes(codes, params.bits, layout);
        s.quant = Some(params);
        s
    }

    /// Build a 1-bit stack from a dense 0/1 adjacency matrix.
    pub fn from_binary_adjacency(adjacency: &Matrix<f32>, layout: BitMatrixLayout) -> Self {
        Self::from_plane(BitMatrix::from_dense_f32(adjacency, layout))
    }

    /// Consume the stack and push every plane's packed word buffer onto
    /// `spares` for reuse through the `*_in` constructors — the serving
    /// layer's packed-buffer pool rides this seam.
    pub fn recycle(self, spares: &mut Vec<Vec<u32>>) {
        for plane in self.planes {
            spares.push(plane.into_words());
        }
    }

    /// Logical rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bitwidth (number of stacked planes).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Plane layout.
    pub fn layout(&self) -> BitMatrixLayout {
        self.layout
    }

    /// Quantization parameters, if the stack came from a quantizer.
    pub fn quant_params(&self) -> Option<QuantParams> {
        self.quant
    }

    /// The bit planes, LSB first.
    pub fn planes(&self) -> &[BitMatrix] {
        &self.planes
    }

    /// A single plane.
    pub fn plane(&self, i: usize) -> &BitMatrix {
        &self.planes[i]
    }

    /// Total packed size in bytes across all planes — the paper's memory-saving
    /// metric and the payload size of the bandwidth-optimized subgraph packing.
    pub fn packed_bytes(&self) -> usize {
        self.planes.iter().map(BitMatrix::packed_bytes).sum()
    }

    /// Size in bytes the same matrix would occupy as dense `f32`.
    pub fn dense_f32_bytes(&self) -> usize {
        self.rows * self.cols * std::mem::size_of::<f32>()
    }

    /// Compression ratio versus dense fp32 storage (ignoring padding of the dense side).
    pub fn compression_ratio(&self) -> f64 {
        if self.packed_bytes() == 0 {
            return 1.0;
        }
        self.dense_f32_bytes() as f64 / self.packed_bytes() as f64
    }

    /// Re-pack the same codes under another plane layout, preserving the
    /// quantization parameters.
    ///
    /// This is a pure bit shuffle in the quantized domain — each plane is
    /// transposed in 32×32 bit blocks, with no unpack, calibration or
    /// quantize call — used when a stack packed as one
    /// GEMM operand (e.g. the payload's column-packed features) must enter a
    /// GEMM on the other side (e.g. batched GIN's update-first order, which
    /// wants a row-packed left operand).  Returns a clone when the layout
    /// already matches.
    pub fn repack(&self, layout: BitMatrixLayout) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            bits: self.bits,
            layout,
            planes: self.planes.iter().map(|p| p.relayout(layout)).collect(),
            quant: self.quant,
        }
    }

    /// [`Self::repack`] that also returns the per-row code sums, counted
    /// from the row-packed form as `Σ_b popcount(row lane of plane b) << b`.
    /// Callers that need rowsums for the fused epilogue's affine correction
    /// right after a repack (e.g. batched GIN's entry repack) get them
    /// without unpacking the stack.
    pub fn repack_with_rowsums(&self, layout: BitMatrixLayout) -> (Self, Vec<i64>) {
        let repacked = self.repack(layout);
        let rowsums = match (self.layout, layout) {
            (_, BitMatrixLayout::RowPacked) => repacked.row_packed_rowsums(),
            (BitMatrixLayout::RowPacked, _) => self.row_packed_rowsums(),
            _ => self.repack(BitMatrixLayout::RowPacked).row_packed_rowsums(),
        };
        (repacked, rowsums)
    }

    /// Per-row code sums of a row-packed stack, by popcount.
    fn row_packed_rowsums(&self) -> Vec<i64> {
        debug_assert_eq!(self.layout, BitMatrixLayout::RowPacked);
        (0..self.rows)
            .map(|r| {
                self.planes
                    .iter()
                    .enumerate()
                    .map(|(b, plane)| i64::from(popcount_words(plane.lane(r))) << b)
                    .sum()
            })
            .collect()
    }

    /// Reassemble the unsigned code matrix (exact inverse of `from_codes`),
    /// one packed word at a time.
    pub fn to_codes(&self) -> Matrix<u32> {
        UNPACK_OPS.fetch_add(1, Ordering::Relaxed);
        let mut codes: Matrix<u32> = Matrix::zeros(self.rows, self.cols);
        match self.layout {
            BitMatrixLayout::RowPacked => {
                for r in 0..self.rows {
                    let out = codes.row_mut(r);
                    for (b, plane) in self.planes.iter().enumerate() {
                        for (chunk, &word) in out.chunks_mut(WORD_BITS).zip(plane.lane(r)) {
                            for (j, code) in chunk.iter_mut().enumerate() {
                                *code |= ((word >> j) & 1) << b;
                            }
                        }
                    }
                }
            }
            BitMatrixLayout::ColPacked => {
                let cols = self.cols;
                for (b, plane) in self.planes.iter().enumerate() {
                    for c in 0..cols {
                        let lane = plane.lane(c);
                        for r in 0..self.rows {
                            let bit = (lane[r / WORD_BITS] >> (r % WORD_BITS)) & 1;
                            codes.data_mut()[r * cols + c] |= bit << b;
                        }
                    }
                }
            }
        }
        codes
    }

    /// The per-bit reference unpack (a bounds-checked `get` per bit, then
    /// [`bit_recompose`]): the test oracle of [`StackedBitMatrix::to_codes`].
    pub fn to_codes_per_bit(&self) -> Matrix<u32> {
        let dense_planes: Vec<Matrix<u8>> = self.planes.iter().map(BitMatrix::to_dense).collect();
        bit_recompose(&dense_planes)
    }

    /// Order-sensitive checksum across all planes (see [`BitMatrix::checksum`]).
    ///
    /// Any single-bit flip in any plane changes the result, so the pipeline's
    /// prepare stage can verify a sealed payload in one comparison.
    pub fn checksum(&self) -> u64 {
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut hash = (self.bits as u64).wrapping_mul(FNV_PRIME) ^ 0x51ac3ed_u64;
        for plane in &self.planes {
            hash = (hash ^ plane.checksum()).wrapping_mul(FNV_PRIME);
        }
        hash
    }

    /// XOR `mask` into word `word_index` of plane `plane_index` — the
    /// fault-injection corruption hook (see [`BitMatrix::flip_word_bits`]).
    pub fn flip_word_bits(&mut self, plane_index: usize, word_index: usize, mask: u32) {
        self.planes[plane_index].flip_word_bits(word_index, mask);
    }

    /// The shape of the packed representation after padding, expressed as
    /// `(planes, padded_lanes, words_per_lane)` — matches the paper's description of
    /// the compressed tensor, e.g. `3-bit × PAD8(M) × PAD128(K)/32` for operand A.
    pub fn packed_shape(&self) -> (u32, usize, usize) {
        match self.layout {
            BitMatrixLayout::RowPacked => (self.bits, pad8(self.rows), pad128(self.cols) / 32),
            BitMatrixLayout::ColPacked => (self.bits, pad8(self.cols), pad128(self.rows) / 32),
        }
    }
}

/// The word-at-a-time packer behind every code-to-planes constructor: rows of
/// codes go in, and each plane word is assembled from 32 codes before it is
/// stored once.
///
/// * Row-packed planes: each run of 32 codes in a row becomes one word per
///   plane.
/// * Column-packed planes: a strip of 32 rows accumulates into one word per
///   column and plane, stored when the strip is complete.
struct WordPacker {
    rows: usize,
    cols: usize,
    bits: u32,
    layout: BitMatrixLayout,
    planes: Vec<BitMatrix>,
    /// Column-packed strip accumulators, plane-major: `bits` runs of
    /// [`WordPacker::strip_width`] words, the entries past `cols` always zero.
    strip: Vec<u32>,
    next_row: usize,
}

impl WordPacker {
    fn new(
        rows: usize,
        cols: usize,
        bits: u32,
        layout: BitMatrixLayout,
        spares: &mut Vec<Vec<u32>>,
    ) -> Self {
        assert!(
            (1..=32).contains(&bits),
            "bits must be in 1..=32, got {bits}"
        );
        let planes = (0..bits)
            .map(|_| BitMatrix::zeros_in(rows, cols, layout, spares.pop().unwrap_or_default()))
            .collect();
        let strip = match layout {
            BitMatrixLayout::RowPacked => Vec::new(),
            BitMatrixLayout::ColPacked => vec![0; bits as usize * cols.next_multiple_of(WORD_BITS)],
        };
        Self {
            rows,
            cols,
            bits,
            layout,
            planes,
            strip,
            next_row: 0,
        }
    }

    /// Quantize every row of `values` (this packer's shape) under `params`
    /// (its width) and pack it, returning the rows' code sums.
    fn quantize_rows(&mut self, values: &Matrix<f32>, params: QuantParams) -> Vec<i64> {
        let (rows, cols) = values.shape();
        let mut rowsums = Vec::with_capacity(rows);
        // Separate loops: the quantize loop vectorizes only without the
        // running sum.
        if params.bits <= 8 {
            // Zero codes pad the row to whole words for the row-packed gather.
            let mut codes = vec![0u8; cols.next_multiple_of(WORD_BITS)];
            for r in 0..rows {
                params.quantize_bytes_into(values.row(r), &mut codes[..cols]);
                rowsums.push(codes.iter().map(|&c| i64::from(c)).sum());
                self.push_byte_row(&codes);
            }
        } else {
            let mut codes = vec![0u32; cols];
            for r in 0..rows {
                for (code, &v) in codes.iter_mut().zip(values.row(r)) {
                    *code = params.quantize(v);
                }
                rowsums.push(codes.iter().map(|&c| i64::from(c)).sum());
                self.push_row(&codes);
            }
        }
        rowsums
    }

    /// [`WordPacker::quantize_rows`] at AVX-512 width, for at most 8 bits.
    ///
    /// Per 16 values, `vsubps`, `vdivps`, `vmaxps`, `vminps` and `vcvttps2dq`
    /// are the IEEE operations of [`QuantParams::quantize_bytes_into`] in its
    /// order, so every code is the byte-code path's.  Each 32-column word of
    /// a row is two vectors of codes, and `vptestmd` turns one into 16 bits of
    /// a plane: a row-packed plane word is the two masks side by side; a
    /// column-packed plane ORs the row's bit (`r % 32`) into the strip
    /// accumulators of the columns whose codes have the plane's bit set.  The
    /// row's code sum is a vector add, reduced once per row.
    ///
    /// # Safety
    ///
    /// The host must support `avx512f`.  The packer must be fresh and sized
    /// for `values` and `params.bits`, with `params.bits <= 8` and
    /// `cols <= VECTOR_PACK_MAX_COLS`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn quantize_rows_avx512(
        &mut self,
        values: &Matrix<f32>,
        params: QuantParams,
    ) -> Vec<i64> {
        use std::arch::x86_64::{
            __m512i, _mm512_add_epi32, _mm512_div_ps, _mm512_loadu_si512, _mm512_mask_or_epi32,
            _mm512_maskz_cvttps_epi32, _mm512_maskz_loadu_ps, _mm512_max_ps, _mm512_min_ps,
            _mm512_reduce_add_epi32, _mm512_set1_epi32, _mm512_set1_ps, _mm512_setzero_ps,
            _mm512_setzero_si512, _mm512_storeu_si512, _mm512_sub_ps, _mm512_test_epi32_mask,
        };
        const LANES: usize = 16;
        debug_assert!(params.bits <= 8 && params.bits == self.bits && self.next_row == 0);
        debug_assert_eq!(values.shape(), (self.rows, self.cols));
        let (rows, cols) = (self.rows, self.cols);
        let width = self.strip_width();
        let min = _mm512_set1_ps(params.min);
        let scale = _mm512_set1_ps(params.scale);
        let top = _mm512_set1_ps(params.max_code() as f32);
        let all_bits: [__m512i; 8] = std::array::from_fn(|b| _mm512_set1_epi32(1 << b));
        let plane_bits = &all_bits[..self.bits as usize];
        let mut rowsums = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = values.row(r);
            // The codes of columns `col..col + 16`, zero past the row's end.
            let codes = |col: usize| {
                let valid = cols.saturating_sub(col).min(LANES);
                if valid == 0 {
                    return _mm512_setzero_si512();
                }
                let mask = (u32::MAX >> (32 - valid)) as u16;
                // SAFETY: the row holds `cols` values, so `col < cols` keeps
                // the pointer inside it, and the mask loads only the
                // `valid <= cols - col` values left.
                let v = unsafe { _mm512_maskz_loadu_ps(mask, row.as_ptr().add(col)) };
                let x = _mm512_div_ps(_mm512_sub_ps(v, min), scale);
                let x = _mm512_min_ps(_mm512_max_ps(x, _mm512_setzero_ps()), top);
                _mm512_maskz_cvttps_epi32(mask, x)
            };
            let row_bit = _mm512_set1_epi32((1u32 << (r % WORD_BITS)) as i32);
            let mut sum = _mm512_setzero_si512();
            for (w, col) in (0..cols).step_by(WORD_BITS).enumerate() {
                let halves = [codes(col), codes(col + LANES)];
                sum = _mm512_add_epi32(sum, _mm512_add_epi32(halves[0], halves[1]));
                match self.layout {
                    BitMatrixLayout::RowPacked => {
                        for (plane, &bit) in self.planes.iter_mut().zip(plane_bits) {
                            let words_per_lane = plane.words_per_lane();
                            plane.words_mut()[r * words_per_lane + w] =
                                u32::from(_mm512_test_epi32_mask(halves[0], bit))
                                    | u32::from(_mm512_test_epi32_mask(halves[1], bit)) << LANES;
                        }
                    }
                    BitMatrixLayout::ColPacked => {
                        let strip = self.strip.as_mut_ptr();
                        for (b, &bit) in plane_bits.iter().enumerate() {
                            for (half, &codes) in halves.iter().enumerate() {
                                // SAFETY: the strip holds `bits` runs of
                                // `width` words, and the vector's 16 words
                                // end `col + 16 · half + 16 <= col + 32 <=
                                // width` words into run `b < bits`, as `col <
                                // cols` is a multiple of 32 and `width`
                                // rounds `cols` up to one.
                                let slot = strip.add(b * width + col + half * LANES).cast();
                                let old = _mm512_loadu_si512(slot);
                                let set = _mm512_test_epi32_mask(codes, bit);
                                _mm512_storeu_si512(
                                    slot,
                                    _mm512_mask_or_epi32(old, set, old, row_bit),
                                );
                            }
                        }
                    }
                }
            }
            // At most `255 · cols < 2^31` (`VECTOR_PACK_MAX_COLS`), so the
            // `i32` reduction does not wrap.
            rowsums.push(i64::from(_mm512_reduce_add_epi32(sum)));
            self.next_row += 1;
            if self.layout == BitMatrixLayout::ColPacked
                && (r % WORD_BITS == WORD_BITS - 1 || r + 1 == rows)
            {
                self.flush_strip(r / WORD_BITS);
            }
        }
        rowsums
    }

    /// Pack the next row's codes (each must fit in `bits`).
    fn push_row(&mut self, codes: &[u32]) {
        debug_assert_eq!(codes.len(), self.cols);
        let r = self.claim_row();
        match self.layout {
            BitMatrixLayout::RowPacked => {
                for (b, plane) in self.planes.iter_mut().enumerate() {
                    let words_per_lane = plane.words_per_lane();
                    let lane = &mut plane.words_mut()[r * words_per_lane..];
                    for (slot, chunk) in lane.iter_mut().zip(codes.chunks(WORD_BITS)) {
                        *slot = chunk
                            .iter()
                            .enumerate()
                            .fold(0, |word, (j, &code)| word | ((code >> b) & 1) << j);
                    }
                }
            }
            BitMatrixLayout::ColPacked => self.strip_row(r, codes),
        }
    }

    /// [`WordPacker::push_row`] for byte codes (at most 8 bits), padded with
    /// zero codes to a whole number of words: each row-packed plane word is
    /// gathered from its 32 codes eight at a time.
    fn push_byte_row(&mut self, codes: &[u8]) {
        debug_assert!(self.bits <= 8);
        debug_assert_eq!(codes.len(), self.cols.next_multiple_of(WORD_BITS));
        let r = self.claim_row();
        match self.layout {
            BitMatrixLayout::RowPacked => {
                for (b, plane) in self.planes.iter_mut().enumerate() {
                    let words_per_lane = plane.words_per_lane();
                    let lane = &mut plane.words_mut()[r * words_per_lane..];
                    for (slot, chunk) in lane.iter_mut().zip(codes.chunks_exact(WORD_BITS)) {
                        *slot = chunk
                            .chunks_exact(8)
                            .enumerate()
                            .fold(0, |word, (k, eight)| word | gather_bit(eight, b) << (8 * k));
                    }
                }
            }
            BitMatrixLayout::ColPacked => self.strip_row(r, &codes[..self.cols]),
        }
    }

    /// Claim the next row index.
    fn claim_row(&mut self) -> usize {
        let r = self.next_row;
        debug_assert!(r < self.rows, "more rows pushed than declared");
        self.next_row += 1;
        r
    }

    /// Strip accumulators per plane: `cols` rounded up to whole words, so the
    /// vector pass ORs whole vectors into them.
    fn strip_width(&self) -> usize {
        self.cols.next_multiple_of(WORD_BITS)
    }

    /// OR row `r`'s codes into the column-packed strip accumulators, storing
    /// the strip once its 32 rows (or the last row) are in.
    fn strip_row<C: Copy + Into<u32>>(&mut self, r: usize, codes: &[C]) {
        if self.cols == 0 {
            return;
        }
        let shift = r % WORD_BITS;
        let width = self.strip_width();
        for (b, acc) in self.strip.chunks_exact_mut(width).enumerate() {
            for (word, &code) in acc.iter_mut().zip(codes) {
                *word |= ((code.into() >> b) & 1) << shift;
            }
        }
        if shift == WORD_BITS - 1 || r + 1 == self.rows {
            self.flush_strip(r / WORD_BITS);
        }
    }

    /// Store the column-packed strip accumulators as word `strip` of every
    /// column lane, then clear them.
    fn flush_strip(&mut self, strip: usize) {
        if self.cols == 0 {
            return;
        }
        let width = self.strip_width();
        for (plane, acc) in self
            .planes
            .iter_mut()
            .zip(self.strip.chunks_exact_mut(width))
        {
            let words_per_lane = plane.words_per_lane();
            let words = plane.words_mut();
            for (c, word) in acc[..self.cols].iter_mut().enumerate() {
                words[c * words_per_lane + strip] = std::mem::take(word);
            }
        }
    }

    fn finish(self, quant: Option<QuantParams>) -> StackedBitMatrix {
        assert_eq!(self.next_row, self.rows, "every row must be pushed");
        StackedBitMatrix {
            rows: self.rows,
            cols: self.cols,
            bits: self.bits,
            layout: self.layout,
            planes: self.planes,
            quant,
        }
    }
}

/// Widest row the AVX-512 quantize-pack takes: its `i32` lanes hold a row's
/// code sum, at most `255 · cols`, only below `2^31`.  Wider rows (over
/// 32 MiB of `f32` each) take the byte-code path.
#[cfg(target_arch = "x86_64")]
const VECTOR_PACK_MAX_COLS: usize = 1 << 23;

/// Bit `b` of eight byte codes as one byte, code `j` at bit `j`: the mask
/// moves each code's bit to the bottom of its byte, and the multiply gathers
/// the eight byte bottoms into the top byte without carries.
#[inline(always)]
fn gather_bit(eight: &[u8], b: usize) -> u32 {
    let x = u64::from_le_bytes(eight.try_into().expect("chunks of eight codes"));
    (((x >> b) & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_tensor::rng::random_uniform_matrix;
    use qgtc_tensor::Quantizer;

    fn code_matrix(rows: usize, cols: usize, bits: u32, seed: u64) -> Matrix<u32> {
        let max = (1u32 << bits) - 1;
        let f = random_uniform_matrix(rows, cols, 0.0, max as f32 + 0.99, seed);
        f.map(|&v| (v as u32).min(max))
    }

    #[test]
    fn round_trip_codes() {
        for bits in [1u32, 2, 3, 4, 8] {
            let codes = code_matrix(9, 33, bits, 42 + bits as u64);
            for layout in [BitMatrixLayout::RowPacked, BitMatrixLayout::ColPacked] {
                let s = StackedBitMatrix::from_codes(&codes, bits, layout);
                assert_eq!(s.bits(), bits);
                assert_eq!(s.planes().len(), bits as usize);
                assert_eq!(s.to_codes(), codes, "bits {bits} layout {layout:?}");
            }
        }
    }

    #[test]
    fn packed_shape_matches_paper_example() {
        // Paper: 3-bit M x K operand A packs to 3-bit x PAD8(M) x PAD128(K)/32.
        let codes = code_matrix(10, 200, 3, 7);
        let a = StackedBitMatrix::from_codes(&codes, 3, BitMatrixLayout::RowPacked);
        assert_eq!(a.packed_shape(), (3, 16, 8));
        // 2-bit K x N operand B packs to 2-bit x PAD128(K)/32 words per lane with
        // PAD8(N) lanes.
        let codes_b = code_matrix(200, 10, 2, 8);
        let b = StackedBitMatrix::from_codes(&codes_b, 2, BitMatrixLayout::ColPacked);
        assert_eq!(b.packed_shape(), (2, 16, 8));
    }

    #[test]
    fn compression_ratio_beats_fp32_for_low_bits() {
        // A 256x256 2-bit matrix: 2 x 256 x 256 bits packed vs 32 bits per element.
        let codes = code_matrix(256, 256, 2, 3);
        let s = StackedBitMatrix::from_codes(&codes, 2, BitMatrixLayout::RowPacked);
        assert!(
            s.compression_ratio() > 10.0,
            "expected >10x compression, got {:.1}",
            s.compression_ratio()
        );
    }

    #[test]
    fn binary_adjacency_stack_is_one_plane() {
        let mut adj = Matrix::zeros(6, 6);
        adj[(0, 1)] = 1.0;
        adj[(1, 0)] = 1.0;
        adj[(4, 5)] = 1.0;
        let s = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        assert_eq!(s.bits(), 1);
        assert_eq!(s.plane(0).count_ones(), 3);
        assert_eq!(s.to_codes()[(0, 1)], 1);
        assert_eq!(s.to_codes()[(2, 2)], 0);
    }

    #[test]
    fn repack_preserves_codes_and_params() {
        let x = random_uniform_matrix(11, 37, -2.0, 2.0, 6);
        let q = Quantizer::calibrate(3, &x).unwrap();
        let codes = q.quantize_matrix_u32(&x);
        let col = StackedBitMatrix::from_quantized(&codes, q.params(), BitMatrixLayout::ColPacked);
        let row = col.repack(BitMatrixLayout::RowPacked);
        assert_eq!(row.layout(), BitMatrixLayout::RowPacked);
        assert_eq!(row.to_codes(), codes);
        assert_eq!(row.quant_params(), Some(q.params()));
        // Re-packing to the same layout is the identity.
        assert_eq!(col.repack(BitMatrixLayout::ColPacked), col);
    }

    #[test]
    fn repack_with_rowsums_matches_repack_and_code_sums() {
        let codes = code_matrix(13, 29, 3, 11);
        let col = StackedBitMatrix::from_codes(&codes, 3, BitMatrixLayout::ColPacked);
        let (row, rowsums) = col.repack_with_rowsums(BitMatrixLayout::RowPacked);
        assert_eq!(row, col.repack(BitMatrixLayout::RowPacked));
        let expected: Vec<i64> = (0..13)
            .map(|i| (0..29).map(|j| codes[(i, j)] as i64).sum())
            .collect();
        assert_eq!(rowsums, expected);
    }

    #[test]
    fn repack_of_one_row_stack_is_the_identity_on_codes() {
        // Pin the degenerate single-row case the epilogue boundary suite leans
        // on: a 1-row stack repacks to either layout without panicking and
        // round-trips its codes exactly (no padding bits leak into row 0).
        let codes = code_matrix(1, 37, 4, 21);
        for from in [BitMatrixLayout::RowPacked, BitMatrixLayout::ColPacked] {
            let stack = StackedBitMatrix::from_codes(&codes, 4, from);
            for to in [BitMatrixLayout::RowPacked, BitMatrixLayout::ColPacked] {
                let repacked = stack.repack(to);
                assert_eq!(repacked.layout(), to);
                assert_eq!(repacked.to_codes(), codes, "{from:?} -> {to:?}");
            }
            let (repacked, rowsums) = stack.repack_with_rowsums(BitMatrixLayout::RowPacked);
            assert_eq!(repacked.to_codes(), codes);
            assert_eq!(rowsums.len(), 1);
            assert_eq!(
                rowsums[0],
                (0..37).map(|j| codes[(0, j)] as i64).sum::<i64>()
            );
        }
    }

    #[test]
    fn unpack_counter_advances_with_to_codes() {
        let codes = code_matrix(4, 4, 2, 31);
        let stack = StackedBitMatrix::from_codes(&codes, 2, BitMatrixLayout::RowPacked);
        let before = super::unpack_ops();
        let _ = stack.to_codes();
        assert!(super::unpack_ops() > before);
    }

    #[test]
    fn recycled_storage_packs_bitwise_identical_to_fresh() {
        let codes_a = code_matrix(9, 33, 3, 1);
        let codes_b = code_matrix(5, 17, 2, 2);
        for layout in [BitMatrixLayout::RowPacked, BitMatrixLayout::ColPacked] {
            let fresh = StackedBitMatrix::from_codes(&codes_b, 2, layout);
            let mut spares = Vec::new();
            StackedBitMatrix::from_codes(&codes_a, 3, layout).recycle(&mut spares);
            assert_eq!(spares.len(), 3);
            // Poison the recycled buffers; the `_in` constructors must zero them.
            for spare in &mut spares {
                spare.iter_mut().for_each(|w| *w = 0xDEAD_BEEF);
            }
            let recycled = StackedBitMatrix::from_codes_in(&codes_b, 2, layout, &mut spares);
            assert_eq!(recycled, fresh, "layout {layout:?}");
            assert_eq!(recycled.checksum(), fresh.checksum());
            assert_eq!(spares.len(), 1, "two planes consumed two spares");
        }
    }

    #[test]
    fn from_quantized_remembers_params() {
        let x = random_uniform_matrix(8, 8, -1.0, 1.0, 5);
        let q = Quantizer::calibrate(4, &x).unwrap();
        let codes = q.quantize_matrix_u32(&x);
        let s = StackedBitMatrix::from_quantized(&codes, q.params(), BitMatrixLayout::RowPacked);
        assert_eq!(s.quant_params(), Some(q.params()));
        assert_eq!(s.bits(), 4);
        assert_eq!(s.to_codes(), codes);
    }

    #[test]
    fn stacked_checksum_detects_flips_in_any_plane() {
        let mut codes = Matrix::zeros(6, 40);
        for r in 0..6 {
            for c in 0..40 {
                codes[(r, c)] = ((r * 7 + c) % 16) as u32;
            }
        }
        let clean = StackedBitMatrix::from_codes(&codes, 4, BitMatrixLayout::RowPacked);
        let reference = clean.checksum();
        for plane_index in 0..clean.planes().len() {
            let mut damaged = clean.clone();
            damaged.flip_word_bits(plane_index, 0, 0b101);
            assert_ne!(damaged.checksum(), reference, "flip in plane {plane_index}");
            damaged.flip_word_bits(plane_index, 0, 0b101);
            assert_eq!(damaged.checksum(), reference, "double flip restores");
        }
    }
}
