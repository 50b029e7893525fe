//! Fused any-bitwidth GEMM: every bit-plane pair in one pass over the output.
//!
//! The oracle in [`crate::gemm`] materialises a fresh `Matrix<u32>` partial
//! product per `(i, j)` plane pair and then re-walks the full M×N output to
//! shift-accumulate it — `s·t` allocations and `s·t` extra passes over C for an
//! `s`-bit × `t`-bit GEMM.  The kernels here are the fusion Algorithm 1 of the
//! paper actually describes: walk the output **once**, and for each block of
//! elements reduce *all* plane pairs in registers before a single store.
//!
//! Two kernels compute that product, one per [`PopcountBody`], and
//! [`any_bit_gemm_fused_into`] — the kernel layer's entry — picks the one the
//! body runs in production:
//!
//! * **the broadcast kernel** (AVX-512 `VPOPCNTDQ` hosts) mirrors the shape of
//!   the tensor core's b1 MMA (paper §4.3–4.4).  B is transposed once per
//!   call to `[K word][B plane][column]`, so one K word of eight adjacent
//!   output columns is one 512-bit vector — the MMA's 8-column output tile.
//!   Per output row, each widened A word is broadcast once and ANDed,
//!   `VPOPCNTQ`-counted and accumulated against up to 64 columns, so every A
//!   word is reused across the whole column chunk (the A-fragment reuse of
//!   §4.4), and the accumulators stay in registers for the whole K loop,
//!   stored once per output.  With zero-word skipping on, the row's word
//!   list holds only its nonzero words, so an all-zero A word costs nothing —
//!   the word-granular form of §4.3's zero-tile jumping, free on dense
//!   operands too.  It finishes blocks of [`BROADCAST_ROW_BLOCK`] rows: on
//!   the persistent pool for GEMMs of at least [`BROADCAST_INLINE_ROWS`] rows,
//!   one after another on the calling thread for smaller ones;
//! * **the legacy kernel** (every host; the portable body's only kernel)
//!   vectorises along K instead: blocks of [`ROW_BLOCK`] rows per pool work
//!   item, `u64` word pairs widened once per call (B) or once per row (A),
//!   and [`COL_BLOCK`] output columns per micro-kernel step with four
//!   independent accumulator chains.  Its skipping mode scans each widened A
//!   lane for maximal runs ("spans") of nonzero words and runs the
//!   micro-kernel over those only.  [`any_bit_gemm_fused_with_stats`] runs it
//!   on the detected body, including its AVX-512 micro-kernel, which no
//!   production path reaches.
//!
//! Each kernel hands every finished block of rows to a [`RowSink`] while the
//! block's accumulators are still in cache (paper §4.5: the epilogue runs
//! inside the GEMM).  The plain product is the sink [`StoreAccumulators`],
//! which has the kernel compute each block straight into an `i64` output; the
//! kernel layer's epilogue sink has it compute into a per-thread scratch block
//! and writes only the dequantized `f32` rows, so the `m × n` `i64` matrix is
//! never materialised.  [`accumulator_matrices`] counts the ones that are.
//!
//! Both kernels on every body are bitwise identical to
//! [`crate::gemm::any_bit_gemm_serial`], the semantic oracle, and report the
//! same [`FusedGemmStats`]: skipped words are exactly the all-zero ones.  The
//! property and conformance suites assert both across random shapes, bit
//! widths, sparsity and padded/odd K values.

use crate::bitmatrix::{BitMatrix, BitMatrixLayout};
use crate::stacked::StackedBitMatrix;
use qgtc_tensor::Matrix;
use rayon::prelude::*;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Output rows per parallel work item of the legacy kernel (one pool dispatch
/// covers all of C).
pub const ROW_BLOCK: usize = 8;

/// Output columns the legacy kernel produces per micro-kernel step.
pub const COL_BLOCK: usize = 4;

/// Output rows per pool work item of the broadcast kernel.  Measured against
/// 8, 16 and 64 on ~950-row GEMMs: 8 and 16 pay more per-item overhead, and
/// 64 was only 2% faster on two cores while leaving about two blocks per
/// worker on an 8-wide pool (see the README's "The broadcast popcount
/// kernel").
pub const BROADCAST_ROW_BLOCK: usize = 32;

/// GEMMs with fewer output rows than this run the broadcast kernel inline on
/// the calling thread: below it a pool dispatch costs more than the second
/// core saves.  Serving's ~120-row batches therefore run inline and the epoch
/// workloads' ~950-row batches on the pool.  Chosen from a measured sweep of
/// the workloads' GEMM shapes from 128 to 950 rows (see the README's "The
/// broadcast popcount kernel").
pub const BROADCAST_INLINE_ROWS: usize = 384;

/// A maximal run of non-zero widened A words: `(first_word, word_count)`.
type Span = (usize, usize);

/// Which popcount micro-kernel body the fused GEMM runs.
///
/// Both bodies are bitwise identical over any input; they differ only in the
/// instructions that count the bits.  [`any_bit_gemm_fused_with_stats`]
/// picks [`PopcountBody::detect`]; the kernel layer's `BackendChoice` resolves
/// to one body, and the conformance suite and the perfsmoke race iterate
/// [`PopcountBody::ALL`].  The quantize-pack has the same two bodies
/// ([`StackedBitMatrix::quantize_pack_with_body`]), picked by the host alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PopcountBody {
    /// Scalar `u64::count_ones` loop — available on every host.
    #[default]
    Portable,
    /// AVX-512 `VPOPCNTQ`, 512 bits per step — x86-64 hosts with
    /// `avx512f` + `avx512vpopcntdq` + `avx512dq` only.
    Avx512,
}

impl PopcountBody {
    /// Every body, available on this host or not.
    pub const ALL: [PopcountBody; 2] = [PopcountBody::Portable, PopcountBody::Avx512];

    /// The bodies this host can run, in [`PopcountBody::ALL`] order.
    pub fn available() -> Vec<PopcountBody> {
        PopcountBody::ALL
            .into_iter()
            .filter(|body| body.is_available())
            .collect()
    }

    /// The fastest body available on this host: AVX-512 when available, the
    /// scalar loop otherwise.
    pub fn detect() -> Self {
        if avx512_popcount_available() {
            PopcountBody::Avx512
        } else {
            PopcountBody::Portable
        }
    }

    /// Whether this body can run on this host.
    pub fn is_available(self) -> bool {
        match self {
            PopcountBody::Portable => true,
            PopcountBody::Avx512 => avx512_popcount_available(),
        }
    }

    /// Stable lower-case name (what `BackendChoice::name` and the benchmark
    /// reports call the body).
    pub fn name(self) -> &'static str {
        match self {
            PopcountBody::Portable => "portable",
            PopcountBody::Avx512 => "avx512",
        }
    }
}

/// Zero-word accounting of one fused GEMM execution.
///
/// Words are the widened 64-bit units of the inner (K) loop; the totals count
/// one word per `(A plane, output row)` lane, i.e. the K-loop trip count the
/// kernel would pay per B lane without skipping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedGemmStats {
    /// Widened A words the K loop would visit without skipping.
    pub total_words: u64,
    /// Non-zero words (actually popcounted) when skipping; every word
    /// otherwise.
    pub visited_words: u64,
}

impl FusedGemmStats {
    /// Words the skip removed from the popcount loop.
    pub fn skipped_words(&self) -> u64 {
        self.total_words - self.visited_words
    }

    /// Fraction of K-loop work skipped, in `[0, 1]` (0.0 when nothing ran).
    pub fn skip_ratio(&self) -> f64 {
        if self.total_words == 0 {
            0.0
        } else {
            self.skipped_words() as f64 / self.total_words as f64
        }
    }
}

/// Whether `k` products of an `a_bits`-bit and a `b_bits`-bit code always sum
/// inside the kernels' `i64` accumulators: `a_bits + b_bits + ⌈log2 k⌉ ≤ 63`.
/// Every fused entry point and the oracle assert it.
pub fn accumulator_fits(a_bits: u32, b_bits: u32, k: usize) -> bool {
    a_bits + b_bits + k.max(1).next_power_of_two().trailing_zeros() <= 63
}

/// Panic unless the product `a · b` passes [`accumulator_fits`]: the
/// shift-accumulate would otherwise wrap silently in release builds.
pub(crate) fn assert_accumulator_fits(a: &StackedBitMatrix, b: &StackedBitMatrix) {
    assert!(
        accumulator_fits(a.bits(), b.bits(), a.cols()),
        "a {}-bit by {}-bit product over K = {} can overflow the i64 accumulators",
        a.bits(),
        b.bits(),
        a.cols()
    );
}

/// Process-wide count of `i64` accumulator matrices the kernels materialised.
static ACCUMULATOR_MATRICES: AtomicU64 = AtomicU64::new(0);

/// Number of `m × n` `i64` accumulator matrices this process has
/// materialised so far: one per plain product ([`StoreAccumulators`]) and per
/// condensed aggregation.  An epilogue run inside the kernel creates none, so
/// the model suite asserts on deltas of this counter that a default forward
/// pass materialises no accumulator matrix.
pub fn accumulator_matrices() -> u64 {
    ACCUMULATOR_MATRICES.load(Ordering::Relaxed)
}

/// A zeroed `rows × cols` accumulator matrix, counted by
/// [`accumulator_matrices`].
pub(crate) fn accumulator_matrix(rows: usize, cols: usize) -> Matrix<i64> {
    ACCUMULATOR_MATRICES.fetch_add(1, Ordering::Relaxed);
    Matrix::zeros(rows, cols)
}

/// The plain `rows × cols` product, counted by [`accumulator_matrices`]:
/// `kernel` computes it straight into the matrix's storage with
/// [`StoreAccumulators`].  Both kernels write every element of their output,
/// so the storage is not zero-filled first.
fn plain_product(
    rows: usize,
    cols: usize,
    kernel: impl FnOnce(&mut [MaybeUninit<i64>]) -> FusedGemmStats,
) -> (Matrix<i64>, FusedGemmStats) {
    ACCUMULATOR_MATRICES.fetch_add(1, Ordering::Relaxed);
    let len = rows * cols;
    let mut data = Vec::with_capacity(len);
    let stats = kernel(&mut data.spare_capacity_mut()[..len]);
    // SAFETY: the kernel wrote all `len` elements (`RowSink::block`'s
    // contract), and a panic before this line drops `data` empty.
    unsafe { data.set_len(len) };
    let out = Matrix::from_vec(rows, cols, data).expect("rows × cols accumulators");
    (out, stats)
}

/// What the fused kernels do with each block of finished output rows.
///
/// Both kernels compute the output in blocks of whole rows — one pool work
/// item each, or one after another on the calling thread — and hand each
/// block to the sink while its accumulators are still in cache.  The sink
/// decides where the accumulators live and what becomes of them.
pub trait RowSink: Sync {
    /// Element type of the output the sink writes.
    type Elem: Send;
    /// What one block hands back (the epilogue's value range, say).
    type Block: Send + Default;

    /// Produce the output rows starting at `first_row`, `out.len() / n` of
    /// them for an `n`-column output: `compute` writes every element of an
    /// `i64` buffer as long as `out` with their accumulators.
    fn block<F: FnOnce(&mut [MaybeUninit<i64>])>(
        &self,
        first_row: usize,
        out: &mut [Self::Elem],
        compute: F,
    ) -> Self::Block;

    /// Merge the result of a later block (higher rows) into an earlier one's.
    /// The kernels merge in row order, whatever order the pool ran the blocks
    /// in.
    fn merge(earlier: &mut Self::Block, later: Self::Block);
}

/// The plain product: each block's accumulators are computed straight into
/// the `i64` output and stored unchanged.
pub struct StoreAccumulators;

impl RowSink for StoreAccumulators {
    type Elem = MaybeUninit<i64>;
    type Block = ();

    fn block<F: FnOnce(&mut [MaybeUninit<i64>])>(
        &self,
        _first_row: usize,
        out: &mut [MaybeUninit<i64>],
        compute: F,
    ) {
        compute(out);
    }

    fn merge(_earlier: &mut (), _later: ()) {}
}

/// The legacy kernel on the detected body: `C = A · B` between an `s`-bit
/// row-packed stack and a `t`-bit column-packed stack, bit-for-bit equal to
/// [`crate::gemm::any_bit_gemm_serial`], with zero-word skipping on or off
/// and always returning the word accounting.  With
/// `skip_zero_words == false` every K-loop word is visited and the stats
/// report zero skips.
///
/// This is the one entry to the legacy kernel's AVX-512 micro-kernel:
/// production runs the broadcast kernel on that body
/// ([`any_bit_gemm_fused_into`]).  perfsmoke's sparse-skip and condense
/// probes, tilingtune's condense stage and the conformance suites call it; it
/// is deleted together with the condensed adjacency path (ROADMAP item 1).
///
/// # Panics
///
/// Panics on a layout or shape mismatch, and when the bitwidths and K could
/// overflow the accumulators ([`accumulator_fits`]).
pub fn any_bit_gemm_fused_with_stats(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    skip_zero_words: bool,
) -> (Matrix<i64>, FusedGemmStats) {
    validate_fused_operands(a, b);
    plain_product(a.rows(), b.cols(), |out| {
        let body = PopcountBody::detect();
        legacy_gemm(a, b, skip_zero_words, body, &StoreAccumulators, out).0
    })
}

/// The plain product on an explicitly selected popcount body: the
/// `i64` accumulator matrix of [`any_bit_gemm_fused_into`] with
/// [`StoreAccumulators`].
///
/// # Panics
///
/// As [`any_bit_gemm_fused_into`].
pub fn any_bit_gemm_fused_with_body(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    skip_zero_words: bool,
    body: PopcountBody,
) -> (Matrix<i64>, FusedGemmStats) {
    plain_product(a.rows(), b.cols(), |out| {
        any_bit_gemm_fused_into(a, b, skip_zero_words, body, &StoreAccumulators, out).0
    })
}

/// Fused GEMM on an explicitly selected popcount body, each finished block of
/// rows consumed by `sink` into `out` (`a.rows() × b.cols()` elements, row
/// major) — the kernel layer's entry point.  Each body runs its production
/// kernel: [`PopcountBody::Avx512`] the broadcast kernel,
/// [`PopcountBody::Portable`] the legacy kernel.  Both compute bitwise
/// identical accumulators and return identical [`FusedGemmStats`], plus the
/// blocks' results merged in row order.
///
/// # Panics
///
/// Panics if `body` is not available on this host, if `out` has the wrong
/// length, on a layout or shape mismatch, and when the bitwidths and K could
/// overflow the accumulators ([`accumulator_fits`]).
pub fn any_bit_gemm_fused_into<S: RowSink>(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    skip_zero_words: bool,
    body: PopcountBody,
    sink: &S,
    out: &mut [S::Elem],
) -> (FusedGemmStats, S::Block) {
    assert!(
        body.is_available(),
        "popcount body {body:?} is not available on this host"
    );
    validate_fused_operands(a, b);
    assert_eq!(out.len(), a.rows() * b.cols(), "fused GEMM output length");
    match body {
        #[cfg(target_arch = "x86_64")]
        PopcountBody::Avx512 => broadcast_gemm(a, b, skip_zero_words, sink, out),
        _ => legacy_gemm(a, b, skip_zero_words, body, sink, out),
    }
}

/// Run `kernel` over the output in blocks of `block_rows` rows — on the pool
/// when `pooled`, else one after another on the calling thread — and hand
/// each block to `sink`.  `kernel(scratch, first_row, acc)` fills `acc` with
/// the accumulators of the rows starting at `first_row` and returns the A
/// words it visited; `scratch` is its working state, made by `new_scratch`
/// once per pool work item, or once for all blocks run inline.  Returns the
/// visited words and the blocks' results, merged in row order so that neither
/// depends on the pool's schedule.
fn drive<S: RowSink, W>(
    out: &mut [S::Elem],
    n: usize,
    block_rows: usize,
    pooled: bool,
    sink: &S,
    new_scratch: impl Fn() -> W + Sync,
    kernel: impl Fn(&mut W, usize, &mut [MaybeUninit<i64>]) -> u64 + Sync,
) -> (u64, S::Block) {
    let run = |scratch: &mut W, block: usize, rows: &mut [S::Elem]| {
        let first_row = block * block_rows;
        let mut visited = 0;
        let result = sink.block(first_row, rows, |acc| {
            visited = kernel(scratch, first_row, acc);
        });
        (visited, result)
    };
    let chunk = block_rows * n;
    let mut visited = 0;
    let mut merged = S::Block::default();
    let mut take = |(count, result): (u64, S::Block)| {
        visited += count;
        S::merge(&mut merged, result);
    };
    if pooled {
        let slots: Vec<Mutex<(u64, S::Block)>> = (0..out.len().div_ceil(chunk))
            .map(|_| Mutex::default())
            .collect();
        out.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(block, rows)| {
                *slots[block].lock().unwrap() = run(&mut new_scratch(), block, rows);
            });
        for slot in slots {
            take(slot.into_inner().unwrap());
        }
    } else {
        let mut scratch = new_scratch();
        for (block, rows) in out.chunks_mut(chunk).enumerate() {
            take(run(&mut scratch, block, rows));
        }
    }
    (visited, merged)
}

/// The legacy kernel, blocks of [`ROW_BLOCK`] rows on the pool.
///
/// The two modes run distinct row kernels: the non-skipping path is the
/// original dense micro-kernel (full-lane popcounts, no span indirection —
/// its stats are the arithmetic `rows × planes × pairs`), so enabling the
/// skip machinery costs the dense hot path nothing.
fn legacy_gemm<S: RowSink>(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    skip_zero_words: bool,
    body: PopcountBody,
    sink: &S,
    out: &mut [S::Elem],
) -> (FusedGemmStats, S::Block) {
    let m = a.rows();
    let n = b.cols();
    if m == 0 || n == 0 {
        return Default::default();
    }
    let words = a.plane(0).words_per_lane();
    debug_assert_eq!(words % 2, 0, "PAD128 guarantees an even word count");
    let pairs = words / 2;
    let s = a.planes().len();
    let t = b.planes().len();

    // Widen every B lane once per call: layout [plane][column][pair], so the
    // four lanes of a column block are one contiguous region.
    let mut b_wide = vec![0u64; t * n * pairs];
    for (plane_idx, plane) in b.planes().iter().enumerate() {
        for col in 0..n {
            let base = (plane_idx * n + col) * pairs;
            widen_lane(&mut b_wide[base..base + pairs], &plane.lane(col)[..words]);
        }
    }
    let a_planes = a.planes();
    // Worker-local scratch: the current row's A lanes, widened, plus — when
    // skipping — the per-plane non-zero span index of those lanes.
    let new_scratch = || (vec![0u64; s * pairs], vec![Vec::<Span>::new(); s]);
    let kernel = |(a_wide, spans): &mut (Vec<u64>, Vec<Vec<Span>>),
                  first_row: usize,
                  rows: &mut [MaybeUninit<i64>]|
     -> u64 {
        let mut visited = 0u64;
        for (local, out_row) in rows.chunks_mut(n).enumerate() {
            for (plane_idx, plane) in a_planes.iter().enumerate() {
                let lane = &mut a_wide[plane_idx * pairs..(plane_idx + 1) * pairs];
                widen_lane(lane, &plane.lane(first_row + local)[..words]);
                if skip_zero_words {
                    visited += nonzero_spans(lane, &mut spans[plane_idx]) as u64;
                }
            }
            if skip_zero_words {
                fused_row_spans(a_wide, s, &b_wide, t, pairs, spans, out_row, body);
            } else {
                fused_row_full(a_wide, s, &b_wide, t, pairs, out_row, body);
            }
        }
        visited
    };
    let (visited, block) = drive(out, n, ROW_BLOCK, true, sink, new_scratch, kernel);
    let total_words = (m * s * pairs) as u64;
    let stats = FusedGemmStats {
        total_words,
        visited_words: if skip_zero_words {
            visited
        } else {
            total_words
        },
    };
    (stats, block)
}

/// 64-bit lanes per 512-bit vector: the output columns of one broadcast step.
#[cfg(target_arch = "x86_64")]
const LANES: usize = 8;

/// Vectors per broadcast column chunk: up to 64 output columns share one walk
/// of the row's A words, with their accumulators in registers.
#[cfg(target_arch = "x86_64")]
const CHUNK_VECTORS: usize = 8;

/// The broadcast kernel: the AVX-512 body's GEMM (see the module docs).
///
/// Bitwise identical to the legacy kernel, with identical statistics: the
/// per-row word list holds every widened A word, or only the nonzero ones
/// when skipping, so `visited_words` counts exactly what the legacy span
/// index covers.
#[cfg(target_arch = "x86_64")]
fn broadcast_gemm<S: RowSink>(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    skip_zero_words: bool,
    sink: &S,
    out: &mut [S::Elem],
) -> (FusedGemmStats, S::Block) {
    assert!(
        avx512_popcount_available(),
        "the broadcast kernel needs AVX-512 VPOPCNTDQ"
    );
    let m = a.rows();
    let n = b.cols();
    if m == 0 || n == 0 {
        return Default::default();
    }
    let words = a.plane(0).words_per_lane();
    debug_assert_eq!(words % 2, 0, "PAD128 guarantees an even word count");
    let pairs = words / 2;
    let t = b.planes().len();
    let n_pad = n.next_multiple_of(LANES);

    // B transposed to [K word][B plane][column], columns padded with zeros to
    // a whole vector: one K word of eight adjacent columns is one load.
    let mut b_t = vec![0u64; pairs * t * n_pad];
    for (plane_b, plane) in b.planes().iter().enumerate() {
        for col in 0..n {
            for (k, pair) in plane.lane(col)[..words].chunks_exact(2).enumerate() {
                b_t[(k * t + plane_b) * n_pad + col] = widen(pair);
            }
        }
    }
    let a_planes = a.planes();
    let kernel = |list: &mut RowWords, first_row: usize, rows: &mut [MaybeUninit<i64>]| -> u64 {
        let mut visited = 0u64;
        for (local, out_row) in rows.chunks_mut(n).enumerate() {
            visited += list.collect(
                a_planes,
                first_row + local,
                words,
                t * n_pad,
                skip_zero_words,
            );
            // SAFETY: AVX-512 VPOPCNTDQ was checked above.  `list` holds K
            // offsets `k · t · n_pad` with `k < pairs`, `b_t` holds
            // `pairs · t · n_pad` words, and `out_row` is `n ≤ n_pad` long —
            // the bounds `broadcast_row_avx512` requires.
            unsafe { broadcast_row_avx512(list, t, &b_t, n_pad, out_row) };
        }
        visited
    };
    let pooled = m >= BROADCAST_INLINE_ROWS;
    let (visited_words, block) = drive(
        out,
        n,
        BROADCAST_ROW_BLOCK,
        pooled,
        sink,
        RowWords::default,
        kernel,
    );
    let stats = FusedGemmStats {
        total_words: (m * a_planes.len() * pairs) as u64,
        visited_words,
    };
    (stats, block)
}

/// One output row's A operand as the broadcast kernel walks it: per A plane,
/// the widened words it visits and the offset of each word's K row in the
/// transposed B.
#[cfg(target_arch = "x86_64")]
#[derive(Default)]
struct RowWords {
    /// Offset `k · t · n_pad` of word `k`'s `[B plane][column]` block.
    offsets: Vec<usize>,
    /// The widened A words, parallel to `offsets`.
    words: Vec<u64>,
    /// End of each A plane's run in `offsets` / `words`.
    plane_ends: Vec<usize>,
}

#[cfg(target_arch = "x86_64")]
impl RowWords {
    /// Collect row `row`'s widened A words of every plane — only the nonzero
    /// ones when skipping — and return how many were collected.
    fn collect(
        &mut self,
        planes: &[BitMatrix],
        row: usize,
        words: usize,
        k_stride: usize,
        skip_zero_words: bool,
    ) -> u64 {
        self.offsets.clear();
        self.words.clear();
        self.plane_ends.clear();
        for plane in planes {
            for (k, pair) in plane.lane(row)[..words].chunks_exact(2).enumerate() {
                let word = widen(pair);
                if word != 0 || !skip_zero_words {
                    self.offsets.push(k * k_stride);
                    self.words.push(word);
                }
            }
            self.plane_ends.push(self.words.len());
        }
        self.words.len() as u64
    }
}

/// One output row of the broadcast kernel: chunks of up to
/// [`CHUNK_VECTORS`] vectors of eight columns each, the last one cut to the
/// `⌈(n − col0) / 8⌉` vectors the row has left.
///
/// # Safety
///
/// The host must support `avx512f` and `avx512vpopcntdq`.  Every offset in
/// `row` must be `k · t · n_pad` for some `k` with `(k + 1) · t · n_pad ≤
/// b_t.len()`, and `out_row.len() ≤ n_pad`, with `n_pad` a multiple of eight.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn broadcast_row_avx512(
    row: &RowWords,
    t: usize,
    b_t: &[u64],
    n_pad: usize,
    out_row: &mut [MaybeUninit<i64>],
) {
    let n = out_row.len();
    let mut col0 = 0;
    while col0 < n {
        let vectors = (n - col0).div_ceil(LANES).min(CHUNK_VECTORS);
        match vectors {
            1 => broadcast_chunk_avx512::<1>(row, t, b_t, n_pad, col0, out_row),
            2 => broadcast_chunk_avx512::<2>(row, t, b_t, n_pad, col0, out_row),
            3 => broadcast_chunk_avx512::<3>(row, t, b_t, n_pad, col0, out_row),
            4 => broadcast_chunk_avx512::<4>(row, t, b_t, n_pad, col0, out_row),
            5 => broadcast_chunk_avx512::<5>(row, t, b_t, n_pad, col0, out_row),
            6 => broadcast_chunk_avx512::<6>(row, t, b_t, n_pad, col0, out_row),
            7 => broadcast_chunk_avx512::<7>(row, t, b_t, n_pad, col0, out_row),
            _ => broadcast_chunk_avx512::<CHUNK_VECTORS>(row, t, b_t, n_pad, col0, out_row),
        }
        col0 += vectors * LANES;
    }
}

/// `V` vectors of output columns starting at `col0`: every A word of the row
/// is broadcast once per B plane and ANDed, `VPOPCNTQ`-counted and added into
/// `V` count vectors; each `(A plane, B plane)` pair's counts are shifted by
/// `plane_a + plane_b` into `V` accumulators, which are stored once — masked
/// past column `n`.
///
/// # Safety
///
/// As [`broadcast_row_avx512`], and `col0 + 8 · V ≤ n_pad` and
/// `col0 + 8 · (V − 1) < out_row.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn broadcast_chunk_avx512<const V: usize>(
    row: &RowWords,
    t: usize,
    b_t: &[u64],
    n_pad: usize,
    col0: usize,
    out_row: &mut [MaybeUninit<i64>],
) {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_mask_storeu_epi64,
        _mm512_popcnt_epi64, _mm512_set1_epi64, _mm512_setzero_si512, _mm512_sll_epi64,
        _mm512_storeu_si512, _mm_cvtsi64_si128,
    };
    let mut acc = [_mm512_setzero_si512(); V];
    let mut start = 0;
    for (plane_a, &end) in row.plane_ends.iter().enumerate() {
        let offsets = &row.offsets[start..end];
        let words = &row.words[start..end];
        for plane_b in 0..t {
            let mut counts = [_mm512_setzero_si512(); V];
            let column = plane_b * n_pad + col0;
            for (&offset, &word) in offsets.iter().zip(words) {
                let a_vec = _mm512_set1_epi64(word as i64);
                for (v, count) in counts.iter_mut().enumerate() {
                    // SAFETY: `offset + column + 8 · v + 8 ≤ k · t · n_pad +
                    // (plane_b + 1) · n_pad ≤ (k + 1) · t · n_pad ≤ b_t.len()`,
                    // since `col0 + 8 · V ≤ n_pad` and `plane_b < t`.
                    let b_vec =
                        _mm512_loadu_si512(b_t.as_ptr().add(offset + column + v * LANES).cast());
                    let bits = _mm512_popcnt_epi64(_mm512_and_si512(a_vec, b_vec));
                    *count = _mm512_add_epi64(*count, bits);
                }
            }
            let shift = _mm_cvtsi64_si128((plane_a + plane_b) as i64);
            for (total, &count) in acc.iter_mut().zip(&counts) {
                *total = _mm512_add_epi64(*total, _mm512_sll_epi64(count, shift));
            }
        }
        start = end;
    }
    let n = out_row.len();
    for (v, &total) in acc.iter().enumerate() {
        let col = col0 + v * LANES;
        // SAFETY: `col < n` by the caller's bound on `V`, so `dst` points into
        // the row; the full store writes columns `col..col + 8 ≤ n`, and the
        // masked store only the `n - col` columns left in the row.
        let dst = out_row.as_mut_ptr().add(col).cast::<i64>();
        if col + LANES <= n {
            _mm512_storeu_si512(dst.cast(), total);
        } else {
            _mm512_mask_storeu_epi64(dst, (1u8 << (n - col)) - 1, total);
        }
    }
}

/// Carry-save adder: one full-adder layer over three bit columns.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// Exact popcount of eight words via a carry-save reduction: the CSA tree
/// compresses the eight bit columns into `ones + 2·twos + 4·(f0 + f1)`, so
/// only four `count_ones` expansions run instead of eight.
#[inline(always)]
fn csa8_count(w: &[u64; 8]) -> u64 {
    let (o1, t0) = csa(w[0], w[1], w[2]);
    let (o2, t1) = csa(o1, w[3], w[4]);
    let (o3, t2) = csa(o2, w[5], w[6]);
    let ones = o3 ^ w[7];
    let t3 = o3 & w[7];
    let (tw, f0) = csa(t0, t1, t2);
    let twos = tw ^ t3;
    let f1 = tw & t3;
    u64::from(ones.count_ones())
        + 2 * u64::from(twos.count_ones())
        + 4 * (u64::from(f0.count_ones()) + u64::from(f1.count_ones()))
}

/// Row-paired micro-kernel of the condensed aggregation
/// ([`crate::condense`]): the complete `s × t` plane-pair contribution of one
/// (row pair, column, K window), shift-accumulated into one integer per row.
/// `a0` / `a1` hold each row's `s` widened lanes back to back (lane stride
/// `pairs`, K window `[p_start, p_start + p_len)`); `b` holds the column's
/// `t` lanes at stride `b_stride`.  The vector body shifts each popcount by
/// `plane_a + plane_b` *in the vector domain* and reduces horizontally only
/// once per row — integer shift-add is exact in any association order, so
/// every body is bitwise identical to the portable per-pair reference.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn panel_accum2(
    body: PopcountBody,
    a0: &[u64],
    a1: &[u64],
    s: usize,
    pairs: usize,
    p_start: usize,
    b: &[u64],
    t: usize,
    b_stride: usize,
    p_len: usize,
) -> (i64, i64) {
    #[cfg(target_arch = "x86_64")]
    match body {
        // SAFETY: availability was verified by the body-selecting entry points.
        PopcountBody::Avx512 => {
            return unsafe { panel_accum2_avx512(a0, a1, s, pairs, p_start, b, t, b_stride, p_len) }
        }
        PopcountBody::Portable => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = body;
    panel_accum2_portable(a0, a1, s, pairs, p_start, b, t, b_stride, p_len)
}

/// Portable body of [`panel_accum2`]: the per-pair reference every vector
/// body must reproduce bitwise.
#[allow(clippy::too_many_arguments)]
fn panel_accum2_portable(
    a0: &[u64],
    a1: &[u64],
    s: usize,
    pairs: usize,
    p_start: usize,
    b: &[u64],
    t: usize,
    b_stride: usize,
    p_len: usize,
) -> (i64, i64) {
    let mut tot0 = 0i64;
    let mut tot1 = 0i64;
    for plane_b in 0..t {
        let b_lane = &b[plane_b * b_stride..][..p_len];
        for plane_a in 0..s {
            let seg = plane_a * pairs + p_start;
            let (c0, c1) =
                panel_popcount2_portable(&a0[seg..][..p_len], &a1[seg..][..p_len], b_lane);
            let shift = (plane_a + plane_b) as u32;
            tot0 += (c0 as i64) << shift;
            tot1 += (c1 as i64) << shift;
        }
    }
    (tot0, tot1)
}

/// CSA-compressed popcount of `a0 ∧ b` and `a1 ∧ b` over eight-word chunks,
/// scalar `count_ones` tail.
fn panel_popcount2_portable(a0: &[u64], a1: &[u64], b: &[u64]) -> (u64, u64) {
    let mut count0 = 0u64;
    let mut count1 = 0u64;
    let mut i = 0;
    while i + 8 <= b.len() {
        let mut w0 = [0u64; 8];
        let mut w1 = [0u64; 8];
        for j in 0..8 {
            let bw = b[i + j];
            w0[j] = a0[i + j] & bw;
            w1[j] = a1[i + j] & bw;
        }
        count0 += csa8_count(&w0);
        count1 += csa8_count(&w1);
        i += 8;
    }
    while i < b.len() {
        let bw = b[i];
        count0 += u64::from((a0[i] & bw).count_ones());
        count1 += u64::from((a1[i] & bw).count_ones());
        i += 1;
    }
    (count0, count1)
}

/// Collect the maximal runs of non-zero words of one widened lane into `spans`
/// (reusing its allocation).  Returns the number of covered (non-zero) words.
#[inline]
fn nonzero_spans(lane: &[u64], spans: &mut Vec<Span>) -> usize {
    spans.clear();
    let mut covered = 0usize;
    let mut idx = 0usize;
    while idx < lane.len() {
        if lane[idx] == 0 {
            idx += 1;
            continue;
        }
        let start = idx;
        while idx < lane.len() && lane[idx] != 0 {
            idx += 1;
        }
        spans.push((start, idx - start));
        covered += idx - start;
    }
    covered
}

/// Check layouts and inner dimensions, matching the single-plane BMM contract,
/// and that the product cannot overflow the accumulators.
fn validate_fused_operands(a: &StackedBitMatrix, b: &StackedBitMatrix) {
    assert_eq!(
        a.layout(),
        BitMatrixLayout::RowPacked,
        "left fused operand must be row-packed (column-wise compression)"
    );
    assert_eq!(
        b.layout(),
        BitMatrixLayout::ColPacked,
        "right fused operand must be column-packed (row-wise compression)"
    );
    assert_eq!(
        a.cols(),
        b.rows(),
        "fused GEMM inner dimensions differ: {} vs {}",
        a.cols(),
        b.rows()
    );
    assert_accumulator_fits(a, b);
}

/// Widen a packed `u32` lane into `u64` values, one per `chunks_exact(2)` pair
/// (little-endian: the first word becomes the low half).
#[inline]
fn widen_lane(dst: &mut [u64], src: &[u32]) {
    for (wide, pair) in dst.iter_mut().zip(src.chunks_exact(2)) {
        *wide = widen(pair);
    }
}

/// One `u32` word pair as a `u64` (little-endian: the first word is the low
/// half).
#[inline]
fn widen(pair: &[u32]) -> u64 {
    pair[0] as u64 | ((pair[1] as u64) << 32)
}

/// Compute one output row with no skip index: all plane pairs over the full
/// lanes, shift-accumulated in registers, stored exactly once per element.
/// `a_wide` holds the row's `s` widened A lanes back to back; `b_wide` holds
/// all `t · n` widened B lanes.  This is the dense hot path — it must stay
/// free of span indirection.
fn fused_row_full(
    a_wide: &[u64],
    s: usize,
    b_wide: &[u64],
    t: usize,
    pairs: usize,
    out_row: &mut [MaybeUninit<i64>],
    body: PopcountBody,
) {
    let n = out_row.len();
    let mut col = 0;
    while col + COL_BLOCK <= n {
        let mut totals = [0i64; COL_BLOCK];
        for plane_b in 0..t {
            let base = (plane_b * n + col) * pairs;
            let b_block = &b_wide[base..base + COL_BLOCK * pairs];
            let (b0, rest) = b_block.split_at(pairs);
            let (b1, rest) = rest.split_at(pairs);
            let (b2, b3) = rest.split_at(pairs);
            for plane_a in 0..s {
                let a_lane = &a_wide[plane_a * pairs..(plane_a + 1) * pairs];
                let counts = popcount4(body, a_lane, b0, b1, b2, b3);
                let shift = (plane_a + plane_b) as u32;
                for (total, &count) in totals.iter_mut().zip(counts.iter()) {
                    *total += (count as i64) << shift;
                }
            }
        }
        for (slot, total) in out_row[col..col + COL_BLOCK].iter_mut().zip(totals) {
            slot.write(total);
        }
        col += COL_BLOCK;
    }
    // Column remainder (n mod COL_BLOCK): scalar micro-kernel, same reduction.
    for (j_col, slot) in out_row.iter_mut().enumerate().skip(col) {
        let mut total = 0i64;
        for plane_b in 0..t {
            let base = (plane_b * n + j_col) * pairs;
            let b_lane = &b_wide[base..base + pairs];
            for plane_a in 0..s {
                let a_lane = &a_wide[plane_a * pairs..(plane_a + 1) * pairs];
                let count: u64 = a_lane
                    .iter()
                    .zip(b_lane.iter())
                    .map(|(&x, &y)| u64::from((x & y).count_ones()))
                    .sum();
                total += (count as i64) << (plane_a + plane_b);
            }
        }
        slot.write(total);
    }
}

/// [`fused_row_full`] with a zero-word skip index: `spans` holds, per A plane,
/// the non-zero word runs the K loop must visit; everything outside a span is
/// all-zero A words and contributes nothing to any AND+popcount.
#[allow(clippy::too_many_arguments)]
fn fused_row_spans(
    a_wide: &[u64],
    s: usize,
    b_wide: &[u64],
    t: usize,
    pairs: usize,
    spans: &[Vec<Span>],
    out_row: &mut [MaybeUninit<i64>],
    body: PopcountBody,
) {
    let n = out_row.len();
    let mut col = 0;
    while col + COL_BLOCK <= n {
        let mut totals = [0i64; COL_BLOCK];
        for plane_b in 0..t {
            let base = (plane_b * n + col) * pairs;
            let b_block = &b_wide[base..base + COL_BLOCK * pairs];
            let (b0, rest) = b_block.split_at(pairs);
            let (b1, rest) = rest.split_at(pairs);
            let (b2, b3) = rest.split_at(pairs);
            for plane_a in 0..s {
                let a_lane = &a_wide[plane_a * pairs..(plane_a + 1) * pairs];
                let mut counts = [0u64; COL_BLOCK];
                for &(start, len) in &spans[plane_a] {
                    let end = start + len;
                    let span_counts = popcount4(
                        body,
                        &a_lane[start..end],
                        &b0[start..end],
                        &b1[start..end],
                        &b2[start..end],
                        &b3[start..end],
                    );
                    for (count, span_count) in counts.iter_mut().zip(span_counts.iter()) {
                        *count += span_count;
                    }
                }
                let shift = (plane_a + plane_b) as u32;
                for (total, &count) in totals.iter_mut().zip(counts.iter()) {
                    *total += (count as i64) << shift;
                }
            }
        }
        for (slot, total) in out_row[col..col + COL_BLOCK].iter_mut().zip(totals) {
            slot.write(total);
        }
        col += COL_BLOCK;
    }
    // Column remainder (n mod COL_BLOCK): scalar micro-kernel, same reduction.
    for (j_col, slot) in out_row.iter_mut().enumerate().skip(col) {
        let mut total = 0i64;
        for plane_b in 0..t {
            let base = (plane_b * n + j_col) * pairs;
            let b_lane = &b_wide[base..base + pairs];
            for plane_a in 0..s {
                let a_lane = &a_wide[plane_a * pairs..(plane_a + 1) * pairs];
                let mut count = 0u64;
                for &(start, len) in &spans[plane_a] {
                    count += a_lane[start..start + len]
                        .iter()
                        .zip(b_lane[start..start + len].iter())
                        .map(|(&x, &y)| u64::from((x & y).count_ones()))
                        .sum::<u64>();
                }
                total += (count as i64) << (plane_a + plane_b);
            }
        }
        slot.write(total);
    }
}

/// AND + popcount of one widened A lane against four widened B lanes: four
/// independent accumulator chains, one A load per step.  Runs the selected
/// [`PopcountBody`]; callers must only pass an available body (the public
/// entry points guarantee this via `detect()` / `is_available()`).
#[inline]
fn popcount4(
    body: PopcountBody,
    a: &[u64],
    b0: &[u64],
    b1: &[u64],
    b2: &[u64],
    b3: &[u64],
) -> [u64; COL_BLOCK] {
    #[cfg(target_arch = "x86_64")]
    match body {
        // SAFETY: the required target features were verified at runtime by
        // the availability checks on every body-selecting entry point.
        PopcountBody::Avx512 => return unsafe { popcount4_avx512(a, b0, b1, b2, b3) },
        PopcountBody::Portable => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = body;
    popcount4_portable(a, b0, b1, b2, b3)
}

/// Portable micro-kernel body (also the tail loop of the AVX-512 body).
#[inline]
fn popcount4_portable(a: &[u64], b0: &[u64], b1: &[u64], b2: &[u64], b3: &[u64]) -> [u64; 4] {
    let mut counts = [0u64; 4];
    for ((((&aw, &w0), &w1), &w2), &w3) in a
        .iter()
        .zip(b0.iter())
        .zip(b1.iter())
        .zip(b2.iter())
        .zip(b3.iter())
    {
        counts[0] += u64::from((aw & w0).count_ones());
        counts[1] += u64::from((aw & w1).count_ones());
        counts[2] += u64::from((aw & w2).count_ones());
        counts[3] += u64::from((aw & w3).count_ones());
    }
    counts
}

/// One-time runtime probe for the AVX-512 body: its popcount kernels need
/// `avx512f` and `avx512vpopcntdq`, and the kernel layer's in-kernel
/// epilogue, which runs with the same body, the packed `i64`→`f32`
/// conversion of `avx512dq`.
#[cfg(target_arch = "x86_64")]
pub fn avx512_popcount_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            && std::arch::is_x86_feature_detected!("avx512dq")
    })
}

/// One-time runtime probe for the AVX-512 body.
#[cfg(not(target_arch = "x86_64"))]
pub fn avx512_popcount_available() -> bool {
    false
}

/// AVX-512 micro-kernel body: 512 bits (eight widened words) of all four
/// columns per step via `VPOPCNTQ`, vector accumulators reduced once at the
/// end, portable tail for the last `pairs % 8` words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn popcount4_avx512(a: &[u64], b0: &[u64], b1: &[u64], b2: &[u64], b3: &[u64]) -> [u64; 4] {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_popcnt_epi64,
        _mm512_reduce_add_epi64, _mm512_setzero_si512,
    };
    const LANES: usize = 8;
    let steps = a.len() / LANES;
    let mut acc0 = _mm512_setzero_si512();
    let mut acc1 = _mm512_setzero_si512();
    let mut acc2 = _mm512_setzero_si512();
    let mut acc3 = _mm512_setzero_si512();
    for step in 0..steps {
        let offset = step * LANES;
        let av = _mm512_loadu_si512(a.as_ptr().add(offset).cast());
        let v0 = _mm512_loadu_si512(b0.as_ptr().add(offset).cast());
        let v1 = _mm512_loadu_si512(b1.as_ptr().add(offset).cast());
        let v2 = _mm512_loadu_si512(b2.as_ptr().add(offset).cast());
        let v3 = _mm512_loadu_si512(b3.as_ptr().add(offset).cast());
        acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(_mm512_and_si512(av, v0)));
        acc1 = _mm512_add_epi64(acc1, _mm512_popcnt_epi64(_mm512_and_si512(av, v1)));
        acc2 = _mm512_add_epi64(acc2, _mm512_popcnt_epi64(_mm512_and_si512(av, v2)));
        acc3 = _mm512_add_epi64(acc3, _mm512_popcnt_epi64(_mm512_and_si512(av, v3)));
    }
    let done = steps * LANES;
    let tail = popcount4_portable(
        &a[done..],
        &b0[done..],
        &b1[done..],
        &b2[done..],
        &b3[done..],
    );
    [
        _mm512_reduce_add_epi64(acc0) as u64 + tail[0],
        _mm512_reduce_add_epi64(acc1) as u64 + tail[1],
        _mm512_reduce_add_epi64(acc2) as u64 + tail[2],
        _mm512_reduce_add_epi64(acc3) as u64 + tail[3],
    ]
}

/// AVX-512 body of [`panel_accum2`]: `VPOPCNTQ` per plane pair, shifted by
/// `plane_a + plane_b` in the vector domain (`_mm512_sll_epi64`) and gathered
/// into one accumulator per row, so `_mm512_reduce_add_epi64` runs once per
/// (row, column) instead of once per plane pair.  The last `p_len % 8` words
/// run as one masked vector step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
#[allow(clippy::too_many_arguments)]
unsafe fn panel_accum2_avx512(
    a0: &[u64],
    a1: &[u64],
    s: usize,
    pairs: usize,
    p_start: usize,
    b: &[u64],
    t: usize,
    b_stride: usize,
    p_len: usize,
) -> (i64, i64) {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_maskz_loadu_epi64,
        _mm512_popcnt_epi64, _mm512_reduce_add_epi64, _mm512_setzero_si512, _mm512_sll_epi64,
        _mm_cvtsi64_si128,
    };
    const LANES: usize = 8;
    let steps = p_len / LANES;
    let done = steps * LANES;
    let rem = p_len - done;
    let mut acc0 = _mm512_setzero_si512();
    let mut acc1 = _mm512_setzero_si512();
    for plane_a in 0..s {
        let seg = plane_a * pairs + p_start;
        let a0_seg = &a0[seg..][..p_len];
        let a1_seg = &a1[seg..][..p_len];
        for step in 0..steps {
            let off = step * LANES;
            let av0 = _mm512_loadu_si512(a0_seg.as_ptr().add(off).cast());
            let av1 = _mm512_loadu_si512(a1_seg.as_ptr().add(off).cast());
            for plane_b in 0..t {
                let bv = _mm512_loadu_si512(b.as_ptr().add(plane_b * b_stride + off).cast());
                let shift = _mm_cvtsi64_si128((plane_a + plane_b) as i64);
                let p0 = _mm512_popcnt_epi64(_mm512_and_si512(av0, bv));
                let p1 = _mm512_popcnt_epi64(_mm512_and_si512(av1, bv));
                acc0 = _mm512_add_epi64(acc0, _mm512_sll_epi64(p0, shift));
                acc1 = _mm512_add_epi64(acc1, _mm512_sll_epi64(p1, shift));
            }
        }
        // Tail words (and whole sub-vector panels — e.g. narrow-K shapes
        // whose widened lanes are shorter than a vector): one masked step.
        if rem > 0 {
            let mask = (1u8 << rem) - 1;
            let av0 = _mm512_maskz_loadu_epi64(mask, a0_seg.as_ptr().add(done).cast());
            let av1 = _mm512_maskz_loadu_epi64(mask, a1_seg.as_ptr().add(done).cast());
            for plane_b in 0..t {
                let bv = _mm512_maskz_loadu_epi64(
                    mask,
                    b.as_ptr().add(plane_b * b_stride + done).cast(),
                );
                let shift = _mm_cvtsi64_si128((plane_a + plane_b) as i64);
                let p0 = _mm512_popcnt_epi64(_mm512_and_si512(av0, bv));
                let p1 = _mm512_popcnt_epi64(_mm512_and_si512(av1, bv));
                acc0 = _mm512_add_epi64(acc0, _mm512_sll_epi64(p0, shift));
                acc1 = _mm512_add_epi64(acc1, _mm512_sll_epi64(p1, shift));
            }
        }
    }
    (_mm512_reduce_add_epi64(acc0), _mm512_reduce_add_epi64(acc1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::any_bit_gemm_serial;
    use qgtc_tensor::rng::random_uniform_matrix;

    fn random_codes(rows: usize, cols: usize, bits: u32, seed: u64) -> Matrix<u32> {
        let max = (1u64 << bits) as f32;
        random_uniform_matrix(rows, cols, 0.0, max, seed)
            .map(|&v| (v as u32).min((1u32 << bits) - 1))
    }

    /// The legacy kernel on the detected body, without skipping.
    fn legacy(a: &StackedBitMatrix, b: &StackedBitMatrix) -> Matrix<i64> {
        any_bit_gemm_fused_with_stats(a, b, false).0
    }

    #[test]
    fn fused_matches_the_oracle_across_bit_widths() {
        for (s, t) in [(1u32, 1u32), (2, 3), (3, 2), (4, 4), (5, 2), (8, 8)] {
            let a_codes = random_codes(13, 150, s, 300 + s as u64);
            let b_codes = random_codes(150, 11, t, 400 + t as u64);
            let a = StackedBitMatrix::from_codes(&a_codes, s, BitMatrixLayout::RowPacked);
            let b = StackedBitMatrix::from_codes(&b_codes, t, BitMatrixLayout::ColPacked);
            assert_eq!(
                legacy(&a, &b),
                any_bit_gemm_serial(&a, &b),
                "bit widths ({s}, {t})"
            );
        }
    }

    #[test]
    fn fused_matches_serial_oracle_on_awkward_shapes() {
        // Shapes chosen to hit every path: column remainders (n mod 4 != 0),
        // row-block remainders (m mod 8 != 0), odd K, exact PAD128 K, and a K
        // wide enough (> 512 bits) to engage the vectorised micro-kernel body.
        for (m, k, n) in [
            (1, 1, 1),
            (9, 127, 5),
            (16, 128, 3),
            (7, 129, 13),
            (8, 256, 4),
            (5, 700, 9),
        ] {
            let a_codes = random_codes(m, k, 3, m as u64 + 1);
            let b_codes = random_codes(k, n, 2, n as u64 + 50);
            let a = StackedBitMatrix::from_codes(&a_codes, 3, BitMatrixLayout::RowPacked);
            let b = StackedBitMatrix::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked);
            assert_eq!(
                legacy(&a, &b),
                any_bit_gemm_serial(&a, &b),
                "shape ({m}, {k}, {n})"
            );
        }
    }

    #[test]
    fn portable_micro_kernel_matches_dispatch() {
        // On AVX-512 hosts this pins the vector body to the portable one; on
        // other hosts it is trivially true.
        let a: Vec<u64> = (0..37)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let bs: Vec<Vec<u64>> = (1..=4u64)
            .map(|s| a.iter().map(|&v| v.rotate_left(s as u32) ^ s).collect())
            .collect();
        assert_eq!(
            popcount4(PopcountBody::detect(), &a, &bs[0], &bs[1], &bs[2], &bs[3]),
            popcount4_portable(&a, &bs[0], &bs[1], &bs[2], &bs[3])
        );
    }

    #[test]
    fn explicit_portable_body_matches_detected_dispatch() {
        let a_codes = random_codes(11, 260, 3, 70);
        let b_codes = random_codes(260, 7, 2, 71);
        let a = StackedBitMatrix::from_codes(&a_codes, 3, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked);
        for skip in [false, true] {
            let detected = any_bit_gemm_fused_with_stats(&a, &b, skip);
            let portable = any_bit_gemm_fused_with_body(&a, &b, skip, PopcountBody::Portable);
            assert_eq!(detected, portable, "skip={skip}");
        }
        assert!(PopcountBody::Portable.is_available());
        assert_eq!(
            PopcountBody::Avx512.is_available(),
            avx512_popcount_available()
        );
    }

    #[test]
    fn fused_aggregation_matches_plane_composition() {
        let adj_dense =
            random_uniform_matrix(33, 33, 0.0, 1.0, 7).map(|&v| (v > 0.6) as u32 as f32);
        let x_codes = random_codes(33, 10, 4, 8);
        let adj = StackedBitMatrix::from_binary_adjacency(&adj_dense, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&x_codes, 4, BitMatrixLayout::ColPacked);
        assert_eq!(legacy(&adj, &x), any_bit_gemm_serial(&adj, &x));
    }

    #[test]
    fn skip_path_is_bitwise_identical_and_counts_words() {
        // Block-diagonal adjacency: rows only touch their own 48-column block,
        // so most widened words are zero and must be skipped.
        let mut adj: Matrix<f32> = Matrix::zeros(192, 192);
        let dense_block =
            random_uniform_matrix(48, 48, 0.0, 1.0, 9).map(|&v| (v < 0.5) as u32 as f32);
        for &start in &[0usize, 96] {
            for i in 0..48 {
                for j in 0..48 {
                    if dense_block[(i, j)] != 0.0 {
                        adj[(start + i, start + j)] = 1.0;
                    }
                }
            }
        }
        let x_codes = random_codes(192, 20, 3, 10);
        let a = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&x_codes, 3, BitMatrixLayout::ColPacked);
        let (skipped, stats) = any_bit_gemm_fused_with_stats(&a, &x, true);
        assert_eq!(
            skipped,
            any_bit_gemm_serial(&a, &x),
            "skip must not change bits"
        );
        // 192 rows x PAD128(192)/64 = 4 widened words per row, one plane.
        assert_eq!(stats.total_words, 192 * 4);
        assert!(stats.skipped_words() > 0, "sparse rows must skip words");
        assert!(stats.skip_ratio() > 0.3, "ratio {}", stats.skip_ratio());
    }

    #[test]
    fn skip_stats_on_dense_input_visit_every_word() {
        let a_codes = random_codes(10, 200, 2, 30).map(|&v| v | 1);
        let b_codes = random_codes(200, 6, 3, 31);
        let a = StackedBitMatrix::from_codes(&a_codes, 2, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, 3, BitMatrixLayout::ColPacked);
        let (out, stats) = any_bit_gemm_fused_with_stats(&a, &b, true);
        assert_eq!(out, any_bit_gemm_serial(&a, &b));
        // Plane 0 is all-ones (codes |= 1), so only plane 1 and the PAD128
        // padding words can be skipped; every touched word is accounted for.
        assert_eq!(stats.total_words, 10 * 2 * 4); // 10 rows x 2 planes x 256/64
        assert_eq!(
            stats.visited_words + stats.skipped_words(),
            stats.total_words
        );
        assert!(stats.visited_words >= 10 * 4, "plane 0 is fully dense");
    }

    #[test]
    fn skip_of_all_zero_operand_skips_everything() {
        let a = StackedBitMatrix::from_binary_adjacency(
            &Matrix::zeros(16, 256),
            BitMatrixLayout::RowPacked,
        );
        let b_codes = random_codes(256, 8, 2, 33);
        let b = StackedBitMatrix::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked);
        let (out, stats) = any_bit_gemm_fused_with_stats(&a, &b, true);
        assert!(out.data().iter().all(|&v| v == 0));
        assert_eq!(stats.visited_words, 0);
        assert!((stats.skip_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_operands_produce_empty_output() {
        let a_codes: Matrix<u32> = Matrix::zeros(0, 0);
        let b_codes: Matrix<u32> = Matrix::zeros(0, 0);
        let a = StackedBitMatrix::from_codes(&a_codes, 2, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked);
        assert_eq!(legacy(&a, &b).shape(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn fused_rejects_shape_mismatch() {
        let a =
            StackedBitMatrix::from_codes(&random_codes(4, 10, 2, 1), 2, BitMatrixLayout::RowPacked);
        let b =
            StackedBitMatrix::from_codes(&random_codes(11, 4, 2, 2), 2, BitMatrixLayout::ColPacked);
        let _ = legacy(&a, &b);
    }

    #[test]
    #[should_panic(expected = "must be row-packed")]
    fn fused_rejects_wrong_left_layout() {
        let codes = random_codes(8, 8, 1, 3);
        let a = StackedBitMatrix::from_codes(&codes, 1, BitMatrixLayout::ColPacked);
        let b = StackedBitMatrix::from_codes(&codes, 1, BitMatrixLayout::ColPacked);
        let _ = legacy(&a, &b);
    }

    /// Left operands for the broadcast-kernel checks: random codes with every
    /// other 64-column K word zeroed in alternating rows, so skipping has
    /// whole zero words to jump and nonzero words on either side.
    fn striped_codes(rows: usize, cols: usize, bits: u32, seed: u64) -> Matrix<u32> {
        let mut codes = random_codes(rows, cols, bits, seed);
        for i in 0..rows {
            for j in 0..cols {
                if (j / 64) % 2 == i % 2 {
                    codes[(i, j)] = 0;
                }
            }
        }
        codes
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn broadcast_kernel_matches_the_legacy_kernel_bitwise_with_identical_stats() {
        if !avx512_popcount_available() {
            return; // the broadcast kernel needs AVX-512 VPOPCNTDQ
        }
        // Column remainders around one vector and one 64-column chunk, K
        // remainders, and row counts on both sides of the inline cut.
        for (m, k, n, s, t) in [
            (1, 1, 1, 1, 1),
            (13, 300, 11, 3, 2),
            (9, 128, 72, 2, 4),
            (BROADCAST_INLINE_ROWS - 1, 65, 9, 1, 2),
            (BROADCAST_INLINE_ROWS + 3, 129, 65, 2, 1),
        ] {
            let a_codes = striped_codes(m, k, s, 1000 + m as u64);
            let b_codes = random_codes(k, n, t, 2000 + n as u64);
            let a = StackedBitMatrix::from_codes(&a_codes, s, BitMatrixLayout::RowPacked);
            let b = StackedBitMatrix::from_codes(&b_codes, t, BitMatrixLayout::ColPacked);
            for skip in [false, true] {
                let legacy = any_bit_gemm_fused_with_body(&a, &b, skip, PopcountBody::Portable);
                assert_eq!(
                    any_bit_gemm_fused_with_body(&a, &b, skip, PopcountBody::Avx512),
                    legacy,
                    "skip={skip} shape ({m}, {k}, {n}) bits ({s}, {t})"
                );
                assert_eq!(legacy.0, any_bit_gemm_serial(&a, &b));
            }
        }
    }

    /// A sink that stores the accumulators and records which rows each block
    /// held, to pin the blocking and the merge order.
    struct BlockLog;

    impl RowSink for BlockLog {
        type Elem = MaybeUninit<i64>;
        type Block = Vec<usize>;

        fn block<F: FnOnce(&mut [MaybeUninit<i64>])>(
            &self,
            first_row: usize,
            out: &mut [MaybeUninit<i64>],
            compute: F,
        ) -> Vec<usize> {
            compute(out);
            vec![first_row]
        }

        fn merge(earlier: &mut Vec<usize>, later: Vec<usize>) {
            earlier.extend(later);
        }
    }

    #[test]
    fn sinks_see_every_row_block_and_merge_in_row_order() {
        for m in [
            0,
            1,
            8,
            9,
            BROADCAST_INLINE_ROWS - 1,
            BROADCAST_INLINE_ROWS + 33,
        ] {
            let a_codes = striped_codes(m, 200, 2, 40 + m as u64);
            let b_codes = random_codes(200, 5, 3, 41);
            let a = StackedBitMatrix::from_codes(&a_codes, 2, BitMatrixLayout::RowPacked);
            let b = StackedBitMatrix::from_codes(&b_codes, 3, BitMatrixLayout::ColPacked);
            for body in PopcountBody::available() {
                let block_rows = match body {
                    PopcountBody::Avx512 => BROADCAST_ROW_BLOCK,
                    PopcountBody::Portable => ROW_BLOCK,
                };
                for skip in [false, true] {
                    // Poisoned: every element must be overwritten.
                    let mut out = vec![MaybeUninit::new(i64::MIN); m * 5];
                    let (stats, firsts) =
                        any_bit_gemm_fused_into(&a, &b, skip, body, &BlockLog, &mut out);
                    // SAFETY: initialised above (and then overwritten).
                    let out: Vec<i64> = out.iter().map(|v| unsafe { v.assume_init() }).collect();
                    let (plain, plain_stats) = any_bit_gemm_fused_with_body(&a, &b, skip, body);
                    assert_eq!(out, plain.data(), "{body:?} m={m} skip={skip}");
                    assert_eq!(stats, plain_stats);
                    let want: Vec<usize> = (0..m).step_by(block_rows).collect();
                    assert_eq!(firsts, want, "{body:?} m={m} skip={skip}");
                }
            }
        }
    }

    #[test]
    fn plain_products_count_their_accumulator_matrices() {
        let a =
            StackedBitMatrix::from_codes(&random_codes(3, 64, 2, 1), 2, BitMatrixLayout::RowPacked);
        let b =
            StackedBitMatrix::from_codes(&random_codes(64, 4, 2, 2), 2, BitMatrixLayout::ColPacked);
        let before = accumulator_matrices();
        let _ = any_bit_gemm_fused_with_body(&a, &b, true, PopcountBody::Portable);
        let _ = any_bit_gemm_fused_with_stats(&a, &b, false);
        assert!(accumulator_matrices() >= before + 2);
    }

    #[test]
    fn accumulator_bound_is_63_bits_including_the_k_term() {
        assert!(accumulator_fits(30, 30, 8), "30 + 30 + 3 = 63 fits");
        assert!(!accumulator_fits(30, 30, 9), "30 + 30 + 4 = 64 does not");
        assert!(!accumulator_fits(32, 32, 128));
        assert!(
            !accumulator_fits(32, 32, 1),
            "64 bits of product alone overflow"
        );
        assert!(accumulator_fits(31, 32, 1));
        assert!(accumulator_fits(8, 8, 1 << 47));
        assert!(accumulator_fits(1, 1, 0));
    }

    /// 32-bit all-ones codes on both sides at K = 128: each output would be
    /// 128 · (2³² − 1)² ≈ 2.4·10²¹, far past `i64`.
    fn overflowing_operands() -> (StackedBitMatrix, StackedBitMatrix) {
        let ones = |rows, cols| Matrix::from_vec(rows, cols, vec![u32::MAX; rows * cols]).unwrap();
        (
            StackedBitMatrix::from_codes(&ones(4, 128), 32, BitMatrixLayout::RowPacked),
            StackedBitMatrix::from_codes(&ones(128, 4), 32, BitMatrixLayout::ColPacked),
        )
    }

    #[test]
    #[should_panic(expected = "can overflow the i64 accumulators")]
    fn fused_with_stats_rejects_overflowing_bitwidths() {
        let (a, b) = overflowing_operands();
        let _ = any_bit_gemm_fused_with_stats(&a, &b, false);
    }

    #[test]
    #[should_panic(expected = "can overflow the i64 accumulators")]
    fn fused_with_portable_body_rejects_overflowing_bitwidths() {
        let (a, b) = overflowing_operands();
        let _ = any_bit_gemm_fused_with_body(&a, &b, true, PopcountBody::Portable);
    }

    /// The detected body: the broadcast kernel wherever AVX-512 runs.
    #[test]
    #[should_panic(expected = "can overflow the i64 accumulators")]
    fn fused_with_detected_body_rejects_overflowing_bitwidths() {
        let (a, b) = overflowing_operands();
        let _ = any_bit_gemm_fused_with_body(&a, &b, true, PopcountBody::detect());
    }

    #[test]
    fn body_detection_is_consistent_with_availability() {
        assert!(PopcountBody::detect().is_available());
        assert_eq!(
            PopcountBody::detect() == PopcountBody::Avx512,
            avx512_popcount_available()
        );
        let names: Vec<&str> = PopcountBody::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names, ["portable", "avx512"]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn panel_accum2_bodies_match_the_portable_reference() {
        // Window lengths chosen to hit the pure-vector path, the masked
        // tail, and mixes of both, across several (s, t) plane counts.
        for (s, t) in [(1usize, 1usize), (1, 2), (3, 2), (4, 4)] {
            for p_len in [0usize, 1, 3, 7, 8, 9, 16, 33] {
                let p_start = 1usize;
                let pairs = p_start + p_len + 1;
                let a0: Vec<u64> = (0..s * pairs)
                    .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5A5A)
                    .map(|v| if v % 5 == 0 { 0 } else { v })
                    .collect();
                let a1: Vec<u64> = a0.iter().map(|&v| v.rotate_left(11) ^ 0x0FF0).collect();
                let b_stride = p_len;
                let b: Vec<u64> = (0..t * b_stride)
                    .map(|i| (i as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F) | 1)
                    .collect();
                let want =
                    panel_accum2_portable(&a0, &a1, s, pairs, p_start, &b, t, b_stride, p_len);
                assert_eq!(
                    panel_accum2(
                        PopcountBody::detect(),
                        &a0,
                        &a1,
                        s,
                        pairs,
                        p_start,
                        &b,
                        t,
                        b_stride,
                        p_len
                    ),
                    want,
                    "s={s} t={t} p_len={p_len}"
                );
            }
        }
    }
}
