//! Work accounting for the analytic device model.
//!
//! Every QGTC kernel (and every baseline) records the work it performs into a
//! [`CostTracker`]: Tensor Core MMA tiles issued (and skipped), CUDA-core FLOPs,
//! bytes moved at each memory level, kernel launches and PCIe transfers.  The tracker
//! uses relaxed atomics so rayon-parallel kernel bodies can record concurrently; a
//! [`CostSnapshot`] is the plain-data copy handed to the device model.

use std::sync::atomic::{AtomicU64, Ordering};

/// Operations in one 1-bit Tensor Core MMA tile (8×8×128 multiply + accumulate).
pub const OPS_PER_B1_TILE: u64 = 2 * 8 * 8 * 128;

/// Thread-safe work counters.
#[derive(Debug, Default)]
pub struct CostTracker {
    tc_b1_tiles: AtomicU64,
    tc_b1_tiles_skipped: AtomicU64,
    tc_int8_ops: AtomicU64,
    tc_int4_ops: AtomicU64,
    tc_fp16_flops: AtomicU64,
    cuda_fp32_flops: AtomicU64,
    cuda_sparse_flops: AtomicU64,
    cuda_int_ops: AtomicU64,
    dram_read_bytes: AtomicU64,
    dram_write_bytes: AtomicU64,
    kernel_launches: AtomicU64,
    thread_blocks: AtomicU64,
    pcie_h2d_bytes: AtomicU64,
    fused_words_total: AtomicU64,
    fused_words_skipped: AtomicU64,
    adj_skip_dispatches: AtomicU64,
    adj_condensed_dispatches: AtomicU64,
    condensed_words: AtomicU64,
    condensed_source_words: AtomicU64,
}

/// Plain-data copy of the counters at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostSnapshot {
    /// Number of 8×8×128 1-bit MMA tiles executed.
    pub tc_b1_tiles: u64,
    /// Number of 1-bit MMA tiles skipped by zero-tile jumping.
    pub tc_b1_tiles_skipped: u64,
    /// Int8 Tensor Core multiply-accumulate operations (2 ops per MAC).
    pub tc_int8_ops: u64,
    /// Int4 Tensor Core operations.
    pub tc_int4_ops: u64,
    /// Fp16 Tensor Core floating-point operations.
    pub tc_fp16_flops: u64,
    /// Dense fp32 CUDA-core floating-point operations.
    pub cuda_fp32_flops: u64,
    /// Sparse/gather-bound fp32 CUDA-core operations (CSR SpMM style).
    pub cuda_sparse_flops: u64,
    /// Integer CUDA-core operations (packing, shifting, reductions).
    pub cuda_int_ops: u64,
    /// Bytes read from device DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to device DRAM.
    pub dram_write_bytes: u64,
    /// Number of kernel launches.
    pub kernel_launches: u64,
    /// Number of thread blocks across all launches.
    pub thread_blocks: u64,
    /// Host-to-device PCIe bytes.
    pub pcie_h2d_bytes: u64,
    /// Widened 64-bit A words the fused GEMM's K loops would visit without
    /// zero-word skipping (the denominator of the measured skip ratio).
    pub fused_words_total: u64,
    /// Fused-GEMM K-loop words removed by the zero-word span index.
    pub fused_words_skipped: u64,
    /// Aggregations the adjacency-path dispatcher sent down the zero-word-skip
    /// kernel.
    pub adj_skip_dispatches: u64,
    /// Aggregations the dispatcher sent down the condensed (TC-GNN-style
    /// sparse-to-dense translated) kernel.
    pub adj_condensed_dispatches: u64,
    /// Condensed K-loop words actually consumed by condensed aggregations.
    pub condensed_words: u64,
    /// Source K-loop words those condensed aggregations would have been
    /// offered uncondensed (the condensation ratio's denominator).
    pub condensed_source_words: u64,
}

impl CostTracker {
    /// A fresh tracker with all counters zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `tiles` executed 1-bit MMA tiles.
    pub fn record_b1_tiles(&self, tiles: u64) {
        self.tc_b1_tiles.fetch_add(tiles, Ordering::Relaxed);
    }

    /// Record `tiles` zero tiles skipped before issuing the MMA.
    pub fn record_b1_tiles_skipped(&self, tiles: u64) {
        self.tc_b1_tiles_skipped.fetch_add(tiles, Ordering::Relaxed);
    }

    /// Record int8 Tensor Core operations.
    pub fn record_int8_ops(&self, ops: u64) {
        self.tc_int8_ops.fetch_add(ops, Ordering::Relaxed);
    }

    /// Record int4 Tensor Core operations.
    pub fn record_int4_ops(&self, ops: u64) {
        self.tc_int4_ops.fetch_add(ops, Ordering::Relaxed);
    }

    /// Record fp16 Tensor Core FLOPs.
    pub fn record_fp16_flops(&self, flops: u64) {
        self.tc_fp16_flops.fetch_add(flops, Ordering::Relaxed);
    }

    /// Record dense fp32 CUDA-core FLOPs.
    pub fn record_fp32_flops(&self, flops: u64) {
        self.cuda_fp32_flops.fetch_add(flops, Ordering::Relaxed);
    }

    /// Record sparse (gather-bound) fp32 FLOPs.
    pub fn record_sparse_flops(&self, flops: u64) {
        self.cuda_sparse_flops.fetch_add(flops, Ordering::Relaxed);
    }

    /// Record integer CUDA-core operations.
    pub fn record_int_ops(&self, ops: u64) {
        self.cuda_int_ops.fetch_add(ops, Ordering::Relaxed);
    }

    /// Record DRAM reads, in bytes.
    pub fn record_dram_read(&self, bytes: u64) {
        self.dram_read_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record DRAM writes, in bytes.
    pub fn record_dram_write(&self, bytes: u64) {
        self.dram_write_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a kernel launch with `blocks` thread blocks.
    pub fn record_kernel_launch(&self, blocks: u64) {
        self.kernel_launches.fetch_add(1, Ordering::Relaxed);
        self.thread_blocks.fetch_add(blocks, Ordering::Relaxed);
    }

    /// Record a host-to-device transfer, in bytes.
    pub fn record_pcie_h2d(&self, bytes: u64) {
        self.pcie_h2d_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one fused GEMM's zero-word accounting: the K-loop word total it
    /// would pay without skipping and how many of those words were skipped.
    pub fn record_fused_words(&self, total: u64, skipped: u64) {
        debug_assert!(skipped <= total, "cannot skip more words than exist");
        self.fused_words_total.fetch_add(total, Ordering::Relaxed);
        self.fused_words_skipped
            .fetch_add(skipped, Ordering::Relaxed);
    }

    /// Record one aggregation dispatched down the zero-word-skip path.
    pub fn record_adj_skip_dispatch(&self) {
        self.adj_skip_dispatches.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one aggregation dispatched down the condensed path, with the
    /// condensed K-loop words it consumed and the source words it replaced.
    pub fn record_adj_condensed_dispatch(&self, condensed: u64, source: u64) {
        debug_assert!(
            condensed <= source,
            "condensation can never widen the K loop"
        );
        self.adj_condensed_dispatches
            .fetch_add(1, Ordering::Relaxed);
        self.condensed_words.fetch_add(condensed, Ordering::Relaxed);
        self.condensed_source_words
            .fetch_add(source, Ordering::Relaxed);
    }

    /// Add every counter of `other` into `self`.
    pub fn merge_snapshot(&self, other: &CostSnapshot) {
        self.tc_b1_tiles
            .fetch_add(other.tc_b1_tiles, Ordering::Relaxed);
        self.tc_b1_tiles_skipped
            .fetch_add(other.tc_b1_tiles_skipped, Ordering::Relaxed);
        self.tc_int8_ops
            .fetch_add(other.tc_int8_ops, Ordering::Relaxed);
        self.tc_int4_ops
            .fetch_add(other.tc_int4_ops, Ordering::Relaxed);
        self.tc_fp16_flops
            .fetch_add(other.tc_fp16_flops, Ordering::Relaxed);
        self.cuda_fp32_flops
            .fetch_add(other.cuda_fp32_flops, Ordering::Relaxed);
        self.cuda_sparse_flops
            .fetch_add(other.cuda_sparse_flops, Ordering::Relaxed);
        self.cuda_int_ops
            .fetch_add(other.cuda_int_ops, Ordering::Relaxed);
        self.dram_read_bytes
            .fetch_add(other.dram_read_bytes, Ordering::Relaxed);
        self.dram_write_bytes
            .fetch_add(other.dram_write_bytes, Ordering::Relaxed);
        self.kernel_launches
            .fetch_add(other.kernel_launches, Ordering::Relaxed);
        self.thread_blocks
            .fetch_add(other.thread_blocks, Ordering::Relaxed);
        self.pcie_h2d_bytes
            .fetch_add(other.pcie_h2d_bytes, Ordering::Relaxed);
        self.fused_words_total
            .fetch_add(other.fused_words_total, Ordering::Relaxed);
        self.fused_words_skipped
            .fetch_add(other.fused_words_skipped, Ordering::Relaxed);
        self.adj_skip_dispatches
            .fetch_add(other.adj_skip_dispatches, Ordering::Relaxed);
        self.adj_condensed_dispatches
            .fetch_add(other.adj_condensed_dispatches, Ordering::Relaxed);
        self.condensed_words
            .fetch_add(other.condensed_words, Ordering::Relaxed);
        self.condensed_source_words
            .fetch_add(other.condensed_source_words, Ordering::Relaxed);
    }

    /// Copy the current counter values.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            tc_b1_tiles: self.tc_b1_tiles.load(Ordering::Relaxed),
            tc_b1_tiles_skipped: self.tc_b1_tiles_skipped.load(Ordering::Relaxed),
            tc_int8_ops: self.tc_int8_ops.load(Ordering::Relaxed),
            tc_int4_ops: self.tc_int4_ops.load(Ordering::Relaxed),
            tc_fp16_flops: self.tc_fp16_flops.load(Ordering::Relaxed),
            cuda_fp32_flops: self.cuda_fp32_flops.load(Ordering::Relaxed),
            cuda_sparse_flops: self.cuda_sparse_flops.load(Ordering::Relaxed),
            cuda_int_ops: self.cuda_int_ops.load(Ordering::Relaxed),
            dram_read_bytes: self.dram_read_bytes.load(Ordering::Relaxed),
            dram_write_bytes: self.dram_write_bytes.load(Ordering::Relaxed),
            kernel_launches: self.kernel_launches.load(Ordering::Relaxed),
            thread_blocks: self.thread_blocks.load(Ordering::Relaxed),
            pcie_h2d_bytes: self.pcie_h2d_bytes.load(Ordering::Relaxed),
            fused_words_total: self.fused_words_total.load(Ordering::Relaxed),
            fused_words_skipped: self.fused_words_skipped.load(Ordering::Relaxed),
            adj_skip_dispatches: self.adj_skip_dispatches.load(Ordering::Relaxed),
            adj_condensed_dispatches: self.adj_condensed_dispatches.load(Ordering::Relaxed),
            condensed_words: self.condensed_words.load(Ordering::Relaxed),
            condensed_source_words: self.condensed_source_words.load(Ordering::Relaxed),
        }
    }
}

impl CostSnapshot {
    /// 1-bit Tensor Core operations implied by the executed tiles.
    pub fn tc_b1_ops(&self) -> u64 {
        self.tc_b1_tiles * OPS_PER_B1_TILE
    }

    /// Total DRAM traffic (reads + writes), in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Total PCIe traffic, in bytes: the host-to-device transfers (nothing
    /// is shipped back).
    pub fn pcie_bytes(&self) -> u64 {
        self.pcie_h2d_bytes
    }

    /// Fraction of 1-bit tiles that were actually processed (Figure 8's metric):
    /// processed / (processed + skipped).  Returns 1.0 when no tiles were seen.
    pub fn tile_processing_ratio(&self) -> f64 {
        let total = self.tc_b1_tiles + self.tc_b1_tiles_skipped;
        if total == 0 {
            1.0
        } else {
            self.tc_b1_tiles as f64 / total as f64
        }
    }

    /// Fraction of fused-GEMM K-loop words the zero-word index skipped:
    /// skipped / total, or 0.0 when no fused GEMM recorded word counts.
    pub fn fused_word_skip_ratio(&self) -> f64 {
        if self.fused_words_total == 0 {
            0.0
        } else {
            self.fused_words_skipped as f64 / self.fused_words_total as f64
        }
    }

    /// Fraction of the source K-loop the condensed aggregations kept:
    /// `condensed_words / condensed_source_words`, or 0.0 when nothing was
    /// dispatched down the condensed path.
    pub fn condensation_ratio(&self) -> f64 {
        if self.condensed_source_words == 0 {
            0.0
        } else {
            self.condensed_words as f64 / self.condensed_source_words as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = CostTracker::new();
        t.record_b1_tiles(10);
        t.record_b1_tiles(5);
        t.record_b1_tiles_skipped(3);
        t.record_fp32_flops(1000);
        t.record_dram_read(64);
        t.record_dram_write(32);
        t.record_kernel_launch(128);
        t.record_pcie_h2d(1 << 20);
        let s = t.snapshot();
        assert_eq!(s.tc_b1_tiles, 15);
        assert_eq!(s.tc_b1_tiles_skipped, 3);
        assert_eq!(s.cuda_fp32_flops, 1000);
        assert_eq!(s.dram_bytes(), 96);
        assert_eq!(s.kernel_launches, 1);
        assert_eq!(s.thread_blocks, 128);
        assert_eq!(s.pcie_bytes(), 1 << 20);
    }

    #[test]
    fn ops_per_tile_constant() {
        assert_eq!(OPS_PER_B1_TILE, 16384);
        let s = CostSnapshot {
            tc_b1_tiles: 2,
            ..CostSnapshot::default()
        };
        assert_eq!(s.tc_b1_ops(), 32768);
    }

    #[test]
    fn tile_processing_ratio() {
        let mut s = CostSnapshot::default();
        assert_eq!(s.tile_processing_ratio(), 1.0);
        s.tc_b1_tiles = 30;
        s.tc_b1_tiles_skipped = 70;
        assert!((s.tile_processing_ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn fused_word_skip_ratio_tracks_recorded_words() {
        let t = CostTracker::new();
        assert_eq!(t.snapshot().fused_word_skip_ratio(), 0.0);
        t.record_fused_words(100, 75);
        t.record_fused_words(100, 25);
        let s = t.snapshot();
        assert_eq!(s.fused_words_total, 200);
        assert_eq!(s.fused_words_skipped, 100);
        assert!((s.fused_word_skip_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn adjacency_dispatch_counters_and_condensation_ratio() {
        let t = CostTracker::new();
        assert_eq!(t.snapshot().condensation_ratio(), 0.0);
        t.record_adj_skip_dispatch();
        t.record_adj_skip_dispatch();
        t.record_adj_condensed_dispatch(25, 100);
        t.record_adj_condensed_dispatch(15, 60);
        let s = t.snapshot();
        assert_eq!(s.adj_skip_dispatches, 2);
        assert_eq!(s.adj_condensed_dispatches, 2);
        assert_eq!(s.condensed_words, 40);
        assert_eq!(s.condensed_source_words, 160);
        assert!((s.condensation_ratio() - 0.25).abs() < 1e-12);

        let other = CostTracker::new();
        other.merge_snapshot(&s);
        assert_eq!(other.snapshot(), s);
    }

    #[test]
    fn merge_adds_every_counter() {
        let t = CostTracker::new();
        t.record_b1_tiles(4);
        t.record_int_ops(9);
        let snapshot = t.snapshot();
        let other = CostTracker::new();
        other.merge_snapshot(&snapshot);
        assert_eq!(other.snapshot(), snapshot);
        other.merge_snapshot(&snapshot);
        assert_eq!(other.snapshot().tc_b1_tiles, 8);
        assert_eq!(other.snapshot().cuda_int_ops, 18);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        use std::sync::Arc;
        let t = Arc::new(CostTracker::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.record_b1_tiles(1);
                        t.record_dram_read(4);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let s = t.snapshot();
        assert_eq!(s.tc_b1_tiles, 8000);
        assert_eq!(s.dram_read_bytes, 32000);
    }
}
