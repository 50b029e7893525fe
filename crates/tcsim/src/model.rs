//! Analytic latency and throughput model.
//!
//! The model converts a [`CostSnapshot`] into time using a roofline-style argument:
//! each engine (1-bit Tensor Core, int8/int4 Tensor Core, fp32 CUDA core, sparse
//! gather, integer ALU) runs its share of the work at its *sustained* rate scaled by
//! the launch's occupancy, memory traffic runs at sustained DRAM bandwidth, and a
//! kernel's time is the maximum of its compute and memory time (they overlap on real
//! hardware) plus a fixed launch overhead.  PCIe transfers are serialised with
//! compute, as in the paper's end-to-end measurements.
//!
//! The model is *not* a cycle-accurate simulator; it is the substitution documented
//! in the workspace README.  Its purpose is to preserve the first-order performance shape —
//! who wins, how speedups scale with bitwidth, matrix size and sparsity — which is a
//! function of exactly the quantities the snapshot records.

use crate::cost::CostSnapshot;
use crate::spec::GpuSpec;

/// Thread blocks per SM assumed resident for occupancy purposes (two 8-warp blocks
/// keeps the tensor pipes busy on GA102 for these kernel shapes).
pub const DEFAULT_BLOCKS_PER_SM: usize = 2;

/// Breakdown of one modeled kernel (or kernel sequence) execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelEstimate {
    /// Time the compute engines need, in seconds.
    pub compute_s: f64,
    /// Time the DRAM traffic needs, in seconds.
    pub memory_s: f64,
    /// Kernel launch overhead, in seconds.
    pub launch_s: f64,
    /// PCIe transfer time, in seconds.
    pub pcie_s: f64,
    /// Total modeled wall-clock time, in seconds.
    pub total_s: f64,
}

impl KernelEstimate {
    /// Total time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_s * 1e3
    }

    /// The transfer lane of this estimate when it describes one pipeline batch: the
    /// time the PCIe copy engine is busy shipping the batch.
    pub fn transfer_lane_s(&self) -> f64 {
        self.pcie_s
    }

    /// The compute lane of this estimate when it describes one pipeline batch: the
    /// time the SMs are busy (compute/memory roofline plus launch overhead), i.e.
    /// everything except the PCIe transfer.
    pub fn compute_lane_s(&self) -> f64 {
        self.compute_s.max(self.memory_s) + self.launch_s
    }
}

/// Modeled latency of a *sequence* of batches executed as a transfer/compute
/// pipeline, composed from per-batch [`KernelEstimate`] lanes.
///
/// `serial_s` is the no-overlap epoch: every batch transfers, then computes, before
/// the next batch starts (`Σ (tᵢ + cᵢ)`). `overlapped_s` models QGTC's streamed
/// execution with `staging_buffers` device-side buffers: batch `i`'s transfer may
/// start once buffer slot `i mod D` is free (its previous occupant, batch `i − D`,
/// has been consumed) and the copy engine is idle, and its compute starts once both
/// its transfer and batch `i − 1`'s compute have finished — the classic
/// double-buffering recurrence
///
/// ```text
/// transfer_end(i) = max(transfer_end(i−1), compute_end(i−D)) + tᵢ
/// compute_end(i)  = max(transfer_end(i),   compute_end(i−1)) + cᵢ
/// ```
///
/// whose steady state is `max(tᵢ, cᵢ)` per batch. With `staging_buffers == 1` the
/// recurrence degenerates to the serial sum *exactly* (bitwise, not just
/// approximately — the additions happen in the same order).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineEstimate {
    /// No-overlap epoch latency: `Σ (transferᵢ + computeᵢ)`, in seconds.
    pub serial_s: f64,
    /// Overlapped epoch latency under the bounded-buffer recurrence, in seconds.
    pub overlapped_s: f64,
    /// Total transfer-lane time (`Σ transferᵢ`), in seconds.
    pub transfer_s: f64,
    /// Total compute-lane time (`Σ computeᵢ`), in seconds.
    pub compute_s: f64,
    /// Number of staging buffers the overlapped model assumed (1 = no overlap).
    pub staging_buffers: usize,
    /// Number of batches composed.
    pub num_batches: usize,
}

impl PipelineEstimate {
    /// An empty pipeline (no batches): all lanes zero.
    pub fn empty(staging_buffers: usize) -> Self {
        Self {
            serial_s: 0.0,
            overlapped_s: 0.0,
            transfer_s: 0.0,
            compute_s: 0.0,
            staging_buffers: staging_buffers.max(1),
            num_batches: 0,
        }
    }

    /// Serial (no-overlap) epoch latency in milliseconds.
    pub fn serial_ms(&self) -> f64 {
        self.serial_s * 1e3
    }

    /// Overlapped epoch latency in milliseconds.
    pub fn overlapped_ms(&self) -> f64 {
        self.overlapped_s * 1e3
    }

    /// Speedup of the overlapped schedule over the serial one (≥ 1 by construction,
    /// 1.0 for empty pipelines).
    pub fn overlap_speedup(&self) -> f64 {
        if self.overlapped_s <= 0.0 {
            1.0
        } else {
            self.serial_s / self.overlapped_s
        }
    }
}

/// The analytic device model: a [`GpuSpec`] plus estimation entry points.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    spec: GpuSpec,
}

impl DeviceModel {
    /// Build a model for a specific GPU.
    pub fn new(spec: GpuSpec) -> Self {
        Self { spec }
    }

    /// Model of the paper's evaluation GPU (RTX 3090).
    pub fn rtx3090() -> Self {
        Self::new(GpuSpec::rtx3090())
    }

    /// The underlying hardware spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Estimate the execution time of the work in `snapshot`.
    ///
    /// Occupancy is derived from the recorded thread blocks per launch; a snapshot
    /// with no launches recorded is treated as one fully occupant launch.
    pub fn estimate(&self, snapshot: &CostSnapshot) -> KernelEstimate {
        let launches = snapshot.kernel_launches.max(1);
        let blocks_per_launch = snapshot
            .thread_blocks
            .checked_div(snapshot.kernel_launches)
            .map_or(usize::MAX, |blocks| blocks.max(1) as usize);
        let occupancy = self
            .spec
            .occupancy(blocks_per_launch, DEFAULT_BLOCKS_PER_SM);

        // Compute time: each engine processes its ops at sustained rate * occupancy.
        let tera = 1e12;
        let tc_b1_s =
            snapshot.tc_b1_ops() as f64 / (self.spec.tc_b1_sustained_tops() * tera * occupancy);
        let tc_int8_s =
            snapshot.tc_int8_ops as f64 / (self.spec.tc_int8_sustained_tops() * tera * occupancy);
        let tc_int4_s =
            snapshot.tc_int4_ops as f64 / (self.spec.tc_int4_sustained_tops() * tera * occupancy);
        let tc_fp16_s = snapshot.tc_fp16_flops as f64
            / (self.spec.tc_fp16_peak_tflops * self.spec.tc_efficiency * tera * occupancy);
        let fp32_s = snapshot.cuda_fp32_flops as f64
            / (self.spec.cuda_fp32_sustained_tflops() * tera * occupancy);
        let sparse_s = snapshot.cuda_sparse_flops as f64
            / (self.spec.cuda_fp32_peak_tflops * self.spec.sparse_efficiency * tera * occupancy);
        let int_s = snapshot.cuda_int_ops as f64
            / (self.spec.cuda_int32_peak_tops * self.spec.cuda_efficiency * tera * occupancy);
        // Tensor Core and CUDA-core pipes are distinct units but serialise within a
        // kernel for these workloads (the epilogue follows the MMA), so we sum them.
        let compute_s = tc_b1_s + tc_int8_s + tc_int4_s + tc_fp16_s + fp32_s + sparse_s + int_s;

        // Memory time: DRAM traffic at sustained bandwidth (shared-memory traffic is
        // folded into compute on real hardware and is far from the bottleneck here).
        let giga = 1e9;
        let memory_s = snapshot.dram_bytes() as f64 / (self.spec.dram_sustained_gbs() * giga);

        let launch_s = launches as f64 * self.spec.kernel_launch_us * 1e-6;
        let pcie_s = snapshot.pcie_bytes() as f64 / (self.spec.pcie_bandwidth_gbs * giga);

        let total_s = compute_s.max(memory_s) + launch_s + pcie_s;
        KernelEstimate {
            compute_s,
            memory_s,
            launch_s,
            pcie_s,
            total_s,
        }
    }

    /// Compose per-batch cost snapshots into a pipelined epoch latency.
    ///
    /// Each snapshot is estimated independently (occupancy and rooflines are
    /// per-batch), split into its transfer and compute lanes, and the lanes are
    /// scheduled under the bounded-buffer recurrence documented on
    /// [`PipelineEstimate`]. `staging_buffers == 1` reproduces the serial sum
    /// exactly; `staging_buffers >= 2` is double (or deeper) buffering and can only
    /// shorten the epoch.
    ///
    /// Note the serial number here is `Σᵢ max(computeᵢ, memoryᵢ)`-per-batch, which is
    /// ≥ the whole-epoch aggregate `max(Σ compute, Σ memory)` of
    /// [`DeviceModel::estimate`]: composing per batch forbids the aggregate model's
    /// implicit overlap of one batch's compute with another batch's DRAM traffic, so
    /// the two serial views bracket the real machine.
    pub fn estimate_pipelined(
        &self,
        batch_costs: &[CostSnapshot],
        staging_buffers: usize,
    ) -> PipelineEstimate {
        let depth = staging_buffers.max(1);
        let n = batch_costs.len();
        if n == 0 {
            return PipelineEstimate::empty(depth);
        }
        let lanes: Vec<(f64, f64)> = batch_costs
            .iter()
            .map(|snapshot| {
                let estimate = self.estimate(snapshot);
                (estimate.transfer_lane_s(), estimate.compute_lane_s())
            })
            .collect();

        let mut transfer_total = 0.0f64;
        let mut compute_total = 0.0f64;
        // Serial accumulates ((acc + t) + c) so the depth-1 recurrence below, which
        // performs the identical additions, matches it bitwise.
        let mut serial = 0.0f64;
        for &(t, c) in &lanes {
            transfer_total += t;
            compute_total += c;
            serial += t;
            serial += c;
        }

        let mut transfer_end = vec![0.0f64; n];
        let mut compute_end = vec![0.0f64; n];
        for (i, &(t, c)) in lanes.iter().enumerate() {
            let copy_engine_free = if i > 0 { transfer_end[i - 1] } else { 0.0 };
            let slot_free = if i >= depth {
                compute_end[i - depth]
            } else {
                0.0
            };
            transfer_end[i] = copy_engine_free.max(slot_free) + t;
            let prev_compute = if i > 0 { compute_end[i - 1] } else { 0.0 };
            compute_end[i] = transfer_end[i].max(prev_compute) + c;
        }
        PipelineEstimate {
            serial_s: serial,
            overlapped_s: compute_end[n - 1],
            transfer_s: transfer_total,
            compute_s: compute_total,
            staging_buffers: depth,
            num_batches: n,
        }
    }

    /// Effective throughput in TFLOPs (the paper's Figure 7(c), 9 and Table 3 metric):
    /// `useful_ops` is the algorithmic operation count of the *unquantized* GEMM
    /// (2·M·N·K), independent of how many bit-plane passes were needed to compute it.
    pub fn effective_tflops(&self, useful_ops: u64, estimate: &KernelEstimate) -> f64 {
        if estimate.total_s <= 0.0 {
            return 0.0;
        }
        useful_ops as f64 / estimate.total_s / 1e12
    }

    /// Algorithmic operation count of an `m × k` by `k × n` GEMM (2 ops per MAC).
    pub fn gemm_ops(m: usize, n: usize, k: usize) -> u64 {
        2 * m as u64 * n as u64 * k as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostTracker, OPS_PER_B1_TILE};

    fn snapshot_with(f: impl Fn(&CostTracker)) -> CostSnapshot {
        let t = CostTracker::new();
        f(&t);
        t.snapshot()
    }

    #[test]
    fn more_work_takes_more_time() {
        let model = DeviceModel::rtx3090();
        let small = snapshot_with(|t| {
            t.record_b1_tiles(1_000);
            t.record_kernel_launch(1_000);
        });
        let large = snapshot_with(|t| {
            t.record_b1_tiles(100_000);
            t.record_kernel_launch(100_000);
        });
        assert!(model.estimate(&large).total_s > model.estimate(&small).total_s);
    }

    #[test]
    fn launch_overhead_floors_small_kernels() {
        let model = DeviceModel::rtx3090();
        let tiny = snapshot_with(|t| {
            t.record_b1_tiles(1);
            t.record_kernel_launch(1);
        });
        let est = model.estimate(&tiny);
        assert!(
            est.total_s >= 5e-6,
            "launch overhead must dominate tiny kernels"
        );
    }

    #[test]
    fn memory_bound_kernel_uses_bandwidth_time() {
        let model = DeviceModel::rtx3090();
        let streaming = snapshot_with(|t| {
            t.record_dram_read(10_000_000_000); // 10 GB
            t.record_kernel_launch(1_000_000);
        });
        let est = model.estimate(&streaming);
        // 10 GB at ~749 GB/s sustained ≈ 13 ms.
        assert!(
            est.total_s > 0.010 && est.total_s < 0.020,
            "got {}",
            est.total_s
        );
        assert!(est.memory_s > est.compute_s);
    }

    #[test]
    fn occupancy_penalises_small_launches() {
        let model = DeviceModel::rtx3090();
        let tiles = 50_000u64;
        let few_blocks = snapshot_with(|t| {
            t.record_b1_tiles(tiles);
            t.record_kernel_launch(8);
        });
        let many_blocks = snapshot_with(|t| {
            t.record_b1_tiles(tiles);
            t.record_kernel_launch(4096);
        });
        assert!(
            model.estimate(&few_blocks).compute_s > model.estimate(&many_blocks).compute_s,
            "low occupancy must slow the same amount of work"
        );
    }

    #[test]
    fn effective_tflops_in_plausible_range_for_large_binary_gemm() {
        // A 16384 x 16384 x 1024 1-bit GEMM with full occupancy should land in the
        // tens-to-low-hundreds of TFLOPs, the range of the paper's Figure 9.
        let model = DeviceModel::rtx3090();
        let (m, n, k) = (16384usize, 1024usize, 16384usize);
        let tiles = (m / 8) as u64 * (n / 8) as u64 * (k / 128) as u64;
        let s = snapshot_with(|t| {
            t.record_b1_tiles(tiles);
            t.record_kernel_launch((m / 8) as u64 * (n / 8) as u64);
            t.record_dram_read((m * k / 8 + k * n / 8) as u64);
            t.record_dram_write((m * n * 4) as u64);
        });
        let est = model.estimate(&s);
        let tflops = model.effective_tflops(DeviceModel::gemm_ops(m, n, k), &est);
        assert!(
            tflops > 30.0 && tflops < 400.0,
            "modeled throughput {tflops:.1} TFLOPs outside plausible range"
        );
    }

    #[test]
    fn sparse_work_is_much_slower_than_dense() {
        let model = DeviceModel::rtx3090();
        let flops = 1_000_000_000u64;
        let dense = snapshot_with(|t| {
            t.record_fp32_flops(flops);
            t.record_kernel_launch(100_000);
        });
        let sparse = snapshot_with(|t| {
            t.record_sparse_flops(flops);
            t.record_kernel_launch(100_000);
        });
        let d = model.estimate(&dense).compute_s;
        let s = model.estimate(&sparse).compute_s;
        assert!(
            s > 5.0 * d,
            "sparse path should be far slower: dense {d}, sparse {s}"
        );
    }

    #[test]
    fn pcie_time_added_serially() {
        let model = DeviceModel::rtx3090();
        let with_transfer = snapshot_with(|t| {
            t.record_b1_tiles(1000);
            t.record_kernel_launch(1000);
            t.record_pcie_h2d(2_500_000_000); // 2.5 GB over ~25 GB/s = 100 ms
        });
        let est = model.estimate(&with_transfer);
        assert!(est.pcie_s > 0.09 && est.pcie_s < 0.11);
        assert!(est.total_s > est.pcie_s);
    }

    /// A batch snapshot with controllable compute (b1 tiles) and transfer (pcie).
    fn batch_snapshot(tiles: u64, pcie: u64) -> CostSnapshot {
        snapshot_with(|t| {
            t.record_b1_tiles(tiles);
            t.record_kernel_launch(4096);
            t.record_pcie_h2d(pcie);
        })
    }

    #[test]
    fn pipeline_depth_one_is_exactly_serial() {
        let model = DeviceModel::rtx3090();
        let batches: Vec<CostSnapshot> = (0..7)
            .map(|i| batch_snapshot(10_000 + i * 3_000, 40_000_000 + i * 7_000_000))
            .collect();
        let est = model.estimate_pipelined(&batches, 1);
        assert_eq!(
            est.overlapped_s, est.serial_s,
            "one staging buffer must degenerate to the serial schedule bitwise"
        );
        assert_eq!(est.staging_buffers, 1);
        assert_eq!(est.num_batches, 7);
        assert!(est.overlap_speedup() == 1.0);
    }

    #[test]
    fn pipeline_overlap_shortens_and_is_bounded_by_lanes() {
        let model = DeviceModel::rtx3090();
        // Sizeable transfers and compute so both lanes matter.
        let batches: Vec<CostSnapshot> = (0..8)
            .map(|i| batch_snapshot(200_000 + i * 10_000, 500_000_000))
            .collect();
        let serial = model.estimate_pipelined(&batches, 1);
        let double = model.estimate_pipelined(&batches, 2);
        let quad = model.estimate_pipelined(&batches, 4);
        assert!(
            double.overlapped_s < serial.overlapped_s,
            "double buffering must hide transfer behind compute"
        );
        assert!(quad.overlapped_s <= double.overlapped_s + 1e-15);
        // Overlap can never beat the busier lane, nor lose to serial.
        for est in [&double, &quad] {
            assert!(est.overlapped_s + 1e-12 >= est.transfer_s.max(est.compute_s));
            assert!(est.overlapped_s <= est.serial_s);
            assert!(est.overlap_speedup() >= 1.0);
        }
        // The serial sums are identical regardless of depth.
        assert_eq!(serial.serial_s, double.serial_s);
        assert_eq!(serial.serial_s, quad.serial_s);
    }

    #[test]
    fn pipeline_steady_state_approaches_max_lane() {
        let model = DeviceModel::rtx3090();
        // Transfer-dominated batches: overlapped time should approach Σ transfer
        // (plus one compute tail), far below serial.
        let batches: Vec<CostSnapshot> = (0..64)
            .map(|_| batch_snapshot(100, 2_000_000_000))
            .collect();
        let est = model.estimate_pipelined(&batches, 2);
        let tail = est.compute_s / est.num_batches as f64;
        assert!(
            est.overlapped_s <= est.transfer_s + est.compute_s / 32.0 + tail,
            "steady state must pipeline down to the transfer lane: overlapped {} vs transfer {}",
            est.overlapped_s,
            est.transfer_s
        );
    }

    #[test]
    fn pipeline_empty_and_lane_accessors() {
        let model = DeviceModel::rtx3090();
        let est = model.estimate_pipelined(&[], 3);
        assert_eq!(est, PipelineEstimate::empty(3));
        assert_eq!(est.overlap_speedup(), 1.0);

        let one = model.estimate(&batch_snapshot(1_000, 1_000_000));
        assert_eq!(one.transfer_lane_s(), one.pcie_s);
        assert_eq!(
            one.compute_lane_s(),
            one.compute_s.max(one.memory_s) + one.launch_s
        );
    }

    #[test]
    fn gemm_ops_counts_macs_twice() {
        assert_eq!(DeviceModel::gemm_ops(10, 20, 30), 12000);
        assert_eq!(OPS_PER_B1_TILE, DeviceModel::gemm_ops(8, 8, 128));
    }
}
