//! GPU hardware specifications used by the analytic device model.
//!
//! The paper evaluates on an NVIDIA RTX 3090 (Ampere, 82 SMs, 24 GB GDDR6X, PCIe
//! 4.0×16).  [`GpuSpec::rtx3090`] encodes that card's first-order parameters.
//! Every number is a published vendor figure or a widely reproduced
//! measurement; the `*_efficiency` factors fold in the fraction of peak a real,
//! well-tuned kernel reaches (calibrated so the modeled baselines land near the
//! paper's measured cuBLAS/CUTLASS throughput).

/// First-order performance parameters of one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Human-readable device name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// Sustained boost clock in GHz.
    pub clock_ghz: f64,
    /// Tensor Cores per SM.
    pub tensor_cores_per_sm: usize,
    /// Peak 1-bit (binary) Tensor Core throughput in tera-operations/second
    /// (multiply and add each count as one op).
    pub tc_b1_peak_tops: f64,
    /// Peak int4 Tensor Core throughput in TOPS.
    pub tc_int4_peak_tops: f64,
    /// Peak int8 Tensor Core throughput in TOPS.
    pub tc_int8_peak_tops: f64,
    /// Peak fp16 Tensor Core throughput in TFLOPS.
    pub tc_fp16_peak_tflops: f64,
    /// Peak fp32 CUDA-core throughput in TFLOPS.
    pub cuda_fp32_peak_tflops: f64,
    /// Peak int32 CUDA-core throughput in TOPS (integer ALU).
    pub cuda_int32_peak_tops: f64,
    /// Device (DRAM) memory bandwidth in GB/s.
    pub dram_bandwidth_gbs: f64,
    /// L2 cache bandwidth in GB/s.
    pub l2_bandwidth_gbs: f64,
    /// Shared-memory bandwidth in GB/s (aggregate).
    pub shared_bandwidth_gbs: f64,
    /// Host-to-device PCIe bandwidth in GB/s (PCIe 4.0 ×16 ≈ 32 GB/s nominal,
    /// ~25 GB/s achievable).
    pub pcie_bandwidth_gbs: f64,
    /// Fixed kernel launch overhead in microseconds.
    pub kernel_launch_us: f64,
    /// Fraction of peak Tensor Core throughput a well-tuned kernel sustains on
    /// large, regular workloads.
    pub tc_efficiency: f64,
    /// Fraction of peak CUDA-core throughput a well-tuned dense kernel sustains.
    pub cuda_efficiency: f64,
    /// Fraction of peak CUDA-core throughput a sparse, gather-heavy kernel (CSR
    /// SpMM with irregular neighbour lists) sustains — the dominant cost of the
    /// DGL baseline's aggregation step.
    pub sparse_efficiency: f64,
    /// Fraction of peak DRAM bandwidth streaming kernels sustain.
    pub dram_efficiency: f64,
}

impl GpuSpec {
    /// NVIDIA GeForce RTX 3090 (GA102): the paper's evaluation platform.
    pub fn rtx3090() -> Self {
        Self {
            name: "NVIDIA GeForce RTX 3090".to_string(),
            sm_count: 82,
            clock_ghz: 1.70,
            tensor_cores_per_sm: 4,
            // Published GA102 peaks (dense): INT1 568 TOPS, INT4 284 TOPS,
            // INT8 142 TOPS, FP16-TC 71 TFLOPS (without sparsity).
            tc_b1_peak_tops: 568.0,
            tc_int4_peak_tops: 284.0,
            tc_int8_peak_tops: 142.0,
            tc_fp16_peak_tflops: 71.0,
            cuda_fp32_peak_tflops: 35.6,
            cuda_int32_peak_tops: 17.8,
            dram_bandwidth_gbs: 936.0,
            l2_bandwidth_gbs: 2500.0,
            shared_bandwidth_gbs: 12000.0,
            pcie_bandwidth_gbs: 25.0,
            kernel_launch_us: 5.0,
            tc_efficiency: 0.34,
            cuda_efficiency: 0.75,
            sparse_efficiency: 0.08,
            dram_efficiency: 0.80,
        }
    }

    /// Sustained 1-bit Tensor Core throughput (peak × efficiency), in TOPS.
    pub fn tc_b1_sustained_tops(&self) -> f64 {
        self.tc_b1_peak_tops * self.tc_efficiency
    }

    /// Sustained int8 Tensor Core throughput, in TOPS.
    pub fn tc_int8_sustained_tops(&self) -> f64 {
        self.tc_int8_peak_tops * self.tc_efficiency
    }

    /// Sustained int4 Tensor Core throughput, in TOPS.
    pub fn tc_int4_sustained_tops(&self) -> f64 {
        self.tc_int4_peak_tops * self.tc_efficiency
    }

    /// Sustained fp32 CUDA-core throughput, in TFLOPS.
    pub fn cuda_fp32_sustained_tflops(&self) -> f64 {
        self.cuda_fp32_peak_tflops * self.cuda_efficiency
    }

    /// Sustained DRAM bandwidth in GB/s.
    pub fn dram_sustained_gbs(&self) -> f64 {
        self.dram_bandwidth_gbs * self.dram_efficiency
    }

    /// Occupancy factor for a kernel that launches `thread_blocks` blocks: the
    /// fraction of the GPU the launch can keep busy, assuming `blocks_per_sm`
    /// resident blocks are needed to hide latency on each SM.
    ///
    /// Small launches (few output tiles) cannot fill the machine, which is what
    /// produces the throughput ramp of the paper's Figure 9.
    pub fn occupancy(&self, thread_blocks: usize, blocks_per_sm: usize) -> f64 {
        let saturating = (self.sm_count * blocks_per_sm.max(1)) as f64;
        (thread_blocks as f64 / saturating).clamp(1e-6, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtx3090_matches_published_numbers() {
        let g = GpuSpec::rtx3090();
        assert_eq!(g.sm_count, 82);
        assert_eq!(g.sm_count * g.tensor_cores_per_sm, 328);
        assert!((g.tc_b1_peak_tops - 568.0).abs() < 1e-9);
        assert!(g.tc_int8_peak_tops < g.tc_int4_peak_tops);
        assert!(g.tc_int4_peak_tops < g.tc_b1_peak_tops);
        assert!(g.cuda_fp32_peak_tflops < g.tc_fp16_peak_tflops);
    }

    #[test]
    fn sustained_rates_are_below_peak() {
        let g = GpuSpec::rtx3090();
        assert!(g.tc_b1_sustained_tops() < g.tc_b1_peak_tops);
        assert!(g.cuda_fp32_sustained_tflops() < g.cuda_fp32_peak_tflops);
        assert!(g.dram_sustained_gbs() < g.dram_bandwidth_gbs);
        assert!(
            g.tc_b1_sustained_tops() > 100.0,
            "binary TC should still be fast"
        );
    }

    #[test]
    fn occupancy_ramps_and_saturates() {
        let g = GpuSpec::rtx3090();
        let small = g.occupancy(8, 2);
        let medium = g.occupancy(82, 2);
        let large = g.occupancy(10_000, 2);
        assert!(small < medium);
        assert!(medium < large);
        assert!((large - 1.0).abs() < 1e-12);
        assert!(small > 0.0);
    }

    #[test]
    fn spec_clone_and_compare() {
        let g = GpuSpec::rtx3090();
        let h = g.clone();
        assert_eq!(g, h);
        let faster = GpuSpec {
            sm_count: g.sm_count + 1,
            ..g.clone()
        };
        assert_ne!(g, faster);
    }
}
