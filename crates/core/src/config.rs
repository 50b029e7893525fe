//! Evaluation configuration.
//!
//! One [`QgtcConfig`] captures everything a run of the end-to-end pipeline needs:
//! which model, which execution path, the quantization bitwidth, the partitioning
//! and batching granularity (the two knobs §4.1 discusses), the kernel optimisation
//! toggles and the host-to-device transfer strategy.  The modeled GPU is the
//! paper's RTX 3090.

use crate::fault::{FaultPlan, QgtcError};
use qgtc_kernels::backend::BackendChoice;
use qgtc_kernels::bmm::{AdjacencyPath, KernelConfig};
use qgtc_kernels::packing::TransferStrategy;

/// Which GNN model to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Cluster GCN: 3 layers, 16 hidden dims, aggregate-then-update.
    ClusterGcn,
    /// Batched GIN: 3 layers, 64 hidden dims, update-then-aggregate.
    BatchedGin,
}

/// Which execution engine runs the forward passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionPath {
    /// The QGTC Tensor-Core path at the configured bitwidth.
    Qgtc,
    /// The DGL-like fp32 CUDA-core baseline.
    DglBaseline,
}

/// Full configuration of one end-to-end inference run.
///
/// # Builder naming
///
/// Every setter is a `with_*` consuming builder and every getter is bare — the
/// audited surface:
///
/// | Setter | Getter(s) | Knob |
/// |---|---|---|
/// | [`with_partitions`](Self::with_partitions) | `num_partitions`, `batch_size` (fields) | partition count × partitions per batch |
/// | [`with_prefetch`](Self::with_prefetch) | `prefetch_batches` (field) | modeled staging depth of the pipelined latency |
/// | [`with_backend`](Self::with_backend) | [`backend`](Self::backend) | kernel GEMM backend |
/// | [`with_adjacency_path`](Self::with_adjacency_path) | [`adjacency_path`](Self::adjacency_path) | aggregation kernel: zero-word skip vs condensed |
/// | [`with_fault_plan`](Self::with_fault_plan) | `fault_plan` (field) | chaos-testing fault plan |
#[derive(Debug, Clone, PartialEq)]
pub struct QgtcConfig {
    /// Model to evaluate.
    pub model: ModelKind,
    /// Execution path.
    pub path: ExecutionPath,
    /// Quantization bitwidth for the QGTC path (1–8, 16 or 32).
    pub bits: u32,
    /// Number of graph partitions (the paper uses 1,500).
    pub num_partitions: usize,
    /// Partitions per batch.
    pub batch_size: usize,
    /// Kernel optimisation toggles.  `kernel.zero_tile_jumping` also selects
    /// the fused kernel's zero-word-skipping execution path; the measured skip
    /// ratio lands in [`crate::pipeline::EpochReport::fused_word_skip_ratio`].
    pub kernel: KernelConfig,
    /// How batches are shipped to the device.
    pub transfer: TransferStrategy,
    /// Seed for model initialisation.
    pub seed: u64,
    /// Device staging buffers of the modeled transfer/compute overlap: the
    /// buffer depth `D` at which
    /// [`DeviceModel::estimate_pipelined`](qgtc_tcsim::DeviceModel::estimate_pipelined)
    /// schedules the epoch's per-batch lanes into
    /// [`EpochReport::pipeline`](crate::pipeline::EpochReport::pipeline).  `1`
    /// is the serial schedule (no overlap); `2` is classic double buffering
    /// (the default).  It changes no host work: every depth runs the same
    /// batch loop and records the same counters.
    pub prefetch_batches: usize,
    /// Faults to inject into the epoch, for chaos testing the supervisor.  The
    /// empty plan (the default) injects nothing.  See [`crate::fault`].
    pub fault_plan: FaultPlan,
}

impl Default for QgtcConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::ClusterGcn,
            path: ExecutionPath::Qgtc,
            bits: 2,
            num_partitions: 1500,
            batch_size: 8,
            kernel: KernelConfig::default(),
            transfer: TransferStrategy::PackedCompound,
            seed: 0xC0FFEE,
            prefetch_batches: 2,
            fault_plan: FaultPlan::default(),
        }
    }
}

impl QgtcConfig {
    /// The paper's evaluation defaults for a given model and bitwidth on the QGTC path.
    pub fn qgtc(model: ModelKind, bits: u32) -> Self {
        Self {
            model,
            bits,
            ..Default::default()
        }
    }

    /// The DGL fp32 baseline configuration for a given model.
    pub fn dgl_baseline(model: ModelKind) -> Self {
        Self {
            model,
            path: ExecutionPath::DglBaseline,
            bits: 32,
            transfer: TransferStrategy::DenseFloat,
            ..Default::default()
        }
    }

    /// Set the partitioning granularity: `num_partitions` graph partitions,
    /// grouped `batch_size` partitions per batch (both clamped to at least 1).
    ///
    /// The usual way to shrink the paper's 1,500-partition default for small
    /// (test-scale) graphs while preserving the partitions-per-batch ratio.
    pub fn with_partitions(mut self, num_partitions: usize, batch_size: usize) -> Self {
        self.num_partitions = num_partitions.max(1);
        self.batch_size = batch_size.max(1);
        self
    }

    /// Set the modeled staging depth (clamped to at least 1); `1` models no
    /// transfer/compute overlap.
    pub fn with_prefetch(mut self, prefetch_batches: usize) -> Self {
        self.prefetch_batches = prefetch_batches.max(1);
        self
    }

    /// The popcount body every GEMM of this configuration runs on.
    pub fn backend(&self) -> BackendChoice {
        self.kernel.backend
    }

    /// Select the popcount body (`Auto` resolves per
    /// [`qgtc_kernels::backend::resolve_auto`]; every body is bitwise
    /// identical, so this only affects speed).
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.kernel.backend = backend;
        self
    }

    /// The adjacency path the aggregation kernel dispatches on.
    pub fn adjacency_path(&self) -> AdjacencyPath {
        self.kernel.adjacency_path
    }

    /// Select the aggregation kernel's adjacency path: `Skip` (the default
    /// zero-word-skipping fused kernel), `Condensed` (the TC-GNN-style
    /// sparse-to-dense condensed walk), or `Auto` (per-batch census heuristic,
    /// threshold tunable via `TUNE_gemm.json`).  Every path is bitwise
    /// identical, so this only affects speed and the modeled cost accounting.
    pub fn with_adjacency_path(mut self, path: AdjacencyPath) -> Self {
        self.kernel.adjacency_path = path;
        self
    }

    /// Inject a fault plan into the epoch (chaos testing; see [`crate::fault`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Check the config-local invariants the old panicking entry points enforced
    /// deep inside the partitioning layer: a zero batch size or partition count is
    /// rejected here, before any work runs, with a typed error.  So is an
    /// explicit backend whose popcount body this host cannot run, which the
    /// kernels would otherwise reject by panicking at their first dispatch,
    /// after partitioning has already run.
    ///
    /// Graph-dependent invariants (`num_partitions` versus the node count) cannot
    /// be checked without a graph; [`crate::pipeline::try_build_plan`] covers
    /// those through the partitioner's own fallible entry points.
    pub fn validate(&self) -> Result<(), QgtcError> {
        if self.batch_size == 0 {
            return Err(QgtcError::InvalidConfig(
                "batch_size must be at least 1".to_string(),
            ));
        }
        if self.num_partitions == 0 {
            return Err(QgtcError::InvalidConfig(
                "num_partitions must be at least 1".to_string(),
            ));
        }
        if self.bits == 0 || (self.bits > 8 && self.bits != 16 && self.bits != 32) {
            return Err(QgtcError::InvalidConfig(format!(
                "bits must be 1-8, 16 or 32 (got {})",
                self.bits
            )));
        }
        let body = self.kernel.backend.body();
        if !body.is_available() {
            return Err(QgtcError::InvalidConfig(format!(
                "backend {} needs AVX-512 VPOPCNTDQ, which this host lacks",
                body.name()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_selection_round_trips_through_the_kernel_config() {
        let c = QgtcConfig::default();
        assert_eq!(c.backend(), BackendChoice::Auto);
        let c = c.with_backend(BackendChoice::Portable);
        assert_eq!(c.backend(), BackendChoice::Portable);
        assert_eq!(c.kernel.backend, BackendChoice::Portable);
    }

    #[test]
    fn adjacency_path_round_trips_through_the_kernel_config() {
        let c = QgtcConfig::default();
        assert_eq!(c.adjacency_path(), AdjacencyPath::Skip);
        let c = c.with_adjacency_path(AdjacencyPath::Auto);
        assert_eq!(c.adjacency_path(), AdjacencyPath::Auto);
        assert_eq!(c.kernel.adjacency_path, AdjacencyPath::Auto);
        let c = c.with_adjacency_path(AdjacencyPath::Condensed);
        assert_eq!(c.kernel.adjacency_path, AdjacencyPath::Condensed);
    }

    #[test]
    fn defaults_match_paper_settings() {
        let c = QgtcConfig::default();
        assert_eq!(c.num_partitions, 1500);
        assert_eq!(c.path, ExecutionPath::Qgtc);
        assert_eq!(c.transfer, TransferStrategy::PackedCompound);
        assert!(c.kernel.zero_tile_jumping);
    }

    #[test]
    fn constructors_set_paths() {
        let q = QgtcConfig::qgtc(ModelKind::BatchedGin, 4);
        assert_eq!(q.model, ModelKind::BatchedGin);
        assert_eq!(q.bits, 4);
        assert_eq!(q.path, ExecutionPath::Qgtc);
        let d = QgtcConfig::dgl_baseline(ModelKind::ClusterGcn);
        assert_eq!(d.path, ExecutionPath::DglBaseline);
        assert_eq!(d.transfer, TransferStrategy::DenseFloat);
    }

    #[test]
    fn with_partitions_clamps_to_one() {
        let c = QgtcConfig::default().with_partitions(0, 0);
        assert_eq!(c.num_partitions, 1);
        assert_eq!(c.batch_size, 1);
    }

    #[test]
    fn prefetch_defaults_to_double_buffering() {
        assert_eq!(QgtcConfig::default().prefetch_batches, 2);
    }

    #[test]
    fn validate_rejects_degenerate_knobs() {
        assert!(QgtcConfig::default().validate().is_ok());
        let c = QgtcConfig {
            batch_size: 0,
            ..QgtcConfig::default()
        };
        assert!(
            matches!(c.validate(), Err(QgtcError::InvalidConfig(m)) if m.contains("batch_size"))
        );
        let c = QgtcConfig {
            num_partitions: 0,
            ..QgtcConfig::default()
        };
        assert!(
            matches!(c.validate(), Err(QgtcError::InvalidConfig(m)) if m.contains("num_partitions"))
        );
        let mut c = QgtcConfig {
            bits: 0,
            ..QgtcConfig::default()
        };
        assert!(matches!(c.validate(), Err(QgtcError::InvalidConfig(m)) if m.contains("bits")));
        c.bits = 12;
        assert!(c.validate().is_err());
        for bits in [1, 8, 16, 32] {
            c.bits = bits;
            assert!(c.validate().is_ok(), "bits {bits} is a paper setting");
        }
    }

    #[test]
    fn fault_knobs_default_to_off() {
        let c = QgtcConfig::default();
        assert!(c.fault_plan.is_empty());
        let plan = FaultPlan::parse("prepare:transient").expect("valid");
        let c = c.with_fault_plan(plan.clone());
        assert_eq!(c.fault_plan, plan);
    }

    #[test]
    fn prefetch_clamps_to_one_buffer() {
        assert_eq!(QgtcConfig::default().with_prefetch(0).prefetch_batches, 1);
        assert_eq!(QgtcConfig::default().with_prefetch(1).prefetch_batches, 1);
        assert_eq!(QgtcConfig::default().with_prefetch(5).prefetch_batches, 5);
    }
}
