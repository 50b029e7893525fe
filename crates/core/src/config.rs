//! Evaluation configuration.
//!
//! One [`QgtcConfig`] captures everything a run of the end-to-end pipeline needs:
//! which model, which execution path, the quantization bitwidth, the partitioning
//! and batching granularity (the two knobs §4.1 discusses), the kernel optimisation
//! toggles, the host-to-device transfer strategy and the GPU to model.

use crate::fault::{FaultPlan, QgtcError};
use qgtc_kernels::backend::{env_backend, BackendChoice};
use qgtc_kernels::bmm::{env_adjacency_path, AdjacencyPath, KernelConfig};
use qgtc_kernels::packing::TransferStrategy;
use qgtc_partition::Parallelism;
use qgtc_tcsim::GpuSpec;

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
/// | [`with_prefetch`](Self::with_prefetch) | `prefetch_batches` (field), [`staging_depth`](Self::staging_depth) | streamed executor's staging depth |
/// | [`with_partition_parallelism`](Self::with_partition_parallelism) | `partition_parallelism` (field) | partitioner shard mode |
/// | [`with_backend`](Self::with_backend) | [`backend`](Self::backend) | kernel GEMM backend |
/// | [`with_adjacency_path`](Self::with_adjacency_path) | [`adjacency_path`](Self::adjacency_path) | aggregation kernel: zero-word skip vs condensed |
/// | [`with_fault_plan`](Self::with_fault_plan) | `fault_plan` (field) | chaos-testing fault plan |
/// | [`with_max_batch_retries`](Self::with_max_batch_retries) | `max_batch_retries` (field) | supervisor retry budget |
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
    /// GPU the device model emulates.
    pub gpu: GpuSpec,
    /// Seed for model initialisation.
    pub seed: u64,
    /// Staging buffers of the streamed executor: how many batches the producer
    /// shards may prepare ahead of the compute stage, and the buffer depth `D` of
    /// the pipelined latency model. `1` degenerates to the serial schedule; `2` is
    /// classic double buffering (the default).
    pub prefetch_batches: usize,
    /// Whether the modeled epoch latency may overlap transfer with compute. When
    /// `false` the pipelined estimate is computed at depth 1 (serial), regardless of
    /// `prefetch_batches`; host-side prefetching still applies.
    pub overlap_transfer: bool,
    /// How the METIS-substitute partitioner shards its phases over the worker
    /// pool when `run_epoch`/`run_epoch_streamed` build the batch plan. The
    /// partitioning is bitwise identical in every mode (the partitioner's
    /// determinism contract); `Auto` (the default) uses one shard per pool
    /// thread and therefore degenerates to the serial sweep on single-core
    /// hosts, mirroring the streamed executor.
    pub partition_parallelism: Parallelism,
    /// Faults to inject into the epoch, for chaos testing the supervisor. `None`
    /// (the default) falls back to the `QGTC_FAULTS` environment spec, and an
    /// empty plan injects nothing. See [`crate::fault`].
    pub fault_plan: Option<FaultPlan>,
    /// How many times the supervisor re-prepares or re-dispatches a failing batch
    /// (with exponential backoff) before giving up with
    /// [`QgtcError::BatchFailed`]. Applies per batch per stage; partitioning uses
    /// the same budget. The default (3) absorbs any transient fault of up to 3
    /// consecutive failing attempts.
    pub max_batch_retries: usize,
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
            gpu: GpuSpec::rtx3090(),
            seed: 0xC0FFEE,
            prefetch_batches: 2,
            overlap_transfer: true,
            partition_parallelism: Parallelism::Auto,
            fault_plan: None,
            max_batch_retries: 3,
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

    /// Set the streamed executor's staging depth (clamped to at least 1).
    pub fn with_prefetch(mut self, prefetch_batches: usize) -> Self {
        self.prefetch_batches = prefetch_batches.max(1);
        self
    }

    /// The staging-buffer depth the pipelined latency model should use: the
    /// configured prefetch depth, or 1 when overlap is disabled.
    pub fn staging_depth(&self) -> usize {
        if self.overlap_transfer {
            self.prefetch_batches.max(1)
        } else {
            1
        }
    }

    /// Set the partitioner's parallelism mode.
    pub fn with_partition_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.partition_parallelism = parallelism;
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
    /// threshold tunable via `TUNE_gemm.json`).  The `QGTC_ADJ_PATH`
    /// environment variable overrides whatever is configured here.  Every path
    /// is bitwise identical, so this only affects speed and the modeled cost
    /// accounting.
    pub fn with_adjacency_path(mut self, path: AdjacencyPath) -> Self {
        self.kernel.adjacency_path = path;
        self
    }

    /// Inject a fault plan into the epoch (chaos testing; see [`crate::fault`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Set the supervisor's per-batch retry budget.
    pub fn with_max_batch_retries(mut self, retries: usize) -> Self {
        self.max_batch_retries = retries;
        self
    }

    /// Check the config-local invariants the old panicking entry points enforced
    /// deep inside the partitioning layer: a zero batch size or partition count is
    /// rejected here, before any work runs, with a typed error.  So is a
    /// malformed `QGTC_BACKEND` or `QGTC_ADJ_PATH` value, which the kernels
    /// would otherwise reject by panicking at their first dispatch, after
    /// partitioning has already run.
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
        let env_errors = [
            env_backend().as_ref().err(),
            env_adjacency_path().as_ref().err(),
        ];
        match env_errors.into_iter().flatten().next() {
            Some(err) => Err(QgtcError::InvalidConfig(err.clone())),
            None => Ok(()),
        }
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
        let c = QgtcConfig::default();
        assert_eq!(c.prefetch_batches, 2);
        assert!(c.overlap_transfer);
        assert_eq!(c.staging_depth(), 2);
    }

    #[test]
    fn partitioner_defaults_to_auto_parallelism() {
        let c = QgtcConfig::default();
        assert_eq!(c.partition_parallelism, Parallelism::Auto);
        let pinned = c.with_partition_parallelism(Parallelism::Sharded(4));
        assert_eq!(pinned.partition_parallelism, Parallelism::Sharded(4));
        assert_eq!(pinned.partition_parallelism.effective_shards(), 4);
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

    /// The kernel overrides are read once per process, so each typo is
    /// validated in a child run of this test binary with the variable set;
    /// this process's own environment is never modified.
    #[test]
    fn validate_rejects_kernel_override_typos() {
        const NAME: &str = "config::tests::validate_rejects_kernel_override_typos";
        const TYPOS: [(&str, &str, &str); 1] = [("QGTC_ADJ_PATH", "skpi", "auto|skip|condensed")];
        let child = TYPOS
            .iter()
            .find(|(var, typo, _)| std::env::var(var).as_deref() == Ok(*typo));
        if let Some((var, _, valid)) = child {
            match QgtcConfig::default().validate() {
                Err(QgtcError::InvalidConfig(message)) => {
                    assert!(
                        message.contains(var) && message.contains(valid),
                        "{message}"
                    )
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
            return;
        }
        for (var, typo, _) in TYPOS {
            let output = std::process::Command::new(std::env::current_exe().unwrap())
                .args(["--exact", NAME])
                .env(var, typo)
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success() && stdout.contains("1 passed"),
                "{var}={typo}: {stdout}{}",
                String::from_utf8_lossy(&output.stderr)
            );
        }
    }

    #[test]
    fn fault_knobs_default_to_off() {
        let c = QgtcConfig::default();
        assert_eq!(c.fault_plan, None);
        assert_eq!(c.max_batch_retries, 3);
        let plan = FaultPlan::parse("prepare:transient").expect("valid");
        let c = c.with_fault_plan(plan.clone()).with_max_batch_retries(5);
        assert_eq!(c.fault_plan, Some(plan));
        assert_eq!(c.max_batch_retries, 5);
    }

    #[test]
    fn staging_depth_respects_overlap_toggle_and_clamps() {
        let mut c = QgtcConfig::default().with_prefetch(0);
        assert_eq!(c.prefetch_batches, 1);
        c = c.with_prefetch(5);
        assert_eq!(c.staging_depth(), 5);
        c.overlap_transfer = false;
        assert_eq!(c.staging_depth(), 1);
    }
}
