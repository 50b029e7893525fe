//! Experiment drivers, one per table/figure of the paper's evaluation.
//!
//! Every driver takes an explicit [`ExperimentScale`] so that the report binaries can
//! run a meaningful-but-fast default on a laptop while tests run an even smaller
//! configuration.  The full-size parameters of the paper (1,500 partitions, the
//! complete N/D grids) are encoded in [`ExperimentScale::paper`] for users with the
//! patience (or a beefier machine) to run them — the host kernels that compute the
//! exact results are orders of magnitude slower than real silicon, which is exactly
//! why the analytic device model, not the host wall-clock, provides the reported
//! numbers.

use qgtc_baselines::{int4_tc_gemm, int8_tc_gemm};
use qgtc_bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_core::{ModelKind, QgtcConfig};
use qgtc_gnn::qat::{train_gcn_qat, QatConfig};
use qgtc_graph::DatasetProfile;
use qgtc_kernels::bmm::{qgtc_aggregate, KernelConfig};
use qgtc_kernels::tile_reuse::{compare_reuse, random_feature_codes, ReuseComparison};
use qgtc_kernels::zero_tile::census_adjacency;
use qgtc_kernels::AdjacencySparsityStats;
use qgtc_partition::{partition_kway, PartitionBatcher, PartitionConfig};
use qgtc_tcsim::cost::CostTracker;
use qgtc_tcsim::{DeviceModel, PipelineEstimate};
use qgtc_tensor::rng::random_uniform_matrix;

/// How large the experiments run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentScale {
    /// Fraction of each dataset's node/edge count to materialise.
    pub dataset_scale: f64,
    /// Number of METIS-substitute partitions.
    pub num_partitions: usize,
    /// Partitions per batch.
    pub batch_size: usize,
    /// Matrix sizes (N) for the kernel-throughput experiments.
    pub gemm_sizes: Vec<usize>,
    /// Embedding dimensions (D) for the kernel-throughput experiments.
    pub gemm_dims: Vec<usize>,
    /// Adjacency sizes for the Figure-9 sweep.
    pub fig9_sizes: Vec<usize>,
    /// Embedding dimensions for the Figure-9 sweep.
    pub fig9_dims: Vec<usize>,
    /// Matrix sizes for the Figure-10 reuse study.
    pub fig10_sizes: Vec<usize>,
    /// Embedding dimension for the Figure-10 reuse study.
    pub fig10_dim: usize,
    /// QAT epochs for the Table-2 accuracy experiment.
    pub qat_epochs: usize,
}

impl ExperimentScale {
    /// Fast defaults used by the report binaries: every experiment finishes in
    /// seconds to a few minutes on a laptop while preserving the paper's trends.
    pub fn default_fast() -> Self {
        Self {
            dataset_scale: 0.02,
            // Few-but-large batches: each batch must span several hundred nodes so the
            // block-diagonal zero-tile structure the paper analyses is visible even on
            // the scaled-down graphs.
            num_partitions: 16,
            batch_size: 8,
            gemm_sizes: vec![1024, 2048, 4096],
            gemm_dims: vec![16, 32, 64],
            fig9_sizes: vec![128, 256, 512, 1024, 2048, 4096],
            fig9_dims: vec![16, 64, 256],
            fig10_sizes: vec![256, 512, 1024],
            fig10_dim: 256,
            qat_epochs: 120,
        }
    }

    /// A tiny configuration for unit/integration tests.
    pub fn tiny() -> Self {
        Self {
            dataset_scale: 0.01,
            num_partitions: 6,
            batch_size: 6,
            gemm_sizes: vec![256, 512],
            gemm_dims: vec![16, 32],
            fig9_sizes: vec![128, 512],
            fig9_dims: vec![16, 64],
            fig10_sizes: vec![128, 256],
            fig10_dim: 64,
            qat_epochs: 40,
        }
    }

    /// The paper's full-size configuration (slow on the host kernels).
    pub fn paper() -> Self {
        Self {
            dataset_scale: 1.0,
            num_partitions: 1500,
            batch_size: 8,
            gemm_sizes: vec![1024, 2048, 4096],
            gemm_dims: vec![16, 32, 64],
            fig9_sizes: vec![128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768],
            fig9_dims: vec![16, 32, 64, 128, 256, 512, 1024],
            fig10_sizes: vec![1024, 2048, 4096, 8192],
            fig10_dim: 1024,
            qat_epochs: 300,
        }
    }
}

/// The named problem size a bench binary runs at, from `QGTC_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// [`ExperimentScale::tiny`]: seconds, for CI and smoke runs.
    Tiny,
    /// [`ExperimentScale::default_fast`]: the default.
    Fast,
    /// [`ExperimentScale::paper`]: the paper's full sizes.
    Paper,
}

impl BenchScale {
    /// Parse a `QGTC_SCALE` value (`None` when the variable is unset, which
    /// is `Fast`).  Any other value is an error listing the valid ones.
    pub fn parse(raw: Option<&str>) -> Result<Self, String> {
        match raw {
            None | Some("fast") => Ok(Self::Fast),
            Some("tiny") => Ok(Self::Tiny),
            Some("paper") => Ok(Self::Paper),
            Some(other) => Err(format!(
                "QGTC_SCALE={other:?} is not a scale (tiny|fast|paper)"
            )),
        }
    }

    /// The name [`BenchScale::parse`] accepts for this scale.
    pub fn name(self) -> &'static str {
        match self {
            Self::Tiny => "tiny",
            Self::Fast => "fast",
            Self::Paper => "paper",
        }
    }

    /// The experiment sizes of this scale.
    pub fn experiment(self) -> ExperimentScale {
        match self {
            Self::Tiny => ExperimentScale::tiny(),
            Self::Fast => ExperimentScale::default_fast(),
            Self::Paper => ExperimentScale::paper(),
        }
    }

    /// The datasets the end-to-end figures sweep: every profile at paper
    /// scale, [`fast_dataset_set`] otherwise.
    pub fn datasets(self) -> Vec<DatasetProfile> {
        match self {
            Self::Paper => full_dataset_set(),
            Self::Tiny | Self::Fast => fast_dataset_set(),
        }
    }
}

/// The `QGTC_SCALE` a bench binary runs at.  Any value other than
/// `tiny|fast|paper` exits with status 2 and the valid list, so a typo never
/// runs a silently different experiment.
pub fn scale_from_env() -> BenchScale {
    BenchScale::parse(std::env::var("QGTC_SCALE").ok().as_deref()).unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2)
    })
}

/// The bitwidths Figure 7(a)/(b) sweeps.
pub const FIG7_BITS: [u32; 5] = [2, 4, 8, 16, 32];

/// One dataset row of Figure 7(a)/(b).
#[derive(Debug, Clone)]
pub struct EndToEndRow {
    /// Dataset name.
    pub dataset: String,
    /// Modeled DGL fp32 epoch latency in milliseconds.
    pub dgl_ms: f64,
    /// Modeled QGTC epoch latency per bitwidth (aligned with [`FIG7_BITS`]).
    pub qgtc_ms: Vec<(u32, f64)>,
    /// Pipelined serial-vs-overlapped epoch latency per bitwidth (same order as
    /// `qgtc_ms`): the modeled double-buffering win on the same counters.
    pub qgtc_pipeline: Vec<(u32, PipelineEstimate)>,
    /// Host wall-clock the shared partitioning of this row took, in milliseconds
    /// (one `partition_kway` run amortised over every DGL/bitwidth epoch).
    pub partition_ms: f64,
    /// Shard count the partitioner resolved its `Auto` parallelism to.
    pub partition_shards: usize,
    /// Per-batch adjacency sparsity of the epoch's packed batches (the numbers
    /// the adjacency-path dispatcher reasons from).  The adjacency is 1-bit
    /// and bitwidth-invariant, so the stats are taken from the lowest-bitwidth
    /// QGTC epoch.
    pub batch_sparsity: Vec<AdjacencySparsityStats>,
    /// `(skip, condensed)` adjacency-path dispatch counts of that same epoch.
    pub adj_dispatches: (u64, u64),
    /// Condensed-over-source K-word ratio across its condensed dispatches
    /// (0.0 when nothing condensed).
    pub condensation_ratio: f64,
}

impl EndToEndRow {
    /// Speedup of the given bitwidth over DGL.
    pub fn speedup(&self, bits: u32) -> f64 {
        self.qgtc_ms
            .iter()
            .find(|(b, _)| *b == bits)
            .map(|(_, ms)| self.dgl_ms / ms)
            .unwrap_or(f64::NAN)
    }

    /// The pipelined estimate for the given bitwidth, if it was swept.
    pub fn pipeline(&self, bits: u32) -> Option<&PipelineEstimate> {
        self.qgtc_pipeline
            .iter()
            .find(|(b, _)| *b == bits)
            .map(|(_, est)| est)
    }
}

/// Figure 7(a) (Cluster GCN) or 7(b) (batched GIN): end-to-end epoch latency per
/// dataset for DGL fp32 and QGTC at each bitwidth, with the modeled
/// serial-vs-overlapped pipeline composition alongside.
pub fn fig7_end_to_end(
    model: ModelKind,
    datasets: &[DatasetProfile],
    scale: &ExperimentScale,
    seed: u64,
) -> Vec<EndToEndRow> {
    datasets
        .iter()
        .map(|profile| {
            let dataset = profile.materialize(scale.dataset_scale, seed);
            // Partition once per dataset; every DGL/bitwidth epoch below runs over
            // the same plan instead of re-running the partitioner six times.
            let partition_config = PartitionConfig::with_parts(scale.num_partitions);
            let partition_shards = partition_config.parallelism.effective_shards();
            let partition_start = std::time::Instant::now();
            let partitioning = partition_kway(&dataset.graph, &partition_config);
            let partition_ms = partition_start.elapsed().as_secs_f64() * 1e3;
            let batcher = PartitionBatcher::new(&partitioning, scale.batch_size);
            let dgl_config = QgtcConfig::dgl_baseline(model)
                .with_partitions(scale.num_partitions, scale.batch_size);
            let dgl = qgtc_core::run_epoch_with_plan(&dataset, &dgl_config, &batcher);
            let mut qgtc_ms = Vec::with_capacity(FIG7_BITS.len());
            let mut qgtc_pipeline = Vec::with_capacity(FIG7_BITS.len());
            let mut batch_sparsity = Vec::new();
            let mut adj_dispatches = (0, 0);
            let mut condensation_ratio = 0.0;
            for &bits in FIG7_BITS.iter() {
                let config = QgtcConfig::qgtc(model, bits)
                    .with_partitions(scale.num_partitions, scale.batch_size);
                let report = qgtc_core::run_epoch_with_plan(&dataset, &config, &batcher);
                if bits == FIG7_BITS[0] {
                    // The adjacency is 1-bit regardless of the feature
                    // bitwidth, so one epoch's sparsity stats stand for all.
                    batch_sparsity = report.batch_sparsity.clone();
                    adj_dispatches = report.adjacency_dispatches();
                    condensation_ratio = report.condensation_ratio();
                }
                qgtc_ms.push((bits, report.modeled_ms));
                qgtc_pipeline.push((bits, report.pipeline));
            }
            EndToEndRow {
                dataset: profile.name.to_string(),
                dgl_ms: dgl.modeled_ms,
                qgtc_ms,
                qgtc_pipeline,
                partition_ms,
                partition_shards,
                batch_sparsity,
                adj_dispatches,
                condensation_ratio,
            }
        })
        .collect()
}

/// One (N, D) row of Figure 7(c): aggregation-kernel throughput in TFLOPs.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Adjacency size N.
    pub n: usize,
    /// Embedding dimension D.
    pub dim: usize,
    /// Baseline throughput (cuBLAS int8 for Fig 7(c), CUTLASS int4 for Table 3).
    pub baseline_tflops: f64,
    /// QGTC throughput per embedding bitwidth.
    pub qgtc_tflops: Vec<(u32, f64)>,
}

/// Density of the synthetic adjacency used by the kernel-throughput experiments
/// (clustered subgraphs are dense; 30% keeps most Tensor Core tiles non-zero).
const THROUGHPUT_ADJ_DENSITY: f64 = 0.30;

/// Run one QGTC aggregation `A(1-bit) · X(bits)` and return the modeled TFLOPs.
fn qgtc_aggregation_tflops(n: usize, dim: usize, bits: u32, seed: u64) -> f64 {
    let adjacency = random_uniform_matrix(n, n, 0.0, 1.0, seed)
        .map(|&v| (v < THROUGHPUT_ADJ_DENSITY as f32) as u32 as f32);
    let adj_stack = StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked);
    let codes = random_feature_codes(n, dim, bits, seed ^ 0xFEED);
    let feat_stack = StackedBitMatrix::from_codes(&codes, bits, BitMatrixLayout::ColPacked);
    let tracker = CostTracker::new();
    let _ = qgtc_aggregate(&adj_stack, &feat_stack, &KernelConfig::default(), &tracker);
    let device = DeviceModel::rtx3090();
    let estimate = device.estimate(&tracker.snapshot());
    device.effective_tflops(DeviceModel::gemm_ops(n, dim, n), &estimate)
}

/// Figure 7(c): QGTC (2–7 bit) versus cuBLAS int8 on the aggregation kernel.
pub fn fig7c_throughput(scale: &ExperimentScale, seed: u64) -> Vec<ThroughputRow> {
    let device = DeviceModel::rtx3090();
    let mut rows = Vec::new();
    for &dim in &scale.gemm_dims {
        for &n in &scale.gemm_sizes {
            // cuBLAS int8 baseline on the same aggregation shape.
            let adjacency = random_uniform_matrix(n, n, 0.0, 1.0, seed)
                .map(|&v| (v < THROUGHPUT_ADJ_DENSITY as f32) as u32 as f32);
            let embeddings = random_uniform_matrix(n, dim, 0.0, 1.0, seed + 1);
            let tracker = CostTracker::new();
            let _ = int8_tc_gemm(&adjacency, &embeddings, &tracker);
            let baseline_est = device.estimate(&tracker.snapshot());
            let baseline_tflops =
                device.effective_tflops(DeviceModel::gemm_ops(n, dim, n), &baseline_est);

            let qgtc_tflops = (2u32..=7)
                .map(|bits| {
                    (
                        bits,
                        qgtc_aggregation_tflops(n, dim, bits, seed + bits as u64),
                    )
                })
                .collect();
            rows.push(ThroughputRow {
                n,
                dim,
                baseline_tflops,
                qgtc_tflops,
            });
        }
    }
    rows
}

/// Table 3: QGTC (1–4 bit) versus CUTLASS int4 on the aggregation kernel.
pub fn table3_throughput(scale: &ExperimentScale, seed: u64) -> Vec<ThroughputRow> {
    let device = DeviceModel::rtx3090();
    let mut rows = Vec::new();
    for &n in &scale.gemm_sizes {
        for &dim in &scale.gemm_dims {
            let adjacency = random_uniform_matrix(n, n, 0.0, 1.0, seed)
                .map(|&v| (v < THROUGHPUT_ADJ_DENSITY as f32) as u32 as f32);
            let embeddings = random_uniform_matrix(n, dim, 0.0, 1.0, seed + 1);
            let tracker = CostTracker::new();
            let _ = int4_tc_gemm(&adjacency, &embeddings, &tracker);
            let baseline_est = device.estimate(&tracker.snapshot());
            let baseline_tflops =
                device.effective_tflops(DeviceModel::gemm_ops(n, dim, n), &baseline_est);

            let qgtc_tflops = (1u32..=4)
                .map(|bits| {
                    (
                        bits,
                        qgtc_aggregation_tflops(n, dim, bits, seed + 10 + bits as u64),
                    )
                })
                .collect();
            rows.push(ThroughputRow {
                n,
                dim,
                baseline_tflops,
                qgtc_tflops,
            });
        }
    }
    rows
}

/// One row of Table 2: accuracy at one bitwidth on one dataset.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Dataset name.
    pub dataset: String,
    /// Bitwidth label (32 = fp32).
    pub bits: u32,
    /// Test accuracy after quantization-aware training.
    pub test_accuracy: f64,
}

/// Table 2: model accuracy versus quantization bitwidth on the two Type-III datasets.
pub fn table2_accuracy(scale: &ExperimentScale, seed: u64) -> Vec<AccuracyRow> {
    let profiles = [DatasetProfile::OGBN_ARXIV, DatasetProfile::OGBN_PRODUCTS];
    let bit_settings: [Option<u32>; 5] = [None, Some(16), Some(8), Some(4), Some(2)];
    let mut rows = Vec::new();
    for profile in &profiles {
        // QAT trains full-batch on a dense-ish operator, so cap the graph size harder
        // than the inference experiments.
        let qat_scale = (scale.dataset_scale * 0.5).min(2_500.0 / profile.num_nodes as f64);
        let dataset = profile.materialize(qat_scale.max(1e-4), seed);
        for &bits in &bit_settings {
            let config = QatConfig {
                bits,
                epochs: scale.qat_epochs,
                hidden_dim: 32,
                ..QatConfig::default()
            };
            let result = train_gcn_qat(
                &dataset.graph,
                &dataset.features,
                &dataset.labels,
                profile.num_classes,
                &config,
            );
            rows.push(AccuracyRow {
                dataset: profile.name.to_string(),
                bits: bits.unwrap_or(32),
                test_accuracy: result.test_accuracy,
            });
        }
    }
    rows
}

/// One dataset row of Figure 8: zero-tile statistics of the batched adjacency,
/// plus the 2-bit epoch's modeled pipelined latency (the zero tiles shrink the
/// compute lane, so the overlap column shows how much of that win survives when
/// transfer is hidden behind compute).
#[derive(Debug, Clone)]
pub struct ZeroTileRow {
    /// Dataset name.
    pub dataset: String,
    /// Total 8×128 Tensor Core tiles across all batches.
    pub total_tiles: usize,
    /// Tiles containing at least one edge.
    pub nonzero_tiles: usize,
    /// Fraction of tiles still processed with zero-tile jumping (the bar labels of
    /// Figure 8).
    pub processed_ratio: f64,
    /// Serial-vs-overlapped modeled epoch latency of the QGTC 2-bit
    /// Cluster-GCN epoch on the same batching.
    pub pipeline: PipelineEstimate,
}

/// Figure 8: zero-tile jumping efficiency per dataset.
pub fn fig8_zero_tile(
    datasets: &[DatasetProfile],
    scale: &ExperimentScale,
    seed: u64,
) -> Vec<ZeroTileRow> {
    datasets
        .iter()
        .map(|profile| {
            let dataset = profile.materialize(scale.dataset_scale, seed);
            let partitioning = partition_kway(
                &dataset.graph,
                &PartitionConfig::with_parts(scale.num_partitions),
            );
            let batcher = PartitionBatcher::new(&partitioning, scale.batch_size);
            let mut total = 0usize;
            let mut nonzero = 0usize;
            for batch in batcher.batches() {
                let subgraph = batch.to_dense_block_diagonal(&dataset.graph);
                if subgraph.num_nodes() == 0 {
                    continue;
                }
                let census = census_adjacency(&subgraph.adjacency);
                total += census.total_tiles;
                nonzero += census.nonzero_tiles;
            }
            // Reuse the partitioning the census was built over instead of letting
            // the epoch partition the graph a second time.
            let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)
                .with_partitions(scale.num_partitions, scale.batch_size);
            let report = qgtc_core::run_epoch_with_plan(&dataset, &config, &batcher);
            ZeroTileRow {
                dataset: profile.name.to_string(),
                total_tiles: total,
                nonzero_tiles: nonzero,
                processed_ratio: if total == 0 {
                    1.0
                } else {
                    nonzero as f64 / total as f64
                },
                pipeline: report.pipeline,
            }
        })
        .collect()
}

/// One point of Figure 9: 1-bit aggregation throughput at a given adjacency size and
/// embedding dimension.
#[derive(Debug, Clone)]
pub struct AdjSizeRow {
    /// Number of nodes N (adjacency is N×N).
    pub n: usize,
    /// Embedding dimension D.
    pub dim: usize,
    /// Modeled throughput in TFLOPs.
    pub tflops: f64,
}

/// Figure 9: adjacency-matrix-size impact on 1-bit aggregation throughput.
pub fn fig9_adj_size(scale: &ExperimentScale, seed: u64) -> Vec<AdjSizeRow> {
    let mut rows = Vec::new();
    for &dim in &scale.fig9_dims {
        for &n in &scale.fig9_sizes {
            let tflops = qgtc_aggregation_tflops(n, dim, 1, seed + (n + dim) as u64);
            rows.push(AdjSizeRow { n, dim, tflops });
        }
    }
    rows
}

/// Figure 10: non-zero tile reuse speedup study.
pub fn fig10_tile_reuse(scale: &ExperimentScale, seed: u64) -> Vec<ReuseComparison> {
    let model = DeviceModel::rtx3090();
    let mut rows = Vec::new();
    for &bits in &[4u32, 8, 16] {
        for &n in &scale.fig10_sizes {
            rows.push(compare_reuse(n, scale.fig10_dim, bits, &model, seed));
        }
    }
    rows
}

/// Ablation: modeled epoch latency of the QGTC path with an optimisation disabled.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which configuration this row describes.
    pub label: String,
    /// Modeled epoch latency in milliseconds.
    pub modeled_ms: f64,
}

/// Kernel-optimisation ablation on one dataset: full QGTC vs no zero-tile jumping vs
/// no tile reuse vs neither (complements Figures 8 and 10 with end-to-end numbers).
pub fn ablation_kernel_optimisations(
    profile: &DatasetProfile,
    scale: &ExperimentScale,
    seed: u64,
) -> Vec<AblationRow> {
    use qgtc_kernels::bmm::ReductionOrder;
    let dataset = profile.materialize(scale.dataset_scale, seed);
    let variants: [(&str, KernelConfig); 4] = [
        ("all optimisations", KernelConfig::default()),
        (
            "no zero-tile jumping",
            KernelConfig {
                zero_tile_jumping: false,
                ..KernelConfig::default()
            },
        ),
        (
            "no tile reuse",
            KernelConfig {
                reduction_order: ReductionOrder::CrossBit,
                ..KernelConfig::default()
            },
        ),
        ("unoptimized", KernelConfig::unoptimized()),
    ];
    variants
        .iter()
        .map(|(label, kernel)| {
            let mut config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 4)
                .with_partitions(scale.num_partitions, scale.batch_size);
            config.kernel = *kernel;
            let report = qgtc_core::run_epoch(&dataset, &config);
            AblationRow {
                label: label.to_string(),
                modeled_ms: report.modeled_ms,
            }
        })
        .collect()
}

/// The subset of datasets small enough for the fast default scale (everything except
/// ogbn-products, which even at 2% is ~49k nodes).
pub fn fast_dataset_set() -> Vec<DatasetProfile> {
    vec![
        DatasetProfile::PROTEINS,
        DatasetProfile::ARTIST,
        DatasetProfile::BLOGCATALOG,
        DatasetProfile::PPI,
        DatasetProfile::OGBN_ARXIV,
    ]
}

/// All six paper datasets.
pub fn full_dataset_set() -> Vec<DatasetProfile> {
    DatasetProfile::all()
}

/// The serial-vs-overlapped pipeline table the fig7 drivers print below the main
/// latency table (one shared renderer so the two bins cannot drift apart).
pub fn overlap_table(rows: &[EndToEndRow], bits: u32) -> crate::report::Table {
    let mut table = crate::report::Table::new(
        &format!("Streamed pipeline: serial vs overlapped modeled epoch latency (QGTC {bits}-bit)"),
        &[
            "dataset",
            "serial (ms)",
            "overlapped (ms)",
            "overlap speedup",
            "staging buffers",
        ],
    );
    for row in rows {
        if let Some(est) = row.pipeline(bits) {
            table.add_row(vec![
                row.dataset.clone(),
                crate::report::fmt3(est.serial_ms()),
                crate::report::fmt3(est.overlapped_ms()),
                format!("{:.2}x", est.overlap_speedup()),
                est.staging_buffers.to_string(),
            ]);
        }
    }
    table
}

/// The partitioning-cost table the fig7 drivers print below the latency tables:
/// one `partition_kway` wall-clock per dataset (the preprocessing the epoch
/// measurement excludes) plus the shard count the partitioner ran with.
pub fn partition_table(rows: &[EndToEndRow]) -> crate::report::Table {
    let mut table = crate::report::Table::new(
        "Partitioning: METIS-substitute wall-clock per dataset (excluded from epoch latency)",
        &["dataset", "partition (ms)", "partitioner shards"],
    );
    for row in rows {
        table.add_row(vec![
            row.dataset.clone(),
            crate::report::fmt3(row.partition_ms),
            row.partition_shards.to_string(),
        ]);
    }
    table
}

/// The per-batch adjacency-sparsity table the fig7 drivers print below the
/// latency tables: the nonzero-word ratio (what the zero-word-skip kernel must
/// visit) and the fragmentation (edges per nonzero word — low values mean
/// scattered one-edge words, condensation's home turf) of every packed batch,
/// plus the adjacency-path dispatch split the epoch resolved.
pub fn sparsity_table(rows: &[EndToEndRow]) -> crate::report::Table {
    let mut table = crate::report::Table::new(
        "Adjacency sparsity: per-batch nonzero-word ratio and fragmentation (with path dispatches)",
        &[
            "dataset",
            "batch",
            "K words",
            "nonzero words",
            "nonzero ratio",
            "fragmentation",
            "dispatch (skip/condensed)",
        ],
    );
    for row in rows {
        let (skip, condensed) = row.adj_dispatches;
        let dispatch = if condensed > 0 {
            format!(
                "{skip}/{condensed} (condensed keeps {} of K)",
                crate::report::fmt3(row.condensation_ratio)
            )
        } else {
            format!("{skip}/{condensed}")
        };
        for (index, stats) in row.batch_sparsity.iter().enumerate() {
            table.add_row(vec![
                if index == 0 {
                    row.dataset.clone()
                } else {
                    String::new()
                },
                index.to_string(),
                stats.total_words.to_string(),
                stats.nonzero_words.to_string(),
                crate::report::fmt3(stats.nonzero_word_ratio()),
                crate::report::fmt3(stats.fragmentation()),
                if index == 0 {
                    dispatch.clone()
                } else {
                    String::new()
                },
            ]);
        }
    }
    table
}

/// Make sure the DGL/QGTC comparison of one row is sane (used by tests and asserted
/// by the binaries in debug builds).
pub fn end_to_end_row_is_consistent(row: &EndToEndRow) -> bool {
    row.dgl_ms > 0.0
        && row.qgtc_ms.len() == FIG7_BITS.len()
        && row.qgtc_ms.iter().all(|(_, ms)| *ms > 0.0)
        && row.qgtc_pipeline.len() == FIG7_BITS.len()
        && row
            .qgtc_pipeline
            .iter()
            .all(|(_, est)| est.overlapped_s > 0.0 && est.overlapped_s <= est.serial_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parser_defaults_to_fast_and_names_the_valid_values_on_a_typo() {
        assert_eq!(BenchScale::parse(None), Ok(BenchScale::Fast));
        for scale in [BenchScale::Tiny, BenchScale::Fast, BenchScale::Paper] {
            assert_eq!(BenchScale::parse(Some(scale.name())), Ok(scale));
        }
        assert_eq!(BenchScale::Tiny.experiment(), ExperimentScale::tiny());
        assert_eq!(BenchScale::Paper.datasets(), full_dataset_set());
        for typo in ["tiyn", "", "Fast", "full"] {
            let err = BenchScale::parse(Some(typo)).unwrap_err();
            assert!(err.contains(&format!("{typo:?}")), "{err}");
            assert!(err.contains("tiny|fast|paper"), "{err}");
        }
    }

    #[test]
    fn fig7_low_bit_beats_dgl_on_tiny_scale() {
        let scale = ExperimentScale::tiny();
        let rows = fig7_end_to_end(
            ModelKind::ClusterGcn,
            &[DatasetProfile::PROTEINS],
            &scale,
            1,
        );
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(end_to_end_row_is_consistent(row));
        assert!(
            row.speedup(2) > 1.0,
            "2-bit QGTC should beat DGL (speedup {:.2})",
            row.speedup(2)
        );
        // Lower bits should not be slower than 8-bit.
        assert!(row.speedup(2) >= row.speedup(8) * 0.9);
        // The overlapped schedule may only improve on the serial composition.
        let est = row.pipeline(2).expect("2-bit pipeline estimate");
        assert!(est.overlapped_s <= est.serial_s);
        assert!(est.overlap_speedup() >= 1.0);
    }

    #[test]
    fn fig7c_qgtc_low_bits_beat_int8_baseline() {
        let scale = ExperimentScale::tiny();
        let rows = fig7c_throughput(&scale, 2);
        assert!(!rows.is_empty());
        for row in &rows {
            let two_bit = row.qgtc_tflops.iter().find(|(b, _)| *b == 2).unwrap().1;
            let seven_bit = row.qgtc_tflops.iter().find(|(b, _)| *b == 7).unwrap().1;
            assert!(
                two_bit > row.baseline_tflops,
                "N={} D={}: QGTC 2-bit ({:.1}) should beat int8 ({:.1})",
                row.n,
                row.dim,
                two_bit,
                row.baseline_tflops
            );
            assert!(two_bit > seven_bit, "fewer bits should be faster");
        }
    }

    #[test]
    fn table3_one_bit_beats_int4() {
        let scale = ExperimentScale::tiny();
        let rows = table3_throughput(&scale, 3);
        for row in &rows {
            let one_bit = row.qgtc_tflops.iter().find(|(b, _)| *b == 1).unwrap().1;
            assert!(one_bit > row.baseline_tflops, "N={} D={}", row.n, row.dim);
        }
    }

    #[test]
    fn fig8_reports_substantial_zero_tiles() {
        let scale = ExperimentScale::tiny();
        let rows = fig8_zero_tile(&[DatasetProfile::PROTEINS], &scale, 4);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.total_tiles > 0);
        assert!(
            row.processed_ratio < 0.9,
            "batched block-diagonal adjacency should contain many zero tiles (ratio {:.2})",
            row.processed_ratio
        );
        assert!(row.pipeline.serial_s > 0.0);
        assert!(row.pipeline.overlapped_s <= row.pipeline.serial_s);
    }

    #[test]
    fn fig9_throughput_grows_with_matrix_size() {
        let scale = ExperimentScale::tiny();
        let rows = fig9_adj_size(&scale, 5);
        // For each dim, the largest N should not be slower than the smallest N.
        for &dim in &scale.fig9_dims {
            let of_dim: Vec<&AdjSizeRow> = rows.iter().filter(|r| r.dim == dim).collect();
            let first = of_dim.first().unwrap();
            let last = of_dim.last().unwrap();
            assert!(
                last.tflops >= first.tflops,
                "dim {dim}: {:.2} -> {:.2}",
                first.tflops,
                last.tflops
            );
        }
    }

    #[test]
    fn fig10_reuse_speedup_not_harmful() {
        let scale = ExperimentScale::tiny();
        let rows = fig10_tile_reuse(&scale, 6);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                r.speedup() > 0.9,
                "reuse should not slow things down materially"
            );
            assert!(r.bytes_with_reuse <= r.bytes_without_reuse);
        }
    }

    #[test]
    fn ablation_full_config_is_fastest() {
        let scale = ExperimentScale::tiny();
        let rows = ablation_kernel_optimisations(&DatasetProfile::PROTEINS, &scale, 7);
        assert_eq!(rows.len(), 4);
        let full = rows[0].modeled_ms;
        let unopt = rows[3].modeled_ms;
        assert!(
            full <= unopt * 1.02,
            "all optimisations ({full:.3} ms) should not lose to unoptimized ({unopt:.3} ms)"
        );
    }
}
