//! End-to-end batched inference pipeline: one batch loop behind every epoch
//! entry point.
//!
//! One epoch of the paper's evaluation loop is three stages:
//!
//! 1. **plan** — partition the input graph with the METIS substitute
//!    (`num_partitions` parts) and group the partitions into batches of
//!    `batch_size`; the [`qgtc_partition::PartitionBatcher`] is an indexable plan,
//!    so any batch can be built independently of the others;
//! 2. **prepare** — materialise a batch's block-diagonal dense subgraph, gather its
//!    feature rows and bit-pack the transfer payload into a
//!    [`PreparedBatch`] (side-effect free:
//!    nothing is recorded into the cost tracker);
//! 3. **execute** — record the host-to-device transfer (the packed payload, or
//!    dense fp32 on the baseline path) and run the model's forward pass on the
//!    configured execution path.
//!
//! Every entry point runs the same private batch loop.  It maps the batch
//! indices over the thread pool: each pool participant runs one batch at a
//! time, prepare through forward, with every GEMM, quantize-pack and epilogue
//! of that batch inline on its thread (the pool runs a parallel call made
//! from inside a pool task inline).  The calling thread then commits the
//! batches' records in epoch order; `RAYON_NUM_THREADS=1` runs the batches
//! one after another.  The entry points differ only in where the plan comes
//! from: [`run_epoch`] and [`try_run_epoch`] partition inline,
//! [`run_epoch_with_plan`] and [`try_run_epoch_with_plan`] take a built one,
//! which is first checked against the dataset.  The `try_*` forms return a
//! typed error; the others panic with it.  The plan and each batch pass these
//! supervised steps:
//!
//! | Step | Fault sites | A fault within the budget | Fails with |
//! |---|---|---|---|
//! | plan | partition | re-partitions | [`QgtcError::PartitionFailed`] |
//! | prepare | prepare | re-prepares, also on a checksum mismatch | [`QgtcError::BatchFailed`] |
//! | dispatch | gemm | re-dispatches; a backend loss degrades this batch and every later one | [`QgtcError::BatchFailed`], or [`QgtcError::BackendLost`] at the chain's end |
//! | forward | — | — | [`QgtcError::NonFiniteActivations`] |
//!
//! A batch step shares no state with the others: it runs on the backend its
//! batch index and the fault plan give, records into a cost tracker of its
//! own, and returns the batch's [`CostSnapshot`]; the epoch loop commits the
//! per-batch records in epoch order.  The serving session ([`crate::serve`])
//! runs its cache misses through the same `prepare_batch`, supervisors and
//! execute step, and merges each batch's cost into one tracker.  Because prepare is pure and a
//! batch's execution depends on nothing but its index and payload, a served
//! full sweep records the epoch's [`CostSnapshot`]s exactly; [`run_epoch`] is
//! the oracle it is checked against.
//!
//! The returned [`EpochReport`] carries the modeled GPU latency (the number the
//! paper's Figure 7 reports), a pipelined serial-vs-overlapped latency pair (the
//! paper's batched dataflow overlaps one batch's transfer with another's compute,
//! §5; [`DeviceModel::estimate_pipelined`] schedules the per-batch counters at
//! two staging buffers, the paper's double buffering: a model of the device,
//! not a host schedule), the measured host wall-clock of the simulation itself
//! (partitioning excluded, reported separately as `partition_ms`), and the raw
//! per-batch cost snapshots for deeper analysis.
//!
//! The supervisors absorb faults — injected by a [`crate::fault::FaultPlan`] or
//! real (a checksum mismatch on a sealed payload) — under one retry policy: a
//! fault that fired is counted, a backend loss or a fault outliving 3 retries
//! fails typed, and anything else backs off and retries, repairing a batch by
//! a pure re-prepare.  A dispatch-site backend loss is not retried: the
//! backend of batch `i` is the configured one stepped down
//! [`crate::fault::fallback_backend`] once for each loss at a batch `j ≤ i`.
//! Because every decision is keyed on `(site, batch, attempt)` and
//! re-preparing a batch is side-effect free, a recovered epoch is bitwise
//! identical to a fault-free one, and [`EpochReport::fault_stats`] is the same
//! at any thread count. What cannot be absorbed surfaces as a typed
//! [`QgtcError`] from the `try_*` entry points ([`try_run_epoch`],
//! [`try_run_epoch_with_plan`], [`try_build_plan`]); when several batches
//! fail, it is the lowest failing batch's.  The panicking entry points
//! delegate to them.

use std::time::Instant;

use rayon::prelude::*;

use qgtc_gnn::models::{BatchForwardOutput, GnnModel, QuantizationSetting, QuantizedWeightSet};
use qgtc_gnn::{BatchedGinModel, ClusterGcnModel};
use qgtc_graph::{DenseSubgraph, LoadedDataset, SubgraphScratch};
use qgtc_kernels::backend::BackendChoice;
use qgtc_kernels::bmm::{resolve_adjacency_path, AdjacencyPath, KernelConfig};
use qgtc_kernels::packing::PreparedBatch;
use qgtc_kernels::pool::PackedBufferPool;
use qgtc_kernels::zero_tile::{adjacency_sparsity_stats, AdjacencySparsityStats};
use qgtc_partition::{try_partition_kway, PartitionBatcher, PartitionConfig};
use qgtc_tcsim::cost::{CostSnapshot, CostTracker};
use qgtc_tcsim::{DeviceModel, KernelEstimate, PipelineEstimate};

use crate::config::{ExecutionPath, ModelKind, QgtcConfig};
use crate::fault::{FaultInjector, FaultKind, FaultSite, FaultStats, QgtcError};

/// Result of one modeled inference epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Modeled end-to-end epoch latency (the Figure-7 metric), in milliseconds.
    /// This is the whole-epoch aggregate estimate; see `pipeline` for the
    /// per-batch-composed serial/overlapped pair.
    pub modeled_ms: f64,
    /// Breakdown of the modeled time (aggregate over the epoch).
    pub estimate: KernelEstimate,
    /// Pipelined latency composition: per-batch transfer/compute lanes scheduled
    /// serially and with two staging buffers (double buffering).
    pub pipeline: PipelineEstimate,
    /// Host wall-clock spent simulating the epoch (prepare + execute), in
    /// milliseconds. The batches run side by side on the thread pool, so this
    /// is less than the sum of their stages on more than one thread.
    /// Partitioning is **excluded**, matching the paper's
    /// measurement, which treats partitioning as one-time preprocessing; it is
    /// reported separately in `partition_ms`.
    pub host_wall_ms: f64,
    /// Host wall-clock spent partitioning the graph and building the batch plan,
    /// in milliseconds.
    pub partition_ms: f64,
    /// Number of (non-empty) batches executed.
    pub num_batches: usize,
    /// Number of nodes processed.
    pub num_nodes: usize,
    /// Raw accumulated work counters.
    pub cost: CostSnapshot,
    /// Per-batch costs in epoch order (one entry per executed batch); these
    /// feed the pipelined latency model and the serving-vs-epoch identity tests.
    pub batch_costs: Vec<CostSnapshot>,
    /// Per-batch adjacency sparsity in epoch order (one entry per executed
    /// batch, all-zero for the dense baseline path): the nonzero-word ratio the
    /// zero-word-skip kernel sees and the fragmentation (edges per nonzero
    /// word) that decides whether condensation wins. Rendered as a table by the
    /// fig7a/fig7b binaries.
    pub batch_sparsity: Vec<AdjacencySparsityStats>,
    /// What the fault supervisor did this epoch: faults injected, retry cycles
    /// run, faults fully recovered, and backend degradations (with the backend
    /// the epoch finished on). All zeros on a fault-free run.
    pub fault_stats: FaultStats,
    /// How many weight-quantization passes the epoch ran. Model weights are
    /// constant across an epoch, so the context quantizes them **once per
    /// layer** up front and every batch shares the packed stacks: this is the
    /// model's layer count on the low-bit QGTC path (not `batches × layers`)
    /// and 0 on the dense-TC and baseline paths.
    pub weight_quantizations: u64,
}

impl EpochReport {
    /// Measured zero-word skip ratio of the epoch's fused GEMMs: the fraction of
    /// K-loop words the kernel's zero-word span index actually jumped (0.0 when
    /// zero-tile jumping was disabled or nothing ran).  This is the executed
    /// counterpart of the analytic [`CostSnapshot::tile_processing_ratio`].
    pub fn fused_word_skip_ratio(&self) -> f64 {
        self.cost.fused_word_skip_ratio()
    }

    /// Condensation ratio over the epoch's condensed-path dispatches: condensed
    /// K-loop words over the words the skip kernel would have walked (0.0 when
    /// no batch took the condensed path). Lower is better; see
    /// [`CostSnapshot::condensation_ratio`].
    pub fn condensation_ratio(&self) -> f64 {
        self.cost.condensation_ratio()
    }

    /// How the adjacency-path dispatcher split the epoch's aggregations:
    /// `(skip_dispatches, condensed_dispatches)`.
    pub fn adjacency_dispatches(&self) -> (u64, u64) {
        (
            self.cost.adj_skip_dispatches,
            self.cost.adj_condensed_dispatches,
        )
    }
}

/// Everything the execute stage needs that is built once per epoch: the model
/// (constructed from the dataset's dimensions and the config seed) and the
/// quantization setting.
pub(crate) struct EpochContext<'a> {
    config: &'a QgtcConfig,
    model: GnnModel,
    setting: QuantizationSetting,
    /// The per-epoch quantized weight cache (low-bit QGTC path only): every
    /// layer's weights quantized and bit-packed exactly once, shared by all of
    /// the epoch's forward passes.
    weights: Option<QuantizedWeightSet>,
}

impl<'a> EpochContext<'a> {
    pub(crate) fn new(dataset: &LoadedDataset, config: &'a QgtcConfig) -> Self {
        let feature_dim = dataset.features.cols();
        let num_classes = dataset.profile.num_classes.max(2);
        let model = match config.model {
            ModelKind::ClusterGcn => {
                GnnModel::ClusterGcn(ClusterGcnModel::new(feature_dim, num_classes, config.seed))
            }
            ModelKind::BatchedGin => {
                GnnModel::BatchedGin(BatchedGinModel::new(feature_dim, num_classes, config.seed))
            }
        };
        let setting = QuantizationSetting::from_bits(config.bits);
        // Weights are constant across the epoch: quantize once per layer here
        // and let every batch share the packed stacks.
        let weights = match (config.path, setting) {
            (ExecutionPath::Qgtc, QuantizationSetting::Quantized { bits }) => {
                Some(model.prepare_weights(bits))
            }
            _ => None,
        };
        Self {
            config,
            model,
            setting,
            weights,
        }
    }

    /// How many weight-quantization passes this epoch runs: one per layer on
    /// the low-bit path (counted once, at context build time), 0 otherwise.
    pub(crate) fn weight_quantize_calls(&self) -> u64 {
        self.weights
            .as_ref()
            .map_or(0, QuantizedWeightSet::quantize_calls)
    }
}

/// The plan stage: partition the graph and build the indexable batch plan (the
/// preprocessing the paper excludes from its epoch measurement). Returns the
/// plan plus the shard count the partitioner ran with (one per pool thread,
/// [`qgtc_partition::Parallelism::Auto`]).
///
/// Validates the config ([`QgtcConfig::validate`]) and the dataset features
/// (a NaN or infinite value is [`QgtcError::NonFiniteFeature`], a range wider
/// than `f32` is [`QgtcError::FeatureRangeOverflow`]), partitions through the
/// partitioner's typed-error entry points, and runs under the partition-site
/// fault supervisor. A zero batch size, zero partitions or more partitions
/// than nodes is a [`QgtcError`], not a panic.
pub fn try_build_plan(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
) -> Result<(PartitionBatcher, usize), QgtcError> {
    let injector = FaultInjector::from_config(config);
    supervised_build_plan(dataset, config, injector.as_ref())
}

/// The plan stage under supervision, sharing `injector` with the rest of the
/// epoch so partition-phase faults land in the same [`FaultStats`].
pub(crate) fn supervised_build_plan(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    injector: Option<&FaultInjector>,
) -> Result<(PartitionBatcher, usize), QgtcError> {
    config.validate()?;
    check_finite_features(dataset)?;
    let partition_config = PartitionConfig::with_parts(config.num_partitions);
    let shards = partition_config.parallelism.effective_shards();
    let batcher = retry(injector, |attempt| {
        if let Some(kind) = injector.and_then(|i| i.fault_at(FaultSite::Partition, 0, attempt)) {
            return Err(Failure::Fault {
                fired: Some(kind),
                error: QgtcError::PartitionFailed {
                    attempts: attempt + 1,
                },
            });
        }
        let partitioning =
            try_partition_kway(&dataset.graph, &partition_config).map_err(QgtcError::from)?;
        Ok(PartitionBatcher::try_new(&partitioning, config.batch_size).map_err(QgtcError::from)?)
    })?;
    Ok((batcher, shards))
}

/// The first NaN or infinite feature value, or a feature range no batch
/// could be calibrated over, as a typed error.  A batch's range is a subset
/// of the dataset's, so a finite dataset range keeps every batch's finite.
fn check_finite_features(dataset: &LoadedDataset) -> Result<(), QgtcError> {
    let features = &dataset.features;
    // Magnitudes below 2^127 are finite and any two of them differ by less
    // than `f32::MAX`, so one scan clears the common case; the sequential
    // min/max (several times slower) runs only past it.
    let half_range = 2f32.powi(127);
    if features.data().iter().all(|v| v.abs() < half_range) {
        return Ok(());
    }
    if let Some(at) = features.data().iter().position(|v| !v.is_finite()) {
        return Err(QgtcError::NonFiniteFeature {
            node: at / features.cols(),
            column: at % features.cols(),
        });
    }
    let (min, max) = features.min_max();
    if !(max - min).is_finite() {
        return Err(QgtcError::FeatureRangeOverflow { min, max });
    }
    Ok(())
}

/// How many times a supervised stage retries a fault before it fails typed:
/// a fault of up to 3 consecutive failing attempts is absorbed.
const MAX_RETRIES: u32 = 3;

/// Device staging buffers at which [`EpochReport::pipeline`] schedules an
/// epoch's per-batch lanes: the paper's double buffering.
const STAGING_BUFFERS: usize = 2;

/// Why one attempt of a supervised stage failed.
enum Failure {
    /// A fault failed the attempt: `fired` is the planned fault that fired
    /// (`None` when a checksum caught damage no plan injected), and `error` is
    /// what the stage fails with if it stops retrying here.
    Fault {
        fired: Option<FaultKind>,
        error: QgtcError,
    },
    /// The stage's own work failed.  That is not a fault: no retry, no count.
    Stage(QgtcError),
}

impl From<QgtcError> for Failure {
    fn from(error: QgtcError) -> Self {
        Failure::Stage(error)
    }
}

/// Attempt `attempt` of batch `batch` failed at `site`: `fired` is the
/// planned fault that failed it, if any, and `kind` the kind its error names.
fn batch_fault(
    batch: usize,
    site: FaultSite,
    fired: Option<FaultKind>,
    kind: FaultKind,
    attempt: u32,
) -> Failure {
    Failure::Fault {
        fired,
        error: QgtcError::BatchFailed {
            batch,
            site,
            kind,
            attempts: attempt + 1,
        },
    }
}

/// The one retry policy of every supervised stage.  `attempt(n)` runs the
/// stage's attempt `n` (0 first) and keeps the stage's own site, firing key
/// and checksum step.  A fault that fired is counted injected.  A backend
/// loss, or a fault on attempt `MAX_RETRIES`, fails with the attempt's
/// typed error; any other fault is counted retried and backs off
/// exponentially (50µs · 2ⁿ) before the next attempt.  When an attempt
/// succeeds, every fault retried before it counts as recovered.
fn retry<T>(
    injector: Option<&FaultInjector>,
    mut attempt: impl FnMut(u32) -> Result<T, Failure>,
) -> Result<T, QgtcError> {
    let mut n = 0;
    loop {
        match attempt(n) {
            Ok(value) => {
                if let Some(injector) = injector {
                    injector.count_recovered(u64::from(n));
                }
                return Ok(value);
            }
            Err(Failure::Stage(error)) => return Err(error),
            Err(Failure::Fault { fired, error }) => {
                if let (Some(injector), Some(_)) = (injector, fired) {
                    injector.count_injected();
                }
                if fired == Some(FaultKind::BackendLoss) || n >= MAX_RETRIES {
                    return Err(error);
                }
                if let Some(injector) = injector {
                    injector.count_retried();
                }
                std::thread::sleep(std::time::Duration::from_micros(50 << n));
                n += 1;
            }
        }
    }
}

/// Prepare stage: materialise batch `index` of the plan and pack its payload,
/// drawing every buffer from `pool` and the node map from `scratch`.  The
/// `_in` constructors zero recycled storage, so the batch is bitwise identical
/// whatever the pool holds — the supervisors' repair precondition.
///
/// Pure with respect to the cost model — no tracker is touched — so a repair
/// may rebuild a batch without perturbing any recorded counter.
/// On the QGTC path the payload's condensed adjacency is built here iff the
/// dispatcher will take the condensed path for this batch (exact: the resolver
/// reads only the adjacency, so prepare and execute always agree).  That keeps
/// the translation off the execute stage and lets the serving payload cache
/// amortize it across coalesced requests.
///
/// Features the pack cannot calibrate (a NaN or infinite value, or a range
/// wider than `f32`) fail with the plan stage's typed error, which names the
/// dataset's first offending value: the pack's own range scan detects the
/// case, so a given plan, which skips the plan stage's dataset scan, pays
/// nothing extra on clean features.  The dense baseline path packs nothing,
/// so it scans each batch's gathered features for a NaN or infinite value
/// and fails with the same error.
pub(crate) fn prepare_batch(
    batcher: &PartitionBatcher,
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    index: usize,
    pool: &mut PackedBufferPool,
    scratch: &mut SubgraphScratch,
) -> Result<PreparedBatch, QgtcError> {
    let batch = batcher
        .batch(index)
        .expect("prepare_batch called with index < num_batches");
    let subgraph = DenseSubgraph::batch_block_diagonal_in(
        &dataset.graph,
        &batch.partitions,
        pool.take_words(),
        pool.take_indices(),
        scratch,
    );
    let features = subgraph.gather_features_in(&dataset.features, pool.take_floats());
    match config.path {
        ExecutionPath::Qgtc => {
            let mut prepared = PreparedBatch::pack_quantized_pooled(
                index,
                subgraph,
                features,
                config.bits.min(8),
                pool,
            )
            .map_err(|err| match check_finite_features(dataset) {
                Err(found) => found,
                // A batch's range lies inside the dataset's, so only a
                // bitwidth the config check rejects first could get here.
                Ok(()) => QgtcError::InvalidConfig(err.to_string()),
            })?;
            if let Some(payload) = prepared.payload.as_mut() {
                if resolve_adjacency_path(config.kernel.adjacency_path, &payload.packed_adjacency)
                    == AdjacencyPath::Condensed
                {
                    payload.ensure_condensed();
                }
            }
            Ok(prepared)
        }
        ExecutionPath::DglBaseline => {
            // No pack calibrates the dense path's features, so it checks the
            // gathered values; they are the dataset's, so its scan names one.
            if !features.data().iter().all(|v| v.is_finite()) {
                check_finite_features(dataset)?;
            }
            Ok(PreparedBatch::dense(index, subgraph, features))
        }
    }
}

/// Execute stage: record the batch's transfer and run the forward pass on
/// `backend`, into a cost tracker of the batch's own.
///
/// Returns the forward pass's output with the batch's [`CostSnapshot`]
/// (`None` for empty batches). The epoch loop drops the output — an epoch is
/// measured, not answered — while the serving layer ([`crate::serve`])
/// gathers per-request logit rows out of it.  Fails with
/// [`QgtcError::NonFiniteActivations`] when the batch's activations overflow
/// `f32`; its cost is then dropped with it.
pub(crate) fn execute_batch(
    ctx: &EpochContext<'_>,
    prepared: &PreparedBatch,
    backend: BackendChoice,
) -> Result<Option<(BatchForwardOutput, CostSnapshot)>, QgtcError> {
    if prepared.num_nodes() == 0 {
        return Ok(None);
    }
    let tracker = CostTracker::new();
    prepared.record_transfer(&tracker);
    let output = match ctx.config.path {
        ExecutionPath::Qgtc => {
            let kernel = KernelConfig {
                backend,
                ..ctx.config.kernel
            };
            ctx.model
                .try_forward_prepared_quantized(
                    prepared,
                    ctx.setting,
                    ctx.weights.as_ref(),
                    &kernel,
                    &tracker,
                )
                .map_err(|source| QgtcError::NonFiniteActivations {
                    batch: prepared.batch_index,
                    source,
                })?
        }
        ExecutionPath::DglBaseline => ctx.model.forward_prepared_fp32(prepared, &tracker),
    };
    Ok(Some((output, tracker.snapshot())))
}

/// Prepare stage under supervision: run `prepare` for batch `index` on
/// `pool`, absorbing [`FaultSite::Prepare`] faults.  `prepare` must be pure
/// with respect to the cost model and deterministic for a given batch
/// (re-invocations must rebuild bitwise-identical payloads whatever the pool
/// holds — that is what makes retry a repair); [`prepare_batch`] is.  An
/// error from `prepare` itself is not a fault: it returns at once, with no
/// retry and no count.
///
/// Without an injector the batch is returned as prepared.  Under one, each
/// attempt fails on a planned transient or backend loss before `prepare`
/// runs; otherwise the batch is sealed under its payload checksum, a planned
/// [`FaultKind::Corruption`] flips sealed payload bits, and the checksum is
/// verified: a mismatch, injected or real, fails the attempt as a
/// corruption.  A planned corruption that finds no payload to flip (the
/// dense baseline, an empty batch) fails the attempt as a transient.  A
/// rejected batch is recycled into `pool`, and the retry re-prepares it.
pub(crate) fn supervise_prepare(
    injector: Option<&FaultInjector>,
    index: usize,
    pool: &mut PackedBufferPool,
    mut prepare: impl FnMut(&mut PackedBufferPool) -> Result<PreparedBatch, QgtcError>,
) -> Result<PreparedBatch, QgtcError> {
    let Some(injector) = injector else {
        return prepare(pool);
    };
    retry(Some(injector), |attempt| {
        let fired = injector.fault_at(FaultSite::Prepare, index, attempt);
        if let Some(kind @ (FaultKind::Transient | FaultKind::BackendLoss)) = fired {
            return Err(batch_fault(index, FaultSite::Prepare, fired, kind, attempt));
        }
        let mut prepared = prepare(pool)?;
        prepared.seal_checksum();
        // `fired` is now `None` or a planned corruption.
        let kind = if fired.is_some()
            && !prepared.corrupt_payload(injector.corruption_seed(index, attempt))
        {
            FaultKind::Transient
        } else if prepared.verify_payload() {
            return Ok(prepared);
        } else {
            FaultKind::Corruption
        };
        prepared.recycle_into(pool);
        Err(batch_fault(index, FaultSite::Prepare, fired, kind, attempt))
    })
}

/// Dispatch stage under supervision, run just before a batch's forward pass:
/// returns the backend batch `index` runs on
/// ([`FaultInjector::backend_at`]: a backend loss at this or any earlier
/// batch index steps it down, or fails typed at the chain's end).  A
/// transient [`FaultSite::Dispatch`] fault retries the dispatch.
pub(crate) fn supervise_dispatch(
    config: &QgtcConfig,
    injector: Option<&FaultInjector>,
    index: usize,
) -> Result<BackendChoice, QgtcError> {
    let Some(injector) = injector else {
        return Ok(config.kernel.backend);
    };
    let backend = injector.backend_at(config.kernel.backend, index)?;
    retry(Some(injector), |attempt| {
        match injector.fault_at(FaultSite::Dispatch, index, attempt) {
            None => Ok(()),
            Some(FaultKind::BackendLoss) => {
                injector.count_injected();
                injector.count_degraded();
                Ok(())
            }
            fired => Err(batch_fault(
                index,
                FaultSite::Dispatch,
                fired,
                FaultKind::Transient,
                attempt,
            )),
        }
    })?;
    Ok(backend)
}

/// Run one epoch of `dataset` under `config` over `plan` or, when it is
/// `None`, over a plan partitioned inline.
///
/// A given plan reports `partition_ms` as 0 because no partitioning happens
/// in the run's scope.  Its batch size must match what
/// `config` describes for the report's granularity fields to be meaningful,
/// but nothing is re-derived from `config.num_partitions`/`config.batch_size`.
fn run_epoch_on(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    plan: Option<&PartitionBatcher>,
) -> Result<EpochReport, QgtcError> {
    let injector = FaultInjector::from_config(config);
    // Partitioning is host-side preprocessing, excluded from `host_wall_ms`
    // and timed separately — matching the paper's measurement.
    let built;
    let (batcher, partition_ms) = match plan {
        Some(batcher) => {
            // The plan stage validates the config; a given plan skips it.
            config.validate()?;
            check_plan_nodes(dataset, batcher)?;
            (batcher, 0.0)
        }
        None => {
            let start = Instant::now();
            built = supervised_build_plan(dataset, config, injector.as_ref())?.0;
            (&built, start.elapsed().as_secs_f64() * 1e3)
        }
    };
    let mut report = run_batches(dataset, config, batcher, injector.as_ref())?;
    report.partition_ms = partition_ms;
    Ok(report)
}

/// A given plan's node ids, checked against `dataset` in one pass: the first
/// id past the dataset is [`QgtcError::UnknownNode`], the first id the plan
/// lists a second time is [`QgtcError::InvalidConfig`] naming it.
fn check_plan_nodes(dataset: &LoadedDataset, batcher: &PartitionBatcher) -> Result<(), QgtcError> {
    let num_nodes = dataset.graph.num_nodes();
    let mut seen = vec![0u64; num_nodes.div_ceil(64)];
    for batch in batcher.batches() {
        for &node in batch.partitions.iter().flatten() {
            if node >= num_nodes {
                return Err(QgtcError::UnknownNode { node });
            }
            let (word, bit) = (node / 64, 1u64 << (node % 64));
            if seen[word] & bit != 0 {
                return Err(QgtcError::InvalidConfig(format!(
                    "the batch plan lists node {node} more than once"
                )));
            }
            seen[word] |= bit;
        }
    }
    Ok(())
}

/// The one batch loop.  The batches run on the pool, one per participant at
/// a time; each step runs supervised prepare (from a buffer pool and node-map
/// scratch of its own), supervised dispatch, [`execute_batch`] and the
/// adjacency census for its batch.  A dispatch made inside a pool task runs
/// inline, so each batch's GEMMs, quantize-packs and epilogues stay on its
/// step's thread.  The calling thread then commits the steps' records in
/// epoch order and returns the error of the lowest failing batch, if any, so
/// the report and the error are the same at any thread count.
fn run_batches(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    batcher: &PartitionBatcher,
    injector: Option<&FaultInjector>,
) -> Result<EpochReport, QgtcError> {
    let epoch_start = Instant::now();
    let ctx = EpochContext::new(dataset, config);
    let steps: Vec<_> = (0..batcher.num_batches())
        .into_par_iter()
        .map(|index| -> Result<_, QgtcError> {
            let mut scratch = SubgraphScratch::default();
            let prepared =
                supervise_prepare(injector, index, &mut PackedBufferPool::new(), |pool| {
                    prepare_batch(batcher, dataset, config, index, pool, &mut scratch)
                })?;
            let backend = supervise_dispatch(config, injector, index)?;
            let record = execute_batch(&ctx, &prepared, backend)?.map(|(_, cost)| {
                // Host-side sparsity measurement (all-zero on the dense
                // baseline path).
                let sparsity = prepared
                    .payload
                    .as_ref()
                    .map(|payload| adjacency_sparsity_stats(&payload.packed_adjacency))
                    .unwrap_or_default();
                (cost, sparsity, prepared.num_nodes())
            });
            Ok((backend, record))
        })
        .collect();
    let mut backend = config.kernel.backend;
    let mut batch_costs = Vec::new();
    let mut batch_sparsity = Vec::new();
    let mut num_nodes = 0;
    for step in steps {
        let (step_backend, record) = step?;
        backend = step_backend;
        if let Some((cost, sparsity, nodes)) = record {
            batch_costs.push(cost);
            batch_sparsity.push(sparsity);
            num_nodes += nodes;
        }
    }

    let mut fault_stats = injector.map(FaultInjector::stats).unwrap_or_default();
    if fault_stats.degraded > 0 {
        fault_stats.degraded_backend = Some(backend.name());
    }
    let total = CostTracker::new();
    for cost in &batch_costs {
        total.merge_snapshot(cost);
    }
    let cost = total.snapshot();
    let device = DeviceModel::rtx3090();
    let estimate = device.estimate(&cost);
    let pipeline = device.estimate_pipelined(&batch_costs, STAGING_BUFFERS);
    Ok(EpochReport {
        modeled_ms: estimate.total_ms(),
        estimate,
        pipeline,
        host_wall_ms: epoch_start.elapsed().as_secs_f64() * 1e3,
        partition_ms: 0.0,
        num_batches: batch_costs.len(),
        num_nodes,
        cost,
        batch_costs,
        batch_sparsity,
        fault_stats,
        weight_quantizations: ctx.weight_quantize_calls(),
    })
}

/// Run one inference epoch of `dataset` under `config`.
///
/// The batches run on the thread pool, one per worker at a time, and their
/// records are committed in epoch order, so the report is the same at any
/// thread count; a served full sweep is checked against it.  The
/// transfer/compute overlap of the paper's batched dataflow is modeled from
/// the recorded per-batch counters ([`EpochReport::pipeline`]).
pub fn run_epoch(dataset: &LoadedDataset, config: &QgtcConfig) -> EpochReport {
    try_run_epoch(dataset, config).unwrap_or_else(|err| panic!("run_epoch: {err}"))
}

/// Fallible form of [`run_epoch`]: the epoch under the fault supervisor.
/// Unrecoverable faults — and the invalid-argument conditions that used to panic
/// deep inside the pipeline — surface as a typed [`QgtcError`].
pub fn try_run_epoch(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
) -> Result<EpochReport, QgtcError> {
    run_epoch_on(dataset, config, None)
}

/// Run one inference epoch over an already-built batch plan.
///
/// For callers that partitioned the graph themselves (or amortise one
/// partitioning across several epochs — the serving layer's construction
/// pattern); `partition_ms` reports 0.
pub fn run_epoch_with_plan(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    batcher: &PartitionBatcher,
) -> EpochReport {
    try_run_epoch_with_plan(dataset, config, batcher)
        .unwrap_or_else(|err| panic!("run_epoch_with_plan: {err}"))
}

/// Fallible form of [`run_epoch_with_plan`].  The plan is checked against
/// the dataset before any batch runs: a node id past the dataset is
/// [`QgtcError::UnknownNode`], a node listed twice [`QgtcError::InvalidConfig`].
/// Features no batch can be calibrated over are the same typed error
/// [`try_build_plan`] returns, surfaced by the lowest batch that holds one.
pub fn try_run_epoch_with_plan(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    batcher: &PartitionBatcher,
) -> Result<EpochReport, QgtcError> {
    run_epoch_on(dataset, config, Some(batcher))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_graph::DatasetProfile;

    fn tiny_dataset() -> LoadedDataset {
        DatasetProfile::PROTEINS.materialize(0.03, 7)
    }

    fn tiny_config(config: QgtcConfig) -> QgtcConfig {
        config.with_partitions(16, 4)
    }

    #[test]
    fn epoch_processes_every_node_once() {
        let dataset = tiny_dataset();
        let report = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)),
        );
        assert_eq!(report.num_nodes, dataset.graph.num_nodes());
        assert!(report.num_batches >= 3);
        assert!(report.modeled_ms > 0.0);
        assert!(report.host_wall_ms > 0.0);
        assert!(report.partition_ms > 0.0);
        assert_eq!(report.batch_costs.len(), report.num_batches);
    }

    #[test]
    fn qgtc_path_uses_tensor_cores_and_packed_transfers() {
        let dataset = tiny_dataset();
        let report = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 4)),
        );
        assert!(report.cost.tc_b1_tiles > 0);
        assert!(report.cost.pcie_h2d_bytes > 0);
        assert_eq!(report.cost.cuda_sparse_flops, 0);
        // Batched subgraphs are block-diagonal, so the default config's
        // zero-word skipping must have jumped real work.
        assert!(report.cost.fused_words_total > 0);
        assert!(
            report.fused_word_skip_ratio() > 0.0,
            "block-diagonal adjacencies must skip words"
        );
    }

    #[test]
    fn skip_ratio_is_zero_when_jumping_is_disabled() {
        let dataset = tiny_dataset();
        let mut config = tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 4));
        config.kernel.zero_tile_jumping = false;
        let report = run_epoch(&dataset, &config);
        assert!(report.cost.fused_words_total > 0);
        assert_eq!(report.cost.fused_words_skipped, 0);
        assert_eq!(report.fused_word_skip_ratio(), 0.0);
    }

    #[test]
    fn baseline_path_uses_cuda_cores_and_dense_transfers() {
        let dataset = tiny_dataset();
        let report = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::dgl_baseline(ModelKind::ClusterGcn)),
        );
        assert_eq!(report.cost.tc_b1_tiles, 0);
        assert!(report.cost.cuda_sparse_flops > 0);
    }

    #[test]
    fn low_bit_qgtc_is_modeled_faster_than_dgl() {
        let dataset = tiny_dataset();
        let qgtc = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)),
        );
        let dgl = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::dgl_baseline(ModelKind::ClusterGcn)),
        );
        assert!(
            qgtc.modeled_ms < dgl.modeled_ms,
            "QGTC 2-bit {:.3} ms should beat DGL {:.3} ms",
            qgtc.modeled_ms,
            dgl.modeled_ms
        );
    }

    #[test]
    fn lower_bitwidth_is_modeled_no_slower() {
        let dataset = tiny_dataset();
        let b2 = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::BatchedGin, 2)),
        );
        let b8 = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::BatchedGin, 8)),
        );
        assert!(
            b2.modeled_ms <= b8.modeled_ms * 1.05,
            "2-bit ({:.3} ms) should not be slower than 8-bit ({:.3} ms)",
            b2.modeled_ms,
            b8.modeled_ms
        );
    }

    #[test]
    fn gin_runs_both_paths() {
        let dataset = tiny_dataset();
        let q = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::BatchedGin, 4)),
        );
        let d = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::dgl_baseline(ModelKind::BatchedGin)),
        );
        assert!(q.cost.tc_b1_tiles > 0);
        assert!(d.cost.cuda_sparse_flops > 0);
    }

    #[test]
    fn weights_are_quantized_once_per_layer_per_epoch() {
        let dataset = tiny_dataset();
        let report = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)),
        );
        // One pass per layer, NOT batches × layers: the epoch context caches
        // the packed weight stacks and every batch shares them.
        assert_eq!(report.weight_quantizations, 3, "3-layer Cluster GCN");
        assert!(
            report.num_batches > 1,
            "the cache claim is vacuous on a single-batch epoch"
        );

        // The dense-TC and baseline paths never bit-quantize weights.
        let half = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 16)),
        );
        assert_eq!(half.weight_quantizations, 0);
        let dgl = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::dgl_baseline(ModelKind::BatchedGin)),
        );
        assert_eq!(dgl.weight_quantizations, 0);
    }

    #[test]
    fn batch_costs_sum_to_epoch_cost() {
        let dataset = tiny_dataset();
        let report = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 3)),
        );
        let t = CostTracker::new();
        for batch in &report.batch_costs {
            t.merge_snapshot(batch);
        }
        assert_eq!(
            t.snapshot(),
            report.cost,
            "per-batch deltas must tile the epoch"
        );
    }

    #[test]
    fn a_prepare_error_is_returned_without_a_retry_or_a_fault_count() {
        // An active plan whose corruption would retry a successful prepare.
        let plan = crate::fault::FaultPlan::parse("prepare:corrupt:0").expect("valid");
        let injector = FaultInjector::new(plan);
        let error = QgtcError::NonFiniteFeature { node: 1, column: 2 };
        let mut calls = 0;
        let result = supervise_prepare(Some(&injector), 0, &mut PackedBufferPool::new(), |_| {
            calls += 1;
            Err(error.clone())
        });
        assert_eq!(result.map(|_| ()), Err(error));
        assert_eq!(calls, 1);
        assert_eq!(injector.stats(), FaultStats::default());
    }

    /// The tiny Cluster GCN 2-bit epoch's dataset, config and plan.
    fn tiny_plan() -> (LoadedDataset, QgtcConfig, PartitionBatcher) {
        let dataset = tiny_dataset();
        let config = tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 2));
        let (batcher, _) = try_build_plan(&dataset, &config).expect("valid config");
        (dataset, config, batcher)
    }

    /// Batch 0 of `plan`, prepared on `pool`: packed, or rebuilt as a dense
    /// batch with no payload.
    fn first_batch(
        (dataset, config, batcher): &(LoadedDataset, QgtcConfig, PartitionBatcher),
        dense: bool,
        pool: &mut PackedBufferPool,
    ) -> PreparedBatch {
        let mut scratch = SubgraphScratch::default();
        let prepared = prepare_batch(batcher, dataset, config, 0, pool, &mut scratch)
            .expect("finite features");
        if dense {
            PreparedBatch::dense(0, prepared.subgraph, prepared.features)
        } else {
            prepared
        }
    }

    #[test]
    fn a_corrupted_payload_fails_its_checksum_and_is_re_prepared() {
        let plan = tiny_plan();
        let clean = first_batch(&plan, false, &mut PackedBufferPool::new())
            .payload
            .expect("a packed batch")
            .checksum();
        // A packed batch fails its checksum verify on attempt 0; a dense one
        // has no payload to damage, so the fault fails the attempt as a
        // transient.  Either way attempt 1 returns a clean batch, drawn from
        // the buffers the rejected attempt handed back to the pool.
        for dense in [false, true] {
            let faults = crate::fault::FaultPlan::parse("prepare:corrupt:0:1").expect("valid");
            let injector = FaultInjector::new(faults);
            let mut pool = PackedBufferPool::new();
            let mut calls = 0;
            let prepared = supervise_prepare(Some(&injector), 0, &mut pool, |pool| {
                calls += 1;
                Ok(first_batch(&plan, dense, pool))
            })
            .expect("one corruption is within the budget");
            assert_eq!(calls, 2, "dense: {dense}");
            assert_eq!(prepared.payload_checksum, (!dense).then_some(clean));
            assert!(prepared.verify_payload());
            assert!(pool.stats().reuses > 0, "dense: {dense}");
            let stats = injector.stats();
            assert_eq!(
                (stats.injected, stats.retried, stats.recovered),
                (1, 1, 1),
                "dense: {dense}"
            );
        }
    }

    #[test]
    fn an_exhausted_corruption_names_a_transient_where_no_payload_exists() {
        let plan = tiny_plan();
        for (dense, kind) in [(false, FaultKind::Corruption), (true, FaultKind::Transient)] {
            let faults = crate::fault::FaultPlan::parse("prepare:corrupt:0:5").expect("valid");
            let injector = FaultInjector::new(faults);
            let result =
                supervise_prepare(Some(&injector), 0, &mut PackedBufferPool::new(), |pool| {
                    Ok(first_batch(&plan, dense, pool))
                });
            assert_eq!(
                result.map(|_| ()),
                Err(QgtcError::BatchFailed {
                    batch: 0,
                    site: FaultSite::Prepare,
                    kind,
                    attempts: MAX_RETRIES + 1,
                }),
                "dense: {dense}"
            );
            assert_eq!(injector.stats().injected, u64::from(MAX_RETRIES + 1));
        }
    }

    #[test]
    fn overlapped_latency_no_worse_than_serial_composition() {
        let dataset = tiny_dataset();
        let report = run_epoch(
            &dataset,
            &tiny_config(QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)),
        );
        assert_eq!(
            report.pipeline,
            DeviceModel::rtx3090().estimate_pipelined(&report.batch_costs, 2)
        );
        assert_eq!(report.pipeline.staging_buffers, 2);
        assert!(report.pipeline.overlapped_s <= report.pipeline.serial_s);
    }
}
